"""Process-pool experiment engine: shard independent simulations.

The paper's headline scaling result is multi-core (one core saturates
10 GbE, twelve reach 178.5 Mpps), and our benches mirror that shape: a
sweep is *many independent simulations* — one ``MoonGenEnv`` per point —
whose results are merged into one table.  ``run_parallel`` fans those
points out across host cores the way MoonGen fans userscript slaves out
across NIC queues, with one hard guarantee:

**bit-identical results regardless of worker count or completion order.**

Three design rules enforce it:

* Workers receive *picklable per-point specs*, never live simulation
  state.  The experiment function builds its own ``MoonGenEnv`` from the
  spec, so no RNG stream or event queue is ever shared between points.
* Every point's seed is ``seed_for(root_seed, point)`` — a pure
  function of the sweep and the point value (`repro.parallel.seeding`),
  independent of which worker runs it or when.
* Results are returned in submission order, whatever order workers
  finish in.

Robustness: a per-point ``timeout_s``, detection of crashed workers
(a worker that dies without reporting), and a bounded per-point retry
budget for both.  Degradation is graceful: ``jobs=1``, a single point,
an unpicklable payload, or a platform without ``fork`` all fall back to
plain in-process serial execution with identical results.

Supervision (``repro.supervise``, docs/RESILIENCE.md) layers on top:

* ``journal=`` — a :class:`~repro.supervise.journal.SweepJournal`;
  completed points are fsync'd to disk as they land and skipped on
  restart, so a killed-and-resumed campaign produces byte-identical
  results and a byte-identical sealed journal for any ``jobs``.
* ``supervise=`` — a :class:`~repro.supervise.policy.SupervisePolicy`;
  workers heartbeat on a dedicated pipe (*hung* vs *slow* vs *crashed*
  classification), retries wait out a deterministic seeded backoff, and
  ``quarantine=True`` turns exhausted points into journaled
  :class:`~repro.supervise.policy.PoisonedPoint` placeholders instead of
  aborting the sweep.
* ``report=`` — a caller-visible
  :class:`~repro.supervise.policy.DegradationReport` mutated in place.
* SIGINT/SIGTERM during a pooled sweep terminate every child (the
  existing grace path), flush the journal, and raise
  :class:`~repro.errors.SweepCancelledError` with a distinct exit code.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import threading
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import (
    JournalCorruptError,
    PointFailedError,
    PointTimeoutError,
    SweepCancelledError,
    WorkerCrashError,
)
from repro.parallel.seeding import point_key, seed_for
from repro.supervise.policy import DegradationReport, PoisonedPoint

#: An experiment function: ``fn(point, seed) -> result``.  It must be a
#: module-level callable (picklable by reference) and its result must be
#: picklable; the point spec carries all configuration.
ExperimentFn = Callable[[Any, int], Any]

#: Grace period for a terminated worker to exit before SIGKILL.
_TERM_GRACE_S = 2.0


def default_jobs() -> int:
    """Worker count when ``jobs`` is not given: the usable host cores."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or ``None`` where absent.

    Workers are forked, not spawned: a forked child inherits the already
    imported simulator modules, so a sweep point costs one ``fork()``
    rather than a fresh interpreter boot per point.  Platforms without
    ``fork`` (Windows; macOS restricts it) degrade to serial execution.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _payload_picklable(fn: ExperimentFn, points: Sequence[Any]) -> bool:
    try:
        pickle.dumps(fn)
        pickle.dumps(list(points))
        return True
    except Exception:
        return False


def _journal_keys(points: Sequence[Any]) -> List[str]:
    """Journal key per point: ``point_key``, ``#k``-suffixed for repeats.

    A sweep may legitimately contain the same point value more than once
    (bench repeat rounds); each occurrence is a distinct unit of work
    and needs its own journal identity, so the k-th duplicate gets a
    ``#k`` suffix.  Identical points share a seed, so their results are
    identical anyway — the suffix only keeps the completion accounting
    one-to-one.
    """
    seen: Dict[str, int] = {}
    keys: List[str] = []
    for p in points:
        key = point_key(p)
        n = seen.get(key, 0)
        seen[key] = n + 1
        keys.append(key if n == 0 else f"{key}#{n}")
    return keys


# ---------------------------------------------------------------------------
# signal handling


class _Cancelled(BaseException):
    """Raised *by the signal handler* to break out of blocking waits.

    A ``BaseException`` on purpose (like ``KeyboardInterrupt``): the
    engine's ``except Exception`` paths must not swallow a cancellation.
    Raising from the handler is also what interrupts
    ``multiprocessing.connection.wait`` — with a non-raising handler,
    PEP 475 would transparently retry the ``poll()`` syscall and the
    coordinator would never notice the signal.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


def _install_cancel_handlers() -> Optional[Dict[int, Any]]:
    """Route SIGINT/SIGTERM into :class:`_Cancelled`; return old handlers.

    Returns ``None`` when not on the main thread (signal handlers can
    only be installed there); the caller then keeps default delivery.
    """

    def _handler(signum: int, frame: Any) -> None:
        raise _Cancelled(signum)

    previous: Dict[int, Any] = {}
    try:
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, _handler)
    except ValueError:  # not the main thread
        _restore_cancel_handlers(previous)
        return None
    return previous


def _restore_cancel_handlers(previous: Optional[Dict[int, Any]]) -> None:
    if not previous:
        return
    for sig, old in previous.items():
        try:
            signal.signal(sig, old)
        except (ValueError, TypeError):
            pass


def _shield_signals() -> Optional[Dict[int, Any]]:
    """Ignore SIGINT/SIGTERM during teardown so a second Ctrl-C cannot
    interrupt worker cleanup and orphan children."""
    previous: Dict[int, Any] = {}
    try:
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, signal.SIG_IGN)
    except ValueError:
        return previous or None
    return previous


# ---------------------------------------------------------------------------
# worker side


def _heartbeat_main(hb_conn, interval_s: float) -> None:
    """Daemon-thread body: tick the heartbeat pipe until the process dies.

    Runs beside the experiment function in the child.  If the experiment
    wedges the interpreter itself (C-level spin, deadlocked GIL), this
    thread stops ticking too — which is exactly the signal the
    coordinator uses to call the worker *hung* rather than *slow*.
    """
    try:
        while True:
            time.sleep(interval_s)
            hb_conn.send(1)
    except Exception:
        pass  # parent went away or we are exiting: nothing to report


def _worker_main(conn, hb_conn, fn: ExperimentFn, point: Any, seed: int,
                 hb_interval_s: float) -> None:
    """Run one point in a forked child; report via the pipe and exit.

    The protocol is a single ``(status, value, detail)`` message:
    ``("ok", result, None)`` or ``("raised", message, traceback)``.  A
    worker that dies without sending anything (segfault, ``os._exit``,
    OOM-kill) is detected by the parent as EOF on the pipe.
    """
    try:
        if hb_conn is not None:
            threading.Thread(
                target=_heartbeat_main, args=(hb_conn, hb_interval_s),
                daemon=True, name="repro-heartbeat").start()
        try:
            payload = ("ok", fn(point, seed), None)
        except BaseException as exc:  # report, don't die: fn errors are data
            payload = ("raised", f"{type(exc).__name__}: {exc}",
                       traceback.format_exc())
        try:
            conn.send(payload)
        except Exception as exc:
            # The result itself would not pickle; that is an fn bug, not
            # a worker crash — report it as a raised error.
            conn.send(("raised",
                       f"result of {fn.__name__} is not picklable: "
                       f"{type(exc).__name__}: {exc}", None))
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# parent side


@dataclass
class _Running:
    """Bookkeeping for one in-flight worker process."""

    proc: Any
    conn: Any
    index: int
    attempt: int
    deadline: Optional[float]
    hb_conn: Any = None
    last_beat: float = 0.0


def _stop_worker(worker: _Running) -> None:
    if worker.proc.is_alive():
        worker.proc.terminate()
        worker.proc.join(_TERM_GRACE_S)
        if worker.proc.is_alive():
            worker.proc.kill()
    worker.proc.join()
    worker.conn.close()
    if worker.hb_conn is not None:
        worker.hb_conn.close()


@dataclass
class _SweepState:
    """Everything one sweep execution shares between launcher and reaper.

    Built by :func:`run_parallel` (including the journal-resume prefill)
    and threaded through the serial and pooled paths so both record
    completions, poisonings, and progress identically.
    """

    points: List[Any]
    seeds: List[int]
    keys: List[str]
    fn: ExperimentFn
    progress: Optional[Callable[[int, int, Any], None]]
    journal: Any
    policy: Any
    report: DegradationReport
    results: List[Any] = field(default_factory=list)
    done: List[bool] = field(default_factory=list)
    done_count: int = 0

    def record(self, index: int, value: Any) -> Any:
        """Store one fresh success (journaling it first when armed)."""
        if self.journal is not None:
            # The journal hands back the JSON round-trip of the payload —
            # what a resumed run would see — so fresh and resumed results
            # agree bit-for-bit.
            value = self.journal.record_point(
                self.keys[index], self.seeds[index], value)
        self.results[index] = value
        self.done[index] = True
        self.done_count += 1
        self.report.completed += 1
        if self.progress is not None:
            self.progress(self.done_count, len(self.points), value)
        return value

    def poison(self, index: int, error: str, attempts: int) -> PoisonedPoint:
        """Quarantine one point: journal it and leave a placeholder."""
        key = self.keys[index]
        seed = self.seeds[index]
        if self.journal is not None:
            self.journal.record_poisoned(key, seed, error, attempts)
        placeholder = PoisonedPoint(key=key, seed=seed, error=str(error),
                                    attempts=int(attempts))
        self.results[index] = placeholder
        self.done[index] = True
        self.done_count += 1
        self.report.poisoned.append(placeholder)
        if self.progress is not None:
            self.progress(self.done_count, len(self.points), placeholder)
        return placeholder

    @property
    def quarantine(self) -> bool:
        return self.policy is not None and self.policy.quarantine


def _prefill_from_journal(state: _SweepState) -> None:
    """Mark journaled points done before any worker is launched.

    Each resumed record's seed is re-checked against the freshly derived
    ``seed_for(root_seed, point)`` — a mismatch means the journal does
    not describe this sweep (or the key derivation changed) and trusting
    it would splice two seed universes into one result set.
    """
    for index, key in enumerate(state.keys):
        record = state.journal.lookup(key)
        if record is None:
            continue
        if record["seed"] != state.seeds[index]:
            raise JournalCorruptError(
                f"{state.journal.path}: record for key {key!r} carries "
                f"seed {record['seed']}, but this sweep derives "
                f"{state.seeds[index]} — journal does not match the sweep")
        if record["kind"] == "point":
            state.results[index] = record["payload"]
        else:
            placeholder = PoisonedPoint(
                key=key, seed=record["seed"], error=record["error"],
                attempts=record["attempts"])
            state.results[index] = placeholder
            state.report.poisoned.append(placeholder)
        state.done[index] = True
        state.done_count += 1
        state.report.resumed += 1


def _run_pool(state: _SweepState, jobs: int, timeout_s: Optional[float],
              retries: int, ctx) -> List[Any]:
    points, seeds = state.points, state.seeds
    n = len(points)
    policy = state.policy
    report = state.report
    attempts = [0] * n
    pending: deque = deque(i for i in range(n) if not state.done[i])
    running: Dict[Any, _Running] = {}
    hb_watch: Dict[Any, _Running] = {}
    #: Earliest monotonic instant each index may be (re)launched at;
    #: populated only by supervised backoff.
    not_before: Dict[int, float] = {}

    def launch(index: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        hb_parent = hb_child = None
        if policy is not None:
            hb_parent, hb_child = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, hb_child, state.fn, points[index],
                  seeds[index],
                  policy.heartbeat_interval_s if policy else 0.0),
            daemon=True,
        )
        attempts[index] += 1
        proc.start()
        child_conn.close()  # the child holds the only write end: EOF == death
        if hb_child is not None:
            hb_child.close()
        deadline = (time.monotonic() + timeout_s) if timeout_s else None
        worker = _Running(proc, parent_conn, index, attempts[index],
                          deadline, hb_conn=hb_parent,
                          last_beat=time.monotonic())
        running[parent_conn] = worker
        if hb_parent is not None:
            hb_watch[hb_parent] = worker

    def unwatch(worker: _Running) -> None:
        if worker.hb_conn is not None:
            hb_watch.pop(worker.hb_conn, None)

    def fail_or_retry(worker: _Running, exc: Exception) -> None:
        if worker.attempt <= retries:
            report.retried += 1
            if policy is not None:
                not_before[worker.index] = time.monotonic() + policy.backoff_s(
                    seeds[worker.index], worker.attempt)
            pending.append(worker.index)
        elif state.quarantine:
            state.poison(worker.index, str(exc), worker.attempt)
        else:
            raise exc

    try:
        while pending or running:
            now = time.monotonic()
            while pending and len(running) < jobs:
                # Launch any index whose backoff has elapsed; rotate the
                # rest so backoff never blocks ready work behind it.
                for _ in range(len(pending)):
                    index = pending.popleft()
                    if not_before.get(index, 0.0) <= now:
                        launch(index)
                        break
                    pending.append(index)
                else:
                    break  # every pending index is still backing off
            if not running:
                if not pending:
                    break
                # Everything is waiting out a backoff: sleep to the
                # earliest relaunch instant instead of spinning.
                earliest = min(not_before.get(i, 0.0) for i in pending)
                time.sleep(max(0.0, min(earliest - time.monotonic(), 0.1)))
                continue
            wait_s = None
            deadlines = [w.deadline for w in running.values() if w.deadline]
            if pending and len(running) < jobs:
                deadlines.extend(not_before.get(i) for i in pending
                                 if not_before.get(i) is not None)
            if deadlines:
                wait_s = max(0.0, min(deadlines) - now)
            ready = multiprocessing.connection.wait(
                list(running) + list(hb_watch), wait_s)
            for conn in ready:
                if conn in hb_watch:
                    worker = hb_watch[conn]
                    beats = 0
                    try:
                        while conn.poll():
                            conn.recv()
                            beats += 1
                    except (EOFError, OSError):
                        # The worker side is gone; death itself is
                        # detected on the *result* pipe, so just stop
                        # listening here.
                        del hb_watch[conn]
                        continue
                    if beats:
                        worker.last_beat = time.monotonic()
                    continue
                worker = running.pop(conn, None)
                if worker is None:
                    continue  # already reaped via its heartbeat twin
                unwatch(worker)
                try:
                    status, value, detail = conn.recv()
                except EOFError:
                    # Died without reporting: a genuine worker crash.
                    _stop_worker(worker)
                    report.crashed += 1
                    fail_or_retry(worker, WorkerCrashError(
                        f"worker for point {worker.index} "
                        f"(key {point_key(points[worker.index])!r}) "
                        f"died with exit code "
                        f"{worker.proc.exitcode} after "
                        f"{worker.attempt} attempt(s)"))
                    continue
                worker.proc.join()
                conn.close()
                if worker.hb_conn is not None:
                    worker.hb_conn.close()
                if status == "ok":
                    state.record(worker.index, value)
                elif state.quarantine:
                    # An error raised *by fn* is deterministic — retrying
                    # cannot help — so it poisons immediately, with the
                    # same "<Type>: <msg>" string the serial path writes.
                    state.poison(worker.index, value, worker.attempt)
                else:
                    raise PointFailedError(
                        f"point {worker.index} ({points[worker.index]!r}) "
                        f"raised {value}"
                        + (f"\n{detail}" if detail else ""))
            now = time.monotonic()
            expired = [w for w in running.values()
                       if w.deadline is not None and now >= w.deadline]
            for worker in expired:
                del running[worker.conn]
                unwatch(worker)
                _stop_worker(worker)
                verdict = ""
                if policy is not None and worker.hb_conn is not None:
                    silent_s = now - worker.last_beat
                    if silent_s >= policy.hung_after_s:
                        report.hung += 1
                        verdict = (f" (hung: heartbeat silent for "
                                   f"{silent_s:.2f} s)")
                    else:
                        report.slow += 1
                        verdict = " (slow: heartbeats were still arriving)"
                fail_or_retry(worker, PointTimeoutError(
                    f"point {worker.index} "
                    f"(key {point_key(points[worker.index])!r}) "
                    f"exceeded {timeout_s} s on every one of "
                    f"{worker.attempt} attempt(s)" + verdict))
    finally:
        shield = _shield_signals()
        try:
            for worker in list(running.values()):
                _stop_worker(worker)
            running.clear()
            hb_watch.clear()
        finally:
            _restore_cancel_handlers(shield)
    assert all(state.done)
    return state.results


def _run_serial(state: _SweepState) -> List[Any]:
    points = state.points
    for index, (point, seed) in enumerate(zip(points, state.seeds)):
        if state.done[index]:
            continue
        try:
            value = state.fn(point, seed)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            if state.quarantine:
                state.poison(index, error, attempts=1)
                continue
            raise PointFailedError(
                f"point {index} ({point!r}) raised {error}") from exc
        state.record(index, value)
    return state.results


def run_parallel(
    points: Sequence[Any],
    fn: ExperimentFn,
    *,
    jobs: Optional[int] = None,
    root_seed: int = 0,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    progress: Optional[Callable[[int, int, Any], None]] = None,
    journal: Any = None,
    supervise: Any = None,
    report: Optional[DegradationReport] = None,
) -> List[Any]:
    """Run ``fn(point, seed)`` for every point; results in point order.

    ``jobs`` is the worker-process count (default: host cores).  The
    per-point ``seed`` is ``seed_for(root_seed, point)``, so the output
    is bit-identical for any ``jobs`` — parallel execution is purely a
    wall-clock optimization.

    ``timeout_s`` bounds each point's wall time per attempt; ``retries``
    is the extra-attempt budget per point after a worker crash or a
    timeout (an exception *raised by fn* is deterministic and fails the
    sweep immediately as :class:`~repro.errors.PointFailedError`).

    ``progress`` (optional) is called in the parent as
    ``progress(done_count, total, result)`` after every completed point,
    in *completion* order — purely observational (the ``--live`` CLI
    line); it must not mutate results.

    Supervision (all optional; see docs/RESILIENCE.md):

    * ``journal`` — a :class:`~repro.supervise.journal.SweepJournal`.
      ``run_parallel`` owns its lifecycle: opens it against
      ``root_seed``, skips points it already records (fingerprints
      re-verified), fsyncs each fresh completion, and *seals* it in
      canonical point order on success.  With a journal armed every
      result — fresh or resumed — is JSON-canonicalized, so resume is
      bit-identical.  Results must be JSON-serializable.
    * ``supervise`` — a :class:`~repro.supervise.policy.SupervisePolicy`
      enabling worker heartbeats (hung/slow/crashed classification),
      deterministic seeded retry backoff, and (``quarantine=True``)
      poison-point quarantine: an exhausted point becomes a
      :class:`~repro.supervise.policy.PoisonedPoint` placeholder in the
      results instead of an exception.
    * ``report`` — a :class:`~repro.supervise.policy.DegradationReport`
      mutated in place (one is created internally when omitted).

    While a pooled sweep runs on the main thread, SIGINT/SIGTERM are
    routed into a clean cancellation: children terminated (grace, then
    SIGKILL), journal flushed and closed, and
    :class:`~repro.errors.SweepCancelledError` raised (exit code
    ``128 + signum`` via ``.exit_code``).

    Falls back to in-process serial execution — same results, same
    exceptions — when ``jobs=1``, there are fewer than two points, the
    payload does not pickle, or the platform lacks ``fork``.
    """
    points = list(points)
    seeds = [seed_for(root_seed, p) for p in points]
    state = _SweepState(
        points=points, seeds=seeds, keys=_journal_keys(points), fn=fn,
        progress=progress, journal=journal, policy=supervise,
        report=report if report is not None else DegradationReport(),
        results=[None] * len(points), done=[False] * len(points))
    if journal is not None:
        journal.open(root_seed)
    if jobs is None:
        jobs = default_jobs()
    jobs = max(1, int(jobs))

    def dispatch() -> List[Any]:
        if journal is not None:
            _prefill_from_journal(state)
        remaining = state.done.count(False)
        if jobs == 1 or remaining <= 1 or len(points) <= 1:
            return _run_serial(state)
        ctx = _fork_context()
        if ctx is None:
            warnings.warn(
                "repro.parallel: no 'fork' start method on this platform; "
                "running the sweep serially", RuntimeWarning, stacklevel=3)
            return _run_serial(state)
        if not _payload_picklable(fn, points):
            warnings.warn(
                "repro.parallel: experiment fn or points are not picklable; "
                "running the sweep serially", RuntimeWarning, stacklevel=3)
            return _run_serial(state)
        return _run_pool(state, min(jobs, remaining), timeout_s, retries,
                         ctx)

    supervised = journal is not None or supervise is not None
    handlers = _install_cancel_handlers() if (supervised or jobs > 1) else None
    try:
        results = dispatch()
    except _Cancelled as exc:
        raise SweepCancelledError(exc.signum) from None
    finally:
        _restore_cancel_handlers(handlers)
        if journal is not None:
            journal.close()
    if journal is not None:
        journal.seal(state.keys)
    return results
