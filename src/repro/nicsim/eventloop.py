"""Deterministic discrete-event loop.

Time is integer picoseconds.  Events scheduled for the same instant fire in
insertion order (a monotonically increasing sequence number breaks ties), so
simulations are reproducible bit-for-bit given the same seeds.

Two execution styles coexist:

* **callback style** — components such as NIC MACs schedule plain callbacks;
* **process style** — tasks are generator coroutines wrapped in
  :class:`Process`; they ``yield`` delays (picoseconds) or :class:`Signal`
  objects to block.  This is how userscript slave tasks run (the analog of
  MoonGen's one-LuaJIT-VM-per-core model).

Hot-path structure (docs/PERFORMANCE.md):

* **one binary heap** — ``schedule_at`` pushes ``(time_ps, seq, Event)``
  tuples straight onto the loop's heap list; ``seq`` comes from one
  counter, so the order is total and the :class:`Event` is never
  compared.
* **same-instant fast lane** — events scheduled for the *current* instant
  (``schedule(0, ...)``, the process-resume pattern) go into a plain FIFO
  deque instead of the heap: O(1), no sequence number.  Ordering is
  preserved exactly: every heap entry at the current instant was
  scheduled before ``now`` reached it and therefore precedes every
  fast-lane entry, which are kept in insertion order by the deque.
* **lazy-deletion compaction** — ``Event.cancel`` only sets a flag; the
  heap entry stays until popped.  Long runs that cancel many timers
  (e.g. ``wait_any`` timeouts) would otherwise grow the heap without
  bound, so the heap counts lingering cancelled entries and rebuilds in
  place once they exceed half its size.
* **exact O(1) live counts** — every event knows its accounting owner
  (the heap, or the loop for lane events) and whether it is still
  enqueued, so cancels decrement the right live counter exactly once and
  cancelling an already-fired handle (the MAC-wakeup and
  ``wait_any``-timeout patterns) is a no-op.  ``pending_events`` is a
  counter read, not a scan.
* **one hot loop** — :meth:`EventLoop._run` keeps the hot structures in
  locals and inlines the step logic; the tracer hook costs one local
  ``is not None`` test per event when disabled.  Attach tracers before
  calling ``run()``.  ``run()`` and ``step()`` drive it in segments and
  do the rest between them: the ``max_events`` budget, the
  :class:`Watchdog` checks, the daemon rule and the final clock advance.

A *daemon* (:meth:`EventLoop.schedule_daemon`, the metrics snapshotter's
wakes) is an ordinary event that never keeps ``run()`` alive on its own:
before the clock crosses into its instant, if no live event other than a
daemon is left and no ``until_ps`` reaches that instant, ``run()``
cancels the daemons and returns with the clock where the last real
event put it.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import Counter as _Counter, deque
from typing import Any, Callable, Deque, Generator, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, SimAborted, SimulationError

#: Compact the heap when cancelled entries exceed this fraction of it.
_COMPACT_FRACTION = 0.5
#: ...but never bother compacting heaps smaller than this.
_COMPACT_MIN = 64


class Event:
    """A scheduled callback; cancellable until it fires."""

    __slots__ = ("time_ps", "callback", "cancelled", "_owner", "_in_sched")

    def __init__(self, time_ps: int, callback: Callable[[], None],
                 owner: Optional[Any] = None) -> None:
        self.time_ps = time_ps
        self.callback = callback
        self.cancelled = False
        # Accounting owner for lazy deletion: the loop's heap holding this
        # event, or the loop itself for fast-lane events.  ``_in_sched``
        # is cleared when the event is popped to fire, so cancelling a
        # stale handle afterwards cannot decrement a live counter twice.
        self._owner = owner
        self._in_sched = owner is not None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._in_sched:
            self._in_sched = False
            self._owner.note_cancelled()


class _Heap:
    """The loop's binary heap and its lazy-deletion accounting.

    Owner (see :class:`Event`) of every event in ``queue``.  Only
    :class:`EventLoop` touches it; everything else reads the pending set
    through the loop's methods.
    """

    __slots__ = ("queue", "live", "cancelled", "compactions")

    def __init__(self) -> None:
        self.queue: List[Tuple[int, int, Event]] = []
        #: Live (non-cancelled) events in ``queue`` — exact, see Event.
        self.live = 0
        #: Cancelled events still sitting in ``queue`` (lazy deletion).
        self.cancelled = 0
        self.compactions = 0

    def note_cancelled(self) -> None:
        self.live -= 1
        self.cancelled += 1
        queue = self.queue
        if (len(queue) > _COMPACT_MIN
                and self.cancelled > len(queue) * _COMPACT_FRACTION):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and rebuild the heap (O(n)).

        Mutates the list in place: ``run()`` keeps the heap in a local,
        so rebinding ``queue`` would strand it on a stale list.
        """
        queue = self.queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        self.cancelled = 0
        self.compactions += 1


class Watchdog:
    """Opt-in simulation watchdogs for :meth:`EventLoop.run`.

    Complements the existing ``max_events`` budget with two guards a
    long unattended campaign actually needs (docs/RESILIENCE.md):

    * ``wall_deadline_s`` — a *host wall-clock* ceiling for one ``run()``
      call.  A simulation that is making sim-time progress but will
      never finish within the operator's patience aborts with
      :class:`~repro.errors.SimAborted` instead of holding a worker
      forever.  Checked between segments of the hot loop, every
      ``check_every`` events, so it costs nothing per event.
    * ``max_zero_advance`` — a livelock detector: K *consecutive* events
      fired without the simulated clock advancing means some component
      is rescheduling itself at the current instant forever (the classic
      ``yield None`` spin).  ``max_events`` would eventually catch it,
      but only after minutes of useless work; this trips in micro-
      seconds and names the culprits.

    On a trip the loop raises :class:`~repro.errors.SimAborted` carrying
    a diagnostics snapshot: the simulated clock, live pending-event
    counts, the top pending-event owners (via
    :meth:`EventLoop.iter_entries`), and — when ``registry`` is attached
    (``MoonGenEnv(metrics=..., watchdog=...)`` wires it) — the current
    value of every live metric.

    Both guards are opt-in and the watchdog object is reusable across
    ``run()`` calls; ``None`` fields disable the corresponding guard.
    """

    __slots__ = ("wall_deadline_s", "max_zero_advance", "check_every",
                 "registry")

    def __init__(self, wall_deadline_s: Optional[float] = None,
                 max_zero_advance: Optional[int] = None,
                 check_every: int = 4096,
                 registry: Any = None) -> None:
        if wall_deadline_s is not None and wall_deadline_s <= 0:
            raise ConfigurationError(
                f"wall_deadline_s must be positive, got {wall_deadline_s}")
        if max_zero_advance is not None and max_zero_advance < 1:
            raise ConfigurationError(
                f"max_zero_advance must be >= 1, got {max_zero_advance}")
        if int(check_every) < 1:
            raise ConfigurationError(
                f"check_every must be >= 1, got {check_every}")
        self.wall_deadline_s = wall_deadline_s
        self.max_zero_advance = max_zero_advance
        self.check_every = int(check_every)
        self.registry = registry


class EventLoop:
    """The simulation scheduler."""

    def __init__(self) -> None:
        #: Future events: one binary heap of ``(time_ps, seq, Event)``.
        self._heap = _Heap()
        self._seq = itertools.count()
        #: Same-instant FIFO fast lane: events for the current ``now_ps``.
        self._lane: Deque[Event] = deque()
        #: Live (non-cancelled) events in the lane — exact, see Event.
        self._lane_live = 0
        self.now_ps = 0
        self._processes: List["Process"] = []
        #: Daemon events (:meth:`schedule_daemon`); the driver drops the
        #: spent ones.
        self._daemons: List[Event] = []
        #: Horizon of the innermost active ``run(until_ps=...)`` call, used
        #: by the batch tier to bound its arithmetic time skips.
        self._until_ps: Optional[int] = None
        #: Total events executed over the loop's lifetime, by :meth:`run`,
        #: :meth:`step` or the self-profiler; added as each segment ends.
        self.events_processed = 0
        #: Of those, events taken from the same-instant fast lane —
        #: ``lane_events_processed / events_processed`` is the fast-lane
        #: hit ratio published as ``loop.lane_hit_ratio``.
        self.lane_events_processed = 0
        #: Optional :class:`repro.trace.Tracer`; ``None`` keeps every
        #: instrumentation site on its zero-cost fast path.
        self.tracer = None
        #: Batch dispatch hook (``repro.batch``): a :class:`BatchTier`
        #: shared by every port on this loop, or ``None``.  While set,
        #: ports route homogeneous event trains through
        #: ``batch.execute(port, start_ps)`` instead of scheduling them
        #: one event at a time; the tier owns the run-detection rules
        #: and the fallback accounting.
        self.batch = None
        #: Optional :class:`Watchdog`, checked between segments.
        self.watchdog: Optional[Watchdog] = None

    @property
    def now_ns(self) -> float:
        """Current simulation time in nanoseconds."""
        return self.now_ps / 1000.0

    def schedule(self, delay_ps: int, callback: Callable[[], None]) -> Event:
        """Run ``callback`` after ``delay_ps`` picoseconds."""
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule into the past: {delay_ps}")
        return self.schedule_at(self.now_ps + int(delay_ps), callback)

    def schedule_at(self, time_ps: int, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at absolute time ``time_ps``."""
        time_ps = int(time_ps)
        if time_ps == self.now_ps:
            # Same-instant fast lane: plain FIFO append.  Every heap entry
            # at this instant predates it, so heap-first keeps seq order.
            event = Event(time_ps, callback, self)
            self._lane.append(event)
            self._lane_live += 1
            return event
        if time_ps < self.now_ps:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps, now is {self.now_ps} ps"
            )
        heap = self._heap
        event = Event(time_ps, callback, heap)
        heapq.heappush(heap.queue, (time_ps, next(self._seq), event))
        heap.live += 1
        return event

    def schedule_daemon(self, time_ps: int, callback: Callable[[], None]
                        ) -> Event:
        """Run ``callback`` at ``time_ps`` as a daemon (module docstring).

        The driver reads the daemons between segments: one a daemon
        schedules is seen at once, one any other event schedules inside
        ``run()`` takes effect from the next ``run()`` call.
        """
        event = self.schedule_at(time_ps, callback)
        self._daemons.append(event)
        return event

    # -- lazy deletion ---------------------------------------------------------

    def note_cancelled(self) -> None:
        """A live fast-lane event was cancelled (owner-accounting hook)."""
        self._lane_live -= 1

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) events currently scheduled.

        An O(1) counter read: every event carries its accounting owner
        and an enqueued flag, so cancels decrement exactly once and
        cancelling an already-fired handle (the MAC-wakeup and
        ``wait_any``-timeout patterns) changes nothing.
        """
        return self._heap.live + self._lane_live

    def next_event_time_ps(self) -> Optional[int]:
        """Time of the next live event, or ``None`` if the loop is empty.

        The batch tier uses this (plus the active ``run`` horizon, see
        :meth:`batch_bound_ps`) to know how far state may be advanced
        arithmetically without skipping an observer.
        """
        if self._lane_live:
            return self.now_ps
        heap = self._heap
        queue = heap.queue
        while queue:
            time_ps, _, event = queue[0]
            if not event.cancelled:
                return time_ps
            heapq.heappop(queue)
            heap.cancelled -= 1
        return None

    def batch_bound_ps(self) -> Optional[int]:
        """Latest instant a batch-tier train may advance state to, exclusive.

        ``None`` means unbounded (empty queue, no active horizon).  Inside
        ``run(until_ps=...)`` the horizon caps the bound so counters never
        reflect frames the event-driven path would not have sent yet.
        """
        bound = self.next_event_time_ps()
        if self._until_ps is not None:
            bound = self._until_ps if bound is None else min(bound, self._until_ps)
        return bound

    # -- introspection (batch detector, watchdog, metrics) ---------------------

    def entry_count(self) -> int:
        """Heap entries currently stored, including lazily-cancelled ones."""
        return len(self._heap.queue)

    def iter_entries(self) -> Iterator[Tuple[int, Event]]:
        """Yield ``(time_ps, event)`` for every stored entry: the heap in
        heap order, then the lane.  Lazily-cancelled entries are included;
        callers skip ``event.cancelled``."""
        for time_ps, _seq, event in self._heap.queue:
            yield time_ps, event
        for event in self._lane:
            yield event.time_ps, event

    def sched_gauges(self) -> dict:
        """Gauge callables published as ``loop.sched.*`` by the env."""
        heap = self._heap
        return {
            "entries": self.entry_count,
            "live": lambda: heap.live,
            "compactions": lambda: heap.compactions,
        }

    # -- execution -------------------------------------------------------------

    def _next_event(self) -> Optional[Event]:
        """Pop the next live event in deterministic order, or ``None``.

        Only the self-profiler (:class:`repro.metrics.LoopProfiler`)
        drives the loop this way; it counts lane pops as :meth:`_run`
        does.
        """
        lane = self._lane
        heap = self._heap
        queue = heap.queue
        while True:
            if queue:
                time_ps, _, event = queue[0]
                if event.cancelled:
                    heapq.heappop(queue)
                    heap.cancelled -= 1
                    continue
                # Heap entries at the current instant predate lane
                # entries, so they fire first.
                if not lane or time_ps <= self.now_ps:
                    heapq.heappop(queue)
                    event._in_sched = False
                    heap.live -= 1
                    return event
            if not lane:
                return None
            event = lane.popleft()
            if event.cancelled:
                continue
            event._in_sched = False
            self._lane_live -= 1
            self.lane_events_processed += 1
            return event

    def step(self) -> bool:
        """Run the next pending event; returns False if none are left.

        A one-event :meth:`run`: when only daemons are left it cancels
        them and returns False.
        """
        return self._drive(None, 1) == 1

    def run(self, until_ps: Optional[int] = None, max_events: int = 50_000_000) -> None:
        """Run events until the queue drains or ``until_ps`` is reached.

        ``max_events`` guards against runaway simulations; exceeding it is a
        bug in the caller, not a normal exit.  Without ``until_ps`` the
        run also ends when only daemons are left (module docstring).
        """
        if self._drive(until_ps, max_events + 1) > max_events:
            raise SimulationError(
                f"event budget exhausted after {max_events} events at "
                f"{self.now_ps} ps"
            )
        if until_ps is not None and until_ps > self.now_ps:
            self.now_ps = until_ps

    def _drive(self, until_ps: Optional[int], limit: int) -> int:
        """Fire up to ``limit`` events through :meth:`_run`; returns how
        many fired.

        A segment ends at ``until_ps``, one picosecond before the
        earliest daemon's instant, or where a watchdog check is due.
        The daemon's instant then fires one event per segment until the
        daemon has fired, so it reads counts that include every event
        before it.
        """
        if until_ps is not None and until_ps < self.now_ps:
            # A horizon already in the past fires nothing: events at
            # `now` would overshoot it.
            return 0
        watchdog = self.watchdog
        max_zero = deadline = None
        if watchdog is not None:
            max_zero = watchdog.max_zero_advance
            check_every = watchdog.check_every
            if watchdog.wall_deadline_s is not None:
                deadline = time.monotonic() + watchdog.wall_deadline_s
        fired = 0
        zero_advance = 0
        prev_until = self._until_ps
        self._until_ps = until_ps
        try:
            while fired < limit:
                budget = limit - fired
                if max_zero is not None:
                    budget = min(budget, max_zero - zero_advance)
                if deadline is not None:
                    budget = min(budget, check_every - fired % check_every)
                stop = until_ps
                self._daemons = [e for e in self._daemons if e._in_sched]
                daemon_ps = min((e.time_ps for e in self._daemons),
                                default=None)
                if daemon_ps is not None and (until_ps is None
                                              or daemon_ps <= until_ps):
                    if self.next_event_time_ps() < daemon_ps:
                        stop = daemon_ps - 1
                    elif (daemon_ps > self.now_ps and until_ps is None
                          and self.pending_events == len(self._daemons)):
                        for event in self._daemons:  # only daemons left
                            event.cancel()
                        break
                    else:
                        stop, budget = daemon_ps, 1
                count, still = self._run(stop, budget)
                fired += count
                # `still == count`: the clock did not move this segment.
                zero_advance = (zero_advance + count if still == count
                                else still)
                if fired >= limit:
                    break
                if max_zero is not None and zero_advance >= max_zero:
                    raise SimAborted(
                        f"livelock: {zero_advance} consecutive events "
                        f"without sim-time progress at {self.now_ps} ps",
                        self.diagnostics_snapshot(
                            "livelock", fired, zero_advance))
                if (deadline is not None and count
                        and fired % check_every == 0
                        and time.monotonic() > deadline):
                    raise SimAborted(
                        f"wall-clock deadline: run() exceeded "
                        f"{watchdog.wall_deadline_s} s after {fired} events "
                        f"at {self.now_ps} ps",
                        self.diagnostics_snapshot(
                            "wall_deadline", fired, zero_advance))
                if count < budget and stop == until_ps:
                    break  # nothing left up to the caller's horizon
        finally:
            self._until_ps = prev_until
        return fired

    def _run(self, stop_ps: Optional[int], limit: int) -> Tuple[int, int]:
        """The hot loop: fire events in order until the next one lies
        beyond ``stop_ps`` or ``limit`` have fired; the clock moves only
        by firing.  Returns ``(fired, still)``, ``still`` counting the
        events fired after the clock last moved (``fired`` if it never
        did).  The counts are added to the totals even if a callback
        raises.
        """
        heap = self._heap
        lane = self._lane
        queue = heap.queue
        pop = heapq.heappop
        push = heapq.heappush
        tracer = self.tracer
        now = self.now_ps
        count = 0
        lane_count = 0
        moved = -1  # `count` when the clock last moved
        try:
            while True:
                # Inline _next_event(): this loop is the hottest code in the
                # simulator, every attribute load counts.
                if lane:
                    if queue and queue[0][0] <= now:
                        entry = pop(queue)
                        event = entry[2]
                        if event.cancelled:
                            heap.cancelled -= 1
                            continue
                        event._in_sched = False
                        heap.live -= 1
                    else:
                        event = lane.popleft()
                        if event.cancelled:
                            continue
                        event._in_sched = False
                        self._lane_live -= 1
                        lane_count += 1
                elif queue:
                    entry = pop(queue)
                    event = entry[2]
                    if event.cancelled:
                        heap.cancelled -= 1
                        continue
                    time_ps = entry[0]
                    if stop_ps is not None and time_ps > stop_ps:
                        # Past the stop: put the (rare) overshooting
                        # event back — peeking every iteration costs more.
                        push(queue, entry)
                        break
                    event._in_sched = False
                    heap.live -= 1
                    if time_ps != now:
                        now = time_ps
                        self.now_ps = time_ps
                        moved = count
                else:
                    break
                if tracer is not None:
                    tracer.emit("event", "event_fired",
                                cb=_callback_name(event.callback))
                event.callback()
                count += 1
                if count >= limit:
                    break
        finally:
            self.events_processed += count
            self.lane_events_processed += lane_count
        return count, count - moved - 1

    def diagnostics_snapshot(self, reason: str, events_run: int = 0,
                             zero_advance: int = 0, top: int = 8) -> dict:
        """What the simulation looks like *right now*, for abort reports.

        Walks :meth:`iter_entries` to attribute pending events to their
        callback owners — on a livelock that list names the components
        spinning at the current instant.  ``metrics`` is included when
        the armed watchdog carries a registry reference.
        """
        owners: _Counter = _Counter()
        for _time_ps, event in self.iter_entries():
            if not event.cancelled:
                owners[_callback_name(event.callback)] += 1
        snapshot = {
            "reason": reason,
            "now_ps": self.now_ps,
            "events_run": events_run,
            "events_processed_total": self.events_processed,
            "zero_advance": zero_advance,
            "pending_events": self.pending_events,
            "lane_live": self._lane_live,
            "top_owners": owners.most_common(top),
        }
        watchdog = self.watchdog
        if watchdog is not None and watchdog.registry is not None:
            try:
                snapshot["metrics"] = watchdog.registry.read_all()
            except Exception as exc:  # diagnostics must never mask the abort
                snapshot["metrics_error"] = f"{type(exc).__name__}: {exc}"
        return snapshot

    def run_for(self, duration_ps: int) -> None:
        """Run for ``duration_ps`` picoseconds of simulated time."""
        self.run(until_ps=self.now_ps + int(duration_ps))

    def spawn(self, generator: Generator[Any, Any, Any], name: str = "") -> "Process":
        """Start a coroutine process on this loop."""
        process = Process(self, generator, name)
        self._processes.append(process)
        return process

    def _next_pid(self) -> int:
        return len(self._processes)

    @property
    def processes(self) -> List["Process"]:
        return list(self._processes)


class Signal:
    """A broadcast condition processes and callbacks can wait on.

    ``trigger(value)`` wakes every current waiter exactly once.  Unlike a
    queue, values are not buffered: waiters registered after a trigger wait
    for the next one.
    """

    __slots__ = ("_waiters",)

    def __init__(self) -> None:
        self._waiters: List[Callable[[Any], None]] = []

    def wait(self, callback: Callable[[Any], None]) -> None:
        self._waiters.append(callback)

    def discard(self, callback: Callable[[Any], None]) -> bool:
        """Drop one registration of ``callback``; True if it was waiting.

        Lets parked processes and :func:`wait_any` combiners deregister
        themselves instead of leaving dead closures in the waiter list (a
        silent leak: a waiter on a signal that never triggers again is
        retained forever, and a process parked on a garbage-collected
        signal never completes).
        """
        try:
            self._waiters.remove(callback)
            return True
        except ValueError:
            return False

    def trigger(self, value: Any = None) -> None:
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        for waiter in waiters:
            waiter(value)

    @property
    def has_waiters(self) -> bool:
        return bool(self._waiters)


class Process:
    """A generator coroutine driven by the event loop.

    The generator may yield:

    * ``int``/``float`` — sleep that many picoseconds (floats truncate),
    * :class:`Signal` — block until the signal triggers; the trigger value is
      sent back into the generator,
    * ``None`` — reschedule immediately (cooperative yield).

    Termination (``StopIteration``) completes the process; uncaught
    exceptions are stored in :attr:`error` and re-raised by :meth:`check`.
    """

    __slots__ = (
        "loop", "generator", "name", "pid", "finished", "error", "result",
        "done_signal", "_stopped", "_parked_signal", "_parked_callback",
        "_resume",
    )

    def __init__(self, loop: EventLoop, generator: Generator, name: str = "") -> None:
        self.loop = loop
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.pid = loop._next_pid()
        self.finished = False
        self.error: Optional[BaseException] = None
        self.result: Any = None
        self.done_signal = Signal()
        self._stopped = False
        # The signal/callback pair this process is currently parked on, so
        # kill() can deregister instead of leaking the waiter.
        self._parked_signal: Optional[Signal] = None
        self._parked_callback: Optional[Callable[[Any], None]] = None
        # One reusable resume thunk instead of a fresh lambda per yield.
        self._resume = self._advance_none
        loop.schedule(0, self._resume)

    def _advance_none(self) -> None:
        self._advance(None)

    def stop(self) -> None:
        """Ask the process to stop: the pending yield raises GeneratorExit."""
        self._stopped = True

    def _finish(self, outcome: str) -> None:
        self.finished = True
        tracer = self.loop.tracer
        if tracer is not None:
            tracer.emit("proc", "proc_finish", pid=self.pid, name=self.name,
                        outcome=outcome)

    def _advance(self, value: Any) -> None:
        if self.finished:
            return
        self._parked_signal = None
        self._parked_callback = None
        tracer = self.loop.tracer
        if tracer is not None:
            tracer.emit("proc", "proc_advance", pid=self.pid, name=self.name)
        try:
            if self._stopped:
                self.generator.close()
                raise StopIteration
            yielded = self.generator.send(value)
        except StopIteration as stop:
            self.result = getattr(stop, "value", None)
            self._finish("ok")
            self.done_signal.trigger(self.result)
            return
        except BaseException as exc:  # noqa: BLE001 - stored and re-raised
            self.error = exc
            self._finish("error")
            self.done_signal.trigger(None)
            return
        # Dispatch cheapest-common-first: integer delays dominate (every
        # cycle charge), then None (cooperative yield), then signals.  All
        # other numerics — floats from ns-scale math, bools, IntEnum
        # members — funnel through one explicit truncation below, the
        # single place float delays are accepted.
        if type(yielded) is int:
            delay_ps = yielded
        elif yielded is None:
            delay_ps = 0
        elif isinstance(yielded, Signal):
            callback = self._advance
            self._parked_signal = yielded
            self._parked_callback = callback
            if tracer is not None:
                tracer.emit("proc", "proc_block", pid=self.pid, name=self.name)
            yielded.wait(callback)
            return
        elif isinstance(yielded, (int, float)):
            delay_ps = int(yielded)
        else:
            self.error = SimulationError(
                f"process {self.name!r} yielded unsupported value "
                f"{yielded!r}; expected delay, Signal, or None"
            )
            self._finish("error")
            self.done_signal.trigger(None)
            return
        self.loop.schedule(delay_ps, self._resume)

    def check(self) -> None:
        """Re-raise any exception the process died with."""
        if self.error is not None:
            raise self.error

    def kill(self) -> None:
        """Terminate the process immediately (it may be parked on a signal).

        Any pending waiter registration is dropped, so the parked-on signal
        does not retain (or later resume) a dead process.
        """
        if self.finished:
            return
        if self._parked_signal is not None and self._parked_callback is not None:
            self._parked_signal.discard(self._parked_callback)
            self._parked_signal = None
            self._parked_callback = None
        self._finish("killed")
        self.generator.close()
        self.done_signal.trigger(None)


def _callback_name(callback: Callable) -> str:
    """A deterministic human-readable label for a scheduled callback."""
    name = getattr(callback, "__qualname__", None)
    if name is None:
        name = type(callback).__name__
    return name


class _WaitAnyCombiner:
    """The exactly-once waiter behind :func:`wait_any`.

    One ``__slots__`` object per call instead of a state dict plus two
    closures: the instance itself is the callable registered on every
    source signal (and as the timeout callback), so winning — from any
    source or the timeout — deregisters the same object everywhere.
    """

    # Trace/profile label: keep the historical ``wait_any`` prefix so the
    # self-profiler still attributes these callbacks to the ``signal``
    # category (repro.metrics.profiler.CATEGORY_BY_PREFIX).
    __qualname__ = "wait_any.combiner"

    __slots__ = ("signals", "combined", "timeout_event", "fired")

    def __init__(self, signals: List[Signal], combined: Signal) -> None:
        self.signals = signals
        self.combined = combined
        self.timeout_event: Optional[Event] = None
        self.fired = False

    def __call__(self, value: Any = None) -> None:
        if self.fired:
            return
        self.fired = True
        for signal in self.signals:
            signal.discard(self)
        if self.timeout_event is not None:
            self.timeout_event.cancel()
        self.combined.trigger(value)


def wait_any(loop: EventLoop, signals: List[Signal], timeout_ps: Optional[int] = None) -> Signal:
    """A signal that fires when any source signal fires or a timeout elapses.

    Exactly-once semantics with no leaks: when one source (or the timeout)
    wins, the combiner deregisters itself from every other source signal
    and cancels the pending timeout event.  Long-lived signals (rx packet
    signals, pipe data signals) therefore never accumulate dead combiner
    objects across repeated ``wait_any`` calls.
    """
    combined = Signal()
    combiner = _WaitAnyCombiner(list(signals), combined)
    for signal in combiner.signals:
        signal.wait(combiner)
    if timeout_ps is not None:
        combiner.timeout_event = loop.schedule(max(0, int(timeout_ps)), combiner)
    return combined
