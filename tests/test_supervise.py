"""Tests for ``repro.supervise``: journals, supervision, watchdogs.

The acceptance bar is the resilience contract of docs/RESILIENCE.md:

* a sweep killed at *any* point and resumed from its journal produces
  results — and a sealed journal — byte-identical to an uninterrupted
  run, for any ``jobs``;
* worker failures are classified (crashed / hung / slow), retried after
  deterministic backoff, and quarantined as poisoned points instead of
  aborting when the policy says so;
* a livelocked or wall-clock-runaway simulation aborts with
  :class:`SimAborted` plus a diagnostics snapshot instead of hanging.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import MoonGenEnv
from repro.errors import (
    ConfigurationError,
    JournalCorruptError,
    PointFailedError,
    SimAborted,
)
from repro.parallel import point_key, run_parallel, seed_for
from repro.parallel.engine import _fork_context, _journal_keys
from repro.supervise import (
    DegradationReport,
    PoisonedPoint,
    PoisonedPointError,
    SupervisePolicy,
    SweepCancelledError,
    SweepJournal,
    Watchdog,
    backoff_delay_s,
    payload_fingerprint,
)
from tests._hypothesis_profiles import property_settings

SETTINGS = property_settings()
HEAVY = property_settings(8)

HAVE_FORK = _fork_context() is not None

# ---------------------------------------------------------------------------
# experiment functions (module-level so they pickle by reference)


def _mix(point, seed):
    """A deterministic JSON-friendly function of (point, seed)."""
    return {"point": point, "mix": (point * 2654435761 + seed) & 0xFFFFFFFF}


def _raise_for_two(point, seed):
    if point == 2:
        raise ValueError(f"deterministic failure for {point!r}")
    return _mix(point, seed)


def _always_crash(point, seed):
    os._exit(9)


def _sleep_forever(point, seed):
    time.sleep(60)


#: Marker directory for kill injection, exported to workers via env so
#: the points (and derived seeds) match the clean run exactly.
_KILL_DIR_ENV = "REPRO_SUPERVISE_KILL_DIR"
_MAIN_PID_ENV = "REPRO_SUPERVISE_MAIN_PID"


def _sigkill_once_then_mix(point, seed):
    """SIGKILLs its own worker on the first attempt per point.

    The marker file makes the second attempt (a fresh fork) survive, so
    with a retry budget the sweep completes — with the same results as a
    clean run, which is what the chaos property asserts.
    """
    marker_dir = os.environ[_KILL_DIR_ENV]
    in_worker = os.environ.get(_MAIN_PID_ENV) != str(os.getpid())
    marker = os.path.join(marker_dir, f"killed-{point_key(point)}")
    if in_worker and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return _mix(point, seed)


class _CoordinatorKilled(Exception):
    """Stand-in for the coordinator dying mid-sweep (raised from the
    progress hook, after the journal record for the point is fsync'd —
    exactly the state a SIGKILL'd coordinator leaves behind)."""


def _kill_coordinator_after(n):
    state = {"done": 0}

    def progress(done, total, result):
        state["done"] += 1
        if state["done"] >= n:
            raise _CoordinatorKilled(n)

    return progress


# ---------------------------------------------------------------------------
# journal format


class TestJournalFormat:
    def _clean_journal(self, path, n=3):
        journal = SweepJournal(str(path))
        journal.open(root_seed=5)
        for p in range(n):
            journal.record_point(point_key(p), seed_for(5, p),
                                 _mix(p, seed_for(5, p)))
        journal.close()
        return journal

    def test_header_is_first_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._clean_journal(path)
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"kind": "header", "schema": 1, "root_seed": 5}

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._clean_journal(path, n=3)
        reloaded = SweepJournal(str(path))
        reloaded.open(root_seed=5)
        assert len(reloaded) == 3
        record = reloaded.lookup(point_key(1))
        assert record["kind"] == "point"
        assert record["payload"] == _mix(1, seed_for(5, 1))
        assert record["fingerprint"] == payload_fingerprint(record["payload"])
        reloaded.close()

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._clean_journal(path, n=3)
        with open(path, "a") as fh:
            fh.write('{"kind":"point","key":"torn')  # crash mid-append
        reloaded = SweepJournal(str(path))
        reloaded.open(root_seed=5)
        assert reloaded.dropped_partial
        assert len(reloaded) == 3
        reloaded.close()
        # The rewrite must have removed the torn line: a third load sees
        # a fully valid file.
        again = SweepJournal(str(path))
        again.open(root_seed=5)
        assert not again.dropped_partial
        again.close()

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._clean_journal(path, n=3)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = "GARBAGE NOT JSON\n"
        path.write_text("".join(lines))
        with pytest.raises(JournalCorruptError, match="interior"):
            SweepJournal(str(path)).open(root_seed=5)

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._clean_journal(path, n=2)
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["payload"]["mix"] += 1  # silent bit-rot in the payload
        lines[1] = json.dumps(record, sort_keys=True,
                              separators=(",", ":")) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(JournalCorruptError, match="fingerprint"):
            SweepJournal(str(path)).open(root_seed=5)

    def test_root_seed_mismatch_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._clean_journal(path)
        with pytest.raises(ConfigurationError, match="root seed"):
            SweepJournal(str(path)).open(root_seed=6)

    def test_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._clean_journal(path, n=1)
        with open(path, "a") as fh:
            fh.write('{"kind":"mystery","key":"k","seed":1}\n')
        with pytest.raises(JournalCorruptError, match="kind"):
            SweepJournal(str(path)).open(root_seed=5)

    def test_torn_header_only_file_restarts_fresh(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"kind":"head')  # killed during the very first write
        journal = SweepJournal(str(path))
        journal.open(root_seed=5)
        journal.close()
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "header"

    def test_seal_orders_records_canonically(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(str(path))
        journal.open(root_seed=0)
        keys = [point_key(p) for p in (1, 2, 3)]
        for key in reversed(keys):  # completion order != point order
            journal.record_point(key, 7, {"k": key})
        journal.seal(keys)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["key"] for r in lines[1:]] == keys

    def test_seal_refuses_missing_records(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "j.jsonl"))
        journal.open(root_seed=0)
        with pytest.raises(ConfigurationError, match="no\\s+record"):
            journal.seal([point_key(1)])

    def test_non_json_payload_raises(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "j.jsonl"))
        journal.open(root_seed=0)
        with pytest.raises(ConfigurationError, match="JSON"):
            journal.record_point("k", 1, object())

    def test_poison_record_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(str(path))
        journal.open(root_seed=0)
        journal.record_poisoned("k", 1, "ValueError: boom", attempts=2)
        journal.close()
        reloaded = SweepJournal(str(path))
        reloaded.open(root_seed=0)
        record = reloaded.lookup("k")
        assert record["kind"] == "poisoned"
        assert record["error"] == "ValueError: boom"
        assert record["attempts"] == 2


class TestJournalKeys:
    def test_unique_points_use_plain_keys(self):
        assert _journal_keys([1, 2, 3]) == ["int:1", "int:2", "int:3"]

    def test_duplicates_get_occurrence_suffixes(self):
        assert _journal_keys([5, 5, 5]) == ["int:5", "int:5#1", "int:5#2"]


# ---------------------------------------------------------------------------
# backoff policy


class TestBackoff:
    def test_deterministic(self):
        assert backoff_delay_s(123, 2) == backoff_delay_s(123, 2)

    def test_jitter_within_half_to_full_envelope(self):
        for attempt in range(1, 8):
            base = min(2.0, 0.05 * 2.0 ** (attempt - 1))
            delay = backoff_delay_s(99, attempt)
            assert 0.5 * base <= delay <= base

    def test_capped_at_max(self):
        assert backoff_delay_s(1, 50, max_s=0.25) <= 0.25

    def test_varies_with_attempt_and_seed(self):
        delays = {backoff_delay_s(s, a) for s in (1, 2) for a in (1, 2)}
        assert len(delays) == 4

    def test_policy_wires_knobs(self):
        policy = SupervisePolicy(backoff_base_s=0.1, backoff_factor=3.0,
                                 backoff_max_s=0.4)
        assert policy.backoff_s(7, 4) <= 0.4
        assert policy.backoff_s(7, 1) <= 0.1


# ---------------------------------------------------------------------------
# journaled sweeps: clean, killed, resumed


class TestJournaledSweeps:
    POINTS = [1, 2, 3, 4, 5, 6]

    def _clean(self, tmp_path, jobs, name="clean.jsonl"):
        path = str(tmp_path / name)
        report = DegradationReport()
        results = run_parallel(self.POINTS, _mix, jobs=jobs, root_seed=3,
                               journal=SweepJournal(path), report=report)
        with open(path, "rb") as fh:
            return results, fh.read(), report

    def test_serial_and_pooled_journals_byte_identical(self, tmp_path):
        results_1, bytes_1, _ = self._clean(tmp_path, jobs=1, name="a.jsonl")
        if not HAVE_FORK:
            pytest.skip("no fork start method")
        results_2, bytes_2, _ = self._clean(tmp_path, jobs=3, name="b.jsonl")
        assert results_1 == results_2
        assert bytes_1 == bytes_2

    def test_results_are_json_canonical(self, tmp_path):
        results, _, _ = self._clean(tmp_path, jobs=1)
        assert results == [json.loads(json.dumps(_mix(p, seed_for(3, p))))
                           for p in self.POINTS]

    def test_full_journal_resume_runs_nothing(self, tmp_path):
        results, sealed, _ = self._clean(tmp_path, jobs=1)
        path = str(tmp_path / "clean.jsonl")
        report = DegradationReport()
        again = run_parallel(self.POINTS, _always_crash, jobs=1, root_seed=3,
                            journal=SweepJournal(path), report=report)
        # _always_crash never ran: every point came from the journal.
        assert again == results
        assert report.resumed == len(self.POINTS)
        assert report.completed == 0
        with open(path, "rb") as fh:
            assert fh.read() == sealed

    @pytest.mark.skipif(not HAVE_FORK, reason="no fork start method")
    @given(prefix=st.integers(min_value=1, max_value=5),
           jobs=st.sampled_from([1, 2, 4]))
    @settings(**HEAVY)
    def test_killed_coordinator_resumes_bit_identical(self, tmp_path_factory,
                                                      prefix, jobs):
        """Kill the coordinator after a random prefix of completions (and
        SIGKILL every worker's first attempt): results and the sealed
        journal must match an uninterrupted run byte for byte."""
        tmp_path = tmp_path_factory.mktemp("chaos")
        reference, sealed, _ = self._clean(tmp_path, jobs=1)
        path = str(tmp_path / "chaos.jsonl")
        kill_dir = str(tmp_path / "markers")
        os.makedirs(kill_dir, exist_ok=True)
        os.environ[_KILL_DIR_ENV] = kill_dir
        os.environ[_MAIN_PID_ENV] = str(os.getpid())
        try:
            with pytest.raises(_CoordinatorKilled):
                run_parallel(self.POINTS, _sigkill_once_then_mix, jobs=jobs,
                             root_seed=3, retries=1, timeout_s=30.0,
                             journal=SweepJournal(path),
                             supervise=SupervisePolicy(backoff_base_s=0.001,
                                                       backoff_max_s=0.01),
                             progress=_kill_coordinator_after(prefix))
            report = DegradationReport()
            resumed = run_parallel(self.POINTS, _sigkill_once_then_mix,
                                   jobs=jobs, root_seed=3, retries=1,
                                   timeout_s=30.0,
                                   journal=SweepJournal(path),
                                   supervise=SupervisePolicy(
                                       backoff_base_s=0.001,
                                       backoff_max_s=0.01),
                                   report=report)
        finally:
            os.environ.pop(_KILL_DIR_ENV, None)
            os.environ.pop(_MAIN_PID_ENV, None)
        assert resumed == reference
        assert report.resumed >= prefix
        with open(path, "rb") as fh:
            assert fh.read() == sealed

    def test_duplicate_points_each_journaled(self, tmp_path):
        path = str(tmp_path / "dup.jsonl")
        results = run_parallel([5, 5, 5], _mix, jobs=1, root_seed=0,
                               journal=SweepJournal(path))
        assert results[0] == results[1] == results[2]
        lines = [json.loads(l) for l in open(path).read().splitlines()]
        assert [r["key"] for r in lines[1:]] == ["int:5", "int:5#1",
                                                 "int:5#2"]
        # Resume skips all three occurrences.
        report = DegradationReport()
        again = run_parallel([5, 5, 5], _always_crash, jobs=1, root_seed=0,
                             journal=SweepJournal(path), report=report)
        assert again == results and report.resumed == 3

    def test_journal_for_different_sweep_is_rejected(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        run_parallel([1, 2], _mix, jobs=1, root_seed=3,
                     journal=SweepJournal(path))
        with pytest.raises(ConfigurationError, match="root seed"):
            run_parallel([1, 2], _mix, jobs=1, root_seed=4,
                         journal=SweepJournal(path))


# ---------------------------------------------------------------------------
# quarantine and degradation reports


class TestQuarantine:
    def test_fn_error_poisons_immediately_serial(self):
        report = DegradationReport()
        results = run_parallel([1, 2, 3], _raise_for_two, jobs=1, root_seed=0,
                               supervise=SupervisePolicy(quarantine=True),
                               report=report)
        assert results[0] == _mix(1, seed_for(0, 1))
        assert isinstance(results[1], PoisonedPoint)
        assert results[1].error == "ValueError: deterministic failure for 2"
        assert report.degraded and len(report.poisoned) == 1
        assert report.completed == 2

    @pytest.mark.skipif(not HAVE_FORK, reason="no fork start method")
    def test_pool_and_serial_poison_identically(self):
        def run(jobs):
            report = DegradationReport()
            results = run_parallel([1, 2, 3], _raise_for_two, jobs=jobs,
                                   root_seed=0,
                                   supervise=SupervisePolicy(quarantine=True),
                                   report=report)
            return results, report
        serial, _ = run(1)
        pooled, report = run(2)
        assert serial[1].error == pooled[1].error
        assert serial[1].key == pooled[1].key
        assert [r for i, r in enumerate(serial) if i != 1] == \
               [r for i, r in enumerate(pooled) if i != 1]

    def test_without_quarantine_fn_error_still_raises(self):
        with pytest.raises(PointFailedError):
            run_parallel([1, 2, 3], _raise_for_two, jobs=1, root_seed=0,
                         supervise=SupervisePolicy(quarantine=False))

    @pytest.mark.skipif(not HAVE_FORK, reason="no fork start method")
    def test_crash_poisons_after_retry_budget(self):
        report = DegradationReport()
        results = run_parallel([1, 2], _always_crash, jobs=2, root_seed=0,
                               retries=1,
                               supervise=SupervisePolicy(
                                   quarantine=True, backoff_base_s=0.001,
                                   backoff_max_s=0.01),
                               report=report)
        assert all(isinstance(r, PoisonedPoint) for r in results)
        assert all(p.attempts == 2 for p in results)
        assert report.crashed == 4  # 2 points x 2 attempts
        assert report.retried == 2

    def test_poisoned_point_raises_on_demand(self):
        poisoned = PoisonedPoint(key="int:1", seed=7, error="boom",
                                 attempts=3)
        with pytest.raises(PoisonedPointError, match="3 attempt"):
            poisoned.raise_()

    def test_poisoned_resume_is_not_rerun(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        report = DegradationReport()
        run_parallel([1, 2, 3], _raise_for_two, jobs=1, root_seed=0,
                     journal=SweepJournal(path),
                     supervise=SupervisePolicy(quarantine=True),
                     report=report)
        report_2 = DegradationReport()
        results = run_parallel([1, 2, 3], _mix, jobs=1, root_seed=0,
                               journal=SweepJournal(path),
                               supervise=SupervisePolicy(quarantine=True),
                               report=report_2)
        # The poison record is honored, not retried — _mix would have
        # succeeded, but the journal says this point is quarantined.
        assert isinstance(results[1], PoisonedPoint)
        assert report_2.resumed == 3 and report_2.degraded

    def test_report_metrics_registration(self):
        from repro.metrics import MetricsRegistry

        report = DegradationReport(completed=3, resumed=2, retried=1,
                                   crashed=1, hung=0, slow=1)
        report.poisoned.append(PoisonedPoint("k", 1, "e", 2))
        registry = MetricsRegistry()
        report.register_metrics(registry)
        values = registry.read_all()
        assert values["supervise.points.completed"] == 3
        assert values["supervise.points.resumed"] == 2
        assert values["supervise.workers.crashed"] == 1
        assert values["supervise.points.poisoned"] == 1

    def test_report_summary_and_table(self):
        report = DegradationReport(completed=4, retried=1)
        report.poisoned.append(PoisonedPoint("int:2", 1, "boom", 2))
        assert "completed=4" in report.summary()
        assert "poisoned=1" in report.summary()
        assert "int:2" in report.format_table()


# ---------------------------------------------------------------------------
# heartbeat classification


@pytest.mark.skipif(not HAVE_FORK, reason="no fork start method")
class TestHeartbeats:
    def test_slow_worker_with_live_heartbeats(self):
        report = DegradationReport()
        results = run_parallel([1, 2], _sleep_forever, jobs=2, root_seed=0,
                               timeout_s=0.6, retries=0,
                               supervise=SupervisePolicy(
                                   heartbeat_interval_s=0.05,
                                   hung_after_s=10.0, quarantine=True),
                               report=report)
        # time.sleep releases the GIL, so the heartbeat thread keeps
        # ticking: the deadline expiry is classified *slow*, not hung.
        assert report.slow == 2 and report.hung == 0
        assert all(isinstance(r, PoisonedPoint) for r in results)
        assert all("slow" in p.error for p in results)

    def test_silent_worker_is_hung(self):
        report = DegradationReport()
        results = run_parallel([1, 2], _sleep_forever, jobs=2, root_seed=0,
                               timeout_s=0.6, retries=0,
                               supervise=SupervisePolicy(
                                   heartbeat_interval_s=30.0,
                                   hung_after_s=0.2, quarantine=True),
                               report=report)
        # With a 30 s tick interval no beat ever arrives inside the
        # 0.6 s deadline: silent past hung_after_s means *hung*.
        assert report.hung == 2 and report.slow == 0
        assert all("hung" in p.error for p in results)


# ---------------------------------------------------------------------------
# simulation watchdogs


class TestWatchdog:
    def test_livelock_aborts_with_diagnostics(self):
        env = MoonGenEnv(seed=1, metrics=True,
                         watchdog=Watchdog(max_zero_advance=300))

        def spinner(env):
            while True:
                yield None  # same-instant reschedule: clock never moves

        env.launch(spinner, env)
        with pytest.raises(SimAborted, match="livelock") as exc:
            env.wait_for_slaves(duration_ns=1e6)
        diagnostics = exc.value.diagnostics
        # The abort lands on the 300th same-instant event, and the
        # diagnostics (metrics included) count every event of the run.
        assert diagnostics["events_run"] == 300
        assert diagnostics["zero_advance"] == 300
        assert diagnostics["events_processed_total"] == 300
        assert diagnostics["metrics"]["loop.events"] == 300
        assert diagnostics["now_ps"] == 0
        assert diagnostics["pending_events"] + diagnostics["lane_live"] >= 1
        assert diagnostics["top_owners"]  # the spinner shows up by name
        assert isinstance(diagnostics["metrics"], dict)

    def test_livelock_across_deadline_checks(self):
        """A wall-clock check every 64 events splits the spin into
        segments; the zero-advance count carries across them, so the
        abort lands on the 300th event after the clock last moved."""
        env = MoonGenEnv(seed=1, watchdog=Watchdog(
            wall_deadline_s=3600.0, max_zero_advance=300, check_every=64))

        def spinner(env):
            yield env.sleep_ns(5)
            while True:
                yield None

        env.launch(spinner, env)
        with pytest.raises(SimAborted, match="livelock") as exc:
            env.wait_for_slaves(duration_ns=1e6, max_events=10_000)
        diagnostics = exc.value.diagnostics
        assert diagnostics["now_ps"] == 5_000
        assert diagnostics["zero_advance"] == 300
        assert diagnostics["events_run"] == 302  # the start and the wake too

    def test_wall_deadline_aborts(self):
        env = MoonGenEnv(seed=1, watchdog=Watchdog(wall_deadline_s=0.05,
                                                   check_every=256))

        def busy(env):
            while env.running():
                yield env.sleep_us(0.001)

        env.launch(busy, env)
        with pytest.raises(SimAborted, match="wall-clock deadline"):
            env.wait_for_slaves(duration_ns=1e12)

    def test_healthy_run_is_bit_identical_under_watchdog(self):
        def run(watchdog):
            env = MoonGenEnv(seed=3, watchdog=watchdog)
            tx = env.config_device(0, tx_queues=1)
            rx = env.config_device(1, rx_queues=1)
            env.connect(tx, rx)

            def slave(env, queue):
                mem = env.create_mempool(fill=lambda b: b.udp_packet.fill(
                    pkt_length=60, eth_dst=str(rx.mac)))
                bufs = mem.buf_array()
                while env.running():
                    bufs.alloc(60)
                    yield queue.send(bufs)

            env.launch(slave, env, tx.get_tx_queue(0))
            env.wait_for_slaves(duration_ns=200_000.0)
            return tx.tx_packets, env.loop.events_processed

        guarded = run(Watchdog(wall_deadline_s=60.0, max_zero_advance=100_000))
        plain = run(None)
        assert guarded == plain

    def test_advancing_events_reset_livelock_counter(self):
        # Thousands of events, every one advancing the clock: a small
        # zero-advance budget must never fire.
        env = MoonGenEnv(seed=1, watchdog=Watchdog(max_zero_advance=16))

        def stepper(env):
            while env.running():
                yield env.sleep_us(0.01)

        env.launch(stepper, env)
        env.wait_for_slaves(duration_ns=500_000.0)
        assert env.loop.events_processed > 64

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            Watchdog(wall_deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            Watchdog(max_zero_advance=0)
        with pytest.raises(ConfigurationError):
            Watchdog(check_every=0)


# ---------------------------------------------------------------------------
# clean cancellation (subprocess: signals must hit a real coordinator)


@pytest.mark.skipif(not HAVE_FORK, reason="no fork start method")
class TestCancellation:
    def _spawn_sweep(self, tmp_path, journal_name="cancel.jsonl"):
        path = str(tmp_path / journal_name)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "sweep", "fig2-cores",
             "--jobs", "2", "--journal", path],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            try:
                if sum(1 for l in open(path) if l.strip()) >= 2:
                    break  # header + at least one fsync'd point
            except FileNotFoundError:
                pass
            if proc.poll() is not None:
                raise AssertionError(
                    f"sweep exited early: {proc.communicate()}")
            time.sleep(0.02)
        return proc, path

    def _assert_cancelled(self, proc, signum, expect_code):
        proc.send_signal(signum)
        _, stderr = proc.communicate(timeout=30)
        assert proc.returncode == expect_code, stderr
        assert "cancelled" in stderr
        assert "journal flushed" in stderr

    def test_sigint_exits_130_and_flushes_journal(self, tmp_path):
        proc, path = self._spawn_sweep(tmp_path)
        self._assert_cancelled(proc, signal.SIGINT, 130)
        # The journal on disk is valid and resumable.
        journal = SweepJournal(path)
        journal.open(root_seed=0)
        assert len(journal) >= 1
        journal.close()

    def test_sigterm_exits_143(self, tmp_path):
        proc, _ = self._spawn_sweep(tmp_path, "term.jsonl")
        self._assert_cancelled(proc, signal.SIGTERM, 143)

    def test_cancelled_error_carries_exit_code(self):
        exc = SweepCancelledError(signal.SIGINT)
        assert exc.exit_code == 130
        assert "SIGINT" in str(exc)
