"""Property-based tests (hypothesis) for the event loop and processes.

These pin the scheduler invariants every simulation result rests on:

* events scheduled for the same instant fire in insertion order,
* a cancelled event never fires,
* ``run(until_ps)`` never executes an event beyond the horizon,
* arbitrary interleavings of ``spawn``/``Signal.trigger`` are
  deterministic: two identical runs produce byte-identical traces,
* killing a parked process drops its waiter registration (no leaks),
* ``run()``, a watched ``run()`` and ``step()`` fire the same events
  with the same clocks, live counts and event counters, with or without
  a daemon beside the program,
* a daemon never moves or reorders the program's own events, and a
  drained program ends on the clock it ends on without one.
"""

from hypothesis import given, settings, strategies as st

from repro.nicsim.eventloop import EventLoop, Signal, Watchdog, wait_any
from tests._hypothesis_profiles import property_settings
from repro.trace import Tracer

SETTINGS = property_settings()


class TestSchedulerProperties:
    @settings(**SETTINGS)
    @given(st.lists(st.integers(min_value=0, max_value=5),
                    min_size=1, max_size=40))
    def test_same_instant_events_fire_in_insertion_order(self, delays):
        """Equal-time events keep insertion order; overall order is a
        stable sort by scheduled time."""
        loop = EventLoop()
        fired = []
        for i, delay in enumerate(delays):
            loop.schedule(delay, lambda i=i: fired.append(i))
        loop.run()
        expected = [i for _, i in sorted(
            (delay, i) for i, delay in enumerate(delays))]
        assert fired == expected

    @settings(**SETTINGS)
    @given(st.lists(st.integers(min_value=0, max_value=100),
                    min_size=1, max_size=30),
           st.sets(st.integers(min_value=0, max_value=29)))
    def test_cancelled_events_never_fire(self, delays, cancel_idx):
        loop = EventLoop()
        fired = []
        events = [loop.schedule(d, lambda i=i: fired.append(i))
                  for i, d in enumerate(delays)]
        for i in cancel_idx:
            if i < len(events):
                events[i].cancel()
        loop.run()
        cancelled = {i for i in cancel_idx if i < len(delays)}
        assert set(fired) == set(range(len(delays))) - cancelled

    @settings(**SETTINGS)
    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=1, max_size=30),
           st.integers(min_value=0, max_value=1000))
    def test_run_until_never_overshoots(self, delays, until):
        loop = EventLoop()
        fired = []
        for d in delays:
            loop.schedule(d, lambda d=d: fired.append(d))
        loop.run(until_ps=until)
        assert all(t <= until for t in fired)
        assert loop.now_ps == until  # clock lands exactly on the horizon
        # The rest still fires afterwards — nothing was lost, only deferred.
        loop.run()
        assert sorted(fired) == sorted(delays)

    @settings(**SETTINGS)
    @given(st.lists(st.integers(min_value=1, max_value=500),
                    min_size=1, max_size=10))
    def test_process_sleep_sums(self, sleeps):
        """A process yielding delays finishes at exactly their sum."""
        loop = EventLoop()
        finished_at = []

        def proc():
            for s in sleeps:
                yield s
            finished_at.append(loop.now_ps)

        loop.spawn(proc())
        loop.run()
        assert finished_at == [sum(sleeps)]


# One interleaving "program": processes wait on signals or sleep, external
# events trigger signals at arbitrary times.
program = st.builds(
    dict,
    n_signals=st.integers(min_value=1, max_value=4),
    procs=st.lists(  # per process: list of (kind, arg) steps
        st.lists(st.tuples(st.sampled_from(["sleep", "wait", "yield"]),
                           st.integers(min_value=0, max_value=200)),
                 min_size=1, max_size=5),
        min_size=1, max_size=4),
    triggers=st.lists(  # (delay_ps, signal_idx, value)
        st.tuples(st.integers(min_value=0, max_value=400),
                  st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=9)),
        min_size=1, max_size=8),
)


def run_program(spec):
    """Execute one randomized spawn/trigger interleaving under tracing."""
    loop = EventLoop()
    tracer = Tracer().bind(loop)
    signals = [Signal() for _ in range(spec["n_signals"])]
    log = []

    def make_proc(pid, steps):
        def proc():
            for kind, arg in steps:
                if kind == "sleep":
                    yield arg
                elif kind == "wait":
                    value = yield wait_any(
                        loop, [signals[arg % len(signals)]], timeout_ps=300)
                    log.append((pid, loop.now_ps, value))
                else:
                    yield None
            log.append((pid, loop.now_ps, "done"))
        return proc

    for pid, steps in enumerate(spec["procs"]):
        loop.spawn(make_proc(pid, steps)(), name=f"p{pid}")
    for delay, idx, value in spec["triggers"]:
        loop.schedule(delay, lambda i=idx, v=value:
                      signals[i % len(signals)].trigger(v))
    loop.run()
    return log, tracer.to_jsonl()


class TestInterleavingDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(program)
    def test_identical_runs_produce_identical_traces(self, spec):
        log_a, trace_a = run_program(spec)
        log_b, trace_b = run_program(spec)
        assert log_a == log_b
        assert trace_a == trace_b

    @settings(max_examples=30, deadline=None)
    @given(program)
    def test_all_processes_terminate(self, spec):
        """wait_any timeouts guarantee no program parks forever."""
        log, _ = run_program(spec)
        done = [entry for entry in log if entry[2] == "done"]
        assert len(done) == len(spec["procs"])


class TestWaiterHygieneProperties:
    @settings(**SETTINGS)
    @given(st.integers(min_value=1, max_value=8))
    def test_killed_parked_processes_leave_no_waiters(self, n_procs):
        loop = EventLoop()
        sig = Signal()

        def proc():
            yield sig

        procs = [loop.spawn(proc()) for _ in range(n_procs)]
        loop.run()
        assert len(sig._waiters) == n_procs
        for p in procs:
            p.kill()
        assert not sig.has_waiters

    @settings(**SETTINGS)
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=4))
    def test_wait_any_deregisters_losers(self, n_signals, winner):
        """After any source wins, no source signal retains the combiner."""
        loop = EventLoop()
        signals = [Signal() for _ in range(n_signals)]
        got = []
        combined = wait_any(loop, signals, timeout_ps=1000)
        combined.wait(got.append)
        signals[winner % n_signals].trigger("win")
        assert got == ["win"]
        assert not any(s.has_waiters for s in signals)


# One driver-parity "program": arbitrary interleavings of schedule /
# cancel / run(until) / step, replayed under each way of driving the loop.
parity_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"),
                  st.integers(min_value=0, max_value=20_000)),
        st.tuples(st.just("cancel"),
                  st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("run_until"),
                  st.integers(min_value=0, max_value=30_000)),
        st.tuples(st.just("step"), st.just(0)),
    ),
    min_size=1, max_size=60)


def _drive(ops, watchdog=None, drain_by_step=False, daemon_every=None):
    """Replay one op sequence; returns every observable the loop exposes.

    A scheduled callback with delay ``d`` schedules ``d % 3`` same-instant
    follow-ups when it fires, so programs exercise the fast lane.  The
    program ends with ``run()``, or with ``while loop.step()`` when
    ``drain_by_step`` is set.  With ``daemon_every``, a daemon that
    starts at the current instant, as the snapshotter does, reschedules
    itself every ``daemon_every`` ps and logs ``("daemon", now)``.
    """
    loop = EventLoop()
    loop.watchdog = watchdog
    fired = []
    handles = []
    observed = []

    if daemon_every is not None:
        def tick():
            fired.append(("daemon", loop.now_ps))
            loop.schedule_daemon(loop.now_ps + daemon_every, tick)

        loop.schedule_daemon(loop.now_ps, tick)

    def make_callback(tag, follow_ups):
        def callback():
            fired.append((tag, loop.now_ps))
            for k in range(follow_ups):
                loop.schedule(
                    0, lambda k=k: fired.append((tag, k, loop.now_ps)))
        return callback

    def snapshot():
        return (loop.now_ps, loop.pending_events, loop.next_event_time_ps(),
                loop.events_processed, loop.lane_events_processed)

    for tag, (kind, arg) in enumerate(ops):
        if kind == "schedule":
            handles.append(loop.schedule(arg, make_callback(tag, arg % 3)))
        elif kind == "cancel" and handles:
            handles[arg % len(handles)].cancel()
        elif kind == "run_until":
            loop.run(until_ps=loop.now_ps + arg)
        elif kind == "step":
            loop.step()
        observed.append(snapshot())
    if drain_by_step:
        while loop.step():
            pass
    else:
        loop.run()
    return fired, observed, snapshot()


#: No daemon, or one rescheduling itself every 1 ps to 5 us.
daemon_periods = st.one_of(st.none(), st.integers(min_value=1, max_value=5_000))


class TestDriverParity:
    @settings(**SETTINGS)
    @given(parity_ops, daemon_periods)
    def test_watched_run_matches_plain_run(self, ops, every):
        """An armed watchdog that never trips changes nothing: same fire
        order, clocks, live counts, next-event times and event counters."""
        guard = Watchdog(wall_deadline_s=3600.0, max_zero_advance=10**9,
                         check_every=7)
        assert (_drive(ops, watchdog=guard, daemon_every=every)
                == _drive(ops, daemon_every=every))

    @settings(**SETTINGS)
    @given(parity_ops, daemon_periods)
    def test_step_drain_matches_run(self, ops, every):
        """Draining with ``while loop.step()`` instead of ``run()`` fires
        the same events, counts the same lane events and stops on the
        same daemon."""
        assert (_drive(ops, drain_by_step=True, daemon_every=every)
                == _drive(ops, daemon_every=every))

    @settings(**SETTINGS)
    @given(parity_ops, daemon_periods)
    def test_drains_exactly(self, ops, every):
        """After a full drain the exact live count is zero and no live
        event is left to report: a daemon left alone is cancelled."""
        fired, observed, final = _drive(ops, daemon_every=every)
        now_ps, pending, next_time, events, lane_events = final
        assert pending == 0 and next_time is None
        assert events == len(fired)
        assert lane_events <= events

    @settings(**SETTINGS)
    @given(parity_ops, st.integers(min_value=1, max_value=5_000))
    def test_daemon_leaves_the_program_alone(self, ops, every):
        """A daemon rescheduling itself every ``every`` ps changes neither
        the order nor the clocks of the program's own events, and the
        drained program ends on the daemon-free clock.  ``step`` ops are
        left out: ``step()`` fires a daemon's event like any other, which
        would move the clock later ops schedule from."""
        ops = [op for op in ops if op[0] != "step"]
        bare, _, (bare_now, *_) = _drive(ops)
        fired, _, (now_ps, pending, next_time, *_) = _drive(
            ops, daemon_every=every)
        assert [entry for entry in fired if entry[0] != "daemon"] == bare
        assert now_ps == bare_now
        assert pending == 0 and next_time is None
