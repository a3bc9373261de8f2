"""Tests for the deterministic fault-injection subsystem (``repro.faults``).

Covers the plan layer (validation, JSON round-trips), the Gilbert–Elliott
model's draw discipline, the wire's pinned RNG draw order under faults
(the ``Link._corrupt`` regression), every fault kind end-to-end through
the canonical chaos scenario, and the graceful-degradation behavior of
the measurement components (seqcheck, timestamping, monitor, rfc2544).
"""

import random

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    FAULT_KINDS,
    BurstLoss,
    ClockDrift,
    ClockStep,
    CorruptionBurst,
    DmaSlowdown,
    DutOverload,
    FaultInjector,
    FaultPlan,
    GilbertElliott,
    LinkFlap,
    QueueStall,
    RingFreeze,
    builtin_plans,
    load_plan,
)
from repro.scenarios import run_plan
from repro.nicsim.eventloop import EventLoop
from repro.nicsim.link import COPPER_CAT5E, Cable, Wire
from repro.nicsim.nic import SimFrame
from repro import units


def conservation_ok(result):
    """Every offered frame is accounted for exactly once at the wire.

    ``rx_missed`` is *not* a separate term: the port counts a frame in
    ``rx_packets`` before the ring can refuse it.
    """
    return result["wire_sent"] == (result["rx_packets"]
                                   + result["rx_crc_errors"]
                                   + result["wire_dropped"]
                                   + result["wire_in_flight"])


class TestFaultPlan:
    def test_builtin_plans_round_trip_through_json(self):
        for name, plan in builtin_plans(seed=9).items():
            assert load_plan(plan.to_json()) == plan, name

    def test_load_plan_accepts_dict_and_path(self, tmp_path):
        plan = builtin_plans(seed=2)["burst-loss"]
        assert load_plan(plan.to_dict()) == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert load_plan(str(path)) == plan
        assert load_plan(plan) is plan

    def test_load_plan_rejects_garbage(self):
        with pytest.raises(ConfigurationError, match="not JSON"):
            load_plan("{broken")
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_plan("/nonexistent/plan.json")
        with pytest.raises(ConfigurationError, match="cannot build"):
            load_plan(42)

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultPlan.from_dict(
                {"version": 1, "faults": [{"fault": "gamma_ray"}]})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            FaultPlan.from_dict({"version": 1, "faults": [
                {"fault": "link_flap", "target": "port:1",
                 "start_ns": 0, "end_ns": 1, "banana": True}]})

    def test_future_version_rejected(self):
        with pytest.raises(ConfigurationError, match="version"):
            FaultPlan.from_dict({"version": 99, "faults": []})

    def test_window_validation(self):
        with pytest.raises(ConfigurationError, match="end_ns before"):
            FaultPlan(faults=(
                LinkFlap("port:1", start_ns=5.0, end_ns=1.0),))
        with pytest.raises(ConfigurationError, match="negative start"):
            FaultPlan(faults=(
                CorruptionBurst("wire:0->1", start_ns=-1.0, end_ns=1.0),))

    def test_probability_validation(self):
        with pytest.raises(ConfigurationError, match="p_good_bad"):
            BurstLoss("wire:0->1", 0.0, 1.0, p_good_bad=1.5).validate()
        with pytest.raises(ConfigurationError, match="rate"):
            CorruptionBurst("wire:0->1", 0.0, 1.0, rate=-0.1).validate()

    def test_target_validation(self):
        with pytest.raises(ConfigurationError, match="targets ports"):
            LinkFlap("wire:0->1", 0.0, 1.0).validate()
        with pytest.raises(ConfigurationError, match="targets 'dut'"):
            DutOverload("port:0", 0.0, 1.0).validate()
        with pytest.raises(ConfigurationError, match="factor"):
            DmaSlowdown("port:0", 0.0, 1.0, factor=0.5).validate()

    def test_non_fault_rejected(self):
        with pytest.raises(ConfigurationError, match="not a fault"):
            FaultPlan(faults=("oops",))

    def test_targets_in_first_seen_order(self):
        plan = builtin_plans()["nic-chaos"]
        assert plan.targets() == ("port:0", "port:1")
        assert len(plan) == 3

    def test_catalog_is_complete(self):
        assert set(FAULT_KINDS) == {
            "burst_loss", "corruption", "link_flap", "queue_stall",
            "dma_slowdown", "ring_freeze", "clock_step", "clock_drift",
            "dut_overload",
        }


class TestGilbertElliott:
    def test_two_draws_per_frame_regardless_of_outcome(self):
        """The stream position is a pure function of frames offered."""
        model = GilbertElliott(7, p_good_bad=0.3, p_bad_good=0.3,
                               loss_good=0.1, loss_bad=0.9)
        for _ in range(500):
            model(64)
        reference = random.Random(7)
        for _ in range(2 * 500):
            reference.random()
        assert model.rng.random() == reference.random()

    def test_losses_are_bursty(self):
        model = GilbertElliott(3, p_good_bad=0.05, p_bad_good=0.25,
                               loss_good=0.0, loss_bad=1.0)
        outcomes = [model(64) for _ in range(5000)]
        assert model.offered == 5000
        assert model.lost == sum(outcomes)
        assert 0.0 < model.loss_fraction() < 1.0
        # With loss_bad=1 every burst is a run of consecutive losses; the
        # number of loss runs can't exceed the counted bursts (a burst
        # entered right before the window closes adds no losses).
        runs = sum(1 for prev, cur in zip([False] + outcomes, outcomes)
                   if cur and not prev)
        assert runs <= model.bursts

    def test_deterministic_replay(self):
        a = GilbertElliott(11)
        b = GilbertElliott(11)
        assert [a(64) for _ in range(1000)] == [b(64) for _ in range(1000)]


def _wire_run(loss_model=None, n=40):
    """Transmit ``n`` frames over a jittery, corrupting wire; returns the
    delivered ``(index, arrival_ps, fcs_ok)`` tuples and the wire."""
    loop = EventLoop()
    wire = Wire(loop, units.SPEED_10G, Cable(COPPER_CAT5E, 2.0),
                seed=7, corrupt_rate=0.2)
    wire.loss_model = loss_model
    got = []
    wire.connect(lambda f, t: got.append((f.meta["i"], t, f.fcs_ok)))
    for i in range(n):
        frame = SimFrame(bytes(60))
        frame.meta["i"] = i
        wire.transmit(frame, 64)
    loop.run()
    return got, wire


class TestWireDrawOrder:
    """The ``Link._corrupt`` regression: the per-frame draw order (jitter
    then corruption, loss model on its own stream in between) is pinned."""

    # seed=7, corrupt_rate=0.2, COPPER_CAT5E 2 m — computed once from the
    # pinned draw order; any reordering of the wire's RNG draws moves them.
    EXPECTED_CORRUPTED = [0, 1, 5, 10, 12, 16, 25]
    EXPECTED_FIRST_ARRIVALS = [2224069, 2284869, 2358469, 2425669, 2492869]

    def test_corrupted_indices_and_arrivals_are_pinned(self):
        got, wire = _wire_run()
        assert [i for i, _, ok in got if not ok] == self.EXPECTED_CORRUPTED
        assert [t for _, t, _ in got[:5]] == self.EXPECTED_FIRST_ARRIVALS
        assert wire.corrupted == len(self.EXPECTED_CORRUPTED)

    def test_inert_loss_model_does_not_shift_wire_draws(self):
        baseline, _ = _wire_run()
        with_model, _ = _wire_run(loss_model=lambda size: False)
        ge = GilbertElliott(5, p_good_bad=0.0, loss_good=0.0, loss_bad=0.0)
        with_ge, _ = _wire_run(loss_model=ge)
        assert with_model == baseline
        assert with_ge == baseline

    def test_lost_frames_skip_the_corruption_draw(self):
        got, wire = _wire_run(loss_model=lambda size: True)
        assert got == []
        assert wire.dropped == 40
        assert wire.corrupted == 0  # dropped and corrupted stay disjoint
        # The corruption draw of a lost frame is not consumed: only jitter
        # advanced the wire's stream, one draw per frame.
        reference = random.Random(7)
        for _ in range(40):
            COPPER_CAT5E.jitter_ns(reference)
        assert wire.rng.random() == reference.random()

    def test_carrier_down_consumes_no_draws(self):
        loop = EventLoop()
        wire = Wire(loop, units.SPEED_10G, Cable(COPPER_CAT5E, 2.0),
                    seed=7, corrupt_rate=0.2)
        wire.connect(lambda f, t: None)
        wire.carrier_up = False
        for _ in range(25):
            wire.transmit(SimFrame(bytes(60)), 64)
        loop.run()
        assert wire.dropped == 25
        assert wire.rng.random() == random.Random(7).random()

    def test_wire_level_conservation(self):
        ge = GilbertElliott(2, p_good_bad=0.2, p_bad_good=0.2, loss_bad=0.9)
        got, wire = _wire_run(loss_model=ge, n=300)
        assert len(got) + wire.dropped == wire.frames_sent == 300

    def test_faulted_wire_refuses_batch(self):
        loop = EventLoop()
        wire = Wire(loop, units.SPEED_10G)
        wire.connect(lambda f, t: None)
        assert wire.batch_blocker() is None
        wire.faulted = True
        assert wire.batch_blocker() == "wire-faulted"
        wire.faulted = False
        wire.carrier_up = False
        assert wire.batch_blocker() == "wire-carrier-down"
        wire.carrier_up = True
        wire.loss_model = lambda size: False
        assert wire.batch_blocker() == "wire-loss-model"


def _chaos(faults, plan_seed=0, duration_ns=3e6, **kwargs):
    plan = FaultPlan(faults=faults, seed=plan_seed)
    return run_plan(plan, duration_ns=duration_ns, **kwargs)


class TestFaultInjection:
    """Each fault kind, end-to-end through the canonical chaos scenario."""

    def test_no_faults_baseline_is_clean(self):
        result = _chaos(())
        assert result["wire_dropped"] == 0
        assert result["rx_crc_errors"] == 0
        assert result["rx_link_changes"] == 0
        assert result["faults_injected"] == 0
        assert conservation_ok(result)

    def test_burst_loss(self):
        result = _chaos((BurstLoss("wire:0->1", 0.5e6, 2.5e6,
                                   p_good_bad=0.05, loss_bad=0.9),))
        assert result["wire_dropped"] > 0
        assert result["seq_lost"] > 0
        assert result["seq_gap_events"] > 0
        assert 0.0 < result["loss_fraction"] < 1.0
        assert conservation_ok(result)

    def test_corruption_burst(self):
        result = _chaos((CorruptionBurst("wire:0->1", 1e6, 2e6, rate=0.3),))
        assert result["wire_corrupted"] > 0
        assert result["rx_crc_errors"] == result["wire_corrupted"]
        assert result["wire_dropped"] == 0
        assert conservation_ok(result)

    def test_link_flap(self):
        result = _chaos((LinkFlap("port:1", 1e6, 2e6),))
        assert result["rx_link_changes"] == 2
        assert result["wire_dropped"] > 0
        assert result["monitor_gaps"] >= 1
        assert conservation_ok(result)

    def test_queue_stall_backpressures_then_recovers(self):
        stalled = _chaos((QueueStall("port:0", 0.5e6, 1.5e6, queue=0),))
        clean = _chaos(())
        assert stalled["tx_packets"] < clean["tx_packets"]
        assert stalled["rx_packets"] > 0  # traffic resumed after the window
        assert conservation_ok(stalled)

    def test_dma_slowdown_reduces_throughput(self):
        # 64 B MAC occupancy is ~67 ns; ×16 ≈ 0.93 Mpps — below the
        # scenario's 1.5 Mpps offered load, so the stretch must bite.
        slowed = _chaos((DmaSlowdown("port:0", 0.5e6, 2.5e6, factor=16.0),))
        clean = _chaos(())
        assert slowed["tx_packets"] < clean["tx_packets"]
        assert conservation_ok(slowed)

    def test_ring_freeze_overflows_into_rx_missed(self):
        result = _chaos((RingFreeze("port:1", 1e6, 2e6, queue=0),))
        assert result["rx_missed"] > 0
        assert conservation_ok(result)

    def test_clock_step_moves_the_rx_clock(self):
        stepped = _chaos((ClockStep("port:1", at_ns=1e6, step_ns=500.0),))
        clean = _chaos(())
        # The PTP clock quantizes to its tick grid, so the observed step
        # lands within one 6.4 ns tick of the requested one.
        assert stepped["rx_clock_ns"] - clean["rx_clock_ns"] == \
            pytest.approx(500.0, abs=6.4)

    def test_clock_drift_changes_the_slope(self):
        drifted = _chaos((ClockDrift("port:1", at_ns=1e6, drift_ppm=100.0),))
        clean = _chaos(())
        # 100 ppm from t=1 ms until the last event (a bit past the 3 ms
        # horizon while in-flight work drains): a few hundred ns ahead.
        diff = drifted["rx_clock_ns"] - clean["rx_clock_ns"]
        assert 150.0 <= diff <= 350.0

    def test_dut_overload_drops_at_the_dut(self):
        # The overload window must outlast what the DuT's 4096-deep rx
        # ring can absorb at the saturated service rate.
        overloaded = _chaos((DutOverload("dut", 0.5e6, 6e6, factor=16.0),),
                            duration_ns=6.5e6)
        clean = _chaos((DutOverload("dut", 0.5e6, 6e6, factor=1.0),),
                       duration_ns=6.5e6)
        assert overloaded["dut_rx_dropped"] > clean["dut_rx_dropped"]
        assert overloaded["rx_packets"] < clean["rx_packets"]

    def test_fault_trace_records_are_emitted(self):
        from repro.trace import Tracer

        tracer = Tracer(categories=("fault",))
        _chaos((BurstLoss("wire:0->1", 0.5e6, 1.5e6),
                LinkFlap("port:1", 2e6, 2.5e6)), trace=tracer)
        kinds = [r.kind for r in tracer.records()]
        assert kinds == ["burst_loss_start", "burst_loss_end",
                         "link_down", "link_up"]

    def test_unmatched_targets_are_reported(self):
        plan = FaultPlan(faults=(
            CorruptionBurst("wire:5->9", 0.0, 1.0),))
        injector = FaultInjector(EventLoop(), plan)
        assert injector.unmatched() == [(0, "wire:5->9")]

    def test_queue_index_out_of_range_raises(self):
        with pytest.raises(ConfigurationError, match="no tx queue"):
            _chaos((QueueStall("port:1", 0.0, 1.0, queue=7),))

    def test_builtin_plans_all_run_and_conserve(self):
        for name, plan in builtin_plans(seed=4).items():
            result = run_plan(plan, duration_ns=6.5e6)
            assert result["faults_injected"] > 0, name
            assert conservation_ok(result), name


class TestDeterminism:
    def test_same_plan_same_seed_same_fingerprint(self):
        plan = builtin_plans(seed=5)["burst-loss"]
        a = run_plan(plan, seed=3, duration_ns=3e6)
        b = run_plan(plan, seed=3, duration_ns=3e6)
        assert a == b

    def test_plan_seed_changes_the_loss_pattern(self):
        a = run_plan(builtin_plans(seed=1)["burst-loss"], duration_ns=4e6)
        b = run_plan(builtin_plans(seed=2)["burst-loss"], duration_ns=4e6)
        assert a["fingerprint"] != b["fingerprint"]

    def test_fault_index_separates_identical_faults(self):
        """Two identical faults on one target must not share a stream."""
        flap = BurstLoss("wire:0->1", 0.2e6, 1.2e6, p_good_bad=0.1)
        again = BurstLoss("wire:0->1", 1.8e6, 2.8e6, p_good_bad=0.1)
        from repro.parallel.seeding import seed_for

        assert seed_for(0, (0, flap)) != seed_for(0, (1, again))



def _overlapping(kind, first, second, at_ms):
    """Windows A (1-3 ms) and B (2-4 ms) of one fault kind; the
    topology after ``at_ms`` of simulated time."""
    from repro.testbed import dut_topology, loadgen_pair

    plan = FaultPlan(faults=(kind(start_ns=1e6, end_ns=3e6, **first),
                             kind(start_ns=2e6, end_ns=4e6, **second)))
    build = dut_topology if kind is DutOverload else loadgen_pair
    top = build(1, faults=plan)
    top.env.run_for(at_ms * 1e6)
    return top


class TestOverlappingWindows:
    """While any window on an attribute is open it holds the value of the
    most recently opened one; once none is, its value from before."""

    # (kind, fields of A, fields of B, read the attribute, B's value,
    # the value before the plan)
    CASES = {
        "corruption": (
            CorruptionBurst, dict(target="wire:0->1", rate=0.5),
            dict(target="wire:0->1", rate=0.3),
            lambda top: top.env.wires["0->1"].corrupt_rate, 0.3, 0.0),
        "queue-stall": (
            QueueStall, dict(target="port:0"), dict(target="port:0"),
            lambda top: top.tx_dev.port.tx_queues[0].stalled, True, False),
        "burst-loss": (
            BurstLoss, dict(target="wire:0->1"), dict(target="wire:0->1"),
            lambda top: top.env.wires["0->1"].loss_model is not None,
            True, False),
        "dma-slowdown": (
            DmaSlowdown, dict(target="port:0", factor=4.0),
            dict(target="port:0", factor=8.0),
            lambda top: top.tx_dev.port.dma_slowdown, 8.0, 1.0),
        "ring-freeze": (
            RingFreeze, dict(target="port:1"), dict(target="port:1"),
            lambda top: top.rx_dev.port.rx_queues[0].frozen, True, False),
        "dut-overload": (
            DutOverload, dict(target="dut", factor=4.0),
            dict(target="dut", factor=8.0),
            lambda top: top.dut.overload, 8.0, 1.0),
        "link-flap": (
            LinkFlap, dict(target="port:1"), dict(target="port:1"),
            lambda top: (top.rx_dev.port.link_up,
                         top.env.wires["0->1"].carrier_up),
            (False, False), (True, True)),
        "link-flap-both-ends": (
            LinkFlap, dict(target="port:0"), dict(target="port:1"),
            lambda top: (top.tx_dev.port.link_up, top.rx_dev.port.link_up,
                         top.env.wires["0->1"].carrier_up),
            (True, False, False), (True, True, True)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_newest_open_window_wins_then_restores(self, name):
        kind, first, second, read, during_b, before = self.CASES[name]
        if first["target"] == second["target"]:  # both open: B is newer
            assert read(_overlapping(kind, first, second, 2.5)) == during_b
        late = _overlapping(kind, first, second, 3.5)
        assert read(late) == during_b  # A closed, B still open
        assert late.env.injector.active == 1
        assert read(_overlapping(kind, first, second, 4.5)) == before


class _SeqBuf:
    """Minimal stand-in for a received packet buffer."""

    class _Pkt:
        def __init__(self, data):
            self.data = data

    def __init__(self, seq):
        self.pkt = self._Pkt(seq.to_bytes(4, "big"))


class TestGracefulDegradation:
    def test_seqcheck_classifies_gap_shape(self):
        from repro.core.seqcheck import SequenceTracker

        tracker = SequenceTracker(offset=0)
        for seq in [0, 1, 5, 6, 10, 11]:  # two bursts: 2-4 and 7-9
            tracker.observe(_SeqBuf(seq))
        report = tracker.report
        assert report.lost == 6
        assert report.gap_events == 2
        assert report.longest_gap == 3
        assert 0.0 <= report.loss_fraction <= 1.0

    def test_seqcheck_loss_fraction_clamped_under_stragglers(self):
        from repro.core.seqcheck import SequenceReport

        assert SequenceReport(received=10, lost=0).loss_fraction == 0.0
        assert SequenceReport(received=0, lost=5).loss_fraction == 1.0
        # Straggler re-classification decrements ``lost``; the clamp keeps
        # the fraction a fraction even if accounting transiently overshoots.
        assert SequenceReport(received=10, lost=-3).loss_fraction == 0.0

    def test_timestamper_confidence(self):
        from repro.core.timestamping import Timestamper

        ts = Timestamper.__new__(Timestamper)
        ts.attempted = 0
        ts.lost_probes = 0
        assert ts.confidence == 1.0  # vacuous: no probes attempted
        ts.attempted = 10
        ts.lost_probes = 3
        assert ts.confidence == pytest.approx(0.7)
        ts.lost_probes = 99
        assert ts.confidence == 0.0

    def test_monitor_annotates_flap_gaps(self):
        result = _chaos((LinkFlap("port:1", 1e6, 2e6),))
        assert result["monitor_gaps"] >= 1
        assert result["monitor_samples"] > 0  # it kept sampling throughout

    def test_rfc2544_converges_with_loss_tolerance(self):
        from repro.analysis.rfc2544 import throughput_test

        # A DuT that forwards cleanly below 1 Mpps, over a channel with
        # 5 % intrinsic loss: the strict criterion fails at every rate.
        def probe(pps):
            return 0.05 + (0.3 if pps > 1e6 else 0.0)

        strict = throughput_test(probe, 2e6, min_rate_pps=1e4)
        assert strict.throughput_pps <= 1e4 * 1.5  # degenerated to the floor
        budgeted = throughput_test(probe, 2e6, min_rate_pps=1e4,
                                   loss_tolerance=0.1)
        assert budgeted.throughput_pps == pytest.approx(1e6, rel=0.02)
        assert all(t.tolerance == 0.1 for t in budgeted.trials)

    def test_rfc2544_tolerance_validated(self):
        from repro.analysis.rfc2544 import throughput_test

        with pytest.raises(ConfigurationError, match="loss_tolerance"):
            throughput_test(lambda pps: 0.0, 1e6, loss_tolerance=1.0)


class TestParallelErrorMessages:
    """Satellite: failures name the point key and the attempt count."""

    def test_crash_message_names_point_key_and_attempts(self):
        import os

        from repro.errors import WorkerCrashError
        from repro.parallel import run_parallel

        if not hasattr(os, "fork"):
            pytest.skip("needs fork start method")
        with pytest.raises(WorkerCrashError) as excinfo:
            run_parallel([("flap", 3), ("ok", 1)], _crash, jobs=2,
                         retries=1)
        message = str(excinfo.value)
        assert "key 'seq:[str:flap,int:3]'" in message
        assert "died with exit code" in message
        assert "2 attempt(s)" in message

    def test_timeout_message_names_point_key_and_attempts(self):
        import os

        from repro.errors import PointTimeoutError
        from repro.parallel import run_parallel

        if not hasattr(os, "fork"):
            pytest.skip("needs fork start method")
        with pytest.raises(PointTimeoutError) as excinfo:
            run_parallel([7, 8], _hang, jobs=2, timeout_s=0.2, retries=0)
        message = str(excinfo.value)
        assert "key 'int:7'" in message
        assert "exceeded 0.2 s" in message
        assert "1 attempt(s)" in message


def _crash(point, seed):
    import os

    if point == ("flap", 3):
        os._exit(9)
    return point


def _hang(point, seed):
    import time

    while point == 7:
        time.sleep(0.05)
    return point
