"""The equivalence harness: every execution mode gives one result.

The batch tier (``repro.batch``), the observers (metrics, dataplane
histograms and a snapshotter) and ``--jobs`` workers must never change a
simulated result, alone or in combination.  :func:`assert_modes_agree`
runs one scenario in four modes, {event, batch} x {observers off, on},
and diffs the result dicts: every simulated count, clock and fingerprint
the scenario reports, plus every device, queue, wire and DuT counter and
the final clock.  The event run without observers is the oracle.  A run
with observers equals it once the observer fingerprints are dropped; a
batch run equals its event twin in full.  The scheduler's
self-accounting (``loop.*``, event counts, tier stats) is never
compared.  Every run also checks conservation on every wire: frames
sent = arrivals at its sink + dropped + in flight.

The fixed scenarios are the registry's (:mod:`repro.scenarios`); those
with an experiment function also run it in two worker replicas through
``run_parallel(jobs=2)``.  A CRC-gap pattern pair adds software pacing
into a batchable port, which no registered scenario has.  With observers
on, the dataplane cases also require that every hop the scenario
crosses recorded samples.  The Hypothesis properties randomize the
shapes that exist only to be randomized (send batch, ring size, cable
latency, a foreign ticker, fault windows) and draw the observer setting
as one more parameter.

The committed ``tests/golden/batch_quickstart.json`` pins one batch-mode
run; regenerate it (and review the diff like code) with::

    PYTHONPATH=src:. python tests/test_equivalence.py --write-golden
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List

import pytest
from hypothesis import example, given, settings, strategies as st

from repro._optional import np as _installed_np
from repro.batch import FALLBACK_REASONS
from repro.core.ratecontrol import (
    GapFiller,
    PoissonPattern,
    UniformBurstPattern,
)
from repro.faults import BurstLoss, FaultPlan, QueueStall, builtin_plans
from repro.nicsim.link import Cable, Medium
from repro.nicsim.nic import NicPort
from repro.parallel import run_parallel
from repro.scenarios import (
    SCENARIOS,
    chaos,
    load_latency,
    load_latency_replica,
    run_matrix,
    udp_slave,
)
from repro.testbed import dut_topology, loadgen_pair, port_fleet
from tests._hypothesis_profiles import property_settings
from tests.test_faults_properties import _PLAN

SETTINGS = property_settings(10)

#: Result keys observers produce or change: their two fingerprints, the
#: dataplane histograms themselves, and the chaos result's
#: ``fingerprint``, which hashes the fingerprints when present.
OBSERVER_KEYS = ("metrics_fingerprint", "latency_fingerprint", "dataplane",
                 "fingerprint")

#: The hops a frame crosses from port 0 to port 1 of a pair.
PAIR_HOPS = ("latency.hop.nic0.txq0", "latency.hop.wire.0->1",
             "latency.e2e.0->1", "interarrival.port1.rx")


# ---------------------------------------------------------------------------
# the harness


def _dict_diff(expected: Any, actual: Any, path: str = "") -> List[str]:
    """Recursive diff of two result trees; returns mismatch lines."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        lines: List[str] = []
        for key in sorted(set(expected) | set(actual), key=str):
            where = f"{path}.{key}" if path else str(key)
            if key not in expected:
                lines.append(f"{where}: only in this run ({actual[key]!r})")
            elif key not in actual:
                lines.append(f"{where}: missing ({expected[key]!r})")
            else:
                lines.extend(_dict_diff(expected[key], actual[key], where))
        return lines
    if expected != actual:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


def _device_counters(dev) -> Dict[str, Any]:
    return {
        "tx_packets": dev.tx_packets,
        "tx_bytes": dev.tx_bytes,
        "rx_packets": dev.rx_packets,
        "rx_bytes": dev.rx_bytes,
        "rx_missed": dev.rx_missed,
        "rx_crc_errors": dev.rx_crc_errors,
        "tx_queues": [
            (q.tx_packets, q.tx_bytes, q.next_allowed_ps)
            for q in dev.port.tx_queues
        ],
    }


def _sinks(env) -> Dict[str, Any]:
    """The object behind each wire's sink, keyed by wire name."""
    return {name: wire.sink.__self__ for name, wire in env.wires.items()}


def observe(env) -> Dict[str, Any]:
    """Every device, queue, wire and DuT counter, the clock, and with
    observers on every dataplane histogram (so a diff names the hop)."""
    obs: Dict[str, Any] = {"now_ps": env.loop.now_ps}
    for port_id, dev in env.devices.items():
        obs[f"port{port_id}"] = dict(_device_counters(dev),
                                     link_changes=dev.port.link_changes)
    for name, wire in env.wires.items():
        obs[f"wire:{name}"] = (wire.frames_sent, wire.bytes_sent,
                               wire.dropped, wire.corrupted, wire.in_flight)
    for name, sink in _sinks(env).items():
        if not isinstance(sink, NicPort):
            obs[f"sink:{name}"] = sink.counters()
    if env.dataplane is not None:
        obs["dataplane"] = env.dataplane.read_all()
    return obs


def assert_conserved(env) -> None:
    """Per sink: frames its wires sent = arrivals + dropped + in flight.

    Arrivals at a port are ``rx_packets + rx_crc_errors`` (a frame the
    ring refuses is counted in ``rx_packets`` first); at the OvS DuT they
    are ``rx_packets + rx_dropped + rx_crc_errors``.
    """
    delivered: Dict[int, int] = {}
    sinks = {}
    for name, sink in _sinks(env).items():
        wire = env.wires[name]
        sinks[id(sink)] = sink
        delivered[id(sink)] = (delivered.get(id(sink), 0) + wire.frames_sent
                               - wire.dropped - wire.in_flight)
    for key, sink in sinks.items():
        arrivals = sink.rx_packets + sink.rx_crc_errors
        if not isinstance(sink, NicPort):
            arrivals += sink.rx_dropped
        assert delivered[key] == arrivals, (
            f"frames not conserved at {sink!r}: wires delivered "
            f"{delivered[key]}, sink counted {arrivals}")


def finish(env, snapshotter=None, **result) -> Dict[str, Any]:
    """A case's result dict plus the observer fingerprints, if on."""
    if snapshotter is not None:
        result["metrics_fingerprint"] = snapshotter.series.fingerprint()
    if env.dataplane is not None:
        result["latency_fingerprint"] = env.dataplane.fingerprint()
    return result


def _snapshotter(env, duration_ns: float):
    return (env.start_snapshotter(duration_ns / 6)
            if env.metrics is not None else None)


def _run(case, batch: bool, observed: bool):
    env, result = case(batch=batch, metrics=observed, dataplane=observed)
    assert (env.batch is not None) == batch
    assert_conserved(env)
    return env, dict(result, **observe(env))


def assert_modes_agree(case, expect_batched: bool = True,
                       expect_fallback: str = None,
                       observed: bool = None, hops=()) -> Dict[str, Any]:
    """Run ``case`` in every mode and require one result.

    ``case(**options)`` builds a scenario with ``options`` forwarded to
    ``MoonGenEnv`` (``batch``, ``metrics``, ``dataplane``), runs it and
    returns ``(env, result_dict)``; with metrics on it starts a
    snapshotter and reports the observer fingerprints (:func:`finish`).

    ``observed=None`` runs all four modes.  A bool pins the observer
    setting (the properties draw it), leaving the event and batch runs.
    With ``expect_batched`` the tier must have executed trains;
    ``expect_fallback`` requires a documented fallback reason to fire
    (the way DuT topologies prove they declined to batch rather than
    never being asked).  Every dataplane histogram named in ``hops`` must
    have recorded samples in each observed run, so that agreement is not
    one between empty histograms.  Returns the last batch run's tier
    stats.
    """
    settings_ = (False, True) if observed is None else (observed,)
    runs = {(batch, obs): _run(case, batch, obs)
            for obs in settings_ for batch in (False, True)}
    oracle = runs[False, settings_[0]][1]
    bare = {k: v for k, v in oracle.items() if k not in OBSERVER_KEYS}
    for (batch, obs), (env, result) in runs.items():
        mode = f"{'batch' if batch else 'event'}, observers {obs}"
        diff = _dict_diff(bare, {k: v for k, v in result.items()
                                 if k not in OBSERVER_KEYS})
        diff += _dict_diff(runs[False, obs][1], result)
        assert not diff, (f"{mode} diverged from the event path:\n  "
                          + "\n  ".join(diff))
        if obs:
            assert result["latency_fingerprint"], mode
            for hop in hops:
                assert result["dataplane"][hop]["total"] > 0, (
                    f"{mode}: {hop} recorded nothing")
    stats = None
    for (batch, obs), (env, _) in runs.items():
        if not batch:
            continue
        stats = env.batch.stats()
        assert set(stats["fallbacks"]) <= set(FALLBACK_REASONS), \
            f"undocumented fallback reasons: {stats['fallbacks']}"
        if expect_batched:
            assert stats["trains"] > 0, "batch tier never executed a train"
            assert stats["frames"] > 0 and stats["events_saved"] > 0, stats
        if expect_fallback is not None:
            assert stats["fallbacks"].get(expect_fallback, 0) > 0, (
                f"expected {expect_fallback!r} fallbacks, got "
                f"{stats['fallbacks']}")
    return stats


# ---------------------------------------------------------------------------
# cases


def registry_case(name: str, seed: int, duration_ns: float, **kwargs):
    """A :data:`~repro.scenarios.SCENARIOS` builder, run for a duration."""
    def case(**options):
        env = SCENARIOS[name](seed, **kwargs, **options).env
        snap = _snapshotter(env, duration_ns)
        env.wait_for_slaves(duration_ns=duration_ns)
        return env, finish(env, snap)

    return case


LOAD_LATENCY = dict(seed=2, rate_mpps=1.0, probes=30, duration_ms=1.5)


def load_latency_case(pattern: str):
    """The CLI's load-latency experiment through the OvS DuT."""
    p = LOAD_LATENCY

    def case(**options):
        top, experiment = load_latency(p["seed"], p["rate_mpps"], "hardware",
                                       pattern, p["probes"], **options)
        snap = _snapshotter(top.env, p["duration_ms"] * 1e6)
        result = experiment.run(p["rate_mpps"] * 1e6, p["duration_ms"] * 1e6,
                                dut_crc_counter=lambda: top.dut.rx_crc_errors)
        return top.env, finish(
            top.env, snap, latency=tuple(result.latency.samples),
            lost_probes=result.lost_probes, dut_crc_drops=result.dut_crc_drops,
            probe_confidence=result.probe_confidence)

    return case


def plan_case(plan, duration_ns: float, rate_pps: float):
    """The chaos scenario under ``plan``; it reports its own fingerprints."""
    def case(**options):
        top, report = chaos(plan, rate_pps=rate_pps, **options)
        top.env.wait_for_slaves(duration_ns=duration_ns)
        return top.env, report()

    return case


def tx_case(send_batch: int = 32, frame_size: int = 60,
            duration_ns: float = 1_500_000.0, rate_pps: float = None,
            tick_ns: int = None, ring: int = None, cable=None, seed: int = 17):
    """One pair, one UDP slave: the shape the properties randomize."""
    def case(**options):
        kwargs = {} if cable is None else {"cable": cable}
        pair = loadgen_pair(seed, tx_queues=1, **kwargs, **options)
        env, queue = pair.env, pair.tx_dev.get_tx_queue(0)
        if ring is not None:
            # Resize the descriptor ring as the constructor would have
            # (the wake threshold derives from the ring size).
            queue.ring_size = ring
            queue.space_wake_threshold = min(32, max(1, ring // 4))
        if rate_pps:
            queue.set_rate_pps(rate_pps, frame_size + 4)
        if tick_ns:
            # A no-op timer: its wakeups are live events no train may cross.
            def ticker():
                while env.running():
                    yield tick_ns * 1000

            env.loop.spawn(ticker(), name="ticker")
        env.launch(udp_slave(size=frame_size, send_batch=send_batch), env,
                   queue)
        snap = _snapshotter(env, duration_ns)
        env.wait_for_slaves(duration_ns=duration_ns)
        return env, finish(env, snap)

    return case


def pattern_case(make_pattern, seed: int, duration_ns: float = 150_000.0):
    """CRC-gap software rate control on a pair: 400 valid frames spaced
    by the gaps ``make_pattern()`` draws, FCS-broken fillers between them.
    The horizon cuts the traffic short, so the rings drain after it."""
    def case(**options):
        pair = loadgen_pair(seed, tx_queues=1, **options)
        env = pair.env

        def craft(buf, index):
            buf.eth_packet.fill(eth_type=0x0800)

        env.launch(GapFiller().load_task, env, pair.tx_dev.get_tx_queue(0),
                   make_pattern(), 400, craft)
        snap = _snapshotter(env, duration_ns)
        env.wait_for_slaves(duration_ns=duration_ns)
        return env, finish(env, snap)

    return case


def fleet_case(paced_second: bool):
    """Two independent port->sink pipelines (the Figure 2 shape)."""
    def case(**options):
        fleet = port_fleet(2, seed=11 + paced_second, core_freq_hz=2.4e9,
                           **options)
        env = fleet.env
        if paced_second:
            fleet.tx_devs[1].get_tx_queue(0).set_rate_pps(2e6, 64)
        for tx in fleet.tx_devs:
            env.launch(udp_slave(send_batch=32), env, tx.get_tx_queue(0))
        snap = _snapshotter(env, 1_500_000.0)
        env.wait_for_slaves(duration_ns=1_500_000)
        return env, finish(env, snap)

    return case


# ---------------------------------------------------------------------------
# fixed scenarios


needs_numpy = pytest.mark.skipif(
    _installed_np is None, reason="traffic patterns draw gaps with numpy")


class TestRegistryScenarios:
    def test_quickstart(self):
        """Saturating CBR: the unpaced FIFO kernel."""
        assert_modes_agree(registry_case("quickstart", 5, 1_500_000.0))

    def test_dut_forward(self):
        """The DuT sink is deliberately unbatchable: the tier must refuse
        with the documented reason, and the run must still agree."""
        assert_modes_agree(registry_case("dut-forward", 2, 1_000_000.0),
                           expect_batched=False,
                           expect_fallback="sink-unbatchable")

    @pytest.mark.parametrize("name", ["load-latency", "poisson", "faults"])
    def test_golden_trace_scenarios_untraced(self, name):
        """The golden-trace topologies without a tracer.  Their traffic
        ends by itself after 5-30 us; the 3 us horizon is there to stop
        the snapshotter before it, so it cannot move the final clock."""
        if name == "poisson" and _installed_np is None:
            pytest.skip("the Poisson pattern draws gaps with numpy")
        assert_modes_agree(registry_case(name, 11, 3_000.0),
                           expect_batched=False)

    def test_load_latency_through_dut(self):
        assert_modes_agree(load_latency_case("cbr"), expect_batched=False,
                           expect_fallback="sink-unbatchable")

    @needs_numpy
    def test_poisson_crc_load_latency(self):
        """CRC-gap software pacing: fillers are FCS-gated out of the
        histograms, and the DuT NIC drops them before its ring."""
        assert_modes_agree(load_latency_case("poisson"), expect_batched=False,
                           expect_fallback="sink-unbatchable")

    def test_hardware_paced(self):
        """Hardware CBR on the NIC: the paced ring kernel."""
        assert_modes_agree(tx_case(rate_pps=2e6, seed=9))

    def test_load_latency_replicas_match(self):
        """The ``load-latency --jobs`` cross-check: worker replicas
        reproduce the in-process latency fingerprint."""
        point = {"seed": LOAD_LATENCY["seed"], "rate": 1.0,
                 "mode": "hardware", "pattern": "cbr",
                 "probes": LOAD_LATENCY["probes"], "faults": None,
                 "duration_ms": LOAD_LATENCY["duration_ms"], "batch": False}
        _, in_process = _run(load_latency_case("cbr"), False, True)
        replicas = run_parallel([dict(point, batch=b) for b in (False, True)],
                                load_latency_replica, jobs=2)
        assert replicas == [in_process["latency_fingerprint"]] * 2

    def test_precision_audit_jobs_invariant(self):
        """The precision audit fans whole simulations across workers;
        the per-method histograms must not care."""
        from repro.analysis.precision import run_precision_audit

        kwargs = dict(rate_mpps=1.0, duration_ns=400_000, seed=1)
        serial = run_precision_audit(**kwargs)
        assert run_precision_audit(jobs=2, batch=True, **kwargs) == serial


class TestCrcGapPatterns:
    """CRC-gap software pacing into a batchable port.  The producer
    sleeps between gaps, so during the traffic every detected train is
    bounded by its next wakeup and nothing fits (``horizon`` fallbacks);
    the drain after the horizon still runs as real trains.  Fillers are
    FCS-gated out of the histograms."""

    @needs_numpy
    def test_poisson_pattern(self):
        stats = assert_modes_agree(
            pattern_case(lambda: PoissonPattern(2e6, seed=4), seed=4),
            expect_fallback="horizon", hops=PAIR_HOPS)
        assert "unbounded" not in stats["fallbacks"], stats

    @needs_numpy
    def test_uniform_burst_pattern(self):
        stats = assert_modes_agree(
            pattern_case(lambda: UniformBurstPattern(1e6, burst_size=16),
                         seed=8),
            expect_fallback="horizon", hops=PAIR_HOPS)
        assert "unbounded" not in stats["fallbacks"], stats


class TestDataplaneEquivalence:
    """The observation layer itself, observers on in both tiers: the
    per-hop histograms agree whole, and every hop the scenario crosses
    recorded samples."""

    def test_quickstart_histograms_identical(self):
        assert_modes_agree(registry_case("quickstart", 5, 1_500_000.0),
                           observed=True, hops=PAIR_HOPS)

    def test_hardware_cbr_histograms_identical(self):
        assert_modes_agree(tx_case(rate_pps=2e6, seed=9), observed=True,
                           hops=PAIR_HOPS)

    def test_load_latency_dut_histograms_identical(self):
        """The DuT ring joins the hops; load and probes each fill their
        own tx queue."""
        assert_modes_agree(
            load_latency_case("cbr"), expect_batched=False,
            expect_fallback="sink-unbatchable", observed=True,
            hops=("latency.hop.nic0.txq0", "latency.hop.nic0.txq1",
                  "latency.hop.wire.0->sink", "latency.hop.dut.ring",
                  "latency.e2e.env->1", "interarrival.port1.rx"))

    @pytest.mark.parametrize("name", ["burst-loss", "clock-step"])
    def test_fault_plan_histograms_identical(self, name):
        """A shorter, faster run than :class:`TestFaultPlans`': 2 Mpps
        for 1.5 ms."""
        assert_modes_agree(plan_case(builtin_plans(seed=0)[name],
                                     duration_ns=1_500_000.0, rate_pps=2e6),
                           expect_batched=False, observed=True,
                           hops=PAIR_HOPS)


class TestFaultPlans:
    @pytest.mark.parametrize("name", sorted(builtin_plans()))
    def test_builtin_plan(self, name):
        """Every builtin fault plan: the full result dict, its metrics and
        latency fingerprints included, agrees in every mode.  Traffic
        runs through all of the plans' windows (1-6 ms)."""
        assert_modes_agree(plan_case(builtin_plans(seed=0)[name],
                                     duration_ns=6_500_000.0, rate_pps=5e5),
                           expect_batched=False)

    def test_matrix_serial_matches_two_workers(self):
        names = ["flap", "clock-step"]
        serial = run_matrix(names, seed=2, jobs=1)
        assert run_matrix(names, seed=2, jobs=2) == serial
        for name in names:
            assert serial[name]["faults_injected"] > 0, name
            assert serial[name]["metrics_fingerprint"], name


class TestCrossChain:
    def test_two_pipelines_identical_and_chain_skipped(self):
        """Two disjoint saturating pipelines agree, and the cross-chain
        extension keeps trains long: frames per train stay well above the
        1-2 frames a strangled bound would allow."""
        stats = assert_modes_agree(fleet_case(paced_second=False))
        assert stats["frames"] / stats["trains"] > 4, stats

    def test_mixed_paced_and_unpaced_pipelines(self):
        """A hardware-paced pipeline next to a saturating one: both
        kernels run in the same heap and neither diverges."""
        assert_modes_agree(fleet_case(paced_second=True))


class TestTracedRuns:
    def test_traced_runs_stay_identical(self):
        """An enabled tracer forces per-frame fidelity; the trace must be
        byte-identical whether the tier was requested or not."""
        from repro.trace import Tracer

        traces = []
        for batch in (False, True):
            tracer = Tracer()
            pair = SCENARIOS["quickstart"](13, batch=batch, trace=tracer)
            pair.env.wait_for_slaves(duration_ns=300_000)
            traces.append(tracer.to_jsonl())
        assert traces[0] == traces[1]
        stats = pair.env.batch.stats()
        assert stats["fallbacks"].get("tracer", 0) > 0
        assert stats["frames"] == 0  # the tracer gate wins every kick


class TestRfc2544:
    def test_throughput_search_identical(self):
        """A binary search with an event-driven loss probe through the
        DuT lands on the same rate, through the same trials, in every
        mode."""
        from repro.analysis.rfc2544 import throughput_test

        def case(**options):
            envs = []

            def probe(pps: float) -> float:
                top = dut_topology(6, cost_noise=False, **options)
                env, tx, rx = top.env, top.tx_dev, top.rx_dev
                tx.get_tx_queue(0).set_rate_pps(pps, 64)
                env.launch(udp_slave(send_batch=32), env, tx.get_tx_queue(0))
                env.wait_for_slaves(duration_ns=400_000)
                assert_conserved(env)
                envs.append(env)
                sent = tx.tx_packets
                return 0.0 if not sent else (sent - rx.rx_packets) / sent

            result = throughput_test(probe, line_rate_pps=4e6, frame_size=64,
                                     resolution=0.1, min_rate_pps=5e5)
            return envs[-1], finish(
                envs[-1], throughput_pps=result.throughput_pps,
                trials=[(t.offered_pps, t.loss_fraction)
                        for t in result.trials])

        assert_modes_agree(case, expect_batched=False,
                           expect_fallback="sink-unbatchable")


# ---------------------------------------------------------------------------
# golden pin: one canonical batch-mode run, committed


GOLDEN_BATCH = pathlib.Path(__file__).parent / "golden" \
    / "batch_quickstart.json"


def _golden_batch_observations() -> Dict[str, Any]:
    """The batch-mode quickstart behind ``golden/batch_quickstart.json``:
    metrics on, dataplane off, a 250 us snapshotter, 1.5 ms."""
    pair = SCENARIOS["quickstart"](5, metrics=True, batch=True)
    env = pair.env
    snap = env.start_snapshotter(250_000.0)
    env.wait_for_slaves(duration_ns=1_500_000)
    return {
        "tx": _device_counters(pair.tx_dev),
        "rx": _device_counters(pair.rx_dev),
        "now_ps": env.loop.now_ps,
        "metrics_fingerprint": snap.series.fingerprint(),
        "tier": env.batch.stats(),
    }


class TestGoldenBatchRun:
    def test_batch_run_matches_committed_golden(self):
        """The canonical batch-mode quickstart reproduces the committed
        counters, metrics fingerprint and tier stats bit for bit, so a
        batch-tier regression shows up as a reviewable JSON diff."""
        golden = json.loads(GOLDEN_BATCH.read_text())
        current = json.loads(json.dumps(_golden_batch_observations()))
        diff = _dict_diff(golden, current)
        assert not diff, (
            "batch-mode run drifted from tests/golden/batch_quickstart.json; "
            "if intentional, regenerate with --write-golden and review:\n  "
            + "\n  ".join(diff))


# ---------------------------------------------------------------------------
# properties: randomized shapes never diverge


class TestRandomizedEquivalence:
    @settings(**SETTINGS)
    @given(send_batch=st.integers(min_value=1, max_value=64),
           frame_size=st.sampled_from([60, 124, 508, 1514]),
           duration_ns=st.integers(min_value=50_000, max_value=400_000),
           tick_ns=st.one_of(st.none(),
                             st.integers(min_value=300, max_value=100_000)),
           rate_mpps=st.sampled_from([None, 0.5, 2.0]),
           observed=st.booleans())
    # A send that fits the ring kicks the idle MAC from inside the
    # producer's enqueue, before its next event exists; the ticker's
    # wakeup must not stand in as the train's bound.
    @example(send_batch=28, frame_size=1514, duration_ns=50_000,
             tick_ns=30_399, rate_mpps=None, observed=False)
    def test_tx_runs_never_diverge(self, send_batch, frame_size,
                                   duration_ns, tick_ns, rate_mpps, observed):
        """Arbitrary frame sizes, send batches, rate control, and a
        foreign timer cutting trains at its wakeups never diverge."""
        case = tx_case(send_batch, frame_size, duration_ns,
                       rate_pps=rate_mpps * 1e6 if rate_mpps else None,
                       tick_ns=tick_ns)
        assert_modes_agree(case, expect_batched=False, observed=observed)

    @settings(**SETTINGS)
    @given(lat_ns=st.sampled_from([0.0, 49.3, 310.7, 2147.2]),
           ring=st.sampled_from([4, 8, 16, 33, 64]),
           send_batch=st.integers(min_value=1, max_value=96),
           paced=st.booleans(),
           observed=st.booleans())
    def test_latency_ring_and_overflow_batches_never_diverge(
            self, lat_ns, ring, send_batch, paced, observed):
        """Per-hop cable latency, tiny-to-default descriptor rings, send
        batches larger than the whole ring (the sawtooth refill shape),
        paced and unpaced: no combination may diverge."""
        case = tx_case(send_batch, duration_ns=300_000,
                       rate_pps=1.5e6 if paced else None, ring=ring,
                       cable=Cable(Medium("prop", 1.0, lat_ns), 0.0), seed=21)
        assert_modes_agree(case, expect_batched=False, observed=observed)

    @settings(**SETTINGS)
    @given(start_us=st.integers(min_value=10, max_value=800),
           length_us=st.integers(min_value=20, max_value=600),
           stall=st.booleans(),
           seed=st.integers(min_value=0, max_value=7),
           observed=st.booleans())
    def test_fault_mid_traffic_matches(self, start_us, length_us, stall,
                                       seed, observed):
        """A fault window overlapping steady traffic: the run agrees in
        every mode (the detector declines to batch across it)."""
        start_ns, end_ns = start_us * 1000.0, (start_us + length_us) * 1000.0
        if stall:
            fault = QueueStall(target="port:0", queue=0, start_ns=start_ns,
                               end_ns=end_ns)
        else:
            fault = BurstLoss(target="wire:0->1", start_ns=start_ns,
                              end_ns=end_ns, p_good_bad=0.4, p_bad_good=0.2,
                              loss_good=0.05, loss_bad=0.8)
        case = plan_case(FaultPlan(faults=(fault,), seed=seed),
                         duration_ns=1_200_000.0, rate_pps=2e6)
        assert_modes_agree(case, expect_batched=False, observed=observed)

    @settings(**property_settings(8))
    @given(data=st.data(), observed=st.booleans())
    def test_random_fault_plans_never_diverge(self, data, observed):
        """Random multi-fault plans (the chaos strategy, overlapping
        windows included) agree wholesale."""
        case = plan_case(data.draw(_PLAN), duration_ns=1_000_000.0,
                         rate_pps=1e6)
        assert_modes_agree(case, expect_batched=False, observed=observed)


if __name__ == "__main__":
    import sys

    if "--write-golden" in sys.argv:
        GOLDEN_BATCH.write_text(
            json.dumps(_golden_batch_observations(), indent=1,
                       sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_BATCH}")
    else:
        print(__doc__)
