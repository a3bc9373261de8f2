"""Differential equivalence harness: batch tier vs event-by-event.

The batch tier (``repro.batch``) promises *bit-identical* results: every
train it executes arithmetically produces exactly the values the discrete
loop would have produced.  This module is the harness that makes the
claim falsifiable.  :func:`assert_batch_equivalent` runs one scenario
twice — ``batch=False`` then ``batch=True`` — and deep-diffs everything
observable: result dicts, per-device and per-queue counters, DuT
counters, metrics fingerprints (which leave out ``loop.*``, the
scheduler's and the tier's self-accounting — it legitimately changes),
and golden traces.  Any mismatch fails with a per-key diff rather than a
bare ``assert a == b``.

Scenarios cover every kernel and every fallback family:

* quickstart (saturating CBR — the unpaced FIFO kernel),
* hardware CBR (``set_rate_pps`` — the paced ring kernel),
* Poisson and uniform-burst patterns through CRC-gap rate control,
* load-latency through the OvS DuT (``sink-unbatchable`` fallback),
* an RFC 2544 throughput search with an event-driven loss probe,
* every builtin fault plan, with fingerprints, via ``run_plan``,
* two independent port->sink pipelines (the cross-chain bound
  extension: trains must stay long despite a foreign chain's events).

The Hypothesis section generalizes the fixed scenarios: randomized frame
sizes, rates, send batches, foreign timers that bound trains, per-hop
cable latencies, descriptor ring sizes (including batches larger than
the whole ring), and fault plans must never diverge, and a fault window
overlapping the traffic must both force fallbacks and still match.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import MoonGenEnv, PoissonPattern, UniformBurstPattern
from repro._optional import np as _installed_np
from repro.batch import FALLBACK_REASONS
from repro.nicsim.link import Cable, Medium
from repro.core.latency import LoadLatencyExperiment
from repro.core.ratecontrol import GapFiller
from repro.dut import OvsForwarder
from repro.faults import BurstLoss, FaultPlan, QueueStall
from repro.faults.plan import builtin_plans
from repro.faults.runner import run_plan
from tests._hypothesis_profiles import property_settings
from tests.test_faults_properties import _PLAN

SETTINGS = property_settings(10)


# ---------------------------------------------------------------------------
# the reusable harness


def _dict_diff(plain: Any, batched: Any, path: str = "") -> List[str]:
    """Recursive diff of two observation trees; returns mismatch lines."""
    if isinstance(plain, dict) and isinstance(batched, dict):
        lines: List[str] = []
        for key in sorted(set(plain) | set(batched)):
            where = f"{path}.{key}" if path else str(key)
            if key not in plain:
                lines.append(f"{where}: only in batch run ({batched[key]!r})")
            elif key not in batched:
                lines.append(f"{where}: only in event run ({plain[key]!r})")
            else:
                lines.extend(_dict_diff(plain[key], batched[key], where))
        return lines
    if plain != batched:
        return [f"{path}: event={plain!r} batch={batched!r}"]
    return []


def assert_batch_equivalent(scenario, expect_batched: bool = True,
                            expect_fallback: str = None) -> Dict[str, Any]:
    """Run ``scenario(batch)`` both ways and require identical observations.

    ``scenario`` is a callable taking one bool; it returns
    ``(observations, env)`` where ``observations`` is a (nested) dict of
    everything the run produced and ``env`` is the :class:`MoonGenEnv`
    that ran it (for tier bookkeeping).  With ``expect_batched`` the tier
    must actually have executed trains; ``expect_fallback`` additionally
    requires a specific documented fallback reason to have fired (the way
    DuT topologies prove they declined to batch rather than never being
    asked).  Returns the batch run's tier stats for further assertions.
    """
    plain_obs, plain_env = scenario(False)
    batch_obs, batch_env = scenario(True)
    assert plain_env.batch is None, "event-mode run had a batch tier"
    assert batch_env.batch is not None, "batch-mode run had no tier"

    diff = _dict_diff(plain_obs, batch_obs)
    assert not diff, (
        "batch tier diverged from event-by-event execution:\n  "
        + "\n  ".join(diff))

    stats = batch_env.batch.stats()
    assert set(stats["fallbacks"]) <= set(FALLBACK_REASONS), \
        f"undocumented fallback reasons: {stats['fallbacks']}"
    if expect_batched:
        assert stats["trains"] > 0, "batch tier never executed a train"
        assert stats["frames"] > 0, stats
        assert stats["events_saved"] > 0, stats
    if expect_fallback is not None:
        assert stats["fallbacks"].get(expect_fallback, 0) > 0, (
            f"expected {expect_fallback!r} fallbacks, got "
            f"{stats['fallbacks']}")
    return stats


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


# ---------------------------------------------------------------------------
# fixed scenarios, one per kernel / fallback family


def _quickstart_scenario(batch: bool):
    """The CLI quickstart topology: saturating CBR, FIFO kernel."""
    from repro.cli import _build_quickstart

    env, tx, rx = _build_quickstart(seed=5, metrics=True, batch=batch)
    snap = env.start_snapshotter(250_000.0)
    env.wait_for_slaves(duration_ns=1_500_000)
    obs = {
        "tx": _device_counters(tx),
        "rx": _device_counters(rx),
        "now_ps": env.loop.now_ps,
        "metrics_fingerprint": snap.series.fingerprint(),
    }
    return obs, env


def _paced_scenario(batch: bool):
    """Hardware CBR on the NIC: the paced ring kernel."""
    env = MoonGenEnv(seed=9, batch=batch)
    tx = env.config_device(0, tx_queues=1)
    rx = env.config_device(1, rx_queues=1)
    env.connect(tx, rx)
    queue = tx.get_tx_queue(0)
    queue.set_rate_pps(2e6, 64)

    def slave(env, queue):
        mem = env.create_mempool(
            fill=lambda b: b.udp_packet.fill(pkt_length=60))
        bufs = mem.buf_array(32)
        while env.running():
            bufs.alloc(60)
            yield queue.send(bufs)

    env.launch(slave, env, queue)
    env.wait_for_slaves(duration_ns=1_500_000)
    obs = {
        "tx": _device_counters(tx),
        "rx": _device_counters(rx),
        "now_ps": env.loop.now_ps,
    }
    return obs, env


def _pattern_scenario(make_pattern, seed: int):
    """CRC-gap software rate control driving an arbitrary pattern."""
    def scenario(batch: bool):
        env = MoonGenEnv(seed=seed, batch=batch)
        tx = env.config_device(0, tx_queues=1)
        rx = env.config_device(1, rx_queues=1)
        env.connect(tx, rx)
        filler = GapFiller()

        def craft(buf, index):
            buf.eth_packet.fill(eth_type=0x0800)

        env.launch(filler.load_task, env, tx.get_tx_queue(0),
                   make_pattern(), 400, craft)
        env.wait_for_slaves(duration_ns=2_000_000)
        obs = {
            "tx": _device_counters(tx),
            "rx": _device_counters(rx),
            "now_ps": env.loop.now_ps,
        }
        return obs, env

    return scenario


def _load_latency_scenario(batch: bool):
    """The load-latency shape: traffic through the OvS DuT."""
    env = MoonGenEnv(seed=2, cost_noise=False, batch=batch)
    tx = env.config_device(0, tx_queues=2)
    rx = env.config_device(1, rx_queues=1)
    dut = OvsForwarder(env.loop)
    env.connect_to_sink(tx, dut.ingress)
    dut.connect_output(env.wire_to_device(rx))
    env.register_dut(dut)
    experiment = LoadLatencyExperiment(
        env, tx, rx, mode="hardware",
        n_probes=30, probe_interval_ns=50_000.0)
    result = experiment.run(1.0e6, duration_ns=1_500_000.0)
    obs = {
        "tx": _device_counters(tx),
        "rx": _device_counters(rx),
        "dut": dut.counters(),
        "now_ps": env.loop.now_ps,
        "result": {
            "tx_packets": result.tx_packets,
            "rx_packets": result.rx_packets,
            "lost_probes": result.lost_probes,
            "probe_confidence": result.probe_confidence,
            "latency_samples": tuple(result.latency.samples),
        },
    }
    return obs, env


def _cross_wire_scenario(batch: bool):
    """Two independent port->sink pipelines (the Figure 2 shape).

    Each pipeline's per-frame events (``_mac_done``, wire delivery) sit in
    the shared heap; without the cross-chain bound extension every train
    on one pipeline would be strangled to a frame or two by the *other*
    pipeline's next event.  The scenario therefore both proves
    equivalence under chain-skip and (via the train-length assertion in
    the test) that the extension actually engaged.
    """
    env = MoonGenEnv(seed=11, batch=batch)
    pairs = []
    for base in (0, 2):
        tx = env.config_device(base, tx_queues=1)
        rx = env.config_device(base + 1, rx_queues=1)
        env.connect(tx, rx)
        pairs.append((tx, rx))

    def slave(env, queue):
        mem = env.create_mempool(
            fill=lambda b: b.udp_packet.fill(pkt_length=60))
        bufs = mem.buf_array(32)
        while env.running():
            bufs.alloc(60)
            yield queue.send(bufs)

    for tx, _ in pairs:
        env.launch(slave, env, tx.get_tx_queue(0))
    env.wait_for_slaves(duration_ns=1_500_000)
    obs: Dict[str, Any] = {"now_ps": env.loop.now_ps}
    for i, (tx, rx) in enumerate(pairs):
        obs[f"tx{i}"] = _device_counters(tx)
        obs[f"rx{i}"] = _device_counters(rx)
    return obs, env


class TestCrossWireEquivalence:
    def test_two_pipelines_identical_and_chain_skipped(self):
        """Two disjoint saturating pipelines stay bit-identical, and the
        cross-chain extension keeps trains long: frames per train must
        stay well above the 1-2 frames a strangled bound would allow."""
        stats = assert_batch_equivalent(_cross_wire_scenario)
        assert stats["frames"] / stats["trains"] > 4, stats

    def test_mixed_paced_and_unpaced_pipelines(self):
        """One hardware-paced pipeline next to a saturating one: both
        kernels run in the same heap and neither diverges."""
        def scenario(batch: bool):
            env = MoonGenEnv(seed=12, batch=batch)
            tx0 = env.config_device(0, tx_queues=1)
            rx0 = env.config_device(1, rx_queues=1)
            tx1 = env.config_device(2, tx_queues=1)
            rx1 = env.config_device(3, rx_queues=1)
            env.connect(tx0, rx0)
            env.connect(tx1, rx1)
            tx1.get_tx_queue(0).set_rate_pps(2e6, 64)

            def slave(env, queue):
                mem = env.create_mempool(
                    fill=lambda b: b.udp_packet.fill(pkt_length=60))
                bufs = mem.buf_array(32)
                while env.running():
                    bufs.alloc(60)
                    yield queue.send(bufs)

            env.launch(slave, env, tx0.get_tx_queue(0))
            env.launch(slave, env, tx1.get_tx_queue(0))
            env.wait_for_slaves(duration_ns=1_500_000)
            obs = {
                "tx0": _device_counters(tx0), "rx0": _device_counters(rx0),
                "tx1": _device_counters(tx1), "rx1": _device_counters(rx1),
                "now_ps": env.loop.now_ps,
            }
            return obs, env

        assert_batch_equivalent(scenario)


# ---------------------------------------------------------------------------
# in-dataplane latency histograms: the observation layer itself must be
# batch- and jobs-invariant (docs/METRICS.md)


def _dataplane_obs(env) -> Dict[str, Any]:
    """Deep-diffable view of every dataplane histogram + fingerprint."""
    return {
        "dataplane": env.dataplane.read_all(),
        "latency_fingerprint": env.dataplane.fingerprint(),
    }


def _dataplane_quickstart(batch: bool):
    """Quickstart with per-hop observation armed: the FIFO kernel must
    accumulate tx-queue/wire/e2e/inter-arrival values bit-identically."""
    from repro.cli import _build_quickstart

    env, tx, rx = _build_quickstart(seed=5, metrics=True, batch=batch,
                                    dataplane=True)
    snap = env.start_snapshotter(250_000.0)
    env.wait_for_slaves(duration_ns=1_500_000)
    obs = {
        "tx": _device_counters(tx),
        "rx": _device_counters(rx),
        "now_ps": env.loop.now_ps,
        "metrics_fingerprint": snap.series.fingerprint(),
    }
    obs.update(_dataplane_obs(env))
    return obs, env


def _dataplane_paced(batch: bool):
    """Hardware CBR with observation armed: the paced ring kernel."""
    env = MoonGenEnv(seed=9, metrics=True, dataplane=True, batch=batch)
    tx = env.config_device(0, tx_queues=1)
    rx = env.config_device(1, rx_queues=1)
    env.connect(tx, rx)
    queue = tx.get_tx_queue(0)
    queue.set_rate_pps(2e6, 64)

    def slave(env, queue):
        mem = env.create_mempool(
            fill=lambda b: b.udp_packet.fill(pkt_length=60))
        bufs = mem.buf_array(32)
        while env.running():
            bufs.alloc(60)
            yield queue.send(bufs)

    env.launch(slave, env, queue)
    env.wait_for_slaves(duration_ns=1_500_000)
    obs = {
        "tx": _device_counters(tx),
        "rx": _device_counters(rx),
        "now_ps": env.loop.now_ps,
    }
    obs.update(_dataplane_obs(env))
    return obs, env


def _dataplane_pattern(make_pattern, seed: int):
    """CRC-gap software rate control with observation armed: fillers are
    FCS-gated out of the histograms, valid frames are not."""
    def scenario(batch: bool):
        env = MoonGenEnv(seed=seed, metrics=True, dataplane=True,
                         batch=batch)
        tx = env.config_device(0, tx_queues=1)
        rx = env.config_device(1, rx_queues=1)
        env.connect(tx, rx)
        filler = GapFiller()

        def craft(buf, index):
            buf.eth_packet.fill(eth_type=0x0800)

        env.launch(filler.load_task, env, tx.get_tx_queue(0),
                   make_pattern(), 400, craft)
        env.wait_for_slaves(duration_ns=2_000_000)
        obs = {
            "tx": _device_counters(tx),
            "rx": _device_counters(rx),
            "now_ps": env.loop.now_ps,
        }
        obs.update(_dataplane_obs(env))
        return obs, env

    return scenario


def _dataplane_load_latency(batch: bool):
    """Load-latency through the OvS DuT with observation armed: the DuT
    ring histogram joins the per-hop set; the tier must still decline."""
    env = MoonGenEnv(seed=2, cost_noise=False, metrics=True,
                     dataplane=True, batch=batch)
    tx = env.config_device(0, tx_queues=2)
    rx = env.config_device(1, rx_queues=1)
    dut = OvsForwarder(env.loop)
    env.connect_to_sink(tx, dut.ingress)
    dut.connect_output(env.wire_to_device(rx))
    env.register_dut(dut)
    experiment = LoadLatencyExperiment(
        env, tx, rx, mode="hardware",
        n_probes=30, probe_interval_ns=50_000.0)
    result = experiment.run(1.0e6, duration_ns=1_500_000.0)
    obs = {
        "tx": _device_counters(tx),
        "rx": _device_counters(rx),
        "dut": dut.counters(),
        "now_ps": env.loop.now_ps,
        "latency_samples": tuple(result.latency.samples),
    }
    obs.update(_dataplane_obs(env))
    return obs, env


class TestDataplaneEquivalence:
    """The in-dataplane observability guarantee: per-hop latency and
    inter-arrival histograms are bit-identical event vs batch and serial
    vs ``--jobs 2``."""

    def test_quickstart_histograms_identical(self):
        stats = assert_batch_equivalent(_dataplane_quickstart)
        assert stats["trains"] > 0

    def test_hardware_cbr_histograms_identical(self):
        assert_batch_equivalent(_dataplane_paced)

    @pytest.mark.skipif(_installed_np is None,
                        reason="traffic patterns draw gaps with numpy")
    def test_poisson_crc_histograms_identical(self):
        assert_batch_equivalent(
            _dataplane_pattern(lambda: PoissonPattern(2e6, seed=4), seed=4),
            expect_fallback="horizon")

    def test_load_latency_dut_histograms_identical(self):
        obs_stats = assert_batch_equivalent(_dataplane_load_latency,
                                            expect_batched=False,
                                            expect_fallback="sink-unbatchable")
        # The DuT ring histogram actually observed traffic.
        obs, env = _dataplane_load_latency(False)
        assert obs["dataplane"]["latency.hop.dut.ring"]["total"] > 0

    @pytest.mark.parametrize("name", sorted(builtin_plans())[:2])
    def test_fault_plan_histograms_identical(self, name):
        plan = builtin_plans(seed=0)[name]
        kwargs = dict(duration_ns=1_500_000.0, rate_pps=2e6, metrics=True,
                      dataplane=True)
        plain = run_plan(plan, **kwargs)
        batched = run_plan(plan, batch=True, **kwargs)
        diff = _dict_diff(plain, batched)
        assert not diff, (
            f"plan {name!r} diverged under batch with dataplane "
            "observation armed:\n  " + "\n  ".join(diff))
        assert plain["latency_fingerprint"]

    def test_serial_vs_jobs_histograms_identical(self):
        """The precision audit fans whole simulations across worker
        processes; the per-method histograms must not care."""
        from repro.analysis.precision import run_precision_audit

        kwargs = dict(rate_mpps=1.0, duration_ns=400_000, seed=1)
        serial = run_precision_audit(**kwargs)
        sharded = run_precision_audit(jobs=2, **kwargs)
        diff = _dict_diff(
            {r["method"]: r for r in serial},
            {r["method"]: r for r in sharded})
        assert not diff, "\n  ".join(diff)


# ---------------------------------------------------------------------------
# golden pin: one canonical batch-mode run, committed


GOLDEN_BATCH = pathlib.Path(__file__).parent / "golden" \
    / "batch_quickstart.json"


def _golden_batch_observations() -> Dict[str, Any]:
    """The canonical batch-mode run behind ``golden/batch_quickstart.json``."""
    obs, env = _quickstart_scenario(batch=True)
    obs["tier"] = env.batch.stats()
    return obs


class TestGoldenBatchRun:
    def test_batch_run_matches_committed_golden(self):
        """The canonical batch-mode quickstart reproduces the committed
        counters, metrics fingerprint, and tier stats bit for bit — so a
        batch-tier regression shows up as a reviewable JSON diff, not a
        silent drift.  Regenerate (and review like a code diff) with::

            PYTHONPATH=src:. python tests/test_batch_equivalence.py \\
                --write-golden
        """
        golden = json.loads(GOLDEN_BATCH.read_text())
        current = json.loads(json.dumps(_golden_batch_observations()))
        diff = _dict_diff(golden, current)
        assert not diff, (
            "batch-mode run drifted from the committed golden "
            "(tests/golden/batch_quickstart.json); if intentional, "
            "regenerate with --write-golden and review:\n  "
            + "\n  ".join(diff))


class TestFixedScenarios:
    def test_quickstart(self):
        assert_batch_equivalent(_quickstart_scenario)

    def test_hardware_cbr_paced(self):
        assert_batch_equivalent(_paced_scenario)

    @pytest.mark.skipif(_installed_np is None,
                        reason="traffic patterns draw gaps with numpy")
    def test_poisson_pattern(self):
        """CRC-gap software rate control paces itself with per-gap sleep
        events, so during the active span every detected train is bounded
        by the producer's next wakeup and nothing fits (``horizon``
        fallbacks); the end-of-run drain still executes as a real train —
        and the run must be identical throughout."""
        stats = assert_batch_equivalent(
            _pattern_scenario(lambda: PoissonPattern(2e6, seed=4), seed=4),
            expect_fallback="horizon")
        assert "unbounded" not in stats["fallbacks"], stats

    @pytest.mark.skipif(_installed_np is None,
                        reason="traffic patterns draw gaps with numpy")
    def test_uniform_burst_pattern(self):
        stats = assert_batch_equivalent(
            _pattern_scenario(
                lambda: UniformBurstPattern(1e6, burst_size=16), seed=8),
            expect_fallback="horizon")
        assert "unbounded" not in stats["fallbacks"], stats

    def test_load_latency_through_dut(self):
        """The DuT sink is deliberately unbatchable: the tier must refuse
        (with the documented reason) and the run must still be identical."""
        assert_batch_equivalent(_load_latency_scenario,
                                expect_batched=False,
                                expect_fallback="sink-unbatchable")

    def test_traced_runs_stay_identical(self):
        """An enabled tracer forces per-frame fidelity; golden traces
        must be byte-identical whether the tier was requested or not."""
        from repro.trace import Tracer

        def run(batch: bool):
            tracer = Tracer()
            env = MoonGenEnv(seed=13, batch=batch, trace=tracer)
            tx = env.config_device(0, tx_queues=1)
            rx = env.config_device(1, rx_queues=1)
            env.connect(tx, rx)

            def slave(env, queue):
                mem = env.create_mempool(
                    fill=lambda b: b.udp_packet.fill(pkt_length=60))
                bufs = mem.buf_array(16)
                while env.running():
                    bufs.alloc(60)
                    yield queue.send(bufs)

            env.launch(slave, env, tx.get_tx_queue(0))
            env.wait_for_slaves(duration_ns=300_000)
            return tracer.to_jsonl(), env

        trace_plain, _ = run(False)
        trace_batch, env = run(True)
        assert trace_plain == trace_batch
        stats = env.batch.stats()
        assert stats["fallbacks"].get("tracer", 0) > 0
        assert stats["frames"] == 0  # the tracer gate wins every kick


class TestRfc2544Equivalence:
    def test_throughput_search_identical(self):
        """An RFC 2544 binary search with an *event-driven* loss probe
        lands on the same rate, through the same trials, either way."""
        from repro.analysis.rfc2544 import throughput_test

        last_env = {}

        def make_probe(batch: bool):
            def probe(pps: float) -> float:
                env = MoonGenEnv(seed=6, cost_noise=False, batch=batch)
                tx = env.config_device(0, tx_queues=1)
                rx = env.config_device(1, rx_queues=1)
                dut = OvsForwarder(env.loop)
                env.connect_to_sink(tx, dut.ingress)
                dut.connect_output(env.wire_to_device(rx))
                env.register_dut(dut)
                queue = tx.get_tx_queue(0)
                queue.set_rate_pps(pps, 64)

                def slave(env, queue):
                    mem = env.create_mempool(
                        fill=lambda b: b.udp_packet.fill(pkt_length=60))
                    bufs = mem.buf_array(32)
                    while env.running():
                        bufs.alloc(60)
                        yield queue.send(bufs)

                env.launch(slave, env, queue)
                env.wait_for_slaves(duration_ns=400_000)
                last_env[batch] = env
                sent = tx.tx_packets
                return 0.0 if not sent else (sent - rx.rx_packets) / sent

            return probe

        def scenario(batch: bool):
            result = throughput_test(
                make_probe(batch), line_rate_pps=4e6, frame_size=64,
                resolution=0.1, min_rate_pps=5e5)
            obs = {
                "throughput_pps": result.throughput_pps,
                "trials": [(t.offered_pps, t.loss_fraction)
                           for t in result.trials],
            }
            return obs, last_env[batch]

        assert_batch_equivalent(scenario, expect_batched=False,
                                expect_fallback="sink-unbatchable")


class TestFaultPlanEquivalence:
    @pytest.mark.parametrize("name", sorted(builtin_plans()))
    def test_builtin_plans_identical(self, name):
        """Every builtin fault plan: full result dict *and* metrics
        fingerprint must match bit for bit under the batch tier."""
        plan = builtin_plans(seed=0)[name]
        kwargs = dict(duration_ns=1_500_000.0, rate_pps=2e6, metrics=True)
        plain = run_plan(plan, **kwargs)
        batched = run_plan(plan, batch=True, **kwargs)
        diff = _dict_diff(plain, batched)
        assert not diff, (
            f"plan {name!r} diverged under batch:\n  " + "\n  ".join(diff))


# ---------------------------------------------------------------------------
# property tests: randomized scenarios never diverge


def _run_tx(batch: bool, send_batch: int, frame_size: int,
            duration_ns: int, rate_pps: float = None, tick_ns: int = None):
    env = MoonGenEnv(seed=17, batch=batch)
    tx = env.config_device(0, tx_queues=1)
    rx = env.config_device(1, rx_queues=1)
    env.connect(tx, rx)
    queue = tx.get_tx_queue(0)
    if rate_pps:
        queue.set_rate_pps(rate_pps, frame_size + 4)
    if tick_ns:
        # A no-op timer: its wakeups are live events no train may cross.
        def ticker():
            while env.running():
                yield tick_ns * 1000

        env.loop.spawn(ticker(), name="ticker")

    def slave(env, queue):
        mem = env.create_mempool(
            fill=lambda b: b.udp_packet.fill(pkt_length=frame_size))
        bufs = mem.buf_array(send_batch)
        while env.running():
            bufs.alloc(frame_size)
            yield queue.send(bufs)

    env.launch(slave, env, queue)
    env.wait_for_slaves(duration_ns=duration_ns)
    obs = {
        "tx": _device_counters(tx),
        "rx": _device_counters(rx),
        "now_ps": env.loop.now_ps,
    }
    return obs, env


class TestRandomizedEquivalence:
    @settings(**SETTINGS)
    @given(send_batch=st.integers(min_value=1, max_value=64),
           frame_size=st.sampled_from([60, 124, 508, 1514]),
           duration_ns=st.integers(min_value=50_000, max_value=400_000),
           tick_ns=st.one_of(st.none(),
                             st.integers(min_value=300, max_value=100_000)),
           rate_mpps=st.sampled_from([None, 0.5, 2.0]))
    # A send that fits the ring kicks the idle MAC from inside the
    # producer's enqueue, before its next event exists; the ticker's
    # wakeup must not stand in as the train's bound.
    @example(send_batch=28, frame_size=1514, duration_ns=50_000,
             tick_ns=30_399, rate_mpps=None)
    def test_tx_runs_never_diverge(self, send_batch, frame_size,
                                   duration_ns, tick_ns, rate_mpps):
        """Arbitrary frame sizes, send batches, rate control, and a
        foreign timer cutting trains at its wakeups never produce a
        divergent run."""
        rate = rate_mpps * 1e6 if rate_mpps else None

        def scenario(batch: bool):
            return _run_tx(batch, send_batch, frame_size, duration_ns,
                           rate_pps=rate, tick_ns=tick_ns)

        assert_batch_equivalent(scenario, expect_batched=False)

    @settings(**SETTINGS)
    @given(start_us=st.integers(min_value=10, max_value=800),
           length_us=st.integers(min_value=20, max_value=600),
           stall=st.booleans(),
           seed=st.integers(min_value=0, max_value=7))
    def test_fault_mid_traffic_forces_fallback_and_matches(
            self, start_us, length_us, stall, seed):
        """A fault window overlapping steady traffic: the detector must
        decline to batch across it (fallbacks recorded) and the run must
        still match event-by-event execution bit for bit."""
        if stall:
            fault = QueueStall(target="port:0", queue=0,
                               start_ns=start_us * 1000.0,
                               end_ns=(start_us + length_us) * 1000.0)
        else:
            fault = BurstLoss(target="wire:0->1",
                              start_ns=start_us * 1000.0,
                              end_ns=(start_us + length_us) * 1000.0,
                              p_good_bad=0.4, p_bad_good=0.2,
                              loss_good=0.05, loss_bad=0.8)
        plan = FaultPlan(faults=(fault,), seed=seed)
        kwargs = dict(duration_ns=1_200_000.0, rate_pps=2e6)
        plain = run_plan(plan, **kwargs)
        batched = run_plan(plan, batch=True, **kwargs)
        diff = _dict_diff(plain, batched)
        assert not diff, "\n  ".join(diff)

    @settings(**SETTINGS)
    @given(lat_ns=st.sampled_from([0.0, 49.3, 310.7, 2147.2]),
           ring=st.sampled_from([4, 8, 16, 33, 64]),
           send_batch=st.integers(min_value=1, max_value=96),
           paced=st.booleans())
    def test_latency_ring_and_overflow_batches_never_diverge(
            self, lat_ns, ring, send_batch, paced):
        """Per-hop cable latency, tiny-to-default descriptor rings, send
        batches larger than the whole ring (the sawtooth refill shape),
        paced and unpaced: no combination may diverge."""
        cable = Cable(Medium("prop", 1.0, lat_ns), 0.0)

        def scenario(batch: bool):
            env = MoonGenEnv(seed=21, batch=batch)
            tx = env.config_device(0, tx_queues=1)
            rx = env.config_device(1, rx_queues=1)
            queue = tx.get_tx_queue(0)
            # Resize the descriptor ring exactly as the constructor would
            # have (the wake threshold derives from the ring size).
            queue.ring_size = ring
            queue.space_wake_threshold = min(32, max(1, ring // 4))
            env.connect(tx, rx, cable=cable)
            if paced:
                queue.set_rate_pps(1.5e6, 64)

            def slave(env, queue):
                mem = env.create_mempool(
                    fill=lambda b: b.udp_packet.fill(pkt_length=60))
                bufs = mem.buf_array(send_batch)
                while env.running():
                    bufs.alloc(60)
                    yield queue.send(bufs)

            env.launch(slave, env, queue)
            env.wait_for_slaves(duration_ns=300_000)
            obs = {
                "tx": _device_counters(tx),
                "rx": _device_counters(rx),
                "now_ps": env.loop.now_ps,
            }
            return obs, env

        assert_batch_equivalent(scenario, expect_batched=False)

    @settings(**property_settings(8))
    @given(st.data())
    def test_random_fault_plans_never_diverge(self, data):
        """Random multi-fault plans (the chaos-test strategy) are
        batch-invariant wholesale."""
        plan = data.draw(_PLAN)
        plain = run_plan(plan, duration_ns=1_000_000.0, rate_pps=1e6)
        batched = run_plan(plan, duration_ns=1_000_000.0, rate_pps=1e6,
                           batch=True)
        diff = _dict_diff(plain, batched)
        assert not diff, "\n  ".join(diff)


if __name__ == "__main__":
    import sys

    if "--write-golden" in sys.argv:
        GOLDEN_BATCH.write_text(
            json.dumps(_golden_batch_observations(), indent=1,
                       sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_BATCH}")
    else:
        print(__doc__)
