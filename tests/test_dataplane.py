"""Tests for the in-dataplane latency observation layer.

Covers enablement and the zero-cost-when-off contract, the per-hop
metric names and what each histogram counts (tx-queue residence,
wire hop, end-to-end, DuT ring, rx inter-arrival), FCS gating (CRC-gap
fillers are pacing artifacts, never observed), fingerprint determinism,
snapshot/exporter integration, and the rate-control precision audit
(``repro.analysis.precision``) including its pure-Python CBR planner
against the numpy reference.
"""

import io

import pytest

from repro import MoonGenEnv, units
from repro._optional import np as _installed_np
from repro.analysis.precision import (
    METHODS,
    audit_registry,
    cbr_filler_schedule,
    format_audit_table,
    run_method,
    run_precision_audit,
    write_audit_csv,
)
from repro.core.ratecontrol import GapFiller
from repro.dut import OvsForwarder
from repro.errors import ConfigurationError


def _run_two_port(seed=5, duration_ns=400_000, dataplane=True, paced=None,
                  batch=False):
    """One saturating (or paced) CBR pipeline port 0 -> port 1."""
    env = MoonGenEnv(seed=seed, metrics=True, dataplane=dataplane,
                     batch=batch)
    tx = env.config_device(0, tx_queues=1)
    rx = env.config_device(1, rx_queues=1)
    env.connect(tx, rx)
    queue = tx.get_tx_queue(0)
    if paced:
        queue.set_rate_pps(paced, 64)

    def slave(env, queue):
        mem = env.create_mempool(fill=lambda b: b.udp_packet.fill(
            pkt_length=60, eth_dst=str(rx.mac)))
        bufs = mem.buf_array(32)
        while env.running():
            bufs.alloc(60)
            yield queue.send(bufs)

    env.launch(slave, env, queue)
    env.wait_for_slaves(duration_ns=duration_ns)
    return env, tx, rx


class TestEnablement:
    def test_requires_metrics(self):
        with pytest.raises(ConfigurationError, match="metrics"):
            MoonGenEnv(seed=0, dataplane=True)

    def test_off_by_default_leaves_hooks_inert(self):
        env = MoonGenEnv(seed=0, metrics=True)
        tx = env.config_device(0, tx_queues=1)
        rx = env.config_device(1, rx_queues=1)
        wire, back = env.connect(tx, rx)
        assert env.dataplane is None
        assert tx.port.dataplane is None and rx.port.dataplane is None
        assert wire.dp_hop is None and wire.dp_e2e is None

    def test_disabled_run_has_no_histogram_metrics(self):
        env, _, _ = _run_two_port(dataplane=False)
        assert not any(n.startswith(("latency.", "interarrival."))
                       for n in env.metrics.names())

    def test_attachment_creates_stable_names(self):
        env = MoonGenEnv(seed=0, metrics=True, dataplane=True)
        tx = env.config_device(0, tx_queues=2)
        rx = env.config_device(1, rx_queues=1)
        env.connect(tx, rx)
        names = set(env.dataplane.histograms)
        assert {"latency.hop.nic0.txq0", "latency.hop.nic0.txq1",
                "interarrival.port0.rx", "interarrival.port1.rx",
                "latency.hop.wire.0->1", "latency.e2e.0->1",
                "latency.hop.wire.1->0", "latency.e2e.1->0"} <= names
        # The histograms live in the ordinary registry too.
        assert set(env.metrics.names()) >= names


class TestObservations:
    def test_counts_match_traffic(self):
        env, tx, rx = _run_two_port()
        dp = env.dataplane.read_all()
        # Every transmitted frame left through txq0 and crossed the wire.
        assert dp["latency.hop.nic0.txq0"]["total"] == tx.tx_packets
        assert dp["latency.hop.wire.0->1"]["total"] == rx.rx_packets
        assert dp["latency.e2e.0->1"]["total"] == rx.rx_packets
        # n arrivals produce n-1 gaps.
        assert dp["interarrival.port1.rx"]["total"] == rx.rx_packets - 1
        assert rx.rx_packets > 0
        # Nothing flowed the other way.
        assert dp["latency.hop.wire.1->0"]["total"] == 0
        assert dp["interarrival.port0.rx"]["total"] == 0

    def test_e2e_bounds_hop_residence(self):
        env, tx, rx = _run_two_port()
        dp = env.dataplane.read_all()
        # End-to-end includes the tx-queue wait, so its mean dominates
        # the wire hop's.
        wire = dp["latency.hop.wire.0->1"]
        e2e = dp["latency.e2e.0->1"]
        assert e2e["sum"] / e2e["total"] >= wire["sum"] / wire["total"]

    def test_saturated_interarrival_is_back_to_back(self):
        env, tx, rx = _run_two_port()
        p = env.dataplane.percentiles("interarrival.port1.rx", (50.0,))
        # A saturated 10 GbE link delivers 64 B frames every 67.2 ns.
        wire_ns = units.frame_time_ns(64, units.SPEED_10G)
        assert p["p50"] == pytest.approx(wire_ns, rel=0.5)

    def test_crc_fillers_are_not_observed(self):
        result = run_method("crc", rate_mpps=1.0, duration_ns=400_000,
                            seed=3)
        # The fillers really flowed (and were dropped as CRC errors)...
        assert result["rx_crc_errors"] > 0
        # ...but only FCS-valid arrivals enter the inter-arrival
        # histogram: n valid arrivals, n-1 gaps.
        assert result["histogram"]["total"] == result["rx_packets"] - 1

    def test_dut_ring_residence_observed(self):
        env = MoonGenEnv(seed=2, cost_noise=False, metrics=True,
                         dataplane=True)
        tx = env.config_device(0, tx_queues=1)
        rx = env.config_device(1, rx_queues=1)
        dut = OvsForwarder(env.loop)
        env.connect_to_sink(tx, dut.ingress)
        dut.connect_output(env.wire_to_device(rx))
        env.register_dut(dut)
        queue = tx.get_tx_queue(0)
        queue.set_rate_pps(1e6, 64)

        def slave(env, queue):
            mem = env.create_mempool(fill=lambda b: b.udp_packet.fill(
                pkt_length=60, eth_dst=str(rx.mac)))
            bufs = mem.buf_array(32)
            while env.running():
                bufs.alloc(60)
                yield queue.send(bufs)

        env.launch(slave, env, queue)
        env.wait_for_slaves(duration_ns=400_000)
        dp = env.dataplane.read_all()
        assert dp["latency.hop.dut.ring"]["total"] == dut.forwarded
        assert dut.forwarded > 0

    def test_percentiles_empty_histogram_yields_empty_dict(self):
        env = MoonGenEnv(seed=0, metrics=True, dataplane=True)
        env.config_device(0, tx_queues=1)
        assert env.dataplane.percentiles("interarrival.port0.rx") == {}


class TestDeterminism:
    def test_fingerprint_reproducible_and_seed_sensitive(self):
        a, _, _ = _run_two_port(seed=7)
        b, _, _ = _run_two_port(seed=7)
        c, _, _ = _run_two_port(seed=8)
        assert a.dataplane.fingerprint() == b.dataplane.fingerprint()
        assert a.dataplane.fingerprint() != c.dataplane.fingerprint()

    def test_snapshot_series_carries_histograms(self):
        env = MoonGenEnv(seed=5, metrics=True, dataplane=True)
        tx = env.config_device(0, tx_queues=1)
        rx = env.config_device(1, rx_queues=1)
        env.connect(tx, rx)
        queue = tx.get_tx_queue(0)

        def slave(env, queue):
            mem = env.create_mempool(fill=lambda b: b.udp_packet.fill(
                pkt_length=60, eth_dst=str(rx.mac)))
            bufs = mem.buf_array(32)
            while env.running():
                bufs.alloc(60)
                yield queue.send(bufs)

        snap = env.start_snapshotter(interval_ns=200_000.0)
        env.launch(slave, env, queue)
        env.wait_for_slaves(duration_ns=400_000)
        snap.finalize()
        final = snap.series.final_values()
        assert final["latency.hop.wire.0->1"]["total"] == rx.rx_packets
        assert final["interarrival.port1.rx"]["total"] == rx.rx_packets - 1


class TestPrecisionAudit:
    def test_audit_table_and_methods(self):
        results = run_precision_audit(rate_mpps=1.0, duration_ns=400_000,
                                      seed=1)
        assert [r["method"] for r in results] == list(METHODS)
        table = format_audit_table(results)
        for method in METHODS:
            assert method in table
        # Hardware CBR and CRC-gap pacing both realise the target rate
        # precisely; naive bursty software pacing does not.
        hardware, crc, burst = results
        gap = hardware["target_gap_ns"]
        assert hardware["mean_ns"] == pytest.approx(gap, rel=0.02)
        assert crc["mean_ns"] == pytest.approx(gap, rel=0.02)
        p50 = burst["percentiles"]["p50"]
        assert p50 < gap / 2, "bursty pacing should show micro-bursts"

    def test_unknown_method_raises(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            run_method("tcpreplay")

    def test_csv_export_shape(self):
        results = run_precision_audit(rate_mpps=1.0, duration_ns=300_000,
                                      seed=1, methods=("hardware",))
        out = io.StringIO()
        write_audit_csv(results, out)
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "method,bucket_lo_ns,bucket_hi_ns,count,cumulative"
        assert all(line.startswith("hardware,") for line in lines[1:])
        # The last cumulative equals the histogram total.
        assert lines[-1].endswith(str(results[0]["histogram"]["total"]))

    def test_audit_registry_restores_exactly(self):
        results = run_precision_audit(rate_mpps=1.0, duration_ns=300_000,
                                      seed=1, methods=("hardware",))
        registry = audit_registry(results)
        hist = registry.get("precision.interarrival.hardware")
        assert hist.read() == results[0]["histogram"]

    @pytest.mark.skipif(_installed_np is None,
                        reason="the reference planner draws with numpy")
    def test_pure_python_cbr_planner_matches_numpy_plan(self):
        """The audit's carry-arithmetic CBR schedule must equal
        ``GapFiller.plan`` on the equivalent constant gap sequence."""
        filler = GapFiller()
        gap_ns = 1000.0
        schedule = cbr_filler_schedule(filler, gap_ns)
        reference = filler.plan([gap_ns] * 64)
        assert [next(schedule) for _ in range(64)] == \
            reference.filler_wire_bytes

    def test_planner_rejects_above_line_rate(self):
        with pytest.raises(ConfigurationError, match="line rate"):
            next(cbr_filler_schedule(GapFiller(), 1.0))
