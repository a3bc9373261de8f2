"""Tests for the ``repro.metrics`` subsystem.

Covers the registry primitives (counter/gauge/rate/log2-histogram), the
exporters (JSONL, CSV, Prometheus text — with a committed golden file),
the sim-time snapshotter and its end-of-run edge cases, the run-provenance
manifest, the event-loop self-profiler, and the hypothesis mirror
property: a source-backed counter can never drift from the device
register it reads.
"""

import io
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import MoonGenEnv
from repro._optional import np
from repro.errors import ConfigurationError
from repro.metrics import (
    Counter,
    Log2Histogram,
    MetricsRegistry,
    RunManifest,
    TimeSeries,
    canonical_json,
    categorize,
    check_name,
    load_manifest,
    manifest_path_for,
    profile_env,
    prometheus_name,
    stable_hash,
    to_prometheus,
    validate_jsonl,
    write_csv,
    write_jsonl,
)
from repro.metrics.snapshot import Snapshotter
from repro.scenarios import SCENARIOS

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# registry primitives


class TestNames:
    def test_dotted_arrow_names_are_legal(self):
        for name in ("nic0.tx.pps", "wire.0->1.in_flight", "dut.ring.depth",
                     "faults.active", "loop.lane_hit_ratio"):
            assert check_name(name) == name

    @pytest.mark.parametrize("bad", ["", "space name", "pipe|name", "café"])
    def test_bad_names_raise(self, bad):
        with pytest.raises(ConfigurationError):
            check_name(bad)

    def test_duplicate_registration_raises(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(ConfigurationError):
            registry.counter("a.b")

    def test_registration_order_is_iteration_order(self):
        registry = MetricsRegistry()
        for name in ("z.last", "a.first", "m.middle"):
            registry.gauge(name)
        assert registry.names() == ["z.last", "a.first", "m.middle"]


class TestCounterGauge:
    def test_manual_counter_increments(self):
        c = Counter("pkts")
        c.inc()
        c.inc(41)
        assert c.read() == 42

    def test_manual_counter_cannot_decrease(self):
        c = Counter("pkts")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_source_backed_counter_tracks_source(self):
        state = {"n": 0}
        registry = MetricsRegistry()
        c = registry.counter("pkts", lambda: state["n"])
        assert c.read() == 0
        state["n"] = 7
        assert c.read() == 7
        with pytest.raises(ConfigurationError):
            c.inc()

    def test_source_backed_gauge_cannot_be_set(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth", lambda: 3)
        assert g.read() == 3
        with pytest.raises(ConfigurationError):
            g.set(9)

    def test_registry_lookup(self):
        registry = MetricsRegistry()
        c = registry.counter("x")
        assert registry.get("x") is c
        assert "x" in registry and len(registry) == 1
        with pytest.raises(ConfigurationError):
            registry.get("missing")


class TestRate:
    def test_first_sample_is_zero_then_delta_per_second(self):
        state = {"n": 0}
        registry = MetricsRegistry()
        c = registry.counter("pkts", lambda: state["n"])
        r = registry.rate("pps", c)
        assert r.sample(1_000_000.0) == 0.0  # no previous snapshot
        state["n"] = 1500
        # 1500 packets over 1 ms of simulated time = 1.5 Mpps.
        assert r.sample(2_000_000.0) == pytest.approx(1.5e6)
        # No traffic in the next interval: rate falls back to zero.
        assert r.sample(3_000_000.0) == 0.0

    def test_counter_with_rate_names(self):
        registry = MetricsRegistry()
        registry.counter_with_rate("nic0.tx", lambda: 0)
        assert registry.names() == ["nic0.tx.packets", "nic0.tx.pps"]


class TestLog2Histogram:
    def test_bucket_placement(self):
        h = Log2Histogram("lat")
        for value in (0, 1, 2, 3, 4, 1000):
            h.observe(value)
        # int(v).bit_length(): 0→0, 1→1, 2..3→2, 4→3, 1000→10
        assert h.counts[0] == 1 and h.counts[1] == 1
        assert h.counts[2] == 2 and h.counts[3] == 1
        assert h.counts[10] == 1
        assert h.total == 6 and h.sum == 1010

    def test_overflow_clamps_to_last_bucket(self):
        h = Log2Histogram("lat")
        h.observe(2.0 ** 90)
        assert h.counts[h.N_BUCKETS - 1] == 1

    def test_negative_observation_raises(self):
        h = Log2Histogram("lat")
        with pytest.raises(ConfigurationError):
            h.observe(-1.0)

    def test_quantile_and_mean(self):
        h = Log2Histogram("lat")
        for _ in range(99):
            h.observe(100.0)   # bucket 7, upper edge 128
        h.observe(100_000.0)   # bucket 17, upper edge 131072
        assert h.quantile(0.5) == 128.0
        assert h.quantile(1.0) == 131072.0
        assert h.mean() == pytest.approx(1099.0)
        assert h.quantile(0.5) == 128.0  # quantile does not mutate state

    def test_interop_with_sample_exact_histogram(self):
        from repro.core.histogram import Histogram

        exact = Histogram()
        for v in (10.0, 20.0, 30.0):
            exact.update(v)
        h = Log2Histogram("lat")
        h.observe_histogram(exact)
        assert h.total == 3 and h.sum == 60.0

    def test_read_is_compact_and_json_stable(self):
        h = Log2Histogram("lat")
        h.observe(5.0)
        snap = h.read()
        assert snap == {"total": 1, "sum": 5.0, "buckets": {"3": 1}}
        assert json.loads(canonical_json(snap)) == snap


class TestLog2Percentile:
    """Interpolated percentile extraction (the in-dataplane report path)."""

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            Log2Histogram("lat").percentile(50)

    def test_out_of_range_raises(self):
        h = Log2Histogram("lat")
        h.observe(1.0)
        with pytest.raises(ValueError, match="range"):
            h.percentile(101)
        with pytest.raises(ValueError, match="range"):
            h.percentile(-0.1)

    def test_overflow_bucket_reports_lower_edge(self):
        # The overflow bucket has no upper edge to interpolate toward;
        # it reports its lower edge rather than inventing a value.
        h = Log2Histogram("lat")
        for _ in range(10):
            h.observe(2.0 ** 90)
        assert h.percentile(50) == float(1 << (Log2Histogram.N_BUCKETS - 2))

    def test_interpolates_inside_one_bucket(self):
        h = Log2Histogram("lat")
        for _ in range(3):
            h.observe(600.0)  # bucket [512, 1024)
        p0, p50, p100 = (h.percentile(p) for p in (0, 50, 100))
        assert 512.0 <= p0 < p50 < p100 < 1024.0

    @staticmethod
    def _bucket_of(value: float):
        """(lower edge, width) of the finite bucket holding ``value``."""
        i = int(value).bit_length()
        lo = 0.0 if i == 0 else float(1 << (i - 1))
        return lo, float(1 << i) - lo if i else 1.0

    @settings(max_examples=40, deadline=None)
    @given(samples=st.lists(
               st.floats(min_value=0, max_value=2.0 ** 45, allow_nan=False),
               min_size=1, max_size=300),
           p=st.floats(min_value=0, max_value=100))
    def test_agrees_with_sample_exact_percentile(self, samples, p):
        """``Log2Histogram.percentile`` vs the sample-exact
        ``Histogram.percentile``: both interpolate between the same two
        ranks, and the bucket estimate never leaves its sample's bucket,
        so the estimates agree to within one power-of-two bucket width
        (the wider of the two ranks' buckets)."""
        from repro.core.histogram import Histogram

        h = Log2Histogram("lat")
        for v in samples:
            h.observe(v)
        est = h.percentile(p)
        exact = Histogram(samples).percentile(p)

        ordered = sorted(samples)
        rank = p / 100 * (len(ordered) - 1)
        low_sample = ordered[int(rank)]
        high_sample = ordered[min(len(ordered) - 1, int(rank) + 1)]
        low_lo, low_width = self._bucket_of(low_sample)
        high_lo, high_width = self._bucket_of(high_sample)
        assert abs(est - exact) <= max(low_width, high_width)
        # And the hard bound: est stays within the ranks' bucket span.
        assert low_lo <= est <= high_lo + high_width


# ---------------------------------------------------------------------------
# exporters


def _toy_registry():
    """A small fixed registry: deterministic input for exporter tests."""
    registry = MetricsRegistry()
    state = {"pkts": 3000}
    pkts = registry.counter("nic0.tx.packets", lambda: state["pkts"],
                            help="packets transmitted by port 0")
    registry.rate("nic0.tx.pps", pkts,
                  help="tx rate between snapshots (sim time)")
    registry.gauge("wire.0->1.in_flight", lambda: 2,
                   help="frames currently on the wire")
    lat = registry.log2_histogram("latency_ns",
                                  help="end-to-end latency in ns")
    # The last sample lands in the overflow bucket: its count must be
    # carried only by the +Inf line, never a duplicate finite edge.
    for value in (100.0, 200.0, 400.0, 100_000.0, 2.0 ** 50):
        lat.observe(value)
    return registry


class TestPrometheus:
    def test_name_sanitization(self):
        assert prometheus_name("nic0.tx.pps") == "nic0_tx_pps"
        assert prometheus_name("wire.0->1.in_flight") == "wire_0__1_in_flight"
        assert prometheus_name("0weird") == "_0weird"

    def test_matches_committed_golden(self):
        text = to_prometheus(_toy_registry())
        golden = (GOLDEN_DIR / "metrics_registry.prom").read_text()
        assert text == golden

    def test_histogram_buckets_are_cumulative(self):
        text = to_prometheus(_toy_registry())
        assert 'latency_ns_bucket{le="128"} 1\n' in text
        assert 'latency_ns_bucket{le="256"} 2\n' in text
        assert 'latency_ns_bucket{le="512"} 3\n' in text
        assert 'latency_ns_bucket{le="131072"} 4\n' in text
        assert 'latency_ns_bucket{le="+Inf"} 5\n' in text
        assert "latency_ns_count 5\n" in text

    def test_overflow_bucket_emits_single_inf_line(self):
        # The overflow bucket has no finite edge; a naive exporter used
        # to emit its cumulative count under le="2**47" AND +Inf.
        text = to_prometheus(_toy_registry())
        assert text.count('latency_ns_bucket{le="+Inf"}') == 1
        assert f'le="{1 << 47}"' not in text

    def test_rate_exported_as_gauge(self):
        text = to_prometheus(_toy_registry())
        assert "# TYPE nic0_tx_pps gauge" in text
        assert "# TYPE nic0_tx_packets counter" in text


class TestSeriesExport:
    def _series(self):
        series = TimeSeries()
        series.append({"t_ns": 1000.0, "a": 1, "h": {"total": 2}})
        series.append({"t_ns": 2000.0, "a": 3, "h": {"total": 5}})
        return series

    def test_jsonl_roundtrip_and_fingerprint_stability(self):
        series = self._series()
        out = io.StringIO()
        write_jsonl(series, out)
        rows = validate_jsonl(out.getvalue())
        assert [r["a"] for r in rows] == [1, 3]
        assert series.fingerprint() == self._series().fingerprint()

    def test_csv_flattens_histograms_to_totals(self):
        out = io.StringIO()
        write_csv(self._series(), out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "t_ns,a,h"
        assert lines[1] == "1000.0,1,2"
        assert lines[2] == "2000.0,3,5"

    def test_validate_rejects_unordered_rows(self):
        bad = '{"t_ns": 2000, "a": 1}\n{"t_ns": 1000, "a": 2}\n'
        with pytest.raises(ValueError, match="t_ns"):
            validate_jsonl(bad)

    def test_validate_rejects_ragged_columns(self):
        bad = '{"t_ns": 1000, "a": 1}\n{"t_ns": 2000, "b": 2}\n'
        with pytest.raises(ValueError, match="columns"):
            validate_jsonl(bad)

    def test_validate_rejects_empty_series(self):
        with pytest.raises(ValueError, match="empty"):
            validate_jsonl("")

    def test_final_values_drop_time_column(self):
        final = self._series().final_values()
        assert final == {"a": 3, "h": {"total": 5}}


# ---------------------------------------------------------------------------
# snapshotter


def run_quickstart_with_metrics(seed=3, duration_ns=2_000_000,
                                interval_ns=1_000_000.0):
    env = MoonGenEnv(seed=seed, metrics=True)
    tx = env.config_device(0, tx_queues=1)
    rx = env.config_device(1, rx_queues=1)
    env.connect(tx, rx)
    queue = tx.get_tx_queue(0)
    queue.set_rate_pps(2e6, 64)

    def slave(env, queue):
        mem = env.create_mempool(fill=lambda b: b.udp_packet.fill(
            pkt_length=60))
        bufs = mem.buf_array()
        while env.running():
            bufs.alloc(60)
            yield queue.send(bufs)

    snapshotter = env.start_snapshotter(interval_ns=interval_ns)
    env.launch(slave, env, queue)
    env.wait_for_slaves(duration_ns=duration_ns)
    snapshotter.finalize()
    return env, tx, rx, snapshotter


class TestSnapshotter:
    def test_rejects_nonpositive_interval(self):
        env = MoonGenEnv(seed=0, metrics=True)
        with pytest.raises(ConfigurationError):
            Snapshotter(env, env.metrics, interval_ns=0)

    def test_requires_metrics_enabled(self):
        env = MoonGenEnv(seed=0)
        with pytest.raises(ConfigurationError):
            env.start_snapshotter()

    def test_samples_on_interval_plus_final_drain_row(self):
        env, tx, rx, snap = run_quickstart_with_metrics()
        times = [row["t_ns"] for row in snap.series]
        # 2 ms at a 1 ms interval: samples at 1 ms and 2 ms, plus the
        # closing sample after wait_for_slaves drained in-flight frames.
        assert times[0] == pytest.approx(1_000_000.0)
        assert times[1] == pytest.approx(2_000_000.0)
        assert times == sorted(times)
        assert len(set(times)) == len(times), "duplicate snapshot instants"
        assert times[-1] == env.now_ns

    def test_sample_exactly_at_sim_end_not_duplicated(self):
        # The interval divides the duration exactly, so the last wake
        # lands on the stop horizon; finalize at the same instant must
        # not add a twin row.
        env, tx, rx, snap = run_quickstart_with_metrics(
            duration_ns=2_000_000, interval_ns=500_000.0)
        times = [row["t_ns"] for row in snap.series]
        assert len(set(times)) == len(times)
        snap.finalize()  # idempotent at the same instant
        assert [row["t_ns"] for row in snap.series] == times

    def test_final_counters_match_device_registers(self):
        env, tx, rx, snap = run_quickstart_with_metrics()
        final = snap.series.final_values()
        assert final["nic0.tx.packets"] == tx.tx_packets
        assert final["nic1.rx.packets"] == rx.rx_packets
        assert final["nic0.tx.packets"] > 0

    def test_mid_run_loop_events_are_live(self):
        env, tx, rx, snap = run_quickstart_with_metrics()
        events = snap.series.column("loop.events")
        # The first snapshot lands mid-run(); a stale counter would read 0.
        assert events[0] > 0
        assert events == sorted(events)
        assert events[-1] == env.loop.events_processed

    def test_pending_gauge_never_negative(self):
        # Cancelling a handle to an already-fired event (MAC wakeups,
        # wait_any timeouts) must not drive the live-event count below
        # zero — pending_events counts the queue exactly.
        env, tx, rx, snap = run_quickstart_with_metrics()
        assert all(v >= 0 for v in snap.series.column("loop.pending"))
        assert env.loop.pending_events >= 0

    def test_series_is_deterministic(self):
        _, _, _, a = run_quickstart_with_metrics(seed=9)
        _, _, _, b = run_quickstart_with_metrics(seed=9)
        assert a.series.fingerprint() == b.series.fingerprint()
        _, _, _, c = run_quickstart_with_metrics(seed=10)
        assert a.series.fingerprint() != c.series.fingerprint()

    @pytest.mark.skipif(np is None,
                        reason="the Poisson pattern draws gaps with numpy")
    def test_observed_run_ends_with_its_traffic(self):
        """The snapshotter never keeps a run alive: the poisson
        golden-trace topology with a 10 us horizon ends where its traffic
        does, with metrics, dataplane and a snapshotter on as without."""
        def end_ps(observed):
            env = SCENARIOS["poisson"](11, metrics=observed,
                                       dataplane=observed).env
            if observed:
                env.start_snapshotter(10_000 / 6)
            env.wait_for_slaves(duration_ns=10_000)
            return env.loop.now_ps

        assert end_ps(True) == end_ps(False) == 5_505_542

    def test_disabled_env_has_no_registry(self):
        env = MoonGenEnv(seed=0)
        assert env.metrics is None


class TestCounterMirrorProperty:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           duration_us=st.integers(min_value=200, max_value=900))
    def test_final_snapshot_equals_device_registers(self, seed, duration_us):
        env, tx, rx, snap = run_quickstart_with_metrics(
            seed=seed, duration_ns=duration_us * 1000,
            interval_ns=100_000.0)
        final = snap.series.final_values()
        assert final["nic0.tx.packets"] == tx.tx_packets
        assert final["nic0.tx.bytes"] == tx.tx_bytes
        assert final["nic1.rx.packets"] == rx.rx_packets
        assert final["nic1.rx.bytes"] == rx.rx_bytes


# ---------------------------------------------------------------------------
# manifest


class TestRunManifest:
    def test_roundtrip(self, tmp_path):
        result = tmp_path / "metrics.jsonl"
        manifest = RunManifest(
            command="moongen-repro metrics quickstart", seed=7, jobs=2,
            config={"mode": "smoke"}, fault_plan={"faults": []},
            result_fingerprint="abcd")
        path = manifest.write(str(result))
        assert path == str(tmp_path / "metrics.manifest.json")
        doc = load_manifest(path)
        assert doc["seed"] == 7 and doc["jobs"] == 2
        assert doc["config_hash"] == stable_hash({"mode": "smoke"})
        assert doc["fault_plan_hash"] == stable_hash({"faults": []})
        assert doc["result_fingerprint"] == "abcd"
        assert doc["python_version"].count(".") == 2

    def test_auxiliary_fingerprints_roundtrip(self, tmp_path):
        manifest = RunManifest(command="moongen-repro precision",
                               fingerprints={"latency": "beefcafe"})
        doc = load_manifest(manifest.write(str(tmp_path / "out.csv")))
        assert doc["fingerprints"] == {"latency": "beefcafe"}

    def test_fingerprints_absent_by_default(self):
        # Older manifests must stay byte-identical: the key only
        # appears when a fingerprint was recorded.
        assert "fingerprints" not in RunManifest(command="x").to_dict()

    def test_hash_is_order_insensitive(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_path_mapping(self):
        assert manifest_path_for("out/sweep.jsonl") == \
            "out/sweep.manifest.json"

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "x.manifest.json"
        path.write_text('{"schema": 999}')
        with pytest.raises(ValueError, match="schema"):
            load_manifest(str(path))


# ---------------------------------------------------------------------------
# self-profiler


class TestProfiler:
    def test_categorize(self):
        assert categorize("NicPort._mac_done") == "nic"
        assert categorize("Wire._deliver_due") == "wire"
        assert categorize("Process._advance_none") == "process"
        assert categorize(
            "FaultInjector._arm_wire_fault.<locals>.start") == "faults"
        assert categorize("mystery") == "other"

    def test_profile_smoke(self):
        env = MoonGenEnv(seed=3)
        tx = env.config_device(0, tx_queues=1)
        rx = env.config_device(1, rx_queues=1)
        env.connect(tx, rx)
        queue = tx.get_tx_queue(0)
        queue.set_rate_pps(2e6, 64)

        def slave(env, queue):
            mem = env.create_mempool(fill=lambda b: b.udp_packet.fill(
                pkt_length=60))
            bufs = mem.buf_array()
            while env.running():
                bufs.alloc(60)
                yield queue.send(bufs)

        env.launch(slave, env, queue)
        report = profile_env(env, duration_ns=500_000)
        assert report.events == env.loop.events_processed
        assert report.events > 0
        assert tx.tx_packets > 0, "profiling must not change behaviour"
        # Attribution covers the measured loop time (the >=95% criterion;
        # by construction the residual is booked to the profiler itself).
        assert report.attributed_wall_s() >= 0.95 * report.total_wall_s
        assert {"nic", "wire", "scheduler"} <= set(report.categories)
        doc = report.to_dict()
        assert doc["events"] == report.events
        assert report.format_table().startswith("profiled")
        json.loads(report.to_json())

    def test_profiled_run_matches_unprofiled_counters(self):
        def build(seed):
            env = MoonGenEnv(seed=seed)
            tx = env.config_device(0, tx_queues=1)
            rx = env.config_device(1, rx_queues=1)
            env.connect(tx, rx)
            queue = tx.get_tx_queue(0)
            queue.set_rate_pps(2e6, 64)

            def slave(env, queue):
                mem = env.create_mempool(fill=lambda b: b.udp_packet.fill(
                    pkt_length=60))
                bufs = mem.buf_array()
                while env.running():
                    bufs.alloc(60)
                    yield queue.send(bufs)

            env.launch(slave, env, queue)
            return env, tx, rx

        env_a, tx_a, rx_a = build(11)
        env_a.wait_for_slaves(duration_ns=500_000)
        env_b, tx_b, rx_b = build(11)
        profile_env(env_b, duration_ns=500_000)
        assert (tx_a.tx_packets, rx_a.rx_packets) == \
            (tx_b.tx_packets, rx_b.rx_packets)
        assert env_a.loop.events_processed == env_b.loop.events_processed
