"""Rate-control precision audits (Section 7.3, Figure 8) — in-dataplane.

The paper's Figure 8 compares how precisely different rate-control
mechanisms space packets on the wire by histogramming receive-side
inter-arrival times.  This module reproduces that audit inside the
simulator using the in-dataplane observation layer
(:mod:`repro.metrics.dataplane`): each method drives a two-port
topology at the same target rate and the receiving NIC latches the gap
between consecutive FCS-valid arrivals into
``interarrival.port1.rx``.

Three methods, one per mechanism family the paper measures:

* ``hardware`` — per-queue CBR pacing on the NIC (Section 7.2); the
  precision baseline.
* ``crc`` — the Section 8 software rate control: the wire stays full
  and gaps are realised by inserting bad-FCS filler frames the
  receiver drops in hardware.  The CBR schedule is planned by the
  same carry kernel as :meth:`~repro.core.ratecontrol.GapFiller.plan`,
  without numpy, so the audit runs on a numpy-free install.
* ``software-burst`` — naive software pacing: bursts leave
  back-to-back, then the sender sleeps until the next burst is due
  (the pktgen/zsend shape: micro-bursts plus long gaps).

Every method's result carries the raw ``Log2Histogram`` state,
interpolated percentiles, and a fingerprint over the canonical JSON of
the histogram — bit-identical for any ``jobs`` value and with the
batch tier on or off.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any, Dict, Iterator, List, Sequence

from repro import units
from repro.core.ratecontrol import GapFiller, idle_byte_counts
from repro.errors import ConfigurationError
from repro.metrics.registry import Log2Histogram, MetricsRegistry
from repro.metrics.snapshot import canonical_json

#: The audited mechanisms, in report order.
METHODS = ("hardware", "crc", "software-burst")

#: Packets per burst for the ``software-burst`` method (the paper's
#: software generators transmit in batches of this order).
BURST_SIZE = 32

#: Percentiles reported per method.
PERCENTILES = (1.0, 50.0, 99.0)


def cbr_filler_schedule(filler: GapFiller, gap_ns: float) -> Iterator[List[int]]:
    """Endless per-packet filler schedules for a constant-bit-rate gap.

    The constant-gap case of :meth:`GapFiller.plan`: the same carry
    kernel (:func:`~repro.core.ratecontrol.idle_byte_counts`) and the
    same :meth:`GapFiller._split_filler` decomposition, fed an endless
    gap stream instead of a numpy array, so the audit runs on a
    numpy-free install.
    """
    min_gap_ns = filler.pkt_wire_bytes * filler.byte_time_ns
    if gap_ns < min_gap_ns - 1e-9:
        raise ConfigurationError(
            f"desired gap {gap_ns:.1f} ns is below the frame's wire time "
            f"({min_gap_ns:.1f} ns); the requested rate exceeds line rate")
    for idle_bytes in idle_byte_counts(itertools.repeat(gap_ns), min_gap_ns,
                                       filler.byte_time_ns,
                                       filler.min_filler_wire):
        yield filler._split_filler(idle_bytes)


def _craft(buf, src: str, dst: str) -> None:
    buf.eth_packet.fill(eth_src=src, eth_dst=dst, eth_type=0x0800)


def run_method(
    method: str,
    rate_mpps: float = 1.0,
    frame_size: int = units.MIN_FRAME_SIZE,
    duration_ns: float = 4e6,
    seed: int = 1,
    batch: bool = False,
) -> Dict[str, Any]:
    """Run one rate-control method and audit its inter-arrival precision.

    Returns a plain dict (picklable, deep-diffable): target rate and
    gap, receive counters, the raw histogram state, interpolated
    percentiles, the histogram mean, and a fingerprint over the
    canonical JSON of the histogram state.
    """
    if method not in METHODS:
        raise ConfigurationError(
            f"unknown rate-control method {method!r}; "
            f"expected one of {METHODS}")
    from repro import MoonGenEnv

    pps = rate_mpps * 1e6
    gap_ns = units.NS_PER_S / pps
    env = MoonGenEnv(seed=seed, metrics=True, dataplane=True, batch=batch)
    tx = env.config_device(0, tx_queues=1)
    rx = env.config_device(1, rx_queues=1)
    env.connect(tx, rx)
    queue = tx.get_tx_queue(0)
    src, dst = str(tx.mac), str(rx.mac)
    payload = frame_size - units.FCS_SIZE

    if method == "hardware":
        queue.set_rate_pps(pps, frame_size)

        def slave(env, queue):
            mem = env.create_mempool()
            bufs = mem.buf_array(32)
            while env.running():
                bufs.alloc(payload)
                for buf in bufs:
                    _craft(buf, src, dst)
                yield queue.send(bufs)

    elif method == "crc":
        filler = GapFiller(frame_size=frame_size,
                           speed_bps=tx.port.speed_bps)
        schedule = cbr_filler_schedule(filler, gap_ns)

        def slave(env, queue):
            mem = env.create_mempool()
            bufs = mem.buf_array(1)
            while env.running():
                bufs.alloc(payload)
                _craft(bufs[0], src, dst)
                yield queue.send(bufs)
                for wire_len in next(schedule):
                    bufs.alloc(wire_len - units.WIRE_OVERHEAD
                               - units.FCS_SIZE)
                    bufs[0].corrupt_fcs = True
                    _craft(bufs[0], "02:00:00:00:00:ff",
                           "ff:ff:ff:ff:ff:ff")
                    yield queue.send(bufs)

    else:  # software-burst
        period_ns = BURST_SIZE * gap_ns

        def slave(env, queue):
            mem = env.create_mempool()
            bufs = mem.buf_array(BURST_SIZE)
            next_ns = 0.0
            while env.running():
                bufs.alloc(payload)
                for buf in bufs:
                    _craft(buf, src, dst)
                yield queue.send(bufs)
                next_ns += period_ns
                delay = next_ns - env.now_ns
                if delay > 0:
                    yield env.sleep_ns(delay)

    env.launch(slave, env, queue)
    env.wait_for_slaves(duration_ns=duration_ns)

    name = f"interarrival.port{rx.port.port_id}.rx"
    state = env.dataplane.histograms[name].read()
    hist = env.dataplane.histograms[name]
    return {
        "method": method,
        "target_pps": pps,
        "target_gap_ns": gap_ns,
        "tx_packets": tx.tx_packets,
        "rx_packets": rx.rx_packets,
        "rx_crc_errors": rx.rx_crc_errors,
        "histogram": state,
        "percentiles": env.dataplane.percentiles(name, PERCENTILES),
        "mean_ns": (hist.sum / hist.total) if hist.total else 0.0,
        "fingerprint": hashlib.blake2b(
            canonical_json(state).encode("utf-8"),
            digest_size=8).hexdigest(),
    }


def _audit_point(point: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """``run_parallel`` experiment fn: the per-point seed the engine
    derives is ignored — the user's seed rides in the point itself, so
    serial and sharded runs are bit-identical by construction."""
    return run_method(
        point["method"],
        rate_mpps=point["rate_mpps"],
        frame_size=point["frame_size"],
        duration_ns=point["duration_ns"],
        seed=point["seed"],
        batch=point["batch"],
    )


def run_precision_audit(
    rate_mpps: float = 1.0,
    frame_size: int = units.MIN_FRAME_SIZE,
    duration_ns: float = 4e6,
    seed: int = 1,
    methods: Sequence[str] = METHODS,
    jobs: int = 1,
    batch: bool = False,
) -> List[Dict[str, Any]]:
    """Audit every method at one rate; results in ``methods`` order.

    ``jobs > 1`` fans the per-method simulations across worker
    processes through the deterministic parallel engine; results are
    bit-identical either way.
    """
    points = [
        {"method": m, "rate_mpps": rate_mpps, "frame_size": frame_size,
         "duration_ns": duration_ns, "seed": seed, "batch": batch}
        for m in methods
    ]
    if jobs and jobs > 1:
        from repro.parallel import run_parallel

        return run_parallel(points, _audit_point, jobs=jobs)
    return [_audit_point(p, seed) for p in points]


def restore_histogram(name: str, state: Dict[str, Any],
                      registry: MetricsRegistry,
                      help: str = "") -> Log2Histogram:
    """Re-register a histogram from its ``read()`` state.

    The audit runs each method in its own environment (possibly in a
    worker process); the exporters want one registry.  Counts, total,
    and sum are restored exactly — ``read()`` loses nothing a
    ``Log2Histogram`` holds.
    """
    hist = registry.log2_histogram(name, help)
    for bucket, count in state["buckets"].items():
        hist.counts[int(bucket)] = count
    hist.total = state["total"]
    hist.sum = state["sum"]
    return hist


def audit_registry(results: Sequence[Dict[str, Any]]) -> MetricsRegistry:
    """One registry holding ``precision.interarrival.<method>`` per
    result — the export surface for the CSV/Prometheus artifacts."""
    registry = MetricsRegistry()
    for result in results:
        restore_histogram(
            f"precision.interarrival.{result['method']}",
            result["histogram"], registry,
            help="rx inter-arrival gap (ns) under this rate control")
    return registry


def write_audit_csv(results: Sequence[Dict[str, Any]], fh) -> None:
    """Figure-8-shaped CSV: one bucket row per method, plus totals.

    Columns: method, bucket lower/upper edge in ns (upper empty for the
    overflow bucket), count, cumulative count.
    """
    fh.write("method,bucket_lo_ns,bucket_hi_ns,count,cumulative\n")
    for result in results:
        cumulative = 0
        buckets = result["histogram"]["buckets"]
        for bucket in sorted(buckets, key=int):
            i = int(bucket)
            lo = 0 if i == 0 else 1 << (i - 1)
            hi = "" if i == Log2Histogram.N_BUCKETS - 1 else str(1 << i)
            cumulative += buckets[bucket]
            fh.write(f"{result['method']},{lo},{hi},"
                     f"{buckets[bucket]},{cumulative}\n")


def format_audit_table(results: Sequence[Dict[str, Any]]) -> str:
    """The Figure 8 comparison table, one row per method."""
    lines = [f"{'method':<16} {'rx pkts':>8} {'target ns':>10} "
             f"{'p1 ns':>8} {'p50 ns':>8} {'p99 ns':>8} {'mean ns':>9} "
             f"{'fingerprint':>16}"]
    for r in results:
        p = r["percentiles"]
        lines.append(
            f"{r['method']:<16} {r['rx_packets']:>8} "
            f"{r['target_gap_ns']:>10.1f} "
            f"{p.get('p1', 0.0):>8.1f} {p.get('p50', 0.0):>8.1f} "
            f"{p.get('p99', 0.0):>8.1f} {r['mean_ns']:>9.1f} "
            f"{r['fingerprint']:>16}")
    return "\n".join(lines)


__all__ = [
    "BURST_SIZE",
    "METHODS",
    "PERCENTILES",
    "audit_registry",
    "cbr_filler_schedule",
    "format_audit_table",
    "restore_histogram",
    "run_method",
    "run_precision_audit",
    "write_audit_csv",
]
