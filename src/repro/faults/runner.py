"""The canonical chaos scenario: one measured run under a fault plan.

``run_plan`` drives a fixed, fully seeded topology — port 0 sends CBR
traffic with sequence numbers to port 1 (via the simulated DuT when the
plan targets one), with a sequence tracker, a stats monitor, and the
fault injector armed — and returns a flat dict of every counter that
matters plus a BLAKE2b fingerprint of the whole dict.  Two runs of the
same ``(plan, seed)`` must produce byte-identical fingerprints whatever
the surrounding sharding; the CI fault-matrix job and the serial-vs-
parallel property tests are built on exactly that comparison.
"""

from __future__ import annotations

import hashlib
import io
from typing import Any, Dict, Optional

from repro.parallel.seeding import point_key


def fingerprint_of(result: Dict[str, Any]) -> str:
    """Short stable hash of a result dict (order-insensitive, typed)."""
    material = point_key({k: v for k, v in result.items()
                          if k != "fingerprint"})
    return hashlib.blake2b(material.encode("utf-8"),
                           digest_size=8).hexdigest()


def run_plan(
    plan,
    seed: int = 0,
    duration_ns: float = 8_000_000.0,
    rate_pps: float = 1.5e6,
    frame_size: int = 64,
    trace=None,
    metrics: bool = False,
    batch: bool = False,
    dataplane: bool = False,
) -> Dict[str, Any]:
    """Run the chaos scenario under ``plan``; returns the stats dict.

    ``plan`` is anything :func:`repro.faults.load_plan` accepts.  Plans
    target the scenario's names: ``port:0`` / ``port:1``, ``wire:0->1``
    (direct wiring), or — when any fault targets ``dut`` — ``wire:0->sink``
    / ``wire:env->1`` around the OvS forwarder.  ``trace`` is forwarded to
    :class:`~repro.core.env.MoonGenEnv`; pass a bound-free
    :class:`~repro.trace.Tracer` to keep the records.

    With ``metrics=True`` the run also carries a metrics registry and a
    1 ms snapshotter; the result gains a ``metrics_fingerprint`` key (the
    BLAKE2b hash of the snapshot series) — the value the CI fault-matrix
    job compares between serial and sharded runs.  ``dataplane=True``
    (requires ``metrics=True``) additionally arms the in-dataplane
    latency histograms (:mod:`repro.metrics.dataplane`); the result
    gains a ``latency_fingerprint`` key and the histograms ride into
    ``metrics_fingerprint``.

    With ``batch=True`` the run executes under the batch tier
    (``repro.batch``); the result dict is bit-identical either way — a
    fault firing mid-train is impossible by construction (faulted wires
    and stalled queues are fallback reasons in the run detector), so the
    property tests diff ``run_plan(..., batch=True)`` against the default
    wholesale.
    """
    from repro.core.env import MoonGenEnv
    from repro.core.monitor import DeviceStatsMonitor
    from repro.core.seqcheck import SequenceStamper, SequenceTracker
    from repro.faults import DutOverload, load_plan

    plan = load_plan(plan)
    needs_dut = any(isinstance(f, DutOverload) for f in plan.faults)

    env = MoonGenEnv(seed=seed, cost_noise=False, trace=trace, faults=plan,
                     metrics=metrics, batch=batch, dataplane=dataplane)
    tx_dev = env.config_device(0, tx_queues=2, rx_queues=1)
    rx_dev = env.config_device(1, tx_queues=1, rx_queues=1)
    dut = None
    wire = None
    if needs_dut:
        from repro.dut.forwarder import OvsForwarder

        dut = OvsForwarder(env.loop)
        wire = env.connect_to_sink(tx_dev, dut.ingress)
        dut.connect_output(env.wire_to_device(rx_dev))
        env.register_dut(dut)
    else:
        wire, _ = env.connect(tx_dev, rx_dev)

    stamper = SequenceStamper()
    tracker = SequenceTracker()
    load_queue = tx_dev.get_tx_queue(0)
    load_queue.set_rate_pps(rate_pps, frame_size)

    def tx_task():
        mem = env.create_mempool()
        bufs = mem.buf_array(32)
        dst = str(rx_dev.mac)
        src = str(tx_dev.mac)
        while env.running():
            bufs.alloc(frame_size - 4)  # buffers exclude the FCS
            for buf in bufs:
                buf.eth_packet.fill(eth_src=src, eth_dst=dst,
                                    eth_type=0x0800)
            stamper.stamp(bufs)
            yield load_queue.send(bufs)

    def rx_task():
        rx_queue = rx_dev.get_rx_queue(0)
        while env.running():
            for pkt in rx_queue.try_fetch(64):
                tracker.observe(pkt)
            yield env.sleep_us(10.0)

    monitor = DeviceStatsMonitor(env, rx_dev, interval_ns=1_000_000.0,
                                 stream=io.StringIO())
    snapshotter = None
    if metrics:
        snapshotter = env.start_snapshotter(interval_ns=1_000_000.0)
    env.launch(tx_task)
    env.launch(rx_task)
    env.launch(monitor.task)
    env.wait_for_slaves(duration_ns=duration_ns)

    report = tracker.report
    injector = env.injector
    result: Dict[str, Any] = {
        "plan_seed": plan.seed,
        "seed": seed,
        "n_faults": len(plan),
        "tx_packets": tx_dev.tx_packets,
        "rx_packets": rx_dev.rx_packets,
        "rx_crc_errors": rx_dev.rx_crc_errors,
        "rx_missed": rx_dev.rx_missed,
        "wire_sent": wire.frames_sent,
        "wire_dropped": wire.dropped,
        "wire_corrupted": wire.corrupted,
        "wire_in_flight": wire.in_flight,
        "seq_received": report.received,
        "seq_lost": report.lost,
        "seq_reordered": report.reordered,
        "seq_duplicates": report.duplicates,
        "seq_gap_events": report.gap_events,
        "seq_longest_gap": report.longest_gap,
        "loss_fraction": round(report.loss_fraction, 9),
        "rx_link_changes": rx_dev.port.link_changes,
        "monitor_samples": monitor.samples,
        "monitor_gaps": len(monitor.gaps),
        "faults_injected": injector.injected if injector else 0,
        # Clock faults (step/drift) land here: the rx clock's final
        # reading diverges from simulation time by the injected error.
        "rx_clock_ns": round(rx_dev.port.clock.read_ns(), 3),
    }
    if dut is not None:
        result["dut_forwarded"] = dut.forwarded
        result["dut_rx_dropped"] = dut.rx_dropped
    if snapshotter is not None:
        snapshotter.finalize()
        # The fingerprint leaves out the ``loop.*`` scheduler
        # self-accounting, so it holds across serial/sharded *and*
        # batch/event.
        result["metrics_fingerprint"] = snapshotter.series.fingerprint()
    if env.dataplane is not None:
        result["latency_fingerprint"] = env.dataplane.fingerprint()
    result["fingerprint"] = fingerprint_of(result)
    return result


def run_named_plan(point, seed: int) -> Dict[str, Any]:
    """``run_parallel``-compatible wrapper: ``point`` is a plan name.

    The name is a builtin plan (rebuilt with the point's plan seed) or a
    path to a plan.json (whose stored seed wins).  The engine-derived
    per-point seed is deliberately ignored — the scenario seed and the
    plan seed travel inside the point so the matrix reproduces single-run
    invocations exactly.
    """
    from repro.faults import builtin_plans, load_plan

    name, scenario_seed, plan_seed = point
    plans = builtin_plans(seed=plan_seed)
    if name in plans:
        plan = plans[name]
    else:
        import os

        if not (name.lstrip().startswith("{") or os.path.exists(name)):
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"unknown fault plan {name!r}: not a builtin "
                f"({sorted(plans)}) and not a readable plan file"
            )
        plan = load_plan(name)
    result = run_plan(plan, seed=scenario_seed, metrics=True)
    result["plan"] = name
    return result


def run_matrix(
    plan_names,
    seed: int = 0,
    plan_seed: Optional[int] = None,
    jobs: int = 1,
    progress=None,
    journal=None,
    supervise=None,
    report=None,
) -> Dict[str, Dict[str, Any]]:
    """Run several builtin plans, optionally sharded over workers.

    Returns ``{plan_name: result_dict}``; bit-identical for any ``jobs``
    value (the determinism the CI fault-matrix job asserts).  Every
    result carries ``metrics_fingerprint`` (see :func:`run_plan`), which
    the CI gate compares alongside the result fingerprint.  ``progress``,
    ``journal``, ``supervise``, and ``report`` are forwarded to
    :func:`repro.parallel.run_parallel` (docs/RESILIENCE.md); a plan
    quarantined under ``supervise.quarantine`` comes back as
    ``{"plan": name, "poisoned": True, ...}`` instead of a result dict.

    Note these are *harness* faults (worker crashes, hangs, kills) —
    orthogonal to the *modeled* faults the plans themselves inject into
    the simulated NICs and links (docs/FAULTS.md).
    """
    from repro.parallel import run_parallel

    plan_seed = seed if plan_seed is None else plan_seed
    points = [(str(name), int(seed), int(plan_seed)) for name in plan_names]
    results = run_parallel(points, run_named_plan, jobs=jobs, root_seed=seed,
                           progress=progress, journal=journal,
                           supervise=supervise, report=report)
    matrix: Dict[str, Dict[str, Any]] = {}
    for point, result in zip(points, results):
        if isinstance(result, dict):
            matrix[result["plan"]] = result
        else:  # PoisonedPoint placeholder under quarantine
            matrix[point[0]] = {"plan": point[0], **result.to_dict()}
    return matrix
