"""Every scenario the repository ships, built through :mod:`repro.testbed`.

Three kinds of entry live here:

* **Builders** take ``(seed, ..., **options)``, forward ``options`` to
  :class:`~repro.core.env.MoonGenEnv` (``batch``, ``metrics``,
  ``dataplane``, ``trace``, ``faults``, ``watchdog``, ...), and return
  the topology with its slaves launched, before it runs.
  :data:`SCENARIOS` names the ones the ``trace``, ``metrics`` and
  ``profile`` subcommands look up: the three golden traces,
  ``quickstart`` and ``dut-forward``.
* **Experiment functions** ``fn(point, seed)`` are what
  :func:`repro.parallel.run_parallel` shards: the chaos matrix point
  (:func:`chaos_point`), the load-latency replica
  (:func:`load_latency_replica`) and the four :data:`SWEEPS`.
* **Runners**: :func:`run_plan` (one chaos run), :func:`run_matrix`
  (several plans, sharded) and :func:`run_trace` (a golden trace).

The golden traces under ``tests/golden/`` run with ``cost_noise=False``,
so their bytes depend only on integer event arithmetic and the seeded
RNG streams, not on platform libm rounding of Gaussian noise.  Regenerate
them with::

    python -m repro.scenarios --write-golden tests/golden

``tests/test_equivalence.py`` runs these scenarios over every execution
mode and requires one result.
"""

from __future__ import annotations

import io
import itertools
import os
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.core.memory import DEFAULT_BATCH_SIZE
from repro.errors import ConfigurationError
from repro.testbed import (
    DutTopology,
    LoadgenPair,
    dut_topology,
    loadgen_pair,
    port_fleet,
)
from repro.units import MIN_FRAME_SIZE

#: Categories used for golden traces (everything except the raw scheduler
#: ``event`` feed, which triples trace size without adding semantics).
GOLDEN_CATEGORIES: Tuple[str, ...] = (
    "proc", "desc", "wire", "drop", "tstamp", "irq", "cpu", "stats", "fault",
)


def udp_slave(size: int = 60, send_batch: int = DEFAULT_BATCH_SIZE,
              random_fields: int = 0, **fill) -> Callable:
    """A slave sending ``size``-byte UDP frames (FCS excluded) in bursts
    of ``send_batch`` until ``env.running()`` turns false.

    Launch it as ``env.launch(udp_slave(...), env, queue)``.  ``fill``
    sets header fields once per buffer; ``random_fields`` are charged
    per burst (Table 2).
    """
    def slave(env, queue):
        mem = env.create_mempool(
            fill=lambda b: b.udp_packet.fill(pkt_length=size, **fill))
        bufs = mem.buf_array(send_batch)
        while env.running():
            bufs.alloc(size)
            if random_fields:
                bufs.charge_random_fields(random_fields)
            yield queue.send(bufs)

    return slave


def resolve_plan(faults, seed: int):
    """Turn a plan name into something ``MoonGenEnv(faults=)`` accepts.

    Builtin plan names (``moongen-repro faults --list``) win, seeded with
    ``seed``; anything else (a plan.json path, inline JSON) passes
    through to :func:`repro.faults.load_plan`.  Empty means no plan.
    """
    if not faults:
        return None
    from repro.faults import builtin_plans

    return builtin_plans(seed=seed).get(faults, faults)


# ---------------------------------------------------------------------------
# builders


def quickstart(seed: int, **options) -> LoadgenPair:
    """The Section 5 quickstart: one core saturating a 10 GbE link."""
    pair = loadgen_pair(seed, tx_queues=1, **options)
    pair.env.launch(udp_slave(random_fields=1, eth_dst=str(pair.rx_dev.mac)),
                    pair.env, pair.tx_dev.get_tx_queue(0))
    return pair


def dut_forward(seed: int, rate_pps: float = 1.5e6, frame_size: int = 64,
                cost_noise: bool = False, **options) -> DutTopology:
    """Hardware CBR through the simulated OvS DuT, drained by an rx poller."""
    top = dut_topology(seed, cost_noise=cost_noise, **options)
    env, tx, rx = top.env, top.tx_dev, top.rx_dev
    load_queue = tx.get_tx_queue(0)
    load_queue.set_rate_pps(rate_pps, frame_size)

    def tx_task():
        mem = env.create_mempool()
        bufs = mem.buf_array(32)
        dst = str(rx.mac)
        src = str(tx.mac)
        while env.running():
            bufs.alloc(frame_size - 4)  # buffers exclude the FCS
            for buf in bufs:
                buf.eth_packet.fill(eth_src=src, eth_dst=dst,
                                    eth_type=0x0800)
            yield load_queue.send(bufs)

    def rx_task():
        rx_queue = rx.get_rx_queue(0)
        while env.running():
            rx_queue.try_fetch(64)
            yield env.sleep_us(10.0)

    env.launch(tx_task)
    env.launch(rx_task)
    return top


def load_latency(seed: int, rate_mpps: float = 1.0, mode: str = "hardware",
                 pattern: str = "cbr", probes: int = 200, **options):
    """l2-load-latency through the OvS DuT (Sections 7-8), not yet run.

    Returns ``(topology, experiment)``; run it with
    ``experiment.run(rate_mpps * 1e6, duration_ns, ...)``.  A Poisson
    ``pattern`` always uses CRC-gap rate control.
    """
    from repro.core.latency import LoadLatencyExperiment
    from repro.core.ratecontrol import PoissonPattern

    top = dut_topology(seed, **options)
    traffic = (PoissonPattern(rate_mpps * 1e6, seed=seed)
               if pattern == "poisson" else None)
    experiment = LoadLatencyExperiment(
        top.env, top.tx_dev, top.rx_dev,
        mode=mode if traffic is None else "crc", pattern=traffic,
        n_probes=probes, probe_interval_ns=50_000.0,
    )
    return top, experiment


def trace_load_latency(seed: int = 11, cost_noise: bool = False,
                       **options) -> DutTopology:
    """A small ``l2_load_latency`` run: CBR load + latency probes via a DuT.

    One queue sends 24 64 B frames paced by hardware CBR through the
    OvS forwarder; a second queue sends two timestamped PTP probes.
    About 25 us of simulated time, a few hundred trace records.
    """
    from repro.core.timestamping import Timestamper

    top = dut_topology(seed, cost_noise=cost_noise, **options)
    env, tx, rx = top.env, top.tx_dev, top.rx_dev
    load_queue = tx.get_tx_queue(0)
    load_queue.set_rate_pps(1e6, MIN_FRAME_SIZE)

    def load_slave(env, queue, dst_mac):
        mem = env.create_mempool(
            fill=lambda buf: buf.eth_packet.fill(
                eth_src="02:00:00:00:00:00", eth_dst=dst_mac, eth_type=0x0800
            ),
        )
        bufs = mem.buf_array(8)
        for _ in range(3):
            bufs.alloc(MIN_FRAME_SIZE - 4)
            yield queue.send(bufs)

    env.launch(load_slave, env, load_queue, rx.mac)
    ts = Timestamper(env, tx.get_tx_queue(1), rx, seed=seed)
    env.launch(ts.probe_task, 2, 10_000.0)
    return top


def trace_poisson(seed: int = 11, cost_noise: bool = False,
                  **options) -> LoadgenPair:
    """A software-paced Poisson stream between two cabled ports.

    A coroutine draws exponential gaps from the seeded ``PoissonPattern``
    stream and enqueues one 60 B frame per departure (15 frames).
    """
    from repro.core.ratecontrol import PoissonPattern
    from repro.nicsim.nic import SimFrame

    pair = loadgen_pair(seed, tx_queues=1, cost_noise=cost_noise, **options)
    queue = pair.tx_dev.port.get_tx_queue(0)
    pattern = PoissonPattern(pps=2e6, seed=seed)
    payload = bytes(range(60))

    def poisson_source():
        for gap_ns in itertools.islice(pattern.iter_gaps_ns(), 15):
            yield max(1, round(gap_ns * 1000))
            queue.enqueue([SimFrame(payload)])

    pair.env.loop.spawn(poisson_source(), name="poisson-source")
    return pair


def trace_faults(seed: int = 11, cost_noise: bool = False,
                 **options) -> LoadgenPair:
    """Paced frames over a wire under a tiny fault plan.

    A Gilbert-Elliott loss burst, a CRC corruption window, a clock step
    and a link flap all land inside ~30 us, so the golden trace pins
    every ``fault.*`` record kind and the ``wire``/``drop`` records they
    cause.
    """
    from repro.faults import (
        BurstLoss,
        ClockStep,
        CorruptionBurst,
        FaultPlan,
        LinkFlap,
    )
    from repro.nicsim.nic import SimFrame

    plan = FaultPlan(faults=(
        BurstLoss(target="wire:0->1", start_ns=2_000.0, end_ns=14_000.0,
                  p_good_bad=0.2, p_bad_good=0.2, loss_bad=0.8),
        CorruptionBurst(target="wire:0->1", start_ns=16_000.0,
                        end_ns=24_000.0, rate=0.5),
        ClockStep(target="port:1", at_ns=20_000.0, step_ns=250.0),
        LinkFlap(target="port:1", start_ns=26_000.0, end_ns=30_000.0),
    ), seed=seed)
    pair = loadgen_pair(seed, tx_queues=1, cost_noise=cost_noise,
                        faults=plan, **options)
    queue = pair.tx_dev.port.get_tx_queue(0)
    payload = bytes(range(60))

    def cbr_source():
        for _ in range(28):
            yield 1_100_000  # 1.1 us between frames, in ps
            queue.enqueue([SimFrame(payload)])

    pair.env.loop.spawn(cbr_source(), name="cbr-source")
    return pair


#: Named builders: the three golden traces, then the ``metrics`` and
#: ``profile`` topologies.
SCENARIOS: Dict[str, Callable[..., Any]] = {
    "load-latency": trace_load_latency,
    "poisson": trace_poisson,
    "faults": trace_faults,
    "quickstart": quickstart,
    "dut-forward": dut_forward,
}

#: Golden trace file per traced scenario, under ``tests/golden/``.
GOLDEN: Dict[str, str] = {
    "load-latency": "load_latency_cbr.jsonl",
    "poisson": "poisson.jsonl",
    "faults": "faults_chaos.jsonl",
}


def run_trace(name: str, seed: int = 11,
              categories: Optional[Iterable[str]] = None) -> str:
    """Run a golden-trace scenario to completion; returns its JSONL trace."""
    if name not in GOLDEN:
        raise ConfigurationError(
            f"unknown trace scenario {name!r}; valid: {sorted(GOLDEN)}")
    top = SCENARIOS[name](
        seed, trace=tuple(categories) if categories else GOLDEN_CATEGORIES)
    top.env.wait_for_slaves()
    return top.env.tracer.to_jsonl()


def write_golden(directory: str, seed: int = 11) -> Dict[str, str]:
    """(Re)generate the committed golden traces; returns {name: path}."""
    os.makedirs(directory, exist_ok=True)
    written = {}
    for name, filename in GOLDEN.items():
        path = os.path.join(directory, filename)
        with open(path, "w", newline="\n") as fh:
            fh.write(run_trace(name, seed))
        written[name] = path
    return written


# ---------------------------------------------------------------------------
# the chaos scenario


def chaos(plan, seed: int = 0, rate_pps: float = 1.5e6, frame_size: int = 64,
          cost_noise: bool = False, **options):
    """The canonical chaos scenario under ``plan``, built but not run.

    Port 0 sends CBR traffic with sequence numbers to port 1, through
    the OvS DuT when any fault targets ``dut``, with a sequence tracker,
    a stats monitor and, when ``options`` enable metrics, a 1 ms
    snapshotter.  Plans target ``port:0`` / ``port:1``, ``wire:0->1``
    (direct wiring), or ``wire:0->sink`` / ``wire:env->1`` and ``dut``.

    Returns ``(topology, report)``: run ``topology.env`` (for example
    ``wait_for_slaves(duration_ns=...)``), then ``report()`` gives the
    result dict and its ``fingerprint``.  With metrics on it also holds
    ``metrics_fingerprint`` (the snapshot series); with ``dataplane``
    on, ``latency_fingerprint``.
    """
    from repro.core.monitor import DeviceStatsMonitor
    from repro.core.seqcheck import SequenceStamper, SequenceTracker
    from repro.faults import DutOverload, load_plan
    from repro.metrics.manifest import stable_hash

    plan = load_plan(plan)
    if any(isinstance(f, DutOverload) for f in plan.faults):
        top = dut_topology(seed, cost_noise=cost_noise, faults=plan,
                           **options)
        wire = top.env.wires["0->sink"]
    else:
        top = loadgen_pair(seed, cost_noise=cost_noise, faults=plan,
                           **options)
        wire = top.env.wires["0->1"]
    env, tx_dev, rx_dev = top.env, top.tx_dev, top.rx_dev

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
    if env.metrics is not None:
        snapshotter = env.start_snapshotter(interval_ns=1_000_000.0)
    env.launch(tx_task)
    env.launch(rx_task)
    env.launch(monitor.task)

    def report() -> Dict[str, Any]:
        seq = tracker.report
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
            "seq_received": seq.received,
            "seq_lost": seq.lost,
            "seq_reordered": seq.reordered,
            "seq_duplicates": seq.duplicates,
            "seq_gap_events": seq.gap_events,
            "seq_longest_gap": seq.longest_gap,
            "loss_fraction": round(seq.loss_fraction, 9),
            "rx_link_changes": rx_dev.port.link_changes,
            "monitor_samples": monitor.samples,
            "monitor_gaps": len(monitor.gaps),
            "faults_injected": env.injector.injected,
            # Clock faults (step/drift) land here: the rx clock's final
            # reading diverges from simulation time by the injected error.
            "rx_clock_ns": round(rx_dev.port.clock.read_ns(), 3),
        }
        if isinstance(top, DutTopology):
            result["dut_forwarded"] = top.dut.forwarded
            result["dut_rx_dropped"] = top.dut.rx_dropped
        if snapshotter is not None:
            snapshotter.finalize()
            # ``loop.*`` (scheduler and batch-tier work) is left out, so
            # this holds across serial/sharded and batch/event runs.
            result["metrics_fingerprint"] = snapshotter.series.fingerprint()
        if env.dataplane is not None:
            result["latency_fingerprint"] = env.dataplane.fingerprint()
        result["fingerprint"] = stable_hash(result)
        return result

    return top, report


def run_plan(plan, seed: int = 0, duration_ns: float = 8_000_000.0,
             **options) -> Dict[str, Any]:
    """One chaos run under ``plan`` (see :func:`chaos`); its result dict.

    Two runs of the same ``(plan, seed)`` give byte-identical
    fingerprints whatever the sharding and execution mode.
    """
    top, report = chaos(plan, seed, **options)
    top.env.wait_for_slaves(duration_ns=duration_ns)
    return report()


def chaos_point(point, seed: int) -> Dict[str, Any]:
    """Experiment fn of the chaos matrix: ``point`` is ``(plan, scenario
    seed, plan seed)``.

    The plan is a builtin name (rebuilt with the point's plan seed) or a
    path to a plan.json (whose stored seed wins).  The engine-derived
    seed is ignored: both seeds travel in the point, so the matrix
    reproduces single-run invocations exactly.
    """
    from repro.faults import builtin_plans

    name, scenario_seed, plan_seed = point
    plans = builtin_plans(seed=plan_seed)
    if name not in plans and not (name.lstrip().startswith("{")
                                  or os.path.exists(name)):
        raise ConfigurationError(
            f"unknown fault plan {name!r}: not a builtin "
            f"({sorted(plans)}) and not a readable plan file")
    result = run_plan(plans.get(name, name), seed=scenario_seed, metrics=True)
    result["plan"] = name
    return result


def run_matrix(plan_names, seed: int = 0, plan_seed: Optional[int] = None,
               jobs: int = 1, **supervision) -> Dict[str, Dict[str, Any]]:
    """Run several plans through :func:`chaos_point`, sharded over ``jobs``.

    Returns ``{plan_name: result_dict}``, bit-identical for any ``jobs``.
    ``supervision`` (``progress``, ``journal``, ``supervise``,
    ``report``) goes to :func:`repro.parallel.run_parallel`
    (docs/RESILIENCE.md); a quarantined plan comes back as
    ``{"plan": name, "poisoned": True, ...}``.
    """
    from repro.parallel import run_parallel

    plan_seed = seed if plan_seed is None else plan_seed
    points = [(str(name), int(seed), int(plan_seed)) for name in plan_names]
    results = run_parallel(points, chaos_point, jobs=jobs, root_seed=seed,
                           **supervision)
    return {point[0]: (result if isinstance(result, dict)
                       else {"plan": point[0], **result.to_dict()})
            for point, result in zip(points, results)}


def load_latency_replica(point, seed: int) -> str:
    """Experiment fn: one load-latency run with metrics and dataplane on;
    returns its latency fingerprint (the ``load-latency --jobs`` check).

    The engine-derived seed is ignored: the user's seed rides in the
    point, so every replica is the in-process run.
    """
    top, experiment = load_latency(
        point["seed"], point["rate"], point["mode"], point["pattern"],
        point["probes"], faults=resolve_plan(point["faults"], point["seed"]),
        metrics=True, dataplane=True, batch=point["batch"])
    experiment.run(point["rate"] * 1e6, duration_ns=point["duration_ms"] * 1e6,
                   dut_crc_counter=lambda: top.dut.rx_crc_errors)
    return top.env.dataplane.fingerprint()


# ---------------------------------------------------------------------------
# sweeps: experiment fns seeded from the engine's per-point seed, so a
# sweep's output is a pure function of (sweep, root seed)

#: ``MoonGenEnv(seed=...)`` and the generator models take 32-bit-ish
#: seeds; fold the 63-bit engine seed down without losing determinism.
_ENV_SEED_MASK = (1 << 31) - 1


def _env_seed(seed: int) -> int:
    return (seed & _ENV_SEED_MASK) or 1


def fig2_point(n_cores: int, seed: int) -> float:
    """Aggregate Mpps for ``n_cores`` heavy-randomization cores.

    Two tx ports with one queue per core, each port feeding its own
    sink (ports 2 and 3): no testbed builder has this wiring.
    """
    from repro import MoonGenEnv

    def heavy_slave(env, queues):
        mem = env.create_mempool(
            fill=lambda b: b.udp_packet.fill(pkt_length=60))
        arrays = [mem.buf_array() for _ in queues]
        while env.running():
            for queue, bufs in zip(queues, arrays):
                bufs.alloc(60)
                bufs.charge_random_fields(8)
                bufs.offload_ip_checksums()
                yield queue.send(bufs)

    env = MoonGenEnv(seed=_env_seed(seed), core_freq_hz=1.2e9)
    ports = [env.config_device(i, tx_queues=n_cores) for i in (0, 1)]
    sinks = [env.config_device(i + 2, rx_queues=1) for i in (0, 1)]
    for port, sink in zip(ports, sinks):
        env.connect(port, sink)
    for core in range(n_cores):
        env.launch(heavy_slave, env, [p.get_tx_queue(core) for p in ports])
    env.wait_for_slaves(duration_ns=300_000)
    return sum(p.tx_packets for p in ports) / (env.now_ns / 1e9) / 1e6


def fig4_point(n_cores: int, seed: int) -> float:
    """Aggregate Mpps with one 2 GHz core per 10 GbE port."""
    fleet = port_fleet(n_cores, seed=_env_seed(seed), core_freq_hz=2.0e9)
    slave = udp_slave(random_fields=1)
    for tx in fleet.tx_devs:
        fleet.env.launch(slave, fleet.env, tx.get_tx_queue(0))
    fleet.env.wait_for_slaves(duration_ns=120_000)
    return fleet.total_tx_packets / (fleet.env.now_ns / 1e9) / 1e6


def sec57_point(frame_size: int, seed: int) -> float:
    """Transmit cycles per packet at one frame size (Section 5.7)."""
    pair = loadgen_pair(_env_seed(seed), tx_queues=1, core_freq_hz=2.4e9)
    task = pair.env.launch(udp_slave(size=frame_size - 4), pair.env,
                           pair.tx_dev.get_tx_queue(0))
    pair.env.wait_for_slaves(duration_ns=150_000)
    return task.core.busy_cycles / pair.tx_dev.tx_packets


def rfc2544_point(frame_size: int, seed: int) -> float:
    """RFC 2544 zero-loss throughput (Mpps) at one frame size."""
    from repro import units
    from repro.analysis.rfc2544 import default_loss_probe, throughput_test

    line = units.line_rate_pps(frame_size, units.SPEED_10G)
    result = throughput_test(
        default_loss_probe(frame_size=frame_size, seed=_env_seed(seed)),
        line, frame_size=frame_size, resolution=0.02,
    )
    return result.throughput_mpps


#: ``moongen-repro sweep`` entries: experiment fn, default points, and
#: the table's headers and value format.
SWEEPS: Dict[str, Dict[str, Any]] = {
    "fig2-cores": dict(
        description="Figure 2: heavy script, aggregate Mpps vs cores "
                    "(1.2 GHz, 2x10GbE)",
        fn=fig2_point, points=tuple(range(1, 9)),
        headers=("cores", "Mpps"), fmt="{:.2f}"),
    "fig4-cores": dict(
        description="Figure 4: one core per 10 GbE port, aggregate "
                    "Mpps vs cores (2 GHz)",
        fn=fig4_point, points=(1, 2, 4, 8, 12),
        headers=("cores", "Mpps"), fmt="{:.2f}"),
    "sec57-sizes": dict(
        description="Section 5.7: tx cycles/packet vs frame size",
        fn=sec57_point, points=(64, 72, 80, 88, 96, 104, 112, 120, 128),
        headers=("size [B]", "cycles/pkt"), fmt="{:.1f}"),
    "rfc2544": dict(
        description="RFC 2544 zero-loss throughput vs frame size "
                    "(simulated OvS DuT)",
        fn=rfc2544_point, points=(64, 128, 256, 512, 1024, 1280, 1518),
        headers=("size [B]", "zero-loss Mpps"), fmt="{:.2f}"),
}


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    import argparse

    parser = argparse.ArgumentParser(
        description="Regenerate the committed golden traces.")
    parser.add_argument("--write-golden", metavar="DIR", required=True,
                        help="write the golden traces into DIR")
    parser.add_argument("--seed", type=int, default=11)
    parsed = parser.parse_args()
    for name, path in write_golden(parsed.write_golden, parsed.seed).items():
        print(f"{name}: {path}")
