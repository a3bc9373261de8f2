"""The ledger's five workloads: paper reproductions in the default program.

Each workload is one closed, fixed simulated job.  :func:`make_inputs`
derives everything seed-dependent from the seed, :func:`build` sets the
job up (that is the ``setup_s`` region) and returns a callable that runs
it (the ``wall_s`` region) and returns an :class:`Outcome`.  :func:`check`
and :func:`check_observed` decide whether the simulated output is right,
so a faster but wrong simulator counts as failed.

This module imports ``repro`` only inside :func:`build`, so ``run.py``
can use the names and checks without importing the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable, Dict, List, NamedTuple

#: Workload names, in the order ``run.py`` interleaves them.
WORKLOADS = (
    "tx64_line_rate",
    "tx64_observed",
    "dut_cbr_latency",
    "dut_poisson_crc",
    "rfc2544_sweep",
)

#: Every simulated duration, probe count and RFC 2544 trial length is
#: multiplied by this one factor, so the five jobs shrink evenly.  At 1.0
#: they are the sizes of the paper scripts (60 ms / 150 ms / 80 ms
#: simulated, 40 ms trials); 0.8 keeps each job near 4-6 s of host time on
#: a 2-core x86 host so that three or more fit in one measured run.
SCALE = 0.8

LINE_RATE_64B_PPS = 10e9 / (84 * 8)  # 14.88 Mpps


class Outcome(NamedTuple):
    """What one job produced."""

    #: Frames the simulator moved: tx frames including CRC-gap fillers on
    #: the event-driven workloads, packets pushed through the DuT fastpath
    #: on ``rfc2544_sweep``.
    frames: int
    #: Simulated outputs and model counters.  Deterministic for a seed;
    #: their hash is the run's fingerprint.
    sim: Dict[str, Any]


def make_inputs(name: str, seed: int, scale: float = SCALE) -> Dict[str, Any]:
    """The generated inputs of one workload; the same seed gives the same
    inputs.  ``tx64_observed`` shares ``tx64_line_rate``'s inputs so the
    two runs of one seed simulate the same traffic."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    family = "tx64" if name.startswith("tx64") else name
    rng = random.Random(f"{family}:{seed}")
    inputs: Dict[str, Any] = {"env_seed": rng.randrange(1 << 31)}
    if family == "tx64":
        inputs.update(
            duration_ns=60e6 * scale,
            eth_src=f"02:00:00:00:{rng.randrange(256):02x}:{rng.randrange(256):02x}",
            ip_src=f"10.{rng.randrange(256)}.{rng.randrange(256)}.1",
            ip_dst=f"192.168.{rng.randrange(256)}.1",
            udp_src=rng.randrange(1024, 65536),
            udp_dst=rng.randrange(1024, 65536),
        )
    elif name == "dut_cbr_latency":
        inputs.update(pps=1.5e6, duration_ns=150e6 * scale,
                      n_probes=round(1000 * scale), probe_interval_ns=100e3)
    elif name == "dut_poisson_crc":
        inputs.update(pps=1.0e6, duration_ns=80e6 * scale,
                      n_probes=round(600 * scale), probe_interval_ns=100e3,
                      pattern_seed=rng.randrange(1 << 31))
    else:
        inputs.update(frame_sizes=[64, 128, 256, 512, 1518], resolution=0.01,
                      trial_s=0.04 * scale, probe_seed=rng.randrange(1 << 31))
    return inputs


def build(name: str, inputs: Dict[str, Any]) -> Callable[[], Outcome]:
    """Set up one job and return the callable that runs it."""
    return _BUILDERS[name](inputs)


# -- the jobs ------------------------------------------------------------------


def _tx64(inputs, observed: bool):
    """The quickstart / Section 5.2 script: one core saturating 10 GbE
    with 64 B UDP frames, one random field charged per packet, the
    packets pre-filled once per mempool buffer (per-batch craft)."""
    from repro import MoonGenEnv

    env = MoonGenEnv(seed=inputs["env_seed"], metrics=observed or None,
                     dataplane=observed or None)
    tx = env.config_device(0, tx_queues=1)
    rx = env.config_device(1, rx_queues=1)
    env.connect(tx, rx)
    fill = dict(pkt_length=60, eth_src=inputs["eth_src"], eth_dst=str(rx.mac),
                ip_src=inputs["ip_src"], ip_dst=inputs["ip_dst"],
                udp_src=inputs["udp_src"], udp_dst=inputs["udp_dst"])

    def load_slave(env, queue):
        mem = env.create_mempool(fill=lambda buf: buf.udp_packet.fill(**fill))
        bufs = mem.buf_array()
        while env.running():
            bufs.alloc(60)
            bufs.charge_random_fields(1)
            yield queue.send(bufs)

    env.launch(load_slave, env, tx.get_tx_queue(0))
    duration_ns = inputs["duration_ns"]
    snapshotter = env.start_snapshotter(duration_ns / 20) if observed else None

    def run() -> Outcome:
        env.wait_for_slaves(duration_ns=duration_ns)
        sim = _env_counters(env)
        sim.update(tx=tx.tx_packets, rx=rx.rx_packets, rx_missed=rx.rx_missed,
                   sim_rate_pps=tx.tx_packets / (env.loop.now_ps / 1e12))
        if observed:
            hists = env.dataplane.histograms
            sim.update(
                snapshots=snapshotter.samples,
                series_fp=snapshotter.series.fingerprint(
                    exclude_prefixes=("loop.",)),
                latency_fp=env.dataplane.fingerprint(),
                e2e_total=hists["latency.e2e.0->1"].total,
                interarrival_total=hists["interarrival.port1.rx"].total,
            )
        return Outcome(tx.tx_packets, sim)

    return run


def _dut(inputs, crc: bool):
    """l2-load-latency through the event-driven OvS DuT: hardware CBR, or
    a Poisson pattern through CRC-gap software pacing."""
    from repro.core.latency import LoadLatencyExperiment
    from repro.core.ratecontrol import PoissonPattern
    from repro.testbed import dut_topology

    top = dut_topology(seed=inputs["env_seed"])
    env, tx_dev, rx_dev, dut = top.env, top.tx_dev, top.rx_dev, top.dut
    valid = [0]
    src, dst = str(tx_dev.mac), str(rx_dev.mac)

    def craft(buf, index):
        # The experiment's default per-packet craft, counted.
        valid[0] += 1
        buf.eth_packet.fill(eth_src=src, eth_dst=dst, eth_type=0x0800)

    exp = LoadLatencyExperiment(
        env, tx_dev, rx_dev, mode="crc" if crc else "hardware",
        pattern=(PoissonPattern(inputs["pps"], seed=inputs["pattern_seed"])
                 if crc else None),
        craft=craft, n_probes=inputs["n_probes"],
        probe_interval_ns=inputs["probe_interval_ns"])
    duration_ns = inputs["duration_ns"]

    def run() -> Outcome:
        result = exp.run(inputs["pps"], duration_ns)
        ts = exp.timestamper
        sim = _env_counters(env, dut)
        sim.update(
            tx=tx_dev.tx_packets, rx=rx_dev.rx_packets, valid_sent=valid[0],
            fillers_sent=tx_dev.tx_packets - valid[0] - ts.attempted,
            forwarded=dut.forwarded, probes=ts.attempted,
            lost_probes=ts.lost_probes, latency_samples=len(result.latency),
            latency_quartiles_ns=(list(result.latency.quartiles())
                                  if len(result.latency) else None),
            valid_rate_pps=valid[0] / (duration_ns / 1e9),
        )
        return Outcome(tx_dev.tx_packets, sim)

    return run


def _rfc2544(inputs):
    """RFC 2544 throughput searches over five frame sizes, the DuT run
    by the vectorized fastpath (no event loop)."""
    from repro.analysis.rfc2544 import throughput_sweep

    sizes = tuple(inputs["frame_sizes"])
    trial_s = inputs["trial_s"]

    def run() -> Outcome:
        results = throughput_sweep(
            frame_sizes=sizes, resolution=inputs["resolution"],
            seed=inputs["probe_seed"], duration_s=trial_s, jobs=1)
        # default_loss_probe pushes max(int(pps * duration), 100) packets.
        packets = sum(max(int(t.offered_pps * trial_s), 100)
                      for r in results for t in r.trials)
        sim = {
            "throughput_pps": {str(r.frame_size): r.throughput_pps
                               for r in results},
            "trials": [[r.frame_size, t.offered_pps, t.loss_fraction]
                       for r in results for t in r.trials],
            "fastpath_packets": packets,
        }
        return Outcome(packets, sim)

    return run


def _env_counters(env, dut=None) -> Dict[str, Any]:
    """Model counters every event-driven workload reports."""
    ports = [dev.port for dev in env.devices.values()]
    wires = [port.wire for port in ports if port.wire is not None]
    if dut is not None and dut.output is not None:
        wires.append(dut.output)
    loop = env.loop
    tier = loop.batch
    # The bytes the receivers hold at the end: packet contents count too.
    rx_digest = hashlib.blake2b(digest_size=8)
    for port in ports:
        for queue in port.rx_queues:
            for frame in queue.ring:
                rx_digest.update(frame.data)
    sim: Dict[str, Any] = {
        "rx_ring_digest": rx_digest.hexdigest(),
        "now_ps": loop.now_ps,
        "events": loop.events_processed,
        "lane_events": loop.lane_events_processed,
        "nic_tx_frames": sum(p.tx_packets for p in ports),
        "nic_rx_frames": sum(p.rx_packets for p in ports),
        "nic_drops": sum(p.rx_missed + p.rx_crc_errors for p in ports),
        "nic_receive_calls": sum(p.rx_packets + p.rx_crc_errors
                                 for p in ports),
        "link_frames": sum(w.frames_sent for w in wires),
        # The generator's own wire: the one CRC-gap fillers travel on.
        "gen_wire_frames": ports[0].wire.frames_sent,
        "batch": tier.stats() if tier is not None else None,
    }
    if dut is not None:
        sim.update(dut_arrivals=dut.rx_packets + dut.rx_dropped
                   + dut.rx_crc_errors,
                   dut_interrupts=dut.interrupts, dut_dropped=dut.rx_dropped,
                   dut_crc_drops=dut.rx_crc_errors)
    if env.dataplane is not None:
        sim["observations"] = sum(h.total for h in
                                  env.dataplane.histograms.values())
    return sim


_BUILDERS = {
    "tx64_line_rate": lambda inputs: _tx64(inputs, observed=False),
    "tx64_observed": lambda inputs: _tx64(inputs, observed=True),
    "dut_cbr_latency": lambda inputs: _dut(inputs, crc=False),
    "dut_poisson_crc": lambda inputs: _dut(inputs, crc=True),
    "rfc2544_sweep": _rfc2544,
}


# -- output checks -------------------------------------------------------------


def fingerprint(sim: Dict[str, Any]) -> str:
    """Short BLAKE2b hash of the canonical JSON of a job's simulated output."""
    text = json.dumps(sim, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _off_by(value: float, target: float, rel: float) -> bool:
    return abs(value - target) > rel * target


def check(name: str, sim: Dict[str, Any]) -> List[str]:
    """Why a job's simulated output is wrong; empty when it is right."""
    bad: List[str] = []
    if name.startswith("tx64"):
        if sim["rx"] != sim["tx"]:
            bad.append(f"rx {sim['rx']} != tx {sim['tx']} at drain")
        if _off_by(sim["sim_rate_pps"], LINE_RATE_64B_PPS, 0.001):
            bad.append(f"simulated rate {sim['sim_rate_pps']:.0f} pps is not "
                       f"14.88 Mpps within 0.1 %")
    if name == "tx64_observed":
        if sim["e2e_total"] != sim["rx"]:
            bad.append(f"latency.e2e.0->1 total {sim['e2e_total']} != "
                       f"rx {sim['rx']}")
        if sim["interarrival_total"] != sim["rx"] - 1:
            bad.append(f"interarrival total {sim['interarrival_total']} != "
                       f"rx - 1 = {sim['rx'] - 1}")
    if name == "dut_cbr_latency":
        if sim["forwarded"] != sim["tx"]:
            bad.append(f"DuT forwarded {sim['forwarded']} != tx {sim['tx']}")
        if sim["dut_dropped"] > 0:
            bad.append(f"DuT dropped {sim['dut_dropped']} frames")
        if sim["lost_probes"] > 0:
            bad.append(f"{sim['lost_probes']} probes lost")
        quartiles = sim["latency_quartiles_ns"]
        if quartiles is None or not 15e3 <= quartiles[1] <= 20e3:
            bad.append(f"probe median {quartiles and quartiles[1]} ns is "
                       f"outside the 15-20 us CBR band")
    if name == "dut_poisson_crc":
        if sim["dut_crc_drops"] != sim["fillers_sent"]:
            bad.append(f"DuT CRC drops {sim['dut_crc_drops']} != fillers "
                       f"sent {sim['fillers_sent']}")
        if _off_by(sim["valid_rate_pps"], 1.0e6, 0.02):
            bad.append(f"valid rate {sim['valid_rate_pps']:.0f} pps is not "
                       f"1.0 Mpps within 2 %")
    if name == "rfc2544_sweep":
        tput = sim["throughput_pps"]
        if _off_by(tput["64"], 1.93e6, 0.07):
            bad.append(f"64 B throughput {tput['64']:.0f} pps is not "
                       f"1.93 Mpps within 7 %")
        line_1518 = 10e9 / ((1518 + 20) * 8)
        if _off_by(tput["1518"], line_1518, 0.02):
            bad.append(f"1518 B throughput {tput['1518']:.0f} pps is not "
                       f"line rate within 2 %")
    return bad


def check_observed(observed: Dict[str, Any],
                   reference: Dict[str, Any]) -> List[str]:
    """Observers must not perturb the simulation: ``tx64_observed`` moves
    exactly the frames ``tx64_line_rate`` moves for the same seed."""
    return [f"tx64_observed {key} {observed[key]} != tx64_line_rate "
            f"{reference[key]}"
            for key in ("tx", "rx", "now_ps")
            if observed[key] != reference[key]]
