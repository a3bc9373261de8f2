"""High-level load + latency experiment orchestration.

Packages the structure of ``l2-load-latency.lua`` — the script behind most
of the paper's evaluation (Section 9) — as a reusable API: a load task on
one queue (hardware CBR or CRC-gap software rate control), a timestamping
task on a second queue, both running through an arbitrary device under
test, with the latency histogram and throughput counters collected at the
end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro import units
from repro.core.histogram import Histogram
from repro.core.ratecontrol import GapFiller, TrafficPattern
from repro.core.timestamping import Timestamper
from repro.errors import ConfigurationError


@dataclass
class LoadLatencyResult:
    """Everything an l2-load-latency run produces."""

    offered_pps: float
    tx_packets: int
    rx_packets: int
    duration_ns: float
    latency: Histogram
    lost_probes: int
    dut_crc_drops: int = 0
    #: Fraction of sent probes that produced a latency sample (see
    #: :attr:`Timestamper.confidence`); below ~0.9 the histogram
    #: under-represents the probe stream and percentiles carry a caveat.
    probe_confidence: float = 1.0

    @property
    def achieved_pps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.tx_packets / (self.duration_ns / 1e9)


class LoadLatencyExperiment:
    """Runs a load+latency measurement through a DuT.

    ``mode`` selects the rate control mechanism:

    * ``"hardware"`` — per-queue CBR on the NIC (Section 7.2),
    * ``"crc"`` — the Section 8 gap-filling software rate control; this
      mode accepts any :class:`TrafficPattern` via ``pattern``.
    """

    def __init__(
        self,
        env,
        tx_device,
        rx_device,
        mode: str = "hardware",
        pattern: Optional[TrafficPattern] = None,
        frame_size: int = units.MIN_FRAME_SIZE,
        craft: Optional[Callable] = None,
        probe_interval_ns: float = 100_000.0,
        n_probes: int = 200,
    ) -> None:
        if mode not in ("hardware", "crc"):
            raise ConfigurationError(f"unknown rate-control mode: {mode!r}")
        if mode == "crc" and pattern is None:
            raise ConfigurationError("crc mode needs a traffic pattern")
        if len(tx_device._tx_queues) < 2:
            raise ConfigurationError(
                "the tx device needs two queues: load + timestamping "
                "(Section 6.4)"
            )
        self.env = env
        self.tx_device = tx_device
        self.rx_device = rx_device
        self.mode = mode
        self.pattern = pattern
        self.frame_size = frame_size
        self.craft = craft or self._default_craft
        self.probe_interval_ns = probe_interval_ns
        self.n_probes = n_probes
        self.timestamper = Timestamper(
            env, tx_device.get_tx_queue(1), rx_device,
        )

    def _default_craft(self, buf, index: int) -> None:
        buf.eth_packet.fill(
            eth_src=self.tx_device.mac, eth_dst=self.rx_device.mac,
            eth_type=0x0800,
        )

    def _hardware_load_task(self, pps: float):
        env = self.env
        queue = self.tx_device.get_tx_queue(0)
        queue.set_rate_pps(pps, self.frame_size)
        mem = env.create_mempool()
        bufs = mem.buf_array()
        index = 0
        while env.running():
            bufs.alloc(self.frame_size - units.FCS_SIZE)
            for buf in bufs:
                self.craft(buf, index)
                index += 1
            bufs.charge_modify(1)
            yield queue.send(bufs)

    def run(self, pps: float, duration_ns: float,
            dut_crc_counter: Optional[Callable[[], int]] = None) -> LoadLatencyResult:
        """Run the experiment for a simulated duration and collect results."""
        env = self.env
        if self.mode == "hardware":
            env.launch(self._hardware_load_task, pps)
        else:
            filler = GapFiller(frame_size=self.frame_size,
                               speed_bps=self.tx_device.port.speed_bps)
            n_packets = int(pps * duration_ns / 1e9) + 1
            env.launch(
                filler.load_task, env, self.tx_device.get_tx_queue(0),
                self.pattern, n_packets, self.craft,
            )
        env.launch(
            self.timestamper.probe_task, self.n_probes, self.probe_interval_ns
        )
        env.wait_for_slaves(duration_ns=duration_ns)
        return LoadLatencyResult(
            offered_pps=pps,
            tx_packets=self.tx_device.tx_packets,
            rx_packets=self.rx_device.rx_packets,
            duration_ns=env.now_ns,
            latency=self.timestamper.histogram,
            lost_probes=self.timestamper.lost_probes,
            dut_crc_drops=dut_crc_counter() if dut_crc_counter else 0,
            probe_confidence=self.timestamper.confidence,
        )
