"""Event-driven Open-vSwitch-like forwarder.

Plugs into the NIC simulation as a wire sink: frames arrive from the load
generator's wire, pass the DuT NIC's CRC check (invalid CRC-gap fillers are
dropped in hardware and only counted), queue in the rx ring, and are
forwarded by a single-core software switch with NAPI/ITR semantics onto the
output wire.

This component is for integration tests and examples; benches over millions
of packets use :mod:`repro.dut.fastpath`, which implements identical
semantics without per-packet event scheduling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.dut.fastpath import (
    DEFAULT_PIPELINE_NS,
    DEFAULT_RING_SIZE,
    DEFAULT_SERVICE_NS,
)
from repro.dut.interrupts import InterruptModerator, ItrConfig
from repro.nicsim.eventloop import EventLoop
from repro.nicsim.link import Wire
from repro.nicsim.nic import SimFrame


@dataclass
class DutConfig:
    """Forwarder parameters; defaults match the paper's OvS DuT."""

    service_ns: float = DEFAULT_SERVICE_NS
    ring_size: int = DEFAULT_RING_SIZE
    pipeline_ns: float = DEFAULT_PIPELINE_NS
    itr: ItrConfig = field(default_factory=ItrConfig)


class OvsForwarder:
    """A single-core software forwarder with interrupt moderation."""

    def __init__(self, loop: EventLoop, config: Optional[DutConfig] = None) -> None:
        self.loop = loop
        self.config = config or DutConfig()
        self.moderator = InterruptModerator(self.config.itr)
        self.ring: Deque[SimFrame] = deque()
        self.output: Optional[Wire] = None
        self._busy = False
        self._interrupt_scheduled = False
        # Counters.
        self.rx_crc_errors = 0
        self.rx_packets = 0
        self.rx_dropped = 0
        self.forwarded = 0
        self._start_ps: Optional[int] = None
        self._last_activity_ps = 0
        #: Fault injection (``repro.faults``): multiplies the per-packet
        #: service time — a saturated forwarder (>1.0) drains slower, so
        #: its rx ring fills and ``rx_dropped`` climbs.
        self.overload = 1.0
        #: In-dataplane ring-residence histogram
        #: (``latency.hop.dut.ring``), attached by
        #: :meth:`repro.metrics.dataplane.DataplaneObserver.attach_dut`.
        self.dp_ring = None

    def set_overload(self, factor: float) -> None:
        """Scale the per-packet service time (DuT overload fault)."""
        self.overload = factor

    def register_metrics(self, registry) -> None:
        """Publish forwarder state under ``dut.*`` (pull-based)."""
        rx = registry.counter("dut.rx.packets", lambda: self.rx_packets,
                              help="frames accepted into the DuT ring")
        fwd = registry.counter("dut.forwarded", lambda: self.forwarded,
                               help="frames forwarded out the egress wire")
        registry.rate("dut.rx.pps", rx)
        registry.rate("dut.forwarded.pps", fwd)
        registry.gauge("dut.ring.depth", lambda: len(self.ring),
                       help="frames queued in the forwarder ring")
        registry.counter("dut.rx.dropped", lambda: self.rx_dropped,
                         help="frames dropped on ring overflow")
        registry.counter("dut.rx.crc_errors", lambda: self.rx_crc_errors)
        registry.counter("dut.interrupts",
                         lambda: self.moderator.interrupts,
                         help="interrupts fired (after moderation)")
        registry.gauge("dut.overload", lambda: self.overload,
                       help="service-time multiplier (1.0 = nominal)")

    def connect_output(self, wire: Wire) -> None:
        """Attach the wire the forwarder transmits onto."""
        self.output = wire

    # -- ingress (wire sink) -------------------------------------------------

    def ingress(self, frame: SimFrame, arrival_ps: int) -> None:
        """Receive a frame from the wire (use as ``wire.connect`` sink).

        Deliberately *unbatchable*: interrupt moderation and the NAPI poll
        loop schedule events relative to the loop's **current** time, so
        every arrival must be its own event for the ITR timing to come out
        right.  The batch tier's run detector recognizes this sink is not
        a plain ``NicPort.receive`` and falls back with reason
        ``sink-unbatchable`` — topologies through the DuT run event-by-
        event on the segment feeding it, bit-identical by construction.
        """
        if self._start_ps is None:
            self._start_ps = arrival_ps
        self._last_activity_ps = arrival_ps
        tracer = self.loop.tracer
        if not frame.fcs_ok:
            # Dropped by the DuT NIC before it reaches any software — the
            # load of invalid packets causes no system activity (Section 8.2).
            self.rx_crc_errors += 1
            if tracer is not None:
                tracer.emit("drop", "dut_drop_fcs",
                            frame=tracer.frame_id(frame), size=frame.size)
            return
        self.moderator.observe_arrival(arrival_ps / 1000.0)
        if len(self.ring) >= self.config.ring_size:
            self.rx_dropped += 1
            if tracer is not None:
                tracer.emit("drop", "dut_drop_ring",
                            frame=tracer.frame_id(frame), size=frame.size)
            return
        frame.meta["dut_arrival_ps"] = arrival_ps
        self.ring.append(frame)
        self.rx_packets += 1
        if not self._busy:
            self._schedule_interrupt()

    # -- interrupt + NAPI machinery -----------------------------------------------

    def _schedule_interrupt(self) -> None:
        if self._interrupt_scheduled or self._busy:
            return
        self._interrupt_scheduled = True
        now_ns = self.loop.now_ps / 1000.0
        fire_ns = max(now_ns, self.moderator.next_allowed_ns())
        self.loop.schedule(round((fire_ns - now_ns) * 1000), self._interrupt)

    def _interrupt(self) -> None:
        self._interrupt_scheduled = False
        if self._busy or not self.ring:
            return
        self.moderator.fire(self.loop.now_ps / 1000.0)
        if self.loop.tracer is not None:
            self.loop.tracer.emit("irq", "dut_irq", n=self.moderator.interrupts,
                                  pending=len(self.ring))
        self._busy = True
        overhead_ps = round(self.config.itr.interrupt_overhead_ns * 1000)
        self.loop.schedule(overhead_ps, self._poll)

    def _poll(self) -> None:
        """NAPI poll: process one packet, then re-poll or go idle."""
        if not self.ring:
            # Ring drained: re-enable interrupts.
            self._busy = False
            if self.ring:
                self._schedule_interrupt()
            return
        frame = self.ring.popleft()
        if self.dp_ring is not None:
            arrival = frame.meta.get("dut_arrival_ps")
            if arrival is not None:
                self.dp_ring.observe((self.loop.now_ps - arrival) / 1000.0)
        service_ps = round(self.config.service_ns * self.overload * 1000)

        def done(frame=frame) -> None:
            self.moderator.account(1, frame.size)
            self.forwarded += 1
            pipeline_ps = round(self.config.pipeline_ns * 1000)
            departure = self.loop.now_ps + pipeline_ps
            frame.meta["dut_departure_ps"] = departure
            if self.output is not None:
                out = self.output

                def egress(frame=frame, out=out) -> None:
                    out.transmit(frame, frame.size)

                self.loop.schedule(pipeline_ps, egress)
            self._poll()

        self.loop.schedule(service_ps, done)

    # -- results ---------------------------------------------------------------------

    def counters(self) -> dict:
        """Stable counter snapshot for differential comparisons.

        ``tests/test_equivalence.py`` diffs this dict across the
        execution modes of every DuT topology; anything order- or
        timing-sensitive the forwarder observes belongs here.
        """
        return {
            "rx_packets": self.rx_packets,
            "rx_dropped": self.rx_dropped,
            "rx_crc_errors": self.rx_crc_errors,
            "forwarded": self.forwarded,
            "ring_depth": len(self.ring),
            "interrupts": self.moderator.interrupts,
        }

    @property
    def interrupts(self) -> int:
        return self.moderator.interrupts

    def interrupt_rate_hz(self) -> float:
        if self._start_ps is None:
            return 0.0
        duration_ns = (self._last_activity_ps - self._start_ps) / 1000.0
        return self.moderator.rate_hz(duration_ns)
