"""Wire and cable models.

Implements the physical layer the timestamping accuracy experiments
(Table 3) depend on:

* propagation delay ``l / v_p`` with the measured propagation speeds
  (0.72 c on OM3 fiber, 0.69 c on Cat 5e copper),
* a constant (de)modulation time ``k`` per medium (310.7 ns on the
  82599+SFP+ fiber path, 2147.2 ns on the X540 10GBASE-T path — the heavier
  line code of 10GBASE-T),
* PHY jitter: none measurable on fiber, a block-code-induced spread on
  10GBASE-T (> 99.5 % of samples within ±6.4 ns of the median, total range
  64 ns),
* serialization at line rate including preamble/SFD/IFG,
* optionally, 10GBASE-T's 3200-bit physical-layer frames (Section 8.4),
  which deliver back-to-back packets as bursts to the receiver.

Hot-path notes (docs/PERFORMANCE.md): serialization times are cached per
frame size, the cable latency is precomputed when the medium draws no
jitter (the jitter hook adds exactly ``0.0`` there, so the rounding is
identical), and deliveries share one bound drain callback instead of
allocating a closure per frame.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro import units
from repro.nicsim.eventloop import EventLoop

#: Speed of light in meters per nanosecond.
C_M_PER_NS = 0.299792458


@dataclass(frozen=True)
class Medium:
    """A cable technology: propagation speed, modulation time, jitter."""

    name: str
    #: Propagation speed as a fraction of c.
    velocity_factor: float
    #: Constant (de)modulation/encoding time in ns (the k of Table 3).
    modulation_ns: float
    #: Jitter distribution: maps an RNG to a delay offset in ns.
    jitter_name: str = "none"

    def propagation_ns(self, length_m: float) -> float:
        """One-way propagation delay for a cable of the given length."""
        return length_m / (self.velocity_factor * C_M_PER_NS)

    def jitter_ns(self, rng: random.Random) -> float:
        return _JITTER_MODELS[self.jitter_name](rng)


def _no_jitter(rng: random.Random) -> float:
    return 0.0


#: 10GBASE-T block-code jitter, quantized to the 6.4 ns symbol grid.
#: Calibrated to Section 6.1: >99.5 % of measurements within ±6.4 ns of the
#: median, min-max range 64 ns (±32 ns), independent of cable length.
_10GBASET_STEPS: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.600),
    (-6.4, 0.199), (6.4, 0.199),
    (-12.8, 0.00045), (12.8, 0.00045),
    (-19.2, 0.00030), (19.2, 0.00030),
    (-25.6, 0.00015), (25.6, 0.00015),
    (-32.0, 0.00010), (32.0, 0.00010),
)


def _10gbaset_jitter(rng: random.Random) -> float:
    roll = rng.random()
    acc = 0.0
    for value, prob in _10GBASET_STEPS:
        acc += prob
        if roll < acc:
            return value
    return 0.0


_JITTER_MODELS: dict = {
    "none": _no_jitter,
    "10gbaset": _10gbaset_jitter,
}

#: OM3 multimode fiber with 10GBASE-SR SFP+ modules (82599 test setup).
FIBER_OM3 = Medium("om3-fiber", velocity_factor=0.72, modulation_ns=310.7)
#: Cat 5e copper with 10GBASE-T (X540 test setup).
COPPER_CAT5E = Medium(
    "cat5e-copper", velocity_factor=0.69, modulation_ns=2147.2,
    jitter_name="10gbaset",
)


@dataclass(frozen=True)
class Cable:
    """A physical cable: a medium plus a length."""

    medium: Medium
    length_m: float

    def latency_ns(self) -> float:
        """True one-way latency: modulation + propagation (no jitter)."""
        return self.medium.modulation_ns + self.medium.propagation_ns(self.length_m)


#: A zero-length ideal cable for experiments where the wire is irrelevant.
IDEAL_CABLE = Cable(Medium("ideal", 1.0, 0.0), 0.0)


class Wire:
    """One direction of a link: serializes frames and delivers them.

    ``Wire`` is used by the event-driven NIC model; it enforces line-rate
    serialization (a frame occupies the wire for its wire-length) and applies
    the cable's latency and jitter.  Frames are delivered in order.
    """

    __slots__ = (
        "loop", "speed_bps", "cable", "rng", "phy_frame_bits", "corrupt_rate",
        "corrupted", "sink", "busy_until_ps", "frames_sent", "bytes_sent",
        "_last_delivery_ps", "_ser_cache", "_jitter_free", "_latency_ps",
        "_phy_ps", "_pending", "carrier_up", "loss_model", "dropped",
        "faulted", "dp_hop", "dp_e2e",
    )

    def __init__(
        self,
        loop: EventLoop,
        speed_bps: int,
        cable: Cable = IDEAL_CABLE,
        seed: int = 0,
        phy_frame_bits: int = 0,
        corrupt_rate: float = 0.0,
    ) -> None:
        """``phy_frame_bits`` models 10GBASE-T's physical-layer framing
        (Section 8.4: 3200-bit PHY frames deliver close packets as bursts).
        ``corrupt_rate`` injects bit errors: the affected frame arrives with
        a broken FCS and is dropped by the receiving NIC."""
        self.loop = loop
        self.speed_bps = speed_bps
        self.cable = cable
        self.rng = random.Random(seed)
        self.phy_frame_bits = phy_frame_bits
        self.corrupt_rate = corrupt_rate
        self.corrupted = 0
        #: Carrier state: while ``False`` (a link flap, ``repro.faults``),
        #: transmitted frames are lost on the wire and counted in
        #: :attr:`dropped` — no RNG draw is consumed for them.
        self.carrier_up = True
        #: Optional per-frame loss decider (e.g. a Gilbert–Elliott model
        #: from ``repro.faults``): called as ``loss_model(frame_size)`` and
        #: returning True to lose the frame.  It owns its *own* RNG stream,
        #: so installing one never shifts this wire's jitter/corruption
        #: draws.
        self.loss_model: Optional[Callable[[int], bool]] = None
        #: Frames lost on the wire by faults (carrier down or loss model);
        #: corrupted frames are *not* counted here — they arrive with a bad
        #: FCS and are dropped (and counted) by the receiving NIC.
        self.dropped = 0
        #: Set by a fault injector that targets this wire; forces the
        #: event-driven path even while no fault window is active, so a
        #: batch-tier train can never straddle a scheduled fault.
        self.faulted = False
        self.sink: Optional[Callable[[object, int], None]] = None
        #: Time the wire becomes free (end of last serialization), ps.
        self.busy_until_ps = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        self._last_delivery_ps = 0
        #: frame size -> serialization time (frames repeat a few sizes).
        self._ser_cache: Dict[int, int] = {}
        #: When the medium draws no jitter, the per-frame latency is a
        #: constant: ``jitter_ns`` returns exactly 0.0, so precomputing
        #: ``round(latency_ns() * 1000)`` is bit-identical to the general
        #: expression and skips two calls plus a round per frame.
        self._jitter_free = cable.medium.jitter_name == "none"
        self._latency_ps = round(cable.latency_ns() * 1000)
        self._phy_ps = (round(phy_frame_bits * 1e12 / speed_bps)
                        if phy_frame_bits else 0)
        #: In-flight (frame, arrival_ps) pairs, ordered by arrival — one
        #: bound callback drains due entries instead of a closure per frame.
        self._pending: Deque[Tuple[object, int, object]] = deque()
        #: In-dataplane latency histograms (``repro.metrics.dataplane``):
        #: wire residence (``latency.hop.wire.<name>``) and end-to-end
        #: enqueue→arrival (``latency.e2e.<name>``).  ``None`` keeps the
        #: hot path a single ``is not None`` test.
        self.dp_hop = None
        self.dp_e2e = None

    def connect(self, sink: Callable[[object, int], None]) -> None:
        """Attach the receiving port: called as ``sink(frame, arrival_ps)``."""
        self.sink = sink

    def register_metrics(self, registry, name: str) -> None:
        """Publish this wire's counters under ``wire.<A>-><B>.*``.

        ``name`` is the directed endpoint pair (``"0->1"``); the wire does
        not know its own topology name, the environment passes it in.
        Pull-based — nothing on the serialization path changes.
        """
        base = f"wire.{name}"
        sent = registry.counter(f"{base}.frames", lambda: self.frames_sent,
                                help="frames serialized onto the wire")
        registry.rate(f"{base}.fps", sent,
                      help="frame rate between snapshots (sim time)")
        registry.counter(f"{base}.bytes", lambda: self.bytes_sent)
        registry.counter(f"{base}.dropped", lambda: self.dropped,
                         help="frames lost to faults (carrier/loss model)")
        registry.counter(f"{base}.corrupted", lambda: self.corrupted,
                         help="frames delivered with a broken FCS")
        registry.gauge(f"{base}.in_flight", lambda: len(self._pending),
                       help="frames serialized but not yet delivered")
        registry.gauge(f"{base}.carrier_up",
                       lambda: 1 if self.carrier_up else 0)

    def serialization_ps(self, frame_size: int) -> int:
        """Wire occupancy of a frame including preamble/SFD/IFG."""
        ser = self._ser_cache.get(frame_size)
        if ser is None:
            ser = units.frame_time_ps(frame_size, self.speed_bps)
            self._ser_cache[frame_size] = ser
        return ser

    def transmit(self, frame: object, frame_size: int, start_ps: Optional[int] = None) -> int:
        """Put a frame on the wire; returns the time the wire becomes free.

        ``frame_size`` is the frame length including FCS.  ``start_ps``
        defaults to now; transmission never begins before the wire is free
        (the MAC serializes frames one after another).
        """
        start = self.loop.now_ps if start_ps is None else start_ps
        busy = self.busy_until_ps
        if busy > start:
            start = busy
        ser = self._ser_cache.get(frame_size)
        if ser is None:
            ser = units.frame_time_ps(frame_size, self.speed_bps)
            self._ser_cache[frame_size] = ser
        end = start + ser
        self.busy_until_ps = end
        self.frames_sent += 1
        self.bytes_sent += frame_size
        tracer = self.loop.tracer
        if self.sink is not None:
            if not self.carrier_up:
                # Link flap: the carrier is down, the frame is lost on the
                # wire.  No RNG draw is consumed — the medium never carried
                # the frame — so the jitter/corruption streams of frames
                # after the flap are unaffected by its duration.
                self.dropped += 1
                if tracer is not None:
                    tracer.emit("drop", "wire_carrier_down",
                                frame=tracer.frame_id(frame),
                                size=frame_size)
                self._release(frame)
                return end
            # Per-frame RNG draw order is pinned (regression-tested in
            # tests/test_link.py): 1. medium jitter, then 2. corruption —
            # both from this wire's own RNG.  The fault loss model sits in
            # between but draws from its *own* stream, and a lost frame
            # skips the corruption draw entirely (see below).
            if self._jitter_free:
                arrival = end + self._latency_ps
            else:
                latency_ns = self.cable.latency_ns() + self.cable.medium.jitter_ns(self.rng)
                arrival = end + round(latency_ns * 1000)
            if self.phy_frame_bits:
                # The PHY ships fixed-size layer-1 frames: a packet is only
                # handed up when the PHY frame containing its end arrives,
                # so packets within one PHY frame appear back-to-back.
                phy_ps = self._phy_ps
                arrival = -(-arrival // phy_ps) * phy_ps
            if self.loss_model is not None and self.loss_model(frame_size):
                # Lost on the medium: whether the frame would also have
                # been corrupted is unobservable, so the corruption draw is
                # not consumed and ``dropped``/``corrupted`` stay disjoint.
                self.dropped += 1
                if tracer is not None:
                    tracer.emit("drop", "wire_loss",
                                frame=tracer.frame_id(frame),
                                size=frame_size)
                self._release(frame)
                return end
            corrupted = bool(self.corrupt_rate
                             and self.rng.random() < self.corrupt_rate)
            if corrupted:
                # A bit error on the wire: the FCS no longer matches.  The
                # counter and the trace drop-event move together with the
                # actual FCS mark, so ``corrupted`` always equals the
                # receiving NIC's eventual ``rx_crc_errors``.
                frame, corrupted = self._corrupt(frame)
                if corrupted:
                    self.corrupted += 1
            # Keep in-order delivery even if jitter would reorder frames.
            if arrival <= self._last_delivery_ps:
                arrival = self._last_delivery_ps + 1
            self._last_delivery_ps = arrival
            dp_hop = self.dp_hop
            if dp_hop is not None and getattr(frame, "fcs_ok", False):
                # Residence on this hop (serialization start → delivered
                # arrival) and end-to-end enqueue → arrival, FCS-valid
                # frames only — corrupted frames and CRC-gap fillers are
                # pacing artifacts, not observed traffic.
                dp_hop.observe((arrival - start) / 1000.0)
                enq = frame.meta.get("dp_enq_ps")
                if enq is not None:
                    self.dp_e2e.observe((arrival - enq) / 1000.0)
            if tracer is not None:
                tracer.emit("wire", "wire_tx", frame=tracer.frame_id(frame),
                            size=frame_size, start=start, end=end,
                            arrival=arrival)
                if corrupted:
                    tracer.emit("drop", "wire_corrupt",
                                frame=tracer.frame_id(frame),
                                size=frame_size)
            self._pending.append(
                (frame, arrival, self.loop.schedule_at(arrival, self._deliver_due))
            )
        elif tracer is not None:
            tracer.emit("wire", "wire_tx", frame=tracer.frame_id(frame),
                        size=frame_size, start=start, end=end)
        return end

    @staticmethod
    def _release(frame: object) -> None:
        """Recycle a frame lost on the wire: nothing can reach it again."""
        pool = getattr(frame, "pool", None)
        if pool is not None:
            pool.release(frame)

    def _deliver_due(self) -> None:
        """Hand every in-flight frame whose arrival is due to the sink.

        Arrivals are strictly increasing, so the deque is sorted: a
        delivery event fired at time T delivers exactly the frames with
        ``arrival <= T`` that an earlier event has not already drained
        (the batch tier drains ahead; its leftover events no-op).
        """
        pending = self._pending
        now = self.loop.now_ps
        sink = self.sink
        while pending and pending[0][1] <= now:
            frame, arrival, _ = pending.popleft()
            sink(frame, arrival)

    # -- batch tier support (repro.batch) -------------------------------------

    def batch_blocker(self) -> Optional[str]:
        """The first condition pinning this wire to the event path, as a
        stable fallback reason (``repro.batch.FALLBACK_REASONS``), or
        ``None`` when per-frame delivery needs no rng draw and no tracer.

        Jitter and corruption consume random numbers per frame, and the
        tracer records per-frame wire events — each forces the event-driven
        path to keep bit-for-bit fidelity.  A wire targeted by a fault
        injector (``faulted``) is likewise pinned to the event-driven path:
        its carrier/loss state can change at any scheduled fault boundary.
        The batch detector calls this on every MAC kick.
        """
        if self.sink is None:
            return "wire-unconnected"
        if not self._jitter_free:
            return "wire-jitter"
        if self.corrupt_rate:
            return "wire-corruption"
        if self.phy_frame_bits:
            return "wire-phy-framing"
        if self.faulted:
            return "wire-faulted"
        if not self.carrier_up:
            return "wire-carrier-down"
        if self.loss_model is not None:
            return "wire-loss-model"
        if self.loop.tracer is not None:
            return "tracer"
        return None

    def detach_pending(self) -> List[Tuple[object, int]]:
        """Pull the in-flight frames off the wire, cancelling their drain
        events; returns ``(frame, arrival_ps)`` pairs in arrival order.

        Batch-train setup: the scheduled drain events would otherwise
        clamp :meth:`EventLoop.batch_bound_ps` to the very next
        arrival.  The caller either delivers the pairs synchronously (their
        arrival stamps are kept, so the sink sees exactly the event-driven
        calls) or puts them back with :meth:`reattach_pending`.
        """
        out: List[Tuple[object, int]] = []
        pending = self._pending
        while pending:
            frame, arrival, event = pending.popleft()
            event.cancel()
            out.append((frame, arrival))
        return out

    def reattach_pending(self, entries: List[Tuple[object, int]]) -> None:
        """Undo :meth:`detach_pending` when a batch-tier train bails."""
        pending = self._pending
        schedule_at = self.loop.schedule_at
        deliver = self._deliver_due
        for frame, arrival in entries:
            pending.append((frame, arrival, schedule_at(arrival, deliver)))

    def fast_transmit(self, frame: object, frame_size: int, start_ps: int) -> int:
        """``transmit`` minus the delivery event: the sink is called
        synchronously with the exact arrival stamp the event-driven path
        would have used.  Only valid when :meth:`batch_blocker` is ``None``
        and :meth:`detach_pending` drained the wire for this train.
        """
        start = start_ps if start_ps > self.busy_until_ps else self.busy_until_ps
        ser = self._ser_cache.get(frame_size)
        if ser is None:
            ser = units.frame_time_ps(frame_size, self.speed_bps)
            self._ser_cache[frame_size] = ser
        end = start + ser
        self.busy_until_ps = end
        self.frames_sent += 1
        self.bytes_sent += frame_size
        arrival = end + self._latency_ps
        if arrival <= self._last_delivery_ps:
            arrival = self._last_delivery_ps + 1
        self._last_delivery_ps = arrival
        dp_hop = self.dp_hop
        if dp_hop is not None and getattr(frame, "fcs_ok", False):
            dp_hop.observe((arrival - start) / 1000.0)
            enq = frame.meta.get("dp_enq_ps")
            if enq is not None:
                self.dp_e2e.observe((arrival - enq) / 1000.0)
        self.sink(frame, arrival)
        return end

    @staticmethod
    def _corrupt(frame: object) -> Tuple[object, bool]:
        """Break the frame's FCS; returns ``(frame, mark_applied)``.

        Frames without an FCS flag (plain test payloads) cannot carry the
        mark; reporting that keeps the ``corrupted`` counter consistent
        with what the receiving NIC will actually drop.
        """
        if hasattr(frame, "fcs_ok"):
            frame.fcs_ok = False
            return frame, True
        return frame, False

    @property
    def in_flight(self) -> int:
        """Frames serialized but not yet delivered to the sink."""
        return len(self._pending)

    def utilization(self) -> float:
        """Fraction of elapsed wire time spent serializing frames.

        Frames never overlap, so bytes × byte-time (plus per-frame
        preamble/SFD/IFG overhead) is the exact busy time; the elapsed
        span runs from time zero to the end of the last serialization.
        """
        if self.busy_until_ps <= 0:
            return 0.0
        byte_ps = units.byte_time_ps(self.speed_bps)
        busy_ps = (self.bytes_sent + self.frames_sent * units.WIRE_OVERHEAD) * byte_ps
        return min(1.0, busy_ps / self.busy_until_ps)
