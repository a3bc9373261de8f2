"""Forwarder simulation in one scalar pass over an arrival-time array.

The benches for Figures 7, 10 and 11 need millions of packets; driving the
event loop for each would dominate runtime.  This module simulates the same
forwarder semantics — NAPI polling, adaptive ITR, a finite rx ring, fixed
per-packet service cost — in a single pass over a sorted arrival-time
array.

Semantics (matching :class:`repro.dut.forwarder.OvsForwarder`):

* if the CPU is idle when a packet arrives, an interrupt fires no earlier
  than the moderation interval allows; the CPU wakes, pays the interrupt
  overhead, and polls;
* while the CPU is processing (NAPI poll mode), no interrupts fire and
  packets queue in the rx ring;
* a packet arriving to a full ring is dropped (the ~2 ms overload latency
  of Section 8.3 is the ring capacity times the service time);
* each processed packet costs ``service_ns``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro._optional import np, require_numpy

from repro.dut.interrupts import InterruptModerator, ItrConfig

#: Per-packet forwarding cost of the single-core Open vSwitch DuT.  The
#: paper's DuT overloads at ~1.9 Mpps (Section 8.3) → ~526 ns per packet.
DEFAULT_SERVICE_NS = 526.0
#: rx descriptor ring; 4096 × 526 ns ≈ 2.15 ms, the observed overload
#: latency plateau ("about 2 ms in this test setup").
DEFAULT_RING_SIZE = 4096
#: Constant per-packet pipeline latency through the DuT's kernel stack and
#: transmit path (independent of load; calibrates the Figure 11 baseline).
DEFAULT_PIPELINE_NS = 15_000.0


@dataclass
class FastForwarderResult:
    """Outcome of a fastpath run."""

    arrivals_ns: np.ndarray
    departures_ns: np.ndarray  # NaN for dropped packets
    latencies_ns: np.ndarray   # NaN for dropped packets
    dropped: int
    interrupts: int
    duration_ns: float
    moderator: InterruptModerator = field(repr=False, default=None)

    @property
    def forwarded(self) -> int:
        return int(np.sum(~np.isnan(self.departures_ns)))

    @property
    def interrupt_rate_hz(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.interrupts / (self.duration_ns / 1e9)

    def latency_percentiles(self, percentiles=(25, 50, 75)) -> tuple:
        ok = self.latencies_ns[~np.isnan(self.latencies_ns)]
        if ok.size == 0:
            raise ValueError("no forwarded packets")
        return tuple(float(np.percentile(ok, p)) for p in percentiles)

    @property
    def drop_rate(self) -> float:
        if self.arrivals_ns.size == 0:
            return 0.0
        return self.dropped / self.arrivals_ns.size


def simulate_forwarder(
    arrivals_ns: np.ndarray,
    pkt_size: int = 64,
    service_ns: float = DEFAULT_SERVICE_NS,
    ring_size: int = DEFAULT_RING_SIZE,
    itr: Optional[ItrConfig] = None,
    pipeline_ns: float = DEFAULT_PIPELINE_NS,
) -> FastForwarderResult:
    """Run the forwarder over sorted packet arrival times (ns)."""
    require_numpy("the DuT fastpath")
    arrivals = np.asarray(arrivals_ns, dtype=float)
    if arrivals.size == 0:
        raise ValueError("no arrivals")
    if np.any(np.diff(arrivals) < 0):
        raise ValueError("arrival times must be sorted")
    moderator = InterruptModerator(itr or ItrConfig())
    overhead = moderator.config.interrupt_overhead_ns
    clump_window = moderator.config.clump_window_ns

    nan = float("nan")
    departures = []      # NaN for dropped packets
    in_ring = deque()    # departure times of accepted packets still queued
    cpu_free = float("-inf")
    dropped = 0
    # The moderator's per-arrival and per-packet counters, kept in locals
    # and written back before each interrupt and at the end.
    last_arrival = moderator._last_arrival_ns
    clump_len = moderator._clump_len
    max_clump = moderator._max_clump
    period_packets = moderator._period_packets
    period_bytes = moderator._period_bytes

    for a in arrivals.tolist():
        # InterruptModerator.observe_arrival
        if a - last_arrival <= clump_window:
            clump_len += 1
        else:
            clump_len = 1
        if clump_len > max_clump:
            max_clump = clump_len
        last_arrival = a
        # Departures are non-decreasing: drain what has left the ring.
        while in_ring and in_ring[0] <= a:
            in_ring.popleft()
        if len(in_ring) >= ring_size:
            dropped += 1
            departures.append(nan)
            continue
        if cpu_free <= a:
            # CPU idle, interrupts armed: fire (moderated) and wake.
            moderator._max_clump = max_clump
            moderator._period_packets = period_packets
            moderator._period_bytes = period_bytes
            wake = max(a, moderator.next_allowed_ns())
            moderator.fire(wake)
            max_clump = moderator._max_clump
            period_packets = moderator._period_packets
            period_bytes = moderator._period_bytes
            start = wake + overhead
        else:
            # NAPI poll mode: the packet is handled when the CPU gets to it.
            start = cpu_free
        cpu_free = start + service_ns
        # InterruptModerator.account
        period_packets += 1
        period_bytes += pkt_size
        # The frame leaves the DuT after the (load-independent) tx pipeline.
        departures.append(cpu_free + pipeline_ns)
        in_ring.append(cpu_free)

    moderator._last_arrival_ns = last_arrival
    moderator._clump_len = clump_len
    moderator._max_clump = max_clump
    moderator._period_packets = period_packets
    moderator._period_bytes = period_bytes
    departures = np.array(departures)
    duration = float(arrivals[-1] - arrivals[0]) if arrivals.size > 1 else 0.0
    return FastForwarderResult(
        arrivals_ns=arrivals,
        departures_ns=departures,
        latencies_ns=departures - arrivals,
        dropped=dropped,
        interrupts=moderator.interrupts,
        duration_ns=duration,
        moderator=moderator,
    )
