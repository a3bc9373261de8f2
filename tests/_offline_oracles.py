"""Reference per-element loops for the offline planner and DuT fastpath.

These are the original, straightforward implementations of
:meth:`repro.core.ratecontrol.GapFiller.plan`'s carry loop and of
:func:`repro.dut.fastpath.simulate_forwarder`, kept here verbatim as
oracles for the differential tests in ``test_offline_kernels.py``.  The
production kernels must do the same IEEE-754 operations in the same
order, so every output is compared bit for bit.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.ratecontrol import GapFiller
from repro.dut.interrupts import InterruptModerator, ItrConfig


def plan_oracle(filler: GapFiller, desired_gaps_ns
                ) -> Tuple[List[List[int]], np.ndarray]:
    """``(filler_wire_bytes, actual_gaps_ns)`` for a gap sequence."""
    desired = np.asarray(list(desired_gaps_ns), dtype=float)
    pkt_wire = filler.pkt_wire_bytes
    min_gap_ns = pkt_wire * filler.byte_time_ns
    fillers: List[List[int]] = []
    actual = np.empty(desired.size)
    carry = 0.0
    min_fill = filler.min_filler_wire
    for i, gap_ns in enumerate(desired):
        idle_bytes_f = (gap_ns - min_gap_ns) / filler.byte_time_ns + carry
        if idle_bytes_f < min_fill:
            # Unrepresentable small gap: send back-to-back if closer to
            # zero, else emit a minimum filler; carry the error.
            idle_bytes = 0 if idle_bytes_f < min_fill / 2 else min_fill
        else:
            idle_bytes = int(round(idle_bytes_f))
        carry = idle_bytes_f - idle_bytes
        fillers.append(filler._split_filler(idle_bytes))
        actual[i] = (pkt_wire + idle_bytes) * filler.byte_time_ns
    return fillers, actual


def forwarder_oracle(arrivals_ns, pkt_size: int, service_ns: float,
                     ring_size: int, itr: ItrConfig, pipeline_ns: float
                     ) -> Tuple[np.ndarray, int, InterruptModerator]:
    """``(departures_ns, dropped, moderator)`` for sorted arrivals."""
    arrivals = np.asarray(arrivals_ns, dtype=float)
    moderator = InterruptModerator(itr)
    overhead = moderator.config.interrupt_overhead_ns

    n = arrivals.size
    departures = np.full(n, np.nan)
    cpu_free = float("-inf")
    dropped = 0
    accepted = 0
    dep_ptr = 0          # departures are non-decreasing for accepted packets
    done_times = []      # departure times of accepted packets, in order

    for i in range(n):
        a = arrivals[i]
        moderator.observe_arrival(a)
        # Advance the departed pointer to compute ring occupancy.
        while dep_ptr < len(done_times) and done_times[dep_ptr] <= a:
            dep_ptr += 1
        if accepted - dep_ptr >= ring_size:
            dropped += 1
            continue
        if cpu_free <= a:
            # CPU idle, interrupts armed: fire (moderated) and wake.
            wake = max(a, moderator.next_allowed_ns())
            moderator.fire(wake)
            start = wake + overhead
        else:
            # NAPI poll mode: the packet is handled when the CPU gets to it.
            start = cpu_free
        dep = start + service_ns
        cpu_free = dep
        moderator.account(1, pkt_size)
        # The frame leaves the DuT after the (load-independent) tx pipeline.
        departures[i] = dep + pipeline_ns
        done_times.append(dep)
        accepted += 1
    return departures, dropped, moderator
