"""Rate control: traffic patterns and the CRC-gap mechanism (Section 8).

The paper's novel software rate control never *waits*: it keeps the wire
completely full and realises inter-packet gaps by inserting **invalid
frames** (bad CRC, possibly illegal length) between valid packets.  The
device under test drops the fillers in hardware — only an error counter
increments — so the valid packets arrive with precisely the intended
spacing, enabling arbitrary traffic patterns (Poisson, bursts, traces) with
hardware-grade precision.

Constraints modelled exactly as measured in the paper:

* NICs refuse frames with a wire length < 33 bytes;
* short frames stress the MAC: at most ~15.6 Mpps leave the X540/82599, so
  MoonGen enforces a 76-byte minimum wire length for fillers by default;
* consequently idle gaps in (0, 76) bytes (0.8–60.8 ns at 10 GbE) cannot be
  represented; they are approximated by *skip-and-stretch* — occasionally
  skipping a filler and lengthening other gaps, keeping the average rate
  exact at the cost of per-gap precision (±½ of the minimum filler,
  ≈ ±30 ns — still better than every alternative, Section 8.4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, Iterator, List, Sequence

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None

from repro import units
from repro.errors import ConfigurationError, GapError
from repro.core.memory import MemPool


def _require_numpy() -> None:
    """Traffic patterns draw/shape gap arrays with numpy; the batch tier
    and the plain event-driven paths do not.  Fail loudly, not with an
    ``AttributeError`` on ``None``."""
    if np is None:
        raise ConfigurationError(
            "numpy is required for traffic patterns / gap planning "
            "(pip install numpy, or the repo's [test] extra)")

#: Wire length below which the NICs refuse to send at all (Section 8.1).
HARD_MIN_WIRE = units.MIN_WIRE_LENGTH  # 33 bytes
#: MoonGen's enforced minimum filler wire length (Section 8.1).
DEFAULT_MIN_FILLER_WIRE = 76
#: Largest standard frame (1518 B) on the wire.
MAX_FILLER_WIRE = units.MAX_FRAME_SIZE + units.WIRE_OVERHEAD
#: Maximum packet rate observed with shorter-than-minimum frames.
SHORT_FRAME_MAX_PPS = 15.6e6


# ---------------------------------------------------------------------------
# traffic patterns: generators of desired start-to-start gaps
# ---------------------------------------------------------------------------


class TrafficPattern:
    """Base class: produces desired start-to-start inter-departure gaps."""

    def mean_gap_ns(self) -> float:
        raise NotImplementedError

    def gaps_ns(self, n: int) -> np.ndarray:
        """``n`` inter-departure gaps in nanoseconds."""
        raise NotImplementedError

    def iter_gaps_ns(self) -> Iterator[float]:
        """Endless stream of gaps (event-driven use)."""
        while True:
            for gap in self.gaps_ns(1024):
                yield float(gap)


@dataclass
class CbrPattern(TrafficPattern):
    """Constant bit rate: every gap equals ``1 / pps``."""

    pps: float

    def __post_init__(self) -> None:
        _require_numpy()
        if self.pps <= 0:
            raise ConfigurationError(f"packet rate must be positive: {self.pps}")

    def mean_gap_ns(self) -> float:
        return units.NS_PER_S / self.pps

    def gaps_ns(self, n: int) -> np.ndarray:
        return np.full(n, self.mean_gap_ns())


@dataclass
class PoissonPattern(TrafficPattern):
    """A Poisson arrival process: exponential inter-departure times."""

    pps: float
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _require_numpy()
        if self.pps <= 0:
            raise ConfigurationError(f"packet rate must be positive: {self.pps}")
        self._rng = np.random.default_rng(self.seed)

    def mean_gap_ns(self) -> float:
        return units.NS_PER_S / self.pps

    def gaps_ns(self, n: int) -> np.ndarray:
        return self._rng.exponential(self.mean_gap_ns(), size=n)


@dataclass
class UniformBurstPattern(TrafficPattern):
    """Bursts of back-to-back packets separated by constant pauses.

    ``burst_size`` packets leave back-to-back (gap = one wire time), then a
    pause keeps the average at ``pps`` (the ``l2-bursts.lua`` pattern).
    """

    pps: float
    burst_size: int
    frame_size: int = units.MIN_FRAME_SIZE
    speed_bps: int = units.SPEED_10G

    def __post_init__(self) -> None:
        _require_numpy()
        if self.burst_size < 1:
            raise ConfigurationError(f"burst size must be >= 1: {self.burst_size}")
        if self.pps <= 0:
            raise ConfigurationError(f"packet rate must be positive: {self.pps}")
        wire_ns = units.frame_time_ns(self.frame_size, self.speed_bps)
        mean = self.mean_gap_ns()
        pause = self.burst_size * (mean - wire_ns) + wire_ns
        if pause < wire_ns:
            raise ConfigurationError(
                "requested rate leaves no room for pauses between bursts"
            )
        self._wire_ns = wire_ns
        self._pause_ns = pause

    def mean_gap_ns(self) -> float:
        return units.NS_PER_S / self.pps

    def gaps_ns(self, n: int) -> np.ndarray:
        out = np.full(n, self._wire_ns)
        out[self.burst_size - 1:: self.burst_size] = self._pause_ns
        return out


@dataclass
class CustomGapPattern(TrafficPattern):
    """Replays an explicit gap sequence (trace-driven generation)."""

    gaps: Sequence[float]

    def __post_init__(self) -> None:
        _require_numpy()
        if len(self.gaps) == 0:
            raise ConfigurationError("empty gap sequence")
        if any(g < 0 for g in self.gaps):
            raise ConfigurationError("gaps must be non-negative")

    def mean_gap_ns(self) -> float:
        return float(np.mean(np.asarray(self.gaps, dtype=float)))

    def gaps_ns(self, n: int) -> np.ndarray:
        reps = -(-n // len(self.gaps))
        return np.tile(np.asarray(self.gaps, dtype=float), reps)[:n]


# ---------------------------------------------------------------------------
# the CRC-gap mechanism
# ---------------------------------------------------------------------------


def idle_byte_counts(
    gaps_ns: Iterable[float],
    min_gap_ns: float,
    byte_time_ns: float,
    min_fill: int,
) -> Iterator[int]:
    """Idle wire bytes after each packet for a sequence of desired gaps.

    The one carry kernel behind :meth:`GapFiller.plan` and the pure-Python
    CBR schedule of :mod:`repro.analysis.precision`.  A running byte-error
    carry keeps the *average* rate exact: idle gaps too short for a
    ``min_fill``-byte filler are sent back-to-back or stretched to one
    minimum filler, whichever is closer (skip-and-stretch, Section 8.4).
    Works on plain floats, so a numpy gap array should arrive as
    ``ndarray.tolist()``; ``(gap - min_gap_ns) / byte_time_ns`` is
    computed once per run of equal gaps.
    """
    half_fill = min_fill / 2
    carry = 0.0
    gap_before = base = None
    for gap in gaps_ns:
        if gap != gap_before:
            gap_before = gap
            base = (gap - min_gap_ns) / byte_time_ns
        idle_f = base + carry
        if idle_f < min_fill:
            # Unrepresentable small gap: send back-to-back if closer to
            # zero, else emit a minimum filler; carry the error.
            idle = 0 if idle_f < half_fill else min_fill
        else:
            idle = round(idle_f)
        carry = idle_f - idle
        yield idle


class _FillerMemo(dict):
    """Filler wire lengths by idle-byte count, split on first use."""

    def __init__(self, split: Callable[[int], List[int]]) -> None:
        super().__init__()
        self._split = split

    def __missing__(self, idle_bytes: int) -> List[int]:
        fillers = self[idle_bytes] = self._split(idle_bytes)
        return fillers


@dataclass
class FillPlan:
    """The wire schedule the gap filler computed for a batch of packets.

    ``idle_bytes[i]`` is the idle wire time, in bytes, filled *after*
    valid packet ``i``; ``fillers_of[idle_bytes[i]]`` lists the wire
    lengths of the invalid frames that fill it, and
    ``filler_wire_bytes[i]`` is the same list per packet.
    ``actual_gaps_ns[i]`` is the realised start-to-start gap between
    valid packets ``i`` and ``i+1``.
    """

    frame_size: int
    speed_bps: int
    idle_bytes: List[int]
    actual_gaps_ns: np.ndarray
    desired_gaps_ns: np.ndarray
    fillers_of: Dict[int, List[int]] = field(repr=False, compare=False)

    @cached_property
    def filler_wire_bytes(self) -> List[List[int]]:
        fillers_of = self.fillers_of
        return [list(fillers_of[idle]) for idle in self.idle_bytes]

    @property
    def n_fillers(self) -> int:
        fillers_of = self.fillers_of
        return sum(len(fillers_of[idle]) * count
                   for idle, count in Counter(self.idle_bytes).items())

    def departure_times_ns(self, start_ns: float = 0.0) -> np.ndarray:
        """Start times of the valid packets on the wire."""
        times = np.empty(len(self.actual_gaps_ns) + 1)
        times[0] = start_ns
        np.cumsum(self.actual_gaps_ns, out=times[1:])
        times[1:] += start_ns
        return times

    def max_error_ns(self) -> float:
        return float(np.max(np.abs(self.actual_gaps_ns - self.desired_gaps_ns)))

    def mean_error_ns(self) -> float:
        return float(np.mean(self.actual_gaps_ns - self.desired_gaps_ns))

    def render_wire(self, n_packets: int = 6) -> str:
        """The wire schedule as Figure 9 draws it.

        Valid packets appear as ``p0, p1, ...`` and the shaded invalid
        fillers as ``i0, i1, ...`` with their wire length, e.g.::

            | p0 | i0:360B | p1 | p2 | i1:76B | ...

        Note the wire has no gaps — that is the whole point.
        """
        cells = []
        filler_index = 0
        for i, idle in enumerate(self.idle_bytes[:n_packets]):
            cells.append(f"p{i}")
            for wire_len in self.fillers_of[idle]:
                cells.append(f"i{filler_index}:{wire_len}B")
                filler_index += 1
        return "| " + " | ".join(cells) + " |"


class GapFiller:
    """Computes filler-frame schedules for arbitrary gap sequences.

    The filler keeps a running byte-error carry so the *average* rate is
    exact even when individual gaps are unrepresentable (skip-and-stretch,
    Section 8.4).
    """

    def __init__(
        self,
        frame_size: int = units.MIN_FRAME_SIZE,
        speed_bps: int = units.SPEED_10G,
        min_filler_wire: int = DEFAULT_MIN_FILLER_WIRE,
        max_filler_wire: int = MAX_FILLER_WIRE,
    ) -> None:
        if min_filler_wire < HARD_MIN_WIRE:
            raise GapError(
                f"NICs refuse wire lengths below {HARD_MIN_WIRE} bytes "
                f"(Section 8.1); requested minimum {min_filler_wire}"
            )
        if max_filler_wire < min_filler_wire:
            raise GapError("max filler wire length below minimum")
        self.frame_size = frame_size
        self.speed_bps = speed_bps
        self.min_filler_wire = min_filler_wire
        self.max_filler_wire = max_filler_wire
        self.byte_time_ns = units.byte_time_ps(speed_bps) / 1000.0
        self.pkt_wire_bytes = units.wire_length(frame_size)

    # -- representability ------------------------------------------------------------

    def min_rate_pps(self) -> float:
        """Below this rate a single filler per gap would exceed the maximum
        frame size; the planner splits fillers, so any rate works — this is
        informational only."""
        return units.NS_PER_S / (
            (self.pkt_wire_bytes + self.max_filler_wire) * self.byte_time_ns
        )

    def unrepresentable_gap_range_ns(self) -> tuple:
        """The idle-gap range that cannot be generated (0.8–60.8 ns default)."""
        return (
            self.byte_time_ns,
            (self.min_filler_wire - 1) * self.byte_time_ns,
        )

    def _split_filler(self, idle_bytes: int) -> List[int]:
        """Decompose an idle-byte count into legal filler wire lengths."""
        if idle_bytes == 0:
            return []
        fillers = []
        remaining = idle_bytes
        while remaining > self.max_filler_wire:
            # Leave at least a minimum-sized filler for the final piece.
            take = min(self.max_filler_wire, remaining - self.min_filler_wire)
            fillers.append(take)
            remaining -= take
        fillers.append(remaining)
        return fillers

    def plan(self, desired_gaps_ns: Iterable[float]) -> FillPlan:
        """Compute the filler schedule for a sequence of desired gaps.

        ``desired_gaps_ns[i]`` is the desired start-to-start time between
        valid packets ``i`` and ``i+1``.  Gaps smaller than one wire time
        are physically impossible (the packet itself occupies the wire) and
        raise :class:`GapError` unless within rounding distance.
        """
        _require_numpy()
        if not isinstance(desired_gaps_ns, np.ndarray):
            desired_gaps_ns = list(desired_gaps_ns)
        desired = np.asarray(desired_gaps_ns, dtype=float)
        if desired.size == 0:
            raise GapError("no gaps to plan")
        if np.any(desired < 0):
            raise GapError("gaps must be non-negative")
        pkt_wire = self.pkt_wire_bytes
        min_gap_ns = pkt_wire * self.byte_time_ns
        # Individual gaps below the frame's own wire time are legal in a
        # random pattern (the packets simply leave back-to-back and the
        # deficit is carried), but a *mean* below it asks for more than
        # line rate.
        if float(desired.mean()) < min_gap_ns - 1e-9:
            raise GapError(
                f"mean desired gap {float(desired.mean()):.1f} ns is below "
                f"the frame's wire time ({min_gap_ns:.1f} ns); the requested "
                f"rate exceeds line rate"
            )
        idle = list(idle_byte_counts(desired.tolist(), min_gap_ns,
                                     self.byte_time_ns, self.min_filler_wire))
        return FillPlan(
            frame_size=self.frame_size,
            speed_bps=self.speed_bps,
            idle_bytes=idle,
            actual_gaps_ns=(pkt_wire + np.array(idle)) * self.byte_time_ns,
            desired_gaps_ns=desired,
            fillers_of=_FillerMemo(self._split_filler),
        )

    def plan_pattern(self, pattern: TrafficPattern, n: int) -> FillPlan:
        """Plan ``n`` gaps drawn from a traffic pattern."""
        return self.plan(pattern.gaps_ns(n))

    # -- event-driven load task ---------------------------------------------------------

    def load_task(
        self,
        env,
        queue,
        pattern: TrafficPattern,
        n_packets: int,
        craft,
        batch: int = 32,
        counter=None,
    ):
        """Slave task: transmit ``n_packets`` valid packets with the pattern.

        ``craft(buf, index)`` fills each valid packet.  Filler frames carry
        an intentionally corrupted FCS, so any receiving NIC drops them
        before queue assignment.  The wire stays saturated: the transmit
        queue needs no hardware rate control (Figure 9).
        """
        pool = MemPool(
            n_buffers=max(4096, 4 * batch * 8),
            buf_capacity=2048,
        )
        gaps = pattern.gaps_ns(n_packets)
        plan = self.plan(gaps)
        fillers_of, idle_bytes = plan.fillers_of, plan.idle_bytes
        sent = 0
        bufs = pool.buf_array(1)  # re-planned per frame for exact sizes
        while sent < n_packets and env.running():
            # One valid packet...
            bufs.alloc(self.frame_size - units.FCS_SIZE)
            craft(bufs[0], sent)
            yield queue.send(bufs)
            if counter is not None:
                counter.update_with_size(1, self.frame_size)
            # ...then its fillers.
            for wire_len in fillers_of[idle_bytes[sent]]:
                filler_size = wire_len - units.WIRE_OVERHEAD  # incl. FCS
                bufs.alloc(filler_size - units.FCS_SIZE)
                bufs[0].corrupt_fcs = True
                bufs[0].eth_packet.fill(
                    eth_src="02:00:00:00:00:ff", eth_dst="ff:ff:ff:ff:ff:ff"
                )
                yield queue.send(bufs)
            sent += 1


def effective_pps(plan: FillPlan) -> float:
    """Average valid-packet rate the plan realises."""
    total_ns = float(np.sum(plan.actual_gaps_ns))
    return len(plan.actual_gaps_ns) / (total_ns / 1e9)


def crc_rate_control_frame_rate(plan: FillPlan) -> float:
    """Total frame rate (valid + fillers) the NIC must sustain.

    Useful to check against the short-frame limit (Section 8.1: 15.6 Mpps).
    """
    total_ns = float(np.sum(plan.actual_gaps_ns))
    frames = len(plan.actual_gaps_ns) + plan.n_fillers
    return frames / (total_ns / 1e9)
