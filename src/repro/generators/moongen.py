"""MoonGen departure-time models.

Two mechanisms, matching the paper:

* :class:`MoonGenHwRateModel` — CBR from the NIC's hardware rate limiter.
  The pacer runs off an internal clock, so inter-departure times oscillate
  around the target by up to ±256 ns at GbE while avoiding bursts almost
  completely (Section 7.3, Figure 8, Table 4).
* :class:`MoonGenCrcGapModel` — the Section 8 CRC-gap mechanism: gaps are
  realised by filler frames, so precision equals byte granularity plus the
  skip-and-stretch error for sub-minimum gaps; any traffic pattern works.
"""

from __future__ import annotations

from typing import Optional

from repro._optional import np, require_numpy

from repro import units
from repro.core.ratecontrol import (
    CbrPattern,
    GapFiller,
    TrafficPattern,
)
from repro.generators.base import (
    DepartureModel,
    MixtureComponent,
    RateProfile,
    enforce_wire_spacing,
)

#: Calibrated hardware-pacer deviation profiles (Table 4, MoonGen rows).
#: Deviations are multiples of the 82580's 64 ns measurement grid.
_HW_PROFILE_500K = RateProfile(
    pps=500_000,
    components=(
        MixtureComponent(0.0, 0.200),
        MixtureComponent(64.0, 0.150, symmetric=True),
        MixtureComponent(128.0, 0.125, symmetric=True),
        MixtureComponent(192.0, 0.090, symmetric=True),
        MixtureComponent(256.0, 0.034, symmetric=True),
        MixtureComponent(576.0, 0.0005, symmetric=True),
    ),
    burst_fraction=0.0002,
    burst_run=1,
)

_HW_PROFILE_1000K = RateProfile(
    pps=1_000_000,
    components=(
        MixtureComponent(0.0, 0.250),
        MixtureComponent(64.0, 0.1275, symmetric=True),
        MixtureComponent(128.0, 0.0075, symmetric=True),
        MixtureComponent(192.0, 0.200, symmetric=True),
        MixtureComponent(256.0, 0.025, symmetric=True),
        MixtureComponent(288.0, 0.009, symmetric=True),
    ),
    burst_fraction=0.012,
    burst_run=1,
)


class MoonGenHwRateModel(DepartureModel):
    """CBR generated by the NIC's per-queue hardware rate limiter.

    The calibration profiles were measured at GbE; the rate-control clock
    runs 10x faster at 10 GbE (Section 7.3 predicts the precision scales
    accordingly), so deviations shrink by the speed ratio.
    """

    name = "MoonGen"

    def __init__(self, frame_size: int = units.MIN_FRAME_SIZE,
                 speed_bps: int = units.SPEED_1G) -> None:
        self.frame_size = frame_size
        self.speed_bps = speed_bps

    def gaps_ns(self, pps: float, n: int, seed: int = 0) -> np.ndarray:
        require_numpy("generator departure models")
        rng = np.random.default_rng(seed)
        scale = units.SPEED_1G / self.speed_bps
        if scale == 1.0:
            return self._apply_profile(
                _HW_PROFILE_500K, _HW_PROFILE_1000K, pps, n, rng
            )
        base_gap = units.NS_PER_S / pps
        # Sample the GbE-shaped oscillation, then shrink it to the faster
        # pacer clock while keeping the mean gap.
        gaps = self._apply_profile(
            _HW_PROFILE_500K, _HW_PROFILE_1000K, pps, n, rng
        )
        gaps = base_gap + (gaps - base_gap) * scale
        from repro.generators.base import enforce_wire_spacing
        return enforce_wire_spacing(gaps, self.frame_size, self.speed_bps)


class MoonGenCrcGapModel(DepartureModel):
    """Software rate control by filling gaps with invalid frames.

    Works for any :class:`TrafficPattern`; CBR is the default so the model
    is drop-in comparable with the hardware limiter (Figure 10).  The
    remaining imprecision is the filler byte granularity (0.8 ns at 10 GbE,
    8 ns at GbE) and skip-and-stretch for unrepresentably small gaps.
    """

    name = "MoonGen (CRC)"

    def __init__(
        self,
        frame_size: int = units.MIN_FRAME_SIZE,
        speed_bps: int = units.SPEED_10G,
        pattern: Optional[TrafficPattern] = None,
        min_filler_wire: int = 76,
    ) -> None:
        self.frame_size = frame_size
        self.speed_bps = speed_bps
        self.pattern = pattern
        self.min_filler_wire = min_filler_wire

    def _filler(self) -> GapFiller:
        return GapFiller(
            frame_size=self.frame_size,
            speed_bps=self.speed_bps,
            min_filler_wire=self.min_filler_wire,
        )

    def gaps_ns(self, pps: float, n: int, seed: int = 0) -> np.ndarray:
        pattern = self.pattern or CbrPattern(pps)
        desired = pattern.gaps_ns(n)
        plan = self._filler().plan(desired)
        return enforce_wire_spacing(
            plan.actual_gaps_ns, self.frame_size, self.speed_bps
        )

    def departures_for_pattern(self, pattern: TrafficPattern, n: int,
                               start_ns: float = 0.0) -> np.ndarray:
        """Departure times for an explicit pattern (Poisson, bursts, ...)."""
        if n == 1:
            return np.array([start_ns])
        plan = self._filler().plan(pattern.gaps_ns(n - 1))
        return plan.departure_times_ns(start_ns)
