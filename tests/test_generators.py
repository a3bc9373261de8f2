"""Tests for the generator departure-time models (Table 4 calibration)."""

import numpy as np
import pytest

from repro import units
from repro.analysis import measure_interarrival
from repro.core.ratecontrol import PoissonPattern
from repro.generators import (
    MoonGenCrcGapModel,
    MoonGenHwRateModel,
    PktgenDpdkModel,
    ZsendModel,
    enforce_wire_spacing,
)
from repro.generators.base import wire_gap_ns

N = 100_000


def stats_for(model, pps, n=N, seed=42):
    departures = model.departures_ns(pps, n, seed=seed)
    return measure_interarrival(departures, pps, model.name)


class TestEnforceWireSpacing:
    def test_clamps_to_floor(self):
        gaps = enforce_wire_spacing(np.array([100.0, 2000.0, 3000.0]))
        assert gaps.min() >= wire_gap_ns() - 1e-9

    def test_preserves_total_time(self):
        raw = np.array([100.0, 2000.0, 3000.0, 4000.0])
        fixed = enforce_wire_spacing(raw)
        assert fixed.sum() == pytest.approx(raw.sum(), rel=1e-6)

    def test_untouched_when_legal(self):
        raw = np.array([1000.0, 2000.0])
        assert np.array_equal(enforce_wire_spacing(raw), raw)

    def test_bulk_untouched_by_redistribution(self):
        """Deficit absorption must not shift the central lobe."""
        raw = np.full(1000, 1000.0)
        raw[0] = 100.0  # one clamp needed
        fixed = enforce_wire_spacing(raw)
        assert np.sum(fixed == 1000.0) >= 990


class TestCommonInvariants:
    @pytest.mark.parametrize("model_cls", [
        MoonGenHwRateModel, PktgenDpdkModel, ZsendModel,
    ])
    @pytest.mark.parametrize("pps", [500e3, 750e3, 1000e3])
    def test_mean_rate_accurate(self, model_cls, pps):
        """All generators are rate-accurate; they differ in precision."""
        gaps = model_cls().gaps_ns(pps, N, seed=1)
        assert gaps.mean() == pytest.approx(1e9 / pps, rel=0.01)

    @pytest.mark.parametrize("model_cls", [
        MoonGenHwRateModel, PktgenDpdkModel, ZsendModel,
    ])
    def test_no_gap_below_wire_time(self, model_cls):
        gaps = model_cls().gaps_ns(1e6, N, seed=2)
        assert gaps.min() >= wire_gap_ns() - 1e-9

    @pytest.mark.parametrize("model_cls", [
        MoonGenHwRateModel, PktgenDpdkModel, ZsendModel,
    ])
    def test_reproducible(self, model_cls):
        a = model_cls().gaps_ns(500e3, 1000, seed=9)
        b = model_cls().gaps_ns(500e3, 1000, seed=9)
        assert np.array_equal(a, b)

    def test_departures_monotone(self):
        dep = ZsendModel().departures_ns(1e6, 10_000, seed=3)
        assert np.all(np.diff(dep) > 0)

    def test_departures_start(self):
        dep = MoonGenHwRateModel().departures_ns(1e6, 10, start_ns=500.0)
        assert dep[0] == 500.0


class TestTable4MoonGen:
    """Paper values: 500 kpps: 0.02 % bursts, 49.9/74.9/99.8/99.8 %;
    1000 kpps: 1.2 % bursts, 50.5/52/97/100 %."""

    def test_500kpps(self):
        s = stats_for(MoonGenHwRateModel(), 500e3)
        assert s.micro_burst_fraction == pytest.approx(0.0002, abs=0.0004)
        assert s.within[64.0] == pytest.approx(0.499, abs=0.05)
        assert s.within[128.0] == pytest.approx(0.749, abs=0.05)
        assert s.within[256.0] == pytest.approx(0.998, abs=0.01)

    def test_1000kpps(self):
        s = stats_for(MoonGenHwRateModel(), 1000e3)
        assert s.micro_burst_fraction == pytest.approx(0.012, abs=0.01)
        assert s.within[64.0] == pytest.approx(0.505, abs=0.05)
        assert s.within[128.0] == pytest.approx(0.52, abs=0.06)
        assert s.within[256.0] == pytest.approx(0.97, abs=0.03)

    def test_oscillation_bounded(self):
        """Section 7.3: oscillates around the target by up to ~256 ns."""
        s = stats_for(MoonGenHwRateModel(), 500e3)
        assert s.within[256.0] > 0.99


class TestTable4Pktgen:
    """Paper: 500 kpps: 0.01 % bursts, 37.7/72.3/92/94.5 %;
    1000 kpps: 14.2 % bursts, 36.7/58/70.6/95.9 %."""

    def test_500kpps(self):
        s = stats_for(PktgenDpdkModel(), 500e3)
        assert s.micro_burst_fraction < 0.005
        assert s.within[64.0] == pytest.approx(0.377, abs=0.06)
        assert s.within[128.0] == pytest.approx(0.723, abs=0.08)
        assert s.within[512.0] == pytest.approx(0.945, abs=0.03)

    def test_1000kpps_bursts(self):
        s = stats_for(PktgenDpdkModel(), 1000e3)
        assert s.micro_burst_fraction == pytest.approx(0.142, abs=0.02)
        assert s.within[64.0] == pytest.approx(0.367, abs=0.06)

    def test_bursts_grow_with_rate(self):
        low = stats_for(PktgenDpdkModel(), 500e3)
        high = stats_for(PktgenDpdkModel(), 1000e3)
        assert high.micro_burst_fraction > 10 * low.micro_burst_fraction


class TestTable4Zsend:
    """Paper: 500 kpps: 28.6 % bursts, only 13.8 % within ±512 ns;
    1000 kpps: 52 % bursts."""

    def test_500kpps_bursts(self):
        s = stats_for(ZsendModel(), 500e3)
        assert s.micro_burst_fraction == pytest.approx(0.286, abs=0.05)
        assert s.within[64.0] < 0.10
        assert s.within[512.0] < 0.35

    def test_1000kpps_bursts(self):
        s = stats_for(ZsendModel(), 1000e3)
        assert s.micro_burst_fraction == pytest.approx(0.52, abs=0.06)

    def test_zsend_worst_precision(self):
        """Figure 8's story: zsend is far worse than both alternatives."""
        for pps in (500e3, 1000e3):
            z = stats_for(ZsendModel(), pps)
            m = stats_for(MoonGenHwRateModel(), pps)
            p = stats_for(PktgenDpdkModel(), pps)
            assert z.within[64.0] < p.within[64.0] < m.within[64.0] + 0.2
            # Paper ratios: 28.6 vs 0.01 % at 500 k, 52 vs 14.2 % at 1000 k.
            assert z.micro_burst_fraction > 3 * p.micro_burst_fraction


class TestOrdering:
    def test_moongen_most_precise(self):
        """The headline of Table 4: hardware rate control wins."""
        for pps in (500e3, 1000e3):
            m = stats_for(MoonGenHwRateModel(), pps, n=50_000)
            p = stats_for(PktgenDpdkModel(), pps, n=50_000)
            assert m.within[64.0] > p.within[64.0]
            assert m.micro_burst_fraction <= p.micro_burst_fraction + 0.001


class TestCrcGapModel:
    def test_cbr_near_perfect(self):
        """Section 8: the CRC method beats even hardware rate control."""
        model = MoonGenCrcGapModel()
        s = measure_interarrival(
            model.departures_ns(1e6, 50_000), 1e6, "crc",
            speed_bps=units.SPEED_10G,
        )
        assert s.within[64.0] > 0.999
        assert s.micro_burst_fraction < 0.001

    def test_pattern_support(self):
        model = MoonGenCrcGapModel()
        dep = model.departures_for_pattern(PoissonPattern(1e6, seed=4), 20_000)
        gaps = np.diff(dep)
        assert gaps.mean() == pytest.approx(1000.0, rel=0.02)
        # Exponential shape survives the filler quantization.
        assert gaps.std() == pytest.approx(gaps.mean(), rel=0.1)

    def test_pattern_single_packet(self):
        """One packet has no gap to plan: it leaves at ``start_ns``, as
        ``departures_ns(pps, 1)`` does."""
        model = MoonGenCrcGapModel()
        dep = model.departures_for_pattern(PoissonPattern(1e6, seed=4), 1,
                                           start_ns=5.0)
        assert dep.tolist() == [5.0]
        assert dep.tolist() == model.departures_ns(1e6, 1, start_ns=5.0).tolist()

    def test_skip_and_stretch_precision(self):
        """±30 ns worst case for unrepresentable gaps (Section 8.4)."""
        model = MoonGenCrcGapModel()
        gaps = model.gaps_ns(10e6, 10_000)  # 100 ns gaps: 32.8 ns idle
        deviation = np.abs(gaps - 100.0)
        assert deviation.max() <= 61.0
        assert gaps.mean() == pytest.approx(100.0, rel=0.01)
