"""Differential properties: the offline planner and DuT fastpath kernels
against the reference per-element loops in ``_offline_oracles.py``.

Both kernels run on plain Python floats; the oracles run the original
loops on numpy scalars.  Every output must be bit-identical.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.analysis.precision import cbr_filler_schedule
from repro.core.ratecontrol import (
    CbrPattern,
    GapFiller,
    PoissonPattern,
    idle_byte_counts,
)
from repro.dut.fastpath import simulate_forwarder
from repro.dut.interrupts import ItrConfig
from tests._hypothesis_profiles import property_settings
from tests._offline_oracles import forwarder_oracle, plan_oracle

SETTINGS = property_settings()

FRAME_SIZES = st.sampled_from([64, 128, 512, 1518])
SPEEDS = st.sampled_from([units.SPEED_1G, units.SPEED_10G])
MIN_FILLERS = st.sampled_from([33, 64, 76, 200])


@st.composite
def fillers(draw):
    return GapFiller(frame_size=draw(FRAME_SIZES), speed_bps=draw(SPEEDS),
                     min_filler_wire=draw(MIN_FILLERS))


@st.composite
def gap_sequences(draw, filler):
    """Runs of equal gaps, each run's gap measured in idle bytes over the
    frame's wire time: zero gaps, gaps below the minimum filler
    (skip-and-stretch), representable gaps, and gaps longer than one
    maximum filler (split)."""
    byte_ns = filler.byte_time_ns
    min_gap_ns = filler.pkt_wire_bytes * byte_ns
    idle = st.one_of(
        st.floats(0.0, float(filler.min_filler_wire)),
        st.floats(0.0, 2.0 * filler.max_filler_wire + filler.min_filler_wire),
        st.integers(0, 4 * filler.max_filler_wire).map(float),
        # Exact halves (at 1 GbE) pin round()'s half-to-even.
        st.integers(0, 4 * filler.max_filler_wire).map(lambda k: k + 0.5),
    )
    runs = draw(st.lists(st.tuples(idle, st.integers(1, 20)),
                         min_size=1, max_size=25))
    gaps = [min_gap_ns + extra * byte_ns for extra, count in runs
            for _ in range(count)]
    # Back-to-back packets (gap 0) are legal as long as the mean is not
    # above line rate; pay for them with one long gap at the end.
    n_zero = draw(st.integers(0, 5))
    for i in draw(st.lists(st.integers(0, len(gaps) - 1),
                           min_size=n_zero, max_size=n_zero)):
        gaps[i] = 0.0
    deficit = len(gaps) * min_gap_ns - sum(gaps)
    if deficit > 0:
        gaps.append(min_gap_ns + deficit + byte_ns)
    return gaps


def assert_plan_matches_oracle(filler, gaps):
    plan = filler.plan(gaps)
    expected_fillers, expected_actual = plan_oracle(filler, gaps)
    assert plan.idle_bytes == [sum(f) for f in expected_fillers]
    assert plan.actual_gaps_ns.tobytes() == expected_actual.tobytes()
    assert plan.filler_wire_bytes == expected_fillers
    assert plan.n_fillers == sum(len(f) for f in expected_fillers)
    return plan


class TestPlannerMatchesOracle:
    @settings(**SETTINGS)
    @given(st.data())
    def test_random_gap_sequences(self, data):
        filler = data.draw(fillers())
        gaps = data.draw(gap_sequences(filler))
        assert_plan_matches_oracle(filler, gaps)
        # ndarray input takes the no-copy path; same plan.
        assert_plan_matches_oracle(filler, np.array(gaps))

    @settings(**SETTINGS)
    @given(fillers(), st.floats(0.001, 1.0), st.integers(1, 3000))
    def test_cbr_at_random_rates(self, filler, load, n):
        line_pps = units.line_rate_pps(filler.frame_size, filler.speed_bps)
        gaps = CbrPattern(load * line_pps).gaps_ns(n)
        assert_plan_matches_oracle(filler, gaps)

    @settings(**SETTINGS)
    @given(fillers(), st.floats(0.01, 0.9), st.integers(0, 2**31 - 1),
           st.integers(1, 3000))
    def test_poisson(self, filler, load, seed, n):
        line_pps = units.line_rate_pps(filler.frame_size, filler.speed_bps)
        gaps = PoissonPattern(load * line_pps, seed=seed).gaps_ns(n)
        if gaps.mean() < filler.pkt_wire_bytes * filler.byte_time_ns:
            gaps[-1] += filler.pkt_wire_bytes * filler.byte_time_ns * n
        assert_plan_matches_oracle(filler, gaps)

    @settings(**SETTINGS)
    @given(fillers(), st.floats(0.001, 1.0))
    def test_numpy_free_cbr_schedule(self, filler, load):
        """``cbr_filler_schedule`` feeds the same kernel an endless
        stream; its prefix equals the planned constant sequence."""
        line_pps = units.line_rate_pps(filler.frame_size, filler.speed_bps)
        gap_ns = units.NS_PER_S / (load * line_pps)
        expected, _ = plan_oracle(filler, [gap_ns] * 200)
        schedule = cbr_filler_schedule(filler, gap_ns)
        assert list(itertools.islice(schedule, 200)) == expected

    def test_ties_round_half_to_even(self):
        """At 1 GbE a 4 ns surplus is exactly half a byte."""
        filler = GapFiller(speed_bps=units.SPEED_1G)
        gap_ns = filler.pkt_wire_bytes * 8.0 + 100 * 8.0 + 4.0
        plan = assert_plan_matches_oracle(filler, [gap_ns] * 4)
        assert plan.idle_bytes == [100, 101, 100, 101]

    def test_kernel_is_lazy_and_numpy_free(self):
        counts = idle_byte_counts(itertools.repeat(1000.0), 67.2, 0.8, 76)
        assert list(itertools.islice(counts, 3)) == [1166, 1166, 1166]

    def test_filler_lists_are_independent(self):
        plan = GapFiller().plan([1000.0] * 3)
        plan.filler_wire_bytes[0].append(99)
        assert plan.filler_wire_bytes[1] == [1166]
        assert plan.fillers_of[1166] == [1166]


ITR_CONFIGS = st.builds(
    ItrConfig,
    lowest_rate_hz=st.sampled_from([150_000.0, 1e6]),
    low_rate_hz=st.sampled_from([20_000.0, 100_000.0]),
    bulk_rate_hz=st.sampled_from([8_000.0, 2_000.0]),
    clump_window_ns=st.floats(0.0, 1000.0),
    clump_degrade=st.integers(2, 5),
    clump_recover=st.integers(0, 2),
    bytes_degrade=st.sampled_from([1_000, 24_000]),
    bytes_recover=st.sampled_from([500, 12_000]),
    interrupt_overhead_ns=st.floats(0.0, 5_000.0),
)


@st.composite
def arrival_times(draw):
    """Sorted arrivals: back-to-back clumps, ties, and idle stretches."""
    gaps = draw(st.lists(st.one_of(
        st.just(0.0),
        st.floats(0.0, 300.0),
        st.floats(300.0, 20_000.0),
        st.floats(1e5, 1e6),
    ), min_size=1, max_size=400))
    start = draw(st.floats(0.0, 1e6))
    return np.cumsum([start] + gaps)


class TestForwarderMatchesOracle:
    @settings(**SETTINGS)
    @given(arrival_times(), st.sampled_from([1, 2, 4, 64, 4096]),
           ITR_CONFIGS, st.sampled_from([64, 512, 1518]),
           st.floats(10.0, 2_000.0), st.floats(0.0, 20_000.0))
    def test_random_arrivals(self, arrivals, ring_size, itr, pkt_size,
                             service_ns, pipeline_ns):
        result = simulate_forwarder(
            arrivals, pkt_size=pkt_size, service_ns=service_ns,
            ring_size=ring_size, itr=itr, pipeline_ns=pipeline_ns)
        departures, dropped, moderator = forwarder_oracle(
            arrivals, pkt_size, service_ns, ring_size, itr, pipeline_ns)
        assert result.departures_ns.tobytes() == departures.tobytes()
        assert result.latencies_ns.tobytes() == \
            (departures - arrivals).tobytes()
        assert result.dropped == dropped
        assert result.interrupts == moderator.interrupts
        assert result.moderator.class_history == moderator.class_history
        # Every counter, clump and period field ends in the same state.
        assert vars(result.moderator) == vars(moderator)

    def test_default_config_overload(self):
        """An overloaded default DuT drops, and still matches."""
        arrivals = np.arange(20_000) * 300.0
        result = simulate_forwarder(arrivals)
        departures, dropped, moderator = forwarder_oracle(
            arrivals, 64, 526.0, 4096, ItrConfig(), 15_000.0)
        assert dropped > 0
        assert result.departures_ns.tobytes() == departures.tobytes()
        assert vars(result.moderator) == vars(moderator)


@pytest.mark.parametrize("frame_size", [64, 1518])
def test_rfc2544_probe_points_match_oracle(frame_size):
    """The ledger's sweep shape: CRC-gap CBR planned, then forwarded."""
    filler = GapFiller(frame_size=frame_size)
    line_pps = units.line_rate_pps(frame_size, units.SPEED_10G)
    for load in (1.0, 0.5, 0.13, 0.01):
        gaps = CbrPattern(load * line_pps).gaps_ns(2_000)
        plan = assert_plan_matches_oracle(filler, gaps)
        arrivals = plan.departure_times_ns()
        result = simulate_forwarder(arrivals, pkt_size=frame_size)
        departures, dropped, _ = forwarder_oracle(
            arrivals, frame_size, 526.0, 4096, ItrConfig(), 15_000.0)
        assert result.departures_ns.tobytes() == departures.tobytes()
        assert result.dropped == dropped
