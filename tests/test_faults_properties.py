"""Property-based chaos tests: invariants under *arbitrary* fault plans.

Hypothesis composes random plans out of every schedulable fault kind and
runs each through the canonical chaos scenario.  Whatever the plan:

* conservation holds — every frame the wire accepted is received, CRC-
  dropped, fault-dropped, or still in flight,
* ``loss_fraction`` is a fraction,
* the event loop terminates (no fault combination deadlocks the run),
* the run is deterministic: the same plan replays to the same
  fingerprint.
"""

from hypothesis import given, settings, strategies as st

from repro.faults import (
    BurstLoss,
    ClockDrift,
    ClockStep,
    CorruptionBurst,
    DmaSlowdown,
    FaultPlan,
    LinkFlap,
    QueueStall,
    RingFreeze,
)
from repro.scenarios import run_plan
from tests._hypothesis_profiles import property_settings

SETTINGS = property_settings(12)

#: Every window fits inside the 2.5 ms simulated run.
_START = st.integers(min_value=0, max_value=2_000_000)
_LENGTH = st.integers(min_value=1_000, max_value=1_500_000)
_PROB = st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False)


def _windowed(cls, **fixed):
    return st.builds(
        lambda start, length, kw: cls(start_ns=float(start),
                                      end_ns=float(start + length), **kw),
        _START, _LENGTH, st.fixed_dictionaries(fixed),
    )


_FAULT = st.one_of(
    _windowed(BurstLoss, target=st.just("wire:0->1"),
              p_good_bad=_PROB, p_bad_good=_PROB,
              loss_good=_PROB, loss_bad=_PROB),
    _windowed(CorruptionBurst, target=st.just("wire:0->1"), rate=_PROB),
    _windowed(LinkFlap, target=st.sampled_from(["port:0", "port:1"])),
    _windowed(QueueStall, target=st.just("port:0"),
              queue=st.integers(min_value=0, max_value=1)),
    _windowed(DmaSlowdown, target=st.sampled_from(["port:0", "port:1"]),
              factor=st.floats(min_value=1.0, max_value=32.0)),
    _windowed(RingFreeze, target=st.just("port:1"), queue=st.just(0)),
    st.builds(ClockStep, target=st.sampled_from(["port:0", "port:1"]),
              at_ns=st.integers(min_value=0, max_value=2_400_000).map(float),
              step_ns=st.floats(min_value=-5_000.0, max_value=5_000.0)),
    st.builds(ClockDrift, target=st.sampled_from(["port:0", "port:1"]),
              at_ns=st.integers(min_value=0, max_value=2_400_000).map(float),
              drift_ppm=st.floats(min_value=-200.0, max_value=200.0)),
)

_PLAN = st.builds(
    lambda faults, seed: FaultPlan(faults=tuple(faults), seed=seed),
    st.lists(_FAULT, min_size=0, max_size=4),
    st.integers(min_value=0, max_value=7),
)


class TestChaosProperties:
    @settings(**SETTINGS)
    @given(_PLAN)
    def test_conservation_and_bounded_loss(self, plan):
        # run_plan terminating at all *is* the no-deadlock property: the
        # horizon stops well-formed tasks and stragglers are killed only
        # after the event queue drains.
        result = run_plan(plan, duration_ns=2_500_000.0, rate_pps=1e6)
        assert result["wire_sent"] == (result["rx_packets"]
                                       + result["rx_crc_errors"]
                                       + result["wire_dropped"]
                                       + result["wire_in_flight"])
        assert 0.0 <= result["loss_fraction"] <= 1.0
        assert result["seq_lost"] >= 0
        assert result["seq_gap_events"] <= max(result["seq_lost"], 0)

    @settings(**SETTINGS)
    @given(_PLAN)
    def test_replay_is_bit_identical(self, plan):
        first = run_plan(plan, duration_ns=2_000_000.0, rate_pps=1e6)
        second = run_plan(plan, duration_ns=2_000_000.0, rate_pps=1e6)
        assert first == second
