"""Tests for clock synchronisation, drift, and the latency-probe engine."""

import random

import pytest

from repro import MoonGenEnv, Timestamper
from repro.core.timestamping import (
    clock_difference_ns,
    measure_drift,
    sync_clocks,
)
from repro.errors import TimestampingError
from repro.nicsim.clock import NicClock
from repro.nicsim.eventloop import EventLoop
from repro.nicsim.link import Cable, FIBER_OM3
from repro.nicsim.nic import CHIP_82599, CHIP_X540, CHIP_XL710


class TestClockSync:
    def test_sync_within_one_tick(self):
        """Section 6.2: synchronisation error is ±1 clock cycle (6.4 ns)."""
        loop = EventLoop()
        a = NicClock(loop, tick_ns=6.4, offset_ns=12345.6)
        b = NicClock(loop, tick_ns=6.4, offset_ns=-789.0)
        rng = random.Random(0)
        sync_clocks(a, b, rng)
        residual = a.raw_time_ns() - b.raw_time_ns()
        assert abs(residual) <= 6.4 + 1e-6

    def test_sync_robust_to_outliers(self):
        """5 % outlier reads must not corrupt the median of 7."""
        loop = EventLoop()
        worst = 0.0
        for seed in range(50):
            a = NicClock(loop, tick_ns=6.4, offset_ns=1000.0)
            b = NicClock(loop, tick_ns=6.4)
            sync_clocks(a, b, random.Random(seed))
            worst = max(worst, abs(a.raw_time_ns() - b.raw_time_ns()))
        assert worst <= 2 * 6.4  # no outlier-driven gross error

    def test_difference_measures_offset(self):
        loop = EventLoop()
        a = NicClock(loop, tick_ns=6.4, offset_ns=500.0)
        b = NicClock(loop, tick_ns=6.4, offset_ns=100.0)
        diff = clock_difference_ns(a, b, random.Random(1))
        assert diff == pytest.approx(400.0, abs=10.0)

    def test_two_port_accuracy_budget(self):
        """Worst case for two synchronized ports: 19.2 ns (Section 6.2)."""
        loop = EventLoop()
        rng = random.Random(3)
        errors = []
        for seed in range(30):
            a = NicClock(loop, tick_ns=6.4, offset_ns=rng.uniform(-1e4, 1e4))
            b = NicClock(loop, tick_ns=6.4)
            sync_clocks(a, b, random.Random(seed + 100))
            errors.append(abs(a.raw_time_ns() - b.raw_time_ns()))
        assert max(errors) <= 19.2


class TestDrift:
    def test_measures_configured_drift(self):
        """The paper's worst case: 35 µs/s between two NICs."""
        loop = EventLoop()
        a = NicClock(loop, tick_ns=6.4, drift_ppm=35.0)
        b = NicClock(loop, tick_ns=6.4, drift_ppm=0.0)
        drift = measure_drift(a, b, random.Random(0))
        assert drift == pytest.approx(35.0, abs=0.5)

    def test_no_drift_between_identical_clocks(self):
        loop = EventLoop()
        a = NicClock(loop, tick_ns=6.4)
        b = NicClock(loop, tick_ns=6.4)
        drift = measure_drift(a, b, random.Random(0))
        assert abs(drift) < 0.5

    def test_resync_bounds_drift_error(self):
        """Resyncing per probe turns 35 µs/s into a ~0.0035 % error."""
        env = MoonGenEnv(seed=2)
        a = env.config_device(0, tx_queues=1, rx_queues=1,
                              clock_drift_ppm=35.0)
        b = env.config_device(1, tx_queues=1, rx_queues=1)
        env.connect(a, b, cable=Cable(FIBER_OM3, 2.0))
        ts = Timestamper(env, a.get_tx_queue(0), b, seed=1)
        env.launch(ts.probe_task, 50, 10_000.0)
        env.wait_for_slaves(duration_ns=5_000_000)
        assert len(ts.histogram) == 50
        # True latency 320 ns; drift-free measurement despite 35 ppm.
        assert ts.histogram.median() == pytest.approx(320.0, abs=13.0)


class TestTimestamper:
    def test_requires_hw_timestamping(self):
        env = MoonGenEnv()
        a = env.config_device(0, tx_queues=1, chip=CHIP_XL710)
        b = env.config_device(1, rx_queues=1, chip=CHIP_XL710)
        with pytest.raises(TimestampingError):
            Timestamper(env, a.get_tx_queue(0), b)

    def test_udp_probe_size_restriction(self):
        """Section 6.4: UDP PTP probes below 80 B are refused."""
        env = MoonGenEnv()
        a = env.config_device(0, tx_queues=1)
        b = env.config_device(1, rx_queues=1)
        env.connect(a, b)
        with pytest.raises(TimestampingError):
            Timestamper(env, a.get_tx_queue(0), b, udp=True, pkt_size=76)

    def test_udp_probe_80b_ok(self):
        env = MoonGenEnv()
        a = env.config_device(0, tx_queues=1)
        b = env.config_device(1, rx_queues=1)
        env.connect(a, b)
        ts = Timestamper(env, a.get_tx_queue(0), b, udp=True, pkt_size=80)
        env.launch(ts.probe_task, 10, 10_000.0)
        env.wait_for_slaves(duration_ns=2_000_000)
        assert len(ts.histogram) == 10

    @pytest.mark.parametrize("udp, pkt_size", [(False, 80), (True, 80),
                                               (False, 64)])
    def test_probe_length_is_pkt_size(self, udp, pkt_size):
        """``pkt_size`` includes the FCS: each probe puts exactly that many
        bytes on the wire, and an 80 B UDP probe is still timestamped."""
        env = MoonGenEnv()
        a = env.config_device(0, tx_queues=1)
        b = env.config_device(1, rx_queues=1)
        env.connect(a, b)
        queue = a.get_tx_queue(0)
        ts = Timestamper(env, queue, b, udp=udp, pkt_size=pkt_size)
        env.launch(ts.probe_task, 3, 10_000.0)
        env.wait_for_slaves(duration_ns=1_000_000)
        assert queue.tx_packets == 3
        assert queue.tx_bytes == 3 * pkt_size
        assert len(ts.histogram) == 3

    def test_ethernet_probes_loopback(self):
        env = MoonGenEnv(seed=4)
        a = env.config_device(0, tx_queues=1, chip=CHIP_82599)
        b = env.config_device(1, rx_queues=1, chip=CHIP_82599)
        env.connect(a, b, cable=Cable(FIBER_OM3, 8.5))
        ts = Timestamper(env, a.get_tx_queue(0), b, seed=7)
        env.launch(ts.probe_task, 100, 10_000.0)
        env.wait_for_slaves(duration_ns=5_000_000)
        assert len(ts.histogram) == 100
        assert ts.lost_probes == 0
        # Section 6.1: the 8.5 m fiber shows the 345.6/358.4 bimodality.
        values = set(round(v, 1) for v in ts.histogram.samples)
        assert values <= {332.8, 345.6, 358.4, 371.2}
        assert len(values) >= 2

    def test_x540_phy_jitter_spread(self):
        from repro.nicsim.link import COPPER_CAT5E
        env = MoonGenEnv(seed=6)
        a = env.config_device(0, tx_queues=1, chip=CHIP_X540)
        b = env.config_device(1, rx_queues=1, chip=CHIP_X540)
        env.connect(a, b, cable=Cable(COPPER_CAT5E, 10.0))
        ts = Timestamper(env, a.get_tx_queue(0), b, seed=8)
        env.launch(ts.probe_task, 300, 5_000.0)
        env.wait_for_slaves(duration_ns=10_000_000)
        h = ts.histogram
        med = h.median()
        assert med == pytest.approx(2195.2, abs=7.0)
        # ±6.4 ns of the median covers >99.5 % (Section 6.1); the epsilon
        # absorbs float rounding on the exact grid boundary.
        within = h.fraction_within(med, 6.4 + 1e-6)
        assert within > 0.95
        assert h.max() - h.min() <= 64.0  # total range (Section 6.1)
