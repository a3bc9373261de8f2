"""Cross-validation: the event-driven and vectorized paths must agree.

DESIGN.md section 6 commits to two implementations sharing one
calibration: the event-driven NIC/DuT models (scripts, integration tests)
and the vectorized models (million-packet benches).  This bench runs the
same experiments through both and checks they agree — the guard against
the two paths drifting apart as the code evolves.
"""

import numpy as np
import pytest

from conftest import print_table, run_once
from repro import (CbrPattern, GapFiller, MoonGenEnv, PoissonPattern,
                   UniformBurstPattern, units)
from repro.dut import DutConfig, OvsForwarder, simulate_forwarder
from repro.nicsim.nic import SimFrame


def event_driven_dut(arrivals_ns):
    """Feed explicit arrival times through the event-driven forwarder;
    returns per-arrival latencies (NaN where the DuT dropped) and the DuT."""
    env = MoonGenEnv(seed=1)
    dut = OvsForwarder(env.loop)
    latencies = np.full(len(arrivals_ns), np.nan)

    def sink(frame, t):
        latencies[frame.meta["index"]] = (frame.meta["dut_departure_ps"]
                                          - frame.meta["dut_arrival_ps"]) / 1000.0

    def arrive(index):
        frame = SimFrame(b"\x00" * 60)
        frame.meta["index"] = index
        dut.ingress(frame, env.loop.now_ps)

    from repro.nicsim.link import Wire
    wire = Wire(env.loop, units.SPEED_10G)
    wire.connect(sink)
    dut.connect_output(wire)
    for index, t in enumerate(arrivals_ns):
        env.loop.schedule_at(round(t * 1000), lambda i=index: arrive(i))
    env.loop.run()
    return latencies, dut


#: Arrival shapes both DuT paths see, 3000 arrivals each.
DUT_SHAPES = {
    "1 Mpps CBR": lambda: CbrPattern(1e6),
    "1.8 Mpps CBR": lambda: CbrPattern(1.8e6),
    "1 Mpps Poisson": lambda: PoissonPattern(1e6),
    "1 Mpps, 16-frame bursts": lambda: UniformBurstPattern(1e6,
                                                            burst_size=16),
}

#: Poisson arrivals clump inside the moderation interval.  The fastpath
#: takes each interrupt's ITR step when the arrival that wakes the CPU is
#: processed; the event path takes it when the interrupt fires, after the
#: clump.  From the third interrupt on the two run different ITR classes
#: (29 vs 26 interrupts, latencies up to 118 us apart).  Merging the two
#: models into one per-arrival kernel must make this case pass.
POISSON_DIVERGES = pytest.mark.xfail(
    strict=True, reason="the fastpath reads the moderator's clump state "
                        "at the waking arrival, not at the interrupt")


@pytest.mark.parametrize("shape", [
    "1 Mpps CBR", "1.8 Mpps CBR", "1 Mpps, 16-frame bursts",
    pytest.param("1 Mpps Poisson", marks=POISSON_DIVERGES)])
def test_validation_dut_latency_agrees(benchmark, shape):
    """Same arrivals, same packets forwarded and dropped, same interrupts,
    same latencies: event loop vs fastpath.  The event path rounds each
    scheduled step to whole picoseconds, so a latency may differ by that
    rounding; 2 ps bounds it."""
    def experiment():
        gaps = DUT_SHAPES[shape]().gaps_ns(2999)
        arrivals = np.concatenate(([0.0], np.cumsum(gaps)))
        fast = simulate_forwarder(arrivals)
        event_lat, dut = event_driven_dut(arrivals)
        return fast, event_lat, dut

    fast, event_lat, dut = run_once(benchmark, experiment)
    fast_lat = fast.latencies_ns
    ok = ~np.isnan(fast_lat)
    worst_ps = np.abs(event_lat[ok] - fast_lat[ok]).max() * 1000.0
    rows = [
        ["forwarded", fast.forwarded, dut.forwarded],
        ["dropped", fast.dropped, dut.rx_dropped],
        ["interrupts", fast.interrupts, dut.interrupts],
        ["median latency [µs]",
         f"{np.median(fast_lat[ok]) / 1e3:.2f}",
         f"{np.nanmedian(event_lat) / 1e3:.2f}"],
        ["max per-packet |diff| [ps]", "", f"{worst_ps:.3f}"],
    ]
    print_table(f"event-driven vs vectorized DuT @ {shape}",
                ["metric", "fastpath", "event loop"], rows)
    assert dut.forwarded == fast.forwarded
    assert dut.rx_dropped == fast.dropped
    assert dut.interrupts == fast.interrupts
    assert np.array_equal(np.isnan(event_lat), ~ok)
    assert worst_ps <= 2.0


def test_validation_crc_gap_wire_schedule(benchmark):
    """The event-driven CRC-gap load task realises the planner's schedule."""
    def experiment():
        pattern = CbrPattern(2e6)
        filler = GapFiller()
        plan = filler.plan_pattern(CbrPattern(2e6), 79)

        env = MoonGenEnv(seed=2)
        tx = env.config_device(0, tx_queues=1)
        rx = env.config_device(1, rx_queues=1)
        env.connect(tx, rx)
        arrivals = []
        original = rx.port.receive

        def spy(frame, t):
            if frame.fcs_ok:
                arrivals.append(t / 1000.0)
            original(frame, t)

        tx.port.wire.connect(spy)

        def craft(buf, index):
            buf.eth_packet.fill(eth_type=0x0800)

        env.launch(filler.load_task, env, tx.get_tx_queue(0),
                   pattern, 80, craft)
        env.wait_for_slaves(duration_ns=5_000_000)
        return np.diff(arrivals), plan.actual_gaps_ns

    event_gaps, planned_gaps = run_once(benchmark, experiment)
    print_table(
        "CRC-gap schedule: plan vs wire",
        ["source", "mean gap [ns]", "max |dev| from 500 ns"],
        [
            ["planner", f"{planned_gaps.mean():.2f}",
             f"{np.abs(planned_gaps - 500).max():.2f}"],
            ["event-driven wire", f"{event_gaps.mean():.2f}",
             f"{np.abs(event_gaps - 500).max():.2f}"],
        ],
    )
    assert event_gaps.mean() == pytest.approx(planned_gaps.mean(), rel=1e-3)
    assert np.abs(event_gaps - planned_gaps[:len(event_gaps)]).max() <= 1.0


def test_validation_batch_tier_agrees(benchmark):
    """``MoonGenEnv(batch=True)`` must be invisible in the results.

    A run detector finds homogeneous event trains and executes them
    through arithmetic kernels (``repro.batch``).  Counters, bytes, and
    the final simulation clock must match the event-driven run bit for
    bit, the tier must have batched the bulk of the frames, and every
    fallback it took must carry a documented reason."""
    from repro.batch import FALLBACK_REASONS

    def run(batch):
        env = MoonGenEnv(seed=7, batch=batch)
        tx = env.config_device(0, tx_queues=1)
        rx = env.config_device(1, rx_queues=1)
        env.connect(tx, rx)

        def slave(env, queue):
            mem = env.create_mempool(
                fill=lambda b: b.udp_packet.fill(pkt_length=60))
            bufs = mem.buf_array()
            while env.running():
                bufs.alloc(60)
                yield queue.send(bufs)

        env.launch(slave, env, tx.get_tx_queue(0))
        env.wait_for_slaves(duration_ns=2_000_000)
        counters = {
            "tx_packets": tx.tx_packets,
            "tx_bytes": tx.tx_bytes,
            "rx_packets": rx.rx_packets,
            "rx_bytes": rx.rx_bytes,
            "rx_missed": rx.rx_missed,
            "now_ps": env.loop.now_ps,
        }
        return counters, env.loop.events_processed, env.batch

    def experiment():
        return run(batch=False), run(batch=True)

    (plain, plain_events, plain_tier), (batched, batch_events, tier) = \
        run_once(benchmark, experiment)
    stats = tier.stats()
    print_table(
        "batch tier vs event-driven @ 10 GbE line rate",
        ["metric", "event-driven", "batch tier"],
        [["tx_packets", plain["tx_packets"], batched["tx_packets"]],
         ["rx_packets", plain["rx_packets"], batched["rx_packets"]],
         ["events processed", plain_events, batch_events],
         ["frames batched", 0, stats["frames"]],
         ["trains", 0, stats["trains"]],
         ["events saved", 0, stats["events_saved"]]],
    )
    assert plain_tier is None
    assert batched == plain, "batch tier changed simulation results"
    assert stats["trains"] > 0, "batch tier never engaged"
    assert stats["frames"] > 0.5 * batched["tx_packets"], \
        "batch tier fell back for most frames"
    assert batch_events < plain_events, "batch tier saved no events"
    # events_saved counts 2 per batched frame; the train's own _mac_done
    # still runs as an event, so the effective total undercounts the
    # event-driven run by about one event per train.
    assert batch_events + stats["events_saved"] >= 0.95 * plain_events
    assert set(stats["fallbacks"]) <= set(FALLBACK_REASONS)


def test_validation_hw_rate_average(benchmark):
    """The event-driven hardware limiter and the vectorized model agree on
    the average rate (their jitter models differ by design: the event
    limiter is the mechanism, the vectorized model is calibrated to the
    measured Table 4 spread)."""
    def experiment():
        env = MoonGenEnv(seed=3)
        tx = env.config_device(0, tx_queues=1)
        rx = env.config_device(1, rx_queues=1)
        env.connect(tx, rx)
        queue = tx.get_tx_queue(0)
        queue.set_rate_pps(1e6, 64)
        times = []
        tx.port.tx_observers.append(lambda f, t: times.append(t))

        def slave(env, queue):
            mem = env.create_mempool()
            bufs = mem.buf_array(32)
            sent = 0
            while env.running() and sent < 500:
                bufs.alloc(60)
                sent += yield queue.send(bufs)

        env.launch(slave, env, queue)
        env.wait_for_slaves(duration_ns=2_000_000)
        gaps = np.diff(times) / 1000.0
        from repro.generators import MoonGenHwRateModel
        model_gaps = MoonGenHwRateModel(
            speed_bps=units.SPEED_10G).gaps_ns(1e6, 2000, seed=3)
        return gaps, model_gaps

    event_gaps, model_gaps = run_once(benchmark, experiment)
    print_table(
        "hardware CBR @ 1 Mpps: event mechanism vs calibrated model",
        ["source", "mean gap [ns]"],
        [
            ["event-driven limiter", f"{event_gaps.mean():.2f}"],
            ["vectorized model", f"{model_gaps.mean():.2f}"],
        ],
    )
    assert event_gaps.mean() == pytest.approx(1000.0, rel=0.005)
    assert model_gaps.mean() == pytest.approx(1000.0, rel=0.005)
