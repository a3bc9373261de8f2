"""Tests for the simulated NIC ports: rings, MAC, rate control, timestamps."""

import pytest

from repro import units
from repro.errors import ConfigurationError, QueueError
from repro.nicsim.eventloop import EventLoop
from repro.nicsim.link import Wire
from repro.nicsim.nic import (
    CHIP_82580,
    CHIP_82599,
    CHIP_X540,
    CHIP_XL710,
    NicCard,
    NicPort,
    SimFrame,
)
from repro.packet import PacketData


def udp_frame(size=60, dst_port=42):
    pkt = PacketData(size)
    pkt.udp_packet.fill(pkt_length=size, udp_dst=dst_port)
    return SimFrame(pkt.bytes())


def ptp_frame(seq=1):
    pkt = PacketData(60)
    pkt.ptp_packet.fill(ptp_sequence=seq)
    return SimFrame(pkt.bytes())


def udp_ptp_frame(size=76, seq=1):
    pkt = PacketData(size)
    pkt.udp_ptp_packet.fill(pkt_length=size, ptp_sequence=seq)
    return SimFrame(pkt.bytes())


class TestSimFrame:
    def test_size_includes_fcs(self):
        frame = SimFrame(b"\x00" * 60)
        assert frame.size == 64
        assert frame.wire_size == 84

    def test_is_ptp_ethernet(self):
        assert ptp_frame().is_ptp()

    def test_is_ptp_udp(self):
        assert udp_ptp_frame(size=76).is_ptp()  # 80 B with FCS

    def test_udp_ptp_below_80_bytes_refused(self):
        # Section 6.4: UDP PTP packets below 80 B are not timestamped.
        assert not udp_ptp_frame(size=74).is_ptp()

    def test_plain_udp_not_ptp(self):
        assert not udp_frame().is_ptp()

    def test_wrong_ptp_version_not_matched(self):
        pkt = PacketData(60)
        p = pkt.ptp_packet
        p.fill()
        p.ptp.version = 1
        assert not SimFrame(pkt.bytes()).is_ptp()

    def test_ptp_sequence_ethernet(self):
        assert ptp_frame(seq=777).ptp_sequence() == 777

    def test_ptp_sequence_udp(self):
        assert udp_ptp_frame(seq=333).ptp_sequence() == 333

    def test_sequence_of_non_ptp(self):
        frame = SimFrame(b"\x00" * 60)
        assert frame.ptp_sequence() is None

    def test_frames_get_unique_seq(self):
        a, b = SimFrame(b"\x00" * 60), SimFrame(b"\x00" * 60)
        assert a.seq != b.seq


class TestChips:
    def test_queue_counts(self):
        # Section 3.3: 128 queues on the X540 and 82599.
        assert CHIP_X540.queues == 128
        assert CHIP_82599.queues == 128

    def test_x540_fifo_size(self):
        # Section 3.2: the 160 kB transmit buffer conceals pause times.
        assert CHIP_X540.tx_fifo_bytes == 160 * 1024

    def test_82580_timestamps_all(self):
        assert CHIP_82580.timestamp_all_rx
        assert CHIP_82580.speed_bps == units.SPEED_1G

    def test_82599_latch_grid(self):
        assert CHIP_82599.latch_ticks == 2  # 12.8 ns latch (Section 6.1)
        assert CHIP_X540.latch_ticks == 1

    def test_xl710_limits(self):
        assert not CHIP_XL710.hw_timestamping  # Section 3.3
        assert CHIP_XL710.card_max_pps == 42e6  # Section 5.4
        assert CHIP_XL710.card_max_bps == 50e9

    def test_queue_limit_enforced(self):
        with pytest.raises(ConfigurationError):
            NicPort(EventLoop(), chip=CHIP_X540, n_tx_queues=129)


class TestTxPath:
    def make_port(self, **kwargs):
        loop = EventLoop()
        port = NicPort(loop, chip=CHIP_X540, **kwargs)
        wire = Wire(loop, port.speed_bps)
        port.attach_wire(wire)
        return loop, port, wire

    def test_line_rate_emerges(self):
        loop, port, wire = self.make_port()
        queue = port.get_tx_queue(0)
        frames = [udp_frame() for _ in range(100)]
        assert queue.enqueue(frames) == 100
        loop.run()
        assert port.tx_packets == 100
        pps = 100 / (loop.now_ps / 1e12)
        assert pps == pytest.approx(units.LINE_RATE_10G_64B_PPS, rel=0.02)

    def test_ring_capacity(self):
        loop, port, wire = self.make_port()
        queue = port.get_tx_queue(0)
        frames = [udp_frame() for _ in range(600)]
        accepted = queue.enqueue(frames)
        # One descriptor is fetched synchronously by the MAC kick.
        assert 512 <= accepted <= 513

    def test_space_signal_on_fetch(self):
        loop, port, wire = self.make_port()
        queue = port.get_tx_queue(0)
        woke = []
        queue.space_signal.wait(lambda v: woke.append(loop.now_ps))
        queue.enqueue([udp_frame() for _ in range(514)])
        loop.run()
        assert woke  # the NIC's descriptor fetch freed ring slots

    def test_round_robin_across_queues(self):
        loop = EventLoop()
        port = NicPort(loop, chip=CHIP_X540, n_tx_queues=2)
        port.attach_wire(Wire(loop, port.speed_bps))
        order = []
        port.tx_observers.append(lambda f, t: order.append(f.meta["q"]))
        # Fill both rings before the NIC starts fetching so the descriptor
        # DMA sees both queues pending (enqueue() would kick immediately).
        for q in (0, 1):
            for _ in range(10):
                f = udp_frame()
                f.meta["q"] = q
                port.tx_queues[q].ring.append(f)
        port._mac_kick()
        loop.run()
        # Both queues interleave rather than one starving the other.
        assert order[:4].count(0) == 2 and order[:4].count(1) == 2

    def test_recycle_hook_called(self):
        loop, port, wire = self.make_port()
        recycled = []
        frame = udp_frame()
        frame.recycle = lambda: recycled.append(True)
        port.get_tx_queue(0).enqueue([frame])
        loop.run()
        assert recycled == [True]

    def test_unknown_queue(self):
        loop, port, wire = self.make_port()
        with pytest.raises(QueueError):
            port.get_tx_queue(5)

    def test_observers_see_departures(self):
        loop, port, wire = self.make_port()
        times = []
        port.tx_observers.append(lambda f, t: times.append(t))
        port.get_tx_queue(0).enqueue([udp_frame() for _ in range(5)])
        loop.run()
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == 84 * 800 for g in gaps)  # back-to-back


class TestHardwareRateControl:
    def test_rate_limiter_spacing(self):
        loop = EventLoop()
        port = NicPort(loop, chip=CHIP_X540)
        port.attach_wire(Wire(loop, port.speed_bps))
        queue = port.get_tx_queue(0)
        queue.set_rate_pps(1e6, 64)  # 1 Mpps CBR
        times = []
        port.tx_observers.append(lambda f, t: times.append(t))
        queue.enqueue([udp_frame() for _ in range(50)])
        loop.run()
        gaps_ns = [(b - a) / 1000 for a, b in zip(times, times[1:])]
        avg = sum(gaps_ns) / len(gaps_ns)
        assert avg == pytest.approx(1000.0, rel=0.01)
        # CBR, not bursts: every gap is near the target.
        assert all(500 < g < 1500 for g in gaps_ns)

    def test_rate_zero_disables(self):
        loop = EventLoop()
        port = NicPort(loop, chip=CHIP_X540)
        queue = port.get_tx_queue(0)
        queue.set_rate(0)
        assert queue.rate_bps == 0

    def test_no_rate_control_on_82580(self):
        loop = EventLoop()
        port = NicPort(loop, chip=CHIP_82580)
        with pytest.raises(ConfigurationError):
            port.get_tx_queue(0).set_rate(100)

    def test_negative_rate_rejected(self):
        loop = EventLoop()
        port = NicPort(loop, chip=CHIP_X540)
        with pytest.raises(ConfigurationError):
            port.get_tx_queue(0).set_rate(-5)

    def test_average_rate_exact_with_dithering(self):
        """Quantization dithers but the long-run average stays exact."""
        loop = EventLoop()
        port = NicPort(loop, chip=CHIP_X540)
        port.attach_wire(Wire(loop, port.speed_bps))
        queue = port.get_tx_queue(0)
        queue.set_rate_pps(3e6, 64)
        times = []
        port.tx_observers.append(lambda f, t: times.append(t))
        queue.enqueue([udp_frame() for _ in range(400)])
        loop.run()
        duration_s = (times[-1] - times[0]) / 1e12
        assert 399 / duration_s == pytest.approx(3e6, rel=0.005)


class TestRxPath:
    def wire_pair(self):
        loop = EventLoop()
        tx = NicPort(loop, chip=CHIP_X540, port_id=0)
        rx = NicPort(loop, chip=CHIP_X540, port_id=1)
        wire = Wire(loop, tx.speed_bps)
        wire.connect(rx.receive)
        tx.attach_wire(wire)
        return loop, tx, rx

    def test_delivery_to_ring(self):
        loop, tx, rx = self.wire_pair()
        tx.get_tx_queue(0).enqueue([udp_frame() for _ in range(10)])
        loop.run()
        assert rx.rx_packets == 10
        assert len(rx.rx_queues[0].ring) == 10

    def test_bad_crc_dropped_before_queue(self):
        """Section 8: invalid frames only bump an error counter."""
        loop, tx, rx = self.wire_pair()
        bad = udp_frame()
        bad.fcs_ok = False
        tx.get_tx_queue(0).enqueue([bad, udp_frame()])
        loop.run()
        assert rx.rx_crc_errors == 1
        assert rx.rx_packets == 1
        assert len(rx.rx_queues[0].ring) == 1

    def test_ring_overflow_counts_missed(self):
        loop, tx, rx = self.wire_pair()
        rx.rx_queues[0].ring_size = 5
        tx.get_tx_queue(0).enqueue([udp_frame() for _ in range(10)])
        loop.run()
        assert rx.rx_missed == 5
        assert rx.rx_queues[0].rx_packets == 5

    def test_rx_filter_dispatch(self):
        loop = EventLoop()
        tx = NicPort(loop, chip=CHIP_X540, port_id=0)
        rx = NicPort(loop, chip=CHIP_X540, port_id=1, n_rx_queues=2)
        wire = Wire(loop, tx.speed_bps)
        wire.connect(rx.receive)
        tx.attach_wire(wire)
        rx.set_rx_filter(lambda frame: frame.data[37] & 1)  # UDP dst port LSB
        tx.get_tx_queue(0).enqueue([udp_frame(dst_port=2), udp_frame(dst_port=3)])
        loop.run()
        assert rx.rx_queues[0].rx_packets == 1
        assert rx.rx_queues[1].rx_packets == 1

    def test_fetch_drains_ring(self):
        loop, tx, rx = self.wire_pair()
        tx.get_tx_queue(0).enqueue([udp_frame() for _ in range(10)])
        loop.run()
        got = rx.rx_queues[0].fetch(6)
        assert len(got) == 6
        assert len(rx.rx_queues[0].ring) == 4


class TestTimestampRegisters:
    def wire_pair(self, chip=CHIP_X540):
        loop = EventLoop()
        tx = NicPort(loop, chip=chip, port_id=0)
        rx = NicPort(loop, chip=chip, port_id=1)
        wire = Wire(loop, tx.speed_bps)
        wire.connect(rx.receive)
        tx.attach_wire(wire)
        return loop, tx, rx

    def send_probe(self, loop, tx, seq=1):
        frame = ptp_frame(seq=seq)
        frame.meta["timestamp"] = True
        tx.get_tx_queue(0).enqueue([frame])
        loop.run()

    def test_tx_timestamp_latched(self):
        loop, tx, rx = self.wire_pair()
        self.send_probe(loop, tx, seq=5)
        stamp = tx.read_tx_timestamp()
        assert stamp is not None
        value, seq = stamp
        assert seq == 5

    def test_register_cleared_on_read(self):
        loop, tx, rx = self.wire_pair()
        self.send_probe(loop, tx)
        assert tx.read_tx_timestamp() is not None
        assert tx.read_tx_timestamp() is None

    def test_only_one_in_flight(self):
        """Section 6: the register must be read back before the next stamp."""
        loop, tx, rx = self.wire_pair()
        frames = []
        for seq in (1, 2):
            f = ptp_frame(seq=seq)
            f.meta["timestamp"] = True
            frames.append(f)
        tx.get_tx_queue(0).enqueue(frames)
        loop.run()
        value, seq = tx.read_tx_timestamp()
        assert seq == 1  # the second stamp was missed
        assert tx.timestamp_missed >= 1

    def test_rx_timestamp_for_ptp(self):
        loop, tx, rx = self.wire_pair()
        self.send_probe(loop, tx, seq=9)
        stamp = rx.read_rx_timestamp()
        assert stamp is not None
        assert stamp[1] == 9

    def test_rx_ignores_plain_udp(self):
        loop, tx, rx = self.wire_pair()
        tx.get_tx_queue(0).enqueue([udp_frame()])
        loop.run()
        assert rx.read_rx_timestamp() is None

    def test_non_ptp_never_latches_tx(self):
        loop, tx, rx = self.wire_pair()
        frame = udp_frame()
        frame.meta["timestamp"] = True  # requested, but not a PTP packet
        tx.get_tx_queue(0).enqueue([frame])
        loop.run()
        assert tx.read_tx_timestamp() is None

    def test_82580_stamps_every_packet(self):
        loop, tx, rx = self.wire_pair(chip=CHIP_82580)
        tx.get_tx_queue(0).enqueue([udp_frame() for _ in range(3)])
        loop.run()
        frames = rx.rx_queues[0].fetch(10)
        assert all("rx_timestamp_ns" in f.meta for f in frames)

    def test_no_timestamps_on_xl710(self):
        loop = EventLoop()
        tx = NicPort(loop, chip=CHIP_XL710, port_id=0)
        rx = NicPort(loop, chip=CHIP_XL710, port_id=1)
        wire = Wire(loop, units.SPEED_40G)
        wire.connect(rx.receive)
        tx.attach_wire(wire)
        frame = ptp_frame()
        frame.meta["timestamp"] = True
        tx.get_tx_queue(0).enqueue([frame])
        loop.run()
        assert tx.read_tx_timestamp() is None
        assert rx.read_rx_timestamp() is None


class TestXl710Caps:
    def test_single_port_packet_rate_capped(self):
        """Section 5.4: the XL710 cannot do line rate with small packets."""
        loop = EventLoop()
        card = NicCard(CHIP_XL710)
        port = NicPort(loop, chip=CHIP_XL710, card=card)
        port.attach_wire(Wire(loop, units.SPEED_40G))
        port.get_tx_queue(0).enqueue([udp_frame() for _ in range(500)])
        loop.run()
        pps = 500 / (loop.now_ps / 1e12)
        line = units.line_rate_pps(64, units.SPEED_40G)
        assert pps < line  # below 59.5 Mpps line rate
        assert pps == pytest.approx(CHIP_XL710.max_pps, rel=0.02)

    def test_dual_port_aggregate_bandwidth(self):
        """Dual-port XL710 large packets cap at ~50 Gbit/s aggregate."""
        loop = EventLoop()
        card = NicCard(CHIP_XL710)
        ports = [NicPort(loop, chip=CHIP_XL710, port_id=i, card=card)
                 for i in (0, 1)]
        for port in ports:
            port.attach_wire(Wire(loop, units.SPEED_40G))
            big = [SimFrame(b"\x00" * 1514) for _ in range(200)]
            port.get_tx_queue(0).enqueue(big)
        loop.run()
        total_bits = sum(p.tx_bytes for p in ports) * 8
        gbps = total_bits / (loop.now_ps / 1e12) / 1e9
        assert gbps == pytest.approx(50.0, rel=0.05)
        assert gbps < 2 * 40.0

    def test_x540_unaffected_by_card_model(self):
        loop = EventLoop()
        port = NicPort(loop, chip=CHIP_X540)
        frame = udp_frame()
        assert port.card.effective_frame_time_ps(frame, port.speed_bps) == \
            units.frame_time_ps(64, units.SPEED_10G)
