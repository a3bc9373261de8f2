"""Unit tests for the NIC's on-chip transmit FIFO (Section 3.2)."""

import pytest

from repro import units
from repro.nicsim.eventloop import EventLoop
from repro.nicsim.link import Wire
from repro.nicsim.nic import CHIP_X540, NicPort, SimFrame


def frame(size=60):
    return SimFrame(b"\x00" * size)


def port_with_wire(n_tx_queues=1):
    loop = EventLoop()
    port = NicPort(loop, chip=CHIP_X540, n_tx_queues=n_tx_queues)
    port.attach_wire(Wire(loop, port.speed_bps))
    return loop, port


class TestPrefetch:
    def test_unpaced_ring_drains_into_fifo(self):
        loop, port = port_with_wire()
        queue = port.get_tx_queue(0)
        queue.enqueue([frame() for _ in range(100)])
        # The kick at the end of enqueue prefetched everything.
        assert len(queue.ring) == 0
        assert len(port._fifo) >= 99  # one may already be at the MAC
        loop.run()
        assert port.tx_packets == 100

    def test_fifo_byte_capacity_respected(self):
        loop, port = port_with_wire()
        queue = port.get_tx_queue(0)
        n = 4000  # more frames than the FIFO can hold
        accepted = 0
        while accepted < n:
            got = queue.enqueue([frame() for _ in range(n - accepted)])
            if got == 0:
                break
            accepted += got
        assert port._fifo_bytes <= CHIP_X540.tx_fifo_bytes
        # FIFO full + ring full: 160 kB / 64 B + 512 descriptors.
        expected_capacity = CHIP_X540.tx_fifo_bytes // 64 + 512
        assert accepted == pytest.approx(expected_capacity, abs=2)

    def test_paced_queue_not_prefetched(self):
        """Rate-limited queues must keep their pacing: no eager fetch."""
        loop, port = port_with_wire()
        queue = port.get_tx_queue(0)
        queue.set_rate_pps(1e6, 64)
        queue.enqueue([frame() for _ in range(50)])
        assert port._fifo_bytes == 0
        assert len(queue.ring) >= 49
        loop.run()
        assert port.tx_packets == 50  # still all transmitted, just paced

    def test_mixed_queues(self):
        """An unpaced queue uses the FIFO while a paced one stays on its
        schedule; both drain fully."""
        loop, port = port_with_wire(n_tx_queues=2)
        paced = port.get_tx_queue(0)
        paced.set_rate_pps(0.2e6, 64)
        unpaced = port.get_tx_queue(1)
        paced.enqueue([frame() for _ in range(10)])
        unpaced.enqueue([frame() for _ in range(10)])
        loop.run()
        assert port.tx_packets == 20
        assert paced.tx_packets == 10
        assert unpaced.tx_packets == 10

    def test_fifo_bytes_accounting_returns_to_zero(self):
        loop, port = port_with_wire()
        port.get_tx_queue(0).enqueue([frame() for _ in range(200)])
        loop.run()
        assert port._fifo_bytes == 0
        assert len(port._fifo) == 0

    def test_recycle_happens_at_prefetch(self):
        """Buffers return to the pool when the DMA fetches them — long
        before transmission completes."""
        loop, port = port_with_wire()
        recycled = []
        frames = [frame() for _ in range(10)]
        for f in frames:
            f.recycle = lambda f=f: recycled.append(f.seq)
        port.get_tx_queue(0).enqueue(frames)
        # All recycles fired synchronously at enqueue-kick time.
        assert len(recycled) == 10
        assert port.tx_packets <= 1  # transmission has barely started

    def test_wire_order_preserved(self):
        loop, port = port_with_wire()
        order = []
        port.tx_observers.append(lambda f, t: order.append(f.seq))
        frames = [frame() for _ in range(30)]
        expected = [f.seq for f in frames]
        port.get_tx_queue(0).enqueue(frames)
        loop.run()
        assert order == expected
