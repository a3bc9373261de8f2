"""Hardware timestamping: clock sync, drift handling, latency probes.

Implements Section 6 of the paper:

* :func:`sync_clocks` — the 7-read median synchronisation between two port
  clocks, robust against the ~5 % PCIe read outliers, accurate to ±1 tick;
* :func:`measure_drift` — the ``drift.lua`` measurement of inter-clock
  drift in µs/s;
* :class:`Timestamper` — the latency-probe engine: one timestamped PTP
  packet in flight at a time (one register pair per port), clocks resynced
  before each probe, samples aggregated into a :class:`Histogram`.
"""

from __future__ import annotations

import random
import statistics
from typing import List, Optional

from repro.core.histogram import Histogram
from repro.core.memory import MemPool
from repro.errors import TimestampingError
from repro.nicsim.clock import NicClock

#: Typical PCIe register read latency (ns).
PCIE_READ_NS = 250.0
#: Fraction of clock-pair reads that are outliers (Section 6.2).
OUTLIER_PROBABILITY = 0.05
#: Number of read repetitions: >99.999 % chance of >=3 clean reads.
SYNC_READS = 7


def _read_gap_ns(rng: random.Random) -> float:
    """Delay between the two register reads of one difference measurement.

    The algorithm's correctness rests on the PCIe access time being nearly
    constant (Section 6.2); occasionally a read is delayed by unrelated bus
    traffic — those are the ~5 % outliers the median filters out.
    """
    gap = PCIE_READ_NS + rng.gauss(0.0, 1.5)
    if rng.random() < OUTLIER_PROBABILITY:
        gap += rng.uniform(200.0, 2000.0)
    return max(50.0, gap)


def _difference_once(a: NicClock, b: NicClock, rng: random.Random,
                     at_ps: int) -> float:
    """One forward+reverse difference measurement (clock a minus clock b).

    Reading a then b and then b then a cancels the constant read gap; what
    remains is quantization (±1 tick) — unless an outlier hit one of the
    four reads, in which case the measurement is off by the extra delay.
    """
    gap_fwd = _read_gap_ns(rng)
    gap_rev = _read_gap_ns(rng)
    a_first = a.read_ns(at_ps) - b.read_ns(at_ps + round(gap_fwd * 1000))
    b_first = a.read_ns(at_ps + round(gap_rev * 1000)) - b.read_ns(at_ps)
    return (a_first + b_first) / 2.0


def clock_difference_ns(a: NicClock, b: NicClock, rng: random.Random,
                        at_ps: Optional[int] = None,
                        reads: int = SYNC_READS) -> float:
    """Median of repeated difference measurements (Section 6.2)."""
    now_ps = a.loop.now_ps if at_ps is None else at_ps
    samples = [
        _difference_once(a, b, rng, now_ps + i * 1000)
        for i in range(reads)
    ]
    return statistics.median(samples)


def sync_clocks(a: NicClock, b: NicClock, rng: random.Random,
                reads: int = SYNC_READS) -> float:
    """Synchronise clock ``b`` to clock ``a``; returns the applied offset.

    Uses the atomic read-modify-write adjustment the NICs support for PTP.
    The residual error is ±1 clock tick, i.e. ±6.4 ns on the 10 GbE chips —
    19.2 ns worst-case for a two-port measurement (Section 6.2).
    """
    diff = clock_difference_ns(a, b, rng, reads=reads)
    b.adjust(diff)
    return diff


def measure_drift(a: NicClock, b: NicClock, rng: random.Random,
                  interval_ns: float = 1_000_000_000.0) -> float:
    """Measure clock drift in microseconds per second (``drift.lua``).

    Takes two difference measurements ``interval_ns`` of simulated time
    apart; callers run the event loop between them or rely on the clocks'
    deterministic drift model (the difference is computed analytically at
    two instants, so no loop interaction is required).
    """
    now_ps = a.loop.now_ps
    d0 = clock_difference_ns(a, b, rng, at_ps=now_ps)
    d1 = clock_difference_ns(a, b, rng, at_ps=now_ps + round(interval_ns * 1000))
    return (d1 - d0) / (interval_ns / 1e9) / 1000.0  # ns per s -> µs per s


class Timestamper:
    """Latency measurement via hardware PTP timestamps.

    Sends one timestamped probe at a time from ``tx_queue`` and matches the
    hardware tx/rx timestamp registers; only a single packet can be in
    flight because each port has one register pair (Section 6.4).  Before
    every probe the clocks are resynchronised, which turns even the paper's
    worst-case 35 µs/s drift into a relative error of 0.0035 %.
    """

    def __init__(
        self,
        env,
        tx_queue,
        rx_device,
        udp: bool = False,
        pkt_size: int = 80,
        seed: int = 0,
        resync: bool = True,
    ) -> None:
        tx_chip = tx_queue.device.chip
        rx_chip = rx_device.chip
        if not tx_chip.hw_timestamping or not rx_chip.hw_timestamping:
            raise TimestampingError(
                f"hardware timestamping unsupported on "
                f"{tx_chip.name}/{rx_chip.name} (e.g. the XL710, Section 3.3)"
            )
        if udp and pkt_size < 80:
            raise TimestampingError(
                "the NICs refuse to timestamp UDP PTP packets smaller than "
                "80 bytes (Section 6.4); use PTP-over-Ethernet for smaller "
                "probes"
            )
        self.env = env
        self.tx_queue = tx_queue
        self.tx_device = tx_queue.device
        self.rx_device = rx_device
        self.udp = udp
        self.pkt_size = pkt_size
        self.rng = random.Random(seed)
        self.resync = resync
        self.histogram = Histogram()
        self.lost_probes = 0
        #: Probes actually sent; with :attr:`lost_probes` this yields
        #: :attr:`confidence` — graceful degradation under faults: a lossy
        #: or flapping link costs samples, never an exception.
        self.attempted = 0
        self._pool = MemPool(n_buffers=64, buf_capacity=512, fill=None)
        self._seq = 0

    @property
    def confidence(self) -> float:
        """Fraction of sent probes that produced a latency sample, in [0, 1].

        Vacuously 1.0 before any probe is sent.  A value below ~0.9 means
        the histogram under-represents the probe stream (burst loss, link
        flap, or a DuT dropping probes) and percentiles should be quoted
        with that caveat — this is the "mark confidence" half of the
        fault-tolerance contract.
        """
        if self.attempted <= 0:
            return 1.0
        return max(0.0, min(1.0, 1.0 - self.lost_probes / self.attempted))

    # -- probe crafting ----------------------------------------------------------

    def _craft(self, buf) -> None:
        if self.udp:
            p = buf.pkt.udp_ptp_packet
            p.fill(
                pkt_length=self.pkt_size,
                eth_src=self.tx_device.mac,
                eth_dst=self.rx_device.mac,
                ip_src="10.1.0.1",
                ip_dst="10.1.0.2",
                udp_src=319,
                ptp_sequence=self._seq,
            )
        else:
            p = buf.pkt.ptp_packet
            p.fill(
                pkt_length=self.pkt_size,
                eth_src=self.tx_device.mac,
                eth_dst=self.rx_device.mac,
                ptp_sequence=self._seq,
            )

    # -- the measurement task ------------------------------------------------------

    def probe_task(
        self,
        n_probes: int,
        interval_ns: float = 1_000_000.0,
        rx_queue_index: int = 0,
        timeout_ns: float = 10_000_000.0,
    ):
        """Slave task generator: sends probes and collects latency samples.

        Launch with ``env.launch(ts.probe_task, n, interval)``; results land
        in :attr:`histogram`.  Received probes are drained from the rx queue
        so they do not clutter other receivers.
        """
        env = self.env
        bufs = self._pool.buf_array(1)
        rx_queue = self.rx_device.get_rx_queue(rx_queue_index)
        for _ in range(n_probes):
            if not env.running():
                return
            if self.resync:
                sync_clocks(
                    self.tx_device.clock, self.rx_device.clock, self.rng
                )
                # 7 double reads over PCIe cost wall time.
                yield env.sleep_ns(SYNC_READS * 2 * PCIE_READ_NS)
            self._seq = (self._seq + 1) & 0xFFFF
            bufs.alloc(self.pkt_size - 4)  # buffer excludes FCS
            self._craft(bufs[0])
            self.attempted += 1
            yield self.tx_queue.send_with_timestamp(bufs)
            sample = yield from self._collect(rx_queue, timeout_ns)
            if sample is None:
                self.lost_probes += 1
                # Clear a stale tx timestamp so the next probe can latch.
                self.tx_device.port.read_tx_timestamp()
                tracer = self.env.loop.tracer
                if tracer is not None:
                    tracer.emit("tstamp", "probe_lost", seq=self._seq,
                                lost=self.lost_probes,
                                attempted=self.attempted)
            else:
                self.histogram.update(sample)
            if interval_ns > 0:
                yield env.sleep_ns(interval_ns)

    def _collect(self, rx_queue, timeout_ns: float):
        """Wait for the probe's rx timestamp; returns the latency or None."""
        deadline_ps = self.env.loop.now_ps + round(timeout_ns * 1000)
        port = self.rx_device.port
        while True:
            # Drain any frames (the probe itself plus unrelated traffic);
            # nothing reads them, so take them off the ring unwrapped.
            rx_queue.sim.fetch(64)
            stamp = port.read_rx_timestamp()
            if stamp is not None:
                rx_ns, rx_seq = stamp
                tx = self.tx_device.port.read_tx_timestamp()
                if tx is None:
                    return None
                tx_ns, tx_seq = tx
                if rx_seq is not None and tx_seq is not None and rx_seq != tx_seq:
                    return None
                return rx_ns - tx_ns
            if self.env.loop.now_ps >= deadline_ps:
                return None
            # Poll the register again shortly (busy-wait on real hardware).
            yield self.env.sleep_ns(min(1_000.0, timeout_ns / 10))
