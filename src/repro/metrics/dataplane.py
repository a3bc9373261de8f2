"""In-dataplane latency observation: per-hop sim-time histograms.

The paper measures latency with hardware timestamps taken *in the data
path* (Section 6.4), and the P4TG follow-up work accumulates RTT
histograms directly in the data plane.  This module is the simulator's
analog: instead of deriving latency post-hoc from traces or probe
packets, the models themselves latch residence times into registry
:class:`~repro.metrics.registry.Log2Histogram`\\ s as frames move
through the pipeline:

========================================  ===================================
metric name                               residence measured
========================================  ===================================
``latency.hop.nic<N>.txq<Q>``             descriptor enqueue → NIC DMA fetch
``latency.hop.wire.<A>-><B>``             serialization start → delivery
``latency.e2e.<A>-><B>``                  descriptor enqueue → delivery
``latency.hop.dut.ring``                  DuT ring entry → NAPI poll
``interarrival.port<N>.rx``               gap between FCS-valid rx arrivals
========================================  ===================================

All values are float nanoseconds computed as ``delta_ps / 1000.0`` from
integer picosecond stamps, so the arithmetic — including the
order-dependent float accumulation inside ``Log2Histogram.sum`` — is
reproducible exactly.  The batch execution tier (``repro.batch``)
performs the *same* per-frame observations in the same order, so
histogram fingerprints are bit-identical event vs batch and serial vs
``--jobs N`` (``tests/test_equivalence.py`` enforces this).

House rules kept:

* **Opt-in, zero-cost when off.**  Every hook is a single
  ``is not None`` test on a dedicated slot (``NicPort.dataplane``,
  ``Wire.dp_hop``/``dp_e2e``, ``OvsForwarder.dp_ring``); nothing changes
  on the hot path until :class:`DataplaneObserver` attaches state.
* **Sim-time only.**  Every observation is a pure function of integer
  picosecond stamps already computed by the models.
* **FCS-valid frames only.**  Corrupted frames and the CRC-gap filler
  frames of Section 8 are pacing artifacts, not observed traffic.

Enable with ``MoonGenEnv(metrics=True, dataplane=True)``; the
environment attaches the observer to every device, wire, and DuT it
configures.  The histograms live in the ordinary metrics registry, so
snapshots, fingerprints, and all exporters pick them up automatically.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.metrics.manifest import short_hash
from repro.metrics.registry import Log2Histogram, MetricsRegistry
from repro.metrics.snapshot import canonical_json


class PortDataplane:
    """Per-port observation state, hung on ``NicPort.dataplane``.

    ``txq`` is indexed by tx-queue index (the fetch path observes into
    ``txq[queue.index]``); ``rx_last_ps`` is the arrival stamp of the
    previous FCS-valid frame, ``-1`` until the first arrival.
    """

    __slots__ = ("txq", "rx_interarrival", "rx_last_ps")

    def __init__(self, txq: List[Log2Histogram],
                 rx_interarrival: Log2Histogram) -> None:
        self.txq = txq
        self.rx_interarrival = rx_interarrival
        self.rx_last_ps = -1


class DataplaneObserver:
    """Creates and owns the per-hop histograms for one environment.

    Attachment is explicit and topology-shaped: the environment calls
    :meth:`attach_port` / :meth:`attach_wire` / :meth:`attach_dut` as it
    configures devices, so histogram registration order equals topology
    construction order — the registry's determinism contract.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        #: Every histogram this observer created, in attachment order.
        self.histograms: Dict[str, Log2Histogram] = {}

    def _hist(self, name: str, help: str) -> Log2Histogram:
        hist = self.registry.log2_histogram(name, help)
        self.histograms[name] = hist
        return hist

    # -- attachment --------------------------------------------------------

    def attach_port(self, port) -> PortDataplane:
        """Instrument a NIC port: tx-queue residence + rx inter-arrival."""
        if port.dataplane is not None:
            return port.dataplane
        base = f"nic{port.port_id}"
        txq = [
            self._hist(f"latency.hop.{base}.txq{q.index}",
                       "tx descriptor residence: enqueue to DMA fetch (ns)")
            for q in port.tx_queues
        ]
        inter = self._hist(f"interarrival.port{port.port_id}.rx",
                           "gap between FCS-valid rx arrivals (ns)")
        state = PortDataplane(txq, inter)
        port.dataplane = state
        return state

    def attach_wire(self, wire, name: str) -> None:
        """Instrument a wire: hop residence + end-to-end latency."""
        if wire.dp_hop is not None:
            return
        wire.dp_hop = self._hist(
            f"latency.hop.wire.{name}",
            "wire residence: serialization start to delivery (ns)")
        wire.dp_e2e = self._hist(
            f"latency.e2e.{name}",
            "end-to-end: descriptor enqueue to wire delivery (ns)")

    def attach_dut(self, dut, name: str = "dut.ring") -> None:
        """Instrument a DuT forwarder's rx-ring residence."""
        if getattr(dut, "dp_ring", None) is not None:
            return
        dut.dp_ring = self._hist(
            f"latency.hop.{name}",
            "DuT ring residence: ingress to NAPI poll (ns)")

    # -- results -----------------------------------------------------------

    def read_all(self) -> Dict[str, Dict[str, Any]]:
        """Compact snapshot of every dataplane histogram, in attachment
        order (the deep-diffable form the equivalence harness compares)."""
        return {name: hist.read() for name, hist in self.histograms.items()}

    def fingerprint(self) -> str:
        """Short BLAKE2b hash over the canonical JSON of every dataplane
        histogram — the latency analog of ``TimeSeries.fingerprint``."""
        return short_hash(canonical_json(self.read_all()))

    def percentiles(self, name: str,
                    ps: tuple = (50.0, 99.0)) -> Dict[str, float]:
        """Interpolated percentiles of one histogram, keyed ``"p<P>"``.

        Empty histograms yield an empty dict rather than raising — a run
        that never exercised a hop still produces a result row.
        """
        hist = self.histograms[name]
        if hist.total == 0:
            return {}
        out: Dict[str, float] = {}
        for p in ps:
            key = f"p{p:g}"
            out[key] = hist.percentile(p)
        return out


__all__ = ["DataplaneObserver", "PortDataplane"]
