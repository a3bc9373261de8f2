"""The fault injector: schedules a :class:`FaultPlan` onto a simulation.

The injector is target-driven: the environment registers wires, ports,
and the DuT under the names of the target grammar (``"wire:A->B"``,
``"port:N"``, ``"dut"``) as it builds the topology, and each registration
arms the plan's faults against that target — scheduled as ordinary event-
loop events, so fault boundaries participate in the deterministic total
order of the simulation (and bound the batch tier, which additionally
refuses wires marked :attr:`Wire.faulted`).

Every fault emits ``fault``-category trace records at its boundaries;
stochastic faults draw from their own per-fault RNG stream seeded with
``seed_for(plan.seed, (index, fault))``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.errors import ConfigurationError
from repro.faults.models import GilbertElliott
from repro.faults.plan import (
    BurstLoss,
    ClockDrift,
    ClockStep,
    CorruptionBurst,
    DmaSlowdown,
    DutOverload,
    FaultPlan,
    LinkFlap,
    QueueStall,
    RingFreeze,
    load_plan,
)
from repro.nicsim.eventloop import EventLoop
from repro.nicsim.link import Wire
from repro.nicsim.nic import NicPort
from repro.parallel.seeding import seed_for

#: Fault classes that resolve against a port registration.
_PORT_FAULTS = (LinkFlap, QueueStall, DmaSlowdown, RingFreeze,
                ClockStep, ClockDrift)


def _wire_endpoints(name: str) -> Tuple[str, str]:
    """``"wire:A->B"`` → ``("A", "B")``; raises on malformed names."""
    body = name[len("wire:"):]
    if "->" not in body:
        raise ConfigurationError(f"malformed wire target {name!r}")
    a, _, b = body.partition("->")
    return a, b


class FaultInjector:
    """Arms a :class:`FaultPlan` against registered simulation objects."""

    def __init__(self, loop: EventLoop, plan) -> None:
        self.loop = loop
        self.plan: FaultPlan = load_plan(plan)
        self._wires: Dict[str, Wire] = {}
        self._ports: Dict[str, NicPort] = {}
        self._dut = None
        #: Fault indices whose events are scheduled.
        self._armed: Set[int] = set()
        #: Open windows per faulted attribute, oldest first, as
        #: ``(fault index, value)``; and each attribute's value from
        #: before its first window opened.
        self._open: Dict[Tuple, List[Tuple[int, Any]]] = {}
        self._base: Dict[Tuple, Any] = {}
        #: Fault boundaries fired so far (observability / tests).
        self.injected = 0
        #: Currently open fault windows.
        self.active = 0

    # -- registration ------------------------------------------------------

    def register_wire(self, name: str, wire: Wire) -> None:
        """Register a directed wire under ``"wire:A->B"``."""
        self._wires[name] = wire
        if self._touched_by_plan(name):
            # Pin the wire to the event-driven path for the whole run: a
            # batch-tier train must never straddle a fault boundary, and
            # carrier/loss state on this wire can change at any of them.
            wire.faulted = True
        for index, fault in enumerate(self.plan.faults):
            if index in self._armed:
                continue
            if isinstance(fault, (BurstLoss, CorruptionBurst)) \
                    and fault.target == name:
                self._arm_wire_fault(index, fault, wire)

    def register_port(self, name: str, port: NicPort) -> None:
        """Register a NIC port under ``"port:N"``."""
        self._ports[name] = port
        for index, fault in enumerate(self.plan.faults):
            if index in self._armed:
                continue
            if isinstance(fault, _PORT_FAULTS) and fault.target == name:
                self._arm_port_fault(index, fault, port)

    def register_dut(self, dut) -> None:
        """Register the device under test (anything with ``set_overload``)."""
        self._dut = dut
        for index, fault in enumerate(self.plan.faults):
            if index in self._armed:
                continue
            if isinstance(fault, DutOverload):
                self._arm_dut_fault(index, fault, dut)

    def register_metrics(self, registry) -> None:
        """Publish injector state under ``faults.*`` (pull-based)."""
        registry.counter("faults.injected", lambda: self.injected,
                         help="fault boundaries fired so far")
        registry.gauge("faults.active", lambda: self.active,
                       help="fault windows currently open")
        registry.gauge("faults.planned", lambda: len(self.plan),
                       help="faults in the armed plan")

    def unmatched(self) -> List[Tuple[int, str]]:
        """``(index, target)`` of faults whose target never registered."""
        return [(i, f.target) for i, f in enumerate(self.plan.faults)
                if i not in self._armed]

    def _touched_by_plan(self, wire_name: str) -> bool:
        """Does any fault affect this wire, directly or via its endpoints?"""
        a, b = _wire_endpoints(wire_name)
        endpoint_ports = {f"port:{a}", f"port:{b}"}
        for fault in self.plan.faults:
            if fault.target == wire_name:
                return True
            if isinstance(fault, _PORT_FAULTS) and fault.target in endpoint_ports:
                return True
        return False

    def _wires_touching(self, port_name: str) -> List[Tuple[str, Wire]]:
        """Registered ``(name, wire)`` with the named port as an endpoint."""
        port_id = port_name[len("port:"):]
        return [(name, wire) for name, wire in self._wires.items()
                if port_id in _wire_endpoints(name)]

    # -- scheduling --------------------------------------------------------

    def _at(self, t_ns: float, callback) -> None:
        self.loop.schedule_at(
            max(self.loop.now_ps, round(t_ns * 1000)), callback
        )

    def _emit(self, kind: str, **fields) -> None:
        tracer = self.loop.tracer
        if tracer is not None:
            tracer.emit("fault", kind, **fields)

    def _fault_seed(self, index: int, fault) -> int:
        return seed_for(self.plan.seed, (index, fault))

    # -- overlapping windows -----------------------------------------------

    def _open_window(self, key: Tuple, index: int, value, current):
        """Open fault ``index``'s window on attribute ``key``; returns
        the value the attribute takes (``value``: the newest window wins).

        ``current`` is the attribute's value now; it is kept as the value
        to restore only when no other window on ``key`` is open.
        """
        windows = self._open.setdefault(key, [])
        if not windows:
            self._base[key] = current
        windows.append((index, value))
        return value

    def _close_window(self, key: Tuple, index: int):
        """Close fault ``index``'s window on ``key``; returns the value
        the attribute takes: the newest window still open, else its
        value from before the first window."""
        windows = self._open[key]
        windows.remove(next(w for w in windows if w[0] == index))
        if windows:
            return windows[-1][1]
        del self._open[key]
        return self._base.pop(key)

    def _flapping(self, port_id: str) -> bool:
        return (f"port:{port_id}", "link_up") in self._open

    def _carrier_up(self, wire_name: str) -> bool:
        """A wire's carrier is down while either endpoint is flapping."""
        a, b = _wire_endpoints(wire_name)
        return not (self._flapping(a) or self._flapping(b))

    # -- wire faults -------------------------------------------------------

    def _arm_wire_fault(self, index: int, fault, wire: Wire) -> None:
        self._armed.add(index)
        if isinstance(fault, BurstLoss):
            model = GilbertElliott(
                self._fault_seed(index, fault),
                p_good_bad=fault.p_good_bad, p_bad_good=fault.p_bad_good,
                loss_good=fault.loss_good, loss_bad=fault.loss_bad,
            )

            key = (fault.target, "loss_model")

            def start() -> None:
                wire.loss_model = self._open_window(key, index, model,
                                                    wire.loss_model)
                self.injected += 1
                self.active += 1
                self._emit("burst_loss_start", index=index,
                           target=fault.target)

            def end() -> None:
                wire.loss_model = self._close_window(key, index)
                self.injected += 1
                self.active -= 1
                self._emit("burst_loss_end", index=index, target=fault.target,
                           offered=model.offered, lost=model.lost,
                           bursts=model.bursts)
        else:  # CorruptionBurst
            key = (fault.target, "corrupt_rate")

            def start() -> None:
                wire.corrupt_rate = self._open_window(key, index, fault.rate,
                                                      wire.corrupt_rate)
                self.injected += 1
                self.active += 1
                self._emit("corruption_start", index=index,
                           target=fault.target, rate=fault.rate)

            def end() -> None:
                wire.corrupt_rate = self._close_window(key, index)
                self.injected += 1
                self.active -= 1
                self._emit("corruption_end", index=index, target=fault.target,
                           corrupted=wire.corrupted)
        self._at(fault.start_ns, start)
        self._at(fault.end_ns, end)

    # -- port faults -------------------------------------------------------

    def _arm_port_fault(self, index: int, fault, port: NicPort) -> None:
        self._armed.add(index)
        if isinstance(fault, LinkFlap):
            key = (fault.target, "link_up")

            def start() -> None:
                # Wires are resolved at fire time: registration order
                # between ports and wires must not matter.
                for _, wire in self._wires_touching(fault.target):
                    wire.carrier_up = False
                # Emits the link_down record (once, however many flaps).
                port.set_link_state(
                    self._open_window(key, index, False, port.link_up))
                self.injected += 1
                self.active += 1

            def end() -> None:
                up = self._close_window(key, index)
                for name, wire in self._wires_touching(fault.target):
                    wire.carrier_up = self._carrier_up(name)
                port.set_link_state(up)  # link_up kicks the MAC
                self.injected += 1
                self.active -= 1
        elif isinstance(fault, QueueStall):
            queue = self._tx_queue(port, fault.queue)
            key = (fault.target, "stalled", fault.queue)

            def start() -> None:
                queue.stalled = self._open_window(key, index, True,
                                                  queue.stalled)
                self.injected += 1
                self.active += 1
                self._emit("queue_stall_start", index=index,
                           port=port.port_id, queue=fault.queue)

            def end() -> None:
                queue.stalled = self._close_window(key, index)
                self.injected += 1
                self.active -= 1
                self._emit("queue_stall_end", index=index,
                           port=port.port_id, queue=fault.queue,
                           backlog=len(queue.ring))
                if not queue.stalled:
                    port._mac_kick()
        elif isinstance(fault, DmaSlowdown):
            key = (fault.target, "dma_slowdown")

            def start() -> None:
                port.dma_slowdown = self._open_window(
                    key, index, fault.factor, port.dma_slowdown)
                self.injected += 1
                self.active += 1
                self._emit("dma_slowdown_start", index=index,
                           port=port.port_id, factor=fault.factor)

            def end() -> None:
                port.dma_slowdown = self._close_window(key, index)
                self.injected += 1
                self.active -= 1
                self._emit("dma_slowdown_end", index=index,
                           port=port.port_id)
        elif isinstance(fault, RingFreeze):
            rxq = self._rx_queue(port, fault.queue)
            key = (fault.target, "frozen", fault.queue)

            def start() -> None:
                rxq.frozen = self._open_window(key, index, True, rxq.frozen)
                self.injected += 1
                self.active += 1
                self._emit("ring_freeze_start", index=index,
                           port=port.port_id, queue=fault.queue)

            def end() -> None:
                rxq.frozen = self._close_window(key, index)
                self.injected += 1
                self.active -= 1
                self._emit("ring_freeze_end", index=index,
                           port=port.port_id, queue=fault.queue,
                           missed=port.rx_missed)
        elif isinstance(fault, ClockStep):
            def fire() -> None:
                port.clock.adjust(fault.step_ns)
                self.injected += 1
                self._emit("clock_step", index=index, port=port.port_id,
                           step_ns=fault.step_ns)

            self._at(fault.at_ns, fire)
            return
        else:  # ClockDrift
            def fire() -> None:
                port.clock.set_drift_ppm(fault.drift_ppm)
                self.injected += 1
                self._emit("clock_drift", index=index, port=port.port_id,
                           drift_ppm=fault.drift_ppm)

            self._at(fault.at_ns, fire)
            return
        self._at(fault.start_ns, start)
        self._at(fault.end_ns, end)

    @staticmethod
    def _tx_queue(port: NicPort, index: int):
        if index >= len(port.tx_queues):
            raise ConfigurationError(
                f"port {port.port_id} has no tx queue {index} to stall"
            )
        return port.tx_queues[index]

    @staticmethod
    def _rx_queue(port: NicPort, index: int):
        if index >= len(port.rx_queues):
            raise ConfigurationError(
                f"port {port.port_id} has no rx queue {index} to freeze"
            )
        return port.rx_queues[index]

    # -- DuT faults --------------------------------------------------------

    def _arm_dut_fault(self, index: int, fault: DutOverload, dut) -> None:
        self._armed.add(index)
        key = ("dut", "overload")

        def start() -> None:
            dut.set_overload(self._open_window(key, index, fault.factor,
                                               getattr(dut, "overload", 1.0)))
            self.injected += 1
            self.active += 1
            self._emit("dut_overload_start", index=index,
                       factor=fault.factor)

        def end() -> None:
            dut.set_overload(self._close_window(key, index))
            self.injected += 1
            self.active -= 1
            self._emit("dut_overload_end", index=index)

        self._at(fault.start_ns, start)
        self._at(fault.end_ns, end)
