"""The MoonGen environment: devices, tasks, wiring, and the clock.

``MoonGenEnv`` plays the role of the master task's runtime: it configures
devices (Listing 1), launches slave tasks (``mg.launchLua``), connects ports
with simulated cables, and runs the discrete-event loop until the experiment
finishes (``mg.waitForSlaves``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.device import Device
from repro.core.memory import MemPool, PacketBuffer
from repro.core.ops import CyclesOp, SleepOp
from repro.core.tasks import Task
from repro.errors import ConfigurationError, DeviceError
from repro.faults import FaultInjector, load_plan
from repro.trace import Tracer
from repro.nicsim.cpu import CpuCore, CycleCostModel, REFERENCE_FREQ_HZ
from repro.nicsim.eventloop import EventLoop
from repro.nicsim.link import Cable, IDEAL_CABLE, Wire
from repro.nicsim.nic import ChipModel, CHIP_X540, NicCard, NicPort


class MoonGenEnv:
    """One simulation: an event loop, devices, cores, and tasks."""

    def __init__(
        self,
        seed: int = 0,
        core_freq_hz: float = REFERENCE_FREQ_HZ,
        cost_noise: bool = True,
        trace=None,
        batch: bool = False,
        faults=None,
        metrics=None,
        dataplane=None,
        watchdog=None,
    ) -> None:
        self.loop = EventLoop()
        #: Opt-in batch execution tier (``repro.batch``): ports execute
        #: homogeneous event trains — FIFO drains, prefetch steady states,
        #: hardware-paced ring trains — arithmetically whenever no tracer/
        #: observer/fault/timestamp needs per-frame fidelity, falling back
        #: to the event path at every interaction point.  Off by default;
        #: output is bit-identical to the event-driven path (enforced by
        #: ``tests/test_equivalence.py``).
        self.batch = None
        if batch:
            from repro.batch import BatchTier

            self.batch = self.loop.batch = BatchTier()
        self.seed = seed
        self.cost_model = CycleCostModel(seed=seed, noisy=cost_noise)
        self.core_freq_hz = core_freq_hz
        self.devices: Dict[int, Device] = {}
        #: Every wire built so far, by name (``"0->1"``, ``"0->sink"``,
        #: ``"env->1"``): the names fault targets and metrics use.
        self.wires: Dict[str, Wire] = {}
        self.tasks: List[Task] = []
        self.cores: List[CpuCore] = []
        self._end_ps: Optional[int] = None
        self._wire_seed = seed + 0x5EED
        #: Parked receive tasks re-check ``running()`` at least this often.
        self.poll_slice_ps = 1_000_000_000  # 1 ms
        #: Structured tracing (``repro.trace``).  ``trace`` may be ``True``
        #: (all categories into an in-memory ring buffer), an iterable of
        #: category names, or a pre-built :class:`~repro.trace.Tracer`.
        #: ``None``/``False`` keeps every instrumentation site on its
        #: zero-cost fast path.
        self.tracer: Optional[Tracer] = None
        if trace:
            if isinstance(trace, Tracer):
                self.tracer = trace
            else:
                categories = None if trace is True else trace
                self.tracer = Tracer(categories=categories)
            self.tracer.bind(self.loop)
        #: Deterministic fault injection (``repro.faults``).  ``faults``
        #: may be a :class:`~repro.faults.FaultPlan`, a plan dict, JSON
        #: text, or a path to a plan file.  ``None`` (the default) keeps
        #: every fault hook inert — runs without faults are bit-identical
        #: to builds without the subsystem.
        self.injector: Optional[FaultInjector] = None
        if faults is not None:
            self.injector = FaultInjector(self.loop, load_plan(faults))
        #: Run-wide telemetry (``repro.metrics``).  ``metrics`` may be
        #: ``True`` (fresh registry) or a pre-built
        #: :class:`~repro.metrics.MetricsRegistry`.  ``None``/``False``
        #: (default) keeps every registration hook inert: metrics are
        #: pull-based, so a disabled run pays literally nothing.  With a
        #: registry, devices/wires/DuT/injector auto-register as the
        #: topology is built; sample it with :meth:`start_snapshotter`.
        self.metrics = None
        if metrics:
            if metrics is True:
                from repro.metrics import MetricsRegistry

                self.metrics = MetricsRegistry()
            else:
                self.metrics = metrics
            registry = self.metrics
            loop = self.loop
            # The loop adds each segment's counts as the segment ends and
            # ends one just before every snapshotter wake, so the totals
            # are current whenever a wake samples them.
            events = registry.counter(
                "loop.events", lambda: loop.events_processed,
                help="events executed by the scheduler")
            registry.rate("loop.events_per_s", events,
                          help="event rate between snapshots (sim time)")
            registry.gauge("loop.pending", lambda: loop.pending_events,
                           help="live events currently scheduled")
            registry.gauge(
                "loop.lane_hit_ratio",
                lambda: (loop.lane_events_processed / loop.events_processed
                         if loop.events_processed else 0.0),
                help="fraction of events taken via the same-instant "
                     "fast lane")
            # Heap self-accounting.  These describe the scheduler's work,
            # not the simulated world, so they ride under the ``loop.``
            # prefix every fingerprint excludes by default.
            sched_help = {
                "entries": "entries stored (incl. lazily-cancelled)",
                "live": "live (non-cancelled) entries enqueued",
                "compactions": "lazy-cancel compaction passes",
            }
            for key, fn in loop.sched_gauges().items():
                registry.gauge(f"loop.sched.{key}", fn, help=sched_help[key])
            if self.injector is not None:
                self.injector.register_metrics(registry)
            if self.batch is not None:
                # Batch-tier self-accounting: scheduler work too, so it
                # is published under ``loop.batch.``.
                from repro.batch import FALLBACK_REASONS

                tier = self.batch
                registry.counter(
                    "loop.batch.trains", lambda: tier.trains,
                    help="event trains executed arithmetically")
                registry.counter(
                    "loop.batch.frames", lambda: tier.frames,
                    help="frames sent through batch kernels")
                registry.counter(
                    "loop.batch.events_saved", lambda: tier.events_saved,
                    help="events the discrete loop would have scheduled "
                         "for the batched frames")
                for reason in FALLBACK_REASONS:
                    registry.counter(
                        f"loop.batch.fallback.{reason}",
                        lambda r=reason: tier.fallbacks.get(r, 0),
                        help=f"kicks that fell back to event execution "
                             f"({reason})")
        #: In-dataplane latency observation (``repro.metrics.dataplane``):
        #: per-hop residence and inter-arrival ``Log2Histogram``\ s latched
        #: by the models themselves as frames move through the pipeline.
        #: ``dataplane=True`` requires a metrics registry (the histograms
        #: live in it); ``None``/``False`` (default) leaves every model
        #: hook on its ``is not None`` fast path.  Devices, wires, and
        #: DuTs attach automatically as the topology is built.
        self.dataplane = None
        if dataplane:
            if self.metrics is None:
                raise ConfigurationError(
                    "MoonGenEnv(dataplane=True) needs metrics=True: the "
                    "latency histograms live in the metrics registry"
                )
            from repro.metrics.dataplane import DataplaneObserver

            self.dataplane = (dataplane
                              if isinstance(dataplane, DataplaneObserver)
                              else DataplaneObserver(self.metrics))
        #: Simulation watchdogs (``repro.supervise``).  ``watchdog`` may
        #: be a pre-built :class:`~repro.nicsim.eventloop.Watchdog` or
        #: ``None`` (default: the loop stays on its uninstrumented fast
        #: paths).  With a metrics registry active, the watchdog's abort
        #: diagnostics include a snapshot of every live metric.
        self.watchdog = watchdog
        if watchdog is not None:
            self.loop.watchdog = watchdog
            if self.metrics is not None and watchdog.registry is None:
                watchdog.registry = self.metrics

    # -- time -----------------------------------------------------------------

    @property
    def now_ns(self) -> float:
        return self.loop.now_ps / 1000.0

    def running(self) -> bool:
        """The analog of ``dpdk.running()``: true until the stop horizon."""
        return self._end_ps is None or self.loop.now_ps < self._end_ps

    @staticmethod
    def sleep_ns(duration_ns: float) -> SleepOp:
        """Op: idle the calling task for a simulated duration."""
        return SleepOp(duration_ns)

    @staticmethod
    def sleep_us(duration_us: float) -> SleepOp:
        return SleepOp(duration_us * 1_000)

    @staticmethod
    def sleep_ms(duration_ms: float) -> SleepOp:
        return SleepOp(duration_ms * 1_000_000)

    @staticmethod
    def charge_cycles(cycles: float) -> CyclesOp:
        """Op: account script work outside the standard cost table."""
        return CyclesOp(cycles)

    # -- device configuration ----------------------------------------------------

    def config_device(
        self,
        port_id: int,
        rx_queues: int = 1,
        tx_queues: int = 1,
        chip: ChipModel = CHIP_X540,
        speed_bps: Optional[int] = None,
        card: Optional[NicCard] = None,
        clock_drift_ppm: float = 0.0,
        clock_phase_steps: int = 0,
    ) -> Device:
        """Configure a port (``device.config`` in Listing 1)."""
        if port_id in self.devices:
            raise DeviceError(f"port {port_id} already configured")
        port = NicPort(
            self.loop,
            chip=chip,
            port_id=port_id,
            n_tx_queues=tx_queues,
            n_rx_queues=rx_queues,
            speed_bps=speed_bps,
            card=card,
            clock_drift_ppm=clock_drift_ppm,
            clock_phase_steps=clock_phase_steps,
        )
        device = Device(self, port)
        self.devices[port_id] = device
        if self.injector is not None:
            self.injector.register_port(f"port:{port_id}", port)
        if self.metrics is not None:
            port.register_metrics(self.metrics)
        if self.dataplane is not None:
            self.dataplane.attach_port(port)
        return device

    def wait_for_links(self) -> None:
        """API parity with ``device.waitForLinks()``; links are always up."""

    # -- wiring --------------------------------------------------------------------

    def connect(
        self,
        a: Device,
        b: Device,
        cable: Cable = IDEAL_CABLE,
    ) -> Tuple[Wire, Wire]:
        """Connect two ports with a full-duplex cable; returns (a→b, b→a)."""
        wire_ab = Wire(self.loop, a.port.speed_bps, cable, seed=self._next_wire_seed())
        wire_ba = Wire(self.loop, b.port.speed_bps, cable, seed=self._next_wire_seed())
        wire_ab.connect(b.port.receive)
        wire_ba.connect(a.port.receive)
        a.port.attach_wire(wire_ab)
        b.port.attach_wire(wire_ba)
        a_id, b_id = a.port.port_id, b.port.port_id
        self._register_wires((f"{a_id}->{b_id}", wire_ab),
                             (f"{b_id}->{a_id}", wire_ba))
        return wire_ab, wire_ba

    def connect_to_sink(
        self,
        device: Device,
        sink: Callable[[object, int], None],
        cable: Cable = IDEAL_CABLE,
    ) -> Wire:
        """Connect a port's transmit side to an arbitrary sink (e.g. a DuT)."""
        wire = Wire(self.loop, device.port.speed_bps, cable, seed=self._next_wire_seed())
        wire.connect(sink)
        device.port.attach_wire(wire)
        self._register_wires((f"{device.port.port_id}->sink", wire))
        return wire

    def wire_to_device(
        self,
        device: Device,
        speed_bps: Optional[int] = None,
        cable: Cable = IDEAL_CABLE,
    ) -> Wire:
        """A wire whose sink is the device's receive path (DuT → loadgen)."""
        wire = Wire(
            self.loop,
            speed_bps or device.port.speed_bps,
            cable,
            seed=self._next_wire_seed(),
        )
        wire.connect(device.port.receive)
        self._register_wires((f"env->{device.port.port_id}", wire))
        return wire

    def register_dut(self, dut) -> None:
        """Register a device under test as a fault target (``"dut"``).

        A no-op without a fault plan; with one, DuT faults (overload) arm
        against ``dut`` — anything exposing ``set_overload(factor)``.
        """
        if self.injector is not None:
            self.injector.register_dut(dut)
        if self.metrics is not None and hasattr(dut, "register_metrics"):
            dut.register_metrics(self.metrics)
        if self.dataplane is not None and hasattr(dut, "dp_ring"):
            self.dataplane.attach_dut(dut)

    def _register_wires(self, *named: Tuple[str, Wire]) -> None:
        """Record new ``(name, wire)`` pairs and hand them to the observers.

        Observer by observer, and wire by wire within each: the
        injector's arming schedules events, and the metrics registry
        (which the dataplane histograms share) hashes names in insertion
        order, so this order is part of every fingerprint.
        """
        self.wires.update(named)
        if self.injector is not None:
            for name, wire in named:
                self.injector.register_wire(f"wire:{name}", wire)
        if self.metrics is not None:
            for name, wire in named:
                wire.register_metrics(self.metrics, name)
        if self.dataplane is not None:
            for name, wire in named:
                self.dataplane.attach_wire(wire, name)

    def _next_wire_seed(self) -> int:
        self._wire_seed += 1
        return self._wire_seed

    # -- memory ---------------------------------------------------------------------

    @staticmethod
    def create_mempool(
        fill: Optional[Callable[[PacketBuffer], None]] = None,
        n_buffers: int = 4096,
        buf_capacity: int = 2048,
    ) -> MemPool:
        """``memory.createMemPool`` with the per-buffer fill callback."""
        return MemPool(n_buffers=n_buffers, buf_capacity=buf_capacity, fill=fill)

    # -- tasks -------------------------------------------------------------------------

    def launch(
        self,
        fn: Callable,
        *args,
        freq_hz: Optional[float] = None,
        name: Optional[str] = None,
    ) -> Task:
        """Start a slave task on a fresh simulated core (``mg.launchLua``)."""
        core = CpuCore(
            core_id=len(self.cores),
            freq_hz=freq_hz or self.core_freq_hz,
            model=self.cost_model,
            tracer=self.tracer,
        )
        self.cores.append(core)
        task = Task(self, fn, args, core, name=name)
        self.tasks.append(task)
        return task

    def wait_for_slaves(
        self,
        duration_ns: Optional[float] = None,
        max_events: int = 50_000_000,
    ) -> None:
        """Run the simulation until tasks finish (``mg.waitForSlaves``).

        With ``duration_ns``, ``running()`` turns false at the horizon so
        well-formed slave loops exit; stragglers parked on signals are killed
        after the event queue drains.  Without a duration the tasks must
        terminate by themselves.
        """
        if duration_ns is not None:
            self._end_ps = self.loop.now_ps + round(duration_ns * 1000)
        self.loop.run(max_events=max_events)
        for task in self.tasks:
            if not task.finished:
                task.kill()
        for task in self.tasks:
            task.check()

    def run_for(self, duration_ns: float, stop: bool = False) -> None:
        """Advance the simulation by a fixed duration (benches/tests).

        With ``stop=True`` the horizon also becomes the stop signal for
        ``running()``-style loops.
        """
        if stop:
            self._end_ps = self.loop.now_ps + round(duration_ns * 1000)
        self.loop.run(until_ps=self.loop.now_ps + round(duration_ns * 1000))

    def stop(self) -> None:
        """Make ``running()`` false immediately."""
        self._end_ps = self.loop.now_ps

    def stop_after(self, duration_ns: float) -> None:
        """Set the stop horizon without running the loop.

        For callers that drive the loop themselves (e.g. the
        :class:`~repro.metrics.LoopProfiler`): ``running()`` turns false
        once the horizon passes, exactly as in :meth:`wait_for_slaves`.
        """
        self._end_ps = self.loop.now_ps + round(duration_ns * 1000)

    # -- telemetry ------------------------------------------------------------

    def start_snapshotter(self, interval_ns: float = 1_000_000.0):
        """Start a metrics :class:`~repro.metrics.Snapshotter`.

        It samples from event-loop daemons, not a slave task: it takes
        no core and no task slot, and a run whose traffic ends before
        its horizon ends where it would without it.  Call it before the
        run.  Requires ``MoonGenEnv(metrics=...)``; returns the
        snapshotter (its ``series`` holds the sampled rows after the run).
        """
        if self.metrics is None:
            raise ConfigurationError(
                "start_snapshotter() needs MoonGenEnv(metrics=True)"
            )
        from repro.metrics import Snapshotter

        snapshotter = Snapshotter(self, self.metrics,
                                  interval_ns=interval_ns)
        snapshotter.start()
        return snapshotter
