"""The ledger's traced pass: host time per ``repro`` layer.

Spans are recorded from the benchmark's own files by wrapping the public
entry points of each layer before the topology is built; the program
itself is not edited.  ``EventLoop.run`` is the root.  A wrapper on
``EventLoop.schedule_at`` wraps every scheduled callback in a span of the
layer whose module defined it, and ``Process`` resumes are spans of the
layer that defined the resumed script (``core`` for user scripts).  A
span's self time is its duration minus the time its child spans cover.

Every call is aggregated; the first ``span_limit`` raw spans are kept in
memory for :meth:`SpanTracer.write_spans`.  The wrappers' own cost is
calibrated per span on empty functions (:class:`WrapperCost`), taken out
of the layer that pays it as the spans close, and booked as ``trace``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import sys
import time
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: The layers host time is split across, named after ``repro`` modules.
LAYERS = (
    "nicsim.eventloop", "nicsim.nic", "nicsim.link", "core",
    "core.ratecontrol", "core.timestamping", "packet", "dut", "dut.fastpath",
    "generators", "analysis", "batch", "metrics",
)
_INDEX = {name: i for i, name in enumerate(LAYERS)}
CORE = _INDEX["core"]
EVENTLOOP = _INDEX["nicsim.eventloop"]
#: Longest module prefix first, so ``repro.dut.fastpath`` beats ``repro.dut``.
_PREFIXES = sorted(((f"repro.{name}", i) for i, name in enumerate(LAYERS)),
                   key=lambda item: -len(item[0]))

#: Which end-to-end metric each layer should move, on which workloads, and
#: on which it should have no effect — written down before measuring.
PREDICTIONS = {
    "nicsim.eventloop": [("wall_s", ["tx64_line_rate", "dut_cbr_latency"],
                          ["rfc2544_sweep"])],
    "nicsim.nic": [("wall_s", ["tx64_line_rate", "dut_poisson_crc"],
                    ["rfc2544_sweep"])],
    "nicsim.link": [("wall_s", ["tx64_line_rate", "dut_poisson_crc"],
                     ["rfc2544_sweep"])],
    # Per-packet craft on dut_cbr_latency, per-batch on tx64_line_rate.
    "core": [("wall_s", ["dut_cbr_latency", "tx64_line_rate"],
              ["rfc2544_sweep"])],
    "packet": [("wall_s", ["dut_cbr_latency", "tx64_line_rate"],
                ["rfc2544_sweep"])],
    # Offline planning on rfc2544_sweep, live pacing on dut_poisson_crc.
    "core.ratecontrol": [("wall_s", ["rfc2544_sweep", "dut_poisson_crc"],
                          ["tx64_line_rate", "dut_cbr_latency"])],
    "core.timestamping": [("wall_s", ["dut_cbr_latency", "dut_poisson_crc"],
                           ["tx64_line_rate", "rfc2544_sweep"])],
    "dut": [("wall_s", ["dut_cbr_latency", "dut_poisson_crc"],
             ["tx64_line_rate", "tx64_observed"])],
    "dut.fastpath": [("wall_s", ["rfc2544_sweep"],
                      ["tx64_line_rate", "dut_cbr_latency"]),
                     ("peak_rss_mb", ["rfc2544_sweep"], ["tx64_line_rate"])],
    "generators": [("wall_s", ["rfc2544_sweep"], ["tx64_line_rate"])],
    "analysis": [("wall_s", ["rfc2544_sweep"], ["tx64_line_rate"])],
    # Only once the tier runs by default; DuT runs stay sink-unbatchable.
    "batch": [("wall_s", ["tx64_line_rate"],
               ["dut_cbr_latency", "dut_poisson_crc"])],
    "metrics": [("wall_s", ["tx64_observed"],
                 ["tx64_line_rate", "dut_cbr_latency"])],
    # Tracing is off in every measured run.
    "trace": [("wall_s", [], ["tx64_line_rate", "rfc2544_sweep"])],
}


def layer_of_module(module: Optional[str]) -> int:
    """The layer a module belongs to; code outside ``repro`` (user
    scripts) and unlisted ``repro`` modules count as ``core``."""
    if module:
        for prefix, index in _PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return index
    return CORE


def self_times(spans: Iterable[Tuple[str, float, float, int, int]]
               ) -> Dict[str, float]:
    """Self time per span name of raw ``(name, start, end, parent, id)``
    spans: each span's duration minus the durations of its children.
    The reference the tracer's running aggregation is tested against."""
    spans = list(spans)
    name_of = {span_id: name for name, _, _, _, span_id in spans}
    out: Dict[str, float] = {}
    for name, start, end, parent, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start)
        if parent in name_of:
            out[name_of[parent]] = out.get(name_of[parent], 0.0) - (end - start)
    return out


class WrapperCost:
    """Host cost of the wrappers, in seconds per span or call.

    For each kind of span, ``inner`` is the part inside the span's own
    interval and ``outer`` the part its parent pays.  Wrapped calls that
    pass keyword arguments (``kwcall``) cost more than positional ones
    (``call``): the wrapper packs and unpacks a dict.  ``sched_*`` is the
    extra cost of one ``schedule_at`` call whose callback does or does not
    get a span.
    """

    FIELDS = ("call_inner", "call_outer", "kwcall_inner", "kwcall_outer",
              "dispatch_inner", "dispatch_outer", "resume_inner",
              "resume_outer", "sched_wrapped", "sched_plain")

    def __init__(self, **costs: float) -> None:
        for name in self.FIELDS:
            setattr(self, name, costs.get(name, 0.0))

    @classmethod
    def measure(cls, rounds: int = 20, n: int = 2000) -> "WrapperCost":
        """Median over ``rounds`` of ``n`` wrapped vs bare empty calls."""
        from repro.nicsim.eventloop import EventLoop

        clock = time.perf_counter

        def per_call(fn, *args, **kwargs) -> float:
            t0 = clock()
            for _ in range(n):
                fn(*args, **kwargs)
            return (clock() - t0) / n

        def empty(*args, **kwargs):
            pass

        def in_core():
            pass

        def in_loop():
            pass

        def script():
            yield

        in_core.__module__ = "repro.core"  # scheduled inside a span
        in_loop.__module__ = "repro.nicsim.eventloop"  # scheduled as is
        samples = []
        for _ in range(rounds):
            tracer = SpanTracer()
            row = {}
            wrapped = tracer.wrap(empty, CORE, "call")
            spans = (("call", wrapped, empty, (1, 2), {}),
                     ("kwcall", wrapped, empty, (1, 2), {"start_ps": 3}),
                     ("dispatch", partial(tracer._dispatcher(CORE), empty),
                      empty, (), {}))
            for kind, fn, bare_fn, args, kwargs in spans:
                before = tracer.self_s[CORE]
                total = (per_call(fn, *args, **kwargs)
                         - per_call(bare_fn, *args, **kwargs))
                row[f"{kind}_inner"] = (tracer.self_s[CORE] - before) / n
                row[f"{kind}_outer"] = total - row[f"{kind}_inner"]

            class Bare:
                _advance = empty

            class Traced:
                _advance = tracer.wrap_advance(empty, None)

            bare_process, process = Bare(), Traced()
            process.generator = script()
            before = tracer.self_s[CORE]
            total = (per_call(process._advance, None)
                     - per_call(bare_process._advance, None))
            row["resume_inner"] = (tracer.self_s[CORE] - before) / n
            row["resume_outer"] = total - row["resume_inner"]

            loop = EventLoop()
            original = EventLoop.schedule_at
            scheduled = tracer.wrap_schedule_at(original)
            for callback, kind in ((in_core, "wrapped"), (in_loop, "plain")):
                raw = per_call(original, loop, 0, callback)
                loop._lane.clear()
                row[f"sched_{kind}"] = per_call(
                    scheduled, loop, 0, callback) - raw
                loop._lane.clear()
            samples.append(row)
        return cls(**{name: statistics.median(row[name] for row in samples)
                      for name in cls.FIELDS})


# -- hooks: work counts read off an entry point's return value -------------------


def _plan_hook(plan, counts):
    counts["core.ratecontrol.gaps"] += len(plan.filler_wire_bytes)
    counts["core.ratecontrol.fillers"] += plan.n_fillers


def _fastpath_hook(result, counts):
    counts["dut.fastpath.packets"] += len(result.arrivals_ns)


def _departures_hook(times, counts):
    counts["generators.packets"] += len(times)


def _trials_hook(result, counts):
    counts["analysis.trials"] += len(result.trials)


#: (module, qualified name, layer, hook) of every wrapped entry point, on
#: top of ``schedule_at``, ``Process._advance`` and the packet ``fill``s.
ENTRY_POINTS = (
    ("repro.nicsim.eventloop", "EventLoop.run", "nicsim.eventloop", None),
    ("repro.nicsim.nic", "TxQueueSim.enqueue", "nicsim.nic", None),
    ("repro.nicsim.nic", "NicPort.receive", "nicsim.nic", None),
    ("repro.nicsim.link", "Wire.transmit", "nicsim.link", None),
    ("repro.core.memory", "BufArray.alloc", "core", None),
    ("repro.core.memory", "MemPool.take", "core", None),
    ("repro.core.ratecontrol", "GapFiller.plan", "core.ratecontrol",
     _plan_hook),
    ("repro.dut.forwarder", "OvsForwarder.ingress", "dut", None),
    ("repro.dut.fastpath", "simulate_forwarder", "dut.fastpath",
     _fastpath_hook),
    ("repro.generators.base", "DepartureModel.departures_ns", "generators",
     _departures_hook),
    ("repro.analysis.rfc2544", "throughput_test", "analysis", _trials_hook),
    ("repro.batch", "BatchTier.execute", "batch", None),
    ("repro.metrics.registry", "Log2Histogram.observe", "metrics", None),
)


class SpanTracer:
    """Aggregates spans per layer; keeps the first ``span_limit`` raw.

    ``cost`` is subtracted as each span closes, so :attr:`self_s` holds
    the program's own time per layer (zero cost: raw self time).
    """

    def __init__(self, cost: Optional[WrapperCost] = None,
                 span_limit: int = 100_000) -> None:
        self.cost = cost or WrapperCost()
        self.names: List[str] = []
        self.layer_of_entry: List[int] = []
        self.entry_calls: List[int] = []
        #: Of those, calls that passed keyword arguments.
        self.kw_calls: List[int] = []
        self.self_s = [0.0] * len(LAYERS)
        #: ``schedule_at`` calls whose callback got a span / did not.
        self.sched_calls = [0, 0]
        self.counts: Dict[str, int] = {
            "core.ratecontrol.gaps": 0, "core.ratecontrol.fillers": 0,
            "dut.fastpath.packets": 0, "generators.packets": 0,
            "analysis.trials": 0,
        }
        #: Host time spent in hooks, booked as tracing cost.
        self.hook_s = 0.0
        self.spans: List[Tuple[int, float, float, int, int]] = []
        self.span_limit = span_limit
        # Parallel stacks: time covered by children, and span id, of every
        # open span over a base entry for time outside all spans.
        self._child: List[float] = [0.0]
        self._ids: List[int] = [0]
        self._next_id = itertools.count(1).__next__
        self._undo: List[Callable[[], None]] = []

    def _entry(self, name: str, layer: int) -> int:
        self.names.append(name)
        self.layer_of_entry.append(layer)
        self.entry_calls.append(0)
        self.kw_calls.append(0)
        return len(self.names) - 1

    # -- wrappers ------------------------------------------------------------
    #
    # The span bookkeeping is written out in each wrapper rather than
    # shared through a helper: every extra call would be tracing cost.

    def wrap(self, fn: Callable, layer: int, name: str,
             hook: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span of ``layer``, counted under ``name``."""
        entry = self._entry(name, layer)
        child, ids, next_id, clock = (self._child, self._ids, self._next_id,
                                      time.perf_counter)
        self_s, entry_calls = self.self_s, self.entry_calls
        kw_calls, spans, limit = self.kw_calls, self.spans, self.span_limit
        cost = self.cost
        inner, outer = cost.call_inner, cost.call_outer
        kw_inner, kw_outer = cost.kwcall_inner, cost.kwcall_outer

        def wrapper(*args, **kwargs):
            child.append(0.0)
            ids.append(next_id())
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                covered = child.pop()
                span_id = ids.pop()
                d = t1 - t0
                if kwargs:
                    self_s[layer] += d - covered - kw_inner
                    child[-1] += d + kw_outer
                    kw_calls[entry] += 1
                else:
                    self_s[layer] += d - covered - inner
                    child[-1] += d + outer
                entry_calls[entry] += 1
                if len(spans) < limit:
                    spans.append((entry, t0, t1, ids[-1], span_id))
            if hook is not None:
                h0 = clock()
                hook(result, self.counts)
                h = clock() - h0
                self.hook_s += h
                child[-1] += h
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _dispatcher(self, layer: int) -> Callable:
        """Runs a scheduled callback inside a span of ``layer``."""
        entry = self._entry(f"dispatch:{LAYERS[layer]}", layer)
        child, ids, next_id, clock = (self._child, self._ids, self._next_id,
                                      time.perf_counter)
        self_s, entry_calls = self.self_s, self.entry_calls
        spans, limit = self.spans, self.span_limit
        inner, outer = self.cost.dispatch_inner, self.cost.dispatch_outer

        def dispatch(callback):
            child.append(0.0)
            ids.append(next_id())
            t0 = clock()
            try:
                callback()
            finally:
                t1 = clock()
                covered = child.pop()
                span_id = ids.pop()
                d = t1 - t0
                self_s[layer] += d - covered - inner
                child[-1] += d + outer
                entry_calls[entry] += 1
                if len(spans) < limit:
                    spans.append((entry, t0, t1, ids[-1], span_id))

        return dispatch

    def wrap_schedule_at(self, schedule_at: Callable) -> Callable:
        """``EventLoop.schedule_at`` that wraps each callback in a span of
        the layer that defined it.  Callbacks of the event loop's own
        module, including ``Process`` resumes, are scheduled unwrapped."""
        # Callback function (or code, or type) -> dispatcher, or None.
        routes: Dict[Any, Optional[Callable]] = {}
        by_layer: Dict[int, Callable] = {}
        child, calls = self._child, self.sched_calls
        cost_wrapped = self.cost.sched_wrapped
        cost_plain = self.cost.sched_plain

        def route(callback) -> Optional[Callable]:
            fn = getattr(callback, "__func__", callback)
            module = getattr(fn, "__module__", None) or type(callback).__module__
            layer = layer_of_module(module)
            if layer == EVENTLOOP:
                return None
            if layer not in by_layer:
                by_layer[layer] = self._dispatcher(layer)
            return by_layer[layer]

        def scheduled(loop, time_ps, callback):
            key = (getattr(callback, "__func__", None)
                   or getattr(callback, "__code__", None) or type(callback))
            try:
                dispatch = routes[key]
            except KeyError:
                dispatch = routes[key] = route(callback)
            if dispatch is None:
                calls[1] += 1
                child[-1] += cost_plain
                return schedule_at(loop, time_ps, callback)
            calls[0] += 1
            child[-1] += cost_wrapped
            return schedule_at(loop, time_ps, partial(dispatch, callback))

        scheduled.__wrapped__ = schedule_at
        return scheduled

    def wrap_advance(self, advance: Callable, task_drive_code) -> Callable:
        """``Process._advance`` in a span of the resumed script's layer:
        the module of the generator a :class:`~repro.core.tasks.Task`
        drives, or of the process's own generator."""
        child, ids, next_id, clock = (self._child, self._ids, self._next_id,
                                      time.perf_counter)
        self_s, entry_calls = self.self_s, self.entry_calls
        spans, limit = self.spans, self.span_limit
        inner, outer = self.cost.resume_inner, self.cost.resume_outer
        by_process: Dict[Any, Tuple[int, int]] = {}
        entries: Dict[int, int] = {}

        def classify(process) -> Tuple[int, int]:
            generator = process.generator
            frame = generator.gi_frame
            if frame is not None and generator.gi_code is task_drive_code:
                frame = getattr(frame.f_locals.get("gen"), "gi_frame", None)
            layer = CORE
            if frame is not None:
                layer = layer_of_module(frame.f_globals.get("__name__"))
                if layer == EVENTLOOP:
                    layer = CORE
            if layer not in entries:
                entries[layer] = self._entry(f"resume:{LAYERS[layer]}", layer)
            return layer, entries[layer]

        def advanced(process, value):
            try:
                layer, entry = by_process[process]
            except KeyError:
                layer, entry = by_process[process] = classify(process)
            child.append(0.0)
            ids.append(next_id())
            t0 = clock()
            try:
                return advance(process, value)
            finally:
                t1 = clock()
                covered = child.pop()
                span_id = ids.pop()
                d = t1 - t0
                self_s[layer] += d - covered - inner
                child[-1] += d + outer
                entry_calls[entry] += 1
                if len(spans) < limit:
                    spans.append((entry, t0, t1, ids[-1], span_id))

        advanced.__wrapped__ = advance
        return advanced

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point of the loaded program; undo with
        :meth:`uninstall`."""
        from repro.core.tasks import Task
        from repro.nicsim.eventloop import EventLoop, Process

        for module_name, qualname, layer, hook in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self.wrap(
                    vars(owner)[attr], _INDEX[layer], qualname, hook))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, _INDEX[layer], qualname, hook)
            # Patch the function wherever it is looked up, such as the
            # name ``repro.analysis.rfc2544`` imported from its module.
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, attr, None) is original):
                    self._patch(mod, attr, wrapper)
        packet = importlib.import_module("repro.packet.packet")
        for cls in list(vars(packet).values()):
            if isinstance(cls, type) and "fill" in vars(cls):
                self._patch(cls, "fill", self.wrap(
                    vars(cls)["fill"], _INDEX["packet"],
                    f"{cls.__name__}.fill"))
        self._patch(EventLoop, "schedule_at",
                    self.wrap_schedule_at(vars(EventLoop)["schedule_at"]))
        self._patch(Process, "_advance", self.wrap_advance(
            vars(Process)["_advance"], Task._drive.__code__))

    def _patch(self, owner, attr: str, value) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ---------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Calls and self seconds per layer, and what tracing cost."""
        cost = self.cost
        calls = [0] * len(LAYERS)
        spans_of_kind = {"call": 0, "kwcall": 0, "dispatch": 0, "resume": 0}
        entry_calls: Dict[str, int] = {}
        for name, layer, n, kw in zip(self.names, self.layer_of_entry,
                                      self.entry_calls, self.kw_calls):
            calls[layer] += n
            kind = name.partition(":")[0] if ":" in name else "call"
            spans_of_kind[kind] += n - kw
            spans_of_kind["kwcall"] += kw
            entry_calls[name] = entry_calls.get(name, 0) + n
        trace_s = self.hook_s + (
            cost.sched_wrapped * self.sched_calls[0]
            + cost.sched_plain * self.sched_calls[1])
        for kind, n in spans_of_kind.items():
            trace_s += n * (getattr(cost, f"{kind}_inner")
                            + getattr(cost, f"{kind}_outer"))
        return {
            "self_s": dict(zip(LAYERS, self.self_s)),
            "calls": dict(zip(LAYERS, calls)),
            "trace_s": trace_s,
            "spans": sum(spans_of_kind.values()),
            "entry_calls": entry_calls,
            "counts": dict(self.counts),
        }

    def raw_spans(self) -> List[Tuple[str, float, float, int, int]]:
        """The buffered spans as ``(name, start, end, parent, id)``."""
        return [(self.names[entry], start, end, parent, span_id)
                for entry, start, end, parent, span_id in self.spans]

    def write_spans(self, path: str, run_id: str) -> None:
        """Append the buffered raw spans to ``path`` as JSON lines."""
        with open(path, "a", encoding="utf-8") as out:
            for name, start, end, parent, span_id in self.raw_spans():
                out.write(json.dumps({
                    "run": run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


def layer_metrics(summary: Dict[str, Any],
                  sim: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metric values of one traced job, by ledger name.

    A layer's ``self_s`` is its self time in the traced job, and
    ``trace.self_s`` the wrappers' calibrated cost.  ``trace.overhead``
    needs an untraced run; ``run.py`` fills it in.
    """
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: Dict[str, float] = {}
    for name in LAYERS:
        if name != "nicsim.eventloop":
            out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    batch = sim.get("batch") or {}
    events = sim.get("events", 0)
    out.update({
        "nicsim.eventloop.events": events,
        "nicsim.eventloop.lane_share": ratio(sim.get("lane_events", 0), events),
        "nicsim.nic.tx_frames": sim.get("nic_tx_frames", 0),
        "nicsim.nic.rx_frames": sim.get("nic_rx_frames", 0),
        "nicsim.nic.drops": sim.get("nic_drops", 0),
        "nicsim.link.frames": sim.get("link_frames", 0),
        "nicsim.link.filler_share": ratio(sim.get("fillers_sent", 0),
                                          sim.get("gen_wire_frames", 0)),
        "core.ratecontrol.fillers_per_packet": ratio(
            counts["core.ratecontrol.fillers"],
            counts["core.ratecontrol.gaps"]),
        "core.timestamping.probes": sim.get("probes", 0),
        "core.timestamping.lost_probes": sim.get("lost_probes", 0),
        "dut.interrupts": sim.get("dut_interrupts", 0),
        "dut.dropped": sim.get("dut_dropped", 0),
        "dut.crc_drops": sim.get("dut_crc_drops", 0),
        "dut.fastpath.packets": counts["dut.fastpath.packets"],
        "generators.packets": counts["generators.packets"],
        "analysis.trials": counts["analysis.trials"],
        "batch.trains": batch.get("trains", 0),
        "batch.frames": batch.get("frames", 0),
        "batch.fallbacks": sum((batch.get("fallbacks") or {}).values()),
        "batch.hit_ratio": ratio(batch.get("trains", 0), calls["batch"]),
        "metrics.observations": sim.get("observations", 0),
        "metrics.snapshots": sim.get("snapshots", 0),
        "trace.self_s": summary["trace_s"],
    })
    return out


def self_checks(summary: Dict[str, Any], sim: Dict[str, Any],
                wall_s: float) -> List[str]:
    """Why a traced job's accounting is wrong; empty when it holds."""
    spans, counts = summary["entry_calls"], summary["counts"]
    traced = (
        ("NicPort.receive spans", spans.get("NicPort.receive", 0),
         sim.get("nic_receive_calls")),
        ("Wire.transmit spans", spans.get("Wire.transmit", 0),
         sim.get("link_frames")),
        ("OvsForwarder.ingress spans", spans.get("OvsForwarder.ingress", 0),
         sim.get("dut_arrivals")),
        ("Log2Histogram.observe spans", spans.get("Log2Histogram.observe", 0),
         sim.get("observations")),
        ("simulate_forwarder packets", counts["dut.fastpath.packets"],
         sim.get("fastpath_packets")),
        ("throughput_test trials", counts["analysis.trials"],
         len(sim["trials"]) if "trials" in sim else None),
    )
    bad = [f"{what} {seen} != model counter {model}"
           for what, seen, model in traced
           if model is not None and seen != model]
    accounted = sum(summary["self_s"].values()) + summary["trace_s"]
    if abs(accounted - wall_s) > 0.02 * wall_s:
        bad.append(f"layer self times + trace ({accounted:.3f} s) differ "
                   f"from the traced wall time ({wall_s:.3f} s) by more "
                   f"than 2 %")
    return bad
