"""Event-loop self-profiler: where does host wall-time actually go?

The perf ledger (``benchmarks/ledger``) says *that* a workload slowed
down; this module says *which callbacks* the time went to.
:class:`LoopProfiler` drives the event loop event-by-event with a
``perf_counter`` latch around every callback and attributes host time to
a category derived from the callback's qualname (``NicPort.*`` → nic,
``Wire.*`` → wire, ``Process.*`` → process, ...).  Scheduler overhead
(heap pops, lane rotation) and the profiler's own latching are measured
explicitly, so the per-category times sum to the measured loop time — no
mystery residue.

Profiling necessarily bypasses the inlined ``EventLoop.run`` hot path
(that is the point: per-event latches), so absolute event rates under
the profiler are lower than unprofiled ones; the *distribution* is what
it reports.  Simulation results are unaffected — events fire in exactly the
deterministic order ``run()`` would use, via ``EventLoop._next_event``.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError

#: Callback qualname prefix (text before the first ``.``) → category.
#: Closures keep their defining class's prefix (``FaultInjector._arm_
#: wire_fault.<locals>.start`` → faults), so the map stays short.
CATEGORY_BY_PREFIX = {
    "NicPort": "nic",
    "TxQueueSim": "nic",
    "RxQueueSim": "nic",
    "Wire": "wire",
    "OvsForwarder": "dut",
    "HardwareSwitch": "dut",
    "LearningSwitch": "dut",
    "Process": "process",
    "FaultInjector": "faults",
    "wait_any": "signal",
    "Timestamper": "timestamp",
}


def categorize(callback_name: str) -> str:
    """Map a callback qualname to its profiling category."""
    prefix, _, _ = callback_name.partition(".")
    return CATEGORY_BY_PREFIX.get(prefix, "other")


class CategoryStats:
    """Accumulated events and host seconds for one category or callback."""

    __slots__ = ("events", "wall_s")

    def __init__(self) -> None:
        self.events = 0
        self.wall_s = 0.0


class ProfileReport:
    """The profiler's result: per-category and per-callback attribution."""

    def __init__(self, categories: Dict[str, CategoryStats],
                 callbacks: Dict[str, CategoryStats],
                 total_wall_s: float, events: int,
                 sim_time_ns: float) -> None:
        self.categories = categories
        self.callbacks = callbacks
        self.total_wall_s = total_wall_s
        self.events = events
        self.sim_time_ns = sim_time_ns

    def attributed_wall_s(self) -> float:
        return sum(s.wall_s for s in self.categories.values())

    def to_dict(self) -> Dict[str, Any]:
        def rows(stats: Dict[str, CategoryStats]) -> List[Dict[str, Any]]:
            out = []
            for name, s in sorted(stats.items(),
                                  key=lambda kv: -kv[1].wall_s):
                out.append({
                    "name": name,
                    "events": s.events,
                    "wall_s": round(s.wall_s, 6),
                    "pct": round(100.0 * s.wall_s / self.total_wall_s, 2)
                    if self.total_wall_s else 0.0,
                })
            return out

        return {
            "schema": 1,
            "total_wall_s": round(self.total_wall_s, 6),
            "attributed_wall_s": round(self.attributed_wall_s(), 6),
            "events": self.events,
            "sim_time_ns": self.sim_time_ns,
            "events_per_s": round(self.events / self.total_wall_s, 1)
            if self.total_wall_s else 0.0,
            "categories": rows(self.categories),
            "top_callbacks": rows(self.callbacks)[:15],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def format_table(self) -> str:
        """The sorted per-category table the CLI prints."""
        doc = self.to_dict()
        lines = [
            f"profiled {doc['events']} events in {doc['total_wall_s']:.3f}s "
            f"host time ({doc['events_per_s']:,.0f} ev/s under profiling), "
            f"{self.sim_time_ns / 1e6:.2f} ms simulated",
            "",
            f"{'category':<12} {'events':>10} {'wall_s':>10} {'%':>7}",
        ]
        for row in doc["categories"]:
            lines.append(f"{row['name']:<12} {row['events']:>10} "
                         f"{row['wall_s']:>10.4f} {row['pct']:>6.1f}%")
        lines.append("")
        lines.append(f"{'top callbacks':<40} {'events':>10} {'wall_s':>10}")
        for row in doc["top_callbacks"]:
            lines.append(f"{row['name'][:40]:<40} {row['events']:>10} "
                         f"{row['wall_s']:>10.4f}")
        return "\n".join(lines)


class LoopProfiler:
    """Drives an :class:`~repro.nicsim.eventloop.EventLoop` with per-event
    wall-time attribution."""

    def __init__(self, loop) -> None:
        self.loop = loop

    def run(self, max_events: int = 50_000_000) -> ProfileReport:
        """Run the loop to drain (or ``max_events``) under the profiler.

        The stop condition is the caller's: set a stop horizon first (e.g.
        ``env.stop_after(duration_ns)``) so slave loops exit and the queue
        drains, exactly like an unprofiled ``wait_for_slaves``.
        """
        from repro.nicsim.eventloop import _callback_name

        loop = self.loop
        next_event = loop._next_event
        clock = time.perf_counter
        categories: Dict[str, CategoryStats] = {}
        callbacks: Dict[str, CategoryStats] = {}
        scheduler = categories.setdefault("scheduler", CategoryStats())
        count = 0
        start = clock()
        t0 = start
        while True:
            event = next_event()
            t1 = clock()  # pop done; t1-t0 is scheduler time
            scheduler.wall_s += t1 - t0
            if event is None:
                break
            loop.now_ps = event.time_ps
            name = _callback_name(event.callback)
            event.callback()
            t2 = clock()
            count += 1
            category = categorize(name)
            cat = categories.get(category)
            if cat is None:
                cat = categories[category] = CategoryStats()
            cat.events += 1
            cat.wall_s += t2 - t1
            cb = callbacks.get(name)
            if cb is None:
                cb = callbacks[name] = CategoryStats()
            cb.events += 1
            cb.wall_s += t2 - t1
            if count > max_events:
                raise ConfigurationError(
                    f"profiler event budget exhausted after {max_events}"
                )
            t0 = t2
        total = clock() - start
        loop.events_processed += count
        scheduler.events = count
        # Whatever the latches themselves cost (dict lookups, categorize)
        # is the only unattributed time; book it explicitly so the
        # category column sums to the measured total.
        residual = total - sum(s.wall_s for s in categories.values())
        profiler = categories.setdefault("profiler", CategoryStats())
        profiler.wall_s += max(0.0, residual)
        return ProfileReport(categories, callbacks, total, count,
                             loop.now_ps / 1000.0)


def profile_env(env, duration_ns: float,
                max_events: int = 50_000_000) -> ProfileReport:
    """Profile a fully built environment for a simulated duration.

    The profiled equivalent of ``env.wait_for_slaves(duration_ns)``:
    sets the stop horizon, drives the loop under the profiler, then
    kills stragglers and re-raises any task error.
    """
    env.stop_after(duration_ns)
    report = LoopProfiler(env.loop).run(max_events=max_events)
    for task in env.tasks:
        if not task.finished:
            task.kill()
    for task in env.tasks:
        task.check()
    return report


__all__ = [
    "CATEGORY_BY_PREFIX",
    "LoopProfiler",
    "ProfileReport",
    "categorize",
    "profile_env",
]
