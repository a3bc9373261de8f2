"""Sim-time sampling of a metrics registry into an in-memory time series.

The :class:`Snapshotter` wakes every fixed *simulated* interval, samples
every registered metric, and appends one row to a :class:`TimeSeries`.
Its wakes are event-loop daemons
(:meth:`~repro.nicsim.eventloop.EventLoop.schedule_daemon`): they fire
beside the traffic but never keep the run alive, so an observed run ends
where the bare run does.  Because sampling happens at deterministic
simulated instants and reads deterministic simulation state, the
resulting series — and its BLAKE2b fingerprint — is bit-identical
between serial and ``--jobs N`` runs (the CI hard gate).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.metrics.manifest import short_hash
from repro.metrics.registry import MetricsRegistry


def canonical_json(obj: Any) -> str:
    """Compact separators, keys in insertion order — the byte-stable form
    every fingerprint and JSONL exporter uses (same as the trace layer)."""
    return json.dumps(obj, separators=(",", ":"))


class TimeSeries:
    """Ordered snapshot rows: ``{"t_ns": ..., "<metric>": value, ...}``."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, Any]] = []

    def append(self, row: Dict[str, Any]) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    @property
    def last(self) -> Optional[Dict[str, Any]]:
        return self.rows[-1] if self.rows else None

    def final_values(self) -> Dict[str, Any]:
        """The last sampled value of every metric (empty if no rows)."""
        if not self.rows:
            return {}
        row = dict(self.rows[-1])
        row.pop("t_ns", None)
        return row

    def column(self, name: str) -> List[Any]:
        """All values of one metric, in time order."""
        return [row[name] for row in self.rows if name in row]

    def to_jsonl(self, exclude_prefixes: Tuple[str, ...] = ()) -> str:
        """One canonical-JSON object per line (trailing newline included).

        ``exclude_prefixes`` drops columns whose name starts with any of
        the given prefixes.
        """
        rows = self.rows
        if not rows:
            return ""
        if exclude_prefixes:
            rows = [
                {key: value for key, value in row.items()
                 if not key.startswith(exclude_prefixes)}
                for row in rows
            ]
        return "\n".join(canonical_json(row) for row in rows) + "\n"

    def fingerprint(self, exclude_prefixes: Tuple[str, ...] = ("loop.",)
                    ) -> str:
        """Short BLAKE2b hash of the canonical JSONL serialization.

        ``loop.*`` is left out by default: the event loop's and the batch
        tier's self-accounting describe *scheduler* work, which the batch
        tier legitimately changes while leaving the simulated world
        bit-identical (docs/ARCHITECTURE.md, "testing the equivalence
        claim").  Pass ``()`` to hash every column.
        """
        return short_hash(self.to_jsonl(exclude_prefixes))


class Snapshotter:
    """Samples a registry every ``interval_ns`` of sim time.

    :meth:`start` (``env.start_snapshotter`` calls it) schedules a daemon
    at the current instant, which schedules the first wake.  Each wake
    samples and, while ``env.running()``, schedules the next one
    ``interval_ns`` later.  The wakes stop when the traffic does: a run
    whose traffic ends before its horizon leaves no rows after it.
    :meth:`finalize` takes a closing sample so the last row reflects
    final state.  Finalize is same-instant idempotent: a second sample
    at an instant already recorded is skipped, but a *later* call — e.g.
    after ``wait_for_slaves`` drains in-flight frames past the stop
    horizon — records one more row, which is what makes the series'
    final counter values exactly match the device counters.
    """

    def __init__(self, env, registry: MetricsRegistry,
                 interval_ns: float = 1_000_000.0) -> None:
        if interval_ns <= 0:
            raise ConfigurationError(
                f"snapshot interval must be positive, got {interval_ns}"
            )
        self.env = env
        self.registry = registry
        self.interval_ns = float(interval_ns)
        self._interval_ps = round(self.interval_ns * 1000)
        self.series = TimeSeries()
        self.samples = 0

    def _sample(self) -> None:
        now_ns = self.env.now_ns
        row: Dict[str, Any] = {"t_ns": now_ns}
        row.update(self.registry.sample(now_ns))
        self.series.append(row)
        self.samples += 1

    def start(self) -> None:
        """Schedule the first wake from a daemon at the current instant."""
        loop = self.env.loop
        loop.schedule_daemon(loop.now_ps, self._rearm)

    def _wake(self) -> None:
        self._sample()
        self._rearm()

    def _rearm(self) -> None:
        """Schedule the next wake while the experiment runs, else close."""
        env = self.env
        if env.running():
            loop = env.loop
            loop.schedule_daemon(loop.now_ps + self._interval_ps, self._wake)
        else:
            self.finalize()

    def finalize(self) -> None:
        """Take a closing sample unless one exists at this exact instant."""
        last = self.series.last
        if last is not None and last["t_ns"] == self.env.now_ns:
            return
        self._sample()
