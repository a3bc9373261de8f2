"""Sim-time sampling of a metrics registry into an in-memory time series.

The :class:`Snapshotter` is a slave task like any userscript loop: it
sleeps a fixed *simulated* interval, samples every registered metric, and
appends one row to a :class:`TimeSeries`.  Because sampling happens at
deterministic simulated instants and reads deterministic simulation
state, the resulting series — and its BLAKE2b fingerprint — is
bit-identical between serial and ``--jobs N`` runs (the CI hard gate).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
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
        return hashlib.blake2b(
            self.to_jsonl(exclude_prefixes).encode("utf-8"),
            digest_size=8).hexdigest()


class Snapshotter:
    """A slave task that samples a registry every ``interval_ns`` of sim time.

    Launch it like a monitor (``env.launch(snapshotter.task)``); it samples
    once per interval while the experiment runs, and :meth:`finalize` (also
    called when the task loop exits) takes a closing sample so the last row
    reflects final state.  Finalize is same-instant idempotent: a second
    sample at an instant already recorded is skipped, but a *later* call —
    e.g. after ``wait_for_slaves`` drains in-flight frames past the stop
    horizon — records one more row, which is what makes the series' final
    counter values exactly match the device counters.
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
        self.series = TimeSeries()
        self.samples = 0

    def _sample(self) -> None:
        now_ns = self.env.now_ns
        row: Dict[str, Any] = {"t_ns": now_ns}
        row.update(self.registry.sample(now_ns))
        self.series.append(row)
        self.samples += 1

    def task(self):
        """Generator slave task: sample on the interval, then finalize."""
        env = self.env
        interval = self.interval_ns
        try:
            while env.running():
                yield env.sleep_ns(interval)
                self._sample()
        finally:
            self.finalize()

    def finalize(self) -> None:
        """Take a closing sample unless one exists at this exact instant."""
        last = self.series.last
        if last is not None and last["t_ns"] == self.env.now_ns:
            return
        self._sample()
