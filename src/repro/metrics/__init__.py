"""``repro.metrics`` — run-wide telemetry for the simulator.

Four pieces (see ``docs/METRICS.md``):

* :class:`MetricsRegistry` + Counter/Gauge/Rate/:class:`Log2Histogram` —
  components publish metrics under stable dotted names;
* :class:`Snapshotter`/:class:`TimeSeries` — event-loop daemons sample
  the registry on a fixed sim-time interval; series are deterministic and
  fingerprintable;
* exporters — JSONL (canonical), CSV, Prometheus text (one-shot scrape
  file);
* :class:`RunManifest` — provenance written next to every result file;
  :class:`LoopProfiler` — host wall-time attribution per event category.

Enable per-run via ``MoonGenEnv(metrics=True)``; ``None`` (default) keeps
every hook inert, same zero-cost contract as the tracer.
"""

from repro.metrics.dataplane import DataplaneObserver, PortDataplane
from repro.metrics.export import (
    prometheus_name,
    to_prometheus,
    validate_jsonl,
    write_csv,
    write_jsonl,
)
from repro.metrics.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    load_manifest,
    manifest_path_for,
    stable_hash,
)
from repro.metrics.profiler import (
    LoopProfiler,
    ProfileReport,
    categorize,
    profile_env,
)
from repro.metrics.registry import (
    Counter,
    Gauge,
    Log2Histogram,
    Metric,
    MetricsRegistry,
    Rate,
    check_name,
)
from repro.metrics.snapshot import Snapshotter, TimeSeries, canonical_json

__all__ = [
    "Counter",
    "DataplaneObserver",
    "Gauge",
    "Log2Histogram",
    "LoopProfiler",
    "MANIFEST_SCHEMA",
    "Metric",
    "MetricsRegistry",
    "PortDataplane",
    "ProfileReport",
    "Rate",
    "RunManifest",
    "Snapshotter",
    "TimeSeries",
    "canonical_json",
    "categorize",
    "check_name",
    "load_manifest",
    "manifest_path_for",
    "profile_env",
    "prometheus_name",
    "stable_hash",
    "to_prometheus",
    "validate_jsonl",
    "write_csv",
    "write_jsonl",
]
