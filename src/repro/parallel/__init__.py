"""Parallel experiment engine (``repro.parallel``).

Shards independent ``MoonGenEnv`` simulations — bench sweep points,
RFC 2544 searches, repeat rounds — across host cores with a
deterministic merge: results are bit-identical to serial execution
regardless of worker count or completion order.

Public surface:

* :func:`run_parallel` — run ``fn(point, seed)`` over points, results in
  submission order; per-point timeouts, crash retry, serial fallback.
* :func:`seed_for` / :func:`point_key` — pure per-point seed derivation.
* :func:`default_jobs` — usable host core count.

The sweeps the ``sweep`` subcommand runs live in :mod:`repro.scenarios`.
See docs/PERFORMANCE.md ("The parallel experiment engine").
"""

from repro.parallel.engine import default_jobs, run_parallel
from repro.parallel.seeding import point_key, seed_for

__all__ = [
    "default_jobs",
    "point_key",
    "run_parallel",
    "seed_for",
]
