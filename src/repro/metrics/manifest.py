"""Run provenance manifests: enough context to reproduce any result file.

A :class:`RunManifest` is written next to every metrics / precision
result file (``metrics.jsonl`` → ``metrics.manifest.json``).
It records what produced the numbers — command, seed, jobs, a stable
hash of the configuration, the fault-plan hash if one was armed, the
result fingerprint, and the package/python versions — so any number in a
result file can be traced to an exact reproducible invocation.

Hashes reuse :func:`repro.parallel.seeding.point_key` (the typed,
order-insensitive canonical encoding behind per-point seeds), so two
manifests agree on ``config_hash`` exactly when the configs are
value-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Any, Dict, Optional

from repro.parallel.seeding import point_key

MANIFEST_SCHEMA = 1


def stable_hash(obj: Any) -> str:
    """Short BLAKE2b hash of any point_key-encodable value."""
    return hashlib.blake2b(point_key(obj).encode("utf-8"),
                           digest_size=8).hexdigest()


def manifest_path_for(result_path: str) -> str:
    """``metrics.jsonl`` → ``metrics.manifest.json`` (any extension)."""
    base, _ = os.path.splitext(result_path)
    return base + ".manifest.json"


class RunManifest:
    """Provenance for one result artifact."""

    def __init__(
        self,
        command: str,
        seed: Optional[int] = None,
        jobs: Optional[int] = None,
        config: Optional[Dict[str, Any]] = None,
        fault_plan: Any = None,
        result_fingerprint: Optional[str] = None,
        fingerprints: Optional[Dict[str, str]] = None,
    ) -> None:
        self.command = command
        self.seed = seed
        self.jobs = jobs
        self.config = dict(config) if config else {}
        self.fault_plan = fault_plan
        self.result_fingerprint = result_fingerprint
        #: Named auxiliary fingerprints (e.g. ``{"latency": ...}`` from
        #: ``DataplaneObserver.fingerprint``); emitted only when non-empty
        #: so older manifests stay byte-identical.
        self.fingerprints = dict(fingerprints) if fingerprints else {}

    def to_dict(self) -> Dict[str, Any]:
        import repro

        doc: Dict[str, Any] = {
            "schema": MANIFEST_SCHEMA,
            "command": self.command,
            "seed": self.seed,
            "jobs": self.jobs,
            "config": self.config,
            "config_hash": stable_hash(self.config),
            "fault_plan_hash": (stable_hash(self.fault_plan)
                                if self.fault_plan is not None else None),
            "result_fingerprint": self.result_fingerprint,
            "package_version": repro.__version__,
            "python_version": "%d.%d.%d" % sys.version_info[:3],
        }
        if self.fingerprints:
            doc["fingerprints"] = dict(self.fingerprints)
        return doc

    def write(self, result_path: str) -> str:
        """Write the manifest next to ``result_path``; returns its path."""
        path = manifest_path_for(result_path)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return path


def load_manifest(path: str) -> Dict[str, Any]:
    """Read and schema-check a manifest file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"{path}: unsupported manifest schema {doc.get('schema')!r}"
        )
    for key in ("command", "config_hash", "package_version",
                "python_version"):
        if key not in doc:
            raise ValueError(f"{path}: manifest missing {key!r}")
    return doc


__all__ = [
    "MANIFEST_SCHEMA",
    "RunManifest",
    "load_manifest",
    "manifest_path_for",
    "stable_hash",
]
