"""Optional-dependency shims.

numpy is an *optional* analysis dependency: the simulator core, the
batch tier, the fault subsystem, and the CLI smoke scenarios all run
without it.  Modules that genuinely need arrays (generator models, the
DuT fastpath, analysis statistics, traffic patterns) import ``np`` from
here and call :func:`require_numpy` at their public entry points so a
missing install fails with a clear message instead of an
``AttributeError`` on ``None``.
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None


def require_numpy(feature: str):
    """Return numpy, or raise ``ImportError`` naming the feature."""
    if np is None:
        raise ImportError(
            f"numpy is required for {feature} "
            "(pip install numpy, or the repo's [test] extra)")
    return np
