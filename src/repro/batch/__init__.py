"""Batch execution tier for the event loop.

A run-detector (:mod:`repro.batch.detector`) inspects a port's pending
work for homogeneous event trains — per-queue TX/DMA/serialize/
wire-delivery sequences with no cross-component interaction before the
next live event — and executes each train arithmetically
(:mod:`repro.batch.kernels`), updating NIC, link, and rx-side state to
exactly the values the discrete loop would have produced.  At any
interaction point (a fault firing, queue-full backpressure via the tx
space signal, a parked receiver, a monitor that must sample, an enabled
tracer, an in-flight frame straddling the bound) it falls back to
event-by-event execution and accounts the reason.

Enable it with ``MoonGenEnv(batch=True)``, or ``--batch`` on the CLI.
Bit-identical output is the house invariant: ``tests/test_equivalence.py``
runs every scenario in :mod:`repro.scenarios` with the tier on and off,
observers on and off, and diffs result dicts, device, wire and DuT
counters, and metrics and latency fingerprints.

The tier's own statistics are scheduler self-accounting — they describe
the batching machinery's work, not the simulated world.  With a metrics
registry enabled they are published next to the heap's ``loop.sched.*``
gauges (``loop.batch.trains``, ``loop.batch.frames``,
``loop.batch.events_saved``, and one ``loop.batch.fallback.<reason>``
counter per fallback reason), so the ``loop.`` prefix every fingerprint
excludes covers them.  Read them directly with :meth:`BatchTier.stats` or
:meth:`BatchTier.summary`.
"""

from __future__ import annotations

from typing import Dict

from repro.batch.detector import FALLBACK_REASONS, Train, detect_train
from repro.batch.kernels import run_train

__all__ = ["BatchTier", "Train", "detect_train", "run_train",
           "FALLBACK_REASONS"]


class BatchTier:
    """The batch dispatch hook installed on an :class:`EventLoop`.

    One tier is shared by every port on a loop (``loop.batch``); each
    port routes its post-transmit MAC state through :meth:`execute`.
    Trains run to the next live event, the run horizon, or their
    intrinsic stop.
    """

    def __init__(self) -> None:
        #: Trains executed (at least one frame batched).
        self.trains = 0
        #: Frames sent through batch kernels.
        self.frames = 0
        #: Estimated events the discrete loop would have scheduled for the
        #: batched frames (MAC-done + wire delivery per frame, plus the
        #: pacing wakeup for paced trains).
        self.events_saved = 0
        #: Fallback reason -> count (reasons from ``FALLBACK_REASONS``).
        self.fallbacks: Dict[str, int] = {}

    def execute(self, port, start_ps: int) -> int:
        """Try to batch from ``port``'s current MAC kick.

        Returns the MAC-free time to schedule ``_mac_done`` at: advanced
        past every batched frame, or ``start_ps`` unchanged on fallback.
        """
        train = detect_train(port, start_ps)
        if type(train) is str:
            counts = self.fallbacks
            counts[train] = counts.get(train, 0) + 1
            return start_ps
        end_ps, sent = run_train(train, start_ps)
        if sent:
            self.trains += 1
            self.frames += sent
            self.events_saved += (3 if train.paced else 2) * sent
        else:
            counts = self.fallbacks
            counts["horizon"] = counts.get("horizon", 0) + 1
        return end_ps

    def stats(self) -> Dict[str, object]:
        """A stable snapshot dict (CLI/manifest friendly)."""
        return {
            "trains": self.trains,
            "frames": self.frames,
            "events_saved": self.events_saved,
            "fallbacks": dict(sorted(self.fallbacks.items())),
        }

    def summary(self) -> str:
        """One human-readable line for CLI output."""
        if not self.trains:
            reasons = sorted(self.fallbacks.items(), key=lambda kv: -kv[1])
            top = ", ".join(f"{k}={v}" for k, v in reasons[:3])
            return f"batch tier: no trains batched ({top or 'no attempts'})"
        avg = self.frames / self.trains
        return (f"batch tier: {self.frames} frames in {self.trains} trains "
                f"(avg {avg:.1f}/train), ~{self.events_saved} events saved")
