"""A bounded memo that admits a key on its second sighting.

MoonGen pays for a packet's constant bytes once: the mempool's fill runs
at pool creation and the NIC computes offloaded checksums for free.  The
simulator gets the same effect by memoizing what a packet operation
writes, keyed on its inputs: ``_StackView.fill`` caches write-sets and
``materialize_frame`` caches checksummed payloads.  Both keys repeat
packet after packet in the paper's scripts, but a stream of one-off keys
(the timestamper's probes, each with its own sequence number) must not
pay for entries nobody reads again.  Hence the two rules:

* **Admission on the second sighting.**  The first miss on a key only
  records it, one set insert; the second miss admits it.  A key that
  never comes back costs nothing beyond that insert.
* **A bound, cleared when reached.**  The entries and the record of
  first sightings are each capped at :attr:`SecondSightMemo.BOUND` keys
  and cleared when full, so a long process (the paper suite runs every
  bench in one interpreter) neither grows without limit nor keeps only
  the keys it saw first.  One-off keys fill the sightings, never the
  entries.

Each entry must be a pure function of its key, so a caller can observe
another caller's entries only through speed.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Set


class SecondSightMemo:
    """A bounded key -> value memo with second-sighting admission.

    Hot paths read :attr:`entries` directly with ``dict.get``; on a miss
    they call :meth:`admit` and, if it says yes, build the value and
    :meth:`store` it.
    """

    __slots__ = ("entries", "_sighted")

    #: The most keys held in :attr:`entries`, and in the first sightings.
    BOUND = 1024

    def __init__(self) -> None:
        #: Admitted keys and their values; at most :attr:`BOUND` of them.
        self.entries: Dict[Hashable, Any] = {}
        self._sighted: Set[Hashable] = set()

    def admit(self, key: Hashable) -> bool:
        """Record a miss on ``key``; True if this is its second sighting."""
        sighted = self._sighted
        if key in sighted:
            sighted.discard(key)
            return True
        if len(sighted) >= self.BOUND:
            sighted.clear()
        sighted.add(key)
        return False

    def store(self, key: Hashable, value: Any) -> Any:
        """Enter an admitted key; returns ``value``."""
        entries = self.entries
        if len(entries) >= self.BOUND:
            entries.clear()
        entries[key] = value
        return value
