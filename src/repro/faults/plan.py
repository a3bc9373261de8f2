"""Fault plans: declarative, schedulable, serializable fault sets.

A :class:`FaultPlan` is an ordered tuple of fault dataclasses, each naming
a *target* and a window (or instant) in simulation time.  Plans are plain
frozen dataclasses so the canonical-key machinery of
:mod:`repro.parallel.seeding` applies directly: the per-fault RNG seed is
``seed_for(plan.seed, (index, fault))``, a pure function of the plan —
never of worker identity or scheduling — which is what makes a chaos run
replay bit-identically under any ``--jobs`` count.

Target grammar (resolved by :class:`repro.faults.FaultInjector` against
the names :class:`repro.core.env.MoonGenEnv` registers):

* ``"wire:A->B"`` — the directed wire from port A to port B
  (``"wire:0->sink"`` for a wire into a DuT, ``"wire:env->1"`` for a wire
  out of one),
* ``"port:N"`` — NIC port N,
* ``"dut"`` — the registered device under test.

See ``docs/FAULTS.md`` for the JSON schema and the fault catalog.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple, Type, Union

from repro.errors import ConfigurationError


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigurationError(message)


def _check_window(fault: "Fault") -> None:
    _require(fault.start_ns >= 0, f"{type(fault).__name__}: negative start_ns")
    _require(fault.end_ns >= fault.start_ns,
             f"{type(fault).__name__}: end_ns before start_ns")


def _check_prob(fault: "Fault", name: str) -> None:
    value = getattr(fault, name)
    _require(0.0 <= value <= 1.0,
             f"{type(fault).__name__}.{name} must be in [0, 1]: {value}")


@dataclass(frozen=True)
class BurstLoss:
    """Bursty wire loss: a Gilbert–Elliott two-state model on one wire.

    While active, each frame first moves the good/bad state with the
    transition probabilities, then is lost with the current state's loss
    probability.  The model draws from its own seeded RNG stream, so the
    wire's jitter/corruption draws are unshifted.
    """

    target: str
    start_ns: float
    end_ns: float
    #: P(good → bad) per frame; bursts start rarely ...
    p_good_bad: float = 0.01
    #: ... and P(bad → good) per frame; but end quickly.
    p_bad_good: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 0.9

    def validate(self) -> None:
        _check_window(self)
        for name in ("p_good_bad", "p_bad_good", "loss_good", "loss_bad"):
            _check_prob(self, name)


@dataclass(frozen=True)
class CorruptionBurst:
    """A window of wire bit errors: frames arrive with a broken FCS at
    ``rate`` and are dropped (and counted) by the receiving NIC."""

    target: str
    start_ns: float
    end_ns: float
    rate: float = 0.2

    def validate(self) -> None:
        _check_window(self)
        _check_prob(self, "rate")


@dataclass(frozen=True)
class LinkFlap:
    """Carrier loss on a port: link down at ``start_ns``, up at ``end_ns``.

    Software sees the LSC transition (``NicPort.link_up`` /
    ``link_signal``); frames on every wire touching the port are lost
    while the carrier is down.
    """

    target: str
    start_ns: float
    end_ns: float

    def validate(self) -> None:
        _check_window(self)
        _require(self.target.startswith("port:"),
                 f"LinkFlap targets ports, got {self.target!r}")


@dataclass(frozen=True)
class QueueStall:
    """A tx queue stops being serviced: descriptors accumulate in the ring
    and producers back-pressure until the window ends."""

    target: str
    start_ns: float
    end_ns: float
    queue: int = 0

    def validate(self) -> None:
        _check_window(self)
        _require(self.queue >= 0, f"QueueStall: negative queue {self.queue}")


@dataclass(frozen=True)
class DmaSlowdown:
    """PCIe/DMA contention: per-frame MAC occupancy stretched by ``factor``."""

    target: str
    start_ns: float
    end_ns: float
    factor: float = 4.0

    def validate(self) -> None:
        _check_window(self)
        _require(self.factor >= 1.0,
                 f"DmaSlowdown.factor must be >= 1: {self.factor}")


@dataclass(frozen=True)
class RingFreeze:
    """An rx descriptor ring stops accepting refills: arrivals overflow
    into the existing ``rx_missed`` path until the window ends."""

    target: str
    start_ns: float
    end_ns: float
    queue: int = 0

    def validate(self) -> None:
        _check_window(self)
        _require(self.queue >= 0, f"RingFreeze: negative queue {self.queue}")


@dataclass(frozen=True)
class ClockStep:
    """A one-shot step jump of a port's PTP clock at ``at_ns``."""

    target: str
    at_ns: float
    step_ns: float

    def validate(self) -> None:
        _require(self.at_ns >= 0, "ClockStep: negative at_ns")


@dataclass(frozen=True)
class ClockDrift:
    """A one-shot drift-rate change of a port's PTP clock at ``at_ns``."""

    target: str
    at_ns: float
    drift_ppm: float

    def validate(self) -> None:
        _require(self.at_ns >= 0, "ClockDrift: negative at_ns")


@dataclass(frozen=True)
class DutOverload:
    """DuT saturation: per-packet service time scaled by ``factor``."""

    target: str
    start_ns: float
    end_ns: float
    factor: float = 8.0

    def validate(self) -> None:
        _check_window(self)
        _require(self.factor >= 1.0,
                 f"DutOverload.factor must be >= 1: {self.factor}")
        _require(self.target == "dut",
                 f"DutOverload targets 'dut', got {self.target!r}")


Fault = Union[
    BurstLoss, CorruptionBurst, LinkFlap, QueueStall, DmaSlowdown,
    RingFreeze, ClockStep, ClockDrift, DutOverload,
]

#: JSON ``fault`` field name → dataclass; the catalog.
FAULT_KINDS: Dict[str, Type] = {
    "burst_loss": BurstLoss,
    "corruption": CorruptionBurst,
    "link_flap": LinkFlap,
    "queue_stall": QueueStall,
    "dma_slowdown": DmaSlowdown,
    "ring_freeze": RingFreeze,
    "clock_step": ClockStep,
    "clock_drift": ClockDrift,
    "dut_overload": DutOverload,
}

_CLASS_TO_KIND = {cls: kind for kind, cls in FAULT_KINDS.items()}

#: Schema version of the JSON form.
PLAN_VERSION = 1


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of scheduled faults plus the plan's root seed.

    The order is part of the plan's identity: fault index ``i`` seeds its
    RNG with ``seed_for(seed, (i, fault))``, so reordering a plan changes
    its random streams (deliberately — the index keeps two identical
    faults on the same target from sharing a stream).
    """

    faults: Tuple[Fault, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if type(fault) not in _CLASS_TO_KIND:
                raise ConfigurationError(
                    f"not a fault: {fault!r} (valid: {sorted(FAULT_KINDS)})"
                )
            fault.validate()

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        faults: List[Dict[str, Any]] = []
        for fault in self.faults:
            obj: Dict[str, Any] = {"fault": _CLASS_TO_KIND[type(fault)]}
            obj.update(dataclasses.asdict(fault))
            faults.append(obj)
        return {"version": PLAN_VERSION, "seed": self.seed, "faults": faults}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "FaultPlan":
        version = obj.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise ConfigurationError(
                f"unsupported fault-plan version {version} "
                f"(this build reads {PLAN_VERSION})"
            )
        faults: List[Fault] = []
        for entry in obj.get("faults", []):
            entry = dict(entry)
            kind = entry.pop("fault", None)
            fault_cls = FAULT_KINDS.get(kind)
            if fault_cls is None:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r} (valid: {sorted(FAULT_KINDS)})"
                )
            names = {f.name for f in dataclasses.fields(fault_cls)}
            unknown = set(entry) - names
            if unknown:
                raise ConfigurationError(
                    f"fault {kind!r}: unknown fields {sorted(unknown)}"
                )
            try:
                faults.append(fault_cls(**entry))
            except TypeError as exc:
                raise ConfigurationError(f"fault {kind!r}: {exc}") from None
        return cls(faults=tuple(faults), seed=int(obj.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"fault plan is not JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ConfigurationError("fault plan JSON must be an object")
        return cls.from_dict(obj)

    # -- introspection -----------------------------------------------------

    def targets(self) -> Tuple[str, ...]:
        """Distinct targets in first-seen order."""
        seen: List[str] = []
        for fault in self.faults:
            if fault.target not in seen:
                seen.append(fault.target)
        return tuple(seen)

    def __len__(self) -> int:
        return len(self.faults)


def load_plan(source: Any) -> FaultPlan:
    """Coerce a plan from whatever the caller has.

    Accepts a :class:`FaultPlan` (returned as-is), a dict (the JSON
    object form), a JSON string, or a filesystem path to a ``.json``
    plan file.
    """
    if isinstance(source, FaultPlan):
        return source
    if isinstance(source, dict):
        return FaultPlan.from_dict(source)
    if isinstance(source, str):
        text = source.lstrip()
        if text.startswith("{"):
            return FaultPlan.from_json(source)
        try:
            with open(source, "r", encoding="utf-8") as fh:
                return FaultPlan.from_json(fh.read())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read fault plan {source!r}: {exc}"
            ) from None
    raise ConfigurationError(
        f"cannot build a FaultPlan from {type(source).__name__}"
    )


def builtin_plans(seed: int = 0) -> Dict[str, FaultPlan]:
    """The small plan registry the ``faults`` subcommand runs.

    All plans are phrased against the canonical chaos topology
    (:func:`repro.scenarios.chaos`): port 0 transmits to port 1 over
    ``wire:0->1``.  No two windows of a plan overlap on one target.
    """
    return {
        "flap": FaultPlan(faults=(
            LinkFlap("port:1", start_ns=2e6, end_ns=3e6),
            LinkFlap("port:1", start_ns=5e6, end_ns=5.5e6),
        ), seed=seed),
        "burst-loss": FaultPlan(faults=(
            BurstLoss("wire:0->1", start_ns=1e6, end_ns=6e6,
                      p_good_bad=0.02, p_bad_good=0.2,
                      loss_good=0.0, loss_bad=0.8),
        ), seed=seed),
        "clock-step": FaultPlan(faults=(
            ClockStep("port:1", at_ns=2e6, step_ns=500.0),
            ClockDrift("port:1", at_ns=4e6, drift_ppm=35.0),
        ), seed=seed),
        "nic-chaos": FaultPlan(faults=(
            QueueStall("port:0", start_ns=1e6, end_ns=2e6, queue=0),
            DmaSlowdown("port:0", start_ns=3e6, end_ns=4e6, factor=4.0),
            RingFreeze("port:1", start_ns=5e6, end_ns=5.5e6, queue=0),
        ), seed=seed),
        "corruption": FaultPlan(faults=(
            CorruptionBurst("wire:0->1", start_ns=2e6, end_ns=4e6, rate=0.3),
        ), seed=seed),
    }
