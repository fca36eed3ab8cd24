"""Fault plans: the declarative configuration of a chaos run.

A :class:`FaultPlan` says *which* faults a
:class:`~repro.faults.injector.FaultInjector` may introduce and *how
often*, plus the seed every fault decision is drawn from.  Plans are
immutable, validated, JSON-round-trippable (they ride inside stream
checkpoints so a resumed chaos run keeps misbehaving identically), and
addressable by name: :data:`BUILTIN_PLANS` holds one canonical plan per
fault family plus a mixed ``chaos`` plan, and :func:`parse_fault_spec`
accepts a builtin name, a JSON file path, or an inline JSON object —
the same grammar the CLI's ``--faults`` flag and the service's
``POST /faults`` endpoint speak.

Degradation semantics per fault family are documented in
``docs/ROBUSTNESS.md``: ``duplicate`` and ``stall`` are absorbed
bitwise; ``reorder`` is absorbed bitwise unless a repair dispatch lands
inside the reordered window; ``drop``, ``corrupt`` and ``delay`` degrade
to explicit gap markers in the detection timeline.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any

from repro.core.config import require_typed


class FaultPlanError(ValueError):
    """Raised when a fault plan is constructed or parsed inconsistently."""


MAX_HOLD_TICKS = 1_000_000
"""Upper bound on ``max_delay`` and ``max_stall``.  A hold that long
outlasts any stream this package runs (a 20-day service stream is 520
events), and the injector's integer draws need a range int64 holds."""


_PROB_FIELDS = (
    "drop_prob",
    "duplicate_prob",
    "reorder_prob",
    "delay_prob",
    "corrupt_prob",
    "stall_prob",
)


@dataclass(frozen=True)
class FaultPlan:
    """Per-event fault probabilities and the seed of the fault RNG.

    Parameters
    ----------
    seed:
        Root of the ``numpy.random.SeedSequence`` every fault decision
        is spawned from; identical seed means identical fault pattern.
    drop_prob:
        Chance a meter reading is lost in transit (degrades to a gap
        marker for its slot).
    duplicate_prob:
        Chance a meter reading is delivered twice (the replica is
        deduplicated bitwise).
    reorder_prob:
        Chance a meter reading swaps places with the following reading.
    delay_prob / max_delay:
        Chance a meter reading is held back 1..``max_delay`` deliveries
        (late arrivals past their day's flush degrade to gaps).
    corrupt_prob:
        Chance one cell of a reading's price matrix is corrupted to a
        non-finite or negative value (rejected by validation; degrades
        to a gap marker).
    stall_prob / max_stall:
        Chance a price update stalls the feed for 1..``max_stall`` empty
        polls before arriving (absorbed by the engine's retry policy).
    """

    seed: int = 0
    drop_prob: float = 0.0
    duplicate_prob: float = 0.0
    reorder_prob: float = 0.0
    delay_prob: float = 0.0
    max_delay: int = 3
    corrupt_prob: float = 0.0
    stall_prob: float = 0.0
    max_stall: int = 3

    def __post_init__(self) -> None:
        require_typed(self, error=FaultPlanError)
        if self.seed < 0:
            raise FaultPlanError(f"seed must be >= 0, got {self.seed}")
        for name in _PROB_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultPlanError(f"{name} must be in [0, 1], got {value}")
        for name in ("max_delay", "max_stall"):
            value = getattr(self, name)
            if not 1 <= value <= MAX_HOLD_TICKS:
                raise FaultPlanError(
                    f"{name} must be in [1, {MAX_HOLD_TICKS}], got {value}"
                )

    # ------------------------------------------------------------------
    @property
    def is_noop(self) -> bool:
        """True when no fault can ever fire (every probability is zero)."""
        return all(getattr(self, name) <= 0.0 for name in _PROB_FIELDS)

    @property
    def is_lossless(self) -> bool:
        """True when recovery to the clean timeline is guaranteed bitwise.

        Only ``duplicate`` and ``stall`` faults qualify unconditionally:
        duplicates are deduplicated before any RNG draw and stalls only
        cost engine retries.  ``reorder`` is bitwise-recoverable too
        *unless* a repair dispatch fires inside the reordered window
        (the held reading was generated before the repair landed), so it
        is excluded here; ``drop``/``corrupt``/``delay`` degrade to gap
        markers by design.
        """
        return (
            self.drop_prob <= 0.0
            and self.corrupt_prob <= 0.0
            and self.delay_prob <= 0.0
            and self.reorder_prob <= 0.0
        )

    def with_updates(self, **changes: Any) -> "FaultPlan":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation (rides inside checkpoints)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Any) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (strict keys and
        types: nothing is coerced, so ``true``, ``2.7`` and ``"3"`` are
        not integers).  Anything else raises :class:`FaultPlanError`."""
        if not isinstance(payload, dict):
            raise FaultPlanError(
                f"bad fault-plan payload: expected an object, got {payload!r}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise FaultPlanError(
                f"unknown fault-plan field(s) {', '.join(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        try:
            return cls(**payload)
        except FaultPlanError as exc:
            raise FaultPlanError(f"bad fault-plan payload: {exc}") from None


BUILTIN_PLANS: dict[str, FaultPlan] = {
    "none": FaultPlan(),
    "drop": FaultPlan(drop_prob=0.15),
    "duplicate": FaultPlan(duplicate_prob=0.2),
    "reorder": FaultPlan(reorder_prob=0.2),
    "delay": FaultPlan(delay_prob=0.15, max_delay=3),
    "corrupt": FaultPlan(corrupt_prob=0.15),
    "stall": FaultPlan(stall_prob=0.25, max_stall=3),
    "chaos": FaultPlan(
        drop_prob=0.06,
        duplicate_prob=0.08,
        reorder_prob=0.08,
        delay_prob=0.06,
        max_delay=2,
        corrupt_prob=0.06,
        stall_prob=0.10,
        max_stall=2,
    ),
}
"""One canonical plan per fault family plus the mixed ``chaos`` plan."""


def builtin_plan(name: str, *, seed: int | None = None) -> FaultPlan:
    """Look up a built-in plan by name, optionally re-seeding it."""
    try:
        plan = BUILTIN_PLANS[name]
    except KeyError:
        raise FaultPlanError(
            f"unknown builtin fault plan {name!r} "
            f"(expected one of {sorted(BUILTIN_PLANS)})"
        ) from None
    return plan if seed is None else plan.with_updates(seed=seed)


def parse_fault_spec(spec: str, *, seed: int | None = None) -> FaultPlan:
    """Parse the CLI/service fault-plan grammar.

    ``spec`` is either a builtin plan name (``chaos``), the path of a
    JSON file holding a plan object, or an inline JSON object string
    (``'{"drop_prob": 0.2}'``).  ``seed`` overrides the plan's seed when
    given.
    """
    text = spec.strip()
    if not text:
        raise FaultPlanError("empty fault-plan spec")
    if text in BUILTIN_PLANS:
        return builtin_plan(text, seed=seed)
    if text.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"inline fault plan is not valid JSON: {exc}") from exc
    else:
        path = Path(text)
        if not path.exists():
            raise FaultPlanError(
                f"fault-plan spec {spec!r} is neither a builtin name "
                f"({sorted(BUILTIN_PLANS)}), an existing JSON file, nor inline JSON"
            )
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault-plan file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FaultPlanError("a fault plan must be a JSON object")
    plan = FaultPlan.from_dict(payload)
    return plan if seed is None else plan.with_updates(seed=seed)
