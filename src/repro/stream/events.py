"""Wire-format event model of the streaming detection engine.

Four event kinds cover everything the utility observes during a
monitoring run:

- :class:`PriceUpdate` — a new day begins: the posted guideline-price
  vector and the detector-side forecast for the day.
- :class:`MeterReading` — one monitoring slot: the guideline-price
  vector each monitored meter reports having received (hacked meters
  report the manipulated vector), plus an optional ground-truth
  compromise mask for scoring replayed simulations.  When a telemetry
  attack decouples the reading from the price the home responded to,
  the optional ``actual`` matrix carries the responded-to prices for
  realized-grid accounting.
- :class:`AttackOccurrence` — ground-truth announcement that an attack
  of a registered kind (see :mod:`repro.attacks.registry`) went live on
  a set of meters.  Detection never consumes these — the detector must
  not peek at ground truth — but they ride the stream as first-class
  occurrences for scoring, audit and checkpoint/resume.
- :class:`DayBoundary` — the day's last slot has been processed.

Events are immutable and JSON-serializable (:func:`event_to_dict` /
:func:`event_from_dict`), so the same objects travel through the
in-process pipeline, the HTTP service's ``POST /events`` endpoint and
the checkpoint files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

import numpy as np
from numpy.typing import NDArray

PRICE_BOUND = 1e6
"""The largest guideline price (Eqn. 2's per-slot rate) an event may carry.

A price update or reading past it is refused before any game is solved.
It is far above every price the pipeline makes: the price model's
histories peak near 0.07 on every preset, and the only attacks that
raise a price multiply it by their ``inflation`` or ``factor`` (2 and
0.5 by default).  It is far below overflow: Eqn. (2)'s per-slot product
``rate * total * trading`` stays under 1e20 for community positions up
to 1e7 kWh, against a float limit of 1.8e308.
"""


@dataclass(frozen=True)
class PriceUpdate:
    """Start-of-day event carrying the day's price vectors.

    Attributes
    ----------
    day:
        Zero-based day index within the stream.
    clean_prices:
        The guideline-price vector the utility actually posted, shape
        ``(slots_per_day,)``.
    predicted_prices:
        The price predictor's forecast for the day (what the detector's
        ``P_p`` is computed from).
    """

    day: int
    clean_prices: NDArray[np.float64]
    predicted_prices: NDArray[np.float64]

    def __post_init__(self) -> None:
        if self.day < 0:
            raise ValueError(f"day must be >= 0, got {self.day}")
        clean = np.asarray(self.clean_prices, dtype=float)
        predicted = np.asarray(self.predicted_prices, dtype=float)
        if clean.ndim != 1 or clean.size == 0:
            raise ValueError(f"clean_prices must be 1-D non-empty, got {clean.shape}")
        if predicted.shape != clean.shape:
            raise ValueError(
                f"predicted_prices shape {predicted.shape} != clean {clean.shape}"
            )
        object.__setattr__(self, "clean_prices", clean)
        object.__setattr__(self, "predicted_prices", predicted)


@dataclass(frozen=True)
class MeterReading:
    """One monitoring slot's per-meter received guideline prices.

    Attributes
    ----------
    slot:
        Global slot index (``day * slots_per_day + slot_in_day``).
    received:
        Shape ``(n_meters, slots_per_day)``: row ``i`` is the price
        vector meter ``i`` received for the current day.
    truth:
        Optional ground-truth compromise mask over the fleet; present in
        replayed simulations (used for scoring and realized-grid
        accounting), absent for externally pushed readings.
    actual:
        Optional per-meter prices the homes *actually* responded to,
        shape ``(n_meters, slots_per_day)``.  ``None`` — the common,
        honest-reporting case — means the report is the response
        (``actual == received``); telemetry attacks set it so the
        realized grid reflects the true response while detection only
        sees the spoofed report.
    """

    slot: int
    received: NDArray[np.float64]
    truth: NDArray[np.bool_] | None = None
    actual: NDArray[np.float64] | None = None

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise ValueError(f"slot must be >= 0, got {self.slot}")
        received = np.asarray(self.received, dtype=float)
        if received.ndim != 2 or received.size == 0:
            raise ValueError(
                f"received must be (n_meters, horizon), got {received.shape}"
            )
        object.__setattr__(self, "received", received)
        if self.truth is not None:
            truth = np.asarray(self.truth, dtype=bool)
            if truth.shape != (received.shape[0],):
                raise ValueError(
                    f"truth must have shape ({received.shape[0]},), got {truth.shape}"
                )
            object.__setattr__(self, "truth", truth)
        if self.actual is not None:
            actual = np.asarray(self.actual, dtype=float)
            if actual.shape != received.shape:
                raise ValueError(
                    f"actual must have shape {received.shape}, got {actual.shape}"
                )
            object.__setattr__(self, "actual", actual)

    @property
    def n_meters(self) -> int:
        return self.received.shape[0]

    @property
    def responded(self) -> NDArray[np.float64]:
        """The prices the homes responded to (``actual`` or the report)."""
        return self.received if self.actual is None else self.actual

    def validation_error(
        self, *, horizon: int | None = None, max_meters: int | None = None
    ) -> str | None:
        """Why this reading is unusable, or ``None`` when well-formed.

        Catches the field corruption a wire can introduce — non-finite
        or negative prices, prices above :data:`PRICE_BOUND` (in
        ``received`` or ``actual``), horizon mismatch, more meters than
        the monitor scores — without raising, so the gap-tolerant
        pipeline can degrade instead of crash.  Structural errors
        (shape, negative slot) are still rejected eagerly by
        ``__post_init__``.
        """
        if horizon is not None and self.received.shape[1] != horizon:
            return (
                f"received horizon {self.received.shape[1]} != "
                f"active day horizon {horizon}"
            )
        if max_meters is not None and self.n_meters > max_meters:
            return f"{self.n_meters} meters reported, {max_meters} monitored"
        for name, prices in (("received", self.received), ("actual", self.actual)):
            if prices is None:
                continue
            if not bool(np.isfinite(prices).all()):
                return f"{name} contains non-finite prices"
            if bool((prices < 0.0).any()):
                return f"{name} contains negative prices"
            if bool((prices > PRICE_BOUND).any()):
                return f"{name} contains prices above {PRICE_BOUND:g}"
        return None


@dataclass(frozen=True)
class AttackOccurrence:
    """Ground-truth announcement: an attack went live on some meters.

    Attributes
    ----------
    slot:
        Global slot index at which the occurrence takes effect (the
        first reading it manipulates).
    kind:
        Registered attack kind tag (``attack["kind"]`` when present);
        see :func:`repro.attacks.registry.attack_kinds`.
    meter_ids:
        Affected meters, ascending.
    attack:
        Kind-tagged attack payload
        (:func:`repro.attacks.registry.attack_to_dict` format), exact
        enough to rebuild the installed attack.
    """

    slot: int
    kind: str
    meter_ids: tuple[int, ...]
    attack: dict[str, Any]

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise ValueError(f"slot must be >= 0, got {self.slot}")
        if not self.kind:
            raise ValueError("kind must be non-empty")
        meter_ids = tuple(int(m) for m in self.meter_ids)
        if not meter_ids:
            raise ValueError("meter_ids must be non-empty")
        if any(m < 0 for m in meter_ids):
            raise ValueError(f"meter_ids must be >= 0, got {meter_ids}")
        if tuple(sorted(set(meter_ids))) != meter_ids:
            raise ValueError(f"meter_ids must be sorted and unique, got {meter_ids}")
        object.__setattr__(self, "meter_ids", meter_ids)
        payload_kind = self.attack.get("kind")
        if payload_kind is not None and payload_kind != self.kind:
            raise ValueError(
                f"kind {self.kind!r} != attack payload kind {payload_kind!r}"
            )


@dataclass(frozen=True)
class DayBoundary:
    """End-of-day marker."""

    day: int

    def __post_init__(self) -> None:
        if self.day < 0:
            raise ValueError(f"day must be >= 0, got {self.day}")


StreamEvent = Union[PriceUpdate, MeterReading, AttackOccurrence, DayBoundary]

_EVENT_TYPES = {
    "price_update": PriceUpdate,
    "meter_reading": MeterReading,
    "attack_occurrence": AttackOccurrence,
    "day_boundary": DayBoundary,
}


def event_to_dict(event: StreamEvent) -> dict[str, Any]:
    """JSON-serializable representation of one event."""
    if isinstance(event, PriceUpdate):
        return {
            "type": "price_update",
            "day": event.day,
            "clean_prices": event.clean_prices.tolist(),
            "predicted_prices": event.predicted_prices.tolist(),
        }
    if isinstance(event, MeterReading):
        payload: dict[str, Any] = {
            "type": "meter_reading",
            "slot": event.slot,
            "received": event.received.tolist(),
        }
        if event.truth is not None:
            payload["truth"] = event.truth.astype(int).tolist()
        if event.actual is not None:
            payload["actual"] = event.actual.tolist()
        return payload
    if isinstance(event, AttackOccurrence):
        return {
            "type": "attack_occurrence",
            "slot": event.slot,
            "kind": event.kind,
            "meter_ids": list(event.meter_ids),
            "attack": dict(event.attack),
        }
    if isinstance(event, DayBoundary):
        return {"type": "day_boundary", "day": event.day}
    raise TypeError(f"not a stream event: {type(event).__name__}")


def event_from_dict(payload: dict[str, Any]) -> StreamEvent:
    """Rebuild an event from its JSON representation.

    A malformed payload raises ``KeyError``, ``TypeError`` or
    ``ValueError`` — the last also for a JSON ``Infinity`` where an
    integer belongs.
    """
    kind = payload.get("type")
    if kind not in _EVENT_TYPES:
        raise ValueError(
            f"unknown event type {kind!r} (expected one of {sorted(_EVENT_TYPES)})"
        )
    try:
        return _build_event(kind, payload)
    except OverflowError as exc:
        raise ValueError(str(exc)) from exc


def _build_event(kind: str, payload: dict[str, Any]) -> StreamEvent:
    if kind == "price_update":
        return PriceUpdate(
            day=int(payload["day"]),
            clean_prices=np.asarray(payload["clean_prices"], dtype=float),
            predicted_prices=np.asarray(payload["predicted_prices"], dtype=float),
        )
    if kind == "meter_reading":
        truth = payload.get("truth")
        actual = payload.get("actual")
        return MeterReading(
            slot=int(payload["slot"]),
            received=np.asarray(payload["received"], dtype=float),
            truth=None if truth is None else np.asarray(truth, dtype=bool),
            actual=None if actual is None else np.asarray(actual, dtype=float),
        )
    if kind == "attack_occurrence":
        return AttackOccurrence(
            slot=int(payload["slot"]),
            kind=str(payload["kind"]),
            meter_ids=tuple(int(m) for m in payload["meter_ids"]),
            attack=dict(payload["attack"]),
        )
    return DayBoundary(day=int(payload["day"]))
