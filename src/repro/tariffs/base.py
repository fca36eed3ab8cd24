"""Tariff protocol and kind-tagged registry.

A *tariff* is a small frozen dataclass describing a billing structure;
its one obligation is :meth:`Tariff.cost_model` — given a guideline
price vector, produce the :class:`~repro.netmetering.cost.CostModel`
the scheduling game prices decisions through: the paper's flat
:class:`~repro.netmetering.cost.NetMeteringCostModel` or a generalized
:class:`~repro.tariffs.model.TariffCostModel`, each a buy-rate vector,
a sell-rate vector and an optional export cap.  Tariffs are pure
parameters: deterministic, hashable, JSON-round-trippable — which is
what makes them config-addressable (``CommunityConfig.tariff``),
checkpoint-safe (they ride inside the engine build spec) and
cache-keyed (:func:`tariff_fingerprint` extends the game-solution
context key).

The registry mirrors the stream layer's ``_EVENT_TYPES`` pattern: each
concrete tariff declares a ``kind`` tag and registers itself with
:func:`register_tariff`; :func:`tariff_to_dict` /
:func:`tariff_from_dict` serialize by tag.  ``kind`` is a class
attribute, not a dataclass field, so payloads stay flat
(``{"kind": ..., **fields}``) and constructors stay field-only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Type, TypeVar

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.netmetering.cost import CostModel


@dataclass(frozen=True)
class Tariff:
    """Base class for billing structures.

    Subclasses are frozen dataclasses with a unique ``kind`` tag,
    registered via :func:`register_tariff`.
    """

    kind: ClassVar[str] = ""

    def cost_model(
        self, prices: ArrayLike, *, sellback_divisor: float
    ) -> CostModel:
        """The cost model pricing one guideline-price vector.

        ``sellback_divisor`` is the pricing config's ``W`` — tariffs
        that don't pin their own sell side inherit it, which is how
        ``FlatNetMetering()``, what ``tariff=None`` prices, follows the
        configured ``W``.
        """
        raise NotImplementedError

    def settle(
        self,
        prices: ArrayLike,
        trading: ArrayLike,
        others_trading: ArrayLike,
        *,
        sellback_divisor: float,
    ) -> float:
        """Billing-period settlement for one customer's realized trading.

        Defaults to instantaneous netting: the sum of the per-slot costs
        the scheduling model already computes.  Tariffs with a
        settlement period (monthly netting) override this.
        """
        model = self.cost_model(prices, sellback_divisor=sellback_divisor)
        return model.customer_cost(trading, others_trading)

    @staticmethod
    def _price_array(prices: ArrayLike) -> NDArray[np.float64]:
        arr = np.asarray(prices, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"prices must be a non-empty 1-D array, got {arr.shape}")
        return arr


_TARIFF_KINDS: dict[str, type[Tariff]] = {}

T = TypeVar("T", bound=Tariff)


def register_tariff(cls: Type[T]) -> Type[T]:
    """Class decorator: enter a tariff into the kind registry."""
    if not cls.kind:
        raise ValueError(f"{cls.__name__} must declare a non-empty kind tag")
    existing = _TARIFF_KINDS.get(cls.kind)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"tariff kind {cls.kind!r} already registered by {existing.__name__}"
        )
    _TARIFF_KINDS[cls.kind] = cls
    return cls


def tariff_kinds() -> tuple[str, ...]:
    """All registered kind tags, sorted."""
    return tuple(sorted(_TARIFF_KINDS))


def tariff_to_dict(tariff: Tariff) -> dict[str, Any]:
    """Serialize a registered tariff to a flat JSON-safe payload."""
    cls = _TARIFF_KINDS.get(tariff.kind)
    if cls is None or type(tariff) is not cls:
        raise ValueError(
            f"cannot serialize unregistered tariff {type(tariff).__name__}"
        )
    payload: dict[str, Any] = {"kind": tariff.kind}
    for field in fields(tariff):
        value = getattr(tariff, field.name)
        payload[field.name] = list(value) if isinstance(value, tuple) else value
    return payload


def tariff_from_dict(payload: dict[str, Any]) -> Tariff:
    """Rebuild a tariff from :func:`tariff_to_dict` output.

    Unknown kinds and unknown fields fail loudly — a checkpoint or
    config written by a newer taxonomy should never be silently
    reinterpreted.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"tariff payload must be an object, got {type(payload)}")
    kind = payload.get("kind")
    cls = _TARIFF_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(
            f"unknown tariff kind {kind!r} (known: {list(tariff_kinds())})"
        )
    field_names = {field.name for field in fields(cls)}
    extra = set(payload) - field_names - {"kind"}
    if extra:
        raise ValueError(
            f"unknown fields for tariff kind {kind!r}: {sorted(extra)}"
        )
    kwargs = {name: payload[name] for name in field_names if name in payload}
    return cls(**kwargs)


def tariff_fingerprint(tariff: Tariff) -> str:
    """Content hash for cache keys: same tariff, same fingerprint."""
    text = json.dumps(tariff_to_dict(tariff), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
