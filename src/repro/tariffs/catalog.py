"""Concrete tariffs: the paper's flat net metering plus three variants.

=====================  =====================================================
Tariff                 Billing structure
=====================  =====================================================
``FlatNetMetering``    The paper's implicit tariff: flat buy at the
                       guideline price, sell at ``p/W``, priced by
                       :class:`~repro.netmetering.cost.NetMeteringCostModel`.
                       With default parameters it is exactly what
                       ``tariff=None`` prices, so Table 1 is reproduced
                       bit for bit.
``BuySellSpread``      NEM-3-style decoupling (Alahmed & Tong,
                       arXiv:2212.03311): buy at ``markup * p``, sell at
                       ``fraction * p``, optionally with a per-slot
                       compensated-export cap.
``TimeOfUse``          A peak window of slots is billed at a multiplied
                       rate on both sides of the meter.
``MonthlyNetting``     Same instantaneous rates as flat net metering for
                       *scheduling* (customers can't see the settlement
                       period inside one day-ahead game), but
                       :meth:`~MonthlyNetting.settle` nets import and
                       export energy over the whole billing horizon:
                       banked export kWh offset imports at the retail
                       rate instead of earning the sell-back rate.
=====================  =====================================================

``named_tariff`` maps CLI/config grammar names (``flat``, ``tou``, …)
onto instances for the matrix runner; ``"flat"`` maps to ``None`` — the
*absence* of a tariff — so the matrix's flat-net-metering column keeps
the cache keys of a run without a tariff.  :func:`cost_model_for` is
the one place that absence becomes a cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from repro.netmetering.cost import CostModel, NetMeteringCostModel
from repro.tariffs.base import Tariff, register_tariff
from repro.tariffs.model import TariffCostModel


@register_tariff
@dataclass(frozen=True)
class FlatNetMetering(Tariff):
    """The paper's tariff, made explicit and parameterized.

    Parameters
    ----------
    sellback_divisor:
        Override for the pricing config's ``W``; ``None`` inherits it.
    paper_literal:
        Selling-branch sign (see :mod:`repro.netmetering.cost`).  The
        default keeps the text's rewarding reading.
    """

    kind = "flat_net_metering"

    sellback_divisor: float | None = None
    paper_literal: bool = False

    def __post_init__(self) -> None:
        if self.sellback_divisor is not None:
            divisor = float(self.sellback_divisor)
            object.__setattr__(self, "sellback_divisor", divisor)
            if not np.isfinite(divisor) or divisor < 1:
                raise ValueError(
                    f"sellback_divisor must be >= 1, got {divisor}"
                )

    def _divisor(self, sellback_divisor: float) -> float:
        return (
            float(sellback_divisor)
            if self.sellback_divisor is None
            else self.sellback_divisor
        )

    def cost_model(
        self, prices: ArrayLike, *, sellback_divisor: float
    ) -> CostModel:
        arr = self._price_array(prices)
        return NetMeteringCostModel(
            prices=tuple(float(v) for v in arr),
            sellback_divisor=self._divisor(sellback_divisor),
            paper_literal=self.paper_literal,
        )


@register_tariff
@dataclass(frozen=True)
class BuySellSpread(Tariff):
    """Decoupled buy/sell rates with an optional compensated-export cap.

    Buy at ``buy_markup * p_h``, sell at ``sell_fraction * p_h``; at
    most ``export_cap_kwh`` of export per slot earns compensation.
    """

    kind = "buy_sell_spread"

    buy_markup: float = 1.0
    sell_fraction: float = 0.5
    export_cap_kwh: float | None = None
    paper_literal: bool = False

    def __post_init__(self) -> None:
        markup = float(self.buy_markup)
        fraction = float(self.sell_fraction)
        object.__setattr__(self, "buy_markup", markup)
        object.__setattr__(self, "sell_fraction", fraction)
        if not np.isfinite(markup) or markup <= 0:
            raise ValueError(f"buy_markup must be > 0, got {markup}")
        if not np.isfinite(fraction) or fraction < 0:
            raise ValueError(f"sell_fraction must be >= 0, got {fraction}")
        if self.export_cap_kwh is not None:
            cap = float(self.export_cap_kwh)
            object.__setattr__(self, "export_cap_kwh", cap)
            if not np.isfinite(cap) or cap <= 0:
                raise ValueError(f"export_cap_kwh must be > 0, got {cap}")

    def cost_model(
        self, prices: ArrayLike, *, sellback_divisor: float
    ) -> CostModel:
        arr = self._price_array(prices)
        return TariffCostModel(
            buy_rates=tuple(float(v) for v in arr * self.buy_markup),
            sell_rates=tuple(float(v) for v in arr * self.sell_fraction),
            export_cap_kwh=self.export_cap_kwh,
            paper_literal=self.paper_literal,
        )


@register_tariff
@dataclass(frozen=True)
class TimeOfUse(Tariff):
    """A peak window of slots billed at a multiplied rate.

    Slots ``peak_start_slot <= h < peak_end_slot`` of each game horizon
    are scaled by ``peak_multiplier``, the rest by
    ``offpeak_multiplier``; the sell side earns the scaled rate divided
    by the (inherited or pinned) sell-back divisor.
    """

    kind = "time_of_use"

    peak_start_slot: int = 16
    peak_end_slot: int = 21
    peak_multiplier: float = 1.5
    offpeak_multiplier: float = 1.0
    sellback_divisor: float | None = None

    def __post_init__(self) -> None:
        start = int(self.peak_start_slot)
        end = int(self.peak_end_slot)
        object.__setattr__(self, "peak_start_slot", start)
        object.__setattr__(self, "peak_end_slot", end)
        if start < 0 or end <= start:
            raise ValueError(
                f"need 0 <= peak_start_slot < peak_end_slot, got [{start}, {end})"
            )
        for name in ("peak_multiplier", "offpeak_multiplier"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not np.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.sellback_divisor is not None:
            divisor = float(self.sellback_divisor)
            object.__setattr__(self, "sellback_divisor", divisor)
            if not np.isfinite(divisor) or divisor < 1:
                raise ValueError(f"sellback_divisor must be >= 1, got {divisor}")

    def cost_model(
        self, prices: ArrayLike, *, sellback_divisor: float
    ) -> CostModel:
        arr = self._price_array(prices)
        if self.peak_end_slot > arr.size:
            raise ValueError(
                f"peak window [{self.peak_start_slot}, {self.peak_end_slot}) "
                f"does not fit horizon {arr.size}"
            )
        divisor = (
            float(sellback_divisor)
            if self.sellback_divisor is None
            else self.sellback_divisor
        )
        multipliers = np.full(arr.size, self.offpeak_multiplier)
        multipliers[self.peak_start_slot : self.peak_end_slot] = (
            self.peak_multiplier
        )
        buy = arr * multipliers
        return TariffCostModel(
            buy_rates=tuple(float(v) for v in buy),
            sell_rates=tuple(float(v) for v in buy / divisor),
            export_cap_kwh=None,
            paper_literal=False,
        )


@register_tariff
@dataclass(frozen=True)
class MonthlyNetting(Tariff):
    """Billing-period netting over the horizon, instantaneous scheduling.

    Customers schedule against the same instantaneous flat-net-metering
    model (a day-ahead game cannot see the settlement period), so
    scheduling is bitwise-identical to :class:`FlatNetMetering`.  The
    difference is all in :meth:`settle`: export energy *banks* against
    import energy kWh-for-kWh, and the banked quantity earns the average
    retail rate instead of the sell-back rate.  Identities pinned by
    property tests: settlement equals instantaneous billing whenever the
    customer never exports (or never imports), and never exceeds it
    while retail rates dominate sell-back rates.
    """

    kind = "monthly_netting"

    sellback_divisor: float | None = None

    def __post_init__(self) -> None:
        if self.sellback_divisor is not None:
            divisor = float(self.sellback_divisor)
            object.__setattr__(self, "sellback_divisor", divisor)
            if not np.isfinite(divisor) or divisor < 1:
                raise ValueError(f"sellback_divisor must be >= 1, got {divisor}")

    def cost_model(
        self, prices: ArrayLike, *, sellback_divisor: float
    ) -> CostModel:
        flat = FlatNetMetering(sellback_divisor=self.sellback_divisor)
        return flat.cost_model(prices, sellback_divisor=sellback_divisor)

    def settle(
        self,
        prices: ArrayLike,
        trading: ArrayLike,
        others_trading: ArrayLike,
        *,
        sellback_divisor: float,
    ) -> float:
        model = self.cost_model(prices, sellback_divisor=sellback_divisor)
        per_slot = model.customer_cost_per_slot(trading, others_trading)
        instantaneous = float(per_slot.sum())
        y = np.asarray(trading, dtype=float)
        bought_kwh = float(y[y > 0].sum())
        sold_kwh = float(-y[y < 0].sum())
        banked = min(bought_kwh, sold_kwh)
        if banked <= 0.0:
            return instantaneous
        buy_value = float(per_slot[y > 0].sum())
        sell_value = float(-per_slot[y < 0].sum())
        avg_buy_rate = buy_value / bought_kwh
        avg_sell_rate = sell_value / sold_kwh
        # Banked kWh upgrade from the sell-back rate to the retail rate.
        return instantaneous - banked * (avg_buy_rate - avg_sell_rate)


def cost_model_for(
    tariff: Tariff | None, prices: ArrayLike, *, sellback_divisor: float
) -> CostModel:
    """The cost model a scheduling game prices ``prices`` through.

    ``None`` -- the absence of a tariff -- is the paper's flat net
    metering at the pricing config's ``W``, i.e. ``FlatNetMetering()``.
    The game solver chooses its cost models here.
    """
    chosen = FlatNetMetering() if tariff is None else tariff
    return chosen.cost_model(prices, sellback_divisor=sellback_divisor)


NAMED_TARIFFS: dict[str, Tariff | None] = {
    # The paper's tariff as the absence of a tariff object: the cache
    # keys of a run without one, bitwise-identical Table 1.
    "flat": None,
    "flat_paper_literal": FlatNetMetering(paper_literal=True),
    "nem3_spread": BuySellSpread(sell_fraction=0.5),
    "spread_capped": BuySellSpread(sell_fraction=0.75, export_cap_kwh=2.0),
    "tou": TimeOfUse(),
    "monthly_netting": MonthlyNetting(),
}


def named_tariff(name: str) -> Tariff | None:
    """Resolve a config-grammar tariff name (see docs/SCENARIOS.md)."""
    try:
        return NAMED_TARIFFS[name]
    except KeyError:
        raise ValueError(
            f"unknown tariff name {name!r} (known: {sorted(NAMED_TARIFFS)})"
        ) from None
