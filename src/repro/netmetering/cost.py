"""Quadratic net-metering cost model (Eqns. 2-3 of the paper).

The community is billed quadratically: the total monetary cost of the
community in slot ``h`` is ``p_h * (sum_n y_n^h)^2``.  Customer ``n``'s
share in slot ``h`` is

    C_n^h = p_h       * (Y_h) * y_n^h        if y_n^h >= 0  (buying)
    C_n^h = (p_h / W) * (Y_h) * y_n^h        if y_n^h <  0  (selling)

where ``Y_h = sum_i y_i^h`` is the community trading total and ``W >= 1``
is the sell-back divisor: the utility pays only ``p_h / W`` per unit for
energy sold back, keeping the difference as the cost of supporting net
metering.  The selling branch is *rewarding* (negative cost) whenever the
community is a net buyer (``Y_h > 0``): the customer is paid the partial
rate times the demand-scaled price.  Note the paper's Eqn. (2) carries a
leading minus on the selling branch which, read literally, *charges*
customers for selling whenever ``Y_h > 0`` — contradicting its own text
("the utility pays the customer with the rate p_h/W").  We implement the
sign the text describes by default; the explicit ``paper_literal=True``
toggle keeps Eqn. (2)'s literal minus for anyone who wants the other
reading (both are pinned in ``tests/test_tariff_properties.py``, and the
tariff layer exposes the toggle as
``FlatNetMetering(paper_literal=True)``).

One guard is added on top: the community total entering the price is
floored at zero.  When the community as a whole exports (``Y_h < 0``)
there is no neighbor demand to serve, so neither billing nor sell-back
money flows ("the energy sold by a customer could be consumed by some
neighbors in the same community", Section 2.2).  The floor also removes
the runaway where deeper joint export would otherwise grow the per-unit
sell-back payment without bound.

Every tariff is two per-slot rate vectors, one to buy and one to sell,
plus an optional cap on the compensated export per slot (see
:mod:`repro.tariffs`).  :func:`cost_terms` is Eqn. (2) over those rates
and the only place the formula is written in Python; the fused kernel
backend (:mod:`repro.kernels.fused`) is its one in-place twin.  The
paper's flat tariff is buy at ``p``, sell at ``p / W``.  A cost model's
sell rates carry the selling branch's sign: ``paper_literal`` negates
them, which equals negating the branch bit for bit because IEEE
multiplication rounds both signs alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

Rates = tuple[NDArray[np.float64], NDArray[np.float64], float | None]
"""A cost model's ``(buy rates, signed sell rates, export cap in kWh)``."""


def cost_terms(
    trading: NDArray[np.float64],
    others: NDArray[np.float64],
    *,
    buy_rates: NDArray[np.float64],
    sell_rates: NDArray[np.float64],
    export_cap_kwh: float | None,
    multiplicity: int,
) -> NDArray[np.float64]:
    """Per-slot customer cost ``C_n^h`` of Eqn. (2), for any shapes.

    All arrays broadcast against ``trading``; a leading batch axis (CE
    populations, lockstep games) changes nothing but the shape, which is
    what keeps batched and one-at-a-time solves bitwise equal.
    ``others`` excludes all ``multiplicity`` identical instances moving
    in lockstep: the community total is ``others + multiplicity * y``
    while the customer pays for its own ``y``.  Under an export cap the
    compensated quantity is ``max(y, -cap)``.
    """
    total = np.maximum(others + multiplicity * trading, 0.0)
    sold = trading if export_cap_kwh is None else np.maximum(trading, -export_cap_kwh)
    return np.where(
        trading >= 0.0, buy_rates * total * trading, sell_rates * total * sold
    )


def marginal_cost_terms(
    base_trading: NDArray[np.float64],
    others: NDArray[np.float64],
    levels_kwh: NDArray[np.float64],
    *,
    buy_rates: NDArray[np.float64],
    sell_rates: NDArray[np.float64],
    export_cap_kwh: float | None,
    multiplicity: int,
) -> NDArray[np.float64]:
    """Cost increase of adding each energy level on top of a base position.

    ``base_trading``, ``others`` and the rates have shape ``(..., H)``
    and ``levels_kwh`` shape ``(L,)``; entry ``[..., h, j]`` is the
    change in :func:`cost_terms` when the customer adds
    ``levels_kwh[j]`` in slot ``h``.  This is the DP scheduler's table.
    """
    base = cost_terms(
        base_trading,
        others,
        buy_rates=buy_rates,
        sell_rates=sell_rates,
        export_cap_kwh=export_cap_kwh,
        multiplicity=multiplicity,
    )
    new = cost_terms(
        base_trading[..., None] + levels_kwh,
        others[..., None],
        buy_rates=buy_rates[..., None],
        sell_rates=sell_rates[..., None],
        export_cap_kwh=export_cap_kwh,
        multiplicity=multiplicity,
    )
    return new - base[..., None]


class CostModel:
    """Eqn. (2) priced through a model's ``(buy, sell, cap)`` rates.

    Every cost model -- the paper's flat :class:`NetMeteringCostModel`
    and the generalized :class:`~repro.tariffs.model.TariffCostModel` --
    supplies ``horizon``, ``price_array`` (the buy rates a price-only
    scheduler sees) and :attr:`rates`.  The evaluation surface below
    reads nothing else, so the scheduling game, the battery optimizer,
    the lockstep solver and the kernels price every tariff alike.
    """

    @property
    def horizon(self) -> int:
        raise NotImplementedError

    @property
    def price_array(self) -> NDArray[np.float64]:
        raise NotImplementedError

    @property
    def rates(self) -> Rates:
        raise NotImplementedError

    def community_cost(self, total_trading: ArrayLike) -> float:
        """Total community billing ``sum_h p_h * max(Y_h, 0)^2``.

        ``p_h`` is the buy rate.  When ``Y_h <= 0`` the community as a
        whole exports; no billing money flows (see the module
        docstring's floor rationale).
        """
        y = self._validated(total_trading)
        return float((self.price_array * np.maximum(y, 0.0) ** 2).sum())

    def customer_cost(
        self,
        trading: ArrayLike,
        others_trading: ArrayLike,
    ) -> float:
        """Customer's total cost given everyone else's trading (Eqn. 2)."""
        return float(self.customer_cost_per_slot(trading, others_trading).sum())

    def customer_cost_per_slot(
        self,
        trading: ArrayLike,
        others_trading: ArrayLike,
        *,
        multiplicity: int = 1,
    ) -> NDArray[np.float64]:
        """Per-slot customer cost ``C_n^h`` (Eqn. 2), vectorized.

        With ``multiplicity > 1``, the customer is one of that many
        identical archetype instances moving in lockstep:
        ``others_trading`` must then exclude *all* instances, and the
        community total becomes ``others + multiplicity * y`` while the
        customer is still billed for its own quantity ``y``.
        """
        if multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
        buy, sell, cap = self.rates
        return cost_terms(
            self._validated(trading),
            self._validated(others_trading),
            buy_rates=buy,
            sell_rates=sell,
            export_cap_kwh=cap,
            multiplicity=multiplicity,
        )

    def marginal_cost_table(
        self,
        base_trading: ArrayLike,
        others_trading: ArrayLike,
        levels: ArrayLike,
        *,
        multiplicity: int = 1,
        slot_hours: float = 1.0,
    ) -> NDArray[np.float64]:
        """Incremental cost of adding appliance load on top of a base position.

        For the DP scheduler: entry ``[h, j]`` is the cost increase of the
        customer running an appliance at ``levels[j]`` kW in slot ``h``,
        given that the customer's other trading is ``base_trading[h]`` and
        the rest of the community trades ``others_trading[h]``.

        With ``multiplicity > 1`` (archetype communities), all identical
        instances move together: ``others_trading`` must exclude all of
        them, and the community total seen by the price is
        ``others + multiplicity * y`` while the instance pays for its own
        quantity only.  Pricing the herd move is what keeps the
        best-response dynamics stable.

        Returns
        -------
        Array of shape ``(H, n_levels)``.
        """
        if multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
        y0 = self._validated(base_trading)
        y_others = self._validated(others_trading)
        lv = np.asarray(levels, dtype=float) * slot_hours
        if lv.ndim != 1:
            raise ValueError(f"levels must be 1-D, got shape {lv.shape}")
        buy, sell, cap = self.rates
        return marginal_cost_terms(
            y0,
            y_others,
            lv,
            buy_rates=buy,
            sell_rates=sell,
            export_cap_kwh=cap,
            multiplicity=multiplicity,
        )

    def _validated(self, values: ArrayLike) -> NDArray[np.float64]:
        arr = np.asarray(values, dtype=float)
        if arr.shape != (self.horizon,):
            raise ValueError(
                f"expected shape ({self.horizon},), got {arr.shape}"
            )
        if np.any(~np.isfinite(arr)):
            raise ValueError("values contain NaN or infinite entries")
        return arr


@dataclass(frozen=True)
class NetMeteringCostModel(CostModel):
    """The paper's flat tariff for one guideline-price vector.

    Parameters
    ----------
    prices:
        Guideline price per slot ``p_h``, shape ``(H,)``; must be >= 0.
    sellback_divisor:
        The paper's ``W >= 1``.
    paper_literal:
        ``True`` applies Eqn. (2)'s literal leading minus to the selling
        branch (selling is *charged*); ``False`` (default) keeps the
        rewarding sign the paper's text describes.
    """

    prices: tuple[float, ...]
    sellback_divisor: float = 2.0
    paper_literal: bool = False

    def __post_init__(self) -> None:
        p = tuple(float(v) for v in self.prices)
        object.__setattr__(self, "prices", p)
        if len(p) == 0:
            raise ValueError("prices must be non-empty")
        if any(not np.isfinite(v) or v < 0 for v in p):
            raise ValueError("prices must be finite and >= 0")
        if not np.isfinite(self.sellback_divisor) or self.sellback_divisor < 1:
            raise ValueError(
                f"sellback_divisor must be finite and >= 1, got {self.sellback_divisor}"
            )

    @property
    def horizon(self) -> int:
        return len(self.prices)

    @property
    def price_array(self) -> NDArray[np.float64]:
        return np.asarray(self.prices, dtype=float)

    @property
    def rates(self) -> Rates:
        """Buy at ``p``, sell at ``p / W`` (negated when paper-literal)."""
        p = self.price_array
        sell = p / self.sellback_divisor
        return p, -sell if self.paper_literal else sell, None

    # Bound here as well as inherited: the benchmark ledger
    # (perfbench/ledger.py) times these calls through this class's own
    # namespace.
    community_cost = CostModel.community_cost
    customer_cost = CostModel.customer_cost
    customer_cost_per_slot = CostModel.customer_cost_per_slot
    marginal_cost_table = CostModel.marginal_cost_table
