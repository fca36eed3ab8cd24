"""Generalized tariff cost model (buy/sell rate vectors, export caps).

Every tariff prices through the same ``(buy rates, sell rates, export
cap)`` triple and the one Eqn. (2) formula,
:func:`~repro.netmetering.cost.cost_terms`; see
:class:`~repro.netmetering.cost.CostModel`.  The paper's flat model
derives its rates from one price vector (sell at ``p / W``).
:class:`TariffCostModel` takes both rate vectors as given and adds two
knobs the flat model cannot express:

``export_cap_kwh``
    NEM-3-style compensation cap: exports deeper than the cap are
    accepted by the grid but not compensated — the compensated quantity
    per slot is ``max(y, -cap)``, so the credit binds *exactly* at the
    cap (pinned by property tests).

``paper_literal``
    Sign of the selling branch.  The default implements the paper
    text's *rewarding* reading (selling earns money while the community
    is a net buyer); ``paper_literal=True`` keeps Eqn. (2)'s literal
    leading minus, which *charges* for exports, by negating the sell
    rates.  See the module docstring of :mod:`repro.netmetering.cost`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro.netmetering.cost import CostModel, Rates


@dataclass(frozen=True)
class TariffCostModel(CostModel):
    """Vectorized cost evaluation for decoupled buy/sell rate vectors.

    Parameters
    ----------
    buy_rates:
        Retail (import) rate per slot, shape ``(H,)``; must be >= 0.
    sell_rates:
        Export compensation rate per slot, shape ``(H,)``; must be >= 0.
    export_cap_kwh:
        Maximum compensated export per slot (kWh); ``None`` = uncapped.
    paper_literal:
        ``True`` flips the selling branch to Eqn. (2)'s literal charging
        sign; ``False`` (default) implements the text's rewarding sign.
    """

    buy_rates: tuple[float, ...]
    sell_rates: tuple[float, ...]
    export_cap_kwh: float | None = None
    paper_literal: bool = False

    def __post_init__(self) -> None:
        buy = tuple(float(v) for v in self.buy_rates)
        sell = tuple(float(v) for v in self.sell_rates)
        object.__setattr__(self, "buy_rates", buy)
        object.__setattr__(self, "sell_rates", sell)
        if len(buy) == 0:
            raise ValueError("buy_rates must be non-empty")
        if len(sell) != len(buy):
            raise ValueError(
                f"sell_rates length {len(sell)} != buy_rates length {len(buy)}"
            )
        if any(not np.isfinite(v) or v < 0 for v in buy):
            raise ValueError("buy_rates must be finite and >= 0")
        if any(not np.isfinite(v) or v < 0 for v in sell):
            raise ValueError("sell_rates must be finite and >= 0")
        if self.export_cap_kwh is not None:
            cap = float(self.export_cap_kwh)
            object.__setattr__(self, "export_cap_kwh", cap)
            if not np.isfinite(cap) or cap <= 0:
                raise ValueError(
                    f"export_cap_kwh must be finite and > 0, got {cap}"
                )

    @property
    def horizon(self) -> int:
        return len(self.buy_rates)

    @property
    def price_array(self) -> NDArray[np.float64]:
        """Import-side rates — what a price-only greedy scheduler sees."""
        return np.asarray(self.buy_rates, dtype=float)

    @property
    def rates(self) -> Rates:
        """The given rates, the sell side negated when paper-literal."""
        sell = np.asarray(self.sell_rates, dtype=float)
        return (
            self.price_array,
            -sell if self.paper_literal else sell,
            self.export_cap_kwh,
        )
