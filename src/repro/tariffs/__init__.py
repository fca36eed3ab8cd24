"""First-class tariff layer (ROADMAP item 3: Table 1 as one matrix cell).

Public surface: the :class:`Tariff` protocol and registry, the
:class:`CostModel` every tariff prices through (buy rates, sell rates,
export cap), the generalized :class:`TariffCostModel`, the concrete
catalog (:class:`FlatNetMetering`, :class:`BuySellSpread`,
:class:`TimeOfUse`, :class:`MonthlyNetting`) and :func:`cost_model_for`,
which turns an optional tariff into a cost model.  See docs/SCENARIOS.md
for the config grammar and the tariff × attack × PV-penetration matrix
these feed.
"""

from repro.netmetering.cost import CostModel
from repro.tariffs.base import (
    Tariff,
    register_tariff,
    tariff_fingerprint,
    tariff_from_dict,
    tariff_kinds,
    tariff_to_dict,
)
from repro.tariffs.catalog import (
    NAMED_TARIFFS,
    BuySellSpread,
    FlatNetMetering,
    MonthlyNetting,
    TimeOfUse,
    cost_model_for,
    named_tariff,
)
from repro.tariffs.model import TariffCostModel

__all__ = [
    "BuySellSpread",
    "CostModel",
    "FlatNetMetering",
    "MonthlyNetting",
    "NAMED_TARIFFS",
    "Tariff",
    "TariffCostModel",
    "TimeOfUse",
    "cost_model_for",
    "named_tariff",
    "register_tariff",
    "tariff_fingerprint",
    "tariff_from_dict",
    "tariff_kinds",
    "tariff_to_dict",
]
