"""Kernel backend protocol for the hot numerical paths.

The scheduling game spends essentially all of its time in three array
kernels: projecting cross-entropy battery populations onto the feasible
trajectory set, scoring those populations under any tariff's buy and
sell rates (Eqn. 2), and the backward dynamic program over appliance
power levels, run for a stack of games at once.  This module defines the :class:`KernelBackend` protocol
those kernels are routed through, so alternative implementations (a
fused numpy variant, a future C extension) can be swapped in via
configuration without touching the solver logic.

Bitwise contract
----------------
Every registered backend MUST be bitwise-identical to the reference
backend on the inputs the pipeline produces (finite, box-clipped CE
populations; finite DP cost tables).  The golden-master digests pin the
reference behaviour; the backend equivalence suite
(``tests/test_kernels.py``) enforces the contract for each registered
backend.  A backend that cannot guarantee bit equality (e.g. one built
on FMA-contracting compilers) must not register itself.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int_]
Int16Array = NDArray[np.int16]
BoolArray = NDArray[np.bool_]


@runtime_checkable
class KernelBackend(Protocol):
    """Array kernels behind the batched game solver.

    Shapes use ``H`` for the horizon, ``S`` for the number of DP energy
    states, ``L`` for the number of appliance power levels and a leading
    batch axis of arbitrary size (CE population, population x games, or
    games).
    """

    name: str

    def clamp_decisions(
        self,
        decisions: FloatArray,
        *,
        initial: float,
        capacity: float,
        max_charge: float,
        max_discharge: float,
    ) -> FloatArray:
        """Project battery decision tails onto the reachable set.

        ``decisions`` has shape ``(..., H)``: trajectory tails
        ``(b^2, ..., b^{H+1})`` with the initial charge ``b^1`` pinned to
        ``initial``.  Rows must be finite and (for accelerated backends)
        already clipped to ``[0, capacity]`` — exactly what the CE
        sampler produces.  Returns the projected tails, same shape.
        """
        ...

    def battery_costs(
        self,
        decisions: FloatArray,
        *,
        initial: float,
        load: FloatArray,
        pv: FloatArray,
        others: FloatArray,
        buy_rates: FloatArray,
        sell_rates: FloatArray,
        export_cap_kwh: float | None,
        multiplicity: int,
    ) -> FloatArray:
        """Customer cost of each battery decision under Eqn. (2).

        ``decisions`` has shape ``(..., H)``; ``load``, ``pv``,
        ``others`` and both rate arrays must broadcast against it.  The
        rates are a cost model's ``rates`` (sell rates carry the selling
        branch's sign; ``export_cap_kwh=None`` is uncapped), priced as
        :func:`repro.netmetering.cost.cost_terms` prices them.  Returns
        the per-row total cost with the last axis summed out.
        """
        ...

    def dp_backward_batch(
        self,
        cost_tables: FloatArray,
        level_units: IntArray,
        n_states: int,
        mask: BoolArray,
    ) -> tuple[FloatArray, Int16Array]:
        """Backward value recursion of the appliance DP, one table per game.

        ``cost_tables`` has shape ``(G, H, L)``; returns ``(values,
        choices)`` of shapes ``(G, S)`` (minimal cost to consume exactly
        ``r`` units from slot 0 on) and ``(G, H, S)`` (level index chosen
        at each slot/state; 0 outside ``mask``).  Row ``g`` depends on
        ``cost_tables[g]`` alone.
        """
        ...


def prepend_initial(decisions: FloatArray, initial: float) -> FloatArray:
    """Full trajectories ``(b^1, ..., b^{H+1})`` from decision tails."""
    b0 = np.full(decisions.shape[:-1] + (1,), initial)
    return np.concatenate([b0, decisions], axis=-1)
