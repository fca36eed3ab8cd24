"""Reference numpy backend: the historical op sequences, verbatim.

Every kernel here reproduces — operation for operation — the code paths
the golden-master digests were recorded against
(:func:`repro.netmetering.battery.clamp_trajectory_batch`, the battery
cost as :func:`repro.netmetering.cost.cost_terms` prices it, and the
backward loop of :func:`repro.scheduling.dp.schedule_appliance_table`).
Accelerated backends are validated bitwise against this one.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import (
    BoolArray,
    FloatArray,
    Int16Array,
    IntArray,
    prepend_initial,
)
from repro.netmetering.cost import cost_terms

_INF = np.inf


class ReferenceBackend:
    """Plain numpy kernels matching the seed implementation bit for bit."""

    name = "reference"

    def clamp_decisions(
        self,
        decisions: FloatArray,
        *,
        initial: float,
        capacity: float,
        max_charge: float,
        max_discharge: float,
    ) -> FloatArray:
        b = prepend_initial(np.asarray(decisions, dtype=float), initial)
        b = np.nan_to_num(b, nan=initial, posinf=capacity, neginf=0.0)
        b[..., 0] = initial
        for h in range(1, b.shape[-1]):
            prev = b[..., h - 1]
            lo = np.maximum(0.0, prev - max_discharge)
            hi = np.minimum(capacity, prev + max_charge)
            b[..., h] = np.minimum(np.maximum(b[..., h], lo), hi)
        return b[..., 1:]

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
        full = prepend_initial(np.asarray(decisions, dtype=float), initial)
        y = load + np.diff(full, axis=-1) - pv
        cost = cost_terms(
            y,
            others,
            buy_rates=buy_rates,
            sell_rates=sell_rates,
            export_cap_kwh=export_cap_kwh,
            multiplicity=multiplicity,
        )
        return np.asarray(cost.sum(axis=-1), dtype=float)

    def dp_backward(
        self,
        cost_table: FloatArray,
        level_units: IntArray,
        n_states: int,
        mask: BoolArray,
    ) -> tuple[FloatArray, Int16Array]:
        horizon = cost_table.shape[0]
        value = np.full(n_states, _INF)
        value[0] = 0.0
        choice = np.zeros((horizon, n_states), dtype=np.int16)
        for h in range(horizon - 1, -1, -1):
            if not mask[h]:
                choice[h, :] = 0
                continue
            best = np.full(n_states, _INF)
            best_choice = np.zeros(n_states, dtype=np.int16)
            for j, du in enumerate(level_units):
                cost_j = cost_table[h, j]
                if not np.isfinite(cost_j):
                    continue
                if du == 0:
                    candidate = value + cost_j
                else:
                    candidate = np.full(n_states, _INF)
                    candidate[du:] = value[:-du] + cost_j if du < n_states else _INF
                improved = candidate < best
                best[improved] = candidate[improved]
                best_choice[improved] = j
            value = best
            choice[h, :] = best_choice
        return value, choice

    def dp_backward_batch(
        self,
        cost_tables: FloatArray,
        level_units: IntArray,
        n_states: int,
        mask: BoolArray,
    ) -> tuple[FloatArray, Int16Array]:
        n_games, horizon, _ = cost_tables.shape
        values = np.empty((n_games, n_states))
        choices = np.empty((n_games, horizon, n_states), dtype=np.int16)
        for g in range(n_games):
            values[g], choices[g] = self.dp_backward(
                cost_tables[g], level_units, n_states, mask
            )
        return values, choices
