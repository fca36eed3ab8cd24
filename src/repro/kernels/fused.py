"""Fused numpy backend: fewer temporaries, same bits.

Three observations let the hot kernels shed most of their allocation
and ufunc-dispatch overhead without changing a single output bit:

- **Clamp**: the CE sampler clips populations to ``[0, capacity]``
  before projection, so the reachability bounds ``max(0, prev - d)`` /
  ``min(capacity, prev + c)`` reduce to ``prev - d`` / ``prev + c``
  (clamping a value already inside ``[0, capacity]`` against the
  un-truncated bound gives the identical result), and the NaN sweep is
  a no-op on finite input.  Each forward step is four ``out=`` ufunc
  calls into two reused buffers.
- **Cost**: ``np.diff`` is plain subtraction, so the trading array can
  be built directly into a preallocated buffer, and the buy/sell
  branches reuse the community-total buffer.  This is the in-place twin
  of :func:`repro.netmetering.cost.cost_terms`, for any tariff's rates:
  an export cap costs one extra ``np.maximum``, and a paper-literal
  sign arrives already folded into the sell rates.  Operand order
  matches the reference exactly (IEEE addition/multiplication are
  commutative, but association order is preserved anyway).
- **DP**: the per-level masked update is kept verbatim (a min/argmin
  rewrite could flip the sign of zero on exact ties), but it runs
  elementwise over the leading game axis — one ufunc dispatch per
  (slot, level) for the whole batch instead of per game — into buffers
  reused across slots, and writes choices straight into the output.

Preconditions (guaranteed by the in-pipeline callers, asserted nowhere
for speed): ``clamp_decisions`` requires finite rows already clipped to
``[0, capacity]``; ``battery_costs`` requires finite inputs.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import (
    BoolArray,
    FloatArray,
    Int16Array,
    IntArray,
)

_INF = np.inf


class FusedBackend:
    """Buffer-reusing numpy kernels, bitwise-equal to the reference."""

    name = "fused"

    def clamp_decisions(
        self,
        decisions: FloatArray,
        *,
        initial: float,
        capacity: float,
        max_charge: float,
        max_discharge: float,
    ) -> FloatArray:
        d = np.asarray(decisions, dtype=float)
        b = np.empty(d.shape[:-1] + (d.shape[-1] + 1,))
        b[..., 0] = initial
        b[..., 1:] = d
        bound = np.empty(b.shape[:-1])
        for h in range(1, b.shape[-1]):
            prev = b[..., h - 1]
            np.subtract(prev, max_discharge, out=bound)
            np.maximum(b[..., h], bound, out=b[..., h])
            np.add(prev, max_charge, out=bound)
            np.minimum(b[..., h], bound, out=b[..., h])
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
        d = np.asarray(decisions, dtype=float)
        # y = (load + diff(full)) - pv, built in place.
        y = np.empty_like(d)
        np.subtract(d[..., 0], initial, out=y[..., 0])
        np.subtract(d[..., 1:], d[..., :-1], out=y[..., 1:])
        np.add(load, y, out=y)
        np.subtract(y, pv, out=y)
        # total = max(others + multiplicity * y, 0)
        total = np.multiply(y, multiplicity, out=np.empty_like(d))
        np.add(others, total, out=total)
        np.maximum(total, 0.0, out=total)
        # buy = (buy_rates * total) * y
        buy = np.multiply(buy_rates, total, out=np.empty_like(d))
        np.multiply(buy, y, out=buy)
        # sell = (sell_rates * total) * max(y, -cap)
        np.multiply(sell_rates, total, out=total)
        sold = y if export_cap_kwh is None else np.maximum(y, -export_cap_kwh)
        np.multiply(total, sold, out=total)
        cost = np.where(y >= 0, buy, total)
        return np.asarray(cost.sum(axis=-1), dtype=float)

    # No solver calls this one-game form; the benchmark's traced run
    # (perfbench/ledger.py) looks ``dp_backward`` up in this class's
    # ``__dict__`` to time it, so it stays as a one-game call of the batch
    # kernel.
    def dp_backward(
        self,
        cost_table: FloatArray,
        level_units: IntArray,
        n_states: int,
        mask: BoolArray,
    ) -> tuple[FloatArray, Int16Array]:
        values, choices = self.dp_backward_batch(
            cost_table[None, :, :], level_units, n_states, mask
        )
        return values[0], choices[0]

    def dp_backward_batch(
        self,
        cost_tables: FloatArray,
        level_units: IntArray,
        n_states: int,
        mask: BoolArray,
    ) -> tuple[FloatArray, Int16Array]:
        n_games, horizon, _ = cost_tables.shape
        # costs[h, j] is the (G, 1) column of level j's cost in slot h.
        costs = cost_tables.transpose(1, 2, 0)[..., None]
        value = np.full((n_games, n_states), _INF)
        value[:, 0] = 0.0
        best = np.empty((n_games, n_states))
        candidate = np.empty((n_games, n_states))
        improved = np.empty((n_games, n_states), dtype=bool)
        # Slots outside the mask keep choice 0.
        choices = np.zeros((n_games, horizon, n_states), dtype=np.int16)
        for h in range(horizon - 1, -1, -1):
            if not mask[h]:
                continue
            best.fill(_INF)
            best_choice = choices[:, h, :]
            for j, du in enumerate(level_units):
                cost_j = costs[h, j]
                if du == 0:
                    np.add(value, cost_j, out=candidate)
                else:
                    candidate.fill(_INF)
                    if du < n_states:
                        np.add(value[:, :-du], cost_j, out=candidate[:, du:])
                np.less(candidate, best, out=improved)
                np.copyto(best, candidate, where=improved)
                best_choice[improved] = j
            value, best = best, value
        return value, choices
