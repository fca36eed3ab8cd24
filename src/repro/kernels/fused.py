"""Fused numpy backend: fewer temporaries, same bits.

Three observations let the hot kernels shed most of their allocation
and ufunc-dispatch overhead without changing a single output bit:

- **Clamp**: the CE sampler clips populations to ``[0, capacity]``
  before projection, so the reachability bounds ``max(0, prev - d)`` /
  ``min(capacity, prev + c)`` reduce to ``prev - d`` / ``prev + c``
  (clamping a value already inside ``[0, capacity]`` against the
  un-truncated bound gives the identical result), and the NaN sweep is
  a no-op on finite input.  That leaves the recurrence
  ``y[h] = min(max(x[h], y[h-1] - d), y[h-1] + c)``, computed one of two
  ways that give the same bits.  Small populations (a one-game CE step)
  are swept whole: every slot at once, from the previous sweep's
  trajectory shifted by one slot, both bounds in one add (``prev - d``
  is ``prev + (-d)`` in IEEE arithmetic, signed zeros included), until a
  sweep changes no bit.  After ``k`` sweeps the first ``k`` slots equal
  the sequential result, and a sweep that changes nothing has reached
  the recurrence's one fixed point, so at most ``H + 1`` sweeps run.
  The bits are compared, not the values, since ``==`` takes ``-0.0``
  for ``0.0``.  Large populations (lockstep batches) bind over more
  slots and pay per element for every extra sweep, so they step slot by
  slot, held slot-major so that each step is four ``out=`` calls on
  contiguous rows.  Either way the result is row-major: the cost
  kernel's row sums round by memory layout.  Both ways first add
  ``0.0`` to the rows, once, in a copy they make anyway: that turns an
  input ``-0.0`` into ``0.0``, as the reference's ``max(0, prev - d)``
  bound does, and leaves every other value's bits alone.
- **Cost**: ``np.diff`` is plain subtraction, so the trading array can
  be built directly into a preallocated buffer, and the buy/sell
  branches reuse the community-total buffer.  This is the in-place twin
  of :func:`repro.netmetering.cost.cost_terms`, for any tariff's rates:
  an export cap costs one extra ``np.maximum``, and a paper-literal
  sign arrives already folded into the sell rates.  Operand order
  matches the reference exactly (IEEE addition/multiplication are
  commutative, but association order is preserved anyway).
- **DP**: all levels of a slot are relaxed at once.  A value buffer
  padded with ``inf`` on the left turns "the value ``du`` states back,
  ``inf`` when fewer remain" into one gather, giving every game's
  ``(states, levels)`` candidates; the slot's costs are added, and
  ``argmin`` over levels picks each state's level.  The reference keeps
  a candidate only when it is strictly less than the best so far, so it
  keeps the *first* minimum; ``argmin`` returns the first minimum too,
  ties across levels and ``-0.0 == 0.0`` included, and an all-``inf``
  state keeps level 0 in both.  The new value is then gathered from the
  chosen candidate, so it is that exact element, sign of zero included
  (a ``min`` reduction would be free to return either zero).  A window
  slot costs five calls: the gather, the add of that slot's costs
  (broadcast over states once per call, up front), ``argmin`` into the
  slot's row of the choices, the offsets of the chosen candidates and
  their gather.  The index arrays and the window's slots depend only on
  the level units, the state count, the batch size and the mask, so
  they are built once per distinct set.

Preconditions (guaranteed by the in-pipeline callers, asserted nowhere
for speed): ``clamp_decisions`` requires finite rows already clipped to
``[0, capacity]``; ``battery_costs`` requires finite inputs;
``dp_backward_batch`` requires tables free of NaN and ``-inf`` (the
reference skips those levels, ``argmin`` would pick them).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.kernels.base import (
    BoolArray,
    FloatArray,
    Int16Array,
    IntArray,
)

_INF = np.inf


@lru_cache(maxsize=1024)
def _dp_plan(
    level_units: tuple[int, ...],
    n_states: int,
    n_games: int,
    mask: bytes,
    mask_dtype: str,
) -> tuple[int, IntArray, IntArray, IntArray]:
    """Static set-up of the DP for one level set, state count, batch size
    and window: the inf pad's width, each (state, level)'s index into the
    padded values, each (game, state)'s flat offset into the candidates,
    and the window's slots, last first.  Built once per distinct key; the
    arrays come back read-only."""
    # A level of du units reads the value du states back; a shift of
    # n_states or more reaches no state at all.
    shifts = np.minimum(np.array(level_units, dtype=np.intp), n_states)
    pad = int(shifts.max())
    shifted = pad + np.arange(n_states)[:, None] - shifts[None, :]
    offsets = (np.arange(n_games * n_states) * len(level_units)).reshape(
        n_games, n_states
    )
    slots = np.flatnonzero(np.frombuffer(mask, dtype=mask_dtype))[::-1]
    for array in (shifted, offsets, slots):
        array.flags.writeable = False
    return pad, shifted, offsets, slots

# Populations of at most this many rows are clamped by whole-trajectory
# sweeps, larger ones slot by slot.  On the clamp inputs of a smoke and a
# bench scenario op (2-CPU host), sweeps took a third to a half of the
# slot loop's time at the one-game CE sizes (16 and 40 rows) and broke
# even between 64 and 120 rows; lockstep batches (544 rows and up) took
# three to five times longer by sweeps.
_SWEEP_MAX_ROWS = 64


def _sweep_clamp(
    rows: FloatArray, initial: float, max_charge: float, max_discharge: float
) -> tuple[FloatArray, int]:
    """The clamp of ``(n, H)`` rows by whole-trajectory sweeps, and the
    number of sweeps it took (at most ``H + 1``)."""
    n, horizon = rows.shape
    # lo, hi, two buffers the sweeps alternate between, then the rows
    # with ``-0.0`` turned to ``0.0`` (see the module docstring).
    block = np.empty((5, n, horizon))
    lo, hi = bounds = block[:2]
    rows = np.add(rows, 0.0, out=block[4])
    # Slot 0's bounds come from the pinned initial charge; the others
    # from the previous sweep, as prev + (-d) and prev + c in one add
    # (IEEE subtraction is the addition of the negation, zeros included).
    lo[:, :1] = initial - max_discharge
    hi[:, :1] = initial + max_charge
    bounds_tail = bounds[:, :, 1:]
    steps = np.array([-max_discharge, max_charge])[:, None, None]
    heads = [(buffer, buffer[:, :-1]) for buffer in block[2:]]
    y, prev = rows, rows[:, :-1]
    sweeps = 0
    while True:
        new, new_prev = heads[sweeps & 1]
        sweeps += 1
        np.add(prev, steps, out=bounds_tail)
        np.maximum(rows, lo, out=new)
        np.minimum(new, hi, out=new)
        if new.tobytes() == y.tobytes():
            return new, sweeps
        y, prev = new, new_prev


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
        horizon = d.shape[-1]
        rows = d.reshape(-1, horizon)
        if rows.shape[0] <= _SWEEP_MAX_ROWS:
            clamped, _ = _sweep_clamp(rows, initial, max_charge, max_discharge)
            return clamped.reshape(d.shape)
        # Slot-major: b[h] holds slot h of every row, contiguous.  Adding
        # 0.0 turns -0.0 into 0.0, as the reference's max(0, ·) bound does.
        b = np.empty((horizon + 1, rows.shape[0]))
        b[0] = initial
        np.add(rows.T, 0.0, out=b[1:])
        bound = np.empty(rows.shape[0])
        slots = list(b)
        for prev, slot in zip(slots, slots[1:]):
            np.subtract(prev, max_discharge, out=bound)
            np.maximum(slot, bound, out=slot)
            np.add(prev, max_charge, out=bound)
            np.minimum(slot, bound, out=slot)
        # Back to row-major: the cost kernel's row sums depend on it.
        return np.ascontiguousarray(b[1:].T).reshape(d.shape)

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
        # ``ndarray.sum``'s reduction, without its Python wrapper.
        return np.add.reduce(cost, axis=-1)

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
        n_games, horizon, n_levels = cost_tables.shape
        pad, shifted, offsets, slots = _dp_plan(
            tuple(np.asarray(level_units).tolist()),
            n_states,
            n_games,
            mask.tobytes(),
            mask.dtype.str,
        )
        # padded[g, pad + r] is value[g, r], behind a pad of inf, so
        # padded[g, pad + r - du] is the shifted value, inf when r < du.
        padded = np.full((n_games, pad + n_states), _INF)
        padded[:, pad] = 0.0
        value = padded[:, pad:]
        candidate = np.empty((n_games, n_states, n_levels))
        flat = candidate.reshape(-1)
        index = np.empty((n_games, n_states), dtype=np.intp)
        # Slot-major choices, written by argmin; slots outside the mask
        # keep choice 0.
        chosen = np.zeros((horizon, n_games, n_states), dtype=np.intp)
        # Each window slot's costs, one (game, state, level) block per
        # slot: the per-slot add then needs no broadcasting.
        costs = np.empty((len(slots), n_games, n_states, n_levels))
        costs[...] = cost_tables[:, slots].transpose(1, 0, 2)[:, :, None, :]
        for h, cost in zip(slots.tolist(), costs):
            # Every index is in range; "clip" only lets take write
            # straight into ``out`` instead of through a buffer.
            padded.take(shifted, axis=1, out=candidate, mode="clip")
            np.add(candidate, cost, out=candidate)
            choice = candidate.argmin(axis=2, out=chosen[h])
            np.add(offsets, choice, out=index)
            flat.take(index, out=value, mode="clip")
        return value.copy(), chosen.transpose(1, 0, 2).astype(np.int16, order="C")
