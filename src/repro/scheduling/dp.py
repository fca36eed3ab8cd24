"""Dynamic-programming appliance scheduler (ref. [6] of the paper).

Given a per-slot, per-level incremental cost table, the scheduler finds the
power-level assignment that exactly meets the task's energy requirement at
minimum total cost.  The DP state is ``(slot, remaining energy units)``;
energy is discretized on the task's greatest-common-divisor unit so the
recursion is exact.

The cost table is what couples the scheduler to the quadratic net-metering
pricing: the game solver (:mod:`repro.scheduling.batch`) computes, for every
slot and level, the *marginal* community cost of running the appliance at
that level on top of the rest of the customer's trading position.  Tables
come in a ``(games, H, levels)`` stack, one per game of a lockstep batch,
and the kernel backend's ``dp_backward_batch`` runs the recursion for the
whole stack; a single table is the one-game case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from repro.kernels import KernelBackend, get_backend
from repro.obs.trace import TRACER
from repro.perf.counters import PERF
from repro.scheduling.appliance import ApplianceSchedule, ApplianceTask, InfeasibleTaskError

CostFunction = Callable[[int, float], float]
"""Incremental cost of running at power ``x`` (kW) in slot ``h``."""


@dataclass(frozen=True)
class DpDiagnostics:
    """Bookkeeping from one scheduler invocation."""

    n_states: int
    n_slots: int
    optimal_cost: float


def _build_cost_table(
    task: ApplianceTask,
    horizon: int,
    cost: CostFunction,
) -> NDArray[np.float64]:
    """Evaluate the cost callable into a dense (horizon, n_levels) table."""
    table = np.zeros((horizon, len(task.power_levels)))
    for h in range(horizon):
        for j, level in enumerate(task.power_levels):
            table[h, j] = cost(h, level)
    return table


def _task_units(
    task: ApplianceTask, horizon: int, *, slot_hours: float
) -> tuple[NDArray[np.int_], int, NDArray[np.bool_]]:
    """Shared DP setup: level units, required units and the window mask."""
    unit = task.energy_unit(slot_hours=slot_hours)
    level_units = np.array(
        [round(p * slot_hours / unit) for p in task.power_levels], dtype=int
    )
    required_units = round(task.energy_kwh / unit)
    mask = task.window_mask(horizon)
    return level_units, required_units, mask


def _backtrack(
    task: ApplianceTask,
    choice: NDArray[np.int16],
    level_units: NDArray[np.int_],
    required_units: int,
    mask: NDArray[np.bool_],
) -> NDArray[np.float64]:
    """Recover the optimal power assignment from the DP choice table."""
    horizon = choice.shape[0]
    power = np.zeros(horizon)
    remaining = required_units
    for h in range(horizon):
        if not mask[h]:
            continue
        j = int(choice[h, remaining])
        power[h] = task.power_levels[j]
        remaining -= int(level_units[j])
    if remaining != 0:
        raise AssertionError(
            f"{task.name}: backtracking left {remaining} units unassigned"
        )
    return power


def _schedule_tables(
    task: ApplianceTask,
    cost_tables: NDArray[np.float64],
    slot_hours: float,
    backend: KernelBackend | str | None,
) -> tuple[list[ApplianceSchedule], NDArray[np.float64], int]:
    """Schedules and optimal costs for a ``(G, H, L)`` stack of tables,
    plus the DP's number of energy states."""
    n_games, horizon, _ = cost_tables.shape
    task.check_feasible(horizon, slot_hours=slot_hours)
    kernel = get_backend(backend)

    level_units, required_units, mask = _task_units(
        task, horizon, slot_hours=slot_hours
    )
    # values[g, r] = minimal cost to consume exactly r units from slot 0 on;
    # choices[g, h, r] = level index chosen at slot h when r units remain.
    n_states = required_units + 1
    values, choices = kernel.dp_backward_batch(
        cost_tables, level_units, n_states, mask
    )
    if not np.all(np.isfinite(values[:, required_units])):
        raise InfeasibleTaskError(
            f"{task.name}: no feasible schedule for {task.energy_kwh} kWh "
            f"in window [{task.earliest_start}, {task.deadline}]"
        )

    schedules = [
        ApplianceSchedule(
            task=task,
            power=tuple(
                _backtrack(task, choices[g], level_units, required_units, mask)
            ),
        )
        for g in range(n_games)
    ]
    PERF.add("dp.cells", n_states * horizon * n_games)
    return schedules, values[:, required_units].copy(), n_states


@TRACER.traced("dp.solve", category="scheduling")
def schedule_appliance_table(
    task: ApplianceTask,
    cost_table: NDArray[np.float64],
    *,
    slot_hours: float = 1.0,
    backend: KernelBackend | str | None = None,
) -> tuple[ApplianceSchedule, DpDiagnostics]:
    """Optimal schedule from a dense cost table.

    The one-table case of :func:`schedule_appliance_tables`.

    Parameters
    ----------
    task:
        The appliance task to schedule.
    cost_table:
        Array of shape ``(horizon, n_levels)``: ``cost_table[h, j]`` is the
        incremental cost of running ``task.power_levels[j]`` in slot ``h``.
        Rows outside the task window are ignored (the level is forced to 0).
    slot_hours:
        Slot duration in hours; per-slot energy is ``level * slot_hours``.
    backend:
        Kernel backend (or name) running the backward recursion; resolved
        via :func:`repro.kernels.get_backend` when omitted.  Backends are
        bitwise-identical, so the choice never changes the schedule.

    Returns
    -------
    (schedule, diagnostics)
        The cost-minimal feasible schedule and DP bookkeeping.

    Raises
    ------
    InfeasibleTaskError
        If no assignment meets the energy requirement.
    """
    horizon, n_levels = cost_table.shape
    if n_levels != len(task.power_levels):
        raise ValueError(
            f"cost_table has {n_levels} level columns but task has "
            f"{len(task.power_levels)} power levels"
        )
    [schedule], optimal_costs, n_states = _schedule_tables(
        task, cost_table[None, :, :], slot_hours, backend
    )
    diagnostics = DpDiagnostics(
        n_states=n_states,
        n_slots=horizon,
        optimal_cost=float(optimal_costs[0]),
    )
    return schedule, diagnostics


@TRACER.traced("dp.solve_batch", category="scheduling")
def schedule_appliance_tables(
    task: ApplianceTask,
    cost_tables: NDArray[np.float64],
    *,
    slot_hours: float = 1.0,
    backend: KernelBackend | str | None = None,
) -> tuple[list[ApplianceSchedule], NDArray[np.float64]]:
    """Optimal schedules for one task under a batch of cost tables.

    ``cost_tables`` has shape ``(G, H, L)`` — one dense table per game of
    a lockstep batch.  The backward recursion runs once over the whole
    batch through the kernel backend, and entry ``g`` of the result is
    what ``schedule_appliance_table(task, cost_tables[g])`` returns.

    Returns ``(schedules, optimal_costs)`` with ``optimal_costs`` of
    shape ``(G,)``.
    """
    if cost_tables.ndim != 3 or cost_tables.shape[2] != len(task.power_levels):
        raise ValueError(
            f"cost_tables must have shape (G, H, {len(task.power_levels)}), "
            f"got {cost_tables.shape}"
        )
    schedules, optimal_costs, _ = _schedule_tables(
        task, cost_tables, slot_hours, backend
    )
    return schedules, optimal_costs


def schedule_appliance(
    task: ApplianceTask,
    cost: CostFunction,
    horizon: int,
    *,
    slot_hours: float = 1.0,
) -> tuple[ApplianceSchedule, DpDiagnostics]:
    """Optimal schedule from a cost callable (wraps the table variant)."""
    table = _build_cost_table(task, horizon, cost)
    return schedule_appliance_table(task, table, slot_hours=slot_hours)
