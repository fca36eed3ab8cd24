"""Battery-storage optimization via the cross-entropy method.

Problem **P1** of the paper is non-convex in the battery trajectory: the
selling branch of the cost (Eqn. 2) is a concave quadratic, so the
per-customer cost as a function of ``b`` is piecewise quadratic with both
convex and concave pieces.  The paper's remedy is the cross-entropy
method; this module wires the generic optimizer to the battery problem:

- decision vector: ``(b^2, ..., b^{H+1})`` with ``b^1`` pinned to the
  initial charge;
- box constraints: ``0 <= b^h <= B_n``;
- rate constraints: handled by projecting samples onto the reachable set
  (:func:`repro.netmetering.battery.clamp_trajectory`);
- objective: the customer's total cost given fixed appliance loads and
  the rest of the community's trading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.core.config import BatteryConfig
from repro.kernels import KernelBackend, get_backend
from repro.netmetering.battery import clamp_trajectory, clamp_trajectory_batch
from repro.netmetering.cost import CostModel, cost_terms
from repro.optimization.cross_entropy import CrossEntropyOptimizer, OptimizationResult


@dataclass(frozen=True)
class BatteryProblem:
    """A fixed-load battery scheduling instance for one customer.

    ``multiplicity > 1`` models an archetype instance whose identical
    siblings move in lockstep: ``others_trading`` must then exclude all
    instances, and the community total is ``others + multiplicity * y``
    while the customer pays for its own quantity only.
    """

    load: tuple[float, ...]
    pv: tuple[float, ...]
    others_trading: tuple[float, ...]
    spec: BatteryConfig
    cost_model: CostModel
    slot_hours: float = 1.0
    multiplicity: int = 1

    def __post_init__(self) -> None:
        load = tuple(float(v) for v in self.load)
        pv = tuple(float(v) for v in self.pv)
        others = tuple(float(v) for v in self.others_trading)
        object.__setattr__(self, "load", load)
        object.__setattr__(self, "pv", pv)
        object.__setattr__(self, "others_trading", others)
        h = len(load)
        if h == 0:
            raise ValueError("load must be non-empty")
        if len(pv) != h or len(others) != h:
            raise ValueError(
                f"load/pv/others_trading lengths differ: {h}, {len(pv)}, {len(others)}"
            )
        if self.cost_model.horizon != h:
            raise ValueError(
                f"cost model horizon {self.cost_model.horizon} != load length {h}"
            )
        if self.slot_hours <= 0:
            raise ValueError(f"slot_hours must be > 0, got {self.slot_hours}")
        if self.multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {self.multiplicity}")

    @property
    def horizon(self) -> int:
        return len(self.load)

    def full_trajectory(self, decision: ArrayLike) -> NDArray[np.float64]:
        """Prepend the pinned initial charge to a decision vector."""
        d = np.asarray(decision, dtype=float)
        if d.shape != (self.horizon,):
            raise ValueError(f"decision must have shape ({self.horizon},), got {d.shape}")
        return np.concatenate(([self.spec.initial_kwh], d))

    def project(self, decision: NDArray[np.float64]) -> NDArray[np.float64]:
        """Repair a raw CE sample onto the feasible trajectory set."""
        full = clamp_trajectory(
            self.full_trajectory(decision), self.spec, slot_hours=self.slot_hours
        )
        return full[1:]

    def project_batch(self, decisions: NDArray[np.float64]) -> NDArray[np.float64]:
        """Repair a whole ``(K, H)`` CE population in one vectorized pass.

        Row-for-row identical to :meth:`project`; this is the
        ``batch_projection`` hook that removes the per-sample Python loop
        from the CE battery step.
        """
        d = np.asarray(decisions, dtype=float)
        if d.ndim != 2 or d.shape[1] != self.horizon:
            raise ValueError(
                f"decisions must have shape (K, {self.horizon}), got {d.shape}"
            )
        b0 = np.full((d.shape[0], 1), self.spec.initial_kwh)
        full = clamp_trajectory_batch(
            np.hstack([b0, d]), self.spec, slot_hours=self.slot_hours
        )
        return full[:, 1:]

    def trading(self, decision: ArrayLike) -> NDArray[np.float64]:
        """Trading amounts implied by a (feasible) decision vector."""
        b = self.full_trajectory(decision)
        load = np.asarray(self.load, dtype=float)
        pv = np.asarray(self.pv, dtype=float)
        return load + np.diff(b) - pv

    def cost(self, decision: ArrayLike) -> float:
        """Customer cost for a (feasible) decision vector."""
        y = self.trading(decision)
        per_slot = self.cost_model.customer_cost_per_slot(
            y, np.asarray(self.others_trading), multiplicity=self.multiplicity
        )
        return float(per_slot.sum())

    def cost_batch(self, decisions: NDArray[np.float64]) -> NDArray[np.float64]:
        """Vectorized cost over a ``(K, H)`` population of decision vectors."""
        if decisions.ndim != 2 or decisions.shape[1] != self.horizon:
            raise ValueError(
                f"decisions must have shape (K, {self.horizon}), got {decisions.shape}"
            )
        b0 = np.full((decisions.shape[0], 1), self.spec.initial_kwh)
        full = np.hstack([b0, decisions])
        load = np.asarray(self.load, dtype=float)
        pv = np.asarray(self.pv, dtype=float)
        y = load[None, :] + np.diff(full, axis=1) - pv[None, :]
        buy, sell, cap = self.cost_model.rates
        cost = cost_terms(
            y,
            np.asarray(self.others_trading, dtype=float)[None, :],
            buy_rates=buy,
            sell_rates=sell,
            export_cap_kwh=cap,
            multiplicity=self.multiplicity,
        )
        return cost.sum(axis=1)


class BatteryOptimizer:
    """Cross-entropy search over battery trajectories for one customer.

    ``backend`` selects the kernel implementation running the projection
    and cost evaluations (see :mod:`repro.kernels`); all backends are
    bitwise-identical, so the choice only affects speed.
    """

    def __init__(
        self,
        *,
        n_samples: int = 48,
        n_elites: int = 8,
        n_iterations: int = 12,
        smoothing: float = 0.7,
        backend: KernelBackend | str | None = None,
    ) -> None:
        self.n_samples = n_samples
        self.n_elites = n_elites
        self.n_iterations = n_iterations
        self.smoothing = smoothing
        self.backend = get_backend(backend)

    def _hooks(
        self, problem: BatteryProblem
    ) -> tuple[
        Callable[[NDArray[np.float64]], NDArray[np.float64]],
        Callable[[NDArray[np.float64]], NDArray[np.float64]],
    ]:
        """Backend-routed (batch projection, batch objective) closures.

        Row-for-row these match :meth:`BatteryProblem.project_batch` and
        :meth:`BatteryProblem.cost_batch`; the kernel backend supplies
        the (possibly fused) implementation.
        """
        spec = problem.spec
        backend = self.backend
        load = np.asarray(problem.load, dtype=float)
        pv = np.asarray(problem.pv, dtype=float)
        others = np.asarray(problem.others_trading, dtype=float)

        def project(decisions: NDArray[np.float64]) -> NDArray[np.float64]:
            return backend.clamp_decisions(
                decisions,
                initial=spec.initial_kwh,
                capacity=spec.capacity_kwh,
                max_charge=spec.max_charge_kw * problem.slot_hours,
                max_discharge=spec.max_discharge_kw * problem.slot_hours,
            )

        buy, sell, cap = problem.cost_model.rates

        def cost(decisions: NDArray[np.float64]) -> NDArray[np.float64]:
            return backend.battery_costs(
                decisions,
                initial=spec.initial_kwh,
                load=load,
                pv=pv,
                others=others,
                buy_rates=buy,
                sell_rates=sell,
                export_cap_kwh=cap,
                multiplicity=problem.multiplicity,
            )

        return project, cost

    def optimize(
        self,
        problem: BatteryProblem,
        *,
        x0: ArrayLike | None = None,
        rng: np.random.Generator | None = None,
    ) -> OptimizationResult:
        """Return the best feasible battery decision found by CE.

        The result's ``x`` is the decision vector ``(b^2, ..., b^{H+1})``;
        prepend the initial charge with
        :meth:`BatteryProblem.full_trajectory` to get the full trajectory.
        Degenerate problems (zero-capacity battery) short-circuit to the
        only feasible trajectory.
        """
        h = problem.horizon
        if problem.spec.capacity_kwh == 0.0:  # repro: noqa[FLT001] exact: no-battery spec
            x = np.zeros(h)
            return OptimizationResult(
                x=x,
                fun=problem.cost(x),
                n_evaluations=1,
                n_iterations=0,
                converged=True,
            )
        project, cost = self._hooks(problem)
        optimizer = CrossEntropyOptimizer(
            lower=np.zeros(h),
            upper=np.full(h, problem.spec.capacity_kwh),
            n_samples=self.n_samples,
            n_elites=self.n_elites,
            n_iterations=self.n_iterations,
            smoothing=self.smoothing,
            projection=problem.project,
            batch_projection=project,
        )
        # The optimizer projects the warm start through its own hook, so
        # projecting here would repair the same point twice.  (For a
        # feasible x0 — every in-pipeline caller — the Gaussian mean is
        # unchanged by this; an infeasible x0 now centers sampling on its
        # box clip rather than its projection.)
        start = (
            np.asarray(x0, dtype=float)
            if x0 is not None
            else np.full(h, problem.spec.initial_kwh)
        )
        result = optimizer.minimize(cost, x0=start, rng=rng, batch=True)
        # Every candidate the optimizer scored was already projected, so
        # result.x is feasible and result.fun is its exact cost — no
        # re-projection or re-evaluation needed.
        return result
