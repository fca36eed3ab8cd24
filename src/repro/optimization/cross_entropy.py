"""Cross-entropy (CE) stochastic optimization (Section 3.2 of the paper).

The CE method maintains a parametric sampling density ``rho(b, p)`` —
here an axis-aligned Gaussian — draws a population, scores it, and refits
the density to the elite fraction (the importance-sampling update that
minimizes the Kullback-Leibler distance to the theoretically optimal
density).  Smoothing interpolates between the old and refitted parameters
to prevent premature collapse.

The paper applies CE to the battery-storage trajectory, whose cost is
piecewise quadratic and non-convex (the selling branch is concave).  The
optimizer here is generic: it minimizes any callable over a box, with an
optional projection hook for problem-specific feasibility repair (the
battery version projects onto the rate-limited reachable set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.obs.trace import TRACER
from repro.perf.counters import PERF

Objective = Callable[[NDArray[np.float64]], float]
BatchObjective = Callable[[NDArray[np.float64]], NDArray[np.float64]]
Projection = Callable[[NDArray[np.float64]], NDArray[np.float64]]
BatchProjection = Callable[[NDArray[np.float64]], NDArray[np.float64]]

STD_FLOOR = 1e-3
"""Default ``std_floor``; the lockstep game solver's batched CE
(:mod:`repro.scheduling.batch`) starts and stops on the same floor."""


def elite_statistics(
    elites: NDArray[np.float64], axis: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """``(elites.mean(axis), elites.std(axis))``, bit for bit.

    The ufuncs that numpy's ``mean`` and ``std`` run, called directly:
    the two methods spend most of a small array's time in their Python
    wrappers.  Mean: ``add.reduce``, then ``true_divide`` by the count.
    Std: the mean kept as an axis, ``subtract``, ``square``, ``add.reduce``,
    ``true_divide``, ``sqrt``.  Both CE implementations refit through this,
    so they stay equal to each other as well as to numpy.
    """
    count = elites.shape[axis]
    mean = np.add.reduce(elites, axis=axis, keepdims=True)
    np.true_divide(mean, count, out=mean)
    deviation = np.subtract(elites, mean)
    np.square(deviation, out=deviation)
    variance = np.add.reduce(deviation, axis=axis)
    np.true_divide(variance, count, out=variance)
    return mean.squeeze(axis), np.sqrt(variance, out=variance)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a stochastic optimization run."""

    x: NDArray[np.float64]
    fun: float
    n_evaluations: int
    n_iterations: int
    converged: bool
    history: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not np.isfinite(self.fun):
            raise ValueError(f"optimal value must be finite, got {self.fun}")


class CrossEntropyOptimizer:
    """Gaussian cross-entropy minimizer over a box.

    Parameters
    ----------
    lower, upper:
        Box bounds, shape ``(d,)`` each, with ``lower <= upper``.
    n_samples:
        Population size ``K`` per iteration.
    n_elites:
        Number of elite samples refitting the density (``1 <= n_elites <=
        n_samples``).
    n_iterations:
        Maximum CE iterations.
    smoothing:
        Parameter-smoothing factor ``alpha`` in ``(0, 1]``; the new density
        parameters are ``alpha * fitted + (1 - alpha) * previous``.
    std_floor:
        Convergence threshold: iteration stops early once every coordinate
        standard deviation falls below this value.
    projection:
        Optional feasibility repair applied to each raw sample before
        evaluation (after box clipping).
    batch_projection:
        Optional vectorized repair mapping the whole ``(K, d)`` sample
        array at once; must agree row-for-row with ``projection``.  When
        provided it replaces the per-sample Python loop — the dominant
        cost of projection-heavy problems such as the battery step.
    """

    def __init__(
        self,
        lower: ArrayLike,
        upper: ArrayLike,
        *,
        n_samples: int = 64,
        n_elites: int = 10,
        n_iterations: int = 20,
        smoothing: float = 0.7,
        std_floor: float = STD_FLOOR,
        projection: Projection | None = None,
        batch_projection: BatchProjection | None = None,
    ) -> None:
        self.lower = np.atleast_1d(np.asarray(lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError(
                f"bounds must be 1-D and matching: {self.lower.shape} vs {self.upper.shape}"
            )
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        if n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {n_samples}")
        if not 1 <= n_elites <= n_samples:
            raise ValueError(f"need 1 <= n_elites <= n_samples, got {n_elites}")
        if n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
        if not 0 < smoothing <= 1:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        if std_floor <= 0:
            raise ValueError(f"std_floor must be > 0, got {std_floor}")
        self.n_samples = n_samples
        self.n_elites = n_elites
        self.n_iterations = n_iterations
        self.smoothing = smoothing
        self.std_floor = std_floor
        self.projection = projection
        self.batch_projection = batch_projection

    @property
    def dimension(self) -> int:
        return self.lower.size

    def minimize(
        self,
        objective: Objective | BatchObjective,
        *,
        x0: ArrayLike | None = None,
        rng: np.random.Generator | None = None,
        batch: bool = False,
    ) -> OptimizationResult:
        """Minimize ``objective`` over the box.

        Parameters
        ----------
        objective:
            Scalar objective ``f(x)``, or a batch objective mapping an
            ``(K, d)`` sample array to a ``(K,)`` score array when
            ``batch=True`` (much faster for vectorizable costs).
        x0:
            Initial mean; defaults to the box center.
        rng:
            Source of randomness; a fresh default generator if omitted.
        batch:
            Whether ``objective`` accepts the whole population at once.

        The initial sampling standard deviation is a quarter of the box
        span per coordinate, floored at ``std_floor``.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        span = self.upper - self.lower
        if x0 is not None:
            x0_arr = np.atleast_1d(np.asarray(x0, dtype=float))
            if x0_arr.shape != (self.dimension,):
                raise ValueError(
                    f"x0 must have shape ({self.dimension},), got {x0_arr.shape}"
                )
            mean = np.clip(x0_arr, self.lower, self.upper)
        else:
            mean = (self.lower + self.upper) / 2.0
        std = np.maximum(span / 4.0, self.std_floor)

        # Score the starting point so a short run can never do worse than
        # its warm start.
        if self.batch_projection is not None:
            start = self.batch_projection(mean[None, :].copy())[0]
        elif self.projection is not None:
            start = self.projection(mean.copy())
        else:
            start = mean
        if batch:
            start_score = float(np.asarray(objective(start[None, :]), dtype=float)[0])
        else:
            start_score = float(objective(start))
        best_x = start.copy()
        best_f = start_score if np.isfinite(start_score) else np.inf
        history: list[float] = []
        n_evaluations = 0
        converged = False

        solve_span = TRACER.begin(
            "ce.minimize",
            category="optimization",
            parent_id=TRACER.current_span_id,
            dimension=self.dimension,
            n_samples=self.n_samples,
        )
        for iteration in range(self.n_iterations):
            samples = rng.normal(mean, std, size=(self.n_samples, self.dimension))
            samples = np.clip(samples, self.lower, self.upper)
            if self.batch_projection is not None:
                samples = self.batch_projection(samples)
            elif self.projection is not None:
                samples = np.stack([self.projection(s) for s in samples])
            if batch:
                scores = np.asarray(objective(samples), dtype=float)
                if scores.shape != (self.n_samples,):
                    raise ValueError(
                        f"batch objective must return shape ({self.n_samples},), "
                        f"got {scores.shape}"
                    )
            else:
                scores = np.array([objective(s) for s in samples], dtype=float)
            n_evaluations += self.n_samples
            PERF.add("ce.evaluations", self.n_samples)
            scores = np.where(np.isfinite(scores), scores, np.inf)

            elite_idx = np.argsort(scores)[: self.n_elites]
            elites = samples[elite_idx]
            if scores[elite_idx[0]] < best_f:
                best_f = float(scores[elite_idx[0]])
                best_x = samples[elite_idx[0]].copy()
            history.append(best_f)

            new_mean, new_std = elite_statistics(elites, axis=0)
            mean = self.smoothing * new_mean + (1 - self.smoothing) * mean
            std = self.smoothing * new_std + (1 - self.smoothing) * std
            if np.all(std < self.std_floor):
                converged = True
                break

        TRACER.end(solve_span)
        PERF.observe("ce.iterations", len(history))
        if not np.isfinite(best_f):
            raise RuntimeError(
                "cross-entropy optimization never found a finite objective value"
            )
        return OptimizationResult(
            x=best_x,
            fun=best_f,
            n_evaluations=n_evaluations,
            n_iterations=len(history),
            converged=converged,
            history=tuple(history),
        )


def minimize_ce(
    objective: Objective,
    lower: Sequence[float],
    upper: Sequence[float],
    *,
    rng: np.random.Generator | None = None,
    **kwargs: object,
) -> OptimizationResult:
    """One-shot convenience wrapper around :class:`CrossEntropyOptimizer`."""
    optimizer = CrossEntropyOptimizer(lower, upper, **kwargs)  # type: ignore[arg-type]
    return optimizer.minimize(objective, rng=rng)
