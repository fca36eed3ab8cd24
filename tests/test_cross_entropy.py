"""Tests for the cross-entropy optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimization.cross_entropy import (
    CrossEntropyOptimizer,
    OptimizationResult,
    elite_statistics,
    minimize_ce,
)


class TestValidation:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="lower"):
            CrossEntropyOptimizer([1.0], [0.0])

    def test_rejects_bound_shape_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            CrossEntropyOptimizer([0.0], [1.0, 2.0])

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError, match="n_samples"):
            CrossEntropyOptimizer([0.0], [1.0], n_samples=1)

    def test_rejects_bad_elites(self):
        with pytest.raises(ValueError, match="elites"):
            CrossEntropyOptimizer([0.0], [1.0], n_samples=10, n_elites=11)

    def test_rejects_bad_smoothing(self):
        with pytest.raises(ValueError, match="smoothing"):
            CrossEntropyOptimizer([0.0], [1.0], smoothing=0.0)

    def test_rejects_bad_x0(self):
        opt = CrossEntropyOptimizer([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="x0"):
            opt.minimize(lambda x: 0.0, x0=[0.5])


class TestConvexProblems:
    def test_quadratic_minimum(self, rng):
        target = np.array([0.3, 0.7, 0.5])
        opt = CrossEntropyOptimizer(
            np.zeros(3), np.ones(3), n_samples=64, n_elites=8, n_iterations=40
        )
        result = opt.minimize(lambda x: float(np.sum((x - target) ** 2)), rng=rng)
        np.testing.assert_allclose(result.x, target, atol=0.05)
        assert result.fun < 1e-2

    def test_boundary_minimum(self, rng):
        """Optimum on the box boundary is found despite clipping."""
        opt = CrossEntropyOptimizer(
            np.zeros(2), np.ones(2), n_samples=64, n_elites=8, n_iterations=40
        )
        result = opt.minimize(lambda x: float(np.sum(x)), rng=rng)
        np.testing.assert_allclose(result.x, 0.0, atol=0.02)

    def test_batch_objective(self, rng):
        target = np.array([0.2, 0.8])
        opt = CrossEntropyOptimizer(
            np.zeros(2), np.ones(2), n_samples=48, n_elites=6, n_iterations=30
        )
        result = opt.minimize(
            lambda xs: np.sum((xs - target) ** 2, axis=1), rng=rng, batch=True
        )
        np.testing.assert_allclose(result.x, target, atol=0.05)

    def test_batch_shape_error(self, rng):
        opt = CrossEntropyOptimizer([0.0], [1.0], n_samples=8, n_elites=4)
        with pytest.raises(ValueError, match="batch objective"):
            opt.minimize(lambda xs: np.zeros(3), rng=rng, batch=True)


class TestNonConvexProblems:
    def test_rastrigin_1d(self, rng):
        """Multi-modal objective: CE escapes local minima."""

        def rastrigin(x):
            return float(10 + x[0] ** 2 - 10 * np.cos(2 * np.pi * x[0]))

        opt = CrossEntropyOptimizer(
            [-5.0], [5.0], n_samples=128, n_elites=12, n_iterations=60
        )
        result = opt.minimize(rastrigin, rng=rng)
        assert abs(result.x[0]) < 0.1
        assert result.fun < 0.5

    def test_concave_piece(self, rng):
        """Piecewise quadratic with a concave branch (the battery cost
        structure): the global optimum at the kink's far side is found."""

        def objective(x):
            v = x[0] - 0.5
            return float(v**2 if v >= 0 else -3 * v**2 + 0.1)

        opt = CrossEntropyOptimizer(
            [0.0], [1.0], n_samples=64, n_elites=8, n_iterations=40
        )
        result = opt.minimize(objective, rng=rng)
        # global optimum at x=0 (value -0.65), not the local one at x=0.5
        assert result.x[0] == pytest.approx(0.0, abs=0.05)

    def test_nan_objective_values_ignored(self, rng):
        def objective(x):
            return np.nan if x[0] < 0.5 else float((x[0] - 0.8) ** 2)

        opt = CrossEntropyOptimizer(
            [0.0], [1.0], n_samples=64, n_elites=8, n_iterations=30
        )
        result = opt.minimize(objective, rng=rng)
        assert result.x[0] == pytest.approx(0.8, abs=0.1)


class TestProjection:
    def test_projection_applied(self, rng):
        """A projection onto multiples of 0.25 constrains the search."""

        def project(x):
            return np.round(x * 4) / 4

        opt = CrossEntropyOptimizer(
            [0.0], [1.0], n_samples=32, n_elites=4, projection=project
        )
        result = opt.minimize(lambda x: float((x[0] - 0.3) ** 2), rng=rng)
        assert result.x[0] in (0.25, 0.5)


class TestResultContract:
    def test_history_monotone(self, rng):
        opt = CrossEntropyOptimizer(
            np.zeros(2), np.ones(2), n_samples=32, n_elites=4, n_iterations=15
        )
        result = opt.minimize(lambda x: float(np.sum(x**2)), rng=rng)
        history = np.array(result.history)
        assert np.all(np.diff(history) <= 1e-12)
        assert result.n_evaluations == 32 * result.n_iterations

    def test_result_requires_finite(self):
        with pytest.raises(ValueError):
            OptimizationResult(
                x=np.zeros(1), fun=np.inf, n_evaluations=1, n_iterations=1, converged=False
            )

    def test_minimize_ce_wrapper(self, rng):
        result = minimize_ce(
            lambda x: float((x[0] - 0.5) ** 2), [0.0], [1.0], rng=rng,
            n_samples=32, n_elites=4, n_iterations=25,
        )
        assert result.x[0] == pytest.approx(0.5, abs=0.05)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_deterministic_given_rng(self, seed):
        def run():
            opt = CrossEntropyOptimizer(
                np.zeros(2), np.ones(2), n_samples=16, n_elites=4, n_iterations=5
            )
            return opt.minimize(
                lambda x: float(np.sum(x**2)), rng=np.random.default_rng(seed)
            )

        a, b = run(), run()
        np.testing.assert_array_equal(a.x, b.x)
        assert a.fun == b.fun


class TestEliteStatistics:
    """The refit's mean and std are numpy's, bit for bit, in both CE
    implementations' layouts: ``(elites, d)`` and ``(games, elites, H)``."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(
            [(1, 24), (4, 24), (10, 40), (1, 4, 24), (34, 4, 24), (3, 10, 40)]
        ),
        scale=st.sampled_from([1e-9, 1.0, 1e6]),
        rounded=st.booleans(),
    )
    def test_equals_numpy_mean_and_std(self, seed, shape, scale, rounded):
        elites = np.random.default_rng(seed).normal(size=shape) * scale
        if rounded:  # ties and exact zeros
            elites = np.round(elites / scale, 1) * scale
        axis = len(shape) - 2
        mean, std = elite_statistics(elites, axis=axis)
        assert mean.tobytes() == elites.mean(axis=axis).tobytes()
        assert std.tobytes() == elites.std(axis=axis).tobytes()
