"""Tests for the scratch-built epsilon-SVR."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prediction.svr import SupportVectorRegressor, _kernel_matrix


class TestKernelMatrix:
    def test_linear(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        k = _kernel_matrix(a, a, "linear", 1.0, 3, 1.0)
        np.testing.assert_allclose(k, a @ a.T)

    def test_rbf_diagonal_ones(self):
        a = np.random.default_rng(0).normal(size=(5, 3))
        k = _kernel_matrix(a, a, "rbf", 0.5, 3, 1.0)
        np.testing.assert_allclose(np.diag(k), 1.0)

    def test_rbf_symmetric_psd(self):
        a = np.random.default_rng(1).normal(size=(6, 2))
        k = _kernel_matrix(a, a, "rbf", 1.0, 3, 1.0)
        np.testing.assert_allclose(k, k.T)
        eigenvalues = np.linalg.eigvalsh(k)
        assert eigenvalues.min() > -1e-10

    def test_poly(self):
        a = np.array([[1.0], [2.0]])
        k = _kernel_matrix(a, a, "poly", 1.0, 2, 1.0)
        np.testing.assert_allclose(k, (a @ a.T + 1.0) ** 2)

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            _kernel_matrix(np.ones((1, 1)), np.ones((1, 1)), "spline", 1.0, 3, 1.0)


class TestValidation:
    def test_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            SupportVectorRegressor(kernel="spline")

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            SupportVectorRegressor(c=0.0)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            SupportVectorRegressor(epsilon=-0.1)

    def test_rejects_1d_features(self):
        with pytest.raises(ValueError, match="2-D"):
            SupportVectorRegressor().fit(np.ones(5), np.ones(5))

    def test_rejects_target_mismatch(self):
        with pytest.raises(ValueError, match="targets"):
            SupportVectorRegressor().fit(np.ones((5, 2)), np.ones(4))

    def test_rejects_nan(self):
        x = np.ones((3, 1))
        x[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            SupportVectorRegressor().fit(x, np.ones(3))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            SupportVectorRegressor().predict(np.ones((1, 2)))

    def test_predict_dimension_mismatch(self):
        model = SupportVectorRegressor().fit(np.ones((4, 2)), np.arange(4.0))
        with pytest.raises(ValueError, match="dimension"):
            model.predict(np.ones((1, 3)))


class TestRegressionQuality:
    def test_linear_function_linear_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(80, 2))
        y = 3.0 * x[:, 0] - 2.0 * x[:, 1] + 0.5
        model = SupportVectorRegressor(kernel="linear", c=100.0, epsilon=0.01)
        model.fit(x, y)
        assert model.score_rmse(x, y) < 0.1

    def test_sine_rbf(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 2 * np.pi, 120)[:, None]
        y = np.sin(x[:, 0]) + rng.normal(0, 0.02, size=120)
        model = SupportVectorRegressor(kernel="rbf", c=50.0, epsilon=0.02, gamma=2.0)
        model.fit(x, y)
        grid = np.linspace(0.3, 2 * np.pi - 0.3, 40)[:, None]
        assert model.score_rmse(grid, np.sin(grid[:, 0])) < 0.1

    def test_quadratic_poly_kernel(self):
        x = np.linspace(-1, 1, 60)[:, None]
        y = x[:, 0] ** 2
        model = SupportVectorRegressor(kernel="poly", degree=2, c=100.0, epsilon=0.01)
        model.fit(x, y)
        assert model.score_rmse(x, y) < 0.05

    def test_constant_target(self):
        """Degenerate zero-variance target: prediction equals the constant."""
        x = np.random.default_rng(2).normal(size=(20, 2))
        y = np.full(20, 7.0)
        model = SupportVectorRegressor().fit(x, y)
        np.testing.assert_allclose(model.predict(x), 7.0, atol=1e-6)

    def test_1d_feature_prediction(self):
        model = SupportVectorRegressor(kernel="linear", c=10.0)
        model.fit(np.arange(10.0)[:, None], np.arange(10.0))
        single = model.predict(np.array([4.5]))
        assert single.shape == (1,)
        assert single[0] == pytest.approx(4.5, abs=0.3)

    @settings(max_examples=10, deadline=None)
    @given(
        slope=st.floats(-3.0, 3.0),
        intercept=st.floats(-2.0, 2.0),
    )
    def test_recovers_affine(self, slope, intercept):
        x = np.linspace(-2, 2, 50)[:, None]
        y = slope * x[:, 0] + intercept
        model = SupportVectorRegressor(kernel="linear", c=100.0, epsilon=0.01)
        model.fit(x, y)
        assert model.score_rmse(x, y) < 0.1 + 0.02 * abs(slope)


class TestDualProperties:
    def test_support_vector_count(self):
        x = np.linspace(0, 1, 30)[:, None]
        y = 2.0 * x[:, 0]
        model = SupportVectorRegressor(kernel="linear", c=10.0, epsilon=0.2)
        model.fit(x, y)
        # wide epsilon tube: most points are inside, few support vectors
        assert model.support_vector_count < 30

    def test_sweeps_reported(self):
        model = SupportVectorRegressor(max_iterations=5)
        model.fit(np.random.default_rng(0).normal(size=(10, 2)), np.arange(10.0))
        assert 1 <= model.n_sweeps <= 5

    def test_deterministic(self):
        x = np.random.default_rng(3).normal(size=(25, 2))
        y = x[:, 0] - x[:, 1]
        a = SupportVectorRegressor().fit(x, y).predict(x)
        b = SupportVectorRegressor().fit(x, y).predict(x)
        np.testing.assert_array_equal(a, b)


def _fit_case(name: str) -> tuple[SupportVectorRegressor, np.ndarray]:
    """One fitted model per bit-pinned case, and its held-out grid."""
    seeds = {"rbf": 101, "linear": 102, "poly": 103, "clip": 104, "tube": 105, "capped": 106}
    rng = np.random.default_rng(seeds[name])
    if name == "rbf":
        x = rng.normal(size=(90, 4))
        y = np.sin(x[:, 0]) + 0.3 * x[:, 1] * x[:, 2] + rng.normal(0, 0.1, 90)
        model = SupportVectorRegressor(kernel="rbf", c=10.0, epsilon=0.05)
    elif name == "linear":
        x = rng.normal(size=(70, 3))
        y = x @ np.array([1.5, -2.0, 0.5]) + rng.normal(0, 0.2, 70)
        model = SupportVectorRegressor(kernel="linear", c=5.0, epsilon=0.1)
    elif name == "poly":
        x = rng.uniform(-1, 1, size=(60, 2))
        y = x[:, 0] ** 2 - x[:, 1] + rng.normal(0, 0.05, 60)
        model = SupportVectorRegressor(kernel="poly", degree=2, c=20.0, epsilon=0.02)
    elif name == "clip":
        # Heavy-tailed noise and a small box: most coefficients sit at +-C.
        x = rng.normal(size=(50, 2))
        y = x[:, 0] + rng.standard_t(1.5, 50)
        model = SupportVectorRegressor(kernel="rbf", c=0.3, epsilon=0.01)
    elif name == "tube":
        # A tube wider than the noise: most coefficients stay exactly zero.
        x = rng.normal(size=(40, 2))
        y = 0.5 * x[:, 0] + rng.normal(0, 0.05, 40)
        model = SupportVectorRegressor(kernel="linear", c=10.0, epsilon=0.9)
    else:
        x = rng.normal(size=(80, 3))
        y = np.cos(2 * x[:, 0]) + x[:, 1]
        model = SupportVectorRegressor(
            kernel="rbf", c=100.0, epsilon=0.001, max_iterations=7
        )
    model.fit(x, y)
    return model, rng.normal(size=(25, x.shape[1]))


# SHA-256 of (beta, n_sweeps, predictions on a held-out grid) per case.
# The descent's coordinate order and rounding are the spec: a faster
# sweep must reproduce these bytes, signed zeros included.
SVR_DIGESTS = {
    "rbf": "20e860733eeb712c9d8306c0fcea20d9af2f0d7aa9c78f8591242089aadba4fc",
    "linear": "15676340e662ade47bb2594934a4c6c64d87415ecae7a1e9ed1642e7d81c6cdc",
    "poly": "7800cc034fdfadd510e25c52d72e39adf9ea13350dd68977d76fc21904f744e1",
    "clip": "c40a00089591a10a7094132d437135a84c9d0425a62396aaace8cf17a2c164e5",
    "tube": "5328a1b554ead303e0ef123acf028e3399202f93da3b7c53bf8a7380b160f5f6",
    "capped": "613a19358c6bcb6f7cf3d15445705bbd72933307bfb9f5604b71453332209ccf",
}


class TestBitPins:
    @pytest.mark.parametrize("name", sorted(SVR_DIGESTS))
    def test_fit_digest(self, name):
        model, grid = _fit_case(name)
        digest = hashlib.sha256()
        digest.update(np.asarray(model._beta, dtype=np.float64).tobytes())
        digest.update(np.asarray([model.n_sweeps], dtype=np.float64).tobytes())
        digest.update(np.asarray(model.predict(grid), dtype=np.float64).tobytes())
        assert digest.hexdigest() == SVR_DIGESTS[name]

    def test_cases_cover_the_update_branches(self):
        """The pinned cases reach the box, the tube, the cap and -0.0."""
        clip, _ = _fit_case("clip")
        assert np.sum(np.abs(clip._beta) == clip.c) > 10
        assert clip.n_sweeps < clip.max_iterations
        tube, _ = _fit_case("tube")
        zeros = tube._beta == 0
        assert zeros.sum() > 30
        assert np.any(np.signbit(tube._beta[zeros]))
        assert tube.n_sweeps < tube.max_iterations
        capped, _ = _fit_case("capped")
        assert capped.n_sweeps == capped.max_iterations == 7


def _reference_descent(model: SupportVectorRegressor, y: np.ndarray) -> tuple:
    """The dual coordinate descent on numpy scalars, as first written:
    the oracle for the fitted model's beta and sweep count."""
    xs = model._x_train
    ys = (np.asarray(y, dtype=float) - model._y_mean) / model._y_std
    k = _kernel_matrix(xs, xs, model.kernel, model._gamma, model.degree, model.coef0)
    k_tilde = k + 1.0
    n = xs.shape[0]
    beta = np.zeros(n)
    k_beta = np.zeros(n)
    diag = np.diag(k_tilde).copy()
    diag = np.where(diag > 1e-12, diag, 1e-12)
    n_sweeps = 0
    for sweep in range(model.max_iterations):
        max_change = 0.0
        for i in range(n):
            z = -(k_beta[i] - diag[i] * beta[i] - ys[i])
            candidate = np.sign(z) * max(abs(z) - model.epsilon, 0.0) / diag[i]
            new_beta = min(max(candidate, -model.c), model.c)
            change = new_beta - beta[i]
            if change != 0:
                k_beta += change * k_tilde[:, i]
                beta[i] = new_beta
                max_change = max(max_change, abs(change))
        n_sweeps = sweep + 1
        if max_change < model.tol:
            break
    return beta, n_sweeps


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    kernel=st.sampled_from(["rbf", "linear", "poly"]),
    c=st.sampled_from([0.05, 1.0, 1e3]),
    epsilon=st.sampled_from([0.0, 0.05, 2.0]),
    rounded=st.booleans(),
)
def test_fit_equals_reference_descent(seed, n, kernel, c, epsilon, rounded):
    """Random problems, ties and exact zeros included (``rounded``)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = x[:, 0] + rng.standard_t(2.0, n)
    if rounded:
        x, y = np.round(x), np.round(y)
    model = SupportVectorRegressor(
        kernel=kernel, c=c, epsilon=epsilon, degree=2, max_iterations=30
    ).fit(x, y)
    beta, n_sweeps = _reference_descent(model, y)
    assert model._beta.tobytes() == beta.tobytes()
    assert model.n_sweeps == n_sweeps
