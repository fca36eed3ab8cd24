"""Epsilon-insensitive support vector regression, implemented from scratch.

The paper's detection layer (its refs. [7, 10]) predicts the guideline
price with SVR.  No off-the-shelf SVR is available offline, so this module
implements the standard dual formulation directly:

    minimize over beta in [-C, C]^n :
        0.5 * beta^T K~ beta - y^T beta + eps * ||beta||_1

where ``K~ = K + 1`` is the kernel matrix augmented with a constant
(absorbing the bias into the kernel removes the dual equality constraint),
and ``beta_i = alpha_i - alpha_i^*``.  The problem is solved by cyclic
dual coordinate descent with the exact closed-form per-coordinate update
(a soft-threshold followed by box clipping).  It stops on a sweep count
as well as on ``tol``, and on the price histories used here every fit
runs the full ``max_iterations`` sweeps: a 672-sample history costs
200 sweeps of 672 coordinate visits, about 0.3 s.  The sweep runs on
Python floats, with numpy only for the ``K~ @ beta`` update, since a
visit is a handful of scalar operations.

Predictions are ``f(x) = sum_i beta_i * K~(x_i, x)``.  Features and
targets are standardized internally.
"""

from __future__ import annotations

from typing import Literal

import numpy as np
from numpy.typing import ArrayLike, NDArray

KernelName = Literal["rbf", "linear", "poly"]


def _kernel_matrix(
    a: NDArray[np.float64],
    b: NDArray[np.float64],
    kernel: KernelName,
    gamma: float,
    degree: int,
    coef0: float,
) -> NDArray[np.float64]:
    if kernel == "linear":
        return a @ b.T
    if kernel == "poly":
        return (gamma * (a @ b.T) + coef0) ** degree
    if kernel == "rbf":
        sq_a = np.sum(a**2, axis=1)[:, None]
        sq_b = np.sum(b**2, axis=1)[None, :]
        # exp(-gamma * max(sq_a + sq_b - 2 a.b, 0)), in place: a fit's
        # n x n matrix never needs more than this buffer and the product.
        sq_dist = sq_a + sq_b
        cross = a @ b.T
        cross *= 2.0
        sq_dist -= cross
        del cross
        np.maximum(sq_dist, 0.0, out=sq_dist)
        sq_dist *= -gamma
        return np.exp(sq_dist, out=sq_dist)
    raise ValueError(f"unknown kernel {kernel!r}")


class SupportVectorRegressor:
    """Kernel epsilon-SVR trained by dual coordinate descent.

    Parameters
    ----------
    kernel:
        ``"rbf"`` (default), ``"linear"`` or ``"poly"``.
    c:
        Box constraint on the dual coefficients (regularization inverse).
    epsilon:
        Half-width of the insensitive tube, in *standardized* target units.
    gamma:
        Kernel width; ``None`` uses the ``1 / (d * var)`` heuristic.
    degree, coef0:
        Polynomial kernel parameters.
    max_iterations, tol:
        Coordinate-descent stopping controls: stop when the largest
        per-coordinate change in one sweep falls below ``tol``.
    """

    def __init__(
        self,
        *,
        kernel: KernelName = "rbf",
        c: float = 10.0,
        epsilon: float = 0.05,
        gamma: float | None = None,
        degree: int = 3,
        coef0: float = 1.0,
        max_iterations: int = 200,
        tol: float = 1e-5,
    ) -> None:
        if kernel not in ("rbf", "linear", "poly"):
            raise ValueError(f"unknown kernel {kernel!r}")
        if c <= 0:
            raise ValueError(f"c must be > 0, got {c}")
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        if gamma is not None and gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {gamma}")
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if tol <= 0:
            raise ValueError(f"tol must be > 0, got {tol}")
        self.kernel: KernelName = kernel
        self.c = float(c)
        self.epsilon = float(epsilon)
        self.gamma = gamma
        self.degree = int(degree)
        self.coef0 = float(coef0)
        self.max_iterations = int(max_iterations)
        self.tol = float(tol)
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, features: ArrayLike, targets: ArrayLike) -> "SupportVectorRegressor":
        """Fit the regressor; returns ``self`` for chaining."""
        x = np.asarray(features, dtype=float)
        y = np.asarray(targets, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError(
                f"targets must have shape ({x.shape[0]},), got {y.shape}"
            )
        if x.shape[0] < 2:
            raise ValueError("need at least two training samples")
        if np.any(~np.isfinite(x)) or np.any(~np.isfinite(y)):
            raise ValueError("training data contains NaN or infinite values")

        self._x_mean = x.mean(axis=0)
        self._x_std = np.where(x.std(axis=0) > 1e-12, x.std(axis=0), 1.0)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) if y.std() > 1e-12 else 1.0
        xs = (x - self._x_mean) / self._x_std
        ys = (y - self._y_mean) / self._y_std

        gamma = self.gamma
        if gamma is None:
            variance = float(xs.var())
            gamma = 1.0 / (xs.shape[1] * variance) if variance > 1e-12 else 1.0
        self._gamma = gamma

        k_tilde = _kernel_matrix(xs, xs, self.kernel, gamma, self.degree, self.coef0)
        k_tilde += 1.0  # absorb the bias term
        # The sweep reads column i of K~ as a contiguous row, whether or
        # not K~ came out bitwise symmetric; only that copy is kept.
        k_tilde_t = np.ascontiguousarray(k_tilde.T)
        del k_tilde
        n = xs.shape[0]
        diag = np.diag(k_tilde_t)
        diag = np.where(diag > 1e-12, diag, 1e-12).tolist()
        columns = list(k_tilde_t)
        targets_s = ys.tolist()
        beta = [0.0] * n
        k_beta = np.zeros(n)  # running K~ @ beta
        k_beta_at = k_beta.item
        step = np.empty(n)
        multiply, add = np.multiply, np.add
        epsilon, c = self.epsilon, self.c

        self._n_sweeps = 0
        for sweep in range(self.max_iterations):
            max_change = 0.0
            for i, d, y, column in zip(range(n), diag, targets_s, columns):
                b = beta[i]
                z = -(k_beta_at(i) - d * b - y)
                # The soft-threshold np.sign(z) * max(|z| - eps, 0) / d,
                # then the box clip, with the same rounding and zero signs.
                excess = abs(z) - epsilon
                if excess > 0.0:
                    candidate = (excess if z > 0.0 else -excess) / d
                    new_beta = c if candidate > c else -c if candidate < -c else candidate
                elif z < 0.0:
                    new_beta = -0.0
                elif excess <= 0.0:
                    new_beta = 0.0
                else:
                    new_beta = excess  # NaN, as np.sign(nan) * nan
                change = new_beta - b
                if change != 0.0:  # repro: noqa[FLT001] exact: skip no-op updates
                    multiply(column, change, step)
                    add(k_beta, step, k_beta)
                    beta[i] = new_beta
                    max_change = max(max_change, abs(change))
            self._n_sweeps = sweep + 1
            if max_change < self.tol:
                break

        self._beta = np.array(beta)
        self._x_train = xs
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    def predict(self, features: ArrayLike) -> NDArray[np.float64]:
        """Predict targets for a feature matrix of shape ``(m, d)``."""
        if not self._fitted:
            raise RuntimeError("predict called before fit")
        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self._x_train.shape[1]:
            raise ValueError(
                f"feature dimension {x.shape[1]} != training dimension "
                f"{self._x_train.shape[1]}"
            )
        xs = (x - self._x_mean) / self._x_std
        k = _kernel_matrix(
            xs, self._x_train, self.kernel, self._gamma, self.degree, self.coef0
        )
        ys = (k + 1.0) @ self._beta
        return ys * self._y_std + self._y_mean

    # ------------------------------------------------------------------
    @property
    def support_vector_count(self) -> int:
        """Number of training points with nonzero dual coefficient."""
        if not self._fitted:
            raise RuntimeError("model not fitted")
        return int(np.sum(np.abs(self._beta) > 1e-9))

    @property
    def n_sweeps(self) -> int:
        """Coordinate-descent sweeps used by the last fit."""
        if not self._fitted:
            raise RuntimeError("model not fitted")
        return self._n_sweeps

    def score_rmse(self, features: ArrayLike, targets: ArrayLike) -> float:
        """Root-mean-square error on a labelled set."""
        y = np.asarray(targets, dtype=float)
        predictions = self.predict(features)
        if y.shape != predictions.shape:
            raise ValueError(f"targets shape {y.shape} != predictions {predictions.shape}")
        return float(np.sqrt(np.mean((predictions - y) ** 2)))
