"""Objective oracles: quadratic, regularized log-sum-exp, l2-regularized logistic.

Each oracle exposes value, gradient, Hessian diagonal, Hessian-vector
product and (for diagnostics) the full dense Hessian, together with the
problem constants: the gradient Lipschitz constant L and strong-convexity
constant mu in the Euclidean metric, and the strong self-concordance
constant M where one is known.

Oracles are immutable after construction and every evaluation is pure, so
shared problem data may be evaluated from multiple threads.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .errors import DimensionMismatch, DimensionTooLarge, NonFiniteResult
from .operator_core import DenseSymmetric, _as_vector

# Largest dimension for dense n x n Hessian work: ``full_hessian`` refuses
# larger problems and the per-iteration O(n^3) diagnostics skip them.
DENSE_CAP = 500


def _stable_softmax(z):
    """(log-sum-exp, softmax weights) of z with max-subtraction."""
    zmax = float(np.max(z))
    e = np.exp(z - zmax)
    total = float(np.sum(e))
    return zmax + np.log(total), e / total


class ObjectiveOracle:
    """Common evaluation interface for the three objective families.

    Attributes
    ----------
    n : int
        Problem dimension.
    lipschitz_l : float
        Lipschitz constant of the gradient w.r.t. the Euclidean metric.
    strong_convexity_mu : float or None
        Certified strong-convexity constant, when known.
    self_concordance_m : float or None
        Strong self-concordance constant; None when no certified value is
        available (the correction strategy is then left off).
    """

    n: int
    lipschitz_l: float
    strong_convexity_mu: float | None = None
    self_concordance_m: float | None = None

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian_diag(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian_vec(self, x, h) -> np.ndarray:
        raise NotImplementedError

    def full_hessian(self, x) -> DenseSymmetric:
        raise NotImplementedError

    def _check_cap(self):
        if self.n > DENSE_CAP:
            raise DimensionTooLarge(f"n={self.n} exceeds the dense-Hessian cap {DENSE_CAP}")


class QuadraticProblem(ObjectiveOracle):
    """f(x) = 0.5 <A x, x> - <b, x> for SPD A."""

    def __init__(self, a: DenseSymmetric, b):
        self.a = a if isinstance(a, DenseSymmetric) else DenseSymmetric(a)
        self.n = self.a.n
        self.b = _as_vector(b, self.n)
        eigs = np.linalg.eigvalsh(self.a.entries)
        self.lipschitz_l = float(eigs[-1])
        self.strong_convexity_mu = float(eigs[0])
        self.self_concordance_m = 0.0  # constant Hessian

    def value(self, x):
        x = _as_vector(x, self.n)
        return 0.5 * float(np.dot(self.a.entries @ x, x)) - float(np.dot(self.b, x))

    def gradient(self, x):
        x = _as_vector(x, self.n)
        return self.a.entries @ x - self.b

    def hessian_diag(self, x):
        _as_vector(x, self.n)
        return self.a.diagonal()

    def hessian_vec(self, x, h):
        _as_vector(x, self.n)
        return self.a.entries @ _as_vector(h, self.n)

    def full_hessian(self, x):
        self._check_cap()
        _as_vector(x, self.n)
        return self.a

    def minimizer(self) -> np.ndarray:
        return np.linalg.solve(self.a.entries, self.b)


class LogSumExpProblem(ObjectiveOracle):
    """f(x) = ln(sum_j exp(<c_j, x> - b_j)) + 0.5 sum_j <c_j, x>^2 + 0.5*gamma*|x|^2.

    The log term is evaluated with max-subtraction, so the softmax weights
    stay in [0, 1] and sum to one at any finite x.
    """

    def __init__(self, c, b, gamma: float):
        self.c = np.array(c, dtype=float)
        if self.c.ndim != 2:
            raise DimensionMismatch("c must be an m x n array")
        self.b = np.array(b, dtype=float)
        if self.b.shape != (self.c.shape[0],):
            raise DimensionMismatch("b length must match the number of rows of c")
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.b))):
            raise ValueError("data entries must be finite")
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)
        self.m, self.n = self.c.shape
        self._c_sq = self.c * self.c
        self.lipschitz_l = 2.0 * float(np.sum(self._c_sq)) + self.gamma
        # The two data terms are convex, so gamma certifies strong convexity.
        self.strong_convexity_mu = self.gamma
        self.self_concordance_m = 2.0

    def _weights(self, x):
        t = self.c @ x
        lse, pi = _stable_softmax(t - self.b)
        return t, lse, pi

    def value(self, x):
        x = _as_vector(x, self.n)
        t, lse, _ = self._weights(x)
        val = lse + 0.5 * float(np.dot(t, t)) + 0.5 * self.gamma * float(np.dot(x, x))
        if not np.isfinite(val):
            raise NonFiniteResult(f"objective overflowed at |x| = {np.max(np.abs(x))}")
        return val

    def gradient(self, x):
        x = _as_vector(x, self.n)
        t, _, pi = self._weights(x)
        return self.c.T @ (pi + t) + self.gamma * x

    def hessian_diag(self, x):
        x = _as_vector(x, self.n)
        _, _, pi = self._weights(x)
        soft_grad = self.c.T @ pi
        return self._c_sq.T @ (pi + 1.0) - soft_grad**2 + self.gamma

    def hessian_vec(self, x, h):
        x = _as_vector(x, self.n)
        h = _as_vector(h, self.n)
        _, _, pi = self._weights(x)
        soft_grad = self.c.T @ pi
        ch = self.c @ h
        return (
            self.c.T @ ((pi + 1.0) * ch)
            - float(np.dot(soft_grad, h)) * soft_grad
            + self.gamma * h
        )

    def full_hessian(self, x):
        self._check_cap()
        x = _as_vector(x, self.n)
        _, _, pi = self._weights(x)
        soft_grad = self.c.T @ pi
        h = (self.c.T * (pi + 1.0)) @ self.c - np.outer(soft_grad, soft_grad)
        h[np.diag_indices(self.n)] += self.gamma
        return DenseSymmetric(h)


class LogisticProblem(ObjectiveOracle):
    """f(x) = sum_j ln(1 + exp(-y_j <c_j, x>)) + 0.5*gamma*|x|^2, labels y in {-1, +1}."""

    def __init__(self, c, labels, gamma: float, self_concordance_m: float | None = None):
        self.c = np.array(c, dtype=float)
        if self.c.ndim != 2:
            raise DimensionMismatch("c must be an m x n array")
        self.labels = np.array(labels, dtype=float)
        if self.labels.shape != (self.c.shape[0],):
            raise DimensionMismatch("labels length must match the number of rows of c")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)
        self.m, self.n = self.c.shape
        self._c_sq = self.c * self.c
        self.lipschitz_l = 0.25 * float(np.sum(self._c_sq)) + self.gamma
        self.strong_convexity_mu = self.gamma
        # No certified constant by default; callers may supply one to force
        # the corrected scheme.
        self.self_concordance_m = self_concordance_m

    def _margins(self, x):
        return self.labels * (self.c @ x)

    def value(self, x):
        x = _as_vector(x, self.n)
        t = self._margins(x)
        val = float(np.sum(np.logaddexp(0.0, -t))) + 0.5 * self.gamma * float(
            np.dot(x, x)
        )
        if not np.isfinite(val):
            raise NonFiniteResult(f"objective overflowed at |x| = {np.max(np.abs(x))}")
        return val

    def gradient(self, x):
        x = _as_vector(x, self.n)
        t = self._margins(x)
        return self.c.T @ (-self.labels * expit(-t)) + self.gamma * x

    def _hess_weights(self, x):
        t = self._margins(x)
        return expit(t) * expit(-t)

    def hessian_diag(self, x):
        x = _as_vector(x, self.n)
        w = self._hess_weights(x)
        return self._c_sq.T @ w + self.gamma

    def hessian_vec(self, x, h):
        x = _as_vector(x, self.n)
        h = _as_vector(h, self.n)
        w = self._hess_weights(x)
        return self.c.T @ (w * (self.c @ h)) + self.gamma * h

    def full_hessian(self, x):
        self._check_cap()
        x = _as_vector(x, self.n)
        w = self._hess_weights(x)
        h = (self.c.T * w) @ self.c
        h[np.diag_indices(self.n)] += self.gamma
        return DenseSymmetric(h)
