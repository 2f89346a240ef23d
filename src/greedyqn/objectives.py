"""Objective oracles: quadratic, regularized log-sum-exp, l2-regularized logistic.

Each oracle exposes value, gradient, Hessian diagonal, Hessian-vector
product, the step x + d with the Hessian quadratic form <H d, d> along it,
and (for diagnostics) the full dense Hessian, together with the problem
constants: the gradient Lipschitz constant L and strong-convexity constant
mu in the Euclidean metric, and the strong self-concordance constant M
where one is known.

Each oracle keeps a one-entry cache: the quantities derived from the last
point it evaluated (``c @ x`` with the softmax, the logistic margins, or
``A @ x``), keyed on the bytes of x.  So value, gradient, Hessian diagonal
and Hessian actions at one point share one ``c @ x`` and one softmax or
sigmoid pass, and return the same bits as a fresh oracle, but at a point
:meth:`ObjectiveOracle.advance` stepped to: the data oracles carry its
``c @ x`` from the step's c d, which agrees to rounding.  The problem data
and constants never change after construction.  The cache is safe to use
from several threads: a call reads the cached record once, a new record is
built whole before one assignment publishes it, and its lazily filled
entries never change once set.  Threads that evaluate at different points
only evict each other's record and recompute it, so an evicted stepped
point is fresh again.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from scipy.special import expit

from .errors import (
    DimensionMismatch, DimensionTooLarge, InvalidPlan, NonFiniteResult, NotPositiveDefinite,
)
from .operator_core import _as_vector, symmetric

# Largest dimension for dense n x n Hessian work: ``full_hessian`` refuses
# larger problems, so the per-iteration O(n^3) diagnostics fail above it.
DENSE_CAP = 500


def _stable_softmax(z):
    """(log-sum-exp, softmax weights) of z with max-subtraction."""
    zmax = float(z.max())
    e = np.exp(z - zmax)
    total = float(e.sum())
    return zmax + np.log(total), e / total


def _sq_norm(v) -> float:
    """<v, v>, inf on overflow: ``np.vdot`` is ``np.dot``'s BLAS ddot without its warning."""
    return float(np.vdot(v, v))


def _basis(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def _checked_data(c, gamma, curvature):
    """(c, c*c, L) for a data oracle, after every check its data needs.

    c must be a finite 2-D array and gamma positive and finite.  The
    gradient's Lipschitz constant is L = curvature * sum(c*c) + gamma.  Data
    whose sum of squares overflows is refused as :class:`InvalidPlan` naming
    the largest entry, and so is any other data that makes L inf.  A finite
    sum of squares shows every entry finite, so c is scanned for NaN and inf
    only when the sum is not finite.
    """
    c = np.array(c, dtype=float)
    if c.ndim != 2:
        raise DimensionMismatch("c must be an m x n array")
    with np.errstate(over="ignore"):
        c_sq = c * c
        sq_sum = float(np.sum(c_sq))
    if not math.isfinite(sq_sum) and not np.all(np.isfinite(c)):
        raise ValueError("data entries must be finite")
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not math.isfinite(sq_sum):
        i, j = np.unravel_index(np.argmax(np.abs(c)), c.shape)
        raise InvalidPlan(f"data entry {float(c[i, j])!r} at row {i}, column {j} "
                          "(0-based) is too large: the sum of squared entries overflows")
    lipschitz = curvature * sq_sum + float(gamma)
    if not math.isfinite(lipschitz):
        raise InvalidPlan(f"the Lipschitz constant {curvature:g} * sum(c*c) + gamma overflows "
                          f"(sum(c*c) = {sq_sum!r}, gamma = {float(gamma)!r})")
    return c, c_sq, lipschitz


def _finite_value(val, x) -> float:
    """``val``, the objective at x, refused as :class:`NonFiniteResult` if it overflowed."""
    if not math.isfinite(val):
        raise NonFiniteResult(f"objective overflowed at |x| = {np.max(np.abs(x))}")
    return val


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
    # Record type of the quantities derived from one point, and the cached record.
    _point_type = None
    _last = None

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian_diag(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian_vec(self, x, h) -> np.ndarray:
        raise NotImplementedError

    def hessian_col(self, x, i: int) -> np.ndarray:
        """Column i of the Hessian: its action along the basis vector e_i."""
        return self.hessian_vec(x, _basis(self.n, i))

    def advance(self, x, d) -> tuple[np.ndarray, float]:
        """(x + d, <H(x) d, d>): the step along d and the Hessian's quadratic form along it.

        By default the form is the inner product of :meth:`hessian_vec` with
        d; the data oracles read the data once for it, through c @ d.  Its
        sums go through ``np.vdot``, which returns an overflow as inf (or
        NaN) without a warning.  A d of the wrong length is refused as
        :class:`DimensionMismatch`.
        """
        quad = float(np.vdot(self.hessian_vec(x, d), d))
        return x + d, quad

    def full_hessian(self, x) -> np.ndarray:
        """The dense Hessian at x as a read-only, exactly symmetric array."""
        raise NotImplementedError

    def _at(self, x):
        """The cached record of x if x has its bits, else a new record, now cached.

        The key is a private copy of x's bytes: comparing bits keeps -0.0
        apart from +0.0, lets NaN match itself, and ignores later in-place
        changes to the caller's array.  The record's ``x`` is a read-only
        view of that copy, so it never aliases the caller's array either.
        """
        key = _as_vector(x, self.n).tobytes()
        point = self._last
        if point is None or point.key != key:
            point = self._point_type(self, np.frombuffer(key), key)
            self._last = point
        return point

    def _check_cap(self):
        if self.n > DENSE_CAP:
            raise DimensionTooLarge(f"n={self.n} exceeds the dense cap {DENSE_CAP}")


class _DataOracle(ObjectiveOracle):
    """An oracle on data c whose records hold t, a linear ``_image`` of ``c @ x``."""

    def hessian_col(self, x, i):
        return self._action(self._at(x), _basis(self.n, i), self.c[:, i])

    def advance(self, x, d):
        """Also caches x + d, with t + image(c @ d) carried, if the form is finite.

        A step lost to rounding (x + d has x's bits) keeps x's own record:
        carrying c @ d into it would move t while x stays put.
        """
        p = self._at(x)
        d = _as_vector(d, self.n)
        cd = self.c @ d
        quad = self._quad(p, d, cd)
        x_next = p.x + d
        key = x_next.tobytes()
        if math.isfinite(quad) and key != p.key:
            self._last = self._point_type(self, np.frombuffer(key), key, p.t + self._image(cd))
        return x_next, quad


class _QuadraticPoint:
    """x and A @ x at one point."""

    def __init__(self, oracle, x, key):
        self.key = key
        self.x = x
        self.ax = oracle.a @ x


class QuadraticProblem(ObjectiveOracle):
    """f(x) = 0.5 <A x, x> - <b, x> for SPD A, a square array read through ``symmetric``.

    An A that is not positive definite is refused, so mu and L are certified.
    """

    _point_type = _QuadraticPoint

    def __init__(self, a, b):
        self.a = symmetric(a)
        self.n = self.a.shape[0]
        self.b = _as_vector(b, self.n)
        eigs = np.linalg.eigvalsh(self.a)
        if not eigs[0] > 0:
            raise NotPositiveDefinite(f"A has smallest eigenvalue {eigs[0]:.3e}, expected > 0")
        self.lipschitz_l = float(eigs[-1])
        self.strong_convexity_mu = float(eigs[0])
        self.self_concordance_m = 0.0  # constant Hessian

    def value(self, x):
        p = self._at(x)
        return 0.5 * float(np.dot(p.ax, p.x)) - float(np.dot(self.b, p.x))

    def gradient(self, x):
        return self._at(x).ax - self.b

    def hessian_diag(self, x):
        _as_vector(x, self.n)
        return self.a.diagonal().copy()

    def hessian_vec(self, x, h):
        _as_vector(x, self.n)
        return self.a @ _as_vector(h, self.n)

    def full_hessian(self, x):
        self._check_cap()
        _as_vector(x, self.n)
        return self.a

    def minimizer(self) -> np.ndarray:
        return np.linalg.solve(self.a, self.b)


class _SoftmaxPoint:
    """x, t = c @ x, the log-sum-exp and softmax weights of t - b, and c^T pi on first use."""

    def __init__(self, oracle, x, key, t=None):
        self.key = key
        self.x = x
        self._c = oracle.c
        self.t = oracle.c @ x if t is None else t
        self.lse, self.pi = _stable_softmax(self.t - oracle.b)

    @cached_property
    def soft_grad(self):
        return self._c.T @ self.pi


class LogSumExpProblem(_DataOracle):
    """f(x) = ln(sum_j exp(<c_j, x> - b_j)) + 0.5 sum_j <c_j, x>^2 + 0.5*gamma*|x|^2.

    The log term is evaluated with max-subtraction, so the softmax weights
    stay in [0, 1] and sum to one at any finite x.
    """

    def __init__(self, c, b, gamma: float):
        self.c, self._c_sq, self.lipschitz_l = _checked_data(c, gamma, 2.0)
        self.b = np.array(b, dtype=float)
        if self.b.shape != (self.c.shape[0],):
            raise DimensionMismatch("b length must match the number of rows of c")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("data entries must be finite")
        self.gamma = float(gamma)
        self.m, self.n = self.c.shape
        # The two data terms are convex, so gamma certifies strong convexity.
        self.strong_convexity_mu = self.gamma
        self.self_concordance_m = 2.0

    _point_type = _SoftmaxPoint

    def value(self, x):
        p = self._at(x)
        return _finite_value(
            p.lse + 0.5 * _sq_norm(p.t) + 0.5 * self.gamma * _sq_norm(p.x), p.x
        )

    def gradient(self, x):
        p = self._at(x)
        return self.c.T @ (p.pi + p.t) + self.gamma * p.x

    def hessian_diag(self, x):
        p = self._at(x)
        return self._c_sq.T @ (p.pi + 1.0) - p.soft_grad**2 + self.gamma

    def hessian_vec(self, x, h):
        p = self._at(x)
        h = _as_vector(h, self.n)
        return self._action(p, h, self.c @ h)

    @staticmethod
    def _image(ch):
        return ch

    def _quad(self, p, h, ch):
        """sum((pi + 1) (c h)^2) - <c^T pi, h>^2 + gamma |h|^2, with c^T pi cached at x.

        The first sum is taken as 2 <(pi + 1)/2 * (c h), c h>: halving is
        exact, so these are the bits of <(pi + 1) * (c h), c h>, but the
        elementwise product cannot overflow.  Sums go through ``np.vdot``
        and the rest through Python floats, so an overflow reads as inf or
        NaN without a warning.
        """
        v = float(np.vdot(p.soft_grad, h))
        half = float(np.vdot((0.5 * p.pi + 0.5) * ch, ch))
        return 2.0 * half - v * v + self.gamma * _sq_norm(h)

    def _action(self, p, h, ch):
        """Hessian action along h at the point of ``p``, with ``ch`` = c @ h."""
        return (
            self.c.T @ ((p.pi + 1.0) * ch)
            - float(np.dot(p.soft_grad, h)) * p.soft_grad
            + self.gamma * h
        )

    def full_hessian(self, x):
        self._check_cap()
        p = self._at(x)
        h = (self.c.T * (p.pi + 1.0)) @ self.c - np.outer(p.soft_grad, p.soft_grad)
        h[np.diag_indices(self.n)] += self.gamma
        return symmetric(h)


class _SigmoidPoint:
    """x and the margins t = y * (c @ x); sigmoid(-t) and the Hessian weights on first use."""

    def __init__(self, oracle, x, key, t=None):
        self.key = key
        self.x = x
        self.t = oracle._image(oracle.c @ x) if t is None else t

    @cached_property
    def sig_neg(self):
        return expit(-self.t)

    @cached_property
    def weights(self):
        return expit(self.t) * self.sig_neg


class LogisticProblem(_DataOracle):
    """f(x) = sum_j ln(1 + exp(-y_j <c_j, x>)) + 0.5*gamma*|x|^2, labels y in {-1, +1}."""

    def __init__(self, c, labels, gamma: float):
        self.c, self._c_sq, self.lipschitz_l = _checked_data(c, gamma, 0.25)
        self.labels = np.array(labels, dtype=float)
        if self.labels.shape != (self.c.shape[0],):
            raise DimensionMismatch("labels length must match the number of rows of c")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        self.gamma = float(gamma)
        self.m, self.n = self.c.shape
        self.strong_convexity_mu = self.gamma
        # self_concordance_m stays None: with no certified constant the correction is off.

    _point_type = _SigmoidPoint

    def value(self, x):
        p = self._at(x)
        return _finite_value(
            float(np.sum(np.logaddexp(0.0, -p.t))) + 0.5 * self.gamma * _sq_norm(p.x), p.x
        )

    def gradient(self, x):
        p = self._at(x)
        return self.c.T @ (-self.labels * p.sig_neg) + self.gamma * p.x

    def hessian_diag(self, x):
        return self._c_sq.T @ self._at(x).weights + self.gamma

    def hessian_vec(self, x, h):
        p = self._at(x)
        h = _as_vector(h, self.n)
        return self._action(p, h, self.c @ h)

    def _image(self, ch):
        return self.labels * ch

    def _quad(self, p, h, ch):
        """sum(w (c h)^2) + gamma |h|^2 with the Hessian weights w <= 1/4 at x."""
        return float(np.vdot(p.weights * ch, ch)) + self.gamma * _sq_norm(h)

    def _action(self, p, h, ch):
        """Hessian action along h at the point of ``p``, with ``ch`` = c @ h."""
        return self.c.T @ (p.weights * ch) + self.gamma * h

    def full_hessian(self, x):
        self._check_cap()
        h = (self.c.T * self._at(x).weights) @ self.c
        h[np.diag_indices(self.n)] += self.gamma
        return symmetric(h)
