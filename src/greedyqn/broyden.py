"""Broyden-family update formulas, greedy direction selection, and progress measures.

The family is parameterized by tau in [0, 1]: tau = 0 is the symmetric
rank-one update (SR1), tau = 1 is DFP, and tau = <Au, u>/<Gu, u> recovers
BFGS.  Every member is a symmetric rank-two modification of G lying in
span{Au, Gu}, or span{y, Gs} for a secant step.  :func:`family_coefficients`
is the one rule for its coefficients in both cases, so each update is a
single :meth:`~greedyqn.operator_core.SpdState.rank2_update` call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, solve_triangular

from .errors import (
    DimensionMismatch,
    NonFiniteResult,
    NonPositiveCurvature,
    NonPositiveHessianDiagonal,
)
from .operator_core import DenseSymmetric, SpdState, factorize

# Relative skip tolerance of every update screen: the family update's
# degeneracy test and the secant skip tests in ``solvers``.
DEGENERACY_RTOL = 1e-12


class UpdateKind(enum.Enum):
    SR1 = "sr1"
    DFP = "dfp"
    BFGS = "bfgs"
    FIXED_TAU = "fixed_tau"


@dataclass(frozen=True)
class UpdateRule:
    """Selector among SR1, DFP, BFGS, and a fixed mixing parameter."""

    kind: UpdateKind
    tau: float | None = None

    def __post_init__(self):
        if self.kind is UpdateKind.FIXED_TAU:
            if self.tau is None or not 0.0 <= self.tau <= 1.0:
                raise ValueError("fixed-tau rule needs tau in [0, 1]")
        elif self.tau is not None:
            raise ValueError(f"{self.kind.value} rule does not take tau")

    @classmethod
    def sr1(cls):
        return cls(UpdateKind.SR1)

    @classmethod
    def dfp(cls):
        return cls(UpdateKind.DFP)

    @classmethod
    def bfgs(cls):
        return cls(UpdateKind.BFGS)

    @classmethod
    def fixed(cls, tau: float):
        return cls(UpdateKind.FIXED_TAU, tau)


def family_coefficients(rule: UpdateRule, alpha, beta) -> tuple[float, float, float]:
    """The rule's (c11, c12, c22): G gains c11 p p^T + c12 (p q^T + q p^T) + c22 q q^T.

    (p, q) is (Au, Gu) for an exact target action along u and (y, Gs) for a
    secant step, with alpha = <p, u> and beta = <q, u>.  Fixed tau blends the
    DFP triple ((alpha + beta)/alpha^2, -1/alpha, 0) and the SR1 triple
    (-1, 1, -1)/(beta - alpha), each built only under a non-zero weight, so
    SR1 never divides by alpha nor DFP by beta - alpha.  BFGS (tau =
    alpha/beta) takes its closed form, where the blend's c12 is rounding noise.
    An alpha^2 that underflows to 0, or a coefficient that is not finite, is
    refused as :class:`NonFiniteResult`.
    """
    if rule.kind is UpdateKind.BFGS:
        coeffs = 1.0 / alpha, 0.0, -1.0 / beta
    else:
        tau = {UpdateKind.SR1: 0.0, UpdateKind.DFP: 1.0}.get(rule.kind, rule.tau)
        c11 = c12 = c22 = 0.0
        if tau != 0.0:
            if alpha * alpha == 0.0:
                raise NonFiniteResult(f"alpha^2 underflows to 0 (alpha = {alpha!r})")
            c11 = tau * (alpha + beta) / (alpha * alpha)
            c12 = -tau / alpha
        if tau != 1.0:
            w = (1.0 - tau) / (beta - alpha)
            c11, c12, c22 = c11 - w, c12 + w, -w
        coeffs = c11, c12, c22
    if not all(map(math.isfinite, coeffs)):
        raise NonFiniteResult(f"update coefficients {coeffs} are not finite")
    return coeffs


def broyden_update(state: SpdState, u, au, rule: UpdateRule, index=None) -> SpdState:
    """Apply the rule's member of the Broyden family to ``state`` in place.

    This is the one place that decides a family update along a direction u
    with an exact target action ``au``.  The curvatures <Au, u> and <Gu, u>
    must be positive (:class:`NonPositiveCurvature` otherwise).  When the
    direction carries no approximation error, <(G - A)u, u> <=
    DEGENERACY_RTOL * <Au, u>, the operator is left unchanged: the SR1
    denominator would vanish, every member degenerates to the identity
    update, and the BFGS parameter would leave [0, 1] if G dipped below A
    along u.  Otherwise G gains the :func:`family_coefficients` rank-two
    term on (Au, Gu).

    ``index`` = i says that u is the basis vector e_i, as on a greedy step:
    Gu is then read off G as its column i, and the update takes
    :meth:`~greedyqn.operator_core.SpdState.rank2_update`'s coordinate path,
    one Woodbury matvec, refusing an update that leaves G_ii not positive.
    Without it Gu = G @ u and the update is the dense one.
    """
    u = np.asarray(u, dtype=float)
    au = np.asarray(au, dtype=float)
    if u.shape != (state.n,) or au.shape != (state.n,):
        raise DimensionMismatch("direction/action length mismatch")
    gu = state.apply(u) if index is None else state.column(index)
    auu = float(np.dot(au, u))
    guu = float(np.dot(gu, u))
    if auu <= 0.0 or guu <= 0.0:
        raise NonPositiveCurvature(f"curvatures must be positive (auu={auu}, guu={guu})")
    if guu - auu <= DEGENERACY_RTOL * auu:
        return state
    return state.rank2_update(au, gu, *family_coefficients(rule, auu, guu), index=index)


def greedy_direction(diag_g, diag_a) -> int:
    """Index of the basis vector maximizing <G e_i, e_i> / <A e_i, e_i>.

    Ties break to the lowest index.  The choice is invariant under positive
    scaling of ``diag_g``, so it does not matter whether the diagonal is
    taken before or after a correction rescale.
    """
    diag_g = np.asarray(diag_g, dtype=float)
    diag_a = np.asarray(diag_a, dtype=float)
    if diag_g.shape != diag_a.shape:
        raise DimensionMismatch("diagonal length mismatch")
    if np.any(diag_a <= 0.0):
        bad = int(np.argmax(diag_a <= 0.0))
        raise NonPositiveHessianDiagonal(
            f"diagonal entry {bad} is {diag_a[bad]!r}, expected > 0"
        )
    return int(np.argmax(diag_g / diag_a))


def sigma(a_dense: DenseSymmetric, g_dense: DenseSymmetric) -> float:
    """Approximation-error measure trace(A^{-1} G) - n.

    Equals the sum of the eigenvalues of G - A relative to A; zero iff
    G = A, nonnegative whenever A <= G.  O(n^3); diagnostics only.
    """
    if a_dense.n != g_dense.n:
        raise DimensionMismatch("operator dimensions differ")
    chol = factorize(a_dense)
    return _sigma_from_factor(chol, g_dense.entries)


def _sigma_from_factor(chol, g_entries) -> float:
    # trace(A^{-1} G) = trace(L^{-1} G L^{-T}) via two triangular solves
    y = solve_triangular(chol.lower, g_entries, lower=True)
    z = solve_triangular(chol.lower, y.T, lower=True)
    return float(np.trace(z)) - chol.n


def relative_op_error(g_dense: DenseSymmetric, hess: DenseSymmetric) -> float:
    """Operator norm of G - H measured in the metric of H.

    With H = L L^T this is the largest |eigenvalue| of L^{-1}(G - H)L^{-T}.
    O(n^3); diagnostics only.
    """
    if g_dense.n != hess.n:
        raise DimensionMismatch("operator dimensions differ")
    chol = factorize(hess)
    return _op_error_from_factor(chol, g_dense.entries, hess.entries)


def _op_error_from_factor(chol, g_entries, h_entries) -> float:
    diff = g_entries - h_entries
    y = solve_triangular(chol.lower, diff, lower=True)
    e = solve_triangular(chol.lower, y.T, lower=True)
    e = (e + e.T) / 2.0
    if e.shape[0] == 0:
        return 0.0
    vals = eigh(e, eigvals_only=True)
    return float(np.max(np.abs(vals)))
