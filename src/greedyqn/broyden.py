"""Broyden-family update formulas, greedy direction selection, and progress measures.

The family is parameterized by tau in [0, 1]: tau = 0 is the symmetric
rank-one update (SR1), tau = 1 is DFP, and tau = <Au, u>/<Gu, u> recovers
BFGS.  Every member is a symmetric rank-two modification of G lying in
span{Au, Gu}, so it maps onto a single
:meth:`~greedyqn.operator_core.SpdState.rank2_update` call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, solve_triangular

from .errors import (
    DimensionMismatch,
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


@dataclass(frozen=True)
class UpdatePair:
    """Precomputed quantities for one update direction u.

    ``au`` is the action of the target operator on u, ``gu`` the action of
    the current approximation; ``auu``/``guu`` are the matching quadratic
    forms.  ``from_state`` computes ``gu`` as G @ u unless the caller
    passes it.
    """

    u: np.ndarray
    au: np.ndarray
    auu: float
    gu: np.ndarray
    guu: float

    @classmethod
    def from_state(cls, state: SpdState, u, au, gu=None) -> "UpdatePair":
        u = np.asarray(u, dtype=float)
        au = np.asarray(au, dtype=float)
        if u.shape != (state.n,) or au.shape != (state.n,):
            raise DimensionMismatch("direction/action length mismatch")
        if gu is None:
            gu = state.apply(u)
        return cls(
            u=u,
            au=au,
            auu=float(np.dot(au, u)),
            gu=gu,
            guu=float(np.dot(gu, u)),
        )


def tau_split(rule: UpdateRule, pair: UpdatePair) -> tuple[float, float]:
    """Mixing parameter for the rule as the pair (tau, 1 - tau).

    Both components are computed directly (for BFGS: auu/guu and
    (guu - auu)/guu) so that neither suffers cancellation when tau is close
    to 1.
    """
    if pair.auu <= 0.0 or pair.guu <= 0.0:
        raise NonPositiveCurvature(
            f"curvatures must be positive (auu={pair.auu}, guu={pair.guu})"
        )
    if rule.kind is UpdateKind.SR1:
        return 0.0, 1.0
    if rule.kind is UpdateKind.DFP:
        return 1.0, 0.0
    if rule.kind is UpdateKind.BFGS:
        return pair.auu / pair.guu, (pair.guu - pair.auu) / pair.guu
    return rule.tau, 1.0 - rule.tau


def broyden_update(state: SpdState, pair: UpdatePair, rule: UpdateRule) -> SpdState:
    """Apply the rule's member of the Broyden family to ``state`` in place.

    This is the one place that decides a family update.  The curvatures
    <Au, u> and <Gu, u> must be positive (:func:`tau_split` raises
    :class:`NonPositiveCurvature` otherwise).  When the direction carries no
    approximation error, <(G - A)u, u> <= DEGENERACY_RTOL * <Au, u>, the
    operator is left unchanged: the SR1 denominator would vanish, every
    member degenerates to the identity update, and the BFGS parameter would
    leave [0, 1] if G dipped below A along u.  Otherwise G gains
    c_aa Au Au^T + c_ag (Au Gu^T + Gu Au^T) + c_gg Gu Gu^T, the blend of the
    DFP and SR1 formulas with weight tau.
    """
    tau, one_minus_tau = tau_split(rule, pair)
    auu, guu = pair.auu, pair.guu
    delta = guu - auu
    if delta <= DEGENERACY_RTOL * auu:
        return state
    w = one_minus_tau / delta
    c_aa = tau * (auu + guu) / (auu * auu) - w
    c_ag = -tau / auu + w
    c_gg = -w
    return state.rank2_update(pair.au, pair.gu, c_aa, c_ag, c_gg)


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
