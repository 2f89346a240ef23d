"""Broyden-family update formulas, greedy direction selection, and progress measures.

The family is parameterized by tau in [0, 1]: tau = 0 is the symmetric
rank-one update (SR1), tau = 1 is DFP, and tau = <Au, u>/<Gu, u> recovers
BFGS.  Every policy reads tau (:func:`_tau`): a rule has an SR1 part iff
tau is not BFGS's or 1, and a part dividing by <Au, u> iff tau is not 0.
Each member is a symmetric rank-two modification of G in span{Au, Gu}, or
span{y, Gs} for a secant step.  :func:`family_coefficients` gives its
coefficients on either pair; :func:`broyden_update` re-expresses a
random-direction update with an SR1 part on (Au, Gu - Au), and each
update is one :meth:`~greedyqn.operator_core.SpdState.rank2_update` call.
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
from .operator_core import SpdState, _as_vector, _coordinate, factorize, symmetric

# Relative skip tolerance of every update screen: the family update's
# degeneracy test and the secant skip tests in ``solvers``.
DEGENERACY_RTOL = 1e-12

_FLOAT_MAX = float(np.finfo(float).max)


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


def _tau(rule: UpdateRule) -> float | None:
    """The rule's DFP weight tau: 0 for SR1, 1 for DFP, None for BFGS (it varies)."""
    return {UpdateKind.SR1: 0.0, UpdateKind.DFP: 1.0}.get(rule.kind, rule.tau)


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
    tau = _tau(rule)
    if tau is None:
        coeffs = 1.0 / alpha, 0.0, -1.0 / beta
    else:
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


def broyden_update(state: SpdState, u, au, rule: UpdateRule) -> SpdState:
    """Apply the rule's member of the Broyden family to ``state`` in place.

    This is the one place that decides a family update along a direction u
    with an exact target action ``au``, refused as :class:`NonFiniteResult`
    unless finite.  The curvatures <Au, u> and <Gu, u> must be positive
    (:class:`NonPositiveCurvature` otherwise).  When the direction carries
    no approximation error, <(G - A)u, u> <= DEGENERACY_RTOL * <Au, u>, the
    operator is left unchanged: the SR1 denominator would vanish, every
    member degenerates to the identity update, and the BFGS parameter would
    leave [0, 1] if G dipped below A along u.  Otherwise G gains the
    :func:`family_coefficients` rank-two term on (Au, Gu).

    u is a vector, or an int i that stands for e_i on a greedy step
    (:class:`DimensionMismatch` unless 0 <= i < n): the curvatures are then
    ``au[i]`` and G_ii, and the update takes
    :meth:`~greedyqn.operator_core.SpdState.rank2_update`'s coordinate path,
    one Woodbury matvec, refusing an update that leaves G_ii not positive.
    Along a vector Gu = G @ u, and the dense update is taken on (Au, d),
    d = Gu - Au, whenever the rule has an SR1 part -w d d^T with
    w = (1 - tau)/(<Gu, u> - <Au, u>): that part is then one term, where on
    (Au, Gu) it is a cancelling sum whose rounding, about eps * w |Au|^2,
    swamps G as <Gu, u> nears <Au, u>.
    """
    i = _coordinate(u, state.n)
    au = _as_vector(au, state.n)
    if not np.isfinite(au).all():
        raise NonFiniteResult("Hessian action along u is not finite")
    if i is None:
        gu = state.apply(u)  # refuses a u of the wrong shape
        auu, guu = float(np.dot(au, u)), float(np.dot(gu, u))
    else:  # gu = i stands for G e_i, which rank2_update reads off G's row i
        gu, auu, guu = i, float(au[i]), float(state.diag[i])
    if auu <= 0.0 or guu <= 0.0:
        raise NonPositiveCurvature(f"curvatures must be positive (auu={auu}, guu={guu})")
    if guu - auu <= DEGENERACY_RTOL * auu:
        return state
    c11, c12, c22 = family_coefficients(rule, auu, guu)
    tau = _tau(rule)
    if i is None and tau not in (None, 1.0):
        # The same update on (Au, d): c11 + 2 c12 + c22 on Au Au^T, c12 + c22
        # on Au d^T + d Au^T and c22 = -w on d d^T, built without w.
        c11, c12 = (tau * (guu - auu) / (auu * auu), -tau / auu) if tau else (0.0, 0.0)
        return state.rank2_update(au, gu - au, c11, c12, c22)
    return state.rank2_update(au, gu, c11, c12, c22)


def greedy_direction(diag_g, diag_a) -> int:
    """Index of the basis vector maximizing <G e_i, e_i> / <A e_i, e_i>.

    Ties break to the lowest index.  The choice is invariant under positive
    scaling of ``diag_g``, so it does not matter whether the diagonal is
    taken before or after a correction rescale.  A non-positive entry of
    ``diag_a`` is refused as :class:`NonPositiveHessianDiagonal`.  A ratio
    within a factor 2 of overflow, as a subnormal A_ii gives with any
    G_ii of ordinary size, is refused before the division as
    :class:`NonFiniteResult`, naming the entry.  The test is A_ii <=
    2 (G_ii / FLOAT_MAX): the ratio overflows only where A_ii < G_ii /
    FLOAT_MAX, and doubling the quotient covers its rounding, even when it
    is subnormal.  It is made entrywise only when min A_ii fails it against
    max G_ii; otherwise every entry passes.
    """
    diag_g = np.asarray(diag_g, dtype=float)
    diag_a = np.asarray(diag_a, dtype=float)
    if diag_g.shape != diag_a.shape:
        raise DimensionMismatch("diagonal length mismatch")
    if np.any(diag_a <= 0.0):
        bad = int(np.argmax(diag_a <= 0.0))
        raise NonPositiveHessianDiagonal(
            f"diagonal entry {bad} is {float(diag_a[bad])!r}, expected > 0"
        )
    # Two reductions clear every entry at once unless max G_ii / min A_ii
    # nears overflow; the entrywise test costs three more array passes.
    if not float(diag_a.min()) > 2.0 * (float(diag_g.max()) / _FLOAT_MAX):
        over = diag_a <= 2.0 * (diag_g / _FLOAT_MAX)
        if np.any(over):
            bad = int(np.argmax(over))
            raise NonFiniteResult(
                f"ratio of diagonal entries {bad}, {float(diag_g[bad])!r} / "
                f"{float(diag_a[bad])!r}, is within a factor 2 of overflow"
            )
    return int(np.argmax(diag_g / diag_a))


def sigma(a, g) -> float:
    """Approximation-error measure trace(A^{-1} G) - n of square arrays A and G.

    Equals the sum of the eigenvalues of G - A relative to A; zero iff
    G = A, nonnegative whenever A <= G.  Both arrays are read through
    :func:`~greedyqn.operator_core.symmetric`.  O(n^3); diagnostics only.
    """
    a, g = symmetric(a), symmetric(g)
    if a.shape != g.shape:
        raise DimensionMismatch("operator dimensions differ")
    return _sigma_from_factor(factorize(a), g)


def _sigma_from_factor(low, g) -> float:
    # trace(A^{-1} G) = trace(L^{-1} G L^{-T}) via two triangular solves
    y = solve_triangular(low, g, lower=True)
    z = solve_triangular(low, y.T, lower=True)
    return float(np.trace(z)) - low.shape[0]


def relative_op_error(g, hess) -> float:
    """Operator norm of G - H measured in the metric of H, for square arrays G and H.

    With H = L L^T this is the largest |eigenvalue| of L^{-1}(G - H)L^{-T}.
    Both arrays are read through :func:`~greedyqn.operator_core.symmetric`.
    O(n^3); diagnostics only.
    """
    g, hess = symmetric(g), symmetric(hess)
    if g.shape != hess.shape:
        raise DimensionMismatch("operator dimensions differ")
    return _op_error_from_factor(factorize(hess), g, hess)


def _op_error_from_factor(low, g, hess) -> float:
    diff = g - hess
    y = solve_triangular(low, diff, lower=True)
    e = solve_triangular(low, y.T, lower=True)
    e = (e + e.T) / 2.0
    if e.shape[0] == 0:
        return 0.0
    vals = eigh(e, eigvals_only=True)
    return float(np.max(np.abs(vals)))
