"""Quasi-Newton iteration schemes and convergence diagnostics.

Implements the greedy/randomized Broyden-family scheme with exact Hessian
actions (optionally with the multiplicative correction that keeps the new
Hessian dominated after each step), plus two baselines: gradient descent
with step 1/L and classical secant-based quasi-Newton methods.

All schemes start from the approximation G0 = L * I, take unit steps
x+ = x - G^{-1} grad, and return a per-iteration :class:`RunTrace`.  They
share one iteration driver (evaluation, finiteness check, diagnostics,
termination, records, failure mapping) and differ only in their step
rule.  Divergence or loss of definiteness is reported as an outcome, never
patched.

:func:`newton_minimum` is not one of these schemes: it is the reference
solve for the optimum f* that the experiment tables measure against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.linalg import cho_solve

from .broyden import (
    DEGENERACY_RTOL,
    UpdateRule,
    _op_error_from_factor,
    _sigma_from_factor,
    broyden_update,
    family_coefficients,
    greedy_direction,
)
from .data_io import RngStream, unit_sphere_direction
from .errors import (
    NonFiniteResult,
    NonPositiveCurvature,
    NonPositiveHessianDiagonal,
    NotConverged,
    NotPositiveDefinite,
    SingularCapacitance,
)
from .objectives import DENSE_CAP, ObjectiveOracle, _sq_norm
from .operator_core import SpdState, factorize


class DirectionKind(enum.Enum):
    GREEDY_COORDINATE = "greedy_coordinate"
    RANDOM_SPHERE = "random_sphere"


@dataclass(frozen=True)
class DirectionStrategy:
    """How update directions are chosen: greedy coordinates without a seed,
    uniform unit-sphere directions from the seed's "directions" stream with one."""

    seed: int | None = None

    @property
    def kind(self) -> DirectionKind:
        """The strategy's name, read off the seed."""
        if self.seed is None:
            return DirectionKind.GREEDY_COORDINATE
        return DirectionKind.RANDOM_SPHERE

    @classmethod
    def greedy(cls):
        return cls()

    @classmethod
    def random_sphere(cls, seed: int):
        if seed is None:
            raise ValueError("random-sphere strategy needs a seed")
        return cls(seed)


@dataclass(frozen=True)
class _Tolerance:
    """A termination test's positive tolerance ``epsilon``."""

    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class FunctionResidual(_Tolerance):
    """Stop once f(x_k) - f_star <= epsilon * (f(x_0) - f_star)."""

    f_star: float


@dataclass(frozen=True)
class GradientNorm(_Tolerance):
    """Stop once the Euclidean gradient norm drops to epsilon."""


@dataclass(frozen=True)
class TraceOptions:
    """Opt-in O(n^3) per-iteration diagnostics; ``op_error`` is also taken at the
    first iterate meeting the termination test with each tolerance in ``op_error_at``."""

    lambda_f: bool = False
    sigma: bool = False
    op_error: bool = False
    op_error_at: tuple = ()

    @property
    def dense(self) -> bool:
        """Whether any per-iteration quantity is on; each needs the dense Hessian."""
        return self.lambda_f or self.sigma or self.op_error


@dataclass(frozen=True)
class SolverConfig:
    """Method assembly for the Broyden-family schemes."""

    rule: UpdateRule
    strategy: DirectionStrategy
    termination: FunctionResidual | GradientNorm
    max_iter: int
    correction: bool = False
    m_const: float = 0.0
    trace: TraceOptions = field(default_factory=TraceOptions)

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.m_const < 0:
            raise ValueError("m_const must be nonnegative")


@dataclass(frozen=True)
class IterationRecord:
    """One row of a run trace; optional entries are None when not computed."""

    k: int
    f_value: float
    grad_norm: float
    r_k: float | None = None
    direction_index: int | None = None
    lambda_f: float | None = None
    sigma: float | None = None
    op_error: float | None = None


CONVERGED = "converged"
MAX_ITER_REACHED = "max_iter_reached"
NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class RunTrace:
    """Per-iteration records plus the run outcome.

    Records appear in iteration order.  ``f_value`` is not asserted to be
    non-increasing: unit steps can overshoot outside the local region, and
    that is recorded rather than hidden.
    """

    records: list[IterationRecord] = field(default_factory=list)
    outcome: str = MAX_ITER_REACHED
    converged_at: int | None = None
    failure_reason: str | None = None

    def f_values(self) -> np.ndarray:
        return np.array([r.f_value for r in self.records])


def _terminated(termination, f, f0, grad_norm) -> bool:
    if isinstance(termination, FunctionResidual):
        return f - termination.f_star <= termination.epsilon * (f0 - termination.f_star)
    return grad_norm <= termination.epsilon


def _diagnostics(oracle, x, grad, state, trace: TraceOptions):
    """(lambda_f, sigma, op_error) at the current iterate, or Nones.

    Shares one Cholesky factorization of the exact Hessian across the
    requested quantities.  Above the dense cap ``full_hessian`` refuses them
    with :class:`~greedyqn.errors.DimensionTooLarge`.
    """
    if not trace.dense:
        return None, None, None
    hess = oracle.full_hessian(x)
    low = factorize(hess)
    lam = sig = operr = None
    if trace.lambda_f:
        lam = float(np.sqrt(max(np.dot(grad, cho_solve((low, True), grad)), 0.0)))
    if state is not None:
        g = state.g
        if trace.sigma:
            sig = _sigma_from_factor(low, g)
        if trace.op_error:
            operr = _op_error_from_factor(low, g, hess)
    return lam, sig, operr


_STEP_ERRORS = (
    NotPositiveDefinite,
    SingularCapacitance,
    NonPositiveCurvature,
    NonPositiveHessianDiagonal,
    NonFiniteResult,
)


def _finite(values, what: str):
    """``values`` unchanged, or :class:`NonFiniteResult` if any entry is NaN or inf."""
    finite = math.isfinite(values) if isinstance(values, float) else np.isfinite(values).all()
    if not finite:
        raise NonFiniteResult(f"{what} is not finite")
    return values


def _run(oracle, x0, termination, max_iter, step, state=None, options=TraceOptions()):
    """The iteration loop every scheme shares.

    Each iteration evaluates f and grad f at x (reusing the gradient when
    the previous step already computed it), checks both are finite,
    computes the requested diagnostics of ``state``, and stops on the
    termination test or at the budget.  Otherwise
    ``step(x, grad, row)`` returns the next iterate and the gradient
    there, or None when it did not compute it.  ``row`` holds the keyword
    arguments of iteration k's record; the step may add ``r_k`` and
    ``direction_index`` to it, also when it fails.  Any of
    ``_STEP_ERRORS`` ends the run as a numerical failure at x.
    """
    x = np.array(x0, dtype=float)
    trace = RunTrace()
    grad = None
    marks = [replace(termination, epsilon=e) for e in options.op_error_at]
    try:
        for k in range(max_iter + 1):
            f = _finite(oracle.value(x), "objective")
            if grad is None:
                grad = oracle.gradient(x)
            # np.linalg.norm's own expression for a 1-D float vector, by the same
            # BLAS ddot without its overflow warning.  A NaN or inf entry makes it
            # non-finite, so only then are the entries checked; a finite gradient
            # whose sum of squares overflowed passes, and its norm is recomputed
            # scaled by its largest entry.
            grad_norm = math.sqrt(_sq_norm(grad))
            if not math.isfinite(grad_norm):
                big = float(np.max(np.abs(_finite(grad, "gradient"))))
                grad_norm = big * math.sqrt(_sq_norm(grad / big))
            if k == 0:
                f0 = f
            converged = _terminated(termination, f, f0, grad_norm)
            row_options = options
            if marks:
                unmet = [t for t in marks if not _terminated(t, f, f0, grad_norm)]
                if len(unmet) < len(marks):
                    row_options = replace(options, op_error=True)
                marks = unmet
            lam, sig, operr = _diagnostics(oracle, x, grad, state, row_options)
            row = dict(
                k=k, f_value=f, grad_norm=grad_norm, lambda_f=lam, sigma=sig, op_error=operr
            )
            try:
                if not converged and k < max_iter:
                    x, grad = step(x, grad, row)
            finally:
                trace.records.append(IterationRecord(**row))
            if converged:
                trace.outcome = CONVERGED
                trace.converged_at = k
                break
    except _STEP_ERRORS as exc:
        trace.outcome = NUMERICAL_FAILURE
        trace.failure_reason = type(exc).__name__
    return x, trace


def _apply_family_update(state, u, au, rule):
    """The rule's family update of ``state`` along u, whose exact target action is ``au``."""
    return broyden_update(state, u, au, rule)


def solve_general(
    oracle: ObjectiveOracle, x0, config: SolverConfig
) -> tuple[np.ndarray, RunTrace]:
    """Broyden-family scheme with exact Hessian actions on a smooth oracle.

    Each iteration takes the unit quasi-Newton step d by the oracle's
    :meth:`~greedyqn.objectives.ObjectiveOracle.advance` (x + d and <H d, d>,
    with the data oracles' ``c @ x`` carried to x + d), takes the step's
    length r_k in the local Hessian metric as the form's square root,
    optionally inflates G by (1 + m_const * r_k) so the Hessian at the new
    point stays dominated, selects the update direction (greedy coordinate
    or random sphere), and applies the tau-update against the exact
    Hessian action at the new point.  A greedy direction e_i is passed as
    its index i: its action is the oracle's Hessian column i, and the
    update takes the coordinate path of :meth:`SpdState.rank2_update`.  A
    non-finite Hessian output or quadratic form ends the run as
    :class:`NonFiniteResult` (the quadratic form before the rescale),
    non-positive curvature along u as :class:`NonPositiveCurvature`.  The
    returned trace is the run's only report.
    """
    n = oracle.n
    state = SpdState.scaled_identity(n, oracle.lipschitz_l)
    greedy = config.strategy.seed is None
    rng = None if greedy else RngStream(config.strategy.seed, "directions")

    def step(x, grad, row):
        x_next, quad = oracle.advance(x, -state.solve(grad))
        quad = _finite(quad, "Hessian quadratic form along the step")
        r_k = row["r_k"] = math.sqrt(max(quad, 0.0))
        if config.correction and config.m_const * r_k > 0.0:
            state.rescale(1.0 + config.m_const * r_k)
        if greedy:
            diag_a = _finite(oracle.hessian_diag(x_next), "Hessian diagonal")
            u = row["direction_index"] = greedy_direction(state.diag, diag_a)
            au = oracle.hessian_col(x_next, u)
        else:
            u = unit_sphere_direction(rng, n)
            au = oracle.hessian_vec(x_next, u)
        _apply_family_update(state, u, au, config.rule)
        return x_next, None

    return _run(oracle, x0, config.termination, config.max_iter, step, state, config.trace)


def gradient_method(
    oracle: ObjectiveOracle,
    x0,
    termination,
    max_iter: int,
    trace_options: TraceOptions | None = None,
) -> tuple[np.ndarray, RunTrace]:
    """Gradient descent with the constant step size 1/L, L = ``oracle.lipschitz_l``.

    Of ``trace_options`` only ``lambda_f`` applies: there is no approximation G.
    """
    big_l = oracle.lipschitz_l
    options = TraceOptions(lambda_f=trace_options is not None and trace_options.lambda_f)

    def step(x, grad, row):
        return x - grad / big_l, None

    return _run(oracle, x0, termination, max_iter, step, None, options)


def _secant_coefficients(rule: UpdateRule, alpha, beta):
    """The rule's :func:`family_coefficients` on (y, Gs), or None to skip the update.

    The secant policy reads tau, with alpha = <y, s> and beta = <Gs, s>.  A
    rule that divides by alpha (tau != 0) refuses beta <= 0 as
    :class:`NotPositiveDefinite` and skips alpha <= 0; SR1 tolerates both.
    A rule with an SR1 part (tau not None or 1) skips a negligible |beta -
    alpha|: a two-sided test, as a secant pair does not keep G above A.
    """
    tau = rule.tau
    if tau != 0.0 and beta <= 0.0:
        raise NotPositiveDefinite(
            f"approximation lost definiteness along the step (<Gs,s>={beta})"
        )
    if tau not in (None, 1.0) and abs(beta - alpha) <= DEGENERACY_RTOL * abs(alpha):
        return None
    if tau != 0.0 and alpha <= 0.0:
        return None
    return family_coefficients(rule, alpha, beta)


def classical_qn(
    oracle: ObjectiveOracle,
    x0,
    rule: UpdateRule,
    termination,
    max_iter: int,
    trace_options: TraceOptions | None = None,
) -> tuple[np.ndarray, RunTrace]:
    """Classical quasi-Newton baseline with the secant substitution, from G0 = L * I.

    The update direction is the step s = x+ - x, and the target action
    along it is replaced by the gradient difference y = grad(x+) - grad(x).
    Only gradients are consumed.  Whether the pair updates G, is skipped,
    or ends the run is decided by :func:`_secant_coefficients`.
    """
    state = SpdState.scaled_identity(oracle.n, oracle.lipschitz_l)

    def step(x, grad, row):
        s = -state.solve(grad)
        x_next = x + s
        grad_next = _finite(oracle.gradient(x_next), "gradient")
        y = grad_next - grad
        alpha = float(np.dot(y, s))
        gs = state.apply(s)
        beta = float(np.dot(gs, s))
        coeffs = _secant_coefficients(rule, alpha, beta)
        if coeffs is not None:
            state.rank2_update(y, gs, *coeffs)
        return x_next, grad_next

    return _run(oracle, x0, termination, max_iter, step, state, trace_options or TraceOptions())


def lambda_f(problem: ObjectiveOracle, x) -> float:
    """Gradient norm in the inverse metric of the exact Hessian at x.

    For a quadratic this is the A^{-1}-norm of the gradient and satisfies
    f(x) - f_min = lambda_f(x)^2 / 2.  O(n^3); diagnostics only, and
    refused above the dense cap by ``full_hessian``.
    """
    return _diagnostics(problem, x, problem.gradient(x), None, TraceOptions(lambda_f=True))[0]


# Newton's method: the dense Hessian's diagonal shift relative to its largest
# entry, the relative tolerance of CG above the dense cap, and the stopping
# rule: gradient norm, rounding of f (in eps * |f|) and step budget.
NEWTON_SHIFT = 1e-12
NEWTON_CG_RTOL = 1e-10
NEWTON_GTOL = 1e-13
NEWTON_ROUNDING = 4.0
NEWTON_STEPS = 100
_EPS = float(np.finfo(float).eps)


def _newton_direction(oracle, x, grad) -> np.ndarray:
    """The Newton direction -H(x)^{-1} grad, dense up to the cap and by CG above it.

    The dense Hessian's diagonal is shifted by ``NEWTON_SHIFT`` times its
    largest entry before :func:`factorize`: the Hessian of data with an
    all-zero column has only gamma on that column's diagonal, which the
    pivot test refuses at a tiny gamma.
    """
    n = oracle.n
    if n <= DENSE_CAP:
        hess = np.array(oracle.full_hessian(x))
        hess[np.diag_indices(n)] += NEWTON_SHIFT * hess.diagonal().max()
        return -cho_solve((factorize(hess), True), grad)
    # Imported here: scipy.sparse.linalg adds about 3 MiB to every process that loads it.
    from scipy.sparse.linalg import LinearOperator, cg

    hess = LinearOperator((n, n), matvec=partial(oracle.hessian_vec, x), dtype=float)
    return -cg(hess, grad, rtol=NEWTON_CG_RTOL, atol=0.0)[0]


def newton_minimum(oracle: ObjectiveOracle, x0) -> float:
    """The least value of f that Newton's method reaches from x0.

    Each step takes the full Newton step d (:func:`_newton_direction`),
    halved only while f increases, so f never increases and its last value
    is the least.  The solve stops once |grad f| <= ``NEWTON_GTOL``, or
    after the step whose Newton decrement lambda^2 = -<grad f, d> is within
    f's rounding, ``NEWTON_ROUNDING`` * eps * |f|.  It also stops before
    forming a Hessian when the bound lambda^2 <= |grad f|^2 / mu, with the
    oracle's strong-convexity constant mu, is at most eps * |f| /
    ``NEWTON_ROUNDING``: the step would then lower f by at most a quarter
    of a unit in its last place.  Raises
    :class:`~greedyqn.errors.NotConverged` when it does not stop within
    ``NEWTON_STEPS`` steps, or when halving the step to below eps still
    increases f.  The constants are read at each call.
    """
    x = np.array(x0, dtype=float)
    f = _finite(oracle.value(x), "objective")
    mu = oracle.strong_convexity_mu or 0.0
    for k in range(NEWTON_STEPS + 1):
        grad = oracle.gradient(x)
        grad_norm = math.sqrt(_sq_norm(grad))
        rounding = _EPS * abs(f)
        if grad_norm <= NEWTON_GTOL or NEWTON_ROUNDING * grad_norm * grad_norm <= rounding * mu:
            return f
        if k == NEWTON_STEPS:
            break
        d = _newton_direction(oracle, x, grad)
        decrement = -float(np.dot(grad, d))
        t = 1.0
        while not (f_next := oracle.value(x + t * d)) <= f:
            t /= 2.0
            if t < _EPS:
                raise NotConverged(f"no Newton step lowers f = {f!r} at step {k}")
        x, f = x + t * d, f_next
        if decrement <= NEWTON_ROUNDING * _EPS * abs(f):
            return f
    raise NotConverged(
        f"Newton's method did not converge in {NEWTON_STEPS} steps: "
        f"|grad f| = {grad_norm:.3g}, f = {f!r}"
    )
