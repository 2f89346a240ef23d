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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .broyden import (
    DEGENERACY_RTOL,
    UpdateKind,
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
    NotPositiveDefinite,
    SingularCapacitance,
)
from .objectives import ObjectiveOracle, _basis
from .operator_core import SpdState, factorize


class DirectionKind(enum.Enum):
    GREEDY_COORDINATE = "greedy_coordinate"
    RANDOM_SPHERE = "random_sphere"


@dataclass(frozen=True)
class DirectionStrategy:
    """How update directions are chosen.

    ``seed`` feeds the "directions" stream and must be present exactly for
    the random-sphere strategy.
    """

    kind: DirectionKind
    seed: int | None = None

    def __post_init__(self):
        if (self.kind is DirectionKind.RANDOM_SPHERE) != (self.seed is not None):
            raise ValueError("seed must be present iff the strategy is random-sphere")

    @classmethod
    def greedy(cls):
        return cls(DirectionKind.GREEDY_COORDINATE)

    @classmethod
    def random_sphere(cls, seed: int):
        return cls(DirectionKind.RANDOM_SPHERE, seed)


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
    if not (trace.lambda_f or trace.sigma or trace.op_error):
        return None, None, None
    hess = oracle.full_hessian(x)
    chol = factorize(hess)
    lam = sig = operr = None
    if trace.lambda_f:
        lam = float(np.sqrt(max(np.dot(grad, chol.solve(grad)), 0.0)))
    if state is not None:
        g_entries = state.g.entries
        if trace.sigma:
            sig = _sigma_from_factor(chol, g_entries)
        if trace.op_error:
            operr = _op_error_from_factor(chol, g_entries, hess.entries)
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
            # np.linalg.norm's own expression for a 1-D float vector.  A NaN or
            # inf entry makes it non-finite, so only then are the entries checked:
            # a finite gradient whose norm overflowed passes.
            grad_norm = math.sqrt(grad.dot(grad))
            if not math.isfinite(grad_norm):
                _finite(grad, "gradient")
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


def _apply_family_update(state, u, au, rule, index=None):
    """The rule's family update of ``state`` along u, whose exact target action is ``au``."""
    return broyden_update(state, u, au, rule, index)


def solve_general(
    oracle: ObjectiveOracle, x0, config: SolverConfig
) -> tuple[np.ndarray, RunTrace]:
    """Broyden-family scheme with exact Hessian actions on a smooth oracle.

    Each iteration takes the unit quasi-Newton step, measures its length
    r_k in the local Hessian metric, optionally inflates G by
    (1 + m_const * r_k) so the Hessian at the new point stays dominated,
    selects the update direction (greedy coordinate or random sphere), and
    applies the tau-update against the exact Hessian action at the new
    point.  Along a greedy e_i that action is the oracle's Hessian column
    i, G e_i is read off G as its column i, and the update takes the
    coordinate path of :meth:`SpdState.rank2_update`.  A non-finite Hessian
    output ends the run as :class:`NonFiniteResult`, non-positive
    curvature along u as :class:`NonPositiveCurvature`.  The returned
    trace is the run's only report.
    """
    n = oracle.n
    state = SpdState.scaled_identity(n, oracle.lipschitz_l)
    greedy = config.strategy.kind is DirectionKind.GREEDY_COORDINATE
    rng = None if greedy else RngStream(config.strategy.seed, "directions")

    def step(x, grad, row):
        d = -state.solve(grad)
        x_next = x + d
        hv = _finite(oracle.hessian_vec(x, d), "Hessian action along the step")
        r_k = row["r_k"] = float(np.sqrt(max(np.dot(hv, d), 0.0)))
        if config.correction and config.m_const * r_k > 0.0:
            state.rescale(1.0 + config.m_const * r_k)
        if greedy:
            diag_a = _finite(oracle.hessian_diag(x_next), "Hessian diagonal")
            idx = row["direction_index"] = greedy_direction(state.diag, diag_a)
            u = _basis(n, idx)
            au = _finite(oracle.hessian_col(x_next, idx), "Hessian action along u")
        else:
            idx = None
            u = unit_sphere_direction(rng, n)
            au = _finite(oracle.hessian_vec(x_next, u), "Hessian action along u")
        _apply_family_update(state, u, au, config.rule, idx)
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

    SR1 skips when |<Gs - y, s>| = |beta - alpha| is negligible relative to
    |<y, s>| = |alpha|, the other rules when alpha is not positive, fixed tau
    on both.  Unlike :func:`broyden_update`'s screen this is two-sided: a secant
    pair does not keep G above the target.
    """
    sr1_part = rule.kind in (UpdateKind.SR1, UpdateKind.FIXED_TAU)
    if sr1_part and abs(beta - alpha) <= DEGENERACY_RTOL * abs(alpha):
        return None
    if alpha <= 0.0 and rule.kind is not UpdateKind.SR1:
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
    Only gradients are consumed.  SR1 skips its update when the denominator
    <Gs - y, s> is negligible relative to <y, s>; DFP and BFGS skip when
    the curvature <y, s> is not positive.
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
        # SR1 never divides by <Gs, s> and classically tolerates an
        # indefinite approximation; the other members require it.
        if beta <= 0.0 and rule.kind is not UpdateKind.SR1:
            raise NotPositiveDefinite(
                f"approximation lost definiteness along the step (<Gs,s>={beta})"
            )
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
    x = np.asarray(x, dtype=float)
    hess = problem.full_hessian(x)
    chol = factorize(hess)
    grad = problem.gradient(x)
    return float(np.sqrt(max(np.dot(grad, chol.solve(grad)), 0.0)))
