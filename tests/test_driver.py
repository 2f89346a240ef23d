"""The shared iteration driver: golden traces, fault injection, generated runs.

``tests/golden/driver_traces.txt`` holds the trace CSV of every method
family on a small seeded log-sum-exp plan with all diagnostics on, plus
one run whose oracle reports a negative Hessian diagonal mid-step.  It was
recorded before the three solver loops were folded into one driver, so
byte equality pins down that the driver changes no iterate, record or
outcome.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd
from greedyqn.bench import ExperimentPlan, _trace_csv, main, run_plan
from greedyqn.broyden import UpdateRule
from greedyqn.data_io import SyntheticSpec, generate_logsumexp, generate_start
from greedyqn.objectives import QuadraticProblem
from greedyqn.operator_core import AUDIT_EVERY, SpdState
from greedyqn.solvers import (
    CONVERGED,
    MAX_ITER_REACHED,
    NUMERICAL_FAILURE,
    DirectionStrategy,
    FunctionResidual,
    GradientNorm,
    SolverConfig,
    TraceOptions,
    classical_qn,
    gradient_method,
    solve_general,
)

GOLDEN = Path(__file__).parent / "golden" / "driver_traces.txt"
GOLDEN_METHODS = ["GM", "SR1", "DFP", "BFGS", "GrSR1", "GrDFP", "GrBFGS", "RaSR1"]


class FaultyOracle:
    """Proxy that passes the ``call``-th call (1-based) of ``method`` through ``fault``.

    Every other attribute and call goes straight to the wrapped oracle.
    """

    def __init__(self, inner, method, call, fault):
        self.inner = inner
        self.method = method
        self.call = call
        self.fault = fault
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name != self.method:
            return attr

        def faulty(*args):
            self.calls += 1
            out = attr(*args)
            return self.fault(out) if self.calls == self.call else out

        return faulty


_LSE8 = SyntheticSpec(n=8, m=8, gamma=1.0, seed=2)


def _lse_run(entry, oracle, max_iter=8000, **config):
    """GM, classical SR1 or GrSR1 with correction on log-sum-exp n = 8, seed 2.

    ``config`` goes to the GrSR1 run's :class:`SolverConfig`.
    """
    x0 = generate_start(8, 2)
    termination = FunctionResidual(1e-9, generate_logsumexp(_LSE8).value(np.zeros(8)))
    if entry == "gm":
        return gradient_method(oracle, x0, termination, max_iter)
    if entry == "classical":
        return classical_qn(oracle, x0, UpdateRule.sr1(), termination, max_iter)
    cfg = SolverConfig(
        rule=UpdateRule.sr1(),
        strategy=DirectionStrategy.greedy(),
        termination=termination,
        max_iter=max_iter,
        correction=True,
        m_const=2.0,
        **config,
    )
    return solve_general(oracle, x0, cfg)


def _iterate(entry, k):
    """x_k of the fault-free ``_lse_run``."""
    if k == 0:
        return generate_start(8, 2)
    return _lse_run(entry, generate_logsumexp(_LSE8), max_iter=k)[0]


def _grsr1_run(method, call, fault, **config):
    """GrSR1 with correction on log-sum-exp n = 8, seed 2, one oracle call faulted."""
    oracle = FaultyOracle(generate_logsumexp(_LSE8), method, call, fault)
    return _lse_run("greedy", oracle, **config)


def golden_text(tmp_path: Path) -> str:
    """Trace CSVs of the golden plan and of one run failing mid-step."""
    plan = ExperimentPlan(
        problem=SyntheticSpec(n=6, m=5, gamma=1.0, seed=7),
        methods=GOLDEN_METHODS,
        epsilons=[1e-1, 1e-4, 1e-8],
        seed=7,
        output=str(tmp_path),
        trace_options=TraceOptions(lambda_f=True, sigma=True, op_error=True),
    )
    run_plan(plan)
    parts = [f"# {m}\n" + (tmp_path / f"trace_{m}.csv").read_text() for m in GOLDEN_METHODS]
    _, trace = _grsr1_run(
        "hessian_diag", 3, lambda d: -d, trace=TraceOptions(lambda_f=True, sigma=True)
    )
    parts.append(
        f"# GrSR1 negative Hessian diagonal: {trace.outcome} {trace.failure_reason}\n"
        + _trace_csv(trace)
    )
    return "".join(parts)


def test_golden_driver_traces(tmp_path):
    assert golden_text(tmp_path).encode() == GOLDEN.read_bytes()


def test_diagnostics_leave_a_queued_run_as_it_is(tmp_path):
    # At n = 200 the greedy updates are queued (n^2 > BLOCK_ENTRIES), and the
    # run crosses the flush of its 50th update.  The traced diagnostics read
    # G through state.g, which applies nothing, so every step keeps its bits.
    argv = ["--problem", "logsumexp", "--n", "200", "--m", "200", "--methods", "GrBFGS",
            "--epsilons", "0.3", "--budget-factor", "1"]
    rows = {}
    for name, extra in (("plain", []), ("traced", ["--trace", "sigma,op_error"])):
        assert main(argv + extra + ["--out", str(tmp_path / name)]) == 0
        lines = (tmp_path / name / "trace_GrBFGS.csv").read_text().splitlines()
        rows[name] = [line.split(",")[:5] for line in lines]
    assert rows["plain"][0] == ["k", "f", "grad_norm", "r_k", "dir_index"]
    assert len(rows["plain"]) > AUDIT_EVERY + 2
    assert rows["traced"] == rows["plain"]


def _spoil(method, bad):
    """A fault scaling ``method``'s output by ``bad``: for ``advance``, its quadratic form."""
    if method == "advance":
        return lambda out: (out[0], out[1] * bad)
    return lambda out: out * bad


class TestNonFiniteHessian:
    """A non-finite Hessian output ends the run at the step that read it."""

    @pytest.mark.parametrize(
        "method,call,r_k_set,dir_index",
        [
            ("advance", 3, False, None),  # quadratic form along the step at k = 2
            ("hessian_diag", 3, True, None),  # diagonal at x_3
            ("hessian_col", 3, True, 7),  # action along the chosen e_7
        ],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_named_failure(self, method, call, r_k_set, dir_index, bad):
        _, trace = _grsr1_run(method, call, _spoil(method, bad))
        assert trace.outcome == NUMERICAL_FAILURE
        assert trace.failure_reason == "NonFiniteResult"
        last = trace.records[-1]
        assert last.k == 2
        assert (last.r_k is not None) == r_k_set
        assert last.direction_index == dir_index

    # the step's quadratic form, and the action along the random u, at k = 1
    @pytest.mark.parametrize("method", ["advance", "hessian_vec"])
    def test_random_directions(self, method):
        inner = generate_logsumexp(_LSE8)
        oracle = FaultyOracle(inner, method, 2, _spoil(method, np.nan))
        f_star = inner.value(np.zeros(8))
        cfg = SolverConfig(
            rule=UpdateRule.bfgs(),
            strategy=DirectionStrategy.random_sphere(5),
            termination=FunctionResidual(1e-9, f_star),
            max_iter=8000,
        )
        _, trace = solve_general(oracle, generate_start(8, 2), cfg)
        assert trace.outcome == NUMERICAL_FAILURE
        assert trace.failure_reason == "NonFiniteResult"
        assert trace.records[-1].k == 1


def test_singular_capacitance_ends_the_run_as_a_named_outcome():
    # The third gradient repeats the second, so y = 0 and the SR1 secant
    # update would make G singular.
    second = generate_logsumexp(_LSE8).gradient(_iterate("classical", 1))
    oracle = FaultyOracle(generate_logsumexp(_LSE8), "gradient", 3, lambda _: second.copy())
    _, trace = _lse_run("classical", oracle)
    assert (trace.outcome, trace.failure_reason) == (NUMERICAL_FAILURE, "SingularCapacitance")
    assert [r.k for r in trace.records] == [0, 1, 2]


@pytest.mark.parametrize("call", [1, 2, 3, 5, 8, 13])
def test_overflowing_step_fails_at_the_r_k_check(call, monkeypatch):
    """A gradient scaled by 1e300 overflows the quadratic form along the step.

    The run ends at the r_k check, with r_k unset, before any rescale
    makes G and G^-1 inf/NaN and before a direction is chosen from them.
    """
    applied = []
    rescale = SpdState.rescale

    def spy(state, c):
        out = rescale(state, c)
        applied.append(c)
        return out

    monkeypatch.setattr(SpdState, "rescale", spy)
    _, trace = _grsr1_run("gradient", call, lambda g: g * 1e300)
    assert np.isfinite(applied).all()
    assert trace.outcome == NUMERICAL_FAILURE
    assert trace.failure_reason == "NonFiniteResult"
    assert len(trace.records) == call
    assert trace.records[-1].r_k is None
    assert trace.records[-1].direction_index is None


class TestGradientFiniteness:
    """The driver reads the gradient's finiteness off its norm; the outcomes are pinned here."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["gm", "classical", "greedy"])
    @pytest.mark.parametrize("call", [1, 2, 5])
    def test_non_finite_entry_ends_the_run(self, entry, call, bad):
        def fault(g):
            g = g.copy()
            g[3] = bad
            return g

        inner = generate_logsumexp(_LSE8)
        x, trace = _lse_run(entry, FaultyOracle(inner, "gradient", call, fault))
        assert trace.outcome == NUMERICAL_FAILURE
        assert trace.failure_reason == "NonFiniteResult"
        # GM and the greedy scheme read each gradient in the driver, at k = call - 1,
        # before its record; classical SR1 reads all but the first in the step of
        # k = call - 2, whose record is kept.
        in_step = entry == "classical" and call > 1
        stop = call - 2 if in_step else call - 1
        _, clean = _lse_run(entry, generate_logsumexp(_LSE8))
        assert trace.records == clean.records[: stop + 1 if in_step else stop]
        assert x.tobytes() == _iterate(entry, stop).tobytes()

    @pytest.mark.parametrize("call", [1, 2, 5])
    def test_overflowing_norm_of_a_finite_gradient_is_no_failure(self, call):
        """Finite entries of 1e200 overflow the plain norm; the run goes on with them.

        The recorded norm is recomputed scaled by the largest entry, with
        no warning.  Gradient descent steps by -grad / L, and the objective
        at that far point overflows one iteration later, as a named refusal.
        """
        inner = generate_logsumexp(_LSE8)
        big = np.full(8, 1e200)
        x, trace = _lse_run("gm", FaultyOracle(inner, "gradient", call, lambda g: big))
        _, clean = _lse_run("gm", generate_logsumexp(_LSE8))
        assert trace.records[: call - 1] == clean.records[: call - 1]
        last = trace.records[call - 1]
        assert (last.k, last.grad_norm) == (call - 1, 1e200 * math.sqrt(8.0))
        assert last.f_value == clean.records[call - 1].f_value
        assert len(trace.records) == call
        assert trace.outcome == NUMERICAL_FAILURE
        assert trace.failure_reason == "NonFiniteResult"  # the objective at x_call
        assert x.tobytes() == (_iterate("gm", call - 1) - big / inner.lipschitz_l).tobytes()

    @pytest.mark.parametrize("entry", ["gm", "greedy"])
    def test_overflowing_norm_warns_nothing(self, entry):
        """A gradient like [1e300, 2e300, 3, ...] gives its scaled norm, with no warning.

        The faulted gradient is the driver's read at k = 1, the last
        iteration of the budget, so nothing steps to the far point it leads to.
        """
        grad = np.array([1e300, 2e300, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        inner = generate_logsumexp(_LSE8)
        oracle = FaultyOracle(inner, "gradient", 2, lambda g: grad.copy())
        _, trace = _lse_run(entry, oracle, max_iter=1)
        assert (trace.outcome, len(trace.records)) == (MAX_ITER_REACHED, 2)
        expected = 2e300 * math.sqrt((grad / 2e300).dot(grad / 2e300))
        assert trace.records[1].grad_norm == expected
        assert expected == pytest.approx(math.sqrt(5.0) * 1e300, rel=1e-15)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    steps=st.integers(1, 30),
)
def test_recorded_gradient_norm_is_numpys_norm(seed, n, scale, steps):
    """Each record's grad_norm has the bits of np.linalg.norm of the gradient at x_k."""
    oracle = generate_logsumexp(SyntheticSpec(n=n, m=n + 3, gamma=0.5, seed=seed % 997))
    x0 = scale * np.random.default_rng(seed).standard_normal(n)
    _, trace = gradient_method(oracle, x0, GradientNorm(1e-300), steps)
    x = x0
    for record in trace.records:
        grad = oracle.gradient(x)
        assert np.float64(record.grad_norm).tobytes() == np.linalg.norm(grad).tobytes()
        x = x - grad / oracle.lipschitz_l


_RULES = [UpdateRule.sr1(), UpdateRule.dfp(), UpdateRule.bfgs(), UpdateRule.fixed(0.5)]


@st.composite
def quadratic_runs(draw):
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cond = draw(st.floats(1.0, 1e4))
    prob = QuadraticProblem(random_spd(rng, n, cond), rng.standard_normal(n))
    x0 = rng.standard_normal(n)
    eps = draw(st.floats(1e-14, 1e-1))
    if draw(st.booleans()):
        termination = GradientNorm(eps)
    else:
        termination = FunctionResidual(eps, prob.value(prob.minimizer()))
    entry = draw(st.sampled_from(["gm", "classical", "greedy", "random"]))
    rule = draw(st.sampled_from(_RULES))
    options = TraceOptions(*draw(st.tuples(st.booleans(), st.booleans(), st.booleans())))
    max_iter = draw(st.integers(1, 40))
    return prob, x0, termination, entry, rule, options, max_iter


def _run(prob, x0, termination, entry, rule, options, max_iter):
    if entry == "gm":
        return gradient_method(prob, x0, termination, max_iter, trace_options=options)
    if entry == "classical":
        return classical_qn(prob, x0, rule, termination, max_iter, trace_options=options)
    strategy = (
        DirectionStrategy.greedy() if entry == "greedy" else DirectionStrategy.random_sphere(3)
    )
    cfg = SolverConfig(
        rule=rule, strategy=strategy, termination=termination, max_iter=max_iter, trace=options
    )
    return solve_general(prob, x0, cfg)


@settings(max_examples=60, deadline=None)
@given(quadratic_runs())
def test_driver_trace_invariants(run):
    x, trace = _run(*run)
    max_iter = run[-1]
    assert x.shape == run[1].shape
    assert [r.k for r in trace.records] == list(range(len(trace.records)))
    assert trace.outcome in (CONVERGED, MAX_ITER_REACHED, NUMERICAL_FAILURE)
    if trace.outcome == CONVERGED:
        assert trace.converged_at == trace.records[-1].k
    else:
        assert trace.converged_at is None
    if trace.outcome == MAX_ITER_REACHED:
        assert len(trace.records) == max_iter + 1
    assert (trace.failure_reason is None) == (trace.outcome != NUMERICAL_FAILURE)
