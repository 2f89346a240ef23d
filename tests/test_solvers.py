from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh

from conftest import min_eig, random_spd
from greedyqn import solvers
from greedyqn.broyden import UpdateRule, broyden_update
from greedyqn.data_io import SyntheticSpec, generate_logsumexp, generate_start, parse_libsvm
from greedyqn.errors import DimensionTooLarge
from greedyqn.objectives import DENSE_CAP, LogisticProblem, QuadraticProblem
from greedyqn.operator_core import DenseSymmetric, SpdState
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
    lambda_f,
    solve_general,
)


def quadratic(rng, n, cond=50.0):
    return QuadraticProblem(DenseSymmetric(random_spd(rng, n, cond)), rng.standard_normal(n))


def greedy_config(rule, termination, max_iter, **kw):
    return SolverConfig(
        rule=rule,
        strategy=DirectionStrategy.greedy(),
        termination=termination,
        max_iter=max_iter,
        **kw,
    )


def watch_updates(monkeypatch, oracle, watch):
    """Call ``watch(state, x_next)`` at each greedy update of G, before it is applied.

    That is after the correction rescale.  x_next is the point of the last
    ``hessian_diag`` call: the greedy step asks for the diagonal there.
    """
    points = []
    hessian_diag = oracle.hessian_diag
    apply_update = solvers._apply_family_update

    def diag_spy(x):
        points.append(np.array(x))
        return hessian_diag(x)

    def update_spy(state, *args):
        watch(state, points[-1])
        return apply_update(state, *args)

    monkeypatch.setattr(oracle, "hessian_diag", diag_spy)
    monkeypatch.setattr(solvers, "_apply_family_update", update_spy)


class TestSolveQuadratic:
    def test_scaled_identity_solves_in_one_step(self, rng):
        # G0 = L*I equals the quadratic matrix, so the first step is exact
        prob = QuadraticProblem(DenseSymmetric.identity(4, 3.0), rng.standard_normal(4))
        cfg = greedy_config(UpdateRule.sr1(), GradientNorm(1e-12), 10)
        x, trace = solve_general(prob, rng.standard_normal(4), cfg)
        assert trace.outcome == CONVERGED
        assert trace.converged_at == 1
        assert lambda_f(prob, x) <= 1e-10

    def test_greedy_sr1_identifies_diagonal_in_n_steps(self):
        prob = QuadraticProblem(DenseSymmetric.from_diagonal([1.0, 2.0, 3.0]), np.ones(3))
        cfg = greedy_config(
            UpdateRule.sr1(),
            GradientNorm(1e-13),
            20,
            trace=TraceOptions(op_error=True),
        )
        _, trace = solve_general(prob, np.array([0.3, -0.2, 0.4]), cfg)
        errors = [r.op_error for r in trace.records if r.k <= 3]
        assert min(errors) <= 1e-10

    def test_linear_and_superlinear_rate_inequalities(self, rng):
        for n, rule in ((5, UpdateRule.sr1()), (15, UpdateRule.bfgs()), (30, UpdateRule.fixed(0.5))):
            prob = quadratic(rng, n)
            mu, big_l = prob.strong_convexity_mu, prob.lipschitz_l
            cfg = greedy_config(
                rule,
                GradientNorm(1e-13),
                150,
                trace=TraceOptions(lambda_f=True, sigma=True),
            )
            _, trace = solve_general(prob, rng.standard_normal(n), cfg)
            lams = [r.lambda_f for r in trace.records]
            sigs = [r.sigma for r in trace.records]
            for k in range(len(lams)):
                assert lams[k] <= (1 - mu / big_l) ** k * lams[0] * (1 + 1e-9)
            for k in range(len(lams) - 1):
                bound = (1 - mu / (n * big_l)) ** k * (n * big_l / mu) * lams[k]
                assert lams[k + 1] <= bound * (1 + 1e-9) + 1e-300
            for k in range(len(sigs) - 1):
                assert sigs[k + 1] <= (1 - mu / (n * big_l)) * sigs[k] + 1e-9

    def test_eigenvalue_sandwich_along_run(self, rng, monkeypatch):
        prob = quadratic(rng, 8)
        mu, big_l = prob.strong_convexity_mu, prob.lipschitz_l
        seen = []
        watch_updates(monkeypatch, prob, lambda state, x_next: seen.append(state.g.entries))
        cfg = greedy_config(UpdateRule.bfgs(), GradientNorm(1e-12), 60)
        solve_general(prob, rng.standard_normal(8), cfg)
        assert seen
        a = prob.a.entries
        for g in seen:
            vals = eigh(g, a, eigvals_only=True)
            assert vals[0] >= 1.0 - 1e-9
            assert vals[-1] <= big_l / mu + 1e-9



class TestSolveGeneral:
    def test_synthetic_greedy_sr1_iteration_band(self):
        spec = SyntheticSpec(n=50, m=50, gamma=1.0, seed=1)
        oracle = generate_logsumexp(spec)
        f_star = oracle.value(np.zeros(50))
        cfg = greedy_config(
            UpdateRule.sr1(),
            FunctionResidual(1e-9, f_star),
            50_000,
            correction=True,
            m_const=2.0,
        )
        _, trace = solve_general(oracle, generate_start(50, 1), cfg)
        assert trace.outcome == CONVERGED
        assert 30 <= trace.converged_at <= 140

    def test_logistic_runs_without_correction(self, rng):
        labels = rng.choice([-1.0, 1.0], 30)
        prob = LogisticProblem(rng.uniform(-1, 1, (30, 8)), labels, gamma=1.0)
        cfg = greedy_config(UpdateRule.bfgs(), GradientNorm(1e-10), 2000)
        x, trace = solve_general(prob, np.zeros(8), cfg)
        assert trace.outcome == CONVERGED
        assert np.linalg.norm(prob.gradient(x)) <= 1e-10

    def test_correction_keeps_new_hessian_dominated(self, monkeypatch):
        spec = SyntheticSpec(n=15, m=20, gamma=1.0, seed=9)
        oracle = generate_logsumexp(spec)
        f_star = oracle.value(np.zeros(15))
        worst = np.inf

        def watch(state, x_next):
            nonlocal worst
            h = oracle.full_hessian(x_next).entries
            g = state.g.entries
            gap = min_eig(g - h) / np.abs(g).max()
            worst = min(worst, gap)

        watch_updates(monkeypatch, oracle, watch)
        cfg = greedy_config(
            UpdateRule.sr1(),
            FunctionResidual(1e-10, f_star),
            2000,
            correction=True,
            m_const=2.0,
        )
        _, trace = solve_general(oracle, generate_start(15, 9), cfg)
        assert trace.outcome == CONVERGED
        assert worst < np.inf
        assert worst >= -1e-7

    def test_one_step_contraction_bound(self):
        # lambda_{k+1} <= (1 + M lam/2) (eta - 1 + M lam/2)/eta * lam
        # with eta = 1 + sigma_k, whenever M lam <= 2
        spec = SyntheticSpec(n=20, m=25, gamma=1.0, seed=3)
        oracle = generate_logsumexp(spec)
        f_star = oracle.value(np.zeros(20))
        cfg = greedy_config(
            UpdateRule.sr1(),
            FunctionResidual(1e-9, f_star),
            5000,
            correction=True,
            m_const=2.0,
            trace=TraceOptions(lambda_f=True, sigma=True),
        )
        _, trace = solve_general(oracle, generate_start(20, 3), cfg)
        assert trace.outcome == CONVERGED
        lams = [r.lambda_f for r in trace.records]
        sigs = [r.sigma for r in trace.records]
        m_const = 2.0
        for k in range(len(lams) - 1):
            lam = lams[k]
            if m_const * lam > 2.0:
                continue
            eta = 1.0 + sigs[k]
            bound = (1 + m_const * lam / 2) * (eta - 1 + m_const * lam / 2) / eta * lam
            assert lams[k + 1] <= 1.05 * bound + 1e-300

    def test_random_directions_deterministic(self):
        spec = SyntheticSpec(n=12, m=12, gamma=1.0, seed=2)
        oracle = generate_logsumexp(spec)
        f_star = oracle.value(np.zeros(12))
        cfg = SolverConfig(
            rule=UpdateRule.sr1(),
            strategy=DirectionStrategy.random_sphere(21),
            termination=FunctionResidual(1e-9, f_star),
            max_iter=5000,
            correction=True,
            m_const=2.0,
        )
        x0 = generate_start(12, 2)
        xa, ta = solve_general(oracle, x0, cfg)
        xb, tb = solve_general(oracle, x0, cfg)
        assert np.array_equal(xa, xb)
        assert ta == tb

    def test_greedy_deterministic(self, rng):
        prob = quadratic(rng, 6)
        cfg = greedy_config(UpdateRule.dfp(), GradientNorm(1e-11), 200)
        x0 = rng.standard_normal(6)
        xa, ta = solve_general(prob, x0, cfg)
        xb, tb = solve_general(prob, x0, cfg)
        assert np.array_equal(xa, xb)
        assert ta == tb

    def test_overflowing_start_reports_failure(self):
        spec = SyntheticSpec(n=5, m=5, gamma=1.0, seed=4)
        oracle = generate_logsumexp(spec)
        cfg = greedy_config(UpdateRule.sr1(), GradientNorm(1e-8), 100)
        _, trace = solve_general(oracle, np.full(5, 1e200), cfg)
        assert trace.outcome == NUMERICAL_FAILURE
        assert trace.failure_reason == "NonFiniteResult"

    def test_max_iter_outcome(self, rng):
        prob = quadratic(rng, 6)
        cfg = greedy_config(UpdateRule.dfp(), GradientNorm(1e-14), 3)
        _, trace = solve_general(prob, rng.standard_normal(6), cfg)
        assert trace.outcome == MAX_ITER_REACHED
        assert len(trace.records) == 4  # iterates 0..3


class TestGradientMethod:
    def test_identity_quadratic_one_step(self, rng):
        prob = QuadraticProblem(DenseSymmetric.identity(3), rng.standard_normal(3))
        _, trace = gradient_method(prob, rng.standard_normal(3), GradientNorm(1e-12), 10)
        assert trace.outcome == CONVERGED
        assert trace.converged_at == 1

    def test_contraction_on_diagonal_quadratic(self, rng):
        mu, big_l = 0.5, 4.0
        prob = QuadraticProblem(DenseSymmetric.from_diagonal([mu, big_l]), np.zeros(2))
        x = np.array([1.0, 1.0])
        for _ in range(20):
            x_next = x - prob.gradient(x) / big_l
            assert np.linalg.norm(x_next) <= (1 - mu / big_l) * np.linalg.norm(x) + 1e-15
            x = x_next
        assert prob.lipschitz_l == big_l
        _, trace = gradient_method(prob, np.array([1.0, 1.0]), GradientNorm(1e-10), 1000)
        assert trace.outcome == CONVERGED


class RecordingOracle:
    """Proxy that logs every gradient query point, for replaying runs."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.lipschitz_l = inner.lipschitz_l
        self.gradient_points = []

    def value(self, x):
        return self.inner.value(x)

    def gradient(self, x):
        self.gradient_points.append(np.array(x))
        return self.inner.gradient(x)

    def full_hessian(self, x):
        return self.inner.full_hessian(x)


class TestClassicalQn:
    def test_secant_equals_exact_action_on_quadratic(self, rng, monkeypatch):
        # along the step s, y = A s up to rounding, so the operator built by
        # classical_qn's first step equals the exact-action update along s
        prob = quadratic(rng, 6, cond=10.0)
        a = prob.a.entries
        x0 = rng.standard_normal(6)
        scaled_identity = SpdState.scaled_identity
        built = []

        def capture(n, c):
            built.append(scaled_identity(n, c))
            return built[-1]

        monkeypatch.setattr(SpdState, "scaled_identity", capture)
        for rule in (UpdateRule.sr1(), UpdateRule.dfp(), UpdateRule.bfgs(), UpdateRule.fixed(0.3)):
            built.clear()
            classical_qn(prob, x0, rule, GradientNorm(1e-15), 1)
            (classical,) = built
            assert classical.update_count == 1
            exact = scaled_identity(6, prob.lipschitz_l)
            s = -exact.solve(prob.gradient(x0))
            broyden_update(exact, s, a @ s, rule)
            scale = np.abs(exact.g.entries).max()
            assert np.max(np.abs(classical.g.entries - exact.g.entries)) <= 1e-9 * scale

    def test_converges_on_synthetic(self):
        spec = SyntheticSpec(n=30, m=30, gamma=1.0, seed=6)
        oracle = generate_logsumexp(spec)
        f_star = oracle.value(np.zeros(30))
        for rule in (UpdateRule.sr1(), UpdateRule.bfgs()):
            _, trace = classical_qn(
                oracle,
                generate_start(30, 6),
                rule,
                FunctionResidual(1e-9, f_star),
                30_000,
            )
            assert trace.outcome == CONVERGED

    def test_bfgs_curvature_positive_on_strongly_convex(self):
        spec = SyntheticSpec(n=10, m=14, gamma=1.0, seed=8)
        inner = generate_logsumexp(spec)
        oracle = RecordingOracle(inner)
        f_star = inner.value(np.zeros(10))
        _, trace = classical_qn(
            oracle,
            generate_start(10, 8),
            UpdateRule.bfgs(),
            FunctionResidual(1e-9, f_star),
            5000,
        )
        assert trace.outcome == CONVERGED
        xs = oracle.gradient_points
        for x, x_next in zip(xs, xs[1:]):
            s = x_next - x
            y = inner.gradient(x_next) - inner.gradient(x)
            assert float(np.dot(y, s)) > 0.0

    def test_gm_comparison_uses_only_gradients(self, rng):
        # classical methods must not query Hessian information
        class GradientOnly:
            def __init__(self, inner):
                self.inner = inner
                self.n = inner.n
                self.lipschitz_l = inner.lipschitz_l

            def value(self, x):
                return self.inner.value(x)

            def gradient(self, x):
                return self.inner.gradient(x)

        prob = GradientOnly(quadratic(rng, 5))
        _, trace = classical_qn(prob, np.ones(5), UpdateRule.bfgs(), GradientNorm(1e-10), 500)
        assert trace.outcome == CONVERGED


class TestFamilyUpdateGuard:
    def test_reversed_domination_skips_update_for_all_rules(self, rng):
        # without the correction the approximation can dip below the target
        # along the chosen direction; every rule must then leave G unchanged
        # (the BFGS mixing parameter would otherwise leave [0, 1])
        from greedyqn.solvers import _apply_family_update

        a = random_spd(rng, 5)
        state = SpdState(DenseSymmetric(0.5 * a))
        u = rng.standard_normal(5)
        for rule in (
            UpdateRule.sr1(),
            UpdateRule.bfgs(),
            UpdateRule.dfp(),
            UpdateRule.fixed(0.3),
        ):
            g0 = state.g.entries.copy()
            assert u @ state.g.entries @ u < u @ a @ u
            _apply_family_update(state, u, a @ u, rule)
            assert np.array_equal(state.g.entries, g0)

    def test_dominating_pair_still_updates(self, rng):
        from greedyqn.solvers import _apply_family_update

        a = random_spd(rng, 5)
        state = SpdState(DenseSymmetric(2.0 * a))
        u = rng.standard_normal(5)
        g0 = state.g.entries.copy()
        _apply_family_update(state, u, a @ u, UpdateRule.bfgs())
        assert not np.array_equal(state.g.entries, g0)

    def test_lost_definiteness_ends_run(self):
        # RaSR1 without the correction on the logistic fixture meets
        # <Au, u> = 1.301 and <Gu, u> = -0.2455 at k = 18: the update is
        # refused as NonPositiveCurvature, not skipped with G left indefinite
        text = (Path(__file__).parent / "golden" / "tiny.libsvm").read_text()
        oracle = parse_libsvm(text).to_logistic(1.0)
        cfg = SolverConfig(
            rule=UpdateRule.sr1(),
            strategy=DirectionStrategy.random_sphere(2),
            termination=GradientNorm(1e-11),
            max_iter=400,
        )
        _, trace = solve_general(oracle, generate_start(7, 2), cfg)
        assert trace.outcome == NUMERICAL_FAILURE
        assert trace.failure_reason == "NonPositiveCurvature"
        assert trace.records[-1].k == 18


class TestRuleAndStrategyValidation:
    def test_fixed_tau_range(self):
        with pytest.raises(ValueError):
            UpdateRule.fixed(1.5)
        with pytest.raises(ValueError):
            UpdateRule.fixed(-0.1)

    def test_named_rules_reject_tau(self):
        from greedyqn.broyden import UpdateKind

        with pytest.raises(ValueError):
            UpdateRule(UpdateKind.BFGS, tau=0.5)

    def test_random_sphere_requires_seed(self):
        with pytest.raises(ValueError):
            DirectionStrategy(DirectionStrategy.greedy().kind, seed=3)
        from greedyqn.solvers import DirectionKind

        with pytest.raises(ValueError):
            DirectionStrategy(DirectionKind.RANDOM_SPHERE)

    def test_classical_fixed_tau_converges(self):
        spec = SyntheticSpec(n=12, m=15, gamma=1.0, seed=13)
        oracle = generate_logsumexp(spec)
        f_star = oracle.value(np.zeros(12))
        _, trace = classical_qn(
            oracle,
            generate_start(12, 13),
            UpdateRule.fixed(0.25),
            FunctionResidual(1e-9, f_star),
            12_000,
        )
        assert trace.outcome == CONVERGED

    def test_general_fixed_tau_converges(self):
        spec = SyntheticSpec(n=12, m=15, gamma=1.0, seed=13)
        oracle = generate_logsumexp(spec)
        f_star = oracle.value(np.zeros(12))
        cfg = greedy_config(
            UpdateRule.fixed(0.25),
            FunctionResidual(1e-9, f_star),
            12_000,
            correction=True,
            m_const=2.0,
        )
        _, trace = solve_general(oracle, generate_start(12, 13), cfg)
        assert trace.outcome == CONVERGED


class TestLambdaF:
    def test_identity_quadratic_is_distance(self, rng):
        b = rng.standard_normal(4)
        prob = QuadraticProblem(DenseSymmetric.identity(4), b)
        x = rng.standard_normal(4)
        assert lambda_f(prob, x) == pytest.approx(np.linalg.norm(x - b), rel=1e-12)

    def test_zero_at_minimizer(self, rng):
        prob = quadratic(rng, 5)
        assert lambda_f(prob, prob.minimizer()) <= 1e-10

    def test_function_gap_identity(self, rng):
        prob = quadratic(rng, 6)
        f_star = prob.value(prob.minimizer())
        for _ in range(10):
            x = rng.standard_normal(6)
            lam = lambda_f(prob, x)
            gap = prob.value(x) - f_star
            assert abs(gap - 0.5 * lam**2) <= 1e-12 * max(1.0, abs(gap))

    def test_dimension_cap(self):
        n = DENSE_CAP + 1
        prob = QuadraticProblem(DenseSymmetric.identity(n), np.zeros(n))
        with pytest.raises(DimensionTooLarge):
            lambda_f(prob, np.zeros(n))
