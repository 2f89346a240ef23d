from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from conftest import min_eig, random_spd
from greedyqn import solvers
from greedyqn.bench import QuadraticSpec
from greedyqn.broyden import UpdateRule, broyden_update, greedy_direction
from greedyqn.data_io import SyntheticSpec, generate_logsumexp, generate_start, parse_libsvm
from greedyqn.errors import DimensionTooLarge, NotPositiveDefinite
from greedyqn.objectives import (
    DENSE_CAP, LogisticProblem, LogSumExpProblem, ObjectiveOracle, QuadraticProblem,
)
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
    lambda_f,
    solve_general,
)


def quadratic(rng, n, cond=50.0):
    return QuadraticProblem(random_spd(rng, n, cond), rng.standard_normal(n))


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


@st.composite
def logsumexp_specs(draw):
    """Log-sum-exp instances: n in [2, 10], m in [2, 3n], gamma log-uniform on [1e-3, 1e2]."""
    n = draw(st.integers(2, 10))
    return SyntheticSpec(
        n=n,
        m=draw(st.integers(2, 3 * n)),
        gamma=10.0 ** draw(st.floats(-3.0, 2.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestHessianDominated:
    """The paper's invariant along corrected greedy runs: the Hessian at x_k is below G_k."""

    @settings(max_examples=40, deadline=None)
    @given(logsumexp_specs(), st.sampled_from([UpdateRule.sr1(), UpdateRule.bfgs(), UpdateRule.dfp()]))
    def test_least_generalized_eigenvalue_is_at_least_one(self, spec, rule):
        oracle = generate_logsumexp(spec)
        f_star = oracle.value(np.zeros(spec.n))  # the minimizer is the origin
        states, least = [], []
        scaled_identity, value = SpdState.scaled_identity, oracle.value

        def capture(n, c):
            states.append(scaled_identity(n, c))
            return states[-1]

        def value_spy(x):
            # iteration k evaluates f at x_k first, while the state holds G_k
            g, hess = states[0].g, oracle.full_hessian(x)
            least.append(eigh(g, hess, eigvals_only=True)[0])
            return value(x)

        cfg = greedy_config(rule, FunctionResidual(1e-12, f_star), 30, correction=True, m_const=2.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SpdState, "scaled_identity", capture)
            patch.setattr(oracle, "value", value_spy)
            solve_general(oracle, generate_start(spec.n, spec.seed), cfg)
        assert least and min(least) >= 1.0 - 1e-10


class FreshLogSumExp(LogSumExpProblem):
    """Log-sum-exp whose step computes ``c @ x`` afresh at x + d instead of carrying it."""

    advance = ObjectiveOracle.advance


class FreshLogistic(LogisticProblem):
    """Logistic loss whose step computes its margins afresh at x + d instead of carrying them."""

    advance = ObjectiveOracle.advance


class _Watched:
    """A data oracle that compares each carried t with a fresh image of ``c @ x``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.errors, self.sizes = [], []

    def advance(self, x, d):
        x_next, quad = super().advance(x, d)
        fresh = self._image(self.c @ x_next)
        self.errors.append(float(np.max(np.abs(self._at(x_next).t - fresh))))
        self.sizes.append(float(np.max(np.abs(fresh))))
        return x_next, quad


class WatchedLogSumExp(_Watched, LogSumExpProblem):
    pass


class WatchedLogistic(_Watched, LogisticProblem):
    pass


def _first_near_tie(ratios):
    """The first step whose two largest greedy ratios are within 1e-9 relative, or their count."""
    for k, r in enumerate(ratios):
        top = np.sort(r)[-2:]
        if top.size == 2 and top[1] - top[0] <= 1e-9 * top[1]:
            return k
    return len(ratios)


class TestCarriedProducts:
    """The step carries ``c @ x`` (log-sum-exp) or the margins (logistic) to x + d.

    That moves their rounding but neither a direction nor an iterate beyond it.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        logistic=st.booleans(),
        n=st.integers(2, 12),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        greedy=st.booleans(),
        correction=st.booleans(),
        rule=st.sampled_from([UpdateRule.sr1(), UpdateRule.bfgs(), UpdateRule.dfp()]),
    )
    def test_carried_run_follows_the_fresh_run(
        self, logistic, n, data, seed, greedy, correction, rule
    ):
        """The same directions, and f within 1e-12 relative, up to a near-tie of the ratios.

        gamma is the default plan's 1.0.  At gamma = 0.1 some runs (uncorrected SR1
        that diverges, logistic DFP) amplify any rounding past 1e-12, a
        1-ulp perturbation of a fresh ``c @ x`` as much as the carried one.
        """
        m = data.draw(st.integers(2, 3 * n), label="m")
        if logistic:
            rng = np.random.default_rng(seed)
            c = rng.uniform(-1.0, 1.0, (m, n)) * (rng.uniform(size=(m, n)) < 0.65)
            args, types = (c, rng.choice([-1.0, 1.0], m), 1.0), (LogisticProblem, FreshLogistic)
        else:
            lse = generate_logsumexp(SyntheticSpec(n=n, m=m, gamma=1.0, seed=seed))
            args, types = (lse.c, lse.b, lse.gamma), (LogSumExpProblem, FreshLogSumExp)
        strategy = DirectionStrategy.greedy() if greedy else DirectionStrategy.random_sphere(seed)
        cfg = SolverConfig(rule, strategy, GradientNorm(1e-10), 60,
                           correction=correction, m_const=2.0)
        runs = []
        for oracle_type in types:
            ratios = []

            def spy(diag_g, diag_a):
                index = greedy_direction(diag_g, diag_a)  # refuses a diagonal entry <= 0
                ratios.append(diag_g / diag_a)
                return index

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solvers, "greedy_direction", spy)
                _, trace = solve_general(oracle_type(*args), generate_start(n, seed), cfg)
            runs.append((trace.records, _first_near_tie(ratios)))
        (carried, tie_a), (fresh, tie_b) = runs
        tie = min(tie_a, tie_b)
        for a, b in zip(carried[: tie + 1], fresh[: tie + 1]):
            assert abs(a.f_value - b.f_value) <= 1e-12 * abs(b.f_value)
            if a.k < tie:
                assert a.direction_index == b.direction_index

    @pytest.mark.parametrize(
        "n,rule,epsilon,steps",
        [(50, UpdateRule.dfp(), 1e-9, 1111), (200, UpdateRule.bfgs(), 1e-5, None)],
        ids=["GrDFP-n50", "GrBFGS-n200-queued"],
    )
    def test_carried_rounding_stays_below_1e_13_of_the_largest_product(
        self, n, rule, epsilon, steps
    ):
        """No recomputation of c @ x is needed along the paper's longest greedy run.

        The bound is taken against the run's largest |c x_k|: x_k tends to
        the minimizer at the origin, so against the current |c x_k| the same
        error reads about 1e-10 by the end of the GrDFP run.
        """
        lse = generate_logsumexp(SyntheticSpec(n=n, m=n, gamma=1.0, seed=1))
        oracle = WatchedLogSumExp(lse.c, lse.b, lse.gamma)
        cfg = greedy_config(rule, FunctionResidual(epsilon, lse.value(np.zeros(n))), 1000 * n,
                            correction=True, m_const=2.0)
        _, trace = solve_general(oracle, generate_start(n, 1), cfg)
        assert trace.outcome == CONVERGED
        if steps is not None:
            assert trace.converged_at == steps
        else:
            assert trace.converged_at > AUDIT_EVERY  # the run crosses a flush of the queue
        assert len(oracle.errors) == trace.converged_at
        assert max(oracle.errors) <= 1e-13 * max(oracle.sizes)

    def test_carried_rounding_stays_below_1e_13_in_a_stalled_run(self):
        """A run held at its rounding floor: each step's x + d loses bits of d.

        Logistic margins, whose minimizer is away from the origin, so the
        lost bits are not negligible against x.  4000 greedy BFGS steps
        (measured: at most 23 eps).
        """
        rng = np.random.default_rng(0)
        c = rng.uniform(-1.0, 1.0, (40, 20))
        oracle = WatchedLogistic(c, rng.choice([-1.0, 1.0], 40), 0.1)
        cfg = greedy_config(UpdateRule.bfgs(), GradientNorm(1e-300), 4000)
        _, trace = solve_general(oracle, rng.normal(size=20), cfg)
        assert trace.outcome == MAX_ITER_REACHED
        f = trace.f_values()
        assert np.ptp(f[-1000:]) <= 1e-15 * abs(f[-1])  # stalled for the last 1000 steps
        assert max(oracle.errors) <= 1e-13 * max(oracle.sizes)


class TestSolveQuadratic:
    def test_scaled_identity_solves_in_one_step(self, rng):
        # G0 = L*I equals the quadratic matrix, so the first step is exact
        prob = QuadraticProblem(3.0 * np.eye(4), rng.standard_normal(4))
        cfg = greedy_config(UpdateRule.sr1(), GradientNorm(1e-12), 10)
        x, trace = solve_general(prob, rng.standard_normal(4), cfg)
        assert trace.outcome == CONVERGED
        assert trace.converged_at == 1
        assert lambda_f(prob, x) <= 1e-10

    def test_greedy_sr1_identifies_diagonal_in_n_steps(self):
        prob = QuadraticProblem(np.diag([1.0, 2.0, 3.0]), np.ones(3))
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
        watch_updates(monkeypatch, prob, lambda state, x_next: seen.append(state.g))
        cfg = greedy_config(UpdateRule.bfgs(), GradientNorm(1e-12), 60)
        solve_general(prob, rng.standard_normal(8), cfg)
        assert seen
        a = prob.a
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

    def test_correction_rescales_are_not_audited(self, monkeypatch):
        # the paper's greedy SR1 run: as many rescales as rank-two updates,
        # and one audit per AUDIT_EVERY updates alone
        states, calls = [], {"audit": 0, "rescale": 0}
        scaled_identity = SpdState.scaled_identity

        def capture(n, c):
            states.append(scaled_identity(n, c))
            return states[-1]

        def counted(name):
            method = getattr(SpdState, name)

            def spy(state, *args):
                calls[name] += 1
                return method(state, *args)

            monkeypatch.setattr(SpdState, name, spy)

        monkeypatch.setattr(SpdState, "scaled_identity", capture)
        counted("audit")
        counted("rescale")
        oracle = generate_logsumexp(SyntheticSpec(n=50, m=50, gamma=1.0, seed=1))
        cfg = greedy_config(
            UpdateRule.sr1(),
            FunctionResidual(1e-9, oracle.value(np.zeros(50))),
            50_000,
            correction=True,
            m_const=2.0,
        )
        _, trace = solve_general(oracle, generate_start(50, 1), cfg)
        (state,) = states
        assert trace.outcome == CONVERGED
        assert state.update_count >= AUDIT_EVERY
        assert calls["rescale"] >= state.update_count
        assert calls["audit"] == state.update_count // AUDIT_EVERY

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
            h = oracle.full_hessian(x_next)
            g = state.g
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
        prob = QuadraticProblem(np.eye(3), rng.standard_normal(3))
        _, trace = gradient_method(prob, rng.standard_normal(3), GradientNorm(1e-12), 10)
        assert trace.outcome == CONVERGED
        assert trace.converged_at == 1

    def test_contraction_on_diagonal_quadratic(self, rng):
        mu, big_l = 0.5, 4.0
        prob = QuadraticProblem(np.diag([mu, big_l]), np.zeros(2))
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
        a = prob.a
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
            scale = np.abs(exact.g).max()
            assert np.max(np.abs(classical.g - exact.g)) <= 1e-9 * scale

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
        state = SpdState(0.5 * a)
        u = rng.standard_normal(5)
        for rule in (
            UpdateRule.sr1(),
            UpdateRule.bfgs(),
            UpdateRule.dfp(),
            UpdateRule.fixed(0.3),
        ):
            g0 = state.g.copy()
            assert u @ state.g @ u < u @ a @ u
            _apply_family_update(state, u, a @ u, rule)
            assert np.array_equal(state.g, g0)

    def test_dominating_pair_still_updates(self, rng):
        from greedyqn.solvers import _apply_family_update

        a = random_spd(rng, 5)
        state = SpdState(2.0 * a)
        u = rng.standard_normal(5)
        g0 = state.g.copy()
        _apply_family_update(state, u, a @ u, UpdateRule.bfgs())
        assert not np.array_equal(state.g, g0)

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
        for tau in (1.5, -0.1, np.nan, None):
            with pytest.raises(ValueError):
                UpdateRule.fixed(tau)
            if tau is not None:  # a rule built directly with tau None is BFGS
                with pytest.raises(ValueError):
                    UpdateRule(tau)
        with pytest.raises(ValueError):  # a strategy with no seed is greedy
            DirectionStrategy.random_sphere(None)

    def test_a_rule_is_its_tau(self):
        from greedyqn.broyden import UpdateKind

        assert UpdateRule.fixed(0.0) == UpdateRule.sr1()
        assert UpdateRule.fixed(1.0) == UpdateRule.dfp()
        kinds = {
            UpdateRule.sr1(): UpdateKind.SR1,
            UpdateRule.dfp(): UpdateKind.DFP,
            UpdateRule.bfgs(): UpdateKind.BFGS,
            UpdateRule.fixed(0.5): UpdateKind.FIXED_TAU,
        }
        for rule, kind in kinds.items():
            assert rule.kind is kind, rule

    def test_a_strategy_is_its_seed(self):
        from greedyqn.solvers import DirectionKind

        assert DirectionStrategy.greedy() == DirectionStrategy(None)
        assert DirectionStrategy.random_sphere(3) == DirectionStrategy(3)
        assert DirectionStrategy.greedy().kind is DirectionKind.GREEDY_COORDINATE
        assert DirectionStrategy.random_sphere(0).kind is DirectionKind.RANDOM_SPHERE

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


def _endpoint_problems():
    """Generated problems on which classical SR1 meets <Gs, s> <= 0 and <Gs, s> = <y, s>."""
    return [
        generate_logsumexp(SyntheticSpec(n=2, m=4, gamma=1.0, seed=0)),
        generate_logsumexp(SyntheticSpec(n=8, m=10, gamma=0.01, seed=0)),
        QuadraticSpec(n=3, seed=0).build(),
    ]


def _run_bits(oracle, rule, kind):
    """The iterate bits and trace of one secant, greedy or random run of ``rule``."""
    x0 = generate_start(oracle.n, 1)
    termination = GradientNorm(1e-12)
    if kind == "secant":
        x, trace = classical_qn(oracle, x0, rule, termination, 200)
    else:
        greedy = kind == "greedy"
        strategy = DirectionStrategy.greedy() if greedy else DirectionStrategy.random_sphere(3)
        m = oracle.self_concordance_m
        config = SolverConfig(rule, strategy, termination, 200, correction=m > 0.0, m_const=m)
        x, trace = solve_general(oracle, x0, config)
    records = [repr(r) for r in trace.records]
    return x.tobytes(), records, trace.outcome, trace.converged_at, trace.failure_reason


class TestTauEndpoints:
    """Fixed tau = 0 and tau = 1 are SR1 and DFP: every policy reads the rule's tau."""

    @pytest.mark.parametrize("kind", ["secant", "greedy", "random"])
    @pytest.mark.parametrize(
        "tau,named", [(0.0, UpdateRule.sr1()), (1.0, UpdateRule.dfp())], ids=["sr1", "dfp"]
    )
    def test_fixed_endpoint_runs_bit_for_bit_as_the_named_rule(self, tau, named, kind):
        for oracle in _endpoint_problems():
            assert _run_bits(oracle, UpdateRule.fixed(tau), kind) == _run_bits(oracle, named, kind)

    def test_endpoint_problems_meet_the_secant_rules(self, monkeypatch):
        # the runs above pass through the pairs on which the rules differ
        pairs = []
        secant = solvers._secant_coefficients

        def spy(rule, alpha, beta):
            pairs.append((alpha, beta))
            return secant(rule, alpha, beta)

        monkeypatch.setattr(solvers, "_secant_coefficients", spy)
        for oracle in _endpoint_problems():
            _run_bits(oracle, UpdateRule.sr1(), "secant")
        assert any(beta <= 0.0 for _, beta in pairs)
        assert any(abs(beta - alpha) <= 1e-12 * abs(alpha) for alpha, beta in pairs)

    def test_secant_coefficients_read_tau(self):
        coeffs = solvers._secant_coefficients
        sr1, dfp = UpdateRule.sr1(), UpdateRule.dfp()
        zero, one = UpdateRule.fixed(0.0), UpdateRule.fixed(1.0)
        # beta = alpha: an SR1 part's denominator vanishes, DFP has none
        assert coeffs(zero, 2.0, 2.0) is None and coeffs(sr1, 2.0, 2.0) is None
        assert repr(coeffs(one, 2.0, 2.0)) == repr(coeffs(dfp, 2.0, 2.0)) == "(1.0, -0.5, 0.0)"
        # alpha < 0: SR1 updates, a rule that divides by alpha skips
        assert repr(coeffs(zero, -1.0, 2.0)) == repr(coeffs(sr1, -1.0, 2.0)) != "None"
        assert coeffs(one, -1.0, 2.0) is None and coeffs(dfp, -1.0, 2.0) is None
        # <Gs, s> <= 0: SR1 tolerates an indefinite G, every other rule refuses it
        for beta in (0.0, -1.0):
            assert repr(coeffs(zero, 1.0, beta)) == repr(coeffs(sr1, 1.0, beta)) != "None"
            for rule in (one, dfp, UpdateRule.bfgs(), UpdateRule.fixed(0.5)):
                with pytest.raises(NotPositiveDefinite):
                    coeffs(rule, 1.0, beta)


class TestLambdaF:
    def test_identity_quadratic_is_distance(self, rng):
        b = rng.standard_normal(4)
        prob = QuadraticProblem(np.eye(4), b)
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
        prob = QuadraticProblem(np.eye(n), np.zeros(n))
        with pytest.raises(DimensionTooLarge):
            lambda_f(prob, np.zeros(n))
