"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
enforces the criterion's runtime budget.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.linalg import eigh

from conftest import min_eig, random_dominating_pair, random_spd
from greedyqn.bench import ExperimentPlan, emit_table, run_hessian_error_plan, run_plan
from greedyqn.broyden import UpdateRule, broyden_update
from greedyqn.data_io import SyntheticSpec, generate_logsumexp, parse_libsvm, serialize_libsvm
from greedyqn.objectives import LogisticProblem, LogSumExpProblem, QuadraticProblem
from greedyqn.operator_core import SpdState
from greedyqn.solvers import (
    DirectionStrategy,
    GradientNorm,
    SolverConfig,
    TraceOptions,
    solve_general,
)

GOLDEN = Path(__file__).parent / "golden"

EPSILONS = [1e-1, 1e-3, 1e-5, 1e-7, 1e-9]


@contextmanager
def criterion(num, name, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {num:2d} [{name}]: PASS ({elapsed:.1f}s)")
    assert elapsed < limit_s, f"runtime {elapsed:.1f}s exceeds {limit_s}s budget"


def seeded_quadratics():
    """20 seeded random SPD quadratics with n cycling through {5, 15, 30}."""
    sizes = [5, 15, 30]
    out = []
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        n = sizes[i % 3]
        cond = float(rng.uniform(10.0, 80.0))
        a = random_spd(rng, n, cond)
        out.append(QuadraticProblem(a, rng.standard_normal(n)))
    return out


def greedy_quadratic_run(prob, rule, max_iter, trace, seed):
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(
        rule=rule,
        strategy=DirectionStrategy.greedy(),
        termination=GradientNorm(1e-300),
        max_iter=max_iter,
        trace=trace,
    )
    return solve_general(prob, rng.standard_normal(prob.n), cfg)


def test_criterion_1_finite_identification():
    with criterion(1, "finite identification", 10.0):
        for i, prob in enumerate(seeded_quadratics()):
            n = prob.n
            _, trace = greedy_quadratic_run(
                prob, UpdateRule.sr1(), n, TraceOptions(op_error=True), 2000 + i
            )
            errors = [r.op_error for r in trace.records if r.k <= n]
            assert min(errors) <= 1e-8, f"instance {i}: min error {min(errors):.2e}"


def test_criterion_2_greedy_error_measure_decay():
    with criterion(2, "greedy error-measure linear decay", 30.0):
        rules = [UpdateRule.sr1(), UpdateRule.bfgs(), UpdateRule.fixed(0.5), UpdateRule.dfp()]
        for i, prob in enumerate(seeded_quadratics()):
            n = prob.n
            mu, big_l = prob.strong_convexity_mu, prob.lipschitz_l
            rate = 1.0 - mu / (n * big_l)
            for rule in rules:
                _, trace = greedy_quadratic_run(
                    prob, rule, 2 * n, TraceOptions(sigma=True), 3000 + i
                )
                sigmas = [r.sigma for r in trace.records]
                for k in range(len(sigmas) - 1):
                    assert sigmas[k + 1] <= rate * sigmas[k] + 1e-9, (
                        f"instance {i}, rule {rule.kind.value}, step {k}"
                    )


def test_criterion_3_update_ordering_and_sandwich():
    with criterion(3, "update ordering and sandwich", 10.0):
        rng = np.random.default_rng(77)
        for trial in range(200):
            n = int(rng.integers(2, 13))
            a, g = random_dominating_pair(rng, n)
            u = rng.standard_normal(n)
            eta = float(np.max(eigh(g, a, eigvals_only=True)))

            def updated(rule):
                state = SpdState(g)
                broyden_update(state, u, a @ u, rule)
                return state.g

            results = {
                name: updated(rule)
                for name, rule in (
                    ("SR1", UpdateRule.sr1()),
                    ("BFGS", UpdateRule.bfgs()),
                    ("tau=0.5", UpdateRule.fixed(0.5)),
                    ("DFP", UpdateRule.dfp()),
                )
            }
            scale = max(np.abs(m).max() for m in results.values())
            # A <= SR1 <= BFGS <= DFP
            assert min_eig(results["SR1"] - a) >= -1e-9 * scale, f"trial {trial}"
            assert min_eig(results["BFGS"] - results["SR1"]) >= -1e-9 * scale
            assert min_eig(results["DFP"] - results["BFGS"]) >= -1e-9 * scale
            # sandwich preserved for every tested member
            for name, gp in results.items():
                assert min_eig(gp - a) >= -1e-9 * scale, f"trial {trial} {name}"
                assert min_eig(eta * a - gp) >= -1e-9 * scale, f"trial {trial} {name}"


def test_criterion_4_quadratic_rate_inequalities():
    with criterion(4, "quadratic linear and superlinear rates", 10.0):
        probs = seeded_quadratics()
        picks = [probs[0], probs[1], probs[2], probs[3], probs[4], probs[5]]
        for i, prob in enumerate(picks):
            n = prob.n
            mu, big_l = prob.strong_convexity_mu, prob.lipschitz_l
            for rule in (UpdateRule.sr1(), UpdateRule.bfgs()):
                _, trace = greedy_quadratic_run(
                    prob, rule, 150, TraceOptions(lambda_f=True), 4000 + i
                )
                lams = [r.lambda_f for r in trace.records]
                for k in range(len(lams)):
                    bound = (1.0 - mu / big_l) ** k * lams[0]
                    assert lams[k] <= bound * (1 + 1e-9) + 1e-300, f"instance {i} k={k}"
                for k in range(len(lams) - 1):
                    bound = (1.0 - mu / (n * big_l)) ** k * (n * big_l / mu) * lams[k]
                    assert lams[k + 1] <= bound * (1 + 1e-9) + 1e-300, (
                        f"instance {i} k={k}"
                    )


def test_criterion_5_oracle_derivative_checks():
    with criterion(5, "oracle derivative correctness", 5.0):
        from conftest import central_diff_gradient, central_diff_hessian

        rng = np.random.default_rng(55)
        n, m = 10, 15
        problems = [
            QuadraticProblem(random_spd(rng, n), rng.standard_normal(n)),
            LogSumExpProblem(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m), 1.0),
            LogisticProblem(rng.uniform(-1, 1, (m, n)), rng.choice([-1.0, 1.0], m), 1.0),
        ]
        for prob in problems:
            for _ in range(20):
                x = rng.uniform(-1.0, 1.0, n)
                grad = prob.gradient(x)
                fd = central_diff_gradient(prob.value, x)
                assert np.linalg.norm(fd - grad) <= 1e-5 * max(np.linalg.norm(grad), 1e-8)
            x = rng.uniform(-1.0, 1.0, n)
            hess = prob.full_hessian(x)
            fd_hess = central_diff_hessian(prob.gradient, x)
            assert np.max(np.abs(fd_hess - hess)) <= 1e-4
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, n)
                full = prob.full_hessian(x)
                assert np.max(np.abs(prob.hessian_diag(x) - full.diagonal())) <= 1e-11
                h = rng.standard_normal(n)
                err = np.linalg.norm(prob.hessian_vec(x, h) - full @ h)
                assert err <= 1e-11 * max(np.linalg.norm(full @ h), 1e-12)


def test_criterion_6_hessian_regularity_spot_checks():
    with criterion(6, "self-concordance and two-point Hessian bounds", 10.0):
        rng = np.random.default_rng(66)
        for inst in range(4):
            spec = SyntheticSpec(n=8, m=10, gamma=1.0, seed=600 + inst)
            prob = generate_logsumexp(spec)
            m_const = prob.self_concordance_m
            for _ in range(25):
                x, y, z, w = (rng.uniform(-1.0, 1.0, 8) for _ in range(4))
                hx = prob.full_hessian(x)
                hy = prob.full_hessian(y)
                hz = prob.full_hessian(z)
                hw = prob.full_hessian(w)
                r_z = float(np.sqrt((y - x) @ hz @ (y - x)))
                lhs = m_const * r_z * hw - (hy - hx)
                scale = max(m_const * r_z * np.abs(hw).max(), np.abs(hx).max())
                assert min_eig(lhs) >= -1e-7 * scale
                # two-point bounds in the metric at x
                r_x = float(np.sqrt((y - x) @ hx @ (y - x)))
                factor = 1.0 + m_const * r_x
                scale2 = factor * max(np.abs(hx).max(), np.abs(hy).max())
                assert min_eig(factor * hx - hy) >= -1e-7 * scale2
                assert min_eig(hy - hx / factor) >= -1e-7 * scale2


def _table_one_plan(methods):
    return ExperimentPlan(
        problem=SyntheticSpec(n=50, m=50, gamma=1.0, seed=1),
        methods=methods,
        epsilons=EPSILONS,
        seed=1,
    )


def _column(table, method):
    j = table.methods.index(method)
    return [row[j] for row in table.cells]


def _assert_superlinear_shrink(column):
    # increments between successive accuracy rows, from the 1e-5 row onward
    counts = dict(zip(EPSILONS, column))
    inc_57 = counts[1e-7] - counts[1e-5]
    inc_79 = counts[1e-9] - counts[1e-7]
    assert inc_79 <= inc_57, f"increments grew: {inc_57} then {inc_79}"


def test_criterion_7_iteration_count_bands():
    with criterion(7, "iteration-count reproduction bands", 120.0):
        table = run_plan(
            _table_one_plan(["GM", "DFP", "BFGS", "SR1", "GrDFP", "GrBFGS", "GrSR1"])
        )
        counts = {m: _column(table, m) for m in table.methods}
        assert 34 <= counts["GrSR1"][-1] <= 134
        assert 47 <= counts["GrBFGS"][-1] <= 186
        assert 24 <= counts["SR1"][-1] <= 96
        assert 40 <= counts["GM"][0] <= 160
        for method in ("GrDFP", "GrBFGS", "GrSR1"):
            _assert_superlinear_shrink(counts[method])


def test_criterion_8_hessian_error_contrast():
    with criterion(8, "final Hessian-error contrast", 60.0):
        plan = ExperimentPlan(
            problem=SyntheticSpec(n=50, m=50, gamma=1.0, seed=1),
            methods=["DFP", "BFGS", "SR1", "GrDFP", "GrBFGS", "GrSR1"],
            epsilons=[1e-0] + EPSILONS,
            seed=1,
        )
        table = run_hessian_error_plan(plan)
        for method in ("DFP", "BFGS", "SR1"):
            col = _column(table, method)
            initial, final = col[0], col[-1]
            assert final <= 4.0 * initial, f"{method}: {final:.3g} vs {initial:.3g}"
        assert _column(table, "GrSR1")[-1] <= 10.0
        assert _column(table, "GrBFGS")[-1] <= 25.0


def test_criterion_9_randomized_directions():
    with criterion(9, "randomized-direction variant", 60.0):
        table = run_plan(_table_one_plan(["RaSR1"]))
        col = _column(table, "RaSR1")
        assert 45 <= col[-1] <= 182
        _assert_superlinear_shrink(col)


def test_criterion_10_inverse_maintenance_audit():
    with criterion(10, "inverse-maintenance audit", 5.0):
        rng = np.random.default_rng(10)
        n = 50
        state = SpdState.scaled_identity(n, 1.0)
        for i in range(1000):
            if i % 5 == 4:
                state.rescale(rng.uniform(0.5, 2.0))
            else:
                p = rng.standard_normal(n)
                q = rng.standard_normal(n)
                c11, c22 = rng.uniform(0.01, 0.3, 2)
                c12 = rng.uniform(-0.9, 0.9) * np.sqrt(c11 * c22)
                state.rank2_update(p, q, c11, c12, c22)
        assert state.audit() <= 1e-6
        fresh = np.linalg.inv(state.g)
        rel = np.max(np.abs(state.g_inv - fresh)) / np.max(np.abs(fresh))
        assert rel <= 1e-8


def test_criterion_11_parser_and_determinism():
    with criterion(11, "parser round-trip and output determinism", 1.0):
        text = (GOLDEN / "tiny.libsvm").read_text()
        ds = parse_libsvm(text)
        back = parse_libsvm(serialize_libsvm(ds), n_features=ds.n_features)
        assert back.n_features == ds.n_features
        for name in ("labels", "indptr", "indices", "values"):
            assert getattr(back, name).tolist() == getattr(ds, name).tolist(), name

        plan = ExperimentPlan(
            problem=SyntheticSpec(n=6, m=5, gamma=1.0, seed=7),
            methods=["GM", "GrSR1"],
            epsilons=[1e-1, 1e-5],
            seed=7,
        )
        first = emit_table(run_plan(plan), "csv").encode()
        second = emit_table(run_plan(plan), "csv").encode()
        assert first == second
