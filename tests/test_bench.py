import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rounding_noise
from greedyqn import bench, solvers
from greedyqn.bench import (
    BUDGET_EXHAUSTED,
    ExperimentPlan,
    LibsvmSpec,
    QuadraticSpec,
    ResultTable,
    emit_table,
    main,
    parse_method,
    run_hessian_error_plan,
    run_plan,
    _build_parser,
    _parse_args,
    _plan_from_args,
    _prepare,
)
from greedyqn.broyden import UpdateRule
from greedyqn.data_io import SyntheticSpec, generate_logsumexp, generate_start, parse_libsvm
from greedyqn.errors import InvalidPlan
from greedyqn.objectives import DENSE_CAP, LogisticProblem, QuadraticProblem
from greedyqn.solvers import GradientNorm, lambda_f

GOLDEN = Path(__file__).parent / "golden"
PINS = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"


def _read_columns(path):
    with path.open(newline="") as fh:
        return {col[0]: list(col[1:]) for col in zip(*csv.reader(fh))}


def _trace_rows(out, method):
    return (out / f"trace_{method}.csv").read_text().splitlines()[1:]


def micro_plan(**overrides):
    kw = dict(
        problem=SyntheticSpec(n=6, m=5, gamma=1.0, seed=7),
        methods=["GM", "SR1", "GrSR1"],
        epsilons=[1e-1, 1e-3, 1e-6],
        seed=7,
    )
    kw.update(overrides)
    return ExperimentPlan(**kw)


class TestMethodParsing:
    @pytest.mark.parametrize(
        "name,family,random_dirs",
        [
            ("GM", "gm", False),
            ("SR1", "classical", False),
            ("BFGS", "classical", False),
            ("GrDFP", "general", False),
            ("RaBFGS", "general", True),
        ],
    )
    def test_known_names(self, name, family, random_dirs):
        spec = parse_method(name)
        assert spec.family == family
        assert spec.random_directions == random_dirs

    def test_unknown_name(self):
        with pytest.raises(InvalidPlan):
            parse_method("Newton")


class TestPlanValidation:
    def test_epsilons_must_decrease(self):
        with pytest.raises(InvalidPlan):
            micro_plan(epsilons=[1e-3, 1e-1])

    def test_epsilons_must_be_positive(self):
        with pytest.raises(InvalidPlan):
            micro_plan(epsilons=[1e-1, 0.0])

    @pytest.mark.parametrize("epsilons", [[1e-1, np.nan], [np.inf, 1e-3], [np.nan]])
    def test_epsilons_must_be_finite(self, epsilons):
        with pytest.raises(InvalidPlan, match="finite"):
            micro_plan(epsilons=epsilons)

    def test_needs_methods(self):
        with pytest.raises(InvalidPlan):
            micro_plan(methods=[])

    def test_budget_factor_floor(self):
        with pytest.raises(InvalidPlan):
            micro_plan(iteration_budget_factor=0)

    def test_unknown_format(self):
        with pytest.raises(InvalidPlan):
            micro_plan(formats=("csv", "pdf"))

    def test_rejects_bare_oracle(self):
        # a bare oracle carries no known optimum; problems come as specs
        prob = QuadraticProblem(np.eye(4), np.full(4, 0.25))
        with pytest.raises(InvalidPlan):
            run_plan(micro_plan(problem=prob, methods=["GM"]))


class TestEmitTable:
    def test_one_by_one_csv_is_two_lines(self):
        table = ResultTable(epsilons=[1e-2], methods=["GM"], cells=[[17]])
        text = emit_table(table, "csv")
        assert text == "epsilon,GM\n0.01,17\n"

    def test_sentinel_preserved(self):
        table = ResultTable(
            epsilons=[1e-2], methods=["GM", "SR1"], cells=[[BUDGET_EXHAUSTED, "!"]]
        )
        assert emit_table(table, "csv").splitlines()[1] == "0.01,-,!"

    def test_markdown_layout(self):
        table = ResultTable(
            epsilons=[1e-1], methods=["GM"], cells=[[3]], metadata={"problem": "p", "seed": 0}
        )
        lines = emit_table(table, "md").splitlines()
        assert lines[0] == "**p, seed 0**"
        assert lines[2] == "| epsilon | GM |"
        assert lines[4] == "| 0.1 | 3 |"

    def test_error_cells_are_lossless_in_csv(self):
        table = ResultTable(epsilons=[1e-1], methods=["SR1"], cells=[[1.5625e3]])
        assert emit_table(table, "csv").splitlines()[1] == "0.1,1562.5"


class TestRunPlan:
    def test_golden_micro_plan(self):
        table = run_plan(micro_plan())
        assert emit_table(table, "csv") == (GOLDEN / "micro_iterations.csv").read_text()

    def test_rerun_is_byte_identical(self):
        a = emit_table(run_plan(micro_plan()), "csv")
        b = emit_table(run_plan(micro_plan()), "csv")
        assert a.encode() == b.encode()

    def test_counts_nondecreasing_down_columns(self):
        table = run_plan(micro_plan(methods=["GM", "SR1", "GrSR1", "RaSR1"]))
        for j in range(len(table.methods)):
            col = [row[j] for row in table.cells if isinstance(row[j], int)]
            assert col == sorted(col)

    def test_budget_exhaustion_marks_cells(self):
        plan = micro_plan(methods=["GM"], epsilons=[1e-1, 1e-9], iteration_budget_factor=1)
        table = run_plan(plan)
        assert table.cells[-1][0] == BUDGET_EXHAUSTED

    def test_quadratic_spec_runs(self):
        plan = ExperimentPlan(
            problem=QuadraticSpec(n=8, seed=5),
            methods=["GM", "GrSR1"],
            epsilons=[1e-2, 1e-8],
            seed=5,
        )
        table = run_plan(plan)
        assert all(isinstance(c, int) for row in table.cells for c in row)

    def test_writes_tables_and_traces(self, tmp_path):
        plan = micro_plan(output=str(tmp_path), formats=("csv", "md"))
        run_plan(plan)
        assert (tmp_path / "iterations.csv").exists()
        assert (tmp_path / "iterations.md").exists()
        for name in ("GM", "SR1", "GrSR1"):
            trace = (tmp_path / f"trace_{name}.csv").read_text().splitlines()
            assert trace[0] == "k,f,grad_norm,r_k,dir_index,lambda_f,sigma,op_error"
            assert len(trace) >= 2

    def test_trace_diagnostic_columns_filled_when_requested(self, tmp_path):
        from greedyqn.solvers import TraceOptions

        plan = micro_plan(
            methods=["GrSR1"],
            output=str(tmp_path),
            trace_options=TraceOptions(lambda_f=True, sigma=True, op_error=True),
        )
        run_plan(plan)
        line = (tmp_path / "trace_GrSR1.csv").read_text().splitlines()[1]
        fields = line.split(",")
        assert all(fields[i] != "" for i in (5, 6, 7))


class TestSharedOracle:
    """A plan runs its methods one after another on one oracle and its point cache."""

    @pytest.mark.parametrize("first,second", [("GrDFP", "GrSR1"), ("GrBFGS", "BFGS")])
    def test_trace_is_the_same_after_another_method(self, tmp_path, first, second):
        # the first method's last step leaves a carried record in the cache
        traces = []
        for methods in ([second], [first, second]):
            out = tmp_path / "_".join(methods)
            run_plan(ExperimentPlan(
                problem=SyntheticSpec(n=50, m=50, gamma=1.0, seed=1),
                methods=methods,
                epsilons=[1e-1, 1e-3, 1e-5, 1e-7, 1e-9],
                seed=1,
                output=str(out),
            ))
            traces.append((out / f"trace_{second}.csv").read_bytes())
        assert traces[0] == traces[1]


class TestThresholdExtraction:
    def make_trace(self, f_values, outcome):
        from greedyqn.solvers import IterationRecord, RunTrace

        records = [IterationRecord(k, f, 1.0) for k, f in enumerate(f_values)]
        return RunTrace(records=records, outcome=outcome)

    def test_first_crossing_index(self):
        from greedyqn.bench import _threshold_index
        from greedyqn.solvers import CONVERGED

        trace = self.make_trace([10.0, 5.0, 0.5, 0.05], CONVERGED)
        assert _threshold_index(trace, 0.5, 0.0) == 1  # 5 <= 0.5*10
        assert _threshold_index(trace, 1e-2, 0.0) == 3

    def test_budget_exhaustion_sentinel(self):
        from greedyqn.bench import _threshold_index
        from greedyqn.solvers import MAX_ITER_REACHED

        trace = self.make_trace([10.0, 9.0], MAX_ITER_REACHED)
        assert _threshold_index(trace, 1e-3, 0.0) == BUDGET_EXHAUSTED

    def test_failure_sentinel_with_partial_counts(self):
        from greedyqn.bench import _threshold_index
        from greedyqn.solvers import NUMERICAL_FAILURE

        trace = self.make_trace([10.0, 0.5], NUMERICAL_FAILURE)
        assert _threshold_index(trace, 0.1, 0.0) == 1  # met before the failure
        assert _threshold_index(trace, 1e-6, 0.0) == "!"

    def test_empty_trace_is_failure(self):
        from greedyqn.bench import _threshold_index
        from greedyqn.solvers import NUMERICAL_FAILURE

        trace = self.make_trace([], NUMERICAL_FAILURE)
        assert _threshold_index(trace, 0.1, 0.0) == "!"


class TestHessianErrorPlan:
    def test_rejects_gradient_method(self, monkeypatch):
        # only the error table is returned, so a GM run would be wasted
        prepared = []
        monkeypatch.setattr(bench, "_prepare", lambda plan: prepared.append(plan))
        with pytest.raises(InvalidPlan, match="gradient descent"):
            run_hessian_error_plan(micro_plan(methods=["GM", "SR1"]))
        assert prepared == []

    def test_quadratic_greedy_sr1_reaches_exact_hessian(self):
        plan = ExperimentPlan(
            problem=QuadraticSpec(n=8, seed=11),
            methods=["GrSR1"],
            epsilons=[1e-2, 1e-12],
            seed=11,
        )
        table = run_hessian_error_plan(plan)
        count_plan = ExperimentPlan(
            problem=QuadraticSpec(n=8, seed=11),
            methods=["GrSR1"],
            epsilons=[1e-2, 1e-12],
            seed=11,
        )
        counts = run_plan(count_plan)
        if counts.cells[-1][0] >= 8:  # identification complete by then
            assert table.cells[-1][0] <= 1e-10

    def test_classical_error_stays_near_initial(self):
        plan = micro_plan(methods=["SR1", "GrSR1"], epsilons=[1e-0, 1e-6])
        table = run_hessian_error_plan(plan)
        initial = table.cells[0][0]
        final = table.cells[-1][0]
        assert isinstance(initial, float) and isinstance(final, float)
        # greedy drives the error far below a classical run at tight accuracy
        assert table.cells[-1][1] < final


class TestLibsvmPlan:
    def test_missing_dataset_raises(self):
        plan = micro_plan(problem=LibsvmSpec(path="/nonexistent.libsvm", gamma=1.0))
        from greedyqn.errors import DatasetNotFound

        with pytest.raises(DatasetNotFound):
            run_plan(plan)

    def test_logistic_fixture_runs_and_caches_f_star(self, tmp_path):
        data = (GOLDEN / "tiny.libsvm").read_text()
        target = tmp_path / "tiny.libsvm"
        target.write_text(data)
        plan = ExperimentPlan(
            problem=LibsvmSpec(path=str(target), gamma=1.0),
            methods=["SR1", "GrSR1"],
            epsilons=[1e-1, 1e-6],
            seed=2,
        )
        table = run_plan(plan)
        assert all(isinstance(c, int) for row in table.cells for c in row)
        table2 = run_plan(plan)
        assert table2.cells == table.cells

    def test_f_star_follows_the_parsed_data(self, tmp_path):
        # a label remap changes the objective, so it changes the optimum
        target = tmp_path / "tiny.libsvm"
        target.write_text((GOLDEN / "tiny.libsvm").read_text())

        def f_star(label_map):
            return _prepare(micro_plan(problem=LibsvmSpec(str(target), 1.0, label_map))).f_star

        plain = f_star(None)
        remapped = f_star({-1.0: 1.0})
        assert remapped != plain
        assert f_star(None) == plain
        assert f_star({-1.0: 1.0}) == remapped

    def test_reference_is_solved_once_per_invocation(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "tiny.libsvm"
        target.write_text((GOLDEN / "tiny.libsvm").read_text())
        reference_solves = []
        newton_minimum = bench.newton_minimum

        def spy(oracle, *args):
            reference_solves.append(oracle.n)
            return newton_minimum(oracle, *args)

        monkeypatch.setattr(bench, "newton_minimum", spy)
        argv = ["--problem", "libsvm", "--dataset", str(target), "--methods", "SR1,GrSR1"]
        assert main(argv + ["--epsilons", "1e-1,1e-4", "--hessian-error"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("epsilon,SR1,GrSR1") == 2
        assert reference_solves == [7]

    def test_writes_nothing_beside_the_dataset(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "tiny.libsvm").write_text((GOLDEN / "tiny.libsvm").read_text())
        before = {p.name: p.read_bytes() for p in data.iterdir()}
        argv = ["--problem", "libsvm", "--dataset", str(data / "tiny.libsvm")]
        argv += ["--methods", "GM,SR1,GrSR1", "--epsilons", "1e-1,1e-4", "--hessian-error"]
        assert main(argv + ["--format", "csv,md", "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert {p.name: p.read_bytes() for p in data.iterdir()} == before
        assert (tmp_path / "out" / "iterations.csv").exists()

    @pytest.mark.parametrize("text", ["1\n-1\n", ""], ids=["labels-only", "empty"])
    @pytest.mark.parametrize("flags", [[], ["--n-features", "0"]], ids=["inferred", "override"])
    def test_dataset_without_features_is_refused(self, text, flags, tmp_path, monkeypatch, capsys):
        target = tmp_path / "nofeat.libsvm"
        target.write_text(text)

        def refuse(*args, **kwargs):
            raise AssertionError("no method may run on a dataset without features")

        for name in ("gradient_method", "classical_qn", "solve_general"):
            monkeypatch.setattr(bench, name, refuse)
        argv = ["--problem", "libsvm", "--dataset", str(target), "--methods", "GM,SR1,GrSR1"]
        assert main(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "no feature" in captured.err

    def test_overflowing_data_value_is_refused(self, tmp_path, capsys):
        target = tmp_path / "huge.libsvm"
        target.write_text("+1 1:1e200 2:1\n-1 2:3\n")
        argv = ["--problem", "libsvm", "--dataset", str(target), "--methods", "GrSR1"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: data entry 1e+200 at row 0, column 0 (0-based) is too large:"
            " the sum of squared entries overflows\n"
        )
        assert not (tmp_path / "out").exists()

    def test_overflowing_update_coefficients_end_greedy_runs_as_failures(
        self, capsys, monkeypatch
    ):
        # gamma is <Au, u> along the data's zero column 6; its square underflows to 0
        methods = ["GrDFP", "GrBFGS", "GrSR1", "DFP", "BFGS", "SR1", "RaSR1", "RaDFP", "GM"]
        argv = ["--problem", "libsvm", "--dataset", str(GOLDEN / "tiny.libsvm"), "--gamma",
                "1e-200", "--methods", ",".join(methods), "--epsilons", "1e-1,1e-3"]
        ends, refusals = [], []
        solve_general, apply_update = bench.solve_general, solvers._apply_family_update

        def solve_spy(oracle, x0, config):
            x, trace = solve_general(oracle, x0, config)
            ends.append((trace.failure_reason, trace.records[-1].k))
            return x, trace

        def update_spy(*args):
            try:
                return apply_update(*args)
            except Exception as exc:
                refusals.append(str(exc))
                raise

        monkeypatch.setattr(bench, "solve_general", solve_spy)
        monkeypatch.setattr(solvers, "_apply_family_update", update_spy)
        assert main(argv) == 0  # with warnings as errors, as the test suite runs
        captured = capsys.readouterr()
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        assert [row[1:4] for row in rows] == [["!"] * 3] * 2
        assert all(cell.isdigit() for row in rows for cell in row[4:])
        # stderr holds the wall times alone: no warning, note or traceback
        assert [line.split(":")[0] for line in captured.err.splitlines()] == [
            f"# {m}" for m in methods
        ]
        # GrDFP, GrBFGS, GrSR1, RaSR1, RaDFP: why and where each greedy run ends
        assert ends[:3] == [
            ("NonFiniteResult", 0),
            ("NotPositiveDefinite", 0),
            ("NotPositiveDefinite", 0),
        ]
        assert [reason for reason, _ in ends[3:]] == [None, None]
        # The new G_66 is gamma = 1e-200 in exact arithmetic, far below the
        # rounding of L - L: BFGS and SR1 both round it below 0.
        assert refusals[1:] == [refusals[1]] * 2
        assert re.fullmatch(r"update sets diagonal entry 5 to -\S+", refusals[1])

    @pytest.mark.parametrize(
        "argv",
        [
            # a subnormal Hessian diagonal entry along the data's zero column 6
            ["--problem", "libsvm", "--dataset", str(GOLDEN / "tiny.libsvm"), "--gamma", "5e-324",
             "--methods", "GrDFP,GrBFGS,GrSR1"],
            ["--problem", "libsvm", "--dataset", str(GOLDEN / "tiny.libsvm"), "--gamma", "1e-310",
             "--methods", "GrDFP,GrBFGS,GrSR1"],
            # G = gamma I, times the first correction factor 1 + 2 r_k, overflows
            ["--problem", "logsumexp", "--n", "3", "--m", "2", "--gamma", "1e300",
             "--methods", "GrDFP,GrBFGS,GrSR1,RaSR1,RaBFGS"],
        ],
    )
    def test_overflowing_greedy_readings_end_runs_as_failures(self, argv, capsys, monkeypatch):
        ends = []
        solve_general = bench.solve_general

        def solve_spy(oracle, x0, config):
            x, trace = solve_general(oracle, x0, config)
            last = trace.records[-1]
            ends.append((trace.failure_reason, len(trace.records), last.direction_index))
            return x, trace

        monkeypatch.setattr(bench, "solve_general", solve_spy)
        assert main(argv + ["--epsilons", "1e-1,1e-3"]) == 0  # warnings are errors here
        out = capsys.readouterr().out
        assert [row.split(",")[1:] for row in out.splitlines()[1:]] == [["!"] * len(ends)] * 2
        # each ends at k = 0, after the step's r_k and before a direction is chosen
        assert ends == [("NonFiniteResult", 1, None)] * len(ends)

    def test_non_converging_reference_is_refused(self, tmp_path, monkeypatch, capsys):
        # one Newton step does not reach the optimum of the tiny data at gamma = 1
        monkeypatch.setattr(solvers, "NEWTON_STEPS", 1)

        def refuse(*args, **kwargs):
            raise AssertionError("no method may run without a converged reference")

        for name in ("gradient_method", "classical_qn", "solve_general"):
            monkeypatch.setattr(bench, name, refuse)
        argv = ["--problem", "libsvm", "--dataset", str(GOLDEN / "tiny.libsvm")]
        argv += ["--methods", "SR1,GrSR1", "--hessian-error", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Newton's method did not converge in 1 steps")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "out").exists()


def _libsvm_text(labels, rows):
    """LIBSVM lines from labels and dense rows; a zero entry is left out of its line."""
    lines = []
    for label, row in zip(labels, rows):
        pairs = [f"{j + 1}:{float(v)!r}" for j, v in enumerate(row) if v != 0.0]
        lines.append(" ".join([f"{label:+d}"] + pairs))
    return "\n".join(lines) + "\n"


def _bfgs_least_f(oracle, budget):
    """The least f of a classical BFGS run from x = 0 to |grad f| <= 1e-13."""
    _, trace = solvers.classical_qn(
        oracle, np.zeros(oracle.n), UpdateRule.bfgs(), GradientNorm(1e-13), budget
    )
    return float(min(trace.f_values()))


def _value_calls(oracle, run):
    """The (f, x) of each ``oracle.value`` call that ``run()`` makes, in call order."""
    calls = []
    value = oracle.value

    def value_spy(x):
        calls.append((value(x), np.array(x)))
        return calls[-1][0]

    with mock.patch.object(oracle, "value", value_spy):
        run()
    return calls


def _logistic_f_extended(oracle, x):
    """The logistic objective at x, evaluated in ``np.longdouble`` from the oracle's data."""
    x = np.asarray(x, dtype=np.longdouble)
    t = oracle.labels.astype(np.longdouble) * (oracle.c.astype(np.longdouble) @ x)
    return np.sum(np.logaddexp(np.longdouble(0), -t)) + oracle.gamma * np.dot(x, x) / 2


@st.composite
def _sparse_libsvm(draw):
    """(text, n, gamma): m <= 12 rows over n <= 6 features, zero columns allowed."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_subnormal=False))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m))
    gamma = 10.0 ** draw(st.floats(-6.0, 6.0))
    return _libsvm_text(labels, rows), n, gamma


class TestReference:
    # Both points' double values lie within rounding of each other, so the
    # points are compared in extended precision: here Newton's double value
    # is 6 ulps above BFGS's least, and in long double 6.7e-18 above it.
    @example((
        "-1\n-1 2:-3.0\n-1 2:-2.3231160370444286 3:-2.450857991844078\n"
        "+1 2:-1.5 3:-1.7185737883684462\n-1 5:1.0\n-1 5:1.0\n", 5, 0.001,
    ))
    @settings(max_examples=60, deadline=None)
    @given(_sparse_libsvm())
    def test_newton_reaches_the_least_value_of_a_long_bfgs_run(self, data):
        text, n, gamma = data
        oracle = parse_libsvm(text, n_features=n).to_logistic(gamma)
        f_star = []  # the reference solve is refused if it does not converge
        newton = _value_calls(oracle, lambda: f_star.append(bench._reference_f_star(oracle)))
        # Newton's point is its last at f*: an earlier iterate may round to the same f.
        x_newton = [x for f, x in newton if f == f_star[0]][-1]
        bfgs = _value_calls(oracle, lambda: _bfgs_least_f(oracle, 2000))
        f_bfgs = min(_logistic_f_extended(oracle, x) for _, x in bfgs)
        assert _logistic_f_extended(oracle, x_newton) <= f_bfgs + np.spacing(float(f_bfgs))

    def test_conjugate_gradients_above_the_dense_cap(self, tmp_path, monkeypatch, capsys):
        n = DENSE_CAP + 1
        rng = np.random.default_rng(5)
        rows = np.zeros((4, n))
        for row in rows:
            cols = rng.choice(n, size=6, replace=False)
            row[cols] = np.round(rng.standard_normal(6), 3)
        target = tmp_path / "wide.libsvm"
        target.write_text(_libsvm_text([1, -1, 1, -1], rows))
        f_stars = []
        reference = bench._reference_f_star

        def reference_spy(oracle):
            f_stars.append(reference(oracle))
            return f_stars[-1]

        monkeypatch.setattr(bench, "_reference_f_star", reference_spy)
        argv = ["--problem", "libsvm", "--dataset", str(target), "--n-features", str(n)]
        with mock.patch.object(LogisticProblem, "hessian_vec", autospec=True,
                               side_effect=LogisticProblem.hessian_vec) as products:
            assert main(argv + ["--gamma", "1", "--methods", "GM"]) == 0
        assert capsys.readouterr().out.startswith("epsilon,GM\n")
        # full_hessian refuses n above the cap, so the Newton steps ran CG on products
        assert products.call_count > 0
        oracle = parse_libsvm(target.read_text(), n_features=n).to_logistic(1.0)
        f_bfgs = _bfgs_least_f(oracle, 200)
        assert f_stars == [pytest.approx(f_bfgs, rel=4 * np.finfo(float).eps)]


class TestCli:
    def test_full_run_writes_outputs(self, tmp_path, capsys):
        code = main(
            [
                "--problem",
                "logsumexp",
                "--n",
                "6",
                "--m",
                "5",
                "--gamma",
                "1.0",
                "--methods",
                "GM,GrSR1",
                "--epsilons",
                "1e-1,1e-4",
                "--seed",
                "7",
                "--out",
                str(tmp_path),
                "--format",
                "csv,md",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("epsilon,GM,GrSR1")
        assert (tmp_path / "iterations.csv").exists()

    def test_invalid_method_exits_two(self, capsys):
        assert main(["--methods", "Newton", "--epsilons", "1e-1"]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--gamma", "0"], "gamma must be positive and finite"),
            (["--gamma", "-1"], "gamma must be positive and finite"),
            (["--gamma", "nan"], "gamma must be positive and finite"),
            (["--gamma", "inf"], "gamma must be positive and finite"),
            (["--problem", "libsvm", "--gamma", "0"], "gamma must be positive and finite"),
            (["--problem", "libsvm", "--gamma", "nan"], "gamma must be positive and finite"),
            (["--n", "0"], "n must be at least 2"),
            (["--n", "1"], "n must be at least 2"),
            (["--m", "0"], "m must be at least 1"),
            (["--problem", "quadratic", "--n", "0"], "n must be at least 1"),
            (["--epsilons", "1e-1,nan"], "epsilons must be positive and finite"),
            (["--epsilons", "inf,1e-3"], "epsilons must be positive and finite"),
            (["--epsilons", "1e-1,abc"], "bad numeric setting"),
            (["--seed", "-1"], "seed must be non-negative"),
        ],
    )
    def test_bad_numeric_setting_exits_two(self, argv, message, monkeypatch, capsys):
        prepared = []
        monkeypatch.setattr(bench, "_prepare", lambda plan: prepared.append(plan))
        dataset = ["--dataset", str(GOLDEN / "tiny.libsvm")] if "libsvm" in argv else []
        assert main(argv + dataset + ["--methods", "GM,SR1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert prepared == []

    def test_an_index_beyond_int64_exits_two(self, tmp_path, capsys):
        dataset = tmp_path / "big.libsvm"
        dataset.write_text("+1 1:1 99999999999999999999:2\n-1 2:1\n")
        argv = ["--problem", "libsvm", "--dataset", str(dataset), "--methods", "GM"]
        assert main(argv + ["--epsilons", "1e-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 1: malformed (index 99999999999999999999")

    # 2 x (2^63 - 1) float64 entries pass what numpy can index, so the dense data
    # is refused before it is allocated.
    @pytest.mark.parametrize(
        "text,flags",
        [
            ("+1 1:1 9223372036854775807:2\n-1 2:1\n", []),
            ("+1 1:1\n-1 2:1\n", ["--n-features", "9223372036854775807"]),
        ],
        ids=["index", "n-features"],
    )
    def test_a_huge_feature_count_exits_two(self, tmp_path, capsys, text, flags):
        dataset = tmp_path / "huge.libsvm"
        dataset.write_text(text)
        argv = ["--problem", "libsvm", "--dataset", str(dataset), "--methods", "GM"]
        assert main(argv + flags + ["--epsilons", "1e-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: m=2 x n_features=9223372036854775807 float64 entries:"
            " more than numpy can index\n"
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--methods", "GrSR1,GrSR1", "--epsilons", "1.0000001e-1,1e-1,1e-3"],
             "repeated method: GrSR1"),
            (["--methods", "GM,GrSR1", "--epsilons", "1.0000001e-1,1e-1,1e-3"],
             "repeated epsilon label: 0.1"),
        ],
    )
    def test_ambiguous_plan_exits_two(self, argv, message, monkeypatch, capsys):
        # a repeated label would give two table rows or columns under one
        # name, and two runs one trace file and one wall-time line
        prepared = []
        monkeypatch.setattr(bench, "_prepare", lambda plan: prepared.append(plan))
        assert main(["--n", "6", "--m", "5", "--seed", "7"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert prepared == []

    def test_missing_dataset_exits_three(self, capsys):
        code = main(
            ["--problem", "libsvm", "--dataset", "/does/not/exist", "--epsilons", "1e-1"]
        )
        assert code == 3

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "# micro plan\n"
            "problem = logsumexp\n"
            "n = 6\n"
            "m = 5\n"
            "methods = GM\n"
            "epsilons = 1e-1,1e-3\n"
            "seed = 7\n"
        )
        code = main(["--config", str(cfg), "--methods", "GrSR1"])
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "epsilon,GrSR1"

    def test_config_file_unknown_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("n = 6\nm = 5\nmethods = GM\nepsilon = 1e-3\n")
        assert main(["--config", str(cfg)]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_label_remap_flag(self, tmp_path, capsys):
        data = tmp_path / "two.libsvm"
        data.write_text("2 1:1 2:0.5\n1 2:1\n2 1:-1\n1 1:0.5 2:-0.25\n")
        code = main(
            [
                "--problem",
                "libsvm",
                "--dataset",
                str(data),
                "--label-remap",
                "2:-1,1:1",
                "--methods",
                "SR1",
                "--epsilons",
                "1e-1,1e-4",
                "--seed",
                "1",
            ]
        )
        assert code == 0

    def test_hessian_error_flag_emits_second_table(self, capsys):
        code = main(
            [
                "--n",
                "6",
                "--m",
                "5",
                "--methods",
                "SR1,GrSR1",
                "--epsilons",
                "1e-1,1e-4",
                "--seed",
                "7",
                "--hessian-error",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("epsilon,SR1,GrSR1") == 2

    def test_hessian_error_pass_keeps_trace_columns(self, tmp_path, capsys):
        argv = ["--n", "6", "--m", "5", "--methods", "GM,SR1,GrSR1", "--epsilons", "1e-1,1e-4"]
        argv += ["--seed", "7", "--trace", "lambda_f", "--hessian-error", "--out", str(tmp_path)]
        assert main(argv) == 0
        counts = _read_columns(tmp_path / "iterations.csv")
        for name in ("SR1", "GrSR1"):
            rows = [row.split(",") for row in _trace_rows(tmp_path, name)]
            assert all(row[5] != "" for row in rows), name
            # op_error is taken exactly at the rows the error table reads
            assert [row[0] for row in rows if row[7] != ""] == counts[name]
        captured = capsys.readouterr()
        first, second = captured.out.split("\n\n")
        assert first.startswith("epsilon,GM,SR1,GrSR1\n")
        assert second.startswith("epsilon,SR1,GrSR1\n")
        for name in ("GM", "SR1", "GrSR1"):  # one run per method
            assert captured.err.count(f"# {name}: ") == 1, name

    def test_hessian_error_over_the_dense_cap_runs_no_method(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a method ran")

        for name in ("gradient_method", "classical_qn", "solve_general"):
            monkeypatch.setattr(bench, name, refuse)
        argv = ["--n", str(DENSE_CAP + 1), "--m", "3", "--methods", "GM,SR1,GrSR1"]
        assert main(argv + ["--epsilons", "1e-1", "--hessian-error"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dense cap" in captured.err

    def test_error_table_of_gm_alone_is_refused_before_the_data_is_read(
        self, monkeypatch, capsys
    ):
        called = []
        for name in ("parse_libsvm", "newton_minimum"):
            monkeypatch.setattr(bench, name, lambda *a, name=name, **k: called.append(name))
        argv = ["--problem", "libsvm", "--dataset", str(GOLDEN / "tiny.libsvm")]
        assert main(argv + ["--methods", "GM", "--hessian-error"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "no method with a Hessian approximation for the error table"
        assert captured.err == f"error: {message}\n"
        assert called == []  # neither parsed nor solved for its reference optimum

    def test_trace_over_the_dense_cap_runs_no_method(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a method ran")

        for name in ("gradient_method", "classical_qn", "solve_general"):
            monkeypatch.setattr(bench, name, refuse)
        argv = ["--n", str(DENSE_CAP + 1), "--m", "3", "--methods", "SR1", "--epsilons", "1e-1"]
        assert main(argv + ["--trace", "lambda_f", "--out", str(tmp_path / "D")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "dense cap" in captured.err
        assert not (tmp_path / "D").exists()

    def test_second_run_into_one_directory_is_refused(self, tmp_path, monkeypatch, capsys):
        argv = ["--m", "5", "--epsilons", "1e-1,1e-4", "--seed", "7", "--out", str(tmp_path)]
        assert main(argv + ["--n", "8", "--methods", "GM,SR1,GrSR1", "--hessian-error"]) == 0
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert "hessian_error.csv" in first and "trace_GrSR1.csv" in first
        capsys.readouterr()
        prepared = []
        monkeypatch.setattr(bench, "_prepare", lambda plan: prepared.append(plan))
        assert main(argv + ["--n", "12", "--methods", "GM"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "already holds" in captured.err
        assert prepared == []  # refused before the problem is built or any method runs
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first

    def test_output_path_that_is_a_file_is_refused(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "results"
        target.write_text("kept\n")
        prepared = []
        monkeypatch.setattr(bench, "_prepare", lambda plan: prepared.append(plan))
        assert main(["--methods", "GM,DFP", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "is not a directory" in captured.err
        assert prepared == []
        assert target.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "stale,refused",
        [
            ("iterations.md", True),
            ("hessian_error.csv", True),
            ("trace_RaSR1.csv", True),
            ("notes.txt", False),
            ("trace_GM.txt", False),
        ],
    )
    def test_output_directory_with_a_result_file_is_refused(self, tmp_path, capsys, stale, refused):
        (tmp_path / stale).write_text("kept\n")
        argv = ["--n", "6", "--m", "5", "--methods", "GM", "--epsilons", "1e-1"]
        assert main(argv + ["--out", str(tmp_path)]) == (2 if refused else 0)
        assert (stale in capsys.readouterr().err) == refused
        assert (tmp_path / stale).read_text() == "kept\n"
        assert (tmp_path / "iterations.csv").exists() != refused

    @pytest.mark.parametrize(
        "value,tables",
        [("YES", 2), ("True", 2), ("1", 2), ("no", 1), ("FALSE", 1), ("0", 1), ("on", 0), ("ture", 0)],
    )
    def test_config_file_hessian_error_switch(self, tmp_path, capsys, value, tables):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"n = 6\nm = 5\nmethods = SR1\nepsilons = 1e-1\nhessian-error = {value}\n")
        assert main(["--config", str(cfg)]) == (0 if tables else 2)
        captured = capsys.readouterr()
        assert captured.out.count("epsilon,SR1") == tables
        if not tables:
            assert "hessian-error" in captured.err

    def test_hessian_error_prepares_the_problem_once(self, monkeypatch, capsys):
        calls = []
        prepare = bench._prepare

        def spy(plan):
            calls.append(plan)
            return prepare(plan)

        monkeypatch.setattr(bench, "_prepare", spy)
        argv = ["--n", "6", "--m", "5", "--methods", "GM,SR1,GrSR1", "--epsilons", "1e-1,1e-4"]
        assert main(argv + ["--seed", "7", "--hessian-error"]) == 0
        assert capsys.readouterr().out.count("epsilon,") == 2
        assert len(calls) == 1

    def test_gradient_method_trace_records_lambda_f(self, tmp_path, capsys):
        argv = ["--n", "6", "--m", "5", "--methods", "GM", "--epsilons", "1e-1,1e-4"]
        argv += ["--seed", "7", "--trace", "lambda_f,sigma,op_error", "--out", str(tmp_path)]
        assert main(argv) == 0
        rows = (tmp_path / "trace_GM.csv").read_text().splitlines()[1:]
        oracle = generate_logsumexp(SyntheticSpec(n=6, m=5, gamma=1.0, seed=7))
        x = generate_start(6, 7)
        for row in rows:  # replay the iterates x_k of gradient descent
            cells = row.split(",")
            assert cells[6] == cells[7] == ""  # no approximation G for sigma, op_error
            assert float(cells[5]) == pytest.approx(lambda_f(oracle, x), rel=1e-12, abs=0.0)
            x = x - oracle.gradient(x) / oracle.lipschitz_l
        assert len(rows) > 1

    def test_default_plan_reproduces_the_pinned_paper_table(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path)]) == 0
        columns = _read_columns(tmp_path / "iterations.csv")
        assert columns == json.loads(PINS.read_text())["paper_table"]["iterations"]


# A value for every flag that differs from its default; libsvm-only flags are
# set on top of a libsvm plan.
_FLAG_VALUES = {
    "problem": "quadratic",
    "n": "7",
    "m": "9",
    "gamma": "0.5",
    "dataset": "other.libsvm",
    "label-remap": "2:-1,1:1",
    "n-features": "12",
    "methods": "SR1,GrBFGS",
    "epsilons": "1e-2,1e-5",
    "seed": "4",
    "budget-factor": "20",
    "out": "results",
    "format": "csv,md",
    "trace": "lambda_f,sigma",
    "hessian-error": "true",
}


def _flag_actions():
    return [a for a in _build_parser()._actions if a.dest not in ("help", "config")]


@pytest.mark.parametrize("action", _flag_actions(), ids=lambda a: a.option_strings[0])
def test_config_key_matches_flag(action, tmp_path):
    key = action.option_strings[0].removeprefix("--")
    value = _FLAG_VALUES[key]
    libsvm = key in ("dataset", "label-remap", "n-features")
    base = "problem = libsvm\ndataset = data.libsvm\n" if libsvm else ""
    (tmp_path / "base.cfg").write_text(base)
    (tmp_path / "key.cfg").write_text(f"{base}{key} = {value}\n")
    flag = [f"--{key}"] if action.nargs == 0 else [f"--{key}", value]

    def plan(*argv):
        return _plan_from_args(_parse_args(argv))

    from_config = plan("--config", str(tmp_path / "key.cfg"))
    assert from_config == plan("--config", str(tmp_path / "base.cfg"), *flag)
    assert from_config != plan("--config", str(tmp_path / "base.cfg"))


_ALL_METHODS = ["GM", "SR1", "DFP", "BFGS", "GrSR1", "GrDFP", "GrBFGS", "RaSR1", "RaDFP", "RaBFGS"]


@st.composite
def _small_plans(draw):
    n = draw(st.integers(2, 6))
    seed = str(draw(st.integers(0, 50)))
    if draw(st.booleans()):
        problem = ["--problem", "logsumexp", "--n", str(n), "--m", str(draw(st.integers(2, 6)))]
    else:
        problem = ["--problem", "quadratic", "--n", str(n)]
    methods = draw(st.lists(st.sampled_from(_ALL_METHODS[1:]), min_size=1, unique=True))
    if draw(st.booleans()):
        methods.insert(draw(st.integers(0, len(methods))), "GM")
    exponents = draw(st.lists(st.integers(1, 10), min_size=1, max_size=4, unique=True))
    epsilons = ",".join(f"1e-{e}" for e in sorted(exponents))
    budget = draw(st.sampled_from(["1", "3", "50"]))
    return problem + ["--methods", ",".join(methods), "--epsilons", epsilons, "--seed", seed,
                      "--budget-factor", budget], methods


@settings(max_examples=15, deadline=None)
@given(_small_plans())
def test_error_table_reads_the_iteration_runs(plan):
    """One run per method gives the error cells that op_error at every iterate gives."""
    argv, methods = plan
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        every, once = Path(tmp) / "every", Path(tmp) / "once"
        assert main(argv + ["--trace", "op_error", "--out", str(every)]) == 0
        solvers = [
            stack.enter_context(mock.patch.object(bench, name, wraps=getattr(bench, name)))
            for name in ("gradient_method", "classical_qn", "solve_general")
        ]
        assert main(argv + ["--hessian-error", "--out", str(once)]) == 0
        assert sum(solver.call_count for solver in solvers) == len(methods)
        counts = _read_columns(every / "iterations.csv")
        assert _read_columns(once / "iterations.csv") == counts
        errors = _read_columns(once / "hessian_error.csv")
        assert list(errors) == ["epsilon"] + [m for m in methods if m != "GM"]
        for method in errors.keys() - {"epsilon"}:
            rows = _trace_rows(every, method)
            for count, error in zip(counts[method], errors[method]):
                if count.isdigit():
                    assert error != "!"
                    assert error == rows[int(count)].split(",")[7]  # bit-equal: both .17g
                else:
                    assert error == count


# The default plan's iteration table (the paper's table), as perfbench/pins.json pins it.
PAPER_TABLE = """epsilon,GM,DFP,BFGS,SR1,GrDFP,GrBFGS,GrSR1
0.1,69,4,4,3,33,31,32
0.001,1913,822,56,16,445,56,52
1e-05,5416,1937,107,29,829,72,58
1e-07,9084,2859,152,39,1005,85,63
1e-09,12782,3645,196,48,1111,95,67
"""


class TestRoundingNoise:
    """Relative noise of 1e-12 on every update vector and solve moves no count of the paper's table.

    So a reordering of the operator arithmetic that moves a count is a
    defect, not rounding.
    """

    @pytest.mark.parametrize("seed", [1, 2])
    def test_default_plan_keeps_its_counts(self, seed, monkeypatch, capsys):
        rounding_noise(monkeypatch, 1e-12, seed)
        assert main([]) == 0
        assert capsys.readouterr().out == PAPER_TABLE
