"""Experiment driver: runs a (method x epsilon) matrix and emits result tables.

Each method runs once to the tightest requested accuracy; per-epsilon
iteration counts are extracted afterwards from the single trajectory, so a
looser threshold always reports a prefix of the same run.  Results are
emitted as CSV and/or Markdown tables plus one trace CSV per method.

The CLI reads a flat key-value config file (``key = value`` lines, ``#``
comments) whose keys match the command-line flag names; any other key is
refused, and explicit flags override the file.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .broyden import UpdateRule
from .data_io import RngStream, SyntheticSpec, generate_logsumexp, generate_start, parse_libsvm
from .errors import DatasetNotFound, GreedyQnError, InvalidPlan
from .objectives import DENSE_CAP, ObjectiveOracle, QuadraticProblem
from .operator_core import DenseSymmetric
from .solvers import (
    CONVERGED,
    MAX_ITER_REACHED,
    DirectionStrategy,
    FunctionResidual,
    GradientNorm,
    IterationRecord,
    SolverConfig,
    TraceOptions,
    _terminated,
    classical_qn,
    gradient_method,
    solve_general,
)

BUDGET_EXHAUSTED = "-"
FAILED = "!"

_RULES = {
    "SR1": UpdateRule.sr1,
    "DFP": UpdateRule.dfp,
    "BFGS": UpdateRule.bfgs,
}


@dataclass(frozen=True)
class MethodSpec:
    """One column of the experiment matrix."""

    name: str
    family: str  # "gm" | "classical" | "general"
    rule: UpdateRule | None = None
    random_directions: bool = False


def parse_method(name: str) -> MethodSpec:
    if name == "GM":
        return MethodSpec(name, "gm")
    if name in _RULES:
        return MethodSpec(name, "classical", rule=_RULES[name]())
    for prefix, random_dirs in (("Gr", False), ("Ra", True)):
        if name.startswith(prefix) and name[len(prefix):] in _RULES:
            return MethodSpec(
                name,
                "general",
                rule=_RULES[name[len(prefix):]](),
                random_directions=random_dirs,
            )
    raise InvalidPlan(f"unknown method {name!r}")


@dataclass(frozen=True)
class QuadraticSpec:
    """Seeded random SPD quadratic: A = M M^T / n + I with uniform M, b."""

    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidPlan(f"n must be at least 1, got {self.n}")

    def build(self) -> QuadraticProblem:
        rng = RngStream(self.seed, "data")
        m = rng.uniform(-1.0, 1.0, (self.n, self.n))
        a = m @ m.T / self.n + np.eye(self.n)
        b = rng.uniform(-1.0, 1.0, self.n)
        return QuadraticProblem(DenseSymmetric(a), b)


@dataclass(frozen=True)
class LibsvmSpec:
    """A local LIBSVM file plus the l2 coefficient of the logistic objective."""

    path: str
    gamma: float
    label_map: dict | None = None
    n_features: int | None = None


def _refuse_repeats(labels, what):
    """:class:`InvalidPlan` if a table label repeats: its rows or columns would read as one."""
    repeated = sorted({x for x in labels if labels.count(x) > 1})
    if repeated:
        raise InvalidPlan(f"repeated {what}: {', '.join(repeated)}")


@dataclass
class ExperimentPlan:
    problem: object  # SyntheticSpec | LibsvmSpec | QuadraticSpec
    methods: list
    epsilons: list
    seed: int
    iteration_budget_factor: int = 1000
    output: str | None = None
    formats: tuple = ("csv",)
    trace_options: TraceOptions = field(default_factory=TraceOptions)

    def __post_init__(self):
        self.methods = [
            m if isinstance(m, MethodSpec) else parse_method(m) for m in self.methods
        ]
        if not self.methods:
            raise InvalidPlan("no methods requested")
        _refuse_repeats([m.name for m in self.methods], "method")
        eps = [float(e) for e in self.epsilons]
        if not eps or not all(0.0 < e < np.inf for e in eps):
            raise InvalidPlan("epsilons must be positive and finite")
        if any(later >= earlier for earlier, later in zip(eps, eps[1:])):
            raise InvalidPlan("epsilons must be strictly decreasing")
        # table rows are labelled f"{eps:g}", so two epsilons must not share a label
        _refuse_repeats([f"{e:g}" for e in eps], "epsilon label")
        self.epsilons = eps
        if self.iteration_budget_factor < 1:
            raise InvalidPlan("iteration budget factor must be at least 1")
        bad = set(self.formats) - {"csv", "md"}
        if bad:
            raise InvalidPlan(f"unknown output formats: {sorted(bad)}")


@dataclass
class ResultTable:
    """Rows indexed by epsilon, columns by method.

    Cells hold an iteration count (int), a final-error value (float), or a
    sentinel: "-" for budget exhausted, "!" for numerical failure.
    """

    epsilons: list
    methods: list
    cells: list  # cells[i][j] for epsilons[i], methods[j]
    metadata: dict = field(default_factory=dict)


@dataclass
class _Prepared:
    oracle: ObjectiveOracle
    f_star: float
    x0: np.ndarray
    description: str


def _reference_f_star(oracle) -> float:
    """Logistic optimum: the least value of a classical SR1 solve to |grad f| <= 1e-13."""
    _, trace = classical_qn(
        oracle, np.zeros(oracle.n), UpdateRule.sr1(), GradientNorm(1e-13), 50 * oracle.n
    )
    if trace.outcome != CONVERGED:
        last = trace.records[-1]
        print(f"note: reference solve for f* ended {trace.outcome} ({trace.failure_reason})"
              f" at k={last.k}, |grad f|={last.grad_norm:.3g}", file=sys.stderr)
    return float(min(trace.f_values()))


def _prepare(plan: ExperimentPlan) -> _Prepared:
    prob = plan.problem
    if isinstance(prob, SyntheticSpec):
        oracle = generate_logsumexp(prob)
        f_star = oracle.value(np.zeros(oracle.n))
        desc = f"logsumexp n={prob.n} m={prob.m} gamma={prob.gamma:g}"
    elif isinstance(prob, LibsvmSpec):
        path = Path(prob.path)
        if not path.is_file():
            raise DatasetNotFound(f"dataset file not found: {path}")
        dataset = parse_libsvm(
            path.read_text(), label_map=prob.label_map, n_features=prob.n_features
        )
        if dataset.n_features < 1:
            raise InvalidPlan(f"dataset {path} has no feature (n = 0)")
        oracle = dataset.to_logistic(prob.gamma)
        f_star = _reference_f_star(oracle)
        desc = f"logistic {path.name} n={oracle.n} m={oracle.m} gamma={prob.gamma:g}"
    elif isinstance(prob, QuadraticSpec):
        oracle = prob.build()
        f_star = oracle.value(oracle.minimizer())
        desc = f"quadratic n={prob.n}"
    else:
        raise InvalidPlan(f"unsupported problem spec {type(prob).__name__}")
    x0 = generate_start(oracle.n, plan.seed)
    return _Prepared(oracle, f_star, x0, desc)


def _run_tables(plan: ExperimentPlan, prepared: _Prepared, errors: bool):
    """Run every method once to the tightest epsilon and read its tables off the traces.

    Returns the tables by file stem: "iterations" and, when ``errors`` is
    set, "hessian_error" for the methods other than GM; the runs then take
    ``op_error`` at the first iterate meeting each epsilon, the rows the
    error table reads.  Above the dense cap a plan asking for the error table
    or for any traced diagnostic is refused before a method runs.  With
    ``plan.output`` every table and trace file is written once.
    """
    oracle = prepared.oracle
    m_const = oracle.self_concordance_m or 0.0  # 0.0 turns the correction off
    error_methods = [m for m in plan.methods if m.family != "gm"]
    trace_opts = plan.trace_options
    if errors and not error_methods:
        raise InvalidPlan("no method with a Hessian approximation for the error table")
    dense = errors or trace_opts.lambda_f or trace_opts.sigma or trace_opts.op_error
    if dense and oracle.n > DENSE_CAP:
        raise InvalidPlan(f"n={oracle.n} exceeds the dense cap {DENSE_CAP}")
    if errors:
        trace_opts = replace(trace_opts, op_error_at=tuple(plan.epsilons))
    budget = plan.iteration_budget_factor * oracle.n
    termination = FunctionResidual(plan.epsilons[-1], prepared.f_star)
    traces = {}
    wall = {}
    for spec in plan.methods:
        t0 = time.perf_counter()
        if spec.family == "gm":
            _, trace = gradient_method(
                oracle, prepared.x0, termination, budget, trace_options=trace_opts
            )
        elif spec.family == "classical":
            _, trace = classical_qn(
                oracle, prepared.x0, spec.rule, termination, budget, trace_options=trace_opts
            )
        else:
            strategy = (
                DirectionStrategy.random_sphere(plan.seed)
                if spec.random_directions
                else DirectionStrategy.greedy()
            )
            config = SolverConfig(
                rule=spec.rule,
                strategy=strategy,
                termination=termination,
                max_iter=budget,
                correction=m_const > 0.0,
                m_const=m_const,
                trace=trace_opts,
            )
            _, trace = solve_general(oracle, prepared.x0, config)
        wall[spec.name] = time.perf_counter() - t0
        traces[spec.name] = trace

    metadata = {"problem": prepared.description, "seed": plan.seed, "wall_times": wall}

    def table(methods, cell):
        cells = [[cell(traces[m.name], eps, prepared.f_star) for m in methods]
                 for eps in plan.epsilons]
        return ResultTable(list(plan.epsilons), [m.name for m in methods], cells, metadata)

    tables = {"iterations": table(plan.methods, _threshold_index)}
    if errors:
        tables["hessian_error"] = table(error_methods, _op_error_at_threshold)
    if plan.output is not None:
        _write_outputs(plan, tables, traces)
    return tables


def _threshold_index(trace, epsilon: float, f_star: float):
    """First iteration meeting the residual threshold, or a sentinel."""
    f = trace.f_values()
    if f.size == 0:
        return FAILED
    hit = np.nonzero(_terminated(FunctionResidual(epsilon, f_star), f, f[0], None))[0]
    if hit.size:
        return int(hit[0])
    return BUDGET_EXHAUSTED if trace.outcome == MAX_ITER_REACHED else FAILED


def _op_error_at_threshold(trace, epsilon: float, f_star: float):
    """Hessian-approximation error at the first iterate meeting the threshold, or a sentinel."""
    idx = _threshold_index(trace, epsilon, f_star)
    if isinstance(idx, str):
        return idx
    err = trace.records[idx].op_error
    return float(err) if err is not None else FAILED


def run_plan(plan: ExperimentPlan) -> ResultTable:
    """Iteration-count table over the (method x epsilon) matrix."""
    return _run_tables(plan, _prepare(plan), errors=False)["iterations"]


def run_hessian_error_plan(plan: ExperimentPlan) -> ResultTable:
    """Final Hessian-approximation error per (method, epsilon).

    Cells hold the relative operator-norm error of the approximation at the
    first iterate meeting each threshold.  Gradient descent keeps no
    approximation and is rejected.
    """
    if any(m.family == "gm" for m in plan.methods):
        raise InvalidPlan("gradient descent has no Hessian approximation to report")
    return _run_tables(plan, _prepare(plan), errors=True)["hessian_error"]


def _format_cell(cell, markdown: bool = False) -> str:
    if isinstance(cell, float):
        return f"{cell:.2e}" if markdown else f"{cell:.17g}"
    return "" if cell is None else str(cell)


def emit_table(table: ResultTable, fmt: str) -> str:
    """Render a result table as "csv" or "md" text."""
    if fmt == "csv":
        lines = ["epsilon," + ",".join(table.methods)]
        for eps, row in zip(table.epsilons, table.cells):
            lines.append(
                f"{eps:g}," + ",".join(_format_cell(c, markdown=False) for c in row)
            )
        return "\n".join(lines) + "\n"
    if fmt == "md":
        header = "| epsilon | " + " | ".join(table.methods) + " |"
        rule = "|" + "---|" * (len(table.methods) + 1)
        lines = []
        desc = table.metadata.get("problem")
        if desc is not None:
            lines.append(f"**{desc}, seed {table.metadata.get('seed')}**")
            lines.append("")
        lines.extend([header, rule])
        for eps, row in zip(table.epsilons, table.cells):
            cells = " | ".join(_format_cell(c, markdown=True) for c in row)
            lines.append(f"| {eps:g} | {cells} |")
        return "\n".join(lines) + "\n"
    raise InvalidPlan(f"unknown format {fmt!r}")


def _trace_csv(trace) -> str:
    row = attrgetter(*(f.name for f in fields(IterationRecord)))  # in the header's order
    lines = ["k,f,grad_norm,r_k,dir_index,lambda_f,sigma,op_error"]
    lines += [",".join(map(_format_cell, row(r))) for r in trace.records]
    return "\n".join(lines) + "\n"


# The names of the files ``_write_outputs`` writes.
_OUTPUT_PATTERNS = ("iterations.*", "hessian_error.*", "trace_*.csv")


def _refuse_used_output(out):
    """:class:`InvalidPlan` if directory ``out`` holds a table or trace file already.

    The files of two runs in one directory would read as one result set.
    """
    if out is None:
        return
    used = sorted({p.name for pattern in _OUTPUT_PATTERNS for p in Path(out).glob(pattern)})
    if used:
        raise InvalidPlan(f"output directory {out} already holds {', '.join(used)}")


def _write_outputs(plan: ExperimentPlan, tables: dict, traces):
    out = Path(plan.output)
    out.mkdir(parents=True, exist_ok=True)
    for stem, table in tables.items():
        for fmt in plan.formats:
            (out / f"{stem}.{fmt}").write_text(emit_table(table, fmt))
    for name, trace in traces.items():
        (out / f"trace_{name}.csv").write_text(_trace_csv(trace))


# ---------------------------------------------------------------------------
# Command-line interface


def _parse_kv_config(path: str) -> dict:
    """Flat config file: one ``key = value`` per line, ``#`` comments."""
    values = {}
    text = Path(path).read_text()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidPlan(f"{path}:{line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _parse_label_map(text: str) -> dict:
    out = {}
    for pair in text.split(","):
        pair = pair.strip()
        if not pair:
            continue
        try:
            src, dst = pair.split(":", 1)
            out[float(src)] = float(dst)
        except ValueError:
            raise InvalidPlan(f"bad label-remap pair {pair!r}") from None
    return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="greedyqn-bench",
        description="Run a (method x accuracy) quasi-Newton benchmark matrix.",
    )
    p.add_argument("--config", help="flat key-value config file; flags override it")
    p.add_argument("--problem", choices=["logsumexp", "libsvm", "quadratic"])
    p.add_argument("--n", type=int, help="dimension (logsumexp/quadratic)")
    p.add_argument("--m", type=int, help="number of data rows (logsumexp)")
    p.add_argument("--gamma", type=float, help="l2 regularization coefficient")
    p.add_argument("--dataset", help="LIBSVM file path (libsvm problem)")
    p.add_argument("--label-remap", help="comma list of from:to label pairs")
    p.add_argument("--n-features", type=int, help="override inferred feature count")
    p.add_argument("--methods", help="comma list, e.g. GM,SR1,GrSR1,RaBFGS")
    p.add_argument("--epsilons", help="comma list, strictly decreasing")
    p.add_argument("--seed", type=int)
    p.add_argument("--budget-factor", type=int, help="iteration budget = factor * n")
    p.add_argument("--out", help="output directory")
    p.add_argument("--format", help="comma subset of csv,md")
    p.add_argument(
        "--trace",
        help="comma subset of lambda_f,sigma,op_error to record per iteration",
    )
    p.add_argument(
        "--hessian-error",
        action="store_true",
        default=None,
        help="also emit the final Hessian-approximation-error table",
    )
    return p


_DEFAULTS = {
    "problem": "logsumexp",
    "n": 50,
    "m": 50,
    "gamma": 1.0,
    "methods": "GM,DFP,BFGS,SR1,GrDFP,GrBFGS,GrSR1",
    "epsilons": "1e-1,1e-3,1e-5,1e-7,1e-9",
    "seed": 1,
    "budget-factor": 1000,
    "format": "csv",
}


def _plan_from_args(args) -> tuple[ExperimentPlan, bool]:
    flags = {k.replace("_", "-"): v for k, v in vars(args).items() if k != "config"}
    settings = dict(_DEFAULTS)
    if args.config:
        from_file = _parse_kv_config(args.config)
        unknown = sorted(set(from_file) - set(flags))
        if unknown:
            raise InvalidPlan(f"{args.config}: unknown config keys {unknown}")
        settings.update(from_file)
    settings.update({k: v for k, v in flags.items() if v is not None})

    try:
        n = int(settings["n"])
        m = int(settings["m"])
        gamma = float(settings["gamma"])
        seed = int(settings["seed"])
        budget = int(settings["budget-factor"])
        epsilons = [float(e) for e in str(settings["epsilons"]).split(",") if e]
        n_features = settings.get("n-features")
        n_features = int(n_features) if n_features is not None else None
    except (TypeError, ValueError) as exc:
        raise InvalidPlan(f"bad numeric setting: {exc}") from None
    if seed < 0:
        raise InvalidPlan(f"seed must be non-negative, got {seed}")

    kind = settings["problem"]
    if kind in ("logsumexp", "libsvm") and not 0.0 < gamma < np.inf:
        raise InvalidPlan(f"gamma must be positive and finite, got {gamma}")
    if kind == "logsumexp":
        try:
            problem = SyntheticSpec(n=n, m=m, gamma=gamma, seed=seed)
        except ValueError as exc:
            raise InvalidPlan(f"bad problem setting: {exc}") from None
    elif kind == "quadratic":
        problem = QuadraticSpec(n=n, seed=seed)
    elif kind == "libsvm":
        if not settings.get("dataset"):
            raise InvalidPlan("libsvm problem needs --dataset")
        label_map = None
        if settings.get("label-remap"):
            label_map = _parse_label_map(settings["label-remap"])
        problem = LibsvmSpec(
            path=settings["dataset"],
            gamma=gamma,
            label_map=label_map,
            n_features=n_features,
        )
    else:
        raise InvalidPlan(f"unknown problem kind {kind!r}")

    trace_fields = {"lambda_f": False, "sigma": False, "op_error": False}
    if settings.get("trace"):
        for name in str(settings["trace"]).split(","):
            name = name.strip()
            if name not in trace_fields:
                raise InvalidPlan(f"unknown trace column {name!r}")
            trace_fields[name] = True

    plan = ExperimentPlan(
        problem=problem,
        methods=[s for s in str(settings["methods"]).split(",") if s],
        epsilons=epsilons,
        seed=seed,
        iteration_budget_factor=budget,
        output=settings.get("out"),
        formats=tuple(f for f in str(settings["format"]).split(",") if f),
        trace_options=TraceOptions(**trace_fields),
    )
    switches = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
    switch = str(settings.get("hessian-error", False)).lower()
    if switch not in switches:
        raise InvalidPlan(f"hessian-error must be one of {sorted(switches)}, not {switch!r}")
    return plan, switches[switch]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        plan, want_error_table = _plan_from_args(args)
        _refuse_used_output(plan.output)
        tables = _run_tables(plan, _prepare(plan), want_error_table)
        print("\n".join(emit_table(t, "csv") for t in tables.values()), end="")
        for name, seconds in tables["iterations"].metadata["wall_times"].items():
            print(f"# {name}: {seconds:.2f}s", file=sys.stderr)
    except DatasetNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidPlan, GreedyQnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
