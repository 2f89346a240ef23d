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
from .objectives import ObjectiveOracle, QuadraticProblem
from .solvers import (
    MAX_ITER_REACHED,
    DirectionStrategy,
    FunctionResidual,
    IterationRecord,
    SolverConfig,
    TraceOptions,
    _terminated,
    classical_qn,
    gradient_method,
    newton_minimum,
    solve_general,
)

BUDGET_EXHAUSTED = "-"
FAILED = "!"

_RULES = {"SR1": UpdateRule.sr1(), "DFP": UpdateRule.dfp(), "BFGS": UpdateRule.bfgs()}


@dataclass(frozen=True)
class MethodSpec:
    """One column of the experiment matrix, known by its command-line name: "GM",
    a classical "SR1", "DFP" or "BFGS", or one of those three behind "Gr" (greedy)
    or "Ra" (random directions).  Other names are refused; the rest is read off it."""

    name: str

    def __post_init__(self):
        if self.family != "gm" and self.rule is None:
            raise InvalidPlan(f"unknown method {self.name!r}")

    @property
    def family(self) -> str:
        """One of "gm", "classical" or "general"."""
        if self.name == "GM":
            return "gm"
        return "general" if self.name[:2] in ("Gr", "Ra") else "classical"

    @property
    def rule(self) -> UpdateRule | None:
        return _RULES.get(self.name[2:] if self.family == "general" else self.name)

    @property
    def random_directions(self) -> bool:
        return self.name.startswith("Ra")


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
        return QuadraticProblem(a, b)


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
        self.methods = [m if isinstance(m, MethodSpec) else MethodSpec(m) for m in self.methods]
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
    """Logistic optimum: the least value of a Newton solve from x = 0.

    Refused as :class:`~greedyqn.errors.NotConverged` when the solve does
    not stop within its step budget (:func:`~greedyqn.solvers.newton_minimum`).
    """
    return newton_minimum(oracle, np.zeros(oracle.n))


def _prepare(plan: ExperimentPlan) -> _Prepared:
    """The plan's oracle, f*, start and description; a plan whose trace options need
    the dense Hessian is refused by the oracle's cap check before any f* work."""
    prob = plan.problem
    if isinstance(prob, SyntheticSpec):
        oracle = generate_logsumexp(prob)
        f_star = lambda: oracle.value(np.zeros(oracle.n))
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
        f_star = lambda: _reference_f_star(oracle)
        desc = f"logistic {path.name} n={oracle.n} m={oracle.m} gamma={prob.gamma:g}"
    elif isinstance(prob, QuadraticSpec):
        oracle = prob.build()
        f_star = lambda: oracle.value(oracle.minimizer())
        desc = f"quadratic n={prob.n}"
    else:
        raise InvalidPlan(f"unsupported problem spec {type(prob).__name__}")
    if plan.trace_options.dense or plan.trace_options.op_error_at:
        oracle._check_cap()
    return _Prepared(oracle, f_star(), generate_start(oracle.n, plan.seed), desc)


def _run_tables(plan: ExperimentPlan, errors: bool):
    """Prepare the problem, run every method once to the tightest epsilon, and read the tables.

    Returns the tables by file stem: "iterations" and, when ``errors`` is
    set, "hessian_error" for the methods other than GM; the runs then take
    ``op_error`` at the first iterate meeting each epsilon, the rows the
    error table reads.  An error table with no method besides GM is refused
    before the problem is prepared.  Above the dense cap a plan asking for
    the error table or for any traced diagnostic is refused by
    :func:`_prepare`, before the reference solve.  With ``plan.output``
    every table and trace file is written once.
    """
    error_methods = [m for m in plan.methods if m.family != "gm"]
    if errors:
        if not error_methods:
            raise InvalidPlan("no method with a Hessian approximation for the error table")
        op_error_at = tuple(plan.epsilons)
        plan = replace(plan, trace_options=replace(plan.trace_options, op_error_at=op_error_at))
    prepared = _prepare(plan)
    oracle = prepared.oracle
    m_const = oracle.self_concordance_m or 0.0  # 0.0 turns the correction off
    trace_opts = plan.trace_options
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
            config = SolverConfig(
                rule=spec.rule,
                strategy=DirectionStrategy(plan.seed if spec.random_directions else None),
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
    return _run_tables(plan, errors=False)["iterations"]


def run_hessian_error_plan(plan: ExperimentPlan) -> ResultTable:
    """Final Hessian-approximation error per (method, epsilon).

    Cells hold the relative operator-norm error of the approximation at the
    first iterate meeting each threshold.  GM, with no approximation, is
    refused first: only this table is returned, so its run would be wasted.
    """
    if any(m.family == "gm" for m in plan.methods):
        raise InvalidPlan("gradient descent has no Hessian approximation to report")
    return _run_tables(plan, errors=True)["hessian_error"]


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
    """:class:`InvalidPlan` if ``out`` is not a directory or holds a table or trace file already.

    The files of two runs in one directory would read as one result set.
    """
    if out is None:
        return
    if Path(out).exists() and not Path(out).is_dir():
        raise InvalidPlan(f"output path {out} is not a directory")
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
        exit_on_error=False,
    )
    p.add_argument("--config", help="flat key-value config file; flags override it")
    p.add_argument("--problem", default="logsumexp", choices=["logsumexp", "libsvm", "quadratic"])
    p.add_argument("--n", type=int, default=50, help="dimension (logsumexp/quadratic)")
    p.add_argument("--m", type=int, default=50, help="number of data rows (logsumexp)")
    p.add_argument("--gamma", type=float, default=1.0, help="l2 regularization coefficient")
    p.add_argument("--dataset", help="LIBSVM file path (libsvm problem)")
    p.add_argument("--label-remap", help="comma list of from:to label pairs")
    p.add_argument("--n-features", type=int, help="override inferred feature count")
    p.add_argument("--methods", default="GM,DFP,BFGS,SR1,GrDFP,GrBFGS,GrSR1",
                   help="comma list, e.g. GM,SR1,GrSR1,RaBFGS")
    p.add_argument("--epsilons", default="1e-1,1e-3,1e-5,1e-7,1e-9",
                   help="comma list, strictly decreasing")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--budget-factor", type=int, default=1000, help="iteration budget = factor * n")
    p.add_argument("--out", help="output directory")
    p.add_argument("--format", default="csv", help="comma subset of csv,md")
    p.add_argument(
        "--trace",
        help="comma subset of lambda_f,sigma,op_error to record per iteration",
    )
    p.add_argument(
        "--hessian-error",
        action="store_true",
        help="also emit the final Hessian-approximation-error table",
    )
    return p


def _config_argv(path: str, parser: argparse.ArgumentParser) -> list:
    """A config file's ``key = value`` lines (``#`` comments) as ``--key=value`` flags.

    A key names a flag other than ``--config``, and its last line wins.  The
    switch ``hessian-error`` takes a yes/no word and becomes the bare flag or nothing.
    """
    actions = [a for a in parser._actions if a.dest not in ("help", "config")]
    nargs = {a.option_strings[0]: a.nargs for a in actions}
    settings = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidPlan(f"{path}:{line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        settings[key.strip()] = value.strip()
    unknown = sorted(k for k in settings if f"--{k}" not in nargs)
    if unknown:
        raise InvalidPlan(f"{path}: unknown config keys {unknown}")
    switches = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
    argv = []
    for key, value in settings.items():
        if nargs[f"--{key}"] != 0:
            argv.append(f"--{key}={value}")
        elif value.lower() not in switches:
            raise InvalidPlan(f"{key} must be one of {sorted(switches)}, not {value.lower()!r}")
        elif switches[value.lower()]:
            argv.append(f"--{key}")
    return argv


def _parse_args(argv) -> argparse.Namespace:
    """Command-line flags over the ``--config`` file's settings over the defaults.

    The file's flags go first and argparse keeps a flag's last value.  A bad
    value, given either way, is refused as :class:`InvalidPlan`.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_config_argv(args.config, parser) + argv)
    except argparse.ArgumentError as exc:
        raise InvalidPlan(str(exc)) from None
    return args


def _plan_from_args(args) -> tuple[ExperimentPlan, bool]:
    try:
        epsilons = [float(e) for e in args.epsilons.split(",") if e]
    except ValueError as exc:
        raise InvalidPlan(f"bad numeric setting: {exc}") from None
    if args.seed < 0:
        raise InvalidPlan(f"seed must be non-negative, got {args.seed}")

    if args.problem in ("logsumexp", "libsvm") and not 0.0 < args.gamma < np.inf:
        raise InvalidPlan(f"gamma must be positive and finite, got {args.gamma}")
    if args.problem == "logsumexp":
        try:
            problem = SyntheticSpec(n=args.n, m=args.m, gamma=args.gamma, seed=args.seed)
        except ValueError as exc:
            raise InvalidPlan(f"bad problem setting: {exc}") from None
    elif args.problem == "quadratic":
        problem = QuadraticSpec(n=args.n, seed=args.seed)
    else:
        if not args.dataset:
            raise InvalidPlan("libsvm problem needs --dataset")
        problem = LibsvmSpec(
            path=args.dataset,
            gamma=args.gamma,
            label_map=_parse_label_map(args.label_remap) if args.label_remap else None,
            n_features=args.n_features,
        )

    trace_fields = {"lambda_f": False, "sigma": False, "op_error": False}
    if args.trace:
        for name in args.trace.split(","):
            name = name.strip()
            if name not in trace_fields:
                raise InvalidPlan(f"unknown trace column {name!r}")
            trace_fields[name] = True

    plan = ExperimentPlan(
        problem=problem,
        methods=[s for s in args.methods.split(",") if s],
        epsilons=epsilons,
        seed=args.seed,
        iteration_budget_factor=args.budget_factor,
        output=args.out,
        formats=tuple(f for f in args.format.split(",") if f),
        trace_options=TraceOptions(**trace_fields),
    )
    return plan, args.hessian_error


def main(argv=None) -> int:
    try:
        plan, want_error_table = _plan_from_args(_parse_args(argv))
        _refuse_used_output(plan.output)
        tables = _run_tables(plan, want_error_table)
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
