"""Run one benchmark workload in this process and print one JSON result.

``run.py`` starts this script in a fresh single-threaded process per
workload, so that the peak resident memory is the workload's own.  The
package is imported before anything is timed.  One untimed warm-up call
comes first; then calls repeat for ``--seconds`` (at least ``MIN_CALLS``).
Every call's output is checked against ``pins.json``.

With ``--trace 1`` untraced and traced calls alternate: the traced calls
give the per-layer metrics, and the difference of the two wall-time
medians is the tracing overhead.  Without ``--pins`` the script makes one
call and prints its outputs, which is how ``pin.py`` records them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy
from greedyqn import bench, data_io, objectives, solvers
from greedyqn.broyden import UpdateRule

import tracing

ROOT = Path(__file__).resolve().parent.parent
MIN_CALLS = 3

PAPER_ARGV = ["--format", "csv,md"]
LOGISTIC_ARGV = [
    "--problem", "libsvm",
    "--label-remap", "2:-1,1:1",
    "--n-features", "100",
    "--gamma", "1",
    "--methods", "SR1,BFGS,GrSR1,GrBFGS,RaSR1",
    "--epsilons", "1e-1,1e-3,1e-5,1e-7,1e-9",
    "--hessian-error",
    "--format", "csv,md",
]
GREEDY_N = 1000
GREEDY_BUDGET = 100
GREEDY_EPSILON = 1e-9
GREEDY_SETUPS = 3
HESSIAN_ERROR_RTOL = 1e-6
F_FINAL_RTOL = 1e-10


class IterationClock:
    """Instrument of untraced calls: iteration gaps and set-up time.

    Every solver evaluates ``value`` exactly once per iteration, so the gap
    between two calls within one solver run is one iteration: one clock
    read per iteration.  ``bench._prepare`` is timed as the CLI's set-up.
    """

    def __init__(self):
        self.prepare_s = 0.0
        self._last = None
        self._gaps_ns = []
        self._samples = []  # float32 ms per call, so the samples barely add to peak RSS

    def mark(self) -> int:
        self._flush()
        self._last = None
        self.prepare_s = 0.0
        return 0

    def _flush(self):
        if self._gaps_ns:
            self._samples.append((np.array(self._gaps_ns) / 1e6).astype(np.float32))
            self._gaps_ns = []

    def clear(self):
        self._gaps_ns = []
        self._samples = []

    def gaps_ms(self) -> np.ndarray:
        self._flush()
        return np.concatenate(self._samples).astype(float)

    def _tick(self, fn):
        def value(oracle, x):
            now = time.perf_counter_ns()
            if self._last is not None:
                self._gaps_ns.append(now - self._last)
            self._last = now
            return fn(oracle, x)

        return value

    def _segment(self, fn):
        def solver(*args, **kwargs):
            self._last = None
            try:
                return fn(*args, **kwargs)
            finally:
                self._last = None

        return solver

    def _timed(self, fn):
        def prepare(plan):
            t0 = time.perf_counter()
            try:
                return fn(plan)
            finally:
                self.prepare_s += time.perf_counter() - t0

        return prepare

    def installed(self):
        self._last = None
        oracles = (objectives.LogSumExpProblem, objectives.LogisticProblem)
        solver_names = ("gradient_method", "classical_qn", "solve_general")
        return tracing.patched(
            [(cls, "value", self._tick) for cls in oracles]
            + [(bench, name, self._segment) for name in solver_names]
            + [(bench, "_prepare", self._timed)]
        )


def _read_table(path: Path) -> dict:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return {col[0]: list(col[1:]) for col in zip(*rows)}


class CliWorkload:
    """One ``greedyqn-bench`` invocation per call, in a fresh directory."""

    def __init__(self, argv, work: Path, dataset: Path | None):
        self.argv = argv
        self.work = work
        self.dataset = dataset

    def call(self, instrument):
        """One call; returns (wall_s, set-up times in s, outputs, root span index)."""
        rep = Path(tempfile.mkdtemp(dir=self.work))
        try:
            argv = self.argv + ["--out", str(rep / "out")]
            if self.dataset is not None:
                # A fresh directory per call: each call parses the file and
                # solves for the reference optimum, as on a new dataset.
                shutil.copy(self.dataset, rep / self.dataset.name)
                argv += ["--dataset", str(rep / self.dataset.name)]
            sink = io.StringIO()
            with instrument.installed(), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                root = instrument.mark()
                t0 = time.perf_counter()
                code = bench.main(argv)
                wall = time.perf_counter() - t0
            outputs = {"exit_code": code}
            for stem in ("iterations", "hessian_error"):
                table = rep / "out" / f"{stem}.csv"
                if table.is_file():
                    outputs[stem] = _read_table(table)
            return wall, [instrument.prepare_s], outputs, root
        finally:
            shutil.rmtree(rep, ignore_errors=True)


class GreedyWorkload:
    """Greedy BFGS with correction on a seeded n=m=1000 log-sum-exp instance."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        spec = data_io.SyntheticSpec(n=GREEDY_N, m=GREEDY_N, gamma=1.0, seed=self.seed)
        oracle = data_io.generate_logsumexp(spec)
        x0 = data_io.generate_start(GREEDY_N, self.seed)
        f_star = oracle.value(np.zeros(GREEDY_N))  # the minimizer is the origin
        config = solvers.SolverConfig(
            rule=UpdateRule.bfgs(),
            strategy=solvers.DirectionStrategy.greedy(),
            termination=solvers.FunctionResidual(GREEDY_EPSILON, f_star),
            max_iter=GREEDY_BUDGET,
            correction=True,
            m_const=oracle.self_concordance_m,
        )
        return oracle, x0, config

    def call(self, instrument):
        """One call; returns (wall_s, set-up times in s, outputs, root span index).

        Set-up is short next to the solve, so each call repeats it
        ``GREEDY_SETUPS`` times to give ``setup_s`` enough samples; only the
        last repetition runs under the instrument.
        """
        setups = []
        for _ in range(GREEDY_SETUPS - 1):
            t0 = time.perf_counter()
            self.setup()
            setups.append(time.perf_counter() - t0)
        with instrument.installed():
            t0 = time.perf_counter()
            oracle, x0, config = self.setup()
            setups.append(time.perf_counter() - t0)
            root = instrument.mark()
            t1 = time.perf_counter()
            _, trace = solvers.solve_general(oracle, x0, config)
            wall = time.perf_counter() - t1
        last = trace.records[-1]
        outputs = {"outcome": trace.outcome, "iterations": last.k, "f_final": last.f_value}
        return wall, setups, outputs, root


def _close(got: str, pinned: str, rtol: float) -> bool:
    try:
        return math.isclose(float(got), float(pinned), rel_tol=rtol)
    except ValueError:  # a sentinel such as "-" or "!"
        return got == pinned


def check(workload: str, outputs: dict, pins: dict) -> tuple[int, list]:
    """Compare one call's outputs with its pins.

    Returns the number of method runs checked and a description of each
    failed one.
    """
    if workload == "greedy_n1000":
        ok = (
            outputs["outcome"] == solvers.MAX_ITER_REACHED
            and outputs["iterations"] == GREEDY_BUDGET
            and math.isclose(outputs["f_final"], pins["f_final"], rel_tol=F_FINAL_RTOL)
        )
        return 1, [] if ok else [f"GrBFGS: {outputs}, pinned {pins}"]
    runs, failed = 0, []
    for stem, pinned in pins.items():
        got_table = outputs.get(stem, {})
        for method, cells in pinned.items():
            if method == "epsilon":
                continue
            runs += 1
            got = got_table.get(method)
            if outputs["exit_code"] != 0 or got is None:
                ok = False
            elif stem == "iterations":
                ok = got == cells
            else:
                ok = len(got) == len(cells) and all(
                    _close(g, c, HESSIAN_ERROR_RTOL) for g, c in zip(got, cells)
                )
            if not ok:
                failed.append(f"{stem}/{method}: {got} (exit {outputs['exit_code']}), pinned {cells}")
    return runs, failed


def matvec_ms(n: int) -> float:
    """Median time of one dense n x n matrix-vector product, in ms."""
    rng = np.random.Generator(np.random.PCG64(0))
    a = rng.standard_normal((n, n))
    v = rng.standard_normal(n)
    inner = max(1, 200_000 // (n * n))
    times = []
    for _ in range(31):
        t0 = time.perf_counter()
        for _ in range(inner):
            a @ v
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times) * 1e3


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS bundled with numpy and scipy."""
    out = {}
    for pkg in (np, scipy):
        site = Path(pkg.__file__).resolve().parent.parent
        for lib in sorted(site.glob(f"{pkg.__name__}.libs/*openblas*")):
            handle = ctypes.CDLL(str(lib))  # already loaded: the same library instance
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[lib.name] = fn()
                    break
    return out


def environment(n: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "calib.matvec_ms": matvec_ms(n),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["paper_table", "greedy_n1000", "logistic_hessian_error"])
    p.add_argument("--instance", type=int, required=True, help="instance seed")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--work", type=Path, required=True, help="directory for call outputs")
    p.add_argument("--dataset", type=Path, help="LIBSVM file of the logistic workload")
    p.add_argument("--pins", type=Path, help="pinned outputs to check every call against")
    p.add_argument("--spans", type=Path, help="file for the last traced call's spans")
    args = p.parse_args(argv)

    src = ROOT / "src"
    if Path(bench.__file__).resolve().parents[1] != src:
        raise SystemExit(f"greedyqn imported from {bench.__file__}, not from {src}")

    if args.workload == "paper_table":
        workload, n = CliWorkload(PAPER_ARGV, args.work, None), 50
    elif args.workload == "logistic_hessian_error":
        workload, n = CliWorkload(LOGISTIC_ARGV, args.work, args.dataset), 100
    else:
        workload, n = GreedyWorkload(args.instance), GREEDY_N

    clock = IterationClock()
    if args.pins is None:
        print(json.dumps({"outputs": workload.call(clock)[2]}))
        return 0
    pins = json.loads(args.pins.read_text())[args.workload]
    if args.workload != "paper_table":
        pins = pins[str(args.instance)]

    runs, failed = 0, []

    def checked_call(instrument):
        nonlocal runs
        wall, setup, outputs, root = workload.call(instrument)
        checked, bad = check(args.workload, outputs, pins)
        runs += checked
        failed.extend(bad)
        return wall, setup, root

    env = environment(n)
    checked_call(clock)  # warm-up
    clock.clear()

    walls, setups, layers, tracer = [], [], [], None
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        wall, setup, _ = checked_call(clock)
        walls.append(wall)
        setups.extend(setup)
        if args.trace:
            tracer = tracing.Tracer()
            _, _, root = checked_call(tracer)
            layers.append(tracing.summarize(tracer, root, env["calib.matvec_ms"]))
        # Stop before a further call of the same length would overrun.
        now = time.perf_counter()
        if len(walls) >= (1 if args.trace else MIN_CALLS) and now + (now - t0) > deadline:
            break

    gaps_ms = clock.gaps_ms()
    iter_p50 = float(np.percentile(gaps_ms, 50))
    result = {"attempted": runs, "failed": len(failed), "problems": failed[:10],
              "walls": walls, "env": env}
    if args.trace:
        metrics = {k: statistics.median(run[k] for run in layers) for k in layers[0]}
        metrics["calib.matvec_ms"] = env["calib.matvec_ms"]
        metrics["solvers.iter_matvecs"] = iter_p50 / env["calib.matvec_ms"]
        untraced = statistics.median(walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced
        shares = [
            sum(run[f"layer.{layer}.self_s"] for layer in tracing.LAYERS) / run["trace.wall_s"]
            for run in layers
        ]
        result["self_sum_share"] = max(shares, key=lambda share: abs(share - 1))
        if args.spans is not None:
            tracing.write_spans(tracer, args.spans)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "iter_ms_p50": iter_p50,
            "iter_ms_p90": float(np.percentile(gaps_ms, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["iter_samples"] = int(gaps_ms.size)
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
