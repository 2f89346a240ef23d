"""Span tracing of the program's layers, applied from outside the program.

:class:`Tracer` replaces module functions and methods of ``greedyqn`` with
wrappers that record one span (name, start, end, parent, label) per call.
Names that a module imported from another module are wrapped where the
caller looks them up (``solvers.factorize``, ``bench.classical_qn``, ...).
Spans stay in memory; :func:`summarize` turns one traced call into the
per-layer metrics and :func:`write_spans` writes them out.
"""

from __future__ import annotations

import contextlib
import pathlib
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np
from greedyqn import bench, broyden, data_io, objectives, operator_core, solvers

ORACLE = ("value", "gradient", "hessian_diag", "hessian_vec", "full_hessian")
OPERATOR = ("rank2_update", "rescale", "solve", "apply", "audit", "refactorize")
BROYDEN = ("greedy_direction", "broyden_update", "op_error", "sigma")
METHODS = ("GM", "DFP", "BFGS", "SR1", "GrDFP", "GrBFGS", "GrSR1", "RaSR1")
LAYERS = ("objectives", "operator_core", "broyden", "solvers", "data_io", "bench")

NAME, START, END, PARENT, LABEL = range(5)


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``owner.attr = make(original)`` for each triple.

    Only attributes defined on the owner itself are accepted, so a renamed
    or moved function fails loudly instead of going unmeasured.
    """
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for (owner, attr, make), (_, _, original) in zip(replacements, originals):
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _solver_label(method):
    def label(args, kwargs, result):
        trace = result[1]
        return method(args, kwargs), trace.records[-1].k if trace.records else 0

    return label


def _result(args, kwargs, result):
    return result


def _text_length(args, kwargs, result):
    return len(args[0])


def _classical(args, kwargs):
    rule = args[2] if len(args) > 2 else kwargs["rule"]
    return rule.kind.name


def _general(args, kwargs):
    config = args[2] if len(args) > 2 else kwargs["config"]
    random = config.strategy.kind is solvers.DirectionKind.RANDOM_SPHERE
    return ("Ra" if random else "Gr") + config.rule.kind.name


class Tracer:
    """In-memory spans of one traced call, plus the points the oracles saw."""

    def __init__(self):
        self.spans = []
        self.points = set()
        self._stack = []
        self._call = 0

    def mark(self) -> int:
        """Start of the timed call; returns the index its root span will get."""
        self._call = len(self.spans)
        return self._call

    @property
    def prepare_s(self) -> float:
        """Time the call spent in ``bench._prepare``."""
        spans = self.spans[self._call:]
        return sum(s[END] - s[START] for s in spans if s[NAME] == "bench.prepare") / 1e9

    def wrap(self, name, label=None):
        """Factory for :func:`patched`: wrap a callable in a span called ``name``.

        ``label(args, kwargs, result)`` stores a value derived from the call
        on its span.
        """

        def make(fn):
            def traced(*args, **kwargs):
                span = [name, 0, 0, self._stack[-1] if self._stack else -1, None]
                self._stack.append(len(self.spans))
                self.spans.append(span)
                span[START] = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[END] = perf_counter_ns()
                    self._stack.pop()
                if label is not None:
                    span[LABEL] = label(args, kwargs, result)
                return result

            return traced

        return make

    def _point(self, args, kwargs, result):
        self.points.add(hash(np.asarray(args[1]).tobytes()))

    def installed(self):
        """Context manager that wraps every traced layer boundary."""
        w = self.wrap
        repl = []
        for cls in (objectives.LogSumExpProblem, objectives.LogisticProblem):
            repl += [(cls, m, w(f"objectives.{m}", self._point)) for m in ORACLE]
        repl += [
            (operator_core.SpdState, m, w(f"operator_core.{m}", _result if m == "audit" else None))
            for m in OPERATOR
        ]
        repl += [
            (mod, "factorize", w("operator_core.factorize"))
            for mod in (operator_core, solvers, broyden)
        ]
        repl += [
            (solvers, "greedy_direction", w("broyden.greedy_direction")),
            (solvers, "broyden_update", w("broyden.broyden_update")),
            (solvers, "_op_error_from_factor", w("broyden.op_error")),
            (solvers, "_sigma_from_factor", w("broyden.sigma")),
            (solvers, "_apply_family_update", w("solvers.family_update")),
            (solvers, "_secant_coefficients", w("solvers.secant_coefficients")),
            (solvers, "_diagnostics", w("solvers.diagnostics")),
            (solvers, "unit_sphere_direction", w("data_io.unit_sphere_direction")),
        ]
        gm = _solver_label(lambda a, k: "GM")
        classical = _solver_label(_classical)
        general = _solver_label(_general)
        repl += [
            (bench, "gradient_method", w("solvers.run", gm)),
            (bench, "classical_qn", w("solvers.run", classical)),
            (bench, "solve_general", w("solvers.run", general)),
            (solvers, "solve_general", w("solvers.run", general)),
        ]
        repl += [
            (bench, "parse_libsvm", w("data_io.parse_libsvm", _text_length)),
            (data_io.LibsvmDataset, "to_logistic", w("data_io.to_logistic")),
            (bench, "generate_logsumexp", w("data_io.generate_logsumexp")),
            (data_io, "generate_logsumexp", w("data_io.generate_logsumexp")),
            (bench, "generate_start", w("data_io.generate_start")),
            (data_io, "generate_start", w("data_io.generate_start")),
            (bench, "main", w("bench.main")),
            (bench, "_prepare", w("bench.prepare")),
            (bench, "_reference_f_star", w("bench.reference")),
            (bench, "_write_outputs", w("bench.write_outputs")),
            (pathlib.Path, "write_text", w("bench.write_file", _result)),
        ]
        return patched(repl)


def summarize(tracer: Tracer, call: int, matvec_ms: float) -> dict:
    """Per-layer metrics of one traced call.

    ``call`` is the index of the call's root span; spans before it belong to
    the workload's set-up.  Per-function metrics cover every span, the
    ``layer.*`` self times only the call, so that they add up to its wall
    time.
    """
    spans = tracer.spans
    dur = [s[END] - s[START] for s in spans]
    covered = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            covered[s[PARENT]] += dur[i]
    own = [(d - c) / 1e9 for d, c in zip(dur, covered)]

    calls = Counter()
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    layer_s = dict.fromkeys(LAYERS, 0.0)
    method_s = dict.fromkeys(METHODS, 0.0)
    method_iters = dict.fromkeys(METHODS, 0)
    method_runs = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        self_s[name] += own[i]
        incl_s[name] += dur[i] / 1e9
        if i >= call:
            layer_s[name.split(".", 1)[0]] += own[i]
        under_reference = s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "bench.reference"
        if name == "solvers.run" and not under_reference:
            method, iters = s[LABEL]
            method_s[method] += dur[i] / 1e9
            method_iters[method] += iters
            method_runs += 1

    m = {}
    for f in ORACLE:
        m[f"objectives.{f}.calls"] = calls[f"objectives.{f}"]
        m[f"objectives.{f}.self_s"] = self_s[f"objectives.{f}"]
    oracle_calls = sum(calls[f"objectives.{f}"] for f in ORACLE)
    m["objectives.evals_per_point"] = oracle_calls / max(len(tracer.points), 1)
    for f in OPERATOR + ("factorize",):
        m[f"operator_core.{f}.calls"] = calls[f"operator_core.{f}"]
        m[f"operator_core.{f}.self_s"] = self_s[f"operator_core.{f}"]
    updates = calls["operator_core.rank2_update"]
    m["operator_core.update_matvecs"] = (
        self_s["operator_core.rank2_update"] * 1e3 / updates / matvec_ms if updates else 0.0
    )
    drifts = [s[LABEL] for s in spans if s[NAME] == "operator_core.audit"]
    m["operator_core.max_drift"] = max(drifts, default=0.0)
    for f in BROYDEN:
        m[f"broyden.{f}.calls"] = calls[f"broyden.{f}"]
        m[f"broyden.{f}.self_s"] = self_s[f"broyden.{f}"]
    attempted = calls["solvers.family_update"] + calls["solvers.secant_coefficients"]
    m["broyden.update_applied_ratio"] = updates / attempted if attempted else 0.0
    for method in METHODS:
        m[f"solvers.{method}.s"] = method_s[method]
        m[f"solvers.iterations.{method}"] = method_iters[method]
    m["solvers.self_s"] = self_s["solvers.run"]
    m["solvers.diagnostics.s"] = incl_s["solvers.diagnostics"]
    parse_s = self_s["data_io.parse_libsvm"]
    parsed = sum(s[LABEL] for s in spans if s[NAME] == "data_io.parse_libsvm")
    m["data_io.parse_libsvm.self_s"] = parse_s
    m["data_io.parse_mb_per_s"] = parsed / 1e6 / parse_s if parse_s else 0.0
    m["data_io.to_logistic.self_s"] = self_s["data_io.to_logistic"]
    m["data_io.generate_logsumexp.self_s"] = self_s["data_io.generate_logsumexp"]
    m["data_io.unit_sphere_direction.calls"] = calls["data_io.unit_sphere_direction"]
    m["data_io.unit_sphere_direction.self_s"] = self_s["data_io.unit_sphere_direction"]
    m["bench.method_runs"] = method_runs
    m["bench.prepare.calls"] = calls["bench.prepare"]
    m["bench.reference.s"] = incl_s["bench.reference"]
    m["bench.write_outputs.self_s"] = self_s["bench.write_outputs"]
    m["bench.bytes_written"] = sum(s[LABEL] for s in spans if s[NAME] == "bench.write_file")
    m["bench.files_written"] = calls["bench.write_file"]
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_s[layer]
    m["trace.wall_s"] = dur[call] / 1e9
    return m


def write_spans(tracer: Tracer, path: pathlib.Path):
    lines = ["index,name,start_ns,end_ns,parent,label"]
    for i, s in enumerate(tracer.spans):
        label = "" if s[LABEL] is None else str(s[LABEL]).replace(",", ";")
        lines.append(f"{i},{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{label}")
    path.write_text("\n".join(lines) + "\n")
