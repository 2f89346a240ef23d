"""The benchmark in ``perfbench/`` wraps program functions from outside.

Its two instruments, ``worker.IterationClock`` and ``tracing.Tracer``,
replace module attributes by name and refuse a name that is missing.  This
test enters both around tiny CLI runs, so a renamed or deleted function the
benchmark relies on fails here instead of in a benchmark run.
"""

from collections import Counter
from pathlib import Path

import pytest

from greedyqn import bench

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TINY = Path(__file__).resolve().parent / "golden" / "tiny.libsvm"


def test_benchmark_patch_lists_cover_a_cli_run(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import worker

    methods = tracing.METHODS  # every method label the tracer derives
    clock = worker.IterationClock()
    tracer = tracing.Tracer()
    argv = ["--n", "6", "--m", "5", "--methods", ",".join(methods), "--epsilons", "1e-1,1e-6"]
    argv += ["--seed", "7", "--hessian-error", "--out", str(tmp_path)]
    with clock.installed(), tracer.installed():
        root = tracer.mark()
        assert bench.main(argv) == 0
    capsys.readouterr()

    metrics = tracing.summarize(tracer, root, matvec_ms=1.0)
    for method in methods:
        assert metrics[f"solvers.iterations.{method}"] > 0, method
    layers = sum(metrics[f"layer.{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["broyden.broyden_update.calls"] > 0
    # one run per method; op_error only where the error table reads it
    assert metrics["bench.method_runs"] == len(methods)
    assert metrics["broyden.op_error.calls"] <= (len(methods) - 1) * 2  # non-GM x epsilons
    # every dense factorization goes through the traced ``factorize``
    assert metrics["operator_core.factorize.calls"] >= metrics["broyden.op_error.calls"] > 0
    # one value call per iteration: each run of R records gives R - 1 gaps
    records = [len((tmp_path / f"trace_{m}.csv").read_text().splitlines()) - 1 for m in methods]
    assert clock.gaps_ms().size == sum(r - 1 for r in records) > 0


def test_benchmark_patch_lists_cover_the_libsvm_layers(tmp_path, monkeypatch, capsys):
    # a refactor that bypasses one of these names would leave its layer unmeasured
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    argv = ["--problem", "libsvm", "--dataset", str(TINY), "--methods", "SR1,GrSR1"]
    argv += ["--epsilons", "1e-1,1e-6", "--hessian-error", "--out", str(tmp_path)]
    with tracer.installed():
        root = tracer.mark()
        assert bench.main(argv) == 0
    capsys.readouterr()

    calls = Counter(span[tracing.NAME] for span in tracer.spans)
    for name in ("data_io.parse_libsvm", "data_io.to_logistic", "bench.prepare"):
        assert calls[name] == 1, name
    metrics = tracing.summarize(tracer, root, matvec_ms=1.0)
    assert metrics["bench.reference.s"] > 0
    assert metrics["bench.method_runs"] == 2
