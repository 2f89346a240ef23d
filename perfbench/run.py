"""The greedyqn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``NAME`` is one of the workloads in
``BENCHMARK.json`` or ``all``.  Each workload runs in its own process with
one BLAS thread (see ``worker.py``).  The runner makes the workload's
inputs from ``--seed``, checks every output against ``pins.json``, and
prints each metric by name with its unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones from a separate
traced run.  ``attempted`` and ``failed`` count method runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from inputs import instance_seed, write_libsvm

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("paper_table", "greedy_n1000", "logistic_hessian_error")
WORKER_TIMEOUT_S = 170
SELF_SUM_TOLERANCE = 0.10


class BenchmarkError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list, work: Path) -> dict:
    """Run worker.py with ``args`` and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--work", str(work), *args]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Make the inputs for one workload and run it in a worker process."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        instance = instance_seed(seed)
        args = ["--workload", name, "--instance", str(instance), "--seconds", str(seconds),
                "--trace", str(trace), "--pins", str(HERE / "pins.json")]
        if trace:
            args += ["--spans", str(OUT / f"spans-{name}.csv")]
        if name == "logistic_hessian_error":
            dataset = work / f"synthetic-{instance}.libsvm"
            write_libsvm(dataset, instance)
            args += ["--dataset", str(dataset)]
        return run_worker(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def metric_specs(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def report(name: str, result: dict, specs: dict) -> dict:
    """Print one workload's metrics; return them as name -> {value, unit}."""
    missing = set(specs) - set(result["metrics"])
    if missing:
        raise BenchmarkError(f"{name}: worker reported no {sorted(missing)}")
    print(f"# {name} env {json.dumps(result['env'], sort_keys=True)}")
    metrics = {}
    for key, spec in specs.items():
        value = result["metrics"][key]
        metrics[key] = {"value": value, "unit": spec["unit"]}
        print(f"{name} {key} {value:.6g} {spec['unit']}")
    if "iter_samples" in result:
        print(f"{name} iter_samples {result['iter_samples']} count "
              f"(iterations over {len(result['walls'])} timed calls)")
    if "self_sum_share" in result:
        print(f"{name} self_sum_share {result['self_sum_share']:.4f} "
              f"(layer self times over traced wall_s)")
    ratio = result["failed"] / result["attempted"]
    print(f"{name} fail_ratio {ratio:.6g} ({result['failed']}/{result['attempted']} method runs)")
    for problem in result["problems"]:
        print(f"{name} FAILED {problem}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run the greedyqn benchmark.")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        if not (ROOT / "src" / "greedyqn").is_dir():
            raise BenchmarkError(f"program sources not found under {ROOT / 'src'}")
        specs = metric_specs(args.trace)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        correct = True
        metrics = {}
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            shown = report(name, result, specs)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + key: value for key, value in shown.items()})
            attempted += result["attempted"]
            failed += result["failed"]
            share = result.get("self_sum_share", 1.0)
            correct = correct and result["failed"] == 0 and abs(share - 1) <= SELF_SUM_TOLERANCE
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
