"""Record the outputs that ``run.py`` checks every call against.

    python3 perfbench/pin.py

Runs one call of each workload on every instance of the seed pool with the
program as it is and writes ``perfbench/pins.json``.  Pins are outputs of
the program, not of the benchmark: re-record them only when a change is
meant to alter the program's results, and say so in its description.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from inputs import POOL, write_libsvm
from run import HERE, OUT, run_worker


def record(workload: str, instance: int) -> dict:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"pin-{workload}-", dir=OUT))
    try:
        args = ["--workload", workload, "--instance", str(instance)]
        if workload == "logistic_hessian_error":
            dataset = work / f"synthetic-{instance}.libsvm"
            write_libsvm(dataset, instance)
            args += ["--dataset", str(dataset)]
        outputs = run_worker(args, work)["outputs"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if workload == "greedy_n1000":
        return {"f_final": outputs["f_final"]}
    if outputs["exit_code"] != 0:
        raise SystemExit(f"{workload} instance {instance}: exit code {outputs['exit_code']}")
    return {stem: outputs[stem] for stem in ("iterations", "hessian_error") if stem in outputs}


def main():
    pins = {"paper_table": record("paper_table", 0)}
    for workload in ("greedy_n1000", "logistic_hessian_error"):
        pins[workload] = {}
        for instance in range(POOL):
            pins[workload][str(instance)] = record(workload, instance)
            print(workload, instance, pins[workload][str(instance)], flush=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
