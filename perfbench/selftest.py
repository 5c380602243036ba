"""Tiny-size self-test of the benchmark.

Runs every workload named in ``BENCHMARK.json`` end to end on tiny
inputs, in both trace modes, and checks that

* every answer was correct and no operation failed;
* the result line carries exactly the metrics ``BENCHMARK.json`` names
  for that mode, each a finite number with the declared unit;
* ``serve-sharded-rw`` checked reads against write snapshots mid-run;
* a deliberately perturbed oracle trips the correctness gate.

Usage (from the repository root; takes about 20 s)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7
SECONDS = 2.0


def metric_problems(line: dict, trace: bool) -> list[str]:
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = line["metrics"]
    problems = [f"missing {name}" for name in declared if name not in emitted]
    problems += [f"undeclared {name}" for name in emitted if name not in declared]
    for name, unit in declared.items():
        metric = emitted.get(name)
        if metric is None:
            continue
        if metric["unit"] != unit:
            problems.append(f"{name}: unit {metric['unit']!r} != {unit!r}")
        value = metric["value"]
        if not isinstance(value, float) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import run as bench

    failures: list[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            outcome = bench.run_workload(workload, SEED, SECONDS, trace, tiny=True)
            line = json.loads(json.dumps(outcome.result_line(trace)))
            if not line["correct"] or line["failed"]:
                failures.append(f"{label}: {line['failed']} failed, "
                                f"notes {outcome.notes}")
            failures += [f"{label}: {p}" for p in metric_problems(line, trace)]
            checked = outcome.stamps.get("checked_reads")
            if checked is not None and not checked[0]:
                failures.append(f"{label}: no read was checked mid-run")
            print(f"ok {label}: {line['attempted']} operations")
        perturbed = bench.run_workload(
            workload, SEED, SECONDS / 2, False, tiny=True, perturb=True
        )
        if perturbed.correct or perturbed.wrong == 0:
            failures.append(f"{workload}: perturbed oracle did not trip the gate")
        else:
            print(f"ok {workload}: perturbed oracle -> {perturbed.wrong} wrong")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
