"""Run one workload of the repository benchmark and print its result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lineup-mllh --seed 2003 \
        --seconds 36 --trace 0

Workloads: ``lineup-mllh``, ``serve-read``, ``serve-sharded-rw`` (see
``perfbench/README.md``).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it, starting ``# stamps``,
records the machine, interpreter, commit, generator lateness, the CPU
the run was pinned to and the host's median slowdown over the run.
The exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("lineup-mllh", "serve-read", "serve-sharded-rw")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, perturb: bool = False):
    """Dispatch one run; ``tiny`` and ``perturb`` serve the self-test.

    The run is pinned to one CPU beside a :class:`common.SpeedProbe`,
    which every end-to-end time is corrected by.
    """
    import lineup
    import serve
    from common import SpeedProbe, pin_to_one_cpu

    cpu = pin_to_one_cpu()
    with SpeedProbe() as probe:
        if workload == "lineup-mllh":
            size = lineup.TINY if tiny else lineup.FULL
            outcome = lineup.run(seed, seconds, trace, probe, size=size,
                                 perturb=perturb)
        else:
            size = serve.TINY if tiny else serve.FULL
            run = serve.run_read if workload == "serve-read" else serve.run_rw
            outcome = run(seed, seconds, trace, probe, size=size,
                          perturb=perturb)
        outcome.stamps.update(cpu=cpu, slowdown=round(probe.overall(), 3))
    return outcome


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from common import stamps

    trace = bool(args.trace)
    outcome = run_workload(args.workload, args.seed, args.seconds, trace)
    for note in outcome.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    try:
        line = outcome.result_line(trace)
    except KeyError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    meta = stamps(args.workload, args.seed, args.seconds, trace)
    meta.update(outcome.stamps)
    print("# stamps " + json.dumps(meta, sort_keys=True))
    print(json.dumps(line))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
