"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload select-sampling --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``select-sampling``  RR-sketch, snapshot and MC-oracle techniques, 2 workers
``select-paths``     path-proxy and heuristic techniques, serial
``serve-mixed``      open-loop Poisson traffic against a ``repro serve`` process

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` a separate traced run reports the per-layer metrics (span self
times, program counters and ``telemetry.overhead_share``) and never feeds
its timings into the end-to-end ones.  Earlier stdout lines are the run
header and notes.  The command exits 1 when any output fails its
correctness check and 2 when there is no program to measure.

``perfbench/compare.py`` compares two sets of saved runs;
``perfbench/selfcheck.py`` validates ``BENCHMARK.json`` and smoke-runs
every workload; ``perfbench/references.py`` regenerates the references.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ProgramMissing, run_header, use_program  # noqa: E402

WORKLOADS = ("select-sampling", "select-paths", "serve-mixed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk inputs for the self-check: a few "
                             "operations, one set-up probe")
    return parser


def run(args) -> dict:
    if args.workload == "serve-mixed":
        import serve_workload

        return serve_workload.run(args.seed, args.seconds, bool(args.trace), args.smoke)
    import select_workload

    return select_workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        use_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("# header " + json.dumps(run_header(args.workload, args.seed, args.seconds,
                                               bool(args.trace))), flush=True)
    outcome = run(args)
    for note in outcome.get("notes", ()):
        print(f"# note {note}")
    for problem in outcome["problems"]:
        print(f"# check failed: {problem}")
    correct = outcome["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
