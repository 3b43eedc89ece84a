"""Compare two sets of benchmark runs, or report the spread of one set.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RUNS_DIR

Each directory holds the saved standard output of ``run.py`` runs, one
file per run (the header line names the workload and seed).  For each
workload and end-to-end metric the comparison prints both medians and
quartiles, the share of pairs the change won (runs are paired by seed,
ties count for neither side) and a verdict against the metric's bound from
``BENCHMARK.json``:

``unresolved``  the parent's own run-to-run spread is wider than the bound
                (``better in every run`` when every change run beats every
                parent run despite that spread)
``regressed``   the change's median is worse than the parent's by more than the bound
``gain``        the change won at least 9 of 10 pairs and the medians differ
                by more than the parent's quartile spread
``no change``   none of the above

With one directory it prints each metric's quartile spread as a share of
its median, next to the bound and a third of it.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: str) -> dict[str, dict[int, dict]]:
    """workload -> seed -> metric values of one run."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text().strip().splitlines()
        header = next((json.loads(line[len("# header "):]) for line in lines
                       if line.startswith("# header ")), None)
        if header is None or not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs.setdefault(header["workload"], {})[int(header["seed"])] = values
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_share(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(parent: list[float], change: list[float], wins: float, bound: float,
            higher: bool) -> str:
    p1, pm, p3 = quartiles(parent)
    __, cm, __ = quartiles(change)
    if spread_share(parent) > bound:
        beats = min(change) > max(parent) if higher else max(change) < min(parent)
        return "better in every run" if beats else "unresolved"
    worse = (pm - cm) if higher else (cm - pm)
    if worse > bound * abs(pm):
        return "regressed"
    if wins >= 0.9 and abs(cm - pm) > (p3 - p1):
        return "gain"
    return "no change"


def compare(parent_dir: str, change_dir: str, metrics: list[dict]) -> None:
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    print(f"{'workload':<16} {'metric':<13} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'won':>5}  verdict")
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        for spec in metrics:
            name, higher = spec["name"], spec["better"] == "higher"
            pv = [r[name] for r in p_runs.values() if name in r]
            cv = [r[name] for r in c_runs.values() if name in r]
            if not pv or not cv:
                print(f"{workload:<16} {name:<13} missing on one side")
                continue
            won = 0
            for seed in seeds:
                a, b = p_runs[seed][name], c_runs[seed][name]
                won += (b > a) if higher else (b < a)
            share = won / len(seeds) if seeds else 0.0
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"{workload:<16} {name:<13} {pm:>12.4g} [{p1:.4g}, {p3:.4g}]"
                  f"{'':>2} {cm:>12.4g} [{c1:.4g}, {c3:.4g}] {share:>5.0%}  "
                  f"{verdict(pv, cv, share, spec['bound'], higher)}")


def spread(runs_dir: str, metrics: list[dict]) -> None:
    runs = load_runs(runs_dir)
    print(f"{'workload':<16} {'metric':<13} {'runs':>4} {'median':>12} "
          f"{'spread':>8} {'bound':>6} {'bound/3':>8}")
    for workload in sorted(runs):
        for spec in metrics:
            values = [r[spec["name"]] for r in runs[workload].values() if spec["name"] in r]
            if not values:
                continue
            share = spread_share(values)
            flag = "" if share < spec["bound"] / 3 else "  <-- over a third of the bound"
            print(f"{workload:<16} {spec['name']:<13} {len(values):>4} "
                  f"{statistics.median(values):>12.5g} {share:>8.2%} "
                  f"{spec['bound']:>6.0%} {spec['bound'] / 3:>8.2%}{flag}")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    if len(argv) == 1:
        spread(argv[0], metrics)
    else:
        compare(argv[0], argv[1], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
