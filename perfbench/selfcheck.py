"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py           # schema, names and check logic
    python3 perfbench/selfcheck.py --smoke   # plus a shrunk run of every workload

Checks that ``BENCHMARK.json`` follows its schema, that every metric name
matches ``[A-Za-z0-9_.-]+`` and that the per-layer list is the one the
traced run reports, that the correctness checks reject wrong answers, and
(with ``--smoke``) that a shrunk run of each workload, plain and traced,
finishes in seconds and prints exactly the metrics ``BENCHMARK.json``
lists.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
SMOKE_SECONDS = 60


def fail(message: str) -> None:
    print(f"selfcheck: FAIL: {message}")
    sys.exit(1)


def expect(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


def check_schema(bench: dict) -> None:
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, "top-level keys")
    cmd = bench["command"]
    expect(isinstance(cmd, list) and 1 <= len(cmd) <= 32
           and all(isinstance(a, str) and len(a) <= 200 for a in cmd), "command")
    expect(not any(a.startswith("/") or ".." in a.split("/") for a in cmd),
           "command paths stay inside the repository")
    paths = bench["paths"]
    expect(isinstance(paths, list) and 1 <= len(paths) <= 16
           and all(PATH.match(p) and ".." not in p.split("/") for p in paths), "paths")
    expect(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
           "run_seconds")
    names: set[str] = set()

    def named(entry: dict, keys: set[str]) -> None:
        expect(set(entry) == keys, f"keys of {entry}")
        expect(bool(NAME.match(entry["name"])), f"name {entry['name']!r}")
        expect(entry["name"] not in names, f"name {entry['name']!r} used twice")
        names.add(entry["name"])

    expect(2 <= len(bench["workloads"]) <= 8, "2 to 8 workloads")
    for w in bench["workloads"]:
        named(w, {"name", "why"})
        expect(0 < len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
    expect(1 <= len(bench["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    for m in bench["end_to_end"]:
        named(m, {"name", "unit", "better", "bound"})
        expect(bool(UNIT.match(m["unit"])), f"unit of {m['name']}")
        expect(m["better"] in ("lower", "higher"), f"better of {m['name']}")
        expect(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
           "setup_s, in s, lower is better")
    expect(setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
           "setup_s has the largest bound")
    expect(1 <= len(bench["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    for m in bench["per_layer"]:
        named(m, {"name", "unit", "better"})
        expect(bool(UNIT.match(m["unit"])), f"unit of {m['name']}")
        expect(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    expect(len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024, "size")


def check_names(bench: dict) -> None:
    from layers import PER_LAYER

    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(listed == PER_LAYER, "BENCHMARK.json per_layer matches layers.PER_LAYER")
    from run import WORKLOADS

    expect(tuple(w["name"] for w in bench["workloads"]) == WORKLOADS,
           "BENCHMARK.json workloads match run.py")


def check_checks() -> None:
    """The correctness checks reject a wrong seed set and a wrong answer."""
    from select_workload import check
    from serve_workload import Sample, check_sample

    reference = {"seeds": [1, 2], "sigma": 100.0, "stderr": 1.0}
    good = {"status": "OK", "seeds": [1, 2], "sigma": 100.0, "stderr": 1.0}
    expect(check(good, reference)[0], "identical output passes")
    expect(check(dict(good, seeds=[2, 1], sigma=101.0), reference)[:2] == (True, False),
           "other seeds within 3 SE pass and are reported")
    expect(not check(dict(good, seeds=[3, 4], sigma=90.0), reference)[0],
           "spread off by more than 3 SE fails")
    expect(not check(dict(good, status="DNF"), reference)[0], "a DNF cell fails")
    expect(not check(good, None)[0], "a cell without reference fails")

    from common import use_program

    use_program()
    request = {"op": "sigma", "dataset": "nethept", "model": "WC", "seeds": [0, 1], "seed": 0}
    sample = Sample("sigma", request, 0.0, 0.0, reply={"ok": True, "result": {"sigma": -1.0}})
    expect(check_sample([sample])[0] == 1, "a wrong served sigma is caught")


def smoke(bench: dict) -> None:
    expected = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=SMOKE_SECONDS, cwd=ROOT)
            expect(proc.returncode == 0,
                   f"{workload} trace={trace} exited {proc.returncode}: {proc.stdout[-800:]}"
                   f"{proc.stderr[-800:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   "result keys")
            expect(result["correct"] and result["attempted"] >= 1, f"{workload} correct")
            expect(set(result["metrics"]) == expected[trace],
                   f"{workload} trace={trace} metric names")
            print(f"selfcheck: smoke {workload} trace={trace}: "
                  f"{result['attempted']} checked operations")


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_schema(bench)
    check_names(bench)
    check_checks()
    if "--smoke" in argv:
        smoke(bench)
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
