"""Shared pieces: locating the program, the run header, memory sampling,
order statistics and the fresh-process set-up probe."""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Stated on every result: a cell run with ``rr_scale < 1`` samples fewer RR
#: sets than its (1 - 1/e - eps) proof needs, by design, to fit the time box.
GUARANTEE_NOTE = (
    "cells with rr_scale<1 give up the (1-1/e-eps) approximation guarantee "
    "by design; their spread is checked against references, not the bound"
)


now = time.perf_counter


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def use_program() -> None:
    """Put the checkout's ``src`` first on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_header(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": multiprocessing.get_start_method(allow_none=False),
        "commit": git_commit(),
        "guarantee": GUARANTEE_NOTE,
    }


# ----------------------------------------------------------------------
# Memory: peak RSS of this process and every descendant, summed

def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat[stat.rfind(b")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(entry.name))
    return kids


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


def tree_rss_bytes(root: int) -> int:
    kids = _children_map()
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        total += _rss_bytes(pid)
        todo.extend(kids.get(pid, ()))
    return total


def peak_rss_bytes(pid: int | str = "self") -> int:
    """A process's own peak RSS (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


class PeakRSS:
    """Samples the process tree's summed RSS on a background thread."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-rss", daemon=True)

    def _loop(self) -> None:
        pid = os.getpid()
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_rss_bytes(pid))
            self._stop.wait(self.interval)

    def __enter__(self) -> "PeakRSS":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(10)

    @property
    def peak_mb(self) -> float:
        return self.peak / (1 << 20)


# ----------------------------------------------------------------------
# Order statistics

def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it."""
    for q in TAIL_CANDIDATES:
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def median(values: list[float]) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# Set-up: a fresh interpreter imports the CLI and builds the graphs

def measure_setup(graphs: list[tuple[str, str]], repeats: int) -> list[dict]:
    """Run the set-up probe ``repeats`` times, each in a fresh process."""
    spec = json.dumps(graphs)
    results = []
    for __ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_child.py")), spec],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results
