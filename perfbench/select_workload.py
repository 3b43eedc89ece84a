"""The ``select-sampling`` and ``select-paths`` workloads.

Each cell runs exactly as ``repro select`` runs it: ``execute_cell`` on a
graph weighted with ``default_rng(0)``, then ``monte_carlo_spread`` with
1000 simulations on the selected seeds.  Cells run round-robin, in an order
shuffled by the workload seed, until the measuring time is up; at least one
full pass always completes.  Every execution is checked against
``references.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from cells import CELLS, RNG_SEED, SCORE_SIMULATIONS, Cell, graphs_of
from common import OUT, PeakRSS, median, measure_setup, now
from layers import layer_metrics

REFERENCES = Path(__file__).with_name("references.json")
#: Set-up probes per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def load_references() -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)


class CellRunner:
    """Holds the weighted graphs and runs one cell through the public API."""

    def __init__(self, workload: str) -> None:
        from repro import datasets, diffusion

        self.graphs = {}
        for name, model_name in graphs_of(workload):
            model = diffusion.model_by_name(model_name)
            self.graphs[(name, model_name)] = model.weighted(
                datasets.load(name), np.random.default_rng(0)
            )

    def run(self, cell: Cell) -> dict:
        import repro.diffusion as diffusion
        import repro.framework as framework
        from repro import algorithms

        model = diffusion.model_by_name(cell.model)
        graph = self.graphs[(cell.dataset, cell.model)]
        seed = RNG_SEED
        started = now()
        record, __ = framework.execute_cell(
            algorithms.make(cell.algorithm, **cell.params), graph, cell.k, model,
            rng=np.random.default_rng(seed),
            config=framework.IsolationConfig(enabled=False),
        )
        out = {"status": record.status, "seeds": list(record.seeds)}
        if record.ok:
            estimate = diffusion.monte_carlo_spread(
                graph, record.seeds, model, r=SCORE_SIMULATIONS,
                rng=np.random.default_rng(seed + 1), workers=cell.workers,
            )
            out["sigma"] = estimate.mean
            out["stderr"] = estimate.stderr
        out["wall_s"] = now() - started
        return out


def check(result: dict, reference: dict | None) -> tuple[bool, bool, float, str]:
    """(correct, seeds identical, sigma / reference sigma, reason).

    Seeds must equal the reference byte for byte.  A change that alters an
    RNG stream may select other seeds; it still passes when its scored
    spread is within 3 standard errors of the reference spread.
    """
    if reference is None:
        return False, False, 0.0, "no reference"
    if result["status"] != "OK":
        return False, False, 0.0, f"status {result['status']}"
    same = result["seeds"] == reference["seeds"]
    ratio = result["sigma"] / reference["sigma"]
    tolerance = 3.0 * float(np.hypot(result["stderr"], reference["stderr"]))
    if abs(result["sigma"] - reference["sigma"]) > tolerance:
        return False, same, ratio, (
            f"sigma {result['sigma']:.2f} vs reference {reference['sigma']:.2f} "
            f"(3 SE = {tolerance:.2f})"
        )
    return True, same, ratio, "" if same else "seeds differ, sigma within 3 SE"


class Tally:
    """Per-cell wall times, spread ratios and failure counts of one run."""

    def __init__(self, cells: list[Cell], references: dict) -> None:
        self.references = references
        self.walls: dict[str, list[float]] = {c.key: [] for c in cells}
        self.ratios: dict[str, list[float]] = {c.key: [] for c in cells}
        self.attempted = self.failed = self.seed_mismatches = 0
        self.problems: list[str] = []

    def add(self, cell: Cell, result: dict) -> None:
        self.walls[cell.key].append(result["wall_s"])
        self.attempted += 1
        reference = self.references.get(cell.key)
        ok, same, ratio, why = check(result, reference)
        if ratio:
            self.ratios[cell.key].append(ratio)
        self.failed += int(not ok)
        self.seed_mismatches += int(ok and not same)
        if not ok:
            self.problems.append(f"{cell.key}: {why}")

    def wall_s(self) -> float:
        """Sum over cells of each cell's median wall time."""
        return sum(median(v) for v in self.walls.values() if v)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    cells = list(CELLS[workload])
    if smoke:
        cells = cells[:2]
    order = [cells[i] for i in np.random.default_rng(seed).permutation(len(cells))]
    references = load_references()

    setups = measure_setup(graphs_of(workload), 1 if smoke else SETUP_REPEATS)
    runner = CellRunner(workload)
    plain = Tally(cells, references)

    if trace:
        return _run_traced(workload, order, runner, plain, seconds, setups)

    deadline = now() + seconds
    with PeakRSS() as rss:
        done_pass = False
        while not done_pass or now() < deadline:
            for cell in order:
                if done_pass and now() >= deadline:
                    break
                plain.add(cell, runner.run(cell))
            done_pass = True
    per_cell = [median(v) for v in plain.walls.values()]
    wall = plain.wall_s()
    ratios = [median(v) if v else 0.0 for v in plain.ratios.values()]
    return {
        "attempted": plain.attempted,
        "failed": plain.failed,
        "problems": plain.problems,
        "notes": [f"cells: {len(cells)}, executions: {plain.attempted}, "
                  f"seed mismatches within 3 SE: {plain.seed_mismatches}"],
        "metrics": {
            "setup_s": (median([s["total_s"] for s in setups]), "s"),
            "wall_s": (wall, "s"),
            "spread_ratio": (sum(ratios) / len(ratios), "ratio"),
            "peak_rss_mb": (rss.peak_mb, "MB"),
            "ok_share": (1.0 - plain.failed / plain.attempted, "ratio"),
            "p50_ms": (1000.0 * median(per_cell), "ms"),
            "rate_per_s": (len(cells) / wall, "1/s"),
        },
    }


def _run_traced(workload, order, runner, plain, seconds, setups) -> dict:
    """Plain and traced passes alternate after a warm pass; only the traced
    passes feed the layer metrics and only their ratio to the plain passes
    is reported (``telemetry.overhead_share``)."""
    from repro.framework.telemetry import Telemetry, activate

    from tracer import Tracer, install_layer_spans

    tracer, telemetry = Tracer(), Telemetry(label=workload)
    traced = Tally(order, plain.references)
    for cell in order:  # warm pass, discarded
        runner.run(cell)
    deadline = now() + seconds
    passes = 0
    while passes < 2 or now() < deadline:
        if passes % 2:
            install_layer_spans(tracer)
            try:
                with activate(telemetry):
                    for cell in order:
                        traced.add(cell, runner.run(cell))
            finally:
                tracer.uninstall()
        else:
            for cell in order:
                plain.add(cell, runner.run(cell))
        passes += 1
    traced_passes = passes // 2
    metrics = layer_metrics(
        tracer.summary(), telemetry.counters, traced_passes, setups
    )
    metrics["telemetry.overhead_share"] = (traced.wall_s() / plain.wall_s() - 1.0, "ratio")
    metrics["check.seed_mismatches"] = (
        plain.seed_mismatches + traced.seed_mismatches, "count"
    )
    trace_path = write_trace(tracer, workload)
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "problems": plain.problems + traced.problems,
        "notes": [f"traced passes: {traced_passes}; spans: {trace_path}"],
        "metrics": metrics,
    }


def write_trace(tracer, workload: str) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-{tracer.run_id}.jsonl"
    tracer.write(path, workload=workload)
    return str(path.relative_to(OUT.parent))
