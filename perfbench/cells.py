"""The pinned cell lists of the two select workloads.

A cell is one ``repro select`` call: a technique on a catalog graph under a
model, with parameters, ``k`` and worker counts pinned so its seeds and its
scored spread are deterministic and can be checked against
``references.json``.  Parameters are trimmed from the Table-2 values so a
whole list runs in a few seconds on two cores.

``select-sampling`` is the sampling-based family: RR sampling, max-cover,
oracle and snapshot evaluation and the worker pool carry the work, the path
engine none.  It runs RR sampling and scoring with two workers.
``select-paths`` is the path-proxy and heuristic family, serial: the path
engine carries the work and RR sampling and the pool do nothing, so each
workload is the bypass for changes aimed at the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Selection runs on ``default_rng(RNG_SEED)`` and scoring on
#: ``default_rng(RNG_SEED + 1)``, as ``repro select --seed 7`` does.  The
#: seed is pinned, not drawn from the workload seed: the RR stopping rules
#: (SSA, CELF++'s lazy queue) do different amounts of work under different
#: RNG seeds, and that spread exceeded the bounds.  The workload seed
#: shuffles the cell order.
RNG_SEED = 7

#: The scoring protocol of ``repro select``: 1000 simulations.
SCORE_SIMULATIONS = 1000


@dataclass(frozen=True)
class Cell:
    dataset: str
    model: str
    algorithm: str
    k: int
    params: dict = field(default_factory=dict)
    #: Processes for RR sampling (when the technique samples RR sets) and
    #: for the decoupled scoring; ``None`` runs serially.
    workers: int | None = None

    @property
    def key(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.algorithm}@{self.dataset}/{self.model}/k={self.k}/{params}/w={self.workers}"


def _rr(epsilon: float, **extra) -> dict:
    return dict(epsilon=epsilon, rr_workers=2, **extra)


CELLS: dict[str, tuple[Cell, ...]] = {
    "select-sampling": (
        Cell("nethept", "WC", "IMM", 10, _rr(0.5), workers=2),
        Cell("nethept", "IC", "IMM", 10, _rr(0.5), workers=2),
        # Dense graph under IC: RR sets grow large (myth M6), so the pool is
        # sampled at rr_scale=0.05 to fit the time box.
        Cell("hepph", "IC", "IMM", 10, _rr(0.5, rr_scale=0.05), workers=2),
        Cell("nethept", "WC", "TIM+", 10, _rr(0.5), workers=2),
        Cell("nethept", "IC", "SSA", 10, _rr(0.5), workers=2),
        Cell("hepph", "WC", "D-SSA", 10, _rr(0.5), workers=2),
        Cell("nethept", "IC", "CELF++",
             5, dict(spread_oracle="snapshot", mc_simulations=10), workers=2),
        Cell("nethept", "IC", "CELF",
             5, dict(spread_oracle="batched", mc_simulations=20), workers=2),
        Cell("nethept", "WC", "StaticGreedy", 10, dict(num_snapshots=20), workers=2),
        Cell("nethept", "IC", "PMC", 10, dict(num_snapshots=30), workers=2),
    ),
    "select-paths": (
        Cell("nethept", "WC", "PMIA", 20),
        Cell("dblp", "WC", "PMIA", 5),
        Cell("dblp", "WC", "IRIE", 10),
        Cell("nethept", "LT", "LDAG", 10),
        Cell("nethept", "LT", "SIMPATH", 5, dict(eta=0.01)),
        Cell("dblp", "WC", "IMRank1", 10),
        Cell("nethept", "WC", "EaSyIM", 10),
    ),
}


def graphs_of(workload: str) -> list[tuple[str, str]]:
    """Distinct (dataset, model) pairs, in first-use order."""
    seen: dict[tuple[str, str], None] = {}
    for cell in CELLS[workload]:
        seen.setdefault((cell.dataset, cell.model), None)
    return list(seen)
