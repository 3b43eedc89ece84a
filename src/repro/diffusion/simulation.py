"""Spread computation (Alg. 1) and Monte-Carlo estimation of σ(S).

``Γ(S)`` — the spread of one cascade realization — is the number of active
nodes when diffusion stops (Definition 6).  The quantity every IM algorithm
optimizes is the expectation σ(S) = E[Γ(S)], estimated by ``r`` independent
Monte-Carlo simulations; Kempe et al. recommend r = 10,000, which is the
library default.  Benchmarks use smaller ``r`` appropriate to the scaled
datasets (see the Fig. 12 convergence bench).

Two execution shapes are available and compose freely:

* ``batch`` — scoring is batched by default: the simulations run through
  the sparse multi-cascade kernels (:mod:`repro.diffusion.batched`) in
  ``ceil(r / batch)`` batches (``batch`` defaults to
  :data:`DEFAULT_MC_BATCH`) instead of ``r`` Python-level cascades.
  ``batch=1`` runs the legacy serial loop and reproduces its σ draw for
  draw.
* ``workers > 1`` — the simulations fan out over a ``SeedSequence``-spawned
  process pool; each worker runs its chunk with the same ``batch``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.digraph import DiGraph
from .independent_cascade import simulate_ic
from .linear_threshold import simulate_lt
from .models import Dynamics, PropagationModel

__all__ = [
    "DEFAULT_MC_BATCH",
    "DEFAULT_MC_SIMULATIONS",
    "SpreadEstimate",
    "simulate_spread",
    "monte_carlo_spread",
]

DEFAULT_MC_SIMULATIONS = 10_000

#: Cascades per batched kernel call when ``batch`` is not given.
DEFAULT_MC_BATCH = 64


def _tele():
    # Lazy: a top-level framework import from diffusion would be circular
    # (framework → runner → algorithm registry → diffusion engines).
    from ..framework.telemetry import current

    return current()


def _simulate_chunk(
    graph: DiGraph,
    seeds: list[int],
    dynamics: "Dynamics",
    count: int,
    seed_sequence_state: dict,
    batch: int,
    block_coins: bool = False,
) -> np.ndarray:
    """Worker for parallel MC: ``count`` independent cascades.

    Module-level so it pickles; the RNG is rebuilt from a spawned
    ``SeedSequence`` so parallel and serial runs draw from the same
    well-separated streams.  The chunk runs with the caller's ``batch``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(**seed_sequence_state))
    return _local_samples(graph, seeds, dynamics, count, rng, batch, block_coins)


def _local_samples(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    dynamics: Dynamics,
    r: int,
    rng: np.random.Generator,
    batch: int,
    block_coins: bool = False,
) -> np.ndarray:
    """``r`` spread samples in this process: serially at ``batch=1``,
    otherwise via ceil(r / batch) multi-cascade batches."""
    out = np.empty(r, dtype=np.float64)
    if batch == 1:
        for i in range(r):
            out[i] = simulate_spread(graph, seeds, dynamics, rng)
        return out
    from .batched import batched_cascades

    done = 0
    while done < r:
        b = min(batch, r - done)
        active = batched_cascades(graph, seeds, dynamics, rng, b, block_coins)
        out[done : done + b] = active.sum(axis=1)
        done += b
    return out


@dataclass(frozen=True)
class SpreadEstimate:
    """σ(S) estimate: sample mean, standard deviation, and sample count."""

    mean: float
    std: float
    simulations: int

    @property
    def stderr(self) -> float:
        """Standard error of the mean (the Fig.-12 error bar)."""
        if self.simulations <= 0:
            return float("nan")
        return self.std / np.sqrt(self.simulations)


def simulate_spread(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    dynamics: Dynamics,
    rng: np.random.Generator,
) -> int:
    """One realization of Γ(S) under the given dynamics (Alg. 1)."""
    if dynamics is Dynamics.IC:
        active = simulate_ic(graph, seeds, rng)
    elif dynamics is Dynamics.LT:
        active = simulate_lt(graph, seeds, rng)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unsupported dynamics {dynamics!r}")
    return int(active.sum())


def monte_carlo_spread(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    model: PropagationModel | Dynamics,
    r: int = DEFAULT_MC_SIMULATIONS,
    rng: np.random.Generator | None = None,
    return_samples: bool = False,
    workers: int | None = None,
    batch: int | None = None,
) -> SpreadEstimate | tuple[SpreadEstimate, np.ndarray]:
    """Estimate σ(S) by ``r`` independent cascade simulations.

    Accepts either a full :class:`PropagationModel` (whose dynamics are
    used — the graph must already carry that model's weights) or bare
    :class:`Dynamics`.

    ``workers > 1`` fans the simulations out over a process pool — the
    paper's 10K-simulation evaluation protocol is embarrassingly parallel.
    Worker streams are spawned from one ``SeedSequence``, so results are
    reproducible for a fixed (r, workers) pair, though they differ from
    the serial draw order.

    ``batch`` cascades advance per call of the sparse multi-cascade
    kernels (:mod:`repro.diffusion.batched`); ``None`` means
    :data:`DEFAULT_MC_BATCH`, and with ``workers`` each worker runs its
    chunk batched.  ``batch=1`` runs the legacy one-cascade-per-loop-pass
    path and reproduces its σ draw for draw.  Batched IC draws differ
    from serial ones sample-for-sample but agree distributionally
    (KS- and SE-tested under ``pytest -m statistical``); batched LT draws
    are identical to serial ones.

    Raises ``ValueError`` when a seed id lies outside ``[0, n)``.
    """
    if r < 1:
        raise ValueError("r must be positive")
    dynamics = model.dynamics if isinstance(model, PropagationModel) else model
    rng = np.random.default_rng() if rng is None else rng
    batch = DEFAULT_MC_BATCH if batch is None else int(batch)
    if batch < 1:
        raise ValueError("batch must be positive")
    ids = np.asarray(seeds, dtype=np.int64)
    outside = ids[(ids < 0) | (ids >= graph.n)]
    if outside.size:
        raise ValueError(
            f"seed ids outside [0, {graph.n}): {sorted(set(outside.tolist()))}"
        )
    samples = mc_samples(graph, ids, dynamics, r, rng, batch, workers)
    estimate = SpreadEstimate(
        mean=float(samples.mean()),
        # ddof=1 on a single sample is 0/0 -> NaN; a lone draw carries no
        # dispersion information, so report 0 instead.
        std=float(samples.std(ddof=1)) if r > 1 else 0.0,
        simulations=r,
    )
    if return_samples:
        return estimate, samples
    return estimate


def mc_samples(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    dynamics: Dynamics,
    r: int,
    rng: np.random.Generator,
    batch: int,
    workers: int | None = None,
    block_coins: bool = False,
) -> np.ndarray:
    """The ``r`` spread samples behind :func:`monte_carlo_spread`.

    Seeds are taken as valid.  ``block_coins`` selects the IC coin stream
    of the batched spread oracle (see :mod:`repro.diffusion.batched`).
    """
    tele = _tele()
    with tele.span("mc.spread"):
        if workers is not None and workers > 1:
            samples = _parallel_samples(
                graph, seeds, dynamics, r, rng, workers, batch, block_coins
            )
        else:
            samples = _local_samples(graph, seeds, dynamics, r, rng, batch, block_coins)
    tele.count("mc.simulations", r)
    return samples


def _parallel_samples(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    dynamics: Dynamics,
    r: int,
    rng: np.random.Generator,
    workers: int,
    batch: int,
    block_coins: bool,
) -> np.ndarray:
    """Fan ``r`` simulations out over the resilient worker pool."""
    # Lazy for the same circular-import reason as _tele.
    from ..framework.pool import run_chunks

    seed_list = [int(s) for s in np.asarray(seeds, dtype=np.int64)]
    base = int(rng.integers(0, 2**63 - 1))
    chunks = np.full(workers, r // workers, dtype=np.int64)
    chunks[: r % workers] += 1
    chunks = chunks[chunks > 0]
    states = [{"entropy": base, "spawn_key": (i,)} for i in range(len(chunks))]
    _tele().count("mc.worker_chunks", len(chunks))
    # Chunks draw from spawn-key-derived streams, so a lost chunk replays
    # byte-identically and the concatenation order is fixed by chunk index.
    # The graph, seed set and dynamics are chunk-invariant and travel
    # once per worker as shared args.
    parts = run_chunks(
        _simulate_chunk,
        [(int(c), s, batch, block_coins) for c, s in zip(chunks, states)],
        workers=len(chunks),
        label="mc.spread",
        shared=(graph, seed_list, dynamics),
    )
    return np.concatenate(parts)
