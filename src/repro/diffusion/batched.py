"""Batched cascade kernels: advance B independent cascades at once.

All ``B`` cascades live in flat ``B·n`` arrays indexed ``cascade·n + node``;
the frontier is the sorted array of those flat ids.  Each step gathers the
out-edges of exactly the frontier pairs and draws **one** coin per real IC
trial in frontier order (LT: ``np.add.at`` of the trial weights), so work
follows the trials, not ``B·n``.  Steps run in frontier slices of at most
:data:`SLICE_TRIALS` trials to bound the working set; the output does not
depend on the slice size.

At ``B = 1`` the IC kernel reproduces :func:`simulate_ic` draw for draw; the
LT kernel at any ``B`` reproduces ``B`` serial :func:`simulate_lt` cascades
(each draws exactly ``n`` thresholds).  IC at ``B > 1`` agrees with serial
IC distributionally (``tests/test_spread_statistical.py``).
``block_coins=True`` is the batched oracle's stream: one ``B×E`` coin block
per step over the union frontier's out-edges, read at the real trials.
"""

from __future__ import annotations

import numpy as np

from ..graph.digraph import DiGraph
from ._frontier import gather_edges
from .models import Dynamics

__all__ = ["SLICE_TRIALS", "simulate_ic_batch", "simulate_lt_batch", "batched_cascades"]

#: Trials per frontier slice: bounds the per-step transients.
SLICE_TRIALS = 1 << 14


def _start(graph: DiGraph, seeds, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``B·n`` active mask and the sorted flat seed frontier."""
    if batch < 1:
        raise ValueError("batch must be positive")
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    frontier = (np.arange(batch, dtype=np.int64)[:, None] * graph.n + seeds).ravel()
    active = np.zeros(batch * graph.n, dtype=bool)
    active[frontier] = True
    return active, frontier


def _unique(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct ``ids`` (sort-based: cheaper than ``np.unique`` here)."""
    ids = np.sort(ids)
    keep = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _slices(out_ptr: np.ndarray, frontier: np.ndarray, n: int):
    """Yield ``(part, counts, eidx)`` per slice of at most :data:`SLICE_TRIALS`
    trials (or one element): frontier ids, out-degrees, trial edges."""
    node = frontier % n
    counts = (out_ptr[node + 1] - out_ptr[node]).astype(np.int64, copy=False)
    ends = np.cumsum(counts)
    lo = 0
    while lo < frontier.size:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + SLICE_TRIALS, "right")))
        if ends[hi - 1] > done:
            yield frontier[lo:hi], counts[lo:hi], gather_edges(out_ptr, node[lo:hi])
        lo = hi


def _count(batch: int, steps: int) -> None:
    # Lazy: framework → runner → registry → diffusion would be circular.
    from ..framework.telemetry import current

    tele = current()
    tele.count("batched.cascades", batch)
    tele.count("batched.frontier_steps", steps)


def simulate_ic_batch(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    rng: np.random.Generator,
    batch: int,
    block_coins: bool = False,
) -> np.ndarray:
    """Run ``batch`` independent IC cascades; return the ``B×n`` active mask.

    Per Definition 4, each edge out of a newly active node is tried once per
    cascade: a node is on a cascade's frontier only on the step it activates.
    """
    active, frontier = _start(graph, seeds, batch)
    n, out_ptr, out_dst, out_w = graph.n, graph.out_ptr, graph.out_dst, graph.out_w
    steps = 0
    while frontier.size:
        if block_coins:
            union = _unique(frontier % n)
            widths = out_ptr[union + 1] - out_ptr[union]
            if not (width := int(widths.sum())):
                break
            block = rng.random(batch * width)
            # Edge e of union node u sits at e + first[u] in a block row.
            first = np.cumsum(widths) - widths - out_ptr[union]
        hits = []
        for part, counts, eidx in _slices(out_ptr, frontier, n):
            if block_coins:
                src = np.repeat(part, counts)
                at = src // n * width + first[np.searchsorted(union, src % n)]
                coins = block[at + eidx]
            else:
                coins = rng.random(eidx.size)
            live = np.flatnonzero(coins < out_w[eidx])
            owner = part[np.searchsorted(np.cumsum(counts), live, "right")]
            hits.append(owner - owner % n + out_dst[eidx[live]])
        if not hits:
            break
        steps += 1
        hit = np.concatenate(hits)
        frontier = _unique(hit[~active[hit]])
        active[frontier] = True
    _count(batch, steps)
    return active.reshape(batch, n)


def simulate_lt_batch(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    rng: np.random.Generator,
    batch: int,
    thresholds: np.ndarray | None = None,
) -> np.ndarray:
    """Run ``batch`` independent LT cascades; return the ``B×n`` active mask.

    Each cascade draws its own threshold realization θ ~ U(0,1)^n unless
    ``thresholds`` (shape ``B×n``) shares one across calls.  Only nodes that
    receive in-weight in a step can cross their threshold in it.
    """
    active, frontier = _start(graph, seeds, batch)
    n, out_ptr, out_dst, out_w = graph.n, graph.out_ptr, graph.out_dst, graph.out_w
    if frontier.size == 0:
        return active.reshape(batch, n)
    theta = rng.random((batch, n)) if thresholds is None else np.asarray(thresholds, float)
    if theta.shape != (batch, n):
        raise ValueError("thresholds must have shape (batch, n)")
    theta = theta.ravel()
    accumulated = np.zeros(batch * n, dtype=np.float64)
    steps = 0
    while frontier.size:
        crossed = []
        for part, counts, eidx in _slices(out_ptr, frontier, n):
            # The frontier holds only newly active nodes, so each active
            # node's weight counts once per cascade.  A node's last slice
            # in the step sees its final weight, so no crossing is missed.
            flat = np.repeat(part - part % n, counts) + out_dst[eidx]
            np.add.at(accumulated, flat, out_w[eidx])
            crossed.append(flat[~active[flat] & (accumulated[flat] >= theta[flat])])
        if not crossed:
            break
        steps += 1
        frontier = _unique(np.concatenate(crossed))
        active[frontier] = True
    _count(batch, steps)
    return active.reshape(batch, n)


def batched_cascades(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    dynamics: Dynamics,
    rng: np.random.Generator,
    batch: int,
    block_coins: bool = False,
) -> np.ndarray:
    """``batch`` cascades under ``dynamics`` (B×n mask); IC honours ``block_coins``."""
    if dynamics is Dynamics.IC:
        return simulate_ic_batch(graph, seeds, rng, batch, block_coins)
    if dynamics is Dynamics.LT:
        return simulate_lt_batch(graph, seeds, rng, batch)
    raise ValueError(f"unsupported dynamics {dynamics!r}")  # pragma: no cover
