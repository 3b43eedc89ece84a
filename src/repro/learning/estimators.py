"""Influence-probability estimators over action logs.

The three static models of Goyal et al. (WSDM'10), adapted
to directed graphs:

* :func:`bernoulli` — maximum-likelihood frequency:
  ``p(u,v) = A_{v|u} / A_u`` where ``A_{v|u}`` counts actions ``v``
  performed *after* ``u`` (a successful propagation along the edge) and
  ``A_u`` counts ``u``'s actions (the trials).
* :func:`jaccard` — ``A_{v|u} / A_{u ∪ v}``, normalizing by joint
  activity; more robust when activity levels are wildly uneven.
* :func:`partial_credits` — when ``v`` acts after several of its
  in-neighbours, each gets credit ``1/(number of prior active parents)``
  instead of full credit, avoiding systematic over-counting at
  high-in-degree nodes.

All estimators return a weighted copy of the input topology; edges never
observed propagating get ``default`` (0 by default — never seen, never
believed).
"""

from __future__ import annotations

import numpy as np

from ..graph.digraph import DiGraph
from .traces import ActionLog

__all__ = ["bernoulli", "jaccard", "partial_credits"]


def _edge_statistics(graph: DiGraph, log: ActionLog):
    """Per-edge counts shared by the estimators.

    Returns (successes, trials, joint, credits) arrays aligned with the
    graph's out-CSR edge order.
    """
    m = graph.m
    successes = np.zeros(m, dtype=np.float64)
    credits = np.zeros(m, dtype=np.float64)
    joint = np.zeros(m, dtype=np.float64)
    trials = np.zeros(graph.n, dtype=np.float64)
    acted = np.zeros(graph.n, dtype=np.float64)

    # Edge index lookup: (u, v) -> position in out-CSR order.
    edge_pos: dict[tuple[int, int], int] = {}
    src = graph.edge_src
    for j in range(m):
        edge_pos[(int(src[j]), int(graph.out_dst[j]))] = j

    for action in log.actions:
        for u in action:
            trials[u] += 1
            acted[u] += 1
        for v, tv in action.items():
            # In-neighbours of v that acted strictly before it.
            parents = [
                u for u in action
                if action[u] < tv and (u, v) in edge_pos
            ]
            for u in parents:
                j = edge_pos[(u, v)]
                successes[j] += 1
                credits[j] += 1.0 / len(parents)
        # Joint activity per edge where either endpoint acted.
        for (u, v), j in edge_pos.items():
            if u in action or v in action:
                joint[j] += 1
    return successes, trials, joint, credits


def _weighted(graph: DiGraph, numerator, denominator, default: float) -> DiGraph:
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(denominator > 0, numerator / denominator, default)
    return graph.with_weights(np.clip(w, 0.0, 1.0))


def bernoulli(graph: DiGraph, log: ActionLog, default: float = 0.0) -> DiGraph:
    """MLE frequency estimate p(u,v) = successes(u,v) / trials(u)."""
    successes, trials, __, __c = _edge_statistics(graph, log)
    return _weighted(graph, successes, trials[graph.edge_src], default)


def jaccard(graph: DiGraph, log: ActionLog, default: float = 0.0) -> DiGraph:
    """Jaccard estimate p(u,v) = successes(u,v) / joint-activity(u,v)."""
    successes, __, joint, __c = _edge_statistics(graph, log)
    return _weighted(graph, successes, joint, default)


def partial_credits(
    graph: DiGraph, log: ActionLog, default: float = 0.0
) -> DiGraph:
    """Credit-shared estimate p(u,v) = credits(u,v) / trials(u)."""
    __, trials, __j, credits = _edge_statistics(graph, log)
    return _weighted(graph, credits, trials[graph.edge_src], default)
