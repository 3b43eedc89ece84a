"""Exact ground-truth oracles and reference implementations for tests.

Two kinds of reference live here:

* Exact σ(S) by exhaustive enumeration on tiny graphs.  These validate the
  Monte-Carlo estimators, RR-set unbiasedness and the live-edge
  equivalences.
* The original dict/heap implementations of the path-proxy family
  (:func:`reference_pmia_select`, :func:`reference_ldag_select`,
  :func:`reference_irie_select`) and the list-walking RR max-cover
  (:func:`reference_max_cover`).  The flat engines in
  :mod:`repro.diffusion.paths` and :mod:`repro.diffusion.rrpool` must
  return byte-identical seeds; the equivalence tests and the engine
  benches (``benchmarks/bench_path_engine.py``,
  ``benchmarks/bench_rr_engine.py``) compare against these.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.algorithms.irie import IRIE
from repro.diffusion.models import Dynamics
from repro.diffusion.rrpool import FlatRRPool, pad_seeds
from repro.graph.digraph import DiGraph


def exact_spread(graph: DiGraph, seeds: list[int], dynamics: Dynamics) -> float:
    """Exact σ(S) under either dynamics (dispatcher for the two oracles)."""
    if dynamics is Dynamics.IC:
        return exact_ic_spread(graph, seeds)
    if dynamics is Dynamics.LT:
        return exact_lt_spread(graph, seeds)
    raise ValueError(f"unsupported dynamics {dynamics!r}")


def exact_ic_spread(graph: DiGraph, seeds: list[int]) -> float:
    """Exact σ(S) under IC by enumerating all 2^m live-edge worlds.

    Only usable on graphs with a handful of edges; this is the ground
    truth MC estimates and RR-set estimators are validated against.
    """
    m = graph.m
    if m > 20:
        raise ValueError("too many edges for exhaustive enumeration")
    src = graph.edge_src
    dst = graph.edge_dst
    w = graph.out_w
    total = 0.0
    for pattern in itertools.product((False, True), repeat=m):
        prob = 1.0
        adj: dict[int, list[int]] = {}
        for j, live in enumerate(pattern):
            if live:
                prob *= w[j]
                adj.setdefault(int(src[j]), []).append(int(dst[j]))
            else:
                prob *= 1.0 - w[j]
        if prob == 0.0:
            continue
        reached = set(seeds)
        frontier = list(seeds)
        while frontier:
            u = frontier.pop()
            for v in adj.get(u, ()):
                if v not in reached:
                    reached.add(v)
                    frontier.append(v)
        total += prob * len(reached)
    return total


def exact_lt_spread(graph: DiGraph, seeds: list[int]) -> float:
    """Exact σ(S) under LT via Kempe et al.'s live-edge equivalence.

    Each node independently keeps one incoming edge with probability equal
    to its weight (or none, with the residual probability); spread is the
    expected forward reach of S over all such worlds.
    """
    choices: list[list[tuple[int | None, float]]] = []
    for v in range(graph.n):
        srcs, ws = graph.in_neighbors(v)
        options: list[tuple[int | None, float]] = [
            (int(u), float(wu)) for u, wu in zip(srcs, ws)
        ]
        residual = 1.0 - float(ws.sum())
        options.append((None, residual))
        choices.append(options)
    total = 0.0
    for combo in itertools.product(*[range(len(c)) for c in choices]):
        prob = 1.0
        parents: list[int | None] = []
        for v, idx in enumerate(combo):
            parent, p = choices[v][idx]
            prob *= p
            parents.append(parent)
        if prob == 0.0:
            continue
        reached = set(seeds)
        changed = True
        while changed:
            changed = False
            for v in range(graph.n):
                if v not in reached and parents[v] is not None and parents[v] in reached:
                    reached.add(v)
                    changed = True
        total += prob * len(reached)
    return total


# -- path-proxy references (PMIA, LDAG, IRIE) ------------------------------


def max_probability_paths(
    graph: DiGraph, source: int, threshold: float
) -> dict[int, float]:
    """Maximum path-propagation probability from ``source`` to each node.

    Dijkstra over -log(weight); paths whose product drops below
    ``threshold`` are pruned (the MIA/PMIA trick).  Returns only nodes with
    pp >= threshold, excluding the source itself.
    """
    best: dict[int, float] = {source: 1.0}
    heap: list[tuple[float, int]] = [(-1.0, source)]
    while heap:
        neg_pp, u = heapq.heappop(heap)
        pp = -neg_pp
        # Stale duplicate entries carry a pp below the final best[u]
        # (push values strictly increase per node); comparing against
        # best skips them without a settled-set membership probe.
        if pp < best[u]:
            continue
        dst, w = graph.out_neighbors(u)
        for v, wv in zip(dst, w):
            v = int(v)
            nxt = pp * float(wv)
            if nxt < threshold:
                continue
            if nxt > best.get(v, 0.0):
                best[v] = nxt
                heapq.heappush(heap, (-nxt, v))
    best.pop(source, None)
    return best


class Arborescence:
    """MIIA(root, θ): parent pointers toward the root + processing order.

    Carries PMIA's tree dynamic programs: exact IC activation
    probabilities (leaves first) and the MIA α recursion (root first).
    """

    __slots__ = ("root", "order", "parent", "weight", "children", "ap", "alpha")

    def __init__(
        self,
        root: int,
        order: list[int],
        parent: dict[int, int],
        weight: dict[int, float],
    ) -> None:
        self.root = root
        #: Nodes sorted farthest-first (leaves before the root).
        self.order = order
        #: parent[u] = next hop from u toward the root (root absent).
        self.parent = parent
        #: weight[u] = W(u, parent[u]).
        self.weight = weight
        self.children: dict[int, list[int]] = {u: [] for u in order}
        for u, x in parent.items():
            self.children[x].append(u)
        self.ap: dict[int, float] = {}
        self.alpha: dict[int, float] = {}

    @property
    def nodes(self) -> set[int]:
        return set(self.order)

    def forward_ap(self, in_seed: np.ndarray) -> None:
        """Exact IC activation probability on the tree (leaves first)."""
        ap: dict[int, float] = {}
        for x in self.order:
            if in_seed[x]:
                ap[x] = 1.0
                continue
            miss = 1.0
            for y in self.children[x]:
                miss *= 1.0 - ap[y] * self.weight[y]
            ap[x] = 1.0 - miss
        self.ap = ap

    def backward_alpha(self, in_seed: np.ndarray) -> None:
        """α(root, u) by the MIA recursion (root first)."""
        alpha: dict[int, float] = {u: 0.0 for u in self.order}
        if in_seed[self.root]:
            self.alpha = alpha
            return
        alpha[self.root] = 1.0
        for x in reversed(self.order):  # root towards the leaves
            ax = alpha[x]
            if ax == 0.0:
                continue
            if in_seed[x] and x != self.root:
                continue
            kids = self.children[x]
            if not kids:
                continue
            misses = [1.0 - self.ap[y] * self.weight[y] for y in kids]
            total_miss = 1.0
            for m in misses:
                total_miss *= m
            for y, miss_y in zip(kids, misses):
                # Product over siblings of y = total product / y's factor;
                # guard the miss_y == 0 case (a sibling with certain
                # activation) by recomputing directly.
                if miss_y > 1e-12:
                    siblings = total_miss / miss_y
                else:
                    siblings = 1.0
                    for z, miss_z in zip(kids, misses):
                        if z != y:
                            siblings *= miss_z
                alpha[y] = ax * self.weight[y] * siblings
        self.alpha = alpha

    def gains(self, in_seed: np.ndarray) -> dict[int, float]:
        """IncInf contribution ``α(root, u)·(1 − ap(u))`` of each non-seed."""
        self.forward_ap(in_seed)
        self.backward_alpha(in_seed)
        return {
            u: self.alpha[u] * (1.0 - self.ap[u])
            for u in self.order
            if not in_seed[u]
        }


def build_miia(
    graph: DiGraph,
    root: int,
    theta: float,
    blocked: np.ndarray | None = None,
) -> Arborescence:
    """Max-probability in-arborescence of ``root``, pruned below ``theta``.

    ``blocked`` marks nodes that may not appear as *interior* nodes (the
    prefix exclusion: chosen seeds block influence paths through them).
    """
    best: dict[int, float] = {root: 1.0}
    parent: dict[int, int] = {}
    weight: dict[int, float] = {}
    settle_order: list[int] = []
    heap: list[tuple[float, int]] = [(-1.0, root)]
    while heap:
        neg_pp, x = heapq.heappop(heap)
        pp = -neg_pp
        # A node is pushed once per strict improvement, so stale entries
        # carry a pp below the final best[x]; comparing against best skips
        # them without a separate settled set (pushed values are strictly
        # increasing, so the equality fires exactly once per node).
        if pp < best[x]:
            continue
        settle_order.append(x)
        if blocked is not None and blocked[x] and x != root:
            continue  # a seed conducts nothing further upstream
        src, w = graph.in_neighbors(x)
        for y, wy in zip(src, w):
            y = int(y)
            nxt = pp * float(wy)
            if nxt >= theta and nxt > best.get(y, 0.0):
                best[y] = nxt
                parent[y] = x
                weight[y] = float(wy)
                heapq.heappush(heap, (-nxt, y))
    # parent/weight were overwritten on every improvement, so they are
    # consistent with `best`; order leaves-first = reverse settle order.
    order = list(reversed(settle_order))
    return Arborescence(root, order, parent, weight)


def reference_pmia_select(
    graph: DiGraph, k: int, theta: float = 1.0 / 320.0
) -> list[int]:
    """PMIA's greedy over per-root MIIAs with prefix-exclusion rebuilds."""
    in_seed = np.zeros(graph.n, dtype=bool)
    arbs: list[Arborescence] = []
    containing: list[set[int]] = [set() for __ in range(graph.n)]
    for v in range(graph.n):
        arb = build_miia(graph, v, theta)
        idx = len(arbs)
        arbs.append(arb)
        for u in arb.order:
            containing[u].add(idx)

    inc_inf = np.zeros(graph.n, dtype=np.float64)
    per_arb_gain: list[dict[int, float]] = []
    for arb in arbs:
        gains = arb.gains(in_seed)
        per_arb_gain.append(gains)
        for u, g in gains.items():
            inc_inf[u] += g

    seeds: list[int] = []
    for __ in range(k):
        s = int(np.where(in_seed, -np.inf, inc_inf).argmax())
        seeds.append(s)
        in_seed[s] = True
        # Prefix exclusion: rebuild every arborescence containing s
        # with the updated seed set banned from interior positions.
        for idx in sorted(containing[s]):
            for u, g in per_arb_gain[idx].items():
                inc_inf[u] -= g
            old_nodes = arbs[idx].nodes
            rebuilt = build_miia(graph, arbs[idx].root, theta, blocked=in_seed)
            arbs[idx] = rebuilt
            for u in old_nodes - rebuilt.nodes:
                containing[u].discard(idx)
            for u in rebuilt.nodes - old_nodes:
                containing[u].add(idx)
            gains = rebuilt.gains(in_seed)
            per_arb_gain[idx] = gains
            for u, g in gains.items():
                inc_inf[u] += g
    return seeds


class LocalDAG:
    """LDAG(v, η): nodes, intra-DAG edges, and a valid processing order.

    Carries LDAG's linear LT dynamic programs: activation probabilities
    (farthest first) and α = ∂ap(root)/∂ap(u) (nearest first).
    """

    __slots__ = ("root", "nodes", "order", "in_edges", "ap", "alpha")

    def __init__(
        self,
        root: int,
        order: list[int],
        in_edges: dict[int, list[tuple[int, float]]],
    ) -> None:
        self.root = root
        # ``order`` sorts nodes by decreasing distance-to-root: every kept
        # edge goes from a node farther from the root to one nearer, i.e.
        # forward in ``order``.
        self.order = order
        self.nodes = set(order)
        self.in_edges = in_edges
        self.ap: dict[int, float] = {}
        self.alpha: dict[int, float] = {}

    def forward_ap(self, in_seed: np.ndarray) -> None:
        """ap(x) for the current seed set: seeds have ap = 1."""
        ap: dict[int, float] = {}
        for x in self.order:  # farthest first: all in-DAG parents come earlier
            if in_seed[x]:
                ap[x] = 1.0
                continue
            total = 0.0
            for y, wy in self.in_edges[x]:
                total += ap[y] * wy
            ap[x] = min(total, 1.0)
        self.ap = ap

    def backward_alpha(self, in_seed: np.ndarray) -> None:
        """α(u) = ∂ap(root)/∂ap(u); propagation stops at seeds."""
        alpha: dict[int, float] = {u: 0.0 for u in self.order}
        if in_seed[self.root]:
            # ap(root) is pinned at 1; nothing can change it.
            self.alpha = alpha
            return
        alpha[self.root] = 1.0
        for x in reversed(self.order):  # nearest-to-root first
            ax = alpha[x]
            if ax == 0.0:
                continue
            if in_seed[x] and x != self.root:
                # A seed's ap is pinned at 1: derivatives do not pass it.
                continue
            for y, wy in self.in_edges[x]:
                alpha[y] += ax * wy
        self.alpha = alpha

    def gains(self, in_seed: np.ndarray) -> dict[int, float]:
        """Marginal gain contribution of each DAG member."""
        self.forward_ap(in_seed)
        self.backward_alpha(in_seed)
        return {
            u: self.alpha[u] * (1.0 - self.ap[u])
            for u in self.order
            if not in_seed[u]
        }


def build_ldag(graph: DiGraph, root: int, eta: float) -> LocalDAG:
    """Construct LDAG(root, η) via max-probability-path Dijkstra.

    A node ``u`` enters the DAG when its best path probability to ``root``
    is >= η; the DAG keeps every graph edge (y, x) between members whose
    settle ranks strictly decrease toward the root, which guarantees
    acyclicity.
    """
    # Dijkstra on the reverse graph maximizing the product of weights.
    # The settle order is the distance ranking: settled earlier = nearer to
    # the root (ties included), which breaks pp ties consistently.
    best: dict[int, float] = {root: 1.0}
    settle_rank: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(-1.0, root)]
    while heap:
        neg_pp, x = heapq.heappop(heap)
        pp = -neg_pp
        # Stale entries (superseded by a later strict improvement) carry
        # pp < best[x]; the comparison skips them without a settled-set
        # membership probe (push values strictly increase per node).
        if pp < best[x]:
            continue
        settle_rank[x] = len(settle_rank)
        src, w = graph.in_neighbors(x)
        for y, wy in zip(src, w):
            y = int(y)
            nxt = pp * float(wy)
            if nxt >= eta and nxt > best.get(y, 0.0):
                best[y] = nxt
                heapq.heappush(heap, (-nxt, y))

    # Farthest-first processing order (descending settle rank); every kept
    # edge (y, x) has rank(y) > rank(x), so it points forward in ``order``
    # and the kept edge set is acyclic with the root last.
    order = sorted(settle_rank, key=lambda u: settle_rank[u], reverse=True)
    in_edges: dict[int, list[tuple[int, float]]] = {u: [] for u in settle_rank}
    for x in settle_rank:
        src, w = graph.in_neighbors(x)
        for y, wy in zip(src, w):
            y = int(y)
            if y in settle_rank and settle_rank[y] > settle_rank[x]:
                in_edges[x].append((y, float(wy)))
    return LocalDAG(root, order, in_edges)


def reference_ldag_select(
    graph: DiGraph, k: int, eta: float = 1.0 / 320.0
) -> list[int]:
    """LDAG's greedy over per-node local DAGs (static topology)."""
    in_seed = np.zeros(graph.n, dtype=bool)
    dags: list[LocalDAG] = []
    containing: list[list[int]] = [[] for __ in range(graph.n)]
    for v in range(graph.n):
        dag = build_ldag(graph, v, eta)
        idx = len(dags)
        dags.append(dag)
        for u in dag.nodes:
            containing[u].append(idx)

    # Global incremental-influence scores: IncInf[u] = Σ_DAGs gain.
    inc_inf = np.zeros(graph.n, dtype=np.float64)
    per_dag_gain: list[dict[int, float]] = []
    for dag in dags:
        gains = dag.gains(in_seed)
        per_dag_gain.append(gains)
        for u, g in gains.items():
            inc_inf[u] += g

    seeds: list[int] = []
    for __ in range(k):
        s = int(np.where(in_seed, -np.inf, inc_inf).argmax())
        seeds.append(s)
        in_seed[s] = True
        # Only DAGs containing s change; swap their gain contributions.
        for idx in containing[s]:
            for u, g in per_dag_gain[idx].items():
                inc_inf[u] -= g
            gains = dags[idx].gains(in_seed)
            per_dag_gain[idx] = gains
            for u, g in gains.items():
                inc_inf[u] += g
    return seeds


def reference_irie_select(
    graph: DiGraph,
    k: int,
    alpha: float = 0.7,
    iterations: int = 20,
    ap_threshold: float = 1.0 / 320.0,
) -> list[int]:
    """IRIE with the IE step on :func:`max_probability_paths` dicts.

    The IR step is IRIE's own rank iteration; only the influence
    estimation differs from the engine path.
    """
    ranker = IRIE(alpha=alpha, iterations=iterations)
    ap = np.zeros(graph.n, dtype=np.float64)
    in_seed = np.zeros(graph.n, dtype=bool)
    seeds: list[int] = []
    for __ in range(k):
        rank = ranker._rank(graph, ap, graph.edge_src)
        v = int(np.where(in_seed, -np.inf, rank).argmax())
        seeds.append(v)
        in_seed[v] = True
        ap[v] = 1.0
        for u, pp in max_probability_paths(graph, v, ap_threshold).items():
            if not in_seed[u]:
                ap[u] = 1.0 - (1.0 - ap[u]) * (1.0 - pp)
    return seeds


#: The reference selection of each path-proxy technique, by name.
REFERENCE_SELECT = {
    "PMIA": reference_pmia_select,
    "LDAG": reference_ldag_select,
    "IRIE": reference_irie_select,
}


# -- RR max-cover reference ------------------------------------------------


def rr_lists(pool: FlatRRPool) -> tuple[list[np.ndarray], list[list[int]]]:
    """``(sets, member_of)`` list views of a pool's two CSR views."""
    ptr, data = pool.set_ptr, pool.set_nodes
    sets = [data[ptr[i] : ptr[i + 1]] for i in range(len(pool))]
    node_ptr, node_sets = pool.node_index
    member_of = [
        node_sets[node_ptr[v] : node_ptr[v + 1]].tolist() for v in range(pool.n)
    ]
    return sets, member_of


def reference_max_cover(
    pool: FlatRRPool,
    k: int,
    pad_priority: np.ndarray | None = None,
    lists: tuple[list[np.ndarray], list[list[int]]] | None = None,
) -> tuple[list[int], float]:
    """The original list-walking greedy max-cover.

    Same contract as :func:`repro.diffusion.rrpool.greedy_max_cover`.
    ``lists`` takes :func:`rr_lists` precomputed, so a timing can
    measure the cover walk without the CSR-to-list conversion.
    """
    num_sets = len(pool)
    if num_sets == 0 or k <= 0:
        return [], 0.0
    n = pool.n
    sets, member_of = rr_lists(pool) if lists is None else lists
    count = np.zeros(n, dtype=np.int64)
    for v in range(n):
        count[v] = len(member_of[v])
    covered = np.zeros(num_sets, dtype=bool)
    seeds: list[int] = []
    for __ in range(min(k, n)):
        v = int(count.argmax())
        if count[v] <= 0:
            # Nothing left to cover; pad with the highest-priority
            # unseeded nodes so exactly k seeds are returned.
            priority = (
                pad_priority
                if pad_priority is not None
                else pool.membership_counts()
            )
            pad_seeds(seeds, k, n, priority)
            break
        seeds.append(v)
        newly = [i for i in member_of[v] if not covered[i]]
        for i in newly:
            covered[i] = True
            for u in sets[i]:
                count[int(u)] -= 1
        # count[v] is now 0 automatically (its uncovered sets were covered).
    return seeds[:k], float(covered.mean())
