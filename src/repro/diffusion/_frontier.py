"""Vectorized CSR slice expansion, shared by every frontier-style walker.

One primitive underlies the cascade simulators, the live-edge snapshot
reachability, the RR pool's set gathering, and the batched multi-cascade
kernels: given CSR offsets and a set of row ids, produce the flat index
array of every payload slot belonging to those rows in a single numpy
expression (no per-row Python loop).

``expand_slices`` returns the *indices*; ``gather_csr`` additionally
gathers the payload.  Both are int64-overflow-safe (the cumulative sum is
forced to int64 even when the inputs arrive as int32) and short-circuit
empty frontiers, so callers never pay array setup for a finished walk.
"""

from __future__ import annotations

import numpy as np

__all__ = ["expand_slices", "gather_csr", "gather_edges"]


def expand_slices(ptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Flat indices of the CSR slices ``ptr[i]:ptr[i+1]`` for ``i in ids``."""
    ids = np.asarray(ids)
    if ids.size == 0:  # empty-frontier fast path
        return np.empty(0, dtype=np.int64)
    starts = ptr[ids].astype(np.int64, copy=False)
    counts = (ptr[ids + 1] - ptr[ids]).astype(np.int64, copy=False)
    # int64-safe cumsum: with int32 ptr inputs the running total could
    # otherwise wrap on pools past 2^31 slots.
    ends = np.cumsum(counts, dtype=np.int64)
    total = int(ends[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Slot j of the output belongs to row i and sits ``j - (ends - counts)[i]``
    # into that row's slice, so its index is ``j`` plus one per-row shift:
    # classic CSR expansion without a Python loop, with a single repeat.
    shift = starts - (ends - counts)
    return np.arange(total, dtype=np.int64) + np.repeat(shift, counts)


def gather_csr(ptr: np.ndarray, data: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Concatenate the CSR slices ``data[ptr[i]:ptr[i+1]]`` for ``i in ids``."""
    idx = expand_slices(ptr, ids)
    if idx.size == 0:
        return np.empty(0, dtype=data.dtype)
    return data[idx]


def gather_edges(ptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Indices (into the CSR edge arrays) of all edges leaving ``nodes``."""
    return expand_slices(ptr, nodes)
