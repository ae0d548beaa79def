"""Influence spread and good-pioneer identification on a built graph.

The forward dynamic (an influenced node pushes along its transmitter
half-edges) and the reverse acknowledgement dynamic reveal exactly the
uniform matching, so a pioneer's reach is its forward closure in the static
influence digraph, and a target's possible pioneers are its backward closure.
Exact reach sizes for every node, at every n, come from one pass over the
condensation of strongly connected components: the components upstream of
the largest one share its forward closure, chains of single-successor
components add up by pointer jumping, and only the components with several
successors enumerate their closures.  Arcs and closure pairs travel as one
packed key, row << shift | col, so sorted distinct keys are in CSR order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import EnhancedGraph
from .special import _unique, index_dtype

__all__ = [
    "DiffusionOutcome",
    "influenced_set",
    "reverse_reach",
    "all_reach",
    "classify_good_pioneers",
]

DEFAULT_GAMMA = 0.5
DEFAULT_FLOOR = 0.01

#: Components whose closures ``_closure_sums`` enumerates together: a larger
#: block makes fewer numpy calls, a smaller one holds fewer (source, target)
#: pairs at once.
_CLOSURE_BLOCK = 1 << 12


def _gather(indptr, indices, frontier, counts):
    """Successors of every frontier node, which has ``counts`` of them."""
    starts = np.cumsum(counts) - counts
    offsets = np.arange(int(counts.sum()), dtype=np.int64)
    offsets += np.repeat(indptr[frontier] - starts, counts)
    return indices[offsets]


def _bfs(indptr, indices, start: int, n: int) -> np.ndarray:
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    frontier = np.array([start], dtype=np.int64)
    while frontier.size:
        neigh = _gather(indptr, indices, frontier, indptr[frontier + 1] - indptr[frontier])
        frontier = _unique(neigh[~visited[neigh]])
        visited[frontier] = True
    return visited


def influenced_set(g: EnhancedGraph, pioneer: int) -> np.ndarray:
    """Nodes reached by a campaign started at ``pioneer`` (itself included)."""
    if not 0 <= pioneer < g.n:
        raise ValueError(f"pioneer {pioneer} outside 0..{g.n - 1}")
    indptr, indices = _csr_from_edges(g.arc_src, g.arc_dst, g.n)
    return np.nonzero(_bfs(indptr, indices, pioneer, g.n))[0]


def reverse_reach(g: EnhancedGraph, target: int) -> np.ndarray:
    """Pioneers whose campaign would reach ``target`` (itself included)."""
    if not 0 <= target < g.n:
        raise ValueError(f"target {target} outside 0..{g.n - 1}")
    indptr, indices = _csr_from_edges(g.arc_dst, g.arc_src, g.n)
    return np.nonzero(_bfs(indptr, indices, target, g.n))[0]


def _condensation(g: EnhancedGraph):
    """SCC labels, per-SCC sizes, and distinct condensation edges sorted by (source, target)."""
    from scipy import sparse  # here, so that only the commands that condense a graph load it
    from scipy.sparse.csgraph import connected_components
    ids = index_dtype(g.n)
    # a node without an in-arc or without an out-arc lies on no cycle, so it
    # is an SCC of its own; scipy labels only the core of the other nodes,
    # numbered by their rank among them
    core = np.zeros(g.n, dtype=bool)
    core[g.arc_src] = True
    has_in = np.zeros(g.n, dtype=bool)
    has_in[g.arc_dst] = True
    core &= has_in
    del has_in
    labels = np.cumsum(core, dtype=ids)
    labels -= 1
    n_core = int(labels[-1]) + 1
    # the core arcs as distinct keys row << shift | col, in CSR order: scipy's
    # strong labelling miscounts SCCs, or does not finish, on duplicate entries
    inner = core[g.arc_src] & core[g.arc_dst]
    shift = (n_core - 1).bit_length()
    keys = labels[g.arc_src[inner]].astype(np.int64)
    keys <<= shift
    keys |= labels[g.arc_dst[inner]]
    keys = _unique(keys)
    cols = (keys & ((1 << shift) - 1)).astype(ids)
    keys >>= shift
    adj = sparse.csr_matrix((np.ones(cols.size, dtype=bool), cols, _indptr(keys, n_core)), shape=(n_core, n_core))
    del inner, keys, cols
    n_core_scc, core_labels = connected_components(adj, directed=True, connection="strong")
    del adj
    n_scc = n_core_scc + g.n - n_core
    sizes = np.ones(n_scc, dtype=ids)
    sizes[:n_core_scc] = np.bincount(core_labels)
    labels[core] = core_labels
    labels[~core] = np.arange(n_core_scc, n_scc, dtype=ids)
    del core, core_labels

    # the keys are built in place and each arc-sized array is freed once
    # used: at n = 1e6 the one-expression form raised simulate's peak by up
    # to 2 MB
    shift = (n_scc - 1).bit_length()
    cs = labels[g.arc_src]
    cd = labels[g.arc_dst]
    keep = cs != cd
    keys = cs[keep].astype(np.int64)
    del cs
    keys <<= shift
    keys |= cd[keep]
    del cd, keep
    keys = _unique(keys)
    cs = (keys >> shift).astype(ids)
    keys &= (1 << shift) - 1
    return n_scc, labels, sizes, cs, keys.astype(ids)


def _indptr(rows, n):
    """CSR row pointers over ``n`` rows of the arcs whose rows are ``rows``."""
    indptr = np.zeros(n + 1, dtype=index_dtype(rows.size))
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _csr_from_edges(src, dst, n):
    # any order within a row will do for BFS, and the default sort is fastest
    return _indptr(src, n), dst[np.argsort(src)]


@dataclass(frozen=True)
class DiffusionOutcome:
    """Reach statistics of one realized graph.

    ``reach_sizes[v]`` is the exact size of the set node v influences.
    ``good_pioneers`` holds the nodes passing the classification rule;
    ``alpha_hat_sim`` is the mean relative reach over that set (the upper
    concentration cluster) and ``alpha_bar_hat_sim`` its relative size.
    """

    reach_sizes: np.ndarray
    good_pioneers: np.ndarray
    alpha_hat_sim: float
    alpha_bar_hat_sim: float

    @property
    def reach_histogram(self) -> list[tuple[float, int]]:
        """Sorted (reach_size / n, count) pairs."""
        n = self.reach_sizes.size
        # no reach exceeds n, so the copy that is sorted takes the narrow dtype
        vals, counts = _unique(self.reach_sizes.astype(index_dtype(n)), return_counts=True)
        return [(float(v) / n, int(c)) for v, c in zip(vals, counts)]


def classify_good_pioneers(
    sizes,
    gamma: float = DEFAULT_GAMMA,
    floor: float = DEFAULT_FLOOR,
    *,
    n: int,
) -> np.ndarray:
    """Nodes v with reach ``sizes[v]`` >= max(gamma * max reach, floor * n).

    The limit theory calls a pioneer good when it reaches a positive
    fraction of the population; at finite n this rule makes the cutoff
    explicit.  ``gamma`` anchors to the largest observed reach (the upper
    cluster of the bimodal histogram), ``floor`` guards against declaring
    pioneers good in subcritical graphs where every reach is sublinear.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if not 0.0 <= floor < 1.0:
        raise ValueError("floor must lie in [0, 1)")
    sizes = np.asarray(sizes)
    threshold = max(gamma * float(sizes.max()), floor * n)
    return np.nonzero(sizes >= threshold)[0]


def all_reach(
    g: EnhancedGraph,
    gamma: float = DEFAULT_GAMMA,
    floor: float = DEFAULT_FLOOR,
) -> DiffusionOutcome:
    """Exact reach size of every pioneer, the good pioneers and both fractions.

    Reach sizes equal a per-node traversal on every graph.
    """
    reach_sizes = _reach_sizes(g)
    good = classify_good_pioneers(reach_sizes, gamma, floor, n=g.n)
    alpha_bar = good.size / g.n
    alpha = float(reach_sizes[good].mean()) / g.n if good.size else 0.0
    return DiffusionOutcome(
        reach_sizes=reach_sizes,
        good_pioneers=good,
        alpha_hat_sim=alpha,
        alpha_bar_hat_sim=alpha_bar,
    )


def _reach_sizes(g: EnhancedGraph) -> np.ndarray:
    """Per-node reach sizes from the condensation.

    With g the largest SCC, F the SCCs g reaches (g included) and B the SCCs
    that reach g, every SCC in B reaches all of F, so its reach is |F| plus
    what it reaches outside F, and its arcs into F can be dropped.  On the
    remaining DAG each SCC carries two closure sums, over all nodes and over
    nodes outside F; an SCC in B uses the second.  No path from an SCC
    outside B meets a dropped arc, so its full sum is its exact reach.
    """
    n_scc, labels, sizes, cs, cd = _condensation(g)
    giant = int(np.argmax(sizes))
    # the arcs come sorted by (source, target), and filtering keeps that order
    fwd = _bfs(_indptr(cs, n_scc), cd, giant, n_scc)
    bwd = _bfs(*_csr_from_edges(cd, cs, n_scc), giant, n_scc)
    # in place, freeing each array once used: the one-expression mask
    # `~(bwd[cs] & fwd[cd])` raised simulate's peak at n = 1e6 by 8 MB
    keep = bwd[cs]
    keep &= fwd[cd]
    np.logical_not(keep, out=keep)
    cs, idx = cs[keep], cd[keep]
    del cd, keep
    ptr = _indptr(cs, n_scc)
    del cs
    fwd_size = int(np.sum(sizes, where=fwd))
    outside = np.where(fwd, 0, sizes)
    del fwd

    _closure_sums(ptr, idx, sizes, outside)
    del ptr, idx
    outside += fwd_size  # at most n: outside counts no node of F
    np.copyto(sizes, outside, where=bwd)
    del outside, bwd
    reach = sizes.astype(np.int64)
    del sizes
    return reach[labels]


def _closure_sums(ptr, idx, sizes, outside):
    """Replace ``sizes`` and ``outside``, in place, by their sums over each
    DAG node's closure."""
    n = sizes.size
    outdeg = np.diff(ptr)
    multi = np.nonzero(outdeg > 1)[0]
    single = np.nonzero(outdeg == 1)[0]

    # A node with two or more successors enumerates its closure as packed
    # (block row << shift | node) keys, one successor level at a time; the
    # graph is acyclic, so the levels run out.  Each level is deduplicated
    # but not checked against earlier ones: a node at several depths (an
    # unequal-length diamond) recurs until the final dedup, which on
    # configuration-model graphs costs a few percent of extra pairs and is
    # far cheaper than merging a visited set at every level.  The sums are
    # stored once every closure has read the sizes.
    shift = (n - 1).bit_length()
    mask = (1 << shift) - 1
    multi_tot = np.empty(multi.size, dtype=sizes.dtype)
    multi_out = np.empty(multi.size, dtype=sizes.dtype)
    for lo in range(0, multi.size, _CLOSURE_BLOCK):
        block = multi[lo : lo + _CLOSURE_BLOCK]
        heads = np.arange(block.size, dtype=np.int64) << shift
        rows, nodes, levels = heads, block, [heads | block]
        while nodes.size:
            counts = outdeg[nodes]
            keys = np.repeat(rows, counts)
            keys |= _gather(ptr, idx, nodes, counts)
            levels.append(_unique(keys))
            rows, nodes = levels[-1] & ~mask, levels[-1] & mask
        keys = _unique(np.concatenate(levels))
        del levels
        starts = np.searchsorted(keys, heads)
        keys &= mask
        multi_tot[lo : lo + block.size] = np.add.reduceat(sizes[keys], starts)
        multi_out[lo : lo + block.size] = np.add.reduceat(outside[keys], starts)
    sizes[multi], outside[multi] = multi_tot, multi_out
    del multi, multi_tot, multi_out

    # The sums end at a node with no successor (its own size) or with
    # several; a chain of single-successor nodes adds its own sizes on top,
    # summed by pointer jumping.
    nxt = np.arange(n, dtype=index_dtype(n))
    nxt[single] = idx[ptr[single]]
    active = single[outdeg[nxt[single]] == 1]
    while active.size:
        step = nxt[active]
        sizes[active] += sizes[step]
        outside[active] += outside[step]
        nxt[active] = nxt[step]
        active = active[outdeg[nxt[active]] == 1]
    last = nxt[single]
    sizes[single] += sizes[last]
    outside[single] += outside[last]
