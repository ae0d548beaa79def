"""Influence spread and good-pioneer identification on a built graph.

The forward dynamic (an influenced node pushes along its transmitter
half-edges) and the reverse acknowledgement dynamic reveal exactly the
uniform matching, so component membership reduces to reachability in the
static influence digraph: the set a pioneer influences is its forward
closure, and the pioneers that can influence a target form the target's
backward closure.  Exact reach sizes for every node, at every n, come from
one pass over the condensation of strongly connected components: the
components upstream of the largest one share its forward closure, chains
of single-successor components add up by pointer jumping, and only the
components with several successors enumerate their closures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import EnhancedGraph, index_dtype
from .special import _unique

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


def _gather(indptr, indices, frontier):
    """Successors of every frontier node, and how many each one has."""
    counts = indptr[frontier + 1] - indptr[frontier]
    starts = np.cumsum(counts) - counts
    offsets = np.arange(int(counts.sum()), dtype=np.int64)
    offsets += np.repeat(indptr[frontier] - starts, counts)
    return indices[offsets], counts


def _bfs(indptr, indices, start: int, n: int) -> np.ndarray:
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    frontier = np.array([start], dtype=np.int64)
    while frontier.size:
        neigh = _gather(indptr, indices, frontier)[0]
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
    """SCC labels, per-SCC sizes, and deduplicated condensation edges."""
    from scipy import sparse  # here, so that only the commands that condense a graph load it
    from scipy.sparse.csgraph import connected_components
    # csr_matrix from COO sums duplicate arcs: on a CSR that holds duplicate
    # entries, scipy's strong labelling miscounts SCCs or does not finish
    adj = sparse.csr_matrix(
        (np.ones(g.arc_count, dtype=bool), (g.arc_src, g.arc_dst)), shape=(g.n, g.n)
    )
    n_scc, labels = connected_components(adj, directed=True, connection="strong")
    del adj
    ids = index_dtype(g.n)
    sizes = np.bincount(labels, minlength=n_scc).astype(ids)
    cs, cd = labels[g.arc_src], labels[g.arc_dst]
    keep = cs != cd
    keys = _unique(cs[keep].astype(np.int64) * n_scc + cd[keep])
    return n_scc, labels, sizes, (keys // n_scc).astype(ids), (keys % n_scc).astype(ids)


def _csr_from_edges(src, dst, n):
    # any order within a row will do: BFS keeps a visited set and the
    # closure sums dedupe, and the default sort is several times faster
    order = np.argsort(src)
    indptr = np.zeros(n + 1, dtype=index_dtype(src.size))
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order]


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
        vals, counts = _unique(self.reach_sizes.copy(), return_counts=True)
        return [(float(v) / self.reach_sizes.size, int(c)) for v, c in zip(vals, counts)]


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
    ptr, idx = _csr_from_edges(cs, cd, n_scc)
    fwd = _bfs(ptr, idx, giant, n_scc)
    ptr, idx = _csr_from_edges(cd, cs, n_scc)
    bwd = _bfs(ptr, idx, giant, n_scc)
    keep = ~(bwd[cs] & fwd[cd])
    ptr, idx = _csr_from_edges(cs[keep], cd[keep], n_scc)
    del cs, cd, keep
    outside = np.where(fwd, 0, sizes)
    fwd_size = int(sizes[fwd].sum())
    del fwd

    tot, out = _closure_sums(ptr, idx, sizes, outside)
    reach = np.where(bwd, fwd_size + out, tot)
    return reach.astype(np.int64)[labels]


def _closure_sums(ptr, idx, sizes, outside):
    """Sums of ``sizes`` and ``outside`` over each DAG node's closure."""
    n = sizes.size
    outdeg = np.diff(ptr)
    tot = np.zeros(n, dtype=sizes.dtype)
    out = np.zeros(n, dtype=sizes.dtype)

    # A node with two or more successors enumerates its closure as
    # (block row, node) pairs, one successor level at a time; the graph is
    # acyclic, so the levels run out.  Each level is deduplicated but not
    # checked against earlier ones: a node at several depths (an
    # unequal-length diamond) recurs until the final dedup, which on
    # configuration-model graphs costs a few percent of extra pairs and is
    # far cheaper than merging a visited set at every level.
    multi = np.nonzero(outdeg > 1)[0]
    for lo in range(0, multi.size, _CLOSURE_BLOCK):
        block = multi[lo : lo + _CLOSURE_BLOCK]
        rows, nodes = np.arange(block.size, dtype=np.int64), block
        levels = [rows * n + block]
        while nodes.size:
            neigh, counts = _gather(ptr, idx, nodes)
            levels.append(_unique(np.repeat(rows, counts) * n + neigh))
            rows, nodes = np.divmod(levels[-1], n)
        rows, nodes = np.divmod(_unique(np.concatenate(levels)), n)
        del levels
        starts = np.searchsorted(rows, np.arange(block.size))
        tot[block] = np.add.reduceat(sizes[nodes], starts)
        out[block] = np.add.reduceat(outside[nodes], starts)

    # The sums end at a node with no successor (its own size) or with
    # several; a chain of single-successor nodes adds its own sizes on top,
    # summed by pointer jumping.
    end = outdeg == 0
    tot[end], out[end] = sizes[end], outside[end]
    single = outdeg == 1
    acc_tot, acc_out = np.where(single, sizes, 0), np.where(single, outside, 0)
    nxt = np.arange(n, dtype=index_dtype(n))
    nxt[single] = idx[ptr[:-1][single]]
    active = np.nonzero(single & single[nxt])[0]
    while active.size:
        step = nxt[active]
        acc_tot[active] += acc_tot[step]
        acc_out[active] += acc_out[step]
        nxt[active] = nxt[step]
        active = active[single[nxt[active]]]
    acc_tot += tot[nxt]
    acc_out += out[nxt]
    return acc_tot, acc_out
