"""Influence spread and good-pioneer identification on a built graph.

The forward dynamic (an influenced node pushes along its transmitter
half-edges) and the reverse acknowledgement dynamic reveal exactly the
uniform matching, so component membership reduces to reachability in the
static influence digraph: the set a pioneer influences is its forward
closure, and the pioneers that can influence a target form the target's
backward closure.  Exact reach sizes for every node come from one pass
over the condensation of strongly connected components with bitset unions;
for very large graphs a giant-component approximation avoids the per-node
sets.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .graph import EnhancedGraph

__all__ = [
    "DiffusionOutcome",
    "influenced_set",
    "reverse_reach",
    "all_reach",
    "classify_good_pioneers",
    "sampled_reach",
]

DEFAULT_GAMMA = 0.5
DEFAULT_FLOOR = 0.01

#: Above this node count ``all_reach`` switches to the giant-component
#: approximation (per-node bitsets would need O(n^2/8) bytes).
EXACT_LIMIT = 30_000


def _frontier_neighbors(indptr, indices, frontier):
    counts = indptr[frontier + 1] - indptr[frontier]
    if counts.sum() == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(indptr[frontier], counts) + _ranges(counts)
    return indices[offsets]


def _ranges(counts):
    # [0..c0-1, 0..c1-1, ...] without a Python loop
    total = int(counts.sum())
    out = np.arange(total, dtype=np.int64)
    out -= np.repeat(np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
    return out


def _bfs(indptr, indices, start: int, n: int) -> np.ndarray:
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    frontier = np.array([start], dtype=np.int64)
    while frontier.size:
        neigh = _frontier_neighbors(indptr, indices, frontier)
        neigh = neigh[~visited[neigh]]
        if neigh.size == 0:
            break
        frontier = np.unique(neigh)
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
    adj = sparse.csr_matrix(
        (np.ones(g.arc_count, dtype=bool), (g.arc_src, g.arc_dst)), shape=(g.n, g.n)
    )
    n_scc, labels = connected_components(adj, directed=True, connection="strong")
    sizes = np.bincount(labels, minlength=n_scc).astype(np.int64)
    cs, cd = labels[g.arc_src], labels[g.arc_dst]
    keep = cs != cd
    cs, cd = cs[keep].astype(np.int64), cd[keep].astype(np.int64)
    if cs.size:
        keys = np.unique(cs * n_scc + cd)
        cs, cd = keys // n_scc, keys % n_scc
    return n_scc, labels, sizes, cs, cd


def _csr_from_edges(src, dst, n):
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=n)
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64), dst[order]


def _topo_order(dst, n, out_ptr, out_idx):
    indeg = np.bincount(dst, minlength=n)
    q = deque(np.nonzero(indeg == 0)[0].tolist())
    order = []
    while q:
        u = q.popleft()
        order.append(u)
        for v in out_idx[out_ptr[u] : out_ptr[u + 1]]:
            indeg[v] -= 1
            if indeg[v] == 0:
                q.append(int(v))
    return order


@dataclass(frozen=True)
class DiffusionOutcome:
    """Reach statistics of one realized graph.

    ``reach_sizes[v]`` is the exact size of the set node v influences
    (``None`` in the approximate large-n mode).  ``good_pioneers`` holds the
    nodes passing the classification rule; ``alpha_hat_sim`` is the mean
    relative reach over that set (the upper concentration cluster) and
    ``alpha_bar_hat_sim`` its relative size.
    """

    n: int
    reach_sizes: Optional[np.ndarray]
    good_pioneers: np.ndarray
    alpha_hat_sim: float
    alpha_bar_hat_sim: float
    gamma: float
    floor: float
    method: str
    #: 95% binomial interval for alpha_bar_hat_sim; only set by sampled mode.
    alpha_bar_ci: Optional[tuple[float, float]] = None

    @property
    def reach_histogram(self) -> list[tuple[float, int]]:
        """Sorted (reach_size / n, count) pairs; empty in approximate mode."""
        if self.reach_sizes is None:
            return []
        vals, counts = np.unique(self.reach_sizes, return_counts=True)
        return [(float(v) / self.n, int(c)) for v, c in zip(vals, counts)]

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "alpha_hat_sim": self.alpha_hat_sim,
            "alpha_bar_hat_sim": self.alpha_bar_hat_sim,
            "good_pioneer_count": int(self.good_pioneers.size),
            "gamma": self.gamma,
            "floor": self.floor,
            "method": self.method,
            "histogram": [[v, c] for v, c in self.reach_histogram],
        }
        if self.alpha_bar_ci is not None:
            out["alpha_bar_ci"] = list(self.alpha_bar_ci)
        return out


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
    method: str = "auto",
) -> DiffusionOutcome:
    """Reach statistics for every pioneer.

    ``method``: "exact" computes every reach size via bitset unions on the
    condensation (matches per-node BFS exactly); "giant" only resolves the
    forward/backward closures of the largest strongly connected component,
    which is what the two fractions need at large n; "auto" picks "exact"
    up to ``EXACT_LIMIT`` nodes.
    """
    if method == "auto":
        method = "exact" if g.n <= EXACT_LIMIT else "giant"
    if method == "exact":
        return _all_reach_exact(g, gamma, floor)
    if method == "giant":
        return _all_reach_giant(g, gamma, floor)
    raise ValueError(f"unknown method {method!r}")


def _all_reach_exact(g: EnhancedGraph, gamma: float, floor: float) -> DiffusionOutcome:
    n_scc, labels, _sizes, cs, cd = _condensation(g)
    out_ptr, out_idx = _csr_from_edges(cs, cd, n_scc)
    order = _topo_order(cd, n_scc, out_ptr, out_idx)

    member = [0] * n_scc
    for node, lab in enumerate(labels.tolist()):
        member[lab] |= 1 << node

    # Union the successor bitsets in reverse topological order, freeing a
    # successor's set once its last predecessor consumed it.
    refcount = np.bincount(cd, minlength=n_scc)
    reach_scc = np.zeros(n_scc, dtype=np.int64)
    masks: list[Optional[int]] = [None] * n_scc
    for c in reversed(order):
        mask = member[c]
        for v in out_idx[out_ptr[c] : out_ptr[c + 1]]:
            mask |= masks[v]
            refcount[v] -= 1
            if refcount[v] == 0:
                masks[v] = None
        masks[c] = mask
        reach_scc[c] = mask.bit_count()
    del masks

    reach_sizes = reach_scc[labels]
    good = classify_good_pioneers(reach_sizes, gamma, floor, n=g.n)
    alpha_bar = good.size / g.n
    alpha = float(reach_sizes[good].mean()) / g.n if good.size else 0.0
    return DiffusionOutcome(
        n=g.n,
        reach_sizes=reach_sizes,
        good_pioneers=good,
        alpha_hat_sim=alpha,
        alpha_bar_hat_sim=alpha_bar,
        gamma=gamma,
        floor=floor,
        method="exact",
    )


def _all_reach_giant(g: EnhancedGraph, gamma: float, floor: float) -> DiffusionOutcome:
    """Approximate outcome keyed to the largest strongly connected component.

    Good pioneers are the backward closure of the largest SCC whenever the
    forward closure passes the classification floor; nodes outside have
    sublinear reach in super- and subcritical regimes alike.  Reach sizes
    of good pioneers differ from the forward-closure size only by the
    O(1) fluff on their paths into the component, so ``alpha_hat_sim``
    uses the closure size.
    """
    n_scc, labels, sizes, cs, cd = _condensation(g)
    giant = int(np.argmax(sizes))

    out_ptr, out_idx = _csr_from_edges(cs, cd, n_scc)
    fwd_mask = _bfs(out_ptr, out_idx, giant, n_scc)
    out_size = int(sizes[fwd_mask].sum())
    in_ptr, in_idx = _csr_from_edges(cd, cs, n_scc)
    bwd_mask = _bfs(in_ptr, in_idx, giant, n_scc)
    good_mask = bwd_mask[labels]
    threshold = max(gamma * out_size, floor * g.n)
    if out_size >= threshold and out_size >= floor * g.n:
        good = np.nonzero(good_mask)[0]
        alpha = out_size / g.n
        alpha_bar = good.size / g.n
    else:
        good = np.empty(0, dtype=np.int64)
        alpha = 0.0
        alpha_bar = 0.0
    return DiffusionOutcome(
        n=g.n,
        reach_sizes=None,
        good_pioneers=good,
        alpha_hat_sim=alpha,
        alpha_bar_hat_sim=alpha_bar,
        gamma=gamma,
        floor=floor,
        method="giant",
    )


def sampled_reach(
    g: EnhancedGraph,
    m: int,
    seed,
    gamma: float = DEFAULT_GAMMA,
    floor: float = DEFAULT_FLOOR,
) -> DiffusionOutcome:
    """Estimate the fractions from ``m`` uniformly sampled pioneers.

    Each sampled pioneer's reach is exact (one traversal); the good-pioneer
    fraction estimate carries a 95% Wilson score interval, which keeps a
    positive width when none or all of the sampled pioneers are good.
    Useful beyond the exact mode's memory range.
    """
    if m < 1:
        raise ValueError("need at least one sampled pioneer")
    pioneers = np.random.default_rng(seed).choice(g.n, size=min(m, g.n), replace=False)
    indptr, indices = _csr_from_edges(g.arc_src, g.arc_dst, g.n)
    sizes = np.array(
        [int(_bfs(indptr, indices, int(v), g.n).sum()) for v in pioneers], dtype=np.int64
    )
    good = classify_good_pioneers(sizes, gamma, floor, n=g.n)
    k, mm = good.size, sizes.size
    phat = k / mm
    z2 = 1.96**2 / mm
    center = (phat + z2 / 2.0) / (1.0 + z2)
    half = 1.96 * math.sqrt(phat * (1.0 - phat) / mm + z2 / (4.0 * mm)) / (1.0 + z2)
    # the interval contains phat and lies in [0, 1]; the clamps absorb rounding
    lo, hi = max(0.0, min(phat, center - half)), min(1.0, max(phat, center + half))
    return DiffusionOutcome(
        n=g.n,
        reach_sizes=None,
        good_pioneers=pioneers[good],
        alpha_hat_sim=float(sizes[good].mean()) / g.n if k else 0.0,
        alpha_bar_hat_sim=phat,
        gamma=gamma,
        floor=floor,
        method="sampled",
        alpha_bar_ci=(lo, hi),
    )
