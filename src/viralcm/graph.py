"""Enhanced configuration-model graphs.

Every node gets one half-edge per unit of degree, each flagged transmitter
or receiver according to the sampled transmitter degree.  A uniformly
random perfect matching of all half-edges realizes the multigraph
(self-loops and multi-edges are kept).  Influence flows along arcs: the
matching induces an arc u -> v for every transmitter half-edge of u
matched to any half-edge of v, so the arc count equals the number of
transmitter half-edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .populations import DegreeSample

__all__ = ["EnhancedGraph", "build", "degree_checksums", "write_edgelist"]

#: Arcs formatted per ``write`` call by ``write_edgelist``.
_WRITE_ARCS = 1 << 16


@dataclass
class EnhancedGraph:
    """Realized enhanced configuration model.

    ``matching`` pairs half-edge indices; ``half_edge_owner`` and
    ``half_edge_transmitter`` describe the stubs.  ``arc_src``/``arc_dst``
    list the induced influence arcs (with multiplicity).  ``parity_fixed``
    records whether one receiver half-edge was added to make the total
    half-edge count even.
    """

    n: int
    receiver_counts: np.ndarray
    transmitter_counts: np.ndarray
    half_edge_owner: np.ndarray
    half_edge_transmitter: np.ndarray
    matching: np.ndarray
    arc_src: np.ndarray
    arc_dst: np.ndarray
    parity_fixed: bool
    seed: Optional[int] = None
    _adj_cache: dict = field(default_factory=dict, repr=False)

    @property
    def arc_count(self) -> int:
        return int(self.arc_src.size)

    def out_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (indptr, indices) over the influence arcs."""
        return self._adjacency("out", self.arc_src, self.arc_dst)

    def in_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (indptr, indices) over reversed influence arcs."""
        return self._adjacency("in", self.arc_dst, self.arc_src)

    def _adjacency(self, key, src, dst):
        if key not in self._adj_cache:
            order = np.argsort(src, kind="stable")
            indices = dst[order]
            counts = np.bincount(src, minlength=self.n)
            indptr = np.concatenate([[0], np.cumsum(counts)])
            self._adj_cache[key] = (indptr.astype(np.int64), indices.astype(np.int64))
        return self._adj_cache[key]


def build(sample: DegreeSample, seed) -> EnhancedGraph:
    """Uniform random matching of the sample's half-edges.

    An odd total half-edge count is repaired by handing one extra receiver
    half-edge to a uniformly chosen node (flagged via ``parity_fixed``);
    the O(1/n) bias is standard configuration-model practice.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    seed_val = seed if isinstance(seed, (int, np.integer)) else None

    n = len(sample)
    d = sample.degree.copy()
    t = sample.transmitter_degree
    parity_fixed = False
    if int(d.sum()) % 2 == 1:
        d[int(rng.integers(n))] += 1
        parity_fixed = True
    total = int(d.sum())

    owner = np.repeat(np.arange(n, dtype=np.int64), d)
    starts = np.concatenate([[0], np.cumsum(d)[:-1]])
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, d)
    is_transmitter = within < np.repeat(t, d)

    perm = rng.permutation(total)
    matching = perm.reshape(-1, 2)
    a, b = matching[:, 0], matching[:, 1]

    a_trans = is_transmitter[a]
    b_trans = is_transmitter[b]
    arc_src = np.concatenate([owner[a[a_trans]], owner[b[b_trans]]])
    arc_dst = np.concatenate([owner[b[a_trans]], owner[a[b_trans]]])

    return EnhancedGraph(
        n=n,
        receiver_counts=(d - t).astype(np.int64),
        transmitter_counts=t.astype(np.int64),
        half_edge_owner=owner,
        half_edge_transmitter=is_transmitter,
        matching=matching,
        arc_src=arc_src,
        arc_dst=arc_dst,
        parity_fixed=parity_fixed,
        seed=int(seed_val) if seed_val is not None else None,
    )


def degree_checksums(g: EnhancedGraph) -> dict:
    """Totals for validating a build against its input sample."""
    return {
        "sum_D": int(g.receiver_counts.sum() + g.transmitter_counts.sum()),
        "sum_Dt": int(g.transmitter_counts.sum()),
        "half_edges": int(g.half_edge_owner.size),
        "edges": int(g.matching.shape[0]),
        "arcs": g.arc_count,
        "parity_fixed": g.parity_fixed,
    }


def write_edgelist(g: EnhancedGraph, path) -> None:
    """Dump the influence digraph: a JSON header line, then one arc per line."""
    header = json.dumps({"n": g.n, "seed": g.seed, "parity_fixed": g.parity_fixed}, sort_keys=True)
    src, dst = g.arc_src, g.arc_dst
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, src.size, _WRITE_ARCS):
            hi = lo + _WRITE_ARCS
            fh.write("".join(map("{} {}\n".format, src[lo:hi].tolist(), dst[lo:hi].tolist())))
