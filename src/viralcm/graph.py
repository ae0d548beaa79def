"""Enhanced configuration-model graphs.

Every node gets one half-edge per unit of degree, each flagged transmitter
or receiver according to the sampled transmitter degree.  A uniformly
random perfect matching of all half-edges realizes the multigraph
(self-loops and multi-edges are kept).  Influence flows along arcs: the
matching induces an arc u -> v for every transmitter half-edge of u
matched to any half-edge of v, so the arc count equals the number of
transmitter half-edges.  Only the arcs are kept; every reach statistic
depends on them alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .populations import DegreeSample

__all__ = ["EnhancedGraph", "build", "index_dtype", "write_edgelist"]

#: Arcs formatted per ``write`` call by ``write_edgelist``.
_WRITE_ARCS = 1 << 16


def index_dtype(count: int) -> type:
    """Integer dtype for ids below ``count`` and sums up to it (int32 below 2**31)."""
    return np.int32 if count < 2**31 else np.int64


@dataclass
class EnhancedGraph:
    """Influence digraph of a realized enhanced configuration model.

    ``arc_src``/``arc_dst`` list the influence arcs (with multiplicity) as
    int32 node ids (``index_dtype(n)``); hand-built graphs may pass int64.
    ``parity_fixed`` records whether one receiver half-edge was added to
    make the total half-edge count even.
    """

    n: int
    arc_src: np.ndarray
    arc_dst: np.ndarray
    parity_fixed: bool
    seed: Optional[int] = None

    @property
    def arc_count(self) -> int:
        return int(self.arc_src.size)


def build(sample: DegreeSample, seed) -> EnhancedGraph:
    """Influence arcs induced by a uniform random perfect matching of the sample's half-edges.

    An odd total half-edge count is repaired by handing one extra receiver
    half-edge to a uniformly chosen node; the O(1/n) bias is standard
    configuration-model practice.
    """
    rng = np.random.default_rng(seed)
    n = len(sample)
    d = sample.degree.copy()
    parity_fixed = int(d.sum()) % 2 == 1
    if parity_fixed:
        d[int(rng.integers(n))] += 1
    total = int(d.sum())

    # each node's first t half-edges transmit, the rest (repair stub included)
    # receive; np.repeat takes its counts as intp, so int32 ones would be copied
    t = sample.transmitter_degree
    counts = np.empty(2 * n, dtype=np.intp)
    counts[0::2] = t
    np.subtract(d, t, out=counts[1::2])
    transmitter = np.repeat(np.tile([True, False], n), counts)
    del counts
    owner = np.repeat(np.arange(n, dtype=index_dtype(n)), d)
    del d
    pairs = np.arange(total, dtype=index_dtype(total))
    rng.shuffle(pairs)  # the draws and the permutation of rng.permutation(total)
    a, b = pairs[0::2], pairs[1::2]
    a_trans, b_trans = transmitter[a], transmitter[b]
    del transmitter
    return EnhancedGraph(
        n=n,
        arc_src=np.concatenate([owner[a[a_trans]], owner[b[b_trans]]]),
        arc_dst=np.concatenate([owner[b[a_trans]], owner[a[b_trans]]]),
        parity_fixed=parity_fixed,
        seed=int(seed) if isinstance(seed, (int, np.integer)) else None,
    )


def write_edgelist(g: EnhancedGraph, path) -> None:
    """Dump the influence digraph: a JSON header line, then one arc per line."""
    header = json.dumps({"n": g.n, "seed": g.seed, "parity_fixed": g.parity_fixed}, sort_keys=True)
    src, dst = g.arc_src, g.arc_dst
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, src.size, _WRITE_ARCS):
            hi = lo + _WRITE_ARCS
            fh.write("".join(map("{} {}\n".format, src[lo:hi].tolist(), dst[lo:hi].tolist())))
