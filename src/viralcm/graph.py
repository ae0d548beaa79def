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

import numpy as np

from .populations import DegreeSample
from .special import _write_rows, index_dtype

__all__ = ["EnhancedGraph", "HalfEdgeMemoryError", "build", "index_dtype", "write_edgelist"]


@dataclass(frozen=True)
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

    @property
    def arc_count(self) -> int:
        return int(self.arc_src.size)


class HalfEdgeMemoryError(MemoryError):
    """The half-edges of a sample, not its nodes, do not fit in memory."""


def build(sample: DegreeSample, seed) -> EnhancedGraph:
    """Influence arcs induced by a uniform random perfect matching of the sample's half-edges.

    An odd total half-edge count is repaired by handing one extra receiver
    half-edge to a uniformly chosen node; the O(1/n) bias is standard
    configuration-model practice.  The sample's columns are released once
    the half-edges exist, so a caller that keeps no reference of its own
    frees them before the matching.  An allocation sized by the half-edge
    count that numpy refuses raises :class:`HalfEdgeMemoryError`.
    """
    rng = np.random.default_rng(seed)
    n = len(sample)
    d, t = sample.degree, sample.transmitter_degree
    del sample
    parity_fixed = int(d.sum()) % 2 == 1
    if parity_fixed:
        d = d.copy()
        d[int(rng.integers(n))] += 1
    total = int(d.sum())

    # each node's first t half-edges transmit, the rest (repair stub included)
    # receive; np.repeat takes its counts as intp, so int32 ones would be copied
    counts = np.empty(2 * n, dtype=np.intp)
    counts[0::2] = t
    np.subtract(d, t, out=counts[1::2])
    flags = np.tile([True, False], n)
    try:
        transmitter = np.repeat(flags, counts)
        del flags, counts, t
        owner = np.repeat(np.arange(n, dtype=index_dtype(n)), d)
        del d
        pairs = np.arange(total, dtype=index_dtype(total))
        rng.shuffle(pairs)  # the draws and the permutation of rng.permutation(total)
        trans = transmitter[pairs]
        del transmitter
        ends = owner[pairs]
        del owner, pairs
        # ends 2i and 2i + 1 are matched, and the arcs from the even ends come
        # first; take in mode "clip" writes to out directly, "raise" via a copy
        arc_src, arc_dst = np.empty((2, int(np.count_nonzero(trans))), dtype=ends.dtype)
        lo = 0
        for half, src, dst in ((0, ends[0::2], ends[1::2]), (1, ends[1::2], ends[0::2])):
            at = np.flatnonzero(trans[half::2])
            np.take(src, at, out=arc_src[lo : lo + at.size], mode="clip")
            np.take(dst, at, out=arc_dst[lo : lo + at.size], mode="clip")
            lo += at.size
        return EnhancedGraph(n=n, arc_src=arc_src, arc_dst=arc_dst, parity_fixed=parity_fixed)
    except MemoryError as exc:
        raise HalfEdgeMemoryError(f"{total} half-edges do not fit in memory: {exc}") from None


def write_edgelist(g: EnhancedGraph, path, seed) -> None:
    """Dump the influence digraph: a JSON header line naming ``seed``, then one arc per line."""
    header = json.dumps({"n": g.n, "seed": seed, "parity_fixed": g.parity_fixed}, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        _write_rows(fh, "{} {}\n", g.arc_src, g.arc_dst)
