import json
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from viralcm.graph import build, index_dtype, write_edgelist
from viralcm.populations import (
    BernoulliTransmission,
    DegreeSample,
    JointDegreeLaw,
    PoissonDegree,
)


def reference_write_edgelist(g, path) -> None:
    """The one-``write``-per-arc dump that the numpy writer replaced."""
    header = json.dumps({"n": g.n, "seed": g.seed, "parity_fixed": g.parity_fixed}, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for u, v in zip(g.arc_src, g.arc_dst):
            fh.write(f"{u} {v}\n")


def sample_of(pairs):
    d, t = zip(*pairs)
    return DegreeSample(np.array(d), np.array(t))


def matching_arcs(m):
    """(sources, targets) of the arcs a matching induces, in ``build``'s order."""
    transmits = np.concatenate([m.transmitter[m.pairs[:, 0]], m.transmitter[m.pairs[:, 1]]])
    ends = np.concatenate([m.pairs, m.pairs[:, ::-1]])[transmits]
    return m.owner[ends[:, 0]], m.owner[ends[:, 1]]


def match(sample, seed: int):
    """Reference for the matching ``build(sample, seed)`` draws its arcs from,
    checked against ``build``: its arcs and parity flag must be the ones
    this matching induces.

    An odd half-edge total gives one extra receiver half-edge to the node
    drawn first; node i then owns d_i consecutive half-edges, of which the
    first t_i transmit, and the pairs are consecutive entries of
    ``rng.permutation(total)``.
    """
    rng = np.random.default_rng(seed)
    d = sample.degree.copy()
    parity_fixed = int(d.sum()) % 2 == 1
    if parity_fixed:
        d[int(rng.integers(len(sample)))] += 1
    owner = np.repeat(np.arange(len(sample)), d)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(d) - d, d)
    transmitter = rank < sample.transmitter_degree[owner]
    pairs = rng.permutation(owner.size).reshape(-1, 2)
    m = SimpleNamespace(owner=owner, transmitter=transmitter, pairs=pairs, parity_fixed=parity_fixed)
    g = build(sample, seed)
    src, dst = matching_arcs(m)
    assert np.array_equal(g.arc_src, src) and np.array_equal(g.arc_dst, dst)
    assert g.parity_fixed == parity_fixed
    return m


class TestBuildSmallCases:
    def test_forced_single_edge(self):
        g = build(sample_of([(1, 1), (1, 0)]), seed=0)
        assert g.arc_count == 1
        assert (int(g.arc_src[0]), int(g.arc_dst[0])) == (0, 1)

    def test_forced_self_pairing(self):
        g = build(sample_of([(2, 2)]), seed=0)
        # both half-edges are transmitters, so the single self-edge
        # contributes two self-loop arcs
        assert match(sample_of([(2, 2)]), 0).pairs.shape == (1, 2)
        assert g.arc_count == 2
        assert np.all(g.arc_src == 0) and np.all(g.arc_dst == 0)

    def test_arc_count_equals_transmitter_half_edges(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = rng.integers(0, 6, size=30)
            t = rng.integers(0, d + 1)
            g = build(DegreeSample(d, t), seed=int(rng.integers(2**31)))
            expected = int(t.sum())
            if g.parity_fixed:
                pass  # the repair stub is a receiver; transmitter count unchanged
            assert g.arc_count == expected

    def test_out_degree_equals_transmitter_degree(self):
        # per node, not just in total: each of a node's first t half-edges
        # transmits, and a parity-repair stub never does
        rng = np.random.default_rng(16)
        repaired = 0
        for _ in range(20):
            d = rng.integers(0, 6, size=30)
            t = rng.integers(0, d + 1)
            g = build(DegreeSample(d, t), seed=int(rng.integers(2**31)))
            repaired += g.parity_fixed
            assert np.bincount(g.arc_src, minlength=30).tolist() == t.tolist()
        assert repaired > 0

    def test_arc_rate_matches_mean_transmitter_degree(self):
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8))
        s = law.sample(1000, seed=4)
        g = build(s, seed=5)
        # E[D(t)] = 1.6, sd of the mean ~ sqrt(1.6/1000); 3 sigma ~ 0.12
        assert g.arc_count / 1000 == pytest.approx(1.6, abs=0.15)


class TestChecksums:
    def test_totals_match_sample(self):
        s = sample_of([(3, 1), (2, 2), (1, 0)])
        m = match(s, 1)
        assert m.owner.size == 6
        assert int(m.transmitter.sum()) == 3
        assert m.owner.size == 2 * m.pairs.shape[0]
        assert not m.parity_fixed
        assert not build(s, seed=1).parity_fixed

    def test_parity_repair_flagged(self):
        s = sample_of([(1, 1), (1, 0), (1, 1)])
        m = match(s, 2)
        assert m.parity_fixed
        assert m.owner.size == 4  # one receiver stub added
        assert int(m.transmitter.sum()) == 2
        assert m.owner.size % 2 == 0
        assert build(s, seed=2).parity_fixed

    def test_rebuild_same_seed_identical(self):
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.5))
        s = law.sample(200, seed=6)
        g1 = build(s, seed=7)
        g2 = build(s, seed=7)
        assert np.array_equal(match(s, 7).pairs, match(s, 7).pairs)
        assert np.array_equal(g1.arc_src, g2.arc_src)
        assert np.array_equal(g1.arc_dst, g2.arc_dst)


class TestMatchingProperties:
    def test_perfect_matching(self):
        law = JointDegreeLaw(PoissonDegree(3.0), BernoulliTransmission(0.5))
        s = law.sample(500, seed=8)
        m = match(s, 9)
        flat = m.pairs.ravel()
        assert np.array_equal(np.sort(flat), np.arange(m.owner.size))

    def test_uniform_over_matchings(self):
        # four half-edges admit exactly three perfect matchings; with one
        # transmitter half-edge per node, build's arcs u -> v and v -> u
        # spell out each pair {u, v}
        s = sample_of([(1, 1)] * 4)
        counts = Counter()
        for seed in range(2000):
            g = build(s, seed)
            key = tuple(sorted({tuple(sorted(arc)) for arc in zip(g.arc_src.tolist(), g.arc_dst.tolist())}))
            assert g.arc_count == 4 and len(key) == 2
            counts[key] += 1
        assert len(counts) == 3
        for c in counts.values():
            assert c / 2000 == pytest.approx(1 / 3, abs=0.05)

    def test_arcs_reconstructable_from_matching(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(2, 21))
            d = rng.integers(0, 5, size=n)
            t = rng.integers(0, d + 1)
            seed = int(rng.integers(2**31))
            g = build(DegreeSample(d, t), seed=seed)
            m = match(DegreeSample(d, t), seed)
            arcs = Counter()
            for a, b in m.pairs.tolist():
                if m.transmitter[a]:
                    arcs[(int(m.owner[a]), int(m.owner[b]))] += 1
                if m.transmitter[b]:
                    arcs[(int(m.owner[b]), int(m.owner[a]))] += 1
            got = Counter(zip(g.arc_src.tolist(), g.arc_dst.tolist()))
            assert arcs == got

    def test_build_keeps_exactly_the_arcs_of_its_matching(self):
        # the step's pairs under a seed induce build's arcs under that
        # seed, in order, whether the seed is an int or a Generator; the
        # half-edges themselves are not kept
        law = JointDegreeLaw(PoissonDegree(3.0), BernoulliTransmission(0.6))
        s = law.sample(3001, seed=11)
        m = match(s, 12)
        src, dst = matching_arcs(m)
        g = build(s, np.random.default_rng(12))
        assert np.array_equal(g.arc_src, src)
        assert np.array_equal(g.arc_dst, dst)
        assert g.parity_fixed == m.parity_fixed
        assert set(vars(g)) == {"n", "arc_src", "arc_dst", "parity_fixed", "seed"}


def near_critical_sample(n):
    """Poisson(2) degrees, Bernoulli(0.55) transmission: just above p_c = 1/2."""
    return JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.55)).sample(n, seed=1)


class TestIndexWidth:
    def test_matching_draws_rng_permutation(self):
        # shuffling 32-bit half-edge ids draws what rng.permutation(total)
        # does: the arcs of the reference matching (``match`` checks them),
        # and the same generator state after them
        s = near_critical_sample(200_000)
        rng, ref = np.random.default_rng(2), np.random.default_rng(2)
        build(s, rng)
        m = match(s, 2)
        if m.parity_fixed:
            ref.integers(len(s))
        ref.permutation(m.owner.size)
        assert rng.integers(2**62) == ref.integers(2**62)

    def test_build_returns_int32_arcs(self):
        g = build(near_critical_sample(1000), seed=2)
        assert g.arc_src.dtype == g.arc_dst.dtype == np.int32
        assert index_dtype(2**31 - 1) is np.int32 and index_dtype(2**31) is np.int64

    def test_build_peak_memory(self):
        # int32 owners and half-edge ids peak at 5.95 MiB here; int64
        # half-edge ids alone raise that to 7.48 MiB
        s = near_critical_sample(200_000)
        tracemalloc.start()
        try:
            build(s, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.75 * 2**20


class TestEdgelistDump:
    def test_header_and_arcs(self, tmp_path):
        g = build(sample_of([(1, 1), (1, 0)]), seed=0)
        path = tmp_path / "arcs.txt"
        write_edgelist(g, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"n": 2, "seed": 0, "parity_fixed": False}
        assert lines[1:] == ["0 1"]

    def test_bytes_match_per_arc_writer(self, tmp_path):
        law = JointDegreeLaw(PoissonDegree(3.0), BernoulliTransmission(0.7))
        g = build(law.sample(150_000, seed=8), seed=9)
        write_edgelist(g, tmp_path / "new.txt")
        reference_write_edgelist(g, tmp_path / "ref.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
