import dataclasses
import functools
import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order

from viralcm import diffusion
from viralcm.analytic import mean_offspring
from viralcm.diffusion import (
    _condensation,
    all_reach,
    classify_good_pioneers,
    influenced_set,
    reverse_reach,
)
from viralcm.graph import EnhancedGraph, build
from viralcm.populations import (
    BernoulliTransmission,
    CouponCollector,
    DegreeSample,
    EmpiricalDegree,
    JointDegreeLaw,
    NodePercolation,
    PoissonDegree,
    PowerLawDegree,
)
from viralcm.special import zipf_pmf

from golden.regenerate import DEGREES
from offspring_oracle import reach_pmf


def graph_from_arcs(n, arcs):
    """Fabricate a graph record directly from raw arcs."""
    src = np.array([a for a, _ in arcs], dtype=np.int64)
    dst = np.array([b for _, b in arcs], dtype=np.int64)
    return EnhancedGraph(n=n, arc_src=src, arc_dst=dst, parity_fixed=False)


def closure_matrix(n, src, dst):
    """Oracle: boolean transitive closure by repeated matrix squaring."""
    reach = np.eye(n, dtype=bool)
    reach[src, dst] = True
    for _ in range(max(1, int(np.ceil(np.log2(max(n, 2))))) + 1):
        reach = reach | (reach @ reach)
    return reach


def random_graph(rng, n_max=12):
    n = int(rng.integers(1, n_max + 1))
    d = rng.integers(0, 4, size=n)
    t = rng.integers(0, d + 1)
    return build(DegreeSample(d, t), seed=int(rng.integers(2**31)))


class TestInfluencedSet:
    def test_no_out_arcs(self):
        g = graph_from_arcs(3, [(1, 0), (2, 0)])
        assert influenced_set(g, 0).tolist() == [0]

    def test_two_node_chain(self):
        g = build(DegreeSample(np.array([1, 1]), np.array([1, 0])), seed=0)
        assert influenced_set(g, 0).tolist() == [0, 1]
        assert influenced_set(g, 1).tolist() == [1]

    def test_matches_matrix_closure(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = random_graph(rng)
            reach = closure_matrix(g.n, g.arc_src, g.arc_dst)
            for v in range(g.n):
                assert influenced_set(g, v).tolist() == np.nonzero(reach[v])[0].tolist()

    def test_pioneer_out_of_range(self):
        g = graph_from_arcs(2, [])
        with pytest.raises(ValueError):
            influenced_set(g, 5)


class TestReverseReach:
    def test_isolated_node(self):
        g = graph_from_arcs(3, [(0, 1)])
        assert reverse_reach(g, 2).tolist() == [2]

    def test_duality_exhaustive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 200))
            d = rng.integers(0, 4, size=n)
            t = rng.integers(0, d + 1)
            g = build(DegreeSample(d, t), seed=int(rng.integers(2**31)))
            fwd = [set(influenced_set(g, v).tolist()) for v in range(g.n)]
            for v in rng.integers(0, n, size=5):
                back = set(reverse_reach(g, int(v)).tolist())
                oracle = {u for u in range(g.n) if int(v) in fwd[u]}
                assert back == oracle

    @pytest.mark.parametrize("target", [-1, 3])
    def test_target_out_of_range(self, target):
        with pytest.raises(ValueError) as exc:
            reverse_reach(graph_from_arcs(3, [(0, 1)]), target)
        assert str(exc.value) == f"target {target} outside 0..2"


class TestAllReach:
    def test_matches_per_node_bfs(self):
        rng = np.random.default_rng(2)
        for n in (50, 500, 2000):
            d = rng.poisson(2.0, n)
            t = rng.binomial(d, 0.7)
            g = build(DegreeSample(d, t), seed=int(rng.integers(2**31)))
            out = all_reach(g)
            naive = np.array([influenced_set(g, v).size for v in range(n)])
            assert np.array_equal(out.reach_sizes, naive)

    def test_deterministic_tiny_graph(self):
        cases = [
            (4, [(0, 1), (1, 2), (3, 3)], [3, 2, 1, 1]),
            # unequal-length diamond (3 is reached at depths 1 and 3) beside a
            # larger 2-cycle, so that 0 enumerates its closure
            (6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 4)], [4, 3, 2, 1, 2, 2]),
            # 3 reaches the largest SCC {0, 1, 2} and, through 5 outside
            # both closures, the node 4 downstream of it: counted once
            (6, [(0, 1), (1, 2), (2, 0), (3, 0), (0, 4), (3, 5), (5, 4)], [4, 4, 4, 6, 1, 2]),
        ]
        for n, arcs, expected in cases:
            assert all_reach(graph_from_arcs(n, arcs)).reach_sizes.tolist() == expected

    def test_supercritical_matches_analytic(self):
        from viralcm.analytic import analyze

        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8))
        res = analyze(law)
        s = law.sample(1000, seed=3)
        g = build(s, seed=4)
        out = all_reach(g)
        assert out.alpha_hat_sim == pytest.approx(res.alpha, abs=0.1)
        assert out.alpha_bar_hat_sim == pytest.approx(res.alpha_bar, abs=0.1)

    def test_reverse_reach_fraction_near_alpha_bar(self):
        from viralcm.analytic import analyze

        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8))
        res = analyze(law)
        s = law.sample(2000, seed=5)
        g = build(s, seed=6)
        out = all_reach(g)
        member = int(out.good_pioneers[0])
        target = int(influenced_set(g, member)[-1])  # inside the big influenced set
        frac = reverse_reach(g, target).size / g.n
        assert frac == pytest.approx(res.alpha_bar, abs=0.1)

    def test_histogram_counts_every_node(self):
        g = build(DegreeSample(np.array([2, 1, 1]), np.array([1, 1, 0])), seed=0)
        out = all_reach(g)
        assert sum(c for _, c in out.reach_histogram) == g.n

    def test_exact_at_forty_thousand_nodes(self):
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.7))
        g = build(law.sample(40_000, seed=17), seed=18)
        out = all_reach(g)
        for v in np.random.default_rng(19).choice(g.n, size=300, replace=False).tolist():
            assert out.reach_sizes[v] == influenced_set(g, v).size
        assert sum(c for _, c in out.reach_histogram) == g.n
        good = classify_good_pioneers(out.reach_sizes, n=g.n)
        assert np.array_equal(out.good_pioneers, good) and good.size > 0
        assert out.alpha_hat_sim == float(out.reach_sizes[good].mean()) / g.n

    def test_peak_memory(self):
        # int64 ids and closure sums peaked at 12.8 MiB here; int32, 7.4; the
        # core-only labelling and the in-place reach pass, 6.1; packed keys, 6.2
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.55))
        g = build(law.sample(200_000, seed=1), seed=2)
        tracemalloc.start()
        try:
            out = all_reach(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.75 * 2**20
        assert out.reach_sizes.dtype == np.int64

    def test_diamond_ladder_closures_stay_small(self):
        # 20 stacked diamonds a -> b, a -> c, b -> a', c -> a' beside a
        # 3-cycle, the largest SCC, so that every a enumerates its closure.
        # There are 2**k paths to depth 2k: without each level's dedup the
        # closure held that many keys, and the peak rose from 0.03 to 140 MiB
        arcs = [(0, 1), (1, 2), (2, 0)]
        for a in range(3, 63, 3):
            arcs += [(a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)]
        g = graph_from_arcs(64, arcs)
        all_reach(g)  # the first call also imports scipy's sparse modules
        tracemalloc.start()
        try:
            out = all_reach(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.reach_sizes.tolist() == [influenced_set(g, v).size for v in range(g.n)]
        assert out.reach_sizes[3] == 61
        assert peak < 16 * 2**20

    def test_monotone_in_added_arc(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_graph(rng)
            before = all_reach(g).reach_sizes
            u, v = int(rng.integers(g.n)), int(rng.integers(g.n))
            g2 = graph_from_arcs(
                g.n,
                list(zip(g.arc_src.tolist(), g.arc_dst.tolist())) + [(u, v)],
            )
            after = all_reach(g2).reach_sizes
            assert np.all(after >= before)


class TestClassification:
    def test_all_equal_reaches_all_good(self):
        sizes = np.full(10, 7)
        good = classify_good_pioneers(sizes, gamma=0.5, floor=0.0, n=10)
        assert good.tolist() == list(range(10))

    def test_single_node_graph(self):
        # reach of the only node is 1 = max reach, so the gamma rule keeps
        # it for any floor below 1/n
        sizes = np.array([1])
        assert classify_good_pioneers(sizes, gamma=0.5, floor=0.0, n=1).tolist() == [0]
        assert classify_good_pioneers(sizes, gamma=0.5, floor=0.01, n=1).tolist() == [0]

    def test_bimodal_insensitive_to_gamma(self):
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8))
        s = law.sample(1000, seed=10)
        g = build(s, seed=11)
        out = all_reach(g)
        reference = set(out.good_pioneers.tolist())
        for gamma in (0.3, 0.5, 0.7, 0.9):
            got = set(classify_good_pioneers(out.reach_sizes, gamma, 0.01, n=g.n).tolist())
            assert got == reference

    def test_subcritical_good_fraction_vanishes(self):
        # lam * p = 0.6 < 1: every reach is sublinear.  The default floor
        # of 1% of n sits below the largest small component at n = 1000,
        # so a handful of top-tail nodes still classify as good; the
        # fraction is tiny and a floor above the largest component empties
        # the set.
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.3))
        for seed in range(3):
            s = law.sample(1000, seed=seed)
            g = build(s, seed=seed + 100)
            out = all_reach(g)
            assert out.alpha_bar_hat_sim <= 0.05
            assert out.reach_sizes.max() < 50
            empty = classify_good_pioneers(out.reach_sizes, 0.5, 0.05, n=g.n)
            assert empty.size == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            classify_good_pioneers(np.array([1]), gamma=0.0, floor=0.0, n=1)
        with pytest.raises(ValueError):
            classify_good_pioneers(np.array([1]), gamma=0.5, floor=1.0, n=1)


class TestConcentration:
    def test_good_pioneer_reach_concentrates(self):
        # relative reach from different good pioneers concentrates tightly
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8))
        s = law.sample(1000, seed=12)
        g = build(s, seed=13)
        out = all_reach(g)
        sizes = out.reach_sizes[out.good_pioneers]
        cv = sizes.std() / sizes.mean()
        assert cv < 0.1


class TestCouponAsymmetry:
    def test_more_good_pioneers_than_influenced_when_supercritical(self):
        # the coupon dynamic caps outgoing influence at K but leaves
        # inbound reachability driven by the full degree, so the good
        # pioneer set outgrows the influenced set
        law = JointDegreeLaw(PoissonDegree(2.0), CouponCollector(3))
        assert mean_offspring(law.moments()) > 1.0
        for seed in range(5):
            s = law.sample(10**4, seed=seed)
            g = build(s, seed=seed + 50)
            out = all_reach(g)
            assert out.alpha_bar_hat_sim > out.alpha_hat_sim


PROGENY_LAWS = {
    "poisson2-bernoulli0.8": JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8)),
    "poisson3-coupon2": JointDegreeLaw(PoissonDegree(3.0), CouponCollector(2)),
    "poisson2-nodeperc0.7": JointDegreeLaw(PoissonDegree(2.0), NodePercolation(0.7)),
    "empirical-bernoulli0.8": JointDegreeLaw(EmpiricalDegree.from_degrees(DEGREES), BernoulliTransmission(0.8)),
}
#: Sampled by ``PowerLawDegree``; the oracle reads the zipf pmf cut at tail
#: mass 1e-9 (8 032 atoms) in its place.  TestStructuralGoodSet leaves them
#: out: the good set equalled B on only 2 of the 16 graphs under node
#: percolation, and on none under the coupon model.
POWERLAW_PROGENY_LAWS = {
    "powerlaw3.2-nodeperc0.5": JointDegreeLaw(PowerLawDegree(3.2), NodePercolation(0.5)),
    "powerlaw3.2-coupon2": JointDegreeLaw(PowerLawDegree(3.2), CouponCollector(2)),
}
PROGENY_N, PROGENY_SEEDS = 40_000, range(16)


@functools.cache
def progeny_reach(law: str):
    """The progeny-law graphs of one law, one per seed, with their reach outcomes."""
    sampled, out = {**PROGENY_LAWS, **POWERLAW_PROGENY_LAWS}[law], []
    for seed in PROGENY_SEEDS:
        g = build(sampled.sample(PROGENY_N, seed=seed), seed=seed + 100)
        out.append((g, all_reach(g)))
    return out


class TestProgenyLaw:
    """The small-reach histogram against the limit tree's progeny law."""

    def test_oracle_is_borel_on_thinned_poisson(self):
        # on Poisson(lam) thinned by Bernoulli(p) the pioneer and every friend
        # have Poisson(mu) offspring, mu = lam p, so R is Borel(mu)
        mu = 2.0 * 0.8
        s = np.arange(1, 13)
        log_borel = -mu * s + (s - 1) * np.log(mu * s) - [math.lgamma(k + 1.0) for k in s]
        pmf = reach_pmf(JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8)), 12)
        assert pmf[0] == 0.0
        np.testing.assert_allclose(pmf[1:], np.exp(log_borel), rtol=1e-12)

    @pytest.mark.parametrize("law", [*PROGENY_LAWS, *POWERLAW_PROGENY_LAWS])
    def test_histogram_matches_progeny_law(self, law):
        # the reaches of nodes in one tree are dependent: the spread between
        # seeds was 0.9-3.1 times the binomial error, so the error of the
        # seed mean comes from that spread (never below the binomial one)
        n, smax = PROGENY_N, 12
        frac = np.zeros((len(PROGENY_SEEDS), smax + 1))
        for seed, (_, out) in enumerate(progeny_reach(law)):
            for rel, count in out.reach_histogram:
                size = round(rel * n)
                if size <= smax:
                    frac[seed, size] = count / n
        if law in PROGENY_LAWS:
            pmf = reach_pmf(PROGENY_LAWS[law], smax)
        else:
            zipf = EmpiricalDegree(zipf_pmf(3.2, tail_mass=1e-9))
            pmf = reach_pmf(dataclasses.replace(POWERLAW_PROGENY_LAWS[law], degree=zipf), smax)
        binom = np.sqrt(pmf * (1.0 - pmf) / n)
        stderr = np.maximum(frac.std(axis=0, ddof=1), binom) / math.sqrt(len(PROGENY_SEEDS))
        assert np.all(np.abs(frac.mean(axis=0) - pmf) <= 5.0 * stderr)


def nx_digraph(g):
    G = nx.DiGraph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(zip(g.arc_src.tolist(), g.arc_dst.tolist()))
    return G


def assert_condensation_matches_networkx(h):
    """``_condensation(h)``: SCC labels, sizes and deduplicated edges as networkx condenses ``h``."""
    n_scc, labels, sizes, cs, cd = _condensation(h)
    C = nx.condensation(nx_digraph(h))
    theirs = np.array([C.graph["mapping"][v] for v in range(h.n)])
    assert n_scc == len(C) == len(set(zip(labels.tolist(), theirs.tolist())))
    assert set(labels.tolist()) == set(range(n_scc))
    to_nx = dict(zip(labels.tolist(), theirs.tolist()))
    assert sizes.tolist() == np.bincount(theirs)[[to_nx[c] for c in range(n_scc)]].tolist()
    assert cs.size == C.number_of_edges()
    assert {(to_nx[a], to_nx[b]) for a, b in zip(cs.tolist(), cd.tolist())} == set(C.edges)
    # distinct and sorted by (source, target): the reach pass reads the
    # forward CSR off them unsorted
    arcs = list(zip(cs.tolist(), cd.tolist()))
    assert arcs == sorted(set(arcs))


def scc_dag(rng, n_scc):
    """A digraph of exactly ``n_scc`` SCCs, each a lone node or a cycle of two
    or three, joined by random arcs that run forward in one SCC order; node
    ids are shuffled."""
    size = rng.integers(1, 4, size=n_scc)
    first = np.cumsum(size) - size
    node = rng.permutation(int(size.sum()))
    within = [(first[c] + i, first[c] + (i + 1) % size[c]) for c in np.nonzero(size > 1)[0] for i in range(size[c])]
    a, b = np.sort(rng.integers(n_scc, size=(2, 2 * n_scc)), axis=0)
    a, b = a[a < b], b[a < b]
    across = zip((first[a] + rng.integers(size[a])).tolist(), (first[b] + rng.integers(size[b])).tolist())
    return graph_from_arcs(node.size, [(int(node[u]), int(node[v])) for u, v in [*within, *across]])


# (n, Bernoulli p) on Poisson(2): sub-, near- and supercritical (p_c = 1/2)
ORACLE_GRAPHS = [(100, 0.9), (300, 0.4), (700, 0.55), (2000, 0.52), (2000, 0.8)]


class TestNetworkxOracle:
    @pytest.mark.parametrize("n, p", ORACLE_GRAPHS)
    def test_condensation_partition(self, n, p):
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(p))
        g = build(law.sample(n, seed=n), seed=n + 1)
        n_scc, labels, sizes, _, _ = _condensation(g)
        ours = {frozenset(np.nonzero(labels == c)[0].tolist()) for c in range(n_scc)}
        assert ours == {frozenset(c) for c in nx.strongly_connected_components(nx_digraph(g))}
        assert sorted(sizes.tolist()) == sorted(len(c) for c in ours)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_condensation_of_non_canonical_arcs(self, dtype):
        # duplicated arcs, extra self-loops and unsorted arc order: scipy's
        # strong labelling miscounts SCCs on a CSR holding duplicate entries,
        # so the partition and the condensation must still match networkx
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.55))
        g = build(law.sample(10**4, seed=1), seed=2)
        rng = np.random.default_rng(3)
        extra, loops = rng.integers(g.arc_count, size=500), rng.integers(g.n, size=100)
        order = rng.permutation(g.arc_count + extra.size + loops.size)
        src = np.concatenate([g.arc_src, g.arc_src[extra], loops])[order].astype(dtype)
        dst = np.concatenate([g.arc_dst, g.arc_dst[extra], loops])[order].astype(dtype)
        assert_condensation_matches_networkx(EnhancedGraph(n=g.n, arc_src=src, arc_dst=dst, parity_fixed=False))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_condensation_of_degenerate_digraphs(self, dtype):
        # isolated nodes, pure sources and sinks, self-loops and repeated
        # arcs: scipy labels only the nodes with an in-arc and an out-arc,
        # and every other node takes a label of its own
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(1, 25))
            role = rng.integers(4, size=n)  # 0 isolated, 1 source, 2 sink, 3 either
            tails, heads = np.nonzero(role % 2 == 1)[0], np.nonzero(role >= 2)[0]
            m = int(rng.integers(3 * n + 1)) if tails.size and heads.size else 0
            src, dst = rng.choice(tails, m), rng.choice(heads, m)
            loops = rng.integers(n, size=int(rng.integers(3)))
            repeats = rng.integers(m, size=int(rng.integers(m + 1)))
            src = np.concatenate([src, loops, src[repeats]]).astype(dtype)
            dst = np.concatenate([dst, loops, dst[repeats]]).astype(dtype)
            assert_condensation_matches_networkx(EnhancedGraph(n=n, arc_src=src, arc_dst=dst, parity_fixed=False))

    @pytest.mark.parametrize("n, p", ORACLE_GRAPHS)
    def test_exact_reach_sizes(self, n, p):
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(p))
        g = build(law.sample(n, seed=n), seed=n + 1)
        G = nx_digraph(g)
        expected = [len(nx.descendants(G, v)) + 1 for v in range(n)]
        assert all_reach(g).reach_sizes.tolist() == expected

    @pytest.mark.parametrize("n_scc", [1, 2, 3, 4, 5, 8, 9, 64, 65, 1024, 1025])
    def test_reach_at_key_shift_boundaries(self, n_scc):
        # condensations of 2**k and 2**k + 1 SCCs: the packed (row, node)
        # keys take k and k + 1 bits for the node
        rng = np.random.default_rng(n_scc)
        for _ in range(5):
            g = scc_dag(rng, n_scc)
            assert _condensation(g)[0] == n_scc
            assert_condensation_matches_networkx(g)
            G = nx_digraph(g)
            assert all_reach(g).reach_sizes.tolist() == [len(nx.descendants(G, v)) + 1 for v in range(g.n)]

    def test_unequal_diamonds_across_closure_blocks(self, monkeypatch):
        # chained diamonds u -> v -> w -> x, u -> x beside a larger 3-cycle:
        # x is at depths 1 and 3 of u's closure, and the 20 closures that
        # every u and v enumerate (each has two successors) fill seven blocks
        monkeypatch.setattr(diffusion, "_CLOSURE_BLOCK", 3)
        arcs = [(0, 1), (1, 2), (2, 0)]
        for k in range(10):
            u, v, w, x = range(3 + 4 * k, 7 + 4 * k)
            arcs += [(u, v), (v, w), (w, x), (u, x), (v, x + 1)]
        g = graph_from_arcs(44, arcs)
        G = nx_digraph(g)
        assert all_reach(g).reach_sizes.tolist() == [len(nx.descendants(G, v)) + 1 for v in range(g.n)]
        rng = np.random.default_rng(21)
        for n, p in ORACLE_GRAPHS[:3]:
            law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(p))
            g = build(law.sample(n, rng), rng)
            G = nx_digraph(g)
            assert all_reach(g).reach_sizes.tolist() == [len(nx.descendants(G, v)) + 1 for v in range(n)]

    def test_giant_good_set_is_backward_closure_of_largest_scc(self):
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.7))
        g = build(law.sample(10**4, seed=14), seed=15)
        out = all_reach(g)
        G = nx_digraph(g)
        for v in np.random.default_rng(16).choice(g.n, size=200, replace=False).tolist():
            assert out.reach_sizes[v] == len(nx.descendants(G, v)) + 1
        giant = max(nx.strongly_connected_components(G), key=len)
        v = next(iter(giant))
        upstream = nx.ancestors(G, v) | giant
        assert out.reach_sizes[list(upstream)].min() >= len(nx.descendants(G, v)) + 1
        assert set(out.good_pioneers.tolist()) == upstream


def structural_good_set(g):
    """B: the nodes whose SCC reaches the largest SCC, by one backward BFS
    over the condensation."""
    n_scc, labels, sizes, cs, cd = _condensation(g)
    reverse = sparse.csr_matrix((np.ones(cs.size, dtype=bool), (cd, cs)), shape=(n_scc, n_scc))
    upstream = np.zeros(n_scc, dtype=bool)
    upstream[breadth_first_order(reverse, int(np.argmax(sizes)), return_predecessors=False)] = True
    return np.nonzero(upstream[labels])[0]


class TestStructuralGoodSet:
    """In the limit the good pioneers are B; the finite-n rule must find B
    where the largest SCC stands clear of the rest."""

    @pytest.mark.parametrize("n", [2000, 30_000])
    def test_golden_supercritical_cases(self, n):
        # the graph of `simulate --degree poisson --lambda 2 --p 0.8 --seed 7`.
        # Near the threshold the sets differ: at p = 0.52, 99 good against 164
        # in B at n = 2 000, and 852 against 1 081, not a subset, at 30 000
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8))
        rng = np.random.default_rng(7)
        g = build(law.sample(n, rng), rng)
        np.testing.assert_array_equal(all_reach(g).good_pioneers, structural_good_set(g))

    @pytest.mark.parametrize("law", list(PROGENY_LAWS))
    def test_progeny_law_graphs(self, law):
        for g, out in progeny_reach(law):
            np.testing.assert_array_equal(out.good_pioneers, structural_good_set(g))
