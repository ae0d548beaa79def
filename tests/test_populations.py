import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats

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
from viralcm.special import zeta, zipf_pmf


def enumerate_coupon_pmf(d, K):
    """Oracle: exact occupancy law by enumerating all d**K selection sequences."""
    counts = {}
    for seq in itertools.product(range(d), repeat=K):
        k = len(set(seq))
        counts[k] = counts.get(k, 0) + 1
    return {k: Fraction(c, d**K) for k, c in counts.items()}


class TestConditionalPmf:
    def test_bernoulli_p0_is_point_mass(self):
        pmf = BernoulliTransmission(0.0).conditional_pmf(5)
        assert pmf.support.tolist() == [0, 1, 2, 3, 4, 5]
        assert pmf.weights[0] == pytest.approx(1.0)
        assert pmf.weights[1:].sum() == pytest.approx(0.0, abs=1e-15)

    def test_node_percolation_two_point(self):
        pmf = NodePercolation(0.3).conditional_pmf(4)
        assert pmf.support.tolist() == [0, 4]
        assert pmf.weights.tolist() == pytest.approx([0.7, 0.3])

    def test_coupon_k3_d2_vs_enumeration(self):
        # 2 of the 8 selection sequences hit a single friend
        pmf = CouponCollector(3).conditional_pmf(2)
        assert pmf.support.tolist() == [1, 2]
        assert pmf.weights[0] == float(Fraction(2, 8))
        assert pmf.weights[1] == float(Fraction(6, 8))

    def test_coupon_matches_enumeration_exactly(self):
        for d in range(1, 7):
            for K in range(0, 9):
                pmf = CouponCollector(K).conditional_pmf(d)
                oracle = enumerate_coupon_pmf(d, K) if K else {0: Fraction(1)}
                got = dict(zip(pmf.support.tolist(), pmf.weights.tolist()))
                assert set(got) == set(oracle)
                for k, frac in oracle.items():
                    # both sides are one correctly-rounded division of
                    # the same exact integers
                    assert got[k] == frac.numerator / frac.denominator

    def test_coupon_shared_row_is_exact_in_any_order(self):
        # one instance serves every degree from one row of {K over k}, grown
        # on demand; each weight is the correctly rounded exact ratio
        K = 60
        model = CouponCollector(K)
        for d in (3, 1, 17, 2, 60, 33, 90):
            pmf = model.conditional_pmf(d)
            falling = 1
            for k, w in zip(pmf.support.tolist(), pmf.weights.tolist()):
                falling *= d - k + 1
                exact = Fraction(falling * int(mpmath.stirling2(K, k, exact=True)), d**K)
                assert w == exact.numerator / exact.denominator

    def test_coupon_row_memory_follows_the_degree(self):
        # d = 17 needs {1000 over k} for k <= 17 only, not a 1000-row table
        tracemalloc.start()
        try:
            CouponCollector(1000).conditional_pmf(17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_coupon_isolated_node(self):
        pmf = CouponCollector(4).conditional_pmf(0)
        assert pmf.support.tolist() == [0]
        assert pmf.weights.tolist() == [1.0]

    @pytest.mark.parametrize(
        "model",
        [
            BernoulliTransmission(0.37),
            NodePercolation(0.6),
            CouponCollector(5),
            CouponCollector(0),
        ],
    )
    def test_sums_to_one_up_to_d50(self, model):
        for d in range(0, 51):
            pmf = model.conditional_pmf(d)
            assert abs(pmf.weights.sum() - 1.0) <= 1e-9
            assert pmf.support.max() <= d

    def test_bernoulli_conditional_mean(self):
        p = 0.37
        for d in range(0, 51):
            pmf = BernoulliTransmission(p).conditional_pmf(d)
            assert float(np.dot(pmf.support, pmf.weights)) == pytest.approx(
                p * d, abs=1e-12
            )

    def test_coupon_mean_matches_pmf(self):
        model = CouponCollector(4)
        for d in range(0, 30):
            pmf = model.conditional_pmf(d)
            assert float(np.dot(pmf.support, pmf.weights)) == pytest.approx(
                float(model.mean_t(d)), abs=1e-12
            )


class TestBernoulliPmfOracle:
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.1, 0.3, 0.5, 0.55, 0.8, 0.99, 1.0])
    def test_matches_mpmath_binomial(self, p):
        # Binomial(d, p) at 40 digits from exact binomial coefficients, with
        # p the exact double; relative error 1e-12 wherever the pmf is at
        # least 1e-200, for d up to 200 and at d = 1000
        with mpmath.workdps(40):
            pm = mpmath.mpf(p)
            p_pow = [pm**k for k in range(1001)]
            q_pow = [(1 - pm) ** k for k in range(1001)]
            tiny = mpmath.mpf("1e-200")
            for d in [*range(0, 201), 1000]:
                got = BernoulliTransmission(p).conditional_pmf(d).weights
                for k in range(d + 1):
                    ref = math.comb(d, k) * p_pow[k] * q_pow[d - k]
                    if ref >= tiny:
                        assert abs(got[k] - ref) <= 1e-12 * ref, (d, k)
                    else:
                        assert got[k] <= 1e-199, (d, k)

    def test_large_degree_stays_finite(self):
        # C(d, k) alone overflows a double beyond d ~ 1030
        pmf = BernoulliTransmission(0.3).conditional_pmf(5000)
        assert np.all(np.isfinite(pmf.weights))
        assert abs(pmf.weights.sum() - 1.0) <= 1e-9


class TestSampling:
    def test_poisson_bernoulli_mean_within_clt(self):
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8))
        s = law.sample(10**5, seed=1)
        # sd of the mean = sqrt(lambda/n); 3 sigma ~ 0.0134
        assert s.degree.mean() == pytest.approx(2.0, abs=0.05)

    def test_transmitter_never_exceeds_degree(self):
        for tr in (BernoulliTransmission(0.5), NodePercolation(0.5), CouponCollector(3)):
            law = JointDegreeLaw(PoissonDegree(2.0), tr)
            s = law.sample(10**5, seed=2)
            assert int(np.sum(s.transmitter_degree > s.degree)) == 0

    def test_powerlaw_mean_heavy_tail(self):
        law = JointDegreeLaw(PowerLawDegree(2.45), BernoulliTransmission(1.0))
        s = law.sample(10**5, seed=3)
        assert s.degree.mean() == pytest.approx(zeta(1.45) / zeta(2.45), rel=0.10)

    def test_deterministic_given_seed(self):
        law = JointDegreeLaw(PowerLawDegree(2.45), CouponCollector(3))
        a = law.sample(2000, seed=7)
        b = law.sample(2000, seed=7)
        assert np.array_equal(a.degree, b.degree)
        assert np.array_equal(a.transmitter_degree, b.transmitter_degree)

    @pytest.mark.parametrize(
        "tr",
        [BernoulliTransmission(0.6), NodePercolation(0.4), CouponCollector(3)],
    )
    def test_conditional_frequencies_chi2(self, tr):
        # two independent routes: mechanism simulation vs the pmf formula
        law = JointDegreeLaw(PoissonDegree(3.0), tr)
        s = law.sample(10**5, seed=4)
        d0 = 4
        t_at = s.transmitter_degree[s.degree == d0]
        pmf = tr.conditional_pmf(d0)
        observed = np.array([np.sum(t_at == k) for k in pmf.support])
        expected = pmf.weights * t_at.size
        keep = expected > 5
        stat = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
        dof = int(keep.sum()) - 1
        assert stat < stats.chi2.ppf(0.99, max(dof, 1))

    def test_empirical_law_roundtrip(self):
        law = EmpiricalDegree.from_degrees([1, 1, 2, 3, 3, 3])
        s = law.sample(20000, np.random.default_rng(0))
        freq3 = np.mean(s == 3)
        assert freq3 == pytest.approx(0.5, abs=0.02)

    def test_powerlaw_tail_extension_matches_table(self):
        # a tiny lookup table forces the on-the-fly tail extension; the
        # quantile function must not depend on where the table ends
        class TinyTable(PowerLawDegree):
            _TABLE = 64

        full = PowerLawDegree(2.45).sample(5000, np.random.default_rng(13))
        tiny = TinyTable(2.45).sample(5000, np.random.default_rng(13))
        assert int(full.max()) > 64  # the extension path actually ran
        assert np.array_equal(full, tiny)


class TestMoments:
    def test_poisson_bernoulli_identities(self):
        lam, p = 2.0, 0.8
        law = JointDegreeLaw(PoissonDegree(lam), BernoulliTransmission(p))
        mom = law.moments()
        assert mom.mean_d == pytest.approx(lam, abs=1e-10)
        assert mom.mean_d2 == pytest.approx(lam * lam + lam, abs=1e-10)
        assert mom.mean_dt_d == pytest.approx(p * (lam * lam + lam), abs=1e-10)
        # oracle: direct summation over the truncated joint support
        support, weights = law.degree.atoms()
        oracle = float(np.dot(weights, p * support.astype(float) ** 2))
        assert mom.mean_dt_d == pytest.approx(oracle, abs=1e-8)

    def test_zero_transmission(self):
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.0))
        mom = law.moments()
        assert mom.mean_dt == 0.0
        assert mom.mean_dt_d == 0.0
        assert mom.mean_dr == pytest.approx(2.0)

    def test_powerlaw_divergence_flag(self):
        law = JointDegreeLaw(PowerLawDegree(2.5), BernoulliTransmission(0.5))
        mom = law.moments()
        assert math.isinf(mom.mean_d2)
        assert math.isinf(mom.mean_dt_d)

    def test_powerlaw_finite_second_moment(self):
        law = JointDegreeLaw(PowerLawDegree(3.5), BernoulliTransmission(0.5))
        mom = law.moments()
        assert mom.mean_d2 == pytest.approx(zeta(1.5) / zeta(3.5), abs=1e-10)

    def test_coupon_powerlaw_vs_truncated_sum(self):
        # Stirling/zeta expansion against brute summation on a materialized
        # pmf; the oracle's truncation loses at most K * E[D 1{D > m}] of
        # the degree-weighted moment, so the tolerance carries that bound.
        beta, K = 3.2, 4
        law = JointDegreeLaw(PowerLawDegree(beta), CouponCollector(K))
        mom = law.moments()
        pmf = zipf_pmf(beta, tail_mass=1e-10)
        mt = law.transmission.mean_t(pmf.support)
        m = float(pmf.support.max())
        tail_d_weight = K * m ** (2.0 - beta) / ((beta - 2.0) * zeta(beta))
        assert mom.mean_dt == pytest.approx(float(np.dot(pmf.weights, mt)), abs=1e-8)
        assert mom.mean_dt_d == pytest.approx(
            float(np.dot(pmf.weights, pmf.support * mt)), abs=1e-8 + tail_d_weight
        )

    @pytest.mark.parametrize("K", [40, 2000, 20_000, 10**400], ids=["40", "2000", "20000", "1e400"])
    def test_coupon_powerlaw_K_beyond_bound_rejected(self, K):
        # the alternating C(K, j) sums carry a rounding bound of about 1e-5
        # at K = 40, C(2000, j) overflows a float, and 10**400 = C(10**400, 1) does
        law = JointDegreeLaw(PowerLawDegree(2.45), CouponCollector(K))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^K: {K} is too large .* exceeds 1e-12$"):
            law.moments()
        assert time.perf_counter() - start < 1.0

    def test_coupon_poisson_moments_vs_sampling(self):
        law = JointDegreeLaw(PoissonDegree(2.0), CouponCollector(2))
        mom = law.moments()
        s = law.sample(4 * 10**5, seed=5)
        assert mom.mean_dt == pytest.approx(float(s.transmitter_degree.mean()), abs=0.01)
        assert mom.mean_dt_d == pytest.approx(
            float((s.degree * s.transmitter_degree).mean()), abs=0.05
        )


class TestDegreeSample:
    def test_rejects_transmitter_above_degree(self):
        with pytest.raises(ValueError):
            DegreeSample(np.array([2, 3]), np.array([1, 4]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DegreeSample(np.array([], dtype=int), np.array([], dtype=int))

    def test_rejects_value_beyond_int64(self):
        with pytest.raises(ValueError, match="int64"):
            DegreeSample([3, 10**20], [1, 1])

    def test_rejects_non_integral_value(self):
        with pytest.raises(ValueError, match="integers"):
            DegreeSample([3.5, 2], [1, 1])

    def test_integer_arrays_unchanged(self):
        for dtype in (np.int64, np.int32, np.uint64):
            s = DegreeSample(np.array([3, 2], dtype=dtype), np.array([1, 2], dtype=dtype))
            assert s.degree.dtype == s.transmitter_degree.dtype == np.int64
            assert s.degree.tolist() == [3, 2] and s.transmitter_degree.tolist() == [1, 2]
        assert DegreeSample([3.0, 2], [1, 1]).degree.tolist() == [3, 2]

    def test_moments_match_numpy(self):
        s = DegreeSample(np.array([3, 1, 4]), np.array([1, 0, 2]))
        mom = s.moments()
        assert mom.mean_d == pytest.approx(8 / 3)
        assert mom.mean_dt == pytest.approx(1.0)
        assert mom.mean_dt_d == pytest.approx((3 + 0 + 8) / 3)
        assert mom.mean_dr == mom.mean_d - mom.mean_dt


class TestValidation:
    def test_poisson_requires_positive_lam(self):
        for lam in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="lam"):
                PoissonDegree(lam)

    def test_powerlaw_requires_beta_above_two(self):
        for beta in (2.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="beta"):
                PowerLawDegree(beta)

    def test_empirical_rejects_malformed_degrees(self):
        with pytest.raises(ValueError, match="integers"):
            EmpiricalDegree.from_degrees([1.5, 2])
        with pytest.raises(ValueError, match="int64"):
            EmpiricalDegree.from_degrees([2**70])
        with pytest.raises(ValueError, match="1-d"):
            EmpiricalDegree.from_degrees([[1, 2], [3, 4]])

    def test_empirical_groups_huge_degrees(self):
        # grouping by sorting, not by a count array as long as the largest degree
        support, weights = EmpiricalDegree.from_degrees([1, 2, 10**15, 2]).atoms()
        assert support.tolist() == [1, 2, 10**15]
        assert weights.tolist() == [0.25, 0.5, 0.25]

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: PoissonDegree(-1), "lam: Poisson mean must be finite and positive, got -1.0"),
            (lambda: PowerLawDegree(2), "beta: exponent must be finite and > 2, got 2.0"),
            (lambda: BernoulliTransmission(2), "p: transmission probability must lie in [0, 1]"),
            (lambda: NodePercolation(math.nan), "p: transmission probability must lie in [0, 1]"),
            (lambda: CouponCollector(-1), "K: message count must be a non-negative integer, got -1"),
            (lambda: CouponCollector(2.5), "K: message count must be a non-negative integer, got 2.5"),
            (lambda: PoissonDegree(10**400), f"lam: {10**400} is too large for a float"),
            (lambda: PowerLawDegree(10**400), f"beta: {10**400} is too large for a float"),
        ],
        ids=["lam", "beta", "bernoulli-p", "nodeperc-p", "K-negative", "K-fraction", "lam-1e400", "beta-1e400"],
    )
    def test_constructor_names_the_field(self, make, message):
        # the same text the CLI prints after "error: "
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message

    def test_probability_range(self):
        with pytest.raises(ValueError):
            BernoulliTransmission(1.2)
        with pytest.raises(ValueError):
            NodePercolation(-0.1)
        with pytest.raises(ValueError):
            CouponCollector(-1)

    def test_sample_requires_positive_n(self):
        law = JointDegreeLaw(PoissonDegree(1.0), BernoulliTransmission(0.5))
        with pytest.raises(ValueError):
            law.sample(0, seed=0)
