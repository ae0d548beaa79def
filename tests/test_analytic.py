import dataclasses
import functools
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from viralcm import analytic, populations
from viralcm.analytic import (
    _SCAN_GRID,
    RootBracketingError,
    analyze,
    bernoulli_threshold,
    build_genfns,
    find_root,
    giant_margin,
    mean_offspring,
    viral_margin,
)
from viralcm.cli import main
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
from viralcm.special import DiscretePmf, stirling2_row, zeta, zipf_pmf

from offspring_oracle import extinction_bracket


def poisson_bernoulli(lam=2.0, p=0.8):
    return JointDegreeLaw(PoissonDegree(lam), BernoulliTransmission(p))


def er_giant_fraction(lam, tol=1e-14):
    """Oracle: fixed point of a = 1 - exp(-lam * a), iterated to machine level."""
    a = 0.5
    for _ in range(500):
        nxt = 1.0 - math.exp(-lam * a)
        if abs(nxt - a) < tol:
            break
        a = nxt
    return a


class TestConditions:
    def test_poisson_bernoulli_supercritical(self):
        assert viral_margin(poisson_bernoulli(2.0, 0.8).moments()) > 0

    def test_zero_transmission_subcritical(self):
        assert not viral_margin(poisson_bernoulli(2.0, 0.0).moments()) > 0

    def test_boundary_lam_p_one(self):
        # lam * p = 1 sits exactly at the threshold: the margin 3 - (1 + 2) is 0
        assert not viral_margin(poisson_bernoulli(2.0, 0.5).moments()) > 0

    def test_giant_poisson(self):
        assert giant_margin(poisson_bernoulli(2.0, 0.5).moments()) > 0

    def test_giant_powerlaw_boundary(self):
        near = JointDegreeLaw(PowerLawDegree(3.4), BernoulliTransmission(1.0))
        far = JointDegreeLaw(PowerLawDegree(3.6), BernoulliTransmission(1.0))
        assert giant_margin(near.moments()) > 0
        assert not giant_margin(far.moments()) > 0

    def test_degenerate_degree_one(self):
        pmf = DiscretePmf(np.array([1]), np.array([1.0]))
        law = JointDegreeLaw(EmpiricalDegree(pmf), BernoulliTransmission(1.0))
        assert not giant_margin(law.moments()) > 0

    def test_divergent_mixed_moment_is_viral(self):
        law = JointDegreeLaw(PowerLawDegree(2.45), BernoulliTransmission(0.05))
        assert viral_margin(law.moments()) > 0


class TestBundles:
    def test_poisson_bernoulli_mixed_pgf(self):
        lam, p = 2.0, 0.8
        law = poisson_bernoulli(lam, p)
        bundle, mom = build_genfns(law), law.moments()
        for x in (0.0, 0.3, 0.7, 1.0):
            oracle = p * lam * x * math.exp(lam * (x - 1.0))
            m_dt_xd = mom.mean_d * x * x - mom.mean_dr * x - bundle.h(x)
            assert m_dt_xd == pytest.approx(oracle, abs=1e-8)

    def test_single_pair_sample(self):
        bundle = build_genfns(DegreeSample(np.array([3]), np.array([1])))
        assert bundle.g_d(0.5) == pytest.approx(0.125)
        assert bundle.g_dt(0.5) == pytest.approx(0.5)

    def test_zipf_full_transmission_mixed_pgf(self):
        beta = 2.45
        law = JointDegreeLaw(PowerLawDegree(beta), BernoulliTransmission(1.0))
        bundle, mom = build_genfns(law), law.moments()
        for x in (0.3, 0.8):
            k = np.arange(1, 300_001, dtype=np.float64)
            oracle = float(np.sum(k ** (1.0 - beta) * x**k)) / zeta(beta)
            m_dt_xd = mom.mean_d * x * x - mom.mean_dr * x - bundle.h(x)
            assert m_dt_xd == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize(
        "law",
        [
            poisson_bernoulli(2.0, 0.8),
            JointDegreeLaw(PoissonDegree(3.0), NodePercolation(0.6)),
            JointDegreeLaw(PoissonDegree(2.0), CouponCollector(3)),
            JointDegreeLaw(PowerLawDegree(2.45), BernoulliTransmission(0.7)),
            JointDegreeLaw(PowerLawDegree(2.45), NodePercolation(0.7)),
            JointDegreeLaw(PowerLawDegree(2.8), CouponCollector(4)),
            JointDegreeLaw(PowerLawDegree(3.4), BernoulliTransmission(0.9)),
        ],
    )
    def test_mixed_pgfs_hit_their_moments_at_one(self, law):
        bundle = build_genfns(law)
        mom = law.moments()
        assert bundle.g_d(1.0) == pytest.approx(1.0, abs=1e-9)
        assert bundle.g_dt(1.0) == pytest.approx(1.0, abs=1e-9)
        # E[D(t) 1^D] from H(1), E[D(t) 1^D(t)] + E[D(r) 1^D(t)] from Hbar(1)
        m_dt_xd = mom.mean_d - mom.mean_dr - bundle.h(1.0)
        m_xdt = mom.mean_d - bundle.hbar(1.0)
        assert m_dt_xd == pytest.approx(mom.mean_dt, abs=1e-8)
        assert m_xdt == pytest.approx(mom.mean_dt + mom.mean_dr, abs=1e-8)

    @pytest.mark.parametrize(
        "source",
        [
            poisson_bernoulli(2.0, 0.8),
            JointDegreeLaw(PoissonDegree(3.0), NodePercolation(0.6)),
            JointDegreeLaw(PoissonDegree(2.0), CouponCollector(3)),
            JointDegreeLaw(PowerLawDegree(2.45), BernoulliTransmission(0.3)),
            JointDegreeLaw(PowerLawDegree(3.0), NodePercolation(0.7)),
            JointDegreeLaw(PowerLawDegree(2.8), CouponCollector(4)),
            JointDegreeLaw(EmpiricalDegree.from_degrees([0, 1, 2, 5, 9]), NodePercolation(0.6)),
            JointDegreeLaw(PoissonDegree(3.0), BernoulliTransmission(0.6)).sample(2000, seed=3),
        ],
    )
    def test_array_calls_equal_scalar_calls(self, source):
        # find_root scans with one array call and refines with scalar
        # calls; the two must agree bit for bit so the bracket's signs hold.
        bundle = build_genfns(source)
        xs = np.concatenate([_SCAN_GRID[::25], _SCAN_GRID[-60:], [0.0, 1.0]])
        for f in (bundle.h, bundle.hbar, bundle.h0, bundle.g_d, bundle.g_dt):
            assert np.array_equal(f(xs), [f(float(x)) for x in xs])

    def test_coupon_zipf_bundle_vs_materialized(self):
        # Stirling-expansion coefficients against brute conditional sums:
        # a_k = P{D(t)=k} and b_k = E[D 1{D(t)=k}].  The oracle truncates
        # the degree support, dropping E[D 1{D > m}] from the receiver-
        # weighted term; its integral bound widens that tolerance.
        beta, K = 3.2, 3
        law = JointDegreeLaw(PowerLawDegree(beta), CouponCollector(K))
        bundle = build_genfns(law)
        a, b = law.transmission._powerlaw_expansion(law.degree)[1:]
        k = np.arange(K + 1, dtype=np.float64)
        pmf = zipf_pmf(beta, tail_mass=1e-10)
        tr = law.transmission
        m = float(pmf.support.max())
        tail_d_weight = m ** (2.0 - beta) / ((beta - 2.0) * zeta(beta))
        for x in (0.2, 0.6, 0.9):
            g_dt = m2 = m3 = 0.0
            for d, w in zip(pmf.support.tolist(), pmf.weights.tolist()):
                cp = tr.conditional_pmf(d)
                xk = x ** cp.support.astype(float)
                g_dt += w * float(np.dot(cp.weights, xk))
                m2 += w * float(np.dot(cp.weights * cp.support, xk))
                m3 += w * float(np.dot(cp.weights * (d - cp.support), xk))
            assert bundle.g_dt(x) == pytest.approx(g_dt, abs=1e-7)
            assert float(np.dot(a, x**k)) == pytest.approx(g_dt, abs=1e-7)
            assert float(np.dot(a * k, x**k)) == pytest.approx(m2, abs=1e-7)
            assert float(np.dot(b - a * k, x**k)) == pytest.approx(m3, abs=1e-7 + tail_d_weight)

    @pytest.mark.parametrize("beta", [2.2, 2.45, 3.2, 4.45])
    def test_coupon_coeffs_match_mpmath_up_to_K_max(self, beta):
        # a_k = sum_s {K over k} s1(k, s) E[D^(s-K)] and b_k, with
        # E[D^(s-K+1)], summed at 50 digits from mpmath's Stirling numbers
        # and zeta.  Each coefficient is within the expansion's rounding
        # bound u * sum |term| (u = 2**-53), at most 1e-12 up to K = 6, plus
        # 4 u of its value for the float zeta ratios' own error.
        u = 2.0**-53
        deg = PowerLawDegree(beta)
        with mpmath.workdps(50):
            zb = mpmath.zeta(beta)

            def moment(r):  # E[D^r] = zeta(beta - r) / zeta(beta)
                return mpmath.zeta(beta - r) / zb

            for K in range(7):
                a, b = CouponCollector(K)._powerlaw_expansion(deg)[1:]
                terms = [
                    [mpmath.stirling2(K, k, exact=True) * mpmath.stirling1(k, s, exact=True) for s in range(k + 1)]
                    for k in range(K + 1)
                ]
                bound = u * sum(
                    abs(t) * (moment(s - K) + moment(s - K + 1)) for row in terms for s, t in enumerate(row)
                )
                assert bound <= analytic.ROOT_RESIDUAL
                for k, row in enumerate(terms):
                    for got, r in ((a[k], -K), (b[k], 1 - K)):
                        want = sum(t * moment(s + r) for s, t in enumerate(row))
                        assert abs(got - want) <= bound + 4 * u * abs(want)
        with pytest.raises(ValueError, match=r"^K: 7 is too large .* = [0-9.e-]+ exceeds 1e-12$"):
            CouponCollector(7)._powerlaw_expansion(deg)

    @pytest.mark.parametrize("K", [40, 2000, 20_000])
    def test_coupon_K_rejected_before_any_stirling_row(self, monkeypatch, K):
        # the expansion checks the C(K, j) sums first, so no row of
        # {K over k} is built for a K it cannot take
        def no_row(*args):
            raise AssertionError("a Stirling row was built for a rejected K")

        monkeypatch.setattr(populations, "stirling2_row", no_row)
        law = JointDegreeLaw(PowerLawDegree(2.45), CouponCollector(K))
        with pytest.raises(ValueError) as moments_error:
            law.moments()
        for call in (build_genfns, analyze):
            with pytest.raises(ValueError) as error:
                call(law)
            assert str(error.value) == str(moments_error.value)
            assert str(error.value).startswith(f"K: {K} is too large")

    def test_coupon_expansion_built_once_per_beta(self, monkeypatch):
        # the moments and closed forms of one law share one expansion, and
        # another beta on the same model gets its own
        rows = []
        monkeypatch.setattr(populations, "stirling2_row", lambda *a: rows.append(a) or stirling2_row(*a))
        coupon = CouponCollector(3)
        for beta in (2.45, 3.2):
            law = JointDegreeLaw(PowerLawDegree(beta), coupon)
            analyze(law)
            mean_offspring(law.moments())
            build_genfns(law)
            assert rows == [(3, 3)] * (1 + (beta == 3.2))
        assert analyze(JointDegreeLaw(PowerLawDegree(3.2), CouponCollector(3))) == analyze(law)

    @pytest.mark.parametrize(
        "degree", [PoissonDegree(2.0), EmpiricalDegree.from_degrees([0, 1, 3, 3, 8])], ids=["poisson", "empirical"]
    )
    def test_materialized_coupon_K_beyond_float_rejected_before_any_stirling_row(self, monkeypatch, degree):
        # E[D(t) | D] needs K as a float, and the exact (d, t) table is built
        # only after the same check: no row of {K over k} is started for 10**400
        def no_row(*args):
            raise AssertionError("a Stirling row was built for a rejected K")

        monkeypatch.setattr(populations, "stirling2_row", no_row)
        law = JointDegreeLaw(degree, CouponCollector(10**400))
        for call in (JointDegreeLaw.moments, build_genfns, analyze):
            with pytest.raises(ValueError, match=rf"^K: {10**400} is too large for a float$"):
                call(law)

    def test_pair_key_overflow_rejected(self):
        # samples group rows by the key degree * (max t + 1) + t
        big = DegreeSample(np.array([2**62, 1]), np.array([3, 0]))
        with pytest.raises(ValueError, match="overflows int64"):
            build_genfns(big)

    def test_empty_sample_errors(self):
        with pytest.raises(ValueError):
            DegreeSample(np.array([], dtype=int), np.array([], dtype=int))


class TestEvalH:
    @pytest.mark.parametrize(
        "law",
        [
            poisson_bernoulli(2.0, 0.8),
            JointDegreeLaw(PoissonDegree(4.0), NodePercolation(0.3)),
            JointDegreeLaw(PoissonDegree(2.0), CouponCollector(2)),
            JointDegreeLaw(PowerLawDegree(2.45), BernoulliTransmission(0.6)),
            JointDegreeLaw(PowerLawDegree(2.6), CouponCollector(3)),
        ],
    )
    def test_moment_identity_at_one(self, law):
        bundle = build_genfns(law)
        assert bundle.h(1.0) == pytest.approx(0.0, abs=1e-9)
        assert bundle.hbar(1.0) == pytest.approx(0.0, abs=1e-9)
        assert bundle.h0(1.0) == pytest.approx(0.0, abs=1e-9)

    def test_vanishes_at_zero(self):
        bundle = build_genfns(poisson_bernoulli(2.0, 0.8))
        assert bundle.h(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_poisson_closed_form_at_half(self):
        lam, p, x = 2.0, 0.8, 0.5
        bundle = build_genfns(poisson_bernoulli(lam, p))
        oracle = (
            lam * x * x
            - (1.0 - p) * lam * x
            - p * lam * x * math.exp(lam * (x - 1.0))
        )
        assert bundle.h(x) == pytest.approx(oracle, abs=1e-9)


class TestFindRoot:
    def test_critical_case_has_no_root(self):
        bundle = build_genfns(poisson_bernoulli(2.0, 0.5))
        assert find_root(bundle.h, "H") is None

    def test_er_giant_component_root(self):
        lam = 2.0
        law = poisson_bernoulli(lam, 1.0)
        res = analyze(law)
        alpha_oracle = er_giant_fraction(lam)
        assert res.alpha0 == pytest.approx(alpha_oracle, abs=1e-9)
        assert res.alpha == pytest.approx(alpha_oracle, abs=1e-9)
        assert res.xi0 == pytest.approx(1.0 - alpha_oracle, abs=1e-9)

    def test_bernoulli_roots_coincide_after_substitution(self):
        lam, p = 2.0, 0.8
        bundle = build_genfns(poisson_bernoulli(lam, p))
        xi = find_root(bundle.h, "H")
        xi_bar = find_root(bundle.hbar, "Hbar")
        assert xi == pytest.approx(1.0 - p * (1.0 - xi_bar), abs=1e-9)

    def test_two_sign_changes_raise(self):
        with pytest.raises(RootBracketingError, match="Hbar zero not unique: 2 sign changes"):
            find_root(lambda x: (x - 0.3) * (x - 0.7), "Hbar")

    def test_residual_bound_and_determinism(self):
        bundle = build_genfns(poisson_bernoulli(3.0, 0.7))
        f = bundle.h
        r1 = find_root(f, "H")
        r2 = find_root(f, "H")
        assert r1 == r2
        assert abs(f(r1)) <= 1e-12

    def test_roots_strictly_inside_unit_interval(self):
        for p in (0.55, 0.7, 0.9, 1.0):
            res = analyze(poisson_bernoulli(2.0, p))
            for root in (res.xi, res.xi_bar, res.xi0):
                assert 0.0 < root < 1.0

    @pytest.mark.parametrize("lam,p", [(1.5, 0.68), (2.0, 0.52), (3.0, 0.34)])
    def test_near_critical_roots_match_mpmath(self, lam, p):
        # lam * p = 1.02: H is nearly flat at its zero, so an error of one
        # part in 1e16 in H moves the root by ~1e-13.  Reference zeros of
        # H(x)/(lam x) = x - (1-p) - p e^{lam(x-1)} and
        # Hbar(x)/(lam x) = x - e^{lam p (x-1)} at 40 digits.
        with mpmath.workdps(40):
            xi = mpmath.findroot(lambda x: x - (1 - p) - p * mpmath.exp(lam * (x - 1)), 0.5)
            xi_bar = mpmath.findroot(lambda x: x - mpmath.exp(lam * p * (x - 1)), 0.5)
            alpha = 1 - mpmath.exp(lam * (xi - 1))
        res = analyze(poisson_bernoulli(lam, p))
        assert res.xi == pytest.approx(float(xi), abs=2e-14)
        assert res.xi_bar == pytest.approx(float(xi_bar), abs=2e-14)
        assert res.alpha == pytest.approx(float(alpha), abs=2e-14)


    def test_rounding_noise_near_one_is_not_a_root(self):
        # lam p = 1 + 1e-5: 1 - xi_bar = 2e-5, and near x = 1 - 1e-12 Hbar is
        # ~1e-17, below its rounding noise; those signs must not bracket.
        lam, p = 3.0, (1.0 + 1e-5) / 3.0
        with mpmath.workdps(40):
            xi_bar = mpmath.findroot(lambda x: x - mpmath.exp(lam * p * (x - 1)), (0.99996, 0.99999))
        res = analyze(poisson_bernoulli(lam, p))
        assert res.xi_bar == pytest.approx(float(xi_bar), abs=1e-10)

    @pytest.mark.parametrize(
        "factor,h_bracket,hbar_bracket",
        [(1.05, (2e-7, 5e-8), (6e-7, 1.2e-7)), (1.03, (2e-8, 4e-9), (5e-8, 1e-8))],
    )
    def test_near_critical_powerlaw_roots_near_one(self, factor, h_bracket, hbar_bracket):
        # beta = 3.2 just above the Bernoulli threshold: 1 - xi is 1.06e-7
        # at 1.05 p_c and 9.05e-9 at 1.03 p_c, closer to 1 than 1 - 1e-6.
        # The brackets are given in 1 - x.  Reference zeros at 50 digits of
        # H(x) = E[D] x^2 - (1-p) E[D] x - p Li_{beta-1}(x) / zeta(beta) and
        # Hbar(x) = E[D] x^2 - x G_D'(y), y = 1 - p (1 - x).
        beta = 3.2
        p = factor * bernoulli_threshold(PowerLawDegree(beta))
        res = analyze(JointDegreeLaw(PowerLawDegree(beta), BernoulliTransmission(p)))
        with mpmath.workdps(50):
            b, pm = mpmath.mpf(beta), mpmath.mpf(p)
            zb = mpmath.zeta(b)
            mean_d = mpmath.zeta(b - 1) / zb

            def h(x):
                return mean_d * x * x - (1 - pm) * mean_d * x - pm * mpmath.polylog(b - 1, x) / zb

            def hbar(x):
                y = 1 - pm * (1 - x)
                return mean_d * x * x - x * mpmath.polylog(b - 1, y) / (y * zb)

            xi = mpmath.findroot(h, tuple(1 - mpmath.mpf(u) for u in h_bracket), solver="anderson")
            xi_bar = mpmath.findroot(
                hbar, tuple(1 - mpmath.mpf(u) for u in hbar_bracket), solver="anderson"
            )
            alpha = 1 - mpmath.polylog(b, xi) / zb
        assert res.xi == pytest.approx(float(xi), abs=1e-12)
        assert res.xi_bar == pytest.approx(float(xi_bar), abs=1e-12)
        assert res.alpha == pytest.approx(float(alpha), abs=1e-12)


class TestFractions:
    def test_subcritical_zeros(self):
        res = analyze(poisson_bernoulli(2.0, 0.3))
        assert res.alpha == 0.0
        assert res.alpha_bar == 0.0
        assert not res.viral_condition
        assert res.xi is None

    def test_bernoulli_symmetry(self):
        res = analyze(poisson_bernoulli(2.0, 0.8))
        assert abs(res.alpha - res.alpha_bar) < 1e-9

    def test_node_percolation_scaling(self):
        lam, p = 2.0, 0.8
        res = analyze(JointDegreeLaw(PoissonDegree(lam), NodePercolation(p)))
        assert abs(res.alpha_bar - p * res.alpha) < 1e-9
        # same influenced fraction as Bernoulli at the same p
        bern = analyze(poisson_bernoulli(lam, p))
        assert res.alpha == pytest.approx(bern.alpha, abs=1e-9)

    def test_alpha_within_giant(self):
        for p in (0.6, 0.8, 1.0):
            res = analyze(poisson_bernoulli(2.0, p))
            assert res.alpha <= res.alpha0 + 1e-9

    def test_alpha_monotone_in_p(self):
        alphas = [analyze(poisson_bernoulli(2.0, p)).alpha for p in np.linspace(0.52, 1.0, 50)]
        assert all(b >= a - 1e-9 for a, b in zip(alphas, alphas[1:]))

    def test_critical_margin_reports_no_root(self):
        # lam * p = 1 within float noise: margin below the critical guard
        res = analyze(poisson_bernoulli(2.0, 0.5))
        assert res.critical
        assert res.xi is None and res.alpha == 0.0


class TestBernoulliThreshold:
    def test_poisson_inverse_mean(self):
        assert bernoulli_threshold(PoissonDegree(2.0)) == pytest.approx(0.5, abs=1e-10)
        assert bernoulli_threshold(PoissonDegree(4.0)) == pytest.approx(0.25, abs=1e-10)

    def test_heavy_tail_threshold_zero(self):
        assert bernoulli_threshold(PowerLawDegree(2.45)) == 0.0

    def test_powerlaw_3_2(self):
        expect = zeta(2.2) / (zeta(1.2) - zeta(2.2))
        assert bernoulli_threshold(PowerLawDegree(3.2)) == pytest.approx(expect, abs=1e-10)


def size_biased_pmf(law):
    """Oracle: {(v, w): P{Dr~ = v, Dt~ = w}} of a reached friend.

    Re-weights the population pmf p_{v,w} of (receiver, transmitter)
    degrees, summed over the degree atoms and their conditional pmfs, as
    ((v+1) p_{v+1,w} + (w+1) p_{v,w+1}) / E[D].
    """
    pop = {}
    support, weights = law.degree.atoms()
    for d, wd in zip(support.tolist(), weights.tolist()):
        cpmf = law.transmission.conditional_pmf(d)
        for t, q in zip(cpmf.support.tolist(), cpmf.weights.tolist()):
            pop[d - t, t] = pop.get((d - t, t), 0.0) + wd * q
    mean_d = sum((v + w) * m for (v, w), m in pop.items())
    out = {}
    for (v, w), m in pop.items():
        if v > 0:
            out[v - 1, w] = out.get((v - 1, w), 0.0) + v * m / mean_d
        if w > 0:
            out[v, w - 1] = out.get((v, w - 1), 0.0) + w * m / mean_d
    return out


_two_regular = EmpiricalDegree(DiscretePmf(np.array([2]), np.array([1.0])))
_offspring_laws = [
    JointDegreeLaw(deg, tr)
    for deg in (
        PoissonDegree(0.5),
        PoissonDegree(3.0),
        PoissonDegree(12.0),
        EmpiricalDegree.from_degrees([1, 2, 2, 3, 5, 8, 13]),
        EmpiricalDegree.from_degrees([0, 1, 4, 4, 7]),
        _two_regular,
    )
    for tr in (
        BernoulliTransmission(0.35),
        BernoulliTransmission(1.0),
        NodePercolation(0.6),
        CouponCollector(2),
        CouponCollector(5),
    )
]


_viral_offspring_laws = [
    JointDegreeLaw(deg, tr)
    for deg in (
        PoissonDegree(1.8),
        PoissonDegree(3.0),
        PoissonDegree(12.0),
        EmpiricalDegree.from_degrees([1, 2, 2, 3, 5, 8, 13]),
        EmpiricalDegree.from_degrees([0, 1, 4, 4, 7]),
    )
    for tr in (BernoulliTransmission(0.7), NodePercolation(0.7), CouponCollector(3))
]


class TestOffspringOracle:
    @pytest.mark.parametrize("law", _offspring_laws)
    def test_mean_offspring_matches_size_biased_pmf(self, law):
        pmf = size_biased_pmf(law)
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-9)
        mean_t = sum(w * m for (_, w), m in pmf.items())
        assert mean_offspring(law.moments()) == pytest.approx(mean_t, rel=1e-12)

    def test_two_regular_full_transmission(self):
        # a reached friend of a 2-regular node has one remaining stub,
        # always a transmitter
        law = JointDegreeLaw(_two_regular, BernoulliTransmission(1.0))
        pmf = size_biased_pmf(law)
        assert pmf.pop((0, 1)) == pytest.approx(1.0)
        assert not any(pmf.values())
        assert mean_offspring(law.moments()) == 1.0

    @pytest.mark.parametrize("lam, p", [(0.5, 0.35), (3.0, 0.35), (12.0, 1.0)])
    def test_poisson_thinning_mean(self, lam, p):
        assert mean_offspring(poisson_bernoulli(lam, p).moments()) == pytest.approx(
            lam * p, rel=1e-12
        )

    @pytest.mark.parametrize("law", _viral_offspring_laws)
    def test_extinction_bracketed_by_iterates(self, law):
        # the offspring pgf iterated up from 0 and down from below 1
        # closes in on the extinction probability, which is xi_bar
        res = analyze(law)
        assert res.viral_condition and mean_offspring(law.moments()) > 1.0
        lo, hi = extinction_bracket(law)
        assert hi - lo <= 1e-12
        assert lo - 1e-12 <= res.xi_bar <= hi + 1e-12


def branching_block(law, out):
    """The ``branching`` block ``viralcm analytic`` writes for a Poisson or power-law law."""
    deg, tr = law.degree, law.transmission
    if isinstance(deg, PoissonDegree):
        flags = ["--degree", "poisson", "--lambda", repr(deg.lam)]
    else:
        flags = ["--degree", "powerlaw", "--beta", repr(deg.beta)]
    if isinstance(tr, CouponCollector):
        flags += ["--trans", "coupon", "--K", str(tr.K)]
    else:
        name = "bernoulli" if isinstance(tr, BernoulliTransmission) else "nodeperc"
        flags += ["--trans", name, "--p", repr(tr.p)]
    assert main(["analytic", *flags, "--out", str(out)]) == 0
    return json.loads((out / "analysis.json").read_text())["branching"]


class TestBranchingCrosscheck:
    def test_poisson_bernoulli_supercritical(self):
        law = poisson_bernoulli(2.0, 0.8)
        assert analyze(law).viral_condition
        assert mean_offspring(law.moments()) == pytest.approx(1.6, abs=1e-9)

    def test_zero_mean_degree_raises(self):
        law = JointDegreeLaw(EmpiricalDegree.from_degrees([0, 0]), BernoulliTransmission(0.5))
        with pytest.raises(ValueError, match=r"E\[D\] = 0"):
            mean_offspring(law.moments())

    def test_hub_law_stays_small(self):
        # one hub of degree 3000: the offspring mean is a moment ratio, so no
        # table over pairs of degrees is ever built
        law = JointDegreeLaw(EmpiricalDegree.from_degrees([1, 2, 3000]), BernoulliTransmission(0.5))
        tracemalloc.start()
        try:
            res = analyze(law)
            mean_offspring(law.moments())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.viral_condition
        assert peak < 4 * 2**20

    def test_zero_transmission_degenerate(self, tmp_path):
        block = branching_block(poisson_bernoulli(2.0, 0.0), tmp_path)
        assert not block["supercritical"]
        assert block["alpha_bar_bp"] == 0.0
        assert block["p_ext"] == 1.0

    def test_coupon_k2_at_lambda_2_subcritical(self):
        # the point acceptance criterion 6 used to test: the offspring mean
        # (2*lam - 3*(1 - e^-lam) + sum_k e^-lam lam^k / (k k!)) / lam,
        # summed with mpmath, is below one, so both fractions vanish
        law = JointDegreeLaw(PoissonDegree(2.0), CouponCollector(2))
        assert mean_offspring(law.moments()) == pytest.approx(0.952281821998056, abs=1e-12)
        res = analyze(law)
        assert not res.viral_condition
        assert res.alpha == 0.0
        assert res.alpha_bar == 0.0

    @pytest.mark.parametrize(
        "law",
        [
            poisson_bernoulli(2.0, 0.8),
            JointDegreeLaw(PoissonDegree(4.0), NodePercolation(0.5)),
            JointDegreeLaw(PoissonDegree(2.0), CouponCollector(4)),
            JointDegreeLaw(PowerLawDegree(2.45), BernoulliTransmission(0.3)),
        ],
    )
    def test_extinction_matches_good_pioneer_fraction(self, law, tmp_path):
        block = branching_block(law, tmp_path)
        res = analyze(law)
        assert block["supercritical"] == res.viral_condition
        if block["supercritical"]:
            assert block["p_ext"] == res.xi_bar
            assert abs(block["alpha_bar_bp"] - res.alpha_bar) < 1e-9

    def test_agrees_with_viral_condition_on_grid(self):
        rng = np.random.default_rng(11)
        laws = []
        for _ in range(40):
            lam = float(rng.uniform(0.5, 5.0))
            kind = rng.integers(3)
            if kind == 0:
                tr = BernoulliTransmission(float(rng.uniform(0.0, 1.0)))
            elif kind == 1:
                tr = NodePercolation(float(rng.uniform(0.0, 1.0)))
            else:
                tr = CouponCollector(int(rng.integers(0, 7)))
            laws.append(JointDegreeLaw(PoissonDegree(lam), tr))
        for law in laws:
            mom = law.moments()
            margin = mom.mean_dt_d - mom.mean_dt - mom.mean_d
            if abs(margin) < 1e-6:
                continue  # uninformative near the phase boundary
            assert (mean_offspring(mom) > 1.0) == analyze(law).viral_condition == (margin > 0)


class TestPowerLawRegimes:
    def test_alpha_positive_at_tiny_p(self):
        for p in (0.05, 0.1, 0.3):
            res = analyze(JointDegreeLaw(PowerLawDegree(2.45), BernoulliTransmission(p)))
            assert res.viral_condition
            assert res.alpha > 0.0

    def test_threshold_sign_change_at_3_2(self):
        pc = bernoulli_threshold(PowerLawDegree(3.2))
        below = analyze(JointDegreeLaw(PowerLawDegree(3.2), BernoulliTransmission(pc - 0.03)))
        above = analyze(JointDegreeLaw(PowerLawDegree(3.2), BernoulliTransmission(pc + 0.03)))
        assert not below.viral_condition and below.alpha == 0.0
        assert above.viral_condition and above.alpha > 0.0


class TestAnalyzeSample:
    def test_sample_equal_to_law_recovers_analytic(self):
        # sample whose empirical law is exactly a two-atom pmf
        d = np.array([1] * 30 + [4] * 70)
        t = d.copy()  # full transmission
        res_sample = analyze(DegreeSample(d, t))
        pmf = DiscretePmf(np.array([1, 4]), np.array([0.3, 0.7]))
        res_law = analyze(JointDegreeLaw(EmpiricalDegree(pmf), BernoulliTransmission(1.0)))
        assert res_sample.alpha == pytest.approx(res_law.alpha, abs=1e-9)
        assert res_sample.alpha_bar == pytest.approx(res_law.alpha_bar, abs=1e-9)

    def test_undersized_sample_never_raises(self):
        rng = np.random.default_rng(0)
        law = poisson_bernoulli(2.0, 0.55)
        for _ in range(20):
            s = law.sample(50, rng)
            res = analyze(s)
            assert 0.0 <= res.alpha <= 1.0


def brute_bundle(law, x):
    """Oracle: H, Hbar, H0, G_D, G_Dt as double sums over atoms x conditional pmf."""
    h = hbar = h0 = g_d = g_dt = 0.0
    support, weights = law.degree.atoms()
    for d, wd in zip(support.tolist(), weights.tolist()):
        cpmf = law.transmission.conditional_pmf(d)
        for t, q in zip(cpmf.support.tolist(), cpmf.weights.tolist()):
            w = wd * q
            h += w * (d * x * x - (d - t) * x - t * x**d)
            hbar += w * (d * x * x - t * x**t - (d - t) * x ** (t + 1))
            h0 += w * (d * x * x - d * x**d)
            g_d += w * x**d
            g_dt += w * x**t
    return h, hbar, h0, g_d, g_dt


_degrees = st.one_of(
    st.floats(0.5, 8.0).map(PoissonDegree),
    st.lists(st.integers(0, 25), min_size=1, max_size=30).map(EmpiricalDegree.from_degrees),
)
_transmissions = st.one_of(
    st.floats(0.0, 1.0).map(BernoulliTransmission),
    st.floats(0.0, 1.0).map(NodePercolation),
    st.integers(0, 6).map(CouponCollector),
)


class TestBundleOracle:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(degree=_degrees, tr=_transmissions, x=st.floats(0.0, 1.0))
    def test_bundle_matches_definition(self, degree, tr, x):
        law = JointDegreeLaw(degree, tr)
        bundle = build_genfns(law)
        names = ("h", "hbar", "h0", "g_d", "g_dt")
        for name, oracle in zip(names, brute_bundle(law, x)):
            assert getattr(bundle, name)(x) == pytest.approx(oracle, abs=1e-10), name


@functools.cache
def zipf_sum(s, z):
    """sum_{d>=1} d**-s z**d at 50 digits: Li_s(z), or zeta(s) at z = 1."""
    with mpmath.workdps(50):
        return mpmath.zeta(s) if z == 1 else mpmath.polylog(s, z)


def zipf_mean(beta, terms):
    """E[sum c D**e z**D] for P{D=d} = d**-beta / zeta(beta), d >= 1, at 50
    digits; ``terms`` holds (c, e, z)."""
    with mpmath.workdps(50):
        return sum(c * zipf_sum(beta - e, z) for c, e, z in terms) / zipf_sum(beta, 1)


def conditional_terms(tr, x):
    """E[D(t) | D=d], E[x^D(t) | D=d], E[D(t) x^D(t) | D=d] and
    E[(d - D(t)) x^D(t) | D=d] as (c, e, z) terms c d**e z**d, from each
    model's definition (x an mpf)."""
    if isinstance(tr, BernoulliTransmission):  # D(t) ~ Binomial(d, p)
        p = mpmath.mpf(tr.p)
        y = 1 - p * (1 - x)
        return [(p, 1, 1)], [(1, 0, y)], [(p * x / y, 1, y)], [((1 - p) / y, 1, y)]
    if isinstance(tr, NodePercolation):  # D(t) = d w.p. p, else 0
        p = mpmath.mpf(tr.p)
        return [(p, 1, 1)], [(1 - p, 0, 1), (p, 0, x)], [(p, 1, x)], [(1 - p, 1, 1)]
    # coupon: K picks out of d friends, D(t) distinct ones; P{D(t)=k | D=d}
    # d**K = (d)_k * surj(K, k) / k!, with the surjections counted by
    # inclusion-exclusion and (d)_k expanded in powers of d
    K = tr.K
    mean_t = [((-1) ** (j + 1) * math.comb(K, j), 1 - j, 1) for j in range(1, K + 1)]
    pgf, t_pgf, r_pgf = [], [], []
    for k in range(K + 1):
        surj = sum((-1) ** i * math.comb(k, i) * (k - i) ** K for i in range(k + 1))
        falling = [1]
        for i in range(k):
            falling = [lo - i * hi for lo, hi in zip([0, *falling], [*falling, 0])]
        for e, c in enumerate(falling):
            w = mpmath.mpf(c * surj) / math.factorial(k) * x**k
            pgf.append((w, e - K, 1))
            t_pgf.append((k * w, e - K, 1))
            r_pgf += [(w, e - K + 1, 1), (-k * w, e - K, 1)]
    return mean_t, pgf, t_pgf, r_pgf


def zipf_bundle_oracle(beta, tr, x):
    """H, Hbar, H0, G_D, G_Dt of a power law under ``tr`` at x, summed from
    their definitions (module docstring of ``viralcm.analytic``) at 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        mean_t, pgf, t_pgf, r_pgf = conditional_terms(tr, x)
        d_x2 = [(x * x, 1, 1)]
        h = d_x2 + [(-x, 1, 1)] + [(x * c, e, 1) for c, e, _ in mean_t] + [(-c, e, x) for c, e, _ in mean_t]
        hbar = d_x2 + [(-c, e, z) for c, e, z in t_pgf] + [(-x * c, e, z) for c, e, z in r_pgf]
        h0 = d_x2 + [(-1, 1, x)]
        return [zipf_mean(beta, terms) for terms in (h, hbar, h0, [(1, 0, x)], pgf)]


class TestZipfClosedFormOracle:
    @pytest.mark.parametrize("beta", [2.45, 3.2])
    @pytest.mark.parametrize(
        "tr",
        [BernoulliTransmission(0.3), NodePercolation(0.3), CouponCollector(3), CouponCollector(6)],
        ids=["bernoulli", "nodeperc", "coupon3", "coupon6"],
    )
    def test_bundle_matches_mpmath_sums(self, beta, tr):
        # the closed forms at interior abscissae, each of the five against
        # sums over the degree from the conditional law's definition
        bundle = build_genfns(JointDegreeLaw(PowerLawDegree(beta), tr))
        names = ("h", "hbar", "h0", "g_d", "g_dt")
        for x in (0.2, 0.6, 0.9, 1.0 - 1e-6):
            for name, want in zip(names, zipf_bundle_oracle(beta, tr, x)):
                assert abs(getattr(bundle, name)(x) - float(want)) <= 1e-12, (name, x)


def scipy_brentq(f, a, b):
    return brentq(f, a, b, xtol=1e-15, rtol=8.9e-16, maxiter=200)


def port_brentq(f, a, b):
    """``_brentq`` called as scipy's: the endpoint values first, then the refinement."""
    return analytic._brentq(f, a, b, f(a), f(b))[0]


_law_grid = [
    JointDegreeLaw(deg, tr)
    for deg in (
        PoissonDegree(1.5),
        PoissonDegree(3.0),
        PoissonDegree(5.0),
        EmpiricalDegree.from_degrees([1, 2, 2, 3, 5, 8, 13]),
        PowerLawDegree(2.45),
        PowerLawDegree(3.2),
    )
    for tr in (
        [BernoulliTransmission(p) for p in (0.3, 0.55, 0.8, 1.0)]
        + [NodePercolation(p) for p in (0.3, 0.7)]
        + [CouponCollector(K) for K in (2, 4)]
    )
]


class TestBrentPort:
    """``_brentq`` against ``scipy.optimize.brentq`` at the same settings."""

    def test_find_root_brackets_match_scipy(self, monkeypatch):
        # every bracket find_root refines on the law grid, with H, Hbar and
        # H0 from analyze; the scan's values at the bracket ends are the
        # values scipy computes there
        port = analytic._brentq
        seen = []

        def checked(f, a, b, fa, fb):
            assert (fa, fb) == (f(a), f(b))
            root, froot = port(f, a, b, fa, fb)
            assert root.hex() == float(scipy_brentq(f, a, b)).hex(), (a, b)
            assert froot == f(root)
            seen.append((a, b))
            return root, froot

        monkeypatch.setattr(analytic, "_brentq", checked)
        for law in _law_grid:
            analyze(law)
        assert len(seen) >= 100

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        roots=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=7),
        scale=st.floats(0.01, 100.0),
        a=st.floats(-3.0, 3.0),
        width=st.floats(1e-6, 6.0),
    )
    def test_polynomials_match_scipy(self, roots, scale, a, width):
        def f(x):
            return scale * math.prod(x - r for r in roots)

        b = a + width
        assume(f(a) * f(b) < 0)
        iterates = ([], [])

        def logged(i):
            return lambda x: iterates[i].append(x) or f(x)

        # rounding noise at a multiple root can keep both from converging
        try:
            root, froot = analytic._brentq(logged(0), a, b, f(a), f(b))
            assert froot == f(root)
            got = root.hex()
        except RootBracketingError:
            got = "no convergence"
        try:
            want = float(scipy_brentq(logged(1), a, b)).hex()
        except RuntimeError:
            want = "no convergence"
        assert got == want
        # scipy first evaluates the two endpoints, which the port is handed
        assert iterates[1][:2] == [a, b]
        assert iterates[0] == iterates[1][2:]

    def test_zero_endpoint_is_returned(self):
        assert analytic._brentq(lambda x: x - 0.25, 0.25, 1.0, 0.0, 0.75) == (0.25, 0.0)
        assert analytic._brentq(lambda x: x - 1.0, 0.25, 1.0, -0.75, 0.0) == (1.0, 0.0)

    def test_same_sign_bracket_raises(self):
        for solve in (scipy_brentq, port_brentq):
            with pytest.raises(ValueError, match="different signs"):
                solve(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_value_raises(self):
        # at an endpoint, and at the first secant point
        for f in (
            lambda x: math.nan if x > 0.3 else -1.0,
            lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5,
        ):
            for solve in (scipy_brentq, port_brentq):
                with pytest.raises(ValueError, match="NaN"):
                    solve(f, 0.0, 1.0)

    def test_running_out_of_iterations_raises(self):
        # a step has no slope to interpolate, so every step bisects, and a
        # bracket 2e300 wide needs about 1000 halvings to reach 1e-15
        def step(x):
            return 1.0 if x > 0.125 else -1.0

        with pytest.raises(RuntimeError, match="converge"):
            scipy_brentq(step, -1e300, 1e300)
        with pytest.raises(RootBracketingError):
            port_brentq(step, -1e300, 1e300)


class TestRootEvaluations:
    @pytest.mark.parametrize("law", _law_grid[::3])
    def test_each_abscissa_evaluated_once(self, law):
        bundle = build_genfns(law)
        for f in (bundle.h, bundle.hbar, bundle.h0):
            calls = []

            def logged(x):
                calls.append(x)
                return f(x)

            find_root(logged)
            scan, scalars = calls[0], calls[1:]
            assert scan is _SCAN_GRID
            assert all(np.ndim(x) == 0 for x in scalars)
            assert len(set(scalars)) == len(scalars)
            assert not set(scalars) & set(_SCAN_GRID.tolist())

    def test_analytic_scans_hbar_once(self, tmp_path, monkeypatch):
        scans = []
        build = analytic.build_genfns

        def counted(source):
            bundle = build(source)

            def hbar(x):
                if np.ndim(x):
                    scans.append(x)
                return bundle.hbar(x)

            return dataclasses.replace(bundle, hbar=hbar)

        monkeypatch.setattr(analytic, "build_genfns", counted)
        argv = ["analytic", "--degree", "powerlaw", "--beta", "2.45", "--trans", "coupon", "--K", "3"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert len(scans) == 1
