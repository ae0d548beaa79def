import collections
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

from viralcm import analytic, populations, special
from viralcm.analytic import (
    _SCAN_GRID,
    _SCAN_HI,
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
    ROOT_RESIDUAL,
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

from golden.regenerate import DEGREES
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


def poisson_bernoulli_roots(lam, p):
    """60-digit (xi, xi_bar, xi0) of Poisson(lam) under Bernoulli(p), lam p > 1.

    The zeros in (0, 1) of H, Hbar and H0 are the fixed points
    xi = 1 - p + p e^(-lam (1 - xi)), xi_bar = e^(-lam p (1 - xi_bar)) and
    xi0 = e^(-lam (1 - xi0)).  x = -W(-c e^-c) / c, on the principal branch
    of Lambert's W, is the fixed point of x = e^(-c (1 - x)) below 1, and
    1 - xi = p (1 - xi_bar); each is checked against its own equation.
    """
    with mpmath.workdps(60):
        lam, p = mpmath.mpf(lam), mpmath.mpf(p)
        xi_bar, xi0 = (-mpmath.lambertw(-c * mpmath.exp(-c)).real / c for c in (lam * p, lam))
        xi = 1 - p + p * xi_bar
        for x, fixed in (
            (xi, 1 - p + p * mpmath.exp(-lam * (1 - xi))),
            (xi_bar, mpmath.exp(-lam * p * (1 - xi_bar))),
            (xi0, mpmath.exp(-lam * (1 - xi0))),
        ):
            assert abs(x - fixed) <= mpmath.mpf(10) ** -55 * x
        return xi, xi_bar, xi0


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
    @pytest.mark.parametrize("source", [PoissonDegree(2.0), BernoulliTransmission(0.5), None])
    def test_rejects_other_sources(self, source):
        with pytest.raises(TypeError) as exc:
            build_genfns(source)
        assert str(exc.value) == f"cannot build generating functions from {type(source).__name__}"

    def test_poisson_bernoulli_mixed_pgf(self):
        lam, p = 2.0, 0.8
        law = poisson_bernoulli(lam, p)
        bundle, mom = build_genfns(law), law.moments()
        for x in (0.0, 0.3, 0.7, 1.0):
            oracle = p * lam * x * math.exp(lam * (x - 1.0))
            m_dt_xd = mom.mean_d * x * x - (mom.mean_d - mom.mean_dt) * x - bundle.h(x)
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
            m_dt_xd = mom.mean_d * x * x - (mom.mean_d - mom.mean_dt) * x - bundle.h(x)
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
        m_dt_xd = mom.mean_d - (mom.mean_d - mom.mean_dt) - bundle.h(1.0)
        m_xdt = mom.mean_d - bundle.hbar(1.0)
        assert m_dt_xd == pytest.approx(mom.mean_dt, abs=1e-8)
        assert m_xdt == pytest.approx(mom.mean_dt + (mom.mean_d - mom.mean_dt), abs=1e-8)

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
            JointDegreeLaw(PowerLawDegree(2.05), BernoulliTransmission(0.3)),
            JointDegreeLaw(PowerLawDegree(4.45), NodePercolation(0.7)),
            JointDegreeLaw(PowerLawDegree(2.05), CouponCollector(6)),
            JointDegreeLaw(PowerLawDegree(4.45), CouponCollector(6)),
        ],
    )
    def test_array_calls_equal_scalar_calls(self, source):
        # find_root bisects the scan on scalar calls, wherever they land,
        # evaluates the tail above _SCAN_HI as one array, and refines with
        # scalar calls; all must agree bit for bit so that its bracket is the
        # one a full array scan finds.  The root functions are checked on
        # every scan abscissa, the pgfs on every 25th and the tail.
        bundle = build_genfns(source)
        every = np.concatenate([_SCAN_GRID, [0.0, 1.0]])
        some = np.concatenate([_SCAN_GRID[::25], _SCAN_GRID[-60:], [0.0, 1.0]])
        for f, xs in zip(
            (bundle.h, bundle.hbar, bundle.h0, bundle.g_d, bundle.g_dt), (every, every, every, some, some)
        ):
            values = f(xs)
            assert np.array_equal(values, [f(x) for x in xs.tolist()])
            assert np.array_equal(values, [f(x) for x in xs])

    def test_polylog_constants_built_once_per_order(self, monkeypatch):
        # an order's constants include Wood's coefficients zeta(s - k) / k!,
        # one array call of zeta; one analyze of a power-law coupon law uses
        # Li_s for s = beta - 1 ... beta + 2, scanned and refined many times
        special._order.cache_clear()
        built = collections.Counter()
        zeta_fn = special._sp.zeta

        def counted(s, *args):
            if np.ndim(s):
                built[float(np.asarray(s)[0])] += 1
            return zeta_fn(s, *args)

        monkeypatch.setattr(special._sp, "zeta", counted)
        beta = 2.45
        analyze(JointDegreeLaw(PowerLawDegree(beta), CouponCollector(3)))
        assert built == {beta + j: 1 for j in (-1.0, 0.0, 1.0, 2.0)}

    def test_coupon_zipf_bundle_vs_materialized(self):
        # Stirling-expansion coefficients against brute conditional sums:
        # a_k = P{D(t)=k} and b_k = E[D 1{D(t)=k}].  The oracle truncates
        # the degree support, dropping E[D 1{D > m}] from the receiver-
        # weighted term; its integral bound widens that tolerance.
        beta, K = 3.2, 3
        law = JointDegreeLaw(PowerLawDegree(beta), CouponCollector(K))
        bundle = build_genfns(law)
        a, b = populations._coupon_expansion(beta, K)[3:]
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
        with mpmath.workdps(50):
            zb = mpmath.zeta(beta)

            def moment(r):  # E[D^r] = zeta(beta - r) / zeta(beta)
                return mpmath.zeta(beta - r) / zb

            for K in range(7):
                a, b = populations._coupon_expansion(beta, K)[3:]
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
            populations._coupon_expansion(beta, 7)

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
        # the moments and closed forms of one law share one expansion, another
        # beta gets its own, and another model of the same K reuses it
        populations._coupon_expansion.cache_clear()
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
        assert rows == [(3, 3)] * 2

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

    @pytest.mark.parametrize(
        "degree,K",
        [(PoissonDegree(2.0), 10**7), (PoissonDegree(1e4), 1000), (EmpiricalDegree.from_degrees([0, 1, 3, 3, 8]), 10**8)],
        ids=["poisson2-K1e7", "poisson1e4-K1000", "empirical-K1e8"],
    )
    def test_materialized_coupon_K_beyond_work_budget_rejected_before_any_stirling_row(self, monkeypatch, degree, K):
        # the exact occupancy arithmetic of these laws runs for minutes, so
        # its estimate is refused before any row of {K over k} is started
        def no_row(*args):
            raise AssertionError("a Stirling row was built for a rejected K")

        monkeypatch.setattr(populations, "stirling2_row", no_row)
        law = JointDegreeLaw(degree, CouponCollector(K))
        largest = int(degree.atoms()[0].max())
        message = (
            rf"^K: {K} needs about [0-9.e+]+ bit operations of exact occupancy arithmetic on degrees "
            rf"up to {largest}, more than the 4e\+09 allowed$"
        )
        for call in (build_genfns, analyze):
            with pytest.raises(ValueError, match=message):
                call(law)

    def test_coupon_conditional_pmf_checks_its_work(self, monkeypatch):
        # one degree's pmf is held to the same budget: 2**(10**7) and its
        # quotients are refused, while one friend needs no arithmetic at all
        coupon = CouponCollector(10**7)
        assert coupon.conditional_pmf(1) == DiscretePmf(np.array([1]), np.array([1.0]))
        monkeypatch.setattr(populations, "stirling2_row", lambda *a: pytest.fail("a row was started"))
        with pytest.raises(ValueError, match=rf"^K: {10**7} needs about .* on degrees up to 2, more than"):
            coupon.conditional_pmf(2)

    @pytest.mark.parametrize(
        "degree", [PoissonDegree(2.0), EmpiricalDegree.from_degrees(DEGREES)], ids=["poisson2", "golden-empirical"]
    )
    def test_coupon_closed_forms_build_one_row_and_keep_no_state(self, monkeypatch, degree):
        # the closed forms on atoms build one row of {K over k}, for k up to
        # min(K, largest atom), and no pmf per atom; nothing is kept but K
        K, largest = 25, int(degree.atoms()[0].max())
        coupon, rows, pmfs = CouponCollector(K), [], []
        monkeypatch.setattr(populations, "stirling2_row", lambda *a: rows.append(a) or stirling2_row(*a))
        monkeypatch.setattr(populations, "DiscretePmf", lambda *a: pmfs.append(a) or DiscretePmf(*a))
        coupon.closed_forms(degree)
        assert rows == [(K, min(K, largest))]
        assert pmfs == []
        law = JointDegreeLaw(degree, coupon)
        coupon.conditional_pmf(largest)
        law.moments()
        build_genfns(law)
        analyze(law)
        assert vars(coupon) == {"K": K}

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
        # negative up to _SCAN_HI, then +1 for 1 - x in (1e-10, 1e-8) and -1
        # beyond: two sign changes in the tail, both above the noise rule
        def f(x):
            u = 1.0 - np.asarray(x)
            return np.where((u > 1e-10) & (u < 1e-8), 1.0, -1.0)

        with pytest.raises(RootBracketingError, match="^Hbar zero not unique: 2 sign changes on the root scan$"):
            find_root(f, "Hbar")

    def test_exact_zero_on_a_scan_abscissa_is_the_root(self):
        # as in _refine: a value of exactly 0 ends the search there, whether
        # the bisection lands on it or it is an end of the prefix
        for i in (0, 600, int(np.searchsorted(_SCAN_GRID, _SCAN_HI))):
            g = float(_SCAN_GRID[i])
            assert find_root(lambda x: x - g, "H") == g

    def test_bracket_across_the_prefix_end(self, monkeypatch):
        # a zero between _SCAN_HI and the first tail abscissa: both prefix
        # ends are negative, so the tail is evaluated, and _refine gets the
        # prefix's upper end and the tail's first point with their values
        handed = []
        refine = analytic._refine

        def logged(f, kind, x, fx):
            handed.append((list(x), list(fx)))
            return refine(f, kind, x, fx)

        monkeypatch.setattr(analytic, "_refine", logged)
        z = 1.0 - 9e-7
        root = find_root(lambda x: x - z, "H")
        first = float(_SCAN_GRID[_SCAN_GRID > _SCAN_HI][0])
        assert handed == [([_SCAN_HI, first], [_SCAN_HI - z, first - z])]
        assert root == z

    @pytest.mark.parametrize(
        "nan_on",
        [(0.0, 1e-50), (0.4, 0.5), (_SCAN_HI, 1.0)],
        ids=["prefix-end", "first-midpoint", "tail"],
    )
    def test_nan_on_the_scan_raises_naming_the_function(self, nan_on):
        # a NaN at an evaluated abscissa is no sign: it raises ValueError
        # naming the function, as _refine does.  The tail case is negative
        # throughout the prefix, so the tail is evaluated
        lo, hi = nan_on
        shift = 0.5 if hi < 1.0 else 2.0

        def f(x):
            x = np.asarray(x)
            return np.where((lo < x) & (x <= hi), math.nan, x - shift)

        with pytest.raises(ValueError, match=r"^H is NaN at \S+ on the root scan$"):
            find_root(f, "H")

    def test_step_function_refinement_stalls(self):
        # the bracket closes on two adjacent floats around 0.3 where the
        # values are -1 and +1: a sign change that is no zero
        def step(x):
            return np.where(np.asarray(x) < 0.3, -1.0, 1.0)

        with pytest.raises(RootBracketingError, match=r"^H refinement stalled: residual 1 exceeds 1e-12$"):
            find_root(step, "H")

    def test_unbracketed_giant_zero_raises_for_a_law_only(self, monkeypatch):
        # when the giant condition holds but no H0 zero is found, a law
        # raises and a sample reports xi0 absent
        scan = analytic.find_root
        monkeypatch.setattr(analytic, "find_root", lambda f, kind="": None if kind == "H0" else scan(f, kind))
        law = poisson_bernoulli(2.0, 0.8)
        with pytest.raises(RootBracketingError, match=r"^giant condition holds \(margin 2\) but no zero was bracketed$"):
            analyze(law)
        res = analyze(law.sample(2000, seed=1))
        assert res.giant_condition and res.xi is not None
        assert res.xi0 is None and res.alpha0 == 0.0

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

    @pytest.mark.parametrize("lam", [25.0, 40.0, 60.0, 100.0, 200.0])
    def test_dense_poisson_giant_root_below_1e_9(self, tmp_path, lam):
        # xi0 = exp(-lam (1 - xi0)): 1.4e-11 at lam = 25, 3.7e-44 at 100,
        # 1.4e-87 at 200; xi_bar solves the same with lam p, p = 0.8
        assert main(["analytic", "--lambda", repr(lam), "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "analysis.json").read_text())["result"]
        _, xi_bar, xi0 = poisson_bernoulli_roots(lam, 0.8)
        assert 0.0 < result["xi0"] < 1e-9
        assert result["xi0"] == pytest.approx(float(xi0), rel=1e-14, abs=0)
        assert result["xi_bar"] == pytest.approx(float(xi_bar), rel=1e-14, abs=0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(log_lam=st.floats(math.log(1.5), math.log(200.0)), u=st.floats(0.0, 1.0))
    def test_poisson_bernoulli_roots_match_mpmath(self, log_lam, u):
        # lam log-uniform in [1.5, 200], p uniform in [1.2 p_c, 1], p_c = 1 / lam.
        # xi gets an absolute 2**-52 beside its relative 1e-13: H's coefficient
        # E[D(r)] = E[D] - E[D(t)] rounds 1 - p by up to 2**-53, which moves
        # a zero near 1 - p by as much.  Each fraction 1 - G(root) is checked
        # at the root found: G' reaches lam there, so a root's last-bit noise
        # alone moves a fraction by more than 1e-14 near p_c at large lam.
        lam = math.exp(log_lam)
        p = min(1.0, 1.2 / lam + u * (1.0 - 1.2 / lam))
        res = analyze(poisson_bernoulli(lam, p))
        xi, xi_bar, xi0 = poisson_bernoulli_roots(lam, p)
        assert res.xi == pytest.approx(float(xi), rel=1e-13, abs=2.0**-52)
        assert res.xi_bar == pytest.approx(float(xi_bar), rel=1e-13, abs=0)
        assert res.xi0 == pytest.approx(float(xi0), rel=1e-13, abs=0)
        with mpmath.workdps(60):
            alphas = [
                1 - mpmath.exp(c * (mpmath.mpf(root) - 1))
                for c, root in ((lam, res.xi), (mpmath.mpf(lam) * p, res.xi_bar), (lam, res.xi0))
            ]
        for got, want in zip((res.alpha, res.alpha_bar, res.alpha0), alphas):
            assert abs(got - float(want)) <= 1e-14

    @pytest.mark.parametrize(
        "law",
        [
            JointDegreeLaw(EmpiricalDegree.from_degrees([3, 3, 4, 6, 9]), BernoulliTransmission(0.7)),
            JointDegreeLaw(EmpiricalDegree.from_degrees([3, 3, 4, 6, 9]), NodePercolation(0.7)),
            poisson_bernoulli(2.0, 1.0),
            JointDegreeLaw(PowerLawDegree(2.45), BernoulliTransmission(1.0)),
            JointDegreeLaw(PowerLawDegree(3.2), NodePercolation(1.0)),
        ],
        ids=["min3-bernoulli", "min3-nodeperc", "poisson-p1", "powerlaw2.45-p1", "powerlaw3.2-nodeperc1"],
    )
    def test_low_decades_have_no_exact_zero(self, law):
        # an exact 0 at a scan abscissa ends its bracket there: the decades
        # down to 1e-100 keep x^2 normal, so no H underflows to 0 on them
        low = _SCAN_GRID[_SCAN_GRID < 1e-9]
        assert low[0] == 1e-100 and low.size == 91
        bundle = build_genfns(law)
        for f in (bundle.h, bundle.hbar, bundle.h0):
            assert np.all(f(low) != 0.0)

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

    def test_full_transmission_above_degree_two_has_no_h_zero(self):
        # with t = d >= 2 on every row, H = sum d n_d (x^2 - x^d) / n has no
        # x term and is positive inside (0, 1): its zero is x = 0, not a
        # point that the scan can bracket, although the viral condition holds
        d = 2 + np.random.default_rng(4).poisson(2.0, 5000)
        res = analyze(DegreeSample(d, d))
        assert res.viral_condition
        assert res.xi is None and res.xi_bar is None

    def test_no_degree_one_puts_the_giant_zero_at_the_origin(self, monkeypatch):
        # H0(x)/x is concave and tends to -P{D=1} at 0: with no member of
        # degree 1 it is positive inside (0, 1), so xi0 = 0 and alpha0 is
        # the share of members with a friend, with no H0 scan at all
        scan = analytic.find_root
        monkeypatch.setattr(analytic, "find_root", lambda f, kind="": pytest.fail() if kind == "H0" else scan(f, kind))
        degrees = [0, 3, 3, 4]
        law = JointDegreeLaw(EmpiricalDegree.from_degrees(degrees), BernoulliTransmission(0.8))
        d = np.repeat(degrees, 500)
        for source in (law, DegreeSample(d, d), DegreeSample(d, d // 2)):
            res = analyze(source)
            assert res.giant_condition and res.margin_giant == 3.5
            assert res.xi0 == 0.0 and res.alpha0 == 0.75

    def test_dense_poisson_giant_zero_underflows_to_zero(self):
        # P{D=1} = 1000 e^-1000 underflows to 0, and so does xi0 ~ e^-1000
        res = analyze(JointDegreeLaw(PoissonDegree(1000.0), CouponCollector(3)))
        assert res.viral_condition and res.giant_condition
        assert res.xi0 == 0.0 and res.alpha0 == 1.0
        assert 0.0 < res.xi_bar < 1e-8 and 0.0 < res.xi < 1.0

    def test_node_percolation_roots_within_two_ulps(self):
        # under node percolation every row has t = 0 or t = d, so H and Hbar
        # are the same function; H is summed over the distinct d and Hbar
        # over the distinct t, so their zeros may differ by rounding
        law = JointDegreeLaw(PoissonDegree(3.0), NodePercolation(0.7))
        for seed in range(30):
            res = analyze(law.sample(2000, seed=seed))
            assert res.xi is not None
            assert abs(res.xi - res.xi_bar) <= 2 * np.spacing(res.xi), seed


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
    st.integers(0, 40).map(CouponCollector),
)


def exact_sample_bundle(d, t, x):
    """Oracle: H, Hbar, H0, G_D, G_Dt of a sample at x, summed row by row
    at 50 digits from the definitions (mpmath keeps x**d for d = 2**62)."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        sums = [mpmath.mpf(0)] * 5
        for di, ti in zip(d, t):
            row = (
                di * x**2 - (di - ti) * x - ti * x**di,
                di * x**2 - ti * x**ti - (di - ti) * x ** (ti + 1),
                di * x**2 - di * x**di,
                x**di,
                x**ti,
            )
            sums = [a + b for a, b in zip(sums, row)]
        return [float(v / len(d)) for v in sums]


@st.composite
def _pair_tables(draw):
    """2-200 rows with t <= d <= 40: t drawn per row, or t = d, or t = 0 on every row."""
    d = draw(st.lists(st.integers(0, 40), min_size=2, max_size=200))
    kind = draw(st.sampled_from(["drawn", "t = d", "t = 0"]))
    if kind == "t = d":
        return d, d
    if kind == "t = 0":
        return d, [0] * len(d)
    return d, [draw(st.integers(0, k)) for k in d]


_BUNDLE_NAMES = ("h", "hbar", "h0", "g_d", "g_dt")


class TestBundleOracle:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(degree=_degrees, tr=_transmissions, x=st.floats(0.0, 1.0))
    def test_bundle_matches_definition(self, degree, tr, x):
        law = JointDegreeLaw(degree, tr)
        bundle = build_genfns(law)
        for name, oracle in zip(_BUNDLE_NAMES, brute_bundle(law, x)):
            assert getattr(bundle, name)(x) == pytest.approx(oracle, abs=1e-10), name

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(table=_pair_tables(), x=st.floats(0.0, 1.0))
    def test_sample_bundle_matches_rows(self, table, x):
        # each function, summed over the distinct d or t, against its
        # definition summed over the rows
        d, t = table
        bundle = build_genfns(DegreeSample(np.array(d), np.array(t)))
        for name, oracle in zip(_BUNDLE_NAMES, exact_sample_bundle(d, t, x)):
            assert getattr(bundle, name)(x) == pytest.approx(oracle, rel=1e-13, abs=1e-14), name

    def test_huge_degrees_do_not_wrap(self):
        # 3 * 2**62 overflows int64: the group sums are formed in floats
        d = [2**62] * 3 + [0, 1, 2, 5]
        t = [0] * len(d)
        bundle = build_genfns(DegreeSample(np.array(d), np.array(t)))
        for name in ("h", "hbar", "h0"):
            assert getattr(bundle, name)(1.0) == 0.0, name
        for x in (0.25, 0.5, 0.999):
            for name, oracle in zip(_BUNDLE_NAMES, exact_sample_bundle(d, t, x)):
                assert getattr(bundle, name)(x) == pytest.approx(oracle, rel=1e-13, abs=1e-14), name



def coupon_polynomials(atoms, K):
    """Coefficients, lowest power first, of H, Hbar, H0, G_D and G_Dt for K
    coupons on the degree law ``atoms`` ((d, P{D=d}) pairs), summed at 50
    digits over the (d, t) rows of their definitions (module docstring of
    ``viralcm.analytic``).  P{D(t)=t | D=d} = C(d, t) surj(K, t) / d**K,
    with surj(K, t), the maps of K picks onto t friends, by
    inclusion-exclusion."""
    with mpmath.workdps(50):
        top = max(d for d, _ in atoms) + 2
        h, hbar, h0, g_d, g_dt = ([mpmath.mpf(0)] * top for _ in range(5))
        for d, wd in atoms:
            for t in range(min(d, K) + 1):
                surj = sum((-1) ** i * math.comb(t, i) * (t - i) ** K for i in range(t + 1))
                w = wd * (mpmath.mpf(math.comb(d, t) * surj) / mpmath.mpf(d) ** K if d else 1)
                for poly in (h, hbar, h0):
                    poly[2] += w * d
                h[1] -= w * (d - t)
                h[d] -= w * t
                hbar[t] -= w * t
                hbar[t + 1] -= w * (d - t)
                h0[d] -= w * d
                g_d[d] += w
                g_dt[t] += w
    return h, hbar, h0, g_d, g_dt


def poisson_atoms(lam):
    """(d, P{D=d}) of Poisson(lam) at 50 digits, up to the first atom below 1e-50 past the mean."""
    with mpmath.workdps(50):
        atoms, w = [], mpmath.exp(-mpmath.mpf(lam))
        while len(atoms) <= lam or w >= mpmath.mpf(10) ** -50:
            atoms.append((len(atoms), w))
            w = w * lam / len(atoms)
    return atoms


def empirical_atoms(degrees):
    """(d, P{D=d}) of a degree list at 50 digits."""
    counts = collections.Counter(degrees)
    with mpmath.workdps(50):
        return [(d, mpmath.mpf(c) / len(degrees)) for d, c in sorted(counts.items())]


class TestCouponOnAtoms:
    """The coupon model on a law with atoms goes through its closed forms:
    polynomials in x whose coefficients are summed over the atoms."""

    @pytest.mark.parametrize(
        "degree",
        [PoissonDegree(2.0), PoissonDegree(3.5), EmpiricalDegree.from_degrees(DEGREES)],
        ids=["poisson2", "poisson3.5", "golden-empirical"],
    )
    def test_degree_law_quantities_shared_by_every_model(self, degree):
        # xi0, alpha0 and G_D belong to the degree law alone, so every
        # transmission model gives the same floats; alpha is 1 - G_D(xi)
        laws = [
            JointDegreeLaw(degree, tr)
            for tr in (BernoulliTransmission(0.8), NodePercolation(0.8), CouponCollector(3), CouponCollector(25))
        ]
        results = [analyze(law) for law in laws]
        g_d = [build_genfns(law).g_d for law in laws]
        for res, g in zip(results, g_d):
            assert (res.xi0, res.alpha0) == (results[0].xi0, results[0].alpha0)
            assert np.array_equal(g(_SCAN_GRID), g_d[0](_SCAN_GRID))
            assert res.alpha == 1.0 - g_d[0](res.xi)

    @pytest.mark.parametrize(
        "atoms,degree,K",
        [
            (poisson_atoms(2), PoissonDegree(2.0), 3),
            (poisson_atoms(2), PoissonDegree(2.0), 25),
            (poisson_atoms(5), PoissonDegree(5.0), 3),
            (empirical_atoms(DEGREES), EmpiricalDegree.from_degrees(DEGREES), 3),
            (empirical_atoms(DEGREES), EmpiricalDegree.from_degrees(DEGREES), 25),
        ],
        ids=["poisson2-K3", "poisson2-K25", "poisson5-K3", "empirical-K3", "empirical-K25"],
    )
    def test_fractions_match_mpmath_sums_over_rows(self, atoms, degree, K):
        # each root of the 50-digit polynomials is refined inside a bracket
        # of +-1e-9 around the returned one, where it must change sign
        res = analyze(JointDegreeLaw(degree, CouponCollector(K)))
        h, hbar, h0, g_d, g_dt = coupon_polynomials(atoms, K)
        with mpmath.workdps(50):
            for root, f, g, fraction in (
                (res.xi, h, g_d, res.alpha),
                (res.xi_bar, hbar, g_dt, res.alpha_bar),
                (res.xi0, h0, g_d, res.alpha0),
            ):

                def poly(x, c=f[::-1]):
                    return mpmath.polyval(c, x)

                lo, hi = mpmath.mpf(root) - 1e-9, mpmath.mpf(root) + 1e-9
                assert poly(lo) * poly(hi) < 0
                want = mpmath.findroot(poly, (lo, hi), solver="illinois")
                assert abs(root - want) <= 1e-13
                assert abs(fraction - (1 - mpmath.polyval(g[::-1], want))) <= 1e-13

    @pytest.mark.parametrize(
        "degree,K",
        [
            (PoissonDegree(2.0), 20_000),
            (EmpiricalDegree.from_degrees(DEGREES), 3),
            (EmpiricalDegree.from_degrees(DEGREES), 25),
        ],
        ids=["poisson2-K20000", "empirical-K3", "empirical-K25"],
    )
    def test_polynomial_degree_is_min_of_K_and_largest_atom(self, monkeypatch, degree, K):
        # D(t) <= min(D, K): coefficients beyond the largest atom would all be 0
        lengths = []
        horner = populations._horner
        monkeypatch.setattr(populations, "_horner", lambda x, c: lengths.append(len(c)) or horner(x, c))
        g_dt, hbar = CouponCollector(K).closed_forms(degree)[1:]
        g_dt(0.5)
        hbar(0.5)
        assert lengths == [min(K, int(degree.atoms()[0].max())) + 1] * 3

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


def refined(f, a, b, kind="H", refine=analytic._refine):
    """``refine`` (``_refine`` as imported) on [a, b] handed f(a) and f(b),
    with its steps logged.

    Checks that each step lies strictly inside the bracket of its time, and
    returns (root, f(root), final bracket, number of steps).  The final end
    of each sign is the last point of that sign: a or b, or a step.
    """
    ends = [a, b]
    values = [f(a), f(b)]
    steps = []

    def logged(x):
        assert ends[0] < x < ends[1]
        v = f(x)
        steps.append(x)
        if v != 0:
            ends[int((v < 0) != (values[0] < 0))] = x
        return v

    root, froot = refine(logged, kind, [a, b], values)
    return root, froot, ends, len(steps)


def assert_adjacent_bracket(f, root, froot, ends):
    """The refinement's contract: a value of exactly 0, or adjacent floats
    whose values have opposite signs; the end with the smaller |f| returned."""
    assert froot == f(root)
    if froot == 0:
        return
    lo, hi = ends
    assert math.nextafter(lo, math.inf) == hi
    assert (f(lo) < 0) != (f(hi) < 0)
    assert root in ends
    assert abs(froot) == min(abs(f(lo)), abs(f(hi)))


class TestRefine:
    """``_refine``: Illinois steps inside the bracket, down to adjacent floats."""

    def test_analyze_brackets_end_on_adjacent_floats(self, monkeypatch):
        # every bracket find_root refines on the law grid, with H, Hbar and
        # H0 from analyze, handed the scan's values at its ends
        seen = []
        refine = analytic._refine

        def checked(f, kind, x, fx):
            assert fx == [f(x[0]), f(x[1])]
            root, froot, ends, steps = refined(f, x[0], x[1], kind, refine)
            assert_adjacent_bracket(f, root, froot, ends)
            assert steps <= 248
            seen.append(steps)
            return root, froot

        monkeypatch.setattr(analytic, "_refine", checked)
        for law in _law_grid:
            analyze(law)
        assert len(seen) >= 100
        # 752 steps with the Illinois rule; 1 042 without it (plain regula falsi)
        assert sum(seen) <= 800

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        roots=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=7),
        scale=st.floats(0.01, 100.0),
        a=st.floats(-3.0, 3.0),
        width=st.floats(1e-6, 6.0),
    )
    def test_polynomials_end_on_adjacent_floats(self, roots, scale, a, width):
        def f(x):
            return scale * math.prod(x - r for r in roots)

        b = a + width
        assume(f(a) * f(b) < 0)
        root, froot, ends, steps = refined(f, a, b)
        assert_adjacent_bracket(f, root, froot, ends)
        assert steps <= 256

    def test_zero_value_is_returned(self):
        # at a bracket end, with no step taken, and at the first secant point
        assert refined(lambda x: x - 0.25, 0.25, 1.0)[:2] == (0.25, 0.0)
        assert refined(lambda x: x - 1.0, 0.25, 1.0)[:2] == (1.0, 0.0)
        assert refined(lambda x: x - 0.5, 0.0, 1.0) == (0.5, 0.0, [0.0, 1.0], 1)

    def test_nan_value_raises_naming_the_function(self):
        # at a bracket end, and at the first secant point
        for f in (
            lambda x: math.nan if x > 0.3 else -1.0,
            lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5,
        ):
            with pytest.raises(ValueError, match="Hbar is NaN"):
                analytic._refine(f, "Hbar", [0.0, 1.0], [f(0.0), f(1.0)])

    @pytest.mark.parametrize(
        "f,a,b",
        [
            (lambda x: 1.0 if x > 0.125 else -1.0, -1e300, 1e300),
            (lambda x: (x - 0.3) ** 3, 0.0, 1.0),
            (lambda x: 1e300 if x > 0.5 else -1.0, 0.0, 1.0),
            (lambda x: x - 1e307, -1.7e308, 1.7e308),
        ],
        ids=["step", "flat-cubic", "lopsided-step", "overflowing-width"],
    )
    def test_hard_brackets_stop_within_the_bound(self, f, a, b):
        # a step gives the secant no slope; the cubic is flat at its zero;
        # the lopsided step keeps plain Illinois steps near 0 for about a
        # thousand halvings of the large end's weight; the last bracket's
        # width overflows.  Forced bisections bound every bracket by 256.
        root, froot, ends, steps = refined(f, a, b)
        assert_adjacent_bracket(f, root, froot, ends)
        assert steps <= 256


def full_scan_root(f, kind=""):
    """Reference root search: every scan abscissa in one array call, the
    noise rule above _SCAN_HI, one sign change refined.  Wherever the signs
    are monotone, ``find_root`` must hand ``_refine`` the same bracket and
    give the same root, None or error message."""
    fx = np.asarray(f(_SCAN_GRID))
    kept = np.flatnonzero((_SCAN_GRID <= _SCAN_HI) | (np.abs(fx) > ROOT_RESIDUAL))
    sign = np.sign(fx[kept])
    flips = np.flatnonzero(sign[1:] != sign[:-1])
    if flips.size == 0:
        return None
    if flips.size > 1:
        raise RootBracketingError(f"{kind} zero not unique: {flips.size} sign changes on the root scan")
    ends = kept[flips[0] : flips[0] + 2]
    root, froot = analytic._refine(f, kind, _SCAN_GRID[ends].tolist(), fx[ends].tolist())
    if abs(froot) > ROOT_RESIDUAL:
        raise RootBracketingError(f"{kind} refinement stalled: residual {abs(froot):.3g} exceeds {ROOT_RESIDUAL:.3g}")
    return root


def search_outcome(search, f, kind):
    try:
        return search(f, kind)
    except (RootBracketingError, ValueError) as exc:
        return type(exc), str(exc)


def near_critical_powerlaws():
    for beta in (3.05, 3.1, 3.2, 3.3):
        p_c = bernoulli_threshold(PowerLawDegree(beta))
        for factor in (1.001, 1.01, 1.1, 1.5):
            for tr in (BernoulliTransmission, NodePercolation):
                yield JointDegreeLaw(PowerLawDegree(beta), tr(factor * p_c))


class TestRootEvaluations:
    @pytest.mark.parametrize("law", _law_grid[::3])
    def test_each_abscissa_evaluated_once(self, law):
        # the scan (scalar calls, and at most one array call, on the tail)
        # and the refinement evaluate distinct abscissae; the scan's lie on
        # _SCAN_GRID, so no refinement point repeats a scan point
        tail = _SCAN_GRID[_SCAN_GRID > _SCAN_HI]
        bundle = build_genfns(law)
        for f in (bundle.h, bundle.hbar, bundle.h0):
            calls = []

            def logged(x):
                calls.append(x)
                return f(x)

            find_root(logged)
            arrays = [x for x in calls if np.ndim(x)]
            assert len(arrays) <= 1 and all(x.tolist() == tail.tolist() for x in arrays)
            abscissae = [y for x in calls for y in np.ravel(x).tolist()]
            assert len(set(abscissae)) == len(abscissae)

    def test_prefix_bracket_costs_13_scalar_calls(self, monkeypatch):
        # a sign change at or below _SCAN_HI is bracketed by the prefix's two
        # ends and at most 11 midpoints (1 093 index steps), with no array call
        scans = []
        refine = analytic._refine

        def before_refine(f, kind, x, fx):
            scans.append((x[1], list(calls)))
            return refine(f, kind, x, fx)

        monkeypatch.setattr(analytic, "_refine", before_refine)
        for law in _law_grid:
            bundle = build_genfns(law)
            for f in (bundle.h, bundle.hbar, bundle.h0):
                calls = []
                find_root(lambda x: calls.append(x) or f(x))
        prefix = [c for hi, c in scans if hi <= _SCAN_HI]
        assert len(prefix) >= 100
        assert all(len(c) <= 13 and all(np.ndim(x) == 0 for x in c) for c in prefix)

    def test_bracket_matches_the_full_scan(self, monkeypatch):
        # same bracket and end values handed to _refine, and so the same
        # root, None or error message, as the reference full scan on H, Hbar
        # and H0 of every law and sample here
        brackets = []
        refine = analytic._refine

        def logged(f, kind, x, fx):
            brackets.append((list(x), list(fx)))
            return refine(f, kind, x, fx)

        monkeypatch.setattr(analytic, "_refine", logged)
        sources = [
            *_law_grid,
            *near_critical_powerlaws(),
            *(poisson_bernoulli(lam, 0.8) for lam in (1.2, 2.0, 5.0, 25.0, 60.0, 150.0, 200.0)),
            *(JointDegreeLaw(PowerLawDegree(2.45), BernoulliTransmission(0.3)).sample(2000, seed=s) for s in (1, 2)),
            *(poisson_bernoulli(3.0, 0.6).sample(2000, seed=s) for s in (1, 2)),
            JointDegreeLaw(PoissonDegree(2.0), CouponCollector(3)).sample(2000, seed=1),
            # H's refinement stalls at a residual of 2.3e-12 (E[D] = 6.1e5)
            JointDegreeLaw(PowerLawDegree(2.000001), BernoulliTransmission(0.8)),
        ]
        outcomes = collections.Counter()
        for source in sources:
            bundle = build_genfns(source)
            for kind, f in (("H", bundle.h), ("Hbar", bundle.hbar), ("H0", bundle.h0)):
                want = search_outcome(full_scan_root, f, kind)
                want_brackets = brackets[:]
                brackets.clear()
                assert search_outcome(find_root, f, kind) == want, (source, kind)
                assert brackets == want_brackets, (source, kind)
                brackets.clear()
                outcomes[type(want)] += 1
        assert outcomes[float] >= 150 and outcomes[type(None)] >= 50 and outcomes[tuple] >= 1, outcomes

    def test_refinement_calls_on_benchmark_laws(self, monkeypatch):
        # the four laws of the analytic-powerlaw benchmark workload: 12
        # brackets refined in 73 scalar calls
        calls = []
        refine = analytic._refine

        def counted(f, kind, x, fx):
            return refine(lambda c: calls.append(c) or f(c), kind, x, fx)

        monkeypatch.setattr(analytic, "_refine", counted)
        for tr in (BernoulliTransmission(0.1), BernoulliTransmission(0.3), NodePercolation(0.3), CouponCollector(3)):
            analyze(JointDegreeLaw(PowerLawDegree(2.45), tr))
        assert len(calls) <= 80

    def test_analytic_scans_hbar_once(self, tmp_path, monkeypatch):
        # one search for Hbar's root, whose abscissae are all distinct
        searches, abscissae = [], []
        build, search = analytic.build_genfns, analytic.find_root

        def counted(source):
            bundle = build(source)

            def hbar(x):
                abscissae.extend(np.ravel(x).tolist())
                return bundle.hbar(x)

            return dataclasses.replace(bundle, hbar=hbar)

        def logged(f, kind=""):
            searches.append(kind)
            return search(f, kind)

        monkeypatch.setattr(analytic, "build_genfns", counted)
        monkeypatch.setattr(analytic, "find_root", logged)
        argv = ["analytic", "--degree", "powerlaw", "--beta", "2.45", "--trans", "coupon", "--K", "3"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert searches.count("Hbar") == 1
        assert abscissae and len(set(abscissae)) == len(abscissae)
