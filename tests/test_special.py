import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from viralcm.populations import EmpiricalDegree
from viralcm.special import (
    _WOOD_SWITCH,
    DiscretePmf,
    poisson_pmf,
    polylog,
    stirling2_row,
    weighted_sum,
    zeta,
    zipf_pmf,
)


def brute_polylog(beta, x, terms=10**6):
    """Independent oracle: plain partial sum plus an integral tail estimate."""
    k = np.arange(1, terms + 1, dtype=np.float64)
    partial = float(np.sum(k ** (-beta) * x**k))
    # tail after `terms` is below the geometric bound; negligible for x <= 0.9
    tail_bound = (terms + 1.0) ** (-beta) * x ** (terms + 1) / (1.0 - x) if x < 1 else 0.0
    return partial, tail_bound


def brute_stirling2(n, k, cache={}):
    """Independent oracle: the recurrence {n,k} = {n-1,k-1} + k {n-1,k}."""
    if k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    if (n, k) not in cache:
        cache[(n, k)] = brute_stirling2(n - 1, k - 1) + k * brute_stirling2(n - 1, k)
    return cache[(n, k)]


class TestZeta:
    def test_classical_value(self):
        assert zeta(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)

    def test_normalizes_power_law_weights(self):
        beta = 2.45
        v = zeta(beta)
        k = np.arange(1, 10**6 + 1, dtype=np.float64)
        partial = float(np.sum(k ** (-beta)))
        m = 1e6
        tail = m ** (1 - beta) / (beta - 1) + 0.5 * m ** (-beta)  # Euler-Maclaurin
        assert (partial + tail) / v == pytest.approx(1.0, abs=1e-8)

    def test_zipf_mean_near_two_at_2_45(self):
        # mean degree quoted as ~2 for the beta = 2.45 example
        mean = zeta(1.45) / zeta(2.45)
        assert mean == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("bad", [1.0, 0.5, -3.0, 1.0000005])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            zeta(bad)


class TestPolylog:
    def test_empty_sum_at_zero(self):
        assert polylog(2.45, 0.0) == 0.0

    def test_equals_zeta_at_one(self):
        assert polylog(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)

    def test_against_direct_summation(self):
        val = polylog(2.45, 0.5)
        partial, tail = brute_polylog(2.45, 0.5)
        assert tail < 1e-15
        assert val == pytest.approx(partial, abs=1e-10)

    @pytest.mark.parametrize("beta", [1.15, 1.45, 2.0, 2.45, 3.2])
    def test_monotone_in_x(self, beta):
        xs = np.linspace(0.0, 1.0, 41)
        vals = [polylog(beta, float(x)) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_accurate_near_one(self):
        # Wood's expansion against a 2e5-term direct sum with its tail bound
        partial, tail = brute_polylog(1.45, 0.999, terms=200_000)
        assert polylog(1.45, 0.999) == pytest.approx(partial + tail / 2, abs=1e-9)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            polylog(2.0, bad)

    def test_beta_at_most_one_rejected_at_x_one(self):
        with pytest.raises(ValueError):
            polylog(0.9, 1.0)


ORACLE_BETAS = [1.2, 1.45, 2.0, 2.2, 2.45, 3.0, 3.2, 4.45, 5.45]
ORACLE_BETAS += [2 - 1e-5, 2 + 1e-5, 3 - 1e-8, 3 + 1e-8]
ORACLE_XS = [
    1e-3,
    0.2,
    math.exp(-1.0),
    float(np.nextafter(_WOOD_SWITCH, 0.0)),
    _WOOD_SWITCH,
    float(np.nextafter(_WOOD_SWITCH, 1.0)),
    0.9,
    1 - 1e-3,
    1 - 1e-6,
    1 - 1e-9,
    1 - 1e-12,
]


class TestPolylogOracle:
    @pytest.mark.parametrize("beta", ORACLE_BETAS)
    def test_relative_error_against_mpmath(self, beta):
        # Both sides of the direct-series/Wood switch, integer orders (the
        # harmonic-number term) and orders within 1e-5 and 1e-8 of an
        # integer (the paired Gamma and zeta poles), up to x = 1 - 1e-12.
        with mpmath.workdps(40):
            for x in ORACLE_XS:
                ref = mpmath.polylog(beta, mpmath.mpf(x))
                rel = abs((mpmath.mpf(polylog(beta, x)) - ref) / ref)
                assert rel <= 4e-15, (beta, x, float(rel))

    @pytest.mark.parametrize("beta", ORACLE_BETAS)
    def test_array_equals_scalar_bit_for_bit(self, beta):
        xs = np.array(ORACLE_XS + [0.0, 1.0])
        got = polylog(beta, xs[None, :])
        assert got.shape == (1, xs.size)
        assert np.array_equal(got[0], [polylog(beta, float(x)) for x in xs])
        assert isinstance(polylog(beta, 0.7), float)

    def test_array_domain_error(self):
        with pytest.raises(ValueError):
            polylog(2.0, np.array([0.5, np.nan]))


class TestWeightedSum:
    def test_blocks_match_dot_and_scalar_calls(self):
        # 3000 weights split a 400-point grid into blocks of 87 abscissae
        rng = np.random.default_rng(0)
        k = rng.integers(0, 60, 3000).astype(np.float64)
        w = rng.random(3000)
        xs = np.linspace(0.0, 1.0, 400)
        got = weighted_sum(xs, w, lambda col: col**k)
        assert np.allclose(got, [np.dot(w, x**k) for x in xs], rtol=1e-13, atol=0.0)
        assert np.array_equal(got, [weighted_sum(float(x), w, lambda col: col**k) for x in xs])
        assert isinstance(weighted_sum(0.5, w, lambda col: col**k), float)


class TestStirling:
    def test_partitions_of_three_into_two(self):
        assert stirling2_row(3, 2)[2] == 3

    def test_singletons(self):
        for k in range(11):
            assert stirling2_row(k, k)[k] == 1

    def test_known_value(self):
        assert brute_stirling2(10, 4) == 34105
        assert stirling2_row(10, 4)[4] == 34105

    def test_recurrence_exact_to_30(self):
        rows = [stirling2_row(n, 30) for n in range(31)]
        for n in range(1, 31):
            for k in range(1, n + 1):
                assert rows[n][k] == rows[n - 1][k - 1] + k * rows[n - 1][k]

    def test_vanishes_above_diagonal(self):
        assert stirling2_row(4, 7) == [0, 1, 7, 6, 1, 0, 0, 0]

    def test_inclusion_exclusion_oracle(self):
        # {n,k} = (1/k!) sum_i (-1)^i C(k,i) (k-i)^n
        for n in range(0, 12):
            row = stirling2_row(n, n)
            for k in range(0, n + 1):
                acc = sum(
                    (-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1)
                )
                expected = acc // math.factorial(k) if k else (1 if n == 0 else 0)
                assert row[k] == expected

    def test_rows_match_recurrence_and_mpmath_to_60(self):
        # every k <= n, past 2**53; a row's prefix is the shorter row, and
        # entries beyond k = n are zero
        for n in range(61):
            row = stirling2_row(n, n + 3)
            assert row[n + 1 :] == [0, 0, 0]
            for k in range(n + 1):
                assert row[k] == brute_stirling2(n, k) == int(mpmath.stirling2(n, k, exact=True))
                assert stirling2_row(n, k) == row[: k + 1]

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            stirling2_row(-1, 0)
        with pytest.raises(ValueError):
            stirling2_row(3, -1)


class TestDiscretePmf:
    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            DiscretePmf(np.array([0, 1]), np.array([0.6, 0.6]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DiscretePmf(np.array([0, 1]), np.array([1.5, -0.5]))

    def test_truncated_laws_normalize_within_1e9(self):
        for pmf in (poisson_pmf(2.0), poisson_pmf(6.0), zipf_pmf(3.2, tail_mass=1e-12)):
            assert abs(pmf.weights.sum() - 1.0) <= 1e-9


class TestPoissonPmfOracle:
    def test_matches_scipy_stats_exactly(self):
        # the truncation point is scipy's isf of a tenth of the tail mass;
        # at the last four means ceil(pdtrik) overshoots that quantile by one
        edge = [1e-6, 1e-3, 100.0, 250.0, 1.328102, 3.199953, 33.734868, 294.792297]
        for lam in np.concatenate([np.linspace(0.01, 60.0, 600), edge]):
            pmf = poisson_pmf(lam)
            top = int(stats.poisson.isf(1e-12 / 10.0, lam)) + 2
            support = np.arange(top + 1)
            assert np.array_equal(pmf.support, support), lam
            assert np.array_equal(pmf.weights, stats.poisson.pmf(support, lam)), lam


class TestPgfEval:
    def test_normalization_at_one(self):
        pmf = poisson_pmf(2.0)
        assert EmpiricalDegree(pmf).pgf(1.0) == pytest.approx(1.0, abs=1e-9)

    def test_poisson_closed_form(self):
        pmf = poisson_pmf(2.0)
        assert EmpiricalDegree(pmf).pgf(0.3) == pytest.approx(
            math.exp(2.0 * (0.3 - 1.0)), abs=1e-8
        )

    def test_zipf_matches_polylog_ratio(self):
        beta = 2.45
        law = EmpiricalDegree(zipf_pmf(beta, tail_mass=1e-9))
        for x in (0.3, 0.7, 0.95):
            assert law.pgf(x) == pytest.approx(polylog(beta, x) / zeta(beta), abs=1e-8)

    def test_monotone_and_convex(self):
        law = EmpiricalDegree(poisson_pmf(3.0))
        xs = np.linspace(0.0, 1.0, 100)
        vals = np.array([law.pgf(x) for x in xs])
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12)
        assert np.all(np.diff(diffs) >= -1e-12)  # convexity


class TestPgfDerivative:
    def test_mean_at_one(self):
        pmf = poisson_pmf(2.0)
        assert EmpiricalDegree(pmf).pgf_prime(1.0) == pytest.approx(pmf.mean(), abs=1e-10)

    def test_poisson_closed_form(self):
        law = EmpiricalDegree(poisson_pmf(2.0))
        for x in (0.0, 0.4, 0.9):
            assert law.pgf_prime(x) == pytest.approx(2.0 * math.exp(2.0 * (x - 1.0)), abs=1e-8)

    def test_zipf_term_by_term_oracle(self):
        beta = 2.45
        law = EmpiricalDegree(zipf_pmf(beta, tail_mass=1e-9))
        z = zeta(beta)
        for x in (0.2, 0.5, 0.8):
            k = np.arange(1, 200_001, dtype=np.float64)
            oracle = float(np.sum(k ** (1.0 - beta) * x ** (k - 1.0))) / z
            assert law.pgf_prime(x) == pytest.approx(oracle, abs=1e-8)


class TestZipfPmf:
    def test_heavy_tail_materialization_rejected(self):
        with pytest.raises(ValueError):
            zipf_pmf(2.45, tail_mass=1e-12, max_atoms=1000)
