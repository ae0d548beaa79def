"""Degree distributions, transmission models, and their joint law.

A population is described by the joint distribution of a member's total
degree D and transmitter degree D(t) <= D: a named degree law (Poisson,
power law, or empirical) composed with a transmission model giving the
conditional law of D(t) given D.  The module supplies exact conditional
pmfs, analytic moments (``inf`` marking divergence), generating functions
``pgf``/``pgf_prime`` of a scalar or an array of abscissae, each model's
closed forms, and i.i.d. samplers driven by an explicit seed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import accumulate
from operator import mul

import numpy as np

from .special import (
    DEFAULT_TAIL_MASS,
    ZETA_POLE_GAP,
    DiscretePmf,
    _horner,
    _unique,
    index_dtype,
    poisson_pmf,
    stirling2_row,
    zeta,
    zipf_tail_cutoff,
    polylog,
    weighted_sum,
)

__all__ = [
    "DegreeSample",
    "JointMoments",
    "PoissonDegree",
    "PowerLawDegree",
    "EmpiricalDegree",
    "BernoulliTransmission",
    "NodePercolation",
    "CouponCollector",
    "JointDegreeLaw",
]

#: Required residual at a returned root, and so the most rounding error a
#: power-law coupon sum may carry (:func:`_coupon_expansion`).
ROOT_RESIDUAL = 1e-12


def _float(name: str, value) -> float:
    """``value`` as a float; one beyond float range is a ValueError naming ``name``."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name}: {value} is too large for a float") from None


def _int64_column(values) -> np.ndarray:
    """``values`` as int64; a non-integral or beyond-int64 value is a ValueError."""
    a = np.asarray(values)
    if a.dtype.kind not in "bi":
        if a.dtype.kind not in "ufO" or not np.all(np.mod(a, 1) == 0):
            raise ValueError("degrees must be integers")
        if a.size and (a.max() >= 2**63 or a.min() < -(2**63)):
            raise ValueError(f"degrees must lie within the int64 bounds [{-(2**63)}, {2**63 - 1}]")
    return a.astype(np.int64, copy=False)


@dataclass(frozen=True)
class DegreeSample:
    """Observed pairs (degree, transmitter degree), one row per member."""

    degree: np.ndarray
    transmitter_degree: np.ndarray

    def __post_init__(self):
        d = _int64_column(self.degree)
        t = _int64_column(self.transmitter_degree)
        if d.ndim != 1 or t.shape != d.shape:
            raise ValueError("degree and transmitter_degree must be 1-d arrays of equal length")
        if d.size == 0:
            raise ValueError("empty sample")
        if d.min() < 0 or t.min() < 0:
            raise ValueError("degrees must be non-negative")
        if np.any(t > d):
            bad = np.nonzero(t > d)[0]
            raise ValueError(f"transmitter degree exceeds degree at rows {bad[:10].tolist()}")
        object.__setattr__(self, "degree", d)
        object.__setattr__(self, "transmitter_degree", t)

    def __len__(self) -> int:
        return int(self.degree.size)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct rows (d, t), ascending in the key d*(max t + 1) + t,
        and how often each occurs (int64): the sample's one grouping."""
        d, t = self.degree, self.transmitter_degree
        base = int(t.max()) + 1
        top = int(d.max()) * base + base - 1
        if top >= 2**63:
            raise ValueError(
                f"degrees too large to group: the pair key degree*{base}+transmitter_degree "
                f"overflows int64 at degree {int(d.max())}"
            )
        keys = d.astype(index_dtype(top))  # int32 for any realistic sample: sorts in half the time
        keys *= base
        keys += t
        keys, counts = _unique(keys, return_counts=True)
        return (*divmod(keys.astype(np.int64), base), counts)

    def moments(self) -> "JointMoments":
        """Exact sums over :attr:`pairs`, each mean correctly rounded."""
        d, t, c = (a.astype(object) for a in self.pairs)
        return JointMoments(*(int((c * v).sum()) / len(self) for v in (d, d * d, t, t * d)))


@dataclass(frozen=True)
class JointMoments:
    """First and mixed moments of (D, D(t)); ``inf`` marks a divergent moment."""

    mean_d: float
    mean_d2: float
    mean_dt: float
    mean_dt_d: float


# ---------------------------------------------------------------------------
# Degree laws
# ---------------------------------------------------------------------------


class PoissonDegree:
    """Poisson(lam) total degree."""

    def __init__(self, lam: float):
        self.lam = _float("lam", lam)
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam: Poisson mean must be finite and positive, got {self.lam}")
        if not math.isfinite(self.mean_square):  # the condition margins would be inf - inf
            raise ValueError(f"lam: E[D^2] = lam^2 + lam overflows a float, got {self.lam}")

    @cached_property
    def _pmf(self) -> DiscretePmf:
        return poisson_pmf(self.lam)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialized (support, weights): the atoms of positive weight; tail mass below 1e-12."""
        return self._pmf.support, self._pmf.weights

    @property
    def mean(self) -> float:
        return self.lam

    @property
    def mean_square(self) -> float:
        return self.lam * self.lam + self.lam

    def pgf(self, x):
        return np.exp(self.lam * (x - 1.0))

    def pgf_prime(self, x):
        return self.lam * np.exp(self.lam * (x - 1.0))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        try:
            rng.poisson(self.lam, 0)  # numpy's bound on the mean; draws nothing
        except ValueError as exc:
            raise ValueError(f"lam: {exc}") from None
        return rng.poisson(self.lam, n).astype(np.int64, copy=False)

    def __repr__(self):
        return f"PoissonDegree(lam={self.lam})"


class PowerLawDegree:
    """Power-law ("zipf") degree: P{D=k} = k**-beta / zeta(beta), k >= 1.

    Requires beta > 2 so the mean is finite, but not within ``ZETA_POLE_GAP``
    above 2 or 3, where the mean or the second moment needs zeta at its pole.
    The second moment is infinite for beta <= 3 and reported as ``inf``.
    Generating functions use the polylogarithm rather than a materialized
    pmf: truncating the tail to 1e-12 would need ~1e8 atoms at beta = 2.45.
    """

    #: Inverse-CDF sampling table size; draws beyond it bisect on the Hurwitz zeta tail.
    _TABLE = 1 << 20

    def __init__(self, beta: float):
        self.beta = _float("beta", beta)
        if not (math.isfinite(self.beta) and self.beta > 2.0):
            raise ValueError(f"beta: exponent must be finite and > 2, got {self.beta}")
        for shift in (1.0, 2.0):
            if 1.0 < self.beta - shift <= 1.0 + ZETA_POLE_GAP:
                raise ValueError(
                    f"beta: exponent within {ZETA_POLE_GAP:g} above {shift + 1.0:g} puts "
                    f"zeta(beta - {shift:g}) at its pole, got {self.beta}"
                )
        self._zeta = zeta(self.beta)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        raise ValueError(
            f"power-law degree (beta={self.beta}) has no materialized atoms; "
            "use its closed-form generating functions"
        )

    @property
    def mean(self) -> float:
        return zeta(self.beta - 1.0) / self._zeta

    @property
    def mean_square(self) -> float:
        if self.beta <= 3.0:
            return math.inf
        return zeta(self.beta - 2.0) / self._zeta

    def pgf(self, x):
        return polylog(self.beta, x) / self._zeta

    def pgf_prime(self, x):
        """``Li_(beta-1)(x) / (x zeta(beta))``, and P{D=1} at x = 0."""
        if isinstance(x, float):
            return (polylog(self.beta - 1.0, x) / x if x else 1.0) / self._zeta
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(x == 0.0, 1.0, polylog(self.beta - 1.0, x) / x) / self._zeta
        return out if out.ndim else float(out)

    @cached_property
    def _cdf_table(self) -> np.ndarray:
        k = np.arange(1, self._TABLE + 1, dtype=np.float64)
        return np.cumsum(k ** (-self.beta)) / self._zeta

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF sampling on the pmf truncated at tail mass 1e-12: the
        cached table, then one bisection, over all the draws past it at once,
        for the least k with zeta(beta, k + 1) < (1 - u) zeta(beta); every
        draw clamps to the cutoff."""
        u = rng.random(n)
        cutoff = zipf_tail_cutoff(self.beta, DEFAULT_TAIL_MASS)
        out = np.minimum(np.searchsorted(self._cdf_table, u, side="right") + 1, cutoff)
        rest = np.flatnonzero(out > self._TABLE)
        v = (1.0 - u[rest]) * self._zeta  # 1 - u is exact: u > P{D=1} > 1/2
        lo, hi = np.full(rest.size, self._TABLE), np.full(rest.size, cutoff)
        while np.any(hi - lo > 1):  # k lies in (lo, hi]; the table, not zeta, put k past lo = _TABLE
            mid = (lo + hi) // 2
            below = (zeta(self.beta, mid + 1.0) < v) & (mid > lo)  # a settled draw (hi = lo + 1) keeps its hi
            hi, lo = np.where(below, mid, hi), np.where(below, lo, mid)
        out[rest] = hi
        return out.astype(np.int64, copy=False)

    def __repr__(self):
        return f"PowerLawDegree(beta={self.beta})"


class EmpiricalDegree:
    """Degree law read off a finite pmf or a raw list of observed degrees."""

    def __init__(self, pmf: DiscretePmf):
        self._pmf_obj = pmf

    @classmethod
    def from_degrees(cls, degrees) -> "EmpiricalDegree":
        d = _int64_column(degrees)
        if d.ndim != 1:
            raise ValueError("degrees must be a 1-d list")
        if d.size == 0:
            raise ValueError("empty degree list")
        if d.min() < 0:
            raise ValueError("degrees must be non-negative")
        support, counts = _unique(d.copy(), return_counts=True)
        return cls(DiscretePmf(support, counts / d.size))

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        return self._pmf_obj.support, self._pmf_obj.weights

    @property
    def mean(self) -> float:
        return self._pmf_obj.mean()

    @property
    def mean_square(self) -> float:
        return self._pmf_obj.moment(2)

    def pgf(self, x):
        k = self._pmf_obj.support
        return weighted_sum(x, self._pmf_obj.weights, lambda col: col**k)

    def pgf_prime(self, x):
        pos = self._pmf_obj.support >= 1
        k = self._pmf_obj.support[pos]
        return weighted_sum(x, self._pmf_obj.weights[pos] * k, lambda col: col ** (k - 1))

    @cached_property
    def _cdf(self) -> np.ndarray:
        return np.cumsum(self._pmf_obj.weights)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = np.searchsorted(self._cdf, rng.random(n), side="right")
        idx = np.minimum(idx, self._pmf_obj.support.size - 1)
        return self._pmf_obj.support[idx].astype(np.int64)

    def __repr__(self):
        return f"EmpiricalDegree({self._pmf_obj.support.size} atoms)"


# ---------------------------------------------------------------------------
# Transmission models
# ---------------------------------------------------------------------------


class _Thinning:
    """A transmission model with one probability p and E[D(t) | D] = p D."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p: transmission probability must lie in [0, 1]")
        self.p = float(p)

    def moments(self, deg) -> tuple[float, float]:
        """(E[D(t)], E[D(t) D]) = (p E[D], p E[D^2]); the second is 0 at
        p = 0 even where E[D^2] diverges."""
        p = self.p
        return p * deg.mean, 0.0 if p == 0.0 else p * deg.mean_square

    def _m_dt_xd(self, deg):
        """E[D(t) x^D] = p x G_D'(x) as a function of x, as E[D(t) | D] = p D."""
        return lambda x: self.p * x * deg.pgf_prime(x)

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p})"


class BernoulliTransmission(_Thinning):
    """Each friend is independently influenced with probability p."""

    def conditional_pmf(self, d: int) -> DiscretePmf:
        """Binomial(d, p) law of the transmitter degree.

        Built outward from the mode m = floor((d + 1) p) with the ratios
        P(k+1) / P(k) = (d - k) p / ((k + 1) (1 - p)), then normalized.  No
        binomial coefficient or power is formed, so no degree overflows, and
        no exp() of a large logarithm amplifies rounding: the relative error
        against a 40-digit binomial is 1.4e-14 at d = 200, 5.5e-14 at d = 1000.
        """
        if d < 0:
            raise ValueError("degree must be non-negative")
        p, q = self.p, 1.0 - self.p
        k = np.arange(d + 1)
        m = min(int((d + 1) * p), d)
        w = np.ones(d + 1)
        if m < d:
            w[m + 1 :] = np.cumprod((d - k[m:d]) / (k[m:d] + 1.0) * (p / q))
        if m > 0:
            w[:m] = np.cumprod(k[m:0:-1] / (d - k[m - 1 :: -1]) * (q / p))[::-1]
        return DiscretePmf(k, w / w.sum())

    def sample_given(self, d: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.binomial(d, self.p).astype(np.int64, copy=False)

    def closed_forms(self, deg):
        """(E[D(t) x^D], G_Dt, Hbar) as functions of x on the degree law
        ``deg``.  Binomial thinning makes the mixed expectations G_D' at
        y = 1 - p(1 - x): E[D(t) x^D] = p x G_D'(x), E[x^D(t)] = G_D(y),
        E[D(t) x^D(t)] = p x G_D'(y) and E[D(r) x^D(t)] = (1-p) G_D'(y), so
        Hbar = E[D] x^2 - x G_D'(y)."""
        p, mean_d = self.p, deg.mean

        def g_dt(x):
            return deg.pgf(1.0 - p * (1.0 - x))

        def hbar(x):
            return mean_d * x * x - x * deg.pgf_prime(1.0 - p * (1.0 - x))

        return self._m_dt_xd(deg), g_dt, hbar


class NodePercolation(_Thinning):
    """Enthusiastic/apathetic members: transmit to all friends w.p. p, else none."""

    def conditional_pmf(self, d: int) -> DiscretePmf:
        if d < 0:
            raise ValueError("degree must be non-negative")
        if d == 0 or self.p == 1.0:
            return DiscretePmf(np.array([d]), np.array([1.0]))
        if self.p == 0.0:
            return DiscretePmf(np.array([0]), np.array([1.0]))
        return DiscretePmf(np.array([0, d]), np.array([1.0 - self.p, self.p]))

    def sample_given(self, d: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        on = rng.random(d.size) < self.p
        return (d * on).astype(np.int64)

    def closed_forms(self, deg):
        """(E[D(t) x^D], G_Dt, Hbar) as functions of x on the degree law
        ``deg``.  D(t) is 0 or D: E[D(t) x^D] = E[D(t) x^D(t)] = p x G_D'(x),
        E[x^D(t)] = (1-p) + p G_D(x) and E[D(r) x^D(t)] = (1-p) E[D]."""
        p, mean_d = self.p, deg.mean

        def g_dt(x):
            return (1.0 - p) + p * deg.pgf(x)

        def hbar(x):
            return mean_d * x * x - p * x * deg.pgf_prime(x) - (1.0 - p) * mean_d * x

        return self._m_dt_xd(deg), g_dt, hbar


class CouponCollector:
    """K uniform friend selections with replacement; D(t) counts distinct picks.

    The conditional law of D(t) given D = d is the occupancy distribution
    P{k} = d!/(d-k)! * {K over k} / d**K (an isolated member, d = 0, has
    D(t) = 0 for any K), from :func:`_occupancy`, which forms d**K as the
    sum of the numerators.  The model keeps no state but K.
    """

    def __init__(self, K: int):
        if not (K >= 0 and K % 1 == 0):
            raise ValueError(f"K: message count must be a non-negative integer, got {K}")
        self.K = int(K)

    def conditional_pmf(self, d: int) -> DiscretePmf:
        if d < 0:
            raise ValueError("degree must be non-negative")
        return DiscretePmf(*next(_occupancy(self.K, [d])))

    def sample_given(self, d: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = np.zeros(d.size, dtype=np.int64)
        if self.K == 0:
            return out
        pos = np.nonzero(d > 0)[0]
        try:
            draws = np.floor(rng.random((pos.size, self.K)) * d[pos, None]).astype(np.int64)
        except (ValueError, MemoryError):  # numpy cannot shape or allocate the draws
            raise ValueError(
                f"K: {self.K} selections by each of {pos.size} members do not fit in memory"
            ) from None
        draws.sort(axis=1)
        out[pos] = 1 + (np.diff(draws, axis=1) > 0).sum(axis=1)
        return out

    def mean_t(self, d):
        """E[D(t) | D = d] = d * (1 - (1 - 1/d)**K), vectorized; K must fit a float."""
        K = _float("K", self.K)
        d = np.asarray(d, dtype=np.float64)
        out = np.zeros_like(d)
        if K == 0:
            return out
        out[d == 1.0] = 1.0
        pos = d > 1.0
        # -d * expm1(K * log1p(-1/d)) avoids cancellation at large d
        out[pos] = -d[pos] * np.expm1(K * np.log1p(-1.0 / d[pos]))
        return out

    def moments(self, deg) -> tuple[float, float]:
        """(E[D(t)], E[D(t) D]): on a power law, from :func:`_coupon_expansion`;
        otherwise summed over the degree atoms."""
        if isinstance(deg, PowerLawDegree):
            return _coupon_expansion(deg.beta, self.K)[:2]
        support, weights = deg.atoms()
        mt = self.mean_t(support)
        return float(np.dot(weights, mt)), float(np.dot(weights, support * mt))

    def closed_forms(self, deg):
        """(E[D(t) x^D], G_Dt, Hbar) as functions of x on the degree law
        ``deg``.  D(t) <= K, so G_Dt and Hbar are polynomials with the
        coefficients a_k, k a_k and b_k - k a_k, where a_k = P{D(t)=k} and
        b_k = E[D 1{D(t)=k}].  On a power law, a_k, b_k and E[D(t) x^D] =
        sum_j c_j Li_{beta+j-1}(x) / zeta(beta) come from
        :func:`_coupon_expansion`.  On a law with atoms, a_k and b_k are
        summed once over the atoms' occupancy weights from
        :func:`_occupancy`, which share one Stirling row for k up to min(K,
        largest atom); E[D(t) x^D] sums E[D(t) | D=d] x^d over the atoms; and
        Hbar's E[D] is the atoms' own, sum_k b_k, so Hbar(1) cancels to
        rounding.  :meth:`mean_t` checks K first, then :func:`_occupancy` the
        exact work: no Stirling row is built for a K that either rejects.
        """
        if isinstance(deg, PowerLawDegree):
            cs, a, b = _coupon_expansion(deg.beta, self.K)[2:]
            zb, mean_d = zeta(deg.beta), deg.mean

            def m_dt_xd(x):
                return sum(c * polylog(deg.beta + j - 1.0, x) for j, c in enumerate(cs, start=1)) / zb

        else:
            support, weights = deg.atoms()
            m_dt_xd = partial(weighted_sum, w=weights * self.mean_t(support), terms=lambda c: c**support)
            occupancy = _occupancy(self.K, support.tolist())
            a, b = np.zeros((2, min(self.K, int(support[-1])) + 1))
            for d, w, (ks, p) in zip(support.tolist(), weights.tolist(), occupancy):
                a[ks] += w * p
                b[ks] += w * d * p
            mean_d = float(b.sum())
        karr = np.arange(a.size, dtype=np.float64)
        a_k, ka_k, b_ka_k = a.tolist(), (a * karr).tolist(), (b - a * karr).tolist()

        def g_dt(x):
            return _horner(x, a_k)

        def hbar(x):
            return mean_d * x * x - _horner(x, ka_k) - _horner(x, b_ka_k) * x

        return m_dt_xd, g_dt, hbar

    def __repr__(self):
        return f"CouponCollector(K={self.K})"


#: Most bit operations, as :func:`_occupancy_work` counts them, that a coupon
#: model's exact occupancy arithmetic may take: about a second on 2 cores.
OCCUPANCY_BUDGET = 4e9


def _occupancy_work(K: int, support) -> float:
    """Bit operations, roughly, to build {K over k} for k <= kmax = min(K,
    largest of ``support``) and the occupancy weights of each d in it.  Each
    of d's m = min(d, K) weights costs 2 500 for the interpreter, K log2 d for
    the sum and the quotient and K log2 d * m log2 m / 1 400 for (d)_k {K over
    k}; the row costs a quarter bit per bit of its kmax**2 / 2 differences of
    K log2 kmax bits, and (K log2 kmax)**1.585 / 43 per power j**K (Karatsuba).
    Against timings on 2 cores from K = 20 at Poisson(1e4) to K = 3.9e6 on
    one atom, each estimate is 0.6 to 1.8 times the measured time."""
    K = _float("K", K)
    d = np.asarray(support, dtype=np.float64)
    kmax = min(K, float(d.max()))
    with np.errstate(over="ignore"):  # an inf count is refused like any other
        m, bits, top = np.minimum(d, K), K * np.log2(np.maximum(d, 1.0)), K * np.log2(max(kmax, 1.0))
        weights = np.dot(m, 2500.0 + bits * (1.0 + m * np.log2(np.maximum(m, 1.0)) / 1400))
        return float(weights + kmax * kmax * top / 8 + kmax * top**1.585 / 43)


def _occupancy(K: int, support: list[int]):
    """An iterator of (k, P{D(t)=k | D=d}) over the degrees d of ``support``:
    k = 1..min(d, K), or the atom 0 at d = 0 or K = 0.  ``OCCUPANCY_BUDGET``
    is checked first, then one row of {K over k}, k <= min(K, max degree), is
    built.  A weight is the exact count (d)_k {K over k} of pick sequences
    meeting k friends over the sum of d's counts, d**K, rounded once."""
    work, largest = _occupancy_work(K, support), max(support)
    if work > OCCUPANCY_BUDGET:
        raise ValueError(
            f"K: {K} needs about {work:.2g} bit operations of exact occupancy arithmetic on "
            f"degrees up to {largest}, more than the {OCCUPANCY_BUDGET:.2g} allowed"
        )
    row = stirling2_row(K, min(K, largest))[1:]

    def pmf(d):
        counts = [f * s for f, s in zip(accumulate(range(d, d - min(d, K), -1), mul), row)]
        if not counts:  # d = 0 or K = 0
            return np.array([0]), np.array([1.0])
        den = sum(counts)
        return np.arange(1, len(counts) + 1), np.array([c / den for c in counts])

    return map(pmf, support)


@cache
def _coupon_expansion(beta: float, K: int):
    """E[D(t)] and E[D(t) D] of K coupons on the power law of exponent
    ``beta``, the signed binomials c_j = (-1)**(j+1) C(K, j), j = 1..K, and
    the coefficients a_k = P{D(t)=k} and b_k = E[D 1{D(t)=k}], k = 0..K;
    built at the first call for each (beta, K) and kept for the process, so
    c_j is a tuple and a_k and b_k are read-only.

    d(1 - (1 - 1/d)**K) = sum_j c_j d**(1-j), and P{D(t)=k | D=d} =
    (d)_k {K over k} / d^K with (d)_k = sum_s s1(k, s) d^s, so all reduce
    to zeta ratios E[D^-r]; s1(k, s) is carried from k - 1 by (d)_k =
    (d)_(k-1) (d - k + 1).  Both sums cancel more as K grows: when one's
    rounding bound u * sum|term| (u = 2**-53) exceeds ``ROOT_RESIDUAL``, a
    ValueError names K, which admits K <= 6 for beta from 2.05 to 4.45.
    The binomials' bound is checked term by term, so a large K is rejected
    before any binomial can overflow a float or any Stirling row is built.
    """
    zb = zeta(beta)

    def moment(r):  # E[D**-r] for r >= -1
        return zeta(beta + r) / zb if r else 1.0

    def check(total):
        if 2.0**-53 * total > ROOT_RESIDUAL:
            raise ValueError(
                f"K: {K} is too large for the power-law coupon expansion at beta={beta}: its "
                f"rounding bound u*sum|term| = {2.0**-53 * total:.2g} exceeds {ROOT_RESIDUAL:g}"
            )

    cs, total = [], 0.0
    for j in range(1, K + 1):
        binom = math.comb(K, j)
        # only K itself, at j = 1, can lie beyond float range; its bound is then inf
        size = binom if binom <= sys.float_info.max else math.inf
        total += size * (moment(j - 1) + moment(j - 2))
        check(total)
        cs.append((-1.0) ** (j + 1) * binom)
    a, b = np.zeros(K + 1), np.zeros(K + 1)
    s1, total = [1], 0.0
    for k, s2 in enumerate(stirling2_row(K, K)):
        if k:
            s1 = [hi - (k - 1) * lo for hi, lo in zip([0, *s1], [*s1, 0])]
        for s, c in enumerate(s1):
            w, ma, mb = float(s2) * float(c), moment(K - s), moment(K - s - 1)
            a[k] += w * ma
            b[k] += w * mb
            total += abs(w) * (ma + mb)
    check(total)
    a.flags.writeable = b.flags.writeable = False
    mean_dt = sum((c * moment(j - 1) for j, c in enumerate(cs, start=1)), 0.0)
    mean_dt_d = sum((c * moment(j - 2) for j, c in enumerate(cs, start=1)), 0.0)
    return mean_dt, mean_dt_d, tuple(cs), a, b


# ---------------------------------------------------------------------------
# Joint law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointDegreeLaw:
    """Degree law composed with a transmission model."""

    degree: object
    transmission: object

    def sample(self, n: int, seed) -> DegreeSample:
        """n i.i.d. (D, D(t)) pairs; deterministic for a given seed."""
        if n < 1:
            raise ValueError("sample size must be positive")
        rng = np.random.default_rng(seed)
        d = self.degree.sample(n, rng)
        t = self.transmission.sample_given(d, rng)
        return DegreeSample(d, t)

    def moments(self) -> JointMoments:
        deg = self.degree
        mean_dt, mean_dt_d = self.transmission.moments(deg)
        return JointMoments(mean_d=deg.mean, mean_d2=deg.mean_square, mean_dt=mean_dt, mean_dt_d=mean_dt_d)

    def __repr__(self):
        return f"JointDegreeLaw({self.degree!r}, {self.transmission!r})"
