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
from functools import cached_property

import numpy as np
from numpy.polynomial.polynomial import polyval

from .special import (
    DEFAULT_TAIL_MASS,
    DiscretePmf,
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
#: power-law coupon sum may carry (:meth:`CouponCollector._powerlaw_expansion`).
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

    def moments(self) -> "JointMoments":
        d = self.degree.astype(np.float64)
        t = self.transmitter_degree.astype(np.float64)
        return JointMoments(
            mean_d=float(d.mean()),
            mean_d2=float((d * d).mean()),
            mean_dt=float(t.mean()),
            mean_dt_d=float((d * t).mean()),
        )


@dataclass(frozen=True)
class JointMoments:
    """First and mixed moments of (D, D(t)); ``inf`` marks a divergent moment."""

    mean_d: float
    mean_d2: float
    mean_dt: float
    mean_dt_d: float

    @property
    def mean_dr(self) -> float:
        """E[D(r)] = E[D] - E[D(t)], with D(r) = D - D(t)."""
        return self.mean_d - self.mean_dt


# ---------------------------------------------------------------------------
# Degree laws
# ---------------------------------------------------------------------------


class PoissonDegree:
    """Poisson(lam) total degree."""

    def __init__(self, lam: float):
        self.lam = _float("lam", lam)
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam: Poisson mean must be finite and positive, got {self.lam}")

    @cached_property
    def _pmf(self) -> DiscretePmf:
        return poisson_pmf(self.lam)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialized (support, weights); tail mass below 1e-12."""
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
        return rng.poisson(self.lam, n).astype(np.int64)

    def __repr__(self):
        return f"PoissonDegree(lam={self.lam})"


class PowerLawDegree:
    """Power-law ("zipf") degree: P{D=k} = k**-beta / zeta(beta), k >= 1.

    Requires beta > 2 so the mean is finite.  The second moment is infinite
    for beta <= 3 and reported as ``inf``.  Generating functions use the
    polylogarithm rather than a materialized pmf: truncating the tail to
    1e-12 would need ~1e8 atoms already at beta = 2.45.
    """

    #: Inverse-CDF sampling table size; draws beyond it extend on the fly.
    _TABLE = 1 << 20

    def __init__(self, beta: float):
        self.beta = _float("beta", beta)
        if not (math.isfinite(self.beta) and self.beta > 2.0):
            raise ValueError(f"beta: exponent must be finite and > 2, got {self.beta}")
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
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(x == 0.0, 1.0, polylog(self.beta - 1.0, x) / x) / self._zeta
        return out if out.ndim else float(out)

    def neg_moment(self, r: int) -> float:
        """E[D**-r] for integer r >= -1 (r = -1 is the mean)."""
        if r == -1:
            return self.mean
        if r < -1:
            raise ValueError("only E[D**-r] with r >= -1 is finite for all beta > 2")
        return zeta(self.beta + r) / self._zeta if r > 0 else 1.0

    @cached_property
    def _cdf_table(self) -> np.ndarray:
        k = np.arange(1, self._TABLE + 1, dtype=np.float64)
        return np.cumsum(k ** (-self.beta)) / self._zeta

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF sampling on the pmf truncated at tail mass 1e-12."""
        u = rng.random(n)
        out = np.searchsorted(self._cdf_table, u, side="right") + 1
        high = out > self._TABLE
        if np.any(high):
            cutoff = zipf_tail_cutoff(self.beta, DEFAULT_TAIL_MASS)
            for i in np.nonzero(high)[0]:
                out[i] = self._extend_quantile(float(u[i]), cutoff)
        return out.astype(np.int64)

    def _extend_quantile(self, u: float, cutoff: int) -> int:
        total = float(self._cdf_table[-1])
        k0 = self._TABLE + 1
        chunk = self._TABLE
        while k0 <= cutoff:
            hi = min(k0 + chunk - 1, cutoff)
            k = np.arange(k0, hi + 1, dtype=np.float64)
            cdf = total + np.cumsum(k ** (-self.beta)) / self._zeta
            j = np.searchsorted(cdf, u, side="right")
            if j < cdf.size:
                return k0 + int(j)
            total = float(cdf[-1])
            k0 = hi + 1
            chunk *= 2
        return cutoff  # mass beyond the truncation point (< 1e-12) clamps

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
        support, counts = np.unique(d, return_counts=True)
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
        return rng.binomial(d, self.p).astype(np.int64)

    def closed_forms(self, deg):
        """(E[D(t) x^D], G_Dt, Hbar) as functions of x on the degree law
        ``deg``.  Binomial thinning makes the mixed expectations G_D' at
        y = 1 - p(1 - x): E[D(t) x^D] = p x G_D'(x), E[x^D(t)] = G_D(y),
        E[D(t) x^D(t)] = p x G_D'(y) and E[D(r) x^D(t)] = (1-p) G_D'(y), so
        Hbar = E[D] x^2 - x G_D'(y)."""
        p, mean_d, g_d, dg_d = self.p, deg.mean, deg.pgf, deg.pgf_prime

        def g_dt(x):
            return g_d(1.0 - p * (1.0 - x))

        def hbar(x):
            return mean_d * x * x - x * dg_d(1.0 - p * (1.0 - x))

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
        p, mean_d, g_d, dg_d = self.p, deg.mean, deg.pgf, deg.pgf_prime

        def g_dt(x):
            return (1.0 - p) + p * g_d(x)

        def hbar(x):
            return mean_d * x * x - p * x * dg_d(x) - (1.0 - p) * mean_d * x

        return self._m_dt_xd(deg), g_dt, hbar


class CouponCollector:
    """K uniform friend selections with replacement; D(t) counts distinct picks.

    The conditional law of D(t) given D = d is the occupancy distribution
    P{k} = d!/(d-k)! * {K over k} / d**K (an isolated member, d = 0, has
    D(t) = 0 for any K).  The row of {K over k} that the calls so far have
    needed is kept on the instance, grown by doubling up to k = K, so the
    conditional pmfs of many degrees share one row.
    """

    def __init__(self, K: int):
        if not (K >= 0 and K % 1 == 0):
            raise ValueError(f"K: message count must be a non-negative integer, got {K}")
        self.K = int(K)
        self._stirling_row: list[int] = []
        self._expansions: dict[float, tuple[list[float], np.ndarray, np.ndarray]] = {}

    def conditional_pmf(self, d: int) -> DiscretePmf:
        if d < 0:
            raise ValueError("degree must be non-negative")
        if d == 0 or self.K == 0:
            return DiscretePmf(np.array([0]), np.array([1.0]))
        kmax = min(d, self.K)
        if len(self._stirling_row) <= kmax:
            grown = min(self.K, max(kmax, 2 * len(self._stirling_row)))
            self._stirling_row = stirling2_row(self.K, grown)
        ks = np.arange(1, kmax + 1)
        den = d**self.K  # exact integers; one rounding at the division
        weights = np.empty(kmax, dtype=np.float64)
        falling = 1
        for k in range(1, kmax + 1):
            falling *= d - (k - 1)
            weights[k - 1] = (falling * self._stirling_row[k]) / den
        return DiscretePmf(ks, weights)

    def sample_given(self, d: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = np.zeros(d.size, dtype=np.int64)
        if self.K == 0:
            return out
        pos = np.nonzero(d > 0)[0]
        draws = np.floor(rng.random((pos.size, self.K)) * d[pos, None]).astype(np.int64)
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
        """(E[D(t)], E[D(t) D]): on a power law, zeta ratios weighted by the
        signed binomials of :meth:`_powerlaw_expansion`; otherwise summed
        over the degree atoms."""
        if isinstance(deg, PowerLawDegree):
            cs = self._powerlaw_expansion(deg)[0]
            mean_dt = sum((c * deg.neg_moment(j - 1) for j, c in enumerate(cs, start=1)), 0.0)
            mean_dt_d = sum((c * deg.neg_moment(j - 2) for j, c in enumerate(cs, start=1)), 0.0)
            return mean_dt, mean_dt_d
        support, weights = deg.atoms()
        mt = self.mean_t(support)
        return float(np.dot(weights, mt)), float(np.dot(weights, support * mt))

    def closed_forms(self, deg):
        """(E[D(t) x^D], G_Dt, Hbar) as functions of x on a power law ``deg``:
        sum_j c_j Li_{beta+j-1}(x) / zeta(beta) and polynomials with the
        coefficients a_k, k a_k and b_k - k a_k of :meth:`_powerlaw_expansion`.
        ``None`` on a law with atoms, whose exact (d, t) table stands in once
        K passes the check of :meth:`mean_t`: no Stirling row is built for a K
        that the moments reject.
        """
        if not isinstance(deg, PowerLawDegree):
            _float("K", self.K)
            return None
        cs, a, b = self._powerlaw_expansion(deg)
        karr = np.arange(self.K + 1, dtype=np.float64)
        zb, mean_d = zeta(deg.beta), deg.mean

        def m_dt_xd(x):
            return sum(c * polylog(deg.beta + j - 1.0, x) for j, c in enumerate(cs, start=1)) / zb

        def g_dt(x):
            return polyval(x, a)

        def hbar(x):
            return mean_d * x * x - polyval(x, a * karr) - polyval(x, b - a * karr) * x

        return m_dt_xd, g_dt, hbar

    def _powerlaw_expansion(self, deg: PowerLawDegree) -> tuple[list[float], np.ndarray, np.ndarray]:
        """Signed binomials c_j = (-1)**(j+1) C(K, j), j = 1..K, and the
        coefficients a_k = P{D(t)=k} and b_k = E[D 1{D(t)=k}], k = 0..K, on
        the power law ``deg``; kept on the instance per beta for later calls.

        d(1 - (1 - 1/d)**K) = sum_j c_j d**(1-j), and P{D(t)=k | D=d} =
        (d)_k {K over k} / d^K with (d)_k = sum_s s1(k, s) d^s, so both reduce
        to zeta ratios E[D^-r]; s1(k, s) is carried from k - 1 by (d)_k =
        (d)_(k-1) (d - k + 1).  Both sums cancel more as K grows: when one's
        rounding bound u * sum|term| (u = 2**-53) exceeds ``ROOT_RESIDUAL``, a
        ValueError names K, which admits K <= 6 for beta from 2.05 to 4.45.
        The binomials' bound is checked term by term, so a large K is rejected
        before any binomial can overflow a float or any Stirling row is built.
        """
        if deg.beta in self._expansions:
            return self._expansions[deg.beta]
        K, moment = self.K, deg.neg_moment

        def check(total):
            if 2.0**-53 * total > ROOT_RESIDUAL:
                raise ValueError(
                    f"K: {K} is too large for the power-law coupon expansion at beta={deg.beta}: its "
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
        a = np.zeros(K + 1)
        b = np.zeros(K + 1)
        s1 = [1]
        total = 0.0
        for k, s2 in enumerate(stirling2_row(K, K)):
            if k:
                s1 = [hi - (k - 1) * lo for hi, lo in zip([0, *s1], [*s1, 0])]
            for s, c in enumerate(s1):
                w, ma, mb = float(s2) * float(c), moment(K - s), moment(K - s - 1)
                a[k] += w * ma
                b[k] += w * mb
                total += abs(w) * (ma + mb)
        check(total)
        return self._expansions.setdefault(deg.beta, (cs, a, b))

    def __repr__(self):
        return f"CouponCollector(K={self.K})"


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
