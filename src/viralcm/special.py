"""Special functions backing the closed-form network analysis.

Provides the Riemann zeta function, the polylogarithm on [0, 1] (scalar or
array argument), weighted row sums over a pmf-like table, rows of Stirling
numbers of the second kind (for occupancy laws), and a finite discrete pmf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy import special as _sp

__all__ = [
    "zeta",
    "polylog",
    "weighted_sum",
    "stirling2_row",
    "DiscretePmf",
    "poisson_pmf",
    "zipf_pmf",
    "zipf_tail_cutoff",
]

#: Tail mass dropped when materializing an infinite support.
DEFAULT_TAIL_MASS = 1e-12


def zeta(beta: float) -> float:
    """Riemann zeta ``sum_{k>=1} k**-beta`` for real ``beta > 1``."""
    if beta <= 1.0 + 1e-6:
        raise ValueError(f"zeta requires beta > 1 (got beta={beta})")
    return float(_sp.zeta(beta, 1.0))


#: ``polylog`` sums the direct series up to this x, Wood's expansion above.
_WOOD_SWITCH = 0.5


def polylog(beta: float, x):
    """Polylogarithm ``Li_beta(x) = sum_{k>=1} k**-beta * x**k`` on [0, 1].

    ``x`` is a scalar (a float is returned) or an array (an array of its
    shape, equal elementwise to the scalar results).  Up to x = 1/2 the
    direct series is complete to rounding after 60 terms (2**-59 < 2e-18);
    above, Wood's expansion in log(x) takes 40 (:func:`_wood_expansion`).
    The relative error is within 4e-15 of ``mpmath.polylog`` (tested for
    orders 1.2 to 5.45, integers and orders 1e-8 off them included, at x
    up to 1 - 1e-12).  At ``x == 1`` this is ``zeta(beta)``, for beta > 1.
    """
    xa = np.asarray(x, dtype=np.float64)
    if not np.all((xa >= 0.0) & (xa <= 1.0)):
        raise ValueError(f"polylog requires x in [0, 1] (got x={x})")
    flat = xa.reshape(-1)
    out = np.empty_like(flat)
    at_one = flat == 1.0
    wood = (flat > _WOOD_SWITCH) & ~at_one
    direct = flat <= _WOOD_SWITCH
    if at_one.any():
        out[at_one] = zeta(beta)
    if direct.any():
        out[direct] = _direct_series(beta, flat[direct])
    if wood.any():
        out[wood] = _wood_expansion(beta, np.log(flat[wood]))
    out = out.reshape(xa.shape)
    return out if out.ndim else float(out)


def _direct_series(s: float, x):
    return polyval(x, np.concatenate(([0.0], np.arange(1.0, 61.0) ** -s)))


def _wood_expansion(s: float, mu: np.ndarray) -> np.ndarray:
    """``Li_s(e^mu)`` for ``-log 2 <= mu < 0``, after D. C. Wood, "The
    computation of polylogarithms", Univ. of Kent TR 15-92 (1992)::

        Li_s(e^mu) = Gamma(1-s) (-mu)^(s-1) + sum_k zeta(s-k) mu^k / k!

    With n the integer nearest to s, m = n - 1 and eps = s - n, the Gamma
    term and the pole term zeta(1+eps) mu^m / m! sum to
    ``mu^m / m! (C - A log(-mu) expm1(eps log(-mu)) / (eps log(-mu)))``,
    where A = m! Gamma(1-eps) / (1+eps)_m and C = zeta(1+eps) - A/eps are
    regular at eps = 0 (A = 1, C = H_m, the harmonic number).  C is fixed
    by matching the direct series at the switch point x = 1/2, so the two
    poles never cancel numerically.
    """
    n = math.floor(s + 0.5)
    k = np.arange(max(40, n + 1))
    with np.errstate(divide="ignore"):
        coef = _sp.zeta(s - k) / _sp.gamma(k + 1.0)
    if n < 1:  # no pole of zeta(s - k) among k >= 0
        return polyval(mu, coef) + _sp.gamma(1.0 - s) * (-mu) ** (s - 1.0)
    m, eps = n - 1, s - n
    coef[m] = 0.0
    a = _sp.gamma(1.0 - eps) / _sp.poch(1.0 + eps, m) * math.factorial(m)
    mu = np.append(mu, math.log(_WOOD_SWITCH))  # the last entry fixes C
    log_neg_mu = np.log(-mu)
    pair = mu**m / math.factorial(m)
    out = polyval(mu, coef) - pair * a * log_neg_mu * _sp.exprel(eps * log_neg_mu)
    return out[:-1] + pair[:-1] * (_direct_series(s, _WOOD_SWITCH) - out[-1]) / pair[-1]


def weighted_sum(x, w: np.ndarray, terms):
    """``sum_j w[j] * terms(x)[j]`` at a scalar x (a float) or at each entry of an array.

    ``terms`` maps a (b, 1) column of abscissae to the (b, len(w)) table of
    row terms, built in blocks of at most 2**18 entries.  Each row is summed
    alone, so an array result equals the scalar results elementwise.
    """
    xa = np.asarray(x, dtype=np.float64)
    col = xa.reshape(-1, 1)
    out = np.empty(col.shape[0])
    step = max(1, (1 << 18) // max(w.size, 1))
    for i in range(0, col.shape[0], step):
        out[i : i + step] = np.sum(terms(col[i : i + step]) * w, axis=1)
    out = out.reshape(xa.shape)
    return out if out.ndim else float(out)


def stirling2_row(n: int, kmax: int) -> list[int]:
    """Stirling numbers of the second kind ``{n over k}`` for k = 0..kmax, exact.

    {n over k} is the k-th forward difference of j**n at j = 0 over k!.  The
    differences are taken in place on the kmax + 1 powers j**n, so a row
    costs O(kmax**2) integer subtractions and holds O(kmax) integers; the
    entries beyond k = n are 0.
    """
    if n < 0 or kmax < 0:
        raise ValueError("stirling2_row requires non-negative arguments")
    diff = [j**n for j in range(kmax + 1)]
    row = [diff[0]]
    for k in range(1, kmax + 1):
        for j in range(kmax - k + 1):
            diff[j] = diff[j + 1] - diff[j]
        row.append(diff[0] // math.factorial(k))
    return row


@dataclass(frozen=True)
class DiscretePmf:
    """Probability mass function on a finite set of non-negative integers.

    ``support`` is strictly increasing; weights are non-negative and sum to
    one within 1e-9 (materialized infinite laws carry at most
    ``DEFAULT_TAIL_MASS`` of missing tail).
    """

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if support.ndim != 1 or weights.shape != support.shape:
            raise ValueError("support and weights must be 1-d arrays of equal length")
        if support.size == 0:
            raise ValueError("empty pmf")
        if support.min() < 0:
            raise ValueError("support must be non-negative")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if weights.min() < -1e-15:
            raise ValueError("weights must be non-negative")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, not 1 within 1e-9")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", np.maximum(weights, 0.0))

    def mean(self) -> float:
        return float(np.dot(self.weights, self.support))

    def moment(self, order: int) -> float:
        return float(np.dot(self.weights, self.support.astype(np.float64) ** order))


def poisson_pmf(lam: float, tail_mass: float = DEFAULT_TAIL_MASS) -> DiscretePmf:
    """Poisson(``lam``) truncated so the dropped tail mass is <= ``tail_mass``."""
    if lam <= 0:
        raise ValueError("poisson_pmf requires lam > 0")
    # smallest k with P{X <= k} >= q, by the rule of scipy.stats.poisson.ppf
    q = 1.0 - tail_mass / 10.0
    top = math.ceil(_sp.pdtrik(q, lam))
    below = max(top - 1, 0)
    hi = (below if _sp.pdtr(below, lam) >= q else top) + 2
    support = np.arange(hi + 1)
    return DiscretePmf(support, np.exp(_sp.xlogy(support, lam) - _sp.gammaln(support + 1) - lam))


def zipf_tail_cutoff(beta: float, tail_mass: float) -> int:
    """Smallest cutoff m with ``sum_{k>m} k**-beta / zeta(beta) <= tail_mass``.

    Uses the integral bound ``sum_{k>m} k**-beta <= m**(1-beta)/(beta-1)``.
    """
    if beta <= 1.0:
        raise ValueError("zipf cutoff requires beta > 1")
    z = zeta(beta)
    m = ((beta - 1.0) * z * tail_mass) ** (1.0 / (1.0 - beta))
    return max(1, int(math.ceil(m)))


def zipf_pmf(
    beta: float,
    tail_mass: float = DEFAULT_TAIL_MASS,
    max_atoms: int = 20_000_000,
) -> DiscretePmf:
    """Power-law pmf ``P{D=k} = k**-beta / zeta(beta)`` truncated at ``tail_mass``.

    Raises if the required support exceeds ``max_atoms`` (heavy tails near
    beta = 2 need astronomically many atoms; use the closed-form law
    instead of a materialized pmf there).
    """
    cutoff = zipf_tail_cutoff(beta, tail_mass)
    if cutoff > max_atoms:
        raise ValueError(
            f"zipf(beta={beta}) needs {cutoff} atoms for tail mass {tail_mass}; "
            f"exceeds max_atoms={max_atoms}"
        )
    support = np.arange(1, cutoff + 1)
    weights = support.astype(np.float64) ** (-beta) / zeta(beta)
    return DiscretePmf(support, weights)
