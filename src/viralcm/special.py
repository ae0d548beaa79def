"""Special functions backing the closed-form network analysis.

Provides the Hurwitz zeta function, the polylogarithm on [0, 1] (scalar or
array argument), weighted row sums over a pmf-like table, rows of Stirling
numbers of the second kind (for occupancy laws), a finite discrete pmf, the
grouping of integer keys into distinct values and counts, and chunked writes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
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
#: Most atoms a materialized pmf may hold.
MAX_ATOMS = 20_000_000
#: ``zeta`` takes arguments more than this above its pole at 1.
ZETA_POLE_GAP = 1e-6
#: Rows formatted per ``write`` call by :func:`_write_rows`.
_WRITE_ROWS = 1 << 16


def zeta(beta: float, q=1.0):
    """Hurwitz zeta ``sum_{k>=0} (k + q)**-beta`` for real ``beta > 1``; Riemann
    zeta at q = 1.  A float ``q`` gives a float, an array ``q`` an array."""
    if beta <= 1.0 + ZETA_POLE_GAP:
        raise ValueError(f"zeta requires beta > 1 (got beta={beta})")
    return float(_sp.zeta(beta, q)) if isinstance(q, float) else _sp.zeta(beta, q)


#: ``polylog`` sums the direct series up to this x, Wood's expansion above.
_WOOD_SWITCH = 0.5


def polylog(beta: float, x):
    """Polylogarithm ``Li_beta(x) = sum_{k>=1} k**-beta * x**k`` on [0, 1].

    ``x`` is a scalar (a float is returned) or an array (an array of its
    shape, equal elementwise to the scalar results).  Up to x = 1/2 the
    direct series is complete to rounding after 60 terms (2**-59 < 2e-18);
    above, Wood's expansion in log(x) takes 40; both are built once per
    order (:func:`_order`).  The relative error is within 4e-15 of
    ``mpmath.polylog`` (tested for orders 1.2 to 5.45, integers and orders
    1e-8 off them included, at x up to 1 - 1e-12).  At ``x == 1`` this is
    ``zeta(beta)``, for beta > 1.
    """
    if isinstance(x, float):  # the refinement's scalar steps: no array plumbing
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"polylog requires x in [0, 1] (got x={x})")
        if x == 1.0:
            return zeta(beta)
        direct, wood = _order(beta)
        return _horner(x, direct) if x <= _WOOD_SWITCH else float(wood(float(np.log(x))))
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
        out[direct] = _horner(flat[direct], _order(beta)[0])
    if wood.any():
        out[wood] = _order(beta)[1](np.log(flat[wood]))
    out = out.reshape(xa.shape)
    return out if out.ndim else float(out)


def _horner(x, c):
    """``c[0] + c[1] x + ... + c[-1] x**(len(c)-1)`` at a float or an array x,
    with the operations of numpy's ``polyval`` in its order, so a float x
    gives the bits of an array entry."""
    acc = c[-1] + x * 0
    for ci in c[-2::-1]:
        acc = ci + acc * x
    return acc


@functools.cache
def _order(s: float):
    """The direct series' coefficients 0, 1**-s, ..., 60**-s and Wood's
    expansion ``mu -> Li_s(e^mu)`` for ``-log 2 <= mu < 0`` (a float or an
    array), built at the first call for each order s and kept for the
    process (about 100 floats an order).  After D. C. Wood, "The
    computation of polylogarithms", Univ. of Kent TR 15-92 (1992)::

        Li_s(e^mu) = Gamma(1-s) (-mu)^(s-1) + sum_k zeta(s-k) mu^k / k!

    With n the integer nearest to s, m = n - 1 and eps = s - n, the Gamma
    term and the pole term zeta(1+eps) mu^m / m! sum to
    ``mu^m / m! (C - A log(-mu) expm1(eps log(-mu)) / (eps log(-mu)))``,
    where A = m! Gamma(1-eps) / (1+eps)_m and C = zeta(1+eps) - A/eps are
    regular at eps = 0 (A = 1, C = H_m, the harmonic number).  C is fixed
    by matching the direct series at the switch point x = 1/2, so the two
    poles never cancel numerically.  ``log``, ``power`` and ``exprel`` are
    ufuncs at a float too, so each value keeps the bits of an array entry.
    """
    direct = (0.0, *(np.arange(1.0, 61.0) ** -s).tolist())
    n = math.floor(s + 0.5)
    k = np.arange(max(40, n + 1))
    with np.errstate(divide="ignore"):
        coef = _sp.zeta(s - k) / _sp.gamma(k + 1.0)
    if n < 1:  # no pole of zeta(s - k) among k >= 0
        wood, g = tuple(coef.tolist()), float(_sp.gamma(1.0 - s))
        return direct, lambda mu: _horner(mu, wood) + g * np.power(-mu, s - 1.0)
    m, eps = n - 1, s - n
    coef[m] = 0.0
    wood = tuple(coef.tolist())
    a = float(_sp.gamma(1.0 - eps) / _sp.poch(1.0 + eps, m) * math.factorial(m))

    def without_c(mu):  # the expansion less its C mu^m / m! term, and mu^m / m!
        log_neg_mu = np.log(-mu)
        pair = np.power(mu, m) / math.factorial(m)
        return _horner(mu, wood) - pair * a * log_neg_mu * _sp.exprel(eps * log_neg_mu), pair

    at_switch, pair_switch = without_c(math.log(_WOOD_SWITCH))
    fix = _horner(_WOOD_SWITCH, direct) - at_switch

    def expansion(mu):
        out, pair = without_c(mu)
        return out + pair * fix / pair_switch

    return direct, expansion


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


def index_dtype(count: int) -> type:
    """Integer dtype for ids below ``count`` and sums up to it (int32 below 2**31)."""
    return np.int32 if count < 2**31 else np.int64


def _write_rows(fh, line: str, *columns: np.ndarray) -> None:
    """Write ``line.format(*row)`` for each row of ``columns``, ``_WRITE_ROWS`` rows per write."""
    for lo in range(0, columns[0].size, _WRITE_ROWS):
        fh.write("".join(map(line.format, *(c[lo : lo + _WRITE_ROWS].tolist() for c in columns))))


def _unique(keys: np.ndarray, return_counts: bool = False):
    """``np.unique(keys, return_counts=...)`` of a 1-d integer array: its
    distinct values, ascending, and how often each occurs.  ``keys`` is
    sorted in place."""
    # sort plus a neighbour mask: numpy 2.4's hash-based np.unique is ~40x
    # slower on int64 keys.  The counts are asked for, not always made: on
    # 1e6 keys they cost 13 ms on top of 17 ms
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if not return_counts:
        return keys[first]
    starts = np.flatnonzero(first)
    return keys[starts], np.diff(starts, append=keys.size)


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


def poisson_pmf(lam: float) -> DiscretePmf:
    """Poisson(``lam``) cut at tail mass ``DEFAULT_TAIL_MASS``; atoms whose weight underflows to 0 are dropped."""
    if lam <= 0:
        raise ValueError("poisson_pmf requires lam > 0")
    # smallest k with P{X <= k} >= q, by the rule of scipy.stats.poisson.ppf
    q = 1.0 - DEFAULT_TAIL_MASS / 10.0
    top = _sp.pdtrik(q, lam)
    if not math.isfinite(top):  # pdtrik is NaN from about lam = 5e11
        raise ValueError(f"lam: poisson({lam}) has no finite cutoff for tail mass {DEFAULT_TAIL_MASS}")
    top = math.ceil(top)
    below = max(top - 1, 0)
    hi = (below if _sp.pdtr(below, lam) >= q else top) + 2
    _check_atoms(f"lam: poisson({lam})", hi + 1, DEFAULT_TAIL_MASS, MAX_ATOMS)
    support = np.arange(hi + 1)
    weights = np.exp(_sp.xlogy(support, lam) - _sp.gammaln(support + 1) - lam)
    try:  # from about lam = 1.5e7 the rounding of xlogy and gammaln adds up beyond 1e-9
        return DiscretePmf(support[weights > 0], weights[weights > 0])
    except ValueError as exc:
        raise ValueError(f"lam: poisson({lam}): {exc}") from None


def _check_atoms(pmf: str, n: int, tail_mass: float, max_atoms: int) -> None:
    """Refuse a pmf of more than ``max_atoms`` atoms before it is allocated."""
    if n > max_atoms:
        raise ValueError(f"{pmf} needs {n} atoms for tail mass {tail_mass}; exceeds max_atoms={max_atoms}")


def zipf_tail_cutoff(beta: float, tail_mass: float) -> int:
    """Smallest cutoff m with ``sum_{k>m} k**-beta / zeta(beta) <= tail_mass``.

    Uses the integral bound ``sum_{k>m} k**-beta <= m**(1-beta)/(beta-1)``.
    """
    if beta <= 1.0:
        raise ValueError("zipf cutoff requires beta > 1")
    z = zeta(beta)
    m = ((beta - 1.0) * z * tail_mass) ** (1.0 / (1.0 - beta))
    return max(1, int(math.ceil(m)))


def zipf_pmf(beta: float, tail_mass: float = DEFAULT_TAIL_MASS, max_atoms: int = MAX_ATOMS) -> DiscretePmf:
    """Power-law pmf ``P{D=k} = k**-beta / zeta(beta)`` truncated at ``tail_mass``.

    Raises if the required support exceeds ``max_atoms`` (heavy tails near
    beta = 2 need astronomically many atoms; use the closed-form law
    instead of a materialized pmf there).
    """
    cutoff = zipf_tail_cutoff(beta, tail_mass)
    _check_atoms(f"zipf(beta={beta})", cutoff, tail_mass, max_atoms)
    support = np.arange(1, cutoff + 1)
    weights = support.astype(np.float64) ** (-beta) / zeta(beta)
    return DiscretePmf(support, weights)
