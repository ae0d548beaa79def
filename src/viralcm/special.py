"""Scalar special functions backing the closed-form network analysis.

Provides the Riemann zeta function, the polylogarithm on [0, 1], Stirling
numbers (second kind for occupancy laws, signed first kind for falling-
factorial expansions), and a finite discrete pmf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp
from scipy import stats as _st

__all__ = [
    "zeta",
    "polylog",
    "stirling2",
    "stirling1_signed",
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


def polylog(beta: float, x: float, tol: float = 1e-10) -> float:
    """Polylogarithm ``Li_beta(x) = sum_{k>=1} k**-beta * x**k`` on [0, 1].

    Direct series summed in chunks with compensated accumulation
    (``math.fsum`` over chunk totals).  Summation stops once the running
    term is below 1e-16 of the partial sum and a geometric tail bound
    certifies absolute error below ``tol``.  At ``x == 1`` this is
    ``zeta(beta)`` and requires ``beta > 1``.

    Root scans revisit the same abscissae for several generating
    functions, so results are memoized (the function is pure).
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"polylog requires x in [0, 1] (got x={x})")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return zeta(beta)
    return _polylog_series(beta, x, tol)


@lru_cache(maxsize=1 << 16)
def _polylog_series(beta: float, x: float, tol: float) -> float:
    partials: list[float] = []
    total = 0.0
    k0 = 1
    chunk = 1 << 14
    while True:
        k = np.arange(k0, k0 + chunk, dtype=np.float64)
        terms = k ** (-beta) * x**k
        s = float(terms.sum())
        partials.append(s)
        total += s
        last = float(terms[-1])
        # For beta >= 0 the term ratio is bounded by x; for beta < 0 it is
        # bounded by x * ((k+1)/k)**-beta evaluated at the chunk end.
        ratio = x if beta >= 0 else x * ((k0 + chunk) / (k0 + chunk - 1.0)) ** (-beta)
        if ratio < 1.0:
            tail_bound = last * ratio / (1.0 - ratio)
            if last <= 1e-16 * abs(total) + 1e-300 and tail_bound <= tol:
                return math.fsum(partials)
        k0 += chunk
        chunk = min(2 * chunk, 1 << 20)
        if k0 > 1 << 36:  # unreachable for x <= 1 - 1e-12
            raise RuntimeError(f"polylog series did not converge (beta={beta}, x={x})")


_S2_ROWS: list[list[int]] = [[1]]  # row n holds {n over k} for k = 0..n
_S1_ROWS: list[list[int]] = [[1]]  # row n holds signed s(n, k) for k = 0..n


def _grow_triangle(rows: list[list[int]], n: int, second_kind: bool) -> None:
    while len(rows) <= n:
        m = len(rows)
        prev = rows[m - 1]
        row = [0] * (m + 1)
        for k in range(1, m + 1):
            carried = prev[k] if k < m else 0
            if second_kind:
                row[k] = prev[k - 1] + k * carried
            else:
                row[k] = prev[k - 1] - (m - 1) * carried
        rows.append(row)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind ``{n over k}``, exact integer."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 requires non-negative arguments")
    if k > n:
        return 0
    _grow_triangle(_S2_ROWS, n, second_kind=True)
    return _S2_ROWS[n][k]


def stirling1_signed(n: int, k: int) -> int:
    """Signed Stirling number of the first kind: ``(d)_n = sum_k s(n,k) d**k``."""
    if n < 0 or k < 0:
        raise ValueError("stirling1_signed requires non-negative arguments")
    if k > n:
        return 0
    _grow_triangle(_S1_ROWS, n, second_kind=False)
    return _S1_ROWS[n][k]


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
    hi = int(_st.poisson.isf(tail_mass / 10.0, lam)) + 2
    support = np.arange(hi + 1)
    return DiscretePmf(support, _st.poisson.pmf(support, lam))


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
