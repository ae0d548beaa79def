"""Closed-form and semi-analytic quantities for influence diffusion.

The campaign goes viral (reaches a positive fraction from a positive
fraction of pioneers) iff E[D(t) D] > E[D(t)] + E[D].  The limiting
fractions come from the unique zeros in (0, 1) of

    H(x)    = E[D] x^2 - E[D(r)] x - E[D(t) x^D]
    Hbar(x) = E[D] x^2 - E[D(t) x^D(t)] - E[D(r) x^D(t)] x
    H0(x)   = E[D] x^2 - x G_D'(x)

as alpha = 1 - G_D(xi), alpha_bar = 1 - G_Dt(xi_bar) (good pioneers), and
alpha0 = 1 - G_D(xi0) (the giant component of the undirected graph, which
exists iff E[D(D-2)] > 0).  All of this works both for a parametric
population law and for the plug-in estimators built from a degree sample:
a law's functions come from its transmission model's closed forms on its
degree law, a sample's from its (degree, transmitter degree) counts by d or by t.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .populations import ROOT_RESIDUAL, DegreeSample, JointDegreeLaw, JointMoments
from .special import weighted_sum

__all__ = [
    "GenFnBundle",
    "AnalyticResult",
    "RootBracketingError",
    "viral_margin",
    "giant_margin",
    "build_genfns",
    "find_root",
    "analyze",
    "bernoulli_threshold",
    "mean_offspring",
]

#: Condition margins smaller than this are reported as critical; the
#: large-network approximation carries no information there.
CRITICAL_MARGIN = 1e-9

#: Root-scan abscissae, ascending: the decades 1e-100 ... 1e-7; the steps of
#: 1e-3 down from ``_SCAN_HI``; then ten per decade of 1 - x (uniform in
#: -log(1 - x)) from 1 - 10**-6.1 to 1 - 1e-12.  The low decades reach zeros
#: near 0, such as xi0 = 1.4e-11 of Poisson(25); they stop at 1e-100 so that
#: x**2, the E[D] x^2 term of every H, stays a normal float and no value
#: there underflows to an exact 0.  Each decade is parsed from its literal,
#: so it is the correctly rounded power of ten.
_SCAN_HI = 1.0 - 1e-6
_SCAN_GRID = np.concatenate(
    [
        [float(f"1e{k}") for k in range(-100, -6)],
        _SCAN_HI - np.arange(999, -1, -1) * 1e-3,
        1.0 - 10.0 ** -(6.0 + np.arange(1, 61) / 10.0),
    ]
)


class RootBracketingError(RuntimeError):
    """A zero was expected in (0, 1) but no sign change or refinement could certify it."""


@dataclass(frozen=True)
class GenFnBundle:
    """H, Hbar, H0 and the two pgfs of one (D, D(t)) population.

    All callables take a scalar x in [0, 1] or an array of abscissae; an
    array result equals the scalar results elementwise, bit for bit, so that
    :func:`find_root`'s bisection on scalar calls brackets its zero where
    one array call on every scan abscissa would.  ``g_d`` and
    ``g_dt`` are the generating functions of D and D(t); ``h``, ``hbar``
    and ``h0`` are the functions whose zeros give the limiting fractions
    (module docstring).
    """

    h: Callable[[float], float]
    hbar: Callable[[float], float]
    h0: Callable[[float], float]
    g_d: Callable[[float], float]
    g_dt: Callable[[float], float]


def viral_margin(mom: JointMoments) -> float:
    """E[D(t) D] - (E[D(t)] + E[D]): positive on viral laws, ``inf`` if E[D(t) D] diverges."""
    return mom.mean_dt_d - (mom.mean_dt + mom.mean_d)


def giant_margin(mom: JointMoments) -> float:
    """E[D(D-2)] = E[D^2] - 2 E[D]: positive when the graph has a giant component."""
    return mom.mean_d2 - 2.0 * mom.mean_d


def _is_critical(margin: float) -> bool:
    return math.isfinite(margin) and abs(margin) < CRITICAL_MARGIN


# ---------------------------------------------------------------------------
# Bundle builders
# ---------------------------------------------------------------------------


def build_genfns(source) -> GenFnBundle:
    """Generating-function bundle from a JointDegreeLaw or a DegreeSample.

    A sample sums its (degree, transmitter degree) count table over the
    distinct d or t (:func:`_bundle_from_pairs`).  A law goes through its
    transmission model's closed forms E[D(t) x^D], G_Dt and Hbar on its
    degree law, completed with the two functions common to every model:
    H = E[D] x^2 - E[D(r)] x - E[D(t) x^D] and H0 = E[D] x^2 - x G_D'(x).
    """
    if isinstance(source, DegreeSample):
        return _bundle_from_pairs(*source.pairs)
    if not isinstance(source, JointDegreeLaw):
        raise TypeError(f"cannot build generating functions from {type(source).__name__}")
    m_dt_xd, g_dt, hbar = source.transmission.closed_forms(source.degree)
    mom = source.moments()
    mean_d, mean_dr = mom.mean_d, mom.mean_d - mom.mean_dt

    def h(x):
        return mean_d * x * x - mean_dr * x - m_dt_xd(x)

    def h0(x):
        return mean_d * x * x - x * source.degree.pgf_prime(x)

    return GenFnBundle(h=h, hbar=hbar, h0=h0, g_d=source.degree.pgf, g_dt=g_dt)


def _bundle_from_pairs(d: np.ndarray, t: np.ndarray, counts: np.ndarray) -> GenFnBundle:
    """Bundle of a (d, t) count table, summed over its distinct d (H, H0, G_D)
    or its distinct t (Hbar, G_Dt).  A group's term is the row term with the
    group's row sums as coefficients, in floats (exact integers below 2**53):
    d n_d x^2 - R_d x - S_d x^d in H, R_d = sum(d - t), S_d = d n_d - R_d;
    B_t x^2 - t n_t x^t - Q_t x^(t+1) in Hbar, B_t = sum(d), Q_t = B_t - t n_t.
    Each term vanishes exactly at x = 1, so H(1) = Hbar(1) = H0(1) = 0, and
    a group whose rows all have t = d gives H no x term."""
    c, d, t = (a.astype(np.float64) for a in (counts, d, t))
    (dk, by_d), (tk, by_t) = (np.unique(k, return_inverse=True) for k in (d, t))
    n_d, r_d = np.bincount(by_d, c), np.bincount(by_d, c * (d - t))
    n_t, b_t = np.bincount(by_t, c), np.bincount(by_t, c * d)
    n, dn_d, tn_t = c.sum(), dk * n_d, tk * n_t
    s_d, q_t, w_d, w_t = dn_d - r_d, b_t - tn_t, np.full(dk.size, 1.0 / n), np.full(tk.size, 1.0 / n)
    return GenFnBundle(
        h=partial(weighted_sum, w=w_d, terms=lambda x: dn_d * x * x - r_d * x - s_d * x**dk),
        hbar=partial(weighted_sum, w=w_t, terms=lambda x: b_t * x * x - tn_t * x**tk - q_t * x ** (tk + 1)),
        h0=partial(weighted_sum, w=dn_d / n, terms=lambda x: x * x - x**dk),
        g_d=partial(weighted_sum, w=n_d / n, terms=lambda x: x**dk),
        g_dt=partial(weighted_sum, w=n_t / n, terms=lambda x: x**tk),
    )


# ---------------------------------------------------------------------------
# Roots and fractions
# ---------------------------------------------------------------------------


def find_root(f: Callable[[float], float], kind: str = "") -> Optional[float]:
    """Certified unique zero of ``f`` in (0, 1), or ``None`` without a sign change.

    H/x, Hbar/x and H0/x are each E[D] x minus a power series with
    non-negative coefficients, so each is concave on (0, 1] and vanishes at
    1: the signs of H, Hbar and H0 on ``_SCAN_GRID`` are one run of - and
    one of +.  If the grid's ends up to ``_SCAN_HI`` differ in sign, the
    indices between them are bisected: 13 scalar calls at most, ends included.
    Otherwise the 60 abscissae above, up to 1 - 1e-12, are evaluated as one
    array; there the functions cancel toward their zero at 1, so a value
    counts only if it exceeds ``ROOT_RESIDUAL`` in magnitude (smaller ones
    can be rounding noise), and a second sign change among the kept values
    and the prefix's upper end raises :class:`RootBracketingError`.  Since
    an array entry equals its scalar call bit for bit (:class:`GenFnBundle`),
    the bracket is the adjacent pair of grid points that a scan of every
    abscissa finds.  An exact 0 at an evaluated abscissa is the zero; a NaN
    raises ``ValueError`` naming ``kind``.  :func:`_refine`, handed the
    bracket's end values, shrinks it to adjacent floats of opposite signs
    or to an exact 0; the end with the smaller |f| is returned, and
    :class:`RootBracketingError` is raised if that |f| exceeds
    ``ROOT_RESIDUAL``.  No abscissa is evaluated twice.
    """
    top = int(np.searchsorted(_SCAN_GRID, _SCAN_HI, side="right")) - 1
    ends, values = [0, top], []
    for i in ends:
        values.append(_scan_value(f, kind, i))
        if values[-1] == 0:
            return float(_SCAN_GRID[i])
    if (values[0] < 0) != (values[1] < 0):
        while ends[1] - ends[0] > 1:
            mid = (ends[0] + ends[1]) // 2
            fmid = _scan_value(f, kind, mid)
            if fmid == 0:
                return float(_SCAN_GRID[mid])
            side = int((fmid < 0) != (values[0] < 0))
            ends[side], values[side] = mid, fmid
    else:
        tail = np.asarray(f(_SCAN_GRID[top + 1 :]))
        if np.isnan(tail).any():
            _raise_nan(kind, _SCAN_GRID[top + 1 + np.argmax(np.isnan(tail))])
        kept = np.flatnonzero(np.abs(tail) > ROOT_RESIDUAL)
        at, fx = np.concatenate([[top], top + 1 + kept]), np.concatenate([values[1:], tail[kept]])
        sign = np.sign(fx)
        flips = np.flatnonzero(sign[1:] != sign[:-1])
        if flips.size == 0:
            return None
        if flips.size > 1:
            raise RootBracketingError(
                f"{kind or 'root'} zero not unique: {flips.size} sign changes on the root scan"
            )
        ends, values = at[flips[0] : flips[0] + 2], fx[flips[0] : flips[0] + 2].tolist()
    root, froot = _refine(f, kind, _SCAN_GRID[ends].tolist(), values)
    if abs(froot) > ROOT_RESIDUAL:
        raise RootBracketingError(
            f"{kind or 'root'} refinement stalled: residual {abs(froot):.3g} exceeds {ROOT_RESIDUAL:.3g}"
        )
    return root


def _scan_value(f: Callable[[float], float], kind: str, i: int) -> float:
    """f at the i-th scan abscissa, a Python float, on a scalar call; NaN raises."""
    x = float(_SCAN_GRID[i])
    fx = float(f(x))
    if math.isnan(fx):
        _raise_nan(kind, x)
    return fx


def _raise_nan(kind: str, x: float):
    raise ValueError(f"{kind or 'root'} is NaN at {float(x)!r} on the root scan")


def _ordinal(x: float) -> int:
    """Rank of ``x`` among the floats: adjacent floats differ by 1, and -0.0 and 0.0 are 0."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(1 << 63) - n


def _refine(f: Callable[[float], float], kind: str, x: list, fx: list) -> tuple[float, float]:
    """Shrink the bracket x[0] < x[1], with fx = f(x) of opposite signs, to a zero of ``f``.

    Regula falsi with the Illinois rule (Dowell and Jarratt, BIT 11, 1971):
    each step evaluates ``f`` at one float strictly inside the bracket and
    replaces the end of the same sign; when one end is replaced twice in a
    row, the other end's weight in the secant is halved.  A step bisects the
    bracket's floats (by :func:`_ordinal`) instead when the secant point is
    not inside or when the three steps before it each failed to halve the
    count of floats spanned.  So one step in every four at least halves
    that count, which starts below 2**64: at most 256 steps, and 248 on a
    bracket in [0, 1].  Stops at a value of exactly 0 or when no float lies
    strictly inside, and returns the end with the smaller |f| and that
    value.  A NaN value raises ValueError naming ``kind``.
    """
    g, last, stalls, span = list(fx), None, 0, math.inf
    while True:
        if math.isnan(fx[0]) or math.isnan(fx[1]):
            raise ValueError(f"{kind or 'root'} is NaN on the bracket [{x[0]!r}, {x[1]!r}]")
        lo, hi = _ordinal(x[0]), _ordinal(x[1])
        stalls = 0 if 2 * (hi - lo) <= span + 1 else stalls + 1
        span = hi - lo
        if fx[0] == 0 or fx[1] == 0 or span < 2:
            i = int(abs(fx[1]) < abs(fx[0]))
            return x[i], fx[i]
        c = x[0] - g[0] * (x[1] - x[0]) / (g[1] - g[0])
        if stalls == 3 or not x[0] < c < x[1]:
            mid = (lo + hi) // 2  # _ordinal's map from the bits is its own inverse
            c = struct.unpack("<d", struct.pack("<q", mid if mid >= 0 else -(1 << 63) - mid))[0]
        fc = float(f(c))
        i = int((fc < 0) != (fx[0] < 0))
        if i == last:
            g[1 - i] /= 2
        x[i], fx[i], g[i], last = c, fc, fc, i


@dataclass(frozen=True)
class AnalyticResult:
    """Conditions, roots, and limiting fractions for one population.

    ``critical`` marks a viral-condition margin within 1e-9 of zero, where
    the limit approximation is uninformative; roots are withheld and
    ``viral_condition`` reports False there so that ``alpha > 0`` iff
    ``viral_condition`` holds throughout.
    """

    viral_condition: bool
    giant_condition: bool
    critical: bool
    margin_viral: float
    margin_giant: float
    xi: Optional[float]
    xi_bar: Optional[float]
    xi0: Optional[float]
    alpha: float
    alpha_bar: float
    alpha0: float


def analyze(source) -> AnalyticResult:
    """Conditions, roots and limiting fractions of a law or a degree sample.

    A parametric law raises :class:`RootBracketingError` when a condition
    holds but the corresponding zero cannot be bracketed.  A (noisy)
    :class:`DegreeSample` reports such roots as absent and their fractions
    as zero instead.
    """
    strict = not isinstance(source, DegreeSample)
    mom = source.moments()
    bundle = build_genfns(source)
    mv = viral_margin(mom)
    mg = giant_margin(mom)
    critical = _is_critical(mv)
    viral = mv > 0 and not critical
    giant = mg > 0 and not _is_critical(mg)
    xi = xi_bar = xi0 = None
    if viral:
        xi = find_root(bundle.h, "H")
        xi_bar = find_root(bundle.hbar, "Hbar")
        if strict and (xi is None or xi_bar is None):
            raise RootBracketingError(
                f"viral condition holds (margin {mv:.3g}) but no zero was bracketed"
            )
    if giant:
        # H0(x)/x is concave and -P{D=1} at 0: with no degree-1 member, the zero is x = 0
        ones = source.degree.pgf_prime(0.0) if strict else np.any(source.pairs[0] == 1)
        xi0 = find_root(bundle.h0, "H0") if ones else 0.0
        if strict and xi0 is None:
            raise RootBracketingError(
                f"giant condition holds (margin {mg:.3g}) but no zero was bracketed"
            )
    return AnalyticResult(
        viral_condition=viral,
        giant_condition=giant,
        critical=critical,
        margin_viral=mv,
        margin_giant=mg,
        xi=xi,
        xi_bar=xi_bar,
        xi0=xi0,
        alpha=1.0 - float(bundle.g_d(xi)) if xi is not None else 0.0,
        alpha_bar=1.0 - float(bundle.g_dt(xi_bar)) if xi_bar is not None else 0.0,
        alpha0=1.0 - float(bundle.g_d(xi0)) if xi0 is not None else 0.0,
    )


def bernoulli_threshold(degree_law) -> float:
    """Critical transmission probability E[D] / (E[D^2] - E[D]).

    Zero when E[D^2] diverges: any positive transmission probability makes
    the campaign viral on such degree distributions.  ``inf`` when E[D(D-1)]
    vanishes at float resolution: then no p <= 1 makes the law viral.
    """
    m2 = degree_law.mean_square
    if math.isinf(m2):
        return 0.0
    excess = m2 - degree_law.mean
    return degree_law.mean / excess if excess > 0 else math.inf


def mean_offspring(mom: JointMoments) -> float:
    """Mean offspring count of the exploration from a random pioneer.

    A reached friend's offspring is its size-biased transmitter degree, so
    the mean is (E[D(t) D] - E[D(t)]) / E[D] (``inf`` when E[D(t) D]
    diverges); it exceeds one iff the viral condition holds.  Raises
    ``ValueError`` when E[D] = 0.
    """
    if mom.mean_d == 0.0:
        raise ValueError("offspring process undefined: E[D] = 0")
    if math.isinf(mom.mean_dt_d):
        return math.inf
    return (mom.mean_dt_d - mom.mean_dt) / mom.mean_d
