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
population law and for the plug-in estimators built from a degree sample.
"""

from __future__ import annotations

import dataclasses
import math
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

#: Root-scan abscissae, ascending: 1e-9, 1e-8, 1e-7; the steps of 1e-3 down
#: from ``_SCAN_HI``; then ten per decade of 1 - x (uniform in -log(1 - x))
#: from 1 - 10**-6.1 to 1 - 1e-12.
_SCAN_HI = 1.0 - 1e-6
_SCAN_GRID = np.concatenate(
    [
        [1e-9, 1e-8, 1e-7],
        _SCAN_HI - np.arange(999, -1, -1) * 1e-3,
        1.0 - 10.0 ** -(6.0 + np.arange(1, 61) / 10.0),
    ]
)

_INT64_MAX = int(np.iinfo(np.int64).max)


class RootBracketingError(RuntimeError):
    """A zero was expected in (0, 1) but no sign change or refinement could certify it."""


@dataclass(frozen=True)
class GenFnBundle:
    """H, Hbar, H0 and the two pgfs of one (D, D(t)) population.

    All callables take a scalar x in [0, 1] or an array of abscissae; an
    array result equals the scalar results elementwise.  ``g_d`` and
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

    A law goes through its transmission model's closed forms
    (:func:`_bundle_from_law`); a sample, and a law whose model has none on
    its degree law (the coupon model on a law with atoms), through a
    weighted (degree, transmitter degree) table.
    """
    if isinstance(source, DegreeSample):
        return _bundle_from_pairs(*_sample_pairs(source))
    if not isinstance(source, JointDegreeLaw):
        raise TypeError(f"cannot build generating functions from {type(source).__name__}")
    forms = source.transmission.closed_forms(source.degree)
    if forms is None:
        return _bundle_from_pairs(*_pair_table(source))
    return _bundle_from_law(source, *forms)


def _sample_pairs(sample: DegreeSample):
    """Distinct (d, t) rows of a sample with their relative frequencies."""
    d, t = sample.degree, sample.transmitter_degree
    base = int(t.max()) + 1
    if int(d.max()) * base + base - 1 > _INT64_MAX:
        raise ValueError(
            f"degrees too large to group: the pair key degree*{base}+transmitter_degree "
            f"overflows int64 at degree {int(d.max())}"
        )
    keys, counts = np.unique(d * base + t, return_counts=True)
    return keys // base, keys % base, counts.astype(np.float64) / len(sample)


def _pair_table(law: JointDegreeLaw):
    """(d, t, P{D=d, D(t)=t}) over the degree atoms and their conditional pmfs."""
    support, weights = law.degree.atoms()
    tr = law.transmission
    ds, ts, ws = [], [], []
    for di, wi in zip(support, weights):
        cpmf = tr.conditional_pmf(int(di))
        ds.append(np.full(cpmf.support.size, di, dtype=np.int64))
        ts.append(cpmf.support)
        ws.append(wi * cpmf.weights)
    return np.concatenate(ds), np.concatenate(ts), np.concatenate(ws)


def _bundle_from_pairs(d: np.ndarray, t: np.ndarray, w: np.ndarray) -> GenFnBundle:
    """Bundle of a weighted (d, t, w) table.

    H/Hbar/H0 are summed per row: each row term vanishes exactly at x = 1
    in float arithmetic, so H(1) = Hbar(1) = H0(1) = 0 identically, not
    just to rounding.
    """
    d = d.astype(np.float64)
    t = t.astype(np.float64)
    return GenFnBundle(
        h=partial(weighted_sum, w=w, terms=lambda c: d * c * c - (d - t) * c - t * c**d),
        hbar=partial(
            weighted_sum, w=w, terms=lambda c: d * c * c - t * c**t - (d - t) * c ** (t + 1.0)
        ),
        h0=partial(weighted_sum, w=w, terms=lambda c: d * c * c - d * c**d),
        g_d=partial(weighted_sum, w=w, terms=lambda c: c**d),
        g_dt=partial(weighted_sum, w=w, terms=lambda c: c**t),
    )


def _bundle_from_law(law: JointDegreeLaw, m_dt_xd, g_dt, hbar) -> GenFnBundle:
    """Bundle of a law from its transmission model's closed forms
    E[D(t) x^D], G_Dt and Hbar, with the two functions common to every
    model: H = E[D] x^2 - E[D(r)] x - E[D(t) x^D] and H0 = E[D] x^2 - x G_D'(x).
    """
    mom = law.moments()
    mean_d, mean_dr = mom.mean_d, mom.mean_dr
    dg_d = law.degree.pgf_prime

    def h(x):
        return mean_d * x * x - mean_dr * x - m_dt_xd(x)

    def h0(x):
        return mean_d * x * x - x * dg_d(x)

    return GenFnBundle(h=h, hbar=hbar, h0=h0, g_d=law.degree.pgf, g_dt=g_dt)


# ---------------------------------------------------------------------------
# Roots and fractions
# ---------------------------------------------------------------------------


def find_root(f: Callable[[float], float], kind: str = "") -> Optional[float]:
    """Certified unique zero of ``f`` in (0, 1), or ``None`` without a sign change.

    Evaluates ``f`` once, on the whole ``_SCAN_GRID`` (up to 1 - 1e-12),
    and refines its one sign change with Brent's method on scalar calls
    (:func:`_brentq`, a port of scipy's ``brentq``, handed the scan's values
    at the bracket ends) until |f(root)| <= ``ROOT_RESIDUAL``; a grid value
    of exactly 0 ends the bracket and is returned.  No abscissa is
    evaluated twice.  The functions handled here vanish at both
    endpoints, so only an interior sign change counts.  Above ``_SCAN_HI``
    they are differences of O(1) terms that cancel toward the zero at 1, so
    a value there counts only if it exceeds ``ROOT_RESIDUAL`` in magnitude:
    smaller ones can be rounding noise, whose sign changes would pass for
    roots.  More than one sign change contradicts the uniqueness of the
    zero and raises :class:`RootBracketingError`.
    """
    fx = np.asarray(f(_SCAN_GRID))
    kept = np.flatnonzero((_SCAN_GRID <= _SCAN_HI) | (np.abs(fx) > ROOT_RESIDUAL))
    sign = np.sign(fx[kept])
    flips = np.flatnonzero(sign[1:] != sign[:-1])
    if flips.size == 0:
        return None
    if flips.size > 1:
        raise RootBracketingError(
            f"{kind or 'root'} zero not unique: {flips.size} sign changes on the root scan"
        )
    i, j = kept[flips[0]], kept[flips[0] + 1]
    root, froot = _brentq(f, _SCAN_GRID[i], _SCAN_GRID[j], fx[i], fx[j])
    res = abs(froot)
    if res > ROOT_RESIDUAL:
        raise RootBracketingError(
            f"{kind or 'root'} refinement stalled: residual {res:.3g} exceeds {ROOT_RESIDUAL:.3g}"
        )
    return root


def _brentq(
    f: Callable[[float], float], xa: float, xb: float, fa: float, fb: float
) -> tuple[float, float]:
    """Zero of ``f`` in the bracket [xa, xb], given fa = f(xa) and fb = f(xb),
    by Brent's method; returns the zero and ``f`` there.

    A line-for-line port of scipy's ``optimize/Zeros/brentq.c`` (after
    Brent, "Algorithms for Minimization without Derivatives", 1973), called
    as ``brentq(f, xa, xb, xtol=1e-15, rtol=8.9e-16, maxiter=200)``: after
    scipy's two endpoint calls, which ``fa`` and ``fb`` stand for, it takes
    the same steps and returns the same float.  Like scipy it raises
    ``ValueError`` on a NaN value of ``f`` or a bracket without a sign
    change; running out of iterations raises :class:`RootBracketingError`.
    """
    xtol, rtol = 1e-15, 8.9e-16

    def checked(x, fx):
        fx = float(fx)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = checked(xpre, fa), checked(xcur, fb)
    if fpre == 0:
        return xpre, fpre
    if fcur == 0:
        return xcur, fcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(200):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, fcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = checked(xcur, f(xcur))
    raise RootBracketingError(f"Brent refinement did not converge in 200 iterations (at x={xcur})")


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

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key in ("margin_viral", "margin_giant"):
            if math.isinf(out[key]):
                out[key] = "divergent"
        return out


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
        xi0 = find_root(bundle.h0, "H0")
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
    the campaign viral on such degree distributions.
    """
    m2 = degree_law.mean_square
    if math.isinf(m2):
        return 0.0
    return degree_law.mean / (m2 - degree_law.mean)


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
