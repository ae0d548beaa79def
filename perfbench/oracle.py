"""mpmath references for the fractions and roots the CLI writes.

Each function returns roots and the fractions they give, computed at
high precision from the definitions, independently of ``viralcm``: xi
(of H) and alpha, xi_bar (of Hbar) and alpha_bar, and for the power law
also xi0 (of H0) and alpha0.  A root is ``None`` where the law has no
zero in (0, 1); its fraction is then 0.

Uniqueness: H(x)/x, Hbar(x)/x and H0(x)/x are concave on (0, 1], vanish
at 1, are negative at 0+, and have slope minus the condition margin at 1.
So each has exactly one zero in (0, 1) when its margin is positive and
none otherwise, which makes the margin sign the existence test.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp
import numpy as np

REFS_FILE = Path(__file__).resolve().parent / "refs" / "powerlaw.json"

#: viralcm withholds roots when a margin is this close to zero; the
#: references follow the same documented rule.
CRITICAL_MARGIN = 1e-9

#: Working precision, in significant digits.
DPS = 40


def unique_root(phi):
    """The zero in (0, 1) of a function shaped as in the module docstring."""
    lo = mp.mpf("1e-30")
    if phi(lo) >= 0:
        raise ValueError("expected a negative value at 0+")
    for k in range(1, 40):
        hi = 1 - mp.mpf(10) ** -k
        if phi(hi) > 0:
            return mp.findroot(phi, (lo, hi), solver="anderson")
    raise ValueError("no positive value below 1: the margin is not positive")


def poisson_bernoulli(lam: float, p: float) -> dict:
    """Poisson(lam) degrees with Bernoulli(p) transmission.

    D(t) ~ Poisson(lam p) and D(r) ~ Poisson(lam (1-p)) are independent, so
    H(x)/(lam x) = x - (1-p) - p e^{lam(x-1)} and Hbar(x)/(lam x) =
    x - e^{lam p (x-1)}.
    """
    with mp.workdps(DPS):
        L, P = mp.mpf(lam), mp.mpf(p)
        viral = P * (L * L + L) - P * L - L  # E[D D(t)] - E[D(t)] - E[D]
        out = dict(xi=None, xi_bar=None, alpha=0.0, alpha_bar=0.0)
        if viral > CRITICAL_MARGIN:
            xi = unique_root(lambda x: x - (1 - P) - P * mp.exp(L * (x - 1)))
            xi_bar = unique_root(lambda x: x - mp.exp(L * P * (x - 1)))
            out.update(
                xi=float(xi),
                xi_bar=float(xi_bar),
                alpha=float(1 - mp.exp(L * (xi - 1))),
                alpha_bar=float(1 - mp.exp(L * P * (xi_bar - 1))),
            )
        return out


def plugin(degree: np.ndarray, transmitter: np.ndarray) -> dict:
    """Plug-in roots and fractions of a (degree, transmitter degree) sample.

    The margin E[D D(t)] - E[D(t)] - E[D] is decided exactly in integer
    arithmetic; the roots of the per-group H and Hbar at 40 digits.
    """
    d = np.asarray(degree, dtype=np.int64)
    t = np.asarray(transmitter, dtype=np.int64)
    n = d.size
    margin = int(np.dot(d, t)) - int(t.sum()) - int(d.sum())
    out = dict(xi=None, xi_bar=None, alpha=0.0, alpha_bar=0.0)
    if margin <= 0:
        return out
    base = int(t.max()) + 1
    keys, counts = np.unique(d * base + t, return_counts=True)
    groups = [(int(k) // base, int(k) % base, int(c)) for k, c in zip(keys, counts)]
    with mp.workdps(DPS):

        def phi_h(x):  # H(x)/x per group: d x - (d - t) - t x^(d-1)
            return mp.fsum(c * (dd * x - (dd - tt) - (tt * x ** (dd - 1) if tt else 0)) for dd, tt, c in groups)

        def phi_hbar(x):  # Hbar(x)/x per group: d x - t x^(t-1) - (d - t) x^t
            return mp.fsum(c * (dd * x - (tt * x ** (tt - 1) if tt else 0) - (dd - tt) * x**tt) for dd, tt, c in groups)

        xi = unique_root(phi_h)
        xi_bar = unique_root(phi_hbar)
        g_d = mp.fsum(c * xi**dd for dd, _, c in groups) / n
        g_dt = mp.fsum(c * xi_bar**tt for _, tt, c in groups) / n
        out.update(xi=float(xi), xi_bar=float(xi_bar), alpha=float(1 - g_d), alpha_bar=float(1 - g_dt))
    return out


def powerlaw(trans: str, param) -> dict:
    """Committed references for the power-law workload (see make_refs.py)."""
    refs = json.loads(REFS_FILE.read_text())["refs"]
    return refs[f"{trans}-{param}"]
