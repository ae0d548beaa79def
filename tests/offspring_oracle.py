"""Offspring-process oracle, independent of the generating-function bundles.

A friend reached along a uniformly random half-edge is size-biased by its
degree D.  Its offspring are its transmitter half-edges other than the one
it was reached along: D(t) of them when that half-edge receives (chance
(D - D(t)) / D), D(t) - 1 when it transmits.  The offspring pgf, summed
directly over the degree atoms and the conditional transmitter pmfs, is

    f(x) = E[(D - D(t)) x^D(t) + D(t) x^(D(t) - 1)] / E[D].

Hbar(x) = E[D] x (x - f(x)), so the zero of Hbar in (0, 1) is the
extinction probability, the least fixed point of f.
"""

import numpy as np


def offspring_pgf(law):
    """f of a JointDegreeLaw with materialized degree atoms."""
    ds, ts, ws = [], [], []
    support, weights = law.degree.atoms()
    for d, wd in zip(support.tolist(), weights.tolist()):
        cpmf = law.transmission.conditional_pmf(d)
        ds.append(np.full(cpmf.support.size, float(d)))
        ts.append(cpmf.support.astype(np.float64))
        ws.append(wd * cpmf.weights)
    d, t, w = (np.concatenate(a) for a in (ds, ts, ws))
    mean_d = float(np.sum(w * d))
    t_less_one = np.maximum(t - 1.0, 0.0)  # the power of a term with coefficient D(t) = 0

    def f(x):
        return float(np.sum(w * ((d - t) * x**t + t * x**t_less_one))) / mean_d

    return f


def extinction_bracket(law, width=1e-12, max_iter=5000):
    """Iterates q <- f(q) up from 0 and down from a point below 1 with f(q) < q.

    f is increasing and convex with f(1) = 1, so on a supercritical law the
    two sequences close in on the extinction probability from either side;
    iteration stops once they are ``width`` apart.
    """
    f = offspring_pgf(law)
    hi = next(x for x in (1.0 - 2.0**-k for k in range(1, 53)) if f(x) < x)
    lo = 0.0
    for _ in range(max_iter):
        if hi - lo <= width:
            break
        lo, hi = f(lo), f(hi)
    return lo, hi
