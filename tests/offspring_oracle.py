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


def _pair_atoms(law):
    """(d, t, weight) over the degree atoms and their conditional transmitter pmfs."""
    ds, ts, ws = [], [], []
    support, weights = law.degree.atoms()
    for d, wd in zip(support.tolist(), weights.tolist()):
        cpmf = law.transmission.conditional_pmf(d)
        ds.append(np.full(cpmf.support.size, float(d)))
        ts.append(cpmf.support.astype(np.float64))
        ws.append(wd * cpmf.weights)
    return tuple(np.concatenate(a) for a in (ds, ts, ws))


def offspring_pgf(law):
    """f of a JointDegreeLaw with materialized degree atoms."""
    d, t, w = _pair_atoms(law)
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


def reach_pmf(law, smax):
    """P{R = s}, s = 0..smax, for the reach R of a uniform pioneer in the limit tree.

    The pioneer's offspring are its D(t) transmitter half-edges, with pgf
    g0; every friend reached after it has offspring pgf f.  The progeny Q of
    one reached friend solves Q = s f(Q), and R has pgf s g0(Q(s)).  Both are
    power series in s truncated after s^smax; since Q(0) = 0, each pass of
    Q <- s f(Q) fixes one more coefficient, and only the first smax + 1
    coefficients of f and g0 reach the truncation.  The sum over every s is
    1 - alpha_bar: the rest of the mass is the pioneers that reach the giant.
    """
    d, t, w = _pair_atoms(law)
    k = t.astype(np.int64)
    size = int(k.max()) + 1
    # the coefficients of f as written in offspring_pgf: a D(t) = 0 term
    # has no x^(D(t) - 1) part
    f = np.bincount(k, w * (d - t), size) + np.bincount(np.maximum(k - 1, 0), w * t, size)
    f /= np.sum(w * d)
    g0 = np.bincount(k, w, size)

    def compose(c, q):
        """sum_j c_j q^j by Horner's rule, truncated after s^smax."""
        out = np.zeros(smax + 1)
        for cj in c[: smax + 1][::-1]:
            out = np.convolve(out, q)[: smax + 1]
            out[0] += cj
        return out

    q = np.zeros(smax + 1)
    for _ in range(smax):
        q[1:] = compose(f, q)[:-1]
    r = np.zeros(smax + 1)
    r[1:] = compose(g0, q)[:-1]
    return r
