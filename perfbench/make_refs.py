"""Regenerate refs/powerlaw.json: mpmath references for analytic-powerlaw.

The power-law closed forms do not depend on the workload seed, and each
reference costs seconds of mpmath time, so they are computed once and
committed.  Run from the repository root:

    python3 perfbench/make_refs.py

Every quantity is computed at 40 significant digits from the definitions
(polylogarithm generating functions, falling-factorial expansion for the
coupon model) with mpmath only; nothing is taken from ``viralcm``.
"""

from __future__ import annotations

import json

import mpmath as mp

from oracle import DPS, REFS_FILE, unique_root
from workloads import POWERLAW_BETA, POWERLAW_TRANSMISSIONS


def powerlaw_refs(beta, trans, param):
    b = mp.mpf(beta)
    zb = mp.zeta(b)
    mean = mp.zeta(b - 1) / zb

    def moment(r):  # E[D**r] for integer r <= 1
        return mean if r == 1 else mp.zeta(b - r) / zb

    def g(x):  # G_D(x)
        return mp.polylog(b, x) / zb

    def dg(x):  # G_D'(x)
        return mp.polylog(b - 1, x) / (x * zb)

    if trans == "bernoulli":
        p = mp.mpf(param)
        mean_dr = (1 - p) * mean
        mean_offspring = None  # p E[D^2] / E[D] - p diverges for beta <= 3
        g_dt = lambda x: g(1 - p + p * x)  # noqa: E731
        h = lambda x: mean * x - mean_dr - p * dg(x)  # noqa: E731
        hbar = lambda x: mean * x - dg(1 - p + p * x)  # noqa: E731
    elif trans == "nodeperc":
        p = mp.mpf(param)
        mean_dr = (1 - p) * mean
        mean_offspring = None
        g_dt = lambda x: 1 - p + p * g(x)  # noqa: E731
        h = lambda x: mean * x - mean_dr - p * dg(x)  # noqa: E731
        hbar = lambda x: mean * x - p * dg(x) - (1 - p) * mean  # noqa: E731
    elif trans == "coupon":
        K = int(param)
        # E[D(t) | D=d] = d (1 - (1 - 1/d)^K) = sum_j c_j d^(1-j)
        c = {j: (-1) ** (j + 1) * mp.binomial(K, j) for j in range(1, K + 1)}
        mean_dt = sum(c[j] * moment(1 - j) for j in c)
        mean_dt_d = sum(c[j] * moment(2 - j) for j in c)
        mean_dr = mean - mean_dt
        mean_offspring = (mean_dt_d - mean_dt) / mean
        # P{D(t)=k | D=d} = (d)_k S2(K,k) / d^K, (d)_k = sum_s s1(k,s) d^s
        a = [mp.stirling2(K, k) * sum(mp.stirling1(k, s) * moment(s - K) for s in range(k + 1))
             for k in range(K + 1)]
        bk = [mp.stirling2(K, k) * sum(mp.stirling1(k, s) * moment(s - K + 1) for s in range(k + 1))
              for k in range(K + 1)]
        eps = mp.mpf(10) ** (5 - DPS)
        if abs(sum(a) - 1) > eps or abs(sum(k * a[k] for k in range(K + 1)) - mean_dt) > eps:
            raise ArithmeticError("coupon occupancy law does not normalise")
        g_dt = lambda x: sum(a[k] * x**k for k in range(K + 1))  # noqa: E731

        def h(x):
            m_dt_xd = sum(c[j] * mp.polylog(b + j - 1, x) for j in c) / zb
            return mean * x - mean_dr - m_dt_xd / x

        def hbar(x):
            m_dt_xdt = sum(k * a[k] * x**k for k in range(K + 1))
            m_dr_xdt = sum((bk[k] - k * a[k]) * x**k for k in range(K + 1))
            return mean * x - m_dt_xdt / x - m_dr_xdt
    else:
        raise ValueError(trans)

    h0 = lambda x: mean * x - dg(x)  # noqa: E731
    xi, xi_bar, xi0 = unique_root(h), unique_root(hbar), unique_root(h0)
    return {
        "xi": float(xi),
        "xi_bar": float(xi_bar),
        "xi0": float(xi0),
        "alpha": float(1 - g(xi)),
        "alpha_bar": float(1 - g_dt(xi_bar)),
        "alpha0": float(1 - g(xi0)),
        "mean_offspring": None if mean_offspring is None else float(mean_offspring),
    }


def main():
    mp.mp.dps = DPS
    refs = {}
    for trans, param in POWERLAW_TRANSMISSIONS:
        key = f"{trans}-{param}"
        refs[key] = powerlaw_refs(POWERLAW_BETA, trans, param)
        print(key, refs[key])
    REFS_FILE.parent.mkdir(exist_ok=True)
    payload = {"beta": POWERLAW_BETA, "dps": DPS, "generator": "perfbench/make_refs.py", "refs": refs}
    REFS_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
