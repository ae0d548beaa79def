"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (run ``pytest -s`` to see
them alongside the assertions).  Criteria with stated runtime budgets
enforce them with a wall-clock check.
"""

import math
import time

import numpy as np
import pytest

from viralcm.analytic import (
    analyze,
    bernoulli_threshold,
    build_genfns,
    mean_offspring,
)
from viralcm.diffusion import all_reach, influenced_set, reverse_reach
from viralcm.graph import build
from viralcm.populations import (
    BernoulliTransmission,
    CouponCollector,
    DegreeSample,
    EmpiricalDegree,
    JointDegreeLaw,
    NodePercolation,
    PoissonDegree,
    PowerLawDegree,
)
from viralcm.special import DiscretePmf, zeta

from offspring_oracle import extinction_bracket


def report(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num}: {description}"


def poisson_bernoulli(lam, p):
    return JointDegreeLaw(PoissonDegree(lam), BernoulliTransmission(p))


def er_giant_fraction(lam):
    a = 0.5
    for _ in range(500):
        a = 1.0 - math.exp(-lam * a)
    return a


def test_criterion_01_poisson_phase_transition():
    start = time.perf_counter()
    ok = True
    for p in np.linspace(0.10, 0.50, 9):
        ok &= analyze(poisson_bernoulli(2.0, float(p))).alpha == 0.0
    for p in np.linspace(0.52, 1.00, 13):
        ok &= analyze(poisson_bernoulli(2.0, float(p))).alpha > 0.0
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, f"Poisson phase transition at p = 1/lambda ({elapsed:.2f}s)", ok)


def test_criterion_02_erdos_renyi_giant():
    start = time.perf_counter()
    oracle = er_giant_fraction(2.0)
    res = analyze(poisson_bernoulli(2.0, 1.0))
    ok = abs(res.alpha0 - oracle) < 1e-6 and abs(res.alpha - oracle) < 1e-6

    law = poisson_bernoulli(2.0, 1.0)
    s = law.sample(10**4, seed=0)
    g = build(s, seed=1)
    out = all_reach(g)
    ok &= abs(out.alpha_hat_sim - oracle) < 0.02
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(2, f"Erdos-Renyi giant component alpha0 ~ {oracle:.4f} ({elapsed:.2f}s)", ok)


def test_criterion_03_bernoulli_symmetry():
    start = time.perf_counter()
    ok = True
    for lam in np.linspace(1.5, 6.0, 10):
        p_lo = 1.0 / lam + 0.15
        for p in np.linspace(min(p_lo, 0.95), 1.0, 5):
            res = analyze(poisson_bernoulli(float(lam), float(p)))
            ok &= abs(res.alpha - res.alpha_bar) < 1e-9

    law = poisson_bernoulli(2.0, 0.8)
    for seed in range(5):
        s = law.sample(10**4, seed=seed)
        g = build(s, seed=seed + 1000)
        out = all_reach(g)
        ok &= abs(out.alpha_hat_sim - out.alpha_bar_hat_sim) < 0.03
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    report(3, f"Bernoulli symmetry alpha = alpha_bar ({elapsed:.1f}s)", ok)


def test_criterion_04_node_percolation_scaling():
    ok = True
    for lam, p in [(2.0, 0.7), (2.0, 0.9), (4.0, 0.4), (3.0, 0.6)]:
        res = analyze(JointDegreeLaw(PoissonDegree(lam), NodePercolation(p)))
        ok &= abs(res.alpha_bar - p * res.alpha) < 1e-9

    p = 0.8
    law = JointDegreeLaw(PoissonDegree(2.0), NodePercolation(p))
    s = law.sample(10**4, seed=2)
    g = build(s, seed=3)
    out = all_reach(g)
    ok &= abs(out.alpha_bar_hat_sim - p * out.alpha_hat_sim) < 0.03
    report(4, "node percolation alpha_bar = p * alpha", ok)


def test_criterion_05_power_law_regimes():
    ok = True
    for p in (0.05, 0.1, 0.2):
        res = analyze(JointDegreeLaw(PowerLawDegree(2.45), BernoulliTransmission(p)))
        ok &= res.viral_condition and res.alpha > 0.0

    pc = bernoulli_threshold(PowerLawDegree(3.2))
    ok &= abs(pc - zeta(2.2) / (zeta(1.2) - zeta(2.2))) < 1e-10
    below = analyze(JointDegreeLaw(PowerLawDegree(3.2), BernoulliTransmission(pc - 0.03)))
    above = analyze(JointDegreeLaw(PowerLawDegree(3.2), BernoulliTransmission(pc + 0.03)))
    ok &= (not below.viral_condition) and below.alpha == 0.0
    ok &= above.viral_condition and above.alpha > 0.0
    report(5, f"power-law regimes (threshold at beta=3.2: {pc:.4f})", ok)


def test_criterion_06_coupon_collector_asymmetry():
    # The claim is about the large-n limit, so it is tested where the
    # dynamic is supercritical: at lambda=3, K=2 the offspring mean
    # (E[Dt D] - E[Dt]) / E[D] is 1.187 and the closed form gives
    # alpha = 0.349 < alpha_bar = 0.680.  At lambda=2 the mean is 0.952,
    # both fractions vanish, and the comparison would rest on noise.
    law = JointDegreeLaw(PoissonDegree(3.0), CouponCollector(2))
    assert mean_offspring(law.moments()) > 1.0, "criterion 6 law is not supercritical"
    res = analyze(law)
    assert res.alpha_bar > res.alpha, "closed form does not order the two fractions"
    ok = True
    for seed in range(5):
        s = law.sample(10**4, seed=seed)
        g = build(s, seed=seed + 500)
        out = all_reach(g)
        ok &= out.alpha_bar_hat_sim > out.alpha_hat_sim
    report(6, "coupon collector: good pioneers outnumber influenced (K=2)", ok)


def test_criterion_07_branching_crosscheck():
    rng = np.random.default_rng(42)
    checked = 0
    ok = True
    while checked < 100:
        kind = rng.integers(3)
        if rng.random() < 0.8:
            degree = PoissonDegree(float(rng.uniform(0.5, 6.0)))
        else:
            # keep P{D=1} > 0, the model's standing assumption: without
            # mass at degree one the exploration cannot die out and the
            # zeros collapse onto the endpoint
            atoms = np.concatenate([[1], 1 + np.sort(rng.choice(np.arange(1, 8), 2, replace=False))])
            w = rng.dirichlet(np.ones(3))
            degree = EmpiricalDegree(DiscretePmf(atoms, w))
        if kind == 0:
            tr = BernoulliTransmission(float(rng.uniform(0.0, 1.0)))
        elif kind == 1:
            tr = NodePercolation(float(rng.uniform(0.0, 1.0)))
        else:
            tr = CouponCollector(int(rng.integers(0, 7)))
        law = JointDegreeLaw(degree, tr)
        mom = law.moments()
        margin = mom.mean_dt_d - mom.mean_dt - mom.mean_d
        if abs(margin) < 1e-6:
            continue  # no information at the phase boundary
        checked += 1
        res = analyze(law)
        supercritical = mean_offspring(mom) > 1.0
        ok &= supercritical == res.viral_condition == (margin > 0)
        if supercritical:
            # the extinction probability of the offspring process, iterated
            # from the definition of its pgf, is the zero of Hbar
            lo, hi = extinction_bracket(law)
            ok &= hi - lo <= 1e-12 and lo - 1e-12 <= res.xi_bar <= hi + 1e-12
    report(7, "offspring-process criticality and extinction match the closed form (100 configs)", ok)


def test_criterion_08_three_track_agreement():
    law = poisson_bernoulli(2.0, 0.8)
    alpha = analyze(law).alpha
    semi_err, sim_err = [], []
    for seed in range(20):
        s = law.sample(1000, seed=seed)
        semi_err.append(abs(analyze(s).alpha - alpha))
        g = build(s, seed=seed + 2000)
        out = all_reach(g)
        sim_err.append(abs(out.alpha_hat_sim - alpha))
    ok = float(np.median(semi_err)) < 0.05 and float(np.median(sim_err)) < 0.05
    report(
        8,
        f"three tracks agree (median semi {np.median(semi_err):.3f}, "
        f"sim {np.median(sim_err):.3f})",
        ok,
    )


def test_criterion_09_reachability_oracle():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 13))
        d = rng.integers(0, 4, size=n)
        t = rng.integers(0, d + 1)
        g = build(DegreeSample(d, t), seed=int(rng.integers(2**31)))
        reach = np.eye(n, dtype=bool)
        reach[g.arc_src, g.arc_dst] = True
        for _ in range(5):
            reach = reach | (reach @ reach)
        for v in range(n):
            ok &= influenced_set(g, v).tolist() == np.nonzero(reach[v])[0].tolist()
            ok &= reverse_reach(g, v).tolist() == np.nonzero(reach[:, v])[0].tolist()
    report(9, "influenced/reverse reach equals brute-force closure (500 graphs)", ok)


def test_criterion_10_estimator_zero_at_one():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 120))
        d = rng.integers(0, 40, size=n)
        t = rng.integers(0, d + 1)
        bundle = build_genfns(DegreeSample(d, t))
        ok &= bundle.h(1.0) == 0.0
        ok &= bundle.hbar(1.0) == 0.0
        ok &= bundle.h0(1.0) == 0.0
    report(10, "plug-in H(1), Hbar(1) and H0(1) vanish exactly (1000 samples)", ok)


def test_criterion_11_reach_concentration():
    law = poisson_bernoulli(2.0, 0.8)
    s = law.sample(1000, seed=5)
    g = build(s, seed=6)
    out = all_reach(g)
    sizes = out.reach_sizes[out.good_pioneers]
    cv = float(sizes.std() / sizes.mean())
    report(11, f"good-pioneer reach concentration (CV = {cv:.4f})", cv < 0.1)
