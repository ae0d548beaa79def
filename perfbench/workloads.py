"""The four benchmark workloads: CLI argument lists, inputs and output checks.

Each workload makes its inputs from the seed, names the CLI invocations of
one cycle (invocation i writes to ``<cycle_dir>/i``), and checks the files
a cycle wrote.  ``check`` returns one list
of problems per invocation of the cycle and the largest absolute error of
the deterministic roots and fractions against the mpmath references
(``None`` when the workload writes none).  See NOTES.md for why each
workload was chosen.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional

import numpy as np

import oracle

LAMBDA = 2.0
POWERLAW_BETA = 2.45
POWERLAW_TRANSMISSIONS = (("bernoulli", 0.1), ("bernoulli", 0.3), ("nodeperc", 0.3), ("coupon", 3))

#: Largest accepted distance between a written root or fraction and its
#: mpmath reference.  Roots carry a 1e-12 residual and the polylogarithm
#: a 1e-10 series tolerance, so correct output sits orders of magnitude
#: below this; finite-size effects sit orders above it.
FRAC_TOL = 1e-8

#: Relative tolerance for values the CLI derives in closed form from other
#: values (tries = 1/alpha_bar, moment statistics, mean offspring, ...).
REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _compare(problems: list, label: str, got, ref) -> float:
    """Record a mismatch of one written value; return its absolute error."""
    if ref is None or got is None:
        if (ref is None) != (got is None):
            problems.append(f"{label}: wrote {got!r}, reference {ref!r}")
        return 0.0
    err = abs(float(got) - float(ref))
    if not err <= FRAC_TOL:
        problems.append(f"{label}: wrote {got!r}, reference {ref!r} (error {err:.3g})")
    return err


class Simulate:
    """``simulate``: one Poisson(2), Bernoulli(p) graph, all-pioneer reach."""

    name = "simulate-large"

    def __init__(self, n: int = 1_000_000, p: float = 0.55, sim_tol: float = 0.02):
        self.n, self.p = n, p
        #: Finite-size tolerance of the simulated fractions against the
        #: closed form; at n = 1e6, p = 0.55 the seed-to-seed deviation
        #: measured about 0.003.
        self.sim_tol = sim_tol

    def describe(self) -> str:
        return f"simulate Poisson({LAMBDA}) Bernoulli(p={self.p}) n={self.n}"

    def prepare(self, seed: int, work: Path) -> dict:
        return {"seed": seed}

    def cycle(self, inputs: dict, cycle_dir: Path) -> list[list[str]]:
        return [["simulate", "--degree", "poisson", "--lambda", repr(LAMBDA), "--trans", "bernoulli",
                 "--p", repr(self.p), "--n", str(self.n), "--seed", str(inputs["seed"]),
                 "--out", str(cycle_dir / "0")]]

    def check(self, inputs: dict, cycle_dir: Path) -> tuple[list[list[str]], Optional[float]]:
        problems: list[str] = []
        out = json.loads((cycle_dir / "0" / "outcome.json").read_text())
        rows = _read_csv_rows(cycle_dir / "0" / "reach_histogram.csv")
        if out["n"] != self.n:
            problems.append(f"outcome n={out['n']}, expected {self.n}")
        hist = out["histogram"]
        if out["method"] == "exact" and not hist:
            problems.append("exact reach wrote no histogram")
        if hist and sum(c for _, c in hist) != self.n:
            problems.append(f"histogram counts sum to {sum(c for _, c in hist)}, not n={self.n}")
        if [int(r["count"]) for r in rows] != [c for _, c in hist] or not all(
            abs(float(r["reach_fraction"]) - f) <= 1e-9 for r, (f, _) in zip(rows, hist)
        ):
            problems.append("reach_histogram.csv disagrees with the outcome histogram")
        if out["good_pioneer_count"] / self.n != out["alpha_bar_hat_sim"]:
            problems.append("alpha_bar_hat_sim is not good_pioneer_count / n")
        ref = oracle.poisson_bernoulli(LAMBDA, self.p)
        for key, ref_key in (("alpha_hat_sim", "alpha"), ("alpha_bar_hat_sim", "alpha_bar")):
            if not abs(out[key] - ref[ref_key]) <= self.sim_tol:
                problems.append(
                    f"{key}={out[key]} is farther than {self.sim_tol} from the closed form {ref[ref_key]:.6f}"
                )
        return [problems], None


class Sweep:
    """``sweep``: Poisson(2), Bernoulli grid, all three tracks per point."""

    name = "sweep-poisson"

    def __init__(self, n: int = 20_000, grid=(0.0, 1.0, 0.02), sim_tol: float = 0.06, gap: float = 0.1):
        self.n, self.grid = n, grid
        #: Simulated fractions are compared with the closed form only where
        #: p is at least ``gap`` from the threshold 1/lambda; there the
        #: largest deviation seen at n = 20000 was 0.028.
        self.sim_tol, self.gap = sim_tol, gap

    def describe(self) -> str:
        return f"sweep Poisson({LAMBDA}) Bernoulli grid={':'.join(map(repr, self.grid))} n={self.n}"

    def prepare(self, seed: int, work: Path) -> dict:
        return {"seed": seed}

    def cycle(self, inputs: dict, cycle_dir: Path) -> list[list[str]]:
        return [["sweep", "--degree", "poisson", "--lambda", repr(LAMBDA), "--trans", "bernoulli",
                 "--grid", ":".join(map(repr, self.grid)), "--n", str(self.n),
                 "--seed", str(inputs["seed"]), "--out", str(cycle_dir / "0")]]

    def points(self) -> list[float]:
        start, stop, step = self.grid
        count = int(round((stop - start) / step)) + 1
        return [start + i * step for i in range(count) if start + i * step <= stop + 1e-12]

    def check(self, inputs: dict, cycle_dir: Path) -> tuple[list[list[str]], Optional[float]]:
        from viralcm import BernoulliTransmission, JointDegreeLaw, PoissonDegree

        problems: list[str] = []
        rows = _read_csv_rows(cycle_dir / "0" / "sweep.csv")
        points = self.points()
        if [float(r["param"]) for r in rows] != points:
            problems.append(f"sweep.csv has params {[r['param'] for r in rows]}, expected {points}")
            return [problems], None
        err = 0.0
        for idx, (row, p) in enumerate(zip(rows, points)):
            ref = oracle.poisson_bernoulli(LAMBDA, p)
            # The CLI seeds grid point idx with seed ^ idx; regenerate that
            # sample to get the plug-in reference.
            law = JointDegreeLaw(PoissonDegree(LAMBDA), BernoulliTransmission(p))
            sample = law.sample(self.n, np.random.default_rng(inputs["seed"] ^ idx))
            plug = oracle.plugin(sample.degree, sample.transmitter_degree)
            for col, value in (("alpha_analytic", ref["alpha"]), ("alpha_bar_analytic", ref["alpha_bar"]),
                               ("alpha_semianalytic", plug["alpha"]), ("alpha_bar_semianalytic", plug["alpha_bar"])):
                err = max(err, _compare(problems, f"p={p} {col}", float(row[col]), value))
            if abs(p - 1.0 / LAMBDA) >= self.gap:
                for col, value in (("alpha_sim", ref["alpha"]), ("alpha_bar_sim", ref["alpha_bar"])):
                    if not abs(float(row[col]) - value) <= self.sim_tol:
                        problems.append(f"p={p} {col}={row[col]} is farther than {self.sim_tol} "
                                        f"from the closed form {value:.6f}")
        return [problems], err


class Analytic:
    """``analytic``: power law beta=2.45 under each transmission model."""

    name = "analytic-powerlaw"

    def __init__(self, transmissions=POWERLAW_TRANSMISSIONS):
        self.transmissions = transmissions

    def describe(self) -> str:
        models = ", ".join(f"{t} {v}" for t, v in self.transmissions)
        return f"analytic powerlaw beta={POWERLAW_BETA}: {models}; one fresh process each"

    def prepare(self, seed: int, work: Path) -> dict:
        return {"seed": seed}

    def cycle(self, inputs: dict, cycle_dir: Path) -> list[list[str]]:
        argvs = []
        for i, (trans, value) in enumerate(self.transmissions):
            flag = "--K" if trans == "coupon" else "--p"
            argvs.append(["analytic", "--degree", "powerlaw", "--beta", repr(POWERLAW_BETA),
                          "--trans", trans, flag, str(value), "--seed", str(inputs["seed"]),
                          "--out", str(cycle_dir / str(i))])
        return argvs

    def check(self, inputs: dict, cycle_dir: Path) -> tuple[list[list[str]], Optional[float]]:
        all_problems, err = [], 0.0
        for i, (trans, value) in enumerate(self.transmissions):
            problems: list[str] = []
            payload = json.loads((cycle_dir / str(i) / "analysis.json").read_text())
            res, br = payload["result"], payload["branching"]
            ref = oracle.powerlaw(trans, value)
            for key in ("xi", "xi_bar", "xi0", "alpha", "alpha_bar", "alpha0"):
                err = max(err, _compare(problems, f"{trans} {value} {key}", res[key], ref[key]))
            _compare(problems, f"{trans} {value} branching p_ext", br["p_ext"], ref["xi_bar"])
            _compare(problems, f"{trans} {value} branching alpha_bar_bp", br["alpha_bar_bp"], ref["alpha_bar"])
            if not (res["viral_condition"] and res["giant_condition"] and not res["critical"]
                    and br["supercritical"] and res["margin_giant"] == "divergent"):
                problems.append(f"{trans} {value}: conditions {res} / {br} disagree with beta={POWERLAW_BETA}")
            if ref["mean_offspring"] is None:
                if br["mean_offspring"] != "divergent":
                    problems.append(f"{trans} {value}: mean_offspring should diverge, got {br['mean_offspring']}")
            elif not _close(br["mean_offspring"], ref["mean_offspring"]):
                problems.append(f"{trans} {value}: mean_offspring {br['mean_offspring']} vs {ref['mean_offspring']}")
            if trans != "coupon" and payload.get("bernoulli_threshold") != 0.0:
                problems.append(f"{trans} {value}: bernoulli_threshold must be 0 when E[D^2] diverges")
            all_problems.append(problems)
        return all_problems, err


class Evaluate:
    """``evaluate``: campaign verdict on a generated pioneer CSV."""

    name = "evaluate-large"

    def __init__(self, rows: int = 1_000_000, lam: float = 3.0, p: float = 0.6,
                 cost: float = 50.0, value: float = 2.0):
        self.rows, self.lam, self.p, self.cost, self.value = rows, lam, p, cost, value

    def describe(self) -> str:
        return (f"evaluate pioneer CSV rows={self.rows} from Poisson({self.lam}) Bernoulli({self.p}), "
                f"cost={self.cost} value={self.value}")

    def prepare(self, seed: int, work: Path) -> dict:
        rng = np.random.default_rng(seed)
        d = rng.poisson(self.lam, self.rows).astype(np.int64)
        t = rng.binomial(d, self.p).astype(np.int64)
        path = work / "pioneers.csv"
        with open(path, "w") as fh:
            fh.write("degree,transmitter_degree\n")
            fh.write("\n".join(map("{},{}".format, d.tolist(), t.tolist())))
            fh.write("\n")
        return {"csv": path, "degree": d, "transmitter": t}

    def cycle(self, inputs: dict, cycle_dir: Path) -> list[list[str]]:
        return [["evaluate", str(inputs["csv"]), "--cost-per-pioneer", repr(self.cost),
                 "--value-per-influenced", repr(self.value), "--out", str(cycle_dir / "0")]]

    def check(self, inputs: dict, cycle_dir: Path) -> tuple[list[list[str]], Optional[float]]:
        problems: list[str] = []
        rep = json.loads((cycle_dir / "0" / "evaluation.json").read_text())["report"]
        d, t = inputs["degree"], inputs["transmitter"]
        if rep["n_samples"] != self.rows or rep["verdict"] != "viable":
            problems.append(f"n_samples={rep['n_samples']} verdict={rep['verdict']}, expected {self.rows} viable")
            return [problems], None
        ref = oracle.plugin(d, t)
        err = 0.0
        for key, ref_key in (("xi_hat", "xi"), ("xi_bar_hat", "xi_bar"),
                             ("alpha_hat", "alpha"), ("alpha_bar_hat", "alpha_bar")):
            err = max(err, _compare(problems, key, rep[key], ref[ref_key]))
        frag = (int(np.dot(d, d)) - 2 * int(d.sum())) / self.rows
        eff = (int(np.dot(d, t)) - int(d.sum()) - int(t.sum())) / self.rows
        ab, a = rep["alpha_bar_hat"], rep["alpha_hat"]
        derived = [
            ("fragmentation stat", rep["fragmentation"]["stat"], frag),
            ("effectiveness stat", rep["effectiveness"]["stat"], eff),
            ("expected_tries", rep["expected_tries"], 1.0 / ab),
            ("expected_cost_to_viral", rep["expected_cost_to_viral"], self.cost / ab),
            ("value_rate_per_member", rep["value_rate_per_member"], self.value * a),
        ] + [(f"success_after[{k}]", s, 1.0 - (1.0 - ab) ** k) for k, s in enumerate(rep["success_after"], 1)]
        for label, got, want in derived:
            if not _close(got, want):
                problems.append(f"{label}={got}, expected {want}")
        return [problems], err


def full() -> dict:
    """The benchmark's workloads at their measured sizes."""
    return {w.name: w for w in (Simulate(), Sweep(), Analytic(), Evaluate())}


def toy() -> dict:
    """The same workloads at toy sizes, for the self-test."""
    return {w.name: w for w in (
        Simulate(n=4000, p=0.8, sim_tol=0.15),
        Sweep(n=1000, grid=(0.2, 1.0, 0.4), sim_tol=0.25),
        Analytic(transmissions=(("coupon", 3),)),
        Evaluate(rows=3000),
    )}

