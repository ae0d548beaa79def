"""Golden CLI outputs: the calls whose output bytes tier-1 pins.

    PYTHONPATH=src python tests/golden/regenerate.py

runs every case in a fresh temporary directory and rewrites
``manifest.json`` beside this file: the SHA-256 of each file a case writes,
and the Python, numpy and scipy versions that made them.  The tests run
the same cases and compare.  Each case runs from its own working directory
with a relative ``--out`` (and relative input paths), so the configuration
embedded in the outputs is the same string on every run.  A change that
alters output bytes on purpose regenerates the manifest in the same commit.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from viralcm.cli import main
from viralcm.estimators import write_sample_csv
from viralcm.populations import BernoulliTransmission, DegreeSample, JointDegreeLaw, PoissonDegree

MANIFEST = Path(__file__).with_name("manifest.json")

#: Degree list of the empirical-law cases, written to ``degrees.txt``.
DEGREES = [0, 1, 1, 2, 2, 2, 3, 3, 4, 5, 5, 7, 8, 13, 21]


def _analytic(*flags: str) -> list[str]:
    return ["analytic", *flags, "--seed", "1"]


def _simulation(command: str, *flags: str) -> list[str]:
    return [command, "--degree", "poisson", "--lambda", "2", "--n", "2000", "--seed", "7", *flags]


def _write_degrees() -> None:
    Path("degrees.txt").write_text("".join(f"{d}\n" for d in DEGREES))


def verdict_sample(verdict: str) -> DegreeSample:
    """A seeded 20 000-row pioneer sample that ``evaluate`` gives ``verdict``."""
    if verdict == "inconclusive":
        # every pioneer transmits to all of at least two neighbours, so the
        # plug-in H has no zero inside (0, 1)
        d = 2 + np.random.default_rng(4).poisson(2.0, 20_000)
        return DegreeSample(d, d)
    lam, p, seed = {"fragmented": (0.8, 0.5, 1), "ineffective": (3.0, 0.2, 2), "viable": (3.0, 0.6, 3)}[verdict]
    return JointDegreeLaw(PoissonDegree(lam), BernoulliTransmission(p)).sample(20_000, seed=seed)


_MODELS = (("bernoulli", "--p", "0.8"), ("nodeperc", "--p", "0.8"), ("coupon", "--K", "3"))

#: name -> (writes the case's input files into the working directory, or None; CLI argv)
ANALYTIC_CASES = {
    # the four calls of the analytic-powerlaw benchmark workload
    **{
        f"analytic-powerlaw-{trans}-{value}": (
            None,
            _analytic("--degree", "powerlaw", "--beta", "2.45", "--trans", trans, flag, value),
        )
        for trans, flag, value in (
            ("bernoulli", "--p", "0.1"),
            ("bernoulli", "--p", "0.3"),
            ("nodeperc", "--p", "0.3"),
            ("coupon", "--K", "3"),
        )
    },
    **{
        f"analytic-poisson2-{trans}": (
            None,
            _analytic("--degree", "poisson", "--lambda", "2", "--trans", trans, flag, value),
        )
        for trans, flag, value in _MODELS
    },
    **{
        f"analytic-empirical-{trans}": (
            _write_degrees,
            _analytic("--degree", "empirical", "--degree-file", "degrees.txt", "--trans", trans, flag, value),
        )
        for trans, flag, value in _MODELS
    },
    # coupon laws whose Stirling integers pass 2**53
    "analytic-poisson2-coupon-25": (
        None,
        _analytic("--degree", "poisson", "--lambda", "2", "--trans", "coupon", "--K", "25"),
    ),
    "analytic-empirical-coupon-25": (
        _write_degrees,
        _analytic("--degree", "empirical", "--degree-file", "degrees.txt", "--trans", "coupon", "--K", "25"),
    ),
    "analytic-powerlaw-coupon-6": (
        None,
        _analytic("--degree", "powerlaw", "--beta", "2.45", "--trans", "coupon", "--K", "6"),
    ),
    # closed forms of a power law with a finite second moment
    **{
        f"analytic-powerlaw3.2-coupon-{K}": (
            None,
            _analytic("--degree", "powerlaw", "--beta", "3.2", "--trans", "coupon", "--K", K),
        )
        for K in ("0", "1", "6")
    },
    "analytic-powerlaw3.2-nodeperc-0.5": (
        None,
        _analytic("--degree", "powerlaw", "--beta", "3.2", "--trans", "nodeperc", "--p", "0.5"),
    ),
    # 1.03 times bernoulli_threshold(PowerLawDegree(3.2)): 1 - xi is about 9e-9
    "analytic-powerlaw3.2-bernoulli-1.03pc": (
        None,
        _analytic("--degree", "powerlaw", "--beta", "3.2", "--trans", "bernoulli", "--p", "0.3743586649795251"),
    ),
}

SIMULATE_CASES = {
    **{
        f"simulate-bernoulli-{p}": (None, _simulation("simulate", "--trans", "bernoulli", "--p", p))
        for p in ("0.3", "0.52")
    },
    "simulate-bernoulli-0.8-dump-graph": (
        None,
        _simulation("simulate", "--trans", "bernoulli", "--p", "0.8", "--dump-graph"),
    ),
}

SWEEP_CASES = {
    "sweep-bernoulli": (None, _simulation("sweep", "--trans", "bernoulli", "--grid", "0.3:0.9:0.15")),
    "sweep-coupon": (None, _simulation("sweep", "--trans", "coupon", "--grid", "0:4:1")),
    # the power-law coupon closed form at several K in one call
    "sweep-powerlaw-coupon": (
        None,
        ["sweep", "--degree", "powerlaw", "--beta", "2.45", "--n", "2000", "--seed", "7"]
        + ["--trans", "coupon", "--grid", "0:6:2"],
    ),
}

EVALUATE_CASES = {
    f"evaluate-{verdict}": (
        lambda verdict=verdict: write_sample_csv(verdict_sample(verdict), "pioneers.csv"),
        ["evaluate", "pioneers.csv", "--cost-per-pioneer", "50", "--value-per-influenced", "2"],
    )
    for verdict in ("fragmented", "ineffective", "viable", "inconclusive")
}

CASES = {**ANALYTIC_CASES, **SIMULATE_CASES, **SWEEP_CASES, **EVALUATE_CASES}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def run_case(name: str) -> dict:
    """Run one case in the working directory; SHA-256 of each file under ``out``."""
    setup, argv = CASES[name]
    if setup is not None:
        setup()
    rc = main(argv + ["--out", "out"])
    if rc != 0:
        raise AssertionError(f"{name}: exit status {rc}")
    return {
        path.relative_to("out").as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path("out").rglob("*"))
        if path.is_file()
    }


def check_case(name: str) -> None:
    """Run one case in the working directory; raise naming each file that differs."""
    manifest = json.loads(MANIFEST.read_text())
    want, got = manifest["cases"][name], run_case(name)
    bad = [
        f"{name}: {file}: sha256 {got.get(file, 'missing')}, manifest {want.get(file, 'missing')}"
        for file in sorted(set(want) | set(got))
        if want.get(file) != got.get(file)
    ]
    if bad and manifest["versions"] != versions():
        bad.append(f"manifest made with {manifest['versions']}, installed {versions()}")
    if bad:
        raise AssertionError("\n".join(bad))


def regenerate() -> dict:
    cases = {}
    here = Path.cwd()
    for name in CASES:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                cases[name] = run_case(name)
            finally:
                os.chdir(here)
    manifest = {"versions": versions(), "cases": cases}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


if __name__ == "__main__":
    manifest = regenerate()
    print(f"wrote {len(manifest['cases'])} cases to {MANIFEST}", file=sys.stderr)
