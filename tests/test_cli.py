import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import viralcm
from viralcm.analytic import analyze
from viralcm.cli import (
    MAX_GRID_POINTS,
    RunConfig,
    _json_value,
    _parse_grid,
    _split,
    main,
    make_degree_law,
    make_transmission,
)
from viralcm.estimators import _READ_BYTES, write_sample_csv
from viralcm.populations import (
    BernoulliTransmission,
    CouponCollector,
    JointDegreeLaw,
    PoissonDegree,
)

from golden.regenerate import ANALYTIC_CASES, SIMULATE_CASES, SWEEP_CASES, check_case


def reject_constant(constant):
    raise AssertionError(f"non-JSON constant {constant}")


def check_golden(case):
    """``check_case``, and every JSON file it wrote is strict JSON."""
    check_case(case)
    for path in Path("out").rglob("*.json"):
        json.loads(path.read_text(), parse_constant=reject_constant)


def run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter that imports this checkout's viralcm."""
    src = str(Path(viralcm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )


def read_sweep(path):
    rows = []
    with open(path) as fh:
        data_lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(data_lines)
    for row in reader:
        rows.append(row)
    return rows


def _valid(cfg):
    try:
        cfg.validate()
        if cfg.grid is not None:
            _parse_grid(":".join(map(repr, cfg.grid)))
    except ValueError:
        return False
    return True


# strings that to_file writes and from_file reads back unchanged: printable
# ASCII without the leading or trailing blanks and quotes from_file strips
_plain_text = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12).filter(
    lambda s: s == s.strip().strip("'\"")
)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_grid_bound = st.floats(-1e300, 1e300)
_valid_configs = st.builds(
    RunConfig,
    degree=st.sampled_from(["poisson", "powerlaw", "empirical"]),
    lam=st.floats(1e-3, 1e3),
    beta=st.floats(2.0, 10.0, exclude_min=True),
    degree_file=st.none() | _plain_text,
    trans=st.sampled_from(["bernoulli", "nodeperc", "coupon"]),
    p=st.floats(0.0, 1.0),
    K=st.integers(0, 50),
    n=st.integers(1, 10**9),
    seed=st.integers(min_value=0),
    # a step of at least a thousandth of the span keeps the grid within MAX_GRID_POINTS
    grid=st.none()
    | st.tuples(_grid_bound, _grid_bound, st.floats(0.0, 1e300, exclude_min=True)).map(
        lambda g: (min(g[0], g[1]), max(g[0], g[1]), max(g[2], abs(g[1] - g[0]) / 1000))
    ),
    gamma=st.floats(0.0, 1.0, exclude_min=True),
    floor=st.floats(0.0, 1.0, exclude_max=True),
    z=st.floats(0.0, 1e6),
    cost_per_pioneer=st.none() | _finite,
    value_per_influenced=st.none() | _finite,
    out=_plain_text,
    dump_graph=st.booleans(),
).filter(_valid)

_config_keys = st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]) | st.text(
    max_size=8
)
_config_values = (
    st.text(max_size=12)
    | st.sampled_from(["1", "YES", "false", "maybe", "nan", "-inf", "1e3", "0:1:0.1", "1:0:0.1"])
    | st.integers().map(str)
    | st.floats().map(str)
)
_config_lines = st.tuples(_config_keys, _config_values).map("=".join) | st.text(max_size=20)


class TestConfig:
    @settings(
        derandomize=True,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(lines=st.lists(_config_lines, max_size=6))
    def test_parser_returns_config_or_value_error(self, tmp_path, lines):
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            cfg = RunConfig.from_file(path)
        except ValueError:
            return
        assert isinstance(cfg, RunConfig)

    @settings(
        derandomize=True,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cfg=_valid_configs)
    def test_valid_config_round_trips(self, tmp_path, cfg):
        path = tmp_path / "run.cfg"
        cfg.to_file(path)
        assert RunConfig.from_file(path) == cfg

    def test_boolean_spellings(self, tmp_path):
        path = tmp_path / "run.cfg"
        spellings = {"1": True, "True": True, "YES": True, "0": False, "fAlSe": False, "No": False}
        for text, value in spellings.items():
            path.write_text(f"dump_graph={text}\n")
            assert RunConfig.from_file(path).dump_graph is value
        path.write_text("n=5\ndump_graph=maybe\n")
        with pytest.raises(ValueError, match=r"run.cfg:2: dump_graph: .*'maybe'"):
            RunConfig.from_file(path)

    def test_round_trip_lossless(self, tmp_path):
        # every field away from its default, so a field the file format
        # drops or mistypes shows up as an inequality
        cfg = RunConfig(
            degree="powerlaw",
            lam=3.5,
            beta=2.7,
            degree_file="degrees.txt",
            trans="nodeperc",
            p=0.35,
            K=5,
            n=777,
            seed=123,
            grid=(0.0, 1.0, 0.02),
            gamma=0.4,
            floor=0.02,
            z=1.64,
            cost_per_pioneer=12.5,
            value_per_influenced=0.75,
            out=str(tmp_path),
            dump_graph=True,
        )
        default = RunConfig()
        assert all(getattr(cfg, k) != getattr(default, k) for k in cfg.to_dict())
        path = tmp_path / "run.cfg"
        cfg.to_file(path)
        assert RunConfig.from_file(path) == cfg

    def test_bad_number_names_line_and_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=3\nn=abc\n")
        with pytest.raises(ValueError, match=r"run.cfg:2: n: .*'abc'"):
            RunConfig.from_file(path)

    @pytest.mark.parametrize(
        "grid, problem",
        [
            ("0:x:1", "need finite start:stop:step, start <= stop, step > 0"),
            ("0:1:1e-12", f"{10**12 + 1} points, more than {MAX_GRID_POINTS}"),
        ],
    )
    def test_bad_grid_names_line(self, tmp_path, grid, problem):
        path = tmp_path / "run.cfg"
        path.write_text(f"seed=3\ngrid={grid}\n")
        with pytest.raises(ValueError) as exc:
            RunConfig.from_file(path)
        assert str(exc.value) == f"{path}:2: grid: '{grid}': {problem}"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus=1\n")
        with pytest.raises(ValueError):
            RunConfig.from_file(path)

    def test_validation_names_offending_field(self):
        # the law's fields are checked where the law is built
        cfg = RunConfig(degree="powerlaw", beta=1.5)
        with pytest.raises(ValueError) as exc:
            make_degree_law(cfg)
        assert "beta" in str(exc.value)

    @pytest.mark.parametrize(
        "make, problem",
        [
            (lambda path: None, "No such file or directory"),
            (lambda path: path.mkdir(), "Is a directory"),
            (lambda path: path.write_bytes(b"n=5\n\xff\n"), "'utf-8' codec can't decode byte 0xff in position 4"),
        ],
        ids=["missing", "directory", "not-utf-8"],
    )
    def test_unreadable_config_names_the_path(self, tmp_path, capsys, make, problem):
        path = tmp_path / "run.cfg"
        make(path)
        assert main(["analytic", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {path}: {problem}")
        assert not (tmp_path / "out").exists()

    def test_quoted_values(self, tmp_path):
        # a config value may be quoted, whatever its type
        path = tmp_path / "run.cfg"
        path.write_text("n='7'\ngrid=\"0:1:0.5\"\ndump_graph='yes'\nout=\"runs\"\n")
        assert RunConfig.from_file(path) == RunConfig(n=7, grid=(0.0, 1.0, 0.5), dump_graph=True, out="runs")

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        RunConfig(n=50, seed=4, p=0.0, out=str(tmp_path / "a")).to_file(cfg_path)
        rc = main(
            ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--n", "20"]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "b" / "outcome.json").read_text())
        assert payload["config"]["n"] == 20


class TestSimulate:
    def test_zero_transmission_all_reach_one(self, tmp_path):
        rc = main(
            [
                "simulate",
                "--degree",
                "poisson",
                "--lambda",
                "2",
                "--trans",
                "bernoulli",
                "--p",
                "0",
                "--n",
                "200",
                "--seed",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "reach_histogram.csv").read_text().splitlines()
        assert any(ln.startswith("# seed=1") for ln in lines)  # provenance
        hist = [ln for ln in lines if not ln.startswith("#")]
        assert hist[0] == "reach_fraction,count"
        assert len(hist) == 2  # single atom
        frac, count = hist[1].split(",")
        assert float(frac) == pytest.approx(1.0 / 200)
        assert int(count) == 200

    def test_same_seed_byte_identical(self, tmp_path):
        args = [
            "simulate",
            "--lambda",
            "2",
            "--p",
            "0.8",
            "--n",
            "300",
            "--seed",
            "9",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("outcome.json", "reach_histogram.csv"):
            a = (out_a / name).read_bytes()
            b = (out_b / name).read_bytes()
            # provenance embeds the output directory; normalize it away
            assert a.replace(b"/a", b"/_") == b.replace(b"/b", b"/_")

    def test_provenance_embedded(self, tmp_path):
        assert main(["simulate", "--n", "50", "--seed", "3", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "outcome.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["seed"] == 3
        assert payload["config"]["n"] == 50
        assert payload["config"]["trans"] == "bernoulli"

    def test_graph_dump_optional(self, tmp_path):
        rc = main(
            ["simulate", "--n", "30", "--seed", "2", "--dump-graph", "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "influence_arcs.txt").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["n"] == 30

    def test_supercritical_histogram_bimodal(self, tmp_path):
        # lambda=2, p=0.8: small components below 10% and an upper cluster
        # near the limiting influenced fraction (~0.64), nothing between
        rc = main(
            [
                "simulate",
                "--lambda",
                "2",
                "--p",
                "0.8",
                "--n",
                "1000",
                "--seed",
                "21",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        fractions, counts = [], []
        for line in (tmp_path / "reach_histogram.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("reach_fraction"):
                continue
            frac, count = line.split(",")
            fractions.append(float(frac))
            counts.append(int(count))
        low = sum(c for f, c in zip(fractions, counts) if f < 0.1)
        mid = sum(c for f, c in zip(fractions, counts) if 0.1 <= f < 0.5)
        high = [f for f in fractions if f >= 0.5]
        assert mid == 0
        assert low > 0 and len(high) > 0
        assert np.mean(high) == pytest.approx(0.6420, abs=0.05)


class TestSweep:
    def test_poisson_phase_transition_columns(self, tmp_path):
        rc = main(
            [
                "sweep",
                "--lambda",
                "2",
                "--trans",
                "bernoulli",
                "--grid",
                "0.1:0.9:0.2",
                "--n",
                "400",
                "--seed",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = read_sweep(tmp_path / "sweep.csv")
        assert [float(r["param"]) for r in rows] == pytest.approx([0.1, 0.3, 0.5, 0.7, 0.9])
        below = [r for r in rows if float(r["param"]) < 0.5]
        above = [r for r in rows if float(r["param"]) > 0.52]
        assert all(float(r["alpha_analytic"]) == 0.0 for r in below)
        assert all(float(r["alpha_analytic"]) > 0.0 for r in above)

    def test_node_percolation_alpha_bar_scaling(self, tmp_path):
        rc = main(
            [
                "sweep",
                "--lambda",
                "2",
                "--trans",
                "nodeperc",
                "--grid",
                "0.6:0.9:0.15",
                "--n",
                "400",
                "--seed",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        for row in read_sweep(tmp_path / "sweep.csv"):
            p = float(row["param"])
            assert float(row["alpha_bar_analytic"]) == pytest.approx(
                p * float(row["alpha_analytic"]), abs=1e-9
            )

    def test_powerlaw_positive_for_all_p(self, tmp_path):
        # beta = 2.45 < 3: no phase transition; every positive p is viral
        rc = main(
            [
                "sweep",
                "--degree",
                "powerlaw",
                "--beta",
                "2.45",
                "--trans",
                "bernoulli",
                "--grid",
                "0:0.4:0.1",
                "--n",
                "300",
                "--seed",
                "4",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = read_sweep(tmp_path / "sweep.csv")
        assert float(rows[0]["alpha_analytic"]) == 0.0  # p = 0 exactly
        assert all(float(r["alpha_analytic"]) > 0.0 for r in rows[1:])

    def test_coupon_analytic_columns_match_closed_form(self, tmp_path):
        rc = main(
            [
                "sweep",
                "--lambda",
                "2",
                "--trans",
                "coupon",
                "--grid",
                "1:4:1",
                "--n",
                "300",
                "--seed",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = read_sweep(tmp_path / "sweep.csv")
        assert [r["param"] for r in rows] == ["1", "2", "3", "4"]
        for row in rows:
            ana = analyze(JointDegreeLaw(PoissonDegree(2.0), CouponCollector(int(row["param"]))))
            assert float(row["alpha_analytic"]) == ana.alpha
            assert float(row["alpha_bar_analytic"]) == ana.alpha_bar
        # the simulated and plug-in columns, as written before the
        # closed-form columns were filled for coupon sweeps.  40-digit mpmath
        # puts the plug-in alpha at K = 3 and 4 at 0.44670497029273223 and
        # 0.55835305891144968, whose nearest floats are one ulp above the literals
        tracks = ["alpha_sim", "alpha_bar_sim", "alpha_semianalytic", "alpha_bar_semianalytic"]
        assert [[r[k] for k in tracks] for r in rows] == [
            ["0.01564102564102564", "0.26", "0.0", "0.0"],
            ["0.19543859649122805", "0.19", "0.0", "0.0"],
            ["0.42346224677716393", "0.6033333333333334"]
            + ["0.44670497029273215", "0.6660984172523159"],
            ["0.6150837138508372", "0.73", "0.5583530589114496", "0.7033057985436442"],
        ]

    def test_sanity_envelope(self, tmp_path):
        # where all three tracks exist, the plug-in estimate stays within
        # the simulation's distance to the analytic value plus 0.1
        rc = main(
            [
                "sweep",
                "--lambda",
                "2",
                "--p",
                "0.8",
                "--trans",
                "bernoulli",
                "--grid",
                "0.6:1.0:0.1",
                "--n",
                "1000",
                "--seed",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        for row in read_sweep(tmp_path / "sweep.csv"):
            ana = float(row["alpha_analytic"])
            semi = float(row["alpha_semianalytic"])
            sim = float(row["alpha_sim"])
            assert abs(ana - semi) <= abs(ana - sim) + 0.1

    def test_each_sample_is_freed_before_its_reach(self, tmp_path, monkeypatch):
        # the plug-in estimate comes first, so build holds the sample's only
        # reference and all_reach never runs beside its arrays
        samples, freed = [], []
        real_build, real_reach = viralcm.cli.build, viralcm.cli.all_reach

        def build(sample, rng):
            samples.append(weakref.ref(sample))
            return real_build(sample, rng)

        def all_reach(g, *args):
            freed.append(samples[-1]() is None)
            return real_reach(g, *args)

        monkeypatch.setattr("viralcm.cli.build", build)
        monkeypatch.setattr("viralcm.cli.all_reach", all_reach)
        assert main(["sweep", "--grid", "0.3:0.9:0.3", "--n", "300", "--out", str(tmp_path)]) == 0
        assert freed == [True, True, True]

    def test_grid_required(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path)]) == 2
        assert "grid" in capsys.readouterr().err


class TestAnalytic:
    def test_report_contents(self, tmp_path):
        rc = main(
            [
                "analytic",
                "--lambda",
                "2",
                "--p",
                "1.0",
                "--n",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "analysis.json").read_text())
        assert payload["result"]["alpha"] == pytest.approx(0.7968121300200199, abs=1e-6)
        assert payload["bernoulli_threshold"] == pytest.approx(0.5)
        assert payload["branching"]["supercritical"] is True
        assert payload["branching"]["alpha_bar_bp"] == pytest.approx(
            payload["result"]["alpha_bar"], abs=1e-9
        )

    def test_subcritical_reports_zeros(self, tmp_path):
        rc = main(
            ["analytic", "--lambda", "2", "--p", "0.3", "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "analysis.json").read_text())
        result = payload["result"]
        assert result["viral_condition"] is False
        assert result["alpha"] == 0.0 and result["alpha_bar"] == 0.0
        assert result["xi"] is None
        assert result["giant_condition"] is True  # the graph still percolates
        assert payload["branching"]["supercritical"] is False

    def test_coupon_bundle_vs_large_simulation(self, tmp_path):
        # closed-form coupon fractions against a large independent run
        rc = main(
            [
                "analytic",
                "--lambda",
                "2",
                "--trans",
                "coupon",
                "--K",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "analysis.json").read_text())

        from viralcm.diffusion import all_reach
        from viralcm.graph import build
        from viralcm.populations import CouponCollector

        law = JointDegreeLaw(PoissonDegree(2.0), CouponCollector(3))
        s = law.sample(10**5, seed=11)
        g = build(s, seed=12)
        out = all_reach(g)
        assert payload["result"]["alpha"] == pytest.approx(out.alpha_hat_sim, abs=0.02)
        assert payload["result"]["alpha_bar"] == pytest.approx(
            out.alpha_bar_hat_sim, abs=0.02
        )

    def test_powerlaw_root_closer_to_one_than_1e_6(self, tmp_path):
        # beta = 3.2 at 1.05 times the Bernoulli threshold: 1 - xi = 1.06e-7
        argv = ["analytic", "--degree", "powerlaw", "--beta", "3.2", "--trans", "bernoulli"]
        rc = main(argv + ["--p", "0.38163", "--out", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "analysis.json").read_text())["result"]
        assert result["viral_condition"]
        assert 0.0 < 1.0 - result["xi"] < 1e-6
        assert result["alpha"] > 0.0


class TestEvaluate:
    def test_well_formed_csv(self, tmp_path):
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8))
        csv_path = tmp_path / "pioneers.csv"
        write_sample_csv(law.sample(1000, seed=5), csv_path)
        rc = main(["evaluate", str(csv_path), "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "evaluation.json").read_text())
        assert payload["report"]["verdict"] == "viable"
        assert payload["input_csv"] == str(csv_path)

    @pytest.mark.parametrize("name, problem", [("nofile.csv", "No such file or directory"), (".", "Is a directory")])
    def test_unreadable_csv_names_the_path(self, tmp_path, capsys, monkeypatch, name, problem):
        monkeypatch.chdir(tmp_path)
        assert main(["evaluate", name, "--out", "out"]) == 2
        assert capsys.readouterr().err == f"error: {name}: {problem}\n"
        assert not Path("out").exists()

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("degree,transmitter_degree\n1,5\n")
        rc = main(["evaluate", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_one_row_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("degree,transmitter_degree\n3,1\n")
        assert main(["evaluate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: need at least two pioneers\n"
        assert not (tmp_path / "out").exists()


class TestGoldenOutputs:
    # each case runs from its own directory with relative paths, so the
    # configuration embedded in the outputs is the same string on every run
    @pytest.mark.parametrize("case", list(ANALYTIC_CASES))
    def test_analytic_bytes(self, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        check_golden(case)

    @pytest.mark.parametrize("case", list(SIMULATE_CASES))
    def test_simulate_bytes(self, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        check_golden(case)

    @pytest.mark.parametrize("case", list(SWEEP_CASES))
    def test_sweep_bytes(self, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        check_golden(case)


class TestGoldenEvaluation:
    @pytest.mark.parametrize("verdict", ["fragmented", "ineffective", "viable", "inconclusive"])
    def test_evaluation_bytes(self, tmp_path, monkeypatch, verdict):
        monkeypatch.chdir(tmp_path)
        check_golden(f"evaluate-{verdict}")
        assert json.loads(Path("out/evaluation.json").read_bytes())["report"]["verdict"] == verdict

    def test_multi_chunk_csv_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        check_golden("evaluate-lf-200000")
        assert Path("pioneers.csv").stat().st_size > 2 * _READ_BYTES


#: name -> (the one bad law field, with the fields it needs, as config keys; the error line)
_BAD_LAW_FIELDS = {
    "lam-negative": ({"lam": "-1"}, "lam: Poisson mean must be finite and positive, got -1.0"),
    "lam-nan": ({"lam": "nan"}, "lam: Poisson mean must be finite and positive, got nan"),
    "beta-2": ({"degree": "powerlaw", "beta": "2"}, "beta: exponent must be finite and > 2, got 2.0"),
    **{
        f"p-{trans}-{p}": ({"trans": trans, "p": p}, "p: transmission probability must lie in [0, 1]")
        for trans in ("bernoulli", "nodeperc")
        for p in ("1.5", "nan")
    },
    "K-negative": ({"trans": "coupon", "K": "-1"}, "K: message count must be a non-negative integer, got -1"),
    "degree-unknown": ({"degree": "foo"}, "degree: unknown law 'foo'"),
    "trans-unknown": ({"trans": "bar"}, "trans: unknown transmission model 'bar'"),
    "degree_file-required": ({"degree": "empirical"}, "degree_file: required for the empirical degree law"),
}
def _common_flags() -> dict:
    """``RunConfig`` field (and ``config``) -> its flag, from the CLI's flag table."""
    return {field: flag for flag, (field, _) in viralcm.cli._FLAGS.items()}


_FLAGS = _common_flags()
#: a Poisson coupon law's atom table, through the law and through the CLI,
#: under a 2 GiB address-space limit
_POISSON_TABLE_SCRIPT = """
import resource
import sys

from viralcm.cli import main
from viralcm.populations import PoissonDegree

resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
try:
    PoissonDegree(float(sys.argv[1])).atoms()
except ValueError as exc:
    print(exc)
sys.exit(main(["analytic", "--trans", "coupon", "--lambda", sys.argv[1], "--out", sys.argv[2]]))
"""
#: the seed-177 power-law sample near beta = 2 (one draw of 3.2e8) and its
#: VmHWM in kB, then its simulate, under a 1 GiB address-space limit
_POWERLAW_TAIL_SCRIPT = """
import resource
import sys

from viralcm.cli import main
from viralcm.populations import BernoulliTransmission, JointDegreeLaw, PowerLawDegree

resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
law = JointDegreeLaw(PowerLawDegree(2.0000011), BernoulliTransmission(0.5))
print(int(law.sample(1_000_000, 177).degree.max()))
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
argv = ["--degree", "powerlaw", "--beta", "2.0000011", "--n", "1000000", "--trans", "bernoulli", "--p", "0.5"]
sys.exit(main(["simulate", *argv, "--seed", "177", "--out", sys.argv[1]]))
"""
#: every field whose value has a type other than str or bool
_TYPED_FIELDS = ["lam", "beta", "p", "K", "n", "seed", "grid", "gamma", "floor", "z"]
_TYPED_FIELDS += ["cost_per_pioneer", "value_per_influenced"]
_BAD_LAW_FIELD_FORMS = [(case, via) for case in _BAD_LAW_FIELDS for via in ("flags", "config")]


class TestExitCodes:
    @pytest.mark.parametrize("command", ["simulate", "sweep", "analytic"])
    @pytest.mark.parametrize("case, via", _BAD_LAW_FIELD_FORMS)
    def test_bad_law_field_exact_error(self, tmp_path, capsys, command, case, via):
        fields, message = _BAD_LAW_FIELDS[case]
        if via == "flags":
            args = [f"--{'lambda' if key == 'lam' else key}={value}" for key, value in fields.items()]
        else:
            cfg_path = tmp_path / "run.cfg"
            cfg_path.write_text("".join(f"{key}={value}\n" for key, value in fields.items()))
            args = ["--config", str(cfg_path)]
        out = tmp_path / "out"
        assert main([command, *args, "--grid", "0:1:1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analytic", "--bogus", "1"], "--bogus: unknown flag"),
            (["analytic", "--lam", "3"], "--lam: unknown flag"),
            (["evaluate", "pioneers.csv", "--cost=1"], "--cost: unknown flag"),
            (["analytic", "--lambda"], "--lambda: expected a value"),
            ([], "command: expected one of simulate, sweep, analytic, evaluate, got ''"),
            (["--n", "5"], "command: expected one of simulate, sweep, analytic, evaluate, got '--n'"),
            (["simulat"], "command: expected one of simulate, sweep, analytic, evaluate, got 'simulat'"),
            (["evaluate"], "csv: evaluate takes one pioneer CSV, got []"),
            (["evaluate", "a.csv", "b.csv"], "csv: evaluate takes one pioneer CSV, got ['a.csv', 'b.csv']"),
            (["simulate", "--n", "5", "stray"], "csv: simulate takes no pioneer CSV, got ['stray']"),
        ],
        ids=[
            "unknown",
            "abbreviated",
            "abbreviated-eq",
            "no-value",
            "empty",
            "flag-first",
            "command",
            "no-csv",
            "two-csvs",
            "stray-word",
        ],
    )
    def test_malformed_command_lines_exit_2(self, tmp_path, capsys, monkeypatch, argv, message):
        # a unique prefix of a flag (--lam, --cost) is no flag either
        monkeypatch.chdir(tmp_path)  # the default out is "."
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not any(tmp_path.iterdir())

    def test_dump_graph_takes_a_value_after_equals_alone(self, tmp_path, capsys):
        csv_path = tmp_path / "pioneers.csv"
        write_sample_csv(JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8)).sample(200, seed=1), csv_path)
        assert main(["evaluate", "--dump-graph", str(csv_path), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "evaluation.json").read_text())["config"]["dump_graph"] is True
        out = tmp_path / "out"
        assert main(["simulate", "--n", "20", "--dump-graph", "no", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: csv: simulate takes no pioneer CSV, got ['no']\n"
        assert main(["simulate", "--n", "20", "--dump-graph=no", "--out", str(out)]) == 0
        assert not (out / "influence_arcs.txt").exists()

    @pytest.mark.parametrize(
        "lam, detail",
        [
            ("1e9", r"poisson\(1000000000\.0\) needs \d+ atoms for tail mass 1e-12; exceeds max_atoms=20000000"),
            ("1e12", r"poisson\(1000000000000\.0\) has no finite cutoff for tail mass 1e-12"),
            ("1.5e7", r"poisson\(15000000\.0\): weights sum to 0\.99999999\d+, not 1 within 1e-9"),
        ],
        ids=["1e9", "1e12", "1.5e7"],
    )
    def test_poisson_table_beyond_bound_names_lam(self, tmp_path, lam, detail):
        # the first two tables are refused before any array is allocated; the
        # address-space limit makes one that is built anyway fail here instead
        # of exhausting memory.  The 1.5e7 table is built (0.53 GB VmHWM and
        # 1.5 s in all under the 2 GiB limit), and its weights miss 1 by the
        # rounding of their logarithms
        proc = run_python(_POISSON_TABLE_SCRIPT, lam, str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        (message,) = proc.stdout.splitlines()
        assert re.fullmatch("lam: " + detail, message), message
        assert proc.stderr == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_sweep_rejects_bad_base_p(self, tmp_path, capsys):
        # the grid replaces p at every point, but the base value is still checked
        assert main(["sweep", "--p", "5", "--grid", "0:1:0.5", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: p: transmission probability must lie in [0, 1]\n"
        assert not any(tmp_path.iterdir())

    def test_invalid_field_exits_2(self, tmp_path, capsys):
        rc = main(["simulate", "--p", "1.5", "--out", str(tmp_path)])
        assert rc == 2
        assert "p:" in capsys.readouterr().err

    def test_evaluate_out_of_range_integer_exits_2(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("degree,transmitter_degree\n3,1\n99999999999999999999,1\n")
        rc = main(["evaluate", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "line 3: value beyond int64" in capsys.readouterr().err
        assert not (tmp_path / "evaluation.json").exists()

    # the (d, t) table is built before the first moment test, so a sample
    # whose pair keys overflow int64 fails whichever verdict it would reach
    @pytest.mark.parametrize(
        "rows", ["4611686018427387904,3\n1,0\n2,1\n", "4611686018427387904,3\n" * 4], ids=["fragmented", "viable"]
    )
    def test_evaluate_ungroupable_sample_exits_2(self, tmp_path, capsys, rows):
        path = tmp_path / "wide.csv"
        path.write_text("degree,transmitter_degree\n" + rows)
        rc = main(["evaluate", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: degrees too large to group: the pair key degree*4+transmitter_degree overflows int64"
        )
        assert not (tmp_path / "evaluation.json").exists()

    def test_evaluate_rejects_bad_z(self, tmp_path, capsys):
        csv_path = tmp_path / "pioneers.csv"
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8))
        write_sample_csv(law.sample(200, seed=1), csv_path)
        for z in ("nan", "inf", "-1"):
            rc = main(["evaluate", str(csv_path), "--z", z, "--out", str(tmp_path)])
            assert rc == 2
            assert "z:" in capsys.readouterr().err
        assert not (tmp_path / "evaluation.json").exists()

    def test_evaluate_validates_config(self, tmp_path, capsys):
        csv_path = tmp_path / "pioneers.csv"
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8))
        write_sample_csv(law.sample(200, seed=1), csv_path)
        rc = main(["evaluate", str(csv_path), "--gamma", "7", "--n", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert "n:" in capsys.readouterr().err
        assert not (tmp_path / "evaluation.json").exists()

    def test_evaluate_ignores_degree_law_fields(self, tmp_path):
        # evaluate reads its population from the CSV and builds no law
        csv_path = tmp_path / "pioneers.csv"
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8))
        write_sample_csv(law.sample(1000, seed=1), csv_path)
        rc = main(["evaluate", str(csv_path), "--degree", "empirical", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "evaluation.json").exists()

    def test_evaluate_rejects_non_finite_cost(self, tmp_path, capsys):
        csv_path = tmp_path / "pioneers.csv"
        law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8))
        write_sample_csv(law.sample(200, seed=1), csv_path)
        for flag in ("--cost-per-pioneer", "--value-per-influenced"):
            rc = main(["evaluate", str(csv_path), flag, "nan", "--out", str(tmp_path)])
            assert rc == 2
            assert flag[2:].replace("-", "_") + ":" in capsys.readouterr().err
        assert not (tmp_path / "evaluation.json").exists()

    def test_evaluate_overflowing_cost_is_divergent(self, tmp_path):
        # 1.7e308 times the expected tries overflows to inf, which JSON cannot spell
        csv_path = tmp_path / "pioneers.csv"
        law = JointDegreeLaw(PoissonDegree(3.0), BernoulliTransmission(0.6))
        write_sample_csv(law.sample(2000, seed=3), csv_path)
        rc = main(["evaluate", str(csv_path), "--cost-per-pioneer", "1.7e308", "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "evaluation.json").read_text()
        report = json.loads(text, parse_constant=reject_constant)["report"]
        assert report["verdict"] == "viable"
        assert report["expected_cost_to_viral"] == "divergent"

    @pytest.mark.parametrize(
        "command, beta, trans",
        [
            ("analytic", beta, trans)
            for beta in ("2.0000001", "3.0000001")
            for trans in ("bernoulli", "nodeperc", "coupon")
        ]
        + [("sweep", "3.0000001", "bernoulli")],
    )
    def test_beta_just_above_a_zeta_pole_names_beta(self, tmp_path, capsys, command, beta, trans):
        # the mean needs zeta(beta - 1) and, above 3, the second moment zeta(beta - 2)
        shift = "1" if beta.startswith("2") else "2"
        argv = [command, "--degree", "powerlaw", "--beta", beta, "--trans", trans, "--grid", "0:1:0.5"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: beta: exponent within 1e-06 above {beta[0]} puts zeta(beta - {shift}) "
            f"at its pole, got {beta}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "grid", ["0:inf:0.1", "-inf:1:0.1", "0:1:nan", "0:x:1", "0:1", "0:1:0", "1:0:0.1"]
    )
    def test_bad_grid_exits_2(self, tmp_path, capsys, grid):
        rc = main(["sweep", f"--grid={grid}", "--n", "100", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"grid: '{grid}': need finite start:stop:step, start <= stop, step > 0" in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_oversized_grid_exits_2(self, tmp_path, capsys):
        # the point count overflows to inf
        rc = main(["sweep", "--grid=0:1e308:1e-300", "--n", "100", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: grid: '0:1e308:1e-300': inf points, more than {MAX_GRID_POINTS}\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_grid_point_cap(self):
        # parsed only: a sweep over a grid that slipped through would build it
        assert _parse_grid(f"0:{MAX_GRID_POINTS - 1}:1") == (0.0, MAX_GRID_POINTS - 1.0, 1.0)
        for grid, points in [(f"0:{MAX_GRID_POINTS}:1", MAX_GRID_POINTS + 1), ("0:1:1e-12", 10**12 + 1)]:
            with pytest.raises(ValueError) as exc:
                _parse_grid(grid)
            assert str(exc.value) == f"grid: '{grid}': {points} points, more than {MAX_GRID_POINTS}"

    def test_zero_mean_degree_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "zeros.txt"
        path.write_text("0\n0\n0\n")
        argv = ["analytic", "--degree", "empirical", "--degree-file", str(path)]
        rc = main(argv + ["--out", str(tmp_path)])
        assert rc == 2
        assert "E[D] = 0" in capsys.readouterr().err
        assert not (tmp_path / "analysis.json").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--degree", "empirical"], ["--lambda", "1e-17"], ["--degree", "powerlaw", "--beta", "55"]],
        ids=["zeros-and-ones", "poisson-1e-17", "powerlaw-55"],
    )
    def test_vanishing_factorial_moment_threshold_is_divergent(self, tmp_path, flags):
        # E[D(D - 1)] = E[D^2] - E[D] cancels to 0 in float64, so the
        # threshold lies beyond about 1/eps and no p <= 1 is viral
        if "empirical" in flags:
            path = tmp_path / "zeros-and-ones.txt"
            path.write_text("0\n1\n1\n0\n1\n")
            flags = [*flags, "--degree-file", str(path)]
        assert main(["analytic", *flags, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "analysis.json").read_text()
        payload = json.loads(text, parse_constant=reject_constant)
        assert payload["bernoulli_threshold"] == "divergent"
        assert payload["result"]["viral_condition"] is False

    @pytest.mark.parametrize(
        "flags, field",
        [(["--degree", "powerlaw", "--beta", "inf"], "beta:"), (["--lambda", "nan"], "lam:")],
    )
    def test_non_finite_law_parameter_exits_2(self, tmp_path, capsys, flags, field):
        rc = main(["analytic", *flags, "--out", str(tmp_path)])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "analysis.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_huge_n_exits_2(self, tmp_path, capsys, command):
        # numpy refuses the 72.8 TiB degree array outright; an n whose arrays
        # the allocator might grant is never tried
        argv = [command, "--n", "10000000000000", "--grid", "0:1:0.5", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n: 10000000000000 nodes do not fit in memory: Unable to allocate")
        assert not any(tmp_path.iterdir())

    def test_half_edges_beyond_memory_name_the_degree_law(self, tmp_path, capsys):
        # three Poisson(1e12) degrees fit, but numpy refuses the 2.73 TiB of
        # their ~3e12 half-edges outright; the node count is not at fault
        argv = ["simulate", "--n", "3", "--degree", "poisson", "--lambda", "1e12", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.match(r"error: lam: \d{13} half-edges do not fit in memory: Unable to allocate", err)
        assert not any(tmp_path.iterdir())

    def test_powerlaw_far_tail_draw_is_small_and_its_half_edges_name_beta(self, tmp_path):
        # the draw of 320 055 290 bisects the Hurwitz zeta tail past the table
        # (0.12 s, 88 MB VmHWM); the graph's 3.28e8 half-edges, not its 1e6
        # nodes, are what cannot fit in 1 GiB
        proc = run_python(_POWERLAW_TAIL_SCRIPT, str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        largest, hwm_kb = map(int, proc.stdout.split())
        assert largest == 320_055_290
        assert hwm_kb < 256 * 1024
        assert proc.stderr.startswith("error: beta: 327939334 half-edges do not fit in memory: "), proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("n", [2**60, 2**63, 10**400], ids=["2^60", "2^63", "1e400"])
    def test_n_beyond_any_array_names_n(self, tmp_path, capsys, command, n):
        # numpy refuses an int64 array of 2**60 or more entries before allocating
        argv = [command, "--n", str(n), "--grid", "0:1:0.5", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: n: {n} nodes do not fit in memory: no int64 array is that long\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, lam, reason",
        [
            ("simulate", "1e19", "lam value too large"),  # numpy's bound on a Poisson mean
            ("simulate", "1e308", "E[D^2] = lam^2 + lam overflows a float, got 1e+308"),
            ("analytic", "1e308", "E[D^2] = lam^2 + lam overflows a float, got 1e+308"),
        ],
    )
    def test_poisson_mean_beyond_float_or_sampling_names_lam(self, tmp_path, capsys, command, lam, reason):
        argv = [command, "--n", "5", "--lambda", lam, "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: lam: {reason}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "out, problem", [("x" * 300, "File name too long"), ("taken", "File exists")], ids=["long", "file"]
    )
    def test_refused_output_directory_names_out(self, tmp_path, capsys, monkeypatch, out, problem):
        monkeypatch.chdir(tmp_path)
        Path("taken").write_text("")
        assert main(["analytic", "--out", out]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: out: [Errno ") and problem in line

    @pytest.mark.parametrize(
        "key, text",
        [(key, text) for key in _TYPED_FIELDS for text in ("abc", "")]
        + [(key, "2.5") for key in ("K", "n", "seed", "grid")],
    )
    def test_flag_and_config_line_fail_alike(self, tmp_path, capsys, key, text):
        # one rule converts both; the command line is only split
        out = str(tmp_path / "out")
        assert main(["simulate", f"{_FLAGS[key]}={text}", "--out", out]) == 2
        flag_err = capsys.readouterr().err
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"{key}={text}\n")
        assert main(["simulate", "--config", str(cfg_path), "--out", out]) == 2
        config_err = capsys.readouterr().err
        assert flag_err.startswith(f"error: {key}: ")
        assert config_err == flag_err.replace("error: ", f"error: {cfg_path}:1: ", 1)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_evaluate_checks_no_law_field(self, tmp_path, via):
        # evaluate builds no law, so neither source of a law field is checked beyond its type
        csv_path = tmp_path / "pioneers.csv"
        write_sample_csv(JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8)).sample(500, seed=1), csv_path)
        fields = {"degree": "foo", "lam": "-5", "beta": "1", "trans": "bar", "p": "7", "K": "-1"}
        if via == "flags":
            args = [f"{_FLAGS[key]}={value}" for key, value in fields.items()]
        else:
            (tmp_path / "run.cfg").write_text("".join(f"{key}={value}\n" for key, value in fields.items()))
            args = ["--config", str(tmp_path / "run.cfg")]
        assert main(["evaluate", str(csv_path), *args, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "evaluation.json").exists()

    @pytest.mark.parametrize(
        "argv, seed",
        [(["simulate", "--seed", "-1"], -1), (["sweep", "--seed", "-3", "--grid", "0:1:0.5"], -3), (["simulate"], -4)],
        ids=["simulate", "sweep", "config"],
    )
    def test_negative_seed_names_the_field(self, tmp_path, capsys, argv, seed):
        config = tmp_path / "run.cfg"
        config.write_text("seed=-4\n")
        assert main(argv + ["--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: seed: must be non-negative, got {seed}\n"
        assert not (tmp_path / "out").exists()

    def test_unresolvable_root_exits_2(self, tmp_path, capsys):
        # 1.001 times the Bernoulli threshold of beta = 3.2: 1 - xi ~ 3e-16
        # is below float64 resolution, so no zero can be bracketed
        argv = ["analytic", "--degree", "powerlaw", "--beta", "3.2", "--trans", "bernoulli"]
        rc = main(argv + ["--p", "0.3638184695577714", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "analysis.json").exists()

    def test_regular_law_has_its_giant_zero_at_the_origin(self, tmp_path):
        # a 3-regular law has no member of degree 1, so xi0 = 0 and the giant
        # component holds every member: H0 is never scanned
        path = tmp_path / "regular.txt"
        path.write_text("3\n3\n3\n")
        argv = ["analytic", "--degree", "empirical", "--degree-file", str(path), "--trans", "bernoulli", "--p", "0.8"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "analysis.json").read_text())["result"]
        want = {"xi": 0.25, "xi_bar": 0.0625, "xi0": 0.0, "alpha": 0.984375, "alpha_bar": 0.984375, "alpha0": 1.0}
        for key, value in want.items():
            assert result[key] == pytest.approx(value, rel=0, abs=1e-12), key

    def test_dense_poisson_giant_zero_below_the_scan_exits_2(self, tmp_path, capsys):
        # xi0 ~ e^-240 lies below the scan's 1e-100, while P{D=1} does not underflow
        assert main(["analytic", "--lambda", "240", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: giant condition holds (margin 5.74e+04) but no zero was bracketed\n"
        assert not (tmp_path / "analysis.json").exists()

    def test_nan_has_no_json_spelling(self):
        # every output goes through _json_value: a NaN is refused, naming its key
        assert _json_value({"a": [math.inf, 1.0]}) == {"a": ["divergent", 1.0]}
        for payload, key in [({"result": {"alpha": math.nan}}, "alpha"), ({"xs": [0.5, math.nan]}, "xs")]:
            with pytest.raises(ValueError) as exc:
                _json_value(payload)
            assert str(exc.value) == f"{key}: NaN has no JSON spelling"

    @pytest.mark.parametrize("K", [7, 200, 10**400], ids=["7", "200", "1e400"])
    def test_powerlaw_coupon_K_beyond_bound_exits_2(self, tmp_path, capsys, K):
        # the expansion's rounding bound admits K <= 6; K = 6 is a golden case,
        # and 10**400 lies beyond float range
        argv = ["analytic", "--degree", "powerlaw", "--beta", "2.45", "--trans", "coupon"]
        assert main(argv + ["--K", str(K), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: K: {K} is too large")
        assert not (tmp_path / "analysis.json").exists()

    def test_poisson_coupon_K_beyond_float_exits_2(self, tmp_path, capsys):
        # E[D(t) | D] needs K as a float; the law is never tabulated
        argv = ["analytic", "--trans", "coupon", "--K", str(10**400), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: K: {10**400} is too large for a float\n"
        assert not (tmp_path / "analysis.json").exists()

    @pytest.mark.parametrize("lam,K", [("2", 10**7), ("1e4", 1000)])
    def test_poisson_coupon_K_beyond_work_budget_exits_2(self, tmp_path, capsys, lam, K):
        # the exact occupancy arithmetic would take minutes: refused at once
        argv = ["analytic", "--lambda", lam, "--trans", "coupon", "--K", str(K), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: K: {K} needs about ")
        assert not (tmp_path / "analysis.json").exists()

    @pytest.mark.parametrize("K", [10**400, 2**60], ids=["1e400", "2^60"])
    def test_coupon_draws_beyond_memory_exit_2(self, tmp_path, capsys, K):
        # numpy refuses both draw matrices before allocating: 10**400 is no
        # array dimension, and 2**60 float64 draws for each of the members of
        # positive degree (43 of 50 here) exceed 2**63 bytes.  A K whose
        # matrix the allocator might grant is never tried
        argv = ["simulate", "--trans", "coupon", "--K", str(K), "--n", "50", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: K: {K} selections by each of 43 members do not fit in memory\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--degree", "powerlaw", "--trans", "coupon", "--grid", "0:10:1"], "error: K: 7 is too large"),
            (["--grid", "0:2:0.5"], "error: grid: transmission probabilities must lie in [0, 1]\n"),
            (["--trans", "coupon", "--grid", "0:2:0.5"], "error: grid: coupon sweeps need non-negative integer K values\n"),
        ],
        ids=["K", "p", "K-fraction"],
    )
    def test_sweep_checks_every_point_before_simulating(self, tmp_path, capsys, monkeypatch, flags, message):
        def no_graph(*args):
            raise AssertionError("a graph was built before every grid point was checked")

        monkeypatch.setattr("viralcm.cli.build", no_graph)
        assert main(["sweep", *flags, "--n", "200", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not any(tmp_path.iterdir())

    def test_sweep_builds_the_degree_law_once(self, tmp_path, monkeypatch):
        path = tmp_path / "degrees.txt"
        path.write_text("1\n2\n2\n3\n5\n")
        calls = []
        make = viralcm.cli.make_degree_law
        monkeypatch.setattr("viralcm.cli.make_degree_law", lambda cfg: calls.append(cfg) or make(cfg))
        argv = ["sweep", "--degree", "empirical", "--degree-file", str(path), "--grid", "0.2:0.8:0.3"]
        assert main(argv + ["--n", "200", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("1\n2.5\n", "could not convert string '2.5' to int64"),
            ("# no degrees\n", "empty degree list"),
            ("3\n-1\n", "degrees must be non-negative"),
            (None, "not found"),
        ],
        ids=["non-integer", "empty", "negative", "missing"],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_degree_file_names_the_field(self, tmp_path, capsys, text, detail):
        # a warning (numpy's on an empty file) would raise here, not reach stderr
        path = tmp_path / "degrees.txt"
        if text is not None:
            path.write_text(text)
        argv = ["analytic", "--degree", "empirical", "--degree-file", str(path), "--out", str(tmp_path)]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: degree_file: {path}: ") and detail in line


#: values the property test draws for every field, after the field's own valid ones
_HOSTILE = ["0", "-1", "nan", "inf", "-inf", "1e308", str(2**63), str(10**400), "abc", ""]
#: valid values; the paths are relative to an example's working directory
_VALID = {
    "config": ["../base.cfg"],
    "degree": ["poisson", "powerlaw", "empirical"],
    "lam": ["3"],
    "beta": ["3.2"],
    "degree_file": ["../degrees.txt"],
    "trans": ["bernoulli", "nodeperc", "coupon"],
    "p": ["0.6"],
    "K": ["3"],
    "n": ["300"],
    "seed": ["5"],
    "grid": ["0:1:0.5"],
    "gamma": ["0.5"],
    "floor": ["0.01"],
    "z": ["2"],
    "cost_per_pioneer": ["10"],
    "value_per_influenced": ["1"],
    "out": ["o"],
    "dump_graph": ["true", "no"],
}
#: the messages of the root step (RootBracketingError) name no field: a law
#: whose root float64 cannot resolve is ROADMAP item 2, not bad input
_ROOT_STEP = ("H ", "Hbar ", "H0 ", "viral condition ", "giant condition ")


@st.composite
def _cli_calls(draw):
    """A command, and one to three fields, each with a value and its source."""
    command = draw(st.sampled_from(["simulate", "sweep", "analytic", "evaluate"]))
    keys = draw(st.lists(st.sampled_from(list(_FLAGS)), min_size=1, max_size=3, unique=True))
    values = {key: draw(st.sampled_from(_VALID[key] + _HOSTILE)) for key in keys}
    # a flag is "--flag=value" or "--flag value"; a config file drawn as a
    # value leaves no room for config lines of our own
    forms = ["flag", "space"] if "config" in keys else ["flag", "space", "line"]
    # --dump-graph is a switch, which takes a value after "=" alone
    sources = {
        key: draw(st.sampled_from([form for form in forms if (key, form) != ("dump_graph", "space")]))
        for key in keys
    }
    return command, values, sources


def _number(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def _runnable(command, values) -> bool:
    """Whether running ``command`` with ``values`` commits no real memory or
    time.  A value that numpy or a law constructor refuses outright is safe;
    a large one that might be granted is not."""
    n, lam, K = (_number(values.get(key, "0")) for key in ("n", "lam", "K"))
    coupon_table = values.get("trans") == "coupon" and values.get("degree") != "powerlaw"
    try:
        start, stop, step = _parse_grid(values.get("grid", "0:1:1"))
        points = (stop - start) / step + 1
    except ValueError:
        points = 0
    return not (
        2000 < n < 2**60
        or 10 < lam < 1e19
        or 50 < K < 2**60
        or (K > 50 and coupon_table and command in ("analytic", "sweep"))
        or points > 20
    )


def _names_its_source(line: str, paths) -> bool:
    """``error: <field>: ``, ``error: <path>:<line>: <key>: ``, ``error: <path>: ``
    or a root-step message."""
    if not line.startswith("error: "):
        return False
    body = line.removeprefix("error: ")
    fields = [re.escape(f.name) for f in dataclasses.fields(RunConfig)]
    field = f"({'|'.join(fields)}): "
    return (
        body.startswith(_ROOT_STEP)
        or re.match(field, body) is not None
        or any(re.match(re.escape(path) + r":\d+: " + field, body) for path in paths)
        or any(body.startswith(f"{path}: ") for path in paths)
    )


class TestHelp:
    @pytest.mark.parametrize("argv", [["-h"], ["analytic", "--help"]], ids=["bare", "command"])
    def test_help_lists_every_field_once(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: viralcm ") and err == ""
        assert not any(tmp_path.iterdir())
        for field in dataclasses.fields(RunConfig):
            flag = "--lambda" if field.name == "lam" else "--" + field.name.replace("_", "-")
            assert len(re.findall(rf"(?<![\w-]){flag}(?![\w-])", out)) == 1, flag


class TestExitStatusProperty:
    """Every CLI call ends with exit 0, or exit 2 and a message that names
    the field, line or file at fault."""

    @settings(
        derandomize=True,
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(call=_cli_calls())
    def test_exit_0_or_2_naming_the_source(self, tmp_path, capsys, monkeypatch, call):
        command, values, sources = call
        if not (tmp_path / "pioneers.csv").exists():
            law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8))
            write_sample_csv(law.sample(300, seed=1), tmp_path / "pioneers.csv")
            (tmp_path / "degrees.txt").write_text("1\n2\n2\n3\n")
            (tmp_path / "base.cfg").write_text("n=200\n")
        # hostile out values are relative paths: each example has a directory of its own
        monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
        flags = []
        for key, value in values.items():
            if sources[key] == "flag":
                flags.append(f"{_FLAGS[key]}={value}")
            elif sources[key] == "space":
                flags += [_FLAGS[key], value]
        flags += [] if "n" in values else ["--n=300"]
        flags += [] if "grid" in values or command != "sweep" else ["--grid=0:1:0.5"]
        lines = [f"{key}={value}\n" for key, value in values.items() if sources[key] == "line"]
        if lines:
            Path("run.cfg").write_text("".join(lines))
            flags.append("--config=run.cfg")
        paths = [values.get("config", "run.cfg"), "../pioneers.csv"]
        argv = [command, *(["../pioneers.csv"] if command == "evaluate" else []), *flags]
        if not _runnable(command, values):
            # checked as far as the law's constructors, without running
            try:
                cfg = _split(argv)[2]
                cfg.validate()
                if command != "evaluate":
                    make_degree_law(cfg), make_transmission(cfg)
            except ValueError as exc:
                assert _names_its_source(f"error: {exc}", paths), exc
            return
        capsys.readouterr()
        rc = main(argv)
        assert rc in (0, 2)
        if rc == 2:
            err = capsys.readouterr().err
            assert _names_its_source(err.splitlines()[-1], paths), (argv, err)


_IMPORT_SET_SCRIPT = """
import json
import sys
from pathlib import Path

import viralcm
from viralcm.cli import main
from viralcm.estimators import write_sample_csv
from viralcm.populations import BernoulliTransmission, JointDegreeLaw, PoissonDegree

out = Path(sys.argv[1])
law = JointDegreeLaw(PoissonDegree(2.0), BernoulliTransmission(0.8))
write_sample_csv(law.sample(500, seed=1), out / "pioneers.csv")
for argv in (
    ["analytic", "--degree", "poisson", "--lambda", "2", "--trans", "bernoulli", "--p", "0.8"],
    ["analytic", "--degree", "powerlaw", "--beta", "2.45", "--trans", "coupon", "--K", "3"],
    ["evaluate", str(out / "pioneers.csv")],
):
    assert main(argv + ["--out", str(out)]) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.optimize")))))
"""

# the same calls, then a graph without a condensation, then one simulate:
# only the SCC step loads scipy's sparse stack (and with it scipy.linalg),
# while the package still re-exports the whole simulation layer
_SPARSE_IMPORT_SCRIPT = _IMPORT_SET_SCRIPT + """
from viralcm import all_reach, build, influenced_set


def sparse_modules():
    return sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.linalg")))


seen = {"analytic, evaluate": sparse_modules()}
assert influenced_set(build(law.sample(200, seed=1), seed=1), 0).size >= 1
seen["build, influenced_set"] = sparse_modules()
assert main(["simulate", "--n", "200", "--out", str(out / "simulate")]) == 0
seen["simulate"] = "scipy.sparse.csgraph" in sys.modules
print(json.dumps(seen))
"""


class TestImportSet:
    def test_no_scipy_stats_or_optimize(self, tmp_path):
        # a fresh interpreter: this test session may have loaded both already
        proc = run_python(_IMPORT_SET_SCRIPT, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_sparse_stack_only_at_condensation(self, tmp_path):
        proc = run_python(_SPARSE_IMPORT_SCRIPT, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {
            "analytic, evaluate": [],
            "build, influenced_set": [],
            "simulate": True,
        }
