import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import viralcm
from viralcm.analytic import analyze
from viralcm.cli import MAX_GRID_POINTS, RunConfig, _parse_grid, main, make_degree_law
from viralcm.estimators import write_sample_csv
from viralcm.populations import (
    BernoulliTransmission,
    CouponCollector,
    JointDegreeLaw,
    PoissonDegree,
)

from golden.regenerate import ANALYTIC_CASES, SIMULATE_CASES, SWEEP_CASES, check_case


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
    seed=st.integers(),
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
        # closed-form columns were filled for coupon sweeps
        tracks = ["alpha_sim", "alpha_bar_sim", "alpha_semianalytic", "alpha_bar_semianalytic"]
        assert [[r[k] for k in tracks] for r in rows] == [
            ["0.01564102564102564", "0.26", "0.0", "0.0"],
            ["0.19543859649122805", "0.19", "0.0", "0.0"],
            ["0.42346224677716393", "0.6033333333333334"]
            + ["0.44670497029273215", "0.6660984172523159"],
            ["0.6150837138508372", "0.73", "0.5583530589114497", "0.7033057985436442"],
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


class TestGoldenOutputs:
    # each case runs from its own directory with relative paths, so the
    # configuration embedded in the outputs is the same string on every run
    @pytest.mark.parametrize("case", list(ANALYTIC_CASES))
    def test_analytic_bytes(self, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        check_case(case)

    @pytest.mark.parametrize("case", list(SIMULATE_CASES))
    def test_simulate_bytes(self, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        check_case(case)

    @pytest.mark.parametrize("case", list(SWEEP_CASES))
    def test_sweep_bytes(self, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        check_case(case)


class TestGoldenEvaluation:
    @pytest.mark.parametrize("verdict", ["fragmented", "ineffective", "viable", "inconclusive"])
    def test_evaluation_bytes(self, tmp_path, monkeypatch, verdict):
        monkeypatch.chdir(tmp_path)
        check_case(f"evaluate-{verdict}")
        assert json.loads(Path("out/evaluation.json").read_bytes())["report"]["verdict"] == verdict


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
#: the unknown names are not among the flags' choices, so only a config file can give them
_BAD_LAW_FIELD_FORMS = [
    (case, via)
    for case in _BAD_LAW_FIELDS
    for via in (("config",) if case.endswith("-unknown") else ("flags", "config"))
]


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

    def test_unresolvable_root_exits_2(self, tmp_path, capsys):
        # 1.001 times the Bernoulli threshold of beta = 3.2: 1 - xi ~ 3e-16
        # is below float64 resolution, so no zero can be bracketed
        argv = ["analytic", "--degree", "powerlaw", "--beta", "3.2", "--trans", "bernoulli"]
        rc = main(argv + ["--p", "0.3638184695577714", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "analysis.json").exists()

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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--degree", "powerlaw", "--trans", "coupon", "--grid", "0:10:1"], "error: K: 7 is too large"),
            (["--grid", "0:2:0.5"], "error: grid: transmission probabilities must lie in [0, 1]\n"),
        ],
        ids=["K", "p"],
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


class TestImportSet:
    def test_no_scipy_stats_or_optimize(self, tmp_path):
        # a fresh interpreter: this test session may have loaded both already
        src = str(Path(viralcm.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_SET_SCRIPT, str(tmp_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []
