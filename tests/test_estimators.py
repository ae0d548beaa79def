import csv
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from viralcm import estimators
from viralcm.analytic import analyze, build_genfns
from viralcm.estimators import (
    effectiveness_test,
    evaluate_campaign,
    fragmentation_test,
    load_sample_csv,
    write_sample_csv,
)
from viralcm.populations import (
    BernoulliTransmission,
    DegreeSample,
    EmpiricalDegree,
    JointDegreeLaw,
    PoissonDegree,
)
from viralcm.special import DiscretePmf


def poisson_bernoulli(lam=2.0, p=0.8):
    return JointDegreeLaw(PoissonDegree(lam), BernoulliTransmission(p))


class TestFragmentation:
    def test_all_degree_two_is_boundary(self):
        s = DegreeSample(np.full(100, 2), np.zeros(100, dtype=int))
        res = fragmentation_test(s)
        assert res.stat == 0.0
        assert not res.passed

    def test_all_degree_one_fails(self):
        s = DegreeSample(np.ones(100, dtype=int), np.zeros(100, dtype=int))
        res = fragmentation_test(s)
        assert res.stat == pytest.approx(-1.0)
        assert not res.passed

    def test_poisson_four_passes(self):
        law = poisson_bernoulli(4.0, 0.5)
        s = law.sample(1000, seed=0)
        res = fragmentation_test(s)
        # population value lam^2 + lam - 2 lam = 12
        assert res.stat == pytest.approx(12.0, abs=2.0)
        assert res.passed

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            fragmentation_test(DegreeSample(np.array([3]), np.array([1])))


class TestEffectiveness:
    def test_deterministic_pairs(self):
        s = DegreeSample(np.full(50, 3), np.full(50, 2))
        res = effectiveness_test(s)
        assert res.stat == pytest.approx(1.0)
        assert res.stderr == 0.0
        assert res.passed

    def test_zero_transmission_fails(self):
        law = poisson_bernoulli(2.0, 0.0)
        s = law.sample(1000, seed=1)
        res = effectiveness_test(s)
        assert res.stat == pytest.approx(-float(s.degree.mean()))
        assert not res.passed

    def test_supercritical_power_at_n1000(self):
        # population margin 0.4; Monte-Carlo power over 1000 replications
        # is 1.0 (frozen from this exact seeded run)
        law = poisson_bernoulli(2.0, 0.8)
        hits = sum(
            effectiveness_test(law.sample(1000, seed=seed)).passed for seed in range(1000)
        )
        assert hits >= 995


class TestEstimateFractions:
    def test_sample_matching_pmf_recovers_analytic(self):
        # multiplicities exactly proportional to a two-atom pmf, full
        # transmission: the plug-in estimate equals the analytic value
        d = np.array([1] * 30 + [4] * 70)
        s = DegreeSample(d, d.copy())
        est = analyze(s)
        pmf = DiscretePmf(np.array([1, 4]), np.array([0.3, 0.7]))
        law = JointDegreeLaw(EmpiricalDegree(pmf), BernoulliTransmission(1.0))
        res = analyze(law)
        assert est.alpha == pytest.approx(res.alpha, abs=1e-9)
        assert est.alpha_bar == pytest.approx(res.alpha_bar, abs=1e-9)

    def test_undersized_sample_never_crashes(self):
        law = poisson_bernoulli(2.0, 0.55)
        for seed in range(30):
            est = analyze(law.sample(50, seed=seed))
            assert 0.0 <= est.alpha <= 1.0
            assert 0.0 <= est.alpha_bar <= 1.0

    def test_estimator_zero_at_one_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            d = rng.integers(0, 30, size=n)
            t = rng.integers(0, d + 1)
            bundle = build_genfns(DegreeSample(d, t))
            assert bundle.h(1.0) == 0.0
            assert bundle.hbar(1.0) == 0.0

    def test_order_invariance(self):
        law = poisson_bernoulli(2.0, 0.8)
        s = law.sample(500, seed=3)
        perm = np.random.default_rng(4).permutation(len(s))
        shuffled = DegreeSample(s.degree[perm], s.transmitter_degree[perm])
        a, b = analyze(s), analyze(shuffled)
        assert a.alpha == b.alpha
        assert a.alpha_bar == b.alpha_bar

    def test_plugin_consistency_in_n(self):
        # estimation error shrinks by at least half per tenfold sample size
        law = poisson_bernoulli(2.0, 0.8)
        truth = analyze(law).alpha
        med = {}
        for n in (1000, 10000):
            errs = [
                abs(analyze(law.sample(n, seed=seed)).alpha - truth)
                for seed in range(50)
            ]
            med[n] = float(np.median(errs))
        assert med[10000] <= 0.5 * med[1000]


class TestVerdictMonotonicity:
    @staticmethod
    def bump_transmitters(s: DegreeSample) -> DegreeSample:
        extra = np.minimum(1, s.degree - s.transmitter_degree)
        return DegreeSample(s.degree, s.transmitter_degree + extra)

    def test_effectiveness_stat_never_decreases(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 300))
            d = rng.integers(0, 40, size=n)
            t = rng.integers(0, d + 1)
            s = DegreeSample(d, t)
            bumped = self.bump_transmitters(s)
            assert effectiveness_test(bumped).stat >= effectiveness_test(s).stat

    def test_no_viable_to_ineffective_flip_on_law_samples(self):
        for seed in range(30):
            s = poisson_bernoulli(2.0, 0.7).sample(500, seed=seed)
            before = evaluate_campaign(s)
            after = evaluate_campaign(self.bump_transmitters(s))
            if before.verdict == "viable":
                assert after.verdict != "ineffective"


class TestEvaluateCampaign:
    def test_all_zero_transmitters_ineffective(self):
        s = DegreeSample(np.full(200, 3), np.zeros(200, dtype=int))
        report = evaluate_campaign(s)
        assert report.verdict == "ineffective"

    def test_fragmented_short_circuits(self):
        s = DegreeSample(np.ones(200, dtype=int), np.ones(200, dtype=int))
        report = evaluate_campaign(s)
        assert report.verdict == "fragmented"

    def test_viable_end_to_end_with_geometry(self):
        law = poisson_bernoulli(2.0, 0.8)
        report = evaluate_campaign(law.sample(1000, seed=6))
        assert report.verdict == "viable"
        assert report.expected_tries == pytest.approx(1.0 / report.alpha_bar_hat)
        k = len(report.success_after)
        assert report.success_after[k - 1] == pytest.approx(
            1.0 - (1.0 - report.alpha_bar_hat) ** k
        )
        assert report.success_after == sorted(report.success_after)

    def test_geometric_formula_quarter(self):
        # alpha_bar = 0.25 gives 4 expected tries and ~0.944 after ten
        assert 1.0 / 0.25 == 4.0
        assert 1.0 - 0.75**10 == pytest.approx(0.9436864852905273)

    def test_cost_fields(self):
        law = poisson_bernoulli(2.0, 0.8)
        report = evaluate_campaign(
            law.sample(1000, seed=7), cost_per_pioneer=10.0, value_per_influenced=1.0
        )
        assert report.expected_cost_to_viral == pytest.approx(10.0 * report.expected_tries)
        assert report.value_rate_per_member == pytest.approx(report.alpha_hat)

    def test_report_round_trips_to_dict(self):
        report = evaluate_campaign(poisson_bernoulli().sample(500, seed=8))
        d = report.to_dict()
        assert d["verdict"] == report.verdict
        assert d["n_samples"] == 500


def reference_load_sample_csv(path) -> DegreeSample:
    """The row-by-row ``csv``/``int()`` loader that the numpy loader replaced."""
    degrees: list[int] = []
    transmitters: list[int] = []
    errors: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != estimators.CSV_HEADER:
            raise ValueError(
                f"{path}: expected header '{','.join(estimators.CSV_HEADER)}', got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                errors.append(f"line {lineno}: expected 2 fields, got {len(row)}")
                continue
            try:
                d, t = int(row[0]), int(row[1])
            except ValueError:
                errors.append(f"line {lineno}: non-integer value in {row}")
                continue
            if d < 0 or t < 0:
                errors.append(f"line {lineno}: negative degree in {row}")
            elif t > d:
                errors.append(f"line {lineno}: transmitter_degree {t} exceeds degree {d}")
            else:
                degrees.append(d)
                transmitters.append(t)
    if errors:
        raise ValueError(f"{path}: rejected rows:\n" + "\n".join(errors))
    if not degrees:
        raise ValueError(f"{path}: no data rows")
    return DegreeSample(np.array(degrees), np.array(transmitters))


def reference_write_sample_csv(sample: DegreeSample, path) -> None:
    """The per-row ``csv.writer`` writer that the numpy writer replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(estimators.CSV_HEADER)
        for d, t in zip(sample.degree, sample.transmitter_degree):
            writer.writerow([int(d), int(t)])


def load_outcome(loader, path):
    """("ok", degrees, transmitters) or ("rejected", the reported line numbers)."""
    try:
        s = loader(path)
    except ValueError as exc:
        return ("rejected", [int(n) for n in re.findall(r"^line (\d+):", str(exc), re.M)])
    return ("ok", s.degree.tolist(), s.transmitter_degree.tolist())


def rejected_lines(path) -> list[int]:
    outcome = load_outcome(load_sample_csv, path)
    assert outcome[0] == "rejected"
    return outcome[1]


INT64_MAX = np.iinfo(np.int64).max

#: Lines both loaders reject.
MALFORMED_LINES = ["x,1", "3,y", "1.5,1", "1e3,1", "-1,0", "0,-1", ",3", "3,", "3", "3,1,2", "abc"]


@st.composite
def pioneer_lines(draw):
    kind = draw(st.sampled_from(["valid", "valid", "valid", "exceeds", "blank", "malformed"]))
    if kind == "blank":
        return ""
    if kind == "malformed":
        return draw(st.sampled_from(MALFORMED_LINES))
    a, b = sorted(draw(st.lists(st.integers(0, INT64_MAX - 1), min_size=2, max_size=2)))
    if kind == "exceeds" and a == b:
        b += 1
    d, t = (b, a) if kind == "valid" else (a, b)
    zeros = "0" * draw(st.integers(0, 25))
    return f"{zeros}{d},{t}"


@st.composite
def pioneer_files(draw):
    """Header and lines in the grammar both loaders share, CRLF and LF mixed."""
    lines = ["degree,transmitter_degree"] + draw(st.lists(pioneer_lines(), max_size=30))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


class TestCsvInterface:
    def test_round_trip(self, tmp_path):
        s = poisson_bernoulli().sample(100, seed=9)
        path = tmp_path / "pioneers.csv"
        write_sample_csv(s, path)
        loaded = load_sample_csv(path)
        assert np.array_equal(loaded.degree, s.degree)
        assert np.array_equal(loaded.transmitter_degree, s.transmitter_degree)

    def test_malformed_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "degree,transmitter_degree\n3,1\n2,5\nx,1\n4,2\n"
        )
        with pytest.raises(ValueError) as exc:
            load_sample_csv(path)
        msg = str(exc.value)
        assert "line 3" in msg and "line 4" in msg and "line 5" not in msg

    def test_header_required(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("3,1\n2,1\n")
        with pytest.raises(ValueError):
            load_sample_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("degree,transmitter_degree\n3,1\n\n2,0\n")
        loaded = load_sample_csv(path)
        assert len(loaded) == 2

    def test_bom_and_crlf(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes("\ufeffdegree,transmitter_degree\r\n3,1\r\n\r\n2,0\r\n".encode("utf-8"))
        loaded = load_sample_csv(path)
        assert loaded.degree.tolist() == [3, 2]
        assert loaded.transmitter_degree.tolist() == [1, 0]

    @pytest.mark.parametrize("body", ["", "\n\r\n\n"])
    def test_header_only_file_has_no_data_rows(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text("degree,transmitter_degree\n" + body, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                load_sample_csv(path)

    def test_writer_bytes_match_csv_writer(self, tmp_path):
        s = poisson_bernoulli(lam=30.0).sample(3000, seed=4)
        write_sample_csv(s, tmp_path / "new.csv")
        reference_write_sample_csv(s, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_value_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(
            f"degree,transmitter_degree\n{INT64_MAX},1\n{INT64_MAX + 1},1\n99999999999999999999,1\n"
        )
        with pytest.raises(ValueError, match="line 3: value beyond int64"):
            load_sample_csv(path)
        assert rejected_lines(path) == [3, 4]
        path.write_text(f"degree,transmitter_degree\n{'9' * 5000},1\n1,0\n0{INT64_MAX:0>30},1\n")
        assert rejected_lines(path) == [2]
        path.write_text(f"degree,transmitter_degree\n{INT64_MAX},{INT64_MAX}\n")
        assert load_sample_csv(path).degree.tolist() == [INT64_MAX]

    def test_every_problem_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("degree,transmitter_degree\n3\n-1,0\n2,5\n")
        with pytest.raises(ValueError) as exc:
            load_sample_csv(path)
        msg = str(exc.value)
        assert "line 2: expected two fields of digits 0-9, got '3'" in msg
        assert "line 3: expected two fields of digits 0-9, got '-1,0'" in msg
        assert "line 4: transmitter_degree 5 exceeds degree 2" in msg

    def test_cr_only_line_ends_rejected(self, tmp_path):
        # csv read a lone CR as a line end; the grammar takes LF or CRLF only
        path = tmp_path / "mac.csv"
        path.write_bytes(b"degree,transmitter_degree\r3,1\r2,1\r")
        assert load_outcome(reference_load_sample_csv, path)[0] == "ok"
        with pytest.raises(ValueError, match="lone CR line ends are not supported"):
            load_sample_csv(path)

    def test_lone_cr_messages_stay_short(self, tmp_path):
        rows = b"\r".join(b"%d,1" % (i % 50 + 1) for i in range(100_000))
        path = tmp_path / "mac.csv"
        path.write_bytes(b"degree,transmitter_degree\r" + rows)
        with pytest.raises(ValueError) as exc:
            load_sample_csv(path)
        assert len(str(exc.value)) < 200
        path.write_bytes(b"degree,transmitter_degree\n" + rows)
        with pytest.raises(ValueError, match="line 2: expected two fields") as exc:
            load_sample_csv(path)
        assert len(str(exc.value)) < 200

    @pytest.mark.parametrize(
        "body, expected",
        [
            pytest.param(b"3,1\r4,2", "line 2: expected two fields of digits 0-9, got '3,1\\r4,2'", id="lone-cr-mid-line"),
            pytest.param(b"3,1\n2,0\r", ([3, 2], [1, 0]), id="cr-at-eof"),
            pytest.param(b"3,1\r\r\n", "line 2: expected two fields of digits 0-9, got '3,1\\r'", id="cr-cr-lf"),
            pytest.param(b"0" * 30 + b"7,1\n", ([7], [1]), id="thirty-leading-zeros"),
            pytest.param(b"128,127\n", ([128], [127]), id="int8-edge"),
            pytest.param(b"32768,1\n", ([32768], [1]), id="int16-edge"),
            pytest.param(b"2147483648,1\n", ([2147483648], [1]), id="int32-edge"),
            pytest.param(b"%d,1\n" % INT64_MAX, ([INT64_MAX], [1]), id="int64-max"),
            pytest.param(b"%d,1\n" % (INT64_MAX + 1), f"line 2: value beyond int64 in '{INT64_MAX + 1},1'", id="int64-max-plus-one"),
            pytest.param(b"1,%d\n" % (INT64_MAX + 1), f"line 2: value beyond int64 in '1,{INT64_MAX + 1}'", id="t-beyond-int64"),
            pytest.param(b"1" + b"0" * 19 + b",0\n", f"line 2: value beyond int64 in '1{'0' * 19},0'", id="nonzero-place-19"),
            pytest.param(b"3,1,2\n", "line 2: expected two fields of digits 0-9, got '3,1,2'", id="three-fields"),
            pytest.param(b"3\n", "line 2: expected two fields of digits 0-9, got '3'", id="one-field"),
            pytest.param(b"3,\n", "line 2: expected two fields of digits 0-9, got '3,'", id="empty-field"),
            pytest.param(b"", None, id="header-only"),
        ],
    )
    def test_accept_reject_table(self, tmp_path, body, expected):
        path = tmp_path / "table.csv"
        path.write_bytes(b"degree,transmitter_degree\n" + body)
        if isinstance(expected, tuple):
            loaded = load_sample_csv(path)
            assert (loaded.degree.tolist(), loaded.transmitter_degree.tolist()) == expected
            return
        with pytest.raises(ValueError) as exc:
            load_sample_csv(path)
        if expected is None:
            assert str(exc.value) == f"{path}: no data rows"
        else:
            assert str(exc.value) == f"{path}: rejected rows:\n{expected}"

    def test_quoted_header_rejected(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('"degree","transmitter_degree"\n3,1\n')
        assert load_outcome(reference_load_sample_csv, path)[0] == "ok"
        with pytest.raises(ValueError, match="expected header"):
            load_sample_csv(path)

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param(" 3,1", id="leading-space"),
            pytest.param("3, 1", id="space-after-comma"),
            pytest.param("3,1 ", id="trailing-space"),
            pytest.param("3\t,1", id="tab"),
            pytest.param("+3,1", id="plus-sign"),
            pytest.param("1_000,1", id="digit-separator"),
            pytest.param('"3","1"', id="quoted-fields"),
            pytest.param("\u0663,\u0661", id="non-ascii-digits"),
            pytest.param("   ", id="whitespace-only-line"),
            pytest.param(",", id="empty-fields-line"),
        ],
    )
    def test_forms_dropped_from_the_grammar(self, tmp_path, line):
        # int() and csv accepted (or skipped) each of these lines
        path = tmp_path / "dropped.csv"
        path.write_text(f"degree,transmitter_degree\n3,1\n{line}\n2,1\n", encoding="utf-8")
        assert load_outcome(reference_load_sample_csv, path)[0] == "ok"
        assert rejected_lines(path) == [3]


def grammar_outcome(data: bytes):
    """``load_outcome`` for a file whose header line ends in LF, by the
    documented grammar, line by line."""
    degrees, transmitters, bad = [], [], []
    for lineno, line in enumerate(data.split(b"\n")[1:], start=2):
        line = line.removesuffix(b"\r")
        row = re.fullmatch(rb"([0-9]+),([0-9]+)", line)
        if row and int(row[2]) <= int(row[1]) <= INT64_MAX:
            degrees.append(int(row[1]))
            transmitters.append(int(row[2]))
        elif line:
            bad.append(lineno)
    if bad or not degrees:
        return ("rejected", bad)
    return ("ok", degrees, transmitters)


#: Byte runs that break lines in ways the generated valid lines do not; the
#: 20-digit field is nonzero only in its place 19.
BYTE_NOISE = st.lists(
    st.sampled_from(
        [b"0", b"7", b"9", b"10000000000000000000", b",", b"\r", b"\n", b" ", b"\t", b"+", b"-", b'"', b"\xc2\xa0"]
    ),
    max_size=6,
).map(b"".join)


@st.composite
def noisy_files(draw):
    header = b"degree,transmitter_degree" + draw(st.sampled_from([b"\n", b"\r\n"]))
    lines = pioneer_lines().map(lambda line: line.encode() + b"\n")
    parts = st.one_of(lines, lines, BYTE_NOISE, st.just(b"99999999999999999999,1\n"))
    return header + b"".join(draw(st.lists(parts, max_size=20)))


class TestLoaderOracle:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=pioneer_files(), read=st.integers(1, 48))
    def test_matches_reference_loader(self, tmp_path, text, read):
        path = tmp_path / "pioneers.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(estimators, "_READ_BYTES", read):
            got = load_outcome(load_sample_csv, path)
        assert got == load_outcome(reference_load_sample_csv, path)

    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=noisy_files(), read=st.integers(1, 48))
    def test_matches_grammar(self, tmp_path, data, read):
        # stray CRs, spaces, signs and quotes must not slip through np.loadtxt
        path = tmp_path / "pioneers.csv"
        path.write_bytes(data)
        with mock.patch.object(estimators, "_READ_BYTES", read):
            assert load_outcome(load_sample_csv, path) == grammar_outcome(data)

    @pytest.mark.parametrize("bad", [b"5,6", b"5, 6", b"5,6,"])
    def test_bad_row_deep_in_a_long_file(self, tmp_path, bad):
        s = poisson_bernoulli(lam=30.0).sample(2000, seed=2)
        path = tmp_path / "pioneers.csv"
        write_sample_csv(s, path)
        lines = path.read_bytes().split(b"\r\n")
        lines[777] = bad
        path.write_bytes(b"\r\n".join(lines))
        for read in (1, 7, 64, 1 << 18):
            with mock.patch.object(estimators, "_READ_BYTES", read):
                assert rejected_lines(path) == [778]
