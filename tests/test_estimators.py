import numpy as np
import pytest

from viralcm.analytic import analyze, build_genfns
from viralcm.estimators import (
    EvalConfig,
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
            law.sample(1000, seed=7),
            EvalConfig(cost_per_pioneer=10.0, value_per_influenced=1.0),
        )
        assert report.expected_cost_to_viral == pytest.approx(10.0 * report.expected_tries)
        assert report.value_rate_per_member == pytest.approx(report.alpha_hat)

    def test_report_round_trips_to_dict(self):
        report = evaluate_campaign(poisson_bernoulli().sample(500, seed=8))
        d = report.to_dict()
        assert d["verdict"] == report.verdict
        assert d["n_samples"] == 500


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
