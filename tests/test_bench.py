"""Benchmark harness: generators, query workloads, metrics, artifacts."""

import math
import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest

from openpop.bench import (
    FlightsLikeSpec,
    RangeQuerySpec,
    ResultTable,
    SpiralSpec,
    box_count,
    emit_csv,
    emit_svg_boxplot,
    gen_flightslike,
    gen_range_queries,
    gen_spiral,
    percent_difference,
    read_csv,
    run_flightslike_experiment,
    run_spiral_experiment,
    spiral_marginals,
    summarize_by_method,
    summary_stats,
    w1_to_marginal,
)
from openpop.errors import ConfigError
from openpop.mswg import TrainConfig

SMALL_SPIRAL = SpiralSpec(population_size=4000, sample_size=400, seed=0)


class TestPercentDifference:
    def test_plain(self):
        assert percent_difference(90.0, 100.0) == pytest.approx(10.0)

    def test_exact(self):
        assert percent_difference(100.0, 100.0) == 0.0

    def test_zero_truth_zero_estimate(self):
        assert percent_difference(0.0, 0.0) == 0.0

    def test_zero_truth_nonzero_estimate_excluded(self):
        assert percent_difference(5.0, 0.0) is None


class TestSpiralGenerator:
    def test_sizes_and_determinism(self):
        data = gen_spiral(SMALL_SPIRAL)
        assert data.population.shape == (4000, 2)
        assert data.sample.shape == (400, 2)
        again = gen_spiral(SMALL_SPIRAL)
        assert np.array_equal(data.population, again.population)
        assert np.array_equal(data.sample, again.sample)

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            SpiralSpec(population_size=10, sample_size=10)
        with pytest.raises(ConfigError):
            SpiralSpec(noise_sigma=-1)

    def test_zero_bias_exponent_is_uniform(self):
        biased = gen_spiral(SMALL_SPIRAL)
        flat = gen_spiral(SpiralSpec(population_size=4000, sample_size=400,
                                     seed=0, bias_exponent=0.0))

        def theta_shift(data):
            # KS-style discrepancy between sample and population on theta
            grid = np.linspace(data.population_theta.min(),
                               data.population_theta.max(), 50)
            pop_cdf = np.searchsorted(np.sort(data.population_theta), grid) / len(
                data.population_theta)
            samp_cdf = np.searchsorted(np.sort(data.sample_theta), grid) / len(
                data.sample_theta)
            return float(np.max(np.abs(pop_cdf - samp_cdf)))

        assert theta_shift(biased) > theta_shift(flat)


class TestRangeQueries:
    def test_full_coverage_box_is_everything(self):
        data = gen_spiral(SMALL_SPIRAL)
        (box,) = gen_range_queries(data.population, RangeQuerySpec(1.0, 1, 3))
        assert box_count(data.population, box) == len(data.population)

    def test_reproducible_per_seed(self):
        data = gen_spiral(SMALL_SPIRAL)
        a = gen_range_queries(data.population, RangeQuerySpec(0.8, 100, 5))
        b = gen_range_queries(data.population, RangeQuerySpec(0.8, 100, 5))
        assert np.array_equal(a, b)
        assert a.shape == (100, 4)

    def test_narrow_coverage_valid(self):
        data = gen_spiral(SMALL_SPIRAL)
        boxes = gen_range_queries(data.population, RangeQuerySpec(0.01, 10, 1))
        span = data.population.max(axis=0) - data.population.min(axis=0)
        widths = boxes[:, 1] - boxes[:, 0]
        assert np.allclose(widths, 0.01 * span[0])

    def test_weighted_count(self):
        points = np.array([[0.0, 0.0], [5.0, 5.0]])
        assert box_count(points, (-1, 1, -1, 1), weights=[3.0, 7.0]) == 3.0


class TestSpiralExperiment:
    def test_output_schema_and_content(self):
        cfg = TrainConfig(coverage_weight=0.04, latent_dim=2, batch_size=64,
                          epochs=4, layers=(32, 32), seed=0)
        table = run_spiral_experiment(SMALL_SPIRAL, (0.5, 0.8), repeats=3,
                                      query_count=20, train_cfg=cfg)
        assert table.columns[:3] == ["coverage", "method", "mean"]
        assert {row[1] for row in table.rows} == {"unif", "mswg"}
        assert len(table.rows) == 4
        for row in table.rows:
            assert math.isfinite(row[2])

    def test_unif_only_runs_without_training(self):
        table = run_spiral_experiment(SMALL_SPIRAL, (0.8,), methods=("unif",),
                                      query_count=10)
        assert len(table.rows) == 1


class TestFlightsLike:
    def test_population_and_sample_shapes(self):
        spec = FlightsLikeSpec(population_size=20_000, seed=1)
        data = gen_flightslike(spec)
        assert len(data.population.columns["E"]) == 20_000
        assert len(data.sample) == 1000
        elapsed = data.sample.columns["E"]
        assert np.mean(elapsed > spec.bias_threshold) == pytest.approx(0.95,
                                                                       abs=0.01)

    def test_integer_values(self):
        data = gen_flightslike(FlightsLikeSpec(population_size=5000, seed=0))
        for name in ("O", "I", "E", "D"):
            col = data.population.columns[name]
            assert np.all(col == np.round(col))

    def test_default_spec_sample_size(self):
        # 5 percent of 426,411 rows, truncated
        data = gen_flightslike(FlightsLikeSpec(seed=0))
        assert len(data.sample) == 21_320

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            FlightsLikeSpec(bias_rate=1.5)
        with pytest.raises(ConfigError):
            FlightsLikeSpec(sample_fraction=0.0)

    def test_experiment_unif_vs_ipf(self):
        spec = FlightsLikeSpec(population_size=40_000, seed=2)
        table = run_flightslike_experiment(spec, methods=("unif", "ipf"))
        assert len(table.rows) == 16
        labels = {row[0] for row in table.rows}
        assert labels == {f"q{i}" for i in range(1, 9)}
        # the distance-predicate query is where reweighting must help
        unif_q3 = table.select(query="q3", method="unif").rows[0][2]
        ipf_q3 = table.select(query="q3", method="ipf").rows[0][2]
        assert ipf_q3 < unif_q3


class TestMarginalDistance:
    def test_matches_direct_computation(self):
        data = gen_spiral(SMALL_SPIRAL)
        marginals = spiral_marginals(data)
        value = w1_to_marginal(data.population[:, 0], marginals[0], "x")
        # binned marginal against its own source: within one bin width
        width = (marginals[0].binnings["x"].hi - marginals[0].binnings["x"].lo) / 64
        assert value < width

    def test_biased_sample_is_farther(self):
        data = gen_spiral(SMALL_SPIRAL)
        marginals = spiral_marginals(data)
        pop = w1_to_marginal(data.population[:, 0], marginals[0], "x")
        sample = w1_to_marginal(data.sample[:, 0], marginals[0], "x")
        assert sample > pop


class TestArtifacts:
    def sample_table(self):
        return ResultTable(
            ["coverage", "method", "mean", "p3", "q1", "median", "q3", "p97",
             "excluded"],
            [(0.8, "unif", 20.0, 17.0, 19.0, 20.0, 21.0, 23.0, 0),
             (0.8, "mswg", 2.0, 0.8, 1.2, 1.7, 2.5, 3.3, 0)])

    def test_csv_round_trip(self, tmp_path):
        table = self.sample_table()
        path = tmp_path / "results.csv"
        emit_csv(table, path)
        parsed = read_csv(path)
        assert parsed.columns == table.columns
        assert parsed.rows == table.rows

    def test_csv_round_trip_quoted_comma(self, tmp_path):
        table = ResultTable(["label", "value"], [("a, b", 1.5), ('say "hi"', 2)])
        path = tmp_path / "quoted.csv"
        emit_csv(table, path)
        parsed = read_csv(path)
        assert parsed.columns == table.columns
        assert parsed.rows == table.rows

    def test_empty_table_header_only(self, tmp_path):
        table = ResultTable(["a", "b"])
        path = tmp_path / "empty.csv"
        emit_csv(table, path)
        assert path.read_text(encoding="utf-8") == "a,b\n"

    def test_svg_is_well_formed_xml(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_svg_boxplot(self.sample_table(), path, title="errors")
        root = ElementTree.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("rect") for child in root.iter())

    def test_empty_table_svg(self, tmp_path):
        path = tmp_path / "empty.svg"
        emit_svg_boxplot(ResultTable(["mean"]), path)
        assert ElementTree.parse(path).getroot().tag.endswith("svg")

    def test_summarize_by_method(self):
        table = ResultTable(["query", "method", "pct_diff"],
                            [("q1", "unif", 10.0), ("q2", "unif", 20.0),
                             ("q1", "ipf", 1.0), ("q2", "ipf", 3.0)])
        summary = summarize_by_method(table)
        means = dict(zip(summary.column("method"), summary.column("mean")))
        assert means == {"unif": 15.0, "ipf": 2.0}


class TestSummaryStats:
    def test_values(self):
        stats = summary_stats(np.arange(101.0))
        assert stats["median"] == pytest.approx(50.0)
        assert stats["p3"] == pytest.approx(3.0)
        assert stats["p97"] == pytest.approx(97.0)

    def test_empty(self):
        assert math.isnan(summary_stats([])["mean"])
