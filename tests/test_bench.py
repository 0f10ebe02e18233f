"""Benchmark harness: generators, query workloads, metrics, artifacts."""

import csv
import math

import numpy as np
import pytest

from openpop.errors import ConfigError
from openpop.mswg import TrainConfig
from openpop.util import format_cell
from openpop_experiments import (
    FLIGHTS_COLUMNS,
    SPIRAL_COLUMNS,
    FlightsLikeSpec,
    SpiralSpec,
    box_count,
    emit_csv,
    gen_flightslike,
    gen_range_queries,
    gen_spiral,
    percent_difference,
    run_flightslike_experiment,
    run_spiral_experiment,
    spiral_marginals,
    w1_to_marginal,
)

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


class TestRangeQueries:
    def test_full_coverage_box_is_everything(self):
        data = gen_spiral(SMALL_SPIRAL)
        (box,) = gen_range_queries(data.population, 1.0, 1, 3)
        assert box_count(data.population, box) == len(data.population)

    def test_reproducible_per_seed(self):
        data = gen_spiral(SMALL_SPIRAL)
        a = gen_range_queries(data.population, 0.8, 100, 5)
        b = gen_range_queries(data.population, 0.8, 100, 5)
        assert np.array_equal(a, b)
        assert a.shape == (100, 4)

    def test_narrow_coverage_valid(self):
        data = gen_spiral(SMALL_SPIRAL)
        boxes = gen_range_queries(data.population, 0.01, 10, 1)
        span = data.population.max(axis=0) - data.population.min(axis=0)
        widths = boxes[:, 1] - boxes[:, 0]
        assert np.allclose(widths, 0.01 * span[0])


class TestSpiralExperiment:
    def test_output_schema_and_content(self):
        cfg = TrainConfig(coverage_weight=0.04, latent_dim=2, batch_size=64,
                          epochs=4, layers=(32, 32), seed=0)
        rows = run_spiral_experiment(SMALL_SPIRAL, (0.5, 0.8), repeats=3,
                                     query_count=20, train_cfg=cfg)
        assert SPIRAL_COLUMNS[:3] == ("coverage", "method", "mean")
        assert {row[1] for row in rows} == {"unif", "mswg"}
        assert len(rows) == 4
        for row in rows:
            assert math.isfinite(row[2])

    def test_unif_only_runs_without_training(self):
        rows = run_spiral_experiment(SMALL_SPIRAL, (0.8,), methods=("unif",),
                                     query_count=10)
        assert len(rows) == 1


class TestFlightsLike:
    def test_population_and_sample_shapes(self):
        spec = FlightsLikeSpec(population_size=20_000, seed=1)
        data = gen_flightslike(spec)
        assert len(data.population.columns["E"]) == 20_000
        assert len(data.sample) == 1000
        elapsed = data.sample.columns["E"]
        assert np.mean(elapsed > 200) == pytest.approx(0.95, abs=0.01)

    def test_integer_values(self):
        data = gen_flightslike(FlightsLikeSpec(population_size=5000, seed=0))
        for name in ("O", "I", "E", "D"):
            col = data.population.columns[name]
            assert np.all(col == np.round(col))

    def test_default_spec_sample_size(self):
        # 5 percent of 426,411 rows, truncated
        data = gen_flightslike(FlightsLikeSpec(seed=0))
        assert len(data.sample) == 21_320

    def test_experiment_unif_vs_ipf(self):
        spec = FlightsLikeSpec(population_size=40_000, seed=2)
        rows = run_flightslike_experiment(spec, methods=("unif", "ipf"))
        assert FLIGHTS_COLUMNS == ("query", "method", "pct_diff",
                                   "false_negatives", "excluded")
        assert len(rows) == 16
        labels = {row[0] for row in rows}
        assert labels == {f"q{i}" for i in range(1, 9)}
        # the distance-predicate query is where reweighting must help
        pct_diff = {(row[0], row[1]): row[2] for row in rows}
        unif_q3 = pct_diff["q3", "unif"]
        ipf_q3 = pct_diff["q3", "ipf"]
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
    ROWS = [(0.8, "unif", 20.0, 17.0, 19.0, 20.0, 21.0, 23.0, 0),
            (0.8, "mswg", 2.0, 0.8, 1.2, 1.7, 2.5, 3.3, 0)]

    def read_back(self, path):
        with open(path, encoding="utf-8", newline="") as handle:
            header, *rows = csv.reader(handle)
        return header, [tuple(row) for row in rows]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "results.csv"
        emit_csv(SPIRAL_COLUMNS, self.ROWS, path)
        header, rows = self.read_back(path)
        assert header == list(SPIRAL_COLUMNS)
        assert rows == [tuple(format_cell(v) for v in row) for row in self.ROWS]

    def test_csv_round_trip_quoted_comma(self, tmp_path):
        columns = ["label", "value"]
        table = [("a, b", 1.5), ('say "hi"', 2)]
        path = tmp_path / "quoted.csv"
        emit_csv(columns, table, path)
        header, rows = self.read_back(path)
        assert header == columns
        assert rows == [tuple(format_cell(v) for v in row) for row in table]

    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(["a", "b"], [], path)
        assert path.read_text(encoding="utf-8") == "a,b\n"
