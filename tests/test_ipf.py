"""Iterative proportional fitting: exactness, structural zeros, bias repair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openpop.catalog import AttributeDef, Marginal, SampleRelation
from openpop.errors import ConfigError, EmptySampleError, StructuralZeroError
from openpop.ipf import EPS, IpfConfig, IpfReport, _index_cells, discrepancy, ipf_fit


def categorical_sample(rows):
    width = len(rows[0])
    schema = [AttributeDef(f"a{i}", "categorical") for i in range(width)]
    return SampleRelation.from_rows(schema, rows, np.ones(len(rows)), name="s")


class TestConfig:
    def test_defaults(self):
        cfg = IpfConfig()
        assert cfg.max_rounds == 1000 and cfg.tolerance == 1e-6

    def test_validation(self):
        with pytest.raises(ConfigError):
            IpfConfig(tolerance=0)
        with pytest.raises(ConfigError):
            IpfConfig(tolerance=float("nan"))
        with pytest.raises(ConfigError):
            IpfConfig(max_rounds=0)
        with pytest.raises(ConfigError):
            IpfConfig(zero_policy="ignore")


class TestCellOf:
    def test_categorical(self):
        marginal = Marginal("p", ("country",), {"UK": 1.0})
        ids, keys = marginal.cell_index({"country": np.asarray(["UK"], dtype=object)})
        assert keys[ids[0]] == "UK"

    def test_integer_pair(self):
        marginal = Marginal("p", ("C", "E"), {("AA", 250): 1.0})
        ids, keys = marginal.cell_index({"C": np.asarray(["AA"], dtype=object),
                                         "E": np.asarray([250.0])})
        assert keys[ids[0]] == ("AA", 250.0)


class TestSingleMarginal:
    def test_proportional_scaling_in_one_round(self):
        sample = categorical_sample([("A",)] * 3 + [("B",)])
        marginal = Marginal("p", ("a0",), {"A": 30.0, "B": 10.0})
        weights, report = ipf_fit(sample, [marginal])
        assert np.allclose(weights, 10.0)
        assert report.rounds == 1 and report.converged

    def test_exact_fit_after_one_pass(self):
        rng = np.random.default_rng(0)
        rows = [(f"v{rng.integers(5)}",) for _ in range(200)]
        sample = categorical_sample(rows)
        sample.weights = rng.uniform(0.1, 2.0, 200)
        present = {r[0] for r in rows}
        marginal = Marginal("p", ("a0",), {v: float(10 + i) for i, v
                                           in enumerate(sorted(present))})
        weights, report = ipf_fit(sample, [marginal])
        assert discrepancy(sample, weights, marginal) <= 1e-9
        assert report.converged and report.rounds == 1

    @given(initial=st.lists(st.floats(0.1, 10), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_one_round_for_any_positive_initial_weights(self, initial):
        sample = categorical_sample([("A",), ("A",), ("B",), ("B",)])
        sample.weights = np.asarray(initial)
        marginal = Marginal("p", ("a0",), {"A": 6.0, "B": 4.0})
        weights, report = ipf_fit(sample, [marginal])
        assert report.rounds == 1 and report.converged
        assert weights[0] + weights[1] == pytest.approx(6.0)
        assert weights[2] + weights[3] == pytest.approx(4.0)

    def test_total_mass_matches_marginal(self):
        sample = categorical_sample([("A",)] * 5 + [("B",)] * 5)
        marginal = Marginal("p", ("a0",), {"A": 70.0, "B": 30.0})
        weights, _ = ipf_fit(sample, [marginal])
        assert weights.sum() == pytest.approx(100.0)
        assert np.all(weights >= 0)


class TestStructuralZeros:
    def test_error_policy(self):
        sample = categorical_sample([("Yahoo",)] * 4)
        marginal = Marginal("p", ("a0",), {"Yahoo": 80.0, "AOL": 20.0})
        with pytest.raises(StructuralZeroError):
            ipf_fit(sample, [marginal], IpfConfig(zero_policy="error"))

    def test_drop_and_renormalize(self):
        sample = categorical_sample([("Yahoo",)] * 4)
        marginal = Marginal("p", ("a0",), {"Yahoo": 80.0, "AOL": 20.0})
        weights, report = ipf_fit(sample, [marginal])
        # dropped AOL mass is redistributed so the declared total is kept
        assert weights.sum() == pytest.approx(100.0)
        assert report.dropped_mass == [pytest.approx(20.0)]
        assert report.structural_zeros == [(0, "AOL")]

    def test_all_mass_unreachable(self):
        sample = categorical_sample([("Yahoo",)] * 2)
        marginal = Marginal("p", ("a0",), {"AOL": 20.0})
        with pytest.raises(StructuralZeroError):
            ipf_fit(sample, [marginal])

    def test_empty_sample(self):
        schema = [AttributeDef("a0", "categorical")]
        sample = SampleRelation.from_rows(schema, [], np.zeros(0), name="s")
        with pytest.raises(EmptySampleError):
            ipf_fit(sample, [])


class TestDiscrepancy:
    def test_exact_fit_is_zero(self):
        sample = categorical_sample([("A",), ("B",)])
        marginal = Marginal("p", ("a0",), {"A": 1.0, "B": 1.0})
        assert discrepancy(sample, np.ones(2), marginal) == 0.0

    def test_uniform_ratio(self):
        sample = categorical_sample([("A",), ("A",), ("B",)])
        marginal = Marginal("p", ("a0",), {"A": 4.0, "B": 2.0})
        assert discrepancy(sample, np.ones(3), marginal) == pytest.approx(0.5)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(5)
        rows = [(f"v{rng.integers(4)}",) for _ in range(50)]
        sample = categorical_sample(rows)
        weights = rng.uniform(0, 3, 50)
        targets = {f"v{i}": float(rng.uniform(1, 20)) for i in range(4)}
        marginal = Marginal("p", ("a0",), targets)
        # second implementation: plain dict accumulation
        counts: dict = {}
        for row, w in zip(rows, weights):
            counts[row[0]] = counts.get(row[0], 0.0) + w
        keys = set(counts) | set(targets)
        expected = max(abs(counts.get(k, 0.0) - targets.get(k, 0.0))
                       / max(targets.get(k, 0.0), 1e-12) for k in keys)
        assert discrepancy(sample, weights, marginal) == pytest.approx(expected)


def product_population(seed=7, n=10_000, sample_size=1_000):
    """2-attribute product-law population with a sample biased along `a`."""
    rng = np.random.default_rng(seed)
    a_idx = rng.choice(4, n, p=[0.1, 0.2, 0.3, 0.4])
    b_idx = rng.choice(3, n, p=[0.5, 0.3, 0.2])
    keys = rng.exponential(1.0, n) / (4.0 ** a_idx)
    picked = np.argsort(keys, kind="stable")[:sample_size]
    rows = [(f"a{a_idx[i]}", f"b{b_idx[i]}") for i in picked]
    pop_counts: dict = {}
    for a, b in zip(a_idx, b_idx):
        pop_counts[(f"a{a}", f"b{b}")] = pop_counts.get((f"a{a}", f"b{b}"), 0) + 1
    marg_a: dict = {}
    marg_b: dict = {}
    for (a, b), count in pop_counts.items():
        marg_a[a] = marg_a.get(a, 0.0) + count
        marg_b[b] = marg_b.get(b, 0.0) + count
    return rows, pop_counts, marg_a, marg_b


class TestTwoMarginalDebias:
    def test_fitted_single_attribute_counts_match_population(self):
        rows, _, marg_a, marg_b = product_population()
        sample = categorical_sample(rows)
        ma = Marginal("p", ("a0",), marg_a)
        mb = Marginal("p", ("a1",), marg_b)
        weights, report = ipf_fit(sample, [ma, mb])
        assert report.converged
        for marginal, truth in ((ma, marg_a), (mb, marg_b)):
            got: dict = {}
            ids, keys = marginal.cell_index(sample.columns)
            for i, w in zip(ids, weights):
                key = keys[i]
                got[key] = got.get(key, 0.0) + w
            for key, expected in truth.items():
                assert got[key] == pytest.approx(expected, rel=1e-6)

    def test_joint_error_below_uniform_baseline(self):
        rows, pop_counts, marg_a, marg_b = product_population()
        sample = categorical_sample(rows)
        weights, report = ipf_fit(
            sample, [Marginal("p", ("a0",), marg_a),
                     Marginal("p", ("a1",), marg_b)])
        assert report.converged

        def groupby_error(w):
            est: dict = {}
            for row, wi in zip(rows, w):
                est[row] = est.get(row, 0.0) + wi
            diffs = [100 * abs(est.get(k, 0.0) - c) / c
                     for k, c in pop_counts.items() if k in est]
            return float(np.mean(diffs))

        uniform = np.full(len(rows), 10_000 / len(rows))
        assert groupby_error(weights) < groupby_error(uniform)


class TestRandomConsistentInstances:
    def test_convergence_with_full_support(self):
        # marginals derived from one concrete population, sample covering
        # every occupied cell: fitting must reach the tolerance
        rng = np.random.default_rng(17)
        for trial in range(20):
            n_a, n_b = rng.integers(2, 5), rng.integers(2, 5)
            pop = rng.integers(1, 40, size=(n_a, n_b))
            rows = []
            for i in range(n_a):
                for j in range(n_b):
                    copies = 1 + int(rng.integers(0, 4))
                    rows.extend([(f"a{i}", f"b{j}")] * copies)
            sample = categorical_sample(rows)
            sample.weights = rng.uniform(0.2, 3.0, len(rows))
            marg_a = {f"a{i}": float(pop[i].sum()) for i in range(n_a)}
            marg_b = {f"b{j}": float(pop[:, j].sum()) for j in range(n_b)}
            _, report = ipf_fit(sample, [Marginal("p", ("a0",), marg_a),
                                         Marginal("p", ("a1",), marg_b)])
            assert report.converged, f"trial {trial}: {report.discrepancies}"
            assert report.max_discrepancy() <= 1e-6


class TestPurity:
    def test_does_not_mutate_inputs(self):
        sample = categorical_sample([("A",), ("B",)])
        before = sample.weights.copy()
        marginal = Marginal("p", ("a0",), {"A": 5.0, "B": 5.0})
        ipf_fit(sample, [marginal])
        assert np.array_equal(sample.weights, before)

    def test_deterministic(self):
        rows, _, marg_a, marg_b = product_population(seed=3)
        sample = categorical_sample(rows)
        marginals = [Marginal("p", ("a0",), marg_a),
                     Marginal("p", ("a1",), marg_b)]
        w1, _ = ipf_fit(sample, marginals)
        w2, _ = ipf_fit(sample, marginals)
        assert np.array_equal(w1, w2)


def reference_ipf_fit(sample, marginals, cfg):
    """The oracle: the round-robin loop as first written, with a fresh
    bincount for every update and every check and all discrepancies taken
    each round (argument checks and the error policy left out)."""
    weights = np.asarray(sample.weights, dtype=float).copy()
    plans = []
    structural = []
    dropped = []
    for m_pos, marginal in enumerate(marginals):
        keys, targets, row_ids = _index_cells(sample, marginal)
        occupied = np.bincount(row_ids, minlength=len(targets)) > 0
        zero_cells = [i for i, key in enumerate(keys)
                      if targets[i] > 0 and not occupied[i]]
        drop = 0.0
        if zero_cells:
            total = targets.sum()
            for i in zero_cells:
                drop += targets[i]
                targets[i] = 0.0
                structural.append((m_pos, keys[i]))
            remaining = targets.sum()
            targets *= total / remaining
        dropped.append(drop)
        plans.append((targets, row_ids))

    rounds = 0
    converged = False
    while rounds < cfg.max_rounds:
        rounds += 1
        for targets, row_ids in plans:
            counts = np.bincount(row_ids, weights=weights, minlength=len(targets))
            factors = np.zeros_like(targets)
            live = counts > 0
            factors[live] = targets[live] / counts[live]
            weights *= factors[row_ids]
        discs = []
        for targets, row_ids in plans:
            counts = np.bincount(row_ids, weights=weights, minlength=len(targets))
            discs.append(float(np.max(
                np.abs(counts - targets) / np.maximum(targets, EPS))))
        if max(discs) <= cfg.tolerance:
            converged = True
            break

    return weights, IpfReport(rounds, discs, converged, structural, dropped)


def correlated_sample(seed=11, n=400, unit_weights=True):
    """Three categorical attributes whose values move together, so fitting
    one marginal disturbs the others; a3 is one value on every row."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 4, n)
    rows = [(f"x{b}", f"y{(b + rng.integers(0, 2)) % 3}", f"z{rng.integers(0, 2)}",
             "all") for b in base]
    sample = categorical_sample(rows)
    if not unit_weights:
        sample.weights = rng.uniform(0.2, 5.0, n)
    return sample


ONE_D = [Marginal("p", ("a0",), {"x0": 100.0, "x1": 300.0, "x2": 250.0, "x3": 350.0}),
         Marginal("p", ("a1",), {"y0": 500.0, "y1": 200.0, "y2": 300.0}),
         Marginal("p", ("a2",), {"z0": 450.0, "z1": 550.0})]
# Pair marginals whose a1 totals disagree (600/400 against 300/700), with
# mass on pairs no sample row holds: dropped, and no fit can converge.
PAIRS = [Marginal("p", ("a0", "a1"), {("x0", "y0"): 200.0, ("x1", "y1"): 200.0,
                                      ("x3", "y0"): 400.0, ("x0", "y2"): 200.0}),
         Marginal("p", ("a1", "a2"), {("y0", "z0"): 100.0, ("y1", "z1"): 500.0,
                                      ("y2", "z0"): 200.0, ("y2", "z1"): 200.0})]
# The total-only marginal is met after every round; a0 is the first unmet.
MIDDLE_UNMET = [Marginal("p", ("a3",), {"all": 1000.0}), ONE_D[0], ONE_D[1]]


class TestMatchesReferenceLoop:
    """The fit reuses the check's counts and stops the check early; weights
    and report must still be exactly those of the plain loop."""

    @pytest.mark.parametrize("unit_weights", [True, False])
    @pytest.mark.parametrize("marginals, cfg", [
        (ONE_D, IpfConfig()),
        (ONE_D, IpfConfig(max_rounds=1)),
        (ONE_D, IpfConfig(max_rounds=2)),
        (ONE_D, IpfConfig(max_rounds=3)),
        (PAIRS, IpfConfig(max_rounds=200)),
        (PAIRS, IpfConfig(max_rounds=1)),
        (MIDDLE_UNMET, IpfConfig()),
        (MIDDLE_UNMET, IpfConfig(max_rounds=2)),
    ], ids=["one_d", "one_d_1", "one_d_2", "one_d_3", "pairs", "pairs_1",
            "middle_unmet", "middle_unmet_2"])
    def test_byte_equal(self, marginals, cfg, unit_weights):
        sample = correlated_sample(unit_weights=unit_weights)
        weights, report = ipf_fit(sample, marginals, cfg)
        expected_weights, expected = reference_ipf_fit(sample, marginals, cfg)
        assert weights.tobytes() == expected_weights.tobytes()
        assert report == expected

    def test_cases_reach_the_paths_they_name(self):
        sample = correlated_sample()
        _, report = ipf_fit(sample, ONE_D)
        assert report.converged and 3 < report.rounds < 1000
        _, report = ipf_fit(sample, PAIRS, IpfConfig(max_rounds=200))
        assert not report.converged and report.rounds == 200
        assert report.structural_zeros and len(report.discrepancies) == 2
        _, report = ipf_fit(sample, MIDDLE_UNMET, IpfConfig(max_rounds=2))
        first, middle, _ = report.discrepancies
        assert first <= 1e-6 < middle
