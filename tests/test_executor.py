"""Executor: planning, visibility semantics, aggregate rewriting."""

import numpy as np
import pytest

from openpop.catalog import (
    AttributeDef,
    Catalog,
    Marginal,
    Mechanism,
    PopulationDef,
    Relation,
)
from openpop.dialect import parse_one
from openpop.errors import (
    EmptySampleError,
    NoMetadataError,
    NoUsableSampleError,
    TypeMismatchError,
    UnknownMechanismNoMetadataError,
)
from openpop.executor import (
    ExecOptions,
    QueryAnswer,
    evaluate_aggregates,
    execute,
    execute_closed,
    execute_open,
    execute_semi_open,
    intersect_group_answers,
    plan,
)
from openpop.ipf import IpfReport
from openpop.mswg import TrainConfig
from openpop.predicate import Comparison, Predicate

SCHEMA = [AttributeDef("country", "categorical"),
          AttributeDef("email", "categorical"),
          AttributeDef("age", "numeric")]

ROWS = [("UK", "Yahoo", 30.0), ("UK", "Yahoo", 40.0), ("FR", "Yahoo", 20.0),
        ("FR", "Yahoo", 50.0), ("UK", "Yahoo", 25.0)]


def fresh_catalog(mechanism=None, marginals=True) -> Catalog:
    catalog = Catalog()
    catalog.create_population(PopulationDef(
        "Migrants", True,
        [AttributeDef(a.name, a.kind, list(a.domain)) for a in SCHEMA]))
    catalog.create_sample("Yahoo", mechanism=mechanism)
    catalog.ingest_rows("Yahoo", ROWS)
    if marginals:
        catalog.create_metadata("Migrants", ("country",),
                                {"UK": 60.0, "FR": 40.0})
        catalog.create_metadata("Migrants", ("email",),
                                {"Yahoo": 70.0, "AOL": 30.0})
    return catalog


def small_options(**overrides):
    defaults = dict(
        train_config=TrainConfig(coverage_weight=0.01, latent_dim=2,
                                 projections=8, batch_size=16, epochs=25,
                                 layers=(24, 24), seed=2),
        rng=np.random.default_rng(0))
    defaults.update(overrides)
    return ExecOptions(**defaults)


class TestPlan:
    def test_single_sample_chosen(self):
        catalog = fresh_catalog()
        chosen = plan(parse_one("SELECT country, COUNT(*) FROM Migrants "
                                "GROUP BY country"), catalog)
        assert chosen.sample_name == "Yahoo"
        assert chosen.metadata_path == "direct"

    def test_largest_covering_sample_wins(self):
        catalog = fresh_catalog()
        catalog.create_sample("Bigger")
        catalog.ingest_rows("Bigger", ROWS + ROWS)
        chosen = plan(parse_one("SELECT COUNT(*) FROM Migrants"), catalog)
        assert chosen.sample_name == "Bigger"

    def test_declaration_order_breaks_ties(self):
        catalog = fresh_catalog()
        catalog.create_sample("Second")
        catalog.ingest_rows("Second", ROWS)
        chosen = plan(parse_one("SELECT COUNT(*) FROM Migrants"), catalog)
        assert chosen.sample_name == "Yahoo"

    def test_no_covering_sample(self):
        catalog = fresh_catalog()
        catalog.create_sample("Narrow", schema=[AttributeDef("age", "numeric")])
        catalog.samples.pop("Yahoo")
        with pytest.raises(NoUsableSampleError):
            plan(parse_one("SELECT country, COUNT(*) FROM Migrants "
                           "GROUP BY country"), catalog)

    def test_open_needs_metadata(self):
        catalog = fresh_catalog(marginals=False)
        with pytest.raises(NoMetadataError):
            plan(parse_one("SELECT OPEN COUNT(*) FROM Migrants"), catalog)

    def test_semi_open_unknown_mechanism_needs_metadata(self):
        catalog = fresh_catalog(marginals=False)
        with pytest.raises(UnknownMechanismNoMetadataError):
            plan(parse_one("SELECT SEMI-OPEN COUNT(*) FROM Migrants"), catalog)

    @pytest.mark.parametrize("where", ["country < 3", "country = 3",
                                       "age = 'old'", "age IN ('x')"])
    def test_where_predicate_is_type_checked(self, where):
        catalog = fresh_catalog()
        with pytest.raises(TypeMismatchError):
            execute(parse_one(f"SELECT CLOSED COUNT(*) FROM Migrants WHERE {where}"),
                    catalog)


class TestClosed:
    def test_count_is_row_count(self):
        catalog = fresh_catalog()
        answer = execute(parse_one("SELECT COUNT(*) FROM Migrants"), catalog)
        assert answer.rows == [(5.0,)]
        assert answer.provenance == "closed"

    def test_group_by_counts(self):
        catalog = fresh_catalog()
        answer = execute(parse_one(
            "SELECT country, email, COUNT(*) FROM Migrants "
            "GROUP BY country, email"), catalog)
        assert answer.rows == [("FR", "Yahoo", 2.0), ("UK", "Yahoo", 3.0)]

    def test_empty_predicate_result(self):
        catalog = fresh_catalog()
        answer = execute(parse_one(
            "SELECT COUNT(*) FROM Migrants WHERE country = 'DE'"), catalog)
        assert answer.rows == []

    def test_population_view_applied_first(self):
        catalog = fresh_catalog()
        catalog.create_population(PopulationDef(
            "UkMigrants", False,
            [AttributeDef(a.name, a.kind) for a in SCHEMA],
            predicate=Predicate((Comparison("country", "=", "UK"),))))
        answer = execute(parse_one("SELECT COUNT(*) FROM UkMigrants"), catalog)
        assert answer.rows == [(3.0,)]

    def test_projection_without_aggregates(self):
        catalog = fresh_catalog()
        answer = execute(parse_one("SELECT country FROM Migrants"), catalog)
        assert len(answer.rows) == 5

    def test_aggregate_arg_must_be_numeric(self):
        catalog = fresh_catalog()
        with pytest.raises(TypeMismatchError):
            execute(parse_one("SELECT AVG(country) FROM Migrants"), catalog)


class TestSemiOpenMechanism:
    def test_uniform_inverse_probability(self):
        catalog = fresh_catalog(mechanism=Mechanism("uniform", 10.0))
        answer = execute(parse_one("SELECT SEMI-OPEN COUNT(*) FROM Migrants"),
                         catalog)
        assert answer.rows == [(50.0,)]
        assert answer.provenance == "semi_open_mechanism"

    def test_exact_total_for_any_sample_size(self):
        for extra in range(3):
            catalog = fresh_catalog(mechanism=Mechanism("uniform", 10.0))
            catalog.ingest_rows("Yahoo", ROWS[:extra])
            n = 5 + extra
            answer = execute(parse_one("SELECT SEMI-OPEN COUNT(*) FROM Migrants"),
                             catalog)
            assert answer.rows[0][0] == pytest.approx(n * 10.0)

    def test_stratified_requires_marginal(self):
        catalog = fresh_catalog(
            mechanism=Mechanism("stratified", 20.0, "country"), marginals=False)
        with pytest.raises(NoMetadataError):
            execute_semi_open(parse_one("SELECT SEMI-OPEN COUNT(*) FROM Migrants"),
                              catalog.sample("Yahoo"), catalog)

    def test_stratified_inverse_weights(self):
        catalog = fresh_catalog(
            mechanism=Mechanism("stratified", 20.0, "country"))
        answer = execute(parse_one(
            "SELECT SEMI-OPEN country, COUNT(*) FROM Migrants GROUP BY country"),
            catalog)
        # Pr(t) = 0.2 * 100 / (2 * N_stratum); weights recover stratum shares
        by_country = dict((row[0], row[1]) for row in answer.rows)
        assert by_country["UK"] == pytest.approx(3 * 60.0 / (0.2 * 50.0))
        assert by_country["FR"] == pytest.approx(2 * 40.0 / (0.2 * 50.0))


class TestSemiOpenIpf:
    def test_direct_path_fits_marginals(self):
        catalog = fresh_catalog()
        answer = execute(parse_one(
            "SELECT SEMI-OPEN country, COUNT(*) FROM Migrants GROUP BY country"),
            catalog)
        assert answer.provenance == "semi_open_ipf_direct"
        got = dict((row[0], row[1]) for row in answer.rows)
        assert got["UK"] == pytest.approx(60.0, rel=1e-6)
        assert got["FR"] == pytest.approx(40.0, rel=1e-6)
        assert "ipf" in answer.diagnostics

    def test_global_path_for_derived_population(self):
        catalog = fresh_catalog()
        catalog.create_population(PopulationDef(
            "UkMigrants", False,
            [AttributeDef(a.name, a.kind) for a in SCHEMA],
            predicate=Predicate((Comparison("country", "=", "UK"),))))
        answer = execute(parse_one(
            "SELECT SEMI-OPEN COUNT(*) FROM UkMigrants"), catalog)
        assert answer.provenance == "semi_open_ipf_global"
        assert answer.rows[0][0] == pytest.approx(60.0, rel=1e-6)

    def test_no_false_positive_groups(self):
        catalog = fresh_catalog()
        answer = execute(parse_one(
            "SELECT SEMI-OPEN country, email, COUNT(*) FROM Migrants "
            "GROUP BY country, email"), catalog)
        sample_keys = {(r[0], r[1]) for r in ROWS}
        assert answer.group_keys(2) <= sample_keys

    def test_stored_weights_when_ipf_disabled(self):
        catalog = fresh_catalog()
        options = ExecOptions(use_ipf=False)
        closed = execute(parse_one(
            "SELECT country, COUNT(*) FROM Migrants GROUP BY country"), catalog)
        semi = execute(parse_one(
            "SELECT SEMI-OPEN country, COUNT(*) FROM Migrants GROUP BY country"),
            catalog, options)
        assert semi.provenance == "semi_open_stored"
        assert semi.rows == closed.rows


class TestAggregateRewriting:
    def test_weighted_equals_repeated_rows(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = rng.integers(1, 8)
            rows = [(str(rng.choice(["a", "b"])), float(rng.integers(0, 9)))
                    for _ in range(n)]
            weights = rng.integers(0, 4, n).astype(float)
            schema = [AttributeDef("g", "categorical"),
                      AttributeDef("v", "numeric")]
            query = parse_one(
                "SELECT g, COUNT(*), SUM(v), AVG(v) FROM P GROUP BY g")
            weighted = evaluate_aggregates(
                Relation.from_rows(schema, rows, weights), query)
            repeated = [row for row, w in zip(rows, weights)
                        for _ in range(int(w))]
            brute = evaluate_aggregates(
                Relation.from_rows(schema, repeated, np.ones(len(repeated))), query)
            assert len(weighted.rows) == len(brute.rows)
            for got, want in zip(weighted.rows, brute.rows):
                assert got[0] == want[0]
                for a, b in zip(got[1:], want[1:]):
                    assert a == pytest.approx(b)

    def test_sum_and_avg(self):
        catalog = fresh_catalog(mechanism=Mechanism("uniform", 50.0))
        answer = execute(parse_one(
            "SELECT SEMI-OPEN SUM(age), AVG(age) FROM Migrants"), catalog)
        ages = [r[2] for r in ROWS]
        assert answer.rows[0][0] == pytest.approx(2 * sum(ages))
        assert answer.rows[0][1] == pytest.approx(sum(ages) / len(ages))


def open_world_catalog() -> Catalog:
    """Yahoo-only sample large enough that generated samples are stable."""
    rng = np.random.default_rng(1)
    catalog = Catalog()
    catalog.create_population(PopulationDef(
        "Migrants", True,
        [AttributeDef(a.name, a.kind, list(a.domain)) for a in SCHEMA]))
    catalog.create_sample("Yahoo")
    rows = [(str(rng.choice(["UK", "FR"], p=[0.7, 0.3])), "Yahoo",
             float(rng.integers(20, 60))) for _ in range(80)]
    catalog.ingest_rows("Yahoo", rows)
    catalog.create_metadata("Migrants", ("country",), {"UK": 600.0, "FR": 400.0})
    catalog.create_metadata("Migrants", ("email",),
                            {"Yahoo": 550.0, "AOL": 450.0})
    return catalog


class TestOpen:
    def test_intersection_and_new_groups(self):
        catalog = open_world_catalog()
        options = small_options()
        answer = execute(parse_one(
            "SELECT OPEN country, email, COUNT(*) FROM Migrants "
            "GROUP BY country, email"), catalog, options)
        assert answer.provenance == "open"
        assert answer.diagnostics["k"] == 10
        keys = answer.group_keys(2)
        sample_keys = {(row[0], row[1])
                       for row in catalog.sample("Yahoo").to_rows()}
        assert any(key not in sample_keys for key in keys)
        # total generated weight matches the population size
        weight = answer.diagnostics["row_weight"]
        assert weight * answer.diagnostics["generated_rows"] == pytest.approx(1000.0)

    def test_k_one_single_sample(self):
        catalog = fresh_catalog()
        options = small_options(k_samples=1)
        answer = execute(parse_one(
            "SELECT OPEN country, COUNT(*) FROM Migrants GROUP BY country"),
            catalog, options)
        assert answer.diagnostics["k"] == 1
        assert answer.rows

    def test_group_must_appear_in_all_k(self):
        catalog = fresh_catalog()
        options = small_options()
        # run twice with the same cache to confirm stage reuse plus rule
        first = execute_open(parse_one(
            "SELECT OPEN country, COUNT(*) FROM Migrants GROUP BY country"),
            catalog.sample("Yahoo"), catalog, options)
        assert set(first.group_keys(1)) <= {("UK",), ("FR",)}

    def test_materialized_non_aggregate(self):
        catalog = open_world_catalog()
        options = small_options()
        answer = execute(parse_one("SELECT OPEN country, email FROM Migrants"),
                         catalog, options)
        assert answer.diagnostics["materialized"] is True
        assert len(answer.rows) == len(catalog.sample("Yahoo"))

    def test_generator_cache_reused(self):
        catalog = fresh_catalog()
        options = small_options()
        query = parse_one("SELECT OPEN COUNT(*) FROM Migrants")
        execute(query, catalog, options)
        assert len(options.generator_cache) == 1
        execute(query, catalog, options)
        assert len(options.generator_cache) == 1

    def test_derived_population_trains_on_its_view(self):
        # UKers owns an email marginal of total 500; the sample holds rows
        # from both countries, so training on all of them would put mass
        # outside the view.
        catalog = Catalog()
        schema = [AttributeDef("country", "categorical"),
                  AttributeDef("email", "categorical")]
        catalog.create_population(PopulationDef("P", True, schema))
        catalog.create_population(PopulationDef(
            "UKers", False, [AttributeDef(a.name, a.kind) for a in schema],
            predicate=Predicate((Comparison("country", "=", "UK"),))))
        catalog.create_metadata("P", ("country",), {"UK": 500.0, "FR": 300.0})
        catalog.create_metadata("UKers", ("email",), {"Yahoo": 450.0, "AOL": 50.0})
        rng = np.random.default_rng(0)
        catalog.create_sample("S")
        catalog.ingest_rows("S", [(str(rng.choice(["UK", "FR"], p=[0.6, 0.4])),
                                   str(rng.choice(["Yahoo", "AOL"], p=[0.8, 0.2])))
                                  for _ in range(120)])
        options = ExecOptions(train_config=TrainConfig(
            epochs=10, layers=(32, 32), batch_size=64, projections=16,
            learning_rate=1e-2, seed=0))
        (open_count,) = execute(parse_one("SELECT OPEN COUNT(*) FROM UKers"),
                                catalog, options).rows[0]
        (semi_count,) = execute(parse_one("SELECT SEMI-OPEN COUNT(*) FROM UKers"),
                                catalog, options).rows[0]
        assert open_count == pytest.approx(500.0, rel=0.05)
        assert semi_count == pytest.approx(500.0, rel=0, abs=1e-9)

    def test_sample_lacking_marginal_attribute_is_a_user_error(self):
        catalog = fresh_catalog(marginals=False)
        catalog.samples.pop("Yahoo")
        catalog.create_metadata("Migrants", ("age",), {30: 60.0, 40: 40.0},
                                name="Migrants_ByAge")
        catalog.create_sample("Countries", schema=[SCHEMA[0]])
        catalog.ingest_rows("Countries", [("UK",), ("FR",)])
        for visibility in ("SEMI-OPEN", "OPEN"):
            query = parse_one(f"SELECT {visibility} COUNT(*) FROM Migrants")
            with pytest.raises(NoUsableSampleError, match="'age'.*Migrants_ByAge"):
                execute(query, catalog, small_options())

    def test_empty_sample_is_a_user_error(self):
        catalog = fresh_catalog(marginals=True)
        catalog.create_sample("Empty")
        query = parse_one("SELECT OPEN COUNT(*) FROM Migrants")
        with pytest.raises(EmptySampleError):
            execute_open(query, catalog.sample("Empty"), catalog, small_options())

    def test_group_missing_from_one_answer_is_excluded(self):
        full = [QueryAnswer(["g", "COUNT(*)"], [(("a",) + (10.0,)),
                                                (("b",) + (20.0,))], "open")
                for _ in range(9)]
        partial = QueryAnswer(["g", "COUNT(*)"], [("a", 30.0)], "open")
        rows = intersect_group_answers(full + [partial], 1)
        assert rows == [("a", 12.0)]  # 'b' generated in only 9 of 10


class TestAnswerRendering:
    def test_text_table(self):
        catalog = fresh_catalog()
        answer = execute(parse_one(
            "SELECT country, COUNT(*) FROM Migrants GROUP BY country"), catalog)
        text = answer.to_text()
        assert "country" in text and "COUNT(*)" in text and "closed" in text

    def test_text_warns_when_ipf_degrades(self):
        # The sample holds no AOL tuple, so the AOL cell is a structural zero.
        answer = execute(parse_one("SELECT SEMI-OPEN COUNT(*) FROM Migrants"),
                         fresh_catalog())
        text = answer.to_text()
        assert ("warning: IPF dropped 30 target mass in 1 structural-zero "
                "cells") in text
        assert "did not converge" not in text
        answer.diagnostics["ipf"] = IpfReport(1000, [0.25, 1e-3], False)
        assert ("warning: IPF did not converge in 1000 rounds "
                "(max discrepancy 0.25)") in answer.to_text()

    def test_text_has_no_warning_without_ipf(self):
        answer = execute(parse_one("SELECT COUNT(*) FROM Migrants"),
                         fresh_catalog())
        assert "warning" not in answer.to_text()

    def test_csv(self):
        catalog = fresh_catalog()
        answer = execute(parse_one(
            "SELECT country, COUNT(*) FROM Migrants GROUP BY country"), catalog)
        lines = answer.to_csv().splitlines()
        assert lines[0] == "country,COUNT(*)"
        assert len(lines) == 3
