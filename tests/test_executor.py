"""Executor: planning, visibility semantics, aggregate rewriting."""

import re
import warnings

import numpy as np
import pytest

import openpop.cli
import openpop.executor
from openpop.catalog import (
    AttributeDef,
    Catalog,
    Marginal,
    Mechanism,
    PopulationDef,
    Relation,
)
from openpop.dialect import parse_one
from openpop.engine import Engine
from openpop.errors import (
    ConfigError,
    EmptySampleError,
    NoMetadataError,
    NoUsableSampleError,
    OpenPopError,
    TypeMismatchError,
    UnknownAttributeError,
    UnknownMechanismNoMetadataError,
)
from openpop.executor import (
    PROVENANCE_OPEN,
    ExecOptions,
    QueryAnswer,
    _answer,
    applicable_marginals,
    evaluate_aggregates,
    execute,
    execute_closed,
    execute_open,
    execute_semi_open,
    plan,
)
from openpop.ipf import IpfReport
from openpop.mswg import TrainConfig, fingerprint, generate
from openpop.predicate import Comparison, Predicate
from openpop_experiments import (
    FLIGHTS_QUERIES,
    FlightsLikeData,
    FlightsLikeSpec,
    flights_catalog,
    gen_flightslike,
)

from conftest import group_keys

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
                                 layers=(24, 24), seed=2))
    defaults.update(overrides)
    return ExecOptions(**defaults)


def ukers_catalog() -> Catalog:
    """UKers owns an email marginal of total 500; the sample S holds 120
    rows from both countries."""
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
    return catalog


class TestPlan:
    def test_single_sample_chosen(self):
        catalog = fresh_catalog()
        chosen = plan(parse_one("SELECT country, COUNT(*) FROM Migrants "
                                "GROUP BY country"), catalog)
        assert chosen.name == "Yahoo"

    def test_largest_covering_sample_wins(self):
        catalog = fresh_catalog()
        catalog.create_sample("Bigger")
        catalog.ingest_rows("Bigger", ROWS + ROWS)
        chosen = plan(parse_one("SELECT COUNT(*) FROM Migrants"), catalog)
        assert chosen.name == "Bigger"

    def test_declaration_order_breaks_ties(self):
        catalog = fresh_catalog()
        catalog.create_sample("Second")
        catalog.ingest_rows("Second", ROWS)
        chosen = plan(parse_one("SELECT COUNT(*) FROM Migrants"), catalog)
        assert chosen.name == "Yahoo"

    @pytest.mark.parametrize("visibility", ["SEMI-OPEN", "OPEN"])
    def test_sample_that_can_fit_the_marginals_wins(self, visibility):
        # Big has more rows but lacks the marginal's attribute; choosing it
        # used to fail with "sample 'Big' lacks attribute 'c'".
        catalog = Catalog()
        catalog.create_population(PopulationDef("P", True, [
            AttributeDef("x", "numeric"), AttributeDef("c", "categorical")]))
        catalog.create_metadata("P", ("c",), {"u": 3.0, "v": 5.0}, name="M")
        catalog.create_sample("Big", schema=[AttributeDef("x", "numeric")])
        catalog.ingest_rows("Big", [(1.0,), (2.0,), (3.0,), (4.0,)])
        catalog.create_sample("Small")
        catalog.ingest_rows("Small", [(1.0, "u"), (2.0, "v")])
        query = parse_one(f"SELECT {visibility} COUNT(*) FROM P")
        answer = execute(query, catalog, small_options())
        assert answer.diagnostics["sample"] == "Small"
        assert answer.rows[0][0] == pytest.approx(8.0)
        closed = plan(parse_one("SELECT CLOSED COUNT(*) FROM P"), catalog)
        assert closed.name == "Big"

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

    @pytest.mark.parametrize("visibility, route, error, message", [
        ("OPEN", execute_open, NoMetadataError,
         "OPEN query over 'Migrants' needs marginal metadata"),
        ("SEMI-OPEN", execute_semi_open, UnknownMechanismNoMetadataError,
         "sample 'Yahoo' has no declared mechanism and no marginals are registered"),
    ], ids=["OPEN", "SEMI-OPEN"])
    def test_route_called_directly_fails_as_execute_does(self, visibility, route,
                                                         error, message):
        # The routes used to word each case their own way ("...needs
        # marginals", "no marginals for 'Migrants' or the global population").
        catalog = fresh_catalog(marginals=False)
        query = parse_one(f"SELECT {visibility} COUNT(*) FROM Migrants")
        for run in (lambda: execute(query, catalog),
                    lambda: route(query, catalog.sample("Yahoo"), catalog)):
            with pytest.raises(OpenPopError) as failure:
                run()
            assert (type(failure.value), str(failure.value)) == (error, message)

    @pytest.mark.parametrize("visibility, provenance", [
        ("CLOSED", "closed"), ("SEMI-OPEN", "semi_open_mechanism")])
    def test_answers_that_read_no_marginals_report_no_metadata_path(
            self, visibility, provenance):
        # A stratified sample with a global marginal: CLOSED and the
        # mechanism route used to report metadata_path 'direct'.
        catalog = fresh_catalog(mechanism=Mechanism("stratified", 20.0, "country"))
        answer = execute(parse_one(f"SELECT {visibility} COUNT(*) FROM Migrants"),
                         catalog)
        assert answer.provenance == provenance
        assert answer.diagnostics == {"sample": "Yahoo"}

    @pytest.mark.parametrize("where", ["country < 3", "country = 3",
                                       "age = 'old'", "age IN ('x')"])
    def test_where_predicate_is_type_checked(self, where):
        catalog = fresh_catalog()
        with pytest.raises(TypeMismatchError):
            execute(parse_one(f"SELECT CLOSED COUNT(*) FROM Migrants WHERE {where}"),
                    catalog)


    def test_query_names_only_its_population_attributes(self):
        # D projects country only; its sample still holds email and age,
        # which a query over D used to read.
        engine = Engine()
        engine.catalog = fresh_catalog()
        engine.run_script("CREATE POPULATION D AS "
                          "(SELECT country FROM Migrants WHERE country = 'UK');")
        (answer,) = engine.run_script(
            "SELECT CLOSED country, COUNT(*) FROM D GROUP BY country")
        assert answer.rows == [("UK", 3.0)]
        for text, attr in (("SELECT CLOSED email, COUNT(*) FROM D GROUP BY email",
                            "email"),
                           ("SELECT CLOSED SUM(age) FROM D", "age"),
                           ("SELECT CLOSED COUNT(*) FROM D WHERE email = 'AOL'",
                            "email"),
                           ("SELECT SEMI-OPEN AVG(bogus) FROM Migrants", "bogus")):
            with pytest.raises(UnknownAttributeError,
                               match=f"unknown attribute '{attr}'"):
                plan(parse_one(text), engine.catalog)

    @pytest.mark.parametrize("k", [1, 4])
    def test_rejected_query_leaves_the_session_as_it_was(self, k):
        # AVG over a categorical attribute used to pass `plan` and train the
        # generator before it failed.
        query = parse_one("SELECT OPEN country, AVG(age) FROM Migrants "
                          "GROUP BY country")
        answers = []
        for rejected in (True, False):
            engine = Engine(seed=3, train_config=small_options().train_config)
            engine.catalog = open_world_catalog()
            engine.set_config("k_samples", str(k))
            if rejected:
                with pytest.raises(TypeMismatchError, match="AVG.country. requires"):
                    engine.execute_statement(
                        parse_one("SELECT OPEN AVG(country) FROM Migrants"))
                assert engine.options.generator_cache == {}
            answers.append(engine.execute_statement(query).to_text())
        assert answers[0] == answers[1]


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

    @pytest.mark.parametrize("query, message", [
        ("SELECT SUM(x) FROM P", "SUM(x)"),
        ("SELECT c, COUNT(*), AVG(x) FROM P GROUP BY c", "AVG(x) in group (c = 'a')"),
        ("SELECT c, x, SUM(x) FROM P GROUP BY c, x",
         "SUM(x) in group (c = 'a', x = 1e+308)"),
    ], ids=["whole", "group", "two_attributes"])
    def test_non_finite_value_names_aggregate_and_group(self, query, message):
        catalog = Catalog()
        catalog.create_population(PopulationDef("P", True, [
            AttributeDef("c", "categorical"), AttributeDef("x", "numeric")]))
        catalog.create_sample("S")
        catalog.ingest_rows("S", [("b", 1.0), ("a", 1e308), ("a", 1e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning is not shown
            with pytest.raises(TypeMismatchError, match=re.escape(
                    f"non-finite aggregate value: {message}") + "$"):
                execute(parse_one(query), catalog)

    @pytest.mark.parametrize("where, rows", [
        ("age < 1{zeros}", [(5.0,)]), ("age <= 1{zeros}", [(5.0,)]),
        ("age = 1{zeros}", []), ("age > 1{zeros}", []),
        ("age > -1{zeros}", [(5.0,)]), ("age < -1{zeros}", []),
        ("age >= 30 AND age < 1{zeros}", [(3.0,)]),
    ], ids=["lt", "le", "eq", "gt", "gt_negative", "lt_negative", "conjunction"])
    def test_literal_past_float_range(self, where, rows):
        # numpy converted the 401-digit int to float and raised OverflowError;
        # compared as +-inf it matches every finite value or none.
        query = f"SELECT COUNT(*) FROM Migrants WHERE {where.format(zeros='0' * 400)}"
        assert execute(parse_one(query), fresh_catalog()).rows == rows


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

    @pytest.mark.parametrize("cells, stratum", [
        ({"UK": 60.0, "FR": 0.0}, "FR"),   # FR's stratum has no mass
        ({"UK": 60.0, "FR": 40.0}, "DE"),  # DE is not in the marginal at all
    ])
    def test_stratified_rejects_empty_stratum(self, tmp_path, capsys, cells, stratum):
        message = f"sample tuple falls in stratum '{stratum}' with no marginal mass"
        catalog = fresh_catalog(
            mechanism=Mechanism("stratified", 20.0, "country"), marginals=False)
        catalog.ingest_rows("Yahoo", [("DE", "Yahoo", 35.0)])
        catalog.create_metadata("Migrants", ("country",), cells)
        with pytest.raises(NoMetadataError, match=message):
            execute(parse_one("SELECT SEMI-OPEN COUNT(*) FROM Migrants"), catalog)
        (tmp_path / "stats.csv").write_text(
            "country,n\n" + "".join(f"{k},{v:g}\n" for k, v in cells.items()),
            encoding="utf-8")
        (tmp_path / "rows.csv").write_text("country\nUK\nFR\nDE\n", encoding="utf-8")
        script = tmp_path / "strata.opq"
        script.write_text(f"""
CREATE TABLE Stats (country TEXT, n INT);
INGEST Stats FROM '{tmp_path / "stats.csv"}';
CREATE GLOBAL POPULATION P (country TEXT);
CREATE METADATA P_ByCountry AS (SELECT country, n FROM Stats);
CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM STRATIFIED ON country PERCENT 20);
INGEST S FROM '{tmp_path / "rows.csv"}';
SELECT SEMI-OPEN COUNT(*) FROM P;
""", encoding="utf-8")
        assert openpop.cli.main(["--quiet", "--script", str(script)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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
        assert answer.diagnostics["metadata_path"] == "direct"

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
        assert answer.diagnostics["metadata_path"] == "global"

    def test_no_false_positive_groups(self):
        catalog = fresh_catalog()
        answer = execute(parse_one(
            "SELECT SEMI-OPEN country, email, COUNT(*) FROM Migrants "
            "GROUP BY country, email"), catalog)
        sample_keys = {(r[0], r[1]) for r in ROWS}
        assert group_keys(answer, 2) <= sample_keys


class TestRefitAfterIngest:
    """A refit after INGEST reads the cell ids the commit extended."""

    def test_indexes_only_the_appended_rows(self, monkeypatch):
        catalog = fresh_catalog()
        query = parse_one("SELECT SEMI-OPEN country, COUNT(*) FROM Migrants "
                          "GROUP BY country")
        execute(query, catalog)  # the first fit indexes the whole sample
        handed = []
        cell_index = Marginal.cell_index

        def counting(marginal, columns, *args):
            column = columns[marginal.attributes[0]]
            handed.append((marginal.attributes,
                           len(column[1] if isinstance(column, tuple) else column)))
            return cell_index(marginal, columns, *args)

        monkeypatch.setattr(Marginal, "cell_index", counting)
        catalog.ingest_rows("Yahoo", [("UK", "AOL", 33.0), ("FR", "Yahoo", 61.0)])
        answer = execute(query, catalog)
        assert answer.diagnostics["ipf_cache"] == "miss"
        assert sorted(handed) == [(("country",), 2), (("email",), 2)]

    def test_incremental_answers_equal_one_go(self, tmp_path):
        spec = FlightsLikeSpec(population_size=20_000, seed=3)
        data = gen_flightslike(spec)
        first = len(data.sample) // 2
        base = flights_catalog(
            FlightsLikeData(data.population, data.sample.take(np.arange(first))), spec)
        saved = tmp_path / "base.catalog"
        base.save(saved)
        queries = "".join(f"{text};\n" for _, text in FLIGHTS_QUERIES)

        def engine():
            fresh = Engine(seed=spec.seed)
            fresh.catalog = Catalog.load(saved)
            return fresh

        def ingest(indices, name):
            path = tmp_path / name
            path.write_text("C,O,I,E,D\n" + "".join(
                ",".join(map(str, row)) + "\n"
                for row in data.sample.take(indices).to_rows()), encoding="utf-8")
            return f"INGEST FlightsSample FROM '{path}';\n"

        def rendered(answers):
            assert len(answers) == len(FLIGHTS_QUERIES)
            return [(answer.to_text(), answer.to_csv()) for answer in answers]

        growing = engine()
        growing.run_script(queries)  # fits once, so each INGEST extends cell ids
        batches = np.array_split(np.arange(first, len(data.sample)), 5)
        for k, batch in enumerate(batches):
            got = growing.run_script(ingest(batch, f"batch_{k}.csv") + queries)
            everything = np.arange(first, batch[-1] + 1)
            want = engine().run_script(ingest(everything, f"upto_{k}.csv") + queries)
            assert rendered(got) == rendered(want)


class TestSemiOpenStorage:
    """SEMI-OPEN answers depend on the sample's rows, not on how they are
    stored: permuting them or repeating every row changes no group and no
    value beyond rounding."""

    @pytest.mark.parametrize("seed", range(5))
    def test_flights_answers_ignore_row_order_and_duplicates(self, seed):
        spec = FlightsLikeSpec(population_size=20_000, seed=seed)
        data = gen_flightslike(spec)
        rows = np.arange(len(data.sample))

        def answers(indices):
            catalog = flights_catalog(
                FlightsLikeData(data.population, data.sample.take(indices)), spec)
            return [execute(parse_one(text), catalog).rows for _, text in FLIGHTS_QUERIES]

        expected = answers(rows)
        permuted = np.random.default_rng(seed).permutation(rows)
        for variant in (answers(permuted), answers(np.repeat(rows, 2))):
            for (name, _), want, got in zip(FLIGHTS_QUERIES, expected, variant):
                assert [r[:-1] for r in got] == [r[:-1] for r in want], name
                np.testing.assert_allclose([r[-1] for r in got], [r[-1] for r in want],
                                           rtol=1e-12, atol=0, err_msg=name)


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
    def test_k_samples_below_one_rejected(self):
        for k in (0, -4):
            with pytest.raises(ConfigError, match="k_samples must be >= 1"):
                small_options(k_samples=k)

    def test_intersection_and_new_groups(self):
        catalog = open_world_catalog()
        options = small_options()
        answer = execute(parse_one(
            "SELECT OPEN country, email, COUNT(*) FROM Migrants "
            "GROUP BY country, email"), catalog, options)
        assert answer.provenance == "open"
        assert answer.diagnostics["k"] == 10
        keys = group_keys(answer, 2)
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

    @pytest.mark.parametrize("population, path", [("Migrants", "direct"),
                                                  ("UkMigrants", "global")])
    def test_reports_its_metadata_path(self, population, path):
        catalog = fresh_catalog()
        catalog.create_population(PopulationDef(
            "UkMigrants", False, [AttributeDef(a.name, a.kind) for a in SCHEMA],
            predicate=Predicate((Comparison("country", "=", "UK"),))))
        answer = execute(parse_one(f"SELECT OPEN COUNT(*) FROM {population}"),
                         catalog, small_options(k_samples=1))
        assert answer.diagnostics["metadata_path"] == path

    def test_group_must_appear_in_all_k(self):
        catalog = fresh_catalog()
        options = small_options()
        # run twice with the same cache to confirm stage reuse plus rule
        first = execute_open(parse_one(
            "SELECT OPEN country, COUNT(*) FROM Migrants GROUP BY country"),
            catalog.sample("Yahoo"), catalog, options)
        assert set(group_keys(first, 1)) <= {("UK",), ("FR",)}

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
        # Training on all the sample's rows would put mass outside the view.
        catalog = ukers_catalog()
        options = ExecOptions(train_config=TrainConfig(
            epochs=10, layers=(32, 32), batch_size=64, projections=16,
            learning_rate=1e-2, seed=0))
        (open_count,) = execute(parse_one("SELECT OPEN COUNT(*) FROM UKers"),
                                catalog, options).rows[0]
        (semi_count,) = execute(parse_one("SELECT SEMI-OPEN COUNT(*) FROM UKers"),
                                catalog, options).rows[0]
        assert open_count == pytest.approx(500.0, rel=0.05)
        assert semi_count == pytest.approx(500.0, rel=0, abs=1e-9)

    def test_derived_population_generator_is_hashed_once(self, hashed):
        # The generator is keyed by the sample and the view's predicate, so
        # a repeated query hashes no view of its own.
        catalog = ukers_catalog()
        options = small_options(train_config=TrainConfig(
            epochs=1, layers=(8,), batch_size=64, projections=4))
        query = parse_one("SELECT OPEN email, COUNT(*) FROM UKers GROUP BY email")
        caches = [execute(query, catalog, options).diagnostics["generator_cache"]
                  for _ in range(2)]
        assert (caches, hashed) == (["miss", "hit"], ["S"])
        catalog.ingest_rows("S", [("UK", "AOL")])
        caches = [execute(query, catalog, options).diagnostics["generator_cache"]
                  for _ in range(2)]
        assert (caches, hashed) == (["miss", "hit"], ["S", "S"])

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

    @pytest.mark.parametrize("visibility", ["SEMI-OPEN", "OPEN"])
    def test_empty_view_names_the_population(self, visibility):
        # The view of UKers holds none of the sample's rows; the error used
        # to say "sample 'S' has no rows", though S has two.
        catalog = ukers_catalog()
        catalog.samples.pop("S")
        catalog.create_sample("S")
        catalog.ingest_rows("S", [("FR", "Yahoo"), ("FR", "AOL")])
        query = parse_one(f"SELECT {visibility} COUNT(*) FROM UKers")
        with pytest.raises(EmptySampleError,
                           match="^no row of sample 'S' is in population 'UKers'$"):
            execute(query, catalog, small_options())

    def test_group_missing_from_one_answer_is_excluded(self):
        # Ten stacked samples of two rows; 'b' is generated in only 9 of 10.
        schema = [AttributeDef("g", "categorical")]
        stacked = Relation.from_rows(schema, [("a",), ("b",)] * 9 + [("a",), ("a",)],
                                     [10.0, 20.0] * 9 + [15.0, 15.0])
        answer = evaluate_aggregates(
            stacked, parse_one("SELECT OPEN g, COUNT(*) FROM P GROUP BY g"), 10)
        assert answer.rows == [("a", 12.0)]
        assert answer.diagnostics == {"dropped_groups": 1}


def serial_open(query, catalog, options):
    """The oracle for the OPEN route: the k latent batches of its trained
    generator drawn in order from a fresh rng seeded by the generator's
    fingerprint key, generated one at a time, and aggregated by the answer
    tail."""
    pop = catalog.population(query.source)
    marginals, _, scope = applicable_marginals(catalog, pop)
    key = fingerprint(plan(query, catalog), marginals, options.train_config, scope)
    ((slot_key, trained, n, _),) = options.generator_cache.values()
    assert slot_key == key
    k = options.k_samples if query.aggregates() else 1
    rng = np.random.default_rng(int(key, 16))
    generated = [generate(trained, rng.standard_normal((n, trained.net.latent_dim)))
                 for _ in range(k)]
    stacked = Relation(generated[0].schema, {
        name: np.concatenate([rows.columns[name] for rows in generated])
        for name in generated[0].columns}, np.full(k * n, trained.population_total / n))
    return _answer(query, pop, stacked, PROVENANCE_OPEN, k=k)


class TestOpenPool:
    """OPEN answers read the pool of samples kept with the trained generator."""

    CASES = {
        "group_by": (open_world_catalog, "SELECT OPEN country, email, COUNT(*), "
                     "AVG(age) FROM Migrants GROUP BY country, email"),
        "where": (open_world_catalog, "SELECT OPEN country, SUM(age) FROM Migrants "
                  "WHERE age > 35 GROUP BY country"),
        "materialized": (open_world_catalog, "SELECT OPEN country, age FROM Migrants"),
        "derived": (ukers_catalog, "SELECT OPEN email, COUNT(*) FROM UKers "
                    "GROUP BY email"),
    }

    @pytest.mark.parametrize("k_samples", ["one", "k"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_serial_oracle_bytes(self, case, k_samples):
        make_catalog, text = self.CASES[case]
        catalog, query = make_catalog(), parse_one(text)
        options = small_options(k_samples=1 if k_samples == "one" else 10)
        answer = execute(query, catalog, options)
        want = serial_open(query, catalog, options)
        assert answer.rows
        assert answer.diagnostics["k"] == (options.k_samples if query.aggregates() else 1)
        assert answer.to_text() == want.to_text()
        assert answer.to_csv() == want.to_csv()

    @pytest.mark.parametrize("case", ["group_by", "materialized"])
    def test_reports_its_pool_size(self, monkeypatch, case):
        # A query generates only the samples it reads: k for aggregates,
        # one for plain tuples.
        make_catalog, text = self.CASES[case]
        catalog, query = make_catalog(), parse_one(text)
        options = small_options(k_samples=3)
        real_generate = openpop.executor.generate
        calls = []

        def counting_generate(trained, latents):
            calls.append(len(latents))
            return real_generate(trained, latents)

        monkeypatch.setattr(openpop.executor, "generate", counting_generate)
        answers = [execute(query, catalog, options) for _ in range(2)]
        ((_, _, n, kept),) = options.generator_cache.values()
        k = 1 if case == "materialized" else 3
        assert [a.diagnostics["k"] for a in answers] == [k, k]
        assert calls == [n] * k and len(kept) == k * n
        assert answers[0].to_csv() == answers[1].to_csv()


def no_take(self, indices):
    raise AssertionError("the query copied the kept samples")


class TestKeptSamples:
    QUERY = "SELECT OPEN country, email, COUNT(*) FROM Migrants GROUP BY country, email"

    def engine(self, catalog) -> Engine:
        engine = Engine(seed=2, train_config=small_options().train_config)
        engine.catalog = catalog
        return engine

    def test_answer_does_not_depend_on_query_history(self):
        # Each OPEN answer used to draw fresh latent batches from a session
        # rng, so it depended on how many OPEN queries ran before it.
        catalog = open_world_catalog()
        engine = self.engine(catalog)
        query = parse_one(self.QUERY)
        first = engine.execute_statement(query)
        again = engine.execute_statement(query)
        engine.execute_statement(parse_one(
            "SELECT OPEN country, AVG(age) FROM Migrants GROUP BY country"))
        after_other = engine.execute_statement(query)
        fresh = self.engine(catalog).execute_statement(query)
        assert first.diagnostics["generator_cache"] == "miss"
        assert fresh.diagnostics["generator_cache"] == "miss"
        for answer in (again, after_other, fresh):
            assert answer.to_text() == first.to_text()
            assert answer.to_csv() == first.to_csv()

    def test_raising_k_extends_the_kept_samples_without_training(self, monkeypatch):
        catalog = open_world_catalog()
        engine = self.engine(catalog)
        query = parse_one(self.QUERY)
        engine.set_config("k_samples", "3")
        three = engine.execute_statement(query)
        trained = []
        real_train = openpop.executor.train
        monkeypatch.setattr(openpop.executor, "train",
                            lambda *a, **kw: trained.append(1) or real_train(*a, **kw))
        engine.set_config("k_samples", "10")
        ten = engine.execute_statement(query)
        assert ten.diagnostics["generator_cache"] == "hit"
        assert (ten.diagnostics["k"], trained) == (10, [])
        ((_, _, n, kept),) = engine.options.generator_cache.values()
        assert len(kept) == 10 * n
        want = _answer(query, catalog.population("Migrants"),
                       kept.take(slice(0, 3 * n)), PROVENANCE_OPEN, k=3)
        assert three.to_csv() == want.to_csv()
        engine.set_config("k_samples", "3")
        assert engine.execute_statement(query).to_text() == three.to_text()

    def test_aggregate_after_plain_query_grows_the_kept_samples(self, monkeypatch):
        # A plain OPEN query keeps sample 0 alone; the aggregate after it
        # needs all ten, without training again.
        catalog = open_world_catalog()
        engine = self.engine(catalog)
        engine.execute_statement(parse_one("SELECT OPEN country, age FROM Migrants"))
        trained = []
        real_train = openpop.executor.train
        monkeypatch.setattr(openpop.executor, "train",
                            lambda *a, **kw: trained.append(1) or real_train(*a, **kw))
        grown = engine.execute_statement(parse_one(self.QUERY))
        assert (grown.diagnostics["generator_cache"], trained) == ("hit", [])
        fresh_engine = self.engine(catalog)
        fresh = fresh_engine.execute_statement(parse_one(self.QUERY))
        ((_, _, n, kept),) = engine.options.generator_cache.values()
        ((_, _, _, want),) = fresh_engine.options.generator_cache.values()
        assert len(kept) == len(want) == 10 * n
        for name, column in want.columns.items():
            assert kept.columns[name].tolist() == column.tolist()
        assert kept.weights.tobytes() == want.weights.tobytes()
        assert grown.to_text() == fresh.to_text()
        assert grown.to_csv() == fresh.to_csv()

    def test_warm_aggregate_is_one_pass_over_the_kept_stack(self, monkeypatch):
        # The k kept samples are aggregated as one relation: one filter and
        # one evaluation, not one per sample, and nothing is copied.
        catalog = open_world_catalog()
        engine = self.engine(catalog)
        query = parse_one("SELECT OPEN country, SUM(age) FROM Migrants "
                          "WHERE age > 30 GROUP BY country")
        cold = engine.execute_statement(query)
        ((_, _, n, kept),) = engine.options.generator_cache.values()
        assert len(kept) == 10 * n
        calls = []

        def recorded(name):
            real = getattr(openpop.executor, name)

            def wrapper(*args):
                calls.append((name, any(arg is kept for arg in args)))
                return real(*args)
            return wrapper

        for name in ("filter_rows", "evaluate_aggregates"):
            monkeypatch.setattr(openpop.executor, name, recorded(name))
        monkeypatch.setattr(Relation, "take", no_take)
        warm = engine.execute_statement(query)
        assert warm.diagnostics["generator_cache"] == "hit"
        assert calls == [("evaluate_aggregates", True), ("filter_rows", True)]
        assert warm.to_text() == cold.to_text()

    def test_warns_of_groups_only_some_samples_held(self, capsys):
        # 'b' is generated in 9 of the 10 samples.
        schema = [AttributeDef("g", "categorical")]
        full = Relation.from_rows(schema, [("a",), ("b",), ("b",)])
        partial = Relation.from_rows(schema, [("a",), ("a",), ("a",)])
        pop = PopulationDef("P", True, schema)
        query = parse_one("SELECT OPEN g, COUNT(*) FROM P GROUP BY g")
        stack = lambda blocks: Relation.from_rows(  # noqa: E731
            schema, [row for block in blocks for row in block.to_rows()])
        answer = _answer(query, pop, stack([full] * 9 + [partial]), PROVENANCE_OPEN, k=10)
        warning = ("warning: OPEN dropped 1 group that only some of the 10 "
                   "generated samples held")
        assert answer.rows == [("a", 1.2)]
        assert answer.warnings() == [warning]
        assert answer.to_text().endswith("(1 row, open)\n" + warning)
        openpop.cli._print_answer(answer, "csv")
        out, err = capsys.readouterr()
        assert (out, err) == ("g,COUNT(*)\na,1.2\n", warning + "\n")
        kept = _answer(query, pop, stack([full] * 10), PROVENANCE_OPEN, k=10)
        assert kept.diagnostics["dropped_groups"] == 0
        assert kept.warnings() == []
        assert kept.to_text().endswith("(2 rows, open)")


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
        assert "stopped at round" not in answer.to_text()

    def test_text_warns_when_ipf_stalls(self):
        answer = execute(parse_one("SELECT SEMI-OPEN COUNT(*) FROM Migrants"),
                         fresh_catalog())
        answer.diagnostics["ipf"] = IpfReport(20, [0.25, 1e-3], False, stalled=True)
        text = answer.to_text()
        assert ("warning: IPF stopped at round 20: the marginals cannot all be "
                "met on this sample's rows (discrepancies unchanged over 10 "
                "rounds; max discrepancy 0.25)") in text
        assert "did not converge" not in text

    def test_stalled_fit_reaches_the_text(self):
        # The pair marginals disagree on b's totals, so no weighting meets both.
        catalog = Catalog()
        catalog.create_population(PopulationDef(
            "P", True, [AttributeDef(n, "categorical") for n in ("a", "b", "c")]))
        catalog.create_sample("S")
        catalog.ingest_rows("S", [(a, b, c) for a in "xy" for b in "uv" for c in "pq"])
        catalog.create_metadata("P", ("a", "b"), {("x", "u"): 10.0, ("x", "v"): 10.0,
                                                  ("y", "u"): 10.0, ("y", "v"): 10.0})
        catalog.create_metadata("P", ("b", "c"), {("u", "p"): 5.0, ("u", "q"): 5.0,
                                                  ("v", "p"): 15.0, ("v", "q"): 15.0})
        answer = execute(parse_one("SELECT SEMI-OPEN COUNT(*) FROM P"), catalog)
        report = answer.diagnostics["ipf"]
        assert report.stalled and report.rounds < 1000
        assert f"warning: IPF stopped at round {report.rounds}: " in answer.to_text()

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
