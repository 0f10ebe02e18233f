"""Catalog: declarations, ingestion, marginals, persistence round-trips."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openpop.catalog import (
    AttributeDef,
    Catalog,
    Marginal,
    Mechanism,
    NumericBinning,
    PopulationDef,
    Relation,
    build_marginal,
    content_key,
)
from openpop.errors import (
    CatalogIoError,
    CsvParseError,
    DuplicateNameError,
    FormatVersionMismatchError,
    InvalidPercentError,
    NegativeCountError,
    NoGlobalPopulationError,
    TooManyAttributesError,
    TypeMismatchError,
    UnknownAttributeError,
)
from openpop.predicate import Comparison, Predicate


GOLDEN = Path(__file__).parent / "data" / "catalog_v1.opc"


def first_weight(value):
    """A change to a saved sample record: its first weight becomes `value`."""
    return lambda record: {**record, "weights": [value] + record["weights"][1:]}


def migrant_schema():
    return [AttributeDef("country", "categorical"),
            AttributeDef("email", "categorical")]


@pytest.fixture
def catalog():
    cat = Catalog(seed=7)
    cat.create_population(PopulationDef("Migrants", True, migrant_schema()))
    return cat


class TestPopulations:
    def test_register_global(self, catalog):
        assert catalog.global_population().name == "Migrants"

    def test_second_global_rejected(self, catalog):
        with pytest.raises(DuplicateNameError):
            catalog.create_population(
                PopulationDef("Other", True, migrant_schema()))

    def test_derived_population_view(self, catalog):
        pred = Predicate((Comparison("country", "=", "UK"),))
        catalog.create_population(PopulationDef(
            "UkMigrants", False, migrant_schema(), predicate=pred))
        assert catalog.population("UkMigrants").source == "Migrants"

    def test_derived_requires_global(self):
        cat = Catalog()
        with pytest.raises(NoGlobalPopulationError):
            cat.create_population(
                PopulationDef("P", False, migrant_schema()))

    def test_predicate_type_checked(self, catalog):
        bad = Predicate((Comparison("country", "<", "UK"),))
        with pytest.raises(TypeMismatchError):
            catalog.create_population(PopulationDef(
                "P", False, migrant_schema(), predicate=bad))


class TestSamples:
    def test_create_and_ingest(self, catalog):
        catalog.create_sample("Yahoo")
        count = catalog.ingest_rows("Yahoo", [("UK", "Yahoo"), ("FR", "Yahoo")])
        assert count == 2
        sample = catalog.sample("Yahoo")
        assert np.array_equal(sample.weights, np.ones(2))

    def test_unknown_attribute_rejected(self, catalog):
        with pytest.raises(UnknownAttributeError):
            catalog.create_sample("S", schema=[AttributeDef("age", "numeric")])

    def test_invalid_percent(self):
        with pytest.raises(InvalidPercentError):
            Mechanism("uniform", 0)
        with pytest.raises(InvalidPercentError):
            Mechanism("uniform", 101)
        assert Mechanism("uniform", 10).percent == 10

    def test_domain_growth_on_ingest(self, catalog):
        catalog.create_sample("S")
        catalog.ingest_rows("S", [("UK", "Yahoo")])
        gp = catalog.global_population()
        assert "UK" in gp.schema[0].domain
        assert "Yahoo" in gp.schema[1].domain

    def test_set_weights(self, catalog):
        catalog.create_sample("S")
        catalog.ingest_rows("S", [("UK", "Yahoo"), ("FR", "Yahoo")])
        catalog.set_weights("S", [2.0, 3.0])
        assert catalog.sample("S").weights.tolist() == [2.0, 3.0]
        with pytest.raises(NegativeCountError):
            catalog.set_weights("S", [-1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, catalog, bad):
        catalog.create_sample("S")
        catalog.ingest_rows("S", [("UK", "Yahoo"), ("FR", "Yahoo")])
        with pytest.raises(TypeMismatchError, match="weights must be finite"):
            catalog.set_weights("S", [1.0, bad])
        assert catalog.sample("S").weights.tolist() == [1.0, 1.0]


class TestDigest:
    """The memoized digest behind every fit-cache key follows each change
    to the relation and only its content."""

    def keys(self, relation):
        marginals = [Marginal("Migrants", ("country",), {"UK": 1.0})]
        return relation.digest, content_key(relation, marginals, "settings")

    def test_every_change_gives_new_keys(self, catalog, tmp_path):
        catalog.create_sample("S")
        catalog.ingest_rows("S", [("UK", "Yahoo"), ("FR", "Yahoo")])
        sample = catalog.sample("S")
        path = tmp_path / "rows.csv"
        path.write_text("country,email\nFR,AOL\n", encoding="utf-8")
        changes = [
            lambda: catalog.ingest_rows("S", [("UK", "AOL")]),
            lambda: catalog.ingest_csv("S", path),
            lambda: catalog.set_weights("S", np.arange(1.0, len(sample) + 1)),
            lambda: setattr(sample, "weights", np.full(len(sample), 0.5)),
        ]
        seen = {self.keys(sample)}
        for change in changes:
            change()
            keys = self.keys(sample)
            assert keys not in seen
            seen.add(keys)
            fresh = Relation(sample.schema, dict(sample.columns), sample.weights)
            assert fresh.digest == sample.digest

    def test_equal_content_equal_keys(self, catalog):
        rows = [("UK", "Yahoo"), ("FR", "AOL")]
        catalog.create_sample("S")
        catalog.ingest_rows("S", rows)
        twin = Relation.from_rows(migrant_schema(), rows)
        assert twin is not catalog.sample("S")
        assert self.keys(twin) == self.keys(catalog.sample("S"))

    def test_held_arrays_are_read_only(self, catalog):
        catalog.create_sample("S")
        catalog.ingest_rows("S", [("UK", "Yahoo"), ("FR", "Yahoo")])
        sample = catalog.sample("S")
        with pytest.raises(ValueError):
            sample.columns["country"][0] = "DE"
        with pytest.raises(ValueError):
            sample.weights[0] = 9.0
        given = np.array([2.0, 3.0])
        catalog.set_weights("S", given)
        with pytest.raises(ValueError):
            sample.weights[0] = 9.0
        given[0] = 7.0
        assert sample.weights.tolist() == [2.0, 3.0]


class TestIngestCsv:
    def test_csv_round(self, catalog, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("country,email\nUK,Yahoo\nFR,Yahoo\n", encoding="utf-8")
        catalog.create_sample("S")
        assert catalog.ingest_csv("S", path) == 2

    def test_empty_file(self, catalog, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        catalog.create_sample("S")
        assert catalog.ingest_csv("S", path) == 0

    def test_duplicate_header_column_rejected(self, catalog, tmp_path):
        catalog.create_sample("S")
        catalog.create_aux_table("T", migrant_schema())
        path = tmp_path / "dup.csv"
        path.write_text("country,country,email\nUK,FR,Yahoo\n", encoding="utf-8")
        for target in ("S", "T"):
            with pytest.raises(CsvParseError) as err:
                catalog.ingest_csv(target, path)
            assert err.value.line == 1
        assert len(catalog.sample("S")) == 0 and len(catalog.aux["T"]) == 0
        assert [a.domain for a in catalog.global_population().schema] == [[], []]

    def test_bad_numeric_value(self, tmp_path):
        cat = Catalog()
        cat.create_population(PopulationDef(
            "P", True, [AttributeDef("n", "numeric")]))
        cat.create_sample("S")
        path = tmp_path / "bad.csv"
        path.write_text("n\n1\nhello\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as err:
            cat.ingest_csv("S", path)
        assert err.value.line == 3
        # A skipped blank record still counts as a line; a header out of
        # schema order keeps each value's line.
        mixed = Catalog()
        mixed.create_population(PopulationDef(
            "P", True, [AttributeDef("c", "categorical"), AttributeDef("n", "numeric")]))
        mixed.create_sample("S")
        for target, text, line in ((cat, "n\n1\n\n2,3\n", 4),
                                   (mixed, "n,c\n1,UK\n2,FR\nx,NL\n", 4)):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(CsvParseError) as err:
                target.ingest_csv("S", path)
            assert err.value.line == line
        assert len(cat.sample("S")) == 0 and len(mixed.sample("S")) == 0

    def test_non_finite_numeric_rejected(self, tmp_path):
        cat = Catalog()
        cat.create_population(PopulationDef(
            "P", True, [AttributeDef("n", "numeric")]))
        cat.create_sample("S")
        path = tmp_path / "nan.csv"
        path.write_text("n\nnan\n", encoding="utf-8")
        with pytest.raises(CsvParseError):
            cat.ingest_csv("S", path)


class TestAtomicIngest:
    """A failed ingest leaves rows, weights and every domain as they were."""

    def build(self) -> Catalog:
        cat = Catalog()
        cat.create_population(PopulationDef(
            "P", True, [AttributeDef("country", "categorical"),
                        AttributeDef("n", "numeric")]))
        cat.create_sample("S")
        cat.ingest_rows("S", [("UK", 1.0)])
        return cat

    def state(self, cat: Catalog):
        sample = cat.sample("S")
        return ([list(a.domain) for a in sample.schema],
                [list(a.domain) for a in cat.global_population().schema],
                sample.to_rows(), sample.weights.tolist())

    def test_failed_csv_keeps_domains(self, tmp_path):
        cat = self.build()
        before = self.state(cat)
        path = tmp_path / "bad.csv"
        path.write_text("country,n\nNL,2\nFR,oops\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as err:
            cat.ingest_csv("S", path)
        assert err.value.line == 3
        assert self.state(cat) == before

    def test_failed_rows_keep_domains(self):
        cat = self.build()
        before = self.state(cat)
        with pytest.raises(CsvParseError):
            cat.ingest_rows("S", [("NL", 2.0), ("FR", "oops")])
        assert self.state(cat) == before

    def test_commit_grows_both_domains_in_order(self, tmp_path):
        cat = self.build()
        path = tmp_path / "good.csv"
        path.write_text("n,country\n2,NL\n3,FR\n4,NL\n", encoding="utf-8")
        assert cat.ingest_csv("S", path) == 3
        sample_domains, global_domains, rows, weights = self.state(cat)
        assert sample_domains[0] == global_domains[0] == ["UK", "NL", "FR"]
        assert rows[1:] == [("NL", 2.0), ("FR", 3.0), ("NL", 4.0)]
        assert weights == [1.0] * 4


class TestMarginals:
    def test_one_dimensional(self, catalog):
        catalog.create_metadata("Migrants", ("country",),
                                {"UK": 20020.0, "FR": 9000.0})
        (marginal,) = catalog.marginals_for("Migrants")
        assert marginal.total() == pytest.approx(29020.0)
        # marginal keys extend the active domain (open-world values)
        assert "UK" in catalog.global_population().schema[0].domain

    def test_two_dimensional(self, catalog):
        catalog.create_metadata("Migrants", ("country", "email"),
                                {("UK", "Yahoo"): 5.0, ("UK", "AOL"): 2.0})
        (marginal,) = catalog.marginals_for("Migrants")
        assert marginal.attributes == ("country", "email")

    def test_three_attributes_rejected(self, catalog):
        with pytest.raises(TooManyAttributesError):
            Marginal("Migrants", ("a", "b", "c"), {})

    def test_negative_count_rejected(self, catalog):
        with pytest.raises(NegativeCountError):
            catalog.create_metadata("Migrants", ("country",), {"UK": -1.0})

    def test_binning_attached_for_unrounded_data(self):
        schema = [AttributeDef("x", "numeric")]
        rows = [(0.25,), (0.5,), (9.75,)]
        marginal = build_marginal("P", ("x",), Relation.from_rows(schema, rows), nbins=4)
        binning = marginal.binnings["x"]
        assert binning.nbins == 4
        assert sum(marginal.cells.values()) == 3

    def test_integer_data_uses_point_cells(self):
        schema = [AttributeDef("x", "numeric")]
        marginal = build_marginal(
            "P", ("x",), Relation.from_rows(schema, [(250.0,), (250.0,), (3.0,)]))
        assert marginal.cells == {250: 2.0, 3: 1.0}
        assert marginal.binnings == {}

    def test_cell_of_clamps_out_of_range(self):
        binning = NumericBinning(0.0, 10.0, 5)
        assert binning.cells([-3.0])[0] == 0
        assert binning.cells([42.0])[0] == 4
        marginal = Marginal("P", ("x",), {i: 1.0 for i in range(5)},
                            {"x": binning})
        ids, keys = marginal.cell_index({"x": np.asarray([99.0])})
        assert keys[ids[0]] == 4

    def test_pair_cell_of(self):
        marginal = Marginal("P", ("C", "E"), {("AA", 250): 7.0})
        ids, keys = marginal.cell_index({"C": np.asarray(["AA"], dtype=object),
                                         "E": np.asarray([250.0])})
        key = keys[ids[0]]
        assert key == ("AA", 250)
        assert marginal.cells[key] == 7.0


class TestPersistence:
    def build_catalog(self) -> Catalog:
        cat = Catalog(seed=3)
        cat.create_population(PopulationDef("Migrants", True, migrant_schema()))
        cat.create_population(PopulationDef(
            "UkMigrants", False, migrant_schema(),
            predicate=Predicate((Comparison("country", "=", "UK"),))))
        cat.create_sample("Yahoo", mechanism=Mechanism("uniform", 10.0))
        cat.ingest_rows("Yahoo", [("UK", "Yahoo"), ("FR", "Yahoo")])
        cat.set_weights("Yahoo", [1.5, 2.5])
        cat.create_metadata("Migrants", ("country",), {"UK": 3.0, "FR": 2.0})
        cat.create_metadata("Migrants", ("email",), {"Yahoo": 4.0, "AOL": 1.0})
        cat.create_metadata("Migrants", ("country", "email"),
                            {("UK", "Yahoo"): 2.0})
        cat.create_aux_table("Stats", [AttributeDef("country", "categorical"),
                                       AttributeDef("n", "numeric")])
        cat.ingest_rows("Stats", [("UK", 3.0)])
        return cat

    def test_round_trip_identity(self, tmp_path):
        cat = self.build_catalog()
        path = tmp_path / "catalog.opc"
        cat.save(path)
        restored = Catalog.load(path)
        assert restored.to_jsonable() == cat.to_jsonable()
        assert len(restored.marginals) == 3
        assert len(restored.samples) == 1

    def test_save_replaces_whole_file(self, tmp_path):
        path = tmp_path / "catalog.opc"
        path.write_text("old contents\n", encoding="utf-8")
        cat = self.build_catalog()
        cat.save(path)
        assert Catalog.load(path).to_jsonable() == cat.to_jsonable()
        assert [p.name for p in tmp_path.iterdir()] == ["catalog.opc"]

    def test_failed_save_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken.opc"
        target.mkdir()
        with pytest.raises(CatalogIoError):
            self.build_catalog().save(target)
        assert [p.name for p in tmp_path.iterdir()] == ["taken.opc"]

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.opc"
        path.write_text("not a catalog\n", encoding="utf-8")
        with pytest.raises(FormatVersionMismatchError):
            Catalog.load(path)

    def test_truncated_record(self, tmp_path):
        cat = self.build_catalog()
        path = tmp_path / "catalog.opc"
        cat.save(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:len(text) - 20], encoding="utf-8")
        with pytest.raises((CsvParseError, FormatVersionMismatchError)):
            Catalog.load(path)

    def test_load_checks_derived_population_against_global(self, tmp_path):
        # A restored derived population may only use the global
        # population's attributes, with the same kinds.
        path = tmp_path / "catalog.opc"
        self.build_catalog().save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if '"name": "UkMigrants"' in line)
        record = json.loads(lines[lineno - 1])
        record["schema"][1]["kind"] = "numeric"
        lines[lineno - 1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match=f"line {lineno}: .*'email' not in global"):
            Catalog.load(path)

    @pytest.mark.parametrize("name, change, error", [
        ("Panel", lambda r: {**r, "name": "Survey"}, "DuplicateNameError"),
        ("PairStats", lambda r: {**r, "name": "CountryStats"},
         "DuplicateNameError"),
        ("CountryStats", lambda r: {**r, "name": "Survey"}, "DuplicateNameError"),
        ("UKers", lambda r: {**r, "name": "P"}, "DuplicateNameError"),
        ("UKers", lambda r: {**r, "global": True, "source": None},
         "DuplicateNameError"),
        ("P_country_email", lambda r: {**r, "name": "P_country"},
         "DuplicateNameError"),
        ("UK_email", lambda r: {**r, "name": "Survey"}, "DuplicateNameError"),
        ("UK_email", lambda r: {**r, "attributes": ["zzz"]},
         "UnknownAttributeError"),
        ("UK_email", lambda r: {**r, "owner": "Nobody"},
         "UnknownPopulationError"),
        ("Survey", first_weight(-1.0), "NegativeCountError"),
        ("Survey", first_weight(float("nan")), "TypeMismatchError"),
        ("Survey", first_weight(float("inf")), "TypeMismatchError"),
    ], ids=["duplicate_sample", "duplicate_aux", "aux_named_like_sample",
            "duplicate_population", "second_global", "duplicate_marginal",
            "marginal_named_like_sample", "marginal_attribute_not_in_owner",
            "missing_marginal_owner", "negative_weight", "nan_weight",
            "infinite_weight"])
    def test_load_enforces_the_create_rules(self, tmp_path, name, change, error):
        # Each case edits one record of the golden catalog so that the call
        # which made it would refuse it; the load must fail at that line.
        lines = GOLDEN.read_text(encoding="utf-8").splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if f'"name": "{name}"' in line)
        lines[lineno - 1] = json.dumps(change(json.loads(lines[lineno - 1])))
        path = tmp_path / "edited.opc"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match=(
                f"^line {lineno}: malformed catalog record \\({error}: ")) as info:
            Catalog.load(path)
        assert info.value.line == lineno

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_catalogs_round_trip(self, tmp_path_factory, data):
        rng_names = st.text(alphabet="abcdefg", min_size=1, max_size=6)
        cat = Catalog(seed=data.draw(st.integers(0, 2 ** 31)))
        n_attrs = data.draw(st.integers(1, 3))
        schema = []
        for i in range(n_attrs):
            kind = data.draw(st.sampled_from(["numeric", "categorical"]))
            schema.append(AttributeDef(f"a{i}", kind))
        cat.create_population(PopulationDef("G", True, schema))
        cat.create_sample("S")
        n_rows = data.draw(st.integers(0, 5))
        rows = []
        for _ in range(n_rows):
            row = []
            for attr in schema:
                if attr.kind == "numeric":
                    row.append(data.draw(st.floats(-10, 10)))
                else:
                    row.append(data.draw(rng_names))
            rows.append(tuple(row))
        cat.ingest_rows("S", rows)
        if n_rows:
            cat.set_weights("S", [data.draw(st.floats(0, 5)) for _ in range(n_rows)])
        if data.draw(st.booleans()):
            attr = schema[0]
            if attr.kind == "numeric":
                cells = {data.draw(st.integers(-5, 5)): data.draw(st.floats(0.1, 9))
                         for _ in range(data.draw(st.integers(1, 3)))}
            else:
                cells = {data.draw(rng_names): data.draw(st.floats(0.1, 9))
                         for _ in range(data.draw(st.integers(1, 3)))}
            cat.create_metadata("G", (attr.name,), cells)
        if len(schema) >= 2 and all(a.kind == "categorical" for a in schema[:2]) \
                and data.draw(st.booleans()):
            cat.create_metadata("G", (schema[0].name, schema[1].name),
                                {(data.draw(rng_names), data.draw(rng_names)): 2.0})
        path = tmp_path_factory.mktemp("cat") / "c.opc"
        cat.save(path)
        assert Catalog.load(path).to_jsonable() == cat.to_jsonable()

