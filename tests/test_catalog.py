"""Catalog: declarations, ingestion, marginals, persistence round-trips."""

import contextlib
import functools
import itertools
import json
import math
import os
import re
import stat
import threading
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openpop.catalog import (
    INGEST_CHUNK,
    MARGINAL_BINS,
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
    CatalogError,
    CatalogIoError,
    ConfigError,
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
from openpop.predicate import Comparison, InList, Predicate


GOLDEN = Path(__file__).parent / "data" / "catalog_v1.opc"


def first_weight(value):
    """A change to a saved sample record: its first weight becomes `value`."""
    return lambda record: {**record, "weights": [value] + record["weights"][1:]}


def schema_attribute(index, **changes):
    """A change to a saved record's schema: attribute `index` takes `changes`."""
    return lambda record: {**record, "schema": [
        {**a, **changes} if i == index else a for i, a in enumerate(record["schema"])]}


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

    def test_stratification_attribute_must_be_in_the_sample(self, catalog):
        # A global attribute the sample lacks used to pass, and SEMI-OPEN then
        # crashed reading each row's stratum.
        with pytest.raises(UnknownAttributeError,
                           match="'email' not in schema of sample 'S'"):
            catalog.create_sample("S", schema=[AttributeDef("country", "categorical")],
                                  mechanism=Mechanism("stratified", 10.0, "email"))
        assert "S" not in catalog.samples

    def test_empty_schema_rejected(self, catalog):
        # A relation needs a column to hold its rows: over none, ingested rows
        # were counted but not kept, and a saved catalog failed to load.
        with pytest.raises(CatalogError, match="at least one attribute"):
            catalog.create_sample("S", schema=[])
        with pytest.raises(CatalogError, match="at least one attribute"):
            catalog.create_aux_table("T", [])
        with pytest.raises(CatalogError, match="at least one attribute"):
            Catalog().create_population(PopulationDef("P", True, []))

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
        # Batches with the keys read between them, so the memo is extended;
        # "AT" comes last and sorts first, so the country codes are renumbered.
        batches = [[("UK", "Yahoo")], [("FR", "AOL"), ("UK", "AOL")],
                   [("AT", "Yahoo"), ("FR", "Yahoo")]]
        catalog.create_sample("T")
        sample = catalog.sample("T")
        for batch in batches:
            catalog.ingest_rows("T", batch)
            self.keys(sample)
        assert sample.memo["country"][0] == ["AT", "FR", "UK"]
        rows = [row for batch in batches for row in batch]
        assert self.keys(Relation.from_rows(migrant_schema(), rows)) == self.keys(sample)
        shuffled = Relation.from_rows(migrant_schema(), rows[1:] + rows[:1])
        assert shuffled.digest != sample.digest

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


CELL_ROW = st.tuples(st.sampled_from(["a", "b", "c", "d"]),
                     st.integers(0, 3).map(float),
                     st.floats(-3.0, 13.0, allow_nan=False))
# Batch rows also bring values the first rows lack, some sorting before them.
BATCH_ROW = st.tuples(st.sampled_from(["", "A", "a", "b", "c", "d", "e", "z"]),
                      st.integers(0, 3).map(float),
                      st.floats(-3.0, 13.0, allow_nan=False))


class TestCellIds:
    """A relation's memo of categorical codes and cell ids: each commit
    extends it and a weight change keeps it, and every entry always equals a
    fresh build over the whole columns."""

    MARGINALS = [
        Marginal("P", ("x",), {0: 5.0, 2: 1.0}, {"x": NumericBinning(0.0, 10.0, 4)}),
        Marginal("P", ("c", "n"), {("a", 1): 3.0, ("b", 2): 4.0, ("z", 0): 1.0}),
        # the 1-D marginal the stratified mechanism reads stratum sizes from
        Marginal("P", ("c",), {"b": 20.0, "a": 10.0, "z": 5.0}),
    ]

    @given(initial=st.lists(CELL_ROW, min_size=1, max_size=8),
           steps=st.lists(st.one_of(
               st.tuples(st.just("ingest"), st.lists(BATCH_ROW, max_size=6),
                         st.booleans()),
               st.tuples(st.just("weights"), st.floats(0.1, 5.0))), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_extended_memo_equals_fresh_index(self, initial, steps):
        cat = Catalog()
        cat.create_population(PopulationDef("P", True, [
            AttributeDef("c", "categorical"), AttributeDef("n", "numeric"),
            AttributeDef("x", "numeric")]))
        cat.create_sample("S", mechanism=Mechanism("stratified", 10.0, "c"))
        cat.ingest_rows("S", initial)
        sample = cat.sample("S")
        for marginal in self.MARGINALS:
            sample.cell_ids(marginal)  # memoizes the codes of "c" too
        entries = {"c"} | {marginal.digest for marginal in self.MARGINALS}
        for step in steps:
            memo = sample.memo
            if step[0] == "weights":
                cat.set_weights("S", np.full(len(sample), step[1]))
            elif step[2]:  # a bad value commits none of the batch
                with pytest.raises(CsvParseError):
                    cat.ingest_rows("S", step[1] + [("a", 1.0, "oops")])
            else:
                cat.ingest_rows("S", step[1])
            # An append installs a new memo; nothing else replaces it.
            assert (sample.memo is memo) == (step[0] == "weights" or step[2])
            assert set(sample.memo) == entries
            fresh = Relation(sample.schema, dict(sample.columns), sample.weights)
            column = sample.columns["c"].tolist()
            values, codes = sample.memo["c"]
            assert values == sorted(set(column))
            assert [values[code] for code in codes] == column
            fresh_values, fresh_codes = fresh.key_columns(["c"])["c"]
            assert values == fresh_values and np.array_equal(codes, fresh_codes)
            for marginal in self.MARGINALS:
                ids, keys = sample.cell_ids(marginal)
                fresh_ids, fresh_keys = fresh.cell_ids(marginal)
                assert np.array_equal(ids, fresh_ids)
                assert repr(keys) == repr(fresh_keys)

    def test_copy_made_before_an_ingest_keeps_its_memo(self, catalog):
        catalog.create_sample("S")
        catalog.ingest_rows("S", [("UK", "Yahoo"), ("FR", "AOL")])
        sample = catalog.sample("S")
        marginal = Marginal("Migrants", ("country",), {"UK": 1.0})
        sample.cell_ids(marginal)
        sample.key_columns(["email"])
        copy = sample.reweighted([2.0, 3.0])
        assert copy.memo is sample.memo
        catalog.ingest_rows("S", [("DE", "AOL"), ("UK", "Gmail")])
        values, codes = copy.key_columns(["email"])["email"]
        assert values == ["AOL", "Yahoo"] and codes.tolist() == [1, 0]
        ids, keys = copy.cell_ids(marginal)
        assert keys == ["UK", "FR"] and ids.tolist() == [0, 1]
        values, codes = sample.key_columns(["email"])["email"]
        assert values == ["AOL", "Gmail", "Yahoo"] and codes.tolist() == [2, 0, 0, 1]
        ids, keys = sample.cell_ids(marginal)
        assert keys == ["UK", "FR", "DE"] and ids.tolist() == [0, 1, 2, 0]

    def test_ingest_batches_reuse_the_key_map(self, catalog, monkeypatch):
        built = []
        real_key_ids = Marginal.key_ids.func

        def counting_key_ids(marginal):
            built.append(marginal.attributes)
            return real_key_ids(marginal)

        key_ids = functools.cached_property(counting_key_ids)
        key_ids.__set_name__(Marginal, "key_ids")
        monkeypatch.setattr(Marginal, "key_ids", key_ids)
        catalog.create_sample("S")
        catalog.ingest_rows("S", [("UK", "Yahoo")])
        sample = catalog.sample("S")
        marginal = Marginal("Migrants", ("country", "email"),
                            {("UK", "Yahoo"): 3.0, ("FR", "AOL"): 1.0})
        sample.cell_ids(marginal)
        for batch in ([("FR", "AOL")], [("DE", "AOL")], [("DE", "AOL"), ("UK", "AOL")]):
            catalog.ingest_rows("S", batch)
        ids, keys = sample.cell_ids(marginal)
        assert built == [("country", "email")]
        assert keys == [("UK", "Yahoo"), ("FR", "AOL"), ("DE", "AOL"), ("UK", "AOL")]
        assert ids.tolist() == [0, 1, 2, 2, 3]

    def test_other_column_assignments_drop_the_memo(self, catalog):
        catalog.create_sample("S")
        catalog.ingest_rows("S", [("UK", "Yahoo"), ("FR", "AOL")])
        sample = catalog.sample("S")
        marginal = Marginal("Migrants", ("country",), {"UK": 1.0})
        sample.cell_ids(marginal)
        sample.columns = {name: col[::-1] for name, col in sample.columns.items()}
        assert not sample.memo
        ids, keys = sample.cell_ids(marginal)
        assert keys == ["UK", "FR"] and ids.tolist() == [1, 0]


# --- the cell rule against the per-group loop it replaced ------------------------


def reference_group_rows(columns):
    """`group_codes` over all rows, with keys built one group at a time."""
    ids = 0
    parts = []
    for col in columns:
        if isinstance(col, tuple):
            distinct, codes = col
        elif col.dtype == object:
            distinct = sorted(set(col.tolist()))
            position = {value: i for i, value in enumerate(distinct)}
            codes = np.fromiter(map(position.__getitem__, col.tolist()), np.int64,
                                len(col))
        else:
            distinct, codes = np.unique(col, return_inverse=True)
            distinct = distinct.tolist()
        ids = ids * len(distinct) + codes
        if parts:
            _, ids = np.unique(ids, return_inverse=True)
        parts.append((distinct, codes))
    _, first, ids = np.unique(ids, return_index=True, return_inverse=True)
    keys = [tuple(distinct[codes[row]] for distinct, codes in parts)
            for row in first]
    return keys, ids, first


def reference_cell_index(marginal, columns, keys=None):
    """`Marginal.cell_index` as a loop over the groups, each key made plain
    (a whole float as an int) and looked up on its own."""
    cols = [marginal.binnings[a].cells(columns[a]) if a in marginal.binnings
            else columns[a] for a in marginal.attributes]
    found, row_groups, first = reference_group_rows(cols)
    keys = list(marginal.cells) if keys is None else keys
    known, extra = marginal.key_ids, {key: i for i, key in enumerate(
        keys[len(marginal.cells):], start=len(marginal.cells))}
    new = []
    group_ids = np.empty(len(found), dtype=np.int64)
    for group in np.argsort(first):
        key = tuple(int(v) if isinstance(v, float) and v.is_integer() else v
                    for v in found[group])
        key = key[0] if len(key) == 1 else key
        i = known.get(key, extra.get(key))
        if i is None:
            i = extra[key] = len(keys) + len(new)
            new.append(key)
        group_ids[group] = i
    return group_ids[row_groups], keys + new if new else keys


# Whole floats, -0.0 beside 0.0, and fractions.
CELL_FLOATS = st.one_of(st.integers(-3, 3).map(float),
                        st.sampled_from([-0.0, 0.0, 0.5, -1.5, 2.25, 1e20]),
                        st.floats(-1e3, 1e3, allow_nan=False))
CELL_STRS = st.sampled_from(["", "A", "a", "b", "c", "z"])
# A column kind -> (values it holds, values its marginal keys take).
CELL_KINDS = {
    "float": (CELL_FLOATS, st.one_of(CELL_FLOATS, st.integers(-3, 3))),
    "binned": (CELL_FLOATS, None),
    "object": (CELL_STRS, CELL_STRS),
    "object_numbers": (st.one_of(CELL_FLOATS, st.integers(-3, 3)),
                       st.one_of(CELL_FLOATS, st.integers(-3, 3))),
    "memo": (CELL_STRS, CELL_STRS),
}


@st.composite
def cell_index_cases(draw):
    """(marginal, first batch of columns, second batch): the first batch's
    categorical columns may be memo (values, codes) encodings, as
    `Relation.key_columns` gives them; a later batch is raw, as in `append`."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELL_KINDS)), min_size=1, max_size=2))
    names = ("u", "v")[:len(kinds)]
    sizes = draw(st.tuples(st.integers(0, 12), st.integers(0, 12)))
    batches = ({}, {})
    binnings, key_parts = {}, []
    for name, kind in zip(names, kinds):
        values, key_values = CELL_KINDS[kind]
        for batch, size in zip(batches, sizes):
            column = draw(st.lists(values, min_size=size, max_size=size))
            batch[name] = np.asarray(column, dtype=float if kind in ("float", "binned")
                                     else object)
        if kind == "binned":
            lo = draw(st.floats(-5.0, 0.0))
            width = draw(st.one_of(st.just(0.0), st.floats(0.5, 5.0)))
            binnings[name] = NumericBinning(lo, lo + width, draw(st.integers(1, 6)))
            key_values = st.integers(0, binnings[name].nbins - 1)
        if kind == "memo":
            batches[0][name] = Relation([AttributeDef(name, "categorical")],
                                        {name: batches[0][name]},
                                        np.ones(sizes[0])).key_columns([name])[name]
        key_parts.append(key_values)
    key = key_parts[0] if len(names) == 1 else st.tuples(*key_parts)
    cells = draw(st.dictionaries(key, st.floats(0.5, 10.0), max_size=6))
    return Marginal("P", names, cells, binnings), *batches


class TestCellIndexMatchesPerGroupLoop:
    """`Marginal.cell_index` keys and numbers cells with array work; its ids
    and keys must be exactly those of the per-group loop."""

    @given(case=cell_index_cases())
    @settings(max_examples=300, deadline=None)
    def test_ids_and_keys(self, case):
        marginal, first, later = case
        ids, keys = marginal.cell_index(first)
        expected_ids, expected_keys = reference_cell_index(marginal, first)
        assert ids.dtype == expected_ids.dtype
        assert ids.tobytes() == expected_ids.tobytes()
        assert repr(keys) == repr(expected_keys)
        # Later rows continue the numbering, as INGEST does.
        ids, more = marginal.cell_index(later, keys)
        expected_ids, expected_more = reference_cell_index(marginal, later, expected_keys)
        assert ids.tobytes() == expected_ids.tobytes()
        assert repr(more) == repr(expected_more)
        assert (more is keys) == (expected_more is expected_keys)

    def test_negative_zero_keys_as_the_cell_zero(self):
        marginal = Marginal("P", ("x", "c"), {(0, "a"): 1.0, (1.5, "b"): 2.0})
        columns = {"x": np.asarray([-0.0, 1.5, 0.0, 2.0]),
                   "c": np.asarray(["a", "b", "a", "a"], dtype=object)}
        ids, keys = marginal.cell_index(columns)
        assert ids.tolist() == [0, 1, 0, 2]
        assert repr(keys) == "[(0, 'a'), (1.5, 'b'), (2, 'a')]"

    @pytest.mark.parametrize("attributes, cells, error, message", [
        (("u", "v"), {("a", 1): 1.0, "b": 2.0, ("c", 2): -1.0},
         CatalogError, "cell key 'b' does not fit ('u', 'v')"),
        (("u", "v"), {("a", 1): 1.0, ("b", 2, 3): 2.0}, CatalogError,
         "cell key ('b', 2, 3) does not fit ('u', 'v')"),
        (("u",), {"a": 1.0, ("b",): 2.0}, CatalogError,
         "cell key ('b',) does not fit ('u',)"),
        (("u", "v"), {("a", 1): 1.0, ("b", 2): -1.0, "c": 2.0}, NegativeCountError,
         "cell ('b', 2) has count -1.0; counts must be finite and >= 0"),
        (("u",), {"a": 1.0, "b": math.inf, "c": -1.0}, NegativeCountError,
         "cell 'b' has count inf; counts must be finite and >= 0"),
        (("u",), {"a": 1.0, "b": math.nan}, NegativeCountError,
         "cell 'b' has count nan; counts must be finite and >= 0"),
        (("u",), {"a": 1, "b": Fraction(-1, 10 ** 400)}, NegativeCountError,
         "cell 'b' has count -1/1"),
        (("u",), {"a": 1.0, "b": -(10 ** 400)}, NegativeCountError,
         "cell 'b' has count -1000"),
        (("u",), {"a": 10 ** 5000}, NegativeCountError,
         "cell 'a' has count <int of over 4300 digits>;"),
    ], ids=["pair_bare_key_first", "pair_three", "single_tuple", "negative_first",
            "inf", "nan", "tiny_negative_fraction", "negative_past_float_range",
            "past_the_digit_limit"])
    def test_first_bad_cell_named(self, attributes, cells, error, message):
        with pytest.raises(error) as err:
            Marginal("P", attributes, cells)
        assert str(err.value).startswith(message)

    def test_counts_of_other_number_types_are_accepted(self):
        marginal = Marginal("P", ("u",), {"a": np.int64(3), "b": 2, "c": np.float32(0.5)})
        assert marginal.counts.tolist() == [3.0, 2.0, 0.5]


def reference_build_marginal(owner, attributes, relation, weights=None):
    """`build_marginal` through `cell_index`: an empty marginal with the same
    binnings numbers the cells, then one bincount sums the weights."""
    binnings = {}
    for attr in attributes:
        col = relation.columns[attr]
        if col.dtype != object and len(col) and not np.array_equal(col, np.trunc(col)):
            binnings[attr] = NumericBinning(float(col.min()), float(col.max()),
                                            MARGINAL_BINS)
    ids, keys = Marginal(owner, attributes, {}, binnings).cell_index(relation.columns)
    weights = np.ones(len(relation)) if weights is None else weights
    counts = np.bincount(ids, weights=weights, minlength=len(keys))
    return Marginal(owner, attributes, dict(zip(keys, counts.tolist())), binnings)


class TestBuildMarginalMatchesCellIndex:
    """A built marginal's cells, in order, and so its digest, which seeds
    OPEN's kept samples, are those `cell_index` gives the same rows."""

    SCHEMA = [AttributeDef("c", "categorical"), AttributeDef("x", "numeric"),
              AttributeDef("n", "numeric")]
    ROWS = [("UK", 250.0, 300.0), ("FR", 3.0, 300.0), ("UK", 250.0, 200.0),
            ("DE", 3.0, 200.0), ("FR", 7.0, 1.0)]
    FRACTIONS = [("UK", 9.75, 1.0), ("FR", 0.25, 2.0), ("UK", 0.3, 3.0)]

    @staticmethod
    def key_types(marginal):
        return [tuple(map(type, key)) if isinstance(key, tuple) else type(key)
                for key in marginal.cells]

    @pytest.mark.parametrize("rows, attributes, counted, cells", [
        (ROWS, ("c",), False, [("UK", 2.0), ("FR", 2.0), ("DE", 1.0)]),
        (ROWS, ("c",), True, [("UK", 500.0), ("FR", 301.0), ("DE", 200.0)]),
        (ROWS, ("x",), False, [(250, 2.0), (3, 2.0), (7, 1.0)]),
        (FRACTIONS, ("x",), True, [(MARGINAL_BINS - 1, 1.0), (0, 5.0)]),
        (ROWS, ("x", "c"), True, [((250, "UK"), 500.0), ((3, "FR"), 300.0),
                                  ((3, "DE"), 200.0), ((7, "FR"), 1.0)]),
        (FRACTIONS, ("c", "x"), False, [(("UK", MARGINAL_BINS - 1), 1.0),
                                        (("FR", 0), 1.0), (("UK", 0), 1.0)]),
    ], ids=["first_reach_order", "count_column_sums_duplicates", "whole_floats_as_int",
            "fractions_binned", "numeric_categorical_pair", "categorical_binned_pair"])
    def test_cells_order_types_and_digest(self, rows, attributes, counted, cells):
        relation = Relation.from_rows(self.SCHEMA, rows)
        weights = relation.columns["n"] if counted else None
        built = build_marginal("P", attributes, relation, weights=weights)
        expected = reference_build_marginal("P", attributes, relation, weights)
        assert list(built.cells.items()) == cells
        assert list(built.cells.items()) == list(expected.cells.items())
        assert self.key_types(built) == self.key_types(expected)
        assert built.binnings == expected.binnings
        assert built.digest == expected.digest

    def test_empty_table_has_no_cells(self):
        relation = Relation.from_rows(self.SCHEMA, [])
        built = build_marginal("P", ("c", "x"), relation, weights=relation.columns["n"])
        expected = reference_build_marginal("P", ("c", "x"), relation)
        assert built.cells == expected.cells == {}
        assert built.binnings == expected.binnings == {}
        assert built.digest == expected.digest
        catalog = Catalog()
        catalog.create_population(PopulationDef("P", True, self.SCHEMA[:2]))
        with pytest.raises(CatalogError, match=r"marginal over \('c', 'x'\) has no cells"):
            catalog.create_metadata("P", built.attributes, built.cells, built.binnings)
        assert not catalog.marginals


class TestIngestCsv:
    def test_csv_round(self, catalog, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("country,email\nUK,Yahoo\nFR,Yahoo\n", encoding="utf-8")
        catalog.create_sample("S")
        assert catalog.ingest_csv("S", path) == 2

    def test_byte_order_mark(self, catalog, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffcountry,email\nUK,Yahoo\n", encoding="utf-8")
        catalog.create_sample("S")
        assert catalog.ingest_csv("S", path) == 1
        assert catalog.sample("S").to_rows() == [("UK", "Yahoo")]

    def test_empty_file(self, catalog, tmp_path):
        # A body of no records ingests nothing, and gives no warning.
        path = tmp_path / "empty.csv"
        catalog.create_sample("S")
        for text in ("", "country,email\n", "country,email\n\n\r\n"):
            path.write_text(text, encoding="utf-8")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert catalog.ingest_csv("S", path) == 0
            assert caught == []

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

    @pytest.mark.parametrize("text, message", [
        ("country,n,zip\nNL,2,1\n", "unknown column 'zip' in header"),
        ("country\nNL\n", "header must name all of ['country', 'n']"),
    ])
    def test_bad_header_keeps_domains(self, tmp_path, text, message):
        cat = self.build()
        before = self.state(cat)
        path = tmp_path / "header.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CsvParseError, match=re.escape(f"line 1: {message}")) as err:
            cat.ingest_csv("S", path)
        assert err.value.line == 1
        assert self.state(cat) == before

    def test_non_utf8_csv_is_an_io_error(self, tmp_path):
        # The bad bytes come first and after chunks of good records.
        cat = self.build()
        before = self.state(cat)
        path = tmp_path / "latin.csv"
        for good in (0, 3000):
            path.write_bytes(b"country,n\n" + b"NL,2\n" * good + b"\xff\xfe,2\n")
            with pytest.raises(CatalogIoError,
                               match=re.escape(f"cannot read '{path}': not UTF-8")):
                cat.ingest_csv("S", path)
            assert self.state(cat) == before

    def test_reader_error_at_its_line_after_earlier_bad_values(self, tmp_path):
        # A field over the csv module's 131,072-character limit stops the
        # reader; a bad value in an earlier record is reported instead, and
        # a long run of good records before it changes neither error.
        huge = "NL," + "9" * 200_000
        cat = self.build()
        before = self.state(cat)
        path = tmp_path / "huge.csv"
        for records, line, message in (
                (["UK,1", huge], 3, "field larger than field limit"),
                (["UK,1", "FR,x", huge], 3, "non-numeric value 'x'"),
                (["UK,1"] * 256 + [huge], 258, "field larger than field limit"),
                (["UK,1"] * 255 + ["FR,x", huge], 257, "non-numeric value 'x'"),
                ([huge], 2, "field larger than field limit"),
                (["UK,1"] * 255 + [huge], 257, "field larger than field limit"),
                (["UK,1", "X" * 200_000 + ",1"], 3, "field larger than field limit"),
                (["UK,1", "NL,0." + "0" * 200_000 + "1"], 3,
                 "field larger than field limit")):
            path.write_text("\n".join(["country,n"] + records) + "\n",
                            encoding="utf-8")
            with pytest.raises(CsvParseError, match=message) as err:
                cat.ingest_csv("S", path)
            assert err.value.line == line
            assert self.state(cat) == before
        # The reader can stop in the header too.
        path.write_text(f"country,{huge}\nUK,1\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="field larger than field limit") as err:
            cat.ingest_csv("S", path)
        assert err.value.line == 1
        assert self.state(cat) == before

    def test_error_names_the_line_its_record_starts_on(self, tmp_path):
        # A quoted field over two lines makes the next record start two
        # lines on, for a bad value and for an error of the reader alike.
        cat = self.build()
        before = self.state(cat)
        path = tmp_path / "multiline.csv"
        for text, message in (
                ('country,n\n"U\nK",1\nFR,x\n', "non-numeric value 'x'"),
                ('country,n\n"U\nK",1\nNL,' + "9" * 200_000 + "\n",
                 "field larger than field limit")):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(CsvParseError, match=message) as err:
                cat.ingest_csv("S", path)
            assert err.value.line == 4
            assert self.state(cat) == before
        path.write_text('country,n\n"U\nK",1\n\nFR,2\n', encoding="utf-8")
        assert cat.ingest_csv("S", path) == 2
        assert self.state(cat)[2][1:] == [("U\nK", 1.0), ("FR", 2.0)]

    def test_failed_rows_keep_domains(self):
        cat = self.build()
        before = self.state(cat)
        with pytest.raises(CsvParseError):
            cat.ingest_rows("S", [("NL", 2.0), ("FR", "oops")])
        assert self.state(cat) == before

    @pytest.mark.parametrize("row, shown", [
        (5, "5"), (None, "None"), (iter(("FR", 3.0)), "<tuple_iterator object at ")],
        ids=["int", "none", "iterator"])
    def test_row_without_length_rejected(self, row, shown):
        # Each used to raise a bare TypeError from len().
        cat = self.build()
        before = self.state(cat)
        with pytest.raises(CsvParseError, match=re.escape(
                f"line 2: expected a row of 2 fields, got {shown}")):
            cat.ingest_rows("S", [("NL", 2.0), row])
        assert self.state(cat) == before

    def test_rows_are_drawn_one_at_a_time(self):
        # The bad second row raises before a third is drawn, so an endless
        # iterable stops there.
        cat = self.build()
        before = self.state(cat)
        drawn = []

        def rows():
            for row in itertools.chain([("NL", 2.0), ("UK", "x")],
                                       itertools.repeat(("FR", 3.0))):
                drawn.append(row)
                yield row

        with pytest.raises(CsvParseError, match=re.escape(
                "line 2: non-numeric value 'x' in numeric column 'n'")):
            cat.ingest_rows("S", rows())
        assert len(drawn) == 2
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

    def test_domains_grow_once_per_commit_as_batch_by_batch(self, tmp_path, monkeypatch):
        # Each domain is extended once over the whole committed column, in
        # the order a batch-by-batch build gives. New values first appear in
        # later batches, some sorting before the earlier ones.
        cat = self.build()
        rng = np.random.default_rng(5)
        pool = ["UK", "NL", "FR", "AT", "ZA", "BE", "DE"]
        countries = [pool[min(int(v), i // 150 + 1)] for i, v in
                     enumerate(rng.integers(0, len(pool), 3 * INGEST_CHUNK + 40))]
        path = tmp_path / "batches.csv"
        path.write_text("country,n\n" + "".join(f"{c},{i}\n" for i, c in
                                                 enumerate(countries)),
                        encoding="utf-8")
        expected = AttributeDef("country", "categorical", ["UK"])
        for start in range(0, len(countries), INGEST_CHUNK):
            expected.extend_domain(countries[start:start + INGEST_CHUNK])
        calls = []
        extend = AttributeDef.extend_domain

        def counting_extend(attr, values):
            calls.append(attr.name)
            extend(attr, values)

        monkeypatch.setattr(AttributeDef, "extend_domain", counting_extend)
        assert cat.ingest_csv("S", path) == len(countries)
        sample_domains, global_domains, _, _ = self.state(cat)
        assert sample_domains[0] == global_domains[0] == expected.domain
        assert len(expected.domain) > 4
        assert calls == ["country", "country"]  # the sample's and the global one


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestIngestFromPipe:
    """A pipe cannot seek back, so INGEST reads it through the record loop
    alone; it must give what the same text gives from a regular file."""

    def outcome(self, path, text: str, pipe: bool):
        cat = Catalog()
        cat.create_population(PopulationDef("P", True, [
            AttributeDef("country", "categorical"), AttributeDef("n", "numeric")]))
        cat.create_sample("S")
        cat.ingest_rows("S", [("UK", 1.0)])
        before = cat.sample("S").to_rows()

        def write():
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)

        if pipe:
            os.mkfifo(path)
            writer = threading.Thread(target=write, daemon=True)
            writer.start()
        else:
            write()
        try:
            count = cat.ingest_csv("S", path)
        except CsvParseError as exc:
            assert cat.sample("S").to_rows() == before
            count = (str(exc), exc.line)
        if pipe:
            writer.join(timeout=10)
            assert not writer.is_alive()
        return (count, [repr(row) for row in cat.sample("S").to_rows()],
                [list(a.domain) for a in cat.sample("S").schema],
                [list(a.domain) for a in cat.global_population().schema])

    @pytest.mark.parametrize("text", [
        'country,n\nNL,2\n"F,R",3\n\nDE,4\n',
        "n,country\n2,NL\n3,FR\n",
    ])
    def test_pipe_commits_what_a_file_does(self, tmp_path, text):
        piped = self.outcome(tmp_path / "pipe.csv", text, pipe=True)
        assert piped == self.outcome(tmp_path / "file.csv", text, pipe=False)
        assert piped[0] == len(piped[1]) - 1

    def test_bad_value_in_a_pipe_keeps_the_catalog(self, tmp_path):
        text = "country,n\nNL,2\nFR,x\n"
        piped = self.outcome(tmp_path / "pipe.csv", text, pipe=True)
        assert piped == self.outcome(tmp_path / "file.csv", text, pipe=False)
        assert piped[:2] == (
            ("line 3: non-numeric value 'x' in numeric column 'n'", 3), ["('UK', 1.0)"])
        assert piped[2][0] == piped[3][0] == ["UK"]


# Pieces of CSV bodies: csv's quoting and line ends, the whitespace and
# control characters csv and np.loadtxt might split or strip differently,
# and the number spellings float() takes but loadtxt does not.
CSV_PIECES = ['"', ",", "\n", "\r\n", "\r", " ", "\t", "\x00", "\x0c", "\x1c", "\x1f",
              "\u2028", "\x85", "\u0661", *"0123456789", ".", "e", "_", "nan", "inf",
              "a", "b", "x"]


class TestOnePassMatchesRecordLoop:
    """A plain CSV body is parsed in one np.loadtxt pass; every file must
    give what the csv record loop gives: the same rows, weights and
    domains, or the same error at the same line over an unchanged catalog."""

    def outcome(self, path, header: str, one_pass: bool):
        cat = Catalog()
        cat.create_population(PopulationDef("P", True, [
            AttributeDef("t", "categorical"), AttributeDef("n", "numeric")]))
        schema = cat.global_schema(sorted(header.split(","), reverse=True))
        cat.create_sample("S", schema)
        cat.ingest_rows("S", [tuple({"t": "b", "n": 1.0}[a.name] for a in schema)])

        def state():
            sample = cat.sample("S")
            return ([repr(row) for row in sample.to_rows()], sample.weights.tolist(),
                    [list(a.domain) for a in sample.schema],
                    [list(a.domain) for a in cat.global_population().schema])

        before = state()
        step_aside = mock.patch("openpop.catalog._plain_csv_batch", return_value=None)
        with contextlib.nullcontext() if one_pass else step_aside:
            try:
                cat.ingest_csv("S", path)
            except CsvParseError as exc:
                assert state() == before
                return type(exc).__name__, str(exc), exc.line
        return state()

    @given(header=st.sampled_from(["t", "n", "t,n", "n,t"]),
           end=st.sampled_from(["\n", "\r\n", "\r"]),
           body=st.lists(st.sampled_from(CSV_PIECES), max_size=40).map("".join),
           bom=st.booleans())
    @example(header="t", end="\n", body="a\n \nb\n", bom=False)
    @example(header="t,n", end="\n", body="a,1\n \nb,2\n", bom=False)
    @example(header="t,n", end="\n", body='"a""b",1\n', bom=False)
    @example(header="t,n", end="\n", body='"a,b",1\n', bom=False)
    @example(header="t,n", end="\r\n", body="a,1\r\nb,2\r\n", bom=True)
    @example(header="t,n", end="\r", body="a,1\rb,2", bom=False)
    @example(header="t,n", end="\n", body="a,1_000\n", bom=False)
    @example(header="n", end="\n", body="1\x1c\n", bom=False)
    @settings(max_examples=300, deadline=None)
    def test_same_outcome(self, tmp_path_factory, header, end, body, bom):
        path = tmp_path_factory.mktemp("one_pass") / "body.csv"
        path.write_bytes((("\ufeff" if bom else "") + header + end + body).encode("utf-8"))
        assert (self.outcome(path, header, one_pass=True)
                == self.outcome(path, header, one_pass=False))

    def test_plain_file_takes_one_pass(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("n,country\n1.5,UK\n-2,FR\n\n3e2,UK\n", encoding="utf-8")
        cat = TestAtomicIngest().build()
        with mock.patch.object(Catalog, "_ingest", side_effect=AssertionError):
            assert cat.ingest_csv("S", path) == 3
        assert cat.sample("S").to_rows()[1:] == [("UK", 1.5), ("FR", -2.0), ("UK", 300.0)]


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

    def test_views_in_cell_order(self):
        marginal = Marginal("P", ("x", "c"), {(3, "b"): 2.0, (0, "a"): 5.0, (1, "b"): 0.0},
                            {"x": NumericBinning(0.0, 8.0, 4)})
        assert marginal.parts == {"x": (3, 0, 1), "c": ("b", "a", "b")}
        assert marginal.counts.tolist() == [2.0, 5.0, 0.0]
        assert not marginal.counts.flags.writeable
        assert marginal.key_ids == {(3, "b"): 0, (0, "a"): 1, (1, "b"): 2}
        assert marginal.positions("x").tolist() == [7.0, 1.0, 3.0]
        single = Marginal("P", ("n",), {250: 1.0, 3: 2.0})
        assert single.parts == {"n": (250, 3)}
        assert single.positions("n").tolist() == [250.0, 3.0]
        assert Marginal("P", ("n", "c"), {}).parts == {"n": (), "c": ()}

    @pytest.mark.parametrize("attributes, key", [
        (("country", "email"), "UK"), (("country", "email"), ("UK", "AOL", "x")),
        (("country", "email"), ("UK",)), (("country",), ("UK",))],
        ids=["pair_bare", "pair_three", "pair_one", "single_tuple"])
    def test_key_shape_must_match_attributes(self, catalog, attributes, key):
        with pytest.raises(CatalogError, match="does not fit"):
            catalog.create_metadata("Migrants", attributes, {key: 1.0})
        assert not catalog.marginals
        assert [a.domain for a in catalog.global_population().schema] == [[], []]

    @pytest.mark.parametrize("attributes, cells", [
        (("age",), {"abc": 1.0, 40: 2.0}), (("age",), {"40": 1.0}),
        (("age",), {True: 1.0}), (("age",), {None: 1.0, 40: 2.0}),
        (("country",), {7: 1.0, "UK": 2.0}), (("country",), {1.5: 1.0}),
        (("country",), {None: 1.0}),
        (("country", "age"), {("UK", 41): 1.0, ("UK", "40"): 2.0}),
        (("country", "age"), {(3, 40): 1.0})],
        ids=["numeric_str", "numeric_digit_str", "numeric_bool", "numeric_none",
             "categorical_int", "categorical_float", "categorical_none",
             "pair_numeric_str", "pair_categorical_int"])
    def test_key_kind_must_match_attribute(self, attributes, cells):
        catalog = Catalog()
        catalog.create_population(PopulationDef(
            "P", True, [AttributeDef("country", "categorical"),
                        AttributeDef("age", "numeric")]))
        with pytest.raises(TypeMismatchError, match="does not fit"):
            catalog.create_metadata("P", attributes, cells)
        assert not catalog.marginals
        assert catalog.global_population().schema[0].domain == []

    def test_key_kinds_accepted(self):
        catalog = Catalog()
        catalog.create_population(PopulationDef(
            "P", True, [AttributeDef("country", "categorical"),
                        AttributeDef("age", "numeric")]))
        catalog.create_metadata("P", ("age",), {40: 1.0, 41.5: 2.0, np.int64(42): 1.0,
                                                np.float64(43.5): 1.0})
        catalog.create_metadata("P", ("country", "age"), {("UK", 40): 1.0,
                                                          (np.str_("FR"), 41.0): 1.0})
        assert len(catalog.marginals) == 2

    def test_no_cells_rejected(self, catalog):
        with pytest.raises(CatalogError, match="no cells"):
            catalog.create_metadata("Migrants", ("country",), {})
        assert not catalog.marginals

    def test_three_attributes_rejected(self, catalog):
        with pytest.raises(TooManyAttributesError):
            Marginal("Migrants", ("a", "b", "c"), {})

    def test_negative_count_rejected(self, catalog):
        with pytest.raises(NegativeCountError):
            catalog.create_metadata("Migrants", ("country",), {"UK": -1.0})

    @pytest.mark.parametrize("count", [True, np.True_, "5", None])
    def test_count_must_be_a_number(self, catalog, count):
        # A bool count used to be kept, and saved as `true`.
        with pytest.raises(TypeMismatchError, match="is not a number"):
            catalog.create_metadata("Migrants", ("country",),
                                    {"UK": 2.0, "FR": count})
        assert not catalog.marginals
        assert catalog.global_population().schema[0].domain == []

    @pytest.mark.parametrize("attributes, cells, binnings, error, match", [
        (("age",), {0: 1.0}, {"height": NumericBinning(0.0, 2.0, 4)},
         CatalogError, "binning on 'height', which the marginal"),
        (("country", "age"), {("UK", 0): 1.0},
         {"country": NumericBinning(0.0, 2.0, 4)},
         TypeMismatchError, "binning on categorical attribute 'country'"),
        (("age",), {0: 1.0, 7: 2.0}, {"age": NumericBinning(0.0, 2.0, 2)},
         CatalogError, "cell value 7 is not a bin id"),
        (("age",), {0: 1.0, 2.5: 2.0}, {"age": NumericBinning(0.0, 2.0, 4)},
         CatalogError, "cell value 2.5 is not a bin id"),
        (("age",), {-1: 1.0}, {"age": NumericBinning(0.0, 2.0, 4)},
         CatalogError, "cell value -1 is not a bin id"),
        (("country", "age"), {("UK", 1): 1.0, ("FR", float("nan")): 1.0},
         {"age": NumericBinning(0.0, 2.0, 4)},
         CatalogError, "cell value nan is not a bin id"),
    ], ids=["binning_not_held", "binning_on_categorical", "bin_id_past_nbins",
            "fractional_bin_id", "negative_bin_id", "nan_bin_id"])
    def test_binnings_must_fit_the_marginal(self, attributes, cells, binnings,
                                            error, match):
        # Each used to load: a binning on a categorical attribute then failed
        # the first SEMI-OPEN query, and a key that is no bin id was kept as
        # a structural zero, dropping its mass.
        catalog = Catalog()
        catalog.create_population(PopulationDef(
            "P", True, [AttributeDef("country", "categorical"),
                        AttributeDef("age", "numeric"),
                        AttributeDef("height", "numeric")]))
        with pytest.raises(error, match=match):
            catalog.create_metadata("P", attributes, cells, binnings)
        assert not catalog.marginals
        assert catalog.global_population().schema[0].domain == []

    def test_whole_bin_ids_accepted(self):
        catalog = Catalog()
        catalog.create_population(PopulationDef("P", True, [AttributeDef("x", "numeric")]))
        marginal = catalog.create_metadata(
            "P", ("x",), {0: 1.0, 3.0: 2.0, np.int64(1): 1.0},
            {"x": NumericBinning(0.0, 2.0, 4)})
        assert marginal.positions("x").tolist() == [0.25, 1.75, 0.75]

    def test_binning_attached_for_unrounded_data(self):
        schema = [AttributeDef("x", "numeric")]
        rows = [(0.25,), (0.5,), (9.75,)]
        marginal = build_marginal("P", ("x",), Relation.from_rows(schema, rows))
        assert marginal.binnings["x"] == NumericBinning(0.25, 9.75, MARGINAL_BINS)
        assert marginal.cells == {0: 1.0, 1: 1.0, MARGINAL_BINS - 1: 1.0}

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

    @pytest.mark.parametrize("fail", ["second record", "rename"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, fail):
        path = tmp_path / "catalog.opc"
        cat = self.build_catalog()
        cat.save(path)
        old = path.read_bytes()
        cat.ingest_rows("Yahoo", [("DE", "AOL")])
        if fail == "rename":
            def failing(*args):
                raise OSError("rename failed")
            monkeypatch.setattr(os, "replace", failing)
        else:
            real_dumps, records = json.dumps, []

            def failing(record):
                records.append(record)
                if len(records) == 2:
                    raise OSError("disk full")
                return real_dumps(record)
            monkeypatch.setattr(json, "dumps", failing)
        with pytest.raises(CatalogIoError, match=re.escape(f"cannot write '{path}'")):
            cat.save(path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["catalog.opc"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_save_leaves_special_file_alone(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        with pytest.raises(CatalogIoError, match="not a regular file"):
            self.build_catalog().save(fifo)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    @pytest.mark.parametrize("cells", [{np.int64(1): 5.0}, {1: np.int64(5)}],
                             ids=["key", "count"])
    def test_unwritable_cell_fails_like_a_write(self, tmp_path, cells):
        # A numpy int key or count is a valid cell, but JSON cannot write it.
        cat = Catalog()
        cat.create_population(PopulationDef("P", True, [AttributeDef("x", "numeric")]))
        path = tmp_path / "catalog.opc"
        cat.save(path)
        old = path.read_bytes()
        cat.create_metadata("P", ("x",), cells)
        with pytest.raises(CatalogIoError, match=re.escape(
                f"cannot write '{path}': line 4, a marginal record: "
                "Object of type int64 is not JSON serializable")):
            cat.save(path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["catalog.opc"]

    def test_existing_temp_file_is_never_touched(self, tmp_path):
        path = tmp_path / "catalog.opc"
        tmp = tmp_path / "catalog.opc.tmp"
        tmp.write_bytes(b"a file of the user's\n")
        with pytest.raises(CatalogIoError, match=re.escape(f"'{tmp}'")):
            self.build_catalog().save(path)
        assert tmp.read_bytes() == b"a file of the user's\n"
        assert [p.name for p in tmp_path.iterdir()] == ["catalog.opc.tmp"]

    def test_temp_file_reaches_the_disk_before_the_rename(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_size))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.path.getsize(src)))
            real_replace(src, dst)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = tmp_path / "catalog.opc"
        self.build_catalog().save(path)
        size = path.stat().st_size
        assert calls == [("fsync", size), ("replace", size)]

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
        ("P_age", lambda r: {**r, "binnings": {}, "cells": [["abc", 1.0], [40, 2.0]]},
         "TypeMismatchError"),
        ("P_country", lambda r: {**r, "cells": [[7, 1.0], ["UK", 2.0]]},
         "TypeMismatchError"),
        ("P_country_email", lambda r: {**r, "cells": [[["UK", 3], 1.0]]},
         "TypeMismatchError"),
        ("P_country", lambda r: {**r, "cells": [["UK", True], ["FR", 2.0]]},
         "TypeMismatchError"),
        ("P_age", lambda r: {**r, "binnings": {"email": [0.0, 1.0, 2]}},
         "CatalogError"),
        ("P_country", lambda r: {**r, "binnings": {"country": [0.0, 1.0, 2]}},
         "TypeMismatchError"),
        ("P_age", lambda r: {**r, "cells": [[0, 250.0], [64, 300.0]]},
         "CatalogError"),
        ("P_age", lambda r: {**r, "cells": [[0, 250.0], [2.5, 300.0]]},
         "CatalogError"),
        ("P", schema_attribute(2, lo="x"), "CatalogError"),
        ("P", schema_attribute(2, hi=1e400), "CatalogError"),
        ("Survey", schema_attribute(2, lo=True), "CatalogError"),
        ("Survey", schema_attribute(2, lo=80.0, hi=20.0), "CatalogError"),
        ("CountryStats", schema_attribute(0, lo=0.0), "TypeMismatchError"),
        ("Survey", schema_attribute(0, domain=["UK", 7]), "TypeMismatchError"),
    ], ids=["duplicate_sample", "duplicate_aux", "aux_named_like_sample",
            "duplicate_population", "second_global", "duplicate_marginal",
            "marginal_named_like_sample", "marginal_attribute_not_in_owner",
            "missing_marginal_owner", "negative_weight", "nan_weight",
            "infinite_weight", "numeric_key_not_a_number",
            "categorical_key_not_a_string", "pair_key_not_a_string",
            "bool_count", "binning_not_held", "binning_on_categorical",
            "bin_id_past_nbins", "fractional_bin_id", "lo_not_a_number",
            "infinite_hi", "bool_lo", "lo_above_hi", "bound_on_categorical",
            "domain_value_not_a_string"])
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



class TestOneCountRule:
    """`Marginal` alone checks cell counts; `create_metadata` and `load`
    reach that check."""

    def test_count_not_a_number_named(self):
        with pytest.raises(TypeMismatchError, match="^cell count 'x' is not a number$"):
            Marginal("P", ("u",), {"a": 1.0, "b": "x"})

    def test_count_past_float_range_fails_like_inf(self):
        catalog = Catalog()
        catalog.create_population(PopulationDef(
            "P", True, [AttributeDef("u", "categorical")]))
        with pytest.raises(NegativeCountError, match="^cell 'a' has count 1000"):
            catalog.create_metadata("P", ("u",), {"a": 10 ** 400})
        assert catalog.marginals == []

    def test_total_past_float_range(self):
        # Each count fits a float; their sum, an exact int, did not, and
        # total() raised OverflowError.
        with pytest.raises(NegativeCountError, match=(
                "^marginal total count must be positive and finite$")):
            Marginal("P", ("u",), {"a": 10 ** 308, "b": 10 ** 308})

    def test_numpy_counts_compare_without_a_cast_warning(self, recwarn):
        marginal = Marginal("P", ("u",), {"a": np.float32(2.5), "b": np.float16(1.0),
                                          "c": 3, "d": np.int64(4)})
        assert marginal.counts.tolist() == [2.5, 1.0, 3.0, 4.0]
        with pytest.raises(NegativeCountError, match="^cell 'b' has count inf"):
            Marginal("P", ("u",), {"a": 1, "b": np.float32(math.inf)})
        assert not recwarn.list


def edited_golden(tmp_path, name, change):
    """The golden catalog with the record named `name` changed: (path, its
    line number)."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if f'"name": "{name}"' in line)
    lines[lineno - 1] = json.dumps(change(json.loads(lines[lineno - 1])))
    path = tmp_path / "edited.opc"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, lineno


HUGE = 10 ** 400  # an int past the float range


class TestNumbersPastTheFloatRange:
    """Every entry of catalog input that takes a number raises a catalog
    error for an int past the float range, never a bare OverflowError."""

    @pytest.fixture
    def numeric_catalog(self):
        catalog = Catalog()
        catalog.create_population(PopulationDef("P", True, [
            AttributeDef("c", "categorical"), AttributeDef("x", "numeric")]))
        catalog.create_sample("S")
        return catalog

    def test_ingested_value(self, numeric_catalog):
        with pytest.raises(CsvParseError, match=(
                "^line 2: non-finite value 1000.* in numeric column 'x'$")):
            numeric_catalog.ingest_rows("S", [("a", 1), ("b", HUGE)])
        # One past str()'s digit limit raised a bare ValueError in the message.
        with pytest.raises(CsvParseError, match=(
                r"^line 1: non-finite value <int of over \d+ digits> in numeric column 'x'$")):
            numeric_catalog.ingest_rows("S", [("a", 10 ** 5000)])
        assert len(numeric_catalog.sample("S")) == 0
        # An int within the range reads as the float of its digits.
        numeric_catalog.ingest_rows("S", [("a", 2 ** 60 + 1)])
        assert numeric_catalog.sample("S").to_rows() == [("a", float(2 ** 60 + 1))]

    def test_binning_bound(self):
        with pytest.raises(CatalogError, match="^binning needs finite lo <= hi"):
            NumericBinning(0, HUGE, 4)
        with pytest.raises(CatalogError, match="^binning needs finite lo <= hi"):
            NumericBinning(-HUGE, 1.0, 4)

    def test_weight(self, numeric_catalog):
        numeric_catalog.ingest_rows("S", [("a", 1.0), ("b", 2.0)])
        for weights in ([1.0, HUGE], [-HUGE, 1]):
            with pytest.raises(TypeMismatchError, match="^weights must be finite$"):
                numeric_catalog.set_weights("S", weights)
        assert numeric_catalog.sample("S").weights.tolist() == [1.0, 1.0]

    def test_binned_cell_value(self, numeric_catalog):
        with pytest.raises(CatalogError, match="^cell value 1000.* is not a bin id"):
            numeric_catalog.create_metadata("P", ("x",), {0: 1.0, HUGE: 2.0},
                                            {"x": NumericBinning(0.0, 1.0, 4)})

    def test_unbinned_cell_value(self, numeric_catalog):
        # Once accepted: the next OPEN query raised OverflowError.
        for value in (HUGE, -HUGE, math.inf, math.nan):
            with pytest.raises(TypeMismatchError, match=(
                    "^cell value .* does not fit numeric attribute 'x'$")):
                numeric_catalog.create_metadata("P", ("c", "x"),
                                                {("a", 1): 1.0, ("b", value): 2.0})
        assert numeric_catalog.marginals == []

    @pytest.mark.parametrize("name, change, error", [
        ("P_country", lambda r: {**r, "cells": [["UK", 500.0], ["FR", HUGE]]},
         "NegativeCountError: cell 'FR' has count 1000"),
        ("Survey", lambda r: {**r, "rows": [r["rows"][0][:2] + [HUGE]] + r["rows"][1:]},
         "CsvParseError: line 1: non-finite value 1000"),
        ("Survey", first_weight(HUGE), "TypeMismatchError: weights must be finite"),
        ("AgeStats", lambda r: {**r, "rows": [[21.5, -HUGE]]},
         "CsvParseError: line 1: non-finite value -1000"),
        ("P_age", lambda r: {**r, "binnings": {"age": [21.5, HUGE, 64]}},
         "CatalogError: binning needs finite lo <= hi"),
        ("P_age", lambda r: {**r, "cells": [[0, 250.0], [HUGE, 300.0]]},
         "CatalogError: cell value 1000"),
    ], ids=["count", "sample_value", "weight", "aux_value", "binning_hi", "bin_id"])
    def test_load_fails_at_the_record(self, tmp_path, name, change, error):
        path, lineno = edited_golden(tmp_path, name, change)
        assert len(str(HUGE)) == 401 and str(HUGE) in path.read_text(encoding="utf-8")
        with pytest.raises(CsvParseError, match=(
                f"^line {lineno}: malformed catalog record \\({re.escape(error)}")):
            Catalog.load(path)


class TestSeedKind:
    def test_bool_seed_rejected(self):
        with pytest.raises(ConfigError, match=(
                "^seed must be a non-negative integer, got True$")):
            Catalog(seed=True)
        catalog = Catalog(seed=3)
        with pytest.raises(ConfigError):
            catalog.seed = False
        assert catalog.seed == 3

    def test_saved_bool_seed_fails_at_its_line(self, tmp_path):
        lines = GOLDEN.read_text(encoding="utf-8").splitlines()
        assert lines[1] == '{"kind": "state", "seed": 11}'
        lines[1] = '{"kind": "state", "seed": true}'
        path = tmp_path / "edited.opc"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match=(
                "^line 2: malformed catalog record \\(ConfigError: seed must be a "
                "non-negative integer, got True\\)$")):
            Catalog.load(path)


class TestSaveWritesTuplesAsArrays:
    def test_saved_bytes_and_round_trip(self, tmp_path):
        catalog = Catalog(seed=1)
        catalog.create_population(PopulationDef("P", True, [
            AttributeDef("c", "categorical"), AttributeDef("x", "numeric")]))
        catalog.create_population(PopulationDef(
            "Q", False, catalog.global_schema(),
            predicate=Predicate((InList("c", ("a", "b")),))))
        catalog.create_sample("S")
        catalog.ingest_rows("S", [("a", 1.0), ("b", 2.5)])
        catalog.create_metadata("P", ("c", "x"), {("a", 1): 2.0, ("b", 3): 1.0})
        path = tmp_path / "c.opc"
        catalog.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert '"predicate": [{"attr": "c", "in": ["a", "b"]}]' in lines[3]
        assert '"rows": [["a", 1.0], ["b", 2.5]]' in lines[4]
        assert '"attributes": ["c", "x"], "cells": [[["a", 1], 2.0], [["b", 3], 1.0]]' \
            in lines[5]
        restored = Catalog.load(path)
        assert restored.to_jsonable() == catalog.to_jsonable()
        assert restored.marginals[0].cells == {("a", 1): 2.0, ("b", 3): 1.0}
        assert restored.population("Q").predicate == catalog.population("Q").predicate
