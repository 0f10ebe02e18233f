"""Aggregation over kept row indices and categorical codes.

`evaluate_aggregates` reads the rows a WHERE keeps by index and compares and
groups categorical columns by their memoized codes, and answers for the k
stacked samples of an OPEN generator in one pass. `reference_aggregates`
below is the evaluation it replaced: copy the kept rows (`Relation.take`,
string comparisons), then group them, one sample at a time, and keep the
groups every sample holds. Every answer must match it byte for byte, on
every route.
"""

import contextlib
import csv
import io
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import openpop.executor
from openpop.catalog import (
    INGEST_CHUNK,
    NUMERIC,
    AttributeDef,
    Catalog,
    PopulationDef,
    Relation,
    _category_codes,
    schema_kinds,
)
from openpop.dialect import parse_one
from openpop.encoding import Encoding
from openpop.engine import Engine
from openpop.errors import CsvParseError, OpenPopError, TypeMismatchError
from openpop.executor import ExecOptions, QueryAnswer, execute
from openpop.mswg import TrainConfig
from openpop.predicate import Comparison, InList, Predicate, filter_rows
from openpop_experiments import FlightsLikeSpec, flights_catalog, gen_flightslike

from conftest import group_keys

# --- the evaluation before codes and kept-row indices ---------------------------


def reference_filter(pred, relation):
    keep = np.ones(len(relation), dtype=bool)
    for atom in pred.atoms if pred is not None else ():
        column = relation.columns[atom.attr]
        if isinstance(atom, InList):
            mask = np.zeros(len(column), dtype=bool)
            for value in atom.values:
                mask |= column == value
        else:
            mask = {"=": np.equal, "<": np.less, ">": np.greater, "<=": np.less_equal,
                    ">=": np.greater_equal}[atom.op](column, atom.value)
        keep &= mask
    return np.flatnonzero(keep)


def reference_group_rows(columns, n):
    ids = np.zeros(n, dtype=np.int64)
    parts = []
    for col in columns:
        if col.dtype == object:
            distinct = sorted(dict.fromkeys(col.tolist()))
            position = {value: i for i, value in enumerate(distinct)}
            codes = np.fromiter(map(position.__getitem__, col), dtype=np.int64,
                                count=n)
        else:
            distinct, codes = np.unique(col, return_inverse=True)
            distinct = distinct.tolist()
        _, ids = np.unique(ids * len(distinct) + codes, return_inverse=True)
        parts.append((distinct, codes))
    _, first, ids = np.unique(ids, return_index=True, return_inverse=True)
    keys = [tuple(distinct[codes[row]] for distinct, codes in parts)
            for row in first]
    return keys, ids, first


def intersect_group_answers(answers, n_group):
    """Keep only group keys present in every answer; average their aggregates."""
    common = set.intersection(*(group_keys(answer, n_group) for answer in answers))
    sums = {}
    for answer in answers:
        for row in answer.rows:
            key = row[:n_group]
            if key in common:
                values = np.asarray(row[n_group:], dtype=float)
                sums[key] = sums.get(key, 0.0) + values
    k = len(answers)
    return [key + tuple(float(v) / k for v in sums[key]) for key in sorted(sums)]


def reference_aggregates(relation, query, k=1):
    if k > 1:  # each stacked sample alone, then the groups all of them hold
        n = len(relation) // k
        answers = [reference_aggregates(relation.take(np.arange(i * n, (i + 1) * n)),
                                        query) for i in range(k)]
        n_group = len(query.group_by)
        rows = intersect_group_answers(answers, n_group)
        held = set().union(*(group_keys(answer, n_group) for answer in answers))
        return QueryAnswer(answers[0].columns, rows, "",
                           {"dropped_groups": len(held) - len(rows)})
    aggs = query.aggregates()
    kinds = schema_kinds(relation.schema)
    for agg in aggs:
        if agg.arg is not None and kinds.get(agg.arg) != NUMERIC:
            raise TypeMismatchError(f"{agg.label()} requires a numeric attribute")
    data = relation
    if query.predicate:
        data = relation.take(reference_filter(query.predicate, relation))

    if not aggs:
        cols = [i for i in query.items if isinstance(i, str)]
        rows = list(zip(*(data.columns[c].tolist() for c in cols)))
        if query.group_by:
            rows = sorted(set(rows))
        return QueryAnswer(list(cols), rows, "")

    keys, group_ids, _ = reference_group_rows(
        [data.columns[g] for g in query.group_by], len(data))
    bounds = np.cumsum(np.bincount(group_ids))[:-1]
    members_of = np.split(np.argsort(group_ids, kind="stable"), bounds)

    columns = list(query.group_by) + [a.label() for a in aggs]
    out_rows = []
    for key, members in zip(keys, members_of):
        w = data.weights[members]
        total = float(w.sum())
        if total <= 0:
            continue
        values = []
        for agg in aggs:
            if agg.func == "count":
                values.append(total)
                continue
            weighted_sum = float(np.dot(w, data.columns[agg.arg][members]))
            values.append(weighted_sum if agg.func == "sum" else weighted_sum / total)
        if not all(math.isfinite(v) for v in values):
            raise TypeMismatchError("non-finite aggregate value")
        out_rows.append(key + tuple(values))
    return QueryAnswer(columns, out_rows, "")


# --- a catalog with two categorical and two numeric attributes ------------------

CARRIERS = ["AA", "BB", "CC", "DD", "EE"]  # "EE" only in the population
PORTS = ["x", "y", "z"]


def population(n=2_000, seed=3):
    rng = np.random.default_rng(seed)
    return (rng.choice(CARRIERS, n, p=[0.3, 0.25, 0.2, 0.15, 0.1]),
            rng.choice(PORTS, n, p=[0.5, 0.3, 0.2]),
            rng.integers(1, 5, n), np.round(rng.gamma(2.0, 3.0, n), 3))


def csv_lines(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def write_inputs(tmp_path):
    c, e, n, v = population()
    pairs = {}
    for key in zip(c, e):
        pairs[key] = pairs.get(key, 0) + 1
    cells = [(a, b, k) for (a, b), k in sorted(pairs.items())]
    (tmp_path / "by_ce.csv").write_text(csv_lines(["C", "E", "n"], cells))
    (tmp_path / "by_ce_yz.csv").write_text(
        csv_lines(["C", "E", "n"], [cell for cell in cells if cell[1] != "x"]))
    counts = np.bincount(n)
    (tmp_path / "by_n.csv").write_text(
        csv_lines(["N", "n"], [(i, counts[i]) for i in range(1, len(counts))]))
    # A biased sample: no "EE", and fewer "x" ports.
    keep = (c != "EE") & ((e != "x") | (np.arange(len(c)) % 3 == 0))
    picked = np.flatnonzero(keep)[::6]
    (tmp_path / "sample.csv").write_text(csv_lines(
        ["C", "E", "N", "V"], [(c[i], e[i], n[i], v[i]) for i in picked]))


def setup_script(tmp_path, mechanism="") -> str:
    return f"""
CREATE TABLE ByCE (C TEXT, E TEXT, n INT);
CREATE TABLE ByCEyz (C TEXT, E TEXT, n INT);
CREATE TABLE ByN (N INT, n INT);
INGEST ByCE FROM '{tmp_path / "by_ce.csv"}';
INGEST ByCEyz FROM '{tmp_path / "by_ce_yz.csv"}';
INGEST ByN FROM '{tmp_path / "by_n.csv"}';
CREATE GLOBAL POPULATION P (C TEXT, E TEXT, N INT, V REAL);
CREATE POPULATION Big AS (SELECT * FROM P WHERE C IN ('AA', 'BB', 'EE'));
CREATE POPULATION Yz AS (SELECT * FROM P WHERE E IN ('y', 'z'));
CREATE METADATA P_CE AS (SELECT C, E, n FROM ByCE);
CREATE METADATA P_N AS (SELECT N, n FROM ByN);
CREATE METADATA Yz_CE FOR Yz AS (SELECT C, E, n FROM ByCEyz);
CREATE SAMPLE S AS (SELECT * FROM P{mechanism});
INGEST S FROM '{tmp_path / "sample.csv"}';
"""


QUERIES = [
    "SELECT {vis} COUNT(*) FROM {pop};",
    "SELECT {vis} C, COUNT(*), SUM(V), AVG(N) FROM {pop} GROUP BY C;",
    "SELECT {vis} N, COUNT(*), AVG(V) FROM {pop} GROUP BY N;",
    "SELECT {vis} C, N, SUM(V) FROM {pop} GROUP BY C, N;",
    "SELECT {vis} C, E, COUNT(*) FROM {pop} GROUP BY C, E;",
    "SELECT {vis} E, C, AVG(V) FROM {pop} WHERE N >= 2 GROUP BY E, C;",
    "SELECT {vis} COUNT(*) FROM {pop} WHERE C = 'EE';",
    "SELECT {vis} C, COUNT(*) FROM {pop} WHERE C = 'ZZ' GROUP BY C;",
    "SELECT {vis} C, COUNT(*), SUM(N) FROM {pop} "
    "WHERE C IN ('AA', 'EE', 'AA', 'ZZ', 'CC') GROUP BY C;",
    "SELECT {vis} E, SUM(V) FROM {pop} WHERE C = 'BB' AND E IN ('x', 'z') GROUP BY E;",
    "SELECT {vis} AVG(V) FROM {pop} WHERE E = 'y' AND N < 3 AND C IN ('DD', 'BB');",
    "SELECT {vis} C, COUNT(*) FROM {pop} WHERE N > 100 GROUP BY C;",
    "SELECT {vis} N, COUNT(*) FROM {pop} WHERE N IN (1, 3, 3, 9) GROUP BY N;",
    "SELECT {vis} C, E FROM {pop} WHERE N = 2 AND V > 4;",
    "SELECT {vis} C, N FROM {pop} WHERE E = 'z' GROUP BY C, N;",
    "SELECT {vis} E FROM {pop} WHERE C = 'ZZ';",
]


def small_engine() -> Engine:
    return Engine(seed=5, train_config=TrainConfig(
        coverage_weight=0.01, latent_dim=2, projections=8, batch_size=16,
        epochs=4, layers=(16, 16), seed=5))


def run_all(tmp_path, mechanism, statements) -> list:
    engine = small_engine()
    engine.run_script(setup_script(tmp_path, mechanism))
    out = []
    for statement in statements:
        try:
            answer, = engine.run_script(statement)
        except OpenPopError as exc:
            out.append(("error", type(exc).__name__, str(exc)))
            continue
        out.append((answer.to_text(), answer.to_csv(),
                    repr(sorted(answer.diagnostics.items()))))
    return out


def statements(visibilities, populations) -> list[str]:
    return [query.format(vis=vis, pop=pop) for vis in visibilities
            for pop in populations for query in QUERIES]


class TestMatchesReferenceEvaluation:
    @pytest.mark.parametrize("mechanism, visibilities, expected", [
        ("", ("CLOSED", "SEMI-OPEN"),
         {"closed", "semi_open_ipf_global", "semi_open_ipf_direct"}),
        (" USING MECHANISM UNIFORM PERCENT 12.5", ("SEMI-OPEN",),
         {"semi_open_mechanism"}),
        (" USING MECHANISM STRATIFIED ON N PERCENT 10", ("SEMI-OPEN",),
         {"semi_open_mechanism"}),
        ("", ("OPEN",), {"open"}),
    ], ids=["closed_and_ipf", "uniform", "stratified", "open"])
    def test_byte_equal(self, tmp_path, monkeypatch, mechanism, visibilities,
                        expected):
        write_inputs(tmp_path)
        stmts = statements(visibilities, ("P", "Big", "Yz"))
        answers = run_all(tmp_path, mechanism, stmts)
        monkeypatch.setattr(openpop.executor, "evaluate_aggregates",
                            reference_aggregates)
        assert answers == run_all(tmp_path, mechanism, stmts)
        # The cases reach what they are meant to: their routes, empty
        # answers and non-empty ones.
        tails = [re.search(r"^\((\d+) rows?, (\w+)\)$", text, re.M).groups()
                 for text, *_ in answers]
        assert {route for _, route in tails} == expected
        counts = [int(count) for count, _ in tails]
        assert 0 in counts and sum(count > 1 for count in counts) > len(counts) // 3


def no_take(self, indices):
    raise AssertionError("an aggregate copied the relation")


class TestKeptRowsOnly:
    def test_aggregates_never_copy_the_relation(self, tmp_path, monkeypatch):
        write_inputs(tmp_path)
        engine = small_engine()
        engine.run_script(setup_script(tmp_path))
        stmts = statements(("CLOSED", "SEMI-OPEN"), ("P", "Big", "Yz"))
        expected = [answer.to_text() for stmt in stmts
                    for answer in engine.run_script(stmt)]
        monkeypatch.setattr(Relation, "take", no_take)
        # The fits are cached now, so every statement only aggregates.
        assert [answer.to_text() for stmt in stmts
                for answer in engine.run_script(stmt)] == expected

    def test_mechanism_route_never_copies(self, tmp_path, monkeypatch):
        write_inputs(tmp_path)
        engine = small_engine()
        engine.run_script(setup_script(tmp_path, " USING MECHANISM UNIFORM PERCENT 10"))
        monkeypatch.setattr(Relation, "take", no_take)
        for stmt in statements(("SEMI-OPEN",), ("P", "Big")):
            engine.run_script(stmt)


# --- k stacked samples in one pass -----------------------------------------------

STACK_SCHEMA = [AttributeDef("g", "categorical"), AttributeDef("h", "numeric"),
                AttributeDef("x", "numeric")]
GROUPINGS = [(), ("g",), ("h",), ("g", "h"), ("h", "g")]
AGGREGATES = ["COUNT(*)", "SUM(x)", "AVG(x)", "AVG(h)"]
WHERES = ["", " WHERE x > 0", " WHERE g = 'a'", " WHERE g IN ('b', 'c') AND x <= 5"]
STACK_ROW = st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from([1.0, 2.0]),
                      st.floats(-10, 10), st.sampled_from([0.0, 0.5, 1.0, 2.5]))


def stack_query(group_by, aggregates, where) -> str:
    return (f"SELECT {', '.join([*group_by, *aggregates])} FROM P{where}"
            + (f" GROUP BY {', '.join(group_by)}" if group_by else ""))


@st.composite
def stacks(draw):
    k, n = draw(st.integers(1, 10)), draw(st.integers(1, 5))
    rows = draw(st.lists(STACK_ROW, min_size=k * n, max_size=k * n))
    aggregates = draw(st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=3,
                               unique=True))
    return k, rows, stack_query(draw(st.sampled_from(GROUPINGS)), aggregates,
                                draw(st.sampled_from(WHERES)))


def one_pass(k, rows, text):
    """The one-pass answer over `rows` stacked as k samples, after checking
    it byte for byte against the reference's."""
    relation = Relation.from_rows(STACK_SCHEMA, [row[:3] for row in rows],
                                  [row[3] for row in rows])
    query = parse_one(text)
    got = openpop.executor.evaluate_aggregates(relation, query, k)
    want = reference_aggregates(relation, query, k)
    assert (got.columns, repr(got.rows), got.diagnostics, got.to_csv()) == \
        (want.columns, repr(want.rows), want.diagnostics, want.to_csv())
    return got


class TestStackedSamplesMatchOneAtATime:
    @given(stacks())
    @settings(max_examples=300, deadline=None)
    def test_byte_equal(self, case):
        one_pass(*case)

    def test_group_missing_from_a_sample_is_dropped(self):
        # 'b' is in samples 0 and 1, not in sample 2; ('a', 2.0) only in 2.
        rows = [("a", 1.0, 2.0, 1.0), ("b", 2.0, 3.0, 2.5)] * 2 + \
            [("a", 1.0, 4.0, 0.5), ("a", 2.0, -1.0, 1.0)]
        for group_by, kept, dropped in [(("g",), [("a",)], 1),
                                        (("g", "h"), [("a", 1.0)], 2)]:
            answer = one_pass(3, rows, stack_query(group_by, AGGREGATES, ""))
            assert [row[:len(group_by)] for row in answer.rows] == kept
            assert answer.diagnostics == {"dropped_groups": dropped}

    def test_where_that_empties_a_sample(self):
        rows = [("a", 1.0, 2.0, 1.0), ("b", 2.0, 3.0, 1.0),
                ("a", 1.0, -2.0, 1.0), ("b", 2.0, -3.0, 1.0)]
        for group_by in GROUPINGS:
            answer = one_pass(2, rows, stack_query(group_by, AGGREGATES, " WHERE x > 0"))
            assert answer.rows == []
            assert answer.diagnostics == {"dropped_groups": 2 if group_by else 1}


# --- GROUP BY over three or more attributes --------------------------------------

WIDE_SCHEMA = [AttributeDef(name, kind) for name, kind in [
    ("c0", "categorical"), ("n0", "numeric"), ("c1", "categorical"),
    ("n1", "numeric"), ("c2", "categorical"), ("n2", "numeric"), ("x", "numeric")]]


def wide_rows(n, distinct, rng):
    """n rows whose six grouping columns are independent permutations of n
    values, `distinct` of them different, and a numeric x."""
    columns = []
    for attr in WIDE_SCHEMA[:-1]:
        values = np.resize(np.arange(distinct), n)[rng.permutation(n)]
        columns.append([f"v{v:04d}" for v in values.tolist()]
                       if attr.kind == "categorical" else values.astype(float).tolist())
    columns.append(rng.normal(size=n).round(3).tolist())
    return list(zip(*columns))


class TestWideGroupBy:
    """Past two attributes the grouping renumbers its ids densely. Without
    that, six columns of 1,500 distinct values each would multiply into
    1,500**6 ids, past int64, and the groups would come out unsorted."""

    @pytest.mark.parametrize("group_by, n, distinct, where", [
        (("c0", "n0", "c1"), 300, 4, ""),
        (("n1", "c0", "n0", "c2"), 300, 4, " WHERE x > 0"),
        (("c0", "n0", "c1", "n1", "c2", "n2"), 1_500, 1_500, ""),
    ], ids=["three", "four", "six"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_byte_equal(self, group_by, n, distinct, where, k):
        rng = np.random.default_rng(len(group_by))
        rows = wide_rows(n, distinct, rng)
        # k = 3 stacks the rows three times, each in its own order, and
        # zero weights leave some groups out of some samples.
        rows = rows if k == 1 else [rows[i] for _ in range(k)
                                    for i in rng.permutation(n).tolist()]
        weights = (np.ones(n) if k == 1
                   else rng.choice([0.0, 0.5, 1.0, 2.5], size=k * n))
        relation = Relation.from_rows(WIDE_SCHEMA, rows, weights)
        query = parse_one(f"SELECT {', '.join(group_by)}, COUNT(*), SUM(x), AVG(x) "
                          f"FROM P{where} GROUP BY {', '.join(group_by)}")
        got = openpop.executor.evaluate_aggregates(relation, query, k)
        want = reference_aggregates(relation, query, k)
        assert (got.columns, repr(got.rows), got.diagnostics, got.to_csv()) == \
            (want.columns, repr(want.rows), want.diagnostics, want.to_csv())
        held = len(got.rows) + got.diagnostics.get("dropped_groups", 0)
        assert 0 < len(got.rows) and held <= distinct ** len(group_by)
        if distinct == n and k == 1:  # every row a group of its own
            assert held == n


@pytest.fixture(scope="module")
def flights():
    """A 10,000-row flights sample whose (D, E) pairs fall in over 1,000
    groups, and options that train a small generator once for every test."""
    spec = FlightsLikeSpec(population_size=200_000, seed=0)
    return flights_catalog(gen_flightslike(spec), spec), ExecOptions(train_config=TrainConfig(
        epochs=1, layers=(8,), batch_size=2048, projections=4, seed=0))


class TestManyGroups:
    @pytest.mark.parametrize("visibility, k", [
        ("CLOSED", 10), ("SEMI-OPEN", 10), ("OPEN", 1), ("OPEN", 10)])
    def test_byte_equal(self, flights, monkeypatch, visibility, k):
        catalog, options = flights
        options = replace(options, k_samples=k)  # shares the generator cache
        query = parse_one(f"SELECT {visibility} D, E, COUNT(*), SUM(I), AVG(O) "
                          "FROM FlightsLike GROUP BY D, E")
        answers = []
        for evaluate in (openpop.executor.evaluate_aggregates, reference_aggregates):
            monkeypatch.setattr(openpop.executor, "evaluate_aggregates", evaluate)
            answer = execute(query, catalog, options)
            answers.append((answer.to_text(), answer.to_csv(),
                            answer.diagnostics.get("dropped_groups")))
        assert answers[0] == answers[1]
        # Over 1,000 groups held. Generated D and E are continuous, so on
        # OPEN each row is a group of its own and ten samples share none.
        groups = len(answer.rows) + (answer.diagnostics.get("dropped_groups") or 0)
        assert groups >= 1_000


class TestCodesFollowTheColumns:
    def test_ingested_carrier_is_found_and_grouped(self, tmp_path):
        write_inputs(tmp_path)
        engine = small_engine()
        engine.run_script(setup_script(tmp_path))
        count = "SELECT CLOSED COUNT(*) FROM P WHERE C = 'NEW';"
        grouped = "SELECT CLOSED C, COUNT(*) FROM P WHERE C IN ('NEW', 'AA') GROUP BY C;"
        # Encode the sample's carriers before the batch arrives.
        assert engine.run_script(count)[0].rows == []
        assert [row[0] for row in engine.run_script(grouped)[0].rows] == ["AA"]
        (tmp_path / "batch.csv").write_text("C,E,N,V\nNEW,x,1,2.5\nAA,y,2,1.0\nNEW,z,3,4\n")
        engine.run_script(f"INGEST S FROM '{tmp_path / 'batch.csv'}';")
        assert engine.run_script(count)[0].rows == [(2.0,)]
        rows = engine.run_script(grouped)[0].rows
        assert [row[0] for row in rows] == ["AA", "NEW"] and rows[1][1] == 2.0
        by_carrier = engine.run_script("SELECT CLOSED C, COUNT(*) FROM P GROUP BY C;")
        assert ("NEW", 2.0) in by_carrier[0].rows

    def test_column_assignment_drops_the_codes(self):
        schema = [AttributeDef("c", "categorical"), AttributeDef("x", "numeric")]
        relation = Relation.from_rows(schema, [("b", 1.0), ("a", 2.0), ("b", 3.0)])
        values, codes = relation.key_columns(["c"])["c"]
        assert values == ["a", "b"] and codes.tolist() == [1, 0, 1]
        encoded = relation.key_columns(["c"])["c"]
        relation.weights = np.zeros(3)  # the rows did not change
        assert relation.key_columns(["c"])["c"] is encoded
        relation.columns = {"c": ["z", "b"], "x": [0.0, 1.0]}
        assert "memo" not in vars(relation)
        relation.weights = np.ones(2)
        values, codes = relation.key_columns(["c"])["c"]
        assert values == ["b", "z"] and codes.tolist() == [1, 0]

    def test_reweighted_shares_columns_and_codes(self):
        schema = [AttributeDef("c", "categorical"), AttributeDef("x", "numeric")]
        relation = Relation.from_rows(schema, [("b", 1.0), ("a", 2.0)])
        encoded = relation.key_columns(["c"])["c"]
        copy = relation.reweighted([0.5, 2.0])
        assert copy.key_columns(["c"])["c"] is encoded
        assert copy.memo is relation.memo
        assert copy.columns["c"] is relation.columns["c"]
        assert copy.weights.tolist() == [0.5, 2.0] and relation.weights.tolist() == [1, 1]
        relation.columns = {"c": ["q", "b"], "x": [0.0, 1.0]}
        assert copy.key_columns(["c"])["c"] is encoded
        assert relation.key_columns(["c"])["c"][0] == ["b", "q"]

    def test_decoded_codes_match_the_column(self):
        schema = [AttributeDef("x", "numeric"), AttributeDef("c", "categorical")]
        columns = {"x": np.array([0.0, 1.0, 2.0]),
                   "c": np.array(["m", "b", "z"], dtype=object)}
        encoding = Encoding.build(schema, columns)
        rng = np.random.default_rng(0)
        matrix = rng.random((50, encoding.dim))
        decoded = encoding.decode_rows(matrix)
        values, codes = decoded.key_columns(["c"])["c"]
        assert values == sorted(values)
        assert [values[i] for i in codes] == decoded.columns["c"].tolist()
        fresh = Relation(decoded.schema, dict(decoded.columns), decoded.weights)
        assert fresh.key_columns(["c"])["c"][1].tolist() == codes.tolist()
        assert decoded.digest == fresh.digest

    def test_decoded_memo_equals_a_fresh_build(self):
        # Rows a, z, a over the categories a, b, z: codes that held b too,
        # with z coded 2, would give a digest unlike a fresh build's.
        schema = [AttributeDef("c", "categorical"), AttributeDef("x", "numeric")]
        encoding = Encoding.build(schema, {"c": np.array(["z", "b", "a"], dtype=object),
                                           "x": np.array([0.0, 1.0, 2.0])})
        rows = [("a", 0.0), ("z", 1.0), ("a", 2.0)]
        decoded = encoding.decode_rows(encoding.encode_rows(
            Relation.from_rows(schema, rows).columns))
        values, codes = decoded.key_columns(["c"])["c"]
        fresh_values, fresh_codes = _category_codes(decoded.columns["c"])
        assert (values, codes.dtype, codes.tolist()) == (["a", "z"], np.int64, [0, 1, 0])
        assert (values, codes.tobytes()) == (fresh_values, fresh_codes.tobytes())
        assert decoded.to_rows() == rows
        assert decoded.digest == Relation.from_rows(schema, rows).digest

    def test_filter_matches_string_comparison(self):
        schema = [AttributeDef("c", "categorical"), AttributeDef("x", "numeric")]
        rng = np.random.default_rng(1)
        relation = Relation.from_rows(schema, zip(
            rng.choice(["a", "b", "c", "d"], 200).tolist(), rng.random(200).tolist()))
        for atoms in [(Comparison("c", "=", "b"),), (Comparison("c", "=", "q"),),
                      (InList("c", ("a", "q", "a")),), (InList("c", ()),),
                      (InList("x", (0.5, 2.0)),),
                      (InList("c", ("d", "b")), Comparison("x", "<", 0.5))]:
            pred = Predicate(atoms)
            assert filter_rows(pred, relation).tolist() == \
                reference_filter(pred, relation).tolist()

    @given(column=st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=40),
           later=st.lists(st.sampled_from(["", "a", "e", "z"]), max_size=10),
           literals=st.lists(st.sampled_from(["", "a", "b", "e", "q", "zz"]),
                             max_size=4),
           single=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_categorical_mask_matches_isin(self, column, later, literals, single):
        # `=` and IN look each row's code up in a table over the column's
        # values; literals the column lacks match no row.
        catalog = Catalog()
        catalog.create_population(PopulationDef(
            "P", True, [AttributeDef("c", "categorical")]))
        catalog.create_sample("S")
        catalog.ingest_rows("S", [(value,) for value in column])
        sample = catalog.sample("S")
        sample.key_columns(["c"])  # INGEST then extends the memo's codes
        catalog.ingest_rows("S", [(value,) for value in later])
        atom = (Comparison("c", "=", literals[0]) if single and literals
                else InList("c", tuple(literals)))
        values = atom.values if isinstance(atom, InList) else (atom.value,)
        expected = np.flatnonzero(np.isin(sample.columns["c"].astype(str),
                                          np.asarray(values, dtype=str)))
        assert filter_rows(Predicate((atom,)), sample).tobytes() == expected.tobytes()


# --- column-wise ingest against the per-value loop --------------------------------


def reference_ingest(catalog, rel, records, positions) -> int:
    """The per-value ingest loop that whole-column coercion replaced."""
    values = [[] for _ in rel.schema]
    fields = [(rel.schema[pos], values[pos]) for pos in positions]
    for lineno, row in records:
        if len(row) != len(fields):
            raise CsvParseError(f"expected {len(fields)} fields, got {len(row)}", lineno)
        for (attr, column), raw in zip(fields, row):
            column.append(catalog._coerce(attr, raw, lineno))
    return catalog._commit(rel, Relation(
        rel.schema, {a.name: v for a, v in zip(rel.schema, values)},
        np.ones(len(values[0]))))


def ingest_outcome(ingest, reference: bool):
    """What `ingest(catalog)` leaves: the error's class, message and line, or
    the sample's rows and the global domains. The reference takes no one-pass
    CSV parse."""
    catalog = Catalog()
    catalog.create_population(PopulationDef(
        "P", True, [AttributeDef("c", "categorical"), AttributeDef("n", "numeric"),
                    AttributeDef("m", "numeric")]))
    catalog.create_sample("S")
    if reference:
        catalog._ingest = lambda *args: reference_ingest(catalog, *args)
    try:
        with (mock.patch("openpop.catalog._plain_csv_batch", return_value=None)
              if reference else contextlib.nullcontext()):
            ingest(catalog)
    except OpenPopError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return ([repr(row) for row in catalog.sample("S").to_rows()],
            [a.domain for a in catalog.global_population().schema])


CSV_CASES = [
    "m,c,n\n1,UK,2.5\n2,FR, 3 \n",
    "c,n,m\nUK,1_000,1e-3\nFR,-0,.5\n\nNL,+4,1E2\n",
    "c,n,m\nUK,1,2\nFR,hello,3\nNL,4\n",
    "c,n,m\nUK,1,2\nFR,3\nNL,hello,3\n",
    "c,n,m\nUK,1,nan\nFR,x,3\n",
    "c,n,m\nUK,1,2\nFR,inf,y\n",
    "c,n,m\nUK,1,2\nFR,2,1e400\n",
    "c,n,m\nUK,,2\n",
    "c,n,m\nUK,0x10,2\n",
    "n,m,c\n1,2,UK\n3,4\n",
    "c,n,m\nUK,1,2,9\n",
    "c,n,m\nUK,\uff11\uff12,\u0663\n",
    "c,n,m\n",
]


def long_csv(bad: dict) -> str:
    """Rows over several ingest chunks, carriers first seen in each, with
    the lines in `bad` (line -> text) replaced."""
    lines = ["c,n,m"] + [f"K{i // 3000},{i % 7},{i / 8}" for i in range(10_000)]
    for lineno, text in bad.items():
        lines[lineno - 1] = text
    return "\n".join(lines) + "\n"


# Line k + 1 holds a chunk's last record and line k + 2 the next one's first.
EDGE = 2 * INGEST_CHUNK
CSV_CASES += [long_csv({}), long_csv({8500: "K1,x,1", 8600: "K1,2"}),
              long_csv({4100: "K1,1,inf", 8500: "K1,x,1"}),
              long_csv({EDGE + 1: "K1,1", EDGE + 2: "K1,x,1"}),
              long_csv({EDGE + 2: "K1,x,1", EDGE + 3: "K1,1"})]

ROW_CASES = [
    [("UK", 1.0, 2.5), ("FR", "3", 4)],
    [("UK", 1.0, 2.5), ("FR", True, 4.0)],
    [("UK", 1.0, 2.5), (7, 1.0, 2.0)],
    [("UK", 1.0, float("nan"))],
    [("UK", 1.0), ("FR", "x", 1.0)],
    [("UK", 10 ** 3, 2.5), ("FR", 2.0, -1.5)],
]


class TestColumnIngestMatchesPerValueLoop:
    @pytest.mark.parametrize("text", CSV_CASES, ids=range(len(CSV_CASES)))
    def test_csv(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8")
        ingest = lambda catalog: catalog.ingest_csv("S", path)  # noqa: E731
        assert ingest_outcome(ingest, False) == ingest_outcome(ingest, True)

    @pytest.mark.parametrize("rows", ROW_CASES)
    def test_rows(self, rows):
        ingest = lambda catalog: catalog.ingest_rows("S", rows)  # noqa: E731
        assert ingest_outcome(ingest, False) == ingest_outcome(ingest, True)
