"""Dialect grammar, visibility keywords, and parse/render round-trips."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openpop.dialect import (
    Aggregate,
    AttrSpec,
    CreateAuxTable,
    CreateMetadata,
    CreatePopulation,
    CreateSample,
    Ingest,
    MechanismSpec,
    Select,
    SelectCore,
    Visibility,
    parse,
    parse_one,
    render,
    tokenize,
)
from openpop.errors import DialectSyntaxError
from openpop.predicate import Comparison, InList, Predicate

FULL_SCRIPT = """
CREATE TEMPORARY TABLE MigrantStats (country TEXT, email TEXT, reported_count INT);
CREATE GLOBAL POPULATION Migrants (country TEXT, email TEXT);
CREATE METADATA Migrants_ByCountry AS
  (SELECT country, reported_count FROM MigrantStats);
CREATE METADATA Migrants_ByEmail AS
  (SELECT email, reported_count FROM MigrantStats);
CREATE SAMPLE YahooUsers AS
  (SELECT * FROM Migrants WHERE email = Yahoo);
SELECT SEMI-OPEN country, email, COUNT(*) FROM Migrants GROUP BY country, email;
SELECT OPEN country, email, COUNT(*) FROM Migrants GROUP BY country, email;
"""

BENCH_QUERIES = [
    "SELECT AVG(D) FROM F WHERE E > 200",
    "SELECT AVG(I) FROM F WHERE E < 200",
    "SELECT AVG(E) FROM F WHERE D > 1000",
    "SELECT AVG(O) FROM F WHERE D < 1000",
    "SELECT C, AVG(D) FROM F WHERE E > 200 AND C IN ['WN', 'AA'] GROUP BY C",
    "SELECT C, AVG(I) FROM F WHERE E < 200 AND C IN ['WN', 'AA'] GROUP BY C",
    "SELECT C, AVG(E) FROM F WHERE D > 1000 AND C IN ['WN', 'AA'] GROUP BY C",
    "SELECT C, AVG(O) FROM F WHERE D < 1000 AND C IN ['US', 'F9'] GROUP BY C",
]


class TestScripts:
    def test_full_script_statement_count(self):
        statements = parse(FULL_SCRIPT)
        assert len(statements) == 7
        kinds = [type(s).__name__ for s in statements]
        assert kinds == ["CreateAuxTable", "CreatePopulation", "CreateMetadata",
                         "CreateMetadata", "CreateSample", "Select", "Select"]

    def test_visibilities(self):
        statements = parse(FULL_SCRIPT)
        assert statements[5].visibility == Visibility.SEMI_OPEN
        assert statements[6].visibility == Visibility.OPEN

    def test_open_group_by(self):
        stmt = parse_one("SELECT OPEN country, COUNT(*) FROM P GROUP BY country")
        assert stmt.visibility == Visibility.OPEN
        assert stmt.group_by == ("country",)
        assert stmt.aggregates() == [Aggregate("count", None)]

    def test_default_visibility_closed(self):
        assert parse_one("SELECT country FROM P").visibility == Visibility.CLOSED

    def test_unknown_keyword_is_error(self):
        with pytest.raises(DialectSyntaxError):
            parse("SELECT SEMIOPEN x FROM P;")

    def test_case_insensitive_keywords(self):
        stmt = parse_one("select semi-open country from P where x >= 3")
        assert stmt.visibility == Visibility.SEMI_OPEN

    def test_error_carries_location(self):
        with pytest.raises(DialectSyntaxError) as err:
            parse("SELECT country\nFROM;")
        assert err.value.line == 2

    def test_every_benchmark_query_parses(self):
        for text in BENCH_QUERIES:
            stmt = parse_one(text)
            assert isinstance(stmt, Select)

    def test_mechanism_variants(self):
        uniform = parse_one(
            "CREATE SAMPLE S AS (SELECT * FROM G USING MECHANISM UNIFORM PERCENT 10)")
        assert uniform.mechanism == MechanismSpec("uniform", 10.0, None)
        stratified = parse_one(
            "CREATE SAMPLE S AS (SELECT * FROM G "
            "USING MECHANISM STRATIFIED ON region PERCENT 20)")
        assert stratified.mechanism == MechanismSpec("stratified", 20.0, "region")

    def test_group_by_must_match_projection(self):
        with pytest.raises(DialectSyntaxError):
            parse("SELECT country, COUNT(*) FROM P GROUP BY email;")
        with pytest.raises(DialectSyntaxError):
            parse("SELECT country, COUNT(*) FROM P;")  # missing GROUP BY

    def test_metadata_count_column_group_by_must_match(self):
        # The GROUP BY of the count-column form used to be parsed and ignored.
        with pytest.raises(DialectSyntaxError,
                           match="GROUP BY must list exactly the projected"):
            parse("CREATE METADATA M AS (SELECT country, n FROM T GROUP BY email);")
        for text in ("CREATE METADATA M AS (SELECT country, n FROM T);",
                     "CREATE METADATA M FOR D AS (SELECT country, email, n FROM T "
                     "GROUP BY country, email);"):
            (stmt,) = parse(text)
            assert parse(render(stmt)) == [stmt]

    def test_ingest_statement(self):
        stmt = parse_one("INGEST Yahoo FROM 'data/rows.csv'")
        assert stmt == Ingest("Yahoo", "data/rows.csv")

    def test_comments_and_blank_lines(self):
        text = "-- leading comment\nSELECT country FROM P; -- trailing\n\n"
        assert len(parse(text)) == 1

    def test_string_escapes(self):
        stmt = parse_one("SELECT x FROM P WHERE name = 'O''Brien'")
        assert stmt.predicate.atoms[0].value == "O'Brien"

    def test_negative_literal(self):
        stmt = parse_one("SELECT x FROM P WHERE x > -2.5")
        assert stmt.predicate.atoms[0].value == -2.5


class TestLexer:
    @pytest.mark.parametrize("text, line, col, message", [
        ("SELECT\t!", 1, 8, "unexpected character"),     # a tab is one column
        ("SELECT country\r\nFROM !", 2, 6,               # CR is a column, LF a line
         "unexpected character"),
        ("-- it's a comment ! \nSELECT #", 2, 8,          # a comment hides '!'
         "unexpected character '#'"),
        ("SELECT x FROM P\nWHERE n = 'O''Brien", 2, 11,   # at the opening quote
         "unterminated string literal"),
        ("SELECT\tcountry\r\nFROM;", 2, 5,               # parser errors too
         "expected population name"),
    ])
    def test_error_location(self, text, line, col, message):
        with pytest.raises(DialectSyntaxError, match=message) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (line, col)

    def test_token_values_and_positions(self):
        tokens = tokenize("select Semi-Open x\n  1 2.5 3e2 4e 'it''s' -7 SEMI-OPENx")
        assert [(t.type, t.value, t.line, t.col) for t in tokens
                if t.type != "SEMI_OPEN"] == [
            ("SELECT", "select", 1, 1), ("IDENT", "x", 1, 18),
            ("NUMBER", 1, 2, 3), ("NUMBER", 2.5, 2, 5), ("NUMBER", 300.0, 2, 9),
            ("NUMBER", 4, 2, 13), ("IDENT", "e", 2, 14), ("STRING", "it's", 2, 16),
            ("-", "-", 2, 24), ("NUMBER", 7, 2, 25), ("IDENT", "SEMI", 2, 27),
            ("-", "-", 2, 31), ("IDENT", "OPENx", 2, 32), ("EOF", None, 2, 37)]
        assert tokens[1].type == "SEMI_OPEN" and (tokens[1].line, tokens[1].col) == (1, 8)


    def test_origin_offsets_the_first_line_only(self):
        tokens = tokenize("a b\n c", 3, 10)
        assert [(t.type, t.line, t.col) for t in tokens] == [
            ("IDENT", 3, 10), ("IDENT", 3, 12), ("IDENT", 4, 2), ("EOF", 4, 3)]

    def test_pos_indexes_the_text(self):
        text = "SELECT x\r\n  FROM 'a\nb' -- c\n;"
        tokens = tokenize(text, 7, 5)
        assert [t.pos for t in tokens] == [0, 7, 12, 17, 28, 29]
        assert [text[t.pos] for t in tokens[:-1]] == ["S", "x", "F", "'", ";"]

    def test_bad_character_is_one_error_token_skipping_its_word(self):
        tokens = tokenize("x < 1\u00b2abc; y ! z")
        assert [t.type for t in tokens] == [
            "IDENT", "<", "NUMBER", "ERROR", ";", "IDENT", "ERROR", "IDENT", "EOF"]
        error = tokens[3].value
        assert isinstance(error, DialectSyntaxError)
        assert str(error) == "1:6: unexpected character '\u00b2'"
        assert (tokens[3].line, tokens[3].col, tokens[3].pos) == (1, 6, 5)
        assert str(tokens[6].value) == "1:14: unexpected character '!'"

    def test_unterminated_string_is_the_last_token(self):
        tokens = tokenize("x = 'it''s;\n y;", 2, 1)
        assert [t.type for t in tokens] == ["IDENT", "=", "ERROR", "EOF"]
        assert str(tokens[2].value) == "2:5: unterminated string literal"
        assert (tokens[-1].line, tokens[-1].col) == (3, 4)

    def test_overlong_number_is_an_error_token(self):
        tokens = tokenize("x < " + "9" * 5000 + " ;")
        assert [t.type for t in tokens] == ["IDENT", "<", "ERROR", ";", "EOF"]
        assert str(tokens[2].value) == "1:5: number with 5000 digits"

    def test_parse_raises_the_first_lexical_error_at_its_input_position(self):
        text = "SELECT FROM P;\nSELECT x FROM P WHERE x < 1\u00b2 ! 'open"
        with pytest.raises(DialectSyntaxError) as err:
            parse(text, 4, 9)
        assert str(err.value) == "5:28: unexpected character '\u00b2'"
        with pytest.raises(DialectSyntaxError, match="expected attribute"):
            parse(text.split("\n")[0], 4, 9)


# Characters the lexer treats specially, plus digits and letters outside ASCII
# ("²" and "½" are numeric to str but not decimal digits).
LEXER_TEXT = st.text(st.one_of(st.sampled_from("09.eE+-'_ \t\r\n\f;*<=>()[],é²٣½"),
                               st.characters()))


@given(LEXER_TEXT)
@example("SELECT CLOSED COUNT(*) FROM P WHERE x < 1²;")
@example("1e²")
@example("x < " + "9" * 5000)  # more digits than int() converts
@settings(max_examples=300, deadline=None)
def test_tokenize_raises_only_syntax_errors(text):
    try:
        tokens = tokenize(text)
    except DialectSyntaxError:
        return
    assert tokens[-1].type == "EOF"


class TestRenderRoundTrip:
    def test_full_script(self):
        statements = parse(FULL_SCRIPT)
        assert parse(render(statements)) == statements

    def test_benchmark_queries(self):
        for text in BENCH_QUERIES:
            stmt = parse_one(text)
            assert parse_one(render(stmt)) == stmt

    def test_empty_list(self):
        assert render([]) == ""


# --- randomized ASTs -----------------------------------------------------------

NAMES = st.text(alphabet="abcdefgh_", min_size=1, max_size=8).filter(
    lambda s: s.upper() not in {"AS", "BY", "IN", "ON", "AND", "FOR", "SUM",
                                "AVG", "FROM", "OPEN", "CHAR", "TEXT", "INT",
                                "REAL", "FLOAT", "COUNT", "GROUP", "WHERE",
                                "TABLE", "SELECT", "CREATE", "SAMPLE", "GLOBAL",
                                "CLOSED", "INGEST", "USING", "DOUBLE", "STRING",
                                "BIGINT", "NUMERIC", "DECIMAL", "integer",
                                "INTEGER", "VARCHAR", "PERCENT", "UNIFORM",
                                "SMALLINT", "POPULATION", "METADATA",
                                "MECHANISM", "TEMPORARY", "STRATIFIED",
                                "CATEGORICAL"})

LITERALS = st.one_of(
    st.integers(-10_000, 10_000),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.text(alphabet="abc XYZ'9-", max_size=8),
)


@st.composite
def predicates(draw):
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        attr = draw(NAMES)
        if draw(st.booleans()):
            atoms.append(Comparison(attr, draw(st.sampled_from(
                ("=", "<", ">", "<=", ">="))), draw(LITERALS)))
        else:
            values = tuple(draw(LITERALS) for _ in range(draw(st.integers(1, 3))))
            atoms.append(InList(attr, values))
    return Predicate(tuple(atoms))


@st.composite
def attr_lists(draw):
    count = draw(st.integers(1, 4))
    names = draw(st.lists(NAMES, min_size=count, max_size=count, unique=True))
    return tuple(AttrSpec(n, draw(st.sampled_from(("numeric", "categorical"))))
                 for n in names)


@st.composite
def select_cores(draw):
    projection = None
    if draw(st.booleans()):
        projection = tuple(draw(st.lists(NAMES, min_size=1, max_size=3,
                                         unique=True)))
    predicate = draw(st.one_of(st.none(), predicates()))
    return SelectCore(projection, draw(NAMES), predicate)


@st.composite
def statements(draw):
    which = draw(st.integers(0, 5))
    if which == 0:
        if draw(st.booleans()):
            return CreatePopulation(draw(NAMES), True, draw(attr_lists()), None)
        return CreatePopulation(draw(NAMES), False,
                                draw(st.one_of(st.none(), attr_lists())),
                                draw(select_cores()))
    if which == 1:
        mechanism = None
        if draw(st.booleans()):
            if draw(st.booleans()):
                mechanism = MechanismSpec("uniform", float(draw(st.integers(1, 100))))
            else:
                mechanism = MechanismSpec("stratified",
                                          float(draw(st.integers(1, 100))),
                                          draw(NAMES))
        return CreateSample(draw(NAMES),
                            draw(st.one_of(st.none(), attr_lists())),
                            draw(select_cores()), mechanism)
    if which == 2:
        attrs = tuple(draw(st.lists(NAMES, min_size=1, max_size=2, unique=True)))
        if draw(st.booleans()):
            return CreateMetadata(draw(NAMES),
                                  draw(st.one_of(st.none(), NAMES)),
                                  attrs, None, draw(NAMES), attrs)
        return CreateMetadata(draw(NAMES), draw(st.one_of(st.none(), NAMES)),
                              attrs, draw(NAMES), draw(NAMES), ())
    if which == 3:
        return CreateAuxTable(draw(NAMES), draw(st.booleans()), draw(attr_lists()))
    if which == 4:
        return Ingest(draw(NAMES), draw(st.text(
            alphabet="abc/._-x", min_size=1, max_size=12)))
    group_by = ()
    plain = draw(st.lists(NAMES, min_size=0, max_size=2, unique=True))
    aggs = [Aggregate("count", None)] if draw(st.booleans()) else []
    if draw(st.booleans()):
        aggs.append(Aggregate(draw(st.sampled_from(("sum", "avg"))), draw(NAMES)))
    if plain and aggs:
        group_by = tuple(plain)
    items = tuple(plain) + tuple(aggs)
    if not items:
        items = (draw(NAMES),)
    return Select(draw(st.sampled_from(list(Visibility))), items, draw(NAMES),
                  draw(st.one_of(st.none(), predicates())), group_by)


@given(st.lists(statements(), max_size=4))
@settings(max_examples=200, deadline=None)
def test_random_asts_round_trip(stmts):
    assert parse(render(stmts)) == stmts
