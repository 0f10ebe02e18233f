"""SQL-style dialect for declaring populations, samples, metadata, and
population queries with a visibility level.

A recursive-descent parser over a lexer that is one `re` pattern of named
token groups. Keywords are case-insensitive; identifiers are case-sensitive;
statements terminate with ``;``; ``--`` starts a line comment. ``SEMI-OPEN``
is lexed as a single keyword token so the hyphen never reaches the
expression grammar.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import NamedTuple, Union

from .errors import DialectSyntaxError
from .predicate import COMPARISON_OPS, Comparison, InList, Predicate

KEYWORDS = {
    "CREATE", "GLOBAL", "TEMPORARY", "POPULATION", "SAMPLE", "METADATA",
    "TABLE", "AS", "SELECT", "FROM", "WHERE", "GROUP", "BY", "AND", "IN",
    "USING", "MECHANISM", "PERCENT", "UNIFORM", "STRATIFIED", "ON", "FOR",
    "INGEST", "COUNT", "SUM", "AVG", "CLOSED", "SEMI_OPEN", "OPEN",
}

TYPE_WORDS = {
    "TEXT": "categorical", "STRING": "categorical", "VARCHAR": "categorical",
    "CHAR": "categorical", "CATEGORICAL": "categorical",
    "INT": "numeric", "INTEGER": "numeric", "BIGINT": "numeric",
    "SMALLINT": "numeric", "REAL": "numeric", "FLOAT": "numeric",
    "DOUBLE": "numeric", "NUMERIC": "numeric", "DECIMAL": "numeric",
}

# One alternative per token class, tried in order at each position, so every
# character starts a match. `\w` is str.isalnum() or "_" and `\d` a decimal
# digit. A word must start with a letter or "_", which `tokenize` checks,
# since `[^\W\d]` also admits numerals such as "½". SEMI-OPEN is spelled with
# the letters whose str.upper() spells it ("ſ" is S, "ı" is I), as keywords
# are. The last two alternatives are errors: a string literal left open, and
# a character that starts no token, with the rest of its word.
_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r\n]+|--[^\n]*)
  | (?P<SEMI_OPEN>[sS\u017f][eE][mM][iI\u0131]-[oO][pP][eE][nN]\b)
  | (?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<word>[^\W\d]\w*)
  | (?P<STRING>'(?:[^']|'')*'(?!'))
  | (?P<symbol><=|>=|[()\[\],;*=<>-])
  | (?P<open_string>'[\s\S]*)
  | (?P<bad>.\w*)
""", re.VERBOSE)


class Visibility(enum.Enum):
    CLOSED = "closed"
    SEMI_OPEN = "semi_open"
    OPEN = "open"


class Token(NamedTuple):  # a tuple: made once per token of every statement
    type: str  # keyword name, "IDENT", "NUMBER", "STRING", symbol, "ERROR", "EOF"
    value: object  # an ERROR token's is its DialectSyntaxError
    line: int
    col: int
    pos: int  # offset in the text tokenized


def tokenize(text: str, line: int = 1, col: int = 1) -> list[Token]:
    """The tokens of `text`, then EOF, each at its line and column in an
    input where `text` starts at (`line`, `col`). What is not a token is an
    ERROR token whose value is the DialectSyntaxError: a character that
    starts no token (the rest of its word is skipped), a number with more
    digits than int() converts, or an unterminated string, which ends the
    tokens."""
    tokens: list[Token] = []
    line_start = 1 - col  # the offset of column 1 of `line`
    for match in _TOKEN.finditer(text):
        kind, raw, pos = match.lastgroup, match.group(), match.start()
        col = pos - line_start + 1
        if kind == "word" and not (raw[0].isalpha() or raw[0] == "_"):
            kind = "bad"
        value = raw
        if kind == "word":
            upper = raw.upper()
            kind = upper if upper in KEYWORDS else "IDENT"
        elif kind == "NUMBER":
            try:
                value = int(raw) if raw.isdecimal() else float(raw)
            except ValueError:  # more digits than int() converts
                kind, value = "ERROR", f"number with {len(raw)} digits"
        elif kind == "STRING":
            value = raw[1:-1].replace("''", "'")
        elif kind == "open_string":
            kind, value = "ERROR", "unterminated string literal"
        elif kind == "bad":
            kind, value = "ERROR", f"unexpected character {raw[0]!r}"
        elif kind == "symbol":
            kind = raw
        if kind == "ERROR":
            value = DialectSyntaxError(value, line, col)
        if kind != "skip":
            tokens.append(Token(kind, value, line, col, pos))
        if "\n" in raw:
            line += raw.count("\n")
            line_start = pos + raw.rindex("\n") + 1
    tokens.append(Token("EOF", None, line, len(text) - line_start + 1, len(text)))
    return tokens


# --- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class AttrSpec:
    name: str
    kind: str  # "numeric" | "categorical"


@dataclass(frozen=True)
class Aggregate:
    func: str  # "count" | "sum" | "avg"
    arg: str | None  # None only for count(*)

    def label(self) -> str:
        return f"{self.func.upper()}({'*' if self.arg is None else self.arg})"


SelectItem = Union[str, Aggregate]  # attribute name or aggregate


@dataclass(frozen=True)
class SelectCore:
    """The parenthesized SELECT inside CREATE ... AS."""
    projection: tuple[str, ...] | None  # None means '*'
    source: str
    predicate: Predicate | None


@dataclass(frozen=True)
class MechanismSpec:
    kind: str  # "uniform" | "stratified"
    percent: float
    strat_attribute: str | None = None


@dataclass(frozen=True)
class CreatePopulation:
    name: str
    is_global: bool
    attrs: tuple[AttrSpec, ...] | None
    core: SelectCore | None


@dataclass(frozen=True)
class CreateSample:
    name: str
    attrs: tuple[AttrSpec, ...] | None
    core: SelectCore
    mechanism: MechanismSpec | None


@dataclass(frozen=True)
class CreateMetadata:
    name: str
    owner: str | None  # None defaults to the global population
    attributes: tuple[str, ...]
    count_column: str | None  # pre-aggregated column; None means COUNT(*) form
    source: str
    group_by: tuple[str, ...]


@dataclass(frozen=True)
class CreateAuxTable:
    name: str
    temporary: bool
    attrs: tuple[AttrSpec, ...]


@dataclass(frozen=True)
class Ingest:
    target: str
    path: str


@dataclass(frozen=True)
class Select:
    visibility: Visibility
    items: tuple[SelectItem, ...]
    source: str
    predicate: Predicate | None
    group_by: tuple[str, ...]

    def aggregates(self) -> list[Aggregate]:
        return [it for it in self.items if isinstance(it, Aggregate)]

    def plain_attributes(self) -> list[str]:
        return [it for it in self.items if isinstance(it, str)]


Statement = Union[CreatePopulation, CreateSample, CreateMetadata,
                  CreateAuxTable, Ingest, Select]


# --- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def match(self, *types: str) -> Token | None:
        if self.peek().type in types:
            return self.advance()
        return None

    def expect(self, *types: str) -> Token:
        tok = self.peek()
        if tok.type in types:
            return self.advance()
        shown = tok.value if tok.type in ("IDENT", "NUMBER", "STRING") else tok.type
        raise DialectSyntaxError(f"unexpected {shown!r}", tok.line, tok.col,
                                 expected=types)

    def ident(self, what: str = "identifier") -> str:
        tok = self.peek()
        if tok.type != "IDENT":
            raise DialectSyntaxError(f"expected {what}", tok.line, tok.col,
                                     expected=("IDENT",))
        return self.advance().value

    # statements

    def parse_script(self) -> list[Statement]:
        statements: list[Statement] = []
        while self.peek().type != "EOF":
            statements.append(self.parse_statement())
            if self.peek().type == "EOF":
                break
            self.expect(";")
        return statements

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.type == "CREATE":
            return self.parse_create()
        if tok.type == "INGEST":
            return self.parse_ingest()
        if tok.type == "SELECT":
            return self.parse_select()
        raise DialectSyntaxError("expected a statement", tok.line, tok.col,
                                 expected=("CREATE", "INGEST", "SELECT"))

    def parse_create(self) -> Statement:
        self.expect("CREATE")
        if self.match("GLOBAL"):
            self.expect("POPULATION")
            return self.parse_create_population(is_global=True)
        if self.match("POPULATION"):
            return self.parse_create_population(is_global=False)
        if self.match("SAMPLE"):
            return self.parse_create_sample()
        if self.match("METADATA"):
            return self.parse_create_metadata()
        temporary = bool(self.match("TEMPORARY"))
        self.expect("TABLE")
        return self.parse_create_table(temporary)

    def parse_attr_defs(self) -> tuple[AttrSpec, ...]:
        self.expect("(")
        attrs = []
        while True:
            name = self.ident("attribute name")
            type_tok = self.peek()
            if type_tok.type != "IDENT" or type_tok.value.upper() not in TYPE_WORDS:
                raise DialectSyntaxError(
                    f"unknown attribute type {type_tok.value!r}",
                    type_tok.line, type_tok.col,
                    expected=tuple(sorted(TYPE_WORDS)))
            self.advance()
            attrs.append(AttrSpec(name, TYPE_WORDS[type_tok.value.upper()]))
            if not self.match(","):
                break
        self.expect(")")
        return tuple(attrs)

    def names(self) -> tuple[str, ...]:
        """attr [, attr ...]"""
        names = [self.ident("attribute")]
        while self.match(","):
            names.append(self.ident("attribute"))
        return tuple(names)

    def group_by(self) -> tuple[str, ...]:
        if not self.match("GROUP"):
            return ()
        self.expect("BY")
        return self.names()

    def count_star(self) -> bool:
        """Consume COUNT(*) if it comes next."""
        if not self.match("COUNT"):
            return False
        self.expect("(")
        self.expect("*")
        self.expect(")")
        return True

    def parse_select_core(self, allow_mechanism: bool = False):
        """(SELECT proj FROM name [WHERE pred] [USING MECHANISM ...])"""
        self.expect("(")
        self.expect("SELECT")
        projection = None if self.match("*") else self.names()
        self.expect("FROM")
        source = self.ident("relation name")
        predicate = None
        if self.match("WHERE"):
            predicate = self.parse_predicate()
        mechanism = None
        if allow_mechanism and self.match("USING"):
            self.expect("MECHANISM")
            if self.match("UNIFORM"):
                kind, strat = "uniform", None
            else:
                self.expect("STRATIFIED")
                self.expect("ON")
                kind, strat = "stratified", self.ident("attribute")
            self.expect("PERCENT")
            percent = self.parse_number()
            mechanism = MechanismSpec(kind, float(percent), strat)
        self.expect(")")
        return SelectCore(projection, source, predicate), mechanism

    def parse_create_population(self, is_global: bool) -> CreatePopulation:
        name = self.ident("population name")
        attrs = self.parse_attr_defs() if self.peek().type == "(" else None
        core = None
        if self.match("AS"):
            core, _ = self.parse_select_core()
        tok = self.peek()
        if is_global and core is not None:
            raise DialectSyntaxError(
                "a global population cannot be defined over another population",
                tok.line, tok.col)
        if is_global and attrs is None:
            raise DialectSyntaxError(
                "a global population requires an attribute list", tok.line, tok.col)
        if not is_global and core is None:
            raise DialectSyntaxError(
                "a non-global population requires AS (SELECT ... FROM <global>)",
                tok.line, tok.col)
        return CreatePopulation(name, is_global, attrs, core)

    def parse_create_sample(self) -> CreateSample:
        name = self.ident("sample name")
        attrs = self.parse_attr_defs() if self.peek().type == "(" else None
        self.expect("AS")
        core, mechanism = self.parse_select_core(allow_mechanism=True)
        return CreateSample(name, attrs, core, mechanism)

    def parse_create_metadata(self) -> CreateMetadata:
        name = self.ident("metadata name")
        owner = None
        if self.match("FOR"):
            owner = self.ident("population name")
        self.expect("AS")
        self.expect("(")
        self.expect("SELECT")
        attributes: list[str] = []
        count_column: str | None = None
        saw_count_star = False
        while True:
            if self.count_star():
                saw_count_star = True
                break
            attributes.append(self.ident("attribute"))
            if not self.match(","):
                break
        tok = self.peek()
        if not saw_count_star:
            if len(attributes) < 2:
                raise DialectSyntaxError(
                    "metadata projection needs attribute(s) plus a count column "
                    "or COUNT(*)", tok.line, tok.col)
            count_column = attributes.pop()
        self.expect("FROM")
        source = self.ident("relation name")
        group_by = self.group_by()
        self.expect(")")
        tok = self.peek()
        if (saw_count_star or group_by) and tuple(attributes) != group_by:
            raise DialectSyntaxError(
                "GROUP BY must list exactly the projected attributes",
                tok.line, tok.col)
        return CreateMetadata(name, owner, tuple(attributes), count_column,
                              source, group_by)

    def parse_create_table(self, temporary: bool) -> CreateAuxTable:
        name = self.ident("table name")
        return CreateAuxTable(name, temporary, self.parse_attr_defs())

    def parse_ingest(self) -> Ingest:
        self.expect("INGEST")
        target = self.ident("relation name")
        self.expect("FROM")
        return Ingest(target, self.expect("STRING").value)

    def parse_select(self) -> Select:
        self.expect("SELECT")
        tok = self.match(*(v.name for v in Visibility))
        visibility = Visibility[tok.type] if tok else Visibility.CLOSED
        items: list[SelectItem] = [self.parse_select_item()]
        while self.match(","):
            items.append(self.parse_select_item())
        self.expect("FROM")
        source = self.ident("population name")
        predicate = None
        if self.match("WHERE"):
            predicate = self.parse_predicate()
        group_by = self.group_by()
        tok = self.peek()
        plain = [it for it in items if isinstance(it, str)]
        has_agg = any(isinstance(it, Aggregate) for it in items)
        for attr in group_by:
            if attr not in plain:
                raise DialectSyntaxError(
                    f"GROUP BY attribute '{attr}' is not in the projection",
                    tok.line, tok.col)
        if has_agg and plain and tuple(plain) != group_by:
            raise DialectSyntaxError(
                "non-aggregated attributes require a matching GROUP BY clause",
                tok.line, tok.col)
        return Select(visibility, tuple(items), source, predicate, group_by)

    def parse_select_item(self) -> SelectItem:
        if self.count_star():
            return Aggregate("count", None)
        for func in ("SUM", "AVG"):
            if self.match(func):
                self.expect("(")
                arg = self.ident("attribute")
                self.expect(")")
                return Aggregate(func.lower(), arg)
        return self.ident("attribute or aggregate")

    # predicates

    def parse_predicate(self) -> Predicate:
        atoms = [self.parse_atom()]
        while self.match("AND"):
            atoms.append(self.parse_atom())
        return Predicate(tuple(atoms))

    def parse_atom(self):
        attr = self.ident("attribute")
        if self.match("IN"):
            if self.match("["):
                close = "]"
            else:
                self.expect("(")
                close = ")"
            values = [self.parse_literal()]
            while self.match(","):
                values.append(self.parse_literal())
            self.expect(close)
            return InList(attr, tuple(values))
        op_tok = self.expect(*COMPARISON_OPS)
        return Comparison(attr, op_tok.type, self.parse_literal())

    def parse_literal(self):
        if self.match("-"):
            return -self.expect("NUMBER").value
        tok = self.peek()
        if tok.type in ("NUMBER", "STRING", "IDENT"):  # a bare word is a string
            return self.advance().value
        raise DialectSyntaxError("expected a literal", tok.line, tok.col,
                                 expected=("NUMBER", "STRING", "IDENT"))

    def parse_number(self) -> float:
        if self.match("-"):
            return -float(self.expect("NUMBER").value)
        return float(self.expect("NUMBER").value)


def parse(text: str, line: int = 1, col: int = 1) -> list[Statement]:
    """Parse a script that starts at (`line`, `col`) of its input into
    statements; raises DialectSyntaxError with the location and expected-token
    set of the first error, a lexical one before any in the grammar."""
    tokens = tokenize(text, line, col)
    for tok in tokens:
        if tok.type == "ERROR":
            raise tok.value
    return _Parser(tokens).parse_script()


def parse_one(text: str) -> Statement:
    statements = parse(text)
    if len(statements) != 1:
        raise DialectSyntaxError(f"expected one statement, got {len(statements)}", 1, 1)
    return statements[0]


# --- rendering ---------------------------------------------------------------

_KIND_WORDS = {"numeric": "NUMERIC", "categorical": "TEXT"}


def _render_literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_predicate(pred: Predicate) -> str:
    parts = []
    for atom in pred.atoms:
        if isinstance(atom, InList):
            inner = ", ".join(_render_literal(v) for v in atom.values)
            parts.append(f"{atom.attr} IN [{inner}]")
        else:
            parts.append(f"{atom.attr} {atom.op} {_render_literal(atom.value)}")
    return " AND ".join(parts)


def _render_attrs(attrs) -> str:
    return "(" + ", ".join(f"{a.name} {_KIND_WORDS[a.kind]}" for a in attrs) + ")"


def _render_core(core: SelectCore, mechanism: MechanismSpec | None = None) -> str:
    proj = "*" if core.projection is None else ", ".join(core.projection)
    text = f"(SELECT {proj} FROM {core.source}"
    if core.predicate:
        text += f" WHERE {_render_predicate(core.predicate)}"
    if mechanism is not None:
        mech = "UNIFORM" if mechanism.kind == "uniform" \
            else f"STRATIFIED ON {mechanism.strat_attribute}"
        text += f" USING MECHANISM {mech} PERCENT {_render_literal(mechanism.percent)}"
    return text + ")"


def render_statement(stmt: Statement) -> str:
    if isinstance(stmt, CreatePopulation):
        text = "CREATE GLOBAL POPULATION " if stmt.is_global else "CREATE POPULATION "
        text += stmt.name
        if stmt.attrs is not None:
            text += " " + _render_attrs(stmt.attrs)
        if stmt.core is not None:
            text += " AS " + _render_core(stmt.core)
        return text
    if isinstance(stmt, CreateSample):
        text = f"CREATE SAMPLE {stmt.name}"
        if stmt.attrs is not None:
            text += " " + _render_attrs(stmt.attrs)
        return text + " AS " + _render_core(stmt.core, stmt.mechanism)
    if isinstance(stmt, CreateMetadata):
        text = f"CREATE METADATA {stmt.name}"
        if stmt.owner is not None:
            text += f" FOR {stmt.owner}"
        if stmt.count_column is None:
            proj = ", ".join(stmt.attributes) + ", COUNT(*)"
            tail = f" GROUP BY {', '.join(stmt.group_by)}"
        else:
            proj = ", ".join(stmt.attributes + (stmt.count_column,))
            tail = f" GROUP BY {', '.join(stmt.group_by)}" if stmt.group_by else ""
        return text + f" AS (SELECT {proj} FROM {stmt.source}{tail})"
    if isinstance(stmt, CreateAuxTable):
        temp = "TEMPORARY " if stmt.temporary else ""
        return f"CREATE {temp}TABLE {stmt.name} {_render_attrs(stmt.attrs)}"
    if isinstance(stmt, Ingest):
        return f"INGEST {stmt.target} FROM {_render_literal(stmt.path)}"
    if isinstance(stmt, Select):
        vis = {Visibility.CLOSED: "CLOSED", Visibility.SEMI_OPEN: "SEMI-OPEN",
               Visibility.OPEN: "OPEN"}[stmt.visibility]
        items = ", ".join(it if isinstance(it, str) else it.label()
                          for it in stmt.items)
        text = f"SELECT {vis} {items} FROM {stmt.source}"
        if stmt.predicate:
            text += f" WHERE {_render_predicate(stmt.predicate)}"
        if stmt.group_by:
            text += f" GROUP BY {', '.join(stmt.group_by)}"
        return text
    raise TypeError(f"not a statement: {stmt!r}")


def render(statements) -> str:
    """Canonical text for an AST list; parse(render(x)) is structurally x."""
    if not isinstance(statements, (list, tuple)):
        statements = [statements]
    return "".join(render_statement(s) + ";\n" for s in statements)
