"""Catalog of populations, samples, marginal metadata, and auxiliary tables.

The catalog is the persistent state of the engine: one global population,
derived populations (predicate views over it), samples with per-tuple
weights, and 1-/2-attribute marginal histograms of ground-truth population
counts. Persistence is a versioned line-oriented text format (one JSON
object per line after the version tag) chosen for exact float round-trips.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from numbers import Integral, Real
from operator import itemgetter

import numpy as np

from .errors import (
    CatalogError,
    CatalogIoError,
    ConfigError,
    CsvParseError,
    DuplicateNameError,
    FormatVersionMismatchError,
    InvalidPercentError,
    NegativeCountError,
    NoGlobalPopulationError,
    OpenPopError,
    TooManyAttributesError,
    TypeMismatchError,
    UnknownAttributeError,
    UnknownPopulationError,
    UnknownRelationError,
)
from .predicate import Comparison, InList, Predicate, check_types

FORMAT_TAG = "openpop-catalog v1"
INGEST_CHUNK = 256  # lines the one-pass parse reads at once; bounds the raw text held
# A CSV body holding one of these is not plain: csv's quote; NUL, which csv
# rejects before Python 3.11; and \x1c-\x1f, which np.loadtxt strips around
# a number but float() does not.
_NOT_PLAIN = '"\x00\x1c\x1d\x1e\x1f'

NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass
class AttributeDef:
    name: str
    kind: str  # NUMERIC | CATEGORICAL
    domain: list[str] = field(default_factory=list)  # categorical active domain, ordered
    lo: float | None = None  # optional declared numeric range
    hi: float | None = None

    def extend_domain(self, values) -> None:
        """Append the values not yet in the domain, in first-seen order."""
        known = set(self.domain)
        self.domain.extend(v for v in dict.fromkeys(values) if v not in known)


Schema = list[AttributeDef]


def schema_kinds(schema: Schema) -> dict[str, str]:
    return {a.name: a.kind for a in schema}


def _check_schema(schema: Schema) -> None:
    if not schema:
        raise CatalogError("a schema needs at least one attribute")
    names = [a.name for a in schema]
    if len(set(names)) != len(names):
        raise DuplicateNameError(f"duplicate attribute names in schema: {names}")
    for a in schema:
        if a.kind not in (NUMERIC, CATEGORICAL):
            raise TypeMismatchError(f"unknown attribute kind '{a.kind}'")
        bounds = [b for b in (a.lo, a.hi) if b is not None]
        if bounds and a.kind == CATEGORICAL:
            raise TypeMismatchError(f"categorical attribute '{a.name}' takes no lo or hi")
        if not all(isinstance(b, Real) and not isinstance(b, bool) and _fits_float(b)
                   for b in bounds) or len(bounds) == 2 and a.lo > a.hi:
            raise CatalogError(f"attribute '{a.name}' needs finite lo <= hi, got "
                               f"[{_shown(a.lo)}, {_shown(a.hi)}]")
        if not all(isinstance(v, str) for v in a.domain):
            raise TypeMismatchError(f"domain of '{a.name}' holds a value that is not a string")


@dataclass
class Mechanism:
    kind: str  # "uniform" | "stratified"
    percent: float
    strat_attribute: str | None = None

    def __post_init__(self):
        if not (0 < self.percent <= 100):
            raise InvalidPercentError(f"percent must be in (0, 100], got {self.percent}")
        if self.kind == "stratified" and not self.strat_attribute:
            raise UnknownAttributeError("stratified mechanism requires an attribute")
        if self.kind not in ("uniform", "stratified"):
            raise TypeMismatchError(f"unknown mechanism kind '{self.kind}'")


@dataclass
class PopulationDef:
    name: str
    is_global: bool
    schema: Schema
    source: str | None = None  # global population name, absent iff is_global
    predicate: Predicate | None = None


def _category_codes(column, values=(), codes=np.empty(0, np.int64)):
    """(sorted distinct values, int64 codes) of a categorical column; given
    the (values, codes) of rows before it, of those rows and `column` in
    turn. The earlier codes are renumbered only when `column` brings a value
    `values` lacks."""
    column = column.tolist()
    new = set(column).difference(values)
    merged = sorted([*values, *new])  # a sorted run and a tail: near-linear
    position = {value: i for i, value in enumerate(merged)}
    if new:
        codes = np.fromiter(map(position.__getitem__, values), np.int64, len(values))[codes]
    return merged, np.concatenate([codes, np.fromiter(
        map(position.__getitem__, column), np.int64, len(column))])


def group_codes(columns: list, rows=slice(None)):
    """Group the rows at `rows` (all by default) by their values in `columns`,
    each an array or an encoding from `Relation.key_columns`: (parts, ids,
    first), where groups are in sorted key order, the r-th row is in group
    ids[r], first[g] is group g's first row, and parts holds, per column,
    its distinct values as plain Python values and each group's index into
    them."""
    ids = 0
    parts = []
    for col in columns:
        if len(parts) > 1:  # renumber densely, so the product below stays small
            _, ids = np.unique(ids, return_inverse=True)
        if isinstance(col, tuple):
            distinct, codes = col[0], col[1][rows]
        elif col.dtype == object:
            distinct, codes = _category_codes(col[rows])
        else:
            distinct, codes = np.unique(col[rows], return_inverse=True)
            distinct = distinct.tolist()
        ids = ids * len(distinct) + codes
        parts.append((distinct, codes))
    _, first, ids = np.unique(ids, return_index=True, return_inverse=True)
    return [(distinct, codes[first]) for distinct, codes in parts], ids, first


def _csv_records(handle):
    """(line, record) for the header of a CSV file and each non-blank record
    after it, where line is the one the record starts on; lines count from
    1, blank ones included. An error of the reader raises CsvParseError
    at the line of the record it stopped in."""
    reader, line = csv.reader(handle), 1
    try:
        for record in reader:
            if record or line == 1:
                yield line, record
            line = reader.line_num + 1
    except csv.Error as exc:
        raise CsvParseError(str(exc), line) from exc


def _plain_csv_batch(handle, schema: Schema, positions: list[int]):
    """The rest of `handle`, whose i-th field is the attribute at schema
    position positions[i], parsed in one np.loadtxt pass as a unit-weight
    batch; None, after reading some of it, unless that gives what the csv
    record loop gives. So the body must hold a record, the right number of
    fields on every line, only finite numbers loadtxt parses (float() parses
    more), no line over csv's field limit, and no character of _NOT_PLAIN.
    Lines are read and checked INGEST_CHUNK at a time."""
    attrs = [schema[pos] for pos in positions]
    limit = csv.field_size_limit()

    def chunks():
        for chunk in iter(lambda: list(itertools.islice(handle, INGEST_CHUNK)), []):
            text = "".join(chunk)
            if (len(text) > limit and max(map(len, chunk)) > limit
                    or any(char in text for char in _NOT_PLAIN)):
                raise ValueError("not a plain CSV body")
            yield chunk

    dtype = np.dtype([("", object if a.kind == CATEGORICAL else float) for a in attrs])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            table = np.loadtxt(itertools.chain.from_iterable(chunks()), dtype=dtype,
                               delimiter=",", comments=None, quotechar=None, ndmin=1)
    except (ValueError, UserWarning):
        return None
    columns = {a.name: table[field] for a, field in zip(attrs, dtype.names)}
    if not all(np.isfinite(columns[a.name]).all() for a in attrs if a.kind == NUMERIC):
        return None
    return Relation(schema, columns, np.ones(len(table)))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _fits_float(number, lo=-sys.float_info.max) -> bool:
    """lo <= number <= the largest float, exactly: an int past it fails like inf,
    and a numpy scalar compares as its Python number, not cast to its width."""
    number = number.item() if isinstance(number, np.generic) else number
    return lo <= number <= sys.float_info.max


def _shown(value, show=repr) -> str:
    """show(value) for a message; a number whose digits pass Python's
    int_max_str_digits is named by that limit instead of raising."""
    try:
        return show(value)
    except ValueError:
        return f"<{type(value).__name__} of over {sys.get_int_max_str_digits()} digits>"


def _floats(values) -> np.ndarray:
    """`values` as float64; a number past the float range becomes inf."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        return np.array([v if _fits_float(v) else math.inf for v in values])


@dataclass(eq=False)
class Relation:
    """Rows stored as one array per attribute (float64 for numeric, an object
    array of str for categorical) plus one nonnegative weight per row.

    Arrays handed to a relation become read-only. `memo` holds what the rows
    alone determine, under one rule: assigning `weights` keeps it, `append`
    extends it over the appended rows, and assigning `columns` drops it.
    The memoized `digest` reads the weights too, so any assignment drops it."""

    schema: Schema
    columns: dict[str, np.ndarray]
    weights: np.ndarray

    def __setattr__(self, name, value):
        if name == "columns":
            kinds = schema_kinds(self.schema)
            value = {col_name: _read_only(np.ascontiguousarray(
                col, dtype=float if kinds[col_name] == NUMERIC else object))
                for col_name, col in value.items()}
            self.__dict__.pop("memo", None)
        elif name == "weights":
            value = _read_only(np.asarray(value, dtype=float))
        self.__dict__.pop("digest", None)
        super().__setattr__(name, value)

    @cached_property
    def digest(self) -> bytes:
        """sha256 of the row count, attribute names, columns and weights; a
        categorical column as its memo codes (`key_columns`), which equal a
        fresh build whatever the ingest history."""
        digest = hashlib.sha256(repr((len(self), [a.name for a in self.schema]))
                                .encode("utf-8"))
        for col in self.key_columns([a.name for a in self.schema]).values():
            if isinstance(col, tuple):
                values, col = col
                digest.update(repr(values).encode("utf-8"))
            digest.update(col.tobytes())
        digest.update(self.weights.tobytes())
        return digest.digest()

    @cached_property
    def memo(self) -> dict:
        """What the rows alone determine: a categorical attribute's name ->
        (sorted values, int64 codes), and a marginal's digest -> (marginal,
        cell ids, keys)."""
        return {}

    def key_columns(self, names) -> dict:
        """`names` as `group_codes` reads them fastest: categorical ones encoded."""
        for name in names:
            if self.columns[name].dtype == object and name not in self.memo:
                self.memo[name] = _category_codes(self.columns[name])
        return {name: self.memo.get(name, self.columns[name]) for name in names}

    def cell_ids(self, marginal: Marginal) -> tuple[np.ndarray, list]:
        """`marginal.cell_index` over this relation's rows, memoized per
        marginal. The ids are read-only, and the keys list is shared: neither
        may be changed."""
        entry = self.memo.get(marginal.digest)
        if entry is None:
            ids, keys = marginal.cell_index(self.key_columns(marginal.attributes))
            entry = self.memo[marginal.digest] = (marginal, _read_only(ids), keys)
        return entry[1], entry[2]

    def append(self, batch: Relation) -> None:
        """Append the rows of `batch`, a relation of this schema, with their
        weights. Each memo entry is extended over the appended rows alone
        into a new memo, so a copy that shares the old one keeps it."""
        memo = {}
        for key, entry in self.memo.items():
            if isinstance(key, str):
                memo[key] = _category_codes(batch.columns[key], *entry)
            else:
                marginal, ids, keys = entry
                new_ids, keys = marginal.cell_index(batch.columns, keys)
                memo[key] = (marginal, _read_only(np.concatenate([ids, new_ids])), keys)
        self.columns = {name: np.concatenate([col, batch.columns[name]])
                        for name, col in self.columns.items()}
        self.weights = np.concatenate([self.weights, batch.weights])
        self.__dict__["memo"] = memo

    def reweighted(self, weights) -> "Relation":
        """This relation with other weights; columns and memo are shared."""
        relation = replace(self, weights=weights)
        relation.__dict__["memo"] = self.memo
        return relation

    @classmethod
    def from_rows(cls, schema: Schema, rows, weights=None, **identity):
        """The one row -> column step: the i-th value of every row becomes
        the column of the i-th attribute (unit weights by default). Every
        row must hold exactly one value per attribute, and there must be
        one weight per row."""
        rows = list(rows)
        if any(len(row) != len(schema) for row in rows):
            raise ValueError(f"every row must have {len(schema)} values")
        values = list(zip(*rows)) if rows else [()] * len(schema)
        if weights is None:
            weights = np.ones(len(rows))
        elif len(weights) != len(rows):
            raise ValueError(f"{len(weights)} weights for {len(rows)} rows")
        return cls(schema, {a.name: v for a, v in zip(schema, values)},
                   weights, **identity)

    def to_rows(self) -> list[tuple]:
        """The one column -> row view: tuples of plain Python values in
        schema order."""
        return list(zip(*(self.columns[a.name].tolist() for a in self.schema)))

    def take(self, indices) -> "Relation":
        """The rows at `indices`, in that order, with the same identity."""
        return replace(self, columns={name: col[indices]
                                      for name, col in self.columns.items()},
                       weights=self.weights[indices])

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(eq=False, kw_only=True)
class SampleRelation(Relation):
    name: str
    predicate: Predicate | None = None
    mechanism: Mechanism | None = None


@dataclass(eq=False, kw_only=True)
class AuxRelation(Relation):
    """Plain table used for staging data before it feeds samples or metadata."""

    name: str


def _check_attributes(attributes: tuple) -> None:
    if not (1 <= len(attributes) <= 2):
        raise TooManyAttributesError(
            f"marginals take 1 or 2 attributes, got {len(attributes)}")
    if len(set(attributes)) != len(attributes):
        raise DuplicateNameError("marginal attributes must be distinct")


def _cells_of(attributes, binnings: dict, columns: dict) -> tuple[list, np.ndarray]:
    """The one cell rule, over whole columns: (keys, ids) such that row r
    falls in cell keys[ids[r]], keys in the order rows first reach them.
    A numeric attribute in `binnings` keys as its bin id; an unbinned whole
    number keys as an int, made so once per distinct value; two attributes
    key as a pair."""
    parts, ids, first = group_codes([binnings[a].cells(columns[a]) if a in binnings
                                     else columns[a] for a in attributes])
    order = np.argsort(first)
    values = []
    for distinct, codes in parts:
        plain = np.array([int(v) if isinstance(v, float) and v.is_integer() else v
                          for v in distinct], dtype=object)
        values.append(plain[codes[order]].tolist())
    return (values[0] if len(values) == 1 else list(zip(*values))), np.argsort(order)[ids]


# Bins of each NumericBinning that build_marginal attaches; a saved catalog
# carries its own count.
MARGINAL_BINS = 64


@dataclass(frozen=True)
class NumericBinning:
    """Equi-width binning rule for marginals over unrounded numeric data."""

    lo: float
    hi: float
    nbins: int

    def __post_init__(self):
        if type(self.nbins) is not int or self.nbins < 1:
            raise CatalogError(
                f"binning nbins must be a positive int, got {_shown(self.nbins)}")
        if not (_fits_float(self.lo) and _fits_float(self.hi) and self.lo <= self.hi):
            raise CatalogError(f"binning needs finite lo <= hi, got "
                               f"[{_shown(self.lo, str)}, {_shown(self.hi, str)}]")

    def cells(self, values) -> np.ndarray:
        """Bin ids of `values`; values outside [lo, hi] clamp to the boundary
        bin."""
        values = np.asarray(values, dtype=float)
        if self.hi <= self.lo:
            return np.zeros(len(values), dtype=np.int64)
        frac = (values - self.lo) / (self.hi - self.lo)
        return np.clip(np.floor(frac * self.nbins), 0,
                       self.nbins - 1).astype(np.int64)

    def midpoint(self, cells: np.ndarray) -> np.ndarray:
        width = (self.hi - self.lo) / self.nbins
        return self.lo + (cells + 0.5) * width


@dataclass(frozen=True)
class Marginal:
    """A 1- or 2-attribute histogram of ground-truth population counts.
    Frozen, and its cells are never changed after creation, so `digest`
    holds for the marginal's whole life."""

    owner: str
    attributes: tuple[str, ...]
    cells: dict  # value or (value, value) -> count
    binnings: dict[str, NumericBinning] = field(default_factory=dict)
    name: str | None = None

    def __post_init__(self):
        _check_attributes(self.attributes)
        pair = len(self.attributes) == 2
        # The one check of cell keys and counts. Keys are tested by their
        # types and lengths, float counts as one array; if a test fails, or
        # a count is not a float, the loop runs and names the first bad cell.
        tuples = {issubclass(cls, tuple) for cls in set(map(type, self.cells))}
        fits = (tuples <= {pair} and (not pair or set(map(len, self.cells)) <= {2})
                and all(issubclass(cls, float)
                        for cls in set(map(type, self.cells.values())))
                and ((self.counts >= 0) & (self.counts < math.inf)).all())
        if not fits:
            for key, count in self.cells.items():
                if isinstance(key, tuple) != pair or pair and len(key) != 2:
                    raise CatalogError(
                        f"cell key {_shown(key)} does not fit {self.attributes}")
                if not isinstance(count, Real) or isinstance(count, bool):
                    raise TypeMismatchError(f"cell count {_shown(count)} is not a number")
                if not _fits_float(count, 0):
                    raise NegativeCountError(f"cell {_shown(key)} has count "
                                             f"{_shown(count, str)}; counts must be "
                                             "finite and >= 0")
        total = sum(self.cells.values())  # ints summed exactly, so past the float range
        if self.cells and not (total > 0 and _fits_float(total)):
            raise NegativeCountError("marginal total count must be positive and finite")

    def total(self) -> float:
        return float(sum(self.cells.values()))

    @cached_property
    def digest(self) -> bytes:
        """sha256 of the content a fit depends on, cells in their order."""
        return hashlib.sha256(repr((
            self.owner, self.attributes, list(self.cells.items()),
            sorted(self.binnings.items()))).encode("utf-8")).digest()

    @cached_property
    def parts(self) -> dict[str, tuple]:
        """Attribute -> its value in each cell key, in cell order."""
        if len(self.attributes) == 1:
            return {self.attributes[0]: tuple(self.cells)}
        return {attr: tuple(map(itemgetter(i), self.cells))
                for i, attr in enumerate(self.attributes)}

    @cached_property
    def counts(self) -> np.ndarray:
        """The cell counts as float64, in cell order; read-only."""
        return _read_only(np.fromiter(self.cells.values(), float, len(self.cells)))

    def targets(self, n_keys: int) -> np.ndarray:
        """The cell counts, then zeros up to `n_keys` (`Relation.cell_ids`)."""
        return np.concatenate([self.counts, np.zeros(n_keys - len(self.counts))])

    @cached_property
    def key_ids(self) -> dict:
        """Cell key -> its position in cell order."""
        return {key: i for i, key in enumerate(self.cells)}

    def positions(self, attr: str) -> np.ndarray:
        """Numeric position of each cell on `attr`, in cell order: the bin
        midpoint when binned, else the value."""
        binning = self.binnings.get(attr)
        values = np.asarray(self.parts[attr], dtype=float)
        return values if binning is None else binning.midpoint(values)

    def cell_index(self, columns: dict[str, np.ndarray],
                   keys: list | None = None) -> tuple[np.ndarray, list]:
        """The cell rule (`_cells_of`) under this marginal's binnings: (ids,
        keys) such that row r falls in cell keys[ids[r]]. The ids continue
        `keys`, the numbering of earlier rows (by default the cells): a cell
        first reached here takes the next id in a copy of `keys`."""
        found, row_cells = _cells_of(self.attributes, self.binnings, columns)
        keys = list(self.cells) if keys is None else keys
        index = (self.key_ids if len(keys) == len(self.cells)  # no sample-only keys yet
                 else dict(zip(keys, range(len(keys)))))
        ids = np.fromiter(map(index.get, found, itertools.repeat(-1)), np.int64, len(found))
        new = np.flatnonzero(ids < 0)  # in the order rows first reach them
        ids[new] = np.arange(len(keys), len(keys) + len(new))
        if len(new):
            keys = keys + [found[i] for i in new.tolist()]
        return ids[row_cells], keys


def content_key(relation: Relation, marginals, *settings) -> str:
    """Content hash of what a model fitted to `relation` under `marginals`
    and `settings` depends on: the relation's digest, each marginal's digest
    in order, and the settings' repr. Keys both the trained-generator and
    the IPF-weight caches."""
    digest = hashlib.sha256(relation.digest)
    for marginal in marginals:
        digest.update(marginal.digest)
    digest.update(repr(settings).encode("utf-8"))
    return digest.hexdigest()


def build_marginal(owner, attributes, relation: Relation, name=None,
                   weights=None) -> Marginal:
    """Aggregate a relation's rows (unit weights unless given) into a
    marginal, attaching equi-width binning (MARGINAL_BINS bins) to any
    numeric attribute whose values are not whole numbers. Rows of one cell
    add up, and cells keep the order in which rows first reach them."""
    attributes = tuple(attributes)
    kinds = schema_kinds(relation.schema)
    binnings: dict[str, NumericBinning] = {}
    for attr in attributes:
        if attr not in kinds:
            raise UnknownAttributeError(f"unknown attribute '{attr}'")
        col = relation.columns[attr]
        if (kinds[attr] == NUMERIC and len(col)
                and not np.array_equal(col, np.trunc(col))):
            binnings[attr] = NumericBinning(float(col.min()), float(col.max()),
                                            MARGINAL_BINS)
    _check_attributes(attributes)
    keys, ids = _cells_of(attributes, binnings, relation.columns)
    weights = np.ones(len(relation)) if weights is None else weights
    counts = np.bincount(ids, weights=weights, minlength=len(keys))
    return Marginal(owner, attributes, dict(zip(keys, counts.tolist())),
                    binnings, name)


class Catalog:
    """Mutable engine state. Its create, ingest and set-weights calls hold
    every integrity rule; `load` replays a saved catalog through them."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.populations: dict[str, PopulationDef] = {}
        self.samples: dict[str, SampleRelation] = {}
        self.marginals: list[Marginal] = []
        self.aux: dict[str, AuxRelation] = {}

    @property
    def seed(self) -> int:
        return self._seed

    @seed.setter
    def seed(self, value: int) -> None:
        # The one check of every seed: the engine's and a loaded catalog's.
        if not isinstance(value, Integral) or isinstance(value, bool) or value < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {_shown(value)}")
        self._seed = value

    # --- lookups ----------------------------------------------------------

    def global_population(self) -> PopulationDef:
        for pop in self.populations.values():
            if pop.is_global:
                return pop
        raise NoGlobalPopulationError("no global population declared")

    def global_schema(self, names=None) -> Schema:
        """Copies (domains included) of the global population's attributes:
        all of them, or those in `names`, in that order."""
        gp = self.global_population()
        by_name = {a.name: a for a in gp.schema}
        schema = []
        for name in by_name if names is None else names:
            if name not in by_name:
                raise UnknownAttributeError(f"attribute '{name}' not in '{gp.name}'")
            schema.append(replace(by_name[name], domain=list(by_name[name].domain)))
        return schema

    def population(self, name: str) -> PopulationDef:
        if name not in self.populations:
            raise UnknownPopulationError(f"unknown population '{name}'")
        return self.populations[name]

    def sample(self, name: str) -> SampleRelation:
        if name not in self.samples:
            raise UnknownRelationError(f"unknown sample '{name}'")
        return self.samples[name]

    def marginals_for(self, owner: str) -> list[Marginal]:
        return [m for m in self.marginals if m.owner == owner]

    def _check_new_name(self, name: str) -> None:
        if name in {*self.populations, *self.samples, *self.aux,
                    *(m.name for m in self.marginals)}:
            raise DuplicateNameError(f"name '{name}' already in use")

    # --- mutations ----------------------------------------------------------

    def create_population(self, defn: PopulationDef) -> None:
        self._check_new_name(defn.name)
        _check_schema(defn.schema)
        if defn.is_global:
            if any(p.is_global for p in self.populations.values()):
                raise DuplicateNameError("a global population already exists")
        else:
            gp = self.global_population()
            if defn.source is None:
                defn = replace(defn, source=gp.name)
            elif defn.source != gp.name:
                raise UnknownPopulationError(
                    f"population source must be the global population '{gp.name}'")
            self._check_against_global(defn.schema, defn.predicate)
        self.populations[defn.name] = defn

    def _check_against_global(self, schema: Schema, predicate: Predicate | None) -> None:
        """Every attribute is a global one of the same kind, and the predicate
        type-checks against the global schema."""
        gp_kinds = schema_kinds(self.global_population().schema)
        for a in schema:
            if gp_kinds.get(a.name) != a.kind:
                raise UnknownAttributeError(
                    f"attribute '{a.name}' not in global population schema")
        if predicate:
            check_types(predicate, gp_kinds)

    def create_sample(self, name: str, schema: Schema | None = None,
                      predicate: Predicate | None = None,
                      mechanism: Mechanism | None = None) -> SampleRelation:
        self._check_new_name(name)
        if schema is None:
            schema = self.global_schema()
        _check_schema(schema)
        self._check_against_global(schema, predicate)
        # Each row's stratum is read off the sample's own column, which is
        # then a global attribute too.
        if (mechanism is not None and mechanism.kind == "stratified"
                and mechanism.strat_attribute not in schema_kinds(schema)):
            raise UnknownAttributeError(
                f"stratification attribute '{mechanism.strat_attribute}' "
                f"not in schema of sample '{name}'")
        sample = SampleRelation.from_rows(schema, [], name=name, predicate=predicate,
                                          mechanism=mechanism)
        self.samples[name] = sample
        return sample

    def create_aux_table(self, name: str, schema: Schema) -> AuxRelation:
        self._check_new_name(name)
        _check_schema(schema)
        rel = AuxRelation.from_rows(schema, [], name=name)
        self.aux[name] = rel
        return rel

    def create_metadata(self, owner: str, attributes, cells,
                        binnings: dict[str, NumericBinning] | None = None,
                        name: str | None = None) -> Marginal:
        """Add the marginal of `cells` to population `owner`. An unknown
        owner or attribute, or a name in use, is named before a bad cell."""
        attributes = tuple(attributes)
        self._metadata_owner(owner, attributes, name)
        return self.add_marginal(
            Marginal(owner, attributes, dict(cells), dict(binnings or {}), name))

    def _metadata_owner(self, owner: str, attributes: tuple, name) -> PopulationDef:
        pop = self.population(owner)
        kinds = schema_kinds(pop.schema)
        for attr in attributes:
            if attr not in kinds:
                raise UnknownAttributeError(
                    f"attribute '{attr}' not in schema of population '{owner}'")
        if name:
            self._check_new_name(name)
        return pop

    def add_marginal(self, marginal: Marginal) -> Marginal:
        """Add a built marginal to its owner, under `create_metadata`'s checks."""
        pop = self._metadata_owner(marginal.owner, marginal.attributes, marginal.name)
        attributes = marginal.attributes
        kinds = schema_kinds(pop.schema)
        if not marginal.cells:
            raise CatalogError(f"marginal over {attributes} has no cells")
        for attr in attributes:
            values = marginal.parts[attr]
            numeric = kinds[attr] == NUMERIC
            for cls in set(map(type, values)):
                if not (issubclass(cls, Real) and not issubclass(cls, bool)
                        if numeric else issubclass(cls, str)):
                    value = next(v for v in values if type(v) is cls)
                    raise TypeMismatchError(
                        f"cell value {_shown(value)} does not fit {kinds[attr]} "
                        f"attribute '{attr}'")
            if numeric and attr not in marginal.binnings:  # bin ids are checked below
                finite = np.isfinite(_floats(values))
                if not finite.all():
                    raise TypeMismatchError(f"cell value {_shown(values[finite.argmin()])} "
                                            f"does not fit numeric attribute '{attr}'")
        # A binned attribute's cell values are its bin ids.
        for attr, binning in marginal.binnings.items():
            if attr not in attributes:
                raise CatalogError(
                    f"binning on '{attr}', which the marginal over {attributes} "
                    "does not hold")
            if kinds[attr] != NUMERIC:
                raise TypeMismatchError(
                    f"binning on {kinds[attr]} attribute '{attr}'")
            ids = _floats(marginal.parts[attr])
            bad = (ids != np.floor(ids)) | (ids < 0) | (ids >= binning.nbins)
            if bad.any():
                raise CatalogError(
                    f"cell value {_shown(marginal.parts[attr][bad.argmax()])} is not a "
                    f"bin id of attribute '{attr}' (a whole number in "
                    f"[0, {binning.nbins}))")
        # Marginal cell keys extend the owner's categorical active domains, so
        # open-world answers can name values never seen in any sample.
        for attr in pop.schema:
            if attr.name in attributes and attr.kind == CATEGORICAL:
                attr.extend_domain(marginal.parts[attr.name])
        self.marginals.append(marginal)
        return marginal

    def set_weights(self, sample_name: str, weights) -> None:
        """Replace a sample's initial tuple weights (all-ones by default)."""
        sample = self.sample(sample_name)
        weights = _floats(weights)
        if weights.shape != (len(sample),):
            raise TypeMismatchError(
                f"expected {len(sample)} weights, got {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise TypeMismatchError("weights must be finite")
        if np.any(weights < 0):
            raise NegativeCountError("weights must be nonnegative")
        sample.weights = weights.copy()

    # --- ingestion ----------------------------------------------------------

    def _target_relation(self, name: str):
        if name in self.samples:
            return self.samples[name]
        if name in self.aux:
            return self.aux[name]
        raise UnknownRelationError(f"no sample or table named '{name}'")

    def _coerce(self, attr: AttributeDef, raw, line: int):
        if attr.kind == NUMERIC:
            try:  # a bool reads as its name, so it is not a number
                value = float(raw if isinstance(raw, float) or type(raw) is int
                              else str(raw))
            except OverflowError:  # an int past the float range
                value = math.inf
            except ValueError:
                raise CsvParseError(f"non-numeric value {_shown(raw)} in numeric "
                                    f"column '{attr.name}'", line)
            if not math.isfinite(value):
                raise CsvParseError(f"non-finite value {_shown(raw)} in numeric "
                                    f"column '{attr.name}'", line)
            return value
        if not isinstance(raw, str):
            raise TypeMismatchError(
                f"expected string for categorical column '{attr.name}', got {_shown(raw)}")
        return raw

    def ingest_rows(self, target: str, rows) -> int:
        rel = self._target_relation(target)
        return self._ingest(rel, enumerate(rows, start=1), range(len(rel.schema)))

    def _ingest(self, rel: Relation, records, positions) -> int:
        """Coerce each (line, row) record, whose i-th field is the attribute
        at schema position positions[i], as it arrives; then commit them all.
        The first bad record raises before the relation or a domain changes."""
        attrs = [rel.schema[pos] for pos in positions]
        columns = {attr.name: [] for attr in attrs}
        count = 0
        for lineno, row in records:
            try:
                n_fields = len(row)
            except TypeError:
                raise CsvParseError(f"expected a row of {len(attrs)} fields, got "
                                    f"{_shown(row)}", lineno) from None
            if n_fields != len(attrs):
                raise CsvParseError(f"expected {len(attrs)} fields, got {n_fields}", lineno)
            for attr, raw in zip(attrs, row):
                columns[attr.name].append(self._coerce(attr, raw, lineno))
            count += 1
        return self._commit(rel, Relation(rel.schema, columns, np.ones(count)))

    def _commit(self, rel: Relation, batch: Relation) -> int:
        """Append the rows of a coerced, unit-weight batch, and grow the
        categorical domains it reaches: the relation's own and, since sample
        tuples exist in the global population, the global population's."""
        rel.append(batch)
        first_seen = {a.name: dict.fromkeys(batch.columns[a.name].tolist())
                      for a in rel.schema if a.kind == CATEGORICAL}
        reached = rel.schema + (self.global_population().schema
                                if isinstance(rel, SampleRelation) else [])
        for attr in reached:
            if attr.kind == CATEGORICAL and attr.name in first_seen:
                attr.extend_domain(first_seen[attr.name])
        return len(batch)

    def ingest_csv(self, target: str, path) -> int:
        rel = self._target_relation(target)
        try:
            with open(path, "r", encoding="utf-8-sig", newline="") as handle:
                records = _csv_records(handle)
                try:
                    _, header = next(records)
                except StopIteration:
                    return 0
                index = {a.name: i for i, a in enumerate(rel.schema)}
                cols = []
                for name in header:
                    if name not in index:
                        raise CsvParseError(f"unknown column '{name}' in header", 1)
                    if index[name] in cols:
                        raise CsvParseError(f"duplicate column '{name}' in header", 1)
                    cols.append(index[name])
                if len(cols) != len(rel.schema):
                    raise CsvParseError(
                        f"header must name all of {[a.name for a in rel.schema]}", 1)
                if handle.seekable():
                    batch = _plain_csv_batch(handle, rel.schema, cols)
                    if batch is not None:
                        return self._commit(rel, batch)
                    handle.seek(0)  # the record loop reads the file from the start
                    records = _csv_records(handle)
                    next(records)
                return self._ingest(rel, records, cols)
        except OSError as exc:
            raise CatalogIoError(f"cannot read '{path}': {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CatalogIoError(
                f"cannot read '{path}': not UTF-8 text ({exc.reason})") from exc

    # --- persistence ----------------------------------------------------------

    def to_jsonable(self) -> list[dict]:
        records: list[dict] = [{"kind": "state", "seed": self.seed}]
        for pop in self.populations.values():
            records.append({
                "kind": "population", "name": pop.name, "global": pop.is_global,
                "source": pop.source, "schema": [asdict(a) for a in pop.schema],
                "predicate": _pred_json(pop.predicate),
            })
        for sample in self.samples.values():
            records.append({
                "kind": "sample", "name": sample.name,
                "schema": [asdict(a) for a in sample.schema],
                "rows": sample.to_rows(),
                "weights": sample.weights.tolist(),
                "predicate": _pred_json(sample.predicate),
                "mechanism": (None if sample.mechanism is None
                              else asdict(sample.mechanism)),
            })
        for marginal in self.marginals:
            records.append({
                "kind": "marginal", "owner": marginal.owner, "name": marginal.name,
                "attributes": marginal.attributes,
                "cells": list(marginal.cells.items()),
                "binnings": {a: [b.lo, b.hi, b.nbins]
                             for a, b in marginal.binnings.items()},
            })
        for rel in self.aux.values():
            records.append({
                "kind": "aux", "name": rel.name,
                "schema": [asdict(a) for a in rel.schema],
                "rows": rel.to_rows(),
            })
        return records

    def save(self, path) -> None:
        # Write beside the target, flush it to disk, then rename: a failed
        # save leaves the old file whole and no temp file behind, and a temp
        # file the user already has fails the save untouched. The rename would
        # replace a device, pipe or directory with a regular file, so only a
        # regular file or a new path is written.
        if os.path.exists(path) and not os.path.isfile(path):
            raise CatalogIoError(f"cannot write '{path}': not a regular file")
        tmp = f"{os.fspath(path)}.tmp"
        try:
            with open(tmp, "x", encoding="utf-8") as handle:
                handle.write(FORMAT_TAG + "\n")
                for line, record in enumerate(self.to_jsonable(), start=2):
                    handle.write(json.dumps(record) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except FileExistsError as exc:
            raise CatalogIoError(f"cannot write '{path}': {exc}") from exc
        except (OSError, TypeError, ValueError) as exc:  # TypeError: not JSON
            if os.path.exists(tmp):
                os.remove(tmp)
            where = ("" if isinstance(exc, OSError)
                     else f"line {line}, a {record['kind']} record: ")
            raise CatalogIoError(f"cannot write '{path}': {where}{exc}") from exc

    @classmethod
    def load(cls, path) -> "Catalog":
        try:
            with open(path, "r", encoding="utf-8-sig") as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            raise CatalogIoError(f"cannot read '{path}': {exc}") from exc
        if not lines or lines[0] != FORMAT_TAG:
            raise FormatVersionMismatchError(
                f"expected '{FORMAT_TAG}' on line 1 of {path}")
        catalog = cls()
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                catalog._restore(json.loads(line))
            except json.JSONDecodeError as exc:
                raise CsvParseError(f"malformed catalog record: {exc}", lineno)
            except (OpenPopError, KeyError, TypeError, ValueError,
                    AttributeError) as exc:
                raise CsvParseError(
                    f"malformed catalog record ({type(exc).__name__}: {exc})",
                    lineno)
        return catalog

    def _restore(self, record: dict) -> None:
        """Replay one saved record through the calls that made it, so a
        loaded catalog obeys the same rules as one built by statements."""
        kind = record.get("kind")
        if kind == "state":
            self.seed = record["seed"]
        elif kind == "population":
            self.create_population(PopulationDef(
                record["name"], record["global"],
                [AttributeDef(**d) for d in record["schema"]],
                record["source"], _pred_load(record["predicate"])))
        elif kind == "sample":
            mech = record["mechanism"]
            self.create_sample(record["name"],
                               [AttributeDef(**d) for d in record["schema"]],
                               _pred_load(record["predicate"]),
                               None if mech is None else Mechanism(**mech))
            self.ingest_rows(record["name"], record["rows"])
            self.set_weights(record["name"], record["weights"])
        elif kind == "marginal":
            self.create_metadata(
                record["owner"], record["attributes"],
                {_key_load(k): v for k, v in record["cells"]},
                {a: NumericBinning(*vals) for a, vals in record["binnings"].items()},
                record["name"])
        elif kind == "aux":
            self.create_aux_table(record["name"],
                                  [AttributeDef(**d) for d in record["schema"]])
            self.ingest_rows(record["name"], record["rows"])
        else:
            raise FormatVersionMismatchError(f"unknown record kind {kind!r}")


def _pred_json(pred: Predicate | None):
    return None if pred is None else [
        {"attr": atom.attr, "in": atom.values} if isinstance(atom, InList)
        else {"attr": atom.attr, "op": atom.op, "value": atom.value} for atom in pred.atoms]


def _pred_load(data) -> Predicate | None:
    if data is None:
        return None
    atoms = []
    for item in data:
        if "in" in item:
            atoms.append(InList(item["attr"], tuple(item["in"])))
        else:
            atoms.append(Comparison(item["attr"], item["op"], item["value"]))
    return Predicate(tuple(atoms))


def _key_load(key):
    if isinstance(key, list):
        return tuple(key)
    return key
