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
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    CatalogIoError,
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


def schema_index(schema: Schema) -> dict[str, int]:
    return {a.name: i for i, a in enumerate(schema)}


def schema_kinds(schema: Schema) -> dict[str, str]:
    return {a.name: a.kind for a in schema}


def _check_schema(schema: Schema) -> None:
    names = [a.name for a in schema]
    if len(set(names)) != len(names):
        raise DuplicateNameError(f"duplicate attribute names in schema: {names}")
    for a in schema:
        if a.kind not in (NUMERIC, CATEGORICAL):
            raise TypeMismatchError(f"unknown attribute kind '{a.kind}'")


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


def group_rows(columns: list[np.ndarray], n: int):
    """Group n rows by their values in `columns`: (keys, ids, first), where
    keys are the distinct value tuples in sorted order, as plain Python
    values, row r is in group ids[r], and first[g] is group g's first row."""
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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(eq=False)
class Relation:
    """Rows stored as one array per attribute (float64 for numeric, an object
    array of str for categorical) plus one nonnegative weight per row.

    Arrays handed to a relation become read-only, and assigning any field
    drops the memoized `digest`, so the digest always matches the content."""

    schema: Schema
    columns: dict[str, np.ndarray]
    weights: np.ndarray

    def __setattr__(self, name, value):
        if name == "columns":
            kinds = schema_kinds(self.schema)
            value = {col_name: _read_only(np.ascontiguousarray(
                col, dtype=float if kinds[col_name] == NUMERIC else object))
                for col_name, col in value.items()}
        elif name == "weights":
            value = _read_only(np.asarray(value, dtype=float))
        self.__dict__.pop("digest", None)
        super().__setattr__(name, value)

    @cached_property
    def digest(self) -> bytes:
        """sha256 of the row count, attribute names, columns and weights."""
        digest = hashlib.sha256(repr((len(self), [a.name for a in self.schema]))
                                .encode("utf-8"))
        for attr in self.schema:
            col = self.columns[attr.name]
            digest.update(repr(col.tolist()).encode("utf-8") if col.dtype == object
                          else col.tobytes())
        digest.update(self.weights.tobytes())
        return digest.digest()

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


@dataclass(frozen=True)
class NumericBinning:
    """Equi-width binning rule for marginals over unrounded numeric data."""

    lo: float
    hi: float
    nbins: int

    def cells(self, values) -> np.ndarray:
        """Bin ids of `values`; values outside [lo, hi] clamp to the boundary
        bin."""
        values = np.asarray(values, dtype=float)
        if self.hi <= self.lo:
            return np.zeros(len(values), dtype=np.int64)
        frac = (values - self.lo) / (self.hi - self.lo)
        return np.clip(np.floor(frac * self.nbins), 0,
                       self.nbins - 1).astype(np.int64)

    def midpoint(self, cell: int) -> float:
        width = (self.hi - self.lo) / self.nbins
        return self.lo + (cell + 0.5) * width


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
        if not (1 <= len(self.attributes) <= 2):
            raise TooManyAttributesError(
                f"marginals take 1 or 2 attributes, got {len(self.attributes)}")
        if len(set(self.attributes)) != len(self.attributes):
            raise DuplicateNameError("marginal attributes must be distinct")
        for key, count in self.cells.items():
            if count < 0:
                raise NegativeCountError(f"cell {key!r} has negative count {count}")
        if self.cells and self.total() <= 0:
            raise NegativeCountError("marginal total count must be positive")

    def total(self) -> float:
        return float(sum(self.cells.values()))

    @cached_property
    def digest(self) -> bytes:
        """sha256 of the content a fit depends on, cells in their order."""
        return hashlib.sha256(repr((
            self.owner, self.attributes, list(self.cells.items()),
            sorted(self.binnings.items()))).encode("utf-8")).digest()

    def cell_index(self, columns: dict[str, np.ndarray]) -> tuple[np.ndarray, list]:
        """The cell rule, over whole columns: (ids, keys) such that row r
        falls in cell keys[ids[r]]. `keys` lists this marginal's cells in
        order, then the cells only the rows reach, by first appearance.
        Numeric attributes are binned when the marginal has a binning; an
        unbinned whole number keys as an int."""
        cols = [self.binnings[a].cells(columns[a]) if a in self.binnings
                else columns[a] for a in self.attributes]
        found, row_groups, first = group_rows(cols, len(cols[0]))
        keys = list(self.cells)
        ids = {key: i for i, key in enumerate(keys)}
        group_ids = np.empty(len(found), dtype=np.int64)
        for group in np.argsort(first):
            key = tuple(int(v) if isinstance(v, float) and v.is_integer() else v
                        for v in found[group])
            key = key[0] if len(key) == 1 else key
            if key not in ids:
                ids[key] = len(keys)
                keys.append(key)
            group_ids[group] = ids[key]
        return group_ids[row_groups], keys

    def position_of(self, key, attr: str) -> float:
        """Numeric position of a cell key on `attr` (bin midpoint when binned)."""
        binning = self.binnings.get(attr)
        part = key if len(self.attributes) == 1 else key[self.attributes.index(attr)]
        return binning.midpoint(part) if binning is not None else float(part)


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


def build_marginal(owner, attributes, relation: Relation, name=None, nbins=64,
                   weights=None) -> Marginal:
    """Aggregate a relation's rows (unit weights unless given) into a
    marginal, attaching equi-width binning to any numeric attribute whose
    values are not whole numbers."""
    attributes = tuple(attributes)
    kinds = schema_kinds(relation.schema)
    for attr in attributes:
        if attr not in kinds:
            raise UnknownAttributeError(f"unknown attribute '{attr}'")
    binnings: dict[str, NumericBinning] = {}
    for attr in attributes:
        col = relation.columns[attr]
        if (kinds[attr] == NUMERIC and len(col)
                and not np.array_equal(col, np.trunc(col))):
            binnings[attr] = NumericBinning(float(col.min()), float(col.max()), nbins)
    ids, keys = Marginal(owner, attributes, {}, binnings, name).cell_index(
        relation.columns)
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

    def has_global(self) -> bool:
        return any(p.is_global for p in self.populations.values())

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

    def _all_names(self) -> set[str]:
        return (set(self.populations) | set(self.samples) | set(self.aux)
                | {m.name for m in self.marginals if m.name})

    # --- mutations ----------------------------------------------------------

    def create_population(self, defn: PopulationDef) -> None:
        if defn.name in self._all_names():
            raise DuplicateNameError(f"name '{defn.name}' already in use")
        _check_schema(defn.schema)
        if defn.is_global:
            if self.has_global():
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

    def _check_against_global(self, schema: Schema, predicate: Predicate | None,
                              mechanism: Mechanism | None = None) -> None:
        """Every attribute is a global one of the same kind, the predicate
        type-checks against the global schema, and a stratified mechanism
        names a global attribute."""
        gp_kinds = schema_kinds(self.global_population().schema)
        for a in schema:
            if gp_kinds.get(a.name) != a.kind:
                raise UnknownAttributeError(
                    f"attribute '{a.name}' not in global population schema")
        if predicate:
            check_types(predicate, gp_kinds)
        if mechanism is not None and mechanism.kind == "stratified":
            if mechanism.strat_attribute not in gp_kinds:
                raise UnknownAttributeError(
                    f"stratification attribute '{mechanism.strat_attribute}' "
                    "not in global population schema")

    def create_sample(self, name: str, schema: Schema | None = None,
                      predicate: Predicate | None = None,
                      mechanism: Mechanism | None = None) -> SampleRelation:
        if name in self._all_names():
            raise DuplicateNameError(f"name '{name}' already in use")
        if schema is None:
            schema = self.global_schema()
        _check_schema(schema)
        self._check_against_global(schema, predicate, mechanism)
        sample = SampleRelation.from_rows(schema, [], name=name, predicate=predicate,
                                          mechanism=mechanism)
        self.samples[name] = sample
        return sample

    def create_aux_table(self, name: str, schema: Schema) -> AuxRelation:
        if name in self._all_names():
            raise DuplicateNameError(f"name '{name}' already in use")
        _check_schema(schema)
        rel = AuxRelation.from_rows(schema, [], name=name)
        self.aux[name] = rel
        return rel

    def create_metadata(self, owner: str, attributes, cells,
                        binnings: dict[str, NumericBinning] | None = None,
                        name: str | None = None) -> Marginal:
        pop = self.population(owner)
        attributes = tuple(attributes)
        kinds = schema_kinds(pop.schema)
        for attr in attributes:
            if attr not in kinds:
                raise UnknownAttributeError(
                    f"attribute '{attr}' not in schema of population '{owner}'")
        if name and name in self._all_names():
            raise DuplicateNameError(f"name '{name}' already in use")
        marginal = Marginal(owner, attributes, dict(cells), dict(binnings or {}), name)
        # Marginal cell keys extend the owner's categorical active domains, so
        # open-world answers can name values never seen in any sample.
        index = {a.name: a for a in pop.schema}
        keys = [key if isinstance(key, tuple) else (key,) for key in marginal.cells]
        for pos, attr in enumerate(attributes):
            if kinds[attr] == CATEGORICAL:
                index[attr].extend_domain(key[pos] for key in keys)
        self.marginals.append(marginal)
        return marginal

    def set_weights(self, sample_name: str, weights) -> None:
        """Replace a sample's initial tuple weights (all-ones by default)."""
        sample = self.sample(sample_name)
        weights = np.asarray(weights, dtype=float)
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
            if isinstance(raw, (int, float)) and not isinstance(raw, bool):
                value = float(raw)
            else:
                try:
                    value = float(str(raw))
                except ValueError:
                    raise CsvParseError(
                        f"non-numeric value {raw!r} in numeric column "
                        f"'{attr.name}'", line)
            if not math.isfinite(value):
                raise CsvParseError(
                    f"non-finite value {raw!r} in numeric column '{attr.name}'",
                    line)
            return value
        if not isinstance(raw, str):
            raise TypeMismatchError(
                f"expected string for categorical column '{attr.name}', got {raw!r}")
        return raw

    def ingest_rows(self, target: str, rows) -> int:
        rel = self._target_relation(target)
        return self._ingest(rel, enumerate(rows, start=1), range(len(rel.schema)))

    def _ingest(self, rel: Relation, records, positions) -> int:
        """Coerce every (line, row) record, whose i-th field is the attribute
        at schema position positions[i], then commit them all. Any bad record
        raises before the relation or a domain changes."""
        values = [[] for _ in rel.schema]
        fields = [(rel.schema[pos], values[pos]) for pos in positions]
        for lineno, row in records:
            if len(row) != len(fields):
                raise CsvParseError(
                    f"expected {len(fields)} fields, got {len(row)}", lineno)
            for (attr, column), raw in zip(fields, row):
                column.append(self._coerce(attr, raw, lineno))
        return self._commit(rel, values)

    def _commit(self, rel: Relation, values: list[list]) -> int:
        """Append fully coerced per-attribute values with unit weights, and
        grow the categorical domains they reach: the relation's own and,
        since sample tuples exist in the global population, the global
        population's."""
        batch = Relation(rel.schema, {a.name: v for a, v in zip(rel.schema, values)},
                         np.ones(len(values[0]) if values else 0))
        rel.columns = {name: np.concatenate([col, batch.columns[name]])
                       for name, col in rel.columns.items()}
        rel.weights = np.concatenate([rel.weights, batch.weights])
        schemas = [rel.schema]
        if isinstance(rel, SampleRelation):
            schemas.append(self.global_population().schema)
        for schema in schemas:
            attrs = {a.name: a for a in schema}
            for attr, column in zip(rel.schema, values):
                if attr.kind == CATEGORICAL and attr.name in attrs:
                    attrs[attr.name].extend_domain(column)
        return len(batch)

    def ingest_csv(self, target: str, path) -> int:
        rel = self._target_relation(target)
        try:
            with open(path, "r", encoding="utf-8", newline="") as handle:
                reader = csv.reader(handle)
                try:
                    header = next(reader)
                except StopIteration:
                    return 0
                index = schema_index(rel.schema)
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
                # Blank records are skipped; line numbers still count them.
                return self._ingest(rel, ((lineno, record) for lineno, record
                                          in enumerate(reader, start=2) if record),
                                    cols)
        except OSError as exc:
            raise CatalogIoError(f"cannot read '{path}': {exc}") from exc

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
                "rows": [list(r) for r in sample.to_rows()],
                "weights": sample.weights.tolist(),
                "predicate": _pred_json(sample.predicate),
                "mechanism": (None if sample.mechanism is None
                              else asdict(sample.mechanism)),
            })
        for marginal in self.marginals:
            records.append({
                "kind": "marginal", "owner": marginal.owner, "name": marginal.name,
                "attributes": list(marginal.attributes),
                "cells": [[_key_json(k), v] for k, v in marginal.cells.items()],
                "binnings": {a: [b.lo, b.hi, b.nbins]
                             for a, b in marginal.binnings.items()},
            })
        for rel in self.aux.values():
            records.append({
                "kind": "aux", "name": rel.name,
                "schema": [asdict(a) for a in rel.schema],
                "rows": [list(r) for r in rel.to_rows()],
            })
        return records

    def save(self, path) -> None:
        # Write beside the target, then rename: a failed save leaves the old
        # file whole.
        tmp = f"{os.fspath(path)}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(FORMAT_TAG + "\n")
                for record in self.to_jsonable():
                    handle.write(json.dumps(record) + "\n")
            os.replace(tmp, path)
        except OSError as exc:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise CatalogIoError(f"cannot write '{path}': {exc}") from exc

    @classmethod
    def load(cls, path) -> "Catalog":
        try:
            with open(path, "r", encoding="utf-8") as handle:
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
    if pred is None:
        return None
    out = []
    for atom in pred.atoms:
        if isinstance(atom, InList):
            out.append({"attr": atom.attr, "in": list(atom.values)})
        else:
            out.append({"attr": atom.attr, "op": atom.op, "value": atom.value})
    return out


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


def _key_json(key):
    return list(key) if isinstance(key, tuple) else key


def _key_load(key):
    if isinstance(key, list):
        return tuple(key)
    return key
