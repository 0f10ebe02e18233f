"""Catalog of populations, samples, marginal metadata, and auxiliary tables.

The catalog is the persistent state of the engine: one global population,
derived populations (predicate views over it), samples with per-tuple
weights, and 1-/2-attribute marginal histograms of ground-truth population
counts. Persistence is a versioned line-oriented text format (one JSON
object per line after the version tag) chosen for exact float round-trips.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
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

    def extend_domain(self, value: str) -> None:
        if value not in self._domain_set():
            self.domain.append(value)
            self._domain_cache.add(value)

    def _domain_set(self) -> set[str]:
        cache = getattr(self, "_domain_cache", None)
        if cache is None or len(cache) != len(self.domain):
            self._domain_cache = set(self.domain)
        return self._domain_cache


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


@dataclass
class SampleRelation:
    name: str
    schema: Schema
    rows: list[tuple] = field(default_factory=list)
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    predicate: Predicate | None = None
    mechanism: Mechanism | None = None

    def index(self) -> dict[str, int]:
        return schema_index(self.schema)


@dataclass
class AuxRelation:
    """Plain table used for staging data before it feeds samples or metadata."""

    name: str
    schema: Schema
    rows: list[tuple] = field(default_factory=list)

    def index(self) -> dict[str, int]:
        return schema_index(self.schema)


@dataclass(frozen=True)
class NumericBinning:
    """Equi-width binning rule for marginals over unrounded numeric data."""

    lo: float
    hi: float
    nbins: int

    def cell(self, value: float) -> int:
        # Values outside [lo, hi] clamp to the boundary bin.
        if self.hi <= self.lo:
            return 0
        frac = (value - self.lo) / (self.hi - self.lo)
        return min(self.nbins - 1, max(0, int(frac * self.nbins)))

    def midpoint(self, cell: int) -> float:
        width = (self.hi - self.lo) / self.nbins
        return self.lo + (cell + 0.5) * width


@dataclass
class Marginal:
    """A 1- or 2-attribute histogram of ground-truth population counts."""

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

    def cell_of(self, row: tuple, index: dict[str, int]):
        """The (binned) cell key a tuple falls in."""
        parts = []
        for attr in self.attributes:
            value = row[index[attr]]
            binning = self.binnings.get(attr)
            parts.append(binning.cell(value) if binning is not None else value)
        return parts[0] if len(parts) == 1 else tuple(parts)

    def position_of(self, key, attr: str) -> float:
        """Numeric position of a cell key on `attr` (bin midpoint when binned)."""
        binning = self.binnings.get(attr)
        part = key if len(self.attributes) == 1 else key[self.attributes.index(attr)]
        return binning.midpoint(part) if binning is not None else float(part)


def _values_look_integral(values) -> bool:
    return all(float(v) == int(v) for v in values)


def build_marginal(owner, attributes, rows, schema, name=None, nbins=64,
                   weights=None) -> Marginal:
    """Aggregate rows into a marginal, attaching equi-width binning to any
    numeric attribute whose values are not whole numbers."""
    attributes = tuple(attributes)
    index = schema_index(schema)
    kinds = schema_kinds(schema)
    for attr in attributes:
        if attr not in index:
            raise UnknownAttributeError(f"unknown attribute '{attr}'")
    binnings: dict[str, NumericBinning] = {}
    for attr in attributes:
        if kinds[attr] != NUMERIC:
            continue
        col = [row[index[attr]] for row in rows]
        if col and not _values_look_integral(col):
            binnings[attr] = NumericBinning(float(min(col)), float(max(col)), nbins)
    cells: dict = {}
    if weights is None:
        weights = np.ones(len(rows))
    probe = Marginal(owner, attributes, {}, binnings, name)
    for row, w in zip(rows, weights):
        key = probe.cell_of(row, index)
        key = _normalize_cell_key(key, attributes, kinds, binnings)
        cells[key] = cells.get(key, 0.0) + float(w)
    return Marginal(owner, attributes, cells, binnings, name)


def _normalize_cell_key(key, attributes, kinds, binnings):
    parts = key if isinstance(key, tuple) else (key,)
    out = []
    for attr, part in zip(attributes, parts):
        if kinds[attr] == NUMERIC and attr not in binnings:
            part = int(part) if float(part) == int(part) else float(part)
        out.append(part)
    return out[0] if len(out) == 1 else tuple(out)


class Catalog:
    """Mutable engine state with referential-integrity validation."""

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
            gp_kinds = schema_kinds(gp.schema)
            for a in defn.schema:
                if a.name not in gp_kinds or gp_kinds[a.name] != a.kind:
                    raise UnknownAttributeError(
                        f"attribute '{a.name}' not in global population schema")
            if defn.predicate:
                check_types(defn.predicate, gp_kinds)
        self.populations[defn.name] = defn

    def create_sample(self, name: str, schema: Schema | None = None,
                      predicate: Predicate | None = None,
                      mechanism: Mechanism | None = None) -> SampleRelation:
        if name in self._all_names():
            raise DuplicateNameError(f"name '{name}' already in use")
        gp = self.global_population()
        if schema is None:
            schema = [replace(a, domain=list(a.domain)) for a in gp.schema]
        _check_schema(schema)
        gp_kinds = schema_kinds(gp.schema)
        for a in schema:
            if a.name not in gp_kinds or gp_kinds[a.name] != a.kind:
                raise UnknownAttributeError(
                    f"sample attribute '{a.name}' not in global population schema")
        if predicate:
            check_types(predicate, gp_kinds)
        if mechanism is not None and mechanism.kind == "stratified":
            if mechanism.strat_attribute not in gp_kinds:
                raise UnknownAttributeError(
                    f"stratification attribute '{mechanism.strat_attribute}' "
                    "not in global population schema")
        sample = SampleRelation(name, schema, [], np.zeros(0), predicate, mechanism)
        self.samples[name] = sample
        return sample

    def create_aux_table(self, name: str, schema: Schema) -> AuxRelation:
        if name in self._all_names():
            raise DuplicateNameError(f"name '{name}' already in use")
        _check_schema(schema)
        rel = AuxRelation(name, schema)
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
        for key in marginal.cells:
            parts = key if isinstance(key, tuple) else (key,)
            for attr, part in zip(attributes, parts):
                if kinds[attr] == CATEGORICAL:
                    index[attr].extend_domain(part)
        self.marginals.append(marginal)
        return marginal

    def set_weights(self, sample_name: str, weights) -> None:
        """Replace a sample's initial tuple weights (all-ones by default)."""
        sample = self.sample(sample_name)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(sample.rows),):
            raise TypeMismatchError(
                f"expected {len(sample.rows)} weights, got {weights.shape}")
        if np.any(weights < 0):
            raise NegativeCountError("weights must be nonnegative")
        sample.weights = weights

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
        coerced = []
        for lineno, row in enumerate(rows, start=1):
            if len(row) != len(rel.schema):
                raise CsvParseError(
                    f"expected {len(rel.schema)} values, got {len(row)}", lineno)
            coerced.append(tuple(
                self._coerce(attr, raw, lineno) for attr, raw in zip(rel.schema, row)))
        return self._commit(rel, coerced)

    def _commit(self, rel, rows: list[tuple]) -> int:
        """Append fully coerced rows with unit weights, and grow the
        categorical domains they reach: the relation's own and, since sample
        tuples exist in the global population, the global population's."""
        rel.rows.extend(rows)
        schemas = [rel.schema]
        if isinstance(rel, SampleRelation):
            rel.weights = np.concatenate([rel.weights, np.ones(len(rows))])
            schemas.append(self.global_population().schema)
        for schema in schemas:
            attrs = {a.name: a for a in schema}
            for i, attr in enumerate(rel.schema):
                if attr.kind == CATEGORICAL and attr.name in attrs:
                    for value in dict.fromkeys(row[i] for row in rows):
                        attrs[attr.name].extend_domain(value)
        return len(rows)

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
                    cols.append(index[name])
                if len(set(cols)) != len(rel.schema):
                    raise CsvParseError(
                        f"header must name all of {[a.name for a in rel.schema]}", 1)
                rows = []
                for lineno, record in enumerate(reader, start=2):
                    if not record:
                        continue
                    if len(record) != len(cols):
                        raise CsvParseError(
                            f"expected {len(cols)} fields, got {len(record)}", lineno)
                    row = [None] * len(rel.schema)
                    for pos, raw in zip(cols, record):
                        row[pos] = self._coerce(rel.schema[pos], raw, lineno)
                    rows.append(tuple(row))
        except OSError as exc:
            raise CatalogIoError(f"cannot read '{path}': {exc}") from exc
        return self._commit(rel, rows)

    # --- integrity ----------------------------------------------------------

    def validate(self) -> None:
        globals_ = [p for p in self.populations.values() if p.is_global]
        if len(globals_) > 1:
            raise DuplicateNameError("more than one global population")
        for pop in self.populations.values():
            if not pop.is_global:
                if not globals_ or pop.source != globals_[0].name:
                    raise UnknownPopulationError(
                        f"population '{pop.name}' references missing global")
        for sample in self.samples.values():
            if len(sample.weights) != len(sample.rows):
                raise TypeMismatchError(
                    f"sample '{sample.name}' weight/row length mismatch")
            if np.any(sample.weights < 0):
                raise NegativeCountError(f"sample '{sample.name}' has negative weights")
        for marginal in self.marginals:
            if marginal.owner not in self.populations:
                raise UnknownPopulationError(
                    f"marginal over '{marginal.attributes}' references missing "
                    f"population '{marginal.owner}'")

    # --- persistence ----------------------------------------------------------

    def to_jsonable(self) -> list[dict]:
        records: list[dict] = [{"kind": "state", "seed": self.seed}]
        for pop in self.populations.values():
            records.append({
                "kind": "population", "name": pop.name, "global": pop.is_global,
                "source": pop.source, "schema": _schema_json(pop.schema),
                "predicate": _pred_json(pop.predicate),
            })
        for sample in self.samples.values():
            records.append({
                "kind": "sample", "name": sample.name,
                "schema": _schema_json(sample.schema),
                "rows": [list(r) for r in sample.rows],
                "weights": [float(w) for w in sample.weights],
                "predicate": _pred_json(sample.predicate),
                "mechanism": None if sample.mechanism is None else {
                    "kind": sample.mechanism.kind,
                    "percent": sample.mechanism.percent,
                    "strat_attribute": sample.mechanism.strat_attribute,
                },
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
                "kind": "aux", "name": rel.name, "schema": _schema_json(rel.schema),
                "rows": [list(r) for r in rel.rows],
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
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CsvParseError(f"malformed catalog record: {exc}", lineno)
            catalog._restore(record)
        catalog.validate()
        return catalog

    def _restore(self, record: dict) -> None:
        kind = record.get("kind")
        if kind == "state":
            self.seed = record["seed"]
        elif kind == "population":
            self.populations[record["name"]] = PopulationDef(
                record["name"], record["global"], _schema_load(record["schema"]),
                record["source"], _pred_load(record["predicate"]))
        elif kind == "sample":
            mech = record["mechanism"]
            self.samples[record["name"]] = SampleRelation(
                record["name"], _schema_load(record["schema"]),
                [tuple(r) for r in record["rows"]],
                np.asarray(record["weights"], dtype=float),
                _pred_load(record["predicate"]),
                None if mech is None else Mechanism(
                    mech["kind"], mech["percent"], mech["strat_attribute"]))
        elif kind == "marginal":
            self.marginals.append(Marginal(
                record["owner"], tuple(record["attributes"]),
                {_key_load(k): v for k, v in record["cells"]},
                {a: NumericBinning(*vals) for a, vals in record["binnings"].items()},
                record["name"]))
        elif kind == "aux":
            self.aux[record["name"]] = AuxRelation(
                record["name"], _schema_load(record["schema"]),
                [tuple(r) for r in record["rows"]])
        else:
            raise FormatVersionMismatchError(f"unknown record kind {kind!r}")


def _schema_json(schema: Schema) -> list[dict]:
    return [{"name": a.name, "kind": a.kind, "domain": list(a.domain),
             "lo": a.lo, "hi": a.hi} for a in schema]


def _schema_load(data) -> Schema:
    return [AttributeDef(d["name"], d["kind"], list(d["domain"]), d["lo"], d["hi"])
            for d in data]


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
