"""Statement dispatcher: turns parsed statements into catalog mutations and
query answers. This is the embeddable surface the CLI wraps."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import dialect
from .catalog import (
    AttributeDef,
    Catalog,
    Mechanism,
    PopulationDef,
    build_marginal,
    schema_kinds,
)
from .dialect import (
    CreateAuxTable,
    CreateMetadata,
    CreatePopulation,
    CreateSample,
    Ingest,
    Select,
    Statement,
)
from .errors import (
    ConfigError,
    OpenPopError,
    TypeMismatchError,
    UnknownAttributeError,
    UnknownRelationError,
)
from .executor import (
    ExecOptions,
    QueryAnswer,
    _trained_generator,
    applicable_marginals,
    execute,
)
from .ipf import IpfConfig
from .mswg import TrainConfig
from .util import apply_kv


class Engine:
    """A catalog plus execution options, driven by dialect statements."""

    def __init__(self, seed: int = 0, train_config: TrainConfig | None = None,
                 ipf_config: IpfConfig | None = None, k_samples: int = 10,
                 log=None):
        self.catalog = Catalog(seed=seed)
        self.seed = seed
        self.train_config = train_config or TrainConfig(seed=seed)
        self.ipf_config = ipf_config or IpfConfig()
        self.k_samples = k_samples
        self.log = log or (lambda message: None)
        self._generator_cache: dict = {}
        self._ipf_cache: dict = {}
        self.options = self._make_options()

    def _make_options(self) -> ExecOptions:
        return ExecOptions(
            ipf=self.ipf_config,
            k_samples=self.k_samples,
            train_config=self.train_config,
            rng=np.random.default_rng(self.seed),
            generator_cache=self._generator_cache,
            ipf_cache=self._ipf_cache,
        )

    def set_seed(self, seed: int) -> None:
        self.seed = seed
        self.catalog.seed = seed
        self.train_config = replace(self.train_config, seed=seed)
        self.options = self._make_options()

    def set_config(self, key: str, value: str) -> None:
        """Dotted config keys: train.<field>, ipf.<field>, k_samples."""
        section, _, name = key.partition(".")
        if key == "k_samples":
            self.k_samples = int(value)
        elif section == "train":
            self.train_config = replace(
                self.train_config, **apply_kv(self.train_config, {name: value}))
        elif section == "ipf":
            self.ipf_config = replace(
                self.ipf_config, **apply_kv(self.ipf_config, {name: value}))
        else:
            raise ConfigError(f"unknown config key {key!r}")
        self.options = self._make_options()

    # --- statement execution ---------------------------------------------

    def run_script(self, text: str) -> list[QueryAnswer]:
        answers = []
        for stmt in dialect.parse(text):
            result = self.execute_statement(stmt)
            if result is not None:
                answers.append(result)
        return answers

    def execute_statement(self, stmt: Statement) -> QueryAnswer | None:
        if isinstance(stmt, CreatePopulation):
            self._create_population(stmt)
        elif isinstance(stmt, CreateSample):
            self._create_sample(stmt)
        elif isinstance(stmt, CreateMetadata):
            self._create_metadata(stmt)
        elif isinstance(stmt, CreateAuxTable):
            self.catalog.create_aux_table(
                stmt.name, [AttributeDef(a.name, a.kind) for a in stmt.attrs])
        elif isinstance(stmt, Ingest):
            count = self.catalog.ingest_csv(stmt.target, stmt.path)
            self.log(f"ingested {count} rows into {stmt.target}")
        elif isinstance(stmt, Select):
            return execute(stmt, self.catalog, self.options, log=self.log)
        else:
            raise OpenPopError(f"unsupported statement {stmt!r}")
        return None

    def _schema_from_attrs(self, attrs) -> list[AttributeDef]:
        return [AttributeDef(a.name, a.kind) for a in attrs]

    def _derived_schema(self, core: dialect.SelectCore) -> list[AttributeDef]:
        gp = self.catalog.global_population()
        if core.source != gp.name:
            raise UnknownRelationError(
                f"'{core.source}' is not the global population")
        by_name = {a.name: a for a in gp.schema}
        if core.projection is None:
            names = [a.name for a in gp.schema]
        else:
            names = list(core.projection)
        schema = []
        for name in names:
            if name not in by_name:
                raise UnknownAttributeError(
                    f"attribute '{name}' not in '{gp.name}'")
            attr = by_name[name]
            schema.append(AttributeDef(attr.name, attr.kind, list(attr.domain),
                                       attr.lo, attr.hi))
        return schema

    def _create_population(self, stmt: CreatePopulation) -> None:
        if stmt.is_global:
            self.catalog.create_population(PopulationDef(
                stmt.name, True, self._schema_from_attrs(stmt.attrs)))
            return
        schema = (self._schema_from_attrs(stmt.attrs) if stmt.attrs is not None
                  else self._derived_schema(stmt.core))
        self.catalog.create_population(PopulationDef(
            stmt.name, False, schema, stmt.core.source, stmt.core.predicate))

    def _create_sample(self, stmt: CreateSample) -> None:
        schema = None
        if stmt.attrs is not None:
            schema = self._schema_from_attrs(stmt.attrs)
        elif stmt.core.projection is not None:
            schema = self._derived_schema(stmt.core)
        mechanism = None
        if stmt.mechanism is not None:
            mechanism = Mechanism(stmt.mechanism.kind, stmt.mechanism.percent,
                                  stmt.mechanism.strat_attribute)
        self.catalog.create_sample(stmt.name, schema, stmt.core.predicate,
                                   mechanism)

    def _create_metadata(self, stmt: CreateMetadata) -> None:
        owner = stmt.owner or self.catalog.global_population().name
        if stmt.source not in self.catalog.aux:
            raise UnknownRelationError(
                f"metadata source '{stmt.source}' is not an ingested table")
        aux = self.catalog.aux[stmt.source]
        kinds = schema_kinds(aux.schema)
        for attr in stmt.attributes:
            if attr not in kinds:
                raise UnknownAttributeError(
                    f"attribute '{attr}' not in table '{stmt.source}'")
        if stmt.count_column is None:
            weights = None  # COUNT(*) form: each staged row counts once
        else:
            if stmt.count_column not in kinds:
                raise UnknownAttributeError(
                    f"count column '{stmt.count_column}' not in '{stmt.source}'")
            if kinds[stmt.count_column] != "numeric":
                raise TypeMismatchError(
                    f"count column '{stmt.count_column}' must be numeric")
            weights = aux.columns[stmt.count_column]
        marginal = build_marginal(owner, stmt.attributes, aux, name=stmt.name,
                                  weights=weights)
        self.catalog.create_metadata(owner, marginal.attributes, marginal.cells,
                                     marginal.binnings, name=stmt.name)

    # --- direct operations (REPL meta-commands) ---------------------------

    def force_train(self, sample_name: str):
        """Train (or fetch from the cache) the generator that OPEN queries
        over the global population use with this sample."""
        sample = self.catalog.sample(sample_name)
        marginals, _ = applicable_marginals(
            self.catalog, self.catalog.global_population().name)
        return _trained_generator(sample, marginals, self.options, log=self.log)[0]
