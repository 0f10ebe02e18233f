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
    Schema,
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
    """A catalog plus execution options, driven by dialect statements. The
    settings (TrainConfig, IpfConfig, k_samples) live in `options` only."""

    def __init__(self, seed: int = 0, train_config: TrainConfig | None = None,
                 ipf_config: IpfConfig | None = None, k_samples: int = 10,
                 log=None):
        self.catalog = Catalog(seed=seed)
        self.seed = seed
        self.log = log or (lambda message: None)
        self.options = ExecOptions(
            ipf=ipf_config or IpfConfig(), k_samples=k_samples,
            train_config=train_config or TrainConfig(seed=seed),
            rng=np.random.default_rng(seed))

    def set_seed(self, seed: int) -> None:
        self.seed = seed
        self.catalog.seed = seed
        self._set_options(train_config=replace(self.options.train_config, seed=seed))

    def set_config(self, key: str, value: str) -> None:
        """Dotted config keys: train.<field>, ipf.<field>, k_samples. The
        seed has one home, `set_seed`, so `train.seed` is rejected."""
        if key == "train.seed":
            raise ConfigError("train.seed is not a config key; set the seed "
                              "with 'seed' (\\seed in the REPL)")
        section, _, name = key.partition(".")
        option = {"train": "train_config", "ipf": "ipf"}.get(section)
        if key == "k_samples":
            self._set_options(k_samples=int(value))
        elif option is not None:
            config = getattr(self.options, option)
            self._set_options(**{option: replace(
                config, **apply_kv(config, {name: value}))})
        else:
            raise ConfigError(f"unknown config key {key!r}")

    def _set_options(self, **changes) -> None:
        """New options with `changes`, the same caches, and the OPEN rng
        restarted from the seed."""
        self.options = replace(self.options, rng=np.random.default_rng(self.seed),
                               **changes)

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
            self.catalog.create_aux_table(stmt.name, _declared(stmt.attrs))
        elif isinstance(stmt, Ingest):
            count = self.catalog.ingest_csv(stmt.target, stmt.path)
            self.log(f"ingested {count} rows into {stmt.target}")
        elif isinstance(stmt, Select):
            return execute(stmt, self.catalog, self.options, log=self.log)
        else:
            raise OpenPopError(f"unsupported statement {stmt!r}")
        return None

    def _derived_schema(self, stmt: CreatePopulation | CreateSample) -> Schema:
        """The declared attributes, else copies of the global ones the
        SELECT projects; its FROM must name the global population."""
        source = stmt.core.source
        if source != self.catalog.global_population().name:
            raise UnknownRelationError(f"'{source}' is not the global population")
        if stmt.attrs is not None:
            return _declared(stmt.attrs)
        return self.catalog.global_schema(stmt.core.projection)

    def _create_population(self, stmt: CreatePopulation) -> None:
        if stmt.is_global:
            defn = PopulationDef(stmt.name, True, _declared(stmt.attrs))
        else:
            defn = PopulationDef(stmt.name, False, self._derived_schema(stmt),
                                 stmt.core.source, stmt.core.predicate)
        self.catalog.create_population(defn)

    def _create_sample(self, stmt: CreateSample) -> None:
        schema = self._derived_schema(stmt)
        spec = stmt.mechanism
        mechanism = (None if spec is None
                     else Mechanism(spec.kind, spec.percent, spec.strat_attribute))
        self.catalog.create_sample(stmt.name, schema, stmt.core.predicate, mechanism)

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


def _declared(attrs) -> Schema:
    """The schema a statement declares: names and kinds, no domains."""
    return [AttributeDef(a.name, a.kind) for a in attrs]
