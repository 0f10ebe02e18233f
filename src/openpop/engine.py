"""Statement dispatcher: turns parsed statements into catalog mutations and
query answers. This is the embeddable surface the CLI wraps."""

from __future__ import annotations

from dataclasses import fields, replace

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
from .mswg import TrainConfig
from .util import parse_setting


class Engine:
    """A catalog plus execution options, driven by dialect statements. The
    settings (TrainConfig, IpfConfig, k_samples) live in `options` only;
    `set_config` changes them. The one seed drives the catalog, the
    generators and the samples each generator keeps."""

    def __init__(self, seed: int = 0, train_config: TrainConfig | None = None,
                 log=None):
        self.log = log or (lambda message: None)
        self.options = ExecOptions(train_config=train_config or TrainConfig())
        self.catalog = Catalog(seed=seed)

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @catalog.setter
    def catalog(self, catalog: Catalog) -> None:
        """Take over `catalog` and its seed, as `set_seed` does."""
        self._catalog = catalog
        self.set_seed(catalog.seed)

    @property
    def seed(self) -> int:
        """The catalog's seed, its one copy; `set_seed` changes it."""
        return self.catalog.seed

    def set_seed(self, seed: int) -> None:
        """Set the catalog's seed; the generators' seed follows it."""
        self.catalog.seed = seed  # checked there, before anything changes
        self.options = replace(self.options, train_config=replace(
            self.options.train_config, seed=seed))

    def set_config(self, key: str, value: str) -> None:
        """Dotted config keys: train.<field>, ipf.<field>, k_samples. The
        seed has one home, `set_seed`, so `train.seed` is rejected."""
        if key == "train.seed":
            raise ConfigError("train.seed is not a config key; set the seed "
                              "with 'seed' (\\seed in the REPL)")
        section, _, name = key.partition(".")
        option = {"train": "train_config", "ipf": "ipf"}.get(section)
        if key == "k_samples":
            self.options = replace(self.options, k_samples=parse_setting(
                key, self.options.k_samples, value))
        elif option is not None:
            config = getattr(self.options, option)
            if name not in {f.name for f in fields(config)}:
                raise ConfigError(f"unknown config key {name!r}")
            self.options = replace(self.options, **{option: replace(
                config, **{name: parse_setting(name, getattr(config, name), value)})})
        else:
            raise ConfigError(f"unknown config key {key!r}")

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
            self.log(f"ingested {count} row{'s' if count != 1 else ''} into {stmt.target}")
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
        self.catalog.add_marginal(build_marginal(owner, stmt.attributes, aux,
                                                 name=stmt.name, weights=weights))

    # --- direct operations (REPL meta-commands) ---------------------------

    def force_train(self, sample_name: str):
        """Train (or fetch from the cache) the generator that OPEN queries
        over the global population use with this sample."""
        sample = self.catalog.sample(sample_name)
        marginals, _, _ = applicable_marginals(
            self.catalog, self.catalog.global_population())
        return _trained_generator(sample, marginals, self.options, log=self.log)[0]


def _declared(attrs) -> Schema:
    """The schema a statement declares: names and kinds, no domains."""
    return [AttributeDef(a.name, a.kind) for a in attrs]
