"""Population query evaluation under the three visibility levels.

CLOSED answers straight off the chosen sample; SEMI-OPEN reweights it
(inverse inclusion probability when the mechanism is declared, IPF against
marginals otherwise); OPEN additionally synthesizes tuples with a trained
generator and intersects the groups of several generated samples.

Every path flows through the same currency, a relation with row weights:
COUNT(*) becomes sum of weights, SUM(a) the weighted sum, AVG(a) their
ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import (
    NUMERIC,
    Catalog,
    PopulationDef,
    Relation,
    SampleRelation,
    Schema,
    content_key,
    group_rows,
    schema_kinds,
)
from .dialect import Select, Visibility
from .errors import (
    NoMetadataError,
    NoUsableSampleError,
    TypeMismatchError,
    UnknownMechanismNoMetadataError,
)
from .ipf import IpfConfig, IpfReport, ipf_fit
from .mswg import TrainConfig, TrainedGenerator, fingerprint, generate, train
from .predicate import Predicate, check_types, filter_rows
from .util import csv_text, format_cell

PROVENANCE_CLOSED = "closed"
PROVENANCE_MECHANISM = "semi_open_mechanism"
PROVENANCE_IPF_DIRECT = "semi_open_ipf_direct"
PROVENANCE_IPF_GLOBAL = "semi_open_ipf_global"
PROVENANCE_STORED = "semi_open_stored"
PROVENANCE_OPEN = "open"


@dataclass
class QueryAnswer:
    columns: list[str]
    rows: list[tuple]
    provenance: str
    diagnostics: dict = field(default_factory=dict)

    def group_keys(self, n_group: int) -> set[tuple]:
        return {row[:n_group] for row in self.rows}

    def to_text(self) -> str:
        cells = [[format_cell(v) for v in row] for row in self.rows]
        widths = [max([len(c)] + [len(row[i]) for row in cells])
                  for i, c in enumerate(self.columns)]
        lines = [" | ".join(c.ljust(w) for c, w in zip(self.columns, widths)),
                 "-+-".join("-" * w for w in widths)]
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        lines.append(f"({len(self.rows)} row{'s' if len(self.rows) != 1 else ''}, "
                     f"{self.provenance})")
        report = self.diagnostics.get("ipf")
        if report is not None and not report.converged:
            lines.append(f"warning: IPF did not converge in {report.rounds} rounds "
                         f"(max discrepancy {report.max_discrepancy():.3g})")
        if report is not None and report.structural_zeros:
            lines.append(f"warning: IPF dropped {sum(report.dropped_mass):g} target "
                         f"mass in {len(report.structural_zeros)} structural-zero "
                         "cells")
        return "\n".join(lines)

    def to_csv(self) -> str:
        return csv_text(self.columns, self.rows)


@dataclass
class ExecOptions:
    ipf: IpfConfig = field(default_factory=IpfConfig)
    use_ipf: bool = True
    k_samples: int = 10
    train_config: TrainConfig = field(default_factory=TrainConfig)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    # (sample name, marginal owner) -> (content key, TrainedGenerator)
    generator_cache: dict = field(default_factory=dict)
    # (sample name, marginal owner) -> (content key, weights, IpfReport)
    ipf_cache: dict = field(default_factory=dict)


@dataclass
class Plan:
    sample_name: str
    metadata_path: str | None   # "direct" | "global" | None


def applicable_marginals(catalog: Catalog, population: str):
    """The one rule for which marginals describe a population: its own
    ("direct"), else the global population's ("global"), else none."""
    direct = catalog.marginals_for(population)
    if direct:
        return direct, "direct"
    gp = catalog.global_population()
    if gp.name != population and catalog.marginals_for(gp.name):
        return catalog.marginals_for(gp.name), "global"
    return [], None


def _query_attributes(query: Select, pop: PopulationDef) -> set[str]:
    needed = set(query.plain_attributes())
    needed.update(a.arg for a in query.aggregates() if a.arg is not None)
    if query.predicate is not None:
        needed.update(query.predicate.attributes())
    needed.update(query.group_by)
    if pop.predicate is not None:
        needed.update(pop.predicate.attributes())
    return needed


def plan(query: Select, catalog: Catalog) -> Plan:
    """Pick the sample and metadata route for a query."""
    pop = catalog.population(query.source)
    if query.predicate:
        check_types(query.predicate, schema_kinds(pop.schema))
    needed = _query_attributes(query, pop)
    candidates = []
    for position, sample in enumerate(catalog.samples.values()):
        names = {a.name for a in sample.schema}
        if needed <= names:
            candidates.append((len(sample), -position, sample.name))
    if not candidates:
        raise NoUsableSampleError(
            f"no sample covers attributes {sorted(needed)} of '{query.source}'")
    candidates.sort(reverse=True)  # most rows, ties by declaration order
    sample_name = candidates[0][2]

    _, metadata_path = applicable_marginals(catalog, pop.name)
    sample = catalog.sample(sample_name)
    if query.visibility == Visibility.OPEN and metadata_path is None:
        raise NoMetadataError(
            f"OPEN query over '{pop.name}' needs marginal metadata")
    if (query.visibility == Visibility.SEMI_OPEN and sample.mechanism is None
            and metadata_path is None):
        raise UnknownMechanismNoMetadataError(
            f"sample '{sample_name}' has no declared mechanism and no "
            "marginals are registered")
    return Plan(sample_name, metadata_path)


# --- aggregation over weighted rows -------------------------------------------


def _check_aggregate_args(query: Select, schema: Schema) -> None:
    kinds = schema_kinds(schema)
    for agg in query.aggregates():
        if agg.arg is not None and kinds.get(agg.arg) != NUMERIC:
            raise TypeMismatchError(
                f"{agg.label()} requires a numeric attribute")


def _filtered(relation: Relation, predicate: Predicate | None) -> Relation:
    if not predicate:
        return relation
    return relation.take(filter_rows(predicate, relation))


def evaluate_aggregates(relation: Relation, query: Select) -> QueryAnswer:
    """Group/aggregate filtered weighted rows; provenance filled by callers."""
    _check_aggregate_args(query, relation.schema)
    data = _filtered(relation, query.predicate)
    aggs = query.aggregates()

    if not aggs:
        cols = [i for i in query.items if isinstance(i, str)]
        rows = list(zip(*(data.columns[c].tolist() for c in cols)))
        if query.group_by:
            rows = sorted(set(rows))
        return QueryAnswer(list(cols), rows, "")

    keys, group_ids, _ = group_rows([data.columns[g] for g in query.group_by],
                                    len(data))
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


def _view(catalog: Catalog, pop_name: str, relation: Relation) -> Relation:
    return _filtered(relation, catalog.population(pop_name).predicate)


# --- visibility levels -----------------------------------------------------------


def execute_closed(query: Select, sample: SampleRelation,
                   catalog: Catalog) -> QueryAnswer:
    """Samples as-is: unit weights, zero false positives."""
    weighted = replace(sample, weights=np.ones(len(sample)))
    answer = evaluate_aggregates(_view(catalog, query.source, weighted), query)
    answer.provenance = PROVENANCE_CLOSED
    return answer


def _mechanism_weights(sample: SampleRelation, catalog: Catalog) -> np.ndarray:
    mech = sample.mechanism
    if mech.kind == "uniform":
        return np.full(len(sample), 100.0 / mech.percent)
    # Stratified: inclusion probability needs stratum sizes, which only a
    # 1-D marginal on the stratification attribute can supply.
    gp = catalog.global_population()
    marginal = next(
        (m for m in catalog.marginals_for(gp.name)
         if m.attributes == (mech.strat_attribute,)), None)
    if marginal is None:
        raise NoMetadataError(
            f"stratified mechanism on '{mech.strat_attribute}' requires a 1-D "
            "marginal on that attribute to recover stratum sizes")
    k = sum(1 for v in marginal.cells.values() if v > 0)
    n_pop = marginal.total()
    ids, keys = marginal.cell_index(sample.columns)
    sizes = np.array([float(marginal.cells.get(key, 0.0)) for key in keys])
    stratum = sizes[ids]
    empty = np.flatnonzero(stratum <= 0)
    if len(empty):
        raise NoMetadataError(f"sample tuple falls in stratum "
                              f"{keys[ids[empty[0]]]!r} with no marginal mass")
    inclusion = (mech.percent / 100.0) * n_pop / (k * stratum)
    return 1.0 / inclusion


def execute_semi_open(query: Select, sample: SampleRelation, catalog: Catalog,
                      options: ExecOptions | None = None) -> QueryAnswer:
    """Reweighted sample: known mechanism inverts the inclusion probability,
    otherwise IPF against query-population or global marginals."""
    options = options or ExecOptions()
    pop = catalog.population(query.source)
    report: IpfReport | None = None

    if sample.mechanism is not None:
        weighted = replace(sample, weights=_mechanism_weights(sample, catalog))
        weighted = _view(catalog, pop.name, weighted)
        provenance = PROVENANCE_MECHANISM
    elif not options.use_ipf:
        weighted = _view(catalog, pop.name, sample)
        provenance = PROVENANCE_STORED
    else:
        marginals, path = applicable_marginals(catalog, pop.name)
        if path is None:
            raise UnknownMechanismNoMetadataError(
                f"no marginals for '{pop.name}' or the global population")
        # Direct marginals describe the population's view, so fit its rows;
        # global ones describe everything, so fit the whole sample.
        base = _view(catalog, pop.name, sample) if path == "direct" else sample
        fitted, report, cache = _fitted_weights(base, marginals, options)
        weighted = _view(catalog, pop.name, replace(base, weights=fitted))
        provenance = (PROVENANCE_IPF_DIRECT if path == "direct"
                      else PROVENANCE_IPF_GLOBAL)

    answer = evaluate_aggregates(weighted, query)
    answer.provenance = provenance
    if report is not None:
        answer.diagnostics["ipf"] = report
        answer.diagnostics["ipf_cache"] = cache
    return answer


def _check_covers(sample: SampleRelation, marginals) -> None:
    """Fitting and training read every marginal attribute off the sample."""
    names = {a.name for a in sample.schema}
    for marginal in marginals:
        for attr in marginal.attributes:
            if attr not in names:
                label = f"'{marginal.name}' " if marginal.name else ""
                raise NoUsableSampleError(
                    f"sample '{sample.name}' lacks attribute '{attr}' of marginal "
                    f"{label}over {marginal.attributes} on '{marginal.owner}'")


def _cached_fit(cache: dict, relation: SampleRelation, marginals, key: str, fit):
    """What `fit()` returns for `relation` under `marginals`, and "hit" or
    "miss". `cache` holds one (key, *result) slot per (sample, marginal
    owner): a hit returns the slot's result, a miss calls `fit` and replaces
    the slot, so memory stays flat however often the inputs change."""
    _check_covers(relation, marginals)
    # With no marginals there is no owner, and `fit()` raises the user error.
    slot = (relation.name, marginals[0].owner if marginals else None)
    cached = cache.get(slot)
    if cached is not None and cached[0] == key:
        return cached[1:], "hit"
    result = fit()
    cache[slot] = (key, *result)
    return result, "miss"


def _fitted_weights(base: SampleRelation, marginals, options: ExecOptions):
    """Read-only IPF weights and report for `base`, and "hit" or "miss"; they
    depend only on the relation, the marginals and the IpfConfig."""
    key = content_key(base, marginals, sorted(vars(options.ipf).items()))
    (weights, report), cache = _cached_fit(
        options.ipf_cache, base, marginals, key,
        lambda: ipf_fit(base, marginals, options.ipf))
    weights.setflags(write=False)
    return weights, report, cache


def _trained_generator(sample: SampleRelation, marginals, options: ExecOptions,
                       log=None) -> tuple[TrainedGenerator, str]:
    """The generator for (sample, marginals, TrainConfig), and "hit" or
    "miss"."""
    (trained,), cache = _cached_fit(
        options.generator_cache, sample, marginals,
        fingerprint(sample, marginals, options.train_config),
        lambda: (train(sample, marginals, options.train_config, log=log),))
    return trained, cache


def execute_open(query: Select, sample: SampleRelation, catalog: Catalog,
                 options: ExecOptions | None = None, log=None) -> QueryAnswer:
    """Generator-backed answering: k generated samples, each uniformly
    weighted to the population total; the answer keeps the groups present
    in all k and averages their aggregate values."""
    options = options or ExecOptions()
    pop = catalog.population(query.source)
    marginals, path = applicable_marginals(catalog, pop.name)
    if path is None:
        raise NoMetadataError(f"OPEN query over '{pop.name}' needs marginals")

    # Direct marginals describe the population's view, so train on its rows.
    base = _view(catalog, pop.name, sample) if path == "direct" else sample
    trained, cache = _trained_generator(base, marginals, options, log=log)
    n_generated = max(1, len(base))
    weight = trained.population_total / n_generated
    aggs = query.aggregates()
    # Plain tuples come from a single generated sample.
    k = max(1, options.k_samples) if aggs else 1
    answers = []
    for _ in range(k):
        generated = generate(trained, n_generated, options.rng)
        weighted = replace(generated, weights=np.full(len(generated), weight))
        answers.append(evaluate_aggregates(_view(catalog, pop.name, weighted), query))

    diagnostics = {
        "k": k,
        "generated_rows": n_generated,
        "row_weight": weight,
        "materialized": not aggs,
        "generator_params": trained.net.num_params(),
        "generator_cache": cache,
    }
    if not aggs:
        answers[0].provenance = PROVENANCE_OPEN
        answers[0].diagnostics.update(diagnostics)
        return answers[0]

    columns = list(query.group_by) + [a.label() for a in aggs]
    out_rows = intersect_group_answers(answers, len(query.group_by))
    return QueryAnswer(columns, out_rows, PROVENANCE_OPEN, diagnostics)


def intersect_group_answers(answers: list[QueryAnswer], n_group: int) -> list[tuple]:
    """Keep only group keys present in every answer; average their aggregates."""
    common = set(answers[0].group_keys(n_group))
    for answer in answers[1:]:
        common &= answer.group_keys(n_group)
    sums: dict[tuple, np.ndarray] = {}
    for answer in answers:
        for row in answer.rows:
            key = row[:n_group]
            if key in common:
                values = np.asarray(row[n_group:], dtype=float)
                sums[key] = sums.get(key, 0.0) + values
    k = len(answers)
    return [key + tuple(float(v) / k for v in sums[key]) for key in sorted(sums)]


def execute(query: Select, catalog: Catalog,
            options: ExecOptions | None = None, log=None) -> QueryAnswer:
    """Plan and run a query at its declared visibility."""
    options = options or ExecOptions()
    chosen = plan(query, catalog)
    sample = catalog.sample(chosen.sample_name)
    if query.visibility == Visibility.CLOSED:
        answer = execute_closed(query, sample, catalog)
    elif query.visibility == Visibility.SEMI_OPEN:
        answer = execute_semi_open(query, sample, catalog, options)
    else:
        answer = execute_open(query, sample, catalog, options, log=log)
    answer.diagnostics.setdefault("sample", chosen.sample_name)
    if chosen.metadata_path is not None:
        answer.diagnostics.setdefault("metadata_path", chosen.metadata_path)
    return answer
