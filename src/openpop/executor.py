"""Population query evaluation under the three visibility levels.

CLOSED answers straight off the chosen sample; SEMI-OPEN reweights it
(inverse inclusion probability when the mechanism is declared, IPF against
marginals otherwise); OPEN answers over k samples a trained generator
synthesized, kept with it in the generator cache as one stacked relation,
and keeps the groups all k hold.

Every path flows through the same currency, a relation with row weights:
COUNT(*) becomes sum of weights, SUM(a) the weighted sum, AVG(a) their
ratio. One `evaluate_aggregates` pass answers each query, over all k
samples at once on OPEN.
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
    content_key,
    group_codes,
    schema_kinds,
)
from .dialect import Select, Visibility
from .errors import (
    ConfigError,
    EmptySampleError,
    NoMetadataError,
    NoUsableSampleError,
    TypeMismatchError,
    UnknownAttributeError,
    UnknownMechanismNoMetadataError,
)
from .ipf import STALL_WINDOW, IpfConfig, ipf_fit
from .mswg import TrainConfig, fingerprint, generate, train
from .predicate import Predicate, check_types, filter_rows
from .util import csv_text, format_cell

PROVENANCE_CLOSED = "closed"
PROVENANCE_MECHANISM = "semi_open_mechanism"
PROVENANCE_IPF_DIRECT = "semi_open_ipf_direct"
PROVENANCE_IPF_GLOBAL = "semi_open_ipf_global"
PROVENANCE_OPEN = "open"


@dataclass
class QueryAnswer:
    columns: list[str]
    rows: list[tuple]
    provenance: str
    diagnostics: dict = field(default_factory=dict)

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
        return "\n".join(lines + self.warnings())

    def warnings(self) -> list[str]:
        """The `warning:` lines of how this answer's IPF fit fell short, or
        of the groups an OPEN answer dropped."""
        report = self.diagnostics.get("ipf")
        lines = []
        dropped = self.diagnostics.get("dropped_groups")
        if dropped:
            lines.append(f"warning: OPEN dropped {dropped} group"
                         f"{'s' if dropped != 1 else ''} that only some of the "
                         f"{self.diagnostics['k']} generated samples held")
        if report is not None and report.stalled:
            lines.append(f"warning: IPF stopped at round {report.rounds}: the "
                         "marginals cannot all be met on this sample's rows "
                         f"(discrepancies unchanged over {STALL_WINDOW} rounds; "
                         f"max discrepancy {report.max_discrepancy():.3g})")
        elif report is not None and not report.converged:
            lines.append(f"warning: IPF did not converge in {report.rounds} rounds "
                         f"(max discrepancy {report.max_discrepancy():.3g})")
        if report is not None and report.structural_zeros:
            lines.append(f"warning: IPF dropped {sum(report.dropped_mass):g} target "
                         f"mass in {len(report.structural_zeros)} structural-zero "
                         "cells")
        return lines

    def to_csv(self) -> str:
        return csv_text(self.columns, self.rows)


@dataclass
class ExecOptions:
    ipf: IpfConfig = field(default_factory=IpfConfig)
    k_samples: int = 10
    train_config: TrainConfig = field(default_factory=TrainConfig)
    # (sample name, marginal owner) -> (content key, TrainedGenerator,
    # rows n per generated sample, the samples kept, stacked in one
    # relation, sample i at rows [i*n, (i+1)*n))
    generator_cache: dict = field(default_factory=dict)
    # (sample name, marginal owner) -> (content key, weights, IpfReport)
    ipf_cache: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.k_samples < 1:
            raise ConfigError(f"k_samples must be >= 1, got {self.k_samples}")


def applicable_marginals(catalog: Catalog, pop: PopulationDef):
    """The one rule for which marginals describe `pop`, their path, and the
    view whose rows a fit to them covers: its own marginals ("direct", its
    predicate), else the global population's ("global", the whole sample),
    else none."""
    direct = catalog.marginals_for(pop.name)
    if direct:
        return direct, "direct", pop.predicate
    marginals = catalog.marginals_for(catalog.global_population().name)
    if marginals:
        return marginals, "global", None
    return [], None, None


def _reads_marginals(visibility: Visibility, sample: SampleRelation) -> bool:
    """Whether the route for `visibility` reads marginals off `sample`:
    OPEN always, SEMI-OPEN unless the sample declares its mechanism."""
    return (visibility == Visibility.OPEN
            or visibility == Visibility.SEMI_OPEN and sample.mechanism is None)


def _check_metadata(visibility: Visibility, pop: PopulationDef,
                    sample: SampleRelation, path: str | None) -> None:
    """The one error for each route that reads marginals when none apply."""
    if path is not None or not _reads_marginals(visibility, sample):
        return
    if visibility == Visibility.OPEN:
        raise NoMetadataError(f"OPEN query over '{pop.name}' needs marginal metadata")
    raise UnknownMechanismNoMetadataError(
        f"sample '{sample.name}' has no declared mechanism and no marginals "
        "are registered")


def _check_aggregates(query: Select, kinds: dict[str, str]) -> None:
    for agg in query.aggregates():
        if agg.arg is not None and kinds.get(agg.arg) != NUMERIC:
            raise TypeMismatchError(f"{agg.label()} requires a numeric attribute")


def plan(query: Select, catalog: Catalog) -> SampleRelation:
    """Pick the sample and metadata route for a query, once every attribute
    it names is checked against its population's schema, before any work."""
    pop = catalog.population(query.source)
    kinds = schema_kinds(pop.schema)
    if query.predicate:
        check_types(query.predicate, kinds)
    needed = {a.arg for a in query.aggregates() if a.arg is not None}
    needed.update(query.plain_attributes(), query.group_by)
    unknown = sorted(needed - kinds.keys())
    if unknown:
        raise UnknownAttributeError(f"unknown attribute '{unknown[0]}'")
    _check_aggregates(query, kinds)
    # The view's own predicate reads attributes its schema may not project.
    for predicate in (query.predicate, pop.predicate):
        if predicate is not None:
            needed.update(predicate.attributes())
    marginals, path, _ = applicable_marginals(catalog, pop)
    fitted = {attr for marginal in marginals for attr in marginal.attributes}
    candidates = []
    for position, sample in enumerate(catalog.samples.values()):
        names = {a.name for a in sample.schema}
        if needed <= names:
            # Can it answer? A fit or a generator reads every marginal
            # attribute off the sample.
            fits = fitted <= names or not _reads_marginals(query.visibility, sample)
            candidates.append((fits, len(sample), -position, sample))
    if not candidates:
        raise NoUsableSampleError(
            f"no sample covers attributes {sorted(needed)} of '{query.source}'")
    # Samples that can answer first (if none can, `_check_covers` names the
    # marginal), then most rows, ties by declaration order.
    candidates.sort(reverse=True)
    sample = candidates[0][3]
    _check_metadata(query.visibility, pop, sample, path)
    return sample


# --- aggregation over weighted rows -------------------------------------------


def evaluate_aggregates(relation: Relation, query: Select, k: int = 1) -> QueryAnswer:
    """Group/aggregate the weighted rows the WHERE keeps, read by index, each
    group's in ascending order; provenance filled by callers.

    With k > 1, `relation` stacks k samples of n rows each, sample i being
    rows [i*n, (i+1)*n), and one pass answers for all of them: a group is
    kept only if every sample gives it positive weight, and its values are
    each sample's, summed in sample order and divided by k.
    `dropped_groups` counts the groups only some samples held."""
    aggs = query.aggregates()
    _check_aggregates(query, schema_kinds(relation.schema))
    rows = (filter_rows(query.predicate, relation) if query.predicate
            else np.arange(len(relation)))

    if not aggs:
        cols = [i for i in query.items if isinstance(i, str)]
        out_rows = list(zip(*(relation.columns[c][rows].tolist() for c in cols)))
        if query.group_by:
            out_rows = sorted(set(out_rows))
        return QueryAnswer(list(cols), out_rows, "")

    # Segment g*k + i holds group g's rows of sample i; empty ones are skipped.
    n = len(relation) // k
    keys, segments, members_of = [()], [0], [rows]
    if query.group_by:
        by = relation.key_columns(query.group_by)
        parts, ids, _ = group_codes([by[g] for g in query.group_by], rows)
        keys = list(zip(*(np.array(distinct, dtype=object)[codes].tolist()
                          for distinct, codes in parts)))
        if k > 1:
            ids = ids * k + rows // n
        counts = np.bincount(ids)
        segments = np.flatnonzero(counts)
        members_of = np.split(rows[np.argsort(ids, kind="stable")],
                              np.cumsum(counts[segments])[:-1])
        segments = segments.tolist()
    elif k > 1:
        segments = range(k)
        members_of = np.split(rows, np.searchsorted(rows, n * np.arange(1, k)))

    columns = list(query.group_by) + [a.label() for a in aggs]
    held = []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is named below
        for segment, members in zip(segments, members_of):
            w = relation.weights[members]
            total = float(w.sum())
            if total <= 0:
                continue
            values = []
            for agg in aggs:
                if agg.func == "count":
                    values.append(total)
                    continue
                weighted_sum = float(np.dot(w, relation.columns[agg.arg][members]))
                values.append(weighted_sum if agg.func == "sum" else weighted_sum / total)
            for agg, value in zip(aggs, values):
                if not math.isfinite(value):
                    group = ", ".join(f"{g} = {v!r}" for g, v in
                                      zip(query.group_by, keys[segment // k]))
                    raise TypeMismatchError(f"non-finite aggregate value: {agg.label()}"
                                            + (f" in group ({group})" if group else ""))
            held.append((segment, values))
    if k == 1:
        return QueryAnswer(columns, [keys[g] + tuple(values) for g, values in held], "")

    sums = np.zeros((len(keys), len(aggs)))
    held_by = np.zeros(len(keys), dtype=np.int64)  # samples holding each group
    for segment, values in held:
        sums[segment // k] += values
        held_by[segment // k] += 1
    kept = held_by == k
    out_rows = [keys[g] + tuple(values) for g, values in
                zip(np.flatnonzero(kept).tolist(), (sums[kept] / k).tolist())]
    return QueryAnswer(columns, out_rows, "", {
        "dropped_groups": int(np.count_nonzero(held_by)) - len(out_rows)})


def _answer(query: Select, pop: PopulationDef, relation: Relation,
            provenance: str, **diagnostics) -> QueryAnswer:
    """The tail of every route: `query` over the weighted relation inside
    the population's view (its predicate ANDed in front of the WHERE, one
    filter pass), labelled with its provenance and diagnostics. OPEN's
    relation stacks the `k` generated samples its diagnostics name, and
    `evaluate_aggregates` answers over all of them at once."""
    if pop.predicate:
        where = query.predicate.atoms if query.predicate else ()
        query = replace(query, predicate=Predicate(pop.predicate.atoms + where))
    answer = evaluate_aggregates(relation, query, diagnostics.get("k", 1))
    answer.provenance = provenance
    answer.diagnostics.update(diagnostics)
    return answer


# --- visibility levels -----------------------------------------------------------


def execute_closed(query: Select, sample: SampleRelation,
                   catalog: Catalog) -> QueryAnswer:
    """Samples as-is: unit weights, zero false positives."""
    return _answer(query, catalog.population(query.source),
                   sample.reweighted(np.ones(len(sample))), PROVENANCE_CLOSED)


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
    k = np.count_nonzero(marginal.counts > 0)
    n_pop = marginal.total()
    ids, keys = sample.cell_ids(marginal)
    stratum = marginal.targets(len(keys))[ids]
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
    if sample.mechanism is not None:
        return _answer(query, pop, sample.reweighted(
            _mechanism_weights(sample, catalog)), PROVENANCE_MECHANISM)
    marginals, path, scope = applicable_marginals(catalog, pop)
    _check_metadata(Visibility.SEMI_OPEN, pop, sample, path)

    def fit():
        if not scope:
            return ipf_fit(sample, marginals, options.ipf)
        # Fit the rows inside the view; the rest weigh 0 and the view drops them.
        rows = _view_rows(sample, scope, pop.name)
        fitted, report = ipf_fit(sample.take(rows), marginals, options.ipf)
        weights = np.zeros(len(sample))
        weights[rows] = fitted
        return weights, report

    key = content_key(sample, marginals, scope, sorted(vars(options.ipf).items()))
    (weights, report), cache = _cached_fit(options.ipf_cache, sample, marginals,
                                           key, fit)
    return _answer(query, pop, sample.reweighted(weights),
                   PROVENANCE_IPF_DIRECT if path == "direct" else PROVENANCE_IPF_GLOBAL,
                   ipf=report, ipf_cache=cache, metadata_path=path)


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


def _view_rows(sample: SampleRelation, scope: Predicate, population: str) -> np.ndarray:
    """The indices of the sample's rows that `scope`, the view of
    `population`, keeps; a user error if it keeps none of a nonempty sample."""
    rows = filter_rows(scope, sample)
    if len(sample) and not len(rows):
        raise EmptySampleError(
            f"no row of sample '{sample.name}' is in population '{population}'")
    return rows


def _trained_generator(sample: SampleRelation, marginals, options: ExecOptions,
                       k: int = 0, scope: Predicate | None = None,
                       population: str | None = None, log=None):
    """The generator for (sample, scope, marginals, TrainConfig), trained on
    the n sample rows inside `scope`, the view of `population`; n; its first
    `k` generated samples, stacked in one relation kept in its cache slot and
    redrawn whole when a query needs more; and "hit" or "miss". Sample i is
    the i-th latent batch of an rng seeded by the generator's key, generated
    into n rows each weighted to the population total, so the first k
    samples are the same for any k and any history of queries."""
    key = fingerprint(sample, marginals, options.train_config, scope)

    def fit():
        rows = sample.take(_view_rows(sample, scope, population)) if scope else sample
        trained = train(rows, marginals, options.train_config, log=log)
        return trained, len(rows), Relation.from_rows(trained.encoding.schema(), [])

    (trained, n, stacked), cache = _cached_fit(
        options.generator_cache, sample, marginals, key, fit)
    if len(stacked) < k * n:
        rng = np.random.default_rng(int(key, 16))
        blocks = [generate(trained, rng.standard_normal((n, trained.net.latent_dim)))
                  for _ in range(k)]
        stacked.columns = {name: np.concatenate([block.columns[name] for block in blocks])
                           for name in stacked.columns}
        stacked.weights = np.full(k * n, trained.population_total / n)
    if len(stacked) > k * n:
        stacked = stacked.take(slice(0, k * n))
    return trained, n, stacked, cache


def execute_open(query: Select, sample: SampleRelation, catalog: Catalog,
                 options: ExecOptions | None = None, log=None) -> QueryAnswer:
    """Generator-backed answering over the samples kept with the trained
    generator, each weighted to the population total: the first k_samples
    for aggregates, whose answer keeps the groups present in all k and
    averages their values; sample 0 for plain tuples."""
    options = options or ExecOptions()
    pop = catalog.population(query.source)
    marginals, path, scope = applicable_marginals(catalog, pop)
    _check_metadata(Visibility.OPEN, pop, sample, path)
    aggs = query.aggregates()
    k = options.k_samples if aggs else 1
    trained, n, generated, cache = _trained_generator(sample, marginals, options, k,
                                                      scope, pop.name, log=log)
    return _answer(query, pop, generated, PROVENANCE_OPEN,
                   k=k, generated_rows=n, row_weight=trained.population_total / n,
                   materialized=not aggs,
                   generator_params=trained.net.num_params(),
                   generator_cache=cache, metadata_path=path)


def execute(query: Select, catalog: Catalog,
            options: ExecOptions | None = None, log=None) -> QueryAnswer:
    """Plan and run a query at its declared visibility."""
    options = options or ExecOptions()
    sample = plan(query, catalog)
    if query.visibility == Visibility.CLOSED:
        answer = execute_closed(query, sample, catalog)
    elif query.visibility == Visibility.SEMI_OPEN:
        answer = execute_semi_open(query, sample, catalog, options)
    else:
        answer = execute_open(query, sample, catalog, options, log=log)
    answer.diagnostics.setdefault("sample", sample.name)
    return answer
