"""Synthetic experiment harness: spiral and flights-style populations,
biased samples, random range-query workloads, error metrics, and CSV/SVG
result artifacts.

Ground truth for every error metric is brute force over the materialized
synthetic population.
"""

from __future__ import annotations

import csv
import math
import xml.sax.saxutils as saxutils
from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import (
    AttributeDef,
    Catalog,
    Marginal,
    PopulationDef,
    Relation,
    SampleRelation,
    build_marginal,
)
from .dialect import Visibility, parse_one
from .errors import CatalogIoError, ConfigError
from .executor import ExecOptions, evaluate_aggregates, execute
from .ipf import IpfConfig
from .mswg import TrainConfig, generate, train
from .transport import wasserstein_1d
from .util import csv_text


# --- result tables ------------------------------------------------------------


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def select(self, **conditions) -> "ResultTable":
        positions = {name: self.columns.index(name) for name in conditions}
        kept = [row for row in self.rows
                if all(row[positions[k]] == v for k, v in conditions.items())]
        return ResultTable(list(self.columns), kept)


def emit_csv(table: ResultTable, path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(csv_text(table.columns, table.rows))
    except OSError as exc:
        raise CatalogIoError(f"cannot write '{path}': {exc}") from exc


def _parse_cell(cell: str):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def read_csv(path) -> ResultTable:
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            records = [r for r in csv.reader(handle) if r]
    except OSError as exc:
        raise CatalogIoError(f"cannot read '{path}': {exc}") from exc
    if not records:
        return ResultTable([])
    rows = [tuple(_parse_cell(c) for c in record) for record in records[1:]]
    return ResultTable(records[0], rows)


# --- error metric ---------------------------------------------------------------


def percent_difference(estimate: float, truth: float) -> float | None:
    """100 * |estimate - truth| / |truth|; None marks a query excluded from
    averages because the truth is zero while the estimate is not."""
    if truth == 0:
        return 0.0 if estimate == 0 else None
    return 100.0 * abs(estimate - truth) / abs(truth)


def summary_stats(values) -> dict[str, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return {k: math.nan for k in ("mean", "p3", "q1", "median", "q3", "p97")}
    p3, q1, median, q3, p97 = np.percentile(arr, [3, 25, 50, 75, 97])
    return {"mean": float(arr.mean()), "p3": float(p3), "q1": float(q1),
            "median": float(median), "q3": float(q3), "p97": float(p97)}


# --- spiral population -----------------------------------------------------------


@dataclass
class SpiralSpec:
    population_size: int = 100_000
    arms: int = 2
    theta_min: float = 0.25 * math.pi
    theta_max: float = 4.0 * math.pi
    radial_slope: float = 1.0
    noise_sigma: float = 0.25
    bias_exponent: float = 2.0
    sample_size: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not (self.population_size > self.sample_size > 0):
            raise ConfigError("need population_size > sample_size > 0")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.theta_max <= self.theta_min:
            raise ConfigError("need theta_max > theta_min")


@dataclass
class SpiralData:
    population: np.ndarray  # (N, 2)
    sample: np.ndarray      # (n, 2)
    population_theta: np.ndarray
    sample_theta: np.ndarray


def gen_spiral(spec: SpiralSpec) -> SpiralData:
    """Arms of r = slope * theta with isotropic noise; the biased sample
    includes points with probability proportional to theta ** bias_exponent,
    over-covering the outer turns."""
    rng = np.random.default_rng(spec.seed)
    n = spec.population_size
    theta = rng.uniform(spec.theta_min, spec.theta_max, n)
    arm = rng.integers(0, spec.arms, n)
    angle = theta + 2.0 * math.pi * arm / spec.arms
    radius = spec.radial_slope * theta
    points = np.column_stack([
        radius * np.cos(angle) + rng.normal(0.0, spec.noise_sigma, n),
        radius * np.sin(angle) + rng.normal(0.0, spec.noise_sigma, n),
    ])
    weights = theta ** spec.bias_exponent
    # Exponential race: the sample_size smallest exp(1)/w keys form a
    # weighted sample without replacement.
    keys = rng.exponential(1.0, n) / weights
    chosen = np.argsort(keys, kind="stable")[:spec.sample_size]
    return SpiralData(points, points[chosen], theta, theta[chosen])


# --- range queries ----------------------------------------------------------------


@dataclass
class RangeQuerySpec:
    coverage: float
    count: int = 100
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.coverage <= 1):
            raise ConfigError("coverage must be in (0, 1]")
        if self.count < 1:
            raise ConfigError("count must be >= 1")


def gen_range_queries(population: np.ndarray, spec: RangeQuerySpec) -> np.ndarray:
    """(count, 4) boxes [lo_x, hi_x, lo_y, hi_y]: each side spans `coverage`
    of that dimension's data range, uniformly placed inside it."""
    rng = np.random.default_rng(spec.seed)
    lo = population.min(axis=0)
    hi = population.max(axis=0)
    span = hi - lo
    side = spec.coverage * span
    slack = span - side
    starts = lo[None, :] + rng.uniform(0.0, 1.0, (spec.count, 2)) * slack[None, :]
    return np.column_stack([starts[:, 0], starts[:, 0] + side[0],
                            starts[:, 1], starts[:, 1] + side[1]])


def box_count(points: np.ndarray, box, weights=None) -> float:
    inside = ((points[:, 0] >= box[0]) & (points[:, 0] <= box[1])
              & (points[:, 1] >= box[2]) & (points[:, 1] <= box[3]))
    if weights is None:
        return float(inside.sum())
    return float(np.asarray(weights)[inside].sum())


def w1_to_marginal(values, marginal: Marginal, attr: str, weights=None) -> float:
    """W1 between an empirical column and a 1-D marginal, in raw units."""
    positions = np.asarray([marginal.position_of(k, attr) for k in marginal.cells])
    masses = np.asarray([float(v) for v in marginal.cells.values()])
    return wasserstein_1d(positions, values, masses, weights)


# --- spiral experiment ----------------------------------------------------------


SPIRAL_SCHEMA = [AttributeDef("x", "numeric"), AttributeDef("y", "numeric")]


def _spiral_columns(points: np.ndarray) -> dict[str, np.ndarray]:
    return {"x": points[:, 0], "y": points[:, 1]}


def spiral_marginals(data: SpiralData, nbins: int = 64) -> list[Marginal]:
    population = Relation(SPIRAL_SCHEMA, _spiral_columns(data.population),
                          np.ones(len(data.population)))
    return [build_marginal("population", (attr,), population, nbins=nbins)
            for attr in ("x", "y")]


def train_spiral_generator(data: SpiralData, marginals=None,
                           cfg: TrainConfig | None = None, log=None):
    marginals = marginals or spiral_marginals(data)
    sample = SampleRelation(SPIRAL_SCHEMA, _spiral_columns(data.sample),
                            np.ones(len(data.sample)), name="spiral_sample")
    return train(sample, marginals, cfg or TrainConfig(), log=log)


def run_spiral_experiment(spec: SpiralSpec, coverages,
                          methods=("unif", "mswg"), repeats: int = 10,
                          query_count: int = 100,
                          train_cfg: TrainConfig | None = None,
                          trained=None, data: SpiralData | None = None,
                          log=None) -> ResultTable:
    """Per coverage and method, summary stats of the per-query percent
    differences of weighted box counts against the population truth."""
    data = data or gen_spiral(spec)
    n_pop = len(data.population)
    n_sample = len(data.sample)
    unif_weight = n_pop / n_sample

    generated = []
    if "mswg" in methods:
        if trained is None:
            trained = train_spiral_generator(data, cfg=train_cfg, log=log)
        rng = np.random.default_rng(spec.seed + 1)
        for _ in range(repeats):
            points = generate(trained, n_sample, rng).columns
            generated.append(np.column_stack([points["x"], points["y"]]))

    table = ResultTable(["coverage", "method", "mean", "p3", "q1", "median",
                         "q3", "p97", "excluded"])
    for coverage in coverages:
        boxes = gen_range_queries(
            data.population, RangeQuerySpec(coverage, query_count, spec.seed + 2))
        truths = [box_count(data.population, box) for box in boxes]
        per_method: dict[str, list[float]] = {m: [] for m in methods}
        excluded = {m: 0 for m in methods}
        for box, truth in zip(boxes, truths):
            if "unif" in methods:
                estimate = unif_weight * box_count(data.sample, box)
                diff = percent_difference(estimate, truth)
                if diff is None:
                    excluded["unif"] += 1
                else:
                    per_method["unif"].append(diff)
            if "mswg" in methods:
                diffs = []
                for sample_points in generated:
                    estimate = (n_pop / len(sample_points)) * box_count(
                        sample_points, box)
                    diff = percent_difference(estimate, truth)
                    if diff is not None:
                        diffs.append(diff)
                if diffs:
                    per_method["mswg"].append(float(np.mean(diffs)))
                else:
                    excluded["mswg"] += 1
        for method in methods:
            stats = summary_stats(per_method[method])
            table.rows.append((float(coverage), method, stats["mean"],
                               stats["p3"], stats["q1"], stats["median"],
                               stats["q3"], stats["p97"], excluded[method]))
    return table


# --- flights-style population ------------------------------------------------------


CARRIERS = ("WN", "AA", "DL", "UA", "OO", "EV", "B6", "US",
            "MQ", "AS", "NK", "F9", "HA", "VX")

# Typical route length per carrier (miles); the spread is what makes the
# per-carrier group-by answers differ.
CARRIER_MEAN_DISTANCE = (760, 1090, 940, 1210, 520, 480, 1130, 980,
                         450, 920, 990, 860, 630, 1340)


@dataclass
class FlightsLikeSpec:
    population_size: int = 426_411
    bias_threshold: float = 200.0  # long flights: E > threshold
    bias_rate: float = 0.95
    sample_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.bias_rate <= 1):
            raise ConfigError("bias_rate must be in [0, 1]")
        if not (0 < self.sample_fraction < 1):
            raise ConfigError("sample_fraction must be in (0, 1)")


FLIGHTS_SCHEMA = [
    AttributeDef("C", "categorical", domain=list(CARRIERS)),
    AttributeDef("O", "numeric"),
    AttributeDef("I", "numeric"),
    AttributeDef("E", "numeric"),
    AttributeDef("D", "numeric"),
]


@dataclass
class FlightsLikeData:
    population: Relation
    sample: Relation


def gen_flightslike(spec: FlightsLikeSpec) -> FlightsLikeData:
    """Correlated integer attributes: distance D follows a per-carrier
    lognormal on a 25-mile lattice, elapsed time E grows with D on a
    5-minute lattice, taxi times O and I grow mildly with E. The coarse
    lattices keep the pairwise marginals dense enough that reweighting has
    mass to move. The sample takes `bias_rate` of its rows from the
    long-flight stratum (E > threshold), uniformly within each stratum."""
    rng = np.random.default_rng(spec.seed)
    n = spec.population_size
    zipf = 1.0 / np.arange(1, len(CARRIERS) + 1)
    carrier_idx = rng.choice(len(CARRIERS), size=n, p=zipf / zipf.sum())
    mean_d = np.asarray(CARRIER_MEAN_DISTANCE, dtype=float)[carrier_idx]
    distance = np.clip(25 * np.round(rng.lognormal(np.log(mean_d), 0.55) / 25),
                       50, 3000)
    elapsed = np.clip(5 * np.round(
        (0.117 * distance + 30 + rng.normal(0, 12, n)) / 5), 15, None)
    taxi_out = np.clip(np.round(10 + 0.035 * elapsed + rng.normal(0, 4, n)),
                       1, 120)
    taxi_in = np.clip(np.round(4 + 0.012 * elapsed + rng.normal(0, 2.5, n)),
                      1, 60)
    population = Relation(FLIGHTS_SCHEMA, {
        "C": np.asarray(CARRIERS, dtype=object)[carrier_idx],
        "O": taxi_out, "I": taxi_in, "E": elapsed, "D": distance,
    }, np.ones(n))

    n_sample = max(1, int(spec.sample_fraction * n))
    long_idx = np.flatnonzero(elapsed > spec.bias_threshold)
    short_idx = np.flatnonzero(elapsed <= spec.bias_threshold)
    n_long = min(int(round(spec.bias_rate * n_sample)), len(long_idx))
    n_short = min(n_sample - n_long, len(short_idx))
    picked = np.concatenate([
        rng.choice(long_idx, size=n_long, replace=False),
        rng.choice(short_idx, size=n_short, replace=False),
    ])
    picked.sort()
    return FlightsLikeData(population, population.take(picked))


def flights_pair_marginals(data: FlightsLikeData,
                           pairs=(("C", "E"), ("O", "E"), ("I", "E"), ("D", "E")),
                           owner: str = "FlightsLike") -> list[Marginal]:
    """Joint integer-cell histograms of the population for each pair, cells
    in sorted key order."""
    marginals = []
    for a, b in pairs:
        counts = build_marginal(owner, (a, b), data.population).cells
        marginals.append(Marginal(owner, (a, b), dict(sorted(counts.items())),
                                  name=f"{owner}_{a}{b}"))
    return marginals


FLIGHTS_QUERIES = (
    ("q1", "SELECT SEMI-OPEN AVG(D) FROM FlightsLike WHERE E > 200"),
    ("q2", "SELECT SEMI-OPEN AVG(I) FROM FlightsLike WHERE E < 200"),
    ("q3", "SELECT SEMI-OPEN AVG(E) FROM FlightsLike WHERE D > 1000"),
    ("q4", "SELECT SEMI-OPEN AVG(O) FROM FlightsLike WHERE D < 1000"),
    ("q5", "SELECT SEMI-OPEN C, AVG(D) FROM FlightsLike "
           "WHERE E > 200 AND C IN ['WN', 'AA'] GROUP BY C"),
    ("q6", "SELECT SEMI-OPEN C, AVG(I) FROM FlightsLike "
           "WHERE E < 200 AND C IN ['WN', 'AA'] GROUP BY C"),
    ("q7", "SELECT SEMI-OPEN C, AVG(E) FROM FlightsLike "
           "WHERE D > 1000 AND C IN ['WN', 'AA'] GROUP BY C"),
    ("q8", "SELECT SEMI-OPEN C, AVG(O) FROM FlightsLike "
           "WHERE D < 1000 AND C IN ['US', 'F9'] GROUP BY C"),
)


def flights_catalog(data: FlightsLikeData, spec: FlightsLikeSpec) -> Catalog:
    catalog = Catalog(seed=spec.seed)
    schema = [AttributeDef(a.name, a.kind, list(a.domain)) for a in FLIGHTS_SCHEMA]
    catalog.create_population(PopulationDef("FlightsLike", True, schema))
    catalog.create_sample("FlightsSample")
    catalog.ingest_rows("FlightsSample", data.sample.to_rows())
    for marginal in flights_pair_marginals(data):
        catalog.create_metadata(marginal.owner, marginal.attributes,
                                marginal.cells, name=marginal.name)
    return catalog


def _answer_error(answer, truth, n_group: int):
    """Mean percent difference over groups present in both answers; groups
    only in the truth count as false negatives."""
    truth_map = {row[:n_group]: row[n_group:] for row in truth.rows}
    est_map = {row[:n_group]: row[n_group:] for row in answer.rows}
    diffs = []
    excluded = 0
    for key, true_vals in truth_map.items():
        if key not in est_map:
            continue
        for est, tru in zip(est_map[key], true_vals):
            diff = percent_difference(est, tru)
            if diff is None:
                excluded += 1
            else:
                diffs.append(diff)
    false_negatives = len(truth_map) - sum(1 for k in truth_map if k in est_map)
    mean = float(np.mean(diffs)) if diffs else math.nan
    return mean, false_negatives, excluded


def run_flightslike_experiment(spec: FlightsLikeSpec,
                               methods=("unif", "ipf", "mswg"),
                               ipf_cfg: IpfConfig | None = None,
                               train_cfg: TrainConfig | None = None,
                               k_samples: int = 10,
                               data: FlightsLikeData | None = None,
                               log=None) -> ResultTable:
    """Percent differences of the eight benchmark queries under uniform
    reweighting, IPF, and the generator, against brute force over the
    synthetic population."""
    data = data or gen_flightslike(spec)
    catalog = flights_catalog(data, spec)
    sample = catalog.sample("FlightsSample")
    n_pop = spec.population_size
    unif_weight = n_pop / len(sample)

    mswg_cfg = train_cfg or TrainConfig(
        coverage_weight=1e-7, latent_dim=18, projections=1000,
        batch_size=500, epochs=3, layers=(50, 50, 50, 50, 50), seed=spec.seed)
    options = ExecOptions(ipf=ipf_cfg or IpfConfig(max_rounds=200),
                          k_samples=k_samples, train_config=mswg_cfg,
                          rng=np.random.default_rng(spec.seed + 3))

    table = ResultTable(["query", "method", "pct_diff", "false_negatives",
                         "excluded"])
    for label, text in FLIGHTS_QUERIES:
        query = parse_one(text)
        n_group = len(query.group_by)
        truth = evaluate_aggregates(data.population, query)
        for method in methods:
            if method == "unif":
                answer = evaluate_aggregates(
                    replace(sample, weights=np.full(len(sample), unif_weight)), query)
            elif method == "ipf":
                answer = execute(query, catalog, options)
            elif method == "mswg":
                open_query = replace(query, visibility=Visibility.OPEN)
                answer = execute(open_query, catalog, options, log=log)
            else:
                raise ConfigError(f"unknown method {method!r}")
            mean, false_negatives, excluded = _answer_error(answer, truth, n_group)
            table.rows.append((label, method, mean, false_negatives, excluded))
    return table


def summarize_by_method(table: ResultTable, value_column: str = "pct_diff",
                        key_column: str = "method") -> ResultTable:
    """Collapse a long table into summary stats per key (for box plots)."""
    out = ResultTable([key_column, "mean", "p3", "q1", "median", "q3", "p97"])
    keys = []
    for key in table.column(key_column):
        if key not in keys:
            keys.append(key)
    for key in keys:
        sub = table.select(**{key_column: key})
        values = [v for v in sub.column(value_column)
                  if isinstance(v, (int, float)) and math.isfinite(v)]
        stats = summary_stats(values)
        out.rows.append((key, stats["mean"], stats["p3"], stats["q1"],
                         stats["median"], stats["q3"], stats["p97"]))
    return out


# --- SVG box plot -------------------------------------------------------------------


def emit_svg_boxplot(table: ResultTable, path, title: str = "") -> None:
    """Static SVG: one box (q1..q3, median line, p3/p97 whiskers, mean X)
    per table row; rows must carry the summary-stat columns."""
    stat_cols = ("mean", "p3", "q1", "median", "q3", "p97")
    width, height = 640, 400
    margin = 60
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2}" y="20" text-anchor="middle" '
                     f'font-size="14">{saxutils.escape(title)}</text>')
    rows = table.rows
    have_stats = all(c in table.columns for c in stat_cols)
    if rows and have_stats:
        idx = {c: table.columns.index(c) for c in stat_cols}
        label_cols = [i for i, c in enumerate(table.columns)
                      if c not in stat_cols and c != "excluded"]
        values = [v for row in rows for v in (row[idx["p3"]], row[idx["p97"]],
                                              row[idx["mean"]])
                  if isinstance(v, (int, float)) and math.isfinite(v)]
        lo = min(values + [0.0]) if values else 0.0
        hi = max(values) if values else 1.0
        span = (hi - lo) or 1.0

        def y_of(v: float) -> float:
            return height - margin - (v - lo) / span * (height - 2 * margin)

        slot = (width - 2 * margin) / len(rows)
        box_w = min(40.0, slot * 0.5)
        for i, row in enumerate(rows):
            cx = margin + slot * (i + 0.5)
            stats = {c: row[idx[c]] for c in stat_cols}
            if not all(isinstance(v, (int, float)) and math.isfinite(v)
                       for v in stats.values()):
                continue
            color = "#4878a8" if i % 2 == 0 else "#b06040"
            parts.append(f'<line x1="{cx}" y1="{y_of(stats["p3"])}" x2="{cx}" '
                         f'y2="{y_of(stats["p97"])}" stroke="{color}"/>')
            top, bottom = y_of(stats["q3"]), y_of(stats["q1"])
            parts.append(f'<rect x="{cx - box_w / 2}" y="{top}" width="{box_w}" '
                         f'height="{max(bottom - top, 0.5)}" fill="none" '
                         f'stroke="{color}"/>')
            parts.append(f'<line x1="{cx - box_w / 2}" y1="{y_of(stats["median"])}" '
                         f'x2="{cx + box_w / 2}" y2="{y_of(stats["median"])}" '
                         f'stroke="{color}"/>')
            my = y_of(stats["mean"])
            parts.append(f'<path d="M {cx - 4} {my - 4} L {cx + 4} {my + 4} '
                         f'M {cx - 4} {my + 4} L {cx + 4} {my - 4}" '
                         f'stroke="{color}" fill="none"/>')
            label = " ".join(str(row[j]) for j in label_cols[:2])
            parts.append(f'<text x="{cx}" y="{height - margin + 16}" '
                         f'text-anchor="middle" font-size="10">'
                         f'{saxutils.escape(label)}</text>')
        parts.append(f'<line x1="{margin}" y1="{height - margin}" '
                     f'x2="{width - margin}" y2="{height - margin}" stroke="black"/>')
        parts.append(f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
                     f'y2="{height - margin}" stroke="black"/>')
        for frac in (0.0, 0.5, 1.0):
            v = lo + frac * span
            parts.append(f'<text x="{margin - 6}" y="{y_of(v) + 4}" '
                         f'text-anchor="end" font-size="10">{v:.3g}</text>')
    parts.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise CatalogIoError(f"cannot write '{path}': {exc}") from exc
