"""Experiment harness over the openpop runtime: synthetic spiral and
flights-style populations, biased samples, random range-query workloads,
error metrics, and CSV output of result rows.

Ground truth for every error metric is brute force over the materialized
synthetic population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from openpop.catalog import (
    AttributeDef,
    Catalog,
    Marginal,
    PopulationDef,
    Relation,
    SampleRelation,
    build_marginal,
)
from openpop.dialect import Visibility, parse_one
from openpop.errors import CatalogIoError, ConfigError
from openpop.executor import ExecOptions, evaluate_aggregates, execute
from openpop.ipf import IpfConfig
from openpop.mswg import TrainConfig, generate, train
from openpop.transport import wasserstein_1d
from openpop.util import csv_text


# --- result rows ----------------------------------------------------------------


SPIRAL_COLUMNS = ("coverage", "method", "mean", "p3", "q1", "median", "q3",
                  "p97", "excluded")
FLIGHTS_COLUMNS = ("query", "method", "pct_diff", "false_negatives", "excluded")


def emit_csv(columns, rows, path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(csv_text(columns, rows))
    except OSError as exc:
        raise CatalogIoError(f"cannot write '{path}': {exc}") from exc


# --- error metric ---------------------------------------------------------------


def percent_difference(estimate: float, truth: float) -> float | None:
    """100 * |estimate - truth| / |truth|; None marks a query excluded from
    averages because the truth is zero while the estimate is not."""
    if truth == 0:
        return 0.0 if estimate == 0 else None
    return 100.0 * abs(estimate - truth) / abs(truth)


# --- spiral population -----------------------------------------------------------


@dataclass
class SpiralSpec:
    population_size: int = 100_000
    sample_size: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not (self.population_size > self.sample_size > 0):
            raise ConfigError("need population_size > sample_size > 0")


@dataclass
class SpiralData:
    population: np.ndarray  # (N, 2)
    sample: np.ndarray      # (n, 2)


def gen_spiral(spec: SpiralSpec) -> SpiralData:
    """Two arms of r = theta, theta uniform in [pi/4, 4 pi], with isotropic
    noise of sigma 0.25; the biased sample includes points with probability
    proportional to theta ** 2, over-covering the outer turns."""
    rng = np.random.default_rng(spec.seed)
    n = spec.population_size
    theta = rng.uniform(0.25 * math.pi, 4.0 * math.pi, n)
    arm = rng.integers(0, 2, n)
    angle = theta + math.pi * arm
    points = np.column_stack([
        theta * np.cos(angle) + rng.normal(0.0, 0.25, n),
        theta * np.sin(angle) + rng.normal(0.0, 0.25, n),
    ])
    # Exponential race: the sample_size smallest exp(1)/w keys form a
    # weighted sample without replacement.
    keys = rng.exponential(1.0, n) / theta ** 2.0
    chosen = np.argsort(keys, kind="stable")[:spec.sample_size]
    return SpiralData(points, points[chosen])


# --- range queries ----------------------------------------------------------------


def gen_range_queries(population: np.ndarray, coverage: float, count: int,
                      seed: int) -> np.ndarray:
    """(count, 4) boxes [lo_x, hi_x, lo_y, hi_y]: each side spans `coverage`
    of that dimension's data range, uniformly placed inside it."""
    if not (0 < coverage <= 1):
        raise ConfigError("coverage must be in (0, 1]")
    rng = np.random.default_rng(seed)
    lo = population.min(axis=0)
    hi = population.max(axis=0)
    span = hi - lo
    side = coverage * span
    slack = span - side
    starts = lo[None, :] + rng.uniform(0.0, 1.0, (count, 2)) * slack[None, :]
    return np.column_stack([starts[:, 0], starts[:, 0] + side[0],
                            starts[:, 1], starts[:, 1] + side[1]])


def box_count(points: np.ndarray, box) -> float:
    inside = ((points[:, 0] >= box[0]) & (points[:, 0] <= box[1])
              & (points[:, 1] >= box[2]) & (points[:, 1] <= box[3]))
    return float(inside.sum())


def w1_to_marginal(values, marginal: Marginal, attr: str) -> float:
    """W1 between an empirical column and a 1-D marginal, in raw units."""
    return wasserstein_1d(marginal.positions(attr), values, marginal.counts)


# --- spiral experiment ----------------------------------------------------------


SPIRAL_SCHEMA = [AttributeDef("x", "numeric"), AttributeDef("y", "numeric")]


def _spiral_columns(points: np.ndarray) -> dict[str, np.ndarray]:
    return {"x": points[:, 0], "y": points[:, 1]}


def spiral_marginals(data: SpiralData) -> list[Marginal]:
    population = Relation(SPIRAL_SCHEMA, _spiral_columns(data.population),
                          np.ones(len(data.population)))
    return [build_marginal("population", (attr,), population) for attr in ("x", "y")]


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
                          trained=None, data: SpiralData | None = None
                          ) -> list[tuple]:
    """One SPIRAL_COLUMNS row per coverage and method. Each method answers
    a box from point sets: unif from the sample alone, mswg from `repeats`
    generated samples. A query's error is the mean over the sets of the
    percent difference between the set's box count, scaled to the
    population, and the population's; a query no set can score is
    excluded."""
    data = data or gen_spiral(spec)
    n_pop = len(data.population)
    point_sets = {"unif": [data.sample], "mswg": []}
    if "mswg" in methods:
        if trained is None:
            trained = train_spiral_generator(data, cfg=train_cfg)
        rng = np.random.default_rng(spec.seed + 1)
        for _ in range(repeats):
            latents = rng.standard_normal((len(data.sample), trained.net.latent_dim))
            points = generate(trained, latents).columns
            point_sets["mswg"].append(np.column_stack([points["x"], points["y"]]))

    rows = []
    for coverage in coverages:
        boxes = gen_range_queries(data.population, coverage, query_count,
                                  spec.seed + 2)
        truths = [box_count(data.population, box) for box in boxes]
        for method in methods:
            per_query = []
            for box, truth in zip(boxes, truths):
                diffs = [percent_difference(n_pop / len(points) * box_count(points, box),
                                            truth) for points in point_sets[method]]
                diffs = [diff for diff in diffs if diff is not None]
                if diffs:
                    per_query.append(float(np.mean(diffs)))
            stats = ((np.mean(per_query), *np.percentile(per_query, [3, 25, 50, 75, 97]))
                     if per_query else [math.nan] * 6)
            rows.append((float(coverage), method, *map(float, stats),
                         len(boxes) - len(per_query)))
    return rows


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
    seed: int = 0


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
    mass to move. The sample holds 5% of the rows and takes 95% of them
    from the long-flight stratum (E > 200), uniformly within each
    stratum."""
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

    n_sample = max(1, int(0.05 * n))
    long_idx = np.flatnonzero(elapsed > 200.0)
    short_idx = np.flatnonzero(elapsed <= 200.0)
    n_long = min(int(round(0.95 * n_sample)), len(long_idx))
    n_short = min(n_sample - n_long, len(short_idx))
    picked = np.concatenate([
        rng.choice(long_idx, size=n_long, replace=False),
        rng.choice(short_idx, size=n_short, replace=False),
    ])
    picked.sort()
    return FlightsLikeData(population, population.take(picked))


def flights_pair_marginals(data: FlightsLikeData) -> list[Marginal]:
    """Joint integer-cell histograms of the population for (C, E), (O, E),
    (I, E) and (D, E), cells in sorted key order."""
    marginals = []
    for a, b in (("C", "E"), ("O", "E"), ("I", "E"), ("D", "E")):
        counts = build_marginal("FlightsLike", (a, b), data.population).cells
        marginals.append(Marginal("FlightsLike", (a, b), dict(sorted(counts.items())),
                                  name=f"FlightsLike_{a}{b}"))
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
        catalog.add_marginal(marginal)
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
                               methods=("unif", "ipf", "mswg")) -> list[tuple]:
    """One FLIGHTS_COLUMNS row per benchmark query and method: the percent
    difference under uniform reweighting, IPF (200 rounds) and the generator
    (k = 10 samples), against brute force over the synthetic population."""
    data = gen_flightslike(spec)
    catalog = flights_catalog(data, spec)
    sample = catalog.sample("FlightsSample")
    unif_weight = spec.population_size / len(sample)
    options = ExecOptions(
        ipf=IpfConfig(max_rounds=200), k_samples=10,
        train_config=TrainConfig(coverage_weight=1e-7, latent_dim=18,
                                 projections=1000, batch_size=500, epochs=3,
                                 layers=(50, 50, 50, 50, 50), seed=spec.seed))

    rows = []
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
                answer = execute(replace(query, visibility=Visibility.OPEN),
                                 catalog, options)
            else:
                raise ConfigError(f"unknown method {method!r}")
            rows.append((label, method, *_answer_error(answer, truth, n_group)))
    return rows
