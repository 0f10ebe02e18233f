"""The benchmark's workloads: generated input files, the dialect set-up
script, the statement stream, and an answer check for every statement.

Every workload is one client in a closed loop: the next statement goes to
`Engine.run_script` only after the previous answer has returned. Expected
answers come from numpy over the generated columns and are computed before
anything is timed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from openpop.engine import Engine
from openpop.executor import PROVENANCE_CLOSED, PROVENANCE_IPF_DIRECT, PROVENANCE_OPEN
from openpop.mswg import TrainConfig

from . import datagen

# Largest accepted percent error of a SEMI-OPEN answer against the
# population truth (the mean over its groups): about twice the worst answer
# seen over some 60 seeds on the first benchmarked version of openpop (19%).
SEMI_OPEN_TOLERANCE_PCT = 40.0

# OPEN answers come from a generator trained for a few hundred steps (50 on
# flights_open), so single answers can be far off. A spiral count must lie
# within a factor of the truth, max(got/truth, truth/got) <= the bound, so
# that a zero count fails. A flights average must lie within a percent error
# of the truth: a factor bound cannot hold there, because on some seeds the
# first benchmarked version of openpop answers averages of positive columns
# with negative values (AVG(I) about -7 against a truth of 13.5 on seed 23),
# further off than zero. Over a whole run, the median percent error of the
# OPEN answers must stay below a limit, and so must the share of the truth's
# groups that they leave out (an OPEN answer keeps only the groups present
# in all of its generated samples). On the first benchmarked version of
# openpop, over 40 spiral and 60 flights seeds, the worst were: a factor of
# 15 and an error of 398% (flights seed 23) for one answer, run medians of
# 12.5% and 53%, and 3% and 41% of the groups left out. Each bound is about
# twice that, except the flights run median: 90% stays below the 100% of a
# generator that answers zero.
SPIRAL_OPEN_MAX_RATIO = 30.0
FLIGHTS_OPEN_TOLERANCE_PCT = 800.0
SPIRAL_OPEN_MEDIAN_ERROR_PCT = 25.0
FLIGHTS_OPEN_MEDIAN_ERROR_PCT = 90.0
SPIRAL_OPEN_MISSING_SHARE = 0.1
FLIGHTS_OPEN_MISSING_SHARE = 0.8

# Relative tolerance of a CLOSED aggregate against the numpy brute force;
# only the order of summation differs.
CLOSED_RTOL = 1e-9

ROUTE = {"closed": PROVENANCE_CLOSED, "semi_open": PROVENANCE_IPF_DIRECT,
         "open": PROVENANCE_OPEN}
VISIBILITY = {"closed": "CLOSED", "semi_open": "SEMI-OPEN", "open": "OPEN"}


@dataclass
class Verdict:
    """The outcome of one answer check."""

    failure: str | None = None
    error: float | None = None  # mean percent error over the scored groups
    groups: int = 0             # groups of the population truth
    missing: int = 0            # of those, groups the answer left out


@dataclass
class Step:
    """One timed statement. `check` takes the answers of `run_script` and
    returns a Verdict."""

    kind: str  # "open" | "semi_open" | "closed" | "ingest"
    text: str  # may hold the input directory placeholder DIR
    check: Callable[[list], Verdict]
    rows: int = 0  # sample rows an INGEST step adds


@dataclass
class Plan:
    """A workload. It is pickled to the measured process, so its engine
    factory and answer checks are partials, AnswerChecks and module-level
    functions, not lambdas or closures."""

    engine: Callable[[], Engine]
    files: dict[str, str]          # input file name -> content
    setup: str                     # dialect script that builds the catalog
    first: Step                    # the first query, cold
    stream: list[Step]
    cycle: int                     # steps per balanced round of the stream
    primary: str                   # step kind reported as query_p50_ms
    # When set, the stream runs this many whole rounds per requested second,
    # whatever the speed of the program, and never past its end: its
    # statements change the state that later ones read.
    rounds_per_second: float | None = None
    # Sample rows loaded by set-up; when given, the run ends by checking
    # that CLOSED COUNT(*) equals it plus the rows its INGEST steps added.
    sample_rows: int | None = None
    # Limits over all OPEN answers of a run: median percent error, and share
    # of the truth's groups left out.
    open_median_error_pct: float | None = None
    open_missing_share: float | None = None
    notes: dict = field(default_factory=dict)


DIR = "@DIR@"


def _path(name: str) -> str:
    return f"'{DIR}/{name}'"


# --- answer checks -----------------------------------------------------------


@dataclass(frozen=True)
class AnswerCheck:
    """Checks one query answer: its route, finite aggregates, no group the
    sample lacks, equality with `exact`, and its distance from `truth`
    (percent error within `tolerance_pct`, or every group's ratio within
    `max_ratio`)."""

    kind: str
    n_group: int
    truth: dict | None = None
    tolerance_pct: float | None = None
    max_ratio: float | None = None
    sample_groups: frozenset | None = None
    exact: dict | None = None

    def __call__(self, answers) -> Verdict:
        if len(answers) != 1:
            return Verdict(f"expected one answer, got {len(answers)}")
        answer = answers[0]
        if answer.provenance != ROUTE[self.kind]:
            return Verdict(f"provenance {answer.provenance!r}, expected "
                           f"{ROUTE[self.kind]!r}")
        got = {tuple(row[:self.n_group]): row[self.n_group:] for row in answer.rows}
        if not all(isinstance(v, (int, float)) and math.isfinite(v)
                   for values in got.values() for v in values):
            return Verdict("non-finite aggregate")
        if self.sample_groups is not None and not set(got) <= self.sample_groups:
            return Verdict(f"groups the sample lacks: "
                           f"{sorted(set(got) - self.sample_groups)}")
        if self.exact is not None:
            if set(got) != set(self.exact):
                return Verdict(f"groups {sorted(got)}, brute force {sorted(self.exact)}")
            for key, value in self.exact.items():
                if not math.isclose(got[key][0], value, rel_tol=CLOSED_RTOL):
                    return Verdict(f"group {key}: {got[key][0]!r}, brute force {value!r}")
        if self.truth is None:
            return Verdict()
        scored = {key: got[key][0] for key in self.truth if key in got}
        verdict = Verdict(groups=len(self.truth), missing=len(self.truth) - len(scored))
        if not scored:
            # OPEN keeps only the groups present in all of its generated
            # samples, so it may keep none; the run bounds how often.
            if self.kind != "open":
                verdict.failure = "no group in common with the population truth"
            return verdict
        verdict.error = float(np.mean([100.0 * abs(value - self.truth[key]) / self.truth[key]
                                       for key, value in scored.items()]))
        if self.tolerance_pct is not None and verdict.error > self.tolerance_pct:
            verdict.failure = (f"error {verdict.error:.1f}% above tolerance "
                               f"{self.tolerance_pct}%")
        for key, value in scored.items() if self.max_ratio is not None else ():
            ratio = (max(value / self.truth[key], self.truth[key] / value)
                     if value > 0 else math.inf)
            if ratio > self.max_ratio:
                verdict.failure = (f"group {key}: {value!r} is {ratio:.3g} times off "
                                   f"the truth {self.truth[key]!r}, bound {self.max_ratio}")
        return verdict


def ingest_check(answers) -> Verdict:
    if answers:
        return Verdict(f"INGEST returned {len(answers)} answers")
    return Verdict()


# --- spiral_open ---------------------------------------------------------------

SPIRAL_COVERAGES = (0.2, 0.4, 0.6, 0.8)


def spiral_open(seed: int, population: int = 20_000, sample: int = 2_000,
                boxes_per_coverage: int = 25, epochs: int = 10) -> Plan:
    pop, smp = datagen.gen_spiral(population, sample, seed)
    rng = np.random.default_rng(seed + 1)
    boxes = {c: datagen.gen_boxes(pop, c, boxes_per_coverage, population // 100, rng)
             for c in SPIRAL_COVERAGES}
    stream = []
    for i in range(boxes_per_coverage):
        for c in SPIRAL_COVERAGES:
            box = boxes[c][i]
            truth = {(): float(datagen.box_count(pop, box))}
            stream.append(Step("open", datagen.box_query("OPEN", box),
                               AnswerCheck("open", 0, truth=truth,
                                           max_ratio=SPIRAL_OPEN_MAX_RATIO)))

    def rows(points):
        return "x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in points)

    setup = f"""
CREATE TABLE SpiralPopulation (x DOUBLE, y DOUBLE);
INGEST SpiralPopulation FROM {_path('population.csv')};
CREATE GLOBAL POPULATION Spiral (x DOUBLE, y DOUBLE);
CREATE METADATA Spiral_X AS (SELECT x, COUNT(*) FROM SpiralPopulation GROUP BY x);
CREATE METADATA Spiral_Y AS (SELECT y, COUNT(*) FROM SpiralPopulation GROUP BY y);
CREATE SAMPLE SpiralSample AS (SELECT * FROM Spiral);
INGEST SpiralSample FROM {_path('sample.csv')};
"""
    return Plan(
        engine=functools.partial(Engine, seed=seed,
                                 train_config=TrainConfig(seed=seed, epochs=epochs)),
        files={"population.csv": rows(pop), "sample.csv": rows(smp)},
        setup=setup, first=stream[0], stream=stream,
        cycle=len(SPIRAL_COVERAGES), primary="open",
        open_median_error_pct=SPIRAL_OPEN_MEDIAN_ERROR_PCT,
        open_missing_share=SPIRAL_OPEN_MISSING_SHARE)


# --- flights workloads -----------------------------------------------------------

FLIGHTS_HEADER = "C,O,I,E,D\n"

# The paper's generator configuration for the flights data; one epoch is 50
# steps at the flights_open size.
FLIGHTS_OPEN_EPOCHS = 1

# flights_ingest sends the second half of the sample in INGEST batches of
# this many rows, and runs this many whole rounds (eight batches, each
# followed by a SEMI-OPEN query) per requested second: 4 rounds in 10 s,
# which take about 13 s with the first benchmarked version of openpop on a
# 2-core x86 host, for 32 SEMI-OPEN times per run.
INGEST_BATCH_ROWS = 100
INGEST_ROUNDS_PER_SECOND = 0.4


def _flights_setup() -> str:
    tables = "\n".join(
        f"CREATE TABLE Pair_{a}{b} ({a} {'TEXT' if a == 'C' else 'INT'}, {b} INT, n INT);\n"
        f"INGEST Pair_{a}{b} FROM {_path(f'pair_{a}{b}.csv')};"
        for a, b in datagen.FLIGHTS_PAIRS)
    metadata = "\n".join(
        f"CREATE METADATA FlightsLike_{a}{b} AS (SELECT {a}, {b}, n FROM Pair_{a}{b});"
        for a, b in datagen.FLIGHTS_PAIRS)
    return f"""
{tables}
CREATE GLOBAL POPULATION FlightsLike (C TEXT, O INT, I INT, E INT, D INT);
{metadata}
CREATE SAMPLE FlightsSample AS (SELECT * FROM FlightsLike);
INGEST FlightsSample FROM {_path('sample.csv')};
"""


def _flights_files(data: datagen.Flights, sample_positions) -> dict[str, str]:
    files = {f"pair_{a}{b}.csv": datagen.pair_counts_csv(data, a, b)
             for a, b in datagen.FLIGHTS_PAIRS}
    files["sample.csv"] = FLIGHTS_HEADER + datagen.flights_rows(data, sample_positions)
    return files


def _flights_query_step(kind: str, query: datagen.FlightsQuery, data, truths,
                        sample_positions) -> Step:
    n_group = 1 if query.carriers else 0
    in_sample = query.evaluate(data, sample_positions)
    if kind == "closed":
        check = AnswerCheck(kind, n_group, exact=in_sample)
    elif kind == "semi_open":
        check = AnswerCheck(kind, n_group, truth=truths[query.label],
                            tolerance_pct=SEMI_OPEN_TOLERANCE_PCT,
                            sample_groups=frozenset(in_sample))
    else:
        check = AnswerCheck(kind, n_group, truth=truths[query.label],
                            tolerance_pct=FLIGHTS_OPEN_TOLERANCE_PCT)
    return Step(kind, query.text(VISIBILITY[kind]), check)


def _flights_read_plan(seed: int, population: int, kinds: tuple[str, ...],
                       engine: Callable[[], Engine], **limits) -> Plan:
    """Each of the eight queries at each visibility of `kinds`, in turn; the
    first kind is the one timed as query_p50_ms."""
    data = datagen.gen_flights(population, seed)
    truths = {q.label: q.evaluate(data) for q in datagen.FLIGHTS_QUERIES}
    sample_positions = data.sample_idx
    stream = []
    for query in datagen.FLIGHTS_QUERIES:
        for kind in kinds:
            stream.append(_flights_query_step(kind, query, data, truths,
                                              sample_positions))
    return Plan(engine=engine, files=_flights_files(data, sample_positions),
                setup=_flights_setup(), first=stream[0],
                stream=stream, cycle=len(stream), primary=kinds[0], **limits)


def flights_open(seed: int, population: int = 25_000) -> Plan:
    config = TrainConfig(coverage_weight=1e-7, latent_dim=18, projections=1000,
                         batch_size=500, epochs=FLIGHTS_OPEN_EPOCHS, layers=(50,) * 5,
                         seed=seed)
    return _flights_read_plan(
        seed, population, ("open",),
        functools.partial(Engine, seed=seed, train_config=config),
        open_median_error_pct=FLIGHTS_OPEN_MEDIAN_ERROR_PCT,
        open_missing_share=FLIGHTS_OPEN_MISSING_SHARE)


def flights_semi(seed: int, population: int = 426_411) -> Plan:
    # Interleaved CLOSED queries isolate the predicate and aggregate layers.
    return _flights_read_plan(seed, population, ("semi_open", "closed"),
                              functools.partial(Engine, seed=seed))


def flights_ingest(seed: int, population: int = 426_411) -> Plan:
    data = datagen.gen_flights(population, seed)
    truths = {q.label: q.evaluate(data) for q in datagen.FLIGHTS_QUERIES}
    half = len(data.sample_idx) // 2
    files = _flights_files(data, data.sample_idx[:half])
    later = data.sample_idx[half:]
    batches = np.array_split(later, math.ceil(len(later) / INGEST_BATCH_ROWS))
    queries = datagen.FLIGHTS_QUERIES
    first = _flights_query_step("semi_open", queries[0], data, truths,
                                data.sample_idx[:half])
    stream = []
    loaded = half
    for k, batch in enumerate(batches):
        name = f"batch_{k:03d}.csv"
        files[name] = FLIGHTS_HEADER + datagen.flights_rows(data, batch)
        stream.append(Step("ingest", f"INGEST FlightsSample FROM {_path(name)};",
                           ingest_check, rows=len(batch)))
        loaded += len(batch)
        stream.append(_flights_query_step("semi_open", queries[k % len(queries)],
                                          data, truths, data.sample_idx[:loaded]))
    return Plan(engine=functools.partial(Engine, seed=seed), files=files,
                setup=_flights_setup(), first=first, stream=stream,
                cycle=2 * len(queries), primary="semi_open",
                rounds_per_second=INGEST_ROUNDS_PER_SECOND,
                sample_rows=half, notes={"batches": len(batches)})


WORKLOADS: dict[str, Callable[[int], Plan]] = {
    "spiral_open": spiral_open,
    "flights_open": flights_open,
    "flights_semi": flights_semi,
    "flights_ingest": flights_ingest,
}
