"""Seeded inputs for the benchmark workloads: populations, biased samples,
pair marginals, query sets and their brute-force truths.

The spiral and flights-like generators are copies of the ones in
`openpop.bench`, kept here so that a change to the program cannot change a
workload. Everything is a function of the seed argument.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# --- spiral ---------------------------------------------------------------------


def gen_spiral(population_size: int, sample_size: int, seed: int):
    """Two arms of r = theta with isotropic noise (sigma 0.25), theta in
    [pi/4, 4 pi]; the sample draws points with probability proportional to
    theta ** 2, over-covering the outer turns. Returns (population, sample),
    both (n, 2) arrays of x, y."""
    rng = np.random.default_rng(seed)
    n = population_size
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
    chosen = np.argsort(keys, kind="stable")[:sample_size]
    return points, points[chosen]


def gen_boxes(population: np.ndarray, coverage: float, count: int,
              min_count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, 4) boxes [lo_x, hi_x, lo_y, hi_y] whose sides span `coverage`
    of each dimension's range, placed uniformly. A box holding fewer than
    `min_count` population points is redrawn, so that every percent error
    has a truth well away from zero."""
    lo = population.min(axis=0)
    span = population.max(axis=0) - lo
    side = coverage * span
    boxes = []
    while len(boxes) < count:
        start = lo + rng.uniform(0.0, 1.0, 2) * (span - side)
        box = np.array([start[0], start[0] + side[0], start[1], start[1] + side[1]])
        if box_count(population, box) >= min_count:
            boxes.append(box)
    return np.asarray(boxes)


def box_count(points: np.ndarray, box) -> int:
    inside = ((points[:, 0] >= box[0]) & (points[:, 0] <= box[1])
              & (points[:, 1] >= box[2]) & (points[:, 1] <= box[3]))
    return int(inside.sum())


def box_query(visibility: str, box) -> str:
    # float() first: numpy 2 reprs scalars as np.float64(...), which the
    # dialect tokenizer rejects.
    lo_x, hi_x, lo_y, hi_y = (repr(float(v)) for v in box)
    return (f"SELECT {visibility} COUNT(*) FROM Spiral WHERE x >= {lo_x} "
            f"AND x <= {hi_x} AND y >= {lo_y} AND y <= {hi_y};")


# --- flights-like ---------------------------------------------------------------

CARRIERS = ("WN", "AA", "DL", "UA", "OO", "EV", "B6", "US",
            "MQ", "AS", "NK", "F9", "HA", "VX")

# Typical route length per carrier (miles); the spread is what makes the
# per-carrier group-by answers differ.
CARRIER_MEAN_DISTANCE = (760, 1090, 940, 1210, 520, 480, 1130, 980,
                         450, 920, 990, 860, 630, 1340)

FLIGHTS_PAIRS = (("C", "E"), ("O", "E"), ("I", "E"), ("D", "E"))

# The sample takes SAMPLE_FRACTION of the population, BIAS_RATE of it from
# the long-flight stratum (elapsed time above BIAS_THRESHOLD minutes).
SAMPLE_FRACTION = 0.05
BIAS_THRESHOLD = 200.0
BIAS_RATE = 0.95


@dataclass
class Flights:
    carrier: np.ndarray          # int codes into CARRIERS
    numeric: dict[str, np.ndarray]  # O, I, E, D as whole-number floats
    sample_idx: np.ndarray       # population positions of the sample, ascending


def gen_flights(population_size: int, seed: int) -> Flights:
    """Distance D follows a per-carrier lognormal on a 25-mile lattice,
    elapsed time E grows with D on a 5-minute lattice, taxi times O and I
    grow mildly with E. The sample takes BIAS_RATE of its rows from the
    long-flight stratum (E > BIAS_THRESHOLD), uniformly within each stratum."""
    rng = np.random.default_rng(seed)
    n = population_size
    zipf = 1.0 / np.arange(1, len(CARRIERS) + 1)
    carrier = rng.choice(len(CARRIERS), size=n, p=zipf / zipf.sum())
    mean_d = np.asarray(CARRIER_MEAN_DISTANCE, dtype=float)[carrier]
    distance = np.clip(25 * np.round(rng.lognormal(np.log(mean_d), 0.55) / 25),
                       50, 3000)
    elapsed = np.clip(5 * np.round(
        (0.117 * distance + 30 + rng.normal(0, 12, n)) / 5), 15, None)
    taxi_out = np.clip(np.round(10 + 0.035 * elapsed + rng.normal(0, 4, n)), 1, 120)
    taxi_in = np.clip(np.round(4 + 0.012 * elapsed + rng.normal(0, 2.5, n)), 1, 60)

    n_sample = max(1, int(SAMPLE_FRACTION * n))
    long_idx = np.flatnonzero(elapsed > BIAS_THRESHOLD)
    short_idx = np.flatnonzero(elapsed <= BIAS_THRESHOLD)
    n_long = min(int(round(BIAS_RATE * n_sample)), len(long_idx))
    n_short = min(n_sample - n_long, len(short_idx))
    picked = np.concatenate([
        rng.choice(long_idx, size=n_long, replace=False),
        rng.choice(short_idx, size=n_short, replace=False),
    ])
    picked.sort()
    return Flights(carrier, {"O": taxi_out, "I": taxi_in, "E": elapsed,
                             "D": distance}, picked)


def flights_rows(data: Flights, positions) -> str:
    """CSV body (no header) of the given population rows, C,O,I,E,D."""
    carriers = np.asarray(CARRIERS)[data.carrier[positions]]
    cols = [data.numeric[a][positions].astype(np.int64) for a in "OIED"]
    return "".join(f"{c},{o},{i},{e},{d}\n"
                   for c, o, i, e, d in zip(carriers, *cols))


def pair_counts_csv(data: Flights, a: str, b: str) -> str:
    """CSV of the population's joint counts over (a, b), header a,b,n."""
    key_a = data.carrier if a == "C" else data.numeric[a].astype(np.int64)
    key_b = data.numeric[b].astype(np.int64)
    packed = key_a.astype(np.int64) * 1_000_000 + key_b
    uniq, counts = np.unique(packed, return_counts=True)
    lines = [f"{a},{b},n\n"]
    for code, count in zip(uniq, counts):
        ka, kb = divmod(int(code), 1_000_000)
        left = CARRIERS[ka] if a == "C" else ka
        lines.append(f"{left},{kb},{int(count)}\n")
    return "".join(lines)


_OPS = {">": operator.gt, "<": operator.lt}


@dataclass(frozen=True)
class FlightsQuery:
    """AVG(agg) WHERE attr op value [AND C IN carriers GROUP BY C]."""

    label: str
    agg: str
    attr: str
    op: str
    value: int
    carriers: tuple[str, ...] = ()

    def text(self, visibility: str) -> str:
        where = f"{self.attr} {self.op} {self.value}"
        if not self.carriers:
            return (f"SELECT {visibility} AVG({self.agg}) FROM FlightsLike "
                    f"WHERE {where};")
        listed = ", ".join(f"'{c}'" for c in self.carriers)
        return (f"SELECT {visibility} C, AVG({self.agg}) FROM FlightsLike "
                f"WHERE {where} AND C IN [{listed}] GROUP BY C;")

    def mask(self, data: Flights, positions=slice(None)) -> np.ndarray:
        keep = _OPS[self.op](data.numeric[self.attr][positions], self.value)
        if self.carriers:
            codes = [CARRIERS.index(c) for c in self.carriers]
            keep &= np.isin(data.carrier[positions], codes)
        return keep

    def evaluate(self, data: Flights, positions=slice(None)) -> dict[tuple, float]:
        """Brute-force answer over the given rows: group key -> AVG."""
        keep = self.mask(data, positions)
        values = data.numeric[self.agg][positions][keep]
        if not self.carriers:
            return {(): float(values.mean())} if values.size else {}
        carriers = data.carrier[positions][keep]
        return {(CARRIERS[code],): float(values[carriers == code].mean())
                for code in np.unique(carriers)}


# The eight flights benchmark queries of the paper.
FLIGHTS_QUERIES = (
    FlightsQuery("q1", "D", "E", ">", 200),
    FlightsQuery("q2", "I", "E", "<", 200),
    FlightsQuery("q3", "E", "D", ">", 1000),
    FlightsQuery("q4", "O", "D", "<", 1000),
    FlightsQuery("q5", "D", "E", ">", 200, ("WN", "AA")),
    FlightsQuery("q6", "I", "E", "<", 200, ("WN", "AA")),
    FlightsQuery("q7", "E", "D", ">", 1000, ("WN", "AA")),
    FlightsQuery("q8", "O", "D", "<", 1000, ("US", "F9")),
)
