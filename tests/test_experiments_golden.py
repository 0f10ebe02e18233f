"""The experiment harness reproduces tests/data/experiments_v1.csv byte for
byte: unif-only spiral rows at two coverages, flights unif/ipf rows, and
sha256s of the generators' output for two seeds. None of these runs uses a
matrix product, so the bytes do not depend on the BLAS build.

To rewrite the file (only when a change to the numbers is intended):
    PYTHONPATH=src python tests/test_experiments_golden.py
"""

import hashlib
from pathlib import Path

import numpy as np

from openpop.util import csv_text
from openpop_experiments import (
    FLIGHTS_COLUMNS,
    FLIGHTS_SCHEMA,
    SPIRAL_COLUMNS,
    FlightsLikeSpec,
    SpiralSpec,
    gen_flightslike,
    gen_spiral,
    run_flightslike_experiment,
    run_spiral_experiment,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "experiments_v1.csv"


def _sha256(columns) -> str:
    digest = hashlib.sha256()
    for column in columns:
        if column.dtype == object:
            digest.update("\n".join(column.tolist()).encode("utf-8"))
        else:
            digest.update(np.ascontiguousarray(column, dtype=np.float64).tobytes())
    return digest.hexdigest()


def golden_text() -> str:
    spiral = run_spiral_experiment(
        SpiralSpec(population_size=4000, sample_size=400, seed=0), (0.4, 0.8),
        methods=("unif",))
    flights = run_flightslike_experiment(
        FlightsLikeSpec(population_size=20_000, seed=1), methods=("unif", "ipf"))
    hashes = []
    for seed in (0, 1):
        points = gen_spiral(SpiralSpec(population_size=4000, sample_size=400,
                                       seed=seed))
        hashes.append(("spiral", seed, _sha256([points.population, points.sample])))
        rows = gen_flightslike(FlightsLikeSpec(population_size=20_000, seed=seed))
        hashes.append(("flights", seed, _sha256(
            [relation.columns[attr.name] for relation in (rows.population, rows.sample)
             for attr in FLIGHTS_SCHEMA])))
    return (csv_text(SPIRAL_COLUMNS, spiral)
            + csv_text(FLIGHTS_COLUMNS, flights)
            + csv_text(["generator", "seed", "sha256"], hashes))


def test_experiments_match_golden_bytes():
    assert golden_text().encode("utf-8") == GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.write_bytes(golden_text().encode("utf-8"))
