"""Uniform reweighting vs IPF on the flights-style benchmark (reduced scale).

The sample is 95 percent biased toward long flights (E > 200). Queries whose
predicate matches the bias are easy for every method; queries that cut
across it (AVG elapsed time of long-distance flights) stay wrong under
uniform reweighting and are repaired by fitting the published (D, E) pair
marginal.

Writes flights_results.csv to the working directory.
"""

import numpy as np

from openpop_experiments import (
    FLIGHTS_COLUMNS,
    FLIGHTS_QUERIES,
    FlightsLikeSpec,
    emit_csv,
    run_flightslike_experiment,
)

spec = FlightsLikeSpec(population_size=100_000, seed=0)
rows = run_flightslike_experiment(spec, methods=("unif", "ipf"))

by_query = {}
for query, method, pct, _, _ in rows:
    by_query.setdefault(query, {})[method] = pct

print("percent difference vs the population truth:")
print(f"  {'query':6} {'unif':>8} {'ipf':>8}   text")
for label, text in FLIGHTS_QUERIES:
    row = by_query[label]
    short = text.replace("SELECT SEMI-OPEN ", "").replace(" FROM FlightsLike", "")
    print(f"  {label:6} {row['unif']:>7.2f}% {row['ipf']:>7.2f}%   {short}")

numeric = [f"q{i}" for i in range(1, 5)]
print(f"\naverage over the numeric-predicate queries: "
      f"unif {np.mean([by_query[q]['unif'] for q in numeric]):.2f}%  "
      f"ipf {np.mean([by_query[q]['ipf'] for q in numeric]):.2f}%")

emit_csv(FLIGHTS_COLUMNS, rows, "flights_results.csv")
print("wrote flights_results.csv")
