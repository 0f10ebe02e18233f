"""Iterative proportional fitting as a library call.

Builds a synthetic two-attribute population, draws a heavily biased sample,
and fits the sample weights to the true 1-D marginals. The weighted
group-by counts land far closer to the population than uniform reweighting.
"""

import numpy as np

from openpop import AttributeDef, Marginal, SampleRelation, discrepancy, ipf_fit

rng = np.random.default_rng(42)

# Population: device x plan, independent attributes.
N = 50_000
device = rng.choice(["phone", "tablet", "laptop"], N, p=[0.6, 0.1, 0.3])
plan = rng.choice(["free", "paid"], N, p=[0.7, 0.3])

# Sample: paid users are 8x more likely to respond.
response = np.where(plan == "paid", 8.0, 1.0)
keys = rng.exponential(1.0, N) / response
picked = np.argsort(keys)[:2_000]
rows = [(str(device[i]), str(plan[i])) for i in picked]

schema = [AttributeDef("device", "categorical"), AttributeDef("plan", "categorical")]
sample = SampleRelation.from_rows(schema, rows, name="survey")

marginal_device = Marginal("Users", ("device",), {
    str(value): float(count) for value, count in
    zip(*np.unique(device, return_counts=True))})
marginal_plan = Marginal("Users", ("plan",), {
    str(value): float(count) for value, count in
    zip(*np.unique(plan, return_counts=True))})

weights, fit_report = ipf_fit(sample, [marginal_device, marginal_plan])
print(f"IPF: {fit_report.rounds} rounds, converged={fit_report.converged}, "
      f"max discrepancy={fit_report.max_discrepancy():.2e}")
print(f"fitted marginal residuals: "
      f"device={discrepancy(sample, weights, marginal_device):.2e} "
      f"plan={discrepancy(sample, weights, marginal_plan):.2e}\n")

truth: dict = {}
for d, p in zip(device, plan):
    truth[(str(d), str(p))] = truth.get((str(d), str(p)), 0) + 1

header = f"{'group':24} {'true':>8} {'uniform':>10} {'ipf':>10}"
print(header)
print("-" * len(header))
uniform_weight = N / len(rows)
for key in sorted(truth):
    unif = sum(uniform_weight for row in rows if row == key)
    ipf = sum(w for row, w in zip(rows, weights) if row == key)
    print(f"{str(key):24} {truth[key]:>8} {unif:>10.0f} {ipf:>10.0f}")

unif_err = np.mean([abs(sum(uniform_weight for r in rows if r == k) - c) / c
                    for k, c in truth.items()])
ipf_err = np.mean([abs(sum(w for r, w in zip(rows, weights) if r == k) - c) / c
                   for k, c in truth.items()])
print(f"\nmean relative error: uniform {100 * unif_err:.1f}%  "
      f"ipf {100 * ipf_err:.1f}%")
