"""Training the generator on the spiral benchmark (reduced scale).

The population is a noisy two-armed spiral; the sample over-covers the
outer turns. The generator is trained from the sample plus the two 1-D
population marginals only, yet its output matches those marginals far
better than the sample while keeping the spiral's shape, which is what
makes its range-query counts accurate.

Writes spiral_results.csv and spiral_results.svg to the working directory.
"""

import numpy as np

from openpop.bench import (
    SpiralSpec,
    emit_csv,
    emit_svg_boxplot,
    gen_spiral,
    run_spiral_experiment,
    spiral_marginals,
    train_spiral_generator,
    w1_to_marginal,
)
from openpop.mswg import TrainConfig, generate

spec = SpiralSpec(population_size=20_000, sample_size=2_000, seed=0)
data = gen_spiral(spec)
marginals = spiral_marginals(data)

config = TrainConfig(coverage_weight=0.04, latent_dim=2, batch_size=500,
                     epochs=10, layers=(100, 100, 100), seed=0)
print("training the generator (10 epochs)...")
trained = train_spiral_generator(data, marginals, config, log=print)

generated = generate(trained, spec.sample_size, np.random.default_rng(1))
print("\ndistance of each 1-D marginal to the population marginal (W1):")
for column, attr in enumerate(("x", "y")):
    sample_w1 = w1_to_marginal(data.sample[:, column], marginals[column], attr)
    gen_w1 = w1_to_marginal(generated.columns[attr], marginals[column], attr)
    print(f"  {attr}: biased sample {sample_w1:.3f}  ->  generated {gen_w1:.3f}")

print("\nrange-query percent differences (100 queries, 10 generated samples):")
table = run_spiral_experiment(spec, (0.2, 0.4, 0.6, 0.8),
                              trained=trained, data=data)
print("  coverage method   mean     median")
for row in table.rows:
    print(f"  {row[0]:>8} {row[1]:>6} {row[2]:>8.2f}% {row[5]:>8.2f}%")

emit_csv(table, "spiral_results.csv")
emit_svg_boxplot(table, "spiral_results.svg", title="range-query error")
print("\nwrote spiral_results.csv and spiral_results.svg")
