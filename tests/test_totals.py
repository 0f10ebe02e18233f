"""COUNT(*) without a predicate equals the declared marginal total, on every
route that reweights or generates against marginals."""

import numpy as np
import pytest

from openpop.catalog import AttributeDef, Catalog, PopulationDef
from openpop.dialect import parse_one
from openpop.executor import ExecOptions, execute
from openpop.mswg import TrainConfig
from openpop.predicate import Comparison, InList, Predicate

# A small net trained for ten short epochs: enough, on the fixed catalogs
# below, to put every generated row inside the derived population's view.
TINY = TrainConfig(epochs=10, layers=(32, 32), batch_size=64, projections=16,
                   learning_rate=1e-2)


def _counts(rows, positions, schema):
    """Marginal cells of `rows` on the attributes at `positions`, ten
    population members per row."""
    cells: dict = {}
    for row in rows:
        parts = tuple(row[p] if schema[p].kind == "categorical" else int(row[p])
                      for p in positions)
        key = parts[0] if len(parts) == 1 else parts
        cells[key] = cells.get(key, 0.0) + 10.0
    return cells


def random_catalog(seed: int) -> Catalog:
    """A global population P with 1-D (and sometimes 2-D) marginals, a derived
    population D over a categorical view with its own FOR marginals whose
    totals agree, and a biased sample that reaches D."""
    rng = np.random.default_rng(seed)
    kinds = ["categorical"] + [str(rng.choice(["categorical", "numeric"]))
                               for _ in range(int(rng.integers(1, 3)))]
    schema = [AttributeDef(f"a{i}", kind) for i, kind in enumerate(kinds)]
    population = [tuple(f"v{rng.integers(3)}" if a.kind == "categorical"
                        else float(rng.integers(0, 5)) for a in schema)
                  for _ in range(300)]
    view = (("v0",), ("v0", "v1"))[int(rng.integers(2))]
    in_view = [row for row in population if row[0] in view]

    catalog = Catalog(seed=seed)
    catalog.create_population(PopulationDef("P", True, schema))
    catalog.create_population(PopulationDef(
        "D", False, [AttributeDef(a.name, a.kind) for a in schema],
        predicate=Predicate((InList("a0", view) if len(view) > 1
                             else Comparison("a0", "=", view[0]),))))
    for i, attr in enumerate(schema):
        catalog.create_metadata("P", (attr.name,), _counts(population, [i], schema))
    if rng.random() < 0.5:
        catalog.create_metadata("P", ("a0", "a1"),
                                _counts(population, [0, 1], schema))
    for i in rng.choice(len(schema), size=int(rng.integers(1, 3)), replace=False):
        catalog.create_metadata("D", (schema[i].name,),
                                _counts(in_view, [int(i)], schema))

    # Rows with a0 = 'v2' are five times likelier to be sampled.
    bias = np.array([5.0 if row[0] == "v2" else 1.0 for row in population])
    picked = rng.choice(len(population), size=40, replace=False,
                        p=bias / bias.sum())
    catalog.create_sample("S")
    catalog.ingest_rows("S", [in_view[0]] + [population[i] for i in picked])
    return catalog


def count(catalog, visibility, population, options=None) -> float:
    query = parse_one(f"SELECT {visibility} COUNT(*) FROM {population}")
    (row,) = execute(query, catalog, options or ExecOptions()).rows
    return row[0]


@pytest.mark.parametrize("seed", range(50))
def test_count_equals_declared_total(seed):
    catalog = random_catalog(seed)
    for population in ("P", "D"):
        total = catalog.marginals_for(population)[0].total()
        assert count(catalog, "SEMI-OPEN", population) == pytest.approx(
            total, rel=1e-9, abs=0)
    options = ExecOptions(train_config=TrainConfig(
        epochs=1, layers=(8,), batch_size=64, projections=4, seed=seed))
    total = catalog.marginals_for("P")[0].total()
    assert count(catalog, "OPEN", "P", options) == pytest.approx(
        total, rel=1e-9, abs=0)


@pytest.mark.parametrize("seed", range(3))
def test_open_count_of_derived_population(seed):
    catalog = random_catalog(seed)
    total = catalog.marginals_for("D")[0].total()
    options = ExecOptions(train_config=TINY)
    assert count(catalog, "OPEN", "D", options) == pytest.approx(total, rel=0.05)
