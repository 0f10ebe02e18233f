"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test records a [PASS]/[FAIL] line that conftest prints in the terminal
summary of any pytest run that touches this module.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from openpop.bench import (
    FlightsLikeSpec,
    SpiralSpec,
    emit_csv,
    gen_spiral,
    run_flightslike_experiment,
    run_spiral_experiment,
    spiral_marginals,
    train_spiral_generator,
    w1_to_marginal,
)
from openpop.catalog import (
    AttributeDef,
    Catalog,
    Marginal,
    Mechanism,
    PopulationDef,
    SampleRelation,
)
from openpop.dialect import Aggregate, Select, Visibility, parse_one
from openpop.encoding import Encoding
from openpop.engine import Engine
from openpop.executor import ExecOptions, execute, execute_closed, execute_semi_open
from openpop.ipf import ipf_fit
from openpop.mswg import (
    TrainConfig,
    coverage_penalty,
    generate,
    loss_and_grad,
    prepare_targets,
)
from openpop.net import GeneratorNet
from openpop.predicate import Comparison, InList, Predicate, filter_rows
from openpop.transport import wasserstein_1d, wasserstein_1d_grad

from conftest import record_acceptance
from test_totals import random_catalog
from test_transport import lp_transport_cost


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] {criterion}"
    if detail:
        line += f" -- {detail}"
    print(line)
    record_acceptance(line)


# --- criterion 1: transport oracle ------------------------------------------------


def test_criterion_1_transport_oracle():
    rng = np.random.default_rng(101)
    started = time.time()
    worst = 0.0
    for trial in range(120):
        n, m = rng.integers(1, 9), rng.integers(1, 9)
        p, q = rng.normal(0, 4, n), rng.normal(0, 4, m)
        pw = rng.uniform(0.05, 1.0, n) if trial % 2 else None
        qw = rng.uniform(0.05, 1.0, m) if trial % 2 else None
        gap = abs(wasserstein_1d(p, q, pw, qw) - lp_transport_cost(p, q, pw, qw))
        worst = max(worst, gap)
    elapsed = time.time() - started
    ok = worst <= 1e-9 and elapsed < 5.0
    report("criterion-1 transport-oracle", ok,
           f"120 instances, max gap {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


# --- criterion 2: gradient suite ---------------------------------------------------


def _fd_max_rel(analytic, numeric):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / scale))


def test_criterion_2_gradient_suite():
    started = time.time()
    rng = np.random.default_rng(202)
    h = 1e-5
    worst = 0.0

    # (a) transport term
    for _ in range(40):
        p = rng.normal(0, 2, rng.integers(1, 7))
        pw = rng.uniform(0.1, 1.0, p.size)
        q = rng.normal(0, 2, rng.integers(2, 7)) + rng.uniform(0.004, 0.008)
        _, grad = wasserstein_1d_grad(p, pw, q)
        numeric = np.zeros_like(q)
        for k in range(q.size):
            up, down = q.copy(), q.copy()
            up[k] += h
            down[k] -= h
            numeric[k] = (wasserstein_1d(p, up, pw)
                          - wasserstein_1d(p, down, pw)) / (2 * h)
        worst = max(worst, _fd_max_rel(grad, numeric))

    # (b) coverage penalty
    batch = rng.normal(size=(6, 3))
    refs = rng.normal(size=(20, 3))
    _, grad = coverage_penalty(batch, refs)
    numeric = np.zeros_like(batch)
    flat, nflat = batch.ravel(), numeric.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = coverage_penalty(batch, refs)[0]
        flat[k] = orig - h
        down = coverage_penalty(batch, refs)[0]
        flat[k] = orig
        nflat[k] = (up - down) / (2 * h)
    worst = max(worst, _fd_max_rel(grad, numeric))

    # (c) full loss through a 2-hidden-layer net
    schema = [AttributeDef("x", "numeric"),
              AttributeDef("c", "categorical", domain=["u", "v", "w"])]
    rows = [(float(v), c) for v, c in zip(rng.uniform(0, 10, 25),
                                          rng.choice(["u", "v", "w"], 25))]
    sample = SampleRelation.from_rows(schema, rows, np.ones(25), name="s")
    marginals = [
        Marginal("p", ("x",), {i: 10.0 for i in range(10)}),
        Marginal("p", ("c",), {"u": 50.0, "v": 30.0, "w": 20.0}),
        Marginal("p", ("x", "c"), {(i, c): 5.0 for i in range(5)
                                   for c in ("u", "v")}),
    ]
    encoding = Encoding.build(schema, sample.columns, marginals)
    targets = prepare_targets(marginals, encoding, projections=4, rng=rng)
    net = GeneratorNet(2, [6, 5], encoding.dim, encoding.categorical_blocks(),
                       rng, batch_norm=True)
    latents = rng.standard_normal((8, 2))
    points = encoding.encode_rows(sample.columns)
    lam = 0.07
    loss_and_grad(net, latents, points, targets, lam)
    analytic = [p.grad.copy() for p in net.params()]
    for param, grads in zip(net.params(), analytic):
        flat = param.value.ravel()
        numeric = np.zeros_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up, _ = loss_and_grad(net, latents, points, targets, lam)
            flat[k] = orig - h
            down, _ = loss_and_grad(net, latents, points, targets, lam)
            flat[k] = orig
            numeric[k] = (up - down) / (2 * h)
        worst = max(worst, _fd_max_rel(grads.ravel(), numeric))

    elapsed = time.time() - started
    ok = worst < 1e-3 and elapsed < 30.0
    report("criterion-2 gradient-suite", ok,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-3
    assert elapsed < 30.0


# --- criterion 3: IPF exactness ----------------------------------------------------


def test_criterion_3_ipf_exactness():
    # single 1-D marginal: exact after one fit
    sample = SampleRelation.from_rows(
        [AttributeDef("a", "categorical")],
        [("A",)] * 7 + [("B",)] * 3, np.ones(10), name="s")
    marginal = Marginal("p", ("a",), {"A": 21.0, "B": 9.0})
    weights, _ = ipf_fit(sample, [marginal])
    counts = {"A": weights[:7].sum(), "B": weights[7:].sum()}
    single_gap = max(abs(counts[k] - marginal.cells[k]) for k in counts)

    # 10,000-row 2-attribute population, biased 10% sample, both marginals
    rng = np.random.default_rng(303)
    n = 10_000
    a_idx = rng.choice(4, n, p=[0.1, 0.2, 0.3, 0.4])
    b_idx = rng.choice(3, n, p=[0.5, 0.3, 0.2])
    keys = rng.exponential(1.0, n) / (4.0 ** a_idx)
    picked = np.argsort(keys, kind="stable")[:1000]
    rows = [(f"a{a_idx[i]}", f"b{b_idx[i]}") for i in picked]
    schema = [AttributeDef("a", "categorical"), AttributeDef("b", "categorical")]
    biased = SampleRelation.from_rows(schema, rows, np.ones(1000), name="biased")
    pop_counts: dict = {}
    for a, b in zip(a_idx, b_idx):
        key = (f"a{a}", f"b{b}")
        pop_counts[key] = pop_counts.get(key, 0) + 1
    marg_a: dict = {}
    marg_b: dict = {}
    for (a, b), count in pop_counts.items():
        marg_a[a] = marg_a.get(a, 0.0) + count
        marg_b[b] = marg_b.get(b, 0.0) + count
    fitted, ipf_report = ipf_fit(
        biased, [Marginal("p", ("a",), marg_a), Marginal("p", ("b",), marg_b)])

    def groupby_error(weights_vec):
        est: dict = {}
        for row, w in zip(rows, weights_vec):
            est[row] = est.get(row, 0.0) + w
        diffs = [100 * abs(est.get(k, 0.0) - c) / c
                 for k, c in pop_counts.items() if k in est]
        return float(np.mean(diffs))

    ipf_error = groupby_error(fitted)
    unif_error = groupby_error(np.full(1000, n / 1000))
    ok = single_gap <= 1e-9 and ipf_report.converged and ipf_error < unif_error
    report("criterion-3 ipf-exactness", ok,
           f"single-fit gap {single_gap:.1e}; converged={ipf_report.converged}; "
           f"group-by error IPF {ipf_error:.1f}% < Unif {unif_error:.1f}%")
    assert single_gap <= 1e-9
    assert ipf_report.converged  # tolerance 1e-6
    assert ipf_error < unif_error


# --- criterion 4: mechanism weighting ----------------------------------------------


def test_criterion_4_mechanism_weighting():
    exact = True
    for n in (1, 7, 100, 733):
        catalog = Catalog()
        catalog.create_population(PopulationDef(
            "P", True, [AttributeDef("a", "categorical")]))
        catalog.create_sample("S", mechanism=Mechanism("uniform", 10.0))
        catalog.ingest_rows("S", [("x",)] * n)
        answer = execute(parse_one("SELECT SEMI-OPEN COUNT(*) FROM P"), catalog)
        exact = exact and answer.rows[0][0] == n * 10.0
    report("criterion-4 mechanism-weighting", exact,
           "COUNT(*) == n*10 exactly for n in {1,7,100,733}")
    assert exact


# --- criterion 5: visibility contract ----------------------------------------------


def _random_catalog(rng):
    n_attrs = int(rng.integers(2, 4))
    schema = []
    for i in range(n_attrs):
        kind = "categorical" if rng.random() < 0.5 else "numeric"
        schema.append(AttributeDef(f"a{i}", kind))
    catalog = Catalog()
    catalog.create_population(PopulationDef("P", True, schema))
    catalog.create_sample("S")
    pop_rows = []
    for _ in range(300):
        row = []
        for attr in schema:
            if attr.kind == "categorical":
                row.append(f"v{rng.integers(4)}")
            else:
                row.append(float(rng.integers(0, 6)))
        pop_rows.append(tuple(row))
    picked = rng.choice(300, size=40, replace=False)
    catalog.ingest_rows("S", [pop_rows[i] for i in picked])
    for attr in schema:
        col = [row[schema.index(attr)] for row in pop_rows]
        cells: dict = {}
        for value in col:
            key = value if attr.kind == "categorical" else int(value)
            cells[key] = cells.get(key, 0.0) + 1.0
        catalog.create_metadata("P", (attr.name,), cells)
    return catalog, schema


def _random_query(rng, schema, visibility):
    numerics = [a.name for a in schema if a.kind == "numeric"]
    group_by = []
    if rng.random() < 0.7:
        count = int(rng.integers(1, min(2, len(schema)) + 1))
        group_by = [a.name for a in
                    rng.choice(schema, size=count, replace=False)]
    aggs = [Aggregate("count", None)]
    if numerics and rng.random() < 0.5:
        aggs.append(Aggregate(str(rng.choice(["sum", "avg"])),
                              str(rng.choice(numerics))))
    atoms = []
    if rng.random() < 0.6:
        attr = schema[int(rng.integers(len(schema)))]
        if attr.kind == "categorical":
            if rng.random() < 0.5:
                atoms.append(Comparison(attr.name, "=", f"v{rng.integers(4)}"))
            else:
                atoms.append(InList(attr.name,
                                    (f"v{rng.integers(4)}", f"v{rng.integers(4)}")))
        else:
            op = str(rng.choice(["<", ">", "<=", ">="]))
            atoms.append(Comparison(attr.name, op, float(rng.integers(0, 6))))
    predicate = Predicate(tuple(atoms)) if atoms else None
    return Select(visibility, tuple(group_by) + tuple(aggs), "P", predicate,
                  tuple(group_by))


def test_criterion_5_visibility_contract():
    rng = np.random.default_rng(505)
    checked = 0
    violations = 0
    mismatches = 0
    stored_options = ExecOptions(use_ipf=False)
    while checked < 1000:
        catalog, schema = _random_catalog(rng)
        sample = catalog.sample("S")
        for _ in range(25):
            query = _random_query(rng, schema, Visibility.CLOSED)
            semi = Select(Visibility.SEMI_OPEN, query.items, query.source,
                          query.predicate, query.group_by)
            closed = execute_closed(query, sample, catalog)
            fitted = execute_semi_open(semi, sample, catalog)
            n_group = len(query.group_by)
            if n_group:
                sample_keys = set(zip(*(sample.columns[g].tolist()
                                        for g in query.group_by)))
                if not closed.group_keys(n_group) <= sample_keys:
                    violations += 1
                if not fitted.group_keys(n_group) <= sample_keys:
                    violations += 1
            # unit weights: SEMI-OPEN must coincide with CLOSED
            stored = execute_semi_open(semi, sample, catalog, stored_options)
            if stored.columns != closed.columns or len(stored.rows) != len(closed.rows):
                mismatches += 1
            else:
                for a, b in zip(stored.rows, closed.rows):
                    if a[:n_group] != b[:n_group] or not np.allclose(
                            a[n_group:], b[n_group:]):
                        mismatches += 1
                        break
            checked += 1
    ok = violations == 0 and mismatches == 0
    report("criterion-5 visibility-contract", ok,
           f"{checked} fuzzed queries, {violations} false-positive sets, "
           f"{mismatches} closed/semi-open mismatches")
    assert violations == 0
    assert mismatches == 0


def test_visibility_contract_over_derived_populations():
    """Criterion 5's fuzz over a derived population D with its own FOR
    marginals: CLOSED and SEMI-OPEN (IPF against D's marginals) show no group
    absent from the sample rows inside D's view."""
    rng = np.random.default_rng(506)
    checked = violations = 0
    for seed in range(20):
        catalog = random_catalog(seed)
        sample = catalog.sample("S")
        inside = sample.take(filter_rows(catalog.population("D").predicate, sample))
        schema = catalog.global_population().schema
        options = ExecOptions()
        for _ in range(25):
            query = _random_query(rng, schema, Visibility.CLOSED)
            if not query.group_by:
                continue
            closed = replace(query, source="D")
            semi = replace(closed, visibility=Visibility.SEMI_OPEN)
            inside_keys = set(zip(*(inside.columns[g].tolist()
                                    for g in query.group_by)))
            n_group = len(query.group_by)
            for answer in (execute_closed(closed, sample, catalog),
                           execute_semi_open(semi, sample, catalog, options)):
                violations += not answer.group_keys(n_group) <= inside_keys
                checked += 1
    assert checked > 500
    assert violations == 0


# --- criterion 6: spiral reproduction ----------------------------------------------


@pytest.fixture(scope="module")
def spiral_run():
    started = time.time()
    spec = SpiralSpec(seed=0)  # N=100k population, 10k biased sample
    data = gen_spiral(spec)
    marginals = spiral_marginals(data)
    cfg = TrainConfig(seed=0)  # the published spiral configuration
    trained = train_spiral_generator(data, marginals, cfg)
    return spec, data, marginals, trained, started


def test_criterion_6a_spiral_marginals(spiral_run):
    _, data, marginals, trained, _ = spiral_run
    generated = np.asarray(generate(trained, 10_000, np.random.default_rng(1)).to_rows())
    results = []
    for column, (attr, marginal) in enumerate(zip(("x", "y"), marginals)):
        gen_w1 = w1_to_marginal(generated[:, column], marginal, attr)
        sample_w1 = w1_to_marginal(data.sample[:, column], marginal, attr)
        results.append((attr, gen_w1, sample_w1))
    ok = all(g < s for _, g, s in results)
    report("criterion-6a spiral-marginals", ok,
           "; ".join(f"{a}: generated {g:.3f} < sample {s:.3f}"
                     for a, g, s in results))
    for _, gen_w1, sample_w1 in results:
        assert gen_w1 < sample_w1


def test_spiral_training_loss_decreases_early(spiral_run):
    # regression guard on the published spiral configuration: training makes
    # clear progress over the first five epochs
    _, _, _, trained, _ = spiral_run
    losses = [loss for loss, _ in trained.diagnostics["history"][:5]]
    assert len(losses) == 5
    assert losses[4] < losses[0]
    assert min(losses[1:]) < losses[0]


def test_criterion_6b_spiral_queries(spiral_run):
    spec, data, _, trained, started = spiral_run
    table = run_spiral_experiment(spec, (0.4, 0.6, 0.8), repeats=10,
                                  query_count=100, trained=trained, data=data)
    outcomes = []
    for coverage in (0.4, 0.6, 0.8):
        unif = table.select(coverage=coverage, method="unif").rows[0][2]
        mswg = table.select(coverage=coverage, method="mswg").rows[0][2]
        outcomes.append((coverage, mswg, unif))
    elapsed = time.time() - started
    ok = all(m < u for _, m, u in outcomes) and elapsed < 1200
    report("criterion-6b spiral-queries", ok,
           "; ".join(f"cov {c}: mswg {m:.1f}% < unif {u:.1f}%"
                     for c, m, u in outcomes) + f"; total {elapsed:.0f}s")
    for coverage, mswg, unif in outcomes:
        assert mswg < unif, f"coverage {coverage}"
    assert elapsed < 1200  # 20-minute single-threaded budget


# --- criterion 7: flights-like ordering --------------------------------------------


def test_criterion_7_flightslike_ordering():
    table = run_flightslike_experiment(FlightsLikeSpec(seed=0),
                                       methods=("unif", "ipf"))

    def err(query, method):
        return table.select(query=query, method=method).rows[0][2]

    q1_unif, q1_ipf = err("q1", "unif"), err("q1", "ipf")
    numeric = [f"q{i}" for i in range(1, 5)]
    unif_avg = float(np.mean([err(q, "unif") for q in numeric]))
    ipf_avg = float(np.mean([err(q, "ipf") for q in numeric]))
    ok = q1_unif < 5.0 and q1_ipf < 5.0 and ipf_avg <= unif_avg
    report("criterion-7 flights-ordering", ok,
           f"bias-aligned q1: unif {q1_unif:.2f}% / ipf {q1_ipf:.2f}% (<5%); "
           f"numeric avg: ipf {ipf_avg:.2f}% <= unif {unif_avg:.2f}%")
    assert q1_unif < 5.0
    assert q1_ipf < 5.0
    assert ipf_avg <= unif_avg


# --- criterion 8: end-to-end script ------------------------------------------------


MIGRANTS_SCRIPT = """
CREATE TABLE CountryStats (country TEXT, reported_count INT);
CREATE TABLE EmailStats (email TEXT, reported_count INT);
INGEST CountryStats FROM '{country_csv}';
INGEST EmailStats FROM '{email_csv}';
CREATE GLOBAL POPULATION Migrants (country TEXT, email TEXT);
CREATE METADATA Migrants_ByCountry AS
  (SELECT country, reported_count FROM CountryStats);
CREATE METADATA Migrants_ByEmail AS
  (SELECT email, reported_count FROM EmailStats);
CREATE SAMPLE YahooUsers AS (SELECT * FROM Migrants WHERE email = 'Yahoo');
INGEST YahooUsers FROM '{yahoo_csv}';
SELECT SEMI-OPEN country, email, COUNT(*) FROM Migrants GROUP BY country, email;
SELECT OPEN country, email, COUNT(*) FROM Migrants GROUP BY country, email;
"""


def test_criterion_8_end_to_end_script(tmp_path):
    rng = np.random.default_rng(808)
    (tmp_path / "country.csv").write_text(
        "country,reported_count\nUK,600\nFR,400\n", encoding="utf-8")
    (tmp_path / "email.csv").write_text(
        "email,reported_count\nYahoo,550\nAOL,450\n", encoding="utf-8")
    rows = ["country,email"] + [
        f"{rng.choice(['UK', 'FR'], p=[0.7, 0.3])},Yahoo" for _ in range(80)]
    (tmp_path / "yahoo.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    engine = Engine(seed=0, train_config=TrainConfig(
        coverage_weight=0.01, latent_dim=2, projections=8, batch_size=16,
        epochs=25, layers=(24, 24), seed=0))
    script = MIGRANTS_SCRIPT.format(country_csv=tmp_path / "country.csv",
                                    email_csv=tmp_path / "email.csv",
                                    yahoo_csv=tmp_path / "yahoo.csv")
    answers = engine.run_script(script)
    semi, open_answer = answers
    sample_keys = {(row[0], row[1])
                   for row in engine.catalog.sample("YahooUsers").to_rows()}
    semi_new = {k for k in semi.group_keys(2) if k not in sample_keys}
    open_new = {k for k in open_answer.group_keys(2) if k not in sample_keys}
    ok = not semi_new and bool(open_new)
    report("criterion-8 end-to-end", ok,
           f"semi-open new groups {sorted(semi_new)}; "
           f"open new groups {sorted(open_new)}")
    assert not semi_new   # zero false positives under SEMI-OPEN
    assert open_new       # OPEN surfaces at least one unseen group


# --- criterion 9: determinism -------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    spec = SpiralSpec(population_size=3000, sample_size=300, seed=11)
    cfg = TrainConfig(coverage_weight=0.04, latent_dim=2, batch_size=64,
                      epochs=3, layers=(32, 32), seed=11)
    outputs = []
    for name in ("one.csv", "two.csv"):
        table = run_spiral_experiment(spec, (0.6, 0.8), repeats=3,
                                      query_count=20, train_cfg=cfg)
        path = tmp_path / name
        emit_csv(table, path)
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1]
    report("criterion-9 determinism", ok,
           f"{len(outputs[0])} bytes, identical={ok}")
    assert outputs[0] == outputs[1]
