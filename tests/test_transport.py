"""Exact 1-D transport: oracle agreement, metric properties, gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import openpop.mswg
from openpop.catalog import AttributeDef, Marginal, SampleRelation
from openpop.encoding import Encoding
from openpop.errors import EmptyDistributionError
from openpop.mswg import (
    TRANSPORT_BLOCK,
    MarginalTarget,
    TrainConfig,
    prepare_targets,
    resample_target,
    train,
    transport_term,
)
from openpop.transport import (
    aligned_w1_grad,
    sample_projections,
    wasserstein_1d,
    wasserstein_1d_grad,
)


def lp_transport_cost(p_values, q_values, p_weights=None, q_weights=None):
    """Brute-force optimal transport as a linear program (test oracle)."""
    p_values = np.asarray(p_values, dtype=float)
    q_values = np.asarray(q_values, dtype=float)
    n, m = p_values.size, q_values.size
    pw = np.full(n, 1.0 / n) if p_weights is None else \
        np.asarray(p_weights, dtype=float) / np.sum(p_weights)
    qw = np.full(m, 1.0 / m) if q_weights is None else \
        np.asarray(q_weights, dtype=float) / np.sum(q_weights)
    cost = np.abs(p_values[:, None] - q_values[None, :]).ravel()
    a_eq = []
    b_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m:(i + 1) * m] = 1.0
        a_eq.append(row)
        b_eq.append(pw[i])
    for j in range(m - 1):  # last column constraint is redundant
        row = np.zeros(n * m)
        row[j::m] = 1.0
        a_eq.append(row)
        b_eq.append(qw[j])
    res = linprog(cost, A_eq=np.asarray(a_eq), b_eq=np.asarray(b_eq),
                  bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


def stable_aligned_w1_grad(p_matrix, q_matrix):
    """The aligned kernel as two stable sorts and a zero-filled gradient
    (test oracle for the bytes of `aligned_w1_grad`)."""
    p = np.asarray(p_matrix, dtype=float)
    q = np.asarray(q_matrix, dtype=float)
    n = p.shape[0]
    p_sorted = np.sort(p, axis=0, kind="stable")
    q_order = np.argsort(q, axis=0, kind="stable")
    q_sorted = np.take_along_axis(q, q_order, axis=0)
    diff = q_sorted - p_sorted
    w_per_col = np.abs(diff).mean(axis=0)
    grad = np.zeros_like(q)
    np.put_along_axis(grad, q_order, np.sign(diff) / n, axis=0)
    return w_per_col, grad


def random_instance(rng, max_points=8, weighted=True):
    n = rng.integers(1, max_points + 1)
    m = rng.integers(1, max_points + 1)
    p = rng.normal(0, 3, n)
    q = rng.normal(0, 3, m)
    pw = rng.uniform(0.05, 1.0, n) if weighted else None
    qw = rng.uniform(0.05, 1.0, m) if weighted else None
    return p, q, pw, qw


class TestAgainstLpOracle:
    def test_point_masses(self):
        assert wasserstein_1d([0.0], [1.0]) == pytest.approx(1.0)

    def test_identical(self):
        assert wasserstein_1d([1, 2, 3], [1, 2, 3]) == pytest.approx(0.0)

    def test_uniform_shifted_pairs(self):
        # uniform on {0,2} vs uniform on {1,3}
        value = wasserstein_1d([0, 2], [1, 3])
        assert value == pytest.approx(1.0)
        assert value == pytest.approx(lp_transport_cost([0, 2], [1, 3]), abs=1e-9)

    def test_random_instances_match_lp(self):
        rng = np.random.default_rng(20240817)
        for trial in range(120):
            p, q, pw, qw = random_instance(rng, weighted=trial % 2 == 0)
            fast = wasserstein_1d(p, q, pw, qw)
            exact = lp_transport_cost(p, q, pw, qw)
            assert fast == pytest.approx(exact, abs=1e-9), f"trial {trial}"


class TestMetricProperties:
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
           st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_symmetric_and_nonnegative(self, p, q):
        forward = wasserstein_1d(p, q)
        backward = wasserstein_1d(q, p)
        assert forward >= 0
        assert forward == pytest.approx(backward, abs=1e-9)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_self_distance_zero(self, p):
        assert wasserstein_1d(p, p) == pytest.approx(0.0, abs=1e-12)

    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=8),
           st.floats(-10, 10))
    @settings(max_examples=100, deadline=None)
    def test_shift_linearity(self, p, c):
        shifted = [v + c for v in p]
        assert wasserstein_1d(p, shifted) == pytest.approx(abs(c), abs=1e-9)

    def test_triangle_inequality_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p, q, pw, qw = random_instance(rng)
            r = rng.normal(0, 3, rng.integers(1, 9))
            rw = rng.uniform(0.05, 1.0, r.size)
            d_pq = wasserstein_1d(p, q, pw, qw)
            d_pr = wasserstein_1d(p, r, pw, rw)
            d_rq = wasserstein_1d(r, q, rw, qw)
            assert d_pq <= d_pr + d_rq + 1e-9

    def test_empty_distribution_rejected(self):
        with pytest.raises(EmptyDistributionError):
            wasserstein_1d([], [1.0])
        with pytest.raises(EmptyDistributionError):
            wasserstein_1d([1.0], [2.0], [0.0], None)


class TestGradient:
    def test_sign_single_point(self):
        w, grad = wasserstein_1d_grad([1.0], None, np.array([0.0]))
        assert w == pytest.approx(1.0)
        assert grad[0] == pytest.approx(-1.0)

    def test_zero_at_equality(self):
        w, grad = wasserstein_1d_grad([1.0, 2.0], None, np.array([1.0, 2.0]))
        assert w == pytest.approx(0.0)
        assert np.allclose(grad, 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(150):
            p, q, pw, _ = random_instance(rng)
            # keep away from ties so the subgradient is the gradient
            q = q + rng.uniform(0.01, 0.02, q.size)
            _, grad = wasserstein_1d_grad(p, pw, q)
            for k in range(q.size):
                up, down = q.copy(), q.copy()
                up[k] += h
                down[k] -= h
                fd = (wasserstein_1d(p, up, pw) - wasserstein_1d(p, down, pw)) / (2 * h)
                assert grad[k] == pytest.approx(fd, abs=1e-4, rel=1e-4)

    def test_aligned_path_equals_general(self):
        rng = np.random.default_rng(3)
        p = rng.normal(size=(9, 4))
        q = rng.normal(size=(9, 4))
        w_cols, grads = aligned_w1_grad(p, q)
        for j in range(4):
            w, grad = wasserstein_1d_grad(p[:, j], None, q[:, j])
            assert w_cols[j] == pytest.approx(w, abs=1e-12)
            assert np.allclose(grads[:, j], grad)


def tied_matrix(rng, rows, cols):
    """Columns drawn from a few values, ±0 among them, some of them with
    continuous noise added, and the last column a copy of the first."""
    values = np.array([-0.0, 0.0, -1.5, 1.5, 2.0, 0.25])
    out = rng.choice(values, size=(rows, cols))
    noisy = rng.random(cols) < 0.3
    out[:, noisy] += rng.normal(size=(rows, int(noisy.sum())))
    out[:, -1] = out[:, 0]
    return out


def same_bytes(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestAlignedKernelBytes:
    """aligned_w1_grad sorts with the fast default kind; its outputs must be
    the bytes of the stable-sort formulation, and its inputs untouched."""

    @pytest.mark.parametrize("rows, cols", [
        (1, 1), (1, 7), (9, 1), (700, 1), (40, 12), (600, 30)])
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_equal_to_stable_sorts(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        dense = [rng.normal(size=(rows, cols)), rng.normal(size=(rows, cols))]
        for p, q in (dense, [tied_matrix(rng, rows, cols), tied_matrix(rng, rows, cols)],
                     [dense[0], tied_matrix(rng, rows, cols)]):
            p_before, q_before = p.copy(), q.copy()
            w_want, g_want = stable_aligned_w1_grad(p, q)
            w_got, g_got = aligned_w1_grad(p, q)
            assert same_bytes(w_got, w_want) and same_bytes(g_got, g_want)
            assert same_bytes(p, p_before) and same_bytes(q, q_before)


def test_transport_term_bytes():
    # The loss divides the kernel's gradient by p in place, then projects it
    # back: the bytes of (grad / p) @ omega.
    rng = np.random.default_rng(4)
    omega = sample_projections(200, 3, rng)
    points = rng.choice([0.0, 1.0, 2.5], size=(300, 3))
    batch = rng.normal(size=(300, 3))
    loss, grad = transport_term(MarginalTarget(np.arange(3), points, None, omega), batch)
    w_cols, grad_proj = stable_aligned_w1_grad(points @ omega.T, batch @ omega.T)
    assert loss == float(w_cols.sum() / 200)
    assert same_bytes(grad, (grad_proj / 200) @ omega)


def test_transport_term_takes_only_batch_size_draws():
    # prepare_targets gives weighted cells; training hands transport_term
    # their resample_target draw at the batch size, and nothing else.
    schema = [AttributeDef("x", "numeric")]
    sample = SampleRelation.from_rows(schema, [(float(i),) for i in range(8)],
                                      np.ones(8), name="s")
    marginal = Marginal("p", ("x",), {i: 1.0 + i for i in range(8)})
    encoding = Encoding.build(schema, sample.columns, [marginal])
    rng = np.random.default_rng(0)
    (cells,) = prepare_targets([marginal], encoding, 1, rng)
    batch = rng.normal(size=(8, 1))
    for target in (cells, resample_target(cells, 7, rng)):
        with pytest.raises(EmptyDistributionError,
                           match="resample_target drew at batch size 8"):
            transport_term(target, batch)
    loss, grad = transport_term(resample_target(cells, 8, rng), batch)
    assert loss > 0 and grad.shape == batch.shape


B = TRANSPORT_BLOCK


@pytest.mark.parametrize("p, widths", [
    (1, [1]), (B - 1, [B - 1]), (B, [B]), (B + 1, [B + 1]),
    (2 * B + 37, [B, B, 37])])
@pytest.mark.parametrize("seed", range(3))
def test_transport_term_blocks_match_whole_matrix(monkeypatch, p, widths, seed):
    # The batch repeats its first coordinate heavily (with -0.0 and 0.0), so
    # every projection onto that axis is a tied column: one ends the first
    # block, one starts the second, and a fifth of the others are tied too.
    # The targets tie everywhere.
    rng = np.random.default_rng(seed)
    n = 300
    omega = sample_projections(p, 3, rng)
    tied = (rng.random(p) < 0.2) | np.isin(np.arange(p), [0, B - 1, B, p - 1])
    omega[tied] = [1.0, 0.0, 0.0]
    points = rng.choice([-0.0, 0.0, 1.0, 2.5], size=(n, 3))
    batch = rng.normal(size=(n, 3))
    batch[:, 0] = rng.choice([-0.0, 0.0, -1.5, 2.0], size=n)
    calls = []
    real_aligned = openpop.mswg.aligned_w1_grad

    def recording_aligned(p_block, q_block):
        calls.append(q_block.shape[1])
        return real_aligned(p_block, q_block)

    monkeypatch.setattr(openpop.mswg, "aligned_w1_grad", recording_aligned)
    batch_before = batch.copy()
    loss, grad = transport_term(MarginalTarget(np.arange(3), points, None, omega), batch)
    w_cols, grad_proj = stable_aligned_w1_grad(points @ omega.T, batch @ omega.T)
    assert calls == widths
    assert loss == float(w_cols.sum() / p)
    assert same_bytes(grad, (grad_proj / p) @ omega)
    assert same_bytes(batch, batch_before)


def test_transport_term_scratch_is_block_sized():
    # One flights-sized term (a 500-row batch, 1000 projections of a 15-dim
    # marginal) may hold the two projected matrices at full size, and only
    # block-sized arrays besides them.
    n, p, k = 500, 1000, 15
    rng = np.random.default_rng(0)
    target = MarginalTarget(np.arange(k), rng.normal(size=(n, k)), None,
                            sample_projections(p, k, rng))
    batch = rng.normal(size=(n, k))
    transport_term(target, batch)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        transport_term(target, batch)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    full, block = n * p * 8, n * TRANSPORT_BLOCK * 8
    assert peak <= 2 * full + 6 * block, f"peak {peak / full:.2f} full arrays"


def flights_shaped_sample(n=120, seed=0):
    rng = np.random.default_rng(seed)
    carriers = ["AA", "DL", "UA"]
    schema = [AttributeDef("C", "categorical", domain=carriers),
              AttributeDef("O", "numeric"), AttributeDef("E", "numeric")]
    rows = [(str(c), float(o), float(e)) for c, o, e in zip(
        rng.choice(carriers, n), rng.integers(1, 9, n), rng.integers(30, 300, n))]
    return SampleRelation.from_rows(schema, rows, np.ones(n), name="s")


def test_training_bytes_match_stable_kernel(monkeypatch):
    """A few flights-shaped training steps (a categorical x numeric pair, a
    numeric pair, 200 projections) give the same tensors with the oracle
    kernel in place of aligned_w1_grad."""
    rng = np.random.default_rng(1)
    marginals = [
        Marginal("p", ("C", "E"), {(c, float(e)): float(rng.integers(1, 20))
                                   for c in ("AA", "DL", "UA") for e in range(30, 300, 30)}),
        Marginal("p", ("O", "E"), {(float(o), float(e)): float(rng.integers(1, 20))
                                   for o in range(1, 9) for e in range(30, 300, 45)})]
    cfg = TrainConfig(coverage_weight=1e-3, latent_dim=4, projections=200,
                      batch_size=100, epochs=1, layers=(24, 24), seed=3)
    sample = flights_shaped_sample()
    fast = train(sample, marginals, cfg)
    monkeypatch.setattr(openpop.mswg, "aligned_w1_grad", stable_aligned_w1_grad)
    oracle = train(sample, marginals, cfg)
    assert len(fast.diagnostics["history"]) == 1
    assert [t.tobytes() for t in fast.net.snapshot()] == \
        [t.tobytes() for t in oracle.net.snapshot()]


class TestProjections:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        omega = sample_projections(50, 7, rng)
        assert omega.shape == (50, 7)
        assert np.all(np.abs(np.linalg.norm(omega, axis=1) - 1.0) < 1e-12)

    def test_deterministic_per_seed(self):
        a = sample_projections(20, 3, np.random.default_rng(42))
        b = sample_projections(20, 3, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_mean_direction_near_zero(self):
        omega = sample_projections(10_000, 3, np.random.default_rng(1))
        # each coordinate of a uniform sphere direction has variance 1/3
        sigma = np.sqrt(1.0 / 3.0 / 10_000)
        assert np.all(np.abs(omega.mean(axis=0)) < 3 * sigma + 1e-3)
