"""Finite-difference validation of every analytic gradient in the trainer."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import openpop.mswg
from openpop.catalog import AttributeDef, Marginal, Relation, SampleRelation
from openpop.encoding import Encoding
from openpop.errors import EmptyDistributionError
from openpop.mswg import (
    COVERAGE_BLOCK,
    TRANSPORT_BLOCK,
    coverage_penalty,
    loss_and_grad,
    prepare_targets,
    resample_target,
)
from openpop.net import Adam, BatchNorm, GeneratorNet, Linear
from openpop.transport import wasserstein_1d, wasserstein_1d_grad

H = 1e-5


def finite_diff(fn, array, h=H):
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = fn()
        flat[k] = orig - h
        down = fn()
        flat[k] = orig
        gflat[k] = (up - down) / (2 * h)
    return grad


def assert_close(analytic, numeric, rel=1e-3):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    assert np.all(np.abs(analytic - numeric) / scale < rel), \
        f"max rel err {np.max(np.abs(analytic - numeric) / scale)}"


class TestTransportGradient:
    def test_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            p = rng.normal(0, 2, rng.integers(1, 7))
            pw = rng.uniform(0.1, 1.0, p.size)
            q = rng.normal(0, 2, rng.integers(2, 7)) + rng.uniform(0.005, 0.01)
            _, grad = wasserstein_1d_grad(p, pw, q)
            numeric = finite_diff(lambda: wasserstein_1d(p, q, pw), q)
            assert_close(grad, numeric, rel=1e-4)


class TestCoverageGradient:
    def test_batch_subset_of_refs_is_zero(self):
        refs = np.array([[0.0, 0.0], [1.0, 1.0]])
        value, grad = coverage_penalty(refs.copy(), refs)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_single_point_distance(self):
        value, grad = coverage_penalty(np.array([[3.0, 0.0]]),
                                       np.array([[0.0, 0.0]]))
        assert value == pytest.approx(3.0)
        assert grad[0] == pytest.approx([1.0, 0.0])

    def test_matches_brute_force_all_pairs(self):
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(40, 3))
        refs = rng.normal(size=(100, 3))
        value, _ = coverage_penalty(batch, refs)
        brute = np.mean([min(np.linalg.norm(x - y) for y in refs)
                         for x in batch])
        assert value == pytest.approx(brute, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(6, 2))
        refs = rng.normal(size=(15, 2))
        _, grad = coverage_penalty(batch, refs)
        numeric = finite_diff(lambda: coverage_penalty(batch, refs)[0], batch)
        assert_close(grad, numeric)



def reference_coverage_penalty(batch, refs):
    """The whole-matrix coverage penalty `coverage_penalty` must equal byte
    for byte: both broadcast sums and the product alive at once."""
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    refs = np.atleast_2d(np.asarray(refs, dtype=float))
    if batch.size == 0 or refs.size == 0:
        raise EmptyDistributionError("coverage penalty needs nonempty inputs")
    d2 = (np.sum(batch ** 2, axis=1)[:, None]
          + np.sum(refs ** 2, axis=1)[None, :]
          - 2.0 * batch @ refs.T)
    np.maximum(d2, 0.0, out=d2)
    nearest = np.argmin(d2, axis=1)
    dist = np.sqrt(d2[np.arange(len(batch)), nearest])
    grad = np.zeros_like(batch)
    hit = dist > 0
    grad[hit] = (batch[hit] - refs[nearest[hit]]) / dist[hit, None]
    grad /= len(batch)
    return float(dist.mean()), grad


def assert_same_penalty(batch, refs):
    value, grad = coverage_penalty(batch, refs)
    ref_value, ref_grad = reference_coverage_penalty(batch, refs)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert grad.dtype == ref_grad.dtype and grad.shape == ref_grad.shape
    assert grad.tobytes() == ref_grad.tobytes()
    return value, grad


class TestCoverageBlocks:
    """The blocked distance pass gives the whole-matrix penalty's bytes."""

    @pytest.mark.parametrize("dim", [1, 2, 24])
    @pytest.mark.parametrize("rows", [1, 2, COVERAGE_BLOCK - 1, COVERAGE_BLOCK,
                                      COVERAGE_BLOCK + 1, 500])
    def test_matches_reference_bytes(self, rows, dim):
        rng = np.random.default_rng(rows * 100 + dim)
        batch = rng.normal(size=(rows, dim))
        for refs_rows in (1, 7, 1250, 2000, 2048):
            assert_same_penalty(batch, rng.normal(size=(refs_rows, dim)))

    def test_duplicate_refs_first_index_wins(self):
        rng = np.random.default_rng(3)
        refs = rng.normal(size=(40, 2))
        refs = np.concatenate([refs, refs, refs[:5]])
        batch = np.concatenate([rng.normal(size=(COVERAGE_BLOCK + 3, 2)),
                                refs[:4] + 0.25])
        assert_same_penalty(batch, refs)
        # Two refs at the same distance: the gradient points from the first.
        _, grad = assert_same_penalty(np.zeros((COVERAGE_BLOCK + 1, 2)),
                                      np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.all(grad == [-1.0 / (COVERAGE_BLOCK + 1), 0.0])

    def test_batch_row_on_a_ref_has_zero_gradient(self):
        rng = np.random.default_rng(4)
        refs = rng.normal(size=(300, 3))
        batch = rng.normal(size=(COVERAGE_BLOCK + 5, 3))
        batch[COVERAGE_BLOCK + 2] = refs[17]
        _, grad = assert_same_penalty(batch, refs)
        assert np.all(grad[COVERAGE_BLOCK + 2] == 0.0)
        assert np.all(np.any(np.delete(grad, COVERAGE_BLOCK + 2, 0) != 0, 1))

    def test_far_points_clamp_negative_expansions(self):
        # At 1e8 the expansion |b|^2 + |r|^2 - 2 b.r loses every digit of a
        # small distance, so some entries round below zero and are clamped.
        rng = np.random.default_rng(5)
        refs = 1e8 + rng.uniform(0, 1, size=(200, 2))
        batch = 1e8 + rng.uniform(0, 1, size=(3 * COVERAGE_BLOCK + 1, 2))
        expansion = (np.sum(batch ** 2, axis=1)[:, None]
                     + np.sum(refs ** 2, axis=1)[None, :]
                     - 2.0 * batch @ refs.T)
        assert np.any(expansion < 0)
        assert_same_penalty(batch, refs)

    def test_nan_batch_row(self):
        rng = np.random.default_rng(6)
        refs = rng.normal(size=(100, 2))
        batch = rng.normal(size=(COVERAGE_BLOCK + 2, 2))
        batch[COVERAGE_BLOCK] = np.nan
        value, grad = assert_same_penalty(batch, refs)
        assert np.isnan(value)
        assert np.all(grad[COVERAGE_BLOCK] == 0.0)

    def test_one_batch_by_refs_matrix_at_a_time(self):
        # The product is the only batch x refs matrix; the whole-matrix
        # expression holds two (the broadcast sum and the product) at once.
        rng = np.random.default_rng(0)
        batch, refs = rng.normal(size=(500, 2)), rng.normal(size=(2000, 2))
        coverage_penalty(batch, refs)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            coverage_penalty(batch, refs)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        full = 500 * 2000 * 8
        assert peak < 1.3 * full, f"peak {peak / full:.2f} full matrices"


def small_problem(rng, projections=4):
    schema = [AttributeDef("x", "numeric"),
              AttributeDef("c", "categorical", domain=["u", "v", "w"])]
    rows = [(float(v), c) for v, c in zip(rng.uniform(0, 10, 25),
                                          rng.choice(["u", "v", "w"], 25))]
    sample = SampleRelation.from_rows(schema, rows, np.ones(len(rows)), name="s")
    marginals = [
        Marginal("p", ("x",), {i: 10.0 for i in range(10)}),
        Marginal("p", ("c",), {"u": 50.0, "v": 30.0, "w": 20.0}),
        Marginal("p", ("x", "c"), {(i, c): 5.0 for i in range(5)
                                   for c in ("u", "v")}),
    ]
    encoding = Encoding.build(schema, sample.columns, marginals)
    targets = prepare_targets(marginals, encoding, projections, rng)
    net = GeneratorNet(2, [6, 5], encoding.dim, encoding.categorical_blocks(),
                       rng)
    latents = rng.standard_normal((8, 2))
    points = encoding.encode_rows(sample.columns)
    return net, latents, points, targets


class TestFullLossGradient:
    @pytest.mark.parametrize("seed", [2024, 7, 11])
    def test_all_parameters_with_batch_sized_targets(self, seed, monkeypatch):
        # Training resamples each target to the batch size, so transport_term
        # takes the aligned kernel: the gradient every training step uses.
        rng = np.random.default_rng(seed)
        net, latents, points, targets = small_problem(rng)
        targets = [resample_target(t, len(latents), rng) for t in targets]
        aligned = []
        real_aligned = openpop.mswg.aligned_w1_grad

        def counting_aligned(*args):
            aligned.append(len(args[1]))
            return real_aligned(*args)

        monkeypatch.setattr(openpop.mswg, "aligned_w1_grad", counting_aligned)
        lam = 0.07
        loss, _ = loss_and_grad(net, latents, points, targets, lam)
        assert loss > 0
        assert aligned == [len(latents)] * len(targets)
        analytic = [p.grad.copy() for p in net.params()]
        for param, grad in zip(net.params(), analytic):
            numeric = finite_diff(
                lambda: loss_and_grad(net, latents, points, targets, lam)[0],
                param.value)
            assert_close(grad, numeric)

    @pytest.mark.parametrize("seed", [2024, 7])
    def test_all_parameters_with_projection_blocks(self, seed):
        # More projections than TRANSPORT_BLOCK: the sliced target's aligned
        # kernel runs block by block (a full block, then a partial one).
        rng = np.random.default_rng(seed)
        net, latents, points, targets = small_problem(rng, TRANSPORT_BLOCK + 37)
        assert max(len(t.projections) for t in targets) > TRANSPORT_BLOCK
        targets = [resample_target(t, len(latents), rng) for t in targets]
        lam = 0.07
        loss, _ = loss_and_grad(net, latents, points, targets, lam)
        assert loss > 0
        analytic = [p.grad.copy() for p in net.params()]
        for param, grad in zip(net.params(), analytic):
            numeric = finite_diff(
                lambda: loss_and_grad(net, latents, points, targets, lam)[0],
                param.value)
            assert_close(grad, numeric)

    def test_zero_loss_for_ideal_frozen_generator(self):
        # lambda = 0 and the batch already equal to the marginal target
        rng = np.random.default_rng(0)
        schema = [AttributeDef("x", "numeric")]
        rows = [(float(i),) for i in range(4)]
        marginal = Marginal("p", ("x",), {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0})
        encoding = Encoding.build(schema, Relation.from_rows(schema, rows).columns,
                                  [marginal])
        # The four equal cells are already a uniform batch-size target.
        (target,) = prepare_targets([marginal], encoding, 1, rng)
        targets = [replace(target, weights=None)]

        class Frozen:
            latent_dim = 1

            def zero_grad(self):
                pass

            def forward(self, z, training):
                return np.linspace(0, 1, 4)[:, None]

            def backward(self, dout):
                return dout

        loss, parts = loss_and_grad(Frozen(), np.zeros((4, 1)), None, targets, 0.0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert parts["coverage"] == 0.0

    def test_loss_invariant_to_marginal_order(self):
        rng = np.random.default_rng(9)
        net, latents, points, targets = small_problem(rng)
        targets = [resample_target(t, len(latents), rng) for t in targets]
        loss_fwd, _ = loss_and_grad(net, latents, points, targets, 0.05)
        loss_rev, _ = loss_and_grad(net, latents, points, targets[::-1], 0.05)
        assert loss_fwd == pytest.approx(loss_rev, abs=1e-12)


class TestLayersDirectly:
    def test_linear_backward(self):
        rng = np.random.default_rng(3)
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss_value():
            return float(np.sum((layer.forward(x) - target) ** 2))

        out = layer.forward(x)
        layer.backward(2 * (out - target))
        for param in layer.params():
            analytic = param.grad.copy()
            param.grad[...] = 0.0
            numeric = finite_diff(loss_value, param.value)
            assert_close(analytic, numeric)

    def test_batchnorm_backward(self):
        rng = np.random.default_rng(4)
        layer = BatchNorm(3)
        x = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 3))

        def loss_value():
            return float(np.sum((layer.forward(x) - target) ** 2))

        out = layer.forward(x)
        dx = layer.backward(2 * (out - target))
        numeric_x = finite_diff(loss_value, x)
        assert_close(dx, numeric_x)

    def test_adam_moves_toward_minimum(self):
        rng = np.random.default_rng(5)
        layer = Linear(1, 1, rng)
        optimizer = Adam(layer.params(), lr=0.05)
        x = np.array([[1.0]])
        for _ in range(400):
            layer.w.grad[...] = 0.0
            layer.b.grad[...] = 0.0
            out = layer.forward(x)
            layer.backward(2 * (out - 3.0))
            optimizer.step()
        assert layer.forward(x)[0, 0] == pytest.approx(3.0, abs=1e-3)
