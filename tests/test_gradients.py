"""Finite-difference validation of every analytic gradient in the trainer."""

import numpy as np
import pytest

from openpop.catalog import AttributeDef, Marginal, Relation, SampleRelation
from openpop.encoding import Encoding
from openpop.mswg import coverage_penalty, loss_and_grad, prepare_targets
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


def small_problem(rng, batch_norm=True):
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
    targets = prepare_targets(marginals, encoding, projections=4, rng=rng)
    net = GeneratorNet(2, [6, 5], encoding.dim, encoding.categorical_blocks(),
                       rng, batch_norm=batch_norm)
    latents = rng.standard_normal((8, 2))
    points = encoding.encode_rows(sample.columns)
    return net, latents, points, targets


class TestFullLossGradient:
    @pytest.mark.parametrize("batch_norm", [True, False])
    def test_all_parameters(self, batch_norm):
        rng = np.random.default_rng(2024)
        net, latents, points, targets = small_problem(rng, batch_norm)
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
        targets = prepare_targets([marginal], encoding, 1, rng)

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
            return float(np.sum((layer.forward(x, True) - target) ** 2))

        out = layer.forward(x, True)
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
            return float(np.sum((layer.forward(x, True) - target) ** 2))

        out = layer.forward(x, True)
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
            out = layer.forward(x, True)
            layer.backward(2 * (out - 3.0))
            optimizer.step()
        assert layer.forward(x, False)[0, 0] == pytest.approx(3.0, abs=1e-3)
