"""Generator: encoding, marginal augmentation, training, generation."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import openpop.mswg
from openpop.catalog import AttributeDef, Marginal, NumericBinning, SampleRelation
from openpop.encoding import Encoding
from openpop.engine import Engine
from openpop.errors import ConfigError, NonFiniteLossError, NoPopulationMarginalsError
from openpop.mswg import (
    TrainConfig,
    augment_marginals,
    fingerprint,
    generate,
    prepare_targets,
    resample_target,
    train,
)
from openpop.net import BatchNorm, GeneratorNet, Linear, _softmax
from openpop.predicate import Comparison, Predicate
from openpop.util import read_kv_pairs


def mixed_sample(n=60, seed=0):
    rng = np.random.default_rng(seed)
    schema = [AttributeDef("x", "numeric"),
              AttributeDef("c", "categorical", domain=["red", "blue"])]
    rows = [(float(v), c) for v, c in zip(rng.uniform(0, 4, n),
                                          rng.choice(["red", "blue"], n))]
    return SampleRelation.from_rows(schema, rows, np.ones(n), name="s")


def latents(trained, n, seed):
    """n latent rows for `generate`, drawn from a fresh seeded rng."""
    return np.random.default_rng(seed).standard_normal((n, trained.net.latent_dim))


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(coverage_weight=-1)
        with pytest.raises(ConfigError):
            TrainConfig(projections=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)
        for bad in ({"layers": (0,)}, {"layers": (8, 0)}, {"layers": (8, -2)},
                    {"coverage_weight": float("nan")},
                    {"coverage_weight": float("inf")},
                    {"learning_rate": -1.0}, {"learning_rate": 0.0},
                    {"learning_rate": float("nan")}, {"learning_rate": float("inf")}):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)

    def test_from_file(self, tmp_path):
        path = tmp_path / "train.conf"
        path.write_text("epochs = 3\nlayers = 8 8\ncoverage_weight = 0.5\n"
                        "# comment\nlearning_rate = 0.02\n", encoding="utf-8")
        engine = Engine()
        for key, value in read_kv_pairs(path).items():
            engine.set_config(f"train.{key}", value)
        cfg = engine.options.train_config
        assert cfg.epochs == 3 and cfg.layers == (8, 8)
        assert cfg.coverage_weight == 0.5 and cfg.learning_rate == 0.02


class TestEncoding:
    def test_round_trip(self):
        sample = mixed_sample()
        encoding = Encoding.build(sample.schema, sample.columns)
        matrix = encoding.encode_rows(sample.columns)
        assert matrix.shape == (len(sample), 3)
        decoded = encoding.decode_rows(matrix)
        for got, want in zip(decoded.to_rows(), sample.to_rows()):
            assert got[0] == pytest.approx(want[0], abs=1e-9)
            assert got[1] == want[1]

    def test_declared_bounds_widen_the_range(self):
        sample = mixed_sample()
        schema = [AttributeDef("x", "numeric", lo=-10.0, hi=50.0), sample.schema[1]]
        encoding = Encoding.build(schema, sample.columns)
        x = encoding.by_name["x"]
        assert (x.lo, x.hi) == (-10.0, 50.0)
        matrix = np.zeros((2, encoding.dim))
        matrix[:, x.offset] = [0.0, 1.0]
        assert encoding.decode_rows(matrix).columns["x"].tolist() == [-10.0, 50.0]

    def test_one_hot_blocks_sum_to_one(self):
        sample = mixed_sample()
        encoding = Encoding.build(sample.schema, sample.columns)
        matrix = encoding.encode_rows(sample.columns)
        (offset, width), = encoding.categorical_blocks()
        assert np.allclose(matrix[:, offset:offset + width].sum(axis=1), 1.0)

    def test_marginal_values_extend_domain_and_range(self):
        sample = mixed_sample()
        marginals = [
            Marginal("p", ("x",), {9: 1.0}),  # beyond the sample's range
            Marginal("p", ("c",), {"red": 1.0, "green": 2.0}),
        ]
        encoding = Encoding.build(sample.schema, sample.columns, marginals)
        assert encoding.by_name["x"].hi == 9.0
        assert "green" in encoding.by_name["c"].values


def per_cell_point(encoding, marginal, key):
    """A marginal cell encoded on its own, as `prepare_targets` once did it
    key by key: the oracle for the column-wise encoding."""
    segments = []
    for attr, part in zip(marginal.attributes,
                          key if isinstance(key, tuple) else (key,)):
        enc = encoding.by_name[attr]
        if enc.kind == "numeric":
            binning = marginal.binnings.get(attr)
            if binning is None:
                pos = float(part)
            else:
                width = (binning.hi - binning.lo) / binning.nbins
                pos = binning.lo + (part + 0.5) * width
            span = enc.hi - enc.lo
            segments.append(np.array([(float(pos) - enc.lo) / span
                                      if span > 0 else 0.5]))
        else:
            onehot = np.zeros(enc.width)
            onehot[enc.values.index(part)] = 1.0
            segments.append(onehot)
    return np.concatenate(segments)


class TestTargetPoints:
    def test_equal_the_per_cell_encoding_bytes(self):
        rng = np.random.default_rng(4)
        schema = [AttributeDef("x", "numeric"), AttributeDef("n", "numeric"),
                  AttributeDef("c", "categorical", domain=["red", "blue"])]
        rows = [(float(x), float(n), c) for x, n, c in zip(
            rng.uniform(0.1, 3.7, 40), rng.integers(2, 9, 40),
            rng.choice(["red", "blue"], 40))]
        sample = SampleRelation.from_rows(schema, rows, np.ones(40), name="s")
        binning = {"x": NumericBinning(-0.3, 4.4, 7)}
        marginals = [
            Marginal("p", ("x",), {i: float(i % 3) for i in range(7)}, binning),
            Marginal("p", ("n",), {2: 3.0, 11: 1.5, -1: 0.25, 5: 0.0}),
            Marginal("p", ("c",), {"blue": 2.0, "green": 1.0, "red": 4.0}),
            Marginal("p", ("x", "c"), {(6, "red"): 1.0, (0, "green"): 2.0,
                                       (3, "blue"): 0.0}, binning),
            Marginal("p", ("c", "n"), {("red", 7): 5.0, ("blue", 12): 0.5}),
            Marginal("p", ("n", "x"), {(3, 2): 1.0, (2, 5): 3.0}, binning),
        ]
        encoding = Encoding.build(schema, sample.columns, marginals)
        targets = prepare_targets(marginals, encoding, 5, np.random.default_rng(0))
        for marginal, target in zip(marginals, targets):
            masses = np.asarray([float(v) for v in marginal.cells.values()])
            keep = masses > 0
            points = np.vstack([per_cell_point(encoding, marginal, key)
                                for key, kept in zip(marginal.cells, keep) if kept])
            assert target.points.tobytes() == points.tobytes()
            assert target.points.shape == points.shape
            assert target.weights.tobytes() == (masses[keep] / masses[keep].sum()).tobytes()

    def test_encode_rows_leaves_absent_attributes_zero(self):
        sample = mixed_sample()
        encoding = Encoding.build(sample.schema, sample.columns)
        matrix = encoding.encode_rows({"c": np.array(["blue", "red"], dtype=object)})
        assert matrix.tolist() == [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]


class TestAugmentMarginals:
    def test_no_population_marginals(self):
        with pytest.raises(NoPopulationMarginalsError):
            augment_marginals([], mixed_sample())

    def test_fully_covered_is_unchanged(self):
        sample = mixed_sample()
        marginals = [Marginal("p", ("x", "c"), {(1, "red"): 5.0})]
        assert augment_marginals(marginals, sample) == marginals

    def test_uncovered_attribute_gets_sample_marginal(self):
        sample = mixed_sample()
        pop = Marginal("p", ("x",), {1: 60.0, 2: 60.0})
        out = augment_marginals([pop], sample)
        assert len(out) == 2
        added = out[1]
        assert added.attributes == ("c",)
        # rescaled to the population total
        assert added.total() == pytest.approx(pop.total())

    def test_added_marginal_matches_sample_shares(self):
        sample = mixed_sample(seed=3)
        pop = Marginal("p", ("x",), {1: 100.0})
        (added,) = augment_marginals([pop], sample)[1:]
        reds = sum(1 for row in sample.to_rows() if row[1] == "red")
        assert added.cells["red"] == pytest.approx(100.0 * reds / len(sample))


class TestResampling:
    def test_resample_shares_converge(self):
        rng = np.random.default_rng(0)
        sample = mixed_sample()
        marginal = Marginal("p", ("c",), {"red": 75.0, "blue": 25.0})
        encoding = Encoding.build(sample.schema, sample.columns, [marginal])
        (target,) = prepare_targets([marginal], encoding, 2, rng)
        drawn = resample_target(target, 4000, rng)
        assert drawn.weights is None and len(drawn.points) == 4000
        red_share = drawn.points[:, 0].mean()  # one-hot red column
        assert red_share == pytest.approx(0.75, abs=0.03)


class TestTraining:
    def marginals(self):
        return [Marginal("p", ("x",), {0: 25.0, 1: 25.0, 2: 25.0, 3: 25.0}),
                Marginal("p", ("c",), {"red": 60.0, "blue": 40.0})]

    def small_config(self, **overrides):
        base = dict(coverage_weight=0.01, latent_dim=2, projections=8,
                    batch_size=16, epochs=4, layers=(16, 16), seed=1)
        base.update(overrides)
        return TrainConfig(**base)

    def test_epochs_zero_returns_initialized_net(self):
        sample = mixed_sample()
        trained = train(sample, self.marginals(), self.small_config(epochs=0))
        fresh = GeneratorNet(2, [16, 16], trained.encoding.dim,
                             trained.encoding.categorical_blocks(),
                             np.random.default_rng(1))
        # same rng consumption order up to net construction
        assert trained.diagnostics["best_loss"] is None
        assert trained.net.num_params() == fresh.num_params()

    def test_fixed_seed_bit_identical(self):
        sample = mixed_sample()
        cfg = self.small_config()
        a = train(sample, self.marginals(), cfg)
        b = train(sample, self.marginals(), cfg)
        for pa, pb in zip(a.net.params(), b.net.params()):
            assert np.array_equal(pa.value, pb.value)

    def test_loss_decreases_early(self):
        sample = mixed_sample()
        trained = train(sample, self.marginals(), self.small_config(epochs=5))
        history = [loss for loss, _ in trained.diagnostics["history"]]
        assert history[-1] < history[0]

    def test_generate_values_in_domain(self):
        sample = mixed_sample()
        trained = train(sample, self.marginals(), self.small_config())
        rows = generate(trained, latents(trained, 50, 0)).to_rows()
        assert len(rows) == 50
        for x, c in rows:
            assert c in ("red", "blue")
            assert isinstance(x, float)

    def test_generate_zero_rows(self):
        sample = mixed_sample()
        trained = train(sample, self.marginals(), self.small_config(epochs=0))
        assert generate(trained, latents(trained, 0, 0)).to_rows() == []

    def test_generate_deterministic_given_seed(self):
        sample = mixed_sample()
        trained = train(sample, self.marginals(), self.small_config())
        a = generate(trained, latents(trained, 20, 5)).to_rows()
        b = generate(trained, latents(trained, 20, 5)).to_rows()
        assert a == b

    def test_non_finite_loss_detected(self):
        sample = mixed_sample()
        trained = train(sample, self.marginals(), self.small_config(epochs=1))
        trained.net.params()[0].value[...] = np.inf
        rng = np.random.default_rng(0)
        encoding = trained.encoding
        targets = [resample_target(t, 8, rng)
                   for t in prepare_targets(self.marginals(), encoding, 2, rng)]
        from openpop.mswg import loss_and_grad
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLossError):
            loss_and_grad(trained.net, rng.standard_normal((8, 2)), None,
                          targets, 0.0)

    def test_plateau_decays_learning_rate(self, monkeypatch):
        monkeypatch.setattr(openpop.mswg, "PLATEAU_PATIENCE", 2)
        monkeypatch.setattr(openpop.mswg, "PLATEAU_MIN_IMPROVEMENT", 0.9)
        sample = mixed_sample()
        trained = train(sample, self.marginals(), self.small_config(epochs=12))
        rates = [lr for _, lr in trained.diagnostics["history"]]
        assert rates[-1] < rates[0]


class TestPersistence:
    def test_fingerprint_sensitivity(self):
        sample = mixed_sample()
        marginals = [Marginal("p", ("x",), {0: 1.0})]
        cfg = TrainConfig()
        base = fingerprint(sample, marginals, cfg)
        assert fingerprint(sample, marginals, cfg) == base
        other_cfg = TrainConfig(epochs=31)
        assert fingerprint(sample, marginals, other_cfg) != base
        bigger = Marginal("p", ("x",), {0: 2.0})
        assert fingerprint(sample, [bigger], cfg) != base
        weights = sample.weights.copy()
        weights[3] = 2.0
        assert fingerprint(replace(sample, weights=weights), marginals, cfg) != base
        colours = sample.columns["c"].copy()
        colours[5] = "blue" if colours[5] == "red" else "red"
        recoloured = replace(sample, columns={**sample.columns, "c": colours})
        assert fingerprint(recoloured, marginals, cfg) != base
        view = Predicate((Comparison("c", "=", "red"),))
        assert fingerprint(sample, marginals, cfg, view) != base
        assert fingerprint(sample, marginals, cfg) == base


def reference_inference(net: GeneratorNet, z: np.ndarray) -> np.ndarray:
    """The generation-time forward pass in batch norm's own formula, in
    allocating form: the oracle, to rounding, for the folded layers."""
    x = np.asarray(z, dtype=float)
    for layer in net.layers:
        if isinstance(layer, Linear):
            x = x @ layer.w.value + layer.b.value
        elif isinstance(layer, BatchNorm):
            mu, var = layer.running_mean, layer.running_var
            inv_std = 1.0 / np.sqrt(var + layer.eps)
            xhat = (x - mu) * inv_std
            x = layer.gamma.value * xhat + layer.beta.value
        else:
            x = np.maximum(x, 0.0)
    return _softmax_heads(net, x)


def folded_reference_inference(net: GeneratorNet, z: np.ndarray) -> np.ndarray:
    """The generation-time forward pass with each Linear -> BatchNorm -> Relu
    folded into one affine map, in allocating form: the byte oracle for
    `GeneratorNet.forward(z, False)`."""
    x = np.asarray(z, dtype=float)
    *hidden, last = net.layers
    for linear, norm in zip(hidden[::3], hidden[1::3]):
        scale = norm.gamma.value / np.sqrt(norm.running_var + norm.eps)
        w = linear.w.value * scale
        b = (linear.b.value - norm.running_mean) * scale + norm.beta.value
        x = np.maximum(x @ w + b, 0.0)
    return _softmax_heads(net, x @ last.w.value + last.b.value)


def _softmax_heads(net: GeneratorNet, x: np.ndarray) -> np.ndarray:
    out = x.copy()
    for offset, width in net.categorical_blocks:
        out[:, offset:offset + width] = _softmax(x[:, offset:offset + width])
    return out


def random_net(hidden, blocks, rng) -> GeneratorNet:
    """A 3 -> hidden -> 6 net with every tensor drawn from `rng`, running
    variances log-uniform over [1e-3, 1e3]."""
    net = GeneratorNet(3, hidden, 6, blocks, rng)
    for layer in net.layers:
        for param in layer.params():
            param.value = rng.normal(size=param.value.shape)
        if isinstance(layer, BatchNorm):
            layer.running_mean = rng.normal(size=layer.running_mean.shape)
            layer.running_var = 10.0 ** rng.uniform(-3, 3, layer.running_var.shape)
    return net


class TestInference:
    @pytest.mark.parametrize("blocks", [[], [(1, 3), (4, 2)]])
    def test_matches_reference_bytes_and_keeps_latents(self, blocks):
        rng = np.random.default_rng(11)
        # `TrainConfig(layers=())` builds a net with no hidden layers.
        for hidden in ([16, 8], []):
            net = random_net(hidden, blocks, rng)
            z = rng.normal(size=(200, 3))
            before = z.copy()
            want = folded_reference_inference(net, z)
            got = net.forward(z, False)
            assert got.tobytes() == want.tobytes()
            assert z.tobytes() == before.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_batch_norm_formula(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net([16, 8], [(1, 3), (4, 2)], rng)
        z = rng.normal(size=(200, 3))
        np.testing.assert_allclose(net.forward(z, False), reference_inference(net, z),
                                   rtol=1e-12, atol=1e-12)

    def test_writes_no_tensor(self):
        rng = np.random.default_rng(12)
        net = random_net([16, 8], [(4, 2)], rng)
        z = rng.normal(size=(50, 3))
        tensors = [t.tobytes() for t in net.snapshot()]
        latents = z.tobytes()
        net.forward(z, False)
        assert [t.tobytes() for t in net.snapshot()] == tensors
        assert z.tobytes() == latents

    def test_threads_share_one_net(self):
        # More threads than cores, switching often: a write to any shared
        # array would show in some thread's bytes.
        rng = np.random.default_rng(13)
        net = random_net([64, 64], [(1, 3)], rng)
        z = rng.normal(size=(2000, 3))
        want = net.forward(z, False).tobytes()
        results, start = [], threading.Barrier(4)

        def work():
            start.wait(timeout=30)
            for _ in range(10):
                results.append(net.forward(z, False).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [want] * 40

    def test_inference_between_training_forward_and_backward(self):
        # Inference writes no cache, so `backward` still differentiates the
        # training forward before it.
        rng = np.random.default_rng(4)
        net = GeneratorNet(2, [8, 8], 5, [(2, 3)], rng)
        z, dout = rng.normal(size=(16, 2)), rng.normal(size=(16, 5))
        net.zero_grad()
        net.forward(z, True)
        net.backward(dout)
        want = [p.grad.copy() for p in net.params()]
        net.zero_grad()
        net.forward(z, True)
        net.forward(rng.normal(size=(4, 2)), False)
        net.backward(dout)
        assert [p.grad.tobytes() for p in net.params()] == [g.tobytes() for g in want]
