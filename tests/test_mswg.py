"""Generator: encoding, marginal augmentation, training, generation."""

from dataclasses import replace

import numpy as np
import pytest

from openpop.catalog import AttributeDef, Marginal, SampleRelation
from openpop.encoding import Encoding
from openpop.errors import ConfigError, NonFiniteLossError, NoPopulationMarginalsError
from openpop.mswg import (
    TrainConfig,
    augment_marginals,
    fingerprint,
    generate,
    load_generator,
    prepare_targets,
    resample_target,
    save_generator,
    train,
)
from openpop.net import BatchNorm, GeneratorNet, Linear, _softmax
from openpop.util import apply_kv, read_kv_pairs


def mixed_sample(n=60, seed=0):
    rng = np.random.default_rng(seed)
    schema = [AttributeDef("x", "numeric"),
              AttributeDef("c", "categorical", domain=["red", "blue"])]
    rows = [(float(v), c) for v, c in zip(rng.uniform(0, 4, n),
                                          rng.choice(["red", "blue"], n))]
    return SampleRelation.from_rows(schema, rows, np.ones(n), name="s")


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(coverage_weight=-1)
        with pytest.raises(ConfigError):
            TrainConfig(projections=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)

    def test_from_file(self, tmp_path):
        path = tmp_path / "train.conf"
        path.write_text("epochs = 3\nlayers = 8 8\ncoverage_weight = 0.5\n"
                        "# comment\nbatch_norm = false\n", encoding="utf-8")
        cfg = TrainConfig(**apply_kv(TrainConfig(), read_kv_pairs(path)))
        assert cfg.epochs == 3 and cfg.layers == (8, 8)
        assert cfg.coverage_weight == 0.5 and cfg.batch_norm is False


class TestEncoding:
    def test_round_trip(self):
        sample = mixed_sample()
        encoding = Encoding.build(sample.schema, sample.columns)
        matrix = encoding.encode_rows(sample.columns)
        assert matrix.shape == (len(sample), 3)
        decoded = encoding.decode_rows(matrix, ["x", "c"])
        for got, want in zip(decoded.to_rows(), sample.to_rows()):
            assert got[0] == pytest.approx(want[0], abs=1e-9)
            assert got[1] == want[1]

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
                             np.random.default_rng(1), True)
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
        rows = generate(trained, 50, np.random.default_rng(0)).to_rows()
        assert len(rows) == 50
        for x, c in rows:
            assert c in ("red", "blue")
            assert isinstance(x, float)

    def test_generate_zero_rows(self):
        sample = mixed_sample()
        trained = train(sample, self.marginals(), self.small_config(epochs=0))
        assert generate(trained, 0, np.random.default_rng(0)).to_rows() == []

    def test_generate_deterministic_given_seed(self):
        sample = mixed_sample()
        trained = train(sample, self.marginals(), self.small_config())
        a = generate(trained, 20, np.random.default_rng(5)).to_rows()
        b = generate(trained, 20, np.random.default_rng(5)).to_rows()
        assert a == b

    def test_non_finite_loss_detected(self):
        sample = mixed_sample()
        trained = train(sample, self.marginals(), self.small_config(epochs=1))
        trained.net.params()[0].value[...] = np.inf
        rng = np.random.default_rng(0)
        encoding = trained.encoding
        targets = prepare_targets(self.marginals(), encoding, 2, rng)
        from openpop.mswg import loss_and_grad
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLossError):
            loss_and_grad(trained.net, rng.standard_normal((8, 2)), None,
                          targets, 0.0)

    def test_plateau_decays_learning_rate(self):
        sample = mixed_sample()
        cfg = self.small_config(epochs=12, plateau_patience=2,
                                plateau_min_improvement=0.9)
        trained = train(sample, self.marginals(), cfg)
        rates = [lr for _, lr in trained.diagnostics["history"]]
        assert rates[-1] < rates[0]


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        sample = mixed_sample()
        marginals = [Marginal("p", ("x",), {0: 50.0, 4: 50.0}),
                     Marginal("p", ("c",), {"red": 60.0, "blue": 40.0})]
        cfg = TrainConfig(coverage_weight=0.01, latent_dim=2, projections=4,
                          batch_size=8, epochs=2, layers=(8,), seed=0)
        trained = train(sample, marginals, cfg)
        path = tmp_path / "gen.opg"
        save_generator(trained, path)
        loaded = load_generator(path)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        assert (generate(trained, 10, rng_a).to_rows()
                == generate(loaded, 10, rng_b).to_rows())

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
        assert fingerprint(sample, marginals, cfg) == base


def reference_inference(net: GeneratorNet, z: np.ndarray) -> np.ndarray:
    """The generation-time forward pass in its original, allocating form:
    the oracle for the in-place layers."""
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
    out = x.copy()
    for offset, width in net.categorical_blocks:
        out[:, offset:offset + width] = _softmax(x[:, offset:offset + width])
    return out


class TestInference:
    @pytest.mark.parametrize("batch_norm", [True, False])
    @pytest.mark.parametrize("blocks", [[], [(1, 3), (4, 2)]])
    def test_matches_reference_bytes_and_keeps_latents(self, batch_norm, blocks):
        rng = np.random.default_rng(11)
        net = GeneratorNet(3, [16, 8], 6, blocks, rng, batch_norm=batch_norm)
        for layer in net.layers:
            for param in layer.params():
                param.value = rng.normal(size=param.value.shape)
            if isinstance(layer, BatchNorm):
                layer.running_mean = rng.normal(size=layer.running_mean.shape)
                layer.running_var = rng.uniform(0.1, 3.0, layer.running_var.shape)
        z = rng.normal(size=(200, 3))
        before = z.copy()
        want = reference_inference(net, z)
        got = net.forward(z, False)
        assert got.tobytes() == want.tobytes()
        assert z.tobytes() == before.tobytes()
