"""Marginal-constrained sliced-Wasserstein generator.

Trains a feed-forward generator from a biased sample plus 1-/2-attribute
population marginals. The loss is a sum of exact 1-D transport distances:
one term per 1-D numeric marginal, an average over random unit projections
for every marginal whose encoded subspace is wider than one dimension, and
a coverage penalty pulling generated points toward the sample manifold.

Population marginals are normalized to probability measures; during
training each is resampled into a batch-sized empirical distribution per
step so the transport terms compare equal-sized point sets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import Marginal, Relation, SampleRelation, build_marginal, content_key
from .encoding import AttrEncoding, Encoding
from .errors import (
    ConfigError,
    EmptyDistributionError,
    EmptySampleError,
    NonFiniteLossError,
    NoPopulationMarginalsError,
)
from .net import Adam, GeneratorNet
from .transport import aligned_w1_grad, sample_projections, wasserstein_1d_grad

GENERATOR_FORMAT_TAG = "openpop-generator v1"


@dataclass
class TrainConfig:
    coverage_weight: float = 0.04      # lambda: marginal fit vs sample structure
    latent_dim: int = 2
    projections: int = 100             # per sliced marginal
    batch_size: int = 500
    epochs: int = 30
    learning_rate: float = 1e-3
    plateau_factor: float = 0.1
    plateau_patience: int = 5
    plateau_min_improvement: float = 1e-4
    seed: int = 0
    layers: tuple[int, ...] = (100, 100, 100)
    batch_norm: bool = True
    coverage_subsample: int = 2048

    def __post_init__(self):
        if self.coverage_weight < 0:
            raise ConfigError("coverage_weight must be >= 0")
        if self.projections < 1:
            raise ConfigError("projections must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        self.layers = tuple(int(x) for x in self.layers)


# --- marginal targets --------------------------------------------------------


@dataclass
class MarginalTarget:
    """A marginal mapped into the encoded space, ready for transport terms:
    points in its k-dim subspace, compared through p unit projections (the
    identity, one projection, when k is 1)."""

    dims: np.ndarray
    points: np.ndarray          # (cells, k)
    weights: np.ndarray | None  # None means uniform (resampled) masses
    projections: np.ndarray     # (p, k) unit rows
    label: str = ""

    def mass(self) -> np.ndarray:
        if self.weights is None:
            return np.full(len(self.points), 1.0 / len(self.points))
        return self.weights


def augment_marginals(pop_marginals: list[Marginal],
                      sample: SampleRelation) -> list[Marginal]:
    """Add 1-D sample marginals for attributes no population marginal covers,
    rescaled so every marginal carries the population total."""
    if not pop_marginals:
        raise NoPopulationMarginalsError(
            "at least one population marginal is required (population size "
            "is unknowable without one)")
    covered = set()
    for marginal in pop_marginals:
        covered.update(marginal.attributes)
    total = pop_marginals[0].total()
    out = list(pop_marginals)
    for attr in sample.schema:
        if attr.name in covered:
            continue
        marginal = build_marginal(pop_marginals[0].owner, (attr.name,), sample,
                                  name=f"sample:{attr.name}")
        scale = total / marginal.total()
        out.append(replace(marginal, cells={k: v * scale
                                            for k, v in marginal.cells.items()}))
    return out


def prepare_targets(marginals: list[Marginal], encoding: Encoding,
                    projections: int, rng: np.random.Generator) -> list[MarginalTarget]:
    targets = []
    for marginal in marginals:
        dims = encoding.marginal_dims(marginal)
        masses = np.asarray([float(v) for v in marginal.cells.values()])
        keep = masses > 0
        masses = masses[keep] / masses[keep].sum()
        keys = [k for k, m in zip(marginal.cells, keep) if m]
        points = np.vstack([encoding.encode_cell(marginal, k) for k in keys])
        omega = (np.ones((1, 1)) if len(dims) == 1
                 else sample_projections(projections, len(dims), rng))
        targets.append(MarginalTarget(dims, points, masses, omega,
                                      label="+".join(marginal.attributes)))
    return targets


def resample_target(target: MarginalTarget, size: int,
                    rng: np.random.Generator) -> MarginalTarget:
    """Batch-sized empirical redraw of the marginal (uniform weights)."""
    idx = rng.choice(len(target.points), size=size, p=target.mass())
    return replace(target, points=target.points[idx], weights=None)


# --- loss ----------------------------------------------------------------------


def coverage_penalty(batch: np.ndarray, refs: np.ndarray):
    """Mean distance from each generated point to its nearest reference point,
    plus the gradient with respect to the batch."""
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


def transport_term(target: MarginalTarget, q: np.ndarray):
    """(loss, dloss/dq) of one marginal's transport term against batch slice q."""
    omega = target.projections
    p = len(omega)
    proj_targets = target.points @ omega.T
    proj_batch = q @ omega.T
    if target.weights is None and proj_targets.shape[0] == proj_batch.shape[0]:
        w_cols, grad_proj = aligned_w1_grad(proj_targets, proj_batch)
        return float(w_cols.sum() / p), (grad_proj / p) @ omega
    total = 0.0
    grad_proj = np.zeros_like(proj_batch)
    for j in range(p):
        w, g = wasserstein_1d_grad(proj_targets[:, j], target.weights,
                                   proj_batch[:, j])
        total += w / p
        grad_proj[:, j] = g / p
    return total, grad_proj @ omega


def loss_and_grad(net: GeneratorNet, latents: np.ndarray,
                  sample_points: np.ndarray | None,
                  targets: list[MarginalTarget],
                  coverage_weight: float):
    """Full training loss and its parameter gradients (accumulated on the net).

    Softmax blocks stay continuous here; hardening happens only at
    generation time.
    """
    net.zero_grad()
    out = net.forward(latents, training=True)
    dout = np.zeros_like(out)
    transport = 0.0
    for target in targets:
        w, grad = transport_term(target, out[:, target.dims])
        transport += w
        dout[:, target.dims] += grad
    coverage = 0.0
    if coverage_weight > 0 and sample_points is not None:
        coverage, cov_grad = coverage_penalty(out, sample_points)
        dout += coverage_weight * cov_grad
    loss = transport + coverage_weight * coverage
    if not math.isfinite(loss):
        raise NonFiniteLossError(
            f"non-finite loss (transport={transport}, coverage={coverage})")
    net.backward(dout)
    return loss, {"transport": transport, "coverage": coverage, "loss": loss}


# --- training ------------------------------------------------------------------


@dataclass
class TrainedGenerator:
    net: GeneratorNet
    encoding: Encoding
    attr_names: list[str]
    config: TrainConfig
    population_total: float
    diagnostics: dict = field(default_factory=dict)


def train(sample: SampleRelation, marginals: list[Marginal],
          cfg: TrainConfig | None = None,
          log=None) -> TrainedGenerator:
    """Train a generator on a sample plus population marginals.

    One epoch is ceil(population_total / batch_size) minibatch steps; the
    learning rate decays by `plateau_factor` after `plateau_patience` epochs
    without relative improvement, and the parameters with the best epoch
    loss are the ones returned.
    """
    cfg = cfg or TrainConfig()
    if not len(sample):
        raise EmptySampleError(f"sample '{sample.name}' has no rows")
    rng = np.random.default_rng(cfg.seed)
    augmented = augment_marginals(marginals, sample)
    encoding = Encoding.build(sample.schema, sample.columns, augmented)
    targets = prepare_targets(augmented, encoding, cfg.projections, rng)
    sample_points = encoding.encode_rows(sample.columns)
    net = GeneratorNet(cfg.latent_dim, list(cfg.layers), encoding.dim,
                       encoding.categorical_blocks(), rng, cfg.batch_norm)
    population_total = augmented[0].total()
    steps_per_epoch = max(1, math.ceil(population_total / cfg.batch_size))
    optimizer = Adam(net.params(), lr=cfg.learning_rate)

    best_loss = math.inf
    best_snapshot = net.snapshot()
    stall = 0
    history = []
    for epoch in range(cfg.epochs):
        losses = []
        for _ in range(steps_per_epoch):
            latents = rng.standard_normal((cfg.batch_size, cfg.latent_dim))
            step_targets = [resample_target(t, cfg.batch_size, rng)
                            for t in targets]
            if len(sample_points) > cfg.coverage_subsample:
                pick = rng.choice(len(sample_points), size=cfg.coverage_subsample,
                                  replace=False)
                refs = sample_points[pick]
            else:
                refs = sample_points
            loss, _ = loss_and_grad(net, latents, refs, step_targets,
                                    cfg.coverage_weight)
            optimizer.step()
            losses.append(loss)
        epoch_loss = float(np.mean(losses))
        history.append((epoch_loss, optimizer.lr))
        if log is not None:
            log(f"epoch {epoch + 1}/{cfg.epochs}  loss {epoch_loss:.6f}  "
                f"lr {optimizer.lr:g}")
        improved = epoch_loss < best_loss * (1 - cfg.plateau_min_improvement)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_snapshot = net.snapshot()
        if improved:
            stall = 0
        else:
            stall += 1
            if stall >= cfg.plateau_patience:
                optimizer.lr *= cfg.plateau_factor
                stall = 0
    net.restore(best_snapshot)
    return TrainedGenerator(
        net, encoding, [a.name for a in sample.schema], cfg, population_total,
        diagnostics={
            "epochs": cfg.epochs,
            "steps_per_epoch": steps_per_epoch,
            "best_loss": None if math.isinf(best_loss) else best_loss,
            "param_count": net.num_params(),
            "history": history,
        })


def generate(trained: TrainedGenerator, n: int, rng) -> Relation:
    """Draw n tuples: forward pass in inference mode, categorical blocks
    hardened by argmax, numeric dimensions inverse-scaled."""
    latents = rng.standard_normal((n, trained.net.latent_dim))
    out = trained.net.forward(latents, training=False)
    return trained.encoding.decode_rows(out, trained.attr_names)


# --- persistence -----------------------------------------------------------------


def save_generator(trained: TrainedGenerator, path) -> None:
    record = {
        "net": trained.net.state(),
        "encoding": [{
            "name": a.name, "kind": a.kind, "offset": a.offset, "width": a.width,
            "lo": a.lo, "hi": a.hi, "values": list(a.values),
        } for a in trained.encoding.attrs],
        "attr_names": trained.attr_names,
        "population_total": trained.population_total,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in vars(trained.config).items()},
        "diagnostics": {k: v for k, v in trained.diagnostics.items()
                        if k != "history"},
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(GENERATOR_FORMAT_TAG + "\n")
        handle.write(json.dumps(record) + "\n")


def load_generator(path) -> TrainedGenerator:
    with open(path, "r", encoding="utf-8") as handle:
        tag = handle.readline().rstrip("\n")
        if tag != GENERATOR_FORMAT_TAG:
            raise ConfigError(f"expected '{GENERATOR_FORMAT_TAG}' on line 1")
        record = json.loads(handle.read())
    encoding = Encoding([AttrEncoding(a["name"], a["kind"], a["offset"],
                                      a["width"], a["lo"], a["hi"],
                                      tuple(a["values"]))
                         for a in record["encoding"]])
    cfg_fields = dict(record["config"])
    cfg_fields["layers"] = tuple(cfg_fields["layers"])
    return TrainedGenerator(
        GeneratorNet.from_state(record["net"]), encoding, record["attr_names"],
        TrainConfig(**cfg_fields), record["population_total"],
        dict(record["diagnostics"]))


def fingerprint(sample: SampleRelation, marginals: list[Marginal],
                cfg: TrainConfig) -> str:
    """Content hash used to cache trained generators per (sample, marginal
    set, config)."""
    return content_key(sample, marginals, sample.name, sorted(vars(cfg).items()))
