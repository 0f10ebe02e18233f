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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import Marginal, Relation, SampleRelation, build_marginal, content_key
from .encoding import Encoding
from .errors import (
    ConfigError,
    EmptyDistributionError,
    EmptySampleError,
    NonFiniteLossError,
    NoPopulationMarginalsError,
)
from .net import Adam, GeneratorNet
from .transport import aligned_w1_grad, sample_projections

# Learning-rate decay on a plateau of the epoch loss (see `train`).
PLATEAU_FACTOR = 0.1
PLATEAU_PATIENCE = 5
PLATEAU_MIN_IMPROVEMENT = 1e-4
# Sample rows drawn per step as the coverage penalty's reference points.
COVERAGE_SUBSAMPLE = 2048
# Projections per aligned-kernel call in `transport_term`: its three
# buffers are then 128 columns wide (500 x 128 float64, 512 KiB each, at a
# 500-row batch) instead of one per projection. At 500 x 1000, blocks of 64
# and 128 ran equally fast; 256 and one whole block were slower.
TRANSPORT_BLOCK = 128
# Batch rows per block of `coverage_penalty`'s distance pass: a block of the
# product is 32 x 2048 float64 (512 KiB) at the full reference subsample.
# At 500 x 2048, blocks of 16 and 32 rows ran fastest; 128 was slower.
COVERAGE_BLOCK = 32


@dataclass
class TrainConfig:
    coverage_weight: float = 0.04      # lambda: marginal fit vs sample structure
    latent_dim: int = 2
    projections: int = 100             # per sliced marginal
    batch_size: int = 500
    epochs: int = 30
    learning_rate: float = 1e-3
    seed: int = 0
    layers: tuple[int, ...] = (100, 100, 100)

    def __post_init__(self):
        if not 0 <= self.coverage_weight < math.inf:
            raise ConfigError("coverage_weight must be finite and >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and > 0")
        if self.projections < 1:
            raise ConfigError("projections must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        self.layers = tuple(int(x) for x in self.layers)
        if any(width < 1 for width in self.layers):
            raise ConfigError("layers must be widths >= 1")


# --- marginal targets --------------------------------------------------------


@dataclass
class MarginalTarget:
    """A marginal mapped into the encoded space, ready for transport terms:
    points in its k-dim subspace, compared through p unit projections (the
    identity, one projection, when k is 1)."""

    dims: np.ndarray
    points: np.ndarray          # (cells, k)
    weights: np.ndarray | None  # None marks a batch-size resample_target draw
    projections: np.ndarray     # (p, k) unit rows


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
        keep = marginal.counts > 0
        masses = marginal.counts[keep] / marginal.counts[keep].sum()
        points = encoding.encode_cells(marginal)[keep]
        omega = (np.ones((1, 1)) if len(dims) == 1
                 else sample_projections(projections, len(dims), rng))
        targets.append(MarginalTarget(dims, points, masses, omega))
    return targets


def resample_target(target: MarginalTarget, size: int,
                    rng: np.random.Generator) -> MarginalTarget:
    """Batch-sized empirical redraw of the marginal by its cell masses."""
    idx = rng.choice(len(target.points), size=size, p=target.weights)
    return replace(target, points=target.points[idx], weights=None)


# --- loss ----------------------------------------------------------------------


def coverage_penalty(batch: np.ndarray, refs: np.ndarray):
    """Mean distance from each generated point to its nearest reference point,
    plus the gradient with respect to the batch.

    The product `2 batch @ refs.T` is the only batch x refs matrix: it is
    turned into squared distances in place, COVERAGE_BLOCK whole rows at a
    time. The product stays one BLAS call, since per-block products round
    differently at the BLAS tile edges; each distance is the same adds and
    subtracts in the same order as one whole-matrix expression, so the
    outputs are its bytes."""
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    refs = np.atleast_2d(np.asarray(refs, dtype=float))
    if batch.size == 0 or refs.size == 0:
        raise EmptyDistributionError("coverage penalty needs nonempty inputs")
    d2 = 2.0 * batch @ refs.T
    batch_sq = np.sum(batch ** 2, axis=1)
    refs_sq = np.sum(refs ** 2, axis=1)
    nearest = np.empty(len(batch), dtype=np.intp)
    for start in range(0, len(batch), COVERAGE_BLOCK):
        rows = slice(start, start + COVERAGE_BLOCK)
        block = d2[rows]
        np.subtract(batch_sq[rows, None] + refs_sq[None, :], block, out=block)
        np.maximum(block, 0.0, out=block)
        nearest[rows] = np.argmin(block, axis=1)
    dist = np.sqrt(d2[np.arange(len(batch)), nearest])
    grad = np.zeros_like(batch)
    hit = dist > 0
    grad[hit] = (batch[hit] - refs[nearest[hit]]) / dist[hit, None]
    grad /= len(batch)
    return float(dist.mean()), grad


def transport_term(target: MarginalTarget, q: np.ndarray):
    """(loss, dloss/dq) of one marginal's transport term against batch slice q.

    The target must be a `resample_target` draw of q's size, as every
    training step's is. The aligned kernel runs on blocks of
    TRANSPORT_BLOCK projections. Each block's gradient is written back into
    the projected targets P, which this call owns, so P and the projected
    batch Q are the only full-size arrays and the kernel's buffers are
    block-sized. The kernel sorts, gathers and scatters each column on its
    own, so the outputs are the bytes of one whole-matrix call."""
    if target.weights is not None or len(target.points) != len(q):
        raise EmptyDistributionError(f"transport term needs a target that "
                                     f"resample_target drew at batch size {len(q)}")
    omega = target.projections
    p = len(omega)
    proj_targets = target.points @ omega.T
    proj_batch = q @ omega.T
    w_cols = np.empty(p)
    # numpy averages a lone column pairwise but wider blocks row by row,
    # so a last block of one column joins the one before (same bytes).
    edges = [*range(0, max(p - 1, 1), TRANSPORT_BLOCK), p]
    for b in map(slice, edges, edges[1:]):
        w_cols[b], proj_targets[:, b] = aligned_w1_grad(proj_targets[:, b],
                                                        proj_batch[:, b])
    del proj_batch  # freed before the product below
    proj_targets /= p
    return float(w_cols.sum() / p), proj_targets @ omega


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
    config: TrainConfig
    population_total: float
    diagnostics: dict = field(default_factory=dict)


def train(sample: SampleRelation, marginals: list[Marginal],
          cfg: TrainConfig | None = None,
          log=None) -> TrainedGenerator:
    """Train a generator on a sample plus population marginals.

    One epoch is ceil(population_total / batch_size) minibatch steps; the
    learning rate decays by PLATEAU_FACTOR after PLATEAU_PATIENCE epochs
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
                       encoding.categorical_blocks(), rng)
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
            if len(sample_points) > COVERAGE_SUBSAMPLE:
                pick = rng.choice(len(sample_points), size=COVERAGE_SUBSAMPLE,
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
        improved = epoch_loss < best_loss * (1 - PLATEAU_MIN_IMPROVEMENT)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_snapshot = net.snapshot()
        if improved:
            stall = 0
        else:
            stall += 1
            if stall >= PLATEAU_PATIENCE:
                optimizer.lr *= PLATEAU_FACTOR
                stall = 0
    net.restore(best_snapshot)
    return TrainedGenerator(
        net, encoding, cfg, population_total,
        diagnostics={
            "epochs": cfg.epochs,
            "steps_per_epoch": steps_per_epoch,
            "best_loss": None if math.isinf(best_loss) else best_loss,
            "param_count": net.num_params(),
            "history": history,
        })


def generate(trained: TrainedGenerator, latents: np.ndarray) -> Relation:
    """One tuple per row of `latents`, an (n, latent_dim) array the caller
    draws with `rng.standard_normal`: one inference forward pass, which runs
    folded affine layers (each hidden batch norm folded into the Linear
    before it), categorical blocks hardened by argmax, numeric dimensions
    inverse-scaled."""
    return trained.encoding.decode_rows(trained.net.forward(latents, training=False))


def fingerprint(sample: SampleRelation, marginals: list[Marginal],
                cfg: TrainConfig, scope=None) -> str:
    """Content hash used to cache trained generators per (sample, view
    predicate `scope` whose rows train, marginal set, config)."""
    return content_key(sample, marginals, sample.name, scope,
                       sorted(vars(cfg).items()))
