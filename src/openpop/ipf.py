"""Iterative proportional fitting of sample weights to population marginals.

One round is a pass over all marginals in declaration order; the pass for a
marginal rescales every tuple's weight by target(cell) / current(cell), so
that marginal is matched exactly (on cells with sample mass) before moving
on. After each round the fit has converged when every marginal's max
relative cell discrepancy (see `discrepancy`) is `<= tolerance`; a NaN
discrepancy never passes. The check visits the marginals in order and stops
at the first unmet one, except on the last allowed round, so the report
always carries every marginal's discrepancy. The counts it computes for the
first marginal are the ones the next round's first pass needs, since the
weights have not changed in between, so that pass reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import Marginal, Relation, SampleRelation
from .errors import ConfigError, EmptySampleError, StructuralZeroError

EPS = 1e-12


@dataclass
class IpfConfig:
    max_rounds: int = 1000
    tolerance: float = 1e-6
    zero_policy: str = "drop_and_renormalize"  # or "error"

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ConfigError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.zero_policy not in ("error", "drop_and_renormalize"):
            raise ConfigError(f"unknown zero_policy {self.zero_policy!r}")


@dataclass
class IpfReport:
    rounds: int
    discrepancies: list[float]  # final max relative discrepancy, per marginal
    converged: bool
    structural_zeros: list[tuple[int, object]] = field(default_factory=list)
    dropped_mass: list[float] = field(default_factory=list)

    def max_discrepancy(self) -> float:
        return max(self.discrepancies) if self.discrepancies else 0.0


def _index_cells(sample: Relation, marginal: Marginal):
    """Map target cells and sample rows into dense ids; id 0..k-1 are the
    marginal's cells, further ids are sample-only cells (implicit target 0)."""
    row_ids, keys = marginal.cell_index(sample.columns)
    targets = np.zeros(len(keys))
    targets[:len(marginal.cells)] = [float(v) for v in marginal.cells.values()]
    return keys, targets, row_ids


def discrepancy(sample: Relation, weights, marginal: Marginal) -> float:
    """Max over cells of |weighted_count - target| / max(target, eps), taken
    over the union of target cells and cells carrying sample mass."""
    weights = np.asarray(weights, dtype=float)
    _, targets, row_ids = _index_cells(sample, marginal)
    counts = np.bincount(row_ids, weights=weights, minlength=len(targets))
    return float(np.max(np.abs(counts - targets) / np.maximum(targets, EPS)))


def ipf_fit(sample: SampleRelation, marginals: list[Marginal],
            cfg: IpfConfig | None = None) -> tuple[np.ndarray, IpfReport]:
    """Fit sample weights to the given marginals; returns (weights, report)
    without mutating the sample."""
    cfg = cfg or IpfConfig()
    if not len(sample):
        raise EmptySampleError(f"sample '{sample.name}' has no rows")
    weights = np.asarray(sample.weights, dtype=float).copy()
    if weights.shape != (len(sample),):
        raise ConfigError("initial weights must align with sample rows")
    if np.any(weights < 0) or not np.any(weights > 0):
        raise EmptySampleError("initial weights must be nonnegative and not all zero")
    if not marginals:
        return weights, IpfReport(0, [], True)

    plans = []
    structural: list[tuple[int, object]] = []
    dropped: list[float] = []
    for m_pos, marginal in enumerate(marginals):
        keys, targets, row_ids = _index_cells(sample, marginal)
        occupied = np.bincount(row_ids, minlength=len(targets)) > 0
        zero_cells = [i for i, key in enumerate(keys)
                      if targets[i] > 0 and not occupied[i]]
        if zero_cells and cfg.zero_policy == "error":
            raise StructuralZeroError(
                f"marginal over {marginal.attributes} has target mass in cells "
                f"with no sample tuples: {[keys[i] for i in zero_cells[:5]]}"
                + ("..." if len(zero_cells) > 5 else ""))
        drop = 0.0
        if zero_cells:
            total = targets.sum()
            for i in zero_cells:
                drop += targets[i]
                targets[i] = 0.0
                structural.append((m_pos, keys[i]))
            remaining = targets.sum()
            if remaining <= 0:
                raise StructuralZeroError(
                    f"all target mass of marginal over {marginal.attributes} "
                    "is unreachable from the sample")
            # Rescale remaining cells so the marginal keeps its declared total;
            # otherwise round-robin totals disagree and IPF cannot converge.
            targets *= total / remaining
        dropped.append(drop)
        plans.append((targets, np.maximum(targets, EPS), row_ids))

    rounds = 0
    converged = False
    counts_first = None  # the first marginal's counts at the current weights
    while rounds < cfg.max_rounds:
        rounds += 1
        for targets, _, row_ids in plans:
            counts = (np.bincount(row_ids, weights=weights, minlength=len(targets))
                      if counts_first is None else counts_first)
            counts_first = None
            factors = np.divide(targets, counts, out=np.zeros_like(targets),
                                where=counts > 0)
            weights *= np.take(factors, row_ids)
        discs = []
        for targets, floor, row_ids in plans:
            counts = np.bincount(row_ids, weights=weights, minlength=len(targets))
            if not discs:
                counts_first = counts
            discs.append(float(np.max(np.abs(counts - targets) / floor)))
            if not discs[-1] <= cfg.tolerance and rounds < cfg.max_rounds:
                break
        if all(d <= cfg.tolerance for d in discs):
            converged = True
            break

    return weights, IpfReport(rounds, discs, converged, structural, dropped)
