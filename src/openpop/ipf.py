"""Iterative proportional fitting of sample weights to population marginals.

One round is a pass over all marginals in declaration order; the pass for a
marginal rescales every tuple's weight by target(cell) / current(cell), so
that marginal is matched exactly (on cells with sample mass) before moving
on. After each round the fit has converged when every marginal's max
relative cell discrepancy (see `discrepancy`) is `<= tolerance`; a NaN
discrepancy never passes. The check visits the marginals in order and stops
at the first unmet one, except on checkpoint rounds (every `STALL_WINDOW`th
round and the last allowed one), where it takes every marginal's
discrepancy, so the report always carries the whole vector. The counts it
computes for the first marginal are the ones the next round's first pass
needs, since the weights have not changed in between, so that pass reuses
them.

IPF reaches a fit only when some weighting of the sample's rows meets every
marginal (Csiszar 1975). When none does, for example when pair marginals
imply different totals on a shared attribute once structural zeros are
dropped, the discrepancies settle at a fixed vector while the rounds go on
moving mass between rows. So the fit also stops, and its report says it
`stalled`, at a checkpoint where no marginal's discrepancy has moved by
more than `STALL_TOLERANCE` (relative) since the previous checkpoint,
`STALL_WINDOW` rounds before. A marginal met (`<= tolerance`) at both
checkpoints counts as unmoved, since the marginal fitted last in a round is
met up to rounding and its discrepancy jitters at ~1e-15. A NaN
discrepancy never counts as unmoved. `max_rounds` stays the cap. A fit
whose discrepancies shrink by more than `STALL_TOLERANCE` over each window
never meets the rule, so it stops at the same round, with the same weights
and report, as it would without it.

Target cells that no sample tuple reaches (structural zeros) are dropped
and the marginal's other cells rescaled to its declared total; the report
lists the dropped cells and mass. The drop is array work: one gather, one
scatter of zeros and one `cumsum`, which adds the dropped mass in cell
order as a loop over the cells would (`sum()` adds pairwise, and its last
bit can differ).

Row-to-cell ids come from the sample's memo (`Relation.cell_ids`), so a
refit after INGEST indexes only the appended rows. The rounds visit only
the cells some row occupies. Each marginal's factor and mask buffers are
allocated once per fit, so a round allocates only its bincounts and
gathers. Every sum and product is taken in the same order as in the plain
loop, so the weights are bit-for-bit those it gives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .catalog import Marginal, Relation, SampleRelation
from .errors import ConfigError, EmptySampleError, StructuralZeroError

EPS = 1e-12
# A fit stops as stalled when, at a check every STALL_WINDOW rounds, no
# unmet marginal's discrepancy has moved by more than STALL_TOLERANCE
# (relative) since the previous check.
STALL_WINDOW = 10
STALL_TOLERANCE = 1e-3


@dataclass
class IpfConfig:
    max_rounds: int = 1000
    tolerance: float = 1e-6

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ConfigError(f"tolerance must be positive, got {self.tolerance}")
        if self.tolerance == np.inf:  # every fit would stop, "converged", after round 1
            raise ConfigError("tolerance must be finite, got inf")
        if self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")


@dataclass
class IpfReport:
    rounds: int
    discrepancies: list[float]  # final max relative discrepancy, per marginal
    converged: bool
    structural_zeros: list[tuple[int, object]] = field(default_factory=list)
    dropped_mass: list[float] = field(default_factory=list)
    stalled: bool = False  # stopped by the stall rule, not by max_rounds

    def max_discrepancy(self) -> float:
        return max(self.discrepancies) if self.discrepancies else 0.0


def discrepancy(sample: Relation, weights, marginal: Marginal) -> float:
    """Max over cells of |weighted_count - target| / max(target, eps), taken
    over the union of target cells and cells carrying sample mass (target 0)."""
    weights = np.asarray(weights, dtype=float)
    row_ids, keys = sample.cell_ids(marginal)
    targets = marginal.targets(len(keys))
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
        row_ids, keys = sample.cell_ids(marginal)
        targets = marginal.targets(len(keys))
        occupied = np.bincount(row_ids, minlength=len(targets)) > 0
        zero_cells = np.flatnonzero((targets > 0) & ~occupied)
        drop = 0.0
        if len(zero_cells):
            total = targets.sum()
            drop = np.cumsum(targets[zero_cells])[-1]  # summed in cell order
            targets[zero_cells] = 0.0
            structural.extend(zip(itertools.repeat(m_pos),
                                  map(keys.__getitem__, zero_cells.tolist())))
            remaining = targets.sum()
            if remaining <= 0:
                raise StructuralZeroError(
                    f"all target mass of marginal over {marginal.attributes} "
                    "is unreachable from the sample")
            # Rescale remaining cells so the marginal keeps its declared total;
            # otherwise round-robin totals disagree and IPF cannot converge.
            targets *= total / remaining
        dropped.append(drop)
        # Rounds visit only the occupied cells, renumbered densely: each keeps
        # its rows in order, so its counts are unchanged, and an unoccupied
        # cell's |count - target| is 0 once structural zeros are dropped.
        targets = targets[occupied]
        row_ids = (np.cumsum(occupied) - 1)[row_ids]
        # Per-fit buffers: the factors (the check's scratch too) and live mask.
        plans.append((targets, np.maximum(targets, EPS), row_ids,
                      np.empty_like(targets), np.empty(len(targets), dtype=bool)))

    rounds = 0
    converged = stalled = False
    counts_first = None  # the first marginal's counts at the current weights
    previous = None  # the discrepancies at the last stall check
    while rounds < cfg.max_rounds:
        rounds += 1
        for targets, _, row_ids, factors, live in plans:
            counts = (np.bincount(row_ids, weights=weights, minlength=len(targets))
                      if counts_first is None else counts_first)
            counts_first = None
            np.greater(counts, 0, out=live)
            factors.fill(0.0)  # the factor of a cell without mass is 0
            np.divide(targets, counts, out=factors, where=live)
            weights *= factors[row_ids]
        stall_check = rounds % STALL_WINDOW == 0
        checkpoint = stall_check or rounds == cfg.max_rounds
        discs = []
        for targets, floor, row_ids, scratch, _ in plans:
            counts = np.bincount(row_ids, weights=weights, minlength=len(targets))
            if not discs:
                counts_first = counts
            # |counts - targets| / floor, in place in the factor buffer
            np.subtract(counts, targets, out=scratch)
            np.abs(scratch, out=scratch)
            np.divide(scratch, floor, out=scratch)
            discs.append(float(scratch.max()))
            if not discs[-1] <= cfg.tolerance and not checkpoint:
                break
        if all(d <= cfg.tolerance for d in discs):
            converged = True
            break
        if stall_check:
            # a marginal met at both checks has not moved; NaN never passes
            if previous is not None and all(
                    abs(d - p) <= STALL_TOLERANCE * p
                    or d <= cfg.tolerance and p <= cfg.tolerance
                    for d, p in zip(discs, previous)):
                stalled = True
                break
            previous = discs

    return weights, IpfReport(rounds, discs, converged, structural, dropped, stalled)
