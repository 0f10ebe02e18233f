"""Exact 1-D optimal transport between weighted point masses.

W1(P, Q) = integral over u in [0,1] of |inv_cdf_P(u) - inv_cdf_Q(u)| du,
computed by merging the two cumulative-weight breakpoint sequences after
sorting. Both inputs are normalized to probability measures internally.

The subgradient with respect to the Q support points holds the sorted
order fixed: each point owns a quantile span, and its derivative is the
signed length of the sub-segments where it sits above / below the matched
P quantile. Ties are broken by a stable sort on value then index: the
aligned kernel sorts with numpy's default (faster, unstable) sort and
re-sorts stably only the Q columns whose sorted values are not strictly
increasing, which gives the same order.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyDistributionError


def _prepare(values, weights):
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise EmptyDistributionError("empty distribution")
    if weights is None:
        weights = np.full(values.size, 1.0 / values.size)
    else:
        weights = np.asarray(weights, dtype=float).ravel()
        if weights.shape != values.shape:
            raise EmptyDistributionError("weights must align with values")
        if np.any(weights < 0):
            raise EmptyDistributionError("weights must be nonnegative")
        total = weights.sum()
        if total <= 0:
            raise EmptyDistributionError("weights must have positive total")
        weights = weights / total
    order = np.argsort(values, kind="stable")
    return values[order], weights[order], order


def _merge(pw, qw):
    """Merge the two cumulative-weight sequences: the length of each quantile
    segment and the P and Q atoms (sorted positions) that own it."""
    cp = np.cumsum(pw)
    cq = np.cumsum(qw)
    cp[-1] = cq[-1] = 1.0
    levels = np.sort(np.concatenate([cp, cq]))
    p_idx = np.clip(np.searchsorted(cp, levels, side="left"), 0, pw.size - 1)
    q_idx = np.clip(np.searchsorted(cq, levels, side="left"), 0, qw.size - 1)
    seg = np.diff(np.concatenate([[0.0], levels]))
    return seg, p_idx, q_idx


def wasserstein_1d(p_values, q_values, p_weights=None, q_weights=None) -> float:
    """Exact W1 between two weighted 1-D distributions."""
    pv, pw, _ = _prepare(p_values, p_weights)
    qv, qw, _ = _prepare(q_values, q_weights)
    seg, p_idx, q_idx = _merge(pw, qw)
    return float(np.sum(seg * np.abs(pv[p_idx] - qv[q_idx])))


def wasserstein_1d_grad(p_values, p_weights, q_values):
    """(W1, dW1/dq) for a fixed weighted P against equally weighted Q points:
    the oracle that `aligned_w1_grad` is tested against.

    The gradient is the sort-fixed subgradient; at exact value ties it picks
    one side, which finite differencing confirms everywhere away from ties.
    """
    pv, pw, _ = _prepare(p_values, p_weights)
    qv, qw, q_order = _prepare(q_values, None)
    seg, p_idx, q_idx = _merge(pw, qw)
    diff = qv[q_idx] - pv[p_idx]
    w = float(np.sum(seg * np.abs(diff)))
    grad_sorted = np.zeros(qv.size)
    np.add.at(grad_sorted, q_idx, seg * np.sign(diff))
    grad = np.zeros(qv.size)
    grad[q_order] = grad_sorted
    return w, grad


def aligned_w1_grad(p_matrix, q_matrix):
    """Columnwise (sum of W1, dW1/dQ) for equal-size unit-weight columns.

    With n equally weighted atoms on both sides the quantile spans align and
    each column's W1 is mean |sorted p - sorted q|. This is the one kernel
    training runs: every step resamples each marginal target to the batch
    size, and `mswg.transport_term` calls it once per block of projections.
    Every column's outputs depend on that column alone.

    It allocates three arrays of the inputs' size: sorted P (reused for
    |diff| and then as the gradient), Q's sort order and the sorted
    difference. It never writes its inputs. The default sorts give the
    stable sorts' values up to the sign of zero, which neither |diff| nor
    sign(diff) keeps; Q's order is made the stable one by re-sorting stably
    the columns with a tie (or a NaN).
    """
    p = np.asarray(p_matrix, dtype=float)
    q = np.asarray(q_matrix, dtype=float)
    if p.shape != q.shape:
        raise EmptyDistributionError("aligned path requires equal shapes")
    n = p.shape[0]
    buf = np.sort(p, axis=0)
    q_order = np.argsort(q, axis=0)
    diff = np.take_along_axis(q, q_order, axis=0)
    tied = np.flatnonzero(~(diff[1:] > diff[:-1]).all(axis=0))
    q_order[:, tied] = np.argsort(q[:, tied], axis=0, kind="stable")
    diff -= buf
    w_per_col = np.abs(diff, out=buf).mean(axis=0)
    np.sign(diff, out=diff)
    diff /= n
    # Each column of q_order is a permutation, so this writes every entry.
    np.put_along_axis(buf, q_order, diff, axis=0)
    return w_per_col, buf


def sample_projections(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """`count` i.i.d. directions on the unit sphere in R^dim (rows)."""
    if count < 1 or dim < 1:
        raise EmptyDistributionError("need count >= 1 and dim >= 1")
    vecs = rng.standard_normal((count, dim))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    # A zero draw is measure-zero but would poison training with NaNs.
    degenerate = norms[:, 0] < 1e-12
    while np.any(degenerate):
        vecs[degenerate] = rng.standard_normal((int(degenerate.sum()), dim))
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        degenerate = norms[:, 0] < 1e-12
    return vecs / norms
