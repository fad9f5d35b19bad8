"""Hungarian-matched clustering accuracy, split into All/Known/New.

split_accuracy is the one scorer, the GCD protocol of Vaze et al. (CVPR
2022): one maximum-weight cluster-to-class matching is solved on the full
unlabeled set and reused for both splits, so the Known and New numbers are
fractions of the same matched assignment rather than independently
optimistic matchings. Its table grows with the largest ids; callers bound them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass
class EvalReport:
    acc_all: float
    acc_known: float | None   # None when the split has no samples
    acc_new: float | None
    permutation: dict[int, int]
    confusion: np.ndarray     # [K x C] contingency counts


def _max_weight_matching(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-weight perfect matching of a square matrix.

    A line-for-line numpy port of the `rectangular_lsap` solver behind
    `linear_sum_assignment(weights, maximize=True)`, which the tests use as
    the reference: the shortest augmenting path method of Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 2016.
    Which optimal matching comes back depends on the scan order, so that
    order is copied exactly: columns are scanned from last to first, the tie
    at the minimum goes to the last free column (else the first one), and a
    used column is swapped out for the last live one. The scan over the live
    columns is vectorised with the same operand order. Returns (rows, cols)
    with rows = 0..n-1.
    """
    cost = -np.asarray(weights, dtype=np.float64)
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n)
    col4row = np.full(n, -1, dtype=np.int64)
    row4col = np.full(n, -1, dtype=np.int64)
    path = np.full(n, -1, dtype=np.int64)
    for cur in range(n):
        spc = np.full(n, np.inf)
        in_rows = np.zeros(n, dtype=bool)
        in_cols = np.zeros(n, dtype=bool)
        remaining = np.arange(n - 1, -1, -1)
        live = n
        i, min_val, sink = cur, 0.0, -1
        while sink == -1:
            in_rows[i] = True
            rem = remaining[:live]
            r = min_val + cost[i, rem] - u[i] - v[rem]
            shorter = r < spc[rem]
            path[rem[shorter]] = i
            spc[rem[shorter]] = r[shorter]
            costs = spc[rem]
            min_val = costs.min()
            ties = np.flatnonzero(costs == min_val)
            free = ties[row4col[rem[ties]] == -1]
            index = free[-1] if free.size else ties[0]
            j = rem[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            in_cols[j] = True
            live -= 1
            remaining[index] = remaining[live]
        u[cur] += min_val
        in_rows[cur] = False
        u[in_rows] += min_val - spc[col4row[in_rows]]
        v[in_cols] -= min_val - spc[in_cols]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.arange(n), col4row


def split_accuracy(
    assignment: np.ndarray, truth: np.ndarray, known_class_count: int
) -> EvalReport:
    """All/Known/New accuracies under a single shared matching.

    The [k x c] counts span cluster ids 0..max and class ids 0..max (at least
    known_class_count), zero-padded to square for the matching. Known covers
    samples whose true class id is below known_class_count; New covers the
    rest. An empty split reports None, never 0.
    """
    assignment = np.asarray(assignment)
    truth = np.asarray(truth)
    if assignment.shape != truth.shape or assignment.ndim != 1:
        raise InputError("assignment and truth must be equal-length vectors")
    if assignment.shape[0] == 0:
        raise InputError("cannot score an empty assignment")
    if assignment.min() < 0:
        raise InputError(f"cluster id {assignment.min()} is negative")
    if truth.min() < 0:
        raise InputError(f"class id {truth.min()} is negative")
    if known_class_count < 0:
        raise InputError("known_class_count must be non-negative")
    k = int(assignment.max()) + 1
    c = max(int(truth.max()) + 1, known_class_count)
    flat = assignment.astype(np.int64) * c + truth.astype(np.int64)
    counts = np.bincount(flat, minlength=k * c).reshape(k, c)
    side = max(k, c)
    padded = np.zeros((side, side), dtype=np.int64)
    padded[:k, :c] = counts
    cols = _max_weight_matching(padded)[1][:k]
    lookup = np.where(cols < c, cols, -1)  # each cluster's class, or -1 if matched to padding
    correct = lookup[assignment] == truth
    known_mask = truth < known_class_count

    def frac(mask: np.ndarray) -> float | None:
        return float(correct[mask].mean()) if mask.any() else None

    return EvalReport(
        acc_all=float(correct.mean()),
        acc_known=frac(known_mask),
        acc_new=frac(~known_mask),
        permutation={r: int(col) for r, col in enumerate(lookup) if col >= 0},
        confusion=counts,
    )
