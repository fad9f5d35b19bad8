"""Hungarian-matched clustering accuracy, split into All/Known/New.

One maximum-weight cluster-to-class matching is solved on the full unlabeled
set and reused for both splits, so the Known and New numbers are fractions of
the same matched assignment rather than independently optimistic matchings.
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


def _contingency(assignment: np.ndarray, truth: np.ndarray, k: int, c: int) -> np.ndarray:
    m = np.zeros((k, c), dtype=np.int64)
    np.add.at(m, (assignment, truth), 1)
    return m


def hungarian_accuracy(
    assignment: np.ndarray, truth: np.ndarray, k: int, c: int
) -> tuple[float, dict[int, int]]:
    """Best one-to-one cluster-to-class matching; accuracy = matched / n.

    The contingency matrix is zero-padded to square so rectangular instances
    reduce to the square assignment problem.
    """
    # imported here so that commands which never score skip loading scipy
    from scipy.optimize import linear_sum_assignment

    assignment = np.asarray(assignment)
    truth = np.asarray(truth)
    if assignment.shape != truth.shape or assignment.ndim != 1:
        raise InputError("assignment and truth must be equal-length vectors")
    n = assignment.shape[0]
    if n == 0:
        raise InputError("cannot score an empty assignment")
    if assignment.min() < 0 or assignment.max() >= k:
        raise InputError(f"cluster id outside [0, {k})")
    if truth.min() < 0 or truth.max() >= c:
        raise InputError(f"class id outside [0, {c})")

    counts = _contingency(assignment, truth, k, c)
    side = max(k, c)
    padded = np.zeros((side, side), dtype=np.int64)
    padded[:k, :c] = counts
    rows, cols = linear_sum_assignment(padded, maximize=True)
    permutation = {
        int(r): int(col) for r, col in zip(rows, cols) if r < k and col < c
    }
    matched = sum(counts[r, col] for r, col in permutation.items())
    return matched / n, permutation


def split_accuracy(
    assignment: np.ndarray, truth: np.ndarray, known_class_count: int
) -> EvalReport:
    """All/Known/New accuracies under a single shared matching.

    Known covers samples whose true class id is below known_class_count; New
    covers the rest. An empty split reports None, never 0.
    """
    assignment = np.asarray(assignment)
    truth = np.asarray(truth)
    if known_class_count < 0:
        raise InputError("known_class_count must be non-negative")
    k = int(assignment.max()) + 1 if assignment.size else 0
    c = int(truth.max()) + 1 if truth.size else 0
    c = max(c, known_class_count)
    acc_all, permutation = hungarian_accuracy(assignment, truth, k, c)

    mapped = np.full(assignment.shape, -1, dtype=np.int64)
    for cluster, cls in permutation.items():
        mapped[assignment == cluster] = cls
    correct = mapped == truth

    known_mask = truth < known_class_count
    new_mask = ~known_mask

    def frac(mask: np.ndarray) -> float | None:
        return float(correct[mask].mean()) if mask.any() else None

    return EvalReport(
        acc_all=float(correct.mean()),
        acc_known=frac(known_mask),
        acc_new=frac(new_mask),
        permutation=permutation,
        confusion=_contingency(assignment, truth, k, c),
    )
