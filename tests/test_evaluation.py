"""Tests for Hungarian-matched accuracy and the All/Known/New split."""

import numpy as np
import pytest

from graphgcd.errors import InputError
from graphgcd.evaluation import (
    EvalReport,
    _max_weight_matching,
    split_accuracy,
)

from oracles import brute_force_accuracy


# ---------------------------------------------------------------- the matching

def _all(assignment, truth):
    """acc_all and the permutation with no known classes."""
    report = split_accuracy(assignment, truth, known_class_count=0)
    return report.acc_all, report.permutation


def test_identity_assignment_scores_one():
    truth = np.array([0, 1, 2, 0, 1, 2])
    acc, perm = _all(truth, truth)
    assert acc == 1.0
    assert perm == {0: 0, 1: 1, 2: 2}


def test_relabeled_clusters_score_one():
    truth = np.array([0, 0, 1, 1, 2, 2])
    assignment = np.array([2, 2, 0, 0, 1, 1])
    acc, perm = _all(assignment, truth)
    assert acc == 1.0
    assert perm == {2: 0, 0: 1, 1: 2}


def test_five_of_six_example():
    truth = np.array([0, 0, 1, 1, 2, 2])
    assignment = np.array([1, 1, 0, 0, 2, 1])
    acc, perm = _all(assignment, truth)
    assert acc == pytest.approx(5.0 / 6.0)
    assert perm == {1: 0, 0: 1, 2: 2}


def test_matching_is_injective():
    # the table is sized by the largest ids, so k and c are what the vectors show
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(5, 40))
        assignment = rng.integers(int(rng.integers(2, 6)), size=n)
        truth = rng.integers(int(rng.integers(2, 6)), size=n)
        k, c = assignment.max() + 1, truth.max() + 1
        _, perm = _all(assignment, truth)
        assert len(set(perm.values())) == len(perm)
        assert len(perm) == min(k, c)
        assert all(0 <= r < k and 0 <= col < c for r, col in perm.items())


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(100):
        k = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        n = int(rng.integers(1, 41))
        assignment = rng.integers(k, size=n)
        truth = rng.integers(c, size=n)
        acc, _ = _all(assignment, truth)
        assert acc == pytest.approx(
            brute_force_accuracy(assignment, truth, k, c)
        ), f"trial {trial}: k={k} c={c} n={n}"


def test_invariant_under_cluster_relabeling():
    rng = np.random.default_rng(3)
    k, c, n = 5, 4, 30
    assignment = rng.integers(k, size=n)
    truth = rng.integers(c, size=n)
    base, _ = _all(assignment, truth)
    relabel = rng.permutation(k)
    acc, _ = _all(relabel[assignment], truth)
    assert acc == pytest.approx(base)


def test_more_clusters_than_classes():
    # two clusters split one class: only one of them can be matched
    truth = np.array([0, 0, 0, 0])
    assignment = np.array([0, 0, 1, 1])
    acc, perm = _all(assignment, truth)
    assert acc == pytest.approx(0.5)
    assert len(perm) == 1


def test_more_classes_than_clusters():
    truth = np.array([0, 1, 2, 3])
    assignment = np.array([0, 1, 0, 1])
    acc, perm = _all(assignment, truth)
    assert acc == pytest.approx(0.5)
    assert len(perm) == 2
    assert acc == pytest.approx(brute_force_accuracy(assignment, truth, 2, 4))


def test_hungarian_input_validation():
    good = np.array([0, 1])
    with pytest.raises(InputError, match="equal-length"):
        split_accuracy(np.array([0]), good, 2)
    with pytest.raises(InputError, match="empty"):
        split_accuracy(np.array([], dtype=int), np.array([], dtype=int), 2)
    with pytest.raises(InputError, match="cluster id -1 is negative"):
        split_accuracy(np.array([0, -1]), good, 2)
    with pytest.raises(InputError, match="class id -1 is negative"):
        split_accuracy(good, np.array([0, -1]), 2)


# ---------------------------------------------------------------- split_accuracy

def test_split_perfect_known_only():
    truth = np.array([0, 0, 1, 1])
    report = split_accuracy(truth, truth, known_class_count=2)
    assert report.acc_all == 1.0
    assert report.acc_known == 1.0
    assert report.acc_new is None


def test_split_all_novel():
    truth = np.array([0, 0, 1, 1])
    report = split_accuracy(truth, truth, known_class_count=0)
    assert report.acc_known is None
    assert report.acc_new == 1.0


def test_split_known_and_new_fractions():
    # classes 0,1 known; classes 2,3 novel but swapped between two clusters
    truth = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    assignment = np.array([0, 0, 1, 1, 2, 3, 2, 3])
    report = split_accuracy(assignment, truth, known_class_count=2)
    assert report.acc_known == 1.0
    assert report.acc_new == pytest.approx(0.5)
    assert report.acc_all == pytest.approx(0.75)


def test_split_uses_one_shared_matching():
    # the known split is scored under the global matching, not its own best:
    # cluster 0 wins class 1 overall, so the known sample at class 0 is wrong
    truth = np.array([0, 1, 1, 1, 1])
    assignment = np.array([0, 0, 0, 0, 1])
    report = split_accuracy(assignment, truth, known_class_count=1)
    assert report.permutation[0] == 1
    assert report.acc_known == 0.0
    assert report.acc_new == pytest.approx(0.75)
    assert report.acc_all == pytest.approx(0.6)


def test_split_all_is_weighted_mean_of_parts():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(4, 50))
        truth = rng.integers(4, size=n)
        assignment = rng.integers(5, size=n)
        known = int(rng.integers(0, 5))
        report = split_accuracy(assignment, truth, known)
        parts = []
        weights = []
        known_n = int((truth < known).sum())
        if report.acc_known is not None:
            parts.append(report.acc_known)
            weights.append(known_n)
        if report.acc_new is not None:
            parts.append(report.acc_new)
            weights.append(n - known_n)
        assert report.acc_all == pytest.approx(np.average(parts, weights=weights))


def test_split_confusion_shape_and_total():
    truth = np.array([0, 1, 2, 2])
    assignment = np.array([0, 0, 1, 1])
    report = split_accuracy(assignment, truth, known_class_count=2)
    assert isinstance(report, EvalReport)
    assert report.confusion.shape == (2, 3)
    assert report.confusion.sum() == 4
    assert report.confusion[1, 2] == 2


def test_split_class_axis_covers_known_count():
    # truth only shows class 0, but the declared known count widens the axis
    truth = np.array([0, 0])
    assignment = np.array([0, 0])
    report = split_accuracy(assignment, truth, known_class_count=3)
    assert report.confusion.shape[1] == 3
    assert report.acc_all == 1.0


def test_split_rejects_negative_known_count():
    with pytest.raises(InputError, match="non-negative"):
        split_accuracy(np.array([0]), np.array([0]), known_class_count=-1)


def test_split_matches_hungarian_on_all():
    # acc_all is the best one-to-one matching's accuracy whatever the known
    # count, and the permutation is a matching that reaches it
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        assignment = rng.integers(4, size=n)
        truth = rng.integers(3, size=n)
        report = split_accuracy(assignment, truth, known_class_count=2)
        assert report.acc_all == pytest.approx(brute_force_accuracy(assignment, truth, 4, 3))
        matched = sum(report.confusion[r, col] for r, col in report.permutation.items())
        assert report.acc_all == matched / n


# ---------------------------------------------------------------- scipy differential
# acc_known and acc_new depend on which optimal matching is returned when
# several tie, so the port must return scipy's permutation, not just its score.

def _contingency_square(rng, side):
    k = int(rng.integers(1, side + 1))
    c = int(rng.integers(1, side + 1))
    n = int(rng.integers(1, 4 * side + 1))
    counts = np.zeros((side, side), dtype=np.int64)
    np.add.at(counts, (rng.integers(k, size=n), rng.integers(c, size=n)), 1)
    return counts


def _diagonal_dominant(rng, side):
    weights = np.diag(rng.integers(0, 30, size=side)) + rng.integers(0, 3, size=(side, side))
    return weights[rng.permutation(side)]


TIE_HEAVY = {
    "all-zero": lambda rng, side: np.zeros((side, side), dtype=np.int64),
    "zero-one-two": lambda rng, side: rng.integers(0, 3, size=(side, side)),
    "mostly-zero": lambda rng, side: (
        rng.integers(1, 5, size=(side, side)) * (rng.random((side, side)) < 0.1)
    ),
    "diagonal-dominant": _diagonal_dominant,
    "padded-contingency": _contingency_square,
}


@pytest.mark.parametrize("kind", sorted(TIE_HEAVY))
def test_max_weight_matching_equals_scipy_tie_for_tie(kind):
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng([2016, sorted(TIE_HEAVY).index(kind)])
    for trial in range(1000):
        side = int(rng.integers(1, 61))
        weights = TIE_HEAVY[kind](rng, side)
        rows, cols = _max_weight_matching(weights)
        ref_rows, ref_cols = linear_sum_assignment(weights, maximize=True)
        assert np.array_equal(rows, ref_rows), f"trial {trial}, side {side}"
        assert np.array_equal(cols, ref_cols), f"trial {trial}, side {side}"


def _scipy_split(assignment, truth, known):
    """split_accuracy as it was built on scipy's linear_sum_assignment."""
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    k = int(assignment.max()) + 1
    c = max(int(truth.max()) + 1, known)
    side = max(k, c)
    padded = np.zeros((side, side), dtype=np.int64)
    np.add.at(padded, (assignment, truth), 1)
    rows, cols = linear_sum_assignment(padded, maximize=True)
    permutation = {int(r): int(col) for r, col in zip(rows, cols) if r < k and col < c}
    mapped = np.full(assignment.shape, -1)
    for cluster, cls in permutation.items():
        mapped[assignment == cluster] = cls
    correct = mapped == truth
    known_mask = truth < known
    acc_known = float(correct[known_mask].mean()) if known_mask.any() else None
    acc_new = float(correct[~known_mask].mean()) if (~known_mask).any() else None
    return permutation, acc_known, acc_new


def test_split_matches_scipy_reference_on_non_square_instances():
    rng = np.random.default_rng(1987)
    for trial in range(300):
        k = int(rng.integers(1, 12))
        c = int(rng.integers(1, 12))
        if k == c:
            c += 1
        n = int(rng.integers(1, 60))
        assignment = rng.integers(k, size=n)
        truth = rng.integers(c, size=n)
        known = int(rng.integers(0, c + 1))
        report = split_accuracy(assignment, truth, known)
        permutation, acc_known, acc_new = _scipy_split(assignment, truth, known)
        assert report.permutation == permutation, f"trial {trial}"
        assert report.acc_known == acc_known, f"trial {trial}"
        assert report.acc_new == acc_new, f"trial {trial}"
