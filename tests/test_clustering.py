"""Tests for similarity features, constrained k-means, and the elbow scan."""

import tracemalloc

import numpy as np
import pytest

from graphgcd import clustering
from graphgcd.cli import elbow_k
from graphgcd.clustering import (
    ClusterAssignment,
    elbow_point,
    kmeans_pp_init,
    scan_inertia,
    semisup_kmeans,
    similarity_features,
)
from graphgcd.errors import InputError, InvariantError
from graphgcd.neural_core import init_params
from graphgcd.semantic_graph import build_knn_graph

from oracles import (
    cosine,
    plain_kmeans,
    plain_kmeans_pp,
    plain_semisup_kmeans,
    plain_similarity_features,
)


def unlabeled(n):
    return np.full(n, -1, dtype=np.int64)


# ---------------------------------------------------------------- similarity_features

def test_similarity_features_pinned_projector():
    # zero both weight matrices and point the output bias at class 3: every
    # sample projects to e3 and the feature row must read 1.0 there, 0 elsewhere
    d = 4
    class_emb = np.eye(d, dtype=np.float32)
    graph = build_knn_graph(class_emb, k=1)
    params = init_params(d, d, d, gcn_layers=0, seed=0)
    params.proj_w1[:] = 0.0
    params.proj_b1[:] = 0.0
    params.proj_w2[:] = 0.0
    params.proj_b2[:] = 0.0
    params.proj_b2[3] = 1.0

    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, d)).astype(np.float32)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    feats = similarity_features(x, params, graph, class_emb)
    assert feats.shape == (3, d)
    np.testing.assert_allclose(feats[:, 3], 1.0, atol=1e-12)
    np.testing.assert_allclose(feats[:, :3], 0.0, atol=1e-12)


def test_similarity_features_identical_inputs_identical_rows():
    d, c = 6, 4
    rng = np.random.default_rng(2)
    ce = rng.normal(size=(c, d))
    class_emb = (ce / np.linalg.norm(ce, axis=1, keepdims=True)).astype(np.float32)
    graph = build_knn_graph(class_emb, k=2)
    params = init_params(d, 8, c, gcn_layers=2, seed=5)
    row = rng.normal(size=d)
    row /= np.linalg.norm(row)
    x = np.stack([row, row]).astype(np.float32)
    feats = similarity_features(x, params, graph, class_emb)
    np.testing.assert_array_equal(feats[0], feats[1])


def test_similarity_features_bounded_and_matches_pairwise_cosine():
    from graphgcd.neural_core import gcn_forward, projector_forward

    d, c, n = 5, 4, 7
    rng = np.random.default_rng(9)
    ce = rng.normal(size=(c, d))
    ce /= np.linalg.norm(ce, axis=1, keepdims=True)
    class_emb = ce.astype(np.float32)
    graph = build_knn_graph(class_emb, k=2)
    params = init_params(d, 6, c, gcn_layers=1, seed=3)
    x = rng.normal(size=(n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x = x.astype(np.float32)

    feats = similarity_features(x, params, graph, class_emb)
    assert np.abs(feats).max() <= 1.0

    # the feature stage computes in float64, so the reference does too
    ybar, _ = gcn_forward(graph, class_emb.astype(np.float64), params)
    z, _ = projector_forward(x.astype(np.float64), params)
    for i in range(n):
        for j in range(c):
            assert feats[i, j] == pytest.approx(cosine(z[i], ybar[j]), abs=1e-12)


def _feature_inputs(n, d, hidden, c, seed=4):
    rng = np.random.default_rng(seed)
    class_emb = rng.normal(size=(c, d)).astype(np.float32)
    graph = build_knn_graph(class_emb, k=3)
    params = init_params(d, hidden, c, gcn_layers=2, seed=0)
    return rng.normal(size=(n, d)).astype(np.float32), params, graph, class_emb


@pytest.mark.parametrize("n, d, hidden, c", [
    (6000, 128, 128, 10), (4500, 128, 128, 25), (3600, 64, 64, 12),
    (2049, 128, 128, 10), (4097, 128, 128, 10), (2049, 33, 65, 15),
    # hidden below d, hidden 300, and n on either side of the block edges
    (5, 7, 300, 6), (2047, 128, 64, 6), (2048, 64, 300, 6), (2049, 7, 300, 6),
    (4100, 128, 64, 6),
])
def test_similarity_features_blocks_equal_one_product(n, d, hidden, c):
    # full-size blocks only: a short last block could take another BLAS kernel
    x, params, graph, class_emb = _feature_inputs(n, d, hidden, c)
    np.testing.assert_array_equal(similarity_features(x, params, graph, class_emb),
                                  plain_similarity_features(x, params, graph, class_emb))


def test_cluster_features_equal_features_of_both_sets_stacked():
    from types import SimpleNamespace

    from graphgcd.cli import cluster_features
    from graphgcd.embed_io import generate_synthetic

    # cluster-heavy's shape: 1500 labeled rows, 3000 unlabeled rows, 25 known classes
    labeled, unlabeled, class_emb = generate_synthetic(50, 25, 60, 128, 4.0, seed=1)
    state = SimpleNamespace(params=init_params(128, 128, 25, gcn_layers=2, seed=0),
                            config=SimpleNamespace(knn_k=3))
    features, labels = cluster_features(state, labeled, unlabeled, class_emb)
    graph = build_knn_graph(class_emb.data, 3)
    both = np.vstack([labeled.data, unlabeled.data])
    np.testing.assert_array_equal(features,
                                  similarity_features(both, state.params, graph, class_emb.data))
    np.testing.assert_array_equal(labels, np.r_[labeled.labels, np.full(unlabeled.n, -1)])


def _feature_peak(n, d=128, c=25):
    x, params, graph, class_emb = _feature_inputs(n, d, d, c)
    tracemalloc.start()
    try:
        similarity_features(x, params, graph, class_emb)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_similarity_features_memory_is_two_block_buffers():
    # beyond the n x C result: one block x d buffer for the input and output
    # rows and one block x max(hidden, d) buffer for the hidden layer and the
    # squares; a float64 copy of the rows or the squares of np.linalg.norm
    # would each add a block
    n, d, c = 4096, 128, 25
    bound = n * c * 8 + 2 * 2048 * d * 8 + 2**20
    peak = _feature_peak(n, d, c)
    assert peak <= bound, f"peak {peak} B above {bound} B"


def test_similarity_features_memory_holds_no_trace():
    # Beyond the n x C result, memory is one block's: a copy of x, a trace
    # kept alive or any n x d temporary would grow with the rows
    small, large, c = 4096, 16384, 25
    growth = (large - small) * c * 8
    peak_small, peak_large = _feature_peak(small, c=c), _feature_peak(large, c=c)
    assert peak_large - peak_small <= 1.1 * growth, (
        f"peak {peak_small} B at {small} rows, {peak_large} B at {large} rows")


# ---------------------------------------------------------------- kmeans_pp_init

def test_init_reserved_centroids_are_class_means():
    features = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 4.0], [10.0, 6.0]])
    labels = np.array([0, 0, 1, 1])
    centroids = kmeans_pp_init(features, labels, k=2, seed=0)
    np.testing.assert_allclose(centroids, [[1.0, 0.0], [10.0, 5.0]])


def test_init_single_free_point_is_forced():
    features = np.array([[0.0, 0.0], [2.0, 0.0], [7.0, 7.0]])
    labels = np.array([0, 0, -1])
    centroids = kmeans_pp_init(features, labels, k=2, seed=1234)
    np.testing.assert_allclose(centroids[1], [7.0, 7.0])


def test_init_d2_sampling_frequencies():
    # one reserved centroid at the origin; free candidates at squared
    # distances 1, 4, 5 must be picked with probabilities 0.1, 0.4, 0.5
    features = np.array(
        [[-1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [np.sqrt(5.0), 0.0]]
    )
    labels = np.array([0, 0, -1, -1, -1])
    trials = 10_000
    hits = {1.0: 0, 2.0: 0, np.sqrt(5.0): 0}
    for seed in range(trials):
        c = kmeans_pp_init(features, labels, k=2, seed=seed)
        hits[c[1, 0]] += 1
    assert hits[1.0] / trials == pytest.approx(0.1, abs=0.02)
    assert hits[2.0] / trials == pytest.approx(0.4, abs=0.02)
    assert hits[np.sqrt(5.0)] / trials == pytest.approx(0.5, abs=0.02)


def test_init_free_centroids_are_distinct_data_points():
    rng = np.random.default_rng(4)
    features = rng.normal(size=(12, 3))
    centroids = kmeans_pp_init(features, unlabeled(12), k=5, seed=7)
    # every centroid is one of the rows, and no row is used twice
    used = []
    for c in centroids:
        matches = np.flatnonzero((features == c).all(axis=1))
        assert matches.size == 1
        used.append(int(matches[0]))
    assert len(set(used)) == 5


def test_init_matches_list_deletion_oracle():
    # kind 0: nothing reserved (uniform first pick); kind 1: every free point
    # is the same row, so after one pick all weights are 0 (the total <= 0
    # branch); kind 2: exactly as many free points as free centroids
    for case in range(120):
        rng = np.random.default_rng(case)
        kind = case % 4
        n = int(rng.integers(10, 40))
        features = rng.normal(size=(n, int(rng.integers(1, 12))))
        reserved = 0 if kind == 0 else int(rng.integers(1, 4))
        labels = unlabeled(n)
        labels[: 2 * reserved] = np.arange(2 * reserved) % reserved
        free = n - 2 * reserved
        if kind == 1:
            features[2 * reserved :] = features[-1]
        k = reserved + (free if kind == 2 else int(rng.integers(1 + (kind == 1), free + 1)))
        np.testing.assert_array_equal(
            kmeans_pp_init(features, labels, k, seed=case),
            plain_kmeans_pp(features, labels, k, seed=case),
            err_msg=f"case {case}",
        )


def test_init_errors():
    features = np.zeros((4, 2))
    with pytest.raises(InputError, match="do not fit"):
        kmeans_pp_init(features, np.array([0, 1, 2, -1]), k=2, seed=0)
    with pytest.raises(InputError, match="free"):
        kmeans_pp_init(features, np.array([0, 0, 0, -1]), k=3, seed=0)
    with pytest.raises(InputError, match="contiguous"):
        kmeans_pp_init(features, np.array([0, 2, -1, -1]), k=4, seed=0)


def test_reserved_count_bounds_the_ids_by_the_rows_before_counting_them():
    # a class id beyond the labeled row count cannot be contiguous; it is
    # rejected before np.bincount would allocate one count per id up to it
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="contiguous"):
            clustering._reserved_count(np.array([0, 2**40]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert clustering._reserved_count(np.array([1, -1, 0, 2, 1])) == 3


# ---------------------------------------------------------------- semisup_kmeans

def test_kmeans_all_labeled_reproduces_class_means():
    rng = np.random.default_rng(1)
    features = rng.normal(size=(6, 3))
    labels = np.array([0, 0, 1, 1, 2, 2])
    res = semisup_kmeans(features, labels, k=3, seed=0)
    np.testing.assert_array_equal(res.assignment, labels)
    for c in range(3):
        np.testing.assert_allclose(res.centroids[c], features[labels == c].mean(axis=0))
    assert res.constrained_mask.all()


def test_kmeans_hand_geometry():
    features = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]])
    labels = np.array([0, 0, -1, -1])
    res = semisup_kmeans(features, labels, k=2, seed=0)
    np.testing.assert_array_equal(res.assignment, [0, 0, 1, 1])
    np.testing.assert_allclose(res.centroids, [[0.0, 1.0], [10.0, 1.0]])
    assert res.inertia == pytest.approx(4.0)
    np.testing.assert_array_equal(res.constrained_mask, [True, True, False, False])


def test_kmeans_labeled_rows_never_move():
    rng = np.random.default_rng(3)
    features = rng.normal(size=(40, 3))
    labels = unlabeled(40)
    labels[:20] = rng.integers(3, size=20)
    assert set(labels[:20]) == {0, 1, 2}  # contiguous ids, so the run is valid
    seen = []

    def watch(it, assignment, centroids, inertia):
        np.testing.assert_array_equal(assignment[:20], labels[:20])
        seen.append(inertia)

    res = semisup_kmeans(features, labels, k=5, seed=0, on_iteration=watch)
    assert len(seen) == res.iterations_run
    np.testing.assert_array_equal(res.assignment[:20], labels[:20])


def test_kmeans_inertia_never_increases():
    rng = np.random.default_rng(8)
    features = rng.normal(size=(50, 4))
    inertias = []
    res = semisup_kmeans(
        features,
        unlabeled(50),
        k=6,
        seed=2,
        on_iteration=lambda it, a, c, i: inertias.append(i),
    )
    assert inertias[-1] == res.inertia
    for before, after in zip(inertias, inertias[1:]):
        assert after <= before + 1e-9


def test_kmeans_empty_free_cluster_is_reseeded():
    # duplicated free points tie onto one centroid and leave the other empty;
    # the repair must still produce k populated clusters
    features = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    labels = np.array([0, 0, -1, -1])
    res = semisup_kmeans(features, labels, k=3, seed=0)
    counts = np.bincount(res.assignment, minlength=3)
    assert (counts >= 1).all()
    assert set(res.assignment[2:]) == {1, 2}
    np.testing.assert_array_equal(res.assignment[:2], [0, 0])


def test_kmeans_matches_plain_lloyd_when_nothing_is_labeled():
    # with no constraints the algorithm must be exactly textbook Lloyd
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 31))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, min(6, n + 1)))
        features = rng.normal(size=(n, d))
        init = features[rng.choice(n, size=k, replace=False)]
        res = semisup_kmeans(features, unlabeled(n), k, seed=0, init=init)
        ref_assign, ref_centroids, ref_inertia = plain_kmeans(features, init)
        np.testing.assert_array_equal(res.assignment, ref_assign, err_msg=f"seed {seed}")
        np.testing.assert_allclose(res.centroids, ref_centroids, atol=1e-12, err_msg=f"seed {seed}")
        assert res.inertia == pytest.approx(ref_inertia, rel=1e-12), f"seed {seed}"


def test_kmeans_near_ties_match_direct_form():
    # a large common offset makes |x|^2 - 2x.c + |c|^2 lose the low bits that
    # separate close centroids, so the expanded form misorders some rows; the
    # package must still assign exactly as the direct form does
    rng = np.random.default_rng(0)
    features = rng.normal(size=(600, 6)) + 1e7
    init = features[rng.choice(600, size=8, replace=False)]
    direct = ((features[:, None, :] - init[None, :, :]) ** 2).sum(axis=2)
    expanded = ((features * features).sum(axis=1)[:, None] - 2.0 * features @ init.T
                + (init * init).sum(axis=1))
    assert (np.argmin(expanded, axis=1) != np.argmin(direct, axis=1)).any()

    res = semisup_kmeans(features, unlabeled(600), 8, seed=0, init=init)
    ref_assign, ref_centroids, ref_inertia = plain_kmeans(features, init)
    np.testing.assert_array_equal(res.assignment, ref_assign)
    np.testing.assert_array_equal(res.centroids, ref_centroids)
    assert res.inertia == ref_inertia


@pytest.mark.parametrize("offset", [(0.0, 0.0), (85062422.0, 63696169.0)], ids=["origin", "far"])
def test_kmeans_exact_tie_goes_to_lowest_id(offset):
    # the last point is exactly 1 from both initial centroids and joins
    # cluster 0 in the first iteration; at the far offset the expanded form
    # rounds the tie toward cluster 1 in one of the two orders
    features = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]) + offset
    for order, expected in (([0, 1], [0, 1, 0]), ([1, 0], [1, 0, 0])):
        init = features[order]
        first = []
        res = semisup_kmeans(features, unlabeled(3), 2, seed=0, init=init,
                             on_iteration=lambda it, a, c, i: first.append(a[2]) if it == 0 else None)
        assert first == [0]
        np.testing.assert_array_equal(res.assignment, expected)
        np.testing.assert_array_equal(res.assignment, plain_kmeans(features, init)[0])


def _record(store):
    return lambda it, a, c, i: store.append(
        (it, a.tolist(), c.view(np.int64).tolist(), np.float64(i).view(np.int64)))


def _assert_matches_plain_loop(features, labels, k, init, case):
    got, want = [], []
    res = semisup_kmeans(features, labels, k, seed=0, init=init, on_iteration=_record(got))
    assignment, centroids, iterations, inertia = plain_semisup_kmeans(
        features, labels, k, init, on_iteration=_record(want))
    assert got == want, case
    np.testing.assert_array_equal(res.assignment, assignment, err_msg=case)
    np.testing.assert_array_equal(res.centroids.view(np.int64), centroids.view(np.int64),
                                  err_msg=case)
    assert (res.iterations_run, np.float64(res.inertia).view(np.int64)) == (
        iterations, np.float64(inertia).view(np.int64)), case


def _random_constrained_case(rng):
    # values on a coarse grid, some rows duplicated: ties between centroids
    # and rows at equal distance occur often
    n = int(rng.integers(2, 121))
    f = int(rng.choice([1, 2, 3, 12]))
    features = np.round(3.0 * rng.normal(size=(n, f))) * rng.choice([1.0, 0.5, 0.25])
    if rng.random() < 0.3:
        features[rng.integers(n, size=n // 2)] = features[rng.integers(n, size=n // 2)]
    if rng.random() < 0.25:
        # far from the origin the expanded form loses the low bits, and with
        # one or two features the triangle inequality is often tight
        features += 10.0 ** int(rng.integers(5, 9))
    k = int(rng.integers(1, n + 1 if rng.random() < 0.3 else min(n, 12) + 1))
    reserved = int(rng.integers(0, k + 1)) if rng.random() < 0.6 else 0
    labels = unlabeled(n)
    # every reserved class gets a row, and k - reserved rows stay free
    labeled = rng.choice(n, size=n - k + reserved - int(rng.integers(0, n - k + 1)), replace=False)
    if reserved:
        labels[labeled] = np.arange(labeled.size) % reserved
    init = features[rng.choice(n, size=k, replace=False)]
    if rng.random() < 0.3:
        init = init + rng.normal(size=(k, f))
    return features, labels, k, init


def test_kmeans_matches_the_plain_loop_iteration_by_iteration():
    # every iteration's assignment, centroid bits and inertia bits, and the
    # final result, equal the loop that recomputes every row every iteration
    rng = np.random.default_rng(16)
    for case in range(400):
        _assert_matches_plain_loop(*_random_constrained_case(rng), f"case {case}")
    near_rng = np.random.default_rng(0)  # the set of test_kmeans_near_ties_match_direct_form
    near = near_rng.normal(size=(600, 6)) + 1e7
    near_init = near[near_rng.choice(600, 8, replace=False)]
    far = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]) + (85062422.0, 63696169.0)
    line = 3.0 * np.random.default_rng(5).normal(size=(40, 1)) + 1e7
    blobs = np.random.default_rng(1).normal(size=(40, 3)) + np.repeat(10.0 * np.eye(3)[:2], 20, 0)
    for name, features, labels, init in [
        ("near ties at 1e7", near, unlabeled(600), near_init),
        ("one feature at 1e7", line, unlabeled(40), line[:3]),
        ("exact tie, far", far, unlabeled(3), far[[1, 0]]),
        ("k = 1", blobs, unlabeled(40), blobs[:1]),
        ("k = 1, labeled", blobs, np.r_[np.zeros(5, int), unlabeled(35)], blobs[:1]),
    ]:
        _assert_matches_plain_loop(features, labels, init.shape[0], init, name)


def test_kmeans_reseeds_a_cluster_emptied_by_an_earlier_steal():
    # iteration 0: only cluster 0 is empty; it steals row 0 from cluster 1,
    # which empties cluster 1, and cluster 1 steals row 0 back, so cluster 0
    # stays empty until iteration 1 re-seeds it with row 1. Checking every
    # cluster for emptiness once, before any steal, would end in [0, 1, 2]
    features = np.array([[0.0, 0.0], [10.0, 0.0], [10.1, 0.0]])
    init = np.array([[100.0, 0.0], [-5.0, 0.0], [10.05, 0.0]])
    seen = []
    res = semisup_kmeans(features, unlabeled(3), 3, seed=0, init=init,
                         on_iteration=lambda it, a, c, i: seen.append(a.tolist()))
    assert seen == [[1, 2, 2], [1, 0, 2], [1, 0, 2]]
    np.testing.assert_array_equal(res.assignment, plain_kmeans(features, init)[0])


def test_kmeans_bounds_spare_most_distance_rows(monkeypatch):
    # well-separated blobs from a poor start: after the first iterations most
    # rows are certified by their bounds and skip the distance step
    rng = np.random.default_rng(0)
    centers = 10.0 * rng.normal(size=(16, 4))
    features = (centers[:, None, :] + rng.normal(size=(16, 100, 4))).reshape(-1, 4)
    init = features[rng.choice(features.shape[0], 16, replace=False)]
    real, passed = clustering._nearest_centroid, []

    def counting(features, rows, *args):
        passed.append(rows.size)
        return real(features, rows, *args)

    monkeypatch.setattr(clustering, "_nearest_centroid", counting)
    res = semisup_kmeans(features, unlabeled(features.shape[0]), 16, seed=0, init=init)
    assert res.iterations_run >= 10  # 15, with 21% of iterations x rows passed
    assert sum(passed) < 0.5 * res.iterations_run * features.shape[0], (
        f"{sum(passed)} rows over {res.iterations_run} iterations")


def test_kmeans_skips_a_row_only_when_its_bound_gap_exceeds_the_slack(monkeypatch):
    # each cluster's mean is its init centroid exactly, so no centroid moves
    # and the gaps the first distance step returns reach iteration 1 unchanged;
    # the slack is (300 + 2 (f + 8)) eps (max free |x| + max centroid norm)
    offsets = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    init = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    features = (init[:, None, :] + offsets).reshape(-1, 2)
    tol = (clustering.MAX_LLOYD_ITERATIONS + 2 * (2 + 8)) * np.finfo(np.float64).eps * (11.0 + 10.0)
    real, passed = clustering._nearest_centroid, []

    def with_set_gaps(features, rows, *args):
        passed.append(rows.tolist())
        best, gap = real(features, rows, *args)
        if len(passed) == 1:
            assert gap[3:].min() > 1.0  # every other row is certified by far
            gap[:3] = [(1 - 2**-20) * tol, 1e-300, (1 + 2**-20) * tol]
        return best, gap

    monkeypatch.setattr(clustering, "_nearest_centroid", with_set_gaps)
    seen = []
    res = semisup_kmeans(features, unlabeled(12), 3, seed=0, init=init,
                         on_iteration=lambda it, a, c, i: seen.append(c.view(np.int64).tolist()))
    assert seen == [init.view(np.int64).tolist()] * 2
    # rows 0 and 1 are within the slack, even at a gap of 1e-300; row 2 is above it
    assert passed == [list(range(12)), [0, 1]]
    np.testing.assert_array_equal(res.assignment, np.repeat([0, 1, 2], 4))


def test_kmeans_memory_has_no_n_by_k_by_f_temporary():
    # n=4000, K=50, f=25: one n x K x f float64 array alone would be 40 MB
    rng = np.random.default_rng(3)
    n, k, f, reserved = 4000, 50, 25, 25
    classes = rng.integers(k, size=n)
    features = 3.0 * rng.normal(size=(k, f))[classes] + 0.1 * rng.normal(size=(n, f))
    labels = unlabeled(n)
    labeled = np.flatnonzero(classes < reserved)[: 40 * reserved]
    labels[labeled] = classes[labeled]
    tracemalloc.start()
    try:
        semisup_kmeans(features, labels, k, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_kmeans_deterministic_for_a_seed():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(30, 3))
    labels = unlabeled(30)
    labels[:6] = [0, 0, 1, 1, 2, 2]
    a = semisup_kmeans(features, labels, k=5, seed=11)
    b = semisup_kmeans(features, labels, k=5, seed=11)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia


def test_kmeans_input_validation():
    features = np.zeros((3, 2))
    with pytest.raises(InputError, match="length"):
        semisup_kmeans(features, np.array([-1, -1]), k=2, seed=0)
    with pytest.raises(InputError, match="k="):
        semisup_kmeans(features, unlabeled(3), k=4, seed=0)
    with pytest.raises(InputError, match="k="):
        semisup_kmeans(features, unlabeled(3), k=0, seed=0)
    with pytest.raises(InputError, match="do not fit"):
        semisup_kmeans(features, np.array([0, 1, -1]), k=1, seed=0)
    with pytest.raises(InvariantError, match="init"):
        semisup_kmeans(features, unlabeled(3), k=2, seed=0, init=np.zeros((3, 2)))


def test_kmeans_result_type():
    res = semisup_kmeans(np.eye(3), unlabeled(3), k=2, seed=0)
    assert isinstance(res, ClusterAssignment)
    assert res.assignment.shape == (3,)
    assert res.centroids.shape == (2, 3)
    assert res.iterations_run >= 1


@pytest.mark.parametrize("f", [1, 2, 3, 17])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
def test_update_centroids_has_the_bits_of_the_masked_mean(f, scale):
    # the per-feature bincount sums (sorted-slice sums for one feature) must
    # reproduce features[assignment == c].mean(axis=0) exactly; empty clusters
    # keep their old centroid
    rng = np.random.default_rng([f, int(np.log10(scale)) + 3])
    for _ in range(20):
        n = int(rng.integers(1, 200))
        k = int(rng.integers(2, 12))
        features = scale * rng.normal(size=(n, f))
        assignment = rng.integers(0, k, size=n)
        assignment[assignment == k // 2] = 0  # at least one empty cluster, mid-range
        counts = np.bincount(assignment, minlength=k)
        old = rng.normal(size=(k, f))
        centroids = old.copy()
        clustering._update_centroids(features, assignment, counts, centroids)
        expected = old.copy()
        for c in range(k):
            if counts[c]:
                expected[c] = features[assignment == c].mean(axis=0)
        np.testing.assert_array_equal(centroids.view(np.int64), expected.view(np.int64))


# ---------------------------------------------------------------- inertia scan and elbow

def test_scan_inertia_covers_range_and_is_deterministic():
    rng = np.random.default_rng(6)
    features = rng.normal(size=(20, 2))
    scan = scan_inertia(features, unlabeled(20), 1, 6, seed=4)
    assert [k for k, _ in scan] == [1, 2, 3, 4, 5, 6]
    assert all(i >= 0.0 for _, i in scan)
    again = scan_inertia(features, unlabeled(20), 1, 6, seed=4)
    assert scan == again


def test_scan_inertia_entries_do_not_depend_on_range():
    # each K draws its own seed, so overlapping scans agree where they overlap
    rng = np.random.default_rng(7)
    features = rng.normal(size=(15, 2))
    wide = dict(scan_inertia(features, unlabeled(15), 2, 5, seed=9))
    narrow = dict(scan_inertia(features, unlabeled(15), 4, 5, seed=9))
    assert narrow[4] == wide[4]
    assert narrow[5] == wide[5]


def test_scan_inertia_workers_do_not_change_results():
    # forked workers compute each K exactly as the serial scan does
    rng = np.random.default_rng(21)
    features = rng.normal(size=(60, 4))
    labels = unlabeled(60)
    labels[:9] = [0, 0, 0, 1, 1, 1, 2, 2, 2]
    serial = scan_inertia(features, labels, 3, 9, seed=13)
    assert [k for k, _ in serial] == list(range(3, 10))
    for workers in (2, 3):
        scan = scan_inertia(features, labels, 3, 9, seed=13, workers=workers)
        assert [(k, v.hex()) for k, v in scan] == [(k, v.hex()) for k, v in serial]


class _PoolStarted(Exception):
    pass


@pytest.mark.parametrize("k_max, started", [(8, 7), (2, None)])
def test_scan_inertia_caps_workers_by_k_count(monkeypatch, k_max, started):
    # records the pool size instead of starting one; a single K stays serial
    import concurrent.futures

    sizes = []

    def no_pool(max_workers, **kwargs):
        sizes.append(max_workers)
        raise _PoolStarted

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    features = np.random.default_rng(23).normal(size=(20, 3))
    if started is None:
        assert len(scan_inertia(features, unlabeled(20), 2, k_max, seed=0, workers=100000)) == 1
    else:
        with pytest.raises(_PoolStarted):
            scan_inertia(features, unlabeled(20), 2, k_max, seed=0, workers=100000)
    assert sizes == ([] if started is None else [started])


def test_scan_inertia_raises_the_lowest_failing_k(monkeypatch):
    # forked workers inherit the patch; K=5 and K=7 fail, K=7 is submitted first
    real = clustering.semisup_kmeans

    def failing(features, labels, k, seed):
        if k in (5, 7):
            raise InvariantError(f"forced failure at k={k}")
        return real(features, labels, k, seed)

    monkeypatch.setattr(clustering, "semisup_kmeans", failing)
    features = np.random.default_rng(22).normal(size=(30, 3))
    for workers in (1, 2, 3):
        with pytest.raises(InvariantError, match=r"^forced failure at k=5$"):
            scan_inertia(features, unlabeled(30), 2, 8, seed=0, workers=workers)


def test_scan_inertia_rejects_bad_range():
    with pytest.raises(InputError, match="k_min"):
        scan_inertia(np.zeros((4, 2)), unlabeled(4), 3, 2, seed=0)


def test_elbow_knee_curve():
    assert elbow_point([1, 2, 3, 4], [100.0, 10.0, 9.0, 8.0]) == 2


def test_elbow_linear_curve_breaks_to_lowest_k():
    assert elbow_point([1, 2, 3, 4], [100.0, 80.0, 60.0, 40.0]) == 1


def test_elbow_flat_curve_breaks_to_lowest_k():
    assert elbow_point([2, 3, 4], [5.0, 5.0, 5.0]) == 2


def test_elbow_single_point():
    assert elbow_point([3], [42.0]) == 3


def test_elbow_validation():
    with pytest.raises(InvariantError):
        elbow_point([], [])
    with pytest.raises(InvariantError):
        elbow_point([1, 2], [1.0])


def test_estimate_k_recovers_three_blobs():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    features = np.concatenate(
        [center + 0.1 * rng.normal(size=(20, 2)) for center in centers]
    )
    assert elbow_k(features, unlabeled(60), seed=0, k_min=1, k_max=8)[0] == 3


def test_estimate_k_is_scan_plus_elbow():
    rng = np.random.default_rng(12)
    features = rng.normal(size=(25, 3))
    labels = unlabeled(25)
    labels[:4] = [0, 0, 1, 1]
    k_hat, scan = elbow_k(features, labels, seed=5, k_min=2, k_max=7)
    assert scan == scan_inertia(features, labels, 2, 7, seed=5)
    assert k_hat == elbow_point([k for k, _ in scan], [i for _, i in scan])
    assert elbow_k(features, labels, seed=5, k_min=2, k_max=7) == (k_hat, scan)
