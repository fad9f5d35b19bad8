import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgcd.errors import InvariantError, NonFiniteError
from graphgcd.semantic_graph import build_knn_graph, dump_graph_csv, row_normalize


def test_orthogonal_vectors_tie_to_lowest_index():
    # all off-diagonal cosines are 0, so every node picks the lowest other index
    g = build_knn_graph(np.eye(3), k=1)
    expected = np.asarray([[1, 1, 0], [1, 1, 0], [1, 0, 1]], dtype=np.int8)
    np.testing.assert_array_equal(g.adjacency, expected)


def test_close_angles_link_mutually():
    angles = np.deg2rad([0.0, 10.0, 90.0])
    x = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    g = build_knn_graph(x, k=1)
    assert g.adjacency[0, 1] == 1 and g.adjacency[1, 0] == 1
    # the 90-degree node is closer to 10 than to 0
    assert g.adjacency[2, 1] == 1 and g.adjacency[2, 0] == 0


def test_k_equals_nodes_minus_one_is_complete():
    x = np.random.default_rng(0).normal(size=(4, 3))
    g = build_knn_graph(x, k=3)
    np.testing.assert_array_equal(g.adjacency, np.ones((4, 4), dtype=np.int8))


def test_k_at_least_nodes_warns_and_completes():
    x = np.random.default_rng(1).normal(size=(3, 3))
    with pytest.warns(UserWarning, match="complete graph"):
        g = build_knn_graph(x, k=5)
    np.testing.assert_array_equal(g.adjacency, np.ones((3, 3), dtype=np.int8))


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(2, 12),
    k=st.integers(1, 14),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_structure_invariants(c, k, seed):
    x = np.random.default_rng(seed).normal(size=(c, 5))
    if k >= c:
        with pytest.warns(UserWarning):
            g = build_knn_graph(x, k)
    else:
        g = build_knn_graph(x, k)
    row_sums = g.adjacency.sum(axis=1)
    if k >= c - 1:
        np.testing.assert_array_equal(g.adjacency, np.ones((c, c), dtype=np.int8))
    else:
        np.testing.assert_array_equal(row_sums, np.full(c, k + 1))
    assert np.all(np.diag(g.adjacency) == 1)
    np.testing.assert_allclose(g.norm_adjacency.sum(axis=1), 1.0, atol=1e-6)
    np.testing.assert_allclose(
        g.norm_adjacency, g.adjacency / row_sums[:, None], atol=0
    )


def loop_knn_adjacency(x: np.ndarray, k: int) -> np.ndarray:
    """Reference: one stable descending sort per row, the node itself excluded."""
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    sims = unit @ unit.T
    adjacency = np.eye(len(x), dtype=np.int8)
    for i in range(len(x)):
        row = sims[i].copy()
        row[i] = -np.inf
        adjacency[i, np.argsort(-row, kind="stable")[:k]] = 1
    return adjacency


@pytest.mark.filterwarnings("ignore:knn_k")
@pytest.mark.parametrize("seed", range(40))
def test_matches_per_row_reference_with_ties(seed):
    # coarse integer rows and duplicated rows give exact cosine ties
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 9))
    x = rng.integers(-1, 2, size=(c, 3)).astype(np.float64)
    x[np.abs(x).sum(axis=1) == 0, 0] = 1.0
    if c > 2:
        x[-1] = x[0]
    for k in range(1, c + 2):
        got = build_knn_graph(x, k).adjacency
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, loop_knn_adjacency(x, k))


def test_row_normalize_hand_cases():
    np.testing.assert_allclose(
        row_normalize(np.asarray([[1, 1], [1, 1]])),
        [[0.5, 0.5], [0.5, 0.5]],
    )
    np.testing.assert_allclose(row_normalize(np.eye(3)), np.eye(3))
    np.testing.assert_allclose(
        row_normalize(np.asarray([[1, 1, 0], [0, 1, 0], [1, 1, 1]])),
        [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [1 / 3, 1 / 3, 1 / 3]],
    )


def test_row_normalize_zero_row_rejected():
    with pytest.raises(InvariantError, match="zero row"):
        row_normalize(np.asarray([[1, 0], [0, 0]]))


@settings(max_examples=40, deadline=None)
@given(c=st.integers(3, 10), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_permutation_consistency(c, k, seed):
    # random gaussian rows are tie-free with probability 1
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(c, 6))
    if k >= c:
        return
    perm = rng.permutation(c)
    p = np.eye(c)[perm]
    a = build_knn_graph(x, k).adjacency
    a_perm = build_knn_graph(p @ x, k).adjacency
    np.testing.assert_array_equal(a_perm, p @ a @ p.T)


def test_row_rescaling_leaves_graph_unchanged():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 4))
    base = build_knn_graph(x, 2).adjacency
    x[3] *= 17.0
    np.testing.assert_array_equal(build_knn_graph(x, 2).adjacency, base)


def test_input_validation():
    with pytest.raises(NonFiniteError):
        build_knn_graph(np.asarray([[1.0, np.nan], [0.0, 1.0]]), 1)
    with pytest.raises(NonFiniteError, match="zero-norm"):
        build_knn_graph(np.asarray([[1.0, 0.0], [0.0, 0.0]]), 1)
    with pytest.raises(InvariantError):
        build_knn_graph(np.ones((2, 2)), 0)
    with pytest.raises(InvariantError):
        build_knn_graph(np.ones(3), 1)


def test_dump_graph_csv(tmp_path):
    g = build_knn_graph(np.eye(3), k=1)
    path = tmp_path / "graph.csv"
    dump_graph_csv(g, path)
    rows = [
        [int(v) for v in line.split(",")]
        for line in path.read_text().strip().splitlines()
    ]
    np.testing.assert_array_equal(np.asarray(rows), g.adjacency)
