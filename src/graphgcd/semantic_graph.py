"""Class-level kNN graph over class embeddings and its propagation matrix."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .embed_io import write_csv
from .errors import InvariantError, NonFiniteError


@dataclass
class SemanticGraph:
    """Directed kNN adjacency over class nodes plus its row-normalized form.

    adjacency[i, j] = 1 iff j is among the k classes most cosine-similar to i
    (ties to the lower index) or i == j; norm_adjacency is adjacency with each
    row divided by its row sum.
    """

    adjacency: np.ndarray
    norm_adjacency: np.ndarray


def build_knn_graph(class_embeddings: np.ndarray, k: int) -> SemanticGraph:
    """Connect each class to its k nearest neighbors by cosine similarity.

    Self-loops are always present. k >= (number of classes) - 1 degenerates
    to the complete graph (a warning when k reaches the class count, not an
    error).
    """
    x = np.asarray(class_embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise InvariantError(f"class embeddings must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteError("class embeddings contain non-finite values")
    if k < 1:
        raise InvariantError(f"k must be >= 1, got {k}")

    c = x.shape[0]
    if k >= c:
        warnings.warn(
            f"knn_k={k} >= {c} class nodes: graph degenerates to the complete graph",
            stacklevel=2,
        )

    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if (norms < 1e-12).any():
        raise NonFiniteError("zero-norm class embedding row")
    unit = x / norms
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)

    adjacency = np.eye(c, dtype=np.int8)
    # stable sort on descending similarity -> lower index wins ties; each
    # node sorts itself last, so k >= c - 1 selects every other node
    nearest = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    adjacency[np.arange(c)[:, None], nearest] = 1

    return SemanticGraph(adjacency=adjacency, norm_adjacency=row_normalize(adjacency))


def row_normalize(adjacency: np.ndarray) -> np.ndarray:
    """Return D^-1 A: each adjacency row divided by its row sum."""
    a = np.asarray(adjacency, dtype=np.float64)
    row_sums = a.sum(axis=1, keepdims=True)
    if (row_sums <= 0).any():
        raise InvariantError("adjacency has a zero row; self-loops are required")
    return a / row_sums


def dump_graph_csv(graph: SemanticGraph, path) -> None:
    """Write the binary adjacency as CSV, one node row per line."""
    write_csv(path, (), graph.adjacency.tolist())
