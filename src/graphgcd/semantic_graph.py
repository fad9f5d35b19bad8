"""Class-level kNN graph over class embeddings, as its propagation matrix D^-1 A.

A[i, j] = 1 iff j is among the k classes most cosine-similar to i (ties to
the lower index) or i == j. Self-loops keep every row sum positive, so A is
exactly the positive entries of D^-1 A, and the matrix is the whole graph.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import InputError, InvariantError, NonFiniteError


def build_knn_graph(class_embeddings: np.ndarray, k: int) -> np.ndarray:
    """Join each class to its k nearest by cosine similarity; return D^-1 A in float64.

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
        raise InputError("zero-norm class embedding row")
    unit = x / norms
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)

    a = np.eye(c)
    # stable sort on descending similarity -> lower index wins ties; each
    # node sorts itself last, so k >= c - 1 selects every other node
    nearest = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    a[np.arange(c)[:, None], nearest] = 1.0
    return a / a.sum(axis=1, keepdims=True)
