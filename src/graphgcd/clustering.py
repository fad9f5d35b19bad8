"""Similarity-distribution features and constrained semi-supervised k-means.

Samples are described by their cosine similarities to the per-class graph
embeddings; clustering runs in that feature space with labeled samples pinned
to the cluster matching their class id (clusters 0..R-1 are reserved for the
R known classes, the rest are free).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embed_io import EmbeddingSet
from .errors import InputError, InvariantError
from .neural_core import ModelParams, gcn_forward, projector_forward
from .semantic_graph import SemanticGraph

MAX_LLOYD_ITERATIONS = 300
_INERTIA_SLACK = 1e-9


@dataclass
class ClusterAssignment:
    assignment: np.ndarray        # int cluster id per sample
    centroids: np.ndarray         # [K x f]
    constrained_mask: np.ndarray  # True where the sample was labeled
    iterations_run: int
    inertia: float


def similarity_features(
    x_set: EmbeddingSet,
    params: ModelParams,
    graph: SemanticGraph,
    class_embeddings: EmbeddingSet,
) -> np.ndarray:
    """Rows of cosine similarities between projected samples and class embeddings."""
    ybar, _ = gcn_forward(graph, class_embeddings.data, params)
    z, _ = projector_forward(x_set.data, params)
    # both factors are row-normalized, so the product is already cosine
    return np.clip(z @ ybar.T, -1.0, 1.0)


def _reserved_count(labels: np.ndarray) -> int:
    labeled = labels[labels >= 0]
    if labeled.size == 0:
        return 0
    r = int(labeled.max()) + 1
    present = np.unique(labeled)
    if present.size != r:
        raise InputError("labeled class ids must be contiguous from 0")
    return r


def kmeans_pp_init(
    features: np.ndarray, labels: np.ndarray, k: int, seed
) -> np.ndarray:
    """Reserved centroids are labeled-class means; free ones by D^2 seeding."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    reserved = _reserved_count(labels)
    if reserved > k:
        raise InputError(f"{reserved} known classes do not fit in k={k}")

    centroids = np.empty((k, features.shape[1]), dtype=np.float64)
    for c in range(reserved):
        centroids[c] = features[labels == c].mean(axis=0)

    free_pts = np.flatnonzero(labels < 0)
    if k - reserved > free_pts.size:
        raise InputError(
            f"need {k - reserved} free centroids but only {free_pts.size} free points"
        )
    rng = np.random.default_rng(seed)
    available = list(free_pts)
    for c in range(reserved, k):
        cand = features[available]
        if c == 0:
            # nothing to measure distance against yet: uniform first pick
            pick = int(rng.integers(len(available)))
        else:
            d2 = ((cand[:, None, :] - centroids[None, :c, :]) ** 2).sum(axis=2).min(axis=1)
            total = d2.sum()
            if total <= 0.0:
                pick = int(rng.integers(len(available)))
            else:
                r = rng.random() * total
                pick = int(np.searchsorted(np.cumsum(d2), r, side="right"))
                pick = min(pick, len(available) - 1)
        centroids[c] = features[available[pick]]
        del available[pick]
    return centroids


def _inertia(features: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> float:
    diff = features - centroids[assignment]
    return float((diff * diff).sum())


def semisup_kmeans(
    features: np.ndarray,
    labels: np.ndarray,
    k: int,
    seed,
    init: np.ndarray | None = None,
    on_iteration: Callable[[int, np.ndarray, np.ndarray, float], None] | None = None,
) -> ClusterAssignment:
    """Lloyd iterations with labeled samples pinned to their class's cluster.

    Free samples go to the nearest centroid (Euclidean, ties to the lowest
    cluster id). An empty free cluster is re-seeded to the free point farthest
    from its current centroid. Stops when assignments repeat or at 300
    iterations. `init` overrides the kmeans++ seeding (used by equivalence
    tests); `on_iteration(i, assignment, centroids, inertia)` observes every
    completed iteration.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n = features.shape[0]
    if labels.shape != (n,):
        raise InputError("labels length does not match feature rows")
    if k < 1 or k > n:
        raise InputError(f"k={k} must lie in [1, {n}]")
    reserved = _reserved_count(labels)
    if reserved > k:
        raise InputError(f"{reserved} known classes do not fit in k={k}")

    centroids = kmeans_pp_init(features, labels, k, seed) if init is None else (
        np.asarray(init, dtype=np.float64).copy()
    )
    if centroids.shape != (k, features.shape[1]):
        raise InvariantError(f"init centroids shape {centroids.shape} != ({k}, {features.shape[1]})")

    constrained = labels >= 0
    assignment = np.empty(n, dtype=np.int64)
    assignment[constrained] = labels[constrained]
    prev = None
    last_inertia = np.inf
    iterations = 0

    for it in range(MAX_LLOYD_ITERATIONS):
        d2 = ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        free = ~constrained
        assignment[free] = np.argmin(d2[free], axis=1)

        # re-seed empty free clusters before the update step
        counts = np.bincount(assignment, minlength=k)
        for c in range(reserved, k):
            if counts[c] > 0:
                continue
            free_idx = np.flatnonzero(free)
            if free_idx.size == 0:
                raise InvariantError("empty cluster with no free points to steal")
            dist_own = ((features[free_idx] - centroids[assignment[free_idx]]) ** 2).sum(axis=1)
            steal = free_idx[int(np.argmax(dist_own))]
            counts[assignment[steal]] -= 1
            assignment[steal] = c
            counts[c] = 1

        for c in range(k):
            members = assignment == c
            if members.any():
                centroids[c] = features[members].mean(axis=0)

        iterations = it + 1
        inertia = _inertia(features, centroids, assignment)
        if inertia > last_inertia + _INERTIA_SLACK:
            raise InvariantError(
                f"inertia increased from {last_inertia!r} to {inertia!r} at iteration {it}"
            )
        last_inertia = inertia
        if on_iteration is not None:
            on_iteration(it, assignment.copy(), centroids.copy(), inertia)
        if prev is not None and np.array_equal(prev, assignment):
            break
        prev = assignment.copy()

    if constrained.any() and not np.array_equal(assignment[constrained], labels[constrained]):
        raise InvariantError("labeled sample left its class cluster")
    return ClusterAssignment(
        assignment=assignment,
        centroids=centroids,
        constrained_mask=constrained,
        iterations_run=iterations,
        inertia=last_inertia,
    )


def scan_inertia(
    features: np.ndarray, labels: np.ndarray, k_min: int, k_max: int, seed
) -> list[tuple[int, float]]:
    """Final inertia of semisup_kmeans for each K in [k_min, k_max].

    Each K gets its own derived seed so the scan is order-independent.
    """
    if k_min > k_max:
        raise InputError(f"k_min={k_min} exceeds k_max={k_max}")
    out = []
    for k in range(k_min, k_max + 1):
        sub = np.random.SeedSequence([int(seed), 3, k])
        res = semisup_kmeans(features, labels, k, sub)
        out.append((k, res.inertia))
    return out


def elbow_point(ks: list[int], inertias: list[float]) -> int:
    """K farthest (perpendicular) from the line through the scan endpoints.

    Ties, including the degenerate all-collinear case, break to the lowest K.
    """
    if len(ks) != len(inertias) or not ks:
        raise InvariantError("elbow needs aligned, non-empty scan results")
    if len(ks) == 1:
        return ks[0]
    x = np.asarray(ks, dtype=np.float64)
    y = np.asarray(inertias, dtype=np.float64)
    dx, dy = x[-1] - x[0], y[-1] - y[0]
    length = np.hypot(dx, dy)
    if length == 0.0:
        return ks[0]
    dist = np.abs(dy * (x - x[0]) - dx * (y - y[0])) / length
    return ks[int(np.argmax(dist))]


def estimate_k(
    features: np.ndarray, labels: np.ndarray, k_min: int, k_max: int, seed
) -> int:
    """Geometric elbow over the inertia curve of the constrained k-means."""
    scan = scan_inertia(features, labels, k_min, k_max, seed)
    return elbow_point([k for k, _ in scan], [i for _, i in scan])
