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

from .errors import InputError, InvariantError
from .neural_core import ModelParams, gcn_forward, projector_forward
from .semantic_graph import SemanticGraph

MAX_LLOYD_ITERATIONS = 300
_INERTIA_SLACK = 1e-9
_CHUNK_ROWS = 2048  # rows per feature block and per distance GEMM (g is _CHUNK_ROWS x k)


@dataclass
class ClusterAssignment:
    assignment: np.ndarray        # int cluster id per sample
    centroids: np.ndarray         # [K x f]
    constrained_mask: np.ndarray  # True where the sample was labeled
    iterations_run: int
    inertia: float


def similarity_features(
    x: np.ndarray, params: ModelParams, graph: SemanticGraph, h0: np.ndarray
) -> np.ndarray:
    """Cosine of each projected row of `x` (the caller's array, not a copy) to each GCN class row.

    The features are float64 whatever the inputs' dtype: h0 is cast, and
    rows go through in blocks of _CHUNK_ROWS, in two float64 buffers reused
    by every block (one block x d, one block x max(hidden, d)), so memory
    beyond x and the n x C result is one block's. Every block is full-size
    (the last one is the final _CHUNK_ROWS rows and recomputes those it
    shares with the one before): BLAS may round a product with fewer rows
    differently, and with full-size blocks the bits equal one whole-array
    product on tested shapes.
    """
    ybar = gcn_forward(graph, np.asarray(h0, dtype=np.float64), params)[0]
    n, d = x.shape
    block = min(n, _CHUNK_ROWS)
    rows_buf = np.empty((block, d))
    scratch = np.empty(block * max(params.proj_w1.shape[1], d))
    out = np.empty((n, ybar.shape[0]))
    for lo in range(0, n, _CHUNK_ROWS):
        rows = slice(min(lo, max(n - _CHUNK_ROWS, 0)), lo + _CHUNK_ROWS)
        z = projector_forward(x[rows], params, rows_buf, scratch)[0]
        # both factors are row-normalized, so the product is already cosine
        np.clip(np.matmul(z, ybar.T, out=out[rows]), -1.0, 1.0, out=out[rows])
    return out


def _reserved_count(labels: np.ndarray) -> int:
    labeled = labels[labels >= 0]
    if labeled.size == 0:
        return 0
    r = int(labeled.max()) + 1
    # ids 0..r-1 all present; the row count bounds r before bincount allocates r
    # counts. np.unique would import numpy.ma, which no command otherwise loads.
    if r > labeled.size or not np.bincount(labeled).all():
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
    pinned = labels >= 0  # class means, with the bits of features[labels == c].mean(axis=0)
    counts = np.bincount(labels[pinned], minlength=k)
    _update_centroids(features[pinned], labels[pinned], counts, centroids)

    free_pts = np.flatnonzero(labels < 0)
    if k - reserved > free_pts.size:
        raise InputError(
            f"need {k - reserved} free centroids but only {free_pts.size} free points"
        )
    rng = np.random.default_rng(seed)
    cand = features[free_pts]
    taken = np.zeros(free_pts.size, dtype=bool)
    # squared distance from each free point to its nearest centroid so far;
    # min is exact, so each weight equals a fresh min over all placed centroids
    d2 = np.full(free_pts.size, np.inf)
    if k > reserved:
        for c in range(reserved):
            np.minimum(d2, ((cand - centroids[c]) ** 2).sum(axis=1), out=d2)
    for c in range(reserved, k):
        available = np.flatnonzero(~taken)
        if c == 0:
            # nothing to measure distance against yet: uniform first pick
            pick = int(rng.integers(available.size))
        else:
            weights = d2[available]
            total = weights.sum()
            if total <= 0.0:
                pick = int(rng.integers(available.size))
            else:
                r = rng.random() * total
                pick = int(np.searchsorted(np.cumsum(weights), r, side="right"))
                pick = min(pick, available.size - 1)
        taken[available[pick]] = True
        centroids[c] = cand[available[pick]]
        if c + 1 < k:
            np.minimum(d2, ((cand - centroids[c]) ** 2).sum(axis=1), out=d2)
    return centroids


def _nearest_centroid(
    features: np.ndarray, rows: np.ndarray, xx: np.ndarray, centroids: np.ndarray,
    scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of each listed row, and a bound gap that certifies it.

    For x = features[rows[i]], best[i] is the argmin over c of the direct
    ((x - c)**2).sum(-1), ties to the lowest id. xx holds (features *
    features).sum(axis=1); each chunk's rows are gathered into scratch, which
    needs at least min(rows.size, _CHUNK_ROWS) rows. Distances come from the
    expanded form g = |x|^2 - 2 x.c + |c|^2, one centroid-major GEMM
    (k x rows) per chunk of _CHUNK_ROWS rows, so no n x k x f array is
    built. Let D be the exact squared distance, u the unit roundoff and
    gamma_m = m u / (1 - m u). Over f features:
      - the direct form squares f rounded differences (relative error
        gamma_3 each) and sums them in some order (gamma_{f-1}), so
        |direct - D| <= gamma_{f+2} D;
      - |x|^2, |c|^2 and x.c (any summation order, with or without FMA) are
        each off by at most gamma_f times |x|^2, |c|^2 and |x||c|, scaling c
        by -2 is exact, and the two additions that form g add 2u of their
        operands' magnitude, so |g - D| <= gamma_{f+2} (|x| + |c|)^2.
    With D <= (|x| + |c|)^2, |g - direct| <= E = 2 gamma_{f+2} (|x| + |c|)^2.
    If the runner-up g exceeds the best g by more than 2E, every other
    centroid's direct distance is strictly above the best one's, so the argmin
    of g is the direct argmin. Rows within 2E (ties among them) and rows with
    a NaN are recomputed in the direct form, one centroid at a time.
    The code takes E = 2 (f + 2) eps (|x| + max |c|)^2 with eps = 2u, about
    twice the bound; the slack also covers the rounding of E itself.

    gap[i] is sqrt(max(g_second - E, 0)) - sqrt(g_best + E): E is about
    four times the bound on |g - D|, so the first term is at most (1 + u)
    times the exact distance to every other centroid and the second at least
    (1 - u) times the exact distance to the own one. Rows recomputed in the
    direct form get gap -inf, so semisup_kmeans never skips them in the next
    iteration.
    """
    k, f = centroids.shape
    cc = (centroids * centroids).sum(axis=1)
    c_max = np.sqrt(cc.max())
    e_scale = 2.0 * (f + 2) * np.finfo(np.float64).eps  # E per (|x| + max|c|)^2
    m2c = -2.0 * centroids
    best = np.empty(rows.size, dtype=np.int64)
    gap = np.empty(rows.size)
    for lo in range(0, rows.size, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, rows.size)
        x = np.take(features, rows[lo:hi], axis=0, out=scratch[:hi - lo], mode="clip")
        xx_x = xx[rows[lo:hi]]
        g = m2c @ x.T
        g += cc[:, None]
        g_best = g.min(axis=0)
        # the lowest id at each minimum; argmin over axis 0 would copy all of g
        b = np.argmax(g == g_best, axis=0)
        g[b, np.arange(hi - lo)] = np.inf
        # rounding is monotone, so adding |x|^2 after the minimum gives the best
        # and runner-up of the full g with one pass over k x rows fewer
        g_second = g.min(axis=0) + xx_x
        g_best += xx_x
        e = e_scale * (np.sqrt(xx_x) + c_max) ** 2
        near = np.flatnonzero(~(g_second - g_best > 2.0 * e))
        np.subtract(np.sqrt(np.maximum(g_second - e, 0.0)), np.sqrt(g_best + e), out=gap[lo:hi])
        if near.size:
            xs = x[near]
            direct = np.empty((near.size, k))
            for c in range(k):
                direct[:, c] = ((xs - centroids[c]) ** 2).sum(axis=1)
            b[near] = np.argmin(direct, axis=1)
            gap[lo + near] = -np.inf
        best[lo:hi] = b
    return best, gap


def _inertia(
    features: np.ndarray, centroids: np.ndarray, assignment: np.ndarray, out: np.ndarray
) -> float:
    """((features - centroids[assignment]) ** 2).sum(), bit for bit, in the n x f buffer out.

    The indices are in range, so mode="clip" changes no value; it lets np.take
    write into out directly, where the default mode="raise" fills a temporary
    copy of the whole result first (the module's other np.take calls do the same).
    """
    np.take(centroids, assignment, axis=0, out=out, mode="clip")
    np.subtract(features, out, out=out)
    np.multiply(out, out, out=out)
    return float(out.sum())


def _update_centroids(
    features: np.ndarray, assignment: np.ndarray, counts: np.ndarray, centroids: np.ndarray
) -> None:
    """Set each non-empty cluster's centroid to its members' mean; empty ones keep theirs.

    counts[c] must be the number of rows assigned to c. Every mean has the
    bits of features[assignment == c].mean(axis=0). For f >= 2 numpy reduces
    a C-contiguous block over axis 0 by adding its rows in index order to
    +0.0, which is the order in which one np.bincount per feature adds them.
    For f = 1 it sums the column pairwise instead, so there a stable sort
    gathers each cluster's rows, in index order, and each slice is reduced.
    """
    filled = counts > 0
    if features.shape[1] > 1:
        sums = np.stack([np.bincount(assignment, weights=column, minlength=counts.size)
                         for column in features.T], axis=1)
        centroids[filled] = sums[filled] / counts[filled, None]
        return
    members = features[np.argsort(assignment, kind="stable")]
    start = 0
    for c, count in enumerate(counts.tolist()):
        if count:
            centroids[c] = np.add.reduce(members[start:start + count], axis=0) / count
        start += count


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
    cluster id). Empty free clusters are re-seeded in id order, each to the
    free point then farthest from its own centroid. Stops when assignments
    repeat or at 300 iterations. `init` overrides the kmeans++ seeding (used
    by equivalence tests); `on_iteration(i, assignment, centroids, inertia)`
    observes every completed iteration.

    Hamerly's bounds (Hamerly, "Making k-means even faster", SDM 2010) spare
    the distance step the rows whose cluster cannot change. Each free row
    keeps one number, h: a lower bound on its distance to every other
    centroid minus an upper bound on its distance to its own. The distance
    step sets h (see _nearest_centroid); after each update h falls by the
    own centroid's shift plus the largest shift among the others, by the
    triangle inequality. A row with h > tol keeps its cluster with no
    distance computed, and the proof below makes that the direct-form argmin,
    strictly, so tie-breaking never decides it. Rows recomputed in the
    direct form and rows moved by a re-seed have h = -inf, so they always
    go through the distance step next time.

    Why tol = (300 + 2 (f + 8)) eps B, with B = |x| + the largest centroid
    norm seen in this run (the code takes the largest |x| among the free
    rows, which only widens tol): every distance and bound the row's h ever
    held is at most about B. Setting h is off by at most 3uB (two square roots and a
    subtraction). Each of the at most 300 updates adds one rounding of at
    most uB to h and to the decrement (h stays in (tol, B] for a skipped row,
    so the decrements sum to at most B), and a computed shift is within
    gamma_{f+4} of the exact one, which over all updates costs gamma_{f+4} B.
    So the exact margin min_c |x - c| - |x - own| exceeds
    h - (300 + 3) u B - gamma_{f+4} B > (f + 3) u B. The direct form
    misreads each squared distance by at most gamma_{f+2} of itself, which
    needs a margin of about gamma_{f+2} |x - own| <= (f + 3) u B to keep the
    own cluster strictly first. tol is about twice that sum, so the slack
    also covers the rounding of tol and B.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n, f = features.shape
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
    if centroids.shape != (k, f):
        raise InvariantError(f"init centroids shape {centroids.shape} != ({k}, {f})")

    constrained = labels >= 0
    free_rows = np.flatnonzero(~constrained)
    xx = (features * features).sum(axis=1)
    x_max = np.sqrt(xx[free_rows].max(initial=0.0))
    tol_scale = (MAX_LLOYD_ITERATIONS + 2 * (f + 8)) * np.finfo(np.float64).eps
    gap = np.full(free_rows.size, -np.inf)  # h of each free row
    c_run = 0.0
    assignment = np.empty(n, dtype=np.int64)
    assignment[constrained] = labels[constrained]
    buffer = np.empty_like(features)
    prev = None
    last_inertia = np.inf
    iterations = 0

    for it in range(MAX_LLOYD_ITERATIONS):
        c_run = max(c_run, np.sqrt((centroids * centroids).sum(axis=1).max()))
        stale = np.flatnonzero(~(gap > tol_scale * (x_max + c_run)))
        if stale.size:
            # the inertia buffer is free until the inertia step, so the rows are gathered there
            best, gap[stale] = _nearest_centroid(features, free_rows[stale], xx, centroids, buffer)
            assignment[free_rows[stale]] = best

        # re-seed empty free clusters, in id order, before the update step;
        # a steal may empty a later cluster, which the loop then re-seeds too
        counts = np.bincount(assignment, minlength=k)
        for c in range(reserved, k):
            if counts[c] > 0:
                continue
            if free_rows.size == 0:
                raise InvariantError("empty cluster with no free points to steal")
            own = centroids[assignment[free_rows]]
            dist_own = ((features[free_rows] - own) ** 2).sum(axis=1)
            steal = int(np.argmax(dist_own))  # position among the free rows
            counts[assignment[free_rows[steal]]] -= 1
            assignment[free_rows[steal]] = c
            counts[c] = 1
            gap[steal] = -np.inf

        old = centroids.copy()
        _update_centroids(features, assignment, counts, centroids)
        shift = np.sqrt(((centroids - old) ** 2).sum(axis=1))
        # own shift plus the largest shift among the other centroids
        top = int(np.argmax(shift))
        drop = shift + shift[top]
        drop[top] = shift[top] + np.delete(shift, top).max(initial=0.0)
        gap -= drop[assignment[free_rows]]

        iterations = it + 1
        inertia = _inertia(features, centroids, assignment, buffer)
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


def _scan_one(features: np.ndarray, labels: np.ndarray, k: int, seed) -> tuple[int, float]:
    """One elbow-scan entry: K and the final inertia from K's own derived seed."""
    return k, semisup_kmeans(features, labels, k, seed).inertia


# (features, labels, seeds by K) of the scan a forked worker serves, set by its initializer
_scan_inputs: tuple | None = None


def _init_scan_worker(features: np.ndarray, labels: np.ndarray, seeds: dict) -> None:
    global _scan_inputs
    _scan_inputs = (features, labels, seeds)


def _scan_worker(k: int) -> tuple[int, float]:
    features, labels, seeds = _scan_inputs
    return _scan_one(features, labels, k, seeds[k])


def scan_inertia(
    features: np.ndarray, labels: np.ndarray, k_min: int, k_max: int, seed, workers: int = 1
) -> list[tuple[int, float]]:
    """Final inertia of semisup_kmeans for each K in [k_min, k_max].

    Each K gets its own derived seed so the scan is order-independent. With
    workers > 1 the K values run in up to that many forked processes, which
    inherit the inputs instead of receiving a pickled copy per task; results
    are equal to the serial scan's, and if several K fail, the lowest K's
    error is raised, as in the serial scan. Without fork the scan is serial.
    Workers inherit the calling process's BLAS threads: the CLI runs one (see
    graphgcd.cli); a library caller that wants the same sets
    OPENBLAS_NUM_THREADS=1 before numpy loads.
    """
    if k_min > k_max:
        raise InputError(f"k_min={k_min} exceeds k_max={k_max}")
    ks = range(k_min, k_max + 1)
    # derived before any fork, so the workers inherit numpy.random instead of importing it
    seeds = {k: np.random.SeedSequence([int(seed), 3, k]) for k in ks}
    workers = min(workers, len(ks))
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_init_scan_worker, initargs=(features, labels, seeds),
            ) as pool:
                # largest K first: the longest runs start early, so workers finish together
                futures = {k: pool.submit(_scan_worker, k) for k in reversed(ks)}
                try:
                    return [futures[k].result() for k in ks]
                except BaseException:
                    # the scan has failed: start none of the K values still queued
                    pool.shutdown(cancel_futures=True)
                    raise
    return [_scan_one(features, labels, k, seeds[k]) for k in ks]


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
