"""Metric losses with exact analytic gradients, on unit rows.

Three terms, summed with unit weights: a class-matching term (cross-entropy
over cosine logits plus a margin hinge), a triplet separation term, and a
prompt-to-center quadratic term. Every row a loss reads is a unit row, as the
forward passes return them, so a dot product is a cosine; each public loss
rejects rows more than 1e-6 from unit norm, and returns its gradients w.r.t.
the unit rows it was given. Normalization, and with it the invariance to
positive row rescaling and the normalization Jacobian, belongs to the
forwards and their backward passes. The triplet term's gradient is one
product of a b×b weight matrix with the batch rows. The losses take the
arrays they read, and each checks only those. Every function computes in
the dtype numpy promotes its operands to.

The `as_printed` switches reproduce the sign conventions of the published
equations verbatim; the defaults follow the surrounding description (hinge
pushes wrong-class similarity below true-class similarity by the margin,
triplet term rewards high positive similarity).
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError

_UNIT_TOL = 1e-6


def _check_unit(**named_rows: np.ndarray) -> None:
    """InvariantError unless every row's norm is within _UNIT_TOL of 1; NaN fails."""
    for name, m in named_rows.items():
        if not (np.abs(np.linalg.norm(m, axis=1) - 1.0) <= _UNIT_TOL).all():
            raise InvariantError(f"{name} rows are not unit-norm")


def loss_cma(
    z: np.ndarray, y_idx: np.ndarray, ybar: np.ndarray, alpha: float, temperature: float,
    as_printed: bool = False,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Class-matching loss: CE over cosine logits plus margin hinge.

    z: projected visual features [b x d]; y_idx: known-class index per row;
    ybar: per-class graph embeddings [C x d]; z and ybar hold unit rows.
    Returns (loss, grad_z, grad_ybar), batch-mean reduction.
    """
    b, d = z.shape
    c = ybar.shape[0]
    if ybar.shape[1] != d:
        raise InvariantError("batch tensors disagree on dimensions")
    if y_idx.shape != (b,):
        raise InvariantError("y_idx length does not match batch size")
    if b == 0:
        raise InvariantError("batch has no rows")
    if y_idx.min() < 0 or y_idx.max() >= c:
        raise InvariantError("class index out of range")
    _check_unit(z=z, ybar=ybar)
    if not 0.0 <= alpha <= 1.0:
        raise InvariantError(f"alpha must lie in [0,1], got {alpha}")
    if temperature <= 0.0:
        raise InvariantError(f"temperature must be positive, got {temperature}")
    rows = np.arange(b)

    s = z @ ybar.T
    logits = s / temperature
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    softmax = exp / exp.sum(axis=1, keepdims=True)
    ce = np.log(exp.sum(axis=1)) - shifted[rows, y_idx]

    pos = s[rows, y_idx][:, None]
    # as printed, the margin term is negated; negation is exact
    sign = -1.0 if as_printed else 1.0
    hinge = np.maximum(sign * (s - pos + alpha), 0.0)
    hinge[rows, y_idx] = 0.0  # c = y excluded from the margin sum
    loss = float((ce + hinge.sum(axis=1)).mean())

    gs = softmax.copy()
    gs[rows, y_idx] -= 1.0
    gs /= temperature
    active = sign * (hinge > 0.0).astype(hinge.dtype)
    gs += active
    gs[rows, y_idx] -= active.sum(axis=1)
    gs /= b
    return loss, gs @ ybar, gs.T @ z


def loss_sdp(
    z: np.ndarray, triplets: np.ndarray | list[tuple[int, int, int]], as_printed: bool = False
) -> tuple[float, np.ndarray]:
    """Triplet separation loss; mean over (anchor, positive, negative) rows of z.

    z holds unit rows, and triplets index them, repeats allowed. Each cosine
    z_a·z_p has gradient z_p at row a and z_a at row p, so every triplet's
    cosine weights go into one b×b matrix w at [a, p], [p, a], [a, n] and
    [n, a], and grad_z = w @ z. Returns (loss, grad_z).
    """
    z = np.asarray(z)
    if z.ndim != 2:
        raise InvariantError(f"z must be a matrix of rows, got shape {z.shape}")
    idx = np.asarray(triplets, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] != 3:
        raise InvariantError(f"triplets must have shape (m, 3), got {idx.shape}")
    if idx.shape[0] < 1:
        raise InvariantError("loss_sdp needs at least one triplet")
    if idx.min() < 0 or idx.max() >= z.shape[0]:
        raise InvariantError("triplet index outside the batch")
    _check_unit(z=z)
    m = idx.shape[0]
    a, p, n = idx.T
    za = z[a]
    sp = (za * z[p]).sum(axis=1)
    sn = (za * z[n]).sum(axis=1)
    if as_printed:
        loss = float((sp - 1.0).mean() + sn.mean())
        gsp = np.full(m, 1.0 / m, sp.dtype)
        gsn = np.full(m, 1.0 / m, sn.dtype)
    else:
        loss = float((1.0 - sp).mean() + np.maximum(sn, 0.0).mean())
        gsp = np.full(m, -1.0 / m, sp.dtype)
        gsn = (sn > 0.0).astype(sn.dtype) / m
    # built in z's dtype: np.bincount would always give float64
    b = z.shape[0]
    w = np.zeros((b, b), z.dtype)
    rows, cols = np.concatenate((a, p, a, n)), np.concatenate((p, a, n, a))
    np.add.at(w.reshape(-1), rows * b + cols, np.concatenate((gsp, gsp, gsn, gsn)))
    return loss, w @ z


def loss_cs(t: np.ndarray, centers: np.ndarray) -> tuple[float, np.ndarray]:
    """Half squared distance from each prompt row to its class center.

    Centers are constants (no gradient); returns (loss, grad_t).
    """
    t, centers = np.asarray(t), np.asarray(centers)
    if t.shape != centers.shape:
        raise InvariantError(f"prompt shape {t.shape} != centers shape {centers.shape}")
    diff = t - centers
    return float(0.5 * (diff * diff).sum()), diff


def loss_total(
    z: np.ndarray, y_idx: np.ndarray, ybar: np.ndarray, t: np.ndarray,
    triplets: np.ndarray | list[tuple[int, int, int]], alpha: float, temperature: float,
    as_printed: bool = False,
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray], dict[str, float]]:
    """Sum of the three terms with unit weights.

    z, y_idx and ybar are loss_cma's; t holds the prompt features [C x d] as
    unit rows. Triplets are (anchor, positive, negative) rows of z, repeats
    allowed; no triplets drops the triplet term. Returns (loss, (grad_z,
    grad_ybar, grad_t), per-term values keyed l_cma/l_sdp/l_cs/l_tot), the
    gradients w.r.t. the unit rows given; the backward passes map them onto
    what was normalized.
    """
    l_cma, gz, gybar = loss_cma(z, y_idx, ybar, alpha, temperature, as_printed)

    l_sdp = 0.0
    if len(triplets):
        l_sdp, g = loss_sdp(z, triplets, as_printed)
        gz += g

    # centers are the per-class graph embeddings, detached; loss_cs checks
    # that t has their shape before its rows are read
    l_cs, gt = loss_cs(t, ybar)
    _check_unit(t=t)

    total = l_cma + l_sdp + l_cs
    parts = {"l_cma": l_cma, "l_sdp": l_sdp, "l_cs": l_cs, "l_tot": total}
    return total, (gz, gybar, gt), parts


def sample_triplets(batch_labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One (anchor, positive, negative) per eligible anchor, drawn uniformly.

    Anchors are visited in index order; each draws a rank among its
    same-class peers, then a rank among the other-class samples, both in
    index order. All ranks come from one `rng.integers` call over the
    interleaved bounds, which consumes the same stream as drawing them anchor
    by anchor. Anchors with no same-class peer or no other-class sample are
    skipped. Returns an (m, 3) int64 array; (0, 3) when no anchor is eligible.
    """
    labels = np.asarray(batch_labels)
    n = labels.shape[0]
    order = np.argsort(labels, kind="stable")  # class buckets, index order inside
    _, starts, counts = np.unique(labels[order], return_index=True, return_counts=True)
    cls_sorted = np.repeat(np.arange(counts.size), counts)
    rank_sorted = np.arange(n) - starts[cls_sorted]  # position inside the bucket
    cls = np.empty(n, dtype=np.int64)
    cls[order] = cls_sorted
    rank = np.empty(n, dtype=np.int64)
    rank[order] = rank_sorted

    anchors = np.flatnonzero((counts[cls] > 1) & (counts[cls] < n))
    if anchors.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    c = cls[anchors]
    bounds = np.column_stack((counts[c] - 1, n - counts[c]))  # peers, others
    draws = rng.integers(bounds.ravel()).reshape(-1, 2)

    r = draws[:, 0]
    positive = order[starts[c] + r + (r >= rank[anchors])]  # skip the anchor
    # The r-th non-member of class c sits at r plus the number of members
    # with at most r non-members before them (member index minus its rank);
    # a class offset keeps every class's keys in one sorted array.
    key = cls_sorted * (n + 1) + order - rank_sorted
    r = draws[:, 1]
    negative = r + np.searchsorted(key, c * (n + 1) + r, side="right") - starts[c]
    return np.column_stack((anchors, positive, negative))
