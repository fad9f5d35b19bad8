"""Metric losses with exact analytic gradients, on unit rows.

Three terms, summed with unit weights: a class-matching term (cross-entropy
over cosine logits plus a margin hinge), a triplet separation term, and a
prompt-to-center quadratic term. Every row a loss reads is a unit row, as the
forward passes return them, so a dot product is a cosine; each public loss
rejects rows more than 1e-6 from unit norm, and returns its gradients w.r.t.
the unit rows it was given. Normalization, and with it the invariance to
positive row rescaling and the normalization Jacobian, belongs to the
forwards and their backward passes. Every function computes in the dtype
numpy promotes its operands to.

The `as_printed` switches reproduce the sign conventions of the published
equations verbatim; the defaults follow the surrounding description (hinge
pushes wrong-class similarity below true-class similarity by the margin,
triplet term rewards high positive similarity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError

_UNIT_TOL = 1e-6


def _check_unit(**named_rows: np.ndarray) -> None:
    """InvariantError unless every row's norm is within _UNIT_TOL of 1; NaN fails."""
    for name, m in named_rows.items():
        if not (np.abs(np.linalg.norm(m, axis=1) - 1.0) <= _UNIT_TOL).all():
            raise InvariantError(f"{name} rows are not unit-norm")


@dataclass
class Batch:
    """One training step's tensors.

    z: projected visual features [b x d]; y_idx: known-class index per row;
    ybar: per-class graph embeddings [C x d]; t: prompt features [C x d].
    z, ybar and t hold unit rows.
    """

    z: np.ndarray
    y_idx: np.ndarray
    ybar: np.ndarray
    t: np.ndarray

    def validate(self) -> None:
        b, d = self.z.shape
        c = self.ybar.shape[0]
        if self.ybar.shape[1] != d or self.t.shape != (c, d):
            raise InvariantError("batch tensors disagree on dimensions")
        if self.y_idx.shape != (b,):
            raise InvariantError("y_idx length does not match batch size")
        if self.y_idx.min() < 0 or self.y_idx.max() >= c:
            raise InvariantError("class index out of range")
        _check_unit(z=self.z, ybar=self.ybar, t=self.t)


def loss_cma(
    batch: Batch, alpha: float, temperature: float, as_printed: bool = False
) -> tuple[float, np.ndarray, np.ndarray]:
    """Class-matching loss: CE over cosine logits plus margin hinge.

    Validates the batch; returns (loss, grad_z, grad_ybar), batch-mean reduction.
    """
    batch.validate()
    if not 0.0 <= alpha <= 1.0:
        raise InvariantError(f"alpha must lie in [0,1], got {alpha}")
    if temperature <= 0.0:
        raise InvariantError(f"temperature must be positive, got {temperature}")
    z, y, ybar = batch.z, batch.y_idx, batch.ybar
    b = z.shape[0]
    rows = np.arange(b)

    s = z @ ybar.T
    logits = s / temperature
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    softmax = exp / exp.sum(axis=1, keepdims=True)
    ce = np.log(exp.sum(axis=1)) - shifted[rows, y]

    pos = s[rows, y][:, None]
    if as_printed:
        hinge = np.maximum(pos - s - alpha, 0.0)
    else:
        hinge = np.maximum(s - pos + alpha, 0.0)
    hinge[rows, y] = 0.0  # c = y excluded from the margin sum
    loss = float((ce + hinge.sum(axis=1)).mean())

    gs = softmax.copy()
    gs[rows, y] -= 1.0
    gs /= temperature
    active = (hinge > 0.0).astype(hinge.dtype)
    if as_printed:
        gs -= active
        gs[rows, y] += active.sum(axis=1)
    else:
        gs += active
        gs[rows, y] -= active.sum(axis=1)
    gs /= b
    return loss, gs @ ybar, gs.T @ z


def _sdp_terms(
    au: np.ndarray, pu: np.ndarray, nu: np.ndarray, as_printed: bool, out: np.ndarray
) -> float:
    """loss_sdp from the m triplets' unit rows.

    Writes the gradients w.r.t. the anchor, positive and negative unit rows,
    in that order, into the three m-row blocks of `out` [3m x d]; returns the loss.
    """
    m = au.shape[0]
    sp = (au * pu).sum(axis=1)
    sn = (au * nu).sum(axis=1)
    if as_printed:
        loss = float((sp - 1.0).mean() + sn.mean())
        gsp = np.full(m, 1.0 / m, sp.dtype)
        gsn = np.full(m, 1.0 / m, sn.dtype)
    else:
        loss = float((1.0 - sp).mean() + np.maximum(sn, 0.0).mean())
        gsp = np.full(m, -1.0 / m, sp.dtype)
        gsn = (sn > 0.0).astype(sn.dtype) / m
    gsp, gsn = gsp[:, None], gsn[:, None]
    ga, gp, gn = out.reshape(3, m, -1)
    # the anchor appears in both pairs' cosines
    np.multiply(gsp, pu, out=ga)
    ga += gsn * nu
    np.multiply(gsp, au, out=gp)
    np.multiply(gsn, au, out=gn)
    return loss


def loss_sdp(
    anchors: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    as_printed: bool = False,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Triplet separation loss; mean over row-aligned triplets of unit rows.

    Returns (loss, grad_anchors, grad_positives, grad_negatives).
    """
    anchors, positives, negatives = map(np.asarray, (anchors, positives, negatives))
    if anchors.ndim != 2 or anchors.shape[0] < 1:
        raise InvariantError("loss_sdp needs at least one triplet")
    for other in (positives, negatives):
        if other.shape != anchors.shape:
            raise InvariantError(f"pair shapes differ: {anchors.shape} vs {other.shape}")
    _check_unit(anchors=anchors, positives=positives, negatives=negatives)
    m = anchors.shape[0]
    out = np.empty((3 * m, anchors.shape[1]), np.result_type(anchors, positives, negatives))
    loss = _sdp_terms(anchors, positives, negatives, as_printed, out)
    return (loss, *out.reshape(3, m, -1))


def loss_cs(t: np.ndarray, centers: np.ndarray) -> tuple[float, np.ndarray]:
    """Half squared distance from each prompt row to its class center.

    Centers are constants (no gradient); returns (loss, grad_t).
    """
    t, centers = np.asarray(t), np.asarray(centers)
    if t.shape != centers.shape:
        raise InvariantError(f"prompt shape {t.shape} != centers shape {centers.shape}")
    diff = t - centers
    return float(0.5 * (diff * diff).sum()), diff


@dataclass
class TotalGrads:
    """Gradients of the summed loss w.r.t. the unit rows of batch.z, batch.ybar
    and batch.t; the backward passes map them onto what was normalized."""

    z: np.ndarray
    ybar: np.ndarray
    t: np.ndarray


def _scatter_add_rows(out: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    """`np.add.at(out, idx, vals)` bit for bit, one vectorised add per repeat.

    Each entry is ranked by how often its row occurred before it; round k adds
    every row's k-th entry. Rows within a round are unique, and each row
    receives its additions in the original order, as np.add.at applies them.
    """
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    occurrence = np.empty(idx.size, dtype=np.int64)
    occurrence[order] = np.arange(idx.size) - np.searchsorted(sorted_idx, sorted_idx)
    for k in range(int(occurrence.max()) + 1):
        sel = np.flatnonzero(occurrence == k)
        out[idx[sel]] += vals[sel]


def loss_total(
    batch: Batch,
    triplets: np.ndarray | list[tuple[int, int, int]],
    alpha: float,
    temperature: float,
    as_printed: bool = False,
) -> tuple[float, TotalGrads, dict[str, float]]:
    """Sum of the three terms with unit weights.

    Validates the batch. Triplets are (anchor, positive, negative) rows of
    batch.z, repeats allowed; no triplets drops the triplet term.
    Returns (loss, grads, per-term values keyed l_cma/l_sdp/l_cs/l_tot).
    """
    l_cma, gz, gybar = loss_cma(batch, alpha, temperature, as_printed)

    l_sdp = 0.0
    if len(triplets):
        idx = np.asarray(triplets, dtype=np.int64)
        if idx.ndim != 2 or idx.shape[1] != 3:
            raise InvariantError(f"triplets must have shape (m, 3), got {idx.shape}")
        if idx.min() < 0 or idx.max() >= gz.shape[0]:
            raise InvariantError("triplet index outside the batch")
        grads = np.empty((3 * idx.shape[0], gz.shape[1]), gz.dtype)
        l_sdp = _sdp_terms(*(batch.z[col] for col in idx.T), as_printed, grads)
        # the a, p, n columns in sequence: the order of three np.add.at calls
        _scatter_add_rows(gz, idx.T.ravel(), grads)

    # centers are the per-class graph embeddings, detached
    l_cs, gt = loss_cs(batch.t, batch.ybar)

    total = l_cma + l_sdp + l_cs
    parts = {"l_cma": l_cma, "l_sdp": l_sdp, "l_cs": l_cs, "l_tot": total}
    return total, TotalGrads(z=gz, ybar=gybar, t=gt), parts


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
