"""Metric losses with exact analytic gradients.

Three terms, summed with unit weights: a class-matching term (cross-entropy
over cosine logits plus a margin hinge), a triplet separation term, and a
prompt-to-center quadratic term. Cosines are computed from raw rows inside
each loss, so gradients include the normalization Jacobian and the losses are
invariant to positive row rescaling.

The `as_printed` switches reproduce the sign conventions of the published
equations verbatim; the defaults follow the surrounding description (hinge
pushes wrong-class similarity below true-class similarity by the margin,
triplet term rewards high positive similarity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .neural_core import NormTrace, normalize_rows


@dataclass
class Batch:
    """One training step's tensors.

    z: projected visual features [b x d]; y_idx: known-class index per row;
    ybar: per-class graph embeddings [C x d]; t: prompt features [C x d].
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
        for name, m in (("z", self.z), ("ybar", self.ybar), ("t", self.t)):
            norms = np.linalg.norm(np.asarray(m, dtype=np.float64), axis=1)
            if np.abs(norms - 1.0).max() > 1e-6:
                raise InvariantError(f"{name} rows are not unit-norm")


@dataclass
class _CosTrace:
    a: NormTrace
    b: NormTrace
    s: np.ndarray


def _cosine_matrix(a: np.ndarray, b: np.ndarray) -> _CosTrace:
    a_hat, ta = normalize_rows(a)
    b_hat, tb = normalize_rows(b)
    return _CosTrace(ta, tb, a_hat @ b_hat.T)


def _cosine_matrix_backward(tr: _CosTrace, gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # d s_ij / d a_i = (b̂_j - s_ij â_i) / ||a_i||, symmetric in b
    ga = (gs @ tr.b.unit - (gs * tr.s).sum(axis=1, keepdims=True) * tr.a.unit) / tr.a.norms
    gb = (gs.T @ tr.a.unit - (gs * tr.s).sum(axis=0)[:, None] * tr.b.unit) / tr.b.norms
    return ga, gb


def _cosine_pairs(ta: NormTrace, b: np.ndarray) -> _CosTrace:
    """Row-aligned cosines of already normalised rows `ta` against raw rows b."""
    if ta.unit.shape != b.shape:
        raise InvariantError(f"pair shapes differ: {ta.unit.shape} vs {b.shape}")
    b_hat, tb = normalize_rows(b)
    return _CosTrace(ta, tb, (ta.unit * b_hat).sum(axis=1))


def _cosine_pairs_backward(tr: _CosTrace, gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gs = gs[:, None]
    s = tr.s[:, None]
    ga = gs * (tr.b.unit - s * tr.a.unit) / tr.a.norms
    gb = gs * (tr.a.unit - s * tr.b.unit) / tr.b.norms
    return ga, gb


def loss_cma(
    batch: Batch, alpha: float, temperature: float, as_printed: bool = False
) -> tuple[float, np.ndarray, np.ndarray]:
    """Class-matching loss: CE over cosine logits plus margin hinge.

    Returns (loss, grad_z, grad_ybar), batch-mean reduction.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InvariantError(f"alpha must lie in [0,1], got {alpha}")
    if temperature <= 0.0:
        raise InvariantError(f"temperature must be positive, got {temperature}")
    z = np.asarray(batch.z, dtype=np.float64)
    ybar = np.asarray(batch.ybar, dtype=np.float64)
    y = np.asarray(batch.y_idx)
    b = z.shape[0]
    rows = np.arange(b)

    tr = _cosine_matrix(z, ybar)
    s = tr.s
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
    active = (hinge > 0.0).astype(np.float64)
    if as_printed:
        gs -= active
        gs[rows, y] += active.sum(axis=1)
    else:
        gs += active
        gs[rows, y] -= active.sum(axis=1)
    gs /= b
    gz, gybar = _cosine_matrix_backward(tr, gs)
    return loss, gz, gybar


def loss_sdp(
    anchors: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    as_printed: bool = False,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Triplet separation loss; mean over row-aligned triplets.

    Returns (loss, grad_anchors, grad_positives, grad_negatives).
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    positives = np.asarray(positives, dtype=np.float64)
    negatives = np.asarray(negatives, dtype=np.float64)
    if anchors.ndim != 2 or anchors.shape[0] < 1:
        raise InvariantError("loss_sdp needs at least one triplet")
    m = anchors.shape[0]

    _, ta = normalize_rows(anchors)
    trp = _cosine_pairs(ta, positives)
    trn = _cosine_pairs(ta, negatives)
    if as_printed:
        loss = float((trp.s - 1.0).mean() + trn.s.mean())
        gsp = np.full(m, 1.0 / m)
        gsn = np.full(m, 1.0 / m)
    else:
        loss = float((1.0 - trp.s).mean() + np.maximum(trn.s, 0.0).mean())
        gsp = np.full(m, -1.0 / m)
        gsn = (trn.s > 0.0).astype(np.float64) / m
    ga_p, gp = _cosine_pairs_backward(trp, gsp)
    ga_n, gn = _cosine_pairs_backward(trn, gsn)
    return loss, ga_p + ga_n, gp, gn


def loss_cs(t: np.ndarray, centers: np.ndarray) -> tuple[float, np.ndarray]:
    """Half squared distance from each prompt row to its class center.

    Centers are constants (no gradient); returns (loss, grad_t).
    """
    t = np.asarray(t, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if t.shape != centers.shape:
        raise InvariantError(f"prompt shape {t.shape} != centers shape {centers.shape}")
    diff = t - centers
    return float(0.5 * (diff * diff).sum()), diff


@dataclass
class TotalGrads:
    """Gradients of the summed loss w.r.t. the three trainable inputs."""

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

    Triplets are (anchor, positive, negative) rows of batch.z, repeats
    allowed; no triplets drops the triplet term.
    Returns (loss, grads, per-term values keyed l_cma/l_sdp/l_cs/l_tot).
    """
    l_cma, gz, gybar = loss_cma(batch, alpha, temperature, as_printed)
    gt = np.zeros_like(np.asarray(batch.t, dtype=np.float64))

    l_sdp = 0.0
    if len(triplets):
        idx = np.asarray(triplets, dtype=np.int64)
        if idx.ndim != 2 or idx.shape[1] != 3:
            raise InvariantError(f"triplets must have shape (m, 3), got {idx.shape}")
        if idx.min() < 0 or idx.max() >= gz.shape[0]:
            raise InvariantError("triplet index outside the batch")
        a, p, n = idx[:, 0], idx[:, 1], idx[:, 2]
        z = np.asarray(batch.z, dtype=np.float64)
        l_sdp, ga, gp, gn = loss_sdp(z[a], z[p], z[n], as_printed)
        # the a, p, n columns in sequence: the order of three np.add.at calls
        _scatter_add_rows(gz, idx.T.ravel(), np.concatenate((ga, gp, gn)))

    # centers are the per-class graph embeddings, detached
    l_cs, gcs = loss_cs(batch.t, batch.ybar)
    gt += gcs

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
