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

from .errors import InvariantError, NumericError

_MIN_NORM = 1e-30


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


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two vectors; rejects zero vectors."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < _MIN_NORM or nv < _MIN_NORM:
        raise NumericError("cosine of a zero vector is undefined")
    return float(u @ v / (nu * nv))


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if (norms < _MIN_NORM).any():
        raise NumericError("zero-norm row in cosine computation")
    return x / norms, norms


@dataclass
class _CosTrace:
    a_hat: np.ndarray
    b_hat: np.ndarray
    a_norms: np.ndarray
    b_norms: np.ndarray
    s: np.ndarray


def _cosine_matrix(a: np.ndarray, b: np.ndarray) -> _CosTrace:
    a_hat, a_norms = _unit_rows(a)
    b_hat, b_norms = _unit_rows(b)
    return _CosTrace(a_hat, b_hat, a_norms, b_norms, a_hat @ b_hat.T)


def _cosine_matrix_backward(tr: _CosTrace, gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # d s_ij / d a_i = (b̂_j - s_ij â_i) / ||a_i||, symmetric in b
    ga = (gs @ tr.b_hat - (gs * tr.s).sum(axis=1, keepdims=True) * tr.a_hat) / tr.a_norms
    gb = (gs.T @ tr.a_hat - (gs * tr.s).sum(axis=0)[:, None] * tr.b_hat) / tr.b_norms
    return ga, gb


def _cosine_pairs(a: np.ndarray, b: np.ndarray) -> _CosTrace:
    if a.shape != b.shape:
        raise InvariantError(f"pair shapes differ: {a.shape} vs {b.shape}")
    a_hat, a_norms = _unit_rows(a)
    b_hat, b_norms = _unit_rows(b)
    return _CosTrace(a_hat, b_hat, a_norms, b_norms, (a_hat * b_hat).sum(axis=1))


def _cosine_pairs_backward(tr: _CosTrace, gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gs = gs[:, None]
    s = tr.s[:, None]
    ga = gs * (tr.b_hat - s * tr.a_hat) / tr.a_norms
    gb = gs * (tr.a_hat - s * tr.b_hat) / tr.b_norms
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

    trp = _cosine_pairs(anchors, positives)
    trn = _cosine_pairs(anchors, negatives)
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


def loss_total(
    batch: Batch,
    triplets: list[tuple[int, int, int]],
    alpha: float,
    temperature: float,
    as_printed: bool = False,
) -> tuple[float, TotalGrads, dict[str, float]]:
    """Sum of the three terms with unit weights.

    Triplets index rows of batch.z; an empty list drops the triplet term.
    Returns (loss, grads, per-term values keyed l_cma/l_sdp/l_cs/l_tot).
    """
    l_cma, gz, gybar = loss_cma(batch, alpha, temperature, as_printed)
    gt = np.zeros_like(np.asarray(batch.t, dtype=np.float64))

    l_sdp = 0.0
    if triplets:
        idx = np.asarray(triplets, dtype=np.int64)
        a, p, n = idx[:, 0], idx[:, 1], idx[:, 2]
        z = np.asarray(batch.z, dtype=np.float64)
        l_sdp, ga, gp, gn = loss_sdp(z[a], z[p], z[n], as_printed)
        np.add.at(gz, a, ga)
        np.add.at(gz, p, gp)
        np.add.at(gz, n, gn)

    # centers are the per-class graph embeddings, detached
    l_cs, gcs = loss_cs(batch.t, batch.ybar)
    gt += gcs

    total = l_cma + l_sdp + l_cs
    parts = {"l_cma": l_cma, "l_sdp": l_sdp, "l_cs": l_cs, "l_tot": total}
    return total, TotalGrads(z=gz, ybar=gybar, t=gt), parts


def sample_triplets(
    batch_labels: np.ndarray, rng: np.random.Generator
) -> list[tuple[int, int, int]]:
    """One (anchor, positive, negative) per eligible anchor, drawn uniformly.

    Anchors are visited in index order; the positive is drawn before the
    negative so the consumed random stream is reproducible. Anchors with no
    same-class peer or no other-class sample are skipped; a batch with no
    eligible anchor yields an empty list.
    """
    labels = np.asarray(batch_labels)
    n = labels.shape[0]
    out: list[tuple[int, int, int]] = []
    for i in range(n):
        peers = np.flatnonzero((labels == labels[i]) & (np.arange(n) != i))
        others = np.flatnonzero(labels != labels[i])
        if peers.size == 0 or others.size == 0:
            continue
        p = int(peers[rng.integers(peers.size)])
        neg = int(others[rng.integers(others.size)])
        out.append((i, p, neg))
    return out
