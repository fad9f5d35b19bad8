"""Independent reference implementations the tests check the package against.

Everything in this file is written from the textbook definition and shares
no code with the package: brute-force assignment enumeration, a plain
Lloyd's k-means, list-deletion k-means++ seeding, a per-anchor triplet
sampler, a two-vector cosine, a per-term loss with hand-derived Jacobians,
a triplet gradient added one triplet at a time, central finite differences,
an explicit-order parameter init, one-product similarity features, and a
synthetic generator that draws each class's noise in its own call.
`plain_semisup_kmeans` is no textbook form: it is the package's constrained
loop as it ran before Hamerly's bounds, kept apart as the byte-identity
reference. Keeping these separate is the point; do not
"simplify" them by calling into graphgcd.
"""

from __future__ import annotations

import itertools

import numpy as np

FD_STEP = 1e-5
_MIN_NORM = 1e-30


def brute_force_accuracy(assignment, truth, k: int, c: int) -> float:
    """Maximum accuracy over every injective cluster-to-class matching."""
    assignment = np.asarray(assignment)
    truth = np.asarray(truth)
    n = assignment.shape[0]
    counts = np.zeros((k, c), dtype=np.int64)
    for a, t in zip(assignment, truth):
        counts[a, t] += 1
    best = 0
    if k <= c:
        for perm in itertools.permutations(range(c), k):
            best = max(best, sum(counts[r, perm[r]] for r in range(k)))
    else:
        for perm in itertools.permutations(range(k), c):
            best = max(best, sum(counts[perm[j], j] for j in range(c)))
    return best / n


def plain_kmeans(features, init, max_iters: int = 300):
    """Textbook Lloyd's algorithm.

    Nearest centroid by squared Euclidean distance, ties to the lowest
    cluster id; empty clusters re-seeded to the point farthest from its own
    centroid; stops when the assignment repeats. Returns (assignment,
    centroids, inertia).
    """
    x = np.asarray(features, dtype=np.float64)
    centroids = np.asarray(init, dtype=np.float64).copy()
    k = centroids.shape[0]
    prev = None
    for _ in range(max_iters):
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assignment = np.argmin(d2, axis=1)
        counts = np.bincount(assignment, minlength=k)
        for c in range(k):
            if counts[c] > 0:
                continue
            dist_own = ((x - centroids[assignment]) ** 2).sum(axis=1)
            steal = int(np.argmax(dist_own))
            counts[assignment[steal]] -= 1
            assignment[steal] = c
            counts[c] = 1
        for c in range(k):
            members = assignment == c
            if members.any():
                centroids[c] = x[members].mean(axis=0)
        if prev is not None and np.array_equal(prev, assignment):
            break
        prev = assignment.copy()
    inertia = float(((x - centroids[assignment]) ** 2).sum())
    return assignment, centroids, inertia


def plain_semisup_kmeans(features, labels, k: int, init, on_iteration=None):
    """Constrained Lloyd's loop as the package ran it before Hamerly's bounds.

    Kept verbatim as the byte-identity reference for semisup_kmeans: every
    free row is reassigned every iteration through the expanded form
    |x|^2 - 2 x.c + |c|^2, with rows whose runner-up is within 2E (or NaN)
    recomputed in the direct form; labeled rows stay on their class; empty
    free clusters are checked in id order, each re-seeded to the free row
    then farthest from its own centroid; means are sums of sorted slices.
    Calls on_iteration(i, assignment, centroids, inertia) like the package
    and returns (assignment, centroids, iterations, inertia).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n, f = features.shape
    centroids = np.asarray(init, dtype=np.float64).copy()
    reserved = int(labels.max()) + 1 if (labels >= 0).any() else 0
    e_scale = 2.0 * (f + 2) * np.finfo(np.float64).eps

    def nearest(x, xx):
        cc = (centroids * centroids).sum(axis=1)
        c_max = np.sqrt(cc.max())
        out = np.empty(x.shape[0], dtype=np.int64)
        for lo in range(0, x.shape[0], 2048):
            hi = min(lo + 2048, x.shape[0])
            g = x[lo:hi] @ centroids.T
            g *= -2.0
            g += xx[lo:hi, None]
            g += cc
            best = np.argmin(g, axis=1)
            rows = np.arange(hi - lo)
            g_best = g[rows, best]
            g[rows, best] = np.inf
            gap = g.min(axis=1) - g_best
            tol = 2.0 * e_scale * (np.sqrt(xx[lo:hi]) + c_max) ** 2
            near = np.flatnonzero(~(gap > tol))
            if near.size:
                xs = x[lo + near]
                direct = np.empty((near.size, k))
                for c in range(k):
                    direct[:, c] = ((xs - centroids[c]) ** 2).sum(axis=1)
                best[near] = np.argmin(direct, axis=1)
            out[lo:hi] = best
        return out

    constrained = labels >= 0
    free = ~constrained
    x_free = features[free]
    xx_free = (x_free * x_free).sum(axis=1)
    assignment = np.empty(n, dtype=np.int64)
    assignment[constrained] = labels[constrained]
    prev = None
    inertia = np.inf
    iterations = 0
    for it in range(300):
        assignment[free] = nearest(x_free, xx_free)
        counts = np.bincount(assignment, minlength=k)
        for c in range(reserved, k):
            if counts[c] > 0:
                continue
            free_idx = np.flatnonzero(free)
            dist_own = ((features[free_idx] - centroids[assignment[free_idx]]) ** 2).sum(axis=1)
            steal = free_idx[int(np.argmax(dist_own))]
            counts[assignment[steal]] -= 1
            assignment[steal] = c
            counts[c] = 1
        members = features[np.argsort(assignment, kind="stable")]
        start = 0
        for c, count in enumerate(counts.tolist()):
            if count:
                centroids[c] = np.add.reduce(members[start:start + count], axis=0) / count
            start += count
        iterations = it + 1
        diff = features - centroids[assignment]
        inertia = float((diff * diff).sum())
        if on_iteration is not None:
            on_iteration(it, assignment.copy(), centroids.copy(), inertia)
        if prev is not None and np.array_equal(prev, assignment):
            break
        prev = assignment.copy()
    return assignment, centroids, iterations, inertia


def plain_kmeans_pp(features, labels, k: int, seed):
    """Textbook D^2 seeding after the labeled-class means.

    Centroid c < R is the mean of labeled class c. Each further centroid is a
    free (label -1) point still in the candidate list, drawn with probability
    proportional to its squared distance to the nearest centroid so far, or
    uniformly when there is no centroid yet or every distance is 0; the drawn
    point is deleted from the list. Random draws: rng.integers(len) for a
    uniform pick, else rng.random() * total located in the cumulative sum.
    """
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    reserved = int(labels.max()) + 1 if (labels >= 0).any() else 0
    centroids = [x[labels == c].mean(axis=0) for c in range(reserved)]
    candidates = [i for i in range(labels.shape[0]) if labels[i] < 0]
    rng = np.random.default_rng(seed)
    while len(centroids) < k:
        if not centroids:
            pick = int(rng.integers(len(candidates)))
        else:
            placed = np.array(centroids)
            d2 = np.array([((placed - x[i]) ** 2).sum(axis=1).min() for i in candidates])
            total = d2.sum()
            if total <= 0.0:
                pick = int(rng.integers(len(candidates)))
            else:
                r = rng.random() * total
                pick = int(np.searchsorted(np.cumsum(d2), r, side="right"))
                pick = min(pick, len(candidates) - 1)
        centroids.append(x[candidates.pop(pick)])
    return np.array(centroids)


def fd_gradient(f, x, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of a scalar function, entry by entry."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def grad_error(analytic, numeric) -> float:
    """Entry-wise relative error with an additive guard.

    Entries below the guard are effectively compared absolutely: the FD noise
    floor for an O(1) function is ~1e-11, which would otherwise register as a
    huge relative error against a truly zero analytic gradient.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    return float((np.abs(a - n) / (np.abs(a) + np.abs(n) + 1e-6)).max())


def plain_sample_triplets(batch_labels, rng) -> list[tuple[int, int, int]]:
    """One (anchor, positive, negative) per eligible anchor, drawn uniformly.

    Anchors are visited in index order; per anchor, one rng.integers draw over
    its same-class peers, then one over the other-class samples, both in index
    order. Anchors with no peer or no other-class sample are skipped.
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


def cosine(u, v) -> float:
    """Cosine similarity of two vectors; ValueError for a zero vector."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < _MIN_NORM or nv < _MIN_NORM:
        raise ValueError("cosine of a zero vector is undefined")
    return float(u @ v / (nu * nv))


def plain_loss_total(z, y, ybar, t, triplets, alpha: float, temperature: float,
                     as_printed: bool):
    """The summed training loss term by term, each with its own Jacobian.

    Class matching: cross-entropy over cosine logits s / temperature plus the
    margin hinge over the wrong classes, batch mean. Triplets: mean of
    1 - cos(a, p) + max(cos(a, n), 0), or cos(a, p) - 1 + cos(a, n) as
    printed. Prompts: half squared distance from the unit rows of t to the
    unit rows of ybar, which are constants. Every cosine's raw-row gradient is
    d cos(u, v) / du = (v̂ - cos(u, v) û) / ||u||, written out per term; each
    triplet's rows are scattered onto the batch with np.add.at, anchors, then
    positives, then negatives. The loss values follow the package's operation
    order, so they agree bit for bit with loss_total on normalize_rows of the
    same rows; the gradients agree to rounding. Returns (parts, grad_z,
    grad_ybar, grad_t), all w.r.t. the raw rows.
    """
    z, ybar, t = (np.asarray(m, dtype=np.float64) for m in (z, ybar, t))
    y = np.asarray(y)
    b = z.shape[0]
    rows = np.arange(b)
    nz = np.sqrt((z * z).sum(axis=1, keepdims=True))
    ny = np.sqrt((ybar * ybar).sum(axis=1, keepdims=True))
    zu, yu = z / nz, ybar / ny

    s = zu @ yu.T
    logits = s / temperature
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    ce = np.log(exp.sum(axis=1)) - shifted[rows, y]
    pos = s[rows, y][:, None]
    hinge = np.maximum(pos - s - alpha if as_printed else s - pos + alpha, 0.0)
    hinge[rows, y] = 0.0
    l_cma = float((ce + hinge.sum(axis=1)).mean())
    onehot = np.zeros_like(s)
    onehot[rows, y] = 1.0
    active = (hinge > 0.0).astype(np.float64)
    hinge_grad = active - onehot * active.sum(axis=1, keepdims=True)
    gs = ((exp / exp.sum(axis=1, keepdims=True) - onehot) / temperature
          + (-hinge_grad if as_printed else hinge_grad)) / b
    gz = (gs @ yu - (gs * s).sum(axis=1, keepdims=True) * zu) / nz
    gybar = (gs.T @ zu - (gs * s).sum(axis=0)[:, None] * yu) / ny

    idx = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
    m = idx.shape[0]
    l_sdp = 0.0
    if m:
        a, p, n = zu[idx[:, 0]], zu[idx[:, 1]], zu[idx[:, 2]]
        na, np_, nn = nz[idx[:, 0]], nz[idx[:, 1]], nz[idx[:, 2]]
        sp = (a * p).sum(axis=1)
        sn = (a * n).sum(axis=1)
        if as_printed:
            l_sdp = float((sp - 1.0).mean() + sn.mean())
            gsp, gsn = np.full(m, 1.0 / m), np.full(m, 1.0 / m)
        else:
            l_sdp = float((1.0 - sp).mean() + np.maximum(sn, 0.0).mean())
            gsp, gsn = np.full(m, -1.0 / m), (sn > 0.0) / m
        gsp, sp, gsn, sn = gsp[:, None], sp[:, None], gsn[:, None], sn[:, None]
        np.add.at(gz, idx[:, 0], gsp * (p - sp * a) / na + gsn * (n - sn * a) / na)
        np.add.at(gz, idx[:, 1], gsp * (a - sp * p) / np_)
        np.add.at(gz, idx[:, 2], gsn * (a - sn * n) / nn)

    nt = np.sqrt((t * t).sum(axis=1, keepdims=True))
    tu = t / nt
    diff = tu - yu
    l_cs = float(0.5 * (diff * diff).sum())
    gt = (diff - (diff * tu).sum(axis=1, keepdims=True) * tu) / nt
    parts = {"l_cma": l_cma, "l_sdp": l_sdp, "l_cs": l_cs, "l_tot": l_cma + l_sdp + l_cs}
    return parts, gz, gybar, gt


def plain_sdp_grad(z, triplets, as_printed: bool) -> np.ndarray:
    """Gradient of the mean triplet term w.r.t. the unit rows z, in float64.

    Per triplet the term is 1 - a·p + max(a·n, 0), or a·p - 1 + a·n as
    printed, and d(u·v)/du = v, so each triplet in turn adds its weights
    times the partner rows onto its own three rows.
    """
    z = np.asarray(z, dtype=np.float64)
    grad = np.zeros_like(z)
    m = len(triplets)
    for a, p, n in triplets:
        wp = 1.0 / m if as_printed else -1.0 / m
        wn = 1.0 / m if as_printed or z[a] @ z[n] > 0.0 else 0.0
        grad[a] += wp * z[p] + wn * z[n]
        grad[p] += wp * z[a]
        grad[n] += wn * z[a]
    return grad


def plain_similarity_features(x, params, a, h0) -> np.ndarray:
    """Cosine of each projected row of x to each GCN class row, one product per layer.

    GCN: H <- (a H) W per layer over the propagation matrix a = D^-1 A, ReLU
    on all but the last, then unit rows. Projector: unit rows of
    relu(x W1 + b1) W2 + b2, all n rows at once. Each step is written in the
    order the definition reads, so results agree with the package bit for bit
    wherever BLAS rounds a row alike in any product.
    """
    h = np.asarray(h0, dtype=np.float64)
    weights = [np.asarray(params[f"gcn.w{i}"], dtype=np.float64)
               for i in range(sum(name.startswith("gcn.") for name in params))]
    for i, w in enumerate(weights):
        h = (a @ h) @ w
        if i < len(weights) - 1:
            h = np.maximum(h, 0.0)
    ybar = h / np.linalg.norm(h, axis=1, keepdims=True)
    w1, b1, w2, b2 = (np.asarray(t, dtype=np.float64) for t in
                      (params["proj.w1"], params["proj.b1"], params["proj.w2"], params["proj.b2"]))
    out = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    z = out / np.linalg.norm(out, axis=1, keepdims=True)
    return np.clip(z @ ybar.T, -1.0, 1.0)


def plain_init_params(input_dim: int, hidden_dim: int, known_class_count: int,
                      gcn_layers: int, rng) -> dict[str, np.ndarray]:
    """Glorot-uniform init drawn from `rng` in a fixed, explicit order.

    The GCN weights first (input_dim -> hidden_dim ... -> input_dim; one
    input_dim square layer when gcn_layers is 1), then projector W1, then
    projector W2, then the prompt vectors. Each matrix is
    rng.uniform(-limit, limit, (fan_in, fan_out)) with
    limit = sqrt(6 / (fan_in + fan_out)), cast to float32; both projector
    biases are float32 zeros. Returns the tensors by name, in checkpoint order.
    """

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)

    if gcn_layers > 1:
        widths = [input_dim] + [hidden_dim] * (gcn_layers - 1) + [input_dim]
    else:
        widths = [input_dim] * (gcn_layers + 1)
    named = {f"gcn.w{i}": glorot(a, b) for i, (a, b) in enumerate(zip(widths, widths[1:]))}
    named["proj.w1"] = glorot(input_dim, hidden_dim)
    named["proj.b1"] = np.zeros(hidden_dim, dtype=np.float32)
    named["proj.w2"] = glorot(hidden_dim, input_dim)
    named["proj.b2"] = np.zeros(input_dim, dtype=np.float32)
    named["prompt.t"] = glorot(known_class_count, input_dim)
    return named


def plain_generate_synthetic(class_count: int, known_count: int, per_class: int, d: int,
                             separation: float, seed: int):
    """(labeled rows, unlabeled rows, class embedding rows), one noise draw per center.

    Centers: standard normal draws, unit-normalized, kept when their cosine to
    every kept center is at most 0.5. Each sample is its center plus standard
    normal noise over separation, unit-normalized and cast to float32: one
    known-class copy each, per_class rows of each known class, then per_class
    rows of every class, in that order.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    centers = []
    while len(centers) < class_count:
        v = rng.standard_normal(d)
        v = v / np.linalg.norm(v)
        if all(c @ v <= 0.5 for c in centers):
            centers.append(v)
    sigma = 1.0 / separation

    def noisy(center, count):
        x = center[None, :] + rng.standard_normal((count, d)) * sigma
        return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)

    class_emb = np.vstack([noisy(centers[c], 1) for c in range(known_count)])
    labeled = np.vstack([noisy(centers[c], per_class) for c in range(known_count)])
    unlabeled = np.vstack([noisy(centers[c], per_class) for c in range(class_count)])
    return labeled, unlabeled, class_emb
