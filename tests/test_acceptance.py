"""Acceptance gate: eight criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -rA` to see every line, including
the ones from passing tests. Three criteria (synthetic recovery, elbow
recovery, depth ablation) are expected to fail at the default desk-scale
configuration; the assertion messages state the measured numbers and the
mechanism. They fail honestly rather than being loosened: the gradient and
oracle suites pin the implementation, and the similarity features of the
configured regime already merge classes before clustering starts.
"""

import time

import numpy as np
import pytest

from graphgcd import cli
from graphgcd.clustering import semisup_kmeans
from graphgcd.embed_io import (
    EmbeddingSet,
    RunConfig,
    generate_synthetic,
    read_embedding_file,
    write_embedding_file,
)
from graphgcd.errors import NumericError
from graphgcd.evaluation import split_accuracy
from graphgcd.losses import Batch, loss_cma, loss_cs, loss_sdp, loss_total
from graphgcd.neural_core import (
    AdamState,
    gcn_backward,
    gcn_forward,
    gcn_layer_dims,
    init_params,
    normalize_rows,
    normalize_rows_backward,
    projector_backward,
    projector_forward,
)
from graphgcd.semantic_graph import build_knn_graph
from graphgcd.trainer import TrainState, load_checkpoint, save_checkpoint, train

from oracles import brute_force_accuracy, fd_gradient, grad_error, plain_kmeans

GRAD_TOL = 1e-4
KINK_MARGIN = 1e-2  # reject instances whose ReLU/hinge arguments sit near a kink
MIN_ROW_NORM = 0.3  # normalization curvature ~1/norm^3 amplifies FD truncation


def outcome(name: str, ok: bool, detail: str) -> str:
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


# =================================================================== criterion 1

def _unit(raw):
    # the losses read unit rows: each check finite-differences a loss of the
    # normalized raw rows and maps the analytic unit-row gradients back through
    # normalize_rows_backward, as the forward passes and their backwards do
    return normalize_rows(raw)[0]


def _row_norms_ok(*mats):
    return all(np.linalg.norm(m, axis=1).min() > 0.5 for m in mats)


def _cma_instance(rng, b=3, c=3, d=4, alpha=0.3):
    for _ in range(500):
        z = rng.normal(size=(b, d))
        ybar = rng.normal(size=(c, d))
        if not _row_norms_ok(z, ybar):
            continue
        y = rng.integers(c, size=b)
        s = (z / np.linalg.norm(z, axis=1, keepdims=True)) @ (
            ybar / np.linalg.norm(ybar, axis=1, keepdims=True)
        ).T
        margin = s - s[np.arange(b), y][:, None] + alpha
        margin[np.arange(b), y] = 1.0
        if np.abs(margin).min() > KINK_MARGIN:
            return z, y, ybar
    raise AssertionError("no kink-free class-matching instance found")


def _check_cma(rng):
    z, y, ybar = _cma_instance(rng)
    t = np.ones_like(ybar) / np.sqrt(ybar.shape[1])
    (zu, tz), (yu, ty) = normalize_rows(z), normalize_rows(ybar)
    _, gz, gybar = loss_cma(Batch(zu, y, yu, t), 0.3, 1.0)
    fd_z = fd_gradient(
        lambda f: loss_cma(Batch(_unit(f.reshape(z.shape)), y, yu, t), 0.3, 1.0)[0],
        z.ravel().copy(),
    ).reshape(z.shape)
    fd_y = fd_gradient(
        lambda f: loss_cma(Batch(zu, y, _unit(f.reshape(ybar.shape)), t), 0.3, 1.0)[0],
        ybar.ravel().copy(),
    ).reshape(ybar.shape)
    return max(grad_error(normalize_rows_backward(tz, gz), fd_z),
               grad_error(normalize_rows_backward(ty, gybar), fd_y))


def _sdp_instance(rng, m=3, d=4):
    for _ in range(500):
        a, p, n = (rng.normal(size=(m, d)) for _ in range(3))
        if not _row_norms_ok(a, p, n):
            continue
        ah = a / np.linalg.norm(a, axis=1, keepdims=True)
        nh = n / np.linalg.norm(n, axis=1, keepdims=True)
        if np.abs((ah * nh).sum(axis=1)).min() > KINK_MARGIN:
            return a, p, n
    raise AssertionError("no kink-free triplet instance found")


def _check_sdp(rng):
    a, p, n = _sdp_instance(rng)
    traces = [normalize_rows(m)[1] for m in (a, p, n)]
    _, *grads = loss_sdp(*(tr.unit for tr in traces))
    worst = 0.0
    for idx, (base, trace, grad) in enumerate(zip((a, p, n), traces, grads)):
        def f(flat, idx=idx):
            mats = [tr.unit for tr in traces]
            mats[idx] = _unit(flat.reshape(base.shape))
            return loss_sdp(*mats)[0]

        fd = fd_gradient(f, base.ravel().copy()).reshape(base.shape)
        worst = max(worst, grad_error(normalize_rows_backward(trace, grad), fd))
    return worst


def _check_cs(rng):
    t = rng.normal(size=(3, 4))
    centers = rng.normal(size=(3, 4))
    _, grad = loss_cs(t, centers)
    fd = fd_gradient(
        lambda f: loss_cs(f.reshape(t.shape), centers)[0], t.ravel().copy()
    ).reshape(t.shape)
    return grad_error(grad, fd)


def _check_total(rng):
    b, c, d = 4, 3, 4
    triplets = [(0, 1, 2), (1, 2, 3)]
    for _ in range(500):
        z, y, ybar = _cma_instance(rng, b=b, c=c, d=d)
        idx = np.asarray(triplets)
        zh = z / np.linalg.norm(z, axis=1, keepdims=True)
        cos_an = (zh[idx[:, 0]] * zh[idx[:, 2]]).sum(axis=1)
        if np.abs(cos_an).min() > KINK_MARGIN:
            break
    else:
        raise AssertionError("no kink-free summed-loss instance found")
    t = rng.normal(size=(c, d))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    (zu, tz), (yu, ty), (tu, tt) = (normalize_rows(m) for m in (z, ybar, t))
    _, grads, _ = loss_total(Batch(zu, y, yu, tu), triplets, 0.3, 1.0)

    fd_z = fd_gradient(
        lambda f: loss_total(Batch(_unit(f.reshape(z.shape)), y, yu, tu), triplets, 0.3, 1.0)[0],
        z.ravel().copy(),
    ).reshape(z.shape)
    fd_t = fd_gradient(
        lambda f: loss_total(Batch(zu, y, yu, _unit(f.reshape(t.shape))), triplets, 0.3, 1.0)[0],
        t.ravel().copy(),
    ).reshape(t.shape)

    # the quadratic term's centers are constants, so the probe for ybar holds
    # them at the base value while the class-matching term sees the perturbation
    l_sdp = loss_sdp(zu[idx[:, 0]], zu[idx[:, 1]], zu[idx[:, 2]])[0]

    def f_ybar(flat):
        moved = Batch(zu, y, _unit(flat.reshape(ybar.shape)), tu)
        return loss_cma(moved, 0.3, 1.0)[0] + l_sdp + loss_cs(tu, yu)[0]

    fd_y = fd_gradient(f_ybar, ybar.ravel().copy()).reshape(ybar.shape)
    return max(
        grad_error(normalize_rows_backward(tz, grads.z), fd_z),
        grad_error(normalize_rows_backward(tt, grads.t), fd_t),
        grad_error(normalize_rows_backward(ty, grads.ybar), fd_y),
    )


def _dummy_params(weights, d):
    return {**{f"gcn.w{i}": w for i, w in enumerate(weights)},
            "proj.w1": np.zeros((d, d)), "proj.b1": np.zeros(d),
            "proj.w2": np.zeros((d, d)), "proj.b2": np.zeros(d),
            "prompt.t": np.zeros((1, d))}


def _check_gcn(rng, layers):
    c, d = 5, 4
    for _ in range(500):
        anchors = rng.normal(size=(c, d))
        if np.linalg.norm(anchors, axis=1).min() < 0.5:
            continue
        graph = build_knn_graph(
            anchors / np.linalg.norm(anchors, axis=1, keepdims=True), k=2
        )
        h0 = rng.normal(size=(c, d))
        weights = [3.0 * rng.normal(size=s) for s in gcn_layer_dims(d, d, layers)]
        params = _dummy_params(weights, d)
        try:
            ybar, trace = gcn_forward(graph, h0, params)
        except NumericError:
            continue
        hidden_ok = all(np.abs(p).min() > KINK_MARGIN for p in trace.pres[:-1])
        if hidden_ok and trace.norm.norms.min() > MIN_ROW_NORM:
            break
    else:
        raise AssertionError(f"no kink-free {layers}-layer GCN instance found")

    g_out = rng.normal(size=ybar.shape)
    grad_w, grad_h0 = gcn_backward(trace, g_out)

    def scalar(h, ws):
        p = _dummy_params(ws, d)
        out, _ = gcn_forward(graph, h, p)
        return float((out * g_out).sum())

    worst = grad_error(
        grad_h0,
        fd_gradient(lambda f: scalar(f.reshape(c, d), weights), h0.ravel().copy()).reshape(c, d),
    )
    for li, w in enumerate(weights):
        def f(flat, li=li):
            ws = [x.copy() for x in weights]
            ws[li] = flat.reshape(w.shape)
            return scalar(h0, ws)

        fd = fd_gradient(f, w.ravel().copy()).reshape(w.shape)
        worst = max(worst, grad_error(grad_w[f"gcn.w{li}"], fd))
    return worst


def _check_projector(rng):
    n, din, hid = 3, 4, 5
    for _ in range(500):
        x = rng.normal(size=(n, din))
        params = {
            "proj.w1": rng.normal(size=(din, hid)),
            "proj.b1": rng.normal(size=hid),
            "proj.w2": rng.normal(size=(hid, din)),
            "proj.b2": rng.normal(size=din),
            "prompt.t": np.zeros((1, din)),
        }
        try:
            z, trace = projector_forward(x, params)
        except NumericError:
            continue
        pre1 = x @ params["proj.w1"] + params["proj.b1"]
        if np.abs(pre1).min() > KINK_MARGIN and trace.norm.norms.min() > MIN_ROW_NORM:
            break
    else:
        raise AssertionError("no kink-free projector instance found")

    g_out = rng.normal(size=z.shape)
    grads, gx = projector_backward(trace, g_out)

    pieces = {"x": (x, gx), **{name: (params[name], grads[name])
                               for name in ("proj.w1", "proj.b1", "proj.w2", "proj.b2")}}
    worst = 0.0
    for name, (base, analytic) in pieces.items():
        def f(flat, name=name):
            vals = {"x": x, **params, name: flat.reshape(base.shape)}
            out, _ = projector_forward(vals.pop("x"), vals)
            return float((out * g_out).sum())

        fd = fd_gradient(f, np.asarray(base, dtype=np.float64).ravel().copy()).reshape(base.shape)
        worst = max(worst, grad_error(analytic, fd))
    return worst


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    per_family = 100
    families = {
        "class-matching": _check_cma,
        "triplet-separation": _check_sdp,
        "center-quadratic": _check_cs,
        "summed-total": _check_total,
        "gcn": lambda r: _check_gcn(r, layers=int(r.integers(0, 4))),
        "projector": _check_projector,
    }
    worst = 0.0
    worst_family = ""
    for name, check in families.items():
        for _ in range(per_family):
            err = check(rng)
            if err > worst:
                worst, worst_family = err, name
    elapsed = time.perf_counter() - start
    ok = worst < GRAD_TOL and elapsed < 30.0
    line = outcome(
        "criterion 1 gradient suite",
        ok,
        f"{per_family} instances x {len(families)} families, worst rel err "
        f"{worst:.2e} in {worst_family}, {elapsed:.1f}s",
    )
    assert ok, line


# =================================================================== criterion 2

def test_criterion_2_hungarian_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for trial in range(500):
        k = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        n = int(rng.integers(1, 41))
        assignment = rng.integers(k, size=n)
        truth = rng.integers(c, size=n)
        acc = split_accuracy(assignment, truth, 0).acc_all
        ref = brute_force_accuracy(assignment, truth, k, c)
        assert acc == ref, f"instance {trial}: k={k} c={c} n={n}: {acc} != {ref}"
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    line = outcome(
        "criterion 2 hungarian oracle", ok, f"500 instances exact, {elapsed:.1f}s"
    )
    assert ok, line


# =================================================================== criterion 3

def _random_constrained_case(rng):
    while True:
        n = int(rng.integers(4, 41))
        d = int(rng.integers(2, 6))
        reserved = int(rng.integers(0, 4))
        labels = np.full(n, -1, dtype=np.int64)
        if reserved:
            labeled_n = int(rng.integers(reserved, max(reserved, n // 2) + 1))
            labels[:labeled_n] = np.concatenate(
                [np.arange(reserved), rng.integers(reserved, size=labeled_n - reserved)]
            )
        free = int((labels < 0).sum())
        k_hi = min(n, reserved + 4, reserved + free)
        if k_hi < max(1, reserved):
            continue
        k = int(rng.integers(max(1, reserved), k_hi + 1))
        return rng.normal(size=(n, d)), labels, k, reserved


def test_criterion_3_kmeans_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    for case in range(120):
        features, labels, k, reserved = _random_constrained_case(rng)
        constrained = labels >= 0
        inertias = []

        def watch(it, assignment, centroids, inertia):
            assert (assignment[constrained] == labels[constrained]).all(), (
                f"case {case}: a labeled row moved at iteration {it}"
            )
            inertias.append(inertia)

        res = semisup_kmeans(features, labels, k, seed=case, on_iteration=watch)
        for before, after in zip(inertias, inertias[1:]):
            assert after <= before + 1e-9, f"case {case}: inertia rose"
        assert res.assignment.min() >= 0 and res.assignment.max() < k
        counts = np.bincount(res.assignment, minlength=k)
        assert (counts[reserved:] >= 1).all(), f"case {case}: empty free cluster"
        for cid in range(k):
            members = res.assignment == cid
            if members.any():
                np.testing.assert_allclose(
                    res.centroids[cid], features[members].mean(axis=0), atol=1e-9
                )

    for case in range(80):
        n = int(rng.integers(3, 31))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, min(6, n + 1)))
        features = rng.normal(size=(n, d))
        init = features[rng.choice(n, size=k, replace=False)]
        res = semisup_kmeans(features, np.full(n, -1), k, seed=0, init=init)
        ref_assign, ref_centroids, ref_inertia = plain_kmeans(features, init)
        np.testing.assert_array_equal(res.assignment, ref_assign, err_msg=f"oracle case {case}")
        np.testing.assert_allclose(res.centroids, ref_centroids, atol=1e-12)
        assert res.inertia == pytest.approx(ref_inertia, rel=1e-12)

    elapsed = time.perf_counter() - start
    ok = elapsed < 20.0
    line = outcome(
        "criterion 3 k-means invariants",
        ok,
        f"120 constrained + 80 oracle cases, {elapsed:.1f}s",
    )
    assert ok, line


# =================================================================== criteria 4, 5, 7

def _score(assignment, constrained_mask, unlabeled, known):
    free = assignment[~constrained_mask]
    return split_accuracy(free, unlabeled.labels, known)


@pytest.fixture(scope="module")
def bench():
    """Three-seed synthetic benchmark shared by criteria 4, 5, and 7."""
    start = time.perf_counter()
    runs = []
    for seed in (0, 1, 2):
        labeled, unlabeled, class_emb = generate_synthetic(10, 5, 100, 32, 6.0, seed)
        run = {"seed": seed}
        for layers, key in ((2, "deep"), (0, "flat")):
            config = RunConfig(seed=seed, gcn_layers=layers)
            state = train(labeled, class_emb, config)
            feats, labels = cli.cluster_features(state, labeled, unlabeled, class_emb)
            result = cli.assign_clusters(feats, labels, 10, seed)
            run[key] = _score(result.assignment, result.constrained_mask, unlabeled, 5)
            if layers == 2:
                run["features"] = feats
                run["labels"] = labels

        raw = np.vstack([labeled.data, unlabeled.data]).astype(np.float64)
        base = cli.assign_clusters(raw, np.full(raw.shape[0], -1, dtype=np.int64), 10, seed)
        run["baseline"] = split_accuracy(
            base.assignment[labeled.n :], unlabeled.labels, 5
        )
        runs.append(run)
    return {"runs": runs, "elapsed": time.perf_counter() - start}


def test_criterion_4_synthetic_recovery(bench):
    runs = bench["runs"]
    mean_all = float(np.mean([r["deep"].acc_all for r in runs]))
    mean_new = float(np.mean([r["deep"].acc_new for r in runs]))
    base_all = float(np.mean([r["baseline"].acc_all for r in runs]))
    bar = base_all + 0.05
    ok = mean_all >= bar and mean_new >= 0.70 and bench["elapsed"] < 300.0
    line = outcome(
        "criterion 4 synthetic recovery",
        ok,
        f"mean acc_all {mean_all:.4f} vs required {bar:.4f} "
        f"(raw k-means baseline {base_all:.4f} + 0.05), "
        f"mean acc_new {mean_new:.4f} vs required 0.70, {bench['elapsed']:.0f}s",
    )
    assert ok, (
        line + ". Mechanism: the similarity features lose the novel classes "
        "before clustering starts. Sending each novel unlabeled row to the "
        "nearest true-class mean (an oracle that knows the labels) gets "
        "0.33/0.25/0.22 of them right in the 2-layer features of seeds 0/1/2, "
        "against 1.00/1.00/1.00 in the raw embeddings, and the k-means reaches "
        "about the same (acc_new 0.32/0.28/0.24). With 3 graph neighbors over 5 "
        "known classes, adjacent classes end up with identical normalized "
        "adjacency rows, hence identical GCN outputs for any weights; training "
        "collapses the class anchors onto a single line. The gradient suite "
        "(criterion 1) passes, so the miss is not an implementation defect: the "
        "feature map's ceiling sits below the 0.70 acc_new bar, and no "
        "clustering change alone can close the gap."
    )


def test_criterion_5_elbow_recovery(bench):
    estimates = [
        cli.elbow_k(r["features"], r["labels"], seed=r["seed"], k_min=5, k_max=20)[0]
        for r in bench["runs"]
    ]
    hits = sum(abs(k - 10) <= 1 for k in estimates)
    ok = hits >= 2
    line = outcome(
        "criterion 5 elbow recovery",
        ok,
        f"estimates {estimates} for true K=10, {hits} of 3 seeds within 10±1",
    )
    assert ok, (
        line + ". Mechanism: the near-one-dimensional similarity features from "
        "the collapsed anchors (see criterion 4) flatten the inertia curve "
        "above the known-class count, so the geometric elbow lands below the "
        "true cluster count. The same scan on features from a trained 0-layer "
        "model returns 10, 10, 11 across these seeds, which isolates the "
        "anchor collapse as the cause."
    )


def test_criterion_7_depth_ablation_direction(bench):
    runs = bench["runs"]
    mean_deep = float(np.mean([r["deep"].acc_all for r in runs]))
    mean_flat = float(np.mean([r["flat"].acc_all for r in runs]))
    ok = mean_deep > mean_flat
    line = outcome(
        "criterion 7 depth ablation",
        ok,
        f"mean acc_all {mean_deep:.4f} with 2 layers vs {mean_flat:.4f} with 0",
    )
    assert ok, (
        line + ". Mechanism: the 0-layer model wins on the known classes. Its "
        "anchors are the raw class embeddings and stay distinct: the nearest "
        "true-class mean in its features classifies 0.99-1.00 of known and "
        "0.55/0.49/0.45 of novel unlabeled rows (seeds 0/1/2), and the k-means "
        "scores acc_known 1.00. At 2 layers the adjacency-row collisions "
        "described under criterion 4 make anchors of adjacent classes identical "
        "before any weight is applied; the same probe gives 0.47/0.45/0.42 known "
        "and 0.33/0.25/0.22 novel, and acc_known falls to 0.43/0.45/0.39. That "
        "inverts the ablation direction at this class count and neighbor setting."
    )


# =================================================================== criterion 6

ARTIFACTS = (
    "labeled.gvle", "unlabeled.gvle", "class_emb.gvle", "config.txt",
    "checkpoint.gvlp", "loss_trace.csv", "assignments.csv",
    "report.csv", "confusion.csv", "inertia_scan.csv",
)


def test_criterion_6_determinism(tmp_path, monkeypatch):
    start = time.perf_counter()
    # the elbow scan runs one worker per usable CPU: serial twice, then 8 workers
    cpus = {"first": 1, "second": 1, "threaded": 8}
    for name, count in cpus.items():
        monkeypatch.setattr(cli, "_usable_cpus", lambda: count)
        rc = cli.main(["run-all", "--synthetic", "--estimate-k", "--seed", "0",
                       "--out-dir", str(tmp_path / name)])
        assert rc == 0
    mismatched = [
        name
        for name in ARTIFACTS
        if not (
            (tmp_path / "first" / name).read_bytes()
            == (tmp_path / "second" / name).read_bytes()
            == (tmp_path / "threaded" / name).read_bytes()
        )
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatched
    line = outcome(
        "criterion 6 determinism",
        ok,
        f"{len(ARTIFACTS)} artifacts byte-identical across reruns and "
        f"1 vs 8 scan workers, {elapsed:.0f}s"
        + (f"; mismatched: {mismatched}" if mismatched else ""),
    )
    assert ok, line


# =================================================================== criterion 8

def _random_embedding(rng):
    n = int(rng.integers(1, 41))
    d = int(rng.integers(1, 17))
    data = (rng.normal(size=(n, d)) * 10.0 ** rng.integers(-20, 21)).astype(np.float32)
    labels = None
    if rng.random() < 0.5:
        labels = rng.integers(-1, 50, size=n).astype(np.int32)
    return EmbeddingSet(data=data, labels=labels)


def _random_state(rng):
    d = int(rng.integers(2, 7))
    hidden = int(rng.integers(1, 6))
    known = int(rng.integers(1, 5))
    layers = int(rng.integers(0, 4))
    config = RunConfig(
        knn_k=int(rng.integers(1, known + 1)) if known > 1 else 1,
        gcn_layers=layers,
        margin_alpha=float(rng.uniform(0.0, 1.0)),
        learn_rate=float(10.0 ** rng.uniform(-5, -1)),
        batch_size=int(rng.integers(1, 500)),
        epochs=int(rng.integers(0, 1000)),
        seed=int(rng.integers(0, 2**64, dtype=np.uint64)),
        hidden_dim=hidden,
        temperature=float(10.0 ** rng.uniform(-2, 2)),
    )
    params = init_params(d, hidden, known, layers, seed=rng)[0]
    for t in params.values():
        t[...] = rng.normal(size=t.shape).astype(np.float32)
    adam = AdamState(
        m={k: rng.normal(size=v.shape).astype(np.float32) for k, v in params.items()},
        v={k: np.abs(rng.normal(size=v.shape)).astype(np.float32) for k, v in params.items()},
        step=int(rng.integers(0, 2**40)),
    )
    return TrainState(params=params, adam=adam, epoch=int(rng.integers(0, 2**20)), config=config)


def test_criterion_8_format_roundtrips(tmp_path):
    rng = np.random.default_rng(31337)

    for i in range(100):
        emb = _random_embedding(rng)
        path = tmp_path / f"e{i}.gvle"
        write_embedding_file(emb, path)
        back = read_embedding_file(path)
        assert back.data.tobytes() == emb.data.tobytes(), f"GVLE payload {i}"
        assert back.data.shape == emb.data.shape
        if emb.labels is None:
            assert back.labels is None
        else:
            assert back.labels.tobytes() == emb.labels.astype(np.int32).tobytes()

    for i in range(100):
        state = _random_state(rng)
        path = tmp_path / f"c{i}.gvlp"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back.config == state.config, f"GVLP config {i}"
        assert back.epoch == state.epoch
        assert back.adam.step == state.adam.step
        named, named_back = state.params, back.params
        assert list(named) == list(named_back)
        for name in named:
            assert np.asarray(named_back[name]).tobytes() == np.asarray(named[name]).tobytes(), (
                f"GVLP tensor {name} {i}"
            )
            assert back.adam.m[name].tobytes() == state.adam.m[name].tobytes()
            assert back.adam.v[name].tobytes() == state.adam.v[name].tobytes()

    line = outcome(
        "criterion 8 format round-trips", True, "100 GVLE + 100 GVLP artifacts identical"
    )
    assert line
