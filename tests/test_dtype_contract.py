"""The training step's dtype contract.

neural_core and losses compute in the dtype numpy promotes their operands
to: all-float32 operands give float32 results, and any float64 operand gives
float64. Training passes float32 rows, class embeddings and propagation
matrix, so its whole step runs in float32; the clustering features pass a
float64 h0 and stay float64.
"""

import dataclasses
from types import ModuleType

import numpy as np
import pytest

from graphgcd.clustering import similarity_features
from graphgcd.embed_io import RunConfig, generate_synthetic
from graphgcd.losses import Batch, loss_cma, loss_cs, loss_sdp, loss_total, sample_triplets
from graphgcd.neural_core import (
    adam_step,
    gcn_backward,
    gcn_forward,
    init_params,
    normalize_rows,
    normalize_rows_backward,
    projector_backward,
    projector_forward,
)
from graphgcd.semantic_graph import SemanticGraph, build_knn_graph
from graphgcd.trainer import train

C, D, B, HIDDEN = 6, 16, 32, 12


def _arrays(obj):
    """Every ndarray in a result: tuples, lists, dicts and dataclasses are walked."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


def _float_dtypes(obj) -> set:
    return {a.dtype for a in _arrays(obj) if a.dtype.kind == "f"}


def _inputs(dtype, seed=0):
    """Graph, h0, rows, labels and params, every float array in `dtype`; the
    float32 values are the float64 ones rounded."""
    rng = np.random.default_rng(seed)
    ce = rng.normal(size=(C, D)).astype(np.float32)
    g = build_knn_graph(ce, 2)
    graph = SemanticGraph(g.adjacency, g.norm_adjacency.astype(dtype))
    x = rng.normal(size=(B, D)).astype(np.float32).astype(dtype)
    y = rng.integers(0, C, size=B)
    params = {k: t.astype(dtype) for k, t in init_params(D, HIDDEN, C, 2, seed)[0].items()}
    return graph, ce.astype(dtype), x, y, params


def _step(graph, h0, x, y, params, seed=0):
    """One training step's forward, loss and backward, as the trainer runs them;
    returns every result in order and the parameter gradients by name."""
    ybar, gcn_tr = gcn_forward(graph, h0, params)
    z, proj_tr = projector_forward(x, params)
    t, prompt_tr = normalize_rows(params["prompt.t"])
    triplets = sample_triplets(y, np.random.default_rng(seed))
    loss, grads, parts = loss_total(Batch(z=z, y_idx=y, ybar=ybar, t=t), triplets, 0.3, 0.1)
    gw, gh0 = gcn_backward(gcn_tr, grads.ybar)
    pg, gx = projector_backward(proj_tr, grads.z)
    gt = normalize_rows_backward(prompt_tr, grads.t)
    named = {**gw, **pg, "prompt.t": gt}
    results = [ybar, gcn_tr, z, proj_tr, t, prompt_tr, grads, gw, gh0, pg, gx, gt]
    return loss, results, named


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_step_computes_in_its_operands_dtype(dtype):
    loss, results, grads = _step(*_inputs(dtype))
    assert np.isfinite(loss)
    assert _float_dtypes(results) == {np.dtype(dtype)}
    assert _float_dtypes(grads) == {np.dtype(dtype)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_each_loss_computes_in_its_operands_dtype(dtype):
    rng = np.random.default_rng(1)
    # the losses read unit rows, so the raw rows go through normalize_rows first
    z, ybar = (normalize_rows(rng.normal(size=s).astype(dtype))[0] for s in ((B, D), (C, D)))
    y = rng.integers(0, C, size=B)
    for as_printed in (False, True):
        assert _float_dtypes(loss_cma(Batch(z, y, ybar, ybar), 0.3, 0.1, as_printed)) == {
            np.dtype(dtype)}
        assert _float_dtypes(loss_sdp(z[:5], z[5:10], z[10:15], as_printed)) == {
            np.dtype(dtype)}
    assert _float_dtypes(loss_cs(ybar, ybar[::-1])) == {np.dtype(dtype)}


def test_adam_step_in_float32_keeps_params_and_moments_float32():
    params, adam = init_params(D, HIDDEN, C, 2, 0)
    grads = _step(*_inputs(np.float32))[2]
    for _ in range(3):
        adam_step(params, adam, grads, lr=1e-3)
    for name, t in params.items():
        assert t.dtype == adam.m[name].dtype == adam.v[name].dtype == np.float32
        assert adam.m[name].any() and adam.v[name].any()


def test_any_float64_operand_gives_float64():
    graph, h0, x, y, params = _inputs(np.float32)
    f64 = np.dtype(np.float64)
    g64 = SemanticGraph(graph.adjacency, graph.norm_adjacency.astype(np.float64))
    assert _float_dtypes(gcn_forward(g64, h0, params)[0]) == {f64}
    assert _float_dtypes(gcn_forward(graph, h0.astype(np.float64), params)[0]) == {f64}
    for name in ("proj.w1", "proj.b1", "proj.w2", "proj.b2"):
        p64 = {**params, name: params[name].astype(np.float64)}
        assert projector_forward(x, p64)[0].dtype == f64, name
    assert projector_forward(x.astype(np.float64), params)[0].dtype == f64
    # a step fed a float64 h0 is float64 from the GCN on, and so are its gradients
    grads = _step(graph, h0.astype(np.float64), x, y, params)[2]
    assert grads["gcn.w0"].dtype == grads["prompt.t"].dtype == f64
    rng = np.random.default_rng(2)
    z = normalize_rows(rng.normal(size=(B, D)).astype(np.float32))[0]
    ybar = normalize_rows(rng.normal(size=(C, D)))[0]
    assert {a.dtype for a in loss_cma(Batch(z, y, ybar, ybar), 0.3, 0.1)[1:]} == {f64}
    assert loss_cs(ybar.astype(np.float32), ybar)[1].dtype == f64
    assert loss_sdp(z[:5], z[5:10], ybar[:5])[1].dtype == f64


@pytest.mark.parametrize("seed", range(5))
def test_float32_gradients_match_float64_ones(seed):
    loss32, _, g32 = _step(*_inputs(np.float32, seed), seed=seed)
    loss64, _, g64 = _step(*_inputs(np.float64, seed), seed=seed)
    # bounds set from the dtype: about 84 float32 epsilons (1.19e-7) on the
    # gradients' norm and 8 on the loss; measured about 5e-7 and 5e-8
    assert loss32 == pytest.approx(loss64, rel=1e-6)
    for name, g in g64.items():
        assert g32[name].dtype == np.float32
        err = np.linalg.norm(g32[name] - g) / np.linalg.norm(g)
        assert err < 1e-5, f"{name}: {err:.2e}"


@pytest.mark.parametrize("layers", [0, 2])
def test_similarity_features_stay_float64_on_float32_inputs(layers):
    # with no GCN layer, a float32 h0 would reach the anchors uncast
    _, h0, x, _, _ = _inputs(np.float32)
    params = init_params(D, HIDDEN, C, layers, 0)[0]
    graph = build_knn_graph(h0, 2)  # as the CLI builds it: float64 propagation
    feats = similarity_features(x, params, graph, h0)
    assert feats.dtype == np.float64
    ybar = gcn_forward(graph, h0.astype(np.float64), params)[0]
    z = projector_forward(x.astype(np.float64), params)[0]
    np.testing.assert_array_equal(feats, np.clip(z @ ybar.T, -1.0, 1.0))


class _Float64Audit:
    """Stands in for numpy inside a module: records each use of np.float64 and
    each np.* call that returns a float64 array or dtype, by its path."""

    def __init__(self, target, hits, path="np"):
        self._target, self._hits, self._path = target, hits, path

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        path = f"{self._path}.{name}"
        if attr is np.float64:
            self._hits.append(path)
        if isinstance(attr, type) or not (callable(attr) or isinstance(attr, ModuleType)):
            return attr
        return _Float64Audit(attr, self._hits, path)

    def __call__(self, *args, **kwargs):
        out = self._target(*args, **kwargs)
        if out == np.dtype(np.float64) if isinstance(out, np.dtype) else \
                np.dtype(np.float64) in _float_dtypes(out):
            self._hits.append(self._path)
        return out


def test_one_epoch_train_makes_no_float64_array(monkeypatch):
    # what a step's stages (forwards, traces, loss gradients, backwards, Adam)
    # hand each other is float32, and no numpy call inside neural_core or
    # losses makes a float64 array or names float64
    import graphgcd.losses as losses_mod
    import graphgcd.neural_core as neural_core_mod
    import graphgcd.trainer as trainer_mod

    stages = ("gcn_forward", "gcn_backward", "projector_forward", "projector_backward",
              "normalize_rows", "normalize_rows_backward", "loss_total", "adam_step")
    seen, hits = [], []

    def spy(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.append((fn.__name__, _float_dtypes([args, kwargs, out])))
            return out
        return wrapped

    for name in stages:
        monkeypatch.setattr(trainer_mod, name, spy(getattr(trainer_mod, name)))
    for mod in (neural_core_mod, losses_mod):
        monkeypatch.setattr(mod, "np", _Float64Audit(np, hits))
    labeled, _, class_emb = generate_synthetic(5, 5, 8, 8, 6.0, seed=1)
    state = train(labeled, class_emb, RunConfig(knn_k=3, batch_size=16, epochs=1, seed=3))
    assert state.epoch == 1
    assert {name for name, _ in seen} == set(stages)
    for name, dtypes in seen:
        assert dtypes == {np.dtype(np.float32)}, name
    assert hits == []
