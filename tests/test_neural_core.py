import numpy as np
import pytest

from graphgcd.errors import InvariantError, NumericError
from graphgcd.neural_core import (
    ADAM_BETA1,
    ADAM_BETA2,
    ModelParams,
    adam_step,
    gcn_backward,
    gcn_forward,
    gcn_layer_dims,
    init_params,
    normalize_rows,
    normalize_rows_backward,
    param_shapes,
    projector_backward,
    projector_forward,
)
from graphgcd.semantic_graph import SemanticGraph, build_knn_graph

from oracles import fd_gradient, grad_error, plain_init_params


def _graph_from_norm(norm: np.ndarray) -> SemanticGraph:
    return SemanticGraph(adjacency=(norm > 0).astype(np.int8), norm_adjacency=norm)


def _params(d=3, hidden=4, classes=3, layers=2, seed=0) -> ModelParams:
    return init_params(d, hidden, classes, layers, np.random.default_rng(seed))


# -- init --------------------------------------------------------------------

def test_layer_dims_by_depth():
    assert gcn_layer_dims(5, 7, 0) == []
    assert gcn_layer_dims(5, 7, 1) == [(5, 5)]
    assert gcn_layer_dims(5, 7, 2) == [(5, 7), (7, 5)]
    assert gcn_layer_dims(5, 7, 3) == [(5, 7), (7, 7), (7, 5)]


def test_init_glorot_bounds_and_zero_biases():
    p = _params(d=6, hidden=9, classes=4, layers=2)
    limit01 = np.sqrt(6.0 / (6 + 9))
    assert np.abs(p.gcn_weights[0]).max() <= limit01
    assert np.abs(p.proj_w1).max() <= limit01
    assert not p.proj_b1.any() and not p.proj_b2.any()
    assert p.prompt_vectors.shape == (4, 6)
    assert p.adam.step == 0
    for name, t in p.named_tensors().items():
        assert not p.adam.m[name].any() and not p.adam.v[name].any()
        assert p.adam.m[name].shape == np.asarray(t).shape


@pytest.mark.parametrize("layers", [0, 1, 2, 3])
def test_param_shapes_is_the_layout_of_init_and_named_tensors(layers):
    p = _params(d=5, hidden=7, classes=3, layers=layers)
    named = p.named_tensors()
    assert {n: t.shape for n, t in named.items()} == param_shapes(5, 7, 3, layers)
    assert list(named) == list(param_shapes(5, 7, 3, layers))
    back = ModelParams.from_named(named).named_tensors()
    assert list(back) == list(named)
    assert all(back[n] is named[n] for n in named)


@pytest.mark.parametrize("layers", [0, 1, 2, 3])
@pytest.mark.parametrize("d, hidden", [(5, 3), (4, 7)])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_init_params_matches_explicit_order_oracle(layers, d, hidden, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    params = init_params(d, hidden, 4, layers, ours)
    expect = plain_init_params(d, hidden, 4, layers, theirs)
    named = params.named_tensors()
    assert list(named) == list(expect)
    for name, t in expect.items():
        assert named[name].dtype == np.float32 and np.array_equal(named[name], t), name
        for moments in (params.adam.m, params.adam.v):
            assert moments[name].dtype == np.float32, name
            assert np.array_equal(moments[name], np.zeros_like(t)), name
    assert params.adam.step == 0
    # both consumed the generator equally: the next draw agrees
    assert ours.random() == theirs.random()


def test_init_deterministic():
    a, b = _params(seed=11), _params(seed=11)
    for (na, ta), (nb, tb) in zip(a.named_tensors().items(), b.named_tensors().items()):
        assert na == nb
        np.testing.assert_array_equal(ta, tb)


# -- row normalization -------------------------------------------------------

def test_normalize_rows_unit_and_zero_rejected():
    x = np.asarray([[3.0, 4.0], [0.0, 2.0]])
    unit, trace = normalize_rows(x)
    np.testing.assert_allclose(unit, [[0.6, 0.8], [0.0, 1.0]])
    np.testing.assert_allclose(trace.norms.ravel(), [5.0, 2.0])
    with pytest.raises(NumericError):
        normalize_rows(np.zeros((1, 2)))


@pytest.mark.parametrize("dtype, big", [(np.float64, 1e200), (np.float32, 3e19)])
def test_normalize_rows_rejects_a_norm_whose_squares_overflow(dtype, big):
    # x * x overflows to inf, and x / inf would be a silent zero row
    x = np.asarray([[1.0, 2.0], [big, big]], dtype=dtype)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericError, match="non-finite row norm"):
            normalize_rows(x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalize_rows_rejects_a_non_finite_row(dtype, bad):
    with pytest.raises(NumericError, match="non-finite row norm"):
        normalize_rows(np.asarray([[1.0, 2.0], [bad, 1.0]], dtype=dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_normalize_rows_keeps_large_finite_rows_in_range(dtype):
    # just below the overflow: the squares stay finite, so do the unit rows
    big = np.sqrt(np.finfo(dtype).max / 4)
    unit, trace = normalize_rows(np.asarray([[big, big]], dtype=dtype))
    assert unit.dtype == trace.norms.dtype == dtype
    np.testing.assert_allclose(unit, np.sqrt(0.5), rtol=1e-6)


def test_normalize_backward_annihilates_radial_direction():
    x = np.random.default_rng(0).normal(size=(4, 3))
    unit, trace = normalize_rows(x)
    g = normalize_rows_backward(trace, unit * 2.5)  # gradient parallel to output
    np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_normalize_backward_shape_check():
    _, trace = normalize_rows(np.ones((2, 2)))
    with pytest.raises(InvariantError):
        normalize_rows_backward(trace, np.ones((3, 2)))


def test_normalize_rows_backward_fd():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3))
    t, trace = normalize_rows(x)
    np.testing.assert_allclose(np.linalg.norm(t, axis=1), 1.0, atol=1e-9)
    probe = rng.normal(size=t.shape)
    g = normalize_rows_backward(trace, probe)

    def f(q):
        o, _ = normalize_rows(q)
        return float((o * probe).sum())

    assert grad_error(g, fd_gradient(f, x)) < 1e-4


# -- GCN forward -------------------------------------------------------------

def test_gcn_zero_layers_returns_normalized_input():
    g = _graph_from_norm(np.eye(3))
    h0 = np.random.default_rng(1).normal(size=(3, 4))
    p = _params(d=4, classes=3, layers=0)
    ybar, _ = gcn_forward(g, h0, p)
    np.testing.assert_allclose(ybar, h0 / np.linalg.norm(h0, axis=1, keepdims=True))


def test_gcn_identity_composition():
    # identity propagation, identity weights, nonnegative unit rows: a no-op
    g = _graph_from_norm(np.eye(2))
    h0 = np.asarray([[1.0, 0.0], [0.6, 0.8]])
    p = _params(d=2, classes=2, layers=1)
    p.gcn_weights = [np.eye(2)]
    ybar, _ = gcn_forward(g, h0, p)
    np.testing.assert_allclose(ybar, h0, atol=1e-12)


def test_gcn_two_node_averaging():
    g = _graph_from_norm(np.full((2, 2), 0.5))
    h0 = np.eye(2)
    p = _params(d=2, classes=2, layers=1)
    p.gcn_weights = [np.eye(2)]
    ybar, trace = gcn_forward(g, h0, p)
    np.testing.assert_allclose(trace.pres[0], np.full((2, 2), 0.5))
    np.testing.assert_allclose(ybar, np.full((2, 2), np.sqrt(0.5)), atol=1e-12)


def test_gcn_outputs_unit_norm():
    g = build_knn_graph(np.random.default_rng(0).normal(size=(5, 4)), 2)
    p = _params(d=4, hidden=6, classes=5, layers=2, seed=3)
    ybar, _ = gcn_forward(g, np.random.default_rng(1).normal(size=(5, 4)), p)
    np.testing.assert_allclose(np.linalg.norm(ybar, axis=1), 1.0, atol=1e-6)


def test_gcn_permutation_equivariance():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(20):
        c, d = 6, 4
        x = rng.normal(size=(c, d))
        h0 = rng.normal(size=(c, d))
        p = _params(d=d, hidden=5, classes=c, layers=2, seed=int(rng.integers(2**31)))
        perm = rng.permutation(c)
        pm = np.eye(c)[perm]
        try:
            base, _ = gcn_forward(build_knn_graph(x, 2), h0, p)
        except NumericError:
            # a row the ReLU zeroed out entirely; the permuted run must agree
            with pytest.raises(NumericError):
                gcn_forward(build_knn_graph(pm @ x, 2), pm @ h0, p)
            continue
        permuted, _ = gcn_forward(build_knn_graph(pm @ x, 2), pm @ h0, p)
        np.testing.assert_allclose(permuted, pm @ base, atol=1e-10)
        checked += 1
    assert checked >= 10


def test_gcn_shape_mismatch():
    g = _graph_from_norm(np.eye(3))
    p = _params(d=4, classes=3, layers=1)
    with pytest.raises(InvariantError):
        gcn_forward(g, np.ones((2, 4)), p)   # wrong node count
    with pytest.raises(InvariantError):
        gcn_forward(g, np.ones((3, 9)), p)   # wrong width


# -- GCN backward ------------------------------------------------------------

def test_gcn_backward_zero_grad_is_zero():
    g = build_knn_graph(np.random.default_rng(2).normal(size=(4, 3)), 1)
    p = _params(d=3, hidden=4, classes=4, layers=2, seed=7)
    _, trace = gcn_forward(g, np.random.default_rng(3).normal(size=(4, 3)), p)
    gw, gh0 = gcn_backward(trace, np.zeros((4, 3)))
    assert all(not w.any() for w in gw)
    assert not gh0.any()


def test_gcn_single_linear_layer_weight_grad_formula():
    g = build_knn_graph(np.random.default_rng(4).normal(size=(4, 3)), 2)
    p = _params(d=3, classes=4, layers=1, seed=9)
    h0 = np.random.default_rng(5).normal(size=(4, 3))
    _, trace = gcn_forward(g, h0, p)
    grad_out = np.random.default_rng(6).normal(size=(4, 3))
    gw, _ = gcn_backward(trace, grad_out)
    g_pre = normalize_rows_backward(trace.norm, grad_out)
    msg = g.norm_adjacency @ h0
    np.testing.assert_allclose(gw[0], msg.T @ g_pre, atol=1e-12)


def test_relu_dead_unit_has_zero_weight_column_grad():
    g = _graph_from_norm(np.eye(3))
    p = _params(d=2, hidden=2, classes=3, layers=2, seed=0)
    w0 = np.asarray([[1.0, -1.0], [1.0, -1.0]])  # unit 1 always negative
    p.gcn_weights = [w0, np.eye(2)]
    h0 = np.abs(np.random.default_rng(7).normal(size=(3, 2))) + 0.1
    _, trace = gcn_forward(g, h0, p)
    assert (trace.pres[0][:, 1] < 0).all()
    gw, _ = gcn_backward(trace, np.random.default_rng(8).normal(size=(3, 2)))
    np.testing.assert_allclose(gw[0][:, 1], 0.0)


def _fd_check_gcn(layers: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    c, d, hidden = 5, 3, 4
    for _ in range(200):
        h0 = rng.normal(size=(c, d))
        p = _params(d=d, hidden=hidden, classes=c, layers=layers,
                    seed=int(rng.integers(2**31)))
        p.gcn_weights = [np.asarray(w, dtype=np.float64) * 3 for w in p.gcn_weights]
        graph = build_knn_graph(rng.normal(size=(c, d)), 2)
        try:
            out, trace = gcn_forward(graph, h0, p)
        except NumericError:
            continue
        # reject instances where a kink or a tiny row norm would corrupt FD
        margins = [np.abs(pre).min() for pre in trace.pres[:-1]]
        if (min(margins) if margins else 1.0) > 1e-2 and trace.norm.norms.min() > 0.3:
            break
    else:
        pytest.skip("no well-conditioned instance found")
    probe = rng.normal(size=out.shape)

    def f_h0(q):
        o, _ = gcn_forward(graph, q, p)
        return float((o * probe).sum())

    gw, gh0 = gcn_backward(trace, probe)
    worst = grad_error(gh0, fd_gradient(f_h0, h0))
    for li in range(layers):
        def f_w(q, li=li):
            saved = p.gcn_weights[li]
            p.gcn_weights[li] = q
            try:
                o, _ = gcn_forward(graph, h0, p)
            finally:
                p.gcn_weights[li] = saved
            return float((o * probe).sum())

        worst = max(worst, grad_error(gw[li], fd_gradient(f_w, p.gcn_weights[li])))
    return worst


@pytest.mark.parametrize("layers", [0, 1, 2, 3])
def test_gcn_backward_matches_finite_differences(layers):
    for seed in range(5):
        assert _fd_check_gcn(layers, seed) < 1e-4


# -- projector ---------------------------------------------------------------

def test_projector_identity_pipe():
    p = _params(d=2, hidden=2, classes=2, layers=1)
    p.proj_w1 = np.eye(2, dtype=np.float32)
    p.proj_w2 = np.eye(2, dtype=np.float32)
    x = np.asarray([[0.6, 0.8]])
    z, _ = projector_forward(x, p)
    np.testing.assert_allclose(z, x, atol=1e-7)


def test_projector_bias_only_normalization():
    p = _params(d=2, hidden=3, classes=2, layers=1)
    p.proj_w1 = np.zeros((2, 3), dtype=np.float32)
    p.proj_w2 = np.zeros((3, 2), dtype=np.float32)
    p.proj_b2 = np.asarray([3.0, 4.0], dtype=np.float32)
    z, _ = projector_forward(np.random.default_rng(0).normal(size=(5, 2)), p)
    np.testing.assert_allclose(z, np.tile([0.6, 0.8], (5, 1)), atol=1e-7)


def test_projector_equal_rows_equal_outputs():
    p = _params(d=3, hidden=4, classes=2, layers=1, seed=2)
    x = np.tile(np.asarray([[0.3, -1.2, 0.4]]), (2, 1))
    z, _ = projector_forward(x, p)
    np.testing.assert_array_equal(z[0], z[1])


def test_projector_radial_grad_vanishes():
    p = _params(d=3, hidden=4, classes=2, layers=1, seed=4)
    x = np.random.default_rng(1).normal(size=(3, 3))
    z, trace = projector_forward(x, p)
    _, gx = projector_backward(trace, z * 1.7)
    np.testing.assert_allclose(gx, 0.0, atol=1e-12)


def test_projector_zero_grad_backward():
    p = _params(d=3, hidden=4, classes=2, layers=1, seed=5)
    _, trace = projector_forward(np.random.default_rng(2).normal(size=(3, 3)), p)
    grads, gx = projector_backward(trace, np.zeros((3, 3)))
    for t in (grads.w1, grads.b1, grads.w2, grads.b2, gx):
        assert not t.any()


def test_projector_backward_matches_finite_differences():
    rng = np.random.default_rng(10)
    for _ in range(10):
        d, hidden, b = 3, 4, 4
        for _ in range(200):
            p = _params(d=d, hidden=hidden, classes=2, layers=1,
                        seed=int(rng.integers(2**31)))
            p.proj_w1 = (np.asarray(p.proj_w1, dtype=np.float64) * 3)
            p.proj_w2 = (np.asarray(p.proj_w2, dtype=np.float64) * 3)
            p.proj_b1 = rng.normal(size=hidden) * 0.5
            p.proj_b2 = rng.normal(size=d) * 0.5
            x = rng.normal(size=(b, d))
            z, trace = projector_forward(x, p)
            pre1 = x @ p.proj_w1 + p.proj_b1
            if np.abs(pre1).min() > 1e-2 and trace.norm.norms.min() > 0.3:
                break
        else:
            pytest.skip("no well-conditioned instance found")
        probe = rng.normal(size=z.shape)
        grads, gx = projector_backward(trace, probe)

        def run(**kw):
            saved = {k: getattr(p, "proj_" + k) for k in ("w1", "b1", "w2", "b2")}
            xv = kw.pop("x", x)
            for k, v in kw.items():
                setattr(p, "proj_" + k, v)
            try:
                o, _ = projector_forward(xv, p)
            finally:
                for k, v in saved.items():
                    setattr(p, "proj_" + k, v)
            return float((o * probe).sum())

        assert grad_error(gx, fd_gradient(lambda q: run(x=q), x)) < 1e-4
        for name in ("w1", "b1", "w2", "b2"):
            cur = np.asarray(getattr(p, "proj_" + name), dtype=np.float64)
            num = fd_gradient(lambda q, nm=name: run(**{nm: q}), cur)
            assert grad_error(getattr(grads, name), num) < 1e-4


# -- Adam --------------------------------------------------------------------

def _tiny_params() -> ModelParams:
    p = _params(d=2, hidden=2, classes=2, layers=1, seed=1)
    return p


def _zero_grads(p: ModelParams) -> dict:
    return {k: np.zeros_like(np.asarray(t, dtype=np.float64))
            for k, t in p.named_tensors().items()}


def test_adam_zero_gradient_keeps_params():
    p = _tiny_params()
    before = {k: np.asarray(t).copy() for k, t in p.named_tensors().items()}
    adam_step(p, _zero_grads(p), lr=0.01)
    for k, t in p.named_tensors().items():
        np.testing.assert_array_equal(np.asarray(t), before[k])
    assert p.adam.step == 1


def test_adam_moments_decay_toward_zero():
    p = _tiny_params()
    grads = _zero_grads(p)
    grads["proj.b1"] = np.ones(2)
    adam_step(p, grads, lr=0.01)
    m1 = p.adam.m["proj.b1"].copy()
    v1 = p.adam.v["proj.b1"].copy()
    adam_step(p, _zero_grads(p), lr=0.01)
    np.testing.assert_allclose(p.adam.m["proj.b1"], m1 * ADAM_BETA1, rtol=1e-6)
    np.testing.assert_allclose(p.adam.v["proj.b1"], v1 * ADAM_BETA2, rtol=1e-6)


def test_adam_first_step_is_signlike():
    p = _tiny_params()
    before = np.asarray(p.proj_b1).copy()
    grads = _zero_grads(p)
    grads["proj.b1"] = np.asarray([0.5, -2.0])
    adam_step(p, grads, lr=0.01)
    # bias correction makes the first update exactly lr * g / (|g| + eps')
    np.testing.assert_allclose(
        np.asarray(p.proj_b1) - before, [-0.01, 0.01], atol=1e-6
    )


def test_adam_deterministic():
    a, b = _tiny_params(), _tiny_params()
    grads = _zero_grads(a)
    grads["gcn.w0"] = np.full((2, 2), 0.25)
    adam_step(a, dict(grads), lr=0.003)
    adam_step(b, dict(grads), lr=0.003)
    for (ka, ta), (kb, tb) in zip(a.named_tensors().items(), b.named_tensors().items()):
        np.testing.assert_array_equal(np.asarray(ta), np.asarray(tb))


def test_adam_rejects_nonfinite_grad_and_leaves_state():
    p = _tiny_params()
    before = {k: np.asarray(t).copy() for k, t in p.named_tensors().items()}
    grads = _zero_grads(p)
    grads["proj.w2"] = np.full((2, 2), np.nan)
    with pytest.raises(NumericError):
        adam_step(p, grads, lr=0.01)
    for k, t in p.named_tensors().items():
        np.testing.assert_array_equal(np.asarray(t), before[k])
    assert p.adam.step == 0


def test_adam_strict_key_and_shape_checks():
    p = _tiny_params()
    grads = _zero_grads(p)
    del grads["proj.b2"]
    with pytest.raises(InvariantError):
        adam_step(p, grads, lr=0.01)
    grads = _zero_grads(p)
    grads["extra"] = np.zeros(1)
    with pytest.raises(InvariantError):
        adam_step(p, grads, lr=0.01)
    grads = _zero_grads(p)
    grads["proj.b1"] = np.zeros(3)
    with pytest.raises(InvariantError):
        adam_step(p, grads, lr=0.01)


def test_adam_moments_stored_in_param_dtype():
    p = _tiny_params()
    grads = _zero_grads(p)
    grads["proj.b1"] = np.asarray([0.1, 0.2])
    adam_step(p, grads, lr=0.01)
    assert p.adam.m["proj.b1"].dtype == np.float32
    assert p.adam.v["proj.b1"].dtype == np.float32


def test_adam_updates_tensors_and_moments_in_place():
    p = _tiny_params()
    tensors = p.named_tensors()
    moments = {name: (p.adam.m[name], p.adam.v[name]) for name in tensors}
    grads = {name: np.full(t.shape, 0.5) for name, t in tensors.items()}
    before = {name: t.copy() for name, t in tensors.items()}
    adam_step(p, grads, lr=0.01)
    for name, t in p.named_tensors().items():
        assert t is tensors[name] and t.dtype == np.float32
        assert not np.array_equal(t, before[name])
        m, v = moments[name]
        assert p.adam.m[name] is m and p.adam.v[name] is v
        assert m.dtype == v.dtype == np.float32
        assert m.any() and v.any()


def test_named_tensors_set_tensor_roundtrip():
    p = _tiny_params()
    names = list(p.named_tensors())
    assert names == ["gcn.w0", "proj.w1", "proj.b1", "proj.w2", "proj.b2", "prompt.t"]
