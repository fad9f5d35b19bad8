import warnings

import numpy as np
import pytest

from graphgcd.errors import InvariantError, NumericError
from graphgcd.neural_core import (
    ADAM_BETA1,
    ADAM_BETA2,
    AdamState,
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
from graphgcd.semantic_graph import build_knn_graph

from oracles import fd_gradient, grad_error, plain_init_params


def _init(d=3, hidden=4, classes=3, layers=2, seed=0) -> tuple[dict, AdamState]:
    return init_params(d, hidden, classes, layers, np.random.default_rng(seed))


def _params(**kw) -> dict:
    return _init(**kw)[0]


# -- init --------------------------------------------------------------------

def test_layer_dims_by_depth():
    assert gcn_layer_dims(5, 7, 0) == []
    assert gcn_layer_dims(5, 7, 1) == [(5, 5)]
    assert gcn_layer_dims(5, 7, 2) == [(5, 7), (7, 5)]
    assert gcn_layer_dims(5, 7, 3) == [(5, 7), (7, 7), (7, 5)]


def test_init_glorot_bounds_and_zero_biases():
    p, adam = _init(d=6, hidden=9, classes=4, layers=2)
    limit01 = np.sqrt(6.0 / (6 + 9))
    assert np.abs(p["gcn.w0"]).max() <= limit01
    assert np.abs(p["proj.w1"]).max() <= limit01
    assert not p["proj.b1"].any() and not p["proj.b2"].any()
    assert p["prompt.t"].shape == (4, 6)
    assert adam.step == 0
    for name, t in p.items():
        assert not adam.m[name].any() and not adam.v[name].any()
        assert adam.m[name].shape == np.asarray(t).shape


@pytest.mark.parametrize("layers", [0, 1, 2, 3])
def test_param_shapes_is_the_layout_of_init_and_named_tensors(layers):
    # the params dict is the named form: init and both moments carry the
    # layout's names and shapes in its order
    p, adam = _init(d=5, hidden=7, classes=3, layers=layers)
    layout = param_shapes(5, 7, 3, layers)
    for group in (p, adam.m, adam.v):
        assert {n: t.shape for n, t in group.items()} == layout
        assert list(group) == list(layout)


@pytest.mark.parametrize("layers", [0, 1, 2, 3])
def test_backward_gradients_are_keyed_by_the_layout(layers):
    # the step hands adam_step {**gcn, **proj, "prompt.t": ...} as it comes
    p = _params(d=5, hidden=7, classes=3, layers=layers)
    rng = np.random.default_rng(layers)
    graph = build_knn_graph(rng.normal(size=(3, 5)), 1)
    ybar, gcn_tr = gcn_forward(graph, rng.normal(size=(3, 5)), p)
    z, proj_tr = projector_forward(rng.normal(size=(4, 5)), p)
    gcn, _ = gcn_backward(gcn_tr, rng.normal(size=ybar.shape))
    proj, _ = projector_backward(proj_tr, rng.normal(size=z.shape))
    t, prompt_tr = normalize_rows(p["prompt.t"])
    named = {**gcn, **proj, "prompt.t": normalize_rows_backward(prompt_tr, t)}
    assert list(gcn) == [f"gcn.w{l}" for l in range(layers)]
    assert {n: t.shape for n, t in named.items()} == param_shapes(5, 7, 3, layers)
    assert list(named) == list(param_shapes(5, 7, 3, layers))


@pytest.mark.parametrize("layers", [0, 1, 2, 3])
@pytest.mark.parametrize("d, hidden", [(5, 3), (4, 7)])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_init_params_matches_explicit_order_oracle(layers, d, hidden, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    named, adam = init_params(d, hidden, 4, layers, ours)
    expect = plain_init_params(d, hidden, 4, layers, theirs)
    assert list(named) == list(expect)
    for name, t in expect.items():
        assert named[name].dtype == np.float32 and np.array_equal(named[name], t), name
        for moments in (adam.m, adam.v):
            assert moments[name].dtype == np.float32, name
            assert np.array_equal(moments[name], np.zeros_like(t)), name
    assert adam.step == 0
    # both consumed the generator equally: the next draw agrees
    assert ours.random() == theirs.random()


def test_init_deterministic():
    a, b = _params(seed=11), _params(seed=11)
    for (na, ta), (nb, tb) in zip(a.items(), b.items()):
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
def test_normalize_rows_rescales_a_norm_whose_squares_overflow(dtype, big):
    # x * x overflows to inf, and x / inf would be a silent zero row: the
    # norm is recomputed on the row scaled by its largest magnitude
    x = np.asarray([[1.0, 2.0], [big, -3 * big]], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit, trace = normalize_rows(x)
    assert unit.dtype == trace.norms.dtype == dtype
    scale = dtype(3 * big)
    assert trace.norms[1, 0] == scale * np.sqrt((x[1] / scale) @ (x[1] / scale))
    assert trace.norms[0, 0] == np.linalg.norm(x[0])  # a row that fits keeps its bits
    np.testing.assert_allclose(unit, [[1, 2] / np.sqrt(5), [1, -3] / np.sqrt(10)], atol=1e-6)


def test_normalize_rows_rejects_a_norm_beyond_the_dtype_range():
    # every square overflows and so does the rescaled norm, sqrt(2) * 3e38
    with pytest.raises(NumericError, match="non-finite row norm: NaN, inf or float32 overflow"):
        normalize_rows(np.full((1, 2), 3e38, dtype=np.float32))


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
    g = np.eye(3)
    h0 = np.random.default_rng(1).normal(size=(3, 4))
    p = _params(d=4, classes=3, layers=0)
    ybar, _ = gcn_forward(g, h0, p)
    np.testing.assert_allclose(ybar, h0 / np.linalg.norm(h0, axis=1, keepdims=True))


def test_gcn_identity_composition():
    # identity propagation, identity weights, nonnegative unit rows: a no-op
    g = np.eye(2)
    h0 = np.asarray([[1.0, 0.0], [0.6, 0.8]])
    p = _params(d=2, classes=2, layers=1)
    p["gcn.w0"] = np.eye(2)
    ybar, _ = gcn_forward(g, h0, p)
    np.testing.assert_allclose(ybar, h0, atol=1e-12)


def test_gcn_two_node_averaging():
    g = np.full((2, 2), 0.5)
    h0 = np.eye(2)
    p = _params(d=2, classes=2, layers=1)
    p["gcn.w0"] = np.eye(2)
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
    g = np.eye(3)
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
    assert all(not w.any() for w in gw.values())
    assert not gh0.any()


def test_gcn_single_linear_layer_weight_grad_formula():
    g = build_knn_graph(np.random.default_rng(4).normal(size=(4, 3)), 2)
    p = _params(d=3, classes=4, layers=1, seed=9)
    h0 = np.random.default_rng(5).normal(size=(4, 3))
    _, trace = gcn_forward(g, h0, p)
    grad_out = np.random.default_rng(6).normal(size=(4, 3))
    gw, _ = gcn_backward(trace, grad_out)
    g_pre = normalize_rows_backward(trace.norm, grad_out)
    msg = g @ h0
    np.testing.assert_allclose(gw["gcn.w0"], msg.T @ g_pre, atol=1e-12)


def test_relu_dead_unit_has_zero_weight_column_grad():
    g = np.eye(3)
    p = _params(d=2, hidden=2, classes=3, layers=2, seed=0)
    w0 = np.asarray([[1.0, -1.0], [1.0, -1.0]])  # unit 1 always negative
    p["gcn.w0"], p["gcn.w1"] = w0, np.eye(2)
    h0 = np.abs(np.random.default_rng(7).normal(size=(3, 2))) + 0.1
    _, trace = gcn_forward(g, h0, p)
    assert (trace.pres[0][:, 1] < 0).all()
    gw, _ = gcn_backward(trace, np.random.default_rng(8).normal(size=(3, 2)))
    np.testing.assert_allclose(gw["gcn.w0"][:, 1], 0.0)


def _fd_check_gcn(layers: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    c, d, hidden = 5, 3, 4
    for _ in range(200):
        h0 = rng.normal(size=(c, d))
        p = _params(d=d, hidden=hidden, classes=c, layers=layers,
                    seed=int(rng.integers(2**31)))
        for li in range(layers):
            p[f"gcn.w{li}"] = np.asarray(p[f"gcn.w{li}"], dtype=np.float64) * 3
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
            o, _ = gcn_forward(graph, h0, {**p, f"gcn.w{li}": q})
            return float((o * probe).sum())

        worst = max(worst, grad_error(gw[f"gcn.w{li}"], fd_gradient(f_w, p[f"gcn.w{li}"])))
    return worst


@pytest.mark.parametrize("layers", [0, 1, 2, 3])
def test_gcn_backward_matches_finite_differences(layers):
    for seed in range(5):
        assert _fd_check_gcn(layers, seed) < 1e-4


# -- projector ---------------------------------------------------------------

def test_projector_identity_pipe():
    p = _params(d=2, hidden=2, classes=2, layers=1)
    p["proj.w1"] = np.eye(2, dtype=np.float32)
    p["proj.w2"] = np.eye(2, dtype=np.float32)
    x = np.asarray([[0.6, 0.8]])
    z, _ = projector_forward(x, p)
    np.testing.assert_allclose(z, x, atol=1e-7)


def test_projector_bias_only_normalization():
    p = _params(d=2, hidden=3, classes=2, layers=1)
    p["proj.w1"] = np.zeros((2, 3), dtype=np.float32)
    p["proj.w2"] = np.zeros((3, 2), dtype=np.float32)
    p["proj.b2"] = np.asarray([3.0, 4.0], dtype=np.float32)
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
    for t in (*grads.values(), gx):
        assert not t.any()


def test_projector_backward_matches_finite_differences():
    rng = np.random.default_rng(10)
    for _ in range(10):
        d, hidden, b = 3, 4, 4
        for _ in range(200):
            p = _params(d=d, hidden=hidden, classes=2, layers=1,
                        seed=int(rng.integers(2**31)))
            p["proj.w1"] = (np.asarray(p["proj.w1"], dtype=np.float64) * 3)
            p["proj.w2"] = (np.asarray(p["proj.w2"], dtype=np.float64) * 3)
            p["proj.b1"] = rng.normal(size=hidden) * 0.5
            p["proj.b2"] = rng.normal(size=d) * 0.5
            x = rng.normal(size=(b, d))
            z, trace = projector_forward(x, p)
            pre1 = x @ p["proj.w1"] + p["proj.b1"]
            if np.abs(pre1).min() > 1e-2 and trace.norm.norms.min() > 0.3:
                break
        else:
            pytest.skip("no well-conditioned instance found")
        probe = rng.normal(size=z.shape)
        grads, gx = projector_backward(trace, probe)

        def run(**kw):
            xv = kw.pop("x", x)
            o, _ = projector_forward(xv, {**p, **{"proj." + k: v for k, v in kw.items()}})
            return float((o * probe).sum())

        assert grad_error(gx, fd_gradient(lambda q: run(x=q), x)) < 1e-4
        for name in ("w1", "b1", "w2", "b2"):
            cur = np.asarray(p["proj." + name], dtype=np.float64)
            num = fd_gradient(lambda q, nm=name: run(**{nm: q}), cur)
            assert grad_error(grads["proj." + name], num) < 1e-4


# -- Adam --------------------------------------------------------------------

def _tiny() -> tuple[dict, AdamState]:
    return _init(d=2, hidden=2, classes=2, layers=1, seed=1)


def _zero_grads(p: dict) -> dict:
    return {k: np.zeros_like(np.asarray(t, dtype=np.float64)) for k, t in p.items()}


def test_adam_zero_gradient_keeps_params():
    p, adam = _tiny()
    before = {k: np.asarray(t).copy() for k, t in p.items()}
    adam_step(p, adam, _zero_grads(p), lr=0.01)
    for k, t in p.items():
        np.testing.assert_array_equal(np.asarray(t), before[k])
    assert adam.step == 1


def test_adam_moments_decay_toward_zero():
    p, adam = _tiny()
    grads = _zero_grads(p)
    grads["proj.b1"] = np.ones(2)
    adam_step(p, adam, grads, lr=0.01)
    m1 = adam.m["proj.b1"].copy()
    v1 = adam.v["proj.b1"].copy()
    adam_step(p, adam, _zero_grads(p), lr=0.01)
    np.testing.assert_allclose(adam.m["proj.b1"], m1 * ADAM_BETA1, rtol=1e-6)
    np.testing.assert_allclose(adam.v["proj.b1"], v1 * ADAM_BETA2, rtol=1e-6)


def test_adam_first_step_is_signlike():
    p, adam = _tiny()
    before = np.asarray(p["proj.b1"]).copy()
    grads = _zero_grads(p)
    grads["proj.b1"] = np.asarray([0.5, -2.0])
    adam_step(p, adam, grads, lr=0.01)
    # bias correction makes the first update exactly lr * g / (|g| + eps')
    np.testing.assert_allclose(
        np.asarray(p["proj.b1"]) - before, [-0.01, 0.01], atol=1e-6
    )


def test_adam_deterministic():
    (a, adam_a), (b, adam_b) = _tiny(), _tiny()
    grads = _zero_grads(a)
    grads["gcn.w0"] = np.full((2, 2), 0.25)
    adam_step(a, adam_a, dict(grads), lr=0.003)
    adam_step(b, adam_b, dict(grads), lr=0.003)
    for (ka, ta), (kb, tb) in zip(a.items(), b.items()):
        np.testing.assert_array_equal(np.asarray(ta), np.asarray(tb))


def test_adam_rejects_nonfinite_grad_and_leaves_state():
    p, adam = _tiny()
    before = {k: np.asarray(t).copy() for k, t in p.items()}
    grads = _zero_grads(p)
    grads["proj.w2"] = np.full((2, 2), np.nan)
    with pytest.raises(NumericError):
        adam_step(p, adam, grads, lr=0.01)
    for k, t in p.items():
        np.testing.assert_array_equal(np.asarray(t), before[k])
    assert adam.step == 0


def test_adam_strict_key_and_shape_checks():
    p, adam = _tiny()
    grads = _zero_grads(p)
    del grads["proj.b2"]
    with pytest.raises(InvariantError):
        adam_step(p, adam, grads, lr=0.01)
    grads = _zero_grads(p)
    grads["extra"] = np.zeros(1)
    with pytest.raises(InvariantError):
        adam_step(p, adam, grads, lr=0.01)
    grads = _zero_grads(p)
    grads["proj.b1"] = np.zeros(3)
    with pytest.raises(InvariantError):
        adam_step(p, adam, grads, lr=0.01)


@pytest.mark.parametrize("moments", ["adam.m", "adam.v"])
@pytest.mark.parametrize("fault", ["missing", "shape"])
def test_adam_rejects_absent_or_misshapen_moments_and_leaves_state(moments, fault):
    p, adam = _tiny()
    adam_step(p, adam, _zero_grads(p), lr=0.01)
    held = adam.m if moments == "adam.m" else adam.v
    if fault == "missing":
        del held["proj.b2"]
        message = rf"{moments} keys do not match tensors: \['proj.b2'\]"
    else:
        held["proj.b2"] = np.zeros(3, dtype=np.float32)
        message = f"{moments} proj.b2 shape"
    before = {k: np.asarray(t).copy() for k, t in p.items()}
    m_before = {k: t.copy() for k, t in adam.m.items()}
    v_before = {k: t.copy() for k, t in adam.v.items()}
    with pytest.raises(InvariantError, match=message):
        adam_step(p, adam, _zero_grads(p), lr=0.01)
    assert adam.step == 1
    for k, t in p.items():
        np.testing.assert_array_equal(t, before[k])
    for got, want in ((adam.m, m_before), (adam.v, v_before)):
        assert list(got) == list(want)
        for k, t in got.items():
            np.testing.assert_array_equal(t, want[k])


def test_adam_on_params_without_moments_names_them_and_leaves_state():
    # a caller-built state with no moments yet
    p = init_params(4, 4, 3, 1, 0)[0]
    adam = AdamState({}, {})
    before = {k: t.copy() for k, t in p.items()}
    grads = {k: np.ones_like(t) for k, t in before.items()}
    with pytest.raises(InvariantError, match=r"adam.m keys do not match tensors: \['gcn.w0'"):
        adam_step(p, adam, grads, lr=0.01)
    assert adam.step == 0 and adam.m == {} and adam.v == {}
    for k, t in p.items():
        np.testing.assert_array_equal(t, before[k])


def test_adam_moments_stored_in_param_dtype():
    p, adam = _tiny()
    grads = _zero_grads(p)
    grads["proj.b1"] = np.asarray([0.1, 0.2])
    adam_step(p, adam, grads, lr=0.01)
    assert adam.m["proj.b1"].dtype == np.float32
    assert adam.v["proj.b1"].dtype == np.float32


def test_adam_updates_tensors_and_moments_in_place():
    p, adam = _tiny()
    tensors = dict(p)
    moments = {name: (adam.m[name], adam.v[name]) for name in tensors}
    grads = {name: np.full(t.shape, 0.5) for name, t in tensors.items()}
    before = {name: t.copy() for name, t in tensors.items()}
    adam_step(p, adam, grads, lr=0.01)
    for name, t in p.items():
        assert t is tensors[name] and t.dtype == np.float32
        assert not np.array_equal(t, before[name])
        m, v = moments[name]
        assert adam.m[name] is m and adam.v[name] is v
        assert m.dtype == v.dtype == np.float32
        assert m.any() and v.any()


def test_adam_update_that_overflows_is_a_numeric_error():
    # finite tensor, gradient and moments; only the sum max + 1e38 overflows
    p = {"w": np.full(2, np.finfo(np.float32).max, dtype=np.float32)}
    adam = AdamState({"w": np.zeros(2, np.float32)}, {"w": np.zeros(2, np.float32)})
    with pytest.raises(NumericError, match="^tensor w became non-finite after update$"):
        adam_step(p, adam, {"w": -np.ones(2, np.float32)}, lr=1e38)
    assert (p["w"] == np.finfo(np.float32).max).all()


def test_adam_overflow_leaves_the_earlier_tensors_updated():
    # the documented half-update: step, the moments up to the failing tensor
    # and the tensors before it change; the failing tensor keeps its value
    top = np.finfo(np.float32).max
    p = {"a": np.zeros(2, np.float32), "w": np.full(2, top, dtype=np.float32)}
    adam = AdamState({n: np.zeros(2, np.float32) for n in p},
                     {n: np.zeros(2, np.float32) for n in p})
    grads = {n: -np.ones(2, np.float32) for n in p}
    with pytest.raises(NumericError, match="^tensor w became non-finite after update$"):
        adam_step(p, adam, grads, lr=1e38)
    assert adam.step == 1
    assert (p["a"] > 0).all() and (p["w"] == top).all()
    assert all(adam.m[n].all() and adam.v[n].all() for n in p)


def test_named_tensors_set_tensor_roundtrip():
    p, adam = _tiny()
    names = ["gcn.w0", "proj.w1", "proj.b1", "proj.w2", "proj.b2", "prompt.t"]
    assert list(p) == list(adam.m) == list(adam.v) == names
