"""Tests for the three metric losses and triplet sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgcd.errors import InvariantError
from graphgcd.losses import (
    loss_cma,
    loss_cs,
    loss_sdp,
    loss_total,
    sample_triplets,
)
from graphgcd.neural_core import normalize_rows, normalize_rows_backward

from oracles import (
    cosine,
    fd_gradient,
    grad_error,
    plain_loss_total,
    plain_sample_triplets,
    plain_sdp_grad,
)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def cma_inputs(z, y, ybar):
    """loss_cma's arrays (z, y_idx, ybar), as float64 rows and int64 labels."""
    return (np.asarray(z, dtype=np.float64), np.asarray(y, dtype=np.int64),
            np.asarray(ybar, dtype=np.float64))


def raw_cma(z, y, ybar, alpha=0.3, temperature=1.0, as_printed=False):
    """loss_cma as a function of raw rows: normalized on the way in, and the
    unit-row gradients mapped back by the Jacobian, as the forwards do."""
    (zu, tz), (yu, ty) = (normalize_rows(np.asarray(r, float)) for r in (z, ybar))
    loss, gz, gybar = loss_cma(*cma_inputs(zu, y, yu), alpha, temperature, as_printed)
    return loss, normalize_rows_backward(tz, gz), normalize_rows_backward(ty, gybar)


def stack(a, p, n):
    """Row-aligned anchor, positive and negative blocks as one z and its triplets."""
    m = len(a)
    return np.vstack([a, p, n]), [(i, m + i, 2 * m + i) for i in range(m)]


def sdp(a, p, n, as_printed=False):
    """loss_sdp of row-aligned unit-row blocks: (loss, grad_a, grad_p, grad_n)."""
    loss, grad = loss_sdp(*stack(a, p, n), as_printed)
    return (loss, *np.split(grad, 3))


def raw_sdp(a, p, n, as_printed=False):
    """sdp as a function of raw rows, composed as raw_cma is."""
    z, triplets = stack(a, p, n)
    zu, trace = normalize_rows(np.asarray(z, float))
    loss, grad = loss_sdp(zu, triplets, as_printed)
    return (loss, *np.split(normalize_rows_backward(trace, grad), 3))


def assert_close_to_rounding(got, ref, rows):
    # raw-row gradients w.r.t. `rows` at float64 rounding: each unit-row
    # gradient entry here is O(1), so the Jacobian's rounding is O(eps / ||row||),
    # and gradients that cancel to zero are compared against that
    atol = 1e-12 / np.linalg.norm(rows, axis=1).min()
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=atol)


# ---------------------------------------------------------------- cosine

def test_cosine_identical_vectors():
    assert cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)


def test_cosine_orthogonal_vectors():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)


def test_cosine_45_degrees():
    assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.70710678, abs=1e-8)


def test_cosine_scale_invariant():
    assert cosine([3.0, 4.0], [6.0, 8.0]) == pytest.approx(1.0)


def test_cosine_zero_vector_rejected():
    with pytest.raises(ValueError):
        cosine([0.0, 0.0], [1.0, 0.0])


# ---------------------------------------------------------------- loss_cma

def test_cma_single_class_is_zero():
    # one class: softmax is identically 1 and no wrong-class margin exists
    batch = cma_inputs([[1.0, 0.0], [0.0, 1.0]], [0, 0], [[1.0, 0.0]])
    loss, gz, gybar = loss_cma(*batch, alpha=0.3, temperature=1.0)
    assert loss == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(gz, 0.0, atol=1e-15)
    np.testing.assert_allclose(gybar, 0.0, atol=1e-15)


def test_cma_two_class_aligned_example():
    # z on class 0, the other class antipodal: logits (1, -1), inactive hinge
    batch = cma_inputs([[1.0, 0.0]], [0], [[1.0, 0.0], [-1.0, 0.0]])
    loss, _, _ = loss_cma(*batch, alpha=0.3, temperature=1.0)
    assert loss == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-12)
    assert loss == pytest.approx(0.126928011, abs=1e-9)


def test_cma_tied_logits_prose_vs_printed():
    s = 1.0 / math.sqrt(2.0)
    batch = cma_inputs([[1.0, 0.0]], [0], [[s, s], [s, -s]])
    loss_prose, _, _ = loss_cma(*batch, alpha=0.3, temperature=1.0)
    loss_printed, _, _ = loss_cma(*batch, alpha=0.3, temperature=1.0, as_printed=True)
    # tie: CE = log 2 either way; the hinge fires only under the prose sign
    assert loss_prose == pytest.approx(math.log(2.0) + 0.3, abs=1e-12)
    assert loss_printed == pytest.approx(math.log(2.0), abs=1e-12)


def test_cma_row_rescaling_invariance():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(4, 3))
    ybar = rng.normal(size=(3, 3))
    y = np.array([0, 1, 2, 1])
    # the invariance belongs to the normalization in front of the loss
    base, gz, gybar = raw_cma(z, y, ybar)
    scaled, gz_s, gybar_s = raw_cma(z * 3.7, y, ybar * 0.2)
    assert scaled == pytest.approx(base, rel=1e-12)
    # cosines are scale-free, so raw-input grads shrink by the scale factor
    np.testing.assert_allclose(gz_s, gz / 3.7, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(gybar_s, gybar / 0.2, rtol=1e-9, atol=1e-12)


def test_cma_loss_grows_as_true_class_similarity_drops():
    # d=3 lets us set both cosines exactly and move only the true one
    ybar = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    b = 0.2
    losses = []
    for a in [0.9, 0.6, 0.3, 0.0, -0.4, -0.8]:
        z = np.array([[a, b, math.sqrt(1.0 - a * a - b * b)]])
        loss, _, _ = loss_cma(*cma_inputs(z, [0], ybar), 0.3, 1.0)
        losses.append(loss)
    diffs = np.diff(losses)
    assert (diffs >= -1e-12).all()
    assert losses[-1] > losses[0]


def test_cma_temperature_sharpens_ce():
    batch = cma_inputs([[1.0, 0.0]], [0], [[1.0, 0.0], [-1.0, 0.0]])
    hot, _, _ = loss_cma(*batch, 0.0, 10.0)
    cold, _, _ = loss_cma(*batch, 0.0, 0.1)
    assert cold < hot


def test_cma_parameter_validation():
    batch = cma_inputs([[1.0, 0.0]], [0], [[1.0, 0.0]])
    with pytest.raises(InvariantError):
        loss_cma(*batch, alpha=-0.1, temperature=1.0)
    with pytest.raises(InvariantError):
        loss_cma(*batch, alpha=1.5, temperature=1.0)
    with pytest.raises(InvariantError):
        loss_cma(*batch, alpha=0.3, temperature=0.0)


def test_cma_zero_row_rejected():
    # not a unit row; normalize_rows, in front of the loss, raises NumericError on it
    batch = cma_inputs([[0.0, 0.0]], [0], [[1.0, 0.0]])
    with pytest.raises(InvariantError, match="z rows are not unit-norm"):
        loss_cma(*batch, 0.3, 1.0)


# ---------------------------------------------------------------- loss_sdp

def test_sdp_perfect_triplet_is_zero():
    a = np.array([[1.0, 0.0]])
    p = np.array([[2.0, 0.0]])  # same direction, norm irrelevant
    n = np.array([[0.0, 1.0]])
    loss, ga, gp, gn = raw_sdp(a, p, n)
    assert loss == pytest.approx(0.0, abs=1e-15)


def test_sdp_worst_case_with_orthogonal_negative():
    a = np.array([[1.0, 0.0]])
    p = np.array([[-1.0, 0.0]])
    n = np.array([[0.0, 1.0]])
    loss, _, _, _ = sdp(a, p, n)
    assert loss == pytest.approx(2.0, abs=1e-12)


def test_sdp_negative_similarity_clamped():
    a = np.array([[1.0, 0.0]])
    p = np.array([[1.0, 0.0]])
    n = np.array([[-0.5, math.sqrt(3.0) / 2.0]])  # cos = -0.5
    loss, ga, gp, gn = sdp(a, p, n)
    assert loss == pytest.approx(0.0, abs=1e-15)
    # clamped term contributes no gradient through the negative
    np.testing.assert_allclose(gn, 0.0, atol=1e-15)


def test_sdp_printed_form_drops_clamp_and_constant():
    a = np.array([[1.0, 0.0]])
    p = np.array([[0.0, 1.0]])
    n = np.array([[-1.0, 0.0]])
    prose, _, _, _ = sdp(a, p, n)
    printed, _, _, _ = sdp(a, p, n, as_printed=True)
    assert prose == pytest.approx(1.0)  # (1 - 0) + max(-1, 0)
    assert printed == pytest.approx(-2.0)  # (0 - 1) + (-1)


def test_sdp_mean_over_triplets():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    p = np.array([[1.0, 0.0], [-1.0, 0.0]])
    n = np.array([[0.0, 1.0], [0.0, 1.0]])
    loss, _, _, _ = sdp(a, p, n)
    assert loss == pytest.approx((0.0 + 2.0) / 2.0)


def test_sdp_nonnegative_on_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m, d = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        a = rng.normal(size=(m, d))
        p = rng.normal(size=(m, d))
        n = rng.normal(size=(m, d))
        loss, _, _, _ = raw_sdp(a, p, n)
        assert loss >= 0.0


def test_sdp_empty_and_mismatched_inputs_rejected():
    z = np.eye(3)
    with pytest.raises(InvariantError, match="at least one triplet"):
        loss_sdp(z, np.empty((0, 3), np.int64))
    for triplets in ([], [(0, 1)], [(0, 1, 2, 0)], [(0, 1, 3)], [(-1, 0, 1)]):
        with pytest.raises(InvariantError):
            loss_sdp(z, triplets)
    with pytest.raises(InvariantError, match="matrix of rows"):
        loss_sdp(z[0], [(0, 1, 2)])


def test_sdp_zero_row_rejected():
    with pytest.raises(InvariantError, match="z rows are not unit-norm"):
        loss_sdp(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [(0, 1, 2)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sdp_gradient_matches_plain_loop_oracle(dtype):
    # indices drawn from the first `hot` rows with replacement, and whole
    # triplets drawn again: rows repeat within and across triplets, so several
    # weights add onto one entry of the b×b matrix
    rng = np.random.default_rng(2024)
    eps = np.finfo(dtype).eps
    for _ in range(300):
        b, d, m = int(rng.integers(1, 40)), int(rng.integers(1, 9)), int(rng.integers(1, 60))
        z = normalize_rows(rng.normal(size=(b, d)).astype(dtype))[0]
        triplets = rng.integers(int(rng.integers(1, b + 1)), size=(m, 3))
        triplets = triplets[rng.integers(m, size=m)]
        for as_printed in (False, True):
            _, grad = loss_sdp(z, triplets, as_printed)
            assert grad.dtype == dtype
            # a row's weights sum to at most 4 in magnitude; rounding in the
            # operands' dtype: each weight adds up to 4m terms, each product b
            np.testing.assert_allclose(grad, plain_sdp_grad(z, triplets.tolist(), as_printed),
                                       rtol=0, atol=4 * (b + 4 * m) * eps)


# ---------------------------------------------------------------- loss_cs

def test_cs_zero_at_centers():
    t = np.array([[0.6, 0.8], [1.0, 0.0]])
    loss, grad = loss_cs(t, t.copy())
    assert loss == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(t))


def test_cs_hand_value():
    loss, grad = loss_cs(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]]))
    assert loss == pytest.approx(12.5)
    np.testing.assert_array_equal(grad, [[3.0, 4.0]])


def test_cs_quadratic_scaling():
    t = np.array([[1.0, 2.0], [0.5, -1.0]])
    c = np.zeros_like(t)
    base, _ = loss_cs(t, c)
    doubled, _ = loss_cs(2.0 * t, c)
    assert doubled == pytest.approx(4.0 * base)


def test_cs_shape_mismatch_rejected():
    with pytest.raises(InvariantError):
        loss_cs(np.ones((2, 3)), np.ones((3, 2)))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_cs_nonnegative_and_grad_is_residual(seed):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(3, 4))
    c = rng.normal(size=(3, 4))
    loss, grad = loss_cs(t, c)
    assert loss >= 0.0
    np.testing.assert_allclose(grad, t - c, atol=1e-15)


# ---------------------------------------------------------------- loss_total

def _random_total_inputs(seed, b=5, d=4, c=3):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(b, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    ybar = rng.normal(size=(c, d))
    ybar /= np.linalg.norm(ybar, axis=1, keepdims=True)
    t = rng.normal(size=(c, d))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    y = rng.integers(c, size=b)
    return (*cma_inputs(z, y, ybar), t)


def _anchor_opposite_row_4(seed):
    # row 4 = -row 0: as the negative of anchor 0 its cosine is -1, so its
    # hinge term is inactive under the default convention
    z, y, ybar, t = _random_total_inputs(seed)
    z[4] = -z[0]
    return z, y, ybar, t


_REPEATS = [(0, 1, 4), (0, 1, 2), (1, 0, 4), (4, 2, 0), (0, 3, 4)]


def test_total_is_sum_of_parts():
    # the loss values are bit for bit those of the three terms on their own
    for make, triplets in ((_random_total_inputs, [(0, 1, 2), (1, 0, 3), (4, 2, 0)]),
                           (_anchor_opposite_row_4, _REPEATS)):
        for as_printed in (False, True):
            _check_total_is_sum_of_parts(make(3), triplets, as_printed)
    # triplet (0, 1, 4): its negative term is inactive, so row 4 gets no gradient
    assert not loss_sdp(_anchor_opposite_row_4(3)[0], _REPEATS[:1])[1][4].any()


def _check_total_is_sum_of_parts(inputs, triplets, as_printed):
    z, y, ybar, t = inputs
    total, (gz, gybar, gt), parts = loss_total(z, y, ybar, t, triplets, 0.3, 1.0, as_printed)
    assert parts["l_tot"] == parts["l_cma"] + parts["l_sdp"] + parts["l_cs"]
    assert total == parts["l_tot"]

    l_cma, gz_c, gybar_c = loss_cma(z, y, ybar, 0.3, 1.0, as_printed)
    l_sdp, gz_s = loss_sdp(z, triplets, as_printed)
    l_cs, gcs = loss_cs(t, ybar)
    assert parts["l_cma"] == l_cma
    assert parts["l_sdp"] == l_sdp
    assert parts["l_cs"] == l_cs
    np.testing.assert_array_equal(gybar, gybar_c)
    np.testing.assert_array_equal(gt, gcs)

    # grad_z: the two terms' gradients added, bit for bit
    np.testing.assert_array_equal(gz, gz_c + gz_s)


@given(st.integers(3, 8), st.integers(1, 4), st.integers(2, 6), st.integers(0, 12),
       st.booleans(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_total_matches_plain_per_term_reference(b, c, d, m, as_printed, seed):
    # rows over two decades of norm; triplets of distinct rows, as the sampler
    # draws them, taken from the first `hot` rows so that rows repeat
    rng = np.random.default_rng(seed)

    def rows(k):
        return rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-1, 1, size=(k, 1))

    z, ybar, t = rows(b), rows(c), rows(c)
    y = rng.integers(c, size=b)
    hot = int(rng.integers(3, b + 1))
    triplets = np.array([rng.permutation(hot)[:3] for _ in range(m)], np.int64).reshape(-1, 3)
    # loss_total reads unit rows: the normalization and its Jacobian go around it
    (zu, tz), (yu, ty), (tu, tt) = (normalize_rows(r) for r in (z, ybar, t))
    total, (g_z, g_ybar, g_t), parts = loss_total(zu, y, yu, tu, triplets, 0.3, 0.5, as_printed)
    ref_parts, gz, gybar, gt = plain_loss_total(z, y, ybar, t, triplets, 0.3, 0.5, as_printed)
    assert parts == ref_parts
    assert total == ref_parts["l_tot"]
    assert_close_to_rounding(normalize_rows_backward(tz, g_z), gz, z)
    assert_close_to_rounding(normalize_rows_backward(ty, g_ybar), gybar, ybar)
    np.testing.assert_array_equal(normalize_rows_backward(tt, g_t), gt)


def test_total_centers_are_stop_gradient():
    # ybar feeds the quadratic term only as a constant: its grad must be
    # exactly the class-matching grad, with no residual term added
    z, y, ybar, t = _random_total_inputs(9)
    _, (_, gybar, _), _ = loss_total(z, y, ybar, t, [(0, 1, 2)], 0.3, 1.0)
    _, _, gybar_cma = loss_cma(z, y, ybar, 0.3, 1.0)
    np.testing.assert_array_equal(gybar, gybar_cma)


def test_total_empty_triplets():
    z, y, ybar, t = _random_total_inputs(5)
    total, (gz, _, _), parts = loss_total(z, y, ybar, t, [], 0.3, 1.0)
    assert parts["l_sdp"] == 0.0
    l_cma, gz_c, _ = loss_cma(z, y, ybar, 0.3, 1.0)
    assert total == pytest.approx(l_cma + parts["l_cs"])
    np.testing.assert_allclose(gz, gz_c, atol=1e-15)


def test_total_repeated_triplet_indices_accumulate():
    inputs = _random_total_inputs(8)
    once, g1, _ = loss_total(*inputs, [(0, 1, 2)], 0.3, 1.0)
    twice, g2, _ = loss_total(*inputs, [(0, 1, 2), (0, 1, 2)], 0.3, 1.0)
    # duplicating the only triplet keeps the mean, and the grads, identical
    assert twice == pytest.approx(once)
    np.testing.assert_allclose(g2[0], g1[0], atol=1e-12)


def test_total_accepts_sampler_array_and_list_alike():
    inputs = _random_total_inputs(4, b=8)
    triplets = sample_triplets(np.array([0, 1, 0, 1, 2, 2, 0, 1]), np.random.default_rng(6))
    assert triplets.shape == (8, 3)
    from_array = loss_total(*inputs, triplets, 0.3, 1.0)
    from_list = loss_total(*inputs, [tuple(t) for t in triplets.tolist()], 0.3, 1.0)
    assert from_array[0] == from_list[0]
    np.testing.assert_array_equal(from_array[1][0], from_list[1][0])
    empty = loss_total(*inputs, np.empty((0, 3), dtype=np.int64), 0.3, 1.0)
    assert empty[2]["l_sdp"] == 0.0


@pytest.mark.parametrize("scale", [1.0 + 1e-5, 2.0, np.nan])  # zero rows: *_zero_row_rejected
@pytest.mark.parametrize("name", ["z", "ybar", "t"])
def test_every_public_loss_rejects_non_unit_rows(name, scale):
    inputs = dict(zip(("z", "y_idx", "ybar", "t"), _random_total_inputs(1)))
    inputs[name] = inputs[name].copy()
    inputs[name][1] *= scale
    if name != "t":  # loss_cma reads no prompt rows
        with pytest.raises(InvariantError, match=f"^{name} rows are not unit-norm"):
            loss_cma(inputs["z"], inputs["y_idx"], inputs["ybar"], 0.3, 1.0)
    with pytest.raises(InvariantError, match=f"^{name} rows are not unit-norm"):
        loss_total(**inputs, triplets=[(0, 1, 2)], alpha=0.3, temperature=1.0)
    # loss_sdp reads one row set, whichever it is given
    with pytest.raises(InvariantError, match="^z rows are not unit-norm"):
        loss_sdp(inputs[name], [(0, 1, 2)])


@pytest.mark.parametrize("triplets", [[(0, 1, 5)], [(-1, 0, 1)], [(0, 1)]])
def test_total_rejects_malformed_triplets(triplets):
    with pytest.raises(InvariantError):
        loss_total(*_random_total_inputs(2), triplets, 0.3, 1.0)


# ---------------------------------------------------------------- gradients vs finite differences

def _margin_safe_cma_instance(seed, b=3, c=3, d=4, alpha=0.3):
    # resample until no hinge argument sits near its kink
    rng = np.random.default_rng(seed)
    for _ in range(200):
        z = rng.normal(size=(b, d))
        ybar = rng.normal(size=(c, d))
        if min(np.linalg.norm(z, axis=1).min(), np.linalg.norm(ybar, axis=1).min()) < 0.5:
            continue
        y = rng.integers(c, size=b)
        zh = z / np.linalg.norm(z, axis=1, keepdims=True)
        yh = ybar / np.linalg.norm(ybar, axis=1, keepdims=True)
        s = zh @ yh.T
        pos = s[np.arange(b), y][:, None]
        margin = s - pos + alpha
        margin[np.arange(b), y] = 1.0
        if np.abs(margin).min() > 5e-3:
            return cma_inputs(z, y, ybar)
    raise AssertionError("could not build a kink-free instance")


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_cma_gradients_match_finite_differences(seed):
    z, y, ybar = _margin_safe_cma_instance(seed)
    _, gz, gybar = raw_cma(z, y, ybar)

    def f_z(flat):
        return raw_cma(flat.reshape(z.shape), y, ybar)[0]

    def f_ybar(flat):
        return raw_cma(z, y, flat.reshape(ybar.shape))[0]

    fd_z = fd_gradient(f_z, z.ravel().copy()).reshape(z.shape)
    fd_y = fd_gradient(f_ybar, ybar.ravel().copy()).reshape(ybar.shape)
    assert grad_error(gz, fd_z) < 1e-4
    assert grad_error(gybar, fd_y) < 1e-4


@pytest.mark.parametrize("seed", [10, 11, 12, 13, 14])
def test_sdp_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    m, d = 3, 4
    while True:
        a = rng.normal(size=(m, d))
        p = rng.normal(size=(m, d))
        n = rng.normal(size=(m, d))
        mats = (a, p, n)
        if min(np.linalg.norm(x, axis=1).min() for x in mats) < 0.5:
            continue
        ah = a / np.linalg.norm(a, axis=1, keepdims=True)
        nh = n / np.linalg.norm(n, axis=1, keepdims=True)
        if np.abs((ah * nh).sum(axis=1)).min() > 5e-3:  # away from the clamp kink
            break
    _, ga, gp, gn = raw_sdp(a, p, n)
    for target, analytic, idx in ((a, ga, 0), (p, gp, 1), (n, gn, 2)):
        def f(flat, idx=idx):
            parts = [a.copy(), p.copy(), n.copy()]
            parts[idx] = flat.reshape(m, d)
            return raw_sdp(*parts)[0]

        fd = fd_gradient(f, target.ravel().copy()).reshape(m, d)
        assert grad_error(analytic, fd) < 1e-4


# ---------------------------------------------------------------- sample_triplets

def test_sample_triplets_forced_choices():
    # with labels [0,0,1] every draw is forced, whatever the generator does
    rng = np.random.default_rng(123)
    out = sample_triplets(np.array([0, 0, 1]), rng)
    assert out.tolist() == [[0, 1, 2], [1, 0, 2]]


def test_sample_triplets_no_eligible_anchor():
    rng = np.random.default_rng(0)
    assert sample_triplets(np.array([0, 1, 2]), rng).shape == (0, 3)
    assert sample_triplets(np.array([0, 0, 0]), rng).shape == (0, 3)  # no other class


def test_sample_triplets_deterministic_per_seed():
    labels = np.array([0, 0, 1, 1, 0, 1])
    a = sample_triplets(labels, np.random.default_rng(42))
    b = sample_triplets(labels, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=12), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_sample_triplets_structure(raw_labels, seed):
    labels = np.asarray(raw_labels)
    out = sample_triplets(labels, np.random.default_rng(seed))
    n = labels.shape[0]
    eligible = [
        i
        for i in range(n)
        if ((labels == labels[i]).sum() > 1) and (labels != labels[i]).any()
    ]
    assert [a for a, _, _ in out.tolist()] == eligible
    for a, p, neg in out.tolist():
        assert p != a
        assert labels[p] == labels[a]
        assert labels[neg] != labels[a]


def _assert_sampler_matches_oracle(labels, seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_triplets(labels, fast)
    want = plain_sample_triplets(labels, slow)
    assert got.dtype == np.int64 and got.shape == (len(want), 3)
    np.testing.assert_array_equal(got, np.asarray(want, dtype=np.int64).reshape(-1, 3))
    # the generator is left exactly where the per-anchor draws leave it
    assert fast.integers(2**62) == slow.integers(2**62)


@pytest.mark.parametrize(
    "labels",
    [[], [4], [0, 0], [0, 1], [7, 7, 7, 7], [9, 0, 3, 9, 3, 0, 0], [0, 3, 9, 3, 9, 9],
     [5, -2, 5, 11, -2, 5], [1, 2, 3, 4, 1]],
)
def test_sample_triplets_matches_oracle_edge_cases(labels):
    for seed in range(20):
        _assert_sampler_matches_oracle(np.asarray(labels, dtype=np.int64), seed)


def test_sample_triplets_matches_oracle_on_random_batches():
    rng = np.random.default_rng(77)
    for _ in range(1200):
        n = int(rng.integers(1, 161))
        k = int(rng.integers(1, 26))
        values = np.sort(rng.choice(200, size=k, replace=False)) * int(rng.integers(1, 4))
        labels = values[rng.integers(k, size=n)]  # singletons arise at small n / large k
        _assert_sampler_matches_oracle(labels, int(rng.integers(2**32)))


# ---------------------------------------------------------------- batch checks
# loss_cma checks the arrays it reads; loss_total also checks the prompt rows

def test_batch_validate_accepts_unit_rows():
    loss_total(*_random_total_inputs(0), [(0, 1, 2)], 0.3, 1.0)


def test_batch_validate_rejects_non_unit_rows():
    z, y, ybar, _ = _random_total_inputs(0)
    with pytest.raises(InvariantError, match="unit-norm"):
        loss_cma(z * 2.0, y, ybar, 0.3, 1.0)


def test_batch_validate_rejects_empty_batch():
    # y_idx.min() of no rows would raise numpy's untyped ValueError
    with pytest.raises(InvariantError, match="batch has no rows"):
        loss_total(np.zeros((0, 3)), np.zeros(0, np.int64), np.eye(3), np.eye(3), [], 0.3, 1.0)


def test_batch_validate_rejects_bad_class_index():
    z, y, ybar, _ = _random_total_inputs(0)
    y = y.copy()
    y[0] = ybar.shape[0]
    with pytest.raises(InvariantError, match="out of range"):
        loss_cma(z, y, ybar, 0.3, 1.0)
    y[0] = -1
    with pytest.raises(InvariantError, match="out of range"):
        loss_cma(z, y, ybar, 0.3, 1.0)


def test_batch_validate_rejects_dimension_mismatch():
    z, y, ybar, t = _random_total_inputs(0)
    with pytest.raises(InvariantError, match="dimensions"):
        loss_cma(z, y, ybar[:, :-1], 0.3, 1.0)
    with pytest.raises(InvariantError, match="prompt shape"):
        loss_total(z, y, ybar, t[:, :-1], [], 0.3, 1.0)


def test_batch_validate_rejects_wrong_label_count():
    z, y, ybar, _ = _random_total_inputs(0)
    with pytest.raises(InvariantError, match="length"):
        loss_cma(z, y[:-1], ybar, 0.3, 1.0)
