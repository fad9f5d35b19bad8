"""Trainable tensors, forward passes, exact analytic backprop, Adam updates.

Every function computes in the dtype numpy promotes its operands to: all
float32 in training, so its step runs in float32; any float64 operand, as in
the gradient checks and the clustering features, gives float64. Parameters
are updated in place only by adam_step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, NumericError
from .semantic_graph import SemanticGraph

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_MIN_ROW_NORM = 1e-30


@dataclass
class AdamState:
    """First/second moments per named tensor plus the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


@dataclass
class ModelParams:
    """Every trainable tensor: GCN weights, projector weights, prompt vectors."""

    gcn_weights: list[np.ndarray]
    proj_w1: np.ndarray
    proj_b1: np.ndarray
    proj_w2: np.ndarray
    proj_b2: np.ndarray
    prompt_vectors: np.ndarray
    adam: AdamState = field(default_factory=lambda: AdamState({}, {}))

    def named_tensors(self) -> dict[str, np.ndarray]:
        out = {f"gcn.w{i}": w for i, w in enumerate(self.gcn_weights)}
        out["proj.w1"] = self.proj_w1
        out["proj.b1"] = self.proj_b1
        out["proj.w2"] = self.proj_w2
        out["proj.b2"] = self.proj_b2
        out["prompt.t"] = self.prompt_vectors
        return out

    @classmethod
    def from_named(cls, named: dict[str, np.ndarray]) -> "ModelParams":
        """Inverse of named_tensors(); the Adam state starts empty."""
        gcn = [named[f"gcn.w{i}"] for i in range(sum(n.startswith("gcn.w") for n in named))]
        return cls(gcn, named["proj.w1"], named["proj.b1"], named["proj.w2"],
                   named["proj.b2"], named["prompt.t"])


def gcn_layer_dims(input_dim: int, hidden_dim: int, layers: int) -> list[tuple[int, int]]:
    """Per-layer (fan_in, fan_out) chain: input_dim -> hidden... -> input_dim."""
    if layers == 0:
        return []
    if layers == 1:
        return [(input_dim, input_dim)]
    dims = [(input_dim, hidden_dim)]
    dims += [(hidden_dim, hidden_dim)] * (layers - 2)
    dims.append((hidden_dim, input_dim))
    return dims


def param_shapes(
    input_dim: int, hidden_dim: int, known_class_count: int, gcn_layers: int
) -> dict[str, tuple[int, ...]]:
    """The model's layout: every trainable tensor's name and shape, in
    named_tensors() order. Init, resume and the checkpoint loader follow it."""
    gcn = gcn_layer_dims(input_dim, hidden_dim, gcn_layers)
    return {**{f"gcn.w{i}": dims for i, dims in enumerate(gcn)},
            "proj.w1": (input_dim, hidden_dim), "proj.b1": (hidden_dim,),
            "proj.w2": (hidden_dim, input_dim), "proj.b2": (input_dim,),
            "prompt.t": (known_class_count, input_dim)}


def init_params(
    input_dim: int,
    hidden_dim: int,
    known_class_count: int,
    gcn_layers: int,
    seed,
) -> ModelParams:
    """Seeded glorot-uniform init of the matrices, in layout order; biases start at zero.

    Output dimension equals input_dim (projector and GCN project back to the
    embedding dimension of the input files).
    """
    rng = np.random.default_rng(seed)
    named = {}
    for name, shape in param_shapes(input_dim, hidden_dim, known_class_count, gcn_layers).items():
        if len(shape) == 1:
            named[name] = np.zeros(shape, dtype=np.float32)
        else:
            limit = np.sqrt(6.0 / sum(shape))
            named[name] = rng.uniform(-limit, limit, size=shape).astype(np.float32)
    params = ModelParams.from_named(named)
    params.adam = AdamState({k: np.zeros_like(t) for k, t in named.items()},
                            {k: np.zeros_like(t) for k, t in named.items()})
    return params


@dataclass
class NormTrace:
    """Cache for row-wise L2 normalization: row norms and unit rows."""

    norms: np.ndarray
    unit: np.ndarray


def normalize_rows(
    x: np.ndarray, out: np.ndarray | None = None, squares: np.ndarray | None = None
) -> tuple[np.ndarray, NormTrace]:
    """Unit rows of x, and the trace their backward reads.

    `out` receives the unit rows and may be x itself; `squares`, an x-shaped
    buffer, receives x * x. Either defaults to a new array. The norms are
    sqrt(add.reduce(x * x, axis=1)), which is how np.linalg.norm computes a
    row norm, so buffers or not, the bits are the same. A zero or non-finite
    norm (x * x overflows float32 at |x| above about 1.8e19) is a NumericError.
    """
    x = np.asarray(x)
    squares = np.multiply(x, x, out=squares)
    norms = np.sqrt(np.add.reduce(squares, axis=1, keepdims=True))
    if (norms < _MIN_ROW_NORM).any():
        raise NumericError("zero-norm row cannot be L2-normalized")
    if not np.isfinite(norms).all():
        raise NumericError(f"non-finite row norm: NaN, inf or {squares.dtype} overflow")
    unit = np.divide(x, norms, out=out)
    return unit, NormTrace(norms=norms, unit=unit)


def normalize_rows_backward(trace: NormTrace, grad_unit: np.ndarray) -> np.ndarray:
    """Jacobian of row normalization: (g - (g.u)u) / ||row||."""
    g = np.asarray(grad_unit)
    if g.shape != trace.unit.shape:
        raise InvariantError(
            f"grad shape {g.shape} does not match trace shape {trace.unit.shape}"
        )
    radial = (g * trace.unit).sum(axis=1, keepdims=True)
    return (g - radial * trace.unit) / trace.norms


@dataclass
class GcnTrace:
    """Per-layer caches from gcn_forward, consumed by gcn_backward."""

    norm_adjacency: np.ndarray
    messages: list[np.ndarray]  # D^-1 A H^(l)
    pres: list[np.ndarray]      # (D^-1 A H^(l)) W^(l)
    weights: list[np.ndarray]   # the parameters, not copies: backward precedes adam_step
    norm: NormTrace


def gcn_forward(
    graph: SemanticGraph, h0: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, GcnTrace]:
    """Message-passing layers with ReLU on all but the last, then row L2-norm.

    Zero layers returns h0 row-normalized.
    """
    h = np.asarray(h0)
    a = graph.norm_adjacency
    if h.ndim != 2 or h.shape[0] != a.shape[0]:
        raise InvariantError(
            f"h0 shape {h.shape} does not match graph with {a.shape[0]} nodes"
        )
    layers = len(params.gcn_weights)
    messages, pres = [], []
    for l, w in enumerate(params.gcn_weights):
        if h.shape[1] != w.shape[0]:
            raise InvariantError(
                f"layer {l}: input dim {h.shape[1]} does not match weight {w.shape}"
            )
        msg = a @ h
        pre = msg @ w
        messages.append(msg)
        pres.append(pre)
        h = np.maximum(pre, 0.0) if l < layers - 1 else pre
    ybar, norm = normalize_rows(h)
    trace = GcnTrace(
        norm_adjacency=a,
        messages=messages,
        pres=pres,
        weights=list(params.gcn_weights),
        norm=norm,
    )
    return ybar, trace


def gcn_backward(
    trace: GcnTrace, grad_ybar: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact gradients of gcn_forward w.r.t. every W^(l) and h0."""
    layers = len(trace.weights)
    g = normalize_rows_backward(trace.norm, grad_ybar)
    grad_weights: list[np.ndarray] = [None] * layers  # type: ignore[list-item]
    for l in range(layers - 1, -1, -1):
        g_pre = g if l == layers - 1 else g * (trace.pres[l] > 0)
        grad_weights[l] = trace.messages[l].T @ g_pre
        g = trace.norm_adjacency.T @ (g_pre @ trace.weights[l].T)
    return grad_weights, g


@dataclass
class ProjTrace:
    """What projector_backward reads; `x` and the weights are the caller's arrays."""

    x: np.ndarray
    act1: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    norm: NormTrace


def projector_forward(
    x: np.ndarray, params: ModelParams, out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, ProjTrace | None]:
    """Two-layer projection head: row L2-norm of W2.relu(W1 x + b1) + b2.

    One n x d array holds the rows of x, cast exactly, and then the output
    rows, normalized in place: `out` if given, else a new array of the dtype
    x and the weights promote to. `scratch`, if given, is a buffer of out's
    dtype and at least n * max(hidden, d) items that holds the hidden layer
    and then the squares of the output rows; the hidden layer is then lost,
    so no trace is returned. With both, nothing that grows with n is allocated.
    """
    x = np.asarray(x)
    w1, b1, w2, b2 = params.proj_w1, params.proj_b1, params.proj_w2, params.proj_b2
    if x.ndim != 2 or x.shape[1] != w1.shape[0]:
        raise InvariantError(f"input shape {x.shape} does not match W1 {w1.shape}")
    n, hidden = x.shape[0], w1.shape[1]
    rows = np.empty(x.shape, np.result_type(x, w1, b1, w2, b2)) if out is None else out
    np.copyto(rows, x)
    act1 = np.matmul(rows, w1, out=None if scratch is None else
                     scratch[:n * hidden].reshape(n, hidden))
    act1 += b1
    np.maximum(act1, 0.0, out=act1)
    np.matmul(act1, w2, out=rows)
    rows += b2
    squares = None if scratch is None else scratch[:rows.size].reshape(rows.shape)
    z, norm = normalize_rows(rows, out=rows, squares=squares)
    if scratch is not None:
        return z, None
    # the trace keeps x itself: backward's matmul promotes it as the copy above did
    return z, ProjTrace(x=x, act1=act1, w1=w1, w2=w2, norm=norm)


@dataclass
class ProjGrads:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def projector_backward(
    trace: ProjTrace, grad_z: np.ndarray
) -> tuple[ProjGrads, np.ndarray]:
    """Exact gradients of projector_forward w.r.t. weights and input rows."""
    g2 = normalize_rows_backward(trace.norm, grad_z)
    gw2 = trace.act1.T @ g2
    gb2 = g2.sum(axis=0)
    # relu output is positive exactly where its input is (NaN fails both)
    g1 = (g2 @ trace.w2.T) * (trace.act1 > 0)
    gw1 = trace.x.T @ g1
    gb1 = g1.sum(axis=0)
    grad_x = g1 @ trace.w1.T
    return ProjGrads(w1=gw1, b1=gb1, w2=gw2, b2=gb2), grad_x


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], lr: float) -> ModelParams:
    """One Adam update (beta1=0.9, beta2=0.999, eps=1e-8, bias correction).

    Tensors and moments are updated in place and keep their dtype.
    Raises NumericError on any non-finite gradient without touching state;
    asserts every tensor finite after the update.
    """
    tensors = params.named_tensors()
    if set(grads) != set(tensors):
        missing = set(tensors) ^ set(grads)
        raise InvariantError(f"gradient keys do not match tensors: {sorted(missing)}")
    for name, g in grads.items():
        g = np.asarray(g)
        if g.shape != tensors[name].shape:
            raise InvariantError(
                f"gradient {name} shape {g.shape} != tensor shape {tensors[name].shape}"
            )
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for {name}; state untouched")

    state = params.adam
    state.step += 1
    t = state.step
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    for name, tensor in tensors.items():
        # the moments updated in place, with the operand order of
        # m = B1*m + (1-B1)*g, v = B2*v + (1-B2)*g*g and
        # update = lr*(m/bias1) / (sqrt(v/bias2) + eps)
        g = grads[name]
        m, v = state.m[name], state.v[name]
        buf = np.multiply(1.0 - ADAM_BETA1, g)
        m *= ADAM_BETA1
        m += buf
        np.multiply(1.0 - ADAM_BETA2, g, out=buf)
        buf *= g
        v *= ADAM_BETA2
        v += buf
        np.divide(m, bias1, out=buf)
        buf *= lr
        denom = np.divide(v, bias2)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        buf /= denom
        new = np.subtract(tensor, buf, out=buf).astype(tensor.dtype, copy=False)
        if not np.isfinite(new).all():
            raise InvariantError(f"tensor {name} became non-finite after update")
        tensor[...] = new
    return params
