"""Trainable tensors, forward passes, exact analytic backprop, Adam updates.

All math runs in float64 regardless of storage dtype; tensors are stored
float32 during training and updated in place only by adam_step.
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


def init_params(
    input_dim: int,
    hidden_dim: int,
    known_class_count: int,
    gcn_layers: int,
    seed,
) -> ModelParams:
    """Seeded glorot-uniform init; biases start at zero.

    Output dimension equals input_dim (projector and GCN project back to the
    embedding dimension of the input files).
    """
    rng = np.random.default_rng(seed)

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)

    gcn_weights = [glorot(a, b) for a, b in gcn_layer_dims(input_dim, hidden_dim, gcn_layers)]
    proj_w1 = glorot(input_dim, hidden_dim)
    proj_b1 = np.zeros(hidden_dim, dtype=np.float32)
    proj_w2 = glorot(hidden_dim, input_dim)
    proj_b2 = np.zeros(input_dim, dtype=np.float32)
    prompt_vectors = glorot(known_class_count, input_dim)

    params = ModelParams(gcn_weights, proj_w1, proj_b1, proj_w2, proj_b2, prompt_vectors)
    params.adam = AdamState(
        m={k: np.zeros_like(t) for k, t in params.named_tensors().items()},
        v={k: np.zeros_like(t) for k, t in params.named_tensors().items()},
        step=0,
    )
    return params


@dataclass
class NormTrace:
    """Cache for row-wise L2 normalization: row norms and unit rows."""

    norms: np.ndarray
    unit: np.ndarray


def normalize_rows(x: np.ndarray) -> tuple[np.ndarray, NormTrace]:
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if (norms < _MIN_ROW_NORM).any():
        raise NumericError("zero-norm row cannot be L2-normalized")
    unit = x / norms
    return unit, NormTrace(norms=norms, unit=unit)


def normalize_rows_backward(trace: NormTrace, grad_unit: np.ndarray) -> np.ndarray:
    """Jacobian of row normalization: (g - (g.u)u) / ||row||."""
    g = np.asarray(grad_unit, dtype=np.float64)
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
    weights: list[np.ndarray]
    norm: NormTrace


def gcn_forward(
    graph: SemanticGraph, h0: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, GcnTrace]:
    """Message-passing layers with ReLU on all but the last, then row L2-norm.

    Zero layers returns h0 row-normalized.
    """
    h = np.asarray(h0, dtype=np.float64)
    a = graph.norm_adjacency
    if h.ndim != 2 or h.shape[0] != a.shape[0]:
        raise InvariantError(
            f"h0 shape {h.shape} does not match graph with {a.shape[0]} nodes"
        )
    layers = len(params.gcn_weights)
    weights, messages, pres = [], [], []
    for l, w in enumerate(params.gcn_weights):
        w = np.asarray(w, dtype=np.float64)
        weights.append(w)
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
        weights=weights,
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
    """Caches from projector_forward, consumed by projector_backward."""

    x: np.ndarray
    pre1: np.ndarray
    act1: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    norm: NormTrace


def projector_forward(
    x: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, ProjTrace]:
    """Two-layer projection head: row L2-norm of W2.relu(W1 x + b1) + b2."""
    x = np.asarray(x, dtype=np.float64)
    w1 = np.asarray(params.proj_w1, dtype=np.float64)
    b1 = np.asarray(params.proj_b1, dtype=np.float64)
    w2 = np.asarray(params.proj_w2, dtype=np.float64)
    b2 = np.asarray(params.proj_b2, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w1.shape[0]:
        raise InvariantError(f"input shape {x.shape} does not match W1 {w1.shape}")
    pre1 = x @ w1 + b1
    act1 = np.maximum(pre1, 0.0)
    pre2 = act1 @ w2 + b2
    z, norm = normalize_rows(pre2)
    return z, ProjTrace(x=x, pre1=pre1, act1=act1, w1=w1, w2=w2, norm=norm)


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
    g1 = (g2 @ trace.w2.T) * (trace.pre1 > 0)
    gw1 = trace.x.T @ g1
    gb1 = g1.sum(axis=0)
    grad_x = g1 @ trace.w1.T
    return ProjGrads(w1=gw1, b1=gb1, w2=gw2, b2=gb2), grad_x


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], lr: float) -> ModelParams:
    """One Adam update (beta1=0.9, beta2=0.999, eps=1e-8, bias correction).

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
        # float64 working copies updated in place, with the operand order of
        # m = B1*m + (1-B1)*g, v = B2*v + (1-B2)*g*g and
        # update = lr*(m/bias1) / (sqrt(v/bias2) + eps)
        g = np.asarray(grads[name], dtype=np.float64)
        m = state.m[name].astype(np.float64)
        v = state.v[name].astype(np.float64)
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
        new = tensor.astype(np.float64)
        new -= buf
        new = new.astype(tensor.dtype)
        if not np.isfinite(new).all():
            raise InvariantError(f"tensor {name} became non-finite after update")
        tensor[...] = new
        state.m[name][...] = m
        state.v[name][...] = v
    return params
