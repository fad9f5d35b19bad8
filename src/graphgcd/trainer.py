"""Training loop, loss trace, and GVLP checkpoint serialization.

Checkpoint layout (little-endian), all of it produced and consumed here:

    magic "GVLP"
    uint32 config byte length, then the config echo as UTF-8 key=value lines
    uint32 tensor count
    per tensor: uint16 name length | name UTF-8 | uint8 rank |
                uint32 dim per axis | float32 row-major payload

Tensors are written in a fixed order: trainable tensors as "param/<name>",
Adam moments as "adam.m/<name>" and "adam.v/<name>", then "meta/progress"
holding seed, epoch, and Adam step as exact 16-bit chunks (each chunk is an
integer below 2^16, representable in float32 without rounding). Nothing in
the file depends on wall-clock time, so identical runs produce identical
bytes. Per-epoch randomness is derived from (seed, 1, epoch), which is why
resuming from a checkpoint reproduces an uninterrupted run bit for bit.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .embed_io import (
    ByteReader,
    EmbeddingSet,
    RunConfig,
    check_run_inputs,
    format_config,
    parse_config,
    write_csv,
)
from .errors import FormatError, InputError, InvariantError, NonFiniteError, NumericError
from .losses import Batch, loss_total, sample_triplets
from .neural_core import (
    AdamState,
    ModelParams,
    adam_step,
    gcn_backward,
    gcn_forward,
    gcn_layer_dims,
    init_params,
    normalize_rows,
    normalize_rows_backward,
    projector_backward,
    projector_forward,
)
from .semantic_graph import SemanticGraph, build_knn_graph

GVLP_MAGIC = b"GVLP"


@dataclass
class EpochRecord:
    epoch: int
    l_cma: float
    l_sdp: float
    l_cs: float
    l_tot: float


@dataclass
class TrainState:
    params: ModelParams
    epoch: int
    config: RunConfig
    trace: list[EpochRecord] = field(default_factory=list)


def _digest(graph: SemanticGraph, h0: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(graph.adjacency.tobytes())
    h.update(graph.norm_adjacency.tobytes())
    h.update(np.ascontiguousarray(h0).tobytes())
    return h.hexdigest()


def train(
    labeled: EmbeddingSet,
    class_embeddings: EmbeddingSet,
    config: RunConfig,
    state: TrainState | None = None,
    as_printed: bool = False,
) -> TrainState:
    """Optimize GCN weights, projector, and prompts over the labeled set.

    The class graph is built once from class_embeddings and never mutated
    (checked by digest). Each epoch shuffles the labeled samples with a
    generator seeded by (seed, 1, epoch) and walks minibatches of
    config.batch_size; every step runs the full forward, the summed loss, the
    exact backward, and one Adam update. Passing a loaded `state` resumes at
    state.epoch; the in-memory trace restarts at the resume point.
    """
    config = check_run_inputs(config, labeled, class_embeddings)
    known = class_embeddings.n
    labels = labeled.labels

    if state is None:
        params = init_params(
            input_dim=labeled.dim,
            hidden_dim=config.hidden_dim,
            known_class_count=known,
            gcn_layers=config.gcn_layers,
            seed=np.random.SeedSequence([int(config.seed), 0]),
        )
        state = TrainState(params=params, epoch=0, config=config)
    else:
        expect = gcn_layer_dims(labeled.dim, config.hidden_dim, config.gcn_layers)
        got = [w.shape for w in state.params.gcn_weights]
        if got != [tuple(s) for s in expect]:
            raise InvariantError(f"checkpoint GCN shapes {got} do not match config {expect}")
        if state.params.prompt_vectors.shape != (known, labeled.dim):
            raise InvariantError(
                f"checkpoint prompts {state.params.prompt_vectors.shape} do not match "
                f"({known}, {labeled.dim})"
            )
        if state.params.proj_w1.shape != (labeled.dim, config.hidden_dim):
            raise InvariantError("checkpoint projector does not match config dimensions")
        state = TrainState(params=state.params, epoch=state.epoch, config=config)
    if state.epoch > config.epochs:
        raise InputError(
            f"checkpoint is at epoch {state.epoch}, beyond configured {config.epochs}"
        )

    graph = build_knn_graph(class_embeddings.data, config.knn_k)
    h0 = np.asarray(class_embeddings.data, dtype=np.float64)
    frozen = _digest(graph, h0)

    n = labeled.n
    x = labeled.data
    for epoch in range(state.epoch, config.epochs):
        rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), 1, epoch]))
        order = rng.permutation(n)
        sums = np.zeros(4)
        steps = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            ybar, gcn_tr = gcn_forward(graph, h0, state.params)
            z, proj_tr = projector_forward(x[idx], state.params)
            t, prompt_tr = normalize_rows(state.params.prompt_vectors)
            batch = Batch(z=z, y_idx=labels[idx], ybar=ybar, t=t)
            batch.validate()
            triplets = sample_triplets(labels[idx], rng)
            loss, grads, parts = loss_total(
                batch, triplets, config.margin_alpha, config.temperature, as_printed
            )
            if not np.isfinite(loss):
                raise NumericError(f"loss diverged at epoch {epoch}, step {steps}")

            gcn_w_grads, _ = gcn_backward(gcn_tr, grads.ybar)
            proj_grads, _ = projector_backward(proj_tr, grads.z)
            g_prompt = normalize_rows_backward(prompt_tr, grads.t)
            grad_map = {f"gcn.w{i}": g for i, g in enumerate(gcn_w_grads)}
            grad_map.update({f"proj.{k}": g for k, g in vars(proj_grads).items()})
            grad_map["prompt.t"] = g_prompt
            adam_step(state.params, grad_map, config.learn_rate)
            sums += (parts["l_cma"], parts["l_sdp"], parts["l_cs"], parts["l_tot"])
            steps += 1
        mean = sums / max(steps, 1)
        state.trace.append(EpochRecord(epoch, mean[0], mean[1], mean[2], mean[3]))
        state.epoch = epoch + 1

    if _digest(graph, h0) != frozen:
        raise InvariantError("semantic graph or h0 mutated during training")
    return state


def write_loss_trace(trace: list[EpochRecord], path) -> None:
    rows = ((r.epoch, f"{r.l_cma:.6f}", f"{r.l_sdp:.6f}", f"{r.l_cs:.6f}", f"{r.l_tot:.6f}")
            for r in trace)
    write_csv(path, ("epoch", "l_cma", "l_sdp", "l_cs", "l_tot"), rows)


def _chunks16(value: int) -> list[int]:
    return [(int(value) >> (16 * i)) & 0xFFFF for i in range(4)]


def _unchunk16(chunks) -> int:
    return sum(int(round(float(c))) << (16 * i) for i, c in enumerate(chunks))


def _progress_tensor(state: TrainState) -> np.ndarray:
    vals = (
        _chunks16(state.config.seed)
        + _chunks16(state.epoch)
        + _chunks16(state.params.adam.step)
    )
    return np.asarray(vals, dtype=np.float32)


def save_checkpoint(state: TrainState, path) -> None:
    """Write params, Adam state, and progress meta to a GVLP file."""
    tensors: list[tuple[str, np.ndarray]] = []
    named = state.params.named_tensors()
    for name, t in named.items():
        tensors.append((f"param/{name}", np.asarray(t, dtype=np.float32)))
    for name in named:
        tensors.append((f"adam.m/{name}", np.asarray(state.params.adam.m[name], dtype=np.float32)))
    for name in named:
        tensors.append((f"adam.v/{name}", np.asarray(state.params.adam.v[name], dtype=np.float32)))
    tensors.append(("meta/progress", _progress_tensor(state)))

    config_bytes = format_config(state.config).encode("utf-8")
    with open(path, "wb") as f:
        f.write(GVLP_MAGIC)
        f.write(struct.pack("<I", len(config_bytes)))
        f.write(config_bytes)
        f.write(struct.pack("<I", len(tensors)))
        for name, t in tensors:
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", t.ndim))
            for dim in t.shape:
                f.write(struct.pack("<I", dim))
            f.write(np.ascontiguousarray(t, dtype="<f4").tobytes())


def load_checkpoint(path) -> TrainState:
    """Read a GVLP file back into a TrainState (trace starts empty)."""
    r = ByteReader(path, GVLP_MAGIC)
    (config_len,) = r.unpack("<I")
    config = parse_config(r.text(config_len))
    config.validate()
    (count,) = r.unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.text(name_len)
        (rank,) = r.unpack("<B")
        if rank > 4:
            raise FormatError(f"{path}: tensor {name!r} has implausible rank {rank}")
        arr = r.array("<f4", r.unpack(f"<{rank}I"))
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{path}: tensor {name!r} contains non-finite values")
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor {name!r}")
        tensors[name] = arr
    r.end()

    def pull(name: str) -> np.ndarray:
        if name not in tensors:
            raise FormatError(f"{path}: missing tensor {name!r}")
        return tensors.pop(name)

    gcn_names = sorted(
        (n for n in tensors if n.startswith("param/gcn.w")),
        key=lambda n: int(n.split("param/gcn.w")[1]),
    )
    gcn_weights = [pull(n) for n in gcn_names]
    params = ModelParams(
        gcn_weights=gcn_weights,
        proj_w1=pull("param/proj.w1"),
        proj_b1=pull("param/proj.b1"),
        proj_w2=pull("param/proj.w2"),
        proj_b2=pull("param/proj.b2"),
        prompt_vectors=pull("param/prompt.t"),
    )
    names = list(params.named_tensors())
    adam = AdamState(
        m={n: pull(f"adam.m/{n}") for n in names},
        v={n: pull(f"adam.v/{n}") for n in names},
    )
    progress = pull("meta/progress")
    if progress.shape != (12,):
        raise FormatError(f"{path}: meta/progress must hold 12 values")
    if tensors:
        raise FormatError(f"{path}: unexpected tensors {sorted(tensors)}")

    seed = _unchunk16(progress[0:4])
    epoch = _unchunk16(progress[4:8])
    adam.step = _unchunk16(progress[8:12])
    if seed != config.seed:
        raise FormatError(f"{path}: progress seed {seed} disagrees with config {config.seed}")
    params.adam = adam
    return TrainState(params=params, epoch=epoch, config=config)
