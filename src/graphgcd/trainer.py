"""Training loop, loss trace, and GVLP checkpoint serialization.

Checkpoint layout (little-endian), all of it produced and consumed here:

    magic "GVLP"
    uint32 config byte length, then the config echo as UTF-8 key=value lines
    uint32 tensor count
    per tensor: uint16 name length | name UTF-8 | uint8 rank |
                uint32 dim per axis | float32 row-major payload

Tensors are written in a fixed order: the parameters as "param/<name>",
Adam moments as "adam.m/<name>" and "adam.v/<name>", each group in the
params dict's order, which init, load and resume hold to the order and
shapes of neural_core.param_shapes, then "meta/progress" holding
seed, epoch, and Adam step as exact 16-bit chunks (each chunk is an integer
below 2^16, representable in float32 without rounding). Nothing in
the file depends on wall-clock time, so identical runs produce identical
bytes. Per-epoch randomness is derived from (seed, 1, epoch), which is why
resuming from a checkpoint reproduces an uninterrupted run bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

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
    Params,
    adam_step,
    gcn_backward,
    gcn_forward,
    init_params,
    normalize_rows,
    normalize_rows_backward,
    param_shapes,
    projector_backward,
    projector_forward,
)
from .semantic_graph import SemanticGraph, build_knn_graph

GVLP_MAGIC = b"GVLP"
_GROUPS = ("param", "adam.m", "adam.v")  # file order; each holds one tensor per layout name


@dataclass
class EpochRecord:
    epoch: int
    l_cma: float
    l_sdp: float
    l_cs: float
    l_tot: float


@dataclass
class TrainState:
    params: Params
    adam: AdamState
    epoch: int
    config: RunConfig
    trace: list[EpochRecord] = field(default_factory=list)


def _frozen_bytes(graph: SemanticGraph, h0: np.ndarray) -> bytes:
    """The bytes training must leave unchanged. A copy, not a digest: these
    arrays are small, and hashlib would load OpenSSL (see graphgcd.cli.main)."""
    return b"".join(a.tobytes() for a in (graph.adjacency, graph.norm_adjacency, h0))


def train(
    labeled: EmbeddingSet,
    class_embeddings: EmbeddingSet,
    config: RunConfig,
    state: TrainState | None = None,
) -> TrainState:
    """Optimize GCN weights, projector, and prompts over the labeled set.

    The class graph is built once from class_embeddings and never mutated
    (checked against a copy of its bytes). Each epoch shuffles the labeled
    samples with a generator seeded by (seed, 1, epoch) and walks minibatches
    of config.batch_size; every step runs the full forward, the summed loss, the
    exact backward, and one Adam update, all in float32 (the propagation
    matrix is cast to it). Passing a loaded `state` resumes at state.epoch;
    the in-memory trace restarts at the resume point.
    """
    config = check_run_inputs(config, labeled, class_embeddings)
    known = class_embeddings.n
    labels = labeled.labels

    if state is None:
        params, adam = init_params(
            input_dim=labeled.dim,
            hidden_dim=config.hidden_dim,
            known_class_count=known,
            gcn_layers=config.gcn_layers,
            seed=np.random.SeedSequence([int(config.seed), 0]),
        )
        state = TrainState(params=params, adam=adam, epoch=0, config=config)
    else:
        # in order too: the checkpoint is written in the params' dict order
        got = [(name, t.shape) for name, t in state.params.items()]
        expect = list(param_shapes(labeled.dim, config.hidden_dim, known,
                                   config.gcn_layers).items())
        if got != expect:
            raise InvariantError(f"checkpoint tensors {got} do not match config layout {expect}")
        state = replace(state, config=config, trace=[])
    if state.epoch > config.epochs:
        raise InputError(
            f"checkpoint is at epoch {state.epoch}, beyond configured {config.epochs}"
        )

    graph = build_knn_graph(class_embeddings.data, config.knn_k)
    graph = SemanticGraph(graph.adjacency, graph.norm_adjacency.astype(np.float32))
    h0 = class_embeddings.data
    frozen = _frozen_bytes(graph, h0)

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
            t, prompt_tr = normalize_rows(state.params["prompt.t"])
            triplets = sample_triplets(labels[idx], rng)
            loss, grads, parts = loss_total(Batch(z=z, y_idx=labels[idx], ybar=ybar, t=t),
                                            triplets, config.margin_alpha,
                                            config.temperature, config.losses_as_printed)
            if not np.isfinite(loss):
                raise NumericError(f"loss diverged at epoch {epoch}, step {steps}")

            gcn_grads, _ = gcn_backward(gcn_tr, grads.ybar)
            proj_grads, _ = projector_backward(proj_tr, grads.z)
            g_prompt = normalize_rows_backward(prompt_tr, grads.t)
            adam_step(state.params, state.adam,
                      {**gcn_grads, **proj_grads, "prompt.t": g_prompt}, config.learn_rate)
            sums += (parts["l_cma"], parts["l_sdp"], parts["l_cs"], parts["l_tot"])
            steps += 1
        mean = sums / max(steps, 1)
        state.trace.append(EpochRecord(epoch, mean[0], mean[1], mean[2], mean[3]))
        state.epoch = epoch + 1

    if _frozen_bytes(graph, h0) != frozen:
        raise InvariantError("semantic graph or h0 mutated during training")
    return state


def write_loss_trace(trace: list[EpochRecord], path) -> None:
    rows = ((r.epoch, f"{r.l_cma:.6f}", f"{r.l_sdp:.6f}", f"{r.l_cs:.6f}", f"{r.l_tot:.6f}")
            for r in trace)
    write_csv(path, ("epoch", "l_cma", "l_sdp", "l_cs", "l_tot"), rows)


def _chunks16(value: int) -> list[int]:
    return [(int(value) >> (16 * i)) & 0xFFFF for i in range(4)]


def _unchunk16(chunks) -> int:
    return sum(int(c) << (16 * i) for i, c in enumerate(chunks))


def save_checkpoint(state: TrainState, path) -> None:
    """Write params, Adam state, and progress meta to a GVLP file."""
    groups = (state.params, state.adam.m, state.adam.v)
    tensors = [(f"{prefix}/{name}", np.asarray(group[name], dtype=np.float32))
               for prefix, group in zip(_GROUPS, groups) for name in state.params]
    progress = [c for v in (state.config.seed, state.epoch, state.adam.step)
                for c in _chunks16(v)]
    tensors.append(("meta/progress", np.asarray(progress, dtype=np.float32)))

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
    with ByteReader(path, GVLP_MAGIC) as r:
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

    def shape_of(name: str) -> tuple[int, ...]:
        if name not in tensors:
            raise FormatError(f"{path}: missing tensor {name!r}")
        return tensors[name].shape

    def pull(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if shape_of(name) != shape:
            raise FormatError(f"{path}: tensor {name!r} has shape {shape_of(name)}, "
                              f"but the config block implies {shape}")
        return tensors.pop(name)

    # the prompts hold what the config block does not: the known-class count
    # and the input dimension
    prompt_shape = shape_of("param/prompt.t")
    if len(prompt_shape) != 2:
        raise FormatError(f"{path}: tensor 'param/prompt.t' has shape {prompt_shape}, "
                          "not (classes, dim)")
    layout = param_shapes(prompt_shape[1], config.hidden_dim, prompt_shape[0], config.gcn_layers)
    params, m, v = ({name: pull(f"{prefix}/{name}", shape) for name, shape in layout.items()}
                    for prefix in _GROUPS)
    if shape_of("meta/progress") != (12,):
        raise FormatError(f"{path}: meta/progress must hold 12 values")
    progress = tensors.pop("meta/progress")
    if ((progress % 1 != 0) | (progress < 0) | (progress > 0xFFFF)).any():
        raise FormatError(f"{path}: meta/progress values must be integers in [0, 65535]")
    if tensors:
        raise FormatError(f"{path}: unexpected tensors {sorted(tensors)}")

    seed = _unchunk16(progress[0:4])
    if seed != config.seed:
        raise FormatError(f"{path}: progress seed {seed} disagrees with config {config.seed}")
    return TrainState(params=params, adam=AdamState(m, v, step=_unchunk16(progress[8:12])),
                      epoch=_unchunk16(progress[4:8]), config=config)
