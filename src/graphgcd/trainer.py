"""Training loop and GVLP checkpoint serialization.

The loop reads the class graph as its propagation matrix alone, hands the
losses the arrays they read, and unpacks their three gradients directly.

Checkpoint layout (little-endian), all of it produced and consumed here:

    magic "GVLP"
    uint32 config byte length, then the config echo as UTF-8 key=value lines
    uint32 tensor count
    per tensor: uint16 name length | name UTF-8 | uint8 rank |
                uint32 dim per axis | float32 row-major payload

Tensors are written, and must be read, in this order: parameters as "param/<name>",
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
from itertools import zip_longest

import numpy as np

from .embed_io import (
    ByteReader,
    EmbeddingSet,
    RunConfig,
    check_run_inputs,
    format_config,
    parse_config,
)
from .errors import FormatError, InputError, InvariantError, NonFiniteError, NumericError
from .losses import loss_total, sample_triplets
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
from .semantic_graph import build_knn_graph

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


def _frozen_bytes(a: np.ndarray, h0: np.ndarray) -> bytes:
    """Everything the GCN reads, which training must leave unchanged. A copy, not a
    digest: these arrays are small, and hashlib would load OpenSSL (see graphgcd.cli.main)."""
    return a.tobytes() + h0.tobytes()


def train(
    labeled: EmbeddingSet,
    class_embeddings: EmbeddingSet,
    config: RunConfig,
    state: TrainState | None = None,
) -> TrainState:
    """Optimize GCN weights, projector, and prompts over the labeled set.

    The class graph's propagation matrix is built once from class_embeddings,
    cast to float32, and, like h0, never mutated (checked against a copy of
    their bytes). Each epoch shuffles the labeled samples with a generator
    seeded by (seed, 1, epoch) and walks minibatches of config.batch_size;
    every step runs the full forward, the summed loss, the exact backward, and
    one Adam update, all in float32. Passing a loaded `state` resumes at
    state.epoch; the in-memory trace restarts at the resume point.
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

    a = build_knn_graph(class_embeddings.data, config.knn_k).astype(np.float32)
    h0 = class_embeddings.data
    frozen = _frozen_bytes(a, h0)

    n = labeled.n
    x = labeled.data
    for epoch in range(state.epoch, config.epochs):
        rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), 1, epoch]))
        order = rng.permutation(n)
        sums = np.zeros(4)
        steps = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            ybar, gcn_tr = gcn_forward(a, h0, state.params)
            z, proj_tr = projector_forward(x[idx], state.params)
            t, prompt_tr = normalize_rows(state.params["prompt.t"])
            triplets = sample_triplets(labels[idx], rng)
            loss, (g_z, g_ybar, g_t), parts = loss_total(
                z, labels[idx], ybar, t, triplets, config.margin_alpha,
                config.temperature, config.losses_as_printed)
            if not np.isfinite(loss):
                raise NumericError(f"loss diverged at epoch {epoch}, step {steps}")

            gcn_grads, _ = gcn_backward(gcn_tr, g_ybar)
            proj_grads, _ = projector_backward(proj_tr, g_z)
            g_prompt = normalize_rows_backward(prompt_tr, g_t)
            adam_step(state.params, state.adam,
                      {**gcn_grads, **proj_grads, "prompt.t": g_prompt}, config.learn_rate)
            sums += (parts["l_cma"], parts["l_sdp"], parts["l_cs"], parts["l_tot"])
            steps += 1
        mean = sums / max(steps, 1)
        state.trace.append(EpochRecord(epoch, mean[0], mean[1], mean[2], mean[3]))
        state.epoch = epoch + 1

    if _frozen_bytes(a, h0) != frozen:
        raise InvariantError("semantic graph or h0 mutated during training")
    return state


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
    """Read a GVLP file back into a TrainState (trace starts empty). Its records must be
    the layout's names and shapes in save order; the first record that differs is named."""
    with ByteReader(path, GVLP_MAGIC) as r:
        (config_len,) = r.unpack("<I")
        config = parse_config(r.text(config_len))
        config.validate()
        (count,) = r.unpack("<I")
        records: list[tuple[str, np.ndarray]] = []
        for _ in range(count):
            (name_len,) = r.unpack("<H")
            name = r.text(name_len)
            (rank,) = r.unpack("<B")
            if rank > 4:
                raise FormatError(f"{path}: tensor {name!r} has implausible rank {rank}")
            arr = r.array("<f4", r.unpack(f"<{rank}I"))
            if not np.isfinite(arr).all():
                raise NonFiniteError(f"{path}: tensor {name!r} contains non-finite values")
            records.append((name, arr))
        r.end()

    found = [(name, arr.shape) for name, arr in records]
    # the layout is what the config block implies with the prompts' shape, which holds
    # what the config block does not: the known-class count and the input dimension
    prompt_shape = dict(found).get("param/prompt.t")
    if prompt_shape is None or len(prompt_shape) != 2:  # None: the file has no prompts
        raise FormatError(f"{path}: tensor 'param/prompt.t' has shape {prompt_shape}, "
                          "not (classes, dim)")
    layout = param_shapes(prompt_shape[1], config.hidden_dim, prompt_shape[0], config.gcn_layers)
    expect = ([(f"{group}/{name}", shape) for group in _GROUPS for name, shape in layout.items()]
              + [("meta/progress", (12,))])
    if found != expect:
        i = next(i for i, pair in enumerate(zip_longest(found, expect)) if pair[0] != pair[1])
        held, want = (f"{x[i][0]!r} of shape {x[i][1]}" if i < len(x) else end
                      for x, end in ((found, "the end of the file"), (expect, "nothing")))
        raise FormatError(f"{path}: record {i} is {held}, but the layout puts {want} there")
    arrays = iter(arr for _, arr in records)
    params, m, v = ({name: next(arrays) for name in layout} for _ in _GROUPS)
    progress = next(arrays)
    if ((progress % 1 != 0) | (progress < 0) | (progress > 0xFFFF)).any():
        raise FormatError(f"{path}: meta/progress values must be integers in [0, 65535]")

    seed = _unchunk16(progress[0:4])
    if seed != config.seed:
        raise FormatError(f"{path}: progress seed {seed} disagrees with config {config.seed}")
    return TrainState(params=params, adam=AdamState(m, v, step=_unchunk16(progress[8:12])),
                      epoch=_unchunk16(progress[4:8]), config=config)
