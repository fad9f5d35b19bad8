"""Tests for the training loop and GVLP checkpoint serialization."""

import dataclasses
import struct

import numpy as np
import pytest

from graphgcd.embed_io import EmbeddingSet, RunConfig, generate_synthetic
from graphgcd.errors import (
    BadMagicError,
    FormatError,
    InputError,
    InvariantError,
    NonFiniteError,
    NumericError,
    TruncatedError,
)
from graphgcd.neural_core import init_params, param_shapes
from graphgcd.trainer import (
    EpochRecord,
    TrainState,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_trace,
)


@pytest.fixture(scope="module")
def tiny():
    labeled, _, class_emb = generate_synthetic(5, 5, 6, 8, 6.0, seed=1)
    config = RunConfig(knn_k=3, gcn_layers=2, batch_size=16, epochs=4, seed=3, hidden_dim=8)
    return labeled, class_emb, config


def tensors_equal(a, b):
    """Two states' params and Adam moments: same names in the same order, same bytes."""
    for kind, ga, gb in (("param", a.params, b.params), ("m", a.adam.m, b.adam.m),
                         ("v", a.adam.v, b.adam.v)):
        assert list(ga) == list(gb), kind
        for name in ga:
            assert np.asarray(ga[name]).tobytes() == np.asarray(gb[name]).tobytes(), f"{kind}/{name}"
    assert a.adam.step == b.adam.step


# ---------------------------------------------------------------- training loop

def test_zero_epochs_returns_fresh_init(tiny):
    labeled, class_emb, config = tiny
    config = dataclasses.replace(config, epochs=0)
    state = train(labeled, class_emb, config)
    params, adam = init_params(
        input_dim=labeled.dim,
        hidden_dim=8,
        known_class_count=class_emb.n,
        gcn_layers=config.gcn_layers,
        seed=np.random.SeedSequence([config.seed, 0]),
    )
    tensors_equal(state, TrainState(params=params, adam=adam, epoch=0, config=config))
    assert state.epoch == 0
    assert state.trace == []


def test_training_is_deterministic(tiny):
    labeled, class_emb, config = tiny
    a = train(labeled, class_emb, config)
    b = train(labeled, class_emb, config)
    tensors_equal(a, b)
    assert a.trace == b.trace
    assert a.epoch == b.epoch == config.epochs


def test_trace_has_one_row_per_epoch(tiny):
    labeled, class_emb, config = tiny
    state = train(labeled, class_emb, config)
    assert [r.epoch for r in state.trace] == list(range(config.epochs))
    for r in state.trace:
        assert np.isfinite([r.l_cma, r.l_sdp, r.l_cs, r.l_tot]).all()
        assert r.l_tot == pytest.approx(r.l_cma + r.l_sdp + r.l_cs, rel=1e-9)


def test_loss_decreases_over_training(tiny):
    labeled, class_emb, config = tiny
    config = dataclasses.replace(config, epochs=30)
    state = train(labeled, class_emb, config)
    assert state.trace[-1].l_tot < state.trace[0].l_tot


def test_params_stay_float32(tiny):
    labeled, class_emb, config = tiny
    state = train(labeled, class_emb, config)
    for name, t in state.params.items():
        assert np.asarray(t).dtype == np.float32, name


def test_training_does_not_mutate_inputs(tiny):
    labeled, class_emb, config = tiny
    x_before = labeled.data.copy()
    y_before = labeled.labels.copy()
    ce_before = class_emb.data.copy()
    train(labeled, class_emb, config)
    np.testing.assert_array_equal(labeled.data, x_before)
    np.testing.assert_array_equal(labeled.labels, y_before)
    np.testing.assert_array_equal(class_emb.data, ce_before)


def test_resume_matches_uninterrupted_run(tiny, tmp_path):
    labeled, class_emb, config = tiny
    straight = train(labeled, class_emb, dataclasses.replace(config, epochs=6))

    half = train(labeled, class_emb, dataclasses.replace(config, epochs=3))
    path = tmp_path / "half.gvlp"
    save_checkpoint(half, path)
    resumed = train(
        labeled, class_emb, dataclasses.replace(config, epochs=6), state=load_checkpoint(path)
    )
    tensors_equal(straight, resumed)
    assert resumed.epoch == 6
    # the in-memory trace restarts at the resume point
    assert [r.epoch for r in resumed.trace] == [3, 4, 5]
    assert [r.l_tot for r in resumed.trace] == [r.l_tot for r in straight.trace[3:]]


def test_every_sample_is_visited_once_per_epoch(tiny, monkeypatch):
    import graphgcd.trainer as trainer_mod
    from graphgcd.losses import sample_triplets as real_sampler

    labeled, class_emb, config = tiny
    config = dataclasses.replace(config, epochs=2, batch_size=16)
    batches = []

    def spy(batch_labels, rng):
        batches.append(np.asarray(batch_labels).copy())
        return real_sampler(batch_labels, rng)

    monkeypatch.setattr(trainer_mod, "sample_triplets", spy)
    train(labeled, class_emb, config)
    n = labeled.n
    per_epoch = int(np.ceil(n / 16))
    assert len(batches) == 2 * per_epoch
    for epoch in range(2):
        chunk = batches[epoch * per_epoch : (epoch + 1) * per_epoch]
        assert sum(len(c) for c in chunk) == n
        assert all(len(c) <= 16 for c in chunk)


def test_training_with_oracle_sampler_is_identical(tiny, monkeypatch):
    # the per-anchor reference sampler, in place of the vectorised one, must
    # give the same tensors and Adam moments bit for bit
    import graphgcd.trainer as trainer_mod

    from oracles import plain_sample_triplets

    labeled, class_emb, config = tiny
    fast = train(labeled, class_emb, config)

    def oracle(batch_labels, rng):
        return np.asarray(plain_sample_triplets(batch_labels, rng), dtype=np.int64).reshape(-1, 3)

    monkeypatch.setattr(trainer_mod, "sample_triplets", oracle)
    slow = train(labeled, class_emb, config)
    tensors_equal(fast, slow)
    assert fast.trace == slow.trace


def test_a_step_normalizes_each_row_set_once(tiny, monkeypatch):
    # z, ybar and the prompts: normalized once in the forwards, and the Jacobian
    # applied once in the backwards, counted through every module binding the names
    import graphgcd.losses as losses_mod
    import graphgcd.neural_core as neural_core_mod
    import graphgcd.trainer as trainer_mod

    labeled, class_emb, config = tiny
    calls = {"normalize_rows": 0, "normalize_rows_backward": 0}

    def counted(name):
        fn = getattr(neural_core_mod, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        spy = counted(name)
        for mod in (neural_core_mod, trainer_mod, losses_mod):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, spy)
    state = train(labeled, class_emb, dataclasses.replace(config, epochs=1,
                                                          batch_size=labeled.n))
    assert state.adam.step == 1
    assert calls == {"normalize_rows": 3, "normalize_rows_backward": 3}


def test_diverged_loss_raises(tiny, monkeypatch):
    import graphgcd.trainer as trainer_mod
    from graphgcd.losses import loss_total as real_loss

    labeled, class_emb, config = tiny

    def poisoned(*args, **kwargs):
        _, grads, parts = real_loss(*args, **kwargs)
        return float("inf"), grads, parts

    monkeypatch.setattr(trainer_mod, "loss_total", poisoned)
    with pytest.raises(NumericError, match="diverged"):
        train(labeled, class_emb, config)


def test_train_input_validation(tiny):
    labeled, class_emb, config = tiny
    with pytest.raises(InputError, match="labeled"):
        train(EmbeddingSet(labeled.data), class_emb, config)

    bad_labels = labeled.labels.copy()
    bad_labels[0] = -1
    with pytest.raises(InputError, match="unlabeled rows"):
        train(EmbeddingSet(labeled.data, bad_labels), class_emb, config)

    big_labels = labeled.labels.copy()
    big_labels[0] = class_emb.n
    with pytest.raises(InputError, match="outside"):
        train(EmbeddingSet(labeled.data, big_labels), class_emb, config)

    slim = EmbeddingSet(class_emb.data[:, :4].copy())
    with pytest.raises(InputError, match="dim"):
        train(labeled, slim, config)

    with pytest.raises(InputError, match="knn_k"):
        train(labeled, class_emb, dataclasses.replace(config, knn_k=5))


def test_resume_validation(tiny):
    labeled, class_emb, config = tiny
    done = train(labeled, class_emb, config)
    with pytest.raises(InputError, match="beyond"):
        train(labeled, class_emb, dataclasses.replace(config, epochs=2), state=done)
    with pytest.raises(InvariantError):
        train(labeled, class_emb, dataclasses.replace(config, hidden_dim=4), state=done)

    other_labeled, _, other_emb = generate_synthetic(4, 4, 6, 8, 6.0, seed=2)
    with pytest.raises(InvariantError, match="prompt"):
        train(other_labeled, other_emb, config, state=train(labeled, class_emb, config))


def test_resume_rejects_params_out_of_layout_order(tiny):
    # the checkpoint is written in the params' dict order, so a permuted state
    # would save other bytes than the run it resumes
    labeled, class_emb, config = tiny
    state = train(labeled, class_emb, dataclasses.replace(config, epochs=1))
    state.params = dict(reversed(state.params.items()))
    before = {name: t.copy() for name, t in state.params.items()}
    step = state.adam.step
    with pytest.raises(InvariantError, match="layout"):
        train(labeled, class_emb, config, state=state)
    assert state.adam.step == step and state.epoch == 1
    for name, t in state.params.items():
        assert t.tobytes() == before[name].tobytes(), name


@pytest.mark.parametrize("layers", [0, 1, 2, 3])
def test_every_tensor_group_follows_the_layout(tiny, tmp_path, monkeypatch, layers):
    # params, both moments, every step's gradients and the checkpoint's three
    # groups hold param_shapes' names and shapes in its order, and a loaded
    # checkpoint saves back to the same bytes
    import graphgcd.trainer as trainer_mod

    labeled, class_emb, config = tiny
    config = dataclasses.replace(config, gcn_layers=layers, epochs=2)
    layout = param_shapes(labeled.dim, config.hidden_dim, class_emb.n, layers)
    assert list(layout) == [f"gcn.w{l}" for l in range(layers)] + [
        "proj.w1", "proj.b1", "proj.w2", "proj.b2", "prompt.t"]
    expect = list(layout.items())

    def items(group):
        return [(name, t.shape) for name, t in group.items()]

    params, adam = init_params(labeled.dim, config.hidden_dim, class_emb.n, layers, 0)
    assert items(params) == items(adam.m) == items(adam.v) == expect

    seen, real_step = [], trainer_mod.adam_step

    def spy(params, adam, grads, lr):
        seen.append(items(grads))
        real_step(params, adam, grads, lr)

    monkeypatch.setattr(trainer_mod, "adam_step", spy)
    state = train(labeled, class_emb, config)
    assert seen and all(grads == expect for grads in seen)

    first, second = tmp_path / "a.gvlp", tmp_path / "b.gvlp"
    save_checkpoint(state, first)
    back = load_checkpoint(first)
    assert items(back.params) == items(back.adam.m) == items(back.adam.v) == expect
    save_checkpoint(back, second)
    assert second.read_bytes() == first.read_bytes()


# ---------------------------------------------------------------- checkpoint round-trip

def test_checkpoint_roundtrip_identity(tiny, tmp_path):
    labeled, class_emb, config = tiny
    state = train(labeled, class_emb, config)
    path = tmp_path / "ck.gvlp"
    save_checkpoint(state, path)
    back = load_checkpoint(path)
    tensors_equal(state, back)
    assert back.epoch == state.epoch
    assert back.config == state.config.resolved(labeled.dim)
    assert back.trace == []


def test_checkpoint_bytes_are_deterministic(tiny, tmp_path):
    labeled, class_emb, config = tiny
    state = train(labeled, class_emb, config)
    p1, p2 = tmp_path / "a.gvlp", tmp_path / "b.gvlp"
    save_checkpoint(state, p1)
    save_checkpoint(state, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_progress_chunks_roundtrip_large_values(tiny, tmp_path):
    labeled, class_emb, config = tiny
    config = dataclasses.replace(config, epochs=0, seed=123_456_789)
    state = train(labeled, class_emb, config)
    state.adam.step = 70_001  # larger than one 16-bit chunk
    path = tmp_path / "big.gvlp"
    save_checkpoint(state, path)
    back = load_checkpoint(path)
    assert back.config.seed == 123_456_789
    assert back.adam.step == 70_001


def test_checkpoint_with_retired_config_key_loads(tiny, tmp_path):
    labeled, class_emb, config = tiny
    state = train(labeled, class_emb, dataclasses.replace(config, epochs=1))
    path = tmp_path / "new.gvlp"
    save_checkpoint(state, path)
    # rewrite the config block as older checkpoints carry it
    raw = rewrite_config(path.read_bytes(), "temperature=", "context_vectors_m=16\ntemperature=")
    old = tmp_path / "old.gvlp"
    old.write_bytes(raw)
    back = load_checkpoint(old)
    tensors_equal(load_checkpoint(path), back)
    assert back.epoch == state.epoch
    assert back.config == state.config


# ---------------------------------------------------------------- checkpoint corruption

def record_spans(raw):
    """Walk the tensor records; returns ([(start, end, name)], body_offset)."""
    (config_len,) = struct.unpack_from("<I", raw, 4)
    off = 8 + config_len
    (count,) = struct.unpack_from("<I", raw, off)
    off += 4
    spans = []
    for _ in range(count):
        start = off
        (name_len,) = struct.unpack_from("<H", raw, off)
        off += 2
        name = raw[off : off + name_len].decode("utf-8")
        off += name_len
        rank = raw[off]
        off += 1
        dims = struct.unpack_from(f"<{rank}I", raw, off)
        off += 4 * rank
        size = int(np.prod(dims, dtype=np.int64)) if rank else 1
        off += 4 * size
        spans.append((start, off, name))
    return spans, 8 + config_len


def rewrite_tensor(raw, name, array):
    """Replace one tensor record's rank, dims and payload; every other byte stays."""
    ((start, end),) = [(s, e) for s, e, n in record_spans(raw)[0] if n == name]
    array = np.asarray(array, dtype="<f4")
    nb = name.encode("utf-8")
    head = struct.pack(f"<H{len(nb)}sB{array.ndim}I", len(nb), nb, array.ndim, *array.shape)
    return raw[:start] + head + array.tobytes() + raw[end:]


def rewrite_config(raw, old, new):
    """Replace the one occurrence of `old` in the config block and fix its length."""
    (config_len,) = struct.unpack_from("<I", raw, 4)
    block = raw[8 : 8 + config_len].decode("utf-8")
    assert block.count(old) == 1, old
    block = block.replace(old, new).encode("utf-8")
    return raw[:4] + struct.pack("<I", len(block)) + block + raw[8 + config_len :]


@pytest.fixture(scope="module")
def saved_bytes(tiny, tmp_path_factory):
    labeled, class_emb, config = tiny
    state = train(labeled, class_emb, dataclasses.replace(config, epochs=1))
    path = tmp_path_factory.mktemp("gvlp") / "base.gvlp"
    save_checkpoint(state, path)
    return path.read_bytes()


def reload(tmp_path, raw):
    path = tmp_path / "mangled.gvlp"
    path.write_bytes(raw)
    return load_checkpoint(path)


def test_load_rejects_bad_magic(saved_bytes, tmp_path):
    with pytest.raises(BadMagicError):
        reload(tmp_path, b"XXXX" + saved_bytes[4:])


def test_load_rejects_truncation(saved_bytes, tmp_path):
    with pytest.raises(TruncatedError):
        reload(tmp_path, saved_bytes[:-10])
    with pytest.raises(TruncatedError):
        reload(tmp_path, saved_bytes[:6])


def test_load_rejects_trailing_bytes(saved_bytes, tmp_path):
    with pytest.raises(FormatError, match=f"2 trailing bytes at offset {len(saved_bytes)}"):
        reload(tmp_path, saved_bytes + b"\x00\x00")


def test_load_rejects_duplicate_tensor(saved_bytes, tmp_path):
    spans, count_off = record_spans(saved_bytes)
    (count,) = struct.unpack_from("<I", saved_bytes, count_off)
    first = saved_bytes[spans[0][0] : spans[0][1]]
    raw = (
        saved_bytes[:count_off]
        + struct.pack("<I", count + 1)
        + saved_bytes[count_off + 4 :]
        + first
    )
    with pytest.raises(FormatError, match="duplicate"):
        reload(tmp_path, raw)


def test_load_rejects_missing_tensor(saved_bytes, tmp_path):
    spans, count_off = record_spans(saved_bytes)
    (count,) = struct.unpack_from("<I", saved_bytes, count_off)
    assert spans[-1][2] == "meta/progress"
    raw = (
        saved_bytes[:count_off]
        + struct.pack("<I", count - 1)
        + saved_bytes[count_off + 4 : spans[-1][0]]
    )
    with pytest.raises(FormatError, match="missing tensor 'meta/progress'"):
        reload(tmp_path, raw)


def test_load_rejects_unexpected_tensor(saved_bytes, tmp_path):
    spans, count_off = record_spans(saved_bytes)
    (count,) = struct.unpack_from("<I", saved_bytes, count_off)
    extra = struct.pack("<H", 10) + b"meta/extra" + struct.pack("<B", 0) + struct.pack("<f", 0.0)
    raw = (
        saved_bytes[:count_off]
        + struct.pack("<I", count + 1)
        + saved_bytes[count_off + 4 :]
        + extra
    )
    with pytest.raises(FormatError, match="unexpected"):
        reload(tmp_path, raw)


def test_load_rejects_implausible_rank(saved_bytes, tmp_path):
    spans, _ = record_spans(saved_bytes)
    start, _, name = spans[0]
    rank_pos = start + 2 + len(name.encode())
    raw = bytearray(saved_bytes)
    raw[rank_pos] = 5
    with pytest.raises(FormatError, match="rank"):
        reload(tmp_path, bytes(raw))


def test_load_rejects_dims_whose_product_overflows_int64(saved_bytes, tmp_path):
    # 65536**4 = 2**64 elements: the declared payload cannot fit in the file
    spans, _ = record_spans(saved_bytes)
    start, _, name = spans[0]
    rank_pos = start + 2 + len(name.encode())
    raw = (saved_bytes[:rank_pos] + struct.pack("<B4I", 4, *[65536] * 4)
           + saved_bytes[rank_pos + 1 + 4 * 2 :])  # first tensor has rank 2
    with pytest.raises(TruncatedError, match=f"offset {rank_pos + 17}"):
        reload(tmp_path, raw)


def test_load_rejects_non_finite_payload(saved_bytes, tmp_path):
    spans, _ = record_spans(saved_bytes)
    start, _, name = spans[0]
    payload_pos = start + 2 + len(name.encode()) + 1 + 4 * 2  # rank-2 param tensor
    raw = bytearray(saved_bytes)
    raw[payload_pos : payload_pos + 4] = struct.pack("<f", float("nan"))
    with pytest.raises(NonFiniteError):
        reload(tmp_path, bytes(raw))


def test_load_rejects_progress_seed_mismatch(saved_bytes, tmp_path):
    spans, _ = record_spans(saved_bytes)
    start, end, name = spans[-1]
    assert name == "meta/progress"
    payload_pos = start + 2 + len(name.encode()) + 1 + 4
    raw = bytearray(saved_bytes)
    raw[payload_pos : payload_pos + 4] = struct.pack("<f", 9.0)  # low seed chunk
    with pytest.raises(FormatError, match="seed"):
        reload(tmp_path, bytes(raw))


def test_load_rejects_wrong_progress_shape(saved_bytes, tmp_path):
    spans, _ = record_spans(saved_bytes)
    start, end, name = spans[-1]
    assert name == "meta/progress"
    header = struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", 1)
    payload = saved_bytes[start + len(header) + 4 : end]
    shrunk = header + struct.pack("<I", 11) + payload[: 4 * 11]
    with pytest.raises(FormatError, match="12 values"):
        reload(tmp_path, saved_bytes[:start] + shrunk)


def progress_values(raw):
    """The 12 meta/progress values: the record is the file's last 48 bytes."""
    assert record_spans(raw)[0][-1][2] == "meta/progress"
    return np.frombuffer(raw[-48:], "<f4").copy()


def test_rewrite_tensor_with_its_own_values_changes_no_byte(saved_bytes):
    raw = rewrite_tensor(saved_bytes, "meta/progress", progress_values(saved_bytes))
    assert raw == saved_bytes


# the tiny config's layout: dim 8, hidden 8, 5 known classes, 2 GCN layers
OFF_LAYOUT = {
    "proj.b1-cut-to-3": (
        {f"{group}/proj.b1": np.zeros(3) for group in ("param", "adam.m", "adam.v")},
        r"'param/proj\.b1' has shape \(3,\), but the config block implies \(8,\)"),
    "proj.w2-cut-to-5-columns": (
        {"param/proj.w2": np.zeros((8, 5))}, r"'param/proj\.w2' has shape \(8, 5\)"),
    "adam.m-proj.w1-cut-to-2-rows": (
        {"adam.m/proj.w1": np.zeros((2, 8))}, r"'adam\.m/proj\.w1' has shape \(2, 8\)"),
    "prompts-not-a-matrix": (
        {"param/prompt.t": np.ones(40)}, r"'param/prompt\.t' has shape \(40,\)"),
}


@pytest.mark.parametrize("case", list(OFF_LAYOUT))
def test_load_rejects_tensor_shapes_off_the_layout(saved_bytes, tmp_path, case):
    edits, message = OFF_LAYOUT[case]
    raw = saved_bytes
    for name, array in edits.items():
        raw = rewrite_tensor(raw, name, array)
    with pytest.raises(FormatError, match=message):
        reload(tmp_path, raw)


@pytest.mark.parametrize("old, new, message", [
    ("hidden_dim=8\n", "hidden_dim=32\n",
     r"'param/gcn\.w0' has shape \(8, 8\), but the config block implies \(8, 32\)"),
    ("gcn_layers=2\n", "gcn_layers=1\n", r"unexpected tensors \['adam\.m/gcn\.w1'"),
    ("gcn_layers=2\n", "gcn_layers=3\n", r"missing tensor 'param/gcn\.w2'"),
], ids=["hidden-dim-32", "gcn-layers-1", "gcn-layers-3"])
def test_load_rejects_config_block_that_does_not_describe_the_tensors(
    saved_bytes, tmp_path, old, new, message
):
    with pytest.raises(FormatError, match=message):
        reload(tmp_path, rewrite_config(saved_bytes, old, new))


# chunk 4 is the low epoch chunk, 5 the next one, 8 the low Adam step chunk
@pytest.mark.parametrize("edits", [{4: -3.0, 8: 0.5}, {5: 65536.0}],
                         ids=["negative-epoch-fractional-step", "epoch-chunk-above-16-bits"])
def test_load_rejects_progress_values_that_are_not_16_bit_integers(saved_bytes, tmp_path, edits):
    progress = progress_values(saved_bytes)
    for i, value in edits.items():
        progress[i] = value
    with pytest.raises(FormatError, match=r"meta/progress values must be integers in \[0, 65535\]"):
        reload(tmp_path, rewrite_tensor(saved_bytes, "meta/progress", progress))


# ---------------------------------------------------------------- loss trace file

def test_write_loss_trace_format(tmp_path):
    trace = [
        EpochRecord(0, 1.0, 0.5, 0.25, 1.75),
        EpochRecord(1, 0.875, 0.4375, 0.125, 1.4375),
    ]
    path = tmp_path / "trace.csv"
    write_loss_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,l_cma,l_sdp,l_cs,l_tot"
    assert lines[1] == "0,1.000000,0.500000,0.250000,1.750000"
    assert lines[2] == "1,0.875000,0.437500,0.125000,1.437500"
    assert len(lines) == 3
