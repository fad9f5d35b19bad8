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
from graphgcd.neural_core import init_params
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
    na, nb = a.named_tensors(), b.named_tensors()
    assert na.keys() == nb.keys()
    for name in na:
        assert np.asarray(na[name]).tobytes() == np.asarray(nb[name]).tobytes(), name
    for name in na:
        assert a.adam.m[name].tobytes() == b.adam.m[name].tobytes(), f"m/{name}"
        assert a.adam.v[name].tobytes() == b.adam.v[name].tobytes(), f"v/{name}"
    assert a.adam.step == b.adam.step


# ---------------------------------------------------------------- training loop

def test_zero_epochs_returns_fresh_init(tiny):
    labeled, class_emb, config = tiny
    config = dataclasses.replace(config, epochs=0)
    state = train(labeled, class_emb, config)
    fresh = init_params(
        input_dim=labeled.dim,
        hidden_dim=8,
        known_class_count=class_emb.n,
        gcn_layers=config.gcn_layers,
        seed=np.random.SeedSequence([config.seed, 0]),
    )
    tensors_equal(state.params, fresh)
    assert state.epoch == 0
    assert state.trace == []


def test_training_is_deterministic(tiny):
    labeled, class_emb, config = tiny
    a = train(labeled, class_emb, config)
    b = train(labeled, class_emb, config)
    tensors_equal(a.params, b.params)
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
    for name, t in state.params.named_tensors().items():
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
    tensors_equal(straight.params, resumed.params)
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
    tensors_equal(fast.params, slow.params)
    assert fast.trace == slow.trace


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


# ---------------------------------------------------------------- checkpoint round-trip

def test_checkpoint_roundtrip_identity(tiny, tmp_path):
    labeled, class_emb, config = tiny
    state = train(labeled, class_emb, config)
    path = tmp_path / "ck.gvlp"
    save_checkpoint(state, path)
    back = load_checkpoint(path)
    tensors_equal(state.params, back.params)
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
    state.params.adam.step = 70_001  # larger than one 16-bit chunk
    path = tmp_path / "big.gvlp"
    save_checkpoint(state, path)
    back = load_checkpoint(path)
    assert back.config.seed == 123_456_789
    assert back.params.adam.step == 70_001


def test_checkpoint_with_retired_config_key_loads(tiny, tmp_path):
    labeled, class_emb, config = tiny
    state = train(labeled, class_emb, dataclasses.replace(config, epochs=1))
    path = tmp_path / "new.gvlp"
    save_checkpoint(state, path)
    raw = path.read_bytes()
    # rewrite the config block as older checkpoints carry it
    (config_len,) = struct.unpack_from("<I", raw, 4)
    block = raw[8 : 8 + config_len].replace(
        b"temperature=", b"context_vectors_m=16\ntemperature="
    )
    assert block.count(b"context_vectors_m=16\n") == 1
    old = tmp_path / "old.gvlp"
    old.write_bytes(raw[:4] + struct.pack("<I", len(block)) + block + raw[8 + config_len :])
    back = load_checkpoint(old)
    tensors_equal(load_checkpoint(path).params, back.params)
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
