import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgcd.embed_io import (
    GVLE_MAGIC,
    ByteReader,
    EmbeddingSet,
    RunConfig,
    _draw_centers,
    check_run_inputs,
    format_config,
    generate_synthetic,
    parse_config,
    read_embedding_file,
    write_embedding_file,
)
from graphgcd.errors import (
    BadMagicError,
    FormatError,
    InputError,
    InvariantError,
    LabelRangeError,
    NonFiniteError,
    TruncatedError,
)

from oracles import brute_force_accuracy, plain_kmeans


def _random_set(seed: int, n: int, d: int, with_labels: bool) -> EmbeddingSet:
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d)).astype(np.float32)
    labels = None
    if with_labels:
        labels = rng.integers(-1, 5, size=n).astype(np.int32)
    return EmbeddingSet(data=data, labels=labels)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 20),
    d=st.integers(1, 8),
    with_labels=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_gvle_roundtrip_identity(tmp_path_factory, n, d, with_labels, seed):
    emb = _random_set(seed, n, d, with_labels)
    path = tmp_path_factory.mktemp("gvle") / "e.gvle"
    write_embedding_file(emb, path)
    back = read_embedding_file(path)
    assert back.data.dtype == np.float32
    np.testing.assert_array_equal(back.data, emb.data)
    if with_labels:
        np.testing.assert_array_equal(back.labels, emb.labels)
    else:
        assert back.labels is None


def test_gvle_header_math(tmp_path):
    # 4 magic + 4 n + 4 d + 1 flag + 4 payload = 17 bytes for a 1x1 set
    path = tmp_path / "one.gvle"
    write_embedding_file(EmbeddingSet(np.zeros((1, 1), dtype=np.float32)), path)
    assert path.stat().st_size == 17


def test_gvle_write_deterministic(tmp_path):
    emb = _random_set(3, 7, 4, True)
    a, b = tmp_path / "a.gvle", tmp_path / "b.gvle"
    write_embedding_file(emb, a)
    write_embedding_file(emb, b)
    assert a.read_bytes() == b.read_bytes()


def test_gvle_write_rejects_nonfinite(tmp_path):
    emb = _random_set(0, 2, 2, False)
    emb.data[0, 0] = np.nan  # mutate after construction
    with pytest.raises(NonFiniteError):
        write_embedding_file(emb, tmp_path / "bad.gvle")


def test_gvle_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope.gvle"):
        read_embedding_file(tmp_path / "nope.gvle")


def test_gvle_bad_magic(tmp_path):
    path = tmp_path / "bad.gvle"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(BadMagicError):
        read_embedding_file(path)


def test_gvle_truncated_payload_names_offset(tmp_path):
    # header says n=2, d=3 (needs 24 payload bytes) but only 20 are present
    path = tmp_path / "short.gvle"
    path.write_bytes(b"GVLE" + struct.pack("<IIB", 2, 3, 0) + b"\x00" * 20)
    with pytest.raises(TruncatedError) as exc:
        read_embedding_file(path)
    assert "13" in str(exc.value)   # payload starts after the 13-byte header
    assert "24" in str(exc.value)


def test_gvle_label_below_minus_one(tmp_path):
    path = tmp_path / "lab.gvle"
    data = np.zeros((2, 1), dtype="<f4").tobytes()
    labels = np.asarray([0, -2], dtype="<i4").tobytes()
    path.write_bytes(b"GVLE" + struct.pack("<IIB", 2, 1, 1) + data + labels)
    with pytest.raises(LabelRangeError) as exc:
        read_embedding_file(path)
    # offending label sits at 13 (header) + 8 (payload) + 4 (first label)
    assert "25" in str(exc.value)


def test_gvle_trailing_bytes(tmp_path):
    path = tmp_path / "trail.gvle"
    data = np.zeros((1, 1), dtype="<f4").tobytes()
    path.write_bytes(b"GVLE" + struct.pack("<IIB", 1, 1, 0) + data + b"xx")
    with pytest.raises(FormatError, match="2 trailing bytes at offset 17"):
        read_embedding_file(path)


@pytest.mark.parametrize("magic", [GVLE_MAGIC, b"GVLP"], ids=["gvle", "gvlp"])
def test_byte_reader_names_offsets(tmp_path, magic):
    # both file formats go through the same reader, so both get the same checks
    path = tmp_path / "f.bin"
    path.write_bytes(magic + struct.pack("<H", 3) + b"ab\xff" + b"tail")
    r = ByteReader(path, magic)
    assert r.unpack("<H") == (3,)
    with pytest.raises(FormatError, match="bytes at offset 6 are not UTF-8"):
        r.text(3)
    with pytest.raises(FormatError, match="4 trailing bytes at offset 9"):
        r.end()
    with pytest.raises(TruncatedError, match="offset 9: needed 8 bytes, only 4"):
        r.array("<f4", (2,))
    np.testing.assert_array_equal(r.array("<u1", (2, 2)), [[116, 97], [105, 108]])
    r.end()
    with pytest.raises(BadMagicError, match="offset 0"):
        ByteReader(path, b"XXXX")


def test_gvle_read_holds_the_payload_once(tmp_path):
    # the payload is read straight into its array: no whole-file bytes object
    # and no copy of it (2.5x the file size when both were held)
    path = tmp_path / "big.gvle"
    emb = _random_set(0, 2048, 128, with_labels=True)
    write_embedding_file(emb, path)
    tracemalloc.start()
    try:
        back = read_embedding_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.data, emb.data)
    assert peak <= 1.6 * path.stat().st_size, f"peak {peak} B for {path.stat().st_size} B"


def test_gvle_read_holds_one_finiteness_mask_at_a_time(tmp_path):
    # the reader's n x d mask is gone before EmbeddingSet builds its own, so the
    # peak is the payload plus one mask, a quarter of it: 1.25 times the file,
    # where holding both masks at once peaked at 1.5 times
    path = tmp_path / "big.gvle"
    emb = _random_set(0, 4000, 128, with_labels=True)
    write_embedding_file(emb, path)
    tracemalloc.start()
    try:
        back = read_embedding_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.labels, emb.labels)
    assert peak < 1.3 * path.stat().st_size, f"peak {peak} B for {path.stat().st_size} B"


@pytest.mark.parametrize("with_labels", [True, False])
def test_gvle_read_builds_one_finiteness_mask(tmp_path, monkeypatch, with_labels):
    path = tmp_path / "e.gvle"
    emb = _random_set(2, 40, 6, with_labels)
    write_embedding_file(emb, path)
    masks = []
    real = np.isfinite

    def counting(x, *args, **kwargs):
        out = real(x, *args, **kwargs)
        if np.shape(out) == emb.data.shape:
            masks.append(out.shape)
        return out

    monkeypatch.setattr(np, "isfinite", counting)
    back = read_embedding_file(path)
    assert masks == [emb.data.shape]
    assert back.data.dtype == np.float32 and back.data.flags.c_contiguous
    if with_labels:
        assert back.labels.dtype == np.int32
        np.testing.assert_array_equal(back.labels, emb.labels)
    else:
        assert back.labels is None


def test_gvle_doubly_broken_file_reports_the_payload_first(tmp_path):
    # a non-finite value and a label below -1: the payload comes first in the
    # file, and so does its error
    path = tmp_path / "both.gvle"
    data = np.asarray([[1.0, np.nan]], dtype="<f4").tobytes()
    path.write_bytes(b"GVLE" + struct.pack("<IIB", 1, 2, 1) + data + struct.pack("<i", -5))
    with pytest.raises(NonFiniteError, match="offset 17"):
        read_embedding_file(path)
    path.write_bytes(b"GVLE" + struct.pack("<IIB", 1, 2, 1) + data + b"\x00")
    with pytest.raises(NonFiniteError, match="offset 17"):
        read_embedding_file(path)


@pytest.mark.parametrize("with_labels", [True, False])
def test_gvle_write_follows_the_layout(tmp_path, with_labels):
    emb = _random_set(4, 5, 3, with_labels)
    path = tmp_path / "e.gvle"
    write_embedding_file(emb, path)
    expected = GVLE_MAGIC + struct.pack("<IIB", 5, 3, with_labels) + emb.data.astype("<f4").tobytes()
    if with_labels:
        expected += emb.labels.astype("<i4").tobytes()
    assert path.read_bytes() == expected


def test_gvle_write_holds_no_copy_of_the_payload(tmp_path):
    # the arrays go straight to the file: only the n x d finiteness mask is
    # allocated (a quarter of the payload), where bytes copies peaked at 2.1x the file
    emb = _random_set(0, 2048, 128, with_labels=True)
    path = tmp_path / "big.gvle"
    tracemalloc.start()
    try:
        write_embedding_file(emb, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * path.stat().st_size, f"peak {peak} B for {path.stat().st_size} B"


def test_gvle_reads_from_a_pipe(tmp_path):
    # a pipe has no size to check lengths against; it is read whole instead
    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes")
    emb = _random_set(1, 5, 3, with_labels=True)
    write_embedding_file(emb, tmp_path / "f.gvle")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=((tmp_path / "f.gvle").read_bytes(),),
                              daemon=True)
    writer.start()
    back = read_embedding_file(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    np.testing.assert_array_equal(back.data, emb.data)
    np.testing.assert_array_equal(back.labels, emb.labels)


def test_gvle_bad_flag_and_empty_header(tmp_path):
    path = tmp_path / "flag.gvle"
    path.write_bytes(b"GVLE" + struct.pack("<IIB", 1, 1, 7) + b"\x00" * 4)
    with pytest.raises(FormatError, match="has_labels"):
        read_embedding_file(path)
    path2 = tmp_path / "empty.gvle"
    path2.write_bytes(b"GVLE" + struct.pack("<IIB", 0, 4, 0))
    with pytest.raises(FormatError, match="empty"):
        read_embedding_file(path2)


def test_gvle_nonfinite_payload_names_offset(tmp_path):
    path = tmp_path / "nan.gvle"
    data = np.asarray([[1.0, np.inf]], dtype="<f4").tobytes()
    path.write_bytes(b"GVLE" + struct.pack("<IIB", 1, 2, 0) + data)
    with pytest.raises(NonFiniteError) as exc:
        read_embedding_file(path)
    assert "17" in str(exc.value)  # second float: 13 + 4


def test_embedding_set_validation():
    with pytest.raises(InvariantError):
        EmbeddingSet(np.zeros(3, dtype=np.float32))  # 1-D
    with pytest.raises(NonFiniteError):
        EmbeddingSet(np.asarray([[np.nan]], dtype=np.float32))
    with pytest.raises(InvariantError):
        EmbeddingSet(np.zeros((2, 2), dtype=np.float32), labels=np.asarray([0]))
    with pytest.raises(InvariantError):
        EmbeddingSet(np.zeros((2, 2), dtype=np.float32), labels=np.asarray([0, -3]))


# -- config ------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    knn_k=st.integers(1, 9),
    layers=st.integers(0, 3),
    alpha=st.floats(0.0, 1.0, allow_nan=False),
    lr=st.floats(1e-6, 1.0, allow_nan=False),
    epochs=st.integers(0, 500),
    seed=st.integers(0, 2**64 - 1),
    temp=st.floats(0.01, 10.0, allow_nan=False),
    printed=st.booleans(),
)
def test_config_text_roundtrip(knn_k, layers, alpha, lr, epochs, seed, temp, printed):
    cfg = RunConfig(
        knn_k=knn_k, gcn_layers=layers, margin_alpha=alpha, learn_rate=lr,
        epochs=epochs, seed=seed, temperature=temp, losses_as_printed=printed,
    )
    assert parse_config(format_config(cfg)) == cfg


def test_config_file_roundtrip(tmp_path):
    cfg = RunConfig(seed=123456789012345678, learn_rate=3e-4)
    path = tmp_path / "config.txt"
    path.write_text(format_config(cfg), encoding="utf-8")
    assert parse_config(path.read_text(encoding="utf-8")) == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(InputError, match="unknown key"):
        parse_config("knn_k=3\nwat=1\n")


def test_config_rejects_bad_value_and_shape():
    with pytest.raises(InputError, match="bad value"):
        parse_config("epochs=soon\n")
    with pytest.raises(InputError, match="key=value"):
        parse_config("epochs\n")


def test_config_skips_comments_and_blanks():
    cfg = parse_config("# a comment\n\nknn_k=4\n")
    assert cfg.knn_k == 4


def test_config_accepts_and_drops_retired_key():
    # the config block older runs wrote, with the since-removed context_vectors_m
    # and without losses_as_printed, which takes its default
    old = (
        "knn_k=3\ngcn_layers=2\nmargin_alpha=0.3\nlearn_rate=0.001\n"
        "batch_size=128\nepochs=100\nseed=0\nhidden_dim=0\n"
        "context_vectors_m=16\ntemperature=1.0\n"
    )
    cfg = parse_config(old)
    assert cfg == RunConfig()
    assert format_config(cfg) == (old.replace("context_vectors_m=16\n", "")
                                  + "losses_as_printed=False\n")
    with pytest.raises(InputError, match="unknown key 'foo'"):
        parse_config(old + "foo=1\n")


@pytest.mark.parametrize("raw", ["yes", "1", "true", "0", "false", ""])
def test_config_bool_is_exactly_true_or_false(raw):
    # bool("False") is True, so a bool field takes only the two words format_config writes
    with pytest.raises(InputError, match=f"config line 2: bad value for losses_as_printed: '{raw}'"):
        parse_config(f"knn_k=3\nlosses_as_printed={raw}\nepochs=1\n")


@pytest.mark.parametrize(
    "field,value",
    [
        ("knn_k", 0),
        ("gcn_layers", 4),
        ("margin_alpha", 1.5),
        ("temperature", 0.0),
        ("learn_rate", 0.0),
        ("batch_size", 0),
        ("epochs", -1),
        ("seed", -1),
        ("seed", 2**64),
        ("hidden_dim", -2),
    ],
)
def test_config_validate_bounds(field, value):
    cfg = RunConfig(**{field: value})
    with pytest.raises(InputError):
        cfg.validate()


def test_config_validate_knn_vs_classes():
    RunConfig(knn_k=3).validate(known_class_count=5)
    with pytest.raises(InputError, match="knn_k"):
        RunConfig(knn_k=5).validate(known_class_count=5)


def _run_inputs(labels=(0, 0, 1, 1, 2), d=4, class_rows=3, class_dim=4, unlabeled_dim=4):
    rng = np.random.default_rng(0)
    labeled = EmbeddingSet(rng.normal(size=(5, d)),
                           None if labels is None else np.asarray(labels))
    class_emb = EmbeddingSet(rng.normal(size=(class_rows, class_dim)))
    unlabeled = EmbeddingSet(rng.normal(size=(6, unlabeled_dim)))
    return labeled, class_emb, unlabeled


def test_check_run_inputs_resolves_config():
    labeled, class_emb, unlabeled = _run_inputs()
    config = RunConfig(knn_k=2)
    assert check_run_inputs(config, labeled, class_emb, unlabeled) == RunConfig(
        knn_k=2, hidden_dim=4)
    assert check_run_inputs(RunConfig(knn_k=2, hidden_dim=7), labeled, class_emb).hidden_dim == 7
    assert config.hidden_dim == 0
    # class embeddings beyond the largest label are allowed
    check_run_inputs(config, *_run_inputs(class_rows=5)[:2])


@pytest.mark.parametrize("inputs,config,match", [
    (dict(labels=None), RunConfig(knn_k=2), "no labels"),
    (dict(labels=(0, -1, 1, 2, 2)), RunConfig(knn_k=2), "unlabeled rows"),
    (dict(labels=(0, 1, 3, 3, 1)), RunConfig(knn_k=2), "label 3 outside the 3 known classes"),
    (dict(labels=(0, 0, 2, 2, 3), class_rows=4), RunConfig(knn_k=2), "contiguous"),
    (dict(class_dim=5), RunConfig(knn_k=2), "class embedding dim 5"),
    (dict(unlabeled_dim=3), RunConfig(knn_k=2), "unlabeled dim 3"),
    (dict(), RunConfig(knn_k=3), "knn_k=3 must be < known class count 3"),
    (dict(), RunConfig(knn_k=2, learn_rate=float("nan")), "learn_rate"),
], ids=["no-labels", "negative-label", "label-without-class", "gap", "class-dim",
        "unlabeled-dim", "knn-k", "config"])
def test_check_run_inputs_rejects(inputs, config, match):
    with pytest.raises(InputError, match=match):
        check_run_inputs(config, *_run_inputs(**inputs))


def test_config_resolved_hidden_dim():
    assert RunConfig().resolved(32).hidden_dim == 32
    assert RunConfig(hidden_dim=7).resolved(32).hidden_dim == 7


# -- synthetic generator -----------------------------------------------------

def test_synthetic_counting_contract():
    labeled, unlabeled, class_emb = generate_synthetic(2, 1, 2, 4, 6.0, seed=0)
    assert labeled.n == 2 and set(labeled.labels.tolist()) == {0}
    assert unlabeled.n == 4
    assert class_emb.n == 1 and class_emb.dim == 4


def test_synthetic_deterministic():
    a = generate_synthetic(4, 2, 3, 8, 6.0, seed=9)
    b = generate_synthetic(4, 2, 3, 8, 6.0, seed=9)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.data, y.data)
        np.testing.assert_array_equal(x.labels, y.labels)


def test_synthetic_unit_norm_rows():
    labeled, unlabeled, class_emb = generate_synthetic(5, 3, 4, 16, 2.0, seed=1)
    for emb in (labeled, unlabeled, class_emb):
        norms = np.linalg.norm(emb.data.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)


def test_synthetic_center_separation():
    rng = np.random.default_rng(0)
    centers = _draw_centers(rng, 6, 16)
    sims = centers @ centers.T
    off = sims[~np.eye(6, dtype=bool)]
    assert off.max() <= 0.5 + 1e-12


def test_synthetic_infeasible_separation():
    # 40 directions pairwise >= 60 degrees apart do not fit on a circle
    with pytest.raises(InputError, match="attempts"):
        generate_synthetic(40, 2, 2, 2, 6.0, seed=0)


SYNTHETIC_ARGUMENT_CASES = [
    (dict(class_count=3, known_count=0, per_class=2, d=4, separation=6.0), "known_count"),
    (dict(class_count=3, known_count=4, per_class=2, d=4, separation=6.0), "known_count"),
    (dict(class_count=3, known_count=1, per_class=1, d=4, separation=6.0), "per_class"),
    (dict(class_count=3, known_count=1, per_class=2, d=0, separation=6.0), "d must"),
    (dict(class_count=3, known_count=1, per_class=2, d=4, separation=0.0), "separation"),
    (dict(class_count=3, known_count=1, per_class=2, d=4, separation=np.nan), "separation"),
]


@pytest.mark.parametrize(
    "kwargs, match", SYNTHETIC_ARGUMENT_CASES,
    ids=[f"kwargs{i}" for i in range(len(SYNTHETIC_ARGUMENT_CASES))],
)
def test_synthetic_argument_validation(kwargs, match):
    # each rejection names its argument; NaN fails `> 0` where it passed `<= 0`
    with pytest.raises(InputError, match=match):
        generate_synthetic(seed=0, **kwargs)


@pytest.mark.parametrize("seed, ok", [(-1, False), (0, True), (2**64 - 1, True),
                                      (2**64, False)])
def test_synthetic_seed_must_be_a_uint64(seed, ok):
    if ok:
        assert generate_synthetic(2, 1, 2, 4, 6.0, seed=seed)[0].n == 2
    else:
        with pytest.raises(InputError, match=f"^seed must be a uint64, got {seed}$"):
            generate_synthetic(2, 1, 2, 4, 6.0, seed=seed)


def test_synthetic_well_separated_kmeans_sanity():
    """High separation means plain k-means recovers the classes from raw data."""
    labeled, unlabeled, class_emb = generate_synthetic(5, 2, 30, 16, 10.0, seed=0)
    x = unlabeled.data.astype(np.float64)
    truth = unlabeled.labels
    init = np.vstack([x[truth == c].mean(axis=0) for c in range(5)])
    assignment, _, _ = plain_kmeans(x, init)
    acc = brute_force_accuracy(assignment, truth, 5, 5)
    assert acc >= 0.95
