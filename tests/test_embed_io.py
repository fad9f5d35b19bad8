import math
import os
import re
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
    FormatError,
    InputError,
    InvariantError,
    NonFiniteError,
)

from oracles import brute_force_accuracy, plain_generate_synthetic, plain_kmeans


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
    with pytest.raises(FormatError, match=r"bad magic at offset 0: expected b'GVLE', found b'XXXX'"):
        read_embedding_file(path)


def test_gvle_truncated_payload_names_offset(tmp_path):
    # header says n=2, d=3 (needs 24 payload bytes) but only 20 are present
    path = tmp_path / "short.gvle"
    path.write_bytes(b"GVLE" + struct.pack("<IIB", 2, 3, 0) + b"\x00" * 20)
    # the payload starts after the 13-byte header
    with pytest.raises(FormatError, match="truncated at offset 13: needed 24 bytes, only 20 available"):
        read_embedding_file(path)


def test_gvle_label_below_minus_one(tmp_path):
    path = tmp_path / "lab.gvle"
    data = np.zeros((2, 1), dtype="<f4").tobytes()
    labels = np.asarray([0, -2], dtype="<i4").tobytes()
    path.write_bytes(b"GVLE" + struct.pack("<IIB", 2, 1, 1) + data + labels)
    # offending label sits at 13 (header) + 8 (payload) + 4 (first label)
    with pytest.raises(FormatError, match=r"label -2 at offset 25 is out of range \(must be >= -1\)"):
        read_embedding_file(path)


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
    with pytest.raises(FormatError, match="truncated at offset 9: needed 8 bytes, only 4"):
        r.array("<f4", (2,))
    np.testing.assert_array_equal(r.array("<u1", (2, 2)), [[116, 97], [105, 108]])
    r.end()
    with pytest.raises(FormatError, match="bad magic at offset 0"):
        ByteReader(path, b"XXXX")


def test_byte_reader_names_the_offset_when_the_file_shrinks(tmp_path):
    # the size was taken at open; the read then comes up short
    path = tmp_path / "f.bin"
    path.write_bytes(GVLE_MAGIC + bytes(100_000))
    with ByteReader(path, GVLE_MAGIC) as r:
        os.truncate(path, 50_000)
        with pytest.raises(FormatError, match="truncated at offset 4: needed 100000 bytes, only "):
            r.take(100_000)
        assert r.offset == 4


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
    with pytest.raises(FormatError, match=r"empty\.gvle: header declares empty set \(n=0, d=4\)$"):
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


@pytest.mark.parametrize("labels", [
    np.asarray([1, 2**32], dtype=np.int64),        # wraps to 0
    np.asarray([0.7, 1.9]),                         # truncates to 0, 1
    np.asarray([np.nan, 1.0]),
    np.asarray([1e12, 0.0]),
], ids=["int64-wraps", "fractional", "nan", "float-overflow"])
def test_embedding_set_rejects_labels_int32_would_change(labels):
    with pytest.raises(InvariantError, match="int32 holds exactly"):
        EmbeddingSet(np.zeros((2, 2), dtype=np.float32), labels=labels)


def test_embedding_set_keeps_labels_int32_holds():
    for labels in ([1, -1], np.asarray([0.0, 3.0]), np.asarray([2**31 - 1, 0], dtype=np.int64)):
        got = EmbeddingSet(np.zeros((2, 2), dtype=np.float32), labels=labels).labels
        assert got.dtype == np.int32 and got.tolist() == np.asarray(labels).tolist()


# -- config ------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    knn_k=st.integers(1, 9),
    layers=st.integers(0, 3),
    alpha=st.floats(0.0, 1.0, allow_nan=False),
    lr=st.floats(1e-6, 1.0, allow_nan=False),
    epochs=st.integers(0, 500),
    seed=st.integers(0, 2**64 - 1),
    temp=st.one_of(st.floats(0.01, 10.0, allow_nan=False), st.integers(1, 10)),
    printed=st.booleans(),
)
def test_config_text_roundtrip(knn_k, layers, alpha, lr, epochs, seed, temp, printed):
    cfg = RunConfig(
        knn_k=knn_k, gcn_layers=layers, margin_alpha=alpha, learn_rate=lr,
        epochs=epochs, seed=seed, temperature=temp, losses_as_printed=printed,
    )
    text = format_config(cfg)
    assert parse_config(text) == cfg
    assert format_config(parse_config(text)) == text


def test_format_config_writes_each_value_as_its_field_type():
    # an int in a float field is written as the float it stands for, which parse_config reads
    assert "\ntemperature=2.0\n" in format_config(RunConfig(temperature=2))
    assert parse_config(format_config(RunConfig(temperature=2))).temperature == 2.0


def test_config_text_roundtrip_with_numpy_float_field():
    # f"{np.float64(0.25)!r}" is "np.float64(0.25)", which parse_config rejects
    cfg = RunConfig(margin_alpha=np.float64(0.25), learn_rate=np.float32(0.5))
    assert "margin_alpha=0.25\n" in format_config(cfg)
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


def test_config_rejects_repeated_key():
    # the later line used to win silently
    with pytest.raises(InputError, match="config line 3: repeated key 'seed'"):
        parse_config("seed=1\nknn_k=3\nseed=2\n")


@pytest.mark.parametrize("line, message", [
    ("knn_k=03", "bad value for knn_k: '03'"),
    (" knn_k=3", "unknown key ' knn_k'"),
    ("knn_k= 3", "bad value for knn_k: ' 3'"),
    ("knn_k=3 ", "bad value for knn_k: '3 '"),
    ("temperature=2", "bad value for temperature: '2'"),
    ("learn_rate=1e-5", "bad value for learn_rate: '1e-5'"),
    ("# a comment", "expected key=value, got '# a comment'"),
    ("", "expected key=value, got ''"),
    # only "\n" ends a line: any other line break stays inside its line
    ("knn_k=3\r", "bad value for knn_k: '3\\r'"),
    ("knn_k=3\x0bepochs=2", "bad value for knn_k: '3\\x0bepochs=2'"),
    ("\x1cknn_k=3", "unknown key '\\x1cknn_k'"),
    ("knn_k=3\u2028epochs=2", "bad value for knn_k: '3\\u2028epochs=2'"),
], ids=["leading-zero", "padded-key", "padded-value", "trailing-space", "int-for-float",
        "exponent", "comment", "blank", "crlf", "vertical-tab", "file-separator",
        "line-separator"])
def test_config_reads_only_lines_format_config_writes(line, message):
    # format_config writes none of these lines; each value must be its field type's own text
    with pytest.raises(InputError, match=re.escape(f"config line 2: {message}") + "$"):
        parse_config(f"seed=1\n{line}\nepochs=1\n")


@pytest.mark.parametrize("text", ["seed=1\nknn_k=3", "seed=1\r", ""],
                         ids=["no-final-newline", "cr-only", "empty"])
def test_config_block_ends_in_a_newline(text):
    # format_config ends its last line in "\n" too
    with pytest.raises(InputError, match="^config block does not end in a newline$"):
        parse_config(text)


@pytest.mark.parametrize("field,raw", [("knn_k", "1_0"), ("epochs", "+5"), ("seed", "-0"),
                                       ("batch_size", "١٢")])
def test_config_int_is_plain_decimal(field, raw):
    # int() alone reads all of these; an int field takes only what format_config writes
    with pytest.raises(InputError, match=re.escape(f"line 1: bad value for {field}: '{raw}'")):
        parse_config(f"{field}={raw}\n")


@pytest.mark.parametrize("field,raw", [("temperature", "1_0"), ("margin_alpha", "0_3"),
                                       ("temperature", "١"), ("temperature", "+1.5")])
def test_config_float_is_ascii_without_underscore_or_plus(field, raw):
    # float() alone reads all of these; format_config writes none of them
    text = f"seed=1\n{field}={raw}\n"
    with pytest.raises(InputError, match=re.escape(f"line 2: bad value for {field}: '{raw}'")):
        parse_config(text)


def test_config_float_reads_what_format_config_writes():
    cfg = RunConfig(learn_rate=1e-05, margin_alpha=0.3, temperature=math.inf)
    assert "learn_rate=1e-05\nbatch_size" in format_config(cfg)
    assert parse_config(format_config(cfg)) == cfg
    assert parse_config("learn_rate=1e+39\ntemperature=-inf\n") == RunConfig(
        learn_rate=1e39, temperature=-math.inf)


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


@pytest.mark.parametrize("shape, separation, seed", [
    ((10, 5, 100, 32), 6.0, 0), ((20, 10, 200, 128), 6.0, 101), ((50, 25, 60, 128), 6.0, 101),
    ((2, 1, 2, 1), 6.0, 0), ((24, 12, 100, 64), np.inf, 0), ((100, 50, 200, 512), 6.0, 100),
], ids=["criteria", "train-heavy", "cluster-heavy", "tiny", "noiseless", "paper-scale"])
def test_synthetic_matches_per_center_draws(shape, separation, seed):
    # one draw per split consumes the stream as one draw per center does
    got = generate_synthetic(*shape, separation, seed)
    want = plain_generate_synthetic(*shape, separation, seed)
    for emb, rows in zip(got, want):
        assert emb.data.dtype == rows.dtype and emb.data.tobytes() == rows.tobytes()


def test_synthetic_peak_memory_is_bounded_by_the_unlabeled_split():
    # each split is drawn into one float64 array and normalized in row blocks straight
    # into its float32 rows: about 3.7 times the unlabeled rows' bytes, where holding
    # the noise, its scaled copy and the norm's whole-split temporaries peaked at 5.5
    tracemalloc.start()
    try:
        _, unlabeled, _ = generate_synthetic(20, 10, 1000, 64, 6.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * unlabeled.data.nbytes, f"peak {peak} B for {unlabeled.data.nbytes} B"


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
