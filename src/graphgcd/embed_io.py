"""The input boundary: GVLE file I/O, run configuration, input checks, synthetic data.

The GVLE layout is little-endian throughout:

    magic "GVLE" | n: uint32 | d: uint32 | has_labels: uint8
    | n*d float32 row-major | if has_labels: n int32 labels

GVLE files and GVLP checkpoints are both read through ByteReader. Config
files are UTF-8 ``key=value`` lines mirroring RunConfig field names.
check_run_inputs decides whether the input sets agree with each other and
with a RunConfig.
"""

from __future__ import annotations

import dataclasses
import io
import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InputError, InvariantError, NonFiniteError

GVLE_MAGIC = b"GVLE"

# Synthetic class centers must sit at least 60 degrees apart on the unit
# sphere (chord >= 1); rejection beyond this budget means the requested
# class_count does not fit in d dimensions.
_MAX_CENTER_COS = 0.5
_CENTER_ATTEMPTS = 10_000
# Synthetic rows are normalized this many at a time, so np.linalg.norm's float64
# temporaries never span a whole split.
_NORM_ROWS = 2048

# Keys older configs and checkpoints carry but nothing reads: parsed and dropped.
_RETIRED_KEYS = frozenset({"context_vectors_m"})


@dataclass
class EmbeddingSet:
    """An n x d float32 embedding matrix with optional per-row class labels.

    ``labels`` uses -1 for "unlabeled".
    """

    data: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise InvariantError(
                f"embedding data must be 2-D, got shape {self.data.shape}"
            )
        n, d = self.data.shape
        if n < 1 or d < 1:
            raise InvariantError(f"embedding set needs n >= 1 and d >= 1, got {n}x{d}")
        if not np.isfinite(self.data).all():
            raise NonFiniteError("embedding data contains non-finite values")
        if self.labels is not None:
            given = np.asarray(self.labels)
            with np.errstate(invalid="ignore"):  # a NaN or out-of-range float fails below
                self.labels = np.ascontiguousarray(given, dtype=np.int32)
            if self.labels.shape != (n,):
                raise InvariantError(
                    f"labels shape {self.labels.shape} does not match n={n}"
                )
            if not np.array_equal(self.labels, given):
                raise InvariantError("labels must be integers that int32 holds exactly")
            if (self.labels < -1).any():
                raise InvariantError("labels must be -1 or non-negative")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def write_embedding_file(emb: EmbeddingSet, path) -> None:
    """Serialize ``emb`` to ``path`` in the GVLE format.

    Byte output is deterministic for equal inputs. Raises NonFiniteError if
    the data was mutated to contain NaN/Inf after construction; OSError if
    the path is unwritable.
    """
    if not np.isfinite(emb.data).all():
        raise NonFiniteError("refusing to write non-finite embedding values")
    with open(path, "wb") as f:  # the payload goes straight from the arrays to the file
        f.write(GVLE_MAGIC + struct.pack("<IIB", *emb.data.shape, emb.labels is not None))
        np.ascontiguousarray(emb.data, dtype="<f4").tofile(f)
        if emb.labels is not None:
            np.ascontiguousarray(emb.labels, dtype="<i4").tofile(f)


class ByteReader:
    """Bounded little-endian reads through one file, after its magic.

    Arrays are read straight into their own memory, so the file's bytes are
    never held twice. Every error names the byte offset where reading failed.
    The reader owns the open file; end() or a with statement closes it.
    """

    def __init__(self, path, magic: bytes):
        self.path = path
        file = open(path, "rb")
        info = os.fstat(file.fileno())
        if stat.S_ISREG(info.st_mode):
            self._file, self._size = file, info.st_size
        else:  # a pipe has no size to check lengths against, so it is read whole
            with file:
                data = file.read()
            self._file, self._size = io.BytesIO(data), len(data)
        found = self._file.read(len(magic))
        if found != magic:
            self.close()
            raise FormatError(f"{path}: bad magic at offset 0: expected {magic!r}, found {found!r}")
        self.offset = len(magic)

    def __enter__(self) -> "ByteReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._file.close()

    def _check(self, nbytes: int) -> None:
        available = self._size - self.offset
        if nbytes > available:
            raise FormatError(f"{self.path}: truncated at offset {self.offset}: "
                              f"needed {nbytes} bytes, only {available} available")

    def _fill(self, buf, nbytes: int):
        """Read the next nbytes, already checked, into buf, a buffer of that size."""
        got = self._file.readinto(buf)
        if got != nbytes:  # the file shrank after it was opened: re-check at its new size
            self._size = self.offset + got
            self._check(nbytes)
        self.offset += nbytes
        return buf

    def take(self, nbytes: int) -> bytearray:
        self._check(nbytes)
        return self._fill(bytearray(nbytes), nbytes)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, nbytes: int) -> str:
        start = self.offset
        try:
            return str(self.take(nbytes), "utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: bytes at offset {start} are not UTF-8") from None

    def array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        """A new array of the next prod(shape) items of dtype."""
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * math.prod(shape)
        self._check(nbytes)  # before an array of the size a header claims is allocated
        return self._fill(np.empty(shape, dtype=dtype), nbytes)

    def end(self) -> None:
        """Reject bytes left after the last field; with none left, close the file."""
        extra = self._size - self.offset
        if extra:
            raise FormatError(f"{self.path}: {extra} trailing bytes at offset {self.offset}")
        self.close()


def read_embedding_file(path) -> EmbeddingSet:
    """Parse a GVLE file back into an EmbeddingSet.

    Round-trips bit-exactly with write_embedding_file on data and labels.
    Errors name the byte offset of the offending field.
    """
    with ByteReader(path, GVLE_MAGIC) as r:
        n, d, has_labels = r.unpack("<IIB")
        if n == 0 or d == 0:
            raise FormatError(f"{path}: header declares empty set (n={n}, d={d})")
        if has_labels not in (0, 1):
            raise FormatError(f"{path}: has_labels byte at offset 12 must be 0/1, got {has_labels}")

        payload_off = r.offset
        data = r.array("<f4", (n, d))
        try:  # EmbeddingSet's finiteness check is the read's one n x d mask
            emb = EmbeddingSet(data)
        except NonFiniteError:
            off = payload_off + 4 * int(np.flatnonzero(~np.isfinite(data).ravel())[0])
            raise NonFiniteError(f"{path}: non-finite value at offset {off}") from None

        if has_labels:
            labels_off = r.offset
            labels = r.array("<i4", (n,))
            bad = np.flatnonzero(labels < -1)
            if bad.size:
                i = int(bad[0])
                raise FormatError(f"{path}: label {labels[i]} at offset {labels_off + 4 * i} "
                                  "is out of range (must be >= -1)")
            emb.labels = labels.astype(np.int32, copy=False)  # checked as __post_init__ would
        r.end()
    return emb


@dataclass
class RunConfig:
    """Hyperparameters for one pipeline run.

    hidden_dim=0 means "resolve to the input embedding dimension".
    losses_as_printed trains with the published equations' loss signs
    (see graphgcd.losses).
    """

    knn_k: int = 3
    gcn_layers: int = 2
    margin_alpha: float = 0.3
    learn_rate: float = 1e-3
    batch_size: int = 128
    epochs: int = 100
    seed: int = 0
    hidden_dim: int = 0
    temperature: float = 1.0
    losses_as_printed: bool = False

    def validate(self, known_class_count: int | None = None) -> None:
        if self.knn_k < 1:
            raise InputError(f"knn_k must be >= 1, got {self.knn_k}")
        if known_class_count is not None and self.knn_k >= known_class_count:
            raise InputError(
                f"knn_k={self.knn_k} must be < known class count {known_class_count}"
            )
        if self.gcn_layers not in (0, 1, 2, 3):
            raise InputError(f"gcn_layers must be in {{0,1,2,3}}, got {self.gcn_layers}")
        if not 0.0 <= self.margin_alpha <= 1.0:
            raise InputError(f"margin_alpha must be in [0,1], got {self.margin_alpha}")
        # written so that NaN fails the comparison too
        if not 0.0 < self.temperature < math.inf:
            raise InputError(f"temperature must be finite and > 0, got {self.temperature}")
        if not 0.0 < self.learn_rate < math.inf:
            raise InputError(f"learn_rate must be finite and > 0, got {self.learn_rate}")
        if self.batch_size < 1:
            raise InputError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise InputError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 <= self.seed < 2**64:
            raise InputError(f"seed must be a uint64, got {self.seed}")
        if self.hidden_dim < 0:
            raise InputError(f"hidden_dim must be >= 0, got {self.hidden_dim}")

    def resolved(self, input_dim: int) -> "RunConfig":
        """Return a copy with hidden_dim=0 replaced by the input dimension."""
        return dataclasses.replace(self, hidden_dim=self.hidden_dim or input_dim)


def format_config(config: RunConfig) -> str:
    """Render a RunConfig as key=value lines in field order, each value as its field's type."""
    lines = [f"{f.name}={type(f.default)(getattr(config, f.name))}"
             for f in dataclasses.fields(RunConfig)]
    return "\n".join(lines) + "\n"


def parse_decimal(field: str) -> int:
    """int() of exactly the text str() writes for it; int() alone also reads
    ' 1', '01', '1_0', '+1' and '-0'."""
    value = int(field)
    if str(value) != field:
        raise ValueError(f"invalid literal for int() with base 10: {field!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse the key=value lines format_config writes: retired keys dropped, unknown or
    repeated ones rejected, missing ones defaulted. A value must be the text its field's
    type writes for it, so padding, '01', and '1e-5' or '2' for a float are rejected. Lines
    end in '\\n' only, the last one too; any other line break is part of its line."""
    if not text.endswith("\n"):
        raise InputError("config block does not end in a newline")
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    values = {}
    for lineno, line in enumerate(text.split("\n")[:-1], start=1):
        key, eq, raw = line.partition("=")
        if not eq:
            raise InputError(f"config line {lineno}: expected key=value, got {line!r}")
        if key in _RETIRED_KEYS:
            continue
        if key not in fields:
            raise InputError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise InputError(f"config line {lineno}: repeated key {key!r}")
        kind = type(fields[key].default)
        try:
            value = raw == "True" if kind is bool else kind(raw)
            if f"{value}" != raw:
                raise ValueError(raw)
        except ValueError as exc:
            raise InputError(f"config line {lineno}: bad value for {key}: {raw!r}") from exc
        values[key] = value
    return RunConfig(**values)


def check_run_inputs(
    config: RunConfig,
    labeled: EmbeddingSet,
    class_emb: EmbeddingSet,
    unlabeled: EmbeddingSet | None = None,
) -> RunConfig:
    """Check that the input sets agree with each other and with config.

    The labeled set must carry labels that are class ids contiguous from 0,
    each with a row in class_emb; every set must share the labeled dimension;
    config must be valid for class_emb.n known classes. Returns config with
    hidden_dim resolved against the input dimension.
    """
    labels = labeled.labels
    if labels is None:
        raise InputError("the labeled file has no labels")
    if labels.min() < 0:
        raise InputError("the labeled file contains unlabeled rows (label -1)")
    if labels.max() >= class_emb.n:
        raise InputError(f"label {int(labels.max())} outside the {class_emb.n} known classes")
    if not np.bincount(labels).all():
        raise InputError("labeled class ids must be contiguous from 0")
    for name, other in (("class embedding", class_emb), ("unlabeled", unlabeled)):
        if other is not None and other.dim != labeled.dim:
            raise InputError(f"{name} dim {other.dim} != labeled dim {labeled.dim}")
    config.validate(known_class_count=class_emb.n)
    return config.resolved(labeled.dim)


def _draw_centers(rng: np.random.Generator, class_count: int, d: int) -> np.ndarray:
    centers = np.empty((class_count, d))
    have = 0
    for _ in range(_CENTER_ATTEMPTS):
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        if have == 0 or (centers[:have] @ v).max() <= _MAX_CENTER_COS:
            centers[have] = v
            have += 1
            if have == class_count:
                return centers
    raise InputError(
        f"could not place {class_count} class centers pairwise >=60 degrees "
        f"apart in {d} dimensions after {_CENTER_ATTEMPTS} attempts"
    )


def generate_synthetic(
    class_count: int,
    known_count: int,
    per_class: int,
    d: int,
    separation: float,
    seed: int,
) -> tuple[EmbeddingSet, EmbeddingSet, EmbeddingSet]:
    """Generate (labeled, unlabeled, class_embeddings) sets on the unit sphere.

    Class centers are drawn uniformly on the sphere with pairwise angular
    separation enforced by rejection; samples are center + Gaussian noise of
    scale 1/separation, L2-normalized. The labeled set holds per_class
    samples for each known class; the unlabeled set holds per_class fresh
    samples for every class (ground-truth labels kept for scoring);
    class_embeddings is one noisy copy of each known-class center.
    Deterministic given the seed.
    """
    if not 1 <= known_count <= class_count:
        raise InputError(
            f"need 1 <= known_count <= class_count, got {known_count}/{class_count}"
        )
    if per_class < 2:
        raise InputError(f"per_class must be >= 2, got {per_class}")
    if d < 1:
        raise InputError(f"d must be >= 1, got {d}")
    if not separation > 0:  # also rejects NaN; inf means zero noise
        raise InputError(f"separation must be > 0, got {separation}")
    if not 0 <= int(seed) < 2**64:
        raise InputError(f"seed must be a uint64, got {seed}")

    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    centers = _draw_centers(rng, class_count, d)
    sigma = 1.0 / separation

    def noisy(class_centers: np.ndarray, count: int) -> np.ndarray:
        # one draw fills every center's rows in the order a draw per center would
        x = rng.standard_normal((len(class_centers), count, d))
        x *= sigma
        x += class_centers[:, None, :]
        x = x.reshape(-1, d)
        out = np.empty(x.shape, dtype=np.float32)
        for start in range(0, len(x), _NORM_ROWS):
            rows = x[start : start + _NORM_ROWS]
            np.divide(rows, np.linalg.norm(rows, axis=1, keepdims=True),
                      out=out[start : start + _NORM_ROWS], casting="same_kind")
        return out

    class_emb = noisy(centers[:known_count], 1)

    labeled_rows = noisy(centers[:known_count], per_class)
    labeled_labels = np.repeat(np.arange(known_count, dtype=np.int32), per_class)

    unlabeled_rows = noisy(centers, per_class)
    unlabeled_labels = np.repeat(np.arange(class_count, dtype=np.int32), per_class)

    labeled = EmbeddingSet(labeled_rows, labeled_labels)
    unlabeled = EmbeddingSet(unlabeled_rows, unlabeled_labels)
    class_embeddings = EmbeddingSet(class_emb, np.arange(known_count, dtype=np.int32))
    return labeled, unlabeled, class_embeddings
