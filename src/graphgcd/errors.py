"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: InputError -> 2, NumericError -> 3,
InvariantError -> 4.
"""


class GraphGcdError(Exception):
    """Base class for all package errors."""


class InputError(GraphGcdError):
    """Bad user-supplied input: files, flags, shapes, config values."""


class BadMagicError(InputError):
    """File does not start with the expected magic bytes."""

    def __init__(self, path, expected: bytes, found: bytes):
        super().__init__(
            f"{path}: bad magic at offset 0: expected {expected!r}, found {found!r}"
        )


class TruncatedError(InputError):
    """File ended before a declared field was fully read."""

    def __init__(self, path, offset: int, needed: int, available: int):
        super().__init__(
            f"{path}: truncated at offset {offset}: "
            f"needed {needed} bytes, only {available} available"
        )


class LabelRangeError(InputError):
    """A stored label is outside the valid range."""

    def __init__(self, path, offset: int, value: int):
        super().__init__(
            f"{path}: label {value} at offset {offset} is out of range (must be >= -1)"
        )


class NonFiniteError(InputError):
    """A value that must be finite is NaN or infinite."""


class FormatError(InputError):
    """Structurally invalid file contents not covered by a more specific error."""


class NumericError(GraphGcdError):
    """Numeric failure at run time: divergence, zero vectors, overflow."""


class InvariantError(GraphGcdError):
    """An internal contract was violated; indicates a bug or corrupted state."""
