"""Exception hierarchy shared across the pipeline.

The CLI maps the three families onto exit codes: InputError -> 2,
NumericError -> 3, InvariantError -> 4. NonFiniteError and FormatError are
the InputError kinds that code raises or catches by name.
"""


class GraphGcdError(Exception):
    """Base class for all package errors."""


class InputError(GraphGcdError):
    """Bad user-supplied input: files, flags, shapes, config values."""


class NonFiniteError(InputError):
    """A value that must be finite is NaN or infinite."""


class FormatError(InputError):
    """Structurally invalid file contents; the message names where in the file."""


class NumericError(GraphGcdError):
    """Numeric failure at run time: divergence, zero vectors, overflow."""


class InvariantError(GraphGcdError):
    """An internal contract was violated; indicates a bug or corrupted state."""
