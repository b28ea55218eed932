"""Exception types shared across the package.

The CLI maps every one of these onto an exit code with a one-line message:
config errors and invalid input (``ConfigError``, ``InvalidInputError``,
``DomainError``) exit with 2, numeric errors (``NumericError``) with 3.
"""


class MetagamesError(Exception):
    """Base class for package errors."""


class InvalidInputError(MetagamesError):
    """Malformed or non-finite numerical input."""


class DomainError(MetagamesError):
    """Input outside the mathematical domain of an operation."""


class ConfigError(MetagamesError):
    """Invalid configuration (unknown mode, inconsistent shapes, bad ranges)."""


class NumericError(MetagamesError):
    """An iterative numerical routine failed to converge."""
