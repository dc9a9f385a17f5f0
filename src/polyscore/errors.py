"""The three kinds of failure, one per nonzero exit code of the CLI.

Every package exception that can reach ``cli.main`` subclasses exactly one of
these, so an exception class is mapped to its exit code where it is declared.
"""


class ConfigError(Exception):
    """A usage or configuration error (exit code 1)."""


class DataError(Exception):
    """An unreadable or malformed input file (exit code 2)."""


class ModelError(Exception):
    """Model input or output the network or decoder cannot handle (exit code 3)."""
