"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: UsageError/ConfigError -> 1,
DataError (and plain OSError) -> 2, NumericError -> 3.  A refused allocation
(MemoryError, as for `cost --set channels=1000000`) prints "out of memory" and
exits 1, whether a config size or a large input asked for it.
"""


class StegoError(Exception):
    """Base class for all package errors."""


class UsageError(StegoError):
    """An operation was called with arguments that can never be valid."""


class ConfigError(StegoError):
    """A configuration is internally inconsistent (shapes, grids, hops)."""


class DataError(StegoError):
    """A file or stream could not be read/written or failed validation."""


class NumericError(StegoError):
    """A computation produced NaN/Inf where finite values are required."""
