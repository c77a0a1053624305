"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: InputError -> 1, ConfigError -> 2,
InternalError -> 3.
"""


class TvtSynError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TvtSynError):
    """Invalid configuration: bad shapes, inconsistent dims, misaligned chunk sizes."""


class InputError(TvtSynError):
    """Invalid runtime input: wrong lengths, unreadable files, bad audio format."""


class FormatError(InputError):
    """Malformed weight container or config file."""


class StateError(InputError):
    """Session lifecycle misuse, e.g. feeding a flushed session."""


class InternalError(TvtSynError):
    """Invariant violation inside the library (a block longer than its KV
    ring was sized for, a causality-probe violation)."""
