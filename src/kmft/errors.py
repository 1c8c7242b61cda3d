"""Exception types shared across the package."""


class KmftError(Exception):
    """Base class for all library errors."""


class ConfigError(KmftError):
    """Invalid configuration value or malformed input."""


class InitError(ConfigError):
    """Center initialization cannot produce k distinct centers: k is too large."""


class SegmentError(KmftError):
    """Out-of-bounds or otherwise invalid segment access."""


class SequenceError(KmftError):
    """Checkpoint calls issued out of protocol order."""


class PolicyError(KmftError):
    """Mirror policy cannot be applied to the given group."""


class UnrecoverableError(KmftError):
    """Failure state from which the run cannot continue."""


class InvariantError(KmftError):
    """An internal invariant broke; indicates a bug, not bad input."""


class Timeout(KmftError):
    """A blocking operation gave up waiting on a dead peer or a group."""


class SimDeadlock(KmftError):
    """No simulated rank can make progress; indicates a protocol bug."""
