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


class CommError(KmftError):
    """Base class for communication failures surfaced to callers."""


class Timeout(CommError):
    """A blocking operation gave up waiting on a peer or a group."""


class PeerDead(CommError):
    """The peer of a point-to-point or one-sided operation is corrupt."""


class SimDeadlock(KmftError):
    """No simulated rank can make progress; indicates a protocol bug."""
