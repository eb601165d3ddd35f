"""Exception types raised across the package."""


class FragsimError(Exception):
    """Base class for all package errors."""


class NegativeMass(FragsimError):
    """A fragment mass, dust value, or mass budget was negative."""


class RankOutOfRange(FragsimError):
    """Requested fragment rank does not exist in the state."""


class InvalidFragmentVector(FragsimError):
    """Fragment vector is not non-negative, non-increasing, with sum <= 1."""


class InvalidPartition(FragsimError, ValueError):
    """Partition blocks are empty, overlap, or do not cover the ground set."""


class DivergentMeasure(FragsimError):
    """Dislocation measure violates the finite lost-mass integral condition."""


class EmptyTruncation(FragsimError):
    """Truncation threshold removes every dislocation."""


class DeadState(FragsimError):
    """No fragment remains that can dislocate, or every rate underflows to 0."""


class RateOverflow(FragsimError):
    """Mass-biased jump rates overflow, as tiny fragments do at alpha < 0."""


class DegenerateNormalizer(FragsimError):
    """Normalizing scale is zero at the requested time."""


class EmptySample(FragsimError):
    """Empirical distribution requested for an empty sample."""


class InsufficientData(FragsimError):
    """Not enough observations or categories for the goodness-of-fit test."""


class UnknownSuite(FragsimError):
    """Verification suite name not recognized."""


class ConfigError(FragsimError):
    """Malformed configuration file, key, or value."""


def check_range(value, test, message):
    """Raise ConfigError(message.format(value)) unless test(value) holds.

    A value that cannot be compared as a number, such as a str, None or an
    array of several numbers, fails the test where comparing it would raise
    a bare TypeError or ValueError.
    """
    try:
        if test(value):
            return
    except (TypeError, ValueError):
        pass
    raise ConfigError(message.format(value))
