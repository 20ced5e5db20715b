"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2,
ReproductionStalledError -> 4, everything else -> 3.
"""

from __future__ import annotations


class GenilError(Exception):
    """Base class for all package errors."""


class ConfigError(GenilError):
    """Invalid configuration: unknown env, bad key, dimension mismatch."""


class DegenerateDemoError(GenilError):
    """Demo pair generation could not achieve the required return ordering."""


class DatasetTooSmallError(GenilError):
    """Parent sampling requires at least two trajectories."""


class InvalidTrajectoryError(GenilError):
    """A trajectory violates a structural invariant (empty, non-finite, ...)."""


class MutationPoolError(GenilError):
    """Mutation requested with an empty state pool."""


class ReproductionStalledError(GenilError):
    """Offspring generation exhausted its attempt budget before filling quotas.

    Carries the per-bucket fill state so callers can report which rank
    intervals starved.
    """

    def __init__(self, message: str, bucket_fill: dict[int, int], quota: int, attempts: int):
        super().__init__(message)
        self.bucket_fill = dict(bucket_fill)
        self.quota = quota
        self.attempts = attempts

    def __reduce__(self):
        # pickle rebuilds an exception from its args; the message alone is
        # not enough here, and a process pool pickles what a worker raises
        return type(self), (self.args[0], self.bucket_fill, self.quota, self.attempts)


class EmptyPairError(GenilError):
    """No snippet pair satisfies the margin requirement."""


class DivergenceError(GenilError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step

    def __reduce__(self):
        return type(self), (self.args[0], self.step)


class DegenerateEvalError(GenilError):
    """Evaluation set has no ground-truth return spread."""


class MissingArtifactError(GenilError):
    """A stage's input file does not exist; run the producing stage first."""


class CorruptArtifactError(GenilError):
    """An artifact file does not parse: malformed JSON, a missing field, or
    a value of the wrong type or shape.  The message names the file."""
