"""Exception taxonomy shared across the package.

One class stands for each CLI exit code: ``ConfigError`` covers bad
settings and unsupported requests (exit 1), ``DataError`` covers problems
with the data itself (exit 2). The message says which problem it is.
``PipelineError`` names the stage a failure happened in and keeps its
cause, whose class decides the exit code. Numerical non-convergence is
reported through result flags (exit 3), not exceptions.
"""

from __future__ import annotations


class PursuitError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PursuitError):
    """Invalid configuration, flags, or manifest contents (exit 1)."""


class DataError(PursuitError):
    """The supplied data cannot be used as requested (exit 2)."""


class PipelineError(PursuitError):
    """Failure inside a named pipeline stage, wrapping the original error."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
