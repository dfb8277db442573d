"""Exception types shared across the package.

Everything raised on purpose derives from :class:`SubzeroError` so callers can
catch library failures without also swallowing programming errors.
"""

from __future__ import annotations

import numbers


class SubzeroError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SubzeroError, ValueError):
    """A matrix or parameter list has inconsistent or unsupported dimensions."""


class RankDeficient(SubzeroError, ArithmeticError):
    """A QR factorization produced a numerically rank-deficient basis."""


class NonFiniteLoss(SubzeroError, ArithmeticError):
    """A loss evaluation returned NaN or infinity."""


class DegenerateGradient(SubzeroError, ArithmeticError):
    """A diagnostic needed a nonzero gradient but the norm was below tolerance."""


class AllocationRefused(SubzeroError, MemoryError):
    """A dense d-by-q allocation would exceed the configured entry budget."""


class ScaleRefused(SubzeroError, ValueError):
    """A verification routine was asked to materialize something too large."""


class BlockMismatch(SubzeroError, RuntimeError):
    """A block-evaluated Monte Carlo sample disagreed with the estimator's
    own result for the same seed."""


class BudgetExceeded(SubzeroError, RuntimeError):
    """A step or evaluation budget ran out before the stopping criterion."""


class ConfigError(SubzeroError, ValueError):
    """An experiment configuration failed validation."""


def check_count(name: str, value, least=None) -> None:
    """Refuse a bool, a non-integer, or a count below ``least`` if given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or least is not None and value < least):
        at_least = "" if least is None else f" of at least {least}"
        raise ConfigError(f"{name} must be an integer{at_least}, got {value!r}")


def check_counts(section, minimums: dict) -> None:
    """Run check_count on each field of ``section`` named in ``minimums``."""
    for name, least in minimums.items():
        check_count(name, getattr(section, name), least)


class StepFailure(SubzeroError, RuntimeError):
    """A training step aborted; carries the step index for context."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step
