"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: InputError -> 2, BudgetExceededError -> 3.
Everything else is a genuine bug.
"""

from __future__ import annotations


class DsKitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(DsKitError, ValueError):
    """Malformed or out-of-contract input (validation and precondition failures)."""


class ResonantError(InputError):
    """Two eigenvalues differ by a nonzero integer where nonresonance is required."""


class TruncationError(InputError):
    """A series operation needs more coefficients than the input carries."""


class BudgetExceededError(DsKitError):
    """An exhaustive search hit its node budget before reaching a verdict."""

