"""Exception types shared across the package."""

from __future__ import annotations


class QmeasError(Exception):
    """Base class for all package errors."""

    code = "error"


class CapExceeded(QmeasError):
    """A dense operation would exceed the configured dimension cap."""

    code = "cap_exceeded"


class BadShape(QmeasError):
    """An array does not have the shape the operation requires."""

    code = "bad_shape"


class NotOrthonormal(QmeasError):
    """Vectors fail the unit-norm / pairwise-orthogonality check."""

    code = "not_orthonormal"


class BadBlock(QmeasError):
    """Structured block parameters are out of range."""

    code = "bad_block"


class BadFamilyParams(QmeasError):
    """A corner-family table violates its constraints."""

    code = "bad_family_params"


class BadQuery(QmeasError):
    """A query (bit string, depth, index) is inconsistent with its target."""

    code = "bad_query"


class MissingStage(QmeasError):
    """A staged class has no stage at the requested depth."""

    code = "missing_stage"


class BudgetExceeded(QmeasError):
    """Witness-test construction needs more blocks than the budget allows."""

    code = "budget_exceeded"

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class MeasureZeroPrefix(QmeasError):
    """Conditional sampling hit a prefix of measure zero."""

    code = "measure_zero_prefix"


class InsufficientData(QmeasError):
    """Not enough data for a statistically meaningful answer."""

    code = "insufficient_data"


class BadSpec(QmeasError):
    """Malformed input document (state, basis, test or family spec)."""

    code = "bad_spec"


class NumericHealthWarning(UserWarning):
    """Floating-point cleanup exceeded the expected rounding scale."""
