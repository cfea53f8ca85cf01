"""Exception hierarchy, the allocation budget and the one rule for coordinate
arguments, shared across the package."""

import numpy as np

# the largest array one input may ask for; sizes past it are input errors
ALLOC_BUDGET_BYTES = 1 << 30


class LieForgeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(LieForgeError):
    """Malformed input: dimension mismatch, unknown group name, bad config."""


class SingularityError(LieForgeError):
    """A matrix or metric is singular / too ill-conditioned to proceed.

    Carries the condition estimate (if available) and optionally the point
    at which the degeneracy occurred.
    """

    def __init__(self, message, condition=None, point=None):
        super().__init__(message)
        self.condition = condition
        self.point = point


class NumericRangeError(LieForgeError):
    """Non-finite kernel input or metric, or a spectrum past the range of the
    series for psi's divided differences."""


class DomainError(LieForgeError):
    """A point leaves the chart's safe domain."""


def check_alloc(nbytes: int, what: str) -> None:
    """Reject an allocation of ``nbytes`` past the budget as an input error."""
    if nbytes > ALLOC_BUDGET_BYTES:
        raise InvalidInputError(
            f"{what} would need more than the {ALLOC_BUDGET_BYTES >> 30} GiB allocation budget")


def as_points(points, width: int, *name: str, one: bool = False) -> np.ndarray:
    """Coordinates as floats: with ``one`` a single point (width,), else a batch
    (m, width) flattened from (..., width); a scalar is one coordinate.  A wrong
    width or an empty batch is an input error naming the chart or field as its
    field does, ``name``'s parts joined by '-', and the shape the caller passed."""
    pts = np.asarray(points, dtype=float)
    shape = pts.shape
    if (shape[-1:] or (1,)) == (width,) and not (one and shape[:-1]):
        pts = pts.reshape(width) if one else pts.reshape(-1, width)
        if len(pts):
            return pts
    raise InvalidInputError(
        f"{'-'.join(name)} takes points of {width} coordinates, got shape {shape}")
