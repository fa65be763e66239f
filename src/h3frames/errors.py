"""Exception types shared across the library.

Every failure that corresponds to a violated mathematical precondition
derives from :class:`GeometryError`, so callers (and the CLI) can map the
whole family to a single exit code while still catching specific cases.
"""

__all__ = [
    "GeometryError",
    "DegenerateFrameError",
    "DegenerateAnglesError",
    "CDegenerateError",
    "NormalizationError",
    "NonSpacelikeNormalError",
    "NotHorocyclicError",
    "OutsideDiscError",
    "OffHyperboloidError",
    "PreconditionError",
]


class GeometryError(ValueError):
    """Base class for violated geometric preconditions."""


class DegenerateFrameError(GeometryError):
    """Pseudo-orthonormality residual of a moving frame is too large."""


class DegenerateAnglesError(GeometryError):
    """Spherical angles of a normal are undefined (axis-aligned direction)."""


class CDegenerateError(GeometryError):
    """(c1, c2) vanishes where a corank-one construction requires it nonzero."""


class NormalizationError(GeometryError):
    """A vector that must be normalized has (near-)zero or wrong-sign norm."""


class NonSpacelikeNormalError(GeometryError):
    """A projected normal fails to be spacelike at some grid point."""

    def __init__(self, message, u=None, v=None, character=None):
        super().__init__(message)
        self.u = u
        self.v = v
        self.character = character


class NotHorocyclicError(GeometryError):
    """Invariant field does not have the horocyclic structure."""


class OutsideDiscError(GeometryError):
    """Point lies on or outside the unit sphere bounding the ball model."""


class OffHyperboloidError(GeometryError):
    """Point fails the hyperboloid constraint or lies on the wrong branch."""


class PreconditionError(GeometryError):
    """Generic violated precondition reported with context."""
