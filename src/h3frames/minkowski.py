"""Linear algebra in Lorentz-Minkowski space.

Vectors live in R^4_1 with signature (-+++) or in R^3_1 with signature
(-++); the first coordinate is the timelike one in both cases.  Vectors are
plain ``numpy`` arrays of shape ``(4,)`` or ``(3,)``.  The products also
take component-first stacks of shape ``(4, *shape)`` / ``(3, *shape)`` and
then work elementwise over the trailing grid axes, with the same
summation order as for one vector.  Euclidean R^3, where the ball model's
framed surfaces live, has its dot and cross products here too.

The pseudo vector products are expanded by cofactors rather than delegated
to a generic determinant routine so the defining identity

    <x, a ^ b ^ c> = det(x, a, b, c)

holds to rounding error with no pivoting noise.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "CausalCharacter",
    "CAUSAL_TOL",
    "minkowski_dot4",
    "minkowski_dot3",
    "wedge3",
    "wedge2_r31",
    "euclid_dot",
    "euclid_cross",
    "causal_character",
    "frame_gram_residual",
]

#: Default threshold separating the causal characters.
CAUSAL_TOL = 1e-10


class CausalCharacter(enum.Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


def minkowski_dot4(a, b) -> float:
    """Pseudo scalar product -a1*b1 + a2*b2 + a3*b3 + a4*b4."""
    return -a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def minkowski_dot3(a, b) -> float:
    """Pseudo scalar product -a1*b1 + a2*b2 + a3*b3 in R^3_1."""
    return -a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _det3(r0, r1, r2) -> float:
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def wedge3(a, b, c) -> np.ndarray:
    """Pseudo vector product a ^ b ^ c in R^4_1.

    Expansion of the formal determinant with first row (-e1, e2, e3, e4)
    and remaining rows a, b, c.  Satisfies <x, a^b^c> = det(x, a, b, c)
    for every x, hence is pseudo-orthogonal to each factor.
    """
    m1 = _det3(a[1:], b[1:], c[1:])
    m2 = _det3((a[0], a[2], a[3]), (b[0], b[2], b[3]), (c[0], c[2], c[3]))
    m3 = _det3((a[0], a[1], a[3]), (b[0], b[1], b[3]), (c[0], c[1], c[3]))
    m4 = _det3(a[:3], b[:3], c[:3])
    return np.array([-m1, -m2, m3, -m4])


def wedge2_r31(a, b) -> np.ndarray:
    """Pseudo vector product a ^ b in R^3_1.

    Expansion with first row (-e1, e2, e3); satisfies
    <x, a^b> = det(x, a, b).
    """
    return np.array(
        [
            -(a[1] * b[2] - a[2] * b[1]),
            -(a[0] * b[2] - a[2] * b[0]),
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def euclid_dot(a, b) -> float:
    """Ordinary Euclidean scalar product (the same rounding as ``np.dot``),
    bilinear also for complex vectors: ``np.vecdot`` conjugates its first
    argument, and conjugating it beforehand undoes that."""
    return np.vecdot(np.conj(a), b, axis=0)


def euclid_cross(a, b) -> np.ndarray:
    """Ordinary Euclidean cross product in R^3."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def causal_character(v, tol: float = CAUSAL_TOL) -> CausalCharacter:
    """Classify v as spacelike (<v,v> > tol), timelike (< -tol) or lightlike."""
    q = minkowski_dot4(v, v) if len(v) == 4 else minkowski_dot3(v, v)
    if q > tol:
        return CausalCharacter.SPACELIKE
    if q < -tol:
        return CausalCharacter.TIMELIKE
    return CausalCharacter.LIGHTLIKE


def _gram_deviation(dot, vecs, diagonal) -> float:
    """Max abs deviation of the Gram matrix of ``vecs`` under ``dot`` from
    diag(``diagonal``); nan when a vector is not finite."""
    n = len(vecs)
    return np.array([
        abs(dot(vecs[i], vecs[j]) - (diagonal[i] if i == j else 0.0)) for i in range(n) for j in range(i, n)
    ]).max(axis=0)


def frame_gram_residual(x, n1, n2, n3) -> float:
    """Max abs deviation of the frame's Gram matrix from diag(-1, 1, 1, 1).

    Zero exactly when {x, n1, n2, n3} is a pseudo-orthonormal frame with
    timelike x; nan when a vector is not finite.
    """
    return _gram_deviation(minkowski_dot4, (x, n1, n2, n3), (-1.0, 1.0, 1.0, 1.0))
