"""Tests for the Lorentz-Minkowski kernel."""

import itertools
import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from h3frames.minkowski import (
    CausalCharacter,
    _bound,
    causal_character,
    euclid_cross,
    euclid_dot,
    frame_gram_residual,
    minkowski_dot3,
    minkowski_dot4,
    wedge2_r31,
    wedge3,
)

finite = st.floats(
    min_value=-1e3,
    max_value=1e3,
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=False,
)
vec4s = st.tuples(finite, finite, finite, finite).map(lambda c: np.array(c, dtype=float))
vec3s = st.tuples(finite, finite, finite).map(lambda c: np.array(c, dtype=float))

E1 = np.array([1, 0, 0, 0], dtype=float)
E2 = np.array([0, 1, 0, 0], dtype=float)
E3 = np.array([0, 0, 1, 0], dtype=float)
E4 = np.array([0, 0, 0, 1], dtype=float)


def test_dot_signature():
    assert minkowski_dot4(E1, E1) == -1.0
    assert minkowski_dot4(E2, E2) == 1.0
    assert minkowski_dot4(E1, E2) == 0.0
    assert minkowski_dot3(np.array([1, 0, 0], dtype=float), np.array([1, 0, 0], dtype=float)) == -1.0
    assert minkowski_dot3(np.array([0, 2, 0], dtype=float), np.array([0, 3, 0], dtype=float)) == 6.0


def test_wedge3_basis_orientation():
    # Formal determinant with first row (-e1, e2, e3, e4).
    assert np.array_equal(wedge3(E2, E3, E4), -E1)
    assert np.array_equal(wedge3(E1, E2, E3), -E4)
    assert np.array_equal(wedge3(E1, E2, E4), E3)
    assert np.array_equal(wedge3(E1, E3, E4), -E2)


def test_wedge2_r31_basis_orientation():
    f1, f2, f3 = np.eye(3)
    assert np.array_equal(wedge2_r31(f2, f3), -f1)
    assert np.array_equal(wedge2_r31(f1, f2), f3)
    assert np.array_equal(wedge2_r31(f1, f3), -f2)


def _norm_product(*vectors):
    # Hadamard-style scale: rounding noise of a determinant (or wedge) is
    # proportional to the product of the factor norms.
    p = 1.0
    for v in vectors:
        p *= float(np.linalg.norm(v))
    return max(1.0, p)


def _leibniz_det(*rows):
    # Reference determinant as the signed sum over permutations: unlike
    # np.linalg.det it never warns, also on a singular matrix.
    total = 0.0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1 :])
        term = math.prod(float(row[j]) for row, j in zip(rows, perm))
        total += -term if inversions % 2 else term
    return total


@given(vec4s, vec4s, vec4s, vec4s)
@example(*np.array([[0, 0, 0, 0], [1, 2, 3, 4], [-2, 0.5, 1, 0], [3, -1, 0, 2]], dtype=float))
def test_wedge3_determinant_identity(x, a, b, c):
    lhs = minkowski_dot4(x, wedge3(a, b, c))
    rhs = _leibniz_det(x, a, b, c)
    assert abs(lhs - rhs) <= 1e-12 * _norm_product(x, a, b, c)


@given(vec3s, vec3s, vec3s)
@example(*np.array([[0, 0, 0], [1, 2, 3], [-2, 0.5, 1]], dtype=float))
def test_wedge2_determinant_identity(x, a, b):
    lhs = minkowski_dot3(x, wedge2_r31(a, b))
    rhs = _leibniz_det(x, a, b)
    assert abs(lhs - rhs) <= 1e-12 * _norm_product(x, a, b)


@given(vec4s, vec4s, vec4s)
def test_wedge3_alternating(a, b, c):
    assert np.max(np.abs(wedge3(a, a, c))) <= 1e-14 * _norm_product(a, a, c)
    assert np.max(np.abs(wedge3(a, b, b))) <= 1e-14 * _norm_product(a, b, b)
    assert np.max(np.abs(wedge3(a, c, a))) <= 1e-14 * _norm_product(a, c, a)
    assert np.max(np.abs(wedge3(a, b, c) + wedge3(b, a, c))) <= 1e-14 * _norm_product(
        a, b, c
    )


@given(vec4s, vec4s, vec4s)
def test_wedge3_orthogonal_to_factors(a, b, c):
    w = wedge3(a, b, c)
    for f in (a, b, c):
        assert abs(minkowski_dot4(f, w)) <= 1e-12 * _norm_product(f, a, b, c)


def test_euclid_ops():
    assert euclid_dot((1, 2, 3), (4, 5, 6)) == 32.0
    assert np.array_equal(euclid_cross((1, 0, 0), (0, 1, 0)), np.array([0.0, 0.0, 1.0]))


def test_causal_character_thresholds():
    assert causal_character(np.array([0, 1, 0, 0], dtype=float)) is CausalCharacter.SPACELIKE
    assert causal_character(np.array([1, 0, 0, 0], dtype=float)) is CausalCharacter.TIMELIKE
    assert causal_character(np.array([1, 1, 0, 0], dtype=float)) is CausalCharacter.LIGHTLIKE
    assert causal_character(np.array([0.5, 0.5, 0], dtype=float)) is CausalCharacter.LIGHTLIKE
    # Boundary behaviour is set by tol.
    v = np.array([0, 1e-6, 0, 0], dtype=float)  # <v,v> = 1e-12
    assert causal_character(v, tol=1e-13) is CausalCharacter.SPACELIKE
    assert causal_character(v, tol=1e-10) is CausalCharacter.LIGHTLIKE


def test_gram_matrix_of_standard_frame():
    assert frame_gram_residual(E1, E2, E3, E4) == 0.0


def test_frame_gram_residual_orthonormalized_random_frame():
    rng = np.random.default_rng(7)
    for _ in range(25):
        # Boost + rotate the standard frame: stays pseudo-orthonormal.
        phi = rng.uniform(-1, 1)
        t = rng.uniform(0, 2 * math.pi)
        x = np.array([math.cosh(phi), math.sinh(phi), 0, 0], dtype=float)
        n1 = np.array([math.sinh(phi), math.cosh(phi), 0, 0], dtype=float)
        n2 = np.array([0, 0, math.cos(t), math.sin(t)], dtype=float)
        n3 = np.array([0, 0, -math.sin(t), math.cos(t)], dtype=float)
        assert frame_gram_residual(x, n1, n2, n3) <= 1e-10


@given(vec4s)
def test_causal_character_scaling_invariance(v):
    # Scaling by a positive factor can only move a vector across the
    # lightlike band set by tol, never between spacelike and timelike.
    a = causal_character(v)
    b = causal_character(2.0 * v)
    assert CausalCharacter.LIGHTLIKE in (a, b) or a is b


def test_bound_is_per_point_relative_and_nan_where_the_size_overflows():
    # tol * max(1, s^2) with s the largest Euclidean norm among the vectors
    # at each point, by real parts; nan (failing every comparison) where s^2
    # is not finite, with no numpy warning on the way
    a, b = np.zeros((2, 4, 4))  # four points each, component-first
    a[0], b[1] = [0.5, 3.0, 1e155, np.nan], [0.5, 4.0, 0.0, 0.0]
    got = _bound(1e-9, a, b)
    assert got[:2].tolist() == [1e-9, 1e-9 * 16.0] and np.isnan(got[2:]).all()
    assert _bound(1e-9, np.array([2.0 + 1e-20j, 0.0, 0.0, 0.0])) == 4e-9
