"""Tests for the Lorentz-Minkowski kernel."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from h3frames.minkowski import (
    CausalCharacter,
    causal_character,
    euclid_cross,
    euclid_dot,
    frame_gram_residual,
    gram_matrix,
    minkowski_dot3,
    minkowski_dot4,
    minkowski_norm,
    vec3,
    vec4,
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
vec4s = st.builds(vec4, finite, finite, finite, finite)
vec3s = st.builds(vec3, finite, finite, finite)

E1 = vec4(1, 0, 0, 0)
E2 = vec4(0, 1, 0, 0)
E3 = vec4(0, 0, 1, 0)
E4 = vec4(0, 0, 0, 1)


def test_vec4_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        vec4(float("nan"), 0, 0, 0)
    with pytest.raises(ValueError):
        vec4(0, float("inf"), 0, 0)
    with pytest.raises(ValueError):
        vec3(0, 0, float("-inf"))


def test_dot_signature():
    assert minkowski_dot4(E1, E1) == -1.0
    assert minkowski_dot4(E2, E2) == 1.0
    assert minkowski_dot4(E1, E2) == 0.0
    assert minkowski_dot3(vec3(1, 0, 0), vec3(1, 0, 0)) == -1.0
    assert minkowski_dot3(vec3(0, 2, 0), vec3(0, 3, 0)) == 6.0


def test_norm_uses_absolute_value():
    assert minkowski_norm(vec4(2, 0, 0, 0)) == 2.0
    assert minkowski_norm(vec4(0, 0, 3, 0)) == 3.0
    assert minkowski_norm(vec4(1, 1, 0, 0)) == 0.0


def test_wedge3_basis_orientation():
    # Formal determinant with first row (-e1, e2, e3, e4).
    assert np.array_equal(wedge3(E2, E3, E4), -E1)
    assert np.array_equal(wedge3(E1, E2, E3), -E4)
    assert np.array_equal(wedge3(E1, E2, E4), E3)
    assert np.array_equal(wedge3(E1, E3, E4), -E2)


def test_wedge2_r31_basis_orientation():
    f1, f2, f3 = vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1)
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
@example(vec4(0, 0, 0, 0), vec4(1, 2, 3, 4), vec4(-2, 0.5, 1, 0), vec4(3, -1, 0, 2))
def test_wedge3_determinant_identity(x, a, b, c):
    lhs = minkowski_dot4(x, wedge3(a, b, c))
    rhs = _leibniz_det(x, a, b, c)
    assert abs(lhs - rhs) <= 1e-12 * _norm_product(x, a, b, c)


@given(vec3s, vec3s, vec3s)
@example(vec3(0, 0, 0), vec3(1, 2, 3), vec3(-2, 0.5, 1))
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
    assert causal_character(vec4(0, 1, 0, 0)) is CausalCharacter.SPACELIKE
    assert causal_character(vec4(1, 0, 0, 0)) is CausalCharacter.TIMELIKE
    assert causal_character(vec4(1, 1, 0, 0)) is CausalCharacter.LIGHTLIKE
    assert causal_character(vec3(0.5, 0.5, 0)) is CausalCharacter.LIGHTLIKE
    # Boundary behaviour is set by tol.
    v = vec4(0, 1e-6, 0, 0)  # <v,v> = 1e-12
    assert causal_character(v, tol=1e-13) is CausalCharacter.SPACELIKE
    assert causal_character(v, tol=1e-10) is CausalCharacter.LIGHTLIKE


def test_gram_matrix_of_standard_frame():
    g = gram_matrix(E1, E2, E3, E4)
    assert np.array_equal(g, np.diag([-1.0, 1.0, 1.0, 1.0]))
    assert frame_gram_residual(E1, E2, E3, E4) == 0.0


def test_frame_gram_residual_orthonormalized_random_frame():
    rng = np.random.default_rng(7)
    for _ in range(25):
        # Boost + rotate the standard frame: stays pseudo-orthonormal.
        phi = rng.uniform(-1, 1)
        t = rng.uniform(0, 2 * math.pi)
        x = vec4(math.cosh(phi), math.sinh(phi), 0, 0)
        n1 = vec4(math.sinh(phi), math.cosh(phi), 0, 0)
        n2 = vec4(0, 0, math.cos(t), math.sin(t))
        n3 = vec4(0, 0, -math.sin(t), math.cos(t))
        assert frame_gram_residual(x, n1, n2, n3) <= 1e-10


@given(vec4s)
def test_causal_character_scaling_invariance(v):
    # Scaling by a positive factor can only move a vector across the
    # lightlike band set by tol, never between spacelike and timelike.
    a = causal_character(v)
    b = causal_character(2.0 * v)
    assert CausalCharacter.LIGHTLIKE in (a, b) or a is b
