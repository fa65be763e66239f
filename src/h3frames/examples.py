"""Built-in example surfaces with closed-form frames and oracle invariants.

Each entry bundles a framed surface with its default sampling window and,
where available, closed-form oracle fields for the twelve invariants and
for (alpha, beta), plus the locations of known isolated singular points.
The oracles are invariant fields like any other: complex-analytic numpy
formulas that broadcast (a constant invariant stays a constant).  An
(alpha, beta) oracle is read from the entry's invariant oracle where it
has one.  Each formula is written once, here, and the test suite derives
the oracles exactly from the maps rather than trusting them blindly.

Registry names: ``cross_cap``, ``corank_one``, ``ruled_A``, ``ruled_B`` and
``horocyclic:<profile.csv>`` (curve data loaded from an h-profile file);
:func:`get_example` builds every entry, the horocyclic one from the loader,
sweep and closed forms of :mod:`h3frames.horocyclic`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from .errors import PreconditionError
from .frames import FramedSurface, Invariants, _alpha_beta
from .surface import Domain, ParametricMap4, components, zero4

__all__ = [
    "ExampleEntry",
    "example_names",
    "get_example",
    "cross_cap_surface",
    "cross_cap_oracle",
    "corank_one_surface",
    "corank_one_alpha_beta",
    "ruled_a_surface",
    "ruled_a_oracle",
    "ruled_b_surface",
    "ruled_b_oracle",
]

SQ3 = math.sqrt(3.0)


@dataclasses.dataclass(frozen=True)
class ExampleEntry:
    name: str
    framed: FramedSurface
    domain: Domain  # the default window of the calls that sample it
    oracle_invariants: Optional[Callable[[float, float], Invariants]] = None
    oracle_alpha_beta: Optional[Callable[[float, float], tuple[float, float]]] = None
    known_singularities: tuple[tuple[float, float, str], ...] = ()


# ---------------------------------------------------------------------------
# Cross cap:  x = (sqrt(W), u, v^2, u v),  W = u^2 + v^4 + u^2 v^2 + 1.
# ---------------------------------------------------------------------------


def _cc_sqrt_w(u, v):  # sqrt(W), powers written as products
    return np.sqrt(u * u + v * v * v * v + u * u * v * v + 1.0)


def cross_cap_surface() -> FramedSurface:
    """The standard cross cap with closed-form first derivatives."""

    def x(u, v):
        return components(_cc_sqrt_w(u, v), u, v * v, u * v)

    def x_firsts(u, v):
        s = _cc_sqrt_w(u, v)
        xu = components(u * (1.0 + v * v) / s, 1.0, 0.0, v)
        return xu, components((2.0 * v * v * v + u * u * v) / s, 0.0, 2.0 * v, u)

    def n1(u, v):
        P = np.sqrt(v * v * v * v + 1.0)
        return components(v * v * _cc_sqrt_w(u, v) / P, u * v * v / P, P, u * v * v * v / P)

    def n1_firsts(u, v):
        s = _cc_sqrt_w(u, v)
        P2 = v * v * v * v + 1.0
        P = np.sqrt(P2)
        P3 = P2 * P
        n1u = components(u * v * v * (1.0 + v * v) / (s * P), v * v / P, 0.0, v * v * v / P)
        return n1u, components(
            2.0 * v * s / P
            + v * v * (2.0 * v * v * v + u * u * v) / (s * P)
            - 2.0 * v * v * v * v * v * s / P3,
            2.0 * u * v / P3,
            2.0 * v * v * v / P,
            u * v * v * (v * v * v * v + 3.0) / P3,
        )

    def n2(u, v):
        Q = np.sqrt(v * v + 1.0)
        return components(0.0, v / Q, 0.0, -1.0 / Q)

    def n2_firsts(u, v):
        Q3 = (v * v + 1.0) * np.sqrt(v * v + 1.0)
        return zero4(u, v), components(0.0, 1.0 / Q3, 0.0, v / Q3)

    return FramedSurface(
        x=ParametricMap4(value=x, firsts=x_firsts),
        nu1=ParametricMap4(value=n1, firsts=n1_firsts),
        nu2=ParametricMap4(value=n2, firsts=n2_firsts),
    )


def cross_cap_oracle(u, v) -> Invariants:
    """Closed-form invariant field of the cross cap."""
    sW = _cc_sqrt_w(u, v)
    v4 = v * v * v * v
    P = np.sqrt(v4 + 1.0)
    Q = np.sqrt(v * v + 1.0)
    poly = 1.0 - v4 - 2.0 * v * v
    return Invariants(
        a1=0.0,
        a2=2.0 * v / P,
        b1=0.0,
        b2=-u / Q,
        c1=P * Q / sW,
        c2=u * v * poly / (sW * P * Q),
        e1=0.0,
        e2=-u * v * v / (P * Q),
        f1=v * v * Q / sW,
        f2=u * v * v * v * poly / ((v4 + 1.0) * sW * Q),
        g1=0.0,
        g2=sW / ((v * v + 1.0) * P),
    )


# ---------------------------------------------------------------------------
# Corank-one family:  x = (sqrt(S), u, f, g),  S = u^2 + f^2 + g^2 + 1.
# The normals and the (alpha, beta) oracle read S, Q, p and the numerator
# of k below from the values of f, g, f_u and g_u at the points.
# ---------------------------------------------------------------------------


def _corank_root_s(u, f, g):  # sqrt(S)
    return np.sqrt(u * u + f * f + g * g + 1.0)


def _corank_Q(u, g, g_u):  # (g - u g_u)^2 + g_u^2 + 1
    r = g - u * g_u
    return r * r + g_u * g_u + 1.0


def _corank_p(u, f, g, f_u, g_u):
    r1, r2, r3 = f - u * f_u, g - u * g_u, f_u * g - g_u * f
    return r1 * r1 + r2 * r2 + r3 * r3 + f_u * f_u + g_u * g_u + 1.0


def _corank_k_numerator(u, f, g, f_u, g_u):  # k Q
    return -(g * f + g_u * f_u) + u * (g_u * f + g * f_u) - u * u * f_u * g_u


def corank_one_surface(
    f: Callable[[float, float], float],
    g: Callable[[float, float], float],
    f_u: Callable[[float, float], float],
    f_v: Callable[[float, float], float],
    g_u: Callable[[float, float], float],
    g_v: Callable[[float, float], float],
) -> FramedSurface:
    """Corank-one family for user functions f, g.

    The construction assumes f_v(0,0) = g_v(0,0) = 0 (so the origin is a
    singular point of the base map); this is checked.  Normal fields
    carry no closed-form derivatives - the e/f/g invariants come out
    through complex-step partials.  The six
    callables must broadcast over arrays like the surface maps (a
    constant may return a float).
    """
    if abs(f_v(0.0, 0.0)) > 1e-12 or abs(g_v(0.0, 0.0)) > 1e-12:
        raise PreconditionError(
            "corank-one family needs f_v(0,0) = g_v(0,0) = 0, got "
            f"f_v = {f_v(0.0, 0.0):.3e}, g_v = {g_v(0.0, 0.0):.3e}"
        )

    def x(u, v):
        fv_, gv_ = f(u, v), g(u, v)
        return components(_corank_root_s(u, fv_, gv_), u, fv_, gv_)

    def x_firsts(u, v):
        fv_, gv_ = f(u, v), g(u, v)
        fu_, gu_ = f_u(u, v), g_u(u, v)
        fvv, gvv = f_v(u, v), g_v(u, v)
        sS = _corank_root_s(u, fv_, gv_)
        xu = components((u + fv_ * fu_ + gv_ * gu_) / sS, 1.0, fu_, gu_)
        return xu, components((fv_ * fvv + gv_ * gvv) / sS, 0.0, fvv, gvv)

    def nu2_parts(u, fv_, gv_, gu_):
        """sqrt(S), Q and the unnormalized nu2, bar2 = (u g_u - g) x +
        (0, g_u, 0, -1), from one reading of f, g, g_u."""
        sS = _corank_root_s(u, fv_, gv_)
        bar2 = (u * gu_ - gv_) * components(sS, u, fv_, gv_) + components(0.0, gu_, 0.0, -1.0)
        return sS, _corank_Q(u, gv_, gu_), bar2

    def n2(u, v):
        _, Q, bar2 = nu2_parts(u, f(u, v), g(u, v), g_u(u, v))
        return bar2 / np.sqrt(Q)

    def n1(u, v):
        # nu1 = sqrt(Q)/sqrt(p) (bar1 - k bar2) with bar2 unnormalized.
        fv_, gv_, fu_, gu_ = f(u, v), g(u, v), f_u(u, v), g_u(u, v)
        sS, Q, bar2 = nu2_parts(u, fv_, gv_, gu_)
        bar1 = components(
            (fv_ - u * fu_) * sS,
            u * fv_ - (1.0 + u * u) * fu_,
            1.0 + fv_ * fv_ - u * fv_ * fu_,
            fv_ * gv_ - u * gv_ * fu_,
        )
        k = _corank_k_numerator(u, fv_, gv_, fu_, gu_) / Q
        p = _corank_p(u, fv_, gv_, fu_, gu_)
        return np.sqrt(Q) / np.sqrt(p) * (bar1 - k * bar2)

    return FramedSurface(
        x=ParametricMap4(value=x, firsts=x_firsts),
        nu1=ParametricMap4(value=n1),
        nu2=ParametricMap4(value=n2),
    )


def corank_one_alpha_beta(
    f, g, f_u, f_v, g_u, g_v
) -> Callable[[float, float], tuple[float, float]]:
    """Closed-form (alpha, beta) field of the corank-one family."""

    def ab(u, v):
        fv_, gv_ = f(u, v), g(u, v)
        fu_, gu_ = f_u(u, v), g_u(u, v)
        fvv, gvv = f_v(u, v), g_v(u, v)
        Q = _corank_Q(u, gv_, gu_)
        sSQ = _corank_root_s(u, fv_, gv_) * np.sqrt(Q)
        q = gvv * _corank_k_numerator(u, fv_, gv_, fu_, gu_) + fvv * Q
        return gvv * np.sqrt(_corank_p(u, fv_, gv_, fu_, gu_)) / sSQ, q / sSQ

    return ab


# ---------------------------------------------------------------------------
# Hyperbolic ruled surfaces over the closed spherical curve gamma.
# ---------------------------------------------------------------------------


def _gamma(u):
    return components(
        13.0 / 5.0,
        (9.0 * np.cos(u) - 3.0 * np.cos(3.0 * u)) / 5.0,
        (9.0 * np.sin(u) - 3.0 * np.sin(3.0 * u)) / 5.0,
        6.0 * SQ3 * np.cos(u) / 5.0,
    )


def _gamma_p(u):
    return components(
        0.0,
        (-9.0 * np.sin(u) + 9.0 * np.sin(3.0 * u)) / 5.0,
        (9.0 * np.cos(u) - 9.0 * np.cos(3.0 * u)) / 5.0,
        -6.0 * SQ3 * np.sin(u) / 5.0,
    )


def _w(u):  # 144 sin^2 u + 25
    s = np.sin(u)
    return 144.0 * (s * s) + 25.0


def _w_and_r(u):  # w, and the ruled oracles' r = sqrt(432 sin^2 u + 75) = sqrt(3 w)
    w = _w(u)
    return w, np.sqrt(3.0 * w)


def _w_p(u):
    return 144.0 * np.sin(2.0 * u)


def _delta_a_numerator(u):
    s = np.sin(u)
    return components(
        -156.0 * s,
        -97.0 * np.sin(2.0 * u) + 18.0 * np.sin(4.0 * u),
        -50.0 * (s * s) - 144.0 * (s * s * s * s) + 25.0,
        -36.0 * SQ3 * np.sin(2.0 * u),
    )


def _delta_a(u):
    # Spacelike director of the first ruled surface: N(u) / (5 sqrt(w)).
    return _delta_a_numerator(u) / (5.0 * np.sqrt(_w(u)))


def _delta_a_p(u):
    N = _delta_a_numerator(u)
    s = np.sin(u)
    Np = components(
        -156.0 * np.cos(u),
        -194.0 * np.cos(2.0 * u) + 72.0 * np.cos(4.0 * u),
        -50.0 * np.sin(2.0 * u) - 576.0 * (s * s * s) * np.cos(u),
        -72.0 * SQ3 * np.cos(2.0 * u),
    )
    d = 5.0 * np.sqrt(_w(u))
    dp = 5.0 * _w_p(u) / (2.0 * np.sqrt(_w(u)))
    return Np / d - N * dp / (d * d)


def _nu1_numerator(u):
    return components(24.0 * np.cos(u), 13.0 * np.cos(2.0 * u), 13.0 * np.sin(2.0 * u), 13.0 * SQ3)


def _nu1_ruled(u):
    return _nu1_numerator(u) / (2.0 * np.sqrt(_w(u)))


def _nu1_ruled_p(u):
    Ap = components(-24.0 * np.sin(u), -26.0 * np.sin(2.0 * u), 26.0 * np.cos(2.0 * u), 0.0)
    w = _w(u)
    return Ap / (2.0 * np.sqrt(w)) - _nu1_numerator(u) * _w_p(u) / (4.0 * (w * np.sqrt(w)))


def _delta_b(u):
    return components(0.0, -SQ3 / 2.0 * np.cos(2.0 * u), -SQ3 / 2.0 * np.sin(2.0 * u), 0.5)


def _delta_b_p(u):
    return components(0.0, SQ3 * np.sin(2.0 * u), -SQ3 * np.cos(2.0 * u), 0.0)


def _ruled_surface(delta, delta_p, nu1, nu1_p, nu2, nu2_p) -> FramedSurface:
    def x(u, v):
        return np.cosh(v) * _gamma(u) + np.sinh(v) * delta(u)

    def x_firsts(u, v):
        ch, sh = np.cosh(v), np.sinh(v)
        return ch * _gamma_p(u) + sh * delta_p(u), sh * _gamma(u) + ch * delta(u)

    def along_u(n, n_p):  # a normal constant along each ruling
        return ParametricMap4(value=lambda u, v: n(u), firsts=lambda u, v: (n_p(u), zero4(u, v)))

    return FramedSurface(
        x=ParametricMap4(value=x, firsts=x_firsts), nu1=along_u(nu1, nu1_p), nu2=along_u(nu2, nu2_p)
    )


def ruled_a_surface() -> FramedSurface:
    """Ruled surface with two isolated cross cap singular points."""
    return _ruled_surface(_delta_a, _delta_a_p, _nu1_ruled, _nu1_ruled_p, _delta_b, _delta_b_p)


def ruled_a_oracle(u, v) -> Invariants:
    """Closed-form invariant field of the first ruled surface.

    The a1 (and hence beta) denominator is the full 144 sin^2 u + 25, not
    its square root; the squared version fails the frame reconstruction
    identity, see the unit tests pinning a1(pi/2, v) = -(5/13) sinh v.
    """
    w, r = _w_and_r(u)
    s, ch, sh = 12.0 * SQ3 * np.sin(u), np.cosh(v), np.sinh(v)
    return Invariants(
        a1=-65.0 * sh / w,
        a2=0.0,
        b1=(-s * ch + sh * r) / 5.0,
        b2=0.0,
        c1=0.0,
        c2=1.0,
        e1=0.0,
        e2=0.0,
        f1=65.0 * ch / w,
        f2=0.0,
        g1=(s * sh - ch * r) / 5.0,
        g2=0.0,
    )


def ruled_b_surface() -> FramedSurface:
    """Ruled surface whose singular set is the whole line v = 0."""
    return _ruled_surface(_delta_b, _delta_b_p, _nu1_ruled, _nu1_ruled_p, _delta_a, _delta_a_p)


def ruled_b_oracle(u, v) -> Invariants:
    """Closed-form invariant field of the second ruled surface."""
    w, r = _w_and_r(u)
    return Invariants(
        a1=0.0,
        a2=0.0,
        b1=-r * np.sinh(v) / 5.0,
        b2=0.0,
        c1=12.0 * SQ3 * np.sin(u) / 5.0,
        c2=-1.0,
        e1=65.0 / w,
        e2=0.0,
        f1=0.0,
        f2=0.0,
        g1=-r * np.cosh(v) / 5.0,
        g2=0.0,
    )


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


_BOX = Domain(-0.9, 0.9, -0.9, 0.9, nu=21, nv=21)  # cross_cap and corank_one
_RULED = Domain(-math.pi, math.pi, -1.0, 1.0, nu=41, nv=21, u_period=2.0 * math.pi)

# f = v^2, g = u v (and f_u, f_v, g_u, g_v) reproduces the cross cap.
_CORANK_ONE_FNS = (
    lambda u, v: v * v,
    lambda u, v: u * v,
    lambda u, v: 0.0,
    lambda u, v: 2.0 * v,
    lambda u, v: v,
    lambda u, v: u,
)


def _horocyclic_entry(name: str) -> ExampleEntry:
    """``horocyclic:<path>``: the profile's curve frame swept over its
    default domain; the closed-form invariant field doubles as the oracle."""
    from .horocyclic import build_horocyclic, horocyclic_invariants, load_h_profile

    profile = load_h_profile(name.split(":", 1)[1])
    data, dom = profile.curve_frame(), profile.domain()
    oracle = horocyclic_invariants(data)
    return ExampleEntry(name, build_horocyclic(data, dom), dom, oracle, _alpha_beta(oracle))


#: The entry of each registry name, made from the name looked up;
#: ``horocyclic:<profile.csv>`` stands for every ``horocyclic:`` name.
_REGISTRY: dict[str, Callable[[str], ExampleEntry]] = {
    "cross_cap": lambda name: ExampleEntry(
        name, cross_cap_surface(), _BOX, cross_cap_oracle, _alpha_beta(cross_cap_oracle),
        known_singularities=((0.0, 0.0, "cross_cap"),),
    ),
    "corank_one": lambda name: ExampleEntry(
        name, corank_one_surface(*_CORANK_ONE_FNS), _BOX,
        oracle_alpha_beta=corank_one_alpha_beta(*_CORANK_ONE_FNS),
        known_singularities=((0.0, 0.0, "cross_cap"),),
    ),
    "ruled_A": lambda name: ExampleEntry(
        name, ruled_a_surface(), _RULED, ruled_a_oracle, _alpha_beta(ruled_a_oracle),
        known_singularities=((0.0, 0.0, "cross_cap"), (math.pi, 0.0, "cross_cap")),
    ),
    # singular along the whole line v = 0, not at isolated points
    "ruled_B": lambda name: ExampleEntry(
        name, ruled_b_surface(), _RULED, ruled_b_oracle, _alpha_beta(ruled_b_oracle)
    ),
    "horocyclic:<profile.csv>": _horocyclic_entry,
}


def example_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def get_example(name: str) -> ExampleEntry:
    """Look up a built-in example by CLI name.

    ``horocyclic:<path>`` loads an h-profile CSV and integrates the
    generating curves.  Unknown names raise ``KeyError``.
    """
    key = "horocyclic:<profile.csv>" if name.startswith("horocyclic:") else name
    if key not in _REGISTRY:
        raise KeyError(f"unknown example {name!r}; available: {', '.join(example_names())}")
    return _REGISTRY[key](name)
