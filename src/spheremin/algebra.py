"""Factored meromorphic functions on the Riemann sphere.

A function is stored as a nonzero scalar times a product of integer
powers of `z` and of shifted power factors `z**k - c`.  This covers the
Gauss maps and height-differential coefficients of all surfaces built
here while keeping zeros, poles, orders and residues exactly enumerable.
Sums are never represented structurally; composite integrands are
evaluated pointwise.

Two finite points are the same point when they lie within a relative
1e-9 of each other (`same_point`); every root, pole and puncture match
in the package goes through that one rule.  A function's table of
(root, aggregated order) pairs is built once, when it is created, and
every zero/pole query reads it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    NoConvergence,
    PoleEvaluation,
    SingularityInsideContour,
    SingularPoint,
    UnsupportedOrder,
)

MONOMIAL = 0
SHIFTED = 1

_ROOT_MATCH_TOL = 1e-9


class _Infinity:
    """The distinguished point z = infinity; compares equal only to itself."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Infinity()


def is_infinity(p) -> bool:
    return isinstance(p, _Infinity)


def same_point(p, q, tol=_ROOT_MATCH_TOL) -> bool:
    """Sphere-point equality: INF matches only INF, finite points within tol."""
    if is_infinity(p) or is_infinity(q):
        return is_infinity(p) and is_infinity(q)
    return abs(complex(p) - complex(q)) <= tol * max(1.0, abs(complex(p)))


def _fmt_number(x: complex) -> str:
    x = complex(x)
    if x.imag == 0.0:
        return f"{x.real:.6g}"
    return f"({x.real:.6g}{x.imag:+.6g}j)"


@dataclass(frozen=True)
class Factor:
    """One multiplicative building block: z**exponent or (z**k - c)**exponent."""

    kind: int
    k: int
    c: complex
    exponent: int

    def __post_init__(self):
        if self.exponent == 0:
            raise ValueError("factor exponent must be nonzero")
        if self.k < 1:
            raise ValueError("factor degree k must be >= 1")
        if self.kind == MONOMIAL and (self.k != 1 or self.c != 0):
            raise ValueError("monomial factor must have k=1, c=0")
        if not (math.isfinite(self.c.real) and math.isfinite(self.c.imag)):
            raise ValueError("factor shift must be finite")

    @property
    def degree(self) -> int:
        return 1 if self.kind == MONOMIAL else self.k

    def base_value(self, z: complex) -> complex:
        if self.kind == MONOMIAL:
            return z
        return z ** self.k - self.c

    def base_derivative(self, z: complex) -> complex:
        if self.kind == MONOMIAL:
            return 1.0
        return self.k * z ** (self.k - 1)

    def roots(self):
        """All roots of the base, exactly enumerated (no fractional powers
        ever enter evaluation; these are used for singularity bookkeeping)."""
        if self.kind == MONOMIAL:
            return [0j]
        r = abs(self.c) ** (1.0 / self.k)
        phi = cmath.phase(self.c)
        return [
            r * cmath.exp(1j * (phi + 2.0 * math.pi * j) / self.k)
            for j in range(self.k)
        ]

    def __str__(self):
        if self.kind == MONOMIAL:
            return f"z^{self.exponent}"
        zk = "z" if self.k == 1 else f"z^{self.k}"
        return f"({zk} - {_fmt_number(self.c)})^{self.exponent}"


def monomial(exponent: int = 1) -> Factor:
    return Factor(MONOMIAL, 1, 0j, exponent)


def shifted_power(k: int, c: complex, exponent: int = 1) -> Factor:
    """The factor (z**k - c)**exponent; c == 0 collapses to a monomial."""
    if c == 0:
        return monomial(k * exponent)
    return Factor(SHIFTED, k, complex(c), exponent)


class FactoredMeromorphic:
    """coefficient * prod(factor**exponent), immutable after construction."""

    __slots__ = ("coefficient", "factors", "_packed", "_roots")

    def __init__(self, coefficient: complex, factors=()):
        coefficient = complex(coefficient)
        if coefficient == 0:
            raise ValueError("coefficient must be nonzero")
        if not (math.isfinite(coefficient.real) and math.isfinite(coefficient.imag)):
            raise ValueError("coefficient must be finite")
        merged: dict = {}
        for f in factors:
            if f.kind == SHIFTED and f.c == 0:
                f = monomial(f.k * f.exponent)
            key = (f.kind, f.k, f.c)
            merged[key] = merged.get(key, 0) + f.exponent
        kept = [
            Factor(kind, k, c, e)
            for (kind, k, c), e in merged.items()
            if e != 0
        ]
        kept.sort(key=lambda f: (f.kind, f.k, f.c.real, f.c.imag))
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "factors", tuple(kept))
        packed = (
            np.array([f.kind for f in kept], dtype=np.int64),
            np.array([f.k for f in kept], dtype=np.int64),
            np.array([f.c for f in kept], dtype=np.complex128),
            np.array([f.exponent for f in kept], dtype=np.int64),
        )
        object.__setattr__(self, "_packed", packed)
        # (root, aggregated order) over every factor root; entries whose
        # orders cancel stay, so contour sizing still sees them
        roots: list = []
        for f in kept:
            for r in f.roots():
                for i, (r0, o) in enumerate(roots):
                    if same_point(r0, r):
                        roots[i] = (r0, o + f.exponent)
                        break
                else:
                    roots.append((r, f.exponent))
        object.__setattr__(self, "_roots", tuple(roots))

    def __setattr__(self, name, value):
        raise AttributeError("FactoredMeromorphic is immutable")

    # -- evaluation ----------------------------------------------------

    def __call__(self, z):
        if isinstance(z, np.ndarray):
            return self.eval_array(z)
        return self.eval(z)

    def eval(self, z: complex) -> complex:
        """Scalar evaluation, factor by factor; raises PoleEvaluation if z
        sits exactly on a pole."""
        z = complex(z)
        acc = self.coefficient
        for f in self.factors:
            base = f.base_value(z)
            if base == 0:
                if f.exponent < 0:
                    raise PoleEvaluation(z, f)
                return 0j
            acc *= base ** f.exponent
        return acc

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; no pole checks (callers keep nodes off
        the singular set)."""
        zf = np.ascontiguousarray(z, dtype=np.complex128).ravel()
        out = np.empty_like(zf)
        kinds, ks, cs, exps = self._packed
        kernels.eval_product(self.coefficient, kinds, ks, cs, exps, zf, out)
        return out.reshape(np.shape(z))

    def log_derivative(self, z: complex) -> complex:
        """f'(z)/f(z) as a sum over factors; z must be neither zero nor pole."""
        z = complex(z)
        acc = 0j
        for f in self.factors:
            base = f.base_value(z)
            if base == 0:
                raise SingularPoint(f"log-derivative at zero/pole z={z!r} of {f}")
            acc += f.exponent * f.base_derivative(z) / base
        return acc

    # -- structure queries ---------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree: order of growth at infinity."""
        return sum(f.exponent * f.degree for f in self.factors)

    def finite_roots(self):
        """(root, order) pairs over all finite zeros and poles, orders
        aggregated when distinct factors share a root."""
        return [(r, o) for r, o in self._roots if o != 0]

    def finite_poles(self):
        return [r for r, o in self.finite_roots() if o < 0]

    def order_at(self, p) -> int:
        """Zero order (>0), pole order (<0) or 0 at a sphere point."""
        if is_infinity(p):
            return -self.degree
        return sum(o for r, o in self._roots if same_point(r, p))

    def __mul__(self, other):
        if isinstance(other, FactoredMeromorphic):
            return FactoredMeromorphic(
                self.coefficient * other.coefficient, self.factors + other.factors
            )
        return FactoredMeromorphic(self.coefficient * complex(other), self.factors)

    __rmul__ = __mul__

    def inverse(self):
        return FactoredMeromorphic(
            1.0 / self.coefficient,
            tuple(Factor(f.kind, f.k, f.c, -f.exponent) for f in self.factors),
        )

    def __str__(self):
        parts = [_fmt_number(self.coefficient)]
        parts.extend(str(f) for f in self.factors)
        return " * ".join(parts)

    __repr__ = __str__


def infinity_chart(f: FactoredMeromorphic, one_form: bool = False) -> FactoredMeromorphic:
    """Pull f back through w = 1/z.

    As a function the result is w -> f(1/w); as a one-form coefficient
    (dz = -dw/w**2) it is w -> -f(1/w)/w**2.  Both stay in factored form:
    (z**k - c)**e becomes (-c)**e * (w**k - 1/c)**e * w**(-k e).
    """
    coeff = f.coefficient
    mono_exp = 0
    new_factors = []
    for fac in f.factors:
        if fac.kind == MONOMIAL:
            mono_exp -= fac.exponent
        else:
            coeff *= (-fac.c) ** fac.exponent
            mono_exp -= fac.k * fac.exponent
            new_factors.append(shifted_power(fac.k, 1.0 / fac.c, fac.exponent))
    if one_form:
        coeff = -coeff
        mono_exp -= 2
    if mono_exp != 0:
        new_factors.append(monomial(mono_exp))
    return FactoredMeromorphic(coeff, new_factors)


def one_form_order_at(f: FactoredMeromorphic, p) -> int:
    """Order of the one-form f dz at a sphere point (chart-corrected at INF)."""
    if is_infinity(p):
        return infinity_chart(f, one_form=True).order_at(0)
    return f.order_at(p)


# -- residues ---------------------------------------------------------


def contour_radius(p, points) -> float:
    """Half the distance from p to the nearest other point, or 1.0 when
    there is none: no other singularity comes within twice the radius, so
    the trapezoidal error decays at least like 2**-nodes."""
    dists = [abs(q - p) for q in points if not same_point(p, q)]
    return 0.5 * min(dists) if dists else 1.0


def default_contour_radius(f: FactoredMeromorphic, p: complex) -> float:
    """`contour_radius` over every root of every factor of f."""
    return contour_radius(complex(p), [r for r, _ in f._roots])


def residue_contour(f, p, radius=None, nodes=64, rel_tol=1e-12, max_nodes=4096):
    """(1/2 pi i) * contour integral of f around p by the trapezoidal rule.

    f may be a FactoredMeromorphic or any callable accepting complex
    arrays.  Node count doubles until two successive estimates agree;
    spectral accuracy makes this converge geometrically for integrands
    analytic in a neighborhood of the circle.
    """
    p = complex(p)
    if radius is None:
        if not isinstance(f, FactoredMeromorphic):
            raise ValueError("radius is required for callable integrands")
        radius = default_contour_radius(f, p)
    if radius <= 0:
        raise ValueError("contour radius must be positive")
    if nodes < 16:
        raise ValueError("need at least 16 nodes")
    if isinstance(f, FactoredMeromorphic):
        for q in f.finite_poles():
            if not same_point(p, q) and abs(q - p) <= radius:
                raise SingularityInsideContour(
                    f"pole at {q!r} lies within radius {radius} of {p!r}"
                )
        fn = f.eval_array
    else:
        fn = f

    prev = None
    n = nodes
    while n <= max_nodes:
        theta = 2.0 * math.pi * np.arange(n) / n
        ring = np.exp(1j * theta)
        vals = np.asarray(fn(p + radius * ring))
        est = complex(radius * np.mean(vals * ring))
        if prev is not None and abs(est - prev) <= rel_tol * max(1.0, abs(est)):
            return est
        prev = est
        n *= 2
    raise NoConvergence(
        f"trapezoidal residue at {p!r} did not settle by {max_nodes} nodes"
    )


def residue_limit(f: FactoredMeromorphic, p, pole_order: int) -> complex:
    """Residue at a pole of order 1 or 2 via exact factor-wise cancellation.

    The factors vanishing at p are divided out algebraically (the shifted
    power splits into its enumerated linear roots), so no numeric limit or
    differentiation is ever taken.
    """
    if pole_order not in (1, 2):
        raise UnsupportedOrder(f"pole order {pole_order} not supported")
    p = complex(p)
    actual = f.order_at(p)
    if actual != -pole_order:
        raise ValueError(
            f"order_at({p!r}) = {actual}, expected {-pole_order}"
        )
    # g(z) = (z - p)**pole_order * f(z), with vanishing factors cancelled.
    value = f.coefficient
    logd = 0j  # g'(p)/g(p), accumulated by the product rule
    for fac in f.factors:
        if not any(same_point(r, p) for r in fac.roots()):
            base = fac.base_value(p)
            value *= base ** fac.exponent
            logd += fac.exponent * fac.base_derivative(p) / base
            continue
        if fac.kind == MONOMIAL:
            continue  # z**e / (z - 0)**e cancels exactly
        # (z**k - c)**e / (z - p)**e = prod over the other roots (z - r)**e
        for r in fac.roots():
            if same_point(r, p):
                continue
            value *= (p - r) ** fac.exponent
            logd += fac.exponent / (p - r)
    if pole_order == 1:
        return value
    return value * logd


def residue_at_infinity(f: FactoredMeromorphic) -> complex:
    """Residue of the one-form f dz at z = infinity, via the w = 1/z chart."""
    g = infinity_chart(f, one_form=True)
    m = -g.order_at(0)
    if m <= 0:
        return 0j
    if m <= 2:
        return residue_limit(g, 0.0, m)
    return residue_contour(g, 0.0)


def residue_at(f: FactoredMeromorphic, p) -> complex:
    """Residue of the one-form f dz at any sphere point.

    Uses exact cancellation for order <= 2 poles and the contour rule for
    higher orders; zero when f is regular at p.
    """
    if is_infinity(p):
        return residue_at_infinity(f)
    m = -f.order_at(p)
    if m <= 0:
        return 0j
    if m <= 2:
        return residue_limit(f, p, m)
    return residue_contour(f, p)
