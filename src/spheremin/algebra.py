"""Factored meromorphic functions on the Riemann sphere.

A function is stored as a nonzero scalar times a product of integer
powers of factors `z**k - c`, the monomial `z` being the one with k = 1,
c = 0.  This covers the Gauss maps and height-differential coefficients
of all surfaces built here while keeping zeros, poles, orders and
residues exactly enumerable.
A residue of a sum is the sum of the residues of its factored terms.

A function's (root, order) table is built from its factors once, when
it is created, and held as two arrays that every zero/pole query reads
with one array operation.  The k roots of one factor are distinct and
factors of equal k share none, so the table is each factor's roots end
to end with its exponent; only roots of factors of different k, neither
a monomial, are compared, once per pair, a match adding its exponent to
the earlier entry.  Two finite points are the same when |p - q| <= 1e-9
|p| (`same_point`, so 0 matches only 0: the monomial's root needs no
comparison), the rule for those roots and for numbers from outside met
with a table: punctures, query points, path chaining.  Moduli are taken with `np.hypot` (`modulus`), the bits of the
built-in `abs`; `np.abs` differs from it in the last bit on about a third
of random values, and would move radii and meshes.

Every Laurent coefficient comes from one trapezoidal rule on a
`contour_radius` circle (`laurent_coefficients`), at 128 nodes unless the
orders in the function's root table ask for 256 (`laurent_nodes`).  Every
circle is a ring of roots of unity, shifted and scaled, so the rule runs
on many centres at once: one row each, from one evaluation of the
function over all rows' nodes, and each row has the bits the rule gives
on its centre alone.  A function builds the principal parts of the
entries of its root table that a caller asks for, all missing ones in
one batched call, and keeps each (`principal_part` matches points to
entries, `antiderivative` reads its poles' entries directly); every finite
residue in the package is the c_1 of that table (`residues_at`).
Infinity is read from the degree d and, for d >= -1, from one expansion
about 0 on the circle of twice the largest root, built once and kept
(`outer_expansion`): its z**0..z**d coefficients are the polynomial part
and minus its z**-1 coefficient is the residue of f dz at infinity.
Below that degree f dz has no pole at infinity and the residue is 0.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import PoleEvaluation

_ROOT_MATCH_TOL = 1e-9
# achievable relative accuracy of a factored evaluation: near high-order
# poles its values carry cancellation noise of about this size relative to
# the local magnitude, which no quadrature refinement can resolve
NOISE_REL = 1e-12


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


def modulus(z):
    """|z| elementwise, bit for bit the built-in abs of a complex."""
    z = np.asarray(z, dtype=np.complex128)
    return np.hypot(z.real, z.imag)


def same_point(p, q):
    """Sphere-point equality: INF matches only INF, finite points when
    |p - q| <= 1e-9 * |p|, so 0 matches only 0.  Finite p and q broadcast;
    the result is a boolean array or scalar."""
    if is_infinity(p) or is_infinity(q):
        return is_infinity(p) and is_infinity(q)
    p = np.asarray(p, dtype=np.complex128)
    return modulus(p - q) <= _ROOT_MATCH_TOL * modulus(p)


def nearest_other(p, points) -> np.ndarray:
    """Distance from each p to the nearest of `points` that is not the same
    point as it, inf when every point is; p broadcasts over a leading axis."""
    p = np.asarray(p, dtype=np.complex128)[..., None]
    points = np.asarray(points, dtype=np.complex128)
    dist = np.where(same_point(p, points), np.inf, modulus(p - points))
    return dist.min(axis=-1, initial=np.inf)


def _fmt_number(x: complex) -> str:
    x = complex(x)
    if x.imag == 0.0:
        return f"{x.real:.6g}"
    return f"({x.real:.6g}{x.imag:+.6g}j)"


@dataclass(frozen=True)
class Factor:
    """One multiplicative building block, (z**k - c)**exponent; the
    monomial z**exponent has k = 1, c = 0."""

    k: int
    c: complex
    exponent: int

    def __post_init__(self):
        if self.exponent == 0:
            raise ValueError("factor exponent must be nonzero")
        if self.k < 1:
            raise ValueError("factor degree k must be >= 1")
        if self.c == 0 and self.k != 1:
            raise ValueError("a factor with c = 0 is a monomial: k must be 1")
        if not (math.isfinite(self.c.real) and math.isfinite(self.c.imag)):
            raise ValueError("factor shift must be finite")

    def base_value(self, z: complex) -> complex:
        if self.c == 0:
            return z
        return z ** self.k - self.c

    def roots(self):
        """All roots of the base, exactly enumerated (no fractional powers
        ever enter evaluation; these are used for singularity bookkeeping)."""
        if self.c == 0:
            return [0j]
        r = abs(self.c) ** (1.0 / self.k)
        # cmath.phase raises OverflowError on a subnormal part
        phi = math.atan2(self.c.imag, self.c.real)
        return [
            r * cmath.exp(1j * (phi + 2.0 * math.pi * j) / self.k)
            for j in range(self.k)
        ]

    def __str__(self):
        if self.c == 0:
            return f"z^{self.exponent}"
        zk = "z" if self.k == 1 else f"z^{self.k}"
        return f"({zk} - {_fmt_number(self.c)})^{self.exponent}"


def monomial(exponent: int = 1) -> Factor:
    return Factor(1, 0j, exponent)


def shifted_power(k: int, c: complex, exponent: int = 1) -> Factor:
    """The factor (z**k - c)**exponent; c == 0 collapses to a monomial."""
    if c == 0:
        return monomial(k * exponent)
    return Factor(k, complex(c), exponent)


class FactoredMeromorphic:
    """coefficient * prod(factor**exponent), immutable after construction."""

    __slots__ = ("coefficient", "factors", "_packed", "_points", "_orders",
                 "_laurent", "_outer")

    def __init__(self, coefficient: complex, factors=()):
        coefficient = complex(coefficient)
        if coefficient == 0:
            raise ValueError("coefficient must be nonzero")
        if not (math.isfinite(coefficient.real) and math.isfinite(coefficient.imag)):
            raise ValueError("coefficient must be finite")
        merged: dict = {}
        for f in factors:
            key = (f.k, f.c)
            merged[key] = merged.get(key, 0) + f.exponent
        kept = [Factor(k, c, e) for (k, c), e in merged.items() if e != 0]
        # monomials first: the kernel multiplies in this order
        kept.sort(key=lambda f: (f.c != 0, f.k, f.c.real, f.c.imag))
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "factors", tuple(kept))
        packed = (
            np.array([f.k for f in kept], dtype=np.int64),
            np.array([f.c for f in kept], dtype=np.complex128),
            np.array([f.exponent for f in kept], dtype=np.int64),
        )
        object.__setattr__(self, "_packed", packed)
        # (root, order) arrays: each factor's roots end to end; a root of a
        # factor of another k matching an earlier one joins its entry, and
        # entries whose orders cancel stay.  The monomial comes first, and
        # its root 0 matches only 0, which no factor with c != 0 has
        roots = np.array([r for f in kept for r in f.roots()], dtype=np.complex128)
        start = np.cumsum([0] + [f.k for f in kept])
        owner = np.arange(len(roots))
        for i, j in itertools.combinations(range(len(kept)), 2):
            if kept[i].c != 0 and kept[i].k != kept[j].k:
                a, b = np.nonzero(same_point(roots[start[i]:start[i + 1], None],
                                             roots[start[j]:start[j + 1]]))
                a, b = a + start[i], b + start[j]
                free = owner[b] == b
                owner[b[free]] = owner[a[free]]
        entries = owner == np.arange(len(roots))
        orders = np.bincount(owner, np.repeat(packed[2], packed[0]), len(roots))
        object.__setattr__(self, "_points", roots[entries])
        object.__setattr__(self, "_orders", orders[entries].astype(np.int64))
        object.__setattr__(self, "_laurent", {})  # see principal_part
        object.__setattr__(self, "_outer", None)  # see outer_expansion

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
        kernels.eval_product(self.coefficient, *self._packed, zf, out)
        return out.reshape(np.shape(z))

    # -- structure queries ---------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree: order of growth at infinity."""
        return sum(f.exponent * f.k for f in self.factors)

    def finite_roots(self):
        """(root, order) pairs over all finite zeros and poles, orders
        aggregated when distinct factors share a root."""
        nonzero = self._orders != 0
        return list(zip(self._points[nonzero].tolist(),
                        self._orders[nonzero].tolist()))

    def order_at(self, p) -> int:
        """Zero order (>0), pole order (<0) or 0 at a sphere point."""
        if is_infinity(p):
            return -self.degree
        return int(self.orders_at([p])[0])

    def orders_at(self, points) -> np.ndarray:
        """`order_at` of each finite point, from one broadcast over the
        root table: the summed orders of the entries matching the point
        under same_point(entry, point)."""
        hits = same_point(self._points, np.asarray(points, dtype=np.complex128)[:, None])
        return np.where(hits, self._orders, 0).sum(axis=1)

    def __mul__(self, other):
        if isinstance(other, FactoredMeromorphic):
            return FactoredMeromorphic(
                self.coefficient * other.coefficient, self.factors + other.factors
            )
        return FactoredMeromorphic(self.coefficient * complex(other), self.factors)

    __rmul__ = __mul__

    def __str__(self):
        parts = [_fmt_number(self.coefficient)]
        parts.extend(str(f) for f in self.factors)
        return " * ".join(parts)

    __repr__ = __str__


def one_form_order_at(f: FactoredMeromorphic, p) -> int:
    """Order of the one-form f dz at a sphere point: at INF, where
    dz = -dw/w**2 for w = 1/z, it is -degree - 2."""
    if is_infinity(p):
        return -f.degree - 2
    return f.order_at(p)


# -- residues ---------------------------------------------------------


# rounding reach: on a circle about p of radius below REACH * |p|, z**k - c
# cancels and the values carry noise above NOISE_REL
REACH = np.finfo(float).eps / NOISE_REL


def contour_radius(p, points, orders):
    """Half the distance from each p (broadcast over a leading axis) to the
    nearest other root of the table (points, orders), 1.0 when there is
    none.  A pole always bounds the circle, so the trapezoidal error decays
    at least like 2**-nodes; a root that is no pole, where f is analytic,
    does not bound it within the rounding reach REACH * |p|."""
    p = np.asarray(p, dtype=np.complex128)[..., None]
    dist, size = modulus(p - points), modulus(p)
    # `same_point`, from the one modulus of p - points
    skip = (dist <= _ROOT_MATCH_TOL * size) | ((orders >= 0) & (dist < REACH * size))
    dist = np.where(skip, np.inf, dist).min(axis=-1, initial=np.inf)
    return np.where(dist < math.inf, 0.5 * dist, 1.0)


# the trapezoidal rule's nodes on the unit circle, the roots of unity, for
# each node count that `laurent_nodes` picks
_RINGS = {n: np.exp(1j * (2.0 * math.pi * np.arange(n) / n)) for n in (128, 256)}


def laurent_nodes(f: FactoredMeromorphic, orders) -> int:
    """Node count of `laurent_coefficients` for f's coefficients of
    (z - p)**(-m), m in `orders`: 128, or 256 where the aliasing bound
    2**-(N - Z) * N**(P - 1) exceeds 2**-56 at N = 128.

    P is the highest pole order in f's root table.  On a circle whose
    nearest pole, of order P, lies twice its radius away, the rule adds to
    the coefficient of (z - p)**n the ones N orders further out, about
    2**-(N - n) N**(P - 1) of the scale of f's singular part (Trefethen &
    Weideman, SIAM Review 56, 2014).  The floor is relative to max|f| on
    the circle, which a zero of order Z at the centre makes up to 2**Z
    smaller than that scale.  So Z is the highest of f's zero orders and
    of the n = -m asked for: up to the degree for the polynomial part."""
    pole = max(0, -int(f._orders.min(initial=0)))
    zero = max(0, int(f._orders.max(initial=0)), -int(min(orders)))
    # log2 of the bound at N = 128
    return 128 if zero - 128 + 7 * (pole - 1) <= -56 else 256


def laurent_coefficients(f: FactoredMeromorphic, centres, radii, orders):
    """Coefficients of (z - p)**(-m), m in `orders`, of the Laurent series of
    f about each centre p that holds on the circle |z - p| = radius, by the
    trapezoidal rule on N = `laurent_nodes(f, orders)` roots of unity:
    radius**m * mean(f(p + radius*ring) * ring**m).

    One row per centre, from one evaluation of f over every row's nodes;
    each row is bit for bit what the rule gives on that centre alone, as
    every operation on it is elementwise or a reduction along the row.
    With no singularity of f between radius/2 and 2*radius from p (the
    `contour_radius` rule about a root, and a radius of twice the largest
    root about 0 for `outer_expansion`) the aliasing error is below
    2**-56 relative.  Returns the (rows, orders) coefficients and the
    rounding floor of each, NOISE_REL * radius**m * max|f| over the row's
    nodes: a coefficient within its floor is not resolved.
    """
    ring = _RINGS[laurent_nodes(f, orders)]
    centres = np.asarray(centres, dtype=np.complex128)[:, None]
    radii = np.asarray(radii, dtype=float)
    vals = f.eval_array(centres + radii[:, None] * ring)
    coeffs = np.empty((len(radii), len(orders)), dtype=np.complex128)
    for j, m in enumerate(orders):
        coeffs[:, j] = radii ** m * np.mean(vals * ring ** m, axis=1)
    scale = NOISE_REL * np.abs(vals).max(axis=1)
    return coeffs, scale[:, None] * radii[:, None] ** np.asarray(orders, dtype=float)


_NO_ROOT = (np.empty(0, dtype=np.complex128), np.empty(0))


def principal_part(f: FactoredMeromorphic, points):
    """`_principal_parts` at the first root-table entry of f matching each
    finite point p under same_point(entry, p); empty where none does."""
    hits = same_point(f._points, np.asarray(points, dtype=np.complex128)[:, None])
    first = hits.argmax(axis=1) if hits.size else 0
    return _principal_parts(f, np.where(hits.any(axis=1), first, -1))


def _principal_parts(f: FactoredMeromorphic, entries):
    """(c_1, ..., c_m) of f about each root-table entry index, with their
    rounding floors, m = max(1, pole order): `laurent_coefficients` on the
    entry's `contour_radius` circle.  Every entry not yet built is built in
    one batched call, and kept on the immutable f.  A zero, or an entry
    whose orders cancel, still gets its c_1; index -1 gives the empty result.
    """
    entries = entries.tolist()
    missing = sorted({i for i in entries if i >= 0} - f._laurent.keys())
    if missing:
        roots = f._points[missing]
        m = np.maximum(1, -f._orders[missing]).tolist()
        coeffs, floors = laurent_coefficients(
            f, roots, contour_radius(roots, f._points, f._orders),
            np.arange(1, max(m) + 1))
        for i, n, c, floor in zip(missing, m, coeffs, floors):
            f._laurent[i] = (c[:n], floor[:n])
    return [f._laurent[i] if i >= 0 else _NO_ROOT for i in entries]


def outer_expansion(f: FactoredMeromorphic):
    """f's Laurent series about 0 outside all its roots, built once and
    kept on the immutable f: `laurent_coefficients` on the circle of twice
    the largest root (at least 1), with no singularity between half and
    twice its radius.  Returns (a, residue, floor): a_n of z**n for n =
    0..degree (empty below degree 0), Res_INF(f dz) = -a_-1 and the
    rounding floor of a_-1.  Below degree -1 f dz has no pole at INF (at
    degree -2 neither zero nor pole, below it a zero): as at a finite point
    where f has no root, nothing is evaluated and the residue and its
    floor are exactly 0.
    """
    if f._outer is None:
        outer = (_NO_ROOT[0], 0j, 0.0)
        if f.degree >= -1:
            orders = np.append(-np.arange(max(0, f.degree + 1)), 1)
            radius = 2.0 * float(modulus(f._points).max(initial=0.5))
            (a,), (floor,) = laurent_coefficients(f, [0.0], [radius], orders)
            outer = (a[:-1], -complex(a[-1]), float(floor[-1]))
        object.__setattr__(f, "_outer", outer)
    return f._outer


def antiderivative(f: FactoredMeromorphic):
    """An antiderivative of f dz with its log terms kept apart.

    Returns (rational, logs): `rational` lists (pole, coefficients) pairs
    for np.polyval, in z for the polynomial part (pole None) and in
    1/(z - p) for the principal part at p; `logs` lists the (p, c_1) of
    the c_1 log(z - p) terms.  The polynomial part is read from
    `outer_expansion` and the principal parts by root-table entry, at
    every entry of negative order, from the builder `principal_part`
    uses: the poles are never matched back to the table as points.
    """
    rational, logs = [], []
    if f.degree >= 0:
        a = outer_expansion(f)[0]
        n = np.arange(f.degree + 1)
        rational.append((None, np.append((a / (n + 1))[::-1], 0.0)))
    poles = np.flatnonzero(f._orders < 0)
    for p, (c, _) in zip(f._points[poles].tolist(), _principal_parts(f, poles)):
        logs.append((p, c[0]))
        if len(c) > 1:
            # c_m (z - p)**-m integrates to c_m / (1 - m) * t**(m - 1), t = 1/(z - p)
            m = np.arange(2, len(c) + 1)
            b = c[1:] / (1 - m)
            rational.append((p, np.append(b[::-1], 0.0)))
    return rational, logs


def residues_at(f: FactoredMeromorphic, points) -> list:
    """Residue of the one-form f dz at each sphere point: the c_1 of
    `principal_part`, 0 where f has no root, from one batched call over
    the finite points, and at INF the residue of `outer_expansion`."""
    finite = [p for p in points if not is_infinity(p)]
    tables = iter(principal_part(f, finite))
    out = []
    for p in points:
        if is_infinity(p):
            out.append(outer_expansion(f)[1])
        else:
            c, _ = next(tables)
            out.append(complex(c[0]) if len(c) else 0j)
    return out


def residue_contour(f: FactoredMeromorphic, p) -> complex:
    """Residue of f dz at a finite p: the c_1 of `principal_part`, 0 where
    f has no root at p."""
    return residues_at(f, [p])[0]


def residue_at(f: FactoredMeromorphic, p) -> complex:
    """Residue of the one-form f dz at any sphere point, `residues_at` of
    the one point."""
    return residues_at(f, [p])[0]
