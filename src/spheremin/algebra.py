"""Factored meromorphic functions on the Riemann sphere.

A function is a nonzero scalar times integer powers of factors
`z**k - c`, the monomial `z` being the one with k = 1, c = 0: zeros,
poles, orders and residues stay exactly enumerable.  A residue of a sum
is the sum of the residues of its factored terms.

Zeros and poles are entries of a `RootTable`: each factor's roots end to
end (`roots_of`), a root of a factor of another k matching an earlier one
joining its entry.  Two finite points are the same when |p - q| <= 1e-9
|p| (`same_point`, so 0 matches only 0).  Moduli are taken with
`np.hypot` (`modulus`), the bits of the built-in `abs`, which `np.abs`
misses in the last bit on a third of values.  A product is a coefficient
and an exponent vector over a table, its factors the table's factors of
nonzero exponent; products over one table are built together
(`FactoredMeromorphic.over_table`), and one built from a factor list
alone builds its own table over the factors that do not cancel.  One
column space indexes every product and point over a table of P entries:
the entries 0..P-1, infinity at P and "no entry" at -1.  A product's
orders and Laurent rows are read at the entries, 0 where it has no zero
or pole.

Every Laurent coefficient is a finite Taylor computation on the factors:
the factors' series about a table's entries (`_entry_bases`, one
expansion for all the products over it, `laurent_tables`), a product's
table of c_1, c_2, ... and its series in w = 1/z (`_outer_series`) are
built once and kept, and residues are read from them at columns
(`entry_residues`) or at a point (`residue_at`).  A coefficient's
rounding floor is ROUNDING_REL times |coefficient| times the bound that
`_series_product` forms beside it, computed only when asked for, at
table entries (`_rounding_floor`) or at infinity (`outer_expansion`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ParameterDomainError, PoleEvaluation

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


def modulus(z):
    """|z| elementwise, bit for bit the built-in abs of a complex."""
    z = np.asarray(z, dtype=np.complex128)
    return np.hypot(z.real, z.imag)


def same_point(p, q):
    """Sphere-point equality: INF matches only INF, finite points when
    |p - q| <= 1e-9 * |p|, so 0 matches only 0.  Two numbers compare by the
    built-in abs, arrays broadcast (`modulus`, the same bits)."""
    if isinstance(p, (int, float, complex)) and isinstance(q, (int, float, complex)):
        return abs(p - q) <= _ROOT_MATCH_TOL * abs(p)
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
        return roots_of([self]).tolist()

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


def _factor_order(f: Factor):
    """A product's factor order: monomials first, the kernel multiplies in it."""
    return (f.c != 0, f.k, f.c.real, f.c.imag)


def roots_of(factors) -> np.ndarray:
    """The roots |c|**(1/k) exp(i (phi + 2 pi j) / k) of each factor, end to
    end, in one np.exp; |c|**(1/k) and phi stay Python's per factor (numpy
    moves bits of the radius; cmath.phase overflows on a subnormal part)."""
    ks = [f.k for f in factors]
    columns = [(math.atan2(f.c.imag, f.c.real) if f.c != 0 else 0.0, abs(f.c) ** (1.0 / f.k),
                f.k, start) for f, start in zip(factors, itertools.accumulate([0] + ks))]
    phi, radius, k, start = np.repeat(np.array(columns, dtype=float).reshape(-1, 4).T, ks, axis=1)
    return radius * np.exp(1j * ((phi + 2.0 * math.pi * (np.arange(len(k)) - start)) / k))


class RootTable:
    """The roots of the distinct factors (k, c) of a list, in
    `_factor_order`, merged into entries: each factor's roots end to end, a
    root of a factor of another k matching an earlier one joining the entry
    of the first it matches.  It holds the entries' points, the factor
    whose root each is (`owner`) and which factors vanish at each
    (`vanish`), whatever their exponents.  Two factors of one k with a
    root pair that matches would give two entries at one point, and are
    refused: the entries are distinct points."""

    __slots__ = ("ks", "cs", "index", "points", "owner", "vanish")

    def __init__(self, factors):
        factors = sorted({(f.k, f.c): f for f in factors}.values(), key=_factor_order)
        ks = np.array([f.k for f in factors], dtype=np.int64)
        cs = np.array([f.c for f in factors], dtype=np.complex128)
        roots = roots_of(factors)
        start = np.cumsum([0] + ks.tolist())
        # the roots of z**k - c are one root turned by multiples of 2 pi / k:
        # two factors of one k share no root where their radii |c|**(1/k) lie
        # more than twice the tolerance apart; nearer, every root pair is
        # compared, since at the tolerance one pair may match and another not
        radii = sorted((f.k, abs(f.c) ** (1.0 / f.k)) for f in factors if f.c != 0)
        for k, of_k in itertools.groupby(radii, key=lambda kr: kr[0]):
            r = [x for _, x in of_k]
            if all(b - a > 2.0 * _ROOT_MATCH_TOL * b for a, b in zip(r, r[1:])):
                continue
            group = np.flatnonzero((ks == k) & (cs != 0))
            turns = roots[start[group][:, None] + np.arange(k)]
            hits = same_point(turns[:, None, :, None], turns[None, :, None, :])
            i, j = np.nonzero(np.triu(hits.any(axis=(2, 3)), 1))
            if len(i):
                shared = turns[i[0], hits[i[0], j[0]].any(axis=1).argmax()]
                raise ParameterDomainError(
                    f"the factors z^{k} - {complex(cs[group[i[0]]])!r} and z^{k} - "
                    f"{complex(cs[group[j[0]]])!r} share the root {complex(shared)!r}")
        # a root of a later factor of another k joins the first root of an
        # earlier one it matches; 0, the monomial's root, matches only 0,
        # which no factor with c != 0 has
        factor_of = np.repeat(np.arange(len(factors)), ks)
        owner = np.arange(len(roots))
        if len({k for k, _ in radii}) > 1:
            pairs = np.triu((cs != 0)[:, None] & (ks[:, None] != ks), 1)
            hits = same_point(roots[:, None], roots) & pairs[factor_of][:, factor_of]
            joins = np.flatnonzero(hits.any(axis=0))
            owner[joins] = hits[:, joins].argmax(axis=0)
            while (owner[owner] != owner).any():  # an earlier root may have joined another
                owner = owner[owner]
        entry = owner == np.arange(len(roots))
        self.ks, self.cs = ks, cs
        self.index = {(f.k, f.c): i for i, f in enumerate(factors)}
        self.points, self.owner = roots[entry], factor_of[entry]
        self.vanish = np.zeros((len(factors), len(self.points)), dtype=bool)
        self.vanish[factor_of, (np.cumsum(entry) - 1)[owner]] = True

    def exponents(self, factors) -> np.ndarray:
        """The exponent of each of the table's factors in the product of
        `factors`, all of them in the table."""
        exps = np.zeros(len(self.ks), dtype=np.int64)
        for f in factors:
            exps[self.index[f.k, f.c]] += f.exponent
        return exps


class FactoredMeromorphic:
    """coefficient * prod(factor**exponent), immutable after construction:
    a coefficient and an exponent vector over a `RootTable`, which other
    products may share (`over_table`).  Its factors are the table's factors
    of nonzero exponent, in the table's order.  Its order at each of the
    table's entries (`_orders`, 0 where it has no zero or pole) and its
    Laurent rows are indexed by the table's entries, as every product over
    the table is.  Built from a list of factors alone, it has a table of
    its own over the factors whose summed exponents are not 0."""

    __slots__ = ("coefficient", "_packed", "_table", "_nonzero", "_orders", "_laurent", "_outer")

    def __init__(self, coefficient: complex, factors=(), table=None, exponents=None):
        if table is None:  # a table of its own, over the factors that do not cancel
            total: dict = {}
            for f in factors:
                total[f.k, f.c] = total.get((f.k, f.c), 0) + f.exponent
            factors = [Factor(k, c, e) for (k, c), e in total.items() if e]
            table = RootTable(factors)
            exponents = table.exponents(factors)
        _build([self], [coefficient], table, np.asarray(exponents)[None])

    @classmethod
    def over_table(cls, table, coefficients, exponents) -> list:
        """The products of the coefficients and exponent rows over `table`."""
        products = [cls.__new__(cls) for _ in coefficients]
        _build(products, coefficients, table, exponents)
        return products

    @property
    def factors(self) -> tuple:
        """The factors of nonzero exponent, in the table's order."""
        return tuple(map(Factor, *(a.tolist() for a in self._packed)))

    def __setattr__(self, name, value):
        raise AttributeError("FactoredMeromorphic is immutable")

    # -- evaluation ----------------------------------------------------

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
        ks, _, exps = self._packed
        return int(ks @ exps)

    def finite_roots(self):
        """(root, order) pairs over all finite zeros and poles, orders
        aggregated when distinct factors share a root."""
        nonzero = self._orders != 0
        return list(zip(self._table.points[nonzero].tolist(), self._orders[nonzero].tolist()))

    def __str__(self):
        parts = [_fmt_number(self.coefficient)]
        parts.extend(str(f) for f in self.factors)
        return " * ".join(parts)

    __repr__ = __str__


def _build(products, coefficients, table, exponents):
    """Fill products over one table from their coefficients and exponent
    rows, and their orders at the table's entries from the product of the
    rows with `table.vanish`."""
    coefficients = [complex(c) for c in coefficients]
    for c in coefficients:
        if c == 0 or not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError(f"coefficient must be {'nonzero' if c == 0 else 'finite'}")
    for f, c, exps, orders in zip(products, coefficients, exponents, exponents @ table.vanish):
        nonzero = exps.nonzero()[0]
        for name, value in (
            ("coefficient", c),
            ("_packed", (table.ks[nonzero], table.cs[nonzero], exps[nonzero])),
            ("_table", table), ("_nonzero", nonzero), ("_orders", orders),
            ("_laurent", None),  # see _laurent_table
            ("_outer", None),  # see _outer_series
        ):
            object.__setattr__(f, name, value)


# -- Laurent tables ---------------------------------------------------


ROUNDING_REL = 2.0 ** -44  # a few eps per term and factor of a product


def _times(x, y):
    """The product of two series along the last axis, truncated to its length."""
    out = x[..., :1] * y
    for j in range(1, x.shape[-1]):
        out[..., j:] += x[..., j:j + 1] * y[..., :-j]
    return out


def _series_product(b, exponents):
    """prod_i b_i**e_i, b_i the series along the last axis of b[i], b_i(0)
    != 0, to its length, and the product of the powers' coefficients in
    modulus, which bounds its rounding (None to t**1: g_1 = g_0 sum e_i
    b_i1/b_i0).  A negative power follows J. C. P. Miller's recurrence
    (Knuth, TAOCP vol. 2, 4.7); a positive one may vanish near t = 0, so
    it is multiplied out by repeated squaring.  b is copied C-contiguous
    first: numpy multiplies a strided complex array in another loop, which
    rounds differently."""
    b = np.ascontiguousarray(b)
    rows, n = b.shape[1:]
    if n <= 2:
        g = np.empty((rows, n), dtype=np.complex128)
        g[:, 0] = np.multiply.reduce(b[..., 0] ** exponents[:, None], axis=0)
        if n == 2:
            g[:, 1] = g[:, 0] * np.dot(exponents.astype(float), b[..., 1] / b[..., 0])
        return g, None
    g = np.eye(1, n, dtype=np.complex128).repeat(rows, axis=0)
    bound = g.real.copy()
    for base, e in zip(b, exponents.tolist()):
        if e < 0:  # m b_0 w_m = sum_(j=1..m) ((e + 1) j - m) b_j w_(m-j)
            power = np.empty_like(base)
            power[:, 0] = base[:, 0] ** e
            for m in range(1, n):
                # slices keep the terms row-major: each row is then summed
                # alone, in one order whatever the rows (an index array
                # lays them out by column)
                j = np.arange(1, m + 1)
                terms = ((e + 1) * j - m) * base[:, 1:m + 1] * power[:, m - 1::-1]
                power[:, m] = terms.sum(axis=1) / (m * base[:, 0])
        else:
            power = None
            while e:  # the squares of base by the bits of e
                if e & 1:
                    power = base if power is None else _times(power, base)
                e >>= 1
                base = _times(base, base) if e else base
        g, bound = _times(g, power), _times(bound, np.abs(power))
    return g, bound


def _entry_bases(table: RootTable, at, n):
    """Every factor's base of `table` to n terms in t = z - p about each
    entry p of `at` (table indices, ascending), an array (factors,
    len(at), n) for `_series_product`, whose powers' product times the
    coefficient is f t**-order.  (p + t)**k - c is D_0 = p**k - c, D_j =
    C(k, j) p**(k - j); a factor vanishing at p (the root table says which,
    not a tolerance) is t times D_1, D_2, ...  Where a factor has the k of
    p's own factor, p**k is that factor's c: D_0 then carries no rounding
    of p."""
    ks, cs = table.ks, table.cs
    p, owner = table.points[at], table.owner[at]
    power = cs[owner][None].repeat(len(ks), axis=0)  # p**k
    i, j = (ks[:, None] != ks[owner]).nonzero()  # the powers of another k than p's own
    power[i, j] = p[j] ** ks[i]
    # p**(k - j) = p**k / p**j, but D_j = [j == k] at the monomial's p = 0
    zero = at[0] == 0 and cs[0] == 0
    divisor = np.where(np.arange(len(at)) == 0, 1.0, p) if zero else p
    series = np.zeros((len(ks), len(at), n + 1), dtype=np.complex128)
    series[..., 0] = power - cs[:, None]
    for j in range(1, min(n, int(ks.max(initial=0))) + 1):
        power = power / divisor
        series[..., j] = np.array([math.comb(k, j) for k in ks.tolist()], float)[:, None] * power
    if zero:
        series[:, 0, 1:] = ks[:, None] == np.arange(1, n + 1)
    return np.where(table.vanish[:, at, None], series[..., 1:], series[..., :-1])


def _laurent_table(f: FactoredMeromorphic):
    """f's Laurent table (`laurent_tables`), built on the first request."""
    if f._laurent is None:
        laurent_tables([f])
    return f._laurent


def laurent_tables(products):
    """Build and keep the Laurent tables of products over one root table:
    row i is (c_1, ..., c_n) about the table's entry i, n the product's
    highest pole order (at least 1), 0 above the entry's own, so every row
    but a pole's is 0 exactly; at a pole of order P, c_m is the term P - m
    of f t**P.  The poles are one list of (product, entry) pairs: the bases
    are expanded once about all of them, each product's powers are one
    `_series_product` over its own pairs (zgemv rounds a column by the
    number of columns), and the rows are scattered to their entries."""
    products = [f for f in products if f._laurent is None]
    if not products:
        return
    full = np.array([f._orders for f in products])
    negative = full < 0
    form, entry = negative.nonzero()  # the pairs, product by product in entry order
    orders = np.maximum(1, -full.min(axis=1, initial=0)).tolist()
    n = max(orders)
    split = np.searchsorted(form, np.arange(len(products) + 1)).tolist()
    g = np.zeros((len(form), n), dtype=np.complex128)
    if len(form):
        poles = np.logical_or.reduce(negative, axis=0).nonzero()[0]
        b = _entry_bases(products[0]._table, poles, n)[:, poles.searchsorted(entry)]
        for f, m, start, stop in zip(products, orders, split, split[1:]):
            if stop > start:
                g[start:stop, :m] = _series_product(b[f._nonzero, start:stop, :m], f._packed[2])[0]
    g = np.array([f.coefficient for f in products])[form, None] * g
    term = -full[form, entry][:, None] - np.arange(1, n + 1)
    c = np.where(term >= 0, g[np.arange(len(term))[:, None], term], 0)
    for f, m, start, stop in zip(products, orders, split, split[1:]):
        rows = np.zeros((full.shape[1], m), dtype=np.complex128)
        rows[entry[start:stop]] = c[start:stop, :m]
        object.__setattr__(f, "_laurent", rows)


def _rounding_floor(f: FactoredMeromorphic, entries):
    """The rounding floors of c_1, ..., c_P at each of f's poles `entries`
    (entries of its table, ascending), P the pole's order: c_m's is
    ROUNDING_REL |coefficient| times the bound of its t**(P - m) term from
    `_series_product`, over at least 3 terms (`_series_product` bounds no
    shorter series).  That bound sums over the lower terms only, so a
    pole's floors do not depend on the others asked for with it."""
    orders = f._orders[entries]
    b = _entry_bases(f._table, entries, max(3, -int(orders.min())))
    bound = ROUNDING_REL * abs(f.coefficient) * _series_product(b[f._nonzero], f._packed[2])[1]
    return [row[-order - 1::-1] for order, row in zip(orders.tolist(), bound)]


def first_entries(table_points, points) -> np.ndarray:
    """The first of `table_points` matching each finite point, or -1."""
    hits = same_point(table_points, np.asarray(points, dtype=np.complex128)[:, None])
    return np.where(hits.any(axis=1), hits.argmax(axis=1) if hits.size else 0, -1)


def _outer_bases(f: FactoredMeromorphic, n):
    """(b, exponents) for `_series_product`: the bases 1 - c w**k to n
    terms in w = 1/z of the factors with c != 0."""
    ks, cs, exps = f._packed
    keep = np.flatnonzero((cs != 0) & (ks < n))
    b = np.zeros((len(keep), 1, n), dtype=np.complex128)
    b[:, 0, 0] = 1.0
    b[np.arange(len(keep)), 0, ks[keep]] = -cs[keep]
    return b, exps[keep]


def _outer_series(f: FactoredMeromorphic):
    """(a, residue) of `outer_expansion`, built once and kept: f's z**n term
    is the coefficient times prod (1 - c w**k)**e's w**(degree - n) term."""
    if f._outer is None:
        outer, degree = (np.empty(0, dtype=np.complex128), 0j), f.degree
        if degree >= -1:
            h = f.coefficient * _series_product(*_outer_bases(f, degree + 2))[0][0]
            outer = (h[:degree + 1][::-1], -complex(h[degree + 1]))
        object.__setattr__(f, "_outer", outer)
    return f._outer


def outer_expansion(f: FactoredMeromorphic):
    """f's Laurent series about 0 outside all its roots: (a, residue,
    floor), a_n of z**n for n = 0..degree, Res_INF(f dz) = -a_-1 and its
    rounding floor as in `_rounding_floor`, ROUNDING_REL |coefficient|
    times the bound of the w**(degree + 1) term.  Below degree -1 f dz has
    no pole at INF, and the residue and its floor are exactly 0."""
    (a, residue), degree, floor = _outer_series(f), f.degree, 0.0
    if degree >= -1:
        bound = _series_product(*_outer_bases(f, max(3, degree + 2)))[1]
        floor = ROUNDING_REL * abs(f.coefficient) * float(bound[0, degree + 1])
    return a, residue, floor


def primitive_terms(f: FactoredMeromorphic):
    """An antiderivative of f dz as arrays read from its outer series and
    Laurent table: (poly, poles, orders, c1, b).  `poly` holds the
    z**(n + 1) coefficients a_n / (n + 1), n = degree down to 0 (none below
    degree 0).  f's poles are table entries (`poles`, ascending, and
    `orders`); `c1` holds their c_1 log(z - p) terms' c_1, and row j of
    `b` the t**(m - 1) coefficients c_m / (1 - m), t = 1/(z - p), m >= 2,
    0 beyond the pole's order."""
    poly = np.empty(0, dtype=np.complex128)
    if f.degree >= 0:
        poly = (_outer_series(f)[0] / np.arange(1, f.degree + 2))[::-1]
    poles = np.flatnonzero(f._orders < 0)
    c = _laurent_table(f)[poles]
    b = c[:, 1:] / (1 - np.arange(2, c.shape[1] + 1))
    return poly, poles, -f._orders[poles], c[:, 0], b


def entry_residues(products, columns) -> np.ndarray:
    """Residues of f dz for products over one table, a row each, at the
    `columns`: the table's entries 0..P-1 (c_1, 0 where f has no pole), P
    infinity (the outer series') and -1 no entry (0)."""
    laurent_tables(products)
    return np.array([np.append(f._laurent[:, 0], [_outer_series(f)[1], 0])[columns]
                     for f in products])


def residue_at(f: FactoredMeromorphic, p) -> complex:
    """Residue of f dz at any sphere point: c_1 of the Laurent table at the
    first table entry matching p (0 where none does), and at INF the outer
    series' residue; no floor is computed."""
    if is_infinity(p):
        return complex(_outer_series(f)[1])
    (i,) = first_entries(f._table.points, [p]).tolist()
    return complex(_laurent_table(f)[i, 0]) if i >= 0 else 0j


def residue_contour(f: FactoredMeromorphic, p) -> complex:
    """Residue of f dz at a finite p: `residue_at`."""
    return residue_at(f, p)
