"""Weierstrass data: coordinate forms, audits, Gauss map, end types and
the immersion in closed form.

The immersion is X(z) = Re of the path integral of
(0.5*(1/G - G)*dh, 0.5i*(1/G + G)*dh, dh), combined from u = dh/G,
v = G dh and w = dh.  The data take G and dh as (coefficient, factors)
and build one root table over all those factors and four products over
it in one pass: G, dh, and u and v as the exponent vectors dh - G and
G + dh.  A puncture is held as its column of the table: an entry 0..P-1,
P at infinity or -1, no entry.  The audits read orders, residues and the
ends' rounding floors at the punctures' columns as arrays; INF itself is
met only where a point is named (the Gauss map's value, JSON).  The
antiderivative of each form is a polynomial, principal parts and
c_1 log(z - p) terms (`Immersion`); once the periods close every c_1 is
real, so X needs no path and no quadrature.  Its terms are arrays read
from each form's Laurent table (`algebra.primitive_terms`), the table
whose c_1 the period gate checks.  X takes one pass over the nodes in
`kernels.BLOCK` blocks, the base point in the last, forming each pole's
terms once for the three forms by Horner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    INF,
    FactoredMeromorphic,
    RootTable,
    _laurent_table,
    _rounding_floor,
    entry_residues,
    first_entries,
    is_infinity,
    outer_expansion,
    primitive_terms,
    same_point,
)
from .errors import ParameterDomainError, PoleEvaluation
from .kernels import BLOCK

PLANAR_HORIZONTAL = "planar_horizontal"
CATENOID_VERTICAL_UP = "catenoid_vertical_up"
CATENOID_VERTICAL_DOWN = "catenoid_vertical_down"
CATENOID_NON_VERTICAL = "catenoid_non_vertical"


class WeierstrassData:
    """Gauss map G, height differential dh = h(z) dz and the puncture set.
    G and h are given as (coefficient, factors); the data build one root
    table over all their factors, and G, dh, u = dh/G and v = G dh are
    exponent vectors over it.  A puncture is its column of the table
    (`_entries`): an entry 0..P-1, P at infinity, -1 off the table."""

    def __init__(self, gauss_map, dh, punctures):
        self.punctures = tuple(punctures)
        finite = np.array([p for p in self.punctures if p is not INF], dtype=np.complex128)
        repeats = [INF] * (len(self.punctures) - len(finite) - 1)
        matches = np.triu(same_point(finite[:, None], finite[None, :]), 1)
        repeats += finite[matches.any(axis=0)].tolist()
        if repeats:
            raise ParameterDomainError(f"punctures are not pairwise distinct: {repeats[0]!r}")
        self._finite_punctures = finite
        (g_coef, g_factors), (dh_coef, dh_factors) = gauss_map, dh
        table = self._table = RootTable([*g_factors, *dh_factors])
        eg, edh = table.exponents(g_factors), table.exponents(dh_factors)
        gc, dc = complex(g_coef), complex(dh_coef)  # a G of coefficient 0 is refused first
        g, dh, u, v = FactoredMeromorphic.over_table(
            table, [gc, dc, dc * (1.0 / gc) if gc != 0 else gc, gc * dc],
            np.array([eg, edh, edh - eg, eg + edh]))
        self.gauss_map, self.dh, self._forms = g, dh, (u, v, dh)
        # the entries where G or dh has a zero or pole, G's first
        og, odh = g._orders, dh._orders
        self._singular = np.concatenate([np.flatnonzero(og), np.flatnonzero(odh * (og == 0))])
        # G's and dh's orders at each entry, at infinity (column P), and 0 (-1)
        self._orders = np.hstack([[og, odh], [[-g.degree, 0], [-dh.degree - 2, 0]]])
        self._entries = np.full(len(self.punctures), len(table.points))
        self._entries[[p is not INF for p in self.punctures]] = first_entries(table.points, finite)
        self._residues = None  # see puncture_residues

    def finite_singularities(self):
        """All finite zeros/poles of G and dh (candidate special points for
        routing and audits), read from the root table."""
        return self._table.points[self._singular].tolist()

    def factored_forms(self):
        """(u, v, w) = (dh/G, G dh, dh) as factored products, built once
        with the data; (phi1, phi2, phi3) = _COMBINATION @ (u, v, w)."""
        return self._forms

    def puncture_residues(self) -> np.ndarray:
        """(3, N) array of Res u, Res v and Res dh at the N punctures, read
        at their columns on the first request and kept."""
        if self._residues is None:
            self._residues = entry_residues(self._forms, self._entries)
        return self._residues


# (phi1, phi2, phi3) = _COMBINATION @ (u, v, w), u = dh/G, v = G dh, w = dh
_COMBINATION = np.array([[0.5, -0.5, 0.0], [0.5j, 0.5j, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class CoordinateForms:
    """Pointwise evaluators of the three coordinate one-form coefficients."""

    data: WeierstrassData

    def stacked(self, z: np.ndarray) -> np.ndarray:
        """(3, n) array of (phi1, phi2, phi3) at the points z (1-d):
        _COMBINATION applied to the values of the data's factored forms."""
        return _COMBINATION @ np.stack(
            [f.eval_array(z) for f in self.data.factored_forms()]
        )


class Immersion:
    """X(z) = Re F(z) - Re F(base), F the exact antiderivative of
    (phi1, phi2, phi3), evaluated on arrays in one pass over the nodes in
    `kernels.BLOCK` blocks into one (n + 1, 3) array, the base point the
    last node of the last block; no node's X depends on its block.

    Each log term enters as Re(c_1) log|z - p|, c_1 the coefficient of one
    coordinate; `dropped_imag`, the largest |Im c_1| left out, bounds how
    far the surface depends on the path (0 up to rounding once the periods
    close).
    """

    def __init__(self, data: WeierstrassData, base: complex):
        self._base = complex(base)
        terms = [primitive_terms(f) for f in data.factored_forms()]
        # the forms' poles are entries of the data's one root table, first seen first
        seen = np.concatenate([poles for _, poles, _, _, _ in terms]).tolist()
        entry = {i: j for j, i in enumerate(dict.fromkeys(seen))}
        self._log_points = data._table.points[list(entry)]
        # per form the polynomial in z (row -1), then the poles' rows in entry
        # order, the leading coefficient first; the c_1 into a (3, P) table
        self._rational, table = [], np.zeros((3, len(entry)), dtype=np.complex128)
        for col, (poly, poles, orders, c1, b) in enumerate(terms):
            rows = [entry[i] for i in poles.tolist()]
            table[col, rows] = c1
            self._rational += [(col, -1, poly.tolist())] if len(poly) else []
            self._rational += [(col, row, b[j, m - 2::-1].tolist())
                               for j, (row, m) in enumerate(zip(rows, orders.tolist())) if m > 1]
        self._inverted = {i for _, i, _ in self._rational if i >= 0}
        # the c_1 combined column by column
        coeffs = np.zeros_like(table)
        for col in range(3):
            coeffs += _COMBINATION[:, col, None] * table[col]
        imag = np.abs(coeffs.imag)
        self.dropped_imag = float(imag.max()) if imag.size else 0.0
        self._log_coeffs = coeffs.real

    def _re_primitive(self, z: np.ndarray) -> np.ndarray:
        """(3, n) array of Re F at the points z.  Each pole's z - p is
        formed once: its log|z - p| serves the three coordinates and its
        1/(z - p) every form's principal part there."""
        logs, inverse = [], {}
        for i, p in enumerate(self._log_points):
            d = z - p
            logs.append(np.log(np.abs(d)))
            if i in self._inverted:
                inverse[i] = 1.0 / d
        # rational parts of the antiderivatives of u, v and w, each by Horner
        # with no constant term: y = c_0 x, then y = (y + c_j) x
        R = np.zeros((3, len(z)), dtype=np.complex128)
        for col, i, (c0, *rest) in self._rational:
            x = z if i < 0 else inverse[i]
            y = c0 * x
            for c in rest:
                y = (y + c) * x
            R[col] += y
        X = (_COMBINATION @ R).real
        for c1, log in zip(self._log_coeffs.T, logs):
            X += c1[:, None] * log
        return X

    def __call__(self, z) -> np.ndarray:
        """(n, 3) array of X at the points z."""
        z = np.append(np.ravel(np.asarray(z, dtype=np.complex128)), self._base)
        X = np.empty((len(z), 3))
        edges = [*range(0, max(len(z) - 1, 1), BLOCK), len(z)]
        for start, stop in zip(edges, edges[1:]):
            X[start:stop] = self._re_primitive(z[start:stop]).T
        return X[:-1] - X[-1]


def gauss_value(data: WeierstrassData, p) -> complex:
    """Value of G at a sphere point; at INF, where G grows like its
    coefficient times z**degree, a pole above degree 0, the coefficient at
    degree 0 and 0 below.  Raises PoleEvaluation at poles of G."""
    g = data.gauss_map
    if not is_infinity(p):
        return g.eval(p)
    if g.degree > 0:
        raise PoleEvaluation(p, "G")
    return g.coefficient if g.degree == 0 else 0j


def stereographic_normal(g):
    """(n_x, n_y, n_z) by inverse stereographic projection of G values, a
    scalar or an array; G = 0 maps to the south pole (0, 0, -1)."""
    m2 = abs(g) ** 2
    denom = m2 + 1.0
    return 2.0 * g.real / denom, 2.0 * g.imag / denom, (m2 - 1.0) / denom


def metric_scale(g, dh):
    """Induced-metric scale 0.5*(|G| + 1/|G|)*|dh| from values of G and of
    the dh coefficient, scalars or arrays."""
    mag = abs(g)
    return 0.5 * (mag + 1.0 / mag) * abs(dh)


def gauss_normal(data: WeierstrassData, z) -> np.ndarray:
    """Unit normal at a sphere point; G = infinity, or a G whose squared
    modulus overflows, maps to (0, 0, 1)."""
    try:
        g = gauss_value(data, z)
    except PoleEvaluation:
        g = complex(math.inf)
    if not math.isfinite(abs(g) * abs(g)):
        return np.array([0.0, 0.0, 1.0])
    return np.array(stereographic_normal(g))


# -- audits -----------------------------------------------------------


@dataclass(frozen=True)
class RegularityViolation:
    location: object
    g_order: int
    dh_order: int


def regularity_check(data: WeierstrassData):
    """Away from punctures, G has a zero/pole iff dh has a zero of equal
    multiplicity, |ord G| = ord dh.  Returns the violations (empty when
    regular) from the order columns, by singular entry, infinity last."""
    points = len(data._table.points)
    og, odh = data._orders
    bad = np.abs(og) != odh
    bad[data._entries] = False  # the punctures' columns: P is infinity, -1 the zero column
    columns = np.append(data._singular, points)
    return [RegularityViolation(INF if c == points else complex(data._table.points[c]),
                                int(og[c]), int(odh[c])) for c in columns[bad[columns]].tolist()]


@dataclass(frozen=True)
class DegreeAudit:
    g_zeros: int
    g_poles: int
    dh_zeros: int
    dh_poles: int

    @property
    def passed(self) -> bool:
        return self.g_zeros == self.g_poles and self.dh_zeros == self.dh_poles - 2


def degree_audit(data: WeierstrassData) -> DegreeAudit:
    """Count zeros and poles with multiplicity over the whole sphere, from
    the data's order columns: the table's entries and infinity; on a
    sphere G balances exactly and dh has two fewer zeros than poles."""
    orders = data._orders
    (gz, dz), (g, d) = np.maximum(orders, 0).sum(axis=1).tolist(), orders.sum(axis=1).tolist()
    return DegreeAudit(gz, gz - g, dz, dz - d)


# -- end classification -----------------------------------------------


@dataclass(frozen=True)
class EndDescriptor:
    location: object
    kind: str | None  # None: the order pair matches no pattern
    limit_normal: tuple | None
    log_growth_sign: int | None


def _log_growth_sign(data: WeierstrassData, column: int) -> int:
    """Sign of the vertical growth x3 ~ Re(Res_p(dh) * log(z - p)) at an
    end: -1 (the end points down) when the residue's real part is
    positive, and 0 when that real part is within its rounding floor, so
    not resolved.  `column` is the end's: at a finite end an entry
    where dh has a pole, c_1 from dh's Laurent table and its floor
    (`algebra._rounding_floor`); P, the column after the table's entries,
    is infinity (`algebra.outer_expansion`)."""
    if column == len(data._table.points):
        _, res, floor = outer_expansion(data.dh)
    else:
        res, floor = _laurent_table(data.dh)[column, 0], _rounding_floor(data.dh, [column])[0][0]
    if abs(res.real) <= floor:
        return 0
    return -1 if res.real > 0 else 1


def end_kind(g_order: int, dh_order: int):
    """The end type of the order pair (ord G, ord dh) at a puncture, None if
    it matches no pattern: planar where |ord G| = k + 1 >= 2 and ord dh =
    k - 1, a vertical catenoid where |ord G| = 1 and ord dh = -1, and a
    non-vertical one where ord G = 0 and ord dh = -2."""
    if abs(g_order) == 1 and dh_order == -1:
        return CATENOID_VERTICAL_DOWN if g_order > 0 else CATENOID_VERTICAL_UP
    if abs(g_order) >= 2 and dh_order == abs(g_order) - 2:
        return PLANAR_HORIZONTAL
    if g_order == 0 and dh_order == -2:
        return CATENOID_NON_VERTICAL
    return None


def puncture_ends(data: WeierstrassData) -> list:
    """(location, ord G, ord dh, end_kind) at each puncture, the orders read
    at the punctures' columns and each distinct pair classified once."""
    og, odh = data._orders[:, data._entries].tolist()
    kinds = {pair: end_kind(*pair) for pair in set(zip(og, odh))}
    return [(p, g, d, kinds[g, d]) for p, g, d in zip(data.punctures, og, odh)]


def _describe_end(data: WeierstrassData, p, g_order: int, kind, column: int) -> EndDescriptor:
    """The limit normal and log growth sign of an end of the given kind at
    its `column`; an end of no kind has neither."""
    if kind is None:
        return EndDescriptor(p, None, None, None)
    if kind == CATENOID_NON_VERTICAL:
        normal = tuple(gauss_normal(data, p))
    else:
        normal = (0.0, 0.0, -1.0) if g_order > 0 else (0.0, 0.0, 1.0)
    sign = 0 if kind == PLANAR_HORIZONTAL else _log_growth_sign(data, column)
    return EndDescriptor(p, kind, normal, sign)


def describe_ends(data: WeierstrassData, ends) -> list:
    """`_describe_end` at each (location, ord G, ord dh, kind) of `ends`,
    the data's `puncture_ends`, each at its puncture's column."""
    return [_describe_end(data, p, g, kind, i)
            for (p, g, _, kind), i in zip(ends, data._entries.tolist())]


# -- report serialization ---------------------------------------------


def point_json(p):
    if is_infinity(p):
        return "inf"
    p = complex(p)
    return {"re": p.real, "im": p.imag}
