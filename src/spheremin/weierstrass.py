"""Weierstrass data: coordinate forms, audits, Gauss map, end types and
the immersion in closed form.

The immersion is X(z) = Re of the path integral of
(0.5*(1/G - G)*dh, 0.5i*(1/G + G)*dh, dh).  The three forms combine
u = dh/G, v = G dh and w = dh, factored products built once with the
data (`WeierstrassData.factored_forms`).  The data take G and dh as
(coefficient, factors) and build one root table over all those factors
and four products over it: G and dh from their factor lists, u and v as
the exponent vectors dh - G and G + dh.  The audits read their orders
from the table, and the forms' Laurent tables come from one expansion
of its bases.  The antiderivative of each
form is a polynomial, principal parts and c_1 log(z - p) terms
(`Immersion`); once the periods close every c_1 is real, so X needs no
path and no quadrature.  Its terms are arrays read from each form's
Laurent table (`algebra.primitive_terms`), the same table whose c_1 the
period gate checks and whose dh entries give the ends' log growth signs.
X takes one pass over the nodes in `kernels.BLOCK` blocks, the base
point last, forming each pole's terms once for the three forms by Horner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    INF,
    FactoredMeromorphic,
    RootTable,
    first_entries,
    laurent_tables,
    is_infinity,
    one_form_order_at,
    outer_expansion,
    primitive_terms,
    principal_part,
    residues_at,
    same_point,
)
from .errors import ParameterDomainError, PoleEvaluation, UnrecognizedEndType
from .kernels import BLOCK

PLANAR_HORIZONTAL = "planar_horizontal"
CATENOID_VERTICAL_UP = "catenoid_vertical_up"
CATENOID_VERTICAL_DOWN = "catenoid_vertical_down"
CATENOID_NON_VERTICAL = "catenoid_non_vertical"


class WeierstrassData:
    """Gauss map G, height differential dh = h(z) dz and the puncture set.
    G and h are given as (coefficient, factors); the data build one root
    table over all their factors, and G, dh, u = dh/G and v = G dh are
    exponent vectors over it."""

    def __init__(self, gauss_map, dh, punctures):
        self.punctures = tuple(punctures)
        finite = np.array([p for p in self.punctures if not is_infinity(p)],
                          dtype=np.complex128)
        repeats = [INF] * (len(self.punctures) - len(finite) - 1)
        matches = np.triu(same_point(finite[:, None], finite[None, :]), 1)
        repeats += finite[matches.any(axis=0)].tolist()
        if repeats:
            raise ParameterDomainError(f"punctures are not pairwise distinct: {repeats[0]!r}")
        self._finite_punctures = finite
        (g_coef, g_factors), (dh_coef, dh_factors) = gauss_map, dh
        table = self._table = RootTable([*g_factors, *dh_factors])
        eg, edh = table.exponents(g_factors), table.exponents(dh_factors)
        g = self.gauss_map = FactoredMeromorphic(g_coef, table=table, exponents=eg)
        dh = self.dh = FactoredMeromorphic(dh_coef, table=table, exponents=edh)
        u = FactoredMeromorphic(dh.coefficient * (1.0 / g.coefficient), table=table,
                                exponents=edh - eg)
        v = FactoredMeromorphic(g.coefficient * dh.coefficient, table=table, exponents=eg + edh)
        self._forms = (u, v, dh)
        # the entries where G or dh has a zero or pole, G's first
        og, odh = g._full, dh._full
        self._singular = np.concatenate([np.flatnonzero(og), np.flatnonzero(odh * (og == 0))])
        self._puncture_entries = first_entries(table.points, finite)
        self._residues = None  # see puncture_residues

    def is_puncture(self, p) -> bool:
        if is_infinity(p):
            return len(self._finite_punctures) < len(self.punctures)
        return bool(same_point(p, self._finite_punctures).any())

    def finite_singularities(self):
        """All finite zeros/poles of G and dh (candidate special points for
        routing and audits), read from the root table."""
        return self._table.points[self._singular].tolist()

    def factored_forms(self):
        """(u, v, w) = (dh/G, G dh, dh) as factored products, built once
        with the data; (phi1, phi2, phi3) = _COMBINATION @ (u, v, w)."""
        return self._forms

    def puncture_residues(self):
        """(Res u, Res v, Res dh) at each puncture on the first request, and
        kept: the forms' Laurent tables come from one expansion of the
        table's bases (`algebra.laurent_tables`), and the punctures are
        matched to the table's entries once, with the data."""
        if self._residues is None:
            laurent_tables(self._forms)
            res = (residues_at(f, self.punctures, self._puncture_entries) for f in self._forms)
            self._residues = list(zip(*res))
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
    (phi1, phi2, phi3), evaluated on arrays in one pass over the nodes,
    the base point riding along as the last node, one `kernels.BLOCK` of
    nodes at a time into one (n + 1, 3) array; no node's X depends on its block.

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
        for start in range(0, len(z), BLOCK):
            X[start:start + BLOCK] = self._re_primitive(z[start:start + BLOCK]).T
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
    multiplicity.  Returns the list of violations (empty when regular).
    The finite candidates and their orders are read from the root table."""
    on_puncture = np.zeros(len(data._table.points), dtype=bool)
    on_puncture[data._puncture_entries[data._puncture_entries >= 0]] = True
    candidates = data._singular[~on_puncture[data._singular]]
    points = data._table.points[candidates].tolist()
    og = data.gauss_map._full[candidates].tolist()
    odh = data.dh._full[candidates].tolist()
    if not data.is_puncture(INF):
        points.append(INF)
        og.append(data.gauss_map.order_at(INF))
        odh.append(one_form_order_at(data.dh, INF))
    return [
        RegularityViolation(p, g, d)
        for p, g, d in zip(points, og, odh)
        if not ((g == 0 and d == 0) or (d > 0 and abs(g) == d))
    ]


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
    """Count zeros and poles with multiplicity over the whole sphere; on a
    sphere G balances exactly and dh has two fewer zeros than poles."""
    def counts(f: FactoredMeromorphic, one_form: bool):
        at_inf = one_form_order_at(f, INF) if one_form else f.order_at(INF)
        orders = np.append(f._orders, at_inf)
        return int(orders[orders > 0].sum()), -int(orders[orders < 0].sum())

    gz, gp = counts(data.gauss_map, one_form=False)
    dz, dp = counts(data.dh, one_form=True)
    return DegreeAudit(gz, gp, dz, dp)


# -- end classification -----------------------------------------------


@dataclass(frozen=True)
class EndDescriptor:
    location: object
    kind: str | None  # None: the order pair matches no pattern
    limit_normal: tuple | None
    log_growth_sign: int | None


def _log_growth_sign(data: WeierstrassData, p) -> int:
    """Sign of the vertical growth x3 ~ Re(Res_p(dh) * log(z - p)) at an
    end: -1 (the end points down) when the residue's real part is
    positive, and 0 when that real part is within its rounding floor
    (`algebra.principal_part`, `algebra.outer_expansion`), so not resolved."""
    if is_infinity(p):
        _, res, floor = outer_expansion(data.dh)
    else:
        c, floors = principal_part(data.dh, [p])[0]  # dh has a pole at every such end
        res, floor = c[0], floors[0]
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
    """(location, ord G, ord dh, end_kind) at each puncture: the finite
    orders read from the root table, infinity's from the degrees."""
    og, odh = data.gauss_map._full.tolist(), data.dh._full.tolist()
    entries = iter(data._puncture_entries.tolist())  # -1: no zero or pole there
    ends = []
    for p in data.punctures:
        if is_infinity(p):
            g, d = data.gauss_map.order_at(INF), one_form_order_at(data.dh, INF)
        else:
            i = next(entries)
            g, d = (og[i], odh[i]) if i >= 0 else (0, 0)
        ends.append((p, g, d, end_kind(g, d)))
    return ends


def _describe_end(data: WeierstrassData, p, g_order: int, kind) -> EndDescriptor:
    """The limit normal and log growth sign of an end of the given kind;
    an end of no kind has neither."""
    if kind is None:
        return EndDescriptor(p, None, None, None)
    if kind == CATENOID_NON_VERTICAL:
        normal = tuple(gauss_normal(data, p))
    else:
        normal = (0.0, 0.0, -1.0) if g_order > 0 else (0.0, 0.0, 1.0)
    sign = 0 if kind == PLANAR_HORIZONTAL else _log_growth_sign(data, p)
    return EndDescriptor(p, kind, normal, sign)


def classify_end(data: WeierstrassData, p) -> EndDescriptor:
    """The end at a puncture, from its order pair (G, dh) at that point;
    raises UnrecognizedEndType where the pair matches no pattern."""
    if not data.is_puncture(p):
        raise ValueError(f"{p!r} is not a puncture")
    og = data.gauss_map.order_at(p)
    odh = one_form_order_at(data.dh, p)
    kind = end_kind(og, odh)
    if kind is None:
        raise UnrecognizedEndType(p, og, odh)
    return _describe_end(data, p, og, kind)


def describe_ends(data: WeierstrassData, ends) -> list:
    """`_describe_end` at each (location, ord G, ord dh, kind) of `ends`."""
    # the log growth signs read dh's floors at the finite ends: one call
    principal_part(data.dh, data._finite_punctures)
    return [_describe_end(data, p, g, kind) for p, g, _, kind in ends]


# -- report serialization ---------------------------------------------


def point_json(p):
    if is_infinity(p):
        return "inf"
    p = complex(p)
    return {"re": p.real, "im": p.imag}
