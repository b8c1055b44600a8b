"""Checks of the surface that the package itself never calls: the metric
scale from scalar evaluations of G and dh (`conformal_factor`), and, on
the package's path quadrature (`spheremin.paths`), a closed loop about a
point (`loop_path`), the difference of X along two paths with the same
ends (`check_path_independence`) and finite-difference tangents
(`fd_tangents`); the circle a residue contour once took
(`contour_radius`); the immersion's terms as lists for np.polyval, pole
by pole (`antiderivative`), as it first read them; and the residues at a
list of points (`residues_at`), the puncture residues, period entries,
the report's JSON and ends puncture by puncture, each point tested for
infinity and matched to the table on its own (`loop_puncture_residues`,
`loop_period_entries`, `loop_worst`, `loop_period_json`,
`loop_puncture_ends`), as the data first read them; the
orders and principal parts at points (`order_at`, `orders_at`,
`one_form_order_at`, `principal_part` over a product's `root_entries`)
and the ends' records point by point (`loop_end_records`), as the end
record first read them; and the families' printed period equations as
functions (`vase_equation`, `double_vase_equation`)."""

import cmath
import math

import numpy as np

from spheremin.algebra import (
    _laurent_table,
    _outer_series,
    _rounding_floor,
    first_entries,
    is_infinity,
    outer_expansion,
    same_point,
)
from spheremin.errors import PoleEvaluation
from spheremin.families import _vase_coefficients
from spheremin.paths import (
    NOISE_REL,
    ArcSegment,
    IntegrationPath,
    LineSegment,
    integrate_forms,
    integrate_point,
)
from spheremin.weierstrass import (
    CATENOID_NON_VERTICAL,
    CATENOID_VERTICAL_DOWN,
    CATENOID_VERTICAL_UP,
    PLANAR_HORIZONTAL,
    CoordinateForms,
    gauss_normal,
    metric_scale,
)


def conformal_factor(data, z: complex) -> float:
    """Induced-metric scale at a regular point."""
    g = data.gauss_map.eval(z)
    if g == 0:
        raise PoleEvaluation(z, "1/G")
    return metric_scale(g, data.dh.eval(z))


def loop_path(center: complex, radius: float, base: complex | None = None) -> IntegrationPath:
    """A closed counterclockwise circle around `center`, starting at `base`
    (default: center + radius)."""
    if base is None:
        theta0 = 0.0
    else:
        theta0 = cmath.phase(base - center)
    return IntegrationPath(
        (ArcSegment(center, radius, theta0, theta0 + 2.0 * math.pi),)
    )


def check_path_independence(data, path_a: IntegrationPath, path_b: IntegrationPath) -> float:
    """Norm of the difference of X along two paths sharing endpoints; small
    for period-closed data even when the paths wind around punctures."""
    if path_a.segments and path_b.segments:
        if not (same_point(path_a.start, path_b.start)
                and same_point(path_a.end, path_b.end)):
            raise ValueError("paths must share start and end points")
    xa = integrate_point(data, path_a)
    xb = integrate_point(data, path_b)
    return float(np.linalg.norm(xa - xb))


def fd_tangents(data, z: complex, h: float = 1e-3):
    """Tangents of X along the log-chart directions (s, theta) at z, by
    central differences of four short local integrations; independent of
    the sampler's closed form."""
    forms = CoordinateForms(data)

    def local(dz_target):
        seg = IntegrationPath((LineSegment(z, dz_target),))
        return integrate_forms(forms, seg).real

    zs_p, zs_m = z * math.exp(h), z * math.exp(-h)
    zt_p, zt_m = z * complex(math.cos(h), math.sin(h)), z * complex(
        math.cos(h), -math.sin(h)
    )
    xu = (local(zs_p) - local(zs_m)) / (2.0 * h)
    xv = (local(zt_p) - local(zt_m)) / (2.0 * h)
    return xu, xv


def contour_radius(p: complex, points, orders) -> float:
    """The radius of the circle a residue contour about the root p once
    took, one centre at a time: half the distance to the nearest other of
    the roots (points, orders), a zero or cancelled root within rounding
    reach (eps / NOISE_REL relative) aside, and 1.0 when none is left."""
    reach = np.finfo(float).eps / NOISE_REL * abs(p)
    dist = min((abs(q - p) for q, o in zip(points, orders)
                if not same_point(p, q) and (o < 0 or abs(q - p) >= reach)),
               default=math.inf)
    return 0.5 * dist if dist < math.inf else 1.0


def antiderivative(f):
    """An antiderivative of f dz with its log terms kept apart.

    Returns (rational, logs): `rational` lists (pole, coefficients) pairs
    for np.polyval, in z for the polynomial part (pole None) and in
    1/(z - p) for the principal part at p; `logs` lists the (pole, c_1) of
    the c_1 log(z - p) terms, read from the outer series and from the
    Laurent table's rows of negative order, never matched as points.  A
    pole is the index of its entry in f's root table, whose `points` hold
    its p: products over one table name a point by one index.
    """
    rational, logs = [], []
    if f.degree >= 0:
        a = _outer_series(f)[0]
        n = np.arange(f.degree + 1)
        rational.append((None, np.append((a / (n + 1))[::-1], 0.0)))
    poles = np.flatnonzero(f._orders < 0)
    for i, c, order in zip(poles.tolist(), _laurent_table(f)[poles], -f._orders[poles]):
        logs.append((i, c[0]))
        if order > 1:
            # c_m (z - p)**-m integrates to c_m / (1 - m) * t**(m - 1), t = 1/(z - p)
            m = np.arange(2, order + 1)
            b = c[1:order] / (1 - m)
            rational.append((i, np.append(b[::-1], 0.0)))
    return rational, logs


def residues_at(f, points) -> list:
    """Residue of f dz at each sphere point, from the Laurent table (0 where
    f has no pole) and at INF the outer series: each point tested for
    infinity, the finite ones matched to f's table."""
    infinite = np.array([is_infinity(p) for p in points], dtype=bool)
    out = np.zeros(len(points), dtype=np.complex128)
    if infinite.any():
        out[infinite] = _outer_series(f)[1]
    finite = [p for p, inf in zip(points, infinite.tolist()) if not inf]
    if finite and len(f._table.points):
        entry = first_entries(f._table.points, finite)
        out[~infinite] = np.where(entry >= 0, _laurent_table(f)[entry, 0], 0)
    return out.tolist()


def loop_puncture_residues(data) -> list:
    """(Res u, Res v, Res dh) at each puncture: one `residues_at` call per
    form over the puncture list, which tests each point for infinity and
    matches each finite one to the form's roots."""
    return list(zip(*(residues_at(f, data.punctures) for f in data.factored_forms())))


def loop_period_entries(data) -> list:
    """(location, Res((1/G - G) dh), Res((1/G + G) dh), Res(dh), defect)
    per puncture, Res u -+ Res v taken on Python complex numbers, each with
    its `loop_defect`."""
    return [(p, u - v, u + v, w, loop_defect(u - v, u + v, w))
            for p, (u, v, w) in zip(data.punctures, loop_puncture_residues(data))]


def loop_defect(res_minus, res_plus, res_dh) -> float:
    """The largest of the three parts, NaN if one is: Python's max drops a
    NaN after the first value, and a NaN part makes the sum of these
    nonnegative parts NaN."""
    parts = (abs(res_minus.imag), abs(res_plus.real), abs(res_dh.imag))
    return math.nan if math.isnan(sum(parts)) else max(parts)


def loop_worst(entries):
    """(location, defect) of the entry of NaN defect, else of the largest,
    the first on a tie: Python's max over (NaN, defect) keys."""
    p, *_, defect = max(entries, key=lambda e: (math.isnan(e[-1]), e[-1]))
    return p, defect


def loop_period_json(entries, tol) -> dict:
    """The period report's JSON, entry by entry: each location as "inf"
    or its parts, each residue as its parts, and closed where the defect is
    within tol (a NaN defect is not)."""
    def c(v):
        return {"re": v.real, "im": v.imag}

    return {"tolerance": tol, "punctures": [
        {"location": "inf" if is_infinity(p) else c(complex(p)), "res_1G_minus_G": c(minus),
         "res_1G_plus_G": c(plus), "res_dh": c(dh), "closed": defect <= tol}
        for p, minus, plus, dh, defect in entries]}


def loop_end_kind(g: int, d: int):
    if abs(g) == 1 and d == -1:
        return CATENOID_VERTICAL_DOWN if g > 0 else CATENOID_VERTICAL_UP
    if abs(g) >= 2 and d == abs(g) - 2:
        return PLANAR_HORIZONTAL
    if g == 0 and d == -2:
        return CATENOID_NON_VERTICAL
    return None


def loop_puncture_ends(data) -> list:
    """(location, ord G, ord dh, kind) at each puncture: infinity's orders
    from the degrees, a finite puncture's from the first table entry it
    matches (0, 0 where none does)."""
    og, odh = data.gauss_map._orders.tolist(), data.dh._orders.tolist()
    ends = []
    for p in data.punctures:
        if is_infinity(p):
            g, d = order_at(data.gauss_map, p), one_form_order_at(data.dh, p)
        else:
            (i,) = first_entries(data._table.points, [p]).tolist()
            g, d = (og[i], odh[i]) if i >= 0 else (0, 0)
        ends.append((p, g, d, loop_end_kind(g, d)))
    return ends


def order_at(f, p) -> int:
    """Zero order (>0), pole order (<0) or 0 of f at a sphere point:
    -degree at INF, else `orders_at`."""
    if is_infinity(p):
        return -f.degree
    return int(orders_at(f, [p])[0])


def orders_at(f, points) -> np.ndarray:
    """f's order at each finite point, from one broadcast over its table:
    the summed orders of the entries matching the point under
    same_point(entry, point)."""
    hits = same_point(f._table.points, np.asarray(points, dtype=np.complex128)[:, None])
    return np.where(hits, f._orders, 0).sum(axis=1)


def one_form_order_at(f, p) -> int:
    """Order of the one-form f dz at a sphere point: at INF, where
    dz = -dw/w**2 for w = 1/z, it is -degree - 2."""
    if is_infinity(p):
        return -f.degree - 2
    return order_at(f, p)


def root_entries(f) -> np.ndarray:
    """The entries of f's table where one of f's factors vanishes: its
    zeros and poles, and the entries where their orders cancel.  A product
    built from a factor list alone has a root at every entry of its table."""
    return np.flatnonzero(f._table.vanish[f._nonzero].any(axis=0))


_NO_ROOT = (np.empty(0, dtype=np.complex128), np.empty(0))


def principal_part(f, points) -> list:
    """(c, floor) at the first of f's roots matching each finite point p,
    empty where none does: c = (c_1, ..., c_m), m = max(1, pole order),
    and the rounding floor within which each is not resolved: a pole's
    own (`_rounding_floor`, each pole's on its own), and 0 where c_1 is
    exactly 0."""
    roots, out = root_entries(f), []
    for i in first_entries(f._table.points[roots], points).tolist():
        i = roots[i] if i >= 0 else i
        if i < 0:
            out.append(_NO_ROOT)
        elif f._orders[i] >= 0:
            out.append((_laurent_table(f)[i, :1], np.zeros(1)))
        else:
            out.append((_laurent_table(f)[i, :-f._orders[i]], _rounding_floor(f, [i])[0]))
    return out


def loop_end_records(data) -> list:
    """(kind, limit_normal, log_growth_sign) at each puncture, as the
    audit record's JSON holds them, point by point: the kind from the
    orders of G and of dh dz at the point, the normal from G's value there
    and the sign from dh's principal part at the point, or from its outer
    expansion at INF."""
    g, dh = data.gauss_map, data.dh
    records = []
    for p in data.punctures:
        og = order_at(g, p)
        kind = loop_end_kind(og, one_form_order_at(dh, p))
        if kind is None:
            records.append((None, None, None))
            continue
        if kind == CATENOID_NON_VERTICAL:
            normal = [float(x) for x in gauss_normal(data, p)]
        else:
            normal = [0.0, 0.0, -1.0] if og > 0 else [0.0, 0.0, 1.0]
        sign = 0
        if kind != PLANAR_HORIZONTAL:
            if is_infinity(p):
                _, res, floor = outer_expansion(dh)
            else:
                ((c, floors),) = principal_part(dh, [p])
                res, floor = c[0], floors[0]
            sign = 0 if abs(res.real) <= floor else (-1 if res.real > 0 else 1)
        records.append((kind, normal, sign))
    return records


def vase_equation(k: int, ak: float, rho):
    """Res_1((1/G + G) dh) of the vase in closed form, rho P + Q / rho
    for a^k = ak; rho broadcasts."""
    P, Q = _vase_coefficients(k, ak)
    return rho * P + Q / rho


def double_vase_equation(k: int, b: float, quadratic, a):
    """The printed Res_b((1/G + G) dh) of the double vase, a quadratic in
    a^k over a^k * b * (b^k - 1)^3 * (b^k + 1)^3 * k^2, from the
    coefficients `quadratic` of `families._double_vase_quadratic`; a
    broadcasts.

    It keeps the quoted sign, which is the negative of the defining
    contour integral (verified symbolically); the root set is the same
    either way."""
    ak = a ** k
    bk = b ** k
    A, B, C = quadratic
    denom = ak * b * (bk - 1.0) ** 3 * (bk + 1.0) ** 3 * k ** 2
    return (A * ak ** 2 + B * ak + C) / denom
