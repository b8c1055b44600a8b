"""Weierstrass data: coordinate forms, audits, Gauss map and end types.

The immersion is X(z) = Re of the path integral of
(0.5*(1/G - G)*dh, 0.5i*(1/G + G)*dh, dh); this module holds the data
triple and everything that can be checked without integrating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    INF,
    FactoredMeromorphic,
    infinity_chart,
    is_infinity,
    one_form_order_at,
    residue_at,
    same_point,
)
from .errors import PoleEvaluation, UnrecognizedEndType

PLANAR_HORIZONTAL = "planar_horizontal"
CATENOID_VERTICAL_UP = "catenoid_vertical_up"
CATENOID_VERTICAL_DOWN = "catenoid_vertical_down"
CATENOID_NON_VERTICAL = "catenoid_non_vertical"


@dataclass(frozen=True)
class WeierstrassData:
    """Gauss map G, height differential coefficient (dh = coeff * dz) and
    the puncture set."""

    gauss_map: FactoredMeromorphic
    dh: FactoredMeromorphic
    punctures: tuple

    def __post_init__(self):
        pts = tuple(self.punctures)
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                if same_point(p, q):
                    raise ValueError(f"punctures are not pairwise distinct: {p!r}")
        object.__setattr__(self, "punctures", pts)
        singular: list = []
        for f in (self.gauss_map, self.dh):
            for r, _ in f.finite_roots():
                if not any(same_point(q, r) for q in singular):
                    singular.append(r)
        object.__setattr__(self, "_singular", tuple(singular))

    def is_puncture(self, p) -> bool:
        return any(same_point(p, q) for q in self.punctures)

    def finite_singularities(self):
        """All finite zeros/poles of G and dh (candidate special points for
        routing, audits and contour sizing), built once with the data."""
        return list(self._singular)


@dataclass(frozen=True)
class CoordinateForms:
    """Pointwise evaluators of the three coordinate one-form coefficients."""

    data: WeierstrassData

    def stacked(self, z: np.ndarray) -> np.ndarray:
        """(3, n) array of (phi1, phi2, phi3) values; composes evaluations
        of G and dh pointwise, never a structural sum."""
        z = np.asarray(z, dtype=np.complex128)
        g = self.data.gauss_map.eval_array(z)
        dh = self.data.dh.eval_array(z)
        inv = 1.0 / g
        return np.stack(
            [0.5 * (inv - g) * dh, 0.5j * (inv + g) * dh, dh]
        )


def coordinate_forms(data: WeierstrassData) -> CoordinateForms:
    return CoordinateForms(data)


def gauss_value(data: WeierstrassData, p) -> complex:
    """Value of G at a sphere point; INF is evaluated through the 1/z chart.
    Raises PoleEvaluation at poles of G."""
    if is_infinity(p):
        return infinity_chart(data.gauss_map).eval(0.0)
    return data.gauss_map.eval(p)


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
    """Unit normal at a sphere point; G = infinity maps to (0, 0, 1)."""
    try:
        g = gauss_value(data, z)
    except PoleEvaluation:
        g = complex(math.inf)
    if not math.isfinite(abs(g)):
        return np.array([0.0, 0.0, 1.0])
    return np.array(stereographic_normal(g))


def conformal_factor(data: WeierstrassData, z: complex) -> float:
    """Induced-metric scale at a regular point."""
    g = data.gauss_map.eval(z)
    if g == 0:
        raise PoleEvaluation(z, "1/G")
    return metric_scale(g, data.dh.eval(z))


# -- audits -----------------------------------------------------------


@dataclass(frozen=True)
class RegularityViolation:
    location: object
    g_order: int
    dh_order: int


def regularity_check(data: WeierstrassData):
    """Away from punctures, G has a zero/pole iff dh has a zero of equal
    multiplicity.  Returns the list of violations (empty when regular)."""
    candidates: list = [
        p for p in data.finite_singularities() if not data.is_puncture(p)
    ]
    if not data.is_puncture(INF):
        candidates.append(INF)
    violations = []
    for p in candidates:
        og = data.gauss_map.order_at(p)
        odh = one_form_order_at(data.dh, p)
        ok = (og == 0 and odh == 0) or (odh > 0 and abs(og) == odh)
        if not ok:
            violations.append(RegularityViolation(p, og, odh))
    return violations


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
        zeros = poles = 0
        orders = [o for _, o in f.finite_roots()]
        orders.append(one_form_order_at(f, INF) if one_form else f.order_at(INF))
        for o in orders:
            if o > 0:
                zeros += o
            else:
                poles -= o
        return zeros, poles

    gz, gp = counts(data.gauss_map, one_form=False)
    dz, dp = counts(data.dh, one_form=True)
    return DegreeAudit(gz, gp, dz, dp)


# -- end classification -----------------------------------------------


@dataclass(frozen=True)
class EndDescriptor:
    location: object
    kind: str
    limit_normal: tuple
    log_growth_sign: int


def height_residue(data: WeierstrassData, p) -> complex:
    """Residue of the one-form dh at a sphere point."""
    return residue_at(data.dh, p)


def classify_end(data: WeierstrassData, p) -> EndDescriptor:
    """Match the order pair (G, dh) at a puncture against the planar /
    vertical-catenoid / non-vertical-catenoid patterns."""
    if not data.is_puncture(p):
        raise ValueError(f"{p!r} is not a puncture")
    og = data.gauss_map.order_at(p)
    odh = one_form_order_at(data.dh, p)
    if abs(og) >= 3 and odh == abs(og) - 2:
        normal = (0.0, 0.0, -1.0) if og > 0 else (0.0, 0.0, 1.0)
        return EndDescriptor(p, PLANAR_HORIZONTAL, normal, 0)
    if abs(og) == 1 and odh == -1:
        # vertical growth x3 ~ Re(Res_p(dh) * log(z - p)) -> the end points
        # down when the residue's real part is positive
        res = height_residue(data, p)
        sign = -1 if res.real > 0 else (1 if res.real < 0 else 0)
        if og > 0:
            return EndDescriptor(p, CATENOID_VERTICAL_DOWN, (0.0, 0.0, -1.0), sign)
        return EndDescriptor(p, CATENOID_VERTICAL_UP, (0.0, 0.0, 1.0), sign)
    if og == 0 and odh == -2:
        res = height_residue(data, p)
        sign = -1 if res.real > 0 else (1 if res.real < 0 else 0)
        normal = tuple(gauss_normal(data, p))
        return EndDescriptor(p, CATENOID_NON_VERTICAL, normal, sign)
    raise UnrecognizedEndType(p, og, odh)


def classify_all_ends(data: WeierstrassData):
    return [classify_end(data, p) for p in data.punctures]


# -- report serialization ---------------------------------------------


def point_json(p):
    if is_infinity(p):
        return "inf"
    p = complex(p)
    return {"re": p.real, "im": p.imag}


def verification_report(data: WeierstrassData) -> dict:
    """JSON-ready report: per-puncture end descriptors, degree audit and
    regularity violations."""
    audit = degree_audit(data)
    return {
        "ends": [
            {
                "location": point_json(e.location),
                "kind": e.kind,
                "limit_normal": [float(x) for x in e.limit_normal],
                "log_growth_sign": e.log_growth_sign,
            }
            for e in classify_all_ends(data)
        ],
        "degree_audit": {
            "g_zeros": audit.g_zeros,
            "g_poles": audit.g_poles,
            "dh_zeros": audit.dh_zeros,
            "dh_poles": audit.dh_poles,
            "passed": audit.passed,
        },
        "regularity_violations": [
            {
                "location": point_json(v.location),
                "g_order": v.g_order,
                "dh_order": v.dh_order,
            }
            for v in regularity_check(data)
        ],
    }
