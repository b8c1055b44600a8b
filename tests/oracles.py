"""Checks of the surface that the package itself never calls: the metric
scale from scalar evaluations of G and dh (`conformal_factor`), and, on
the package's path quadrature (`spheremin.paths`), a closed loop about a
point (`loop_path`), the difference of X along two paths with the same
ends (`check_path_independence`) and finite-difference tangents
(`fd_tangents`); and the immersion's terms as lists for np.polyval, pole by
pole (`antiderivative`), as it first read them."""

import cmath
import math

import numpy as np

from spheremin.algebra import _laurent_table, _outer_series, same_point
from spheremin.errors import PoleEvaluation
from spheremin.paths import (
    ArcSegment,
    IntegrationPath,
    LineSegment,
    integrate_forms,
    integrate_point,
)
from spheremin.weierstrass import CoordinateForms, metric_scale


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
    for i, c, order in zip(f._at[poles].tolist(), _laurent_table(f)[poles], -f._orders[poles]):
        logs.append((i, c[0]))
        if order > 1:
            # c_m (z - p)**-m integrates to c_m / (1 - m) * t**(m - 1), t = 1/(z - p)
            m = np.arange(2, order + 1)
            b = c[1:order] / (1 - m)
            rational.append((i, np.append(b[::-1], 0.0)))
    return rational, logs
