"""Puncture-avoiding integration paths and path quadrature: an oracle.

Paths are chains of line segments and circular arcs in the complex
plane.  X(z) is the real part of the component-wise path integral of the
coordinate forms, computed per segment by adaptive bisected Gauss
quadrature (integrands are analytic along admissible paths, so the
panels converge fast; a subdivision budget guards near-pole routes).

No mesh vertex is integrated here: `mesh.sample_mesh` evaluates the
closed form `weierstrass.Immersion`, and nothing in the package calls
this module.  Path integrals are an independent check of the closed
form; the tests' winding paths and finite-difference tangents are built
on it (`tests/oracles.py`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import same_point
from .errors import QuadratureFailure, Unroutable
from .weierstrass import CoordinateForms, WeierstrassData

# achievable relative accuracy of a factored evaluation: near high-order
# poles its values carry cancellation noise of about this size relative to
# the local magnitude, which no quadrature refinement can resolve
NOISE_REL = 1e-12
DETOUR_INFLATION = 1.1
SEGMENT_TOL = 1e-12
SUBDIVISION_BUDGET = 10_000


@dataclass(frozen=True)
class LineSegment:
    z0: complex
    z1: complex

    def point(self, t):
        return self.z0 + (self.z1 - self.z0) * t

    def derivative(self, t):
        return np.broadcast_to(self.z1 - self.z0, np.shape(t))

    @property
    def start(self):
        return self.z0

    @property
    def end(self):
        return self.z1


@dataclass(frozen=True)
class ArcSegment:
    center: complex
    radius: float
    theta0: float
    theta1: float  # sweep may exceed pi; sign sets orientation

    def _angle(self, t):
        return self.theta0 + (self.theta1 - self.theta0) * t

    def point(self, t):
        return self.center + self.radius * np.exp(1j * self._angle(t))

    def derivative(self, t):
        return (
            1j
            * (self.theta1 - self.theta0)
            * self.radius
            * np.exp(1j * self._angle(t))
        )

    @property
    def start(self):
        return complex(self.point(0.0))

    @property
    def end(self):
        return complex(self.point(1.0))


@dataclass(frozen=True)
class IntegrationPath:
    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        for s, t in zip(segs, segs[1:]):
            if not same_point(s.end, t.start):
                raise ValueError("path segments do not chain")
        object.__setattr__(self, "segments", segs)

    @property
    def start(self):
        return self.segments[0].start if self.segments else None

    @property
    def end(self):
        return self.segments[-1].end if self.segments else None

    def __add__(self, other):
        return IntegrationPath(self.segments + tuple(other.segments))


def empty_path() -> IntegrationPath:
    return IntegrationPath(())


def _segment_distance(z0: complex, z1: complex, c: complex):
    """(distance, parameter) of the closest approach of segment [z0, z1]
    to the point c."""
    d = z1 - z0
    L2 = abs(d) ** 2
    if L2 == 0:
        return abs(z0 - c), 0.0
    t = ((c - z0).real * d.real + (c - z0).imag * d.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(z0 + t * d - c), t


def plan_path(
    exclusions,
    z0: complex,
    z1: complex,
    detour_sign: int = 0,
) -> IntegrationPath:
    """Route from z0 to z1: the straight segment when it clears every
    exclusion disk, otherwise a detour arc along each offending disk's
    boundary circle inflated by 10%.

    exclusions: iterable of (center, radius).  detour_sign selects the
    arc side: 0 takes the minor arc, +1 forces counterclockwise, -1
    clockwise (used by the adversarial path-independence tests).
    """
    z0, z1 = complex(z0), complex(z1)
    for c, r in exclusions:
        if abs(z0 - c) <= r or abs(z1 - c) <= r:
            raise Unroutable(
                f"endpoint inside exclusion disk around {c!r} (radius {r})"
            )
    if z0 == z1:
        return empty_path()

    d = z1 - z0
    obstructions = []
    for c, r in exclusions:
        dist, t = _segment_distance(z0, z1, c)
        if dist < r and 0.0 < t < 1.0:
            obstructions.append((t, complex(c), float(r)))
    obstructions.sort()

    segments = []
    cur = z0
    for _, c, r in obstructions:
        rr = DETOUR_INFLATION * r
        if abs(z0 - c) <= rr or abs(z1 - c) <= rr:
            raise Unroutable(
                f"endpoint inside inflated detour circle around {c!r}"
            )
        # line-circle intersection parameters along z0 -> z1
        u = d / abs(d)
        s_mid = ((c - z0).real * u.real + (c - z0).imag * u.imag)
        h = abs(z0 + s_mid * u - c)
        half = math.sqrt(max(rr * rr - h * h, 0.0))
        s_in, s_out = s_mid - half, s_mid + half
        entry = z0 + s_in * u
        exit_ = z0 + s_out * u
        a_in = cmath.phase(entry - c)
        a_out = cmath.phase(exit_ - c)
        sweep = (a_out - a_in + math.pi) % (2.0 * math.pi) - math.pi
        if detour_sign > 0 and sweep < 0:
            sweep += 2.0 * math.pi
        elif detour_sign < 0 and sweep > 0:
            sweep -= 2.0 * math.pi
        if abs(entry - cur) > 1e-14:
            segments.append(LineSegment(cur, entry))
        segments.append(ArcSegment(c, rr, a_in, a_in + sweep))
        cur = exit_
    if abs(z1 - cur) > 1e-14 or not segments:
        segments.append(LineSegment(cur, z1))
    return IntegrationPath(tuple(segments))


# -- quadrature -------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _gl_panel(fvec, a: float, b: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t = mid + half * _GL_NODES
    vals = fvec(t)  # (3, n)
    return half * vals @ _GL_WEIGHTS, float(np.max(np.abs(vals)))


def _integrate_segment(fvec, tol: float, budget: list):
    whole, _ = _gl_panel(fvec, 0.0, 1.0)
    stack = [(0.0, 1.0, whole, tol)]
    total = np.zeros(3, dtype=np.complex128)
    while stack:
        a, b, est, tol_local = stack.pop()
        budget[0] += 1
        if budget[0] > SUBDIVISION_BUDGET:
            raise QuadratureFailure("segment subdivision budget exhausted")
        m = 0.5 * (a + b)
        left, mag_l = _gl_panel(fvec, a, m)
        right, mag_r = _gl_panel(fvec, m, b)
        err = np.max(np.abs(left + right - est))
        # noise floor: a panel of width w cannot be resolved below
        # ~NOISE_REL * max|f| * w no matter how far it is split
        floor = NOISE_REL * max(mag_l, mag_r) * (b - a)
        if err <= max(tol_local, floor) or (b - a) < 1e-10:
            total += left + right
        else:
            stack.append((a, m, left, 0.5 * tol_local))
            stack.append((m, b, right, 0.5 * tol_local))
    return total


def integrate_forms(forms: CoordinateForms, path: IntegrationPath) -> np.ndarray:
    """Complex component-wise path integral of the three coordinate forms."""
    total = np.zeros(3, dtype=np.complex128)
    budget = [0]
    for seg in path.segments:
        def fvec(t, seg=seg):
            z = seg.point(np.asarray(t))
            return forms.stacked(z) * seg.derivative(np.asarray(t))

        total += _integrate_segment(fvec, SEGMENT_TOL, budget)
    return total


def integrate_point(data: WeierstrassData, path: IntegrationPath) -> np.ndarray:
    """X displacement along the path: real part of the integral of
    (phi1, phi2, phi3)."""
    return integrate_forms(CoordinateForms(data), path).real
