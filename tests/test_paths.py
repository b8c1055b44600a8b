"""Path planning and quadrature along puncture-avoiding routes."""

import math

import numpy as np
import pytest

from spheremin.errors import Unroutable
from spheremin.mesh import default_exclusions
from spheremin.paths import (
    ArcSegment,
    DETOUR_INFLATION,
    IntegrationPath,
    LineSegment,
    empty_path,
    integrate_forms,
    integrate_point,
    plan_path,
)
from spheremin.weierstrass import CoordinateForms

from oracles import check_path_independence, loop_path


def test_straight_route_when_clear():
    path = plan_path([(0.5j, 0.1)], 0.0, 1.0)
    assert len(path.segments) == 1
    assert isinstance(path.segments[0], LineSegment)


def test_detour_added_for_obstruction():
    path = plan_path([(0.5, 0.1)], 0.0, 1.0)
    kinds = [type(s).__name__ for s in path.segments]
    assert kinds == ["LineSegment", "ArcSegment", "LineSegment"]
    arc = path.segments[1]
    assert arc.radius == pytest.approx(DETOUR_INFLATION * 0.1)
    # the route stays outside the original disk
    for s in path.segments:
        t = np.linspace(0.0, 1.0, 50)
        assert np.all(np.abs(s.point(t) - 0.5) >= 0.1 - 1e-12)


def test_multiple_obstructions_in_order():
    path = plan_path([(0.75, 0.05), (0.25, 0.05)], 0.0, 1.0)
    arcs = [s for s in path.segments if isinstance(s, ArcSegment)]
    assert [a.center for a in arcs] == [0.25, 0.75]


def test_forced_detour_sides_differ_by_winding():
    ccw = plan_path([(0.5, 0.1)], 0.0, 1.0, detour_sign=+1)
    cw = plan_path([(0.5, 0.1)], 0.0, 1.0, detour_sign=-1)
    sweep_ccw = sum(
        s.theta1 - s.theta0 for s in ccw.segments if isinstance(s, ArcSegment)
    )
    sweep_cw = sum(
        s.theta1 - s.theta0 for s in cw.segments if isinstance(s, ArcSegment)
    )
    assert sweep_ccw > 0 > sweep_cw
    assert sweep_ccw - sweep_cw == pytest.approx(2.0 * math.pi)


def test_endpoint_inside_disk_unroutable():
    with pytest.raises(Unroutable):
        plan_path([(0.0, 0.2)], 0.1, 1.0)
    with pytest.raises(Unroutable):
        plan_path([(1.0, 0.2)], 0.0, 1.0 + 0.15j)


def test_path_chaining_validated():
    with pytest.raises(ValueError):
        IntegrationPath((LineSegment(0.0, 1.0), LineSegment(2.0, 3.0)))
    p = plan_path([], 0.0, 1.0) + plan_path([], 1.0, 2.0)
    assert p.start == 0.0 and p.end == 2.0
    assert empty_path().segments == ()


def test_loop_path_winds_once():
    loop = loop_path(0.0, 1.0, base=1.0)
    arc = loop.segments[0]
    assert arc.theta1 - arc.theta0 == pytest.approx(2.0 * math.pi)
    assert abs(loop.start - loop.end) < 1e-12


def test_catenoid_integral_closed_form(catenoid):
    """G = z, dh = dz/z from base 1: X = (1 - cosh(s) cos(t),
    -cosh(s) sin(t), s) in the log chart z = exp(s + i t)."""
    for s, t in [(0.3, 0.0), (-0.4, 1.1), (0.5, -2.0)]:
        z = np.exp(s + 1j * t)
        path = plan_path([(0.0, 0.05)], 1.0, complex(z))
        X = integrate_point(catenoid.data, path)
        want = np.array(
            [
                1.0 - math.cosh(s) * math.cos(t),
                -math.cosh(s) * math.sin(t),
                s,
            ]
        )
        assert np.allclose(X, want, atol=1e-12)


def test_integrate_forms_complex_parts(catenoid):
    # phi3 = dz/z: the full complex integral along 1 -> z is log(z)
    forms = CoordinateForms(catenoid.data)
    z = 1.5 * np.exp(0.8j)
    path = plan_path([(0.0, 0.05)], 1.0, complex(z))
    total = integrate_forms(forms, path)
    assert total[2] == pytest.approx(np.log(z), rel=1e-12)


def test_path_independence_closed_periods(vase2):
    exclusions = default_exclusions(vase2.data)
    z0, z1 = 0.75, -1.5 + 0.2j
    two_sided = [
        plan_path(exclusions, z0, z1, detour_sign=s) for s in (+1, -1)
    ]
    defect = check_path_independence(vase2.data, *two_sided)
    assert defect < 1e-8


def test_path_dependence_open_periods():
    """With rho = 1 the vase periods stay open: winding around a unit-root
    puncture changes X by the nonzero period, 2 pi times the residue
    defect (0.140625 at k=2, a=0.5)."""
    from spheremin.families import vase_weierstrass_data

    data = vase_weierstrass_data(2, 0.5, 1.0)
    exclusions = default_exclusions(data)
    z0, z1 = 0.75, 1.25
    two_sided = [
        plan_path(exclusions, z0, z1, detour_sign=s) for s in (+1, -1)
    ]
    defect = check_path_independence(data, *two_sided)
    assert defect > 0.1
    assert defect == pytest.approx(math.pi * 0.140625, rel=1e-9)


def test_default_exclusions_cover_finite_punctures(vase2, dvase2):
    for inst in (vase2, dvase2):
        finite = [p for p in inst.data.punctures if isinstance(p, complex)]
        excl = default_exclusions(inst.data)
        assert len(excl) == len(finite)
        for c, r in excl:
            assert r > 0
            assert any(abs(c - p) < 1e-12 for p in finite)


def test_mismatched_endpoints_rejected(catenoid):
    pa = plan_path([], 1.0, 2.0)
    pb = plan_path([], 1.0, 2.5)
    with pytest.raises(ValueError):
        check_path_independence(catenoid.data, pa, pb)
