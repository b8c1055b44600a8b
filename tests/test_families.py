"""Family constructors: verification gates, symmetry, serialization."""

import cmath
import json
import math

import pytest

from spheremin.algebra import contour_radius, is_infinity, same_point
from spheremin.errors import ParameterDomainError
from spheremin.families import (
    FAMILIES,
    FamilyInstance,
    double_vase_weierstrass_data,
    from_descriptor,
    make_family,
    vase_weierstrass_data,
)


def test_vase_instance_is_fully_verified(vase2):
    assert vase2.family == "vase"
    assert vase2.params.rho == pytest.approx(1.1094003924504583, rel=1e-12)
    assert not vase2.provenance["mismatch"]
    assert vase2.provenance["residual"] < 1e-9


def test_double_vase_instance_is_fully_verified(dvase2):
    assert dvase2.family == "double_vase"
    assert dvase2.params.a > 1.0
    assert dvase2.provenance["residual"] < 1e-8


def test_catenoid_fixture(catenoid):
    assert catenoid.family == "catenoid"
    assert catenoid.params is None
    assert len(catenoid.data.punctures) == 2


def test_vase_punctures_layout(vase3):
    pts = vase3.data.punctures
    assert pts[0] == 0j
    finite_ring = pts[2:]
    assert len(finite_ring) == 3
    for j, p in enumerate(finite_ring):
        assert p == pytest.approx(cmath.exp(2j * math.pi * j / 3))


def test_double_vase_punctures_layout(dvase2):
    b = dvase2.params.b
    radii = sorted(abs(p) for p in dvase2.data.punctures[2:])
    assert radii == pytest.approx([b, b, 1.0 / b, 1.0 / b])


def test_invalid_parameters_rejected():
    with pytest.raises(ParameterDomainError):
        make_family("vase", k=1, a=0.5)
    with pytest.raises(ParameterDomainError):
        make_family("vase", k=2, a=1.5)
    with pytest.raises(ParameterDomainError):
        make_family("double_vase", k=2, b=1.0)
    with pytest.raises(ParameterDomainError):
        make_family("vase", k=2)  # missing a
    with pytest.raises(ParameterDomainError):
        make_family("nonsense")


def test_vase_data_rotation_symmetry():
    """G and dh transform equivariantly under z -> w z for w^k = 1:
    G(wz) = w G(z) and dh(wz) d(wz) = dh(z) dz."""
    k, a, rho = 3, 0.5, 1.2
    data = vase_weierstrass_data(k, a, rho)
    w = cmath.exp(2j * math.pi / k)
    for z in (0.7 + 0.2j, 1.5 - 0.4j):
        assert data.gauss_map.eval(w * z) == pytest.approx(
            w * data.gauss_map.eval(z), rel=1e-12
        )
        assert data.dh.eval(w * z) * w == pytest.approx(
            data.dh.eval(z), rel=1e-12
        )


def test_vase_data_reflection_symmetry():
    # real coefficients: G(conj z) = conj G(z), dh(conj z) = conj dh(z)
    data = vase_weierstrass_data(2, 0.5, 1.1)
    z = 0.8 + 0.6j
    assert data.gauss_map.eval(z.conjugate()) == pytest.approx(
        data.gauss_map.eval(z).conjugate(), rel=1e-12
    )
    assert data.dh.eval(z.conjugate()) == pytest.approx(
        data.dh.eval(z).conjugate(), rel=1e-12
    )


def test_double_vase_inversion_symmetry():
    """The gluing symmetry z -> 1/z swaps the two halves: dh transforms as
    a one-form into itself and G into 1/G up to a fixed phase, giving
    |G(1/z)| * |G(z)| = 1 when rho = 1."""
    k, b, a = 2, 0.5, 1.8
    data = double_vase_weierstrass_data(k, b, a)
    for z in (0.7 + 0.2j, 1.4 - 0.9j):
        g1 = data.gauss_map.eval(z)
        g2 = data.gauss_map.eval(1.0 / z)
        assert abs(g1) * abs(g2) == pytest.approx(1.0, rel=1e-12)
        # dh(1/z) d(1/z) = dh(1/z) * (-1/z^2) dz matches dh(z) dz in
        # magnitude along the swap
        d1 = data.dh.eval(z)
        d2 = data.dh.eval(1.0 / z) / z ** 2
        assert abs(d2) == pytest.approx(abs(d1), rel=1e-12)


def test_descriptor_round_trip(vase2):
    desc = vase2.to_descriptor()
    assert desc["family"] == "vase"
    assert desc["k"] == 2 and desc["a"] == 0.5
    rebuilt = from_descriptor(desc)
    assert isinstance(rebuilt, FamilyInstance)
    assert rebuilt.params == vase2.params
    assert str(rebuilt.data.gauss_map) == str(vase2.data.gauss_map)
    assert str(rebuilt.data.dh) == str(vase2.data.dh)


def test_default_base_points(vase2, dvase2, catenoid):
    assert vase2.default_base_point == pytest.approx(0.75)
    assert dvase2.default_base_point == 1.0 + 0j
    assert catenoid.default_base_point == 1.0 + 0j


@pytest.mark.parametrize("name", list(FAMILIES))
def test_descriptor_round_trip_each_family(name):
    spec = FAMILIES[name]
    inputs = {"k": 2, spec.input_param: 0.5} if spec.solver else {}
    inst = make_family(name, **inputs)
    rebuilt = from_descriptor(json.loads(json.dumps(inst.to_descriptor())))
    assert rebuilt.family == name
    assert rebuilt.params == inst.params
    assert rebuilt.to_descriptor() == inst.to_descriptor()
    assert str(rebuilt.data.gauss_map) == str(inst.data.gauss_map)
    assert str(rebuilt.data.dh) == str(inst.data.dh)
    assert rebuilt.period.closed
    # the zero/pole tables agree with the point queries, and every finite
    # puncture's residue contour holds no other singularity
    data = inst.data
    for f in (data.gauss_map, data.dh):
        for r, o in f.finite_roots():
            assert f.order_at(r) == o
    singular = data.finite_singularities()
    for p in data.punctures:
        if is_infinity(p):
            continue
        radius = contour_radius(p, singular)
        assert all(abs(s - p) > radius for s in singular if not same_point(p, s))
