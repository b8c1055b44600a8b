"""Family constructors: verification gates, symmetry, serialization."""

import cmath
import json
import math

import numpy as np
import pytest

from spheremin.algebra import is_infinity, outer_expansion
from spheremin.errors import ParameterDomainError, SphereminError
from spheremin.families import (
    FAMILIES,
    K_MAX,
    DoubleVaseParams,
    FamilyInstance,
    VaseParams,
    double_vase_weierstrass_data,
    make_double_vase,
    make_family,
    make_vase,
    vase_weierstrass_data,
)

from exact_residues import series_outer, series_principal_part
from oracles import order_at, principal_part, residues_at


def test_vase_instance_is_fully_verified(vase2):
    assert vase2.family == "vase"
    assert vase2.params.rho == pytest.approx(1.1094003924504583, rel=1e-12)
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


@pytest.mark.parametrize("params", [VaseParams, DoubleVaseParams])
def test_k_is_bounded(params):
    # the params hold no array: k = K_MAX is taken and one more refused
    assert params(K_MAX, 0.9).k == K_MAX == 1024
    with pytest.raises(ParameterDomainError, match="k must be at most 1024, got 1025"):
        params(K_MAX + 1, 0.9)


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
    rebuilt = make_family(desc["family"], desc.get("k"), desc.get("a"), desc.get("b"))
    assert isinstance(rebuilt, FamilyInstance)
    assert rebuilt.params == vase2.params
    assert str(rebuilt.data.gauss_map) == str(vase2.data.gauss_map)
    assert str(rebuilt.data.dh) == str(vase2.data.dh)


def test_default_base_points(vase2, dvase2, catenoid):
    def base_point(inst):
        return FAMILIES[inst.family].base_point(inst.params)

    assert base_point(vase2) == pytest.approx(0.75)
    assert base_point(dvase2) == 1.0 + 0j
    assert base_point(catenoid) == 1.0 + 0j


@pytest.mark.parametrize("name", list(FAMILIES))
def test_descriptor_round_trip_each_family(name):
    spec = FAMILIES[name]
    inputs = {"k": 2, spec.input_param: 0.5} if spec.solver else {}
    inst = make_family(name, **inputs)
    desc = json.loads(json.dumps(inst.to_descriptor()))
    rebuilt = make_family(desc["family"], desc.get("k"), desc.get("a"), desc.get("b"))
    assert rebuilt.family == name
    assert rebuilt.params == inst.params
    assert rebuilt.to_descriptor() == inst.to_descriptor()
    assert str(rebuilt.data.gauss_map) == str(inst.data.gauss_map)
    assert str(rebuilt.data.dh) == str(inst.data.dh)
    assert rebuilt.period.closed
    # the zero/pole tables agree with the point queries, and every
    # puncture residue of each factored form matches sympy's series within
    # its floor
    data = inst.data
    for f in (data.gauss_map, data.dh, *data.factored_forms()):
        for r, o in f.finite_roots():
            assert order_at(f, r) == o
    for f in data.factored_forms():
        for p, residue in zip(data.punctures, residues_at(f, data.punctures)):
            if is_infinity(p):
                _, floor = outer_expansion(f)[1:]
                assert abs(residue - series_outer(f)[1]) <= floor
                continue
            ((c, floor),) = principal_part(f, [p])
            if not len(c):  # f has no root there
                assert residue == 0
                continue
            assert residue == c[0]
            assert abs(residue - series_principal_part(f, p)[0]) <= floor[0]


@pytest.mark.parametrize("make, args",
                         [(make_vase, (6, 0.5)), (make_double_vase, (6, 0.25))])
def test_constructor_builds_its_data_once(make, args, monkeypatch):
    """The solver hands the one `WeierstrassData` it built to the gate, and
    infinity builds no product of its own: a constructor builds one root
    table, over the factors of G and dh, and four products over it, G, dh,
    dh/G and G dh (the family writes G and dh as factor lists), and each
    form's outer series once.  Every product is built by `algebra._build`,
    which counts them."""
    from spheremin import algebra
    from spheremin.weierstrass import WeierstrassData

    built = {"data": 0, "tables": 0, "products": 0, "outer": []}
    data_init = WeierstrassData.__init__
    table_init = algebra.RootTable.__init__
    build_products = algebra._build
    outer = algebra._outer_series

    def counting_data_init(self, *a, **kw):
        built["data"] += 1
        data_init(self, *a, **kw)

    def counting_table_init(self, *a, **kw):
        built["tables"] += 1
        table_init(self, *a, **kw)

    def counting_build(products, *a, **kw):
        built["products"] += len(products)
        build_products(products, *a, **kw)

    def counting_outer(f):
        if f._outer is None:
            built["outer"].append(id(f))
        return outer(f)

    monkeypatch.setattr(WeierstrassData, "__init__", counting_data_init)
    monkeypatch.setattr(algebra.RootTable, "__init__", counting_table_init)
    monkeypatch.setattr(algebra, "_build", counting_build)
    monkeypatch.setattr(algebra, "_outer_series", counting_outer)
    inst = make(*args)
    assert built["data"] == 1
    assert built["tables"] == 1
    assert built["products"] == 4
    data = inst.data
    assert all(f._table is data._table for f in (data.gauss_map, *data.factored_forms()))
    assert sorted(built["outer"]) == sorted(id(f) for f in data.factored_forms())


def test_constructor_reads_the_point_tables_as_arrays(monkeypatch):
    """Every root, pole and puncture query is an array read or one
    broadcast `same_point`: make_double_vase(24, 0.5) made 58,198 scalar
    calls when the tables were scanned pair by pair.  The calls left are
    the punctures' (their distinctness and their table entries, one
    broadcast each) and the parameters' (`DoubleVaseParams`, its circles)."""
    from spheremin import algebra, families, paths, weierstrass

    calls = [0]
    rule = algebra.same_point

    def counting_same_point(p, q, *args):
        calls[0] += 1
        return rule(p, q, *args)

    for module in (algebra, weierstrass, paths, families):
        monkeypatch.setattr(module, "same_point", counting_same_point)
    make_double_vase(24, 0.5)
    assert 0 < calls[0] <= 1000


@pytest.mark.parametrize("make, x", [(make_vase, 0.5), (make_double_vase, 0.25)])
def test_infinity_is_tested_a_fixed_number_of_times_per_constructor(make, x, monkeypatch):
    """A constructor reads its punctures as table entries and a mask of
    infinity, so `is_infinity` runs as often at k = 24 (50 punctures for
    the double vase) as at k = 2; it ran 125 times per constructor, once per
    puncture and per call, when the puncture lists were scanned point by
    point."""
    import sys

    from spheremin import algebra

    calls = [0]
    rule = algebra.is_infinity

    def counting(p):
        calls[0] += 1
        return rule(p)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spheremin" and getattr(module, "is_infinity", None) is rule:
            monkeypatch.setattr(module, "is_infinity", counting)
    counts = []
    for k in (2, 24):
        calls[0] = 0
        assert make(k, x).period.closed
        counts.append(calls[0])
    assert counts[0] == counts[1] <= 4


@pytest.mark.parametrize("make, args",
                         [(make_vase, (3, 0.4)), (make_double_vase, (6, 0.25))])
def test_each_principal_part_is_built_once(make, args, monkeypatch):
    """The gate's residues and the immersion's log terms, principal parts
    and polynomial parts read one Laurent table per form, and the three
    tables one expansion of the root table's bases: across a constructor
    and a `sample_mesh`, `_entry_bases` runs once, each entry's bases in
    it, and each form's outer series is built at most once, serving both
    the residue at infinity and the polynomial part."""
    from spheremin import algebra
    from spheremin.mesh import DomainSpec, sample_mesh

    calls, rows, outer = [], [], []
    build_rows, build_outer = algebra._entry_bases, algebra._outer_series

    def counting_rows(table, at, *args):
        calls.append(id(table))
        rows.extend((id(table), i) for i in at.tolist())
        return build_rows(table, at, *args)

    def counting_outer(f):
        if f._outer is None:
            outer.append(id(f))
        return build_outer(f)

    monkeypatch.setattr(algebra, "_entry_bases", counting_rows)
    monkeypatch.setattr(algebra, "_outer_series", counting_outer)
    inst = make(*args)
    spec = FAMILIES[inst.family]
    sample_mesh(inst.data, DomainSpec(spec.r_min, spec.r_max, 8, 16,
                                      base_point=spec.base_point(inst.params)))
    assert calls == [id(inst.data._table)]
    assert len(rows) == len(set(rows))
    # the expansion covers every form's poles
    poles = {i for f in inst.data.factored_forms() for i in np.flatnonzero(f._orders < 0).tolist()}
    assert {i for _, i in rows} == poles
    assert outer and len(outer) == len(set(outer))


def test_double_vase_gate_above_the_contour_noise_floor():
    # the integrand once reached radius * max|f| ~ 1e2 on a residue contour
    # here, where successive trapezoidal estimates differed by ~1e-12
    inst = make_double_vase(3, 0.99014)
    assert inst.period.closed
    assert inst.period.worst[1] < 1e-10


EXTREME_KS = (2, 3, 4, 6, 8, 12, 16, 24, 32)
EXTREME_PARAMS = (1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)


@pytest.mark.parametrize("make", [make_vase, make_double_vase])
def test_parameter_extremes_construct_and_pass_the_gate(make):
    # double_vase k in {2, 3, 4, 6} at b = 0.999 used to fail the gate: a
    # pole of G cancelled by a zero of dh, 3e-6 from b, shrank the contour
    failures = []
    for k in EXTREME_KS:
        for x in EXTREME_PARAMS:
            try:
                inst = make(k, x)
            except SphereminError as exc:
                failures.append((k, x, type(exc).__name__))
                continue
            if not inst.period.closed:
                failures.append((k, x, "not closed"))
    assert failures == []
