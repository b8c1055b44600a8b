"""Coordinate forms, audits, Gauss map and end classification."""

import mpmath
import numpy as np
import pytest

from spheremin.algebra import (
    INF,
    FactoredMeromorphic,
    monomial,
    same_point,
    shifted_power,
)
from spheremin.errors import ParameterDomainError, PoleEvaluation, UnrecognizedEndType
from spheremin.families import (
    make_double_vase,
    make_vase,
    solve_double_vase_a,
    solve_vase_rho,
    vase_weierstrass_data,
)
from spheremin.periods import audit
from spheremin.weierstrass import (
    CATENOID_NON_VERTICAL,
    CATENOID_VERTICAL_DOWN,
    CATENOID_VERTICAL_UP,
    PLANAR_HORIZONTAL,
    CoordinateForms,
    WeierstrassData,
    degree_audit,
    gauss_normal,
    point_json,
    puncture_ends,
    regularity_check,
    stereographic_normal,
)

from exact_residues import infinity_chart
from oracles import (
    conformal_factor,
    loop_end_records,
    loop_puncture_ends,
    one_form_order_at,
    order_at,
)


def _catenoid_data():
    G = (1.0, [monomial(1)])
    dh = (1.0, [monomial(-1)])
    return WeierstrassData(G, dh, (0j, INF))


def _ends(data):
    """The ends of the data's audit record, with their normals and signs,
    each location read back as a point."""
    return [{**e, "location": INF if e["location"] == "inf"
             else complex(e["location"]["re"], e["location"]["im"])}
            for e in audit(data, 1e-9).to_json()["ends"]]


def test_duplicate_punctures_rejected():
    G = (1.0, [monomial(1)])
    dh = (1.0, [monomial(-1)])
    with pytest.raises(ParameterDomainError):
        WeierstrassData(G, dh, (0j, 1 + 0j, 1 + 1e-12j))
    with pytest.raises(ParameterDomainError):
        WeierstrassData(G, dh, (0j, INF, INF))
    # the rule is relative: 0 matches only 0, the table's one entry
    assert WeierstrassData(G, dh, (0j, 1e-12 + 0j))._entries.tolist() == [0, -1]


def test_punctures_on_two_entries_at_one_point_are_rejected():
    """z**3 - c and z**3 - c (1 + 1e-9)**3 have one root pair that is one
    point by `same_point` and two that are not.  The table refuses the
    factors, so no two of its entries are one point (it once compared only
    the earlier factor's first root and kept six entries), and punctures
    at those two roots are refused before it, as not pairwise distinct."""
    c = 1.7 * np.exp(0.3j)
    factors = [shifted_power(3, c), shifted_power(3, c * (1 + 1e-9) ** 3)]
    first, later = (np.array(f.roots()) for f in factors)
    hits = np.argwhere(same_point(first[:, None], later[None, :]))
    assert len(hits) == 1
    (i, j), = hits.tolist()
    punctures = (complex(first[i]), complex(later[j]))
    with pytest.raises(ParameterDomainError, match="share the root"):
        WeierstrassData((1.0, []), (1.0, factors), (INF,))
    with pytest.raises(ParameterDomainError, match="not pairwise distinct"):
        WeierstrassData((1.0, []), (1.0, factors), (*punctures, INF))


def test_coordinate_forms_null_quadric(vase2):
    """phi1^2 + phi2^2 + phi3^2 = 0 pointwise: conformality of the
    representation itself, independent of any integration."""
    forms = CoordinateForms(vase2.data)
    rng = np.random.default_rng(3)
    z = 0.3 + rng.uniform(0.0, 1.5, size=60) * np.exp(
        2j * np.pi * rng.uniform(size=60)
    )
    phi = forms.stacked(z)
    null = np.sum(phi ** 2, axis=0)
    scale = np.sum(np.abs(phi) ** 2, axis=0)
    assert np.all(np.abs(null) <= 1e-12 * np.maximum(scale, 1.0))


def test_coordinate_forms_catenoid_values():
    forms = CoordinateForms(_catenoid_data())
    z = np.array([2.0 + 0j])
    phi = forms.stacked(z)[:, 0]
    # G = z, dh = dz/z at z=2: (0.5(1/2 - 2)/2, 0.5i(1/2 + 2)/2, 1/2)
    assert phi[0] == pytest.approx(0.5 * (0.5 - 2.0) / 2.0)
    assert phi[1] == pytest.approx(0.5j * (0.5 + 2.0) / 2.0)
    assert phi[2] == pytest.approx(0.5)


def test_gauss_value_and_normal():
    data = _catenoid_data()
    # G(1 + i) = 1 + i
    assert gauss_normal(data, 1.0 + 1.0j).tolist() == list(stereographic_normal(1.0 + 1.0j))
    # G(0) = 0 -> south pole; G(inf) = inf -> north pole
    assert np.allclose(gauss_normal(data, 0.0), [0.0, 0.0, -1.0])
    assert np.allclose(gauss_normal(data, INF), [0.0, 0.0, 1.0])
    # |G| = 1 on the unit circle -> horizontal normal
    n = gauss_normal(data, np.exp(0.7j))
    assert n[2] == pytest.approx(0.0, abs=1e-15)
    assert np.linalg.norm(n) == pytest.approx(1.0)


@pytest.mark.parametrize("degree, factors", [
    (3, [monomial(2), shifted_power(2, 3.0), shifted_power(1, 0.5, -1)]),
    (0, [shifted_power(2, 3.0), shifted_power(2, -1j, -1)]),
    (-2, [shifted_power(1, 1.0), shifted_power(3, 2.0, -1)]),
])
def test_gauss_value_and_normal_at_infinity_from_the_degree(degree, factors):
    # G's value at infinity against the oracle's w = 1/z pullback of G at
    # w = 0: a pole above degree 0, the coefficient at 0, exactly 0 below
    G = FactoredMeromorphic(0.5 - 2.0j, factors)
    assert G.degree == degree
    data = WeierstrassData((G.coefficient, G.factors), (1.0, []), (INF,))
    if degree > 0:
        with pytest.raises(PoleEvaluation):
            infinity_chart(G).eval(0.0)
        assert gauss_normal(data, INF).tolist() == [0.0, 0.0, 1.0]
        return
    want = infinity_chart(G).eval(0.0)
    value = data.gauss_map.coefficient if degree == 0 else 0j
    assert value == pytest.approx(want, rel=1e-12, abs=0.0)
    assert gauss_normal(data, INF).tolist() == list(stereographic_normal(value))
    assert np.allclose(gauss_normal(data, INF), stereographic_normal(want),
                       rtol=0.0, atol=1e-12)
    if degree < 0:
        assert want == 0j
        assert gauss_normal(data, INF).tolist() == [0.0, 0.0, -1.0]


def test_conformal_factor_catenoid():
    data = _catenoid_data()
    # 0.5 (|z| + 1/|z|) / |z|: equals 1 on the unit circle
    assert conformal_factor(data, np.exp(1.3j)) == pytest.approx(1.0)
    assert conformal_factor(data, 2.0) == pytest.approx(0.5 * 2.5 / 2.0)


def test_regularity_clean_families(vase2, dvase2, catenoid):
    for inst in (vase2, dvase2, catenoid):
        assert regularity_check(inst.data) == []


def _corrupted_vase_data():
    # dropping the (z^k - a^k) factor of dh orphans the zeros of G, z = +-a
    k, a, rho = 2, 0.5, 1.0
    G = (rho, [monomial(1), shifted_power(k, a ** k)])
    bad_dh = (-1.0, [monomial(-1), shifted_power(k, 1.0, -2)])
    return WeierstrassData(G, bad_dh, (0j, INF, *shifted_power(k, 1.0).roots()))


def test_regularity_detects_corruption():
    violations = regularity_check(_corrupted_vase_data())
    locs = sorted(complex(v.location).real for v in violations)
    assert locs == pytest.approx([-0.5, 0.5])


def test_regularity_violations_reach_the_record_and_its_failure_text():
    """Each violation is an entry of the record, its location as JSON, and
    the first failure names them all by their reprs."""
    data = _corrupted_vase_data()
    violations = regularity_check(data)
    record = audit(data, 1e-9).to_json()
    assert record["regularity_violations"] == [
        {"location": point_json(v.location), "g_order": 1, "dh_order": 0} for v in violations]
    assert [complex(v.location) for v in violations] == pytest.approx([0.5, -0.5], abs=1e-15)
    assert record["failures"][0] == f"regularity violations: {violations}"
    assert record["failures"][0].startswith(
        "regularity violations: [RegularityViolation(location=(0.5+0j), g_order=1, dh_order=0), "
        "RegularityViolation(location=(-0.5+")
    assert not record["passed"]


def test_degree_audit_families(vase2, dvase2, catenoid):
    for inst in (vase2, dvase2, catenoid):
        audit = degree_audit(inst.data)
        assert audit.passed
        assert audit.g_zeros == audit.g_poles
        assert audit.dh_zeros == audit.dh_poles - 2
    # vase k=2: G has 3 zeros (0, +-a) and an order-3 pole at infinity;
    # dh has poles at 0 and the unit roots (5 total) and zeros at +-a
    # plus a simple chart zero at infinity
    a2 = degree_audit(vase2.data)
    assert (a2.g_zeros, a2.g_poles, a2.dh_zeros, a2.dh_poles) == (3, 3, 3, 5)


def test_degree_audit_counts_chart_orders():
    # dz/z: simple poles at 0 and infinity, no zeros anywhere
    dh = (1.0, [monomial(-1)])
    G = (1.0, [monomial(1)])
    audit = degree_audit(WeierstrassData(G, dh, (0j, INF)))
    assert (audit.dh_zeros, audit.dh_poles) == (0, 2)
    assert audit.passed


def test_classify_vase_ends(vase2):
    k = vase2.params.k
    ends = _ends(vase2.data)
    kinds = {}
    for e in ends:
        kinds.setdefault(e["kind"], []).append(e["location"])
    assert kinds[PLANAR_HORIZONTAL] == [INF]
    assert kinds[CATENOID_VERTICAL_DOWN] == [0j]
    assert len(kinds[CATENOID_NON_VERTICAL]) == k
    for loc in kinds[CATENOID_NON_VERTICAL]:
        assert abs(abs(loc) - 1.0) < 1e-12
    # the vertical end at 0 grows downward, the ring ends upward
    at0 = next(e for e in ends if e["location"] == 0j)
    assert at0["log_growth_sign"] == -1
    ring = [e for e in ends if e["kind"] == CATENOID_NON_VERTICAL]
    assert all(e["log_growth_sign"] == 1 for e in ring)


def _mp_ring_residue(k: int, ak: float):
    """Res_1(dh) of the vase, dh = -(z^k - a^k) dz / (z (z^k - 1)^2), at 60
    digits: with z = 1 + t and z^k - 1 = t S(t), the t-derivative at 0 of
    -(z^k - a^k) / (z S(t)^2), by mpmath's numerical differentiation."""
    with mpmath.workdps(60):
        def analytic(t):
            z = 1 + t
            s = mpmath.fsum(mpmath.binomial(k, j) * t ** (j - 1) for j in range(1, k + 1))
            return -(z ** k - mpmath.mpf(ak)) / (z * s ** 2)
        return mpmath.diff(analytic, 0)


# the a and b of verify's 800-point sweep
_SWEEP = np.linspace(0.001, 0.999, 40).tolist()


@pytest.mark.parametrize("k, a, sign", [(16, 0.1, 0), (24, 0.5, 1), (8, _SWEEP[1], 1),
                                        (24, _SWEEP[12], 1), (32, _SWEEP[16], 1)])
def test_vase_ring_ends_share_one_sign(k, a, sign):
    # the k ends on the unit circle are equal under the k-fold rotation.
    # Res(dh) = -a^k / k there: at (16, 0.1) that is -6.3e-18, below its
    # rounding floor, and the signs used to be noise; at the three sweep
    # points it is -3.1e-14 to -1.3e-14, above it.  A resolved sign is
    # that of -Re Res_1(dh) at 60 digits
    ends = _ends(make_vase(k, a).data)
    ring = [e["log_growth_sign"] for e in ends if e["kind"] == CATENOID_NON_VERTICAL]
    assert ring == [sign] * k
    if sign:
        assert sign == -mpmath.sign(mpmath.re(_mp_ring_residue(k, a ** k)))


def test_classify_double_vase_ends(dvase2):
    k, b = dvase2.params.k, dvase2.params.b
    ends = _ends(dvase2.data)
    kinds = {}
    for e in ends:
        kinds.setdefault(e["kind"], []).append(e["location"])
    assert sorted(map(str, kinds[PLANAR_HORIZONTAL])) == sorted(["0j", "INF"])
    ring = kinds[CATENOID_NON_VERTICAL]
    assert len(ring) == 2 * k
    radii = sorted(abs(z) for z in ring)
    assert radii[:k] == pytest.approx([b] * k)
    assert radii[k:] == pytest.approx([1.0 / b] * k)
    assert CATENOID_VERTICAL_UP not in kinds
    assert CATENOID_VERTICAL_DOWN not in kinds


@pytest.mark.parametrize("k, b", [(24, 0.00271), (2, 0.001)])
def test_small_double_vase_ends_are_all_non_vertical(k, b):
    """Each of the 2k ends on |z| = b and |z| = 1/b is catenoid_non_vertical,
    as at every other b: G is regular there and dh has a double pole.  A
    pole of G lies about 4e-10 from each end on |z| = b, and an absolute
    matching tolerance used to merge the two."""
    ends = _ends(make_double_vase(k, b).data)
    kinds = [e["kind"] for e in ends]
    assert kinds.count(CATENOID_NON_VERTICAL) == 2 * k
    assert kinds.count(PLANAR_HORIZONTAL) == 2


def test_classify_catenoid_ends(catenoid):
    ends = _ends(catenoid.data)
    assert {e["kind"] for e in ends} == {
        CATENOID_VERTICAL_DOWN,
        CATENOID_VERTICAL_UP,
    }


def _bad_orders_data():
    # G with a double zero but dh with a simple pole matches no pattern
    G = (1.0, [monomial(2)])
    dh = (1.0, [monomial(-1), shifted_power(1, 1.0, -2)])
    return WeierstrassData(G, dh, (0j,))


def _planar_k1_data():
    # G = z^2, dh = dz/(z - 1)^2: G has a double zero at 0 and a double
    # pole at infinity, where dh has neither zero nor pole (k = 1)
    G = (1.0, [monomial(2)])
    dh = (1.0, [shifted_power(1, 1.0, -2)])
    return WeierstrassData(G, dh, (0j, INF, 1 + 0j))


def test_planar_end_of_order_k_1():
    """The planar pattern, G of order k + 1 and dh a zero of order k - 1,
    holds down to k = 1: |ord G| = 2 and dh neither zero nor pole."""
    data = _planar_k1_data()
    kinds = [PLANAR_HORIZONTAL, PLANAR_HORIZONTAL, CATENOID_NON_VERTICAL]
    assert [kind for _, _, _, kind in puncture_ends(data)] == kinds
    assert [e["kind"] for e in _ends(data)] == kinds
    assert [e["limit_normal"] for e in _ends(data)][:2] == [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]


def _grid_data():
    # the solved vase and double-vase grids of test_acceptance.py
    vases = [solve_vase_rho(k, a).data for k in range(2, 9) for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
    return vases + [solve_double_vase_a(k, b).data
                    for k in range(2, 7) for b in (0.1, 0.25, 0.5, 0.75)]


def _all_end_data():
    return _grid_data() + [_planar_k1_data(), _bad_orders_data()]


def test_table_ends_are_the_pointwise_ones():
    """The audit record reads each puncture's order pair from the root
    table and infinity's from the degrees, and its normals and growth signs
    at the punctures' entries; the oracles read them at the point, puncture
    by puncture (on data built apart, so no table is shared).  Both give the
    same order pair, kind, limit normal and log growth sign everywhere, and
    an end of no kind is a failure of the record naming its pair."""
    checked = 0
    for data, apart in zip(_all_end_data(), _all_end_data()):
        ends = puncture_ends(data)
        assert ends == loop_puncture_ends(data)
        checked_data = audit(data, 1e-8)
        record = [(e["kind"], e["limit_normal"], e["log_growth_sign"])
                  for e in checked_data.to_json()["ends"]]
        assert record == loop_end_records(apart)
        for p, g, d, kind in ends:
            assert (g, d) == (order_at(data.gauss_map, p), one_form_order_at(data.dh, p))
            if kind is None:
                (exc,) = [e for e in checked_data.failures if isinstance(e, UnrecognizedEndType)]
                assert (exc.location, exc.g_order, exc.dh_order) == (p, g, d)
            checked += 1
    assert checked == 449


def test_audit_rejects_bad_orders():
    # G's double zero with dh's simple pole at 0 matches no pattern
    checked = audit(_bad_orders_data(), 1e-9)
    (exc,) = [e for e in checked.failures if isinstance(e, UnrecognizedEndType)]
    assert (exc.location, exc.g_order, exc.dh_order) == (0j, 2, -1)
    assert not checked.to_json()["passed"]
    assert checked.to_json()["ends"][0] == {
        "location": {"re": 0.0, "im": 0.0}, "kind": None,
        "limit_normal": None, "log_growth_sign": None}


def test_end_of_no_kind_at_infinity():
    """G = z^2 has a double pole at infinity, where dh = dz/(z (z - 1)^2)
    has a simple zero: (-2, 1) matches no pattern, and the record holds
    that end with no kind, normal or sign, and a failure naming its pair."""
    G = (1.0, [monomial(2)])
    dh = (1.0, [monomial(-1), shifted_power(1, 1.0, -2)])
    record = audit(WeierstrassData(G, dh, (0j, INF, 1 + 0j)), 1e-9).to_json()
    assert record["ends"][1] == {"location": "inf", "kind": None,
                                 "limit_normal": None, "log_growth_sign": None}
    assert ("end at INF has order pair (G: -2, dh: 1) matching no planar/catenoid pattern"
            in record["failures"])


def test_non_vertical_end_at_infinity_with_g_of_degree_0():
    """G = 2 (z - 1)/(z - 2) has degree 0, so G(inf) = 2, and
    dh = (z - 1)(z - 2)/(z - 3)^2 dz has a double pole there: a
    non-vertical end whose normal is that of G = 2.  dh = (1 + 3/z + ...) dz
    near infinity, so x3 grows like 3 log|z| and the end points up."""
    G = (2.0, [shifted_power(1, 1.0), shifted_power(1, 2.0, -1)])
    dh = (1.0, [shifted_power(1, 1.0), shifted_power(1, 2.0), shifted_power(1, 3.0, -2)])
    data = WeierstrassData(G, dh, (3 + 0j, INF))
    record = audit(data, 1e-9).to_json()
    assert record["regularity_violations"] == [] and record["degree_audit"]["passed"]
    assert record["ends"][1] == {"location": "inf", "kind": CATENOID_NON_VERTICAL,
                                 "limit_normal": [0.8, 0.0, 0.6], "log_growth_sign": 1}
    assert [0.8, 0.0, 0.6] == list(stereographic_normal(2.0 + 0j))
    assert [(e["kind"], e["limit_normal"], e["log_growth_sign"])
            for e in record["ends"]] == loop_end_records(data)


def test_non_vertical_normal_is_not_vertical(vase2):
    ends = _ends(vase2.data)
    for e in ends:
        if e["kind"] == CATENOID_NON_VERTICAL:
            n = np.asarray(e["limit_normal"])
            assert np.linalg.norm(n) == pytest.approx(1.0)
            assert abs(n[2]) < 1.0 - 1e-6


def test_verification_report_shape(vase2):
    rep = audit(vase2.data, 1e-9).to_json()
    assert rep["passed"] and rep["failures"] == []
    assert rep["degree_audit"]["passed"]
    assert rep["regularity_violations"] == []
    assert len(rep["ends"]) == len(vase2.data.punctures)
    locs = [e["location"] for e in rep["ends"]]
    assert "inf" in locs
    for e in rep["ends"]:
        assert len(e["limit_normal"]) == 3


def test_unsolved_vase_still_classifies():
    # end classification is structural and holds for any rho
    data = vase_weierstrass_data(3, 0.5, 1.0)
    kinds = [e["kind"] for e in _ends(data)]
    assert kinds.count(CATENOID_NON_VERTICAL) == 3
