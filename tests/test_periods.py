"""Period conditions, residue equations and the family solvers."""

import cmath
import math

import pytest

from spheremin.errors import (
    ClosedFormMismatch,
    NoRoot,
    ParameterDomainError,
    PeriodViolation,
    SphereminError,
)
from spheremin.families import (
    FAMILIES,
    DoubleVaseParams,
    VaseParams,
    double_vase_closed_form_a,
    double_vase_printed_residue,
    double_vase_residue_at_b,
    double_vase_weierstrass_data,
    make_double_vase,
    solve_double_vase_a,
    solve_vase_rho,
    vase_residue_at_one,
    vase_weierstrass_data,
)
from spheremin.periods import (
    _combo_residue,
    assert_period_closed,
    hybrid_root,
    period_report,
    puncture_periods,
)

from exact_residues import combo_residue_exact

# frozen independent oracles (exact rationals obtained symbolically)
VASE_RES_K2_A05_RHO1 = 0.140625            # 9/64
DVASE_RES_K2_B05_A2 = 3.0 / 32.0           # symbolic contour residue
RHO_K2_A05 = 1.1094003924504583            # sqrt(3/(0.75*3.25))
A_K6_B025 = 3.9766740675703147


def test_param_domains():
    with pytest.raises(ParameterDomainError):
        VaseParams(1, 0.5)
    with pytest.raises(ParameterDomainError):
        VaseParams(2, 1.0)
    with pytest.raises(ParameterDomainError):
        VaseParams(2, 0.5, -1.0)
    with pytest.raises(ParameterDomainError):
        DoubleVaseParams(2, 0.0)
    with pytest.raises(ParameterDomainError):
        DoubleVaseParams(1, 0.5)


def test_vase_residue_closed_form_value():
    # k=2, a=0.5, rho=1: rho(ak-1)(k ak + k - ak + 1)/k^2 + (k+1)/(rho k^2)
    val = vase_residue_at_one(VaseParams(2, 0.5, 1.0))
    assert val == pytest.approx(VASE_RES_K2_A05_RHO1, rel=1e-12)


def test_vase_residue_oracle_agreement():
    # check_oracle compares against the trapezoidal contour internally
    for k, a, rho in [(2, 0.5, 1.0), (3, 0.3, 0.7), (5, 0.8, 2.0)]:
        vase_residue_at_one(VaseParams(k, a, rho), check_oracle=True)


def test_combo_residue_exact_matches_contour():
    data = vase_weierstrass_data(2, 0.5, 1.0)
    for p in (1.0, -1.0, 0j):
        for sign in (+1.0, -1.0):
            con = _combo_residue(data, p, sign)
            ex = combo_residue_exact(data, p, sign)
            assert con == pytest.approx(ex, rel=1e-9, abs=1e-11)


def test_combo_residue_exact_matches_contour_on_solved_data():
    for solved in (solve_vase_rho(2, 0.5), solve_double_vase_a(6, 0.25)):
        data = solved.data
        for p in data.punctures:
            for sign in (+1.0, -1.0):
                con = _combo_residue(data, p, sign)
                ex = combo_residue_exact(data, p, sign)
                assert con == pytest.approx(ex, rel=1e-9, abs=1e-11), (p, sign)


def test_combo_residue_exact_matches_contour_near_cancelled_pole():
    # at double_vase(2, 0.999) a pole of G cancelled by a zero of dh sits
    # 3e-6 from b, and a contour sized from G and dh apart was off by
    # 2.5e-7.  There Res(dh/G) and Res(G dh) are about 0.37 and cancel;
    # the exact route itself is off by 1.5e-11 at -b and -1/b, whose
    # rounded locations sit beside roots 3e-6 away, hence abs=1e-10 at
    # those two punctures only.
    from spheremin.algebra import INF

    data = solve_double_vase_a(2, 0.999).data
    for p in data.punctures:
        tol = 1e-10 if p is not INF and p.real < 0 else 1e-11
        for sign in (+1.0, -1.0):
            con = _combo_residue(data, p, sign)
            ex = combo_residue_exact(data, p, sign)
            assert con == pytest.approx(ex, rel=1e-9, abs=tol), (p, sign)


def test_vase_residues_rotate_with_unit_roots():
    """Under z -> w z (w a cube root of unity) G picks up a factor w, so
    Res((1/G) dh) rotates by conj(w) per step and Res(G dh) by w."""
    from spheremin.algebra import residue_at

    data = vase_weierstrass_data(3, 0.4, 1.3)
    inv_gdh, gdh, _ = data.factored_forms()
    w = cmath.exp(2j * math.pi / 3)
    base_inv = residue_at(inv_gdh, 1.0)
    base_g = residue_at(gdh, 1.0)
    for j in range(1, 3):
        p = w ** j
        assert residue_at(inv_gdh, p) == pytest.approx(
            base_inv * w ** -j, rel=1e-10
        )
        assert residue_at(gdh, p) == pytest.approx(base_g * w ** j, rel=1e-10)


def test_solve_vase_rho_value_and_residual():
    res = solve_vase_rho(2, 0.5)
    assert res.value == pytest.approx(RHO_K2_A05, rel=1e-12)
    assert abs(res.closed_form - res.numeric_root) < 1e-10 * res.closed_form
    assert res.residual < 1e-9


def test_vase_dh_residue_at_zero():
    # Res_0(dh) = a^k: real, as the third reality condition requires
    from spheremin.algebra import residue_at

    data = vase_weierstrass_data(2, 0.5, 1.0)
    assert residue_at(data.dh, 0j) == pytest.approx(0.25, rel=1e-12)


def test_double_vase_printed_residue_sign_convention():
    """The quoted closed form carries a global sign flip relative to the
    defining contour integral; the corrected sign is the default.  The
    value 3/32 at (k=2, b=1/2, a=2) was frozen from a symbolic residue
    computation."""
    got = double_vase_printed_residue(2, 0.5, 2.0)
    assert got == pytest.approx(DVASE_RES_K2_B05_A2, rel=1e-12)
    verbatim = double_vase_printed_residue(2, 0.5, 2.0, verbatim=True)
    assert verbatim == pytest.approx(-DVASE_RES_K2_B05_A2, rel=1e-12)


def test_double_vase_residue_oracle_agreement():
    for k, b, a in [(2, 0.5, 2.0), (3, 0.25, 1.5), (4, 0.75, 3.0)]:
        closed = double_vase_residue_at_b(
            DoubleVaseParams(k, b, a), check_oracle=True
        )
        data = double_vase_weierstrass_data(k, b, a)
        contour = _combo_residue(data, b, +1.0)
        assert closed == pytest.approx(contour, rel=1e-8)


def test_solve_double_vase_a_reference_value():
    res = solve_double_vase_a(6, 0.25)
    assert res.value == pytest.approx(A_K6_B025, rel=1e-10)
    assert abs(res.value - 3.97667) < 5e-6
    assert res.residual < 1e-8


def test_double_vase_closed_form_matches_numeric_root():
    for k, b in [(2, 0.5), (3, 0.25), (4, 0.1)]:
        res = solve_double_vase_a(k, b)
        assert res.closed_form == pytest.approx(res.numeric_root, rel=1e-8)
        assert res.value == double_vase_closed_form_a(k, b)


@pytest.mark.parametrize("k, b, a", [(2, 0.9, 1.08839), (2, 0.99, 1.00981)])
def test_double_vase_solves_to_the_radicals_root(k, b, a):
    # both roots of the quadratic in a^k are positive here: the bracket
    # used to pick the other one (b = 0.9) or to miss both (b = 0.99)
    res = solve_double_vase_a(k, b)
    assert res.value == pytest.approx(a, abs=5e-6)
    assert res.numeric_root == pytest.approx(res.closed_form, rel=1e-8)


def test_double_vase_near_unit_b_sweep():
    failures = []
    for k in range(2, 25):
        for b in (0.9, 0.95, 0.99, 0.994):
            try:
                make_double_vase(k, b)
            except SphereminError as exc:
                failures.append((k, b, type(exc).__name__))
    assert failures == []


def test_hybrid_root_simple_function():
    root, n = hybrid_root(lambda x: x * x - 2.0, 0.5, 10.0)
    assert root == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert n == 1


def test_hybrid_root_no_bracket():
    with pytest.raises(NoRoot):
        hybrid_root(lambda x: 1.0 + x * x, 0.1, 10.0)


def test_period_report_closed_for_solved_vase(vase2):
    report = period_report(vase2.data, tol=1e-9)
    assert report.closed
    assert len(report.entries) == len(vase2.data.punctures)
    payload = report.to_json()
    assert all(p["closed"] for p in payload["punctures"])


def test_period_report_open_for_unsolved_vase():
    data = vase_weierstrass_data(2, 0.5, 1.0)  # rho=1 does not close
    report = period_report(data, tol=1e-9)
    assert not report.closed
    # the violation sits at the unit roots, in the i*(1/G+G) condition
    open_entries = [e for e in report.entries if not e.closed]
    assert open_entries
    for e in open_entries:
        assert abs(abs(complex(e.location)) - 1.0) < 1e-12
        assert not e.i_plus_real
        assert e.defect == pytest.approx(VASE_RES_K2_A05_RHO1, rel=1e-9)


def test_assert_period_closed_raises_with_report():
    data = vase_weierstrass_data(2, 0.5, 1.0)
    with pytest.raises(PeriodViolation) as exc_info:
        assert_period_closed(data, tol=1e-9)
    assert exc_info.value.report is not None
    assert not exc_info.value.report.closed


def test_puncture_periods_single_entry(dvase2):
    b = dvase2.params.b
    entry = puncture_periods(dvase2.data, complex(b), tol=1e-8)
    assert entry.closed
    assert entry.defect < 1e-8


def test_closed_form_mismatch_guard(monkeypatch):
    # a drifting contour oracle must trip the closed-form cross-check
    import spheremin.families as families

    original = families._combo_residue
    monkeypatch.setattr(
        families, "_combo_residue", lambda *a, **k: original(*a, **k) + 1e-6
    )
    with pytest.raises(ClosedFormMismatch):
        vase_residue_at_one(VaseParams(2, 0.5, 1.0), check_oracle=True)


@pytest.mark.parametrize("family, k, x",
                         [("double_vase", 24, 0.5), ("vase", 24, 0.5), ("vase", 2, 0.5)])
def test_period_gate_evaluates_each_form_once_per_chart(family, k, x, monkeypatch):
    """The gate asks each factored form for every finite puncture in one
    batched Laurent evaluation, and once more on its 1/z chart: at most 6
    kernel calls, where one contour per residue made 150 for
    double_vase(24, 0.5)."""
    from spheremin import kernels

    spec = FAMILIES[family]
    solved = spec.solve(k, x).value
    data, _, _ = spec.build_data(k, x, solved)  # fresh: no table built yet
    calls = [0]
    kernel = kernels.eval_product

    def counting(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(kernels, "eval_product", counting)
    assert_period_closed(data, spec.period_tol)
    assert 0 < calls[0] <= 6
