"""Period conditions, residue equations and the family solvers."""

import cmath
import math
import types

import numpy as np
import pytest

from spheremin.algebra import (
    INF,
    FactoredMeromorphic,
    _laurent_table,
    monomial,
    same_point,
    shifted_power,
)
from spheremin.errors import (
    NoRoot,
    ParameterDomainError,
    PeriodViolation,
    SphereminError,
)
from spheremin.families import (
    FAMILIES,
    DoubleVaseParams,
    VaseParams,
    _double_vase_quadratic,
    double_vase_closed_form_a,
    double_vase_weierstrass_data,
    make_double_vase,
    make_vase,
    solve_double_vase_a,
    solve_vase_rho,
    vase_weierstrass_data,
)
from spheremin.periods import (
    ROOT_GRID,
    PeriodReport,
    assert_period_closed,
    hybrid_root,
    period_report,
)
from spheremin.weierstrass import WeierstrassData, puncture_ends

from exact_residues import combo_residue_package, combo_residue_exact
from oracles import (
    double_vase_equation,
    loop_period_entries,
    loop_puncture_ends,
    loop_puncture_residues,
    loop_worst,
    orders_at,
    residues_at,
    root_entries,
    vase_equation,
)

# frozen independent oracles (exact rationals obtained symbolically)
VASE_RES_K2_A05_RHO1 = 0.140625            # 9/64
DVASE_RES_K2_B05_A2 = 3.0 / 32.0           # symbolic residue
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


def test_double_vase_a_domain_bound():
    """a in [1e-3, 1e3] is the double vase's stated domain: a solved a
    outside it is refused before any data is built, as at the 20 points
    b in {1e-4, 5e-4}, where a is about 1/b and the residues are too small
    for the gate's absolute tolerance to judge."""
    assert DoubleVaseParams(2, 0.5, 1e3).a == 1e3
    assert DoubleVaseParams(2, 0.5, 1e-3).a == 1e-3
    for a in (1e3 * (1 + 1e-12), 1e-3 * (1 - 1e-12)):
        with pytest.raises(ParameterDomainError):
            DoubleVaseParams(2, 0.5, a)
    for k in GRID_KS:
        for b in (1e-4, 5e-4):
            with pytest.raises(ParameterDomainError, match=r"outside \[1e-3, 1e3\]"):
                solve_double_vase_a(k, b)


@pytest.mark.parametrize("family", ["vase", "double_vase"])
@pytest.mark.parametrize("solved", [0.0, -0.0, -1.0, math.inf, math.nan])
def test_solved_value_must_be_positive_and_finite(family, solved):
    """A solved value of 0 is rejected like any other that is not positive
    (the unsolved default is None), in the params and before the data is
    built."""
    spec = FAMILIES[family]
    with pytest.raises(ParameterDomainError):
        spec.params_type(2, 0.5, solved)
    with pytest.raises(ParameterDomainError):
        spec.build_data(2, 0.5, solved)
    assert getattr(spec.params_type(2, 0.5), spec.solved_param) is None


def test_vase_residue_closed_form_value():
    # k=2, a=0.5, rho=1: rho(ak-1)(k ak + k - ak + 1)/k^2 + (k+1)/(rho k^2)
    val = vase_equation(2, 0.5 ** 2, 1.0)
    assert val == pytest.approx(VASE_RES_K2_A05_RHO1, rel=1e-12)


def test_vase_residue_oracle_agreement():
    # the closed form against the package's Laurent series, within 1e-9
    for k, a, rho in [(2, 0.5, 1.0), (3, 0.3, 0.7), (5, 0.8, 2.0)]:
        closed = vase_equation(k, a ** k, rho)
        oracle = combo_residue_package(vase_weierstrass_data(k, a, rho), 1.0, +1.0)
        assert abs(closed - oracle) <= 1e-9 * max(1.0, abs(closed), abs(oracle))


def test_combo_residue_exact_matches_contour():
    data = vase_weierstrass_data(2, 0.5, 1.0)
    for p in (1.0, -1.0, 0j):
        for sign in (+1.0, -1.0):
            con = combo_residue_package(data, p, sign)
            ex = combo_residue_exact(data, p, sign)
            assert con == pytest.approx(ex, rel=1e-9, abs=1e-11)


def test_combo_residue_exact_matches_contour_on_solved_data():
    for solved in (solve_vase_rho(2, 0.5), solve_double_vase_a(6, 0.25)):
        data = solved.data
        for p in data.punctures:
            for sign in (+1.0, -1.0):
                con = combo_residue_package(data, p, sign)
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
            con = combo_residue_package(data, p, sign)
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
    defining contour integral; the solver negates it.  The
    value 3/32 at (k=2, b=1/2, a=2) was frozen from a symbolic residue
    computation."""
    printed = double_vase_equation(2, 0.5, _double_vase_quadratic(2, 0.5), 2.0)
    assert printed == pytest.approx(-DVASE_RES_K2_B05_A2, rel=1e-12)


def test_double_vase_residue_oracle_agreement():
    for k, b, a in [(2, 0.5, 2.0), (3, 0.25, 1.5), (4, 0.75, 3.0)]:
        closed = -double_vase_equation(k, b, _double_vase_quadratic(k, b), a)
        data = double_vase_weierstrass_data(k, b, a)
        contour = combo_residue_package(data, b, +1.0)
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
    # both roots of the quadratic in a^k are positive here: a bracketing
    # solver once picked the other one (b = 0.9) or missed both (b = 0.99)
    res = solve_double_vase_a(k, b)
    assert res.value == pytest.approx(a, abs=5e-6)
    assert res.numeric_root == pytest.approx(res.closed_form, rel=1e-8)


# the k of the 800-point grid (each family at 40 values of a or b) and of
# the 600-point two-root sweep (the double vase at 60 values of b)
GRID_KS = (2, 3, 4, 5, 6, 8, 12, 16, 24, 32)
GRID_X = [float(x) for x in np.linspace(0.001, 0.999, 40)]
TWO_ROOT_B = [float(b) for b in np.linspace(0.001, 0.999, 60)]
# the (k, b) of that sweep at which the double-vase quadratic in a^k has
# two positive roots (x1 x2 = C/A > 0)
TWO_ROOT = [(k, b) for k in GRID_KS for b in TWO_ROOT_B
            if np.prod(_double_vase_quadratic(k, b)[::2]) > 0]


@pytest.mark.parametrize("family", ["vase", "double_vase"])
def test_root_matches_the_radical_on_the_grid(family):
    """The root taken from the equation's coefficients and the printed
    radical agree to rounding, far inside the mismatch tolerances (1e-10
    and 1e-8)."""
    spec = FAMILIES[family]
    worst = 0.0
    for k in GRID_KS:
        for x in GRID_X:
            res = spec.solve(k, x)
            assert res.value == res.closed_form
            worst = max(worst, abs(res.numeric_root - res.closed_form) / res.closed_form)
    assert worst <= 1e-13


def _assert_shared_forms_are_standalone(data):
    """G and each factored form, all read from the data's one root table,
    against a product built from its own factors: the same points and
    orders at the entries where their factors vanish, and Laurent rows
    there and puncture residues that are ==."""
    residues = data.puncture_residues().tolist()
    for f, res in zip((data.gauss_map, *data.factored_forms()), [None, *residues]):
        g = FactoredMeromorphic(f.coefficient, f.factors)
        assert g._table is not data._table
        at_g, at_f = root_entries(g), root_entries(f)
        assert g._table.points[at_g].tolist() == f._table.points[at_f].tolist()
        assert g._orders[at_g].tolist() == f._orders[at_f].tolist()
        assert g.finite_roots() == f.finite_roots()
        assert np.array_equal(_laurent_table(g)[at_g], _laurent_table(f)[at_f])
        if res is not None:
            assert residues_at(g, data.punctures) == list(res)


@pytest.mark.parametrize("family", ["vase", "double_vase"])
def test_shared_forms_are_standalone_on_the_grid(family):
    for k in GRID_KS:
        for x in GRID_X:
            data = FAMILIES[family].build_data(k, x)[0]
            _assert_shared_forms_are_standalone(data)
            if family == "vase":
                # u = dh/G has no (z^k - a^k), whose roots the table holds
                u = data.factored_forms()[0]
                assert len(u.factors) == len(data._table.ks) - 1
                assert len(root_entries(u)) == len(data._table.points) - k


def test_shared_forms_are_standalone_at_merged_roots():
    # z - i and z^2 + 1 share the root i, the table's one entry there (at
    # the exact i of z - i), where G's orders cancel; u = dh/G has no
    # z^2 + 1, so -i is none of its entries
    G = (2.0, [monomial(1), shifted_power(1, 1j), shifted_power(2, -1.0, -1)])
    dh = (0.5, [monomial(-1), shifted_power(1, 1j, -2), shifted_power(2, -1.0, -1),
                shifted_power(3, 8.0)])
    data = WeierstrassData(G, dh, (0j, INF, 1j, -1j, 2.0 + 0j))
    assert len(data._table.points) == 1 + 1 + 2 + 3 - 1
    assert orders_at(data.gauss_map, [1j]).tolist() == [0]
    u, v, _ = data.factored_forms()
    assert -1j not in u._table.points[root_entries(u)].round(12).tolist()
    assert orders_at(v, [1j, -1j]).tolist() == [-3, -2]
    _assert_shared_forms_are_standalone(data)


TIER1_GRID = ([("vase", k, a) for k in range(2, 9) for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
              + [("double_vase", k, b) for k in range(2, 7) for b in (0.1, 0.25, 0.5, 0.75)])
GRID_800 = [(family, k, x) for family in ("vase", "double_vase") for k in GRID_KS for x in GRID_X]


def _same_bits(got, want) -> bool:
    """Equal complex arrays, the sign of every zero part included."""
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    return np.array_equal(got, want) and all(
        np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
        for part in (np.real, np.imag))


def _off_table_data():
    """Data with punctures off the root table, one of them rounded off its
    root (-1j against the table's -1.8e-16 - 1j), beside entries whose
    c_1 are not 0: those punctures read no entry's row."""
    G = (2.0, [monomial(1), shifted_power(1, 1j), shifted_power(2, -1.0, -1)])
    dh = (0.5, [monomial(-1), shifted_power(1, 1j, -2), shifted_power(2, -1.0, -1),
                shifted_power(1, 3.0, -2)])
    return [lambda: WeierstrassData(G, dh, (0j, INF, 1j, -1j, 0.5 + 0j, 3.0 + 0j)),
            lambda: WeierstrassData((1.0, [monomial(1)]),
                                    (1.0, [monomial(-1), shifted_power(1, 3.0, -2)]),
                                    (0.5 + 0j, 0j, INF, 3.0 + 0j))]


@pytest.mark.parametrize("grid", ["tier1", "800", "off-table"])
def test_array_path_is_the_per_point_path(grid):
    """The data's (3, N) puncture residues, the array period report and
    the ends read at the punctures' table entries are, on every grid point
    that builds, exactly the per-point path's (`tests/oracles.py`): one
    `residues_at` per form over the puncture list, one PeriodEntry per
    puncture and one table match per puncture, on data of their own whose
    forms build their Laurent tables one by one."""
    built = 0
    cases = {"tier1": TIER1_GRID, "800": GRID_800, "off-table": _off_table_data()}[grid]
    for case in cases:
        tol = 1e-9 if callable(case) else FAMILIES[case[0]].period_tol
        try:
            data, fresh = [case() if callable(case) else FAMILIES[case[0]].build_data(*case[1:])[0]
                           for _ in range(2)]
        except (ParameterDomainError, NoRoot):
            continue
        built += 1
        want = loop_puncture_residues(fresh)
        assert _same_bits(data.puncture_residues(), np.array(want).T), case
        report, entries = period_report(data, tol), loop_period_entries(fresh, tol)
        assert _same_bits(report.residues, [[e.res_minus for e in entries],
                                            [e.res_plus for e in entries],
                                            [e.res_dh for e in entries]])
        assert report.entries == tuple(entries)
        assert report.closed == all(e.closed for e in entries)
        assert report.defects.tolist() == [e.defect for e in entries]
        assert report.worst == loop_worst(entries)
        assert puncture_ends(data) == loop_puncture_ends(fresh)
    assert built == {"tier1": 55, "800": 800, "off-table": 2}[grid]


def test_catenoid_residues_keep_the_signs_of_their_zeros():
    """The catenoid's residues are exact, zeros with their signs: each form
    multiplies only its own factors' powers, where a power 1 of a factor
    it lacks would flip Res((1/G - G) dh) at 0 from -0.0 to 0.0."""
    data = FAMILIES["catenoid"].build_data()[0]
    report = period_report(data, 1e-9)
    want = np.array([[complex(-0.0, 0.0), 0j], [0j, 0j], [1 + 0j, complex(-1.0, -0.0)]])
    assert data.punctures == (0j, INF)
    assert _same_bits(report.residues, want)


def test_two_root_points_solve_to_the_radicals_branch():
    """Where both roots of A x^2 + B x + C in x = a^k are positive, the
    solver's root is the radical's, bit for bit in the solved value, and
    the other root C/(A x) lies outside the mismatch tolerance."""
    assert len(TWO_ROOT) == 60
    for k, b in TWO_ROOT:
        res = solve_double_vase_a(k, b)
        closed = double_vase_closed_form_a(k, b)
        assert res.value.hex() == closed.hex(), (k, b)
        assert abs(res.numeric_root - closed) <= 1e-13 * closed, (k, b)
        A, _, C = _double_vase_quadratic(k, b)
        other = (C / (A * res.numeric_root ** k)) ** (1.0 / k)
        assert abs(other - closed) > 1e-8 * max(other, closed), (k, b)


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


# -- the per-point grid loop that hybrid_root replaced, kept as its reference --


def loop_hybrid_root(fn, lo, hi):
    xs = np.geomspace(lo, hi, ROOT_GRID)
    vals = [fn(x) for x in xs]
    brackets = [
        (xs[i], xs[i + 1], vals[i], vals[i + 1])
        for i in range(ROOT_GRID - 1)
        if vals[i] == 0.0 or (vals[i] < 0) != (vals[i + 1] < 0)
    ]
    if not brackets:
        raise NoRoot(f"no sign change of the residue equation in [{lo}, {hi}]")
    a, b, fa, fb = brackets[0]
    if fa == 0.0:
        return float(a), len(brackets)
    while b - a > 1e-6 * max(1.0, abs(a)):
        m = 0.5 * (a + b)
        fm = fn(m)
        if fm == 0.0:
            a = b = m
            break
        if (fa < 0) != (fm < 0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    x = 0.5 * (a + b)
    for _ in range(60):
        h = 1e-7 * max(1.0, abs(x))
        d = (fn(x + h) - fn(x - h)) / (2.0 * h)
        if d == 0.0:
            break
        step = fn(x) / d
        x_new = x - step
        if not (lo <= x_new <= hi):
            break
        x = x_new
        if abs(step) <= 1e-12 * max(1.0, abs(x)):
            break
    return float(x), len(brackets)


def root_or_noroot(finder, fn, lo, hi):
    try:
        return finder(fn, lo, hi)
    except NoRoot:
        return "NoRoot"


def recording_calls(fn, calls):
    """fn, recording in `calls` whether each call was on an array."""
    def counted(x):
        calls.append(isinstance(x, np.ndarray))
        return fn(x)

    return counted


def _bin_points(edges):
    # each bin of the gate sweep at its lower edge, middle and upper end
    return [x for lo, hi in zip(edges, edges[1:])
            for x in (lo, 0.5 * (lo + hi), hi - 1e-5)]


GATE_VASE_A = _bin_points([0.001, 0.167, 0.333, 0.5, 0.667, 0.833, 0.999])
GATE_DV_B = _bin_points([0.001, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 0.99, 0.995])


def vase_bracket(k, a):
    """The vase period equation in rho and the bracket the solver once
    searched: three decades either side of the printed radical."""
    closed = solve_vase_rho(k, a).closed_form
    return (lambda rho: vase_equation(k, a ** k, rho)), 1e-3 * closed, 1e3 * closed


def double_vase_bracket(k, b):
    """The double-vase period equation in a and the bracket the solver once
    searched: [1e-3, 1e3], cut at the geometric midpoint of the two roots
    on the side of the radical when both roots are positive."""
    closed = double_vase_closed_form_a(k, b)
    quadratic = _double_vase_quadratic(k, b)
    lo, hi = 1e-3, 1e3
    A, _, C = quadratic
    if C / A > 0:
        mid = (C / A) ** (0.5 / k)
        lo, hi = (mid, hi) if closed > mid else (lo, mid)
    return (lambda a: -double_vase_equation(k, b, quadratic, a)), lo, hi


def test_hybrid_root_matches_the_loop_on_the_solver_equations():
    cases = [(vase_bracket, k, a) for k in range(2, 25) for a in GATE_VASE_A]
    cases += [(double_vase_bracket, k, b) for k in range(2, 25) for b in GATE_DV_B]
    assert len(TWO_ROOT) == 60
    cases += [(double_vase_bracket, k, b) for k, b in TWO_ROOT]
    most_scalar_calls = 0
    no_root = 0
    for bracket, k, x in cases:
        fn, lo, hi = bracket(k, x)
        calls = []
        got = hybrid_root(recording_calls(fn, calls), lo, hi)
        assert got == loop_hybrid_root(fn, lo, hi), (bracket.__name__, k, x)
        assert calls.count(True) == 1 and calls[0]
        most_scalar_calls = max(most_scalar_calls, calls.count(False))
        if bracket is double_vase_bracket:
            # the whole bracket: two roots, or none seen near b = 1
            full = root_or_noroot(hybrid_root, fn, 1e-3, 1e3)
            assert full == root_or_noroot(loop_hybrid_root, fn, 1e-3, 1e3)
            no_root += full == "NoRoot"
    assert most_scalar_calls <= 40
    # every k at the three points of the b-bin [0.99, 0.995)
    assert no_root >= 3 * 23


def test_hybrid_root_matches_the_loop_on_synthetic_functions():
    lo, hi = 0.5, 10.0
    xs = np.geomspace(lo, hi, ROOT_GRID)
    x0 = xs[37]
    with np.errstate(invalid="ignore"):
        cases = {
            # an exact zero at a grid point: after a negative value it ends
            # a bracket, and as a double root it is returned as it stands
            "zero": lambda x: x - x0,
            "double zero": lambda x: (x - x0) ** 2,
            # NaN below 3, positive just above it, root at 4
            "nan": lambda x: 1.0 - np.sqrt(x - 3.0),
            "no sign change": lambda x: 1.0 + x * x,
            # roots at 1, 2 and 3: three brackets, the first one refined
            "several": lambda x: (x - 1.0) * (x - 2.0) * (x - 3.0),
        }
        got = {name: root_or_noroot(hybrid_root, fn, lo, hi)
               for name, fn in cases.items()}
        want = {name: root_or_noroot(loop_hybrid_root, fn, lo, hi)
                for name, fn in cases.items()}
    assert got == want
    assert got["double zero"] == (float(x0), 1)
    assert got["nan"][0] == pytest.approx(4.0, rel=1e-12)
    assert got["no sign change"] == "NoRoot"
    assert got["several"][1] == 3
    assert got["several"][0] == pytest.approx(1.0, rel=1e-12)


def test_hybrid_root_never_brackets_across_nan():
    # NaN below 2.5, negative on (2.5, 4), root at 4: the per-point loop
    # took the step from NaN to a negative value for a sign change, and
    # returned (2.4999998, 2), the edge of the NaN region
    def fn(x):
        return np.sqrt(x - 2.5) - np.sqrt(1.5)

    with np.errstate(invalid="ignore"):
        root, n = hybrid_root(fn, 0.5, 10.0)
        assert loop_hybrid_root(fn, 0.5, 10.0) != (root, n)
    assert root == pytest.approx(4.0, rel=1e-12)
    assert n == 1


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
        # i * Res((1/G + G) dh) real  <=>  Re Res((1/G + G) dh) = 0
        assert abs(e.res_plus.real) > e.tol
        assert e.defect == pytest.approx(VASE_RES_K2_A05_RHO1, rel=1e-9)


def test_assert_period_closed_raises_with_report():
    data = vase_weierstrass_data(2, 0.5, 1.0)
    with pytest.raises(PeriodViolation) as exc_info:
        assert_period_closed(data, tol=1e-9)
    assert exc_info.value.report is not None
    assert not exc_info.value.report.closed


@pytest.mark.parametrize("field", ["res_minus", "res_plus", "res_dh"])
def test_nan_residue_reaches_the_defect_and_the_worst_entry(field, monkeypatch):
    # Python's max drops a NaN after its first value, which would give a
    # NaN in res_plus a defect of 0.0, let `worst` name the closed puncture
    # and the gate's message report a defect below tol; the report's
    # defects are one np.max over the three parts, which keeps the NaN
    from spheremin import periods

    tol = 1e-9
    closed = [1.0 + 5e-10j, 5e-10 + 1j, 2.0 + 5e-10j]
    broken = [1.0 + 0j, 1j, 1.0 + 0j]
    broken[["res_minus", "res_plus", "res_dh"].index(field)] = complex(math.nan, math.nan)
    for locations, columns in (((0j, 1.0 + 0j), (closed, broken)),
                               ((1.0 + 0j, 0j), (broken, closed))):
        report = PeriodReport(locations, np.array(columns).T, tol)
        ok, bad = locations.index(0j), locations.index(1.0 + 0j)
        assert report.defects[ok] == 5e-10 and math.isnan(report.defects[bad])
        assert report.entries[ok].closed and report.entries[ok].defect == 5e-10
        assert not report.entries[bad].closed and math.isnan(report.entries[bad].defect)
        assert not report.closed
        worst = report.worst
        assert worst.location == 1.0 + 0j and math.isnan(worst.defect)
        assert getattr(worst, field) != getattr(worst, field)  # the NaN part itself
        monkeypatch.setattr(periods, "period_report", lambda data, tol, report=report: report)
        with pytest.raises(PeriodViolation, match=r"at \(1\+0j\) \(defect nan > 1\.0e-09\)"):
            assert_period_closed(types.SimpleNamespace(punctures=locations), tol)


def test_period_report_entry_at_b(dvase2):
    b = dvase2.params.b
    (entry,) = [e for e in period_report(dvase2.data, tol=1e-8).entries
                if same_point(e.location, b)]
    assert entry.closed
    assert entry.defect < 1e-8


@pytest.mark.parametrize("family, k, x",
                         [("double_vase", 24, 0.5), ("vase", 24, 0.5), ("vase", 2, 0.5)])
def test_period_gate_evaluates_each_form_once_per_chart(family, k, x, monkeypatch):
    """The gate reads each factored form's residues from its Laurent
    table, a Taylor computation on its factors, and the residue at
    infinity from its series in 1/z: no form is evaluated at any node, so
    the kernel makes 0 calls, where one batched contour per chart made 4
    and one contour per residue 150 for double_vase(24, 0.5)."""
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
    assert assert_period_closed(data, spec.period_tol).closed
    assert data.dh._laurent is not None
    assert calls[0] == 0

    # the whole constructor, solver included: the solver's residual builds
    # the tables of (dh/G, G dh) that the gate then reads
    inst = make_vase(k, x) if family == "vase" else make_double_vase(k, x)
    assert inst.period.closed
    assert calls[0] == 0


@pytest.mark.parametrize("family, k, x", [
    ("vase", 2, 0.5), ("vase", 7, 0.05), ("vase", 24, 0.97),
    ("double_vase", 2, 0.001), ("double_vase", 6, 0.25), ("double_vase", 24, 0.99),
])
def test_constructor_reads_the_puncture_residues_once(family, k, x, monkeypatch):
    """The solver's residual and the gate read the data's one copy of the
    puncture residues: one `entry_residues` call, for the three forms."""
    from spheremin import weierstrass

    asked = []
    entry_residues = weierstrass.entry_residues

    def counting(products, *args):
        asked.append(products)
        return entry_residues(products, *args)

    monkeypatch.setattr(weierstrass, "entry_residues", counting)
    inst = make_vase(k, x) if family == "vase" else make_double_vase(k, x)
    assert inst.period.closed
    forms = inst.data.factored_forms()
    assert len(asked) == 1 and len(asked[0]) == 3
    assert all(f is g for f, g in zip(asked[0], forms))
    # the residual at the third puncture (z = 1 or z = b) is the gate's, bit for bit
    assert inst.provenance["residual"] == abs(inst.period.entries[2].res_plus)
