"""Factored meromorphic algebra: evaluation, orders, residues."""

import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spheremin.algebra import (
    INF,
    ROUNDING_REL,
    FactoredMeromorphic,
    _fmt_number,
    Factor,
    RootTable,
    _entry_bases,
    _outer_bases,
    _series_product,
    is_infinity,
    monomial,
    outer_expansion,
    primitive_terms,
    residue_at,
    residue_contour,
    roots_of,
    same_point,
    shifted_power,
)
from spheremin.errors import ParameterDomainError, PoleEvaluation
from spheremin.families import FAMILIES, catenoid_weierstrass_data
from spheremin.weierstrass import WeierstrassData, puncture_ends

from exact_residues import (
    exact_residue_at,
    infinity_chart,
    residue_limit,
    series_outer,
    series_principal_part,
)
from kernel_reference import squaring_power, times_power
from oracles import order_at, orders_at, principal_part, residues_at, root_entries


def _poly_oracle(f: FactoredMeromorphic, z):
    """Independent evaluation through numpy polynomial expansion.

    Only valid when all exponents are positive (a plain polynomial)."""
    poly = np.polynomial.Polynomial([f.coefficient])
    for fac in f.factors:
        base = np.polynomial.Polynomial(
            [-fac.c] + [0.0] * (fac.k - 1) + [1.0]
            if fac.c != 0
            else [0.0, 1.0]
        )
        for _ in range(fac.exponent):
            poly = poly * base
    return poly(z)


# -- construction and evaluation --------------------------------------


def test_eval_simple_product():
    f = FactoredMeromorphic(2.0, [monomial(1), shifted_power(2, 1.0, -1)])
    # 2 z / (z^2 - 1)
    assert f.eval(2.0) == pytest.approx(4.0 / 3.0)
    assert f.eval(0.5j) == pytest.approx(1.0j / (-0.25 - 1.0))


def test_eval_matches_polynomial_expansion():
    f = FactoredMeromorphic(
        1.5, [monomial(2), shifted_power(3, 2.0 + 1.0j), shifted_power(1, -0.5, 2)]
    )
    rng = np.random.default_rng(7)
    z = rng.normal(size=40) + 1j * rng.normal(size=40)
    got = f.eval_array(z)
    want = _poly_oracle(f, z)
    assert np.allclose(got, want, rtol=1e-12)


def test_eval_zero_and_pole():
    f = FactoredMeromorphic(1.0, [shifted_power(2, 4.0), monomial(-1)])
    assert f.eval(2.0) == 0.0  # zero of z^2 - 4
    with pytest.raises(PoleEvaluation):
        f.eval(0.0)


def test_zero_coefficient_rejected():
    with pytest.raises(ValueError):
        FactoredMeromorphic(0.0, [monomial(1)])


def test_factor_merging_and_cancellation():
    f = FactoredMeromorphic(3.0, [monomial(2), monomial(-2)])
    assert f.factors == ()
    assert f.eval(123.0) == 3.0
    g = FactoredMeromorphic(
        1.0, [shifted_power(2, 1.0), shifted_power(2, 1.0)]
    )
    assert len(g.factors) == 1
    assert g.factors[0].exponent == 2


def test_shifted_power_zero_shift_collapses():
    f = shifted_power(3, 0.0, 2)
    assert (f.k, f.c) == (1, 0)
    assert f.exponent == 6
    with pytest.raises(ValueError):
        Factor(3, 0j, 2)


def test_immutability():
    f = FactoredMeromorphic(1.0, [monomial(1)])
    with pytest.raises(AttributeError):
        f.coefficient = 2.0


def test_str_format():
    f = FactoredMeromorphic(-1.0, [monomial(-1), shifted_power(2, 0.25, -2)])
    assert str(f) == "-1 * z^-1 * (z^2 - 0.25)^-2"


def test_mul_and_inverse():
    f = FactoredMeromorphic(2.0, [monomial(1), shifted_power(2, 1.0)])
    inverse = [Factor(h.k, h.c, -h.exponent) for h in f.factors]
    g = FactoredMeromorphic(f.coefficient * (1.0 / f.coefficient), [*f.factors, *inverse])
    assert g.factors == ()
    assert g.eval(0.7) == pytest.approx(1.0)
    h = FactoredMeromorphic(3.0 * f.coefficient, f.factors)
    assert h.eval(2.0) == pytest.approx(3.0 * f.eval(2.0))


# -- structure queries -------------------------------------------------


def test_orders_and_roots():
    f = FactoredMeromorphic(
        1.0, [monomial(-1), shifted_power(2, 4.0), shifted_power(2, 1.0, -2)]
    )
    assert order_at(f, 0.0) == -1
    assert order_at(f, 2.0) == 1
    assert order_at(f, -2.0) == 1
    assert order_at(f, 1.0) == -2
    assert order_at(f, 5.0) == 0
    assert order_at(f, INF) == -f.degree == 3
    poles = [r for r, o in f.finite_roots() if o < 0]
    assert sorted(poles, key=lambda z: z.real) == pytest.approx(
        [-1.0, 0.0, 1.0]
    )


def test_finite_roots_aggregate_shared_locations():
    # (z^2 - 1) / (z - 1): the shared root at 1 nets to order 0
    f = FactoredMeromorphic(
        1.0, [shifted_power(2, 1.0), shifted_power(1, 1.0, -1)]
    )
    roots = dict(
        (round(r.real, 9), o) for r, o in f.finite_roots()
    )
    assert roots == {-1.0: 1}


def _dh_orders(dh, punctures):
    """The orders of dh dz that the audit reads at the punctures, with a
    constant G."""
    return [d for _, _, d, _ in puncture_ends(WeierstrassData((1.0, []), dh, punctures))]


def test_one_form_order_at_infinity():
    # dz/z has simple poles at both 0 and infinity as a one-form
    assert _dh_orders((1.0, [monomial(-1)]), (0j, INF)) == [-1, -1]
    # constant one-form dz: double pole at infinity
    assert _dh_orders((1.0, []), (INF,)) == [-2]


def test_infinity_chart_function_values():
    f = FactoredMeromorphic(2.0, [monomial(1), shifted_power(2, 3.0, -1)])
    g = infinity_chart(f)
    for z in (0.5 + 0.2j, 2.0, -1.3j):
        assert g.eval(1.0 / z) == pytest.approx(f.eval(z), rel=1e-12)


def test_same_point_and_infinity():
    assert same_point(INF, INF)
    assert not same_point(INF, 1e300)
    assert same_point(1.0, 1.0 + 1e-12)
    # relative: 0 matches only 0, and small points only their neighbours
    assert same_point(0.0, 0.0) and not same_point(0.0, 1e-300)
    assert not same_point(1e-3, 1e-3 + 1e-11)
    assert is_infinity(INF)
    assert not is_infinity(0.0)


# -- the point table: references written with the built-in abs ---------


def _same(p, q):
    """The matching rule, one scalar pair at a time."""
    return abs(complex(p) - complex(q)) <= 1e-9 * abs(complex(p))


_moduli = st.sampled_from([0.0, 1e-3, 0.5, 0.999999, 1.0, 1.5, 37.0, 1e4])
_ratios = st.floats(0.999, 1.001)  # |p - q| / tolerance, at the boundary
_angles = st.floats(0.0, 2.0 * math.pi)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_moduli, _angles, _ratios, _angles), min_size=1,
                max_size=8))
def test_broadcast_same_point_is_the_scalar_rule(draws):
    p = np.array([m * cmath.exp(1j * a) for m, a, _, _ in draws])
    q = np.array([z + r * 1e-9 * abs(z) * cmath.exp(1j * b)
                  for z, (_, _, r, b) in zip(p, draws)])
    pts = np.concatenate([p, q])
    got = same_point(pts[:, None], pts[None, :])
    assert got.tolist() == [[_same(a, b) for b in pts] for a in pts]
    # two Python numbers take the built-in abs, the same rule
    assert got.tolist() == [[same_point(a, b) for b in pts.tolist()] for a in pts.tolist()]
    moduli = np.abs(pts).tolist()
    assert [[same_point(a, b) for b in moduli] for a in moduli] == \
        same_point(np.array(moduli)[:, None], np.array(moduli)).tolist()


# -- residues ----------------------------------------------------------


def test_residue_contour_simple_pole():
    f = FactoredMeromorphic(1.0, [monomial(-1)])
    assert residue_contour(f, 0.0) == pytest.approx(1.0, abs=1e-13)


def test_residue_contour_double_pole():
    # z / (z - 1)^2 has residue 1 at z = 1
    f = FactoredMeromorphic(1.0, [monomial(1), shifted_power(1, 1.0, -2)])
    assert residue_contour(f, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_residue_limit_orders():
    f1 = FactoredMeromorphic(2.0, [shifted_power(2, 1.0, -1)])
    # 2/(z^2-1) = 2/((z-1)(z+1)): residue 1 at z=1
    assert residue_limit(f1, 1.0, 1) == pytest.approx(1.0)
    f2 = FactoredMeromorphic(1.0, [monomial(1), shifted_power(1, 1.0, -2)])
    assert residue_limit(f2, 1.0, 2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        residue_limit(f2, 1.0, 3)
    with pytest.raises(ValueError):
        residue_limit(f1, 0.5, 1)  # not a pole there


def test_residue_limit_matches_contour():
    f = FactoredMeromorphic(
        1.5, [monomial(2), shifted_power(3, 8.0, -2), shifted_power(1, -4.0)]
    )
    for p in [2.0 * cmath.exp(2j * math.pi * j / 3) for j in range(3)]:
        lim = residue_limit(f, p, 2)
        con = residue_contour(f, p)
        assert lim == pytest.approx(con, rel=1e-10)


def test_residue_at_infinity_values():
    # dz/z: residue -1 at infinity (sum with +1 at 0 vanishes)
    f = FactoredMeromorphic(1.0, [monomial(-1)])
    assert residue_at(f, INF) == pytest.approx(-1.0)
    # constant one-form: no residue anywhere (the series has no z**-1 term)
    assert residue_at(FactoredMeromorphic(3.0), INF) == 0
    # z dz: still no residue at infinity (order -3)
    assert residue_at(FactoredMeromorphic(1.0, [monomial(1)]), INF) == 0


def test_residue_at_dispatch():
    # 1 / (z (z - 1)^3): simple pole at 0, order-3 pole at 1
    f = FactoredMeromorphic(1.0, [monomial(-1), shifted_power(1, 1.0, -3)])
    assert residue_at(f, 0.0) == pytest.approx(-1.0, rel=1e-12)
    assert residue_at(f, 1.0) == pytest.approx(1.0, rel=1e-10)
    # regular point gives exactly zero
    assert residue_at(f, 5.0) == 0.0
    assert residue_at(f, INF) == pytest.approx(exact_residue_at(f, INF), rel=1e-10)


def test_global_residue_theorem_fixed_cases():
    cases = [
        FactoredMeromorphic(1.0, [monomial(-1)]),
        FactoredMeromorphic(2.0, [monomial(-2), shifted_power(2, 1.0, -1)]),
        FactoredMeromorphic(
            1.0, [shifted_power(3, 1.0, -1), shifted_power(1, 2.0, -2)]
        ),
        FactoredMeromorphic(0.5j, [monomial(3), shifted_power(2, -1.0, -3)]),
    ]
    for f in cases:
        total = residue_at(f, INF)
        for p, order in f.finite_roots():
            if order < 0:
                total += residue_at(f, p)
        assert abs(total) < 1e-10


# -- property tests ----------------------------------------------------

_nice = st.sampled_from([0.25, 0.5, 1.0, 2.0, -1.0, 1.0 + 1.0j, -0.5j])
_factors = st.lists(
    st.one_of(
        st.integers(-2, 2).filter(bool).map(monomial),
        st.tuples(st.integers(1, 3), _nice, st.integers(-2, 2).filter(bool)).map(
            lambda t: shifted_power(*t)
        ),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(_factors, st.complex_numbers(min_magnitude=3.0, max_magnitude=8.0))
def test_scalar_and_array_evaluation_agree(factors, z):
    f = FactoredMeromorphic(1.3, factors)
    got = f.eval_array(np.array([z]))[0]
    want = f.eval(z)
    assert cmath.isclose(got, want, rel_tol=1e-10)


def test_kernel_drives_full_evaluation():
    # eval_array goes through spheremin.kernels.eval_product
    f = FactoredMeromorphic(2.0, [monomial(1), shifted_power(2, 1.0, -1)])
    z = np.array([2.0 + 0j, 0.5j])
    got = f.eval_array(z)
    want = np.array([f.eval(2.0), f.eval(0.5j)])
    assert np.allclose(got, want, rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(_factors, _factors)
def test_order_additivity_under_product(fa, fb):
    f, g = FactoredMeromorphic(1.0, fa), FactoredMeromorphic(1.0, fb)
    fg = FactoredMeromorphic(1.0, fa + fb)
    for p in [0.0, 1.0, -1.0, 0.5, INF]:
        assert order_at(fg, p) == order_at(f, p) + order_at(g, p)


@settings(max_examples=40, deadline=None)
@given(_factors)
def test_sphere_orders_balance(factors):
    # a meromorphic function on the sphere has equally many zeros and poles
    f = FactoredMeromorphic(2.0, factors)
    total = sum(o for _, o in f.finite_roots()) + order_at(f, INF)
    assert total == 0


@settings(max_examples=25, deadline=None)
@given(_factors)
def test_infinity_chart_round_trip(factors):
    f = FactoredMeromorphic(1.0 - 0.5j, factors)
    g = infinity_chart(infinity_chart(f))
    for z in (0.37 + 0.61j, -1.84, 2.0 + 3.0j):
        try:
            want = f.eval(z)
        except PoleEvaluation:
            continue
        assert cmath.isclose(g.eval(z), want, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(_factors)
def test_one_form_order_at_infinity_is_the_chart_order(factors):
    # -degree - 2, the order at w = 0 of the oracle's w = 1/z pullback
    f = FactoredMeromorphic(0.5 + 2.0j, factors)
    chart = infinity_chart(f, one_form=True)
    assert _dh_orders((0.5 + 2.0j, factors), (INF,)) == [order_at(chart, 0.0)]


# -- one factor form against the two kinds it replaced ----------------


def _two_kind_reference(coefficient, factors):
    """Canonical factors, `str` and evaluation of the earlier design, in
    which a factor was a monomial z**e (kind 0, k = 1, c = 0) or a shifted
    power (z**k - c)**e (kind 1), sorted by kind first; powers follow the
    kernel's squaring rule."""
    merged = {}
    for f in factors:
        key = (0, 1, 0j) if f.c == 0 else (1, f.k, f.c)
        merged[key] = merged.get(key, 0) + f.exponent
    kept = sorted(((*key, e) for key, e in merged.items() if e != 0),
                  key=lambda t: (t[0], t[1], t[2].real, t[2].imag))
    text = [_fmt_number(coefficient)] + [
        f"z^{e}" if kind == 0 else
        f"({'z' if k == 1 else f'z^{k}'} - {_fmt_number(c)})^{e}"
        for kind, k, c, e in kept
    ]
    kinds, ks, cs, exps = (np.array(col, dtype=dt) for col, dt in zip(
        zip(*kept) if kept else ((),) * 4,
        (np.int64, np.int64, np.complex128, np.int64)))

    def evaluate(z):
        out = np.empty_like(z)
        out[...] = coefficient
        powers = {}
        for kind, k, c, e in zip(kinds, ks, cs, exps):
            if kind == 0:
                base = z
            else:
                k = int(k)
                if k not in powers:
                    powers[k] = squaring_power(z, k)
                base = powers[k] - c
            out = times_power(out, base, int(e))
        return out

    return kept, " * ".join(text), evaluate


_any_factor = st.one_of(
    st.integers(-3, 3).filter(bool).map(monomial),
    # a zero shift collapses to a monomial
    st.builds(shifted_power, st.integers(1, 4),
              st.sampled_from([0.0, 0.25, 1.0, -1.0, 2.0, 1.0 + 1.0j, -0.5j]),
              st.integers(-3, 3).filter(bool)),
)


@st.composite
def _factor_lists(draw):
    """Factor lists in any order, some of whose factors cancel again."""
    factors = draw(st.lists(_any_factor, max_size=5))
    if factors:
        again = draw(st.lists(st.sampled_from(factors), max_size=3))
        factors += [Factor(f.k, f.c, -f.exponent) for f in again]
    return draw(st.permutations(factors))


@settings(max_examples=200, deadline=None)
@given(_factor_lists(), st.sampled_from([1.0, -2.5, 0.5 + 1.5j]))
def test_one_factor_form_matches_two_kind_reference(factors, coefficient):
    f = FactoredMeromorphic(coefficient, factors)
    kept, text, evaluate = _two_kind_reference(complex(coefficient), factors)
    assert [(int(g.c != 0), g.k, g.c, g.exponent) for g in f.factors] == kept
    assert str(f) == text
    ring = _ring(256)
    z = np.concatenate([3.0 + 0.5 * ring, 0.3 * ring[::7] + 0.1j])
    assert f.eval_array(z).tolist() == evaluate(z).tolist()


def _factor_table(factors):
    """(root, order) lists, one root at a time: each factor's roots in
    turn, a root matching an entry from a factor of another k adding its
    exponent to that entry.  Every such pair is compared, monomials too."""
    points, orders, ks = [], [], []
    for fac in factors:
        for r in fac.roots():
            i = next((i for i, (q, k) in enumerate(zip(points, ks))
                      if k != fac.k and _same(q, r)), None)
            if i is None:
                points.append(r)
                orders.append(fac.exponent)
                ks.append(fac.k)
            else:
                orders[i] += fac.exponent
    return points, orders


@settings(max_examples=200, deadline=None)
@given(_factor_lists())
def test_root_table_is_the_factors_roots_end_to_end(factors):
    f = FactoredMeromorphic(1.0, factors)
    points, orders = _factor_table(f.factors)
    assert f._table.points.tolist() == points
    assert f._orders.tolist() == orders
    # each order is the sum over the factors having a root at the point
    queries = points + [0.5 + 0.5j, 3.0, 1e-12]
    want = [sum(fac.exponent for fac in f.factors
                if any(_same(r, p) for r in fac.roots())) for p in queries]
    assert orders_at(f, queries).tolist() == want


def test_root_table_skips_only_pairs_that_cannot_match():
    # the table compares no monomial's root 0 with other roots: 0 matches
    # only 0, and no factor with c != 0 has that root, not even at |c| = 1e-300
    pool = [monomial(1), monomial(-2), monomial(3),
            shifted_power(1, 1.0), shifted_power(1, -1.0, 2),
            shifted_power(2, 1.0), shifted_power(2, 4.0, -2),
            shifted_power(4, 1.0, -1), shifted_power(4, 1j),
            shifted_power(1, 1e-300), shifted_power(3, -1e-300, -1)]
    rng = np.random.default_rng(22)
    merges = 0
    for _ in range(400):
        factors = [pool[i] for i in rng.choice(len(pool), size=rng.integers(1, 7))]
        f = FactoredMeromorphic(1.0, factors)
        points, orders = _factor_table(f.factors)
        assert f._table.points.tolist() == points
        assert f._orders.tolist() == orders
        assert [o for p, o in zip(points, orders) if p == 0] == [
            g.exponent for g in f.factors if g.c == 0]
        merges += len(points) < sum(g.k for g in f.factors)
    # z^2 - 1 shares roots with z^4 - 1 and with z -+ 1: the merge runs
    assert merges > 100


def _point_matched_antiderivative(f):
    """The antiderivative's terms as lists for np.polyval, with the poles
    matched back to the root table as points through `principal_part`, as
    the immersion first read them."""
    rational, logs = [], []
    if f.degree >= 0:
        a = outer_expansion(f)[0]
        n = np.arange(f.degree + 1)
        rational.append((None, np.append((a / (n + 1))[::-1], 0.0)))
    poles = f._table.points[f._orders < 0]
    for p, (c, _) in zip(poles.tolist(), principal_part(f, poles)):
        logs.append((p, c[0]))
        if len(c) > 1:
            m = np.arange(2, len(c) + 1)
            rational.append((p, np.append((c[1:] / (1 - m))[::-1], 0.0)))
    return rational, logs


def _bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def test_antiderivative_by_entry_is_the_point_matched_one():
    # z^2 - 1 merges with z^4 - 1 and with z -+ 1, and on some draws the
    # orders at 1 or -1 cancel; the monomial's exponent takes both signs
    pool = [monomial(-1), monomial(-2), monomial(2),
            shifted_power(2, 1.0), shifted_power(2, 1.0, -1),
            shifted_power(4, 1.0, -2), shifted_power(1, 1.0, -1),
            shifted_power(1, -1.0, -2), shifted_power(1, -1.0),
            shifted_power(2, 4.0, -2),
            shifted_power(3, 1j, -1), shifted_power(4, 1j)]
    rng = np.random.default_rng(23)
    merged = cancelled = high = 0
    for _ in range(300):
        factors = [pool[i] for i in rng.choice(len(pool), size=rng.integers(1, 6))]
        coeff = complex(*rng.normal(size=2))
        # each path on its own copy, so that neither reads the other's tables
        f = FactoredMeromorphic(coeff, factors)
        poly, poles, orders, c1, b = primitive_terms(f)
        # its poles are root-table entries: each names its point there
        points = f._table.points[poles].tolist()
        # the polynomial part and each principal part of order m > 1, the
        # leading coefficient first, with no constant term
        rational = [(None, poly)] if len(poly) else []
        rational += [(p, row[m - 2::-1]) for p, row, m in zip(points, b, orders.tolist())
                     if m > 1]
        want_rational, want_logs = _point_matched_antiderivative(
            FactoredMeromorphic(coeff, factors))
        assert [p for p, _ in rational] == [p for p, _ in want_rational]
        assert all(_bits_equal(c, w[:-1]) and w[-1] == 0
                   for (_, c), (_, w) in zip(rational, want_rational))
        assert points == [p for p, _ in want_logs]
        assert _bits_equal(c1, [c for _, c in want_logs])
        merged += len(f._table.points) < sum(g.k for g in f.factors)
        cancelled += bool((f._orders == 0).any())
        high += bool((f._orders <= -2).any())
    assert min(merged, cancelled, high) > 20


# -- Laurent tables against sympy and mpmath ------------------------------


def _ring(n):
    """The n-th roots of unity."""
    return np.exp(1j * (2.0 * math.pi * np.arange(n) / n))


def _assert_tables_match_the_series(f):
    """f's principal part at each of its `root_entries` and its outer
    expansion (the polynomial part and the residue at infinity) match
    sympy's series at 40 digits within their floors; a zero, or an entry
    whose orders cancel, has c_1 exactly 0, and below degree -1 the outer
    expansion is the exact 0."""
    f = FactoredMeromorphic(f.coefficient, f.factors)  # nothing built yet
    at = root_entries(f)
    points, orders = f._table.points[at], f._orders[at].tolist()
    for p, order, (c, floor) in zip(points.tolist(), orders, principal_part(f, points)):
        want = series_principal_part(f, p)
        assert len(c) == len(want) == max(1, -order)
        if order >= 0:
            assert c.tolist() == [0j]
        else:
            assert np.all(np.abs(c - want) <= floor), (p, order)
    a, residue, floor = outer_expansion(f)
    if f.degree <= -2:  # f dz has no pole at infinity
        assert (a.tolist(), residue, floor) == ([], 0j, 0.0)
        return
    want_a, want_residue = series_outer(f)
    assert abs(residue - want_residue) <= floor
    # a_n's own rounding floor, as a_-1's: the bound of its w**(degree - n) term
    _, bound = _series_product(*_outer_bases(f, max(3, f.degree + 2)))
    assert floor == ROUNDING_REL * abs(f.coefficient) * bound[0, f.degree + 1]
    floors = ROUNDING_REL * abs(f.coefficient) * bound[0, :f.degree + 1][::-1]
    assert np.all(np.abs(a - want_a) <= floors)


def _with_charts(forms):
    return [g for f in forms for g in (f, infinity_chart(f, one_form=True))]


_shift = st.complex_numbers(min_magnitude=0.2, max_magnitude=5.0,
                            allow_nan=False, allow_infinity=False)
_exponents = st.integers(-4, 4).filter(bool)
# degrees from a short list, so that several factors share one z**k
_pole_factors = st.lists(
    st.one_of(
        _exponents.map(monomial),
        st.tuples(st.sampled_from([1, 2, 3, 6]), _shift,
                  _exponents).map(lambda t: shifted_power(*t)),
    ),
    min_size=1,
    max_size=5,
)


@st.composite
def _merging_factors(draw):
    """`_pole_factors` and up to three factors (z**k - r**k)**e of distinct
    k sharing the root r: the root table merges their roots at r (and at
    the other roots two of them share) into one entry, whose orders cancel
    on some draws."""
    r = draw(_shift)
    ks = draw(st.lists(st.sampled_from([1, 2, 3, 6]), max_size=3, unique=True))
    return draw(_pole_factors) + [shifted_power(k, r ** k, draw(_exponents)) for k in ks]


def _share_a_root(factors):
    """Whether two factors of one k, neither a monomial, have a root of one
    the same point as a root of the other, by the scalar rule."""
    return any(a.k == b.k and a.c != 0 and b.c != 0
               and any(_same(r, q) for r in a.roots() for q in b.roots())
               for a, b in itertools.combinations(factors, 2))


@pytest.mark.parametrize("k", [1, 2, 3, 6, 24])
def test_factors_of_one_k_near_the_tolerance_are_refused_by_the_scalar_rule(k):
    """Two factors z**k - c of one k whose radii |c|**(1/k) differ by
    about the match tolerance, their roots aligned: the table refuses them
    exactly when a root of the earlier factor is the same point as a root
    of the later one by the scalar rule, though it compares no roots where
    the radii lie twice the tolerance apart; the message names a root of
    such a pair."""
    c = 1.7 * cmath.exp(0.3j)
    refused = 0
    for rel in np.geomspace(1e-11, 1e-7, 81).tolist():
        for scale in (1.0 + rel, 1.0 - rel):
            factors = [shifted_power(k, c), shifted_power(k, c * scale ** k)]
            first, later = sorted(factors, key=lambda f: (f.c.real, f.c.imag))
            shared = [p for p in first.roots() if any(_same(p, q) for q in later.roots())]
            if shared:
                refused += 1
                with pytest.raises(ParameterDomainError, match="share the root") as exc_info:
                    RootTable(factors)
                assert str(exc_info.value).endswith(f"share the root {shared[0]!r}")
            else:
                assert len(RootTable(factors).points) == 2 * k
    assert 0 < refused < 162


def test_factors_of_one_k_with_one_matching_root_pair_are_refused():
    """z**3 - c and z**3 - c (1 + 1e-9)**3, c = 1.7 exp(0.3i): one root
    pair is one point by the scalar rule and the other two are not.  The
    table refuses the factors, naming that pair's root; comparing only the
    earlier factor's first root, it once kept six entries, two of them one
    point."""
    c = 1.7 * cmath.exp(0.3j)
    factors = [shifted_power(3, c), shifted_power(3, c * (1 + 1e-9) ** 3)]
    first, later = sorted(factors, key=lambda f: (f.c.real, f.c.imag))
    pairs = [(i, j) for i, p in enumerate(first.roots())
             for j, q in enumerate(later.roots()) if _same(p, q)]
    assert len(pairs) == 1 and pairs[0][0] != 0
    with pytest.raises(ParameterDomainError, match="share the root") as exc_info:
        RootTable(factors)
    assert str(exc_info.value).endswith(f"share the root {first.roots()[pairs[0][0]]!r}")
    with pytest.raises(ParameterDomainError, match="share the root"):
        FactoredMeromorphic(1.0, factors)


def test_roots_are_the_per_root_formula_bit_for_bit():
    """One np.exp over all roots gives cmath's |c|**(1/k) exp(i (phi +
    2 pi j)/k), root by root, to the last bit and the sign of each zero."""
    rng = np.random.default_rng(5)
    shifts = [1.0, -1.0, 1j, -1j, complex(-1.0, -0.0), complex(-0.0, 1.0), 1e-300, 2 + 5e-324j]
    factors = [shifted_power(k, complex(c)) for k in (1, 2, 3, 5, 7, 12, 16, 24, 32, 100)
               for c in shifts + (rng.normal(size=8) + 1j * rng.normal(size=8)).tolist()
               + (rng.uniform(0.001, 0.999, 8) ** k).tolist()]
    want = [abs(f.c) ** (1.0 / f.k)
            * cmath.exp(1j * (math.atan2(f.c.imag, f.c.real) + 2.0 * math.pi * j) / f.k)
            for f in factors for j in range(f.k)]
    got = roots_of(factors)
    assert len(want) == 4848
    assert _bits_equal(got, want)
    assert monomial(3).roots() == [0j]
    assert not np.signbit(roots_of([monomial(1)]).view(float)).any()


def _kept(factors):
    """The factors of the product of `factors`: the exponents of one (k, c)
    summed, and those whose sum is 0 dropped."""
    total = {}
    for f in factors:
        total[f.k, f.c] = total.get((f.k, f.c), 0) + f.exponent
    return [Factor(k, c, e) for (k, c), e in total.items() if e]


_R = 0.5 + 0.75j
_CANCELLING = [shifted_power(1, _R, 2), shifted_power(2, _R ** 2, -1),
               shifted_power(3, _R ** 3, -1), monomial(-3)]


@settings(max_examples=40, deadline=None)
@given(_merging_factors(), _shift)
# a shift with a subnormal part, on which cmath.phase raises OverflowError
@example([shifted_power(1, 2 + 5e-324j)], 1.0 + 0j)
# the roots at _R of three factors merge and their orders cancel; -_R
# and _R's other cube roots are simple poles
@example(_CANCELLING, 1.5 - 0.5j)
# z**28 (p + t)**-4 (2p + t)**-4 ...: on the chart the series of the
# factors cancel in their product far below their own sizes
@example([monomial(5), shifted_power(3, 1.0, -8), shifted_power(1, 0.203125, -3),
          shifted_power(2, 0.203125 ** 2, -4)], 1.0 + 0j)
# two factors of one k whose roots differ below their rounding: the root
# table refuses them, where it once gave two entries at one point and
# residues of 2.3e156
@example([shifted_power(1, 1j, -1), shifted_power(1, 4.3e-157 + 1j, -1)], 1.0 + 0j)
def test_laurent_tables_match_sympy(factors, coeff):
    if _share_a_root(_kept(factors)):
        with pytest.raises(ParameterDomainError, match="share the root"):
            FactoredMeromorphic(coeff, factors)
        return
    f = FactoredMeromorphic(coeff, factors)
    for g in _with_charts([f]):
        _assert_tables_match_the_series(g)


def test_cancelling_example_merges_and_cancels():
    f = FactoredMeromorphic(1.5 - 0.5j, _CANCELLING)
    assert len(f._table.points) == 1 + 1 + 2 + 3 - 2
    assert orders_at(f, [_R, -_R]).tolist() == [0, -1]
    ((c, _),) = principal_part(f, [_R])
    assert c.tolist() == [0j]


@settings(max_examples=60, deadline=None)
@given(_pole_factors, _shift)
def test_residue_at_infinity_matches_the_exact_reference(factors, coeff):
    # the outer expansion's -a_-1 against the oracle on the w = 1/z chart
    # (exact at a chart pole of order 1 or 2), within the rounding floor
    if _share_a_root(_kept(factors)):  # refused, as in the test above
        with pytest.raises(ParameterDomainError):
            FactoredMeromorphic(coeff, factors)
        return
    f = FactoredMeromorphic(coeff, factors)
    _, _, floor = outer_expansion(f)
    assert abs(residue_at(f, INF) - exact_residue_at(f, INF)) <= floor


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_series_product_of_strided_bases_is_the_contiguous_one(n):
    # numpy multiplies a strided complex array in another loop, which
    # rounds differently: the bases of a product over a shared table are
    # taken from a larger array, and must give the same table
    data = FAMILIES["double_vase"].build_data(6, 0.25)[0]
    entries = np.arange(len(data._table.points))
    for f in data.factored_forms():
        b = _entry_bases(data._table, entries, n)[f._nonzero]
        exps = f._packed[2]
        strided = np.moveaxis(np.ascontiguousarray(np.moveaxis(b, 0, 1)), 1, 0)
        assert not strided.flags.c_contiguous and np.array_equal(strided, b)
        for got, want in zip(_series_product(strided, exps), _series_product(b, exps)):
            assert (got is None and want is None) or _bits_equal(got, want)


@pytest.mark.parametrize("family, k, x", [
    (family, k, x) for k in (2, 6, 24)
    for family, x in (("vase", 0.5), ("double_vase", 0.25))
])
def test_batched_laurent_tables_of_the_family_data(family, k, x):
    """Each form's table, built in one call for all its entries, against
    sympy at every entry and at infinity, on both charts."""
    data, _, _ = FAMILIES[family].build_data(k, x)
    for f in _with_charts([data.gauss_map, data.dh, *data.factored_forms()]):
        _assert_tables_match_the_series(f)


def test_batched_laurent_tables_with_an_empty_root_table():
    data = catenoid_weierstrass_data()
    constant = FactoredMeromorphic(3.0)
    forms = _with_charts([data.gauss_map, data.dh, *data.factored_forms(), constant])
    assert any(not len(f._table.points) for f in forms)
    for f in forms:
        _assert_tables_match_the_series(f)
    assert [len(c) for c, _ in principal_part(constant, [0.5, 2.0])] == [0, 0]
    assert residues_at(constant, [0.5, 2.0]) == [0j, 0j]
    # dz/z: residue exactly 1 at 0 and -1 at infinity
    assert residues_at(data.dh, [0j, INF]) == [1, -1]


def test_a_floor_is_the_same_alone_and_among_all_ends():
    """A pole's rounding floors are == whether asked for alone or with the
    others: c_m's bound sums over the terms j <= m only, so neither the
    rows asked for nor the series length, set by the highest pole order
    among them, moves its bits.  Checked at dh's poles, the finite ends,
    of family data, and at the poles of a product with simple poles and
    poles of order 6, the recurrence's sums then of 1 to 5 terms."""
    from spheremin import algebra

    cases = []
    for family, k, x in [("vase", 8, 0.02658974358974359), ("vase", 24, 0.1),
                         ("vase", 32, 0.4104358974358974), ("double_vase", 2, 0.001),
                         ("double_vase", 6, 0.25)]:
        dh = FAMILIES[family].build_data(k, x)[0].dh
        cases.append((dh, np.flatnonzero(dh._orders < 0).tolist()))
    f = FactoredMeromorphic(0.17 - 1.67j, [shifted_power(2, 1.0, -1), shifted_power(3, 2 + 1j, -6),
                                           shifted_power(6, 3.0, -6)])
    cases.append((f, np.flatnonzero(f._orders < 0).tolist()))
    for f, entries in cases:
        for i, floors in zip(entries, algebra._rounding_floor(f, entries)):
            assert _bits_equal(algebra._rounding_floor(f, [i])[0], floors)


# -- high orders against mpmath ------------------------------------------


def _mp_laurent(coefficient, p, m, q, n):
    """(c_1, ..., c_m) of coefficient (z - p)**-m (z - q)**-n about p at 40
    digits: c_j is the Taylor coefficient of order m - j of
    coefficient (z - q)**-n at p."""
    def g(z):
        return mpmath.mpc(coefficient) * (z - mpmath.mpc(q)) ** -n

    with mpmath.workdps(40):
        taylor = mpmath.taylor(g, mpmath.mpc(p), m - 1)
        return np.array([complex(taylor[m - j]) for j in range(1, m + 1)])


# a double pole whose only neighbour, of order n, lies 1.25 away
_P, _Q, _C = 0.5 + 0.25j, -0.25 - 0.75j, 1.5 - 0.5j


@pytest.mark.parametrize("n", [11, 12])
def test_high_order_pole_matches_mpmath(n):
    """Every coefficient of the principal parts of a pole of order n and of
    its double-pole neighbour matches mpmath within its floor."""
    f = FactoredMeromorphic(_C, [shifted_power(1, _P, -2), shifted_power(1, _Q, -n)])
    (c_p, floor_p), (c_q, floor_q) = principal_part(f, [_P, _Q])
    assert (len(c_p), len(c_q)) == (2, n)
    assert np.all(np.abs(c_p - _mp_laurent(_C, _P, 2, _Q, n)) <= floor_p)
    assert np.all(np.abs(c_q - _mp_laurent(_C, _Q, n, _P, 2)) <= floor_q)


@pytest.mark.parametrize("b", [0.001, 0.25, 0.5, 0.9, 0.99, 0.999])
def test_high_order_zero_has_residue_exactly_0(b):
    """dh of double_vase(32, b) is z**31 g(z**32): at its zero of order 31
    at 0 the table gives c_1 = 0 exactly, from the orders alone."""
    data, _, _ = FAMILIES["double_vase"].build_data(32, b)
    dh = data.dh
    assert puncture_ends(data)[0][:3] == (0j, 32 + 1, 31)
    ((c, _),) = principal_part(dh, [0.0])
    assert c.tolist() == [0j]
    assert residue_at(dh, 0.0) == 0j
