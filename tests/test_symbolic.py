"""Residues against sympy's exact rational arithmetic."""

import pytest
import sympy as sp

from spheremin.algebra import (
    INF,
    FactoredMeromorphic,
    residue_at,
    same_point,
    shifted_power,
)
from spheremin.families import (
    _double_vase_quadratic,
    solve_double_vase_a,
)
from spheremin.periods import period_report
from spheremin.weierstrass import WeierstrassData, puncture_ends

from oracles import double_vase_equation

z = sp.Symbol("z")

# dyadic rationals, exact in floating point
C = sp.Rational(3, 2) - sp.I / 2
P = sp.Rational(1, 2) + sp.I / 4
P2 = sp.Rational(3, 4) + sp.I / 2
Q = sp.Rational(-3, 4) + sp.I / 2


def exact_residue(expr, p, m):
    """Res_p(expr dz) at a pole of order m: the (m-1)-th Taylor coefficient
    of (z - p)**m expr about p, by power-series division of its numerator
    by its denominator.  At INF, through w = 1/z: Res_0(-expr(1/w)/w**2)."""
    if p is INF:
        expr, p = -expr.subs(z, 1 / z) / z**2, 0
    num, den = sp.fraction(sp.cancel(z**m * expr.subs(z, p + z)))
    a = sp.Poly(num, z).all_coeffs()[::-1] + [0] * m
    b = sp.Poly(den, z).all_coeffs()[::-1] + [0] * m
    q = []
    for j in range(m):
        q.append(sp.expand((a[j] - sum(q[i] * b[j - i] for i in range(j))) / b[0]))
    return complex(q[-1])


def pole_cases(m):
    """(point, factors (k, c, e) of (z**k - c)**e) with a one-form pole of
    order m at the point.  The neighbours of order 10 and 6 sit at twice the
    contour radius; they need more than 64 trapezoidal nodes for 1e-12.
    Factors of exponent 0 (m = 2) are left out."""
    cases = [
        (P, [(1, P, -m), (2, Q, 1), (3, 2, -1)]),
        (P, [(1, P, -m), (1, Q, 1)]),  # exact residue 0
        (P, [(1, P, -m), (1, P2, -10), (1, Q, 2)]),
        (INF, [(1, 0, m + 1), (1, P, -1), (2, Q, -1)]),
        (INF, [(1, 0, m - 2), (3, 2, 1), (1, P, -3)]),
        (INF, [(1, Q, m - 2)]),  # exact residue 0
        (INF, [(1, 0, m + 10), (1, P, -6), (1, P2, -6)]),
    ]
    return [(p, [(k, c, e) for k, c, e in factors if e]) for p, factors in cases]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_residue_at_high_order_poles_matches_sympy(m):
    for p, factors in pole_cases(m):
        dh = (complex(C), [shifted_power(k, complex(c), e) for k, c, e in factors])
        f = FactoredMeromorphic(*dh)
        point = p if p is INF else complex(p)
        # the order of f dz that the audit reads at a puncture there
        (end,) = puncture_ends(WeierstrassData((1.0, []), dh, (point,)))
        assert end[2] == -m
        expr = C
        for k, c, e in factors:
            expr *= (z**k - c) ** e
        exact = exact_residue(expr, p, m)
        got = residue_at(f, point)
        assert abs(got - exact) <= 1e-12 * (abs(exact) or 1.0), (p, factors)


def symbolic_residue_at_b(k):
    """Res_b((1/G + G) dh) of the double-vase data as an expression in
    symbolic a and b."""
    a, b = sp.symbols("a b", positive=True)
    G = z ** (k + 1) * (z**k - a**k) / (a**k * z**k - 1)
    # (z^k - b^k)^2 dh, with z^k - b^k = (z - b) * q: a double pole at z = b
    q = sum(z**i * b ** (k - 1 - i) for i in range(k))
    dh_reg = (
        b ** (2 * k) * z ** (k - 1) * (z**k - a**k) * (a**k * z**k - 1)
        / (a**k * q**2 * (b**k * z**k - 1) ** 2)
    )
    return sp.diff((1 / G + G) * dh_reg, z).subs(z, b), a, b


@pytest.mark.parametrize("k", [2, 3, 4])
def test_double_vase_residue_matches_sympy(k):
    """Res_b((1/G + G) dh) of the double-vase data, derived from symbolic a
    and b, against the printed quadratic in a^k (and so its A, B and C)."""
    residue, a, b = symbolic_residue_at_b(k)
    for av, bv in [(sp.Rational(3, 4), sp.Rational(1, 4)),
                   (sp.Rational(5, 4), sp.Rational(1, 2)),
                   (sp.Rational(7, 8), sp.Rational(3, 4))]:
        exact = float(residue.subs({a: av, b: bv}))
        printed = -double_vase_equation(
            k, float(bv), _double_vase_quadratic(k, float(bv)), float(av))
        assert printed == pytest.approx(exact, rel=1e-13, abs=0), (av, bv)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_gate_residue_near_unit_b_matches_sympy(k):
    """The gate's Res_b((1/G + G) dh) at the solved b = 0.999, where a pole
    of G cancelled by a zero of dh sits 3e-6 from b, against the exact
    residue at the same a and b (a contour sized from G and dh apart was
    off by 2.5e-9 to 5.2e-8 here)."""
    residue, a, b = symbolic_residue_at_b(k)
    solved = solve_double_vase_a(k, 0.999)
    exact = float(residue.subs({a: sp.Rational(solved.value),
                                b: sp.Rational(0.999)}).evalf(30))
    report = period_report(solved.data, 1e-8)
    (gate,) = [r for p, r in zip(report.locations, report.residues[1].tolist())
               if same_point(p, 0.999)]
    assert abs(gate - exact) <= 1e-10
