"""Independent references for the package's Laurent tables.

The independent oracles are sympy and mpmath.  `series_principal_part`
and `series_outer` expand the factored product in sympy's truncated power
series (`sympy.polys.ring_series`) over a 40-digit complex field, about
the exact root of the entry's first factor (mpmath at 45 digits): their
products and powers, positive and negative, are sympy's own, not the
package's recurrence.  A factor with a root at the entry is taken as
vanishing there exactly, as the package's root table takes it, so the
references follow the table's merged and cancelled entries.  Infinity is
read in w = 1/z.

`residue_limit` and `exact_residue_at` divide the vanishing factors out at
a pole of order 1 or 2 and take the product rule on the rest: the same
method as the package's series, so they check it against a second
writing of it, not an independent one.  Infinity is read there on the
w = 1/z chart (`infinity_chart`), a factored product of its own.
"""

import mpmath
from sympy.polys.domains import ComplexField
from sympy.polys.ring_series import rs_mul, rs_pow
from sympy.polys.rings import ring

from spheremin.algebra import (
    FactoredMeromorphic,
    is_infinity,
    monomial,
    residue_at,
    same_point,
    shifted_power,
)

from oracles import order_at

# sympy's truncated series in t over complex numbers of 133 bits (40 digits)
_CC = ComplexField(133)
_RING, _T = ring("t", _CC)


def _exact_root(fac, p):
    """The root of the factor nearest to the point p, at 45 digits."""
    if fac.c == 0:
        return mpmath.mpc(0)
    with mpmath.workdps(45):
        roots = [mpmath.root(mpmath.mpc(fac.c), fac.k, j) for j in range(fac.k)]
        return min(roots, key=lambda r: abs(r - mpmath.mpc(p)))


def _coefficients(series, n):
    terms = series.to_dict()
    return [complex(terms.get((j,), 0)) for j in range(n)]


def series_principal_part(f, p):
    """(c_1, ..., c_m) of f about the root-table point p, m = max(1, pole
    order), by sympy's truncated series at 40 digits; (0,) where f has no
    pole at p.  Every factor with a root that is the same point as p
    vanishes there, about the exact root of the first of them, the entry's
    own: (z**k - c) is t * ((p + t)**k - p**k) / t, t = z - p."""
    vanishing = [fac for fac in f.factors
                 if any(same_point(p, r) for r in fac.roots())]
    order = sum(fac.exponent for fac in vanishing)
    if order >= 0:
        return [0j]
    n = -order
    root = _CC(_exact_root(vanishing[0], p))
    g = _RING(_CC(f.coefficient))
    for fac in f.factors:
        if fac.c == 0:
            base = _RING(1) if fac in vanishing else _T + root
        else:
            power = rs_pow(_T + root, fac.k, _T, n + 1)
            if fac in vanishing:
                base = _RING({(j - 1,): c for (j,), c in power.to_dict().items() if j})
            else:
                base = power - _CC(fac.c)
        g = rs_mul(g, rs_pow(base, fac.exponent, _T, n), _T, n)
    g = _coefficients(g, n)
    return [g[n - m] for m in range(1, n + 1)]


def series_outer(f):
    """(a, residue) of f about infinity by sympy's truncated series at 40
    digits: f = coefficient * z**degree * prod (1 - c w**k)**e in w = 1/z,
    a_n its coefficient of z**n for n = 0..degree and residue = -a_-1;
    ([], 0) below degree -1."""
    degree = f.degree
    if degree < -1:
        return [], 0j
    n = degree + 2
    h = _RING(1)
    for fac in f.factors:
        if fac.c != 0:
            h = rs_mul(h, rs_pow(1 - _CC(fac.c) * _T ** fac.k, fac.exponent, _T, n), _T, n)
    h = [complex(f.coefficient) * c for c in _coefficients(h, n)]
    return h[:degree + 1][::-1], -h[degree + 1]


def infinity_chart(f, one_form: bool = False):
    """Pull f back through w = 1/z.

    As a function the result is w -> f(1/w); as a one-form coefficient
    (dz = -dw/w**2) it is w -> -f(1/w)/w**2.  Both stay in factored form:
    (z**k - c)**e becomes (-c)**e * (w**k - 1/c)**e * w**(-k e).
    """
    coeff = f.coefficient
    mono_exp = 0
    new_factors = []
    for fac in f.factors:
        mono_exp -= fac.k * fac.exponent
        if fac.c != 0:
            coeff *= (-fac.c) ** fac.exponent
            new_factors.append(shifted_power(fac.k, 1.0 / fac.c, fac.exponent))
    if one_form:
        coeff = -coeff
        mono_exp -= 2
    if mono_exp != 0:
        new_factors.append(monomial(mono_exp))
    return FactoredMeromorphic(coeff, new_factors)


def _base_derivative(fac, z: complex) -> complex:
    """d/dz of a factor's base z**k - c (of z for the monomial)."""
    return 1.0 if fac.c == 0 else fac.k * z ** (fac.k - 1)


def residue_limit(f, p, pole_order: int) -> complex:
    """Residue of f dz at a pole of order 1 or 2 by exact cancellation;
    ValueError for any other order, or when p is not such a pole."""
    if pole_order not in (1, 2):
        raise ValueError(f"pole order {pole_order} not supported")
    p = complex(p)
    actual = order_at(f, p)
    if actual != -pole_order:
        raise ValueError(f"order_at({p!r}) = {actual}, expected {-pole_order}")
    # g(z) = (z - p)**pole_order * f(z), with vanishing factors cancelled.
    value = f.coefficient
    logd = 0j  # g'(p)/g(p), accumulated by the product rule
    for fac in f.factors:
        if not any(same_point(r, p) for r in fac.roots()):
            base = fac.base_value(p)
            value *= base ** fac.exponent
            logd += fac.exponent * _base_derivative(fac, p) / base
            continue
        if fac.c == 0:
            continue  # z**e / (z - 0)**e cancels exactly
        # (z**k - c)**e / (z - p)**e = prod over the other roots (z - r)**e
        for r in fac.roots():
            if same_point(r, p):
                continue
            value *= (p - r) ** fac.exponent
            logd += fac.exponent / (p - r)
    if pole_order == 1:
        return value
    return value * logd


def exact_residue_at(f, p) -> complex:
    """Residue of f dz at any sphere point: exact cancellation at poles of
    order 1 and 2 (at INF on the w = 1/z chart), 0 where f has no pole,
    and the sympy series at higher orders."""
    if is_infinity(p):
        f, p = infinity_chart(f, one_form=True), 0.0
    m = -order_at(f, p)
    if m <= 0:
        return 0j
    if m <= 2:
        return residue_limit(f, p, m)
    return series_principal_part(f, p)[0]


def combo_residue_exact(data, p, sign: float) -> complex:
    """Res_p((1/G + sign*G) dh) by `exact_residue_at` on the data's
    factored forms dh/G and G dh."""
    u, v, _ = data.factored_forms()
    return exact_residue_at(u, p) + sign * exact_residue_at(v, p)


def combo_residue_package(data, p, sign: float) -> complex:
    """Res_p((1/G + sign*G) dh) from the package's residues of the data's
    factored forms dh/G and G dh: the oracle the families' printed closed
    forms are checked against."""
    u, v, _ = data.factored_forms()
    return residue_at(u, p) + sign * residue_at(v, p)
