"""Residues by exact factor-wise cancellation: the analytic reference that
tests compare the package's contour residues against, and the contour
residue of the combinations (1/G +- G) dh that the families' closed forms
are checked against.

At a pole of order 1 or 2 the factors vanishing at p are divided out
algebraically (a shifted power splits into its enumerated linear roots),
so no numeric limit or differentiation is ever taken.  Infinity is read
on the w = 1/z chart (`infinity_chart`), a factored product of its own,
so the reference at INF shares no code with the package's outer
expansion.
"""

from spheremin.algebra import (
    FactoredMeromorphic,
    is_infinity,
    monomial,
    residue_at,
    residue_contour,
    same_point,
    shifted_power,
)


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
    actual = f.order_at(p)
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
    and the package's contour at higher orders."""
    if is_infinity(p):
        f, p = infinity_chart(f, one_form=True), 0.0
    m = -f.order_at(p)
    if m <= 0:
        return 0j
    if m <= 2:
        return residue_limit(f, p, m)
    return residue_contour(f, p)


def combo_residue_exact(data, p, sign: float) -> complex:
    """Res_p((1/G + sign*G) dh) by `exact_residue_at` on the data's
    factored forms dh/G and G dh."""
    u, v, _ = data.factored_forms()
    return exact_residue_at(u, p) + sign * exact_residue_at(v, p)


def combo_residue_contour(data, p, sign: float) -> complex:
    """Res_p((1/G + sign*G) dh) from the package's contour residues of the
    data's factored forms dh/G and G dh: the oracle the families' printed
    closed forms are checked against."""
    u, v, _ = data.factored_forms()
    return residue_at(u, p) + sign * residue_at(v, p)
