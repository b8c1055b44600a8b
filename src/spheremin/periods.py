"""Period conditions and the single residue equations of the two families.

On a punctured sphere the period problem reduces to reality conditions on
three residues at every puncture:

    Res_p((1/G - G) dh) real,  i * Res_p((1/G + G) dh) real,  Res_p(dh) real.

Each family closes its periods through one scalar equation whose printed
closed form is always cross-checked against the contour oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    INF,
    contour_radius,
    is_infinity,
    residue_at,
    residue_contour,
)
from .errors import (
    ClosedFormMismatch,
    NoRoot,
    ParameterDomainError,
    PeriodViolation,
)
from .weierstrass import WeierstrassData, point_json


@dataclass(frozen=True)
class VaseParams:
    """Vase-of-catenoids parameters: k > 1, a in (0, 1), scale rho > 0."""

    k: int
    a: float
    rho: float = 0.0

    def __post_init__(self):
        if self.k <= 1:
            raise ParameterDomainError(f"k must be an integer > 1, got {self.k}")
        if not 0.0 < self.a < 1.0:
            raise ParameterDomainError(f"a must lie in (0, 1), got {self.a}")
        if self.rho and (self.rho <= 0 or not math.isfinite(self.rho)):
            raise ParameterDomainError(f"rho must be positive, got {self.rho}")


@dataclass(frozen=True)
class DoubleVaseParams:
    """Glued double-vase parameters: k > 1, b in (0, 1), a > 0."""

    k: int
    b: float
    a: float = 0.0

    def __post_init__(self):
        if self.k <= 1:
            raise ParameterDomainError(f"k must be an integer > 1, got {self.k}")
        if not 0.0 < self.b < 1.0:
            raise ParameterDomainError(f"b must lie in (0, 1), got {self.b}")
        if self.a and (self.a <= 0 or not math.isfinite(self.a)):
            raise ParameterDomainError(f"a must be positive, got {self.a}")


# -- residue machinery ------------------------------------------------


def _combo_residue(data: WeierstrassData, p, sign: float) -> complex:
    """Res_p((1/G + sign*G) dh) by the trapezoidal contour rule; the sum is
    evaluated pointwise (no structural addition of factored forms)."""
    G, dh = data.gauss_map, data.dh

    if is_infinity(p):
        # the contour_radius rule read in the w = 1/z chart, where each s
        # sits at w = 1/s; written as 0.5 / max|s| because going through
        # 1/s changes the last bit of the radius
        finite = [abs(s) for s in data.finite_singularities() if abs(s) > 0]
        radius = 0.5 / max(finite) if finite else 1.0

        def integrand(w):
            z = 1.0 / w
            g = G.eval_array(z)
            return -(1.0 / g + sign * g) * dh.eval_array(z) / w ** 2

        return residue_contour(integrand, 0.0, radius=radius)

    radius = contour_radius(complex(p), data.finite_singularities())

    def integrand(z):
        g = G.eval_array(z)
        return (1.0 / g + sign * g) * dh.eval_array(z)

    return residue_contour(integrand, p, radius=radius)


def combo_residue_exact(data: WeierstrassData, p, sign: float) -> complex:
    """Same residue via linearity and exact factor-wise cancellation:
    Res((1/G)dh) + sign * Res(G dh).  Analytic cross-check of the contour."""
    inv_gdh = data.gauss_map.inverse() * data.dh
    gdh = data.gauss_map * data.dh
    return residue_at(inv_gdh, p) + sign * residue_at(gdh, p)


@dataclass(frozen=True)
class PeriodEntry:
    location: object
    res_minus: complex  # Res((1/G - G) dh)
    res_plus: complex   # Res((1/G + G) dh)
    res_dh: complex     # Res(dh)
    tol: float

    @property
    def minus_real(self) -> bool:
        return abs(self.res_minus.imag) <= self.tol

    @property
    def i_plus_real(self) -> bool:
        # i * Res((1/G + G) dh) real  <=>  Re Res((1/G + G) dh) = 0
        return abs(self.res_plus.real) <= self.tol

    @property
    def dh_real(self) -> bool:
        return abs(self.res_dh.imag) <= self.tol

    @property
    def closed(self) -> bool:
        return self.minus_real and self.i_plus_real and self.dh_real

    @property
    def defect(self) -> float:
        return max(
            abs(self.res_minus.imag), abs(self.res_plus.real), abs(self.res_dh.imag)
        )


@dataclass(frozen=True)
class PeriodReport:
    entries: tuple
    tol: float

    @property
    def closed(self) -> bool:
        return all(e.closed for e in self.entries)

    @property
    def worst(self) -> PeriodEntry:
        return max(self.entries, key=lambda e: e.defect)

    def to_json(self) -> dict:
        def c(v):
            return {"re": v.real, "im": v.imag}

        return {
            "tolerance": self.tol,
            "punctures": [
                {
                    "location": point_json(e.location),
                    "res_1G_minus_G": c(e.res_minus),
                    "res_1G_plus_G": c(e.res_plus),
                    "res_dh": c(e.res_dh),
                    "closed": e.closed,
                }
                for e in self.entries
            ],
        }


def puncture_periods(data: WeierstrassData, p, tol: float = 1e-8) -> PeriodEntry:
    """The three residues and reality conditions at one puncture."""
    return PeriodEntry(
        location=p,
        res_minus=_combo_residue(data, p, -1.0),
        res_plus=_combo_residue(data, p, +1.0),
        res_dh=residue_at(data.dh, p),
        tol=tol,
    )


def period_report(data: WeierstrassData, tol: float = 1e-8) -> PeriodReport:
    return PeriodReport(
        tuple(puncture_periods(data, p, tol) for p in data.punctures), tol
    )


def assert_period_closed(data: WeierstrassData, tol: float = 1e-8) -> PeriodReport:
    """Gate every constructor must pass before sampling: raises
    PeriodViolation (carrying the report) if any condition fails."""
    report = period_report(data, tol)
    if not report.closed:
        worst = report.worst
        raise PeriodViolation(
            f"period condition fails at {worst.location!r} "
            f"(defect {worst.defect:.3e} > {tol:.1e})",
            report=report,
        )
    return report


# -- family 1: vase of catenoids --------------------------------------


def _vase_data(k: int, a: float, rho: float) -> WeierstrassData:
    # local import: families depends on this module
    from .families import vase_weierstrass_data

    return vase_weierstrass_data(k, a, rho)


def vase_residue_at_one(params: VaseParams, check_oracle: bool = True) -> float:
    """The single period equation of the vase: Res_1((1/G + G) dh).

    Closed form: rho*(a^k - 1)*(k a^k + k - a^k + 1)/k^2 + (k + 1)/(rho k^2).
    When check_oracle is set, the contour value must agree within 1e-9.
    """
    k, a, rho = params.k, params.a, params.rho
    if rho <= 0:
        raise ParameterDomainError("rho must be positive")
    ak = a ** k
    closed = rho * (ak - 1.0) * (k * ak + k - ak + 1.0) / k ** 2 + (k + 1.0) / (
        rho * k ** 2
    )
    if check_oracle:
        data = _vase_data(k, a, rho)
        oracle = _combo_residue(data, 1.0, +1.0)
        if abs(closed - oracle) > 1e-9 * max(1.0, abs(closed), abs(oracle)):
            raise ClosedFormMismatch(
                f"vase residue closed form {closed!r} vs contour {oracle!r} "
                f"at k={k}, a={a}, rho={rho}"
            )
    return closed


@dataclass(frozen=True)
class SolveResult:
    value: float
    closed_form: float
    numeric_root: float
    residual: float
    mismatch: bool = False
    sign_changes: int = 1


def hybrid_root(fn, lo: float, hi: float, n_grid: int = 200,
                coarse: float = 1e-6, xtol: float = 1e-12):
    """Bracket on a geometric grid, bisect to `coarse`, Newton-polish with a
    central-difference derivative to `xtol`.  Returns (root, sign_changes)."""
    xs = np.geomspace(lo, hi, n_grid)
    vals = [fn(x) for x in xs]
    brackets = [
        (xs[i], xs[i + 1], vals[i], vals[i + 1])
        for i in range(n_grid - 1)
        if vals[i] == 0.0 or (vals[i] < 0) != (vals[i + 1] < 0)
    ]
    if not brackets:
        raise NoRoot(f"no sign change of the residue equation in [{lo}, {hi}]")
    a, b, fa, fb = brackets[0]
    if fa == 0.0:
        return float(a), len(brackets)
    while b - a > coarse * max(1.0, abs(a)):
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
        if abs(step) <= xtol * max(1.0, abs(x)):
            break
    return float(x), len(brackets)


def solve_vase_rho(k: int, a: float) -> SolveResult:
    """Scale rho closing the vase period: the printed radical, verified by
    an independent bracketed root of the residue equation."""
    params = VaseParams(k, a)  # validates the domain
    ak = a ** k
    closed = math.sqrt((k + 1.0) / ((1.0 - ak) * (k * ak + k - ak + 1.0)))

    def eq(rho):
        return vase_residue_at_one(VaseParams(k, a, rho), check_oracle=False)

    root, n_br = hybrid_root(eq, 1e-3 * closed, 1e3 * closed)
    if abs(closed - root) > 1e-10 * closed:
        raise ClosedFormMismatch(
            f"vase rho closed form {closed} vs numeric root {root} at k={k}, a={a}"
        )
    residual = abs(
        _combo_residue(_vase_data(k, a, closed), 1.0, +1.0)
    )
    return SolveResult(closed, closed, root, residual, False, n_br)


# -- family 2: glued double vase --------------------------------------


def _double_vase_data(k: int, b: float, a: float) -> WeierstrassData:
    from .families import double_vase_weierstrass_data

    return double_vase_weierstrass_data(k, b, a)


def double_vase_printed_residue(k: int, b: float, a: float,
                                verbatim: bool = False) -> float:
    """Closed-form Res_b((1/G + G) dh): a quadratic in a^k over the common
    denominator a^k * b * (b^k - 1)^3 * (b^k + 1)^3 * k^2.

    The widely quoted form of this expression carries an overall sign flip
    relative to the defining contour integral (verified symbolically); the
    root set is identical either way.  The corrected sign is returned
    unless `verbatim` is set.
    """
    ak = a ** k
    bk = b ** k
    A = b ** (2 * k) * (
        k - 1.0
        + b ** (2 + 2 * k) * (k - 1.0)
        + (b ** 2 + b ** (2 * k)) * (k + 1.0)
    )
    B = 2.0 * bk * (
        1.0
        + b ** (2 + 4 * k)
        - (b ** (2 * k) + b ** (2 + 2 * k)) * (2.0 * k + 1.0)
    )
    C = (
        -k - 1.0
        + b ** (2 * k)
        + b ** (2 + 4 * k)
        - b ** (2 + 6 * k)
        + 3.0 * k * b ** (2 * k)
        + 3.0 * k * b ** (2 + 4 * k)
        - k * b ** (2 + 6 * k)
    )
    denom = ak * b * (bk - 1.0) ** 3 * (bk + 1.0) ** 3 * k ** 2
    value = (A * ak ** 2 + B * ak + C) / denom
    return value if verbatim else -value


def double_vase_residue_at_b(params: DoubleVaseParams,
                             check_oracle: bool = True) -> float:
    """The double-vase period equation at z = b with rho = 1.

    Evaluates the printed quadratic-in-a^k expression; with check_oracle
    set, the contour value of Res_b((1/G + G) dh) must agree within 1e-8
    relative (the oracle guards against transcription drift)."""
    k, b, a = params.k, params.b, params.a
    if a <= 0:
        raise ParameterDomainError("a must be positive")
    closed = double_vase_printed_residue(k, b, a)
    if check_oracle:
        data = _double_vase_data(k, b, a)
        oracle = _combo_residue(data, b, +1.0)
        if abs(closed - oracle) > 1e-8 * max(abs(closed), abs(oracle), 1e-12):
            raise ClosedFormMismatch(
                f"double-vase residue printed {closed!r} vs contour {oracle!r} "
                f"at k={k}, b={b}, a={a}"
            )
    return closed


def double_vase_closed_form_a(k: int, b: float) -> float:
    """The printed radical for a(k, b)."""
    num = (
        -1.0
        - b ** (2 + 4 * k)
        + (b ** (2 * k) + b ** (2 + 2 * k)) * (2.0 * k + 1.0)
        + (1.0 - b ** (2 * k))
        * math.sqrt(
            k ** 2
            + b ** 2 * (1.0 - b ** (2 * k)) ** 2 * (2.0 * k + 1.0)
            + k ** 2 * b ** 2 * (1.0 + b ** (4 * k) + b ** (2 + 4 * k))
        )
    )
    den = b ** k * (
        k - 1.0
        + b ** (2 + 2 * k) * (k - 1.0)
        + (b ** 2 + b ** (2 * k)) * (k + 1.0)
    )
    ratio = num / den
    if ratio <= 0:
        raise NoRoot(f"closed-form radicand nonpositive at k={k}, b={b}")
    return ratio ** (1.0 / k)


def solve_double_vase_a(k: int, b: float) -> SolveResult:
    """Neck parameter a closing the double-vase period, from the printed
    radical plus an independent bracketed root; on disagreement the
    numeric root is returned with the mismatch flag set."""
    DoubleVaseParams(k, b)  # validates the domain
    closed = double_vase_closed_form_a(k, b)

    def eq(a):
        return double_vase_residue_at_b(DoubleVaseParams(k, b, a),
                                        check_oracle=False)

    root, n_br = hybrid_root(eq, 1e-3, 1e3)
    mismatch = bool(abs(closed - root) > 1e-8 * max(closed, root))
    value = root if mismatch else closed
    # final oracle check at the solution: the contour residue must vanish
    residual = abs(_combo_residue(_double_vase_data(k, b, value), b, +1.0))
    return SolveResult(value, closed, root, residual, mismatch, n_br)
