"""The verified surface families: data, period equation and solver of each.

Family 1 (vase of catenoids), solved for rho by `solve_vase_rho`:
    G = rho * z * (z^k - a^k),  dh = (a^k - z^k) / (z (z^k - 1)^2) dz
    period equation Res_1((1/G + G) dh) = 0
Family 2 (glued double vase, rho = 1), solved for a by `solve_double_vase_a`:
    G = z^(k+1) (z^k - a^k) / (a^k z^k - 1)
    dh = b^(2k) z^(k-1) (z^k - a^k)(a^k z^k - 1) / (a^k (z^k - b^k)^2 (b^k z^k - 1)^2) dz
    period equation Res_b((1/G + G) dh) = 0, a quadratic in a^k
plus the classical catenoid (G = z, dh = dz/z) as a known-answer fixture.

Each family's period equation is one function of its solved parameter
(`_vase_equation`, `_double_vase_equation`), broadcasting over arrays.
Both are closed forms, and each solver takes its root straight from the
equation's coefficients: the vase's rho P + Q/rho = 0 has the root
sqrt(-Q/P) (`_vase_coefficients`), and the double vase's quadratic in
a^k gives its +sqrt root by the cancellation-free quadratic formula
(`_double_vase_root`).  Each solver checks the printed radical against
that root, raises `ClosedFormMismatch` when they disagree, and returns
the data it built at the solution, which the constructor then gates; the
gate in `periods.py` knows no family.

Each family is one `FamilySpec` entry of `FAMILIES`; every per-family
decision (solver, tolerance, export window, base point, descriptor) reads
that entry.  Every constructor runs the full gate (period closure,
regularity, degree audit) and never returns a partially verified instance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable

from .algebra import INF, FactoredMeromorphic, monomial, shifted_power
from .errors import ClosedFormMismatch, NoRoot, ParameterDomainError, SphereminError
from .periods import PeriodReport, assert_period_closed
from .weierstrass import WeierstrassData, degree_audit, point_json, regularity_check


@dataclass(frozen=True)
class SolveResult:
    """A solved period equation and the data built at its solution."""

    value: float
    closed_form: float
    numeric_root: float
    residual: float
    data: WeierstrassData | None = field(default=None, compare=False, repr=False)


def _check_domain(k: int, name: str, x: float, solved_name: str, solved):
    """The domain of both families: k > 1, the input parameter `x` in
    (0, 1) with x^k a normal float, and the solved parameter positive and
    finite unless it is None (not solved yet)."""
    if k <= 1:
        raise ParameterDomainError(f"k must be an integer > 1, got {k}")
    if not 0.0 < x < 1.0:
        raise ParameterDomainError(f"{name} must lie in (0, 1), got {x}")
    if x ** k < sys.float_info.min:
        raise ParameterDomainError(f"{name}^k underflows at k={k}, {name}={x}")
    if solved is not None and not 0.0 < solved < math.inf:
        raise ParameterDomainError(f"{solved_name} must be positive, got {solved}")


# -- family 1: vase of catenoids --------------------------------------


@dataclass(frozen=True)
class VaseParams:
    """Vase-of-catenoids parameters: k > 1, a in (0, 1), scale rho > 0."""

    k: int
    a: float
    rho: float | None = None

    def __post_init__(self):
        _check_domain(self.k, "a", self.a, "rho", self.rho)


def vase_weierstrass_data(k: int, a: float, rho: float) -> WeierstrassData:
    """Raw (unverified) vase data at the scale rho."""
    ak = a ** k
    G = FactoredMeromorphic(rho, [monomial(1), shifted_power(k, ak)])
    # a^k - z^k = -(z^k - a^k)
    dh = FactoredMeromorphic(
        -1.0, [monomial(-1), shifted_power(k, ak), shifted_power(k, 1.0, -2)]
    )
    punctures = (0j, INF, *shifted_power(k, 1.0).roots())
    return WeierstrassData(G, dh, punctures)


def _vase_coefficients(k: int, ak: float):
    """The vase period equation as rho * P + Q / rho, for a^k = ak:
    returns (P, Q)."""
    return (ak - 1.0) * (k * ak + k - ak + 1.0) / k ** 2, (k + 1.0) / k ** 2


def _vase_equation(k: int, ak: float, rho):
    """Res_1((1/G + G) dh) of the vase in closed form, for a^k = ak;
    rho broadcasts."""
    P, Q = _vase_coefficients(k, ak)
    return rho * P + Q / rho


def _solved_residual(data: WeierstrassData, index: int) -> float:
    """|Res((1/G + G) dh)| at data.punctures[index], from the data's
    puncture residues, which the gate then reads."""
    u, v, _ = data.puncture_residues()[index]
    return abs(u + v)


def solve_vase_rho(k: int, a: float) -> SolveResult:
    """Scale rho closing the vase period: the printed radical, checked
    against the root sqrt(-Q/P) of the residue equation rho P + Q/rho."""
    VaseParams(k, a)  # validates the domain
    ak = a ** k
    closed = math.sqrt((k + 1.0) / ((1.0 - ak) * (k * ak + k - ak + 1.0)))
    P, Q = _vase_coefficients(k, ak)  # P < 0 < Q for a in (0, 1)
    root = math.sqrt(-Q / P)
    if abs(closed - root) > 1e-10 * closed:
        raise ClosedFormMismatch(
            f"vase rho closed form {closed} vs numeric root {root} at k={k}, a={a}"
        )
    data = vase_weierstrass_data(k, a, closed)
    # the puncture z = 1, first of the unit roots after 0 and INF
    return SolveResult(closed, closed, root, _solved_residual(data, 2), data)


# -- family 2: glued double vase --------------------------------------


@dataclass(frozen=True)
class DoubleVaseParams:
    """Glued double-vase parameters: k > 1, b in (0, 1), a > 0."""

    k: int
    b: float
    a: float | None = None

    def __post_init__(self):
        _check_domain(self.k, "b", self.b, "a", self.a)


def double_vase_weierstrass_data(k: int, b: float, a: float) -> WeierstrassData:
    """Raw (unverified) double-vase data with rho = 1."""
    ak = a ** k
    bk = b ** k
    # (a^k z^k - 1) = a^k (z^k - a^-k); (b^k z^k - 1) = b^k (z^k - b^-k);
    # the stray powers of a^k and b^(2k) cancel, leaving unit coefficients.
    G = FactoredMeromorphic(
        1.0 / ak,
        [monomial(k + 1), shifted_power(k, ak), shifted_power(k, 1.0 / ak, -1)],
    )
    dh = FactoredMeromorphic(
        1.0,
        [
            monomial(k - 1),
            shifted_power(k, ak),
            shifted_power(k, 1.0 / ak),
            shifted_power(k, bk, -2),
            shifted_power(k, 1.0 / bk, -2),
        ],
    )
    punctures = (
        0j,
        INF,
        *shifted_power(k, bk).roots(),
        *shifted_power(k, 1.0 / bk).roots(),
    )
    return WeierstrassData(G, dh, punctures)


def _double_vase_quadratic(k: int, b: float):
    """The coefficients (A, B, C) of the double-vase period equation as a
    quadratic A x^2 + B x + C in x = a^k (up to its denominator)."""
    A = b ** (2 * k) * (
        k - 1.0
        + b ** (2 + 2 * k) * (k - 1.0)
        + (b ** 2 + b ** (2 * k)) * (k + 1.0)
    )
    B = 2.0 * b ** k * (
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
    return A, B, C


def _double_vase_equation(k: int, b: float, quadratic, a):
    """The printed Res_b((1/G + G) dh) of the double vase, a quadratic in
    a^k over a^k * b * (b^k - 1)^3 * (b^k + 1)^3 * k^2, from the
    coefficients `quadratic` of `_double_vase_quadratic`; a broadcasts.

    It keeps the quoted sign, which is the negative of the defining
    contour integral (verified symbolically); the root set is the same
    either way, and the solver negates it."""
    ak = a ** k
    bk = b ** k
    A, B, C = quadratic
    denom = ak * b * (bk - 1.0) ** 3 * (bk + 1.0) ** 3 * k ** 2
    return (A * ak ** 2 + B * ak + C) / denom


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


def _double_vase_root(k: int, b: float) -> float:
    """The radical's root a of the double-vase quadratic A x^2 + B x + C
    in x = a^k, by the cancellation-free quadratic formula (Press et al.,
    Numerical Recipes, 5.6): with q = -(B + sign(B) sqrt(B^2 - 4AC))/2 the
    roots are q/A and C/q, and the printed radical is the +sqrt root
    (-B + sqrt(B^2 - 4AC))/(2A), A > 0, which is C/q when B >= 0 and q/A
    otherwise.  The branch is chosen by the sign of B alone, never by
    closeness to the radical.  Raises NoRoot for a negative discriminant,
    a nonpositive x or an a outside [1e-3, 1e3]."""
    A, B, C = _double_vase_quadratic(k, b)
    disc = B * B - 4.0 * A * C
    if not disc >= 0.0:
        raise NoRoot(f"double-vase quadratic has no real root at k={k}, b={b}")
    q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
    x = C / q if B >= 0.0 else q / A
    if not x > 0.0:
        raise NoRoot(f"double-vase quadratic has no positive root at k={k}, b={b}")
    a = x ** (1.0 / k)
    if not 1e-3 <= a <= 1e3:
        raise NoRoot(f"double-vase root a = {a} outside [1e-3, 1e3] at k={k}, b={b}")
    return a


def solve_double_vase_a(k: int, b: float) -> SolveResult:
    """Neck parameter a closing the double-vase period: the printed
    radical, checked against the quadratic's root (`_double_vase_root`)."""
    DoubleVaseParams(k, b)  # validates the domain
    closed = double_vase_closed_form_a(k, b)
    root = _double_vase_root(k, b)
    if abs(closed - root) > 1e-8 * max(closed, root):
        raise ClosedFormMismatch(
            f"double-vase a closed form {closed} vs numeric root {root} "
            f"at k={k}, b={b}"
        )
    # final oracle check at the solution: the contour residue must vanish
    # at z = b, the first root of z^k = b^k after 0 and INF
    data = double_vase_weierstrass_data(k, b, closed)
    return SolveResult(closed, closed, root, _solved_residual(data, 2), data)


# -- the catenoid fixture and the family table ------------------------


def catenoid_weierstrass_data() -> WeierstrassData:
    """The classical catenoid: G = z, dh = dz/z, punctures at 0 and infinity."""
    G = FactoredMeromorphic(1.0, [monomial(1)])
    dh = FactoredMeromorphic(1.0, [monomial(-1)])
    return WeierstrassData(G, dh, (0j, INF))


def provenance(solved: SolveResult) -> dict:
    """The solver record kept with an instance and printed by `solve`."""
    fields = ("closed_form", "numeric_root", "residual")
    return {f: getattr(solved, f) for f in fields}


@dataclass(frozen=True)
class FamilySpec:
    """Everything that distinguishes one family.

    A family with a solver takes k and one input parameter, solves its
    period equation for one more parameter and packs (k, input, solved)
    into its params dataclass; `build` turns the params (None for a family
    without a solver) into raw, unverified Weierstrass data.
    """

    name: str
    build: Callable  # params -> WeierstrassData
    period_tol: float
    r_min: float  # export window
    r_max: float
    input_param: str | None = None  # "a" | "b"
    solved_param: str | None = None  # "rho" | "a"
    solver: Callable | None = None  # (k, input) -> SolveResult
    params_type: type | None = None  # (k, input, solved) -> params
    base_point: Callable = lambda params: 1.0 + 0j
    pinned: tuple = ()  # (name, value) pairs fixed by the family

    def _require(self, k, value):
        if k is None or value is None:
            raise ParameterDomainError(
                f"{self.name} requires --k and --{self.input_param}"
            )

    def solve(self, k, value) -> SolveResult:
        if self.solver is None:
            raise ParameterDomainError(f"the {self.name} fixture has nothing to solve")
        self._require(k, value)
        return self.solver(k, value)

    def build_data(self, k=None, value=None, solved=None):
        """Solve (unless `solved` fixes the solved parameter) and build the
        data without the gate; a solve hands on the data it built.
        Returns (data, params, provenance)."""
        if self.solver is None:
            return self.build(None), None, {}
        self._require(k, value)
        if solved is not None:
            params = self.params_type(k, value, solved)
            return self.build(params), params, {}
        result = self.solver(k, value)
        params = self.params_type(k, value, result.value)
        return result.data, params, provenance(result)


FAMILIES = {spec.name: spec for spec in (
    FamilySpec(
        "vase", lambda p: vase_weierstrass_data(p.k, p.a, p.rho),
        period_tol=1e-9, r_min=0.45, r_max=2.2,
        input_param="a", solved_param="rho", solver=solve_vase_rho,
        params_type=VaseParams, base_point=lambda p: complex(0.5 * (1.0 + p.a)),
    ),
    FamilySpec(
        "double_vase", lambda p: double_vase_weierstrass_data(p.k, p.b, p.a),
        period_tol=1e-8, r_min=0.6, r_max=1.8,
        input_param="b", solved_param="a", solver=solve_double_vase_a,
        params_type=DoubleVaseParams, pinned=(("rho", 1.0),),
    ),
    FamilySpec(
        "catenoid", lambda _: catenoid_weierstrass_data(),
        period_tol=1e-9, r_min=0.5, r_max=2.0,
    ),
)}


@dataclass(frozen=True)
class FamilyInstance:
    """A fully verified Weierstrass data instance plus solver provenance
    and the period report of its gate."""

    family: str
    data: WeierstrassData
    params: object  # the family's params dataclass, or None
    provenance: dict
    period: PeriodReport | None = None

    @property
    def default_base_point(self) -> complex:
        return FAMILIES[self.family].base_point(self.params)

    def to_descriptor(self) -> dict:
        d = {
            "family": self.family,
            "punctures": [point_json(p) for p in self.data.punctures],
        }
        if self.params is not None:
            d.update(asdict(self.params), **dict(FAMILIES[self.family].pinned))
        return d


def gate(data: WeierstrassData, tol: float) -> PeriodReport:
    """Regularity, degree audit and period closure; raises on the first
    failure and returns the period report otherwise."""
    violations = regularity_check(data)
    if violations:
        raise SphereminError(f"regularity violations: {violations}")
    audit = degree_audit(data)
    if not audit.passed:
        raise SphereminError(f"degree audit failed: {audit}")
    return assert_period_closed(data, tol)


def construct(spec: FamilySpec, k=None, value=None) -> FamilyInstance:
    """The one constructor path: solve, build the data, gate it at the
    family's period tolerance."""
    data, params, record = spec.build_data(k, value)
    report = gate(data, spec.period_tol)
    return FamilyInstance(spec.name, data, params, record, report)


def make_vase(k: int, a: float) -> FamilyInstance:
    """Vase of catenoids: punctures at 0, infinity and the roots of unity;
    rho from the period equation."""
    return construct(FAMILIES["vase"], k, a)


def make_double_vase(k: int, b: float) -> FamilyInstance:
    """Glued double vase: punctures at 0, infinity and the circles
    |z| = b and |z| = 1/b; a from the period equation, rho = 1."""
    return construct(FAMILIES["double_vase"], k, b)


def make_catenoid_fixture() -> FamilyInstance:
    """The classical catenoid (G = z, dh = dz/z), used as a known-answer
    test for the sampler."""
    return construct(FAMILIES["catenoid"])


def make_family(family: str, k: int | None = None, a: float | None = None,
                b: float | None = None) -> FamilyInstance:
    """Dispatch by family name; validates the required parameter set."""
    if family not in FAMILIES:
        raise ParameterDomainError(f"unknown family {family!r}")
    spec = FAMILIES[family]
    return construct(spec, k, {"a": a, "b": b}.get(spec.input_param))


def from_descriptor(desc: dict) -> FamilyInstance:
    """Reconstruct a verified instance from its JSON descriptor; the data
    is rebuilt bit-identically from (family, k, a/b)."""
    return make_family(
        desc["family"], desc.get("k"), desc.get("a"), desc.get("b")
    )
