"""Constructors for the verified surface families.

Family 1 (vase of catenoids):
    G = rho * z * (z^k - a^k),  dh = (a^k - z^k) / (z (z^k - 1)^2) dz
Family 2 (glued double vase, rho pinned to 1):
    G = z^(k+1) (z^k - a^k) / (a^k z^k - 1)
    dh = b^(2k) z^(k-1) (z^k - a^k)(a^k z^k - 1) / (a^k (z^k - b^k)^2 (b^k z^k - 1)^2) dz
plus the classical catenoid (G = z, dh = dz/z) as a known-answer fixture.

Each family is one `FamilySpec` entry of `FAMILIES`; every per-family
decision (solver, tolerance, export window, base point, descriptor) reads
that entry.  Every constructor runs the full gate (period closure,
regularity, degree audit) and never returns a partially verified instance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from typing import Callable

from .algebra import INF, FactoredMeromorphic, monomial, shifted_power
from .errors import ParameterDomainError, SphereminError
from .periods import (
    DoubleVaseParams,
    PeriodReport,
    SolveResult,
    VaseParams,
    assert_period_closed,
    solve_double_vase_a,
    solve_vase_rho,
)
from .weierstrass import WeierstrassData, degree_audit, point_json, regularity_check

def _roots_by_argument(k: int, c: float):
    """The k roots of z^k = c (c > 0 real), sorted by increasing argument."""
    r = c ** (1.0 / k)
    pts = [r * cmath.exp(2j * math.pi * j / k) for j in range(k)]
    return sorted(pts, key=lambda z: (cmath.phase(z) % (2.0 * math.pi)))


def vase_weierstrass_data(k: int, a: float, rho: float) -> WeierstrassData:
    """Raw (unverified) vase data; used by the solver with trial rho."""
    ak = a ** k
    G = FactoredMeromorphic(rho, [monomial(1), shifted_power(k, ak)])
    # a^k - z^k = -(z^k - a^k)
    dh = FactoredMeromorphic(
        -1.0, [monomial(-1), shifted_power(k, ak), shifted_power(k, 1.0, -2)]
    )
    punctures = (0j, INF, *_roots_by_argument(k, 1.0))
    return WeierstrassData(G, dh, punctures)


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
        *_roots_by_argument(k, bk),
        *_roots_by_argument(k, 1.0 / bk),
    )
    return WeierstrassData(G, dh, punctures)


def catenoid_weierstrass_data() -> WeierstrassData:
    """The classical catenoid: G = z, dh = dz/z, punctures at 0 and infinity."""
    G = FactoredMeromorphic(1.0, [monomial(1)])
    dh = FactoredMeromorphic(1.0, [monomial(-1)])
    return WeierstrassData(G, dh, (0j, INF))


def provenance(solved: SolveResult) -> dict:
    """The solver record kept with an instance and printed by `solve`."""
    fields = ("closed_form", "numeric_root", "residual", "mismatch")
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
        data without the gate.  Returns (data, params, provenance)."""
        if self.solver is None:
            return self.build(None), None, {}
        self._require(k, value)
        record = {}
        if solved is None:
            result = self.solver(k, value)
            solved, record = result.value, provenance(result)
        params = self.params_type(k, value, solved)
        return self.build(params), params, record


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


def _verify(data: WeierstrassData, tol: float) -> PeriodReport:
    """Regularity, degree audit and period closure; raises on the first
    failure and returns the period report otherwise."""
    violations = regularity_check(data)
    if violations:
        raise SphereminError(f"regularity violations: {violations}")
    audit = degree_audit(data)
    if not audit.passed:
        raise SphereminError(f"degree audit failed: {audit}")
    return assert_period_closed(data, tol)


def construct(spec: FamilySpec, k=None, value=None,
              tol: float | None = None) -> FamilyInstance:
    """The one constructor path: solve, build the data, gate it at `tol`
    (default: the family's period tolerance)."""
    data, params, record = spec.build_data(k, value)
    report = _verify(data, spec.period_tol if tol is None else tol)
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
