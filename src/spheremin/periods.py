"""The period problem of any Weierstrass data (G, dh) on a punctured sphere.

On a punctured sphere the period problem reduces to reality conditions on
three residues at every puncture:

    Res_p((1/G - G) dh) real,  i * Res_p((1/G + G) dh) real,  Res_p(dh) real.

By linearity Res_p((1/G -+ G) dh) = Res_p(u) -+ Res_p(v), with u = dh/G
and v = G dh the data's factored forms, so each residue is the c_1 of one
factored product's Laurent table, read at the punctures' table entries,
or at infinity from its series in 1/z, exactly 0 below degree -1
(`WeierstrassData.puncture_residues`).  No form is evaluated at any point.
The report holds the conditions as arrays, and makes `PeriodEntry`
objects only when asked for.  This module gates data on those residues,
which the solvers read too; it knows no family.  `audit` is the one gate
of every constructor, `verify` and `export`: one record of the
regularity, degree, end and period checks and their failures.
`hybrid_root` is a bracketing root finder: it brackets on one array
evaluation of a function over a grid, then refines the first bracket with
scalar calls.  No solver calls it: both families take their roots in
closed form (`families.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoRoot, PeriodViolation, SphereminError, UnrecognizedEndType
from .weierstrass import DegreeAudit, WeierstrassData, degree_audit, describe_ends, point_json
from .weierstrass import puncture_ends, regularity_check


@dataclass(frozen=True)
class PeriodEntry:
    location: object
    res_minus: complex  # Res((1/G - G) dh)
    res_plus: complex   # Res((1/G + G) dh)
    res_dh: complex     # Res(dh)
    tol: float
    defect: float       # its column of `PeriodReport.defects`

    @property
    def closed(self) -> bool:
        """All three conditions within tol: a NaN defect is not."""
        return self.defect <= self.tol


@dataclass(frozen=True, eq=False)
class PeriodReport:
    """The conditions at every puncture: `residues` rows Res((1/G - G) dh),
    Res((1/G + G) dh) and Res(dh), a column per location."""

    locations: tuple
    residues: np.ndarray
    tol: float

    @property
    def defects(self) -> np.ndarray:
        """Each column's largest part, NaN if one is (np.max keeps a NaN)."""
        minus, plus, dh = self.residues
        return np.abs([minus.imag, plus.real, dh.imag]).max(axis=0)

    @property
    def closed(self) -> bool:
        return bool((self.defects <= self.tol).all())

    @property
    def entries(self) -> tuple:
        return tuple(map(PeriodEntry, self.locations, *self.residues.tolist(),
                         [self.tol] * len(self.locations), self.defects.tolist()))

    @property
    def worst(self) -> PeriodEntry:
        """The first puncture of NaN defect, else the first of the largest."""
        defects = self.defects
        nan = np.isnan(defects)
        return self.entries[int(nan.argmax() if nan.any() else defects.argmax())]

    def to_json(self) -> dict:
        def c(v):
            return {"re": v.real, "im": v.imag}

        return {"tolerance": self.tol, "punctures": [
            {"location": point_json(e.location), "res_1G_minus_G": c(e.res_minus),
             "res_1G_plus_G": c(e.res_plus), "res_dh": c(e.res_dh), "closed": e.closed}
            for e in self.entries]}


def period_report(data: WeierstrassData, tol: float) -> PeriodReport:
    """The report of the data's puncture residues, Res u -+ Res v and Res dh."""
    u, v, w = data.puncture_residues()
    return PeriodReport(data.punctures, np.array([u - v, u + v, w]), tol)


def assert_period_closed(data: WeierstrassData, tol: float) -> PeriodReport:
    """The period check of `audit`: raises PeriodViolation (carrying the
    report) if any condition fails."""
    report = period_report(data, tol)
    if not report.closed:
        worst = report.worst
        raise PeriodViolation(
            f"period condition fails at {worst.location!r} "
            f"(defect {worst.defect:.3e} > {tol:.1e})",
            report=report,
        )
    return report


@dataclass(frozen=True)
class Audit:
    """Every check of one data at one period tolerance, and the failures,
    in this order: regularity violations, a failed degree audit, each end
    whose order pair matches no pattern, an open period report."""

    data: WeierstrassData
    violations: list  # RegularityViolation
    degrees: DegreeAudit
    ends: list  # (location, ord G, ord dh, kind or None) per puncture
    period: PeriodReport
    failures: tuple  # SphereminError

    def to_json(self) -> dict:
        """The record, each end with its limit normal and log growth sign."""
        return {
            "ends": [{**vars(e), "location": point_json(e.location),
                      "limit_normal": e.kind and list(map(float, e.limit_normal))}
                     for e in describe_ends(self.data, self.ends)],
            "degree_audit": {**vars(self.degrees), "passed": self.degrees.passed},
            "regularity_violations": [{**vars(v), "location": point_json(v.location)}
                                      for v in self.violations],
            "tolerance": self.period.tol,
            "period": self.period.to_json(),
            "passed": not self.failures,
            "failures": [str(exc) for exc in self.failures],
        }


def audit(data: WeierstrassData, tol: float) -> Audit:
    """The one pass or fail of every constructor, `verify` and `export`:
    the data fail when the record's failures are not empty."""
    violations = regularity_check(data)
    degrees = degree_audit(data)
    ends = puncture_ends(data)
    failures = [SphereminError(f"regularity violations: {violations}")] if violations else []
    if not degrees.passed:
        failures.append(SphereminError(f"degree audit failed: {degrees}"))
    failures += [UnrecognizedEndType(p, g, d) for p, g, d, kind in ends if kind is None]
    try:
        period = assert_period_closed(data, tol)
    except PeriodViolation as exc:
        period = exc.report
        failures.append(exc)
    return Audit(data, violations, degrees, ends, period, tuple(failures))


# hybrid_root: grid points, bisection and Newton tolerances (relative)
ROOT_GRID = 200
ROOT_COARSE = 1e-6
ROOT_XTOL = 1e-12


def hybrid_root(fn, lo: float, hi: float):
    """Bracket on a geometric grid of ROOT_GRID points, bisect to
    ROOT_COARSE, Newton-polish with a central-difference derivative to
    ROOT_XTOL.  Returns (root, sign_changes).

    `fn` must broadcast over a float64 array: the grid is one call,
    `fn(xs)`, and bisection and Newton call it on scalars.  Grid interval
    i brackets when fn is 0 at its left end, or when fn changes sign
    across it and is NaN at neither end; the first bracket is refined,
    and sign_changes counts them all."""
    xs = np.geomspace(lo, hi, ROOT_GRID)
    vals = np.asarray(fn(xs), dtype=float)
    neg, nan = vals < 0, np.isnan(vals)
    flips = (neg[:-1] != neg[1:]) & ~nan[:-1] & ~nan[1:]
    brackets = np.flatnonzero((vals[:-1] == 0.0) | flips)
    if not len(brackets):
        raise NoRoot(f"no sign change of the residue equation in [{lo}, {hi}]")
    i = brackets[0]
    a, b, fa = xs[i], xs[i + 1], vals[i]
    if fa == 0.0:
        return float(a), len(brackets)
    while b - a > ROOT_COARSE * max(1.0, abs(a)):
        m = 0.5 * (a + b)
        fm = fn(m)
        if fm == 0.0:
            a = b = m
            break
        if (fa < 0) != (fm < 0):
            b = m
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
        if abs(step) <= ROOT_XTOL * max(1.0, abs(x)):
            break
    return float(x), len(brackets)
