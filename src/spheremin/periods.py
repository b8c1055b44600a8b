"""The period problem of any Weierstrass data (G, dh) on a punctured sphere.

On a punctured sphere the period problem reduces to reality conditions on
three residues at every puncture:

    Res_p((1/G - G) dh) real,  i * Res_p((1/G + G) dh) real,  Res_p(dh) real.

By linearity Res_p((1/G -+ G) dh) = Res_p(u) -+ Res_p(v), with u = dh/G
and v = G dh the data's factored forms, so each residue is the c_1 of one
factored product's Laurent table, built once per root and sized from that
product's own roots.  The data own these residues at their punctures
(`WeierstrassData.puncture_residues`): each form is asked once for all of
them (`algebra.residues_at`), one batched Laurent evaluation over the
finite punctures and, where the residue at infinity is not 0 by the
form's degree, one on its outer circle (`algebra.outer_expansion`); a
vase or double vase makes four, as its u = dh/G and dh have degree below
-2.  This module gates data on those residues, which the solvers read
too; it knows no family.  `hybrid_root` is a bracketing root finder: it
brackets on one array evaluation of a function over a grid, then refines
the first bracket with scalar calls.  No solver calls it: both families
take their roots in closed form (`families.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoRoot, PeriodViolation
from .weierstrass import WeierstrassData, point_json


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
        parts = (abs(self.res_minus.imag), abs(self.res_plus.real), abs(self.res_dh.imag))
        # Python's max drops a NaN after the first value; a NaN part makes
        # the sum of these nonnegative parts NaN
        return math.nan if math.isnan(sum(parts)) else max(parts)


def _defect_rank(entry: PeriodEntry):
    # a NaN defect ranks first; only an unclosed entry has one above tol
    defect = entry.defect
    return math.isnan(defect), defect


@dataclass(frozen=True)
class PeriodReport:
    entries: tuple
    tol: float

    @property
    def closed(self) -> bool:
        return all(e.closed for e in self.entries)

    @property
    def worst(self) -> PeriodEntry:
        return max(self.entries, key=_defect_rank)

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


def _period_entries(data: WeierstrassData, tol: float) -> list:
    """One PeriodEntry per puncture, from the data's puncture residues."""
    return [
        PeriodEntry(location=p, res_minus=u - v, res_plus=u + v, res_dh=w, tol=tol)
        for p, (u, v, w) in zip(data.punctures, data.puncture_residues())
    ]


def period_report(data: WeierstrassData, tol: float) -> PeriodReport:
    return PeriodReport(tuple(_period_entries(data, tol)), tol)


def assert_period_closed(data: WeierstrassData, tol: float) -> PeriodReport:
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
