"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines
for passing criteria as well)."""

import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from spheremin import (
    DomainSpec,
    estimate_mean_curvature,
    make_catenoid_fixture,
    sample_mesh,
    solve_double_vase_a,
    solve_vase_rho,
)
from spheremin.algebra import INF, is_infinity, residue_at
from spheremin.families import (
    _double_vase_quadratic,
    double_vase_weierstrass_data,
    make_vase,
    vase_weierstrass_data,
)
from spheremin.mesh import default_exclusions, interior_vertices
from spheremin.paths import plan_path
from spheremin.periods import period_report
from spheremin.weierstrass import (
    CATENOID_NON_VERTICAL,
    CATENOID_VERTICAL_DOWN,
    PLANAR_HORIZONTAL,
    gauss_normal,
    puncture_ends,
)

from exact_residues import combo_residue_package
from oracles import (
    check_path_independence,
    conformal_factor,
    double_vase_equation,
    fd_tangents,
)

VASE_KS = range(2, 9)
VASE_AS = (0.1, 0.3, 0.5, 0.7, 0.9)
DV_KS = range(2, 7)
DV_BS = (0.1, 0.25, 0.5, 0.75)
DV_AS = (0.7, 1.5, 3.0)


def _line(num: int, name: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {status}  {name}: {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


# -- solved grids (shared between criteria 2, 4 and 5) -----------------


@pytest.fixture(scope="module")
def vase_grid():
    t0 = time.perf_counter()
    results = {
        (k, a): solve_vase_rho(k, a) for k in VASE_KS for a in VASE_AS
    }
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def dv_grid():
    return {(k, b): solve_double_vase_a(k, b) for k in DV_KS for b in DV_BS}


@pytest.fixture(scope="module")
def test_meshes():
    """The three sampled instances used by criteria 7 and 8."""
    cat = make_catenoid_fixture()
    vase = make_vase(2, 0.5)
    from spheremin.families import make_double_vase

    dv = make_double_vase(2, 0.5)
    return [
        ("catenoid", cat, DomainSpec(0.5, 2.0, 32, 64)),
        ("vase", vase, DomainSpec(0.45, 2.2, 32, 64, base_point=0.75)),
        ("double_vase", dv, DomainSpec(0.6, 1.8, 32, 64)),
    ]


# -- criteria ----------------------------------------------------------


def test_criterion_01_reference_value():
    t0 = time.perf_counter()
    res = solve_double_vase_a(6, 0.25)
    elapsed = time.perf_counter() - t0
    err = abs(res.value - 3.97667)
    ok = err <= 5e-6 and elapsed < 1.0
    _line(1, "reference value a(k=6, b=0.25)",
          ok, f"a={res.value:.7f}, |err|={err:.2e}, {elapsed:.3f}s")


def test_criterion_02_vase_closed_form_vs_numeric(vase_grid):
    results, elapsed = vase_grid
    worst_rel = max(
        abs(r.closed_form - r.numeric_root) / r.closed_form
        for r in results.values()
    )
    worst_res = max(r.residual for r in results.values())
    ok = worst_rel < 1e-10 and worst_res < 1e-9 and elapsed < 10.0
    _line(2, "vase closed form vs numeric root (35 cells)",
          ok,
          f"max rel diff {worst_rel:.2e}, max residual {worst_res:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_03_double_vase_residue_vs_oracle():
    worst = 0.0
    for k in DV_KS:
        for b in DV_BS:
            for a in DV_AS:
                closed = -double_vase_equation(
                    k, b, _double_vase_quadratic(k, b), a
                )
                oracle = combo_residue_package(
                    double_vase_weierstrass_data(k, b, a), b, +1.0
                )
                rel = abs(closed - oracle) / max(abs(closed), abs(oracle))
                worst = max(worst, rel)
    ok = worst < 1e-8
    _line(3, "double-vase residue expression vs Laurent-series oracle "
             "(documented sign erratum, corrected form adopted)",
          ok, f"max rel disagreement {worst:.2e} over 60 cells")


def test_criterion_04_period_closure_and_winding(vase_grid, dv_grid):
    worst = 0.0
    for (k, a), res in vase_grid[0].items():
        report = period_report(vase_weierstrass_data(k, a, res.value), 1e-8)
        worst = max(worst, report.worst.defect)
        if not report.closed:
            break
    for (k, b), res in dv_grid.items():
        report = period_report(
            double_vase_weierstrass_data(k, b, res.value), 1e-8
        )
        worst = max(worst, report.worst.defect)
        if not report.closed:
            break

    # adversarial winding: opposite-side detours differ by a loop around
    # every obstructed puncture
    worst_wind = 0.0
    probes = [
        vase_weierstrass_data(2, 0.5, vase_grid[0][(2, 0.5)].value),
        double_vase_weierstrass_data(2, 0.5, dv_grid[(2, 0.5)].value),
    ]
    for data in probes:
        exclusions = default_exclusions(data)
        for p, r in exclusions:
            u = p / abs(p) if abs(p) > 0 else 1.0
            d = 4.0 * r
            z0, z1 = p - d * u, p + d * u
            paths = [
                plan_path(exclusions, z0, z1, detour_sign=s) for s in (1, -1)
            ]
            worst_wind = max(
                worst_wind, check_path_independence(data, *paths)
            )
    ok = worst < 1e-8 and worst_wind < 1e-8
    _line(4, "period closure on all solved grid cells + winding paths",
          ok, f"max residue defect {worst:.2e}, max winding defect "
              f"{worst_wind:.2e}")


def test_criterion_05_end_inventories(vase_grid, dv_grid):
    ok = True
    detail = "all inventories exact"
    for (k, a), res in vase_grid[0].items():
        ends = puncture_ends(vase_weierstrass_data(k, a, res.value))
        inv = Counter(kind for _, _, _, kind in ends)
        want = Counter(
            {PLANAR_HORIZONTAL: 1, CATENOID_VERTICAL_DOWN: 1,
             CATENOID_NON_VERTICAL: k}
        )
        by_loc = {
            str(p): kind for p, _, _, kind in ends
            if is_infinity(p) or abs(p) < 0.5
        }
        if inv != want or by_loc.get("INF") != PLANAR_HORIZONTAL \
                or by_loc.get("0j") != CATENOID_VERTICAL_DOWN:
            ok, detail = False, f"vase inventory wrong at k={k}, a={a}: {inv}"
            break
    if ok:
        for (k, b), res in dv_grid.items():
            ends = puncture_ends(
                double_vase_weierstrass_data(k, b, res.value)
            )
            inv = Counter(kind for _, _, _, kind in ends)
            want = Counter(
                {PLANAR_HORIZONTAL: 2, CATENOID_NON_VERTICAL: 2 * k}
            )
            if inv != want:
                ok, detail = False, (
                    f"double-vase inventory wrong at k={k}, b={b}: {inv}"
                )
                break
    _line(5, "end inventories across both grids", ok, detail)


def test_criterion_06_catenoid_known_answer():
    cat = make_catenoid_fixture()
    mesh = sample_mesh(cat.data, DomainSpec(0.5, 2.0, 32, 64))
    X = mesh.vertices
    # base point 1 translates the axis to pass through (1, 0, *)
    res = (X[:, 0] - 1.0) ** 2 + X[:, 1] ** 2 - np.cosh(X[:, 2]) ** 2
    worst = float(np.max(np.abs(res)))
    ok = worst < 1e-6
    _line(6, "catenoid identity at 64x32", ok, f"max residual {worst:.2e}")


def test_criterion_07_minimality_convergence(test_meshes):
    ok = True
    details = []
    for name, inst, spec in test_meshes:
        meds = []
        for sp in (spec, replace(spec, n_r=2 * spec.n_r, n_theta=2 * spec.n_theta)):
            mesh = sample_mesh(inst.data, sp)
            H, interior = estimate_mean_curvature(mesh)
            meds.append(float(np.nanmedian(H[interior])))
        ratio = meds[0] / meds[1]
        details.append(f"{name} {meds[1]:.2e} (x{ratio:.1f})")
        if meds[1] >= 1e-2 or ratio < 3.0:
            ok = False
    _line(7, "median |H| < 1e-2 at 128x64 with >=3x refinement gain",
          ok, ", ".join(details))


def test_criterion_08_conformality_and_normals(test_meshes):
    worst_orth = worst_iso = worst_ang = 0.0
    for name, inst, spec in test_meshes:
        mesh = sample_mesh(inst.data, spec)
        interior = interior_vertices(mesh)
        idx = np.flatnonzero(interior)[::53]
        for i in idx:
            z = complex(mesh.source_z[i])
            xu, xv = fd_tangents(inst.data, z)
            nu, nv = np.linalg.norm(xu), np.linalg.norm(xv)
            lam = conformal_factor(inst.data, z) * abs(z)  # log-chart scale
            worst_orth = max(worst_orth, abs(np.dot(xu, xv)) / (nu * nv))
            worst_iso = max(
                worst_iso, abs(nu - nv) / lam, abs(nu - lam) / lam
            )
            n_fd = np.cross(xu, xv)
            n_fd /= np.linalg.norm(n_fd)
            n_g = gauss_normal(inst.data, z)
            cosang = np.clip(abs(np.dot(n_fd, n_g)), -1.0, 1.0)
            worst_ang = max(worst_ang, float(np.arccos(cosang)))
    ok = worst_orth < 1e-4 and worst_iso < 1e-4 and worst_ang < 1e-3
    _line(8, "conformality and Gauss-map normal agreement",
          ok, f"orth {worst_orth:.2e}, iso {worst_iso:.2e}, "
              f"angle {worst_ang:.2e} rad")


def _hausdorff(A: np.ndarray, B: np.ndarray) -> float:
    da = cKDTree(B).query(A)[0].max()
    db = cKDTree(A).query(B)[0].max()
    return float(max(da, db))


def test_criterion_09_vase_symmetries():
    vase = make_vase(3, 0.5)
    mesh = sample_mesh(
        vase.data, DomainSpec(0.45, 2.2, 24, 48, base_point=0.75)
    )
    V = mesh.vertices
    # 2 pi / 3 rotation about the vertical axis, translation fitted by
    # centroid (the vertex set maps to itself as a set)
    c, s = math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    rot = V @ R.T
    rot += V.mean(axis=0) - rot.mean(axis=0)
    d_rot = _hausdorff(rot, V)
    # reflection across the x1-x3 plane
    ref = V * np.array([1.0, -1.0, 1.0])
    ref += V.mean(axis=0) - ref.mean(axis=0)
    d_ref = _hausdorff(ref, V)
    ok = d_rot < 1e-7 and d_ref < 1e-7
    _line(9, "vase k=3 rotation and reflection symmetry",
          ok, f"Hausdorff rotation {d_rot:.2e}, reflection {d_ref:.2e}")


def test_criterion_10_global_residue_theorem(test_meshes):
    worst = 0.0
    for name, inst, _ in test_meshes:
        data = inst.data
        sums = {}
        for label, form in zip(("1/G dh", "G dh", "dh"), data.factored_forms()):
            total = residue_at(form, INF)
            for p, order in form.finite_roots():
                if order < 0:
                    total += residue_at(form, p)
            sums[label] = total
        # per-coordinate sums by linearity of the residue
        phi1 = 0.5 * (sums["1/G dh"] - sums["G dh"])
        phi2 = 0.5j * (sums["1/G dh"] + sums["G dh"])
        phi3 = sums["dh"]
        worst = max(worst, abs(phi1), abs(phi2), abs(phi3))
    ok = worst < 1e-10
    _line(10, "global residue theorem for all coordinate forms",
          ok, f"max |sum of residues| {worst:.2e}")
