"""Minimal surfaces on punctured spheres from Weierstrass data."""

__version__ = "0.1.0"

from .algebra import (
    INF,
    FactoredMeromorphic,
    monomial,
    residue_at,
    residue_contour,
    shifted_power,
)
from .families import (
    DoubleVaseParams,
    FamilyInstance,
    VaseParams,
    make_catenoid_fixture,
    make_double_vase,
    make_family,
    make_vase,
    solve_double_vase_a,
    solve_vase_rho,
)
from .mesh import (
    DomainSpec,
    SurfaceMesh,
    estimate_mean_curvature,
    sample_mesh,
    write_obj,
    write_ply,
)
from .paths import (
    IntegrationPath,
    integrate_point,
    plan_path,
)
from .periods import assert_period_closed
from .weierstrass import (
    WeierstrassData,
    degree_audit,
    gauss_normal,
    regularity_check,
)

__all__ = [
    "INF",
    "FactoredMeromorphic",
    "monomial",
    "shifted_power",
    "residue_at",
    "residue_contour",
    "WeierstrassData",
    "regularity_check",
    "degree_audit",
    "gauss_normal",
    "VaseParams",
    "DoubleVaseParams",
    "assert_period_closed",
    "solve_vase_rho",
    "solve_double_vase_a",
    "FamilyInstance",
    "make_vase",
    "make_double_vase",
    "make_catenoid_fixture",
    "make_family",
    "IntegrationPath",
    "plan_path",
    "integrate_point",
    "DomainSpec",
    "SurfaceMesh",
    "sample_mesh",
    "estimate_mean_curvature",
    "write_obj",
    "write_ply",
]
