"""Surface sampling, discrete curvature and mesh export formats."""

import json
import struct

import numpy as np
import pytest

from spheremin.algebra import INF, FactoredMeromorphic, monomial
from spheremin.errors import ParameterDomainError, Unroutable
from spheremin.families import FAMILIES, construct
from spheremin.mesh import (
    DomainSpec,
    estimate_mean_curvature,
    fd_tangents,
    interior_vertices,
    sample_mesh,
    write_metadata,
    write_obj,
    write_ply,
)
from spheremin.weierstrass import WeierstrassData, conformal_factor, gauss_normal


def test_domain_spec_validation():
    with pytest.raises(ParameterDomainError):
        DomainSpec(2.0, 1.0)
    with pytest.raises(ParameterDomainError):
        DomainSpec(0.5, 2.0, n_r=4)
    with pytest.raises(ParameterDomainError):
        DomainSpec(0.5, 2.0, exclusion_radius=-0.1)
    spec = DomainSpec(0.5, 2.0, 16, 32)
    fine = spec.refined()
    assert (fine.n_r, fine.n_theta) == (32, 64)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_sampler_matches_scalar_diagnostics(name):
    spec = FAMILIES[name]
    inst = construct(spec, *((2, 0.5) if spec.solver else ()))
    domain = DomainSpec(spec.r_min, spec.r_max, 8, 8,
                        base_point=spec.base_point(inst.params))
    mesh = sample_mesh(inst.data, domain)
    assert mesh.n_vertices > 0
    for z, normal, conformal in zip(mesh.source_z, mesh.normals, mesh.conformal):
        assert np.max(np.abs(normal - gauss_normal(inst.data, z))) <= 1e-14
        want = conformal_factor(inst.data, z)
        assert abs(conformal - want) <= 1e-14 * max(1.0, want)


def test_catenoid_mesh_identity(catenoid):
    mesh = sample_mesh(catenoid.data, DomainSpec(0.5, 2.0, 32, 64))
    X = mesh.vertices
    res = (X[:, 0] - 1.0) ** 2 + X[:, 1] ** 2 - np.cosh(X[:, 2]) ** 2
    assert np.max(np.abs(res)) < 1e-12


def test_catenoid_source_map(catenoid):
    mesh = sample_mesh(catenoid.data, DomainSpec(0.5, 2.0, 32, 64))
    # x3 = log|z| exactly for dh = dz/z from base 1
    assert np.allclose(mesh.vertices[:, 2], np.log(np.abs(mesh.source_z)),
                       atol=1e-12)


def test_mesh_normals_unit_and_conformal_positive(vase2):
    mesh = sample_mesh(vase2.data, DomainSpec(0.45, 2.2, 16, 32,
                                              base_point=0.75))
    assert np.allclose(np.linalg.norm(mesh.normals, axis=1), 1.0, atol=1e-12)
    assert np.all(mesh.conformal > 0)
    assert np.all(np.isfinite(mesh.vertices))


def test_faces_index_valid_vertices(dvase2):
    mesh = sample_mesh(dvase2.data, DomainSpec(0.6, 1.8, 16, 32))
    assert mesh.faces.min() >= 0
    assert mesh.faces.max() < mesh.n_vertices
    # angular wrap: every interior grid ring closes
    assert mesh.n_faces > 0


def test_flat_plane_has_zero_curvature():
    # the cotangent operator must vanish identically on a planar mesh
    x, y = np.meshgrid(np.linspace(0, 1, 12), np.linspace(0, 1, 12))
    verts = np.stack([x.ravel(), y.ravel(), 0.3 * x.ravel() + 0.1 * y.ravel()],
                     axis=1)
    faces = []
    n = 12
    for i in range(n - 1):
        for j in range(n - 1):
            v = i * n + j
            faces.append((v, v + 1, v + n + 1))
            faces.append((v, v + n + 1, v + n))
    from spheremin.mesh import SurfaceMesh

    mesh = SurfaceMesh(
        vertices=verts,
        normals=np.tile([0.0, 0.0, 1.0], (len(verts), 1)),
        source_z=np.zeros(len(verts), dtype=complex),
        conformal=np.ones(len(verts)),
        faces=np.array(faces),
        metadata={},
    )
    H, interior = estimate_mean_curvature(mesh)
    assert interior.sum() == (n - 2) ** 2
    assert np.nanmax(H[interior]) < 1e-12


def test_catenoid_curvature_converges(catenoid):
    spec = DomainSpec(0.5, 2.0, 24, 48)
    meds = []
    for sp in (spec, spec.refined()):
        mesh = sample_mesh(catenoid.data, sp)
        H, interior = estimate_mean_curvature(mesh)
        meds.append(np.nanmedian(H[interior]))
    assert meds[0] < 2e-3
    assert meds[0] / meds[1] >= 3.0


def test_interior_vertices_excludes_boundary(catenoid):
    mesh = sample_mesh(catenoid.data, DomainSpec(0.5, 2.0, 16, 32))
    interior = interior_vertices(mesh)
    # first and last radial rings are boundary: 2 * n_theta excluded
    assert interior.sum() == mesh.n_vertices - 2 * 32


def test_fd_tangents_are_conformal(vase2):
    z = 1.4 + 0.3j
    xu, xv = fd_tangents(vase2.data, z)
    nu, nv = np.linalg.norm(xu), np.linalg.norm(xv)
    assert abs(np.dot(xu, xv)) < 1e-4 * nu * nv
    assert abs(nu - nv) < 1e-4 * nu


def test_base_point_inside_exclusion_unroutable():
    g = FactoredMeromorphic(1.0, [monomial(1)])
    dh = FactoredMeromorphic(1.0, [monomial(-1)])
    data = WeierstrassData(g, dh, (0j, INF))
    with pytest.raises(Unroutable):
        sample_mesh(data, DomainSpec(0.5, 2.0, 16, 32, base_point=1.0,
                                     exclusion_radius=1.5))


def test_sampling_is_deterministic(catenoid, tmp_path):
    spec = DomainSpec(0.5, 2.0, 16, 32)
    p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
    write_obj(sample_mesh(catenoid.data, spec), str(p1))
    write_obj(sample_mesh(catenoid.data, spec), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_obj_format(catenoid, tmp_path):
    mesh = sample_mesh(catenoid.data, DomainSpec(0.5, 2.0, 16, 32))
    out = tmp_path / "m.obj"
    write_obj(mesh, str(out))
    lines = out.read_text().splitlines()
    v = [l for l in lines if l.startswith("v ")]
    vn = [l for l in lines if l.startswith("vn ")]
    f = [l for l in lines if l.startswith("f ")]
    assert len(v) == len(vn) == mesh.n_vertices
    assert len(f) == mesh.n_faces
    # 1-based v//vn references
    first = f[0].split()[1:]
    for ref in first:
        a, b = ref.split("//")
        assert 1 <= int(a) <= mesh.n_vertices and a == b


def test_ply_format(catenoid, tmp_path):
    mesh = sample_mesh(catenoid.data, DomainSpec(0.5, 2.0, 16, 32))
    out = tmp_path / "m.ply"
    write_ply(mesh, str(out))
    blob = out.read_bytes()
    header, _, body = blob.partition(b"end_header\n")
    assert b"format binary_little_endian 1.0" in header
    assert f"element vertex {mesh.n_vertices}".encode() in header
    assert f"element face {mesh.n_faces}".encode() in header
    vsize = mesh.n_vertices * 7 * 4
    assert len(body) == vsize + mesh.n_faces * (1 + 3 * 4)
    # first vertex record round-trips
    x, y, z, nx, ny, nz, cf = struct.unpack_from("<7f", body, 0)
    assert np.allclose([x, y, z], mesh.vertices[0], atol=1e-6)
    count = body[vsize]
    assert count == 3


def test_metadata_sidecar(catenoid, tmp_path):
    spec = DomainSpec(0.5, 2.0, 16, 32)
    mesh = sample_mesh(catenoid.data, spec, metadata={"tag": "test"})
    out = tmp_path / "m.json"
    write_metadata(mesh, str(out))
    meta = json.loads(out.read_text())
    assert meta["tag"] == "test"
    assert meta["domain"]["n_r"] == 16
    assert meta["domain"]["base_point"] == {"re": 1.0, "im": 0.0}
