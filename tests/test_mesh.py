"""Surface sampling, discrete curvature and mesh export formats."""

import json
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spheremin.algebra import (
    INF,
    FactoredMeromorphic,
    antiderivative,
    is_infinity,
    monomial,
    residue_at,
)
from spheremin.errors import DegenerateTriangle, ParameterDomainError
from spheremin.families import FAMILIES, construct, make_double_vase, make_vase
from spheremin.mesh import (
    DomainSpec,
    _face_geometry,
    estimate_mean_curvature,
    exclusion_disks,
    fd_tangents,
    interior_vertices,
    sample_mesh,
    write_metadata,
    write_obj,
    write_ply,
)
from spheremin.weierstrass import (
    _COMBINATION,
    Immersion,
    WeierstrassData,
    conformal_factor,
    gauss_normal,
)


def test_domain_spec_validation():
    with pytest.raises(ParameterDomainError):
        DomainSpec(2.0, 1.0)
    with pytest.raises(ParameterDomainError):
        DomainSpec(0.5, 2.0, n_r=4)
    with pytest.raises(ParameterDomainError):
        DomainSpec(0.5, 2.0, exclusion_radius=-0.1)


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


def test_enneper_polynomial_part():
    # G = z, dh = z dz, one puncture at infinity: X is a polynomial
    data = WeierstrassData(FactoredMeromorphic(1.0, [monomial(1)]),
                           FactoredMeromorphic(1.0, [monomial(1)]), (INF,))
    mesh = sample_mesh(data, DomainSpec(0.5, 2.0, 16, 32))

    def exact(z):
        return np.stack([(0.5 * (z - z ** 3 / 3)).real,
                         (0.5j * (z + z ** 3 / 3)).real,
                         (z ** 2 / 2).real], axis=-1)

    want = exact(mesh.source_z) - exact(np.array(1.0 + 0j))
    assert np.max(np.abs(mesh.vertices - want)) <= 1e-13


def test_zero_area_cut_is_relative_to_extent(catenoid):
    # the same surface scaled by 1e-20 keeps every face
    spec = DomainSpec(0.5, 2.0, 16, 32)
    tiny = WeierstrassData(catenoid.data.gauss_map, 1e-20 * catenoid.data.dh,
                           catenoid.data.punctures)
    mesh, small = sample_mesh(catenoid.data, spec), sample_mesh(tiny, spec)
    assert small.n_faces == mesh.n_faces == 960
    assert np.array_equal(small.faces, mesh.faces)
    assert np.allclose(small.vertices, 1e-20 * mesh.vertices, rtol=0, atol=1e-33)


def test_sidecar_bounds_the_dropped_log_imaginary_parts(vase2, tmp_path):
    mesh = sample_mesh(vase2.data, DomainSpec(0.45, 2.2, 8, 8, base_point=0.75))
    write_metadata(mesh, str(tmp_path / "m.json"))
    meta = json.loads((tmp_path / "m.json").read_text())
    assert 0.0 <= meta["max_dropped_log_imag"] < 1e-12


@pytest.mark.parametrize("make, args", [
    (make_vase, (3, 0.4)), (make_vase, (16, 0.1)), (make_double_vase, (6, 0.25)),
    (make_double_vase, (2, 0.9)),
    # a pole of dh/G merges with a zero 3.75e-10 away into an order-0 entry
    (make_double_vase, (2, 0.001)),
])
def test_dropped_log_imag_is_the_largest_coordinate_period(make, args):
    """`max_dropped_log_imag` is max |Im(_COMBINATION @ (Res u, Res v, Res w))|
    over the finite punctures: 1/(2 pi) times the largest translation of X
    around one of them, to the last bit."""
    data = make(*args).data
    want = max(
        np.abs((_COMBINATION @ [residue_at(f, p) for f in data.factored_forms()]).imag).max()
        for p in data.punctures if not is_infinity(p)
    )
    assert Immersion(data, 1.3).dropped_imag == want


# -- the loops that the array assembly replaced, kept as its reference --


def loop_faces(valid):
    vid = -np.ones(valid.shape, dtype=np.int64)
    for n, (i, j) in enumerate(np.argwhere(valid)):
        vid[i, j] = n
    n_r, n_theta = valid.shape
    faces = []
    for i in range(n_r - 1):
        for j in range(n_theta):
            j2 = (j + 1) % n_theta
            v00, v01 = vid[i, j], vid[i, j2]
            v10, v11 = vid[i + 1, j], vid[i + 1, j2]
            if min(v00, v01, v10, v11) < 0:
                continue
            faces.append((v00, v01, v11))
            faces.append((v00, v11, v10))
    return np.array(faces, dtype=np.int64)


def loop_interior_vertices(mesh):
    edge_count = {}
    for f in mesh.faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            key = (min(a, b), max(a, b))
            edge_count[key] = edge_count.get(key, 0) + 1
    used = np.zeros(mesh.n_vertices, dtype=bool)
    boundary = np.zeros(mesh.n_vertices, dtype=bool)
    for (a, b), n in edge_count.items():
        used[a] = used[b] = True
        if n == 1:
            boundary[a] = boundary[b] = True
    return used & ~boundary


def loop_obj_text(mesh):
    lines = [f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}" for v in mesh.vertices]
    lines += [f"vn {n[0]:.9g} {n[1]:.9g} {n[2]:.9g}" for n in mesh.normals]
    for f in mesh.faces:
        a, b, c = int(f[0]) + 1, int(f[1]) + 1, int(f[2]) + 1
        lines.append(f"f {a}//{a} {b}//{b} {c}//{c}")
    return "\n".join(lines) + "\n"


def test_array_assembly_matches_the_loops(vase2, tmp_path):
    # exclusion disks of radius 0.2 cut holes, so there are inner boundaries
    spec = DomainSpec(0.45, 2.2, 16, 32, base_point=0.75, exclusion_radius=0.2)
    mesh = sample_mesh(vase2.data, spec)
    grid = np.exp(np.linspace(np.log(0.45), np.log(2.2), 16)[:, None]
                  + 2j * np.pi * np.arange(32)[None, :] / 32)
    valid = np.ones(grid.shape, dtype=bool)
    for c, r in exclusion_disks(vase2.data, spec):
        valid &= np.abs(grid - c) > 1.2 * r
    assert not valid.all()
    assert np.array_equal(mesh.faces, loop_faces(valid))

    interior = interior_vertices(mesh)
    assert np.array_equal(interior, loop_interior_vertices(mesh))
    assert 0 < interior.sum() < mesh.n_vertices - 64  # the holes have rims

    write_obj(mesh, str(tmp_path / "m.obj"))
    assert (tmp_path / "m.obj").read_text() == loop_obj_text(mesh)

    write_ply(mesh, str(tmp_path / "m.ply"))
    records = b"".join(struct.pack("<Biii", 3, *map(int, f)) for f in mesh.faces)
    assert (tmp_path / "m.ply").read_bytes().endswith(records)


def fine_export_mesh(name, args):
    # the meshes of a fine export, at its 64 x 128 resolution
    spec = FAMILIES[name]
    inst = construct(spec, *args)
    domain = DomainSpec(spec.r_min, spec.r_max, 64, 128,
                        base_point=spec.base_point(inst.params))
    return sample_mesh(inst.data, domain)


FINE_EXPORTS = [("catenoid", ()), ("vase", (2, 0.5)), ("double_vase", (6, 0.25))]


@pytest.mark.parametrize("name, args", FINE_EXPORTS)
def test_obj_matches_the_loop_at_export_resolution(name, args, tmp_path):
    # the export window at 64x128, where face lines carry 4-digit ids
    mesh = fine_export_mesh(name, args)
    assert mesh.n_vertices > 8000
    write_obj(mesh, str(tmp_path / "m.obj"))
    assert (tmp_path / "m.obj").read_bytes() == loop_obj_text(mesh).encode()


def loop_immersion(data, base, z):
    """X at the points z as the immersion was first evaluated: one pass of
    every term over the nodes, each forming its own 1/(z - p) or
    |z - p|, then the same walk over the base point alone."""
    rational, logs = [], []
    for col, f in enumerate(data.factored_forms()):
        form_rational, form_logs = antiderivative(f)
        rational += [(col, p, c) for p, c in form_rational]
        logs += [(col, p, c1) for p, c1 in form_logs]
    entry = {p: i for i, p in enumerate(dict.fromkeys(p for _, p, _ in logs))}
    points = np.array(list(entry), dtype=np.complex128)
    coeffs = np.zeros((len(entry), 3), dtype=np.complex128)
    for col, p, c1 in logs:
        coeffs[entry[p]] += _COMBINATION[:, col] * c1

    def re_primitive(z):
        R = np.zeros((3, len(z)), dtype=np.complex128)
        for col, p, c in rational:
            R[col] += np.polyval(c, z if p is None else 1.0 / (z - p))
        X = (_COMBINATION @ R).real
        for p, c1 in zip(points, coeffs.real):
            X += np.outer(c1, np.log(np.abs(z - p)))
        return X.T

    return re_primitive(np.asarray(z)) - re_primitive(np.array([complex(base)]))[0]


@pytest.mark.parametrize("name, args, res", [
    *((name, args, (64, 128)) for name, args in FINE_EXPORTS),
    # 38 and 74 rational terms over 13 and 25 poles at k = 12, 146 over 49
    # at k = 24
    ("vase", (12, 0.4), (16, 32)), ("double_vase", (12, 0.75), (16, 32)),
    ("double_vase", (24, 0.5), (16, 32)),
])
def test_immersion_is_the_two_pass_loop_bit_for_bit(name, args, res):
    """One node pass, the base as its last node and each pole's terms
    formed once, gives the vertices of the per-term loop to the last bit
    and sign, and exactly 0 at the base point."""
    spec = FAMILIES[name]
    inst = construct(spec, *args)
    base = spec.base_point(inst.params)
    mesh = sample_mesh(inst.data, DomainSpec(spec.r_min, spec.r_max, *res,
                                             base_point=base))
    want = loop_immersion(inst.data, base, mesh.source_z)
    assert np.array_equal(mesh.vertices, want)
    assert np.array_equal(np.signbit(mesh.vertices), np.signbit(want))
    at_base = Immersion(inst.data, base)(np.array([base]))
    assert np.array_equal(at_base, np.zeros((1, 3)))
    assert not np.signbit(at_base).any()


def test_obj_text_of_a_hand_built_mesh(tmp_path):
    # faces out of vertex order, and vertex 2 (id 3) in no face
    from spheremin.mesh import SurfaceMesh

    mesh = SurfaceMesh(
        vertices=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                           [0.1, -2.5e-10, 1.0 / 3.0],
                           [0.0, 1.0, 123456.789012], [1.0, 1.0, -0.0]]),
        normals=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                          [0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]),
        source_z=np.zeros(5, dtype=complex),
        conformal=np.ones(5),
        faces=np.array([[4, 0, 1], [3, 4, 1]]),
        metadata={},
    )
    want = (
        "v 0 0 0\n"
        "v 1 0 0\n"
        "v 0.1 -2.5e-10 0.333333333\n"
        "v 0 1 123456.789\n"
        "v 1 1 -0\n"
        "vn 0 0 1\n"
        "vn 0 0 1\n"
        "vn 1 0 0\n"
        "vn 0 0 -1\n"
        "vn 0 0 1\n"
        "f 5//5 1//1 2//2\n"
        "f 4//4 5//5 2//2\n"
    )
    write_obj(mesh, str(tmp_path / "m.obj"))
    assert (tmp_path / "m.obj").read_bytes() == want.encode()
    assert loop_obj_text(mesh) == want


def per_corner_terms(mesh):
    """The per-corner formula that the face-geometry pass replaced: one
    cross product and one arctan2 at each corner.  Returns the corner
    cotangents, obtuse flags, face areas and squared opposite edges;
    kept as the accuracy reference of `estimate_mean_curvature`."""
    V, F = mesh.vertices, mesh.faces
    p = [V[F[:, c]] for c in range(3)]
    cots, angles, edge2 = [], [], []
    for c in range(3):
        e1 = p[(c + 1) % 3] - p[c]
        e2 = p[(c + 2) % 3] - p[c]
        dot = np.einsum("ij,ij->i", e1, e2)
        crs = np.linalg.norm(np.cross(e1, e2), axis=1)
        angles.append(np.arctan2(crs, dot))
        with np.errstate(divide="ignore", invalid="ignore"):
            cots.append(dot / crs)
        opposite = p[(c + 2) % 3] - p[(c + 1) % 3]
        edge2.append(np.einsum("ij,ij->i", opposite, opposite))
    area = 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]), axis=1)
    return np.array(cots), np.stack(angles) > 0.5 * np.pi, area, np.array(edge2)


def per_face_terms(mesh):
    """The same terms from the face-geometry pass, with the arithmetic of
    `estimate_mean_curvature`."""
    E, twice_area = _face_geometry(mesh.vertices, mesh.faces)
    dot = -np.sum(E[[1, 2, 0]] * E[[2, 0, 1]], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cots = dot / twice_area
    return cots, dot < 0, 0.5 * twice_area, np.sum(E * E, axis=1)


def add_at_curvature(mesh, terms):
    """Mixed-area cotangent |H| from per-corner `terms`, accumulated with
    np.add.at: the reference for `estimate_mean_curvature`'s np.bincount
    order."""
    V, F = mesh.vertices, mesh.faces
    nv = len(V)
    cots, obtuse, area, edge2 = terms(mesh)
    A = np.zeros(nv)
    obtuse_any = np.any(obtuse, axis=0)
    for c in range(3):
        voronoi = 0.125 * (
            edge2[(c + 1) % 3] * cots[(c + 1) % 3]
            + edge2[(c + 2) % 3] * cots[(c + 2) % 3]
        )
        contrib = np.where(
            obtuse_any,
            np.where(obtuse[c], 0.5 * area, 0.25 * area),
            voronoi,
        )
        np.add.at(A, F[:, c], contrib)
    S = np.zeros((nv, 3))
    for c in range(3):
        i1, i2 = F[:, (c + 1) % 3], F[:, (c + 2) % 3]
        w = cots[c][:, None]
        diff = V[i1] - V[i2]
        np.add.at(S, i1, w * diff)
        np.add.at(S, i2, -w * diff)
    interior = interior_vertices(mesh)
    H = np.full(nv, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        K = S / (2.0 * A[:, None])
    H[interior] = 0.5 * np.linalg.norm(K[interior], axis=1)
    return H, interior


@pytest.mark.parametrize("name, args", FINE_EXPORTS)
def test_curvature_accumulation_matches_add_at(name, args):
    mesh = fine_export_mesh(name, args)
    H, interior = estimate_mean_curvature(mesh)
    H_ref, interior_ref = add_at_curvature(mesh, per_face_terms)
    assert np.array_equal(interior, interior_ref)
    assert np.isnan(H).sum() == (~interior).sum() > 0
    assert np.array_equal(H, H_ref, equal_nan=True)


@pytest.mark.parametrize("name, args", FINE_EXPORTS)
def test_curvature_matches_the_per_corner_formula(name, args):
    # one cross product per face in place of one per corner moves H by
    # rounding only
    mesh = fine_export_mesh(name, args)
    H, interior = estimate_mean_curvature(mesh)
    H_ref, _ = add_at_curvature(mesh, per_corner_terms)
    assert np.all(np.abs(H[interior] - H_ref[interior]) <= 1e-9 * H_ref[interior])


def test_sampling_reads_the_forms_built_with_the_data(vase2, monkeypatch):
    # the immersion antidifferentiates the data's dh/G, G dh and dh
    built = []
    init = FactoredMeromorphic.__init__

    def counting_init(self, *a, **kw):
        built.append(1)
        init(self, *a, **kw)

    monkeypatch.setattr(FactoredMeromorphic, "__init__", counting_init)
    sample_mesh(vase2.data, DomainSpec(0.45, 2.2, 8, 16, base_point=0.75))
    assert built == []


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


def triangle_mesh(points):
    from spheremin.mesh import SurfaceMesh

    return SurfaceMesh(
        vertices=np.array(points, dtype=float),
        normals=np.tile([0.0, 0.0, 1.0], (3, 1)),
        source_z=np.zeros(3, dtype=complex),
        conformal=np.ones(3),
        faces=np.array([[0, 1, 2]]),
        metadata={},
    )


@pytest.mark.parametrize("degrees, refused", [(178.9, False), (179.1, True)])
def test_curvature_refuses_angles_above_179_degrees(degrees, refused):
    t = np.radians(degrees)
    mesh = triangle_mesh([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [np.cos(t), np.sin(t), 0.0]])
    if refused:
        with pytest.raises(DegenerateTriangle, match="179 degrees"):
            estimate_mean_curvature(mesh)
    else:
        H, interior = estimate_mean_curvature(mesh)
        assert not interior.any() and np.isnan(H).all()


def test_curvature_refuses_a_collinear_face():
    # the middle vertex lies between the ends: a 180 degree corner
    mesh = triangle_mesh([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DegenerateTriangle):
        estimate_mean_curvature(mesh)


def test_curvature_accepts_coincident_vertices():
    # no corner has an angle: the dot products are 0 or positive.  The face
    # has no area, so two cotangents are 0/0, and every product that meets
    # them stays silent; sample_mesh drops such faces before the curvature
    mesh = triangle_mesh([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H, interior = estimate_mean_curvature(mesh)
    assert not interior.any()


def test_face_geometry_edges_and_area():
    rng = np.random.default_rng(7)
    V = rng.normal(size=(300, 3)) * rng.uniform(1e-3, 1e3, size=(300, 1))
    F = rng.permutation(300).reshape(-1, 3)
    E, twice_area = _face_geometry(np.asfortranarray(V), F)
    assert E.shape == (3, 3, 100)
    p = [V[F[:, c]] for c in range(3)]
    for c in range(3):
        assert np.array_equal(E[c].T, p[(c + 2) % 3] - p[(c + 1) % 3])
    want = np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]), axis=1)
    assert np.allclose(twice_area, want, rtol=4 * np.finfo(float).eps, atol=0)
    scale = np.max(np.abs(E), axis=(0, 1))
    assert np.all(np.abs(E.sum(axis=0)) <= 4 * np.finfo(float).eps * scale)

    # a collinear face has no area at all
    _, zero = _face_geometry(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0],
                                       [2.0, 4.0, 6.0]]), np.array([[0, 1, 2]]))
    assert zero.tolist() == [0.0]


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
    for sp in (spec, replace(spec, n_r=2 * spec.n_r, n_theta=2 * spec.n_theta)):
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


def test_base_point_inside_exclusion_is_parameter_error():
    g = FactoredMeromorphic(1.0, [monomial(1)])
    dh = FactoredMeromorphic(1.0, [monomial(-1)])
    data = WeierstrassData(g, dh, (0j, INF))
    with pytest.raises(ParameterDomainError, match="exclusion disk"):
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


def test_sidecar_bytes_of_a_hand_built_mesh(tmp_path):
    # 2-space indent, keys sorted at every level, LF line ends, ASCII
    # escapes and one trailing newline
    from spheremin.mesh import SurfaceMesh

    mesh = SurfaceMesh(
        vertices=np.zeros((1, 3)), normals=np.array([[0.0, 0.0, 1.0]]),
        source_z=np.zeros(1, dtype=complex), conformal=np.ones(1),
        faces=np.zeros((0, 3), dtype=int),
        metadata={"zeta": [1, 0.1], "family": {"k": 2, "b": 0.25, "name": "déjà"},
                  "empty": {}, "none": None, "flag": True},
    )
    want = (
        '{\n'
        '  "empty": {},\n'
        '  "family": {\n'
        '    "b": 0.25,\n'
        '    "k": 2,\n'
        '    "name": "d\\u00e9j\\u00e0"\n'
        '  },\n'
        '  "flag": true,\n'
        '  "none": null,\n'
        '  "zeta": [\n'
        '    1,\n'
        '    0.1\n'
        '  ]\n'
        '}\n'
    )
    write_metadata(mesh, str(tmp_path / "m.json"))
    assert (tmp_path / "m.json").read_bytes() == want.encode()
