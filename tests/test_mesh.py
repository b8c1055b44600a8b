"""Surface sampling, discrete curvature and mesh export formats."""

import errno
import json
import os
import stat
import struct
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spheremin import cli
from spheremin.algebra import (
    INF,
    FactoredMeromorphic,
    is_infinity,
    monomial,
    residue_at,
    shifted_power,
)
from spheremin.errors import DegenerateTriangle, ParameterDomainError
from spheremin.families import FAMILIES, construct, make_double_vase, make_vase
from spheremin.kernels import BLOCK
from spheremin.mesh import (
    ZERO_AREA,
    DomainSpec,
    _face_geometry,
    _nonzero_area,
    estimate_mean_curvature,
    exclusion_disks,
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
    gauss_normal,
)

from oracles import antiderivative, conformal_factor, fd_tangents


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
    data = WeierstrassData((1.0, [monomial(1)]), (1.0, [monomial(1)]), (INF,))
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
    g, dh = catenoid.data.gauss_map, catenoid.data.dh
    tiny = WeierstrassData((g.coefficient, g.factors), (1e-20 * dh.coefficient, dh.factors),
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


def fine_export_mesh(name, args, res=(64, 128)):
    # the meshes of a fine export, at its 64 x 128 resolution unless res is given
    spec = FAMILIES[name]
    inst = construct(spec, *args)
    domain = DomainSpec(spec.r_min, spec.r_max, *res,
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
    points = data._table.points.tolist()  # the forms' poles are its entries
    for col, f in enumerate(data.factored_forms()):
        form_rational, form_logs = antiderivative(f)
        rational += [(col, None if i is None else points[i], c) for i, c in form_rational]
        logs += [(col, points[i], c1) for i, c1 in form_logs]
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


# hand-built data whose rational terms are longer than the families'
# (finite poles of order <= 2): Horner runs over 3 or more coefficients
HAND_BUILT = {
    # dh/G has poles of order 5 at 0.5, 2 at the cube roots of 1 + i and 1
    # at 0 and at the roots of z^2 - 0.3i, all coefficients complex
    "pole_of_order_5": lambda: WeierstrassData(
        (0.7 + 0.2j, [shifted_power(2, 0.3j)]),
        (1.3 - 0.4j, [shifted_power(1, 0.5, -5), shifted_power(3, 1 + 1j, -2), monomial(-1)]),
        (INF,)),
    # dh = z^3 (z - 0.5)^-4 dz: G dh has a polynomial part of degree 3
    "polynomial_of_degree_3": lambda: WeierstrassData(
        (0.5j, [monomial(2), shifted_power(2, -0.25)]),
        (1.0, [monomial(3), shifted_power(1, 0.5, -4)]),
        (INF,)),
}


@pytest.mark.parametrize("name, args, res", [
    *((name, args, (64, 128)) for name, args in FINE_EXPORTS),
    # 38 and 74 rational terms over 13 and 25 poles at k = 12, 146 over 49
    # at k = 24
    ("vase", (12, 0.4), (16, 32)), ("double_vase", (12, 0.75), (16, 32)),
    ("double_vase", (24, 0.5), (16, 32)),
    *((name, (), (16, 32)) for name in HAND_BUILT),
])
def test_immersion_is_the_two_pass_loop_bit_for_bit(name, args, res):
    """One node pass, the base as its last node and each pole's terms
    formed once, gives the vertices of the per-term loop to the last bit
    and sign, and exactly 0 at the base point."""
    if name in HAND_BUILT:
        # no period closes: the immersion on a log-polar grid whose ray
        # theta = 0 runs along the real axis through the pole at 0.5
        data, base = HAND_BUILT[name](), 1.5 + 0.5j
        s = np.linspace(np.log(0.2), np.log(2.0), res[0])
        z = np.exp(s[:, None] + 2j * np.pi * np.arange(res[1]) / res[1]).ravel()
        got = Immersion(data, base)(z)
    else:
        spec = FAMILIES[name]
        inst = construct(spec, *args)
        data, base = inst.data, spec.base_point(inst.params)
        mesh = sample_mesh(data, DomainSpec(spec.r_min, spec.r_max, *res, base_point=base))
        got, z = mesh.vertices, mesh.source_z
    want = loop_immersion(data, base, z)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    at_base = Immersion(data, base)(np.array([base]))
    assert np.array_equal(at_base, np.zeros((1, 3)))
    assert not np.signbit(at_base).any()


# -- the export's passes in blocks of kernels.BLOCK -----------------------


def annulus_nodes(n):
    rng = np.random.default_rng(n)
    return np.exp(rng.uniform(np.log(0.45), np.log(2.2), n) + 2j * np.pi * rng.random(n))


def traced_peak(fn, *args):
    """Peak bytes traced while fn(*args) runs, above what was held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


# one block's worth of temporaries: a (3, 3, BLOCK) float array, the size
# of one block's edge vectors
BLOCK_BYTES = 3 * 3 * BLOCK * 8


@pytest.mark.parametrize("nodes", [BLOCK - 2, BLOCK - 1, BLOCK, 2 * BLOCK])
@pytest.mark.parametrize("name, args", FINE_EXPORTS)
def test_blocked_immersion_is_one_unblocked_pass(name, args, nodes):
    """n nodes and the base point, n + 1 in {BLOCK - 1, BLOCK, BLOCK + 1,
    2 BLOCK + 1}, walked in blocks give one `_re_primitive` call over all
    of them to the last bit and sign, the base point riding in the last
    block of nodes (BLOCK + 1 nodes long at BLOCK + 1 and 2 BLOCK + 1)."""
    spec = FAMILIES[name]
    inst = construct(spec, *args)
    base = spec.base_point(inst.params)
    immersion = Immersion(inst.data, base)
    z = annulus_nodes(nodes)
    X = immersion._re_primitive(np.append(z, base)).T
    want = X[:-1] - X[-1]
    got = immersion(z)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("nodes, blocks", [
    (0, [1]), (BLOCK - 1, [BLOCK]), (BLOCK, [BLOCK + 1]), (BLOCK + 1, [BLOCK, 2]),
    (2 * BLOCK - 1, [BLOCK, BLOCK]), (2 * BLOCK, [BLOCK, BLOCK + 1]),
])
def test_base_point_rides_in_the_last_block(nodes, blocks, monkeypatch):
    """The base point joins the last block of nodes and never makes a
    `_re_primitive` call of its own: 2 calls at 8,192 nodes, a full 64x128
    grid, where a one-node third block walked every pole and term again."""
    spec = FAMILIES["double_vase"]
    inst = construct(spec, 6, 0.25)
    immersion = Immersion(inst.data, spec.base_point(inst.params))
    sizes, re_primitive = [], Immersion._re_primitive

    def counting(self, z):
        sizes.append(len(z))
        return re_primitive(self, z)

    monkeypatch.setattr(Immersion, "_re_primitive", counting)
    assert immersion(annulus_nodes(nodes)).shape == (nodes, 3)
    assert sizes == blocks


@pytest.mark.parametrize("name, args", [("catenoid", ()), ("double_vase", (6, 0.25))])
def test_fine_export_grid_makes_two_immersion_blocks(name, args, monkeypatch):
    """The 64x128 grids of `export_fine`'s catenoid and double vase put all
    8,192 nodes through the immersion: 2 blocks, the second with the base
    point."""
    sizes, re_primitive = [], Immersion._re_primitive

    def counting(self, z):
        sizes.append(len(z))
        return re_primitive(self, z)

    monkeypatch.setattr(Immersion, "_re_primitive", counting)
    fine_export_mesh(name, args)
    assert sizes == [BLOCK, BLOCK + 1]


@pytest.mark.parametrize("faces", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_blocked_drop_and_curvature_are_one_unblocked_pass(faces):
    mesh = fine_export_mesh("vase", (2, 0.5))
    V, F = mesh.vertices, mesh.faces[:faces]
    # the drop: a face of no area in every block
    G = F.copy()
    G[::97, 1] = G[::97, 0]
    keep = _nonzero_area(V, G)
    extent = float(np.max(np.ptp(V, axis=0)))
    assert np.array_equal(keep, _face_geometry(V, G)[1] > ZERO_AREA * extent ** 2)
    assert np.array_equal(~keep, np.arange(faces) % 97 == 0)
    # the curvature over exactly `faces` faces, against one unblocked pass
    sub = replace(mesh, faces=F)
    H, interior = estimate_mean_curvature(sub)
    H_ref, interior_ref = add_at_curvature(sub, per_face_terms)
    assert np.array_equal(interior, interior_ref)
    assert np.isnan(H).sum() == (~interior).sum() and interior.any()
    assert np.array_equal(H, H_ref, equal_nan=True)


def test_curvature_refuses_a_face_in_the_last_block(monkeypatch, tmp_path):
    # 2 BLOCK + 10 faces of the export, then one with a 179.5 degree corner
    mesh = fine_export_mesh("catenoid", ())
    n, t = mesh.n_vertices, np.radians(179.5)
    bad = replace(
        mesh,
        vertices=np.vstack([mesh.vertices, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                            [np.cos(t), np.sin(t), 0.0]]]),
        normals=np.vstack([mesh.normals, np.tile([0.0, 0.0, 1.0], (3, 1))]),
        source_z=np.append(mesh.source_z, np.zeros(3)),
        conformal=np.append(mesh.conformal, np.ones(3)),
        faces=np.vstack([mesh.faces[:2 * BLOCK + 10], [[n, n + 1, n + 2]]]),
    )
    with pytest.raises(DegenerateTriangle, match="179 degrees"):
        estimate_mean_curvature(bad)
    # the export refuses it before writing anything
    monkeypatch.setattr(cli, "sample_mesh", lambda data, domain, metadata: bad)
    out = tmp_path / "c.obj"
    assert cli.main(["export", "--family", "catenoid", "--out", str(out)]) == cli.EXIT_RUNTIME
    assert list(tmp_path.iterdir()) == []


def test_blocked_passes_hold_one_block_of_temporaries():
    """From 4 to 8 blocks, the traced peak of the immersion call and of the
    drop grows by the extra whole-mesh arrays plus at most one block's worth:
    for the immersion the nodes with the base point (16 bytes a node), X
    (24) and the result (24); for the drop its mask (1 byte a face)."""
    spec = FAMILIES["double_vase"]
    inst = construct(spec, 6, 0.25)
    immersion = Immersion(inst.data, spec.base_point(inst.params))
    small, large = (traced_peak(immersion, annulus_nodes(b * BLOCK)) for b in (4, 8))
    assert large - small <= 4 * BLOCK * (16 + 24 + 24) + BLOCK_BYTES

    rng = np.random.default_rng(3)
    V = rng.normal(size=(20000, 3))
    small, large = (traced_peak(_nonzero_area, V, rng.integers(0, 20000, size=(b * BLOCK, 3)))
                    for b in (4, 8))
    assert large - small <= 4 * BLOCK + BLOCK_BYTES


def test_blocked_curvature_holds_one_block_of_temporaries():
    """From 3.9 to 7.9 face blocks (the catenoid at 64x128, then 128x128),
    the traced peak of the curvature grows by no more than that of
    `interior_vertices`, which it runs first, plus one block's worth: its
    per-vertex sums grow with the vertices, and no array of its own has a
    row per face beyond one block."""
    meshes = [fine_export_mesh("catenoid", (), (n_r, 128)) for n_r in (64, 128)]
    assert [mesh.n_faces // BLOCK for mesh in meshes] == [3, 7]
    (small, large), (ring_small, ring_large) = (
        [traced_peak(fn, mesh) for mesh in meshes]
        for fn in (estimate_mean_curvature, interior_vertices))
    assert large - small <= ring_large - ring_small + BLOCK_BYTES


@pytest.mark.parametrize("name, args", FINE_EXPORTS)
def test_curvature_does_not_depend_on_the_block_size(name, args, monkeypatch):
    # each vertex sums its terms face by face whatever the slices
    mesh = fine_export_mesh(name, args)
    H, interior = estimate_mean_curvature(mesh)
    for block in (7, 1000, 4096, mesh.n_faces + 1):
        monkeypatch.setattr("spheremin.mesh.BLOCK", block)
        H_block, interior_block = estimate_mean_curvature(mesh)
        assert np.array_equal(interior_block, interior)
        assert np.array_equal(H_block, H, equal_nan=True)


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
    np.add.at in face order (each face's three corners, then its six
    Laplacian terms, before the next face's): the reference for
    `estimate_mean_curvature`'s sums."""
    V, F = mesh.vertices, mesh.faces
    nv = len(V)
    cots, obtuse, area, edge2 = terms(mesh)
    obtuse_any = np.any(obtuse, axis=0)
    contrib = np.empty((len(F), 3))
    for c in range(3):
        voronoi = 0.125 * (
            edge2[(c + 1) % 3] * cots[(c + 1) % 3]
            + edge2[(c + 2) % 3] * cots[(c + 2) % 3]
        )
        contrib[:, c] = np.where(
            obtuse_any,
            np.where(obtuse[c], 0.5 * area, 0.25 * area),
            voronoi,
        )
    A = np.zeros(nv)
    np.add.at(A, F.ravel(), contrib.ravel())
    # per face the six terms (c, i1) and (c, i2) for c = 0, 1, 2, where the
    # edge from i1 = F[:, c+1] to i2 = F[:, c+2] adds cot(c) (V[i1] - V[i2])
    # at i1 and its negative at i2
    index, laplacian = np.empty((len(F), 6), dtype=np.int64), np.empty((len(F), 6, 3))
    for c in range(3):
        i1, i2 = F[:, (c + 1) % 3], F[:, (c + 2) % 3]
        w = cots[c][:, None]
        diff = V[i1] - V[i2]
        index[:, 2 * c], index[:, 2 * c + 1] = i1, i2
        laplacian[:, 2 * c], laplacian[:, 2 * c + 1] = w * diff, -w * diff
    S = np.zeros((nv, 3))
    np.add.at(S, index.ravel(), laplacian.reshape(-1, 3))
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


@pytest.mark.parametrize("case", ["exclusion_holes", "dropped_faces"])
def test_interior_vertices_match_the_loop(vase3, case):
    if case == "exclusion_holes":
        # a hole round each of the three punctures on the unit circle
        mesh = sample_mesh(vase3.data, DomainSpec(0.45, 2.2, 16, 32, base_point=0.75,
                                                  exclusion_radius=0.15))
        assert mesh.n_vertices < 16 * 32
    else:
        mesh = sample_mesh(vase3.data, DomainSpec(0.45, 2.2, 16, 32, base_point=0.75))
        mesh = replace(mesh, faces=np.delete(mesh.faces, [100, 101, 401], axis=0))
    interior = interior_vertices(mesh)
    assert np.array_equal(interior, loop_interior_vertices(mesh))
    assert 0 < interior.sum() < mesh.n_vertices - 64


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
    data = WeierstrassData((1.0, [monomial(1)]), (1.0, [monomial(-1)]), (0j, INF))
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


# -- replacing an output -----------------------------------------------

WRITERS = [(write_obj, "m.obj"), (write_ply, "m.ply"), (write_metadata, "m.obj.json")]


@pytest.fixture(scope="module")
def small_mesh(vase2):
    return sample_mesh(vase2.data, DomainSpec(0.45, 2.2, 8, 8, base_point=0.75))


@pytest.mark.parametrize("writer, name", WRITERS)
def test_rewrite_writes_a_new_file_with_the_old_mode(writer, name, small_mesh, tmp_path):
    """A held reader keeps the old bytes, a 0o640 output keeps 0o640 (the
    umask would give 0o644), and the bytes are those of a new path."""
    writer(small_mesh, str(tmp_path / ("new_" + name)))
    path = tmp_path / name
    path.write_bytes(b"old\n" * 10_000)
    path.chmod(0o640)
    with open(path, "rb") as held:
        writer(small_mesh, str(path))
        assert held.read() == b"old\n" * 10_000
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_bytes() == (tmp_path / ("new_" + name)).read_bytes()


def refuse(path):
    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


@pytest.mark.parametrize("patch", [
    ("unlink", refuse),                         # a directory it may not write
    ("geteuid", lambda: os.getuid() + 1),       # another user's file
    ("getegid", lambda: os.getgid() + 1),       # a file of another group
])
def test_a_file_it_may_not_replace_is_rewritten_in_place(patch, small_mesh, tmp_path,
                                                         monkeypatch):
    """Such a file keeps its inode, and so its owner and group, as `open`
    truncates it: a held reader sees the new bytes."""
    write_obj(small_mesh, str(tmp_path / "new.obj"))
    path = tmp_path / "m.obj"
    path.write_bytes(b"old\n" * 10_000)
    monkeypatch.setattr(os, *patch)
    with open(path, "rb") as held:
        write_obj(small_mesh, str(path))
        assert held.read() == (tmp_path / "new.obj").read_bytes()


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("writer, name", WRITERS)
def test_a_failed_write_leaves_no_file(writer, name, existing, small_mesh, tmp_path,
                                       full_disk):
    """A write that fills the disk part-way removes the file it created, new
    or in place of an old one, and raises."""
    if existing:
        (tmp_path / name).write_bytes(b"old\n")
    full_disk(name)
    with pytest.raises(OSError) as exc:
        writer(small_mesh, str(tmp_path / name))
    assert exc.value.errno == errno.ENOSPC
    assert list(tmp_path.iterdir()) == []
