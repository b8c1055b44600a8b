"""Surface sampling, discrete curvature diagnostics and mesh export.

The domain is a polar annulus in the log chart z = exp(s + i*theta)
minus the puncture exclusion disks.  X is integrated to every grid node
along radial spokes, reusing the accumulated value at the previous node
so each step integrates only one short segment (sound once the periods
close).  Output meshes are deterministic for a fixed spec.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .algebra import is_infinity
from .errors import DegenerateTriangle, ParameterDomainError, Unroutable
from .paths import default_exclusions, integrate_point, plan_path
from .weierstrass import (
    WeierstrassData,
    coordinate_forms,
    metric_scale,
    stereographic_normal,
)


@dataclass(frozen=True)
class DomainSpec:
    """Sampling window: radial range, resolutions, base point and the
    exclusion radius applied around every finite puncture (None picks
    0.05 x the distance to the nearest other singularity per puncture)."""

    r_min: float
    r_max: float
    n_r: int = 32
    n_theta: int = 64
    base_point: complex = 1.0 + 0j
    exclusion_radius: float | None = None

    def __post_init__(self):
        if not 0.0 < self.r_min < self.r_max < math.inf:
            raise ParameterDomainError(
                f"need finite 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]"
            )
        if self.n_r < 8 or self.n_theta < 8:
            raise ParameterDomainError("resolutions must be >= 8")
        radius = self.exclusion_radius
        if radius is not None and not 0.0 < radius < math.inf:
            raise ParameterDomainError(
                f"exclusion_radius must be positive and finite, got {radius}"
            )

    def refined(self, factor: int = 2) -> "DomainSpec":
        return DomainSpec(
            self.r_min,
            self.r_max,
            self.n_r * factor,
            self.n_theta * factor,
            self.base_point,
            self.exclusion_radius,
        )


@dataclass(frozen=True)
class SurfaceMesh:
    vertices: np.ndarray      # (n, 3) float
    normals: np.ndarray       # (n, 3) float, unit
    source_z: np.ndarray      # (n,) complex source parameter
    conformal: np.ndarray     # (n,) induced-metric scale
    faces: np.ndarray         # (m, 3) int vertex triples
    metadata: dict

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)


def exclusion_disks(data: WeierstrassData, spec: DomainSpec):
    if spec.exclusion_radius is None:
        return default_exclusions(data)
    return [
        (complex(p), spec.exclusion_radius)
        for p in data.punctures
        if not is_infinity(p)
    ]


def sample_mesh(data: WeierstrassData, spec: DomainSpec,
                metadata: dict | None = None) -> SurfaceMesh:
    """Integrate the immersion over the polar grid and triangulate it."""
    exclusions = exclusion_disks(data, spec)
    s = np.linspace(math.log(spec.r_min), math.log(spec.r_max), spec.n_r)
    theta = 2.0 * math.pi * np.arange(spec.n_theta) / spec.n_theta
    grid_z = np.exp(s[:, None] + 1j * theta[None, :])

    # nodes must also clear the inflated detour circles used for routing
    valid = np.ones(grid_z.shape, dtype=bool)
    for c, r in exclusions:
        valid &= np.abs(grid_z - c) > 1.2 * r

    base = complex(spec.base_point)
    if any(abs(base - c) <= r for c, r in exclusions):
        raise Unroutable(f"base point {base!r} lies inside an exclusion disk")

    X = np.full((spec.n_r, spec.n_theta, 3), np.nan)
    for j in range(spec.n_theta):
        prev_z, prev_x = base, np.zeros(3)
        for i in range(spec.n_r):
            if not valid[i, j]:
                continue
            z = complex(grid_z[i, j])
            path = plan_path(exclusions, prev_z, z)
            X[i, j] = prev_x + integrate_point(data, path)
            prev_z, prev_x = z, X[i, j]

    # vertex table in grid-major order (radial index outer)
    vid = -np.ones(grid_z.shape, dtype=np.int64)
    order = np.argwhere(valid)
    for n, (i, j) in enumerate(order):
        vid[i, j] = n
    src = grid_z[valid]
    verts = X[valid]

    g = data.gauss_map.eval_array(src)
    normals = np.stack(stereographic_normal(g), axis=1)
    conformal = metric_scale(g, data.dh.eval_array(src))

    faces = []
    for i in range(spec.n_r - 1):
        for j in range(spec.n_theta):
            j2 = (j + 1) % spec.n_theta
            v00, v01 = vid[i, j], vid[i, j2]
            v10, v11 = vid[i + 1, j], vid[i + 1, j2]
            if min(v00, v01, v10, v11) < 0:
                continue
            faces.append((v00, v01, v11))
            faces.append((v00, v11, v10))
    faces_arr = np.array(faces, dtype=np.int64).reshape(-1, 3)

    # drop zero-area faces
    if len(faces_arr):
        p0 = verts[faces_arr[:, 0]]
        cross = np.cross(verts[faces_arr[:, 1]] - p0, verts[faces_arr[:, 2]] - p0)
        faces_arr = faces_arr[np.linalg.norm(cross, axis=1) > 1e-30]

    meta = dict(metadata or {})
    meta["domain"] = {
        "r_min": spec.r_min,
        "r_max": spec.r_max,
        "n_r": spec.n_r,
        "n_theta": spec.n_theta,
        "base_point": {"re": base.real, "im": base.imag},
        "exclusion_radius": spec.exclusion_radius,
    }
    return SurfaceMesh(verts, normals, src, conformal, faces_arr, meta)


# -- discrete mean curvature ------------------------------------------


def interior_vertices(mesh: SurfaceMesh) -> np.ndarray:
    """Mask of vertices whose one-ring is complete (no boundary edge)."""
    edge_count: dict = {}
    for f in mesh.faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            key = (min(a, b), max(a, b))
            edge_count[key] = edge_count.get(key, 0) + 1
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    used = np.zeros(mesh.n_vertices, dtype=bool)
    boundary = np.zeros(mesh.n_vertices, dtype=bool)
    for (a, b), n in edge_count.items():
        used[a] = used[b] = True
        if n == 1:
            boundary[a] = boundary[b] = True
    mask[used & ~boundary] = True
    return mask


def estimate_mean_curvature(mesh: SurfaceMesh):
    """Per-vertex |H| via the cotangent-Laplacian mean-curvature vector,
    normalized by the mixed Voronoi area (Meyer's rule).  Returns
    (|H| array with NaN off the interior, interior mask)."""
    V, F = mesh.vertices, mesh.faces
    nv = len(V)
    p = [V[F[:, c]] for c in range(3)]

    cots = []
    angles = []
    for c in range(3):
        e1 = p[(c + 1) % 3] - p[c]
        e2 = p[(c + 2) % 3] - p[c]
        dot = np.einsum("ij,ij->i", e1, e2)
        crs = np.linalg.norm(np.cross(e1, e2), axis=1)
        angles.append(np.arctan2(crs, dot))
        with np.errstate(divide="ignore", invalid="ignore"):
            cots.append(dot / crs)
    angles = np.stack(angles)
    if np.any(angles > math.radians(179.0)):
        raise DegenerateTriangle("a face angle exceeds 179 degrees")

    area = 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]), axis=1)

    # Meyer mixed area: circumcentric pieces on non-obtuse faces, else
    # half the face area at the obtuse corner and a quarter elsewhere.
    A = np.zeros(nv)
    obtuse_any = np.any(angles > 0.5 * math.pi, axis=0)
    edge2 = [
        np.einsum("ij,ij->i", p[(c + 2) % 3] - p[(c + 1) % 3],
                  p[(c + 2) % 3] - p[(c + 1) % 3])
        for c in range(3)
    ]  # squared edge opposite corner c
    for c in range(3):
        idx = F[:, c]
        voronoi = 0.125 * (
            edge2[(c + 1) % 3] * cots[(c + 1) % 3]
            + edge2[(c + 2) % 3] * cots[(c + 2) % 3]
        )
        obtuse_here = angles[c] > 0.5 * math.pi
        contrib = np.where(
            obtuse_any,
            np.where(obtuse_here, 0.5 * area, 0.25 * area),
            voronoi,
        )
        np.add.at(A, idx, contrib)

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


# -- finite-difference diagnostics ------------------------------------


def fd_tangents(data: WeierstrassData, z: complex, h: float = 1e-3):
    """Tangents of X along the log-chart directions (s, theta) at z, by
    central differences of four short local integrations; independent of
    the sampler's spoke accumulation."""
    forms = coordinate_forms(data)

    def local(dz_target):
        from .paths import IntegrationPath, LineSegment, integrate_forms

        seg = IntegrationPath((LineSegment(z, dz_target),))
        return integrate_forms(forms, seg).real

    zs_p, zs_m = z * math.exp(h), z * math.exp(-h)
    zt_p, zt_m = z * complex(math.cos(h), math.sin(h)), z * complex(
        math.cos(h), -math.sin(h)
    )
    xu = (local(zs_p) - local(zs_m)) / (2.0 * h)
    xv = (local(zt_p) - local(zt_m)) / (2.0 * h)
    return xu, xv


# -- export -----------------------------------------------------------


def write_obj(mesh: SurfaceMesh, path: str):
    """Wavefront OBJ with per-vertex normals, 9 significant digits, LF."""
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}")
    for n in mesh.normals:
        lines.append(f"vn {n[0]:.9g} {n[1]:.9g} {n[2]:.9g}")
    for f in mesh.faces:
        a, b, c = int(f[0]) + 1, int(f[1]) + 1, int(f[2]) + 1
        lines.append(f"f {a}//{a} {b}//{b} {c}//{c}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_ply(mesh: SurfaceMesh, path: str):
    """Binary little-endian PLY with position, normal and conformal factor."""
    header = "\n".join(
        [
            "ply",
            "format binary_little_endian 1.0",
            f"element vertex {mesh.n_vertices}",
            "property float x",
            "property float y",
            "property float z",
            "property float nx",
            "property float ny",
            "property float nz",
            "property float conformal_factor",
            f"element face {mesh.n_faces}",
            "property list uchar int vertex_indices",
            "end_header",
            "",
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        vdata = np.hstack(
            [mesh.vertices, mesh.normals, mesh.conformal[:, None]]
        ).astype("<f4")
        fh.write(vdata.tobytes())
        for f in mesh.faces:
            fh.write(struct.pack("<Biii", 3, int(f[0]), int(f[1]), int(f[2])))


def write_metadata(mesh: SurfaceMesh, path: str):
    with open(path, "w", newline="\n") as fh:
        json.dump(mesh.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
