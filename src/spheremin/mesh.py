"""Surface sampling, discrete curvature diagnostics and mesh export.

The domain is a polar annulus in the log chart z = exp(s + i*theta)
minus the puncture exclusion disks.  X is evaluated at the grid nodes
from its closed form (`weierstrass.Immersion`): no path is planned and
no quadrature runs.  Vertex ids, faces and edge counts are array
operations.  A face-geometry pass (one gather of the corners, three
edges and one cross product per face) runs over all faces for the
zero-area drop, and over the faces kept for the cotangent curvature.
The immersion and the drop walk their nodes or faces in `kernels.BLOCK`
slices into whole-mesh arrays; the curvature sums each slice face by
face into per-vertex sums, with no per-face array.  The OBJ writer
formats bytes: `%.9g` `v` and `vn` lines, then `f a//a b//b c//c` lines
with 1-based ids, one formatted token per vertex reused by every face
around it; PLY is binary little-endian.
Output meshes are deterministic for a fixed spec, and identical meshes
give identical bytes.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .algebra import nearest_other
from .errors import DegenerateTriangle, ParameterDomainError
from .kernels import BLOCK
from .weierstrass import (
    Immersion,
    WeierstrassData,
    metric_scale,
    stereographic_normal,
)

# a face is dropped as zero-area when twice its area <= ZERO_AREA * extent**2
ZERO_AREA = 1e-12
# a face angle above 179 degrees, one whose |cross| < TAN_1_DEG |dot| with
# dot < 0, is refused by the curvature estimate
TAN_1_DEG = math.tan(math.radians(1.0))
# the most grid nodes n_r * n_theta: an export holds about 300 B a node
MAX_NODES = 2 ** 21
# an exclusion disk's radius, as a fraction of the distance from its
# puncture to the nearest other singularity or puncture
EXCLUSION_SCALE = 0.05


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
        if self.n_r * self.n_theta > MAX_NODES:
            raise ParameterDomainError(
                f"n_r * n_theta must be at most {MAX_NODES}, got {self.n_r} x {self.n_theta}")
        radius = self.exclusion_radius
        if radius is not None and not 0.0 < radius < math.inf:
            raise ParameterDomainError(
                f"exclusion_radius must be positive and finite, got {radius}"
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


def default_exclusions(data: WeierstrassData):
    """Exclusion disks: around each puncture, EXCLUSION_SCALE times the
    distance to its nearest other singularity or puncture."""
    finite = data._finite_punctures.tolist()
    dist = nearest_other(finite, data.finite_singularities() + finite)
    return [(p, EXCLUSION_SCALE * d if d < math.inf else EXCLUSION_SCALE)
            for p, d in zip(finite, dist.tolist())]


def exclusion_disks(data: WeierstrassData, spec: DomainSpec):
    if spec.exclusion_radius is None:
        return default_exclusions(data)
    return [(p, spec.exclusion_radius) for p in data._finite_punctures.tolist()]


def _face_geometry(vertices, faces):
    """Edge vectors and twice the area of every face, from one gather of
    the corners over the vertex columns.

    Returns (E, twice_area).  E has shape (3, 3, m): E[c] holds the x, y
    and z rows of the edge opposite corner c, from corner c+1 to corner
    c+2, so that E[0] + E[1] + E[2] = 0 up to rounding and the edges
    leaving corner c are E[c+2] and -E[c+1].  twice_area is |E[1] x E[2]|,
    the cross product written out by component."""
    p = np.take(np.transpose(vertices), np.transpose(faces), axis=1)
    E = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]])
    (x1, y1, z1), (x2, y2, z2) = E[1], E[2]
    cx = y1 * z2 - z1 * y2
    cy = z1 * x2 - x1 * z2
    cz = x1 * y2 - y1 * x2
    return E, np.sqrt(cx * cx + cy * cy + cz * cz)


def _nonzero_area(vertices, faces):
    """Mask of the faces whose twice area exceeds ZERO_AREA * extent**2 (inf
    past extent 1.3e154), extent the bounding box's longest side taken column
    by column (np.ptp over axis 0 is up to 10x slower); BLOCK faces at a time."""
    keep = np.empty(len(faces), dtype=bool)
    with np.errstate(over="ignore"):
        bound = ZERO_AREA * max(x.max() - x.min() for x in np.transpose(vertices)) ** 2
        for start in range(0, len(faces), BLOCK):
            _, twice_area = _face_geometry(vertices, faces[start:start + BLOCK])
            keep[start:start + BLOCK] = twice_area > bound
    return keep


def sample_mesh(data: WeierstrassData, spec: DomainSpec,
                metadata: dict | None = None) -> SurfaceMesh:
    """Evaluate the immersion over the polar grid and triangulate it; a
    base point inside an exclusion disk, or a window that leaves no face
    or gives a value that is not finite, raises ParameterDomainError."""
    exclusions = exclusion_disks(data, spec)
    s = np.linspace(math.log(spec.r_min), math.log(spec.r_max), spec.n_r)
    theta = 2.0 * math.pi * np.arange(spec.n_theta) / spec.n_theta
    grid_z = np.exp(s[:, None] + 1j * theta[None, :])

    # nodes keep clear of 1.2x each exclusion disk, so that the path
    # oracle (`paths.plan_path`, detours at 1.1x) reaches every vertex
    valid = np.ones(grid_z.shape, dtype=bool)
    for c, r in exclusions:
        valid &= np.abs(grid_z - c) > 1.2 * r

    base = complex(spec.base_point)
    if any(abs(base - c) <= r for c, r in exclusions):
        raise ParameterDomainError(
            f"base point {base!r} lies inside an exclusion disk"
        )

    # vertex table in grid-major order (radial index outer)
    vid = np.full(grid_z.shape, -1, dtype=np.int64)
    vid[valid] = np.arange(np.count_nonzero(valid))

    # two triangles per cell (i, j)-(i+1, j+1), the angle wrapping round
    nxt = np.roll(vid, -1, axis=1)
    v00, v01, v10, v11 = vid[:-1], nxt[:-1], vid[1:], nxt[1:]
    cells = np.stack([v00, v01, v11, v00, v11, v10], axis=-1)
    faces_arr = cells[(cells >= 0).all(axis=-1)].reshape(-1, 3)
    if not len(faces_arr):
        raise ParameterDomainError(
            "the sampling window leaves no face outside the exclusion disks"
        )

    src = grid_z[valid]
    immersion = Immersion(data, base)
    verts = immersion(src)
    # |G|^2 overflows on a window too wide for doubles: refused below, not warned
    with np.errstate(all="ignore"):
        g = data.gauss_map.eval_array(src)
        normals = np.stack(stereographic_normal(g), axis=1)
        conformal = metric_scale(g, data.dh.eval_array(src))
    window = f"the window [r_min, r_max] = [{spec.r_min}, {spec.r_max}]"
    if not all(np.isfinite(x).all() for x in (verts, normals, conformal)):
        raise ParameterDomainError(f"{window} gives a vertex, normal or conformal factor"
                                   " that is not finite")

    # drop zero-area faces, relative to the size of the surface
    faces_arr = faces_arr[_nonzero_area(verts, faces_arr)]
    if not len(faces_arr):
        raise ParameterDomainError(f"{window} leaves no face of nonzero area")

    meta = dict(metadata or {})
    meta["domain"] = {
        "r_min": spec.r_min,
        "r_max": spec.r_max,
        "n_r": spec.n_r,
        "n_theta": spec.n_theta,
        "base_point": {"re": base.real, "im": base.imag},
        "exclusion_radius": spec.exclusion_radius,
    }
    # the largest |Im(_COMBINATION @ (Res u, Res v, Res w))| over the finite
    # punctures: 1/(2 pi) times the largest translation of X around one
    meta["max_dropped_log_imag"] = immersion.dropped_imag
    return SurfaceMesh(verts, normals, src, conformal, faces_arr, meta)


# -- discrete mean curvature ------------------------------------------


def interior_vertices(mesh: SurfaceMesh) -> np.ndarray:
    """Mask of vertices whose one-ring is complete (no boundary edge)."""
    n = mesh.n_vertices
    F = np.asarray(mesh.faces, dtype=np.int64).reshape(-1, 3)
    a, b = F.ravel(), F[:, [1, 2, 0]].ravel()
    keys = np.minimum(a, b) * n + np.maximum(a, b)
    keys.sort()  # the key of an edge of one face then differs from both neighbours
    differs = np.concatenate(([True], keys[1:] != keys[:-1], [True]))
    used = np.zeros(n, dtype=bool)
    boundary = np.zeros(n, dtype=bool)
    used[a] = True
    edge = keys[differs[:-1] & differs[1:]]
    boundary[edge // n] = boundary[edge % n] = True
    return used & ~boundary


def estimate_mean_curvature(mesh: SurfaceMesh):
    """Per-vertex |H| via the cotangent-Laplacian mean-curvature vector,
    normalized by the mixed Voronoi area (Meyer, Desbrun, Schroeder and
    Barr, 2003).  Its own face-geometry pass over the faces `sample_mesh`
    kept, one `kernels.BLOCK` of faces at a time, gives each face's edges
    and cross product; each corner's cotangent, obtuse test and the 179
    degree refusal (DegenerateTriangle) come from those, without angles.
    Each block's terms go into per-vertex sums face by face, so H does not
    depend on the block size and no array has a row per face beyond one block.
    Returns (|H| array with NaN off the interior, interior mask)."""
    V, F = mesh.vertices, mesh.faces
    interior = interior_vertices(mesh)  # first, while no face block is held
    A, S = np.zeros(len(V)), np.zeros((3, len(V)))
    # a face without area has 0/0 cotangents, NaN in every product below
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, len(F), BLOCK):
            faces = F[start:start + BLOCK]
            E, twice_area = _face_geometry(V, faces)
            # corner c sees the edges E[c+2] = E[c-1] and -E[c+1] = -E[c-2]: the
            # sign of their dot product tells an obtuse corner, and dot / |cross|
            # is its cotangent; per corner, so no (3, 3, block) product is held
            dot = -np.array([(E[c - 2] * E[c - 1]).sum(axis=0) for c in range(3)])
            obtuse = dot < 0
            if np.any(obtuse & (twice_area < TAN_1_DEG * -dot)):
                raise DegenerateTriangle("a face angle exceeds 179 degrees")
            cots = dot / twice_area
            area = 0.5 * twice_area
            # Meyer mixed area: circumcentric pieces on non-obtuse faces, else
            # half the face area at the obtuse corner and a quarter elsewhere
            edge2_cot = np.sum(E * E, axis=1) * cots  # |E[c]|^2 cot c
            contrib = np.where(
                obtuse.any(axis=0),
                np.where(obtuse, 0.5 * area, 0.25 * area),
                0.125 * (edge2_cot[[1, 2, 0]] + edge2_cot[[2, 0, 1]]),
            )
            # np.add.at sums in input order: face by face, corners in order
            np.add.at(A, faces.ravel(), contrib.T.ravel())
            # cotangent Laplacian: the edge E[c], from i1 = F[:, c+1] to
            # i2 = F[:, c+2], adds -cot(c) E[c] at i1 and cot(c) E[c] at i2;
            # a face's six terms in that order, one coordinate j at a time
            index, w = faces[:, [1, 2, 2, 0, 0, 1]].ravel(), np.empty((len(faces), 3, 2))
            for j in range(3):
                np.multiply(cots.T, E[:, j].T, out=w[:, :, 1])
                np.negative(w[:, :, 1], out=w[:, :, 0])
                np.add.at(S[j], index, w.ravel())
        K = S[:, interior] / (2.0 * A[interior])

    H = np.full(len(V), np.nan)
    H[interior] = 0.5 * np.linalg.norm(K, axis=0)
    return H, interior


# -- export -----------------------------------------------------------


@contextlib.contextmanager
def open_output(path, mode="wb", **kwargs):
    """`open(path, mode, **kwargs)` on a new file.  A regular file with this
    user's owner and group, that it may write, is unlinked first and its
    mode kept: readers and hard links keep the old bytes, and ext4 skips its
    flush on closing a file truncated to 0.  Other paths open as `open`
    opens them.  A failed write removes a file created here."""
    old, created = None, False
    with contextlib.suppress(OSError):  # `open` then truncates or reports
        old = os.lstat(path)
        if (stat.S_ISREG(old.st_mode) and os.access(path, os.W_OK)
                and (old.st_uid, old.st_gid) == (os.geteuid(), os.getegid())):
            os.unlink(path)
            created = True
    try:
        with open(path, mode, **kwargs) as fh:
            if created:  # the group a setgid directory gives is reset too
                os.fchown(fh.fileno(), -1, old.st_gid)
                os.fchmod(fh.fileno(), stat.S_IMODE(old.st_mode))
            yield fh
    except BaseException:
        if created or old is None:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def write_obj(mesh: SurfaceMesh, path: str):
    """Wavefront OBJ, LF-terminated: one `v x y z` line per vertex, then
    one `vn x y z` line per normal, all at `%.9g`, then one
    `f a//a b//b c//c` line per face with 1-based ids.  The lines are
    formatted as bytes and written in binary mode, so no text encoding
    runs.  Each vertex's `i//i` token is formatted once and the face
    lines reuse it, so a vertex shared by six faces costs one format, not
    twelve.  The three blocks are written one after the other, never
    joined; a mesh with no vertex and no face is one empty line.
    Identical meshes give identical bytes; `open_output` replaces the path."""
    tokens = np.array([b"%d//%d" % (i, i) for i in range(1, mesh.n_vertices + 1)],
                      dtype=object)
    with open_output(path) as fh:
        if not (mesh.n_vertices or mesh.n_faces):
            fh.write(b"\n")
        fh.write(b"v %.9g %.9g %.9g\n" * mesh.n_vertices
                 % tuple(np.ravel(mesh.vertices).tolist()))
        fh.write(b"vn %.9g %.9g %.9g\n" * len(mesh.normals)
                 % tuple(np.ravel(mesh.normals).tolist()))
        fh.write(b"f %s %s %s\n" * mesh.n_faces
                 % tuple(tokens[np.ravel(mesh.faces)].tolist()))


def write_ply(mesh: SurfaceMesh, path: str):
    """Binary little-endian PLY with position, normal and conformal factor;
    a vertex table beyond float32 raises ParameterDomainError, writing nothing.
    `open_output` replaces the path."""
    with np.errstate(over="ignore"):
        vdata = np.hstack([mesh.vertices, mesh.normals, mesh.conformal[:, None]]).astype("<f4")
    if not np.isfinite(vdata).all():
        raise ParameterDomainError("the vertex table does not fit float32")
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
    with open_output(path) as fh:
        fh.write(header.encode("ascii"))
        fh.write(vdata.tobytes())
        fdata = np.zeros(mesh.n_faces, dtype=[("n", "u1"), ("v", "<i4", 3)])
        fdata["n"] = 3
        fdata["v"] = np.reshape(mesh.faces, (-1, 3))
        fh.write(fdata.tobytes())


def write_metadata(mesh: SurfaceMesh, path: str):
    """The mesh's metadata as sorted, indented JSON; `open_output` replaces the path."""
    text = json.dumps(mesh.metadata, indent=2, sort_keys=True) + "\n"
    with open_output(path) as fh:
        fh.write(text.encode())
