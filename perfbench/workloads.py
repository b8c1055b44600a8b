"""Workloads of the spheremin benchmark.

A workload is a list of items (one pass) generated from the seed.  Each
item goes through a public entry point only: ``spheremin.cli.main`` for
exports, ``spheremin.make_vase`` / ``spheremin.make_double_vase`` for the
constructor gate.  The program sees nothing but the generated arguments.

Parameters are stratified: every (family, k) cell and every parameter bin
(or window) is fixed by the workload, and the seed only places each point
inside it.  The work in a pass therefore changes little from seed to seed,
while the points still cover the whole domain, edges included.  The known
defects (the double vase solved on the wrong branch for b >= 0.9, no root
found for b >= 0.99, the sampler's subdivision budget exhausted at small
b) are inside the bins on purpose and show up as failures.

Only the standard library is imported at module level, so that importing
spheremin (and numpy with it) is part of the measured set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass

# Failure types.  An operation failure is the program declining an item
# (non-zero exit code, an exception) or solving the period equation on
# the wrong branch.  A wrong output is a result that breaks a guarantee the
# program makes for every input it accepts; any of those makes the run
# incorrect.
MISMATCH = "mismatch"
NONDETERMINISTIC = "nondeterministic"
CATENOID_IDENTITY = "catenoid_identity"
VERTEX_ORACLE = "vertex_oracle"
TRACE_DIFFERS = "trace_differs"
CHECK_ERROR = "check_error"
WRONG_OUTPUT = {
    NONDETERMINISTIC, CATENOID_IDENTITY, VERTEX_ORACLE, TRACE_DIFFERS,
}



def is_wrong_output(failure: str) -> bool:
    return failure in WRONG_OUTPUT or failure.startswith(CHECK_ERROR)


RADICAL_RTOL = 1e-8          # solved parameter vs printed radical
CATENOID_TOL = 1e-6          # acceptance criterion 6
ORACLE_RTOL = 1e-6           # sampled vertex vs direct integration
ORACLE_NODES = {"export_fine": 8, "export_sweep": 4}


@dataclass(frozen=True)
class Item:
    kind: str                  # "export" or "gate"
    family: str                # "catenoid", "vase" or "double_vase"
    k: int | None = None
    param: float | None = None  # a for the vase, b for the double vase
    fmt: str = "obj"
    n_r: int = 0
    n_theta: int = 0


# -- item lists -------------------------------------------------------

def _bins(edges):
    return list(zip(edges, edges[1:]))


# Gate: 3 of 6 a-bins per k for the vase, 2 of 8 b-bins per k for the
# double vase, rotated with k so that every bin is used equally often.
GATE_KS = range(2, 25)
GATE_VASE_BINS = _bins([0.001, 0.167, 0.333, 0.5, 0.667, 0.833, 0.999])
GATE_DV_BINS = _bins([0.001, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 0.99, 0.995])

# Sweep: one point per (family, k) cell, k = 2..12, each in a fixed narrow
# window.  Export cost and outcome jump with the parameter: a double vase
# with k <= 5 and b in about [0.005, 0.06) exhausts the sampler's
# subdivision budget after 2-2.5 s where its neighbours take 0.3 s, and
# b >= 0.99 is rejected at once.  In wide bins, whether a seed drew such a
# point would move the work of a pass by up to 30%; inside a window every
# point of a cell behaves alike.  Together the windows span both domains,
# their edges and each of those defects.
SWEEP_KS = range(2, 13)
SWEEP_RES = (16, 32)
SWEEP_VASE_WINDOWS = {
    2: (0.496, 0.504), 3: (0.991, 0.999), 4: (0.096, 0.104),
    5: (0.596, 0.604), 6: (0.196, 0.204), 7: (0.896, 0.904),
    8: (0.001, 0.009), 9: (0.696, 0.704), 10: (0.296, 0.304),
    11: (0.796, 0.804), 12: (0.396, 0.404),
}
SWEEP_DV_WINDOWS = {
    2: (0.916, 0.924), 3: (0.026, 0.034), 4: (0.146, 0.154),
    5: (0.946, 0.954), 6: (0.296, 0.304), 7: (0.99, 0.995),
    8: (0.001, 0.009), 9: (0.596, 0.604), 10: (0.446, 0.454),
    11: (0.99, 0.995), 12: (0.746, 0.754),
}

FINE_RES = (64, 128)
SWEEP_WARMUP = Item("export", "catenoid", fmt="obj", n_r=SWEEP_RES[0],
                    n_theta=SWEEP_RES[1])


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 5)


def export_fine(seed: int, smoke: bool = False):
    n_r, n_theta = SWEEP_RES if smoke else FINE_RES
    items = [
        Item("export", "catenoid", fmt="obj", n_r=n_r, n_theta=n_theta),
        Item("export", "vase", 2, 0.5, "obj", n_r, n_theta),
        Item("export", "double_vase", 6, 0.25, "ply", n_r, n_theta),
    ]
    random.Random(seed).shuffle(items)
    return items


def export_sweep(seed: int, smoke: bool = False):
    rng = random.Random(seed)
    n_r, n_theta = SWEEP_RES
    items = [Item("export", "catenoid", fmt="obj", n_r=n_r, n_theta=n_theta)]
    for k in SWEEP_KS:
        lo, hi = SWEEP_VASE_WINDOWS[k]
        fmt = "obj" if k % 2 == 0 else "ply"
        items.append(Item("export", "vase", k, _draw(rng, lo, hi), fmt,
                          n_r, n_theta))
    for k in SWEEP_KS:
        lo, hi = SWEEP_DV_WINDOWS[k]
        fmt = "ply" if k % 2 == 0 else "obj"
        items.append(Item("export", "double_vase", k, _draw(rng, lo, hi),
                          fmt, n_r, n_theta))
    rng.shuffle(items)
    return items[:4] if smoke else items


def gate_sweep(seed: int, smoke: bool = False):
    rng = random.Random(seed)
    items = []
    for k in GATE_KS:
        for j in range(3):
            lo, hi = GATE_VASE_BINS[(k + 2 * j) % len(GATE_VASE_BINS)]
            items.append(Item("gate", "vase", k, _draw(rng, lo, hi)))
        for j in range(2):
            lo, hi = GATE_DV_BINS[(k + 4 * j) % len(GATE_DV_BINS)]
            items.append(Item("gate", "double_vase", k, _draw(rng, lo, hi)))
    rng.shuffle(items)
    return items[:6] if smoke else items


@dataclass(frozen=True)
class Workload:
    name: str
    items: object        # (seed, smoke) -> list[Item]
    warmup: Item         # the untimed item that ends set-up
    passes: int          # least passes per end-to-end run


# Least passes per run.  The host's speed drifts during a 2 s export in a
# way the reference cannot fully follow, so export_fine, with 3 items per
# pass, needs the most.  gate_sweep needs no repeats for its checks, but
# over ten seeds one pass (about 10 s) spread 6% between runs, two 2-5%.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("export_fine", export_fine, SWEEP_WARMUP, 7),
        Workload("export_sweep", export_sweep, SWEEP_WARMUP, 3),
        Workload("gate_sweep", gate_sweep, Item("gate", "vase", 2, 0.5), 2),
    )
}


# -- running one item -------------------------------------------------

@dataclass
class Outcome:
    seconds: float
    failures: list          # failure types, empty when the item passed
    digest: str = ""        # identity of the outputs, set by the caller
    instance: object = None
    out_path: str = ""


def _export_argv(item: Item, out_path: str):
    argv = ["export", "--family", item.family]
    if item.k is not None:
        flag = "--a" if item.family == "vase" else "--b"
        argv += ["--k", str(item.k), flag, repr(item.param)]
    return argv + [
        "--format", item.fmt, "--nr", str(item.n_r),
        "--ntheta", str(item.n_theta), "--out", out_path,
    ]


def run_item(item: Item, out_path: str) -> Outcome:
    """Run one item through the public entry point; only the call itself
    is timed."""
    import spheremin
    import spheremin.cli

    if item.kind == "export":
        argv = _export_argv(item, out_path)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = spheremin.cli.main(argv)
            except Exception as exc:  # a crash is recorded, not fatal
                t1 = time.perf_counter()
                return Outcome(t1 - t0, [f"raised_{type(exc).__name__}"])
            t1 = time.perf_counter()
        failures = [] if code == 0 else [f"exit_{code}"]
        return Outcome(t1 - t0, failures, out_path=out_path)

    make = (spheremin.make_vase if item.family == "vase"
            else spheremin.make_double_vase)
    t0 = time.perf_counter()
    try:
        inst = make(item.k, item.param)
    except Exception as exc:  # NoRoot and friends are item failures
        t1 = time.perf_counter()
        return Outcome(t1 - t0, [type(exc).__name__])
    t1 = time.perf_counter()
    return Outcome(t1 - t0, [], instance=inst)


# -- checks (never inside the timed region) ----------------------------

def vase_radical(k: int, a: float) -> float:
    """Printed closed form of the vase scale rho."""
    ak = a ** k
    return math.sqrt((k + 1.0) / ((1.0 - ak) * (k * ak + k - ak + 1.0)))


def double_vase_radical(k: int, b: float) -> float:
    """Printed closed form of the double-vase neck parameter a (NaN when
    its radicand is not positive)."""
    root = math.sqrt(
        k ** 2
        + b ** 2 * (1.0 - b ** (2 * k)) ** 2 * (2.0 * k + 1.0)
        + k ** 2 * b ** 2 * (1.0 + b ** (4 * k) + b ** (2 + 4 * k))
    )
    num = (-1.0 - b ** (2 + 4 * k)
           + (b ** (2 * k) + b ** (2 + 2 * k)) * (2.0 * k + 1.0)
           + (1.0 - b ** (2 * k)) * root)
    den = b ** k * (k - 1.0 + b ** (2 + 2 * k) * (k - 1.0)
                    + (b ** 2 + b ** (2 * k)) * (k + 1.0))
    ratio = num / den
    return ratio ** (1.0 / k) if ratio > 0 else math.nan


def solved_parameter(item: Item, instance) -> float:
    """The parameter a constructor solved: rho (vase) or a (double vase)."""
    return instance.params.rho if item.family == "vase" else instance.params.a


def _radical_ok(item: Item, solved: float) -> bool:
    if item.family == "vase":
        expected = vase_radical(item.k, item.param)
    else:
        expected = double_vase_radical(item.k, item.param)
    return abs(solved - expected) <= RADICAL_RTOL * abs(expected)


def _read_vertices(path: str, fmt: str):
    import numpy as np

    if fmt == "obj":
        with open(path) as fh:
            rows = [ln.split()[1:4] for ln in fh if ln.startswith("v ")]
        return np.array(rows, dtype=float).reshape(-1, 3)
    with open(path, "rb") as fh:
        blob = fh.read()
    end = blob.index(b"end_header\n") + len(b"end_header\n")
    header = blob[:end].decode("ascii").splitlines()
    n_vert, n_prop, in_vertex = 0, 0, False
    for line in header:
        words = line.split()
        if words[:2] == ["element", "vertex"]:
            n_vert, in_vertex = int(words[2]), True
        elif words[:1] == ["element"]:
            in_vertex = False
        elif in_vertex and words[:2] == ["property", "float"]:
            n_prop += 1
    table = np.frombuffer(blob, dtype="<f4", count=n_vert * n_prop,
                          offset=end).reshape(n_vert, n_prop)
    return table[:, :3].astype(float)


def _complex(p) -> complex:
    return complex(p["re"], p["im"])


def _catenoid_residual(vertices, base: complex) -> float:
    """Criterion 6: with G = z, dh = dz/z and X(base) = 0, the surface is
    the catenoid x1^2 + x2^2 = cosh(x3)^2 translated by -F(base)."""
    import numpy as np

    inv = 1.0 / base
    shift = np.array([
        (-0.5 * (inv + base)).real,
        (0.5j * (base - inv)).real,
        math.log(abs(base)),
    ])
    x = vertices + shift
    res = x[:, 0] ** 2 + x[:, 1] ** 2 - np.cosh(x[:, 2]) ** 2
    return float(np.max(np.abs(res)))


def _instance(item: Item):
    import spheremin

    if item.family == "catenoid":
        return spheremin.make_catenoid_fixture()
    if item.family == "vase":
        return spheremin.make_vase(item.k, item.param)
    return spheremin.make_double_vase(item.k, item.param)


def _oracle_ok(item: Item, vertices, sidecar: dict, rng: random.Random,
               n_nodes: int) -> bool:
    """Integrate directly from the base point to seeded grid nodes with
    plan_path + integrate_point and compare with the sampled vertices.

    Nodes are kept well clear of every puncture, so the sampler cannot
    have dropped them; the vertex of grid node (i, j) then lies within
    the n_invalid positions before index i * n_theta + j.
    """
    import numpy as np
    import spheremin

    dom = sidecar["domain"]
    base = _complex(dom["base_point"])
    n_r, n_theta = dom["n_r"], dom["n_theta"]
    punct = [_complex(p) for p in sidecar["family"]["punctures"] if p != "inf"]
    exclusions, clear = [], []
    for p in punct:
        others = [abs(p - q) for q in punct if q != p]
        d = min(others) if others else 1.0
        exclusions.append((p, min(0.05 * d, 0.5 * abs(base - p))))
        clear.append((p, 0.1 * d))
    s = np.linspace(math.log(dom["r_min"]), math.log(dom["r_max"]), n_r)
    nodes = [
        (i, j) for i in range(n_r) for j in range(n_theta)
        if all(abs(complex(np.exp(s[i] + 2j * math.pi * j / n_theta)) - p) > r
               for p, r in clear)
    ]
    n_invalid = n_r * n_theta - len(vertices)
    data = _instance(item).data
    for i, j in rng.sample(nodes, min(n_nodes, len(nodes))):
        z = complex(np.exp(s[i] + 1j * (2.0 * math.pi * j / n_theta)))
        path = spheremin.plan_path(exclusions, base, z)
        x = np.asarray(spheremin.integrate_point(data, path), dtype=float)
        flat = i * n_theta + j
        window = vertices[max(0, flat - n_invalid):flat + 1]
        err = np.min(np.linalg.norm(window - x, axis=1)) if len(window) else np.inf
        if not err <= ORACLE_RTOL * max(1.0, float(np.linalg.norm(x))):
            return False
    return True


def digest_files(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Checker:
    """Checks each outcome outside the timed region and remembers, per
    item, the first outputs seen, so that repeats must match them byte
    for byte."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(seed + 1)
        self.first: dict = {}      # item -> (digest, vertices, failures)

    def check(self, item: Item, out: Outcome) -> int:
        """Fills out.failures / out.digest; returns the vertex count."""
        if out.failures:
            return 0
        try:
            if item.kind == "gate":
                return self._check_gate(item, out)
            return self._check_export(item, out)
        except Exception as exc:  # a check that cannot run is a defect
            out.failures.append(f"{CHECK_ERROR}_{type(exc).__name__}")
            return 0

    def _check_gate(self, item: Item, out: Outcome) -> int:
        if not _radical_ok(item, solved_parameter(item, out.instance)):
            out.failures.append(MISMATCH)
        return 0

    def _check_export(self, item: Item, out: Outcome) -> int:
        sidecar_path = out.out_path + ".json"
        if item in self.first:
            digest, n_vert, failures = self.first[item]
            out.failures.extend(failures)
            if out.digest != digest:
                out.failures.append(NONDETERMINISTIC)
            return n_vert
        with open(sidecar_path) as fh:
            sidecar = json.load(fh)
        family = sidecar["family"]
        if item.family == "vase" and not _radical_ok(item, family["rho"]):
            out.failures.append(MISMATCH)
        if item.family == "double_vase" and not _radical_ok(item, family["a"]):
            out.failures.append(MISMATCH)
        vertices = _read_vertices(out.out_path, item.fmt)
        if item.family == "catenoid":
            base = _complex(sidecar["domain"]["base_point"])
            if not _catenoid_residual(vertices, base) < CATENOID_TOL:
                out.failures.append(CATENOID_IDENTITY)
        if not _oracle_ok(item, vertices, sidecar, self.rng,
                          ORACLE_NODES[self.workload]):
            out.failures.append(VERTEX_ORACLE)
        self.first[item] = (out.digest, len(vertices), list(out.failures))
        return len(vertices)


def out_path(workdir: str, index, item: Item) -> str:
    return os.path.join(workdir, f"mesh_{index}.{item.fmt}")
