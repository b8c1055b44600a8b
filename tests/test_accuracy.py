"""The closed-form immersion against an independent high-precision path
integral (mpmath quadrature of the coordinate forms)."""

import math
import random

import mpmath
import numpy as np
import pytest

from spheremin.algebra import is_infinity
from spheremin.families import FAMILIES, construct
from spheremin.mesh import DomainSpec, sample_mesh

CASES = [
    ("catenoid", None, None),
    ("vase", 2, 0.5),
    ("vase", 8, 0.00621),
    ("double_vase", 6, 0.25),
    ("double_vase", 3, 0.0321),  # its spoke quadrature ran out of subdivisions
    # a double pole of dh/G at +-b lies 3.75e-10 from a double zero: the
    # contour about it must not shrink to that zero, where z**k - c cancels
    ("double_vase", 2, 0.001),
    # data spanning up to 10**62: the oracle's precision grows with it
    ("double_vase", 8, 0.005),
    ("double_vase", 12, 0.001),
    ("double_vase", 24, 0.00271),
    # the base point 1 lies 0.007 from the punctures b and 1/b: the export
    # meshes here are the most sensitive of the benchmark's to rounding
    # changes of the Laurent coefficients
    ("double_vase", 7, 0.99317),
    ("double_vase", 11, 0.99336),
]


def mp_value(f, z):
    """A FactoredMeromorphic evaluated in mpmath arithmetic."""
    acc = mpmath.mpc(f.coefficient)
    for fac in f.factors:
        base = z if fac.c == 0 else z ** fac.k - mpmath.mpc(fac.c)
        acc *= base ** fac.exponent
    return acc


def oracle_dps(data):
    """20 digits beyond the largest decimal exponent of a factor shift of
    G and dh: the coordinate forms add terms of that size."""
    shifts = [abs(fac.c) for f in (data.gauss_map, data.dh)
              for fac in f.factors if fac.c != 0]
    return 20 + math.ceil(max((abs(math.log10(c)) for c in shifts), default=0.0))


def mp_immersion(data, base, z, turn=None, near=None):
    """X(z) - X(base): the arc |w| = |base| from arg 0 to the angle `turn`,
    the ray at `turn` out to |z|, then the arc |w| = |z| on to arg z;
    `turn` is arg z unless given, and that last arc empty.  With `near`,
    the distance from the base point to its nearest puncture, the first arc
    is split at the angles near/4 * 2**j / |base| below `turn`, so that
    each piece is smooth on its own scale."""
    cache = {}  # the three components share their quadrature nodes

    def form(w, c):
        if w not in cache:
            g, dh = mp_value(data.gauss_map, w), mp_value(data.dh, w)
            cache[w] = (0.5 * (1 / g - g) * dh, 0.5j * (1 / g + g) * dh, dh)
        return cache[w][c]

    rb, r, th = abs(base), abs(z), mpmath.arg(z)
    turn = th if turn is None else mpmath.mpf(turn)
    first = [0]
    cut = mpmath.mpf(near or 0) / (4 * rb)
    while 0 < cut < turn:
        first.append(cut)
        cut *= 2
    first.append(turn)
    x = []
    for c in range(3):
        arc = mpmath.quad(lambda t: form(rb * mpmath.expj(t), c) * 1j * rb
                          * mpmath.expj(t), first)
        ray = mpmath.quad(lambda s: form(s * mpmath.expj(turn), c)
                          * mpmath.expj(turn), [rb, r])
        end = 0 if turn == th else mpmath.quad(
            lambda t: form(r * mpmath.expj(t), c) * 1j * r * mpmath.expj(t), [turn, th])
        x.append(float(mpmath.re(arc + ray + end)))
    return np.array(x)


def path_clearance(data, base, z, turn=None):
    """Distance from the path of `mp_immersion` to the finite punctures;
    with `turn`, from its ray and last arc only, the first arc being split
    about the base point's punctures."""
    rb, r, th = abs(base), abs(z), math.atan2(z.imag, z.real)
    t = np.linspace(0.0, 1.0, 200)
    ray = (rb + (r - rb) * t) * np.exp(1j * (th if turn is None else turn))
    if turn is None:
        path = np.concatenate([rb * np.exp(1j * th * t), ray])
    else:
        path = np.concatenate([ray, r * np.exp(1j * (turn + (th - turn) * t))])
    return min(np.min(np.abs(path - complex(p)))
               for p in data.punctures if not is_infinity(p))


@pytest.mark.parametrize("family, k, value", CASES)
def test_closed_form_matches_mpmath_path_integral(family, k, value):
    spec = FAMILIES[family]
    inst = construct(spec, k, value)
    base = spec.base_point(inst.params)
    mesh = sample_mesh(inst.data, DomainSpec(spec.r_min, spec.r_max, 16, 32,
                                             base_point=base))
    extent = np.max(np.ptp(mesh.vertices, axis=0))
    # a base point within 0.1 of a puncture: the path turns off its first
    # arc midway between the punctures at arg 0 and 2 pi / k
    near = min(abs(base - complex(p)) for p in inst.data.punctures if not is_infinity(p))
    turn = None if near > 0.1 else math.pi / k
    rng = random.Random(2016)
    order = rng.sample(range(mesh.n_vertices), mesh.n_vertices)
    nodes = [i for i in order
             if path_clearance(inst.data, base, complex(mesh.source_z[i]), turn) > 0.1][:3]
    assert len(nodes) == 3
    for i in nodes:
        with mpmath.workdps(oracle_dps(inst.data)):
            want = mp_immersion(inst.data, base, complex(mesh.source_z[i]), turn,
                                near if turn is not None else None)
        assert np.max(np.abs(mesh.vertices[i] - want)) <= 1e-12 * extent
