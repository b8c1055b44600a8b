"""The factored-product kernel: node blocks and accuracy."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from spheremin import kernels
from spheremin.families import FAMILIES

from kernel_reference import power_loop_eval, squaring_eval
from oracles import contour_radius, root_entries
from test_accuracy import mp_value

BLOCK = kernels.BLOCK


def _form():
    """dh/G of double_vase(24, 0.5): powers z**24, z**-2 and (z**24 - c)**-2."""
    data, _, _ = FAMILIES["double_vase"].build_data(24, 0.5)
    return data.factored_forms()[0]


def _nodes(n):
    rng = np.random.default_rng(n)
    return 0.2 + 1.6 * rng.random(n) * np.exp(2j * np.pi * rng.random(n))


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_blocks_give_the_bits_of_each_chunk_alone(n):
    f, z = _form(), _nodes(n)
    got = f.eval_array(z)
    chunks = [f.eval_array(z[i:i + BLOCK]) for i in range(0, n, BLOCK)]
    assert got.tolist() == np.concatenate(chunks).tolist()
    assert got.tolist() == squaring_eval(f, z).tolist()


def test_temporaries_stay_within_a_few_blocks():
    f, z = _form(), _nodes(10 ** 5)
    f.eval_array(z[:10])  # nothing left to build lazily
    tracemalloc.start()
    try:
        out = f.eval_array(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole-array temporary alone would add z.nbytes = 100 blocks' worth
    assert peak < out.nbytes + 16 * BLOCK * z.itemsize


# double_vase(7, 0.99114) has the largest vertex moves of the benchmark's
# items under this kernel; (32, 0.001) spans values up to 1e96
ACCURACY_CASES = [
    ("double_vase", 7, 0.99114),
    ("double_vase", 32, 0.001),
    ("double_vase", 24, 0.5),
    ("double_vase", 2, 0.999),
    ("vase", 24, 0.5),
    ("vase", 16, 0.1),
]
SAMPLE = 1500
# the sampling noise of a median or 99th percentile over SAMPLE nodes; at
# double_vase(2, 0.999), where no power exceeds 4, the two rules tie
QUANTILE_SLACK = 0.02


def _circle_evaluations(family, k, x):
    """(form, nodes, kernel values) on the circles a residue contour once
    evaluated, near the poles: 128 nodes on the `contour_radius` circle
    about each finite puncture, for u, v and w at once, and 128 on v's
    circle of twice its largest root (u and w have degree below -2)."""
    spec = FAMILIES[family]
    data, _, _ = spec.build_data(k, x, spec.solve(k, x).value)
    ring = np.exp(2j * np.pi * np.arange(128) / 128)
    u, v, w = data.factored_forms()
    calls = []
    for f in (u, v, w):
        centres = data._finite_punctures
        at = root_entries(f)
        points, orders = f._table.points[at].tolist(), f._orders[at].tolist()
        radii = np.array([contour_radius(p, points, orders) for p in centres.tolist()])
        nodes = (centres[:, None] + radii[:, None] * ring).ravel()
        calls.append((f, nodes, f.eval_array(nodes)))
    nodes = 2.0 * max(0.5, float(np.abs(v._table.points[root_entries(v)]).max())) * ring
    calls.append((v, nodes, v.eval_array(nodes)))
    return calls


@pytest.mark.parametrize("family, k, x", ACCURACY_CASES)
def test_squaring_is_as_accurate_as_numpy_power(family, k, x):
    """Relative errors against mpmath at 60 digits, at a seeded sample of
    nodes near the poles: the kernel's median and 99th percentile are no
    larger than those of the numpy `power` loop it replaced."""
    calls = _circle_evaluations(family, k, x)
    assert len(calls) == 4
    nodes = np.concatenate([z for _, z, _ in calls])
    new = np.concatenate([got for _, _, got in calls])
    old = np.concatenate([power_loop_eval(form, z) for form, z, _ in calls])
    form = np.concatenate([[i] * len(z) for i, (_, z, _) in enumerate(calls)])
    pick = np.random.default_rng(2016).choice(len(nodes), SAMPLE, replace=False)
    errors = []
    with mpmath.workdps(60):
        for i in pick.tolist():
            exact = mp_value(calls[form[i]][0], mpmath.mpc(nodes[i]))
            errors.append([float(abs(mpmath.mpc(v[i]) - exact) / abs(exact))
                           for v in (new, old)])
    errors = np.array(errors)
    for q in (50, 99):
        new_q, old_q = np.percentile(errors, q, axis=0)
        assert new_q <= (1 + QUANTILE_SLACK) * old_q, (q, new_q, old_q)
