"""Loop references for the factored-product kernel, written apart from
`spheremin.kernels`: the repeated-squaring rule the kernel follows, which
tests compare it with bit for bit, and the numpy `power` loop it replaced,
which the accuracy test holds it against."""

from functools import reduce
from operator import mul

import numpy as np


def squaring_power(x, n):
    """x**n for an integer n >= 1: the squares x, x**2, x**4, ... of the
    set bits of n, lowest first, multiplied left to right."""
    squares = [x]
    while 2 ** len(squares) <= n:
        squares.append(squares[-1] * squares[-1])
    return reduce(mul, [s for i, s in enumerate(squares) if n >> i & 1])


def times_power(acc, base, e):
    """acc * base**e, dividing once by base**-e when e < 0."""
    if e > 0:
        return acc * squaring_power(base, e)
    return acc / squaring_power(base, -e)


def squaring_eval(f, z):
    """f at the points z by the squaring rule, one power of z per factor
    and every node at once: the kernel without its blocks and its shared
    z**k."""
    out = np.full_like(z, f.coefficient)
    for k, c, e in zip(*f._packed):
        base = z if c == 0 else squaring_power(z, int(k)) - c
        out = times_power(out, base, int(e))
    return out


def power_loop_eval(f, z):
    """f at the points z through numpy's complex `power`, z**k once per
    distinct k: the kernel before it squared."""
    out = np.full_like(z, f.coefficient)
    powers = {}
    for k, c, e in zip(*f._packed):
        if c == 0:
            base = z
        else:
            if int(k) not in powers:
                powers[int(k)] = z ** int(k)
            base = powers[int(k)] - c
        out *= base ** int(e)
    return out
