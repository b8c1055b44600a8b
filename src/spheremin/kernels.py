"""The hot evaluation kernel: pointwise factored products over complex
node arrays (the inner loop of contour residues and path quadrature)."""


def eval_product(coeff, kinds, ks, cs, exps, z, out):
    """Evaluate coeff * prod(factor**exp) at every point of `z`.

    kinds: 0 = monomial (z), 1 = shifted power (z**k - c).
    `out` must be a complex128 array of the same shape as `z`.  z**k is
    computed once per distinct k and shared by the factors that have it.
    """
    out[...] = coeff
    powers = {}
    for kind, k, c, e in zip(kinds, ks, cs, exps):
        if kind == 0:
            base = z
        else:
            k = int(k)
            if k not in powers:
                powers[k] = z ** k
            base = powers[k] - c
        out *= base ** int(e)
    return out
