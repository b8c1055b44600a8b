"""The hot evaluation kernel: pointwise factored products over complex
node arrays (the inner loop of contour residues and path quadrature)."""


def eval_product(coeff, ks, cs, exps, z, out):
    """Evaluate coeff * prod((z**k - c)**exp) at every point of `z`.

    A factor with c == 0 is the monomial z (k = 1).  `out` must be a
    complex128 array of the same shape as `z`.  z**k is computed once per
    distinct k and shared by the factors that have it.
    """
    out[...] = coeff
    powers = {}
    for k, c, e in zip(ks, cs, exps):
        if c == 0:
            base = z
        else:
            k = int(k)
            if k not in powers:
                powers[k] = z ** k
            base = powers[k] - c
        out *= base ** int(e)
    return out
