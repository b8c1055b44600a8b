"""The hot evaluation kernel: pointwise factored products over complex
node arrays (the inner loop of mesh sampling and path quadrature).

Integer powers are taken by repeated squaring with array multiplies,
several times faster than numpy's complex `power` for any exponent but 2.
A factor with a negative exponent divides the running product by its
positive power, one division per factor; one accumulated denominator
could underflow where the running product does not.  The nodes are
walked in blocks of BLOCK, so the temporaries stay a few blocks in size
whatever the number of nodes.  Every operation is elementwise and the
running product is formed out of place (numpy 2.4's in-place complex
multiply rounds a one-element array differently from a longer one), so a
node's value does not depend on the block it falls in.
"""

BLOCK = 4096


def _power(x, n):
    """x**n for an integer n >= 1, by repeated squaring from the lowest
    bit: the squares x, x**2, x**4, ... whose bits are set, multiplied
    in that order (x itself when n == 1)."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if not n:
            return result
        x = x * x


def eval_product(coeff, ks, cs, exps, z, out):
    """Evaluate coeff * prod((z**k - c)**exp) at every point of `z`.

    A factor with c == 0 is the monomial z (k = 1).  `z` is a 1-d
    complex128 array and `out` one of the same length.  Within a block,
    z**k is computed once per distinct k and shared by the factors that
    have it.
    """
    for start in range(0, len(z), BLOCK):
        zb = z[start:start + BLOCK]
        acc = coeff
        powers = {}
        for k, c, e in zip(ks, cs, exps):
            if c == 0:
                base = zb
            else:
                k = int(k)
                if k not in powers:
                    powers[k] = _power(zb, k)
                base = powers[k] - c
            if e > 0:
                acc = acc * _power(base, int(e))
            else:
                acc = acc / _power(base, -int(e))
        out[start:start + BLOCK] = acc
    return out
