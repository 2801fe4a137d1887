"""The product of two values of Z[zeta_N], for the tests only.

glchar multiplies a value by an integer and never two values: no command
needs the ring product.  The oracles and the algebraic checks that do
need it (ring axioms, Bareiss elimination, orthogonality of character
tables) multiply here, by one big-integer product of Kronecker-packed
coefficient vectors and a long division by Phi_N.
"""

from glchar.cyclotomic import CycNum, cyclotomic_poly


def mul_packed(N, a, b):
    """Product of two power-basis vectors at level N: one big-integer
    multiplication by Kronecker substitution, then long division by Phi_N."""
    phi = len(a)
    amax = max(max(a), -min(a))
    bmax = max(max(b), -min(b))
    B = (phi * amax * bmax).bit_length() + 2
    xa = sum(c << (i * B) for i, c in enumerate(a))
    xb = sum(c << (i * B) for i, c in enumerate(b))
    x = xa * xb
    full = 1 << B
    prod = []
    for _ in range(2 * phi - 1):
        # balanced digits with borrow propagation
        d = x & (full - 1)
        if d >= full >> 1:
            d -= full
        x = (x - d) >> B
        prod.append(d)
    assert x == 0, "packed convolution leaked digits"
    poly = cyclotomic_poly(N)
    for i in range(len(prod) - 1, phi - 1, -1):
        c = prod[i]
        if c:
            for j in range(phi + 1):
                prod[i - phi + j] -= c * poly[j]
    return prod[:phi]


def mul(x, y):
    """x * y for two values at one level."""
    assert x.level == y.level
    return CycNum(x.level, mul_packed(x.level, x.num, y.num))
