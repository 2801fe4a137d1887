"""Exact cyclotomic arithmetic: oracle fixtures and algebraic properties."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from glchar.abelian import enumerate_chars
from glchar.cyclotomic import (
    CycNum,
    LevelMismatchError,
    _context,
    cyclotomic_poly,
    root,
)
from glchar.recovery import gram_independence
from glchar.tori import GroupSpec, enumerate_tori, points, regular_elements


# ---------------------------------------------------------------- oracles

def euler_phi(n):
    """phi(n) by its definition: the units among 1..n."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divexact(num, den):
    # long division by a monic divisor, over its nonzero terms; the
    # remainder must vanish
    assert den[-1] == 1
    num = list(num)
    dn = len(den) - 1
    terms = [(j - dn, c) for j, c in enumerate(den) if c]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j, dj in terms:
                num[i + j] -= c * dj
    assert not any(num)
    return out


@lru_cache(maxsize=None)
def phi_by_division(N):
    """Phi_N as x^N - 1 divided exactly by Phi_d for every proper divisor
    d of N, the largest first, which keeps each quotient sparse."""
    cur = [-1] + [0] * (N - 1) + [1]
    for d in reversed([d for d in range(1, N) if N % d == 0]):
        cur = poly_divexact(cur, phi_by_division(d))
    return tuple(cur)


# textbook cyclotomic polynomials, low degree first
PHI1 = [-1, 1]
PHI2 = [1, 1]
PHI3 = [1, 1, 1]
PHI4 = [1, 0, 1]
PHI6 = [1, -1, 1]


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)


def test_cyclotomic_poly_12_against_division_oracle():
    # Phi_12 = (x^12 - 1) / (Phi_1 Phi_2 Phi_3 Phi_4 Phi_6)
    x12 = [-1] + [0] * 11 + [1]
    den = PHI1
    for p in (PHI2, PHI3, PHI4, PHI6):
        den = poly_mul(den, p)
    expected = poly_divexact(x12, den)
    assert expected == [1, 0, -1, 0, 1]  # x^4 - x^2 + 1
    assert list(cyclotomic_poly(12)) == expected


def test_cyclotomic_poly_matches_the_divisor_recursion():
    # every level up to 2000 (1680 is q=41's), then the levels of q=64,
    # of gram --q 97 on the elliptic torus, and of q=101
    try:
        for N in [*range(1, 2001), 4095, 9408, 10200]:
            assert cyclotomic_poly(N) == phi_by_division(N), N
    finally:
        phi_by_division.cache_clear()


def test_cyclotomic_poly_degree_and_root():
    for N in range(1, 201):
        poly = cyclotomic_poly(N)
        assert len(poly) == euler_phi(N) + 1
        z = root(N, 1)
        acc = CycNum.zero(N)
        zp = root(N, 0)
        for c in poly:
            acc = acc + c * zp
            zp = zp * z
        assert acc.is_zero()


def test_root_basics():
    assert root(4, 2) == -1
    s = root(3, 0) + root(3, 1) + root(3, 2)
    assert s.is_zero()
    assert root(5, 3) * root(5, 4) == root(5, 2)


def test_root_periodicity():
    for N in (1, 2, 6, 12, 40):
        for a in range(-N, 2 * N):
            assert root(N, a) == root(N, a % N)
    assert root(7, 1) != root(7, 2)


def test_mul_hand_oracle_level5():
    # (1 + z5)(1 + z5^4) = 1 + z5 + z5^4 + z5^5 = 2 + z5 + z5^4
    a = root(5, 0) + root(5, 1)
    b = root(5, 0) + root(5, 4)
    expected = CycNum.from_terms(5, {0: 2, 1: 1, 4: 1})
    assert a * b == expected


def test_rational_helpers():
    # the rational constants of Z[zeta] are the integers: int operands of
    # +, -, * and == are constants of the ring
    x = CycNum.from_terms(12, ((0, -3), (12, 1)))
    assert x == -2 and x != 2 and x != 0
    assert x + 1 == -1
    assert 1 - x == 3
    assert x - 2 == -4
    assert 5 + root(9, 0) == root(9, 0) * 6
    assert 3 * root(12, 1) == root(12, 1) + root(12, 1) + root(12, 1)
    # no Fraction operands and no division: the ring has no inversion
    with pytest.raises(TypeError):
        x + Fraction(1, 2)
    with pytest.raises(TypeError):
        x * Fraction(1, 2)
    with pytest.raises(TypeError):
        root(12, 1) / 2
    with pytest.raises(TypeError):
        root(12, 1) / root(12, 1)


def test_level_mismatch_rejected():
    with pytest.raises(LevelMismatchError):
        root(3, 1) + root(4, 1)
    with pytest.raises(LevelMismatchError):
        root(3, 1) * root(6, 1)
    with pytest.raises(LevelMismatchError):
        root(3, 1) == root(6, 2)


def test_lift_examples():
    assert root(2, 1).lift(4) == root(4, 2)
    assert CycNum.zero(3).lift(12) == CycNum.zero(12)
    assert root(3, 1).lift(12) == root(12, 4)
    with pytest.raises(LevelMismatchError):
        root(4, 1).lift(6)


def test_str_and_triples_roundtrip():
    x = CycNum.from_terms(12, {0: 2, 2: -3})
    t = x.to_triples()
    assert t == [[2, 1, 0], [-3, 1, 2]]
    assert CycNum.from_triples(12, t) == x
    assert str(x) == "2 - 3*z12^2"
    assert str(-root(12, 1)) == "-z12"
    assert str(CycNum.zero(5)) == "0"
    assert str(root(5, 0)) == "1"
    with pytest.raises(ValueError):
        CycNum.from_triples(4, [[1, 1, 7]])  # power outside basis
    # the middle slot is a denominator, and values lie in Z[zeta_N]
    for d in (0, 2, -1):
        with pytest.raises(ValueError, match=f"has denominator {d}"):
            CycNum.from_triples(4, [[1, 1, 1], [1, d, 0]])


# ---------------------------------------------------------- random values

LEVELS = [1, 2, 3, 4, 5, 8, 12, 15, 21, 40]


@st.composite
def cycnums(draw, level=None):
    N = level if level is not None else draw(st.sampled_from(LEVELS))
    n_terms = draw(st.integers(0, 4))
    terms = []
    for _ in range(n_terms):
        e = draw(st.integers(0, 2 * N))
        terms.append((e, draw(st.integers(-9, 9))))
    return CycNum.from_terms(N, terms)


@st.composite
def cycnum_triples(draw):
    N = draw(st.sampled_from(LEVELS))
    return tuple(draw(cycnums(level=N)) for _ in range(3))


@given(cycnum_triples())
def test_field_axioms(xyz):
    x, y, z = xyz
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (x + (-x)).is_zero()
    assert x * root(x.level, 0) == x


@given(cycnum_triples())
def test_lift_is_ring_embedding(xyz):
    x, y, _ = xyz
    M = x.level * 3
    assert (x * y).lift(M) == x.lift(M) * y.lift(M)
    assert (x + y).lift(M) == x.lift(M) + y.lift(M)
    assert (x.lift(M) == y.lift(M)) == (x == y)


@given(cycnums())
def test_triples_roundtrip_random(x):
    assert CycNum.from_triples(x.level, x.to_triples()) == x


@given(st.sampled_from(LEVELS), st.data())
def test_from_triples_matches_from_terms(N, data):
    # powers may repeat; from_terms sums the same integer terms
    phi = euler_phi(N)
    triples = data.draw(st.lists(
        st.tuples(st.integers(-50, 50), st.just(1),
                  st.integers(0, phi - 1)), max_size=8))
    got = CycNum.from_triples(N, triples)
    want = CycNum.from_terms(N, [(p, n) for n, _, p in triples])
    assert got.num == want.num


def test_from_triples_sums_repeated_powers():
    got = CycNum.from_triples(12, [[1, 1, 3], [2, 1, 3], [-1, 1, 0], [0, 1, 1]])
    assert got == CycNum.from_terms(12, {3: 3, 0: -1})
    assert got.num == (-1, 0, 0, 3)


def test_from_triples_takes_plain_ints_only():
    for bad in ([True, 1, 0], [1.0, 1, 0], [1, 1, "0"], [1, Fraction(1), 0]):
        with pytest.raises(TypeError):
            CycNum.from_triples(4, [bad])


def mul_packed(N, a, b):
    """Oracle product of two power-basis vectors at level N: one big-integer
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
        for j in range(phi + 1):
            prod[i - phi + j] -= c * poly[j]
    return prod[:phi]


@given(st.sampled_from(LEVELS), st.data())
def test_packed_convolution_matches_schoolbook(N, data):
    ctx = _context(N)
    vec = st.lists(st.integers(-50, 50), min_size=ctx.phi, max_size=ctx.phi)
    a = data.draw(vec)
    b = data.draw(vec)
    assert ctx.mul_vec(a, b) == mul_packed(N, a, b)


# ------------------------------------------------------------- matrices

def _int_vec_inverse(ctx, vec):
    """(numerator vector, positive denominator) of the inverse of an integer
    vector: the product of its nontrivial Galois conjugates over its norm."""
    N = ctx.N
    prod_t = (1,) + (0,) * (ctx.phi - 1)
    for k in range(2, N + 1):
        if math.gcd(k, N) == 1:
            conj = [0] * ctx.phi
            for i, c in enumerate(vec):
                if c:
                    row = ctx.red[(i * k) % N]
                    for j in range(ctx.phi):
                        rj = row[j]
                        if rj:
                            conj[j] += c * rj
            prod_t = tuple(ctx.mul_vec(prod_t, conj))
    nrm = ctx.mul_vec(prod_t, vec)
    if any(nrm[1:]):
        raise ArithmeticError("norm not rational")
    r = nrm[0]
    if r == 0:
        raise ZeroDivisionError("inverse of zero vector")
    if r < 0:
        return tuple(-v for v in prod_t), -r
    return prod_t, r


def det_bareiss(level, rows):
    """Oracle determinant of a square matrix of CycNum at one level:
    fraction-free Bareiss elimination, every division exact in Z[zeta] (by
    the previous pivot, through its inverse)."""
    ctx = _context(level)
    n = len(rows)
    mat = [[x.num for x in row] for row in rows]
    sign = 1
    prev = None
    zero = (0,) * ctx.phi
    for k in range(n - 1):
        if not any(mat[k][k]):
            for r in range(k + 1, n):
                if any(mat[r][k]):
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return CycNum.zero(level)
        pivot = mat[k][k]
        if prev is not None:
            inv_num, inv_den = _int_vec_inverse(ctx, prev)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = [x - y for x, y in zip(ctx.mul_vec(pivot, mat[i][j]),
                                             ctx.mul_vec(mat[i][k], mat[k][j]))]
                if prev is not None:
                    num = ctx.mul_vec(num, inv_num)
                    if any(v % inv_den for v in num):
                        raise ArithmeticError("inexact Bareiss division")
                    num = [v // inv_den for v in num]
                mat[i][j] = tuple(num)
            mat[i][k] = zero
        prev = pivot
    vec = mat[n - 1][n - 1]
    if sign < 0:
        vec = tuple(-v for v in vec)
    return CycNum(level, vec)


@pytest.mark.parametrize("n,q", [(2, 11), (2, 13), (1, 7)])
def test_gram_det_agrees_with_bareiss(n, q):
    # the Gram matrix built here from value exponents, for k = 1..2|W|
    # characters on every torus; each torus gives zero entries (a pair
    # whose ratio is non-trivial on the non-regular points), which the
    # Laplace expansion skips
    rng = random.Random(q)
    spec = GroupSpec(n, q)
    for tt in enumerate_tori(spec):
        grp = points(tt)
        chars = list(enumerate_chars(grp))
        regular = list(regular_elements(tt))
        zeros = False
        for k in range(1, 2 * spec.weyl_order + 1):
            for sub in [chars[:k]] + [rng.sample(chars, k) for _ in range(6)]:
                exps = [[ch.value_exponent(e) for e in regular] for ch in sub]
                rows = [[CycNum.from_terms(grp.exponent,
                                           [(a - b, 1) for a, b in zip(x, y)])
                         for y in exps] for x in exps]
                zeros |= any(g.is_zero() for row in rows for g in row)
                assert gram_independence(tt, sub).det == det_bareiss(
                    grp.exponent, rows)
        assert zeros
