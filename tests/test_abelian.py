"""Finite abelian groups, characters, homs: examples and exact dualities.

Elements are plain exponent tuples.  Their reduction and group law,
character evaluation as a root of unity, homs, pullbacks, orbits and
element enumeration exist only in the conjugacy oracle (oracle_conjugacy);
they are tested here with the rest.
"""

import pytest
from hypothesis import given, strategies as st

from glchar.abelian import EnumerationBudgetError, FinAbGroup, enumerate_chars
from glchar.cyclotomic import CycNum, root

from oracle_conjugacy import (
    AbHom,
    element,
    enumerate_elements,
    evaluate,
    multiply,
    orbit,
    pullback,
)
from oracle_product import mul


def inverse(G, g):
    return element(G, (-a for a in g))


def test_group_basics():
    G = FinAbGroup((3, 4))
    assert G.order == 12
    assert G.exponent == 12
    assert G.rank == 2
    with pytest.raises(ValueError):
        FinAbGroup((0, 3))


def test_element_reduction_and_ops():
    G = FinAbGroup((3, 4))
    g = element(G, (5, -1))
    assert g == (2, 3)
    assert multiply(G, g, inverse(G, g)) == (0, 0)
    assert multiply(G, g, g) == (1, 2)
    with pytest.raises(ValueError):
        element(G, (0, 0, 0))


def test_evaluate_examples():
    G4 = FinAbGroup((4,))
    assert evaluate(G4.char((0,)), (3,)) == root(4, 0)
    assert evaluate(G4.char((1,)), (2,)) == root(4, 2)

    G = FinAbGroup((3, 4))
    # exponent = 1*2*(12/3) + 1*3*(12/4) = 17 = 5 mod 12
    assert evaluate(G.char((1, 1)), (2, 3)) == root(12, 5)
    with pytest.raises(ValueError):
        evaluate(G.char((1, 1)), (1,))


@pytest.mark.parametrize("exps", [(1,), (1, 0, 5)], ids=["short", "long"])
def test_value_exponent_rejects_wrong_length(exps):
    # a tuple of the wrong length is refused, not truncated by zip
    chi = FinAbGroup((3, 4)).char((1, 1))
    assert chi.value_exponent((1, 0)) == 4
    with pytest.raises(ValueError):
        chi.value_exponent(exps)


def test_evaluate_inverse_element():
    G = FinAbGroup((5, 8))
    chi = G.char((2, 3))
    for g in [(1, 1), (4, 7), (3, 2)]:
        assert (mul(evaluate(chi, g), evaluate(chi, inverse(G, g)))
                == root(G.exponent, 0))


def test_hom_well_defined_check():
    Z4, Z8 = FinAbGroup((4,)), FinAbGroup((8,))
    AbHom(Z4, Z8, ((2,),))  # 4*2 = 0 mod 8: fine
    with pytest.raises(ValueError):
        AbHom(Z4, Z8, ((1,),))  # 4*1 != 0 mod 8


def test_hom_apply_and_compose():
    Z6, Z3 = FinAbGroup((6,)), FinAbGroup((3,))
    h = AbHom(Z6, Z3, ((1,),))  # reduction mod 3
    assert h.apply((5,)) == (2,)
    k = AbHom(Z3, Z3, ((2,),))
    assert k.compose(h).apply((5,)) == (1,)
    with pytest.raises(ValueError):
        h.compose(k)  # target of k is Z3, source of h is Z6
    with pytest.raises(ValueError):
        h.apply((1, 0))  # not an element of Z6


def test_is_surjective_examples():
    Z4 = FinAbGroup((4,))
    assert AbHom(Z4, Z4, ((1,),)).is_surjective()
    assert not AbHom(Z4, Z4, ((2,),)).is_surjective()
    # norm-style reduction Z/(q^2-1) -> Z/(q-1) at q=3
    q = 3
    src, tgt = FinAbGroup((q**2 - 1,)), FinAbGroup((q - 1,))
    h = AbHom(src, tgt, ((1,),))
    # brute-force oracle over all 8 source elements
    images = {h.apply(g) for g in enumerate_elements(src)}
    assert len(images) == tgt.order
    assert h.is_surjective()


def test_is_surjective_matches_brute_force_on_small_groups():
    import random
    rng = random.Random(5)
    cases = [((2, 4), (4,)), ((6,), (2, 3)), ((4, 4), (2, 8)), ((3, 5), (15,))]
    for src_m, tgt_m in cases:
        src, tgt = FinAbGroup(src_m), FinAbGroup(tgt_m)
        for _ in range(20):
            imgs = []
            for m in src_m:
                # random image of order dividing m
                while True:
                    cand = tuple(rng.randrange(t) for t in tgt_m)
                    if all(m * a % t == 0 for a, t in zip(cand, tgt_m)):
                        imgs.append(cand)
                        break
            h = AbHom(src, tgt, tuple(imgs))
            brute = len({h.apply(g) for g in enumerate_elements(src)})
            assert h.is_surjective() == (brute == tgt.order)


def test_pullback_examples():
    Z5 = FinAbGroup((5,))
    ident = AbHom(Z5, Z5, ((1,),))
    assert pullback(Z5.char((3,)), ident).cexps == (3,)
    double = AbHom(Z5, Z5, ((2,),))
    assert pullback(Z5.char((1,)), double).cexps == (2,)
    assert pullback(Z5.char((0,)), double).is_trivial()


def test_pullback_pointwise_everywhere_small():
    Z12, Z6 = FinAbGroup((12,)), FinAbGroup((2, 3))
    h = AbHom(Z12, Z6, ((1, 1),))
    for chi in enumerate_chars(Z6):
        pb = pullback(chi, h)
        for g in enumerate_elements(Z12):
            assert evaluate(pb, g) == evaluate(chi, h.apply(g)).lift(12)


def test_pullback_contravariant():
    A, B, C = FinAbGroup((8,)), FinAbGroup((4,)), FinAbGroup((2,))
    h = AbHom(A, B, ((1,),))   # mod 4
    k = AbHom(B, C, ((1,),))   # mod 2
    kh = k.compose(h)
    for chi in enumerate_chars(C):
        assert pullback(chi, kh) == pullback(pullback(chi, k), h)


def test_enumeration_order_and_budget():
    G = FinAbGroup((2, 2))
    elts = list(enumerate_elements(G))
    assert len(elts) == 4
    assert elts[0] == (0, 0)
    assert elts == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert sum(1 for _ in enumerate_chars(G)) == G.order
    with pytest.raises(EnumerationBudgetError):
        list(enumerate_elements(FinAbGroup((10**7,))))


def test_duality_and_orthogonality_exhaustive():
    for moduli in [(6,), (2, 4), (3, 3), (2, 3, 4)]:
        G = FinAbGroup(moduli)
        L = G.exponent
        chars = list(enumerate_chars(G))
        elts = list(enumerate_elements(G))
        # distinct characters have distinct value vectors
        vecs = {tuple(c.value_exponent(g) for g in elts) for c in chars}
        assert len(vecs) == G.order
        # column orthogonality
        for c1 in chars[:6]:
            for c2 in chars[:6]:
                s = CycNum.zero(L)
                for g in elts:
                    s = s + mul(evaluate(c1, g), evaluate(c2, inverse(G, g)))
                expected = G.order if c1 == c2 else 0
                assert s == expected


def test_orbit_examples():
    G = FinAbGroup((7, 7))
    swap = (1, 0)
    assert orbit(G.char((0, 0)), [swap]) == (G.char((0, 0)),)
    assert orbit(G.char((3, 3)), [swap]) == (G.char((3, 3)),)
    got = orbit(G.char((1, 2)), [swap])
    assert got == (G.char((1, 2)), G.char((2, 1)))


def test_orbit_closure_under_generated_group():
    G = FinAbGroup((5, 5, 5))
    # the two adjacent transpositions generate S_3: orbit of (1,2,3) has 6 points
    got = orbit(G.char((1, 2, 3)), [(1, 0, 2), (0, 2, 1)])
    assert len(got) == 6
    assert got == tuple(sorted(got, key=lambda c: c.cexps))


def test_orbit_incompatible_permutation():
    G = FinAbGroup((2, 3))
    with pytest.raises(ValueError):
        orbit(G.char((0, 0)), [(1, 0)])
    with pytest.raises(ValueError):
        orbit(G.char((0, 0)), [(0, 0)])


@given(st.sampled_from([(4,), (2, 6), (3, 5), (2, 2, 2)]), st.data())
def test_evaluate_is_multiplicative(moduli, data):
    G = FinAbGroup(moduli)
    chi = G.char(tuple(data.draw(st.integers(0, m - 1)) for m in moduli))
    a = tuple(data.draw(st.integers(0, m - 1)) for m in moduli)
    b = tuple(data.draw(st.integers(0, m - 1)) for m in moduli)
    assert evaluate(chi, multiply(G, a, b)) == mul(evaluate(chi, a),
                                                   evaluate(chi, b))
