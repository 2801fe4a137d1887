"""Torus model for GL_n(F_q): points, norms, regularity, conjugacy."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from glchar.abelian import enumerate_chars
from glchar.tori import (
    GeomClassId,
    GroupSpec,
    QConditionReport,
    TorusType,
    check_q_condition,
    eigenvalues,
    enumerate_tori,
    geom_class_id,
    is_prime_power,
    is_regular,
    points,
    regular_elements,
    rs_ratio,
    torus_from_label,
)

from oracle_conjugacy import (
    embed,
    frobenius,
    geometric_conjugate,
    level_points,
    multiply,
    norm_hom,
    norm_value,
    rs_ratio_reference,
)


def split2(q):
    return TorusType(GroupSpec(2, q), (1, 1))


def elliptic2(q):
    return TorusType(GroupSpec(2, q), (2,))


def test_spec_validation():
    assert GroupSpec(2, 11).weyl_order == 2
    assert GroupSpec(3, 4).weyl_order == 6
    for bad in (1, 6, 10, 12, 0):
        with pytest.raises(ValueError):
            GroupSpec(2, bad)
    assert is_prime_power(16) and is_prime_power(27) and is_prime_power(2)
    assert not is_prime_power(1) and not is_prime_power(15)
    assert GroupSpec(2, 3).group_order == 48  # (9-1)(9-3)


def test_enumerate_tori():
    assert [t.blocks for t in enumerate_tori(GroupSpec(1, 5))] == [(1,)]
    assert [t.blocks for t in enumerate_tori(GroupSpec(2, 5))] == [(1, 1), (2,)]
    assert [t.blocks for t in enumerate_tori(GroupSpec(3, 5))] == \
        [(1, 1, 1), (2, 1), (3,)]
    assert len(enumerate_tori(GroupSpec(5, 2))) == 7
    with pytest.raises(ValueError):
        TorusType(GroupSpec(2, 5), (3,))
    assert torus_from_label(GroupSpec(3, 5), "2+1").blocks == (2, 1)
    assert torus_from_label(GroupSpec(3, 5), "2+1").label == "2+1"


def test_points_levels():
    # T^F from glchar, T^{F^m} from the conjugacy oracle
    q = 7
    assert points(split2(q)).moduli == (q - 1, q - 1)
    assert points(elliptic2(q)).moduli == (q**2 - 1,)
    assert level_points(elliptic2(q), 2).moduli == (q**2 - 1, q**2 - 1)
    assert level_points(split2(q), 2).moduli == (q**2 - 1, q**2 - 1)
    with pytest.raises(ValueError):
        level_points(elliptic2(q), 3)
    t21 = TorusType(GroupSpec(3, 3), (2, 1))
    assert points(t21).moduli == (8, 2)
    assert level_points(t21, 2).moduli == (8, 8, 8)
    assert t21.twist_order == 2


def test_eigenvalues_examples():
    q = 11
    QL = q**2 - 1
    # split diag with dlogs (a, b) at L = 2: scaling by (q^2-1)/(q-1) = q+1
    assert eigenvalues(split2(q), (1, 3), 2) == tuple(sorted((12, 36)))
    # elliptic dlog a: {a, aq}
    assert eigenvalues(elliptic2(q), (1,), 2) == (1, 11)
    assert eigenvalues(elliptic2(q), (50,), 2) == tuple(sorted((50, 550 % QL)))
    assert eigenvalues(split2(q), (0, 0), 2) == (0, 0)
    with pytest.raises(ValueError):
        eigenvalues(elliptic2(q), (1,), 3)


def test_eigenvalues_respect_lifting():
    q = 5
    for tt in enumerate_tori(GroupSpec(2, q)):
        for exps in product(*(range(m) for m in points(tt).moduli)):
            ev2 = eigenvalues(tt, exps, 2)
            ev4 = eigenvalues(tt, exps, 4)
            scale = (q**4 - 1) // (q**2 - 1)
            assert tuple(sorted(e * scale % (q**4 - 1) for e in ev2)) == ev4


def test_is_regular_examples():
    q = 11
    assert not is_regular(split2(q), (0, 0))
    assert not is_regular(split2(q), (7, 7))
    assert is_regular(split2(q), (0, 1))
    # elliptic: regular iff dlog not a multiple of q+1
    for a in range(q**2 - 1):
        assert is_regular(elliptic2(q), (a,)) == (a % (q + 1) != 0)


def test_regular_elements_counts():
    q = 11
    assert len(regular_elements(split2(q))) == (q - 1) * (q - 2)
    assert len(regular_elements(elliptic2(q))) == (q**2 - 1) - (q - 1)
    assert regular_elements(split2(q))[0] == (0, 1)


def test_rs_ratio_closed_forms():
    for q in (3, 5, 7, 9, 11, 13, 16):
        assert rs_ratio(split2(q)) == Fraction(1, q - 1)
        assert rs_ratio(elliptic2(q)) == Fraction(1, q + 1)
    gl1 = TorusType(GroupSpec(1, 7), (1,))
    assert rs_ratio(gl1) == 0


def test_rs_ratio_closed_form_matches_enumeration():
    # every torus of GL_n, n <= 5, q < 100, with at most 5000 points
    checked = 0
    for n in range(1, 6):
        for q in filter(is_prime_power, range(2, 100)):
            for tt in enumerate_tori(GroupSpec(n, q)):
                if points(tt).order <= 5000:
                    assert rs_ratio(tt) == rs_ratio_reference(tt), tt
                    checked += 1
    assert checked == 184


def test_check_q_condition():
    rep = check_q_condition(GroupSpec(2, 11))
    assert rep.ok and bool(rep)
    assert rep.threshold == Fraction(1, 8)
    assert [r for _, r in rep.ratios] == [Fraction(1, 10), Fraction(1, 12)]
    assert not check_q_condition(GroupSpec(2, 7)).ok
    # strictness: at q=9 the split ratio equals the threshold exactly
    rep9 = check_q_condition(GroupSpec(2, 9))
    assert rep9.ratios[0][1] == rep9.threshold
    assert not rep9.ok
    assert check_q_condition(GroupSpec(1, 4)).ok
    assert check_q_condition(GroupSpec(2, 16)).ok


def test_gate_threshold_kept_as_exponent():
    rep = check_q_condition(GroupSpec(2, 11))
    assert rep.threshold_exp == 3 and rep.threshold_text == "1/8"
    rep = check_q_condition(GroupSpec(8, 2))
    assert rep.threshold_exp == 2 * math.factorial(8) - 1
    assert rep.threshold_text == "1/2^80639"
    assert not rep.ok


@given(st.integers(0, 300), st.integers(1, 10**6), st.integers(0, 80))
def test_gate_comparison_by_bit_length_is_exact(num, den, k):
    r = Fraction(num, den)
    spec = GroupSpec(2, 11)
    rep = QConditionReport(spec, k, ((TorusType(spec, (1, 1)), r),))
    assert rep.ok == (r < Fraction(1, 2**k))


def test_frobenius_orbits_level_m():
    q = 3
    tt = elliptic2(q)
    for t in [(1, 5), (0, 0), (7, 2)]:
        # F has order m on T^{F^m}
        u = frobenius(tt, 2, frobenius(tt, 2, t))
        assert u == t
        # the norm is F-invariant
        assert norm_value(tt, 2, frobenius(tt, 2, t)) == norm_value(tt, 2, t)


def test_norm_hom_closed_forms():
    q = 7
    # d=1 block, m=2: b -> b mod (q-1)
    h = norm_hom(split2(q), 2)
    assert h.apply((5, 0)) == (5 % (q - 1), 0)
    assert h.apply((q, 0)) == (q % (q - 1), 0)
    # d=2 block, m=2: (b0, b1) -> b0 + q*b1 mod (q^2-1)
    h2 = norm_hom(elliptic2(q), 2)
    for b0, b1 in [(0, 0), (1, 0), (0, 1), (5, 11)]:
        assert h2.apply((b0, b1)) == \
            ((b0 + q * b1) % (q**2 - 1),)


def test_norm_matches_frobenius_products():
    # oracle: the norm is literally t * F(t) * ... * F^(m-1)(t); compare the
    # closed-form hom against that product landed in the embedded T^F
    for n, q in [(1, 3), (1, 4), (2, 3), (2, 5), (3, 3)]:
        spec = GroupSpec(n, q)
        for tt in enumerate_tori(spec):
            t0 = tt.twist_order
            for m in (t0, 2 * t0):
                g = level_points(tt, m)
                h = norm_hom(tt, m)
                samples = []
                if g.order <= 4000:
                    samples = list(product(*(range(mm) for mm in g.moduli)))
                else:
                    import random
                    rng = random.Random(hash((n, q, tt.blocks, m)) & 0xFFFF)
                    samples = [tuple(rng.randrange(mm) for mm in g.moduli)
                               for _ in range(200)]
                for t in samples:
                    acc = t
                    cur = t
                    for _ in range(m - 1):
                        cur = frobenius(tt, m, cur)
                        acc = multiply(g, acc, cur)
                    a = h.apply(t)
                    assert norm_value(tt, m, t) == a
                    assert embed(tt, m, a) == acc


def test_norm_hom_surjective():
    for n, q in [(1, 7), (2, 3), (2, 7), (3, 3)]:
        for tt in enumerate_tori(GroupSpec(n, q)):
            t0 = tt.twist_order
            for m in (t0, 2 * t0):
                assert norm_hom(tt, m).is_surjective()


def test_geometric_conjugate_examples():
    q = 11
    sp, el = split2(q), elliptic2(q)
    trivial_sp = points(sp).char((0, 0))
    trivial_el = points(el).char((0,))
    assert geometric_conjugate((sp, trivial_sp), (el, trivial_el))
    # elliptic c = q+1 = 12 matches split (1, 1)
    assert geometric_conjugate((el, points(el).char((12,))),
                               (sp, points(sp).char((1, 1))))
    assert geometric_conjugate((sp, points(sp).char((0, 1))),
                               (sp, points(sp).char((1, 0))))
    assert not geometric_conjugate((el, points(el).char((1,))),
                                   (sp, points(sp).char((1, 1))))
    with pytest.raises(ValueError):
        geometric_conjugate((sp, trivial_sp),
                            (elliptic2(13), points(elliptic2(13)).char((0,))))
    with pytest.raises(ValueError):
        geometric_conjugate((sp, trivial_el), (el, trivial_el))


def test_geom_class_id_examples():
    q = 11
    sp, el = split2(q), elliptic2(q)
    assert geom_class_id((sp, points(sp).char((0, 0)))) == \
        GeomClassId(2, (0, 0))
    assert geom_class_id((el, points(el).char((1,)))) == \
        GeomClassId(2, (1, 11))
    assert geom_class_id((sp, points(sp).char((1, 3)))) == \
        GeomClassId(2, (12, 36))


def test_deciders_agree_exhaustively_q3():
    q = 3
    sp, el = split2(q), elliptic2(q)
    pairs = [(sp, chi) for chi in enumerate_chars(points(sp))]
    pairs += [(el, chi) for chi in enumerate_chars(points(el))]
    assert len(pairs) == q**2 - 1 + (q - 1) ** 2  # 8 + 4
    ids = [geom_class_id(p) for p in pairs]
    for i, pa in enumerate(pairs):
        for j, pb in enumerate(pairs):
            assert geometric_conjugate(pa, pb) == (ids[i] == ids[j])
    assert len(set(ids)) == q * q - q


def test_gl1_conjugacy_is_equality():
    spec = GroupSpec(1, 7)
    (tt,) = enumerate_tori(spec)
    g = points(tt)
    for a in range(6):
        for b in range(6):
            assert geometric_conjugate((tt, g.char((a,))), (tt, g.char((b,)))) \
                == (a == b)
