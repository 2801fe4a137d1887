"""Differential tests of the integer kernels of the recovery scan.

Each kernel is checked against a slower construction kept here as its
oracle: the fold against a coordinate-by-coordinate sum, the memoized one-
and two-row verifier against the general-fold verifier, the direction
against gcd division, and the solver's exponents, the mixed-radix
columns and the lazy rows over the generator columns, against one
value_exponent call per character and regular element.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from glchar.cyclotomic import _context, _fold
from glchar.recovery import _direction, _solver, _TorusSolver, _verify
from glchar.sheets import zeta_level_for
from glchar.tori import GroupSpec, TorusType, enumerate_tori, points, regular_elements

from oracle_pairs import plain_fold, table_reference, verify_reference

FOLD_LEVELS = [1, 2, 3, 120, 168, 360]


# -- solver exponents ---------------------------------------------------------

SOLVER_TORI = [(tt, level)
               for n, qs in ((2, (11, 13, 17)), (1, (2, 3, 4, 5)))
               for q in qs
               for tt in enumerate_tori(GroupSpec(n, q))
               for level in sorted({points(tt).exponent,
                                    zeta_level_for(GroupSpec(n, q))})]


@pytest.mark.parametrize(
    "tt, level", SOLVER_TORI,
    ids=[f"GL{t.spec.n}-q{t.spec.q}-{t.label}-N{lv}" for t, lv in SOLVER_TORI])
def test_solver_table_matches_value_exponent(tt, level):
    solver = _TorusSolver(tt, level)
    ref = table_reference(tt, level)
    assert len(ref) == len(solver.chars) == points(tt).order
    # the column at every sample, in character order
    for s in range(len(solver.regs)):
        assert solver.col(s) == [row[s] for row in ref]
    # the lazy row of every character, in verification order
    assert sorted(solver.order) == list(range(len(solver.regs)))
    for i, row in enumerate(ref):
        assert list(solver.exps(i)) == [row[s] for s in solver.order]


# -- fold ---------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(N=st.sampled_from(FOLD_LEVELS), data=st.data())
def test_fold_matches_plain_sum(N, data):
    red = _context(N).red
    coeff = st.one_of(st.just(0), st.sampled_from([1, -1]),
                      st.integers(-10**6, 10**6))
    exps = st.integers(0, len(red) - 1)
    terms = data.draw(st.lists(st.tuples(exps, coeff), max_size=12))
    if terms and data.draw(st.booleans()):
        terms.append(data.draw(st.sampled_from(terms)))  # repeated exponent
    assert _fold(red, terms) == plain_fold(red, terms)
    assert _fold(red, iter(terms)) == plain_fold(red, terms)


@pytest.mark.parametrize("N", FOLD_LEVELS)
def test_fold_empty_and_all_zero(N):
    red = _context(N).red
    zero = [0] * _context(N).phi
    assert _fold(red, []) == zero
    assert _fold(red, [(e, 0) for e in range(len(red))]) == zero
    # a term and its negation cancel
    assert _fold(red, [(N - 1, 5), (N - 1, -5)]) == zero


# -- verify -------------------------------------------------------------------

VERIFY_TORI = [TorusType(GroupSpec(2, q), blocks)
               for q in (11, 13) for blocks in ((1, 1), (2,))]


def planted_fvec(solver, terms):
    """f(s) for sum c * theta_i, with exponents from value_exponent."""
    grp = solver.group
    lift = solver.level // grp.exponent
    out = []
    for e in solver.regs:
        pairs = [(lift * solver.chars[i].value_exponent(e) % solver.level, c)
                 for i, c in terms]
        out.append(tuple(plain_fold(solver.red, pairs)))
    return out


def verify_solver(data):
    tt = data.draw(st.sampled_from(VERIFY_TORI))
    grp = points(tt)
    level = data.draw(st.sampled_from([grp.exponent, tt.spec.q ** 2 - 1]))
    return _solver(tt, level)


COEFF = st.one_of(st.sampled_from([1, -1]),
                  st.integers(-7, 7).filter(lambda c: abs(c) > 1))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verify_accepts_planted_and_rejects_perturbed(data):
    solver = verify_solver(data)
    K = len(solver.chars)
    m = data.draw(st.integers(1, 2))
    idxs = tuple(sorted(data.draw(st.lists(st.integers(0, K - 1), min_size=m,
                                           max_size=m, unique=True))))
    coeffs = tuple(data.draw(st.lists(COEFF, min_size=m, max_size=m)))
    fvec = planted_fvec(solver, list(zip(idxs, coeffs)))
    assert _verify(solver, fvec, idxs, coeffs, {})
    assert verify_reference(solver, fvec, idxs, coeffs)
    # one wrong coordinate at one sample, possibly the last one visited:
    # only a check of every regular element sees it
    s = data.draw(st.sampled_from([solver.order[-1],
                                   data.draw(st.integers(0, len(fvec) - 1))]))
    t = data.draw(st.integers(0, solver.phi - 1))
    bad = list(fvec)
    v = list(bad[s])
    v[t] += data.draw(st.sampled_from([1, -1, 3]))
    bad[s] = tuple(v)
    assert not _verify(solver, bad, idxs, coeffs, {})
    assert not verify_reference(solver, bad, idxs, coeffs)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verify_matches_reference_on_wrong_candidates(data):
    solver = verify_solver(data)
    K = len(solver.chars)
    planted = data.draw(st.lists(st.tuples(st.integers(0, K - 1), COEFF),
                                 min_size=1, max_size=2,
                                 unique_by=lambda p: p[0]))
    fvec = planted_fvec(solver, planted)
    m = data.draw(st.integers(1, 2))
    idxs = tuple(sorted(data.draw(st.lists(st.integers(0, K - 1), min_size=m,
                                           max_size=m, unique=True))))
    coeffs = tuple(data.draw(st.lists(COEFF, min_size=m, max_size=m)))
    expect = verify_reference(solver, fvec, idxs, coeffs)
    assert _verify(solver, fvec, idxs, coeffs, {}) == expect
    assert expect == (sorted(zip(idxs, coeffs)) == sorted(planted))


def memo_is_sound(solver, memo) -> bool:
    """Whether every memo entry holds the value its key names."""
    for key, v in memo.items():
        if len(key) == 2:
            terms = [(key[1], key[0])]
        else:
            ca, cb, ea, eb = key
            terms = [(ea, ca), (eb, cb)]
        if v != tuple(plain_fold(solver.red, terms)):
            return False
    return True


def shared_and_copied(fvec, data):
    """fvec with every set of equal values made one object, or made
    distinct equal objects at random, as a mixed-level lift makes them."""
    one = {}
    shared = [one.setdefault(v, v) for v in fvec]
    return [tuple(list(v)) if data.draw(st.booleans()) else v
            for v in shared]


def draw_candidate(data, K):
    m = data.draw(st.integers(1, 2))
    idxs = tuple(sorted(data.draw(st.lists(st.integers(0, K - 1), min_size=m,
                                           max_size=m, unique=True))))
    return idxs, tuple(data.draw(st.lists(COEFF, min_size=m, max_size=m)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verify_memo_shared_across_candidates(data):
    """One memo across a run of right and wrong candidates, in any order,
    answers as the reference does for each, and only ever holds values
    its keys name."""
    solver = verify_solver(data)
    K = len(solver.chars)
    planted = data.draw(st.lists(st.tuples(st.integers(0, K - 1), COEFF),
                                 min_size=1, max_size=2,
                                 unique_by=lambda p: p[0]))
    fvec = shared_and_copied(planted_fvec(solver, planted), data)
    right = tuple(zip(*sorted(planted)))
    cands = [right if data.draw(st.booleans()) else draw_candidate(data, K)
             for _ in range(data.draw(st.integers(1, 6)))]
    memo = {}
    for idxs, coeffs in cands + [right]:
        expect = verify_reference(solver, fvec, idxs, coeffs)
        assert _verify(solver, fvec, idxs, coeffs, memo) == expect
        assert memo_is_sound(solver, memo)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_verify_memo_wrong_and_right_in_any_order(m, order):
    """Three checks share one memo in every order: a wrong candidate on f,
    the right candidate on f, and the right candidate on a function off f
    at the last sample visited only, which reuses every entry before it.
    None of them changes the answer of another."""
    solver = _solver(TorusType(GroupSpec(2, 13), (1, 1) if m == 2 else (2,)),
                     13 ** 2 - 1)
    terms = [(3, 2), (40, -1)][:m]
    idxs, coeffs = map(tuple, zip(*terms))
    fvec = planted_fvec(solver, terms)
    last = solver.order[-1]
    bad = list(fvec)
    bad[last] = tuple(v + (t == 0) for t, v in enumerate(fvec[last]))
    wrong = (coeffs[0] + 1,) + coeffs[1:]
    runs = [(fvec, wrong, False), (fvec, coeffs, True), (bad, coeffs, False)]
    memo = {}
    for k in order:
        vec, c, want = runs[k]
        assert _verify(solver, vec, idxs, c, memo) is want
        assert verify_reference(solver, vec, idxs, c) is want
        assert memo_is_sound(solver, memo)
    # the entry at the last sample holds one of f's own tuples, equal to
    # f there, never the bad value
    ref = table_reference(solver.ttype, solver.level)
    key = ((coeffs[0], ref[idxs[0]][last]) if m == 1 else
           (*coeffs, ref[idxs[0]][last], ref[idxs[1]][last]))
    assert memo[key] == fvec[last]
    assert any(memo[key] is v for v in fvec)
    assert _verify(solver, fvec, idxs, coeffs, memo)


# -- direction ----------------------------------------------------------------

def direction_reference(vec):
    g = math.gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec), g


@settings(max_examples=150, deadline=None)
@given(vec=st.lists(st.integers(-30, 30), min_size=1, max_size=96)
       .filter(any),
       k=st.sampled_from([1, -1, 2, -2, 3, -7, 12]))
def test_direction_matches_gcd_division(vec, k):
    g = math.gcd(*vec)
    prim = tuple(v // g for v in vec)  # content 1, either sign
    scaled = tuple(k * v for v in prim)
    got = _direction(scaled)
    assert got == direction_reference(scaled)
    assert type(got[0]) is tuple
    key, mult = got
    assert abs(mult) == abs(k)
    assert tuple(mult * v for v in key) == scaled


@pytest.mark.parametrize("N", [120, 168, 360])
def test_direction_of_root_tails_has_content_one(N):
    rng = random.Random(N)
    red = _context(N).red
    for e in rng.sample(range(N), 40):
        tail = red[e][1:]
        if any(tail):
            key, mult = _direction(tail)
            assert (key, mult) == direction_reference(tail)
            assert mult in (1, -1)
