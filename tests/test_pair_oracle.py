"""Differential tests: the indexed two-term scan against the pairwise oracle.

The production scan reads each pair off an index; oracle_pairs walks all
K(K-1)/2 pairs.  Both must return the same (ia, ib, ca, cb) hit list,
in the same order, on every input: built-in sheet rows, planted two-term
functions, and inputs whose shifted first sample is rational (the case the
index cannot pin, where the scan falls back to the pivot screen).  The
shifts both scans read, f(s) zeta^{-e} by companion step from a cached
neighbour, are checked against the plain fold mul_root.
"""

import math
import random
from functools import lru_cache
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import glchar.recovery as recovery
from glchar.abelian import AbChar
from glchar.cyclotomic import CycNum, _context, root
from glchar.recovery import _scan_pairs, _shifter, _solver
from glchar.sheets import build_gl2_sheet
from glchar.tori import GroupSpec, TorusType, points, regular_elements

from oracle_pairs import mul_root, scan_pairs_reference, table_reference

SPEC11 = GroupSpec(2, 11)
SPEC13 = GroupSpec(2, 13)
TORI = [TorusType(spec, blocks) for spec in (SPEC11, SPEC13)
        for blocks in ((1, 1), (2,))]


def solver_input(values, tt):
    """(solver, fvec) for a value map on the regular locus of tt."""
    regs = regular_elements(tt)
    level = math.lcm(points(tt).exponent,
                     *(v.level for v in values.values()))
    return _solver(tt, level), [values[e].lift(level).num for e in regs]


def assert_same_hits(values, tt, reference=None):
    solver, fvec = solver_input(values, tt)
    hits = _scan_pairs(solver, fvec)
    if reference is None:
        reference = scan_pairs_reference(solver, fvec)
    assert hits == reference
    # the capped scan, as sparse_decompose runs it
    assert _scan_pairs(solver, fvec, 1) == hits[:1]
    return solver, fvec, hits


def char_fn(tt, planted, level):
    grp = points(tt)
    lift = level // grp.exponent
    out = {}
    for e in regular_elements(tt):
        acc = CycNum.zero(level)
        for cexps, c in planted:
            acc = acc + root(level, lift * AbChar(grp, cexps).value_exponent(e)) * c
        out[e] = acc
    return out


@lru_cache(maxsize=None)
def gl2_sheet(q):
    return build_gl2_sheet(q)


@lru_cache(maxsize=None)
def row_reference(q, i, tt):
    """The pairwise oracle's hits on row i of the q sheet, on torus tt;
    kept, as two tests compare with them."""
    values = gl2_sheet(q).rows[i].values[tt.blocks]
    return scan_pairs_reference(*solver_input(values, tt))


@pytest.mark.parametrize("q, every", [(11, 1), (13, 1), (17, 11)])
def test_indexed_scan_matches_oracle_on_sheet_rows(q, every):
    sheet = gl2_sheet(q)
    for i in range(0, len(sheet.rows), every):
        for tt in sheet.tori:
            assert_same_hits(sheet.rows[i].values[tt.blocks], tt,
                             row_reference(q, i, tt))


class EveryEntry(dict):
    """A dirs whose every lookup lists every entry: each hash collides."""

    def get(self, key, default=None):
        return [entry for entries in self.values() for entry in entries]


@pytest.mark.parametrize("q", [11, 13])
def test_colliding_direction_hashes_leave_the_hits(monkeypatch, q):
    # dirs is keyed by the hash of a direction; an entry of another
    # direction makes a pair that fails at sample 0, so the hits stay the
    # pairwise oracle's
    sheet = gl2_sheet(q)
    for tt in sheet.tori:
        solver = _solver(tt, sheet.zeta_level)
        monkeypatch.setitem(vars(solver), "dirs", EveryEntry(solver.dirs))
        for i, row in enumerate(sheet.rows):
            assert_same_hits(row.values[tt.blocks], tt,
                             row_reference(q, i, tt))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_indexed_scan_matches_oracle_on_planted_functions(data):
    tt = data.draw(st.sampled_from(TORI))
    grp = points(tt)
    q = tt.spec.q
    level = data.draw(st.sampled_from([grp.exponent, q * q - 1]))
    first = regular_elements(tt)[0]
    exps = st.tuples(*(st.integers(0, m - 1) for m in grp.moduli))
    a = data.draw(exps)
    if data.draw(st.booleans()):
        # difference character with zeta^{d(s0)} = +-1: rational g0
        deltas = [d for d in product(*(range(m) for m in grp.moduli))
                  if 2 * AbChar(grp, d).value_exponent(first) % grp.exponent == 0
                  and any(d)]
        d = data.draw(st.sampled_from(deltas))
    else:
        d = data.draw(exps.filter(any))
    b = tuple((x + y) % m for x, y, m in zip(a, d, grp.moduli))
    coeffs = data.draw(st.lists(st.integers(-4, 4).filter(bool),
                                min_size=2, max_size=2))
    planted = sorted(zip((a, b), coeffs))
    _, _, hits = assert_same_hits(char_fn(tt, planted, level), tt)
    idx = {ch.cexps: i for i, ch in enumerate(_solver(tt, level).chars)}
    (ca, c1), (cb, c2) = planted
    assert (idx[ca], idx[cb], c1, c2) in hits


@pytest.mark.parametrize("tt", TORI, ids=lambda t: f"q{t.spec.q}-{t.label}")
def test_zero_function_takes_rational_branch(tt):
    zero = {e: CycNum.zero(tt.spec.q ** 2 - 1) for e in regular_elements(tt)}
    solver, fvec, hits = assert_same_hits(zero, tt)
    assert hits == []
    shift = _shifter(solver, fvec)
    assert all(not any(shift(0, row[0])[1:])
               for row in table_reference(tt, solver.level))


@settings(max_examples=10, deadline=None)
@given(q=st.sampled_from([11, 13]), data=st.data())
def test_principal_half_shift_rows_take_rational_branch(q, data):
    # principal:k,k+(q-1)/2 on the split torus: at the first regular point
    # (0, 1) the two terms differ by zeta^{(q^2-1)/2} = -1, so g0 = 0 for
    # the character (k, k + (q-1)/2) of the planted pair
    h = (q - 1) // 2
    k = data.draw(st.integers(0, h - 1))
    sheet = gl2_sheet(q)
    tt = sheet.tori[0]
    solver, fvec, hits = assert_same_hits(
        sheet.row(f"principal:{k},{k + h}").values[tt.blocks], tt)
    ia = next(i for i, ch in enumerate(solver.chars)
              if ch.cexps == (k, k + h))
    shift = _shifter(solver, fvec)
    assert not any(shift(0, table_reference(tt, solver.level)[ia][0])[1:])
    assert [(solver.chars[i].cexps, solver.chars[j].cexps, ca, cb)
            for i, j, ca, cb in hits] == [((k, k + h), (k + h, k), 1, 1)]


# -- shifts by companion step -----------------------------------------------

SHIFT_LEVELS = [1, 2, 3, 120, 168, 360]


def shift_solver(N):
    # _shifter reads only the level and its reduction table
    ctx = _context(N)
    return SimpleNamespace(level=N, red=ctx.red, phi=ctx.phi)


def exponent_order(N, how, rng):
    es = list(range(N))
    if how == "descending":
        es.reverse()
    elif how == "random":
        rng.shuffle(es)
        es += [rng.randrange(N) for _ in range(N)]  # repeats hit the memo
    return es


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from(SHIFT_LEVELS),
       how=st.sampled_from(["ascending", "descending", "random"]),
       data=st.data())
def test_shifts_match_plain_fold(N, how, data):
    solver = shift_solver(N)
    coord = st.one_of(st.just(0), st.integers(-50, 50))
    fvec = [tuple(data.draw(st.lists(coord, min_size=solver.phi,
                                     max_size=solver.phi)))
            for _ in range(2)]
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    shift = _shifter(solver, fvec)
    for e in exponent_order(N, how, rng):
        for s in range(2):
            assert shift(s, e) == mul_root(fvec[s], (N - e) % N,
                                           solver.red, N)


@pytest.mark.parametrize("N", SHIFT_LEVELS)
@pytest.mark.parametrize("how", ["ascending"])
def test_monotone_shifts_fold_once_per_sample(monkeypatch, N, how):
    # after the first exponent every shift has its cached neighbour e - 1,
    # so the fold runs once per sample and each step is one companion step
    # (in descending order every shift is a fold, which
    # test_shifts_match_plain_fold checks for values)
    calls = []
    fold = recovery._fold
    monkeypatch.setattr(recovery, "_fold",
                        lambda *a: calls.append(1) or fold(*a))
    solver = shift_solver(N)
    rng = random.Random(N)
    fvec = [tuple(rng.randint(-9, 9) for _ in range(solver.phi))
            for _ in range(3)]
    shift = _shifter(solver, fvec)
    for e in exponent_order(N, how, rng):
        for s in range(3):
            assert shift(s, e) == mul_root(fvec[s], (N - e) % N,
                                           solver.red, N)
    assert len(calls) == 3
