"""Recovery tests: frozen examples, dual-route solver checks, error paths.

The subset scan has two independent implementations: the integer fast path
inside sparse_decompose and the rational Gauss-Jordan reference solver in
oracle_pairs.  They are compared subset by subset here, so a screening bug
in the fast path cannot silently change which expansions are accepted.
"""

import copy
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glchar.abelian import AbChar
from glchar.cyclotomic import CycNum, _context, root
from glchar.recovery import (
    Expansion,
    NoExpansionError,
    QConditionViolated,
    RecoveryInconsistencyError,
    _TorusSolver,
    _scan_pairs,
    _scan_singles,
    _solver,
    gram_independence,
    is_unipotent,
    recover_E,
    sparse_decompose,
)
import glchar.recovery as recovery
from glchar.sheets import (
    CharacterSheet,
    IndexRow,
    SheetRow,
    SheetValidationError,
    ValueTable,
    build_gl1_sheet,
    build_gl2_sheet,
    sheet_from_dict,
    sheet_to_json_text,
    validate_sheet,
    zeta_level_for,
)
from glchar.tori import (
    GroupSpec, TorusType, check_q_condition, enumerate_tori, is_prime_power,
    points, positions, regular_elements)

from oracle_conjugacy import weyl_orbit
from oracle_pairs import solve_subset_reference
from oracle_pattern import verify_dl_consistency

SPEC11 = GroupSpec(2, 11)
SPLIT11 = TorusType(SPEC11, (1, 1))
ELL11 = TorusType(SPEC11, (2,))


def char_fn(ttype, cexps_coeffs, level=None):
    """Build the value map of an integer character combination."""
    grp = points(ttype)
    L = grp.exponent
    N = level or L
    out = {}
    for e in regular_elements(ttype):
        acc = CycNum.zero(N)
        for cexps, c in cexps_coeffs:
            ch = AbChar(grp, cexps)
            acc = acc + root(N, (N // L) * ch.value_exponent(e)) * c
        out[e] = acc
    return out


def terms_of(expansion):
    return [(th.cexps, c) for th, c in expansion.terms]


# -- sparse_decompose: frozen examples --------------------------------------

def test_zero_function_gives_empty_expansion():
    f = {e: CycNum.zero(10) for e in regular_elements(SPLIT11)}
    e = sparse_decompose(f, SPLIT11)
    assert e.m == 0 and e.terms == ()


def test_constant_one_gives_trivial_character():
    f = {e: root(10, 0) for e in regular_elements(SPLIT11)}
    e = sparse_decompose(f, SPLIT11)
    assert terms_of(e) == [((0, 0), 1)]


def test_cuspidal_elliptic_values_invert():
    # f(a) = -zeta^a - zeta^(11a) at level 120 recovers both characters
    f = {(a,): -root(120, a) - root(120, 11 * a)
         for (a,) in regular_elements(ELL11)}
    e = sparse_decompose(f, ELL11)
    assert terms_of(e) == [((1,), -1), ((11,), -1)]


@pytest.mark.parametrize("q", [11, 13])
def test_plain_dict_rows_recover_like_index_rows(q):
    built, plain = build_gl2_sheet(q), build_gl2_sheet(q)
    for r in plain.rows:
        r.values = {b: dict(m) for b, m in r.values.items()}
    assert validate_sheet(plain).ok
    for r in built.rows:
        assert recover_E(plain, r.label) == recover_E(built, r.label), r.label


def test_bound_above_two_is_rejected():
    # |W| = 6 for GL_3: refused before the gate, with the reason
    tt3 = TorusType(GroupSpec(3, 2), (1, 1, 1))
    with pytest.raises(ValueError, match="at most two terms"):
        sparse_decompose({}, tt3)
    spec = GroupSpec(1, 7)
    (tt,) = [TorusType(spec, (1,))]
    f = char_fn(tt, [((1,), 1), ((2,), 1), ((3,), 1)])
    # the bound is |W| = 1 here; three terms have no expansion
    with pytest.raises(NoExpansionError, match="at most 1 nonzero"):
        sparse_decompose(f, tt)


def test_bound_zero_only_matches_zero():
    f = {e: CycNum.zero(10) for e in regular_elements(SPLIT11)}
    assert sparse_decompose(f, SPLIT11).m == 0
    f[regular_elements(SPLIT11)[0]] = root(10, 0)
    # not a class function, but domain checks do not care; neither the
    # empty expansion nor any one- or two-term one matches
    with pytest.raises(NoExpansionError, match="at most 2 nonzero"):
        sparse_decompose(f, SPLIT11)


def test_indicator_function_has_no_expansion():
    regs = regular_elements(ELL11)
    f = {e: CycNum.zero(120) for e in regs}
    f[regs[0]] = root(120, 0)
    with pytest.raises(NoExpansionError):
        sparse_decompose(f, ELL11)


def test_fractional_values_cannot_be_built():
    # values lie in Z[zeta_N]: a rational or bool coordinate is refused
    # where the value is made, so no search ever sees one
    for bad in (Fraction(1, 2), True):
        with pytest.raises(TypeError, match="is not an int"):
            CycNum(10, [bad])
        with pytest.raises(TypeError, match="is not an int"):
            CycNum.from_terms(10, {0: bad})
        with pytest.raises(TypeError, match="is not an int"):
            CycNum.from_terms(10, [(3, 1), (0, bad)])


def test_mixed_level_values_are_lifted():
    # values at the torus exponent 10 and at 120 are lifted to level 120
    f = char_fn(SPLIT11, [((2, 5), 3)], level=120)
    low = char_fn(SPLIT11, [((2, 5), 3)])
    mixed = dict(f)
    for e in regular_elements(SPLIT11)[::2]:
        mixed[e] = low[e]
    assert {v.level for v in mixed.values()} == {10, 120}
    assert sparse_decompose(mixed, SPLIT11) == sparse_decompose(f, SPLIT11)
    assert terms_of(sparse_decompose(mixed, SPLIT11)) == [((2, 5), 3)]


def test_domain_mismatch_rejected():
    f = {e: CycNum.zero(10) for e in regular_elements(SPLIT11)}
    del f[(0, 1)]
    with pytest.raises(ValueError, match="regular locus"):
        sparse_decompose(f, SPLIT11)
    f[(0, 1)] = CycNum.zero(10)
    f[(3, 3)] = CycNum.zero(10)  # non-regular point
    with pytest.raises(ValueError, match="regular locus"):
        sparse_decompose(f, SPLIT11)


def test_keys_of_the_wrong_length_are_refused():
    # a third coordinate on the rank-2 split torus is an error, not a key
    # truncated to its first two coordinates
    f = char_fn(SPLIT11, [((2, 5), 3)])
    longer = {e + (0,): v for e, v in f.items()}
    with pytest.raises(ValueError, match=r"regular locus.*extra \[\(0, 1, 0\)"):
        sparse_decompose(longer, SPLIT11)
    # keys are not reduced mod the moduli: the domain must be the regular
    # tuples themselves
    shifted = {(i + 10, j - 10): v for (i, j), v in f.items()}
    with pytest.raises(ValueError, match="regular locus"):
        sparse_decompose(shifted, SPLIT11)


def test_expansion_coefficient_is_a_plain_int():
    # True is an int too, and would print as True*theta(1, 0)
    th = points(SPLIT11).char((1, 0))
    with pytest.raises(ValueError, match="not a nonzero integer"):
        Expansion(SPLIT11, ((th, True),))
    assert Expansion(SPLIT11, ((th, 1),)).describe() == "1*theta(1, 0)"


def test_gate_refusal_is_total():
    spec = GroupSpec(2, 3)
    tt = TorusType(spec, (1, 1))
    f = {e: CycNum.zero(2) for e in regular_elements(tt)}
    with pytest.raises(QConditionViolated):
        sparse_decompose(f, tt)
    with pytest.raises(QConditionViolated):
        recover_E(build_gl2_sheet(3), "steinberg:0")
    with pytest.raises(QConditionViolated):
        is_unipotent(build_gl2_sheet(3), "no such row")
    grp = points(tt)
    with pytest.raises(QConditionViolated):
        gram_independence(tt, [grp.char((0, 0))])


def test_first_hit_is_verified_on_the_whole_locus():
    # the search stops at its first hit, so that hit must still be checked
    # on every regular element: a one-term function changed only at the
    # last sample the check reads has no expansion at all
    f = char_fn(SPLIT11, [((2, 5), 1)])
    solver = _solver(SPLIT11, 10)
    last = regular_elements(SPLIT11)[solver.order[-1]]
    f[last] = f[last] + root(10, 0)
    with pytest.raises(NoExpansionError, match="at most 2 nonzero"):
        sparse_decompose(f, SPLIT11)


def test_uniqueness_hypothesis_holds_wherever_the_gate_passes():
    # the search takes its first verified expansion as the only one, by the
    # uncertainty bound: that needs every non-regular ratio below
    # 1/(2|W|), which the gate's 2^(1-2|W|) implies for every |W| >= 1
    for w in range(1, 721):
        assert Fraction(1, 2 ** (2 * w - 1)) <= Fraction(1, 2 * w), w
    gated = 0
    for n in (1, 2):
        for q in filter(is_prime_power, range(2, 65)):
            rep = check_q_condition(GroupSpec(n, q))
            if rep.ok:
                gated += 1
                for tt, r in rep.ratios:
                    assert r * 2 * rep.spec.weyl_order < 1, (n, q, tt.label)
    assert gated == 27 + 20  # every GL_1, and GL_2 from q = 11 on


def planted_sheet():
    """The q=11 sheet with cuspidal:1 no class function: its elliptic value
    at (1,) moved, and at the class partner (11,) kept."""
    sheet = build_gl2_sheet(11)
    row = sheet.row("cuspidal:1")
    vals = row.values[(2,)] = dict(row.values[(2,)])  # built rows are read-only
    vals[(1,)] = vals[(1,)] + 1
    return sheet


def test_recover_e_ignores_jobs():
    # the benchmark probe still passes validate= and jobs=2; the search is
    # serial, and no keyword makes recover_E check the sheet
    sheet = planted_sheet()
    for label in ("onedim:3", "steinberg:3", "principal:2,5", "cuspidal:7"):
        serial = recover_E(build_gl2_sheet(11), label).to_dict()
        for kw in ({"jobs": 2}, {"validate": True}, {"validate": False},
                   {"validate": True, "jobs": 2}):
            assert recover_E(sheet, label, **kw).to_dict() == serial, (
                label, kw)


def test_recover_e_validates_no_sheet(monkeypatch):
    # the loader checks a sheet once, by the header and value passes of
    # validate_sheet; recovering every row checks it never
    import glchar.sheets as sheets
    calls = []

    def counted(name):
        real = getattr(sheets, name)
        return lambda sheet: calls.append(name) or real(sheet)

    for name in ("validate_sheet", "_header_violations", "_value_violations"):
        monkeypatch.setattr(sheets, name, counted(name))
    monkeypatch.setattr(recovery, "validate_sheet", sheets.validate_sheet,
                        raising=False)
    sheet = build_gl2_sheet(11)
    for lab in sheet.labels():
        recover_E(sheet, lab)
    assert calls == []
    sheet_from_dict(json.loads(sheet_to_json_text(sheet)))
    assert calls == ["_header_violations", "_value_violations"]


def test_planted_violation_spares_other_rows_and_fails_the_loader():
    pristine, sheet = build_gl2_sheet(11), planted_sheet()
    for lab in pristine.labels():
        if lab != "cuspidal:1":
            assert recover_E(sheet, lab) == recover_E(pristine, lab), lab
    # the planted row's own answer fails its check on the regular locus
    with pytest.raises(NoExpansionError):
        recover_E(sheet, "cuspidal:1")
    with pytest.raises(KeyError):
        is_unipotent(sheet, "no such row")
    with pytest.raises(SheetValidationError, match="not constant"):
        sheet_from_dict(json.loads(sheet_to_json_text(sheet)))


# -- per-sheet memo ------------------------------------------------------------

def counting(monkeypatch):
    """Wrap sparse_decompose so each real search is logged."""
    calls = []
    real = recovery.sparse_decompose

    def wrapper(f, T, **kw):
        calls.append((T, len(f)))
        return real(f, T, **kw)

    monkeypatch.setattr(recovery, "sparse_decompose", wrapper)
    return calls


@pytest.mark.parametrize("q, searches", [(11, 16), (13, 18)])
def test_sheet_memo_matches_fresh_sheet_per_row(monkeypatch, q, searches):
    sheet = build_gl2_sheet(q)
    calls = counting(monkeypatch)
    whole = [recover_E(sheet, lab) for lab in sheet.labels()]
    # one search per twist class of (torus, function) inputs
    assert len(calls) == searches
    assert len(sheet.rows) * len(sheet.tori) == {11: 240, 13: 336}[q]
    # one (twists, expected) per (torus, level); each search is stored
    # once: the zero function under None, any other expansion under the
    # rotations (s*, v) of its first nonzero value
    memo = vars(sheet)["_memo"]
    assert set(memo) == {(tt, sheet.zeta_level) for tt in sheet.tori}
    twists = [t for t, _ in memo.values()]
    stored = {(id(t), k[0], entry[1:]) for t in twists
              for k, entries in t.items() if k is not None
              for entry in entries}
    assert len(stored) + sum(None in t for t in twists) == searches
    assert all(k is None or len(k) == 2 for t in twists for k in t)
    for lab, rep in zip(sheet.labels(), whole):
        # a new instance per row carries an empty memo, so every torus runs
        # its own search
        fresh = CharacterSheet(sheet.spec, sheet.zeta_level, sheet.tori,
                               sheet.rows)
        assert "_memo" not in vars(fresh)
        del calls[:]
        assert recover_E(fresh, lab) == rep
        assert len(calls) == len(sheet.tori)


@pytest.mark.parametrize("change", ["extra", "missing"])
def test_memo_never_serves_a_different_domain(monkeypatch, change):
    sheet = build_gl2_sheet(11)
    calls = counting(monkeypatch)
    recover_E(sheet, "onedim:3")
    vals = {bl: dict(m) for bl, m in sheet.row("onedim:3").values.items()}
    split = vals[SPLIT11.blocks]
    if change == "extra":
        split[(4, 4)] = split[(0, 1)]  # (4, 4) is not regular
    else:
        del split[(0, 1)]
    sheet.rows.append(SheetRow("hostile", 1, vals))
    memo = vars(sheet)["_memo"]
    before = copy.deepcopy(memo)
    del calls[:]
    for _ in range(2):  # errors are not memoized: both calls raise
        with pytest.raises(ValueError, match="does not match the regular"):
            recover_E(sheet, "hostile")
    # refused before any search, and nothing stored for the hostile row
    assert calls == []
    assert memo == before


def test_two_sheets_do_not_share_a_memo(monkeypatch):
    first, second = build_gl2_sheet(11), build_gl2_sheet(11)
    calls = counting(monkeypatch)
    rep = recover_E(first, "principal:2,5")
    assert recover_E(first, "principal:2,5") == rep
    assert len(calls) == 2
    assert "_memo" not in vars(second)
    assert recover_E(second, "principal:2,5") == rep
    assert len(calls) == 4
    one, two = vars(first)["_memo"], vars(second)["_memo"]
    assert one is not two and set(one) == set(two)
    assert all(x is not y for key in one for x, y in zip(one[key], two[key]))


SOLVER_ATTRS = {"ttype", "level", "group", "regs", "red", "phi", "chars",
                "_col", "_pivot", "_at", "sep", "order", "gens", "pin",
                "rational", "dirs", "exp_of"}


def test_rational_refuses_a_character_constant_on_the_locus():
    # off the gate: the split torus of GL_2(F_3) has two regular elements,
    # and the character (1, 1) is -1 at both, so it has no probe
    tt = TorusType(GroupSpec(2, 3), (1, 1))
    solver = _TorusSolver(tt, 2)
    d = [ch.cexps for ch in solver.chars].index((1, 1))
    assert list(solver.exps(d)) == [1, 1]
    assert d in solver.pin.values()
    with pytest.raises(ValueError, match=r"\(1, 1\) is constant on the "
                       r"regular locus of 1\+1"):
        solver.rational


def test_solvers_retain_little_memory_at_q41():
    # a K x R exponent table held 179 MiB at q=41; the cached columns, the
    # generator columns and the pair index hold a few MiB.  The reduction
    # table and the regular elements are module caches shared with the
    # sheet, so they are made before counting
    spec = GroupSpec(2, 41)
    level = zeta_level_for(spec)
    _context(level)
    tori = enumerate_tori(spec)
    for tt in tori:
        regular_elements(tt)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [_TorusSolver(tt, level) for tt in tori]
        for solver in kept:
            solver.sep, solver.pin, solver.dirs, solver.rational
            solver.at(0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 16 << 20, retained
    assert all(set(vars(s)) <= SOLVER_ATTRS for s in kept)


def test_value_memo_lives_on_the_sheet():
    sheet = build_gl2_sheet(11)
    for lab in sheet.labels():
        recover_E(sheet, lab)
    memo = vars(sheet)["_memo"]
    # the one per-sheet entry beside the four fields
    assert set(vars(sheet)) == {"spec", "zeta_level", "tori", "rows", "_memo"}
    # one memo of expected values per (torus, level), beside its twists
    assert set(memo) == {(tt, sheet.zeta_level) for tt in sheet.tori}
    assert all(not isinstance(v, dict) for twists, _ in memo.values()
               for v in twists.values())
    # verified hits took the sheet's own value tuples into the memo
    own = {id(v.num) for row in sheet.rows for f in row.values.values()
           for v in f.values()}
    held = [v for _, expected in memo.values() for v in expected.values()]
    assert held and any(id(v) in own for v in held)
    # the cached solvers hold no memo and gain no attribute for one
    for tt in sheet.tori:
        solver = _solver(tt, sheet.zeta_level)
        assert set(vars(solver)) <= SOLVER_ATTRS
        assert not any(v is d for v in vars(solver).values()
                       for entry in memo.values() for d in entry)
    # a copy starts without the memo, and builds its own
    copy_ = CharacterSheet(sheet.spec, sheet.zeta_level, sheet.tori,
                           sheet.rows)
    assert "_memo" not in vars(copy_)
    recover_E(copy_, "principal:2,5")
    theirs = vars(copy_)["_memo"]
    assert theirs is not memo
    assert all(theirs[k][1] is not memo[k][1] for k in theirs)


def twist(f, ttype, cexps, level=120):
    """f times the character theta_cexps, pointwise: theta(e) is a root
    zeta^x, so each power-basis term n zeta^i of f(e) moves to
    n zeta^(i + x)."""
    grp = points(ttype)
    theta, scale = AbChar(grp, cexps), level // grp.exponent
    return {e: CycNum.from_terms(level, (
                (i + scale * theta.value_exponent(e), n)
                for i, n in enumerate(v.num)))
            for e, v in f.items()}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_twist_memo_serves_only_verified_twists(data):
    tt = data.draw(st.sampled_from([SPLIT11, ELL11]))
    grp = points(tt)
    char = st.tuples(*(st.integers(0, mod - 1) for mod in grp.moduli))
    m = data.draw(st.integers(1, 2))
    cexps = data.draw(st.lists(char, min_size=m, max_size=m, unique=True))
    coeffs = data.draw(st.lists(
        st.integers(-4, 4).filter(bool), min_size=m, max_size=m))
    planted = sorted(zip(cexps, coeffs))
    twisted = twist(char_fn(tt, planted, 120), tt, data.draw(char))
    regs = regular_elements(tt)
    s = data.draw(st.integers(0, len(regs) - 1))
    changed = dict(twisted)
    changed[regs[s]] = changed[regs[s]] + 1
    memo = {}
    with pytest.MonkeyPatch.context() as mp:
        calls = counting(mp)
        base = recovery._memo_decompose(memo, char_fn(tt, planted, 120), tt)
        assert terms_of(base) == planted and len(calls) == 1
        # one value off: no candidate twist verifies, so the search runs
        with pytest.raises(NoExpansionError):
            recovery._memo_decompose(memo, changed, tt)
        assert len(calls) == 2
        # an exact twist is served with no search
        got = recovery._memo_decompose(memo, twisted, tt)
        assert len(calls) == 2
    assert got == sparse_decompose(twisted, tt)


@pytest.mark.parametrize("ttype", [SPLIT11, ELL11], ids=lambda t: t.label)
def test_twist_memo_zero_function(monkeypatch, ttype):
    regs = regular_elements(ttype)
    zero = {e: CycNum.zero(120) for e in regs}
    memo = {}
    calls = counting(monkeypatch)
    first = recovery._memo_decompose(memo, zero, ttype)
    assert first.m == 0 and len(calls) == 1
    assert memo[ttype, 120][0] == {None: first}
    assert recovery._memo_decompose(memo, dict(zero), ttype) == first
    assert len(calls) == 1
    one_point = dict(zero)
    one_point[regs[-1]] = root(120, 0)
    with pytest.raises(NoExpansionError):
        recovery._memo_decompose(memo, one_point, ttype)
    assert len(calls) == 2
    assert memo[ttype, 120][0] == {None: first}


def vanishing_rows(q):
    """Rows of the GL_2(F_q) sheet that vanish at the first regular point
    of a torus: principal:k,k+(q-1)/2 on the split torus, where the two
    terms differ by -1 at (0, 1), and cuspidal:c on the elliptic torus
    with zeta^{(q-1)c} = -1 at a = 1."""
    sheet = build_gl2_sheet(q)
    h = (q - 1) // 2
    N = q * q - 1
    cusp = [lab for lab in sheet.labels() if lab.startswith("cuspidal:")
            and (q - 1) * int(lab.split(":")[1]) % N == N // 2]
    return sheet, {(1, 1): [f"principal:{k},{k + h}" for k in range(h)],
                   (2,): cusp}


@pytest.mark.parametrize("blocks", [(1, 1), (2,)], ids=["split", "elliptic"])
def test_twist_memo_rows_vanishing_at_sample_zero(monkeypatch, blocks):
    sheet, rows = vanishing_rows(11)
    tt = TorusType(SPEC11, blocks)
    labels = rows[blocks]
    assert len(labels) >= 2
    memo = {}
    calls = counting(monkeypatch)
    got = []
    for lab in labels:
        f = sheet.row(lab).values[blocks]
        assert f[regular_elements(tt)[0]].is_zero()
        got.append(recovery._memo_decompose(memo, f, tt))
    # the rows are twists of one another: one search, then verified hits
    assert len(calls) == 1
    monkeypatch.undo()
    for lab, e in zip(labels, got):
        assert e == sparse_decompose(sheet.row(lab).values[blocks], tt), lab


# -- prepared value tables ----------------------------------------------------

def prepare_oracle(f, tt):
    """(level, fvec, s*) of f read value by value, with no table."""
    vals = [f[e] for e in regular_elements(tt)]
    level = math.lcm(points(tt).exponent, *(v.level for v in vals))
    return (level, [v.lift(level).num for v in vals],
            next((p for p, v in enumerate(vals) if not v.is_zero()), None))


def sheet_table(sheet):
    """The one value table every row of a built GL_2 sheet indexes."""
    (table,) = {id(r.values[tt.blocks].table): r.values[tt.blocks].table
                for r in sheet.rows for tt in sheet.tori}.values()
    return table


@pytest.mark.parametrize("q", [11, 13, 16])
def test_prepared_tables_match_uncached_prepare(q):
    sheet = build_gl2_sheet(q)
    zero_on = set()
    for r in sheet.rows:
        for tt in sheet.tori:
            f = r.values[tt.blocks]
            # the sheet's table, prepared once; a dict copy, indexed into a
            # new table and prepared afresh; the oracle, with no table
            got = recovery._prepare(f, tt)
            assert got == recovery._prepare(dict(f), tt) == \
                prepare_oracle(f, tt), (r.label, tt.label)
            if got[2] is None:
                zero_on.add((r.label.partition(":")[0], tt.label))
    # rows that vanish on a whole torus take the cached path too
    assert zero_on == {("cuspidal", "1+1"), ("principal", "2")}
    # every row indexes the sheet's one table: one entry per torus on it
    assert set(vars(sheet_table(sheet))) == set(sheet.tori)


def test_prepared_table_at_two_levels_is_lifted():
    # every other entry of the table lifted to level 2N: the row's level is
    # 2N, and the entries still at N are lifted in the prepared table
    sheet = build_gl2_sheet(11)
    tt, N = ELL11, sheet.zeta_level
    row = sheet.row("cuspidal:1")
    view = row.values[tt.blocks]
    table = tuple(v.lift(2 * N) if i % 2 else v
                  for i, v in enumerate(view.table))
    mixed = IndexRow(view.pos, table, view.idx)
    for f in (view, mixed, view, mixed):
        assert recovery._prepare(f, tt) == prepare_oracle(f, tt)
    assert recovery._prepare(mixed, tt)[0] == 2 * N
    assert vars(mixed.table)[tt][0] == 2 * N
    assert vars(view.table)[tt][0] == N
    rep = recover_E(sheet, "cuspidal:1")
    row.values[tt.blocks] = mixed
    assert recover_E(sheet, "cuspidal:1") == rep


def test_prepared_tables_hold_their_tables():
    # one-entry tables made and dropped in turn: the id of a dropped table
    # is soon reused, but each table carries its own preparation, so none
    # is served the values of a dead one
    pos = positions(SPLIT11)
    zeros = [0] * len(pos)
    memo = {}
    for c in (1, 2, -1, 3, -2, 4):
        row = IndexRow(pos, (CycNum.from_terms(120, [(0, c)]),), zeros)
        got = recovery._memo_decompose(memo, row, SPLIT11)
        assert terms_of(got) == [((0, 0), c)]
        assert vars(row.table)[SPLIT11][1] == [row.table[0].num]
        del row


def test_prepared_tables_live_on_the_sheet():
    sheet = build_gl2_sheet(11)
    for lab in sheet.labels():
        recover_E(sheet, lab)
    # the sheet's one table carries one entry per torus
    table = sheet_table(sheet)
    assert set(vars(table)) == set(sheet.tori)
    # the cached solvers gain no attribute for it
    for tt in sheet.tori:
        assert set(vars(_solver(tt, sheet.zeta_level))) <= SOLVER_ATTRS
    # a copy shares the table, and so its entries; another sheet has its
    # own table and prepares it afresh
    copy_ = CharacterSheet(sheet.spec, sheet.zeta_level, sheet.tori,
                           sheet.rows)
    assert sheet_table(copy_) is table
    other = build_gl2_sheet(11)
    theirs = sheet_table(other)
    assert theirs is not table and not vars(theirs)
    recover_E(other, "principal:2,5")
    assert set(vars(theirs)) == set(sheet.tori)
    assert all(vars(theirs)[tt] is not vars(table)[tt] for tt in sheet.tori)


def test_plain_map_rows_are_prepared_per_call():
    # a plain map is indexed into a new table on every call, so recovering
    # it again leaves the sheet's own table as it was
    sheet = build_gl2_sheet(11)
    rep = recover_E(sheet, "principal:2,5")
    table = sheet_table(sheet)
    before = dict(vars(table))
    vals = {blocks: dict(view)
            for blocks, view in sheet.row("principal:2,5").values.items()}
    sheet.rows.append(SheetRow("copy", 12, vals))
    for _ in range(2):
        got = recover_E(sheet, "copy")
        assert got.expansions == rep.expansions
    assert vars(table).keys() == before.keys()
    assert all(vars(table)[tt] is before[tt] for tt in before)


def test_sparse_decompose_reuses_the_prepared_table():
    # a library call on a built row, after recover_E, takes the entry that
    # recover_E left on the table, and lifts nothing again
    sheet = build_gl2_sheet(11)
    rep = recover_E(sheet, "cuspidal:1")
    f = sheet.row("cuspidal:1").values[ELL11.blocks]
    entry = vars(f.table)[ELL11]
    assert sparse_decompose(f, ELL11) == rep.expansions[1]
    assert vars(f.table)[ELL11] is entry


def test_memo_miss_prepares_once(monkeypatch):
    # the search a miss runs reads the entry _memo_decompose just made: the
    # table is passed over as often as by one preparation
    sheet = build_gl2_sheet(11)
    view = sheet.row("principal:2,5").values[SPLIT11.blocks]
    passes = []

    class Spy(ValueTable):
        def __iter__(self):
            passes.append(1)
            return super().__iter__()

    recovery._prepare(IndexRow(view.pos, Spy(view.table), view.idx), SPLIT11)
    once = len(passes)
    assert once
    del passes[:]
    calls = counting(monkeypatch)
    row = IndexRow(view.pos, Spy(view.table), view.idx)
    got = recovery._memo_decompose({}, row, SPLIT11)
    assert len(calls) == 1 and len(passes) == once
    monkeypatch.undo()
    assert got == sparse_decompose(view, SPLIT11)


# -- dual-route agreement ----------------------------------------------------

def test_reference_agrees_on_all_small_subsets():
    spec = GroupSpec(1, 7)
    (tt,) = [TorusType(spec, (1,))]
    solver = _solver(tt, 6)
    K = len(solver.chars)
    for planted in ([((1,), 2)], [((2,), 1), ((4,), -3)], []):
        f = char_fn(tt, planted)
        fvec = [f[e].num for e in solver.regs]
        singles = dict((ia, c) for ia, c in _scan_singles(solver, fvec, K))
        pairs = {(a, b): (ca, cb)
                 for a, b, ca, cb in _scan_pairs(solver, fvec)}
        for ia in range(K):
            ref = solve_subset_reference(solver, fvec, (ia,))
            assert (ref[0] if ref else None) == singles.get(ia)
        for ia in range(K):
            for ib in range(ia + 1, K):
                ref = solve_subset_reference(solver, fvec, (ia, ib))
                assert (ref or None) == pairs.get((ia, ib))


def test_reference_agrees_on_sampled_gl2_pairs():
    import random
    rng = random.Random(20817)
    sheet = build_gl2_sheet(11)
    row = sheet.row("principal:2,5")
    solver = _solver(SPLIT11, 120)
    fvec = [row.values[(1, 1)][e].num for e in solver.regs]
    hits = {(a, b): (ca, cb)
            for a, b, ca, cb in _scan_pairs(solver, fvec)}
    K = len(solver.chars)
    sample = set()
    while len(sample) < 40:
        a, b = rng.randrange(K), rng.randrange(K)
        if a < b:
            sample.add((a, b))
    sample.update(hits)  # always include the accepted subsets
    for a, b in sorted(sample):
        ref = solve_subset_reference(solver, fvec, (a, b))
        assert (ref or None) == hits.get((a, b)), (a, b)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_planted_expansions_recover_exactly(data):
    tt = data.draw(st.sampled_from([SPLIT11, ELL11]))
    grp = points(tt)
    m = data.draw(st.integers(0, 2))
    cexps = data.draw(st.lists(
        st.tuples(*(st.integers(0, mod - 1) for mod in grp.moduli)),
        min_size=m, max_size=m, unique=True))
    coeffs = data.draw(st.lists(
        st.integers(-4, 4).filter(bool), min_size=m, max_size=m))
    planted = sorted(zip(cexps, coeffs))
    e = sparse_decompose(char_fn(tt, planted), tt)
    assert terms_of(e) == planted


@settings(max_examples=10, deadline=None)
@given(k=st.integers(-5, 5).filter(bool),
       cexps=st.tuples(st.integers(0, 9), st.integers(0, 9)),
       c=st.integers(-3, 3).filter(bool))
def test_scaling_coherence(k, cexps, c):
    f = char_fn(SPLIT11, [(cexps, c)])
    scaled = {e: v * k for e, v in f.items()}
    e1 = sparse_decompose(f, SPLIT11)
    e2 = sparse_decompose(scaled, SPLIT11)
    assert [th for th, _ in e1.terms] == [th for th, _ in e2.terms]
    assert [co * k for _, co in e1.terms] == [co for _, co in e2.terms]


def test_expansion_evaluates_back_to_input():
    row = build_gl2_sheet(11).row("cuspidal:1")
    e = sparse_decompose(row.values[(2,)], ELL11)
    back = char_fn(ELL11, terms_of(e), level=120)
    for exps in list(regular_elements(ELL11))[:8]:
        assert back[exps] == row.values[(2,)][exps]


# -- recover_E ----------------------------------------------------------------

def test_recover_steinberg_report():
    rep = recover_E(build_gl2_sheet(11), "steinberg:0")
    by_torus = {e.torus.blocks: terms_of(e) for e in rep.expansions}
    assert by_torus == {(1, 1): [((0, 0), 1)], (2,): [((0,), -1)]}
    assert rep.epsilon.level == 2 and rep.epsilon.residues == (0, 0)
    assert rep.unipotent


def test_recover_principal_report():
    rep = recover_E(build_gl2_sheet(11), "principal:0,1")
    by_torus = {e.torus.blocks: terms_of(e) for e in rep.expansions}
    assert by_torus == {(1, 1): [((0, 1), 1), ((1, 0), 1)], (2,): []}
    assert rep.epsilon.residues == (0, 12)
    assert not rep.unipotent


def test_recover_onedim_report():
    rep = recover_E(build_gl2_sheet(11), "onedim:2")
    by_torus = {e.torus.blocks: terms_of(e) for e in rep.expansions}
    assert by_torus == {(1, 1): [((2, 2), 1)], (2,): [((24,), 1)]}
    assert rep.epsilon.residues == (24, 24)
    assert not rep.unipotent


def test_recover_json_shape():
    d = recover_E(build_gl2_sheet(11), "cuspidal:1").to_dict()
    assert set(d) == {"label", "expansions", "epsilon", "unipotent"}
    assert d["expansions"][1]["terms"] == [
        {"character": [1], "coefficient": -1},
        {"character": [11], "coefficient": -1},
    ]
    import json
    json.dumps(d)


def test_recover_all_zero_row_is_inconsistent():
    sheet = build_gl2_sheet(11)
    row = sheet.row("cuspidal:1")
    row.values = {
        (1, 1): {e: CycNum.zero(120) for e in regular_elements(SPLIT11)},
        (2,): {e: CycNum.zero(120) for e in regular_elements(ELL11)},
    }
    with pytest.raises(RecoveryInconsistencyError, match="empty support"):
        recover_E(sheet, "cuspidal:1")


def test_recover_mixed_classes_is_inconsistent():
    sheet = build_gl2_sheet(11)
    row = sheet.row("onedim:2")
    # split part still theta(2,2); elliptic replaced by a wrong character
    row.values[(2,)] = char_fn(ELL11, [((36,), 1)], level=120)
    with pytest.raises(RecoveryInconsistencyError, match="geometric classes"):
        recover_E(sheet, "onedim:2")


def test_corrupted_class_function_raises_no_expansion():
    sheet = build_gl2_sheet(11)
    row = sheet.row("cuspidal:1")
    orb = weyl_orbit(ELL11, (1,))
    vals = {e: CycNum.zero(120) for e in regular_elements(ELL11)}
    for e in orb:
        vals[e] = root(120, 0)
    row.values[(2,)] = vals  # constant on classes, so validation passes
    from glchar.sheets import validate_sheet
    assert validate_sheet(sheet).ok
    with pytest.raises(NoExpansionError):
        recover_E(sheet, "cuspidal:1")


# -- is_unipotent -------------------------------------------------------------

def test_unipotent_rows_gl2():
    sheet = build_gl2_sheet(11)
    assert is_unipotent(sheet, "onedim:0")
    assert is_unipotent(sheet, "steinberg:0")
    assert not is_unipotent(sheet, "onedim:3")
    assert not is_unipotent(sheet, "cuspidal:1")


def test_one_term_answers_run_no_pair_scan(monkeypatch):
    # a one-term hit, or the zero function, ends the search: no pair scan
    # runs, and the zero function runs no scan at all
    def refuse(*args, **kwargs):
        raise AssertionError("scan ran")

    monkeypatch.setattr(recovery, "_scan_pairs", refuse)
    e = sparse_decompose(char_fn(SPLIT11, [((2, 5), 3)]), SPLIT11)
    assert terms_of(e) == [((2, 5), 3)]
    assert not is_unipotent(build_gl2_sheet(11), "onedim:3")
    monkeypatch.setattr(recovery, "_scan_singles", refuse)
    zero = {e: CycNum.zero(10) for e in regular_elements(SPLIT11)}
    assert sparse_decompose(zero, SPLIT11).m == 0


def constant_on_every_locus(sheet, label):
    """Unipotence by its other characterisation: the row takes one value
    on the regular locus of each torus."""
    row = sheet.row(label)
    return all(len(set(row.values[tt.blocks].values())) == 1
               for tt in sheet.tori)


@pytest.mark.parametrize("q", [11, 13, 16])
def test_unipotent_flag_equals_constancy_on_every_row(q):
    sheet = build_gl2_sheet(q)
    for row in sheet.rows:
        rep = recover_E(sheet, row.label)
        assert rep.unipotent == constant_on_every_locus(sheet, row.label), \
            row.label


def test_constant_root_of_unity_has_no_expansion():
    # the row is constant (0 on the split locus, zeta on the elliptic one),
    # but zeta * theta_0 is the only short expansion of the constant zeta,
    # and its coefficient is not an integer
    sheet = build_gl2_sheet(11)
    sheet.row("cuspidal:1").values[ELL11.blocks] = dict.fromkeys(
        regular_elements(ELL11), root(120, 1))
    assert constant_on_every_locus(sheet, "cuspidal:1")
    with pytest.raises(NoExpansionError):
        is_unipotent(sheet, "cuspidal:1")


def test_integer_constant_row_reads_unipotent():
    sheet = build_gl2_sheet(11)
    row = sheet.row("cuspidal:1")
    for tt, c in ((SPLIT11, 3), (ELL11, -2)):
        row.values[tt.blocks] = dict.fromkeys(row.values[tt.blocks],
                                              root(120, 0) * c)
    assert constant_on_every_locus(sheet, "cuspidal:1")
    assert is_unipotent(sheet, "cuspidal:1")


# -- gram_independence --------------------------------------------------------

def test_gram_single_trivial_counts_locus():
    grp = points(SPLIT11)
    rep = gram_independence(SPLIT11, [grp.char((0, 0))])
    assert rep.det == len(regular_elements(SPLIT11)) == 90
    assert rep.nonzero


def test_gram_off_diagonal_entry_is_sum_over_locus():
    # det [[G11, G12], [G21, G22]] = |R|^2 - G12 * G21, where R is the
    # regular locus and G12 = sum over s in R of theta_1(s) theta_11(s^-1).
    # theta_1 and its Frobenius conjugate theta_11 are orthogonal on the
    # whole torus but not on R, so G12 is not zero.
    grp = points(ELL11)
    regs = regular_elements(ELL11)
    g12 = CycNum.zero(120)
    g21 = CycNum.zero(120)
    for (a,) in regs:
        g12 = g12 + root(120, a - 11 * a)
        g21 = g21 + root(120, 11 * a - a)
    assert g12 == g21 == -10
    rep = gram_independence(ELL11, [grp.char((1,)), grp.char((11,))])
    assert rep.det == len(regs) ** 2 - 100


def test_gram_four_subset_nonzero():
    grp = points(SPLIT11)
    chars = [grp.char(c) for c in [(0, 0), (0, 1), (1, 0), (1, 1)]]
    assert gram_independence(SPLIT11, chars).nonzero


def test_gram_input_validation():
    grp = points(SPLIT11)
    with pytest.raises(ValueError, match="distinct"):
        gram_independence(SPLIT11, [grp.char((0, 0)), grp.char((0, 0))])
    with pytest.raises(ValueError, match="between 1 and 4"):
        gram_independence(SPLIT11, [grp.char((0, i)) for i in range(5)])
    bad = points(ELL11).char((1,))
    with pytest.raises(ValueError, match="torus points"):
        gram_independence(SPLIT11, [bad])


def test_gram_builds_no_cyclotomic_context():
    # the determinant is an integer formula, so no table of Z[zeta_L] is
    # built: not at level 9,408 for the elliptic torus of q = 97, nor at
    # level 65,535 for GL_1 at q = 65,536, a table of 65,535 rows of
    # phi = 32,768 ints
    ell97 = TorusType(GroupSpec(2, 97), (2,))
    gl1 = TorusType(GroupSpec(1, 65536), (1,))
    for tt, cexps, det in [(ell97, [0, 1, 5, 7], (9408 - 96) ** 4),
                           (gl1, [0, 1], 65535 ** 2)]:
        grp = points(tt)
        before = _context.cache_info().currsize
        rep = gram_independence(tt, [grp.char((c,)) for c in cexps])
        assert _context.cache_info().currsize == before, tt
        assert rep.det == det


# -- verify_dl_consistency ----------------------------------------------------

def test_dl_consistency_clean_sheet():
    rep = verify_dl_consistency(build_gl2_sheet(11))
    assert rep.ok and rep.checked == 120 and rep.mismatches == ()


def test_dl_consistency_flags_single_sign_flip():
    sheet = build_gl2_sheet(11)
    row = sheet.row("steinberg:1")
    row.values[(2,)] = {e: -v for e, v in row.values[(2,)].items()}
    rep = verify_dl_consistency(sheet)
    assert not rep.ok
    assert len(rep.mismatches) == 1
    assert "steinberg:1" in rep.mismatches[0]


def test_dl_consistency_needs_gl2():
    with pytest.raises(ValueError, match="GL_2"):
        verify_dl_consistency(build_gl1_sheet(7))
