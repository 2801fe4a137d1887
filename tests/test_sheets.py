"""Sheet generators, validation, serialization, and the q=3 oracle gate."""

import copy
import json
import tracemalloc
from array import array

import pytest

from glchar.cyclotomic import CycNum, root
from glchar.sheets import (
    CharacterSheet,
    IndexRow,
    IrrLabel,
    SheetFormatError,
    SheetRow,
    SheetValidationError,
    ValueTable,
    _regular_classes,
    build_gl1_sheet,
    build_gl2_sheet,
    build_sheet,
    index_row,
    load_sheet,
    save_sheet,
    sheet_from_dict,
    sheet_to_json_text,
    validate_sheet,
    zeta_level_for,
)
from glchar.tori import (
    GroupSpec,
    enumerate_tori,
    is_prime_power,
    regular_elements,
)

import oracle_dixon
import oracle_formulas
from oracle_conjugacy import weyl_orbit
from oracle_product import mul
from oracle_sheet_dict import sheet_to_dict_v2, v2_text


def test_label_canonicalization():
    spec = GroupSpec(2, 11)
    assert IrrLabel.make(spec, "onedim", (13,)).params == (3,)
    assert IrrLabel.make(spec, "principal", (5, 2)).format() == "principal:2,5"
    # cuspidal 33 ~ 33*11 mod 120 = 3
    assert IrrLabel.make(spec, "cuspidal", (33,)).format() == "cuspidal:3"
    assert IrrLabel.parse(spec, "steinberg:0").dim(spec) == 11
    with pytest.raises(ValueError):
        IrrLabel.make(spec, "principal", (4, 4))
    with pytest.raises(ValueError):
        IrrLabel.make(spec, "cuspidal", (24,))  # multiple of q+1
    with pytest.raises(ValueError):
        IrrLabel.make(spec, "weird", (1,))
    with pytest.raises(ValueError):
        IrrLabel.parse(spec, "cuspidal:x")
    assert IrrLabel.parse(GroupSpec(1, 5), "onedim:7").params == (3,)


def test_gl1_sheet():
    sheet = build_gl1_sheet(5)
    assert len(sheet.rows) == 4
    assert all(r.dim == 1 for r in sheet.rows)
    assert sheet.zeta_level == 4
    (tt,) = sheet.tori
    triv = sheet.row("onedim:0")
    assert all(v == root(4, 0) for v in triv.values[tt.blocks].values())
    row3 = sheet.row("onedim:3")
    for (a,), v in row3.values[tt.blocks].items():
        assert v == root(4, 3 * a)
    assert validate_sheet(sheet).ok


def test_gl2_sheet_q3_shape():
    sheet = build_gl2_sheet(3)
    assert len(sheet.rows) == 8
    assert sum(r.dim**2 for r in sheet.rows) == 48
    assert sheet.zeta_level == 8
    assert [t.label for t in sheet.tori] == ["1+1", "2"]
    st0 = sheet.row("steinberg:0")
    sp, el = sheet.tori
    assert all(v == root(8, 0) for v in st0.values[sp.blocks].values())
    assert all(v == -1 for v in st0.values[el.blocks].values())
    with pytest.raises(ValueError):
        build_sheet(3, 5)


@pytest.mark.parametrize("n, admitted, refused", [(2, 64, 67), (1, 5791, 5801)])
def test_build_sheet_slot_cap_at_its_edges(monkeypatch, n, admitted, refused):
    # the cap counts rows times regular elements from closed forms, before
    # any sheet is built, and admits a sheet of exactly MAX_SHEET_SLOTS
    import glchar.sheets as sheets_mod

    built = []
    for name in ("build_gl1_sheet", "build_gl2_sheet"):
        monkeypatch.setattr(sheets_mod, name, built.append)

    def slots(q):
        spec = GroupSpec(n, q)
        rows = q - 1 if n == 1 else q * q - 1
        return rows * sum(len(regular_elements(t)) for t in enumerate_tori(spec))

    assert slots(admitted) <= sheets_mod.MAX_SHEET_SLOTS < slots(refused)
    assert [p for p in range(admitted + 1, refused)
            if is_prime_power(p)] == []
    build_sheet(n, admitted)
    assert built == [admitted]
    with pytest.raises(ValueError, match=f"has {slots(refused)} slots"):
        build_sheet(n, refused)
    monkeypatch.setattr(sheets_mod, "MAX_SHEET_SLOTS", slots(admitted))
    build_sheet(n, admitted)
    monkeypatch.setattr(sheets_mod, "MAX_SHEET_SLOTS", slots(admitted) - 1)
    with pytest.raises(ValueError, match=f"has {slots(admitted)} slots"):
        build_sheet(n, admitted)
    assert built == [admitted] * 2


def test_gl2_row_count_general():
    for q in (2, 3, 4, 5, 7, 8, 11, 16):
        sheet = build_gl2_sheet(q)
        assert len(sheet.rows) == q * q - 1
        assert sum(r.dim**2 for r in sheet.rows) == GroupSpec(2, q).group_order


def test_elliptic_onedim_value_matches_low_level_form():
    q = 7
    sheet = build_gl2_sheet(q)
    _, el = sheet.tori
    for k in (1, 3):
        row = sheet.row(f"onedim:{k}")
        for (a,), v in row.values[el.blocks].items():
            assert v == root(q - 1, k * a).lift(q * q - 1)


def test_validate_builtin_q11():
    assert validate_sheet(build_gl2_sheet(11)).ok


def test_validate_flags_class_function_violation():
    sheet = build_gl2_sheet(5)
    sp = sheet.tori[0]
    row = sheet.row("principal:0,1")
    # perturb one value of a copy (built rows are read-only); its swap
    # partner keeps the old value
    vals = row.values[sp.blocks] = dict(row.values[sp.blocks])
    vals[(0, 1)] = vals[(0, 1)] + 1
    report = validate_sheet(sheet)
    assert not report.ok
    assert any("not constant" in v for v in report.violations)


# the texts are those of the Weyl-orbit walk that grouped the classes
# before the eigenvalue invariant did
PLANTED = [
    (5, (1, 1), "principal:0,1", (3, 1),
     "row principal:0,1, torus 1+1: not constant on the class of (1, 3) "
     "(differs at (3, 1))"),
    (5, (2,), "cuspidal:1", (5,),
     "row cuspidal:1, torus 2: not constant on the class of (1,) "
     "(differs at (5,))"),
    (11, (1, 1), "principal:2,7", (9, 4),
     "row principal:2,7, torus 1+1: not constant on the class of (4, 9) "
     "(differs at (9, 4))"),
    (11, (2,), "cuspidal:3", (77,),
     "row cuspidal:3, torus 2: not constant on the class of (7,) "
     "(differs at (77,))"),
]


@pytest.mark.parametrize("q,blocks,label,planted,text", PLANTED,
                         ids=["q5-split", "q5-elliptic", "q11-split",
                              "q11-elliptic"])
def test_validate_class_function_violation_text(q, blocks, label, planted,
                                                text):
    sheet = build_gl2_sheet(q)
    row = sheet.row(label)
    vals = row.values[blocks] = dict(row.values[blocks])
    vals[planted] = vals[planted] + 1
    assert validate_sheet(sheet).violations == (text,)


@pytest.mark.parametrize("q,blocks,label,planted,text", PLANTED,
                         ids=["q5-split", "q5-elliptic", "q11-split",
                              "q11-elliptic"])
def test_validate_index_row_violation_text(q, blocks, label, planted, text):
    # the same plant made in the index array: another value of the table
    sheet = build_gl2_sheet(q)
    row = sheet.row(label)
    view = row.values[blocks]
    idx = array(view.idx.typecode, view.idx)
    p = list(view).index(planted)
    idx[p] = (idx[p] + 1) % len(view.table)
    row.values[blocks] = IndexRow(view.pos, view.table, idx)
    assert validate_sheet(sheet).violations == (text,)


def test_index_row_level_violation_text():
    # a table one level off: within each class the levels agree
    sheet = build_gl2_sheet(5)
    row = sheet.row("cuspidal:1")
    view = row.values[(2,)]
    table = [v.lift(2 * sheet.zeta_level) for v in view.table]
    row.values[(2,)] = IndexRow(view.pos, table, view.idx)
    assert validate_sheet(sheet).violations == (
        "row cuspidal:1, torus 2: value at level 48 != 24",)


def test_built_and_loaded_sheets_hold_tuple_tables():
    # recovery keeps a table's preparation on the table, a tuple that
    # cannot change once made
    built = build_gl2_sheet(11)
    sheets = [build_gl1_sheet(7), built,
              sheet_from_dict(json.loads(sheet_to_json_text(built)))]
    for sheet in sheets:
        for r in sheet.rows:
            for tt in sheet.tori:
                view = r.values[tt.blocks]
                assert type(view) is IndexRow
                assert type(view.table) is ValueTable
                assert type(index_row(dict(view), tt).table) is ValueTable


def test_index_row_snapshots_a_list_table():
    sheet = build_gl2_sheet(5)
    view = sheet.row("cuspidal:1").values[(2,)]
    values = list(view.table)
    row = IndexRow(view.pos, values, view.idx)
    assert type(row.table) is ValueTable and dict(row) == dict(view)
    # the row holds a copy: changing the list afterwards does not change it
    values[:] = [-v for v in values]
    assert dict(row) == dict(view)
    # a value table is shared, not copied
    assert IndexRow(view.pos, view.table, view.idx).table is view.table


def test_index_rows_under_the_wrong_torus_read_as_their_dict_copies():
    sheet, copies = build_gl2_sheet(5), build_gl2_sheet(5)
    for s in (sheet, copies):
        row = s.row("cuspidal:1")
        sp, el = (row.values[tt.blocks] for tt in s.tori)
        if s is copies:
            sp, el = dict(sp), dict(el)
        row.values = {(1, 1): el, (2,): sp}
    texts = validate_sheet(copies).violations
    assert texts and validate_sheet(sheet).violations == texts


def _reverse_maps(sheet):
    """The sheet with every row's maps re-inserted in reverse order, so no
    value map has its keys in regular_elements order."""
    for r in sheet.rows:
        r.values = {b: dict(reversed(dict(m).items()))
                    for b, m in reversed(r.values.items())}
    return sheet


def _drop_two_elements(sheet):
    vals = sheet.row("principal:0,1").values[(1, 1)]
    del vals[(1, 3)], vals[(3, 0)]


def _add_two_central_elements(sheet):
    vals = sheet.row("onedim:1").values[(1, 1)]
    vals[(2, 2)] = vals[(0, 1)]
    vals[(0, 0)] = vals[(0, 1)]


def _swap_in_a_central_element(sheet):
    # as many keys as regular elements, but not the same keys
    vals = sheet.row("principal:0,1").values[(1, 1)]
    vals[(2, 2)] = vals.pop((1, 3))


def _lift_one_map(sheet):
    # every value one level off, the last class first and at 3N, the rest
    # at 2N: within a class the levels agree, so no comparison raises
    el = sheet.tori[1]
    row = sheet.row("cuspidal:1")
    vals, N = row.values[el.blocks], sheet.zeta_level
    last = _regular_classes(el)[-1]
    lifted = {e: vals[e].lift(3 * N) for e in last}
    lifted.update((e, v.lift(2 * N)) for e, v in vals.items() if e not in last)
    row.values[el.blocks] = lifted


def _rekey_elliptic_map(sheet):
    row = sheet.row("steinberg:2")
    row.values = {(3,) if b == (2,) else (2,): m
                  for b, m in row.values.items()}


# the texts are those validation gave before its C-level pass; a reported
# element or level that depends on iteration order is the first in the
# map's insertion order, except for missing elements, which are reported
# in regular_elements order
VIOLATIONS = {
    "missing": (_drop_two_elements,
                ["row principal:0,1, torus 1+1: missing regular elements, "
                 "e.g. (1, 3)"]),
    "non-regular": (_add_two_central_elements,
                    ["row onedim:1, torus 1+1: value on non-regular element "
                     "(2, 2)"]),
    "swapped": (_swap_in_a_central_element,
                ["row principal:0,1, torus 1+1: missing regular elements, "
                 "e.g. (1, 3)",
                 "row principal:0,1, torus 1+1: value on non-regular element "
                 "(2, 2)"]),
    "level": (_lift_one_map,
              ["row cuspidal:1, torus 2: value at level 72 != 24"]),
    "tori": (_rekey_elliptic_map,
             ["row steinberg:2: value maps keyed by [(2,), (3,)] instead of "
              "the torus list"]),
}


@pytest.mark.parametrize("case", list(VIOLATIONS))
def test_validate_violation_text_on_reordered_maps(case):
    sheet = _reverse_maps(build_gl2_sheet(5))
    assert validate_sheet(sheet).ok
    plant, texts = VIOLATIONS[case]
    plant(sheet)
    assert validate_sheet(sheet).violations == tuple(texts)


@pytest.mark.parametrize("n,q", [(2, 3), (2, 4), (2, 11), (1, 5)])
def test_reordered_maps_validate_and_emit_the_same_bytes(n, q):
    text = sheet_to_json_text(build_sheet(n, q))
    sheet = _reverse_maps(build_sheet(n, q))
    assert validate_sheet(sheet).ok
    assert sheet_to_json_text(sheet) == text


PRIME_POWERS_TO_32 = [q for q in range(2, 33) if is_prime_power(q)]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_32)
def test_builders_match_the_slotwise_formulas(q):
    for build, oracle in ((build_gl2_sheet, oracle_formulas.gl2_sheet),
                          (build_gl1_sheet, oracle_formulas.gl1_sheet)):
        sheet, expected = build(q), oracle(q)
        assert (sheet.spec, sheet.zeta_level, sheet.tori) == (
            expected.spec, expected.zeta_level, expected.tori)
        assert ([(r.label, r.dim) for r in sheet.rows]
                == [(r.label, r.dim) for r in expected.rows])
        # slot by slot, each pair of (built, oracle) objects compared once
        pairs = {}
        for row, want in zip(sheet.rows, expected.rows):
            assert list(row.values) == list(want.values)
            for tt in sheet.tori:
                got, exp = row.values[tt.blocks], want.values[tt.blocks]
                assert tuple(got) == tuple(exp) == regular_elements(tt)
                pairs.update(zip(zip(map(id, got.values()),
                                     map(id, exp.values())),
                                 zip(got.values(), exp.values())))
        assert all(v == w for v, w in pairs.values())
        # one object per distinct value
        objects = {id(v): v for v, _ in pairs.values()}
        assert len(set(objects.values())) == len(objects)
        del sheet, expected, pairs


def test_built_and_loaded_sheets_hold_index_arrays():
    # 511,104 slots at q=23: a dict entry per slot retained about 20 MiB
    # either way; one value table plus two-byte indices stay under 4 MiB
    def retained(make):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = make()
            return kept, tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    sheet, built = retained(lambda: build_gl2_sheet(23))
    data = json.loads(sheet_to_json_text(sheet))
    loaded, parsed = retained(lambda: sheet_from_dict(data))
    assert loaded == sheet
    assert {(type(v), v.idx.typecode) for r in loaded.rows
            for v in r.values.values()} == {(IndexRow, "H")}
    assert built <= 4 << 20 and parsed <= 4 << 20, (built, parsed)


def _dict_maps(sheet):
    """The sheet with every value map replaced by a plain dict copy."""
    for r in sheet.rows:
        r.values = {b: dict(m) for b, m in r.values.items()}
    return sheet


def test_plain_maps_emit_and_validate_through_live_tables():
    # every plain map is indexed into a table of its own, and emit and
    # validation cache by the id of a table: a table freed while its id is
    # a key would hand its remap or its level to the next table
    sheet = _dict_maps(build_gl2_sheet(11))
    assert sheet_to_json_text(sheet) == v2_text(sheet)
    el, N = sheet.tori[1], sheet.zeta_level
    lifted = sheet.rows[::2]
    for r in lifted:
        r.values[el.blocks] = {e: v.lift(2 * N)
                               for e, v in r.values[el.blocks].items()}
    assert validate_sheet(sheet).violations == tuple(
        f"row {r.label}, torus 2: value at level {2 * N} != {N}"
        for r in lifted)


EIGENVALUE_CASES = [(n, q) for n in (1, 2, 3, 4)
                    for q in (2, 3, 4, 5, 7, 8, 9, 11) if q**n - 1 <= 20_000]


@pytest.mark.parametrize("n,q", EIGENVALUE_CASES)
def test_eigenvalue_classes_are_weyl_orbits(n, q):
    # every regular element of every torus: the classes validation checks
    # are exactly the orbits of the independent walker, in ascending order
    # within a class and by least element across classes
    for tt in enumerate_tori(GroupSpec(n, q)):
        classes = _regular_classes(tt)
        regs = regular_elements(tt)
        assert sorted(e for cls in classes for e in cls) == list(regs)
        for cls in classes:
            assert tuple(cls) == weyl_orbit(tt, cls[0])
        assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)


def test_validate_flags_duplicate_cuspidal_alias():
    sheet = build_gl2_sheet(3)
    # both cuspidal:1 and its q-twisted alias cuspidal:3 present: one
    # irreducible listed twice (dims equal, so the mass check stays quiet)
    row1 = sheet.row("cuspidal:1")
    row2 = sheet.row("cuspidal:2")
    row2.label = "cuspidal:3"  # 1*3 mod 8, alias of cuspidal:1
    row2.values = row1.values
    report = validate_sheet(sheet)
    assert not report.ok
    assert any("name the same irreducible" in v for v in report.violations)
    assert any("canonical form" in v for v in report.violations)


def test_validate_flags_noncanonical_label():
    sheet = build_gl2_sheet(3)
    sheet.row("principal:0,1").label = "principal:1,0"
    report = validate_sheet(sheet)
    assert not report.ok
    assert any("canonical form" in v for v in report.violations)


def test_row_agrees_with_a_scan_as_rows_change():
    # row() finds what a scan finds after rows are appended, deleted,
    # renamed or replaced, as the recovery tests do to a built sheet
    sheet = build_gl2_sheet(5)

    def agrees():
        for label in {*sheet.labels(), "onedim:0", "principal:0,1", "none"}:
            first = [r for r in sheet.rows if r.label == label][:1]
            if first:
                assert sheet.row(label) is first[0], label
            else:
                with pytest.raises(KeyError, match="no row labeled"):
                    sheet.row(label)

    agrees()
    sheet.rows.append(SheetRow("hostile", 1, {}))
    agrees()
    sheet.rows.append(SheetRow("onedim:0", 1, {}))  # the first one wins
    agrees()
    del sheet.rows[0]  # now the appended onedim:0 is the only one
    agrees()
    sheet.rows.insert(3, SheetRow("steinberg:1", 5, {}))
    agrees()
    sheet.row("principal:0,1").label = "principal:1,0"
    agrees()
    sheet.rows = sheet.rows[::-1]
    agrees()
    # replaced in place by a row that takes a later row's label: the
    # replacement comes first, so it is the one found
    sheet.rows[0] = SheetRow(sheet.rows[5].label, 99, {})
    agrees()
    assert sheet.row(sheet.rows[5].label).dim == 99


def _swap_dims(data):
    """The dict with the dims of steinberg:0 (q) and principal:0,1 (q + 1)
    swapped, so the sum of dim^2 is still the group order."""
    rows = {r["label"]: r for r in data["irreducibles"]}
    a, b = rows["steinberg:0"], rows["principal:0,1"]
    a["dim"], b["dim"] = b["dim"], a["dim"]
    return data


def test_row_dim_must_be_its_labels(monkeypatch):
    # refused with the header, before any value is parsed
    import glchar.sheets as sheets_mod
    data = _swap_dims(sheet_to_dict_v2(build_gl2_sheet(3)))

    def no_parse(*args):
        raise AssertionError("a value was parsed before the header check")

    monkeypatch.setattr(sheets_mod.CycNum, "from_triples", no_parse)
    with pytest.raises(SheetValidationError) as exc:
        sheet_from_dict(data)
    assert exc.value.report.violations == (
        "row steinberg:0: dim 4 != 3, its label's",
        "row principal:0,1: dim 3 != 4, its label's")


def test_load_runs_the_header_pass_once(monkeypatch):
    # the header pass runs before any value is parsed, and the closing
    # pass checks only the values
    import glchar.sheets as sheets_mod
    real, calls = sheets_mod._header_violations, []

    def counted(sheet):
        calls.append(sheet)
        return real(sheet)

    monkeypatch.setattr(sheets_mod, "_header_violations", counted)
    sheet = build_gl2_sheet(5)
    assert sheet_from_dict(json.loads(sheet_to_json_text(sheet))) == sheet
    assert len(calls) == 1


def test_no_gl3_sheet_can_be_made():
    # the constructor refuses it with the loader's text
    spec = GroupSpec(3, 5)
    text = "n = 3: no GL_n sheet with n >= 3 recovers"
    with pytest.raises(ValueError) as made:
        CharacterSheet(spec, zeta_level_for(spec), enumerate_tori(spec), [])
    with pytest.raises(SheetFormatError) as loaded:
        sheet_from_dict({"group": "GL", "format": 2, "n": 3, "q": 5})
    assert str(made.value) == str(loaded.value) == text


def test_validate_flags_bad_mass_and_count():
    sheet = build_gl2_sheet(3)
    del sheet.rows[0]
    report = validate_sheet(sheet)
    assert any("row count" in v for v in report.violations)
    assert any("dim^2" in v for v in report.violations)


def test_restricted_orthogonality_bound():
    q = 5
    sheet = build_gl2_sheet(q)
    sp = sheet.tori[0]
    group_order = GroupSpec(2, q).group_order
    for r in sheet.rows:
        vals = r.values[sp.blocks]
        acc = CycNum.zero(sheet.zeta_level)
        for (i, j), v in vals.items():
            acc = acc + mul(v, vals[((-i) % (q - 1), (-j) % (q - 1))])
        assert not any(acc.num[1:])
        assert 0 <= acc.num[0] <= group_order


def test_save_load_roundtrip(tmp_path):
    sheet = build_gl2_sheet(3)
    path = tmp_path / "sheet.json"
    save_sheet(sheet, str(path))
    again = load_sheet(str(path))
    assert again == sheet
    gl1 = build_gl1_sheet(4)
    save_sheet(gl1, str(path))
    assert load_sheet(str(path)) == gl1


def test_sheet_value_triples_are_numerator_denominator_power():
    # the order the README documents for the file format
    sheet = build_gl2_sheet(11)
    d = json.loads(sheet_to_json_text(sheet))
    assert d["zeta_level"] == 120
    rows = {r["label"]: r["values"]["2"] for r in d["irreducibles"]}
    regs = regular_elements(sheet.tori[1])

    def value_at(label, exps):
        # index rows follow regular_elements order
        return d["values"][rows[label][regs.index(tuple(exps))]]

    assert value_at("onedim:1", [1]) == [[1, 1, 12]]  # zeta^12
    assert value_at("cuspidal:1", [1]) == [[-1, 1, 1], [-1, 1, 11]]
    # values lie in Z[zeta_N], so the denominator slot is always 1
    assert CycNum.from_terms(120, {5: -3}).to_triples() == [[-3, 1, 5]]


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (2, 11), (2, 13),
                                 (1, 4), (1, 5)])
def test_emitter_matches_json_dumps(n, q):
    sheet = build_sheet(n, q)
    assert sheet_to_json_text(sheet) == v2_text(sheet)
    # the file reloads to a sheet that emits the same bytes
    loaded = sheet_from_dict(json.loads(v2_text(sheet)))
    assert loaded == sheet
    assert sheet_to_json_text(loaded) == v2_text(sheet)


def test_emitter_matches_json_dumps_on_direct_sheets():
    spec = GroupSpec(1, 5)
    (tt,) = enumerate_tori(spec)
    regs = regular_elements(tt)
    values = [CycNum.from_terms(4, {1: 2, 0: -3}), root(4, 0), CycNum.zero(4)]
    row = SheetRow('say "hé"', 1,
                   {tt.blocks: {e: values[i % 3]
                                for i, e in enumerate(regs)}})
    # new element tuples and values in every slot: nothing shared by id,
    # and equal values in distinct objects
    fresh = SheetRow("fresh", 2, {tt.blocks: {
        (e[0],): CycNum.from_terms(4, {e[0]: 3 * e[0] - 5})
        for e in regs}})
    twins = SheetRow("twins", 1, {tt.blocks: {
        e: CycNum.from_terms(4, {1: 2, 0: -3}) for e in regs}})
    empty = SheetRow("empty", 1, {tt.blocks: {}})
    no_tori = SheetRow("no tori", 1, {})
    for sheet in (CharacterSheet(spec, 4, (tt,), [row, fresh, twins, empty]),
                  CharacterSheet(spec, 4, (tt,), []),
                  CharacterSheet(spec, 4, (), [no_tori])):
        assert sheet_to_json_text(sheet) == v2_text(sheet)
    text = sheet_to_json_text(CharacterSheet(spec, 4, (tt,), [row, twins]))
    assert '"label":"say \\"h\\u00e9\\""' in text
    assert json.loads(text)["values"] == [[[-3, 1, 0], [2, 1, 1]], [[1, 1, 0]],
                                          []]


@pytest.mark.parametrize("bad", [[1.0, 1, 0], ["1", 1, 0], [True, 1, 0],
                                 [1, 1.0, 0], [1, True, 0], [1, 1, 0.0],
                                 [1, 1, "0"], [1, 1], [1, 1, 0, 0], 1,
                                 [1, 2, 0], [1, 0, 0]])
def test_hostile_triple_rejected_wherever_it_sits(bad):
    # the bad triple as the first value of the table, as its last, and
    # after a good triple within a value: each is checked as it is read
    data = sheet_to_dict_v2(build_gl2_sheet(3))
    assert data["values"][0] == [[1, 1, 0]]
    messages = []
    for pos, value in ((0, [bad]), (-1, [bad]), (0, [[1, 1, 0], bad])):
        hostile = copy.deepcopy(data)
        hostile["values"][pos] = value
        with pytest.raises(SheetFormatError) as exc:
            sheet_from_dict(hostile)
        messages.append(str(exc.value))
    assert len(set(messages)) == 1
    assert messages[0].startswith("values: bad value triples: ")


@pytest.mark.parametrize("key", ["dim", "zeta_level"])
def test_bool_integer_field_rejected(key):
    # GL_1(F_2): its one row has dim 1 and its zeta level is 1, so True
    # would compare equal to the right value
    data = sheet_to_dict_v2(build_gl1_sheet(2))
    fields = data["irreducibles"][0] if key == "dim" else data
    assert fields[key] == 1
    fields[key] = True
    with pytest.raises(SheetFormatError) as exc:
        sheet_from_dict(data)
    assert f"key {key!r} has wrong type" in str(exc.value)


def test_load_checks_each_value_once(monkeypatch):
    # one CycNum.from_triples call per entry of the values table, not one
    # per slot
    import glchar.sheets as sheets_mod
    calls = []
    real = CycNum.from_triples

    def counting(level, triples):
        calls.append(triples)
        return real(level, triples)

    monkeypatch.setattr(sheets_mod.CycNum, "from_triples", counting)
    sheet = build_gl2_sheet(5)
    data = sheet_to_dict_v2(sheet)
    assert sheet_from_dict(data) == sheet
    slots = sum(len(vals) for r in sheet.rows for vals in r.values.values())
    assert calls == data["values"] and len(calls) < slots


def test_load_shares_equal_values_and_elements():
    sheet = sheet_from_dict(sheet_to_dict_v2(build_gl2_sheet(5)))
    sp = sheet.tori[0]
    a = sheet.row("onedim:0").values[sp.blocks]
    b = sheet.row("steinberg:0").values[sp.blocks]
    (ea, va), (eb, vb) = next(iter(a.items())), next(iter(b.items()))
    assert ea is eb and va is vb


def test_zeta_level_checked_before_values_are_parsed(monkeypatch):
    import glchar.sheets as sheets_mod

    def no_parse(*args):
        raise AssertionError("a value was parsed before the level check")

    monkeypatch.setattr(sheets_mod.CycNum, "from_triples", no_parse)
    data = sheet_to_dict_v2(build_gl2_sheet(3))
    data["zeta_level"] = 24
    with pytest.raises(SheetValidationError) as exc:
        sheet_from_dict(data)
    assert "zeta_level 24 != lcm of torus exponents 8" in str(exc.value)


def test_wrong_zeta_level_is_listed_with_the_other_header_violations():
    # the level is one check of the header pass, not a check of its own
    # that stops the load first
    data = sheet_to_dict_v2(build_gl2_sheet(3))
    data["zeta_level"] = 24
    (row,) = [r for r in data["irreducibles"] if r["label"] == "onedim:1"]
    row["dim"] = 2
    with pytest.raises(SheetValidationError) as exc:
        sheet_from_dict(data)
    assert exc.value.report.violations == (
        "zeta_level 24 != lcm of torus exponents 8",
        "row onedim:1: dim 2 != 1, its label's",
        "sum of dim^2 is 51, group order is 48")


def test_load_rejects_wrong_row_count(tmp_path):
    sheet = build_gl2_sheet(3)
    data = sheet_to_dict_v2(sheet)
    del data["irreducibles"][3]
    with pytest.raises(SheetValidationError) as exc:
        sheet_from_dict(data)
    assert "row count" in str(exc.value)


def test_load_rejects_schema_violations():
    sheet = build_gl2_sheet(3)
    data = sheet_to_dict_v2(sheet)
    data2 = copy.deepcopy(data)
    del data2["zeta_level"]
    with pytest.raises(SheetFormatError):
        sheet_from_dict(data2)
    data3 = copy.deepcopy(data)
    data3["irreducibles"][0]["values"]["2"][0] = [1, 2]
    with pytest.raises(SheetFormatError):
        sheet_from_dict(data3)
    data4 = copy.deepcopy(data)
    data4["q"] = 6
    with pytest.raises(SheetFormatError):
        sheet_from_dict(data4)


def _restricted_sheet_rows(sheet):
    sp, el = sheet.tori
    out = []
    for r in sheet.rows:
        values = {}
        for e in regular_elements(sp):
            values[("1+1", e)] = r.values[sp.blocks][e]
        for e in regular_elements(el):
            values[("2", e)] = r.values[el.blocks][e]
        out.append((r.dim, values))
    return out


def _canon(rows):
    out = []
    for dim, values in rows:
        ser = tuple((k, tuple(tuple(t) for t in v.to_triples()))
                    for k, v in sorted(values.items()))
        out.append((dim, ser))
    return sorted(out)


def test_gl2_f3_matches_independent_character_table():
    """The classical value formulas against the Burnside-Dixon table.

    Any generator re-choice on either side permutes whole rows, so the row
    multisets (dim plus all eight restricted values) must agree exactly.
    """
    sheet = build_gl2_sheet(3)
    got = _canon(_restricted_sheet_rows(sheet))
    expected = _canon(oracle_dixon.gl2_f3_restricted_rows())
    assert got == expected
