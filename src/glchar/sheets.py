"""Character sheets: values of irreducibles on regular torus elements.

A sheet holds, for one GL_n(F_q), the value of every irreducible character
on every regular element of every torus type, as exact cyclotomic numbers
at one common zeta level (the lcm of the torus exponents).  Values are
stored per dlog tuple rather than per conjugacy class, so the
class-function property is a checkable invariant rather than an input
assumption.

Built-in generators cover GL_1 and GL_2 at any prime power q (GL_2 by
the classical value formulas over tables keyed by exponent residue).  No
CharacterSheet with n >= 3 can be made: the constructor refuses one, and
load_sheet refuses a file as soon as it reads n.  save_sheet writes JSON
format 2 (distinct values plus index rows), the one format load_sheet
reads: a version 1 file is refused.  A sheet is checked only where it
enters: sheet_from_dict and load_sheet validate it, and built ones are
valid by construction (the tests validate them).

In memory a row on a torus is an IndexRow, a read-only Mapping over an
array of indices into a ValueTable (copy one with dict(...) to edit it).
A ValueTable is a tuple, so it never changes once made, and it carries
what recovery prepares from it, once per torus, in its own __dict__.
Built and loaded sheets make one per table; index_row indexes a plain map
where it is read, and only a map whose keys are not the regular elements
is read value by value.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from functools import partial
from itertools import count
from operator import add
from typing import Iterable, Iterator, NamedTuple, Sequence

from .abelian import EnumerationBudgetError
from .cyclotomic import CycNum, root
from .tori import (
    GroupSpec,
    TorusType,
    check_budget,
    eigenvalues,
    enumerate_tori,
    points,
    positions,
    regular_elements,
    rs_ratio,
    torus_from_label,
)

FAMILIES = ("onedim", "steinberg", "principal", "cuspidal")
# the most slots (rows times regular elements) build_sheet fills: GL_2 up
# to q = 64 (32,506,110 slots), GL_1 up to q = 5,791
MAX_SHEET_SLOTS = 1 << 25
# GL_3 first passes the density gate at q = 6151, over the budget
_NO_RANK = "n = {}: no GL_n sheet with n >= 3 recovers"


class SheetFormatError(ValueError):
    """A sheet file fails the structural schema."""


class SheetValidationError(ValueError):
    """A structurally sound sheet fails semantic validation."""

    def __init__(self, report: "SheetValidationReport"):
        self.report = report
        super().__init__("; ".join(report.violations))


class IrrLabel(NamedTuple):
    """Canonical label of a GL_1/GL_2 irreducible.

    onedim k and steinberg k carry k mod q-1; principal (k, l) is unordered
    with k != l; cuspidal c has c mod q^2-1 off the (q+1)-multiples and is
    identified with cq.
    """

    family: str
    params: tuple[int, ...]

    @classmethod
    def make(cls, spec: GroupSpec, family: str, params: Iterable[int]) -> "IrrLabel":
        params = tuple(int(p) for p in params)
        q = spec.q
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if spec.n == 1:
            if family != "onedim" or len(params) != 1:
                raise ValueError("rank 1 has only onedim labels with one parameter")
            return cls("onedim", (params[0] % (q - 1),))
        if spec.n != 2:
            raise ValueError("labels are only defined for n <= 2")
        if family in ("onedim", "steinberg"):
            if len(params) != 1:
                raise ValueError(f"{family} takes one parameter")
            return cls(family, (params[0] % (q - 1),))
        if family == "principal":
            if len(params) != 2:
                raise ValueError("principal takes two parameters")
            k, l = params[0] % (q - 1), params[1] % (q - 1)
            if k == l:
                raise ValueError("principal parameters must differ mod q-1")
            return cls(family, (min(k, l), max(k, l)))
        if len(params) != 1:
            raise ValueError("cuspidal takes one parameter")
        c = params[0] % (q * q - 1)
        if c % (q + 1) == 0:
            raise ValueError(
                f"cuspidal parameter {c} is a multiple of q+1 = {q + 1}")
        return cls(family, (min(c, c * q % (q * q - 1)),))

    @classmethod
    def parse(cls, spec: GroupSpec, text: str) -> "IrrLabel":
        fam, _, rest = text.partition(":")
        try:
            params = tuple(int(p) for p in rest.split(",")) if rest else ()
        except ValueError:
            raise ValueError(f"bad label {text!r}") from None
        return cls.make(spec, fam, params)

    def format(self) -> str:
        return f"{self.family}:{','.join(str(p) for p in self.params)}"

    def sort_key(self) -> tuple:
        return (FAMILIES.index(self.family), self.params)

    def dim(self, spec: GroupSpec) -> int:
        q = spec.q
        if spec.n == 1:
            return 1
        return {"onedim": 1, "steinberg": q,
                "principal": q + 1, "cuspidal": q - 1}[self.family]


class ValueTable(tuple):
    """The values that index rows point into.  Its __dict__ holds, per
    torus, what recovery._prepare derives from it; a tuple never changes,
    so that stays true for as long as the table lives."""


class IndexRow(Mapping):
    """Read-only values of one row on one torus: table[idx[p]] at the p-th
    key of pos (tori.positions of the torus, in a sheet).  idx is an array,
    typecode 'H' while the table has <= 65,536 entries, else 'I'.  A table
    that is not a ValueTable is copied into one, so a list changed later
    does not change the row."""

    __slots__ = ("pos", "table", "idx")

    def __init__(self, pos: dict, table: Sequence[CycNum],
                 indices: Iterable[int]):
        if not isinstance(table, ValueTable):
            table = ValueTable(table)
        self.pos, self.table = pos, table
        self.idx = array("H" if len(table) <= 1 << 16 else "I", indices)

    def __getitem__(self, key):
        return self.table[self.idx[self.pos[key]]]

    def __iter__(self):
        return iter(self.pos)

    def __len__(self):
        return len(self.pos)


def index_row(vals: Mapping, tt: TorusType) -> IndexRow | None:
    """vals as an IndexRow over positions(tt) (itself if it is one), or None
    when its keys are not the regular elements of tt; a new one's table
    holds the map's distinct value objects, in order of first appearance."""
    pos = positions(tt)
    if type(vals) is IndexRow and vals.pos is pos:
        return vals
    if len(vals) != len(pos) or not all(map(vals.__contains__, pos)):
        return None
    objs = list(vals.values())
    first = dict(zip(map(id, objs), objs))  # by id, in first appearance
    number = dict(zip(first, count()))
    where = dict(zip(vals, map(number.__getitem__, map(id, objs))))
    return IndexRow(pos, ValueTable(first.values()),
                    map(where.__getitem__, pos))


class SheetRow:
    """One irreducible; values maps torus blocks to its values there: an
    IndexRow on built and loaded sheets (read-only), or any Mapping."""

    def __init__(self, label: str, dim: int, values: dict[
            tuple[int, ...], Mapping[tuple[int, ...], CycNum]]):
        self.label, self.dim, self.values = label, dim, values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.label, self.dim, self.values)
                == (other.label, other.dim, other.values))


class CharacterSheet:
    """A GL_1 or GL_2 sheet: ValueError for n >= 3.  Equal when its four
    fields are, so the memo that recover_E keeps in its __dict__, the one
    entry beside them, stays out of equality."""

    def __init__(self, spec: GroupSpec, zeta_level: int,
                 tori: tuple[TorusType, ...], rows: list[SheetRow]):
        if spec.n >= 3:
            raise ValueError(_NO_RANK.format(spec.n))
        self.spec, self.zeta_level, self.tori, self.rows = (
            spec, zeta_level, tori, rows)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.spec, self.zeta_level, self.tori, self.rows)
                == (other.spec, other.zeta_level, other.tori, other.rows))

    def row(self, label: str) -> SheetRow:
        """The first row in rows with this label, found by a scan;
        validate_sheet refuses a duplicate label."""
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(f"no row labeled {label!r}")

    def labels(self) -> list[str]:
        return [r.label for r in self.rows]


def zeta_level_for(spec: GroupSpec) -> int:
    return math.lcm(*(points(t).exponent for t in enumerate_tori(spec)))


def build_gl1_sheet(q: int) -> CharacterSheet:
    """GL_1: every irreducible is a character of the unique torus."""
    spec = GroupSpec(1, q)
    (tt,) = enumerate_tori(spec)
    N = q - 1
    roots, pos = ValueTable(root(N, m) for m in range(N)), positions(tt)
    return CharacterSheet(spec, N, (tt,), [SheetRow(f"onedim:{k}", 1, {
        tt.blocks: IndexRow(pos, roots, [k * e % N for (e,) in pos])})
        for k in range(N)])


def build_gl2_sheet(q: int) -> CharacterSheet:
    """GL_2 at any prime power q, from the classical value formulas.

    Split values at regular dlogs (i, j), elliptic values at regular dlog a,
    all at level N = q^2 - 1:

        onedim k     dim 1    z^{k(i+j)(q+1)}         z^{k a (q+1)}
        steinberg k  dim q    z^{k(i+j)(q+1)}        -z^{k a (q+1)}
        principal    dim q+1  z^{(ki+lj)(q+1)}        0
          (k, l)              + z^{(kj+li)(q+1)}
        cuspidal c   dim q-1  0                      -z^{c a} - z^{c q a}

    The table has this shape for every q, even or odd.  The test suite
    checks the formulas row by row against characters induced from
    explicit matrix subgroups at odd and even q, and at q=3 against a
    Burnside-Dixon table of the 48-element group.

    A value depends on its slot only through a residue: m = k(i+j) or ka
    mod q-1, (u, v) = (ki+lj, kj+li) mod q-1, or ca mod N.  Rows read
    tables keyed by residue, of indices into the table of distinct values,
    which are sums of root vectors.  A principal row's key is a sum of
    per-element arrays, one of k and one of l, so the row is two maps; a
    row that is zero on a torus copies that torus's one array of zeros.
    """
    spec = GroupSpec(2, q)
    N = q * q - 1
    r = q - 1
    sp, el = enumerate_tori(spec)
    pos_sp, pos_el = positions(sp), positions(el)

    index: dict[CycNum, int] = {}  # of each distinct value in the table

    def at(v: CycNum) -> int:
        return index.setdefault(v, len(index))

    zeta = [root(N, m * (q + 1)) for m in range(r)]  # z^{m(q+1)}, m mod q-1
    plus, minus = [at(z) for z in zeta], [at(-z) for z in zeta]
    det = {s: [[tab[k * m % r] for m in range(r)] for k in range(r)]
           for s, tab in ((1, plus), (-1, minus))}
    pair, cusp = [0] * (r * r), []  # each symmetric value made once
    for u in range(r):
        for v in range(u, r):
            pair[u * r + v] = pair[v * r + u] = at(zeta[u] + zeta[v])
    for m in range(N):
        mq = m * q % N
        cusp.append(cusp[mq] if mq < m else at(-(root(N, m) + root(N, mq))))
    zero = at(CycNum.zero(N))
    table = ValueTable(index)
    zeros_sp, zeros_el = (IndexRow(pos, table, [zero] * len(pos)).idx
                          for pos in (pos_sp, pos_el))
    sums, ells = [(i + j) % r for i, j in pos_sp], [a % r for (a,) in pos_el]
    # wide[a * w + b] = pair[a % r * r + b % r]: a principal row keys its
    # value by a = ki%r + lj%r and b = kj%r + li%r, left unreduced
    w = 2 * r - 1
    wide = [pair[x // w % r * r + x % w % r] for x in range(w * w)]
    # of k and of l, arrays, not lists: 2(q-1) as long as the split locus
    ks, ls = ([array("I", [k * i % r * w + k * j % r for i, j in ij])
               for k in range(r)]
              for ij in (pos_sp, [p[::-1] for p in pos_sp]))

    rows = []  # in IrrLabel.sort_key order, each label canonical

    def put(label: str, dim: int, vsp: Iterable[int], vel: Iterable[int]):
        rows.append(SheetRow(label, dim, {
            sp.blocks: IndexRow(pos_sp, table, vsp),
            el.blocks: IndexRow(pos_el, table, vel)}))

    for fam, dim, s in (("onedim", 1, 1), ("steinberg", q, -1)):
        for k in range(r):
            put(f"{fam}:{k}", dim, list(map(det[1][k].__getitem__, sums)),
                list(map(det[s][k].__getitem__, ells)))
    for k in range(r):
        for l in range(k + 1, r):
            put(f"principal:{k},{l}", q + 1, list(map(
                wide.__getitem__, map(add, ks[k], ls[l]))), zeros_el)
    for c in range(1, N):
        if c < c * q % N:  # the least of c and cq, off the (q+1)-multiples
            put(f"cuspidal:{c}", q - 1, zeros_sp,
                [cusp[c * a % N] for (a,) in pos_el])
    return CharacterSheet(spec, N, (sp, el), rows)


def _row_count(spec: GroupSpec) -> int:
    """The number of irreducibles of GL_1 or GL_2, so of a sheet's rows."""
    return spec.q - 1 if spec.n == 1 else spec.q**2 - 1


def build_sheet(n: int, q: int) -> CharacterSheet:
    """The built-in sheet, refused before any work (ValueError) when its
    rows times regular elements exceed MAX_SHEET_SLOTS."""
    if n not in (1, 2):
        raise ValueError(f"no built-in sheet generator for n = {n}")
    check_budget(n, q)
    spec = GroupSpec(n, q)
    # regular elements from the gate's closed form: none is listed
    regular = sum(points(t).order * (1 - rs_ratio(t))
                  for t in enumerate_tori(spec))
    slots = _row_count(spec) * int(regular)
    if slots > MAX_SHEET_SLOTS:
        raise ValueError(f"the GL_{n}(F_{q}) sheet has {slots} slots (rows "
                         f"times regular elements), over {MAX_SHEET_SLOTS}")
    return build_gl1_sheet(q) if n == 1 else build_gl2_sheet(q)


# ------------------------------------------------------------- validation

class SheetValidationReport(NamedTuple):
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def _regular_classes(tt: TorusType) -> list[list[tuple[int, ...]]]:
    """The regular elements of T^F grouped by G^F-conjugacy class, which
    is their eigenvalue multiset (tori.eigenvalues).  Each class is in
    ascending order, and the classes come in order of their least element.
    """
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for e in regular_elements(tt):
        classes.setdefault(eigenvalues(tt, e, tt.twist_order), []).append(e)
    return list(classes.values())


def _header_violations(sheet: CharacterSheet) -> Iterator[str]:
    """validate_sheet's checks that enumerate no torus."""
    spec = sheet.spec
    expected_tori = enumerate_tori(spec)
    if sorted(t.blocks for t in sheet.tori) != [t.blocks for t in expected_tori]:
        yield (f"tori {[t.label for t in sheet.tori]} do not cover the "
               f"{len(expected_tori)} torus types exactly once")
    level = zeta_level_for(spec)
    if sheet.zeta_level != level:
        yield f"zeta_level {sheet.zeta_level} != lcm of torus exponents {level}"

    labels = sheet.labels()
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        yield f"duplicate labels: {dupes}"
    canon: dict[str, str] = {}
    for r in sheet.rows:
        lab = r.label
        try:
            label = IrrLabel.parse(spec, lab)
        except ValueError as e:
            yield f"label {lab!r}: {e}"
            continue
        c = label.format()
        if c != lab:
            yield f"label {lab!r} is not in canonical form ({c!r})"
        if c in canon and canon[c] != lab:
            yield (f"labels {canon[c]!r} and {lab!r} name the same "
                   f"irreducible {c!r}")
        canon.setdefault(c, lab)
        if r.dim != label.dim(spec):
            yield f"row {lab}: dim {r.dim} != {label.dim(spec)}, its label's"
    expected_rows = _row_count(spec)
    if len(sheet.rows) != expected_rows:
        yield f"row count {len(sheet.rows)} != {expected_rows}"

    mass = sum(r.dim * r.dim for r in sheet.rows)
    if any(r.dim < 1 for r in sheet.rows):
        yield "nonpositive dimension present"
    if mass != spec.group_order:
        yield f"sum of dim^2 is {mass}, group order is {spec.group_order}"


def _value_violations(sheet: CharacterSheet) -> Iterator[str]:
    """validate_sheet's checks of the value maps."""
    classes = {tt.blocks: _regular_classes(tt) for tt in sheet.tori}
    # a class function has idx == idx o succ, succ[p] the position of the
    # next element after the p-th in its class's cycle
    succ: dict[tuple[int, ...], list[int]] = {}
    for tt in sheet.tori:
        pos = positions(tt)
        nxt = {e: e1 for cls in classes[tt.blocks]
               for e, e1 in zip(cls, cls[1:] + cls[:1])}
        succ[tt.blocks] = [pos[nxt[e]] for e in pos]
    # by id of each table, kept alive: its levels other than zeta_level
    wrong: dict[int, tuple[Sequence[CycNum], list[int]]] = {}
    for r in sheet.rows:
        if set(r.values) != {tt.blocks for tt in sheet.tori}:
            yield (f"row {r.label}: value maps keyed by "
                   f"{sorted(r.values)} instead of the torus list")
            continue
        for tt in sheet.tori:
            vals = r.values[tt.blocks]
            row = index_row(vals, tt)
            if row is None:
                pos = positions(tt)
                missing = [e for e in pos if e not in vals]
                extra = [e for e in vals if e not in pos]
                if missing:
                    yield (f"row {r.label}, torus {tt.label}: missing "
                           f"regular elements, e.g. {missing[0]}")
                if extra:
                    yield (f"row {r.label}, torus {tt.label}: value on "
                           f"non-regular element {extra[0]}")
                continue
            if id(row.table) not in wrong:
                wrong[id(row.table)] = (row.table, [
                    v.level for v in row.table if v.level != sheet.zeta_level])
            for level in wrong[id(row.table)][1][:1]:
                yield (f"row {r.label}, torus {tt.label}: value at "
                       f"level {level} != {sheet.zeta_level}")
            idx = row.idx.tolist()
            if idx == list(map(idx.__getitem__, succ[tt.blocks])):
                continue
            for cls in classes[tt.blocks]:
                v0 = row[cls[0]]
                for e in cls[1:]:
                    v = row[e]
                    if v is not v0 and v != v0:
                        yield (f"row {r.label}, torus {tt.label}: not "
                               f"constant on the class of {cls[0]} "
                               f"(differs at {e})")
                        break


def validate_sheet(sheet: CharacterSheet) -> SheetValidationReport:
    """Structural and semantic checks; every violation itemized."""
    return SheetValidationReport(
        (*_header_violations(sheet), *_value_violations(sheet)))


# ------------------------------------------------------ JSON serialization

def sheet_from_dict(data) -> CharacterSheet:
    """The validated sheet of a file's dict, in format 2.

    It runs the checks of validate_sheet: its header pass before any
    value is parsed, and its value pass at the end.  Each entry of the
    "values" table is parsed once, into one ValueTable, and a row's list
    for one torus holds indices into it, one per regular element in
    regular_elements order.  SheetFormatError for a schema violation, a
    version 1 file (no "format" key) or n >= 3, SheetValidationError for
    a sheet that fails validation, raised before any torus is enumerated
    if its header does.
    """
    def need(d, key, kind):
        if not isinstance(d, dict) or key not in d:
            raise SheetFormatError(f"missing key {key!r}")
        v = d[key]
        # an integer field takes a plain int only: True is an int too
        if not (type(v) is int if kind is int else isinstance(v, kind)):
            raise SheetFormatError(f"key {key!r} has wrong type")
        return v

    if need(data, "group", str) != "GL":
        raise SheetFormatError("group must be 'GL'")
    if "format" not in data:
        raise SheetFormatError(
            'no "format" key: a version 1 sheet file, which is no longer '
            "read; write the sheet again with glchar table --q Q --out F")
    if need(data, "format", int) != 2:
        raise SheetFormatError("format must be 2")
    n = need(data, "n", int)
    if n >= 3:  # before the budget check; CharacterSheet refuses it too
        raise SheetFormatError(_NO_RANK.format(n))
    q = need(data, "q", int)
    try:
        # before GroupSpec and zeta_level_for: a larger group can never be
        # enumerated and validated
        check_budget(n, q)
        spec = GroupSpec(n, q)
    except (EnumerationBudgetError, ValueError) as e:
        raise SheetFormatError(str(e)) from None
    zeta_level = need(data, "zeta_level", int)
    tori = []
    for lab in need(data, "tori", list):
        if not isinstance(lab, str):
            raise SheetFormatError("torus labels must be strings")
        try:
            tori.append(torus_from_label(spec, lab))
        except ValueError as e:
            raise SheetFormatError(str(e)) from None
    items = need(data, "irreducibles", list)
    rows = [SheetRow(need(item, "label", str), need(item, "dim", int), {})
            for item in items]
    sheet = CharacterSheet(spec, zeta_level, tuple(tori), rows)
    # before any value is parsed: parsing allocates tables sized by the
    # level, and the header pass checks it
    report = SheetValidationReport(tuple(_header_violations(sheet)))
    if not report.ok:
        raise SheetValidationError(report)
    table = need(data, "values", list)
    # before any value is parsed: each value fills at least one slot
    slots = len(items) * sum(len(regular_elements(tt)) for tt in tori)
    if len(table) > slots:
        raise SheetFormatError(f"{len(table)} values for {slots} slots "
                               f"(rows times regular elements)")
    try:
        table = ValueTable(CycNum.from_triples(zeta_level, t) for t in table)
    except (ValueError, TypeError) as err:
        raise SheetFormatError(f"values: bad value triples: {err}") from None
    by_label = {tt.label: tt for tt in tori}
    for row, item in zip(rows, items):
        label = row.label
        values_in = need(item, "values", dict)
        for tlab, tt in by_label.items():
            if tlab not in values_in:
                raise SheetFormatError(
                    f"row {label!r}: no values for torus {tlab}")
            indices = values_in[tlab]
            if not isinstance(indices, list):
                raise SheetFormatError(f"row {label!r}: values must be a list")
            pos, where = positions(tt), f"row {label!r}, torus {tlab}"
            if len(indices) != len(pos):
                raise SheetFormatError(f"{where}: {len(indices)} indices for "
                                       f"{len(pos)} regular elements")
            if indices and (set(map(type, indices)) != {int}  # True is an int
                            or min(indices) < 0 or max(indices) >= len(table)):
                raise SheetFormatError(f"{where}: an index is not an int in "
                                       f"range({len(table)})")
            row.values[tt.blocks] = IndexRow(pos, table, indices)
        if values_in.keys() - by_label:
            raise SheetFormatError(f"row {label!r}: values for unknown tori")
    report = SheetValidationReport(tuple(_value_violations(sheet)))
    if not report.ok:
        raise SheetValidationError(report)
    return sheet


def sheet_to_json_text(sheet: CharacterSheet) -> str:
    """The format 2 text of a sheet: json.dumps of the layout in README.md
    with separators (",", ":"), one line, then a newline.

    Each distinct value is written once to the "values" table, in order of
    first appearance (rows, then tori, then elements in sorted order), and
    the rows hold indices into it.  A row is written by remapping the
    array of its index_row, each entry of a table looked up by value once;
    only a map whose keys are not the regular elements is read value by
    value.  So a built sheet and its reload give the same bytes.
    """
    import json  # here and in load_sheet: a cold build never imports it

    index: dict[CycNum, int] = {}  # of each distinct value, in order
    # by id of each table, kept alive: its indices to theirs in index
    remaps: dict[int, tuple[Sequence[CycNum], dict[int, int]]] = {}

    def indices(vals, tt: TorusType) -> list[int]:
        row = index_row(vals, tt)
        if row is None:
            return [index.setdefault(vals[e], len(index))
                    for e in sorted(vals)]
        table, remap = remaps.setdefault(id(row.table), (row.table, {}))
        fresh = set(row.idx).difference(remap)  # few once a table is seen
        for i in filter(fresh.__contains__, fresh and dict.fromkeys(row.idx)):
            remap[i] = index.setdefault(table[i], len(index))
        return list(map(remap.__getitem__, row.idx))

    dumps = partial(json.dumps, separators=(",", ":"))
    # a row at a time: json holds a string per number until it joins them
    rows = ",".join(dumps({"label": r.label, "dim": r.dim, "values": {
        tt.label: indices(r.values[tt.blocks], tt) for tt in sheet.tori}})
        for r in sheet.rows)
    head = dumps({"format": 2, "group": "GL", "n": sheet.spec.n,
                  "q": sheet.spec.q, "zeta_level": sheet.zeta_level,
                  "tori": [t.label for t in sheet.tori],
                  "values": [v.to_triples() for v in index]})
    return f'{head[:-1]},"irreducibles":[{rows}]}}\n'


def save_sheet(sheet: CharacterSheet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sheet_to_json_text(sheet))


def load_sheet(path: str) -> CharacterSheet:
    import json

    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as e:
            # also bytes that are not UTF-8, an int over Python's digit
            # limit and arrays nested past the recursion limit
            raise SheetFormatError(f"not valid JSON: {e}") from None
    return sheet_from_dict(data)
