"""Recovery of the parameter map from character values on regular elements.

The central operation is sparse_decompose: given the restriction of a class
function to the regular locus of one torus, find the unique expansion as an
integer combination of at most |W| distinct torus characters.  The search
is exhaustive over character subsets, so uniqueness is established by scan,
never assumed.  It covers subsets of at most two characters: |W| = 2 for
GL_2, and for GL_3 (|W| = 6) the gate first passes at q = 6151, where the
split torus has 2.3e11 points, far over the enumeration budget, so no
larger bound can ever run.  recover_E assembles the per-torus expansions
of one sheet row into the geometric class label (geom_class_id) and the
unipotence flag; gram_independence audits the independence step.  The
check against the known GL_2 decomposition pattern is a test oracle
(tests/oracle_pattern.py).

There is one search mode: every entry point scans the whole subset space
and stops only at a second valid expansion, which is a NonUniqueError, so
every answer comes with its uniqueness proved.  Each one refuses to run
when the regular-locus density gate fails (QConditionViolated): outside
the gate the uniqueness guarantee is void and no output would be
trustworthy.

Performance note: the subset scan dominates.  Subsets are screened with
pure integer arithmetic on shifted value vectors f(s) * zeta^{-theta_a(s)},
memoized once per call and shared by the one- and two-term scans.  A shift
next to a cached one at the same sample is one companion step, O(phi),
instead of a fold, O(nnz * phi) (see _shifter); on the elliptic torus the
exponents at sample 0 run through every residue, so all but one of them
are steps.  The two-term scan does not walk all K(K-1)/2 pairs: for each
first character a, the sample equations on a few separating samples fix
both coefficients and the second character through index lookups (see
_scan_pairs).  Every pair that satisfies those sample equations is
enumerated, and every candidate is still verified against every regular
element, so the screen affects speed only, never which expansions are
accepted, and the exhaustive uniqueness check still sees every valid
expansion.

The integer kernels under the scan run their per-coordinate loops in C:
map over operator.add, mul and neg, with coefficients from
itertools.repeat, in place of Python comprehensions.  _verify builds each
expected sample value from one or two rows of the reduction table (no
general fold) at most once per memo, _direction returns a content +-1
vector itself or negated (no division), the direction branch of
_scan_pairs memoizes each root-of-unity lookup for the call, and the
solver table is built by adding column multiples in mixed radix.  All of
them compute the same integers as the plain loops they replace
(tests/test_kernels.py holds those as oracles).

Many rows restrict to twists of one function on a torus: f' = f theta_c
for a torus character theta_c (at q = 13 the 336 torus inputs of the
sheet fall into 18 such classes).  Multiplying by theta_c is a bijection
on functions on the regular locus that maps expansions with at most two
terms onto expansions with at most two terms, so f' has exactly one short
expansion, E(f) theta_c, exactly when f has one.  recover_E therefore
keeps one memo on the CharacterSheet instance: for each (T, level), the
twists, and the expected values that verify them.  Each searched
expansion is indexed by (s*, hash of f(s*) zeta^x) for every exponent x
that the characters take at s*, the first regular sample with f(s*) != 0
(a twist keeps the zero set; the zero function is kept under None).  A
lookup of f' tries E theta_c for each character with theta_c(s*) = x and
accepts it only if it matches f' on every regular element, so a hash
collision costs a rejected candidate, never a wrong answer, and the memo
holds no value vectors.  A verified hit is the unique short expansion:
f' = E theta_c = f theta_c on the locus, and any short expansion E' of f'
gives the short expansion E' theta_c^-1 of f, which by the search that
found E equals E.  A miss runs sparse_decompose, which itself keeps no
memo.  The memo lives and dies with its sheet, and errors are not kept.
The expected values are _verify's memo: twists of one expansion expect
the same values again and again.

A value table is prepared where it lives: every row of a built or loaded
sheet indexes one sheets.ValueTable, which is lifted, read as power-basis
vectors and zero-tested once per torus, the result kept in the table's own
__dict__, so a torus input costs one index lookup per regular element
(_prepare), whether recover_E or sparse_decompose reads it.  At q = 23
the sheet table has 485 entries, and preparing it for each of the 1,056
torus inputs took a third of the whole recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, count, repeat
from operator import add, attrgetter, floordiv, mod
from typing import Mapping, Sequence

from .abelian import DEFAULT_BUDGET, AbChar, enumerate_chars
from .cyclotomic import CycNum, CycMatrix, _context, _fold, _scaled
from .sheets import (
    CharacterSheet, SheetValidationError, index_row, validate_sheet)
from .tori import (
    GeomClassId,
    GroupSpec,
    TorusType,
    _exps,
    check_q_condition,
    geom_class_id,
    points,
    regular_elements,
)

__all__ = [
    "QConditionViolated",
    "NoExpansionError",
    "NonUniqueError",
    "RecoveryInconsistencyError",
    "Expansion",
    "RecoveryReport",
    "GramReport",
    "sparse_decompose",
    "recover_E",
    "is_unipotent",
    "gram_independence",
]


class QConditionViolated(RuntimeError):
    """Recovery was attempted for a group failing the density gate."""

    def __init__(self, report):
        self.report = report
        worst_t, worst_r = max(report.ratios, key=lambda p: p[1])
        super().__init__(
            f"density gate fails for GL_{report.spec.n}(F_{report.spec.q}): "
            f"torus {worst_t.label} has non-regular ratio {worst_r}, "
            f"not < {report.threshold_text}")


class NoExpansionError(ValueError):
    """No short integer character combination matches the input function."""


class NonUniqueError(RuntimeError):
    """Two distinct valid expansions match the same input function."""

    def __init__(self, msg: str, expansions: tuple["Expansion", ...]):
        self.expansions = expansions
        super().__init__(msg)


class RecoveryInconsistencyError(RuntimeError):
    """Recovered data violates a structural guarantee."""


def _require_gate(spec: GroupSpec):
    report = check_q_condition(spec)
    if not report.ok:
        raise QConditionViolated(report)
    return report


@dataclass(frozen=True)
class Expansion:
    """An exact expansion f = sum of c_i * theta_i on the regular locus.

    Characters are pairwise distinct and listed in lexicographic exponent
    order; every coefficient is a nonzero integer.  m = 0 encodes the zero
    function.
    """

    torus: TorusType
    terms: tuple[tuple[AbChar, int], ...]

    def __post_init__(self):
        grp = points(self.torus)
        seen = set()
        for th, c in self.terms:
            if th.group != grp:
                raise ValueError("character is not on the torus points")
            if type(c) is not int or c == 0:  # True is an int too
                raise ValueError(f"coefficient {c!r} is not a nonzero integer")
            if th.cexps in seen:
                raise ValueError(f"repeated character {th.cexps}")
            seen.add(th.cexps)
        object.__setattr__(
            self, "terms", tuple(sorted(self.terms, key=lambda p: p[0].cexps)))

    @property
    def m(self) -> int:
        return len(self.terms)

    def describe(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*theta{th.cexps}" for th, c in self.terms)


@dataclass(frozen=True)
class RecoveryReport:
    """Per-torus expansions of one irreducible plus the derived labels."""

    label: str
    expansions: tuple[Expansion, ...]
    epsilon: GeomClassId
    unipotent: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "expansions": [
                {"torus": e.torus.label,
                 "terms": [{"character": list(th.cexps), "coefficient": c}
                           for th, c in e.terms]}
                for e in self.expansions],
            "epsilon": {"level": self.epsilon.level,
                        "residues": list(self.epsilon.residues)},
            "unipotent": self.unipotent,
        }


# -- solver tables ----------------------------------------------------------

def _direction(vec: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(primitive integer direction, signed multiplier) of a nonzero vector.

    The direction has content 1 and a positive first nonzero entry, so two
    vectors are proportional exactly when their directions are equal.  When
    the signed content g is +1 the vector is its own direction, and when it
    is -1 the direction is its negation: v // g equals v * g for every
    integer v when g = +-1, so this path is exact, and the general division
    runs only for |g| > 1.  Tails of roots of unity have content 1, so the
    short path is the common case.
    """
    g = math.gcd(*vec)
    if next(filter(None, vec)) < 0:
        g = -g
    if g in (1, -1):
        return tuple(_scaled(vec, g)), g
    return tuple(map(floordiv, vec, repeat(g))), g


class _TorusSolver:
    """Immutable per-(torus, level) tables shared by every decomposition.

    table[i][s] is the exponent of zeta_level taken by character i at the
    s-th regular element; exponents are linear in the character index, so
    theta_b = theta_a * theta_delta with delta = b - a in every coordinate,
    and the table row of the difference character delta gives the ratio
    of the two columns.  The same linearity builds the table: the row of
    (c_1, ..., c_r) is sum c_i * col_i mod level, col_i[s] the exponent of
    the i-th generator character at sample s, so the rows are made one
    coordinate at a time in mixed radix (the order of product over the
    moduli, last coordinate fastest), each as an elementwise sum of a
    previous row and a multiple of col_i, with no per-entry evaluation of
    a character.  Probes, pair pivots, the pair index and the characters
    by their exponent at a sample (for the twist memo) are built on first
    use and cached here because they do not depend on the input function.
    """

    def __init__(self, ttype: TorusType, level: int):
        grp = points(ttype)
        L = grp.exponent
        if level % L:
            raise ValueError(
                f"torus exponent {L} does not divide zeta level {level}")
        self.ttype = ttype
        self.level = level
        self.group = grp
        self.regs = regular_elements(ttype)
        ctx = _context(level)
        self.red = ctx.red
        self.phi = ctx.phi
        self.chars = tuple(enumerate_chars(grp))
        mod_level = repeat(level)
        rows = [[0] * len(self.regs)]
        for i, m in enumerate(grp.moduli):
            unit = level // m
            col = [e[i] * unit % level for e in self.regs]
            mults = [[0] * len(col)]
            for _ in range(1, m):
                mults.append(list(map(mod, map(add, mults[-1], col),
                                      mod_level)))
            rows = [list(map(mod, map(add, row, k), mod_level))
                    for row in rows for k in mults]
        self.table = rows
        self._pivot: dict[tuple[int, int], tuple[int, int, tuple[int, ...]]] = {}
        self._at: dict[int, dict[int, list[int]]] = {}

    def pivot(self, d0: int, d1: int) -> tuple[int, int, tuple[int, ...]]:
        """First nonzero coordinate of zeta^d1 - zeta^d0, with the full row."""
        out = self._pivot.get((d0, d1))
        if out is None:
            w = tuple(b - a for a, b in zip(self.red[d0], self.red[d1]))
            i0 = next(i for i, v in enumerate(w) if v)
            out = (i0, w[i0], w)
            self._pivot[(d0, d1)] = out
        return out

    def at(self, s: int) -> dict[int, list[int]]:
        """Character indices by the exponent they take at sample s."""
        out = self._at.get(s)
        if out is None:
            out = self._at[s] = {}
            for i, row in enumerate(self.table):
                out.setdefault(row[s], []).append(i)
        return out

    def times(self, ia: int, di: int) -> int:
        """Index of the character theta_ia * theta_di (mixed radix)."""
        out = 0
        for x, y, m in zip(self.chars[ia].cexps, self.chars[di].cexps,
                           self.group.moduli):
            out = out * m + (x + y) % m
        return out

    @cached_property
    def sep(self) -> tuple[int, ...]:
        """Separating samples: sample 0, then, in locus order, each sample
        that tells apart more characters than the ones before it, until the
        value tuple on these samples is injective on characters.

        Two samples on the split GL_2 torus and one on the elliptic one.
        Under the density gate the regular locus holds more than half of
        the group, so a character trivial on it is trivial and the whole
        locus always separates.
        """
        table = self.table
        sep = [0]
        keys = [(row[0],) for row in table]
        classes = len(set(keys))
        for s in range(1, len(self.regs)):
            if classes == len(table):
                break
            ext = [k + (row[s],) for k, row in zip(keys, table)]
            n = len(set(ext))
            if n > classes:
                sep.append(s)
                keys, classes = ext, n
        if classes < len(table):
            raise ValueError(
                f"the regular locus of {self.ttype.label} does not "
                f"separate its characters")
        return tuple(sep)

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Sample order of full verification: separating samples first."""
        first = set(self.sep)
        return self.sep + tuple(
            s for s in range(len(self.regs)) if s not in first)

    @cached_property
    def probes(self) -> list[int]:
        """probes[d]: first sample where the difference character d moves
        off its value at sample 0; -1 = constant on the locus."""
        return [next((s for s, v in enumerate(row) if v != row[0]), -1)
                for row in self.table]

    @cached_property
    def pin(self) -> dict[tuple[int, ...], int]:
        """Difference character by its exponents on the separating samples.

        Characters constant on the locus are left out: a pair differing by
        one is dependent there, which the density gate rules out.
        """
        table, sep, probes = self.table, self.sep, self.probes
        return {tuple(table[di][s] for s in sep): di
                for di in range(len(table)) if probes[di] >= 0}

    @cached_property
    def rational(self) -> tuple[int, ...]:
        """Non-constant difference characters with zeta^{d(s0)} = +-1."""
        red, table = self.red, self.table
        return tuple(di for di in self.pin.values()
                     if not any(red[table[di][0]][1:]))

    @cached_property
    def dirs(self) -> dict[tuple[int, ...], list[tuple[int, int]]]:
        """Primitive direction of the power-basis tail of zeta^d -> [(d, k)].

        Only exponents d taken at sample 0 by some difference character in
        pin are listed; the tail of zeta^d is k times its direction.
        """
        out: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        red, table = self.red, self.table
        for d in sorted({table[di][0] for di in self.pin.values()}):
            tail = red[d][1:]
            if any(tail):
                key, k = _direction(tail)
                out.setdefault(key, []).append((d, k))
        return out

    @cached_property
    def exp_of(self) -> dict[tuple[int, ...], int]:
        """Exponent of a root of unity by its power-basis vector."""
        return {self.red[e]: e for e in range(self.level)}


@lru_cache(maxsize=None)
def _solver(ttype: TorusType, level: int) -> _TorusSolver:
    return _TorusSolver(ttype, level)


def _shifter(solver: _TorusSolver, fvec):
    """shift(s, e) = f(s) * zeta^-e, memoized for one input function.

    One decomposition shares it between the one- and two-term scans.  On
    the split torus theta_a(s) takes q - 1 values, so K characters cost
    only q - 1 products per sample.  A shift whose neighbour e - 1 at the
    same sample is cached costs one companion step, O(phi): coordinates
    move down and the constant term comes back times red[N - 1].  Else the
    nonzero coordinates are folded, O(nnz * phi).  A cached e + 1 is not
    used: the scans and the twist memo go up the exponents of a sample.
    """
    N, red = solver.level, solver.red
    down = red[N - 1]
    cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def shift(s: int, e: int) -> tuple[int, ...]:
        v = cache.get((s, e))
        if v is not None:
            return v
        w = cache.get((s, (e - 1) % N))
        if w is not None:
            v = w[1:] + (0,)
            if w[0]:
                v = tuple(map(add, v, _scaled(down, w[0])))
        else:
            v = tuple(_fold(red, [((i - e) % N, x)
                                  for i, x in enumerate(fvec[s]) if x]))
        cache[(s, e)] = v
        return v

    return shift


def _verify(solver: _TorusSolver, fvec, idxs, coeffs, memo: dict) -> bool:
    """Exact check of sum c_i theta_i = f on every regular element.

    Samples run in solver.order, separating samples first, so a wrong
    candidate fails early.  memo maps (c_a, theta_a(s)), or (c_a, c_b,
    theta_a(s), theta_b(s)), to the tuple of c_a theta_a(s) (+ c_b
    theta_b(s)), built from rows of red on a miss and compared with f(s)
    by `is`, then `==`; an equal compare stores f(s) itself.  An entry
    always holds the value its key names, so a rejected compare leaves
    nothing that accepts later.  One memo serves one (torus, level), as
    red depends on the level: recover_E keeps it on the sheet, each scan
    makes its own, and none is module-level or on the cached solver.
    """
    red, table, ca, cb = solver.red, solver.table, coeffs[0], coeffs[-1]
    ta, tb = table[idxs[0]], (table[idxs[1]] if len(idxs) > 1 else None)
    for s in solver.order:
        f = fvec[s]
        key = (ca, ta[s]) if tb is None else (ca, cb, ta[s], tb[s])
        v = memo.get(key)
        if v is not f:
            if v is None:
                v = _scaled(red[ta[s]], ca)
                if tb is not None:
                    v = map(add, v, _scaled(red[tb[s]], cb))
                v = memo[key] = tuple(v)
            if v != f:
                return False
            memo[key] = f
    return True


def _scan_singles(solver: _TorusSolver, fvec, cap: int,
                  shift=None) -> list[tuple[int, int]]:
    """All valid one-term expansions (index, coefficient), index order."""
    if shift is None:
        shift = _shifter(solver, fvec)
    memo: dict = {}  # of _verify, for this call
    table = solver.table
    hits: list[tuple[int, int]] = []
    for ia in range(len(solver.chars)):
        g0 = shift(0, table[ia][0])
        c = g0[0]
        if c == 0 or any(g0[1:]):
            continue
        if _verify(solver, fvec, (ia,), (c,), memo):
            hits.append((ia, c))
            if len(hits) >= cap:
                break
    return hits


def _pivot_screen(solver: _TorusSolver, shift, ia: int, di: int,
                  g0) -> tuple[int, int] | None:
    """(ca, cb) from the sample equations at s0 and at the probe of di.

    c_a + c_b zeta^{d(s)} = f(s) zeta^{-theta_a(s)} at the two samples
    gives c_b by one pivot division; non-integers or zeros reject.
    """
    s1 = solver.probes[di]
    dcol = solver.table[di]
    d0 = dcol[0]
    i0, w0, w = solver.pivot(d0, dcol[s1])
    g1 = shift(s1, solver.table[ia][s1])
    cb, rem = divmod(g1[i0] - g0[i0], w0)
    if rem or cb == 0:
        return None
    for t in range(solver.phi):
        if cb * w[t] != g1[t] - g0[t]:
            return None
    row0 = solver.red[d0]
    ca = g0[0] - cb * row0[0]
    if ca == 0:
        return None
    for t in range(1, solver.phi):
        if g0[t] != cb * row0[t]:
            return None
    return ca, cb


def _scan_pairs(solver: _TorusSolver, fvec, cap: int | None = None,
                shift=None) -> list[tuple[int, int, int, int]]:
    """The first cap (None: all) valid two-term expansions (ia, ib, ca, cb).

    For a first character a, every valid pair satisfies, at each sample s,
    g_s = f(s) zeta^{-theta_a(s)} = c_a + c_b zeta^{d(s)}, d the difference
    character b - a.  Instead of walking every b, the pair is read off:

    - If the power-basis tail of g_0 is nonzero, zeta^{d(s0)} is not +-1
      and its tail is proportional to that of g_0.  The direction lookup
      lists each exponent d(s0) with that tail direction, and each fixes
      c_b (exact division) and c_a.  On every further separating sample,
      (g_s - c_a) / c_b must be a root of unity zeta^{d(s)}; the exponent
      tuple on the separating samples names d, hence b, through pin.
    - If the tail is zero, zeta^{d(s0)} = +-1 for every valid pair, and the
      pivot screen runs over just those difference characters.

    Both branches derive (c_a, c_b) from equations that every valid pair
    satisfies, so every pair matching the sample equations is enumerated;
    each one is then verified on the whole locus.  The hit list is exactly
    that of the pairwise scan, and exhaustive uniqueness still holds.
    """
    if shift is None:
        shift = _shifter(solver, fvec)
    memo: dict = {}  # of _verify, for this call
    table, red, K = solver.table, solver.red, len(solver.chars)
    sep, pin, dirs, exp_of = solver.sep, solver.pin, solver.dirs, solver.exp_of
    rest = sep[1:]
    # case-1 candidates (d, ca, cb) by the exponent theta_a(s0); None marks
    # a rational g0 (case 2)
    firsts: dict[int, list[tuple[int, int, int]] | None] = {}
    # exponent d(s) read at sample s, by (s, theta_a(s), ca, cb); None = no
    # root of unity.  Many first characters share theta_a(s) at a sample.
    roots: dict[tuple[int, int, int, int], int | None] = {}
    hits: list[tuple[int, int, int, int]] = []
    for ia in range(K):
        ta = table[ia]
        g0 = shift(0, ta[0])
        if ta[0] in firsts:
            cands = firsts[ta[0]]
        else:
            cands = None
            if any(g0[1:]):
                key, m = _direction(g0[1:])
                cands = []
                for d, k in dirs.get(key, ()):
                    cb, rem = divmod(m, k)
                    ca = g0[0] - cb * red[d][0]
                    if not rem and ca:
                        cands.append((d, ca, cb))
            firsts[ta[0]] = cands
        found: list[tuple[int, int, int]] = []
        if cands is None:
            for di in solver.rational:
                ib = solver.times(ia, di)
                if ib > ia:
                    cc = _pivot_screen(solver, shift, ia, di, g0)
                    if cc is not None:
                        found.append((ib, *cc))
        else:
            for d, ca, cb in cands:
                key = [d]
                for s in rest:
                    rk = (s, ta[s], ca, cb)
                    if rk in roots:
                        e = roots[rk]
                    else:
                        g = shift(s, ta[s])
                        v = (g[0] - ca,) + g[1:]
                        if cb in (1, -1):  # v / cb = v * cb
                            e = exp_of.get(tuple(_scaled(v, cb)))
                        elif any(map(mod, v, repeat(cb))):
                            e = None
                        else:
                            e = exp_of.get(tuple(map(floordiv, v, repeat(cb))))
                        roots[rk] = e
                    if e is None:
                        break
                    key.append(e)
                else:
                    di = pin.get(tuple(key))
                    if di is not None:
                        ib = solver.times(ia, di)
                        if ib > ia:
                            found.append((ib, ca, cb))
        found.sort()
        for ib, ca, cb in found:
            if _verify(solver, fvec, (ia, ib), (ca, cb), memo):
                hits.append((ia, ib, ca, cb))
                if cap is not None and len(hits) >= cap:
                    return hits
    return hits


# -- the subset search ------------------------------------------------------

def _prepare(f: Mapping[tuple[int, ...], CycNum],
             T: TorusType) -> tuple[int, list[tuple[int, ...]], int | None]:
    """(level, fvec, s): f as integer power-basis vectors in locus order,
    and its first nonzero sample (None for the zero function).

    level is the lcm of the torus exponent and every value level.  f is
    read through its sheets.index_row, after its keys are reduced by
    tori._exps when they are not exactly the regular tuples.  The row's
    table is lifted, read and zero-tested once per torus, and kept as
    (level, nums, nonzero) in vars(table)[T]; a ValueTable never changes,
    so every later row over it only indexes that.  ValueError when a key
    has the wrong length or the domain is not the regular locus.
    """
    row = index_row(f, T)
    if row is None:
        keyed = {_exps(T, k): v for k, v in f.items()}
        regs = regular_elements(T)
        missing = [e for e in regs if e not in keyed]
        extra = sorted(set(keyed) - set(regs))
        if missing or extra:
            raise ValueError(
                f"function domain does not match the regular locus of "
                f"{T.label}: missing {missing[:3]}, extra {extra[:3]}")
        row = index_row(keyed, T)
    table, idx = row.table, row.idx
    prepared = vars(table).get(T)
    if prepared is None:
        levels = set(map(attrgetter("level"), table))
        level = math.lcm(points(T).exponent, *levels)
        lifted = table if levels == {level} else [
            v.lift(level) for v in table]
        nums = list(map(attrgetter("num"), lifted))
        prepared = vars(table)[T] = (level, nums, list(map(any, nums)))
    level, nums, nonzero = prepared
    return (level, list(map(nums.__getitem__, idx)),
            next(compress(count(), map(nonzero.__getitem__, idx)), None))


def sparse_decompose(f: Mapping[tuple[int, ...], CycNum],
                     T: TorusType) -> Expansion:
    """The unique expansion of f as <= min(|W|, K) nonzero integer
    character terms, K the number of characters of T^F.

    f must be total on the regular locus of T (dlog tuples to cyclotomic
    values).  The search runs over all character subsets of that size in
    lexicographic order; a subset is accepted when its nonzero integer
    coefficients, read off the sample equations, match f on every regular
    element.  The whole space is scanned, stopping only at a second valid
    expansion, which raises NonUniqueError.  Groups with |W| > 2 are
    refused (ValueError: see the module docstring).
    """
    spec = T.spec
    if spec.weyl_order > 2:
        raise ValueError(
            f"|W| = {spec.weyl_order} > 2: the search covers at most two "
            f"terms, since |W| <= 2 wherever the density gate passes within "
            f"the enumeration budget (GL_3 first passes at q = 6151, where "
            f"the split torus has 2.3e11 points, over {DEFAULT_BUDGET})")
    _require_gate(spec)
    level, fvec, s = _prepare(f, T)
    solver = _solver(T, level)
    bound = min(spec.weyl_order, len(solver.chars))

    shift = _shifter(solver, fvec)
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    if s is None:
        found.append(((), ()))
    found += [((ia,), (c,)) for ia, c in
              _scan_singles(solver, fvec, 2 - len(found), shift)]
    if len(found) < 2 and bound >= 2:
        found += [((ia, ib), (ca, cb)) for ia, ib, ca, cb in
                  _scan_pairs(solver, fvec, 2 - len(found), shift)]

    if not found:
        raise NoExpansionError(
            f"no expansion with at most {bound} nonzero integer terms "
            f"matches the function on torus {T.label} at q = {spec.q}")
    expansions = tuple(
        Expansion(T, tuple((solver.chars[i], c)
                           for i, c in zip(idxs, coeffs)))
        for idxs, coeffs in found[:2])
    if len(found) >= 2:
        a, b = expansions
        raise NonUniqueError(
            f"two valid expansions on torus {T.label}: "
            f"[{a.describe()}] and [{b.describe()}]", (a, b))
    return expansions[0]


# -- the twist memo -----------------------------------------------------------

def _memo_decompose(memo: dict, f: Mapping[tuple[int, ...], CycNum],
                    T: TorusType) -> Expansion:
    """sparse_decompose(f, T), served from the twist memo when it can be.

    memo maps (T, level) to (twists, expected).  twists maps (s*, hash of
    f(s*) zeta^x) to the (x, indices, coefficients) of every searched
    expansion, and None to the empty expansion of the zero function
    (module docstring).  A candidate E theta_c is accepted only after
    _verify has checked it on every regular element, with expected as its
    memo.  A miss runs the search through the module global, so a wrapper
    sees every search; errors are not stored, and an input _prepare
    refuses stores nothing.
    """
    level, fvec, s = _prepare(f, T)
    twists, expected = memo.setdefault((T, level), ({}, {}))
    if s is None:
        if None not in twists:
            twists[None] = sparse_decompose(f, T)
        return twists[None]
    solver = _solver(T, level)
    at = solver.at(s)
    for x, idxs, coeffs in twists.get((s, hash(fvec[s])), ()):
        for c in at[x]:
            twisted = tuple(solver.times(i, c) for i in idxs)
            if _verify(solver, fvec, twisted, coeffs, expected):
                return Expansion(T, tuple(
                    (solver.chars[i], co) for i, co in zip(twisted, coeffs)))
    e = sparse_decompose(f, T)
    entry = (tuple(solver.chars.index(th) for th, _ in e.terms),
             tuple(co for _, co in e.terms))
    # f(s*) zeta^x = shift(s*, k), k = -x mod N, for the x taken at s*
    shift = _shifter(solver, fvec)
    for k in sorted(-x % level for x in at):
        twists.setdefault((s, hash(shift(s, k))), []).append(
            (-k % level, *entry))
    return e


# -- assembled operations ---------------------------------------------------

def recover_E(sheet: CharacterSheet, label: str, *, validate: bool = True,
              jobs: int = 1) -> RecoveryReport:
    """Per-torus expansions of one row, with the shared geometric class.

    Each torus runs the exhaustive search of sparse_decompose, or takes a
    verified twist of an expansion that search found earlier on this
    sheet, so a second valid expansion is a NonUniqueError.  Checks, and
    reports as hard errors: at least one torus has nonempty support; every
    support has at most |W| terms; all nonempty supports land in one
    geometric conjugacy class.  The unipotence flag records whether the
    trivial character appears in some support.

    The search is serial.  jobs is accepted and ignored: it stays only
    until the benchmark probe (perfbench/tracing.py) stops passing it.
    """
    spec = sheet.spec
    _require_gate(spec)
    if validate:
        report = validate_sheet(sheet)
        if not report.ok:
            raise SheetValidationError(report)
    row = sheet.row(label)
    memo = vars(sheet).setdefault("_memo", {})  # module docstring
    expansions = tuple(_memo_decompose(memo, row.values[tt.blocks], tt)
                       for tt in sheet.tori)
    if all(e.m == 0 for e in expansions):
        raise RecoveryInconsistencyError(
            f"{label}: empty support on every torus")
    for e in expansions:
        if e.m > spec.weyl_order:
            raise RecoveryInconsistencyError(
                f"{label} on {e.torus.label}: {e.m} terms exceed "
                f"the bound {spec.weyl_order}")
    tagged: list[tuple[str, tuple[int, ...], GeomClassId]] = []
    for e in expansions:
        for th, _ in e.terms:
            tagged.append((e.torus.label, th.cexps, geom_class_id((e.torus, th))))
    ids = {gid for _, _, gid in tagged}
    if len(ids) != 1:
        items = ", ".join(f"{t}:{ce} -> {gid.residues}" for t, ce, gid in tagged)
        raise RecoveryInconsistencyError(
            f"{label}: supports span {len(ids)} geometric classes ({items})")
    unipotent = any(th.is_trivial() for e in expansions for th, _ in e.terms)
    return RecoveryReport(label, expansions, tagged[0][2], unipotent)


def is_unipotent(sheet: CharacterSheet, label: str, *,
                 validate: bool = True) -> bool:
    """Whether the trivial character lies in some recovered support.

    Equivalently, the row is constant on every regular locus: a support
    holding the trivial character lies in its geometric class, which holds
    no other character, and an integer constant c has the one-term
    expansion c * theta_0 (a non-integer constant has no short expansion:
    NoExpansionError).  The test suite checks the equivalence on every row.
    """
    return recover_E(sheet, label, validate=validate).unipotent


@dataclass(frozen=True)
class GramReport:
    torus: TorusType
    size: int
    det: CycNum

    @property
    def nonzero(self) -> bool:
        return not self.det.is_zero()

    def __bool__(self) -> bool:
        return self.nonzero


def gram_independence(T: TorusType, chars: Sequence[AbChar]) -> GramReport:
    """Exact Gram determinant of characters paired over the regular locus.

    G[i][j] = sum over regular s of theta_i(s) * theta_j(s^-1); a nonzero
    determinant certifies linear independence of the restrictions.
    """
    spec = T.spec
    _require_gate(spec)
    grp = points(T)
    k = len(chars)
    if not 1 <= k <= 2 * spec.weyl_order:
        raise ValueError(
            f"need between 1 and {2 * spec.weyl_order} characters, got {k}")
    if len({ch.cexps for ch in chars}) != k:
        raise ValueError("characters must be pairwise distinct")
    for ch in chars:
        if ch.group != grp:
            raise ValueError("character is not on the torus points")
    L = grp.exponent
    cols = [[ch.value_exponent(e) for e in regular_elements(T)]
            for ch in chars]
    cache: dict[tuple[int, int], CycNum] = {}

    def entry(i: int, j: int) -> CycNum:
        # symmetric: s -> s^-1 swaps the roles of i and j
        key = (min(i, j), max(i, j))
        g = cache.get(key)
        if g is None:
            counts: dict[int, int] = {}
            for a, b in zip(cols[key[0]], cols[key[1]]):
                e = (a - b) % L
                counts[e] = counts.get(e, 0) + 1
            g = CycNum.from_terms(L, counts)
            cache[key] = g
        return g

    mat = CycMatrix(L, [[entry(i, j) for j in range(k)] for i in range(k)])
    return GramReport(T, k, mat.det())
