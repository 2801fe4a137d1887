"""Recovery of the parameter map from character values on regular elements.

The central operation is sparse_decompose: given the restriction of a class
function to the regular locus of one torus, find the unique expansion as an
integer combination of at most |W| distinct torus characters.  The search
covers subsets of at most two characters: |W| = 2 for GL_2, and for GL_3
(|W| = 6) the gate first passes at q = 6151, where the split torus has
2.3e11 points, far over the enumeration budget, so no larger bound can
ever run.  recover_E assembles the per-torus expansions of one sheet row
into the geometric class label (geom_class_id) and the unipotence flag;
gram_independence audits the independence step.  The check against the
known GL_2 decomposition pattern is a test oracle (tests/oracle_pattern.py).

Uniqueness is a theorem, not a scan.  The uncertainty principle for a
finite abelian group G (Donoho and Stark, SIAM J. Appl. Math. 49, 1989;
Meshulam, Eur. J. Combin. 27, 2006): a nonzero combination g of k
characters has |supp g| * k >= |G|.  (With S the sum of |g|^2 over G,
orthogonality gives S = |G| sum |c_chi|^2, and Cauchy-Schwarz |g(x)|^2
<= k S / |G|, so S <= |supp g| k S / |G|.)  Let E and E' be expansions of
at most |W| terms that agree on the regular locus, N the non-regular
points of T^F:

1. g = E - E' combines at most 2|W| characters, and supp g lies in N.
2. The gate gives |N| / |T^F| < 2^(1-2|W|) <= 1/(2|W|), as 2^(2w-1) >= 2w
   for w >= 1; so |supp g| * 2|W| < |T^F|.
3. So g = 0 on T^F, and as characters are independent there, E = E'.

Every entry point therefore stops at the first expansion that matches f
on every regular element: none is accepted unchecked, and no second one
exists.  Each refuses to run when the density gate fails
(QConditionViolated), where the guarantee is void.  tests/test_recovery.py
checks step 2 on every gated GL_1 and GL_2 up to q = 64.

Performance note: the subset scan dominates.  Subsets are screened with
pure integer arithmetic on shifted value vectors f(s) * zeta^{-theta_a(s)},
memoized once per call and shared by the one- and two-term scans.  A shift
next to a cached one at the same sample is one companion step, O(phi),
instead of a fold, O(nnz * phi) (see _shifter).  The two-term scan does
not walk all K(K-1)/2 pairs: for each first character a, the sample
equations on a few separating samples fix both coefficients and the second
character through index lookups (see _scan_pairs).  Every pair that
satisfies those equations is enumerated and verified against every
regular element, so the screen affects speed only, never which expansions
are accepted.

The integer kernels under the scan run their per-coordinate loops in C
(map over operator functions, coefficients from itertools.repeat), and
tests/test_kernels.py checks each against a plain loop.  No K x R table of
exponents is kept (K characters, R regular samples): the scans read the K
exponents at a few samples, one cached column each, and _verify reads
those of its one or two characters lazily (see _TorusSolver).  The screens
rest on the gate lemma: a character chi of a finite abelian group G that
is constant on a subset L holding more than half of G is trivial, since
for g in G the sets L and g^-1 L each hold more than half of G, so some x
lies in both, and chi(g) = chi(gx) / chi(x) = 1.  Under the density gate
the regular locus is such a set, so every non-trivial character moves on
it, and any two characters differ there.

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
holds no value vectors.  A verified hit E theta_c has at most |W| terms
and matches f' on the whole locus, so by the theorem above it is the
unique short expansion of f'.  A miss runs sparse_decompose, which itself
keeps no memo.  The memo lives and dies with its sheet, and errors are not
kept.  The expected values are _verify's memo: twists of one expansion
expect the same values again and again.  A sheet's value table is prepared once
per torus and kept on the table (_prepare): at q = 23, preparing it for
each of the 1,056 torus inputs took a third of the whole recovery.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property, lru_cache, partial, reduce
from itertools import compress, count, product, repeat
from operator import add, attrgetter, floordiv, mod, mul
from typing import Mapping, NamedTuple, Sequence

from .abelian import DEFAULT_BUDGET, AbChar, _Normalized, enumerate_chars
from .cyclotomic import CycNum, _context, _fold, _scaled
from .sheets import CharacterSheet, index_row
from .tori import (
    GeomClassId,
    GroupSpec,
    TorusType,
    check_budget,
    check_q_condition,
    geom_class_id,
    is_regular,
    points,
    regular_elements,
)

__all__ = [
    "QConditionViolated",
    "NoExpansionError",
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


class RecoveryInconsistencyError(RuntimeError):
    """Recovered data violates a structural guarantee."""


def _require_gate(spec: GroupSpec):
    report = check_q_condition(spec)
    if not report.ok:
        raise QConditionViolated(report)
    return report


class _Expansion(NamedTuple):
    torus: TorusType
    terms: tuple[tuple[AbChar, int], ...]


class Expansion(_Normalized, _Expansion):
    """An exact expansion f = sum of c_i * theta_i on the regular locus.

    Characters are pairwise distinct and listed in lexicographic exponent
    order; every coefficient is a nonzero integer.  m = 0 encodes the zero
    function.
    """

    __slots__ = ()

    def __new__(cls, torus: TorusType,
                terms: Sequence[tuple[AbChar, int]]):
        grp = points(torus)
        seen = set()
        for th, c in terms:
            if th.group != grp:
                raise ValueError("character is not on the torus points")
            if type(c) is not int or c == 0:  # True is an int too
                raise ValueError(f"coefficient {c!r} is not a nonzero integer")
            if th.cexps in seen:
                raise ValueError(f"repeated character {th.cexps}")
            seen.add(th.cexps)
        return super().__new__(
            cls, torus, tuple(sorted(terms, key=lambda p: p[0].cexps)))

    @property
    def m(self) -> int:
        return len(self.terms)

    def describe(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*theta{th.cexps}" for th, c in self.terms)


class RecoveryReport(NamedTuple):
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
    """Immutable per-(torus, level) data shared by every decomposition.

    The exponent of zeta_level taken by the character (c_1, ..., c_r) at a
    regular element is sum c_j g_j mod level, g_j that of the j-th
    generator character, so theta_b = theta_a * theta_delta with delta =
    b - a in every coordinate.  col(s) makes the K exponents at sample s in
    mixed radix (the order of product over the moduli, last coordinate
    fastest), cached for the few samples the scans read.  exps(i) maps
    over the generator columns gens, permuted once into verification order,
    lazily and skipping zero coefficients, so a rejected candidate computes
    only the samples it checks.  Nothing here is K x R.

    The gate lemma: a character chi constant on a set L holding more than
    half of a finite abelian group G is trivial.  For g in G, the sets L and
    g^-1 L each hold over half of G, so they meet at some x, and chi(g) =
    chi(gx) / chi(x) = 1.  Under the density gate the regular locus holds
    more than half of the torus points, so pin and rational take every
    non-trivial character to move on it.  All of this is built on first use
    and kept, as it does not depend on the input function.
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
        self.red, self.phi = ctx.red, ctx.phi
        self.chars = tuple(enumerate_chars(grp))
        self._col: dict[int, list[int]] = {}
        self._pivot: dict[tuple[int, int], tuple[int, int, tuple[int, ...]]] = {}
        self._at: dict[int, dict[int, list[int]]] = {}

    def col(self, s: int) -> list[int]:
        """col(s)[i]: the exponent of character i at sample s (cached)."""
        out = self._col.get(s)
        if out is None:
            level, out = self.level, [0]
            for e, m in zip(self.regs[s], self.group.moduli):
                mults = [k * e * (level // m) % level for k in range(m)]
                out = [(x + y) % level for x in out for y in mults]
            self._col[s] = out
        return out

    @cached_property
    def gens(self) -> tuple[list[int], ...]:
        """gens[j][t]: the exponent of generator j at sample order[t]."""
        level = self.level
        return tuple([self.regs[s][j] * (level // m) % level
                      for s in self.order]
                     for j, m in enumerate(self.group.moduli))

    def exps(self, i: int):
        """The exponents of character i at the samples in order, lazily."""
        terms = [map(mul, g, repeat(c))
                 for c, g in zip(self.chars[i].cexps, self.gens) if c]
        terms = terms or [repeat(0, len(self.regs))]  # the trivial character
        return map(mod, reduce(partial(map, add), terms), repeat(self.level))

    def pivot(self, d0: int, d1: int) -> tuple[int, int, tuple[int, ...]]:
        """First nonzero coordinate of zeta^d1 - zeta^d0, with the full row."""
        out = self._pivot.get((d0, d1))
        if out is None:
            w = tuple(b - a for a, b in zip(self.red[d0], self.red[d1]))
            i0 = next(i for i, v in enumerate(w) if v)
            out = self._pivot[(d0, d1)] = (i0, w[i0], w)
        return out

    def at(self, s: int) -> dict[int, list[int]]:
        """Character indices by the exponent they take at sample s."""
        out = self._at.get(s)
        if out is None:
            out = self._at[s] = {}
            for i, e in enumerate(self.col(s)):
                out.setdefault(e, []).append(i)
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
        Under the density gate the whole locus separates (gate lemma).
        """
        K = len(self.chars)
        sep = [0]
        keys = [(e,) for e in self.col(0)]
        classes = len(set(keys))
        for s in range(1, len(self.regs)):
            if classes == K:
                break
            ext = [k + (e,) for k, e in zip(keys, self.col(s))]
            n = len(set(ext))
            if n > classes:
                sep.append(s)
                keys, classes = ext, n
            else:
                del self._col[s]  # a column no scan reads
        if classes < K:
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
    def pin(self) -> dict[tuple[int, ...], int]:
        """Non-trivial difference character by its exponents on the
        separating samples (a pair differing by the trivial one is one
        character; by the gate lemma, no other makes a dependent pair)."""
        out = dict(zip(zip(*map(self.col, self.sep)), range(len(self.chars))))
        del out[(0,) * len(self.sep)]
        return out

    @cached_property
    def rational(self) -> tuple[tuple[int, int], ...]:
        """(d, probe) for each d in pin with zeta^{d(s0)} = +-1, probe the
        first sample in order where d moves off its value at sample 0.
        ValueError if d never moves: the gate lemma rules that out, so only
        a solver built off the density gate can raise it."""
        red, col0, out = self.red, self.col(0), []
        for di in self.pin.values():
            if not any(red[col0[di]][1:]):
                moved = map(col0[di].__ne__, self.exps(di))
                s1 = next(compress(self.order, moved), None)
                if s1 is None:
                    raise ValueError(
                        f"the character {self.chars[di].cexps} is constant "
                        f"on the regular locus of {self.ttype.label}")
                out.append((di, s1))
        return tuple(out)

    @cached_property
    def dirs(self) -> dict[int, list[tuple[int, int]]]:
        """Hash of the primitive direction of the power-basis tail of
        zeta^d -> [(d, k)], so no phi - 1 long tuple is kept.

        Only exponents d taken at sample 0 by some character are listed;
        the tail of zeta^d is k times its direction.  A colliding hash
        lists entries of another direction, whose pairs fail at sample 0.
        """
        out: dict[int, list[tuple[int, int]]] = {}
        for d in sorted(set(self.col(0))):
            tail = self.red[d][1:]
            if any(tail):
                key, k = _direction(tail)
                out.setdefault(hash(key), []).append((d, k))
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
    red, ca, cb = solver.red, coeffs[0], coeffs[-1]
    ea = solver.exps(idxs[0])
    keys = (zip(repeat(ca), ea) if len(idxs) == 1 else
            zip(repeat(ca), repeat(cb), ea, solver.exps(idxs[1])))
    for s, key in zip(solver.order, keys):
        f = fvec[s]
        v = memo.get(key)
        if v is not f:
            if v is None:  # key[-1]: theta_b(s), or theta_a(s) if one term
                v = _scaled(red[key[-1]], cb)
                if len(key) == 4:
                    v = map(add, v, _scaled(red[key[2]], ca))
                v = memo[key] = tuple(v)
            if v != f:
                return False
            memo[key] = f
    return True


def _scan_singles(solver: _TorusSolver, fvec, cap: int,
                  shift=None) -> list[tuple[int, int]]:
    """The first cap valid one-term expansions (index, coefficient)."""
    if shift is None:
        shift = _shifter(solver, fvec)
    memo: dict = {}  # of _verify, for this call
    hits: list[tuple[int, int]] = []
    for ia, e in enumerate(solver.col(0)):
        g0 = shift(0, e)
        c = g0[0]
        if c == 0 or any(g0[1:]):
            continue
        if _verify(solver, fvec, (ia,), (c,), memo):
            hits.append((ia, c))
            if len(hits) >= cap:
                break
    return hits


def _pivot_screen(solver: _TorusSolver, shift, ia: int, di: int, s1: int,
                  g0) -> tuple[int, int] | None:
    """(ca, cb) from the sample equations at s0 and at s1, the probe of di.

    c_a + c_b zeta^{d(s)} = f(s) zeta^{-theta_a(s)} at the two samples
    gives c_b by one pivot division; non-integers or zeros reject.
    """
    c1 = solver.col(s1)
    d0 = solver.col(0)[di]
    i0, w0, w = solver.pivot(d0, c1[di])
    g1 = shift(s1, c1[ia])
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
      and its tail is proportional to that of g_0.  dirs, under the hash of
      that direction, lists each exponent d(s0) with it (a collision adds
      others, whose pairs fail at s0), and each fixes c_b (exact division)
      and c_a.  On every further separating sample, (g_s - c_a) / c_b must
      be a root of unity zeta^{d(s)}; the exponent tuple on the separating
      samples names d, hence b, through pin.
    - If the tail is zero, zeta^{d(s0)} = +-1 for every valid pair, and the
      pivot screen runs over just those difference characters.

    Both branches derive (c_a, c_b) from equations that every valid pair
    satisfies, so every pair matching the sample equations is enumerated;
    each one is then verified on the whole locus.  The hit list is exactly
    that of the pairwise scan (tests/test_pair_oracle.py compares them);
    sparse_decompose takes the first hit, which by the uncertainty bound is
    the only one (module docstring).
    """
    if shift is None:
        shift = _shifter(solver, fvec)
    memo: dict = {}  # of _verify, for this call
    red, pin, dirs, exp_of = solver.red, solver.pin, solver.dirs, solver.exp_of
    rest = [(s, solver.col(s)) for s in solver.sep[1:]]
    # case-1 candidates (d, ca, cb) by the exponent theta_a(s0); None marks
    # a rational g0 (case 2)
    firsts: dict[int, list[tuple[int, int, int]] | None] = {}
    # exponent d(s) read at sample s, by (s, theta_a(s), ca, cb); None = no
    # root of unity.  Many first characters share theta_a(s) at a sample.
    roots: dict[tuple[int, int, int, int], int | None] = {}
    hits: list[tuple[int, int, int, int]] = []
    for ia, ta0 in enumerate(solver.col(0)):
        g0 = shift(0, ta0)
        if ta0 in firsts:
            cands = firsts[ta0]
        else:
            cands = None
            if any(g0[1:]):
                key, m = _direction(g0[1:])
                cands = []
                for d, k in dirs.get(hash(key), ()):
                    cb, rem = divmod(m, k)
                    ca = g0[0] - cb * red[d][0]
                    if not rem and ca:
                        cands.append((d, ca, cb))
            firsts[ta0] = cands
        found: list[tuple[int, int, int]] = []
        if cands is None:
            for di, s1 in solver.rational:
                ib = solver.times(ia, di)
                if ib > ia:
                    cc = _pivot_screen(solver, shift, ia, di, s1, g0)
                    if cc is not None:
                        found.append((ib, *cc))
        else:
            for d, ca, cb in cands:
                key = [d]
                for s, cs in rest:
                    rk = (s, cs[ia], ca, cb)
                    if rk in roots:
                        e = roots[rk]
                    else:
                        g = shift(s, cs[ia])
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
    read through its sheets.index_row.  The row's table is lifted, read and
    zero-tested once per torus, and kept as (level, nums, nonzero) in
    vars(table)[T]; a ValueTable never changes, so every later row over it
    only indexes that.  ValueError when the keys are not exactly the
    regular tuples of T.
    """
    row = index_row(f, T)
    if row is None:
        regs = regular_elements(T)
        raise ValueError(
            f"function domain does not match the regular locus of "
            f"{T.label}: missing {[e for e in regs if e not in f][:3]}, "
            f"extra {sorted(set(f) - set(regs))[:3]}")
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
    values).  The zero function is the empty expansion.  Else the one-term
    scan runs, then the two-term scan if it found nothing, and each stops at
    the first subset whose integer coefficients, read off the sample
    equations, match f on every regular element.  That is the only short
    expansion: another would differ from it by some g of at most 2|W|
    characters with supp g in the non-regular points N, and the gate gives
    |supp g| * 2|W| <= |N| * 2|W| < |T^F|, which the uncertainty bound
    allows only for g = 0 (module docstring).  Groups with |W| > 2 are
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
    if s is None:
        return Expansion(T, ())
    solver = _solver(T, level)
    bound = min(spec.weyl_order, len(solver.chars))

    shift = _shifter(solver, fvec)
    hits = [((ia, c),) for ia, c in _scan_singles(solver, fvec, 1, shift)]
    if not hits and bound >= 2:
        hits = [((ia, ca), (ib, cb)) for ia, ib, ca, cb in
                _scan_pairs(solver, fvec, 1, shift)]
    if not hits:
        raise NoExpansionError(
            f"no expansion with at most {bound} nonzero integer terms "
            f"matches the function on torus {T.label} at q = {spec.q}")
    return Expansion(T, tuple((solver.chars[i], c) for i, c in hits[0]))


# -- the twist memo -----------------------------------------------------------

def _memo_decompose(memo: dict, f: Mapping[tuple[int, ...], CycNum],
                    T: TorusType) -> Expansion:
    """sparse_decompose(f, T), served from the twist memo when it can be.

    memo maps (T, level) to (twists, expected).  twists maps (s*, hash of
    f(s*) zeta^x) to the (x, indices, coefficients) of every searched
    expansion, and None to the empty expansion of the zero function
    (module docstring).  A candidate E theta_c is accepted only after
    _verify has checked it on every regular element, with expected as its
    memo; it is then the unique short expansion, as a searched one is.  A
    miss runs the search through the module global, so a wrapper sees
    every search; errors are not stored, and an input _prepare refuses
    stores nothing.
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

    Each torus runs the search of sparse_decompose, or takes a verified
    twist of an expansion that search found earlier on this sheet.  Either
    answer matches the row on every regular element and has at most |W|
    terms (a twist has the length of what it twists), so it is the unique
    short expansion (module docstring).  Hard errors: empty support on every torus, or supports in
    more than one geometric conjugacy class.  The unipotence flag records
    whether the trivial character appears in some support.

    The sheet is not checked: each answer is proved by its own check on
    the whole locus (glchar.sheets checks a sheet where it enters).  The search is serial.
    validate and jobs are accepted and ignored: they stay only until the
    benchmark probe (perfbench/tracing.py) stops passing them.
    """
    _require_gate(sheet.spec)
    row = sheet.row(label)
    memo = vars(sheet).setdefault("_memo", {})  # module docstring
    expansions = tuple(_memo_decompose(memo, row.values[tt.blocks], tt)
                       for tt in sheet.tori)
    if all(e.m == 0 for e in expansions):
        raise RecoveryInconsistencyError(
            f"{label}: empty support on every torus")
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


def is_unipotent(sheet: CharacterSheet, label: str) -> bool:
    """Whether the trivial character lies in some recovered support.

    Equivalently, the row is constant on every regular locus: a support
    holding the trivial character lies in its geometric class, which holds
    no other character, and an integer constant c has the one-term
    expansion c * theta_0 (a non-integer constant has no short expansion:
    NoExpansionError).  The test suite checks the equivalence on every row.
    """
    return recover_E(sheet, label).unipotent


class GramReport(NamedTuple):
    torus: TorusType
    size: int
    det: int

    @property
    def nonzero(self) -> bool:
        return self.det != 0

    def __bool__(self) -> bool:
        return self.nonzero


def gram_independence(T: TorusType, chars: Sequence[AbChar]) -> GramReport:
    """Exact Gram determinant of characters paired over the regular locus.

    G[i][j] = sum over regular s of theta_i(s) * theta_j(s^-1); a nonzero
    determinant certifies linear independence of the restrictions.  Two
    expansions of at most |W| terms differ by at most 2|W| characters, so
    that many are audited, and |W| <= 2 wherever the gate passes within
    the enumeration budget: k <= 4.

    The determinant is an integer formula.  Let H be the non-regular
    points of T^F.  The sum over regular s is the sum over T^F less the
    sum over H.  The first is |T^F| [i = j], as the characters are
    distinct.  The gate passes within the budget only for n <= 2, and
    there H is empty in GL_1, where every point is regular, and the
    subgroup of scalars F_q^* on either GL_2 torus (tests/test_tori.py
    checks both).  So the second sum is |H| exactly when theta_i and
    theta_j agree on H, and 0 otherwise:

        G = |T^F| I - |H| J,  J[i][j] = 1 when theta_i = theta_j on H.

    Grouping the characters by their restriction to H makes J block
    diagonal, one all-ones block J_m per group of size m, and
    det(a I_m - b J_m) = a^(m-1) (a - m b), as J_m has the eigenvalue m
    once and 0 otherwise.  So det G is the product over the groups of
    |T^F|^(m-1) (|T^F| - m |H|).  The gate gives |H| 2|W| < |T^F|, and
    m <= k <= 2|W|, so every factor and the determinant are positive.
    The points are walked once, lazily, to find H; no value of Z[zeta_L]
    is built.
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
    check_budget(spec.n, spec.q)
    H = [e for e in product(*map(range, grp.moduli)) if not is_regular(T, e)]
    groups = Counter(tuple(map(ch.value_exponent, H)) for ch in chars)
    order, h = grp.order, len(H)
    det = math.prod(order ** (m - 1) * (order - m * h)
                    for m in groups.values())
    return GramReport(T, k, det)
