"""Independent geometric-conjugacy decider: norms, pullbacks, orbits.

glchar decides geometric conjugacy with one canonical residue invariant,
glchar.tori.geom_class_id.  This module is the second decider that the
tests compare it against, and it shares no logic with it: both characters
are pulled back along the norm maps to a common Frobenius level and
compared up to the S_n coordinate action.  It also carries the pieces
that decider needs (the points T^{F^m} at Frobenius level m,
homomorphisms of point groups, surjectivity by lattice reduction,
Frobenius, embeddings, norms, element enumeration), each of which is
tested on its own.

weyl_orbit is the oracle for conjugacy of rational points: glchar groups
regular elements by their eigenvalue multiset (glchar.tori.eigenvalues),
and the tests check that those groups are the N(T)^F/T^F orbits that
this breadth-first walk finds.  rs_ratio_reference is the oracle of the
density gate's closed-form count (glchar.tori.rs_ratio): it tests every
point of the torus for regularity.

Elements are plain exponent tuples, as in glchar; element() reduces one
into a group and multiply() is the group law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add
from typing import Iterable, Iterator, Sequence

from glchar.abelian import (
    DEFAULT_BUDGET,
    AbChar,
    EnumerationBudgetError,
    FinAbGroup,
)
from glchar.cyclotomic import CycNum, root
from glchar.tori import TorusType, _check_pair, is_regular, points


# -- finite abelian groups --------------------------------------------------

Elt = tuple[int, ...]


def element(G: FinAbGroup, exps: Iterable[int]) -> Elt:
    """exps reduced into G; ValueError unless there is one per modulus."""
    exps = tuple(exps)
    if len(exps) != G.rank:
        raise ValueError("exponent tuple has wrong length")
    return tuple(a % m for a, m in zip(exps, G.moduli))


def multiply(G: FinAbGroup, a: Sequence[int], b: Sequence[int]) -> Elt:
    return element(G, map(add, element(G, a), element(G, b)))


def evaluate(chi: AbChar, g: Sequence[int]) -> CycNum:
    """chi(g) as a root of unity of order dividing the group exponent."""
    return root(chi.group.exponent,
                chi.value_exponent(element(chi.group, g)))


@dataclass(frozen=True)
class AbHom:
    source: FinAbGroup
    target: FinAbGroup
    images: tuple[tuple[int, ...], ...]  # image of each source generator

    def __post_init__(self):
        if len(self.images) != self.source.rank:
            raise ValueError("one image per source generator required")
        imgs = []
        for i, img in enumerate(self.images):
            e = element(self.target, img)
            # well-defined: the i-th generator has order m_i in the source
            if any(self.source.moduli[i] * a % m for a, m in
                   zip(e, self.target.moduli)):
                raise ValueError(f"generator {i} image violates its order")
            imgs.append(e)
        object.__setattr__(self, "images", tuple(imgs))

    def apply(self, g: Sequence[int]) -> Elt:
        acc = [0] * self.target.rank
        for a, img in zip(element(self.source, g), self.images):
            if a:
                for j, b in enumerate(img):
                    acc[j] += a * b
        return element(self.target, acc)

    def compose(self, inner: "AbHom") -> "AbHom":
        """self after inner (source of self = target of inner)."""
        if inner.target != self.source:
            raise ValueError("homs not composable")
        return AbHom(inner.source, self.target,
                     tuple(self.apply(img) for img in inner.images))

    def is_surjective(self) -> bool:
        """Image = target, decided by integer lattice reduction.

        The image is (M Z^s + D Z^r)/D Z^r with M the column matrix of
        generator images and D = diag(target moduli); it is everything iff
        the column lattice of [M | D] is all of Z^r.
        """
        r = self.target.rank
        if r == 0:
            return True
        rows = [[img[i] for img in self.images] for i in range(r)]
        for i in range(r):
            rows[i].extend(self.target.moduli[j] if j == i else 0
                           for j in range(r))
        return _column_lattice_index(rows) == 1


def _column_lattice_index(rows: list[list[int]]) -> int:
    """Index in Z^r of the lattice spanned by the columns (0 if not full rank)."""
    mat = [row[:] for row in rows]
    r = len(mat)
    c = len(mat[0])
    index = 1
    for i in range(r):
        # euclidean column reduction on row i, columns i..
        while True:
            jmin = None
            for j in range(i, c):
                if mat[i][j] and (jmin is None or
                                  abs(mat[i][j]) < abs(mat[i][jmin])):
                    jmin = j
            if jmin is None:
                return 0
            if jmin != i:
                for k in range(r):
                    mat[k][i], mat[k][jmin] = mat[k][jmin], mat[k][i]
            piv = mat[i][i]
            done = True
            for j in range(i + 1, c):
                if mat[i][j]:
                    f = mat[i][j] // piv
                    for k in range(r):
                        mat[k][j] -= f * mat[k][i]
                    if mat[i][j]:
                        done = False
            if done:
                break
        index *= abs(mat[i][i])
    return index


def pullback(chi: AbChar, h: AbHom) -> AbChar:
    """The character chi o h on the source of h.

    Computed on generators: the image of source generator i pairs with chi
    to a root of unity whose order divides m_i, which pins the i-th
    exponent of the pullback; each exponent is then verified pointwise.
    """
    if chi.group != h.target:
        raise ValueError("character not on the target of the hom")
    Lt = h.target.exponent
    out = []
    for i, img in enumerate(h.images):
        mi = h.source.moduli[i]
        e = chi.value_exponent(img)  # chi(h(gen_i)) = zeta_Lt^e
        # chi(h(gen_i)) must be an m_i-th root: e * m_i = 0 mod Lt
        num = e * mi
        if num % Lt:
            raise AssertionError("pullback exponent not integral")
        out.append((num // Lt) % mi)
    pb = AbChar(h.source, tuple(out))
    Ls = h.source.exponent
    for i, img in enumerate(h.images):
        gen = [0] * h.source.rank
        gen[i] = 1
        lhs = pb.value_exponent(gen)
        rhs = chi.value_exponent(img)
        if (lhs * Lt - rhs * Ls) % (Ls * Lt):
            raise AssertionError("pullback failed pointwise check")
    return pb


def enumerate_elements(G: FinAbGroup,
                       budget: int = DEFAULT_BUDGET) -> Iterator[Elt]:
    """All elements in lexicographic exponent order, identity first."""
    if G.order > budget:
        raise EnumerationBudgetError(
            f"group of order {G.order} exceeds budget {budget}")
    return product(*(range(m) for m in G.moduli))


def orbit(chi: AbChar, perms: Iterable[Sequence[int]]) -> tuple[AbChar, ...]:
    """Orbit of chi under the group generated by coordinate permutations.

    Each permutation p sends coordinate i to p[i] and must match equal
    moduli; the closure is taken, so passing generators is enough.
    """
    m = chi.group.moduli
    perms = [tuple(p) for p in perms]
    for p in perms:
        if sorted(p) != list(range(len(m))):
            raise ValueError(f"not a permutation: {p}")
        if any(m[p[i]] != m[i] for i in range(len(m))):
            raise ValueError(f"permutation {p} mixes unequal moduli")

    def act(p: tuple[int, ...], cexps: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * len(cexps)
        for i, c in enumerate(cexps):
            out[p[i]] = c
        return tuple(out)

    seen = {chi.cexps}
    frontier = [chi.cexps]
    while frontier:
        nxt = []
        for ce in frontier:
            for p in perms:
                im = act(p, ce)
                if im not in seen:
                    seen.add(im)
                    nxt.append(im)
        frontier = nxt
    return tuple(AbChar(chi.group, ce) for ce in sorted(seen))


# -- tori at Frobenius level m ----------------------------------------------

@lru_cache(maxsize=None)
def level_points(ttype: TorusType, m: int) -> FinAbGroup:
    """T^{F^m} for twist | m: (Z/(q^m-1))^n, d_i consecutive coordinates
    per block."""
    if m < 1 or m % ttype.twist_order:
        raise ValueError(
            f"level {m} invalid for twist order {ttype.twist_order}")
    return FinAbGroup((ttype.spec.q**m - 1,) * ttype.spec.n)


def _offsets(ttype: TorusType) -> tuple[int, ...]:
    """Index of each block's first coordinate in T^{F^m}."""
    return tuple(sum(ttype.blocks[:i]) for i in range(len(ttype.blocks)))


def frobenius(ttype: TorusType, m: int, t: Sequence[int]) -> Elt:
    """F acting on T^{F^m}: blockwise coordinate shift composed with q-power."""
    grp = level_points(ttype, m)
    exps = element(grp, t)
    out = list(exps)
    for off, d in zip(_offsets(ttype), ttype.blocks):
        for r in range(d):
            out[off + r] = exps[off + (r - 1) % d] * ttype.spec.q
    return element(grp, out)


def embed(ttype: TorusType, m: int, t: Sequence[int]) -> Elt:
    """Embedding T^F into T^{F^m} along the generator tower."""
    exps = element(points(ttype), t)
    q = ttype.spec.q
    Q = q**m - 1
    out = []
    for a, d in zip(exps, ttype.blocks):
        scale = Q // (q**d - 1)
        out.extend(a * scale * q**r for r in range(d))
    return element(level_points(ttype, m), out)


def norm_value(ttype: TorusType, m: int, t: Sequence[int]) -> Elt:
    """Norm T^{F^m} -> T^F: blockwise t * F(t) * ... * F^{m-1}(t) in dlogs.

    Block of size d with level-m coordinates (b_0, ..., b_{d-1}) maps to
    [sum_j b_{(-j mod d)} q^j mod (q^m-1)] / [(q^m-1)/(q^d-1)], reduced mod
    q^d-1; the sum is always divisible by the scale.
    """
    exps = element(level_points(ttype, m), t)
    q = ttype.spec.q
    Q = q**m - 1
    out = []
    for off, d in zip(_offsets(ttype), ttype.blocks):
        s = sum(exps[off + (-j) % d] * q**j for j in range(m)) % Q
        scale = Q // (q**d - 1)
        if s % scale:
            raise AssertionError("norm sum not divisible by embedding scale")
        out.append((s // scale) % (q**d - 1))
    return element(points(ttype), out)


@lru_cache(maxsize=None)
def norm_hom(ttype: TorusType, m: int) -> AbHom:
    """The norm as a homomorphism of point groups, built on generators."""
    src = level_points(ttype, m)
    tgt = points(ttype)
    images = []
    for i in range(src.rank):
        gen = [0] * src.rank
        gen[i] = 1
        images.append(norm_value(ttype, m, gen))
    return AbHom(src, tgt, tuple(images))


def geometric_conjugate(pair_a, pair_b) -> bool:
    """Whether two (torus, character) pairs are geometrically conjugate.

    Both characters are pulled back along the norms to the common level
    m = lcm of the twist orders, where both point groups are coordinatewise
    (Z/(q^m-1))^n, and compared up to the S_n coordinate action.
    """
    ta, chi_a = pair_a
    tb, chi_b = pair_b
    _check_pair(pair_a)
    _check_pair(pair_b)
    if ta.spec != tb.spec:
        raise ValueError("pairs over different groups")
    m = math.lcm(ta.twist_order, tb.twist_order)
    up_a = pullback(chi_a, norm_hom(ta, m))
    up_b = pullback(chi_b, norm_hom(tb, m))
    n = ta.spec.n
    if n == 1:
        return up_a == up_b
    swaps = [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n))
             for i in range(n - 1)]
    return up_b in orbit(up_a, swaps)


# -- Weyl orbits of rational points -----------------------------------------

def weyl_orbit(ttype: TorusType, t: Sequence[int]) -> tuple[Elt, ...]:
    """Orbit of a T^F element under N(T)^F/T^F, as sorted dlog tuples.

    The quotient is generated by the blockwise Frobenii (dlog multiplication
    by q on one block) and the swaps of equal-size blocks; two regular
    elements are G^F-conjugate iff they share an orbit.
    """
    grp = points(ttype)
    exps = element(grp, t)
    q = ttype.spec.q
    k = len(ttype.blocks)
    swaps = [(i, j) for i in range(k) for j in range(i + 1, k)
             if ttype.blocks[i] == ttype.blocks[j]]
    seen = {exps}
    frontier = [exps]
    while frontier:
        nxt = []
        for e in frontier:
            images = []
            for i in range(k):
                im = list(e)
                im[i] = im[i] * q % grp.moduli[i]
                images.append(tuple(im))
            for i, j in swaps:
                im = list(e)
                im[i], im[j] = im[j], im[i]
                images.append(tuple(im))
            for im in images:
                if im not in seen:
                    seen.add(im)
                    nxt.append(im)
        frontier = nxt
    return tuple(sorted(seen))


# -- the regular locus ------------------------------------------------------

def rs_ratio_reference(tt: TorusType) -> Fraction:
    """|T^F - T^F_rs| / |T^F|, exactly, by testing every point."""
    grp = points(tt)
    regular = sum(1 for e in product(*map(range, grp.moduli))
                  if is_regular(tt, e))
    return Fraction(grp.order - regular, grp.order)
