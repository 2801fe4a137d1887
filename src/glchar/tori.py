"""Maximal tori of GL_n over F_q in discrete-log coordinates.

A torus type is a partition of n (the cycle type of the twisting Weyl
element); its F-rational points T^F form the group prod_i Z/(q^{d_i}-1),
one dlog coordinate per block, and its elements are plain dlog tuples.
All finite-field multiplicative groups are modelled through a
norm-compatible tower of generators g_d of F_{q^d}^*, so that embedding
F_{q^d}^* -> F_{q^L}^* is dlog scaling by (q^L-1)/(q^d-1) and Frobenius
x -> x^q is dlog multiplication by q.

This module holds the density gate and the eigenvalue invariant, which
decides regularity, conjugacy of regular elements and geom_class_id.
No field addition is ever required; everything below is integer
arithmetic on exponents.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Sequence

from .abelian import (
    DEFAULT_BUDGET, AbChar, EnumerationBudgetError, FinAbGroup, _Normalized)
from .cyclotomic import _factorize, divisors


def is_prime_power(q: int) -> bool:
    return len(_factorize(q)) == 1  # _factorize(q) is {} for q < 2


def check_budget(n: int, q: int) -> None:
    """EnumerationBudgetError unless q^n - 1 <= DEFAULT_BUDGET.

    The n-block torus of GL_n(F_q) has q^n - 1 points, so no larger group
    can be enumerated.  Cheap for any n and q: it stops multiplying once
    the product passes the budget, so it can guard untrusted input before
    GroupSpec (trial division of q) and enumerate_tori (every partition
    of n).
    """
    if q >= 2:
        size = 1
        for _ in range(n):
            size *= q
            if size - 1 > DEFAULT_BUDGET:
                raise EnumerationBudgetError(
                    f"q^n - 1 exceeds the enumeration budget "
                    f"{DEFAULT_BUDGET} for n = {n}, q = {q}")


class _GroupSpec(NamedTuple):
    n: int
    q: int


class GroupSpec(_Normalized, _GroupSpec):
    """GL_n over F_q."""

    __slots__ = ()

    def __new__(cls, n: int, q: int):
        if n < 1:
            raise ValueError("rank must be >= 1")
        if not is_prime_power(q):
            raise ValueError(f"q = {q} is not a prime power")
        return super().__new__(cls, n, q)

    @property
    def weyl_order(self) -> int:
        return math.factorial(self.n)

    @property
    def group_order(self) -> int:
        """|GL_n(F_q)| = prod (q^n - q^i)."""
        return math.prod(self.q**self.n - self.q**i for i in range(self.n))


class _TorusType(NamedTuple):
    spec: GroupSpec
    blocks: tuple[int, ...]


class TorusType(_Normalized, _TorusType):
    __slots__ = ()

    def __new__(cls, spec: GroupSpec, blocks: Sequence[int]):
        b = tuple(sorted((int(d) for d in blocks), reverse=True))
        if sum(b) != spec.n or any(d < 1 for d in b):
            raise ValueError(f"{blocks} is not a partition of {spec.n}")
        return super().__new__(cls, spec, b)

    @property
    def twist_order(self) -> int:
        return math.lcm(*self.blocks)

    @property
    def label(self) -> str:
        return "+".join(str(d) for d in self.blocks)


def torus_from_label(spec: GroupSpec, label: str) -> TorusType:
    try:
        blocks = tuple(int(p) for p in label.split("+"))
    except ValueError:
        raise ValueError(f"bad torus label {label!r}") from None
    return TorusType(spec, blocks)


def enumerate_tori(spec: GroupSpec) -> list[TorusType]:
    """All torus types of GL_n, ascending lexicographic on the partition."""

    def parts(n: int, cap: int):
        if n == 0:
            yield ()
            return
        for d in range(min(n, cap), 0, -1):
            for rest in parts(n - d, d):
                yield (d,) + rest

    return [TorusType(spec, p) for p in sorted(parts(spec.n, spec.n))]


@lru_cache(maxsize=None)
def points(ttype: TorusType) -> FinAbGroup:
    """The group T^F of rational points."""
    q = ttype.spec.q
    return FinAbGroup(tuple(q**d - 1 for d in ttype.blocks))


def _exps(ttype: TorusType, t: Sequence[int]) -> tuple[int, ...]:
    """A dlog tuple of T^F reduced mod the moduli."""
    t = tuple(t)
    moduli = points(ttype).moduli
    if len(t) != len(moduli):
        raise ValueError("exponent tuple has wrong length")
    return tuple(a % m for a, m in zip(t, moduli))


def eigenvalues(ttype: TorusType, t: Sequence[int], L: int) -> tuple[int, ...]:
    """Multiset of n eigenvalue dlogs at level L (sorted tuple).

    Block i with dlog a_i contributes a_i q^j (q^L-1)/(q^{d_i}-1) for
    j < d_i; requires d_i | L for every block.  At L = twist_order this
    is the invariant of G^F-conjugacy: a semisimple class of GL_n is
    fixed by its characteristic polynomial, so two elements of T^F are
    conjugate exactly when their eigenvalue multisets agree.
    """
    exps = _exps(ttype, t)
    q = ttype.spec.q
    QL = q**L - 1
    out = []
    for a, d in zip(exps, ttype.blocks):
        if L % d:
            raise ValueError(f"block size {d} does not divide level {L}")
        scale = QL // (q**d - 1)
        out.extend(a * q**j * scale % QL for j in range(d))
    return tuple(sorted(out))


def is_regular(ttype: TorusType, t: Sequence[int]) -> bool:
    ev = eigenvalues(ttype, t, ttype.twist_order)
    return len(set(ev)) == ttype.spec.n


@lru_cache(maxsize=None)
def regular_elements(ttype: TorusType) -> tuple[tuple[int, ...], ...]:
    """All regular dlog tuples of T^F, lexicographic order."""
    grp = points(ttype)
    if grp.order > DEFAULT_BUDGET:
        raise EnumerationBudgetError(
            f"torus of order {grp.order} exceeds budget {DEFAULT_BUDGET}")
    return tuple(exps for exps in product(*(range(m) for m in grp.moduli))
                 if is_regular(ttype, exps))


@lru_cache(maxsize=None)
def positions(ttype: TorusType) -> dict[tuple[int, ...], int]:
    """Each regular element's index in regular_elements(ttype); shared."""
    return {e: p for p, e in enumerate(regular_elements(ttype))}


def _mobius(m: int) -> int:
    powers = _factorize(m).values()
    return 0 if any(e > 1 for e in powers) else (-1) ** len(powers)


def rs_ratio(ttype: TorusType) -> Fraction:
    """|T^F - T^F_rs| / |T^F|, exactly, in closed form: no point is listed.

    A d-block point x of F_{q^d}^* has distinct eigenvalues when it has
    degree d over F_q; N_d = sum_{e | d} mu(d/e) q^e - [d = 1] such x lie
    in orbits of d.  Blocks of different sizes share no eigenvalue, and
    the m_d blocks of size d need distinct orbits, so |T^F_rs| =
    prod_d prod_{i < m_d} (N_d - i d).
    """
    q, blocks = ttype.spec.q, ttype.blocks
    regular = 1
    for d in set(blocks):
        n_d = sum(_mobius(d // e) * q**e for e in divisors(d)) - (d == 1)
        for i in range(blocks.count(d)):
            regular *= n_d - i * d
    order = points(ttype).order
    return Fraction(order - regular, order)


def _below_power_of_two(r: Fraction, k: int) -> bool:
    """r < 2^-k for a ratio r >= 0, building no k-bit integer when
    r = 0 or 2^k exceeds the denominator (then 2^k * r > 1 for r > 0)."""
    if r.numerator == 0:
        return True
    if k >= r.denominator.bit_length():
        return False
    return r.numerator << k < r.denominator


class QConditionReport(NamedTuple):
    """Non-regular ratio of every torus against the threshold 2^-k,
    k = threshold_exp = 2|W| - 1, kept as an exponent: at n >= 8, 2^k has
    over 24k decimal digits."""

    spec: GroupSpec
    threshold_exp: int
    ratios: tuple[tuple[TorusType, Fraction], ...]

    @property
    def threshold(self) -> Fraction:
        """2^-k exactly (builds 2^k)."""
        return Fraction(1, 1 << self.threshold_exp)

    @property
    def threshold_text(self) -> str:
        """'1/8' and the like below n = 8; '1/2^k' from n = 8 on."""
        if self.spec.n >= 8:
            return f"1/2^{self.threshold_exp}"
        return str(self.threshold)

    @property
    def ok(self) -> bool:
        return all(_below_power_of_two(r, self.threshold_exp)
                   for _, r in self.ratios)

    def __bool__(self) -> bool:
        return self.ok


@lru_cache(maxsize=None)
def check_q_condition(spec: GroupSpec) -> QConditionReport:
    """Strict bound |T^F - T^F_rs| / |T^F| < 2^(1 - 2|W|) for every torus."""
    ratios = tuple((tt, rs_ratio(tt)) for tt in enumerate_tori(spec))
    return QConditionReport(spec, 2 * spec.weyl_order - 1, ratios)


Pair = tuple[TorusType, AbChar]


def _check_pair(pair: Pair) -> None:
    ttype, chi = pair
    if chi.group != points(ttype):
        raise ValueError("character is not on the rational points of the torus")


class GeomClassId(NamedTuple):
    """Canonical label of a geometric conjugacy class of pairs."""

    level: int
    residues: tuple[int, ...]


def geom_class_id(pair: Pair) -> GeomClassId:
    """Normal form at reference level L = lcm(1..n): the sorted multiset of
    lifted Frobenius-orbit members of the character exponents, blockwise,
    which is the eigenvalue lift of a point applied to the exponents."""
    ttype, chi = pair
    _check_pair(pair)
    L = math.lcm(*range(1, ttype.spec.n + 1))
    return GeomClassId(L, eigenvalues(ttype, chi.cexps, L))
