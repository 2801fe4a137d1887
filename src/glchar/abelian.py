"""Finite abelian groups in exponent coordinates, with their duals.

A group is presented as Z/m_1 x ... x Z/m_r by its tuple of moduli.
Its elements are plain exponent tuples (a_1, ..., a_r) with 0 <= a_i < m_i;
a character is an AbChar, the exponent tuple (c_1, ..., c_r) reduced
componentwise, and takes the value zeta_L^{sum c_i a_i (L/m_i)} on the
element (a_1, ..., a_r), where L = lcm(m_i).  Keeping everything in
exponent form means equality and evaluation are integer arithmetic; no
value table is ever materialized.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator, NamedTuple, Sequence

DEFAULT_BUDGET = 10**6


class EnumerationBudgetError(RuntimeError):
    """Group too large for exhaustive enumeration."""


class _FinAbGroup(NamedTuple):
    moduli: tuple[int, ...]


class FinAbGroup(_FinAbGroup):
    __slots__ = ()

    def __new__(cls, moduli: Sequence[int]):
        moduli = tuple(int(m) for m in moduli)
        if any(m < 1 for m in moduli):
            raise ValueError("moduli must be positive")
        return super().__new__(cls, moduli)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.moduli) if self.moduli else 1

    def char(self, cexps: Sequence[int]) -> "AbChar":
        return AbChar(self, tuple(cexps))


class _AbChar(NamedTuple):
    group: FinAbGroup
    cexps: tuple[int, ...]


class AbChar(_AbChar):
    __slots__ = ()

    def __new__(cls, group: FinAbGroup, cexps: Sequence[int]):
        m = group.moduli
        if len(cexps) != len(m):
            raise ValueError("character tuple has wrong length")
        return super().__new__(
            cls, group, tuple(c % mi for c, mi in zip(cexps, m)))

    def is_trivial(self) -> bool:
        return not any(self.cexps)

    def value_exponent(self, exps: Sequence[int]) -> int:
        """Exponent of zeta_L on the element with the given coordinates.

        ValueError unless there is one coordinate per modulus.
        """
        L = self.group.exponent
        return sum(c * a * (L // m) for c, a, m in
                   zip(self.cexps, exps, self.group.moduli, strict=True)) % L


def enumerate_chars(G: FinAbGroup) -> Iterator[AbChar]:
    if G.order > DEFAULT_BUDGET:
        raise EnumerationBudgetError(
            f"group of order {G.order} exceeds budget {DEFAULT_BUDGET}")
    for cexps in product(*(range(m) for m in G.moduli)):
        yield AbChar(G, cexps)

