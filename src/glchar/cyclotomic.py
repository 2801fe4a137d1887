"""Exact arithmetic in cyclotomic integers Z[zeta_N].

Conventions used throughout:

- The level N >= 1 names the ring Z[zeta_N], zeta_N an abstract primitive
  N-th root of unity.  No complex embedding is ever chosen and no floating
  point appears anywhere; equality is decided on coefficient vectors.
- An element is stored in the power basis {1, zeta, ..., zeta^(phi(N)-1)}
  reduced modulo the N-th cyclotomic polynomial, as a vector of integers.
  That basis is a Z-basis of Z[zeta_N], the ring of integers of Q(zeta_N),
  and every character value is an algebraic integer, so no denominator is
  ever needed.  Equal values have identical representations, so `==` and
  `hash` are structural.
- Values are immutable.  Arithmetic requires both operands at the same
  level; combine levels explicitly with `lift` (allowed exactly when the
  source level divides the target level).
- Complex conjugation and inversion are deliberately absent:
  callers that need inverse root values invert on the group side
  (s -> s^-1) instead.  Values are multiplied by integers only: nothing
  in the package multiplies two values, and the Gram audit's
  determinant (recovery.gram_independence) is an integer formula.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import add, mul, neg, sub
from typing import Iterable, Mapping, Sequence


class LevelMismatchError(ValueError):
    """Two values at different cyclotomic levels were combined."""


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for the sizes used here."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in _factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


@lru_cache(maxsize=None)
def cyclotomic_poly(N: int) -> tuple[int, ...]:
    """Coefficients of the N-th cyclotomic polynomial, low degree first.

    Monic of degree phi(N).  Phi_N(x) = Phi_r(x^(N/r)) for r the radical
    of N, and Phi_r is the product over d | r of (x^d - 1)^mu(r/d): the
    factors with mu = +1 are multiplied in first, so that each of the
    others then divides exactly.
    """
    if N < 1:
        raise ValueError("level must be >= 1")
    primes = list(_factorize(N))
    terms = [(1, (-1) ** len(primes))]  # (d, mu(r/d)) over d | r
    for p in primes:
        terms += [(d * p, -mu) for d, mu in terms]
    poly = [1]
    for d, mu in sorted(terms, key=lambda t: -t[1]):
        if mu > 0:
            poly = list(map(sub, [0] * d + poly, poly + [0] * d))
        else:  # poly / (x^d - 1): q[i] = q[i - d] - poly[i]
            quo = [0] * d
            for c in poly[:-d]:
                quo.append(quo[-d] - c)
            poly = quo[d:]
    step = N // math.prod(primes)
    out = [0] * (step * (len(poly) - 1) + 1)
    out[::step] = poly
    return tuple(out)


class _Context:
    """Per-level table: the reduction rows of zeta^e."""

    __slots__ = ("N", "phi", "red")

    def __init__(self, N: int):
        self.N = N
        poly = cyclotomic_poly(N)
        phi = len(poly) - 1
        self.phi = phi
        # red[e] = power-basis integer vector of zeta^e, for 0 <= e < N
        top = tuple(-c for c in poly[:phi])  # x^phi = sum top[i] x^i
        rows: list[tuple[int, ...]] = []
        cur = [0] * phi
        cur[0] = 1
        rows.append(tuple(cur))
        for _ in range(1, N):
            lead = cur[phi - 1]
            cur = [0] + cur[: phi - 1]
            if lead:
                for i in range(phi):
                    t = top[i]
                    if t:
                        cur[i] += lead * t
            rows.append(tuple(cur))
        self.red = tuple(rows)


@lru_cache(maxsize=None)
def _context(N: int) -> _Context:
    return _Context(N)


def _fold(red: Sequence[Sequence[int]],
          terms: Iterable[tuple[int, int]]) -> list[int]:
    """Power-basis vector of sum c * zeta^e over integer (e, c) terms.

    red is a level's reduction table (_Context.red) and every e indexes it.
    The per-coordinate work runs in map over operator.add and the
    elementwise scaling of _scaled.
    """
    acc = None
    for e, c in terms:
        if c:
            row = _scaled(red[e], c)
            acc = list(row) if acc is None else list(map(add, acc, row))
    return [0] * len(red[0]) if acc is None else acc


def _scaled(row: Iterable[int], c: int) -> Iterable[int]:
    """c * row, elementwise and lazily; c = +-1 needs no multiplication."""
    if c == 1:
        return row
    if c == -1:
        return map(neg, row)
    return map(mul, row, repeat(c))


class CycNum:
    """An element of Z[zeta_N] in power-basis form."""

    __slots__ = ("level", "num")

    def __init__(self, level: int, coeffs: Iterable[int] = ()):
        ctx = _context(level)
        vec = list(coeffs)
        if len(vec) > ctx.phi:
            raise ValueError("coefficient vector longer than phi(N)")
        for c in vec:
            _require_int(c)
        self.level = level
        self.num = tuple(vec) + (0,) * (ctx.phi - len(vec))

    # -- raw construction for internal hot paths (inputs already reduced) --
    @classmethod
    def _raw(cls, level: int, num: tuple[int, ...]) -> "CycNum":
        self = object.__new__(cls)
        self.level = level
        self.num = num
        return self

    @classmethod
    def zero(cls, level: int) -> "CycNum":
        return cls._raw(level, (0,) * _context(level).phi)

    @classmethod
    def from_terms(cls, level: int,
                   terms: Mapping[int, int] | Iterable[tuple[int, int]]
                   ) -> "CycNum":
        """Value sum c_e * zeta^e from (exponent, coefficient) terms."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for e, c in items:
            _require_int(c)
            e %= level
            acc[e] = acc.get(e, 0) + c
        return cls._raw(level, tuple(_fold(_context(level).red, acc.items())))

    # -- predicates --

    def is_zero(self) -> bool:
        return not any(self.num)

    # -- arithmetic --

    def _check(self, other: "CycNum") -> None:
        if self.level != other.level:
            raise LevelMismatchError(
                f"levels differ: {self.level} vs {other.level}")

    def _coerce(self, other) -> "CycNum | None":
        """other as a value at this level (an int is a constant), or None."""
        if isinstance(other, int):
            return CycNum._raw(self.level, tuple(
                _scaled(_context(self.level).red[0], int(other))))
        if not isinstance(other, CycNum):
            return None
        self._check(other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycNum._raw(self.level, tuple(map(add, self.num, other.num)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum._raw(self.level, tuple(map(neg, self.num)))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycNum._raw(self.level, tuple(map(sub, self.num, other.num)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        # by an integer only: a product of two values is a TypeError
        if isinstance(other, int):
            return CycNum._raw(self.level, tuple(_scaled(self.num, other)))
        return NotImplemented

    __rmul__ = __mul__

    def lift(self, M: int) -> "CycNum":
        """Reinterpret at level M; requires level | M."""
        if M % self.level:
            raise LevelMismatchError(f"{self.level} does not divide {M}")
        if M == self.level:
            return self
        k = M // self.level
        vec = _fold(_context(M).red,
                    ((i * k, c) for i, c in enumerate(self.num)))
        return CycNum._raw(M, tuple(vec))

    # -- structure --

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num

    def __hash__(self):
        return hash((self.level, self.num))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"CycNum({self.level}, {self.num})"

    # -- serialization: list of [numerator, 1, power] triples --

    def to_triples(self) -> list[list[int]]:
        return [[n, 1, i] for i, n in enumerate(self.num) if n]

    @classmethod
    def from_triples(cls, level: int, triples: Iterable[Sequence[int]]) -> "CycNum":
        """Value sum n * zeta^p over [n, 1, p] triples of plain ints.

        Powers index the power basis (0 <= p < phi), so nothing is folded;
        powers may repeat.  The middle slot is a denominator kept by the
        file format: values lie in Z[zeta_N], so any d != 1 is refused
        (ValueError).  Each triple is checked as it is read: one that is
        not three plain ints (bool and other int subclasses included)
        raises TypeError.
        """
        phi = _context(level).phi
        vec = [0] * phi
        for t in map(tuple, triples):
            if len(t) != 3 or not (type(t[0]) is type(t[1]) is type(t[2]) is int):
                raise TypeError(f"triple {list(t)} is not three integers")
            n, d, p = t
            if d != 1:
                raise ValueError(f"triple {list(t)} has denominator {d}; "
                                 f"values lie in Z[zeta_{level}]")
            if not 0 <= p < phi:
                raise ValueError(f"power {p} outside basis range at level {level}")
            vec[p] += n
        return cls._raw(level, tuple(vec))


def _require_int(c) -> None:
    # coordinates over Z[zeta_N] are plain ints; bool is refused too
    if type(c) is not int:
        raise TypeError(f"coefficient {c!r} is not an int")


def root(N: int, a: int) -> CycNum:
    """zeta_N^a as an element of Z[zeta_N]."""
    ctx = _context(N)
    return CycNum._raw(N, ctx.red[a % N])
