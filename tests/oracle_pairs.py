"""Reference subset solvers for the expansion search.

scan_pairs_reference is the O(K^2) pivot screen that the indexed scan in
glchar.recovery replaced.  It is kept only as a differential oracle, so it
reads nothing from the solver but its value tables, and it checks every
candidate on the whole regular locus with its own verifier.

For each pair a < b, with d the difference character b - a, the two sample
equations c_a + c_b zeta^{d(s)} = f(s) zeta^{-theta_a(s)} at s0 and at the
first sample s1 where d moves off its value at s0 give c_b by one pivot
division; non-integers and zeros reject, and survivors are verified.

solve_subset_reference solves one subset of any size by rational
Gauss-Jordan elimination over every power-basis equation of every sample.

plain_fold is a coordinate-by-coordinate sum of c * red[e], the oracle of
glchar.cyclotomic._fold.  mul_root folds every nonzero coordinate through
the reduction table with it; the companion steps of
glchar.recovery._shifter are checked against it.  verify_reference, the
oracle of glchar.recovery._verify, checks a candidate expansion with
plain_fold on every sample in locus order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def plain_fold(red, terms) -> list[int]:
    """Power-basis vector of sum c * zeta^e, one coordinate at a time."""
    acc = [0] * len(red[0])
    for e, c in terms:
        row = red[e]
        for t in range(len(acc)):
            acc[t] += c * row[t]
    return acc


def mul_root(vec: Sequence[int], e: int, red, N: int) -> tuple[int, ...]:
    """Integer power-basis vector times zeta^e, reduced."""
    return tuple(plain_fold(red, [((i + e) % N, v)
                                  for i, v in enumerate(vec) if v]))


def verify_reference(solver, fvec, idxs, coeffs) -> bool:
    """Whether sum c_i theta_i = f on every regular element."""
    table = solver.table
    for s in range(len(solver.regs)):
        terms = [(table[i][s], c) for i, c in zip(idxs, coeffs)]
        if tuple(plain_fold(solver.red, terms)) != fvec[s]:
            return False
    return True


def _delta_table(solver) -> list[list[int]]:
    """Index of the difference character b - a, per ordered pair (a, b)."""
    moduli = solver.group.moduli
    strides = []
    acc = 1
    for m in reversed(moduli):
        strides.append(acc)
        acc *= m
    strides.reverse()
    cexps = [ch.cexps for ch in solver.chars]
    return [
        [sum((b - a) % m * st for a, b, m, st in zip(ca, cb, moduli, strides))
         for cb in cexps]
        for ca in cexps
    ]


def scan_pairs_reference(solver, fvec, cap: int | None = None
                         ) -> list[tuple[int, int, int, int]]:
    """The first cap valid two-term expansions (ia, ib, ca, cb), in subset
    order; cap=None lists them all."""
    N, red, phi = solver.level, solver.red, solver.phi
    table = solver.table
    K = len(solver.chars)
    didx = _delta_table(solver)
    probes: dict[int, int] = {}
    pivots: dict[tuple[int, int], tuple[int, int, tuple[int, ...]]] = {}
    shift_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def probe(di: int) -> int:
        # first sample where d moves off its value at sample 0; -1 = constant
        if di not in probes:
            rowd = table[di]
            probes[di] = next(
                (s for s in range(1, len(rowd)) if rowd[s] != rowd[0]), -1)
        return probes[di]

    def pivot(d0: int, d1: int) -> tuple[int, int, tuple[int, ...]]:
        out = pivots.get((d0, d1))
        if out is None:
            w = tuple(b - a for a, b in zip(red[d0], red[d1]))
            i0 = next(i for i, v in enumerate(w) if v)
            out = pivots[(d0, d1)] = (i0, w[i0], w)
        return out

    def shift(s: int, e: int) -> tuple[int, ...]:
        v = shift_cache.get((s, e))
        if v is None:
            v = shift_cache[(s, e)] = mul_root(fvec[s], (N - e) % N, red, N)
        return v

    hits: list[tuple[int, int, int, int]] = []
    for ia in range(K):
        ta = table[ia]
        g0 = shift(0, ta[0])
        for ib in range(ia + 1, K):
            di = didx[ia][ib]
            s1 = probe(di)
            if s1 < 0:
                # difference character constant on the locus: the pair is
                # dependent there, which the density gate rules out
                continue
            dcol = table[di]
            d0 = dcol[0]
            i0, w0, w = pivot(d0, dcol[s1])
            g1 = shift(s1, ta[s1])
            cb, rem = divmod(g1[i0] - g0[i0], w0)
            if rem or cb == 0:
                continue
            if any(cb * w[t] != g1[t] - g0[t] for t in range(phi)):
                continue
            row0 = red[d0]
            ca = g0[0] - cb * row0[0]
            if ca == 0:
                continue
            if any(g0[t] != cb * row0[t] for t in range(1, phi)):
                continue
            if verify_reference(solver, fvec, (ia, ib), (ca, cb)):
                hits.append((ia, ib, ca, cb))
                if cap is not None and len(hits) >= cap:
                    return hits
    return hits


def solve_subset_reference(solver, fvec,
                           idxs: Sequence[int]) -> tuple[int, ...] | None:
    """Reference solve: rational Gauss-Jordan on the power-basis expansion.

    Every sample element contributes phi scalar equations, all of which are
    processed, so consistency of the eliminated rows is already a full
    verification.  Returns the coefficients when the system has a unique
    exact solution made of nonzero integers, else None (no solution, a
    non-integer or zero coefficient, or a rank-deficient subset).
    """
    m = len(idxs)
    if m == 0:
        raise ValueError("empty subset has no system to solve")
    red, table, phi = solver.red, solver.table, solver.phi
    rows: list[tuple[int, list[Fraction], Fraction]] = []
    for s in range(len(solver.regs)):
        fs = fvec[s]
        srows = [red[table[i][s]] for i in idxs]
        for t in range(phi):
            co = [Fraction(r[t]) for r in srows]
            rhs = Fraction(fs[t])
            for piv, prow, prhs in rows:
                fac = co[piv]
                if fac:
                    co = [c - fac * pc for c, pc in zip(co, prow)]
                    rhs = rhs - fac * prhs
            lead = next((j for j, c in enumerate(co) if c), None)
            if lead is None:
                if rhs:
                    return None
                continue
            inv = 1 / co[lead]
            co = [c * inv for c in co]
            rhs = rhs * inv
            for k, (piv, prow, prhs) in enumerate(rows):
                fac = prow[lead]
                if fac:
                    rows[k] = (piv,
                               [c - fac * nc for c, nc in zip(prow, co)],
                               prhs - fac * rhs)
            rows.append((lead, co, rhs))
    if len(rows) < m:
        return None
    sol: list[Fraction] = [Fraction(0)] * m
    for piv, _, rhs in rows:
        sol[piv] = rhs
    if any(c.denominator != 1 or c == 0 for c in sol):
        return None
    return tuple(int(c) for c in sol)
