"""Independent GL_2(F_q) characters by induced-character sums, any prime power q.

The group is built from explicit 2x2 matrices over F_q = F_p[x]/(f), with
F_{q^2} = F_q[y]/(y^2 + s y + t) as a quadratic extension; f and (s, t)
are the first irreducible choices found by search.  Every irreducible is
computed from the induced-character formula

    Ind_H^G(phi)(x) = sum over coset representatives r of G/H with
                      r^-1 x r in H of phi(r^-1 x r),

with B the upper triangular Borel subgroup, ZU its scalar-times-unipotent
subgroup and T_ell = F_{q^2}^* acting on the basis (1, y):

- principal series k, l (k != l) as Ind_B^G(alpha_k x alpha_l), over the
  q+1 points of P^1;
- Steinberg k as Ind_B^G(alpha_k x alpha_k) - alpha_k(det);
- one-dimensional k as alpha_k(det);
- cuspidal c as Ind_{ZU}^G(theta_c|_Z psi) - Ind_{T_ell}^G(theta_c)
  (Fulton-Harris, Representation Theory, section 5.2).

No value formula of the library is used.  The only shared convention is
the generator tower that names torus elements: gamma generates
F_{q^2}^*, g = gamma^(q+1) generates F_q^*, the split element (i, j) is
diag(g^i, g^j), the elliptic element a is multiplication by gamma^a,
alpha_k(g^m) = zeta_{q-1}^(km) and theta_c(gamma^a) = zeta_{q^2-1}^(ca).
gamma is the first element of order q^2 - 1 found by search; another
choice only relabels elements and characters together, so label-by-label
comparison does not depend on it.

The additive character psi(b) = zeta_p^(b_0), b_0 the constant coefficient
of b, is not at level q^2 - 1, so values are computed at level
M = p (q^2 - 1) and compared with library values lifted there.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from glchar.cyclotomic import CycNum

Mat = tuple[int, int, int, int]  # row-major (a, b, c, d); entries encode F_q


def _prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    r = 0
    while q > 1:
        assert q % p == 0, "q is not a prime power"
        q //= p
        r += 1
    return p, r


class FiniteField:
    """F_q = F_p[x]/(f): elements are 0..q-1, base-p digits the
    coefficients of 1, x, x^2, ...; add and mul are full tables."""

    def __init__(self, q: int):
        self.p, self.r = p, r = _prime_power(q)
        digits = [[e // p**i % p for i in range(r)] for e in range(q)]
        enc = {tuple(d): e for e, d in enumerate(digits)}
        self.add = [[enc[tuple((x + y) % p for x, y in zip(a, b))]
                     for b in digits] for a in digits]
        for low in product(range(p), repeat=r):  # f = x^r + low
            mul = [[enc[tuple(self._polymul(a, b, low))] for b in digits]
                   for a in digits]
            # a finite ring without zero divisors is a field
            if all(mul[a][b] for a in range(1, q) for b in range(1, q)):
                self.mul = mul
                break
        self.neg = [row.index(0) for row in self.add]
        self.inv = [None] + [row.index(1) for row in self.mul[1:]]

    def _polymul(self, a: list[int], b: list[int], low) -> list[int]:
        p, r = self.p, self.r
        prod = [0] * (2 * r - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        for k in range(2 * r - 2, r - 1, -1):  # x^r = -low
            c = prod[k]
            prod[k] = 0
            for i, li in enumerate(low):
                prod[k - r + i] -= c * li
        return [c % p for c in prod[:r]]


class GL2:
    """GL_2(F_q) as explicit matrices, with every irreducible character."""

    def __init__(self, q: int):
        self.q = q
        F = self.F = FiniteField(q)
        add, mul, neg = F.add, F.mul, F.neg
        self.N = N = q * q - 1
        self.M = F.p * N
        # F_{q^2} = F_q[y]/(y^2 + s y + t), irreducible: no root in F_q
        self.s, self.t = s, t = next(
            (s, t) for s in range(q) for t in range(1, q)
            if all(add[add[mul[z][z]][mul[s][z]]][t] for z in range(q)))

        def emul(w1, w2):
            (u1, v1), (u2, v2) = w1, w2
            vv = mul[v1][v2]  # y^2 = -s y - t
            return (add[mul[u1][u2]][neg[mul[vv][t]]],
                    add[add[mul[u1][v2]][mul[v1][u2]]][neg[mul[vv][s]]])

        def powers(w):
            out, cur = [], (1, 0)
            while True:
                out.append(cur)
                cur = emul(cur, w)
                if cur == (1, 0):
                    return out

        gamma_powers = next(pw for w in product(range(q), repeat=2)
                            if w != (0, 0) and len(pw := powers(w)) == N)
        self.gamma_pow = gamma_powers
        self.dlog = {w: k for k, w in enumerate(gamma_powers)}
        # dlog to base gamma of a in F_q^*, embedded as a + 0 y
        self.dlog_q = [None] + [self.dlog[a, 0] for a in range(1, q)]
        assert all(gamma_powers[(q + 1) * m][1] == 0 for m in range(q - 1))

    # -- matrices ------------------------------------------------------------

    def mmul(self, x: Mat, y: Mat) -> Mat:
        add, mul = self.F.add, self.F.mul
        a, b, c, d = x
        e, f, g, h = y
        return (add[mul[a][e]][mul[b][g]], add[mul[a][f]][mul[b][h]],
                add[mul[c][e]][mul[d][g]], add[mul[c][f]][mul[d][h]])

    def det(self, x: Mat) -> int:
        F = self.F
        return F.add[F.mul[x[0]][x[3]]][F.neg[F.mul[x[1]][x[2]]]]

    def minv(self, x: Mat) -> Mat:
        F = self.F
        di = F.inv[self.det(x)]
        a, b, c, d = x
        return (F.mul[d][di], F.neg[F.mul[b][di]],
                F.neg[F.mul[c][di]], F.mul[a][di])

    def elements(self) -> list[Mat]:
        q = self.q
        return [m for m in product(range(q), repeat=4) if self.det(m)]

    def split(self, i: int, j: int) -> Mat:
        """diag(g^i, g^j), g = gamma^(q+1)."""
        g = self.gamma_pow
        k = self.q + 1
        return (g[k * i % self.N][0], 0, 0, g[k * j % self.N][0])

    def _mult_by(self, w: tuple[int, int]) -> Mat:
        """Multiplication by w = u + v y on the basis (1, y)."""
        F = self.F
        u, v = w
        return (u, F.neg[F.mul[v][self.t]],
                v, F.add[u][F.neg[F.mul[v][self.s]]])

    def elliptic(self, a: int) -> Mat:
        """Multiplication by gamma^a."""
        return self._mult_by(self.gamma_pow[a % self.N])

    # -- subgroups and coset representatives ---------------------------------

    @cached_property
    def borel_reps(self) -> list[Mat]:
        """G/B: B fixes the line of e_1; r e_1 runs over the q+1 points of
        P^1, (1 : t) and (0 : 1)."""
        return [(1, 0, t, 1) for t in range(self.q)] + [(0, 1, 1, 0)]

    @cached_property
    def zu_reps(self) -> list[Mat]:
        """G/ZU: B/ZU = {diag(1, d)}, so r diag(1, d) over r in G/B."""
        return [self.mmul(r, (1, 0, 0, d))
                for r in self.borel_reps for d in range(1, self.q)]

    @cached_property
    def elliptic_reps(self) -> list[Mat]:
        """G/T_ell: G = B T_ell with B n T_ell = Z, so B/Z will do."""
        return [(1, b, 0, d) for b in range(self.q) for d in range(1, self.q)]

    def _in_elliptic(self, m: Mat):
        w = (m[0], m[2])
        return self.dlog[w] if self._mult_by(w) == m else None

    @cached_property
    def _rep_pairs(self) -> list[list[tuple[Mat, Mat]]]:
        return [[(r, self.minv(r)) for r in reps] for reps in
                (self.borel_reps, self.zu_reps, self.elliptic_reps)]

    def conjugates(self, x: Mat):
        """For each of B, ZU, T_ell, the conjugates r^-1 x r that lie in
        it, over that subgroup's coset representatives r."""
        mmul = self.mmul
        b, zu, t = ([mmul(mmul(ri, x), r) for r, ri in pairs]
                    for pairs in self._rep_pairs)
        in_b = [m for m in b if m[2] == 0]
        in_zu = [m for m in zu if m[2] == 0 and m[0] == m[3]]
        in_t = [k for k in map(self._in_elliptic, t) if k is not None]
        return in_b, in_zu, in_t

    # -- characters ----------------------------------------------------------

    def labels(self) -> list[str]:
        """One label per irreducible, in the library's label syntax."""
        q = self.q
        out = [f"onedim:{k}" for k in range(q - 1)]
        out += [f"steinberg:{k}" for k in range(q - 1)]
        out += [f"principal:{k},{l}" for k in range(q - 1)
                for l in range(k + 1, q - 1)]
        out += [f"cuspidal:{c}" for c in self._cuspidal_params]
        return out

    @cached_property
    def _cuspidal_params(self) -> list[int]:
        """theta_c with theta_c != theta_c^q, one c per Frobenius pair."""
        q, N = self.q, self.N
        return [c for c in range(1, N) if c % (q + 1) and c <= c * q % N]

    def dims(self) -> dict[str, int]:
        ident = self.character_terms((1, 0, 0, 1))
        return {lab: self.value(t).num[0] for lab, t in ident.items()}

    def character_terms(self, x: Mat) -> dict[str, list[tuple[int, int]]]:
        """Every irreducible at x, as (exponent, sign) terms at level M:
        the value is the sum of sign * zeta_M^exponent."""
        q, N, p = self.q, self.N, self.F.p
        F, dl = self.F, self.dlog_q
        in_b, in_zu, in_t = self.conjugates(x)
        # theta_c(w) = zeta_N^(c dlog w) = zeta_M^(p c dlog w), alpha_k is
        # theta_k on F_q^*, and psi(b) = zeta_p^(b_0) = zeta_M^(N b_0)
        diag = [(dl[m[0]], dl[m[3]]) for m in in_b]
        zu = [(dl[m[0]], N * (F.mul[m[1]][F.inv[m[0]]] % p)) for m in in_zu]
        det = dl[self.det(x)]
        out: dict[str, list[tuple[int, int]]] = {}
        for k in range(q - 1):
            out[f"onedim:{k}"] = [(p * k * det, 1)]
            out[f"steinberg:{k}"] = [(p * k * (a + d), 1)
                                     for a, d in diag] + [(p * k * det, -1)]
        for k in range(q - 1):
            for l in range(k + 1, q - 1):
                out[f"principal:{k},{l}"] = [(p * (k * a + l * d), 1)
                                             for a, d in diag]
        for c in self._cuspidal_params:
            out[f"cuspidal:{c}"] = ([(p * c * a + e, 1) for a, e in zu]
                                    + [(p * c * w, -1) for w in in_t])
        return out

    def value(self, terms) -> CycNum:
        return CycNum.from_terms(self.M, terms)


def restricted_rows(q: int) -> tuple[int, dict[str, int],
                                     dict[str, dict[tuple, dict]]]:
    """(M, dims, values): values[label][torus label][dlog tuple] is the
    character at level M on every regular element of the split torus
    (i != j mod q-1) and the elliptic torus (a not a multiple of q+1)."""
    G = GL2(q)
    q1, N = q - 1, G.N
    points = {"1+1": {(i, j): G.split(i, j) for i in range(q1)
                      for j in range(q1) if i != j},
              "2": {(a,): G.elliptic(a) for a in range(N) if a % (q + 1)}}
    memo: dict[tuple, CycNum] = {}

    def value(terms) -> CycNum:
        key = tuple(sorted(terms))
        v = memo.get(key)
        if v is None:
            v = memo[key] = G.value(key)
        return v

    values: dict[str, dict[tuple, dict]] = {lab: {t: {} for t in points}
                                            for lab in G.labels()}
    for tlab, elts in points.items():
        for e, x in elts.items():
            for lab, terms in G.character_terms(x).items():
                values[lab][tlab][e] = value(terms)
    return G.M, G.dims(), values


def class_table(q: int) -> tuple[GL2, list[tuple[Mat, int, int]],
                                 dict[str, list[CycNum]]]:
    """Conjugacy classes by brute force and every character on them.

    Returns (G, classes, table): classes[i] = (representative, size,
    index of the class of its inverse); table[label][i] is the value at
    level M on class i.  Only for small q: it conjugates every element
    by every element.
    """
    G = GL2(q)
    elems = G.elements()
    inverses = [G.minv(g) for g in elems]
    left = set(elems)
    orbits: list[frozenset] = []
    for x in elems:
        if x in left:
            orb = frozenset(G.mmul(G.mmul(gi, x), g)
                            for g, gi in zip(elems, inverses))
            orbits.append(orb)
            left -= orb
    class_of = {m: i for i, orb in enumerate(orbits) for m in orb}
    classes = []
    for orb in orbits:
        rep = min(orb)
        classes.append((rep, len(orb), class_of[G.minv(rep)]))
    table: dict[str, list[CycNum]] = {lab: [] for lab in G.labels()}
    for rep, _, _ in classes:
        for lab, terms in G.character_terms(rep).items():
            table[lab].append(G.value(terms))
    return G, classes, table
