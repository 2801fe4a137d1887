"""Deligne-Lusztig characters R_T^theta of GL_2(F_q) on the regular locus.

The character formula of Deligne and Lusztig (Ann. of Math. 103, 1976)
at a regular semisimple s: R_T^theta(s) is the sum of theta(s^w) over
w in W(T)^F when s lies in T^F, and 0 when s is conjugate into no
F-rational point of T.  For GL_2 the two tori are the split one, whose
elements are dlog pairs (a, b) and whose Weyl element swaps them, and
the elliptic one, whose elements are dlogs x of F_{q^2}^* and whose
Weyl element is Frobenius, x -> xq.  Their regular elements are never
conjugate (eigenvalues in F_q against eigenvalues outside it), so

    split T     R_T^theta(a, b) = theta(a, b) + theta(b, a)
    elliptic T  R_T^theta(x)    = theta(x) + theta(xq)

and R_T^theta is 0 on the regular elements of the other torus.  Values
come from AbChar.value_exponent and cyclotomic.root alone: no sheet,
no residue table and no value formula of the library is read.  The
tests invert it: recovery from these values must give back theta +
theta^w, and the sheet's rows must make up +-R_T^theta.
"""

from __future__ import annotations

from glchar.abelian import AbChar
from glchar.cyclotomic import CycNum, root
from glchar.tori import TorusType, points, regular_elements


def weyl(tt: TorusType, e: tuple[int, ...]) -> tuple[int, ...]:
    """The image of an element of tt under its Weyl element; on both tori
    it acts on a character's exponents the same way."""
    if tt.blocks == (1, 1):
        return e[::-1]
    (x,) = e
    return (x * tt.spec.q % points(tt).order,)


def dl_character(T: TorusType, theta: AbChar, tt: TorusType,
                 level: int) -> dict[tuple[int, ...], CycNum]:
    """R_T^theta at every regular element of tt, at zeta level level."""
    lift = level // points(T).exponent
    if tt != T:
        return {e: CycNum.zero(level) for e in regular_elements(tt)}
    return {e: root(level, lift * theta.value_exponent(e))
            + root(level, lift * theta.value_exponent(weyl(T, e)))
            for e in regular_elements(T)}
