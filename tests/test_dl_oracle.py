"""Recovery inverts Deligne-Lusztig induction (the paper's statement).

For every torus T of GL_2(F_q) and every character theta of T^F,
oracle_dl builds R_T^theta on the regular locus from the character
formula.  sparse_decompose must return theta + theta^w on T (2 theta when
theta = theta^w) and the empty expansion on the other torus, every term
in the geometric class of (T, theta); and the built sheet's rows must be
these characters: -R_T^theta for a cuspidal row, R_T^theta for a
principal one, onedim:k + steinberg:k for theta = (k, k) on the split
torus and onedim:k - steinberg:k for theta = k(q + 1) on the elliptic one.
"""

import pytest

from glchar.abelian import enumerate_chars
from glchar.recovery import Expansion, sparse_decompose
from glchar.sheets import build_gl2_sheet
from glchar.tori import geom_class_id, points

from oracle_dl import dl_character, weyl


def sheet_character(sheet, T, theta):
    """(sign, values): sign * R_T^theta as a sum of the sheet's rows, by
    torus blocks and regular element."""
    q = sheet.spec.q
    if T.blocks == (2,):
        (c,) = theta.cexps
        if c % (q + 1):
            c = min(c, c * q % (q * q - 1))
            return -1, row_sum(sheet, [(f"cuspidal:{c}", 1)])
        k = c // (q + 1)
        return 1, row_sum(sheet, [(f"onedim:{k}", 1), (f"steinberg:{k}", -1)])
    k, l = sorted(theta.cexps)
    if k != l:
        return 1, row_sum(sheet, [(f"principal:{k},{l}", 1)])
    return 1, row_sum(sheet, [(f"onedim:{k}", 1), (f"steinberg:{k}", 1)])


def row_sum(sheet, terms):
    """The sum of sign * row over (label, sign) in terms."""
    out: dict = {}
    for label, sign in terms:
        for b, vals in sheet.row(label).values.items():
            acc = out.setdefault(b, {})
            for e, v in vals.items():
                acc[e] = acc[e] + sign * v if e in acc else sign * v
    return out


@pytest.mark.parametrize("q", [11, 13])
def test_recovery_inverts_deligne_lusztig_induction(q):
    sheet = build_gl2_sheet(q)
    level = sheet.zeta_level
    pairs = 0
    for T in sheet.tori:
        grp = points(T)
        for theta in enumerate_chars(grp):
            pairs += 1
            # theta^w(e) = theta(w e)
            theta_w = grp.char(weyl(T, theta.cexps))
            want = (((theta, 2),) if theta_w == theta
                    else ((theta, 1), (theta_w, 1)))
            gid = geom_class_id((T, theta))
            sign, values = sheet_character(sheet, T, theta)
            for tt in sheet.tori:
                R = dl_character(T, theta, tt, level)
                got = sparse_decompose(R, tt)
                assert got == Expansion(tt, want if tt == T else ()), (
                    T.label, theta.cexps, tt.label)
                assert all(geom_class_id((tt, th)) == gid
                           for th, _ in got.terms)
                assert all(values[tt.blocks][e] == sign * v
                           for e, v in R.items()), (
                    T.label, theta.cexps, tt.label)
    assert pairs == (q - 1) ** 2 + q * q - 1
