"""The built-in GL_2 sheets against characters induced from matrix subgroups.

oracle_induced computes every irreducible of GL_2(F_q) from explicit
2x2 matrices over F_q, for odd and even q alike, sharing only the
generator tower with the library.  Its characters are first checked to be
orthonormal on the full class list, then compared with build_gl2_sheet
row by row, by label, on every regular torus element.
"""

import pytest

from glchar.cyclotomic import CycNum
from glchar.sheets import build_gl2_sheet

import oracle_induced
from oracle_product import mul


@pytest.mark.parametrize("q", [3, 4])
def test_induced_characters_are_orthonormal_on_the_class_list(q):
    G, classes, table = oracle_induced.class_table(q)
    order = (q * q - 1) * (q * q - q)
    assert len(classes) == len(table) == q * q - 1
    assert sum(size for _, size, _ in classes) == order
    labels = list(table)
    for i, a in enumerate(labels):
        for b in labels[i:]:
            total = CycNum.zero(G.M)
            for k, (_, size, inv) in enumerate(classes):
                total = total + mul(table[a][k], table[b][inv]) * size
            assert total == (order if a == b else 0), (a, b)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 11, 13, 16])
def test_sheet_rows_equal_induced_characters(q):
    M, dims, values = oracle_induced.restricted_rows(q)
    sheet = build_gl2_sheet(q)
    assert sorted(sheet.labels()) == sorted(values)
    lifted: dict[int, CycNum] = {}  # sheet values are shared objects
    for row in sheet.rows:
        assert row.dim == dims[row.label], row.label
        for tt in sheet.tori:
            want = values[row.label][tt.label]
            got = row.values[tt.blocks]
            assert got.keys() == want.keys(), (row.label, tt.label)
            for e, v in got.items():
                if id(v) not in lifted:
                    lifted[id(v)] = v.lift(M)
                assert lifted[id(v)] == want[e], (row.label, tt.label, e)
