"""Acceptance suite: one test per numbered criterion, exact arithmetic only.

Every check is exact (rational or cyclotomic equality, zero tolerance).
Runtime-bounded criteria measure wall time around the relevant call.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from glchar.abelian import enumerate_chars
from glchar.cli import main
from glchar.recovery import gram_independence, is_unipotent, recover_E
from glchar.sheets import (
    IrrLabel,
    build_gl1_sheet,
    build_gl2_sheet,
    validate_sheet,
)
from glchar.tori import (
    GroupSpec,
    check_q_condition,
    enumerate_tori,
    geom_class_id,
    points,
    torus_from_label,
)

from oracle_conjugacy import (
    embed,
    frobenius,
    geometric_conjugate,
    level_points,
    multiply,
    norm_hom,
    norm_value,
)
from oracle_dixon import gl2_f3_restricted_rows
from oracle_pattern import pattern_report


class ScanResult:
    def __init__(self, sheet, reports, elapsed):
        self.sheet = sheet
        self.reports = reports      # label -> RecoveryReport
        self.elapsed = elapsed      # seconds, single-threaded


@pytest.fixture(scope="module")
def exhaustive_scan():
    """Single-threaded recovery of every row at q = 11 and 13.

    recover_E checks every answer on the whole regular locus, so a row
    with no short expansion would raise and fail every dependent
    criterion.
    """
    out = {}
    for q in (11, 13):
        sheet = build_gl2_sheet(q)
        assert validate_sheet(sheet).ok
        start = time.perf_counter()
        reports = {row.label: recover_E(sheet, row.label)
                   for row in sheet.rows}
        out[q] = ScanResult(sheet, reports, time.perf_counter() - start)
    return out


def test_criterion_1_density_gate_decides_exactly_and_fast(capsys):
    start = time.perf_counter()
    for q in (11, 13, 16):
        assert main(["check-q", "--n", "2", "--q", str(q)]) == 0, q
    for q in (3, 5, 7, 9):
        assert main(["check-q", "--n", "2", "--q", str(q)]) == 2, q
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    # q = 9 fails on exact equality: the split ratio reaches the bound
    rep = check_q_condition(GroupSpec(2, 9))
    assert rep.threshold == Fraction(1, 8)
    assert any(r == rep.threshold for _, r in rep.ratios)
    assert not rep.ok
    assert elapsed < 1.0, f"gate decisions took {elapsed:.3f}s"


def test_criterion_2_exhaustive_uniqueness_within_budget(exhaustive_scan):
    for q, expected_rows in ((11, 120), (13, 168)):
        scan = exhaustive_scan[q]
        assert len(scan.reports) == expected_rows
        for label, rep in scan.reports.items():
            for exp in rep.expansions:
                assert exp.m <= 2, (q, label, exp.m)
        assert scan.elapsed < 300.0, f"q={q} scan took {scan.elapsed:.1f}s"


def test_criterion_3_decomposition_pattern_every_row(exhaustive_scan):
    for q in (11, 13):
        scan = exhaustive_scan[q]
        report = pattern_report(scan.sheet, scan.reports)
        assert report.checked == len(scan.sheet.rows)
        assert report.mismatches == ()


def test_criterion_4_exactly_two_unipotent_rows(exhaustive_scan):
    for q in (11, 13):
        scan = exhaustive_scan[q]
        flagged = sorted(lab for lab, rep in scan.reports.items()
                         if rep.unipotent)
        assert flagged == ["onedim:0", "steinberg:0"], (q, flagged)
        for label, rep in scan.reports.items():
            trivial_in_support = any(
                th.is_trivial()
                for exp in rep.expansions for th, _ in exp.terms)
            decided = is_unipotent(scan.sheet, label)
            assert decided == trivial_in_support == rep.unipotent, (q, label)


def test_criterion_5_class_deciders_counts_and_fibers(exhaustive_scan):
    for q in (3, 5, 11):
        spec = GroupSpec(2, q)
        pairs = [(tt, ch)
                 for tt in enumerate_tori(spec)
                 for ch in enumerate_chars(points(tt))]
        ids = {pair: geom_class_id(pair) for pair in pairs}
        for a, b in itertools.combinations_with_replacement(pairs, 2):
            assert geometric_conjugate(a, b) == (ids[a] == ids[b]), (q, a, b)
        assert len(set(ids.values())) == q * q - q

    # fiber structure of the parameter map over the recoverable sheet
    scan = exhaustive_scan[11]
    fibers = {}
    for label, rep in scan.reports.items():
        fibers.setdefault(rep.epsilon, []).append(label)
    central = {eps for eps in fibers if len(set(eps.residues)) == 1}
    assert len(central) == 10                       # q - 1
    assert all(len(fibers[eps]) == 2 for eps in central)
    assert all(len(fibers[eps]) == 1 for eps in fibers if eps not in central)
    assert sum(len(v) for v in fibers.values()) == 120   # q^2 - 1
    assert len(fibers) == 110                            # every class is hit


def test_criterion_6_gram_determinants_never_vanish():
    rng = random.Random(618033988)
    for q in (11, 13):
        spec = GroupSpec(2, q)
        for tt in enumerate_tori(spec):
            chars = list(enumerate_chars(points(tt)))
            for trial in range(1000):
                subset = rng.sample(chars, 4)
                rep = gram_independence(tt, subset)
                assert rep.nonzero, (q, tt.label, trial,
                                     [c.cexps for c in subset])


def test_criterion_7_gl2_f3_sheet_matches_brute_force_table():
    start = time.perf_counter()
    sheet = build_gl2_sheet(3)
    spec = sheet.spec
    torus_of = {"1+1": torus_from_label(spec, "1+1"),
                "2": torus_from_label(spec, "2")}

    oracle = gl2_f3_restricted_rows()
    assert len(oracle) == len(sheet.rows) == 8

    matched = set()
    for dim, values in oracle:
        hits = []
        for row in sheet.rows:
            if row.dim != dim or row.label in matched:
                continue
            ok = all(row.values[torus_of[lbl].blocks][exps] == val
                     for (lbl, exps), val in values.items())
            if ok:
                hits.append(row.label)
        assert len(hits) == 1, (dim, hits)
        matched.add(hits[0])
    assert len(matched) == 8
    assert time.perf_counter() - start < 60.0


def test_criterion_8_gl1_every_row_recovers_itself():
    start = time.perf_counter()
    for q in (2, 3, 4, 5, 7, 9, 16, 25):
        sheet = build_gl1_sheet(q)
        assert len(sheet.rows) == q - 1
        for row in sheet.rows:
            k = IrrLabel.parse(sheet.spec, row.label).params[0]
            rep = recover_E(sheet, row.label)
            (exp,) = rep.expansions
            assert exp.m == 1
            ((theta, coeff),) = exp.terms
            assert coeff == 1
            assert theta.cexps == (k,)
            assert rep.unipotent == (k == 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"GL_1 recovery took {elapsed:.3f}s"


def test_criterion_9_norm_map_surjective_and_closed_forms():
    for q in (2, 3, 4, 5, 7):
        for n in (1, 2, 3):
            for tt in enumerate_tori(GroupSpec(n, q)):
                t = tt.twist_order
                for m in (t, 2 * t):
                    assert norm_hom(tt, m).is_surjective(), (q, tt.label, m)

    # closed forms against brute-force Frobenius-translate products
    for q in (2, 3, 4, 5, 7):
        tt1 = torus_from_label(GroupSpec(1, q), "1")
        grp2 = level_points(tt1, 2)
        for b in range(q * q - 1):
            nv = norm_value(tt1, 2, (b,))
            assert nv == (b % (q - 1),)                 # d=1, m=2 form
            t = (b,)
            prod = multiply(grp2, t, frobenius(tt1, 2, t))
            assert prod == embed(tt1, 2, nv)

        tt2 = torus_from_label(GroupSpec(2, q), "2")
        grp22 = level_points(tt2, 2)
        Q2 = q * q - 1
        for b0 in range(Q2):
            for b1 in range(Q2):
                nv = norm_value(tt2, 2, (b0, b1))
                assert nv == ((b0 + q * b1) % Q2,)      # d=2, m=2 form
                t = (b0, b1)
                prod = multiply(grp22, t, frobenius(tt2, 2, t))
                assert prod == embed(tt2, 2, nv)
