"""Test oracle: the classical GL_2 decomposition pattern.

Every row of a GL_2 sheet has a known expansion on each torus:

    onedim k:    split {(k,k): +1},            elliptic {k(q+1): +1}
    steinberg k: split {(k,k): +1},            elliptic {k(q+1): -1}
    principal:   split {(k,l): +1, (l,k): +1}, elliptic empty
    cuspidal c:  split empty,                  elliptic {c: -1, cq: -1}

pattern_report compares recovered reports with it; verify_dl_consistency
recovers every row of a sheet first.
"""

from dataclasses import dataclass

from glchar.recovery import recover_E
from glchar.sheets import IrrLabel, SheetValidationError, validate_sheet

SPLIT = (1, 1)
ELLIPTIC = (2,)


@dataclass(frozen=True)
class ConsistencyReport:
    q: int
    checked: int
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def expected_terms(spec, label):
    """{torus blocks: {character exponents: coefficient}} for one row."""
    q = spec.q
    M = q * q - 1
    lab = IrrLabel.parse(spec, label)
    if lab.family in ("onedim", "steinberg"):
        k = lab.params[0]
        sign = 1 if lab.family == "onedim" else -1
        return {SPLIT: {(k, k): 1}, ELLIPTIC: {(k * (q + 1) % M,): sign}}
    if lab.family == "principal":
        k, l = lab.params
        return {SPLIT: {(k, l): 1, (l, k): 1}, ELLIPTIC: {}}
    c = lab.params[0]
    return {SPLIT: {}, ELLIPTIC: {(c,): -1, (c * q % M,): -1}}


def pattern_report(sheet, reports):
    """Check recovered reports (label -> RecoveryReport) against the pattern,
    one report per sheet row."""
    spec = sheet.spec
    if spec.n != 2:
        raise ValueError("the decomposition pattern is defined for GL_2 only")
    mismatches = []
    for row in sheet.rows:
        want = expected_terms(spec, row.label)
        for e in reports[row.label].expansions:
            got = {th.cexps: co for th, co in e.terms}
            if got != want[e.torus.blocks]:
                mismatches.append(
                    f"{row.label} on {e.torus.label}: got {got}, "
                    f"expected {want[e.torus.blocks]}")
    return ConsistencyReport(spec.q, len(sheet.rows), tuple(mismatches))


def verify_dl_consistency(sheet):
    """Validate the sheet once, recover every row, check the pattern."""
    report = validate_sheet(sheet)
    if not report.ok:
        raise SheetValidationError(report)
    reports = {row.label: recover_E(sheet, row.label)
               for row in sheet.rows}
    return pattern_report(sheet, reports)
