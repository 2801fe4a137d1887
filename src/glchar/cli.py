"""Deterministic command line front end.

Every subcommand prints byte-identical output for identical inputs: no
timestamps, fixed orderings.  recover and unipotent search every row and
print only expansions checked on every regular element, which the density
gate and the uncertainty bound make unique (glchar.recovery).  Exit
codes are scriptable: 0 success, 1 usage error (including n and q with
q^n - 1 over the enumeration budget, or a built-in sheet over
sheets.MAX_SHEET_SLOTS, refused before any work), 2 density gate
violation, 3 sheet validation failure, 4 recovery inconsistency.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

from .abelian import EnumerationBudgetError, enumerate_chars
from .recovery import (
    NoExpansionError,
    QConditionViolated,
    RecoveryInconsistencyError,
    gram_independence,
    is_unipotent,
    recover_E,
)
from .sheets import (
    CharacterSheet,
    IrrLabel,
    SheetFormatError,
    SheetValidationError,
    build_sheet,
    load_sheet,
    save_sheet,
    sheet_to_json_text,
)
from .tori import (
    GroupSpec,
    check_budget,
    check_q_condition,
    enumerate_tori,
    geom_class_id,
    points,
    torus_from_label,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GATE = 2
EXIT_SHEET = 3
EXIT_RECOVERY = 4


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=1) + "\n")


def _load_or_build(args) -> CharacterSheet:
    """The sheet named by --sheet (validated on load) or the built-in one."""
    if args.sheet is not None:
        return load_sheet(args.sheet)
    return build_sheet(args.n, args.q)


def _sorted_rows(sheet: CharacterSheet):
    return sorted(sheet.rows,
                  key=lambda r: IrrLabel.parse(sheet.spec, r.label).sort_key())


def _canonical_label(sheet: CharacterSheet, text: str) -> str:
    try:
        return IrrLabel.parse(sheet.spec, text).format()
    except ValueError:
        return text  # names no row: sheet.row raises KeyError


def _report_line(rep) -> str:
    parts = [rep.label]
    for e in rep.expansions:
        parts.append(f"{e.torus.label}: {e.describe()}")
    parts.append(f"epsilon L={rep.epsilon.level} {rep.epsilon.residues}")
    parts.append(f"unipotent={'true' if rep.unipotent else 'false'}")
    return " | ".join(parts)


# -- subcommands --------------------------------------------------------------

def cmd_check_q(args) -> int:
    check_budget(args.n, args.q)
    spec = GroupSpec(args.n, args.q)
    report = check_q_condition(spec)
    if args.json:
        _emit_json({
            "n": spec.n,
            "q": spec.q,
            "threshold": report.threshold_text,
            "ratios": [{"torus": tt.label, "ratio": str(r)}
                       for tt, r in report.ratios],
            "ok": report.ok,
        })
    else:
        print(f"group GL_{spec.n}(F_{spec.q})")
        print(f"threshold {report.threshold_text}")
        for tt, r in report.ratios:
            print(f"torus {tt.label} ratio {r}")
        print(f"gate {'PASS' if report.ok else 'FAIL'}")
    return EXIT_OK if report.ok else EXIT_GATE


def cmd_table(args) -> int:
    sheet = _load_or_build(args)
    if args.out:
        save_sheet(sheet, args.out)
        if not args.json:
            print(f"wrote {args.out} ({len(sheet.rows)} rows)")
        return EXIT_OK
    if args.json:
        sys.stdout.write(sheet_to_json_text(sheet))
    else:
        spec = sheet.spec
        tori = ", ".join(tt.label for tt in sheet.tori)
        print(f"GL_{spec.n}(F_{spec.q}) sheet: zeta level "
              f"{sheet.zeta_level}, {len(sheet.rows)} rows, tori {tori}")
        for row in _sorted_rows(sheet):
            print(f"{row.label} dim {row.dim}")
    return EXIT_OK


def cmd_recover(args) -> int:
    sheet = _load_or_build(args)
    labels = ([_canonical_label(sheet, args.rho)] if args.rho is not None
              else [r.label for r in _sorted_rows(sheet)])
    reports = [recover_E(sheet, lab) for lab in labels]
    if args.json:
        if args.rho is not None:
            _emit_json(reports[0].to_dict())
        else:
            _emit_json({"n": sheet.spec.n, "q": sheet.spec.q,
                        "reports": [r.to_dict() for r in reports]})
    else:
        for rep in reports:
            print(_report_line(rep))
    return EXIT_OK


def cmd_unipotent(args) -> int:
    sheet = _load_or_build(args)
    found = [row.label for row in _sorted_rows(sheet)
             if is_unipotent(sheet, row.label)]
    if args.json:
        _emit_json({"n": sheet.spec.n, "q": sheet.spec.q, "unipotent": found})
    else:
        for lab in found:
            print(lab)
    return EXIT_OK


# Python's default int-to-str limit, fixed so that classes refuses the
# same inputs whatever the interpreter's setting
MAX_RESIDUE_DIGITS = 4300
# the most residue digits classes prints
MAX_CLASSES_DIGITS = 10**6


def cmd_classes(args) -> int:
    n, q = args.n, args.q
    check_budget(n, q)
    # refuse before any work: residues mod q^L - 1, L = lcm(1..n), over
    # MAX_RESIDUE_DIGITS digits, then q^n - q^(n-1) classes (the semisimple
    # ones) of n such residues over MAX_CLASSES_DIGITS digits in all
    L = math.lcm(*range(1, n + 1))
    power, cap = 1, 10**MAX_RESIDUE_DIGITS
    for _ in range(L):
        power *= q
        if power > cap:
            raise ValueError(f"classes at n = {n}, q = {q} are "
                             f"residues mod q^{L} - 1, over "
                             f"{MAX_RESIDUE_DIGITS} digits")
    if (q**n - q**(n - 1)) * n * len(str(power - 1)) > MAX_CLASSES_DIGITS:
        raise ValueError(f"classes at n = {n}, q = {q} may print over "
                         f"{MAX_CLASSES_DIGITS} residue digits")
    spec = GroupSpec(n, q)
    reps = {}
    for tt in enumerate_tori(spec):
        for ch in enumerate_chars(points(tt)):
            gid = geom_class_id((tt, ch))
            reps.setdefault(gid, (tt, ch))
    ordered = sorted(reps)
    if args.json:
        _emit_json({
            "n": spec.n,
            "q": spec.q,
            "level": ordered[0].level,
            "classes": [{"residues": list(gid.residues),
                         "torus": reps[gid][0].label,
                         "character": list(reps[gid][1].cexps)}
                        for gid in ordered],
        })
    else:
        print(f"GL_{spec.n}(F_{spec.q}): {len(ordered)} geometric "
              f"classes at level {ordered[0].level}")
        for gid in ordered:
            tt, ch = reps[gid]
            print(f"{gid.residues}: torus {tt.label}, theta {ch.cexps}")
    return EXIT_OK


def cmd_gram(args) -> int:
    # the block sum of the torus label determines the ambient group rank
    try:
        n = sum(int(p) for p in args.torus.split("+"))
    except ValueError:
        raise ValueError(f"bad torus label {args.torus!r}") from None
    check_budget(n, args.q)
    spec = GroupSpec(n, args.q)
    tt = torus_from_label(spec, args.torus)
    grp = points(tt)
    chars = []
    for part in args.chars.split(";"):
        try:
            cexps = tuple(int(x) for x in part.split(","))
        except ValueError:
            raise ValueError(f"bad character exponents {part!r}")
        if len(cexps) != grp.rank:
            raise ValueError(
                f"character {part!r} has {len(cexps)} exponents, "
                f"torus {tt.label} needs {grp.rank}")
        chars.append(grp.char(cexps))
    rep = gram_independence(tt, chars)
    if args.json:
        _emit_json({
            "q": spec.q,
            "torus": tt.label,
            "size": rep.size,
            "level": rep.det.level,
            "det": rep.det.to_triples(),
            "nonzero": rep.nonzero,
        })
    else:
        print(f"torus {tt.label} at q={spec.q}, {rep.size} characters")
        print(f"det = {rep.det}")
        print(f"nonzero = {'true' if rep.nonzero else 'false'}")
    return EXIT_OK


# -- wiring -------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="glchar",
                description="exact recovery of geometric conjugacy data "
                            "for GL_n(F_q) characters")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=fn)
        sp.add_argument("--json", action="store_true",
                        help="machine readable output")
        return sp

    sp = add("check-q", cmd_check_q, "test the regular-locus density gate")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--q", type=int, required=True)

    for name, fn, help_ in (
            ("table", cmd_table, "emit a built-in character sheet"),
            ("recover", cmd_recover, "recover expansions, class, unipotence"),
            ("unipotent", cmd_unipotent, "list the unipotent rows")):
        sp = add(name, fn, help_)
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--q", type=int, help="use the built-in sheet")
        g.add_argument("--sheet", help="load a sheet file")
        sp.add_argument("--n", type=int, default=2, choices=(1, 2),
                        help="rank for the built-in sheet")
        if name == "table":
            sp.add_argument("--out", help="write the sheet JSON to this path")
        if name == "recover":
            sp.add_argument("--rho", help="single irreducible label")

    sp = add("classes", cmd_classes, "enumerate geometric conjugacy classes")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)

    sp = add("gram", cmd_gram, "exact Gram determinant of torus characters")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--torus", required=True, help="block label, e.g. 1+1")
    sp.add_argument("--chars", required=True,
                    help="semicolon-separated exponent tuples, e.g. 0,0;1,0")

    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except QConditionViolated as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GATE
    except (SheetFormatError, SheetValidationError) as e:
        print(f"error: sheet rejected: {e}", file=sys.stderr)
        return EXIT_SHEET
    except (NoExpansionError, RecoveryInconsistencyError) as e:
        print(f"error: recovery inconsistency: {e}", file=sys.stderr)
        return EXIT_RECOVERY
    except BrokenPipeError:
        # reader hung up (e.g. | head); silence the shutdown flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, KeyError, EnumerationBudgetError, OSError) as e:
        msg = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
