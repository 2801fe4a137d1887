"""The value types: immutable named tuples, and two mutable sheet classes.

Every immutable type hashes as the tuple of its fields, so dict and set
orders, and with them the CLI's stdout, do not depend on how the types
are made.  Their reprs, the normalization their constructors do (in
_replace too) and the errors they raise are pinned here.  A CLI process
imports no dataclasses and no inspect: each costs every process several
milliseconds at startup.  A process that only gates and builds a sheet
imports neither glchar.recovery nor json: the package loads a layer on
first use of one of its names.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import glchar
from glchar.abelian import AbChar, FinAbGroup
from glchar.recovery import Expansion, gram_independence, recover_E
from glchar.sheets import (
    IrrLabel, build_gl1_sheet, build_gl2_sheet, validate_sheet)
from glchar.tori import (
    GroupSpec, TorusType, check_q_condition, geom_class_id, points)

SRC = Path(glchar.__file__).resolve().parent.parent
SPEC = GroupSpec(2, 13)
SPLIT = TorusType(SPEC, (1, 1))
GL1 = TorusType(GroupSpec(1, 5), (1,))


def theta(tt, *cexps):
    return AbChar(points(tt), cexps)


# name -> (a factory, the repr of what it makes)
VALUES = {
    "FinAbGroup": (lambda: FinAbGroup([12, 168]),
                   "FinAbGroup(moduli=(12, 168))"),
    "AbChar": (lambda: AbChar(FinAbGroup((4, 6)), (5, -1)),
               "AbChar(group=FinAbGroup(moduli=(4, 6)), cexps=(1, 5))"),
    "GroupSpec": (lambda: GroupSpec(2, 13), "GroupSpec(n=2, q=13)"),
    "TorusType": (lambda: TorusType(GroupSpec(3, 5), (1, 2)),
                  "TorusType(spec=GroupSpec(n=3, q=5), blocks=(2, 1))"),
    "QConditionReport": (
        lambda: check_q_condition(GroupSpec(1, 5)),
        "QConditionReport(spec=GroupSpec(n=1, q=5), threshold_exp=1, "
        "ratios=((TorusType(spec=GroupSpec(n=1, q=5), blocks=(1,)), "
        "Fraction(0, 1)),))"),
    "GeomClassId": (lambda: geom_class_id((SPLIT, theta(SPLIT, 1, 2))),
                    "GeomClassId(level=2, residues=(14, 28))"),
    "IrrLabel": (lambda: IrrLabel.make(SPEC, "principal", (5, 2)),
                 "IrrLabel(family='principal', params=(2, 5))"),
    "SheetValidationReport": (lambda: validate_sheet(build_gl1_sheet(5)),
                              "SheetValidationReport(violations=())"),
    "Expansion": (
        lambda: Expansion(GL1, ((theta(GL1, 3), -1), (theta(GL1, 1), 2))),
        "Expansion(torus=TorusType(spec=GroupSpec(n=1, q=5), blocks=(1,)), "
        "terms=((AbChar(group=FinAbGroup(moduli=(4,)), cexps=(1,)), 2), "
        "(AbChar(group=FinAbGroup(moduli=(4,)), cexps=(3,)), -1)))"),
    "RecoveryReport": (
        lambda: recover_E(build_gl1_sheet(5), "onedim:1"),
        "RecoveryReport(label='onedim:1', expansions=(Expansion(torus="
        "TorusType(spec=GroupSpec(n=1, q=5), blocks=(1,)), terms=((AbChar("
        "group=FinAbGroup(moduli=(4,)), cexps=(1,)), 1),)),), "
        "epsilon=GeomClassId(level=1, residues=(1,)), unipotent=False)"),
    "GramReport": (
        lambda: gram_independence(GL1, [theta(GL1, 0)]),
        "GramReport(torus=TorusType(spec=GroupSpec(n=1, q=5), "
        "blocks=(1,)), size=1, det=4)"),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_type_contract(name):
    make, shown = VALUES[name]
    x = make()
    assert type(x).__name__ == name
    assert repr(x) == shown
    # hashed as its field tuple, which keeps set and dict orders
    assert hash(x) == hash(tuple(x))
    assert x == make() and hash(x) == hash(make())
    field = x._fields[0]
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(x, field))
    with pytest.raises(AttributeError):
        x.extra = 1


def test_constructors_normalize():
    assert TorusType(SPEC, [1, 1]).blocks == (1, 1)
    assert TorusType(GroupSpec(4, 2), ("1", 3)).blocks == (3, 1)
    assert FinAbGroup([4.0, True]).moduli == (4, 1)
    assert all(type(m) is int for m in FinAbGroup([4.0, True]).moduli)
    assert AbChar(FinAbGroup((4, 6)), [-1, 13]).cexps == (3, 1)
    e = Expansion(GL1, [(theta(GL1, 3), -1), (theta(GL1, 1), 2)])
    assert e.terms == ((theta(GL1, 1), 2), (theta(GL1, 3), -1))
    # a normalized value equals the one built from normal input
    assert TorusType(GroupSpec(3, 5), (1, 2)) == TorusType(
        GroupSpec(3, 5), (2, 1))


@pytest.mark.parametrize("make, message", [
    (lambda: FinAbGroup((3, 0)), "moduli must be positive"),
    (lambda: AbChar(FinAbGroup((3, 4)), (1,)),
     "character tuple has wrong length"),
    (lambda: GroupSpec(0, 13), "rank must be >= 1"),
    (lambda: GroupSpec(2, 6), "q = 6 is not a prime power"),
    (lambda: TorusType(SPEC, (2, 1)), r"\(2, 1\) is not a partition of 2"),
    (lambda: TorusType(SPEC, [0, 2]), r"\[0, 2\] is not a partition of 2"),
    (lambda: Expansion(GL1, ((theta(SPLIT, 1, 0), 1),)),
     "character is not on the torus points"),
    (lambda: Expansion(GL1, ((theta(GL1, 1), 0),)),
     "coefficient 0 is not a nonzero integer"),
    (lambda: Expansion(GL1, ((theta(GL1, 1), True),)),
     "coefficient True is not a nonzero integer"),
    (lambda: Expansion(GL1, ((theta(GL1, 1), 1), (theta(GL1, 5), 2))),
     r"repeated character \(1,\)"),
], ids=["moduli", "length", "rank", "prime-power", "partition-sum",
        "partition-part", "torus", "zero", "bool", "repeated"])
def test_constructors_refuse(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


# name -> (a value, a field change and the value its constructor makes of
# that, a field change the constructor refuses and its message)
REPLACED = {
    "GroupSpec": (GroupSpec(2, 13), {"q": 11}, GroupSpec(2, 11),
                  {"q": 6}, "q = 6 is not a prime power"),
    "TorusType": (TorusType(GroupSpec(3, 5), (2, 1)), {"blocks": (1, 2)},
                  TorusType(GroupSpec(3, 5), (2, 1)),
                  {"blocks": (2, 2)}, r"\(2, 2\) is not a partition of 3"),
    "FinAbGroup": (FinAbGroup((4, 6)), {"moduli": [4.0, True]},
                   FinAbGroup((4, 1)), {"moduli": (0,)},
                   "moduli must be positive"),
    "AbChar": (AbChar(FinAbGroup((4, 6)), (1, 1)), {"cexps": (-1, 13)},
               AbChar(FinAbGroup((4, 6)), (3, 1)), {"cexps": (1,)},
               "character tuple has wrong length"),
    "Expansion": (Expansion(GL1, ((theta(GL1, 1), 2),)),
                  {"terms": [(theta(GL1, 3), -1), (theta(GL1, 1), 2)]},
                  Expansion(GL1, ((theta(GL1, 1), 2), (theta(GL1, 3), -1))),
                  {"terms": ((theta(GL1, 1), 0),)},
                  "coefficient 0 is not a nonzero integer"),
}


@pytest.mark.parametrize("name", REPLACED)
def test_replace_goes_through_the_constructor(name):
    x, change, made, bad, message = REPLACED[name]
    y = x._replace(**change)
    assert type(y) is type(x) and repr(y) == repr(made)
    with pytest.raises(ValueError, match=f"^{message}$"):
        x._replace(**bad)
    assert type(x).__slots__ == () and not hasattr(x, "__dict__")
    assert pickle.loads(pickle.dumps(y)) == y


def test_sheets_are_compared_by_their_fields_and_unhashable():
    sheet = build_gl2_sheet(11)
    recover_E(sheet, "cuspidal:1")
    assert "_memo" in vars(sheet)
    fresh = build_gl2_sheet(11)
    assert sheet == fresh and not sheet != fresh
    assert sheet.rows[0] == fresh.rows[0]
    fresh.rows[0].label = "renamed"
    assert sheet != fresh and sheet.rows[0] != fresh.rows[0]
    for x in (sheet, sheet.rows[0]):
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)


def test_cli_imports_neither_dataclasses_nor_inspect():
    # -S keeps the imports of site's .pth files out
    code = ("import sys, glchar.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_a_cold_build_imports_neither_recovery_nor_json():
    # -S as above; a recovery name then loads its layer
    code = ("import sys; "
            "from glchar import GroupSpec, build_gl2_sheet, check_q_condition; "
            "check_q_condition(GroupSpec(2, 13)); build_gl2_sheet(13); "
            "print(sorted(m for m in sys.modules if m.startswith('glchar.'))); "
            "print(sorted({'glchar.recovery', 'glchar.cli', 'json', "
            "'argparse'} & set(sys.modules))); "
            "from glchar import recover_E; "
            "print('glchar.recovery' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "['glchar.abelian', 'glchar.cyclotomic', 'glchar.sheets', "
        "'glchar.tori']", "[]", "True"]
