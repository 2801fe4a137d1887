"""The public surface of glchar and the names the benchmark probe reaches.

perfbench/tracing.py wraps glchar functions by module and attribute name
and calls recover_E with validate= and jobs=.  A rename there would only
show in a benchmark run, so the names are checked here as well.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import glchar

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_all_is_pinned():
    assert sorted(glchar.__all__) == [
        "AbChar", "CharacterSheet",
        "CycNum", "Expansion", "FinAbGroup", "GeomClassId", "GramReport",
        "GroupSpec", "IrrLabel", "NoExpansionError",
        "QConditionReport", "QConditionViolated",
        "RecoveryInconsistencyError", "RecoveryReport", "SheetFormatError",
        "SheetRow", "SheetValidationError", "TorusType", "__version__",
        "build_gl1_sheet", "build_gl2_sheet", "check_q_condition",
        "enumerate_tori", "geom_class_id", "gram_independence",
        "is_regular", "is_unipotent", "load_sheet", "recover_E",
        "regular_elements", "root", "save_sheet", "sheet_from_dict",
        "sparse_decompose", "validate_sheet",
    ]
    for name in glchar.__all__:
        assert hasattr(glchar, name), name


def test_names_the_probe_wraps_exist():
    tracing = _tracing()
    for modname, attr, _, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(modname), attr)), \
            (modname, attr)
    for modname in ("glchar.tori", *tracing.COLD):
        assert callable(importlib.import_module(modname).regular_elements), \
            modname


def test_names_the_probe_calls_exist():
    from glchar import cyclotomic, recovery, sheets, tori
    for obj in (tori.GroupSpec, tori.check_q_condition, tori.enumerate_tori,
                sheets.build_gl2_sheet, sheets.validate_sheet,
                sheets.sheet_to_json_text, sheets.sheet_from_dict,
                cyclotomic.CycNum.from_triples, cyclotomic.CycNum.to_triples,
                recovery.sparse_decompose, recovery.RecoveryReport.to_dict):
        assert callable(obj)
    params = inspect.signature(recovery.recover_E).parameters
    for kw in ("validate", "jobs"):
        assert params[kw].kind is inspect.Parameter.KEYWORD_ONLY, kw
