"""Every function in src/glchar runs under a fixed set of CLI commands.

The commands below run through glchar.cli.main in this process under
sys.setprofile, which records the code object of every Python function
entered.  Each function and method that ast finds in src/glchar/*.py,
nested ones included and dunders excluded, must be among them, unless it
is on the allow-list with its reason.  A function is matched by its file
and first line: the line of its first decorator, or of its def when it
has none, which is the co_firstlineno of its code object (Python 3.10
has no co_qualname).  Code that no command reaches either becomes
reachable, goes to the allow-list with a reason, or leaves src/.
"""

import ast
import importlib
import sys
from pathlib import Path

import glchar
import glchar.cli as cli
from glchar.sheets import build_gl2_sheet

from oracle_sheet_dict import v1_text

SRC = Path(glchar.__file__).resolve().parent

TRAFFIC = [
    ["check-q", "--n", "2", "--q", "11"],
    ["check-q", "--n", "2", "--q", "11", "--json"],
    ["check-q", "--n", "2", "--q", "7"],
    ["recover", "--q", "11"],
    ["recover", "--q", "11", "--json"],
    ["unipotent", "--q", "11", "--json"],
    ["recover", "--n", "1", "--q", "2"],
    ["classes", "--n", "2", "--q", "11", "--json"],
    ["classes", "--n", "3", "--q", "3"],
    ["gram", "--q", "11", "--torus", "1+1", "--chars", "0,0;0,1;1,0;1,1",
     "--json"],
    ["gram", "--q", "11", "--torus", "2", "--chars", "0;1;5"],
    ["table", "--q", "3"],
    ["table", "--q", "3", "--json"],
    ["table", "--q", "3", "--out", "{sheet}"],
    ["table", "--sheet", "{sheet}"],
    ["recover", "--sheet", "{sheet}", "--rho", "onedim:1"],
    # a version 1 file: refused with exit 3 before any value is parsed
    ["recover", "--sheet", "{v1_sheet}", "--rho", "onedim:1"],
    ["frobnicate"],                       # usage error: argparse
    ["recover", "--q", "6"],              # usage error: not a prime power
]

ALLOWED = {
    "cyclotomic.CycNum.lift":
        "library API; sheet values share one level, so only library calls "
        "with mixed-level values lift (test_cyclotomic, and "
        "test_recovery::test_mixed_level_values_are_lifted)",
    "sheets.validate_sheet":
        "library API; the check of a sheet made or edited in memory. The "
        "loader runs its header pass before any value is parsed and its "
        "value pass at the end, so no command calls it whole (test_sheets "
        "runs it on built sheets at many q)",
    "abelian._Normalized._make":
        "library API; _replace copies a value type through it, and no "
        "command copies one (test_value_types::"
        "test_replace_goes_through_the_constructor)",
}


def src_functions() -> dict[str, tuple[str, int]]:
    """Qualified name -> (file, first line) of every non-dunder function."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    first = (child.decorator_list[0].lineno
                             if child.decorator_list else child.lineno)
                    out[name] = (path, first)
                walk(child, f"{name}.", path)
            else:
                walk(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), f"{path.stem}.", str(path))
    return out


def clear_caches():
    """Empty glchar's lru caches, so that functions other tests have
    already called through them run again here."""
    for path in SRC.glob("*.py"):
        if not path.stem.startswith("__"):
            mod = importlib.import_module(f"glchar.{path.stem}")
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def entered_code(tmp_path, capsys) -> set[tuple[str, int]]:
    sheet = str(tmp_path / "sheet.json")
    v1_sheet = tmp_path / "v1.json"
    v1_sheet.write_text(v1_text(build_gl2_sheet(3)))
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    clear_caches()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in TRAFFIC:
            cli.main([a.format(sheet=sheet, v1_sheet=v1_sheet)
                      for a in argv])
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno)
            for c in seen}


def test_every_function_in_src_is_reached(tmp_path, capsys):
    functions = src_functions()
    assert set(ALLOWED) <= set(functions), set(ALLOWED) - set(functions)
    entered = entered_code(tmp_path, capsys)
    unreached = sorted(name for name, at in functions.items()
                       if at not in entered and name not in ALLOWED)
    assert not unreached, (
        f"not entered by any traffic command: {unreached}; make each "
        f"reachable, or add it to ALLOWED with a reason")
