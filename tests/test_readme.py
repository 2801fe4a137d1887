"""The examples of README.md, run through glchar.cli.main and exec.

Every fenced block whose first line is `$ glchar ...` runs in this
process.  A trailing `| head -N` keeps the first N lines of stdout, and
what is left must equal the rest of the block, byte for byte, with exit
code 0.  The Python block of the Library section runs too, and what it
prints must equal the block shown after it.  So the README cannot drift
from the output of the CLI or of the library.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from glchar.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLE = re.compile(r"^```\n\$ glchar (.*?)\n(.*?)^```$", re.M | re.S)
LIBRARY = re.compile(
    r"^```python\n(.*?)^```\n\nIt prints:\n\n```\n(.*?)^```$", re.M | re.S)


def examples() -> list[tuple[str, str]]:
    return EXAMPLE.findall(README.read_text(encoding="utf-8"))


def test_readme_examples_are_found():
    # a block reformatted past the pattern would otherwise drop out unseen
    assert len(examples()) == 6


@pytest.mark.parametrize("command,shown", examples(),
                         ids=[c for c, _ in examples()])
def test_readme_example_output(command, shown):
    command, _, pipe = command.partition(" | ")
    keep = None
    if pipe:
        m = re.fullmatch(r"head -(\d+)", pipe)
        assert m, f"unsupported pipe {pipe!r}"
        keep = int(m.group(1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command))
    assert code == 0
    lines = out.getvalue().splitlines(keepends=True)
    assert "".join(lines[:keep]) == shown


@pytest.mark.parametrize("command", ["table", "recover", "unipotent"])
def test_readme_shows_the_sheet_commands_usage(capsys, monkeypatch, command):
    # on one line each: argparse wraps usage at the terminal width
    monkeypatch.setenv("COLUMNS", "200")
    assert main([command, "--help"]) == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert f"\n{usage}\n" in README.read_text(encoding="utf-8")


def test_readme_library_example_output():
    (code, shown), = LIBRARY.findall(README.read_text(encoding="utf-8"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == shown
