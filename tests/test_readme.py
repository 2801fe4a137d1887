"""The command examples of README.md, run through glchar.cli.main.

Every fenced block whose first line is `$ glchar ...` runs in this
process.  A trailing `| head -N` keeps the first N lines of stdout, and
what is left must equal the rest of the block, byte for byte, with exit
code 0.  So the README cannot drift from the output of the CLI.
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
