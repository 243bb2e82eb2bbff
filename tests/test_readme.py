"""Every fenced ``python`` block of README.md runs as written, and every
``fibrous`` command line in its plain fenced blocks parses, so a removed or
renamed API or option cannot leave the README stale.  An expression whose
comment starts with ``True`` must evaluate to True."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from fibrous.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
FENCES = re.findall(
    r"^```(\w*)\n(.*?)^```", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL
)
BLOCKS = [body for lang, body in FENCES if lang == "python"]
COMMANDS = [
    line
    for lang, body in FENCES
    if not lang
    for line in body.splitlines()
    if line.startswith("fibrous ")
]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block):
    lines = block.splitlines()
    namespace = {}
    for stmt in ast.parse(block).body:
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr) and comment.startswith("True"):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value is True, lines[stmt.lineno - 1]
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)


def test_readme_command_lines_parse():
    assert len(COMMANDS) >= 10
    for line in COMMANDS:
        argv = shlex.split(line.partition(">")[0], comments=True)[1:]
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
