"""Every fenced ``python`` block of README.md runs as written, so a removed
or renamed API cannot leave the README stale.  An expression whose comment
starts with ``True`` must evaluate to True."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(
    r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL
)


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
