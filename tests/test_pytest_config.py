"""The suite's pytest settings keep a failing Hypothesis property an
ordinary failure: the warning gate must not turn the plugin's report of it
into an INTERNALERROR that ends the session before the other tests run.
They also make a pinned defect that gets fixed (an xfail that passes) and a
mistyped mark fail the suite."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_failing_property(n):
    assert n < 10


def test_passing():
    pass
'''


XPASS = '''
import pytest


@pytest.mark.xfail(reason="the defect is fixed")
def test_fixed_defect():
    pass
'''

TYPO = '''
import pytest


@pytest.mark.slwo
def test_marked():
    pass
'''


def _run_pytest(tmp_path, files: dict) -> str:
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), *files],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    return run.stdout + run.stderr


def test_failing_property_does_not_stop_the_session(tmp_path):
    out = _run_pytest(tmp_path, {"test_pair.py": PAIR})
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_fixed_defect_and_mistyped_mark_fail(tmp_path, pytestconfig):
    assert pytestconfig.getini("xfail_strict") is True
    assert "--strict-markers" in pytestconfig.getini("addopts")
    assert pytestconfig.getini("strict_markers") is True
    out = _run_pytest(tmp_path, {"test_xpass.py": XPASS})
    assert "XPASS(strict)" in out and "1 failed" in out
    # pytest's own mark check, not the warning gate turning
    # PytestUnknownMarkWarning into an error
    out = _run_pytest(tmp_path, {"test_typo.py": TYPO})
    assert "'slwo' not found in `markers`" in out and "1 error" in out
