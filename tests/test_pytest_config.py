"""The suite's pytest settings keep a failing Hypothesis property an
ordinary failure: the warning gate must not turn the plugin's report of it
into an INTERNALERROR that ends the session before the other tests run."""

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


def test_failing_property_does_not_stop_the_session(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
