"""The suite's warning filters let a failing test fail on its own.

``pyproject.toml`` turns every warning into an error. Hypothesis reports a
failing example through libcst, whose import warns about the deprecated
``mypy_extensions.TypedDict``; as an error that warning ended the whole
session in ``INTERNALERROR`` and the tests after it never ran.
"""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_given_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_GIVEN_THEN_PASSING)
    # the suite's own settings, and a working directory for Hypothesis's
    # example database and patch files
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
