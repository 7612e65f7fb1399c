"""The suite's own pytest settings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_TESTS = '''
import warnings

from hypothesis import given, settings, strategies as st


def test_warns():
    warnings.warn("any other warning", DeprecationWarning)


@given(st.integers())
@settings(database=None)
def test_always_fails(x):
    assert x is None
'''


def test_a_failing_property_shows_its_falsifying_example(tmp_path):
    # filterwarnings turns every warning into an error, but the one that
    # hypothesis's pytest plugin raises while it reports a failure must
    # not hide the example behind an INTERNALERROR.
    (tmp_path / "test_fails.py").write_text(FAILING_TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "2 failed" in run.stdout, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
