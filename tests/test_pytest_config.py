"""The suite's pytest configuration reports a failing test and runs on."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = {
    # hypothesis's failure report warns on mypy_extensions.TypedDict; as an
    # error that warning ended the run with INTERNALERROR
    "property": '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0
''',
    # every other DeprecationWarning still fails its test
    "deprecation": '''
import warnings


def test_fails():
    warnings.warn("old", DeprecationWarning)
''',
}


@pytest.mark.parametrize("kind", sorted(FAILING))
def test_a_failing_test_is_reported_and_the_next_one_runs(kind, tmp_path):
    source = FAILING[kind] + "\n\ndef test_passes():\n    pass\n"
    (tmp_path / "test_pair.py").write_text(source)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
