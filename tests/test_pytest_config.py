"""The pytest configuration of pyproject.toml, run on a throwaway test file."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SAMPLE = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_given_fails(n):
    assert n < 0


def test_plain_fails():
    assert False


def test_passes():
    pass
'''


def test_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # with warnings as errors, a deprecation warning raised while hypothesis
    # reports a failure once aborted the session with an INTERNALERROR
    sample = tmp_path / "test_sample.py"
    sample.write_text(SAMPLE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.join(ROOT, "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(sample)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "2 failed, 1 passed" in proc.stdout.splitlines()[-1]
    assert proc.returncode == 1
