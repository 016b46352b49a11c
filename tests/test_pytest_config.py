"""The repository's pytest configuration against the tools it runs with."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


@pytest.mark.skipif(
    importlib.util.find_spec("libcst") is None,
    reason="hypothesis imports libcst to report a failure only where it is installed",
)
def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # reporting the failure imports libcst, whose import warns; the warning
    # filters must let the run go on to the next test
    (tmp_path / "test_probe.py").write_text(textwrap.dedent(PROBE), encoding="utf-8")
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
