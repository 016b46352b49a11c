"""Every quick demo script runs to completion from a fresh directory.

Demo 06 is left out: it repeats the compositional-generalization training
that tests/test_acceptance.py already runs (criterion 07).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import natlog

DEMOS = Path(__file__).resolve().parents[1] / "demos"
QUICK = sorted(p.name for p in DEMOS.glob("0[1-5]_*.py"))


def test_quick_demos_found():
    assert [name[:2] for name in QUICK] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("name", QUICK)
def test_demo_exits_zero(name, tmp_path):
    package_root = Path(natlog.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
