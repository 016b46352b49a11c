"""Every quick demo script runs to completion from a fresh directory, and
the README's library example computes the values its comments give.

Demo 06 is left out: it repeats the compositional-generalization training
that tests/test_acceptance.py already runs (criterion 07).
"""

import os
import re
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


def test_readme_library_block_runs_as_commented():
    # the README's one python block, run as written; its commented values
    # are what it computes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    comments = {}
    for line in blocks[0].splitlines():
        if line.startswith("trace."):
            name, _, value = line.partition("#")
            comments[name.strip()] = value.strip()
    assert set(comments) == {"trace.label", "trace.states", "trace.rationales"}
    scope = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    trace = scope["trace"]
    assert trace.label == natlog.NLILabel.ENTAILMENT
    assert comments["trace.label"] == f"NLILabel.{trace.label.name}"
    eq, fe = natlog.Relation.EQUIVALENCE, natlog.Relation.FORWARD_ENTAILMENT
    assert trace.states == (eq, eq, eq, fe)
    symbols = ", ".join(state.symbol for state in trace.states)
    assert comments["trace.states"] == f"({symbols})"
    assert trace.rationales == (3,)
    assert comments["trace.rationales"] == repr(trace.rationales)
    first, actions = scope["compiled"][0], scope["actions"]
    program = tuple(actions[r] for r in first.row_ids)
    assert len(program) == first.pair.m
    assert all(isinstance(a, natlog.ActionRelation) for a in program)
