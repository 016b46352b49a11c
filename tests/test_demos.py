"""Every quick demo script runs to completion from a fresh directory, the
README's library example computes the values its comments give, and its
CLI block runs as written.

Demo 06 is left out: it repeats the compositional-generalization training
that tests/test_acceptance.py already runs (criterion 07).
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import natlog
from natlog.cli import main

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
    first, rows, actions = scope["compiled"][0], scope["rows"], scope["actions"]
    matrix = natlog.featurize_pair(first.pair, scope["lexicon"])
    assert rows[list(first.row_ids)].tobytes() == matrix.tobytes()
    program = tuple(actions[r] for r in first.row_ids)
    assert len(program) == first.pair.m
    assert all(isinstance(a, natlog.ActionRelation) for a in program)


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # the README's sh block under "## CLI", one command per line once the
    # continuations are joined and the comments dropped, run in a fresh
    # directory holding the spec.json and train.cfg that it names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    cli = readme.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", cli, flags=re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip()[:1] not in "#"]
    assert [argv[:2] for argv in commands] == [
        ["natlog", "gen"],
        ["natlog", "train"],
        ["natlog", "eval"],
        ["natlog", "prove"],
        ["natlog", "oracle"],
    ]
    monkeypatch.chdir(tmp_path)
    natlog.save_genspec(natlog.default_genspec(), "spec.json")
    Path("train.cfg").write_text("epochs = 1\n", "utf-8")
    named = set()
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
        named.update(
            value for option, value in zip(argv, argv[1:]) if option.startswith("--")
        )
    assert "label:" in capsys.readouterr().out  # prove's table
    named -= {"data"}  # gen's output directory, which holds the datasets
    assert named == {
        "spec.json",
        "train.cfg",
        "data/train.jsonl",
        "data/test.jsonl",
        "data/twohop.jsonl",
        "policy.ckpt",
        "metrics.jsonl",
        "report.csv",
        "oracle.jsonl",
    }
    for name in named:
        assert Path(name).is_file() and Path(name).stat().st_size, name
