"""The console-script pipeline writes the same bytes under two hash seeds.

Criterion 10 compares two runs in one process, so it cannot see string
hashing.  Here each command runs as its own ``python -m natlog.cli``
process, once under ``PYTHONHASHSEED=1`` and once under ``2``, and every
file the two runs write is compared byte for byte:

* ``gen`` of the two-hop data and of the noisy split (half its test pairs
  have m = 4);
* ``train`` for one epoch with the default config, with revision off
  (``noir``), with no proposal pops (``m0``, so each episode's row of
  uniforms is m wide) and in batches of 5 (``b5``, so the epoch's 2816
  examples end in a batch of one), and on the noisy test split, which
  mixes m = 2 and m = 4 programs in a batch, with revision on and off;
* ``eval`` to csv and to jsonl, on the noisy split too;
* ``oracle`` on the two-hop data and on the noisy test split (m = 2 and
  m = 4).

A third leg runs ``gen`` of both specs and ``eval --out report.jsonl``
under the C locale with UTF-8 mode off (``LC_ALL=C PYTHONUTF8=0
PYTHONCOERCECLOCALE=0``), where the locale's encoding is ASCII, and
compares its files with the first run's.  It is skipped where that
environment still reports UTF-8.

No digest is pinned: the runs are compared with each other.
"""

import dataclasses
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import natlog

CONFIGS = {
    "train": "epochs = 1\nseed = 0\n",
    "noir": "epochs = 1\nseed = 0\nintrospective_revision = false\n",
    "m0": "epochs = 1\nseed = 0\nM = 0\n",
    "b5": "epochs = 1\nseed = 0\nbatch_size = 5\n",
}

FILES = (
    "hash/train.jsonl",
    "hash/test.jsonl",
    "hash/twohop.jsonl",
    "hash/policy.ckpt",
    "hash/noir.ckpt",
    "hash/m0.ckpt",
    "hash/b5.ckpt",
    "hash/metrics.jsonl",
    "hash/report.csv",
    "hash/oracle.jsonl",
    "noisy/train.jsonl",
    "noisy/test.jsonl",
    "noisy/report.csv",
    "noisy/report.jsonl",
    "noisy/oracle.jsonl",
    "noisy/mixed-train.ckpt",
    "noisy/mixed-noir.ckpt",
)


# files the C-locale leg writes, each compared with the first run's
LOCALE_FILES = (
    "hash/train.jsonl",
    "hash/test.jsonl",
    "hash/twohop.jsonl",
    "noisy/train.jsonl",
    "noisy/test.jsonl",
    "noisy/report.jsonl",
)
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def environment(**overrides: str) -> dict:
    """This process's environment with natlog importable and the
    overrides set."""
    package_root = Path(natlog.__file__).resolve().parents[1]
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    return env


def runner(env: dict):
    """Run ``python -m natlog.cli`` with ``env``, asserting it succeeds."""

    def natlog_cli(*args):
        result = subprocess.run(
            [sys.executable, "-m", "natlog.cli", *map(str, args)],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert result.returncode == 0, (args, result.stderr)

    return natlog_cli


def pipeline(root: Path, configs: Path, hashseed: int) -> Path:
    """Every command of the pipeline under one hash seed; returns the run's
    directory."""
    natlog_cli = runner(environment(PYTHONHASHSEED=str(hashseed)))
    run = root / f"hash{hashseed}"
    out, noisy = run / "hash", run / "noisy"

    natlog_cli("gen", "--two-hop", "--out", out)
    natlog_cli(
        "train", "--data", out / "train.jsonl", "--config", configs / "train.cfg",
        "--checkpoint", out / "policy.ckpt", "--out", out / "metrics.jsonl",
    )
    for variant in ("noir", "m0", "b5"):
        natlog_cli(
            "train", "--data", out / "train.jsonl",
            "--config", configs / f"{variant}.cfg",
            "--checkpoint", out / f"{variant}.ckpt",
        )
    natlog_cli(
        "eval", "--checkpoint", out / "policy.ckpt", "--data", out / "test.jsonl",
        "--out", out / "report.csv",
    )
    natlog_cli("oracle", "--data", out / "twohop.jsonl", "--out", out / "oracle.jsonl")
    natlog_cli("gen", "--config", configs / "noisy.json", "--out", noisy)
    for report in ("report.csv", "report.jsonl"):
        natlog_cli(
            "eval", "--checkpoint", out / "policy.ckpt",
            "--data", noisy / "test.jsonl", "--out", noisy / report,
        )
    natlog_cli(
        "oracle", "--data", noisy / "test.jsonl", "--out", noisy / "oracle.jsonl"
    )
    for variant in ("train", "noir"):
        natlog_cli(
            "train", "--data", noisy / "test.jsonl",
            "--config", configs / f"{variant}.cfg",
            "--checkpoint", noisy / f"mixed-{variant}.ckpt",
        )
    return run


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The pipeline's two runs, under hash seeds 1 and 2, side by side."""
    root = tmp_path_factory.mktemp("determinism")
    configs = root / "configs"
    configs.mkdir()
    for name, text in CONFIGS.items():
        (configs / f"{name}.cfg").write_text(text)
    spec = dataclasses.replace(natlog.default_genspec(), noisy_test=True)
    natlog.save_genspec(spec, configs / "noisy.json")
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda seed: pipeline(root, configs, seed), (1, 2)))


def test_every_file_written_is_compared(runs):
    for run in runs:
        written = {str(path.relative_to(run)) for path in run.rglob("*.*")}
        assert written == set(FILES)


@pytest.mark.parametrize("name", FILES)
def test_same_bytes_under_two_hash_seeds(runs, name):
    first, second = ((run / name).read_bytes() for run in runs)
    assert first, name
    assert first == second, name


@pytest.fixture(scope="module")
def c_locale_run(runs):
    """``gen`` of both specs and an ``eval`` to jsonl under the C locale,
    with the first run's configs and checkpoint."""
    env = environment(PYTHONHASHSEED="1", **C_LOCALE)
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import locale; print(locale.getpreferredencoding(False))",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    if probe.stdout.strip().lower().replace("-", "") == "utf8":
        pytest.skip("the C locale reports UTF-8 here")
    natlog_cli = runner(env)
    first = runs[0]
    run = first.parent / "c-locale"
    out, noisy = run / "hash", run / "noisy"
    natlog_cli("gen", "--two-hop", "--out", out)
    spec = first.parent / "configs" / "noisy.json"
    natlog_cli("gen", "--config", spec, "--out", noisy)
    natlog_cli(
        "eval", "--checkpoint", first / "hash" / "policy.ckpt",
        "--data", noisy / "test.jsonl", "--out", noisy / "report.jsonl",
    )
    return run


@pytest.mark.parametrize("name", LOCALE_FILES)
def test_same_bytes_under_the_c_locale(runs, c_locale_run, name):
    written = (c_locale_run / name).read_bytes()
    assert written, name
    assert written == (runs[0] / name).read_bytes(), name
