"""End-to-end tests for the command-line interface."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import natlog
import natlog.cli
from natlog.cli import main
from natlog.data import load_dataset, save_dataset
from natlog.datagen import default_genspec, save_genspec
from natlog.executor import enumerate_programs
from natlog.metrics import evaluate
from natlog.chunker import default_rules
from natlog.knowledge import default_lexicon
from natlog.policy import compile_examples, load_checkpoint
from natlog.relations import ACTIONS


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated data, a training config, and a trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    spec = dataclasses.replace(
        default_genspec(), train_size=60, test_size=40, two_hop_size=25
    )
    save_genspec(spec, root / "spec.json")
    assert (
        main(
            [
                "gen",
                "--config",
                str(root / "spec.json"),
                "--out",
                str(root / "data"),
                "--two-hop",
            ]
        )
        == 0
    )
    (root / "train.cfg").write_text(
        "epochs = 2\nlearning_rate = 0.05\nseed = 0\n"
    )
    assert (
        main(
            [
                "train",
                "--data",
                str(root / "data" / "train.jsonl"),
                "--config",
                str(root / "train.cfg"),
                "--checkpoint",
                str(root / "policy.ckpt"),
                "--out",
                str(root / "metrics.jsonl"),
            ]
        )
        == 0
    )
    return root


@pytest.fixture(scope="module")
def noisy_split(tmp_path_factory):
    """The noisy split, whose test pairs have m = 2 and m = 4."""
    root = tmp_path_factory.mktemp("noisy")
    save_genspec(
        dataclasses.replace(default_genspec(), noisy_test=True), root / "spec.json"
    )
    out = root / "data"
    assert main(["gen", "--config", str(root / "spec.json"), "--out", str(out)]) == 0
    return out


def _records(path):
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    return header, [json.loads(line) for line in lines[1:]]


class TestGen:
    def test_writes_all_datasets(self, workspace):
        for name, minimum in (("train", 60), ("test", 40), ("twohop", 25)):
            examples = load_dataset(workspace / "data" / f"{name}.jsonl")
            assert len(examples) == minimum

    def test_deterministic_bytes(self, workspace, tmp_path):
        for out in ("a", "b"):
            assert (
                main(
                    [
                        "gen",
                        "--config",
                        str(workspace / "spec.json"),
                        "--out",
                        str(tmp_path / out),
                    ]
                )
                == 0
            )
        for name in ("train.jsonl", "test.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        assert (tmp_path / "a" / "train.jsonl").read_bytes() == (
            workspace / "data" / "train.jsonl"
        ).read_bytes()

    def test_seed_override_changes_subsample(self, workspace, tmp_path):
        assert (
            main(
                [
                    "gen",
                    "--config",
                    str(workspace / "spec.json"),
                    "--seed",
                    "9",
                    "--out",
                    str(tmp_path / "seeded"),
                ]
            )
            == 0
        )
        assert (tmp_path / "seeded" / "train.jsonl").read_bytes() != (
            workspace / "data" / "train.jsonl"
        ).read_bytes()


class TestTrain:
    def test_checkpoint_loads(self, workspace):
        params = load_checkpoint(workspace / "policy.ckpt")
        assert params.weights.any()

    def test_metrics_file_structure(self, workspace):
        header, records = _records(workspace / "metrics.jsonl")
        assert header == {"schema": "natlog.train-metrics", "version": 1}
        epochs = [r for r in records if "epoch_metrics" in r]
        totals = [r for r in records if "revision_totals" in r]
        assert len(epochs) == 2 and len(totals) == 1

    def test_revision_counts_sum_to_episodes(self, workspace):
        _, records = _records(workspace / "metrics.jsonl")
        total = records[-1]["revision_totals"]
        buckets = (
            total["knowledge_only"]
            + total["answer_only"]
            + total["both"]
            + total["none"]
        )
        assert buckets == total["episodes"]
        assert total["episodes"] > 0
        assert all(v >= 0 for v in total["per_relation"].values())
        # revised episodes change at least one step each
        revised = total["episodes"] - total["none"]
        assert sum(total["per_relation"].values()) >= revised

    def test_per_epoch_counts_match_totals(self, workspace):
        _, records = _records(workspace / "metrics.jsonl")
        epochs = [r["epoch_metrics"] for r in records if "epoch_metrics" in r]
        total = records[-1]["revision_totals"]
        for key in ("episodes", "knowledge_only", "answer_only", "both"):
            assert sum(e["revisions"][key] for e in epochs) == total[key]

    def test_retraining_is_byte_identical(self, workspace, tmp_path):
        assert (
            main(
                [
                    "train",
                    "--data",
                    str(workspace / "data" / "train.jsonl"),
                    "--config",
                    str(workspace / "train.cfg"),
                    "--checkpoint",
                    str(tmp_path / "again.ckpt"),
                    "--out",
                    str(tmp_path / "again.jsonl"),
                ]
            )
            == 0
        )
        assert (tmp_path / "again.ckpt").read_bytes() == (
            workspace / "policy.ckpt"
        ).read_bytes()
        assert (tmp_path / "again.jsonl").read_bytes() == (
            workspace / "metrics.jsonl"
        ).read_bytes()


class TestEval:
    def test_report_matches_library(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        assert (
            main(
                [
                    "eval",
                    "--checkpoint",
                    str(workspace / "policy.ckpt"),
                    "--data",
                    str(workspace / "data" / "test.jsonl"),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        header, records = _records(out)
        assert header == {"schema": "natlog.eval", "version": 1}
        expected = evaluate(
            load_dataset(workspace / "data" / "test.jsonl"),
            load_checkpoint(workspace / "policy.ckpt"),
            default_rules(),
            default_lexicon(),
        )
        assert records[0]["accuracy"] == expected.accuracy
        assert records[0]["state_accuracy"] == expected.state_accuracy
        assert records[0]["dataset"] == "test.jsonl"
        assert "accuracy" in capsys.readouterr().out

    def test_csv_output(self, workspace, tmp_path):
        out = tmp_path / "report.csv"
        assert (
            main(
                [
                    "eval",
                    "--checkpoint",
                    str(workspace / "policy.ckpt"),
                    "--data",
                    str(workspace / "data" / "test.jsonl"),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0].startswith("dataset,examples,accuracy")
        assert lines[1].startswith("test.jsonl,40,")

    def test_collapse_binary_headline(self, workspace, capsys):
        assert (
            main(
                [
                    "eval",
                    "--checkpoint",
                    str(workspace / "policy.ckpt"),
                    "--data",
                    str(workspace / "data" / "test.jsonl"),
                    "--collapse-binary",
                ]
            )
            == 0
        )
        assert "binary accuracy" in capsys.readouterr().out


class TestProve:
    def test_untrained_identity_trace(self, capsys):
        assert main(["prove", "the dog runs", "the dog runs"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == [
            "step",
            "hypothesis",
            "chunk",
            "premise",
            "chunk",
            "r",
            "proj",
            "z",
        ]
        body = [line for line in lines[1:] if line[0].isdigit()]
        assert len(body) == 2
        for line in body:
            assert line.split()[-3:] == ["≡", "≡", "≡"]
        assert "label: entailment" in out
        assert "rationale: none" in out

    def test_trained_checkpoint_trace(self, workspace, capsys):
        assert (
            main(
                [
                    "prove",
                    "--checkpoint",
                    str(workspace / "policy.ckpt"),
                    "some dogs run",
                    "some animals run",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "label: entailment" in out
        assert "rationale: chunk 1 'some animals'" in out


class TestOracle:
    def test_records_and_summary(self, workspace, tmp_path, capsys):
        out = tmp_path / "oracle.jsonl"
        assert (
            main(
                [
                    "oracle",
                    "--data",
                    str(workspace / "data" / "twohop.jsonl"),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        header, records = _records(out)
        assert header == {"schema": "natlog.oracle", "version": 1}
        summary = records[-1]["summary"]
        assert summary["examples"] == 25
        assert 0.0 <= summary["mean_spurious_ratio"] <= 1.0
        for record in records[:-1]:
            assert record["reaching"] >= 1
            assert record["reaching"] <= record["programs"]
            assert 0.0 <= record["spurious_ratio"] <= 1.0
        assert "spurious-program ratio" in capsys.readouterr().out

    def test_max_m_skips(self, workspace, tmp_path, capsys):
        # the count is exact for every m: --max-m is gone and no example
        # is skipped, however small the old cap would have been
        data = str(workspace / "data" / "twohop.jsonl")
        out = tmp_path / "oracle.jsonl"
        with pytest.raises(SystemExit):
            main(["oracle", "--data", data, "--max-m", "1", "--out", str(out)])
        assert "--max-m" in capsys.readouterr().err
        assert not out.exists()
        assert main(["oracle", "--data", data, "--out", str(out)]) == 0
        _, records = _records(out)
        assert not any("skipped" in r for r in records[:-1])
        assert all(r["spurious_ratio"] is not None for r in records[:-1])
        assert records[-1]["summary"]["skipped"] == 0
        assert "(0 skipped)" in capsys.readouterr().out

    def test_max_m_defaults_to_enumeration_cap(self, capsys):
        # the option and its default (the enumeration cap) are removed
        args = natlog.cli._build_parser().parse_args(["oracle", "--data", "d"])
        assert not hasattr(args, "max_m")
        with pytest.raises(SystemExit):
            natlog.cli._build_parser().parse_args(
                [
                    "oracle",
                    "--data",
                    "d",
                    "--max-m",
                    str(natlog.executor.ENUMERATION_CAP),
                ]
            )
        assert "--max-m" in capsys.readouterr().err

    def test_records_equal_enumeration_on_noisy_split(self, noisy_split, tmp_path):
        # one example of each (context rows, target, gold program) kind
        # against the programs that enumerate_programs yields
        path = noisy_split / "test.jsonl"
        out = tmp_path / "oracle.jsonl"
        assert main(["oracle", "--data", str(path), "--out", str(out)]) == 0
        examples = load_dataset(path)
        compiled, _ = compile_examples(examples, default_rules(), default_lexicon())
        _, records = _records(out)
        assert len(records) == len(examples) + 1
        assert records[-1]["summary"]["skipped"] == 0
        kinds = {}
        for index, (example, item) in enumerate(zip(examples, compiled)):
            rows = tuple(c.context.action_codes for c in item.pair.hypothesis)
            kinds.setdefault((rows, item.target, example.gold_program), index)
        assert {examples[i].gold_program is None for i in kinds.values()} == {False}
        assert {compiled[i].pair.m for i in kinds.values()} == {2, 4}
        for index in kinds.values():
            item, gold = compiled[index], examples[index].gold_program
            reaching = list(enumerate_programs(item.pair, item.target))
            ratio = None
            if reaching:
                ratio = sum(p != gold for p in reaching) / len(reaching)
            assert records[index] == {
                "index": index,
                "m": item.pair.m,
                "programs": 5**item.pair.m,
                "reaching": len(reaching),
                "spurious_ratio": ratio,
            }


    def test_gold_program_that_misses_counts_as_spurious(self, workspace, tmp_path):
        # a gold program of the wrong length, or one that misses the
        # target, is not among the reaching programs: all of them are spurious
        (example,) = load_dataset(workspace / "data" / "twohop.jsonl")[:1]
        gold = example.gold_program
        (item,), _ = compile_examples([example], default_rules(), default_lexicon())
        reaching = set(enumerate_programs(item.pair, item.target))
        miss = next(
            p for p in itertools.product(ACTIONS, repeat=len(gold)) if p not in reaching
        )
        wrong = dataclasses.replace(example, gold_program=gold + (ACTIONS[0],))
        missing = dataclasses.replace(example, gold_program=miss)
        path, out = tmp_path / "data.jsonl", tmp_path / "oracle.jsonl"
        save_dataset([example, wrong, missing], path)
        assert main(["oracle", "--data", str(path), "--out", str(out)]) == 0
        _, records = _records(out)
        reaching = records[0]["reaching"]
        assert records[0]["spurious_ratio"] == (reaching - 1) / reaching
        for record in records[1:3]:
            assert record["reaching"] == reaching
            assert record["spurious_ratio"] == 1.0


class TestOptions:
    """Each subcommand takes only the common options it reads: ``--seed``
    for ``gen`` and ``train``, ``--lexicon`` for ``train``, ``eval`` and
    ``prove``."""

    REQUIRED = {
        "gen": ["--out", "o"],
        "train": ["--data", "d", "--checkpoint", "c"],
        "eval": ["--data", "d", "--checkpoint", "c"],
        "prove": ["p", "h"],
        "oracle": ["--data", "d"],
    }

    @pytest.mark.parametrize(
        "command, option",
        [
            ("eval", "--seed"),
            ("prove", "--seed"),
            ("oracle", "--seed"),
            ("gen", "--lexicon"),
            ("oracle", "--lexicon"),
        ],
    )
    def test_unread_option_rejected(self, command, option, capsys):
        parser = natlog.cli._build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([command, *self.REQUIRED[command], option, "1"])
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_seed_accepted(self, command):
        args = natlog.cli._build_parser().parse_args(
            [command, *self.REQUIRED[command], "--seed", "3"]
        )
        assert args.seed == 3

    @pytest.mark.parametrize("command", ["train", "eval", "prove"])
    def test_lexicon_accepted(self, command):
        args = natlog.cli._build_parser().parse_args(
            [command, *self.REQUIRED[command], "--lexicon", "lex"]
        )
        assert args.lexicon == "lex"


class TestErrors:
    def test_missing_file_gives_error_record(self, capsys):
        rc = main(
            [
                "eval",
                "--checkpoint",
                "/nonexistent.ckpt",
                "--data",
                "/nonexistent.jsonl",
            ]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"
        assert "message" in err

    def test_invalid_config_gives_error_record(self, workspace, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("epochs = soon\n")
        rc = main(
            [
                "train",
                "--data",
                str(workspace / "data" / "train.jsonl"),
                "--config",
                str(bad),
                "--checkpoint",
                str(tmp_path / "x.ckpt"),
            ]
        )
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"

    def test_zero_epochs_gives_value_error_record(self, workspace, capsys, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("epochs = 0\n")
        rc = main(
            [
                "train",
                "--data",
                str(workspace / "data" / "train.jsonl"),
                "--config",
                str(cfg),
                "--checkpoint",
                str(tmp_path / "x.ckpt"),
            ]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{cfg}:1: epochs: ")
        assert not (tmp_path / "x.ckpt").exists()

    def test_overflowing_checkpoint_weight_gives_value_error_record(
        self, workspace, capsys, tmp_path
    ):
        lines = (workspace / "policy.ckpt").read_text().splitlines()
        lines[4] = " ".join(["0x1p+99999", *lines[4].split()[1:]])
        bad = tmp_path / "overflow.ckpt"
        bad.write_text("\n".join(lines) + "\n")
        args = ["--checkpoint", str(bad), "some dogs run", "some animals run"]
        assert main(["prove", *args]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{bad}:5: malformed weight row: ")

    @pytest.mark.parametrize("command", ["eval", "train", "oracle"])
    def test_malformed_example_names_dataset_index_and_premise(
        self, workspace, capsys, tmp_path, command
    ):
        examples = load_dataset(workspace / "data" / "test.jsonl")[:4]
        examples[3] = dataclasses.replace(examples[3], hypothesis="?!")
        bad = tmp_path / "bad.jsonl"
        save_dataset(examples, bad)
        args = {
            "eval": ["--checkpoint", str(workspace / "policy.ckpt")],
            "train": ["--checkpoint", str(tmp_path / "x.ckpt")],
            "oracle": [],
        }[command]
        assert main([command, "--data", str(bad)] + args) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "ValueError",
            "message": f"{bad}: example 3 ({examples[3].premise!r}): "
            "cannot chunk an empty sentence",
        }
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("command", ["eval", "train", "oracle"])
    def test_example_without_target_names_dataset_index_and_premise(
        self, workspace, capsys, tmp_path, command
    ):
        example = natlog.Example(premise="some dogs run", hypothesis="some animals run")
        bad = tmp_path / "untargeted.jsonl"
        save_dataset([example], bad)
        args = {
            "eval": ["--checkpoint", str(workspace / "policy.ckpt")],
            "train": ["--checkpoint", str(tmp_path / "x.ckpt")],
            "oracle": ["--out", str(tmp_path / "oracle.jsonl")],
        }[command]
        assert main([command, "--data", str(bad)] + args) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "ValueError",
            "message": f"{bad}: example 0 ('some dogs run'): "
            "example has neither label nor target state",
        }
        assert not (tmp_path / "x.ckpt").exists()
        assert not (tmp_path / "oracle.jsonl").exists()

    def test_collapse_binary_without_labels_gives_error_record(
        self, workspace, capsys, tmp_path
    ):
        examples = load_dataset(workspace / "data" / "train.jsonl")[:5]
        unlabelled = tmp_path / "unlabelled.jsonl"
        save_dataset(
            [
                dataclasses.replace(
                    e, label=None, target_state=natlog.Relation.REVERSE_ENTAILMENT
                )
                for e in examples
            ],
            unlabelled,
        )
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(workspace / "policy.ckpt"),
                "--data",
                str(unlabelled),
                "--collapse-binary",
            ]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "no example carries a label" in err["message"]

    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code != 0


def _read_toml(path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as handle:
        return tomllib.load(handle)


def test_console_script_installed():
    """`python -m natlog.cli --help` exits 0 and lists the prove command."""
    result = subprocess.run(
        [sys.executable, "-m", "natlog.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "prove" in result.stdout


def test_prove_escapes_symbols_that_stdout_cannot_encode():
    """Under the C locale with UTF-8 mode off, standard output is ASCII:
    ``prove`` prints each relation symbol backslash-escaped and exits 0.
    Skipped where that environment's standard output is UTF-8."""
    package_root = Path(natlog.__file__).resolve().parents[1]
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env.pop("PYTHONIOENCODING", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    probe = subprocess.run(
        [sys.executable, "-c", "import sys; print(sys.stdout.encoding)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    if probe.stdout.strip().lower().replace("-", "") == "utf8":
        pytest.skip("standard output is UTF-8 under the C locale here")
    result = subprocess.run(
        [
            sys.executable, "-m", "natlog.cli",
            "prove", "every dog runs", "every animal runs",
        ],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.decode("ascii").splitlines()
    assert lines[0].split()[-3:] == ["r", "proj", "z"]
    assert lines[1].split() == ["1", "every", "animal", "every", "dog"] + [
        "\\u2261"
    ] * 3
    assert lines[3:] == ["label: entailment", "rationale: none"]


def test_console_entry_point(tmp_path):
    """The `natlog` script declared in pyproject.toml runs `prove` from PATH."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = _read_toml(pyproject)["project"]["scripts"]["natlog"]
    module, _, attr = entry.partition(":")
    # What an installer generates for a console script.
    launcher = tmp_path / "natlog"
    launcher.write_text(
        f"#!{sys.executable}\n"
        f"import sys, {module}\n"
        f"sys.exit({module}.{attr}())\n"
    )
    launcher.chmod(0o755)
    package_root = Path(natlog.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        ["natlog", "prove", "the dog runs", "the dog runs"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "label: entailment" in result.stdout
