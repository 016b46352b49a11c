"""Files that natlog reads, mutated: each mutant either loads or raises a
``ValueError`` whose message starts with ``path:line: `` (a generation
spec's, being one JSON value, with the path).

The mutations: delete a span, truncate the file, swap two characters,
wrap a scalar in a list, duplicate a line, or replace a scalar with one
of ``MUTANT_SCALARS``; a lexicon may also have two words of a line
swapped, which reverses a hypernym edge.  A checkpoint's scalars are the
tokens of its weight rows, a train config's the values of its
``key = value`` lines, a lexicon's and a grammar's the words after a
line's first token, and a JSON file's its scalar values.  The files are
written by ``save_checkpoint``, ``Lexicon.dump``, ``ChunkRules.dump``,
``save_genspec`` and ``save_dataset``.  Each loader leg runs 300
hypothesis examples, about a second.  The dataset's loader leg is
``tests/test_data.py::TestMutatedDataset``.

The command-line leg runs ``natlog prove``, ``eval``, ``train`` or
``oracle`` on one mutated dataset, checkpoint, lexicon, grammar or train
config, 100 examples per file kind, a few seconds in all: a run exits 0,
or exits 2 with a ``ValueError`` record, and one whose mutant its loader
rejects exits 2 with a record that names the mutant's path.
"""

import contextlib
import dataclasses
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natlog._text import read_lines
from natlog.chunker import ChunkRules, default_rules
from natlog.cli import main
from natlog.data import Example, load_dataset, save_dataset
from natlog.datagen import default_genspec, load_genspec, save_genspec
from natlog.knowledge import Lexicon, default_lexicon
from natlog.policy import (
    N_ACTIONS,
    N_FEATURES,
    PolicyParams,
    load_checkpoint,
    save_checkpoint,
)
from natlog.relations import NLILabel
from natlog.trainer import _CONFIG_KEYS, load_train_config

MUTANT_SCALARS = [
    "NaN", "1e309", "0x1p+99999", "-1", str(2**64), "null", "[]", "{}", '"\\u0000"'
]


@st.composite
def mutants(draw, text: str, scalars: list[tuple[int, int]]) -> str:
    """``text`` with one mutation; ``scalars`` are the (start, end) offsets
    of its scalars."""
    kind = draw(
        st.sampled_from(["delete", "truncate", "swap", "wrap", "duplicate", "replace"])
    )
    if kind in ("wrap", "replace"):
        start, end = draw(st.sampled_from(scalars))
        new = "[" + text[start:end] + "]"
        if kind == "replace":
            new = draw(st.sampled_from(MUTANT_SCALARS))
        return text[:start] + new + text[end:]
    if kind == "duplicate":
        lines = text.split("\n")
        at = draw(st.integers(0, len(lines) - 2))  # the last item is ""
        return "\n".join(lines[: at + 1] + lines[at:])
    i = draw(st.integers(0, len(text) - 1))
    if kind == "truncate":
        return text[:i]
    j = draw(st.integers(i, len(text)))
    if kind == "delete":
        return text[:i] + text[j:]
    j = min(j, len(text) - 1)
    chars = list(text)
    chars[i], chars[j] = chars[j], chars[i]
    return "".join(chars)


@st.composite
def swapped_words(draw, text: str) -> str:
    """``text`` with two words of one line swapped."""
    lines = text.split("\n")
    at = draw(st.integers(0, len(lines) - 2))  # the last item is ""
    words = lines[at].split(" ")
    i, j = draw(st.integers(0, len(words) - 1)), draw(st.integers(0, len(words) - 1))
    words[i], words[j] = words[j], words[i]
    return "\n".join([*lines[:at], " ".join(words), *lines[at + 1 :]])


def assert_loads_or_names_line(load, path, text):
    path.write_text(text, encoding="utf-8")
    try:
        load(path)
    except ValueError as exc:
        named = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
        assert named, str(exc)
        # a line of the file, or the line past its end
        assert 1 <= int(named.group(1)) <= len(read_lines(path)) + 1, str(exc)


# the scalars of each kind of file, as the pattern whose group 1 is one
WORDS = r"(?<= )(\S+)"  # a lexicon's or grammar's words after the first token
JSON_SCALARS = r'("(?:[^"\\]|\\.)*"|true|false|null|-?\d+)(?!\s*:)'  # not keys
HEX_WEIGHTS = r"(-?0x[0-9a-f.]+p[+-]\d+)"  # a checkpoint's weights


def _spans(text: str, pattern: str) -> list[tuple[int, int]]:
    """The offsets of group 1 of each match of ``pattern``, line by line."""
    return [m.span(1) for m in re.finditer(pattern, text, re.MULTILINE)]


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


@pytest.fixture(scope="module")
def checkpoint_text(root):
    """A ``save_checkpoint`` file of random weights."""
    params = PolicyParams(np.random.default_rng(0).normal(size=(N_ACTIONS, N_FEATURES)))
    save_checkpoint(params, root / "base.ckpt")
    return (root / "base.ckpt").read_text(encoding="utf-8")


# every key of a train config, each set to a value other than its default
CONFIG_TEXT = """\
# a config
mu = 2.0
gamma = 0.9
M = 5
epsilon = 0.1
lambda = 0.7
epochs = 12
learning_rate = 0.01
batch_size = 4
seed = 99
prefer_forward_entailment = false
introspective_revision = off
knowledge = no
augmentation = 0
"""


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_loads_or_names_its_line(root, checkpoint_text, data):
    header_end = checkpoint_text.index("\n", checkpoint_text.index("actions:"))
    scalars = [s for s in _spans(checkpoint_text, r"(\S+)") if s[0] > header_end]
    mutant = data.draw(mutants(checkpoint_text, scalars), label="mutant")
    assert_loads_or_names_line(load_checkpoint, root / "mutant.ckpt", mutant)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_train_config_loads_or_names_its_line(root, data):
    scalars = _spans(CONFIG_TEXT, r"= (\S+)$")
    assert len(scalars) == len(_CONFIG_KEYS)
    mutant = data.draw(mutants(CONFIG_TEXT, scalars), label="mutant")
    assert_loads_or_names_line(load_train_config, root / "mutant.cfg", mutant)


@pytest.fixture(scope="module")
def lexicon_text(root):
    default_lexicon().dump(root / "base.lex")
    return (root / "base.lex").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def grammar_text(root):
    default_rules().dump(root / "base.grammar")
    return (root / "base.grammar").read_text(encoding="utf-8")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_lexicon_loads_or_names_its_line(root, lexicon_text, data):
    scalars = _spans(lexicon_text, WORDS)
    mutant = data.draw(
        st.one_of(mutants(lexicon_text, scalars), swapped_words(lexicon_text)),
        label="mutant",
    )
    assert_loads_or_names_line(Lexicon.load, root / "mutant.lex", mutant)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_grammar_loads_or_names_its_line(root, grammar_text, data):
    scalars = _spans(grammar_text, WORDS)
    mutant = data.draw(mutants(grammar_text, scalars), label="mutant")
    assert_loads_or_names_line(ChunkRules.load, root / "mutant.grammar", mutant)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_genspec_loads_or_names_its_path(root, data):
    save_genspec(default_genspec(), root / "base.json")
    text = (root / "base.json").read_text(encoding="utf-8")
    mutant = data.draw(mutants(text, _spans(text, JSON_SCALARS)), label="mutant")
    path = root / "mutant.json"
    path.write_text(mutant, encoding="utf-8")
    try:
        load_genspec(path)
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(path))}(:\d+)?: ", str(exc)), str(exc)


# a file kind -> how natlog writes its unmutated file, its scalars' pattern,
# its loader and the subcommands that read it
CLI_FILES = {
    "dataset": ("data.jsonl", JSON_SCALARS, load_dataset, ("train", "eval", "oracle")),
    "checkpoint": ("policy.ckpt", HEX_WEIGHTS, load_checkpoint, ("eval", "prove")),
    "lexicon": ("kb.lex", WORDS, Lexicon.load, ("prove", "eval", "train")),
    "grammar": ("rules.grammar", WORDS, ChunkRules.load, ("prove", "eval", "train", "oracle")),
    "config": ("train.cfg", r"= (\S+)$", load_train_config, ("train",)),
}


@pytest.fixture(scope="module")
def cli_files(root):
    """Each kind of file the command line reads, as natlog writes it; the
    dataset holds four examples, and the config trains 12 epochs on them."""
    base = root / "cli"
    base.mkdir()
    paths = {kind: base / name for kind, (name, *_) in CLI_FILES.items()}
    examples = [
        Example("some dogs run", "some animals run", NLILabel.ENTAILMENT),
        Example("no animals run", "no dogs run", NLILabel.ENTAILMENT),
        Example("all dogs run", "all dogs sleep", NLILabel.CONTRADICTION),
        dataclasses.replace(
            Example("the kid runs", "the child runs", NLILabel.ENTAILMENT),
            gold_program=None,
        ),
    ]
    save_dataset(examples, paths["dataset"])
    weights = np.random.default_rng(1).normal(size=(N_ACTIONS, N_FEATURES))
    save_checkpoint(PolicyParams(weights), paths["checkpoint"])
    default_lexicon().dump(paths["lexicon"])
    default_rules().dump(paths["grammar"])
    paths["config"].write_text(CONFIG_TEXT, encoding="utf-8")
    return paths


def cli_argv(command, paths, out):
    """``natlog command`` on the files ``paths``; ``train`` writes ``out``."""
    argv = [command, "--grammar", str(paths["grammar"])]
    if command != "oracle":
        argv += ["--lexicon", str(paths["lexicon"])]
    data, checkpoint = str(paths["dataset"]), str(paths["checkpoint"])
    if command == "train":
        return argv + ["--config", str(paths["config"]), "--data", data, "--checkpoint", out]
    if command == "eval":
        return argv + ["--checkpoint", checkpoint, "--data", data]
    if command == "prove":
        return argv + ["--checkpoint", checkpoint, "some dogs run", "some animals run"]
    return argv + ["--data", data]


@pytest.mark.parametrize("kind", sorted(CLI_FILES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_on_a_mutated_file_runs_or_names_it(root, cli_files, kind, data):
    name, pattern, load, commands = CLI_FILES[kind]
    text = cli_files[kind].read_text(encoding="utf-8")
    mutant = data.draw(mutants(text, _spans(text, pattern)), label="mutant")
    command = data.draw(st.sampled_from(commands), label="command")
    path = root / f"mutant-{name}"
    path.write_text(mutant, encoding="utf-8")
    try:
        load(path)
        rejected = False
    except ValueError:
        rejected = True
    paths = {**cli_files, kind: path}
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(cli_argv(command, paths, str(root / "trained.ckpt")))
    if code == 0:
        assert not rejected
        return
    assert code == 2
    record = json.loads(stderr.getvalue())
    assert record["error"] == "ValueError", record
    if rejected:
        assert str(path) in record["message"], record
