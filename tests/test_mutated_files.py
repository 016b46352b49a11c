"""Line-based files that natlog reads, mutated: each mutant either loads or
raises a ``ValueError`` whose message starts with ``path:line: ``.

The mutations: delete a span, truncate the file, swap two characters,
wrap a scalar in a list, duplicate a line, or replace a scalar with one
of ``MUTANT_SCALARS``.  A checkpoint's scalars are the tokens of its
weight rows; a train config's are the values of its ``key = value``
lines.  Each leg runs 300 hypothesis examples, about a second.  The
dataset leg is ``tests/test_data.py::TestMutatedDataset``.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natlog._text import read_lines
from natlog.policy import (
    N_ACTIONS,
    N_FEATURES,
    PolicyParams,
    load_checkpoint,
    save_checkpoint,
)
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


def assert_loads_or_names_line(load, path, text):
    path.write_text(text, encoding="utf-8")
    try:
        load(path)
    except ValueError as exc:
        named = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
        assert named, str(exc)
        # a line of the file, or the line past its end
        assert 1 <= int(named.group(1)) <= len(read_lines(path)) + 1, str(exc)


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
