"""Tests for dataset records: the ``Example`` constructor, member names,
malformed-line messages, the frame codec against its reference, UTF-8
files and the bytes ``natlog gen`` writes."""

import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import natlog
from natlog._text import read_text
from natlog.chunker import ChunkRules
from natlog.cli import main
from natlog.data import (
    SCHEMA,
    VERSION,
    Example,
    chunk_examples,
    dumps,
    load_dataset,
    save_dataset,
    write_records,
)
from natlog.datagen import default_genspec, load_genspec, save_genspec
from natlog.knowledge import Lexicon
from natlog.policy import load_checkpoint
from natlog.trainer import load_train_config
from natlog.relations import (
    ACTIONS,
    LABELS,
    RELATIONS,
    ActionRelation,
    NLILabel,
    Relation,
)

A_EQ = ActionRelation.EQUIVALENCE
A_FE = ActionRelation.FORWARD_ENTAILMENT
R_EQ = Relation.EQUIVALENCE
R_FE = Relation.FORWARD_ENTAILMENT


class TestExampleConstructor:
    def test_keeps_frozen_dataclass_semantics(self):
        """The hand-written ``__init__`` takes the fields with their
        defaults and keeps frozen-dataclass equality, hashing, ``repr``,
        ``replace`` and assignment errors."""
        fields = dataclasses.fields(Example)
        params = list(inspect.signature(Example.__init__).parameters.values())[1:]
        empty = {dataclasses.MISSING: inspect.Parameter.empty}
        assert [(p.name, p.kind, p.default) for p in params] == [
            (
                f.name,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                empty.get(f.default, f.default),
            )
            for f in fields
        ]
        values = {
            "premise": "every dog runs",
            "hypothesis": "every animal runs",
            "label": NLILabel.ENTAILMENT,
            "gold_program": (A_EQ, A_FE, A_EQ),
            "gold_states": (R_EQ, R_FE, R_FE),
            "gold_rationale_tokens": (1,),
            "split_tag": "test",
            "target_state": R_FE,
        }
        example = Example(**values)
        assert vars(example) == values
        for again in (
            Example(*values.values()),
            Example(**values),
            dataclasses.replace(example),
        ):
            assert type(again) is Example and vars(again) == values
            assert again == example and hash(again) == hash(example)
            assert repr(again) == repr(example)
        assert repr(example) == (
            "Example(premise='every dog runs', hypothesis='every animal runs', "
            "label=<NLILabel.ENTAILMENT: 'entailment'>, "
            f"gold_program=({A_EQ!r}, {A_FE!r}, {A_EQ!r}), "
            f"gold_states=({R_EQ!r}, {R_FE!r}, {R_FE!r}), "
            "gold_rationale_tokens=(1,), split_tag='test', "
            f"target_state={R_FE!r})"
        )
        relabelled = dataclasses.replace(example, label=NLILabel.NEUTRAL)
        assert relabelled != example and relabelled.label is NLILabel.NEUTRAL
        for f in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(example, f.name, values[f.name])
        assert vars(example) == values

    def test_defaults(self):
        example = Example("a dog runs", "a dog runs")
        assert vars(example) == {
            f.name: f.default for f in dataclasses.fields(Example)
        } | {"premise": "a dog runs", "hypothesis": "a dog runs"}
        assert example == Example(premise="a dog runs", hypothesis="a dog runs")


class TestCodeTables:
    """A record holds each member's ``value`` and reads it back."""

    def test_every_member_round_trips(self):
        for label in LABELS:
            for target in (None, *RELATIONS):
                example = Example(
                    "p",
                    "h",
                    label,
                    ACTIONS,
                    RELATIONS,
                    (0, 2),
                    "train",
                    target,
                )
                record = example.to_record()
                assert record["label"] == label.value
                assert record["gold_program"] == [a.value for a in ACTIONS]
                assert record["gold_states"] == [r.value for r in RELATIONS]
                assert record["target_state"] == (target and target.value)
                assert Example.from_record(json.loads(dumps(record))) == example

    def test_relation_spellings_of_neg_alt_load(self):
        record = {
            "premise": "p",
            "hypothesis": "h",
            "gold_program": ["negation", "alternation", "neg_alt"],
        }
        example = Example.from_record(record)
        assert example.gold_program == (ActionRelation.NEG_ALT,) * 3
        assert example.to_record()["gold_program"] == ["neg_alt"] * 3

    def test_dumps_is_canonical_json(self):
        record = {
            "z": [1.5, float("nan"), -0.0, 1e300],
            "a": {"é": "∑", "b": None, "a": True},
            "m": "line\nbreak \"quoted\"",
        }
        assert dumps(record) == json.dumps(
            record, sort_keys=True, separators=(",", ":")
        )


def _one_line_dataset(tmp_path, line: str):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema":"natlog.dataset","version":1}\n' + line + "\n")
    return path


_VALID = {
    "premise": "every dog runs",
    "hypothesis": "every animal runs",
    "label": "entailment",
    "gold_program": ["equivalence", "forward_entailment", "equivalence"],
    "gold_states": ["equivalence", "forward_entailment", "forward_entailment"],
    "gold_rationale_tokens": [1],
    "split_tag": "train",
    "target_state": None,
}

# (field, value, message after "path:2: "), recorded from the enum-constructor
# implementation of ``Example.from_record``.  Any value but a list where a
# list of names belongs is rejected as a whole: a string, a number or an
# object, which was once read by its keys.
MALFORMED_FIELDS = [
    ("label", "bogus", "'bogus' is not a valid NLILabel"),
    ("label", ["x"], "['x'] is not a valid NLILabel"),
    ("label", {"a": 1}, "{'a': 1} is not a valid NLILabel"),
    ("label", 5, "5 is not a valid NLILabel"),
    ("label", True, "True is not a valid NLILabel"),
    ("gold_program", "bogus", "gold_program must be a list of names, got 'bogus'"),
    ("gold_program", "negation", "gold_program must be a list of names, got 'negation'"),
    ("gold_program", ["x"], "'x' is not a valid ActionRelation"),
    ("gold_program", ["equivalence", "cover"], "'cover' is not a valid ActionRelation"),
    ("gold_program", [["x"]], "['x'] is not a valid ActionRelation"),
    ("gold_program", [{"a": 1}], "{'a': 1} is not a valid ActionRelation"),
    ("gold_program", [5], "5 is not a valid ActionRelation"),
    ("gold_program", [None], "None is not a valid ActionRelation"),
    ("gold_program", 5, "gold_program must be a list of names, got 5"),
    ("gold_program", True, "gold_program must be a list of names, got True"),
    ("gold_program", {"a": 1}, "gold_program must be a list of names, got {'a': 1}"),
    ("gold_states", "bogus", "gold_states must be a list of names, got 'bogus'"),
    ("gold_states", ["x"], "'x' is not a valid Relation"),
    ("gold_states", [["x"]], "['x'] is not a valid Relation"),
    ("gold_states", [{"a": 1}], "{'a': 1} is not a valid Relation"),
    ("gold_states", [5], "5 is not a valid Relation"),
    ("gold_states", [None], "None is not a valid Relation"),
    ("gold_states", 5, "gold_states must be a list of names, got 5"),
    ("gold_states", {"a": 1}, "gold_states must be a list of names, got {'a': 1}"),
    ("target_state", "bogus", "'bogus' is not a valid Relation"),
    ("target_state", ["x"], "['x'] is not a valid Relation"),
    ("target_state", {"a": 1}, "{'a': 1} is not a valid Relation"),
    ("target_state", 5, "5 is not a valid Relation"),
    ("target_state", True, "True is not a valid Relation"),
    ("gold_rationale_tokens", 5, "'int' object is not iterable"),
]

# whole lines: a non-object record, and several bad fields, where the first
# field in ``Example`` order is named
MALFORMED_LINES = [
    ("[1, 2]", "list indices must be integers or slices, not str"),
    ("5", "'int' object is not subscriptable"),
    ("null", "'NoneType' object is not subscriptable"),
    ('{"hypothesis": "b", "label": "bogus"}', "missing key 'premise'"),
    (
        '{"premise": "a", "hypothesis": "b", "label": "bogus", "gold_program": ["x"]}',
        "'bogus' is not a valid NLILabel",
    ),
    (
        '{"premise": "a", "hypothesis": "b", "gold_program": ["x"], "gold_states": ["y"]}',
        "'x' is not a valid ActionRelation",
    ),
    (
        '{"premise": "a", "hypothesis": "b", "gold_states": ["y"], '
        '"gold_rationale_tokens": 5, "target_state": "z"}',
        "'y' is not a valid Relation",
    ),
    (
        '{"premise": "a", "hypothesis": "b", "gold_rationale_tokens": 5, '
        '"target_state": "z"}',
        "'int' object is not iterable",
    ),
]


class TestMalformedLines:
    @pytest.mark.parametrize("key, value, message", MALFORMED_FIELDS)
    def test_bad_field_named_by_enum_message(self, tmp_path, key, value, message):
        path = _one_line_dataset(tmp_path, json.dumps(_VALID | {key: value}))
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("line, message", MALFORMED_LINES)
    def test_bad_line_named_by_first_error(self, tmp_path, line, message):
        path = _one_line_dataset(tmp_path, line)
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}:2: {message}"


# values that used to load without an error: a sentence that is not a
# string, rationale tokens that are not a list of ints, a falsy label or
# target state read as absent, a string program or state sequence, an
# object read by its keys as one, and a split tag that is not a string
REJECTED_FIELDS = [
    ("premise", None, "premise must be a string, got None"),
    ("premise", 5, "premise must be a string, got 5"),
    ("premise", ["every", "dog"], "premise must be a string, got ['every', 'dog']"),
    ("hypothesis", None, "hypothesis must be a string, got None"),
    ("hypothesis", 5.0, "hypothesis must be a string, got 5.0"),
    ("gold_rationale_tokens", "ab", "gold_rationale_tokens must be a list of ints, got 'ab'"),
    ("gold_rationale_tokens", "", "gold_rationale_tokens must be a list of ints, got ''"),
    ("gold_rationale_tokens", {"a": 1}, "gold_rationale_tokens must be a list of ints, got {'a': 1}"),
    ("gold_rationale_tokens", [True], "gold_rationale_tokens must be a list of ints, got [True]"),
    ("gold_rationale_tokens", [1, False], "gold_rationale_tokens must be a list of ints, got [1, False]"),
    ("gold_rationale_tokens", [1.0], "gold_rationale_tokens must be a list of ints, got [1.0]"),
    ("gold_rationale_tokens", ["1"], "gold_rationale_tokens must be a list of ints, got ['1']"),
    ("label", "", "'' is not a valid NLILabel"),
    ("label", 0, "0 is not a valid NLILabel"),
    ("label", False, "False is not a valid NLILabel"),
    ("label", [], "[] is not a valid NLILabel"),
    ("label", {}, "{} is not a valid NLILabel"),
    ("target_state", "", "'' is not a valid Relation"),
    ("target_state", 0, "0 is not a valid Relation"),
    ("target_state", [], "[] is not a valid Relation"),
    ("target_state", {}, "{} is not a valid Relation"),
    ("gold_program", "", "gold_program must be a list of names, got ''"),
    ("gold_states", "", "gold_states must be a list of names, got ''"),
    ("gold_states", "negation", "gold_states must be a list of names, got 'negation'"),
    ("gold_program", {}, "gold_program must be a list of names, got {}"),
    ("gold_program", {"equivalence": 1, "reverse_entailment": 2},
     "gold_program must be a list of names, "
     "got {'equivalence': 1, 'reverse_entailment': 2}"),
    ("gold_states", {}, "gold_states must be a list of names, got {}"),
    ("gold_states", {"forward_entailment": 0},
     "gold_states must be a list of names, got {'forward_entailment': 0}"),
    ("split_tag", 5, "split_tag must be a string, got 5"),
    ("split_tag", None, "split_tag must be a string, got None"),
    ("split_tag", ["test"], "split_tag must be a string, got ['test']"),
]


class TestRejectedValues:
    @pytest.mark.parametrize(
        "key, value, message", REJECTED_FIELDS, ids=lambda v: repr(v)
    )
    def test_named_as_path_line(self, tmp_path, key, value, message):
        path = _one_line_dataset(tmp_path, json.dumps(_VALID | {key: value}))
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}:2: {message}"

    def test_first_bad_field_in_example_order_is_named(self, tmp_path):
        record = _VALID | {"hypothesis": 5, "label": "", "gold_rationale_tokens": "ab"}
        path = _one_line_dataset(tmp_path, json.dumps(record))
        with pytest.raises(ValueError, match=r":2: hypothesis must be a string"):
            load_dataset(path)
        record = _VALID | {"label": None, "gold_states": "ab", "target_state": ""}
        path = _one_line_dataset(tmp_path, json.dumps(record))
        with pytest.raises(ValueError, match=r":2: gold_states must be a list"):
            load_dataset(path)

    @pytest.mark.parametrize("key", ["label", "target_state", "gold_program",
                                     "gold_states", "gold_rationale_tokens"])
    def test_null_or_absent_field_is_none(self, tmp_path, key):
        record = _VALID | {key: None}
        example = Example.from_record(record)
        assert getattr(example, key) is None
        del record[key]
        assert Example.from_record(record) == example

    def test_valid_values_load_as_before(self):
        record = _VALID | {"gold_rationale_tokens": [], "target_state": "reverse_entailment"}
        example = Example.from_record(record)
        assert example.gold_rationale_tokens == ()
        assert example.target_state is Relation.REVERSE_ENTAILMENT
        assert example.to_record() == record
        assert Example.from_record(_VALID).to_record() == _VALID
        untagged = {k: v for k, v in _VALID.items() if k != "split_tag"}
        assert Example.from_record(untagged).split_tag == "train"


# JSON texts a mutant puts in place of a record's field or of one element of
# a list field
_MUTANT_VALUES = [
    "NaN", "1e309", "-1", str(2**64), "null", "[]", "{}", '"\\u0000"', "true", "1.5"
]


@pytest.fixture(scope="module")
def mutation_base(tmp_path_factory):
    """A directory for mutants, and the lines of a ``save_dataset`` file of
    compositional, two-hop and target-state examples."""
    rules, spec = natlog.default_rules(), default_genspec()
    train = natlog.generate(spec, rules)[0][:4]
    augmented = natlog.trainer.relation_augmentation(
        train, chunk_examples(train, rules), natlog.default_lexicon()
    )[0]
    examples = [*augmented, *natlog.generate_2hop(spec, rules)[:4]]
    assert {ex.target_state is not None for ex in examples} == {False, True}
    root = tmp_path_factory.mktemp("mutants")
    save_dataset(examples, root / "base.jsonl")
    return root, read_text(root / "base.jsonl").splitlines()


def _joined(texts: dict[str, str]) -> str:
    """A canonical line from its fields' JSON texts."""
    return "{" + ",".join(f"{json.dumps(k)}:{texts[k]}" for k in sorted(texts)) + "}"


class TestMutatedDataset:
    """A dataset file that ``save_dataset`` wrote, with one field of one
    record replaced, either fails to load with a ``ValueError`` that names
    the mutated line, or loads and writes every record back as parsed JSON
    equal to what it read."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutant_named_or_written_back(self, mutation_base, data):
        root, lines = mutation_base
        lineno = data.draw(st.integers(2, len(lines)), label="line")
        record = json.loads(lines[lineno - 1])
        texts = {k: dumps(v) for k, v in record.items()}
        assert _joined(texts) == lines[lineno - 1]
        key = data.draw(st.sampled_from(sorted(record)), label="field")
        value, text = record[key], texts[key]
        mutants = [*_MUTANT_VALUES, f"[{text}]", f'{{"k":{text}}}']
        if isinstance(value, list) and value:
            # one element replaced, or the list as an object keyed by them
            at = data.draw(st.integers(0, len(value) - 1), label="element")
            elements = [dumps(element) for element in value]
            mutants += [
                "[" + ",".join(elements[:at] + [new] + elements[at + 1 :]) + "]"
                for new in _MUTANT_VALUES
            ]
            mutants.append(dumps({str(element): i for i, element in enumerate(value)}))
        texts[key] = data.draw(st.sampled_from(mutants), label="mutant")
        mutant = [*lines[: lineno - 1], _joined(texts), *lines[lineno:]]
        path, out = root / "mutant.jsonl", root / "written.jsonl"
        path.write_text("\n".join(mutant) + "\n", "utf-8")
        try:
            examples = load_dataset(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:{lineno}: ")
            return
        save_dataset(examples, out)
        written = read_text(out).splitlines()
        assert [json.loads(line) for line in written] == [
            json.loads(line) for line in mutant
        ]


# sha256 of the files ``natlog gen --two-hop`` writes with the default spec,
# and of test.jsonl with the default spec and noisy_test on
PINNED_DIGESTS = {
    "default/train.jsonl": "a7b45fab0caceea06a3e2f9fd9ef90a00e691ead99e615671f9fd25ca3d3668e",
    "default/test.jsonl": "3457a81d8fb205cfc16df673223d3c89abc0ca6a0f60187058feb6ec7a4beb47",
    "default/twohop.jsonl": "d555967f12c9d8d3b181d91ee3bba68eced49af9a9fb27695b35ca26f4113065",
    "noisy/test.jsonl": "13dc0f7fbf308c4bb1cc0bb9cc4aabc99d1a3e820a4c84d93faa3cab160e0109",
}


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    root = tmp_path_factory.mktemp("gen")
    assert main(["gen", "--two-hop", "--out", str(root / "default")]) == 0
    save_genspec(
        dataclasses.replace(default_genspec(), noisy_test=True), root / "noisy.json"
    )
    argv = ["gen", "--config", str(root / "noisy.json"), "--out", str(root / "noisy")]
    assert main(argv) == 0
    return root


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_gen_writes_pinned_bytes(self, generated, name):
        digest = hashlib.sha256((generated / name).read_bytes()).hexdigest()
        assert digest == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_load_then_save_rewrites_each_byte(self, generated, name, tmp_path):
        path = generated / name
        save_dataset(load_dataset(path), tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


# -- the frame codec against its reference ----------------------------------


def _reference_save(examples, path):
    """``save_dataset`` before frames: every line ``dumps(ex.to_record())``."""
    write_records(path, SCHEMA, VERSION, (ex.to_record() for ex in examples))


def _reference_line(path, lineno, line, build):
    try:
        return build(json.loads(line))
    except KeyError as exc:
        raise ValueError(f"{path}:{lineno}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def _reference_load(path):
    """``load_dataset`` before frames: every line through ``json.loads`` and
    ``Example.from_record``, on the UTF-8 text split at ``\\n``."""
    text = read_text(path).replace("\r\n", "\n")
    if not text:
        raise ValueError(f"{path}:1: empty dataset file")
    lines = text.split("\n")
    header = _reference_line(path, 1, lines[0], dict)
    if header.get("schema") != SCHEMA:
        raise ValueError(f"{path}:1: expected schema {SCHEMA!r}, got {header!r}")
    if header.get("version") != VERSION:
        raise ValueError(f"{path}:1: unsupported version {header.get('version')}")
    return [
        _reference_line(path, lineno, line, Example.from_record)
        for lineno, line in enumerate(lines[1:], start=2)
        if line
    ]


def _outcome(call, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", call(*args)
    except Exception as exc:  # compared, not handled
        return "raised", type(exc), str(exc)


def _saved(save, examples, path):
    """The bytes ``save`` writes, or what it raises and whether it wrote."""
    path.unlink(missing_ok=True)
    outcome = _outcome(save, examples, path)
    return outcome[0] == "raised" and outcome, path.exists() and path.read_bytes()


# sentences with quotes, backslashes, control characters, non-ASCII text,
# line separators and lone surrogates
_TEXT = st.text(
    st.one_of(
        st.sampled_from('ab "\\/\x00\x1f\x7f\x85 é∑𐏿'),
        st.characters(),
    ),
    max_size=6,
)
# ints, and values equal to one that encode differently or not at all
_TOKEN = st.sampled_from([0, 1, 2, True, False, 1.0, np.int64(1)])


def _sequence(elements):
    """None, a tuple, or a list where a tuple belongs."""
    items = st.lists(elements, max_size=3)
    return st.one_of(st.none(), items.map(tuple), items)


_ANNOTATION = st.tuples(
    st.sampled_from([None, *NLILabel, 0, "entailment"]),
    _sequence(st.sampled_from(ACTIONS)),
    _sequence(st.sampled_from(RELATIONS)),
    _sequence(_TOKEN),
    st.sampled_from(["train", "test", 'q"\\', "é"]),
    st.sampled_from([None, *RELATIONS]),
)
# mostly strings; now and then a value that is not one
_SENTENCE = st.one_of(_TEXT, _TEXT, _TEXT, st.sampled_from([5, None, ["a"]]))


@pytest.fixture(scope="module")
def codec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


class TestFrameWriter:
    @settings(max_examples=300, deadline=None)
    @given(
        pool=st.lists(_ANNOTATION, min_size=1, max_size=4),
        picks=st.lists(st.tuples(st.integers(0, 3), _SENTENCE, _SENTENCE), max_size=24),
    )
    def test_writes_reference_bytes(self, codec_dir, pool, picks):
        """Every line is ``dumps(ex.to_record())``, or the call raises what
        the reference raises and writes nothing."""
        examples = [Example(p, h, *pool[i % len(pool)]) for i, p, h in picks]
        assert _saved(save_dataset, examples, codec_dir / "new.jsonl") == _saved(
            _reference_save, examples, codec_dir / "ref.jsonl"
        )

    @pytest.mark.parametrize("first", [(1,), (True,), (1.0,), (np.int64(1),)])
    @pytest.mark.parametrize("other", [(1,), (True,), (1.0,), (np.int64(1),)])
    def test_equal_tokens_keep_their_own_encoding(self, tmp_path, first, other):
        """``(1,)``, ``(True,)``, ``(1.0,)`` and ``(np.int64(1),)`` are equal
        annotation fields but not one frame."""
        assert first == other and hash(first) == hash(other)
        examples = [
            Example(f"p{i}", f"h{i}", NLILabel.ENTAILMENT, (A_EQ,), (R_EQ,), tokens)
            for i, tokens in enumerate([first, first, other, other, first])
        ]
        assert _saved(save_dataset, examples, tmp_path / "new.jsonl") == _saved(
            _reference_save, examples, tmp_path / "ref.jsonl"
        )

    def test_fields_load_dataset_never_gives(self, tmp_path):
        """A list where a tuple belongs, a sentence that is not a string and
        a subclass with its own ``to_record`` are written as ``to_record``
        gives them, around learned frames."""

        class Extra(Example):
            def to_record(self):
                return super().to_record() | {"extra": 1}

        annotation = (NLILabel.NEUTRAL, (A_EQ, A_FE), (R_EQ, R_FE), (1,), "train", None)
        listed = (NLILabel.NEUTRAL, [A_EQ, A_FE], [R_EQ, R_FE], [1], "train", None)
        examples = [
            Example("a dog", "a dog", *annotation),
            Example("a cat", "an animal", *annotation),
            Example("a dog", "an animal", *listed),
            Example(5, "an animal", *annotation),
            Example("a dog", None, *annotation),
            Example("a \"dog\"\\", "é\ud800", *annotation),
            Extra("a cat", "a cat", *annotation),
        ]
        new = _saved(save_dataset, examples, tmp_path / "new.jsonl")
        assert new == _saved(_reference_save, examples, tmp_path / "ref.jsonl")
        assert b'"premise":5' in new[1] and b'"hypothesis":null' in new[1]
        assert b'"extra":1' in new[1]
        # an object that is not an Example fails as ``to_record`` makes it
        for stranger in ({"premise": "a dog"}, ("a dog", "a dog")):
            failing = [*examples, stranger]
            failed = _saved(save_dataset, failing, tmp_path / "new.jsonl")
            assert failed == _saved(_reference_save, failing, tmp_path / "ref.jsonl")
            assert failed[0][1] is AttributeError and "to_record" in failed[0][2]


def _variants(record: dict) -> dict[str, str]:
    """Lines of one record: the canonical one and lines that are not."""
    line = dumps(record)
    return {
        "canonical": line,
        "key order": json.dumps(record, separators=(",", ":")),
        "spaces": json.dumps(record, sort_keys=True),
        "raw text": json.dumps(
            record, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        ),
        "escape": line.replace('"hypothesis":"', '"hypothesis":"\\u0041', 1),
        "duplicate key first": '{"hypothesis":"x",' + line[1:],
        "duplicate key last": line[:-1] + ',"hypothesis":"y"}',
        "nested hypothesis": '{"a":{"b":1,"hypothesis":"z"},' + line[1:],
        "negation": line.replace('"neg_alt"', '"negation"'),
        "trailing space": line + " ",
        "trailing tab": line + "\t",
        "crlf": line + "\r",
    }


_VARIANT_NAMES = list(_variants(Example("p", "h").to_record()))
# annotations load_dataset gives
_LOADED = st.tuples(
    st.sampled_from([None, *NLILabel]),
    st.one_of(st.none(), st.lists(st.sampled_from(ACTIONS), max_size=3).map(tuple)),
    st.one_of(st.none(), st.lists(st.sampled_from(RELATIONS), max_size=3).map(tuple)),
    st.one_of(st.none(), st.lists(st.integers(0, 300), max_size=3).map(tuple)),
    st.sampled_from(["train", "test", 'q"\\']),
    st.sampled_from([None, *RELATIONS]),
)


@st.composite
def _dataset_lines(draw):
    """Lines of a dataset body: canonical lines and their repeats among
    lines that are not canonical, and at most one malformed line."""
    pool = draw(st.lists(_LOADED, min_size=1, max_size=3))
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        annotation = pool[draw(st.integers(0, len(pool) - 1))]
        example = Example(draw(_TEXT), draw(_TEXT), *annotation)
        if lines and draw(st.integers(0, 4)) == 0:
            lines.append(lines[draw(st.integers(0, len(lines) - 1))])
            continue
        name = draw(st.sampled_from(["canonical"] * 8 + _VARIANT_NAMES))
        lines.append(_variants(example.to_record())[name])
    if lines and draw(st.booleans()):
        at = draw(st.integers(0, len(lines) - 1))
        line = lines[at]
        lines[at] = draw(
            st.one_of(
                st.integers(0, max(len(line) - 1, 0)).map(lambda k: line[:k]),
                st.sampled_from(["[1, 2]", "5", "null", "{}", "{"]),
            )
        )
    return lines


class TestFrameReader:
    @settings(max_examples=300, deadline=None)
    @given(lines=_dataset_lines())
    def test_reads_reference_examples(self, codec_dir, lines):
        """``load_dataset`` returns what the reference loader returns, field
        types included, or raises its ``path:line`` message."""
        path = codec_dir / "lines.jsonl"
        header = dumps({"schema": SCHEMA, "version": VERSION})
        body = "\n".join([header, *lines]) + "\n"
        # a lone surrogate in raw text makes the file undecodable
        path.write_bytes(body.encode("utf-8", "surrogatepass"))
        new, ref = _outcome(load_dataset, path), _outcome(_reference_load, path)
        assert new == ref
        assert repr(new) == repr(ref)

    def test_learned_frame_reads_every_repeat(self, tmp_path, monkeypatch):
        """Once a frame recurs on a canonical line, its lines skip
        ``from_record``: the first line sees the frame, the second learns
        it, and the rest are read from their strings."""
        examples = [
            Example(f"p{i}", f"h{i}", NLILabel.ENTAILMENT, (A_FE,), (R_FE,), (0,))
            for i in range(10)
        ]
        save_dataset(examples, tmp_path / "d.jsonl")
        calls = _count_from_record(monkeypatch)
        assert load_dataset(tmp_path / "d.jsonl") == examples
        assert len(calls) == 2

    def test_annotations_that_never_repeat(self, tmp_path, monkeypatch):
        """A file where every example has its own annotation saves the
        reference bytes and loads the reference examples, every line a
        first sighting read by ``from_record``."""
        examples = [
            Example(
                f"p{i}",
                f'h "{i}"',
                LABELS[i % 3],
                ACTIONS[: i % 4 + 1],
                RELATIONS[i % 3 :][:2],
                tuple(range(i % 3, i + 1)),
                ("train", "test")[i % 2],
                RELATIONS[i % 7] if i % 4 else None,
            )
            for i in range(60)
        ]
        assert len({ex.gold_rationale_tokens for ex in examples}) == len(examples)
        new, ref = tmp_path / "new.jsonl", tmp_path / "ref.jsonl"
        save_dataset(examples, new)
        _reference_save(examples, ref)
        assert new.read_bytes() == ref.read_bytes()
        calls = _count_from_record(monkeypatch)
        loaded = load_dataset(new)
        assert len(calls) == len(examples)
        assert loaded == _reference_load(ref) == examples
        assert repr(loaded) == repr(examples)


def _count_from_record(monkeypatch) -> list:
    """The records ``Example.from_record`` is called with from now on."""
    calls = []
    from_record = Example.from_record.__func__
    monkeypatch.setattr(
        Example,
        "from_record",
        classmethod(lambda cls, r: calls.append(r) or from_record(cls, r)),
    )
    return calls


# -- UTF-8 files ---------------------------------------------------------------

C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def _in_c_locale(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter under the C locale."""
    package_root = Path(natlog.__file__).resolve().parents[1]
    env = dict(os.environ, **C_LOCALE)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120,
    )


def _c_locale_encoding() -> str:
    result = _in_c_locale("import locale; print(locale.getpreferredencoding(False))")
    return result.stdout.strip()


READERS = {
    "load_dataset": load_dataset,
    "load_checkpoint": load_checkpoint,
    "Lexicon.load": Lexicon.load,
    "ChunkRules.load": ChunkRules.load,
    "load_train_config": load_train_config,
    "load_genspec": load_genspec,
}


class TestUtf8Files:
    @pytest.mark.parametrize("reader", READERS)
    def test_undecodable_byte_is_named_as_path_line(self, tmp_path, reader):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"# fine\nthen \xff here\n")
        with pytest.raises(ValueError) as info:
            READERS[reader](path)
        assert str(info.value) == (
            f"{path}:2: not UTF-8: byte 0xff, invalid start byte"
        )

    def test_lines_split_at_newline_only(self, tmp_path):
        """U+0085, U+2028 and U+2029 inside a string stay in their line,
        and a line may end in ``\\r\\n``."""
        example = Example("a\x85b c", "d e", NLILabel.NEUTRAL)
        raw = json.dumps(
            example.to_record(), sort_keys=True, separators=(",", ":"),
            ensure_ascii=False,
        )
        header = dumps({"schema": SCHEMA, "version": VERSION})
        path = tmp_path / "raw.jsonl"
        path.write_bytes(f"{header}\r\n{raw}\n{raw}\r\n".encode("utf-8"))
        assert load_dataset(path) == [example, example]

    def test_files_are_utf8_under_the_c_locale(self, tmp_path):
        """A word outside ASCII is written as UTF-8 and read back whatever
        the locale says."""
        encoding = _c_locale_encoding()
        if encoding.lower().replace("-", "") == "utf8":
            pytest.skip("the C locale reports UTF-8 here")
        lexicon, rules = tmp_path / "lexicon.txt", tmp_path / "rules.txt"
        result = _in_c_locale(
            "from natlog import ChunkRules, Lexicon\n"
            "lexicon = Lexicon(synonyms=[('caf\\u00e9', 'coffee')])\n"
            f"lexicon.dump({str(lexicon)!r})\n"
            f"loaded = Lexicon.load({str(lexicon)!r})\n"
            "assert loaded.synonymous('caf\\u00e9', 'coffee')\n"
            "rules = ChunkRules(extra={'drinks': frozenset({'caf\\u00e9'})})\n"
            f"rules.dump({str(rules)!r})\n"
            f"assert ChunkRules.load({str(rules)!r}) == rules\n"
        )
        assert result.returncode == 0, result.stderr
        assert lexicon.read_bytes() == "syn café coffee\n".encode("utf-8")
        assert "drinks: café\n".encode("utf-8") in rules.read_bytes()
        assert Lexicon.load(lexicon).synonymous("café", "coffee")
