"""Tests for dataset records: the ``Example`` constructor, the name code
tables, malformed-line messages and the bytes ``natlog gen`` writes."""

import dataclasses
import hashlib
import inspect
import json

import pytest

from natlog import data
from natlog.cli import main
from natlog.data import Example, dumps, load_dataset, save_dataset
from natlog.datagen import default_genspec, save_genspec
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
    def test_names_are_enum_values(self):
        assert data._LABEL_NAMES == tuple(label.value for label in LABELS)
        assert data._ACTION_NAMES == tuple(a.value for a in ACTIONS)
        assert data._RELATION_NAMES == tuple(r.value for r in RELATIONS)
        assert data._LABEL_BY_NAME == {label.value: label for label in NLILabel}
        assert data._RELATION_BY_NAME == {r.value: r for r in Relation}

    def test_action_table_agrees_with_parse(self):
        # every name ``ActionRelation.parse`` accepts, and only those
        for name in {*data._ACTION_NAMES, *data._RELATION_NAMES, "bogus"}:
            try:
                parsed = ActionRelation.parse(name)
            except ValueError:
                assert name not in data._ACTION_BY_NAME
            else:
                assert data._ACTION_BY_NAME[name] is parsed

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
# implementation of ``Example.from_record``.  A string where a list belongs is
# rejected as a whole, and a dict is read by its keys.
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
    ("gold_program", 5, "'int' object is not iterable"),
    ("gold_program", True, "'bool' object is not iterable"),
    ("gold_program", {"a": 1}, "'a' is not a valid ActionRelation"),
    ("gold_states", "bogus", "gold_states must be a list of names, got 'bogus'"),
    ("gold_states", ["x"], "'x' is not a valid Relation"),
    ("gold_states", [["x"]], "['x'] is not a valid Relation"),
    ("gold_states", [{"a": 1}], "{'a': 1} is not a valid Relation"),
    ("gold_states", [5], "5 is not a valid Relation"),
    ("gold_states", [None], "None is not a valid Relation"),
    ("gold_states", 5, "'int' object is not iterable"),
    ("gold_states", {"a": 1}, "'a' is not a valid Relation"),
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
# target state read as absent, a string program or state sequence, and a
# split tag that is not a string
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
