"""Line-delimited dataset records with a versioned schema header.

Every dataset file starts with a header record naming the schema and
version, followed by one JSON object per example.  Keys are sorted and
separators fixed so identical data serializes to identical bytes; one
module-level encoder writes every record.

``Example`` is a frozen dataclass built in one step: its hand-written
``__init__`` stores the fields straight into the instance ``__dict__``,
the idiom of ``executor.Chunk``.  Equality, hashing, ``repr``,
``dataclasses.replace`` and the ``FrozenInstanceError`` on assignment
stay the generated ones.

Relation, label and action names go through code tables: a record reads
a member's name from a tuple indexed by its ``code`` and resolves a name
with one dict lookup, instead of an ``Enum`` value lookup either way.  A
name the table misses, or an unhashable one, falls back to the enum
constructor (``ActionRelation.parse`` for actions), so a malformed line
is rejected with the enum's own message, e.g. ``path:2: ['x'] is not a
valid NLILabel``, where a bare dict lookup would say ``unhashable type``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .chunker import ChunkRules, chunk_pair, chunk_pairs
from .executor import ChunkedPair
from .relations import (
    ACTIONS,
    LABELS,
    RELATIONS,
    ActionRelation,
    NLILabel,
    Relation,
)

__all__ = [
    "Example",
    "example_error",
    "require_targets",
    "chunk_examples",
    "dumps",
    "write_records",
    "load_dataset",
    "save_dataset",
    "SCHEMA",
    "VERSION",
]

SCHEMA = "natlog.dataset"
VERSION = 1

# code tables: a member's name by its code, and the member a name stands for
_LABEL_NAMES = tuple(label.value for label in LABELS)
_ACTION_NAMES = tuple(action.value for action in ACTIONS)
_RELATION_NAMES = tuple(relation.value for relation in RELATIONS)
_LABEL_BY_NAME = dict(zip(_LABEL_NAMES, LABELS))
_RELATION_BY_NAME = dict(zip(_RELATION_NAMES, RELATIONS))
_ACTION_BY_NAME = {
    name: ActionRelation.parse(name)
    for name in (*_ACTION_NAMES, "negation", "alternation")
}


@dataclass(frozen=True, init=False)
class Example:
    """One premise/hypothesis pair with optional gold annotations.

    ``gold_states`` holds z_1 .. z_m (the start state is always
    equivalence).  ``gold_rationale_tokens`` are 0-based hypothesis token
    indices.  ``target_state`` replaces the label as the training target
    for direction-augmented samples, which must reach an exact final
    state rather than a label.
    """

    premise: str
    hypothesis: str
    label: Optional[NLILabel] = None
    gold_program: Optional[tuple[ActionRelation, ...]] = None
    gold_states: Optional[tuple[Relation, ...]] = None
    gold_rationale_tokens: Optional[tuple[int, ...]] = None
    split_tag: str = "train"
    target_state: Optional[Relation] = None

    def __init__(
        self,
        premise: str,
        hypothesis: str,
        label: Optional[NLILabel] = None,
        gold_program: Optional[tuple[ActionRelation, ...]] = None,
        gold_states: Optional[tuple[Relation, ...]] = None,
        gold_rationale_tokens: Optional[tuple[int, ...]] = None,
        split_tag: str = "train",
        target_state: Optional[Relation] = None,
    ) -> None:
        fields = self.__dict__
        fields["premise"] = premise
        fields["hypothesis"] = hypothesis
        fields["label"] = label
        fields["gold_program"] = gold_program
        fields["gold_states"] = gold_states
        fields["gold_rationale_tokens"] = gold_rationale_tokens
        fields["split_tag"] = split_tag
        fields["target_state"] = target_state

    @property
    def target(self) -> NLILabel | Relation:
        if self.target_state is not None:
            return self.target_state
        if self.label is None:
            raise ValueError("example has neither label nor target state")
        return self.label

    def to_record(self) -> dict:
        label, program, states = self.label, self.gold_program, self.gold_states
        tokens, target = self.gold_rationale_tokens, self.target_state
        return {
            "premise": self.premise,
            "hypothesis": self.hypothesis,
            "label": _LABEL_NAMES[label.code] if label else None,
            "gold_program": (
                None if program is None else [_ACTION_NAMES[a.code] for a in program]
            ),
            "gold_states": (
                None if states is None else [_RELATION_NAMES[s.code] for s in states]
            ),
            "gold_rationale_tokens": None if tokens is None else list(tokens),
            "split_tag": self.split_tag,
            "target_state": _RELATION_NAMES[target.code] if target else None,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Example":
        """The example a record holds; a malformed value raises ValueError.

        The sentences must be strings, a present label or target state
        a name, the program and states lists of names, the rationale tokens
        a list of ints (not bools), the split tag a string.  A null or
        absent field is None, but an absent split tag is ``"train"``.
        """
        premise, hypothesis = record["premise"], record["hypothesis"]
        if type(premise) is not str:
            raise ValueError(f"premise must be a string, got {premise!r}")
        if type(hypothesis) is not str:
            raise ValueError(f"hypothesis must be a string, got {hypothesis!r}")
        get = record.get
        label, program, states = get("label"), get("gold_program"), get("gold_states")
        tokens, target = get("gold_rationale_tokens"), get("target_state")
        if label is not None:
            label = _member(_LABEL_BY_NAME, NLILabel, label)
        if program is not None:
            if type(program) is str:
                raise _string_error("gold_program", program)
            program = _members(_ACTION_BY_NAME, ActionRelation.parse, program)
        if states is not None:
            if type(states) is str:
                raise _string_error("gold_states", states)
            states = _members(_RELATION_BY_NAME, Relation, states)
        if tokens is not None:
            values = tuple(tokens)  # a non-iterable fails here
            if type(tokens) is not list or not _INT.issuperset(map(type, values)):
                raise ValueError(
                    f"gold_rationale_tokens must be a list of ints, got {tokens!r}"
                )
            tokens = values
        tag = get("split_tag", "train")
        if type(tag) is not str:
            raise ValueError(f"split_tag must be a string, got {tag!r}")
        return cls(
            premise,
            hypothesis,
            label,
            program,
            states,
            tokens,
            tag,
            None if target is None else _member(_RELATION_BY_NAME, Relation, target),
        )


_INT = {int}  # the one element type of a rationale token list


def _string_error(key: str, names: str) -> ValueError:
    """The error for a string where a list of names belongs, which would
    otherwise be read letter by letter."""
    return ValueError(f"{key} must be a list of names, got {names!r}")


def _member(by_name: dict, parse: Callable, name):
    """``by_name[name]``, or on a miss ``parse(name)`` and its error."""
    try:
        return by_name[name]
    except (KeyError, TypeError):
        return parse(name)


def _members(by_name: dict, parse: Callable, names) -> tuple:
    """``_member`` of each name; on a miss ``parse`` names the culprit."""
    try:
        return tuple([by_name[name] for name in names])
    except (KeyError, TypeError):
        return tuple(parse(name) for name in names)


def example_error(index: int, example: Example, exc: Exception) -> ValueError:
    """``exc`` restated to name the example by 0-based index and premise."""
    return ValueError(f"example {index} ({example.premise!r}): {exc}")


def require_targets(examples: Sequence[Example]) -> None:
    """Name the first example without a target with ``example_error``."""
    for index, example in enumerate(examples):
        try:
            example.target  # raises when there is none
        except ValueError as exc:
            raise example_error(index, example, exc) from None


def chunk_examples(
    examples: Sequence[Example], rules: ChunkRules
) -> list[ChunkedPair]:
    """``chunk_pairs`` over the examples' premise/hypothesis pairs.

    When a sentence cannot be chunked, the examples are chunked again one
    at a time to name the first culprit with ``example_error``.
    """
    try:
        return chunk_pairs([(e.premise, e.hypothesis) for e in examples], rules)
    except ValueError:
        for index, example in enumerate(examples):
            try:
                chunk_pair(example.premise, example.hypothesis, rules)
            except ValueError as exc:
                raise example_error(index, example, exc) from None
        raise


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj: dict) -> str:
    """Canonical JSON: sorted keys, fixed separators, one line."""
    return _ENCODER.encode(obj)


def write_records(
    path: str | Path, schema: str, version: int, records: Iterable[dict]
) -> None:
    """Canonical JSON lines behind a ``{"schema", "version"}`` header."""
    lines = [dumps({"schema": schema, "version": version})]
    lines.extend(dumps(record) for record in records)
    Path(path).write_text("\n".join(lines) + "\n")


def save_dataset(examples: Iterable[Example], path: str | Path) -> None:
    write_records(path, SCHEMA, VERSION, (ex.to_record() for ex in examples))


def load_dataset(path: str | Path) -> list[Example]:
    """Examples of a dataset file; a malformed line is named as path:line."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    header = _parse_line(path, 1, lines[0], dict)
    if header.get("schema") != SCHEMA:
        raise ValueError(f"{path}: expected schema {SCHEMA!r}, got {header!r}")
    if header.get("version") != VERSION:
        raise ValueError(f"{path}: unsupported version {header.get('version')}")
    return [
        _parse_line(path, lineno, line, Example.from_record)
        for lineno, line in enumerate(lines[1:], start=2)
        if line
    ]


def _parse_line(path, lineno: int, line: str, build):
    try:
        return build(json.loads(line))
    except KeyError as exc:
        raise ValueError(f"{path}:{lineno}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
