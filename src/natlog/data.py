"""Line-delimited dataset records with a versioned schema header.

Every dataset file starts with a header record naming the schema and
version, followed by one JSON object per example.  Keys are sorted and
separators fixed so identical data serializes to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .chunker import ChunkRules, chunk_pair, chunk_pairs
from .executor import ChunkedPair
from .relations import ActionRelation, NLILabel, Relation

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


@dataclass(frozen=True)
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

    @property
    def target(self) -> NLILabel | Relation:
        if self.target_state is not None:
            return self.target_state
        if self.label is None:
            raise ValueError("example has neither label nor target state")
        return self.label

    def to_record(self) -> dict:
        return {
            "premise": self.premise,
            "hypothesis": self.hypothesis,
            "label": self.label.value if self.label else None,
            "gold_program": (
                [a.value for a in self.gold_program]
                if self.gold_program is not None
                else None
            ),
            "gold_states": (
                [s.value for s in self.gold_states]
                if self.gold_states is not None
                else None
            ),
            "gold_rationale_tokens": (
                list(self.gold_rationale_tokens)
                if self.gold_rationale_tokens is not None
                else None
            ),
            "split_tag": self.split_tag,
            "target_state": (
                self.target_state.value if self.target_state else None
            ),
        }

    @classmethod
    def from_record(cls, record: dict) -> "Example":
        return cls(
            premise=record["premise"],
            hypothesis=record["hypothesis"],
            label=NLILabel(record["label"]) if record.get("label") else None,
            gold_program=(
                tuple(ActionRelation.parse(a) for a in record["gold_program"])
                if record.get("gold_program") is not None
                else None
            ),
            gold_states=(
                tuple(Relation(s) for s in record["gold_states"])
                if record.get("gold_states") is not None
                else None
            ),
            gold_rationale_tokens=(
                tuple(record["gold_rationale_tokens"])
                if record.get("gold_rationale_tokens") is not None
                else None
            ),
            split_tag=record.get("split_tag", "train"),
            target_state=(
                Relation(record["target_state"])
                if record.get("target_state")
                else None
            ),
        )


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


def dumps(obj: dict) -> str:
    """Canonical JSON: sorted keys, fixed separators, one line."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
