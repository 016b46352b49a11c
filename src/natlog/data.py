"""Line-delimited dataset records with a versioned schema header.

Every dataset file starts with a header record naming the schema and
version, followed by one JSON object per example.  Keys are sorted and
separators fixed so identical data serializes to identical bytes; one
module-level encoder writes every record.  Files are UTF-8, and a
dataset splits into lines at ``\\n`` only, so a U+0085 or U+2028 that a
writer with ``ensure_ascii=False`` left inside a string stays in its line.

``Example`` is a frozen dataclass built in one step: its hand-written
``__init__`` stores the fields straight into the instance ``__dict__``,
the idiom of ``executor.Chunk``.  Equality, hashing, ``repr``,
``dataclasses.replace`` and the ``FrozenInstanceError`` on assignment
stay the generated ones.

A dataset holds few distinct annotations (an example's fields but its
two sentences): the compositional train split has 19 among 1896
examples.  So ``save_dataset`` and ``load_dataset`` move a line as a
*frame* and two sentences.  The frame is the line's text with the
``hypothesis`` and ``premise`` JSON strings cut out, ``(head, middle,
tail)``, and a sentence goes into it as
``encode_basestring_ascii(sentence)``, the function ``_ENCODER`` itself
writes a string with.  Nothing is kept between calls, and a first
sighting (an annotation's first example, a frame's first line) takes the
plain path.

* ``save_dataset`` writes an annotation's first example as
  ``dumps(ex.to_record())``.  At the annotation's second example it
  learns the frame, if every field of the first example has the exact
  type ``from_record`` gives it (``_plain``): the first example's line
  with empty sentences, split at its first two ``""``, which are the
  sentences, since a plain record's values before them are names, ints
  and nulls.  From then on an example with an equal annotation, whose
  sentences are strs and tokens ints (``_spliceable``), is written as the
  frame around its two encoded sentences.  That is
  ``dumps(ex.to_record())``: the record differs from the first example's
  in the two sentences only, and equal fields encode alike, since an enum
  member equals only itself and equal strs or ints print alike.  The int
  check keeps ``True``, ``1.0`` or ``np.int64(1)`` out of a frame learned
  from ``1``, and a list field is unhashable, so its example takes the
  first path.
* ``load_dataset`` cuts each line into its frame and two strings, read
  with ``scanstring`` (``_cut``).  A frame is learned when it recurs,
  from a line that writes back to itself
  (``dumps(ex.to_record()) == line``); if that line does not, the frame
  is never learned.  A line in a learned frame is read from its two
  strings, provided the frame around their encodings is the line itself.
  The line is then the canonical line of ``Example(premise, hypothesis,
  *annotation)``, which ``json.loads`` and ``from_record`` would read
  back.  Every other line (a first sighting, a line that is not
  canonical, a malformed one) is read by
  ``Example.from_record(json.loads(line))``, so each error keeps its
  ``path:line`` message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Optional, Sequence

from ._text import read_lines, write_lines
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
            "label": label.value if label else None,
            "gold_program": None if program is None else [a.value for a in program],
            "gold_states": None if states is None else [s.value for s in states],
            "gold_rationale_tokens": None if tokens is None else list(tokens),
            "split_tag": self.split_tag,
            "target_state": target.value if target else None,
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
            label = NLILabel(label)
        if program is not None:
            if type(program) is not list:
                raise _list_error("gold_program", program)
            program = tuple([ActionRelation.parse(name) for name in program])
        if states is not None:
            if type(states) is not list:
                raise _list_error("gold_states", states)
            states = tuple([Relation(name) for name in states])
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
            None if target is None else Relation(target),
        )


_INT = {int}  # the one element type of a rationale token list


def _list_error(key: str, names) -> ValueError:
    """The error for a value other than a list where a list of names
    belongs: a string would otherwise be read letter by letter, and an
    object by its keys."""
    return ValueError(f"{key} must be a list of names, got {names!r}")


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
    write_lines(path, lines)


# the sentences of a record whose line shows its frame (module docstring)
_NO_SENTENCES = {"hypothesis": "", "premise": ""}
# an example's fields but its sentences: its annotation
_annotation = attrgetter(
    "label",
    "gold_program",
    "gold_states",
    "gold_rationale_tokens",
    "split_tag",
    "target_state",
)

# In a canonical line each sentence's JSON string starts at the quote
# that ends one of these keys.
_HYPOTHESIS_KEY = ',"hypothesis":"'
_PREMISE_KEY = ',"premise":"'
_HYPOTHESIS_OFFSET = len(_HYPOTHESIS_KEY) - 1
_PREMISE_OFFSET = len(_PREMISE_KEY) - 1


def _cut(line: str):
    """``(frame, hypothesis, premise)`` of a line, or None when the line
    has no such two strings.

    The sentences are the JSON strings after the first ``,"hypothesis":``
    and the next ``,"premise":``, read with ``scanstring``; the frame
    ``(head, middle, tail)`` is the text around them.  In a line that is
    not canonical they may be other strings; such a frame is never
    learned, and a line is read from its strings only if it is the
    frame's canonical line.
    """
    start = line.find(_HYPOTHESIS_KEY)
    if start < 0:
        return None
    start += _HYPOTHESIS_OFFSET  # the opening quote
    try:
        hypothesis, end = scanstring(line, start + 1)
        premise_start = line.find(_PREMISE_KEY, end)
        if premise_start < 0:
            return None
        premise_start += _PREMISE_OFFSET
        premise, premise_end = scanstring(line, premise_start + 1)
    except ValueError:
        return None
    frame = (line[:start], line[end:premise_start], line[premise_end:])
    return frame, hypothesis, premise


def _splice(frame: tuple[str, str, str], hypothesis: str, premise: str) -> str:
    """The line of a frame and two sentences."""
    head, middle, tail = frame
    encode = encode_basestring_ascii
    return f"{head}{encode(hypothesis)}{middle}{encode(premise)}{tail}"


def _spliceable(ex: Example) -> bool:
    """Whether ``ex``, its annotation equal to a ``_plain`` example's, is
    written as that annotation's frame around its sentences: it is an
    ``Example``, so its ``to_record`` is the frame's, its sentences are
    strs and its tokens ints (``True``, ``1.0`` and ``np.int64(1)`` equal
    ``1`` but do not encode like it)."""
    tokens = ex.gold_rationale_tokens
    return (
        type(ex) is Example
        and type(ex.premise) is str
        and type(ex.hypothesis) is str
        and (tokens is None or _INT.issuperset(map(type, tokens)))
    )


def _plain(ex: Example) -> bool:
    """Whether every field of ``ex`` has the exact type ``from_record``
    gives it."""
    label, program, states, tokens, tag, target = _annotation(ex)
    return (
        type(tag) is str
        and (label is None or type(label) is NLILabel)
        and (target is None or type(target) is Relation)
        and _all_of(ActionRelation, program)
        and _all_of(Relation, states)
        and _all_of(int, tokens)
        and _spliceable(ex)
    )


def _all_of(kind: type, values) -> bool:
    """Whether ``values`` is None or a tuple of values of type ``kind``."""
    return values is None or type(values) is tuple and all(
        type(value) is kind for value in values
    )


def save_dataset(examples: Iterable[Example], path: str | Path) -> None:
    """``write_records`` of the examples' ``to_record()``, from an
    annotation's second example on spliced into its frame (module
    docstring)."""
    lines = [dumps({"schema": SCHEMA, "version": VERSION})]
    # annotation -> its first example, then its frame, or None
    frames: dict = {}
    for ex in examples:
        try:
            frame = frames.setdefault(_annotation(ex), ex)
        except (AttributeError, TypeError):  # not an Example, or unhashable
            frame = None
        if frame is not ex and frame is not None and type(frame) is not tuple:
            # the annotation's second example: learn the first one's frame
            frame = frames[_annotation(ex)] = (
                tuple(dumps(frame.to_record() | _NO_SENTENCES).split('""', 2))
                if _plain(frame)
                else None
            )
        if type(frame) is tuple and _spliceable(ex):
            lines.append(_splice(frame, ex.hypothesis, ex.premise))
        else:
            lines.append(dumps(ex.to_record()))
    write_lines(path, lines)


def load_dataset(path: str | Path) -> list[Example]:
    """Examples of a dataset file; a malformed line is named as path:line.

    Lines end at ``\\n`` (a ``\\r`` before it is dropped), and a line in a
    learned frame is read from its two strings (module docstring).
    """
    lines = read_lines(path)
    if not lines:
        raise ValueError(f"{path}:1: empty dataset file")
    header = _parse_line(path, 1, lines[0], dict)
    if header.get("schema") != SCHEMA:
        raise ValueError(f"{path}:1: expected schema {SCHEMA!r}, got {header!r}")
    if header.get("version") != VERSION:
        raise ValueError(f"{path}:1: unsupported version {header.get('version')}")
    examples = []
    # frame -> _SEEN, then the annotation it holds, or _NEVER
    frames: dict = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cut = _cut(line)
        if cut is not None:
            frame, hypothesis, premise = cut
            annotation = frames.get(frame, _NEW)
            if (
                type(annotation) is tuple
                and _splice(frame, hypothesis, premise) == line
            ):
                examples.append(Example(premise, hypothesis, *annotation))
                continue
        ex = _parse_line(path, lineno, line, Example.from_record)
        examples.append(ex)
        if cut is None:
            continue
        if annotation is _NEW:
            frames[frame] = _SEEN
        elif annotation is _SEEN:  # recurring: learned if this line is canonical
            frames[frame] = (
                _annotation(ex) if dumps(ex.to_record()) == line else _NEVER
            )
    return examples


# the states of a frame in ``load_dataset``
_NEW, _SEEN, _NEVER = object(), object(), object()


def _parse_line(path, lineno: int, line: str, build):
    """``build(json.loads(line))``, each error named as path:line."""
    try:
        return build(json.loads(line))
    except KeyError as exc:
        raise ValueError(f"{path}:{lineno}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
