"""Synthetic NLI data over quantifier-by-replacement grids.

Sentences follow the template ``[prefix] quantifier subject predicate``.
A premise/hypothesis pair differs by one phrase replacement (or two for
the two-hop variant), and the gold program, states, label, and rationale
all come from executing the constructed program, so annotations are
consistent with the engine by construction.  A generator call reads them
from one ``executor.ExecutionTable``, the library's one execution table.

Every pair is drafted from its sentences' parts and subsampled before it
is formatted.  A noisy test pair is a kept test draft with a noise prefix
before both sentences' parts, built in the same call as train and test.

The compositional split keeps a subset of quantifiers and a subset of
replacements out of the test set: training pairs either use a held-out
quantifier (with any replacement) or a held-out replacement (with any
quantifier); test pairs use only the remaining combinations, so no
quantifier-replacement combination appears in both splits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from itertools import cycle
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._text import read_text, write_lines
from .chunker import ChunkRules, chunk_pairs, default_rules, tokenize
from .data import Example
from .executor import ChunkedPair, ExecutionTable
from .relations import ActionRelation

__all__ = [
    "Replacement",
    "GenSpec",
    "default_genspec",
    "generate",
    "generate_2hop",
    "load_genspec",
    "save_genspec",
]

SUBJECT = "subject"
PREDICATE = "predicate"


@dataclass(frozen=True)
class Replacement:
    """A narrow phrase entailed by a broad phrase, at a sentence site.

    ``narrow`` forward-entails ``broad`` (small dogs < dogs < animals);
    ``site`` says whether the pair fills the subject or predicate slot.
    """

    narrow: str
    broad: str
    site: str = SUBJECT

    def __post_init__(self):
        if type(self.narrow) is not str or type(self.broad) is not str:
            raise ValueError(f"replacement phrases must be strings: {self!r}")
        if self.site not in (SUBJECT, PREDICATE):
            raise ValueError(f"unknown replacement site: {self.site!r}")

    @classmethod
    def from_record(cls, record: dict) -> "Replacement":
        return cls(record["narrow"], record["broad"], record["site"])


@dataclass(frozen=True)
class GenSpec:
    """Inventories and split description for dataset generation.

    ``held_out_quantifiers`` and ``held_out_replacements`` are held out
    of the *test* set: training covers them against everything, and the
    test set covers only the complementary combinations.  Noise prefixes
    are prepended to both sentences of test examples when ``noisy_test``
    is set, and never to training examples.  A field of another type, a
    negative size, a negative seed or an empty or whitespace-only noise
    prefix raises ``ValueError``.
    """

    quantifiers: tuple = ()
    replacements: tuple = ()
    held_out_quantifiers: tuple = ()
    held_out_replacements: tuple = ()
    subject_fillers: tuple = ()
    predicate_fillers: tuple = ()
    alternations: tuple = ()
    noise_prefixes: tuple = ()
    include_identity: bool = True
    noisy_test: bool = False
    train_size: Optional[int] = None
    test_size: Optional[int] = None
    two_hop_size: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            ok, wanted = _SPEC_TYPES.get(f.name, (_phrases, "a tuple of strings"))
            value = getattr(self, f.name)
            if not ok(value):
                raise ValueError(f"{f.name} must be {wanted}, got {value!r}")

    def to_record(self) -> dict:
        return asdict(self)

    @classmethod
    def from_record(cls, record: dict) -> "GenSpec":
        """The spec a record holds; a tuple field must be a list, and a
        pair in it a list too."""
        unknown = set(record) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown generation keys: {sorted(unknown)}")
        kwargs = dict(record)
        for key, value in record.items():
            if key in _SEQUENCES:
                if type(value) is not list:
                    raise ValueError(f"{key} must be a list, got {value!r}")
                kwargs[key] = tuple(tuple(v) if type(v) is list else v for v in value)
        for key in ("replacements", "held_out_replacements"):
            if key in kwargs:
                kwargs[key] = tuple(Replacement.from_record(r) for r in kwargs[key])
        return cls(**kwargs)


def _tuple_of(item_ok):
    return lambda value: type(value) is tuple and all(map(item_ok, value))


def _count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


_phrases = _tuple_of(lambda v: type(v) is str)
_REPLACEMENTS = (
    _tuple_of(lambda v: isinstance(v, Replacement)), "a tuple of Replacements"
)
_FLAG = (lambda v: type(v) is bool, "a bool")
_SIZE = (lambda v: v is None or _count(v), "None or an int >= 0")
# GenSpec field -> (check, what it wants); every other field holds phrases
_SPEC_TYPES = {
    "replacements": _REPLACEMENTS,
    "held_out_replacements": _REPLACEMENTS,
    "alternations": (
        _tuple_of(lambda v: _phrases(v) and len(v) == 2), "a tuple of phrase pairs"
    ),
    # a blank prefix would make a noised pair its clean twin
    "noise_prefixes": (
        _tuple_of(lambda v: type(v) is str and v.strip() != ""),
        "a tuple of non-blank strings",
    ),
    "include_identity": _FLAG,
    "noisy_test": _FLAG,
    "train_size": _SIZE,
    "test_size": _SIZE,
    "two_hop_size": _SIZE,
    "seed": (_count, "an int >= 0"),
}
# the tuple fields, which a record holds as lists
_SEQUENCES = frozenset(f.name for f in fields(GenSpec) if f.default == ())


def load_genspec(path: str | Path) -> GenSpec:
    """Read a spec saved by ``save_genspec``; errors name the file."""
    try:
        record = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from None
    if not isinstance(record, dict):
        raise ValueError(f"{path}: expected a JSON object")
    try:
        return GenSpec.from_record(record)
    except KeyError as exc:
        raise ValueError(f"{path}: bad generation spec: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad generation spec: {exc}") from None


def save_genspec(spec: GenSpec, path: str | Path) -> None:
    write_lines(path, [json.dumps(spec.to_record(), indent=2, sort_keys=True)])


def default_genspec() -> GenSpec:
    """A grid large enough for compositional-generalization studies.

    Every phrase chunks with the default grammar, and every replacement
    is backed by the default lexicon (hypernym pair) or by phrase
    inclusion, so knowledge-base proposals cover the gold relations.
    """
    subject = [
        ("dogs", "animals"),
        ("cats", "animals"),
        ("beagles", "dogs"),
        ("puppies", "dogs"),
        ("kittens", "cats"),
        ("dogs", "mammals"),
        ("cats", "mammals"),
        ("kids", "people"),
        ("small dogs", "dogs"),
        ("big dogs", "dogs"),
        ("little dogs", "dogs"),
        ("small cats", "cats"),
        ("big cats", "cats"),
        ("little kids", "kids"),
    ]
    predicate = [
        ("run", "move"),
        ("walk", "move"),
        ("swim", "move"),
        ("fly", "move"),
        ("jog", "run"),
        ("run quickly", "run"),
        ("walk slowly", "walk"),
        ("play outside", "play"),
    ]
    replacements = tuple(
        [Replacement(n, b, SUBJECT) for n, b in subject]
        + [Replacement(n, b, PREDICATE) for n, b in predicate]
    )
    return GenSpec(
        quantifiers=("some", "all", "no", "the"),
        replacements=replacements,
        held_out_quantifiers=("some", "the"),
        held_out_replacements=(
            Replacement("small dogs", "dogs", SUBJECT),
            Replacement("kittens", "cats", SUBJECT),
            Replacement("jog", "run", PREDICATE),
            Replacement("play outside", "play", PREDICATE),
        ),
        subject_fillers=(
            "dogs",
            "cats",
            "animals",
            "mammals",
            "beagles",
            "puppies",
            "kittens",
            "kids",
            "children",
            "people",
            "birds",
            "rabbits",
            "small dogs",
            "little kids",
        ),
        predicate_fillers=(
            "run",
            "move",
            "walk",
            "sleep",
            "bark",
            "fly",
            "eat",
            "swim",
            "jog",
            "rest",
            "play",
            "run quickly",
            "move quickly",
            "walk slowly",
            "sleep inside",
            "play outside",
            "swim well",
            "jog slowly",
            "rest inside",
            "eat quickly",
        ),
        alternations=(("run", "sleep"), ("walk", "fly")),
        noise_prefixes=("near the shore", "in the park", "in the morning"),
    )


def _validate_vocabulary(spec: GenSpec, rules: ChunkRules) -> None:
    vocab = rules.vocabulary()
    pieces = list(spec.quantifiers)
    pieces += list(spec.subject_fillers) + list(spec.predicate_fillers)
    pieces += list(spec.noise_prefixes)
    for r in spec.replacements:
        pieces += [r.narrow, r.broad]
    for a, b in spec.alternations:
        pieces += [a, b]
    unknown = sorted(
        {w for piece in pieces for w in tokenize(piece) if w not in vocab}
    )
    if unknown:
        raise ValueError(f"phrases use words outside the grammar: {unknown}")


def _validate_split(spec: GenSpec) -> None:
    if not spec.quantifiers or not spec.replacements:
        raise ValueError("generation needs quantifiers and replacements")
    for held, full, what in (
        (spec.held_out_quantifiers, spec.quantifiers, "quantifier"),
        (spec.held_out_replacements, spec.replacements, "replacement"),
    ):
        if not held:
            raise ValueError(f"held-out {what} set is empty")
        missing = [h for h in held if h not in full]
        if missing:
            raise ValueError(f"held-out {what}s not in inventory: {missing}")
        if len(set(held)) >= len(set(full)):
            raise ValueError(f"held-out {what} set must be a proper subset")


def _sentence(*parts: str) -> str:
    """The sentence of its parts, the empty ones left out."""
    return " ".join(filter(None, parts))


# A pair to build: the ([noise prefix,] quantifier, subject, predicate)
# of its premise and of its hypothesis, the actions at its differing
# chunks, and its split tag.
_Draft = tuple[tuple[str, ...], tuple[str, ...], tuple[ActionRelation, ...], str]


def _build_all(drafts: Sequence[_Draft], rules: ChunkRules) -> list[Example]:
    """``_build`` every draft, formatting each sentence once, chunking each
    distinct sentence once and executing each distinct class once."""
    plans = [(_sentence(*p), _sentence(*h), *rest) for p, h, *rest in drafts]
    pairs = chunk_pairs([plan[:2] for plan in plans], rules)
    table = ExecutionTable()
    return [_build(pair, *plan, table) for pair, plan in zip(pairs, plans)]


def _build(
    pair: ChunkedPair,
    premise: str,
    hypothesis: str,
    actions: Sequence[ActionRelation],
    tag: str,
    table: ExecutionTable,
) -> Example:
    """Place the given actions at the differing chunks of a chunked pair
    and read every annotation off the program's execution in ``table``,
    the one ``_build_all`` call's table of executions."""
    chunks = pair.hypothesis
    if len(pair.premise) != len(chunks):
        raise ValueError(
            f"chunk structure mismatch: {premise!r} / {hypothesis!r}"
        )
    diff = [
        t
        for t, p, h in zip(range(len(chunks)), pair.premise, chunks)
        if p.tokens != h.tokens
    ]
    if len(diff) != len(actions):
        raise ValueError(
            f"expected {len(actions)} differing chunks in "
            f"{premise!r} / {hypothesis!r}, found {len(diff)}"
        )
    program = [ActionRelation.EQUIVALENCE] * len(chunks)
    for t, action in zip(diff, actions):
        program[t] = action
    program = tuple(program)
    _, states, label, rationales = table.executions(pair).parts(pair, program)
    # ``Trace.rationale_token_indices`` of this pair's trace
    tokens = tuple([i for t in rationales for i in chunks[t - 1].token_indices])
    return Example(premise, hypothesis, label, program, states[1:], tokens, tag)


def _replacement_pairs(r: Replacement):
    # forward: premise holds the narrow phrase, so the chunk relation is
    # forward entailment; reverse swaps the sides
    yield r.narrow, r.broad, ActionRelation.FORWARD_ENTAILMENT
    yield r.broad, r.narrow, ActionRelation.REVERSE_ENTAILMENT


def _one_hop(
    quantifier: str, r: Replacement, spec: GenSpec, tag: str
) -> list[_Draft]:
    fillers = (
        spec.predicate_fillers if r.site == SUBJECT else spec.subject_fillers
    )
    out = []
    for filler in fillers:
        for premise_phrase, hyp_phrase, action in _replacement_pairs(r):
            if r.site == SUBJECT:
                premise = (quantifier, premise_phrase, filler)
                hypothesis = (quantifier, hyp_phrase, filler)
            else:
                premise = (quantifier, filler, premise_phrase)
                hypothesis = (quantifier, filler, hyp_phrase)
            out.append((premise, hypothesis, (action,), tag))
    return out


def _subsample(pool: list, size: Optional[int], seed: int, key: int) -> list:
    # Depends only on len(pool) and the seed, so plans are subsampled
    # before they are built and a kept example keeps its bytes.
    if size is None or size >= len(pool):
        return pool
    rng = np.random.default_rng([seed, key])
    keep = sorted(rng.choice(len(pool), size=size, replace=False))
    return [pool[i] for i in keep]


def generate(
    spec: GenSpec, rules: Optional[ChunkRules] = None
) -> tuple[tuple[Example, ...], tuple[Example, ...]]:
    """Build the compositional train/test split described by the spec.

    Deterministic for a fixed spec; the seed only drives subsampling
    when explicit sizes are requested.
    """
    rules = rules if rules is not None else default_rules()
    _validate_split(spec)
    _validate_vocabulary(spec, rules)

    train: list[_Draft] = []
    test: list[_Draft] = []
    held_q = set(spec.held_out_quantifiers)
    held_r = set(spec.held_out_replacements)
    for q in spec.quantifiers:
        for r in spec.replacements:
            in_train = q in held_q or r in held_r
            tag = "train" if in_train else "test"
            bucket = train if in_train else test
            bucket.extend(_one_hop(q, r, spec, tag))
    if spec.include_identity:
        for qi, q in enumerate(spec.quantifiers):
            for si, subject in enumerate(spec.subject_fillers):
                predicate = spec.predicate_fillers[
                    (qi + si) % len(spec.predicate_fillers)
                ]
                parts = (q, subject, predicate)
                train.append((parts, parts, (), "train"))

    train = _subsample(train, spec.train_size, spec.seed, 0)
    test = _subsample(test, spec.test_size, spec.seed, 1)
    if spec.noisy_test and not spec.noise_prefixes:
        raise ValueError("noisy_test requires noise prefixes")
    prefixes = cycle(spec.noise_prefixes) if spec.noisy_test else ()
    noised = [
        ((prefix, *premise), (prefix, *hypothesis), actions, "test-noise")
        for (premise, hypothesis, actions, _), prefix in zip(test, prefixes)
    ]
    built = _build_all(train + test + noised, rules)
    return tuple(built[: len(train)]), tuple(built[len(train) :])


def generate_2hop(
    spec: GenSpec, rules: Optional[ChunkRules] = None
) -> tuple[Example, ...]:
    """Pairs whose subject and predicate are both replaced.

    Every gold program has exactly two steps that are not equivalence,
    so the final state is a genuine two-hop composition; intermediate
    states are recorded per step as usual.
    """
    rules = rules if rules is not None else default_rules()
    _validate_vocabulary(spec, rules)
    subject_reps = [r for r in spec.replacements if r.site == SUBJECT]
    predicate_moves = [
        (p, h, action)
        for r in spec.replacements
        if r.site == PREDICATE
        for p, h, action in _replacement_pairs(r)
    ]
    predicate_moves += [
        (a, b, ActionRelation.NEG_ALT)
        for pair in spec.alternations
        for a, b in (pair, pair[::-1])
    ]
    if not spec.quantifiers or not subject_reps or not predicate_moves:
        raise ValueError(
            "two-hop generation needs quantifiers, subject replacements, "
            "and predicate replacements or alternations"
        )
    drafts = [
        (
            (q, subj_p, pred_p),
            (q, subj_h, pred_h),
            (subj_action, pred_action),
            "2hop",
        )
        for q in spec.quantifiers
        for r in subject_reps
        for subj_p, subj_h, subj_action in _replacement_pairs(r)
        for pred_p, pred_h, pred_action in predicate_moves
    ]
    kept = _subsample(drafts, spec.two_hop_size, spec.seed, 2)
    return tuple(_build_all(kept, rules))
