"""Synthetic NLI data over quantifier-by-replacement grids.

Sentences follow the template ``[prefix] quantifier subject predicate``.
A premise/hypothesis pair differs by one phrase replacement (or two for
the two-hop variant), and the gold program, states, label, and rationale
all come from executing the constructed program, so annotations are
consistent with the engine by construction.

The compositional split keeps a subset of quantifiers and a subset of
replacements out of the test set: training pairs either use a held-out
quantifier (with any replacement) or a held-out replacement (with any
quantifier); test pairs use only the remaining combinations, so no
quantifier-replacement combination appears in both splits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .chunker import ChunkRules, chunk_pairs, default_rules, tokenize
from .data import Example
from .executor import ChunkedPair, execute
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
        if self.site not in (SUBJECT, PREDICATE):
            raise ValueError(f"unknown replacement site: {self.site!r}")

    def to_record(self) -> dict:
        return {"narrow": self.narrow, "broad": self.broad, "site": self.site}

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
    is set, and never to training examples.
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

    def with_seed(self, seed: int) -> "GenSpec":
        return dc_replace(self, seed=seed)

    def to_record(self) -> dict:
        return {
            "quantifiers": list(self.quantifiers),
            "replacements": [r.to_record() for r in self.replacements],
            "held_out_quantifiers": list(self.held_out_quantifiers),
            "held_out_replacements": [
                r.to_record() for r in self.held_out_replacements
            ],
            "subject_fillers": list(self.subject_fillers),
            "predicate_fillers": list(self.predicate_fillers),
            "alternations": [list(pair) for pair in self.alternations],
            "noise_prefixes": list(self.noise_prefixes),
            "include_identity": self.include_identity,
            "noisy_test": self.noisy_test,
            "train_size": self.train_size,
            "test_size": self.test_size,
            "two_hop_size": self.two_hop_size,
            "seed": self.seed,
        }

    @classmethod
    def from_record(cls, record: dict) -> "GenSpec":
        known = {k for k in cls.__dataclass_fields__}
        unknown = set(record) - known
        if unknown:
            raise ValueError(f"unknown generation keys: {sorted(unknown)}")
        kwargs = dict(record)
        for key in ("replacements", "held_out_replacements"):
            if key in kwargs:
                kwargs[key] = tuple(
                    Replacement.from_record(r) for r in kwargs[key]
                )
        for key in (
            "quantifiers",
            "held_out_quantifiers",
            "subject_fillers",
            "predicate_fillers",
            "noise_prefixes",
        ):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        if "alternations" in kwargs:
            kwargs["alternations"] = tuple(
                (a, b) for a, b in kwargs["alternations"]
            )
        return cls(**kwargs)


def load_genspec(path: str | Path) -> GenSpec:
    """Read a spec saved by ``save_genspec``; errors name the file."""
    try:
        record = json.loads(Path(path).read_text())
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
    text = json.dumps(spec.to_record(), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


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


def _sentence(quantifier: str, subject: str, predicate: str) -> str:
    return " ".join(p for p in (quantifier, subject, predicate) if p)


# A pair to build: premise, hypothesis, the actions at its differing
# chunks, and its split tag.
_Plan = tuple[str, str, tuple[ActionRelation, ...], str]


def _build_all(plans: Sequence[_Plan], rules: ChunkRules) -> list[Example]:
    """``_build`` every planned pair, chunking each distinct sentence once."""
    pairs = chunk_pairs([(plan[0], plan[1]) for plan in plans], rules)
    return [_build(pair, *plan) for pair, plan in zip(pairs, plans)]


def _build(
    pair: ChunkedPair,
    premise: str,
    hypothesis: str,
    actions: Sequence[ActionRelation],
    tag: str,
) -> Example:
    """Place the given actions at the differing chunks of a chunked pair
    and read every annotation off the executed trace."""
    if len(pair.premise) != len(pair.hypothesis):
        raise ValueError(
            f"chunk structure mismatch: {premise!r} / {hypothesis!r}"
        )
    diff = [
        t
        for t, (p, h) in enumerate(zip(pair.premise, pair.hypothesis))
        if p.tokens != h.tokens
    ]
    if len(diff) != len(actions):
        raise ValueError(
            f"expected {len(actions)} differing chunks in "
            f"{premise!r} / {hypothesis!r}, found {len(diff)}"
        )
    program = [ActionRelation.EQUIVALENCE] * pair.m
    for t, action in zip(diff, actions):
        program[t] = action
    trace = execute(pair, tuple(program))
    return Example(
        premise=premise,
        hypothesis=hypothesis,
        label=trace.label,
        gold_program=tuple(program),
        gold_states=trace.states[1:],
        gold_rationale_tokens=trace.rationale_token_indices(),
        split_tag=tag,
    )


def _replacement_pairs(r: Replacement):
    # forward: premise holds the narrow phrase, so the chunk relation is
    # forward entailment; reverse swaps the sides
    yield r.narrow, r.broad, ActionRelation.FORWARD_ENTAILMENT
    yield r.broad, r.narrow, ActionRelation.REVERSE_ENTAILMENT


def _one_hop(
    quantifier: str, r: Replacement, spec: GenSpec, tag: str
) -> list[_Plan]:
    fillers = (
        spec.predicate_fillers if r.site == SUBJECT else spec.subject_fillers
    )
    out = []
    for filler in fillers:
        for premise_phrase, hyp_phrase, action in _replacement_pairs(r):
            if r.site == SUBJECT:
                premise = _sentence(quantifier, premise_phrase, filler)
                hypothesis = _sentence(quantifier, hyp_phrase, filler)
            else:
                premise = _sentence(quantifier, filler, premise_phrase)
                hypothesis = _sentence(quantifier, filler, hyp_phrase)
            out.append((premise, hypothesis, (action,), tag))
    return out


def _subsample(pool: list, size: Optional[int], seed: int, key: int) -> list:
    # Depends only on len(pool) and the seed, so plans are subsampled
    # before they are built and a kept example keeps its bytes.
    if size is None or size >= len(pool):
        return pool
    if size < 0:
        raise ValueError("requested size is negative")
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

    train: list[_Plan] = []
    test: list[_Plan] = []
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
                sentence = _sentence(q, subject, predicate)
                train.append((sentence, sentence, (), "train"))

    train = _subsample(train, spec.train_size, spec.seed, 0)
    test = _subsample(test, spec.test_size, spec.seed, 1)
    built = _build_all(train + test, rules)
    train_set, test_set = built[: len(train)], built[len(train) :]
    if spec.noisy_test:
        if not spec.noise_prefixes:
            raise ValueError("noisy_test requires noise prefixes")
        noised = []
        for i, ex in enumerate(test_set):
            prefix = spec.noise_prefixes[i % len(spec.noise_prefixes)]
            actions = tuple(
                a for a in ex.gold_program if a != ActionRelation.EQUIVALENCE
            )
            premise = f"{prefix} {ex.premise}"
            hypothesis = f"{prefix} {ex.hypothesis}"
            noised.append((premise, hypothesis, actions, "test-noise"))
        test_set = test_set + _build_all(noised, rules)
    return tuple(train_set), tuple(test_set)


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
    plans = [
        (
            _sentence(q, subj_p, pred_p),
            _sentence(q, subj_h, pred_h),
            (subj_action, pred_action),
            "2hop",
        )
        for q in spec.quantifiers
        for r in subject_reps
        for subj_p, subj_h, subj_action in _replacement_pairs(r)
        for pred_p, pred_h, pred_action in predicate_moves
    ]
    kept = _subsample(plans, spec.two_hop_size, spec.seed, 2)
    return tuple(_build_all(kept, rules))
