"""Deterministic chunking of fragment sentences and projectivity marking.

Sentences are split into phrase chunks with a small closed grammar: every
maximal noun phrase (optional quantifier, optional determiner, adjectives,
one or more nouns) becomes one chunk, and every maximal run of tokens
between noun phrases becomes one chunk.  Unknown tokens are allowed and act
as span filler.

Projectivity marking assigns each chunk the monotonicity context of its
first token.  Quantifiers and negators open a flat scope that runs to the
end of the sentence:

* ``all`` and ``every`` put the rest of their own noun phrase in the
  restrictor context (downward) and everything after it in the body
  context (upward),
* ``some`` does the same with the existential rows,
* ``no`` and the negators (``not``, ``n't``) put everything that follows
  under the negation row; ``no`` additionally covers its own token so that
  the noun phrase it heads is marked as negated.

When scopes overlap, the nearest preceding trigger wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .executor import Chunk, ChunkedPair
from .relations import CONTEXTS, ProjectivityContext, UPWARD

__all__ = [
    "Sentence",
    "ChunkRules",
    "tokenize",
    "chunk",
    "mark_projectivity",
    "chunk_pair",
    "default_rules",
]

_PUNCT = ".,;:!?\"'()"

_ROLE_KEYS = (
    "quantifiers",
    "negators",
    "determiners",
    "adjectives",
    "nouns",
    "verbs",
)


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase whitespace tokenization with contraction splitting."""
    out = []
    for raw in text.lower().split():
        if raw.endswith("n't") and len(raw) > 3:
            out.extend([raw[:-3], "n't"])
            continue
        token = raw.strip(_PUNCT)
        if token:
            out.append(token)
    return tuple(out)


@dataclass(frozen=True)
class Sentence:
    """A tokenized sentence."""

    tokens: tuple[str, ...]

    @classmethod
    def parse(cls, text: str) -> "Sentence":
        return cls(tokens=tokenize(text))

    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class ChunkRules:
    """Closed word classes of the sentence fragment.

    ``extra`` holds any further sections found in a grammar file (adverbs,
    prepositions, ...); they do not affect chunking but count as known
    vocabulary.
    """

    quantifiers: frozenset[str] = frozenset()
    negators: frozenset[str] = frozenset()
    determiners: frozenset[str] = frozenset()
    adjectives: frozenset[str] = frozenset()
    nouns: frozenset[str] = frozenset()
    verbs: frozenset[str] = frozenset()
    extra: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def vocabulary(self) -> frozenset[str]:
        vocab = (
            self.quantifiers
            | self.negators
            | self.determiners
            | self.adjectives
            | self.nouns
            | self.verbs
        )
        for words in self.extra.values():
            vocab |= words
        return vocab

    @classmethod
    def load(cls, path: str | Path) -> "ChunkRules":
        """Read rules from a plain key-value grammar file.

        Each non-comment line is ``section: word word ...``; a section
        named twice is an error.
        """
        sections: dict[str, frozenset[str]] = {}
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'section: words'")
            key, _, words = line.partition(":")
            key = key.strip()
            if key in sections:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            sections[key] = frozenset(words.split())
        known = {k: sections.pop(k, frozenset()) for k in _ROLE_KEYS}
        return cls(extra=dict(sections), **known)

    def dump(self, path: str | Path) -> None:
        lines = []
        for key in _ROLE_KEYS:
            words = " ".join(sorted(getattr(self, key)))
            lines.append(f"{key}: {words}")
        for key in sorted(self.extra):
            lines.append(f"{key}: {' '.join(sorted(self.extra[key]))}")
        Path(path).write_text("\n".join(lines) + "\n")


def default_rules() -> ChunkRules:
    """Built-in grammar covering the bundled lexicon and generator."""
    return ChunkRules(
        quantifiers=frozenset({"all", "every", "some", "no"}),
        negators=frozenset({"not", "n't"}),
        determiners=frozenset({"the", "a", "an"}),
        adjectives=frozenset(
            {"small", "big", "young", "old", "white", "black", "furry",
             "hungry", "little"}
        ),
        nouns=frozenset(
            {"dog", "dogs", "cat", "cats", "animal", "animals", "mammal",
             "mammals", "rabbit", "rabbits", "bird", "birds", "beagle",
             "beagles", "puppy", "puppies", "kitten", "kittens", "pet",
             "pets", "child", "children", "kid", "kids", "person", "people",
             "biker", "bikers", "shore", "park", "morning", "evening",
             "ocean", "fountain", "sports", "table-tennis", "food",
             "hamburger", "meat", "water"}
        ),
        verbs=frozenset(
            {"run", "runs", "move", "moves", "walk", "walks", "sleep",
             "sleeps", "bark", "barks", "fly", "flies", "eat", "eats",
             "swim", "swims", "jog", "jogs", "rest", "rests", "play",
             "plays", "love", "loves", "like", "likes", "ride", "rides",
             "does", "did", "is", "are"}
        ),
        extra={
            "adverbs": frozenset(
                {"quickly", "slowly", "outside", "inside", "well"}
            ),
            "prepositions": frozenset({"near", "beside", "to", "next", "in"}),
        },
    )


def _noun_phrase_end(tokens: Sequence[str], i: int, rules: ChunkRules) -> int:
    """End of the noun phrase starting at i, or i if none starts here."""
    j = i
    if j < len(tokens) and tokens[j] in rules.quantifiers:
        j += 1
    if j < len(tokens) and tokens[j] in rules.determiners:
        j += 1
    while j < len(tokens) and tokens[j] in rules.adjectives:
        j += 1
    k = j
    while k < len(tokens) and tokens[k] in rules.nouns:
        k += 1
    return k if k > j else i  # a noun phrase needs at least one noun


def _spans(tokens: Sequence[str], rules: ChunkRules) -> list[tuple[int, int]]:
    spans = []
    i = 0
    run_start = None
    while i < len(tokens):
        end = _noun_phrase_end(tokens, i, rules)
        if end > i:
            if run_start is not None:
                spans.append((run_start, i))
                run_start = None
            spans.append((i, end))
            i = end
        else:
            if run_start is None:
                run_start = i
            i += 1
    if run_start is not None:
        spans.append((run_start, len(tokens)))
    return spans


def _token_contexts(
    tokens: Sequence[str], rules: ChunkRules
) -> list[ProjectivityContext]:
    n = len(tokens)
    contexts = [UPWARD] * n
    for i, token in enumerate(tokens):
        if token == "no" and token in rules.quantifiers:
            # negative quantifier: the token and its whole scope are negated
            for j in range(i, n):
                contexts[j] = CONTEXTS["not"]
        elif token in rules.negators:
            for j in range(i + 1, n):
                contexts[j] = CONTEXTS["not"]
        elif token in rules.quantifiers:
            arg1, arg2 = (
                (CONTEXTS["some-arg1"], CONTEXTS["some-arg2"])
                if token == "some"
                else (CONTEXTS["all-arg1"], CONTEXTS["all-arg2"])
            )
            np_end = _noun_phrase_end(tokens, i, rules)
            restrictor_end = np_end if np_end > i else i + 1
            for j in range(i, restrictor_end):
                contexts[j] = arg1
            for j in range(restrictor_end, n):
                contexts[j] = arg2
    return contexts


def chunk(sentence: Sentence | Sequence[str], rules: ChunkRules) -> tuple[Chunk, ...]:
    """Split a sentence into noun-phrase and filler chunks, marked.

    Each chunk is built once, with the context of its first token.
    """
    tokens = sentence.tokens if isinstance(sentence, Sentence) else tuple(sentence)
    if not tokens:
        raise ValueError("cannot chunk an empty sentence")
    contexts = _token_contexts(tokens, rules)
    return tuple(
        Chunk(tokens=tuple(tokens[a:b]), start=a, context=contexts[a])
        for a, b in _spans(tokens, rules)
    )


def mark_projectivity(
    chunks: Iterable[Chunk], rules: ChunkRules
) -> tuple[Chunk, ...]:
    """Assign each chunk the context of its first token.

    Recomputes contexts from the flat token sequence, so applying it twice
    gives the same result.
    """
    chunks = tuple(chunks)
    tokens: list[str] = []
    for c in chunks:
        tokens.extend(c.tokens)
    contexts = _token_contexts(tokens, rules)
    out = []
    offset = 0
    for c in chunks:
        out.append(Chunk(tokens=c.tokens, start=c.start, context=contexts[offset]))
        offset += len(c.tokens)
    return tuple(out)


def chunk_pair(
    premise: Sentence | Sequence[str] | str,
    hypothesis: Sentence | Sequence[str] | str,
    rules: ChunkRules,
) -> ChunkedPair:
    """Chunk and mark both sides of a sentence pair."""
    if isinstance(premise, str):
        premise = Sentence.parse(premise)
    if isinstance(hypothesis, str):
        hypothesis = Sentence.parse(hypothesis)
    return ChunkedPair(
        premise=chunk(premise, rules),
        hypothesis=chunk(hypothesis, rules),
    )
