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

``ChunkRules`` derives one word-class table at construction: each word of
the five roles above maps to the OR of its role bits.  Chunking reads one
list of bits per sentence, one lookup per token, and both the noun-phrase
scan and the projectivity pass test bits.

Chunking is a pure function of the sentence's *shape*: its role bits and
its trigger tokens (the quantifiers and negators, whose words decide
between the ``no``, ``some`` and universal scopes).  ``_shape`` maps a
sentence to each chunk's (start, end, context), and ``chunk`` slices a
token sequence by it.  ``chunk_pairs`` and ``chunk_pair`` take sentences
as strings, as datasets hold them.  ``chunk_pairs`` tokenizes each
distinct sentence of its pairs once, chunks each distinct shape once and
slices the tokens of each distinct sentence into ``Chunk``s; the noisy
test split has 16 shapes among its 2036 distinct sentences.
``chunk_pair`` chunks its two sentences directly, as a single pair has
no other sentence to share a shape with.  Nothing is cached across calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ._text import config_lines, write_lines
from .executor import Chunk, ChunkedPair
from .relations import CONTEXTS, ProjectivityContext, UPWARD

__all__ = [
    "ChunkRules",
    "tokenize",
    "chunk",
    "chunk_pair",
    "chunk_pairs",
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

# Role bits of the word-class table; a word may hold several.
_QUANTIFIER, _NEGATOR, _DETERMINER, _ADJECTIVE, _NOUN = 1, 2, 4, 8, 16
_ROLE_BITS = (
    ("quantifiers", _QUANTIFIER),
    ("negators", _NEGATOR),
    ("determiners", _DETERMINER),
    ("adjectives", _ADJECTIVE),
    ("nouns", _NOUN),
)
_TRIGGER = _QUANTIFIER | _NEGATOR  # tokens that open a projectivity scope

_NOT = CONTEXTS["not"]
_ALL = (CONTEXTS["all-arg1"], CONTEXTS["all-arg2"])
_SOME = (CONTEXTS["some-arg1"], CONTEXTS["some-arg2"])


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase whitespace tokenization with contraction splitting.

    Punctuation is stripped from each word before a trailing ``n't`` is
    split off, so ``"isn't."`` gives ``is`` and ``n't``.
    """
    out = []
    for raw in text.lower().split():
        token = raw.strip(_PUNCT)
        if token.endswith("n't") and len(token) > 3:
            out.extend([token[:-3], "n't"])
        elif token:
            out.append(token)
    return tuple(out)


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
    # word -> OR of the role bits the chunker reads, derived from the above
    _classes: Mapping[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        classes: dict[str, int] = {}
        for key, bit in _ROLE_BITS:
            for word in getattr(self, key):
                classes[word] = classes.get(word, 0) | bit
        object.__setattr__(self, "_classes", classes)

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
        for lineno, line in config_lines(path):
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
        write_lines(path, lines)


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


def _role_bits(tokens: Sequence[str], rules: ChunkRules) -> list[int]:
    """Role bits of each token (0 for a word with no role), then a 0."""
    get = rules._classes.get
    bits = [get(token, 0) for token in tokens]
    bits.append(0)
    return bits


def _noun_phrase_end(bits: Sequence[int], i: int) -> int:
    """End of the noun phrase starting at i, or i if none starts here.

    ``bits`` holds the role bits of each token plus a trailing 0, which
    stops every scan at the end of the sentence.
    """
    j = i
    if bits[j] & _QUANTIFIER:
        j += 1
    if bits[j] & _DETERMINER:
        j += 1
    while bits[j] & _ADJECTIVE:
        j += 1
    k = j
    while bits[k] & _NOUN:
        k += 1
    return k if k > j else i  # a noun phrase needs at least one noun


def _spans(bits: Sequence[int]) -> list[tuple[int, int]]:
    n = len(bits) - 1
    spans = []
    i = 0
    run_start = None
    while i < n:
        # a token with no role cannot start a noun phrase
        end = _noun_phrase_end(bits, i) if bits[i] else i
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
        spans.append((run_start, n))
    return spans


def _token_contexts(
    tokens: Sequence[str], bits: Sequence[int]
) -> list[ProjectivityContext]:
    """Each token's context; a later trigger overwrites the scope of an
    earlier one from its own position on."""
    n = len(tokens)
    contexts = [UPWARD] * n
    for i, role in enumerate(bits):
        if not role & _TRIGGER:
            continue
        token = tokens[i]
        if token == "no" and role & _QUANTIFIER:
            # negative quantifier: the token and its whole scope are negated
            contexts[i:] = [_NOT] * (n - i)
        elif role & _NEGATOR:
            contexts[i + 1 :] = [_NOT] * (n - i - 1)
        else:
            arg1, arg2 = _SOME if token == "some" else _ALL
            np_end = _noun_phrase_end(bits, i)
            restrictor_end = np_end if np_end > i else i + 1
            contexts[i:restrictor_end] = [arg1] * (restrictor_end - i)
            contexts[restrictor_end:] = [arg2] * (n - restrictor_end)
    return contexts


def _shape(
    tokens: Sequence[str], bits: Sequence[int]
) -> list[tuple[int, int, ProjectivityContext]]:
    """Each chunk's span and context: (start, end, context of its first
    token).  It reads only ``bits`` and the trigger tokens, so sentences
    that agree on both share it (module docstring)."""
    contexts = _token_contexts(tokens, bits)
    return [(a, b, contexts[a]) for a, b in _spans(bits)]


def chunk(tokens: Sequence[str], rules: ChunkRules) -> tuple[Chunk, ...]:
    """Split a token sequence into noun-phrase and filler chunks, marked.

    Each chunk is built once, with the context of its first token.
    """
    tokens = tuple(tokens)
    if not tokens:
        raise ValueError("cannot chunk an empty sentence")
    return tuple(
        [  # a list comprehension runs faster than a generator here
            Chunk(tokens[a:b], a, context)
            for a, b, context in _shape(tokens, _role_bits(tokens, rules))
        ]
    )


def chunk_pairs(
    pairs: Iterable[tuple[str, str]], rules: ChunkRules
) -> list[ChunkedPair]:
    """Chunk and mark both sides of every pair, each distinct sentence once.

    Each pair's sides equal ``chunk`` of each sentence's ``tokenize``.
    Each distinct sentence shape is chunked once per call, and each
    distinct sentence is sliced into chunks once (module docstring); both
    tables live for one call.
    """
    memo: dict = {}  # sentence -> chunks
    shapes: dict = {}
    return [
        ChunkedPair(
            premise=_chunked(premise, rules, memo, shapes),
            hypothesis=_chunked(hypothesis, rules, memo, shapes),
        )
        for premise, hypothesis in pairs
    ]


def _chunked(
    sentence: str, rules: ChunkRules, memo: dict, shapes: dict
) -> tuple[Chunk, ...]:
    """The chunks of a sentence, from ``memo`` or sliced from its shape,
    which comes from ``shapes`` or is chunked and stored there."""
    chunks = memo.get(sentence)
    if chunks is None:
        tokens = tokenize(sentence)
        if not tokens:
            raise ValueError("cannot chunk an empty sentence")
        bits = _role_bits(tokens, rules)
        shape_key = (
            tuple(bits),
            tuple([t for t, role in zip(tokens, bits) if role & _TRIGGER]),
        )
        shape = shapes.get(shape_key)
        if shape is None:
            shape = shapes[shape_key] = _shape(tokens, bits)
        chunks = memo[sentence] = tuple(
            [Chunk(tokens[a:b], a, context) for a, b, context in shape]
        )
    return chunks


def chunk_pair(premise: str, hypothesis: str, rules: ChunkRules) -> ChunkedPair:
    """Chunk and mark both sides of a sentence pair, each with ``chunk``: a
    single pair has no other sentence to share a shape with."""
    return ChunkedPair(
        premise=chunk(tokenize(premise), rules),
        hypothesis=chunk(tokenize(hypothesis), rules),
    )
