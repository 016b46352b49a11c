"""Lexical knowledge base and relation proposals for hypothesis chunks.

The lexicon stores three edge kinds over surface tokens: synonymy (an
equivalence closure), hypernymy (transitively closed through synonym
classes), and antonymy.  It resolves them once, when it is built, into one
table from pairs of synonym-class representatives ("roots") to link bits:
hypernym, hyponym and antonym.  Alignment and the lexical flags work on
the roots of a chunk's tokens.  ``compare_pairs`` is the one alignment
implementation: it compares every hypothesis chunk of every pair with that
pair's premise chunks.  A premise chunk's near set holds its roots and
every root linked to them.  A hypothesis token counts toward the overlap
when its root is in the near set, the hypernym and antonym flags of the
aligned chunk pair are the OR of one table lookup per token pair, and the
winning overlap is the token overlap flag.  NLI corpora reuse phrases
across many pairs, so one call interns chunks by their token tuples: it
normalizes each distinct tuple and builds each near set once, scores each
distinct (hypothesis tokens, premise tokens) pair once, and computes the
flags once per distinct (hypothesis tokens, aligned tokens) pair; a call
with one pair keeps only the roots, having no other pair to share the
rest with.  Nothing is kept across calls.  ``compare_pair`` is
``compare_pairs`` on one pair, and ``align`` and ``propose`` are
``compare_pair`` on a pair with one hypothesis chunk.

Given an aligned premise chunk for a hypothesis chunk, simple rules propose
candidate relations:

* equivalence when the chunks are equal up to synonyms, or the hypothesis
  chunk is a sub-phrase of the premise chunk,
* forward entailment when the hypothesis chunk is a sub-phrase of the
  premise chunk or contains a hypernym of a premise token,
* reverse entailment in the mirrored cases,
* the merged negation/alternation action when the chunks contain an
  antonym pair.

Each hypothesis chunk is aligned once: ``compare_pair`` returns, for each
hypothesis chunk, the aligned premise chunk with the lexical flags of the
pair, and both the policy's features and the proposal rules read those
records.

The equivalence and forward entailment rules deliberately overlap on the
sub-phrase case; both proposals are emitted.  Revision speaks one key
type, a pair of ints (t, a): the 1-based step t and the action code a,
its position in ``ACTIONS``.  A proposal is such a key, as
``proposal_keys`` returns it, and so is an edit, as
``executor.single_edits`` returns it; only ``propose`` builds relations,
for a reader.  ``queue_from_keys`` ranks keys in one sort, by the
policy's probability for the proposed action, with ties broken by earlier
step and then by lower action code; the ranked list is the queue, best
last, popped from its end.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Sequence

from ._text import config_lines, write_lines
from .executor import Chunk, ChunkedPair
from .relations import ACTIONS, ActionRelation

__all__ = [
    "Lexicon",
    "align",
    "compare_pair",
    "compare_pairs",
    "propose",
    "proposal_keys",
    "keys_from_records",
    "queue_from_keys",
    "default_lexicon",
]


# Link bits of the root-pair table: (ra, rb) -> bits says how class ra
# relates to class rb.
_HYPERNYM = 1  # ra is a (transitive) hypernym of rb
_HYPONYM = 2  # rb is a (transitive) hypernym of ra
_ANTONYM = 4

# a lexicon file's edge kinds -> the ``Lexicon`` arguments they fill
_EDGE_KINDS = {"syn": "synonyms", "hyper": "hypernyms", "ant": "antonyms"}


class Lexicon:
    """Immutable word-relation store with closure-aware queries.

    Every relation is resolved once, when the lexicon is built, into one
    table over synonym-class representatives ("roots"): root pair
    ``(ra, rb)`` maps to the OR of the hypernym, hyponym and antonym bits
    that hold from class ra to class rb, and pairs with no link are
    absent.  Each linked root also keeps the frozenset of itself and the
    roots it is linked to.  Every query is a root lookup plus a table
    lookup.

    Hypernym cycles are rejected: a synonym class that is its own
    (transitive) hypernym raises ``ValueError``, as does an antonym pair
    inside one synonym class.  Both errors name each class by its
    representative word.
    """

    def __init__(
        self,
        synonyms: Iterable[tuple[str, str]] = (),
        hypernyms: Iterable[tuple[str, str]] = (),
        antonyms: Iterable[tuple[str, str]] = (),
    ):
        self._syn_edges = tuple(synonyms)
        self._hyper_edges = tuple(hypernyms)  # (parent, child)
        self._ant_edges = tuple(antonyms)
        link: dict[str, str] = {}  # union-find forest over synonym edges

        def find(word: str) -> str:
            while link.get(word, word) != word:
                word = link[word]
            return word

        for a, b in self._syn_edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                # deterministic representative: lexicographically smaller root
                lo, hi = sorted((ra, rb))
                link[hi] = lo
        # flattened, so that root() is one lookup: every word that is not
        # its class's representative maps straight to it
        self._root = {word: find(word) for word in link}
        # hypernym reachability between synonym classes, transitively closed
        children: dict[str, set[str]] = {}
        for parent, child in self._hyper_edges:
            children.setdefault(self.root(parent), set()).add(self.root(child))
        descendants: dict[str, set[str]] = {}
        for node in children:
            seen: set[str] = set()
            stack = list(children[node])
            while stack:
                cur = stack.pop()
                if cur in seen:
                    continue
                seen.add(cur)
                stack.extend(children.get(cur, ()))
            descendants[node] = seen
        cyclic = sorted(n for n, below in descendants.items() if n in below)
        if cyclic:  # name each class by its representative word
            raise ValueError(f"hypernym cycle through {', '.join(cyclic)}")
        links: dict[tuple[str, str], int] = {}
        for node, below in descendants.items():
            for child in below:
                links[node, child] = links.get((node, child), 0) | _HYPERNYM
                links[child, node] = links.get((child, node), 0) | _HYPONYM
        for a, b in self._ant_edges:
            ra, rb = self.root(a), self.root(b)
            if ra == rb:
                raise ValueError(f"antonym within a synonym class: {ra}")
            links[ra, rb] = links.get((ra, rb), 0) | _ANTONYM
            links[rb, ra] = links.get((rb, ra), 0) | _ANTONYM
        self._links = links
        near: dict[str, set[str]] = {}
        for ra, rb in links:
            near.setdefault(ra, {ra}).add(rb)
        self._near = {r: frozenset(roots) for r, roots in near.items()}

    def root(self, word: str) -> str:
        """Representative of the word's synonym class."""
        return self._root.get(word, word)

    def synonymous(self, a: str, b: str) -> bool:
        return self.root(a) == self.root(b)

    def hypernym_of(self, u: str, v: str) -> bool:
        """True if u is a (transitive) hypernym of v."""
        return bool(self._links.get((self.root(u), self.root(v)), 0) & _HYPERNYM)

    def antonymous(self, a: str, b: str) -> bool:
        return bool(self._links.get((self.root(a), self.root(b)), 0) & _ANTONYM)

    def normalize(self, tokens: Sequence[str]) -> tuple[str, ...]:
        """The root of each token."""
        return tuple(map(self._root.get, tokens, tokens))

    # -- serialization ----------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> "Lexicon":
        """Read edges from a plain text file.

        Lines are ``syn w1 w2``, ``hyper parent child``, or ``ant w1 w2``;
        blank lines and ``#`` comments are ignored.  A hypernym cycle or an
        antonym within a synonym class names the line of the edge that
        completes it, the last of the shortest prefix of edges that raises.
        """
        kinds: dict = {kind: [] for kind in _EDGE_KINDS.values()}
        edges = []  # (line, constructor argument, word pair), in file order
        for lineno, line in config_lines(path):
            parts = line.split()
            if len(parts) != 3 or parts[0] not in _EDGE_KINDS:
                raise ValueError(
                    f"{path}:{lineno}: expected 'syn|hyper|ant word word'"
                )
            kind, pair = _EDGE_KINDS[parts[0]], (parts[1], parts[2])
            kinds[kind].append(pair)
            edges.append((lineno, kind, pair))
        try:
            return cls(**kinds)
        except ValueError:
            # an edge never mends either error: rebuild edge by edge
            kinds = {kind: [] for kind in kinds}
            for lineno, kind, pair in edges:
                kinds[kind].append(pair)
                try:
                    cls(**kinds)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
            raise

    def dump(self, path: str | Path) -> None:
        lines = [f"syn {a} {b}" for a, b in sorted(self._syn_edges)]
        lines += [f"hyper {a} {b}" for a, b in sorted(self._hyper_edges)]
        lines += [f"ant {a} {b}" for a, b in sorted(self._ant_edges)]
        write_lines(path, lines)


def default_lexicon() -> Lexicon:
    """Built-in lexicon covering the bundled grammar vocabulary."""
    return Lexicon(
        synonyms=[
            ("kid", "child"), ("kids", "children"),
            ("love", "like"), ("loves", "likes"),
            ("not", "n't"), ("little", "small"),
        ],
        hypernyms=[
            # (parent, child): the child denotes a subset of the parent
            ("animal", "dog"), ("animals", "dogs"),
            ("animal", "cat"), ("animals", "cats"),
            ("animal", "rabbit"), ("animals", "rabbits"),
            ("animal", "bird"), ("animals", "birds"),
            ("animal", "mammal"), ("animals", "mammals"),
            ("mammal", "dog"), ("mammals", "dogs"),
            ("mammal", "cat"), ("mammals", "cats"),
            ("dog", "beagle"), ("dogs", "beagles"),
            ("dog", "puppy"), ("dogs", "puppies"),
            ("cat", "kitten"), ("cats", "kittens"),
            ("person", "kid"), ("people", "kids"),
            ("sports", "table-tennis"),
            ("food", "hamburger"), ("food", "meat"),
            ("move", "run"), ("moves", "runs"),
            ("move", "walk"), ("moves", "walks"),
            ("move", "swim"), ("moves", "swims"),
            ("move", "fly"), ("moves", "flies"),
            ("run", "jog"), ("runs", "jogs"),
        ],
        antonyms=[
            ("run", "sleep"), ("runs", "sleeps"),
            ("run", "rest"), ("runs", "rests"),
            ("walk", "fly"), ("walks", "flies"),
            ("ocean", "fountain"),
            ("morning", "evening"),
            ("big", "small"), ("white", "black"), ("young", "old"),
        ],
    )


def align(
    hyp_chunk: Chunk,
    premise_chunks: Sequence[Chunk],
    lexicon: Lexicon,
) -> Optional[Chunk]:
    """Premise chunk with maximal lexical token overlap, or None.

    Overlap counts hypothesis tokens that are related (equal up to
    synonyms, hypernym in either direction, or antonym) to some token of
    the premise chunk.  Ties go to the leftmost premise chunk; zero
    overlap aligns nothing.
    """
    pair = ChunkedPair(tuple(premise_chunks), (hyp_chunk,))
    return compare_pair(pair, lexicon)[0][0]


def _subphrase(short: tuple[str, ...], long: tuple[str, ...]) -> bool:
    """Ordered subsequence test on normalized tokens; the caller checks
    that ``short`` is shorter, so that the subsequence is proper."""
    it = iter(long)
    return all(tok in it for tok in short)


_UNALIGNED = (None, (False,) * 7 + (0.0,))


def compare_pairs(
    pairs: Sequence[ChunkedPair], lexicon: Lexicon
) -> list[tuple[tuple, ...]]:
    """``compare_pair`` of every pair, each distinct fact computed once.

    The call interns chunks by their token tuples, and normalizes each
    distinct tuple once.  A premise chunk's near set holds its roots and
    every root linked to one of them.  Links are symmetric, so a
    hypothesis root is related to some root of a premise chunk exactly
    when it is in that set, and the overlap of a (hypothesis tokens,
    premise tokens) pair is a count of set lookups.  Across pairs, each
    distinct premise tuple gets its near set once, each distinct
    (hypothesis tokens, premise tokens) pair is scored once, and the
    lexical flags are computed once per distinct (hypothesis tokens,
    aligned tokens) pair, with the winning overlap as the
    ``token_overlap`` numerator.  A call with one pair has no other pair
    to share those with, so it keeps only the roots, and ``compare_pair``
    pays for no other table.  Each record still holds its pair's own
    aligned ``Chunk``.  Nothing is kept across calls.
    """
    normalize, near = lexicon.normalize, lexicon._near
    shared = len(pairs) > 1
    roots_of: dict = {}  # chunk tokens -> roots; a pair may repeat a chunk
    # kept only when there are pairs to share them: premise tokens -> (id,
    # near-set test), the id numbering them in order of first sight, and
    # hypothesis tokens -> ({premise id: overlap}, {aligned id: flags})
    tests: dict = {}
    tables: dict = {}
    out = []
    for pair in pairs:
        candidates = []
        for chunk in pair.premise:
            tokens = chunk.tokens
            roots = roots_of.get(tokens)
            if roots is None:
                roots = roots_of[tokens] = normalize(tokens)
            facts = tests.get(tokens) if shared else None
            if facts is None:
                reach = set(roots)
                for r in roots:
                    reach.update(near.get(r, ()))
                facts = (len(tests), reach.__contains__)
                if shared:
                    tests[tokens] = facts
            candidates.append((chunk, facts[0], roots, facts[1]))
        records = []
        for hyp in pair.hypothesis:
            tokens = hyp.tokens
            s = roots_of.get(tokens)
            if s is None:
                s = roots_of[tokens] = normalize(tokens)
            best, best_score = None, 0
            if shared:
                overlaps, known = tables.get(tokens) or tables.setdefault(
                    tokens, ({}, {})
                )
                for candidate in candidates:
                    score = overlaps.get(candidate[1])
                    if score is None:
                        score = overlaps[candidate[1]] = sum(map(candidate[3], s))
                    if score > best_score:
                        best, best_score = candidate, score
            else:
                known = None
                for candidate in candidates:
                    score = sum(map(candidate[3], s))
                    if score > best_score:
                        best, best_score = candidate, score
            if best is None:
                records.append(_UNALIGNED)
                continue
            aligned, pid, s_tilde, _ = best
            flags = None if known is None else known.get(pid)
            if flags is None:
                flags = _flags(tokens, s, aligned.tokens, s_tilde, best_score, lexicon)
                if known is not None:
                    known[pid] = flags
            records.append((aligned, flags))
        out.append(tuple(records))
    return out


def _flags(
    tokens: tuple[str, ...],
    s: tuple[str, ...],
    aligned: tuple[str, ...],
    s_tilde: tuple[str, ...],
    overlap: int,
    lexicon: Lexicon,
) -> tuple:
    """The lexical flags of hypothesis ``tokens`` (roots ``s``) aligned to
    premise tokens ``aligned`` (roots ``s_tilde``) with ``overlap``."""
    near, links = lexicon._near, lexicon._links
    synonym, bits = False, 0
    for u, ru in zip(tokens, s):
        linked = near.get(ru, ())  # no root is linked to itself
        for v, rv in zip(aligned, s_tilde):
            if ru == rv:
                synonym = synonym or u != v
            elif rv in linked:
                bits |= links[ru, rv]
    n, k = len(s), len(s_tilde)
    # in the policy's feature order; the last is align's score
    return (
        s == s_tilde,
        n < k and _subphrase(s, s_tilde),
        k < n and _subphrase(s_tilde, s),
        synonym,
        (bits & _HYPERNYM) != 0,
        (bits & _HYPONYM) != 0,
        (bits & _ANTONYM) != 0,
        overlap / n,
    )


def compare_pair(pair: ChunkedPair, lexicon: Lexicon) -> tuple[tuple, ...]:
    """Per hypothesis chunk, the aligned premise chunk (or None) and the
    lexical flags of the two: exact match and sub-phrase both ways (up to
    synonyms), synonymy between distinct tokens, hypernymy both ways,
    antonymy, and the share of hypothesis tokens related to some premise
    token, ``align``'s score.  They are all false when nothing aligns.
    Features and proposals both read these records, so a chunk is aligned
    once.
    """
    return compare_pairs([pair], lexicon)[0]


# the codes of the rules' four relations: every action but independence
_RULE_CODES = tuple(a.code for a in ACTIONS if a is not ActionRelation.INDEPENDENCE)


def _proposed(flags: tuple) -> tuple[int, ...]:
    """The action codes that the proposal rules above give a pair's
    lexical flags, in canonical action order."""
    exact, sub, sup, _, hyper_fwd, hyper_rev, antonym, _ = flags
    fired = (exact or sub, sub or hyper_fwd, sup or hyper_rev, antonym)
    return tuple([a for a, fires in zip(_RULE_CODES, fired) if fires])


def propose(
    hyp_chunk: Chunk,
    premise_chunk: Chunk,
    lexicon: Lexicon,
) -> tuple[ActionRelation, ...]:
    """Relations suggested by the lexicon for an aligned chunk pair.

    Returned in canonical action order; may be empty, as it is when the
    chunks share no related token.
    """
    pair = ChunkedPair((premise_chunk,), (hyp_chunk,))
    return tuple([ACTIONS[a] for a in _proposed(compare_pair(pair, lexicon)[0][1])])


def keys_from_records(records: Sequence[tuple]) -> tuple[tuple[int, int], ...]:
    """(step, action code) proposals from ``compare_pair`` records."""
    return tuple(
        (t, a)
        for t, (_, flags) in enumerate(records, start=1)
        for a in _proposed(flags)
    )


def proposal_keys(pair: ChunkedPair, lexicon: Lexicon) -> tuple[tuple[int, int], ...]:
    """(step, action code) proposals for a pair; independent of the policy."""
    return keys_from_records(compare_pair(pair, lexicon))


def queue_from_keys(keys: Iterable[tuple[int, int]], probs) -> list[tuple[int, int]]:
    """The distinct (step, action code) keys ranked by policy probability,
    in pop order.

    ``probs`` holds the per-step action distributions, ``probs[t - 1][a]``
    for step t and action code a.  One sort orders the keys by descending
    probability, then earlier step, then lower action code, best last, so
    a caller pops the best from the end.  That order is total over distinct
    keys, so the list depends only on the set of keys, not on their order
    or repetition.  A key whose step is not in 1..m raises ``ValueError``.
    """
    m = len(probs)
    ranked = []
    for t, a in dict.fromkeys(keys):
        if not 0 < t <= m:
            raise ValueError(f"key ({t}, {a}) has no step among {m} steps")
        ranked.append((-probs[t - 1][a], t, a))
    ranked.sort(reverse=True)
    return [(t, a) for _, t, a in ranked]
