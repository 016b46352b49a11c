"""Lexicon queries, chunk alignment, proposal rules, and queue ordering."""

import dataclasses
import enum

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from natlog.chunker import chunk_pair, default_rules
from natlog.datagen import default_genspec, generate
from natlog.executor import Chunk, ChunkedPair
from natlog.knowledge import (
    Lexicon,
    Proposal,
    ProposalQueue,
    _proposed,
    align,
    build_queue,
    compare,
    compare_pair,
    default_lexicon,
    proposal_keys,
    propose,
)
from natlog.relations import ActionRelation

A_EQ = ActionRelation.EQUIVALENCE
A_FE = ActionRelation.FORWARD_ENTAILMENT
A_RE = ActionRelation.REVERSE_ENTAILMENT
A_NA = ActionRelation.NEG_ALT

LEX = default_lexicon()
RULES = default_rules()


def make_chunk(text, start=0):
    return Chunk(tokens=tuple(text.split()), start=start)


class TestLexicon:
    def test_synonym_closure_is_transitive(self):
        lex = Lexicon(synonyms=[("a", "b"), ("b", "c")])
        assert lex.synonymous("a", "c")
        assert lex.root("a") == lex.root("c")

    def test_flattened_roots_equal_class_minimum(self, tmp_path):
        # brute force: walk each word's synonym class breadth-first; the
        # representative is the class's lexicographically smallest word
        def walked_roots(lexicon, path):
            lexicon.dump(path)
            edges = [line.split() for line in path.read_text().splitlines()]
            words = {w for _, *pair in edges for w in pair}
            neighbours = {w: set() for w in words}
            for kind, a, b in edges:
                if kind == "syn":
                    neighbours[a].add(b)
                    neighbours[b].add(a)
            roots = {}
            for word in words:
                seen, frontier = {word}, [word]
                while frontier:
                    frontier = [n for w in frontier for n in neighbours[w] if n not in seen]
                    seen.update(frontier)
                roots[word] = min(seen)
            return roots

        rng = np.random.default_rng(0)
        names = [f"w{i:02d}" for i in range(40)]
        chain = Lexicon(synonyms=[(names[i + 1], names[i + 2]) for i in range(30)][::-1])
        shuffled = Lexicon(synonyms=[tuple(rng.choice(names, 2)) for _ in range(30)])
        for i, lexicon in enumerate((LEX, chain, shuffled)):
            roots = walked_roots(lexicon, tmp_path / f"lexicon{i}.txt")
            assert len(roots) > 20
            assert {w: lexicon.root(w) for w in roots} == roots
        assert LEX.root("not-in-the-lexicon") == "not-in-the-lexicon"

    def test_hypernym_direct(self):
        assert LEX.hypernym_of("animal", "dog")
        assert not LEX.hypernym_of("dog", "animal")

    def test_hypernym_transitive(self):
        # animal > dog > beagle
        assert LEX.hypernym_of("animal", "beagle")

    def test_hypernym_through_synonyms(self):
        lex = Lexicon(synonyms=[("pup", "puppy")], hypernyms=[("dog", "puppy")])
        assert lex.hypernym_of("dog", "pup")

    def test_antonyms_are_symmetric(self):
        assert LEX.antonymous("run", "sleep")
        assert LEX.antonymous("sleep", "run")

    def test_hypernym_cycle_rejected(self):
        with pytest.raises(ValueError, match="hypernym cycle through a, b"):
            Lexicon(hypernyms=[("a", "b"), ("b", "a")])

    def test_hypernym_cycle_through_synonyms_rejected(self):
        # c is a synonym of a, so a > b > c makes a's class its own hypernym
        with pytest.raises(ValueError, match="hypernym cycle"):
            Lexicon(synonyms=[("a", "c")], hypernyms=[("a", "b"), ("b", "c")])

    def test_load_names_path_of_cyclic_lexicon(self, tmp_path):
        path = tmp_path / "cyclic.lex"
        path.write_text("hyper a b\nhyper b a\n")
        with pytest.raises(ValueError, match=f"{path}: hypernym cycle"):
            Lexicon.load(path)

    def test_antonym_within_synonym_class_rejected(self):
        with pytest.raises(ValueError, match="^antonym within a synonym class: big$"):
            Lexicon(synonyms=[("big", "large")], antonyms=[("big", "large")])
        # named by the class representative, whichever words the edge uses
        with pytest.raises(ValueError, match="^antonym within a synonym class: a$"):
            Lexicon(synonyms=[("a", "b"), ("b", "c")], antonyms=[("c", "b")])

    def test_load_names_path_of_antonym_within_synonym_class(self, tmp_path):
        path = tmp_path / "contradictory.lex"
        path.write_text("syn big large\nant large big\n")
        with pytest.raises(
            ValueError, match=f"^{path}: antonym within a synonym class: big$"
        ):
            Lexicon.load(path)

    def test_related_covers_all_edge_kinds(self):
        assert LEX.related("dog", "dog")
        assert LEX.related("kid", "child")
        assert LEX.related("dog", "animal")
        assert LEX.related("animal", "dog")
        assert LEX.related("run", "sleep")
        assert not LEX.related("dog", "run")

    def test_load_dump_round_trip(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        LEX.dump(path)
        loaded = Lexicon.load(path)
        assert loaded.synonymous("kid", "child")
        assert loaded.hypernym_of("animal", "beagle")
        assert loaded.antonymous("run", "sleep")
        path2 = tmp_path / "again.txt"
        loaded.dump(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_load_with_comments(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        path.write_text("# edges\nsyn kid child\n\nhyper animal dog\nant run sleep\n")
        lex = Lexicon.load(path)
        assert lex.synonymous("kid", "child")

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        path.write_text("syn kid\n")
        with pytest.raises(ValueError):
            Lexicon.load(path)
        path.write_text("hypo animal dog\n")
        with pytest.raises(ValueError):
            Lexicon.load(path)


class TestAlign:
    @pytest.fixture
    def sports_pair(self):
        return chunk_pair(
            "the child does not love sports",
            "the kid doesn't like table-tennis",
            RULES,
        )

    def test_hypernym_edge_counts_for_overlap(self, sports_pair):
        aligned = align(sports_pair.hypothesis[2], sports_pair.premise, LEX)
        assert aligned is not None
        assert aligned.text() == "sports"

    def test_synonym_alignment(self, sports_pair):
        aligned = align(sports_pair.hypothesis[0], sports_pair.premise, LEX)
        assert aligned.text() == "the child"

    def test_zero_overlap_aligns_nothing(self):
        hyp = make_chunk("table-tennis")
        premise = [make_chunk("run quickly"), make_chunk("the fountain", 2)]
        assert align(hyp, premise, LEX) is None

    def test_ties_go_leftmost(self):
        hyp = make_chunk("the dog")
        premise = [make_chunk("the cat"), make_chunk("the bird", 2)]
        # only "the" overlaps in both candidates
        assert align(hyp, premise, LEX) is premise[0]

    def test_antonym_edge_supports_alignment(self):
        hyp = make_chunk("the ocean")
        premise = [make_chunk("rides quickly"), make_chunk("a fountain", 2)]
        aligned = align(hyp, premise, LEX)
        assert aligned is premise[1]


class TestPropose:
    def test_synonym_equality_gives_equivalence(self):
        out = propose(make_chunk("the kid"), make_chunk("the child"), LEX)
        assert out == (A_EQ,)

    def test_subphrase_gives_equivalence_and_forward(self):
        out = propose(make_chunk("some dogs"), make_chunk("some small dogs"), LEX)
        assert out == (A_EQ, A_FE)

    def test_hypernym_forward(self):
        out = propose(make_chunk("some animals"), make_chunk("some dogs"), LEX)
        assert out == (A_FE,)

    def test_hypernym_reverse(self):
        out = propose(make_chunk("table-tennis"), make_chunk("sports"), LEX)
        assert out == (A_RE,)

    def test_superphrase_gives_reverse(self):
        out = propose(make_chunk("some small dogs"), make_chunk("some dogs"), LEX)
        assert out == (A_RE,)

    def test_antonym_gives_neg_alt(self):
        out = propose(make_chunk("the ocean"), make_chunk("a fountain"), LEX)
        assert out == (A_NA,)

    def test_unrelated_chunks_give_nothing(self):
        out = propose(make_chunk("run quickly"), make_chunk("the dog"), LEX)
        assert out == ()

    def test_identical_chunks(self):
        out = propose(make_chunk("run quickly"), make_chunk("run quickly"), LEX)
        assert out == (A_EQ,)


class TestProposalQueue:
    def test_orders_by_probability(self):
        q = ProposalQueue(
            [
                Proposal(t=2, relation=A_EQ, prob=0.3),
                Proposal(t=1, relation=A_FE, prob=0.9),
                Proposal(t=3, relation=A_RE, prob=0.5),
            ]
        )
        assert [p.prob for p in (q.pop(), q.pop(), q.pop())] == [0.9, 0.5, 0.3]

    def test_probability_ties_break_on_earlier_step(self):
        q = ProposalQueue(
            [
                Proposal(t=3, relation=A_EQ, prob=0.5),
                Proposal(t=1, relation=A_EQ, prob=0.5),
                Proposal(t=2, relation=A_EQ, prob=0.5),
            ]
        )
        assert [p.t for p in (q.pop(), q.pop(), q.pop())] == [1, 2, 3]

    def test_full_ties_break_on_action_order(self):
        q = ProposalQueue(
            [
                Proposal(t=1, relation=A_NA, prob=0.5),
                Proposal(t=1, relation=A_EQ, prob=0.5),
                Proposal(t=1, relation=A_RE, prob=0.5),
                Proposal(t=1, relation=A_FE, prob=0.5),
            ]
        )
        rels = [q.pop().relation for _ in range(4)]
        assert rels == [A_EQ, A_FE, A_RE, A_NA]

    def test_deduplicates_on_step_and_relation(self):
        q = ProposalQueue()
        q.push(Proposal(t=1, relation=A_EQ, prob=0.5))
        q.push(Proposal(t=1, relation=A_EQ, prob=0.5))
        assert len(q) == 1

    def test_items_is_non_destructive_and_sorted(self):
        q = ProposalQueue(
            [
                Proposal(t=2, relation=A_EQ, prob=0.3),
                Proposal(t=1, relation=A_FE, prob=0.9),
            ]
        )
        items = q.items()
        assert [p.prob for p in items] == [0.9, 0.3]
        assert len(q) == 2

    def test_intersect_filters_by_key(self):
        q = ProposalQueue(
            [
                Proposal(t=1, relation=A_EQ, prob=0.4),
                Proposal(t=2, relation=A_FE, prob=0.6),
            ]
        )
        other = q.intersect([(2, A_FE), (3, A_RE)])
        assert other.keys() == frozenset({(2, A_FE)})
        assert len(q) == 2


def reference_queue_order(proposals):
    """First proposal per (step, relation) key, in ``Proposal`` order."""
    first = {}
    for p in proposals:
        first.setdefault(p.key, p)
    return sorted(first.values())


proposal_lists = st.lists(
    st.builds(
        Proposal,
        t=st.integers(min_value=1, max_value=3),
        relation=st.sampled_from(list(ActionRelation)),
        prob=st.sampled_from([0.0, 0.25, 0.5, 1.0]),  # ties are common
    ),
    max_size=20,
)


class TestProposalQueueEqualsSortedProposals:
    @settings(max_examples=300, deadline=None)
    @given(
        proposal_lists,
        st.sets(st.tuples(st.integers(1, 3), st.sampled_from(list(ActionRelation)))),
    )
    def test_pop_items_and_intersect(self, proposals, wanted):
        q = ProposalQueue(proposals)
        expected = reference_queue_order(proposals)
        assert q.items() == expected
        assert q.keys() == frozenset(p.key for p in expected)
        assert q.intersect(wanted).items() == [p for p in expected if p.key in wanted]
        assert [q.pop() for _ in range(len(q))] == expected
        assert not q and q.keys() == frozenset()


@pytest.fixture
def enum_hashes(monkeypatch):
    """Every ``Enum.__hash__`` call, recorded while the test runs."""
    calls = []
    original = enum.Enum.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(enum.Enum, "__hash__", counting)
    hash(A_EQ)
    assert calls == [A_EQ]
    calls.clear()
    return calls


def test_queue_hashes_no_enum(enum_hashes):
    proposals = [
        Proposal(t=t, relation=relation, prob=0.1 * t)
        for t in (1, 2, 1)
        for relation in ActionRelation
    ]
    q = ProposalQueue(proposals)
    narrowed = q.intersect([(1, A_FE), (2, A_NA)])
    popped = [q.pop() for _ in range(3)]
    assert len(q) == 7 and len(narrowed) == 2 and len(popped) == 3
    assert enum_hashes == []


class TestBuildQueue:
    def test_sports_fixture_proposals(self):
        pair = chunk_pair(
            "the child does not love sports",
            "the kid doesn't like table-tennis",
            RULES,
        )
        probs = np.full((3, 5), 0.2)
        queue = build_queue(pair, probs, LEX)
        assert queue.keys() == frozenset({(1, A_EQ), (2, A_EQ), (3, A_RE)})
        # uniform probabilities: ties resolve by earlier step
        assert [p.t for p in queue.items()] == [1, 2, 3]

    def test_probabilities_come_from_policy(self):
        pair = chunk_pair("some dogs run", "some animals run", RULES)
        probs = np.array(
            [
                [0.1, 0.6, 0.1, 0.1, 0.1],
                [0.5, 0.2, 0.1, 0.1, 0.1],
            ]
        )
        queue = build_queue(pair, probs, LEX)
        top = queue.pop()
        assert top.key == (1, A_FE)
        assert top.prob == pytest.approx(0.6)

    def test_unalignable_chunk_contributes_nothing(self):
        pair = chunk_pair("some dogs run", "some dogs blarg", RULES)
        probs = np.full((2, 5), 0.2)
        queue = build_queue(pair, probs, LEX)
        assert all(p.t == 1 for p in queue.items())


class ReferenceLexicon:
    """Lexicon queries answered by search over the raw edge lists.

    Independent of ``Lexicon``'s tables: a word's synonym class is found by
    breadth-first search over the synonym edges, and u is a hypernym of v
    when a breadth-first search over hypernym edges, leaving from any word
    of the classes reached so far, reaches v.
    """

    def __init__(self, synonyms=(), hypernyms=(), antonyms=()):
        self.synonyms = tuple(synonyms) + tuple((b, a) for a, b in synonyms)
        self.hypernyms = tuple(hypernyms)  # (parent, child)
        self.antonyms = tuple(antonyms)
        self._classes = {}  # word -> synonym class, memoized per instance

    @classmethod
    def of(cls, lexicon, path):
        """The raw edges of a lexicon, read back from its dump."""
        lexicon.dump(path)
        edges = {"syn": [], "hyper": [], "ant": []}
        for line in path.read_text().splitlines():
            kind, a, b = line.split()
            edges[kind].append((a, b))
        return cls(edges["syn"], edges["hyper"], edges["ant"])

    def synonym_class(self, word):
        if word not in self._classes:
            seen, frontier = {word}, {word}
            while frontier:
                frontier = {b for a, b in self.synonyms if a in frontier} - seen
                seen |= frontier
            self._classes[word] = frozenset(seen)
        return self._classes[word]

    def canonical(self, word):
        return min(self.synonym_class(word))

    def synonymous(self, a, b):
        return b in self.synonym_class(a)

    def hypernym_of(self, u, v):
        reached, frontier = set(), self.synonym_class(u)
        while frontier:
            children = [c for p, c in self.hypernyms if p in frontier]
            frontier = set().union(*map(self.synonym_class, children)) - reached
            reached |= frontier
        return v in reached

    def antonymous(self, a, b):
        ca, cb = self.synonym_class(a), self.synonym_class(b)
        return any(
            (x in ca and y in cb) or (x in cb and y in ca) for x, y in self.antonyms
        )

    def related(self, a, b):
        return (
            self.synonymous(a, b)
            or self.hypernym_of(a, b)
            or self.hypernym_of(b, a)
            or self.antonymous(a, b)
        )

    def consistent(self):
        """No class is its own hypernym and no antonym pair is one class."""
        words = {w for edge in self.synonyms + self.hypernyms for w in edge}
        return not any(self.hypernym_of(w, w) for w in words) and not any(
            self.synonymous(a, b) for a, b in self.antonyms
        )


def _reference_compare(hyp, premise_chunks, ref):
    """Aligned chunk and lexical flags by separate brute-force scans."""

    def overlap(chunk):
        return sum(any(ref.related(u, v) for v in chunk.tokens) for u in hyp.tokens)

    scores = [overlap(c) for c in premise_chunks]
    if max(scores, default=0) == 0:
        return None, (0.0,) * 8
    aligned = premise_chunks[scores.index(max(scores))]  # leftmost best
    s = tuple(map(ref.canonical, hyp.tokens))
    s_tilde = tuple(map(ref.canonical, aligned.tokens))
    pairs = [(u, v) for u in hyp.tokens for v in aligned.tokens]

    def subphrase(short, long):
        it = iter(long)
        return len(short) < len(long) and all(tok in it for tok in short)

    flags = (
        s == s_tilde,
        subphrase(s, s_tilde),
        subphrase(s_tilde, s),
        any(u != v and ref.synonymous(u, v) for u, v in pairs),
        any(ref.hypernym_of(u, v) for u, v in pairs),
        any(ref.hypernym_of(v, u) for u, v in pairs),
        any(ref.antonymous(u, v) for u, v in pairs),
        overlap(aligned) / len(hyp.tokens),
    )
    return aligned, tuple(float(f) for f in flags)


@pytest.fixture(scope="module")
def split_pairs():
    """Chunked pairs of the default compositional and noisy splits."""
    spec = default_genspec()
    sides = set()
    for noisy in (False, True):
        train, test = generate(dataclasses.replace(spec, noisy_test=noisy), RULES)
        sides |= {(ex.premise, ex.hypothesis) for ex in train + test}
    return [chunk_pair(p, h, RULES) for p, h in sorted(sides)]


class TestOneComparison:
    def test_proposal_keys_match_per_chunk_proposals(self, split_pairs):
        assert len(split_pairs) > 4000
        for pair in split_pairs:
            expected = []
            for t, hyp in enumerate(pair.hypothesis, start=1):
                aligned = align(hyp, pair.premise, LEX)
                if aligned is not None:
                    expected += [(t, rel) for rel in propose(hyp, aligned, LEX)]
            assert proposal_keys(pair, LEX) == tuple(expected)

    def test_flags_match_brute_force_scans(self, split_pairs, tmp_path):
        ref = ReferenceLexicon.of(LEX, tmp_path / "default.lex")
        for pair in split_pairs:
            for hyp in pair.hypothesis:
                aligned, flags = compare(hyp, pair.premise, LEX)
                ref_aligned, ref_flags = _reference_compare(hyp, pair.premise, ref)
                assert aligned is ref_aligned
                assert tuple(float(f) for f in flags) == ref_flags

    def test_unaligned_chunk_has_no_flags_or_proposals(self):
        pair = chunk_pair("some dogs run", "some dogs blarg", RULES)
        aligned, flags = compare(pair.hypothesis[1], pair.premise, LEX)
        assert aligned is None
        assert flags == (False,) * 7 + (0.0,)
        assert all(t == 1 for t, _ in proposal_keys(pair, LEX))


WORDS = [f"w{i}" for i in range(10)]
edges = st.tuples(*[st.sampled_from(WORDS)] * 2)
chunk_tokens = st.lists(st.sampled_from(WORDS + ["unknown"]), min_size=1, max_size=3)


@st.composite
def consistent_edges(draw):
    """Random synonym, hypernym and antonym edges that make a consistent
    lexicon: each hypernym edge is oriented from the synonym class with the
    smaller representative to the larger one, so no class is its own
    hypernym, and edges inside one class are dropped from the hypernyms
    and antonyms."""
    synonyms = draw(st.lists(edges, max_size=4))
    rank = ReferenceLexicon(synonyms).canonical
    hypernyms = [
        tuple(sorted(edge, key=rank))
        for edge in draw(st.lists(edges, max_size=6))
        if rank(edge[0]) != rank(edge[1])
    ]
    antonyms = [
        edge
        for edge in draw(st.lists(edges, max_size=4))
        if rank(edge[0]) != rank(edge[1])
    ]
    return synonyms, hypernyms, antonyms


class TestLexiconEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(
        synonyms=st.lists(edges, max_size=4),
        hypernyms=st.lists(edges, max_size=6),
        antonyms=st.lists(edges, max_size=4),
    )
    def test_inconsistent_lexicon_raises(self, synonyms, hypernyms, antonyms):
        ref = ReferenceLexicon(synonyms, hypernyms, antonyms)
        event(f"consistent: {ref.consistent()}")
        if ref.consistent():
            Lexicon(synonyms, hypernyms, antonyms)
        else:
            with pytest.raises(ValueError):
                Lexicon(synonyms, hypernyms, antonyms)

    @settings(max_examples=500, deadline=None)
    @given(
        lexicon_edges=consistent_edges(),
        hypothesis_chunks=st.lists(chunk_tokens, min_size=1, max_size=3),
        premise_chunks=st.lists(chunk_tokens, min_size=1, max_size=5),
    )
    # a tie between two premise chunks, which the leftmost wins, and a
    # hypothesis chunk that overlaps no premise chunk
    @example(
        lexicon_edges=([("w1", "w2")], [("w3", "w4")], []),
        hypothesis_chunks=[["w1", "w4"], ["w5"]],
        premise_chunks=[["w0"], ["w2", "w0"], ["w3"]],
    )
    def test_random_lexicon(self, lexicon_edges, hypothesis_chunks, premise_chunks):
        ref = ReferenceLexicon(*lexicon_edges)
        assert ref.consistent()
        lex = Lexicon(*lexicon_edges)
        for a in WORDS + ["unknown"]:
            assert lex.root(a) == ref.canonical(a)
            for b in WORDS + ["unknown"]:
                assert lex.synonymous(a, b) == ref.synonymous(a, b)
                assert lex.hypernym_of(a, b) == ref.hypernym_of(a, b)
                assert lex.antonymous(a, b) == ref.antonymous(a, b)
                assert lex.related(a, b) == ref.related(a, b)
        premise = tuple(Chunk(tokens=tuple(t), start=i) for i, t in enumerate(premise_chunks))
        hypothesis = tuple(Chunk(tokens=tuple(t), start=0) for t in hypothesis_chunks)
        records = compare_pair(ChunkedPair(premise=premise, hypothesis=hypothesis), lex)
        assert len(records) == len(hypothesis)
        for hyp, (aligned, flags) in zip(hypothesis, records):
            ref_aligned, ref_flags = _reference_compare(hyp, premise, ref)
            assert aligned is ref_aligned
            assert tuple(float(f) for f in flags) == ref_flags
            assert compare(hyp, premise, lex) == (aligned, flags)
            assert align(hyp, premise, lex) is aligned
            event(_overlap_kind(hyp, premise, ref))
            for chunk in premise:
                _, pair_flags = _reference_compare(hyp, [chunk], ref)
                assert propose(hyp, chunk, lex) == _proposed(pair_flags)


def _overlap_kind(hyp, premise, ref):
    """Whether the hypothesis chunk overlaps nothing, one best premise
    chunk, or several tied ones."""
    scores = [
        sum(any(ref.related(u, v) for v in chunk.tokens) for u in hyp.tokens)
        for chunk in premise
    ]
    best = max(scores)
    if best == 0:
        return "zero overlap"
    return "tied best" if scores.count(best) > 1 else "one best"
