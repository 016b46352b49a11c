"""Lexicon queries, chunk alignment, proposal rules, and queue ordering."""

import dataclasses
import enum
import heapq

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from natlog.chunker import chunk_pair, default_rules
from natlog.datagen import default_genspec, generate
from natlog.executor import Chunk, ChunkedPair
from natlog.knowledge import (
    Lexicon,
    _proposed,
    align,
    compare,
    compare_pair,
    default_lexicon,
    proposal_keys,
    propose,
    queue_from_keys,
)
from natlog.relations import ACTIONS, ActionRelation

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


def rows_with(m, probs, default=0.2):
    """An (m, 5) probability array: ``default`` everywhere, except
    ``probs[(t, relation)]`` at step t's entry for the relation."""
    rows = np.full((m, 5), default)
    for (t, relation), p in probs.items():
        rows[t - 1, ACTIONS.index(relation)] = p
    return rows


def popped(queue):
    """Every key of a ``queue_from_keys`` list, popped from its end."""
    return [queue.pop() for _ in range(len(queue))]


class TestProposalQueue:
    """``queue_from_keys``: the distinct keys in one list, best last."""

    def test_orders_by_probability(self):
        keys = [(2, A_EQ), (1, A_FE), (3, A_RE)]
        probs = rows_with(3, {(2, A_EQ): 0.3, (1, A_FE): 0.9, (3, A_RE): 0.5})
        q = queue_from_keys(keys, probs)
        assert [probs[t - 1, r.code] for t, r in popped(q)] == [0.9, 0.5, 0.3]

    def test_probability_ties_break_on_earlier_step(self):
        q = queue_from_keys([(3, A_EQ), (1, A_EQ), (2, A_EQ)], rows_with(3, {}))
        assert [t for t, _ in popped(q)] == [1, 2, 3]

    def test_full_ties_break_on_action_order(self):
        keys = [(1, A_NA), (1, A_EQ), (1, A_RE), (1, A_FE)]
        q = queue_from_keys(keys, rows_with(1, {}, default=0.5))
        assert [r for _, r in popped(q)] == [A_EQ, A_FE, A_RE, A_NA]

    def test_deduplicates_on_step_and_relation(self):
        q = queue_from_keys([(1, A_EQ), (1, A_EQ)], rows_with(1, {}, default=0.5))
        assert q == [(1, A_EQ)]

    def test_items_is_non_destructive_and_sorted(self):
        # ranking leaves its keys and probabilities as they were, and the
        # list read backwards is the pop order
        keys = [(2, A_EQ), (1, A_FE)]
        probs = rows_with(2, {(2, A_EQ): 0.3, (1, A_FE): 0.9})
        before = probs.copy()
        q = queue_from_keys(keys, probs)
        assert q[::-1] == [(1, A_FE), (2, A_EQ)]
        assert keys == [(2, A_EQ), (1, A_FE)]
        assert np.array_equal(probs, before)
        again = queue_from_keys(keys, probs)
        assert again == q and again is not q

    @pytest.mark.parametrize("step", [0, -1, 3, 7])
    def test_step_outside_the_program_rejected(self, step):
        # step 0 would read the last row and step 3 past the end of 2 rows
        rows = [[0.1] * 5, [0.9] * 5]
        with pytest.raises(ValueError, match=rf"key \({step}, <≡>\).* 2 steps"):
            queue_from_keys([(step, A_EQ), (1, A_EQ)], rows)


def reference_queue_order(keys, probs):
    """First of each (step, relation) key, sorted on (-probability, step,
    canonical action index): best first."""
    def rank(key):
        t, a = key[0], ACTIONS.index(key[1])
        return (-probs[t - 1][a], t, a)

    return sorted(dict.fromkeys(keys), key=rank)


key_lists = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from(list(ActionRelation))), max_size=20
)
# ties are common: every entry is one of four probabilities
prob_rows = arrays(np.float64, (3, 5), elements=st.sampled_from([0.0, 0.25, 0.5, 1.0]))


class HeapQueue:
    """Reference queue: a ``heapq`` heap of ((-probability, step, action
    index), key) pairs, deduplicated on (step, action index) while a key is
    queued."""

    def __init__(self, keys, probs):
        self.heap, self.queued, self.probs = [], set(), probs
        for key in keys:
            self.push(key)

    def push(self, key):
        t, relation = key
        a = ACTIONS.index(relation)
        if (t, a) not in self.queued:
            self.queued.add((t, a))
            heapq.heappush(self.heap, ((-float(self.probs[t - 1][a]), t, a), key))

    def pop(self):
        (_, t, a), key = heapq.heappop(self.heap)
        self.queued.discard((t, a))
        return key

    def items(self):
        """The queued keys, best first, leaving the heap as it is."""
        return [key for _, key in sorted(self.heap)]


class TestProposalQueueEqualsHeap:
    @settings(max_examples=300, deadline=None)
    @given(key_lists, prob_rows)
    def test_pops_in_heap_and_sorted_order(self, keys, probs):
        q = queue_from_keys(keys, probs)
        ref = HeapQueue(keys, probs)
        assert q[::-1] == reference_queue_order(keys, probs)
        assert len(q) == len(ref.heap)
        assert popped(q) == [ref.pop() for _ in range(len(ref.heap))]
        with pytest.raises(IndexError):
            q.pop()

    @settings(max_examples=300, deadline=None)
    @given(key_lists, st.lists(st.one_of(st.none(), key_lists), max_size=12), prob_rows)
    def test_pushes_and_pops_interleaved(self, keys, steps, probs):
        # a step is a pop (None) or a push of keys, which may be queued,
        # popped before or new; a push re-ranks the pending list with them
        q, ref = queue_from_keys(keys, probs), HeapQueue(keys, probs)
        for step in steps:
            if step is None and not ref.heap:
                with pytest.raises(IndexError):
                    q.pop()
            elif step is None:
                assert q.pop() == ref.pop()
            else:
                q = queue_from_keys(q + step, probs)
                for key in step:
                    ref.push(key)
            assert q[::-1] == ref.items()
        assert popped(q) == [ref.pop() for _ in range(len(ref.heap))]


class TestProposalQueueEqualsSortedProposals:
    @settings(max_examples=300, deadline=None)
    @given(
        key_lists,
        prob_rows,
        st.integers(0, 20),
        st.sets(st.tuples(st.integers(1, 3), st.sampled_from(list(ActionRelation)))),
    )
    def test_pop_items_and_intersect(self, keys, probs, pops, wanted):
        # after some pops the pending list is the rest of the sorted order;
        # narrowing it to wanted keys (as grid_search does) keeps that order
        q = queue_from_keys(keys, probs)
        expected = reference_queue_order(keys, probs)
        pops = min(pops, len(q))
        assert [q.pop() for _ in range(pops)] == expected[:pops]
        assert q[::-1] == expected[pops:]
        narrowed = [key for key in q if key in wanted]
        assert queue_from_keys(narrowed, probs) == narrowed
        assert narrowed[::-1] == [key for key in expected[pops:] if key in wanted]


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
    keys = [(t, relation) for t in (1, 2, 1) for relation in ActionRelation]
    probs = np.array([[0.1] * 5, [0.2] * 5])
    q = queue_from_keys(keys, probs)
    popped = [q.pop() for _ in range(3)]
    assert len(q) == 7 and len(popped) == 3
    assert enum_hashes == []


class TestBuildQueue:
    """``queue_from_keys`` of a pair's ``proposal_keys``, as training ranks
    its proposals."""

    def test_sports_fixture_proposals(self):
        pair = chunk_pair(
            "the child does not love sports",
            "the kid doesn't like table-tennis",
            RULES,
        )
        probs = np.full((3, 5), 0.2)
        queue = queue_from_keys(proposal_keys(pair, LEX), probs)
        assert set(queue) == {(1, A_EQ), (2, A_EQ), (3, A_RE)}
        # uniform probabilities: ties resolve by earlier step
        assert [t for t, _ in popped(queue)] == [1, 2, 3]

    def test_probabilities_come_from_policy(self):
        pair = chunk_pair("some dogs run", "some animals run", RULES)
        probs = np.array(
            [
                [0.1, 0.6, 0.1, 0.1, 0.1],
                [0.5, 0.2, 0.1, 0.1, 0.1],
            ]
        )
        queue = queue_from_keys(proposal_keys(pair, LEX), probs)
        best = max(probs[t - 1][relation.code] for t, relation in queue)
        t, relation = queue.pop()
        assert (t, relation) == (1, A_FE)
        assert probs[t - 1][relation.code] == pytest.approx(0.6) == best

    def test_unalignable_chunk_contributes_nothing(self):
        pair = chunk_pair("some dogs run", "some dogs blarg", RULES)
        probs = np.full((2, 5), 0.2)
        queue = queue_from_keys(proposal_keys(pair, LEX), probs)
        assert queue and all(t == 1 for t, _ in queue)


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
