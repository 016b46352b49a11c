"""Chunk segmentation, projectivity marking, and grammar file round-trips."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from natlog.chunker import (
    ChunkRules,
    Sentence,
    chunk,
    chunk_pair,
    chunk_pairs,
    default_rules,
    tokenize,
)
from natlog.datagen import default_genspec, generate, generate_2hop
from natlog.executor import Chunk, ChunkedPair, execute
from natlog.relations import ActionRelation, CONTEXTS, NLILabel, Relation, UPWARD

RULES = default_rules()


def chunk_texts(sentence):
    return [c.text() for c in chunk(Sentence.parse(sentence), RULES)]


def chunk_contexts(sentence):
    return [c.context.name for c in chunk(Sentence.parse(sentence), RULES)]


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("All dogs RUN") == ("all", "dogs", "run")

    def test_splits_contractions(self):
        assert tokenize("doesn't like") == ("does", "n't", "like")

    def test_strips_punctuation(self):
        assert tokenize("near the shore, no dogs run.") == (
            "near", "the", "shore", "no", "dogs", "run",
        )

    def test_keeps_hyphenated_tokens(self):
        assert tokenize("table-tennis") == ("table-tennis",)

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("the dog isn't.", ("the", "dog", "is", "n't")),
            ("didn't,", ("did", "n't")),
            ("(doesn't) like", ("does", "n't", "like")),
            ("\"isn't\"", ("is", "n't")),
            ("n't.", ("n't",)),
        ],
    )
    def test_splits_contraction_next_to_punctuation(self, text, tokens):
        assert tokenize(text) == tokens


class TestChunking:
    def test_negated_verb_phrase(self):
        assert chunk_texts("the kid doesn't like table-tennis") == [
            "the kid", "does n't like", "table-tennis",
        ]

    def test_quantified_subject(self):
        assert chunk_texts("no dogs run") == ["no dogs", "run"]

    def test_quantifier_starts_noun_phrase(self):
        assert chunk_texts("all small dogs run quickly") == [
            "all small dogs", "run quickly",
        ]

    def test_single_token_sentence(self):
        assert chunk_texts("run") == ["run"]

    def test_prefix_modifier(self):
        assert chunk_texts("near the shore no dogs run") == [
            "near", "the shore", "no dogs", "run",
        ]

    def test_unknown_tokens_are_filler(self):
        assert chunk_texts("zorp the dog quietly blarg") == [
            "zorp", "the dog", "quietly blarg",
        ]

    def test_unknown_token_does_not_start_noun_phrase(self):
        # "zorp" precedes a noun but cannot join the noun phrase
        texts = chunk_texts("zorp dogs run")
        assert texts == ["zorp", "dogs", "run"]

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            chunk(Sentence(tokens=()), RULES)

    def test_chunks_partition_tokens(self):
        for sentence in (
            "all dogs run",
            "the kid does n't like table-tennis",
            "near the shore no small dogs run quickly",
        ):
            tokens = tokenize(sentence)
            chunks = chunk(Sentence(tokens=tokens), RULES)
            flat = tuple(t for c in chunks for t in c.tokens)
            assert flat == tokens
            starts = [c.start for c in chunks]
            assert starts == sorted(starts)
            assert chunks[0].start == 0
            for prev, cur in zip(chunks, chunks[1:]):
                assert cur.start == prev.end

    @given(
        st.lists(
            st.sampled_from(
                ["all", "some", "no", "the", "small", "dogs", "cats",
                 "animals", "run", "sleep", "not", "quickly", "zorp"]
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_partition_property(self, tokens):
        chunks = chunk(Sentence(tokens=tuple(tokens)), RULES)
        flat = [t for c in chunks for t in c.tokens]
        assert flat == tokens
        assert all(len(c.tokens) > 0 for c in chunks)


class TestProjectivity:
    def test_universal_quantifier(self):
        assert chunk_contexts("all dogs run") == ["all-arg1", "all-arg2"]

    def test_every_uses_universal_rows(self):
        assert chunk_contexts("every cat sleeps") == ["all-arg1", "all-arg2"]

    def test_existential_quantifier(self):
        assert chunk_contexts("some dogs run") == ["some-arg1", "some-arg2"]

    def test_negative_quantifier_covers_own_phrase(self):
        assert chunk_contexts("no dogs run") == ["not", "not"]

    def test_negator_scope_is_strictly_after(self):
        # the chunk containing n't starts before it, so it stays upward
        assert chunk_contexts("the kid does n't like table-tennis") == [
            "upward-default", "upward-default", "not",
        ]

    def test_unquantified_sentence_is_upward(self):
        assert chunk_contexts("the dog runs quickly") == [
            "upward-default", "upward-default",
        ]

    def test_prefix_before_trigger_is_upward(self):
        assert chunk_contexts("near the shore no dogs run") == [
            "upward-default", "upward-default", "not", "not",
        ]

    def test_nearest_trigger_wins(self):
        # n't overrides the all-arg2 scope for chunks that start after it
        assert chunk_contexts("all dogs do n't like table-tennis") == [
            "all-arg1", "all-arg2", "not",
        ]

    def test_negator_inside_chunk_does_not_mark_it(self):
        # the filler run [do n't run] starts before the negator, so the
        # chunk keeps the context of its first token
        assert chunk_contexts("all dogs do n't run") == [
            "all-arg1", "all-arg2",
        ]

    def test_context_comes_from_first_token(self):
        chunks = chunk(Sentence.parse("the kid does n't like table-tennis"), RULES)
        assert chunks[1].tokens[0] == "does"
        assert chunks[1].context.name == "upward-default"

    def test_contraction_before_punctuation_negates_what_follows(self):
        # the negator survives the comma, so the rest is under "not"
        assert chunk_contexts("the kid didn't, the dog runs") == [
            "upward-default", "upward-default", "not", "not",
        ]
        assert chunk_contexts("the dog isn't. the cat") == chunk_contexts(
            "the dog isn't the cat"
        ) == ["upward-default", "upward-default", "not"]

    def test_chunk_equals_reference_on_split_sentences(self):
        # chunk builds each chunk with its context in one pass; the
        # frozenset chunker below must agree on every generated sentence
        spec = default_genspec()
        sentences = set()
        for noisy in (False, True):
            train, test = generate(dataclasses.replace(spec, noisy_test=noisy), RULES)
            sentences |= {s for ex in train + test for s in (ex.premise, ex.hypothesis)}
        assert len(sentences) > 500
        for text in sorted(sentences):
            sentence = Sentence.parse(text)
            assert chunk(sentence, RULES) == reference_chunk(sentence.tokens, RULES)


# The chunker before the word-class table: frozenset tests per token.
def _reference_noun_phrase_end(tokens, i, rules):
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
    return k if k > j else i


def _reference_spans(tokens, rules):
    spans = []
    i = 0
    run_start = None
    while i < len(tokens):
        end = _reference_noun_phrase_end(tokens, i, rules)
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


def _reference_token_contexts(tokens, rules):
    n = len(tokens)
    contexts = [UPWARD] * n
    for i, token in enumerate(tokens):
        if token == "no" and token in rules.quantifiers:
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
            np_end = _reference_noun_phrase_end(tokens, i, rules)
            restrictor_end = np_end if np_end > i else i + 1
            for j in range(i, restrictor_end):
                contexts[j] = arg1
            for j in range(restrictor_end, n):
                contexts[j] = arg2
    return contexts


def reference_chunk(tokens, rules):
    contexts = _reference_token_contexts(tokens, rules)
    return tuple(
        Chunk(tokens=tuple(tokens[a:b]), start=a, context=contexts[a])
        for a, b in _reference_spans(tokens, rules)
    )


# A grammar whose word classes overlap, so that a token's role bits
# carry more than one role.
OVERLAPPING = ChunkRules(
    quantifiers=frozenset({"all", "some", "no", "that"}),
    negators=frozenset({"not", "no"}),
    determiners=frozenset({"the", "that", "some"}),
    adjectives=frozenset({"small", "black", "dog"}),
    nouns=frozenset({"dog", "dogs", "black", "small"}),
)


class TestWordClassTable:
    VOCABULARY = sorted(RULES.vocabulary()) + ["zorp", "blarg"]

    @settings(max_examples=1000, deadline=None)
    @given(
        st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=12),
        st.sampled_from([RULES, OVERLAPPING]),
    )
    def test_equals_frozenset_chunker(self, tokens, rules):
        tokens = tuple(tokens)
        assert chunk(tokens, rules) == reference_chunk(tokens, rules)

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.sampled_from(sorted(OVERLAPPING.vocabulary()) + ["run", "zorp"]),
            min_size=1,
            max_size=10,
        )
    )
    def test_overlapping_classes(self, tokens):
        tokens = tuple(tokens)
        assert chunk(tokens, OVERLAPPING) == reference_chunk(tokens, OVERLAPPING)

    def test_table_follows_replaced_word_classes(self):
        rules = dataclasses.replace(RULES, nouns=RULES.nouns | {"zorp"})
        assert chunk_texts("zorp dogs run") == ["zorp", "dogs", "run"]
        assert [c.text() for c in chunk(tokenize("zorp dogs run"), rules)] == [
            "zorp dogs", "run",
        ]

    def test_table_is_not_compared_or_shown(self):
        loaded = ChunkRules(
            quantifiers=RULES.quantifiers,
            negators=RULES.negators,
            determiners=RULES.determiners,
            adjectives=RULES.adjectives,
            nouns=RULES.nouns,
            verbs=RULES.verbs,
            extra=RULES.extra,
        )
        assert loaded == RULES
        assert "_classes" not in repr(RULES)


def _split_sentences():
    spec = default_genspec()
    _, noisy_test = generate(dataclasses.replace(spec, noisy_test=True), RULES)
    train, test = generate(spec, RULES)
    return train + test + noisy_test + generate_2hop(spec, RULES)


class TestChunkPairs:
    def test_equals_per_pair_chunking_on_every_split(self):
        examples = _split_sentences()
        pairs = [(e.premise, e.hypothesis) for e in examples]
        distinct = {s for pair in pairs for s in pair}
        assert len(distinct) < len(pairs)  # sentences repeat across pairs
        expected = [
            ChunkedPair(
                premise=chunk(Sentence.parse(p), RULES),
                hypothesis=chunk(Sentence.parse(h), RULES),
            )
            for p, h in pairs
        ]
        assert chunk_pairs(pairs, RULES) == expected
        assert [chunk_pair(p, h, RULES) for p, h in pairs] == expected

    def test_duplicates_and_mixed_inputs(self):
        # strings, Sentences and token lists, the same sentence in several
        # forms within one call
        examples = _split_sentences()
        forms = (str, Sentence.parse, lambda text: list(tokenize(text)))
        mixed = [
            (forms[i % 3](e.premise), forms[i % 2](e.hypothesis))
            for i, e in enumerate(examples)
        ]
        mixed += mixed[::2] + [(e.premise, e.premise) for e in examples[:20]]

        def alone(sentence):
            if isinstance(sentence, str):
                sentence = Sentence.parse(sentence)
            return chunk(sentence, RULES)

        expected = [ChunkedPair(alone(p), alone(h)) for p, h in mixed]
        assert [chunk_pair(p, h, RULES) for p, h in mixed] == expected
        assert chunk_pairs(mixed, RULES) == expected
        assert chunk_pairs(iter(mixed), RULES) == expected
        assert chunk_pairs([], RULES) == []

    def test_shared_memo_chunks_each_sentence_once(self, monkeypatch):
        """Each distinct sentence is read once (one ``_role_bits``) and each
        distinct shape chunked once (one ``_shape``) per call; neither table
        outlives the call."""
        import natlog.chunker as chunker

        sentences, shapes = [], []
        role_bits, shape = chunker._role_bits, chunker._shape

        def counting_bits(tokens, rules):
            sentences.append(tuple(tokens))
            return role_bits(tokens, rules)

        def counting_shape(tokens, bits):
            shapes.append(tuple(tokens))
            return shape(tokens, bits)

        monkeypatch.setattr(chunker, "_role_bits", counting_bits)
        monkeypatch.setattr(chunker, "_shape", counting_shape)
        # "all dogs run" and "all animals run" share a shape; "some dogs run"
        # has the same role bits but another trigger word
        pairs = [("all dogs run", "all animals run"), ("all dogs run", "some dogs run")]
        chunk_pairs(pairs, RULES)
        assert sentences == [
            ("all", "dogs", "run"), ("all", "animals", "run"), ("some", "dogs", "run")
        ]
        assert shapes == [("all", "dogs", "run"), ("some", "dogs", "run")]
        chunk_pairs([("some dogs run", "all dogs run")], RULES)
        assert len(sentences) == 5  # a fresh memo per call
        assert len(shapes) == 4  # and a fresh table of shapes

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rules=st.sampled_from([RULES, OVERLAPPING]))
    def test_shapes_equal_reference_chunking(self, data, rules):
        """A batch of random sentences, each also with every trigger word in
        turn at one drawn position, so that shapes differ only in the
        trigger: ``chunk_pairs`` equals ``reference_chunk`` of each."""
        words = st.sampled_from(sorted(rules.vocabulary()) + ["run", "zorp"])
        sentences = []
        for body in data.draw(
            st.lists(st.lists(words, max_size=8), min_size=1, max_size=4)
        ):
            at = data.draw(st.integers(0, len(body)))
            sentences += [
                tuple(body[:at]) + (trigger,) + tuple(body[at:])
                for trigger in ("no", "every", "some", "not")
            ]
        sentences = data.draw(st.permutations(sentences))
        pairs = list(zip(sentences, sentences[1:] + sentences[:1]))
        # every other premise as text, which chunk_pairs tokenizes
        as_given = [
            (" ".join(p) if i % 2 else p, h) for i, (p, h) in enumerate(pairs)
        ]
        expected = [
            ChunkedPair(reference_chunk(p, rules), reference_chunk(h, rules))
            for p, h in pairs
        ]
        assert chunk_pairs(as_given, rules) == expected

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError, match="empty sentence"):
            chunk_pairs([("all dogs run", "all dogs run"), ("...", "dogs")], RULES)


class TestExecutorComposition:
    def test_downward_flip_under_no(self):
        # premise: no dogs run / hypothesis: no small dogs run
        pair = chunk_pair("no dogs run", "no small dogs run", RULES)
        trace = execute(
            pair,
            (ActionRelation.REVERSE_ENTAILMENT, ActionRelation.EQUIVALENCE),
        )
        assert trace.projected[0] == Relation.FORWARD_ENTAILMENT
        assert trace.label == NLILabel.ENTAILMENT

    def test_forward_entailment_flips_to_reverse(self):
        # under the negative quantifier a forward step projects to reverse
        pair = chunk_pair("no small dogs run", "no dogs run", RULES)
        trace = execute(
            pair,
            (ActionRelation.FORWARD_ENTAILMENT, ActionRelation.EQUIVALENCE),
        )
        assert trace.projected[0] == Relation.REVERSE_ENTAILMENT
        assert trace.label == NLILabel.NEUTRAL

    def test_existential_preserves_forward(self):
        pair = chunk_pair("some dogs run", "some animals run", RULES)
        trace = execute(
            pair,
            (ActionRelation.FORWARD_ENTAILMENT, ActionRelation.EQUIVALENCE),
        )
        assert trace.projected[0] == Relation.FORWARD_ENTAILMENT
        assert trace.label == NLILabel.ENTAILMENT


class TestGrammarFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "grammar.txt"
        RULES.dump(path)
        loaded = ChunkRules.load(path)
        assert loaded == RULES

    def test_load_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "grammar.txt"
        path.write_text(
            "# tiny grammar\n\n"
            "quantifiers: all some\n"
            "negators: not\n"
            "determiners: the\n"
            "adjectives: small\n"
            "nouns: dog dogs\n"
            "verbs: run\n"
            "adverbs: quickly\n"
        )
        rules = ChunkRules.load(path)
        assert rules.quantifiers == {"all", "some"}
        assert rules.extra["adverbs"] == {"quickly"}
        assert "quickly" in rules.vocabulary()

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "grammar.txt"
        path.write_text("quantifiers all some\n")
        with pytest.raises(ValueError):
            ChunkRules.load(path)

    def test_duplicate_section_rejected(self, tmp_path):
        path = tmp_path / "grammar.txt"
        path.write_text("nouns: dog\nverbs: run\nnouns: cat\n")
        with pytest.raises(ValueError) as info:
            ChunkRules.load(path)
        assert str(info.value) == f"{path}:3: duplicate key 'nouns'"

    def test_dump_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        RULES.dump(a)
        RULES.dump(b)
        assert a.read_bytes() == b.read_bytes()
