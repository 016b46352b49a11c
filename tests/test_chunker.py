"""Chunk segmentation, projectivity marking, and grammar file round-trips."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from natlog.chunker import (
    ChunkRules,
    Sentence,
    chunk,
    chunk_pair,
    default_rules,
    mark_projectivity,
    tokenize,
)
from natlog.datagen import default_genspec, generate
from natlog.executor import Chunk, execute
from natlog.relations import ActionRelation, CONTEXTS, NLILabel, Relation

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
        for c in chunks:
            single = mark_projectivity(
                chunk(Sentence.parse(" ".join(c.tokens)), RULES), RULES
            )
            del single  # contexts depend on position, checked below instead
        assert chunks[1].tokens[0] == "does"
        assert chunks[1].context.name == "upward-default"

    def test_mark_projectivity_idempotent(self):
        for sentence in ("all dogs run", "no small dogs run", "some cats sleep"):
            once = chunk(Sentence.parse(sentence), RULES)
            twice = mark_projectivity(once, RULES)
            assert once == twice

    def test_chunk_marks_like_mark_projectivity_on_split_sentences(self):
        # chunk builds each chunk with its context in one pass; marking the
        # result again, or marking unmarked copies, must not change it
        spec = default_genspec()
        sentences = set()
        for noisy in (False, True):
            train, test = generate(dataclasses.replace(spec, noisy_test=noisy), RULES)
            sentences |= {s for ex in train + test for s in (ex.premise, ex.hypothesis)}
        assert len(sentences) > 500
        for text in sorted(sentences):
            chunks = chunk(Sentence.parse(text), RULES)
            unmarked = [Chunk(tokens=c.tokens, start=c.start) for c in chunks]
            assert chunks == mark_projectivity(chunks, RULES)
            assert chunks == mark_projectivity(unmarked, RULES)


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
