"""Execution traces, rationale extraction, and exhaustive enumeration."""

import itertools

import pytest
from hypothesis import given, strategies as st

from natlog.chunker import chunk_pair, default_rules
from natlog.executor import (
    Chunk,
    ChunkedPair,
    Trace,
    enumerate_programs,
    execute,
    extract_rationales,
    matches_target,
)
from natlog.relations import (
    ACTIONS,
    CONTEXTS,
    ActionRelation,
    NLILabel,
    Relation,
    UPWARD,
    group,
    join,
    project,
)

A_EQ = ActionRelation.EQUIVALENCE
A_FE = ActionRelation.FORWARD_ENTAILMENT
A_RE = ActionRelation.REVERSE_ENTAILMENT
A_NA = ActionRelation.NEG_ALT
A_IND = ActionRelation.INDEPENDENCE

EQ = Relation.EQUIVALENCE
FE = Relation.FORWARD_ENTAILMENT
RE = Relation.REVERSE_ENTAILMENT
ALT = Relation.ALTERNATION
IND = Relation.INDEPENDENCE

NOT = CONTEXTS["not"]


def upward_pair(n_premise, n_hypothesis, contexts=None):
    """Small synthetic pair; token content is irrelevant to execution."""
    contexts = contexts or [UPWARD] * n_hypothesis
    premise = tuple(
        Chunk(tokens=(f"p{i}",), start=i) for i in range(n_premise)
    )
    hypothesis = tuple(
        Chunk(tokens=(f"h{i}",), start=i, context=contexts[i])
        for i in range(n_hypothesis)
    )
    return ChunkedPair(premise=premise, hypothesis=hypothesis)


@pytest.fixture
def negated_sports_pair():
    """Premise: the child does not love sports.

    Hypothesis chunked as [the kid][does n't like][table-tennis] with the
    last chunk inside the negation scope.
    """
    premise = (
        Chunk(tokens=("the", "child"), start=0),
        Chunk(tokens=("does", "not", "love"), start=2),
        Chunk(tokens=("sports",), start=5),
    )
    hypothesis = (
        Chunk(tokens=("the", "kid"), start=0),
        Chunk(tokens=("does", "n't", "like"), start=2),
        Chunk(tokens=("table-tennis",), start=5, context=NOT),
    )
    return ChunkedPair(premise=premise, hypothesis=hypothesis)


@pytest.fixture
def biker_ocean_pair():
    """Premise: a biker rides next to a fountain.

    Hypothesis chunked as [a biker rides][next to][the ocean], all upward.
    """
    premise = (
        Chunk(tokens=("a", "biker", "rides"), start=0),
        Chunk(tokens=("next", "to"), start=3),
        Chunk(tokens=("a", "fountain"), start=5),
    )
    hypothesis = (
        Chunk(tokens=("a", "biker", "rides"), start=0),
        Chunk(tokens=("next", "to"), start=3),
        Chunk(tokens=("the", "ocean"), start=5),
    )
    return ChunkedPair(premise=premise, hypothesis=hypothesis)


class TestWorkedTraces:
    def test_negated_hypernym_entails(self, negated_sports_pair):
        trace = execute(negated_sports_pair, (A_EQ, A_EQ, A_RE))
        assert trace.projected == (EQ, EQ, FE)  # downward flip at step 3
        assert trace.states == (EQ, EQ, EQ, FE)
        assert trace.label == NLILabel.ENTAILMENT
        assert trace.rationales == (3,)

    def test_alternation_contradicts(self, biker_ocean_pair):
        trace = execute(biker_ocean_pair, (A_FE, A_EQ, A_NA))
        assert trace.projected == (FE, EQ, ALT)
        assert trace.states == (EQ, FE, FE, ALT)
        assert trace.label == NLILabel.CONTRADICTION
        assert trace.rationales == (3,)


class TestExecute:
    def test_all_equivalence_trace(self):
        pair = upward_pair(3, 3)
        trace = execute(pair, (A_EQ,) * 3)
        assert trace.states == (EQ, EQ, EQ, EQ)
        assert trace.label == NLILabel.ENTAILMENT
        assert trace.rationales == ()

    def test_states_length_is_m_plus_one(self):
        for m in range(1, 5):
            trace = execute(upward_pair(2, m), (A_EQ,) * m)
            assert len(trace.states) == m + 1
            assert trace.states[0] == EQ

    def test_program_length_mismatch_rejected(self):
        pair = upward_pair(2, 3)
        with pytest.raises(ValueError):
            execute(pair, (A_EQ, A_EQ))

    def test_empty_hypothesis_rejected(self):
        with pytest.raises(ValueError):
            ChunkedPair(premise=(), hypothesis=())

    def test_matches_left_to_right_fold(self):
        # independent fold using the raw algebra ops
        pair = upward_pair(2, 4, contexts=[UPWARD, NOT, UPWARD, NOT])
        program = (A_FE, A_RE, A_EQ, A_NA)
        z = EQ
        for chunk, action in zip(pair.hypothesis, program):
            z = join(z, project(chunk.context, action.to_relation()))
        trace = execute(pair, program)
        assert trace.final_state == z
        assert trace.label == group(z)

    @given(
        st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=5),
    )
    def test_independence_absorbs_suffix(self, suffix, seed):
        program = (A_IND,) + tuple(suffix)
        pair = upward_pair(1, len(program))
        trace = execute(pair, program)
        assert all(s == IND for s in trace.states[1:])
        assert trace.label == NLILabel.NEUTRAL

    def test_deterministic(self, negated_sports_pair):
        a = execute(negated_sports_pair, (A_EQ, A_EQ, A_RE))
        b = execute(negated_sports_pair, (A_EQ, A_EQ, A_RE))
        assert a == b


class TestRationales:
    def make_trace(self, states, label):
        m = len(states) - 1
        pair = upward_pair(1, m)
        return Trace(
            pair=pair,
            actions=(A_EQ,) * m,
            projected=(EQ,) * m,
            states=tuple(states),
            label=label,
            rationales=(),
        )

    def test_repeated_state_not_a_rationale(self):
        # z_1 is the only state change; z_2 and z_3 repeat it
        trace = self.make_trace([EQ, FE, FE, FE], NLILabel.ENTAILMENT)
        assert extract_rationales(trace) == (1,)

    def test_state_change_with_wrong_group_excluded(self):
        # z_1 = forward entailment changes state but groups as entailment,
        # not the final neutral label, so only step 2 qualifies
        trace = self.make_trace([EQ, FE, IND, IND], NLILabel.NEUTRAL)
        assert extract_rationales(trace) == (2,)

    def test_multiple_rationales(self):
        trace = self.make_trace([EQ, FE, IND, RE], NLILabel.NEUTRAL)
        assert extract_rationales(trace) == (2, 3)

    def test_no_state_change_no_rationales(self):
        trace = self.make_trace([EQ, EQ, EQ], NLILabel.ENTAILMENT)
        assert extract_rationales(trace) == ()

    def test_indices_are_one_based(self):
        trace = self.make_trace([EQ, FE], NLILabel.ENTAILMENT)
        assert extract_rationales(trace) == (1,)

    def test_token_indices_follow_chunks(self, negated_sports_pair):
        trace = execute(negated_sports_pair, (A_EQ, A_EQ, A_RE))
        assert trace.rationale_token_indices() == (5,)


def brute_force_reaching(pair, target):
    out = []
    for program in itertools.product(ACTIONS, repeat=pair.m):
        if matches_target(execute(pair, program), target):
            out.append(program)
    return out


class TestEnumeration:
    def test_m1_entailment_programs(self):
        pair = upward_pair(1, 1)
        programs = list(enumerate_programs(pair, NLILabel.ENTAILMENT))
        assert programs == [(A_EQ,), (A_FE,)]

    def test_m2_contradiction_against_oracle(self):
        pair = upward_pair(1, 2)
        target = NLILabel.CONTRADICTION
        assert list(enumerate_programs(pair, target)) == brute_force_reaching(
            pair, target
        )

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("target", list(NLILabel))
    def test_oracle_agreement_upward(self, m, target):
        pair = upward_pair(2, m)
        assert list(enumerate_programs(pair, target)) == brute_force_reaching(
            pair, target
        )

    @pytest.mark.parametrize("target", list(NLILabel))
    def test_oracle_agreement_mixed_contexts(self, target):
        contexts = [CONTEXTS["not"], CONTEXTS["all-arg1"], UPWARD]
        pair = upward_pair(2, 3, contexts=contexts)
        assert list(enumerate_programs(pair, target)) == brute_force_reaching(
            pair, target
        )

    def test_relation_target(self):
        pair = upward_pair(1, 2)
        for program in enumerate_programs(pair, RE):
            assert execute(pair, program).final_state == RE

    def test_cap_enforced(self):
        pair = upward_pair(1, 9)
        with pytest.raises(ValueError):
            list(enumerate_programs(pair, NLILabel.ENTAILMENT, cap=8))

    def test_lexicographic_order(self):
        pair = upward_pair(1, 2)
        programs = list(enumerate_programs(pair, NLILabel.ENTAILMENT))
        order = {a: i for i, a in enumerate(ACTIONS)}
        keys = [tuple(order[a] for a in p) for p in programs]
        assert keys == sorted(keys)


class TestHashing:
    def chunked(self):
        return chunk_pair(
            "the child does not love sports",
            "the kid doesn't like table-tennis",
            default_rules(),
        )

    def test_equal_chunks_pairs_and_traces_hash_equal(self):
        pair, again = self.chunked(), self.chunked()
        assert NOT in {c.context for c in pair.hypothesis}
        chunks = pair.premise + pair.hypothesis
        for a, b in zip(chunks, again.premise + again.hypothesis):
            assert a == b and hash(a) == hash(b)
        assert pair == again and hash(pair) == hash(again)
        program = (A_EQ, A_EQ, A_FE)
        trace = execute(pair, program)
        assert trace == execute(again, program)
        assert hash(trace) == hash(execute(again, program))

    def test_pair_and_trace_are_dict_keys(self):
        pair = self.chunked()
        trace = execute(pair, (A_EQ, A_EQ, A_FE))
        table = {pair: trace, trace: pair}
        again = self.chunked()
        assert table[again] == trace
        assert table[execute(again, (A_EQ, A_EQ, A_FE))] == pair
