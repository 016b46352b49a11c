"""Execution traces, rationale extraction, and exhaustive enumeration."""

import dataclasses
import inspect
import itertools

import pytest
from hypothesis import event, given, settings, strategies as st

from natlog.chunker import chunk_pair, default_rules
from natlog.executor import (
    Chunk,
    ChunkedPair,
    Trace,
    enumerate_programs,
    execute,
    extract_rationales,
    matches_target,
    single_edits,
    suffix_counts,
)
from natlog.relations import (
    ACTIONS,
    CONTEXTS,
    ActionRelation,
    NLILabel,
    ProjectivityContext,
    Relation,
    UPWARD,
    accepting,
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
        for program in [(A_EQ, A_EQ), (A_EQ,) * 4]:
            with pytest.raises(ValueError, match="program length"):
                execute(pair, program)
            with pytest.raises(ValueError, match="program length"):
                single_edits(pair, [a.code for a in program], NLILabel.ENTAILMENT)

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
            list(enumerate_programs(pair, NLILabel.ENTAILMENT))

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


class TestRecordConstructors:
    def test_records_keep_frozen_dataclass_semantics(self):
        """The hand-written ``__init__``s of ``Chunk``, ``ChunkedPair`` and
        ``Trace`` take the dataclass fields and keep frozen-dataclass
        equality, hashing, ``repr``, ``replace`` and assignment errors."""
        pair = chunk_pair(
            "the child does not love sports",
            "the kid doesn't like table-tennis",
            default_rules(),
        )
        trace = execute(pair, (A_EQ, A_FE, A_RE))
        for record in (pair.hypothesis[-1], pair, trace):
            cls = type(record)
            fields = dataclasses.fields(cls)
            params = list(inspect.signature(cls.__init__).parameters.values())[1:]
            assert [(p.name, p.kind, p.default) for p in params] == [
                (
                    f.name,
                    inspect.Parameter.POSITIONAL_OR_KEYWORD,
                    inspect.Parameter.empty
                    if f.default is dataclasses.MISSING
                    else f.default,
                )
                for f in fields
            ]
            values = {f.name: getattr(record, f.name) for f in fields}
            assert vars(record) == values
            for again in (
                cls(*values.values()),
                cls(**values),
                dataclasses.replace(record),
            ):
                assert type(again) is cls and vars(again) == values
                assert again == record and hash(again) == hash(record)
                assert repr(again) == repr(record)
            first = fields[0].name
            assert repr(record).startswith(f"{cls.__name__}({first}={values[first]!r}, ")
            for f in fields:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, f.name, values[f.name])
            assert vars(record) == values
        moved = dataclasses.replace(pair.premise[0], start=7)
        assert (moved.tokens, moved.start) == (pair.premise[0].tokens, 7)
        assert moved != pair.premise[0]
        with pytest.raises(ValueError, match="at least one chunk"):
            ChunkedPair(pair.premise, ())
        with pytest.raises(ValueError, match="at least one chunk"):
            dataclasses.replace(pair, hypothesis=())


def reference_execute(pair, program):
    """The fields of ``execute``'s trace by the enum-level operations:
    project each action through its chunk's context, fold with ``join``,
    group the final state, and scan the states for rationales."""
    program = tuple(program)
    state = EQ
    states = [state]
    projected = []
    for chunk, action in zip(pair.hypothesis, program):
        r = project(chunk.context, action.to_relation())
        projected.append(r)
        state = join(state, r)
        states.append(state)
    label = group(state)
    rationales = tuple(
        t
        for t in range(1, len(states))
        if states[t] != states[t - 1] and group(states[t]) == label
    )
    return {
        "pair": pair,
        "actions": program,
        "projected": tuple(projected),
        "states": tuple(states),
        "label": label,
        "rationales": rationales,
    }


def reference_matches(fields, target):
    if isinstance(target, NLILabel):
        return fields["label"] == target
    return fields["states"][-1] == target


# the six named contexts and an unknown name, which projects as identity
any_context = st.sampled_from(
    list(CONTEXTS.values()) + [ProjectivityContext("unnamed")]
)
any_target = st.sampled_from(list(NLILabel) + list(Relation))


@st.composite
def pairs_and_programs(draw):
    m = draw(st.integers(1, 6))
    contexts = draw(st.lists(any_context, min_size=m, max_size=m))
    program = tuple(draw(st.lists(st.sampled_from(ACTIONS), min_size=m, max_size=m)))
    return upward_pair(draw(st.integers(1, 3)), m, contexts), program


class TestExecutorEqualsReference:
    """``execute`` and the searches on top of it against the enum-level
    reference, on random contexts and programs of 1 to 6 steps."""

    @settings(max_examples=300, deadline=None)
    @given(case=pairs_and_programs(), target=any_target)
    def test_execute_reaches_and_single_edits(self, case, target):
        pair, program = case
        event(f"m = {pair.m}")
        expected = reference_execute(pair, program)
        trace = execute(pair, program)
        assert vars(trace) == expected
        assert trace.final_state == expected["states"][-1]
        assert extract_rationales(trace) == expected["rationales"]
        assert trace == execute(pair, list(program))
        reached = reference_matches(expected, target)
        assert matches_target(trace, target) is reached
        assert single_edits(pair, [a.code for a in program], target) == [
            (t, action.code)
            for t in range(1, pair.m + 1)
            for action in ACTIONS
            if reference_matches(
                reference_execute(
                    pair, program[: t - 1] + (action,) + program[t:]
                ),
                target,
            )
        ]

    @settings(max_examples=60, deadline=None)
    @given(case=pairs_and_programs(), target=any_target)
    def test_enumerate_programs(self, case, target):
        pair, _ = case
        event(f"m = {pair.m}")
        assert list(enumerate_programs(pair, target)) == [
            program
            for program in itertools.product(ACTIONS, repeat=pair.m)
            if reference_matches(reference_execute(pair, program), target)
        ]


def reference_counts(rows, target):
    """Entry k, state s: how many choices over the last k rows lead from s
    to a state meeting ``target``, by folding every choice sequence with
    the enum-level ``join``."""
    relations = list(Relation)
    counts = []
    for k in range(len(rows) + 1):
        tail = [[relations[p] for p in row] for row in rows[len(rows) - k :]]
        entry = []
        for start in relations:
            n = 0
            for seq in itertools.product(*tail):
                state = start
                for r in seq:
                    state = join(state, r)
                final = group(state) if isinstance(target, NLILabel) else state
                n += final == target
            entry.append(n)
        counts.append(tuple(entry))
    return counts


def context_rows(pair):
    return [chunk.context.action_codes for chunk in pair.hypothesis]


class TestSuffixCounts:
    """The backward count that ``single_edits``, ``natlog oracle`` and
    ``trainer.reward`` read, against ``enumerate_programs`` and a fold of
    every choice sequence."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_enumeration_for_every_context_combination(self, m):
        targets = list(NLILabel) + list(Relation)
        for contexts in itertools.product(CONTEXTS.values(), repeat=m):
            pair = upward_pair(1, m, contexts)
            for target in targets:
                counts = suffix_counts(context_rows(pair), accepting(target))
                assert counts[m][EQ.code] == len(
                    list(enumerate_programs(pair, target))
                ), (contexts, target)

    @settings(max_examples=40, deadline=None)
    @given(
        contexts=st.integers(4, 6).flatmap(
            lambda m: st.lists(any_context, min_size=m, max_size=m)
        ),
        target=any_target,
    )
    def test_equals_enumeration_for_long_programs(self, contexts, target):
        pair = upward_pair(1, len(contexts), contexts)
        event(f"m = {pair.m}")
        counts = suffix_counts(context_rows(pair), accepting(target))
        assert counts[pair.m][EQ.code] == len(list(enumerate_programs(pair, target)))

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.integers(0, 6), min_size=0, max_size=5).map(tuple),
            min_size=0,
            max_size=4,
        ),
        target=any_target,
    )
    def test_every_entry_and_start_state_equals_folded_sequences(self, rows, target):
        counts = suffix_counts(rows, accepting(target))
        assert counts[0] is accepting(target)
        assert [tuple(map(int, c)) for c in counts] == reference_counts(rows, target)


# Nested scopes, mis-projected today: the chunker gives each scope a flat
# run to the end of the sentence and the nearest trigger wins, so "not all"
# marks "all dogs" as all-arg1 and "that no dogs chase" marks "chase move" as
# not.  Each case passes once the verdict is right or the chunker refuses the
# sentence with a ValueError that names it.
NESTED_SCOPES = [
    ("not all dogs run", "not all animals run", (A_EQ, A_FE, A_EQ), "entailment"),
    ("not all animals run", "not all dogs run", (A_EQ, A_RE, A_EQ), "neutral"),
    (
        "all cats that no dogs chase run",
        "all cats that no dogs chase move",
        (A_EQ, A_EQ, A_EQ, A_FE),
        "entailment",
    ),
]


class TestNestedScopes:
    @pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="nested scopes are projected flat"
    )
    @pytest.mark.parametrize("premise, hypothesis, program, label", NESTED_SCOPES)
    def test_verdict_or_refusal(self, premise, hypothesis, program, label):
        try:
            pair = chunk_pair(premise, hypothesis, default_rules())
        except ValueError as exc:
            assert premise in str(exc) or hypothesis in str(exc)
            return
        assert execute(pair, program).label is NLILabel(label)
