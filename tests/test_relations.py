"""Cell-by-cell checks of the relation algebra tables, and reachability
as ``executor.suffix_counts`` counts it over upward rows."""

import dataclasses
import enum
import itertools

import pytest
from hypothesis import given, strategies as st

from natlog.executor import suffix_counts
from natlog.relations import (
    ACTION_IMAGE,
    ACTIONS,
    CONTEXTS,
    GROUP,
    JOIN,
    LABELS,
    RELATIONS,
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

EQ = Relation.EQUIVALENCE
FE = Relation.FORWARD_ENTAILMENT
RE = Relation.REVERSE_ENTAILMENT
NEG = Relation.NEGATION
ALT = Relation.ALTERNATION
COV = Relation.COVER
IND = Relation.INDEPENDENCE

# Independent transcription of the join table, row by row, in the order
# (EQ, FE, RE, NEG, ALT, COV, IND) for both axes.
JOIN_EXPECTED = {
    EQ:  (EQ, FE, RE, NEG, ALT, COV, IND),
    FE:  (FE, FE, IND, ALT, ALT, IND, IND),
    RE:  (RE, IND, RE, COV, IND, COV, IND),
    NEG: (NEG, COV, ALT, EQ, RE, FE, IND),
    ALT: (ALT, IND, ALT, FE, IND, FE, IND),
    COV: (COV, COV, IND, RE, RE, IND, IND),
    IND: (IND, IND, IND, IND, IND, IND, IND),
}

# Independent transcription of the projection rows, same input order.
PROJECTION_EXPECTED = {
    "upward-default": (EQ, FE, RE, NEG, ALT, COV, IND),
    "all-arg1":  (EQ, RE, FE, ALT, IND, ALT, IND),
    "all-arg2":  (EQ, FE, RE, ALT, ALT, IND, IND),
    "some-arg1": (EQ, FE, RE, COV, IND, COV, IND),
    "some-arg2": (EQ, FE, RE, COV, IND, COV, IND),
    "not":       (EQ, RE, FE, NEG, COV, ALT, IND),
}

# Independent transcription of the label partition and the action images
# (in ACTIONS order: EQ, FE, RE, NEG_ALT, IND).
GROUP_EXPECTED = {
    EQ: NLILabel.ENTAILMENT,
    FE: NLILabel.ENTAILMENT,
    NEG: NLILabel.CONTRADICTION,
    ALT: NLILabel.CONTRADICTION,
    RE: NLILabel.NEUTRAL,
    COV: NLILabel.NEUTRAL,
    IND: NLILabel.NEUTRAL,
}
ACTION_IMAGE_EXPECTED = (EQ, FE, RE, ALT, IND)


class TestJoinTable:
    @pytest.mark.parametrize("a", RELATIONS)
    @pytest.mark.parametrize("b", RELATIONS)
    def test_every_cell(self, a, b):
        expected = JOIN_EXPECTED[a][RELATIONS.index(b)]
        assert join(a, b) == expected

    def test_equivalence_is_two_sided_identity(self):
        for r in RELATIONS:
            assert join(EQ, r) == r
            assert join(r, EQ) == r

    def test_independence_absorbs(self):
        for r in RELATIONS:
            assert join(IND, r) == IND
            assert join(r, IND) == IND

    def test_total_on_all_pairs(self):
        for a, b in itertools.product(RELATIONS, RELATIONS):
            assert join(a, b) in RELATIONS


class TestProjection:
    @pytest.mark.parametrize("name", sorted(PROJECTION_EXPECTED))
    @pytest.mark.parametrize("idx", range(7))
    def test_every_cell(self, name, idx):
        ctx = CONTEXTS[name]
        assert project(ctx, RELATIONS[idx]) == PROJECTION_EXPECTED[name][idx]

    def test_upward_default_is_identity(self):
        for r in RELATIONS:
            assert project(CONTEXTS["upward-default"], r) == r

    def test_unknown_context_projects_as_identity(self):
        ctx = ProjectivityContext("mystery-context")
        for r in RELATIONS:
            assert project(ctx, r) == r

    def test_some_rows_coincide(self):
        for r in RELATIONS:
            assert project(CONTEXTS["some-arg1"], r) == project(
                CONTEXTS["some-arg2"], r
            )


class TestContextValues:
    def test_compared_fields_are_name_and_row(self):
        compared = [
            f.name for f in dataclasses.fields(ProjectivityContext) if f.compare
        ]
        assert compared == ["name", "codes"]

    @pytest.mark.parametrize("name", sorted(CONTEXTS))
    def test_equal_contexts_hash_equal(self, name):
        ctx = CONTEXTS[name]
        rebuilt = ProjectivityContext(name, ctx.codes)
        assert rebuilt == ctx
        assert hash(rebuilt) == hash(ctx)
        assert rebuilt.action_codes == ctx.action_codes
        assert {ctx: name}[rebuilt] == name
        assert f"codes={ctx.codes!r}" in repr(ctx)

    def test_unknown_context_is_a_hashable_identity(self):
        a, b = ProjectivityContext("mystery"), ProjectivityContext("mystery")
        assert a == b and hash(a) == hash(b)
        assert a.codes == tuple(range(len(RELATIONS)))
        assert a.codes == UPWARD.codes and a != UPWARD

    def test_shared_row_keeps_contexts_apart(self):
        some1, some2 = CONTEXTS["some-arg1"], CONTEXTS["some-arg2"]
        assert some1.codes == some2.codes
        assert some1 != some2
        assert len({some1: 1, some2: 2}) == 2


class TestGrouping:
    def test_grouping_is_total_and_matches_partition(self):
        for r in RELATIONS:
            assert group(r) == GROUP_EXPECTED[r]


def set_relation(x, y, universe):
    """The one of the seven relations that holds between the sets ``x`` and
    ``y`` (bit masks) in the universe ``universe``, by the definitions in
    the ``relations`` module docstring."""
    if x == y:
        return EQ
    if x & y == x:
        return FE
    if x & y == y:
        return RE
    if not x & y:
        return NEG if x | y == universe else ALT
    return COV if x | y == universe else IND


def proper_subsets(size):
    """Every non-empty, non-universal subset of a universe of ``size``
    elements, as bit masks, and the universe."""
    universe = (1 << size) - 1
    return range(1, universe), universe


class TestSetSemantics:
    """The join table and the ``not`` row derived from set semantics, on
    every pair and triple of subsets of small universes."""

    @pytest.mark.parametrize("size", [4, 5])
    def test_join_is_the_one_relation_every_triple_gives(self, size):
        sets, universe = proper_subsets(size)
        relation = {(x, y): set_relation(x, y, universe) for x in sets for y in sets}
        found = {(a, b): set() for a in RELATIONS for b in RELATIONS}
        for x, y, z in itertools.product(sets, repeat=3):
            found[relation[x, y], relation[y, z]].add(relation[x, z])
        for (a, b), relations in found.items():
            assert relations, (a, b)
            expected = relations.pop() if len(relations) == 1 else IND
            assert join(a, b) == expected, (a, b)

    @pytest.mark.parametrize("size", [4, 5])
    def test_not_row_relates_the_complements(self, size):
        sets, universe = proper_subsets(size)
        found = {r: set() for r in RELATIONS}
        for x, y in itertools.product(sets, repeat=2):
            complements = set_relation(universe ^ x, universe ^ y, universe)
            found[set_relation(x, y, universe)].add(complements)
        for r, relations in found.items():
            assert len(relations) == 1, r
            assert project(CONTEXTS["not"], r) == relations.pop(), r


class TestCodeTables:
    """Each integer-coded table, cell by cell, against the transcriptions."""

    def test_codes_are_canonical_positions(self):
        for members in (RELATIONS, ACTIONS, LABELS):
            assert [m.code for m in members] == list(range(len(members)))
        assert set(LABELS) == set(NLILabel)

    @pytest.mark.parametrize("a", RELATIONS)
    @pytest.mark.parametrize("b", RELATIONS)
    def test_join_cell(self, a, b):
        assert JOIN[a.code][b.code] == JOIN_EXPECTED[a][b.code].code

    def test_join_is_seven_by_seven(self):
        assert len(JOIN) == 7 and all(len(row) == 7 for row in JOIN)

    def test_every_context_has_a_transcription(self):
        assert set(CONTEXTS) == set(PROJECTION_EXPECTED)

    @pytest.mark.parametrize("name", sorted(PROJECTION_EXPECTED))
    def test_context_rows(self, name):
        ctx, expected = CONTEXTS[name], PROJECTION_EXPECTED[name]
        assert ctx.codes == tuple(r.code for r in expected)
        assert ctx.action_codes == tuple(
            expected[r.code].code for r in ACTION_IMAGE_EXPECTED
        )

    def test_unknown_context_rows_are_identity(self):
        ctx = ProjectivityContext("mystery-context")
        assert ctx.codes == tuple(range(7))
        assert ctx.action_codes == tuple(r.code for r in ACTION_IMAGE_EXPECTED)

    def test_code_rows_do_not_change_context_equality(self):
        mystery = ProjectivityContext("mystery-context")
        assert mystery == ProjectivityContext("mystery-context")
        assert mystery != CONTEXTS["upward-default"]

    def test_group_row(self):
        assert GROUP == tuple(GROUP_EXPECTED[r].code for r in RELATIONS)

    def test_action_image_row(self):
        assert ACTION_IMAGE == tuple(r.code for r in ACTION_IMAGE_EXPECTED)
        assert tuple(a.to_relation() for a in ACTIONS) == ACTION_IMAGE_EXPECTED

    @pytest.mark.parametrize("target", RELATIONS + LABELS)
    def test_accepting_row(self, target):
        if isinstance(target, NLILabel):
            expected = tuple(GROUP_EXPECTED[s] == target for s in RELATIONS)
        else:
            expected = tuple(s == target for s in RELATIONS)
        assert accepting(target) == expected

    def test_accepting_hashes_no_enum(self, monkeypatch):
        calls = []
        original = enum.Enum.__hash__
        monkeypatch.setattr(
            enum.Enum, "__hash__", lambda self: calls.append(self) or original(self)
        )
        rows = [accepting(target) for target in RELATIONS + LABELS]
        assert len(rows) == 10 and calls == []
        hash(COV)
        assert calls == [COV]


class TestActionSpace:
    def test_five_actions(self):
        assert len(ACTIONS) == 5

    def test_neg_alt_concretizes_to_alternation(self):
        assert ActionRelation.NEG_ALT.to_relation() == ALT

    def test_parse_accepts_merged_spellings(self):
        assert ActionRelation.parse("neg_alt") == ActionRelation.NEG_ALT
        assert ActionRelation.parse("negation") == ActionRelation.NEG_ALT
        assert ActionRelation.parse("alternation") == ActionRelation.NEG_ALT
        assert ActionRelation.parse("equivalence") == ActionRelation.EQUIVALENCE


def brute_force_reachable_states(state, steps):
    """Oracle: enumerate every action sequence of length <= steps."""
    images = [a.to_relation() for a in ACTIONS]
    found = {state}
    for length in range(1, steps + 1):
        for seq in itertools.product(images, repeat=length):
            z = state
            for r in seq:
                z = join(z, r)
            found.add(z)
    return frozenset(found)


def layered_reachable_states(state, steps):
    """Oracle for long horizons: the states after exactly k actions, for
    every k <= steps, grown one layer at a time with no early stop."""
    layer, found = {state}, {state}
    for _ in range(steps):
        layer = {join(z, r) for z in layer for r in ACTION_IMAGE_EXPECTED}
        found |= layer
    return frozenset(found)


def _reached(targets, state, steps):
    # the targets that some ``steps`` upward steps lead to from ``state``:
    # those whose ``suffix_counts`` over upward rows is positive there
    rows = (UPWARD.action_codes,) * steps
    return frozenset(
        t for t in targets if suffix_counts(rows, accepting(t))[steps][state.code]
    )


def reachable_states(state, steps):
    return _reached(RELATIONS, state, steps)


def reachable(state, steps):
    return _reached(LABELS, state, steps)


class TestReachable:
    """Reachability over upward rows, the early stop of ``trainer.reward``,
    against the two brute-force closures above."""

    def test_zero_steps_is_own_label(self):
        assert reachable(EQ, 0) == frozenset({NLILabel.ENTAILMENT})
        assert reachable(IND, 0) == frozenset({NLILabel.NEUTRAL})

    def test_independence_is_terminal(self):
        for steps in range(4):
            assert reachable(IND, steps) == frozenset({NLILabel.NEUTRAL})

    def test_forward_entailment_two_steps(self):
        assert reachable(FE, 2) == frozenset(
            {NLILabel.ENTAILMENT, NLILabel.CONTRADICTION, NLILabel.NEUTRAL}
        )

    @pytest.mark.parametrize("state", RELATIONS)
    @pytest.mark.parametrize("steps", range(4))
    def test_matches_brute_force(self, state, steps):
        oracle = brute_force_reachable_states(state, steps)
        assert reachable_states(state, steps) == oracle
        assert reachable(state, steps) == frozenset(group(s) for s in oracle)

    def test_monotone_in_steps(self):
        for state in RELATIONS:
            prev = reachable_states(state, 0)
            for steps in range(1, 5):
                cur = reachable_states(state, steps)
                assert prev <= cur
                prev = cur

    @pytest.mark.parametrize("state", RELATIONS)
    @pytest.mark.parametrize("steps", range(5))
    def test_layered_oracle_equals_sequence_enumeration(self, state, steps):
        assert layered_reachable_states(state, steps) == (
            brute_force_reachable_states(state, steps)
        )

    @pytest.mark.parametrize("state", RELATIONS)
    @pytest.mark.parametrize("steps", range(11))
    def test_tables_match_layered_oracle(self, state, steps):
        oracle = layered_reachable_states(state, steps)
        assert reachable_states(state, steps) == oracle
        assert reachable(state, steps) == frozenset(GROUP_EXPECTED[s] for s in oracle)


class TestSerialization:
    def test_relation_names_are_stable(self):
        assert [r.value for r in RELATIONS] == [
            "equivalence",
            "forward_entailment",
            "reverse_entailment",
            "negation",
            "alternation",
            "cover",
            "independence",
        ]

    @given(st.sampled_from(RELATIONS))
    def test_relation_round_trip(self, r):
        assert Relation(r.value) == r

    @given(st.sampled_from(ACTIONS))
    def test_action_round_trip(self, a):
        assert ActionRelation.parse(a.value) == a

    def test_label_names_are_stable(self):
        assert {l.value for l in NLILabel} == {
            "entailment",
            "contradiction",
            "neutral",
        }
