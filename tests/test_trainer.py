"""Shaped rewards, REINFORCE, revision algorithms, and the training loop."""

import collections
import dataclasses
import functools
import inspect
import itertools
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import natlog
import natlog.cli
from natlog import knowledge
from natlog.chunker import chunk_pair, default_rules
from natlog.data import Example, chunk_examples, dumps
from natlog.executor import (
    Chunk,
    ChunkedPair,
    execute,
    matches_target,
    single_edits,
)
from natlog.knowledge import default_lexicon, queue_from_keys
from natlog.policy import (
    N_FEATURES,
    PolicyParams,
    compile_examples,
    decode,
    distribution,
    grad_log_prob,
    sample,
    sample_codes,
    step_distributions,
)
from natlog.relations import (
    ACTIONS,
    ActionRelation,
    CONTEXTS,
    NLILabel,
    ProjectivityContext,
    RELATIONS,
    Relation,
    UPWARD,
    group,
    join,
)
from natlog.trainer import (
    EpochMetrics,
    OutcomeTable,
    RevisionEvent,
    RevisionStats,
    TrainConfig,
    TrainResult,
    _CONFIG_KEYS,
    _parse_bool,
    batch_objective,
    grid_search,
    hybrid_objective,
    introspective_revision,
    load_train_config,
    reinforce_objective,
    relation_augmentation,
    reward,
    run_episode,
    train,
)
from natlog.trainer import (
    _episode_uniforms,
    _episode_width,
    _greedy_hits,
    _program,
    _stream_words,
)

A_EQ = ActionRelation.EQUIVALENCE
A_FE = ActionRelation.FORWARD_ENTAILMENT
A_RE = ActionRelation.REVERSE_ENTAILMENT
A_NA = ActionRelation.NEG_ALT
A_IND = ActionRelation.INDEPENDENCE

RULES = default_rules()
LEX = default_lexicon()
CFG = TrainConfig()


def upward_pair(m):
    premise = (Chunk(tokens=("p",), start=0),)
    hypothesis = tuple(Chunk(tokens=(f"h{i}",), start=i) for i in range(m))
    return ChunkedPair(premise=premise, hypothesis=hypothesis)


def uniform_probs(m):
    return np.full((m, 5), 0.2)


def with_probs(probs, cells):
    """A copy of ``probs`` with ``cells[(t, a)]`` at step t's entry for
    action code a: a proposal's probability is its cell of the row."""
    probs = np.array(probs, dtype=float)
    for (t, a), p in cells.items():
        probs[t - 1, a] = p
    return probs


def codes(program):
    """``program``'s tuple of action codes: its key in an ``OutcomeTable``."""
    return tuple([a.code for a in program])


def revise(pair, program, target, keys, probs, config, rng):
    """``introspective_revision`` of ``program`` on a fresh table, built as
    ``train`` builds it, with (step, action code) ``keys`` ranked by
    ``queue_from_keys`` as the proposal queue, on the first
    2 * min(M, proposals) draws of ``rng``: the most that revision reads.
    Returns the revised program as actions, the events and the proposals
    left in the queue."""
    table = OutcomeTable(config)
    cls = table.classify(pair, target)
    phi = queue_from_keys(keys, probs)
    uniforms = rng.random(2 * min(config.max_revisions, len(phi))).tolist()
    steps, events = introspective_revision(
        table, cls, codes(program), phi, probs, uniforms
    )
    return _program(steps), events, phi


def edit(program, t, action):
    """``program`` with step t set to ``action``, as a tuple."""
    return program[: t - 1] + (action,) + program[t:]


class CountingDraws:
    """An iterator over ``uniforms`` that counts the draws taken from it."""

    def __init__(self, uniforms):
        self._draws = iter(uniforms)
        self.taken = 0

    def __iter__(self):
        return self

    def __next__(self):
        value = next(self._draws)
        self.taken += 1
        return value


def episode_uniforms(item, config, rng):
    """As many of ``rng``'s draws as an episode of ``item`` may read, as the
    row of Python floats ``train`` hands ``run_episode``."""
    return rng.random(_episode_width(item, config)).tolist()


def features_of(item, rows):
    """An example's feature rows, read from the distinct ``rows`` that
    ``compile_examples`` returned with it through its row ids."""
    return rows[list(item.row_ids)]


@dataclasses.dataclass
class Sample:
    """One episode as the tests score it: its steps' feature rows and
    distributions, its sampled action codes and their rewards, the
    ``hybrid_objective`` argument ``revised`` (None without revision, the
    sampled codes and rewards objects themselves when revision left them
    unchanged) and the accepted edits."""

    features: np.ndarray
    probs: np.ndarray
    codes: tuple[int, ...]
    rewards: tuple[float, ...]
    revised: tuple | None = None
    events: tuple[RevisionEvent, ...] = ()


def hybrid(sample, lam):
    """``hybrid_objective`` of a ``Sample``."""
    return hybrid_objective(
        sample.probs, sample.features, sample.codes, sample.rewards, lam, sample.revised
    )


def sampled_episode(table, cls, item, params, features, uniforms):
    """One episode as ``train`` runs it, as a ``Sample``: ``sample_codes``
    on the first m of ``uniforms``, then ``run_episode`` on the sampled
    action codes.  ``features`` are the example's rows."""
    probs = step_distributions(params, features)
    steps = sample_codes(probs, np.array(uniforms[: item.pair.m])).tolist()
    rewards, revision, events = run_episode(
        table, cls, item, steps, probs.tolist(), uniforms
    )
    sampled = tuple(steps)
    episode = Sample(features, probs, sampled, rewards, events=events)
    if table.config.introspective_revision:
        # an unchanged revision is the sampled program, rewards and all
        episode.revised = revision or (sampled, rewards)
        assert revision is None or revision[0] != sampled
    else:
        assert revision is None and events == ()
    return episode


def grid(pair, program, phi, target, probs):
    """``grid_search`` of ``program`` on a fresh table, built as ``train``
    builds it; ``phi`` is a ``queue_from_keys`` list."""
    table = OutcomeTable(CFG)
    cls = table.classify(pair, target)
    return grid_search(table, cls, codes(program), phi, probs)


def augment(examples):
    """``relation_augmentation`` of ``examples`` on their ``chunk_examples``
    pairs, as ``train`` runs it: the examples and their pairs."""
    return relation_augmentation(examples, chunk_examples(examples, RULES), LEX)


class TestReward:
    def test_correct_program_earns_mu_everywhere(self):
        pair = upward_pair(3)
        trace = execute(pair, (A_EQ, A_EQ, A_FE))
        assert trace.label == NLILabel.ENTAILMENT
        assert reward(trace, NLILabel.ENTAILMENT, CFG) == (1.0, 1.0, 1.0)

    def test_wrong_program_blames_later_steps_more(self):
        pair = upward_pair(3)
        trace = execute(pair, (A_EQ, A_EQ, A_FE))
        assert reward(trace, NLILabel.CONTRADICTION, CFG) == (-0.25, -0.5, -1.0)

    def test_hopeless_step_terminates_early(self):
        # independence at step 1 locks the label to neutral
        pair = upward_pair(3)
        trace = execute(pair, (A_IND, A_EQ, A_EQ))
        assert reward(trace, NLILabel.CONTRADICTION, CFG) == (-1.0, 0.0, 0.0)

    def test_hopeless_step_mid_program(self):
        pair = upward_pair(3)
        trace = execute(pair, (A_EQ, A_IND, A_EQ))
        assert reward(trace, NLILabel.ENTAILMENT, CFG) == (0.0, -1.0, 0.0)

    def test_equivalence_final_state_suppresses_positives(self):
        pair = upward_pair(3)
        trace = execute(pair, (A_EQ, A_EQ, A_EQ))
        assert trace.label == NLILabel.ENTAILMENT
        assert reward(trace, NLILabel.ENTAILMENT, CFG) == (0.0, 0.0, 0.0)

    def test_suppression_can_be_disabled(self):
        pair = upward_pair(3)
        trace = execute(pair, (A_EQ, A_EQ, A_EQ))
        cfg = TrainConfig(prefer_forward_entailment=False)
        assert reward(trace, NLILabel.ENTAILMENT, cfg) == (1.0, 1.0, 1.0)

    def test_relation_target_rewards(self):
        pair = upward_pair(2)
        good = execute(pair, (A_RE, A_EQ))
        assert reward(good, Relation.REVERSE_ENTAILMENT, CFG) == (1.0, 1.0)
        bad = execute(pair, (A_FE, A_EQ))
        # forward entailment can never join back to reverse entailment
        assert reward(bad, Relation.REVERSE_ENTAILMENT, CFG) == (-1.0, 0.0)

    def test_reward_values_stay_in_contract(self):
        pair = upward_pair(3)
        cfg = TrainConfig(mu=1.0, gamma=0.5)
        allowed = {1.0, 0.0, -1.0, -0.25, -0.5}
        for program in itertools.product(ACTIONS, repeat=3):
            trace = execute(pair, program)
            for target in NLILabel:
                for r in reward(trace, target, cfg):
                    assert r in allowed

    def test_custom_mu_and_gamma(self):
        pair = upward_pair(2)
        trace = execute(pair, (A_EQ, A_EQ))
        cfg = TrainConfig(mu=2.0, gamma=0.1, prefer_forward_entailment=False)
        assert reward(trace, NLILabel.CONTRADICTION, cfg) == (-0.2, -2.0)


def layered_reachable_states(state, steps):
    """The states that at most ``steps`` bare actions lead to from
    ``state``, grown one layer at a time (as in ``test_relations.py``)."""
    images = [a.to_relation() for a in ACTIONS]
    layer, found = {state}, {state}
    for _ in range(steps):
        layer = {join(z, r) for z in layer for r in images}
        found |= layer
    return frozenset(found)


def reference_reward(trace, target, config):
    """``reward`` with its early stop read from ``layered_reachable_states``."""
    m, states = trace.m, trace.states

    def meets(state):
        return (group(state) if isinstance(target, NLILabel) else state) == target

    if meets(states[-1]):
        if config.prefer_forward_entailment and states[-1] == Relation.EQUIVALENCE:
            return (0.0,) * m
        return (config.mu,) * m
    for t in range(1, m):
        if not any(map(meets, layered_reachable_states(states[t], m - t))):
            return tuple(-config.mu if s == t else 0.0 for s in range(1, m + 1))
    return tuple(-(config.gamma ** (m - t)) * config.mu for t in range(1, m + 1))


@st.composite
def reward_cases(draw):
    m = draw(st.integers(1, 6))
    contexts = draw(
        st.lists(
            st.sampled_from(list(CONTEXTS.values()) + [ProjectivityContext("unnamed")]),
            min_size=m,
            max_size=m,
        )
    )
    pair = ChunkedPair(
        (Chunk(("p",), 0),),
        tuple(Chunk((f"h{i}",), i, c) for i, c in enumerate(contexts)),
    )
    program = tuple(draw(st.lists(st.sampled_from(ACTIONS), min_size=m, max_size=m)))
    return execute(pair, program)


class TestRewardEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(
        trace=reward_cases(),
        target=st.sampled_from(list(NLILabel) + list(Relation)),
        prefer=st.booleans(),
        mu=st.floats(0.01, 10.0),
        gamma=st.floats(0.0, 1.0),
    )
    def test_random_traces(self, trace, target, prefer, mu, gamma):
        config = TrainConfig(mu=mu, gamma=gamma, prefer_forward_entailment=prefer)
        assert reward(trace, target, config) == reference_reward(trace, target, config)

    @pytest.mark.xfail(
        strict=True,
        reason="the early stop counts over upward rows, not the pair's contexts",
    )
    def test_early_stop_reads_the_pairs_contexts(self):
        # (NEG_ALT, NEG_ALT) reaches entailment under (upward, not), so
        # step 1 of (NEG_ALT, EQUIVALENCE) is not hopeless: step 2 is wrong
        pair = ChunkedPair(
            (Chunk(("p",), 0),),
            (Chunk(("a",), 0), Chunk(("b",), 1, CONTEXTS["not"])),
        )
        assert matches_target(execute(pair, (A_NA, A_NA)), NLILabel.ENTAILMENT)
        trace = execute(pair, (A_NA, A_EQ))
        assert reward(trace, NLILabel.ENTAILMENT, CFG) == (-0.5, -1.0)


class TestReinforceObjective:
    def test_golden_value_uniform_policy(self):
        params = PolicyParams.zeros()
        features = np.ones((1, N_FEATURES))
        j, grad = reinforce_objective(params, features, (A_EQ,), (1.0,))
        assert j == pytest.approx(-np.log(0.2))
        assert grad.shape == params.weights.shape

    def test_zero_reward_steps_contribute_nothing(self):
        params = PolicyParams.zeros()
        features = np.ones((2, N_FEATURES))
        j, grad = reinforce_objective(params, features, (A_EQ, A_FE), (0.0, 0.0))
        assert j == 0.0
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_negative_reward_flips_gradient(self):
        params = PolicyParams.zeros()
        features = np.ones((1, N_FEATURES))
        _, g_pos = reinforce_objective(params, features, (A_EQ,), (1.0,))
        _, g_neg = reinforce_objective(params, features, (A_EQ,), (-1.0,))
        assert np.allclose(g_pos, -g_neg)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        params = PolicyParams(weights=rng.normal(scale=0.5, size=(5, N_FEATURES)))
        m = 3
        features = rng.random((m, N_FEATURES))
        program = tuple(ACTIONS[i] for i in rng.integers(0, 5, size=m))
        rewards = tuple(float(r) for r in rng.choice([-1.0, -0.5, 1.0], size=m))
        _, analytic = reinforce_objective(params, features, program, rewards)
        h = 1e-5
        fd = np.zeros_like(analytic)
        for i in range(fd.shape[0]):
            for j in range(fd.shape[1]):
                for sign, store in ((1, "plus"), (-1, "minus")):
                    p = PolicyParams(weights=params.weights.copy())
                    p.weights[i, j] += sign * h
                    val, _ = reinforce_objective(p, features, program, rewards)
                    if sign == 1:
                        plus = val
                    else:
                        minus = val
                fd[i, j] = (plus - minus) / (2 * h)
        scale = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-12)
        assert (np.abs(analytic - fd) / scale).max() <= 1e-6


def exhaustive_single_edits(pair, program, target):
    """Oracle: all (t, action code) whose one-step edit reaches the target."""
    keys = set()
    for t in range(1, len(program) + 1):
        for action in ACTIONS:
            if matches_target(execute(pair, edit(program, t, action)), target):
                keys.add((t, action.code))
    return keys


class TestGridSearch:
    def test_matches_exhaustive_oracle_random(self):
        rng = np.random.default_rng(404)
        contexts = [UPWARD, CONTEXTS["not"], CONTEXTS["all-arg1"], CONTEXTS["some-arg2"]]
        for _ in range(200):
            m = int(rng.integers(1, 5))
            hyp = tuple(
                Chunk(
                    tokens=(f"h{i}",),
                    start=i,
                    context=contexts[int(rng.integers(len(contexts)))],
                )
                for i in range(m)
            )
            pair = ChunkedPair(premise=(Chunk(tokens=("p",), start=0),), hypothesis=hyp)
            program = tuple(ACTIONS[i] for i in rng.integers(0, 5, size=m))
            target = list(NLILabel)[int(rng.integers(3))]
            psi = grid(pair, program, [], target, uniform_probs(m))
            assert len(set(psi)) == len(psi)
            assert set(psi) == exhaustive_single_edits(pair, program, target)

    def test_correct_program_keeps_identity_edits(self):
        pair = upward_pair(2)
        program = (A_FE, A_EQ)
        psi = grid(pair, program, [], NLILabel.ENTAILMENT, uniform_probs(2))
        assert (1, A_FE.code) in psi
        assert (2, A_EQ.code) in psi

    def test_intersects_with_pending_proposals(self):
        pair = upward_pair(2)
        program = (A_EQ, A_EQ)
        phi = queue_from_keys([(1, A_FE.code)], uniform_probs(2))
        psi = grid(pair, program, phi, NLILabel.ENTAILMENT, uniform_probs(2))
        assert psi == [(1, A_FE.code)]
        assert phi == [(1, A_FE.code)]  # narrowing reads the queue, pops nothing

    def test_disjoint_proposals_leave_grid_untouched(self):
        pair = upward_pair(2)
        program = (A_EQ, A_EQ)
        phi = queue_from_keys([(1, A_IND.code)], uniform_probs(2))
        psi = grid(pair, program, phi, NLILabel.CONTRADICTION, uniform_probs(2))
        assert set(psi) == exhaustive_single_edits(
            pair, program, NLILabel.CONTRADICTION
        )

    def test_unreachable_target_gives_empty_queue(self):
        pair = upward_pair(1)
        psi = grid(pair, (A_EQ,), [], Relation.COVER, uniform_probs(1))
        assert psi == []


class TestIntrospectiveRevision:
    def test_knowledge_acceptance_with_zero_epsilon(self):
        pair = upward_pair(2)
        program = (A_EQ, A_EQ)
        probs = with_probs(uniform_probs(2), {(1, A_FE.code): 0.9})
        cfg = TrainConfig(max_revisions=3, epsilon=0.0)
        revised, events, _ = revise(
            pair, program, NLILabel.ENTAILMENT, [(1, A_FE.code)],
            probs, cfg, np.random.default_rng(0),
        )
        assert revised == (A_FE, A_EQ)
        assert len(events) == 1
        assert events[0].source == "knowledge"
        assert events[0].old == A_EQ and events[0].new == A_FE and events[0].t == 1

    def test_budget_limits_pops(self):
        pair = upward_pair(3)
        program = (A_EQ, A_EQ, A_EQ)
        cells = {(1, A_FE.code): 0.9, (2, A_FE.code): 0.8, (3, A_FE.code): 0.7}
        probs = with_probs(uniform_probs(3), cells)
        cfg = TrainConfig(max_revisions=1, epsilon=0.0)
        revised, _, phi = revise(
            pair, program, NLILabel.ENTAILMENT, list(cells),
            probs, cfg, np.random.default_rng(0),
        )
        # only the top proposal is consumed; the rest stay queued
        assert revised == (A_FE, A_EQ, A_EQ)
        assert phi == [(3, A_FE.code), (2, A_FE.code)]

    def test_no_budget_and_no_grid_fix_returns_unchanged(self):
        pair = upward_pair(1)
        program = (A_EQ,)
        cfg = TrainConfig(max_revisions=0, epsilon=0.2)
        revised, events, _ = revise(
            pair, program, Relation.COVER, [],
            uniform_probs(1), cfg, np.random.default_rng(0),
        )
        assert revised == program
        assert events == ()

    def test_answer_driven_fix_when_knowledge_is_empty(self):
        pair = upward_pair(2)
        program = (A_EQ, A_EQ)
        cfg = TrainConfig(max_revisions=3, epsilon=0.2)
        probs = np.array(
            [
                [0.1, 0.2, 0.4, 0.2, 0.1],
                [0.6, 0.1, 0.1, 0.1, 0.1],
            ]
        )
        revised, events, _ = revise(
            pair, program, NLILabel.NEUTRAL, [],
            probs, cfg, np.random.default_rng(0),
        )
        # the most probable single edit to neutral is reverse entailment at 1
        assert revised == (A_RE, A_EQ)
        assert [e.source for e in events] == ["answer"]

    def test_knowledge_then_answer(self):
        # proposal fixes step 1 but the program still misses the target;
        # the answer phase must then repair step 2
        pair = upward_pair(2)
        program = (A_EQ, A_IND)
        probs = with_probs(uniform_probs(2), {(1, A_NA.code): 0.9})
        cfg = TrainConfig(max_revisions=1, epsilon=0.0)
        rng = np.random.default_rng(1)
        revised, events, _ = revise(
            pair, program, NLILabel.CONTRADICTION, [(1, A_NA.code)],
            probs, cfg, rng,
        )
        assert revised == (A_NA, A_EQ)
        assert [e.source for e in events] == ["knowledge", "answer"]

    def test_metropolis_rejects_low_ratio_proposals(self):
        # epsilon = 1 forces every proposal through the Metropolis branch;
        # a vanishing proposal probability means certain rejection
        pair = upward_pair(1)
        program = (A_EQ,)
        probs = np.array([[0.999999, 1e-9, 1e-9, 1e-9, 1e-9]])
        cfg = TrainConfig(max_revisions=1, epsilon=1.0)
        revised, events, _ = revise(
            pair, program, NLILabel.ENTAILMENT, [(1, A_FE.code)], probs, cfg,
            np.random.default_rng(0),
        )
        # the answer phase may still fix it; the knowledge phase must not
        assert all(e.source != "knowledge" for e in events)

    def test_metropolis_acceptance_frequency(self):
        # target is unreachable so the execution check always fails and
        # the answer phase never fires; acceptance ratio is 0.25/0.5
        pair = upward_pair(1)
        program = (A_EQ,)
        probs = np.array([[0.5, 0.25, 0.1, 0.1, 0.05]])
        cfg = TrainConfig(max_revisions=1, epsilon=0.2)
        n = 100_000
        accepted = 0
        for i in range(n):
            revised, _, _ = revise(
                pair, program, Relation.COVER, [(1, A_FE.code)], probs, cfg,
                np.random.default_rng([99, i]),
            )
            if revised == (A_FE,):
                accepted += 1
        p = 0.5
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(accepted / n - p) < 3 * sigma

    def test_deterministic_given_rng_stream(self):
        pair = upward_pair(2)
        program = (A_EQ, A_EQ)
        cfg = TrainConfig()
        probs = with_probs(uniform_probs(2), {(1, A_FE.code): 0.4})
        out = []
        for _ in range(2):
            out.append(
                revise(
                    pair, program, NLILabel.ENTAILMENT, [(1, A_FE.code)],
                    probs, cfg, np.random.default_rng(5),
                )
            )
        assert out[0] == out[1]

    @pytest.mark.parametrize(
        "uniforms, proposal", [([], 1), ([0.9], 1), ([0.9, 0.9, 0.9], 2)]
    )
    def test_short_row_of_uniforms_rejected(self, uniforms, proposal):
        # demo 05's pair: each of its three proposals needs two draws to
        # leave an all-independence program, so each row runs dry
        pair = chunk_pair(
            "the child does not love sports", "the kid doesn't like table-tennis", RULES
        )
        probs = uniform_probs(pair.m)
        table = OutcomeTable(CFG)
        cls = table.classify(pair, NLILabel.ENTAILMENT)
        phi = queue_from_keys(knowledge.proposal_keys(pair, LEX), probs)
        assert len(phi) == 3
        message = f"out of uniforms at proposal {proposal}: {len(uniforms)} given"
        with pytest.raises(ValueError, match=message):
            introspective_revision(
                table, cls, codes((A_IND,) * 3), phi, probs, uniforms
            )

    def test_revision_back_to_the_sample_is_unchanged(self):
        # both proposals reach the target and clear epsilon: step 1 goes to
        # forward entailment and back, so the episode has no revision to
        # score, only its two events
        pair = upward_pair(1)
        item = proposing(pair, [(1, A_FE.code), (1, A_EQ.code)])
        table = OutcomeTable(CFG)
        cls = table.classify(pair, NLILabel.ENTAILMENT)
        rows = [[0.1, 0.5, 0.2, 0.1, 0.1]]  # forward entailment pops first
        rewards, revision, events = run_episode(
            table, cls, item, [A_EQ.code], rows, [0.0] + [0.9] * 4
        )
        assert revision is None and rewards is table.rewards(cls, (A_EQ.code,))
        assert [(e.old, e.new) for e in events] == [(A_EQ, A_FE), (A_FE, A_EQ)]

    @pytest.mark.parametrize("t", [0, 3])
    def test_popped_step_out_of_range_rejected(self, t):
        # a key before step 1 or past step m names no step of the program,
        # whatever the draws would make of it; here they accept every pop
        pair = upward_pair(2)
        table = OutcomeTable(CFG)
        cls = table.classify(pair, NLILabel.ENTAILMENT)
        phi = [(t, A_FE.code)]
        with pytest.raises(ValueError, match=rf"step {t} out of range 1\.\.2"):
            introspective_revision(
                table, cls, codes((A_EQ, A_EQ)), phi, uniform_probs(2), [0.0, 0.0]
            )
        assert phi == []


CONTEXT_POOL = tuple(CONTEXTS.values()) + (ProjectivityContext("unknown-context"),)
TARGETS = tuple(NLILabel) + RELATIONS


@st.composite
def revision_cases(draw):
    """A pair of 1-6 chunks in random contexts, a program over it, a label
    or exact-relation target, step probabilities and (step, action code)
    proposal keys."""
    m = draw(st.integers(min_value=1, max_value=6))
    hypothesis = tuple(
        Chunk(tokens=(f"h{i}",), start=i, context=draw(st.sampled_from(CONTEXT_POOL)))
        for i in range(m)
    )
    pair = ChunkedPair(premise=(Chunk(tokens=("p",), start=0),), hypothesis=hypothesis)
    program = tuple(draw(st.lists(st.sampled_from(ACTIONS), min_size=m, max_size=m)))
    target = draw(st.sampled_from(TARGETS))
    kind = draw(st.sampled_from(["uniform", "random", "sparse"]))
    if kind == "uniform":  # every proposal ties on probability
        probs = uniform_probs(m)
    else:
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        probs = np.random.default_rng(seed).dirichlet(np.ones(5), size=m)
        if kind == "sparse":  # zero probabilities take the ratio's fallback
            probs[probs < 0.15] = 0.0
    keys = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=m),
                st.integers(min_value=0, max_value=len(ACTIONS) - 1),
            ),
            max_size=8,
        )
    )
    return pair, program, target, probs, keys


def brute_force_edits(pair, program, target):
    """Single-step edits (t, action code) reaching the target, one execution
    each, in order."""
    return [
        (t, action.code)
        for t in range(1, len(program) + 1)
        for action in ACTIONS
        if matches_target(execute(pair, edit(program, t, action)), target)
    ]


def reference_ranking(keys, probs):
    """The distinct (step, action code) keys sorted on (-probability, step,
    action code), best first."""

    def rank(key):
        t, a = key
        return (-probs[t - 1][a], t, a)

    return sorted(dict.fromkeys(keys), key=rank)


def reference_grid_search(pair, program, phi, target, probs):
    """grid_search on the brute-force edit list, best first; ``phi`` is a
    ``reference_ranking`` list."""
    edits = brute_force_edits(pair, program, target)
    shared = [key for key in edits if key in phi]
    return reference_ranking(shared or edits, probs)


def reference_revision(pair, program, target, phi, probs, config, rng):
    """introspective_revision with every check an ``execute`` call, on
    actions; ``phi`` is a ``reference_ranking`` list, popped from its
    front."""
    program = tuple(program)
    revised = program
    events = []

    def apply(candidate, t, source):
        nonlocal revised
        if candidate != revised:
            events.append(RevisionEvent(t, revised[t - 1], candidate[t - 1], source))
        revised = candidate

    popped = 0
    while popped < config.max_revisions and phi:
        t, a = phi.pop(0)
        popped += 1
        u = rng.random()
        candidate = edit(revised, t, ACTIONS[a])
        if matches_target(execute(pair, candidate), target) and u > config.epsilon:
            apply(candidate, t, "knowledge")
            continue
        u = rng.random()
        row = probs[t - 1]
        sampled_prob = float(row[ACTIONS.index(program[t - 1])])
        proposal_prob = float(row[a])
        ratio = proposal_prob / sampled_prob if sampled_prob > 0 else 1.0
        if u < min(1.0, ratio):
            apply(candidate, t, "knowledge")
    if not matches_target(execute(pair, revised), target):
        psi = reference_grid_search(pair, revised, phi, target, probs)
        if psi:
            t, a = psi[0]
            apply(edit(revised, t, ACTIONS[a]), t, "answer")
    return revised, tuple(events)


class TestFastPathsMatchExecution:
    """The table lookups and prefix/suffix search against ``execute``, and
    revision on action codes and ranked keys against revision on actions."""

    @settings(max_examples=300, deadline=None)
    @given(revision_cases())
    def test_reaches_equals_execution(self, case):
        pair, program, target, _, _ = case
        table = OutcomeTable(CFG)
        cls = table.classify(pair, target)
        assert table.reaches(cls, codes(program)) == matches_target(
            execute(pair, program), target
        )

    @settings(max_examples=300, deadline=None)
    @given(revision_cases())
    def test_single_edits_in_brute_force_order(self, case):
        pair, program, target, _, _ = case
        expected = brute_force_edits(pair, program, target)
        assert single_edits(pair, codes(program), target) == expected
        table = OutcomeTable(CFG)
        cls = table.classify(pair, target)
        edits = table.edits(cls, codes(program))
        assert type(edits) is frozenset and edits == set(expected)

    @settings(max_examples=300, deadline=None)
    @given(revision_cases())
    def test_grid_search_equals_brute_force(self, case):
        pair, program, target, probs, keys = case
        phi = queue_from_keys(keys, probs)
        pending = list(phi)
        psi = grid(pair, program, phi, target, probs)
        expected = reference_grid_search(
            pair, program, reference_ranking(keys, probs), target, probs
        )
        assert psi[::-1] == expected
        assert phi == pending  # grid search pops nothing from the queue

    @settings(max_examples=300, deadline=None)
    @given(
        revision_cases(),
        st.integers(min_value=0, max_value=4),
        st.sampled_from([0.0, 0.2, 0.5, 1.0]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_revision_equals_execute_reference(self, case, budget, epsilon, seed):
        pair, program, target, probs, keys = case
        config = TrainConfig(max_revisions=budget, epsilon=epsilon)
        phi, phi_ref = queue_from_keys(keys, probs), reference_ranking(keys, probs)
        assert phi[::-1] == phi_ref
        uniforms = np.random.default_rng(seed).random(2 * len(keys)).tolist()
        draws = CountingDraws(uniforms)
        rng_ref = np.random.default_rng(seed)
        table = OutcomeTable(config)
        cls = table.classify(pair, target)
        steps, events = introspective_revision(
            table, cls, codes(program), phi, probs, draws
        )
        revised, expected_events = reference_revision(
            pair, program, target, phi_ref, probs, config, rng_ref
        )
        assert steps == codes(revised)
        assert events == expected_events
        assert phi[::-1] == phi_ref  # same proposals consumed
        # same number of draws: the reference's stream continues where a
        # fresh one does after as many draws as revision took
        rng = np.random.default_rng(seed)
        rng.random(draws.taken)
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(
        revision_cases(),
        st.sampled_from([0, 1, 2, 3, 10]),
        st.sampled_from([0.0, 0.2, 1.0]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_revision_reads_at_most_two_draws_per_pop(
        self, case, budget, epsilon, seed
    ):
        # a row of 2 * min(M, len(phi)) uniforms never runs dry
        pair, program, target, probs, keys = case
        config = TrainConfig(max_revisions=budget, epsilon=epsilon)
        phi = queue_from_keys(keys, probs)
        bound = 2 * min(budget, len(phi))
        draws = CountingDraws(np.random.default_rng(seed).random(bound).tolist())
        table = OutcomeTable(config)
        cls = table.classify(pair, target)
        introspective_revision(table, cls, codes(program), phi, probs, draws)
        assert draws.taken <= bound

    def test_length_mismatch_rejected(self):
        pair = upward_pair(2)
        table = OutcomeTable(CFG)
        cls = table.classify(pair, NLILabel.ENTAILMENT)
        table.rewards(cls, codes((A_EQ, A_EQ)))  # a right length first
        for fast in (table.reaches, table.rewards, table.edits):
            with pytest.raises(ValueError, match="program length 1"):
                fast(cls, codes((A_EQ,)))
        with pytest.raises(ValueError, match="program length 1"):
            single_edits(pair, codes((A_EQ,)), NLILabel.ENTAILMENT)


def proposing(pair, keys):
    """An example of ``pair`` with (step, action code) proposal keys
    ``keys``: the two fields of a ``Compiled`` that ``run_episode`` reads."""
    return types.SimpleNamespace(pair=pair, proposals=tuple(keys))


def takes_every_proposal(steps, keys):
    """Whether the program with action codes ``steps`` already takes every
    key (t, a): its code at step t is a."""
    return all(steps[t - 1] == a for t, a in keys)


class TestRevisionSkip:
    """A program that takes every proposal and reaches its target is one
    that revision cannot change, and ``run_episode`` skips exactly those."""

    @settings(max_examples=300, deadline=None)
    @given(
        revision_cases(),
        st.sampled_from([0, 1, 3]),
        st.booleans(),
        st.booleans(),
        st.sampled_from([0.0, 0.2, 1.0]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_skip_is_exact(self, case, budget, knowledge, single, epsilon, seed):
        pair, program, target, probs, keys = case
        if single:  # one relation per step, each key kept as often as drawn
            first = dict(reversed(keys))
            keys = [(t, first[t]) for t, _ in keys]
        config = TrainConfig(max_revisions=budget, epsilon=epsilon, knowledge=knowledge)
        item = proposing(pair, keys)
        keys = keys if knowledge else []
        table = OutcomeTable(config)
        cls = table.classify(pair, target)
        rows = probs.tolist()
        width = pair.m + 2 * min(budget, len(keys))
        uniforms = np.random.default_rng(seed).random(width).tolist()
        # the case's program, the first 200 programs that take every
        # proposal (the proposed action at each step with one, none left
        # where a step has two, any action elsewhere) and the first 50 of
        # all programs, each in product order
        every_code = range(len(ACTIONS))
        choices = [
            [a for a in every_code if (t, a) in keys] or every_code
            for t in range(1, pair.m + 1)
        ]
        taking = itertools.islice(itertools.product(*choices), 200)
        every = itertools.islice(itertools.product(every_code, repeat=pair.m), 50)
        for steps in itertools.chain([codes(program)], taking, every):
            skip = takes_every_proposal(steps, keys) and table.reaches(cls, steps)
            counts = collections.Counter()
            with pytest.MonkeyPatch.context() as patch:
                for name in ("queue_from_keys", "introspective_revision"):
                    count_calls(patch, counts, natlog.trainer, name)
                got = run_episode(table, cls, item, list(steps), rows, uniforms)
            rewards = table.rewards(cls, steps)
            assert got[0] is rewards
            if not skip:
                assert counts["introspective_revision"] == 1
                assert counts["queue_from_keys"] >= 1
                continue
            assert not counts
            assert got == (rewards, None, ())
            # revision itself would have changed nothing
            phi = queue_from_keys(keys, probs)
            revision = introspective_revision(
                table, cls, steps, phi, probs, uniforms[pair.m :]
            )
            assert revision == (steps, ())


class TestOneNormalizationPerChunk:
    """One ``compile_examples`` or ``natlog prove`` call normalizes each
    distinct chunk token tuple once, in order of first sight, whichever
    side of whichever pair it is on; aligning each hypothesis chunk on its
    own would make m * (n + 2) calls per pair, and normalizing each chunk
    of each pair n + m."""

    @pytest.fixture
    def normalized(self, monkeypatch):
        """The tokens of every ``Lexicon.normalize`` call, in order."""
        original = knowledge.Lexicon.normalize
        calls = []

        def counting(self, tokens):
            calls.append(tuple(tokens))
            return original(self, tokens)

        monkeypatch.setattr(knowledge.Lexicon, "normalize", counting)
        return calls

    @staticmethod
    def distinct_chunk_tokens(pairs):
        """Each distinct chunk token tuple of the pairs, premise side first
        within a pair, in order of first sight."""
        chunks = (c for pair in pairs for c in pair.premise + pair.hypothesis)
        return list(dict.fromkeys(c.tokens for c in chunks))

    def test_compile_normalizes_each_chunk_once(self, normalized):
        spec = dataclasses.replace(natlog.default_genspec(), noisy_test=True)
        examples = natlog.generate(spec, RULES)[1][::50]
        compiled, _ = compile_examples(examples, RULES, LEX)
        assert {item.pair.m for item in compiled} == {2, 4}
        pairs = [item.pair for item in compiled]
        assert normalized == self.distinct_chunk_tokens(pairs)
        # the split repeats chunks, so the per-pair count would be larger
        assert len(normalized) < sum(len(p.premise) + p.m for p in pairs)
        assert any(item.proposals for item in compiled)

    def test_prove_normalizes_each_chunk_once(self, normalized, capsys):
        premise = "every dog runs in the park"
        hypothesis = "every animal runs in the park"
        assert natlog.cli.main(["prove", premise, hypothesis]) == 0
        assert "premise chunk" in capsys.readouterr().out
        pair = chunk_pair(premise, hypothesis, RULES)
        assert normalized == self.distinct_chunk_tokens([pair])
        assert normalized == [
            ("every", "dog"), ("runs", "in"), ("the", "park"), ("every", "animal")
        ]


class TestHybridObjective:
    def make_episode(self, params):
        examples = [
            Example(
                premise="some dogs run",
                hypothesis="some animals run",
                label=NLILabel.ENTAILMENT,
            )
        ]
        (item,), rows = compile_examples(examples, RULES, LEX)
        table = OutcomeTable(TrainConfig(seed=3))
        cls = table.classify(item.pair, item.target)
        uniforms = episode_uniforms(item, table.config, np.random.default_rng(3))
        return sampled_episode(
            table, cls, item, params, features_of(item, rows), uniforms
        )

    def test_lambda_one_is_pure_reinforce(self):
        params = PolicyParams.zeros()
        episode = self.make_episode(params)
        j, grad = hybrid(episode, 1.0)
        j_base, grad_base = reinforce_objective(
            params, episode.features, _program(episode.codes), episode.rewards
        )
        assert j == pytest.approx(j_base)
        assert np.allclose(grad, grad_base)

    def test_lambda_zero_is_pure_revised(self):
        params = PolicyParams.zeros()
        episode = self.make_episode(params)
        assert episode.revised is not None
        revised_codes, revised_rewards = episode.revised
        j, grad = hybrid(episode, 0.0)
        j_rev, grad_rev = reinforce_objective(
            params, episode.features, _program(revised_codes), revised_rewards
        )
        assert j == pytest.approx(j_rev)
        assert np.allclose(grad, grad_rev)

    def test_interpolation_is_linear(self):
        params = PolicyParams.zeros()
        episode = self.make_episode(params)
        j0, g0 = hybrid(episode, 0.0)
        j1, g1 = hybrid(episode, 1.0)
        jh, gh = hybrid(episode, 0.5)
        assert jh == pytest.approx(0.5 * j0 + 0.5 * j1)
        assert np.allclose(gh, 0.5 * g0 + 0.5 * g1)


def per_step_objective(params, features, steps, rewards):
    """J and its gradient for the action codes ``steps``, one
    ``distribution``/``grad_log_prob`` per step."""
    objective = 0.0
    grad = np.zeros_like(params.weights)
    for f, a, r in zip(features, steps, rewards):
        if r == 0.0:
            continue
        probs = distribution(params, f)
        objective -= float(np.log(probs[a])) * r
        grad -= r * grad_log_prob(params, f, ACTIONS[a])
    return objective, grad


def reference_hybrid(params, episode, lam):
    """lam * J + (1 - lam) * J' from ``per_step_objective``; J unscaled when
    the episode has no revision."""
    j, grad = per_step_objective(params, episode.features, episode.codes, episode.rewards)
    if episode.revised is None:
        return j, grad
    j_rev, grad_rev = per_step_objective(params, episode.features, *episode.revised)
    return lam * j + (1 - lam) * j_rev, lam * grad + (1 - lam) * grad_rev


def random_episodes(seed, introspective_revision=True):
    """Episodes of a generated set under random weights, IR on or off."""
    rng = np.random.default_rng(seed)
    params = PolicyParams(weights=rng.normal(scale=2.0, size=(5, N_FEATURES)))
    examples = natlog.generate(natlog.default_genspec(), RULES)[0][::40]
    compiled, rows = compile_examples(examples, RULES, LEX)
    config = TrainConfig(seed=seed, introspective_revision=introspective_revision)
    table = OutcomeTable(config)
    episodes = [
        sampled_episode(
            table,
            table.classify(item.pair, item.target),
            item,
            params,
            features_of(item, rows),
            episode_uniforms(item, config, np.random.default_rng([seed, i])),
        )
        for i, item in enumerate(compiled)
    ]
    return params, compiled, rows, episodes


class TestObjectiveFromEpisodeProbs:
    """The stacked objective and greedy accuracy, bit for bit, against
    per-step ``grad_log_prob`` and per-example ``decode`` references."""

    @pytest.mark.parametrize("seed", range(3))
    def test_hybrid_equals_per_step_reference(self, seed):
        params, _, _, episodes = random_episodes(seed)
        assert any(e.revised[0] != e.codes for e in episodes)
        for episode in episodes:
            j, grad = per_step_objective(
                params, episode.features, episode.codes, episode.rewards
            )
            j_rev, grad_rev = per_step_objective(
                params, episode.features, *episode.revised
            )
            for lam in (0.0, 0.5, 0.7, 1.0):
                value, gradient = hybrid(episode, lam)
                assert value == lam * j + (1 - lam) * j_rev
                assert np.array_equal(gradient, lam * grad + (1 - lam) * grad_rev)

    def test_hybrid_without_revision_equals_reference(self):
        params, _, _, episodes = random_episodes(4, introspective_revision=False)
        for episode in episodes:
            assert episode.revised is None
            j, grad = per_step_objective(
                params, episode.features, episode.codes, episode.rewards
            )
            value, gradient = hybrid(episode, 0.5)
            assert value == j
            assert np.array_equal(gradient, grad)

    @pytest.mark.parametrize("seed", range(3))
    def test_reinforce_objective_equals_reference(self, seed):
        rng = np.random.default_rng(seed)
        for m in range(1, 9):
            params = PolicyParams(weights=rng.normal(scale=3.0, size=(5, N_FEATURES)))
            features = rng.normal(size=(m, N_FEATURES))
            program = tuple(ACTIONS[i] for i in rng.integers(5, size=m))
            rewards = tuple(float(r) for r in rng.choice([0.0, 1.0, -0.5, -0.25], size=m))
            j, grad = reinforce_objective(params, features, program, rewards)
            j_ref, grad_ref = per_step_objective(
                params, features, codes(program), rewards
            )
            assert j == j_ref
            assert np.array_equal(grad, grad_ref)

    def test_zero_rewards_mask_vanishing_probabilities(self):
        # step 1's sampled action has probability 0.0 (log = -inf); a zero
        # reward must drop it rather than turn 0 * -inf into NaN
        params = PolicyParams.zeros()
        params.weights[0, -1] = 1e4
        features = np.zeros((2, N_FEATURES))
        features[:, -1] = 1.0
        program, rewards = (A_IND, A_EQ), (0.0, 1.0)
        assert step_distributions(params, features)[0, A_IND.code] == 0.0
        j, grad = reinforce_objective(params, features, program, rewards)
        assert np.isfinite(j) and np.all(np.isfinite(grad))
        j_ref, grad_ref = per_step_objective(params, features, codes(program), rewards)
        assert j == j_ref
        assert np.array_equal(grad, grad_ref)

    @pytest.mark.parametrize("seed", range(3))
    def test_greedy_accuracy_equals_per_example_decode(self, seed):
        params, compiled, rows, _ = random_episodes(seed)
        hits = sum(
            matches_target(
                execute(item.pair, decode(params, features_of(item, rows))),
                item.target,
            )
            for item in compiled
        )
        assert 0 < hits < len(compiled)
        table = OutcomeTable(CFG)
        classes = [table.classify(item.pair, item.target) for item in compiled]
        assert _greedy_hits(table, classes, compiled, rows)(params) == hits
        empty = _greedy_hits(table, [], [], np.zeros((0, N_FEATURES)))
        assert empty(params) == 0


@st.composite
def objective_batches(draw):
    """A batch of 1-16 episodes of 1-8 steps under random weights, IR on or
    off, and a lambda.

    Rewards come from {0, mu, -gamma^k * mu}.  A step whose last feature is
    1 puts all mass on action 0 (the others get probability 0.0); a program
    that takes another action there earns a zero reward for it.  With IR,
    an episode's revision is either unchanged (its own codes and rewards
    objects, as ``sampled_episode`` leaves them) or drawn afresh.
    """
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    params = PolicyParams(weights=rng.normal(scale=2.0, size=(5, N_FEATURES)))
    params.weights[0, -1] = 1e4
    mu = draw(st.sampled_from([1.0, 0.3]))
    gamma = draw(st.sampled_from([0.5, 0.9]))
    ir = draw(st.booleans())
    lam = draw(st.sampled_from([0.0, 0.5, 0.7, 1.0]))
    rewards = st.sampled_from(
        [0.0, mu] + [-(gamma**k) * mu for k in range(1, 9)]
    )

    def scored(vanishing):
        steps, step_rewards = [], []
        for vanishes in vanishing:
            a = draw(st.integers(min_value=0, max_value=len(ACTIONS) - 1))
            steps.append(a)
            step_rewards.append(0.0 if vanishes and a else draw(rewards))
        return tuple(steps), tuple(step_rewards)

    episodes = []
    for m in draw(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=16)):
        vanishing = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        features = rng.normal(size=(m, N_FEATURES))
        features[:, -1] = vanishing
        steps, step_rewards = scored(vanishing)
        episode = Sample(
            features, step_distributions(params, features), steps, step_rewards
        )
        if ir and draw(st.booleans()):  # revision changed nothing
            episode.revised = steps, step_rewards
        elif ir:
            episode.revised = scored(vanishing)
        episodes.append(episode)
    return params, episodes, lam


@st.composite
def program_batches(draw):
    """1-16 programs of 1-8 steps, all of one length or of mixed lengths."""
    count = draw(st.integers(1, 16))
    if draw(st.booleans()):
        lengths = [draw(st.integers(1, 8))] * count
    else:
        lengths = draw(st.lists(st.integers(1, 8), min_size=count, max_size=count))
    return [
        tuple(draw(st.lists(st.sampled_from(ACTIONS), min_size=m, max_size=m)))
        for m in lengths
    ]


def looked_up_keys(programs):
    """The key that ``run_episode`` looks each program's rewards up by,
    read by a spy on ``OutcomeTable.rewards``; each program runs, without
    revision, on an upward pair of its length."""
    table = OutcomeTable(TrainConfig(introspective_revision=False))
    rewards, looked = table.rewards, []

    def spy(cls, steps):
        looked.append(steps)
        return rewards(cls, steps)

    table.rewards = spy
    items = {}
    for program in programs:
        m = len(program)
        if m not in items:
            item = proposing(upward_pair(m), ())
            items[m] = item, table.classify(item.pair, NLILabel.ENTAILMENT)
        item, cls = items[m]
        steps = [a.code for a in program]
        assert run_episode(table, cls, item, steps)[1:] == (None, ())
    assert len(looked) == len(programs)
    return looked


class TestProgramCodes:
    """The key that ``run_episode`` looks a sampled program up by is the
    tuple of its sampled action codes, and ``_program`` of it is the
    program."""

    @settings(max_examples=300, deadline=None)
    @given(program_batches())
    def test_equal_program_code(self, programs):
        got = looked_up_keys(programs)
        assert got == [codes(p) for p in programs]
        assert all(type(key) is tuple for key in got)
        assert [_program(key) for key in got] == programs

    @pytest.mark.parametrize("m", range(1, 9))
    def test_every_program_of_m_steps(self, m):
        # past 5 steps, 5**m programs would be too many: every last 5 steps
        # behind the first action, then behind the last
        tails = list(itertools.product(ACTIONS, repeat=min(m, 5)))
        heads = [()] if m <= 5 else [(ACTIONS[0],) * (m - 5), (ACTIONS[-1],) * (m - 5)]
        programs = [head + tail for head in heads for tail in tails]
        assert {len(p) for p in programs} == {m}
        got = looked_up_keys(programs)
        assert got == [codes(p) for p in programs]
        assert len(set(got)) == len(programs)

    def test_programs_past_int64(self):
        # 1 to 40 steps: from 28 steps on there are more programs than
        # int64 values; one action at every length keeps the lengths apart
        rng = np.random.default_rng(0)
        programs = [(ACTIONS[-1],) * m for m in (1, 26, 27, 40)]
        programs += [
            tuple(ACTIONS[i] for i in rng.integers(5, size=m)) for m in (3, 33)
        ]
        got = looked_up_keys(programs)
        assert got == [codes(p) for p in programs]
        assert len(set(got)) == len(programs)
        assert all(type(key) is tuple for key in got)
        assert [_program(key) for key in got] == programs


class TestBatchObjective:
    """The batch kernel against ``per_step_objective``, one episode and one
    step at a time, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(objective_batches())
    def test_equals_per_episode_per_step_reference(self, case):
        params, episodes, lam = case
        values, grads = stacked_objective(episodes, lam)
        assert values.shape == (len(episodes),)
        assert grads.shape == (len(episodes),) + params.weights.shape
        for episode, value, grad in zip(episodes, values, grads):
            expected_value, expected_grad = reference_hybrid(params, episode, lam)
            assert np.isfinite(value) and np.isfinite(grad).all()
            assert np.float64(value).tobytes() == np.float64(expected_value).tobytes()
            assert grad.tobytes() == expected_grad.tobytes()
            one_value, one_grad = hybrid(episode, lam)
            assert np.float64(one_value).tobytes() == np.float64(value).tobytes()
            assert one_grad.tobytes() == grad.tobytes()

    def test_revision_that_matches_no_episode_rejected(self):
        _, _, _, episodes = random_episodes(0)
        rewards, probs, features, codes, _ = stacked(episodes[:3])
        steps, revised_rewards = episodes[1].revised
        for revised in [
            {3: (steps, revised_rewards)},  # past the batch
            {-1: (steps, revised_rewards)},  # not an index
            {1: (steps[:1], revised_rewards)},  # a step short
            {1: (steps, revised_rewards + (0.0,))},  # a reward long
        ]:
            with pytest.raises(ValueError, match="does not match an episode"):
                batch_objective(rewards, 0.5, probs, features, codes, revised)
        with pytest.raises(ValueError, match="3 episodes of 6 steps, but 5 codes"):
            batch_objective(rewards, 0.5, probs, features, codes[:5])
        with pytest.raises(ValueError, match="but 6 codes, 4 probability rows"):
            batch_objective(rewards, 0.5, probs[:4], features, codes)

    def test_empty_batch_rejected(self):
        empty = np.zeros((0, N_FEATURES))
        for revised in (None, {}):
            with pytest.raises(ValueError, match="empty batch"):
                batch_objective([], 0.5, empty, empty, np.zeros(0, np.intp), revised)


def stacked(episodes):
    """The ``batch_objective`` arguments of ``Sample`` records, stacked as
    ``train`` stacks a batch: an unchanged revision (its own codes and
    rewards objects) is not in ``revised``, which is None when no episode
    is revised."""
    revised = None
    if episodes[0].revised is not None:
        revised = {
            i: e.revised
            for i, e in enumerate(episodes)
            if e.revised[0] is not e.codes or e.revised[1] is not e.rewards
        }
    return (
        [e.rewards for e in episodes],
        np.concatenate([e.probs for e in episodes]),
        np.concatenate([e.features for e in episodes]),
        np.array([a for e in episodes for a in e.codes], dtype=np.intp),
        revised,
    )


def stacked_objective(episodes, lam):
    rewards, probs, features, codes, revised = stacked(episodes)
    return batch_objective(rewards, lam, probs, features, codes, revised)


def assert_same_episode(got, expected):
    for f in dataclasses.fields(Sample):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def episodes_with_references(seed, config, step):
    """``run_episode`` and ``_reference_episode`` on every ``step``-th comp
    training pair under random weights, on the same stream."""
    rng = np.random.default_rng(seed)
    params = PolicyParams(weights=rng.normal(scale=2.0, size=(5, N_FEATURES)))
    examples = natlog.generate(natlog.default_genspec(), RULES)[0][::step]
    compiled, rows = compile_examples(examples, RULES, LEX)
    table = OutcomeTable(config)
    for i, item in enumerate(compiled):
        features = features_of(item, rows)
        cls = table.classify(item.pair, item.target)
        uniforms = episode_uniforms(item, config, np.random.default_rng([seed, i]))
        episode = sampled_episode(table, cls, item, params, features, uniforms)
        expected = _reference_episode(
            params, item, features, config, np.random.default_rng([seed, i])
        )
        yield episode, expected


class TestRunEpisode:
    """``run_episode`` against the reference episode, which always executes
    and rewards the revised program."""

    @pytest.mark.parametrize("seed", range(3))
    def test_unchanged_revision_reuses_trace_and_rewards(self, seed):
        unchanged = changed = 0
        for episode, expected in episodes_with_references(seed, TrainConfig(seed=seed), 20):
            assert_same_episode(episode, expected)
            if episode.revised[0] == episode.codes:
                unchanged += 1
                assert episode.revised[1] is episode.rewards
            else:
                changed += 1
        assert unchanged and changed

    def test_without_revision_nothing_is_revised(self):
        config = TrainConfig(introspective_revision=False)
        for episode, expected in episodes_with_references(5, config, 80):
            assert_same_episode(episode, expected)
            assert episode.revised is None
            assert episode.events == ()


class TestRelationAugmentation:
    def test_entailment_pairs_get_swapped_samples(self):
        examples = [
            Example(
                premise="some dogs run",
                hypothesis="some animals run",
                label=NLILabel.ENTAILMENT,
            )
        ]
        out, pairs = augment(examples)
        assert len(out) == len(pairs) == 2
        assert out[0] is examples[0]
        swapped = out[1]
        assert swapped.premise == "some animals run"
        assert swapped.hypothesis == "some dogs run"
        assert swapped.label is None
        assert swapped.target_state == Relation.REVERSE_ENTAILMENT
        assert swapped.target == Relation.REVERSE_ENTAILMENT

    def test_mutual_entailment_is_skipped(self):
        examples = [
            Example(
                premise="the kid runs",
                hypothesis="the child runs",
                label=NLILabel.ENTAILMENT,
            )
        ]
        out, pairs = augment(examples)
        assert len(out) == len(pairs) == 1

    def test_non_entailment_untouched(self):
        examples = [
            Example(
                premise="some dogs run",
                hypothesis="some dogs sleep",
                label=NLILabel.NEUTRAL,
            ),
            Example(
                premise="all dogs run",
                hypothesis="all dogs sleep",
                label=NLILabel.CONTRADICTION,
            ),
        ]
        chunked = chunk_examples(examples, RULES)
        assert relation_augmentation(examples, chunked, LEX) == (examples, chunked)

    def test_mutual_filter_detects_synonym_rewrites(self):
        # equal chunk for chunk up to synonyms: no swap; a hypernym: a swap
        examples = [
            Example(
                premise="the kid runs",
                hypothesis="the child runs",
                label=NLILabel.ENTAILMENT,
            ),
            Example(
                premise="some dogs run",
                hypothesis="some animals run",
                label=NLILabel.ENTAILMENT,
            ),
        ]
        out, _ = augment(examples)
        assert [(e.premise, e.hypothesis) for e in out[2:]] == [
            ("some animals run", "some dogs run")
        ]

    def test_swapped_pairs_are_their_originals_with_the_sides_exchanged(self):
        examples = natlog.generate(natlog.default_genspec(), RULES)[0]
        chunked = chunk_examples(examples, RULES)
        out, pairs = relation_augmentation(examples, chunked, LEX)
        assert len(out) == len(pairs) == 2816
        assert all(a is b for a, b in zip(pairs, chunked))
        originals = {(e.premise, e.hypothesis): p for e, p in zip(examples, chunked)}
        for example, pair in zip(out[len(examples) :], pairs[len(examples) :]):
            original = originals[example.hypothesis, example.premise]
            assert pair == ChunkedPair(original.hypothesis, original.premise)
        # and each equals the swapped example chunked on its own
        assert pairs == chunk_examples(out, RULES)

    def test_pairs_of_another_length_rejected(self):
        examples = list(tiny_dataset())
        chunked = chunk_examples(examples, RULES)
        for pairs in (chunked[:-1], chunked + chunked[:1]):
            message = f"{len(examples)} examples but {len(pairs)} chunked pairs"
            with pytest.raises(ValueError, match=message):
                relation_augmentation(examples, pairs, LEX)


def tiny_dataset():
    return [
        Example(
            premise="some dogs run",
            hypothesis="some animals run",
            label=NLILabel.ENTAILMENT,
        ),
        Example(
            premise="no animals run",
            hypothesis="no dogs run",
            label=NLILabel.ENTAILMENT,
        ),
        Example(
            premise="all dogs run",
            hypothesis="all dogs sleep",
            label=NLILabel.CONTRADICTION,
        ),
        Example(
            premise="some animals run",
            hypothesis="some dogs run",
            label=NLILabel.NEUTRAL,
        ),
    ]


class TestTrain:
    @pytest.mark.parametrize("augmentation", [False, True])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"premise": "", "label": NLILabel.ENTAILMENT}, "cannot chunk an empty sentence"),
            ({"hypothesis": " . "}, "cannot chunk an empty sentence"),
            ({"label": None}, "example has neither label nor target state"),
        ],
    )
    def test_malformed_example_named_by_index_and_premise(
        self, augmentation, bad, message
    ):
        examples = tiny_dataset()
        examples[2] = dataclasses.replace(examples[2], **bad)
        config = TrainConfig(epochs=1, augmentation=augmentation)
        with pytest.raises(ValueError) as info:
            train(examples, RULES, LEX, config)
        premise = examples[2].premise
        assert str(info.value) == f"example 2 ({premise!r}): {message}"

    def test_runs_and_reports_metrics(self):
        config = TrainConfig(epochs=3, seed=1, augmentation=False)
        result = train(tiny_dataset(), RULES, LEX, config)
        assert len(result.metrics) == 3
        for em in result.metrics:
            stats = em.revisions
            assert stats.episodes == 4
            total = stats.knowledge_only + stats.answer_only + stats.both + stats.none
            assert total == stats.episodes
            assert all(v >= 0 for v in stats.per_relation.values())
            revised = stats.knowledge_only + stats.answer_only + stats.both
            assert sum(stats.per_relation.values()) >= revised

    def test_deterministic_across_runs(self):
        config = TrainConfig(epochs=2, seed=7)
        a = train(tiny_dataset(), RULES, LEX, config)
        b = train(tiny_dataset(), RULES, LEX, config)
        assert np.array_equal(a.params.weights, b.params.weights)
        assert [m.to_record() for m in a.metrics] == [
            m.to_record() for m in b.metrics
        ]

    def test_different_seeds_diverge(self):
        a = train(tiny_dataset(), RULES, LEX, TrainConfig(epochs=2, seed=1))
        b = train(tiny_dataset(), RULES, LEX, TrainConfig(epochs=2, seed=2))
        assert not np.array_equal(a.params.weights, b.params.weights)

    def test_no_revisions_without_ir(self):
        config = TrainConfig(epochs=1, seed=0, introspective_revision=False)
        result = train(tiny_dataset(), RULES, LEX, config)
        stats = result.metrics[0].revisions
        assert stats.none == stats.episodes
        assert stats.per_relation == {}

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], RULES, LEX, TrainConfig())

    def test_learning_improves_tiny_task(self):
        config = TrainConfig(
            epochs=25, seed=0, learning_rate=0.1, batch_size=2, augmentation=False
        )
        result = train(tiny_dataset(), RULES, LEX, config)
        assert result.metrics[-1].train_accuracy >= 0.75


class TestEpisodeStreams:
    """Each episode's stream, drawn for a whole epoch as rows of uniforms,
    equals ``default_rng([seed, ordinal]).random(width)`` bit for bit."""

    ORDINALS = [0, 1, 255, 256, 65535, 65536, 10**6, 2**32 - 1]
    WIDTHS = [1, 2, 8, 17]

    @staticmethod
    def assert_equal_to_default_rng(seed, ordinals, width):
        uniforms = _episode_uniforms(seed, ordinals, width)
        expected = np.array(
            [np.random.default_rng([seed, o]).random(width) for o in ordinals]
        )
        assert uniforms.shape == (len(ordinals), width)
        assert uniforms.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(64))
    def test_equal_to_default_rng(self, seed):
        drawn = np.random.default_rng(1000 + seed).integers(0, 2**32, 200)
        ordinals = self.ORDINALS + drawn.tolist()
        for width in self.WIDTHS:
            self.assert_equal_to_default_rng(seed, ordinals, width)

    def test_largest_seed_and_ordinal(self):
        for width in self.WIDTHS:
            self.assert_equal_to_default_rng(2**32 - 1, [2**32 - 1], width)

    @pytest.mark.parametrize(
        "seed, ordinals", [(2**32, [0]), (-1, [0]), (0, [2**32]), (0, [5, -1])]
    )
    def test_words_past_one_entropy_word_rejected(self, seed, ordinals):
        with pytest.raises(ValueError, match=r"in \[0, 2\*\*32\)"):
            _stream_words(seed, ordinals)

    def test_run_past_two_to_the_32_episodes_rejected(self):
        examples = tiny_dataset()[:2]
        config = TrainConfig(epochs=2**31 + 1, augmentation=False)
        with pytest.raises(ValueError, match=r"more than 2\*\*32 episodes"):
            train(examples, RULES, LEX, config)

    def test_run_of_exactly_two_to_the_32_episodes_starts(self, monkeypatch):
        class Started(Exception):
            pass

        def uniforms(seed, ordinals, width):
            raise Started

        monkeypatch.setattr(natlog.trainer, "_episode_uniforms", uniforms)
        config = TrainConfig(epochs=2**31, augmentation=False)
        with pytest.raises(Started):
            train(tiny_dataset()[:2], RULES, LEX, config)


def _reference_episode(params, compiled, features, config, rng):
    """One episode as sampled before batching: one softmax per episode, one
    scalar ``sample`` per step, ``execute`` and ``reward`` per program, and
    the test-local ``reference_revision``, so no outcome table is read.
    ``features`` are the example's rows."""
    probs = step_distributions(params, features)
    program = tuple(sample(p, rng) for p in probs)
    rewards = reward(execute(compiled.pair, program), compiled.target, config)
    episode = Sample(features, probs, codes(program), rewards)
    if not config.introspective_revision:
        return episode
    keys = knowledge.proposal_keys(compiled.pair, LEX) if config.knowledge else ()
    phi = reference_ranking(keys, probs)
    revised, episode.events = reference_revision(
        compiled.pair, program, compiled.target, phi, probs, config, rng
    )
    revised_rewards = reward(execute(compiled.pair, revised), compiled.target, config)
    episode.revised = codes(revised), revised_rewards
    return episode


def _reference_train(examples, config, params=None):
    """``train`` one episode at a time: a fresh ``default_rng`` per episode,
    the objective of each from ``per_step_objective``, a weight update after
    every ``batch_size`` episodes and after the last, and greedy accuracy
    from ``execute``.  It starts from a copy of ``params``, zero weights when
    None."""
    if config.augmentation:
        examples = augment(examples)[0]
    compiled, rows = compile_examples(examples, RULES, LEX)
    params = params.copy() if params is not None else PolicyParams.zeros()
    metrics = []
    ordinal = 0
    for epoch in range(1, config.epochs + 1):
        order = np.arange(len(compiled))
        np.random.default_rng([config.seed, epoch]).shuffle(order)
        revisions = []
        reward_total, reward_steps = 0.0, 0
        objective_total = 0.0
        batch_grad = np.zeros_like(params.weights)
        batch_count = 0
        for idx in order:
            episode_rng = np.random.default_rng([config.seed, ordinal])
            ordinal += 1
            item = compiled[idx]
            episode = _reference_episode(
                params, item, features_of(item, rows), config, episode_rng
            )
            value, grad = reference_hybrid(params, episode, config.lam)
            objective_total += value
            batch_grad += grad
            batch_count += 1
            if batch_count == config.batch_size:
                params.weights -= config.learning_rate * batch_grad
                batch_grad = np.zeros_like(params.weights)
                batch_count = 0
            reward_total += sum(episode.rewards)
            reward_steps += len(episode.rewards)
            revisions.append(episode.events)
        if batch_count:
            params.weights -= config.learning_rate * batch_grad
        hits = sum(
            matches_target(
                execute(item.pair, decode(params, features_of(item, rows))),
                item.target,
            )
            for item in compiled
        )
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_accuracy=hits / len(compiled),
                mean_reward=reward_total / max(reward_steps, 1),
                objective=objective_total / len(compiled),
                revisions=RevisionStats.tally(revisions),
            )
        )
    return TrainResult(params=params, metrics=tuple(metrics))


@functools.lru_cache(maxsize=None)
def equivalence_slice(split):
    """48 compositional training pairs (m = 2) or 44 noisy test pairs
    (half m = 2, half m = 4)."""
    if split == "comp":
        return tuple(natlog.generate(natlog.default_genspec(), RULES)[0][::40])
    spec = dataclasses.replace(natlog.default_genspec(), noisy_test=True)
    return tuple(natlog.generate(spec, RULES)[1][::60])


class TestBatchedTrainEqualsReference:
    """Batched training against the per-episode reference loop, byte for byte."""

    @pytest.mark.parametrize("split", ["comp", "noisy"])
    @pytest.mark.parametrize("batch_size", [1, 3, 8, 1000])
    @pytest.mark.parametrize("ir", [True, False])
    @pytest.mark.parametrize("knowledge", [True, False])
    def test_weights_and_metrics_equal(self, split, batch_size, ir, knowledge):
        examples = equivalence_slice(split)
        if split == "noisy":
            ms = {chunk_pair(e.premise, e.hypothesis, RULES).m for e in examples}
            assert ms == {2, 4}
        config = TrainConfig(
            epochs=3,
            learning_rate=0.05,
            batch_size=batch_size,
            seed=batch_size,
            introspective_revision=ir,
            knowledge=knowledge,
        )
        self.assert_equal(examples, config)

    @pytest.mark.parametrize("split", ["comp", "noisy"])
    @pytest.mark.parametrize("max_revisions", [0, 1, 10])
    def test_revision_budgets_equal(self, split, max_revisions):
        # M sets the width of each epoch's rows of uniforms; 10 pops every
        # proposal of every pair
        config = TrainConfig(
            epochs=3, learning_rate=0.05, batch_size=3, seed=max_revisions,
            max_revisions=max_revisions,
        )
        self.assert_equal(equivalence_slice(split), config)

    @pytest.mark.parametrize("ir", [True, False])
    def test_programs_past_int64_equal(self, ir):
        # 28 chunks a side: more programs than an int64 can number
        premise = " ".join(["dogs run"] * 14)
        examples = [
            Example(
                premise=premise,
                hypothesis="animals run " + " ".join(["dogs run"] * 13),
                label=NLILabel.ENTAILMENT,
            )
        ]
        assert chunk_pair(examples[0].premise, examples[0].hypothesis, RULES).m == 28
        assert 5**28 > 2**63
        config = TrainConfig(
            epochs=4, batch_size=1, seed=1, introspective_revision=ir
        )
        self.assert_equal(examples, config)

    @staticmethod
    def assert_equal(examples, config):
        got = train(examples, RULES, LEX, config)
        expected = _reference_train(examples, config)
        assert got.params.weights.tobytes() == expected.params.weights.tobytes()
        assert [m.to_record() for m in got.metrics] == [
            m.to_record() for m in expected.metrics
        ]
        assert got.params.weights.any()


class TestTrainStartParams:
    """``train`` from given weights, signed zeros among them, against the
    reference loop from the same weights, byte for byte."""

    @pytest.mark.parametrize("split", ["comp", "noisy"])
    @pytest.mark.parametrize("ir", [True, False])
    def test_start_params_with_negative_zeros_equal_reference(self, split, ir):
        rng = np.random.default_rng(17)
        weights = rng.normal(size=(5, N_FEATURES))
        weights[rng.random(weights.shape) < 0.5] = -0.0
        start = PolicyParams(weights=weights)
        before = start.weights.tobytes()
        config = TrainConfig(
            epochs=2, learning_rate=0.05, batch_size=5, seed=6,
            introspective_revision=ir,
        )
        got = train(equivalence_slice(split), RULES, LEX, config, params=start)
        expected = _reference_train(equivalence_slice(split), config, params=start)
        assert start.weights.tobytes() == before
        assert got.params.weights.tobytes() == expected.params.weights.tobytes()
        assert [m.to_record() for m in got.metrics] == [
            m.to_record() for m in expected.metrics
        ]
        # some weights stay -0.0: their features are 0 at every step
        assert np.signbit(got.params.weights[got.params.weights == 0.0]).any()


def count_calls(monkeypatch, counts, module, name):
    """Count the calls of ``module.name`` in ``counts`` under ``name``,
    through the package and every layer module that binds it, as their
    from-imports do."""
    target = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return target(*args, **kwargs)

    for bound in (natlog, *filter(inspect.ismodule, vars(natlog).values())):
        if getattr(bound, name, None) is target:
            monkeypatch.setattr(bound, name, counted)


class TestTrainCallStructure:
    """What one ``train`` call runs: one episode per example and epoch, one
    ``step_distributions`` call per batch and one per epoch for the greedy
    accuracy, and none of the one-row or one-episode references."""

    @pytest.mark.parametrize("split", ["comp", "noisy"])
    @pytest.mark.parametrize("ir", [True, False])
    def test_calls_per_episode_batch_and_epoch(self, monkeypatch, split, ir):
        examples = equivalence_slice(split)
        n = len(augment(examples)[0])
        config = TrainConfig(epochs=3, batch_size=7, seed=2, introspective_revision=ir)
        assert n % config.batch_size  # the last batch of every epoch is short
        counts = collections.Counter()
        for module, name in [
            (natlog.trainer, "run_episode"),
            (natlog.policy, "step_distributions"),
            (natlog.policy, "distribution"),
            (natlog.policy, "grad_log_prob"),
            (natlog.trainer, "reinforce_objective"),
            (natlog.trainer, "hybrid_objective"),
        ]:
            count_calls(monkeypatch, counts, module, name)
        train(examples, RULES, LEX, config)
        batches = -(-n // config.batch_size)
        assert counts == {
            "run_episode": config.epochs * n,
            "step_distributions": config.epochs * (batches + 1),
        }

    @pytest.mark.parametrize("split", ["comp", "noisy"])
    @pytest.mark.parametrize("knowledge", [True, False])
    def test_only_episodes_that_clash_or_miss_revise(
        self, monkeypatch, split, knowledge
    ):
        # revision and its queue run once per episode whose program differs
        # from some proposal (clashes) or misses, and grid search ranks one
        # more
        examples = equivalence_slice(split)
        n = len(augment(examples)[0])
        config = TrainConfig(epochs=2, batch_size=7, seed=3, knowledge=knowledge)
        counts = collections.Counter()
        for name in ("introspective_revision", "queue_from_keys", "grid_search"):
            count_calls(monkeypatch, counts, natlog.trainer, name)
        episodes = []
        run = natlog.trainer.run_episode

        def recording(table, cls, item, steps, rows, uniforms):
            program = tuple(ACTIONS[a] for a in steps)
            proposals = item.proposals if knowledge else ()
            clashes = any(steps[t - 1] != a for t, a in proposals)
            episodes.append((item, program, clashes))
            return run(table, cls, item, steps, rows, uniforms)

        monkeypatch.setattr(natlog.trainer, "run_episode", recording)
        train(examples, RULES, LEX, config)
        assert len(episodes) == config.epochs * n
        revising = 0
        for item, program, clashes in episodes:
            hit = matches_target(execute(item.pair, program), item.target)
            revising += clashes or not hit
        assert 0 < revising < len(episodes)
        assert counts["introspective_revision"] == revising
        assert counts["queue_from_keys"] == revising + counts["grid_search"]
        assert any(clashes for *_, clashes in episodes) == knowledge

    def test_default_train_chunks_each_sentence_once(self, monkeypatch):
        # relation augmentation and compilation share one chunking: the
        # swapped pairs are the originals' chunks with the sides exchanged
        import natlog.chunker as chunker

        examples = natlog.generate(natlog.default_genspec(), RULES)[0]
        read = []
        role_bits = chunker._role_bits

        def counting_bits(tokens, rules):
            read.append(tuple(tokens))
            return role_bits(tokens, rules)

        monkeypatch.setattr(chunker, "_role_bits", counting_bits)
        train(examples, RULES, LEX, TrainConfig(epochs=1))
        sentences = {s for e in examples for s in (e.premise, e.hypothesis)}
        assert len(read) == len(set(read)) == len(sentences) == 917

    @pytest.mark.parametrize("split", ["comp", "noisy"])
    @pytest.mark.parametrize("ir", [True, False])
    def test_programs_built_only_on_a_miss_or_for_revision(
        self, monkeypatch, split, ir
    ):
        # an episode, revised or not, works on action codes: a program's
        # actions are built only inside an ``OutcomeTable`` reward or
        # reachability lookup, once per (table, kind, class, codes) entry,
        # on its first lookup; a reachability lookup builds none when the
        # program was executed before, and an edits lookup builds none
        program = natlog.trainer._program
        lookups, built = collections.defaultdict(set), collections.Counter()
        inside = []

        def recording(kind):
            method = getattr(OutcomeTable, kind)

            def wrapped(table, cls, steps):
                key = (id(table), kind, cls, steps)
                lookups[kind].add(key)
                inside.append(key)
                try:
                    return method(table, cls, steps)
                finally:
                    inside.pop()

            return wrapped

        def counting_program(steps):
            built[inside[-1]] += 1  # an IndexError outside every lookup
            return program(steps)

        for kind in ("rewards", "edits", "reaches"):
            monkeypatch.setattr(OutcomeTable, kind, recording(kind))
        monkeypatch.setattr(natlog.trainer, "_program", counting_program)
        config = TrainConfig(epochs=2, introspective_revision=ir)
        train(equivalence_slice(split), RULES, LEX, config)
        assert set(built.values()) == {1}
        assert {key for key in built if key[1] == "rewards"} == lookups["rewards"]
        assert not {key for key in built if key[1] == "edits"}
        assert {key for key in built if key[1] == "reaches"} <= lookups["reaches"]
        assert lookups["reaches"] and bool(lookups["edits"]) == ir


@functools.lru_cache(maxsize=None)
def class_members(split):
    """The augmented comp training split or noisy test split, compiled, as
    {class: pairs} in a table of the default config, with its targets."""
    if split == "comp":
        examples = natlog.generate(natlog.default_genspec(), RULES)[0]
    else:
        spec = dataclasses.replace(natlog.default_genspec(), noisy_test=True)
        examples = natlog.generate(spec, RULES)[1]
    examples = augment(examples)[0]
    table = OutcomeTable(CFG)
    members, targets = {}, {}
    # chunked again, swapped examples and all, apart from augmentation
    for example, pair in zip(examples, chunk_examples(examples, RULES)):
        cls = table.classify(pair, example.target)
        members.setdefault(cls, []).append(pair)
        targets[cls] = example.target
    return members, targets


class TestOutcomeTable:
    """Every program of every class against ``reward``, ``single_edits`` and
    ``matches_target(execute(...))``, and one table per ``train`` call."""

    @pytest.mark.parametrize(
        "config",
        [CFG, TrainConfig(prefer_forward_entailment=False, mu=0.3, gamma=0.9)],
    )
    @pytest.mark.parametrize("split, ms", [("comp", {2}), ("noisy", {2, 4})])
    def test_every_program_of_every_class_equals_the_references(
        self, split, ms, config
    ):
        members, targets = class_members(split)
        assert len(members) == 12
        assert {pairs[0].m for pairs in members.values()} == ms
        table = OutcomeTable(config)
        for key, pairs in members.items():
            target = targets[key]
            cls = table.classify(pairs[0], target)
            assert {table.classify(pair, target) for pair in pairs} == {cls}
            programs = list(itertools.product(ACTIONS, repeat=pairs[0].m))
            # the table's answer for every program, the lookups in two
            # orders: reachability on a miss and on a hit
            answers = []
            for index, program in enumerate(programs):
                steps = codes(program)
                if index % 2:
                    reaches = table.reaches(cls, steps)
                    rewards = table.rewards(cls, steps)
                    edits = table.edits(cls, steps)
                else:
                    edits = table.edits(cls, steps)
                    rewards = table.rewards(cls, steps)
                    reaches = table.reaches(cls, steps)
                answers.append((rewards, reaches, edits))
            # each answer against the references on every member pair: the
            # first and the last on every program, every other member on
            # five programs spread over them, each member another five
            stride = len(programs) // 5
            for index, pair in enumerate(pairs):
                step = 1 if index in (0, len(pairs) - 1) else stride
                for program, (rewards, reaches, edits) in itertools.islice(
                    zip(programs, answers), index % step, None, step
                ):
                    expected = execute(pair, program)
                    assert rewards == reward(expected, target, config)
                    assert reaches == matches_target(expected, target)
                    assert edits == set(single_edits(pair, codes(program), target))
        assert any(pairs[0] != pairs[-1] for pairs in members.values())

    def test_train_calls_with_different_configs_share_nothing(self):
        examples = equivalence_slice("comp")
        plain = TrainConfig(epochs=2, seed=4)
        other = dataclasses.replace(
            plain, prefer_forward_entailment=False, mu=0.3, gamma=0.9
        )
        expected = {c: _reference_train(examples, c) for c in (plain, other)}
        assert (
            expected[plain].params.weights.tobytes()
            != expected[other].params.weights.tobytes()
        )
        for config in (plain, other, plain, other):
            got = train(examples, RULES, LEX, config)
            assert (
                got.params.weights.tobytes()
                == expected[config].params.weights.tobytes()
            )
            assert [m.to_record() for m in got.metrics] == [
                m.to_record() for m in expected[config].metrics
            ]



def ordered_grid_search(pair, steps, phi, target, probs):
    """``grid_search`` as it ranked the ordered ``single_edits`` list: the
    pending proposals that are edits, in queue order, or else every edit in
    step and action order, each ranked by ``queue_from_keys``."""
    edits = single_edits(pair, steps, target)
    shared = [key for key in phi if key in set(edits)]
    return queue_from_keys(shared or edits, probs)


class TestGridSearchOnSplits:
    """``grid_search`` ranks the set of edits as the ordered list of them
    ranks, on random programs of every class of the comp and noisy splits."""

    @pytest.mark.parametrize("split", ["comp", "noisy"])
    def test_edit_set_ranks_as_the_ordered_list(self, split):
        members, targets = class_members(split)
        rng = np.random.default_rng(33)
        table = OutcomeTable(CFG)
        narrowed = ranked = 0
        for key, pairs in members.items():
            for pair in pairs[:: max(1, len(pairs) // 8)]:
                cls = table.classify(pair, targets[key])
                for trial in range(12):
                    steps = tuple(rng.integers(len(ACTIONS), size=pair.m).tolist())
                    # ties are common among a handful of probabilities
                    probs = rng.choice([0.0, 0.2, 0.5], size=(pair.m, len(ACTIONS)))
                    # no pending proposal, the pair's, or those and three more
                    keys = () if trial % 3 == 0 else knowledge.proposal_keys(pair, LEX)
                    if trial % 3 == 2:
                        keys += tuple(
                            (int(t), int(a))
                            for t, a in zip(
                                rng.integers(1, pair.m + 1, size=3),
                                rng.integers(len(ACTIONS), size=3),
                            )
                        )
                    phi = queue_from_keys(keys, probs)
                    got = grid_search(table, cls, steps, phi, probs)
                    assert got == ordered_grid_search(
                        pair, steps, phi, targets[key], probs
                    )
                    edits = table.edits(cls, steps)
                    narrowed += bool(set(phi) & edits)
                    ranked += not set(phi) & edits and len(edits) > 1
        assert narrowed and ranked


def reference_tally(revisions):
    """``RevisionStats.tally`` classifying every episode by its event sources."""
    kinds = collections.Counter()
    per_relation = collections.Counter()
    for events in revisions:
        sources = frozenset(e.source for e in events)
        kind = {
            frozenset({"knowledge"}): "knowledge_only",
            frozenset({"answer"}): "answer_only",
            frozenset({"knowledge", "answer"}): "both",
        }.get(sources, "none")
        kinds[kind] += 1
        per_relation.update(e.new.value for e in events)
    return RevisionStats(
        episodes=sum(kinds.values()), per_relation=dict(per_relation), **kinds
    )


revision_events = st.builds(
    RevisionEvent,
    t=st.integers(1, 4),
    old=st.sampled_from(ACTIONS),
    new=st.sampled_from(ACTIONS),
    source=st.sampled_from(["knowledge", "answer"]),
)


class TestRevisionStatsTally:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just(()), st.lists(revision_events, max_size=4).map(tuple)
            ),
            max_size=30,
        )
    )
    def test_matches_reference(self, revisions):
        got = RevisionStats.tally(revisions)
        expected = reference_tally(revisions)
        assert got == expected
        assert list(got.per_relation) == list(expected.per_relation)
        assert dumps(got.to_record()) == dumps(expected.to_record())

    def test_empty_episodes_count_as_none(self):
        assert RevisionStats.tally([(), (), ()]) == RevisionStats(episodes=3, none=3)
        assert RevisionStats.tally([]) == RevisionStats()

class TestTrainConfigFile:
    def test_load_all_keys(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(
            "# config\n"
            "mu = 2.0\n"
            "gamma = 0.9\n"
            "M = 5\n"
            "epsilon = 0.1\n"
            "lambda = 0.7\n"
            "epochs = 12\n"
            "learning_rate = 0.01\n"
            "batch_size = 4\n"
            "seed = 99\n"
            "prefer_forward_entailment = false\n"
            "introspective_revision = false\n"
            "knowledge = false\n"
            "augmentation = off\n"
        )
        expected = TrainConfig(
            mu=2.0,
            gamma=0.9,
            max_revisions=5,
            epsilon=0.1,
            lam=0.7,
            epochs=12,
            learning_rate=0.01,
            batch_size=4,
            seed=99,
            prefer_forward_entailment=False,
            introspective_revision=False,
            knowledge=False,
            augmentation=False,
        )
        assert load_train_config(path) == expected
        for f in dataclasses.fields(TrainConfig):
            assert getattr(expected, f.name) != f.default, f.name

    def test_every_field_has_exactly_one_key(self):
        fields = [attr for attr, _ in _CONFIG_KEYS.values()]
        assert sorted(fields) == sorted(
            f.name for f in dataclasses.fields(TrainConfig)
        )
        assert len(fields) == 13

    @pytest.mark.parametrize("line", ["max_revisions = 1", "lam = 0.3"])
    def test_field_name_of_aliased_key_is_unknown(self, tmp_path, line):
        path = tmp_path / "train.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_train_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs = 5\nseed = 1\nepochs = 2\n")
        with pytest.raises(ValueError) as info:
            load_train_config(path)
        assert str(info.value) == f"{path}:3: duplicate key 'epochs'"

    @pytest.mark.parametrize(
        "raw, expected",
        [(raw, True) for raw in ("true", "1", "yes", "on", "TRUE")]
        + [(raw, False) for raw in ("false", "0", "no", "off", "Off")],
    )
    def test_bool_spellings(self, raw, expected):
        # parsed directly: every TrainConfig flag defaults to True, so a
        # loaded config cannot show that a true spelling was read
        assert _parse_bool(raw) is expected

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError, match="not a boolean"):
            _parse_bool("maybe")

    def test_bad_number_names_file_and_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("# config\nepochs = two\n")
        with pytest.raises(ValueError) as info:
            load_train_config(path)
        assert str(info.value).startswith(f"{path}:2: epochs: ")
        assert "'two'" in str(info.value)

    def test_line_numbers_count_newlines_only(self, tmp_path):
        # a record separator (\x1e) ends no line, so the bad line is line 2
        path = tmp_path / "train.cfg"
        path.write_text("epochs = 2\x1e\nmu 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_train_config(path)
        assert str(info.value) == f"{path}:2: expected 'key = value'"

    def test_bad_bool_names_file_and_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("seed = 3\n\nknowledge = maybe\n")
        with pytest.raises(ValueError) as info:
            load_train_config(path)
        assert str(info.value) == f"{path}:3: knowledge: not a boolean: 'maybe'"

    def test_defaults_match_stated_values(self):
        cfg = TrainConfig()
        assert cfg.mu == 1.0
        assert cfg.gamma == 0.5
        assert cfg.max_revisions == 3
        assert cfg.epsilon == 0.2
        assert cfg.lam == 0.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("momentum = 0.9\n")
        with pytest.raises(ValueError):
            load_train_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("mu 1.0\n")
        with pytest.raises(ValueError):
            load_train_config(path)

    @pytest.mark.parametrize(
        "line, key",
        [
            ("epochs = 0", "epochs"),
            ("batch_size = 0", "batch_size"),
            ("learning_rate = -0.1", "learning_rate"),
            ("M = -1", "M"),
            ("epsilon = 2", "epsilon"),
            ("lambda = -0.5", "lambda"),
            ("seed = -1", "seed"),
        ],
    )
    def test_out_of_range_value_names_file_line_and_key(self, tmp_path, line, key):
        path = tmp_path / "train.cfg"
        path.write_text(f"knowledge = on\n{line}\n")
        with pytest.raises(ValueError) as info:
            load_train_config(path)
        assert str(info.value).startswith(f"{path}:2: {key}: ")
        assert " must be " in str(info.value)


NAN = float("nan")
INF = float("inf")


class TestTrainConfigBounds:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 0),
            ("epochs", -2),
            ("batch_size", 0),
            ("batch_size", -3),
            ("learning_rate", 0.0),
            ("learning_rate", -0.05),
            ("learning_rate", NAN),
            ("learning_rate", INF),
            ("max_revisions", -1),
            ("epsilon", -0.1),
            ("epsilon", 1.5),
            ("epsilon", NAN),
            ("lam", -0.5),
            ("lam", 1.01),
            ("lam", NAN),
            ("mu", 0.0),
            ("mu", -1.0),
            ("mu", NAN),
            ("mu", INF),
            ("gamma", -0.1),
            ("gamma", 1.5),
            ("gamma", NAN),
            ("seed", -1),
            ("seed", 2**32),
        ],
    )
    def test_out_of_range_value_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be .*, got "):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 1),
            ("batch_size", 1),
            ("learning_rate", 1e-9),
            ("max_revisions", 0),
            ("epsilon", 0.0),
            ("epsilon", 1.0),
            ("lam", 0.0),
            ("lam", 1.0),
            ("mu", 1e-9),
            ("gamma", 0.0),
            ("gamma", 1.0),
            ("seed", 0),
            ("seed", 2**32 - 1),
            ("mu", 1),  # a float field takes an int
            ("gamma", 0),
            ("epsilon", 1),
            ("lam", 0),
            ("learning_rate", 1),
        ],
    )
    def test_boundary_values_accepted(self, field, value):
        assert getattr(TrainConfig(**{field: value}), field) == value

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("epochs", 2.5, "an int"),
            ("epochs", True, "an int"),
            ("batch_size", 2.0, "an int"),
            ("batch_size", "8", "an int"),
            ("seed", 1.5, "an int"),
            ("seed", np.int64(1), "an int"),
            ("max_revisions", 1.5, "an int"),
            ("max_revisions", False, "an int"),
            ("introspective_revision", "no", "a bool"),
            ("knowledge", 0, "a bool"),
            ("augmentation", None, "a bool"),
            ("prefer_forward_entailment", np.bool_(True), "a bool"),
        ],
    )
    def test_wrong_type_names_the_field(self, field, value, kind):
        with pytest.raises(ValueError, match=rf"^{field} must be {kind}, got "):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", ["1", None, [0.5], True])
    @pytest.mark.parametrize(
        "field", ["mu", "gamma", "epsilon", "lam", "learning_rate"]
    )
    def test_float_field_of_another_type_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be a number, got "):
            TrainConfig(**{field: value})
