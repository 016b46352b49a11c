"""Shaped rewards, REINFORCE, revision algorithms, and the training loop."""

import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import natlog
import natlog.cli
from natlog import knowledge
from natlog.chunker import chunk_pair, default_rules
from natlog.data import Example
from natlog.executor import (
    Chunk,
    ChunkedPair,
    execute,
    matches_target,
    reaches,
    single_edits,
)
from natlog.knowledge import Proposal, ProposalQueue, default_lexicon, queue_from_keys
from natlog.policy import (
    N_FEATURES,
    PolicyParams,
    decode,
    distribution,
    grad_log_prob,
    sample,
    step_distributions,
)
from natlog.relations import (
    ACTIONS,
    ActionRelation,
    CONTEXTS,
    NLILabel,
    RELATIONS,
    Relation,
    UPWARD,
    get_context,
)
from natlog.trainer import (
    Episode,
    EpochMetrics,
    RevisionEvent,
    RevisionStats,
    TrainConfig,
    TrainResult,
    _CONFIG_KEYS,
    _parse_bool,
    fix,
    grid_search,
    hybrid_objective,
    introspective_revision,
    load_train_config,
    mutual_entailment_filter,
    reinforce_objective,
    relation_augmentation,
    reward,
    run_episode,
    train,
)
from natlog.trainer import (
    _compile_examples,
    _episode_streams,
    _greedy_accuracy,
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


class TestFix:
    def test_replaces_single_step(self):
        program = (A_EQ, A_EQ, A_EQ)
        assert fix(program, 2, A_FE) == (A_EQ, A_FE, A_EQ)

    def test_one_based_bounds(self):
        program = (A_EQ, A_EQ)
        assert fix(program, 1, A_NA)[0] == A_NA
        assert fix(program, 2, A_NA)[1] == A_NA
        with pytest.raises(ValueError):
            fix(program, 0, A_NA)
        with pytest.raises(ValueError):
            fix(program, 3, A_NA)

    def test_original_untouched(self):
        program = (A_EQ, A_EQ)
        fix(program, 1, A_IND)
        assert program == (A_EQ, A_EQ)


def exhaustive_single_edits(pair, program, target):
    """Oracle: all (t, action) whose one-step edit reaches the target."""
    keys = set()
    for t in range(1, len(program) + 1):
        for action in ACTIONS:
            if matches_target(execute(pair, fix(program, t, action)), target):
                keys.add((t, action))
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
            psi = grid_search(pair, program, ProposalQueue(), target, uniform_probs(m))
            assert psi.keys() == exhaustive_single_edits(pair, program, target)

    def test_correct_program_keeps_identity_edits(self):
        pair = upward_pair(2)
        program = (A_FE, A_EQ)
        psi = grid_search(
            pair, program, ProposalQueue(), NLILabel.ENTAILMENT, uniform_probs(2)
        )
        assert (1, A_FE) in psi.keys()
        assert (2, A_EQ) in psi.keys()

    def test_intersects_with_pending_proposals(self):
        pair = upward_pair(2)
        program = (A_EQ, A_EQ)
        phi = ProposalQueue([Proposal(t=1, relation=A_FE, prob=0.2)])
        psi = grid_search(pair, program, phi, NLILabel.ENTAILMENT, uniform_probs(2))
        assert psi.keys() == frozenset({(1, A_FE)})

    def test_disjoint_proposals_leave_grid_untouched(self):
        pair = upward_pair(2)
        program = (A_EQ, A_EQ)
        phi = ProposalQueue([Proposal(t=1, relation=A_IND, prob=0.2)])
        psi = grid_search(pair, program, phi, NLILabel.CONTRADICTION, uniform_probs(2))
        assert psi.keys() == exhaustive_single_edits(
            pair, program, NLILabel.CONTRADICTION
        )

    def test_unreachable_target_gives_empty_queue(self):
        pair = upward_pair(1)
        psi = grid_search(
            pair, (A_EQ,), ProposalQueue(), Relation.COVER, uniform_probs(1)
        )
        assert len(psi) == 0


class TestIntrospectiveRevision:
    def test_knowledge_acceptance_with_zero_epsilon(self):
        pair = upward_pair(2)
        program = (A_EQ, A_EQ)
        phi = ProposalQueue([Proposal(t=1, relation=A_FE, prob=0.9)])
        cfg = TrainConfig(max_revisions=3, epsilon=0.0)
        revised, events = introspective_revision(
            pair, program, NLILabel.ENTAILMENT, phi,
            uniform_probs(2), cfg, np.random.default_rng(0),
        )
        assert revised == (A_FE, A_EQ)
        assert len(events) == 1
        assert events[0].source == "knowledge"
        assert events[0].old == A_EQ and events[0].new == A_FE and events[0].t == 1

    def test_budget_limits_pops(self):
        pair = upward_pair(3)
        program = (A_EQ, A_EQ, A_EQ)
        phi = ProposalQueue(
            [
                Proposal(t=1, relation=A_FE, prob=0.9),
                Proposal(t=2, relation=A_FE, prob=0.8),
                Proposal(t=3, relation=A_FE, prob=0.7),
            ]
        )
        cfg = TrainConfig(max_revisions=1, epsilon=0.0)
        revised, _ = introspective_revision(
            pair, program, NLILabel.ENTAILMENT, phi,
            uniform_probs(3), cfg, np.random.default_rng(0),
        )
        # only the top proposal is consumed; the rest stay queued
        assert revised == (A_FE, A_EQ, A_EQ)
        assert len(phi) == 2

    def test_no_budget_and_no_grid_fix_returns_unchanged(self):
        pair = upward_pair(1)
        program = (A_EQ,)
        cfg = TrainConfig(max_revisions=0, epsilon=0.2)
        revised, events = introspective_revision(
            pair, program, Relation.COVER, ProposalQueue(),
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
        revised, events = introspective_revision(
            pair, program, NLILabel.NEUTRAL, ProposalQueue(),
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
        phi = ProposalQueue([Proposal(t=1, relation=A_NA, prob=0.9)])
        cfg = TrainConfig(max_revisions=1, epsilon=0.0)
        rng = np.random.default_rng(1)
        revised, events = introspective_revision(
            pair, program, NLILabel.CONTRADICTION, phi,
            uniform_probs(2), cfg, rng,
        )
        assert revised == (A_NA, A_EQ)
        assert [e.source for e in events] == ["knowledge", "answer"]

    def test_metropolis_rejects_low_ratio_proposals(self):
        # epsilon = 1 forces every proposal through the Metropolis branch;
        # a vanishing proposal probability means certain rejection
        pair = upward_pair(1)
        program = (A_EQ,)
        probs = np.array([[0.999999, 1e-9, 1e-9, 1e-9, 1e-9]])
        phi = ProposalQueue([Proposal(t=1, relation=A_FE, prob=1e-9)])
        cfg = TrainConfig(max_revisions=1, epsilon=1.0)
        revised, events = introspective_revision(
            pair, program, NLILabel.ENTAILMENT, phi, probs, cfg,
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
            phi = ProposalQueue([Proposal(t=1, relation=A_FE, prob=0.25)])
            revised, _ = introspective_revision(
                pair, program, Relation.COVER, phi, probs, cfg,
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
        out = []
        for _ in range(2):
            phi = ProposalQueue([Proposal(t=1, relation=A_FE, prob=0.4)])
            out.append(
                introspective_revision(
                    pair, program, NLILabel.ENTAILMENT, phi,
                    uniform_probs(2), cfg, np.random.default_rng(5),
                )
            )
        assert out[0] == out[1]


CONTEXT_POOL = tuple(CONTEXTS.values()) + (get_context("unknown-context"),)
TARGETS = tuple(NLILabel) + RELATIONS


@st.composite
def revision_cases(draw):
    """A pair of 1-6 chunks in random contexts, a program over it, a label
    or exact-relation target, step probabilities and proposal keys."""
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
            st.tuples(st.integers(min_value=1, max_value=m), st.sampled_from(ACTIONS)),
            max_size=8,
        )
    )
    return pair, program, target, probs, keys


def brute_force_edits(pair, program, target):
    """Single-step edits reaching the target, one execution each, in order."""
    return [
        (t, action)
        for t in range(1, len(program) + 1)
        for action in ACTIONS
        if matches_target(execute(pair, fix(program, t, action)), target)
    ]


def reference_grid_search(pair, program, phi, target, probs):
    """grid_search on the brute-force edit list."""
    psi = queue_from_keys(brute_force_edits(pair, program, target), probs)
    shared = psi.keys() & phi.keys()
    return psi.intersect(shared) if shared else psi


def reference_revision(pair, program, target, phi, probs, config, rng):
    """introspective_revision with every check an ``execute`` call."""
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
        proposal = phi.pop()
        popped += 1
        u = rng.random()
        candidate = fix(revised, proposal.t, proposal.relation)
        if matches_target(execute(pair, candidate), target) and u > config.epsilon:
            apply(candidate, proposal.t, "knowledge")
            continue
        u = rng.random()
        sampled_prob = float(probs[proposal.t - 1][ACTIONS.index(program[proposal.t - 1])])
        ratio = proposal.prob / sampled_prob if sampled_prob > 0 else 1.0
        if u < min(1.0, ratio):
            apply(candidate, proposal.t, "knowledge")
    if not matches_target(execute(pair, revised), target):
        psi = reference_grid_search(pair, revised, phi, target, probs)
        if psi:
            proposal = psi.pop()
            apply(fix(revised, proposal.t, proposal.relation), proposal.t, "answer")
    return revised, tuple(events)


def ranked(queue):
    return [(p.t, p.relation, p.prob) for p in queue.items()]


class TestFastPathsMatchExecution:
    """The code folds and prefix/suffix search against ``execute``."""

    @settings(max_examples=300, deadline=None)
    @given(revision_cases())
    def test_reaches_equals_execution(self, case):
        pair, program, target, _, _ = case
        assert reaches(pair, program, target) == matches_target(
            execute(pair, program), target
        )

    @settings(max_examples=300, deadline=None)
    @given(revision_cases())
    def test_single_edits_in_brute_force_order(self, case):
        pair, program, target, _, _ = case
        assert single_edits(pair, program, target) == brute_force_edits(
            pair, program, target
        )

    @settings(max_examples=300, deadline=None)
    @given(revision_cases())
    def test_grid_search_equals_brute_force(self, case):
        pair, program, target, probs, keys = case
        psi = grid_search(pair, program, queue_from_keys(keys, probs), target, probs)
        expected = reference_grid_search(
            pair, program, queue_from_keys(keys, probs), target, probs
        )
        assert ranked(psi) == ranked(expected)

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
        phi, phi_ref = queue_from_keys(keys, probs), queue_from_keys(keys, probs)
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = introspective_revision(pair, program, target, phi, probs, config, rng)
        expected = reference_revision(
            pair, program, target, phi_ref, probs, config, rng_ref
        )
        assert got == expected
        assert ranked(phi) == ranked(phi_ref)  # same proposals consumed
        # same number of draws: both streams continue identically
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_length_mismatch_rejected(self):
        pair = upward_pair(2)
        for fast in (reaches, single_edits):
            with pytest.raises(ValueError, match="program length 1"):
                fast(pair, (A_EQ,), NLILabel.ENTAILMENT)


class TestOneAlignmentPerChunk:
    @pytest.fixture
    def align_calls(self, monkeypatch):
        """Count calls to knowledge.align through every natlog binding."""
        original = knowledge.align
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        modules = [natlog, natlog.cli] + [
            getattr(natlog, name)
            for name in ("chunker", "knowledge", "policy", "trainer", "metrics")
        ]
        for module in modules:
            if getattr(module, "align", None) is original:
                monkeypatch.setattr(module, "align", counting)
        return calls

    def test_compile_aligns_each_chunk_once(self, align_calls):
        compiled = _compile_examples(tiny_dataset(), RULES, LEX, use_knowledge=True)
        assert len(align_calls) == sum(item.pair.m for item in compiled)
        assert any(item.proposals for item in compiled)

    def test_prove_aligns_each_chunk_once(self, align_calls, capsys):
        premise, hypothesis = "some dogs run quickly", "some animals run"
        assert natlog.cli.main(["prove", premise, hypothesis]) == 0
        assert "premise chunk" in capsys.readouterr().out
        pair = chunk_pair(premise, hypothesis, RULES)
        assert align_calls == list(pair.hypothesis)


class TestHybridObjective:
    def make_episode(self, params):
        examples = [
            Example(
                premise="some dogs run",
                hypothesis="some animals run",
                label=NLILabel.ENTAILMENT,
            )
        ]
        compiled = _compile_examples(examples, RULES, LEX, use_knowledge=True)
        config = TrainConfig(seed=3)
        probs = step_distributions(params, compiled[0].features)
        return run_episode(probs, compiled[0], config, np.random.default_rng(3))

    def test_lambda_one_is_pure_reinforce(self):
        params = PolicyParams.zeros()
        episode = self.make_episode(params)
        j, grad = hybrid_objective(params, episode, 1.0)
        j_base, grad_base = reinforce_objective(
            params, episode.features, episode.program, episode.rewards
        )
        assert j == pytest.approx(j_base)
        assert np.allclose(grad, grad_base)

    def test_lambda_zero_is_pure_revised(self):
        params = PolicyParams.zeros()
        episode = self.make_episode(params)
        assert episode.revised_program is not None
        j, grad = hybrid_objective(params, episode, 0.0)
        j_rev, grad_rev = reinforce_objective(
            params, episode.features, episode.revised_program, episode.revised_rewards
        )
        assert j == pytest.approx(j_rev)
        assert np.allclose(grad, grad_rev)

    def test_interpolation_is_linear(self):
        params = PolicyParams.zeros()
        episode = self.make_episode(params)
        j0, g0 = hybrid_objective(params, episode, 0.0)
        j1, g1 = hybrid_objective(params, episode, 1.0)
        jh, gh = hybrid_objective(params, episode, 0.5)
        assert jh == pytest.approx(0.5 * j0 + 0.5 * j1)
        assert np.allclose(gh, 0.5 * g0 + 0.5 * g1)


def per_step_objective(params, features, program, rewards):
    """J and its gradient, one ``distribution``/``grad_log_prob`` per step."""
    objective = 0.0
    grad = np.zeros_like(params.weights)
    for f, action, r in zip(features, program, rewards):
        if r == 0.0:
            continue
        probs = distribution(params, f)
        objective -= float(np.log(probs[action.code])) * r
        grad -= r * grad_log_prob(params, f, action)
    return objective, grad


def random_episodes(seed, introspective_revision=True):
    """Episodes of a generated set under random weights, IR on or off."""
    rng = np.random.default_rng(seed)
    params = PolicyParams(weights=rng.normal(scale=2.0, size=(5, N_FEATURES)))
    examples = natlog.generate(natlog.default_genspec(), RULES)[0][::40]
    compiled = _compile_examples(examples, RULES, LEX, use_knowledge=True)
    config = TrainConfig(seed=seed, introspective_revision=introspective_revision)
    episodes = [
        run_episode(
            step_distributions(params, item.features),
            item,
            config,
            np.random.default_rng([seed, i]),
        )
        for i, item in enumerate(compiled)
    ]
    return params, compiled, episodes


class TestObjectiveFromEpisodeProbs:
    """The stacked objective and greedy accuracy, bit for bit, against
    per-step ``grad_log_prob`` and per-example ``decode`` references."""

    @pytest.mark.parametrize("seed", range(3))
    def test_hybrid_equals_per_step_reference(self, seed):
        params, _, episodes = random_episodes(seed)
        assert any(e.revised_program != e.program for e in episodes)
        for episode in episodes:
            j, grad = per_step_objective(
                params, episode.features, episode.program, episode.rewards
            )
            j_rev, grad_rev = per_step_objective(
                params,
                episode.features,
                episode.revised_program,
                episode.revised_rewards,
            )
            for lam in (0.0, 0.5, 0.7, 1.0):
                value, gradient = hybrid_objective(params, episode, lam)
                assert value == lam * j + (1 - lam) * j_rev
                assert np.array_equal(gradient, lam * grad + (1 - lam) * grad_rev)

    def test_hybrid_without_revision_equals_reference(self):
        params, _, episodes = random_episodes(4, introspective_revision=False)
        for episode in episodes:
            assert episode.revised_program is None
            j, grad = per_step_objective(
                params, episode.features, episode.program, episode.rewards
            )
            value, gradient = hybrid_objective(params, episode, 0.5)
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
            j_ref, grad_ref = per_step_objective(params, features, program, rewards)
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
        j_ref, grad_ref = per_step_objective(params, features, program, rewards)
        assert j == j_ref
        assert np.array_equal(grad, grad_ref)

    @pytest.mark.parametrize("seed", range(3))
    def test_greedy_accuracy_equals_per_example_decode(self, seed):
        params, compiled, _ = random_episodes(seed)
        hits = sum(
            matches_target(execute(item.pair, decode(params, item.features)), item.target)
            for item in compiled
        )
        assert 0 < hits < len(compiled)
        assert _greedy_accuracy(params, compiled) == hits / len(compiled)
        assert _greedy_accuracy(params, []) == 0.0


class TestRelationAugmentation:
    def test_entailment_pairs_get_swapped_samples(self):
        examples = [
            Example(
                premise="some dogs run",
                hypothesis="some animals run",
                label=NLILabel.ENTAILMENT,
            )
        ]
        out = relation_augmentation(examples, RULES, LEX)
        assert len(out) == 2
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
        assert len(relation_augmentation(examples, RULES, LEX)) == 1

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
        assert relation_augmentation(examples, RULES, LEX) == examples

    def test_custom_filter_wins(self):
        examples = [
            Example(
                premise="some dogs run",
                hypothesis="some animals run",
                label=NLILabel.ENTAILMENT,
            )
        ]
        out = relation_augmentation(
            examples, RULES, LEX, entailment_filter=lambda ex: True
        )
        assert len(out) == 1

    def test_mutual_filter_detects_synonym_rewrites(self):
        flt = mutual_entailment_filter(RULES, LEX)
        assert flt(
            Example(premise="the kid runs", hypothesis="the child runs")
        )
        assert not flt(
            Example(premise="some dogs run", hypothesis="some animals run")
        )


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
    """Streams derived per epoch equal ``default_rng([seed, ordinal])``."""

    ORDINALS = [0, 1, 255, 256, 65535, 65536, 10**6, 2**32 - 1]

    @pytest.mark.parametrize("seed", range(64))
    def test_equal_to_default_rng(self, seed):
        drawn = np.random.default_rng(1000 + seed).integers(0, 2**32, 200)
        ordinals = self.ORDINALS + drawn.tolist()
        for ordinal, rng in zip(ordinals, _episode_streams(seed, ordinals)):
            expected = np.random.default_rng([seed, ordinal])
            assert rng.bit_generator.state == expected.bit_generator.state
            assert [rng.random() for _ in range(4)] == [
                expected.random() for _ in range(4)
            ]

    def test_largest_seed_and_ordinal(self):
        seed = ordinal = 2**32 - 1
        (rng,) = _episode_streams(seed, [ordinal])
        expected = np.random.default_rng([seed, ordinal])
        assert rng.bit_generator.state == expected.bit_generator.state

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

        def streams(seed, ordinals):
            raise Started

        monkeypatch.setattr(natlog.trainer, "_episode_streams", streams)
        config = TrainConfig(epochs=2**31, augmentation=False)
        with pytest.raises(Started):
            train(tiny_dataset()[:2], RULES, LEX, config)


def _reference_episode(params, compiled, config, rng):
    """One episode as sampled before batching: one softmax per episode and
    one scalar ``sample`` per step."""
    probs = step_distributions(params, compiled.features)
    program = tuple(sample(p, rng) for p in probs)
    trace = execute(compiled.pair, program)
    episode = Episode(
        pair=compiled.pair,
        target=compiled.target,
        features=compiled.features,
        probs=probs,
        program=program,
        trace=trace,
        rewards=reward(trace, compiled.target, config),
    )
    if not config.introspective_revision:
        return episode
    phi = queue_from_keys(compiled.proposals, probs)
    revised, events = introspective_revision(
        compiled.pair, program, compiled.target, phi, probs, config, rng
    )
    episode.revised_program = revised
    episode.revised_trace = execute(compiled.pair, revised)
    episode.revised_rewards = reward(episode.revised_trace, compiled.target, config)
    episode.revisions = events
    return episode


def _reference_train(examples, config):
    """``train`` one episode at a time: a fresh ``default_rng`` per episode,
    a weight update after every ``batch_size`` episodes and after the last,
    and greedy accuracy from ``execute``."""
    if config.augmentation:
        examples = relation_augmentation(examples, RULES, LEX)
    compiled = _compile_examples(examples, RULES, LEX, config.knowledge)
    params = PolicyParams.zeros()
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
            episode = _reference_episode(params, compiled[idx], config, episode_rng)
            value, grad = hybrid_objective(params, episode, config.lam)
            objective_total += value
            batch_grad += grad
            batch_count += 1
            if batch_count == config.batch_size:
                params.weights -= config.learning_rate * batch_grad
                batch_grad = np.zeros_like(params.weights)
                batch_count = 0
            reward_total += sum(episode.rewards)
            reward_steps += len(episode.rewards)
            revisions.append(episode.revisions)
        if batch_count:
            params.weights -= config.learning_rate * batch_grad
        hits = sum(
            matches_target(execute(item.pair, decode(params, item.features)), item.target)
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
        got = train(examples, RULES, LEX, config)
        expected = _reference_train(examples, config)
        assert got.params.weights.tobytes() == expected.params.weights.tobytes()
        assert [m.to_record() for m in got.metrics] == [
            m.to_record() for m in expected.metrics
        ]
        assert got.params.weights.any()


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
        ],
    )
    def test_boundary_values_accepted(self, field, value):
        assert getattr(TrainConfig(**{field: value}), field) == value
