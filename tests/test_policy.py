"""Policy features, softmax distribution, sampling, and analytic gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import dataclasses
from itertools import accumulate

from natlog import policy
from natlog.chunker import chunk_pair, chunk_pairs, default_rules
from natlog.data import Example
from natlog.datagen import default_genspec, generate, generate_2hop
from natlog.executor import Chunk, ChunkedPair
from natlog.knowledge import compare_pair, default_lexicon
from natlog.policy import (
    FEATURE_NAMES,
    N_ACTIONS,
    N_FEATURES,
    PolicyParams,
    argmax,
    compile_examples,
    decode,
    distribution,
    featurize_pair,
    grad_log_prob,
    load_checkpoint,
    sample,
    sample_codes,
    save_checkpoint,
    step_distributions,
)
from natlog.relations import ACTIONS, CONTEXTS, ActionRelation, ProjectivityContext

LEX = default_lexicon()
RULES = default_rules()


def relative_error(a, b):
    """Elementwise error relative to the largest gradient magnitude.

    Central differences at h = 1e-5 carry ~1e-10 absolute noise, so
    entries far below the gradient's scale cannot be resolved
    elementwise; normalizing by the max magnitude is the usual check.
    """
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b) / scale


def finite_difference_grad(params, features, action, h=1e-5):
    """Central-difference gradient of log p[action], one entry at a time."""
    idx = ACTIONS.index(action)
    grad = np.zeros_like(params.weights)
    for i in range(grad.shape[0]):
        for j in range(grad.shape[1]):
            plus = PolicyParams(weights=params.weights.copy())
            plus.weights[i, j] += h
            minus = PolicyParams(weights=params.weights.copy())
            minus.weights[i, j] -= h
            fp = np.log(distribution(plus, features)[idx])
            fm = np.log(distribution(minus, features)[idx])
            grad[i, j] = (fp - fm) / (2 * h)
    return grad


def features_at(pair, t):
    """Step t's row of ``featurize_pair``, by feature name."""
    return dict(zip(FEATURE_NAMES, featurize_pair(pair, LEX)[t - 1].tolist()))


class TestFeatures:
    def test_names_and_length(self):
        assert len(FEATURE_NAMES) == N_FEATURES
        assert FEATURE_NAMES[-1] == "bias"
        assert len(set(FEATURE_NAMES)) == N_FEATURES

    def test_exact_match_flags(self):
        pair = chunk_pair("the kid runs", "the child runs", RULES)
        fv = features_at(pair, 1)
        assert fv["exact_match"] == 1.0
        assert fv["synonym"] == 1.0
        assert fv["antonym"] == 0.0
        assert fv["bias"] == 1.0

    def test_hypernym_direction_flags(self):
        pair = chunk_pair("some dogs run", "some animals run", RULES)
        fv = features_at(pair, 1)
        assert fv["hypernym_fwd"] == 1.0
        assert fv["hypernym_rev"] == 0.0
        rev = features_at(chunk_pair("some animals run", "some dogs run", RULES), 1)
        assert rev["hypernym_fwd"] == 0.0
        assert rev["hypernym_rev"] == 1.0

    def test_subphrase_flags(self):
        pair = chunk_pair("some small dogs run", "some dogs run", RULES)
        fv = features_at(pair, 1)
        assert fv["subphrase_fwd"] == 1.0
        assert fv["subphrase_rev"] == 0.0

    def test_position_and_context(self):
        pair = chunk_pair("no dogs run", "no dogs run", RULES)
        first = features_at(pair, 1)
        second = features_at(pair, 2)
        assert first["position"] == pytest.approx(0.5)
        assert second["position"] == pytest.approx(1.0)
        assert first["context_not"] == 1.0
        assert second["context_not"] == 1.0
        assert first["context_upward-default"] == 0.0

    def test_unaligned_chunk_has_zero_lexical_features(self):
        pair = chunk_pair("some dogs run", "some dogs blarg", RULES)
        fv = features_at(pair, 2)
        for name in FEATURE_NAMES[:8]:
            assert fv[name] == 0.0
        assert fv["bias"] == 1.0

    def test_out_of_range_step_rejected(self):
        # one row per step 1..m, and none for a step past m
        pair = chunk_pair("dogs run", "dogs run", RULES)
        matrix = featurize_pair(pair, LEX)
        assert matrix.shape == (pair.m, N_FEATURES) == (2, N_FEATURES)
        with pytest.raises(IndexError):
            matrix[pair.m]

    def test_untouched_by_later_hypothesis_chunks(self):
        # mutating hypothesis content after step t must not change step t
        base = chunk_pair("some dogs run quickly", "some animals run quickly", RULES)
        mutated_hyp = list(base.hypothesis)
        mutated_hyp[1] = Chunk(
            tokens=("sleep", "slowly"),
            start=mutated_hyp[1].start,
            context=mutated_hyp[1].context,
        )
        mutated = ChunkedPair(premise=base.premise, hypothesis=tuple(mutated_hyp))
        before = featurize_pair(base, LEX)[0]
        after = featurize_pair(mutated, LEX)[0]
        assert np.array_equal(before, after)

    def test_featurize_pair_stacks_rows(self):
        pair = chunk_pair("some dogs run", "some animals run", RULES)
        mat = featurize_pair(pair, LEX)
        assert mat.shape == (2, N_FEATURES)
        for t, (_, flags) in enumerate(compare_pair(pair, LEX), 1):
            assert np.array_equal(mat[t - 1], _reference_row(pair, t, flags))


def _reference_row(pair, t, flags):
    """One feature row, built alone."""
    values = np.zeros(N_FEATURES)
    values[: len(flags)] = flags
    values[8] = t / pair.m
    name = pair.hypothesis[t - 1].context.name
    if f"context_{name}" in FEATURE_NAMES:
        values[FEATURE_NAMES.index(f"context_{name}")] = 1.0
    values[-1] = 1.0
    return values


def _separate_compare(hyp, premise, lexicon):
    """Aligned chunk and flags from the public lexicon queries: each
    candidate's overlap counted on its own, then the flags of the winner
    computed afresh."""

    def related(u, v):
        return (
            lexicon.synonymous(u, v)
            or lexicon.hypernym_of(u, v)
            or lexicon.hypernym_of(v, u)
            or lexicon.antonymous(u, v)
        )

    def overlap(chunk):
        return sum(any(related(u, v) for v in chunk.tokens) for u in hyp.tokens)

    scores = [overlap(c) for c in premise]
    if max(scores, default=0) == 0:
        return None, (False,) * 7 + (0.0,)
    aligned = premise[scores.index(max(scores))]
    s, s_tilde = lexicon.normalize(hyp.tokens), lexicon.normalize(aligned.tokens)
    pairs = [(u, v) for u in hyp.tokens for v in aligned.tokens]

    def subphrase(short, long):
        it = iter(long)
        return len(short) < len(long) and all(tok in it for tok in short)

    return aligned, (
        s == s_tilde,
        subphrase(s, s_tilde),
        subphrase(s_tilde, s),
        any(u != v and lexicon.synonymous(u, v) for u, v in pairs),
        any(lexicon.hypernym_of(u, v) for u, v in pairs),
        any(lexicon.hypernym_of(v, u) for u, v in pairs),
        any(lexicon.antonymous(u, v) for u, v in pairs),
        overlap(aligned) / len(hyp.tokens),
    )


def _separate_matrix(pair):
    """A pair's feature matrix, row by row from ``_separate_compare``."""
    return np.stack(
        [
            _reference_row(pair, t, _separate_compare(h, pair.premise, LEX)[1])
            for t, h in enumerate(pair.hypothesis, 1)
        ]
    )


def _unknown_context(pair):
    """The pair with its first hypothesis chunk in a context the features
    do not name."""
    odd = ProjectivityContext("odd", CONTEXTS["not"].codes)
    first = dataclasses.replace(pair.hypothesis[0], context=odd)
    return ChunkedPair(premise=pair.premise, hypothesis=(first,) + pair.hypothesis[1:])


@pytest.fixture(scope="module")
def split_examples():
    """The default train and test, noisy test and two-hop splits."""
    spec = default_genspec()
    train, test = generate(spec, RULES)
    _, noisy = generate(dataclasses.replace(spec, noisy_test=True), RULES)
    return train + test + noisy + generate_2hop(spec, RULES)


class TestFeatureMatrixEqualsRowStack:
    def test_every_split_pair_byte_for_byte(self, split_examples):
        sides = [(e.premise, e.hypothesis) for e in split_examples] + [
            ("run", "sleep"),
            ("the kid does n't like table-tennis", "the child does n't like sports"),
            ("no small dogs run", "near the shore the dog does n't like the cat"),
        ]
        pairs = chunk_pairs(sides, RULES)
        assert {pair.m for pair in pairs} == {1, 2, 3, 4, 5}
        for pair in pairs:
            expected = np.stack(
                [
                    _reference_row(pair, t, flags)
                    for t, (_, flags) in enumerate(compare_pair(pair, LEX), 1)
                ]
            )
            matrix = featurize_pair(pair, LEX)
            assert matrix.dtype == expected.dtype and matrix.shape == expected.shape
            assert matrix.tobytes() == expected.tobytes()

    def test_featurize_row_and_unknown_context(self):
        pair = chunk_pair("in the park no dogs run", "in the park no cats run", RULES)
        for case in (pair, _unknown_context(pair)):
            matrix = featurize_pair(case, LEX)
            for t, (_, flags) in enumerate(compare_pair(case, LEX), 1):
                expected = _reference_row(case, t, flags).tobytes()
                # the chunk aligned on its own gives the same row
                alone = compare_pair(
                    ChunkedPair(case.premise, (case.hypothesis[t - 1],)), LEX
                )[0][1]
                assert _reference_row(case, t, alone).tobytes() == expected
                assert matrix[t - 1].tobytes() == expected
        assert not featurize_pair(_unknown_context(pair), LEX)[0, 9:15].any()


def assert_distinct_rows(compiled, rows):
    """``rows`` are the distinct rows of the call that compiled ``compiled``,
    numbered by the records' row ids in order of first sight.

    The ids number the rows' values (lexical flags, position t / m,
    context name) one to one, so steps 1 of 2 and 2 of 4 share the row of
    position 0.5, and the rows are pairwise distinct.
    """
    ids = [r for item in compiled for r in item.row_ids]
    values = [
        (flags, t / item.pair.m, chunk.context.name)
        for item in compiled
        for t, ((_, flags), chunk) in enumerate(
            zip(item.records, item.pair.hypothesis), 1
        )
    ]
    assert len(set(zip(ids, values))) == len(set(ids)) == len(set(values))
    assert rows.dtype == np.float64 and rows.shape == (len(rows), N_FEATURES)
    assert len({row.tobytes() for row in rows}) == len(rows)
    assert max(ids, default=-1) + 1 == len(rows)
    assert list(dict.fromkeys(ids)) == list(range(len(rows)))  # first sight


class TestCompileExamples:
    def test_rows_equal_separate_per_pair_matrices(self, split_examples):
        compiled, rows = compile_examples(split_examples, RULES, LEX)
        assert_distinct_rows(compiled, rows)
        assert len(rows) < sum(item.pair.m for item in compiled)
        for example, item in zip(split_examples, compiled):
            matrix, expected = rows[list(item.row_ids)], _separate_matrix(item.pair)
            assert matrix.dtype == expected.dtype and matrix.shape == expected.shape
            assert matrix.tobytes() == expected.tobytes()
            assert item.records == compare_pair(item.pair, LEX)
            assert item.target == example.target

    def test_unknown_context_row(self, monkeypatch):
        pair = chunk_pair("in the park no dogs run", "in the park no cats run", RULES)
        odd = _unknown_context(pair)
        monkeypatch.setattr(policy, "chunk_examples", lambda examples, rules: [odd, pair])
        examples = [Example(premise="p", hypothesis="h")] * 2
        compiled, rows = compile_examples(examples, RULES, LEX)
        assert_distinct_rows(compiled, rows)
        for item, case in zip(compiled, (odd, pair)):
            matrix = rows[list(item.row_ids)]
            assert matrix.tobytes() == _separate_matrix(case).tobytes()
        first, second = (rows[item.row_ids[0]] for item in compiled)
        assert not first[9:15].any() and second[9:15].any()
        assert [item.target for item in compiled] == [None, None]

    def test_empty_split(self):
        compiled, rows = compile_examples([], RULES, LEX)
        assert compiled == [] and rows.shape == (0, N_FEATURES)


class TestDistribution:
    def test_zero_weights_give_uniform(self):
        params = PolicyParams.zeros()
        dist = distribution(params, np.ones(N_FEATURES))
        assert np.allclose(dist, 0.2)

    def test_hand_computed_softmax(self):
        params = PolicyParams.zeros()
        params.weights[0, -1] = 1.0  # bias feeds action 0 a score of 1
        f = np.zeros(N_FEATURES)
        f[-1] = 1.0
        dist = distribution(params, f)
        expected = np.exp([1, 0, 0, 0, 0]) / np.exp([1, 0, 0, 0, 0]).sum()
        assert np.allclose(dist, expected, atol=1e-12)

    def test_large_margin_saturates(self):
        params = PolicyParams.zeros()
        params.weights[2, -1] = 50.0
        f = np.zeros(N_FEATURES)
        f[-1] = 1.0
        dist = distribution(params, f)
        others = np.delete(dist, 2)
        assert others.sum() < 1e-20
        assert np.all(np.isfinite(dist))

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = PolicyParams(weights=rng.normal(size=(N_ACTIONS, N_FEATURES)))
            dist = distribution(params, rng.normal(size=N_FEATURES))
            assert dist.sum() == pytest.approx(1.0)
            assert np.all(dist > 0)

    def test_non_finite_scores_rejected(self):
        params = PolicyParams.zeros()
        params.weights[0, 0] = np.inf
        f = np.ones(N_FEATURES)
        with pytest.raises(ValueError):
            distribution(params, f)

    def test_step_distributions_shape(self):
        pair = chunk_pair("some dogs run", "some animals run", RULES)
        dists = step_distributions(PolicyParams.zeros(), featurize_pair(pair, LEX))
        assert dists.shape == (2, N_ACTIONS)
        assert np.allclose(dists.sum(axis=1), 1.0)


_WEIGHT = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
_FEATURE = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


class TestStackedDistributions:
    """The stacked softmax and decoders against the one-row references."""

    @given(
        arrays(np.float64, (N_ACTIONS, N_FEATURES), elements=_WEIGHT),
        st.integers(1, 64).flatmap(
            lambda m: arrays(np.float64, (m, N_FEATURES), elements=_FEATURE)
        ),
    )
    def test_equals_stacked_rows(self, weights, features):
        params = PolicyParams(weights=weights)
        stacked = step_distributions(params, features)
        rows = np.stack([distribution(params, f) for f in features])
        assert np.array_equal(stacked, rows)

    @given(
        arrays(np.float64, (N_ACTIONS, N_FEATURES), elements=_WEIGHT),
        st.lists(
            st.integers(1, 8).flatmap(
                lambda m: arrays(np.float64, (m, N_FEATURES), elements=_FEATURE)
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_batch_of_episodes_equals_each_episode(self, weights, matrices):
        # a training batch: up to 8 episodes of mixed m, up to 64 rows
        params = PolicyParams(weights=weights)
        stacked = step_distributions(params, np.concatenate(matrices))
        each = np.concatenate([step_distributions(params, f) for f in matrices])
        assert np.array_equal(stacked, each)

    def test_non_finite_scores_rejected(self):
        params = PolicyParams.zeros()
        params.weights[3, 0] = np.inf
        features = np.ones((3, N_FEATURES))
        with pytest.raises(ValueError, match="non-finite"):
            step_distributions(params, features)
        with pytest.raises(ValueError, match="non-finite"):
            decode(params, features)

    def test_decode_is_argmax_of_each_row(self):
        rng = np.random.default_rng(11)
        features = rng.normal(size=(6, N_FEATURES))
        for params in (
            PolicyParams.zeros(),  # every row a five-way tie
            PolicyParams(weights=rng.normal(size=(N_ACTIONS, N_FEATURES))),
        ):
            expected = tuple(
                argmax(distribution(params, f)) for f in features
            )
            assert decode(params, features) == expected
        assert decode(PolicyParams.zeros(), features) == (ACTIONS[0],) * 6

    def test_one_decode_of_stacked_rows_equals_decode_per_matrix(self):
        # evaluation decodes a split's stacked rows in one call
        rng = np.random.default_rng(12)
        params = PolicyParams(weights=rng.normal(size=(N_ACTIONS, N_FEATURES)))
        matrices = [rng.normal(size=(m, N_FEATURES)) for m in (1, 4, 2, 8, 3)]
        actions = decode(params, np.concatenate(matrices))
        ends = np.cumsum([len(f) for f in matrices]).tolist()
        assert [actions[end - len(f) : end] for f, end in zip(matrices, ends)] == [
            decode(params, f) for f in matrices
        ]
        assert decode(params, np.zeros((0, N_FEATURES))) == ()


class Fixed:
    """A generator stand-in whose ``random()`` hands out one fixed draw."""

    def __init__(self, u):
        self.u = float(u)

    def random(self):
        return self.u


def actions(codes):
    return tuple(ACTIONS[c] for c in codes.tolist())


@st.composite
def sampling_cases(draw):
    """Rows of non-negative weights, some zero, scaled to sum to 1 or just
    below it, each with a draw: a uniform one, one equal to one of the
    row's running sums (as ``sample`` adds them) or one past the row's total,
    where only the guard of the final bin picks an action."""
    weights = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    rows, draws = [], []
    for _ in range(draw(st.integers(1, 12))):
        row = np.array(draw(st.lists(weights, min_size=N_ACTIONS, max_size=N_ACTIONS)))
        if not row.any():
            row[draw(st.integers(0, N_ACTIONS - 1))] = 1.0
        row = row / row.sum() * draw(st.sampled_from([1.0, 1.0 - 2**-40]))
        sums = list(accumulate(row.tolist()))
        kind = draw(st.sampled_from(["uniform", "on a sum", "past the total"]))
        if kind == "uniform":
            u = draw(st.floats(0.0, 1.0, exclude_max=True))
        elif kind == "on a sum":
            u = draw(st.sampled_from(sums))
        else:
            u = float(np.nextafter(sums[-1], 2.0))
        rows.append(row)
        draws.append(min(u, 1.0 - 2**-53))
    return np.array(rows), np.array(draws)


class TestSampling:
    def test_deterministic_given_seed(self):
        dist = np.array([0.1, 0.2, 0.3, 0.2, 0.2])
        a = [sample(dist, np.random.default_rng(7)) for _ in range(5)]
        b = [sample(dist, np.random.default_rng(7)) for _ in range(5)]
        assert a == b

    def test_degenerate_distribution(self):
        dist = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        rng = np.random.default_rng(3)
        assert all(
            sample(dist, rng) == ActionRelation.REVERSE_ENTAILMENT
            for _ in range(20)
        )

    def test_frequencies_match_within_three_sigma(self):
        dist = np.array([0.1, 0.25, 0.3, 0.15, 0.2])
        n = 100_000
        rng = np.random.default_rng(12345)
        counts = {a: 0 for a in ACTIONS}
        for _ in range(n):
            counts[sample(dist, rng)] += 1
        for i, action in enumerate(ACTIONS):
            p = dist[i]
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts[action] / n - p) < 3 * sigma

    @given(
        st.integers(1, 16).flatmap(
            lambda m: arrays(
                np.float64, (m, N_FEATURES), elements=st.floats(-30.0, 30.0)
            )
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_program_equals_scalar_draws(self, scores, seed):
        params = PolicyParams(weights=np.eye(N_ACTIONS, N_FEATURES))
        probs = step_distributions(params, scores)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        codes = sample_codes(probs, a.random(len(probs)))
        assert actions(codes) == tuple(sample(p, b) for p in probs)
        assert a.random() == b.random()  # both consumed the same draws

    def test_program_on_sums_just_below_one_and_draws_near_one(self):
        probs = np.array(
            [
                [0.2, 0.2, 0.2, 0.2, 0.2 - 1e-12],
                [0.0, 0.0, 0.0, 0.0, 1.0 - 2**-53],
                [1.0 - 2**-53, 0.0, 0.0, 0.0, 0.0],
                [0.25, 0.25, 0.25, 0.25 - 2**-53, 0.0],
            ]
        )
        assert probs.sum(axis=1).max() < 1.0
        draws = np.array([1.0 - 2**-53, 0.9999999999995, 1.0 - 2**-52, 1.0 - 2**-53])
        expected = tuple(sample(p, Fixed(u)) for p, u in zip(probs, draws))
        # rows 0 and 3 end below their draws: the guard picks the last action
        assert expected == (ACTIONS[-1], ACTIONS[-1], ACTIONS[0], ACTIONS[-1])
        assert actions(sample_codes(probs, draws)) == expected

    def test_program_on_real_distributions(self):
        rng = np.random.default_rng(5)
        params = PolicyParams(weights=rng.normal(scale=3.0, size=(N_ACTIONS, N_FEATURES)))
        probs = step_distributions(params, rng.normal(size=(64, N_FEATURES)))
        for seed in range(50):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            codes = sample_codes(probs, a.random(len(probs)))
            assert actions(codes) == tuple(sample(p, b) for p in probs)

    def test_codes_take_one_draw_per_step(self):
        probs = np.full((3, N_ACTIONS), 0.2)
        assert actions(sample_codes(probs, np.array([0.1, 0.5, 0.9]))) == (
            ACTIONS[0], ACTIONS[2], ACTIONS[4]
        )
        # too few, too many, and one draw that would broadcast over every row
        for draws in ([0.1, 0.5], [0.1, 0.5, 0.9, 0.0], [0.1], [[0.1], [0.5], [0.9]]):
            with pytest.raises(ValueError, match="3 steps need 3 draws"):
                sample_codes(probs, np.array(draws))
        assert sample_codes(probs[:0], np.zeros(0)).shape == (0,)

    @settings(max_examples=300, deadline=None)
    @given(sampling_cases())
    def test_codes_equal_sample_row_by_row(self, case):
        probs, draws = case
        codes = sample_codes(probs, draws)
        assert codes.shape == (len(probs),)
        for p, u, code in zip(probs, draws, codes.tolist()):
            assert sample(p, Fixed(u)) is ACTIONS[code]

    def test_codes_on_zeros_fallback_and_draws_on_a_sum(self):
        probs = np.array(
            [
                [0.0, 0.5, 0.0, 0.0, 0.5],  # a zero entry is never drawn
                [0.0, 0.5, 0.0, 0.0, 0.5],  # a draw on a sum moves past it
                [0.1, 0.2, 0.3, 0.2, 0.2],  # a draw on the rounded 0.1 + 0.2
                [0.1, 0.2, 0.3, 0.2, 0.2],  # a draw just below it
                [0.3, 0.3, 0.3, 0.0, 0.0],  # sums to 0.8999999999999999
                [0.3, 0.3, 0.3, 0.0, 0.0],
            ]
        )
        assert 0.1 + 0.2 != 0.3 and probs[4].cumsum()[-1] < 0.9
        draws = np.array([0.0, 0.5, 0.1 + 0.2, np.nextafter(0.1 + 0.2, 0.0), 0.95, 0.9])
        # the last two rows end below their draws: the guard picks the last action
        expected = tuple(ACTIONS[i] for i in (1, 4, 2, 1, 4, 4))
        assert tuple(sample(p, Fixed(u)) for p, u in zip(probs, draws)) == expected
        assert actions(sample_codes(probs, draws)) == expected

    def test_argmax_tie_resolves_to_canonical_order(self):
        assert argmax(np.full(N_ACTIONS, 0.2)) == ActionRelation.EQUIVALENCE
        assert argmax(np.array([0.1, 0.4, 0.4, 0.05, 0.05])) == (
            ActionRelation.FORWARD_ENTAILMENT
        )


class TestGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences_random(self, seed):
        rng = np.random.default_rng(seed)
        params = PolicyParams(weights=rng.normal(size=(N_ACTIONS, N_FEATURES)))
        features = rng.normal(size=N_FEATURES)
        action = ACTIONS[int(rng.integers(N_ACTIONS))]
        analytic = grad_log_prob(params, features, action)
        fd = finite_difference_grad(params, features, action)
        assert relative_error(analytic, fd).max() <= 1e-6

    def test_matches_finite_differences_real_features(self):
        pair = chunk_pair("some dogs run", "some animals run", RULES)
        features = featurize_pair(pair, LEX)[0]
        rng = np.random.default_rng(42)
        params = PolicyParams(weights=rng.normal(size=(N_ACTIONS, N_FEATURES)))
        analytic = grad_log_prob(params, features, ActionRelation.FORWARD_ENTAILMENT)
        fd = finite_difference_grad(params, features, ActionRelation.FORWARD_ENTAILMENT)
        assert relative_error(analytic, fd).max() <= 1e-6

    def test_gradient_rows_sum_against_probs(self):
        # sum over actions of p[a] * grad log p[a] must vanish
        rng = np.random.default_rng(9)
        params = PolicyParams(weights=rng.normal(size=(N_ACTIONS, N_FEATURES)))
        f = rng.normal(size=N_FEATURES)
        probs = distribution(params, f)
        total = sum(
            probs[i] * grad_log_prob(params, f, a) for i, a in enumerate(ACTIONS)
        )
        assert np.allclose(total, 0.0, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        params = PolicyParams(weights=rng.normal(size=(N_ACTIONS, N_FEATURES)))
        path = tmp_path / "policy.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.weights, params.weights)

    def test_byte_stable(self, tmp_path):
        params = PolicyParams.zeros()
        params.weights[1, 3] = 0.1 + 0.2  # representable but not round
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, a)
        save_checkpoint(params, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "policy.ckpt"
        path.write_text("something else\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_header_names_path(self, tmp_path):
        path = tmp_path / "policy.ckpt"
        path.write_text("natlog-policy v1\n")
        with pytest.raises(ValueError, match=f"^{path}:2: truncated checkpoint header$"):
            load_checkpoint(path)

    def test_truncated_weight_row_names_path(self, tmp_path):
        path = tmp_path / "policy.ckpt"
        save_checkpoint(PolicyParams.zeros(), path)
        text = path.read_text()
        path.write_text(text[: len(text) - 20])
        # the cut ends the last row, line 8, inside a token
        with pytest.raises(ValueError, match=f"^{path}:8: "):
            load_checkpoint(path)

    @staticmethod
    def edited(path, lineno, edit):
        """A zero checkpoint at ``path`` whose 1-based line ``lineno`` is
        ``edit`` of its tokens."""
        save_checkpoint(PolicyParams.zeros(), path)
        lines = path.read_text().splitlines()
        lines[lineno - 1] = " ".join(edit(lines[lineno - 1].split()))
        path.write_text("\n".join(lines) + "\n")

    def test_bad_weight_token_names_path_and_line(self, tmp_path):
        path = tmp_path / "policy.ckpt"
        self.edited(path, 5, lambda row: row[:3] + ["zz"] + row[4:])
        with pytest.raises(
            ValueError, match=f"^{path}:5: malformed weight row: invalid hexadecimal"
        ):
            load_checkpoint(path)

    def test_overflowing_weight_names_path_and_line(self, tmp_path):
        # float.fromhex raises OverflowError, not ValueError, on this token
        path = tmp_path / "policy.ckpt"
        self.edited(path, 4, lambda row: ["0x1p+99999"] + row[1:])
        with pytest.raises(
            ValueError, match=f"^{path}:4: malformed weight row: hexadecimal value"
        ):
            load_checkpoint(path)

    def test_line_numbers_count_newlines_only(self, tmp_path):
        # a NEL (\x85) after the first row ends no line, so the bad second
        # row is line 5
        path = tmp_path / "policy.ckpt"
        save_checkpoint(PolicyParams.zeros(), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[3] += "\x85"
        lines[4] = "zz"
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{path}:5: malformed weight row"):
            load_checkpoint(path)

    @pytest.mark.parametrize("width", [N_FEATURES - 1, N_FEATURES + 1, 1])
    def test_row_of_wrong_width_names_path_and_line(self, tmp_path, width):
        path = tmp_path / "policy.ckpt"
        self.edited(path, 7, lambda row: (row * 2)[:width])
        with pytest.raises(
            ValueError, match=f"^{path}:7: {width} weights, expected {N_FEATURES}$"
        ):
            load_checkpoint(path)

    def test_missing_and_extra_rows_rejected(self, tmp_path):
        path = tmp_path / "policy.ckpt"
        save_checkpoint(PolicyParams.zeros(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match=f"^{path}:8: 4 weight rows, expected 5$"):
            load_checkpoint(path)
        path.write_text("\n".join(lines + ["", lines[-1]]) + "\n")
        with pytest.raises(ValueError, match=f"^{path}:10: more than 5 weight rows$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_weight_names_path_and_line(self, tmp_path, value):
        path = tmp_path / "policy.ckpt"
        save_checkpoint(PolicyParams.zeros(), path)
        lines = path.read_text().splitlines()
        row = lines[5].split()  # header lines 1-3, then weight rows 4-8
        row[2] = value
        lines[5] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{path}:6: non-finite weight {value}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_save_rejects_non_finite_weight_and_writes_nothing(self, tmp_path, value):
        path = tmp_path / "policy.ckpt"
        params = PolicyParams.zeros()
        params.weights[2, 5] = value
        params.weights[4, 0] = value  # a later one is not the one named
        action, feature = ACTIONS[2].value, FEATURE_NAMES[5]
        with pytest.raises(
            ValueError,
            match=rf"^{path}: non-finite weight {value} \(action {action}, feature {feature}\)$",
        ):
            save_checkpoint(params, path)
        assert not path.exists()

    def test_feature_layout_mismatch_rejected(self, tmp_path):
        path = tmp_path / "policy.ckpt"
        save_checkpoint(PolicyParams.zeros(), path)
        text = path.read_text().replace("exact_match", "weird_feature")
        path.write_text(text)
        with pytest.raises(ValueError):
            load_checkpoint(path)
