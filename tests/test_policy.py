"""Policy features, softmax distribution, sampling, and analytic gradients."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from natlog.chunker import chunk_pair, default_rules
from natlog.executor import Chunk, ChunkedPair
from natlog.knowledge import default_lexicon
from natlog.policy import (
    FEATURE_NAMES,
    N_ACTIONS,
    N_FEATURES,
    PolicyParams,
    argmax,
    decode,
    decode_each,
    distribution,
    featurize,
    featurize_pair,
    grad_log_prob,
    load_checkpoint,
    sample,
    sample_program,
    save_checkpoint,
    step_distributions,
)
from natlog.relations import ACTIONS, ActionRelation

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


class TestFeatures:
    def test_names_and_length(self):
        assert len(FEATURE_NAMES) == N_FEATURES
        assert FEATURE_NAMES[-1] == "bias"
        assert len(set(FEATURE_NAMES)) == N_FEATURES

    def test_exact_match_flags(self):
        pair = chunk_pair("the kid runs", "the child runs", RULES)
        fv = featurize(pair, 1, LEX)
        assert fv["exact_match"] == 1.0
        assert fv["synonym"] == 1.0
        assert fv["antonym"] == 0.0
        assert fv["bias"] == 1.0

    def test_hypernym_direction_flags(self):
        pair = chunk_pair("some dogs run", "some animals run", RULES)
        fv = featurize(pair, 1, LEX)
        assert fv["hypernym_fwd"] == 1.0
        assert fv["hypernym_rev"] == 0.0
        rev = featurize(chunk_pair("some animals run", "some dogs run", RULES), 1, LEX)
        assert rev["hypernym_fwd"] == 0.0
        assert rev["hypernym_rev"] == 1.0

    def test_subphrase_flags(self):
        pair = chunk_pair("some small dogs run", "some dogs run", RULES)
        fv = featurize(pair, 1, LEX)
        assert fv["subphrase_fwd"] == 1.0
        assert fv["subphrase_rev"] == 0.0

    def test_position_and_context(self):
        pair = chunk_pair("no dogs run", "no dogs run", RULES)
        first = featurize(pair, 1, LEX)
        second = featurize(pair, 2, LEX)
        assert first["position"] == pytest.approx(0.5)
        assert second["position"] == pytest.approx(1.0)
        assert first["context_not"] == 1.0
        assert second["context_not"] == 1.0
        assert first["context_upward-default"] == 0.0

    def test_unaligned_chunk_has_zero_lexical_features(self):
        pair = chunk_pair("some dogs run", "some dogs blarg", RULES)
        fv = featurize(pair, 2, LEX)
        for name in FEATURE_NAMES[:8]:
            assert fv[name] == 0.0
        assert fv["bias"] == 1.0

    def test_out_of_range_step_rejected(self):
        pair = chunk_pair("dogs run", "dogs run", RULES)
        with pytest.raises(ValueError):
            featurize(pair, 0, LEX)
        with pytest.raises(ValueError):
            featurize(pair, 3, LEX)

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
        before = featurize(base, 1, LEX).values
        after = featurize(mutated, 1, LEX).values
        assert np.array_equal(before, after)

    def test_featurize_pair_stacks_rows(self):
        pair = chunk_pair("some dogs run", "some animals run", RULES)
        mat = featurize_pair(pair, LEX)
        assert mat.shape == (2, N_FEATURES)
        assert np.array_equal(mat[0], featurize(pair, 1, LEX).values)


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

    def test_decode_each_equals_decode_per_matrix(self):
        rng = np.random.default_rng(12)
        params = PolicyParams(weights=rng.normal(size=(N_ACTIONS, N_FEATURES)))
        matrices = [rng.normal(size=(m, N_FEATURES)) for m in (1, 4, 2, 8, 3)]
        assert decode_each(params, matrices) == [
            decode(params, f) for f in matrices
        ]
        assert decode_each(params, []) == []


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
        assert sample_program(probs, a) == tuple(sample(p, b) for p in probs)
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

        class Fixed:
            """Hands out ``draws`` in order, one or ``size`` at a time."""

            def __init__(self):
                self.left = draws

            def random(self, size=None):
                n = 1 if size is None else size
                out, self.left = self.left[:n], self.left[n:]
                return float(out[0]) if size is None else out

        rng = Fixed()
        expected = tuple(sample(p, rng) for p in probs)
        # rows 0 and 3 end below their draws: the guard picks the last action
        assert expected == (ACTIONS[-1], ACTIONS[-1], ACTIONS[0], ACTIONS[-1])
        assert sample_program(probs, Fixed()) == expected

    def test_program_on_real_distributions(self):
        rng = np.random.default_rng(5)
        params = PolicyParams(weights=rng.normal(scale=3.0, size=(N_ACTIONS, N_FEATURES)))
        probs = step_distributions(params, rng.normal(size=(64, N_FEATURES)))
        for seed in range(50):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert sample_program(probs, a) == tuple(sample(p, b) for p in probs)

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
        features = featurize(pair, 1, LEX)
        rng = np.random.default_rng(42)
        params = PolicyParams(weights=rng.normal(size=(N_ACTIONS, N_FEATURES)))
        analytic = grad_log_prob(params, features, ActionRelation.FORWARD_ENTAILMENT)
        fd = finite_difference_grad(params, features.values, ActionRelation.FORWARD_ENTAILMENT)
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
        with pytest.raises(ValueError, match=f"^{path}: truncated"):
            load_checkpoint(path)

    def test_truncated_weight_row_names_path(self, tmp_path):
        path = tmp_path / "policy.ckpt"
        save_checkpoint(PolicyParams.zeros(), path)
        text = path.read_text()
        path.write_text(text[: len(text) - 20])
        with pytest.raises(ValueError, match=f"^{path}: "):
            load_checkpoint(path)

    def test_feature_layout_mismatch_rejected(self, tmp_path):
        path = tmp_path / "policy.ckpt"
        save_checkpoint(PolicyParams.zeros(), path)
        text = path.read_text().replace("exact_match", "weird_feature")
        path.write_text(text)
        with pytest.raises(ValueError):
            load_checkpoint(path)
