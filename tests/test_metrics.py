"""Tests for token IOU, phrasal PRF, state accuracy, and evaluation."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from natlog import executor, metrics
from natlog.chunker import chunk_pair, chunk_pairs, default_rules, tokenize
from natlog.data import Example
from natlog.datagen import default_genspec, generate, generate_2hop
from natlog.executor import execute, matches_target
from natlog.knowledge import compare_pair, default_lexicon
from natlog.metrics import (
    EvalReport,
    evaluate,
    iou,
    label_accuracy,
    phrasal_prf,
    reports_to_csv,
    state_accuracy,
)
from natlog.policy import (
    FEATURE_NAMES,
    PolicyParams,
    argmax,
    compile_examples,
    decode,
    featurize_pair,
    step_distributions,
)
from natlog.relations import ACTIONS, ActionRelation, NLILabel, Relation
from natlog.trainer import TrainConfig, train

A_EQ = ActionRelation.EQUIVALENCE
A_SUB = ActionRelation.FORWARD_ENTAILMENT
A_SUP = ActionRelation.REVERSE_ENTAILMENT


class TestIou:
    def test_identical_nonempty(self):
        assert iou({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint_nonempty(self):
        assert iou({0, 1}, {2, 3}) == 0.0

    def test_both_empty_is_perfect(self):
        assert iou(set(), set()) == 1.0

    def test_one_side_empty(self):
        assert iou(set(), {1}) == 0.0
        assert iou({1}, set()) == 0.0

    def test_half_overlap(self):
        # |{2,3}| / |{1,2,3,4}|
        assert iou({1, 2, 3}, {2, 3, 4}) == 0.5

    def test_accepts_iterables(self):
        assert iou([0, 1, 1], (1, 0)) == 1.0

    @given(
        st.sets(st.integers(0, 20)),
        st.sets(st.integers(0, 20)),
    )
    def test_symmetric_and_bounded(self, a, b):
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


class TestPhrasalPrf:
    def test_exact_sets(self):
        phrases = [{0, 1}, {4, 5, 6}]
        assert phrasal_prf(phrases, phrases) == (1.0, 1.0, 1.0)

    def test_one_of_two_predictions_matches(self):
        # matched prediction is exact, the other overlaps nothing
        pred = [{0, 1}, {7, 8}]
        gold = [{0, 1}]
        p, r, f1 = phrasal_prf(pred, gold)
        assert (p, r) == (0.5, 1.0)
        assert f1 == pytest.approx(2 / 3)

    def test_threshold_is_inclusive(self):
        # IOU({0}, {0,1}) = 0.5 exactly: counts as a match
        assert phrasal_prf([{0}], [{0, 1}]) == (1.0, 1.0, 1.0)

    def test_below_threshold_no_match(self):
        # IOU({0,1}, {1,2,3}) = 1/4
        p, r, f1 = phrasal_prf([{0, 1}], [{1, 2, 3}])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_one_to_one_matching(self):
        # both predictions hit the same gold phrase; only one may match
        pred = [{0, 1}, {0, 1, 2}]
        gold = [{0, 1}]
        p, r, f1 = phrasal_prf(pred, gold)
        assert (p, r) == (0.5, 1.0)

    def test_greedy_prefers_higher_iou(self):
        # pred {0,1} matches gold {0,1} (IOU 1) rather than gold {0,1,2}
        # (IOU 2/3), leaving the second gold to the weaker prediction.
        pred = [{0, 1}, {0, 1, 2, 3}]
        gold = [{0, 1}, {0, 1, 2}]
        p, r, f1 = phrasal_prf(pred, gold)
        # {0,1,2,3} vs {0,1,2}: IOU 3/4 >= 0.5, so both match
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_hand_computed_partial_overlap(self):
        # pred_a {0,1,2} vs gold_a {1,2,3}: IOU 2/4 = 0.5 -> match
        # pred_b {5} vs gold_b {6}: IOU 0 -> no match
        # matches=1, P=1/2, R=1/2, F1=1/2
        pred = [{0, 1, 2}, {5}]
        gold = [{1, 2, 3}, {6}]
        assert phrasal_prf(pred, gold) == (0.5, 0.5, 0.5)

    def test_empty_both_sides(self):
        assert phrasal_prf([], []) == (1.0, 1.0, 1.0)

    def test_empty_predictions_with_gold(self):
        p, r, f1 = phrasal_prf([], [{0}])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_empty_gold_with_predictions(self):
        p, r, f1 = phrasal_prf([{0}], [])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_permutation_invariant(self):
        pred = [{0, 1}, {3, 4}, {6, 7, 8}]
        gold = [{0, 1}, {4, 5}, {6, 7}]
        base = phrasal_prf(pred, gold)
        for perm in itertools.permutations(pred):
            assert phrasal_prf(list(perm), gold) == base

    @given(
        st.lists(st.sets(st.integers(0, 10), min_size=1), max_size=4),
        st.lists(st.sets(st.integers(0, 10), min_size=1), max_size=4),
    )
    def test_bounds_and_harmonic_mean(self, pred, gold):
        p, r, f1 = phrasal_prf(pred, gold)
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
        if p > 0 and r > 0:
            assert f1 == pytest.approx(2 * p * r / (p + r))


class TestStateAccuracy:
    def test_identical(self):
        states = [(Relation.EQUIVALENCE, Relation.FORWARD_ENTAILMENT)]
        assert state_accuracy(states, states) == 1.0

    def test_all_wrong(self):
        pred = [(Relation.EQUIVALENCE, Relation.EQUIVALENCE)]
        gold = [(Relation.NEGATION, Relation.ALTERNATION)]
        assert state_accuracy(pred, gold) == 0.0

    def test_two_hop_half_right(self):
        pred = [(Relation.FORWARD_ENTAILMENT, Relation.INDEPENDENCE)]
        gold = [(Relation.FORWARD_ENTAILMENT, Relation.ALTERNATION)]
        assert state_accuracy(pred, gold) == 0.5

    def test_micro_average_over_unequal_lengths(self):
        # sample 1: 1/2 correct, sample 2: 3/3 correct -> 4/5
        pred = [
            (Relation.EQUIVALENCE, Relation.EQUIVALENCE),
            (Relation.FORWARD_ENTAILMENT,) * 3,
        ]
        gold = [
            (Relation.EQUIVALENCE, Relation.ALTERNATION),
            (Relation.FORWARD_ENTAILMENT,) * 3,
        ]
        assert state_accuracy(pred, gold) == pytest.approx(0.8)

    def test_sample_count_mismatch(self):
        with pytest.raises(ValueError):
            state_accuracy([], [(Relation.EQUIVALENCE,)])

    def test_length_mismatch_within_sample(self):
        with pytest.raises(ValueError):
            state_accuracy(
                [(Relation.EQUIVALENCE,)],
                [(Relation.EQUIVALENCE, Relation.EQUIVALENCE)],
            )

    def test_no_states(self):
        with pytest.raises(ValueError):
            state_accuracy([], [])


class TestLabelAccuracy:
    def test_exact(self):
        labels = [NLILabel.ENTAILMENT, NLILabel.CONTRADICTION]
        assert label_accuracy(labels, labels) == 1.0

    def test_all_wrong(self):
        pred = [NLILabel.ENTAILMENT, NLILabel.ENTAILMENT]
        gold = [NLILabel.NEUTRAL, NLILabel.CONTRADICTION]
        assert label_accuracy(pred, gold) == 0.0

    def test_mixed_hand_count(self):
        pred = [
            NLILabel.ENTAILMENT,
            NLILabel.NEUTRAL,
            NLILabel.CONTRADICTION,
            NLILabel.NEUTRAL,
        ]
        gold = [
            NLILabel.ENTAILMENT,
            NLILabel.CONTRADICTION,
            NLILabel.CONTRADICTION,
            NLILabel.ENTAILMENT,
        ]
        assert label_accuracy(pred, gold) == 0.5

    def test_binary_collapse_merges_contradiction_and_neutral(self):
        pred = [NLILabel.NEUTRAL, NLILabel.CONTRADICTION, NLILabel.NEUTRAL]
        gold = [
            NLILabel.CONTRADICTION,
            NLILabel.CONTRADICTION,
            NLILabel.ENTAILMENT,
        ]
        assert label_accuracy(pred, gold) == pytest.approx(1 / 3)
        assert label_accuracy(pred, gold, collapse_binary=True) == (
            pytest.approx(2 / 3)
        )

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            label_accuracy([NLILabel.ENTAILMENT], [])

    def test_empty(self):
        with pytest.raises(ValueError):
            label_accuracy([], [])


def _forced_params(action: ActionRelation, weight: float = 10.0) -> PolicyParams:
    """Policy whose argmax is the given action at every step."""
    params = PolicyParams.zeros()
    params.weights[ACTIONS.index(action), FEATURE_NAMES.index("bias")] = weight
    return params


@pytest.fixture(scope="module")
def rules():
    return default_rules()


@pytest.fixture(scope="module")
def lexicon():
    return default_lexicon()


class TestEvaluate:
    def test_untrained_policy_on_identical_pair(self, rules, lexicon):
        # uniform distribution, first-index argmax: all-equivalence decode
        ex = Example(
            premise="the dog runs",
            hypothesis="the dog runs",
            label=NLILabel.ENTAILMENT,
            gold_program=(A_EQ, A_EQ),
            gold_states=(Relation.EQUIVALENCE, Relation.EQUIVALENCE),
            gold_rationale_tokens=(),
        )
        report = evaluate([ex], PolicyParams.zeros(), rules, lexicon)
        assert report.examples == 1
        assert report.accuracy == 1.0
        assert report.accuracy_binary == 1.0
        assert report.state_accuracy == 1.0
        assert report.rationale_iou == 1.0
        # no phrases on either side: vacuously perfect
        assert report.rationale_precision == 1.0
        assert report.rationale_recall == 1.0
        assert report.rationale_f1 == 1.0

    def test_forced_decode_matches_gold_rationale(self, rules, lexicon):
        # forcing forward entailment decodes states (sub, sub), the same
        # trace as gold (sub, eq), so every metric is perfect
        ex = Example(
            premise="the small dog runs",
            hypothesis="the dog runs",
            label=NLILabel.ENTAILMENT,
            gold_program=(A_SUB, A_EQ),
            gold_states=(
                Relation.FORWARD_ENTAILMENT,
                Relation.FORWARD_ENTAILMENT,
            ),
            gold_rationale_tokens=(0, 1),
        )
        report = evaluate([ex], _forced_params(A_SUB), rules, lexicon)
        assert report.accuracy == 1.0
        assert report.state_accuracy == 1.0
        assert report.rationale_iou == 1.0
        assert report.rationale_f1 == 1.0

    def test_wrong_decode_scores_zero(self, rules, lexicon):
        ex = Example(
            premise="the small dog runs",
            hypothesis="the dog runs",
            label=NLILabel.ENTAILMENT,
            gold_program=(A_SUB, A_EQ),
            gold_states=(
                Relation.FORWARD_ENTAILMENT,
                Relation.FORWARD_ENTAILMENT,
            ),
            gold_rationale_tokens=(0, 1),
        )
        # reverse entailment decode: states (sup, sup) -> neutral
        report = evaluate([ex], _forced_params(A_SUP), rules, lexicon)
        assert report.accuracy == 0.0
        assert report.accuracy_binary == 0.0
        assert report.state_accuracy == 0.0

    def test_aggregates_mix(self, rules, lexicon):
        perfect = Example(
            premise="the dog runs",
            hypothesis="the dog runs",
            label=NLILabel.ENTAILMENT,
            gold_program=(A_EQ, A_EQ),
            gold_states=(Relation.EQUIVALENCE, Relation.EQUIVALENCE),
            gold_rationale_tokens=(),
        )
        missed = Example(
            premise="the small dog runs",
            hypothesis="the dog runs",
            label=NLILabel.ENTAILMENT,
            gold_program=(A_SUB, A_EQ),
            gold_states=(
                Relation.FORWARD_ENTAILMENT,
                Relation.FORWARD_ENTAILMENT,
            ),
            gold_rationale_tokens=(0, 1),
        )
        # all-equivalence decode: right label on both, wrong states and
        # rationale on the second
        report = evaluate(
            [perfect, missed], PolicyParams.zeros(), rules, lexicon
        )
        assert report.examples == 2
        assert report.accuracy == 1.0
        assert report.state_accuracy == pytest.approx(0.5)
        # IOU macro-average: (1.0 + 0.0) / 2
        assert report.rationale_iou == pytest.approx(0.5)
        # phrases: pred none on both; gold has one phrase on the second
        assert report.rationale_precision == 0.0
        assert report.rationale_recall == 0.0
        assert report.rationale_f1 == 0.0

    def test_relation_target_examples(self, rules, lexicon):
        # target_state asks for an exact final state instead of a label
        ex = Example(
            premise="the small dog runs",
            hypothesis="the dog runs",
            target_state=Relation.FORWARD_ENTAILMENT,
        )
        report = evaluate([ex], _forced_params(A_SUB), rules, lexicon)
        assert report.accuracy == 1.0
        # no label, no gold annotations: everything else is None
        assert report.accuracy_binary is None
        assert report.state_accuracy is None
        assert report.rationale_iou is None
        assert report.rationale_f1 is None

    @pytest.mark.parametrize(
        "bad, message",
        [
            (
                {"gold_program": (A_EQ, A_EQ, A_EQ)},
                "program length 3 != hypothesis chunks 2",
            ),
            (
                {"gold_states": (Relation.EQUIVALENCE,)},
                "gold states length 1 != hypothesis chunks 2",
            ),
            ({"hypothesis": "..."}, "cannot chunk an empty sentence"),
            ({"label": None}, "example has neither label nor target state"),
            (
                {"gold_rationale_tokens": (-1, 99)},
                "gold rationale token -1 is not a hypothesis token index in 0..2",
            ),
            (
                {"gold_rationale_tokens": (0, 3)},
                "gold rationale token 3 is not a hypothesis token index in 0..2",
            ),
        ],
    )
    def test_malformed_example_named_by_index_and_premise(
        self, rules, lexicon, bad, message
    ):
        good = Example(
            premise="some dogs run",
            hypothesis="some animals run",
            label=NLILabel.ENTAILMENT,
            gold_program=(A_SUB, A_EQ),
            gold_states=(Relation.FORWARD_ENTAILMENT, Relation.FORWARD_ENTAILMENT),
            gold_rationale_tokens=(0, 1),
        )
        bad = dataclasses.replace(good, premise="all dogs run", **bad)
        examples = [good, good, bad, good]
        with pytest.raises(ValueError) as info:
            evaluate(examples, PolicyParams.zeros(), rules, lexicon)
        assert str(info.value) == f"example 2 ('all dogs run'): {message}"

    def test_empty_dataset_rejected(self, rules, lexicon):
        with pytest.raises(ValueError):
            evaluate([], PolicyParams.zeros(), rules, lexicon)

    def test_report_record_round_trip(self, rules, lexicon):
        ex = Example(
            premise="the dog runs",
            hypothesis="the dog runs",
            label=NLILabel.ENTAILMENT,
        )
        report = evaluate([ex], PolicyParams.zeros(), rules, lexicon)
        record = report.to_record()
        assert record["examples"] == 1
        assert record["accuracy"] == 1.0
        assert record["state_accuracy"] is None
        assert set(record) == {
            "examples",
            "accuracy",
            "accuracy_binary",
            "state_accuracy",
            "rationale_iou",
            "rationale_precision",
            "rationale_recall",
            "rationale_f1",
        }

    def test_csv_export(self, rules, lexicon):
        ex = Example(
            premise="the dog runs",
            hypothesis="the dog runs",
            label=NLILabel.ENTAILMENT,
        )
        report = evaluate([ex], PolicyParams.zeros(), rules, lexicon)
        text = reports_to_csv({"dev": report, "test": report})
        lines = text.splitlines()
        assert lines[0].startswith("dataset,examples,accuracy")
        assert len(lines) == 3
        assert lines[1].startswith("dev,1,1.0")
        # None-valued metrics render as empty cells
        assert ",," in lines[1]
        # identical inputs serialize identically
        assert text == reports_to_csv({"dev": report, "test": report})


@pytest.fixture(scope="module")
def trained_policy(rules, lexicon):
    """A policy trained for two epochs on the default train split."""
    train_set, _ = generate(default_genspec(), rules)
    return train(train_set, rules, lexicon, TrainConfig(epochs=2, seed=0)).params


@pytest.mark.parametrize("noisy", [False, True])
def test_per_pair_decode_equals_evaluate_programs(
    rules, lexicon, trained_policy, monkeypatch, noisy
):
    """One pair at a time (chunk, featurize, softmax, argmax per step), as
    the benchmark's decode phase runs, against the programs ``evaluate``
    reads from its one decode of the distinct rows through each example's
    row ids."""
    spec = dataclasses.replace(default_genspec(), noisy_test=noisy)
    _, test_set = generate(spec, rules)
    compile_, compiled = metrics.compile_examples, []
    decode, decoded = metrics.decode, []

    def recording_compile(examples, rules, lexicon):
        compiled.append(compile_(examples, rules, lexicon))
        return compiled[-1]

    def recording(params, features):
        decoded.append((features, decode(params, features)))
        return decoded[-1][1]

    monkeypatch.setattr(metrics, "compile_examples", recording_compile)
    monkeypatch.setattr(metrics, "decode", recording)
    evaluate(test_set, trained_policy, rules, lexicon)
    monkeypatch.undo()
    ((items, rows),) = compiled
    ((decoded_rows, actions),) = decoded
    ids = [r for item in items for r in item.row_ids]
    # the compiled distinct rows, decoded as they are, each once
    assert decoded_rows is rows
    assert len(rows) == len(set(ids)) == max(ids) + 1 < len(ids)
    programs = set()
    for example, item in zip(test_set, items):
        pair = chunk_pair(example.premise, example.hypothesis, rules)
        features = featurize_pair(pair, lexicon)
        assert rows[list(item.row_ids)].tobytes() == features.tobytes()
        probs = step_distributions(trained_policy, features)
        program = tuple(argmax(p) for p in probs)
        assert program == tuple(actions[r] for r in item.row_ids)
        programs.add(program)
    assert len(programs) > 1


# -- evaluate by distinct parts against the per-example loop -----------------


def _reference_evaluate(examples, params, rules, lexicon) -> EvalReport:
    """The per-example evaluate loop: chunk and featurize each pair alone,
    execute its predicted and gold programs, take the rationale tokens from
    the trace and match phrases greedily."""
    hits, pred_labels, gold_labels = 0, [], []
    pred_states, gold_states, ious = [], [], []
    matches = n_pred = n_gold = 0
    any_rationales = scored_phrases = False
    for example in examples:
        pair = chunk_pair(example.premise, example.hypothesis, rules)
        trace = execute(pair, decode(params, featurize_pair(pair, lexicon)))
        hits += matches_target(trace, example.target)
        if example.label is not None:
            pred_labels.append(trace.label)
            gold_labels.append(example.label)
        if example.gold_states is not None:
            pred_states.append(trace.states[1:])
            gold_states.append(example.gold_states)
        if example.gold_rationale_tokens is not None:
            any_rationales = True
            ious.append(
                iou(trace.rationale_token_indices(), example.gold_rationale_tokens)
            )
            if example.gold_program is not None:
                scored_phrases = True
                gold_trace = execute(pair, example.gold_program)
                preds = [
                    set(pair.hypothesis[t - 1].token_indices) for t in trace.rationales
                ]
                golds = [
                    set(pair.hypothesis[t - 1].token_indices)
                    for t in gold_trace.rationales
                ]
                matches += metrics._greedy_matches(preds, golds)
                n_pred += len(preds)
                n_gold += len(golds)
    prf = metrics._prf(matches, n_pred, n_gold) if scored_phrases else (None,) * 3
    return EvalReport(
        examples=len(examples),
        accuracy=hits / len(examples),
        accuracy_binary=(
            label_accuracy(pred_labels, gold_labels, collapse_binary=True)
            if gold_labels
            else None
        ),
        state_accuracy=(
            state_accuracy(pred_states, gold_states) if gold_states else None
        ),
        rationale_iou=float(np.mean(ious)) if any_rationales else None,
        rationale_precision=prf[0],
        rationale_recall=prf[1],
        rationale_f1=prf[2],
    )


def _thinned(examples):
    """The examples with gold annotations dropped in turn, and every fifth
    one retargeted to its final gold state, so that every branch of
    ``evaluate`` runs."""
    out = []
    for i, example in enumerate(examples):
        drop = ("gold_program", "gold_states", "gold_rationale_tokens", None)[i % 4]
        if drop is not None:
            example = dataclasses.replace(example, **{drop: None})
        if i % 5 == 0 and example.gold_states:
            example = dataclasses.replace(
                example, label=None, target_state=example.gold_states[-1]
            )
        out.append(example)
    return out


@pytest.fixture(scope="module")
def splits(rules):
    spec = default_genspec()
    train_set, test_set = generate(spec, rules)
    _, noisy = generate(dataclasses.replace(spec, noisy_test=True), rules)
    return {
        "comp": test_set,
        "noisy": noisy,
        "two-hop": generate_2hop(spec, rules),
        "train": train_set,
        "thinned": _thinned(noisy),
    }


@pytest.fixture(scope="module")
def policies(trained_policy):
    weights = np.random.default_rng(7).normal(size=PolicyParams.zeros().weights.shape)
    return {
        "zero": PolicyParams.zeros(),
        "trained": trained_policy,
        "random-normal": PolicyParams(weights=weights),
    }


SPLITS = ["comp", "noisy", "two-hop", "train", "thinned"]


class TestEvaluateByDistinctParts:
    @pytest.mark.parametrize("weights", ["zero", "trained", "random-normal"])
    @pytest.mark.parametrize("split", SPLITS)
    def test_report_equals_per_example_loop(
        self, splits, policies, rules, lexicon, split, weights
    ):
        examples, params = splits[split], policies[weights]
        report = evaluate(examples, params, rules, lexicon)
        assert report == _reference_evaluate(examples, params, rules, lexicon)

    @pytest.mark.parametrize("split", SPLITS)
    def test_compiled_features_and_records_equal_per_pair(
        self, splits, rules, lexicon, split
    ):
        examples = splits[split]
        compiled, rows = compile_examples(examples, rules, lexicon)
        pairs = [chunk_pair(e.premise, e.hypothesis, rules) for e in examples]
        expected = np.concatenate([featurize_pair(pair, lexicon) for pair in pairs])
        features = np.concatenate([rows[list(item.row_ids)] for item in compiled])
        assert features.dtype == expected.dtype and features.shape == expected.shape
        assert features.tobytes() == expected.tobytes()
        ids = [r for item in compiled for r in item.row_ids]
        assert max(ids) + 1 == len(rows)
        assert list(dict.fromkeys(ids)) == list(range(len(rows)))  # first sight
        for item, pair in zip(compiled, pairs):
            assert item.pair == pair
            assert item.records == compare_pair(pair, lexicon)

    def test_executes_each_distinct_key_once(
        self, splits, policies, rules, lexicon, monkeypatch
    ):
        """One ``generate``, ``generate_2hop``, ``evaluate`` or ``train`` call
        runs ``execute`` once per distinct (context rows, program) key: all
        read the one table of executions in ``executor``."""
        calls = []

        def counting(pair, program):
            calls.append(
                (tuple(c.context.action_codes for c in pair.hypothesis), tuple(program))
            )
            return execute(pair, program)

        monkeypatch.setattr(executor, "execute", counting)
        spec = dataclasses.replace(default_genspec(), noisy_test=True)
        examples = splits["noisy"]
        runs = {
            "generate": lambda: generate(spec, rules),
            "generate_2hop": lambda: generate_2hop(spec, rules),
            "evaluate": lambda: evaluate(
                examples, policies["random-normal"], rules, lexicon
            ),
            "train": lambda: train(
                splits["train"][::8], rules, lexicon, TrainConfig(epochs=2, seed=1)
            ),
        }
        for name, run in runs.items():
            calls.clear()
            run()
            assert calls and len(calls) == len(set(calls)), name
            if name == "evaluate":
                assert len(calls) < len(examples)

    def test_wrong_length_gold_program_still_named(self, splits, rules, lexicon):
        """A gold program one step short is rejected with ``execute``'s
        message, even after a program of the right length ran for the
        same context rows."""
        example = splits["comp"][0]
        short = dataclasses.replace(example, gold_program=example.gold_program[:-1])
        with pytest.raises(ValueError) as info:
            evaluate([example, short], PolicyParams.zeros(), rules, lexicon)
        m = len(example.gold_program)
        assert str(info.value) == (
            f"example 1 ({example.premise!r}): "
            f"program length {m - 1} != hypothesis chunks {m}"
        )


class TestEvaluateByKind:
    """``evaluate`` scores each kind of example once: the distinct rows are
    decoded once, errors name the earliest malformed example, and the mean
    IOU adds the examples' IOUs in example order."""

    @pytest.mark.parametrize("split, distinct", [("comp", 20), ("noisy", 42)])
    def test_decodes_the_distinct_rows_once(
        self, splits, policies, rules, lexicon, monkeypatch, split, distinct
    ):
        decoded = []

        def recording(params, features):
            decoded.append(len(features))
            return decode(params, features)

        monkeypatch.setattr(metrics, "decode", recording)
        evaluate(splits[split], policies["trained"], rules, lexicon)
        assert decoded == [distinct]

    def test_earliest_malformed_example_named(self, splits, rules, lexicon):
        """Malformed examples of three kinds, one kind repeated: the error
        names the earliest, and, with it mended, the next."""
        examples = splits["comp"][:40]
        bad_token = dataclasses.replace(examples[7], gold_rationale_tokens=(0, 99))
        short = dataclasses.replace(
            examples[3], gold_program=examples[3].gold_program[:-1]
        )
        long_states = dataclasses.replace(
            examples[5], gold_states=examples[5].gold_states + (Relation.EQUIVALENCE,)
        )
        broken = {12: bad_token, 20: short, 26: long_states, 33: bad_token}
        m = len(short.gold_program) + 1
        n_tokens = len(tokenize(bad_token.hypothesis))
        messages = {
            12: f"gold rationale token 99 is not a hypothesis token index "
            f"in 0..{n_tokens - 1}",
            20: f"program length {m - 1} != hypothesis chunks {m}",
            26: f"gold states length {m + 1} != hypothesis chunks {m}",
        }
        messages[33] = messages[12]
        for index in sorted(broken):
            mixed = [broken.get(i, example) for i, example in enumerate(examples)]
            with pytest.raises(ValueError) as info:
                evaluate(mixed, PolicyParams.zeros(), rules, lexicon)
            assert str(info.value) == (
                f"example {index} ({broken[index].premise!r}): {messages[index]}"
            )
            del broken[index]
        evaluate(examples, PolicyParams.zeros(), rules, lexicon)

    def test_rationale_iou_adds_in_example_order(
        self, splits, policies, rules, lexicon
    ):
        """Gold rationales cut to varied token prefixes give IOUs whose mean
        depends on the order of addition; ``evaluate`` adds them as the
        per-example loop does, not kind by kind."""
        params = policies["trained"]
        examples = [
            dataclasses.replace(
                example, gold_rationale_tokens=tuple(range(i % n + 1))
            )
            for i, example in enumerate(splits["noisy"])
            for n in [len(tokenize(example.hypothesis))]
        ]
        ious = []
        for example in examples:
            pair = chunk_pair(example.premise, example.hypothesis, rules)
            trace = execute(pair, decode(params, featurize_pair(pair, lexicon)))
            ious.append(
                iou(trace.rationale_token_indices(), example.gold_rationale_tokens)
            )
        expected = float(np.mean(ious))
        # the order matters: the same IOUs grouped by value, or weighted by
        # their counts, give other floats
        by_value: dict = {}
        for value in ious:
            by_value.setdefault(value, []).append(value)
        grouped = [value for values in by_value.values() for value in values]
        assert float(np.mean(grouped)) != expected
        assert sum(v * len(vs) for v, vs in by_value.items()) / len(ious) != expected
        report = evaluate(examples, params, rules, lexicon)
        assert report.rationale_iou == expected


@pytest.fixture(scope="module")
def split_pairs(splits, rules):
    examples = [e for name in SPLITS for e in splits[name]]
    return chunk_pairs([(e.premise, e.hypothesis) for e in examples], rules)


@given(data=st.data())
def test_greedy_phrase_matches_are_the_step_intersection(split_pairs, data):
    """Chunks are disjoint and non-empty, so over rationale phrases the
    greedy one-to-one IOU matching counts the shared steps."""
    pair = data.draw(st.sampled_from(split_pairs))
    steps = st.sets(st.integers(1, pair.m)).map(sorted)
    pred, gold = data.draw(steps), data.draw(steps)
    tokens = [set(chunk.token_indices) for chunk in pair.hypothesis]
    matches = metrics._greedy_matches(
        [tokens[t - 1] for t in pred], [tokens[t - 1] for t in gold]
    )
    assert matches == len(set(pred) & set(gold))
