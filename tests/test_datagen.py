"""Tests for the synthetic compositional-generalization generator."""

import dataclasses
import json
import re

import pytest

from natlog.chunker import chunk_pair, default_rules
from natlog.cli import main
from natlog.data import load_dataset, save_dataset
from natlog.datagen import (
    GenSpec,
    Replacement,
    default_genspec,
    generate,
    generate_2hop,
    load_genspec,
    save_genspec,
    _subsample,
)
from natlog.executor import execute
from natlog.relations import ActionRelation, NLILabel

A_EQ = ActionRelation.EQUIVALENCE
A_SUB = ActionRelation.FORWARD_ENTAILMENT
A_SUP = ActionRelation.REVERSE_ENTAILMENT
A_NA = ActionRelation.NEG_ALT


@pytest.fixture(scope="module")
def rules():
    return default_rules()


@pytest.fixture(scope="module")
def spec():
    return default_genspec()


@pytest.fixture(scope="module")
def splits(spec, rules):
    return generate(spec, rules)


def _find(examples, premise, hypothesis):
    found = [
        e
        for e in examples
        if e.premise == premise and e.hypothesis == hypothesis
    ]
    assert found, f"no example {premise!r} => {hypothesis!r}"
    return found[0]


def _combo(example, spec, rules):
    """Recover the (quantifier, replacement) pair behind an example."""
    pair = chunk_pair(example.premise, example.hypothesis, rules)
    quantifier = example.premise.split()[0]
    assert quantifier in spec.quantifiers
    diff = [
        (p, h)
        for p, h in zip(pair.premise, pair.hypothesis)
        if p.tokens != h.tokens
    ]
    assert len(diff) == 1
    p, h = diff[0]
    p_phrase = " ".join(
        p.tokens[1:] if p.tokens[0] in spec.quantifiers else p.tokens
    )
    h_phrase = " ".join(
        h.tokens[1:] if h.tokens[0] in spec.quantifiers else h.tokens
    )
    by_pair = {
        frozenset((r.narrow, r.broad)): r for r in spec.replacements
    }
    return quantifier, by_pair[frozenset((p_phrase, h_phrase))]


class TestCompositionalSplit:
    def test_split_sizes(self, splits):
        train, test = splits
        assert len(train) >= 1000
        assert len(test) >= 1000

    def test_split_tags(self, splits):
        train, test = splits
        assert all(e.split_tag == "train" for e in train)
        assert all(e.split_tag == "test" for e in test)

    def test_test_avoids_held_out_combinations(self, splits, spec, rules):
        _, test = splits
        held_q = set(spec.held_out_quantifiers)
        held_r = set(spec.held_out_replacements)
        for example in test:
            q, r = _combo(example, spec, rules)
            assert q not in held_q
            assert r not in held_r

    def test_train_covers_only_held_out_rows_and_columns(
        self, splits, spec, rules
    ):
        train, _ = splits
        held_q = set(spec.held_out_quantifiers)
        held_r = set(spec.held_out_replacements)
        for example in train:
            if example.premise == example.hypothesis:
                continue
            q, r = _combo(example, spec, rules)
            assert q in held_q or r in held_r

    def test_no_shared_combination(self, splits, spec, rules):
        train, test = splits
        train_combos = {
            _combo(e, spec, rules)
            for e in train
            if e.premise != e.hypothesis
        }
        test_combos = {_combo(e, spec, rules) for e in test}
        assert not train_combos & test_combos

    def test_every_primitive_seen_in_training(self, splits, spec, rules):
        # each quantifier and each replacement appears somewhere in train
        train, _ = splits
        combos = {
            _combo(e, spec, rules)
            for e in train
            if e.premise != e.hypothesis
        }
        assert {q for q, _ in combos} == set(spec.quantifiers)
        assert {r for _, r in combos} == set(spec.replacements)


class TestSelfConsistency:
    def test_gold_annotations_re_execute(self, splits, rules):
        train, test = splits
        for example in list(train) + list(test):
            pair = chunk_pair(example.premise, example.hypothesis, rules)
            trace = execute(pair, example.gold_program)
            assert trace.label == example.label
            assert trace.states[1:] == example.gold_states
            assert (
                trace.rationale_token_indices()
                == example.gold_rationale_tokens
            )

    def test_identity_examples(self, splits):
        train, _ = splits
        identical = [e for e in train if e.premise == e.hypothesis]
        assert identical
        for example in identical:
            assert example.label == NLILabel.ENTAILMENT
            assert set(example.gold_program) == {A_EQ}
            assert example.gold_rationale_tokens == ()


class TestKnownSamples:
    def test_upward_substitution(self, splits):
        train, _ = splits
        ex = _find(train, "some dogs run", "some animals run")
        assert ex.label == NLILabel.ENTAILMENT
        assert ex.gold_program == (A_SUB, A_EQ)
        assert ex.gold_rationale_tokens == (0, 1)

    def test_downward_flip(self, splits):
        train, test = splits
        ex = _find(list(train) + list(test), "no animals run", "no dogs run")
        assert ex.label == NLILabel.ENTAILMENT
        assert ex.gold_program == (A_SUP, A_EQ)

    def test_held_out_combination_spelled_like_the_probe(self, splits):
        # broad-to-narrow under "no" composes to entailment
        train, _ = splits
        ex = _find(train, "no dogs run", "no small dogs run")
        assert ex.label == NLILabel.ENTAILMENT
        assert ex.gold_program == (A_SUP, A_EQ)

    def test_phrase_shrink_is_upward(self, splits):
        train, _ = splits
        ex = _find(train, "some small dogs run", "some dogs run")
        assert ex.label == NLILabel.ENTAILMENT
        assert ex.gold_program == (A_SUB, A_EQ)

    def test_upward_neutral_direction(self, splits):
        _, test = splits
        ex = _find(test, "all dogs run", "all animals run")
        assert ex.label == NLILabel.NEUTRAL
        assert ex.gold_program == (A_SUB, A_EQ)


class TestNoise:
    def test_noised_twins(self, spec, rules):
        noisy = dataclasses.replace(spec, noisy_test=True, test_size=9)
        _, test = generate(noisy, rules)
        plain = [e for e in test if e.split_tag == "test"]
        noised = [e for e in test if e.split_tag == "test-noise"]
        assert len(plain) == 9 and len(noised) == 9
        for twin, base in zip(noised, plain):
            prefix_p = twin.premise[: -len(base.premise) - 1]
            prefix_h = twin.hypothesis[: -len(base.hypothesis) - 1]
            assert prefix_p == prefix_h
            assert prefix_p in spec.noise_prefixes
            assert twin.label == base.label
            pair = chunk_pair(twin.premise, twin.hypothesis, rules)
            trace = execute(pair, twin.gold_program)
            assert trace.label == twin.label

    def test_noise_requires_prefixes(self, spec, rules):
        bad = dataclasses.replace(spec, noisy_test=True, noise_prefixes=())
        with pytest.raises(ValueError):
            generate(bad, rules)

    def test_train_is_never_noised(self, splits, spec):
        train, _ = splits
        for example in train:
            first = example.premise.split()[0]
            assert first in spec.quantifiers


class TestDeterminism:
    def test_regeneration_is_identical(self, spec, rules):
        assert generate(spec, rules) == generate(spec, rules)

    def test_bytes_identical(self, spec, rules, tmp_path):
        for name in ("a", "b"):
            train, test = generate(spec, rules)
            save_dataset(train, tmp_path / f"train-{name}.jsonl")
            save_dataset(test, tmp_path / f"test-{name}.jsonl")
        assert (tmp_path / "train-a.jsonl").read_bytes() == (
            tmp_path / "train-b.jsonl"
        ).read_bytes()
        assert (tmp_path / "test-a.jsonl").read_bytes() == (
            tmp_path / "test-b.jsonl"
        ).read_bytes()

    def test_round_trip_through_files(self, spec, rules, tmp_path):
        train, test = generate(spec, rules)
        save_dataset(train, tmp_path / "train.jsonl")
        assert tuple(load_dataset(tmp_path / "train.jsonl")) == train

    def test_malformed_record_names_file_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"schema":"natlog.dataset","version":1}\n'
            '{"premise":"dogs run","hypothesis":"animals run"}\n'
            '{"premise": "dogs run",\n'
        )
        with pytest.raises(ValueError, match=f"^{path}:3: "):
            load_dataset(path)

    def test_missing_key_names_file_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"schema":"natlog.dataset","version":1}\n'
            '{"premise":"dogs run"}\n'
        )
        with pytest.raises(ValueError, match=f"^{path}:2: missing key 'hypothesis'"):
            load_dataset(path)

    def test_subsampling_deterministic_and_seed_sensitive(self, spec, rules):
        small = dataclasses.replace(spec, train_size=50, test_size=50)
        first = generate(small, rules)
        second = generate(small, rules)
        assert first == second
        assert len(first[0]) == 50 and len(first[1]) == 50
        other = generate(small.with_seed(1), rules)
        assert other != first

    def test_subsample_keeps_generation_order(self, spec, rules):
        small = dataclasses.replace(spec, train_size=100)
        train, _ = generate(small, rules)
        full, _ = generate(spec, rules)
        positions = [full.index(e) for e in train]
        assert positions == sorted(positions)

    def test_subsample_keeps_examples_of_full_split(self, spec, rules):
        # plans are subsampled before they are built: the kept examples are
        # the full split's, at the positions its size and the seed pick
        small = dataclasses.replace(spec, train_size=60, test_size=40)
        full = generate(spec, rules)
        for key, (kept, pool, size) in enumerate(
            zip(generate(small, rules), full, (60, 40))
        ):
            picked = _subsample(list(range(len(pool))), size, spec.seed, key)
            assert kept == tuple(pool[i] for i in picked)


class TestValidation:
    def test_unknown_vocabulary_reported(self, spec, rules):
        bad = dataclasses.replace(
            spec,
            replacements=spec.replacements
            + (Replacement("zebras", "animals"),),
        )
        with pytest.raises(ValueError, match="zebras"):
            generate(bad, rules)

    def test_empty_replacements(self, rules):
        with pytest.raises(ValueError):
            generate(GenSpec(quantifiers=("some",)), rules)

    def test_held_out_must_be_proper_subset(self, spec, rules):
        bad = dataclasses.replace(
            spec, held_out_quantifiers=spec.quantifiers
        )
        with pytest.raises(ValueError, match="proper subset"):
            generate(bad, rules)

    def test_held_out_must_be_known(self, spec, rules):
        bad = dataclasses.replace(spec, held_out_quantifiers=("most",))
        with pytest.raises(ValueError, match="not in inventory"):
            generate(bad, rules)

    def test_held_out_must_be_non_empty(self, spec, rules):
        bad = dataclasses.replace(spec, held_out_quantifiers=())
        with pytest.raises(ValueError, match="empty"):
            generate(bad, rules)

    def test_bad_site_rejected(self):
        with pytest.raises(ValueError, match="site"):
            Replacement("dogs", "animals", "object")


@pytest.fixture(scope="module")
def hop(spec, rules):
    return generate_2hop(spec, rules)


class TestTwoHop:
    def test_every_example_has_two_edit_steps(self, hop):
        for example in hop:
            edits = [a for a in example.gold_program if a != A_EQ]
            assert len(edits) == 2
            assert len(example.gold_states) == len(example.gold_program)
            assert example.split_tag == "2hop"

    def test_gold_annotations_re_execute(self, hop, rules):
        for example in hop:
            pair = chunk_pair(example.premise, example.hypothesis, rules)
            trace = execute(pair, example.gold_program)
            assert trace.label == example.label
            assert trace.states[1:] == example.gold_states

    def test_two_forward_substitutions_compose(self, hop):
        ex = _find(hop, "the beagles run", "the dogs move")
        assert ex.gold_program == (A_SUB, A_SUB)
        assert [s.value for s in ex.gold_states] == [
            "forward_entailment",
            "forward_entailment",
        ]
        assert ex.label == NLILabel.ENTAILMENT

    def test_substitution_then_alternation_contradicts(self, hop):
        ex = _find(hop, "the beagles run", "the dogs sleep")
        assert ex.gold_program == (A_SUB, A_NA)
        assert ex.gold_states[-1].value == "alternation"
        assert ex.label == NLILabel.CONTRADICTION

    def test_covers_all_three_labels(self, hop):
        labels = {e.label for e in hop}
        assert labels == {
            NLILabel.ENTAILMENT,
            NLILabel.CONTRADICTION,
            NLILabel.NEUTRAL,
        }

    def test_subsampling(self, spec, rules):
        small = dataclasses.replace(spec, two_hop_size=25)
        hop = generate_2hop(small, rules)
        assert len(hop) == 25
        assert hop == generate_2hop(small, rules)
        full = generate_2hop(spec, rules)
        picked = _subsample(list(range(len(full))), 25, spec.seed, 2)
        assert hop == tuple(full[i] for i in picked)

    def test_degenerate_spec_rejected(self, rules):
        with pytest.raises(ValueError):
            generate_2hop(GenSpec(quantifiers=("the",)), rules)


class TestSpecSerialization:
    def test_round_trip(self, spec, tmp_path):
        save_genspec(spec, tmp_path / "spec.json")
        assert load_genspec(tmp_path / "spec.json") == spec

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"quantifier_set": ["some"]}')
        with pytest.raises(ValueError, match="quantifier_set"):
            load_genspec(path)

    def test_malformed_json_names_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"seed": 1,')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: malformed JSON"):
            load_genspec(path)

    def test_bad_record_names_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"replacements": [{"narrow": "dogs", "broad": "animals"}]}')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*missing key 'site'"):
            load_genspec(path)
        path.write_text('{"replacements": [{"narrow": "dogs", "broad": "animals", "site": "object"}]}')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*'object'"):
            load_genspec(path)
        path.write_text('["seed", 1]')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected a JSON object"):
            load_genspec(path)

    def test_gen_command_names_malformed_spec(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"seed": 1,')
        code = main(["gen", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValueError"
        assert record["message"].startswith(f"{path}:1: malformed JSON")

    def test_with_seed(self, spec):
        assert spec.with_seed(7).seed == 7
        assert spec.with_seed(7).replacements == spec.replacements
