"""Acceptance checklist: one test per shipping criterion.

Each test asserts one end-to-end guarantee of the engine at a stated
tolerance, so a verbose run reads as a pass/fail line per criterion.
Expensive artifacts (generated corpora, trained policies) are built once
per session and shared.
"""

import contextlib
import dataclasses
import io
import json
import time

import numpy as np
import pytest

from natlog.chunker import chunk_pair, default_rules
from natlog.cli import main
from natlog.data import Example
from natlog.datagen import default_genspec, generate, generate_2hop, save_genspec
from natlog.executor import Chunk, ChunkedPair, execute, matches_target
from natlog.knowledge import default_lexicon, queue_from_keys
from natlog.metrics import (
    evaluate,
    iou,
    label_accuracy,
    phrasal_prf,
    state_accuracy,
)
from natlog.policy import (
    N_FEATURES,
    PolicyParams,
    save_checkpoint,
)
from natlog.relations import (
    ACTIONS,
    ActionRelation,
    CONTEXTS,
    NLILabel,
    Relation,
    UPWARD,
    join,
    project,
)
from natlog.trainer import (
    OutcomeTable,
    TrainConfig,
    grid_search,
    introspective_revision,
    reinforce_objective,
    reward,
    train,
)

A_EQ = ActionRelation.EQUIVALENCE
A_FE = ActionRelation.FORWARD_ENTAILMENT
A_RE = ActionRelation.REVERSE_ENTAILMENT
A_NA = ActionRelation.NEG_ALT


# --- shared artifacts ---


@pytest.fixture(scope="session")
def rules():
    return default_rules()


@pytest.fixture(scope="session")
def lexicon():
    return default_lexicon()


def _example(premise, hypothesis, actions, rules):
    """A labeled example annotated by executing its gold program."""
    pair = chunk_pair(premise, hypothesis, rules)
    assert pair.m == len(actions)
    trace = execute(pair, tuple(actions))
    return Example(
        premise=premise,
        hypothesis=hypothesis,
        label=trace.label,
        gold_program=tuple(actions),
        gold_states=trace.states[1:],
        gold_rationale_tokens=trace.rationale_token_indices(),
    )


@pytest.fixture(scope="session")
def trace_checkpoint(rules, lexicon, tmp_path_factory):
    """A policy trained on six hand-built pairs covering every decision
    the worked traces need: exact match, synonymy, hypernymy in both
    monotonicity contexts, and antonymy."""
    fixtures = [
        _example("the dog runs quickly", "the dog runs quickly",
                 (A_EQ, A_EQ), rules),
        _example("some kids play in the park", "some kids play in the park",
                 (A_EQ, A_EQ, A_EQ), rules),
        _example("the dog runs quickly", "the animal runs quickly",
                 (A_FE, A_EQ), rules),
        _example("no animals run", "no dogs run", (A_RE, A_EQ), rules),
        _example("the kids play in the park", "the children play in the park",
                 (A_EQ, A_EQ, A_EQ), rules),
        _example("the dog runs in the morning", "the dog runs in the evening",
                 (A_EQ, A_EQ, A_NA), rules),
    ]
    result = train(fixtures, rules, lexicon,
                   TrainConfig(epochs=30, learning_rate=0.05, seed=0))
    path = tmp_path_factory.mktemp("traces") / "policy.ckpt"
    save_checkpoint(result.params, path)
    return path


@pytest.fixture(scope="session")
def comp_runs(rules, lexicon):
    """Compositional-split training: full model vs. no-revision ablation.

    The budget is deliberately small; at this learning rate the ablation
    sits in a stable local optimum while the full model escapes it.
    """
    started = time.perf_counter()
    train_set, test_set = generate(default_genspec(), rules)
    config = TrainConfig(epochs=10, learning_rate=0.02, seed=0)
    full = train(train_set, rules, lexicon, config)
    ablated = train(train_set, rules, lexicon,
                    dataclasses.replace(config, introspective_revision=False))
    out = {
        "train_size": len(train_set),
        "test_size": len(test_set),
        "epochs": config.epochs,
        "full_train": evaluate(train_set, full.params, rules, lexicon),
        "full_test": evaluate(test_set, full.params, rules, lexicon),
        "ablated_test": evaluate(test_set, ablated.params, rules, lexicon),
        "elapsed": time.perf_counter() - started,
    }
    return out


@pytest.fixture(scope="session")
def hop_runs(rules, lexicon):
    """Two-hop training: full model vs. knowledge-ablated model."""
    spec = dataclasses.replace(default_genspec(), two_hop_size=1200)
    data = generate_2hop(spec, rules)
    train_set, eval_set = data[:700], data[700:]
    config = TrainConfig(epochs=2, learning_rate=0.05, seed=0)
    full = train(train_set, rules, lexicon, config)
    ablated = train(train_set, rules, lexicon,
                    dataclasses.replace(config, knowledge=False))
    return {
        "full": evaluate(eval_set, full.params, rules, lexicon),
        "ablated": evaluate(eval_set, ablated.params, rules, lexicon),
    }


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([str(a) for a in argv])
    assert rc == 0, out.getvalue()
    return out.getvalue()


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory):
    """Two identically seeded generate+train+eval pipelines, kept apart."""
    root = tmp_path_factory.mktemp("cli")
    spec = dataclasses.replace(
        default_genspec(), train_size=80, test_size=40, two_hop_size=30
    )
    save_genspec(spec, root / "spec.json")
    (root / "train.cfg").write_text("epochs = 2\nlearning_rate = 0.05\nseed = 0\n")
    for run in ("a", "b"):
        data = root / run / "data"
        _run_cli(["gen", "--config", root / "spec.json", "--out", data,
                  "--two-hop"])
        _run_cli(["train", "--data", data / "train.jsonl",
                  "--config", root / "train.cfg",
                  "--checkpoint", root / run / "policy.ckpt",
                  "--out", root / run / "metrics.jsonl"])
        _run_cli(["eval", "--checkpoint", root / run / "policy.ckpt",
                  "--data", data / "test.jsonl",
                  "--out", root / run / "eval.jsonl"])
    return root


def _records(path):
    lines = path.read_text().splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


# --- criteria ---


_LOCAL = {
    "=": Relation.EQUIVALENCE,
    "<": Relation.FORWARD_ENTAILMENT,
    ">": Relation.REVERSE_ENTAILMENT,
    "^": Relation.NEGATION,
    "|": Relation.ALTERNATION,
    "u": Relation.COVER,
    "#": Relation.INDEPENDENCE,
}

# composition grid, row joined with column, in the order = < > ^ | u #
_JOIN_GRID = """
= < > ^ | u #
< < # | | # #
> # > u # u #
^ u | = > < #
| # | < # < #
u u # > > # #
# # # # # # #
"""

# projection rows over the same input order
_PROJECTION_ROWS = {
    "upward-default": "= < > ^ | u #",
    "all-arg1": "= > < | # | #",
    "all-arg2": "= < > | | # #",
    "some-arg1": "= < > u # u #",
    "some-arg2": "= < > u # u #",
    "not": "= > < ^ u | #",
}


def test_criterion_01_relation_tables():
    """All 49 composition cells and all projection rows, cell by cell."""
    started = time.perf_counter()
    order = [_LOCAL[s] for s in "= < > ^ | u #".split()]
    rows = [line.split() for line in _JOIN_GRID.strip().splitlines()]
    assert len(rows) == 7 and all(len(r) == 7 for r in rows)
    checked = 0
    for a, row in zip(order, rows):
        for b, cell in zip(order, row):
            assert join(a, b) == _LOCAL[cell], (a, b)
            checked += 1
    assert checked == 49
    for name, cells in _PROJECTION_ROWS.items():
        expected = [_LOCAL[s] for s in cells.split()]
        for relation, target in zip(order, expected):
            assert project(CONTEXTS[name], relation) == target, (name, relation)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0


def _prove(checkpoint, premise, hypothesis):
    text = _run_cli(["prove", "--checkpoint", checkpoint, premise, hypothesis])
    lines = text.splitlines()
    body = [line.split() for line in lines[1:] if line and ":" not in line]
    states = [row[-1] for row in body]
    label = next(line for line in lines if line.startswith("label:"))
    rationale = next(line for line in lines if line.startswith("rationale:"))
    return states, label, rationale


def test_criterion_02_worked_traces(trace_checkpoint):
    """The two canonical walk-throughs decode exactly."""
    states, label, rationale = _prove(
        trace_checkpoint,
        "the child does not love sports",
        "the kid doesn't like table-tennis",
    )
    assert ["≡"] + states == ["≡", "≡", "≡", "⊏"]
    assert label == "label: entailment"
    assert rationale == "rationale: chunk 3 'table-tennis'"

    states, label, rationale = _prove(
        trace_checkpoint,
        "a biker rides next to a fountain",
        "a biker rides next to the ocean",
    )
    assert states[-1] == "|"
    assert label == "label: contradiction"
    assert rationale == "rationale: chunk 3 'the ocean'"


def test_criterion_03_reward_vectors():
    """Exact shaped rewards at mu=1, gamma=0.5, m=3."""
    pair = ChunkedPair(
        premise=(Chunk(tokens=("p",), start=0),),
        hypothesis=tuple(Chunk(tokens=(f"h{i}",), start=i) for i in range(3)),
    )
    config = TrainConfig()
    good = execute(pair, (A_EQ, A_EQ, A_FE))
    assert reward(good, NLILabel.ENTAILMENT, config) == (1.0, 1.0, 1.0)
    assert reward(good, NLILabel.CONTRADICTION, config) == (-0.25, -0.5, -1.0)
    flat = execute(pair, (A_EQ, A_EQ, A_EQ))
    assert reward(flat, NLILabel.ENTAILMENT, config) == (0.0, 0.0, 0.0)
    relaxed = TrainConfig(prefer_forward_entailment=False)
    assert reward(flat, NLILabel.ENTAILMENT, relaxed) == (1.0, 1.0, 1.0)


def test_criterion_04_gradient_check():
    """Analytic policy gradient vs. central differences, 100 episodes."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        features = rng.normal(size=(m, N_FEATURES))
        params = PolicyParams(weights=0.5 * rng.normal(size=(5, N_FEATURES)))
        program = tuple(ACTIONS[i] for i in rng.integers(0, 5, size=m))
        rewards = tuple(
            float(rng.choice([-1.0, -0.5, 0.0, 0.25, 1.0])) for _ in range(m)
        )
        _, grad = reinforce_objective(params, features, program, rewards)
        numeric = np.zeros_like(grad)
        for i in range(numeric.shape[0]):
            for j in range(numeric.shape[1]):
                plus = PolicyParams(weights=params.weights.copy())
                plus.weights[i, j] += h
                minus = PolicyParams(weights=params.weights.copy())
                minus.weights[i, j] -= h
                up, _ = reinforce_objective(plus, features, program, rewards)
                down, _ = reinforce_objective(minus, features, program, rewards)
                numeric[i, j] = (up - down) / (2 * h)
        scale = max(np.abs(grad).max(), np.abs(numeric).max(), 1e-12)
        worst = max(worst, float(np.abs(grad - numeric).max() / scale))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-6
    assert elapsed < 10.0


def _exhaustive_single_edits(pair, program, target):
    """Oracle: every (step, action) whose one-step edit reaches target."""
    keys = set()
    for t in range(1, len(program) + 1):
        for action in ACTIONS:
            edited = program[: t - 1] + (action,) + program[t:]
            if matches_target(execute(pair, edited), target):
                keys.add((t, action))
    return keys


def test_criterion_05_grid_search_oracle():
    """grid_search equals brute-force single-edit enumeration, 500 cases."""
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    table = OutcomeTable(TrainConfig())  # one for all cases, as in a train call
    contexts = [
        UPWARD, CONTEXTS["not"], CONTEXTS["all-arg1"], CONTEXTS["some-arg2"]
    ]
    for _ in range(500):
        m = int(rng.integers(1, 5))
        hypothesis = tuple(
            Chunk(
                tokens=(f"h{i}",),
                start=i,
                context=contexts[int(rng.integers(len(contexts)))],
            )
            for i in range(m)
        )
        pair = ChunkedPair(
            premise=(Chunk(tokens=("p",), start=0),), hypothesis=hypothesis
        )
        program = tuple(ACTIONS[i] for i in rng.integers(0, 5, size=m))
        target = list(NLILabel)[int(rng.integers(3))]
        probs = np.full((m, 5), 0.2)
        cls = table.classify(pair, target)
        steps = tuple([a.code for a in program])
        psi = grid_search(table, cls, steps, [], probs)
        assert len(set(psi)) == len(psi)
        assert set(psi) == _exhaustive_single_edits(pair, program, target)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0


def test_criterion_06_metropolis_frequency():
    """Probabilistic acceptance runs at its 0.25/0.5 ratio within 3 sigma."""
    # an unreachable target keeps both the outright-acceptance shortcut
    # and the answer-driven phase out of the way
    pair = ChunkedPair(
        premise=(Chunk(tokens=("p",), start=0),),
        hypothesis=(Chunk(tokens=("h0",), start=0),),
    )
    steps = (A_EQ.code,)
    # the proposal's probability is its entry in the step's row
    probs = np.array([[0.5, 0.25, 0.1, 0.1, 0.05]])
    table = OutcomeTable(TrainConfig(max_revisions=1, epsilon=0.2))
    cls = table.classify(pair, Relation.COVER)
    n = 100_000
    accepted = 0
    for i in range(n):
        phi = queue_from_keys([(1, A_FE)], probs)
        uniforms = np.random.default_rng([199, i]).random(2).tolist()
        revised, _ = introspective_revision(table, cls, steps, phi, probs, uniforms)
        if revised == (A_FE.code,):
            accepted += 1
    p = 0.5
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(accepted / n - p) < 3 * sigma


def test_criterion_07_compositional_learning(comp_runs):
    """Full model beats the 0.95/0.90 floors and its no-revision ablation."""
    assert comp_runs["train_size"] >= 1000
    assert comp_runs["test_size"] >= 1000
    assert comp_runs["epochs"] <= 50
    full_train = comp_runs["full_train"].accuracy
    full_test = comp_runs["full_test"].accuracy
    ablated_test = comp_runs["ablated_test"].accuracy
    assert full_train >= 0.95
    assert full_test >= 0.90
    assert full_test > ablated_test
    assert comp_runs["elapsed"] < 300.0


def test_criterion_08_interpretability(hop_runs):
    """Knowledge strictly improves states and rationales; metric fixtures."""
    full, ablated = hop_runs["full"], hop_runs["ablated"]
    assert full.state_accuracy > ablated.state_accuracy
    assert full.rationale_f1 > ablated.rationale_f1

    assert iou({1, 2, 3}, {2, 3, 4}) == 0.5
    assert iou(set(), set()) == 1.0
    # one of two predictions overlaps the single gold phrase
    assert phrasal_prf([{1, 2}, {5, 6}], [{1, 2, 3}]) == (0.5, 1.0, 2 / 3)
    eq, fe = Relation.EQUIVALENCE, Relation.FORWARD_ENTAILMENT
    assert state_accuracy([(eq, fe), (eq, eq)], [(eq, fe), (fe, eq)]) == 0.75
    ent, con = NLILabel.ENTAILMENT, NLILabel.CONTRADICTION
    neu = NLILabel.NEUTRAL
    assert label_accuracy([ent, con, neu], [ent, neu, neu]) == 2 / 3
    assert label_accuracy([ent, con, neu], [ent, neu, neu],
                          collapse_binary=True) == 1.0


def test_criterion_09_revision_bookkeeping(cli_workspace):
    """Emitted revision counts are non-negative and sum to episode counts."""
    _, records = _records(cli_workspace / "a" / "metrics.jsonl")
    epochs = [r["epoch_metrics"] for r in records if "epoch_metrics" in r]
    totals = [r["revision_totals"] for r in records if "revision_totals" in r]
    assert len(totals) == 1
    total = totals[0]
    buckets = ("knowledge_only", "answer_only", "both", "none")
    assert total["episodes"] > 0
    assert all(total[k] >= 0 for k in buckets)
    assert sum(total[k] for k in buckets) == total["episodes"]
    assert all(v >= 0 for v in total["per_relation"].values())
    revised = total["episodes"] - total["none"]
    assert sum(total["per_relation"].values()) >= revised
    for epoch in epochs:
        stats = epoch["revisions"]
        assert sum(stats[k] for k in buckets) == stats["episodes"]
    for key in ("episodes",) + buckets:
        assert sum(e["revisions"][key] for e in epochs) == total[key]


def test_criterion_10_determinism(cli_workspace):
    """Identically seeded pipelines emit byte-identical artifacts."""
    for name in (
        "data/train.jsonl",
        "data/test.jsonl",
        "data/twohop.jsonl",
        "policy.ckpt",
        "metrics.jsonl",
        "eval.jsonl",
    ):
        first = (cli_workspace / "a" / name).read_bytes()
        second = (cli_workspace / "b" / name).read_bytes()
        assert first == second, name
