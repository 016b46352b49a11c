"""Policy-gradient training with introspective program revision.

Sampled programs earn shaped per-step rewards: mu at every step when the
final state hits the target, and -gamma^(m-t) * mu otherwise, so that
later steps in a failed program carry more blame.  Two exceptions:

* if after step t the target can no longer be reached by any completion,
  the episode stops there with an immediate -mu and no further rewards,
* a correct program whose final state is plain equivalence earns nothing
  when ``prefer_forward_entailment`` is set, nudging the policy toward
  the more informative forward entailment state.

The REINFORCE objective is J = -sum_t log p_t[a_t] * R_t.  Introspective
revision then repairs the sampled program: lexical proposals are popped
from a priority queue and either accepted outright (correct execution and
an exploration coin-flip above epsilon) or subjected to a Metropolis test
on the policy's own probabilities; if the program is still wrong, a grid
search over single-step edits supplies at most one answer-driven fix.
The revised program is scored the same way and both objectives combine as
lambda * J + (1 - lambda) * J_revised.

Every hyperparameter (mu, gamma, M, epsilon, lambda and the rest) is a
field of ``TrainConfig``, which ``reward``, ``introspective_revision`` and
``train`` all read and which checks each value's range once, when built.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .chunker import ChunkRules, chunk_pair
from .data import Example
from .executor import (
    ChunkedPair,
    Program,
    Trace,
    execute,
    matches_target,
    reaches,
    single_edits,
)
from .knowledge import (
    Lexicon,
    ProposalQueue,
    compare_pair,
    keys_from_records,
    queue_from_keys,
)
from .policy import (
    PolicyParams,
    decode_each,
    feature_matrix,
    sample,
    step_distributions,
)
from .relations import ACTIONS, ActionRelation, NLILabel, Relation, reachable, reachable_states

__all__ = [
    "TrainConfig",
    "Episode",
    "RevisionEvent",
    "reward",
    "reinforce_objective",
    "fix",
    "grid_search",
    "introspective_revision",
    "hybrid_objective",
    "relation_augmentation",
    "mutual_entailment_filter",
    "train",
    "load_train_config",
]

Target = NLILabel | Relation

_ONEHOT = np.eye(len(ACTIONS))  # row a: onehot(a) in canonical action order


# field -> (test its value must pass, what the test asks for)
_BOUNDS = {
    "mu": (lambda v: 0 < v < math.inf, "positive and finite"),
    "gamma": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "seed": (lambda v: v >= 0, "non-negative"),
    "epochs": (lambda v: v >= 1, "at least 1"),
    "batch_size": (lambda v: v >= 1, "at least 1"),
    "learning_rate": (lambda v: 0 < v < math.inf, "positive and finite"),
    "max_revisions": (lambda v: v >= 0, "non-negative"),
    "epsilon": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "lam": (lambda v: 0 <= v <= 1, "in [0, 1]"),
}


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; out-of-range values raise ``ValueError``."""

    mu: float = 1.0  # reward magnitude
    gamma: float = 0.5  # per-step discount of the blame for a wrong program
    max_revisions: int = 3  # M: queue pops consumed per episode
    epsilon: float = 0.2  # exploration floor for outright acceptance
    lam: float = 0.5  # weight of the original objective in the hybrid
    epochs: int = 30
    learning_rate: float = 0.05
    batch_size: int = 8
    seed: int = 0
    prefer_forward_entailment: bool = True
    introspective_revision: bool = True
    knowledge: bool = True
    augmentation: bool = True

    def __post_init__(self):
        for name, (ok, wanted) in _BOUNDS.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {wanted}, got {value!r}")


# config-file key -> (TrainConfig field, type of its default); each field is
# its own key except these two, spelled as the paper's symbols
_FILE_ALIASES = {"max_revisions": "M", "lam": "lambda"}
_CONFIG_KEYS = {
    _FILE_ALIASES.get(f.name, f.name): (f.name, type(f.default))
    for f in fields(TrainConfig)
}


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes", "on"):
        return True
    if raw.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def load_train_config(path: str | Path) -> TrainConfig:
    """Read ``key = value`` lines; unknown or repeated keys and bad values are
    an error.

    Each value is checked on its own line, so an out-of-range value is
    reported as ``path:line: key: ...``.
    """
    overrides = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        attr, caster = _CONFIG_KEYS[key]
        if attr in overrides:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            overrides[attr] = _parse_bool(raw) if caster is bool else caster(raw)
            TrainConfig(**{attr: overrides[attr]})
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return TrainConfig(**overrides)


@dataclass(frozen=True)
class RevisionEvent:
    """One accepted edit: step t changed from old to new."""

    t: int
    old: ActionRelation
    new: ActionRelation
    source: str  # "knowledge" or "answer"


@dataclass
class Episode:
    """Everything recorded for one training sample."""

    pair: ChunkedPair
    target: Target
    features: np.ndarray  # (m, n_features)
    probs: np.ndarray  # (m, n_actions)
    program: Program
    trace: Trace
    rewards: tuple[float, ...]
    revised_program: Optional[Program] = None
    revised_trace: Optional[Trace] = None
    revised_rewards: Optional[tuple[float, ...]] = None
    revisions: tuple[RevisionEvent, ...] = ()


def _still_reachable(state: Relation, steps: int, target: Target) -> bool:
    if isinstance(target, NLILabel):
        return target in reachable(state, steps)
    return target in reachable_states(state, steps)


def reward(trace: Trace, target: Target, config: TrainConfig) -> tuple[float, ...]:
    """Shaped per-step rewards for an executed program."""
    m = trace.m
    if matches_target(trace, target):
        if (
            config.prefer_forward_entailment
            and trace.final_state == Relation.EQUIVALENCE
        ):
            return (0.0,) * m
        return (config.mu,) * m
    # wrong answer: stop at the first intermediate step from which the
    # target is unreachable, otherwise blame later steps more; the final
    # step is never a termination point, it is just wrong
    for t in range(1, m):
        if not _still_reachable(trace.states[t], m - t, target):
            out = [0.0] * m
            out[t - 1] = -config.mu
            return tuple(out)
    return tuple(
        -(config.gamma ** (m - t)) * config.mu for t in range(1, m + 1)
    )


def reinforce_objective(
    params: PolicyParams,
    features: np.ndarray,
    program: Sequence[ActionRelation],
    rewards: Sequence[float],
) -> tuple[float, np.ndarray]:
    """J = -sum_t log p_t[a_t] * R_t and its analytic weight gradient."""
    features = np.asarray(features)
    return _objective(
        step_distributions(params, features), features, program, rewards
    )


def _objective(
    probs: np.ndarray,
    features: np.ndarray,
    program: Sequence[ActionRelation],
    rewards: Sequence[float],
) -> tuple[float, np.ndarray]:
    """J and dJ/dW = -sum_t R_t (onehot(a_t) - p_t) outer f_t from step probs.

    Zero-reward steps are skipped: their log p_t[a_t] may be -inf, and
    -inf * 0 is NaN.  The rest are summed in step order.
    """
    objective = 0.0
    grad = np.zeros((probs.shape[1], features.shape[1]))
    for p, f, action, r in zip(probs, features, program, rewards):
        if r == 0.0:
            continue
        a = action.code
        objective -= float(np.log(p[a])) * r
        grad -= r * ((_ONEHOT[a] - p)[:, None] * f)
    return objective, grad


def fix(program: Sequence[ActionRelation], t: int, relation: ActionRelation) -> Program:
    """Copy of the program with step t (1-based) set to ``relation``."""
    program = tuple(program)
    if not 1 <= t <= len(program):
        raise ValueError(f"step {t} out of range 1..{len(program)}")
    return program[: t - 1] + (relation,) + program[t:]


def grid_search(
    pair: ChunkedPair,
    program: Sequence[ActionRelation],
    phi: ProposalQueue,
    target: Target,
    probs: np.ndarray,
) -> ProposalQueue:
    """All single-step edits whose program reaches the target, ranked.

    The edits come from ``executor.single_edits`` (prefix states and
    suffix tables, no execution).  If any candidate coincides with a
    pending lexical proposal, the result is narrowed to those shared
    candidates.
    """
    psi = queue_from_keys(single_edits(pair, program, target), probs)
    shared = psi.keys() & phi.keys()
    if shared:
        psi = psi.intersect(shared)
    return psi


def introspective_revision(
    pair: ChunkedPair,
    program: Sequence[ActionRelation],
    target: Target,
    phi: ProposalQueue,
    probs: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[Program, tuple[RevisionEvent, ...]]:
    """Revise a sampled program with lexical and answer-driven edits.

    Knowledge phase: pop up to ``max_revisions`` proposals.  Each is
    applied outright when the edited program reaches the target and an
    exploration draw clears epsilon; otherwise it survives a Metropolis
    test with ratio p_t[proposal] / p_t[sampled action].  Answer phase:
    if the program still misses the target, the best grid-search edit
    (if any) is applied.  Both checks fold codes (``executor.reaches``)
    instead of executing.
    """
    program = tuple(program)
    revised = program
    events: list[RevisionEvent] = []

    def apply(candidate: Program, t: int, source: str) -> None:
        nonlocal revised
        if candidate != revised:
            events.append(
                RevisionEvent(
                    t=t, old=revised[t - 1], new=candidate[t - 1], source=source
                )
            )
        revised = candidate

    popped = 0
    while popped < config.max_revisions and phi:
        proposal = phi.pop()
        popped += 1
        u = rng.random()
        candidate = fix(revised, proposal.t, proposal.relation)
        if reaches(pair, candidate, target) and u > config.epsilon:
            apply(candidate, proposal.t, "knowledge")
            continue
        u = rng.random()
        sampled_prob = float(
            probs[proposal.t - 1][program[proposal.t - 1].code]
        )
        ratio = proposal.prob / sampled_prob if sampled_prob > 0 else 1.0
        if u < min(1.0, ratio):
            apply(candidate, proposal.t, "knowledge")

    if not reaches(pair, revised, target):
        psi = grid_search(pair, revised, phi, target, probs)
        if psi:
            proposal = psi.pop()
            apply(fix(revised, proposal.t, proposal.relation), proposal.t, "answer")

    return revised, tuple(events)


def hybrid_objective(
    params: PolicyParams, episode: Episode, lam: float
) -> tuple[float, np.ndarray]:
    """Combine original and revised objectives: lam * J + (1 - lam) * J'.

    Both read ``episode.probs``, which are the distributions under
    ``params`` as long as the weights have not changed since the episode
    ran (training updates them only after this call).
    """
    j, grad = _objective(
        episode.probs, episode.features, episode.program, episode.rewards
    )
    if episode.revised_program is None:
        return j, grad
    j_rev, grad_rev = _objective(
        episode.probs,
        episode.features,
        episode.revised_program,
        episode.revised_rewards,
    )
    return lam * j + (1 - lam) * j_rev, lam * grad + (1 - lam) * grad_rev


def mutual_entailment_filter(
    rules: ChunkRules, lexicon: Lexicon
) -> Callable[[Example], bool]:
    """True when premise and hypothesis entail each other.

    Chunk both sides and compare chunkwise, equal up to synonyms; such
    pairs stay entailments after swapping and must not be retargeted to
    reverse entailment.
    """

    def is_mutual(example: Example) -> bool:
        pair = chunk_pair(example.premise, example.hypothesis, rules)
        if len(pair.premise) != len(pair.hypothesis):
            return False
        return all(
            lexicon.normalize(p.tokens) == lexicon.normalize(h.tokens)
            for p, h in zip(pair.premise, pair.hypothesis)
        )

    return is_mutual


def relation_augmentation(
    examples: Sequence[Example],
    rules: ChunkRules,
    lexicon: Lexicon,
    entailment_filter: Optional[Callable[[Example], bool]] = None,
) -> list[Example]:
    """Append swapped entailment pairs targeting reverse entailment.

    For every entailment example whose sides are not mutually entailing,
    a new sample swaps premise and hypothesis; the swapped pair is only
    correct when execution ends exactly in the reverse entailment state,
    which teaches the policy to separate it from plain entailment.
    """
    is_mutual = entailment_filter or mutual_entailment_filter(rules, lexicon)
    out = list(examples)
    for example in examples:
        if example.label != NLILabel.ENTAILMENT:
            continue
        if is_mutual(example):
            continue
        out.append(
            Example(
                premise=example.hypothesis,
                hypothesis=example.premise,
                label=None,
                split_tag=example.split_tag,
                target_state=Relation.REVERSE_ENTAILMENT,
            )
        )
    return out


_KINDS = {
    frozenset({"knowledge"}): "knowledge_only",
    frozenset({"answer"}): "answer_only",
    frozenset({"knowledge", "answer"}): "both",
}


@dataclass(frozen=True)
class RevisionStats:
    """Per-epoch revision bookkeeping, mirrored into training metrics."""

    episodes: int = 0
    knowledge_only: int = 0
    answer_only: int = 0
    both: int = 0
    none: int = 0
    per_relation: dict = field(default_factory=dict)  # relation name -> count

    @classmethod
    def tally(cls, revisions: Iterable[Sequence[RevisionEvent]]) -> "RevisionStats":
        """Classify each episode's revisions by source; count new relations."""
        kinds: Counter = Counter()
        per_relation: Counter = Counter()
        for events in revisions:
            kinds[_KINDS.get(frozenset(e.source for e in events), "none")] += 1
            per_relation.update(e.new.value for e in events)
        return cls(episodes=kinds.total(), per_relation=dict(per_relation), **kinds)

    def __add__(self, other: "RevisionStats") -> "RevisionStats":
        """Sum of two tallies, e.g. over the epochs of a run."""
        return RevisionStats(
            episodes=self.episodes + other.episodes,
            knowledge_only=self.knowledge_only + other.knowledge_only,
            answer_only=self.answer_only + other.answer_only,
            both=self.both + other.both,
            none=self.none + other.none,
            per_relation=dict(Counter(self.per_relation) + Counter(other.per_relation)),
        )

    def to_record(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_accuracy: float
    mean_reward: float
    objective: float
    revisions: RevisionStats

    def to_record(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    params: PolicyParams
    metrics: tuple[EpochMetrics, ...]


@dataclass
class _Compiled:
    """Per-example caches that do not depend on the policy."""

    pair: ChunkedPair
    target: Target
    features: np.ndarray
    proposals: tuple[tuple[int, ActionRelation], ...]


def _compile_examples(
    examples: Sequence[Example],
    rules: ChunkRules,
    lexicon: Lexicon,
    use_knowledge: bool,
) -> list[_Compiled]:
    compiled = []
    for example in examples:
        pair = chunk_pair(example.premise, example.hypothesis, rules)
        records = compare_pair(pair, lexicon)
        compiled.append(
            _Compiled(
                pair=pair,
                target=example.target,
                features=feature_matrix(pair, records),
                proposals=keys_from_records(records) if use_knowledge else (),
            )
        )
    return compiled


def run_episode(
    params: PolicyParams,
    compiled: _Compiled,
    config: TrainConfig,
    rng: np.random.Generator,
) -> Episode:
    """Sample, execute, reward, and (optionally) revise one program."""
    probs = step_distributions(params, compiled.features)
    program = tuple(sample(probs[t], rng) for t in range(compiled.pair.m))
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
        compiled.pair,
        program,
        compiled.target,
        phi,
        probs,
        config,
        rng,
    )
    episode.revised_program = revised
    episode.revised_trace = execute(compiled.pair, revised)
    episode.revised_rewards = reward(episode.revised_trace, compiled.target, config)
    episode.revisions = events
    return episode


def _greedy_accuracy(
    params: PolicyParams, compiled: Sequence[_Compiled]
) -> float:
    programs = decode_each(params, [item.features for item in compiled])
    hits = sum(
        matches_target(execute(item.pair, program), item.target)
        for item, program in zip(compiled, programs)
    )
    return hits / len(compiled) if compiled else 0.0


def train(
    examples: Sequence[Example],
    rules: ChunkRules,
    lexicon: Lexicon,
    config: TrainConfig,
    params: Optional[PolicyParams] = None,
) -> TrainResult:
    """Plain SGD over the hybrid objective with per-episode RNG streams.

    Episode randomness comes from ``default_rng([seed, ordinal])`` where
    the ordinal counts episodes across the whole run, so results are
    byte-identical for identical seeds regardless of wall clock.
    """
    if not examples:
        raise ValueError("cannot train on an empty dataset")
    if config.augmentation:
        examples = relation_augmentation(examples, rules, lexicon)
    compiled = _compile_examples(examples, rules, lexicon, config.knowledge)
    params = params.copy() if params is not None else PolicyParams.zeros()

    metrics: list[EpochMetrics] = []
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
            episode = run_episode(params, compiled[idx], config, episode_rng)

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

        metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_accuracy=_greedy_accuracy(params, compiled),
                mean_reward=reward_total / max(reward_steps, 1),
                objective=objective_total / len(compiled),
                revisions=RevisionStats.tally(revisions),
            )
        )
    return TrainResult(params=params, metrics=tuple(metrics))
