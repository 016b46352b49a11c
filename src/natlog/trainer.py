"""Policy-gradient training with introspective program revision.

Sampled programs earn shaped per-step rewards: mu at every step when the
final state hits the target, and -gamma^(m-t) * mu otherwise, so that
later steps in a failed program carry more blame.  Two exceptions:

* if after step t the target can no longer be reached by any completion,
  the episode stops there with an immediate -mu and no further rewards,
* a correct program whose final state is plain equivalence earns nothing
  when ``prefer_forward_entailment`` is set, nudging the policy toward
  the more informative forward entailment state.

The early stop reads ``executor.suffix_counts`` over upward rows: a
completion may pick any of the five bare action images at each remaining
step, whatever that step's context.  This is a known defect.  It misses
states that only a later step's projection reaches (cover under "not"),
so with contexts (upward, not) and target entailment the program
(NEG_ALT, EQUIVALENCE) is stopped at step 1, although (NEG_ALT, NEG_ALT)
reaches the target.  Counting over the pair's own context rows mends it,
but changes rewards and so checkpoint bytes.

The REINFORCE objective is J = -sum_t log p_t[a_t] * R_t.  Introspective
revision then repairs the sampled program: lexical proposals are popped
from the end of a list ranked by the policy's probabilities and either
accepted outright (correct execution and an exploration coin-flip above
epsilon) or subjected to a Metropolis test on the policy's own
probabilities; if the program is still wrong, a grid search over
single-step edits supplies at most one answer-driven fix.
The revised program is scored the same way and both objectives combine as
lambda * J + (1 - lambda) * J_revised.

Only the episodes that revision can change are revised.  Take an episode
whose every proposal key (t, a) has a equal to the action code sampled at
step t, and whose sampled program reaches the target.  Every pop is then an
outright accept of the unchanged action, whose key is in the reaching edit
set because the unchanged action counts as an edit, or a Metropolis test
with ratio 1; either way ``apply`` changes nothing.  Grid search does not
fire, since step 1's own action is in the reaching set.  So revision
returns the sampled codes and no events whatever the probabilities and
draws, and as each episode owns its row of uniforms, skipping it shifts no
other episode's draws.  ``run_episode`` therefore walks the proposal keys
against the sampled action codes, stopping at the first that differs; when
none does and the program reaches the target, it returns the episode
unchanged with no queue built and no draw read.  Without knowledge nothing
is proposed, so only the episodes that miss are revised.

Revision works on the tuple of a program's action codes, which keys
every outcome, and on (step, action code) keys (``knowledge`` module
docstring) from ``Compiled.proposals`` and ``executor.single_edits``: a
queue is ``knowledge.queue_from_keys``'s ranked list, popped from its
end, and a program's edits are a set of keys.  Actions are built as
enums only for a ``RevisionEvent`` and for ``execute``.  The keys depend
only on the records' lexical flags, so each ``train`` call derives them
once per distinct tuple of flags (``policy._share_proposals``), and its
examples share those tuples: the augmented default compositional
training set has 9 such tuples among its 2816 examples.

Every hyperparameter (mu, gamma, M, epsilon, lambda and the rest) is a
field of ``TrainConfig``, which ``reward``, ``introspective_revision`` and
``train`` all read and which checks each value's type and range once, when
built.

``train`` runs batch by batch, and a batch's actions are integer codes
from the sampler to the gradient.  Once per epoch it gathers, in the
shuffled episode order, each step's feature row (the distinct row of its
id, from ``compile_examples``) and its draw (the first m of its episode's
uniforms), so that each batch's steps are one contiguous slice of each.
The probabilities depend only on the weights and a feature row, and the
weights change once per batch, so each batch makes one
``step_distributions`` call over its slice, and one
``sample_codes`` call draws every step's action code from it.
``run_episode``, the one per-episode call, takes the episode's slice of
those codes as Python ints and looks its rewards up by (class, tuple of
the codes): without revision that lookup is the whole episode, with no
per-episode array or record.  With revision, an episode that revises
reads its probabilities as Python floats, from one ``tolist()`` per
batch, and returns the revised action codes only when its program
changed.  The batch is then scored in one ``batch_objective`` pass
over the same stacked rows and sampled codes: ``_score`` forms every
step's term of every program in array operations and sums each program's
terms in step order from +0.0, as the per-step definition does;
``hybrid_objective`` and ``reinforce_objective`` are the same kernel on a
batch of one.  When revision leaves a program unchanged, the episode's
revised rewards are its own, not a second lookup, and its J' is its J.
Only the changed revisions are scored again: their rows are gathered
once and appended to the batch's rows with one ``np.concatenate``, and
their codes to its codes.  A batch in which no revision changed its
program, about two in five of a comp-ir training, scores the batch once
and combines each J with itself.  The batch's gradients are summed in
one reduction that starts from +0.0, in episode order, as adding them
one by one to a zero array does.

The greedy accuracy after each epoch reads each example's kind: its class
and its ``row_ids``, the numbering of distinct feature rows that
``compile_examples`` made, interned once per ``train`` call.  Examples of
one kind have one greedy program and one outcome, so each epoch decodes
the distinct rows in one ``decode`` call and looks up each kind once; the
augmented default compositional training set has 52 kinds and 40
distinct rows.

Episode n of a run reads the uniforms of ``np.random.default_rng([seed,
n])``: the first m sample its program and the rest, one per coin flip,
drive revision, which reads the row as Python floats.
``_episode_uniforms`` draws every row of an epoch at once, bit for bit as
numpy does: ``_stream_words``
hashes every ordinal as numpy's ``SeedSequence`` does, and PCG64 (O'Neill
2014) is seeded and stepped on 128-bit states held as four 32-bit limbs in
uint64 arrays.  A row is as wide as the most any episode can read: m, plus
two per proposal that revision may pop.  Nothing else reads an episode's
stream, so an unread tail changes nothing.

Every program outcome that training reads comes from one ``OutcomeTable``,
which looks rewards, reachability and single edits up by (class, action
codes).  What a program does to a pair depends only on the contexts of the
pair's hypothesis chunks, its target and the program, and the augmented
default compositional training set has 12 such (contexts, target) classes
among its 2816 examples.  So a class's first pair stands for all of its
pairs, and no lookup takes a pair.  Executions depend only on the
contexts, so they come from the library's one ``executor.ExecutionTable``,
which classes with the same contexts share (augmentation's
reverse-entailment classes reuse the label classes' executions).  The
table keeps, per (class, program), what depends on the target or the
config: the ``reward`` and the single edits that reach the target, each
computed on first use; episodes, revision, grid search and the greedy
accuracy read them.  Rewards do not depend on the weights, so a table
stays right for a whole run; ``train`` builds a fresh one in every call,
so no state is shared between runs or configs.

``train`` chunks each distinct training sentence once, in one
``chunk_examples`` call: relation augmentation reads those chunked pairs,
and a swapped pair is its original with the sides exchanged.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from itertools import accumulate, chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ._text import config_lines
from .chunker import ChunkRules
from .data import Example, chunk_examples, require_targets
from .executor import (
    ChunkedPair,
    ExecutionTable,
    Executions,
    Program,
    Trace,
    matches_target,
    single_edits,
    suffix_counts,
)
from .knowledge import Lexicon, queue_from_keys
from .policy import (
    Compiled,
    PolicyParams,
    _compile,
    _share_proposals,
    decode,
    sample_codes,
    step_distributions,
)
from .relations import (
    ACTIONS,
    ActionRelation,
    NLILabel,
    Relation,
    UPWARD,
    accepting,
)

__all__ = [
    "TrainConfig",
    "RevisionEvent",
    "OutcomeTable",
    "reward",
    "reinforce_objective",
    "grid_search",
    "introspective_revision",
    "hybrid_objective",
    "batch_objective",
    "relation_augmentation",
    "train",
    "load_train_config",
]

Target = NLILabel | Relation

_ONEHOT = np.eye(len(ACTIONS))  # row a: onehot(a) in canonical action order
_EQUIVALENCE = Relation.EQUIVALENCE.code

# Seeds and episode ordinals stay below 2**32, where each is one entropy
# word of SeedSequence([seed, ordinal]), the only case _stream_words derives.
_ONE_WORD = 1 << 32


class _TooManyEpisodes(ValueError):
    """``train``'s error for a run of more than 2**32 episodes, which the
    config's epoch count causes as much as the dataset's size."""


# field -> (test its value must pass, what the test asks for)
_BOUNDS = {
    "mu": (lambda v: 0 < v < math.inf, "positive and finite"),
    "gamma": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "seed": (lambda v: 0 <= v < _ONE_WORD, "in [0, 2**32)"),
    "epochs": (lambda v: v >= 1, "at least 1"),
    "batch_size": (lambda v: v >= 1, "at least 1"),
    "learning_rate": (lambda v: 0 < v < math.inf, "positive and finite"),
    "max_revisions": (lambda v: v >= 0, "non-negative"),
    "epsilon": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "lam": (lambda v: 0 <= v <= 1, "in [0, 1]"),
}


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; a value out of its range or of the wrong
    type raises ``ValueError``.  Float fields take ints; only flags take bools."""

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
        for f in fields(self):
            value = getattr(self, f.name)
            is_int = isinstance(value, int) and not isinstance(value, bool)
            if f.name in _INTS and not is_int:
                raise ValueError(f"{f.name} must be an int, got {value!r}")
            if f.name in _FLOATS and not (is_int or isinstance(value, float)):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            if f.name in _FLAGS and not isinstance(value, bool):
                raise ValueError(f"{f.name} must be a bool, got {value!r}")
        for name, (ok, wanted) in _BOUNDS.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {wanted}, got {value!r}")


# the int fields, the float fields and the flags, by their defaults' types
_INTS = frozenset(f.name for f in fields(TrainConfig) if type(f.default) is int)
_FLOATS = frozenset(f.name for f in fields(TrainConfig) if type(f.default) is float)
_FLAGS = frozenset(f.name for f in fields(TrainConfig) if type(f.default) is bool)


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
    for lineno, line in config_lines(path):
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


def reward(trace: Trace, target: Target, config: TrainConfig) -> tuple[float, ...]:
    """Shaped per-step rewards for an executed program."""
    m = trace.m
    if matches_target(trace, target):
        if (
            config.prefer_forward_entailment
            and trace.final_state.code == _EQUIVALENCE
        ):
            return (0.0,) * m
        return (config.mu,) * m
    # wrong answer: stop at the first intermediate step from which the
    # target is unreachable, otherwise blame later steps more; the final
    # step is never a termination point, it is just wrong.  Reachability
    # is counted over upward rows, not the pair's own (module docstring).
    counts = suffix_counts((UPWARD.action_codes,) * (m - 1), accepting(target))
    states = trace.states
    for t in range(1, m):
        if not counts[m - t][states[t].code]:
            out = [0.0] * m
            out[t - 1] = -config.mu
            return tuple(out)
    return tuple(
        -(config.gamma ** (m - t)) * config.mu for t in range(1, m + 1)
    )


def _program(steps: Sequence[int]) -> Program:
    """The program whose action codes are ``steps``."""
    return tuple([ACTIONS[a] for a in steps])


class OutcomeTable:
    """Program outcomes, computed once per (contexts, target) class.

    A class is the tuple of the hypothesis chunks' context rows
    (``action_codes``) and the target, interned as an integer, and every
    lookup is by (class, the program's tuple of action codes).  Everything
    the table keeps depends only on the class: ``execute``'s parts, from
    one ``ExecutionTable`` whose ``Executions`` the classes with the same
    context rows share, and per (class, program) ``reward`` under the
    table's config and the single edits that reach the target, each
    computed the first time it is asked for (module docstring).  The class keeps the
    first pair it was interned from and builds a trace or edits from it
    only on a miss.  A table serves one config; ``train`` builds a fresh
    one in every call.
    """

    def __init__(self, config: TrainConfig) -> None:
        self.config = config
        self._table = ExecutionTable()
        self._classes: dict = {}  # (context rows, target) -> class
        self._pairs: list[ChunkedPair] = []  # class -> its first pair
        self._targets: list[Target] = []  # class -> target
        self._executions: list[Executions] = []  # class -> its rows' executions
        self._rewards: list[dict] = []  # class -> action codes -> reward
        self._edits: list[dict] = []  # class -> action codes -> edits

    def classify(self, pair: ChunkedPair, target: Target) -> int:
        """The class of ``pair`` and ``target``, interned on first sight."""
        key = (tuple(chunk.context.action_codes for chunk in pair.hypothesis), target)
        if key not in self._classes:
            self._classes[key] = len(self._targets)
            self._pairs.append(pair)
            self._targets.append(target)
            self._executions.append(self._table.executions(pair))
            self._rewards.append({})
            self._edits.append({})
        return self._classes[key]

    def rewards(self, cls: int, steps: tuple[int, ...]) -> tuple[float, ...]:
        """``reward`` of the program with action codes ``steps`` over the
        pairs of class ``cls``.  The program's actions and the trace
        ``reward`` reads are built once per (class, program), on the first
        lookup."""
        known = self._rewards[cls]
        rewards = known.get(steps)
        if rewards is None:
            pair, program = self._pairs[cls], _program(steps)
            parts = self._executions[cls].parts(pair, program)
            rewards = known[steps] = reward(
                Trace(pair, program, *parts), self._targets[cls], self.config
            )
        return rewards

    def reaches(self, cls: int, steps: tuple[int, ...]) -> bool:
        """Whether the program with action codes ``steps`` reaches the
        class's target; its actions are built only when the class's
        executions do not hold it yet."""
        executions = self._executions[cls]
        parts = executions.get(steps) or executions.parts(
            self._pairs[cls], _program(steps)
        )
        return accepting(self._targets[cls])[parts[1][-1].code]

    def edits(self, cls: int, steps: tuple[int, ...]) -> frozenset[tuple[int, int]]:
        """The set of ``single_edits`` (t, a) of the program with action
        codes ``steps``, computed once per (class, program), on the first
        lookup."""
        known = self._edits[cls]
        edits = known.get(steps)
        if edits is None:
            edits = known[steps] = frozenset(
                single_edits(self._pairs[cls], steps, self._targets[cls])
            )
        return edits


def reinforce_objective(
    params: PolicyParams,
    features: np.ndarray,
    program: Sequence[ActionRelation],
    rewards: Sequence[float],
) -> tuple[float, np.ndarray]:
    """J = -sum_t log p_t[a_t] * R_t and its analytic weight gradient."""
    features = np.asarray(features, dtype=float)
    j, grad = _score(
        step_distributions(params, features),
        features,
        np.array([a.code for a in program], dtype=np.intp),
        np.array(rewards, dtype=float),
        [len(program)],
    )
    return float(j[0]), grad[0]


def _score(
    probs: np.ndarray,
    features: np.ndarray,
    codes: np.ndarray,
    rewards: np.ndarray,
    lengths: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """J and dJ/dW = -sum_t R_t (onehot(a_t) - p_t) outer f_t of P programs,
    every step at once.

    The programs' steps are stacked row after row, ``lengths`` steps each:
    ``probs`` (N, n_actions) and ``features`` (N, n_features) are the step
    rows, ``codes`` and ``rewards`` (N,) the actions taken and their
    rewards.  Zero-reward steps are masked before the log: their
    log p_t[a_t] may be -inf, and -inf * 0 is NaN.  The step terms are laid
    out as (P, m_max), a reshape when every length is m_max and padded with
    zeros otherwise, and subtracted in step order from +0.0; a zero term
    leaves the running sum as it is.  Returns J (P,) and the gradients
    (P, n_actions, n_features).
    """
    chosen = probs[np.arange(len(probs)), codes]
    log_terms = np.log(chosen, out=np.zeros(len(chosen)), where=rewards != 0.0)
    log_terms *= rewards
    # ``take`` gathers rows as indexing by an array does, with less
    # overhead on a batch's few rows
    step_grads = rewards[:, None, None] * (
        (_ONEHOT.take(codes, axis=0) - probs)[:, :, None] * features[:, None, :]
    )
    count, width = len(lengths), max(lengths)
    if min(lengths) == width:
        logs = log_terms.reshape(count, width)
        grads = step_grads.reshape((count, width) + step_grads.shape[1:])
    else:
        steps = np.arange(width) < np.array(lengths)[:, None]
        logs = np.zeros(steps.shape)
        logs[steps] = log_terms
        grads = np.zeros(steps.shape + step_grads.shape[1:])
        grads[steps] = step_grads
    objective = np.zeros(count)
    grad = np.zeros((count,) + step_grads.shape[1:])
    for t in range(width):
        objective -= logs[:, t]
        grad -= grads[:, t]
    return objective, grad


def grid_search(
    table: OutcomeTable,
    cls: int,
    steps: tuple[int, ...],
    phi: Sequence[tuple[int, int]],
    probs: Sequence[Sequence[float]],
) -> list[tuple[int, int]]:
    """All single-step edits (t, a) whose program reaches the target, ranked.

    The edits are the ``single_edits`` set, in ``table``, of the program
    with action codes ``steps`` over the pairs of class ``cls``.  If any
    edit is also a pending proposal key in ``phi``, the result is narrowed
    to those shared keys.  Returns the ``queue_from_keys`` list, best last,
    which depends only on the set of keys it ranks.
    """
    edits = table.edits(cls, steps)
    shared = [key for key in phi if key in edits]
    return queue_from_keys(shared or edits, probs)


def introspective_revision(
    table: OutcomeTable,
    cls: int,
    steps: tuple[int, ...],
    phi: list[tuple[int, int]],
    probs: Sequence[Sequence[float]],
    uniforms: Sequence[float],
) -> tuple[tuple[int, ...], tuple[RevisionEvent, ...]]:
    """Revise a sampled program with lexical and answer-driven edits.

    ``steps`` is the sampled program's action codes and ``phi`` the ranked
    (step, action code) proposal keys (``queue_from_keys``), popped from
    the end in place; a popped key whose step is not in 1..m raises
    ``ValueError``.  Knowledge phase: pop up to ``max_revisions`` proposals.
    Each is applied outright when the edited program reaches the target
    and an exploration draw clears epsilon; otherwise it survives a
    Metropolis test with ratio p_t[a] / p_t[sampled action] for the
    proposed code a.  Answer phase: if the program still misses the
    target, the best grid-search edit (if any) is applied.  Both checks
    read the edit set of the current revised program in ``table``, under
    class ``cls``: an edit (t, a) reaches the target iff it is in the set,
    and the program itself iff its unchanged first step is.  The config is
    the table's.  Returns the revised action codes and the accepted edits.

    Each coin flip takes the next of ``uniforms``, uniform draws in [0, 1):
    at most two per popped proposal, so at most
    2 * min(max_revisions, len(phi)) in all; a row that runs out first
    raises ``ValueError``.
    """
    config = table.config
    m = len(steps)
    draws = iter(uniforms)
    revised = steps
    reaching = table.edits(cls, revised)
    events: list[RevisionEvent] = []

    def apply(t: int, a: int, source: str) -> None:
        nonlocal revised, reaching
        old = revised[t - 1]
        if a != old:
            events.append(
                RevisionEvent(t=t, old=ACTIONS[old], new=ACTIONS[a], source=source)
            )
            revised = (*revised[: t - 1], a, *revised[t:])
            reaching = table.edits(cls, revised)

    popped = 0
    try:
        while popped < config.max_revisions and phi:
            t, a = key = phi.pop()
            popped += 1
            if not 1 <= t <= m:
                raise ValueError(f"proposal step {t} out of range 1..{m}")
            u = next(draws)
            if key in reaching and u > config.epsilon:
                apply(t, a, "knowledge")
                continue
            u = next(draws)
            row = probs[t - 1]
            sampled_prob = row[steps[t - 1]]
            ratio = row[a] / sampled_prob if sampled_prob > 0 else 1.0
            if u < min(1.0, ratio):
                apply(t, a, "knowledge")
    except StopIteration:  # only next(draws) raises it here
        raise ValueError(
            f"revision ran out of uniforms at proposal {popped}: "
            f"{len(uniforms)} given, and it reads up to two per proposal"
        ) from None

    if (1, revised[0]) not in reaching:
        psi = grid_search(table, cls, revised, phi, probs)
        if psi:
            apply(*psi.pop(), "answer")

    return revised, tuple(events)


def batch_objective(
    rewards: Sequence[Sequence[float]],
    lam: float,
    probs: np.ndarray,
    features: np.ndarray,
    codes: np.ndarray,
    revised: Optional[dict[int, tuple[Sequence[int], Sequence[float]]]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each episode's lam * J + (1 - lam) * J' and its weight gradient.

    The batch's episodes are stacked step after step, in episode order:
    ``probs`` and ``features`` are the steps' rows, ``codes`` the actions
    sampled there, and ``rewards`` holds each episode's per-step rewards,
    whose lengths are the episodes' lengths.  The probabilities are the
    distributions under the current weights as long as they have not
    changed since the episodes ran.

    J scores the sampled program and J' the revised one.  ``revised`` is
    None without revisions, and the result is J itself, unscaled.  With
    revisions it maps the index of each episode whose revision changed its
    program to the revised action codes and their rewards; every other
    episode's J' is its J and is not scored again.  Only the changed
    revisions' rows are gathered, in ``revised``'s order, and appended to
    the stacked rows with one ``np.concatenate`` each, and their codes to
    ``codes``, so every program is scored in one ``_score`` call.  An empty
    ``revised`` (no program changed) scores the batch alone and combines
    each J with itself, with no gather.  An empty batch, rows that do not
    match the rewards and a revision that does not match its episode raise
    ``ValueError``.  Returns values (E,) and gradients
    (E, n_actions, n_features).
    """
    if not rewards:
        raise ValueError("cannot score an empty batch of episodes")
    n = len(rewards)
    lengths = [len(r) for r in rewards]
    begins = list(accumulate(lengths, initial=0))
    if not len(codes) == len(probs) == len(features) == begins[-1]:
        raise ValueError(
            f"{n} episodes of {begins[-1]} steps, but {len(codes)} codes, "
            f"{len(probs)} probability rows and {len(features)} feature rows"
        )
    if revised:
        rewards, rows, extra = list(rewards), [], []
        for i, (steps, step_rewards) in revised.items():
            if not (0 <= i < n and len(steps) == lengths[i] == len(step_rewards)):
                raise ValueError(f"revision {i} does not match an episode of the batch")
            rows += range(begins[i], begins[i + 1])
            extra += steps
            rewards.append(step_rewards)
            lengths.append(lengths[i])
        probs = np.concatenate([probs, probs.take(rows, axis=0)])
        features = np.concatenate([features, features.take(rows, axis=0)])
        codes = np.concatenate([codes, np.array(extra, dtype=np.intp)])
    j, grad = _score(
        probs,
        features,
        codes,
        np.fromiter(chain.from_iterable(rewards), dtype=float, count=len(codes)),
        lengths,
    )
    if revised is None:
        return j, grad
    if not revised:  # every J' is its J
        return lam * j + (1 - lam) * j, lam * grad + (1 - lam) * grad
    at = np.arange(n)  # where each episode's J' sits in j
    at[list(revised)] = np.arange(n, len(j))
    return (
        lam * j[:n] + (1 - lam) * j[at],
        lam * grad[:n] + (1 - lam) * grad.take(at, axis=0),
    )


def hybrid_objective(
    probs: np.ndarray,
    features: np.ndarray,
    codes: Sequence[int],
    rewards: Sequence[float],
    lam: float,
    revised: Optional[tuple[Sequence[int], Sequence[float]]] = None,
) -> tuple[float, np.ndarray]:
    """``batch_objective`` of one episode: lam * J + (1 - lam) * J'.

    ``probs`` holds the distributions under the weights the episode ran
    with, ``revised`` the revised program's (action codes, rewards), or
    None without revision, when the result is J itself, unscaled.
    """
    values, grads = batch_objective(
        [rewards],
        lam,
        probs,
        features,
        np.array(codes, dtype=np.intp),
        None if revised is None else {0: revised},
    )
    return float(values[0]), grads[0]


def _mutual(pair: ChunkedPair, lexicon: Lexicon) -> bool:
    """Whether the pair's sides are equal chunk for chunk, up to synonyms."""
    if len(pair.premise) != len(pair.hypothesis):
        return False
    return all(
        lexicon.normalize(p.tokens) == lexicon.normalize(h.tokens)
        for p, h in zip(pair.premise, pair.hypothesis)
    )


def relation_augmentation(
    examples: Sequence[Example],
    pairs: Sequence[ChunkedPair],
    lexicon: Lexicon,
) -> tuple[list[Example], list[ChunkedPair]]:
    """Append swapped entailment pairs targeting reverse entailment.

    ``pairs`` are the examples' chunked pairs, as ``chunk_examples``
    returns them.  For every entailment example whose sides are not
    mutually entailing (equal chunk for chunk, up to synonyms: such pairs
    stay entailments after swapping), a new sample swaps premise and
    hypothesis, and its pair is the original's with the sides exchanged.
    The swapped pair is only correct when execution ends exactly in the
    reverse entailment state, which teaches the policy to separate it
    from plain entailment.  Returns the examples and their pairs, each
    original first; a ``pairs`` of another length raises ``ValueError``.
    """
    if len(pairs) != len(examples):
        raise ValueError(f"{len(examples)} examples but {len(pairs)} chunked pairs")
    out, out_pairs = list(examples), list(pairs)
    for example, pair in zip(examples, pairs):
        if example.label != NLILabel.ENTAILMENT or _mutual(pair, lexicon):
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
        out_pairs.append(ChunkedPair(pair.hypothesis, pair.premise))
    return out, out_pairs


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
        """Classify each episode's revisions by source; count new relations.

        An episode without events, as most are, counts as ``none`` at once.
        """
        kinds: Counter = Counter()
        per_relation: Counter = Counter()
        unrevised = 0
        for events in revisions:
            if not events:
                unrevised += 1
                continue
            kinds[_KINDS.get(frozenset(e.source for e in events), "none")] += 1
            per_relation.update(e.new.value for e in events)
        kinds["none"] += unrevised
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


def run_episode(
    table: OutcomeTable,
    cls: int,
    compiled: Compiled,
    steps: Sequence[int],
    rows: Sequence[Sequence[float]] = (),
    uniforms: Sequence[float] = (),
) -> tuple[tuple[float, ...], Optional[tuple], tuple[RevisionEvent, ...]]:
    """Reward and (optionally) revise one sampled program.

    ``steps`` are the action codes sampled at the steps of ``compiled``,
    which is of class ``cls`` in ``table``; the config is the table's.
    Returns the program's rewards, the table's tuple, the changed
    program's (action codes, rewards) or None, and the accepted edits.
    Without introspective revision the episode is one lookup by (class,
    ``tuple(steps)``).  With it, ``rows`` holds the policy's distribution
    at each step, as lists of Python floats, and ``uniforms`` the
    episode's draws in [0, 1), at least ``_episode_width([compiled], ...)``
    of them, of which revision reads those past the first m.  An episode
    that takes every proposal key (t, a) at its step t and reaches the
    target, one that revision cannot change (module docstring), is
    returned unchanged with no events, no queue built and neither ``rows``
    nor ``uniforms`` read.  Every other
    one ranks its proposal keys in one ``queue_from_keys`` call and
    revises the program, whose rewards are looked up only when it changed.
    """
    sampled = tuple(steps)
    rewards = table.rewards(cls, sampled)
    config = table.config
    if not config.introspective_revision:
        return rewards, None, ()
    proposals = compiled.proposals if config.knowledge else ()
    for t, a in proposals:
        if a != steps[t - 1]:
            break
    else:
        if table.reaches(cls, sampled):
            return rewards, None, ()
    phi = queue_from_keys(proposals, rows)
    revised, events = introspective_revision(
        table, cls, sampled, phi, rows, uniforms[compiled.pair.m :]
    )
    if revised == sampled:
        return rewards, None, events
    return rewards, (revised, table.rewards(cls, revised)), events


def _greedy_hits(
    table: OutcomeTable,
    classes: Sequence[int],
    compiled: Sequence[Compiled],
    rows: np.ndarray,
) -> Callable[[PolicyParams], int]:
    """A function of the weights that counts the examples whose greedy
    program reaches the target.

    ``compiled`` and ``rows`` are what ``compile_examples`` returned
    and ``classes`` the examples' classes in ``table``.  The examples are
    interned once, by kind: a class and the ``row_ids`` of its steps, so
    that the examples of one kind have one greedy program and one outcome.
    Each count decodes the distinct rows in one ``decode`` call and looks
    each kind up in ``table`` once.
    """
    kinds = Counter(zip(classes, [item.row_ids for item in compiled]))

    def hits(params: PolicyParams) -> int:
        best = [action.code for action in decode(params, rows)]
        return sum(
            count
            for (cls, ids), count in kinds.items()
            if table.reaches(cls, tuple([best[r] for r in ids]))
        )

    return hits


# numpy's SeedSequence hashing constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4


def _hash_chain(init: int, mult: int, count: int) -> tuple[tuple[int, int], ...]:
    """(h_k, h_k+1) for k < count, where h_0 = init, h_k+1 = h_k * mult mod 2^32."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return tuple(zip(chain, chain[1:]))


# pool mixing hashes 4 entropy words, then 12 pool words; the output 8 words
_HASH_A = _hash_chain(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_HASH_B = _hash_chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _stream_words(seed: int, ordinals: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, o]).generate_state(4, np.uint64)`` for each ordinal.

    The pool mixing and output hashing run on uint32 arrays, one lane per
    ordinal, where array arithmetic wraps mod 2^32 as numpy's C code does.
    Returns shape (len(ordinals), 4).  The seed and every ordinal must be
    below 2**32.
    """
    ordinals = np.asarray(ordinals, dtype=np.int64)
    words = (seed, ordinals.min(), ordinals.max())
    if not all(0 <= word < _ONE_WORD for word in words):
        raise ValueError("seed and episode ordinals must be in [0, 2**32)")
    hashes = iter(_HASH_A)

    def hashmix(value: np.ndarray) -> np.ndarray:
        h, h_next = next(hashes)
        value = (value ^ h) * h_next
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    entropy = np.zeros((_POOL_SIZE, ordinals.size), dtype=np.uint32)
    entropy[0] = seed
    entropy[1] = ordinals  # the rest pads the two words up to the pool size
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    out = []
    for i, (h, h_next) in enumerate(_HASH_B):
        value = (pool[i % _POOL_SIZE] ^ h) * h_next
        out.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # uint32 word pairs, low word first, make the uint64 words
    return np.stack([lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])], axis=1)


# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# 128-bit numbers are four 32-bit limbs, least significant first, held in
# uint64 so that a limb product and a column sum never wrap; every operand is
# np.uint64, since numpy 1.x promotes int64 mixed with uint64 to float64
_LIMB_BITS = np.uint64(32)
_LIMB_MASK = np.uint64(0xFFFFFFFF)
# XSL-RR rotates by the top 6 state bits (bits 26-31 of the top limb); a
# double keeps the top 53 of 64 output bits
_ROTATION_SHIFT = np.uint64(26)
_WORD_BITS, _WORD_MASK = np.uint64(64), np.uint64(63)
_DOUBLE_SHIFT = np.uint64(11)


def _limbs(value: int) -> list[np.uint64]:
    return [np.uint64(value >> (32 * k) & 0xFFFFFFFF) for k in range(4)]


_MULT_LIMBS = _limbs(_PCG_MULT)


def _mul_add(x: list, mult: list, add: list) -> list[np.ndarray]:
    """x * mult + add mod 2^128, limb by limb; ``x`` holds uint64 arrays.

    Each limb product is below 2^64; its low half goes to column i + j and
    its high half to the next, so a column sums at most seven halves, one
    addend limb and a carry: less than 2^36.
    """
    columns = list(add)
    for i in range(4):
        for j in range(4 - i):
            product = x[i] * mult[j]
            columns[i + j] = columns[i + j] + (product & _LIMB_MASK)
            if i + j < 3:
                columns[i + j + 1] = columns[i + j + 1] + (product >> _LIMB_BITS)
    out = [columns[0] & _LIMB_MASK]
    carry = columns[0] >> _LIMB_BITS
    for column in columns[1:]:
        column = column + carry
        out.append(column & _LIMB_MASK)
        carry = column >> _LIMB_BITS
    return out


def _episode_uniforms(seed: int, ordinals: np.ndarray, width: int) -> np.ndarray:
    """Row i is ``np.random.default_rng([seed, ordinals[i]]).random(width)``.

    PCG64 seeds itself from the four ``_stream_words`` w as initstate =
    w0:w1, inc = 2 * (w2:w3) + 1 and state = ((inc + initstate) * MULT +
    inc) mod 2^128.  Each draw then steps state = state * MULT + inc and
    outputs XSL-RR, rotr64(hi ^ lo, state >> 122), whose top 53 bits scaled
    by 2^-53 are the double, as numpy's ``pcg64.h`` and ``next_double`` do.
    All ordinals step together, one column per draw.  Returns shape
    (len(ordinals), width).
    """
    w0, w1, w2, w3 = _stream_words(seed, ordinals).T
    initstate = [w1 & _LIMB_MASK, w1 >> _LIMB_BITS, w0 & _LIMB_MASK, w0 >> _LIMB_BITS]
    initseq = [w3 & _LIMB_MASK, w3 >> _LIMB_BITS, w2 & _LIMB_MASK, w2 >> _LIMB_BITS]
    inc = _mul_add(initseq, _limbs(2), _limbs(1))
    state = _mul_add(_mul_add(initstate, _limbs(1), inc), _MULT_LIMBS, inc)
    uniforms = np.empty((len(w0), width))
    for column in range(width):
        state = _mul_add(state, _MULT_LIMBS, inc)
        s0, s1, s2, s3 = state
        folded = (s3 ^ s1) << _LIMB_BITS | (s2 ^ s0)
        rotation = s3 >> _ROTATION_SHIFT
        output = folded >> rotation | folded << (_WORD_BITS - rotation & _WORD_MASK)
        uniforms[:, column] = output >> _DOUBLE_SHIFT
    uniforms *= 2.0**-53
    return uniforms


def _episode_width(compiled: Sequence[Compiled], config: TrainConfig) -> int:
    """The most uniforms an episode of ``compiled`` reads: one per step, and
    two per proposal that revision may pop.  With knowledge-driven revision
    every example first takes its flags' shared proposals
    (``policy._share_proposals``); examples with equal row ids have equal m
    and proposals, so one of each distinct ``row_ids`` is measured."""
    if not (config.introspective_revision and config.knowledge):
        return max(item.pair.m for item in compiled)
    return max(
        item.pair.m + 2 * min(config.max_revisions, len(item.proposals))
        for item in _share_proposals(compiled)
    )


def train(
    examples: Sequence[Example],
    rules: ChunkRules,
    lexicon: Lexicon,
    config: TrainConfig,
    params: Optional[PolicyParams] = None,
) -> TrainResult:
    """Plain SGD over the hybrid objective, one weight update per batch.

    Each epoch shuffles the examples with ``default_rng([seed, epoch])``,
    gathers their steps in that order once, and walks them in slices of
    ``batch_size`` (module docstring).  A slice gets one
    ``step_distributions`` and one ``sample_codes`` call over its rows; its
    episodes run under those weights, one ``run_episode`` each on its own
    sampled action codes, its objective is scored in one
    ``batch_objective`` call, and the gradients' sum, seeded with +0.0,
    updates the weights once, at the end of the slice.  The objective,
    reward and revision tallies are summed episode by episode, in Python.
    After each epoch the greedy accuracy is counted by kind.  Episode n of
    the run (counted across epochs) reads its row of uniforms,
    ``default_rng([seed, n]).random(w)`` for the widest episode's w
    (``_episode_width``); each epoch's rows are drawn in one
    ``_episode_uniforms`` call.  So results are byte-identical for
    identical seeds regardless of wall clock.  Training starts from a copy
    of ``params``, or from zero weights.  A run of more than 2**32 episodes
    is rejected up front, and a malformed example (a sentence that cannot
    be chunked, no target) raises a ValueError that names it by 0-based
    index and premise.
    """
    if not examples:
        raise ValueError("cannot train on an empty dataset")
    pairs = chunk_examples(examples, rules)
    if config.augmentation:
        examples, pairs = relation_augmentation(examples, pairs, lexicon)
    if config.epochs * len(examples) > _ONE_WORD:
        raise _TooManyEpisodes(
            f"{config.epochs} epochs of {len(examples)} examples make more "
            "than 2**32 episodes"
        )
    compiled, rows = _compile(examples, pairs, lexicon)
    require_targets(examples)
    params = params.copy() if params is not None else PolicyParams.zeros()
    table = OutcomeTable(config)
    classes = [table.classify(item.pair, item.target) for item in compiled]
    width = _episode_width(compiled, config)

    ms = [item.pair.m for item in compiled]
    lengths = np.array(ms)
    starts = np.cumsum(lengths) - lengths  # each example's first step in ids
    ids = np.array([r for item in compiled for r in item.row_ids], dtype=np.intp)
    greedy_hits = _greedy_hits(table, classes, compiled, rows)

    metrics: list[EpochMetrics] = []
    n = len(compiled)
    for epoch in range(1, config.epochs + 1):
        order = np.arange(n)
        np.random.default_rng([config.seed, epoch]).shuffle(order)
        uniforms = _episode_uniforms(
            config.seed, np.arange((epoch - 1) * n, epoch * n), width
        )
        # the epoch's steps in episode order, gathered once: episode k's
        # steps are bounds[k] to bounds[k + 1], with its steps' rows, read
        # through their ids, and the first m of its uniforms as draws
        steps = lengths[order]
        ends = np.cumsum(steps)
        t = np.arange(ends[-1]) - np.repeat(ends - steps, steps)  # 0-based step
        step_rows = rows[ids[t + np.repeat(starts[order], steps)]]
        draws = uniforms[np.repeat(np.arange(n), steps), t]
        bounds = [0, *ends.tolist()]
        episodes = order.tolist()

        revisions: list = []
        reward_total = 0.0
        objective_total = 0.0

        for start in range(0, n, config.batch_size):
            stop = min(start + config.batch_size, n)
            begin, end = bounds[start], bounds[stop]
            batch_rows = step_rows[begin:end]
            probs = step_distributions(params, batch_rows)
            codes = sample_codes(probs, draws[begin:end])
            sampled = codes.tolist()
            batch_rewards = []
            # without revision, run_episode reads neither the probability
            # rows nor the uniforms, and a None ``revised`` leaves J unscaled
            revising = config.introspective_revision
            revised = {} if revising else None
            prob_rows = probs.tolist() if revising else ()
            batch_uniforms = uniforms[start:stop].tolist() if revising else repeat(())
            at = 0  # the episode's first step in the batch
            for k, (i, episode_uniforms) in enumerate(
                zip(episodes[start:stop], batch_uniforms)
            ):
                m = ms[i]
                rewards, revision, events = run_episode(
                    table, classes[i], compiled[i],
                    sampled[at : at + m], prob_rows[at : at + m], episode_uniforms,
                )
                at += m
                batch_rewards.append(rewards)
                reward_total += sum(rewards)
                revisions.append(events)
                if revision is not None:
                    revised[k] = revision

            values, grads = batch_objective(
                batch_rewards, config.lam, probs, batch_rows, codes, revised
            )
            params.weights -= config.learning_rate * np.add.reduce(
                grads, axis=0, initial=0.0
            )
            for value in values.tolist():
                objective_total += value

        metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_accuracy=greedy_hits(params) / n,
                mean_reward=reward_total / max(len(step_rows), 1),
                objective=objective_total / n,
                revisions=RevisionStats.tally(revisions),
            )
        )
    return TrainResult(params=params, metrics=tuple(metrics))
