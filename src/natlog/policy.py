"""Linear softmax policy over the five action relations.

Each hypothesis chunk is described by a small interpretable feature vector
derived from its aligned premise chunk and the lexicon: lexical match
flags, sub-phrase and hypernym direction flags, token overlap (all read
from ``knowledge.compare``), relative position, and a one-hot of the
monotonicity context.  Action scores are a linear map of the features;
probabilities are their softmax.

Feature extraction at step t looks only at the premise and hypothesis
chunks up to t, so distributions are unaffected by later hypothesis
content.  ``step_distributions`` computes every step's softmax at once.
Gradients of log-probabilities are analytic, so the REINFORCE objective
J = -sum_t R_t log p_t[a_t] of a program has the weight gradient

    dJ / dW = -sum_t R_t (onehot(a_t) - p_t) outer f_t

which training evaluates from the step probabilities its episode already
holds.  ``distribution``, ``sample`` and ``grad_log_prob`` are the
one-row references of the softmax, of ``sample_program`` and of one
step's gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from .executor import ChunkedPair
from .knowledge import Lexicon, compare, compare_pair
from .relations import ACTIONS, ActionRelation

__all__ = [
    "FEATURE_NAMES",
    "FeatureVector",
    "PolicyParams",
    "featurize",
    "featurize_pair",
    "feature_matrix",
    "distribution",
    "step_distributions",
    "sample",
    "sample_program",
    "argmax",
    "decode",
    "decode_each",
    "grad_log_prob",
    "save_checkpoint",
    "load_checkpoint",
]

_CONTEXT_NAMES = (
    "upward-default",
    "all-arg1",
    "all-arg2",
    "some-arg1",
    "some-arg2",
    "not",
)

FEATURE_NAMES: tuple[str, ...] = (
    "exact_match",
    "subphrase_fwd",
    "subphrase_rev",
    "synonym",
    "hypernym_fwd",
    "hypernym_rev",
    "antonym",
    "token_overlap",
    "position",
    *(f"context_{name}" for name in _CONTEXT_NAMES),
    "bias",
)

N_FEATURES = len(FEATURE_NAMES)
N_ACTIONS = len(ACTIONS)

_CONTEXT_COLUMN = {name: FEATURE_NAMES.index(f"context_{name}") for name in _CONTEXT_NAMES}
_N_FLAGS = FEATURE_NAMES.index("position")  # the lexical flags come first

CHECKPOINT_MAGIC = "natlog-policy v1"


@dataclass(frozen=True)
class FeatureVector:
    """Feature values aligned with FEATURE_NAMES."""

    values: np.ndarray

    def __getitem__(self, name: str) -> float:
        return float(self.values[FEATURE_NAMES.index(name)])


@dataclass
class PolicyParams:
    """Weight matrix, one row per action in canonical order."""

    weights: np.ndarray  # shape (N_ACTIONS, N_FEATURES)

    @classmethod
    def zeros(cls) -> "PolicyParams":
        return cls(weights=np.zeros((N_ACTIONS, N_FEATURES)))

    def copy(self) -> "PolicyParams":
        return PolicyParams(weights=self.weights.copy())


def _rows(pair: ChunkedPair, steps: range, flags: Sequence[tuple]) -> np.ndarray:
    """Feature rows for the given steps from their chunks' lexical flags,
    written into one array."""
    values = np.zeros((len(steps), N_FEATURES))
    values[:, :_N_FLAGS] = flags
    values[:, _N_FLAGS] = np.arange(steps.start, steps.stop) / pair.m
    for row, t in enumerate(steps):
        column = _CONTEXT_COLUMN.get(pair.hypothesis[t - 1].context.name)
        if column is not None:  # unknown context: all projectivity bits stay zero
            values[row, column] = 1.0
    values[:, -1] = 1.0
    return values


def featurize(
    pair: ChunkedPair, t: int, lexicon: Lexicon
) -> FeatureVector:
    """Features for hypothesis chunk t (1-based) against the premise."""
    if not 1 <= t <= pair.m:
        raise ValueError(f"step {t} out of range 1..{pair.m}")
    _, flags = compare(pair.hypothesis[t - 1], pair.premise, lexicon)
    return FeatureVector(values=_rows(pair, range(t, t + 1), [flags])[0])


def feature_matrix(pair: ChunkedPair, records: Sequence[tuple]) -> np.ndarray:
    """Feature rows, shape (m, N_FEATURES), from ``compare_pair`` records."""
    return _rows(
        pair, range(1, len(records) + 1), [flags for _, flags in records]
    )


def featurize_pair(pair: ChunkedPair, lexicon: Lexicon) -> np.ndarray:
    """Stacked feature matrix of shape (m, N_FEATURES)."""
    return feature_matrix(pair, compare_pair(pair, lexicon))


def distribution(params: PolicyParams, features) -> np.ndarray:
    """Softmax action distribution for one feature vector."""
    f = features.values if isinstance(features, FeatureVector) else np.asarray(features)
    scores = params.weights @ f
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite action scores")
    scores = scores - scores.max()
    exp = np.exp(scores)
    return exp / exp.sum()


def step_distributions(params: PolicyParams, features: np.ndarray) -> np.ndarray:
    """Distributions for every step; features has shape (m, N_FEATURES).

    Equal bit for bit to stacking ``distribution`` over the rows: the
    batched matrix-vector form scores each row as ``weights @ f`` does,
    where ``features @ weights.T`` would round differently.
    """
    features = np.asarray(features)
    scores = np.matmul(params.weights, features[:, :, None])[:, :, 0]
    if not np.isfinite(scores).all():
        raise ValueError("non-finite action scores")
    scores = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    return exp / exp.sum(axis=1, keepdims=True)


def sample(dist: np.ndarray, rng: np.random.Generator) -> ActionRelation:
    """Draw an action by inverse CDF in canonical action order."""
    u = rng.random()
    cum = 0.0
    for i, p in enumerate(dist):
        cum += p
        if u < cum:
            return ACTIONS[i]
    return ACTIONS[-1]  # guard against rounding in the final bin


def sample_program(
    probs: np.ndarray, rng: np.random.Generator
) -> tuple[ActionRelation, ...]:
    """One action per row of ``probs``, as ``sample`` would draw them in turn.

    ``rng.random(m)`` yields the same numbers as m scalar draws, and
    ``np.cumsum`` adds each row left to right as ``sample`` does, so each
    row takes the first action whose cumulative probability exceeds its
    draw, falling back to the last action.
    """
    hits = rng.random(len(probs))[:, None] < np.cumsum(probs, axis=1)
    hits[:, -1] = True  # guard against rounding in the final bin
    return tuple(ACTIONS[i] for i in hits.argmax(axis=1).tolist())


def argmax(dist: np.ndarray) -> ActionRelation:
    """Most probable action; ties resolve to the earliest canonical action."""
    return ACTIONS[int(np.argmax(dist))]


def decode(params: PolicyParams, features: np.ndarray) -> tuple[ActionRelation, ...]:
    """Greedy program: the most probable action at every step.

    Ties resolve to the earliest canonical action, as in ``argmax``.
    """
    best = np.argmax(step_distributions(params, features), axis=1)
    return tuple(ACTIONS[i] for i in best)


def decode_each(
    params: PolicyParams, feature_matrices: Sequence[np.ndarray]
) -> list[tuple[ActionRelation, ...]]:
    """Greedy program of each matrix, all rows decoded by one ``decode`` call.

    Rows are independent, so this equals decoding each matrix alone.
    """
    if not feature_matrices:
        return []
    actions = iter(decode(params, np.concatenate(feature_matrices)))
    return [tuple(islice(actions, len(f))) for f in feature_matrices]


def grad_log_prob(
    params: PolicyParams, features, action: ActionRelation
) -> np.ndarray:
    """Analytic gradient of log p[action] with respect to the weights."""
    f = features.values if isinstance(features, FeatureVector) else np.asarray(features)
    probs = distribution(params, f)
    onehot = np.zeros(N_ACTIONS)
    onehot[action.code] = 1.0
    return np.outer(onehot - probs, f)


def save_checkpoint(params: PolicyParams, path: str | Path) -> None:
    """Write weights as hex floats with a feature-name header.

    A non-finite weight raises ``ValueError`` naming its action row and
    feature, and nothing is written.
    """
    finite = np.isfinite(params.weights)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(
            f"{path}: non-finite weight {params.weights[row, col]} "
            f"(action {ACTIONS[row].value}, feature {FEATURE_NAMES[col]})"
        )
    lines = [
        CHECKPOINT_MAGIC,
        "features: " + " ".join(FEATURE_NAMES),
        "actions: " + " ".join(a.value for a in ACTIONS),
    ]
    for row in params.weights:
        lines.append(" ".join(float(x).hex() for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_checkpoint(path: str | Path) -> PolicyParams:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
    if len(lines) < 3:
        raise ValueError(f"{path}: truncated checkpoint header")
    if lines[1] != "features: " + " ".join(FEATURE_NAMES):
        raise ValueError(f"{path}: feature layout mismatch")
    if lines[2] != "actions: " + " ".join(a.value for a in ACTIONS):
        raise ValueError(f"{path}: action layout mismatch")
    try:
        weights = np.array(
            [[float.fromhex(x) for x in line.split()] for line in lines[3:] if line]
        )
    except ValueError as exc:
        raise ValueError(f"{path}: malformed weight rows: {exc}") from None
    if weights.shape != (N_ACTIONS, N_FEATURES):
        raise ValueError(f"{path}: weight shape {weights.shape} unexpected")
    if not np.isfinite(weights).all():
        row, col = np.argwhere(~np.isfinite(weights))[0]
        # the three header lines are the first non-empty ones
        lineno = [i for i, line in enumerate(lines, start=1) if line][3 + row]
        raise ValueError(f"{path}:{lineno}: non-finite weight {weights[row, col]}")
    return PolicyParams(weights=weights)
