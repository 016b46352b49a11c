"""Linear softmax policy over the five action relations.

Each hypothesis chunk is described by a small interpretable feature vector
derived from its aligned premise chunk and the lexicon: lexical match
flags, sub-phrase and hypernym direction flags, token overlap (all read
from the ``knowledge.compare_pair`` records), relative position, and a
one-hot of the monotonicity context.  Action scores are a linear map of the
features; probabilities are their softmax.

``compile_examples`` is the one path from examples to features: it chunks
every example with ``chunk_pairs``, aligns them all with one
``compare_pairs`` call, and builds the feature rows, so that training,
evaluation and the CLI read the same records.  A row is its key: the
lexical flags, the position t / m and the chunk's context.  A split
holds few distinct rows, so each call builds each one once and returns
them, in order of first sight; nothing is kept across calls.  Each
record's ``row_ids`` index them, so that one ``decode`` of the rows
decodes a whole split and the ids pick each example's program: the one
numbering that training, its greedy count and ``evaluate`` read.  The
noisy test split has 32 distinct rows among its 7776 steps.
``featurize_pair`` builds one pair's rows in step order.

Feature extraction at step t looks only at the premise and hypothesis
chunks up to t, so distributions are unaffected by later hypothesis
content.  ``step_distributions`` computes every step's softmax at once.
Gradients of log-probabilities are analytic, so the REINFORCE objective
J = -sum_t R_t log p_t[a_t] of a program has the weight gradient

    dJ / dW = -sum_t R_t (onehot(a_t) - p_t) outer f_t

which training evaluates from the step probabilities its batch already
holds.  ``sample_codes`` samples every step of a batch at once: one
``cumsum`` over its probability rows, and each step takes the first
action whose cumulative probability exceeds the step's draw, so training
holds its actions as integer codes.  ``distribution``, ``sample`` and
``grad_log_prob`` are the one-row references of the softmax, of
``sample_codes`` and of one step's gradient.  ``argmax`` calls the
array's own ``argmax`` method, which ties to the first maximum as
``np.argmax`` does without its dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from ._text import read_lines, write_lines
from .chunker import ChunkRules
from .data import Example, chunk_examples
from .executor import ChunkedPair
from .knowledge import Lexicon, compare_pair, compare_pairs, keys_from_records
from .relations import ACTIONS, ActionRelation, NLILabel, Relation

__all__ = [
    "FEATURE_NAMES",
    "PolicyParams",
    "featurize_pair",
    "Compiled",
    "compile_examples",
    "distribution",
    "step_distributions",
    "sample",
    "sample_codes",
    "argmax",
    "decode",
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

# context name -> the last columns of a row: its projectivity one-hot and
# the bias; an unknown context sets no projectivity column
_ROW_TAILS = {
    name: (*(float(name == other) for other in _CONTEXT_NAMES), 1.0)
    for name in _CONTEXT_NAMES
}
_NO_CONTEXT_TAIL = (0.0,) * len(_CONTEXT_NAMES) + (1.0,)

CHECKPOINT_MAGIC = "natlog-policy v1"


@dataclass
class PolicyParams:
    """Weight matrix, one row per action in canonical order."""

    weights: np.ndarray  # shape (N_ACTIONS, N_FEATURES)

    @classmethod
    def zeros(cls) -> "PolicyParams":
        return cls(weights=np.zeros((N_ACTIONS, N_FEATURES)))

    def copy(self) -> "PolicyParams":
        return PolicyParams(weights=self.weights.copy())


def _row_keys(pair: ChunkedPair, records: Sequence[tuple]) -> list[tuple]:
    """The values of each of the pair's feature rows, from its
    ``compare_pair`` records: (lexical flags, position t / m for the
    1-based step t, context name).  Equal keys are equal rows."""
    m = pair.m
    return [
        (flags, t / m, chunk.context.name)
        for t, ((_, flags), chunk) in enumerate(zip(records, pair.hypothesis), 1)
    ]


def _rows(keys: Iterable[tuple]) -> np.ndarray:
    """One feature row per ``_row_keys`` key, in ``FEATURE_NAMES`` order,
    all written into one array."""
    values: list = []
    for flags, position, context in keys:
        values += flags
        values.append(position)
        values += _ROW_TAILS.get(context, _NO_CONTEXT_TAIL)
    return np.array(values, dtype=float).reshape(-1, N_FEATURES)


def featurize_pair(pair: ChunkedPair, lexicon: Lexicon) -> np.ndarray:
    """Stacked feature matrix of shape (m, N_FEATURES)."""
    return _rows(_row_keys(pair, compare_pair(pair, lexicon)))


@dataclass
class Compiled:
    """One example compiled for the policy; nothing here depends on weights.

    ``records`` are the pair's ``compare_pair`` records.  ``row_ids``
    index its feature rows among the distinct rows that ``compile_examples``
    returned with it: ``rows[list(row_ids)]`` is ``featurize_pair`` of the
    pair.  ``target`` is None when the example has neither a label nor a
    target state.
    """

    pair: ChunkedPair
    target: Optional[NLILabel | Relation]
    records: tuple[tuple, ...]
    row_ids: tuple[int, ...]

    @cached_property
    def proposals(self) -> tuple[tuple[int, int], ...]:
        """Knowledge proposal keys (t, a), from the records on first use."""
        return keys_from_records(self.records)


def compile_examples(
    examples: Sequence[Example], rules: ChunkRules, lexicon: Lexicon
) -> tuple[list[Compiled], np.ndarray]:
    """Chunk, align and featurize every example once.

    Returns one ``Compiled`` per example and the call's distinct feature
    rows, shape (distinct rows, N_FEATURES), in order of first sight: row r
    is the row with id r, and each record's ``row_ids`` index its steps'
    rows (module docstring).  A sentence that cannot be chunked raises a
    ValueError that names the example by 0-based index and premise.
    """
    return _compile(examples, chunk_examples(examples, rules), lexicon)


def _compile(
    examples: Sequence[Example], pairs: Sequence[ChunkedPair], lexicon: Lexicon
) -> tuple[list[Compiled], np.ndarray]:
    """``compile_examples`` of examples already chunked into ``pairs``."""
    all_records = compare_pairs(pairs, lexicon)
    ids: dict = {}  # a key holds all the values of its row
    compiled = []
    for example, pair, records in zip(examples, pairs, all_records):
        row_ids = tuple(
            [ids.setdefault(key, len(ids)) for key in _row_keys(pair, records)]
        )
        target = example.target_state or example.label
        compiled.append(Compiled(pair, target, records, row_ids))
    return compiled, _rows(ids)


def distribution(params: PolicyParams, features) -> np.ndarray:
    """Softmax action distribution for one feature vector."""
    scores = params.weights @ np.asarray(features)
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


def sample_codes(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """One action code per row of ``probs``, as ``sample`` draws the rows in
    turn, all rows at once.

    ``probs`` is an (N, n_actions) array of distributions and ``draws`` its
    N draws in [0, 1), one per row.  ``cumsum`` adds each row left to
    right, as ``sample``'s running sum does, and each row takes the first
    action whose cumulative probability exceeds its draw, or the last
    action when none does: the guard against rounding in the final bin.
    Returns the (N,) action codes.
    """
    if draws.shape != probs.shape[:1]:
        raise ValueError(
            f"{len(probs)} steps need {len(probs)} draws, got shape {draws.shape}"
        )
    exceeds = draws[:, None] < probs.cumsum(axis=1)
    exceeds[:, -1] = True  # the last action when no sum exceeds the draw
    return exceeds.argmax(axis=1)


def argmax(dist: np.ndarray) -> ActionRelation:
    """Most probable action; ties resolve to the earliest canonical action."""
    if not isinstance(dist, np.ndarray):
        dist = np.asarray(dist)
    return ACTIONS[dist.argmax()]


def decode(params: PolicyParams, features: np.ndarray) -> tuple[ActionRelation, ...]:
    """Greedy program: the most probable action at every step.

    Ties resolve to the earliest canonical action, as in ``argmax``.
    """
    best = np.argmax(step_distributions(params, features), axis=1)
    return tuple(ACTIONS[i] for i in best)


def grad_log_prob(
    params: PolicyParams, features, action: ActionRelation
) -> np.ndarray:
    """Analytic gradient of log p[action] with respect to the weights."""
    f = np.asarray(features)
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
    write_lines(path, lines)


def load_checkpoint(path: str | Path) -> PolicyParams:
    """Read a ``save_checkpoint`` file.

    A malformed file raises ``ValueError`` naming the path and line: the
    header line that is wrong, the weight row that is (a token that is not
    a hex float or overflows one, the wrong number of weights, a non-finite
    weight, a row past the last action), or the line past the end when a
    header line or weight row is missing.
    """
    lines = read_lines(path)
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}:1: not a {CHECKPOINT_MAGIC} checkpoint")
    if len(lines) < 3:
        raise ValueError(f"{path}:{len(lines) + 1}: truncated checkpoint header")
    if lines[1] != "features: " + " ".join(FEATURE_NAMES):
        raise ValueError(f"{path}:2: feature layout mismatch")
    if lines[2] != "actions: " + " ".join(a.value for a in ACTIONS):
        raise ValueError(f"{path}:3: action layout mismatch")
    rows = []
    for lineno, line in enumerate(lines[3:], start=4):
        if not line:
            continue
        if len(rows) == N_ACTIONS:
            raise ValueError(f"{path}:{lineno}: more than {N_ACTIONS} weight rows")
        try:
            row = [float.fromhex(x) for x in line.split()]
        except (ValueError, OverflowError) as exc:  # overflow: 0x1p+99999
            raise ValueError(f"{path}:{lineno}: malformed weight row: {exc}") from None
        if len(row) != N_FEATURES:
            raise ValueError(
                f"{path}:{lineno}: {len(row)} weights, expected {N_FEATURES}"
            )
        bad = [x for x in row if not math.isfinite(x)]
        if bad:
            raise ValueError(f"{path}:{lineno}: non-finite weight {bad[0]}")
        rows.append(row)
    if len(rows) != N_ACTIONS:
        raise ValueError(
            f"{path}:{len(lines) + 1}: {len(rows)} weight rows, expected {N_ACTIONS}"
        )
    return PolicyParams(weights=np.array(rows))
