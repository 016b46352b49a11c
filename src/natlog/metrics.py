"""Interpretability and accuracy metrics for executed inference traces.

Rationale quality is scored at the token level (intersection over union)
and at the phrase level (precision/recall/F1 with IOU >= 0.5 matching).
State accuracy compares intermediate execution states position by
position, micro-averaged over all steps.  Label accuracy is three-way or
binary, collapsing contradiction and neutral into non-entailment.

``evaluate`` scores a whole split from its distinct parts.  One
``decode`` of the distinct feature rows of ``compile_examples`` gives
every step's greedy action, and an example's program is its ``row_ids``
read through them.  An example's contribution is fixed by its *kind*:
its row ids (its program), its hypothesis context rows, chunk starts and
last end, its target, label, gold program and gold states (keyed by enum
``code``, since hashing an enum member runs in Python) and its gold
rationale tokens.  Each kind is scored once, from its first example, and
its counts are weighted by how often it occurs; the noisy test split has
64 kinds among 2592 examples.  The counts are integers, so every ratio
is the per-example one exactly, and the IOUs are laid out in example
order again before their mean, which adds them in that order.  Kinds are
scored in order of first occurrence, so a malformed example is named by
the earliest index.  A program's outcome
depends only on the hypothesis chunks' context rows, so each call reads
every predicted and gold program's states, label and rationales from one
``executor.ExecutionTable``, the library's one table of executions, which
runs ``execute`` once per distinct (context rows, program) key; nothing is
kept across calls.  The chunks of a pair are disjoint and non-empty, so
two rationale phrases have IOU 1 (the same chunk) or 0, and greedy
one-to-one matching at IOU >= 0.5 counts the steps that both rationales
share.  ``phrasal_prf`` is the general reference.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .chunker import ChunkRules
from .data import Example, example_error
from .executor import ExecutionTable
from .knowledge import Lexicon
from .policy import PolicyParams, compile_examples, decode
from .relations import NLILabel, Relation, accepting

__all__ = [
    "iou",
    "phrasal_prf",
    "state_accuracy",
    "label_accuracy",
    "EvalReport",
    "evaluate",
    "reports_to_csv",
]

MATCH_THRESHOLD = 0.5


def iou(pred: Iterable[int], gold: Iterable[int]) -> float:
    """Intersection over union of two token index sets; empty vs empty is 1."""
    pred, gold = set(pred), set(gold)
    if not pred and not gold:
        return 1.0
    return len(pred & gold) / len(pred | gold)


def _greedy_matches(
    preds: Sequence[set[int]], golds: Sequence[set[int]]
) -> int:
    """One-to-one phrase matches at IOU >= 0.5, greedy by descending IOU.

    Ties resolve toward the leftmost phrases (smallest starting token).
    """
    candidates = []
    for i, p in enumerate(preds):
        for j, g in enumerate(golds):
            score = iou(p, g)
            if score >= MATCH_THRESHOLD:
                start_p = min(p) if p else -1
                start_g = min(g) if g else -1
                candidates.append((-score, start_p, start_g, i, j))
    matched_p: set[int] = set()
    matched_g: set[int] = set()
    matches = 0
    for _, _, _, i, j in sorted(candidates):
        if i in matched_p or j in matched_g:
            continue
        matched_p.add(i)
        matched_g.add(j)
        matches += 1
    return matches


def _prf(matches: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    precision = matches / n_pred if n_pred else (1.0 if not n_gold else 0.0)
    recall = matches / n_gold if n_gold else (1.0 if not n_pred else 0.0)
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1


def phrasal_prf(
    pred_phrases: Sequence[Iterable[int]],
    gold_phrases: Sequence[Iterable[int]],
) -> tuple[float, float, float]:
    """Phrase-level precision, recall, and F1.

    A predicted phrase matches a gold phrase when their token IOU is at
    least 0.5; matching is one-to-one and greedy by descending IOU, with
    ties resolved toward the leftmost phrases.  An empty side scores 1.0
    against an empty side and 0.0 otherwise.
    """
    preds = [set(p) for p in pred_phrases]
    golds = [set(g) for g in gold_phrases]
    return _prf(_greedy_matches(preds, golds), len(preds), len(golds))


def state_accuracy(
    predicted: Sequence[Sequence[Relation]],
    gold: Sequence[Sequence[Relation]],
) -> float:
    """Micro-averaged per-step state agreement across samples."""
    if len(predicted) != len(gold):
        raise ValueError("predicted and gold sample counts differ")
    hits, total = 0, 0
    for p_states, g_states in zip(predicted, gold):
        if len(p_states) != len(g_states):
            raise ValueError("state sequence lengths differ within a sample")
        hits += sum(1 for p, g in zip(p_states, g_states) if p == g)
        total += len(g_states)
    if total == 0:
        raise ValueError("no states to score")
    return hits / total


def _code(member) -> Optional[int]:
    """An enum member's code, or None; keys read codes, because hashing an
    enum member runs in Python."""
    return None if member is None else member.code



def _collapse(label: NLILabel) -> str:
    return "entailment" if label == NLILabel.ENTAILMENT else "non-entailment"


def label_accuracy(
    predicted: Sequence[NLILabel],
    gold: Sequence[NLILabel],
    collapse_binary: bool = False,
) -> float:
    """Fraction of matching labels, optionally collapsed to two classes."""
    if len(predicted) != len(gold):
        raise ValueError("predicted and gold label counts differ")
    if not predicted:
        raise ValueError("no labels to score")
    if collapse_binary:
        return sum(
            1 for p, g in zip(predicted, gold) if _collapse(p) == _collapse(g)
        ) / len(gold)
    return sum(1 for p, g in zip(predicted, gold) if p == g) / len(gold)


@dataclass(frozen=True)
class EvalReport:
    """Aggregate evaluation of a policy over a labeled dataset."""

    examples: int
    accuracy: float
    accuracy_binary: Optional[float]
    state_accuracy: Optional[float]
    rationale_iou: Optional[float]
    rationale_precision: Optional[float]
    rationale_recall: Optional[float]
    rationale_f1: Optional[float]

    def to_record(self) -> dict:
        return asdict(self)


_CSV_FIELDS = ("dataset", *(f.name for f in fields(EvalReport)))


def reports_to_csv(reports: Mapping[str, EvalReport]) -> str:
    """Render named per-dataset reports as CSV, one row per dataset."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for name, report in reports.items():
        row = {"dataset": name}
        row.update(
            (k, "" if v is None else repr(float(v)) if k != "examples" else v)
            for k, v in report.to_record().items()
        )
        writer.writerow(row)
    return out.getvalue()


def evaluate(
    examples: Sequence[Example],
    params: PolicyParams,
    rules: ChunkRules,
    lexicon: Lexicon,
) -> EvalReport:
    """Greedy-decode every example and aggregate all metrics.

    The examples are compiled once by ``compile_examples``, one ``decode``
    call over the distinct feature rows gives every step's action, and
    each kind of example is scored once and counted as often as it occurs
    (module docstring).
    State and rationale metrics cover the examples carrying the relevant
    gold annotations; they are None when no example has them.  Phrase
    P/R/F1 is micro-averaged over phrases, IOU macro-averaged over
    samples.  A malformed example (a sentence that cannot be chunked, a
    gold program or state sequence whose length is not m, a gold rationale
    token that indexes no hypothesis token, no target) raises a ValueError
    that names it by 0-based index and premise.
    """
    if not examples:
        raise ValueError("cannot evaluate an empty dataset")
    compiled, rows = compile_examples(examples, rules, lexicon)
    kinds: dict = {}  # everything an example's score reads -> its kind
    firsts: list[int] = []  # each kind's first example
    example_kinds: list[int] = []
    for index, (example, item) in enumerate(zip(examples, compiled)):
        hypothesis = item.pair.hypothesis
        gold_program, gold_states = example.gold_program, example.gold_states
        gold_tokens = example.gold_rationale_tokens
        key = (
            item.row_ids,
            tuple([chunk.context.action_codes for chunk in hypothesis]),
            tuple([chunk.start for chunk in hypothesis]),
            hypothesis[-1].end,
            _code(example.target_state),
            _code(example.label),
            None if gold_program is None else tuple([a.code for a in gold_program]),
            None if gold_states is None else tuple([s.code for s in gold_states]),
            None if gold_tokens is None else tuple(gold_tokens),
        )
        kind = kinds.setdefault(key, len(firsts))
        if kind == len(firsts):
            firsts.append(index)
        example_kinds.append(kind)
    counts = np.bincount(example_kinds).tolist()

    hits = labeled = label_hits = state_hits = state_total = 0
    match_count = pred_phrase_count = gold_phrase_count = 0
    scored_phrases = False
    kind_ious: list[Optional[float]] = []
    actions = decode(params, rows)
    table = ExecutionTable()
    index = 0
    try:
        for index, count in zip(firsts, counts):
            example, item = examples[index], compiled[index]
            pair = item.pair
            hypothesis = pair.hypothesis
            executions = table.executions(pair)
            _, states, label, rationales = executions.parts(
                pair, tuple([actions[r] for r in item.row_ids])
            )
            if accepting(example.target)[states[-1].code]:
                hits += count
            if example.label is not None:
                labeled += count
                if _collapse(label) == _collapse(example.label):
                    label_hits += count
            if example.gold_states is not None:
                if len(example.gold_states) != pair.m:
                    raise ValueError(
                        f"gold states length {len(example.gold_states)} "
                        f"!= hypothesis chunks {pair.m}"
                    )
                state_hits += count * sum(
                    p == g for p, g in zip(states[1:], example.gold_states)
                )
                state_total += count * pair.m
            kind_iou = None
            if example.gold_rationale_tokens is not None:
                n_tokens = hypothesis[-1].end  # the chunks cover every token
                for i in example.gold_rationale_tokens:
                    if not 0 <= i < n_tokens:
                        raise ValueError(
                            f"gold rationale token {i} is not a hypothesis "
                            f"token index in 0..{n_tokens - 1}"
                        )
                pred_tokens = [
                    i for t in rationales for i in hypothesis[t - 1].token_indices
                ]
                kind_iou = iou(pred_tokens, example.gold_rationale_tokens)
                if example.gold_program is not None:
                    scored_phrases = True
                    gold = executions.parts(pair, example.gold_program)[3]
                    # phrases match exactly when they are the same chunk
                    # (module docstring)
                    match_count += count * len(set(rationales).intersection(gold))
                    pred_phrase_count += count * len(rationales)
                    gold_phrase_count += count * len(gold)
            kind_ious.append(kind_iou)
    except ValueError as exc:
        raise example_error(index, examples[index], exc) from None

    # one IOU per example, in example order, so the mean adds them as the
    # per-example loop does
    ious = [kind_ious[kind] for kind in example_kinds]
    ious = [value for value in ious if value is not None]
    precision = recall = f1 = None
    if scored_phrases:
        precision, recall, f1 = _prf(
            match_count, pred_phrase_count, gold_phrase_count
        )
    return EvalReport(
        examples=len(examples),
        accuracy=hits / len(examples),
        accuracy_binary=label_hits / labeled if labeled else None,
        state_accuracy=state_hits / state_total if state_total else None,
        rationale_iou=float(np.mean(ious)) if ious else None,
        rationale_precision=precision,
        rationale_recall=recall,
        rationale_f1=f1,
    )
