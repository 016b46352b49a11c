"""Deterministic execution of relation programs over chunked sentence pairs.

A program assigns one action relation to each hypothesis chunk.  Execution
projects each action through the chunk's monotonicity context and folds the
projected relations left to right with the join operator:

    z_0 = equivalence
    z_t = join(z_{t-1}, project(context_t, action_t))

The final state z_m grouped into a three-way label is the verdict.  The
intermediate states make the inference auditable: the rationale of a trace
is the set of steps that both move the state and already exhibit the final
label.

Every step is a lookup in the integer-coded tables of ``relations``: a
chunk's context row ``action_codes`` gives the projected relation's code,
``JOIN`` the next state's code, ``GROUP`` its label's code.  ``execute``
builds the enum-valued ``Trace`` from those lookups.

A trace depends only on the hypothesis chunks' context rows and the
program, so the library keeps one table of executions: an
``ExecutionTable`` maps context rows to ``Executions``, which map a
program's tuple of action codes (so that a program of the wrong length
gets its own key and reaches ``execute``'s error) to ``execute``'s parts.
``datagen``, ``metrics`` and ``trainer`` build one table per call; nothing
is kept across calls.

``Chunk``, ``ChunkedPair`` and ``Trace`` are frozen dataclasses built in one
step: each has a hand-written ``__init__`` that stores its fields straight
into the instance ``__dict__``.  The ``__init__`` a frozen dataclass
generates sets every field through ``object.__setattr__``, which costs
about three times as much, and these records are built once per chunk,
per pair and per executed program.  Equality, hashing, ``repr``,
``dataclasses.replace`` and the ``FrozenInstanceError`` on assignment stay
the generated ones.

Every question of the form "which programs reach the target from here?"
is one backward count over ``JOIN``: ``suffix_counts(rows, accept)``.
``rows`` lists, per step, the projected relation code of each choice that
step allows, and entry k of the result gives, for each of the 7 start
states, how many sequences of choices over the last k rows end in a
state that ``accept`` holds.  Join is associative, but a step may allow
several choices, so the count is kept per start state rather than folded
into one relation.  It has three readers, which differ only in their rows:

* ``single_edits`` gives each step the one projected relation of the
  program's action there.  One forward fold gives the prefix states
  z_0 .. z_{m-1}, and an edit (t, a) reaches the target iff entry m - t
  holds at JOIN[z_{t-1}][projected(a)]: O(5m) lookups for every edit.
* ``natlog oracle`` gives each step all five projected actions of its
  context, so entry m at equivalence is the number of programs that reach
  the target, without enumerating them.
* ``trainer.reward`` gives every remaining step the five bare action
  images (upward rows) to decide whether a partial program can still
  reach the target.

``enumerate_programs`` executes all 5^m programs.  It deliberately runs
``execute`` on every one, without pruning, because it is the brute-force
reference that the tests and the benchmark check the faster searches
against and count calls on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .relations import (
    ACTIONS,
    GROUP,
    JOIN,
    LABELS,
    RELATIONS,
    ActionRelation,
    NLILabel,
    ProjectivityContext,
    Relation,
    UPWARD,
    accepting,
    join,
)

__all__ = [
    "Chunk",
    "ChunkedPair",
    "Program",
    "Trace",
    "execute",
    "extract_rationales",
    "matches_target",
    "Executions",
    "ExecutionTable",
    "suffix_counts",
    "single_edits",
    "enumerate_programs",
]

ENUMERATION_CAP = 8


@dataclass(frozen=True, init=False)
class Chunk:
    """A contiguous span of tokens with its monotonicity context."""

    tokens: tuple[str, ...]
    start: int  # token offset within the source sentence
    context: ProjectivityContext = UPWARD

    def __init__(
        self,
        tokens: tuple[str, ...],
        start: int,
        context: ProjectivityContext = UPWARD,
    ) -> None:
        fields = self.__dict__
        fields["tokens"] = tokens
        fields["start"] = start
        fields["context"] = context

    @property
    def end(self) -> int:
        return self.start + len(self.tokens)

    @property
    def token_indices(self) -> tuple[int, ...]:
        return tuple(range(self.start, self.end))

    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True, init=False)
class ChunkedPair:
    """A premise/hypothesis pair after chunking and projectivity marking."""

    premise: tuple[Chunk, ...]
    hypothesis: tuple[Chunk, ...]

    def __init__(
        self, premise: tuple[Chunk, ...], hypothesis: tuple[Chunk, ...]
    ) -> None:
        if not hypothesis:
            raise ValueError("hypothesis must contain at least one chunk")
        fields = self.__dict__
        fields["premise"] = premise
        fields["hypothesis"] = hypothesis

    @property
    def m(self) -> int:
        return len(self.hypothesis)


Program = tuple[ActionRelation, ...]


@dataclass(frozen=True, init=False)
class Trace:
    """Full record of one program execution.

    ``states`` holds z_0 .. z_m; step t (1-based) reads ``actions[t-1]``,
    ``projected[t-1]`` and lands in ``states[t]``.
    """

    pair: ChunkedPair
    actions: Program
    projected: tuple[Relation, ...]
    states: tuple[Relation, ...]
    label: NLILabel
    rationales: tuple[int, ...]  # 1-based hypothesis chunk indices

    def __init__(
        self,
        pair: ChunkedPair,
        actions: Program,
        projected: tuple[Relation, ...],
        states: tuple[Relation, ...],
        label: NLILabel,
        rationales: tuple[int, ...],
    ) -> None:
        fields = self.__dict__
        fields["pair"] = pair
        fields["actions"] = actions
        fields["projected"] = projected
        fields["states"] = states
        fields["label"] = label
        fields["rationales"] = rationales

    @property
    def m(self) -> int:
        return len(self.actions)

    @property
    def final_state(self) -> Relation:
        return self.states[-1]

    def rationale_token_indices(self) -> tuple[int, ...]:
        out = []
        for t in self.rationales:
            out.extend(self.pair.hypothesis[t - 1].token_indices)
        return tuple(out)


def _check_length(pair: ChunkedPair, program: Sequence) -> None:
    if len(program) != pair.m:
        raise ValueError(
            f"program length {len(program)} != hypothesis chunks {pair.m}"
        )


def execute(pair: ChunkedPair, program: Sequence[ActionRelation]) -> Trace:
    """Run ``program`` over ``pair`` and return the full trace."""
    program = tuple(program)
    hypothesis = pair.hypothesis
    if len(program) != len(hypothesis):
        _check_length(pair, program)
    state = RELATIONS[0]  # z_0, equivalence
    states = [state]
    projected = []
    for chunk, action in zip(hypothesis, program):
        r = RELATIONS[chunk.context.action_codes[action.code]]
        projected.append(r)
        state = join(state, r)
        states.append(state)
    code = GROUP[state.code]
    return Trace(
        pair,
        program,
        tuple(projected),
        tuple(states),
        LABELS[code],
        _rationales(states, code),
    )


def _rationales(states: Sequence[Relation], code: int) -> tuple[int, ...]:
    # steps t >= 1 with z_t != z_{t-1} whose state groups into label ``code``
    out = []
    prev = states[0]
    for t, state in enumerate(states):
        if state is not prev and GROUP[state.code] == code:
            out.append(t)
        prev = state
    return tuple(out)


def extract_rationales(trace: Trace) -> tuple[int, ...]:
    """Steps that change the state and already carry the final label.

    Returns 1-based hypothesis chunk indices t with
    group(z_t) == final label and z_t != z_{t-1}.
    """
    return _rationales(trace.states, trace.label.code)


def matches_target(trace: Trace, target: NLILabel | Relation) -> bool:
    """True if the trace reaches a label target or exact final state."""
    return accepting(target)[trace.final_state.code]


class Executions(dict):
    """A program's action codes -> ``execute``'s parts, for the pairs with
    one tuple of hypothesis context rows; each entry is made on first use."""

    def parts(self, pair: ChunkedPair, program: Program) -> tuple:
        """``execute(pair, program)``'s projected relations, states, label and
        rationales, for a pair with these executions' context rows."""
        key = tuple([action.code for action in program])
        parts = self.get(key)
        if parts is None:
            trace = execute(pair, program)
            parts = self[key] = (
                trace.projected, trace.states, trace.label, trace.rationales
            )
        return parts


class ExecutionTable(dict):
    """Hypothesis context rows -> their ``Executions``, for one call of a
    caller (module docstring)."""

    def executions(self, pair: ChunkedPair) -> Executions:
        """The executions of every pair with the context rows of ``pair``."""
        rows = tuple([chunk.context.action_codes for chunk in pair.hypothesis])
        executions = self.get(rows)
        if executions is None:
            executions = self[rows] = Executions()
        return executions


def suffix_counts(
    rows: Sequence[Sequence[int]], accept: Sequence[bool]
) -> list[tuple[int, ...]]:
    """Backward counts over ``JOIN`` (module docstring).

    ``rows[t - 1]`` holds the projected relation code of each choice that
    step t allows, and ``accept`` is an ``accepting`` row.  Entry k of the
    result maps each start state code to the number of choice sequences
    over the last k rows that end in an accepted state; entry 0 is
    ``accept`` itself.
    """
    counts = [accept]
    for row in reversed(rows):
        after = counts[-1]
        counts.append(
            tuple(sum([after[joined[p]] for p in row]) for joined in JOIN)
        )
    return counts


def single_edits(
    pair: ChunkedPair,
    codes: Sequence[int],
    target: NLILabel | Relation,
) -> list[tuple[int, int]]:
    """Every (t, a) such that setting step t of ``codes`` to a reaches ``target``.

    Steps ascend from 1 and action codes ascend within a step; the
    unchanged action counts as an edit.  Prefix states and the program's
    ``suffix_counts`` (module docstring) make this O(5m) lookups instead of
    5m executions.
    """
    hypothesis = pair.hypothesis
    m = len(hypothesis)
    if len(codes) != m:
        _check_length(pair, codes)
    rows = [chunk.context.action_codes for chunk in hypothesis]
    prefix = [0]  # z_0 .. z_{m-1}
    for row, a in zip(rows[:-1], codes):
        prefix.append(JOIN[prefix[-1]][row[a]])
    suffix = suffix_counts(
        [(row[a],) for row, a in zip(rows, codes)], accepting(target)
    )
    edits = []
    for t, (row, z) in enumerate(zip(rows, prefix), 1):
        joined, ok = JOIN[z], suffix[m - t]
        edits.extend((t, a) for a, p in enumerate(row) if ok[joined[p]])
    return edits


def enumerate_programs(
    pair: ChunkedPair, target: NLILabel | Relation
) -> Iterator[Program]:
    """Yield all programs reaching ``target``, in lexicographic action order.

    Exhaustive over the 5^m program space, so refuses to run past
    ``ENUMERATION_CAP`` hypothesis chunks.
    """
    if pair.m > ENUMERATION_CAP:
        raise ValueError(f"m={pair.m} exceeds enumeration cap {ENUMERATION_CAP}")
    ok = accepting(target)
    for program in itertools.product(ACTIONS, repeat=pair.m):
        if ok[execute(pair, program).final_state.code]:
            yield program
