"""Seven-relation algebra over set-theoretic semantic relations.

The engine reasons with seven basic relations between phrase denotations:

    ==========  ====================  =======================
    symbol      name                  set semantics
    ==========  ====================  =======================
    x ≡ y       equivalence           x = y
    x ⊏ y       forward entailment    x ⊂ y
    x ⊐ y       reverse entailment    x ⊃ y
    x ∧ y       negation              x ∩ y = ∅, x ∪ y = U
    x | y       alternation           x ∩ y = ∅, x ∪ y ≠ U
    x ⌣ y       cover                 x ∩ y ≠ ∅, x ∪ y = U
    x # y       independence          everything else
    ==========  ====================  =======================

Two operations drive inference.  ``project`` maps the relation that holds
between two phrases to the relation that holds between the sentences that
embed them, given the monotonicity context of the embedding position.
``join`` composes two relations: if ``x R1 y`` and ``y R2 z`` then
``x join(R1, R2) z`` (the weakest relation guaranteed by the pair).

Executable programs choose from a merged five-relation action space in
which negation and alternation collapse into a single contradiction-flavored
action and cover is dropped.  States, however, always live in the full
seven-relation algebra: cover and negation can still arise through
projection and join.

Final states map onto three inference labels via ``group``: equivalence and
forward entailment yield entailment, negation and alternation yield
contradiction, and the remaining relations yield neutral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Mapping

__all__ = [
    "Relation",
    "ActionRelation",
    "NLILabel",
    "ProjectivityContext",
    "RELATIONS",
    "ACTIONS",
    "ACTION_INDEX",
    "CONTEXTS",
    "UPWARD",
    "join",
    "project",
    "group",
    "reachable",
    "reachable_states",
]


class Relation(Enum):
    """One of the seven basic semantic relations."""

    EQUIVALENCE = "equivalence"
    FORWARD_ENTAILMENT = "forward_entailment"
    REVERSE_ENTAILMENT = "reverse_entailment"
    NEGATION = "negation"
    ALTERNATION = "alternation"
    COVER = "cover"
    INDEPENDENCE = "independence"

    @property
    def symbol(self) -> str:
        return _SYMBOLS[self]

    def __repr__(self) -> str:
        return f"<{self.symbol}>"


class NLILabel(Enum):
    """Three-way inference label."""

    ENTAILMENT = "entailment"
    CONTRADICTION = "contradiction"
    NEUTRAL = "neutral"


class ActionRelation(Enum):
    """Merged five-relation action space used by executable programs.

    Negation and alternation are merged into a single action ``NEG_ALT``;
    cover is not directly expressible.  ``to_relation`` concretizes
    ``NEG_ALT`` as alternation, the more common reading for contradiction
    between contingent phrases.
    """

    EQUIVALENCE = "equivalence"
    FORWARD_ENTAILMENT = "forward_entailment"
    REVERSE_ENTAILMENT = "reverse_entailment"
    NEG_ALT = "neg_alt"
    INDEPENDENCE = "independence"

    @property
    def symbol(self) -> str:
        return _ACTION_SYMBOLS[self]

    def __repr__(self) -> str:
        return f"<{self.symbol}>"

    def to_relation(self) -> Relation:
        return _ACTION_TO_RELATION[self]

    @classmethod
    def from_relation(cls, relation: Relation) -> "ActionRelation":
        try:
            return _RELATION_TO_ACTION[relation]
        except KeyError:
            raise ValueError(f"{relation} has no action-space counterpart")

    @classmethod
    def parse(cls, name: str) -> "ActionRelation":
        # accept the merged name or either of its seven-relation spellings
        if name in ("negation", "alternation"):
            return cls.NEG_ALT
        return cls(name)


# canonical ordering, also the tie-break order for proposal queues
RELATIONS: tuple[Relation, ...] = (
    Relation.EQUIVALENCE,
    Relation.FORWARD_ENTAILMENT,
    Relation.REVERSE_ENTAILMENT,
    Relation.NEGATION,
    Relation.ALTERNATION,
    Relation.COVER,
    Relation.INDEPENDENCE,
)

ACTIONS: tuple[ActionRelation, ...] = (
    ActionRelation.EQUIVALENCE,
    ActionRelation.FORWARD_ENTAILMENT,
    ActionRelation.REVERSE_ENTAILMENT,
    ActionRelation.NEG_ALT,
    ActionRelation.INDEPENDENCE,
)

# position of each action in the canonical order, e.g. a column of (m, 5) probs
ACTION_INDEX = {a: i for i, a in enumerate(ACTIONS)}

_SYMBOLS = {
    Relation.EQUIVALENCE: "≡",
    Relation.FORWARD_ENTAILMENT: "⊏",
    Relation.REVERSE_ENTAILMENT: "⊐",
    Relation.NEGATION: "^",
    Relation.ALTERNATION: "|",
    Relation.COVER: "⌣",
    Relation.INDEPENDENCE: "#",
}

_ACTION_SYMBOLS = {
    ActionRelation.EQUIVALENCE: "≡",
    ActionRelation.FORWARD_ENTAILMENT: "⊏",
    ActionRelation.REVERSE_ENTAILMENT: "⊐",
    ActionRelation.NEG_ALT: "^|",
    ActionRelation.INDEPENDENCE: "#",
}

_ACTION_TO_RELATION = {
    ActionRelation.EQUIVALENCE: Relation.EQUIVALENCE,
    ActionRelation.FORWARD_ENTAILMENT: Relation.FORWARD_ENTAILMENT,
    ActionRelation.REVERSE_ENTAILMENT: Relation.REVERSE_ENTAILMENT,
    ActionRelation.NEG_ALT: Relation.ALTERNATION,
    ActionRelation.INDEPENDENCE: Relation.INDEPENDENCE,
}

_RELATION_TO_ACTION = {
    Relation.EQUIVALENCE: ActionRelation.EQUIVALENCE,
    Relation.FORWARD_ENTAILMENT: ActionRelation.FORWARD_ENTAILMENT,
    Relation.REVERSE_ENTAILMENT: ActionRelation.REVERSE_ENTAILMENT,
    Relation.NEGATION: ActionRelation.NEG_ALT,
    Relation.ALTERNATION: ActionRelation.NEG_ALT,
    Relation.INDEPENDENCE: ActionRelation.INDEPENDENCE,
}


def _row(cells: str) -> tuple[Relation, ...]:
    # cells is a space-separated row in canonical relation order
    lookup = {r.symbol: r for r in RELATIONS}
    return tuple(lookup[c] for c in cells.split())


# Join table: JOIN[a][b] is the weakest relation implied by x a y and y b z.
# Rows and columns follow the canonical order (equivalence, forward
# entailment, reverse entailment, negation, alternation, cover,
# independence).  Equivalence is a two-sided identity and independence a
# two-sided absorbing element.
_JOIN_ROWS = {
    Relation.EQUIVALENCE:        _row("≡ ⊏ ⊐ ^ | ⌣ #"),
    Relation.FORWARD_ENTAILMENT: _row("⊏ ⊏ # | | # #"),
    Relation.REVERSE_ENTAILMENT: _row("⊐ # ⊐ ⌣ # ⌣ #"),
    Relation.NEGATION:           _row("^ ⌣ | ≡ ⊐ ⊏ #"),
    Relation.ALTERNATION:        _row("| # | ⊏ # ⊏ #"),
    Relation.COVER:              _row("⌣ ⌣ # ⊐ ⊐ # #"),
    Relation.INDEPENDENCE:       _row("# # # # # # #"),
}

JOIN: Mapping[Relation, Mapping[Relation, Relation]] = {
    a: {b: _JOIN_ROWS[a][i] for i, b in enumerate(RELATIONS)} for a in RELATIONS
}


def join(a: Relation, b: Relation) -> Relation:
    """Compose two relations: the weakest relation implied by chaining."""
    return JOIN[a][b]


@dataclass(frozen=True)
class ProjectivityContext:
    """Monotonicity context of a sentence position.

    ``table`` maps the relation between two phrases to the relation between
    the sentences embedding them at this position.  Relations missing from
    ``table`` project unchanged.
    """

    name: str
    table: Mapping[Relation, Relation] = field(default_factory=dict)

    def project(self, relation: Relation) -> Relation:
        return self.table.get(relation, relation)


def _context(name: str, cells: str = "") -> ProjectivityContext:
    if not cells:
        return ProjectivityContext(name, {})
    row = _row(cells)
    return ProjectivityContext(name, dict(zip(RELATIONS, row)))


# Projection rows, one per monotonicity context, in canonical input order.
# The universal quantifier is downward monotone in its restrictor and upward
# in its body; the existential preserves the entailments in both arguments
# but weakens the exclusion relations; negation flips the entailments and
# swaps alternation with cover.
UPWARD = _context("upward-default")
_ALL_ARG1 = _context("all-arg1", "≡ ⊐ ⊏ | # | #")
_ALL_ARG2 = _context("all-arg2", "≡ ⊏ ⊐ | | # #")
_SOME_ARG1 = _context("some-arg1", "≡ ⊏ ⊐ ⌣ # ⌣ #")
_SOME_ARG2 = _context("some-arg2", "≡ ⊏ ⊐ ⌣ # ⌣ #")
_NOT = _context("not", "≡ ⊐ ⊏ ^ ⌣ | #")

CONTEXTS: Mapping[str, ProjectivityContext] = {
    ctx.name: ctx
    for ctx in (UPWARD, _ALL_ARG1, _ALL_ARG2, _SOME_ARG1, _SOME_ARG2, _NOT)
}


def get_context(name: str) -> ProjectivityContext:
    """Look up a context by name; unknown names project as identity."""
    return CONTEXTS.get(name, ProjectivityContext(name, {}))


def project(context: ProjectivityContext, relation: Relation) -> Relation:
    """Project a phrase-level relation through a monotonicity context."""
    return context.project(relation)


_GROUPS = {
    Relation.EQUIVALENCE: NLILabel.ENTAILMENT,
    Relation.FORWARD_ENTAILMENT: NLILabel.ENTAILMENT,
    Relation.NEGATION: NLILabel.CONTRADICTION,
    Relation.ALTERNATION: NLILabel.CONTRADICTION,
    Relation.REVERSE_ENTAILMENT: NLILabel.NEUTRAL,
    Relation.COVER: NLILabel.NEUTRAL,
    Relation.INDEPENDENCE: NLILabel.NEUTRAL,
}


def group(relation: Relation) -> NLILabel:
    """Map a final relation state onto its three-way inference label."""
    return _GROUPS[relation]


_ACTION_IMAGE = tuple(a.to_relation() for a in ACTIONS)


@lru_cache(maxsize=None)
def reachable_states(state: Relation, steps: int) -> frozenset[Relation]:
    """States reachable from ``state`` by joining at most ``steps`` actions.

    The closure is taken over the images of the five program actions; it is
    the basis for deciding whether a partially executed program can still
    reach a target state.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    seen = {state}
    frontier = {state}
    for _ in range(steps):
        nxt = {join(s, r) for s in frontier for r in _ACTION_IMAGE} - seen
        if not nxt:
            break
        seen |= nxt
        frontier = nxt
    return frozenset(seen)


def reachable(state: Relation, steps: int) -> frozenset[NLILabel]:
    """Labels reachable from ``state`` within ``steps`` further actions."""
    return frozenset(group(s) for s in reachable_states(state, steps))
