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

The tables are integer-coded.  Every relation, action and label carries
``code``, its position in ``RELATIONS``, ``ACTIONS`` or ``LABELS``, and
each table is a tuple indexed by codes, built once at import from the
readable sources below: ``JOIN[a][b]`` is a 7x7 table of relation codes,
``GROUP`` maps a relation code to a label code and ``ACTION_IMAGE`` an
action code to a relation code.  A monotonicity context is a name plus
its projection row ``codes``, one row of the projectivity table, which
maps a relation code to the projected relation code.  ``join``,
``project``, ``group`` and ``to_relation`` keep their enum signatures and
index these tuples, so no lookup hashes an enum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

__all__ = [
    "Relation",
    "ActionRelation",
    "NLILabel",
    "ProjectivityContext",
    "RELATIONS",
    "ACTIONS",
    "LABELS",
    "CONTEXTS",
    "UPWARD",
    "JOIN",
    "GROUP",
    "ACTION_IMAGE",
    "join",
    "project",
    "group",
    "accepting",
]


class Relation(Enum):
    """One of the seven basic semantic relations."""

    code: int  # position in RELATIONS, set below
    accepts: tuple[bool, ...]  # ``accepting(self)``, set below

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

    code: int  # position in LABELS, set below
    accepts: tuple[bool, ...]  # ``accepting(self)``, set below

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

    code: int  # position in ACTIONS, set below

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
        return RELATIONS[ACTION_IMAGE[self.code]]

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

# the column order of (m, 5) step probabilities
ACTIONS: tuple[ActionRelation, ...] = (
    ActionRelation.EQUIVALENCE,
    ActionRelation.FORWARD_ENTAILMENT,
    ActionRelation.REVERSE_ENTAILMENT,
    ActionRelation.NEG_ALT,
    ActionRelation.INDEPENDENCE,
)

LABELS: tuple[NLILabel, ...] = (
    NLILabel.ENTAILMENT,
    NLILabel.CONTRADICTION,
    NLILabel.NEUTRAL,
)

for _members in (RELATIONS, ACTIONS, LABELS):
    for _code, _member in enumerate(_members):
        _member.code = _code

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

# ACTION_IMAGE[a]: the code of the relation action code a stands for
ACTION_IMAGE: tuple[int, ...] = tuple(_ACTION_TO_RELATION[a].code for a in ACTIONS)


def _row(cells: str) -> tuple[int, ...]:
    # cells is a space-separated row of symbols; returns their relation codes
    lookup = {r.symbol: r.code for r in RELATIONS}
    return tuple(lookup[c] for c in cells.split())


# Join table: JOIN[a][b] is the code of the weakest relation implied by
# x a y and y b z.  Rows and columns follow the canonical order
# (equivalence, forward entailment, reverse entailment, negation,
# alternation, cover, independence).  Equivalence is a two-sided identity
# and independence a two-sided absorbing element.
JOIN: tuple[tuple[int, ...], ...] = (
    _row("≡ ⊏ ⊐ ^ | ⌣ #"),  # equivalence
    _row("⊏ ⊏ # | | # #"),  # forward entailment
    _row("⊐ # ⊐ ⌣ # ⌣ #"),  # reverse entailment
    _row("^ ⌣ | ≡ ⊐ ⊏ #"),  # negation
    _row("| # | ⊏ # ⊏ #"),  # alternation
    _row("⌣ ⌣ # ⊐ ⊐ # #"),  # cover
    _row("# # # # # # #"),  # independence
)


def join(a: Relation, b: Relation) -> Relation:
    """Compose two relations: the weakest relation implied by chaining."""
    return RELATIONS[JOIN[a.code][b.code]]


_IDENTITY: tuple[int, ...] = tuple(range(len(RELATIONS)))


@dataclass(frozen=True)
class ProjectivityContext:
    """Monotonicity context of a sentence position: a name and its row.

    ``codes[r]`` is the code of the relation between the sentences that
    embed two phrases standing in relation code ``r`` at this position;
    the default row projects every relation unchanged.  ``action_codes``
    (action code -> projected relation code) is derived from it once, at
    construction.  Contexts compare and hash by ``(name, codes)``.
    """

    name: str
    codes: tuple[int, ...] = _IDENTITY
    action_codes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "action_codes", tuple(self.codes[r] for r in ACTION_IMAGE)
        )

    def project(self, relation: Relation) -> Relation:
        return RELATIONS[self.codes[relation.code]]


def _context(name: str, cells: str) -> ProjectivityContext:
    return ProjectivityContext(name, _row(cells))


# Projection rows, one per monotonicity context, in canonical input order.
# The universal quantifier is downward monotone in its restrictor and upward
# in its body; the existential preserves the entailments in both arguments
# but weakens the exclusion relations; negation flips the entailments and
# swaps alternation with cover.
UPWARD = ProjectivityContext("upward-default")
_ALL_ARG1 = _context("all-arg1", "≡ ⊐ ⊏ | # | #")
_ALL_ARG2 = _context("all-arg2", "≡ ⊏ ⊐ | | # #")
_SOME_ARG1 = _context("some-arg1", "≡ ⊏ ⊐ ⌣ # ⌣ #")
_SOME_ARG2 = _context("some-arg2", "≡ ⊏ ⊐ ⌣ # ⌣ #")
_NOT = _context("not", "≡ ⊐ ⊏ ^ ⌣ | #")

CONTEXTS: Mapping[str, ProjectivityContext] = {
    ctx.name: ctx
    for ctx in (UPWARD, _ALL_ARG1, _ALL_ARG2, _SOME_ARG1, _SOME_ARG2, _NOT)
}


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

# GROUP[r]: the code of the label of relation code r
GROUP: tuple[int, ...] = tuple(_GROUPS[r].code for r in RELATIONS)


def group(relation: Relation) -> NLILabel:
    """Map a final relation state onto its three-way inference label."""
    return LABELS[GROUP[relation.code]]


for _r in RELATIONS:
    _r.accepts = tuple(s == _r.code for s in range(len(RELATIONS)))
for _l in LABELS:
    _l.accepts = tuple(g == _l.code for g in GROUP)


def accepting(target: NLILabel | Relation) -> tuple[bool, ...]:
    """Indexed by state code: does a program ending in that state meet
    ``target`` (a label, or an exact final relation)?

    Reads the row stored on the member, so no enum is hashed.
    """
    return target.accepts
