"""Repairing a sampled program before it is scored.

A freshly initialized policy samples relations close to uniformly, so
most programs miss the target label.  Revision fixes them from two
sides: lexical proposals (knowledge phase) and a single-edit grid search
toward the answer (answer phase).  Training then scores a blend of the
original and revised programs, which is what makes early learning move.
"""

import numpy as np

from natlog.chunker import chunk_pair, default_rules
from natlog.executor import execute
from natlog.knowledge import default_lexicon, proposal_keys, queue_from_keys
from natlog.policy import PolicyParams, featurize_pair, step_distributions
from natlog.relations import ACTIONS, ActionRelation, NLILabel
from natlog.trainer import OutcomeTable, TrainConfig, introspective_revision

rules = default_rules()
lexicon = default_lexicon()

pair = chunk_pair(
    "the child does not love sports",
    "the kid doesn't like table-tennis",
    rules,
)
target = NLILabel.ENTAILMENT

params = PolicyParams.zeros()  # untrained: uniform over the five actions
features = featurize_pair(pair, lexicon)
probs = step_distributions(params, features)

# a plausible bad sample: independence everywhere
program = (ActionRelation.INDEPENDENCE,) * pair.m
print("sampled program:", " ".join(a.symbol for a in program))
print("executes to:    ", execute(pair, program).label.value,
      f"(want {target.value})")
print()

# a proposal is a (step, action code) key, a code being a position in
# ACTIONS; the queue is the keys ranked by the policy's probability for
# them, best last, and revision pops from its end
phi = queue_from_keys(proposal_keys(pair, lexicon), probs)
print("lexical proposals, best first:")
for t, a in reversed(phi):
    print(f"  step {t}: {ACTIONS[a].symbol}  p={probs[t - 1][a]:.2f}")
print()

# revision reads what each program does from a table of outcomes per
# (contexts, target) class, as training does: the pair is classified once
# and every lookup is by class.  Its coin flips come from pre-drawn
# uniforms, at most two per proposal.  It revises the program's tuple of
# action codes, and its events name the old and new actions as relations
table = OutcomeTable(TrainConfig())
cls = table.classify(pair, target)
uniforms = np.random.default_rng(0).random(2 * len(phi)).tolist()
steps, events = introspective_revision(
    table, cls, tuple(a.code for a in program), phi, probs, uniforms
)
revised = tuple(ACTIONS[c] for c in steps)
print("revised program:", " ".join(a.symbol for a in revised))
print("executes to:    ", execute(pair, revised).label.value)
for e in events:
    print(f"  step {e.t}: {e.old.symbol} -> {e.new.symbol}  ({e.source})")
