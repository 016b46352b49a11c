"""Interpretable natural-logic inference over chunked sentence pairs.

The package composes a symbolic seven-relation algebra with a learned
policy: a hypothesis is rewritten chunk by chunk from a premise, each step
labeled with a semantic relation, and the relation sequence is projected
and joined into a final entailment, contradiction, or neutral verdict.
Training uses policy gradients plus an introspective revision step that
repairs sampled programs with lexical knowledge and answer feedback.
``compile_examples`` chunks, aligns and featurizes a dataset once; training,
evaluation and the ``prove`` command start from its records, the ``oracle``
command from ``chunk_examples`` and ``suffix_counts``.  Data generation,
evaluation and training each execute through one ``executor.ExecutionTable``.

Exports that no library module reaches from the command line are kept
for a user outside the library, most as the one-item references that the
batched paths are checked against: ``distribution`` and ``grad_log_prob``
(``benchmarks/tracing.py``), ``argmax``, ``enumerate_programs`` and
``save_genspec`` (``benchmarks/run.py``), ``reinforce_objective``,
``label_accuracy``, ``phrasal_prf`` and ``state_accuracy`` (the criterion
tests), ``featurize_pair`` (demo 05), ``align`` and ``propose`` (demo 03),
and ``group`` and ``project`` (demo 01).  Only unit tests read ``sample``
and ``extract_rationales``, the references of ``policy.sample_codes`` and
of the executor's rationales.  ``tests/test_exports.py`` keeps this true.
"""

from .chunker import (
    ChunkRules,
    chunk,
    chunk_pair,
    chunk_pairs,
    default_rules,
    tokenize,
)
from .data import Example, load_dataset, save_dataset
from .datagen import (
    GenSpec,
    Replacement,
    default_genspec,
    generate,
    generate_2hop,
    load_genspec,
    save_genspec,
)
from .executor import (
    Chunk,
    ChunkedPair,
    Trace,
    enumerate_programs,
    execute,
    extract_rationales,
    matches_target,
)
from .knowledge import (
    Lexicon,
    align,
    default_lexicon,
    propose,
)
from .metrics import (
    EvalReport,
    evaluate,
    iou,
    label_accuracy,
    phrasal_prf,
    reports_to_csv,
    state_accuracy,
)
from .policy import (
    FEATURE_NAMES,
    N_ACTIONS,
    N_FEATURES,
    Compiled,
    PolicyParams,
    argmax,
    compile_examples,
    decode,
    distribution,
    featurize_pair,
    grad_log_prob,
    load_checkpoint,
    sample,
    save_checkpoint,
    step_distributions,
)
from .relations import (
    ACTIONS,
    CONTEXTS,
    ActionRelation,
    NLILabel,
    ProjectivityContext,
    Relation,
    RELATIONS,
    UPWARD,
    group,
    join,
    project,
)
from .trainer import (
    OutcomeTable,
    TrainConfig,
    TrainResult,
    grid_search,
    introspective_revision,
    load_train_config,
    reinforce_objective,
    reward,
    train,
)

__version__ = "0.1.0"
