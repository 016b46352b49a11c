"""Interpretable natural-logic inference over chunked sentence pairs.

The package composes a symbolic seven-relation algebra with a learned
policy: a hypothesis is rewritten chunk by chunk from a premise, each step
labeled with a semantic relation, and the relation sequence is projected
and joined into a final entailment, contradiction, or neutral verdict.
Training uses policy gradients plus an introspective revision step that
repairs sampled programs with lexical knowledge and answer feedback.
``compile_examples`` chunks, aligns and featurizes a dataset once; training,
evaluation and the ``prove`` and ``oracle`` commands all start from its
records, and data generation, evaluation and training read every
execution from one ``executor.ExecutionTable``.

Exports with no caller in the library are kept as the one-item references
that the batched paths are checked against, each with a user outside it:
``distribution`` and ``grad_log_prob`` (``benchmarks/tracing.py``),
``reinforce_objective`` (criterion 04 and ``benchmarks/tracing.py``),
``featurize_pair`` (demo 05, ``benchmarks/tracing.py`` and ``run.py``),
``align`` (demo 03 and ``benchmarks/tracing.py``), ``propose`` (demo 03),
``phrasal_prf`` (criterion 08) and ``argmax`` (``benchmarks/run.py``).
``sample`` and ``extract_rationales`` have no such user; only unit tests
read them, as references of ``policy.sample_codes`` and ``execute``.
"""

from .chunker import (
    ChunkRules,
    Sentence,
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
    distinct_rows,
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
    reachable,
    reachable_states,
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
