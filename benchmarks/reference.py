"""Rebuild benchmarks/expected.json, the outputs every run is checked against.

    python3 benchmarks/reference.py

For every training seed in ``range(run.TRAINING_SEEDS)`` it trains the
comp-ir and the comp-noir configuration on the default compositional split
and records the test accuracy and rationale F1 of the trained policy.  For
noisy-decode it records the same two figures of the fixed policy (comp-ir at
seed ``run.FIXED_POLICY_SEED``) on the noisy test split.  Both figures are
ratios of whole-number counts, so they do not depend on the order of the
inputs.  It takes about twenty minutes on one core.

Run it again only when a change is meant to alter what natlog computes, and
say so with the change.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run


def main() -> int:
    nl = run.import_natlog()
    rules, lexicon = nl.default_rules(), nl.default_lexicon()
    spec = nl.default_genspec()
    train_set, test_set = nl.generate(spec, rules)
    _, noisy_test = nl.generate(dataclasses.replace(spec, noisy_test=True), rules)
    expected: dict[str, dict[str, list[float]]] = {}
    for name, workload in run.WORKLOADS.items():
        seeds = [run.FIXED_POLICY_SEED] if workload.noisy else range(run.TRAINING_SEEDS)
        inputs = noisy_test if workload.noisy else test_set
        rows = expected[name] = {}
        for seed in seeds:
            config = nl.TrainConfig(
                **run.TRAIN_CONFIG,
                seed=seed,
                introspective_revision=workload.introspective_revision,
            )
            params = nl.train(train_set, rules, lexicon, config).params
            report = nl.evaluate(inputs, params, rules, lexicon)
            rows[str(seed)] = [report.accuracy, report.rationale_f1]
            print(name, seed, *rows[str(seed)], flush=True)
    record = {
        "source_sha256": run.source_digest(),
        "columns": ["test_accuracy", "test_rationale_f1"],
        "workloads": expected,
    }
    run.EXPECTED.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
