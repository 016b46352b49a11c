"""Command-line entry point for dataset generation, training, and proofs.

Subcommands:
  gen     synthesize compositional train/test datasets (and two-hop sets)
  train   run REINFORCE with introspective revision, save a checkpoint
  eval    score a checkpoint against a labeled dataset
  prove   print the greedy proof trace for one sentence pair
  oracle  count the programs that reach each target, and their spurious ratio

Human-readable summaries go to standard output; datasets, checkpoints,
and metric records go to files as line-delimited JSON with a versioned
schema header.  Every subcommand is deterministic given its inputs and
seed, and failures print a machine-parsable error record to stderr with
a nonzero exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .chunker import ChunkRules, default_rules
from .data import (
    Example,
    chunk_examples,
    dumps,
    load_dataset,
    require_targets,
    save_dataset,
    write_records,
)
from .datagen import default_genspec, generate, generate_2hop, load_genspec
from .executor import execute, matches_target, suffix_counts
from .knowledge import Lexicon, default_lexicon
from .metrics import evaluate, reports_to_csv
from .policy import PolicyParams, compile_examples, decode, load_checkpoint, save_checkpoint
from .relations import ACTIONS, Relation, accepting
from .trainer import RevisionStats, TrainConfig, load_train_config, train

__all__ = ["main"]

METRICS_SCHEMA = "natlog.train-metrics"
EVAL_SCHEMA = "natlog.eval"
ORACLE_SCHEMA = "natlog.oracle"
_VERSION = 1  # of the metrics, eval and oracle formats


def _rules(args) -> ChunkRules:
    return ChunkRules.load(args.grammar) if args.grammar else default_rules()


def _lexicon(args) -> Lexicon:
    return Lexicon.load(args.lexicon) if args.lexicon else default_lexicon()


@contextlib.contextmanager
def _naming(path: str) -> Iterator[None]:
    """Prefix a ValueError raised inside with the dataset path."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_gen(args) -> None:
    spec = load_genspec(args.config) if args.config else default_genspec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    rules = _rules(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_set, test_set = generate(spec, rules)
    save_dataset(train_set, out / "train.jsonl")
    save_dataset(test_set, out / "test.jsonl")
    print(f"wrote {len(train_set)} train / {len(test_set)} test -> {out}")
    if args.two_hop:
        hop = generate_2hop(spec, rules)
        save_dataset(hop, out / "twohop.jsonl")
        print(f"wrote {len(hop)} two-hop examples -> {out / 'twohop.jsonl'}")


def cmd_train(args) -> None:
    config = load_train_config(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    rules, lexicon = _rules(args), _lexicon(args)
    examples = load_dataset(args.data)
    with _naming(args.data):
        result = train(examples, rules, lexicon, config)
    save_checkpoint(result.params, args.checkpoint)

    totals = sum((m.revisions for m in result.metrics), RevisionStats())
    if args.out:
        records = [{"epoch_metrics": m.to_record()} for m in result.metrics]
        records.append({"revision_totals": totals.to_record()})
        write_records(Path(args.out), METRICS_SCHEMA, _VERSION, records)
    final = result.metrics[-1]
    print(
        f"trained {config.epochs} epochs on {len(examples)} examples; "
        f"final train accuracy {final.train_accuracy:.3f}; "
        f"revised {totals.episodes - totals.none}/{totals.episodes} episodes "
        f"(knowledge {totals.knowledge_only}, answer "
        f"{totals.answer_only}, both {totals.both}); "
        f"checkpoint -> {args.checkpoint}"
    )


def cmd_eval(args) -> None:
    params = load_checkpoint(args.checkpoint)
    rules, lexicon = _rules(args), _lexicon(args)
    examples = load_dataset(args.data)
    if args.collapse_binary and all(e.label is None for e in examples):
        raise ValueError(
            f"{args.data}: --collapse-binary needs labels, "
            "and no example carries a label"
        )
    with _naming(args.data):
        report = evaluate(examples, params, rules, lexicon)
    name = Path(args.data).name
    if args.out:
        out = Path(args.out)
        if out.suffix == ".csv":
            out.write_text(reports_to_csv({name: report}), encoding="utf-8")
        else:
            record = {"dataset": name}
            record.update(report.to_record())
            write_records(out, EVAL_SCHEMA, _VERSION, [record])
    headline = (
        report.accuracy_binary if args.collapse_binary else report.accuracy
    )
    kind = "binary accuracy" if args.collapse_binary else "accuracy"
    parts = [f"{name}: {kind} {headline:.3f} on {report.examples} examples"]
    if report.state_accuracy is not None:
        parts.append(f"state accuracy {report.state_accuracy:.3f}")
    if report.rationale_f1 is not None:
        parts.append(f"rationale F1 {report.rationale_f1:.3f}")
    print("; ".join(parts))


def _printable(symbol: str) -> str:
    """``symbol`` as standard output can encode it: backslash-escaped where
    the stream's encoding lacks it, as ASCII under the C locale does."""
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    return symbol.encode(encoding, "backslashreplace").decode(encoding)


def cmd_prove(args) -> None:
    params = (
        load_checkpoint(args.checkpoint)
        if args.checkpoint
        else PolicyParams.zeros()
    )
    rules, lexicon = _rules(args), _lexicon(args)
    example = Example(premise=args.premise, hypothesis=args.hypothesis)
    (item,), features = compile_examples([example], rules, lexicon)
    pair = item.pair
    program = decode(params, features)
    trace = execute(pair, program)

    rows = [("step", "hypothesis chunk", "premise chunk", "r", "proj", "z")]
    for t, (aligned, _) in enumerate(item.records, start=1):
        hyp_chunk = pair.hypothesis[t - 1]
        rows.append(
            (
                str(t),
                hyp_chunk.text(),
                aligned.text() if aligned else "-",
                _printable(program[t - 1].symbol),
                _printable(trace.projected[t - 1].symbol),
                _printable(trace.states[t].symbol),
            )
        )
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    print(f"label: {trace.label.value}")
    if trace.rationales:
        chunks = ", ".join(
            f"chunk {t} '{pair.hypothesis[t - 1].text()}'"
            for t in trace.rationales
        )
        print(f"rationale: {chunks}")
    else:
        print("rationale: none")


def cmd_oracle(args) -> None:
    examples = load_dataset(args.data)
    records = []
    ratios = []
    with _naming(args.data):
        pairs = chunk_examples(examples, _rules(args))
        require_targets(examples)
    for index, (example, pair) in enumerate(zip(examples, pairs)):
        target, gold = example.target, example.gold_program
        rows = [chunk.context.action_codes for chunk in pair.hypothesis]
        counts = suffix_counts(rows, accepting(target))
        reaching = counts[pair.m][Relation.EQUIVALENCE.code]
        ratio: Optional[float] = None
        if gold is not None and reaching:
            gold_reaches = len(gold) == pair.m and matches_target(
                execute(pair, gold), target
            )
            ratio = (reaching - gold_reaches) / reaching
            ratios.append(ratio)
        records.append(
            {
                "index": index,
                "m": pair.m,
                "programs": len(ACTIONS) ** pair.m,
                "reaching": reaching,
                "spurious_ratio": ratio,
            }
        )
    summary = {
        "examples": len(examples),
        # the count is exact for every m, so nothing is skipped; the field
        # stays until the format's next version
        "skipped": 0,
        "mean_spurious_ratio": (
            sum(ratios) / len(ratios) if ratios else None
        ),
    }
    if args.out:
        write_records(
            Path(args.out), ORACLE_SCHEMA, _VERSION, records + [{"summary": summary}]
        )
    mean = summary["mean_spurious_ratio"]
    shown = "n/a" if mean is None else f"{mean:.3f}"
    print(
        f"{summary['examples']} examples (0 skipped); "
        f"mean spurious-program ratio {shown}"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natlog",
        description="natural-logic inference: generate, train, eval, prove",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, seed=False, lexicon=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--grammar", help="chunker grammar file")
        if lexicon:
            p.add_argument("--lexicon", help="knowledge-base lexicon file")
        if seed:
            p.add_argument("--seed", type=int, help="seed override")
        return p

    p = add(
        name="gen", func=cmd_gen, help_text="synthesize datasets",
        seed=True, lexicon=False,
    )
    p.add_argument("--config", help="generation spec (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--two-hop", action="store_true", help="also write twohop.jsonl"
    )

    p = add(name="train", func=cmd_train, help_text="train a policy", seed=True)
    p.add_argument("--config", help="training config (key = value lines)")
    p.add_argument("--data", required=True, help="training dataset")
    p.add_argument("--checkpoint", required=True, help="checkpoint to write")
    p.add_argument("--out", help="per-epoch metrics file (JSONL)")

    p = add(name="eval", func=cmd_eval, help_text="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint to read")
    p.add_argument("--data", required=True, help="dataset to score")
    p.add_argument("--out", help="report file (.jsonl or .csv)")
    p.add_argument(
        "--collapse-binary",
        action="store_true",
        help="report two-way accuracy (entailment vs non-entailment)",
    )

    p = add(name="prove", func=cmd_prove, help_text="print a proof trace")
    p.add_argument("--checkpoint", help="checkpoint to read (default: uniform)")
    p.add_argument("premise")
    p.add_argument("hypothesis")

    p = add(
        name="oracle", func=cmd_oracle, help_text="program search stats",
        lexicon=False,
    )
    p.add_argument("--data", required=True, help="dataset to analyze")
    p.add_argument("--out", help="per-example records file (JSONL)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(dumps(record), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
