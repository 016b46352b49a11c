"""natlog benchmark: training throughput, fixed-policy decoding, program search.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload comp-ir --seed 0 --seconds 20 --trace 0

Workloads (see benchmarks/README.md for why each exists):

  comp-ir       criterion-07 training (10 epochs, learning rate 0.02) with
                introspective revision, then evaluation, per-pair decoding
                and exhaustive program search on the 1296-example
                compositional test split with the trained policy
  comp-noir     the same with introspective revision off
  noisy-decode  a fixed policy (the comp-ir configuration at seed 0,
                trained once before the set-ups and loaded from its
                checkpoint) evaluating, decoding pair by pair and searching
                the 2592-pair noisy test split, half of it with m = 4

The seed sets ``TrainConfig.seed`` of the training workloads (modulo
TRAINING_SEEDS) and the order in which every workload feeds its test
inputs; natlog only ever sees the generated inputs.  A run sets up its
corpora SETUPS times, then repeats cycles of [train,] evaluate, decode and
search until ``--seconds`` have passed, and reports medians.  Times are put
on a quiet-host scale by the speed probe in probe.py; the raw wall-clock
figures are printed beside them.  With ``--trace 1`` the run then sets up
and runs one more cycle, one pass per phase, with every layer traced, and
reports per-layer metrics and the tracing overhead instead.

Every operation is checked, and the test accuracy and rationale F1 must
equal the ones expected.json records for the training seed.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a record with the environment
goes to ``benchmarks/_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import probe as speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmarks" / "_out"
SRC = ROOT / "src"

SETUPS = 15  # set-ups per run; setup_s is their median (see end_to_end)
PHASE_S = 1.0  # each measured phase repeats passes until it has run this long
TRAIN_CONFIG = {"epochs": 10, "learning_rate": 0.02}  # criterion 07
FIXED_POLICY_SEED = 0
TRAIN_ACCURACY_FLOOR = 0.95
TEST_ACCURACY_FLOOR = 0.90
MEASURED_PHASES = {"train", "evaluate", "decode", "oracle"}
# Training seeds whose outputs expected.json records; a run trains with
# TrainConfig.seed = workload seed % TRAINING_SEEDS, so every run is checked.
TRAINING_SEEDS = 64
EXPECTED = ROOT / "benchmarks" / "expected.json"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    introspective_revision: bool
    noisy: bool  # noisy test split and a fixed policy; no training in the cycles

    @property
    def train(self) -> bool:
        """Train in the measured cycles, with the workload seed."""
        return not self.noisy

    @property
    def floors(self) -> bool:
        """The criterion-07 accuracy floors apply."""
        return self.train and self.introspective_revision


WORKLOADS = {
    w.name: w
    for w in (
        Workload("comp-ir", introspective_revision=True, noisy=False),
        Workload("comp-noir", introspective_revision=False, noisy=False),
        Workload("noisy-decode", introspective_revision=True, noisy=True),
    )
}


def import_natlog():
    """Import natlog from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import natlog
        import natlog.cli  # not imported by the package itself
    except ImportError as exc:
        raise SystemExit(f"cannot import natlog from {SRC}: {exc}")
    if Path(natlog.__file__).resolve().parent != SRC / "natlog":
        raise SystemExit(f"natlog imported from {natlog.__file__}, not {SRC}")
    return natlog


class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok

    @contextlib.contextmanager
    def operation(self, what: str):
        """One operation that counts as failed if it raises."""
        try:
            yield
        except Exception:  # every failure is counted and the run goes on
            self.record(False, f"{what}: {traceback.format_exc(limit=3)}")
        else:
            self.attempted += 1


@dataclasses.dataclass
class Corpora:
    train_set: list
    test_set: list
    params: object = None  # fixed policy (noisy-decode only)


class Bench:
    """One benchmark run: set-ups, measured cycles, checks and results."""

    def __init__(self, natlog, workload: Workload, seed: int, work: Path, probe):
        self.nl = natlog
        self.w = workload
        self.seed = seed
        self.work = work
        self.rules = natlog.default_rules()
        self.lexicon = natlog.default_lexicon()
        self.ledger = Ledger()
        self.train_seed = FIXED_POLICY_SEED if workload.noisy else seed % TRAINING_SEEDS
        self.expected = expected_outputs(workload.name, self.train_seed)
        self.config = natlog.TrainConfig(
            **TRAIN_CONFIG,
            seed=self.train_seed,
            introspective_revision=workload.introspective_revision,
        )
        self.probe = probe
        # one interval per set-up, training, evaluation, decoded pair and
        # searched example
        self.timers = self.new_timers("setup", "train", "evaluate", "decode", "oracle")
        # one interval per pass of each cycle phase
        self.passes = self.new_timers("train", "evaluate", "decode", "oracle")
        self.episodes = 0  # per training call
        self.first: dict[str, object] = {}
        self.report = None

    def new_timers(self, *names: str) -> dict:
        return {name: speed.Timer(self.probe) for name in names}

    def same(self, what: str, value) -> bool:
        """Check that ``value`` equals the first one recorded under ``what``."""
        first = self.first.setdefault(what, value)
        return self.ledger.record(
            first == value, f"{what}: differs from its first value in this run"
        )

    # -- set-up -----------------------------------------------------------

    def set_up(self) -> Corpora:
        """Generate the corpora with ``natlog gen``, save and load them back.

        noisy-decode also loads its fixed policy from the checkpoint.
        """
        nl = self.nl
        gc.collect()
        token = self.timers["setup"].start()
        spec = nl.default_genspec()
        if self.w.noisy:
            spec = dataclasses.replace(spec, noisy_test=True)
        nl.save_genspec(spec, self.work / "spec.json")
        argv = ["gen", "--config", str(self.work / "spec.json"), "--out", str(self.work)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = nl.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"natlog gen exited with {code}")
        corpora = Corpora(
            train_set=nl.load_dataset(self.work / "train.jsonl"),
            test_set=nl.load_dataset(self.work / "test.jsonl"),
        )
        if self.w.noisy:
            corpora.params = nl.load_checkpoint(self.work / "policy.ckpt")
        self.timers["setup"].stop(token)
        return corpora

    def fixed_policy(self) -> None:
        """Train noisy-decode's policy once: comp-ir configuration, seed 0.

        Its training time gives the workload's train_episodes_per_s; it is
        not part of setup_s.
        """
        train_set, _ = self.nl.generate(self.nl.default_genspec(), self.rules)
        path = self.work / "policy.ckpt"
        result = self.timed_train(train_set, path)
        self.same("fixed policy", fingerprint(result, path))

    def checked_set_up(self) -> Corpora | None:
        corpora = None
        with self.ledger.operation("set-up"):
            corpora = self.set_up()
        if corpora is not None:
            expected = (1896, 2592 if self.w.noisy else 1296)
            sizes = (len(corpora.train_set), len(corpora.test_set))
            self.ledger.record(sizes == expected, f"corpus sizes {sizes} != {expected}")
        return corpora

    # -- measured phases --------------------------------------------------

    def timed_train(self, train_set, checkpoint: Path):
        token = self.timers["train"].start()
        result = self.nl.train(train_set, self.rules, self.lexicon, self.config)
        self.timers["train"].stop(token)
        self.episodes = sum(m.revisions.episodes for m in result.metrics)
        self.nl.save_checkpoint(result.params, checkpoint)
        return result

    def train(self, corpora: Corpora):
        path = self.work / "trained.ckpt"
        result = self.timed_train(corpora.train_set, path)
        if self.same("trained policy", fingerprint(result, path)) and self.w.floors:
            if "train accuracy" not in self.first:
                report = self.nl.evaluate(
                    corpora.train_set, result.params, self.rules, self.lexicon
                )
                self.first["train accuracy"] = report.accuracy
            accuracy = self.first["train accuracy"]
            self.ledger.record(
                accuracy >= TRAIN_ACCURACY_FLOOR,
                f"train accuracy {accuracy} below {TRAIN_ACCURACY_FLOOR}",
            )
        return result.params

    def evaluate(self, inputs, params):
        token = self.timers["evaluate"].start()
        report = self.nl.evaluate(inputs, params, self.rules, self.lexicon)
        self.timers["evaluate"].stop(token)
        self.same("evaluation report", report.to_record())
        if self.w.floors:
            self.ledger.record(
                report.accuracy >= TEST_ACCURACY_FLOOR,
                f"test accuracy {report.accuracy} below {TEST_ACCURACY_FLOOR}",
            )
        outputs = [report.accuracy, report.rationale_f1]
        self.ledger.record(
            outputs == self.expected,
            f"test accuracy and rationale F1 {outputs} != {self.expected}, "
            f"expected at training seed {self.train_seed} (expected.json)",
        )
        self.report = report
        return report

    def decode(self, inputs, params, report) -> None:
        """Greedy decoding of one pair at a time, as ``natlog prove`` does."""
        nl, rules, lexicon = self.nl, self.rules, self.lexicon
        timer = self.timers["decode"]
        hits = 0
        for example in inputs:
            with self.ledger.operation("decode"):
                token = timer.start()
                pair = nl.chunk_pair(example.premise, example.hypothesis, rules)
                probs = nl.step_distributions(params, nl.featurize_pair(pair, lexicon))
                trace = nl.execute(pair, tuple(nl.argmax(p) for p in probs))
                timer.stop(token)
                hits += nl.matches_target(trace, example.target)
        self.ledger.record(
            hits / len(inputs) == report.accuracy,
            f"decode hit share {hits}/{len(inputs)} != evaluate accuracy {report.accuracy}",
        )

    def search(self, inputs) -> None:
        """Exhaustive program search per pair, as ``natlog oracle`` does."""
        nl, rules = self.nl, self.rules
        timer = self.timers["oracle"]
        reaching = 0
        for example in inputs:
            with self.ledger.operation("search"):
                token = timer.start()
                pair = nl.chunk_pair(example.premise, example.hypothesis, rules)
                programs = list(nl.enumerate_programs(pair, example.target))
                timer.stop(token)
                reaching += len(programs)
                if example.gold_program not in programs:
                    raise AssertionError("gold program not found by the search")
        self.same("programs reaching", reaching)

    def cycle(self, corpora: Corpora, inputs, tracer=None) -> None:
        """[Train,] evaluate, decode and search.

        Untraced, each of the last three phases repeats its passes for
        PHASE_S; traced, every phase runs exactly one pass, so the per-layer
        counts do not depend on speed.
        """
        traced = tracer.phase if tracer is not None else _no_phase
        passes = _one_pass if tracer is not None else _passes

        @contextlib.contextmanager
        def phase(name: str):
            gc.collect()  # every phase starts from a collected heap
            with traced(name):
                yield

        @contextlib.contextmanager
        def timed(name: str):
            timer = self.passes[name]
            token = timer.start()
            yield
            timer.stop(token)

        params = corpora.params
        if self.w.train:
            with phase("train"), timed("train"):
                params = self.train(corpora)
        with phase("evaluate"):
            for _ in passes():
                with timed("evaluate"):
                    report = self.evaluate(inputs, params)
        with phase("decode"):
            for _ in passes():
                with timed("decode"):
                    self.decode(inputs, params, report)
        with phase("oracle"):
            for _ in passes():
                with timed("oracle"):
                    self.search(inputs)

    def inputs(self, corpora: Corpora) -> list:
        order = np.random.default_rng([self.seed, len(corpora.test_set)]).permutation(
            len(corpora.test_set)
        )
        return [corpora.test_set[i] for i in order]

    # -- driver -----------------------------------------------------------

    def measure(self, seconds: float) -> Corpora | None:
        """Set up SETUPS times, then run cycles for ``seconds``."""
        corpora = None
        if self.w.noisy:
            with self.ledger.operation("fixed policy"):
                self.fixed_policy()
        for _ in range(SETUPS):
            corpora = self.checked_set_up() or corpora
        if corpora is None:
            return None
        inputs = self.inputs(corpora)
        deadline = perf_counter() + seconds
        while True:
            self.cycle(corpora, inputs)
            if perf_counter() >= deadline:
                return corpora

    def end_to_end(self, scaled: bool = True) -> dict:
        """Medians of the run; quiet-host seconds unless ``scaled`` is off."""
        t = {k: v.scaled_s() if scaled else v.raw_s() for k, v in self.timers.items()}
        n = self.report.examples
        decode = _per_example(self.timers["decode"], t["decode"], n) * 1e6
        cuts = statistics.quantiles(decode, n=100, method="inclusive")
        search = _per_example(self.timers["oracle"], t["oracle"], n)
        return {
            "setup_s": (float(np.median(t["setup"])), "s"),
            "train_episodes_per_s": (self.episodes / float(np.median(t["train"])), "1/s"),
            "eval_examples_per_s": (
                self.report.examples / float(np.median(t["evaluate"])), "1/s"
            ),
            "decode_p50_us": (cuts[49], "us"),
            "decode_p99_us": (cuts[98], "us"),
            "oracle_examples_per_s": (len(search) / float(search.sum()), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def quality(self) -> dict:
        """Outputs that a fixed seed fixes exactly, and the error rate.

        The first two are checked against expected.json exactly, not
        against a bound: the no-IR ablation's test accuracy is bimodal
        over seeds, and the error rate is 0 when nothing fails.
        """
        ledger = self.ledger
        return {
            "test_accuracy": (self.report.accuracy, "ratio"),
            "test_rationale_f1": (self.report.rationale_f1, "ratio"),
            "error_rate": (ledger.failed / max(ledger.attempted, 1), "ratio"),
        }


@contextlib.contextmanager
def _no_phase(name):
    yield


def _per_example(timer, seconds: np.ndarray, n: int) -> np.ndarray:
    """Each example's median time over the passes.

    The passes visit the n examples in the same order.  One-off host
    jitter does not repeat from pass to pass (the decode latencies of two
    passes correlate at about 0.05), so the medians keep what is slow
    every time, such as the m = 4 pairs, and drop the jitter.  Intervals a
    probe ran inside are left out, unless every pass of the example had one.
    """
    every = seconds.reshape(-1, n)
    kept = np.where(timer.probed_mask().reshape(-1, n), np.nan, every)
    return np.nanmedian(np.where(np.isnan(kept).all(axis=0), every, kept), axis=0)


def _one_pass():
    yield


def _passes():
    """Yield until PHASE_S seconds have passed, at least once."""
    deadline = perf_counter() + PHASE_S
    yield
    while perf_counter() < deadline:
        yield


def fingerprint(result, checkpoint: Path) -> tuple[str, str]:
    """Digests of the checkpoint bytes and of the epoch-metric records."""
    records = json.dumps([m.to_record() for m in result.metrics], sort_keys=True)
    return (
        hashlib.sha256(checkpoint.read_bytes()).hexdigest(),
        hashlib.sha256(records.encode()).hexdigest(),
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "natlog").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def expected_outputs(workload: str, train_seed: int) -> list | None:
    """Test accuracy and rationale F1 recorded for this training seed."""
    record = json.loads(EXPECTED.read_text())
    return record["workloads"].get(workload, {}).get(str(train_seed))


def environment(natlog, args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "natlog": natlog.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setups": SETUPS,
        "phase_s": PHASE_S,
        "train_config": TRAIN_CONFIG,
        "probe_nominal_ns": speed.NOMINAL_NS,
        "fixed_policy": (
            "noisy-decode trains it once per run, before the set-ups (not "
            f"counted in setup_s): the comp-ir configuration {TRAIN_CONFIG} "
            f"at seed {FIXED_POLICY_SEED}; every set-up loads it from its checkpoint"
        ),
    }


def cross_run_check(bench: Bench, env: dict) -> None:
    """Runs with the same seed and sources must train the same bytes."""
    key = f"{env['workload']}/{env['seed']}/{env['source_sha256']}"
    values = {
        what: list(bench.first[what])
        for what in ("trained policy", "fixed policy")
        if what in bench.first
    }
    path = OUT / "fingerprints.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    previous = known.setdefault(key, values)
    bench.ledger.record(previous == values, f"{key}: policy differs from an earlier run")
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


def traced_cycle(bench: Bench, env: dict) -> dict:
    """One traced set-up and cycle: per-layer metrics and tracing overhead.

    The traced cycle runs one pass of each phase.  The overhead compares
    its set-up and passes with the median untraced set-up and passes.
    """
    untraced = float(np.median(bench.timers["setup"].scaled_s())) + sum(
        float(np.median(timer.scaled_s())) for timer in bench.passes.values()
        if len(timer.net_ns)
    )
    bench.passes = bench.new_timers(*bench.passes)
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.phase("setup"):
            corpora = bench.checked_set_up()
        bench.cycle(corpora, bench.inputs(corpora), tracer)
    traced = float(bench.timers["setup"].scaled_s()[-1]) + sum(
        float(timer.scaled_s().sum()) for timer in bench.passes.values()
    )
    tracer.write(OUT / f"spans-{env['workload']}-seed{env['seed']}.npz")
    measured = tracing.summarize(tracer, MEASURED_PHASES)
    setup = tracing.summarize(tracer, {"setup"})
    print_layer_table("set-up", setup)
    print_layer_table("measured cycle", measured)
    metrics = tracing.per_layer_metrics(measured, setup)
    metrics["trace.overhead_share"] = (traced / untraced - 1, "ratio")
    metrics["trace.spans"] = (len(tracer.span_start), "count")
    return metrics


def print_layer_table(title: str, summary: dict) -> None:
    print(f"per-layer ({title}): layer and function, calls, self s")
    by_layer: dict[str, float] = {}
    for name, row in summary["functions"].items():
        layer = name.partition(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + row["self_s"]
    for layer, self_s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        if not self_s:
            continue
        print(f"  {layer:<44} {'':>9} {self_s:>10.4f}")
        for name, row in sorted(summary["functions"].items()):
            if name.partition(".")[0] == layer and row["calls"]:
                print(f"    {name:<42} {row['calls']:>9} {row['self_s']:>10.4f}")
    for key, value in sorted(summary["counts"].items()):
        print(f"  {key:<44} {value:>9}")


def _named(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    natlog = import_natlog()
    OUT.mkdir(parents=True, exist_ok=True)
    env = environment(natlog, args)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        with speed.Probe() as probe:
            bench = Bench(natlog, WORKLOADS[args.workload], args.seed, work, probe)
            env["train_seed"] = bench.train_seed
            if bench.measure(args.seconds) is None:
                print("set-up failed:", *bench.ledger.reasons, sep="\n", file=sys.stderr)
                return 1
            cross_run_check(bench, env)
            end_to_end = bench.end_to_end()
            raw = bench.end_to_end(scaled=False)
            repeats = {k: len(v.net_ns) for k, v in bench.timers.items()}
            layers = traced_cycle(bench, env) if args.trace else {}
            env["probes"] = len(probe.durations)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    quality = bench.quality()
    metrics = {**layers, **quality} if args.trace else end_to_end
    ledger = bench.ledger
    record = {
        "environment": env,
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.reasons,
        "repeats": repeats,
        "end_to_end": _named(end_to_end),
        "end_to_end_raw": _named(raw),
        "quality": _named(quality),
        "metrics": _named(metrics),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"natlog benchmark  workload={args.workload} seed={args.seed}")
    print(json.dumps(env, sort_keys=True))
    print("repeats: " + ", ".join(f"{k} x{n}" for k, n in repeats.items()))
    for reason in ledger.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(f"  {'metric':<24} {'quiet-host':>14} {'unit':<6} {'wall clock':>12}")
    for key, (value, unit) in end_to_end.items():
        print(f"  {key:<24} {value:>14.6g} {unit:<6} {raw[key][0]:>12.6g}")
    for key, (value, unit) in quality.items():
        print(f"  {key:<24} {value:>14.6g} {unit}")
    print(f"  operations failed/attempted: {ledger.failed}/{ledger.attempted}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
