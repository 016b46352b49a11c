"""Tests of the benchmark itself: span arithmetic, patching, smoke runs.

    python3 -m pytest benchmarks/tests -q

The smoke runs start the benchmark command as a subprocess, one at a
time, and take about a minute and a half together.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import natlog  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) holds a [10, 60) and c [70, 90); a holds b [20, 30)
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([100.0, 50.0, 10.0, 20.0])
    assert tracing.self_times(parent, duration).tolist() == [30.0, 40.0, 10.0, 20.0]


def test_self_time_of_siblings_and_leaves():
    parent = np.array([-1, 0, 0, 0, -1])
    duration = np.array([9.0, 2.0, 3.0, 4.0, 5.0])
    assert tracing.self_times(parent, duration).tolist() == [0.0, 2.0, 3.0, 4.0, 5.0]


def test_probe_scale_is_nominal_over_harmonic_mean_of_probes_around():
    p = probe.Probe()
    p.starts.extend([0, 20_000_000, 40_000_000, 500_000_000])
    p.durations.extend([probe.NOMINAL_NS, 2 * probe.NOMINAL_NS, 4 * probe.NOMINAL_NS, 1])
    # an interval at 30 ms sees the first three probes, not the one at 500 ms
    factor = p.scale([30_000_000], [31_000_000])[0]
    assert factor == pytest.approx((1 + 1 / 2 + 1 / 4) / 3)
    with pytest.raises(RuntimeError):
        p.scale([250_000_000], [250_000_001])


def test_timer_subtracts_probe_time_and_flags_probed_intervals():
    p = probe.Probe()
    timer = probe.Timer(p)
    token = timer.start()
    p.total_ns += 10**9  # as if a probe ran inside the interval
    timer.stop(token)
    token = timer.start()
    timer.stop(token)
    raw = timer.raw_s()
    assert raw[0] < 0 < raw[1] < 0.01
    assert timer.probed_mask().tolist() == [True, False]


def _bindings() -> dict:
    return {
        (module.__name__, attr): value
        for module in tracing.natlog_modules()
        for attr, value in vars(module).items()
    }


def _pair():
    return natlog.chunk_pair(
        "all small dogs run quickly", "all dogs run", natlog.default_rules()
    )


def test_traced_run_restores_every_binding():
    before = _bindings()
    originals = {id(tracing.resolve(q)) for q in tracing.SPANNED + tracing.COUNTED}
    tracer = tracing.Tracer()
    with tracer.installed():
        bound = set(map(id, _bindings().values()))
        assert not originals & bound, "a traced function kept an original binding"
        with tracer.phase("oracle"):
            programs = list(natlog.enumerate_programs(_pair(), natlog.NLILabel.ENTAILMENT))
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert programs == list(
        natlog.enumerate_programs(_pair(), natlog.NLILabel.ENTAILMENT)
    )


def test_traced_spans_account_for_the_search():
    tracer = tracing.Tracer()
    pair = _pair()
    with tracer.installed(), tracer.phase("oracle"):
        reaching = list(natlog.enumerate_programs(pair, natlog.NLILabel.ENTAILMENT))
    summary = tracing.summarize(tracer, {"oracle"})
    functions, counts = summary["functions"], summary["counts"]
    assert functions["executor.enumerate_programs"]["calls"] == 1
    assert functions["executor.execute"]["calls"] == 5**pair.m
    assert counts["executor.enumerate_programs.programs_tried"] == 5**pair.m
    assert counts["executor.enumerate_programs.programs_reaching"] == len(reaching)
    assert counts["relations.join.calls"] == pair.m * 5**pair.m
    # self times of all spans add up to the root span's duration
    spans = tracer.arrays()
    duration = (spans["end_ns"] - spans["start_ns"]).astype(float)
    own = tracing.self_times(spans["parent"], duration)
    assert own.min() >= 0
    assert own.sum() == pytest.approx(duration[spans["parent"] == -1].sum())


def test_expected_outputs_cover_every_workload_and_training_seed():
    record = json.loads(run.EXPECTED.read_text())
    for name, workload in run.WORKLOADS.items():
        seeds = [run.FIXED_POLICY_SEED] if workload.noisy else range(run.TRAINING_SEEDS)
        rows = record["workloads"][name]
        assert sorted(rows, key=int) == [str(s) for s in seeds]
        assert all(0 < a <= 1 and 0 < f1 <= 1 for a, f1 in rows.values())


def test_workload_flags_are_derived():
    assert [(w.train, w.floors) for w in run.WORKLOADS.values()] == [
        (True, True), (True, False), (False, False)
    ]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def _expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _run(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _expected("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in _expected("end_to_end").items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines[:-1]), name
    for name in ("test_accuracy", "test_rationale_f1", "error_rate"):
        assert any(line.split()[:1] == [name] for line in lines[:-1]), name


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc = _run("comp-noir", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _expected("per_layer")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trainer.grid_search.calls"] == 0  # comp-noir bypasses IR
    assert metrics["trainer.run_episode.calls"] == 28160
    # one pass of the search over the 1296 test pairs, 5**2 programs each
    assert metrics["executor.enumerate_programs.programs_tried"] == 1296 * 25
    assert metrics["trace.overhead_share"] > 0


def _copy_checkout(tmp_path: Path, sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    if sources:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_output_that_differs_from_expected_counts_as_failed(tmp_path):
    _copy_checkout(tmp_path, sources=True)
    path = tmp_path / "benchmarks" / "expected.json"
    record = json.loads(path.read_text())
    record["workloads"]["comp-noir"]["3"][1] -= 1e-12  # seed 3's rationale F1
    path.write_text(json.dumps(record))
    proc = _run("comp-noir", trace=0, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
    assert "expected at training seed 3" in proc.stderr


def test_refuses_to_run_without_the_sources(tmp_path):
    _copy_checkout(tmp_path, sources=False)
    proc = _run("comp-ir", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
