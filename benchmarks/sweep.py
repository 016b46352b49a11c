"""Run the benchmark over several seeds and summarize the spread.

    python3 benchmarks/sweep.py --seeds 0-9 [--workloads comp-ir ...] \
        [--out benchmarks/baseline.json]

For each workload and end-to-end metric it reports the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median, and flags spreads above a third of the metric's bound
in BENCHMARK.json.  Runs are made one at a time, so they do not compete
for the cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, center, q3 = statistics.quantiles(values, n=4)
    return {
        "median": center,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / center if center else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        results = [run_once(spec, workload, s, args.seconds, 0) for s in seeds]
        rows = {}
        for name, bound in bounds.items():
            row = summarize([r["metrics"][name]["value"] for r in results])
            row["unit"] = results[0]["metrics"][name]["unit"]
            row["bound"] = bound
            rows[name] = row
            flag = "" if row["spread"] < bound / 3 else "  <-- above bound/3"
            if flag:
                steady = False
            print(
                f"{workload:<13} {name:<24} median {row['median']:>12.6g} "
                f"{row['unit']:<5} spread {row['spread']:.4f} (bound {bound}){flag}",
                flush=True,
            )
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": rows,
        }
    if args.out:
        environment = json.loads(
            (ROOT / "benchmarks" / "_out" / f"{args.workloads[0]}-seed{seeds[0]}-trace0.json").read_text()
        )["environment"]
        summary["environment"] = {
            k: environment[k]
            for k in ("python", "numpy", "nproc", "machine", "commit", "source_sha256", "fixed_policy")
        }
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
