#!/usr/bin/env python3
"""Run all four workloads, untraced and traced, and print every metric.

    python3 perfbench/suite.py --seed 1 --seconds 10 --label seed-commit

Each workload runs in its own process twice: untraced for the end-to-end
metrics, then traced for the per-layer metrics.  Tracing overhead is the
traced run's wall_s minus the untraced run's.  Everything, with the
environment record and the behaviour fingerprint, is written to
perfbench/out/BENCH_<label>.json.  Exits 1 if any run failed a check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

WORKLOADS = ("train", "swept_sine", "ac_sweep", "classify")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name} (trace {trace}) exited {proc.returncode}")
    with open(run.OUT / f"{run.record_tag(name, seed, trace, False)}.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--label", default="latest")
    args = ap.parse_args(argv)

    with open(run.BENCH.parent / "BENCHMARK.json") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    report = {"seed": args.seed, "seconds": args.seconds,
              "workloads": {}, "fingerprint": {}}
    correct = True
    for name in WORKLOADS:
        plain = run_workload(name, args.seed, args.seconds, 0)
        traced = run_workload(name, args.seed, args.seconds, 1)
        wall = plain["metrics"]["wall_s"]["value"]
        overhead = traced["per_layer"]["trace.wall_s"]["value"] - wall
        report["env"] = plain["env"]
        report["fingerprint"][name] = plain["fingerprint"]
        report["workloads"][name] = {
            "why": why[name], "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"], "failed": plain["failed"],
            "items": plain["items"],
            "item_tail_percentile": plain["item_tail_percentile"],
            "end_to_end": plain["metrics"], "per_layer": traced["per_layer"],
            "trace_overhead_s": overhead, "trace_overhead_ratio": overhead / wall,
            "gates": plain["gates"] + traced["gates"],
        }
        correct &= report["workloads"][name]["correct"]

        print(f"== {name}: {'correct' if plain['correct'] and traced['correct'] else 'INCORRECT'}, "
              f"{plain['attempted']} attempted, {plain['failed']} failed, "
              f"{plain['items']} items (tail = p{plain['item_tail_percentile']:g})")
        for metric, m in plain["metrics"].items():
            print(f"  {metric:45s} {m['value']:.6g} {m['unit']}")
        for metric, m in traced["per_layer"].items():
            if m["value"]:
                print(f"  {metric:45s} {m['value']:.6g} {m['unit']}")
        print(f"  {'trace.overhead_s':45s} {overhead:.6g} s ({overhead / wall:+.2%} of wall_s)")

    env = report["env"]
    print(f"== environment: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} {env['blas']} {env['blas_version']} "
          f"threads={env['blas_threads']}")
    print(f"== fingerprint: {json.dumps(report['fingerprint'])}")
    path = run.OUT / f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"== wrote {path}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
