#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy size.

    python3 perfbench/selftest.py

1. Runs every workload at toy size, untraced and traced, and checks that the
   last line carries exactly the metrics BENCHMARK.json declares, with their
   units, and that the readable summary names the twelve end-to-end metrics
   and the speed-normalized timings, with their units, across the four
   workloads.
2. Perturbs each workload's output after a real pass and checks that the
   ref_max_rel_dev gate then fails, and passes on the untouched output.
3. Runs run.py in a directory holding only BENCHMARK.json and perfbench/ and
   checks that it fails without printing a result.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import run

ROOT = run.BENCH.parent
PER_WORKLOAD = {
    "train": {"sample_steps_per_s", "accuracy", "accuracy_quantized", "final_loss"},
    "swept_sine": {"sample_steps_per_s"},
    "ac_sweep": {"bins_per_s"},
    "classify": {"sample_steps_per_s", "accuracy"},
}
COMMON = {"setup_s", "setup_raw_s", "wall_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb",
          "error_rate", "ref_max_rel_dev", "wall_norm_s", "item_p50_norm_ms",
          "item_tail_norm_ms", "probe_ms"}


def check_printed_metrics(declared: dict) -> None:
    seen = set()
    for name, extra in PER_WORKLOAD.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
                 "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--toy"],
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, (name, trace, proc.stderr[-2000:])
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["attempted"] >= 1
            units = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, (name, trace, set(got) ^ set(units))
            for v in result["metrics"].values():
                assert isinstance(v["value"], (int, float))
            if trace == 0:
                printed = {ln.split()[0]: ln.split()[-1] for ln in lines[:-1]
                           if not ln.startswith("#")}
                want = COMMON | extra
                assert want <= set(printed), (name, want - set(printed))
                for metric in want:
                    assert printed[metric] == run.SUMMARY_UNITS[metric], metric
                seen |= want
        print(f"ok  {name}: metrics printed with units, untraced and traced")
    assert seen == set(run.SUMMARY_UNITS), set(run.SUMMARY_UNITS) - seen
    print(f"ok  all {len(seen)} summary metrics printed across the workloads")


def check_gates_catch_perturbation() -> None:
    nproc, caps = run.set_process_env()
    sys.path.insert(0, str(run.SRC))
    import numpy as np

    from workloads import WORKLOADS

    def bump_system(out):
        result, exp, raw = out
        doc = json.loads(raw)
        doc["cells"][6]["R_n"] *= 1.0 + 1e-6
        return result, exp, json.dumps(doc).encode()

    perturb = {
        "train": bump_system,
        "swept_sine": lambda m: dataclasses.replace(m, h=m.h * (1.0 + 1e-3)),
        "ac_sweep": lambda out: (out[0] * (1.0 + 1e-6), out[1]),
        "classify": lambda out: (out[0] * (1.0 + 1e-6), out[1]),
    }
    env_key = run.environment(np, nproc, caps)["key"]
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, bump in perturb.items():
            wl = WORKLOADS[name](3, True, workdir)
            wl.setup()
            out = wl.run_pass()[0]
            gates = wl.verify([out], env_key)[0]
            assert gates.passed, (name, gates.items)
            gates = wl.verify([bump(out)], env_key)[0]
            dev = next(g for g in gates.items if g["name"] == "ref_max_rel_dev")
            assert not dev["passed"] and not gates.passed, (name, dev)
            print(f"ok  {name}: ref_max_rel_dev gate fails on a perturbed output "
                  f"({dev['value']:.3g} vs limit {dev['limit']})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / run.BENCH.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "ac_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok  without the sources run.py exits "
              f"{proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    check_printed_metrics(declared)
    check_gates_catch_perturbation()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
