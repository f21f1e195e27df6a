#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Set-up (imports, BLAS warm-up, inputs, one warm-up call per hot function) is
timed from the start of this script.  The timed body then runs whole passes of
the workload back to back, one caller, each pass starting when the previous
one returned, until --seconds have passed (at least one pass).  Outputs of
every pass are checked against references; a failed check prints
"correct": false and exits 1.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the public functions
of resonet (see layers.py) and prints the per-layer metrics instead.  The last
line of standard output is one JSON object; the lines before it are a
readable summary.  A full record goes to perfbench/out/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 6  # extra set-up-only processes; setup_s is the median of 7
# Set-up is scaled to a machine where `import numpy` takes this long (README,
# "Noise").
NOMINAL_NUMPY_IMPORT_S = 0.1

# Metrics of the readable summary: name -> unit.  The end-to-end metrics in
# BENCHMARK.json are the ones every workload has.
SUMMARY_UNITS = {
    "setup_s": "s", "setup_raw_s": "s", "wall_s": "s", "sample_steps_per_s": "1/s",
    "bins_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms",
    "peak_rss_mb": "MB", "error_rate": "ratio", "accuracy": "ratio",
    "accuracy_quantized": "ratio", "final_loss": "nats",
    "ref_max_rel_dev": "ratio",
    # the same timings at the nominal machine speed (speed.py)
    "wall_norm_s": "s", "item_p50_norm_ms": "ms", "item_tail_norm_ms": "ms",
    "probe_ms": "ms",
}
END_TO_END = ("setup_s", "wall_norm_s", "item_p50_norm_ms", "item_tail_norm_ms",
              "peak_rss_mb")


def set_process_env() -> tuple[int, dict]:
    """Cap every BLAS thread variable at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ[var])
        except (KeyError, ValueError):
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc, {var: os.environ[var] for var in BLAS_VARS}


def environment(np, nproc: int, caps: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = {"nproc": nproc, "python": platform.python_version(),
           "numpy": np.__version__, "blas": blas.get("name"),
           "blas_version": blas.get("version"),
           "blas_config": blas.get("openblas configuration"),
           "blas_threads": caps, "cpu": cpu}
    # Bitwise-identical exports are only promised within one such key.
    env["key"] = "|".join(str(x) for x in (env["numpy"], env["blas_version"],
                                          caps["OPENBLAS_NUM_THREADS"], cpu))
    return env


def warm_blas(np) -> None:
    """Pay the slow start of multithreaded BLAS inside set-up.

    After the machine has idled for a few seconds, the first two-thread GEMMs
    of shape 42x42xK in a process run slowly until about 60000 of K have gone
    through, about 0.9 s in all; after that one 42x42x60000 GEMM takes 8 ms.
    One 42x42x2000 GEMM or a 1000x1000 one pays almost none of it, so this
    repeats the small GEMM 30 times.  Its inputs hold 1.3 MB, below every
    workload's own peak memory, so it does not set `peak_rss_mb`.
    """
    a = np.ones((42, 2000))
    b = np.ones((42, 2000))
    for _ in range(30):
        a @ b.T     # not a @ a.T, which numpy sends to syrk


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  With 10 or fewer samples no
    percentile qualifies and the maximum is reported with 0 beyond.
    """
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0, 0
    k = n - 11
    return v[k], 100.0 * (k + 1) / n, 10


def record_tag(workload: str, seed: int, trace: int, toy: bool) -> str:
    """Stem of the record (and span) files a run writes to OUT."""
    return f"{workload}-seed{seed}-trace{trace}" + ("-toy" if toy else "")


def setup_sample(args) -> tuple[float, float, float]:
    """(scaled, raw, numpy import) set-up times of a set-up-only child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          check=True)
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["setup_raw_s"], sample["numpy_import_s"]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("train", "swept_sine", "ac_sweep", "classify"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy-size inputs, for the harness self-test")
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up only and print its scaled and raw time")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "resonet" / "__init__.py").is_file():
        print(f"run.py: no resonet sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    nproc, caps = set_process_env()
    sys.path.insert(0, str(SRC))
    numpy_import_s = time.perf_counter()
    import numpy as np
    numpy_import_s = time.perf_counter() - numpy_import_s

    import layers
    from speed import SpeedProbe
    from tracer import Tracer
    from workloads import WORKLOADS

    env = environment(np, nproc, caps)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warm_blas(np)
        wl = WORKLOADS[args.workload](args.seed, args.toy, workdir)
        pass_spans, item_spans, outputs = [], [], []
        tracer = probe = None
        if args.trace:
            tracer = Tracer()
            layers.install(tracer)
            wl.mark = lambda item: setattr(tracer, "run_id",
                                           f"{len(pass_spans)}:{item}")
        wl.setup()
        setup_raw_s = time.perf_counter() - T0 - wl.untimed_s
        setup_s = setup_raw_s * NOMINAL_NUMPY_IMPORT_S / numpy_import_s
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s,
                              "numpy_import_s": numpy_import_s}))
            return 0

        if not args.trace:
            probe = SpeedProbe()
            wl.clock = probe.clock
            probe.start()
        attempted = failed = 0
        try:
            body_start = wl.clock()
            while True:
                wl.mark("pass")
                t0 = wl.clock()
                out, spans, n_att, n_fail = wl.run_pass()
                pass_spans.append((t0, wl.clock()))
                outputs.append(out)
                item_spans += spans
                attempted += n_att
                failed += n_fail
                if wl.clock() - body_start >= args.seconds:
                    break
            body_s = wl.clock() - body_start
        finally:
            if probe is not None:
                probe.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.restore()
        passes = [end - start for start, end in pass_spans]
        items = [end - start for start, end in item_spans]

        gates, summary, fingerprint = wl.verify(outputs, env["key"])
        wall_s = statistics.fmean(passes)
        tail_s, tail_pct, beyond = tail(items)
        record = {
            "workload": wl.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "toy": args.toy,
            "env": env, "correct": gates.passed, "attempted": attempted,
            "failed": failed, "passes": len(passes), "pass_s": passes,
            "items": len(items), "item_s": items, "item_tail_percentile": tail_pct,
            "item_tail_beyond": beyond, "body_s": body_s,
            "setup_untimed_s": wl.untimed_s,
            "gates": gates.items, "fingerprint": fingerprint,
        }
        tag = record_tag(wl.name, args.seed, args.trace, args.toy)
        if args.trace:
            calib = layers.train_calibration(wl) if wl.name == "train" else None
            shown = layers.metrics(tracer, len(passes), wall_s, body_s,
                                   wl.layer_extra, calib)
            record["per_layer"] = shown
            tracer.dump(OUT / f"{tag}-spans.json")
        else:
            setup_samples = [(setup_s, setup_raw_s, numpy_import_s)] + [
                setup_sample(args) for _ in range(SETUP_SAMPLES)]
            items_norm = [probe.normalized(*span) for span in item_spans]
            values = {
                "setup_s": statistics.median(s[0] for s in setup_samples),
                "setup_raw_s": statistics.median(s[1] for s in setup_samples),
                "wall_s": wall_s,
                "item_p50_ms": statistics.median(items) * 1e3,
                "item_tail_ms": tail_s * 1e3,
                "wall_norm_s": statistics.fmean(
                    probe.normalized(*span) for span in pass_spans),
                "item_p50_norm_ms": statistics.median(items_norm) * 1e3,
                "item_tail_norm_ms": tail(items_norm)[0] * 1e3,
                "probe_ms": statistics.median(probe.probe_s) * 1e3,
                "peak_rss_mb": peak_rss_mb,
                "error_rate": failed / attempted,
            }
            if "sample_steps_per_pass" in summary:
                values["sample_steps_per_s"] = summary["sample_steps_per_pass"] / wall_s
            if "bins_per_pass" in summary:
                values["bins_per_s"] = summary["bins_per_pass"] / wall_s
            values.update({k: v for k, v in summary.items() if k in SUMMARY_UNITS})
            record["setup_samples_s"] = [s[0] for s in setup_samples]
            record["setup_raw_samples_s"] = [s[1] for s in setup_samples]
            record["numpy_import_samples_s"] = [s[2] for s in setup_samples]
            record["probe_s"] = probe.probe_s.tolist()
            record["metrics"] = {k: {"value": values[k], "unit": u}
                                 for k, u in SUMMARY_UNITS.items() if k in values}
            shown = {k: record["metrics"][k] for k in END_TO_END}
        with open(OUT / f"{tag}.json", "w") as fh:
            json.dump(record, fh, indent=1)

        print(f"# {wl.name} seed={args.seed} passes={len(passes)} items={len(items)} "
              f"tail=p{tail_pct:g} ({beyond} beyond) "
              f"blas_threads={caps['OPENBLAS_NUM_THREADS']} nproc={nproc}")
        for gate in gates.items:
            print(f"# gate {gate['name']}: {'ok' if gate['passed'] else 'FAILED'}"
                  f" value={gate['value']} limit={gate['limit']}")
        for name, m in record.get("metrics", shown).items():
            print(f"{name:45s} {m['value']:.6g} {m['unit']}")
        print(json.dumps({"correct": gates.passed, "attempted": attempted,
                          "failed": failed, "metrics": shown}))
        return 0 if gates.passed else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
