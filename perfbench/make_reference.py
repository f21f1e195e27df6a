#!/usr/bin/env python3
"""Regenerate the reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Runs the stock training (stock dataset seed 1, stock TrainConfig) and its
export, and the criterion-7 swept-sine measurement at unit drive amplitude,
at stock and at toy size, with the same BLAS thread cap as run.py.  Writes
system.json (the reference trained system that ac_sweep and classify load),
toy_system.json and fingerprint.json.  Takes about a minute; regenerate only
in a change whose purpose is to move the reference, and say why.
"""

import hashlib
import json
import shutil
import sys

import run


def main() -> int:
    nproc, caps = run.set_process_env()
    sys.path.insert(0, str(run.SRC))
    import numpy as np

    from resonet import simulator
    from workloads import REFERENCE, SweptSine, Train, c7_worst, channel_peaks_hz

    env = run.environment(np, nproc, caps)
    workdir = run.OUT / "make-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    fingerprint = {}
    try:
        for size, name in (("stock", "system.json"), ("toy", "toy_system.json")):
            toy = size == "toy"
            train = Train(0, toy, workdir)
            train.setup()
            (result, exp, raw), *_ = train.run_pass()
            (REFERENCE / name).write_bytes(raw)
            sweep = SweptSine(0, toy, workdir)
            sweep.setup()
            sweep.amplitude = 1.0
            worst, _ = c7_worst(sweep.sys, sweep.run_pass()[0])
            fingerprint[size] = {
                "env_key": env["key"],
                "system": name,
                "system_sha256": hashlib.sha256(raw).hexdigest(),
                "accuracy": exp.accuracy_exact,
                "accuracy_quantized": exp.accuracy_quantized,
                "final_loss": result.history[-1]["loss"],
                "c6_peaks_hz": channel_peaks_hz(
                    simulator.assemble(train.spec, exp.circuit)),
                "c7_worst": worst,
            }
            print(size, json.dumps(fingerprint[size]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE / "fingerprint.json", "w") as fh:
        json.dump(fingerprint, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
