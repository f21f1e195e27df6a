"""Which public functions the traced run wraps, and the per-layer metrics.

Every metric is per pass of the timed body (totals divided by the number of
passes), so it compares directly with that workload's ``wall_s``.  Layers a
workload never calls read 0.  The arrows say which end-to-end metric each
layer should move; see README.md.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np

from resonet import acsolver, lattice, signals, simulator, trainer


def _run_steps(args, kwargs, result):
    return {"steps": len(result.values)}


def _samples_steps(pos):
    def work(args, kwargs, result):
        return {"sample_steps": sum(len(s.signal.values) for s in args[pos])}
    return work


def _flag_counts(args, kwargs, result):
    flags = result[1]
    return {"bins": len(flags), "guard": flags.count("guard"),
            "singular": flags.count("singular")}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, work counter).  Names another module imported
# under its own name are wrapped in that module too (acsolver's
# eigenfrequencies_hz, trainer's export helpers from lattice).  The private
# stepping helpers trainer._forward_hist and _grad_from_hist are left alone;
# the forward/adjoint split is derived from the public functions instead.
WRAPPED = [
    (simulator, "run", "simulator.run", _run_steps),
    (simulator, "assemble", "simulator.assemble", None),
    (simulator, "max_stable_dt", "simulator.eig", None),
    (simulator, "natural_frequencies", "simulator.eig", None),
    (simulator, "eigenfrequencies_hz", "simulator.eig", None),
    (acsolver, "eigenfrequencies_hz", "simulator.eig", None),
    (simulator, "integrate_energy", "simulator.integrate_energy", None),
    (simulator, "classify", "simulator.classify", None),
    (trainer, "train", "trainer.train", None),
    (trainer, "loss_and_grad", "trainer.loss_and_grad",
     lambda args, kwargs, result: {"sample_steps": args[3].size}),
    (trainer, "evaluate", "trainer.evaluate", _samples_steps(3)),
    (trainer, "evaluate_system", "trainer.evaluate", _samples_steps(1)),
    (trainer, "adam_step", "trainer.adam_step", None),
    (trainer, "export_trained", "trainer.export_trained", None),
    (trainer, "choose_scaling", "lattice.export", None),
    (trainer, "mech_to_circuit", "lattice.export", None),
    (trainer, "quantize_eseries", "lattice.export", None),
    (lattice, "save_system", "lattice.export", None),
    (acsolver, "transmission", "acsolver.transmission", _flag_counts),
    (acsolver, "ac_solve", "acsolver.ac_solve", None),
    (signals, "measure_transfer", "signals.measure_transfer", None),
    (signals, "stft", "signals.stft", None),
    (signals, "gen_sweep", "signals.gen_sweep", None),
    (signals, "gen_dataset", "signals.gen_dataset", None),
    (signals, "load_csv", "signals.load_csv", _file_bytes),
]

# name -> unit, in report order
METRICS = {
    "simulator.run.calls": "count",
    "simulator.run.self_s": "s",
    "simulator.run.ns_per_step": "ns",
    "simulator.assemble.calls": "count",
    "simulator.assemble.self_s": "s",
    "simulator.eig.calls": "count",
    "simulator.eig.self_s": "s",
    "trainer.loss_and_grad.calls": "count",
    "trainer.loss_and_grad.self_s": "s",
    "trainer.loss_and_grad.ns_per_sample_step": "ns",
    "trainer.loss_and_grad.peak_alloc_mb": "MB",
    "trainer.evaluate.self_s": "s",
    "trainer.evaluate.ns_per_sample_step": "ns",
    "trainer.adjoint_ns_per_sample_step": "ns",
    "trainer.adam_step.self_s": "s",
    "trainer.epochs_completed_ratio": "ratio",
    "acsolver.ac_solve.calls": "count",
    "acsolver.ac_solve.self_s": "s",
    "acsolver.ac_solve.us_per_call": "us",
    "acsolver.transmission.self_s": "s",
    "acsolver.solved_bin_ratio": "ratio",
    "acsolver.guard_bins": "count",
    "acsolver.singular_bins": "count",
    "signals.stft.calls": "count",
    "signals.stft.self_s": "s",
    "signals.load_csv.calls": "count",
    "signals.load_csv.self_s": "s",
    "signals.load_csv.bytes": "B",
    "signals.gen_dataset.self_s": "s",
    "signals.gen_sweep.self_s": "s",
    "lattice.export.self_s": "s",
    "lattice.system_json_bytes": "B",
    "trace.wall_s": "s",
    "trace.named_share": "ratio",
    "trace.spans": "count",
}

# Layers whose self time the named share adds up.
NAMED = ("simulator.run", "simulator.assemble", "simulator.eig",
         "trainer.loss_and_grad", "trainer.evaluate", "trainer.adam_step",
         "acsolver.ac_solve", "acsolver.transmission", "signals.stft",
         "signals.load_csv", "lattice.export")


def install(tracer) -> None:
    for module, attr, name, work in WRAPPED:
        tracer.wrap(module, attr, name, work)


def _ratio(num, den):
    return num / den if den else 0.0


def train_calibration(workload) -> dict:
    """Untraced calls that split loss_and_grad into forward and adjoint.

    The forward cost at the training batch width comes from the public
    evaluate_system (minus its eigensolve, timed through max_stable_dt); the
    peak allocation of one loss_and_grad call comes from tracemalloc.
    """
    spec, cfg = workload.spec, workload.cfg
    batch = workload.dataset.split("train")[:cfg.batch_size]
    dt = 1.0 / batch[0].signal.rate_hz
    drive, labels = trainer.stack_batch(batch, dt)
    params = trainer.init_params(spec, cfg, (60.0, 90.0), np.random.default_rng(0))
    sys = simulator.assemble(spec, trainer.mech_from_params(spec, cfg, params))
    fwd, eig = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        trainer.evaluate_system(sys, batch, cfg.prob_epsilon)
        t1 = time.perf_counter()
        simulator.max_stable_dt(sys)
        eig.append(time.perf_counter() - t1)
        fwd.append(t1 - t0)
    tracemalloc.start()
    try:
        trainer.loss_and_grad(spec, cfg, params, drive, labels, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"forward_ns_per_sample_step":
            (np.median(fwd) - np.median(eig)) / drive.size * 1e9,
            "peak_alloc_mb": peak / 2**20}


def metrics(tracer, passes: int, traced_wall_s: float, body_s: float,
            extra: dict, calibration: dict | None) -> dict:
    """Per-layer metrics of one traced run, per pass of the timed body."""
    body = tracer.layer_totals()
    every = tracer.layer_totals(with_setup=True)
    work = tracer.work

    def total(name, key):
        return body.get(name, {}).get(key, 0.0) / passes

    out = {}
    for name in ("simulator.run", "simulator.assemble", "simulator.eig",
                 "trainer.loss_and_grad", "acsolver.ac_solve", "signals.stft",
                 "signals.load_csv"):
        out[f"{name}.calls"] = total(name, "calls")
        out[f"{name}.self_s"] = total(name, "self_s")
    for name in ("trainer.evaluate", "trainer.adam_step",
                 "acsolver.transmission", "lattice.export"):
        out[f"{name}.self_s"] = total(name, "self_s")
    for name in ("signals.gen_dataset", "signals.gen_sweep"):
        out[f"{name}.self_s"] = every.get(name, {}).get("self_s", 0.0)

    steps = work["simulator.run.steps"] / passes
    out["simulator.run.ns_per_step"] = _ratio(out["simulator.run.self_s"], steps) * 1e9
    lg_steps = work["trainer.loss_and_grad.sample_steps"] / passes
    out["trainer.loss_and_grad.ns_per_sample_step"] = _ratio(
        out["trainer.loss_and_grad.self_s"], lg_steps) * 1e9
    ev_steps = work["trainer.evaluate.sample_steps"] / passes
    out["trainer.evaluate.ns_per_sample_step"] = _ratio(
        out["trainer.evaluate.self_s"], ev_steps) * 1e9
    if calibration is not None:
        out["trainer.loss_and_grad.peak_alloc_mb"] = calibration["peak_alloc_mb"]
        out["trainer.adjoint_ns_per_sample_step"] = (
            out["trainer.loss_and_grad.ns_per_sample_step"]
            - calibration["forward_ns_per_sample_step"])
    else:
        out["trainer.loss_and_grad.peak_alloc_mb"] = 0.0
        out["trainer.adjoint_ns_per_sample_step"] = 0.0
    out["acsolver.ac_solve.us_per_call"] = _ratio(
        out["acsolver.ac_solve.self_s"], out["acsolver.ac_solve.calls"]) * 1e6
    bins = work["acsolver.transmission.bins"]
    guard = work["acsolver.transmission.guard"]
    singular = work["acsolver.transmission.singular"]
    out["acsolver.solved_bin_ratio"] = _ratio(bins - guard - singular, bins)
    out["acsolver.guard_bins"] = guard / passes
    out["acsolver.singular_bins"] = singular / passes
    out["signals.load_csv.bytes"] = work["signals.load_csv.bytes"] / passes
    out["trainer.epochs_completed_ratio"] = extra.get("trainer.epochs_completed_ratio", 0.0)
    out["lattice.system_json_bytes"] = extra.get("lattice.system_json_bytes", 0)
    out["trace.wall_s"] = traced_wall_s
    out["trace.named_share"] = _ratio(
        sum(body.get(n, {}).get("self_s", 0.0) for n in NAMED), body_s)
    out["trace.spans"] = len(tracer.spans)
    return {name: {"value": out[name], "unit": unit} for name, unit in METRICS.items()}
