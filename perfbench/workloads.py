"""The four benchmark workloads.

Each workload builds its inputs in ``setup`` (from the seed, except ``train``,
whose inputs are the stock task by definition), runs one closed-loop pass of
work in ``run_pass`` and checks the outputs of every pass in ``verify``.  Only
``run_pass`` is timed in the body.  Set-up is timed too, except for the
seconds a workload adds to ``untimed_s``: writing input files that a user of
the command would already have on disk.  All calls into resonet go through
module attributes (``signals.load_csv``, never a name imported from the
module), so the traced run sees them.

A pass is split into items for latency: an epoch for ``train``, the single
measurement for ``swept_sine``, a sweep for ``ac_sweep`` and a sample for
``classify``.  ``run_pass`` returns (outputs, item intervals as (start, end) pairs of
``self.clock``, attempted operations, failed operations).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from resonet import acsolver, lattice, signals, simulator, trainer
from resonet.errors import ResonetError

REFERENCE = Path(__file__).resolve().parent / "reference"
TWO_PI = 2.0 * np.pi
CLASS_CENTERS_HZ = (30.0, 50.0, 70.0)

# Tolerances of the reference gates.  Exported element values, per-sample
# energies and AC magnitudes are compared relatively; the criterion-7 number is
# a fraction, compared absolutely.
VALUE_RTOL = 1e-9
C7_ATOL = 1e-6

# The stock task and a toy version of it for the harness self-test.
STOCK = {
    "dataset": signals.DatasetSpec(seed=1),
    "train": trainer.TrainConfig(),
    "sweep": {"f_start_hz": 1.0, "f_end_hz": 100.0},
    "ac_bins": 500,
}
TOY = {
    "dataset": signals.DatasetSpec(seed=1, duration_s=0.25, sigma_s=0.03,
                                   jitter_s=0.03, train_per_class=4,
                                   test_per_class=2),
    "train": trainer.TrainConfig(epochs=2, batch_size=6),
    "sweep": {"f_start_hz": 20.0, "f_end_hz": 30.0,
              "sweep_rate_hz_per_s": 2.0, "window_s": 1.0},
    "ac_bins": 50,
}


def load_fingerprint(toy: bool) -> dict:
    with open(REFERENCE / "fingerprint.json") as fh:
        return json.load(fh)["toy" if toy else "stock"]


def uniform_plant():
    """The criterion-7 plant: default 5x5 grid, every cell at 26.788 Hz."""
    spec = lattice.LatticeSpec.default_grid()
    mech = lattice.MechanicalParams.uniform(spec, 1.307e-3, 3.530e-3, 100.0, 600.0)
    return spec, simulator.assemble(spec, mech)


def system_values(doc: dict) -> np.ndarray:
    """Every element value of a system.json document, plus its scaling."""
    cells = [[c["D_M"], c["D_m"], c["R_n"]] for c in doc["cells"]]
    return np.concatenate([np.ravel(cells), [e["R_c"] for e in doc["edges"]],
                           [doc["scaling"]]])


def channel_peaks_hz(sys_c) -> list[float]:
    """Criterion 6: frequency of each output channel's transmission peak."""
    freqs = np.arange(1.0, 100.0 + 1e-9, 0.05)
    h, _ = acsolver.transmission(sys_c, TWO_PI * freqs)
    return [float(freqs[np.nanargmax(row)]) for row in h]


def c7_worst(sys_m, meas) -> tuple[float, int]:
    """Criterion 7: worst |H| disagreement >= 2 Hz from any resonance."""
    eigs = simulator.eigenfrequencies_hz(sys_m)
    far = np.all(np.abs(meas.freqs_hz[:, None] - eigs[None, :]) >= 2.0, axis=1)
    h_ac, flags = acsolver.transmission(sys_m, TWO_PI * meas.freqs_hz[far])
    if any(flags):
        return float("inf"), int(far.sum())
    return float(np.max(np.abs(meas.h[:, far] - h_ac) / np.abs(h_ac))), int(far.sum())


class Gates:
    """Named pass/fail checks of a run's outputs."""

    def __init__(self):
        self.items: list[dict] = []

    def check(self, name: str, passed: bool, value=None, limit=None) -> None:
        self.items.append({"name": name, "passed": bool(passed),
                           "value": value, "limit": limit})

    @property
    def passed(self) -> bool:
        return all(g["passed"] for g in self.items)


class Workload:
    name = ""
    clock = staticmethod(time.perf_counter)   # run.py swaps in the speed probe's
    untimed_s = 0.0                            # set-up seconds left out of setup_s

    def __init__(self, seed: int, toy: bool, workdir: Path):
        self.seed, self.toy, self.workdir = seed, toy, workdir
        self.size = TOY if toy else STOCK

    def mark(self, item) -> None:
        """Replaced by the traced run to label the spans of each item."""


class Train(Workload):
    name = "train"

    def setup(self) -> None:
        self.spec = lattice.LatticeSpec.default_grid()
        self.cfg = self.size["train"]
        self.dataset = signals.gen_dataset(self.size["dataset"])
        self.heldout = self.dataset.split("test")
        train = self.dataset.split("train")
        dt = 1.0 / train[0].signal.rate_hz
        batch = train[:2]   # warm-up calls only; small, so set-up stays short
        drive, labels = trainer.stack_batch(batch, dt)
        params = trainer.init_params(self.spec, self.cfg, (60.0, 90.0),
                                     np.random.default_rng(0))
        _, _, grad, _ = trainer.loss_and_grad(self.spec, self.cfg, params,
                                              drive, labels, dt)
        trainer.adam_step(params.packed(), grad,
                          trainer.AdamState.fresh(grad.size, self.cfg.lr))
        trainer.evaluate(self.spec, self.cfg, params, batch)
        self.steps_per_pass = (self.cfg.epochs * len(train)
                               * len(train[0].signal.values))

    def run_pass(self):
        stamps = [self.clock()]

        def on_epoch(ckpt):
            stamps.append(self.clock())
            self.mark(f"epoch{ckpt.epoch + 1}")

        self.mark("epoch1")
        result = trainer.train(self.spec, self.dataset, self.cfg, on_epoch=on_epoch)
        self.mark("export")
        exp = trainer.export_trained(self.spec, result.mech, heldout=self.heldout)
        lattice.save_system(self.workdir / "system.json", self.spec,
                            exp.circuit, exp.scaling)
        raw = (self.workdir / "system.json").read_bytes()
        completed = len(result.history)
        return ((result, exp, raw), list(zip(stamps, stamps[1:])),
                self.cfg.epochs, self.cfg.epochs - completed)

    def verify(self, outputs, env_key: str):
        ref = load_fingerprint(self.toy)
        gates = Gates()
        result, exp, raw = outputs[0]
        gates.check("passes_identical", all(o[2] == raw for o in outputs))
        with open(REFERENCE / ref["system"]) as fh:
            ref_values = system_values(json.load(fh))
        dev = float(np.max(np.abs(system_values(json.loads(raw)) - ref_values)
                           / np.abs(ref_values)))
        gates.check("ref_max_rel_dev", dev <= VALUE_RTOL, dev, VALUE_RTOL)
        sha = hashlib.sha256(raw).hexdigest()
        if env_key == ref["env_key"]:
            gates.check("system_sha256", sha == ref["system_sha256"], sha,
                        ref["system_sha256"])
        gates.check("accuracy", exp.accuracy_exact == ref["accuracy"],
                    exp.accuracy_exact, ref["accuracy"])
        gates.check("accuracy_quantized",
                    exp.accuracy_quantized == ref["accuracy_quantized"],
                    exp.accuracy_quantized, ref["accuracy_quantized"])
        peaks = channel_peaks_hz(simulator.assemble(self.spec, exp.circuit))
        offsets = [p - c for p, c in zip(peaks, CLASS_CENTERS_HZ)]
        gates.check("c6_peaks_hz", peaks == ref["c6_peaks_hz"], peaks,
                    ref["c6_peaks_hz"])
        if not self.toy:
            gates.check("c6_within_5hz", max(abs(o) for o in offsets) <= 5.0,
                        offsets, 5.0)
        summary = {
            "sample_steps_per_pass": self.steps_per_pass,
            "accuracy": exp.accuracy_exact,
            "accuracy_quantized": exp.accuracy_quantized,
            "final_loss": result.history[-1]["loss"],
            "ref_max_rel_dev": dev,
        }
        fingerprint = {
            "accuracy": exp.accuracy_exact,
            "accuracy_quantized": exp.accuracy_quantized,
            "c6_peak_offsets_hz": offsets,
            "system_sha256": sha,
            "system_sha256_gated": env_key == ref["env_key"],
        }
        self.layer_extra = {
            "trainer.epochs_completed_ratio": len(result.history) / self.cfg.epochs,
            "lattice.system_json_bytes": len(raw),
        }
        return gates, summary, fingerprint


class SweptSine(Workload):
    name = "swept_sine"

    def setup(self) -> None:
        self.spec, self.sys = uniform_plant()
        # The drive level cancels out of |H|, so every seed measures the same
        # transfer function through a different input waveform.
        rng = np.random.default_rng(self.seed)
        self.amplitude = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
        warm = signals.gen_sweep(20.0, 21.0, 1.25, 4000.0, amplitude=self.amplitude)
        simulator.run(self.sys, signals.Signal(4000.0, 1e-6 * warm.values, "A"))
        signals.stft(warm, 1.0, window="nuttall")
        kw = dict(self.size["sweep"])
        rate = kw.get("sweep_rate_hz_per_s", 0.25)
        pad = rate * kw.get("window_s", 4.0)
        span = kw["f_end_hz"] + pad - max(kw["f_start_hz"] - pad, 0.0)
        self.steps_per_pass = int(round(span / rate * 4000.0))

    def run_pass(self):
        t0 = self.clock()
        meas = signals.measure_transfer(self.sys, amplitude=self.amplitude,
                                        **self.size["sweep"])
        return meas, [(t0, self.clock())], 1, 0

    def verify(self, outputs, env_key: str):
        ref = load_fingerprint(self.toy)
        gates = Gates()
        gates.check("passes_identical",
                    all(np.array_equal(o.h, outputs[0].h) for o in outputs))
        worst, n_far = c7_worst(self.sys, outputs[0])
        gates.check("ref_max_rel_dev", abs(worst - ref["c7_worst"]) <= C7_ATOL,
                    worst, [ref["c7_worst"] - C7_ATOL, ref["c7_worst"] + C7_ATOL])
        if not self.toy:
            gates.check("c7_within_5pct", worst <= 0.05 and n_far >= 30, worst, 0.05)
        summary = {"sample_steps_per_pass": self.steps_per_pass,
                   "ref_max_rel_dev": worst}
        self.layer_extra = {}
        return gates, summary, {"c7_worst": worst, "c7_points": n_far}


class AcSweep(Workload):
    name = "ac_sweep"

    def setup(self) -> None:
        self.spec, circ, _ = lattice.load_system(REFERENCE / "system.json")
        # Each seed sweeps its own plant: the reference system with every
        # element value jittered by 1 % (log-normal).
        rng = np.random.default_rng(self.seed)

        def jitter(a):
            return a * np.exp(0.01 * rng.standard_normal(len(a)))

        circ = lattice.CircuitParams(jitter(circ.d_outer), jitter(circ.d_inner),
                                     jitter(circ.r_internal), jitter(circ.r_coupling))
        self.sys = simulator.assemble(self.spec, circ)
        self.omegas = TWO_PI * np.linspace(1.0, 100.0, self.size["ac_bins"])
        acsolver.transmission(self.sys, self.omegas[:5])

    def run_pass(self):
        t0 = self.clock()
        h, flags = acsolver.transmission(self.sys, self.omegas)
        return (h, flags), [(t0, self.clock())], len(flags), flags.count("singular")

    def dense_reference(self):
        """Per-bin dense solve and the guard set from a direct eigensolve."""
        sys = self.sys
        scale = 1.0 / np.sqrt(sys.inertia)
        lam = np.linalg.eigvalsh(sys.stiffness * scale[:, None] * scale[None, :])
        eig_hz = np.sqrt(np.clip(lam, 0.0, None)) / TWO_PI
        rhs = np.zeros(sys.n_dof)
        rhs[sys.input_dof] = 1.0
        out = list(sys.output_dofs)
        h = np.full((len(out), len(self.omegas)), np.nan)
        guard = np.zeros(len(self.omegas), dtype=bool)
        for j, w in enumerate(self.omegas):
            if np.any(np.abs(eig_hz - w / TWO_PI) < acsolver.GUARD_BAND_HZ):
                guard[j] = True
                continue
            v = np.linalg.solve(sys.stiffness - w * w * np.diag(sys.inertia), rhs)
            h[:, j] = np.abs(v[out])
        return h, guard

    def verify(self, outputs, env_key: str):
        gates = Gates()
        h, flags = outputs[0]
        gates.check("passes_identical", all(
            np.array_equal(o[0], h, equal_nan=True) and o[1] == flags
            for o in outputs))
        h_ref, guard = self.dense_reference()
        gates.check("guard_bins", [f == "guard" for f in flags] == guard.tolist(),
                    flags.count("guard"), int(guard.sum()))
        both = np.isfinite(h) & np.isfinite(h_ref)
        peak = np.nanmax(h_ref, axis=1, keepdims=True)
        dev = float(np.max(np.abs(h - h_ref)[both] / np.broadcast_to(peak, h.shape)[both]))
        gates.check("ref_max_rel_dev", dev <= VALUE_RTOL, dev, VALUE_RTOL)
        summary = {"bins_per_pass": len(flags), "ref_max_rel_dev": dev}
        self.layer_extra = {}
        return gates, summary, {"guard_bins": flags.count("guard"),
                                "singular_bins": flags.count("singular")}


class Classify(Workload):
    name = "classify"

    def setup(self) -> None:
        self.spec, circ, _ = lattice.load_system(REFERENCE / "system.json")
        self.sys = simulator.assemble(self.spec, circ)
        dspec = dataclasses.replace(self.size["dataset"], seed=self.seed)
        self.heldout = signals.gen_dataset(dspec).split("test")
        t0 = time.perf_counter()
        manifest = signals.save_dataset(signals.Dataset(dspec, self.heldout),
                                        self.workdir / "heldout")
        self.untimed_s = time.perf_counter() - t0
        with open(manifest) as fh:
            doc = json.load(fh)
        self.rate = float(doc["rate"])
        self.files = [(str(manifest.parent / e["path"]), e["label"])
                      for e in doc["samples"]]
        self._classify(self.files[0][0])
        self.steps_per_pass = sum(len(s.signal.values) for s in self.heldout)

    def _classify(self, path):
        sig = signals.load_csv(path, rate=self.rate)
        traj = simulator.run(self.sys, sig)
        energies = simulator.integrate_energy(traj, traj.dofs)
        return energies, simulator.classify(energies)[0]

    def run_pass(self):
        n_ch = len(self.spec.outputs)
        energies = np.full((len(self.files), n_ch), np.nan)
        preds = np.full(len(self.files), -1)
        items, failed = [], 0
        for i, (path, _) in enumerate(self.files):
            self.mark(f"sample{i}")
            t0 = self.clock()
            try:
                energies[i], preds[i] = self._classify(path)
            except ResonetError:   # typed errors and undecidable samples
                failed += 1
            items.append((t0, self.clock()))
        return (energies, preds), items, len(self.files), failed

    def verify(self, outputs, env_key: str):
        gates = Gates()
        energies, preds = outputs[0]
        gates.check("passes_identical", all(
            np.array_equal(o[0], energies, equal_nan=True)
            and np.array_equal(o[1], preds) for o in outputs))
        batched = trainer.evaluate_system(self.sys, self.heldout)
        e_ref = batched.energies.T
        dev = float(np.max(np.abs(energies - e_ref)
                           / np.max(e_ref, axis=1, keepdims=True)))
        gates.check("ref_max_rel_dev", dev <= VALUE_RTOL, dev, VALUE_RTOL)
        gates.check("predictions_match_batched",
                    np.array_equal(preds, batched.predictions))
        labels = np.array([label for _, label in self.files])
        accuracy = float(np.mean(preds == labels))
        summary = {"sample_steps_per_pass": self.steps_per_pass,
                   "accuracy": accuracy, "ref_max_rel_dev": dev}
        self.layer_extra = {}
        return gates, summary, {"accuracy": accuracy}


WORKLOADS = {w.name: w for w in (Train, SweptSine, AcSweep, Classify)}
