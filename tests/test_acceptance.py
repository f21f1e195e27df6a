"""End-to-end acceptance gate: ten numbered checks, one verdict line each.

Every test emits a single machine-readable line

    CRITERION <n>: PASS|FAIL - <measured values vs. limits>

and then asserts.  The lines are echoed in an "acceptance criteria" section
at the end of the pytest run (see conftest.pytest_terminal_summary), so a
plain pytest run doubles as the acceptance report.
"""

from __future__ import annotations

import time

import numpy as np

from resonet import acsolver, signals, simulator, trainer, unitcell
from resonet.errors import NearResonanceError, PoleError
from resonet.lattice import (
    LatticeSpec,
    ScalingFactor,
    choose_scaling,
    mech_to_circuit,
)
from resonet.signals import Sample, Signal
from resonet.unitcell import UnitCellParams

import conftest
from conftest import random_small_system

TWO_PI = 2.0 * np.pi


def _report(num: int, passed: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, line


# -- 1: reference cell lands on the published resonances, instantly ----------

def test_criterion_01_reference_cell_resonances(ref_cell):
    w0, w1 = unitcell.resonance_freqs(ref_cell)
    f0, f1 = w0 / TWO_PI, w1 / TWO_PI
    best = np.inf
    for _ in range(200):
        t0 = time.perf_counter()
        unitcell.resonance_freqs(ref_cell)
        best = min(best, time.perf_counter() - t0)
    passed = abs(f0 - 26.8) <= 0.1 and abs(f1 - 51.5) <= 0.1 and best < 1e-3
    _report(1, passed,
            f"f0={f0:.3f} Hz, f1={f1:.3f} Hz (targets 26.8/51.5 +/- 0.1), "
            f"solve time {best * 1e6:.1f} us (< 1 ms)")


# -- 2: effective-element sign structure on a dense grid ---------------------

def test_criterion_02_effective_element_signs(ref_cell):
    w0, w1 = unitcell.resonance_freqs(ref_cell)
    om = np.linspace(0.05 * w0, 1.75 * w1, 10_000)
    for pole in (w0, w1):  # keep the vectorised calls clear of the poles
        hit = np.abs(om - pole) < 1e-9 * pole
        om[hit] = pole * (1.0 + 1e-6)
    below = om < w0
    mid = (om > w0) & (om < w1)

    z = unitcell.z_eff(ref_cell, om)
    z_signs_ok = bool(np.all(z[below] < 0.0) and np.all(z[mid] > 0.0))
    z_zero_exact = unitcell.z_eff(ref_cell, w0) == 0.0
    try:
        unitcell.z_eff(ref_cell, w1)
        z_pole_ok = False
    except PoleError:
        z_pole_ok = True

    d = unitcell.d_eff(ref_cell, om)
    flips = np.flatnonzero(np.sign(d[1:]) != np.sign(d[:-1]))
    d_ok = (
        len(flips) == 2
        and om[flips[0]] < w0 < om[flips[0] + 1]
        and om[flips[1]] < w1 < om[flips[1] + 1]
    )

    passed = z_signs_ok and z_zero_exact and z_pole_ok and d_ok
    _report(2, passed,
            f"on a 10000-pt grid: z_eff < 0 below f0 ({int(below.sum())} pts), "
            f"= 0 exactly at f0, > 0 between f0 and f1 ({int(mid.sum())} pts), "
            f"pole at f1; d_eff changes sign exactly at f0 and f1")


# -- 3: the three form equivalences hold to 1e-12 ----------------------------

def test_criterion_03_form_equivalences(ref_cell):
    rng = np.random.default_rng(7)
    cells = [ref_cell] + [
        UnitCellParams(d_outer=10.0 ** rng.uniform(-12, -10),
                       d_inner=10.0 ** rng.uniform(-12, -10),
                       r_internal=10.0 ** rng.uniform(5, 7))
        for _ in range(5)
    ]
    worst_z = worst_h = 0.0
    for cell in cells:
        w0, w1 = unitcell.resonance_freqs(cell)
        om = np.geomspace(0.1 * w0, 5.0 * w1, 400)
        om = om[(np.abs(om - w0) > 1e-4 * w0) & (np.abs(om - w1) > 1e-4 * w1)]
        z_closed = unitcell.z_eff(cell, om)
        z_from_d = -1.0 / (om ** 2 * unitcell.d_eff(cell, om))
        worst_z = max(worst_z, float(np.max(
            np.abs(z_closed - z_from_d) / np.abs(z_from_d))))
        h = unitcell.transfer_h(cell, om)
        bz = unitcell.beta(cell, om) * z_closed
        worst_h = max(worst_h, float(np.max(np.abs(h - bz) / np.abs(h))))

    rng = np.random.default_rng(42)
    worst_step = 0.0
    for _ in range(20):
        _, _, sys_m = random_small_system(rng)
        dt = 0.4 * simulator.max_stable_dt(sys_m)
        sig = Signal(rate_hz=1.0 / dt, values=rng.standard_normal(200))
        a = simulator.run(sys_m, sig, "all").values
        b = simulator.run_rnn(sys_m, sig, "all").values
        scale = max(1.0, float(np.max(np.abs(a))))
        worst_step = max(worst_step, float(np.max(np.abs(a - b))) / scale)

    passed = worst_z <= 1e-12 and worst_h <= 1e-12 and worst_step <= 1e-12
    _report(3, passed,
            f"impedance forms agree to {worst_z:.2e}, H = beta*Z to "
            f"{worst_h:.2e}, circuit vs. matrix stepping to {worst_step:.2e} "
            f"on 20 random systems (all <= 1e-12)")


# -- 4: backprop gradient matches central finite differences -----------------

def test_criterion_04_gradient_matches_finite_differences():
    t_start = time.perf_counter()
    spec = LatticeSpec(rows=2, cols=2, grounded=(), input_cell=0,
                       outputs=(2, 3))
    cfg = trainer.TrainConfig()
    params = trainer.init_params(spec, cfg, (25.0, 75.0),
                                 np.random.default_rng(3))
    rate, n_steps = 2000.0, 500
    duration = n_steps / rate
    drive = np.stack([
        signals.gen_pulse(rate, duration, 30.0, 0.05).values,
        signals.gen_pulse(rate, duration, 50.0, 0.05).values,
    ], axis=1)
    labels = np.array([0, 1])
    dt = 1.0 / rate

    _, _, grad, _ = trainer.loss_and_grad(spec, cfg, params, drive, labels, dt)
    vec = params.packed()
    fd = np.zeros_like(vec)
    h = 1e-6
    for i in range(vec.size):
        for sign in (1.0, -1.0):
            pert = vec.copy()
            pert[i] += sign * h
            loss = trainer.loss_and_grad(spec, cfg, params.from_packed(pert),
                                         drive, labels, dt)[0]
            fd[i] += sign * loss / (2.0 * h)
    rel = float(np.max(np.abs(grad - fd)) / np.max(np.abs(fd)))
    elapsed = time.perf_counter() - t_start
    _report(4, rel < 1e-4 and elapsed < 10.0,
            f"max relative gradient error {rel:.2e} (< 1e-4) across "
            f"{vec.size} parameters, 2x2 lattice, {n_steps}-step batch, "
            f"{elapsed:.2f}s (< 10s)")


# -- 5: the stock classifier reaches 95% held-out accuracy -------------------

def test_criterion_05_heldout_accuracy(trained):
    heldout = trained["dataset"].split("test")
    res = trainer.evaluate(trained["spec"], trained["cfg"],
                           trained["result"].params, heldout)
    secs = trained["train_seconds"]
    passed = res.accuracy >= 0.95 and len(heldout) == 60 and secs <= 900.0
    _report(5, passed,
            f"held-out accuracy {res.accuracy:.1%} on {len(heldout)} samples "
            f"(>= 95%), trained in {secs:.0f}s (<= 900s)")


# -- 6: each output channel is tuned to its class band -----------------------

def test_criterion_06_output_channels_tuned_to_classes(trained):
    spec, mech = trained["spec"], trained["mech"]
    circ = mech_to_circuit(mech, choose_scaling(mech, 1e6))
    sys_c = simulator.assemble(spec, circ)
    freqs = np.arange(1.0, 100.0 + 1e-9, 0.05)
    h, _flags = acsolver.transmission(sys_c, TWO_PI * freqs)
    centers = (30.0, 50.0, 70.0)
    peaks = [float(freqs[np.nanargmax(h[j])]) for j in range(len(centers))]
    peaks_ok = all(abs(p - c) <= 5.0 for p, c in zip(peaks, centers))

    try:
        sol = acsolver.ac_solve(sys_c, TWO_PI * 70.0)
        out_amps = np.abs(
            acsolver.branch_currents(sys_c, circ, sol).internal_current
        )[list(spec.outputs)]
        branch_ok = (int(np.argmax(out_amps)) == 2
                     and out_amps[2] > out_amps[0]
                     and out_amps[2] > out_amps[1])
        branch_note = ("output-branch currents at 70 Hz: "
                       + "/".join(f"{a:.3e}" for a in out_amps) + " A")
    except NearResonanceError as exc:
        branch_ok = False
        branch_note = f"70 Hz branch solve failed: {exc}"

    _report(6, peaks_ok and branch_ok,
            f"transmission peaks {peaks[0]:.2f}/{peaks[1]:.2f}/{peaks[2]:.2f} Hz "
            f"(targets 30/50/70 +/- 5); {branch_note}")


# -- 7: virtual swept-sine measurement matches the AC solver -----------------

def test_criterion_07_swept_sine_matches_ac(uniform_plant, uniform_measurement):
    _, _, sys_m = uniform_plant
    meas = uniform_measurement
    eigs = simulator.eigenfrequencies_hz(sys_m)
    far = np.all(np.abs(meas.freqs_hz[:, None] - eigs[None, :]) >= 2.0, axis=1)
    freqs = meas.freqs_hz[far]
    h_ac, flags = acsolver.transmission(sys_m, TWO_PI * freqs)
    clean = all(f == "" for f in flags)
    worst = float(np.max(np.abs(meas.h[:, far] - h_ac) / np.abs(h_ac)))
    passed = clean and worst <= 0.05 and freqs.size >= 30
    _report(7, passed,
            f"swept-sine |H| within {worst:.2%} of the AC solution at "
            f"{freqs.size} grid points >= 2 Hz from resonance (limit 5%)")


# -- 8: predictions invariant to impedance scaling and input amplitude -------

def test_criterion_08_scaling_and_amplitude_invariance(trained):
    spec, mech = trained["spec"], trained["mech"]
    heldout = trained["dataset"].split("test")

    preds, probs = [], []
    for s in (1e-8, 1e-6, 1e-4):
        sys_c = simulator.assemble(spec, mech_to_circuit(mech, ScalingFactor(s)))
        r = trainer.evaluate_system(sys_c, heldout)
        preds.append(np.asarray(r.predictions))
        probs.append(np.asarray(r.probs))
    scale_ok = all(np.array_equal(preds[0], p) for p in preds[1:])
    scale_drift = max(float(np.max(np.abs(probs[0] - p))) for p in probs[1:])

    sys_m = simulator.assemble(spec, mech)
    base = trainer.evaluate_system(sys_m, heldout)
    amp_ok, amp_drift = True, 0.0
    for a in (0.1, 10.0):
        scaled = [Sample(Signal(smp.signal.rate_hz, smp.signal.values * a),
                         smp.label, smp.split, smp.class_index)
                  for smp in heldout]
        r = trainer.evaluate_system(sys_m, scaled)
        amp_ok = amp_ok and np.array_equal(np.asarray(base.predictions),
                                           np.asarray(r.predictions))
        amp_drift = max(amp_drift, float(np.max(
            np.abs(np.asarray(base.probs) - np.asarray(r.probs)))))

    drift = max(scale_drift, amp_drift)
    passed = scale_ok and amp_ok and drift <= 1e-10
    _report(8, passed,
            f"predictions bitwise-identical across s = 1e-8/1e-6/1e-4 and "
            f"amplitude x0.1/x10; max probability drift {drift:.2e} (<= 1e-10)")


# -- 9: E96 quantization costs at most 5 accuracy points ---------------------

def test_criterion_09_quantization_degradation(trained):
    spec, mech = trained["spec"], trained["mech"]
    heldout = trained["dataset"].split("test")
    exp = trainer.export_trained(spec, mech, heldout=heldout)
    drop = exp.accuracy_exact - exp.accuracy_quantized

    reported = {(e.kind, e.index) for e in exp.report.entries
                if e.quantized_ohm != e.original_ohm}
    actual = {("r_internal", i) for i in range(spec.n_cells)
              if exp.circuit.r_internal[i] != exp.quantized.r_internal[i]}
    actual |= {("r_coupling", k) for k in range(spec.n_edges)
               if exp.circuit.r_coupling[k] != exp.quantized.r_coupling[k]}
    complete = reported == actual

    passed = drop <= 0.05 and complete
    _report(9, passed,
            f"E96 accuracy {exp.accuracy_quantized:.1%} vs exact "
            f"{exp.accuracy_exact:.1%} (drop {drop * 100:.1f} pts, limit 5); "
            f"report lists all {len(actual)} changed values")


# -- 10: zero-input runs conserve the discrete energy ------------------------

def test_criterion_10_energy_conservation():
    rng = np.random.default_rng(2024)
    steps = 100_000
    worst = 0.0
    for _ in range(10):
        _, _, sys_m = random_small_system(rng)
        dt = 0.5 * simulator.max_stable_dt(sys_m)
        n = sys_m.n_dof
        u_prev = 1e-3 * rng.standard_normal(n)
        u_curr = u_prev + dt * (1e-3 * rng.standard_normal(n))
        traj = simulator.run(sys_m, Signal(1.0 / dt, np.zeros(steps)), "all",
                             initial=(u_prev, u_curr))
        rows = traj.values
        e0 = simulator.discrete_energy(sys_m, u_prev, u_curr, traj.dt)
        pairs = [(u_curr, rows[0])]
        pairs += [(rows[i], rows[i + 1]) for i in range(4999, steps - 1, 5000)]
        drift = max(abs(simulator.discrete_energy(sys_m, a, b, traj.dt) - e0)
                    / abs(e0) for a, b in pairs)
        worst = max(worst, drift)
    _report(10, worst <= 0.01,
            f"max discrete-energy drift {worst:.2e} over {steps} zero-input "
            f"steps at dt = 0.5 * dt_max (10 random systems, limit 1%)")
