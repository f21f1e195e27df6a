"""Frequency-domain solves: nodal analysis, branch currents and KCL, per-cell
impedance maps, transmission spectra, and agreement with time-domain runs."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from resonet import acsolver, lattice, simulator, unitcell
from resonet.acsolver import ac_solve, branch_currents, impedance_map, transmission
from resonet.errors import InvalidParameterError, NearResonanceError
from resonet.lattice import (CircuitParams, LatticeSpec, MechanicalParams,
                             choose_scaling, mech_to_circuit)
from resonet.signals import Signal
from resonet.simulator import assemble, eigenfrequencies_hz, run
from resonet.unitcell import UnitCellParams, resonance_freqs, transfer_h

from conftest import make_uniform_plant, random_small_system

TWO_PI = 2.0 * math.pi
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def grounded_pair(r_n=5e5, r_c=2e5, d_outer=1.307e-11, d_inner=3.530e-11):
    """One active cell whose only ground path is a coupling R into a clamped
    neighbor -- the 2x2 nodal system solvable by hand."""
    spec = LatticeSpec(rows=1, cols=2, grounded=(1,), input_cell=0, outputs=(0,))
    circ = CircuitParams.uniform(spec, d_outer, d_inner, r_n, r_c)
    return spec, circ, assemble(spec, circ)


def cramer_2x2(circ, omega, i_in=1.0):
    """Hand-written Cramer solve of the grounded-pair nodal equations."""
    g_n, g_c = 1.0 / circ.r_internal[0], 1.0 / circ.r_coupling[0]
    d_M, d_m = circ.d_outer[0], circ.d_inner[0]
    a11 = g_n + g_c - omega**2 * d_M
    a12 = -g_n
    a22 = g_n - omega**2 * d_m
    det = a11 * a22 - a12 * a12
    return np.array([a22 * i_in / det, -a12 * i_in / det])


# --- ac_solve -----------------------------------------------------------------

def test_matches_hand_cramer_solution():
    _, circ, sys_m = grounded_pair()
    w0, w1 = resonance_freqs(UnitCellParams(circ.d_outer[0], circ.d_inner[0],
                                            circ.r_internal[0]))
    for omega in (0.3 * w0, 0.8 * w0, 1.7 * w1, 4.0 * w1):
        sol = ac_solve(sys_m, omega, i_in=2.5)
        np.testing.assert_allclose(sol.voltages, cramer_2x2(circ, omega, 2.5),
                                   rtol=1e-10)
        assert sol.residual <= 1e-9


def test_low_frequency_limit_sees_the_grounding_resistance():
    _, circ, sys_m = grounded_pair(r_c=2e5)
    w0, _ = resonance_freqs(UnitCellParams(circ.d_outer[0], circ.d_inner[0],
                                           circ.r_internal[0]))
    sol = ac_solve(sys_m, 1e-4 * w0, i_in=3.0)
    assert sol.voltages[0] == pytest.approx(3.0 * 2e5, rel=1e-6)
    assert sol.voltages[1] == pytest.approx(sol.voltages[0], rel=1e-6)


def test_inner_to_outer_ratio_is_the_amplification_factor(uniform_plant):
    spec, mech, sys_m = uniform_plant
    w0 = math.sqrt(mech.k_internal[0] / mech.mass_inner[0])
    for omega in (0.4 * w0, 0.75 * w0, 1.9 * w0):
        sol = ac_solve(sys_m, omega)
        expect = 1.0 / (1.0 - (omega / w0) ** 2)
        vmax = np.max(np.abs(sol.voltages))
        for c in spec.active_cells:
            vo = sol.voltages[sys_m.outer_dof[c]]
            vi = sol.voltages[sys_m.inner_dof[c]]
            if abs(vo) > 1e-9 * vmax:
                assert vi / vo == pytest.approx(expect, rel=1e-9)


def test_reciprocity_between_two_ports(uniform_plant):
    spec, mech, _ = uniform_plant
    a, b = 10, 14
    spec_a = LatticeSpec(rows=spec.rows, cols=spec.cols, grounded=spec.grounded,
                         input_cell=a, outputs=(b,))
    spec_b = LatticeSpec(rows=spec.rows, cols=spec.cols, grounded=spec.grounded,
                         input_cell=b, outputs=(a,))
    sys_a, sys_b = assemble(spec_a, mech), assemble(spec_b, mech)
    for omega in TWO_PI * np.array([12.0, 33.0, 71.0]):
        va = ac_solve(sys_a, omega).voltages[sys_a.outer_dof[b]]
        vb = ac_solve(sys_b, omega).voltages[sys_b.outer_dof[a]]
        assert va == pytest.approx(vb, rel=1e-10)


def test_near_resonance_raises_with_context(uniform_plant):
    _, _, sys_m = uniform_plant
    f = eigenfrequencies_hz(sys_m)[5]
    with pytest.raises(NearResonanceError) as exc:
        ac_solve(sys_m, TWO_PI * f)
    assert exc.value.cond > acsolver.COND_LIMIT


def test_omega_validation(uniform_plant):
    _, _, sys_m = uniform_plant
    for bad in (0.0, -5.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            ac_solve(sys_m, bad)


@pytest.mark.parametrize("i_in", [math.nan, math.inf, -math.inf])
def test_non_finite_injection_is_refused(uniform_plant, i_in):
    _, _, sys_m = uniform_plant
    with pytest.raises(InvalidParameterError, match=f"i_in must be finite, got {i_in}"):
        ac_solve(sys_m, TWO_PI * 40.0, i_in=i_in)


# --- branch currents -----------------------------------------------------------

def test_zero_injection_means_zero_currents():
    _, circ, sys_m = grounded_pair()
    sol = ac_solve(sys_m, 50.0, i_in=0.0)
    bc = branch_currents(sys_m, circ, sol)
    np.testing.assert_array_equal(bc.edge_current, 0.0)
    np.testing.assert_array_equal(bc.internal_current, 0.0)
    np.testing.assert_array_equal(bc.node_shunt, 0.0)


def test_single_path_carries_the_injection_at_low_frequency():
    _, circ, sys_m = grounded_pair()
    w0, _ = resonance_freqs(UnitCellParams(circ.d_outer[0], circ.d_inner[0],
                                           circ.r_internal[0]))
    sol = ac_solve(sys_m, 1e-4 * w0, i_in=1.0)
    bc = branch_currents(sys_m, circ, sol)
    assert bc.edge_current[0] == pytest.approx(1.0, rel=1e-6)


# The KCL bookkeeping below reads an AC solution's branch currents back into
# node balances; nothing outside the tests needs it.

def _inflow(size, ends, current):
    """Net current into each of `size` nodes from branches flowing
    ends[:,0] -> ends[:,1]."""
    inflow = np.zeros(size)
    np.add.at(inflow, ends.ravel(), np.stack([-current, current], axis=1).ravel())
    return inflow


def cell_input_currents(sys, bc):
    """Net current each active cell absorbs from the lattice (edge inflow).

    For an output cell this is the branch current feeding its effective
    impedance; the injection cell additionally receives the source current.
    """
    spec = sys.spec
    return _inflow(spec.n_cells, np.asarray(spec.edges, dtype=int).reshape(-1, 2),
                   bc.edge_current)


def kcl_residual(sys, sol, bc):
    """Worst per-node current imbalance, relative to the injection."""
    current = np.concatenate([bc.internal_current, bc.edge_current])
    balance = _inflow(sys.n_dof + 1, sys.branches, current)[:-1]
    balance[sys.input_dof] += sol.i_in
    balance -= bc.node_shunt
    return float(np.max(np.abs(balance)) / abs(sol.i_in))


def test_kcl_holds_on_random_systems():
    rng = np.random.default_rng(77)
    done = 0
    while done < 8:
        spec, mech, sys_m = random_small_system(rng)
        circ = mech_to_circuit(mech, choose_scaling(mech, 1e6))
        sys_c = assemble(spec, circ)
        omega = TWO_PI * float(rng.uniform(1.0, 200.0))
        try:
            sol = ac_solve(sys_c, omega)
        except NearResonanceError:
            continue
        bc = branch_currents(sys_c, circ, sol)
        assert kcl_residual(sys_c, sol, bc) <= 1e-9
        done += 1


def test_cell_inflow_books_the_edge_currents():
    spec, mech = make_uniform_plant()
    circ = mech_to_circuit(mech, choose_scaling(mech, 1e6))
    sys_c = assemble(spec, circ)
    sol = ac_solve(sys_c, TWO_PI * 40.0)
    bc = branch_currents(sys_c, circ, sol)
    inflow = cell_input_currents(sys_c, bc)
    # summed over all cells every edge current cancels pairwise
    assert float(np.sum(inflow)) == pytest.approx(0.0, abs=1e-12)


# --- impedance map ---------------------------------------------------------------

def test_uniform_lattice_flags_shared_zero_and_pole():
    spec, mech = make_uniform_plant()
    circ = mech_to_circuit(mech, choose_scaling(mech, 1e6))
    cell = UnitCellParams(circ.d_outer[0], circ.d_inner[0], circ.r_internal[0])
    w0, w1 = resonance_freqs(cell)
    values, flags = impedance_map(circ, w0)
    assert flags == ["zero"] * spec.n_cells
    np.testing.assert_array_equal(values, 0.0)
    values, flags = impedance_map(circ, w1)
    assert flags == ["pole"] * spec.n_cells
    assert np.all(np.isnan(values))


def test_impedance_map_values_match_unitcell():
    spec, mech = make_uniform_plant()
    circ = mech_to_circuit(mech, choose_scaling(mech, 1e6))
    omega = TWO_PI * 40.0
    values, flags = impedance_map(circ, omega)
    assert flags == [""] * spec.n_cells
    cell = UnitCellParams(circ.d_outer[0], circ.d_inner[0], circ.r_internal[0])
    np.testing.assert_allclose(values, unitcell.z_eff(cell, omega), rtol=1e-12)


# --- transmission ------------------------------------------------------------------

def test_single_cell_transmission_is_the_branch_transfer(ref_cell):
    spec = LatticeSpec(rows=1, cols=1, grounded=(), input_cell=0, outputs=(0,))
    circ = CircuitParams.uniform(spec, ref_cell.d_outer, ref_cell.d_inner,
                                 ref_cell.r_internal, 1.0)
    sys_c = assemble(spec, circ)
    w0, w1 = resonance_freqs(ref_cell)
    omegas = np.linspace(0.2 * w0, 2.5 * w0, 400)
    h, flags = transmission(sys_c, omegas)
    ok = np.array([f == "" for f in flags])
    assert ok.sum() > 300
    expect = np.abs(transfer_h(ref_cell, omegas[ok]))
    np.testing.assert_allclose(h[0, ok], expect, rtol=1e-10)


def test_transmission_flags_guard_bins(uniform_plant):
    _, _, sys_m = uniform_plant
    eig_hz = eigenfrequencies_hz(sys_m)
    f_eig = eig_hz[4]
    grid = np.arange(10.0, 95.0, 0.1)
    f_far = grid[np.argmax(np.min(np.abs(eig_hz[None, :] - grid[:, None]),
                                  axis=1))]
    omegas = TWO_PI * np.array([f_eig, f_eig + 0.1, f_far])
    h, flags = transmission(sys_m, omegas, guard_hz=0.25)
    assert flags[0] == "guard" and flags[1] == "guard" and flags[2] == ""
    assert np.isnan(h[:, 0]).all() and np.isfinite(h[:, 2]).all()


@pytest.mark.parametrize("grid", ["every_bin_guarded", "empty", "unguarded"])
def test_transmission_rejects_a_damped_system_before_any_bin(uniform_plant, grid):
    _, _, lossless = uniform_plant
    sys_m = dataclasses.replace(lossless, damping=0.5)
    f_eig = eigenfrequencies_hz(sys_m)[4]
    hz = {"every_bin_guarded": [f_eig, f_eig + 0.1], "empty": [],
          "unguarded": [0.5 * f_eig]}[grid]
    with pytest.raises(InvalidParameterError, match="^transmission covers"):
        transmission(sys_m, TWO_PI * np.asarray(hz, dtype=float))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_transmission_rejects_a_bad_omega_inside_a_guard_band(uniform_plant, bad):
    _, _, sys_m = uniform_plant
    f_eig = eigenfrequencies_hz(sys_m)[4]
    # a guard band wide enough to cover every bin, the bad one included
    omegas = TWO_PI * np.array([f_eig, bad])
    with pytest.raises(InvalidParameterError, match="^transmission: omega 1 is"):
        transmission(sys_m, omegas, guard_hz=1e6)


@pytest.mark.parametrize("guard_hz", [-0.25, np.nan, np.inf])
def test_transmission_rejects_a_bad_guard_band(uniform_plant, guard_hz):
    _, _, sys_m = uniform_plant
    with pytest.raises(InvalidParameterError, match="^transmission: guard_hz"):
        transmission(sys_m, TWO_PI * np.array([10.0, 20.0]), guard_hz=guard_hz)


def test_transmission_independent_of_injection_amplitude():
    _, circ, sys_m = grounded_pair()
    omega = 120.0
    v1 = np.abs(ac_solve(sys_m, omega, i_in=1.0).voltages[0])
    v9 = np.abs(ac_solve(sys_m, omega, i_in=9.0).voltages[0]) / 9.0
    assert v9 == pytest.approx(v1, rel=1e-12)


def per_bin_transmission(sys_m, omegas, guard_hz=acsolver.GUARD_BAND_HZ,
                         z_ref_ohm=1.0):
    """transmission as one ac_solve per bin: the reference the batched sweep
    must equal bit for bit."""
    eig_hz = eigenfrequencies_hz(sys_m)
    out = list(sys_m.output_dofs)
    h = np.full((len(out), len(omegas)), np.nan)
    flags = []
    for j, w in enumerate(omegas):
        if np.any(np.abs(eig_hz - w / TWO_PI) < guard_hz):
            flags.append("guard")
            continue
        try:
            sol = ac_solve(sys_m, w)
        except NearResonanceError:
            flags.append("singular")
            continue
        h[:, j] = np.abs(sol.voltages[out] / sol.i_in) / z_ref_ohm
        flags.append("")
    return h, flags


def sweep_system(name):
    if name == "reference":
        spec, circ, _ = lattice.load_system(REFERENCE / "system.json")
    else:
        spec, mech, _ = random_small_system(np.random.default_rng(5))
        circ = mech_to_circuit(mech, choose_scaling(mech, 1e6))
    return assemble(spec, circ)


def sweep_grid(sys_m, case):
    """(omegas, guard_hz, z_ref_ohm) of one sweep case."""
    eig_hz = eigenfrequencies_hz(sys_m)
    grid = np.linspace(1.0, 1.2 * eig_hz.max(), 300)
    gap = np.min(np.abs(eig_hz[None, :] - grid[:, None]), axis=1)
    far = grid[gap >= 2.0 * acsolver.GUARD_BAND_HZ]
    on = eig_hz[eig_hz > 1.0][:4]          # guarded, or singular with guard 0
    n = acsolver._BINS
    live = {"live_0": 0, "live_1": 1, "live_bins": n, "live_bins_plus_1": n + 1}
    if case in live:
        hz = np.sort(np.concatenate([on, far[:live[case]]]))
        return TWO_PI * hz, acsolver.GUARD_BAND_HZ, 1.0
    if case == "empty":
        return np.array([]), acsolver.GUARD_BAND_HZ, 1.0
    if case == "grid_z_ref":
        return TWO_PI * grid, acsolver.GUARD_BAND_HZ, 50.0
    assert case == "singular"
    hz = np.sort(np.concatenate([on, far[::3]]))
    return TWO_PI * hz, 0.0, 1.0


@pytest.mark.parametrize("case", ["live_0", "live_1", "live_bins", "live_bins_plus_1",
                                  "empty", "grid_z_ref", "singular"])
@pytest.mark.parametrize("system", ["reference", "random"])
def test_batched_transmission_is_the_per_bin_solve_bit_for_bit(system, case):
    sys_m = sweep_system(system)
    omegas, guard_hz, z_ref = sweep_grid(sys_m, case)
    h, flags = transmission(sys_m, omegas, guard_hz=guard_hz, z_ref_ohm=z_ref)
    h_ref, flags_ref = per_bin_transmission(sys_m, omegas, guard_hz, z_ref)
    assert flags == flags_ref
    assert np.array_equal(h, h_ref, equal_nan=True)
    assert h.shape == (len(sys_m.output_dofs), len(omegas))
    n_live = flags.count("")
    if case.startswith("live_"):
        assert n_live == {"live_0": 0, "live_1": 1, "live_bins": acsolver._BINS,
                          "live_bins_plus_1": acsolver._BINS + 1}[case]
        assert flags.count("guard") == len(flags) - n_live > 0
    if case == "singular":
        assert flags.count("singular") >= 1 and "guard" not in flags
    if case == "grid_z_ref":
        assert flags.count("guard") > 0 and n_live > 2 * acsolver._BINS


@pytest.mark.parametrize("system", ["reference", "random"])
def test_condition_number_from_eigenvalues_matches_the_svd(system):
    sys_m = sweep_system(system)
    omegas, _, _ = sweep_grid(sys_m, "grid_z_ref")
    mats = acsolver._nodal(sys_m, omegas)
    svals = np.linalg.svd(mats, compute_uv=False)
    cond_svd = svals[:, 0] / svals[:, -1]
    well = cond_svd < 1e8
    assert well.sum() > 100
    np.testing.assert_allclose(acsolver._cond(mats)[well], cond_svd[well], rtol=1e-8)


def test_time_domain_tone_matches_ac_solve(uniform_plant):
    """A ramped tone driven through run() settles onto the AC solution."""
    spec, _, sys_m = uniform_plant
    eig_hz = eigenfrequencies_hz(sys_m)
    rate = 4000.0
    candidates = np.arange(15.0, 95.0, 0.5)
    gaps = np.min(np.abs(eig_hz[None, :] - candidates[:, None]), axis=1)
    far = candidates[gaps >= 2.5]
    picks = far[[0, len(far) // 2, -1]]
    for f_drive in picks:
        assert np.min(np.abs(eig_hz - f_drive)) >= 2.0
        omega = TWO_PI * f_drive
        settle = 20.0 / f_drive
        measure = round(200 * rate / f_drive) / rate   # integer cycles
        n = int(round((settle + measure) * rate))
        t = np.arange(n) / rate
        envelope = np.minimum(t / settle, 1.0)
        drive = envelope * np.sin(omega * t)
        traj = run(sys_m, Signal(rate, drive))
        sol = ac_solve(sys_m, omega)
        k0 = int(round(settle * rate))
        window = traj.values[k0:, :]
        tm = traj.times[k0:]
        # lock-in amplitude over an integer number of cycles
        probe = np.exp(-1j * omega * tm)
        for ch, dof in enumerate(sys_m.output_dofs):
            amp = 2.0 * np.abs(np.mean(window[:, ch] * probe))
            expect = abs(sol.voltages[dof])
            assert amp == pytest.approx(expect, rel=0.05)


# --- trained-model behavior (shared fixture) ------------------------------------------

def test_trained_peaks_sit_on_the_class_centers(trained):
    spec, mech = trained["spec"], trained["mech"]
    sys_m = assemble(spec, mech)
    centers = trained["dataset"].spec.centers_hz
    freqs = np.arange(1.0, 100.0 + 1e-9, 0.05)
    h, _ = transmission(sys_m, TWO_PI * freqs)
    for ch, center in enumerate(centers):
        peak = freqs[np.nanargmax(h[ch])]
        assert abs(peak - center) <= 3.0, (ch, peak, center)


def test_trained_branch_current_routes_to_the_70hz_output(trained):
    spec, mech = trained["spec"], trained["mech"]
    circ = mech_to_circuit(mech, choose_scaling(mech, 1e6))
    sys_c = assemble(spec, circ)
    sol = ac_solve(sys_c, TWO_PI * 70.0)
    bc = branch_currents(sys_c, circ, sol)
    branch = np.abs(bc.internal_current[list(spec.outputs)])
    assert np.argmax(branch) == 2
    assert branch[2] > branch[0] and branch[2] > branch[1]


def test_trained_impedance_minimum_marks_each_class_cell(trained):
    spec, mech = trained["spec"], trained["mech"]
    circ = mech_to_circuit(mech, choose_scaling(mech, 1e6))
    centers = trained["dataset"].spec.centers_hz
    active = list(spec.active_cells)
    for ch, center in enumerate(centers):
        values, flags = impedance_map(circ, TWO_PI * center)
        mags = np.abs(values[active])
        assert not np.any(np.isnan(mags))
        assert active[int(np.argmin(mags))] == spec.outputs[ch]
