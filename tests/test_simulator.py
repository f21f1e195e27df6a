"""Time-domain engine: assembly, stability bookkeeping, leapfrog stepping, the
equivalent one-step recurrence, energy accounting, and the readout chain."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonet import lattice, signals, simulator, trainer
from resonet.errors import (InvalidParameterError, NumericError,
                            TopologyError, UndecidableError)
from resonet.lattice import (CircuitParams, LatticeSpec, MechanicalParams,
                             ScalingFactor, mech_to_circuit)
from resonet.signals import Sample, Signal
from resonet.simulator import (SystemMatrices, Trajectory, assemble,
                               build_rnn_weights, classify, comparator,
                               discrete_energy, integrate_energy, leapfrog,
                               max_stable_dt, natural_frequencies, run, run_rnn)
from resonet.unitcell import resonance_freqs

from conftest import grounded_corner, make_uniform_plant, random_small_system

TWO_PI = 2.0 * math.pi
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
LONG = simulator.MIN_BLOCKS * simulator.BLOCK   # shortest drive run evaluates blockwise
CHUNK_LEN = simulator._CHUNK_BLOCKS * simulator.BLOCK   # steps per chunk of blocks
GROUP = simulator._GROUP_BLOCKS   # blocks per group of the blocked state scan


def single_cell(mass_outer=1.307e-3, mass_inner=3.530e-3, k=100.0):
    spec = LatticeSpec(rows=1, cols=1, grounded=(), input_cell=0, outputs=(0,))
    mech = MechanicalParams.uniform(spec, mass_outer, mass_inner, k, 1.0)
    return spec, mech, assemble(spec, mech)


# --- assembly ------------------------------------------------------------------

def test_single_cell_matrices_are_the_textbook_two_dof_pair():
    _, mech, sys_m = single_cell(mass_outer=2.0, mass_inner=3.0, k=5.0)
    np.testing.assert_array_equal(sys_m.inertia, [2.0, 3.0])
    np.testing.assert_array_equal(sys_m.stiffness, [[5.0, -5.0], [-5.0, 5.0]])
    assert sys_m.input_dof == 0
    assert sys_m.output_dofs == (1,)   # readout is the inner node


def test_two_cell_coupling_appears_between_outer_nodes():
    spec = LatticeSpec(rows=1, cols=2, grounded=(), input_cell=0, outputs=(1,))
    mech = MechanicalParams.uniform(spec, 1.0, 1.0, 2.0, 7.0)
    y = assemble(spec, mech).stiffness
    np.testing.assert_array_equal(y, y.T)
    # dof order [o0, i0, o1, i1]
    assert y[0, 2] == -7.0 and y[2, 0] == -7.0
    assert y[0, 0] == 2.0 + 7.0 and y[1, 1] == 2.0


def test_branch_table_and_stiffness_of_a_grounded_corner():
    spec, _, sys_m = grounded_corner()
    assert spec.edges == ((0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5))
    assert sys_m.branches.tolist() == [
        [0, 1], [2, 3], [4, 5], [6, 7], [8, 8], [8, 8],        # cells 0..5
        [0, 2], [0, 6], [2, 4], [2, 8], [4, 8], [6, 8], [8, 8]]  # edges
    expect = np.zeros((8, 8))
    for c in range(4):                       # internal elements
        o, i, k = 2 * c, 2 * c + 1, c + 1.0
        expect[o, o] += k
        expect[i, i] += k
        expect[o, i] = expect[i, o] = -k
    for o_a, o_b, k in ((0, 2, 10.0), (0, 6, 11.0), (2, 4, 12.0)):
        expect[o_a, o_a] += k
        expect[o_b, o_b] += k
        expect[o_a, o_b] = expect[o_b, o_a] = -k
    expect[2, 2] += 13.0    # (1,4): grounds cell 1's outer node
    expect[4, 4] += 14.0    # (2,5): grounds cell 2's outer node
    expect[6, 6] += 15.0    # (3,4): grounds cell 3's outer node
    np.testing.assert_array_equal(sys_m.stiffness, expect)   # (4,5) adds nothing


def test_row_sums_equal_grounding_conductance():
    row = LatticeSpec(rows=1, cols=3, grounded=(2,), input_cell=0, outputs=(1,))
    cases = [
        # cell 1's outer node couples to the clamped cell 2: its row leaks 7.0
        (row, [0.0, 0.0, 7.0, 0.0]),
        # outer nodes of cells 1, 2 and 3 each couple to one clamped cell
        (grounded_corner()[0], [0.0, 0.0, 7.0, 0.0, 7.0, 0.0, 7.0, 0.0]),
    ]
    for spec, leaks in cases:
        mech = MechanicalParams.uniform(spec, 1.0, 1.0, 2.0, 7.0)
        sums = assemble(spec, mech).stiffness.sum(axis=1)
        np.testing.assert_allclose(sums, leaks, atol=1e-12)


def test_default_grid_is_42_dof_positive_definite(uniform_plant):
    _, _, sys_m = uniform_plant
    assert sys_m.n_dof == 42
    eigs = np.linalg.eigvalsh(sys_m.stiffness)
    assert eigs[0] > 0.0


def test_assemble_rejects_unreachable_outputs():
    from resonet.errors import TopologyError
    # middle column clamped: east side unreachable from the west input
    spec = LatticeSpec(rows=3, cols=3, grounded=(1, 4, 7),
                       input_cell=0, outputs=(8,))
    mech = MechanicalParams.uniform(spec, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(TopologyError):
        assemble(spec, mech)


@st.composite
def grid_io(draw):
    """A grid of up to 4x4 cells with random grounded cells, input and outputs."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = range(rows * cols)
    input_cell = draw(st.sampled_from(cells))
    grounded = draw(st.sets(st.sampled_from(cells))) - {input_cell}
    live = [c for c in cells if c not in grounded]
    outputs = draw(st.lists(st.sampled_from(live), min_size=1, unique=True))
    return LatticeSpec(rows=rows, cols=cols, grounded=grounded,
                       input_cell=input_cell, outputs=tuple(outputs))


def unreachable_by_cell_bfs(spec):
    """The outputs a breadth-first search over the live cells' edges never
    reaches from the input cell, in output order."""
    adj = {c: [] for c in spec.active_cells}
    for a, b in spec.edges:
        if a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
    seen = {spec.input_cell}
    frontier = [spec.input_cell]
    while frontier:
        nxt = []
        for c in frontier:
            for d in adj[c]:
                if d not in seen:
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    return [c for c in spec.outputs if c not in seen]


@settings(max_examples=200, deadline=None)
@given(grid_io())
def test_assemble_refuses_exactly_the_outputs_a_cell_search_cannot_reach(spec):
    # reachability is decided on the branch table; a cell-level search over
    # the grid's edges must find the same unreachable outputs
    mech = MechanicalParams.uniform(spec, 1.0, 1.0, 1.0, 1.0)
    missing = unreachable_by_cell_bfs(spec)
    if not missing:
        assemble(spec, mech)
        return
    with pytest.raises(TopologyError) as refused:
        assemble(spec, mech)
    assert str(refused.value) == (
        f"outputs {missing} unreachable from input cell {spec.input_cell}")


def test_assemble_accepts_both_parameter_domains():
    spec, mech, sys_mech = single_cell()
    circ = mech_to_circuit(mech, ScalingFactor(1e-6))
    sys_circ = assemble(spec, circ)
    f_circ, f_mech = natural_frequencies(sys_circ), natural_frequencies(sys_mech)
    # the free cell's rigid mode is a numerically-zero eigenvalue, so the
    # comparison needs an absolute floor scaled to the spectrum
    np.testing.assert_allclose(f_circ, f_mech, rtol=1e-9,
                               atol=1e-6 * float(f_mech[-1]))


# --- frequencies and time steps ----------------------------------------------------

def test_free_cell_eigenfrequencies_are_zero_and_w1(ref_cell):
    spec = LatticeSpec(rows=1, cols=1, grounded=(), input_cell=0, outputs=(0,))
    circ = CircuitParams.uniform(spec, ref_cell.d_outer, ref_cell.d_inner,
                                 ref_cell.r_internal, 1.0)
    w = natural_frequencies(assemble(spec, circ))
    _, w1 = resonance_freqs(ref_cell)
    assert w[0] == pytest.approx(0.0, abs=1e-6 * w1)
    assert w[1] == pytest.approx(w1, rel=1e-12)


def test_reference_cell_stability_limit(ref_cell):
    spec = LatticeSpec(rows=1, cols=1, grounded=(), input_cell=0, outputs=(0,))
    circ = CircuitParams.uniform(spec, ref_cell.d_outer, ref_cell.d_inner,
                                 ref_cell.r_internal, 1.0)
    dt = max_stable_dt(assemble(spec, circ))
    assert dt == pytest.approx(2.0 / (TWO_PI * 51.5), rel=2e-3)  # ~6.18e-3 s


def test_stiffness_times_four_halves_dt_max():
    spec, mech, sys_m = single_cell()
    stiffer = MechanicalParams(mass_outer=mech.mass_outer,
                               mass_inner=mech.mass_inner,
                               k_internal=4.0 * mech.k_internal,
                               k_coupling=4.0 * mech.k_coupling)
    assert max_stable_dt(assemble(spec, stiffer)) == pytest.approx(
        0.5 * max_stable_dt(sys_m), rel=1e-12)


def test_dt_max_invariant_under_analogy_scale():
    spec, mech, sys_m = single_cell()
    for s in (1e-8, 1e-3):
        sys_c = assemble(spec, mech_to_circuit(mech, ScalingFactor(s)))
        assert max_stable_dt(sys_c) == pytest.approx(max_stable_dt(sys_m),
                                                     rel=1e-9)


# --- stepping ------------------------------------------------------------------------

def test_zero_state_zero_input_stays_zero():
    _, _, sys_m = single_cell()
    traj = run(sys_m, Signal(1e3, np.zeros(100)), "all")
    np.testing.assert_array_equal(traj.values, 0.0)


def test_free_particle_kick_lands_on_input_dof():
    spec = LatticeSpec(rows=1, cols=1, grounded=(), input_cell=0, outputs=(0,))
    sys_m = SystemMatrices(spec=spec, inertia=np.ones(2),
                           stiffness=np.zeros((2, 2)),
                           outer_dof=np.array([0]), inner_dof=np.array([1]),
                           input_dof=0, output_dofs=(1,), damping=0.0)
    u_next = leapfrog(sys_m, 1.0, np.array([1.0]))
    np.testing.assert_array_equal(u_next, [[1.0, 0.0]])


def _free_cell_analytic(mass_outer, mass_inner, k, omega, force, times):
    """Exact modal response of the free 2-DOF cell to force*sin(omega*t) at the
    outer mass, starting from rest."""
    m_sum = mass_outer + mass_inner
    w1 = math.sqrt(k * m_sum / (mass_outer * mass_inner))
    phi0 = np.array([1.0, 1.0]) / math.sqrt(m_sum)
    phi1 = (np.array([mass_inner, -mass_outer])
            / math.sqrt(mass_outer * mass_inner * m_sum))
    f0 = force * phi0[0]
    f1 = force * phi1[0]
    q0 = f0 * (times / omega - np.sin(omega * times) / omega ** 2)
    if abs(omega - w1) < 1e-12 * w1:
        q1 = f1 * (np.sin(w1 * times) - w1 * times * np.cos(w1 * times)) / (2 * w1 ** 2)
    else:
        q1 = f1 * (np.sin(omega * times) - (omega / w1) * np.sin(w1 * times)) \
            / (w1 ** 2 - omega ** 2)
    return np.outer(q0, phi0) + np.outer(q1, phi1)


@pytest.mark.parametrize("drive_at", ["w0", "w1"])
def test_driven_cell_matches_analytic_modal_solution(drive_at):
    mass_outer, mass_inner, k = 1.307e-3, 3.530e-3, 100.0
    spec, mech, sys_m = single_cell(mass_outer, mass_inner, k)
    w0 = math.sqrt(k / mass_inner)
    w1 = math.sqrt(k * (mass_outer + mass_inner) / (mass_outer * mass_inner))
    omega = w0 if drive_at == "w0" else w1
    cycles, steps_per_cycle = 50, 400
    dt = TWO_PI / omega / steps_per_cycle
    n = cycles * steps_per_cycle
    t_drive = np.arange(n) * dt
    sig = Signal(rate_hz=1.0 / dt, values=np.sin(omega * t_drive))
    traj = run(sys_m, sig, "all")
    exact = _free_cell_analytic(mass_outer, mass_inner, k, omega, 1.0,
                                traj.times)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(traj.values - exact)) <= 0.02 * scale
    # undamped drive keeps growing: the final stretch dwarfs the opening one
    early = np.max(np.abs(traj.values[:5 * steps_per_cycle]))
    late = np.max(np.abs(traj.values[-5 * steps_per_cycle:]))
    assert late > 3.0 * early


def test_batched_stepping_matches_per_sample_runs():
    # The batched history evaluate_system and loss_and_grad read comes from
    # the same stepper as a 1-D leapfrog run.  A one-column batch is
    # bit-identical to it; a wider batch multiplies through a matrix-matrix
    # product, whose BLAS kernel sums in another order than the matrix-vector
    # product, so its columns agree to rounding.  run takes these short
    # drives from rest through the impulse-response kernel, which agrees
    # with stepping to rounding too.
    spec = LatticeSpec(rows=3, cols=3, grounded=(1, 7), input_cell=0,
                       outputs=(2, 8))
    rng = np.random.default_rng(12)
    mech = MechanicalParams(
        mass_outer=np.full(9, 1.307e-3), mass_inner=np.full(9, 3.530e-3),
        k_internal=np.exp(rng.uniform(np.log(50.0), np.log(500.0), 9)),
        k_coupling=np.exp(rng.uniform(np.log(300.0), np.log(900.0), spec.n_edges)))
    sys_m = assemble(spec, mech)
    dt = 1.0 / 2000.0
    drive = rng.standard_normal((400, 5))
    singles = [leapfrog(sys_m, dt, drive[:, b]) for b in range(5)]
    one = simulator.leapfrog(sys_m, dt, drive[:, :1])
    np.testing.assert_array_equal(one[:, :, 0], singles[0])
    batched = simulator.leapfrog(sys_m, dt, drive)
    assert batched.shape == (400, sys_m.n_dof, 5)
    for b, single in enumerate(singles):
        scale = np.max(np.abs(single))
        assert np.max(np.abs(batched[:, :, b] - single)) <= 1e-12 * scale
        ran = run(sys_m, Signal(2000.0, drive[:, b]), "all")
        assert np.max(np.abs(ran.values - single)) <= 1e-12 * scale


def test_run_equals_rnn_form_on_random_systems():
    rng = np.random.default_rng(42)
    for _ in range(20):
        _, _, sys_m = random_small_system(rng)
        dt = 0.4 * max_stable_dt(sys_m)
        sig = Signal(rate_hz=1.0 / dt, values=rng.standard_normal(200))
        a = run(sys_m, sig, "all")
        b = run_rnn(sys_m, sig, "all")
        scale = np.max(np.abs(a.values)) or 1.0
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale


def test_rnn_weight_blocks():
    _, _, sys_m = single_cell()
    dt = 0.3 * max_stable_dt(sys_m)
    w_h, w_i = build_rnn_weights(sys_m, dt)
    n = sys_m.n_dof
    assert w_h.shape == (2 * n, 2 * n) and w_i.shape == (2 * n,)
    a = dt * dt * (sys_m.stiffness / sys_m.inertia[:, None])
    np.testing.assert_allclose(w_h[:n, :n], 2.0 * np.eye(n) - a, rtol=1e-15)
    np.testing.assert_allclose(w_h[:n, n:], -np.eye(n), rtol=1e-15)
    np.testing.assert_allclose(w_h[n:, :n], np.eye(n), rtol=1e-15)
    assert w_i[sys_m.input_dof] == pytest.approx(
        dt * dt / sys_m.inertia[sys_m.input_dof], rel=1e-15)


def test_linearity_of_the_response():
    rng = np.random.default_rng(9)
    _, _, sys_m = single_cell()
    dt = 0.3 * max_stable_dt(sys_m)
    x = rng.standard_normal(300)
    y = rng.standard_normal(300)
    a, b = 2.5, -0.75
    rx = run(sys_m, Signal(1.0 / dt, x), "all").values
    ry = run(sys_m, Signal(1.0 / dt, y), "all").values
    rxy = run(sys_m, Signal(1.0 / dt, a * x + b * y), "all").values
    scale = np.max(np.abs(rxy))
    assert np.max(np.abs(rxy - (a * rx + b * ry))) <= 1e-10 * scale


def test_long_zero_input_run_stays_bounded():
    spec = LatticeSpec(rows=1, cols=2, grounded=(), input_cell=0, outputs=(1,))
    mech = MechanicalParams.uniform(spec, 1e-3, 2e-3, 50.0, 120.0)
    sys_m = assemble(spec, mech)
    dt = 0.5 * max_stable_dt(sys_m)
    rng = np.random.default_rng(17)
    u0 = rng.standard_normal(sys_m.n_dof)
    traj = run(sys_m, Signal(1.0 / dt, np.zeros(1_000_000)), "all",
               initial=(u0, u0))
    assert len(traj.values) == 1_000_000
    assert np.max(np.abs(traj.values)) <= 10.0 * np.max(np.abs(u0))


def test_unstable_dt_is_rejected_up_front():
    _, _, sys_m = single_cell()
    dt = 1.01 * max_stable_dt(sys_m)
    with pytest.raises(InvalidParameterError):
        run(sys_m, Signal(1.0 / dt, np.zeros(100)))


def test_blowup_raises_numeric_error_with_step():
    # what run's refusal guards against: stepped past dt_max, the fastest
    # mode grows until leapfrog's blow-up check names the step
    _, _, sys_m = single_cell()
    dt = 1.05 * max_stable_dt(sys_m)
    rng = np.random.default_rng(3)
    u0 = rng.standard_normal(sys_m.n_dof)
    with pytest.raises(NumericError) as exc:
        leapfrog(sys_m, dt, np.zeros(50_000), u0, u0)
    assert exc.value.step is not None and exc.value.step >= 0


def _free_square():
    spec = LatticeSpec(rows=2, cols=2, grounded=(), input_cell=0, outputs=(3,))
    return assemble(spec, MechanicalParams.uniform(spec, 1e-3, 2e-3, 40.0, 90.0))


def _unit_state_block(sys_m, dt):
    """leapfrog's (BLOCK, n, 2n) free response to the 2n unit states
    (u_curr, u_curr - u_prev)."""
    n = sys_m.n_dof
    eye = np.eye(n)
    return leapfrog(sys_m, dt, np.zeros((simulator.BLOCK, 2 * n)), np.hstack([eye, -eye]),
                    np.hstack([eye, np.zeros((n, n))]), limit=np.inf)


def test_blocked_run_matches_leapfrog():
    # Long drives are evaluated blockwise; leapfrog stepping is the reference.
    # The cases cover grounded cells, a free lattice (rigid mode), damping,
    # dt up to 0.95 dt_max, both record modes, a nonzero initial state and a
    # length that is not a multiple of BLOCK.
    rng = np.random.default_rng(5)
    cases = [
        (random_small_system(rng)[2], 0.0, 0.3, "outputs"),
        (random_small_system(rng)[2], 0.5, 0.6, "all"),
        (random_small_system(rng)[2], 5.0, 0.95, "outputs"),
        (grounded_corner()[2], 0.0, 0.95, "all"),
        (_free_square(), 0.0, 0.95, "outputs"),
        (_free_square(), 0.5, 0.6, "all"),
    ]
    for base, damping, dt_frac, record in cases:
        sys_m = dataclasses.replace(base, damping=damping)
        dt = dt_frac * max_stable_dt(sys_m)
        x = rng.standard_normal(LONG + 777)
        u0, u1 = rng.standard_normal((2, sys_m.n_dof))
        traj = run(sys_m, Signal(1.0 / dt, x), record, initial=(u0, u1))
        ref = leapfrog(sys_m, traj.dt, x, u0, u1, np.asarray(traj.dofs))
        assert traj.values.shape == ref.shape
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(traj.values - ref)) <= 1e-8 * scale


@pytest.mark.parametrize("steps", [LONG, LONG + 1, LONG + 2 * simulator.BLOCK - 1,
                                   LONG + simulator.BLOCK, LONG + simulator.BLOCK + 1,
                                   CHUNK_LEN, CHUNK_LEN + 1,
                                   CHUNK_LEN + 2 * simulator.BLOCK,
                                   CHUNK_LEN + (2 * GROUP - 2) * simulator.BLOCK,
                                   CHUNK_LEN + 2 * GROUP * simulator.BLOCK,
                                   CHUNK_LEN + 2 * GROUP * simulator.BLOCK + 1])
def test_blocked_run_at_block_and_chunk_edges_matches_leapfrog(steps):
    # LONG and LONG + BLOCK are whole blocks; one step more ends in a
    # one-step block, and LONG + 2 BLOCK - 1 fills all but one step of its
    # last block.  CHUNK_LEN is exactly one chunk; one step more starts a
    # second chunk.  The second chunk's state scan runs in groups of GROUP
    # blocks: a last chunk of 1 or 2 blocks ends inside the first group, one
    # of 2 GROUP - 2, 2 GROUP and 2 GROUP + 1 blocks (the last of them a
    # one-step block) inside, on and just past the second.
    rng = np.random.default_rng(steps)
    sys_m = dataclasses.replace(random_small_system(rng)[2], damping=0.5)
    dt = 0.9 * max_stable_dt(sys_m)
    x = rng.standard_normal(steps)
    u0, u1 = rng.standard_normal((2, sys_m.n_dof))
    for initial in (None, (u0, u1)):
        traj = run(sys_m, Signal(1.0 / dt, x), "all", initial=initial)
        ref = leapfrog(sys_m, dt, x, *(initial or ()))
        assert traj.values.shape == ref.shape == (steps, sys_m.n_dof)
        assert np.max(np.abs(traj.values - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_blocked_run_bounds_the_rigid_mode_drift():
    # A free lattice drifts blockwise even far from dt_max, and the drift
    # grows with the drive's length (1e-8 of the peak at 262 144 steps).
    # Over these 65 536 steps at 0.5 dt_max the output reads 2.3e-9 of its
    # peak from leapfrog, at 1 and 2 BLAS threads (1.4e-9 to 3.4e-9 on the
    # drives of four other seeds).  The bound, about twice this drive's
    # drift, keeps a scan built from powers of the block map, or a change of
    # the block operators, from making it worse unnoticed.
    sys_m = _free_square()
    dt = 0.5 * max_stable_dt(sys_m)
    x = np.random.default_rng(43).standard_normal(CHUNK_LEN)   # 65 536 steps
    traj = run(sys_m, Signal(1.0 / dt, x))
    ref = leapfrog(sys_m, dt, x, dofs=np.asarray(traj.dofs))
    assert np.max(np.abs(traj.values - ref)) <= 5e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("system", ["random", "grounded_corner", "free"])
def test_block_operators_are_leapfrog_steps(system):
    # The rows of ops are leapfrog's free response to each unit state and
    # its impulse response; [state | block drive] @ [trans.T; ends] is the
    # state leapfrog reaches after BLOCK steps.
    rng = np.random.default_rng(31)
    sys_m = {"random": lambda: dataclasses.replace(random_small_system(rng)[2],
                                                   damping=0.5),
             "grounded_corner": lambda: grounded_corner()[2],
             "free": _free_square}[system]()
    n, L = sys_m.n_dof, simulator.BLOCK
    dt = 0.9 * max_stable_dt(sys_m)
    dofs = np.arange(n)
    ops, _, trans, _, ends = simulator._block_operators(sys_m, dt, dofs)
    assert ops.shape == (2 * n + L, L * n) and trans.shape == (2 * n, 2 * n)
    assert ends.shape == (L, 2 * n)

    s, x = rng.standard_normal(2 * n), rng.standard_normal(L)
    u = leapfrog(sys_m, dt, x, s[:n] - s[n:], s[:n])
    ref = np.concatenate([u[-1], u[-1] - u[-2]])
    got = trans @ s + x @ ends
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    eye = np.eye(n)
    free = leapfrog(sys_m, dt, np.zeros((L, 2 * n)), np.hstack([eye, -eye]),
                    np.hstack([eye, np.zeros((n, n))]))
    pulse = np.zeros(L)
    pulse[0] = 1.0
    h = leapfrog(sys_m, dt, pulse)
    toeplitz = np.zeros((L, L, n))
    for j in range(L):
        toeplitz[j, j:] = h[:L - j]
    want = np.concatenate([free.transpose(2, 0, 1), toeplitz]).reshape(ops.shape)
    assert np.max(np.abs(ops - want)) <= 1e-12 * np.max(np.abs(want))


def test_blocked_run_falls_back_when_a_later_chunk_breaks_the_bound(uniform_plant,
                                                                    monkeypatch):
    _, _, sys_m = uniform_plant
    dt = 1.0 / 4000.0
    x = 1e-3 * np.random.default_rng(9).standard_normal(CHUNK_LEN + LONG)
    spike = CHUNK_LEN + 100   # in the second chunk of _CHUNK_BLOCKS blocks
    x[spike] = 1e3
    # scaled so that the spike's response peaks at twice the blow-up limit
    x *= simulator.BLOWUP_LIMIT / (0.5 * np.max(np.abs(leapfrog(sys_m, dt, x))))
    with pytest.raises(NumericError) as ref:
        leapfrog(sys_m, dt, x)
    assert ref.value.step > spike
    calls = []
    real_leapfrog = simulator.leapfrog

    def spy(sys_, dt_, drive, *args, **kwargs):
        calls.append(len(drive))
        return real_leapfrog(sys_, dt_, drive, *args, **kwargs)

    monkeypatch.setattr(simulator, "leapfrog", spy)
    with pytest.raises(NumericError) as exc:
        run(sys_m, Signal(1.0 / dt, x))
    assert calls[-1] == len(x)   # the blocked evaluator gave up; leapfrog stepped
    assert exc.value.step == ref.value.step
    assert str(exc.value) == str(ref.value)


def test_the_swept_sine_stays_on_the_blocked_path(uniform_plant, monkeypatch):
    # The block bound on |u| is tight enough that the 1-100 Hz sweep of the
    # uniform plant never falls back to stepping it whole: at the sweep's
    # 4 kHz its largest entry reads 1.15x the exact one.
    _, _, sys_m = uniform_plant
    dt = 1.0 / 4000.0
    o_max = simulator._block_operators(sys_m, dt, np.arange(sys_m.n_dof))[1]
    assert np.max(o_max) <= 1.2 * np.max(np.abs(_unit_state_block(sys_m, dt)))
    calls = []
    real_leapfrog = simulator.leapfrog

    def spy(sys_, dt_, drive, *args, **kwargs):
        calls.append(len(drive))
        return real_leapfrog(sys_, dt_, drive, *args, **kwargs)

    monkeypatch.setattr(simulator, "leapfrog", spy)
    signals.measure_transfer(sys_m, 1.0, 100.0)
    assert calls and max(calls) < LONG


def test_runs_off_the_blocked_path_equal_leapfrog_exactly():
    # one step short of the blocked path, and not from rest: run steps
    sys_m = _free_square()
    steps = LONG - 1
    dt = 0.5 * max_stable_dt(sys_m)
    u0 = np.random.default_rng(6).standard_normal(sys_m.n_dof)
    traj = run(sys_m, Signal(1.0 / dt, np.zeros(steps)), "all", initial=(u0, u0))
    assert len(traj.values) == steps
    np.testing.assert_array_equal(traj.values,
                                  leapfrog(sys_m, traj.dt, np.zeros(steps), u0, u0))


@pytest.mark.parametrize("system", ["plant", "random"])
def test_long_run_at_the_stability_limit_steps_with_leapfrog(uniform_plant, system):
    # at dt_max the composed block map drifts from leapfrog (3e-8 of the
    # plant's peak over LONG steps, see README), so run steps there instead
    sys_m = (uniform_plant[2] if system == "plant"
             else random_small_system(np.random.default_rng(41))[2])
    sig = Signal(1.0 / max_stable_dt(sys_m),
                 np.random.default_rng(42).standard_normal(LONG))
    traj = run(sys_m, sig)
    np.testing.assert_array_equal(
        traj.values, leapfrog(sys_m, traj.dt, sig.values, dofs=np.asarray(traj.dofs)))


@pytest.mark.parametrize("cause", ["small_limit", "nan_state"])
def test_long_run_blowup_raises_at_the_leapfrog_step(uniform_plant, cause):
    _, _, sys_m = uniform_plant
    dt = 1.0 / 4000.0
    x = np.random.default_rng(7).standard_normal(LONG + 10)
    u0 = np.zeros(sys_m.n_dof)
    if cause == "small_limit":   # crossed late, near the trajectory's peak
        x *= simulator.BLOWUP_LIMIT / (0.999 * np.max(np.abs(leapfrog(sys_m, dt, x))))
    else:
        u0[5] = np.nan
    with pytest.raises(NumericError) as ref:
        leapfrog(sys_m, dt, x, u0, u0)
    with pytest.raises(NumericError) as exc:
        run(sys_m, Signal(1.0 / dt, x), initial=(u0, u0))
    assert exc.value.step == ref.value.step
    assert str(exc.value) == str(ref.value)


# --- short runs from rest: one convolution with the impulse response --------

@pytest.mark.parametrize("system", ["random", "grounded_corner", "free"])
def test_kernel_run_matches_leapfrog(system):
    # leapfrog stepping is the reference.  dt reaches dt_max itself, where
    # the fastest mode's impulse response grows linearly; the free lattice
    # adds a rigid mode that drifts without bound.
    rng = np.random.default_rng(21)
    base = {"random": lambda: random_small_system(rng)[2],
            "grounded_corner": lambda: grounded_corner()[2],
            "free": _free_square}[system]()
    records = ["outputs", "all"]
    case = 0
    for damping in (0.0, 0.5, 5.0):
        sys_m = dataclasses.replace(base, damping=damping)
        for dt_frac in (0.3, 0.95, 1.0):
            dt = dt_frac * max_stable_dt(sys_m)
            for steps in (1, 2, 65, 2000, LONG - 1):
                x = rng.standard_normal(steps)
                record = records[case % len(records)]
                case += 1
                traj = run(sys_m, Signal(1.0 / dt, x), record)
                ref = leapfrog(sys_m, traj.dt, x)[:, list(traj.dofs)]
                assert traj.values.shape == ref.shape
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(traj.values - ref)) <= 1e-9 * scale, \
                    (damping, dt_frac, steps, record)


def test_kernel_run_of_stock_systems_matches_leapfrog(uniform_plant):
    # The stock 5x5 plant and the trained reference system, driven by stock
    # 2000-step pulses.
    spec, circ, _ = lattice.load_system(REFERENCE / "system.json")
    dspec = signals.DatasetSpec(seed=4, train_per_class=1, test_per_class=0)
    pulses = [s.signal for s in signals.gen_dataset(dspec).samples]
    for sys_m in (uniform_plant[2], assemble(spec, circ)):
        for sig in pulses:
            traj = run(sys_m, sig)
            assert len(traj.values) == 2000
            ref = leapfrog(sys_m, traj.dt, sig.values, dofs=np.asarray(traj.dofs))
            assert np.max(np.abs(traj.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_kernel_run_of_a_zero_drive_is_exactly_zero(uniform_plant):
    traj = run(uniform_plant[2], Signal(2000.0, np.zeros(500)), "all")
    np.testing.assert_array_equal(traj.values, 0.0)
    empty = run(uniform_plant[2], Signal(1e3, np.zeros(0)))
    assert empty.values.shape == (0, 3)


def test_kernel_run_past_the_gain_bound_steps_with_leapfrog(uniform_plant):
    _, _, sys_m = uniform_plant
    dt = 1.0 / 2000.0
    x = np.random.default_rng(8).standard_normal(2000)
    peak = np.max(np.abs(leapfrog(sys_m, dt, x)))
    # the peak past the limit: run raises leapfrog's own error
    x_over = x * (simulator.BLOWUP_LIMIT / (0.5 * peak))
    with pytest.raises(NumericError) as ref:
        leapfrog(sys_m, dt, x_over)
    with pytest.raises(NumericError) as exc:
        run(sys_m, Signal(1.0 / dt, x_over))
    assert exc.value.step == ref.value.step
    assert str(exc.value) == str(ref.value)
    # the limit between the peak and the bound: run steps and returns
    # leapfrog's result, and so does the batch path, by the same decision
    x_near = x * (simulator.BLOWUP_LIMIT / (1.01 * peak))
    _, gain = simulator._kernel(sys_m, dt, len(x), sys_m.output_dofs)
    assert gain * np.max(np.abs(x_near)) > simulator.BLOWUP_LIMIT
    traj = run(sys_m, Signal(1.0 / dt, x_near), "all")
    np.testing.assert_array_equal(traj.values, leapfrog(sys_m, dt, x_near))
    (lo, batched), = simulator._respond_groups(sys_m, dt, x_near[None], sys_m.output_dofs)
    assert lo == 0
    np.testing.assert_array_equal(batched[..., 0], traj.values[:, list(sys_m.output_dofs)])


def test_kernel_is_generated_once_and_reused(monkeypatch):
    sys_m = _free_square()
    dt = 0.5 * max_stable_dt(sys_m)
    x = np.random.default_rng(10).standard_normal(1500)
    steps = []
    real_leapfrog = simulator.leapfrog

    def spy(sys_, dt_, drive, *args, **kwargs):
        steps.append(drive.shape)
        return real_leapfrog(sys_, dt_, drive, *args, **kwargs)

    monkeypatch.setattr(simulator, "leapfrog", spy)
    first = run(sys_m, Signal(1.0 / dt, x)).values
    # the impulse response, generated from one stride of the 2n unit states
    assert steps == [(simulator._STRIDE, 2 * sys_m.n_dof)]
    pieces = list(steps)
    again = run(sys_m, Signal(1.0 / dt, x)).values
    run(sys_m, Signal(1.0 / dt, -x))
    assert steps == pieces
    np.testing.assert_array_equal(again, first)
    # other recorded DOFs need a kernel of their own
    every = run(sys_m, Signal(1.0 / dt, x), "all").values
    assert steps == pieces + pieces
    scale = np.max(np.abs(first))
    assert np.max(np.abs(every[:, list(sys_m.output_dofs)] - first)) <= 1e-12 * scale


def test_run_from_rest_is_a_column_of_the_batched_convolution():
    sys_m = assemble(*make_uniform_plant())
    dt = 1.0 / 2000.0
    # the batch comes as rows: a (B, T) view of one matrix, or B arrays
    drives = np.random.default_rng(12).standard_normal((700, 3)).T
    for rows in (drives, [row.copy() for row in drives]):
        (lo, batched), = simulator._respond_groups(sys_m, dt, rows, sys_m.output_dofs)
        assert lo == 0 and batched.shape == (700, len(sys_m.output_dofs), 3)
        for b, row in enumerate(rows):
            traj = run(sys_m, Signal(1.0 / dt, row))
            np.testing.assert_array_equal(traj.values, batched[..., b])
    # the blocked evaluator steps its own block operators and keeps no kernel
    cached = dict(sys_m._kernel_slot)
    long = np.random.default_rng(13).standard_normal(LONG)
    run(sys_m, Signal(1.0 / dt, long), "all")
    assert list(sys_m._kernel_slot) == list(cached)
    assert all(sys_m._kernel_slot[key] is entry for key, entry in cached.items())


def _impulse_spy(monkeypatch):
    """The step counts of every _impulse call from now on: one per kernel
    generated (and one per block operator set)."""
    made = []
    real = simulator._impulse

    def spy(sys_, dt_, steps, *args, **kwargs):
        made.append(steps)
        return real(sys_, dt_, steps, *args, **kwargs)

    monkeypatch.setattr(simulator, "_impulse", spy)
    return made


def test_kernel_cache_stays_at_its_cap(monkeypatch):
    # One kernel slot per system: a new key replaces the kernel it holds,
    # and a repeated key generates nothing
    sys_m = _free_square()
    dt = 0.5 * max_stable_dt(sys_m)
    x = np.random.default_rng(11).standard_normal(100)
    made = _impulse_spy(monkeypatch)
    for steps in (10, 10, 11, 11, 10, 99, 99):
        run(sys_m, Signal(1.0 / dt, x[:steps]))
        assert [key[1] for key in sys_m._kernel_slot] == [steps]
    assert made == [10, 11, 10, 99]


# --- the strided free-response generator -------------------------------------

def _generator_systems():
    """(name, system): the trained reference system, a random lattice damped
    at 0.5 and 5, the grounded corner and the free 2x2 lattice."""
    spec, circ, _ = lattice.load_system(REFERENCE / "system.json")
    rand = random_small_system(np.random.default_rng(21))[2]
    return [("reference", assemble(spec, circ)),
            ("random-d0.5", dataclasses.replace(rand, damping=0.5)),
            ("random-d5", dataclasses.replace(rand, damping=5.0)),
            ("grounded_corner", grounded_corner()[2]),
            ("free", _free_square())]


GENERATOR_SYSTEMS = _generator_systems()
GENERATOR_LENGTHS = [1, 2, 15, 16, 17, 65, 2000]


def _generator_tol(sys_m) -> float:
    # A rigid mode (no grounded path) makes both float64 recurrences drift
    # from the exact one by ~T^2 eps: over dt in [0.02, 0.95] dt_max and
    # damping 0, 0.5 and 5 the free 2x2 lattice's strided responses read up
    # to 2.5e-11 of the peak from leapfrog at T = 2000, and leapfrog itself
    # reads 2.5e-11 from a long-double recurrence at 0.9 dt_max.
    w = sys_m.natural_frequencies
    return 1e-10 if w[0] <= 1e-6 * w[-1] else 1e-12


@pytest.mark.parametrize("name, sys_m", GENERATOR_SYSTEMS,
                         ids=[s[0] for s in GENERATOR_SYSTEMS])
@pytest.mark.parametrize("dt_frac", [0.3, 0.95])
@pytest.mark.parametrize("steps", GENERATOR_LENGTHS)
def test_impulse_response_matches_leapfrog(name, sys_m, dt_frac, steps):
    dt = dt_frac * max_stable_dt(sys_m)
    pulse = np.zeros(steps)
    pulse[0] = 1.0
    ref = leapfrog(sys_m, dt, pulse, limit=np.inf)
    got = simulator._impulse(sys_m, dt, steps)
    assert got.shape == ref.shape == (steps, sys_m.n_dof)
    assert np.max(np.abs(got - ref)) <= _generator_tol(sys_m) * np.max(np.abs(ref))


@pytest.mark.parametrize("name, sys_m", GENERATOR_SYSTEMS,
                         ids=[s[0] for s in GENERATOR_SYSTEMS])
@pytest.mark.parametrize("dt_frac", [0.3, 0.95])
@pytest.mark.parametrize("steps", GENERATOR_LENGTHS)
def test_free_response_and_its_stride_states_match_leapfrog(name, sys_m, dt_frac, steps):
    # rows at a subset of the DOFs from three random states, and the state
    # entering every stride, against leapfrog over the whole strides
    n, stride = sys_m.n_dof, simulator._STRIDE
    dt = dt_frac * max_stable_dt(sys_m)
    start = np.random.default_rng(steps).standard_normal((3, 2 * n))
    dofs = np.asarray(sys_m.output_dofs)
    rows, states, _ = simulator._free_response(sys_m, dt, start, steps, dofs)
    strides = -(-steps // stride)
    assert rows.shape == (3, steps, len(dofs)) and states.shape == (strides + 1, 3, 2 * n)
    u = leapfrog(sys_m, dt, np.zeros((strides * stride, 3)),
                 (start[:, :n] - start[:, n:]).T, start[:, :n].T)
    tol = _generator_tol(sys_m) * np.max(np.abs(u))
    assert np.max(np.abs(rows - u[:steps, dofs].transpose(2, 0, 1))) <= tol
    ends = u[stride - 1::stride]   # u at the end of every stride
    before = u[stride - 2::stride]
    want = np.concatenate([ends, ends - before], axis=1).transpose(0, 2, 1)
    np.testing.assert_array_equal(states[0], start)
    assert np.max(np.abs(states[1:] - want)) <= tol


@pytest.mark.parametrize("name, sys_m", GENERATOR_SYSTEMS,
                         ids=[s[0] for s in GENERATOR_SYSTEMS])
@pytest.mark.parametrize("dt_frac", [simulator._BLOCK_MARGIN, 1.0])
@pytest.mark.parametrize("steps", [1, 2, 17, 2000])
def test_kernel_steps_near_the_stability_limit(name, sys_m, dt_frac, steps, monkeypatch):
    # From _BLOCK_MARGIN * dt_max on, every drive steps: run from rest and
    # the batch scores equal leapfrog bit for bit, and no kernel is made.
    # The rate is nudged so that dt = 1 / rate, as run and the scores read
    # it, stays in [_BLOCK_MARGIN, 1] * dt_max.
    dt_max = max_stable_dt(sys_m)
    rate = 1.0 / (dt_frac * dt_max)
    while 1.0 / rate > dt_max:
        rate = np.nextafter(rate, np.inf)
    while 1.0 / rate < simulator._BLOCK_MARGIN * dt_max:
        rate = np.nextafter(rate, 0.0)
    dt = 1.0 / rate
    made = _impulse_spy(monkeypatch)
    x = np.random.default_rng(steps).standard_normal((steps, 3))
    dofs = np.asarray(sys_m.output_dofs)
    want = leapfrog(sys_m, dt, x, dofs=dofs)
    traj = run(sys_m, Signal(rate, x[:, 0]))
    np.testing.assert_array_equal(traj.values, leapfrog(sys_m, dt, x[:, 0], dofs=dofs))
    samples = [Sample(Signal(rate, x[:, b]), 0, "test", b) for b in range(3)]
    scores = trainer.evaluate_system(sys_m, samples)
    assert scores.energies.tobytes() == trainer._energies(want, dt).tobytes()
    assert made == []


@pytest.mark.parametrize("name, sys_m", GENERATOR_SYSTEMS,
                         ids=[s[0] for s in GENERATOR_SYSTEMS])
@pytest.mark.parametrize("dt_frac", [0.3, 0.95])
def test_block_bound_covers_every_unit_states_free_response(name, sys_m, dt_frac):
    # o_max bounds |free response| over a block from above for every unit
    # state, so the blocked path's bound on |u| stays a bound
    n = sys_m.n_dof
    dt = dt_frac * max_stable_dt(sys_m)
    o_max = simulator._block_operators(sys_m, dt, np.arange(n))[1]
    assert o_max.shape == (n, 2 * n)
    assert np.all(o_max >= np.max(np.abs(_unit_state_block(sys_m, dt)), axis=0))


# --- public surface ---------------------------------------------------------------

def test_every_exported_name_exists():
    import resonet
    missing = [name for name in resonet.__all__ if not hasattr(resonet, name)]
    assert missing == []
    # run and run_rnn take their controls as arguments: no config class
    from_simulator = {name for name in resonet.__all__
                      if getattr(getattr(resonet, name), "__module__", None)
                      == "resonet.simulator"}
    assert from_simulator == {
        "SystemMatrices", "Trajectory", "assemble", "run", "run_rnn",
        "natural_frequencies", "eigenfrequencies_hz", "max_stable_dt",
        "discrete_energy", "integrate_energy", "classify"}


@pytest.mark.parametrize("record", ["output", (0, 1), np.array([0, 1])],
                         ids=["output", "tuple", "array"])
@pytest.mark.parametrize("runner", [run, run_rnn])
def test_record_is_outputs_or_all(runner, record):
    _, _, sys_m = single_cell()
    with pytest.raises(InvalidParameterError, match="'outputs' or 'all'"):
        runner(sys_m, Signal(1e3, np.zeros(10)), record)


# --- energy ---------------------------------------------------------------------------

def test_discrete_energy_zero_state():
    _, _, sys_m = single_cell()
    z = np.zeros(sys_m.n_dof)
    assert discrete_energy(sys_m, z, z, 1e-3) == 0.0


def test_discrete_energy_is_quadratic_in_amplitude():
    _, _, sys_m = single_cell()
    rng = np.random.default_rng(1)
    up, uc = rng.standard_normal(2), rng.standard_normal(2)
    e1 = discrete_energy(sys_m, up, uc, 1e-3)
    e3 = discrete_energy(sys_m, 3.0 * up, 3.0 * uc, 1e-3)
    assert e3 == pytest.approx(9.0 * e1, rel=1e-12)


def test_discrete_energy_conserved_near_the_stability_edge():
    # the functional stays flat to rounding even at dt = 0.9 * dt_max
    rng = np.random.default_rng(8)
    spec = LatticeSpec(rows=2, cols=2, grounded=(), input_cell=0, outputs=(3,))
    mech = MechanicalParams.uniform(spec, 1e-3, 2e-3, 40.0, 90.0)
    sys_m = assemble(spec, mech)
    dt = 0.9 * max_stable_dt(sys_m)
    u0 = rng.standard_normal(sys_m.n_dof)
    traj = run(sys_m, Signal(1.0 / dt, np.zeros(100_000)), "all", initial=(u0, u0))
    vals = traj.values
    e_ref = discrete_energy(sys_m, u0, vals[0], traj.dt)
    checks = [discrete_energy(sys_m, vals[t], vals[t + 1], traj.dt)
              for t in range(0, len(vals) - 1, 9999)]
    assert max(abs(e - e_ref) for e in checks) <= 0.01 * abs(e_ref)


def test_integrate_energy_examples():
    traj = Trajectory(dt=0.01, dofs=(0, 1),
                      values=np.zeros((250, 2)))
    np.testing.assert_array_equal(integrate_energy(traj, (0, 1)), [0.0, 0.0])
    ones = Trajectory(dt=0.01, dofs=(0,), values=np.ones((250, 1)))
    assert integrate_energy(ones, (0,))[0] == pytest.approx(2.5)  # = T seconds
    tripled = Trajectory(dt=0.01, dofs=(0,), values=3.0 * np.ones((250, 1)))
    assert integrate_energy(tripled, (0,))[0] == pytest.approx(9.0 * 2.5)


def test_trajectory_bookkeeping():
    traj = Trajectory(dt=0.5, dofs=(3, 7), values=np.arange(8.0).reshape(4, 2))
    np.testing.assert_allclose(traj.times, [0.5, 1.0, 1.5, 2.0])
    np.testing.assert_array_equal(traj.column(7), [1.0, 3.0, 5.0, 7.0])
    with pytest.raises(InvalidParameterError):
        traj.column(5)


# --- readout ----------------------------------------------------------------------------

def test_classify_examples():
    cls, probs = classify([0.7, 0.2, 0.1])
    assert cls == 0
    np.testing.assert_allclose(probs, [0.7, 0.2, 0.1], rtol=1e-15)
    cls, probs = classify([1.0, 1.0, 1.0])
    assert cls == 0   # tie breaks to the lowest index
    np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)


def test_classify_is_amplitude_invariant():
    e = np.array([0.3, 1.7, 0.9])
    c1, p1 = classify(e)
    c2, p2 = classify(4.0 * e)
    assert c1 == c2
    np.testing.assert_array_equal(p1, p2)


def test_classify_rejects_bad_energies():
    with pytest.raises(UndecidableError):
        classify([0.0, 0.0, 0.0])
    for bad in ([], [-1.0, 2.0], [np.nan, 1.0], [np.inf, 1.0]):
        with pytest.raises(InvalidParameterError):
            classify(bad)


def test_comparator_single_active_channel():
    dt, tau = 1e-3, 0.05
    t = np.arange(2000) * dt
    vals = np.zeros((2000, 3))
    vals[:, 0] = np.sin(TWO_PI * 5.0 * t)
    logic = comparator(vals, dt, tau_s=tau)
    settle = int(3 * tau / dt)
    assert logic[settle:, 0].all()
    assert not logic[:, 1].any() and not logic[:, 2].any()


def test_comparator_all_zero_stays_low():
    logic = comparator(np.zeros((500, 3)), 1e-3)
    assert not logic.any()


def test_comparator_alternation_lag_within_five_tau():
    dt, tau, period = 1e-3, 0.05, 1.0
    t = np.arange(4000) * dt
    gate = ((t // period) % 2 == 0)
    carrier = np.abs(np.sin(TWO_PI * 25.0 * t)) + 0.2
    vals = np.stack([np.where(gate, carrier, 0.0),
                     np.where(gate, 0.0, carrier)], axis=1)
    logic = comparator(vals, dt, tau_s=tau)
    lag = int(5 * tau / dt)
    switch = int(period / dt)
    # after each switch (plus the settling allowance) the new channel owns it
    assert logic[lag:switch, 0].all() and not logic[lag:switch, 1].any()
    assert logic[switch + lag:2 * switch, 1].all()
    assert not logic[switch + lag:2 * switch, 0].any()


def test_comparator_validates_inputs():
    with pytest.raises(InvalidParameterError):
        comparator(np.zeros((10, 1)), 1e-3)
    with pytest.raises(InvalidParameterError):
        comparator(np.zeros((10, 2)), dt=0.2, tau_s=0.1)  # dt > tau
    for tau_s, hysteresis in [(math.nan, 0.1), (math.inf, 0.1), (0.0, 0.1),
                              (0.05, math.nan), (0.05, math.inf), (0.05, -0.1)]:
        with pytest.raises(InvalidParameterError):
            comparator(np.zeros((10, 2)), 1e-3, tau_s=tau_s, hysteresis=hysteresis)

