"""The in-place, chunk-checked stepper and adjoint sweep against the plain
per-step loops they replaced, kept here as oracles.

Both rewrites keep every floating-point operation and its order, so their
results must equal the oracles bit for bit, and every blow-up must raise the
same NumericError (message, step, sample).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import grounded_corner, make_uniform_plant, random_small_system
from resonet import simulator, trainer
from resonet.errors import NumericError
from resonet.simulator import CHUNK, BLOWUP_LIMIT, _step_coeffs, leapfrog


def leapfrog_oracle(sys, dt, drive, u_prev=None, u_curr=None, dofs=None,
                    limit=BLOWUP_LIMIT):
    """One step at a time, checking |u| after every step."""
    a, b, c_plus, c_minus = _step_coeffs(sys, dt)
    in_dof = sys.input_dof
    b_in = b[in_dof]
    shape = (sys.n_dof,) + drive.shape[1:]
    u_prev = np.zeros(shape) if u_prev is None else u_prev
    u_curr = np.zeros(shape) if u_curr is None else u_curr
    width = sys.n_dof if dofs is None else len(dofs)
    out = np.empty((len(drive), width) + drive.shape[1:])
    for t in range(len(drive)):
        u_next = 2.0 * u_curr - c_minus * u_prev - a @ u_curr
        u_next[in_dof] += b_in * drive[t]
        if c_plus != 1.0:
            u_next /= c_plus
        peak = np.max(np.abs(u_next))
        if not peak <= limit:
            sample, where = None, ""
            if u_next.ndim == 2:
                sample = int(np.argmax(np.max(np.abs(u_next), axis=0)))
                where = f" in batch sample {sample}"
            raise NumericError(
                f"|u| reached {peak:.3e} (> {limit:.1e}) at step {t}{where}: "
                "unstable or diverging", step=t, sample=sample)
        out[t] = u_next if dofs is None else u_next[dofs]
        u_prev, u_curr = u_curr, u_next
    return out


def grad_from_hist_oracle(sys, dt, hist, dl_de):
    """The adjoint sweep with a zeroed injection buffer and fresh temporaries."""
    t_len, n, batch = hist.shape
    a = dt * dt * (sys.stiffness / sys.inertia[:, None])
    a_t = a.T.copy()
    out = np.asarray(sys.output_dofs, dtype=int)
    lam = np.empty_like(hist)
    lam_1 = np.zeros((n, batch))
    lam_2 = np.zeros((n, batch))
    g_buf = np.zeros((n, batch))
    two_dt = 2.0 * dt
    for s in range(t_len - 1, -1, -1):
        g_buf[:] = 0.0
        g_buf[out] = dl_de * (two_dt * hist[s][out])
        cur = g_buf + 2.0 * lam_1 - a_t @ lam_1 - lam_2
        lam[s] = cur
        lam_2 = lam_1
        lam_1 = cur
    lam_flat = lam[1:].transpose(1, 0, 2).reshape(n, -1)
    u_flat = hist[:-1].transpose(1, 0, 2).reshape(n, -1)
    g_a = -(lam_flat @ u_flat.T)
    return (dt * dt / sys.inertia)[:, None] * g_a


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()   # signed zeros included


def _systems():
    """(name, system, dt): a random small lattice, the uniform plant undamped
    and damped, and the damped grounded corner (damping makes the c_minus and
    c_plus terms live)."""
    spec, mech = make_uniform_plant()
    plant = simulator.assemble(spec, mech)
    small = random_small_system(np.random.default_rng(11))[2]
    return [
        ("small", small, 0.5 * simulator.max_stable_dt(small)),
        ("plant", plant, 1.0 / 2000.0),
        ("plant_damped", dataclasses.replace(plant, damping=3.0), 1.0 / 2000.0),
        ("corner_damped", dataclasses.replace(grounded_corner()[2], damping=0.5),
         0.9 * simulator.max_stable_dt(grounded_corner()[2])),
    ]


SYSTEMS = _systems()
LENGTHS = [1, CHUNK // 4, CHUNK, 3 * CHUNK + 5]   # one step, < CHUNK, whole, ragged


@pytest.mark.parametrize("name, sys_m, dt", SYSTEMS, ids=[s[0] for s in SYSTEMS])
@pytest.mark.parametrize("steps", LENGTHS)
@pytest.mark.parametrize("batch", [None, 3])
def test_leapfrog_equals_the_per_step_oracle(name, sys_m, dt, steps, batch):
    rng = np.random.default_rng(steps)
    cols = () if batch is None else (batch,)
    drive = rng.standard_normal((steps,) + cols)
    subset = np.array([sys_m.n_dof - 1, 0, sys_m.input_dof])
    for dofs in (None, subset):
        assert_bitwise_equal(leapfrog(sys_m, dt, drive, dofs=dofs),
                             leapfrog_oracle(sys_m, dt, drive, dofs=dofs))
    u0, u1 = rng.standard_normal((2, sys_m.n_dof) + cols)
    assert_bitwise_equal(leapfrog(sys_m, dt, drive, u0, u1, subset),
                         leapfrog_oracle(sys_m, dt, drive, u0, u1, subset))


def test_leapfrog_leaves_the_initial_state_alone():
    _, sys_m, dt = SYSTEMS[1]
    u0, u1 = np.random.default_rng(1).standard_normal((2, sys_m.n_dof))
    keep = u0.copy(), u1.copy()
    leapfrog(sys_m, dt, np.ones(2 * CHUNK + 1), u0, u1)
    assert_bitwise_equal(u0, keep[0])
    assert_bitwise_equal(u1, keep[1])


def _raised(fn, *args, **kwargs) -> NumericError:
    with pytest.raises(NumericError) as info:
        fn(*args, **kwargs)
    return info.value


BLOWUP_STEPS = {"first_step": 0, "last_of_a_chunk": CHUNK - 1,
                "first_of_the_next": CHUNK, "final_partial_chunk": 2 * CHUNK + 3}


@pytest.mark.parametrize("where", list(BLOWUP_STEPS) + ["nan_state", "peak_only"])
@pytest.mark.parametrize("batch", [None, 4])
def test_blowup_raises_the_oracles_error(where, batch):
    # A kick of +-1e30 at the input pushes |u| past the limit at exactly its
    # step (negative at a chunk's last step, where only that row is off); a NaN in the initial state is caught at step 0; a limit just
    # under the peak of a noise-driven run is exceeded for a step or two
    # inside a chunk whose last row is back under it.
    _, sys_m, dt = SYSTEMS[2]
    cols = () if batch is None else (batch,)
    steps = 2 * CHUNK + 10
    drive = np.random.default_rng(2).standard_normal((steps,) + cols)
    u0 = np.zeros((sys_m.n_dof,) + cols)
    limit = BLOWUP_LIMIT
    if where == "nan_state":
        u0[3] = np.nan
    elif where == "peak_only":
        limit = 0.999 * np.max(np.abs(leapfrog_oracle(sys_m, dt, drive)))
    else:
        kick = -1e30 if where == "last_of_a_chunk" else 1e30
        drive[BLOWUP_STEPS[where]] = kick if batch is None else [0.0, 0.0, kick, 0.0]
    got = _raised(leapfrog, sys_m, dt, drive, u0, u0, limit=limit)
    want = _raised(leapfrog_oracle, sys_m, dt, drive, u0, u0, limit=limit)
    assert (str(got), got.step, got.sample) == (str(want), want.step, want.sample)
    if where in BLOWUP_STEPS or where == "nan_state":
        assert got.step == BLOWUP_STEPS.get(where, 0)
    if batch is not None and where in BLOWUP_STEPS:
        assert got.sample == 2


@pytest.mark.parametrize("batch", [None, 3])
def test_runaway_growth_overflows_silently_and_raises_the_oracles_error(batch):
    # At 1000 dt_max the unstable modes grow by ~1e6 a step: |u| crosses the
    # limit within a few steps and overflows to inf (then NaN) before the
    # chunk ends and is checked.  No RuntimeWarning may escape.
    _, sys_m, _ = SYSTEMS[0]
    dt = 1000.0 * simulator.max_stable_dt(sys_m)
    cols = () if batch is None else (batch,)
    u0 = np.random.default_rng(4).standard_normal((sys_m.n_dof,) + cols)
    drive = np.zeros((3 * CHUNK,) + cols)
    got = _raised(leapfrog, sys_m, dt, drive, u0, u0)
    want = _raised(leapfrog_oracle, sys_m, dt, drive, u0, u0)
    assert (str(got), got.step, got.sample) == (str(want), want.step, want.sample)
    # with no finite limit only a non-finite value stops the run: one arose
    # inside the first chunk
    beyond = _raised(leapfrog, sys_m, dt, drive, u0, u0, limit=np.inf)
    assert want.step < beyond.step < CHUNK


@pytest.mark.parametrize("steps", [1, 2, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 300])
def test_adjoint_sweep_equals_the_oracle(steps):
    _, sys_m, dt = SYSTEMS[1]
    rng = np.random.default_rng(steps)
    hist = leapfrog(sys_m, dt, rng.standard_normal((steps, 5)))
    dl_de = rng.standard_normal((len(sys_m.output_dofs), 5))
    # what loss_and_grad hands the sweep before it releases the history
    src = dl_de * ((2.0 * dt) * hist[:, list(sys_m.output_dofs), :])
    u_flat = hist[:-1].transpose(1, 0, 2).reshape(sys_m.n_dof, -1)
    assert_bitwise_equal(trainer._adjoint_grad(sys_m, dt, src, u_flat),
                         grad_from_hist_oracle(sys_m, dt, hist, dl_de))


def _loss_and_grad_oracle(spec, cfg, params, drive, labels, dt):
    """loss_and_grad rebuilt from the per-step oracles."""
    sys_m = simulator.assemble(spec, trainer.mech_from_params(spec, cfg, params))
    hist = leapfrog_oracle(sys_m, dt, drive)
    energies = trainer._energies(hist[:, list(sys_m.output_dofs), :], dt)
    probs, loss, dl_de = trainer._probs_and_loss(energies, labels, cfg.prob_epsilon)
    g_y = grad_from_hist_oracle(sys_m, dt, hist, dl_de)
    grad = trainer._project_grad(sys_m, g_y) * np.concatenate(params.realize())
    return loss, probs, grad, energies


@pytest.mark.parametrize("steps", [1, 2, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("batch", [1, 5])
def test_the_training_step_equals_the_oracles(steps, batch):
    spec = grounded_corner()[0]
    cfg = trainer.TrainConfig()
    rng = np.random.default_rng(100 * steps + batch)
    params = trainer.init_params(spec, cfg, (40.0, 60.0), rng)
    drive = rng.standard_normal((steps, batch))
    labels = rng.integers(0, len(spec.outputs), batch)
    dt = 1.0 / 2000.0
    got = trainer.loss_and_grad(spec, cfg, params, drive, labels, dt)
    want = _loss_and_grad_oracle(spec, cfg, params, drive, labels, dt)
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert_bitwise_equal(g, w)
