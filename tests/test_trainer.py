"""Training loop: readout loss, adjoint gradients, Adam, checkpoint/resume,
determinism, and export of trained mechanics to circuit values."""

import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from resonet import cli, simulator, trainer
from resonet.errors import (ConfigError, DataFormatError, InvalidParameterError,
                            NumericError)
from resonet.lattice import LatticeSpec
from resonet.signals import (Dataset, DatasetSpec, Sample, Signal, gen_dataset,
                             gen_pulse)
from resonet.trainer import (AdamState, TrainConfig, TrainableParams,
                             adam_step, evaluate, export_trained, init_params,
                             loss_and_grad, mech_from_params, stack_batch,
                             train)

from conftest import grounded_corner

# --- readout loss ------------------------------------------------------------------

def test_one_hot_energy_gives_near_zero_loss():
    energies = np.array([[1.0], [0.0], [0.0]])
    probs, loss, _ = trainer._probs_and_loss(energies, np.array([0]), 1e-12)
    assert loss < 1e-9
    assert probs.shape == (1, 3)
    assert probs[0].sum() == pytest.approx(1.0, rel=1e-12)


def test_equal_energies_give_log_c_loss():
    energies = np.full((3, 4), 2.0)
    labels = np.array([0, 1, 2, 0])
    probs, loss, _ = trainer._probs_and_loss(energies, labels, 1e-12)
    assert loss == pytest.approx(math.log(3.0), rel=1e-14)
    np.testing.assert_allclose(probs, 1.0 / 3.0, rtol=1e-14)


def test_all_zero_energies_read_as_uniform():
    energies = np.zeros((4, 2))
    probs, loss, _ = trainer._probs_and_loss(energies, np.array([1, 3]), 1e-12)
    np.testing.assert_allclose(probs, 0.25, rtol=1e-12)
    assert loss == pytest.approx(math.log(4.0), rel=1e-12)


def test_batch_loss_is_mean_of_single_sample_losses():
    rng = np.random.default_rng(6)
    energies = rng.uniform(0.0, 3.0, size=(3, 8))
    labels = rng.integers(0, 3, size=8)
    _, batch_loss, _ = trainer._probs_and_loss(energies, labels, 1e-12)
    singles = [trainer._probs_and_loss(energies[:, [b]], labels[[b]], 1e-12)[1]
               for b in range(8)]
    assert batch_loss == pytest.approx(np.mean(singles), rel=1e-14)


def test_loss_energy_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    energies = rng.uniform(0.1, 3.0, size=(3, 5))
    labels = rng.integers(0, 3, size=5)
    _, _, dl_de = trainer._probs_and_loss(energies, labels, 1e-12)
    h = 1e-7
    for c in range(3):
        for b in range(5):
            up, dn = energies.copy(), energies.copy()
            up[c, b] += h
            dn[c, b] -= h
            l_up = trainer._probs_and_loss(up, labels, 1e-12)[1]
            l_dn = trainer._probs_and_loss(dn, labels, 1e-12)[1]
            fd = (l_up - l_dn) / (2.0 * h)
            assert dl_de[c, b] == pytest.approx(fd, rel=1e-5, abs=1e-12)


# --- gradients ----------------------------------------------------------------------

def test_zero_drive_has_exactly_zero_gradient():
    spec = LatticeSpec(rows=2, cols=2, grounded=(), input_cell=0, outputs=(2, 3))
    cfg = TrainConfig()
    params = init_params(spec, cfg, (40.0, 60.0), np.random.default_rng(0))
    drive = np.zeros((300, 3))
    labels = np.array([0, 1, 0])
    loss, probs, grad, energies = loss_and_grad(spec, cfg, params, drive,
                                                labels, 1.0 / 2000.0)
    np.testing.assert_array_equal(grad, 0.0)
    np.testing.assert_array_equal(energies, 0.0)
    np.testing.assert_allclose(probs, 0.5, rtol=1e-12)


def test_zero_length_drive_has_log_c_loss_and_zero_gradient():
    spec = LatticeSpec(rows=2, cols=2, grounded=(), input_cell=0, outputs=(2, 3))
    cfg = TrainConfig()
    params = init_params(spec, cfg, (40.0, 60.0), np.random.default_rng(0))
    loss, probs, grad, energies = loss_and_grad(spec, cfg, params, np.zeros((0, 3)),
                                                np.array([0, 1, 0]), 1.0 / 2000.0)
    assert loss == pytest.approx(math.log(2.0), rel=1e-12)
    np.testing.assert_array_equal(grad, 0.0)
    assert grad.shape == (spec.n_cells + spec.n_edges,)
    np.testing.assert_array_equal(energies, 0.0)
    np.testing.assert_allclose(probs, 0.5, rtol=1e-12)


def test_parameters_behind_grounded_wall_get_zero_gradient():
    # Grounding the middle column splits the grid: input and outputs live in
    # the west column, the east column never moves.  Every stiffness that only
    # touches never-moving cells must receive an exactly zero gradient.
    spec = LatticeSpec(rows=3, cols=3, grounded=(1, 4, 7), input_cell=0,
                       outputs=(3, 6))
    cfg = TrainConfig()
    params = TrainableParams(theta_kn=np.full(9, math.log(100.0)),
                             theta_kc=np.full(12, math.log(600.0)))
    sig0 = gen_pulse(2000.0, 0.25, 30.0, 0.05)
    sig1 = gen_pulse(2000.0, 0.25, 50.0, 0.05)
    drive = np.stack([sig0.values, sig1.values], axis=1)
    _, _, grad, _ = loss_and_grad(spec, cfg, params, drive,
                                  np.array([0, 1]), 1.0 / 2000.0)
    g_kn, g_kc = grad[:9], grad[9:]

    dead_cells = {1, 4, 7, 2, 5, 8}     # grounded wall plus the east column
    live_cells = {0, 3, 6}
    dead_edges = {(1, 2), (1, 4), (2, 5), (4, 5), (4, 7), (5, 8), (7, 8)}
    for cell in range(9):
        if cell in dead_cells:
            assert g_kn[cell] == 0.0
        else:
            assert cell in live_cells and g_kn[cell] != 0.0
    for i, edge in enumerate(spec.edges):
        if edge in dead_edges:
            assert g_kc[i] == 0.0
        else:
            assert g_kc[i] != 0.0


def test_project_grad_contracts_each_element_stencil():
    spec, _, sys_m = grounded_corner()
    g = np.random.default_rng(21).standard_normal((8, 8))

    def pair(p, q):    # the stencil of an element joining live DOFs p and q
        return g[p, p] + g[q, q] - g[p, q] - g[q, p]

    expect = [pair(0, 1), pair(2, 3), pair(4, 5), pair(6, 7),
              0.0, 0.0,                       # grounded cells 4 and 5
              pair(0, 2), pair(0, 6), pair(2, 4),
              g[2, 2], g[4, 4], g[6, 6],      # edges into a grounded cell
              0.0]                            # edge (4,5): both ends grounded
    np.testing.assert_array_equal(trainer._project_grad(sys_m, g), expect)


def test_evaluate_system_energies_match_per_sample_runs():
    spec, mech, _ = grounded_corner()
    sys_m = simulator.assemble(spec, mech)
    rate = 40.0 * math.sqrt(float(np.max(np.linalg.eigvalsh(sys_m.stiffness))))
    samples = [Sample(gen_pulse(rate, 4.0, f, 1.0), b % 2, "test", b)
               for b, f in enumerate((0.4, 0.9, 1.6))]
    batched = trainer.evaluate_system(sys_m, samples)
    for b, s in enumerate(samples):
        traj = simulator.run(sys_m, s.signal)
        single = simulator.integrate_energy(traj, traj.dofs)
        np.testing.assert_allclose(batched.energies[:, b], single, rtol=1e-12)


def test_evaluate_system_refuses_a_rate_past_the_stability_limit_as_run_does():
    # a data error (exit 2), not a numerical divergence (exit 3)
    _, _, sys_m = grounded_corner()
    sig = Signal(0.5 / simulator.max_stable_dt(sys_m), np.ones(50))   # 2 dt_max
    samples = [Sample(sig, 0, "test", 0)]
    for score in (lambda _: simulator.run(sys_m, sig),
                  lambda _: trainer.evaluate_system(sys_m, samples)):
        with pytest.raises(InvalidParameterError, match="exceeds the stability limit"):
            score(None)
        assert cli.exit_code(score, None) == cli.CONFIG_EXIT


def fd_gradient_check(n_steps=500, seed=3):
    """Adjoint gradient vs central finite differences on a 2x2 lattice.

    Returns (max relative error over the packed parameter vector, n_params).
    """
    spec = LatticeSpec(rows=2, cols=2, grounded=(), input_cell=0, outputs=(2, 3))
    cfg = TrainConfig()
    params = init_params(spec, cfg, (25.0, 75.0), np.random.default_rng(seed))
    rate = 2000.0
    dur = n_steps / rate
    sig0 = gen_pulse(rate, dur, 30.0, dur / 6.0)
    sig1 = gen_pulse(rate, dur, 50.0, dur / 6.0)
    drive = np.stack([sig0.values, sig1.values], axis=1)
    labels = np.array([0, 1])
    dt = 1.0 / rate

    _, _, grad, _ = loss_and_grad(spec, cfg, params, drive, labels, dt)
    theta = params.packed()
    h = 1e-6
    fd = np.empty_like(theta)
    for i in range(len(theta)):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        l_up = loss_and_grad(spec, cfg, params.from_packed(up), drive, labels, dt)[0]
        l_dn = loss_and_grad(spec, cfg, params.from_packed(dn), drive, labels, dt)[0]
        fd[i] = (l_up - l_dn) / (2.0 * h)
    scale = float(np.max(np.abs(fd)))
    assert scale > 0.0
    return float(np.max(np.abs(grad - fd)) / scale), len(theta)


def test_adjoint_gradient_matches_finite_differences():
    rel, n_params = fd_gradient_check()
    assert n_params == 8
    assert rel < 1e-4


# --- the run's workspace -----------------------------------------------------------

def _workspace_case(steps, batch, seed):
    """(spec, cfg, params, drive, labels) of a random batch on the grounded corner."""
    spec = grounded_corner()[0]
    cfg = TrainConfig()
    rng = np.random.default_rng(seed)
    params = init_params(spec, cfg, (40.0, 60.0), rng)
    drive = rng.standard_normal((steps, batch))
    labels = rng.integers(0, len(spec.outputs), batch)
    return spec, cfg, params, drive, labels


def _assert_same_bytes(got, want):
    """loss_and_grad results equal bit for bit, signed zeros included."""
    assert got[0] == want[0] or (math.isnan(got[0]) and math.isnan(want[0]))
    for g, w in zip(got[1:], want[1:]):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def _allocating_loss_and_grad(spec, cfg, params, drive, labels, dt):
    """loss_and_grad with no store of its own: leapfrog's new history, the
    output rows taken from it by fancy indexing, new squares and src, and
    the adjoint sweep's own lambda."""
    sys = trainer._assemble_checked(spec, cfg, params, dt)
    hist = simulator.leapfrog(sys, dt, drive)
    u_out = hist[:, list(sys.output_dofs), :]
    energies = trainer._energies(u_out, dt)
    probs, loss, dl_de = trainer._probs_and_loss(energies, labels, cfg.prob_epsilon)
    src = dl_de * ((2.0 * dt) * u_out)
    u_flat = hist[:-1].transpose(1, 0, 2).reshape(sys.n_dof, -1)
    if drive.shape[1] == 1:
        u_flat = np.ascontiguousarray(u_flat.T).T
    g_y = trainer._adjoint_grad(sys, dt, src, u_flat)
    grad = trainer._project_grad(sys, g_y) * np.concatenate(params.realize())
    return loss, probs, grad, energies


@pytest.mark.parametrize("steps, batch, width", [
    (300, 5, 5),   # a full batch
    (300, 3, 5),   # a narrower last batch: a prefix of every store
    (300, 1, 5),   # one column, which keeps its T-major copy
    (300, 1, 1),
    (0, 4, 5), (1, 4, 5), (1, 1, 1), (2, 2, 3)])
def test_loss_and_grad_in_a_workspace_equals_a_call_without_one(monkeypatch, steps,
                                                                batch, width):
    # The reference allocates every array afresh, as numpy lays it out, so a
    # workspace layout that moves a sum's rounding shows here; src, the
    # adjoint's source, is compared too.
    spec, cfg, params, drive, labels = _workspace_case(steps, batch, 10 * steps + batch)
    dt = 1.0 / 2000.0
    sources = []
    real_adjoint = trainer._adjoint_grad

    def spy(sys, dt, src, *args):
        sources.append(src.copy())
        return real_adjoint(sys, dt, src, *args)

    monkeypatch.setattr(trainer, "_adjoint_grad", spy)
    want = _allocating_loss_and_grad(spec, cfg, params, drive, labels, dt)
    work = trainer.make_workspace(spec, steps, width)
    work[:] = np.nan   # what a workspace holds on entry must not matter
    for workspace in (None, work, work):
        got = loss_and_grad(spec, cfg, params, drive, labels, dt, workspace)
        _assert_same_bytes(got, want)
    assert len(sources) == 4
    assert all(src.shape == sources[0].shape and src.tobytes() == sources[0].tobytes()
               for src in sources[1:])


def test_a_workspace_left_half_written_by_a_numeric_error_gives_the_same_result():
    spec, cfg, params, drive, labels = _workspace_case(300, 4, 8)
    dt = 1.0 / 2000.0
    work = trainer.make_workspace(spec, 300, 4)
    loud = drive.copy()
    loud[150, 2] = 1e20
    for batch in (4, 3):
        with pytest.raises(NumericError):   # the forward stops mid-history
            loss_and_grad(spec, cfg, params, loud, labels, dt, work)
        want = loss_and_grad(spec, cfg, params, drive[:, :batch], labels[:batch], dt)
        got = loss_and_grad(spec, cfg, params, drive[:, :batch], labels[:batch], dt,
                            work)
        _assert_same_bytes(got, want)


def test_a_workspace_too_small_for_the_batch_is_refused():
    spec, cfg, params, drive, labels = _workspace_case(300, 4, 9)
    work = trainer.make_workspace(spec, 30, 4)   # for 30 steps
    with pytest.raises(InvalidParameterError, match="too small"):
        loss_and_grad(spec, cfg, params, drive, labels, 1.0 / 2000.0, work)


def test_a_training_run_steps_every_minibatch_in_one_store(tiny_task, monkeypatch):
    # Six training samples in batches of 4: every epoch has a narrower last
    # batch.  Every minibatch history, and every column group the epoch
    # scores go through, lands in the run's one workspace.  A history is a
    # call over the samples' length that records every DOF; the scoring
    # kernel's one stride of 2n unit states is not one.
    spec, dataset = tiny_task
    cfg = _tiny_cfg(batch_size=4)
    steps = len(dataset.samples[0].signal.values)
    works, histories, scored = [], [], []
    real_work = trainer.make_workspace
    real_leapfrog, real_groups = simulator.leapfrog, simulator._respond_groups

    def work_spy(*args):
        works.append(real_work(*args))
        return works[-1]

    def leapfrog_spy(sys_m, dt, drive, *args, **kwargs):
        result = real_leapfrog(sys_m, dt, drive, *args, **kwargs)
        if len(drive) == steps and drive.ndim == 2 and result.shape[1] == sys_m.n_dof:
            histories.append(result)
        return result

    def groups_spy(*args, **kwargs):
        for lo, values in real_groups(*args, **kwargs):
            scored.append(values)
            yield lo, values

    monkeypatch.setattr(trainer, "make_workspace", work_spy)
    monkeypatch.setattr(simulator, "leapfrog", leapfrog_spy)
    monkeypatch.setattr(simulator, "_respond_groups", groups_spy)
    result = train(spec, dataset, cfg)
    assert result.stop_reason == "epochs" and len(works) == 1
    assert [h.shape[2] for h in histories] == [4, 2] * cfg.epochs
    assert all(np.shares_memory(h, histories[0]) for h in histories)
    assert len(scored) == 2 * cfg.epochs   # the train and the test split
    assert all(np.shares_memory(a, works[0]) for a in histories + scored)


@pytest.mark.parametrize("split", ["train", "test"])
@pytest.mark.parametrize("fault", ["length", "rate"])
def test_train_checks_both_splits_whole_before_it_steps(tiny_task, monkeypatch,
                                                        split, fault):
    # train scores each split from the samples' own arrays and stacks only
    # minibatches, so it checks every sample of both splits first, with the
    # check stack_batch makes: a bad sample placed last in either split is
    # refused before the workspace is made or any minibatch is stepped
    spec, dataset = tiny_task
    last = dataset.split(split)[-1]
    sig = last.signal
    bad = (Signal(sig.rate_hz, sig.values[:-1]) if fault == "length"
           else Signal(2.0 * sig.rate_hz, sig.values))
    samples = tuple(s for s in dataset.samples if s is not last)
    calls = []
    for name in ("loss_and_grad", "make_workspace"):
        monkeypatch.setattr(trainer, name, lambda *a, _name=name: calls.append(_name))
    with pytest.raises(InvalidParameterError, match="share rate and length"):
        train(spec, Dataset(dataset.spec, samples + (replace(last, signal=bad),)),
              _tiny_cfg())
    assert calls == []


def test_training_memory_does_not_grow_with_the_split(tiny_task):
    # Both splits are scored from the samples' own arrays and only each
    # minibatch is gathered, so doubling the training split (24 -> 48
    # samples, past a full 16-row scoring group either way) raises the
    # run's traced peak by less than half the 192 kB of drive it adds: by
    # about 1 kB.  A stacked copy of the split, held through the run, adds
    # all of it (+193 kB)
    spec, dataset = tiny_task
    cfg = _tiny_cfg(epochs=1)
    sets = [gen_dataset(replace(dataset.spec, train_per_class=n)) for n in (12, 24)]
    train(spec, sets[0], cfg)   # untraced: fills numpy's cache of FFT plans
    peaks, drive_bytes = [], []
    for ds in sets:
        drive_bytes.append(sum(s.signal.values.nbytes for s in ds.split("train")))
        tracemalloc.start()
        try:
            train(spec, ds, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.5 * (drive_bytes[1] - drive_bytes[0])


# --- Adam ---------------------------------------------------------------------------

def test_adam_first_step_moves_by_lr():
    vec = np.array([1.0, -2.0, 0.5])
    state = AdamState.fresh(3, lr=1e-3)
    new_vec, new_state = adam_step(vec, np.ones(3), state)
    np.testing.assert_allclose(vec - new_vec, 1e-3, rtol=1e-7)
    assert new_state.t == 1


def test_adam_first_step_opposes_the_gradient():
    rng = np.random.default_rng(4)
    grad = rng.normal(size=12)
    vec = rng.normal(size=12)
    new_vec, _ = adam_step(vec, grad, AdamState.fresh(12, lr=0.05))
    np.testing.assert_array_equal(np.sign(new_vec - vec), -np.sign(grad))


def test_adam_rests_at_zero_gradient():
    vec = np.array([3.0, -1.0])
    state = AdamState.fresh(2, lr=0.1)
    for _ in range(5):
        vec_next, state = adam_step(vec, np.zeros(2), state)
        np.testing.assert_array_equal(vec_next, vec)
        vec = vec_next


def test_adam_rejects_shape_mismatch():
    with pytest.raises(InvalidParameterError):
        adam_step(np.zeros(3), np.zeros(4), AdamState.fresh(3, lr=0.1))


# --- parameter plumbing ----------------------------------------------------------

def test_projection_clamps_into_log_bounds():
    p = TrainableParams(theta_kn=np.array([math.log(1e9), 0.0]),
                        theta_kc=np.array([math.log(1e-9)]),
                        k_min=1e-2, k_max=1e4).project()
    lo, hi = p.log_bounds
    assert np.all(p.theta_kn <= hi) and np.all(p.theta_kn >= lo)
    assert np.all(p.theta_kc >= lo)
    k_n, k_c = p.realize()
    assert np.all(k_n > 1e-2 - 1e-12) and np.all(k_n < 1e4 + 1e-9)
    assert np.all(k_c > 1e-2 - 1e-12)


def test_packed_round_trip():
    rng = np.random.default_rng(2)
    p = TrainableParams(theta_kn=rng.normal(size=4), theta_kc=rng.normal(size=5))
    q = p.from_packed(p.packed())
    np.testing.assert_array_equal(q.theta_kn, p.theta_kn)
    np.testing.assert_array_equal(q.theta_kc, p.theta_kc)


def test_pinned_init_fixes_outputs_without_reshuffling_the_rest():
    spec = LatticeSpec(rows=2, cols=2, grounded=(), input_cell=0, outputs=(2, 3))
    cfg = TrainConfig()
    free = init_params(spec, cfg, (40.0, 60.0), np.random.default_rng(5))
    pinned = init_params(spec, cfg, (40.0, 60.0), np.random.default_rng(5),
                         pinned_f0={2: 33.0})
    k_pin = cfg.mass_inner_kg * (2.0 * math.pi * 33.0) ** 2
    assert pinned.theta_kn[2] == pytest.approx(math.log(k_pin), rel=1e-12)
    mask = np.arange(4) != 2
    np.testing.assert_array_equal(pinned.theta_kn[mask], free.theta_kn[mask])
    np.testing.assert_array_equal(pinned.theta_kc, free.theta_kc)


def test_stack_batch_validation():
    sig = gen_pulse(2000.0, 0.25, 30.0, 0.05)
    other_rate = Sample(gen_pulse(1000.0, 0.25, 30.0, 0.05), 0, "train", 0)
    other_len = Sample(gen_pulse(2000.0, 0.5, 30.0, 0.05), 0, "train", 0)
    base = Sample(sig, 0, "train", 0)
    with pytest.raises(InvalidParameterError):
        stack_batch([], 1.0 / 2000.0)
    with pytest.raises(InvalidParameterError):
        stack_batch([base, other_rate], 1.0 / 2000.0)
    with pytest.raises(InvalidParameterError):
        stack_batch([base, other_len], 1.0 / 2000.0)
    with pytest.raises(InvalidParameterError, match="resample"):
        stack_batch([base], 1.0 / 1000.0)
    drive, labels = stack_batch([base, Sample(sig, 1, "train", 1)], 1.0 / 2000.0)
    assert drive.shape == (500, 2)
    np.testing.assert_array_equal(labels, [0, 1])


def test_scoring_an_empty_batch_is_an_invalid_parameter():
    spec, mech, sys_m = grounded_corner()
    cfg = TrainConfig(seed=0)
    params = init_params(spec, cfg, (40.0, 60.0), np.random.default_rng(0))
    with pytest.raises(InvalidParameterError, match="empty batch"):
        trainer.evaluate_system(sys_m, [])
    with pytest.raises(InvalidParameterError, match="empty batch"):
        evaluate(spec, cfg, params, [])


@pytest.mark.parametrize("field, value", [
    ("lr", math.nan), ("prob_epsilon", math.nan), ("lr", math.inf),
    ("k_max", math.inf), ("k_min", -math.inf), ("mass_outer_kg", math.inf),
    ("mass_inner_kg", math.nan), ("kc_init", (300.0, math.inf)),
    ("f0_band_hz", (1.0, math.inf)), ("adam_eps", math.inf),
    ("beta1", math.nan), ("loss_floor", math.nan)])
def test_train_config_refuses_non_finite_floats_naming_the_field(field, value):
    # refused on construction, before a minibatch runs or any warning leaks
    with pytest.raises(InvalidParameterError, match=rf"^{field} must be finite"):
        TrainConfig(**{field: value})


# --- the training loop -------------------------------------------------------------

def _tiny_cfg(**kw):
    base = dict(epochs=3, batch_size=6, lr=0.02, seed=11)
    base.update(kw)
    return TrainConfig(**base)


def test_training_is_bitwise_deterministic(tiny_task):
    spec, dataset = tiny_task
    a = train(spec, dataset, _tiny_cfg())
    b = train(spec, dataset, _tiny_cfg())
    assert a.history == b.history
    np.testing.assert_array_equal(a.params.theta_kn, b.params.theta_kn)
    np.testing.assert_array_equal(a.params.theta_kc, b.params.theta_kc)
    assert a.stop_reason == "epochs" and not a.aborted
    assert [h["epoch"] for h in a.history] == [1, 2, 3]
    assert set(a.history[0]) == {"epoch", "loss", "train_acc", "val_acc"}


def test_resume_reproduces_the_uninterrupted_run(tiny_task):
    spec, dataset = tiny_task
    cfg = _tiny_cfg(epochs=4)
    full = train(spec, dataset, cfg)
    ckpt = full.checkpoints[1]
    assert ckpt.epoch == 2
    resumed = train(spec, dataset, cfg, resume=ckpt)
    assert resumed.history == full.history
    np.testing.assert_array_equal(resumed.params.theta_kn, full.params.theta_kn)
    np.testing.assert_array_equal(resumed.params.theta_kc, full.params.theta_kc)


def test_checkpoint_survives_json_and_still_resumes(tiny_task):
    spec, dataset = tiny_task
    cfg = _tiny_cfg(epochs=4)
    full = train(spec, dataset, cfg)
    ckpt = full.checkpoints[1]
    rehydrated = trainer.Checkpoint.from_json_dict(
        json.loads(json.dumps(ckpt.to_json_dict())))
    assert rehydrated.epoch == ckpt.epoch
    np.testing.assert_array_equal(rehydrated.params.theta_kn, ckpt.params.theta_kn)
    np.testing.assert_array_equal(rehydrated.adam.m, ckpt.adam.m)
    assert rehydrated.adam.t == ckpt.adam.t
    resumed = train(spec, dataset, cfg, resume=rehydrated)
    assert resumed.history == full.history
    np.testing.assert_array_equal(resumed.params.theta_kn, full.params.theta_kn)


def _with_loud_sample(dataset, split, index=0):
    """The dataset with sample `index` of `split` scaled by 1e20."""
    loud = [i for i, s in enumerate(dataset.samples) if s.split == split][index]
    samples = list(dataset.samples)
    big = samples[loud]
    samples[loud] = Sample(Signal(big.signal.rate_hz, 1e20 * big.signal.values),
                           big.label, big.split, big.class_index)
    return Dataset(spec=dataset.spec, samples=tuple(samples))


def test_divergence_reports_the_step_and_sample_leapfrog_raises(tiny_task,
                                                                monkeypatch):
    # One training signal scaled by 1e20 drives |u| past the blow-up limit in
    # the first batch that holds it; the run keeps leapfrog's error and maps
    # its batch column back to the sample's index in the train split.
    spec, dataset = tiny_task
    dataset = _with_loud_sample(dataset, "train")
    real_leapfrog = simulator.leapfrog
    raised = []

    def spy(sys_m, dt, drive, *args, **kwargs):
        try:
            return real_leapfrog(sys_m, dt, drive, *args, **kwargs)
        except NumericError as exc:
            raised.append((exc, drive))
            raise

    monkeypatch.setattr(simulator, "leapfrog", spy)
    result = train(spec, dataset, _tiny_cfg())
    assert result.aborted and result.stop_reason == "diverged"
    assert result.history == () and len(raised) == 1
    exc, drive = raised[0]
    assert result.divergence == {"epoch": 1, "message": str(exc),
                                 "step": exc.step, "sample": 0, "split": "train"}
    assert isinstance(exc.step, int) and isinstance(exc.sample, int)
    assert np.max(np.abs(drive[:, exc.sample])) > 1e15   # the loud signal's column
    assert exc.sample != 0   # the shuffle moved it: the column is not the index


def test_divergence_in_the_held_out_split_names_its_index(tiny_task):
    # A loud held-out signal passes the minibatches and blows up when the
    # test split is scored, in its own column of that split.
    spec, dataset = tiny_task
    result = train(spec, _with_loud_sample(dataset, "test"), _tiny_cfg())
    assert result.aborted and result.history == ()
    d = result.divergence
    assert (d["epoch"], d["sample"], d["split"]) == (1, 0, "test")
    assert d["message"].endswith("in batch sample 0: unstable or diverging")
    # Past the first column group of the scoring: a split that may blow up
    # is stepped whole, so the sample is still its index in the split.
    index = simulator._FFT_COLUMNS + 1
    wider = gen_dataset(replace(dataset.spec, test_per_class=index // 2 + 1))
    result = train(spec, _with_loud_sample(wider, "test", index), _tiny_cfg())
    d = result.divergence
    assert (d["epoch"], d["sample"], d["split"]) == (1, index, "test")
    assert d["message"].endswith(f"in batch sample {index}: unstable or diverging")


@pytest.mark.parametrize("key, value", [
    ("lr", 0.5), ("beta1", 0.8), ("beta2", 0.99), ("adam_eps", 1e-6),
    ("k_min", 1e-3), ("k_max", 1e5),
])
def test_resume_refuses_another_optimizer_setting(tiny_task, key, value):
    spec, dataset = tiny_task
    cfg = _tiny_cfg(epochs=4)
    full = train(spec, dataset, cfg)
    ckpt = full.checkpoints[1]
    old = getattr(cfg, key)
    message = f"{key}={old!r} but the config asks for {key}={value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        train(spec, dataset, replace(cfg, **{key: value}), resume=ckpt)
    resumed = train(spec, dataset, cfg, resume=ckpt)   # the matching config
    assert resumed.history == full.history
    np.testing.assert_array_equal(resumed.params.theta_kc, full.params.theta_kc)


def test_training_on_empty_signals_scores_log_c_and_keeps_its_parameters(tiny_task):
    spec, dataset = tiny_task
    empty = Dataset(spec=dataset.spec, samples=tuple(
        replace(s, signal=Signal(s.signal.rate_hz, np.zeros(0))) for s in dataset.samples))
    result = train(spec, empty, _tiny_cfg(epochs=2))
    assert result.stop_reason == "epochs" and result.divergence is None
    assert [h["loss"] for h in result.history] == pytest.approx([math.log(2.0)] * 2,
                                                                rel=1e-12)
    np.testing.assert_array_equal(result.params.packed(),
                                  result.checkpoints[0].params.packed())


def test_non_finite_loss_rolls_back_to_the_resumed_checkpoint(tiny_task, monkeypatch):
    spec, dataset = tiny_task
    cfg = _tiny_cfg(epochs=3)
    ckpt = train(spec, dataset, cfg).checkpoints[0]
    real_score = trainer._evaluate_drive   # each epoch's scores

    def nan_loss(*args):
        return replace(real_score(*args), loss=math.nan)

    monkeypatch.setattr(trainer, "_evaluate_drive", nan_loss)
    result = train(spec, dataset, cfg, resume=ckpt)
    assert result.aborted and result.stop_reason == "diverged"
    assert result.divergence == {"epoch": 2, "message": "training loss is nan",
                                 "step": None, "sample": None, "split": None}
    assert result.history == tuple(ckpt.history) and result.checkpoints == ()
    np.testing.assert_array_equal(result.params.packed(), ckpt.params.packed())
    np.testing.assert_array_equal(result.mech.k_coupling,
                                  mech_from_params(spec, cfg, ckpt.params).k_coupling)


def test_healthy_run_reports_no_divergence(tiny_task):
    spec, dataset = tiny_task
    assert train(spec, dataset, _tiny_cfg(epochs=1)).divergence is None


@pytest.mark.parametrize("edit, key", [
    (lambda d: d.pop("theta_kc"), "theta_kc"),
    (lambda d: d["adam"].pop("v"), "adam.v"),
    (lambda d: d["adam"].update(t="3"), "adam.t"),
    (lambda d: d.update(epoch=True), "epoch"),
    (lambda d: d.update(theta_kn=[1.0, "x"]), "theta_kn"),
    (lambda d: d.update(k_min=float("nan")), "k_min"),
    (lambda d: d.update(rng_state={"bit_generator": "PCG64"}), "rng_state"),
    (lambda d: d.update(history=[{"epoch": 1}]), "history[0].loss"),
])
def test_checkpoint_with_a_bad_field_is_a_data_error(tiny_task, edit, key):
    spec, dataset = tiny_task
    doc = json.loads(json.dumps(
        train(spec, dataset, _tiny_cfg(epochs=1)).checkpoints[0].to_json_dict()))
    edit(doc)
    with pytest.raises(DataFormatError, match=rf"^ckpt\.json: .*'{re.escape(key)}'"):
        trainer.Checkpoint.from_json_dict(doc, "ckpt.json")


@pytest.mark.parametrize("edit", [
    lambda s: s.update(has_uint32=False),       # a boolean where numpy wants an int
    lambda s: s["state"].update(state=-1),      # out of range for uint64
    lambda s: s["state"].update(inc=2 ** 200),
])
def test_checkpoint_rng_state_must_be_a_pcg64_state(tiny_task, edit):
    spec, dataset = tiny_task
    doc = json.loads(json.dumps(
        train(spec, dataset, _tiny_cfg(epochs=1)).checkpoints[0].to_json_dict()))
    edit(doc["rng_state"])
    with pytest.raises(DataFormatError, match=r"^ckpt\.json: .*'rng_state'"):
        trainer.Checkpoint.from_json_dict(doc, "ckpt.json")


def test_checkpoint_must_be_an_object_with_positive_k_bounds():
    with pytest.raises(DataFormatError, match="JSON object"):
        trainer.Checkpoint.from_json_dict([1, 2], "ckpt.json")
    params = TrainableParams(theta_kn=[0.0], theta_kc=[0.0], k_min=-1.0, k_max=1.0)
    doc = json.loads(json.dumps(trainer.Checkpoint(
        epoch=1, params=params, adam=AdamState.fresh(2, 0.1),
        rng_state=np.random.PCG64(0).state, history=[]).to_json_dict()))
    with pytest.raises(DataFormatError, match="0 < k_min < k_max"):
        trainer.Checkpoint.from_json_dict(doc)


@pytest.mark.parametrize("field", ["theta_kn", "theta_kc", "adam.m", "adam.v"])
def test_resume_checkpoint_must_fit_the_lattice(tiny_task, field):
    spec, dataset = tiny_task
    ckpt = train(spec, dataset, _tiny_cfg(epochs=1)).checkpoints[0]
    if field.startswith("adam."):
        name = field[5:]
        ckpt.adam = replace(ckpt.adam, **{name: getattr(ckpt.adam, name)[:-1]})
    else:
        ckpt.params = replace(ckpt.params, **{field: getattr(ckpt.params, field)[:-1]})
    with pytest.raises(DataFormatError, match=rf"'{field}' has length"):
        train(spec, dataset, _tiny_cfg(epochs=2), resume=ckpt)


def test_loss_decreases_on_a_separable_task(tiny_task):
    spec, dataset = tiny_task
    result = train(spec, dataset, _tiny_cfg(epochs=8))
    losses = [h["loss"] for h in result.history]
    assert all(math.isfinite(l) for l in losses)
    assert losses[-1] < 0.9 * losses[0]


def test_unstable_dt_aborts_the_run():
    dspec = DatasetSpec(centers_hz=(10.0, 20.0), rate_hz=100.0, duration_s=1.0,
                        sigma_s=0.15, jitter_s=0.05, snr_db=None,
                        train_per_class=2, test_per_class=1, seed=2)
    dataset = gen_dataset(dspec)
    spec = LatticeSpec(rows=2, cols=2, grounded=(), input_cell=0, outputs=(2, 3))
    cfg = TrainConfig(epochs=2, batch_size=4, seed=0, f0_band_hz=(60.0, 80.0),
                      init_output_centers=False)
    result = train(spec, dataset, cfg)
    assert result.aborted and result.stop_reason == "diverged"
    assert result.history == ()


def test_on_epoch_callback_sees_every_epoch(tiny_task):
    spec, dataset = tiny_task
    seen = []
    train(spec, dataset, _tiny_cfg(epochs=2),
          on_epoch=lambda c: seen.append(c.epoch))
    assert seen == [1, 2]


# --- export -----------------------------------------------------------------------

def test_export_preserves_predictions_and_quantizes_gently(tiny_task):
    spec, dataset = tiny_task
    result = train(spec, dataset, _tiny_cfg(epochs=4))
    heldout = dataset.split("test")
    exp = export_trained(spec, result.mech, r_target_ohm=1e6, series="E96",
                         heldout=heldout)
    res_all = np.concatenate([exp.circuit.r_internal, exp.circuit.r_coupling])
    gm = math.exp(float(np.mean(np.log(res_all))))
    assert gm == pytest.approx(1e6, rel=1e-9)
    # The analogy scale cannot change predictions: exact-circuit accuracy
    # equals the mechanical-domain accuracy.
    mech_eval = evaluate(spec, _tiny_cfg(epochs=4), result.params, heldout)
    assert exp.accuracy_exact == mech_eval.accuracy
    assert exp.report.series == "E96"
    assert exp.report.max_rel_error <= 0.0125
    assert len(exp.report.entries) == spec.n_cells + spec.n_edges
    np.testing.assert_array_equal(exp.quantized.d_outer, exp.circuit.d_outer)
    np.testing.assert_array_equal(exp.quantized.d_inner, exp.circuit.d_inner)


def test_export_without_heldout_skips_scoring(tiny_task):
    spec, dataset = tiny_task
    result = train(spec, dataset, _tiny_cfg(epochs=1))
    exp = export_trained(spec, result.mech)
    assert exp.accuracy_exact is None and exp.accuracy_quantized is None


def test_export_with_series_none_skips_quantization(tiny_task):
    spec, dataset = tiny_task
    result = train(spec, dataset, _tiny_cfg(epochs=1))
    exp = export_trained(spec, result.mech, series="none",
                         heldout=dataset.split("test"))
    assert exp.quantized is None and exp.report is None
    assert exp.accuracy_quantized is None and exp.accuracy_exact is not None


def test_mech_from_params_uses_config_masses():
    spec = LatticeSpec(rows=1, cols=2, grounded=(), input_cell=0, outputs=(1,))
    cfg = TrainConfig()
    p = TrainableParams(theta_kn=np.zeros(2), theta_kc=np.zeros(1))
    mech = mech_from_params(spec, cfg, p)
    np.testing.assert_array_equal(mech.mass_outer, cfg.mass_outer_kg)
    np.testing.assert_array_equal(mech.mass_inner, cfg.mass_inner_kg)
    np.testing.assert_allclose(mech.k_internal, 1.0, rtol=1e-15)
