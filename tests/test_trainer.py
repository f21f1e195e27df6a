"""Training loop: readout loss, adjoint gradients, Adam, checkpoint/resume,
determinism, and export of trained mechanics to circuit values."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from resonet import simulator, trainer
from resonet.errors import DataFormatError, InvalidParameterError, NumericError
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


def test_divergence_reports_the_step_and_sample_leapfrog_raises(tiny_task,
                                                                monkeypatch):
    # One training signal scaled by 1e20 drives |u| past the blow-up limit in
    # the first batch that holds it; the run keeps leapfrog's error.
    spec, dataset = tiny_task
    loud = next(i for i, s in enumerate(dataset.samples) if s.split == "train")
    samples = list(dataset.samples)
    big = samples[loud]
    samples[loud] = Sample(Signal(big.signal.rate_hz, 1e20 * big.signal.values),
                           big.label, big.split, big.class_index)
    dataset = Dataset(spec=dataset.spec, samples=tuple(samples))
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
                                 "step": exc.step, "sample": exc.sample}
    assert isinstance(exc.step, int) and isinstance(exc.sample, int)
    assert np.max(np.abs(drive[:, exc.sample])) > 1e15   # the loud signal's column


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


def test_checkpoint_must_be_an_object_with_positive_k_bounds():
    with pytest.raises(DataFormatError, match="JSON object"):
        trainer.Checkpoint.from_json_dict([1, 2], "ckpt.json")
    with pytest.raises(DataFormatError, match="0 < k_min < k_max"):
        trainer.Checkpoint.from_json_dict({"k_min": -1.0, "k_max": 1.0})


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
