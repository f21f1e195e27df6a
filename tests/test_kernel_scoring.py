"""Scoring through the impulse-response kernel against stepping.

``trainer.evaluate_system`` (behind ``evaluate``) and ``_evaluate_drive``
(behind it and every epoch of ``train``) take their output histories from
``simulator._respond_groups``, which convolves drives from rest a column
group at a time with the kernel ``simulator._kernel`` caches and steps with
``leapfrog`` only when the gain bound cannot rule out a blow-up.
Stepped scoring is kept here as the oracle: energies must agree to 1e-12 of
each sample's largest channel (1e-11 on a lattice with a rigid mode, see
below), blow-ups must raise leapfrog's own NumericError, and training must
export the same parameters bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import grounded_corner, make_uniform_plant, random_small_system
from resonet import simulator, trainer
from resonet.errors import NumericError
from resonet.signals import Sample, Signal
from resonet.trainer import EvalResult, TrainConfig, train


def stepped_score(sys, samples, prob_epsilon=1e-12):
    """evaluate_system by stepping the whole batch with leapfrog."""
    dt = 1.0 / samples[0].signal.rate_hz
    return stepped_drive_score(sys, dt, *trainer.stack_batch(samples, dt), prob_epsilon)


def stepped_drive_score(sys, dt, drive, labels, prob_epsilon=1e-12, workspace=None):
    """trainer._evaluate_drive by stepping the whole batch with leapfrog."""
    u_out = simulator.leapfrog(sys, dt, drive, dofs=np.asarray(sys.output_dofs))
    energies = trainer._energies(u_out, dt)
    probs, loss, _ = trainer._probs_and_loss(energies, labels, prob_epsilon)
    preds = np.argmax(energies, axis=0)
    return EvalResult(accuracy=float(np.mean(preds == labels)), loss=loss,
                      predictions=preds, probs=probs, energies=energies)


def _samples(rate, drive, labels):
    """One labeled sample per column of the (T, B) drive."""
    return [Sample(Signal(rate, drive[:, b]), int(labels[b]), "test", b)
            for b in range(drive.shape[1])]


def _systems():
    """(name, system, dt): random small lattices, the grounded corner and the
    uniform plant, each at damping 0 and 0.5."""
    rng = np.random.default_rng(31)
    spec, mech = make_uniform_plant()
    bases = [(f"random{i}", random_small_system(rng)[2], frac)
             for i, frac in enumerate((0.5, 0.9, 0.3, 0.7))]
    bases += [("corner", grounded_corner()[2], 0.7),
              ("plant", simulator.assemble(spec, mech), None)]
    out = []
    for name, base, frac in bases:
        for damping in (0.0, 0.5):
            sys_m = dataclasses.replace(base, damping=damping)
            dt = 1.0 / 2000.0 if frac is None else frac * simulator.max_stable_dt(sys_m)
            out.append((f"{name}-d{damping}", sys_m, dt))
    return out


SYSTEMS = _systems()


def _has_rigid_mode(sys_m) -> bool:
    w = sys_m.natural_frequencies
    return bool(w[0] <= 1e-6 * w[-1])


def test_the_systems_cover_free_and_bounded_lattices():
    rigid = [_has_rigid_mode(s) for _, s, _ in SYSTEMS]
    assert any(rigid) and not all(rigid)


@pytest.mark.parametrize("name, sys_m, dt", SYSTEMS, ids=[s[0] for s in SYSTEMS])
@pytest.mark.parametrize("steps", [1, 2, 65, 2000])
def test_kernel_energies_match_stepping(name, sys_m, dt, steps):
    # A lattice with no grounded path has a rigid mode: its impulse response
    # grows without bound, and stepping itself is then off from a long-double
    # recurrence by up to ~1e-12 of the energy at 2000 steps (the convolution
    # by about as much), so such lattices are held to 1e-11, the rest to 1e-12.
    tol = 1e-11 if _has_rigid_mode(sys_m) else 1e-12
    # 20 columns: one full _FFT_COLUMNS chunk and a ragged one
    rng = np.random.default_rng(steps)
    drive = rng.standard_normal((steps, simulator._FFT_COLUMNS + 4))
    labels = rng.integers(0, len(sys_m.output_dofs), drive.shape[1])
    samples = _samples(1.0 / dt, drive, labels)
    want = stepped_score(sys_m, samples).energies
    scale = np.max(want, axis=0)   # each sample's largest channel
    if steps >= 65:
        assert np.all(scale > 0.0)
    got = trainer.evaluate_system(sys_m, samples).energies
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= tol * scale)


@pytest.mark.parametrize("batch", [1, simulator._FFT_COLUMNS,
                                   2 * simulator._FFT_COLUMNS + 3])
def test_grouped_scoring_equals_the_whole_batch_convolution(batch):
    # Column groups, with their scratch in a workspace or not, give the
    # energies of one FFT convolution of the whole batch, bit for bit.
    _, sys_m, dt = SYSTEMS[-2]
    steps = 700
    drive = np.random.default_rng(batch).standard_normal((steps, batch))
    labels = np.zeros(batch, dtype=int)
    spectrum = simulator._kernel(sys_m, dt, steps, sys_m.output_dofs)[0]
    n_fft = simulator._fft_size(steps)
    rows = np.fft.irfft(np.fft.rfft(drive.T, n=n_fft)[:, None, :] * spectrum,
                        n=n_fft)[..., :steps]
    # the whole batch's rows in (B, d, T) storage, read as (T, d, B)
    want = trainer._energies(np.ascontiguousarray(rows).transpose(2, 1, 0), dt)
    work = trainer.make_workspace(sys_m.spec, steps, 4)
    for workspace in (None, work):
        got = trainer._evaluate_drive(sys_m, dt, drive, labels, 1e-12, workspace)
        assert got.energies.tobytes() == want.tobytes()


@pytest.mark.parametrize("steps", [0, 300])
def test_zero_or_empty_drive_scores_exactly_zero_energies(steps):
    samples = _samples(2000.0, np.zeros((steps, 3)), [0, 1, 2])
    result = trainer.evaluate_system(SYSTEMS[-2][1], samples)
    np.testing.assert_array_equal(result.energies, np.zeros((3, 3)))
    np.testing.assert_allclose(result.probs, 1.0 / 3.0, rtol=1e-12)


@pytest.mark.parametrize("loud", [1e20, np.inf])
def test_a_drive_past_the_gain_bound_raises_leapfrogs_error(monkeypatch, loud):
    # max|x| * gain passes the blow-up limit (or is not finite): the batch is
    # stepped, so the error names the step and the column as leapfrog does
    _, sys_m, dt = SYSTEMS[-2]
    assert dt == 1.0 / 2000.0
    drive = np.random.default_rng(3).standard_normal((200, 5))
    drive[40, 3] = loud
    with pytest.raises(NumericError) as want:
        simulator.leapfrog(sys_m, dt, drive, dofs=np.asarray(sys_m.output_dofs))
    stepped = []
    real = simulator.leapfrog

    def spy(*args, **kwargs):
        stepped.append(args[2].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulator, "leapfrog", spy)
    scorers = [lambda: list(simulator._respond_groups(sys_m, dt, drive,
                                                      sys_m.output_dofs))]
    if np.isfinite(loud):   # a Signal refuses non-finite samples
        samples = _samples(2000.0, drive, np.zeros(5, dtype=int))
        scorers.append(lambda: trainer.evaluate_system(sys_m, samples))
    for score in scorers:
        with pytest.raises(NumericError) as got:
            score()
        assert (str(got.value), got.value.step, got.value.sample) == (
            str(want.value), want.value.step, want.value.sample)
        assert got.value.sample == 3 and stepped[-1] == drive.shape


def test_training_exports_what_stepped_scoring_exports(tiny_task, monkeypatch):
    spec, dataset = tiny_task
    cfg = TrainConfig(epochs=3, batch_size=4, lr=0.02, seed=5)
    kernel = train(spec, dataset, cfg)
    monkeypatch.setattr(trainer, "_evaluate_drive", stepped_drive_score)
    stepped = train(spec, dataset, cfg)
    assert kernel.stop_reason == stepped.stop_reason == "epochs"
    assert kernel.params.packed().tobytes() == stepped.params.packed().tobytes()
    assert len(kernel.checkpoints) == len(stepped.checkpoints) == 3
    for a, b in zip(kernel.checkpoints, stepped.checkpoints):
        assert a.params.packed().tobytes() == b.params.packed().tobytes()
        assert a.adam.m.tobytes() == b.adam.m.tobytes()
        assert a.adam.v.tobytes() == b.adam.v.tobytes()
        assert a.rng_state == b.rng_state
    for a, b in zip(kernel.history, stepped.history):
        assert a.keys() == b.keys() and a["epoch"] == b["epoch"]
        assert (a["train_acc"], a["val_acc"]) == (b["train_acc"], b["val_acc"])
        assert a["loss"] == pytest.approx(b["loss"], rel=1e-12, abs=0.0)
