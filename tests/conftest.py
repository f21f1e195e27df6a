"""Shared fixtures: the reference cell, a uniform lattice plant, random small
systems, and one trained classifier reused by every test that needs a
realistic model (training is deterministic, so sharing it is safe)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from resonet import signals, simulator, trainer
from resonet.lattice import LatticeSpec, MechanicalParams
from resonet.unitcell import UnitCellParams

# Reference unit cell used throughout: f0 = 26.788 Hz, f1 = 51.533 Hz.
REF_D_OUTER = 1.307e-11
REF_D_INNER = 3.530e-11
REF_R_INTERNAL = 1.0e6

# Verdict lines recorded by tests/test_acceptance.py, echoed after the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ref_cell() -> UnitCellParams:
    return UnitCellParams(d_outer=REF_D_OUTER, d_inner=REF_D_INNER,
                          r_internal=REF_R_INTERNAL)


def make_uniform_plant(k_coupling: float = 600.0):
    """Default 5x5 topology, every cell tuned to the reference resonance.

    k_internal = m_inner / (D_m * R_n) puts each cell's zero-impedance
    frequency at the reference cell's 26.788 Hz; the mechanical and circuit
    domains then describe the same dynamics.
    """
    spec = LatticeSpec.default_grid()
    m_outer, m_inner = 1.307e-3, 3.530e-3
    k_internal = m_inner / (REF_D_INNER * REF_R_INTERNAL)  # = 100.0 N/m
    mech = MechanicalParams.uniform(spec, m_outer, m_inner, k_internal, k_coupling)
    return spec, mech


@pytest.fixture(scope="session")
def uniform_plant():
    spec, mech = make_uniform_plant()
    return spec, mech, simulator.assemble(spec, mech)


@pytest.fixture(scope="session")
def uniform_measurement(uniform_plant):
    """One swept-sine measurement of the uniform plant over 1-100 Hz (slow)."""
    _, _, sys_m = uniform_plant
    return signals.measure_transfer(sys_m, 1.0, 100.0)


def random_small_system(rng: np.random.Generator):
    """Random topology + mechanics, guaranteed assemblable: (spec, mech, sys)."""
    while True:
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 4))
        if rows * cols < 2:
            continue
        cells = list(range(rows * cols))
        grounded = tuple(c for c in cells if rng.random() < 0.15)
        live = [c for c in cells if c not in grounded]
        if len(live) < 2:
            continue
        input_cell = int(rng.choice(live))
        n_out = int(rng.integers(1, min(3, len(live)) + 1))
        outputs = tuple(int(c) for c in rng.choice(live, size=n_out, replace=False))
        mass_outer = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), rows * cols))
        mass_inner = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), rows * cols))
        try:
            spec = LatticeSpec(rows=rows, cols=cols, grounded=grounded,
                               input_cell=input_cell, outputs=outputs)
            k_n = np.exp(rng.uniform(np.log(1.0), np.log(1e3), spec.n_cells))
            k_c = np.exp(rng.uniform(np.log(10.0), np.log(1e3), spec.n_edges))
            mech = MechanicalParams(mass_outer=mass_outer, mass_inner=mass_inner,
                                    k_internal=k_n, k_coupling=k_c)
            return spec, mech, simulator.assemble(spec, mech)
        except Exception:
            continue  # unreachable outputs etc. -- redraw


def grounded_corner():
    """2x3 grid with cells 4 and 5 clamped, every element value distinct.

        0 - 1 - 2        edges (0,1) (0,3) (1,2) (1,4) (2,5) (3,4) (4,5)
        |   |   |        k_coupling  10   11   12   13   14   15   16
        3 - 4#- 5#       k_internal of cell c is c + 1

    Edges (1,4), (2,5) and (3,4) run into a grounded cell, (4,5) joins two.
    DOFs: cell c < 4 has outer 2c and inner 2c + 1; index 8 is ground.
    """
    spec = LatticeSpec(rows=2, cols=3, grounded=(4, 5), input_cell=0,
                       outputs=(2, 3))
    mech = MechanicalParams(mass_outer=np.ones(6), mass_inner=np.ones(6),
                            k_internal=np.arange(1.0, 7.0),
                            k_coupling=np.arange(10.0, 17.0))
    return spec, mech, simulator.assemble(spec, mech)


@pytest.fixture(scope="session")
def default_dataset():
    """The stock 3-class pulse dataset (300 train + 60 held-out samples)."""
    return signals.gen_dataset(signals.DatasetSpec(seed=1))


@pytest.fixture(scope="session")
def trained(default_dataset):
    """Stock training run on the stock dataset; reused by all model tests."""
    spec = LatticeSpec.default_grid()
    cfg = trainer.TrainConfig()
    t0 = time.perf_counter()
    result = trainer.train(spec, default_dataset, cfg)
    seconds = time.perf_counter() - t0
    return {"spec": spec, "cfg": cfg, "dataset": default_dataset,
            "result": result, "mech": result.mech, "train_seconds": seconds}


# --- small training setups (fast) --------------------------------------------

@pytest.fixture(scope="session")
def tiny_task():
    """2-output 2x2 lattice + 2-class dataset small enough to train in tests."""
    spec = LatticeSpec(rows=2, cols=2, grounded=(), input_cell=0, outputs=(2, 3))
    ds_spec = signals.DatasetSpec(centers_hz=(30.0, 50.0), rate_hz=2000.0,
                                  duration_s=0.5, sigma_s=0.05, jitter_s=0.05,
                                  snr_db=20.0, train_per_class=3, test_per_class=1,
                                  seed=7)
    return spec, signals.gen_dataset(ds_spec)
