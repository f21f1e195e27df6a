"""The stock training run against the benchmark's behaviour fingerprint.

The shared ``trained`` fixture is the bench ``train`` workload's run: the
stock dataset, the default TrainConfig and the default grid.  Its export must
match ``perfbench/reference/`` as the bench checks it: every element value
and the scaling within the bench's VALUE_RTOL, and the exact bytes of
system.json where the environment gives the reference's env_key (numpy,
OpenBLAS, BLAS threads and CPU), the only setting in which bitwise-identical
exports are promised.  The final epoch loss is a score, which may move by
rounding while the parameters hold (see trainer; the reference's value is
4e-15 relative from the one the code gives), so it is compared within
VALUE_RTOL everywhere.  The reference files are read, never written.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

from resonet import errors, lattice, trainer

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _bench_module("run")
WORKLOADS = _bench_module("workloads")


def _env_key(monkeypatch) -> str:
    """The bench's environment key for this process.  run.py caps the BLAS
    thread variables in os.environ; here it caps those of a copy."""
    monkeypatch.setattr(os, "environ", dict(os.environ))
    nproc, caps = RUN.set_process_env()
    return RUN.environment(np, nproc, caps)["key"]


@pytest.fixture(scope="module")
def stock_export(trained):
    exp = trainer.export_trained(trained["spec"], trained["mech"],
                                 heldout=trained["dataset"].split("test"))
    doc = lattice.system_to_json_dict(trained["spec"], exp.circuit, exp.scaling)
    return trained["result"], errors.json_text(doc)


def test_stock_export_matches_the_reference_values(stock_export):
    result, text = stock_export
    ref = WORKLOADS.load_fingerprint(toy=False)
    with open(BENCH / "reference" / ref["system"]) as fh:
        want = WORKLOADS.system_values(json.load(fh))
    got = WORKLOADS.system_values(json.loads(text))
    assert got.shape == want.shape
    dev = np.max(np.abs(got - want) / np.abs(want))
    assert dev <= WORKLOADS.VALUE_RTOL
    final_loss = result.history[-1]["loss"]
    assert final_loss == pytest.approx(ref["final_loss"], rel=WORKLOADS.VALUE_RTOL)


def test_stock_export_matches_the_reference_bytes(stock_export, monkeypatch):
    _, text = stock_export
    ref = WORKLOADS.load_fingerprint(toy=False)
    key = _env_key(monkeypatch)
    if key != ref["env_key"]:
        pytest.skip(f"environment key {key!r} is not the reference's "
                    f"{ref['env_key']!r}; bytes are compared only there")
    assert hashlib.sha256(text.encode()).hexdigest() == ref["system_sha256"]
