"""Smoke tests of the example scripts under scripts/."""

import importlib.util
from pathlib import Path

from resonet import lattice

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_train_pulse_classifier_without_quantization(tmp_path, capsys):
    main = _load("train_pulse_classifier").main
    assert main(["--out", str(tmp_path), "--epochs", "1", "--series", "none"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv", "system.json"]
    spec, _, _ = lattice.load_system(tmp_path / "system.json")
    assert spec == lattice.LatticeSpec.default_grid()
    out = capsys.readouterr().out
    assert "held-out accuracy: exact" in out
    assert "quantization" not in out
