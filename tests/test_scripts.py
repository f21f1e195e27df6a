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


def test_frequency_response_writes_both_sweeps(tmp_path, capsys):
    # a band where every swept-sine bin lies within 2 Hz of a resonance: the
    # comparison has no bins, and the script still writes both files
    main = _load("frequency_response").main
    assert main(["--f-start", "20", "--f-end", "30", "--sweep-rate", "2",
                 "--points", "50", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ac_sweep.csv",
                                                          "swept_sine.csv"]
    ac = (tmp_path / "ac_sweep.csv").read_text().splitlines()
    assert ac[0] == "freq_hz,h1,h2,h3,flags" and len(ac) == 51
    swept = (tmp_path / "swept_sine.csv").read_text().splitlines()
    assert swept[0] == "freq_hz,h1,h2,h3" and len(swept) > 1
    assert f"wrote {tmp_path}/ac_sweep.csv" in capsys.readouterr().out
