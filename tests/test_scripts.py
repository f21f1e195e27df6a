"""Smoke tests of the example scripts under scripts/."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from resonet import acsolver, lattice, signals, trainer

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _capture(monkeypatch, module, name):
    """Patch module.name to record each call's result in the returned list."""
    results, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, spy)
    return results


def _repr_csv(header, rows):
    """The scripts' CSV format: a header line, then rows with every number
    written by repr."""
    return "".join(",".join(row) + "\n" for row in [header] + [
        [c if isinstance(c, str) else repr(c) for c in row] for row in rows])


def test_train_pulse_classifier_without_quantization(tmp_path, capsys, monkeypatch):
    main = _load("train_pulse_classifier").main
    trained = _capture(monkeypatch, trainer, "train")
    assert main(["--out", str(tmp_path), "--epochs", "1", "--series", "none"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv", "system.json"]
    history = trained[0].history
    assert (tmp_path / "metrics.csv").read_text() == _repr_csv(
        ["epoch", "loss", "train_acc", "val_acc"],
        [(str(h["epoch"]), h["loss"], h["train_acc"], h["val_acc"]) for h in history])
    spec, _, _ = lattice.load_system(tmp_path / "system.json")
    assert spec == lattice.LatticeSpec.default_grid()
    out = capsys.readouterr().out
    assert "held-out accuracy: exact" in out
    assert "quantization" not in out


def test_frequency_response_writes_both_sweeps(tmp_path, capsys, monkeypatch):
    # a band where every swept-sine bin lies within 2 Hz of a resonance: the
    # comparison has no bins, and the script still writes both files
    main = _load("frequency_response").main
    solved = _capture(monkeypatch, acsolver, "transmission")
    measured = _capture(monkeypatch, signals, "measure_transfer")
    assert main(["--f-start", "20", "--f-end", "30", "--sweep-rate", "2",
                 "--points", "50", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ac_sweep.csv",
                                                          "swept_sine.csv"]
    ac = (tmp_path / "ac_sweep.csv").read_text()
    (h_ac, flags), meas = solved[0], measured[0]
    assert ac == _repr_csv(
        ["freq_hz", "h1", "h2", "h3", "flags"],
        [(float(f), *map(float, h_ac[:, i]), flags[i])
         for i, f in enumerate(np.linspace(20.0, 30.0, 50))])
    assert ac.count("\n") == 51 and ac.startswith("freq_hz,h1,h2,h3,flags\n")
    swept = (tmp_path / "swept_sine.csv").read_text()
    assert swept == _repr_csv(
        ["freq_hz", "h1", "h2", "h3"],
        [(float(f), *map(float, meas.h[:, i])) for i, f in enumerate(meas.freqs_hz)])
    assert swept.count("\n") > 1
    assert f"wrote {tmp_path}/ac_sweep.csv" in capsys.readouterr().out


def test_scripts_map_errors_to_the_cli_exit_codes(tmp_path, capsys):
    # a missing file (OSError) and a bad parameter (a resonet error) are
    # one line on stderr and exit 2, as resonet reports them
    missing = tmp_path / "missing.json"
    assert _load("frequency_response").main(["--system", str(missing),
                                             "--out", str(tmp_path / "fr")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("frequency_response.py: error: ") and str(missing) in err
    assert err.count("\n") == 1 and not (tmp_path / "fr").exists()
    assert _load("train_pulse_classifier").main(["--centers", "30,5000",
                                                 "--out", str(tmp_path / "tp")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("train_pulse_classifier.py: error: ") and "5000" in err
    assert err.count("\n") == 1 and not (tmp_path / "tp").exists()


@pytest.mark.parametrize("name, args", [
    ("train_pulse_classifier", ["--centers", "30,abc"]),
    ("frequency_response", ["--points", "many"]),
])
def test_script_usage_errors_exit_1_without_a_traceback(tmp_path, name, args):
    # as resonet does: argparse's own exit 2 would read as a config error
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), *args,
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert f"{name}.py: error: " in proc.stderr and args[1] in proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()
