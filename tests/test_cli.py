"""End-to-end CLI contract: artifacts, determinism, exit codes.

Exit code mapping under test: 0 success, 1 usage, 2 configuration/data,
3 numeric failure.  All commands run in-process through cli.main().
"""

import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from resonet import acsolver, cli, lattice, simulator
from resonet.errors import NumericError


def run_cli(argv):
    """Invoke the CLI in-process; normalize argparse SystemExit to a code."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small dataset plus a finished training run, shared read-only."""
    base = tmp_path_factory.mktemp("cliws")
    ds = base / "ds"
    rc = run_cli(["gen-dataset", "--out", ds, "--seed", "3",
                  "--centers", "30,50", "--rate", "2000", "--duration", "0.5",
                  "--sigma", "0.05", "--jitter", "0.05", "--snr", "20",
                  "--train-per-class", "3", "--test-per-class", "2"])
    assert rc == 0
    config = base / "config.json"
    config.write_text(json.dumps({
        "lattice": {"rows": 2, "cols": 2, "grounded": [],
                    "input": 0, "outputs": [2, 3]},
        "dataset": {"manifest": "ds/manifest.json"},
        "train": {"epochs": 3, "batch_size": 6, "seed": 11},
    }))
    run1 = base / "run1"
    rc = run_cli(["train", "--config", config, "--out", run1])
    assert rc == 0
    return {"base": base, "ds": ds, "config": config, "run1": run1,
            "system": run1 / "system.json"}


# --- usage errors (exit 1) ---------------------------------------------------------

def test_no_command_prints_usage():
    assert run_cli([]) == 1


def test_unknown_command_is_a_usage_error():
    assert run_cli(["frobnicate"]) == 1


def test_missing_required_flag_is_a_usage_error(tmp_path):
    assert run_cli(["gen-dataset", "--out", tmp_path / "x"]) == 1  # no --seed


def test_empty_input_list_is_a_usage_error(workspace):
    assert run_cli(["classify", "--system", workspace["system"], "--input"]) == 1


# --- gen-dataset -------------------------------------------------------------------

def test_dataset_files_and_manifest(workspace):
    files = sorted(p.name for p in workspace["ds"].glob("*.csv"))
    assert len(files) == 10   # 2 classes x (3 train + 2 test)
    manifest = json.loads((workspace["ds"] / "manifest.json").read_text())
    assert manifest["rate"] == 2000.0
    assert manifest["classes"] == [30.0, 50.0]
    assert len(manifest["samples"]) == 10


def test_gen_dataset_refuses_overwrite_then_obeys_force(workspace, capsys):
    args = ["gen-dataset", "--out", workspace["ds"], "--seed", "3",
            "--centers", "30,50", "--rate", "2000", "--duration", "0.5",
            "--sigma", "0.05", "--jitter", "0.05", "--snr", "20",
            "--train-per-class", "3", "--test-per-class", "2"]
    assert run_cli(args) == 2
    assert "already exists" in capsys.readouterr().err
    assert run_cli(args + ["--force"]) == 0


def test_gen_dataset_reruns_are_byte_identical(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        rc = run_cli(["gen-dataset", "--out", d, "--seed", "17",
                      "--centers", "30,50", "--duration", "0.5",
                      "--train-per-class", "2", "--test-per-class", "1"])
        assert rc == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_default_dataset_spec_writes_360_sample_files(tmp_path):
    out = tmp_path / "full"
    assert run_cli(["gen-dataset", "--out", out, "--seed", "0"]) == 0
    files = list(out.glob("*.csv"))
    assert len(files) == 360      # 3 classes x (100 train + 20 test)
    assert sum(1 for p in files if "_test_" in p.name) == 60


# --- train -------------------------------------------------------------------------

def test_train_artifacts(workspace):
    run1 = workspace["run1"]
    metrics = (run1 / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "epoch,loss,train_acc,val_acc"
    assert len(metrics) == 4      # header + 3 epochs
    assert [row.split(",")[0] for row in metrics[1:]] == ["1", "2", "3"]

    for name in ("model.json", "system.json", "system_quantized.json",
                 "quantization.json"):
        assert (run1 / name).exists(), name
    for epoch in (1, 2, 3):
        assert (run1 / "checkpoints" / f"epoch_{epoch:03d}.json").exists()

    model = json.loads((run1 / "model.json").read_text())
    assert model["spec"] == {"rows": 2, "cols": 2, "grounded": [],
                             "input": 0, "outputs": [2, 3]}
    assert len(model["history"]) == 3
    assert model["stop_reason"] == "epochs"
    assert len(model["mass_outer_kg"]) == 4

    report = json.loads((run1 / "quantization.json").read_text())
    assert report["series"] == "E96"
    assert len(report["entries"]) == 8    # 4 internal + 4 coupling resistors


def test_train_rerun_is_byte_identical(workspace, tmp_path):
    run2 = tmp_path / "run2"
    assert run_cli(["train", "--config", workspace["config"], "--out", run2]) == 0
    for name in ("metrics.csv", "model.json", "system.json",
                 "system_quantized.json", "quantization.json"):
        assert (run2 / name).read_bytes() == \
            (workspace["run1"] / name).read_bytes(), name


def test_resume_matches_the_uninterrupted_run(workspace, tmp_path):
    run3 = tmp_path / "run3"
    rc = run_cli(["train", "--config", workspace["config"], "--out", run3,
                  "--resume", workspace["run1"] / "checkpoints" / "epoch_001.json"])
    assert rc == 0
    assert (run3 / "metrics.csv").read_bytes() == \
        (workspace["run1"] / "metrics.csv").read_bytes()
    assert (run3 / "model.json").read_bytes() == \
        (workspace["run1"] / "model.json").read_bytes()


def test_resume_rewrites_later_checkpoints_without_force(workspace, tmp_path):
    # an interrupted run holds checkpoints past the one it resumes from
    run4 = tmp_path / "run4"
    shutil.copytree(workspace["run1"] / "checkpoints", run4 / "checkpoints")
    (run4 / "checkpoints" / "epoch_003.json").write_text("stale")
    rc = run_cli(["train", "--config", workspace["config"], "--out", run4,
                  "--resume", run4 / "checkpoints" / "epoch_001.json"])
    assert rc == 0
    for epoch in (1, 2, 3):
        name = f"checkpoints/epoch_{epoch:03d}.json"
        assert (run4 / name).read_bytes() == (workspace["run1"] / name).read_bytes()


def test_resume_checkpoint_missing_a_field_exits_2(workspace, tmp_path, capsys):
    ckpt = tmp_path / "partial.json"
    ckpt.write_text(json.dumps({"epoch": 1, "theta_kn": [1.0]}))
    rc = run_cli(["train", "--config", workspace["config"], "--out", tmp_path / "o",
                  "--resume", ckpt])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "'k_min'" in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["theta_kn", "theta_kc", "adam.m", "adam.v"])
def test_resume_checkpoint_for_another_lattice_exits_2(workspace, tmp_path, capsys,
                                                       field):
    doc = json.loads((workspace["run1"] / "checkpoints" / "epoch_001.json").read_text())
    parent, key = (doc["adam"], field[5:]) if field.startswith("adam.") else (doc, field)
    parent[key] = parent[key][:3]
    ckpt = tmp_path / "other.json"
    ckpt.write_text(json.dumps(doc))
    rc = run_cli(["train", "--config", workspace["config"], "--out", tmp_path / "o",
                  "--resume", ckpt])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and f"'{field}' has length 3" in err


def test_resume_with_another_lr_exits_2(workspace, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    doc = json.loads(workspace["config"].read_text())
    doc["dataset"]["manifest"] = str(workspace["ds"] / "manifest.json")
    doc["train"]["lr"] = 0.5
    cfg.write_text(json.dumps(doc))
    ckpt = workspace["run1"] / "checkpoints" / "epoch_001.json"
    rc = run_cli(["train", "--config", cfg, "--out", tmp_path / "o", "--resume", ckpt])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "lr=0.02" in err and "lr=0.5" in err


def test_train_without_any_seed_is_a_config_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    doc = json.loads(workspace["config"].read_text())
    doc["dataset"]["manifest"] = str(workspace["ds"] / "manifest.json")
    del doc["train"]["seed"]
    cfg.write_text(json.dumps(doc))
    assert run_cli(["train", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "seed" in capsys.readouterr().err
    doc["train"]["epochs"] = 1
    cfg.write_text(json.dumps(doc))
    assert run_cli(["train", "--config", cfg, "--out", tmp_path / "o2",
                    "--seed", "11"]) == 0


def test_train_missing_config_file_exits_2(tmp_path):
    assert run_cli(["train", "--config", tmp_path / "nope.json",
                    "--out", tmp_path / "o"]) == 2


def _diverging_config(tmp_path):
    """Cells resonating at 60-80 Hz sampled at 100 Hz: dt exceeds dt_max."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "lattice": {"rows": 2, "cols": 2, "grounded": [],
                    "input": 0, "outputs": [2, 3]},
        "dataset": {"centers_hz": [10.0, 20.0], "rate_hz": 100.0,
                    "duration_s": 1.0, "sigma_s": 0.15, "jitter_s": 0.05,
                    "snr_db": None, "train_per_class": 2, "test_per_class": 1,
                    "seed": 2},
        "train": {"epochs": 2, "batch_size": 4, "seed": 0,
                  "f0_band_hz": [60.0, 80.0], "init_output_centers": False},
    }))
    return cfg


def test_train_divergence_exits_3(tmp_path, capsys):
    cfg = _diverging_config(tmp_path)
    assert run_cli(["train", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "diverged" in capsys.readouterr().err


def test_train_divergence_cause_lands_in_model_json(workspace, tmp_path, capsys):
    cfg = _diverging_config(tmp_path)
    assert run_cli(["train", "--config", cfg, "--out", tmp_path / "o"]) == 3
    model = json.loads((tmp_path / "o" / "model.json").read_text())
    cause = model["divergence"]
    assert cause["epoch"] == 1 and "exceeds the stability limit" in cause["message"]
    assert cause["step"] is None and cause["sample"] is None  # no step was taken
    assert cause["message"] in capsys.readouterr().err
    healthy = json.loads((workspace["run1"] / "model.json").read_text())
    assert "divergence" not in healthy


def _train_on_edited_copy(workspace, tmp_path, edit):
    """Train on a copy of the workspace dataset after `edit(ds_dir, manifest)`."""
    ds = tmp_path / "ds"
    shutil.copytree(workspace["ds"], ds)
    manifest = json.loads((ds / "manifest.json").read_text())
    edit(ds, manifest)
    (ds / "manifest.json").write_text(json.dumps(manifest))
    cfg = tmp_path / "cfg.json"
    doc = json.loads(workspace["config"].read_text())
    doc["dataset"]["manifest"] = str(ds / "manifest.json")
    cfg.write_text(json.dumps(doc))
    return run_cli(["train", "--config", cfg, "--out", tmp_path / "o"])


def test_train_manifest_label_out_of_range_is_a_data_error(workspace, tmp_path,
                                                            capsys):
    def edit(ds, manifest):
        manifest["samples"][4]["label"] = 7    # a 2-class set
    assert _train_on_edited_copy(workspace, tmp_path, edit) == 2
    err = capsys.readouterr().err
    assert "manifest.json" in err and "entry 4" in err and "label 7" in err


def test_train_manifest_entry_without_path_is_a_data_error(workspace, tmp_path,
                                                            capsys):
    def edit(ds, manifest):
        del manifest["samples"][2]["path"]
    assert _train_on_edited_copy(workspace, tmp_path, edit) == 2
    err = capsys.readouterr().err
    assert "manifest.json" in err and "entry 2" in err and "path" in err


def test_train_nan_in_a_test_csv_is_a_data_error_not_divergence(workspace,
                                                                 tmp_path,
                                                                 capsys):
    names = []

    def edit(ds, manifest):
        entry = next(e for e in manifest["samples"] if e["split"] == "test")
        lines = (ds / entry["path"]).read_text().splitlines()
        lines[4] = "nan"
        (ds / entry["path"]).write_text("\n".join(lines) + "\n")
        names.append(entry["path"])
    assert _train_on_edited_copy(workspace, tmp_path, edit) == 2
    err = capsys.readouterr().err
    assert f"{names[0]}:5:" in err and "diverged" not in err


def test_train_divergence_names_the_sample_file(workspace, tmp_path, capsys):
    names = []

    def edit(ds, manifest):
        entry = [e for e in manifest["samples"] if e["split"] == "train"][2]
        path = ds / entry["path"]
        loud = [repr(1e20 * float(v)) for v in path.read_text().split()]
        path.write_text("\n".join(loud) + "\n")
        names.append(path)
    assert _train_on_edited_copy(workspace, tmp_path, edit) == 3
    err = capsys.readouterr().err
    assert f"(train sample 2, {names[0]}); artifacts hold" in err


# --- classify ----------------------------------------------------------------------

def test_classify_manifest_writes_verdicts_and_confusion(workspace, tmp_path,
                                                         capsys):
    out = tmp_path / "preds.json"
    rc = run_cli(["classify", "--system", workspace["system"],
                  "--manifest", workspace["ds"] / "manifest.json",
                  "--out", out])
    assert rc == 0
    assert "accuracy: " in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert len(doc["verdicts"]) == 10
    for v in doc["verdicts"]:
        assert set(v) == {"file", "energies", "probs", "class", "label"}
        assert len(v["energies"]) == 2 and len(v["probs"]) == 2
        assert v["class"] in (0, 1)
    assert 0.0 <= doc["accuracy"] <= 1.0
    confusion = np.asarray(doc["confusion"])
    assert confusion.shape == (2, 2)
    np.testing.assert_array_equal(confusion.sum(axis=1), [5, 5])


@pytest.mark.parametrize("rate, code", [("2000", 0), ("4000", 2)])
def test_classify_manifest_refuses_a_contradictory_rate(workspace, capsys, rate, code):
    # the manifest's rate is 2000 Hz: a --rate that agrees is accepted, one
    # that contradicts it is a data error, as load_csv refuses a time column's
    rc = run_cli(["classify", "--system", workspace["system"],
                  "--manifest", workspace["ds"] / "manifest.json", "--rate", rate])
    assert rc == code
    if code:
        assert "--rate 4000.0 contradicts the manifest's rate (2000)" in capsys.readouterr().err


def test_classify_unlabeled_files_print_json(workspace, capsys):
    files = sorted(workspace["ds"].glob("class0_test_*.csv"))[:2]
    rc = run_cli(["classify", "--system", workspace["system"],
                  "--input", *files, "--rate", "2000"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"verdicts"}     # no labels -> no accuracy/confusion
    assert len(doc["verdicts"]) == 2
    for v in doc["verdicts"]:
        assert set(v) == {"file", "energies", "probs", "class"}


def test_classify_requires_exactly_one_source(workspace, tmp_path):
    sig = workspace["ds"] / "class0_train_0000.csv"
    rc = run_cli(["classify", "--system", workspace["system"],
                  "--input", sig, "--rate", "2000",
                  "--manifest", workspace["ds"] / "manifest.json"])
    assert rc == 2
    assert run_cli(["classify", "--system", workspace["system"]]) == 2


def test_classify_zero_signal_yields_null_verdict(workspace, tmp_path, capsys):
    zero = tmp_path / "zero.csv"
    zero.write_text("0.0\n" * 200)
    rc = run_cli(["classify", "--system", workspace["system"],
                  "--input", zero, "--rate", "2000"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdicts"][0]["class"] is None
    assert doc["verdicts"][0]["probs"] is None


def test_classify_numeric_failure_names_the_file(workspace, tmp_path,
                                                 monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NumericError("synthetic blowup")

    monkeypatch.setattr(cli.simulator, "run", boom)
    sig = workspace["ds"] / "class1_train_0000.csv"
    rc = run_cli(["classify", "--system", workspace["system"],
                  "--input", sig, "--rate", "2000"])
    assert rc == 3
    assert sig.name in capsys.readouterr().err


def test_missing_system_file_exits_2(workspace, tmp_path):
    rc = run_cli(["classify", "--system", tmp_path / "nope.json",
                  "--manifest", workspace["ds"] / "manifest.json"])
    assert rc == 2


@pytest.mark.parametrize("kind", ["input", "manifest", "system", "config",
                                  "checkpoint", "model"])
def test_undecodable_file_is_a_data_error(workspace, tmp_path, capsys, kind):
    # each file gets one byte that is not UTF-8 in the middle; the error
    # names the file and that byte's offset from the start of the file
    sources = {"input": workspace["ds"] / "class0_train_0000.csv",
               "manifest": workspace["ds"] / "manifest.json",
               "system": workspace["system"], "config": workspace["config"],
               "checkpoint": workspace["run1"] / "checkpoints" / "epoch_001.json",
               "model": workspace["run1"] / "model.json"}
    raw = sources[kind].read_bytes()
    at = len(raw) // 2
    bad = tmp_path / sources[kind].name
    bad.write_bytes(raw[:at] + b"\xff" + raw[at:])
    ok = {"system": workspace["system"], "manifest": workspace["ds"] / "manifest.json",
          "config": workspace["config"], "out": tmp_path / "out"}
    ok[kind] = bad
    argv = {"input": ["classify", "--system", ok["system"], "--input", bad,
                      "--rate", "2000"],
            "manifest": ["classify", "--system", ok["system"], "--manifest", bad],
            "system": ["classify", "--system", bad, "--manifest", ok["manifest"]],
            "config": ["train", "--config", bad, "--out", ok["out"]],
            "checkpoint": ["train", "--config", ok["config"], "--out", ok["out"],
                           "--resume", bad],
            "model": ["export-netlist", "--model", bad, "--out", ok["out"]]}[kind]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: not valid utf-8 text: byte {at} (invalid start byte)" in err


# --- simulate ----------------------------------------------------------------------

def test_simulate_artifacts(workspace, tmp_path, capsys):
    out = tmp_path / "sim"
    rc = run_cli(["simulate", "--system", workspace["system"],
                  "--input", workspace["ds"] / "class0_train_0000.csv",
                  "--rate", "2000", "--out", out, "--logic"])
    assert rc == 0
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,out1,out2"
    assert len(traj) == 1001      # 0.5 s at 2 kHz plus header

    readout = json.loads((out / "energies.json").read_text())
    assert readout["output_cells"] == [2, 3]
    assert len(readout["energies"]) == 2
    assert readout["predicted_class"] in (0, 1)
    assert len(readout["probabilities"]) == 2
    assert "predicted class:" in capsys.readouterr().out

    logic = (out / "logic.csv").read_text().splitlines()
    assert logic[0] == "t,out1,out2"
    assert len(logic) == 1001
    assert set("".join(r.split(",")[1] for r in logic[1:])) <= {"0", "1"}


@pytest.mark.parametrize("flag, value", [("--tau", "1e-5"), ("--tau", "nan"),
                                         ("--tau", "0"), ("--hysteresis", "nan"),
                                         ("--hysteresis", "-0.5")])
def test_simulate_refuses_bad_logic_settings_before_writing(workspace, tmp_path, capsys,
                                                           flag, value):
    # --tau below the 0.5 ms sample period, or a non-finite or negative
    # setting: exit 2 naming the flag, and no trajectory or energies written
    out = tmp_path / "sim"
    rc = run_cli(["simulate", "--system", workspace["system"],
                  "--input", workspace["ds"] / "class0_train_0000.csv",
                  "--rate", "2000", "--out", out, "--logic", flag, value])
    assert rc == 2
    assert f"error: {flag} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_logic_on_one_output_is_refused_before_writing(workspace, tmp_path,
                                                               capsys):
    spec = lattice.LatticeSpec(rows=1, cols=2, grounded=(), input_cell=0, outputs=(1,))
    mech = lattice.MechanicalParams.uniform(spec, 1.307e-3, 3.530e-3, 40.0, 90.0)
    scaling = lattice.choose_scaling(mech, 1e6)
    sys_path = tmp_path / "one_output.json"
    lattice.save_system(sys_path, spec, lattice.mech_to_circuit(mech, scaling), scaling)
    argv = ["simulate", "--system", sys_path,
            "--input", workspace["ds"] / "class0_train_0000.csv", "--rate", "2000"]
    out = tmp_path / "sim"
    assert run_cli(argv + ["--out", out, "--logic"]) == 2
    assert "--logic needs at least two outputs, the system has 1" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(argv + ["--out", out]) == 0   # without --logic it runs


def test_simulate_record_all_writes_every_dof(workspace, tmp_path):
    argv = ["simulate", "--system", workspace["system"],
            "--input", workspace["ds"] / "class0_train_0000.csv", "--rate", "2000"]
    assert run_cli(argv + ["--out", tmp_path / "outs"]) == 0
    assert run_cli(argv + ["--record", "all", "--out", tmp_path / "all"]) == 0
    outs = np.loadtxt(tmp_path / "outs" / "trajectory.csv", delimiter=",", skiprows=1)
    every = tmp_path / "all" / "trajectory.csv"
    sys_m = simulator.assemble(*lattice.load_system(workspace["system"])[:2])
    n = sys_m.n_dof
    assert every.read_text().splitlines()[0] == ",".join(
        ["t"] + [f"dof{d}" for d in range(n)])
    every = np.loadtxt(every, delimiter=",", skiprows=1)
    assert every.shape == (len(outs), 1 + n)
    np.testing.assert_array_equal(every[:, 0], outs[:, 0])
    picked = every[:, [1 + d for d in sys_m.output_dofs]]
    assert np.max(np.abs(picked - outs[:, 1:])) <= 1e-12 * np.max(np.abs(outs[:, 1:]))


def test_simulate_zero_signal_is_undecidable_but_succeeds(workspace, tmp_path,
                                                          capsys):
    zero = tmp_path / "zero.csv"
    zero.write_text("0.0\n" * 100)
    out = tmp_path / "sim0"
    rc = run_cli(["simulate", "--system", workspace["system"],
                  "--input", zero, "--rate", "2000", "--out", out])
    assert rc == 0
    readout = json.loads((out / "energies.json").read_text())
    assert readout["predicted_class"] is None
    assert readout["probabilities"] is None
    assert "undecidable" in capsys.readouterr().out


def test_simulate_bare_csv_without_rate_exits_2(workspace, tmp_path):
    rc = run_cli(["simulate", "--system", workspace["system"],
                  "--input", workspace["ds"] / "class0_train_0000.csv",
                  "--out", tmp_path / "x"])
    assert rc == 2


# --- ac-sweep ----------------------------------------------------------------------

def test_cell_sweep_reports_the_reference_resonances(tmp_path, capsys):
    out = tmp_path / "cell.csv"
    rc = run_cli(["ac-sweep", "--cell", "--preset", "1-100", "--out", out])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "f0=26.788 Hz" in stdout and "f1=51.533 Hz" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "freq_hz,d_eff,z_eff,beta,h"
    assert len(lines) - 1 >= 498   # only pole bins may be skipped


def test_ac_sweep_target_validation(workspace, tmp_path):
    out = tmp_path / "x.csv"
    assert run_cli(["ac-sweep", "--preset", "1-100", "--out", out]) == 2
    assert run_cli(["ac-sweep", "--cell", "--system", workspace["system"],
                    "--preset", "1-100", "--out", out]) == 2
    assert run_cli(["ac-sweep", "--cell", "--out", out]) == 2   # no band
    assert run_cli(["ac-sweep", "--cell", "--preset", "1-100",
                    "--f-start", "5", "--out", out]) == 2       # both bands


@pytest.mark.parametrize("target", ["cell", "ac"])
@pytest.mark.parametrize("points", ["-3", "0", str(cli.MAX_POINTS + 1)])
def test_points_outside_the_grid_bounds_exit_2(workspace, tmp_path, capsys,
                                               target, points):
    out = tmp_path / "o.csv"
    source = ["--cell"] if target == "cell" else ["--system", workspace["system"]]
    assert run_cli(["ac-sweep", *source, "--preset", "1-100",
                    f"--points={points}", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == (f"resonet: error: --points must be between 1 and "
                   f"{cli.MAX_POINTS}, got {points}\n")
    assert not out.exists()


@pytest.mark.parametrize("target", ["cell", "ac", "swept-sine"])
@pytest.mark.parametrize("band, message", [
    (("inf", "10"), "--f-start must be finite, got inf"),
    (("1", "-inf"), "--f-stop must be finite, got -inf"),
    (("nan", "10"), "--f-start must be finite, got nan"),
    (("20", "10"), "--f-start 20 Hz is above --f-stop 10 Hz"),
], ids=["start_inf", "stop_minus_inf", "start_nan", "reversed"])
def test_bad_sweep_band_exits_2_naming_the_flag(workspace, tmp_path, capsys,
                                                target, band, message):
    out = tmp_path / "o.csv"
    source = (["--cell"] if target == "cell" else
              ["--system", workspace["system"], "--method", target])
    assert run_cli(["ac-sweep", *source, f"--f-start={band[0]}",
                    f"--f-stop={band[1]}", "--out", out]) == 2
    assert capsys.readouterr().err == f"resonet: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("target, start, message", [
    ("cell", "0", "--f-start must be > 0 Hz for --cell and --method ac, got 0"),
    ("cell", "-2", "--f-start must be > 0 Hz for --cell and --method ac, got -2"),
    ("ac", "0", "--f-start must be > 0 Hz for --cell and --method ac, got 0"),
    ("ac", "-2", "--f-start must be > 0 Hz for --cell and --method ac, got -2"),
    ("swept-sine", "-2", "--f-start must be >= 0 Hz, got -2"),
])
def test_sweep_start_below_the_band_exits_2_naming_the_flag(workspace, tmp_path, capsys,
                                                           target, start, message):
    out = tmp_path / "o.csv"
    source = (["--cell"] if target == "cell" else
              ["--system", workspace["system"], "--method", target])
    assert run_cli(["ac-sweep", *source, f"--f-start={start}", "--f-stop=30",
                    "--out", out]) == 2
    assert capsys.readouterr().err == f"resonet: error: {message}\n"
    assert not out.exists()


def test_swept_sine_accepts_a_start_of_zero(workspace, tmp_path):
    # the measurement pads its band down to 0 Hz anyway
    out = tmp_path / "ss.csv"
    assert run_cli(["ac-sweep", "--system", workspace["system"], "--method", "swept-sine",
                    "--f-start", "0", "--f-stop", "30", "--sweep-rate", "5",
                    "--out", out]) == 0
    assert out.read_text().startswith("freq_hz,")


@pytest.mark.parametrize("flag, value", [
    ("--sweep-rate", "nan"), ("--window", "nan"), ("--rate", "nan"),
    ("--f-start", "nan"), ("--f-stop", "nan"), ("--f-start", "-inf"),
    ("--rate", "inf"),
])
def test_non_finite_swept_sine_parameter_exits_2(workspace, tmp_path, capsys,
                                                 flag, value):
    band = {"--f-start": "20", "--f-stop": "30", flag: value}
    argv = ["ac-sweep", "--system", workspace["system"], "--method", "swept-sine",
            "--out", tmp_path / "o.csv"]
    for key, text in band.items():
        argv.append(f"{key}={text}")
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv", [
    ["ac-sweep", "--method", "swept-sine", "--f-start", "20", "--f-stop", "30",
     "--sweep-rate", "1e-12"],
    ["gen-dataset", "--seed", "1", "--duration", "1e13"],
    ["gen-dataset", "--seed", "1", "--rate", "1e300"],
    ["gen-dataset", "--seed", "1", "--rate", "inf"],
    ["gen-dataset", "--seed", "1", "--duration", "nan"],
], ids=["sweep_rate_1e-12", "duration_1e13", "rate_1e300", "rate_inf", "duration_nan"])
def test_unbounded_sample_count_exits_2_before_allocating(workspace, tmp_path,
                                                          capsys, argv):
    out = tmp_path / "out"
    if argv[0] == "ac-sweep":
        argv = argv + ["--system", workspace["system"]]
    assert run_cli(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert "samples" in err and "Traceback" not in err
    assert not out.exists()


def test_swept_sine_band_without_a_frame_exits_2(workspace, tmp_path, capsys):
    out = tmp_path / "ss.csv"
    assert run_cli(["ac-sweep", "--system", workspace["system"], "--method", "swept-sine",
                    "--f-start", "20", "--f-stop", "20.5", "--sweep-rate", "5",
                    "--window", "0.5001", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "no analysis frame in the band 20-20.5 Hz" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--f-stop", "100", "--rate", "50"],
     "f_end=100 Hz plus the 1 Hz the sweep is padded by (sweep rate 0.25 Hz/s x "
     "window 4 s) must stay below rate/2=25 Hz"),
    (["--f-stop", "30", "--window", "1e9"],
     "the 20-30 Hz sweep at 0.25 Hz/s, padded by one 1e+09 s window on each side, "
     "lasts 1e+09 s: 4e+12 samples at 4000 Hz, and a generated signal holds at most "
     "268435456"),
], ids=["band_past_nyquist", "window_past_the_sample_bound"])
def test_swept_sine_refusal_names_the_band_and_the_window(workspace, tmp_path, capsys,
                                                          flags, message):
    # the refusal names the band end given and the padding the window adds,
    # and a window too long for any sweep is refused as such, before the
    # Nyquist check could name the padded end
    out = tmp_path / "ss.csv"
    assert run_cli(["ac-sweep", "--system", workspace["system"], "--method", "swept-sine",
                    "--f-start", "20", *flags, "--out", out]) == 2
    assert capsys.readouterr().err == f"resonet: error: {message}\n"
    assert not out.exists()


def test_sweep_methods_agree_away_from_resonance(workspace, tmp_path):
    spec, circ, scaling = lattice.load_system(workspace["system"])
    sys_m = simulator.assemble(spec, circ)
    eig_hz = simulator.eigenfrequencies_hz(sys_m)

    ac_csv, ss_csv = tmp_path / "ac.csv", tmp_path / "ss.csv"
    rc = run_cli(["ac-sweep", "--system", workspace["system"], "--method", "ac",
                  "--f-start", "20", "--f-stop", "45", "--points", "1001",
                  "--out", ac_csv])
    assert rc == 0
    rc = run_cli(["ac-sweep", "--system", workspace["system"],
                  "--method", "swept-sine", "--f-start", "20", "--f-stop", "45",
                  "--sweep-rate", "1.0", "--out", ss_csv])
    assert rc == 0

    ac_lines = ac_csv.read_text().splitlines()
    assert ac_lines[0] == "freq_hz,h1,h2,flags"
    ac = np.array([[float(v) for v in line.split(",")[:3]]
                   for line in ac_lines[1:] if line.split(",")[3] == ""])
    ss_lines = ss_csv.read_text().splitlines()
    assert ss_lines[0] == "freq_hz,h1,h2"
    ss = np.loadtxt(ss_csv, delimiter=",", skiprows=1)
    compared = 0
    for row in ss:
        f = row[0]
        if np.min(np.abs(eig_hz - f)) < 2.0:
            continue
        j = int(np.argmin(np.abs(ac[:, 0] - f)))
        assert abs(ac[j, 0] - f) < 0.05   # grids must actually line up
        rel = np.abs(row[1:] - ac[j, 1:]) / np.abs(ac[j, 1:])
        assert float(rel.max()) <= 0.05, f"mismatch at {f} Hz"
        compared += 1
    assert compared >= 5


# --- landscape ---------------------------------------------------------------------

def test_landscape_counts_on_the_trained_grid(trained, tmp_path):
    spec, mech = trained["spec"], trained["mech"]
    scaling = lattice.choose_scaling(mech, 1e6)
    circ = lattice.mech_to_circuit(mech, scaling)
    sys_path = tmp_path / "sys.json"
    lattice.save_system(sys_path, spec, circ, scaling)

    out = tmp_path / "ls"
    rc = run_cli(["landscape", "--system", sys_path, "--freq", "70",
                  "--out", out, "-v"])
    assert rc == 0
    cells = (out / "cells.csv").read_text().splitlines()
    assert cells[0] == "cell,row,col,z_eff,flag"
    assert len(cells) == 22    # 21 active cells on the corner-grounded 5x5
    edges = (out / "edges.csv").read_text().splitlines()
    assert edges[0] == "a,b,current,sign"
    assert len(edges) == 41    # all 40 couplings
    signs = {row.split(",")[3] for row in edges[1:]}
    assert signs <= {"1", "-1"}


@pytest.mark.parametrize("i_in", ["nan", "inf", "-inf"])
def test_landscape_refuses_a_non_finite_drive_current(workspace, tmp_path, capsys, i_in):
    out = tmp_path / "ls"
    assert run_cli(["landscape", "--system", workspace["system"], "--freq", "40",
                    f"--i-in={i_in}", "--out", out]) == 2
    assert capsys.readouterr().err == f"resonet: error: i_in must be finite, got {i_in}\n"
    assert not out.exists()


# --- export-netlist ----------------------------------------------------------------

def test_netlist_from_trained_model(workspace, tmp_path):
    out = tmp_path / "nl"
    rc = run_cli(["export-netlist", "--model", workspace["run1"] / "model.json",
                  "--series", "e96", "--out", out])
    assert rc == 0
    lines = (out / "netlist.csv").read_text().splitlines()
    assert lines[0] == "ref,kind,value,unit,node_a,node_b"
    assert len(lines) - 1 == 4 * 3 + 4   # per active cell: 2 FDNR + 1 R; 4 edges
    report = json.loads((out / "quantization.json").read_text())
    assert report["series"] == "E96"
    assert len(report["entries"]) == 8
    assert (out / "system.json").exists()
    assert (out / "system_quantized.json").exists()


def test_netlist_counts_on_default_grid(uniform_plant, tmp_path):
    spec, mech, _ = uniform_plant
    scaling = lattice.choose_scaling(mech, 1e6)
    circ = lattice.mech_to_circuit(mech, scaling)
    sys_path = tmp_path / "usys.json"
    lattice.save_system(sys_path, spec, circ, scaling)

    out = tmp_path / "nl5"
    rc = run_cli(["export-netlist", "--system", sys_path, "--series", "none",
                  "--out", out])
    assert rc == 0
    lines = (out / "netlist.csv").read_text().splitlines()
    assert len(lines) - 1 == 21 * 3 + 40   # 103 components on the default grid
    assert not (out / "quantization.json").exists()   # series=none: no snapping


def _netlist_transmission(path, spec, omegas):
    """|v_out / i_in| per output channel of the circuit netlist.csv lists,
    stamped by textbook nodal rules, independent of simulator.assemble:
    1/R between the two nodes of a resistor, s^2 D from an FDNR's node to
    ground, unit current into the input cell's outer node."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    nodes = sorted({name for row in rows for name in row[4:6]} - {"0"})
    index = {name: k for k, name in enumerate(nodes)}
    ground = len(nodes)   # a padded last row and column, dropped below
    g = np.zeros((ground + 1, ground + 1))
    d = np.zeros(ground + 1)
    for _, kind, value, _, a, b in rows:
        i, j = index.get(a, ground), index.get(b, ground)
        if kind == "resistor":
            y = 1.0 / float(value)
            g[[i, j], [i, j]] += y
            g[[i, j], [j, i]] -= y
        else:
            assert (kind, b) == ("fdnr", "0")
            d[i] += float(value)
    g, d = g[:ground, :ground], d[:ground]
    rhs = np.zeros(ground)
    rhs[index[f"c{spec.input_cell}o"]] = 1.0
    outs = [index[f"c{c}i"] for c in spec.outputs]
    # s = jw: an FDNR's admittance s^2 D is -w^2 D
    return np.array([np.abs(np.linalg.solve(g - w * w * np.diag(d), rhs)[outs])
                     for w in omegas]).T


@pytest.mark.parametrize("source", ["model", "grounded_grid"])
@pytest.mark.parametrize("series", ["none", "E96"])
def test_netlist_round_trip_reproduces_the_transmission(workspace, tmp_path,
                                                        source, series):
    if source == "model":
        args = ["--model", workspace["run1"] / "model.json"]
    else:   # the default grid, whose four corner cells are grounded
        spec = lattice.LatticeSpec.default_grid()
        assert spec.grounded
        rng = np.random.default_rng(5)
        jitter = lambda n: np.exp(rng.normal(0.0, 0.2, n))
        mech = lattice.MechanicalParams(
            mass_outer=1.307e-3 * jitter(spec.n_cells),
            mass_inner=3.530e-3 * jitter(spec.n_cells),
            k_internal=100.0 * jitter(spec.n_cells),
            k_coupling=600.0 * jitter(spec.n_edges))
        scaling = lattice.choose_scaling(mech, 1e6)
        lattice.save_system(tmp_path / "grid.json", spec,
                            lattice.mech_to_circuit(mech, scaling), scaling)
        args = ["--system", tmp_path / "grid.json"]
    out = tmp_path / "nl"
    assert run_cli(["export-netlist", *args, "--series", series, "--out", out]) == 0
    built = "system.json" if series == "none" else "system_quantized.json"
    spec, circ, _ = lattice.load_system(out / built)
    omegas = 2.0 * np.pi * np.linspace(1.0, 100.0, 500)
    want, flags = acsolver.transmission(simulator.assemble(spec, circ), omegas)
    live = [f == "" for f in flags]
    assert sum(live) >= 400
    got = _netlist_transmission(out / "netlist.csv", spec, omegas[live])
    assert np.max(np.abs(got - want[:, live]) / want[:, live]) <= 1e-9


def test_netlist_requires_exactly_one_source(workspace, tmp_path):
    out = tmp_path / "nl"
    assert run_cli(["export-netlist", "--out", out]) == 2
    assert run_cli(["export-netlist", "--model", workspace["run1"] / "model.json",
                    "--system", workspace["system"], "--out", out]) == 2


# --- refusing to overwrite ---------------------------------------------------------

def _refusal_case(command, ws, out):
    """argv of `command` writing into directory `out`, and the name of the
    output it writes last (for gen-dataset, its last sample CSV)."""
    sample = ws["ds"] / "class0_train_0000.csv"
    return {
        "gen-dataset": (["gen-dataset", "--out", out, "--seed", "3", "--centers", "30,50",
                         "--duration", "0.5", "--train-per-class", "3",
                         "--test-per-class", "2"], "class1_test_0004.csv"),
        "train": (["train", "--config", ws["config"], "--out", out], "quantization.json"),
        "classify": (["classify", "--system", ws["system"], "--input", sample,
                      "--rate", "2000", "--out", out / "verdicts.json"], "verdicts.json"),
        "simulate": (["simulate", "--system", ws["system"], "--input", sample,
                      "--rate", "2000", "--out", out, "--logic"], "logic.csv"),
        "ac-sweep": (["ac-sweep", "--system", ws["system"], "--f-start", "10",
                      "--f-stop", "60", "--points", "20", "--out", out / "h.csv"], "h.csv"),
        "landscape": (["landscape", "--system", ws["system"], "--freq", "40",
                       "--out", out], "edges.csv"),
        "export-netlist": (["export-netlist", "--model", ws["run1"] / "model.json",
                            "--out", out], "netlist.csv"),
    }[command]


def _tree(d):
    """Every path under d, with each file's bytes (None for a directory)."""
    return {p.relative_to(d): p.read_bytes() if p.is_file() else None
            for p in d.rglob("*")}


@pytest.mark.parametrize("command", ["gen-dataset", "train", "classify", "simulate",
                                     "ac-sweep", "landscape", "export-netlist"])
def test_a_refused_command_leaves_its_output_directory_unchanged(workspace, tmp_path,
                                                                  capsys, command):
    # every output is checked before any input is read or any work is done:
    # with the last one present, the command exits 2 and writes nothing
    out = tmp_path / "out"
    argv, last = _refusal_case(command, workspace, out)
    out.mkdir()
    (out / last).write_text("kept")
    before = _tree(out)
    assert run_cli(argv) == 2
    assert "already exists; pass --force" in capsys.readouterr().err
    assert _tree(out) == before
    assert run_cli(argv + ["--force"]) == 0
    assert (out / last).read_text() != "kept"


# --- global flags ------------------------------------------------------------------

def test_threads_flag(workspace, tmp_path):
    # --threads never capped anything (its BLAS limiter was never a
    # dependency), so it is gone and argparse rejects it as a usage error.
    assert run_cli(["ac-sweep", "--cell", "--preset", "1-100",
                    "--out", tmp_path / "cell.csv", "--threads", "1"]) == 1
