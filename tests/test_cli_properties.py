"""Property tests at the CLI boundary.

A malformed or mis-encoded train config, dataset manifest, checkpoint,
system.json or model.json must end ``resonet`` with exit 2 and a one-line
error, never a traceback.  Each property starts from a valid document and
breaks it one way: bytes that are not text, a truncated text, a field of the
wrong JSON type, a missing or an unknown key.  The broken values are never
numbers, so no example can turn into a valid (and possibly long) run.  Every
JSON file resonet writes must read back through the same readers.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from resonet import cli, lattice, signals, trainer
from resonet.errors import json_text, read_json

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

SCALARS = (st.none() | st.booleans() | st.integers(-1000, 1000)
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6))
# values of the wrong JSON type for every field these documents hold
WRONG = (st.none() | st.booleans() | st.text(max_size=6)
         | st.dictionaries(st.text(max_size=4), SCALARS, max_size=2))

TRAIN = {"epochs": 1, "batch_size": 4, "lr": 0.02, "seed": 3, "loss_floor": 0.0,
         "prob_epsilon": 1e-12, "mass_outer_kg": 1.307e-3, "mass_inner_kg": 3.53e-3,
         "f0_band_hz": [60.0, 80.0], "init_output_centers": True,
         "kc_init": [300.0, 900.0], "k_min": 1e-2, "k_max": 1e4, "beta1": 0.9,
         "beta2": 0.999, "adam_eps": 1e-8}
DATASET = {"centers_hz": [30.0, 50.0], "rate_hz": 2000.0, "duration_s": 0.2,
           "sigma_s": 0.03, "amplitude": 1.0, "jitter_s": 0.02, "snr_db": 20.0,
           "train_per_class": 2, "test_per_class": 1, "seed": 4}
LATTICE = {"rows": 2, "cols": 2, "grounded": [], "input": 0, "outputs": [2, 3]}
EXPORT = {"r_target_ohm": 1e6, "series": "E96"}


def run_cli(argv, capsys) -> tuple[int, str]:
    capsys.readouterr()
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def assert_data_error(code, err):
    assert code == 2, err
    assert err.startswith("resonet: error: ") and "Traceback" not in err


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A tiny dataset, a valid config for it, and the run it trains: one
    checkpoint, model.json and system.json."""
    base = tmp_path_factory.mktemp("props")
    assert cli.main(["gen-dataset", "--out", str(base / "ds"), "--seed", "2",
                     "--centers", "30,50", "--duration", "0.2", "--sigma", "0.03",
                     "--jitter", "0.02", "--train-per-class", "2",
                     "--test-per-class", "1"]) == 0
    config = {"lattice": LATTICE, "dataset": {"manifest": "ds/manifest.json"},
              "train": TRAIN, "export": EXPORT}
    (base / "config.json").write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(base / "config.json"),
                     "--out", str(base / "run")]) == 0
    checkpoint = json.loads((base / "run" / "checkpoints" / "epoch_001.json").read_text())
    manifest = json.loads((base / "ds" / "manifest.json").read_text())
    return {"base": base, "config": config, "checkpoint": checkpoint,
            "manifest": manifest, "system": base / "run" / "system.json",
            "docs": {"system": json.loads((base / "run" / "system.json").read_text()),
                     "model": json.loads((base / "run" / "model.json").read_text())},
            "csv": base / "ds" / manifest["samples"][0]["path"]}


def _paths(doc, prefix=()):
    """Every (path, value) inside a JSON document, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,), value
        if isinstance(value, (dict, list)) and value:
            yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _deleted(doc, path):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    return doc


def _mangled(text: str, data) -> bytes:
    """Text broken at the byte level: a proper prefix, a lone byte >= 0x80
    (never valid UTF-8 between ASCII bytes), or arbitrary bytes."""
    raw = text.encode()
    how = data.draw(st.sampled_from(["truncate", "high_byte", "binary", "utf16"]))
    if how == "truncate":
        return raw[:data.draw(st.integers(0, len(raw.rstrip()) - 2))]
    if how == "high_byte":
        at = data.draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([data.draw(st.integers(0x80, 0xFF))]) + raw[at + 1:]
    if how == "utf16":
        return text.encode("utf-16")
    return data.draw(st.binary(max_size=64))


# --- train configs --------------------------------------------------------------

def _train(ws, config_bytes, capsys):
    path = ws["base"] / "fuzz_config.json"
    path.write_bytes(config_bytes)
    return run_cli(["train", "--config", path, "--out", ws["base"] / "fuzz_run",
                    "--force"], capsys)


def _config_paths(config):
    inline = dict(config, dataset=DATASET)
    for doc in (config, inline):
        for path, _ in _paths(doc):
            yield doc, path


@SETTINGS
@given(data=st.data())
def test_config_with_an_ill_typed_field_exits_2(ws, capsys, data):
    doc, path = data.draw(st.sampled_from(list(_config_paths(ws["config"]))))
    original = json.loads(json.dumps(doc))
    for key in path:
        original = original[key]
    # null is a valid f0_band_hz and snr_db, a boolean init_output_centers
    wrong = WRONG.filter(lambda v: type(v) is not type(original)
                         and not (v is None and path[-1] in ("f0_band_hz", "snr_db")))
    broken = _replaced(doc, path, data.draw(wrong))
    assert_data_error(*_train(ws, json.dumps(broken).encode(), capsys))


@SETTINGS
@given(data=st.data())
def test_config_with_a_missing_or_unknown_key_exits_2(ws, capsys, data):
    config = ws["config"]
    section = data.draw(st.sampled_from(["lattice", "train", "export", "dataset"]))
    if data.draw(st.booleans()):
        known = set(config[section]) | set(DATASET)
        key = data.draw(st.text(max_size=8).filter(lambda k: k not in known))
        broken = _replaced(config, (section, key), data.draw(SCALARS))
    else:
        # the lattice keys but "grounded" are required, and so are train.seed and the
        # dataset's manifest (without it the section is a dataset recipe)
        required = {"lattice": ["cols", "input", "outputs", "rows"], "train": ["seed"],
                    "dataset": ["manifest"]}.get(section)
        if required is None:
            not_an_object = WRONG.filter(lambda v: not isinstance(v, dict))
            broken = _replaced(config, (section,), data.draw(not_an_object))
        else:
            broken = _deleted(config, (section, data.draw(st.sampled_from(required))))
            if section == "dataset":
                broken["dataset"]["rate_hz"] = "fast"
    assert_data_error(*_train(ws, json.dumps(broken).encode(), capsys))


@SETTINGS
@given(doc=st.recursive(SCALARS, lambda c: st.lists(c, max_size=3), max_leaves=6))
def test_config_that_is_not_an_object_exits_2(ws, capsys, doc):
    assert_data_error(*_train(ws, json.dumps(doc).encode(), capsys))


@SETTINGS
@given(data=st.data())
def test_config_that_is_not_text_or_not_json_exits_2(ws, capsys, data):
    assert_data_error(*_train(ws, _mangled(json.dumps(ws["config"]), data), capsys))


# --- dataset manifests -------------------------------------------------------------

def _classify(ws, manifest_bytes, capsys):
    path = ws["base"] / "ds" / "fuzz_manifest.json"
    path.write_bytes(manifest_bytes)
    return run_cli(["classify", "--system", ws["system"], "--manifest", path],
                   capsys)


@SETTINGS
@given(data=st.data())
def test_manifest_with_an_ill_typed_or_missing_field_exits_2(ws, capsys, data):
    manifest = ws["manifest"]
    path, original = data.draw(st.sampled_from(list(_paths(manifest))))
    if isinstance(path[-1], str) and data.draw(st.booleans()):
        broken = _deleted(manifest, path)
    else:
        broken = _replaced(manifest, path,
                           data.draw(WRONG.filter(lambda v: type(v) is not type(original))))
    assert_data_error(*_classify(ws, json.dumps(broken).encode(), capsys))


@SETTINGS
@given(data=st.data())
def test_manifest_that_is_not_text_or_not_json_exits_2(ws, capsys, data):
    assert_data_error(*_classify(ws, _mangled(json.dumps(ws["manifest"]), data),
                                 capsys))


# --- checkpoints -----------------------------------------------------------------------

def _resume(ws, checkpoint_bytes, capsys):
    path = ws["base"] / "fuzz_checkpoint.json"
    path.write_bytes(checkpoint_bytes)
    return run_cli(["train", "--config", ws["base"] / "config.json",
                    "--out", ws["base"] / "fuzz_resume", "--force",
                    "--resume", path], capsys)


@SETTINGS
@given(data=st.data())
def test_checkpoint_with_an_ill_typed_or_missing_field_exits_2(ws, capsys, data):
    ckpt = ws["checkpoint"]
    # dropping a history entry leaves a valid (shorter) history
    path, original = data.draw(st.sampled_from(
        [(p, v) for p, v in _paths(ckpt) if p[:1] != ("history",) or len(p) > 2]))
    if isinstance(path[-1], str) and data.draw(st.booleans()):
        broken = _deleted(ckpt, path)
    else:
        broken = _replaced(ckpt, path,
                           data.draw(WRONG.filter(lambda v: type(v) is not type(original))))
    assert_data_error(*_resume(ws, json.dumps(broken).encode(), capsys))


@SETTINGS
@given(data=st.data())
def test_checkpoint_that_is_not_text_or_not_json_exits_2(ws, capsys, data):
    assert_data_error(*_resume(ws, _mangled(json.dumps(ws["checkpoint"]), data),
                               capsys))


# --- system.json and model.json ------------------------------------------------------

# the record of the run in model.json is not read back: it may be left out, like
# the spec's "grounded", and only its top-level types are checked
RUN_RECORD = ("history", "stop_reason", "divergence", "train_config")
OPTIONAL = {"grounded", *RUN_RECORD}


def _read_back(ws, which, doc_bytes, capsys) -> list[str]:
    """Every command that reads the broken file must exit 2; returns their
    error lines."""
    path = ws["base"] / f"fuzz_{which}.json"
    path.write_bytes(doc_bytes)
    out = ws["base"] / "fuzz_export"
    if which == "model":
        commands = [["export-netlist", "--model", path, "--out", out, "--force"]]
    else:
        commands = [["classify", "--system", path, "--input", ws["csv"], "--rate", "2000"],
                    ["export-netlist", "--system", path, "--out", out, "--force"]]
    errors = []
    for argv in commands:
        code, err = run_cli(argv, capsys)
        assert_data_error(code, err)
        errors.append(err)
    return errors


def _checked_paths(doc):
    return [(p, v) for p, v in _paths(doc) if p[0] not in RUN_RECORD or len(p) == 1]


@pytest.mark.parametrize("which", ["system", "model"])
@SETTINGS
@given(data=st.data())
def test_system_or_model_with_an_ill_typed_or_missing_field_exits_2(ws, capsys, which,
                                                                    data):
    doc = ws["docs"][which]
    path, original = data.draw(st.sampled_from(_checked_paths(doc)))
    if (isinstance(path[-1], str) and path[-1] not in OPTIONAL
            and data.draw(st.booleans())):
        broken = _deleted(doc, path)
    else:
        broken = _replaced(doc, path,
                           data.draw(WRONG.filter(lambda v: type(v) is not type(original))))
    _read_back(ws, which, json.dumps(broken).encode(), capsys)


@pytest.mark.parametrize("which", ["system", "model"])
@SETTINGS
@given(data=st.data())
def test_system_or_model_with_an_unknown_key_exits_2(ws, capsys, which, data):
    doc = ws["docs"][which]
    objects = [()] + [p for p, v in _paths(doc)
                      if isinstance(v, dict) and p[0] not in RUN_RECORD]
    where = data.draw(st.sampled_from(objects))
    target = doc
    for key in where:
        target = target[key]
    key = data.draw(st.text(max_size=8).filter(lambda k: k not in target))
    broken = _replaced(doc, where + (key,), data.draw(SCALARS))
    _read_back(ws, which, json.dumps(broken).encode(), capsys)


@pytest.mark.parametrize("which", ["system", "model"])
@SETTINGS
@given(doc=st.recursive(SCALARS, lambda c: st.lists(c, max_size=3), max_leaves=6))
def test_system_or_model_that_is_not_an_object_exits_2(ws, capsys, which, doc):
    _read_back(ws, which, json.dumps(doc).encode(), capsys)


@pytest.mark.parametrize("which", ["system", "model"])
@SETTINGS
@given(data=st.data())
def test_system_or_model_that_is_not_text_or_not_json_exits_2(ws, capsys, which, data):
    _read_back(ws, which, _mangled(json.dumps(ws["docs"][which]), data), capsys)


@pytest.mark.parametrize("path, value, named", [
    (("scaling",), "abc", "'scaling'"),
    (("edges", 0, "a"), "x", "'edges[0].a'"),
    (("edges", 1, "R_c"), "1e6", "'edges[1].R_c'"),
    (("cells", 2, "D_M"), True, "'cells[2].D_M'"),
])
def test_system_value_of_another_json_type_names_the_key(ws, capsys, path, value, named):
    broken = _replaced(ws["docs"]["system"], path, value)
    for err in _read_back(ws, "system", json.dumps(broken).encode(), capsys):
        assert f"fuzz_system.json: {named} must be " in err


@pytest.mark.parametrize("which, path, value, named", [
    ("system", ("cells", 1, "D_M"), -1.0, "'cells[1].D_M' must be a finite number > 0"),
    ("system", ("edges", 0, "R_c"), 0, "'edges[0].R_c' must be a finite number > 0"),
    ("system", ("scaling",), -2, "'scaling' must be a finite number > 0"),
    ("system", ("spec", "outputs"), [2, 99], "spec: output cell index 99 outside 0..3"),
    ("model", ("k_coupling", 0), 0.0, "'k_coupling' must be a list of finite numbers > 0"),
    ("model", ("spec", "input"), -1, "spec: input cell index -1 outside 0..3"),
    ("model", ("mass_inner_kg",), [1.0], "expected 4 'mass_inner_kg' entries, got 1"),
])
def test_system_or_model_value_out_of_range_names_the_file_and_key(ws, capsys, which,
                                                                   path, value, named):
    broken = _replaced(ws["docs"][which], path, value)
    for err in _read_back(ws, which, json.dumps(broken).encode(), capsys):
        assert f"fuzz_{which}.json: {named}" in err


def test_every_json_file_resonet_writes_reads_back(ws):
    base, run = ws["base"], ws["base"] / "run"
    manifest = ws["manifest"]
    ds = signals.load_dataset(base / "ds" / "manifest.json")
    assert ds.spec.rate_hz == manifest["rate"]
    assert list(ds.spec.centers_hz) == manifest["classes"]
    assert [(s.source.name, s.label, s.split) for s in ds.samples] == \
        [(e["path"], e["label"], e["split"]) for e in manifest["samples"]]
    for ckpt_path in sorted((run / "checkpoints").iterdir()):
        ckpt = trainer.Checkpoint.from_json_dict(read_json(ckpt_path), str(ckpt_path))
        assert json_text(ckpt.to_json_dict()) == ckpt_path.read_text()
    model = read_json(run / "model.json")
    spec, mech = lattice.mech_from_json_dict(model, run / "model.json")
    written = lattice.mech_to_json_dict(spec, mech)
    assert written == {k: v for k, v in model.items() if k not in RUN_RECORD}
    for name in ("system.json", "system_quantized.json"):
        spec, circ, scaling = lattice.load_system(run / name)
        assert json_text(lattice.system_to_json_dict(spec, circ, scaling)) == \
            (run / name).read_text()
