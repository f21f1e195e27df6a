"""Command-line interface binding all modules.

Commands::

    gen-dataset     synthesize a labeled pulse dataset (CSVs + manifest)
    train           optimize a lattice on a dataset (JSON config driven)
    classify        run signal files or a dataset through a saved system
    simulate        time-domain trajectory + energy readout for one signal
    ac-sweep        frequency response of one cell or a whole system
    landscape       per-cell impedances and per-edge currents at one frequency
    export-netlist  circuit values, E-series quantization, component list

Exit codes: 0 success, 1 usage error, 2 configuration/data error, 3 numeric
failure.  Artifacts are written deterministically (sorted JSON keys, repr
floats, no timestamps): a command re-run with identical inputs and seeds
produces byte-identical files.  Nothing is overwritten without --force.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import acsolver, lattice, signals, simulator, trainer, unitcell
from .errors import (ConfigError, DataFormatError, NearResonanceError,
                     NumericError, PoleError, ResonetError, UndecidableError,
                     check_fields, is_json_number, json_text, read_json,
                     refuse_overwrite, write_json)

USAGE_EXIT = 1
CONFIG_EXIT = 2
NUMERIC_EXIT = 3

MAX_POINTS = 100_000   # largest --points grid of ac-sweep

_NUMERIC_ERRORS = (NumericError, NearResonanceError, PoleError, UndecidableError)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


# --- small shared helpers ----------------------------------------------------

def _fmt_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path, header, rows, force: bool) -> Path:
    path = Path(path)
    refuse_overwrite([path], force)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(c) for c in row) + "\n")
    return path


def _load_system(path):
    spec, circ, scaling = lattice.load_system(path)
    return spec, circ, scaling, simulator.assemble(spec, circ)


def _float_list(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("expected at least one number")
    return vals


def _sweep_band(args) -> tuple[float, float]:
    if args.preset is not None:
        if args.f_start is not None or args.f_stop is not None:
            raise ConfigError("give either --preset or --f-start/--f-stop, not both")
        return signals.SWEEP_PRESETS[args.preset]
    if args.f_start is None or args.f_stop is None:
        raise ConfigError("need --preset or both --f-start and --f-stop")
    for flag, value in (("--f-start", args.f_start), ("--f-stop", args.f_stop)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if args.f_start > args.f_stop:
        raise ConfigError(f"--f-start {args.f_start:g} Hz is above "
                          f"--f-stop {args.f_stop:g} Hz")
    # a swept sine pads its band down to 0 Hz anyway; a grid of bins needs omega > 0
    if args.cell or args.method == "ac":
        if args.f_start <= 0.0:
            raise ConfigError(f"--f-start must be > 0 Hz for --cell and --method ac, "
                              f"got {args.f_start:g}")
    elif args.f_start < 0.0:
        raise ConfigError(f"--f-start must be >= 0 Hz, got {args.f_start:g}")
    return float(args.f_start), float(args.f_stop)


# --- gen-dataset ---------------------------------------------------------------

def cmd_gen_dataset(args) -> int:
    snr = args.snr
    if snr is not None and math.isinf(snr):
        snr = None
    dspec = signals.DatasetSpec(
        centers_hz=tuple(args.centers), rate_hz=args.rate,
        duration_s=args.duration, sigma_s=args.sigma, amplitude=args.amplitude,
        jitter_s=args.jitter, snr_db=snr,
        train_per_class=args.train_per_class, test_per_class=args.test_per_class,
        seed=args.seed)
    ds = signals.gen_dataset(dspec)
    manifest = signals.save_dataset(ds, args.out, force=args.force)
    print(f"wrote {len(ds.samples)} samples "
          f"({len(ds.split('train'))} train / {len(ds.split('test'))} test), "
          f"manifest: {manifest}")
    return 0


# --- train -----------------------------------------------------------------------

_CONFIG_SECTIONS = {"lattice": "dict", "dataset": "dict", "train": "dict",
                    "export": "dict"}


def _section(doc: dict, name: str, kinds: dict, source) -> dict:
    """Config section `name` of doc ({} if absent), each key optional and of
    its kind in kinds; a ConfigError names the file and the key."""
    return check_fields(doc.get(name, {}), kinds, source, name + ".",
                        optional=kinds, error=ConfigError)


def _dataclass_section(doc: dict, name: str, cls, source) -> dict:
    """Section `name` as keyword arguments of the dataclass cls."""
    # a field's annotation names its kind in errors.JSON_KINDS
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    return {k: tuple(v) if isinstance(v, list) else v
            for k, v in _section(doc, name, kinds, source).items()}


_EXPORT_SECTION = {"r_target_ohm": ("a finite number > 0",
                                    lambda v: is_json_number(v) and v > 0.0),
                   "series": ("an E-series name or \"none\"",
                              lambda v: isinstance(v, str) and (
                                  v.upper() in lattice.SERIES_TABLES
                                  or v.lower() == "none"))}


def _dataset_from_config(doc: dict, source) -> signals.Dataset:
    if "manifest" in doc["dataset"]:
        path = Path(check_fields(doc["dataset"], {"manifest": "str"}, source,
                                 "dataset.", error=ConfigError)["manifest"])
        if not path.is_absolute():
            path = Path(source).resolve().parent / path
        return signals.load_dataset(path)
    return signals.gen_dataset(signals.DatasetSpec(
        **_dataclass_section(doc, "dataset", signals.DatasetSpec, source)))


def _train_config_from_dict(doc: dict, seed_override, source) -> trainer.TrainConfig:
    d = _dataclass_section(doc, "train", trainer.TrainConfig, source)
    if seed_override is not None:
        d["seed"] = int(seed_override)
    if "seed" not in d:
        raise ConfigError("training requires a seed (config train.seed or --seed)")
    return trainer.TrainConfig(**d)


def cmd_train(args) -> int:
    source = args.config
    cfg_dict = check_fields(read_json(source), _CONFIG_SECTIONS, source,
                            optional=("lattice", "train", "export"),
                            error=ConfigError)
    if "lattice" in cfg_dict:
        spec = lattice.spec_from_json_dict(cfg_dict["lattice"], source, "lattice.")
    else:
        spec = lattice.LatticeSpec.default_grid()
    exp_cfg = _section(cfg_dict, "export", _EXPORT_SECTION, source)
    series = exp_cfg.get("series", "E96")
    cfg = _train_config_from_dict(cfg_dict, args.seed, source)
    out = Path(args.out)
    metrics_path = out / "metrics.csv"
    model_path = out / "model.json"
    refuse_overwrite([metrics_path, model_path]
                     + lattice.system_files(out, series.lower() != "none"), args.force)
    ds = _dataset_from_config(cfg_dict, source)

    out.mkdir(parents=True, exist_ok=True)
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)

    resume = None
    if args.resume is not None:
        resume = trainer.Checkpoint.from_json_dict(read_json(args.resume),
                                                   str(args.resume))
        resume.check_fits(spec, cfg, str(args.resume))

    def on_epoch(ck: trainer.Checkpoint) -> None:
        # a resumed run rewrites the epochs after its checkpoint
        write_json(ckpt_dir / f"epoch_{ck.epoch:03d}.json", ck.to_json_dict(),
                   force=True)
        if args.verbose:
            h = ck.history[-1]
            print(f"epoch {h['epoch']:3d}  loss {h['loss']:.4f}  "
                  f"train_acc {h['train_acc']:.3f}  val_acc {h['val_acc']:.3f}")

    result = trainer.train(spec, ds, cfg, resume=resume, on_epoch=on_epoch)

    _write_csv(metrics_path, ["epoch", "loss", "train_acc", "val_acc"],
               [(h["epoch"], h["loss"], h["train_acc"], h["val_acc"])
                for h in result.history], args.force)
    model = lattice.mech_to_json_dict(spec, result.mech)
    model["history"] = [dict(h) for h in result.history]
    model["stop_reason"] = result.stop_reason
    if result.divergence is not None:
        model["divergence"] = result.divergence
    model["train_config"] = dataclasses.asdict(cfg)
    write_json(model_path, model, args.force)

    print(f"metrics: {metrics_path}")
    print(f"model: {model_path}")
    if result.history:
        h = result.history[-1]
        print(f"stopped after epoch {h['epoch']} ({result.stop_reason}): "
              f"loss {h['loss']:.4f}, train_acc {h['train_acc']:.3f}, "
              f"val_acc {h['val_acc']:.3f}")
    if result.aborted:
        d = result.divergence
        where = ""
        if d["sample"] is not None:
            source = ds.split(d["split"])[d["sample"]].source
            where = f" ({d['split']} sample {d['sample']}" + (
                "" if source is None else f", {source}") + ")"
        print(f"training diverged in epoch {d['epoch']}: {d['message']}{where}; "
              "artifacts hold the last stable epoch", file=sys.stderr)
        return NUMERIC_EXIT
    exp = trainer.export_trained(spec, result.mech,
                                 float(exp_cfg.get("r_target_ohm", 1e6)), series,
                                 heldout=ds.split("test"))
    lines = lattice.save_system_files(out, spec, exp.circuit, exp.scaling,
                                      exp.quantized, exp.report, args.force)
    if exp.accuracy_exact is not None:
        lines.append(f"held-out accuracy (exact circuit): {exp.accuracy_exact:.4f}")
    if exp.accuracy_quantized is not None:
        lines.append(f"held-out accuracy (quantized):     {exp.accuracy_quantized:.4f}")
    for line in lines:
        print(line)
    return 0


# --- classify ----------------------------------------------------------------------

def _verdict(energies) -> tuple[int | None, list[float] | None]:
    """simulator.classify's class and probabilities, or (None, None) for
    all-zero energies, which have no verdict."""
    try:
        pred, probs = simulator.classify(energies)
    except UndecidableError:
        return None, None
    return pred, [float(p) for p in probs]


def cmd_classify(args) -> int:
    if (args.input is None) == (args.manifest is None):
        raise ConfigError("give exactly one of --input or --manifest")
    if args.out is not None:
        refuse_overwrite([args.out], args.force)
    spec, circ, scaling, sys_m = _load_system(args.system)
    n_out = len(spec.outputs)
    verdicts = []
    n_correct = 0
    n_labeled = 0
    if args.manifest is not None:
        dataset = signals.load_dataset(args.manifest)
        rate = dataset.spec.rate_hz
        if args.rate is not None and abs(args.rate - rate) > 1e-6 * rate:
            raise DataFormatError(f"{args.manifest}: --rate {args.rate} contradicts "
                                  f"the manifest's rate ({rate:.6g})")
        items = [(str(s.source), s.label, s.signal) for s in dataset.samples]
    else:
        items = [(str(p), None, signals.load_csv(p, rate=args.rate))
                 for p in args.input]
    for source, label, sig in items:
        try:
            traj = simulator.run(sys_m, sig)
        except _NUMERIC_ERRORS as exc:
            raise type(exc)(f"{source}: {exc}") from exc
        energies = simulator.integrate_energy(traj, traj.dofs)
        pred, probs_out = _verdict(energies)
        verdict = {"file": source, "energies": [float(e) for e in energies],
                   "probs": probs_out, "class": pred}
        if label is not None:
            verdict["label"] = label
            n_labeled += 1
            n_correct += int(pred == label)
        verdicts.append(verdict)
        if args.verbose:
            shown = "undecidable" if probs_out is None else (
                f"{pred} (probs {', '.join(f'{p:.3f}' for p in probs_out)})")
            print(f"{source}: class {shown}")
    doc: dict = {"verdicts": verdicts}
    if n_labeled:
        confusion = np.zeros((n_out, n_out), dtype=int)
        for v in verdicts:
            if "label" in v and v["class"] is not None:
                confusion[v["label"], v["class"]] += 1
        doc["accuracy"] = n_correct / n_labeled
        doc["confusion"] = confusion.tolist()
    if args.out is not None:
        path = write_json(args.out, doc, args.force)
        print(f"predictions: {path}")
    else:
        print(json_text(doc), end="")
    if n_labeled:
        print(f"accuracy: {n_correct / n_labeled:.4f} ({n_correct}/{n_labeled})")
        if args.verbose:
            print("confusion (rows=true, cols=predicted):")
            for r in doc["confusion"]:
                print("  " + " ".join(f"{v:4d}" for v in r))
    return 0


# --- simulate ---------------------------------------------------------------------

def _check_logic(args, n_out: int, dt: float) -> None:
    """Refuse, naming the flag, what simulator.comparator would refuse."""
    if n_out < 2:
        raise ConfigError(f"--logic needs at least two outputs, the system has {n_out}")
    if not (math.isfinite(args.tau) and args.tau > 0.0 and dt / args.tau <= 1.0):
        raise ConfigError(f"--tau must be finite and at least the sample period "
                          f"{dt:.6g} s, got {args.tau}")
    if not (math.isfinite(args.hysteresis) and args.hysteresis >= 0.0):
        raise ConfigError(f"--hysteresis must be finite and >= 0, got {args.hysteresis}")


def cmd_simulate(args) -> int:
    out = Path(args.out)
    traj_path, energy_path, logic_path = (out / "trajectory.csv", out / "energies.json",
                                          out / "logic.csv")
    refuse_overwrite([traj_path, energy_path] + ([logic_path] if args.logic else []),
                     args.force)
    spec, circ, scaling, sys_m = _load_system(args.system)
    sig = signals.load_csv(args.input, rate=args.rate)
    if args.logic:
        _check_logic(args, len(spec.outputs), 1.0 / sig.rate_hz)
    traj = simulator.run(sys_m, sig, args.record)

    out.mkdir(parents=True, exist_ok=True)
    if args.record == "outputs":
        cols = [f"out{i + 1}" for i in range(len(traj.dofs))]
    else:
        cols = [f"dof{d}" for d in traj.dofs]
    times = traj.times
    rows = ([t] + list(vals) for t, vals in zip(times, traj.values))
    _write_csv(traj_path, ["t"] + cols, rows, args.force)
    print(f"trajectory: {traj_path}")

    energies = simulator.integrate_energy(traj, sys_m.output_dofs)
    readout = {"output_cells": list(spec.outputs),
               "energies": [float(e) for e in energies]}
    readout["predicted_class"], readout["probabilities"] = _verdict(energies)
    write_json(energy_path, readout, args.force)
    print(f"energies: {energy_path}")
    if readout["predicted_class"] is not None:
        print(f"predicted class: {readout['predicted_class']} "
              f"(probs {', '.join(f'{p:.3f}' for p in readout['probabilities'])})")
    else:
        print("predicted class: undecidable (all output energies zero)")

    if args.logic:
        out_cols = np.stack([traj.column(d) for d in sys_m.output_dofs], axis=1)
        logic = simulator.comparator(out_cols, traj.dt, tau_s=args.tau,
                                     hysteresis=args.hysteresis)
        names = [f"out{i + 1}" for i in range(logic.shape[1])]
        rows = ([t] + [int(v) for v in step] for t, step in zip(times, logic))
        _write_csv(logic_path, ["t"] + names, rows, args.force)
        print(f"logic trace: {logic_path}")
    return 0


# --- ac-sweep ----------------------------------------------------------------------

def cmd_ac_sweep(args) -> int:
    if (args.system is None) == (not args.cell):
        raise ConfigError("give exactly one of --system or --cell")
    f_start, f_stop = _sweep_band(args)
    if not 1 <= args.points <= MAX_POINTS:
        raise ConfigError(f"--points must be between 1 and {MAX_POINTS}, "
                          f"got {args.points}")
    refuse_overwrite([args.out], args.force)

    if args.cell:
        cell = unitcell.UnitCellParams(d_outer=args.d_outer, d_inner=args.d_inner,
                                       r_internal=args.r_internal)
        freqs = np.linspace(f_start, f_stop, args.points)
        rows = []
        for f in freqs:
            w = 2.0 * math.pi * f
            try:
                rows.append((f, unitcell.d_eff(cell, w), unitcell.z_eff(cell, w),
                             unitcell.beta(cell, w), unitcell.transfer_h(cell, w)))
            except PoleError:
                continue  # pole bin: no representable value at this frequency
        path = _write_csv(args.out, ["freq_hz", "d_eff", "z_eff", "beta", "h"],
                          rows, args.force)
        w0, w1 = unitcell.resonance_freqs(cell)
        print(f"cell sweep: {path} ({len(rows)} rows; "
              f"f0={w0 / (2 * math.pi):.3f} Hz, f1={w1 / (2 * math.pi):.3f} Hz)")
        return 0

    spec, circ, scaling, sys_m = _load_system(args.system)
    n_out = len(spec.outputs)
    h_names = [f"h{i + 1}" for i in range(n_out)]
    if args.method == "ac":
        freqs = np.linspace(f_start, f_stop, args.points)
        h, flags = acsolver.transmission(sys_m, 2.0 * math.pi * freqs,
                                         guard_hz=args.guard_hz,
                                         z_ref_ohm=args.z_ref)
        # guard/singular bins keep their row (h = nan) with the reason in
        # the flags column
        rows = ([f] + list(h[:, j]) + [flags[j]]
                for j, f in enumerate(freqs))
        path = _write_csv(args.out, ["freq_hz"] + h_names + ["flags"],
                          rows, args.force)
        n_skip = sum(1 for fl in flags if fl)
        print(f"transmission sweep: {path} "
              f"({len(freqs)} rows, {n_skip} flagged resonance bins)")
    else:
        meas = signals.measure_transfer(sys_m, f_start, f_stop,
                                        rate_hz=args.rate,
                                        sweep_rate_hz_per_s=args.sweep_rate,
                                        g_m=args.g_m, window_s=args.window)
        rows = ([f] + list(meas.h[:, j])
                for j, f in enumerate(meas.freqs_hz))
        path = _write_csv(args.out, ["freq_hz"] + h_names, rows, args.force)
        print(f"swept-sine measurement: {path} ({len(meas.freqs_hz)} rows)")
    return 0


# --- landscape ---------------------------------------------------------------------

def cmd_landscape(args) -> int:
    out = Path(args.out)
    cells_path, edges_path = out / "cells.csv", out / "edges.csv"
    refuse_overwrite([cells_path, edges_path], args.force)
    spec, circ, scaling, sys_m = _load_system(args.system)
    omega = 2.0 * math.pi * args.freq
    values, flags = acsolver.impedance_map(circ, omega)
    sol = acsolver.ac_solve(sys_m, omega, i_in=args.i_in)
    bc = acsolver.branch_currents(sys_m, circ, sol)

    cell_rows = []
    for c in spec.active_cells:
        r, col = spec.rowcol(c)
        cell_rows.append((c, r, col, values[c], flags[c]))
    _write_csv(cells_path, ["cell", "row", "col", "z_eff", "flag"], cell_rows,
               args.force)

    edge_rows = []
    for k, (a, b) in enumerate(spec.edges):
        cur = float(bc.edge_current[k])
        edge_rows.append((a, b, abs(cur), 1 if cur >= 0.0 else -1))
    _write_csv(edges_path, ["a", "b", "current", "sign"], edge_rows, args.force)

    print(f"cells: {cells_path} ({len(cell_rows)} rows)")
    print(f"edges: {edges_path} ({len(edge_rows)} rows)")
    if args.verbose:
        hot = max(range(len(spec.edges)), key=lambda k: abs(bc.edge_current[k]))
        a, b = spec.edges[hot]
        print(f"strongest edge current: {a}-{b} "
              f"({abs(bc.edge_current[hot]):.3e} A at {args.freq} Hz)")
    return 0


# --- export-netlist ----------------------------------------------------------------

def cmd_export_netlist(args) -> int:
    if (args.model is None) == (args.system is None):
        raise ConfigError("give exactly one of --model or --system")
    out = Path(args.out)
    netlist_path = out / "netlist.csv"
    quantize = args.series.lower() != "none"
    refuse_overwrite(lattice.system_files(out, quantize) + [netlist_path], args.force)
    if args.model is not None:
        spec, mech = lattice.mech_from_json_dict(read_json(args.model), args.model)
        exp = trainer.export_trained(spec, mech, args.r_target, args.series)
        scaling, circ = exp.scaling, exp.circuit
        quantized, report = exp.quantized, exp.report
    else:
        spec, circ, scaling = lattice.load_system(args.system)
        quantized = report = None
        if quantize:
            quantized, report = lattice.quantize_eseries(circ, args.series.upper())

    lines = lattice.save_system_files(out, spec, circ, scaling, quantized,
                                      report, args.force)
    final = circ if quantized is None else quantized
    rows = lattice.netlist_rows(spec, final)
    _write_csv(netlist_path, ["ref", "kind", "value", "unit", "node_a", "node_b"],
               rows, args.force)
    lines.append(f"netlist: {netlist_path} ({len(rows)} components)")
    for line in lines:
        print(line)
    return 0


# --- parser ------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="resonet",
                     description="Resonant lattice networks: simulate, train, "
                                 "analyze, and export as circuits.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser,
                                metavar="COMMAND")

    common = _Parser(add_help=False)
    common.add_argument("--force", action="store_true",
                        help="overwrite existing output files")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="chatty progress output")

    p = sub.add_parser("gen-dataset", parents=[common],
                       help="synthesize a labeled pulse dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, required=True,
                   help="dataset RNG seed (required: generation is stochastic)")
    p.add_argument("--centers", type=_float_list, default=(30.0, 50.0, 70.0),
                   help="comma-separated class center frequencies in Hz")
    p.add_argument("--rate", type=float, default=2000.0, help="sample rate (Hz)")
    p.add_argument("--duration", type=float, default=1.0, help="signal length (s)")
    p.add_argument("--sigma", type=float, default=0.1,
                   help="Gaussian envelope width (s)")
    p.add_argument("--amplitude", type=float, default=1.0, help="pulse amplitude")
    p.add_argument("--jitter", type=float, default=0.1,
                   help="uniform center-time jitter half-width (s)")
    p.add_argument("--snr", type=float, default=20.0,
                   help="additive white noise SNR in dB (inf disables noise)")
    p.add_argument("--train-per-class", type=int, default=100)
    p.add_argument("--test-per-class", type=int, default=20)
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("train", parents=[common],
                       help="train a lattice from a JSON config")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's training seed")
    p.add_argument("--resume", default=None,
                   help="checkpoint JSON to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", parents=[common],
                       help="classify signals with a saved system")
    p.add_argument("--system", required=True, help="system JSON path")
    p.add_argument("--input", nargs="+", default=None,
                   help="signal CSV file(s) to classify")
    p.add_argument("--manifest", default=None,
                   help="dataset manifest to classify instead of files")
    p.add_argument("--rate", type=float, default=None,
                   help="sample rate of single-column --input CSVs, or the manifest's (Hz)")
    p.add_argument("--out", default=None,
                   help="verdicts JSON path (default: print to stdout)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate one signal and record the trajectory")
    p.add_argument("--system", required=True, help="system JSON path")
    p.add_argument("--input", required=True, help="signal CSV path")
    p.add_argument("--rate", type=float, default=None,
                   help="sample rate for single-column input CSVs (Hz)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--record", choices=["outputs", "all"], default="outputs",
                   help="record output inner nodes only, or every node")
    p.add_argument("--logic", action="store_true",
                   help="also write a winner-take-all logic trace CSV")
    p.add_argument("--tau", type=float, default=0.05,
                   help="logic comparator smoothing time constant (s)")
    p.add_argument("--hysteresis", type=float, default=0.1,
                   help="logic comparator hysteresis fraction")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ac-sweep", parents=[common],
                       help="frequency response of a cell or a system")
    p.add_argument("--system", default=None, help="system JSON path")
    p.add_argument("--cell", action="store_true",
                   help="sweep a single isolated cell instead of a system")
    p.add_argument("--d-outer", type=float, default=1.307e-11,
                   help="cell mode: outer FDNR value (s^2/ohm)")
    p.add_argument("--d-inner", type=float, default=3.530e-11,
                   help="cell mode: inner FDNR value (s^2/ohm)")
    p.add_argument("--r-internal", type=float, default=1e6,
                   help="cell mode: internal resistance (ohm)")
    p.add_argument("--preset", choices=sorted(signals.SWEEP_PRESETS),
                   default=None, help="named frequency band")
    p.add_argument("--f-start", type=float, default=None, help="band start (Hz)")
    p.add_argument("--f-stop", type=float, default=None, help="band end (Hz)")
    p.add_argument("--points", type=int, default=500,
                   help=f"grid size for --cell / --method ac (1 to {MAX_POINTS})")
    p.add_argument("--method", choices=["ac", "swept-sine"], default="ac",
                   help="system mode: nodal solve per bin, or virtual "
                        "swept-sine measurement")
    p.add_argument("--guard-hz", type=float, default=acsolver.GUARD_BAND_HZ,
                   help="method ac: skip bins this close to an eigenfrequency")
    p.add_argument("--z-ref", type=float, default=1.0,
                   help="method ac: reference impedance dividing |v/i|")
    p.add_argument("--rate", type=float, default=4000.0,
                   help="swept-sine: sample rate (Hz)")
    p.add_argument("--sweep-rate", type=float, default=0.25,
                   help="swept-sine: chirp rate (Hz/s)")
    p.add_argument("--window", type=float, default=4.0,
                   help="swept-sine: analysis window length (s)")
    p.add_argument("--g-m", type=float, default=signals.DEFAULT_G_M,
                   help="swept-sine: injection transconductance (S)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_ac_sweep)

    p = sub.add_parser("landscape", parents=[common],
                       help="impedance map and branch currents at one frequency")
    p.add_argument("--system", required=True, help="system JSON path")
    p.add_argument("--freq", type=float, required=True, help="frequency (Hz)")
    p.add_argument("--i-in", type=float, default=1.0, help="drive current (A)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("export-netlist", parents=[common],
                       help="system JSON, quantization report and component list")
    p.add_argument("--model", default=None,
                   help="trained model JSON (mechanical domain)")
    p.add_argument("--system", default=None,
                   help="existing system JSON (circuit domain)")
    p.add_argument("--r-target", type=float, default=1e6,
                   help="model mode: geometric-mean resistance target (ohm)")
    p.add_argument("--series", default="E96",
                   help="resistor series: E24, E96 or none")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_export_netlist)

    return parser


def exit_code(func, args, prog: str = "resonet") -> int:
    """func(args), or the exit code of the resonet error or OSError it raised."""
    try:
        return func(args)
    except (ResonetError, OSError) as exc:
        if isinstance(exc, _NUMERIC_ERRORS):
            print(f"{prog}: numeric failure: {exc}", file=sys.stderr)
            return NUMERIC_EXIT
        print(f"{prog}: error: {exc}", file=sys.stderr)   # config or data
        return CONFIG_EXIT


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    return exit_code(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
