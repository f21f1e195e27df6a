#!/usr/bin/env python3
"""Train the stock 5x5 pulse classifier end to end and export circuit values.

Generates the three-class Gaussian-pulse dataset (default 30/50/70 Hz pulse
centers), trains the lattice couplings with backprop-through-time + Adam,
scores the held-out split, converts the result to realizable circuit values,
and writes the artifacts to --out: metrics and the exact system, plus the
quantized system and its report unless --series is none.  The system files
go through the same writer as ``resonet train``.
Exit codes are those of ``resonet``: a usage error exits 1, and a resonet
error or a file that cannot be read is one line on stderr and exits 2 for
config/data, 3 for a numeric failure.
"""

from __future__ import annotations

import pathlib
import sys
import time

try:
    import resonet  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from resonet import cli, signals, trainer
from resonet.lattice import LatticeSpec, save_system_files


def main(argv=None) -> int:
    ap = cli._Parser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=pathlib.Path,
                    default=pathlib.Path("runs/pulse_classifier"))
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0, help="training seed")
    ap.add_argument("--data-seed", type=int, default=1, help="dataset seed")
    ap.add_argument("--centers", type=cli._float_list, default=(30.0, 50.0, 70.0),
                    help="comma-separated pulse center frequencies in Hz")
    ap.add_argument("--series", default="E96", choices=["E24", "E96", "none"],
                    help="resistor series for the quantized export "
                         "(none: exact values only)")
    return cli.exit_code(train_and_export, ap.parse_args(argv),
                         prog=pathlib.Path(__file__).name)


def train_and_export(args) -> int:
    ds = signals.gen_dataset(signals.DatasetSpec(centers_hz=args.centers,
                                                 seed=args.data_seed))
    train_split, heldout = ds.split("train"), ds.split("test")
    spec = LatticeSpec.default_grid()
    cfg = trainer.TrainConfig(epochs=args.epochs, seed=args.seed)
    print(f"dataset: {len(train_split)} train / {len(heldout)} held-out "
          f"pulses, classes at {'/'.join(f'{c:g}' for c in args.centers)} Hz")
    print(f"lattice: {spec.rows}x{spec.cols}, input cell {spec.input_cell}, "
          f"output cells {list(spec.outputs)}")

    def progress(ck):
        h = ck.history[-1]
        print(f"  epoch {h['epoch']:3d}   loss {h['loss']:.4f}   "
              f"train {h['train_acc']:6.1%}   held-out {h['val_acc']:6.1%}")

    t0 = time.perf_counter()
    result = trainer.train(spec, ds, cfg, on_epoch=progress)
    print(f"training stopped after {time.perf_counter() - t0:.0f}s "
          f"({result.stop_reason})")
    if result.aborted:
        print("run diverged; artifacts reflect the last stable epoch")

    exp = trainer.export_trained(spec, result.mech, series=args.series,
                                 heldout=heldout)
    accuracy = f"held-out accuracy: exact {exp.accuracy_exact:.1%}"
    if exp.report is not None:
        accuracy += f", {args.series} {exp.accuracy_quantized:.1%}"
    print(accuracy)
    if exp.report is not None:
        print(f"quantization: {len(exp.report.changed)}/{len(exp.report.entries)} "
              f"values changed, max rel error {exp.report.max_rel_error:.2%}")

    out = args.out
    cli._write_csv(out / "metrics.csv", ["epoch", "loss", "train_acc", "val_acc"],
                   [(h["epoch"], h["loss"], h["train_acc"], h["val_acc"])
                    for h in result.history], force=True)
    save_system_files(out, spec, exp.circuit, exp.scaling, exp.quantized,
                      exp.report, force=True)
    print(f"artifacts written to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
