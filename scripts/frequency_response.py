#!/usr/bin/env python3
"""Frequency-domain characterization: AC sweep vs. virtual swept-sine.

Builds a uniform reference lattice (or loads --system system.json), computes
the AC transmission over a frequency band, re-measures it with a swept-sine
virtual experiment, and reports per-channel peaks plus the worst-case
disagreement away from the resonances.  Writes ac_sweep.csv and
swept_sine.csv to --out.
Exit codes are those of ``resonet``: a usage error exits 1, and a resonet
error or a file that cannot be read is one line on stderr and exits 2 for
config/data, 3 for a numeric failure.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

try:
    import resonet  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from resonet import acsolver, cli, signals, simulator
from resonet.lattice import LatticeSpec, MechanicalParams, load_system

REF_MASS_OUTER = 1.307e-3
REF_MASS_INNER = 3.530e-3
REF_K_INTERNAL = 100.0  # puts every cell's zero crossing at 26.788 Hz
REF_K_COUPLING = 600.0


def build_system(path):
    if path is not None:
        spec, circ, _ = load_system(path)
        return spec, simulator.assemble(spec, circ)
    spec = LatticeSpec.default_grid()
    mech = MechanicalParams.uniform(spec, REF_MASS_OUTER, REF_MASS_INNER,
                                    REF_K_INTERNAL, REF_K_COUPLING)
    return spec, simulator.assemble(spec, mech)


def main(argv=None) -> int:
    ap = cli._Parser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--system", type=pathlib.Path, default=None,
                    help="system.json to characterize (default: uniform plant)")
    ap.add_argument("--f-start", type=float, default=1.0)
    ap.add_argument("--f-end", type=float, default=100.0)
    ap.add_argument("--points", type=int, default=1000,
                    help="AC sweep grid size")
    ap.add_argument("--sweep-rate", type=float, default=0.25,
                    help="swept-sine rate in Hz per second")
    ap.add_argument("--out", type=pathlib.Path,
                    default=pathlib.Path("runs/frequency_response"))
    return cli.exit_code(characterize, ap.parse_args(argv),
                         prog=pathlib.Path(__file__).name)


def characterize(args) -> int:
    spec, sys_m = build_system(args.system)
    n_out = len(spec.outputs)
    eigs = simulator.eigenfrequencies_hz(sys_m)
    in_band = eigs[(eigs >= args.f_start) & (eigs <= args.f_end)]
    print(f"{spec.rows}x{spec.cols} lattice, {n_out} output channels, "
          f"{in_band.size} eigenfrequencies in "
          f"{args.f_start:g}-{args.f_end:g} Hz")

    freqs = np.linspace(args.f_start, args.f_end, args.points)
    h_ac, flags = acsolver.transmission(sys_m, 2.0 * np.pi * freqs)
    for j in range(n_out):
        pk = int(np.nanargmax(h_ac[j]))
        print(f"  channel {j + 1} (cell {spec.outputs[j]}): AC peak "
              f"{h_ac[j][pk]:.3e} V/A at {freqs[pk]:.2f} Hz")

    print(f"swept-sine measurement {args.f_start:g} -> {args.f_end:g} Hz "
          f"at {args.sweep_rate:g} Hz/s ...")
    meas = signals.measure_transfer(sys_m, args.f_start, args.f_end,
                                    sweep_rate_hz_per_s=args.sweep_rate)

    far = np.all(np.abs(meas.freqs_hz[:, None] - eigs[None, :]) >= 2.0,
                 axis=1)
    h_ref, ref_flags = acsolver.transmission(sys_m,
                                             2.0 * np.pi * meas.freqs_hz[far])
    ok = np.array([f == "" for f in ref_flags], dtype=bool)
    if ok.any():
        rel = (np.abs(meas.h[:, far][:, ok] - h_ref[:, ok])
               / np.abs(h_ref[:, ok]))
        print(f"worst swept-sine vs AC disagreement >= 2 Hz from resonance: "
              f"{float(np.max(rel)):.2%} over {int(ok.sum())} bins")
    else:
        print("no unflagged swept-sine bin lies >= 2 Hz from a resonance")

    out = args.out
    names = [f"h{j + 1}" for j in range(n_out)]
    cli._write_csv(out / "ac_sweep.csv", ["freq_hz"] + names + ["flags"],
                   [(f, *h_ac[:, i], flags[i]) for i, f in enumerate(freqs)],
                   force=True)
    cli._write_csv(out / "swept_sine.csv", ["freq_hz"] + names,
                   [(f, *meas.h[:, i]) for i, f in enumerate(meas.freqs_hz)],
                   force=True)
    print(f"wrote {out}/ac_sweep.csv and {out}/swept_sine.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
