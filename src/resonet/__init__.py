"""Resonant lattice networks.

A lattice of two-node resonator cells — realizable as coupled FDNR circuits
or, equivalently, as a mass-spring network — acts as a fixed-in-time linear
recurrent network whose output-energy readout classifies signals by their
spectral content.  This package simulates such lattices in the time domain,
solves them in the frequency domain, trains their element values by
backpropagation-through-time, and exports trained networks as quantized,
buildable circuit descriptions.

Modules:
    lattice    topology, parameter sets, analogy scaling, E-series export
    unitcell   closed-form single-cell frequency-domain quantities
    simulator  leapfrog time stepping, RNN form, energies, classification
    acsolver   AC nodal analysis: transfer, branch currents, impedance maps
    signals    pulses, datasets, chirps, STFT, virtual measurement
    trainer    BPTT gradients, Adam, the training loop, trained-model export
    cli        command-line front end (`resonet ...`)
"""

from .errors import (ConfigError, DataFormatError, InvalidParameterError,
                     NearResonanceError, NumericError, PoleError, ResonetError,
                     TopologyError, UndecidableError)
from .lattice import (CircuitParams, LatticeSpec, MechanicalParams,
                      QuantizationReport, ScalingFactor, choose_scaling,
                      circuit_to_mech, load_system, mech_to_circuit,
                      nearest_standard_value, netlist_rows, quantize_eseries,
                      save_system)
from .signals import (Dataset, DatasetSpec, Signal, gen_dataset, gen_pulse,
                      gen_sweep, load_csv, load_dataset, measure_transfer,
                      save_dataset, stft)
from .simulator import (SystemMatrices, Trajectory, assemble, classify,
                        discrete_energy, eigenfrequencies_hz, integrate_energy,
                        max_stable_dt, natural_frequencies, run, run_rnn)
from .trainer import (TrainConfig, TrainResult, TrainableParams, evaluate,
                      evaluate_system, export_trained, train)
from .unitcell import UnitCellParams, beta, d_eff, resonance_freqs, transfer_h, z_eff

__version__ = "0.1.0"

__all__ = [
    "ResonetError", "InvalidParameterError", "TopologyError", "DataFormatError",
    "ConfigError", "PoleError", "NearResonanceError", "NumericError",
    "UndecidableError",
    "LatticeSpec", "MechanicalParams", "CircuitParams", "ScalingFactor",
    "QuantizationReport", "mech_to_circuit", "circuit_to_mech", "choose_scaling",
    "nearest_standard_value", "quantize_eseries", "netlist_rows",
    "save_system", "load_system",
    "UnitCellParams", "resonance_freqs", "d_eff", "z_eff", "beta", "transfer_h",
    "SystemMatrices", "Trajectory", "assemble", "run", "run_rnn",
    "natural_frequencies", "eigenfrequencies_hz", "max_stable_dt",
    "discrete_energy", "integrate_energy", "classify",
    "Signal", "DatasetSpec", "Dataset", "gen_pulse", "gen_dataset",
    "save_dataset", "load_dataset", "load_csv", "gen_sweep", "stft",
    "measure_transfer",
    "TrainConfig", "TrainableParams", "TrainResult", "train", "evaluate",
    "evaluate_system", "export_trained",
    "__version__",
]
