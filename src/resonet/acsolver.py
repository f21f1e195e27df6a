"""Frequency-domain nodal analysis of the assembled lattice.

At angular frequency w the lossless network reduces to the real symmetric
(indefinite) system

    (Y - w^2 D) v = e_in * i_in

solved densely per frequency.  Near a natural frequency the matrix becomes
singular; solves guard on the condition number, and swept transmission skips
grid bins inside a guard band around the computed eigenfrequencies (the
response there is a true pole of the undamped model).  The matrix is
symmetric, so its singular values are the absolute values of its eigenvalues
and the condition number comes from one `eigvalsh`.  `transmission` stacks
the matrices of up to `_BINS` bins and takes their eigenvalues and solves in
one batched LAPACK call each; `ac_solve` runs the same helpers on one bin and
stays the single-frequency reference, bit for bit with every swept bin.

Also provided: per-edge branch currents and per-cell effective-impedance maps,
the data behind current-routing and impedance-landscape plots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NearResonanceError
from .lattice import CircuitParams, LatticeSpec
from .simulator import SystemMatrices, eigenfrequencies_hz
from .unitcell import UnitCellParams, resonance_freqs, z_eff

COND_LIMIT = 1e12          # condition number beyond which a solve is rejected
GUARD_BAND_HZ = 0.25       # default half-width skipped around eigenfrequencies
_BINS = 16                 # bins per batched solve in transmission


@dataclass(frozen=True)
class AcSolution:
    """Steady-state node voltages for a unit-phasor current injection."""

    omega: float
    i_in: float
    voltages: np.ndarray     # (n_dof,) real: lossless network, real drive
    residual: float          # ||(Y - w^2 D) v - b|| / ||b||
    cond: float


def _nodal(sys: SystemMatrices, omegas: np.ndarray) -> np.ndarray:
    """The nodal matrices Y - w^2 D of k frequencies, stacked (k, n, n)."""
    mats = np.repeat(sys.stiffness[None], len(omegas), axis=0)
    diag = np.arange(sys.n_dof)
    mats[:, diag, diag] -= (omegas * omegas)[:, None] * sys.inertia
    return mats


def _cond(mats: np.ndarray) -> np.ndarray:
    """2-norm condition number of each symmetric matrix in a (k, n, n) stack.

    The singular values of a symmetric matrix are its absolute eigenvalues;
    an exactly singular matrix reads inf.
    """
    lam = np.abs(np.linalg.eigvalsh(mats))
    big, small = lam.max(axis=-1), lam.min(axis=-1)
    return np.divide(big, small, out=np.full(len(mats), np.inf), where=small > 0.0)


def ac_solve(sys: SystemMatrices, omega: float, i_in: float = 1.0) -> AcSolution:
    """Solve the nodal system at one frequency.

    Raises NearResonanceError when the matrix condition number exceeds
    COND_LIMIT, i.e. the requested frequency sits numerically on a resonance,
    and InvalidParameterError for a bad omega or a non-finite i_in.
    """
    if not np.isfinite(omega) or omega <= 0.0:
        raise InvalidParameterError(f"omega must be finite and > 0, got {omega}")
    if not np.isfinite(i_in):
        raise InvalidParameterError(f"i_in must be finite, got {i_in}")
    if sys.damping != 0.0:
        raise InvalidParameterError("ac_solve covers the lossless model only (damping=0)")
    mats = _nodal(sys, np.array([omega], dtype=float))
    cond = float(_cond(mats)[0])
    if cond > COND_LIMIT:
        raise NearResonanceError(
            f"system is within rounding of a resonance at omega={omega} rad/s "
            f"({omega / (2 * np.pi):.6g} Hz): cond={cond:.3e}",
            omega=omega, cond=cond)
    b = np.zeros(sys.n_dof)
    b[sys.input_dof] = i_in
    v = np.linalg.solve(mats, b[None, :, None])[0, :, 0]
    err = float(np.linalg.norm(mats[0] @ v - b))
    b_norm = float(np.linalg.norm(b))
    residual = err / b_norm if b_norm > 0.0 else err
    return AcSolution(omega=float(omega), i_in=float(i_in), voltages=v,
                      residual=residual, cond=cond)


@dataclass(frozen=True)
class BranchCurrents:
    """Signed currents through every coupling edge plus per-node shunt currents."""

    omega: float
    edge_current: np.ndarray     # (n_edges,) current a -> b through R_c; 0 for inert edges
    node_shunt: np.ndarray       # (n_dof,) current into each node's FDNR (to ground)
    internal_current: np.ndarray  # (n_cells,) outer -> inner current through R_n (0 if grounded)


def branch_currents(sys: SystemMatrices, circ: CircuitParams, sol: AcSolution) -> BranchCurrents:
    """Currents implied by an AC solution.  KCL holds at every node to rounding."""
    spec = sys.spec
    if len(circ.r_coupling) != spec.n_edges:
        raise InvalidParameterError("circuit parameters do not match the lattice spec")
    v = np.append(sol.voltages, 0.0)   # index n_dof is ground
    p, q = sys.branches.T
    current = (v[p] - v[q]) / np.concatenate([circ.r_internal, circ.r_coupling])
    # FDNR admittance at w is -w^2 D
    shunt = -(sol.omega * sol.omega) * sys.inertia * sol.voltages
    return BranchCurrents(omega=sol.omega, edge_current=current[spec.n_cells:],
                          node_shunt=shunt, internal_current=current[:spec.n_cells])


# --- per-cell impedance landscape -------------------------------------------

def impedance_map(circ: CircuitParams, omega: float,
                  flag_rtol: float = 1e-9) -> tuple[np.ndarray, list[str]]:
    """Effective impedance of every cell at one frequency.

    Returns (values, flags); flags are "" for plain values, "zero" when the
    frequency sits on the cell's local resonance (value 0) and "pole" when it
    sits on the zero-crossing frequency (value NaN -- not representable).
    """
    if not np.isfinite(omega) or omega <= 0.0:
        raise InvalidParameterError(f"omega must be finite and > 0, got {omega}")
    n = len(circ.d_outer)
    values = np.empty(n)
    flags: list[str] = []
    for c in range(n):
        cell = UnitCellParams(d_outer=circ.d_outer[c], d_inner=circ.d_inner[c],
                              r_internal=circ.r_internal[c])
        w0, w1 = resonance_freqs(cell)
        if abs(omega - w1) <= flag_rtol * w1:
            values[c] = np.nan
            flags.append("pole")
        elif abs(omega - w0) <= flag_rtol * w0:
            values[c] = 0.0
            flags.append("zero")
        else:
            values[c] = z_eff(cell, omega)
            flags.append("")
    return values, flags


# --- transmission ------------------------------------------------------------

def transmission(sys: SystemMatrices, omegas, guard_hz: float = GUARD_BAND_HZ,
                 z_ref_ohm: float = 1.0) -> tuple[np.ndarray, list[str]]:
    """|v_out / i_in| per output channel over a frequency grid.

    Bins within guard_hz of a computed eigenfrequency are skipped (NaN) and
    flagged "guard"; bins whose nodal matrix has a condition number past
    COND_LIMIT are flagged "singular" (NaN).  z_ref_ohm divides the raw V/A
    magnitude (1.0 keeps raw values).  The guard band, the system and every
    omega are checked before any bin, so a damped system or a bad omega
    raises even where its bin is guarded.

    The other bins are worked through in chunks of `_BINS`: one batched
    `eigvalsh` gives each bin's condition number (the nodal matrix is
    symmetric) and one batched solve its voltages, so every bin's value and
    flag equal those of `ac_solve` at its omega, bit for bit.
    """
    om = np.asarray(omegas, dtype=float)
    if om.ndim != 1:
        raise InvalidParameterError("omegas must be a 1-D array")
    if z_ref_ohm <= 0.0 or not np.isfinite(z_ref_ohm):
        raise InvalidParameterError("z_ref_ohm must be finite and > 0")
    if not (np.isfinite(guard_hz) and guard_hz >= 0.0):
        raise InvalidParameterError(
            f"transmission: guard_hz must be finite and >= 0, got {guard_hz}")
    if sys.damping != 0.0:
        raise InvalidParameterError(
            "transmission covers the lossless model only (damping=0)")
    bad = ~(np.isfinite(om) & (om > 0.0))
    if bad.any():
        j = int(np.argmax(bad))
        raise InvalidParameterError(
            f"transmission: omega {j} is {om[j]}; every omega must be finite and > 0")
    eig_hz = eigenfrequencies_hz(sys)
    guard = np.any(np.abs(eig_hz[None, :] - (om / (2.0 * np.pi))[:, None]) < guard_hz,
                   axis=1)
    flags = ["guard" if g else "" for g in guard]
    h = np.full((len(sys.output_dofs), len(om)), np.nan)
    out = list(sys.output_dofs)
    live = np.flatnonzero(~guard)
    for start in range(0, len(live), _BINS):
        bins = live[start:start + _BINS]
        mats = _nodal(sys, om[bins])
        singular = _cond(mats) > COND_LIMIT
        for j in bins[singular]:
            flags[j] = "singular"
        solved = bins[~singular]
        if len(solved) == 0:
            continue
        # a (k, n, 1) right-hand side: numpy < 2 reads (n, 1) as a stack of vectors
        b = np.zeros((len(solved), sys.n_dof, 1))
        b[:, sys.input_dof] = 1.0
        v = np.linalg.solve(mats[~singular], b)[:, out, 0]
        h[:, solved] = np.abs(v.T) / z_ref_ohm
    return h, flags
