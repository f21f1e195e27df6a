"""Time-domain simulation of the coupled resonator lattice.

Dynamics: with D the diagonal inertia matrix (FDNR values or masses), Y the
symmetric coupling matrix (conductances or spring constants) and e_in the
injection vector,

    D u'' + Y u = e_in * i(t)

is integrated by the explicit central-difference scheme

    u[t+1] = 2 u[t] - u[t-1] - dt^2 D^-1 Y u[t] + dt^2 D^-1 e_in i[t]

which is stable for dt <= 2 / w_max with w_max the largest natural frequency.
Stacking h[t] = (u[t+1], u[t]) turns one step into a linear recurrence

    h[t] = W_h h[t-1] + W_i i[t],   W_h = [[2I - dt^2 D^-1 Y, -I], [I, 0]]

i.e. the lattice is a recurrent network whose weights are circuit element
values; ``run`` and ``run_rnn`` implement both forms and agree to rounding.

``leapfrog`` is the one stepper and the reference for everything else.  It
steps in place through a ring of CHUNK + 2 state rows and checks the blow-up
bound max|u| <= limit once per CHUNK steps; only when a chunk fails the check
is it rescanned row by row, so the error names the first step (and batch
sample) past the limit exactly as a per-step check would.

The recurrence is linear and time-invariant, so ``run`` evaluates a long
drive (at least MIN_BLOCKS * BLOCK steps, with dt within the stability
limit) block by block from operators that ``leapfrog`` itself generates over
one BLOCK-step block: the impulse response, the free response to each unit
initial state, and the block transition.  Inside a block the trajectory is
the free response plus an FFT convolution of the drive with the impulse
response; a scan over blocks carries the state.  The result agrees with
stepping to rounding.  A per-block bound on |u| keeps the blow-up check:
when it cannot rule out |u| > limit, ``run`` steps with ``leapfrog`` instead,
which raises at the exact step or returns its own result.

The natural frequencies behind the stability limit come from one eigensolve
per system, cached on ``SystemMatrices``.

Degrees of freedom are the outer and inner node of every non-grounded cell,
in cell order (outer before inner).  Input current is injected at the input
cell's outer node; readout is the inner-node voltage of each output cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (InvalidParameterError, NumericError, TopologyError,
                     UndecidableError)
from .lattice import CircuitParams, LatticeSpec, MechanicalParams
from .unitcell import UnitCellParams, resonance_freqs

if TYPE_CHECKING:  # pragma: no cover
    from .signals import Signal

BLOWUP_LIMIT = 1e12  # |u| beyond this aborts the run as numerically unstable
CHUNK = 64           # leapfrog steps between two checks of the blow-up limit
BLOCK = 1024         # steps per block of run's blocked evaluation
MIN_BLOCKS = 16      # drives shorter than this many blocks step through leapfrog
_CHUNK_BLOCKS = 16   # blocks evaluated together, bounding the temporaries


@dataclass(frozen=True)
class SystemMatrices:
    """Assembled second-order system plus the DOF bookkeeping."""

    spec: LatticeSpec
    inertia: np.ndarray          # (n,) diagonal of D, > 0
    stiffness: np.ndarray        # (n, n) symmetric PSD coupling matrix Y
    outer_dof: np.ndarray        # (n_cells,) DOF index of each outer node, -1 if grounded
    inner_dof: np.ndarray        # (n_cells,) likewise for inner nodes
    input_dof: int
    output_dofs: tuple[int, ...]
    damping: float = 0.0         # uniform velocity damping rate (1/s), 0 = lossless

    @property
    def n_dof(self) -> int:
        return len(self.inertia)

    @cached_property
    def branches(self) -> np.ndarray:
        """(n_cells + n_edges, 2) DOF ends of every element; n_dof is ground.

        One row per cell (internal element, outer -> inner) and then one per
        edge (coupling element, a -> b), in concat(g_internal, g_coupling)
        order.  A grounded cell's nodes are clamped, so its ends read n_dof.
        """
        return _branch_ends(self.spec, self.outer_dof, self.inner_dof, self.n_dof)

    @cached_property
    def natural_frequencies(self) -> np.ndarray:
        """Sorted natural angular frequencies (rad/s) of the undamped system.

        One eigensolve of D^-1/2 Y D^-1/2 per system; every stability limit
        and eigenfrequency reads this array.
        """
        scale = 1.0 / np.sqrt(self.inertia)
        sym = self.stiffness * scale[:, None] * scale[None, :]
        w = np.sqrt(np.clip(np.linalg.eigvalsh(sym), 0.0, None))
        w.setflags(write=False)
        return w


def _branch_ends(spec: LatticeSpec, outer: np.ndarray, inner: np.ndarray,
                 n: int) -> np.ndarray:
    edges = np.asarray(spec.edges, dtype=int).reshape(-1, 2)
    ends = np.concatenate([np.stack([outer, inner], axis=1), outer[edges]])
    ends[ends < 0] = n
    ends.setflags(write=False)
    return ends


def _cell_quantities(params) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(inertia_outer, inertia_inner, g_internal, g_coupling) in either domain."""
    if isinstance(params, MechanicalParams):
        return params.mass_outer, params.mass_inner, params.k_internal, params.k_coupling
    if isinstance(params, CircuitParams):
        return (params.d_outer, params.d_inner,
                1.0 / params.r_internal, 1.0 / params.r_coupling)
    raise InvalidParameterError(f"unsupported parameter type {type(params).__name__}")


def assemble(spec: LatticeSpec, params, damping: float = 0.0) -> SystemMatrices:
    """Build D and Y for the active cells of the lattice.

    Works for either parameter domain (the two produce identical dynamics up
    to the analogy scale).  Grounded cells contribute only the grounding
    conductance of their coupling edges.  Raises TopologyError if any output
    is unreachable from the input through non-grounded cells.
    """
    io, ii, gi, gc = _cell_quantities(params)
    if len(io) != spec.n_cells:
        raise InvalidParameterError(f"per-cell arrays have length {len(io)}, spec has {spec.n_cells} cells")
    if len(gc) != spec.n_edges:
        raise InvalidParameterError(f"per-edge array has length {len(gc)}, spec has {spec.n_edges} edges")
    if damping < 0.0 or not np.isfinite(damping):
        raise InvalidParameterError("damping must be finite and >= 0")

    active = spec.active_cells
    outer = np.full(spec.n_cells, -1, dtype=int)
    inner = np.full(spec.n_cells, -1, dtype=int)
    for k, c in enumerate(active):
        outer[c] = 2 * k
        inner[c] = 2 * k + 1
    n = 2 * len(active)

    inertia = np.empty(n)
    inertia[0::2] = io[list(active)]
    inertia[1::2] = ii[list(active)]

    # Each element adds g at (p,p) and (q,q) and -g at (p,q) and (q,p); the
    # ground row and column of the padded matrix absorb the clamped ends.
    p, q = _branch_ends(spec, outer, inner, n).T
    g = np.concatenate([gi, gc])
    padded = np.zeros((n + 1, n + 1))
    np.add.at(padded, (np.stack([p, q, p, q], axis=1).ravel(),
                       np.stack([p, q, q, p], axis=1).ravel()),
              np.stack([g, g, -g, -g], axis=1).ravel())
    y = padded[:n, :n].copy()

    # reachability: every output must see the input through live cells
    adj = {c: [] for c in active}
    for a, b in spec.edges:
        if a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
    seen = {spec.input_cell}
    frontier = [spec.input_cell]
    while frontier:
        nxt = []
        for c in frontier:
            for d in adj[c]:
                if d not in seen:
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    missing = [c for c in spec.outputs if c not in seen]
    if missing:
        raise TopologyError(f"outputs {missing} unreachable from input cell {spec.input_cell}")

    y.setflags(write=False)
    inertia.setflags(write=False)
    outer.setflags(write=False)
    inner.setflags(write=False)
    return SystemMatrices(
        spec=spec, inertia=inertia, stiffness=y,
        outer_dof=outer, inner_dof=inner,
        input_dof=int(outer[spec.input_cell]),
        output_dofs=tuple(int(inner[c]) for c in spec.outputs),
        damping=float(damping),
    )


def natural_frequencies(sys: SystemMatrices) -> np.ndarray:
    """Sorted natural angular frequencies (rad/s) of the undamped system."""
    return sys.natural_frequencies


def eigenfrequencies_hz(sys: SystemMatrices) -> np.ndarray:
    return sys.natural_frequencies / (2.0 * np.pi)


def max_stable_dt(sys: SystemMatrices) -> float:
    """Largest stable step of the central-difference scheme: 2 / w_max."""
    w_max = float(sys.natural_frequencies[-1])
    if w_max == 0.0:
        return np.inf
    return 2.0 / w_max


def default_dt(sys: SystemMatrices, params) -> float:
    """1 / (20 * max cell zero-crossing frequency), capped at half the stability limit.

    Resolves the fastest single-cell dynamics while keeping a 2x stability margin.
    """
    io, ii, gi, _ = _cell_quantities(params)
    f1_max = 0.0
    for c in sys.spec.active_cells:
        cell = UnitCellParams(d_outer=io[c], d_inner=ii[c], r_internal=1.0 / gi[c])
        f1_max = max(f1_max, resonance_freqs(cell)[1] / (2.0 * np.pi))
    return min(1.0 / (20.0 * f1_max), 0.5 * max_stable_dt(sys))


# --- stepping ---------------------------------------------------------------

@dataclass
class SimState:
    """Rolling pair of displacement vectors; u_curr is u[t], u_prev is u[t-1]."""

    u_prev: np.ndarray
    u_curr: np.ndarray
    step_index: int = 0


def initial_state(sys: SystemMatrices, u_prev=None, u_curr=None) -> SimState:
    n = sys.n_dof
    up = np.zeros(n) if u_prev is None else np.array(u_prev, dtype=float)
    uc = np.zeros(n) if u_curr is None else np.array(u_curr, dtype=float)
    if up.shape != (n,) or uc.shape != (n,):
        raise InvalidParameterError(f"state vectors must have shape ({n},)")
    return SimState(u_prev=up, u_curr=uc)


def _step_coeffs(sys: SystemMatrices, dt: float):
    if not np.isfinite(dt) or dt <= 0.0:
        raise InvalidParameterError(f"dt must be finite and > 0, got {dt}")
    a = dt * dt * (sys.stiffness / sys.inertia[:, None])
    b = np.zeros(sys.n_dof)
    b[sys.input_dof] = dt * dt / sys.inertia[sys.input_dof]
    c_plus = 1.0 + 0.5 * sys.damping * dt
    c_minus = 1.0 - 0.5 * sys.damping * dt
    return a, b, c_plus, c_minus


def leapfrog(sys: SystemMatrices, dt: float, drive: np.ndarray,
             u_prev: np.ndarray | None = None, u_curr: np.ndarray | None = None,
             dofs: np.ndarray | None = None,
             limit: float = BLOWUP_LIMIT) -> np.ndarray:
    """The central-difference stepper: one step per row of `drive`.

    A (T,) drive steps state vectors of shape (n,); a (T, B) drive steps B
    independent signals in lockstep with states of shape (n, B).  The state
    starts at rest unless u_prev/u_curr are given.  Row t of the result holds
    u[t+1] at the DOF indices `dofs`, or every DOF when dofs is None.  Raises
    NumericError citing the step (and batch column) once any |u| exceeds
    `limit`.

    Each step runs in preallocated buffers with the same floating-point
    operations, in the same order, as ``2 u[t] - c_minus u[t-1] - A u[t]``
    (the c_minus product is skipped when it is exactly 1).  max|u| is checked
    once per CHUNK steps with overflow warnings silenced inside the chunk; a
    chunk past the limit (or holding NaN) is rescanned for its first bad row,
    so the error and its step equal those of a check after every step.
    """
    a, b, c_plus, c_minus = _step_coeffs(sys, dt)
    in_dof = sys.input_dof
    b_in = b[in_dof]
    shape = (sys.n_dof,) + drive.shape[1:]
    width = sys.n_dof if dofs is None else len(dofs)
    out = np.empty((len(drive), width) + drive.shape[1:])
    # Steps write into the result itself when it records every DOF, else into
    # a ring of CHUNK rows whose selected DOFs are copied out after each chunk.
    ring = None if dofs is None else np.empty((min(CHUNK, len(drive)),) + shape)
    head = np.empty((2,) + shape)
    head[0] = 0.0 if u_prev is None else u_prev
    head[1] = 0.0 if u_curr is None else u_curr
    last_two = list(head)   # u[t-1], u[t] entering the chunk
    au = np.empty(shape)
    cu = None if c_minus == 1.0 else np.empty(shape)
    for t0 in range(0, len(drive), CHUNK):
        k = min(CHUNK, len(drive) - t0)
        block = out[t0:t0 + k] if ring is None else ring[:k]
        # step j writes rows[j + 2] from rows[j + 1] and rows[j]; in the ring
        # it overwrites last_two only after the first two steps have read them
        rows = last_two + list(block)
        kick = b_in * drive[t0:t0 + k]
        # Past the limit the values may overflow before the check below sees
        # them; the chunk is then rescanned and the run raises.
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(k):
                u_prev, u_curr, u_next = rows[j], rows[j + 1], rows[j + 2]
                np.matmul(a, u_curr, out=au)
                np.multiply(u_curr, 2.0, out=u_next)
                if cu is None:
                    u_next -= u_prev
                else:
                    np.multiply(u_prev, c_minus, out=cu)
                    u_next -= cu
                u_next -= au
                u_next[in_dof] += kick[j]
                if c_plus != 1.0:
                    u_next /= c_plus
        # max and min, not max|u|: no chunk-sized temporary; NaN fails both
        if not (block.max() <= limit and -block.min() <= limit):
            _raise_blowup(block, t0, limit)
        if ring is not None:
            out[t0:t0 + k] = block[:, dofs]
        last_two = rows[k:k + 2]
    return out


def _raise_blowup(block: np.ndarray, t0: int, limit: float) -> None:
    """Raise NumericError for the first row of `block` (step t0 onward) past limit."""
    for j, u in enumerate(block):
        peak = np.max(np.abs(u))
        if not peak <= limit:
            t, sample, where = t0 + j, None, ""
            if u.ndim == 2:
                sample = int(np.argmax(np.max(np.abs(u), axis=0)))
                where = f" in batch sample {sample}"
            raise NumericError(
                f"|u| reached {peak:.3e} (> {limit:.1e}) at step {t}{where}: "
                "unstable or diverging", step=t, sample=sample)


def step(sys: SystemMatrices, state: SimState, drive: float, dt: float) -> SimState:
    """Advance one central-difference step under injected current/force `drive`."""
    u_next = leapfrog(sys, dt, np.array([drive], dtype=float),
                      state.u_prev, state.u_curr)[0]
    return SimState(u_prev=state.u_curr, u_curr=u_next,
                    step_index=state.step_index + 1)


@dataclass(frozen=True)
class SimConfig:
    """Run controls.  dt=None derives the step from the drive signal's rate."""

    dt: float | None = None
    duration: float | None = None     # used only when no drive signal is given
    record: str | tuple[int, ...] = "outputs"   # "outputs", "all", or DOF indices
    blowup_limit: float = BLOWUP_LIMIT
    enforce_stability: bool = True


@dataclass(frozen=True)
class Trajectory:
    """Recorded displacement history; row t holds u[(t+1) * dt] at `dofs`."""

    dt: float
    dofs: tuple[int, ...]
    values: np.ndarray   # (n_steps, len(dofs))

    @property
    def times(self) -> np.ndarray:
        return (np.arange(len(self.values)) + 1) * self.dt

    def column(self, dof: int) -> np.ndarray:
        try:
            return self.values[:, self.dofs.index(dof)]
        except ValueError:
            raise InvalidParameterError(f"DOF {dof} was not recorded") from None


def _resolve_dt(sys: SystemMatrices, signal, cfg: SimConfig) -> tuple[float, int]:
    if signal is not None:
        sig_dt = 1.0 / signal.rate_hz
        if cfg.dt is not None and abs(cfg.dt - sig_dt) > 1e-9 * sig_dt:
            raise InvalidParameterError(
                f"configured dt={cfg.dt} does not match signal rate {signal.rate_hz} Hz; "
                "resample the signal instead")
        return sig_dt, len(signal.values)
    if cfg.dt is None or cfg.duration is None:
        raise InvalidParameterError("zero-input runs need both cfg.dt and cfg.duration")
    return cfg.dt, int(round(cfg.duration / cfg.dt))


def _recorded_dofs(sys: SystemMatrices, cfg: SimConfig) -> tuple[int, ...]:
    if cfg.record == "outputs":
        return sys.output_dofs
    if cfg.record == "all":
        return tuple(range(sys.n_dof))
    dofs = tuple(int(d) for d in cfg.record)
    for d in dofs:
        if not 0 <= d < sys.n_dof:
            raise InvalidParameterError(f"record DOF {d} outside 0..{sys.n_dof - 1}")
    return dofs


def run(sys: SystemMatrices, signal: "Signal | None" = None,
        cfg: SimConfig = SimConfig(), initial: SimState | None = None) -> Trajectory:
    """Integrate the lattice and record selected DOFs.

    Drive samples are consumed one per step; the trajectory has exactly one
    row per drive sample (or duration/dt rows for zero-input runs).  Raises
    NumericError citing the step index if any |u| exceeds the blow-up limit.

    Drives of at least MIN_BLOCKS * BLOCK steps with dt <= dt_max are
    evaluated block by block (see the module doc) and agree with ``leapfrog``
    to rounding; shorter drives, and dt beyond the stability limit under
    enforce_stability=False, step through ``leapfrog`` and equal it exactly.
    """
    dt, n_steps = _resolve_dt(sys, signal, cfg)
    dt_max = max_stable_dt(sys)
    if cfg.enforce_stability and dt > dt_max:
        raise InvalidParameterError(
            f"dt={dt} exceeds the stability limit {dt_max:.3e}; "
            "reduce dt or the stiffest element values")
    dofs = _recorded_dofs(sys, cfg)
    state = initial if initial is not None else initial_state(sys)
    drive = np.zeros(n_steps) if signal is None else np.asarray(signal.values, dtype=float)
    cols = np.asarray(dofs, dtype=int)
    values = None
    if n_steps >= MIN_BLOCKS * BLOCK and dt <= dt_max:
        values = _run_blocked(sys, dt, drive, state.u_prev, state.u_curr,
                              cols, cfg.blowup_limit)
    if values is None:
        values = leapfrog(sys, dt, drive, state.u_prev, state.u_curr, cols,
                          cfg.blowup_limit)
    return Trajectory(dt=dt, dofs=dofs, values=values)


def _block_operators(sys: SystemMatrices, dt: float, dofs: np.ndarray):
    """One block's operators, generated by leapfrog: (h, o_rec, o_max, trans).

    The state entering a block is (u_curr, u_curr - u_prev) as a 2n-vector:
    carrying the step difference rather than u_prev keeps a large rigid
    displacement (free lattice) from swamping the velocity in rounding.
    h (L, n) is the response to a unit drive at the block's first step from
    rest; o_rec (L, d, 2n) the response at `dofs` to each unit state; o_max
    (n, 2n) the largest |free response| over the block; trans (2n, 2n) maps
    the state entering a block to the state entering the next.
    """
    n, L = sys.n_dof, BLOCK
    impulse = np.zeros(L)
    impulse[0] = 1.0
    h = leapfrog(sys, dt, impulse, limit=np.inf)
    eye = np.eye(n)
    u_prev, u_curr = np.hstack([eye, -eye]), np.hstack([eye, np.zeros((n, n))])
    o_rec = np.empty((L, len(dofs), 2 * n))
    o_max = np.zeros((n, 2 * n))
    piece = 32    # keeps each (piece, n, 2n) free response under 1 MB
    for t0 in range(0, L, piece):
        o = leapfrog(sys, dt, np.zeros((piece, 2 * n)), u_prev, u_curr,
                     limit=np.inf)
        np.maximum(o_max, np.max(np.abs(o), axis=0), out=o_max)
        o_rec[t0:t0 + piece] = o[:, dofs]
        u_prev, u_curr = o[-2], o[-1]
    return h, o_rec, o_max, np.vstack([u_curr, u_curr - u_prev])


def _run_blocked(sys: SystemMatrices, dt: float, drive: np.ndarray,
                 u_prev: np.ndarray, u_curr: np.ndarray, dofs: np.ndarray,
                 limit: float) -> np.ndarray | None:
    """leapfrog's result, evaluated BLOCK steps at a time (see module doc).

    Returns None when the per-block bound on |u| exceeds `limit` or is not
    finite; the caller then steps with leapfrog.
    """
    n, L, d = sys.n_dof, BLOCK, len(dofs)
    h, o_rec, o_max, trans = _block_operators(sys, dt, dofs)
    n_full = len(drive) // L
    x = drive[:n_full * L].reshape(n_full, L)
    rest = len(drive) - n_full * L
    tail = np.zeros((1, L))
    tail[0, :rest] = drive[n_full * L:]

    # State entering each block: s[b+1] = trans @ s[b] + z[b], where z[b] is
    # the state block b reaches from rest, a sum of the reversed impulse
    # response (and of its step difference) weighted by the drive.
    ends = np.empty((L, 2 * n))
    ends[:, :n] = h[::-1]
    ends[:, n:] = h[::-1]
    ends[:-1, n:] -= h[-2::-1]
    s = np.empty((n_full + 1, 2 * n))
    s[0] = np.concatenate([u_curr, u_curr - u_prev])
    for b0 in range(0, n_full, _CHUNK_BLOCKS):
        # chunked: one drive-long GEMM would grow BLAS's buffers by MBs
        z = x[b0:b0 + _CHUNK_BLOCKS] @ ends
        for b, z_b in enumerate(z, start=b0):
            s[b + 1] = trans @ s[b] + z_b

    # |u| in block b is at most |s[b]| @ o_max.T + max|x_b| * sum_t |h[t]|.
    x_max = np.append(np.maximum(x.max(axis=1), -x.min(axis=1)),
                      np.max(np.abs(tail)))
    bound = np.abs(s) @ o_max.T + x_max[:, None] * np.sum(np.abs(h), axis=0)
    if not np.max(bound) <= limit:
        return None

    o_flat = o_rec.reshape(L * d, 2 * n).T
    h_f = np.fft.rfft(h[:, dofs].T, n=2 * L)

    def blocks(s_b, x_b, dest):   # dest: the (k, L, d) rows of these blocks
        np.matmul(s_b, o_flat, out=dest.reshape(len(s_b), L * d))
        forced = np.fft.irfft(np.fft.rfft(x_b, n=2 * L)[:, None, :] * h_f, n=2 * L)
        dest += forced[:, :, :L].transpose(0, 2, 1)

    out = np.empty((len(drive), d))
    full = out[:n_full * L].reshape(n_full, L, d)
    for b0 in range(0, n_full, _CHUNK_BLOCKS):
        b1 = min(b0 + _CHUNK_BLOCKS, n_full)
        blocks(s[b0:b1], x[b0:b1], full[b0:b1])
    if rest:
        last = np.empty((1, L, d))
        blocks(s[n_full:], tail, last)
        out[n_full * L:] = last[0, :rest]
    return out


# --- explicit recurrent-network form ---------------------------------------

def build_rnn_weights(sys: SystemMatrices, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """State-update and input matrices of the equivalent one-step recurrence."""
    a, b, c_plus, c_minus = _step_coeffs(sys, dt)
    n = sys.n_dof
    w_h = np.zeros((2 * n, 2 * n))
    w_h[:n, :n] = (2.0 * np.eye(n) - a) / c_plus
    w_h[:n, n:] = -(c_minus / c_plus) * np.eye(n)
    w_h[n:, :n] = np.eye(n)
    w_i = np.zeros(2 * n)
    w_i[:n] = b / c_plus
    return w_h, w_i


def run_rnn(sys: SystemMatrices, signal: "Signal", cfg: SimConfig = SimConfig()) -> Trajectory:
    """Same trajectory as run(), computed through the explicit W_h/W_i matrices."""
    dt, n_steps = _resolve_dt(sys, signal, cfg)
    w_h, w_i = build_rnn_weights(sys, dt)
    dofs = _recorded_dofs(sys, cfg)
    n = sys.n_dof
    h = np.zeros(2 * n)
    drive = np.asarray(signal.values, dtype=float)
    out = np.empty((n_steps, len(dofs)))
    col = np.asarray(dofs, dtype=int)
    for t in range(n_steps):
        h = w_h @ h + w_i * drive[t]
        out[t] = h[col]
    return Trajectory(dt=dt, dofs=dofs, values=out)


# --- energy and readout -----------------------------------------------------

def discrete_energy(sys: SystemMatrices, u_prev: np.ndarray, u_curr: np.ndarray,
                    dt: float) -> float:
    """Conserved quadratic invariant of the undamped central-difference scheme.

    Velocity is the central difference at the half step, the potential term the
    symmetric product across it:

        E = 1/2 v' D v + 1/2 u_prev' Y u_curr,   v = (u_curr - u_prev) / dt

    For damping=0 this is constant to rounding for every stable dt.
    """
    v = (u_curr - u_prev) / dt
    return float(0.5 * v @ (sys.inertia * v) + 0.5 * u_prev @ (sys.stiffness @ u_curr))


def integrate_energy(traj: Trajectory, dofs) -> np.ndarray:
    """Time-integrated squared displacement, sum(u^2) * dt, per requested DOF."""
    dofs = tuple(int(d) for d in dofs)
    cols = np.stack([traj.column(d) for d in dofs], axis=1)
    return np.sum(cols * cols, axis=0) * traj.dt


def classify(energies) -> tuple[int, np.ndarray]:
    """Energies -> (class, probabilities): L1-normalized shares, argmax wins.

    Ties break to the lowest index.  All-zero energies are undecidable.
    """
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or len(e) == 0:
        raise InvalidParameterError("energies must be a non-empty 1-D array")
    if np.any(e < 0.0) or not np.all(np.isfinite(e)):
        raise InvalidParameterError("energies must be finite and >= 0")
    total = float(e.sum())
    if total == 0.0:
        raise UndecidableError("all channel energies are zero")
    probs = e / total
    return int(np.argmax(probs)), probs


def comparator(values: np.ndarray, dt: float, tau_s: float = 0.05,
               hysteresis: float = 0.1) -> np.ndarray:
    """Behavioral winner-take-all readout; returns a boolean (T, C) logic trace.

    Each channel's |u| is smoothed by a single-pole low-pass with time constant
    tau_s; at each step the largest smoothed channel goes high iff it exceeds
    the runner-up by the hysteresis fraction, everything else (and everything
    in an undecided step) stays low.
    """
    x = np.abs(np.asarray(values, dtype=float))
    if x.ndim != 2 or x.shape[1] < 2:
        raise InvalidParameterError("comparator needs a (T, C>=2) array")
    if tau_s <= 0.0 or hysteresis < 0.0:
        raise InvalidParameterError("tau_s must be > 0 and hysteresis >= 0")
    alpha = dt / tau_s
    if alpha > 1.0:
        raise InvalidParameterError("dt must not exceed tau_s")
    t_len, n_ch = x.shape
    logic = np.zeros((t_len, n_ch), dtype=bool)
    y = np.zeros(n_ch)
    for t in range(t_len):
        y += alpha * (x[t] - y)
        order = np.argsort(y)
        top, runner = order[-1], order[-2]
        if y[top] > (1.0 + hysteresis) * y[runner]:
            logic[t, top] = True
    return logic
