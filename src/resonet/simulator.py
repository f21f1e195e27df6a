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

The recurrence is linear and time-invariant, so the response from rest is
the drive convolved with the impulse response.  ``run`` steps at dt = 1 /
the drive's rate, refuses a dt past the stability limit, and uses that two
ways, both equal to stepping to rounding:

* A drive from rest (no initial state, or an all-zero one) shorter than
  MIN_BLOCKS * BLOCK steps is one FFT convolution (``_convolve``), as are
  ``trainer``'s scores; ``_kernel`` generates its impulse response with
  ``leapfrog`` and caches it on ``SystemMatrices`` (at most KERNELS).
* A longer drive is evaluated BLOCK steps at a time: each block is the free
  response to the state entering it plus its drive times the Toeplitz
  matrix of the BLOCK-step impulse response, one GEMM per chunk of
  _CHUNK_BLOCKS blocks, while a scan over blocks carries the state.

A short drive from a nonzero state steps with ``leapfrog`` and equals it
bit for bit, and so does a drive whose bound on |u| over all DOFs (max|x|
times the gain, plus the free response's bound for blocks, checked chunk by
chunk) cannot rule out |u| > BLOWUP_LIMIT: stepping then raises at the exact
step or returns its own result.

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

if TYPE_CHECKING:  # pragma: no cover
    from .signals import Signal

BLOWUP_LIMIT = 1e12  # |u| beyond this aborts the run as numerically unstable
CHUNK = 64           # leapfrog steps between two checks of the blow-up limit
BLOCK = 256          # steps per block of run's blocked evaluation
MIN_BLOCKS = 64      # drives shorter than this many blocks are not evaluated blockwise
_CHUNK_BLOCKS = 64   # blocks per GEMM of the blocked evaluation
KERNELS = 4          # impulse-response kernels cached per system


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

    @cached_property
    def _kernels(self) -> dict:
        """(dt, steps, recorded DOFs) -> (spectrum, gain); see _kernel."""
        return {}


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


# --- stepping ---------------------------------------------------------------

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


def _recorded_dofs(sys: SystemMatrices, record: str) -> tuple[int, ...]:
    if not isinstance(record, str) or record not in ("outputs", "all"):
        raise InvalidParameterError(f"record must be 'outputs' or 'all', got {record!r}")
    return sys.output_dofs if record == "outputs" else tuple(range(sys.n_dof))


def run(sys: SystemMatrices, signal: "Signal", record: str = "outputs",
        initial: tuple[np.ndarray, np.ndarray] | None = None) -> Trajectory:
    """Integrate the lattice at dt = 1 / signal.rate_hz and record the output
    DOFs (record="outputs") or every DOF (record="all").

    Drive samples are consumed one per step; the trajectory has exactly one
    row per drive sample.  The state starts at rest unless `initial` gives
    the pair (u_prev, u_curr) = (u[-1], u[0]) of (n,) vectors.  A dt past
    max_stable_dt is refused with InvalidParameterError; NumericError cites
    the step index if any |u| exceeds BLOWUP_LIMIT.

    A drive of at least MIN_BLOCKS * BLOCK steps is evaluated block by
    block, and a shorter one from rest (no initial state, or an all-zero
    one) is one FFT convolution with a cached impulse response (see the
    module doc); both agree with ``leapfrog`` to rounding (the tests hold
    the convolution to 1e-9 of the trajectory's peak, the blocks to 1e-8).
    A short drive from a nonzero state steps through ``leapfrog`` and
    equals it exactly.
    """
    dt = 1.0 / signal.rate_hz
    dt_max = max_stable_dt(sys)
    if dt > dt_max:
        raise InvalidParameterError(
            f"dt={dt} exceeds the stability limit {dt_max:.3e}; "
            "reduce dt or the stiffest element values")
    dofs = _recorded_dofs(sys, record)
    u_prev, u_curr = _initial_pair(sys, initial)
    drive = np.asarray(signal.values, dtype=float)
    values = None
    if len(drive) >= MIN_BLOCKS * BLOCK:
        values = _run_blocked(sys, dt, drive, u_prev, u_curr, dofs)
    elif not (np.any(u_prev) or np.any(u_curr)):
        spectrum = _bounded_kernel(sys, dt, drive, dofs)
        if spectrum is not None:
            values = _convolve(spectrum, _drive_spectra(drive), len(drive)).T
    if values is None:
        values = leapfrog(sys, dt, drive, u_prev, u_curr, np.asarray(dofs, dtype=int))
    return Trajectory(dt=dt, dofs=dofs, values=values)


def _initial_pair(sys: SystemMatrices, initial) -> tuple[np.ndarray, np.ndarray]:
    """run's (u_prev, u_curr) as float (n,) vectors; zeros when initial is None."""
    n = sys.n_dof
    if initial is None:
        return np.zeros(n), np.zeros(n)
    pair = tuple(np.asarray(u, dtype=float) for u in initial)
    if len(pair) != 2 or any(u.shape != (n,) for u in pair):
        raise InvalidParameterError(
            f"initial must be a (u_prev, u_curr) pair of shape ({n},) vectors")
    return pair


def _fft_size(steps: int) -> int:
    """The FFT length of every convolution over `steps` steps: the power of
    two >= 2 * steps, so the circular product is the linear convolution."""
    return 1 << (2 * steps - 1).bit_length()


def _drive_spectra(drive: np.ndarray) -> np.ndarray:
    """rfft over _fft_size(T) of a (T,) drive, (F,), or of each column of a
    (T, B) drive, (B, F)."""
    return np.fft.rfft(drive.T, n=_fft_size(len(drive)))


def _kernel(sys: SystemMatrices, dt: float, steps: int, dofs: tuple[int, ...]):
    """(spectrum, gain) for drives of `steps` steps from rest.

    spectrum (d, F) is the rfft over _fft_size(steps) of the impulse
    response at `dofs`, which leapfrog generates BLOCK rows at a time;
    gain = max_i sum_t |h_i[t]| over every DOF, so max|u| <= gain * max|x|.
    Cached on the system; past KERNELS entries the least recently used one
    is dropped.
    """
    cache = sys._kernels
    key = (dt, steps, dofs)
    entry = cache.pop(key, None)
    if entry is None:
        cols = np.asarray(dofs, dtype=int)
        h_rec = np.empty((len(cols), steps))
        gain = np.zeros(sys.n_dof)
        pulse = np.zeros(min(BLOCK, steps))
        pulse[0] = 1.0
        h = leapfrog(sys, dt, pulse, limit=np.inf)
        pulse[0] = 0.0
        for t0 in range(0, steps, BLOCK):
            if t0:   # each piece continues from the last two rows of the one before
                h = leapfrog(sys, dt, pulse[:steps - t0], h[-2], h[-1], limit=np.inf)
            h_rec[:, t0:t0 + len(h)] = h[:, cols].T
            gain += np.sum(np.abs(h), axis=0)
        entry = (np.fft.rfft(h_rec, n=_fft_size(steps)), float(np.max(gain)))
        if len(cache) >= KERNELS:
            del cache[next(iter(cache))]
    cache[key] = entry
    return entry


def _bounded_kernel(sys: SystemMatrices, dt: float, drive: np.ndarray,
                    dofs: tuple[int, ...]) -> np.ndarray | None:
    """The kernel spectrum for a (T,) or (T, B) drive from rest, or None when
    the caller must step with leapfrog instead: the drive is empty, or
    max|x| * gain cannot rule out |u| > BLOWUP_LIMIT (or is not finite)."""
    if not len(drive):
        return None
    spectrum, gain = _kernel(sys, dt, len(drive), dofs)
    return spectrum if max(drive.max(), -drive.min()) * gain <= BLOWUP_LIMIT else None


def _convolve(spectrum: np.ndarray, x_f: np.ndarray, steps: int) -> np.ndarray:
    """The first `steps` samples of each drive with spectrum x_f ((F,) or
    (b, F)) convolved with the kernel `spectrum` (d, F): (d, steps) or
    (b, d, steps)."""
    n_fft = 2 * (spectrum.shape[-1] - 1)
    return np.fft.irfft(x_f[..., None, :] * spectrum, n=n_fft)[..., :steps]


def _block_operators(sys: SystemMatrices, dt: float, dofs: np.ndarray):
    """One block's operators, generated by leapfrog: (ops, o_max, trans,
    h_sum, ends).

    The state entering a block is (u_curr, u_curr - u_prev) as a 2n-vector:
    carrying the step difference rather than u_prev keeps a large rigid
    displacement (free lattice) from swamping the velocity in rounding.
    With h (L, n) the response to a unit drive at the block's first step
    from rest: ops (2n + L, L * d) maps [state | block drive] to the block's
    (L, d) rows at `dofs`, flattened; its first 2n rows are the free
    response to each unit state, its last L the lower-triangular Toeplitz
    matrix of h.  o_max (n, 2n) is the largest |free response| over the
    block and h_sum (n,) = sum_t |h[t]|, the two parts of the block's bound
    on |u|.  trans (2n, 2n) maps the state entering a block to the state
    entering the next; ends (L, 2n) maps a block's drive to the state it
    leaves from rest.
    """
    n, L, d = sys.n_dof, BLOCK, len(dofs)
    pulse = np.zeros(L)
    pulse[0] = 1.0
    h = leapfrog(sys, dt, pulse, limit=np.inf)
    ops = np.zeros((2 * n + L, L, d))
    h_rec = h[:, dofs]
    for j in range(L):   # the response to a unit drive at step j
        ops[2 * n + j, j:] = h_rec[:L - j]
    eye = np.eye(n)
    u_prev, u_curr = np.hstack([eye, -eye]), np.hstack([eye, np.zeros((n, n))])
    o_max = np.zeros((n, 2 * n))
    piece = 32    # keeps each (piece, n, 2n) free response under 1 MB
    for t0 in range(0, L, piece):
        o = leapfrog(sys, dt, np.zeros((piece, 2 * n)), u_prev, u_curr,
                     limit=np.inf)
        np.maximum(o_max, np.max(np.abs(o), axis=0), out=o_max)
        ops[:2 * n, t0:t0 + piece] = o[:, dofs].transpose(2, 0, 1)
        u_prev, u_curr = o[-2], o[-1]
    # The state a block's drive alone leaves it in, from rest, is the drive
    # weighted by the reversed impulse response (and by its step difference).
    ends = np.empty((L, 2 * n))
    ends[:, :n] = h[::-1]
    ends[:, n:] = h[::-1]
    ends[:-1, n:] -= h[-2::-1]
    return (ops.reshape(2 * n + L, L * d), o_max, np.vstack([u_curr, u_curr - u_prev]),
            np.sum(np.abs(h), axis=0), ends)


def _run_blocked(sys: SystemMatrices, dt: float, drive: np.ndarray,
                 u_prev: np.ndarray, u_curr: np.ndarray,
                 dofs: tuple[int, ...]) -> np.ndarray | None:
    """leapfrog's result, evaluated BLOCK steps at a time (see module doc).

    Each chunk of _CHUNK_BLOCKS blocks scans the state entering its blocks,
    bounds |u| and writes its rows with one GEMM, [state | block drive] @
    ops.  Returns None once a chunk's bound exceeds BLOWUP_LIMIT or is not
    finite; the caller then steps with leapfrog.
    """
    n, L, d = sys.n_dof, BLOCK, len(dofs)
    ops, o_max, trans, h_sum, ends = _block_operators(sys, dt, np.asarray(dofs, dtype=int))
    steps = len(drive)
    out = np.empty((-(-steps // L) * L, d))   # whole blocks; steps rows returned
    # [state | block drive] rows.  The scan writes each state in place
    # through row views made once; the state leaving a chunk lands in the row
    # after its last block, and the next chunk starts from it.
    lhs = np.empty((_CHUNK_BLOCKS + 1, 2 * n + L))
    states = list(lhs[:, :2 * n])
    lhs[0, :n] = u_curr
    np.subtract(u_curr, u_prev, out=lhs[0, n:2 * n])
    for t0 in range(0, steps, _CHUNK_BLOCKS * L):
        m = min(_CHUNK_BLOCKS * L, steps - t0)
        k, full = -(-m // L), m // L
        s, x = lhs[:k, :2 * n], lhs[:k, 2 * n:]
        x[:full] = drive[t0:t0 + full * L].reshape(full, L)
        if full < k:   # the drive's last block is partial: pad it with zeros
            x[full] = np.append(drive[t0 + full * L:t0 + m], np.zeros(k * L - m))
        for s_in, s_out, z in zip(states, states[1:], x @ ends):
            np.dot(trans, s_in, out=s_out)
            s_out += z
        # |u| in a block is at most |s| @ o_max.T + max|x| * sum_t |h[t]|.
        x_max = np.maximum(x.max(axis=1), -x.min(axis=1))
        if not np.max(np.abs(s) @ o_max.T + x_max[:, None] * h_sum) <= BLOWUP_LIMIT:
            return None
        np.matmul(lhs[:k], ops, out=out[t0:t0 + k * L].reshape(k, L * d))
        lhs[0, :2 * n] = lhs[k, :2 * n]
    return out[:steps]


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


def run_rnn(sys: SystemMatrices, signal: "Signal", record: str = "outputs") -> Trajectory:
    """Same trajectory as run() from rest, computed through the explicit
    W_h/W_i matrices."""
    dt = 1.0 / signal.rate_hz
    w_h, w_i = build_rnn_weights(sys, dt)
    dofs = _recorded_dofs(sys, record)
    h = np.zeros(2 * sys.n_dof)
    drive = np.asarray(signal.values, dtype=float)
    out = np.empty((len(drive), len(dofs)))
    col = np.asarray(dofs, dtype=int)
    for t in range(len(drive)):
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
