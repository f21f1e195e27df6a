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

``leapfrog`` is the one stepper and the reference for everything else; it
checks the blow-up bound once per CHUNK steps, yet names the exact step.

The recurrence is linear and time-invariant, so the response from rest is
the drive convolved with the impulse response.  ``_run_pieces`` picks how
to evaluate a (T,) drive, handing the result on piece by piece (``run``
collects the pieces, ``signals.measure_transfer`` reads them as they
come), and ``_respond_groups`` how to evaluate B drives from rest, B rows
of T samples (the samples' own arrays), for ``trainer``'s scores.  Each
asks ``_below_margin`` once: a dt past the stability limit is refused, and
only a dt below _BLOCK_MARGIN * dt_max may use blocks or kernels (closer
to dt_max their composed maps drift from stepping).  Below the margin:

* A (T,) drive of at least MIN_BLOCKS * BLOCK steps is evaluated BLOCK
  steps at a time (``_run_blocked``): each block is the free response to
  the state entering it plus its drive times the Toeplitz matrix of the
  impulse response, one GEMM row per block, while a grouped scan over
  blocks carries the state.  Each chunk of _CHUNK_BLOCKS blocks pulls its
  drive from a source and is one piece, so such a drive need never be held
  whole, nor its result.
* A shorter (T,) drive or a batch of B drives of any length, from rest
  (no initial state, or an all-zero one), is an FFT convolution with the one
  kernel ``SystemMatrices`` keeps, if ``_convolution`` allows it.

The rest steps with ``leapfrog`` and equals it bit for bit, and so does a
drive whose bound on |u| over all DOFs (max|x| times the gain, plus a bound
on the free response for blocks, checked chunk by chunk) cannot rule out
|u| > BLOWUP_LIMIT: stepping then raises at the exact step or returns its
own result, as one more piece from step 0 after any chunks before.  The
block operators and the kernels come from one generator,
``_free_response``: one stride of the 2n unit states' free responses, a scan
by the stride map they give, and GEMMs against the scanned states.

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
BLOCK = 128          # steps per block of run's blocked evaluation
MIN_BLOCKS = 128     # drives shorter than this many blocks are not evaluated blockwise
_CHUNK_BLOCKS = 512  # blocks per GEMM of the blocked evaluation
_GROUP_BLOCKS = 16   # blocks per group of its state scan; divides _CHUNK_BLOCKS
_BLOCK_MARGIN = 0.999  # blocks and kernels only below this share of dt_max
_FFT_COLUMNS = 16    # drives per FFT of _convolution
_STRIDE = 16         # steps per stride of _free_response's scan


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
    def _kernel_slot(self) -> dict:
        """{(dt, steps, recorded DOFs): (spectrum, gain)} of _kernel's last kernel."""
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

    # reachability on the branch table: mark the input's outer DOF, then both
    # ends of every DOF-to-DOF branch that touches a marked DOF until no
    # branch has one end marked; an output is reached if its inner DOF is
    a, b = np.stack([p, q])[:, (p < n) & (q < n)]
    seen = np.zeros(n, dtype=bool)
    seen[outer[spec.input_cell]] = True
    while (grow := seen[a] != seen[b]).any():
        seen[a[grow]] = seen[b[grow]] = True
    missing = [c for c in spec.outputs if not seen[inner[c]]]
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
             limit: float = BLOWUP_LIMIT, out: np.ndarray | None = None) -> np.ndarray:
    """The central-difference stepper: one step per row of `drive`.

    A (T,) drive steps state vectors of shape (n,); a (T, B) drive steps B
    independent signals in lockstep with states of shape (n, B).  The state
    starts at rest unless u_prev/u_curr are given.  Row t of the result holds
    u[t+1] at the DOF indices `dofs`, or every DOF when dofs is None.  Raises
    NumericError citing the step (and batch column) once any |u| exceeds
    `limit`.

    The result is a new C-order array unless `out` is given: as with numpy's
    `out=`, an `out` of the result's shape receives the rows and is
    returned, so a transposed view of a caller's (n, T, ...) store keeps the
    history DOF-major without allocating it.  After a NumericError its rows
    are partly written.

    Each step runs in a ring of CHUNK preallocated rows, copied out after each
    chunk, with the same floating-point operations, in the same order, as
    ``2 u[t] - c_minus u[t-1] - A u[t]`` (the c_minus product is skipped when
    it is exactly 1).  max|u| is checked once per CHUNK steps with overflow
    warnings silenced inside the chunk; a chunk past the limit (or holding
    NaN) is rescanned for its first bad row, so the error and its step equal
    those of a check after every step.
    """
    a, b, c_plus, c_minus = _step_coeffs(sys, dt)
    in_dof = sys.input_dof
    b_in = b[in_dof]
    shape = (sys.n_dof,) + drive.shape[1:]
    want = (len(drive), sys.n_dof if dofs is None else len(dofs)) + drive.shape[1:]
    if out is None:
        out = np.empty(want)
    elif out.shape != want:
        raise InvalidParameterError(f"out has shape {out.shape}, the result {want}")
    ring = np.empty((min(CHUNK, len(drive)),) + shape)
    head = np.empty((2,) + shape)
    head[0] = 0.0 if u_prev is None else u_prev
    head[1] = 0.0 if u_curr is None else u_curr
    last_two = list(head)   # u[t-1], u[t] entering the chunk
    au = np.empty(shape)
    cu = None if c_minus == 1.0 else np.empty(shape)
    for t0 in range(0, len(drive), CHUNK):
        k = min(CHUNK, len(drive) - t0)
        block = ring[:k]
        # step j writes rows[j + 2] from rows[j + 1] and rows[j]; in the ring
        # it overwrites last_two only after the first two steps have read them
        rows = last_two + list(block)
        kick = b_in * drive[t0:t0 + k]
        # Past the limit the values may overflow before the check below sees
        # them; the chunk is then rescanned and the run raises.
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(k):
                u_prev, u_curr, u_next = rows[j], rows[j + 1], rows[j + 2]
                np.dot(a, u_curr, out=au)
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
        out[t0:t0 + k] = block if dofs is None else block[:, dofs]
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
    the step index if any |u| exceeds BLOWUP_LIMIT, as leapfrog's would.
    The module doc says how the recurrence is evaluated.
    """
    dofs = _recorded_dofs(sys, record)
    u_prev, u_curr = _initial_pair(sys, initial)
    dt = 1.0 / signal.rate_hz
    drive = np.asarray(signal.values, dtype=float)
    for t0, _, rows in _run_pieces(sys, dt, lambda a, b: drive[a:b], len(drive),
                                   dofs, u_prev, u_curr):
        if len(rows) == len(drive):   # the whole drive in one piece, kept as made
            values = rows
        else:
            if t0 == 0:
                values = np.empty((len(drive), len(dofs)))
            values[t0:t0 + len(rows)] = rows
    return Trajectory(dt=dt, dofs=dofs, values=values)


def _run_pieces(sys: SystemMatrices, dt: float, source, steps: int,
                dofs: tuple[int, ...], u_prev: np.ndarray | None = None,
                u_curr: np.ndarray | None = None):
    """leapfrog's result at `dofs` for the drive source(0, steps), piece by
    piece: yields (t0, x, rows), rows the result's rows t0 .. t0 + len(rows)
    - 1 and x = source(t0, t0 + len(rows)) the drive they answer, where
    source(a, b) returns drive samples a .. b - 1 as a float array.

    Below the margin a drive of at least MIN_BLOCKS * BLOCK steps comes one
    chunk of _CHUNK_BLOCKS * BLOCK steps at a time (``_run_blocked``), in
    scratch the next piece overwrites.  When a chunk's bound is refused the
    drive is stepped whole from step 0 and yielded as one more piece at
    t0 = 0: a consumer that sees t0 = 0 again starts over.  Every other
    drive is one piece, convolved or stepped as the module doc says.
    """
    short, x = steps < MIN_BLOCKS * BLOCK, None
    # each branch checks dt once, through _below_margin
    if short and not (np.any(u_prev) or np.any(u_curr)):
        x = source(0, steps)
        groups = _convolution(sys, dt, x[None], dofs)
        if groups is not None:   # one group; (d, T) storage: each DOF's samples contiguous
            yield 0, x, next(groups)[1][..., 0].copy(order="F")
            return
    elif _below_margin(sys, dt) and not short:
        if (yield from _run_blocked(sys, dt, source, steps, u_prev, u_curr, dofs)):
            return
    x = source(0, steps) if x is None else x
    yield 0, x, leapfrog(sys, dt, x, u_prev, u_curr, np.asarray(dofs, dtype=int))


def _respond_groups(sys: SystemMatrices, dt: float, rows,
                    dofs: tuple[int, ...], work: np.ndarray | None = None):
    """leapfrog's result at `dofs` for B drives from rest, `rows` as in
    ``_convolution``, for the batch scorers: (lo, values) pairs as it yields
    them, or, when it refuses the batch, one pair of the rows stacked to
    (T, B) and stepped whole, so a NumericError names the step and the row
    as leapfrog's does.  The values are scratch: the caller may overwrite
    them, and the next group does."""
    return _convolution(sys, dt, rows, dofs, work) or [
        (0, leapfrog(sys, dt, np.stack(rows, axis=1), dofs=np.asarray(dofs, dtype=int)))]


def _below_margin(sys: SystemMatrices, dt: float) -> bool:
    """Whether dt < _BLOCK_MARGIN * max_stable_dt(sys), where blocks and
    kernels may stand in for stepping; a dt past max_stable_dt is refused
    with InvalidParameterError."""
    dt_max = max_stable_dt(sys)
    if dt > dt_max:
        raise InvalidParameterError(
            f"dt={dt} exceeds the stability limit {dt_max:.3e}; "
            "reduce dt or the stiffest element values")
    return dt < _BLOCK_MARGIN * dt_max


def _initial_pair(sys: SystemMatrices, initial) -> tuple:
    """run's (u_prev, u_curr) as float (n,) vectors; (None, None), at rest,
    when initial is None."""
    n = sys.n_dof
    if initial is None:
        return None, None
    pair = tuple(np.asarray(u, dtype=float) for u in initial)
    if len(pair) != 2 or any(u.shape != (n,) for u in pair):
        raise InvalidParameterError(
            f"initial must be a (u_prev, u_curr) pair of shape ({n},) vectors")
    return pair


def _fft_size(steps: int) -> int:
    """The FFT length of every convolution over `steps` steps: the power of
    two >= 2 * steps, so the circular product is the linear convolution."""
    return 1 << (2 * steps - 1).bit_length()


def _kernel(sys: SystemMatrices, dt: float, steps: int, dofs: tuple[int, ...]):
    """(spectrum, gain) for drives of `steps` steps from rest: the rfft (d, F)
    over _fft_size(steps) of _impulse's response at `dofs`, and max_i sum_t
    |h_i[t]| over every DOF, so max|u| <= gain * max|x|.  The system keeps
    the last kernel made; one for another key replaces it."""
    slot = sys._kernel_slot
    key = (dt, steps, dofs)
    if key not in slot:
        slot.clear()
        h = _impulse(sys, dt, steps)
        slot[key] = (np.fft.rfft(h[:, list(dofs)].T, n=_fft_size(steps)),
                     float(np.max(np.sum(np.abs(h), axis=0))))
    return slot[key]


def _impulse(sys: SystemMatrices, dt: float, steps: int,
             o: np.ndarray | None = None) -> np.ndarray:
    """(steps, n) response to a unit drive at step 0 from rest, u[t+1] in row
    t: the kick u[1], then _free_response from (u[1], u[1]) (`o` as there),
    at a dt ``_below_margin`` allows."""
    _, b, c_plus, _ = _step_coeffs(sys, dt)
    free = _free_response(sys, dt, np.tile(b / c_plus, (1, 2)), steps - 1, o=o)[0]
    return np.vstack([b / c_plus, free[0]])


def _free_response(sys: SystemMatrices, dt: float, start: np.ndarray, steps: int,
                   dofs: np.ndarray | None = None, o: np.ndarray | None = None):
    """(rows, states, o): the free response from each row state (u_curr,
    u_curr - u_prev) of start (m, 2n), _STRIDE steps at a time.

    o (_STRIDE, n, 2n), leapfrog's free response to the 2n unit states over
    one stride, is stepped unless given; its last two rows make the stride
    map.  A scan by that map gives states (K + 1, m, 2n), the state entering
    each of the K = ceil(steps / _STRIDE) strides and the one after, and
    GEMMs of o at `dofs` (every DOF when None) against them rows (m, steps,
    d), u[t+1] in row t.  A GEMM takes as many strides as fit in 2^18
    multiply-adds, at least one: OpenBLAS keeps that on one thread, where
    woken threads stall later short runs ~4 ms at a time on 2 loaded vCPUs.
    """
    n, S = sys.n_dof, _STRIDE
    if o is None:   # unit states: u_curr = [I 0], u_prev = [I -I]
        u_curr = np.eye(n, 2 * n)
        o = leapfrog(sys, dt, np.zeros((S, 2 * n)), u_curr - np.eye(n, 2 * n, n),
                     u_curr, limit=np.inf)
    # s -> s @ stride; C order gives the same bits at 1 and 2 BLAS threads
    stride = np.vstack([o[-1], o[-1] - o[-2]]).T.copy()
    k = -(-steps // S)
    states = np.empty((k + 1,) + start.shape)
    states[0] = start
    for j in range(k):
        np.matmul(states[j], stride, out=states[j + 1])
    f = (o if dofs is None else o[:, dofs]).reshape(-1, 2 * n)   # (S * d, 2n)
    m, d = len(start), len(f) // S
    rows = np.empty((k, m, S, d))
    c = max(1, (1 << 18) // (m * f.size))   # strides per GEMM
    for j in range(0, k, c):
        np.matmul(states[j:min(j + c, k)].reshape(-1, 2 * n), f.T,
                  out=rows[j:j + c].reshape(-1, S * d))
    return rows.swapaxes(0, 1).reshape(m, k * S, d)[:, :steps], states, o


def _group_floats(steps: int, d: int, columns: int) -> int:
    """Floats of scratch _convolution takes for `columns` drives of `steps`
    steps recorded at d DOFs."""
    n_fft = _fft_size(steps)
    return min(columns, _FFT_COLUMNS) * d * (2 * (n_fft // 2 + 1) + n_fft)


def _convolution(sys: SystemMatrices, dt: float, rows,
                 dofs: tuple[int, ...], work: np.ndarray | None = None):
    """The one convolve-or-step decision for B drives from rest, `rows` (a
    (B, T) array or B arrays): None if they must step, else their response
    at `dofs` by FFT convolution.

    The rows are convolved when ``_below_margin`` allows dt, T > 0 and
    max|x| * gain rules out |u| > BLOWUP_LIMIT (a non-finite bound does
    not).  The result yields (lo, values), values the (T, d, g) response of
    rows lo .. lo + g - 1, _FFT_COLUMNS at a time, in scratch that each
    group overwrites (its rows first): the first _group_floats floats of
    `work`, or two new arrays when it is None or smaller.
    """
    steps, batch = len(rows[0]), len(rows)
    if not (_below_margin(sys, dt) and steps):
        return None
    spectrum, gain = _kernel(sys, dt, steps, dofs)
    if not all(max(x.max(), -x.min()) * gain <= BLOWUP_LIMIT for x in rows):
        return None
    d, f = spectrum.shape
    n_fft = _fft_size(steps)
    g = min(batch, _FFT_COLUMNS)
    shapes = (g, d, 2 * f), (g, d, n_fft)
    if work is None or work.size < _group_floats(steps, d, batch):
        prod, res = (np.empty(shape) for shape in shapes)
    else:
        prod, res = _carve(work, *shapes)
    prod = prod.view(complex)
    stack = res.reshape(-1)[:g * steps].reshape(g, steps)   # a group's rows, for the rfft

    def groups():
        for lo in range(0, batch, _FFT_COLUMNS):
            k = min(_FFT_COLUMNS, batch - lo)
            stack[:k] = rows[lo:lo + k]
            # the drive's spectrum is freed before irfft allocates its result
            np.multiply(np.fft.rfft(stack[:k], n=n_fft)[:, None, :], spectrum,
                        out=prod[:k])
            res[:k] = np.fft.irfft(prod[:k], n=n_fft)
            yield lo, res[:k, :, :steps].transpose(2, 1, 0)
    return groups()


def _carve(flat: np.ndarray, *shapes) -> list[np.ndarray]:
    """C-contiguous views of `shapes`, laid one after another from flat[0]."""
    views, at = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        if at + size > flat.size:
            raise InvalidParameterError(
                f"a workspace of {flat.size} floats is too small for this batch")
        views.append(flat[at:at + size].reshape(shape))
        at += size
    return views


def _block_operators(sys: SystemMatrices, dt: float, dofs: np.ndarray):
    """One block's operators, from _free_response: (ops, o_max, trans, h_sum,
    ends).

    The state entering a block is (u_curr, u_curr - u_prev) as a 2n-vector:
    carrying the step difference rather than u_prev keeps a large rigid
    displacement (free lattice) from swamping the velocity in rounding.
    With h (L, n) the impulse response: ops (2n + L, L * d) maps [state |
    block drive] to the block's (L, d) rows at `dofs`, flattened: the free
    response to each unit state over the Toeplitz matrix of h.  o_max (n,
    2n) = max_k (max_j |F_j|) @ |X^k|, X the stride map and F_j the free
    response j + 1 steps into a stride, bounds |free response| over the
    block from above, and h_sum (n,) = sum_t |h[t]|: the two parts of the
    bound on |u|, both nonnegative.  trans (2n, 2n) maps the state entering
    a block to the state entering the next; ends (L, 2n) maps a block's
    drive to the state it leaves from rest.
    """
    n, L, d = sys.n_dof, BLOCK, len(dofs)
    free, x, o = _free_response(sys, dt, np.eye(2 * n), L, dofs)
    h = _impulse(sys, dt, L, o)
    toeplitz = np.zeros((L, L, d))
    for j in range(L):   # the response to a unit drive at step j
        toeplitz[j, j:] = h[:L - j, dofs]
    # The state a block's drive alone leaves it in, from rest, is the drive
    # weighted by the reversed impulse response (and by its step difference).
    ends = np.hstack([h, np.diff(h, axis=0, prepend=0.0)])[::-1].copy()
    # x[k] = (X^k).T: k strides and j + 1 steps in, |free response| <=
    # max_j |F_j| @ |X^k|
    f_max = np.max(np.abs(o), axis=0).T
    bound = np.max([np.abs(xk) @ f_max for xk in x[:-1]], axis=0)
    return (np.concatenate([free, toeplitz]).reshape(2 * n + L, L * d),
            bound.T, x[-1].T, np.sum(np.abs(h), axis=0), ends)


def _run_blocked(sys: SystemMatrices, dt: float, source, steps: int,
                 u_prev: np.ndarray | None, u_curr: np.ndarray | None,
                 dofs: tuple[int, ...]):
    """leapfrog's result, evaluated BLOCK steps at a time (see module doc):
    a generator of one (t0, x, rows) piece per chunk of _CHUNK_BLOCKS
    blocks, as ``_run_pieces`` yields them, that returns True when done.

    Each chunk pulls its drive x = source(t0, t0 + m) and scans the state
    entering its blocks in groups of G = _GROUP_BLOCKS: G - 1 GEMMs scan
    every group at once from a zero state, a product with trans^G per group
    carries the state entering the group to the next one, and one GEMM of
    those group entry states against [trans^1 ... trans^G] adds the part each
    block's state owes to its group's entry state.  The chunk then bounds
    |u| over all its blocks at once and writes its rows with one GEMM,
    [state | block drive] @ ops, one row per block.  Returns False,
    yielding nothing more, once a chunk's bound exceeds BLOWUP_LIMIT or is
    not finite; the caller then steps with leapfrog.
    """
    n, L, d, G = sys.n_dof, BLOCK, len(dofs), _GROUP_BLOCKS
    ops, o_max, trans, h_sum, ends = _block_operators(
        sys, dt, np.asarray(dofs, dtype=int))
    # powers[:, j] = (trans^(j+1)).T, so that a row state s @ powers[:, j]
    # is the state j + 1 blocks on from s with no drive
    powers = np.empty((2 * n, G, 2 * n))
    powers[:, 0] = trans.T
    for j in range(1, G):
        np.matmul(powers[:, j - 1], powers[:, 0], out=powers[:, j])
    out = np.empty((min(_CHUNK_BLOCKS, -(-steps // L)) * L, d))   # one chunk's whole blocks
    # lhs[b] is block b's [state | block drive] row.  The scan writes the
    # state entering block b + 1 to lhs[b + 1] for every block of the chunk,
    # through views of whole groups (G divides _CHUNK_BLOCKS); the state
    # leaving a chunk lands in the row after its last block, and the next
    # chunk starts from it.
    lhs = np.empty((_CHUNK_BLOCKS + 1, 2 * n + L))
    z = np.zeros((_CHUNK_BLOCKS, 2 * n))   # the state each block's drive leaves, from rest
    entry = np.empty((_CHUNK_BLOCKS // G, 2 * n))   # the state entering each group
    lhs[0, :n] = 0.0 if u_curr is None else u_curr
    np.subtract(lhs[0, :n], 0.0 if u_prev is None else u_prev, out=lhs[0, n:2 * n])
    for t0 in range(0, steps, _CHUNK_BLOCKS * L):
        m = min(_CHUNK_BLOCKS * L, steps - t0)
        k, full = -(-m // L), m // L
        groups = -(-k // G)
        drive = source(t0, t0 + m)
        s, x = lhs[:k, :2 * n], lhs[:k, 2 * n:]
        x[:full] = drive[:full * L].reshape(full, L)
        if full < k:   # the drive's last block is partial: pad it with zeros
            x[full] = np.append(drive[full * L:], np.zeros(k * L - m))
        np.matmul(x, ends, out=z[:k])
        z[k:] = 0.0   # blocks past the drive's end in its last group
        zg = z[:groups * G].reshape(groups, G, 2 * n)
        scan = lhs[1:groups * G + 1, :2 * n].reshape(groups, G, 2 * n)
        scan[:, 0] = zg[:, 0]
        for j in range(1, G):
            np.matmul(scan[:, j - 1], powers[:, 0], out=scan[:, j])
            scan[:, j] += zg[:, j]
        entry[0] = lhs[0, :2 * n]
        for g in range(1, groups):
            np.matmul(entry[g - 1], powers[:, -1], out=entry[g])
            entry[g] += scan[g - 1, -1]
        scan += (entry[:groups] @ powers.reshape(2 * n, G * 2 * n)).reshape(
            groups, G, 2 * n)
        # |u| in any block is at most |s| @ o_max.T + max|x| * h_sum, and
        # o_max, h_sum >= 0: the largest |s| and |x| bound the whole chunk
        s_max = np.maximum(s.max(axis=0), -s.min(axis=0))
        if not np.max(s_max @ o_max.T + max(x.max(), -x.min()) * h_sum) <= BLOWUP_LIMIT:
            return False
        np.matmul(lhs[:k], ops, out=out[:k * L].reshape(k, L * d))
        lhs[0, :2 * n] = lhs[k, :2 * n]
        yield t0, drive, out[:m]
    return True


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
    if not (0.0 < tau_s < np.inf and 0.0 <= hysteresis < np.inf):
        raise InvalidParameterError("tau_s must be finite and > 0, hysteresis finite and >= 0")
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
