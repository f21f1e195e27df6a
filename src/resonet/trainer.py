"""Gradient training of the lattice as a recurrent network.

Training runs in the mechanical parameterization: masses are fixed, internal
and coupling spring constants are trainable through log-space parameters
theta = ln k, kept inside (k_min, k_max) by projecting theta after every
optimizer step.  The forward pass integrates every sample of a minibatch in
lockstep (displacement matrices of shape (dof, batch)); the loss is the
cross-entropy of L1-normalized output energies

    E_i = sum_t u_out_i(t)^2 dt,   p_i = (E_i + eps) / sum_j (E_j + eps)

and gradients flow through the full unrolled recurrence by the adjoint
(backpropagation-through-time) method: the only parameter dependence is the
linear appearance of the coupling matrix in the update, so

    dL/dY = dt^2 D^-1 ( -sum_t lambda[t+1] u[t]^T )

with lambda the adjoint state, projected onto the elements through the
system's branch table (element k joining DOFs p and q receives
dL/dY[p,p] + dL/dY[q,q] - dL/dY[p,q] - dL/dY[q,p]) and chained through
k = exp(theta).  The forward pass is the simulator's single leapfrog stepper
run on (dof, batch) states.  A trained network converts to circuit values
with an arbitrary analogy scale (dynamics are scale-invariant) and survives
E-series quantization of its resistors.

One ``train`` run steps every minibatch in one workspace (``make_workspace``)
that it allocates once and drops when it returns: flat storage for the
widest batch's DOF-major history, adjoint state and output arrays, of which
a narrower batch takes a contiguous prefix.  It holds what one
``loss_and_grad`` call used to allocate and free (43 MB on the stock 5x5
task), so the run no longer pages that memory in afresh for every
minibatch; ``loss_and_grad`` gives the same results, bit for bit, with a
workspace or without one.

Scoring (``evaluate_system``, behind ``evaluate``, and ``_evaluate_drive``,
behind it and every epoch's train and val scores) never feeds the
parameters, so it evaluates the batch through
``simulator._respond_groups``: drives from rest are FFT convolutions with
the system's one kernel, within 1e-12 of the largest channel of stepping,
_FFT_COLUMNS columns at a time in the run's workspace so that only the
(C, B) energies are kept; a batch at 0.999 dt_max or above, or whose bound
on |u| passes the blow-up limit, is stepped whole with leapfrog, so a
divergence still names its step and sample.  Epoch ``loss``, ``train_acc``
and ``val_acc`` are therefore within rounding of stepped scoring, not bit
for bit; the trained parameters, checkpoints and the export are bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import simulator
from .errors import (ConfigError, DataFormatError, InvalidParameterError,
                     NumericError, check_fields)
from .lattice import (CircuitParams, LatticeSpec, MechanicalParams,
                      QuantizationReport, ScalingFactor, choose_scaling,
                      mech_to_circuit, quantize_eseries)

EPS_FLOOR = 1e-300  # absolute probability-guard floor; keeps all-zero batches uniform


@dataclass(frozen=True)
class TrainConfig:
    """Optimization controls plus the fixed physical context of training."""

    # 20 epochs: enough for the default task's transmission peaks to align with
    # the class centers, short enough that output cells keep their own
    # resonances there (longer runs drift them onto collective lattice modes).
    epochs: int = 20
    batch_size: int = 30
    lr: float = 0.02                    # Adam step in log-stiffness space
    seed: int = 0
    loss_floor: float = 0.0             # early stop when epoch loss drops below; 0 disables
    prob_epsilon: float = 1e-12         # relative energy guard in the readout
    mass_outer_kg: float = 1.307e-3
    mass_inner_kg: float = 3.530e-3
    f0_band_hz: tuple[float, float] | None = None   # None: transparent bulk, see train()
    init_output_centers: bool = True    # start each output cell resonant at its class center
    kc_init: tuple[float, float] = (300.0, 900.0)   # log-uniform coupling init (N/m)
    k_min: float = 1e-2
    k_max: float = 1e4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and not np.all(np.isfinite(value)):
                raise InvalidParameterError(f"{name} must be finite, got {value!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidParameterError("epochs and batch_size must be >= 1")
        if self.lr <= 0.0 or self.prob_epsilon < 0.0:
            raise InvalidParameterError("lr must be > 0 and prob_epsilon >= 0")
        if not 0.0 < self.k_min < self.k_max:
            raise InvalidParameterError("need 0 < k_min < k_max")
        if self.seed < 0:
            raise InvalidParameterError("seed must be >= 0")
        if not (self.mass_outer_kg > 0.0 and self.mass_inner_kg > 0.0
                and 0.0 < self.kc_init[0] <= self.kc_init[1]):
            raise InvalidParameterError("masses must be > 0 and kc_init a range "
                                        "0 < lo <= hi")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0
                and self.adam_eps > 0.0):
            raise InvalidParameterError("need 0 <= beta1, beta2 < 1 and adam_eps > 0")


@dataclass(frozen=True)
class TrainableParams:
    """Log-space stiffness parameters with their realization bounds."""

    theta_kn: np.ndarray   # (n_cells,) ln of internal stiffness
    theta_kc: np.ndarray   # (n_edges,) ln of coupling stiffness
    k_min: float = 1e-2
    k_max: float = 1e4

    def __post_init__(self):
        object.__setattr__(self, "theta_kn", np.asarray(self.theta_kn, dtype=float))
        object.__setattr__(self, "theta_kc", np.asarray(self.theta_kc, dtype=float))

    @property
    def log_bounds(self) -> tuple[float, float]:
        # interior by a hair so realized k stays strictly inside (k_min, k_max)
        return math.log(self.k_min) + 1e-12, math.log(self.k_max) - 1e-12

    def project(self) -> "TrainableParams":
        lo, hi = self.log_bounds
        return replace(self, theta_kn=np.clip(self.theta_kn, lo, hi),
                       theta_kc=np.clip(self.theta_kc, lo, hi))

    def realize(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.log_bounds
        return (np.exp(np.clip(self.theta_kn, lo, hi)),
                np.exp(np.clip(self.theta_kc, lo, hi)))

    def packed(self) -> np.ndarray:
        return np.concatenate([self.theta_kn, self.theta_kc])

    def from_packed(self, vec: np.ndarray) -> "TrainableParams":
        n = len(self.theta_kn)
        return replace(self, theta_kn=vec[:n].copy(), theta_kc=vec[n:].copy())


def init_params(spec: LatticeSpec, cfg: TrainConfig, f0_band_hz: tuple[float, float],
                rng: np.random.Generator,
                pinned_f0: dict[int, float] | None = None) -> TrainableParams:
    """Random start: cell resonances uniform across the band, couplings log-uniform.

    `pinned_f0` maps cell index -> resonance (Hz) for cells whose starting
    frequency is fixed rather than drawn (used to seed each output cell at its
    class center, giving gradient descent a resonant-readout basin).  Pinned or
    not, the same random draws are consumed, so pinning one cell never reshuffles
    the others.
    """
    f_lo, f_hi = f0_band_hz
    if not 0.0 < f_lo < f_hi:
        raise InvalidParameterError("need 0 < f_lo < f_hi for the init band")
    f0 = rng.uniform(f_lo, f_hi, size=spec.n_cells)
    for cell, freq in (pinned_f0 or {}).items():
        if not 0 <= cell < spec.n_cells or freq <= 0.0:
            raise InvalidParameterError(f"bad pinned resonance {freq} for cell {cell}")
        f0[cell] = freq
    k_n = cfg.mass_inner_kg * (2.0 * np.pi * f0) ** 2
    k_c = np.exp(rng.uniform(math.log(cfg.kc_init[0]), math.log(cfg.kc_init[1]),
                             size=spec.n_edges))
    params = TrainableParams(theta_kn=np.log(k_n), theta_kc=np.log(k_c),
                             k_min=cfg.k_min, k_max=cfg.k_max)
    return params.project()


def mech_from_params(spec: LatticeSpec, cfg: TrainConfig,
                     params: TrainableParams) -> MechanicalParams:
    k_n, k_c = params.realize()
    n = spec.n_cells
    return MechanicalParams(mass_outer=np.full(n, cfg.mass_outer_kg),
                            mass_inner=np.full(n, cfg.mass_inner_kg),
                            k_internal=k_n, k_coupling=k_c)


# --- Adam --------------------------------------------------------------------

@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators over the packed parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def fresh(cls, n: int, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0, lr=lr,
                   beta1=beta1, beta2=beta2, eps=eps)


def adam_step(vec: np.ndarray, grad: np.ndarray,
              state: AdamState) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns the new vector and state."""
    if vec.shape != grad.shape or vec.shape != state.m.shape:
        raise InvalidParameterError("parameter/gradient/state shapes disagree")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_vec = vec - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_vec, replace(state, m=m, v=v, t=t)


# --- batched forward / adjoint backward --------------------------------------

def stack_batch(samples, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(T, B) drive matrix and (B,) labels from equally sampled labeled signals."""
    if not samples:
        raise InvalidParameterError("empty batch")
    rate = samples[0].signal.rate_hz
    n = len(samples[0].signal.values)
    for s in samples:
        if abs(s.signal.rate_hz - rate) > 1e-9 * rate or len(s.signal.values) != n:
            raise InvalidParameterError("batch signals must share rate and length")
    if abs(dt - 1.0 / rate) > 1e-9 * dt:
        raise InvalidParameterError(
            f"dt={dt} does not match the sample rate {rate} Hz; resample first")
    drive = np.stack([s.signal.values for s in samples], axis=1)
    labels = np.asarray([s.label for s in samples], dtype=int)
    return drive, labels


def _assemble_checked(spec: LatticeSpec, cfg: TrainConfig, params: TrainableParams,
                      dt: float) -> simulator.SystemMatrices:
    sys = simulator.assemble(spec, mech_from_params(spec, cfg, params))
    dt_max = simulator.max_stable_dt(sys)
    if dt > dt_max:
        raise NumericError(
            f"dt={dt} exceeds the stability limit {dt_max:.3e} for the current "
            "stiffness values; training diverged or dt is too coarse")
    return sys


def _energies(u_out: np.ndarray, dt: float,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """(C, B) output energies from the (T, C, B) output history; the squares
    go to `scratch` if given (u_out itself may be it)."""
    return np.sum(np.multiply(u_out, u_out, out=scratch), axis=0) * dt


def _probs_and_loss(energies: np.ndarray, labels: np.ndarray,
                    prob_epsilon: float) -> tuple[np.ndarray, float, np.ndarray]:
    """L1-normalized probabilities, mean cross-entropy, dL/dE (for backward)."""
    n_cls, batch = energies.shape
    total = energies.sum(axis=0)
    eps = prob_epsilon * total + EPS_FLOOR
    denom = total + n_cls * eps
    probs = (energies + eps) / denom
    picked = energies[labels, np.arange(batch)] + eps
    loss = float(np.mean(-np.log(picked / denom)))
    dl_de = np.ones((n_cls, batch)) / denom
    dl_de[labels, np.arange(batch)] -= 1.0 / picked
    dl_de /= batch
    return probs.T, loss, dl_de


def _adjoint_grad(sys: simulator.SystemMatrices, dt: float, src: np.ndarray,
                  u_flat: np.ndarray, lam: np.ndarray | None = None) -> np.ndarray:
    """Adjoint sweep; returns dL/dY (dense, n_dof x n_dof).

    src (T, C, B) is dL/du[s] at the output DOFs for every step; u_flat is the
    DOF-major (n, (T-1) B) matrix of the forward history's rows u[1..T-1],
    a view of the DOF-major store loss_and_grad hands leapfrog as `out`.
    lam, if given, is the C-contiguous (n, T-1, B) store the sweep writes
    lambda[1..T-1] to; otherwise one is allocated.
    """
    if sys.damping != 0.0:
        raise InvalidParameterError("gradients are defined for undamped systems only")
    t_len, _, batch = src.shape
    n = sys.n_dof
    a_t = simulator._step_coeffs(sys, dt)[0].T.copy()
    # lambda[s] = src[s] + 2 lambda[s+1] - A^T lambda[s+1] - lambda[s+2],
    # with lambda[T] = lambda[T+1] = 0.  The sweep steps in a ring of CHUNK + 2
    # rows and copies each finished chunk of lambda[1:] into a DOF-major array,
    # so the GEMM below takes its (n, (T-1) B) flattening as a view: no
    # (T, n, B) lambda and no transposed copy of it
    chunk = simulator.CHUNK
    if lam is None:
        lam = np.empty((n, max(t_len - 1, 0), batch))   # a zero-length drive has none
    ring = np.zeros((chunk + 2, n, batch))
    a_lam = np.empty((n, batch))
    # a chunk of src, zero off the outputs: one add per step (+0.0 can flip a -0.0)
    s_rows = np.zeros((chunk, n, batch))
    out = list(sys.output_dofs)
    for hi in range(t_len, 0, -chunk):
        lo = max(hi - chunk, 0)
        s_rows[:hi - lo, out] = src[lo:hi]
        block = ring[chunk - (hi - lo):]   # row j holds lambda[lo + j], j <= hi - lo + 1
        rows = list(block)
        for j in range(hi - lo - 1, -1, -1):
            cur, lam_1 = rows[j], rows[j + 1]
            np.multiply(lam_1, 2.0, out=cur)
            cur += s_rows[j]
            np.dot(a_t, lam_1, out=a_lam)
            cur -= a_lam
            cur -= rows[j + 2]
        first = max(lo, 1)
        lam[:, first - 1:hi - 1] = block[first - lo:hi - lo].transpose(1, 0, 2)
        ring[chunk:] = block[:2]   # lambda[lo], lambda[lo + 1] enter the next chunk
    # dL/dA = -sum_t lambda[t+1] u[t]^T ; chain A = dt^2 D^-1 Y row-wise
    g_a = -(lam.reshape(n, -1) @ u_flat.T)
    return (dt * dt / sys.inertia)[:, None] * g_a


def _project_grad(sys: simulator.SystemMatrices, g_y: np.ndarray) -> np.ndarray:
    """Contract dL/dY onto the elements, in packed (cells, then edges) order."""
    n = sys.n_dof
    g = np.zeros((n + 1, n + 1))   # the ground row and column stay zero
    g[:n, :n] = g_y
    p, q = sys.branches.T
    return g[p, p] + g[q, q] - g[p, q] - g[q, p]


def make_workspace(spec: LatticeSpec, steps: int, batch: int) -> np.ndarray:
    """Flat storage for loss_and_grad on batches of up to `batch` columns of
    `steps` steps: the DOF-major forward history, the adjoint state and two
    DOF-major output arrays.  A narrower batch uses a contiguous prefix of
    each, so its history and adjoint state stay (n, (T-1) B) views.  The
    same floats hold the FFT scratch of scoring `steps`-step drives."""
    n, c = 2 * len(spec.active_cells), len(spec.outputs)
    grad = batch * (n * steps + n * max(steps - 1, 0) + 2 * c * steps)
    return np.empty(max(grad, simulator._group_floats(steps, c, simulator._FFT_COLUMNS)))


def loss_and_grad(spec: LatticeSpec, cfg: TrainConfig, params: TrainableParams,
                  drive: np.ndarray, labels: np.ndarray, dt: float,
                  workspace: np.ndarray | None = None,
                  ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(loss, probs, grad on packed theta, energies) for one labeled batch.

    `workspace`, from ``make_workspace`` for at least the batch's width and
    length, holds the call's large arrays; its contents on entry do not
    matter.  Without one the call allocates its own.  Either way the results
    are the same, bit for bit.
    """
    sys = _assemble_checked(spec, cfg, params, dt)
    steps, batch = drive.shape
    n, c = sys.n_dof, len(sys.output_dofs)
    if workspace is None:
        workspace = make_workspace(spec, steps, batch)
    # every store is DOF-major, (n or C, T, B); leapfrog writes the history
    # through a transposed view, so the gradient GEMM below reads a view
    store, lam, out_store, src_store = simulator._carve(
        workspace, (n, steps, batch), (n, max(steps - 1, 0), batch),
        (c, steps, batch), (c, steps, batch))
    simulator.leapfrog(sys, dt, drive, out=store.transpose(1, 0, 2))
    for j, dof in enumerate(sys.output_dofs):
        out_store[j] = store[dof]
    u_out, src = out_store.transpose(1, 0, 2), src_store.transpose(1, 0, 2)
    energies = _energies(u_out, dt, src)
    probs, loss, dl_de = _probs_and_loss(energies, labels, cfg.prob_epsilon)
    # dL/du[s] at the output DOFs for every step, and the history as the
    # (n, (T-1) B) matrix the gradient GEMM reads: a view of the DOF-major
    # store, not a copy
    np.multiply(u_out, 2.0 * dt, out=src)
    src *= dl_de
    u_flat = store[:, :-1].reshape(n, -1)
    if batch == 1:
        # one column, T-major as before: OpenBLAS's small NN and NT GEMMs round apart
        u_flat = np.ascontiguousarray(u_flat.T).T
    g_y = _adjoint_grad(sys, dt, src, u_flat, lam)
    # d k / d theta = k for the log parameterization
    grad = _project_grad(sys, g_y) * np.concatenate(params.realize())
    return loss, probs, grad, energies


# --- evaluation ---------------------------------------------------------------

@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    loss: float
    predictions: np.ndarray   # (B,)
    probs: np.ndarray         # (B, C)
    energies: np.ndarray      # (C, B)


def evaluate_system(sys: simulator.SystemMatrices, samples,
                    prob_epsilon: float = 1e-12) -> EvalResult:
    """Run labeled samples through an assembled system (either domain).

    The samples are stacked at their own rate and their output histories
    come from ``simulator._respond_groups``: FFT convolutions from rest
    within 1e-12 of stepping with ``leapfrog``, not bit for bit.  A batch
    at 0.999 dt_max or above, or whose bound on |u| passes the blow-up
    limit, is stepped, so it equals leapfrog or raises its NumericError; a
    sample rate past the stability limit is an InvalidParameterError.
    """
    dt = _sample_dt(samples)
    return _evaluate_drive(sys, dt, *stack_batch(samples, dt), prob_epsilon)


def _evaluate_drive(sys: simulator.SystemMatrices, dt: float, drive: np.ndarray,
                    labels: np.ndarray, prob_epsilon: float,
                    workspace: np.ndarray | None = None) -> EvalResult:
    """evaluate_system on a stacked (T, B) drive: the output histories come
    from ``simulator._respond_groups`` a column group at a time, with its
    scratch in `workspace` if that is large enough, and only their (C, B)
    energies are kept."""
    energies = np.empty((len(sys.output_dofs), drive.shape[1]))
    groups = simulator._respond_groups(sys, dt, drive, sys.output_dofs, workspace)
    for lo, values in groups:
        energies[:, lo:lo + values.shape[2]] = _energies(values, dt, values)
    probs, loss, _ = _probs_and_loss(energies, labels, prob_epsilon)
    preds = np.argmax(energies, axis=0)
    return EvalResult(accuracy=float(np.mean(preds == labels)), loss=loss,
                      predictions=preds, probs=probs, energies=energies)


def _sample_dt(samples) -> float:
    """dt = 1 / rate of the first labeled signal; an empty list is refused."""
    if not samples:
        raise InvalidParameterError("empty batch")
    return 1.0 / samples[0].signal.rate_hz


def evaluate(spec: LatticeSpec, cfg: TrainConfig, params: TrainableParams,
             samples) -> EvalResult:
    sys = _assemble_checked(spec, cfg, params, _sample_dt(samples))
    return evaluate_system(sys, samples, cfg.prob_epsilon)


# --- the training loop ---------------------------------------------------------

@dataclass
class Checkpoint:
    epoch: int
    params: TrainableParams
    adam: AdamState
    rng_state: dict
    history: list[dict]

    def to_json_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "theta_kn": self.params.theta_kn.tolist(),
            "theta_kc": self.params.theta_kc.tolist(),
            "k_min": self.params.k_min,
            "k_max": self.params.k_max,
            "adam": {"m": self.adam.m.tolist(), "v": self.adam.v.tolist(),
                     "t": self.adam.t, "lr": self.adam.lr, "beta1": self.adam.beta1,
                     "beta2": self.adam.beta2, "eps": self.adam.eps},
            "rng_state": self.rng_state,
            "history": self.history,
        }

    @classmethod
    def from_json_dict(cls, d: dict, source: str = "checkpoint") -> "Checkpoint":
        """Parse `to_json_dict` output; a missing, unknown or ill-typed field
        is a DataFormatError naming `source` and the key."""
        check_fields(d, _CHECKPOINT_FIELDS, source)
        adam = check_fields(d["adam"], _ADAM_FIELDS, source, "adam.")
        for i, h in enumerate(d["history"]):
            check_fields(h, _HISTORY_FIELDS, source, f"history[{i}].")
        if not 0.0 < d["k_min"] < d["k_max"]:
            raise DataFormatError(f"{source}: checkpoint needs 0 < k_min < k_max")
        try:
            np.random.PCG64().state = d["rng_state"]
        except (OverflowError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{source}: checkpoint field 'rng_state' is not a "
                                  f"generator state: {exc}") from exc
        params = TrainableParams(theta_kn=np.asarray(d["theta_kn"]),
                                 theta_kc=np.asarray(d["theta_kc"]),
                                 k_min=d["k_min"], k_max=d["k_max"])
        adam = AdamState(**dict(adam, m=np.asarray(adam["m"]), v=np.asarray(adam["v"])))
        return cls(epoch=d["epoch"], params=params, adam=adam,
                   rng_state=d["rng_state"], history=list(d["history"]))

    def check_fits(self, spec: LatticeSpec, cfg: TrainConfig,
                   source: str = "checkpoint") -> None:
        """DataFormatError unless every vector has the lattice's length;
        ConfigError unless the optimizer settings and the k bounds are cfg's."""
        n = spec.n_cells + spec.n_edges
        for name, vec, want in (("theta_kn", self.params.theta_kn, spec.n_cells),
                                ("theta_kc", self.params.theta_kc, spec.n_edges),
                                ("adam.m", self.adam.m, n), ("adam.v", self.adam.v, n)):
            if len(vec) != want:
                raise DataFormatError(f"{source}: checkpoint field {name!r} has length "
                                      f"{len(vec)}, the lattice needs {want}")
        for key, saved, want in (("lr", self.adam.lr, cfg.lr),
                                 ("beta1", self.adam.beta1, cfg.beta1),
                                 ("beta2", self.adam.beta2, cfg.beta2),
                                 ("adam_eps", self.adam.eps, cfg.adam_eps),
                                 ("k_min", self.params.k_min, cfg.k_min),
                                 ("k_max", self.params.k_max, cfg.k_max)):
            if saved != want:
                raise ConfigError(f"{source}: checkpoint has {key}={saved!r} but the "
                                  f"config asks for {key}={want!r}; resume with the "
                                  "checkpoint's value")


def _like(value, template) -> bool:
    """Whether value has template's JSON structure: the same keys, integers
    where it has integers, and its strings."""
    if isinstance(template, dict):
        return (isinstance(value, dict) and value.keys() == template.keys()
                and all(_like(value[k], t) for k, t in template.items()))
    if isinstance(template, str):
        return value == template
    return isinstance(value, int) and not isinstance(value, bool)


_CHECKPOINT_FIELDS = {
    "k_min": "float", "k_max": "float", "theta_kn": "tuple[float, ...]",
    "theta_kc": "tuple[float, ...]", "adam": "dict",
    "rng_state": ("a PCG64 state", lambda v: _like(v, np.random.PCG64().state)),
    "history": "list", "epoch": "int"}
_ADAM_FIELDS = {"m": "tuple[float, ...]", "v": "tuple[float, ...]", "t": "int",
                "lr": "float", "beta1": "float", "beta2": "float", "eps": "float"}
_HISTORY_FIELDS = {"epoch": "int", "loss": "float | nan", "train_acc": "float | nan",
                   "val_acc": "float | nan"}


@dataclass(frozen=True)
class TrainResult:
    params: TrainableParams
    mech: MechanicalParams
    history: tuple[dict, ...]
    stop_reason: str       # "epochs", "loss_floor", "diverged"
    checkpoints: tuple[Checkpoint, ...]
    # why a "diverged" run stopped: epoch, message, the NumericError's step,
    # and the sample as its index into the dataset split named by "split"
    # (step, sample and split are None where the error gives none)
    divergence: dict | None = None

    @property
    def aborted(self) -> bool:
        """Whether a divergence stopped the run."""
        return self.stop_reason == "diverged"


def _divergence(epoch: int, exc: NumericError, split: str,
                columns: np.ndarray | None) -> dict:
    """TrainResult.divergence for `exc`, raised on a batch of `split` whose
    column j is split sample columns[j] (the whole split in order if None)."""
    sample = exc.sample
    if sample is not None and columns is not None:
        sample = int(columns[sample])
    return {"epoch": epoch, "message": str(exc), "step": exc.step,
            "sample": sample, "split": None if sample is None else split}


def train(spec: LatticeSpec, dataset, cfg: TrainConfig,
          resume: Checkpoint | None = None,
          on_epoch=None) -> TrainResult:
    """Full training run; deterministic for a given seed.

    `dataset` is a signals.Dataset; the train split is optimized, the test
    split scored each epoch as val_acc.  A divergence aborts the run and the
    last completed epoch's checkpoint is returned, with the cause in
    `divergence`.  A resumed checkpoint must fit `spec` and carry cfg's
    optimizer settings and k bounds.  `on_epoch(checkpoint)` is
    called after every epoch (the CLI uses it to persist checkpoints).
    """
    train_samples = dataset.split("train")
    val_samples = dataset.split("test")
    if not train_samples:
        raise InvalidParameterError("dataset has no training split")
    dt = _sample_dt(train_samples)
    drive, labels = stack_batch(train_samples, dt)
    val = None
    if val_samples:
        val_dt = _sample_dt(val_samples)
        val = (val_dt,) + stack_batch(val_samples, val_dt)

    if resume is None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        centers = dataset.spec.centers_hz
        band = cfg.f0_band_hz
        if band is None:
            # Transparent-bulk start: non-output cells resonate above the class
            # band, so below their resonance they only mass-load the grid and
            # every class frequency propagates input -> outputs from epoch one.
            # The pinned output cells are then the only in-band resonant taps,
            # which seeds the frequency-routed (shorted-cell) readout basin.
            band = (1.35 * max(centers), 1.75 * max(centers))
        pins = None
        if cfg.init_output_centers and len(centers) == len(spec.outputs):
            pins = dict(zip(spec.outputs, centers))
        params = init_params(spec, cfg, band, rng, pinned_f0=pins)
        adam = AdamState.fresh(spec.n_cells + spec.n_edges, cfg.lr,
                               cfg.beta1, cfg.beta2, cfg.adam_eps)
        history: list[dict] = []
        start_epoch = 1
    else:
        resume.check_fits(spec, cfg)
        params = resume.params
        adam = resume.adam
        rng = np.random.default_rng()
        rng.bit_generator.state = resume.rng_state
        history = list(resume.history)
        start_epoch = resume.epoch + 1

    checkpoints: list[Checkpoint] = []
    stop_reason = "epochs"
    divergence = None
    n_train = len(train_samples)
    # every minibatch's large arrays, allocated once for the run
    work = make_workspace(spec, len(drive), min(cfg.batch_size, n_train))

    for epoch in range(start_epoch, cfg.epochs + 1):
        order = rng.permutation(n_train)
        # the split being run and, in a minibatch, the split index of each
        # batch column: what a NumericError's sample refers to
        split, idx = "train", None
        try:
            for lo in range(0, n_train, cfg.batch_size):
                idx = order[lo:lo + cfg.batch_size]
                _, _, grad, _ = loss_and_grad(spec, cfg, params, drive[:, idx],
                                              labels[idx], dt, work)
                vec, adam = adam_step(params.packed(), grad, adam)
                params = params.from_packed(vec).project()
            idx = None
            sys = _assemble_checked(spec, cfg, params, dt)
            train_eval = _evaluate_drive(sys, dt, drive, labels,
                                         cfg.prob_epsilon, work)
            if not math.isfinite(train_eval.loss):
                raise NumericError(f"training loss is {train_eval.loss}")
            split = "test"
            val_eval = (_evaluate_drive(sys, *val, cfg.prob_epsilon, work)
                        if val is not None else None)
        except NumericError as exc:
            # roll back to the last completed epoch, or to where the run began
            divergence = _divergence(epoch, exc, split, idx)
            stop_reason = "diverged"
            last = checkpoints[-1] if checkpoints else resume
            if last is not None:
                params, adam, history = last.params, last.adam, list(last.history)
            break
        history.append({
            "epoch": epoch,
            "loss": train_eval.loss,
            "train_acc": train_eval.accuracy,
            "val_acc": val_eval.accuracy if val_eval is not None else math.nan,
        })
        ckpt = Checkpoint(epoch=epoch, params=params, adam=adam,
                          rng_state=rng.bit_generator.state, history=list(history))
        checkpoints.append(ckpt)
        if on_epoch is not None:
            on_epoch(ckpt)
        if train_eval.loss < cfg.loss_floor:
            stop_reason = "loss_floor"
            break

    return TrainResult(params=params, mech=mech_from_params(spec, cfg, params),
                       history=tuple(history), stop_reason=stop_reason,
                       checkpoints=tuple(checkpoints),
                       divergence=divergence)


# --- export -------------------------------------------------------------------

@dataclass(frozen=True)
class ExportResult:
    scaling: ScalingFactor
    circuit: CircuitParams
    quantized: CircuitParams | None       # None when series is "none"
    report: QuantizationReport | None
    accuracy_exact: float | None
    accuracy_quantized: float | None


def export_trained(spec: LatticeSpec, mech: MechanicalParams,
                   r_target_ohm: float = 1e6, series: str = "E96",
                   heldout=None) -> ExportResult:
    """Convert trained mechanics to circuit values and quantize the resistors.

    series names the E-series (any case); "none" skips quantization.  When a
    held-out sample list is supplied, the exact and the quantized circuit are
    re-scored on it (the analogy scale itself cannot change predictions;
    quantization can, slightly).
    """
    scaling = choose_scaling(mech, r_target_ohm)
    circuit = mech_to_circuit(mech, scaling)
    quantized = report = acc_exact = acc_quant = None
    if series.lower() != "none":
        quantized, report = quantize_eseries(circuit, series.upper())
    if heldout:
        acc_exact = evaluate_system(simulator.assemble(spec, circuit), heldout).accuracy
        if quantized is not None:
            acc_quant = evaluate_system(simulator.assemble(spec, quantized),
                                        heldout).accuracy
    return ExportResult(scaling=scaling, circuit=circuit, quantized=quantized,
                        report=report, accuracy_exact=acc_exact,
                        accuracy_quantized=acc_quant)
