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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import simulator
from .errors import DataFormatError, InvalidParameterError, NumericError
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
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidParameterError("epochs and batch_size must be >= 1")
        if self.lr <= 0.0 or self.prob_epsilon < 0.0:
            raise InvalidParameterError("lr must be > 0 and prob_epsilon >= 0")
        if not 0.0 < self.k_min < self.k_max:
            raise InvalidParameterError("need 0 < k_min < k_max")


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


def _energies(u_out: np.ndarray, dt: float) -> np.ndarray:
    """(C, B) output energies from the (T, C, B) output history."""
    return np.sum(u_out * u_out, axis=0) * dt


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


def _grad_from_hist(sys: simulator.SystemMatrices, dt: float, hist: np.ndarray,
                    dl_de: np.ndarray) -> np.ndarray:
    """Adjoint sweep; returns dL/dY (dense, n_dof x n_dof)."""
    if sys.damping != 0.0:
        raise InvalidParameterError("gradients are defined for undamped systems only")
    t_len, n, batch = hist.shape
    a = dt * dt * (sys.stiffness / sys.inertia[:, None])
    a_t = a.T.copy()
    out = np.asarray(sys.output_dofs, dtype=int)
    # dL/du[s] at the output DOFs, for every step at once
    src = dl_de * ((2.0 * dt) * hist[:, out, :])
    # lambda[s] = src[s] + 2 lambda[s+1] - A^T lambda[s+1] - lambda[s+2],
    # with lambda[T] = lambda[T+1] = 0 as two extra rows kept outside lam: lam
    # has hist's size, and a two-row-larger block raised the training run's
    # peak RSS by up to ~47 MB through the allocator's block reuse
    lam = np.empty_like(hist)
    zero = np.zeros((n, batch))
    rows = list(lam) + [zero, zero]
    a_lam = np.empty((n, batch))
    for s in range(t_len - 1, -1, -1):
        cur, lam_1 = rows[s], rows[s + 1]
        np.multiply(lam_1, 2.0, out=cur)
        cur[out] += src[s]
        np.matmul(a_t, lam_1, out=a_lam)
        cur -= a_lam
        cur -= rows[s + 2]
    # dL/dA = -sum_t lambda[t+1] u[t]^T ; chain A = dt^2 D^-1 Y row-wise
    lam_flat = lam[1:].transpose(1, 0, 2).reshape(n, -1)
    u_flat = hist[:-1].transpose(1, 0, 2).reshape(n, -1)
    g_a = -(lam_flat @ u_flat.T)
    return (dt * dt / sys.inertia)[:, None] * g_a


def _project_grad(sys: simulator.SystemMatrices, g_y: np.ndarray) -> np.ndarray:
    """Contract dL/dY onto the elements, in packed (cells, then edges) order."""
    n = sys.n_dof
    g = np.zeros((n + 1, n + 1))   # the ground row and column stay zero
    g[:n, :n] = g_y
    p, q = sys.branches.T
    return g[p, p] + g[q, q] - g[p, q] - g[q, p]


def loss_and_grad(spec: LatticeSpec, cfg: TrainConfig, params: TrainableParams,
                  drive: np.ndarray, labels: np.ndarray,
                  dt: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(loss, probs, grad on packed theta, energies) for one labeled batch."""
    sys = _assemble_checked(spec, cfg, params, dt)
    hist = simulator.leapfrog(sys, dt, drive)
    energies = _energies(hist[:, list(sys.output_dofs), :], dt)
    probs, loss, dl_de = _probs_and_loss(energies, labels, cfg.prob_epsilon)
    g_y = _grad_from_hist(sys, dt, hist, dl_de)
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
    """Run labeled samples through an assembled system (either domain)."""
    dt = 1.0 / samples[0].signal.rate_hz
    dt_max = simulator.max_stable_dt(sys)
    if dt > dt_max:
        raise NumericError(f"dt={dt} exceeds the stability limit {dt_max:.3e}")
    drive, labels = stack_batch(samples, dt)
    # only the outputs are kept: the full (T, n, B) history is not needed here
    u_out = simulator.leapfrog(sys, dt, drive, dofs=np.asarray(sys.output_dofs))
    energies = _energies(u_out, dt)
    probs, loss, _ = _probs_and_loss(energies, labels, prob_epsilon)
    preds = np.argmax(energies, axis=0)
    accuracy = float(np.mean(preds == labels))
    return EvalResult(accuracy=accuracy, loss=loss, predictions=preds,
                      probs=probs, energies=energies)


def evaluate(spec: LatticeSpec, cfg: TrainConfig, params: TrainableParams,
             samples) -> EvalResult:
    dt = 1.0 / samples[0].signal.rate_hz
    return evaluate_system(_assemble_checked(spec, cfg, params, dt), samples,
                           cfg.prob_epsilon)


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
        """Parse `to_json_dict` output; a missing or ill-typed field is a
        DataFormatError naming `source` and the key."""
        def field(doc, key, kind, name=None):
            name = name or key
            if key not in doc:
                raise DataFormatError(f"{source}: checkpoint has no {name!r}")
            value = doc[key]
            if not _CHECKPOINT_KINDS[kind](value):
                raise DataFormatError(f"{source}: checkpoint field {name!r} must be "
                                      f"{kind}, got {value!r:.60}")
            return value

        if not isinstance(d, dict):
            raise DataFormatError(f"{source}: checkpoint must be a JSON object")
        k_min, k_max = field(d, "k_min", "a number"), field(d, "k_max", "a number")
        if not 0.0 < k_min < k_max:
            raise DataFormatError(f"{source}: checkpoint needs 0 < k_min < k_max")
        params = TrainableParams(theta_kn=np.asarray(field(d, "theta_kn", "a vector")),
                                 theta_kc=np.asarray(field(d, "theta_kc", "a vector")),
                                 k_min=k_min, k_max=k_max)
        a = field(d, "adam", "an object")

        def adam_field(key, kind):
            return field(a, key, kind, "adam." + key)

        adam = AdamState(m=np.asarray(adam_field("m", "a vector")),
                         v=np.asarray(adam_field("v", "a vector")),
                         t=adam_field("t", "an integer"), lr=adam_field("lr", "a number"),
                         beta1=adam_field("beta1", "a number"),
                         beta2=adam_field("beta2", "a number"),
                         eps=adam_field("eps", "a number"))
        rng_state = field(d, "rng_state", "an object")
        try:
            np.random.PCG64().state = rng_state
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{source}: checkpoint field 'rng_state' is not a "
                                  f"generator state: {exc}") from exc
        history = field(d, "history", "a list")
        for i, h in enumerate(history):
            if not isinstance(h, dict):
                raise DataFormatError(f"{source}: checkpoint history[{i}] must be an object")
            field(h, "epoch", "an integer", f"history[{i}].epoch")
            for key in ("loss", "train_acc", "val_acc"):
                field(h, key, "a number or NaN", f"history[{i}].{key}")
        return cls(epoch=field(d, "epoch", "an integer"), params=params, adam=adam,
                   rng_state=rng_state, history=list(history))

    def check_fits(self, spec: LatticeSpec, source: str = "checkpoint") -> None:
        """DataFormatError unless every vector has the lattice's length."""
        n = spec.n_cells + spec.n_edges
        for name, vec, want in (("theta_kn", self.params.theta_kn, spec.n_cells),
                                ("theta_kc", self.params.theta_kc, spec.n_edges),
                                ("adam.m", self.adam.m, n), ("adam.v", self.adam.v, n)):
            if len(vec) != want:
                raise DataFormatError(f"{source}: checkpoint field {name!r} has length "
                                      f"{len(vec)}, the lattice needs {want}")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_CHECKPOINT_KINDS = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: _is_number(v) and math.isfinite(v),
    "a number or NaN": _is_number,
    "a vector": lambda v: isinstance(v, list) and all(
        _is_number(x) and math.isfinite(x) for x in v),
    "an object": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
}


@dataclass(frozen=True)
class TrainResult:
    params: TrainableParams
    mech: MechanicalParams
    history: tuple[dict, ...]
    stop_reason: str       # "epochs", "loss_floor", "diverged"
    aborted: bool
    checkpoints: tuple[Checkpoint, ...]
    # why a "diverged" run stopped: epoch, message, and the NumericError's
    # step and batch sample (None where the error gives none)
    divergence: dict | None = None


def train(spec: LatticeSpec, dataset, cfg: TrainConfig,
          resume: Checkpoint | None = None,
          on_epoch=None) -> TrainResult:
    """Full training run; deterministic for a given seed.

    `dataset` is a signals.Dataset; the train split is optimized, the test
    split scored each epoch as val_acc.  A divergence aborts the run and the
    last completed epoch's checkpoint is returned, with the cause in
    `divergence`.  A resumed checkpoint must fit `spec`.  `on_epoch(checkpoint)` is
    called after every epoch (the CLI uses it to persist checkpoints).
    """
    train_samples = dataset.split("train")
    val_samples = dataset.split("test")
    if not train_samples:
        raise InvalidParameterError("dataset has no training split")
    dt = 1.0 / train_samples[0].signal.rate_hz
    drive, labels = stack_batch(train_samples, dt)

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
        resume.check_fits(spec)
        params = resume.params
        adam = resume.adam
        rng = np.random.default_rng()
        rng.bit_generator.state = resume.rng_state
        history = list(resume.history)
        start_epoch = resume.epoch + 1

    checkpoints: list[Checkpoint] = []
    stop_reason = "epochs"
    aborted = False
    divergence = None
    n_train = len(train_samples)

    for epoch in range(start_epoch, cfg.epochs + 1):
        order = rng.permutation(n_train)
        try:
            for lo in range(0, n_train, cfg.batch_size):
                idx = order[lo:lo + cfg.batch_size]
                _, _, grad, _ = loss_and_grad(spec, cfg, params,
                                              drive[:, idx], labels[idx], dt)
                vec, adam = adam_step(params.packed(), grad, adam)
                params = params.from_packed(vec).project()
            train_eval = evaluate(spec, cfg, params, train_samples)
            val_eval = evaluate(spec, cfg, params, val_samples) if val_samples else None
        except NumericError as exc:
            divergence = {"epoch": epoch, "message": str(exc),
                          "step": exc.step, "sample": exc.sample}
            stop_reason = "diverged"
            aborted = True
            if checkpoints:
                last = checkpoints[-1]
                params, adam, history = last.params, last.adam, list(last.history)
            elif resume is not None:
                params, adam = resume.params, resume.adam
            break
        if not math.isfinite(train_eval.loss):
            divergence = {"epoch": epoch, "message": f"training loss is {train_eval.loss}",
                          "step": None, "sample": None}
            stop_reason = "diverged"
            aborted = True
            if checkpoints:
                last = checkpoints[-1]
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
                       aborted=aborted, checkpoints=tuple(checkpoints),
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
                   heldout=None, prob_epsilon: float = 1e-12) -> ExportResult:
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
        acc_exact = evaluate_system(simulator.assemble(spec, circuit), heldout,
                                    prob_epsilon).accuracy
        if quantized is not None:
            acc_quant = evaluate_system(simulator.assemble(spec, quantized),
                                        heldout, prob_epsilon).accuracy
    return ExportResult(scaling=scaling, circuit=circuit, quantized=quantized,
                        report=report, accuracy_exact=acc_exact,
                        accuracy_quantized=acc_quant)
