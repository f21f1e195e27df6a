"""Test-signal generation, dataset handling and virtual measurement.

Classification stimuli are Gaussian-modulated tone bursts

    s(t) = A * exp(-(t - t_c)^2 / (2 sigma^2)) * cos(2 pi f_c (t - t_c) + phi)

optionally buried in white noise at a prescribed SNR.  Datasets are generated
per-sample from seeds derived as (seed, class, index), so generation order
(and any parallelism) cannot change the data.

For frequency characterization a linear chirp is injected through a fixed
transconductance and the response analyzed frame by frame: the amplitude
ridge along the sweep's frequency-time trajectory, ratioed against the input
ridge, is the magnitude transfer of the network.  Only the ridge bin of each
frame is computed (one windowed DFT bin); ``stft`` gives the full
spectrogram the ridge runs through.  Residual ringing of the
undamped resonances the sweep has already crossed sits in stationary STFT
bins away from the moving ridge, which is what makes this measurement usable
on a lossless model.  The measurement processes the chirp as it would
arrive, one chunk at a time, so its memory does not grow with the sweep.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (DataFormatError, InvalidParameterError, check_fields,
                     is_json_number, read_json, read_text, refuse_overwrite,
                     write_json)

DEFAULT_G_M = 1e-6  # transconductance (S) used for swept-sine injection
MAX_SAMPLES = 1 << 28   # longest generated signal: 2 GiB of float64, ~170x the 1-100 Hz sweep

SWEEP_PRESETS = {
    "1-100": (1.0, 100.0),
    "50-250": (50.0, 250.0),
    "1-120": (1.0, 120.0),
}


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled waveform with a unit tag ("V" or "A").

    ``values`` is stored as a read-only 1-D float64 array of finite samples.
    It is a copy of what the caller passed, unless that is already a 1-D
    float64 ndarray that is read-only and owns its data: such an array is
    kept without a copy, and the caller must not write to it through a view
    made before it was marked read-only.
    """

    rate_hz: float
    values: np.ndarray
    unit: str = "V"

    def __post_init__(self):
        if not math.isfinite(self.rate_hz) or self.rate_hz <= 0.0:
            raise InvalidParameterError(f"rate_hz must be finite and > 0, got {self.rate_hz}")
        arr = self.values
        if not (type(arr) is np.ndarray and not arr.flags.writeable and arr.flags.owndata
                and arr.dtype == np.float64 and arr.ndim == 1):
            arr = np.asarray(arr, dtype=float).copy()
        if arr.ndim != 1:
            raise InvalidParameterError("signal values must be 1-D")
        # min and max, not isfinite: no sample-sized temporary; NaN fails both
        if len(arr) and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            bad = int(np.argmin(np.isfinite(arr)))
            raise InvalidParameterError(
                f"signal value {bad} is {arr[bad]}; samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def duration_s(self) -> float:
        return len(self.values) / self.rate_hz


def gen_pulse(rate_hz: float, duration_s: float, center_hz: float,
              sigma_s: float, amplitude: float = 1.0,
              t_center: float | None = None, phase: float = 0.0) -> Signal:
    """Gaussian-windowed tone burst; peaks at amplitude*cos(phase) at t_center."""
    if center_hz <= 0.0 or center_hz >= rate_hz / 2.0:
        raise InvalidParameterError(
            f"center_hz={center_hz} must lie in (0, rate/2={rate_hz / 2})")
    if sigma_s <= 0.0 or duration_s <= 0.0:
        raise InvalidParameterError("sigma_s and duration_s must be > 0")
    t = np.arange(_sample_count(duration_s, rate_hz)) / rate_hz
    tc = duration_s / 2.0 if t_center is None else t_center
    envelope = amplitude * np.exp(-((t - tc) ** 2) / (2.0 * sigma_s ** 2))
    return Signal(rate_hz, envelope * np.cos(2.0 * np.pi * center_hz * (t - tc) + phase))


def _sample_count(duration_s: float, rate_hz: float) -> int:
    """The samples in duration_s at rate_hz, refused with InvalidParameterError
    before anything is allocated when not finite or past MAX_SAMPLES."""
    count = duration_s * rate_hz
    if not count <= MAX_SAMPLES:   # NaN fails too
        raise InvalidParameterError(
            f"{duration_s} s at {rate_hz} Hz is {count:.3g} samples; "
            f"a generated signal holds at most {MAX_SAMPLES}")
    return int(round(count))


def add_noise(sig: Signal, snr_db: float | None, rng) -> Signal:
    """Add white Gaussian noise at the given SNR; None or +inf returns sig unchanged."""
    if snr_db is None or snr_db == math.inf:
        return sig
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    power = float(np.mean(sig.values ** 2))
    if power == 0.0:
        raise InvalidParameterError("cannot set an SNR on an all-zero signal")
    noise_power = power / (10.0 ** (snr_db / 10.0))
    noise = rng.normal(0.0, math.sqrt(noise_power), size=len(sig.values))
    return Signal(sig.rate_hz, sig.values + noise, sig.unit)


# --- datasets ----------------------------------------------------------------

@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for a labeled pulse dataset; one class per center frequency."""

    centers_hz: tuple[float, ...] = (30.0, 50.0, 70.0)
    rate_hz: float = 2000.0
    duration_s: float = 1.0
    sigma_s: float = 0.1
    amplitude: float = 1.0
    jitter_s: float = 0.1          # +/- uniform jitter of the burst center
    snr_db: float | None = 20.0
    train_per_class: int = 100
    test_per_class: int = 20
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "centers_hz", tuple(float(c) for c in self.centers_hz))
        if len(self.centers_hz) < 2:
            raise InvalidParameterError("need at least two classes")
        for c in self.centers_hz:
            if c <= 0.0 or c >= self.rate_hz / 2.0:
                raise InvalidParameterError(f"class center {c} Hz outside (0, rate/2)")
        if self.train_per_class < 1 or self.test_per_class < 0:
            raise InvalidParameterError("sample counts must be positive")
        if self.seed < 0:
            raise InvalidParameterError("seed must be >= 0")
        if self.jitter_s < 0.0 or self.jitter_s >= self.duration_s / 2.0:
            raise InvalidParameterError("jitter must be >= 0 and below half the duration")

    @property
    def n_classes(self) -> int:
        return len(self.centers_hz)


@dataclass(frozen=True)
class Sample:
    signal: Signal
    label: int
    split: str        # "train" or "test"
    class_index: int  # per-class running index (train and test share the counter)
    source: Path | None = None   # CSV file the sample was loaded from


@dataclass(frozen=True)
class Dataset:
    spec: DatasetSpec
    samples: tuple[Sample, ...]

    def split(self, which: str) -> tuple[Sample, ...]:
        return tuple(s for s in self.samples if s.split == which)


def _make_sample(dspec: DatasetSpec, label: int, index: int, split: str) -> Sample:
    # Seed derives from (seed, class, index): order- and parallelism-independent.
    rng = np.random.default_rng(np.random.SeedSequence((dspec.seed, label, index)))
    tc = dspec.duration_s / 2.0 + rng.uniform(-dspec.jitter_s, dspec.jitter_s)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    sig = gen_pulse(dspec.rate_hz, dspec.duration_s, dspec.centers_hz[label],
                    dspec.sigma_s, dspec.amplitude, t_center=tc, phase=phase)
    return Sample(add_noise(sig, dspec.snr_db, rng), label, split, index)


def gen_dataset(dspec: DatasetSpec) -> Dataset:
    """Deterministic labeled dataset with disjoint train/test indices per class."""
    samples = []
    for label in range(dspec.n_classes):
        for j in range(dspec.train_per_class):
            samples.append(_make_sample(dspec, label, j, "train"))
        for j in range(dspec.test_per_class):
            samples.append(_make_sample(dspec, label, dspec.train_per_class + j, "test"))
    return Dataset(dspec, tuple(samples))


def save_dataset(ds: Dataset, out_dir, force: bool = False) -> Path:
    """Write one bare-values CSV per sample plus manifest.json; returns manifest path.

    Checks every target first and raises ConfigError, writing nothing, if
    one exists and force is not set.
    """
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    names = [f"class{s.label}_{s.split}_{s.class_index:04d}.csv" for s in ds.samples]
    refuse_overwrite([out / name for name in names] + [manifest_path], force)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for s, name in zip(ds.samples, names):
        with open(out / name, "w") as fh:
            fh.writelines(f"{float(v)!r}\n" for v in s.signal.values)
        entries.append({"path": name, "label": s.label, "split": s.split})
    manifest = {
        "rate": ds.spec.rate_hz,
        "classes": list(ds.spec.centers_hz),
        "samples": entries,
    }
    return write_json(manifest_path, manifest, force)


_MANIFEST_FIELDS = {"rate": ("a finite number > 0", lambda v: is_json_number(v) and v > 0.0),
                    "classes": "tuple[float, ...]", "samples": "list"}
_ENTRY_FIELDS = {"path": "str", "label": "int", "split": "str"}


def load_dataset(manifest_path) -> Dataset:
    """Rehydrate a dataset written by save_dataset.

    Every signal must have the first one's length.  The spec's per-class
    counts are those of the largest class in each split (train at least 1).
    """
    path = Path(manifest_path)
    manifest = check_fields(read_json(path), _MANIFEST_FIELDS, path)
    rate = float(manifest["rate"])
    centers = tuple(float(c) for c in manifest["classes"])
    counters: dict[tuple[int, str], int] = {}
    samples = []
    for i, e in enumerate(manifest["samples"]):
        check_fields(e, _ENTRY_FIELDS, f"{path}: sample entry {i}")
        name, label, split = e["path"], e["label"], e["split"]
        if not 0 <= label < len(centers):
            raise DataFormatError(f"{path}: sample entry {i} ({name}) has label "
                                  f"{label}, outside 0..{len(centers) - 1}")
        if split not in ("train", "test"):
            raise DataFormatError(f"{path}: sample entry {i} ({name}) has split "
                                  f"{split!r}, expected 'train' or 'test'")
        source = path.parent / name
        sig = load_csv(source, rate=rate)
        if samples and len(sig.values) != len(samples[0].signal.values):
            raise DataFormatError(f"{path}: sample entry {i} ({name}) holds "
                                  f"{len(sig.values)} samples, entry 0 holds "
                                  f"{len(samples[0].signal.values)}")
        idx = counters.get((label, split), 0)
        counters[(label, split)] = idx + 1
        samples.append(Sample(sig, label, split, idx, source))
    if not samples:
        raise DataFormatError(f"{path}: manifest lists no samples")

    def largest_class(split):
        return max(counters.get((c, split), 0) for c in range(len(centers)))

    spec = DatasetSpec(centers_hz=centers, rate_hz=rate,
                       duration_s=samples[0].signal.duration_s,
                       jitter_s=0.0, snr_db=None,
                       train_per_class=max(1, largest_class("train")),
                       test_per_class=largest_class("test"))
    return Dataset(spec, tuple(samples))


def load_csv(path, rate: float | None = None) -> Signal:
    """Read a waveform CSV: either (t, v) rows or bare values plus a rate.

    Two-column files must be uniformly sampled (1e-6 relative); non-numeric
    and non-finite rows are rejected with their line number.  The file is
    parsed in one ``np.loadtxt`` call; when that fails, or its result is
    empty, has the wrong width or holds a non-finite value, the row parser
    reads the file instead: it reports the offending line, and accepts what
    loadtxt is stricter about (whitespace-only lines, quoted fields, ...).
    """
    arr = None
    text = read_text(path)
    # loadtxt strips the separators \x1c-\x1f around a number, which
    # float(), and so the row parser, rejects
    if not any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")   # an empty file warns
                arr = np.loadtxt(io.StringIO(text), delimiter=",", comments=None,
                                 ndmin=2, dtype=float)
        except ValueError:   # not numbers: the row parser says which row
            pass
    if arr is None or not len(arr) or arr.shape[1] > 2 or not np.isfinite(arr).all():
        arr = _parse_rows(path)
    if arr.shape[1] == 1:
        if rate is None:
            raise DataFormatError(f"{path}: single-column file needs an explicit rate")
        return Signal(rate, arr[:, 0])
    t, v = arr[:, 0], arr[:, 1]
    if len(t) < 2:
        raise DataFormatError(f"{path}: need at least two samples to infer the rate")
    dt = np.diff(t)
    dt0 = float(np.median(dt))
    if dt0 <= 0.0 or np.any(np.abs(dt - dt0) > 1e-6 * dt0):
        raise DataFormatError(f"{path}: time column is not uniformly spaced")
    inferred = 1.0 / dt0
    if rate is not None and abs(rate - inferred) > 1e-6 * inferred:
        raise DataFormatError(f"{path}: rate {rate} contradicts time column ({inferred:.6g})")
    return Signal(inferred, v)


def _parse_rows(path) -> np.ndarray:
    """load_csv's row-by-row parser: a finite (rows, 1 or 2) array, or the
    DataFormatError naming the first offending line."""
    rows = []
    linenos = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            linenos.append(lineno)
            try:
                rows.append([float(x) for x in row])
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-numeric row {row!r}") from None
            if len(rows[-1]) not in (1, 2):
                raise DataFormatError(f"{path}:{lineno}: expected 1 or 2 columns, got {len(row)}")
            if len(rows[-1]) != len(rows[0]):
                raise DataFormatError(f"{path}:{lineno}: inconsistent column count")
    if not rows:
        raise DataFormatError(f"{path}: no samples")
    arr = np.asarray(rows, dtype=float)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise DataFormatError(f"{path}:{linenos[bad]}: non-finite value in row {rows[bad]!r}")
    return arr


# --- sweeps and spectrograms --------------------------------------------------

_SWEEP_PIECE = 1 << 15   # gen_sweep's samples per piece: two 256 kB arrays, in L2


def _check_finite(**params: float) -> None:
    """Raise InvalidParameterError naming the first parameter that is not a
    finite number."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value}")


def gen_sweep(f_start_hz: float, f_end_hz: float, duration_s: float,
              rate_hz: float, amplitude: float = 1.0) -> Signal:
    """Linear chirp; instantaneous frequency runs start -> end.

    Equal endpoints degenerate to a pure tone.  Warns when the sweep is fast
    enough to move more than 1 Hz per 10 periods at its slowest point (ridge
    extraction degrades on such sweeps).
    """
    _check_finite(amplitude=amplitude, f_start_hz=f_start_hz, f_end_hz=f_end_hz,
                  duration_s=duration_s, rate_hz=rate_hz)
    if f_start_hz < 0.0 or f_end_hz < f_start_hz:
        raise InvalidParameterError("need 0 <= f_start <= f_end")
    if f_start_hz == 0.0 and f_end_hz == 0.0:
        raise InvalidParameterError("need f_end > 0")
    if f_end_hz >= rate_hz / 2.0:
        raise InvalidParameterError(f"f_end={f_end_hz} must stay below rate/2={rate_hz / 2}")
    if duration_s <= 0.0:
        raise InvalidParameterError("duration must be > 0")
    sweep_rate = (f_end_hz - f_start_hz) / duration_s
    f_slow = max(f_start_hz, 1e-9)
    if sweep_rate * 10.0 / f_slow > 1.0:
        warnings.warn(
            f"sweep moves {sweep_rate * 10.0 / f_slow:.2f} Hz per 10 periods at "
            f"{f_slow} Hz; consider a longer sweep", stacklevel=2)
    values = _chirp_into(np.empty(_sample_count(duration_s, rate_hz)), 0, f_start_hz,
                         sweep_rate, rate_hz, amplitude)
    values.setflags(write=False)   # fresh and owned: Signal keeps it uncopied
    return Signal(rate_hz, values)


def _chirp_into(out: np.ndarray, i0: int, f_start_hz: float, sweep_rate: float,
                rate_hz: float, amplitude: float) -> np.ndarray:
    """Fill `out` with the chirp's samples i0 .. i0 + len(out) - 1 and return
    it: amplitude sin(2 pi (((0.5 sweep_rate) t) t + f_start t)) at t =
    i / rate_hz, evaluated in place in that order, _SWEEP_PIECE samples at a
    time so that each piece's passes run in cache.  Each sample's arithmetic
    depends on its index alone, so any split of a chirp gives its bits."""
    counts = np.arange(min(_SWEEP_PIECE, len(out)), dtype=float)
    t = np.empty_like(counts)
    for j0 in range(0, len(out), _SWEEP_PIECE):
        phase = out[j0:j0 + _SWEEP_PIECE]
        tj = t[:len(phase)]
        np.add(counts[:len(phase)], i0 + j0, out=tj)
        tj /= rate_hz
        np.multiply(0.5 * sweep_rate, tj, out=phase)
        phase *= tj
        tj *= f_start_hz
        phase += tj
        phase *= 2.0 * np.pi
        np.sin(phase, out=phase)
        phase *= amplitude
    return out


@dataclass(frozen=True)
class Spectrogram:
    """Windowed magnitude STFT on full frames only."""

    mags: np.ndarray       # (n_frames, n_bins)
    freqs_hz: np.ndarray   # (n_bins,)
    times_s: np.ndarray    # (n_frames,) frame centers
    window_s: float
    hop_s: float


# Periodic analysis windows.  "hann" is the general-purpose default; "nuttall"
# (minimum 4-term Blackman-Harris) trades a 2x wider main lobe for ~-98 dB
# sidelobes, which high-dynamic-range ridge measurements on lossless (hence
# forever-ringing) systems need.
_WINDOWS = {
    "hann": (0.5, 0.5, 0.0, 0.0),
    "nuttall": (0.3635819, 0.4891775, 0.1365995, 0.0106411),
}


def _window_values(kind: str, n: int) -> np.ndarray:
    try:
        a0, a1, a2, a3 = _WINDOWS[kind]
    except KeyError:
        raise InvalidParameterError(
            f"unknown window {kind!r}; expected one of {sorted(_WINDOWS)}") from None
    k = 2.0 * np.pi * np.arange(n) / n
    return a0 - a1 * np.cos(k) + a2 * np.cos(2.0 * k) - a3 * np.cos(3.0 * k)


def _frame_grid(samples: int, rate_hz: float, window_s: float, hop_s: float | None):
    """stft's frame layout over `samples` samples at rate_hz: (n_win, n_hop,
    starts, times_s, freqs_hz), with starts the first sample of every full
    frame and times_s their centres."""
    n_win = int(round(window_s * rate_hz))
    if n_win < 4 or n_win > samples:
        raise InvalidParameterError(
            f"window of {n_win} samples invalid for a {samples}-sample signal")
    hop_s = window_s / 2.0 if hop_s is None else hop_s
    n_hop = int(round(hop_s * rate_hz))
    if n_hop < 1:
        raise InvalidParameterError("hop must cover at least one sample")
    starts = np.arange(0, samples - n_win + 1, n_hop)
    times = (starts + n_win / 2.0) / rate_hz
    freqs = np.fft.rfftfreq(n_win, d=1.0 / rate_hz)
    return n_win, n_hop, starts, times, freqs


def stft(sig: Signal, window_s: float, hop_s: float | None = None,
         window: str = "hann") -> Spectrogram:
    """Magnitude spectrogram; periodic Hann window and 50% hop by default."""
    n_win, n_hop, starts, times, freqs = _frame_grid(len(sig.values), sig.rate_hz,
                                                     window_s, hop_s)
    window = _window_values(window, n_win)
    frames = np.lib.stride_tricks.sliding_window_view(sig.values, n_win)[starts]
    mags = np.abs(np.fft.rfft(frames * window, axis=1))
    return Spectrogram(mags=mags, freqs_hz=freqs, times_s=times,
                       window_s=n_win / sig.rate_hz, hop_s=n_hop / sig.rate_hz)


_REANCHOR = 64   # _ridge_mags sets its twiddle exactly at every 64th frame


def _ridge_mags(window: np.ndarray, starts: np.ndarray, bins: np.ndarray,
                pieces) -> list[np.ndarray]:
    """|DFT| of windowed frames at one bin per frame, read from `pieces` as
    they arrive: (t0, *columns) tuples, each column array holding rows t0 ..
    of one signal (time along axis 0), and a piece at t0 = 0 starting the
    signals, or starting them over.  Returns one array per column array c,
    whose row j is |rfft(window * c[s:s+N])[k]| for the j-th (s, k) of
    zip(starts, bins), starts ascending, as stft's mags would read it.

    A frame is read as soon as the samples held cover it: from the piece
    itself, or, when it starts before the piece, from the samples kept from
    the last piece (fewer than N, from its first unread frame's start on)
    joined to the piece's first N.  So at most 2N samples are held besides
    the piece, and no piece is copied whole.

    One windowed twiddle w[m] e^(-2 pi i k m / N) is kept: set from the exact
    integer (k m) mod N at every _REANCHOR-th frame from the first, and in
    between rotated to the next bin by the exact step phasor of k - k_prev,
    made once per step.  Each frame is one real GEMM of the column with the
    twiddle's (N, 2) float view: no frame matrix or spectrum is built.
    """
    n = len(window)
    m = np.arange(n)
    unit = np.exp((-2j * np.pi / n) * m)   # e^(-2 pi i k m / N) is unit[(k m) % N]
    steps = {}
    twiddle = np.empty(n, dtype=complex)
    pair = twiddle.view(float).reshape(n, 2)   # its (re, im) columns
    for t0, *columns in pieces:
        if t0 == 0:   # the first piece, or a restart: every frame is read afresh
            j, joined = 0, None
            out = [np.empty((len(starts),) + c.shape[1:]) for c in columns]
        else:   # the kept samples, from `first` on, joined to the piece's head
            joined = [np.concatenate([h, c[:n]]) for h, c in zip(kept, columns)]
        end = t0 + len(columns[0])
        while j < len(starts) and starts[j] + n <= end:
            k = bins[j]
            if j % _REANCHOR:
                if k - k_prev not in steps:
                    steps[k - k_prev] = unit[((k - k_prev) * m) % n]
                twiddle *= steps[k - k_prev]
            else:
                np.multiply(unit[(k * m) % n], window, out=twiddle)
            k_prev = k
            held, s = (columns, starts[j] - t0) if starts[j] >= t0 else (joined, starts[j] - first)
            for c, mags in zip(held, out):
                re_im = c[s:s + n].T @ pair
                mags[j] = np.hypot(re_im[..., 0], re_im[..., 1])
            j += 1
        # a piece is scratch its source may overwrite: keep a copy of its tail
        keep = min(starts[j], end) if j < len(starts) else end
        kept = ([c[keep - t0:].copy() for c in columns] if keep >= t0
                else [c[keep - first:] for c in joined])
        first = keep
    return out


@dataclass(frozen=True)
class MeasuredTransfer:
    """Swept-sine measurement result: |H| per output over the ridge grid."""

    freqs_hz: np.ndarray   # (n_points,) ascending
    h: np.ndarray          # (n_outputs, n_points) magnitude in V/A
    g_m: float
    sweep_rate_hz_per_s: float
    window_s: float


def measure_transfer(sys, f_start_hz: float, f_end_hz: float,
                     rate_hz: float = 4000.0,
                     sweep_rate_hz_per_s: float = 0.25,
                     g_m: float = DEFAULT_G_M,
                     window_s: float = 4.0,
                     window: str = "nuttall",
                     amplitude: float = 1.0) -> MeasuredTransfer:
    """Virtual swept-sine measurement of the lattice transmission.

    A linear chirp voltage is injected as current through transconductance
    g_m; the drive current's and the output's spectra are read along the
    chirp's frequency-time ridge and their ratio is |H| in V/A.  Each analysis
    frame is read at one DFT bin only, the ridge bin: the frames, bins and
    ``freqs_hz`` are those of ``stft``'s spectrograms, and |H| agrees with
    reading those spectrograms to about 1e-11 relative.
    The drive level cancels out of that ratio, so ``amplitude`` only matters
    for numerical headroom.
    The chirp is padded by one window length on both sides so every reported
    frequency comes from a full analysis window.  It holds one chunk and one
    window of samples, however long the sweep: each chunk of the drive is
    made, run through the lattice and read at every frame it completes.

    Two instrument defaults differ from the rest of the package and both
    exist to keep this virtual measurement faithful to the continuous-time
    transfer function:

    * ``window="nuttall"`` instead of stft's Hann: the lossless lattice keeps
      ringing at every eigenfrequency the chirp has crossed, and reading
      transmission troughs far below those rings needs sidelobe rejection
      (-98 dB) that Hann (-31 dB first sidelobe) cannot give.
    * ``rate_hz=4000.0`` instead of the 2 kHz dataset rate: leapfrog
      stepping warps each resonance to (2/dt)*asin(omega*dt/2), a relative
      pole shift of about (omega*dt)^2/24.  At 2 kHz an 80 Hz pole moves
      ~0.2 Hz, which biases |H| by ~10% two guard-bands away; at 4 kHz the
      shift drops 4x and the bias stays well inside a 5% tolerance.
    """
    from . import simulator  # local import; simulator does not import back at runtime

    _check_finite(f_start_hz=f_start_hz, f_end_hz=f_end_hz, rate_hz=rate_hz,
                  sweep_rate_hz_per_s=sweep_rate_hz_per_s, g_m=g_m,
                  window_s=window_s, amplitude=amplitude)
    if g_m <= 0.0:
        raise InvalidParameterError("g_m must be finite and > 0")
    if sweep_rate_hz_per_s <= 0.0:
        raise InvalidParameterError("sweep rate must be > 0")
    if f_end_hz <= f_start_hz:
        raise InvalidParameterError("need f_start < f_end")
    if amplitude <= 0.0:
        raise InvalidParameterError("amplitude must be finite and > 0")
    if not math.isfinite(amplitude * g_m):
        raise InvalidParameterError(
            f"the drive current amplitude * g_m overflows: amplitude={amplitude:g}, g_m={g_m:g}")

    pad_hz = sweep_rate_hz_per_s * window_s
    f_lo = max(f_start_hz - pad_hz, 0.0)
    f_hi = f_end_hz + pad_hz
    duration = (f_hi - f_lo) / sweep_rate_hz_per_s
    if not duration * rate_hz <= MAX_SAMPLES:
        raise InvalidParameterError(
            f"the {f_start_hz:g}-{f_end_hz:g} Hz sweep at {sweep_rate_hz_per_s:g} Hz/s, "
            f"padded by one {window_s:g} s window on each side, lasts {duration:.6g} s: "
            f"{duration * rate_hz:.3g} samples at {rate_hz:g} Hz, and a generated "
            f"signal holds at most {MAX_SAMPLES}")
    samples = int(round(duration * rate_hz))
    n_win, n_hop, starts, times, freqs = _frame_grid(samples, rate_hz, window_s, None)
    if f_hi >= rate_hz / 2.0:
        raise InvalidParameterError(
            f"f_end={f_end_hz:g} Hz plus the {pad_hz:g} Hz the sweep is padded by "
            f"(sweep rate {sweep_rate_hz_per_s:g} Hz/s x window {window_s:g} s) "
            f"must stay below rate/2={rate_hz / 2:g} Hz")
    win = _window_values(window, n_win)
    ridge_f = f_lo + sweep_rate_hz_per_s * times
    keep = (ridge_f >= f_start_hz) & (ridge_f <= f_end_hz)
    if not keep.any():
        raise InvalidParameterError(f"no analysis frame in the band {f_start_hz:g}-{f_end_hz:g} Hz: "
                                    f"the ridge moves {sweep_rate_hz_per_s * n_hop / rate_hz:g} Hz a frame")
    ridge_f, starts = ridge_f[keep], starts[keep]
    # the nearer of the two bins around each ridge frequency, the lower on a tie
    hi = np.clip(np.searchsorted(freqs, ridge_f), 1, len(freqs) - 1)
    bin_idx = hi - (np.abs(freqs[hi - 1] - ridge_f) <= np.abs(freqs[hi] - ridge_f))

    sweep_rate = (f_hi - f_lo) / duration   # gen_sweep's, to the last bit

    def drive(a, b):   # samples a .. b - 1 of the drive current, g_m times gen_sweep's chirp
        x = _chirp_into(np.empty(b - a), a, f_lo, sweep_rate, rate_hz, amplitude)
        x *= g_m
        return x

    pieces = simulator._run_pieces(sys, 1.0 / rate_hz, drive, samples, sys.output_dofs)
    amp_in, amp_out = _ridge_mags(win, starts, bin_idx, pieces)
    h = np.ascontiguousarray(amp_out.T) / amp_in
    # The out/in ratio at a bin is dominated by the instant the chirp crosses
    # that bin's frequency (stationary phase), so the estimate belongs to the
    # bin centre, not to the frame-centre instantaneous frequency.  Report the
    # bin frequencies so cross-checks evaluate |H| where it was measured.
    return MeasuredTransfer(freqs_hz=freqs[bin_idx], h=h, g_m=g_m,
                            sweep_rate_hz_per_s=sweep_rate_hz_per_s,
                            window_s=window_s)
