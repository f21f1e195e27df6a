"""Signal toolbox: pulse/chirp generators, noise, dataset plumbing, CSV IO,
the STFT, and the swept-sine transfer measurement."""

import csv
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resonet import acsolver, signals, simulator
from resonet.errors import (ConfigError, DataFormatError,
                            InvalidParameterError)
from resonet.lattice import CircuitParams, LatticeSpec
from resonet.simulator import leapfrog
from resonet.signals import (DEFAULT_G_M, SWEEP_PRESETS, Dataset, DatasetSpec,
                             Signal, add_noise, gen_dataset, gen_pulse,
                             gen_sweep, load_csv, load_dataset, measure_transfer,
                             save_dataset, stft)

TWO_PI = 2.0 * math.pi


# --- gen_pulse -------------------------------------------------------------------

def test_pulse_peaks_at_amplitude():
    sig = gen_pulse(1000.0, 2.0, center_hz=50.0, sigma_s=0.1, amplitude=3.25,
                    t_center=1.0)
    assert sig.values[1000] == pytest.approx(3.25, rel=1e-12)
    assert np.max(np.abs(sig.values)) == pytest.approx(3.25, rel=1e-9)


def test_pulse_with_huge_sigma_is_a_pure_cosine():
    rate, dur, f = 2000.0, 1.0, 50.0
    sig = gen_pulse(rate, dur, f, sigma_s=100.0 * dur)
    t = np.arange(int(dur * rate)) / rate
    pure = np.cos(TWO_PI * f * (t - dur / 2.0))
    assert np.max(np.abs(sig.values - pure)) < 1e-3


def test_pulse_spectral_peak_within_one_bin():
    rate, dur = 2000.0, 4.0
    sig = gen_pulse(rate, dur, center_hz=50.0, sigma_s=0.2)
    spec = np.abs(np.fft.rfft(sig.values))
    freqs = np.fft.rfftfreq(len(sig.values), 1.0 / rate)
    peak = freqs[np.argmax(spec)]
    assert abs(peak - 50.0) <= freqs[1] + 1e-12


def test_pulse_spectral_centroid_tracks_center():
    rate, dur, f = 2000.0, 4.0, 50.0
    sigma = 5.0 / f   # five carrier cycles
    sig = gen_pulse(rate, dur, f, sigma)
    spec = np.abs(np.fft.rfft(sig.values)) ** 2
    freqs = np.fft.rfftfreq(len(sig.values), 1.0 / rate)
    centroid = float(np.sum(freqs * spec) / np.sum(spec))
    assert abs(centroid - f) <= 0.02 * f


def test_pulse_validation():
    with pytest.raises(InvalidParameterError):
        gen_pulse(1000.0, 1.0, center_hz=600.0, sigma_s=0.1)  # beyond Nyquist
    with pytest.raises(InvalidParameterError):
        gen_pulse(1000.0, 1.0, center_hz=50.0, sigma_s=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_signal_rejects_non_finite_samples(uniform_plant, bad):
    # A bad sample is a data error naming its index, not a divergence that
    # the simulator reports at that step.
    _, _, sys_m = uniform_plant
    v = np.zeros(2000)
    v[10] = bad
    with pytest.raises(InvalidParameterError, match="signal value 10 "):
        simulator.run(sys_m, Signal(2000.0, v))


# --- add_noise --------------------------------------------------------------------

def test_noise_hits_requested_snr():
    rate = 1000.0
    t = np.arange(100_000) / rate
    sig = Signal(rate, np.sin(TWO_PI * 5.0 * t))
    for target in (10.0, 20.0):
        noisy = add_noise(sig, target, np.random.default_rng(0))
        p_sig = np.mean(sig.values ** 2)
        p_noise = np.mean((noisy.values - sig.values) ** 2)
        measured = 10.0 * math.log10(p_sig / p_noise)
        assert abs(measured - target) <= 0.5


def test_noise_passthrough_and_determinism():
    sig = Signal(100.0, np.ones(50))
    assert add_noise(sig, None, 0) is sig
    assert add_noise(sig, math.inf, 0) is sig
    a = add_noise(sig, 10.0, 123)
    b = add_noise(sig, 10.0, 123)
    np.testing.assert_array_equal(a.values, b.values)
    with pytest.raises(InvalidParameterError):
        add_noise(Signal(100.0, np.zeros(10)), 10.0, 0)


# --- datasets ---------------------------------------------------------------------

def test_default_dataset_counts(default_dataset):
    ds = default_dataset
    assert len(ds.split("train")) == 300
    assert len(ds.split("test")) == 60
    for label in range(3):
        assert sum(1 for s in ds.split("test") if s.label == label) == 20


def test_labels_follow_the_class_centers():
    spec = DatasetSpec(centers_hz=(30.0, 50.0, 70.0), snr_db=None, jitter_s=0.0,
                       train_per_class=2, test_per_class=1, seed=3)
    ds = gen_dataset(spec)
    assert sorted({s.label for s in ds.samples}) == [0, 1, 2]
    for s in ds.samples:
        mags = np.abs(np.fft.rfft(s.signal.values))
        freqs = np.fft.rfftfreq(len(s.signal.values), 1.0 / spec.rate_hz)
        peak = freqs[np.argmax(mags)]
        assert abs(peak - spec.centers_hz[s.label]) <= 2.0


def test_splits_are_disjoint_by_seeded_index(default_dataset):
    for label in range(3):
        train_ids = {s.class_index for s in default_dataset.split("train")
                     if s.label == label}
        test_ids = {s.class_index for s in default_dataset.split("test")
                    if s.label == label}
        assert not train_ids & test_ids


def test_generation_is_bitwise_deterministic():
    spec = DatasetSpec(train_per_class=2, test_per_class=1, seed=9)
    a, b = gen_dataset(spec), gen_dataset(spec)
    for sa, sb in zip(a.samples, b.samples):
        np.testing.assert_array_equal(sa.signal.values, sb.signal.values)
        assert (sa.label, sa.split) == (sb.label, sb.split)


def test_dataset_spec_validation():
    with pytest.raises(InvalidParameterError):
        DatasetSpec(centers_hz=(30.0,))
    with pytest.raises(InvalidParameterError):
        DatasetSpec(centers_hz=(30.0, 1500.0), rate_hz=2000.0)
    with pytest.raises(InvalidParameterError):
        DatasetSpec(jitter_s=0.6, duration_s=1.0)


def test_dataset_round_trip_through_disk(tmp_path):
    spec = DatasetSpec(train_per_class=2, test_per_class=1, seed=5)
    ds = gen_dataset(spec)
    manifest = save_dataset(ds, tmp_path)
    assert manifest.name == "manifest.json"
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert len(names) == 9 and names[0] == "class0_test_0002.csv"
    again = load_dataset(manifest)
    assert again.spec.centers_hz == spec.centers_hz
    assert len(again.samples) == len(ds.samples)
    # The loader renumbers class_index per split; match samples by their
    # order within each (label, split) group instead.
    def grouped(dataset):
        groups: dict[tuple[int, str], list] = {}
        for s in dataset.samples:
            groups.setdefault((s.label, s.split), []).append(s)
        return groups

    for key, originals in grouped(ds).items():
        reloaded = grouped(again)[key]
        assert len(reloaded) == len(originals)
        for a, b in zip(originals, reloaded):
            np.testing.assert_array_equal(b.signal.values, a.signal.values)
    with pytest.raises(ConfigError):
        save_dataset(ds, tmp_path)          # refuses to overwrite
    save_dataset(ds, tmp_path, force=True)  # explicit consent


def test_load_dataset_counts_every_class(tmp_path):
    ds = gen_dataset(DatasetSpec(train_per_class=2, test_per_class=2, seed=5))
    manifest = save_dataset(ds, tmp_path)
    doc = json.loads(manifest.read_text())
    # class 0 keeps one train sample and no test sample; classes 1 and 2 keep all
    doc["samples"] = [e for e in doc["samples"] if e["label"] != 0 or
                      e["path"] == "class0_train_0000.csv"]
    manifest.write_text(json.dumps(doc))
    spec = load_dataset(manifest).spec
    assert (spec.train_per_class, spec.test_per_class) == (2, 2)


def test_load_dataset_rejects_signals_of_another_length(tmp_path):
    ds = gen_dataset(DatasetSpec(train_per_class=2, test_per_class=1, seed=5))
    manifest = save_dataset(ds, tmp_path)
    entry = json.loads(manifest.read_text())["samples"][4]
    path = tmp_path / entry["path"]
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(DataFormatError, match=rf"entry 4 \({entry['path']}\) holds 1999 "
                                              r"samples, entry 0 holds 2000"):
        load_dataset(manifest)


# --- CSV loading ------------------------------------------------------------------

def test_load_two_column_csv(tmp_path):
    p = tmp_path / "sig.csv"
    t = np.arange(100) / 1000.0
    p.write_text("".join(f"{float(ti)!r},{float(vi)!r}\n"
                         for ti, vi in zip(t, np.sin(t))))
    sig = load_csv(p)
    assert sig.rate_hz == pytest.approx(1000.0, rel=1e-9)
    np.testing.assert_allclose(sig.values, np.sin(t), rtol=1e-15)


def test_load_single_column_needs_rate(tmp_path):
    p = tmp_path / "bare.csv"
    p.write_text("".join(f"{float(v)!r}\n" for v in np.arange(10.0)))
    sig = load_csv(p, rate=5000.0)
    assert sig.rate_hz == 5000.0
    with pytest.raises((ConfigError, DataFormatError, InvalidParameterError)):
        load_csv(p)


def test_load_rejects_jittered_time_column(tmp_path):
    p = tmp_path / "jitter.csv"
    t = np.arange(100) / 1000.0
    t[50] += 3e-4
    p.write_text("".join(f"{float(ti)!r},1.0\n" for ti in t))
    with pytest.raises(DataFormatError, match="uniform"):
        load_csv(p)


def test_load_reports_offending_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0\n2.0\nnot-a-number\n4.0\n")
    with pytest.raises(DataFormatError, match=r":3:"):
        load_csv(p, rate=100.0)


def test_load_rejects_contradictory_rate(tmp_path):
    p = tmp_path / "sig.csv"
    t = np.arange(100) / 1000.0
    p.write_text("".join(f"{float(ti)!r},1.0\n" for ti in t))
    with pytest.raises((ConfigError, DataFormatError, InvalidParameterError)):
        load_csv(p, rate=500.0)


def _load_csv_by_rows(path, rate=None):
    """The oracle: load_csv as it parsed every file, row by row with csv.reader."""
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


# Ways to write a number: both parsers should read the first kind alike, and
# np.loadtxt rejects the second (the row parser then reads the file).
_SPELLINGS = [
    repr, str, "{:.17e}".format, "{:.3f}".format, "{!r:>24}".format,
    lambda v: f" {v!r} ", lambda v: f"\t{v!r}", lambda v: f"\xa0{v!r}\x0c",
    lambda v: repr(v).upper(), lambda v: f"+{v!r}",
]
_ODD_SPELLINGS = [
    lambda v: f'"{v!r}"', lambda v: repr(v).replace("0", "0_0", 1),
    lambda v: repr(v).replace(".", ",", 1), lambda v: repr(v).replace("1", "\u0661"),
    lambda v: f"{v!r}\x1f", lambda v: f"\x1c{v!r}",
]
_ODD_TOKENS = ["nan", "-inf", "Infinity", "NaN", "1e400", "1e-400", "-0", ".5",
               "5.", "0x10", "1 0", "", "abc", "'1'", '""']
_EXTRA_LINES = ["", "   ", "\t", "t,v", "time", "# comment", ",", "1,", "1,2,3",
                "nan", "inf,1.0", '"1.0"', '"1,2"']


@st.composite
def _csv_texts(draw):
    """(file text, rate): 1- to 3-column files, half of them perturbed by odd
    spellings and tokens, ragged rows, non-finite values and extra lines."""
    n_cols = draw(st.sampled_from([1, 1, 2, 2, 3]))
    dt = draw(st.sampled_from([0.5, 1e-3, 1.0 / 3.0, 2.0]))
    perturbed = draw(st.booleans())

    def rare():   # true for about one token or row in ten of a perturbed file
        return perturbed and draw(st.integers(0, 9)) == 0

    lines = []
    for i in range(draw(st.integers(0, 8))):
        width = draw(st.integers(1, 3)) if rare() else n_cols
        row = [i * dt] if width > 1 else []
        row += [draw(st.floats(allow_nan=True, allow_infinity=True) if rare()
                     else st.floats(-1e6, 1e6)) for _ in range(width - len(row))]
        tokens = []
        for v in row:
            if rare():
                tokens.append(draw(st.sampled_from(_ODD_TOKENS) | st.text(max_size=4)))
            else:
                spell = draw(st.sampled_from(_ODD_SPELLINGS) if rare()
                             else st.sampled_from(_SPELLINGS))
                tokens.append(spell(v))
        lines.append(",".join(tokens))
    for _ in range(draw(st.integers(0, 3)) if perturbed else 0):
        extra = draw(st.sampled_from(_EXTRA_LINES) | st.text(max_size=6))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return text, draw(st.sampled_from([None, 1.0 / dt, 1.0 / dt, 1000.0]))


# Short strings of the characters numbers, separators and line ends are made of.
_NOISE_TEXTS = st.tuples(
    st.lists(st.sampled_from(list("0123456789.,eE+-_ \t\n\r\"'nafINx") + [
        "\xa0", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u0661", "\u3000",
        "\ufeff", "\x00"]), max_size=40).map("".join),
    st.sampled_from([None, 2.0]))


def _outcome(load, path, rate):
    try:
        sig = load(path, rate=rate)
    except Exception as exc:   # compared by type and message below
        return type(exc), str(exc)
    return sig.rate_hz, sig.values.tobytes()


@settings(max_examples=500, deadline=None)
@given(_csv_texts() | _NOISE_TEXTS)
@example(("1.0\n   \n2.0\n", 2.0))          # whitespace-only line
@example(("\"1.0\"\n\"2.0\"\n", 2.0))        # quoted fields
@example(("1_0\n2\n", 2.0))                 # underscore in a number
@example(("1.0\x1c\n2.0\n", 2.0))           # a separator float() rejects
@example(("0,1.0\r0.5,2.0\r1.0,3.0\r", None))   # bare CR line ends
@example(("1.0\n\nnan\n", 2.0))             # non-finite, after a blank line
@example(("0,1\n1,2,3\n", None))             # ragged
@example(("", 2.0))
def test_load_csv_agrees_with_the_row_parser(case):
    text, rate = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wave.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert _outcome(load_csv, path, rate) == _outcome(_load_csv_by_rows, path, rate)


def test_load_csv_parses_a_clean_file_without_the_row_parser(tmp_path, monkeypatch):
    def refuse(path):
        raise AssertionError("row parser used")
    monkeypatch.setattr(signals, "_parse_rows", refuse)
    ds = gen_dataset(DatasetSpec(seed=2, train_per_class=1, test_per_class=0))
    save_dataset(ds, tmp_path)
    bare = sorted(tmp_path.glob("*.csv"))[0]
    np.testing.assert_array_equal(load_csv(bare, rate=2000.0).values,
                                  ds.samples[0].signal.values)
    two = tmp_path / "tv.csv"
    two.write_text("0.0,1.5\r\n0.25,-2.0\r\n0.5,3e-3\r\n")
    sig = load_csv(two)
    assert sig.rate_hz == 4.0
    np.testing.assert_array_equal(sig.values, [1.5, -2.0, 3e-3])


# --- gen_sweep --------------------------------------------------------------------

def test_equal_endpoints_make_a_pure_tone():
    rate, dur, f = 2000.0, 1.0, 50.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = gen_sweep(f, f, dur, rate)
    t = np.arange(int(dur * rate)) / rate
    np.testing.assert_allclose(sig.values, np.sin(TWO_PI * f * t), atol=1e-12)


def test_sweep_zero_crossing_count():
    rate, dur = 2000.0, 20.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # deliberately fast sweep
        sig = gen_sweep(1.0, 100.0, dur, rate)
    crossings = int(np.sum(sig.values[1:] * sig.values[:-1] < 0.0))
    expect = dur * (1.0 + 100.0)
    assert abs(crossings - expect) <= 0.01 * expect


def test_sweep_presets_accepted():
    assert set(SWEEP_PRESETS) == {"1-100", "50-250", "1-120"}
    for f_lo, f_hi in SWEEP_PRESETS.values():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sig = gen_sweep(f_lo, f_hi, (f_hi - f_lo) / 0.25, 2000.0)
        assert len(sig.values) > 0


@pytest.mark.parametrize("f0, f1, duration, rate, amplitude", [
    (0.0, 101.0, 404.0, 4000.0, 1.7),     # the padded 1-100 Hz measurement sweep
    (20.0, 21.0, 1.25, 4000.0, 0.6),
    (3.0, 250.0, 10.0, 1000, 1.0),        # an integer rate
])
def test_sweep_equals_the_one_expression_chirp(f0, f1, duration, rate, amplitude):
    # gen_sweep evaluates its phase in place; it must equal the expression
    # it replaced bit for bit
    t = np.arange(int(round(duration * rate))) / rate
    phase = 2.0 * np.pi * (f0 * t + 0.5 * ((f1 - f0) / duration) * t * t)
    want = amplitude * np.sin(phase)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = gen_sweep(f0, f1, duration, rate, amplitude=amplitude).values
    assert got.tobytes() == want.tobytes()


def test_sweep_holds_its_chirp_once():
    # the padded 1-100 Hz measurement sweep (12.9 MB): Signal keeps the
    # chirp gen_sweep made without copying it, and checks it is finite with
    # no sample-sized temporary
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sig = gen_sweep(0.0, 101.0, 404.0, 4000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * sig.values.nbytes


def test_sweep_validation_and_speed_warning():
    with pytest.raises(InvalidParameterError):
        gen_sweep(10.0, 5.0, 1.0, 1000.0)
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, 20.0, 1.0, 1000.0), (1.0, bad, 1.0, 1000.0),
                     (1.0, 20.0, bad, 1000.0), (1.0, 20.0, 1.0, bad)):
            with pytest.raises(InvalidParameterError, match="must be finite"):
                gen_sweep(*args)
        with pytest.raises(InvalidParameterError, match="amplitude must be finite"):
            gen_sweep(1.0, 20.0, 1.0, 1000.0, amplitude=bad)
    with pytest.raises(InvalidParameterError):
        gen_sweep(10.0, 600.0, 1.0, 1000.0)   # beyond Nyquist
    with pytest.warns(UserWarning, match="sweep"):
        gen_sweep(0.5, 100.0, 1.0, 1000.0)    # far too fast at the low end


# --- stft --------------------------------------------------------------------------

def test_tone_ridge_sits_on_its_bin():
    rate, dur, f = 1000.0, 4.0, 50.0
    t = np.arange(int(dur * rate)) / rate
    spec = stft(Signal(rate, np.sin(TWO_PI * f * t)), window_s=0.5)
    ridge = np.argmax(spec.mags, axis=1)
    target = int(np.argmin(np.abs(spec.freqs_hz - f)))
    assert np.all(ridge == target)
    assert len(spec.times_s) == len(spec.mags)


def test_zero_signal_gives_zero_grid():
    spec = stft(Signal(1000.0, np.zeros(4000)), window_s=0.5)
    np.testing.assert_array_equal(spec.mags, 0.0)


def test_parseval_for_hann_half_hop():
    rate = 1000.0
    sig = gen_pulse(rate, 8.0, center_hz=30.0, sigma_s=0.5)
    n_win, n_hop = 250, 125
    spec = stft(sig, window_s=n_win / rate, hop_s=n_hop / rate, window="hann")
    w = 0.5 - 0.5 * np.cos(TWO_PI * np.arange(n_win) / n_win)
    frame_energy = (spec.mags[:, 0] ** 2 + spec.mags[:, -1] ** 2
                    + 2.0 * np.sum(spec.mags[:, 1:-1] ** 2, axis=1)) / n_win
    est = float(np.sum(frame_energy)) * n_hop / float(np.sum(w * w))
    direct = float(np.sum(sig.values ** 2))
    assert est == pytest.approx(direct, rel=0.01)


def ridge_mags_by_remainder(window, starts, bins, *columns):
    """_ridge_mags as it gathered each frame's twiddle at (k m) mod N for
    every m, kept as the oracle of its rotated twiddle."""
    n = len(window)
    m = np.arange(n)
    angle = (2.0 * np.pi / n) * m
    cos, sin = np.cos(angle), np.sin(angle)
    out = [np.empty((len(starts),) + c.shape[1:]) for c in columns]
    for j, (s, k) in enumerate(zip(starts, bins)):
        idx = (m * k) % n
        twiddle = np.stack([cos[idx], sin[idx]]) * window
        for c, mags in zip(columns, out):
            re, im = twiddle @ c[s:s + n]
            mags[j] = np.hypot(re, im)
    return out


@pytest.mark.parametrize("window", ["hann", "nuttall"])
@pytest.mark.parametrize("n_win", [64, 65, 997, 1000, 1001, 16000])
def test_ridge_reader_matches_the_spectrogram(window, n_win):
    # 16000 is the frame of the 1-100 Hz measurement, 997 is prime
    rate = 1000.0
    rng = np.random.default_rng(n_win)
    x = rng.standard_normal(12 * n_win + 7)
    y = rng.standard_normal((len(x), 3))
    n, _, starts, _, freqs = signals._frame_grid(len(x), rate, n_win / rate, None)
    assert n == n_win
    frame_idx = np.arange(1, len(starts), 2)
    bin_idx = rng.integers(0, len(freqs), len(frame_idx))
    bin_idx[0], bin_idx[-1] = 0, len(freqs) - 1   # bin 0, and N/2 for even N
    got_x, got_y = signals._ridge_mags(signals._window_values(window, n),
                                       starts[frame_idx], bin_idx, [(0, x, y)])
    # the rotated twiddle reads what the exact one does, to rounding
    want_x, want_y = ridge_mags_by_remainder(signals._window_values(window, n),
                                             starts[frame_idx], bin_idx, x, y)
    np.testing.assert_allclose(got_x, want_x, rtol=1e-11)
    np.testing.assert_allclose(got_y, want_y, rtol=1e-11)
    want = stft(Signal(rate, x), n_win / rate, window=window).mags
    np.testing.assert_allclose(got_x, want[frame_idx, bin_idx], rtol=1e-9)
    for ch in range(y.shape[1]):
        want = stft(Signal(rate, y[:, ch]), n_win / rate, window=window).mags
        np.testing.assert_allclose(got_y[:, ch], want[frame_idx, bin_idx], rtol=1e-9)


def test_ridge_reader_holds_over_many_rotations():
    # 320 frames, bins stepping by 0, 1, 3 and 7 in turn: the twiddle is
    # rotated 63 times between re-anchors, by four step phasors
    rate, n_win, n_hop = 1000.0, 2000, 50
    assert signals._REANCHOR < 320
    rng = np.random.default_rng(7)
    x = rng.standard_normal(319 * n_hop + n_win)
    y = rng.standard_normal((len(x), 2))
    n, _, starts, _, freqs = signals._frame_grid(len(x), rate, n_win / rate,
                                                 n_hop / rate)
    assert len(starts) == 320
    bin_idx = 40 + np.cumsum(np.resize([0, 1, 3, 7], len(starts)))
    assert bin_idx[-1] < len(freqs)
    win = signals._window_values("nuttall", n)
    got_x, got_y = signals._ridge_mags(win, starts, bin_idx, [(0, x, y)])
    want_x, want_y = ridge_mags_by_remainder(win, starts, bin_idx, x, y)
    np.testing.assert_allclose(got_x, want_x, rtol=1e-11)
    np.testing.assert_allclose(got_y, want_y, rtol=1e-11)
    frames = np.arange(len(starts))
    want = stft(Signal(rate, x), n_win / rate, n_hop / rate, window="nuttall").mags
    np.testing.assert_allclose(got_x, want[frames, bin_idx], rtol=1e-9)


@pytest.mark.parametrize("sizes", ["chunks", "shorter_than_a_frame", "restart"])
def test_ridge_reader_reads_pieces_as_the_whole_signal(sizes):
    # fed piece by piece, in scratch overwritten after each piece, the
    # reader reads every frame bit for bit as from the whole arrays; a
    # piece at t0 = 0 after others starts the reading over
    rate, n_win, n_hop = 1000.0, 400, 150
    rng = np.random.default_rng(11)
    x = rng.standard_normal(30 * n_hop + n_win + 13)
    y = rng.standard_normal((len(x), 3))
    n, _, starts, _, freqs = signals._frame_grid(len(x), rate, n_win / rate,
                                                 n_hop / rate)
    starts = starts[2:-1]
    bin_idx = rng.integers(0, len(freqs), len(starts))
    win = signals._window_values("nuttall", n)
    want = signals._ridge_mags(win, starts, bin_idx, [(0, x, y)])
    size = {"chunks": 1000, "shorter_than_a_frame": 97, "restart": 700}[sizes]

    def pieces():
        if sizes == "restart":   # pieces of another signal, then the whole one
            z = rng.standard_normal((2 * size, 3))
            yield 0, z[:size, 0].copy(), z[:size]
            yield size, z[size:, 0].copy(), z[size:]
        scratch_x, scratch_y = np.empty(size), np.empty((size, 3))
        for t0 in range(0, len(x), size):
            m = min(size, len(x) - t0)
            scratch_x[:m], scratch_y[:m] = x[t0:t0 + m], y[t0:t0 + m]
            yield t0, scratch_x[:m], scratch_y[:m]
            scratch_x[:], scratch_y[:] = np.nan, np.nan

    got = signals._ridge_mags(win, starts, bin_idx, pieces())
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_stft_window_validation():
    sig = Signal(1000.0, np.zeros(100))
    with pytest.raises(InvalidParameterError):
        stft(sig, window_s=0.5)           # window longer than the signal
    with pytest.raises(InvalidParameterError):
        stft(sig, window_s=0.001)         # fewer than 4 samples
    with pytest.raises(InvalidParameterError):
        stft(sig, window_s=0.05, window="flattop")


# --- measure_transfer ----------------------------------------------------------------

def small_plant():
    spec = LatticeSpec(rows=1, cols=2, grounded=(1,), input_cell=0, outputs=(0,))
    circ = CircuitParams.uniform(spec, 1.307e-11, 3.530e-11, 1e6, 5e5)
    return simulator.assemble(spec, circ)


def measure_transfer_by_stft(sys_m, f_start_hz, f_end_hz, rate_hz=4000.0,
                             sweep_rate_hz_per_s=0.25, g_m=DEFAULT_G_M,
                             window_s=4.0, window="nuttall", amplitude=1.0):
    """measure_transfer as it read the ridge from four full stft
    spectrograms, kept as the oracle: (freqs_hz, h)."""
    pad_hz = sweep_rate_hz_per_s * window_s
    f_lo = max(f_start_hz - pad_hz, 0.0)
    f_hi = f_end_hz + pad_hz
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = gen_sweep(f_lo, f_hi, (f_hi - f_lo) / sweep_rate_hz_per_s, rate_hz,
                          amplitude=amplitude)
    drive = Signal(rate_hz, g_m * sweep.values, unit="A")
    traj = simulator.run(sys_m, drive)
    spec_in = stft(sweep, window_s, window=window)
    ridge_f = f_lo + sweep_rate_hz_per_s * spec_in.times_s
    keep = (ridge_f >= f_start_hz) & (ridge_f <= f_end_hz)
    bin_idx = np.argmin(np.abs(spec_in.freqs_hz[None, :] - ridge_f[keep, None]), axis=1)
    frame_idx = np.nonzero(keep)[0]
    amp_in = spec_in.mags[frame_idx, bin_idx]
    h = np.empty((traj.values.shape[1], len(frame_idx)))
    for ch in range(traj.values.shape[1]):
        spec_out = stft(Signal(rate_hz, traj.values[:, ch]), window_s, window=window)
        h[ch] = spec_out.mags[frame_idx, bin_idx] / amp_in / g_m
    return spec_in.freqs_hz[bin_idx], h


def measure_transfer_whole(sys_m, f_start_hz, f_end_hz, rate_hz=4000.0,
                           sweep_rate_hz_per_s=0.25, g_m=DEFAULT_G_M,
                           window_s=4.0, window="nuttall", amplitude=1.0,
                           respond=None):
    """measure_transfer as it made the whole chirp, ran it through the
    lattice in one call and read the ridge from the whole arrays, kept as
    its bit-for-bit oracle: (freqs_hz, h).  respond(sys, drive) gives the
    (T, d) output rows, simulator.run's values unless given."""
    pad_hz = sweep_rate_hz_per_s * window_s
    f_lo = max(f_start_hz - pad_hz, 0.0)
    f_hi = f_end_hz + pad_hz
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = gen_sweep(f_lo, f_hi, (f_hi - f_lo) / sweep_rate_hz_per_s, rate_hz,
                          amplitude=amplitude)
    drive = Signal(rate_hz, sweep.values * g_m, unit="A")
    y = (simulator.run(sys_m, drive).values if respond is None
         else respond(sys_m, drive))
    n_win, _, starts, times, freqs = signals._frame_grid(len(drive.values), rate_hz,
                                                         window_s, None)
    ridge_f = f_lo + sweep_rate_hz_per_s * times
    keep = (ridge_f >= f_start_hz) & (ridge_f <= f_end_hz)
    ridge_f, starts = ridge_f[keep], starts[keep]
    hi = np.clip(np.searchsorted(freqs, ridge_f), 1, len(freqs) - 1)
    bin_idx = hi - (np.abs(freqs[hi - 1] - ridge_f) <= np.abs(freqs[hi] - ridge_f))
    amp_in, amp_out = signals._ridge_mags(signals._window_values(window, n_win),
                                          starts, bin_idx, [(0, drive.values, y)])
    return freqs[bin_idx], np.ascontiguousarray(amp_out.T) / amp_in


@pytest.mark.parametrize("plant", ["uniform", "small", "small_uneven_steps"])
def test_measurement_matches_the_stft_oracle(plant, uniform_plant, uniform_measurement):
    if plant == "uniform":
        meas, args, kw = uniform_measurement, (uniform_plant[2], 1.0, 100.0), {}
    elif plant == "small":
        kw = dict(rate_hz=4000.0, sweep_rate_hz_per_s=1.0, window_s=2.0,
                  window="hann", amplitude=0.7)
        args = (small_plant(), 15.0, 45.0)
        meas = measure_transfer(*args, **kw)
    else:
        # the ridge moves 0.375 Hz per frame across 0.4 Hz bins, so the bin
        # steps by 0 or 1, over more frames than one re-anchor period
        kw = dict(rate_hz=4000.0, sweep_rate_hz_per_s=0.3, window_s=2.5)
        args = (small_plant(), 15.0, 45.0)
        meas = measure_transfer(*args, **kw)
        assert set(np.diff(np.round(meas.freqs_hz / 0.4)).tolist()) == {0.0, 1.0}
        assert len(meas.freqs_hz) > signals._REANCHOR
    freqs, h = measure_transfer_by_stft(*args, **kw)
    assert meas.freqs_hz.tobytes() == freqs.tobytes()
    np.testing.assert_allclose(meas.h, h, rtol=1e-9)
    # streamed one chunk at a time, it reads the whole arrays' bits
    freqs, h = measure_transfer_whole(*args, **kw)
    assert meas.freqs_hz.tobytes() == freqs.tobytes()
    assert meas.h.tobytes() == h.tobytes()


def test_ridge_halfway_between_bins_takes_the_lower_bin():
    # 1 Hz bins and a ridge at 10, 10.5, 11, ... Hz exactly: every other
    # frame ties, and the tie goes to the lower bin, as argmin picks it
    kw = dict(rate_hz=4000.0, sweep_rate_hz_per_s=1.0, window_s=1.0)
    meas = measure_transfer(small_plant(), 10.0, 14.0, **kw)
    np.testing.assert_array_equal(meas.freqs_hz, np.repeat(np.arange(10.0, 14.0), 2).tolist()
                                  + [14.0])
    freqs, _ = measure_transfer_by_stft(small_plant(), 10.0, 14.0, **kw)
    assert meas.freqs_hz.tobytes() == freqs.tobytes()


def test_band_without_a_frame_is_refused():
    # the ridge moves 1.25 Hz per frame and skips the whole 20-20.5 Hz band
    with pytest.raises(InvalidParameterError,
                       match=r"no analysis frame in the band 20-20\.5 Hz: .* 1\.25 Hz a frame"):
        measure_transfer(small_plant(), 20.0, 20.5, sweep_rate_hz_per_s=5.0,
                         window_s=0.5001)


def test_gm_default_value():
    assert DEFAULT_G_M == 1e-6


def test_measurement_invariant_under_drive_amplitude():
    sys_m = small_plant()
    kw = dict(rate_hz=4000.0, sweep_rate_hz_per_s=1.0, window_s=2.0)
    a = measure_transfer(sys_m, 15.0, 45.0, **kw)
    b = measure_transfer(sys_m, 15.0, 45.0, amplitude=2.0, **kw)
    np.testing.assert_array_equal(a.freqs_hz, b.freqs_hz)
    np.testing.assert_allclose(b.h, a.h, rtol=1e-12)


@pytest.mark.parametrize("key", ["f_start_hz", "f_end_hz", "rate_hz", "sweep_rate_hz_per_s",
                                 "g_m", "window_s", "amplitude"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_measurement_rejects_non_finite_parameters(key, bad):
    kw = dict(f_start_hz=15.0, f_end_hz=45.0, rate_hz=4000.0,
              sweep_rate_hz_per_s=1.0, window_s=2.0)
    kw[key] = bad
    with pytest.raises(InvalidParameterError, match=f"{key} must be finite"):
        measure_transfer(small_plant(), **kw)


def test_overflowing_drive_current_is_refused_before_the_chirp():
    # amplitude * g_m past the float range is a parameter error naming both
    # values, not an overflow warning and a refused (or diverging) drive
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError,
                           match=r"amplitude \* g_m overflows: amplitude=1e\+10, g_m=1e\+300"):
            measure_transfer(small_plant(), 20.0, 21.0, g_m=1e300, amplitude=1e10)


def test_measurement_memory_does_not_grow_with_the_sweep(uniform_plant):
    # the measurement holds one chunk of the drive and of the response, and
    # one window of each, never the sweep: 1-100 Hz at the default 0.25 Hz/s
    # and at half that rate peak within 1 MB of each other, under 16 MB
    _, _, sys_m = uniform_plant
    peaks = []
    for rate in (0.25, 0.125):
        tracemalloc.start()
        try:
            measure_transfer(sys_m, 1.0, 100.0, sweep_rate_hz_per_s=rate)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    assert peaks[0] < 16.0
    assert abs(peaks[1] - peaks[0]) <= 1.0


def test_a_chunk_refused_mid_sweep_restarts_from_leapfrog(monkeypatch):
    # o_max is made infinite once the second chunk's drive is asked for, so
    # that chunk's bound is refused: the drive is stepped whole, and the
    # measurement reads leapfrog's rows, none of the blocked rows before
    sys_m = small_plant()
    kw = dict(rate_hz=4000.0, sweep_rate_hz_per_s=1.0, window_s=2.0, window="hann")
    chunk = simulator._CHUNK_BLOCKS * simulator.BLOCK
    o_maxes, asked = [], []
    real_ops, real_chirp = simulator._block_operators, signals._chirp_into

    def ops(*args):
        made = real_ops(*args)
        o_maxes.append(made[1])
        return made

    def chirp(out, i0, *args):
        asked.append((i0, len(out)))
        if i0 == chunk:
            o_maxes[-1][...] = np.inf
        return real_chirp(out, i0, *args)

    monkeypatch.setattr(simulator, "_block_operators", ops)
    monkeypatch.setattr(signals, "_chirp_into", chirp)
    meas = measure_transfer(sys_m, 15.0, 45.0, **kw)
    samples = asked[-1][1]
    assert asked == [(0, chunk), (chunk, chunk), (0, samples)] and samples > 2 * chunk
    monkeypatch.undo()

    def stepped(sys_, drive):
        return leapfrog(sys_, 1.0 / drive.rate_hz, drive.values,
                        dofs=np.asarray(sys_.output_dofs))

    freqs, h = measure_transfer_whole(sys_m, 15.0, 45.0, respond=stepped, **kw)
    assert meas.freqs_hz.tobytes() == freqs.tobytes()
    assert meas.h.tobytes() == h.tobytes()
    # the first frame lies in the first chunk, and its blocked rows differ
    # from leapfrog's in the last bits: had it been kept from before the
    # restart, it would show
    blocked = measure_transfer_whole(sys_m, 15.0, 45.0, **kw)[1]
    assert np.all(blocked[:, 0] != h[:, 0])


def test_signal_copies_unless_handed_an_owned_read_only_array():
    owned = np.arange(8.0) / 4.0 - 1.0
    owned.setflags(write=False)
    assert Signal(100.0, owned).values is owned
    writable = np.arange(8.0) / 4.0 - 1.0
    for values in (writable, owned[::2], owned.astype(np.float32), list(owned)):
        kept = Signal(100.0, values).values
        assert kept is not values and kept.flags.owndata and not kept.flags.writeable
    sig = Signal(100.0, writable)
    writable[0] = 5.0   # the caller's array can still change; the signal's cannot
    assert sig.values[0] == -1.0


def test_measured_transfer_matches_ac_solution(uniform_plant,
                                               uniform_measurement):
    """The virtual instrument reproduces nodal-analysis transmission to 5%
    everywhere at least 2 Hz away from a system resonance (1-100 Hz band)."""
    _, _, sys_m = uniform_plant
    meas = uniform_measurement
    eig_hz = simulator.eigenfrequencies_hz(sys_m)
    far = np.min(np.abs(eig_hz[None, :] - meas.freqs_hz[:, None]), axis=1) >= 2.0
    assert far.sum() >= 30  # the band is not allowed to be all resonance
    h_ac, flags = acsolver.transmission(sys_m, TWO_PI * meas.freqs_hz[far])
    assert all(f == "" for f in flags)
    rel = np.abs(meas.h[:, far] - h_ac) / np.abs(h_ac)
    assert float(np.max(rel)) <= 0.05


def test_measurement_band_and_shape(uniform_measurement):
    meas = uniform_measurement
    assert meas.h.shape[0] == 3
    assert meas.freqs_hz[0] >= 1.0 - 1e-9 and meas.freqs_hz[-1] <= 100.0 + 1e-9
    assert np.all(np.diff(meas.freqs_hz) > 0)
    assert np.all(np.isfinite(meas.h))
