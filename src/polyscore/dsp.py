"""PCM audio input and the log-frequency, log-magnitude spectrogram frontend.

Frames of 2048 samples (Hamming windowed, hop 512) are transformed with a
chirp-z (Bluestein) band transform that evaluates their DFT on a 32768-point
frequency grid, only at the grid bins the log bins use. Those magnitudes are
aggregated onto 240 geometrically spaced bins covering C2 up to (but
excluding) C7 at 48 bins per octave, anchored so that the A4 bin sits exactly
at 440 Hz. Magnitudes are compressed as ``log(1 + m)``.

Each log bin averages the grid bins under a triangle between its two
neighbours, so over 99% of the (grid bin, log bin) weights are zero. The
aggregation multiplies by one dense block per octave instead of the whole
matrix; a block covers only the grid bins under its 48 log bins, a fifth of
the multiply-adds in all. Dropping the zero terms can move the float64 sums
in their last bits, well inside the 1e-12 the tests hold the frontend to
against a zero-padded FFT.

A clip is computed in chunks of 64 frames. When it has more than one chunk,
the process may run on two or more CPUs and OpenBLAS runs one thread, the
chunks run on two lanes: the calling thread and a helper thread that the call
starts and joins before it returns, each taking the next chunk when it
finishes one. NumPy's FFTs, ``abs`` and matrix products release the
interpreter lock, so the lanes overlap. Beside a BLAS pool of two or more
threads, whose idle workers spin, the helper would compete with them and slow
the clip down, so it stays off. The complex FFT scratch holds 64 frames in
all: one lane runs a chunk's FFTs at once, each of two lanes in two halves of
32 frames. FFTs and magnitudes are computed row by row, so their bits do not
depend on that height. Every lane runs the aggregation products on the whole
64-frame chunk, the same products on either lane, so the result does not
depend on the lanes: it is bitwise the same with one lane or two.
"""
from __future__ import annotations

import functools
import io
import os
import threading
import wave
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .errors import DataError

SAMPLE_RATE = 22050
WINDOW_SIZE = 2048
HOP_SIZE = 512
N_BINS = 240
BINS_PER_OCTAVE = 48
A4_HZ = 440.0
A4_BIN = 132  # 33 semitones above C2, 4 bins per semitone
FFT_SIZE = 32768  # DFT grid spacing SAMPLE_RATE / FFT_SIZE resolves adjacent low bins
# Circular convolution length of the band transform: the smallest 5-smooth
# length >= WINDOW_SIZE + (k_hi - k_lo) - 1 = 5062, so the convolution does not wrap.
_CHIRP_SIZE = 5120
# Frames per chunk. The aggregation GEMMs' bits depend on the chunk height, so
# the chunk boundaries stay at multiples of 64 whichever lane runs a chunk.
_CHUNK = 64
# Version of the features stft_logfreq computes. It is part of the key each
# clip's cached float32 features are stored under (see cli), so a change that
# moves their bits must bump it, and re-pin FRONTEND_SHA256: the SHA-256 of
# the float32 features of the seeded 200-frame clip that tests/test_dsp.py
# draws and checks against it.
FRONTEND_VERSION = 1
FRONTEND_SHA256 = "9c559da5607d056f5943ac8fcfd9070619a4261848aaa82d1eab3b8be0ae541e"


class UnsupportedFormat(DataError):
    """WAV file is not 16-bit PCM mono/stereo."""


class WrongSampleRate(DataError):
    """WAV sample rate differs from 22050 Hz."""


class TooShort(DataError):
    """Fewer samples than one analysis window."""


@dataclass(eq=False)
class Spectrogram:
    frames: np.ndarray  # (W, 240) float64, HOP_SIZE samples apart


def bin_frequencies() -> np.ndarray:
    """Center frequencies of the 240 bins; index 132 is exactly 440 Hz."""
    return A4_HZ * 2.0 ** ((np.arange(N_BINS) - A4_BIN) / BINS_PER_OCTAVE)


def frame_count(n_samples: int) -> int:
    """Number of analysis frames for a clip of the given length."""
    if n_samples < WINDOW_SIZE:
        raise TooShort(f"need at least {WINDOW_SIZE} samples, got {n_samples}")
    return (n_samples - WINDOW_SIZE) // HOP_SIZE + 1


def load_wav(path, data: bytes | None = None) -> np.ndarray:
    """Read a 16-bit PCM WAV file as float64 samples in [-1, 1).

    Stereo is downmixed by channel averaging. A path that is not a whole WAV
    file (truncated or malformed header, data ending inside a frame, a
    directory) raises UnsupportedFormat; a WAV with no frames raises TooShort.
    ``data``, when given, is the file's bytes as the caller already read
    them; they are parsed instead of the file, which ``path`` then only names.
    """
    try:
        with wave.open(str(path) if data is None else io.BytesIO(data), "rb") as wav:
            channels = wav.getnchannels()
            width = wav.getsampwidth()
            rate = wav.getframerate()
            n = wav.getnframes()
            raw = wav.readframes(n)
    except (wave.Error, EOFError, RuntimeError, IsADirectoryError) as exc:
        # wave raises EOFError for a truncated header and RuntimeError for a
        # chunk size that points past the chunk's end
        reason = str(exc) or "file ends inside the header"
        raise UnsupportedFormat(f"cannot read WAV {path}: {reason}") from exc
    if width != 2:
        raise UnsupportedFormat(f"expected 16-bit PCM, got sample width {width}")
    if channels not in (1, 2):
        raise UnsupportedFormat(f"expected mono or stereo, got {channels} channels")
    if rate != SAMPLE_RATE:
        raise WrongSampleRate(f"expected {SAMPLE_RATE} Hz, got {rate}")
    if len(raw) % (width * channels):
        raise UnsupportedFormat(f"data of {path} ends inside a frame ({len(raw)} bytes)")
    if not raw:
        raise TooShort(f"{path} holds no audio frames")
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if channels == 2:
        data = data.reshape(-1, 2).mean(axis=1)
    return data


def write_wav(path, samples: np.ndarray) -> None:
    """Write mono float samples in [-1, 1] as 16-bit PCM at SAMPLE_RATE."""
    pcm = np.clip(np.round(np.asarray(samples, dtype=np.float64) * 32768.0), -32768, 32767)
    with atomic_open(path, "wb") as fh, wave.open(fh, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(SAMPLE_RATE)
        wav.writeframes(pcm.astype("<i2").tobytes())


@functools.cache
def _log_mapping() -> tuple[int, int, np.ndarray]:
    """Triangular aggregation weights from FFT bins onto the log grid.

    Each log bin averages FFT magnitudes under a triangle spanning its two
    geometric neighbours; weights are normalized per bin so neighbouring bins
    with different numbers of FFT samples stay comparable.
    """
    centers = bin_frequencies()
    ratio = 2.0 ** (1.0 / BINS_PER_OCTAVE)
    lows = np.concatenate(([centers[0] / ratio], centers[:-1]))
    highs = np.concatenate((centers[1:], [centers[-1] * ratio]))
    fft_freqs = np.arange(FFT_SIZE // 2 + 1) * (SAMPLE_RATE / FFT_SIZE)
    k_lo = int(np.searchsorted(fft_freqs, lows[0], side="right"))
    k_hi = int(np.searchsorted(fft_freqs, highs[-1], side="left"))
    band = fft_freqs[k_lo:k_hi]
    up = (band[None, :] - lows[:, None]) / (centers[:, None] - lows[:, None])
    down = (highs[:, None] - band[None, :]) / (highs[:, None] - centers[:, None])
    weights = np.clip(np.minimum(up, down), 0.0, None)
    weights /= weights.sum(axis=1, keepdims=True)
    return k_lo, k_hi, weights.T.copy()


@functools.cache
def _octave_blocks() -> list[tuple[slice, slice, np.ndarray]]:
    """The aggregation weights cut into one dense block per octave of log bins.

    Each entry is ``(grid rows, log-bin columns, weights[rows, columns])``:
    the columns are one octave's 48 bins and the rows the span of band grid
    bins (offsets from k_lo) that carry a nonzero weight for any of them.
    Every weight outside the blocks is zero, so ``band @ weights`` equals the
    blocks' products side by side at about a fifth of the multiply-adds.
    """
    _, _, weights = _log_mapping()
    blocks = []
    for first in range(0, N_BINS, BINS_PER_OCTAVE):
        cols = slice(first, first + BINS_PER_OCTAVE)
        used = np.flatnonzero(weights[:, cols].any(axis=1))
        rows = slice(int(used[0]), int(used[-1]) + 1)
        blocks.append((rows, cols, np.ascontiguousarray(weights[rows, cols])))
    return blocks


@functools.cache
def _band_chirps() -> tuple[np.ndarray, np.ndarray]:
    """Pre-chirp and chirp spectrum of the band transform (Bluestein's algorithm).

    With N = FFT_SIZE and ``m * n = (m**2 + n**2 - (m - n)**2) / 2``, the DFT
    of a windowed frame y at grid bin k_lo + m is

        exp(-i pi m^2 / N) * sum_n a[n] exp(i pi (m - n)^2 / N),
        a[n] = y[n] exp(-2 pi i (k_lo n + n^2 / 2) / N),

    a linear convolution of ``a`` with a chirp, taken circularly with length
    _CHIRP_SIZE. The leading factor has unit modulus and drops out of the
    magnitude. Phases are reduced modulo 2N in integers before ``exp``.
    """
    k_lo, k_hi, _ = _log_mapping()
    n = np.arange(WINDOW_SIZE)
    pre = np.hamming(WINDOW_SIZE) * np.exp(
        -1j * np.pi * ((2 * k_lo * n + n * n) % (2 * FFT_SIZE)) / FFT_SIZE
    )
    d = np.arange(1 - WINDOW_SIZE, k_hi - k_lo)
    chirp = np.zeros(_CHIRP_SIZE, dtype=np.complex128)
    chirp[d % _CHIRP_SIZE] = np.exp(1j * np.pi * ((d * d) % (2 * FFT_SIZE)) / FFT_SIZE)
    return pre, np.fft.fft(chirp)


def _band_magnitudes(frames: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """Write the DFT magnitudes of Hamming-windowed frames at grid bins
    ``k_lo..k_hi-1`` into ``out``, a ``(len(frames), k_hi - k_lo)`` float array.

    ``scratch`` is a complex ``(len(frames), _CHIRP_SIZE)`` array that is
    overwritten.
    """
    k_lo, k_hi, _ = _log_mapping()
    pre, chirp_spectrum = _band_chirps()
    np.multiply(frames, pre, out=scratch[:, :WINDOW_SIZE])
    scratch[:, WINDOW_SIZE:] = 0.0
    np.fft.fft(scratch, axis=1, out=scratch)
    scratch *= chirp_spectrum
    np.fft.ifft(scratch, axis=1, out=scratch)
    np.abs(scratch[:, : k_hi - k_lo], out=out)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _lane_count() -> int:
    """Lanes a clip of more than one chunk runs on: two when the process may
    run on two or more CPUs and OpenBLAS runs one thread, else one.

    OpenBLAS sizes its pool at load from the first positive
    ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``, and
    with none of them from every CPU.
    """
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return 2 if threads == 1 and _cpu_count() >= 2 else 1
    return 1


def _run_lane(
    frames: np.ndarray,
    out: np.ndarray,
    starts: Iterator[int],
    lock: threading.Lock,
    scratch: np.ndarray,
    band: np.ndarray,
) -> None:
    """Take chunk starts from ``starts`` until it is empty and fill their rows of ``out``.

    A chunk's FFTs run through the complex ``scratch`` in slices of its
    height, into ``band``; its aggregation GEMMs and ``log1p`` run on the
    whole chunk.
    """
    blocks = _octave_blocks()
    height = len(scratch)
    while True:
        with lock:
            start = next(starts, None)
        if start is None:
            return
        stop = min(start + _CHUNK, len(frames))
        for first in range(start, stop, height):
            last = min(first + height, stop)
            _band_magnitudes(frames[first:last], scratch[: last - first], band[first - start : last - start])
        rows_out = out[start:stop]
        for rows, cols, block in blocks:
            np.matmul(band[: stop - start, rows], block, out=rows_out[:, cols])
        np.log1p(rows_out, out=rows_out)


def stft_logfreq(samples: np.ndarray) -> Spectrogram:
    """Log-frequency, log-magnitude spectrogram of mono samples at SAMPLE_RATE.

    Raises :class:`TooShort` for clips shorter than one window. Trailing
    samples that do not fill a whole window are dropped.
    """
    samples = np.asarray(samples, dtype=np.float64)
    width = frame_count(samples.size)
    frames = np.lib.stride_tricks.sliding_window_view(samples, WINDOW_SIZE)[::HOP_SIZE]
    frames = frames[:width]
    # fill the caches before a second thread reads them: functools.cache is
    # not filled safely from two threads
    k_lo, k_hi, _ = _log_mapping()
    _octave_blocks()
    _band_chirps()
    lanes = _lane_count() if width > _CHUNK else 1
    # both lanes' arrays come from the calling thread's allocator; the lanes
    # split one chunk's height of complex scratch
    out = np.empty((width, N_BINS), dtype=np.float64)
    scratch = np.empty((lanes, min(width, _CHUNK // lanes), _CHIRP_SIZE), dtype=np.complex128)
    bands = np.empty((lanes, min(width, _CHUNK), k_hi - k_lo), dtype=np.float64)
    lane = functools.partial(_run_lane, frames, out, iter(range(0, width, _CHUNK)), threading.Lock())
    if lanes == 1:
        lane(scratch[0], bands[0])
    else:
        errors: list[BaseException] = []

        def helper_lane() -> None:
            try:
                lane(scratch[1], bands[1])
            except BaseException as exc:  # raised again on the calling thread
                errors.append(exc)

        helper = threading.Thread(target=helper_lane, name="polyscore-stft")
        helper.start()
        try:
            lane(scratch[0], bands[0])
        finally:
            helper.join()
        if errors:
            raise errors[0]
    return Spectrogram(frames=out)
