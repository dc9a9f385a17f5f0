import hashlib
import os
import subprocess
import sys
import threading
import wave
from pathlib import Path

import numpy as np
import pytest

from polyscore import dsp


def _write_pcm(path, values, rate=22050, channels=1):
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(np.asarray(values, dtype="<i2").tobytes())


def test_load_wav_silence(tmp_path):
    path = tmp_path / "silence.wav"
    _write_pcm(path, np.zeros(22050, dtype=np.int16))
    audio = dsp.load_wav(path)
    assert audio.shape == (22050,) and audio.dtype == np.float64
    assert np.all(audio == 0.0)


def test_load_wav_wrong_rate(tmp_path):
    path = tmp_path / "bad.wav"
    _write_pcm(path, np.zeros(100, dtype=np.int16), rate=44100)
    with pytest.raises(dsp.WrongSampleRate):
        dsp.load_wav(path)


def test_load_wav_square_wave_sample_exact(tmp_path):
    # full-scale square wave written independently with struct-packed int16
    pattern = np.tile(np.array([32767, -32768], dtype=np.int16), 512)
    path = tmp_path / "square.wav"
    _write_pcm(path, pattern)
    audio = dsp.load_wav(path)
    expected = pattern.astype(np.float64) / 32768.0
    assert np.array_equal(audio, expected)
    assert audio.max() == pytest.approx(1.0, abs=1e-4)
    assert audio.min() == -1.0


def test_load_wav_stereo_downmix(tmp_path):
    left = np.array([1000, 2000, 3000], dtype=np.int16)
    right = np.array([3000, 2000, 1000], dtype=np.int16)
    interleaved = np.empty(6, dtype=np.int16)
    interleaved[0::2] = left
    interleaved[1::2] = right
    path = tmp_path / "stereo.wav"
    _write_pcm(path, interleaved, channels=2)
    audio = dsp.load_wav(path)
    assert np.allclose(audio, (left + right) / 2.0 / 32768.0)


def test_load_wav_rejects_8_bit(tmp_path):
    path = tmp_path / "eight.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(1)
        fh.setframerate(22050)
        fh.writeframes(bytes(100))
    with pytest.raises(dsp.UnsupportedFormat):
        dsp.load_wav(path)


def test_interrupted_wav_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "clip.wav"
    dsp.write_wav(path, np.full(3000, 0.25))
    before = path.read_bytes()
    real_write = wave.Wave_write.writeframesraw

    def failing_write(self, data):
        real_write(self, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(wave.Wave_write, "writeframesraw", failing_write)
    with pytest.raises(OSError):
        dsp.write_wav(path, np.full(5000, -0.5))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["clip.wav"]


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-0.9, 0.9, size=5000)
    path = tmp_path / "rt.wav"
    dsp.write_wav(path, samples)
    audio = dsp.load_wav(path)
    assert np.max(np.abs(audio - samples)) <= 0.5 / 32768


def test_frame_count_formula_exact():
    assert dsp.frame_count(2048) == 1
    for k in range(11):
        n = 2048 + k * 512
        assert dsp.frame_count(n) == k + 1
        if k:
            assert dsp.frame_count(n - 1) == k


def test_too_short():
    with pytest.raises(dsp.TooShort):
        dsp.frame_count(2047)
    with pytest.raises(dsp.TooShort):
        dsp.stft_logfreq(np.zeros(100))
    with pytest.raises(dsp.TooShort):
        dsp.stft_logfreq(np.array([]))


def test_bin_frequencies_geometry():
    freqs = dsp.bin_frequencies()
    assert freqs.shape == (240,)
    assert freqs[132] == 440.0
    ratios = freqs[1:] / freqs[:-1]
    assert np.allclose(ratios, 2 ** (1 / 48))
    assert freqs[0] == pytest.approx(440.0 * 2 ** (-33 / 12))
    assert freqs[-1] < 2093.005  # strictly below C7


def test_pure_tone_440_argmax_at_a4_bin():
    t = np.arange(2 * 22050) / 22050
    spec = dsp.stft_logfreq(0.5 * np.sin(2 * np.pi * 440.0 * t))
    interior = spec.frames[1:-1]
    assert np.all(interior.argmax(axis=1) == 132)


def test_silence_spectrogram_all_zero():
    spec = dsp.stft_logfreq(np.zeros(22050))
    assert np.all(spec.frames == 0.0)
    assert len(spec.frames) == dsp.frame_count(22050)


def test_hop_shift_moves_one_frame():
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.5, 0.5, size=22050)
    shifted = np.concatenate([np.zeros(512), x])
    a = dsp.stft_logfreq(x).frames
    b = dsp.stft_logfreq(shifted).frames
    w = a.shape[0]
    assert np.max(np.abs(b[1 : w + 1] - a)) < 1e-6


def test_amplitude_doubling_increases_nonzero_cells():
    t = np.arange(22050) / 22050
    x = 0.3 * np.sin(2 * np.pi * 330.0 * t)
    a = dsp.stft_logfreq(x).frames
    b = dsp.stft_logfreq(2 * x).frames
    mask = a > 0
    assert np.all(b[mask] > a[mask])


def _zero_padded_reference(samples):
    """The frontend as a zero-padded FFT of every frame, kept as the oracle."""
    k_lo, k_hi, weights = dsp._log_mapping()
    frames = np.lib.stride_tricks.sliding_window_view(samples, dsp.WINDOW_SIZE)[:: dsp.HOP_SIZE]
    spectrum = np.fft.rfft(frames * np.hamming(dsp.WINDOW_SIZE), n=dsp.FFT_SIZE, axis=1)
    return np.log1p(np.abs(spectrum[:, k_lo:k_hi]) @ weights)


@pytest.mark.parametrize("width", [1, 63, 64, 65, 129])
def test_band_transform_matches_zero_padded_fft(width):
    n = dsp.WINDOW_SIZE + (width - 1) * dsp.HOP_SIZE
    t = np.arange(n) / dsp.SAMPLE_RATE
    signals = {
        "noise": np.random.default_rng(width).uniform(-0.9, 0.9, size=n),
        "tone": 0.5 * np.sin(2 * np.pi * 440.0 * t),
        "silence": np.zeros(n),
    }
    for name, x in signals.items():
        spec = dsp.stft_logfreq(x)
        assert spec.frames.shape == (width, dsp.N_BINS), name
        assert np.max(np.abs(spec.frames - _zero_padded_reference(x))) < 1e-12, name


def test_band_transform_against_direct_dft():
    k_lo, k_hi, _ = dsp._log_mapping()
    x = np.random.default_rng(3).normal(size=dsp.WINDOW_SIZE)
    scratch = np.empty((1, dsp._CHIRP_SIZE), dtype=np.complex128)
    band = np.empty((1, k_hi - k_lo))
    dsp._band_magnitudes(x[None, :], scratch, band)
    band = band[0]
    assert band.shape == (k_hi - k_lo,)
    y = x * np.hamming(dsp.WINDOW_SIZE)
    n = np.arange(dsp.WINDOW_SIZE)
    for k in (k_lo, k_lo + 1, 1000, 2048, k_hi - 1):
        direct = abs(np.sum(y * np.exp(-2j * np.pi * k * n / dsp.FFT_SIZE)))
        assert band[k - k_lo] == pytest.approx(direct, rel=1e-12), k


def test_fft_against_naive_dft():
    rng = np.random.default_rng(2)
    for n in (8, 16, 64, 128, 256):
        x = rng.normal(size=n)
        k = np.arange(n // 2 + 1)[:, None]
        m = np.arange(n)[None, :]
        naive = (x[None, :] * np.exp(-2j * np.pi * k * m / n)).sum(axis=1)
        fast = np.fft.rfft(x)
        assert np.max(np.abs(fast - naive)) < 1e-9 * max(1.0, np.max(np.abs(naive)))


def test_octave_blocks_reassemble_dense_weights():
    _, _, weights = dsp._log_mapping()
    blocks = dsp._octave_blocks()
    assert len(blocks) == dsp.N_BINS // dsp.BINS_PER_OCTAVE
    rebuilt = np.zeros_like(weights)
    hits = np.zeros(weights.shape, dtype=int)
    for rows, cols, block in blocks:
        assert block.shape == (rows.stop - rows.start, cols.stop - cols.start)
        rebuilt[rows, cols] += block
        hits[rows, cols] += block != 0
    # a block edge that dropped a grid bin would lose that bin's weights here
    assert np.array_equal(rebuilt, weights)
    assert np.array_equal(hits, (weights != 0).astype(int))
    assert [cols for _, cols, _ in blocks] == [
        slice(first, first + dsp.BINS_PER_OCTAVE) for first in range(0, dsp.N_BINS, dsp.BINS_PER_OCTAVE)
    ]


def _clip(width, seed):
    n = dsp.WINDOW_SIZE + (width - 1) * dsp.HOP_SIZE + 100  # a partial hop at the end
    return np.random.default_rng(seed).uniform(-0.9, 0.9, size=n)


def _record_lanes(monkeypatch, lanes):
    """Allow the helper lane; each lane waits inside its first chunk until ``lanes`` lanes hold one.

    So with two lanes both take part, however the threads are scheduled.
    Returns the set of threads that computed a chunk.
    """
    barrier = threading.Barrier(lanes, timeout=10)
    threads = set()
    real = dsp._band_magnitudes

    def band_magnitudes(*args):
        if threading.get_ident() not in threads:
            threads.add(threading.get_ident())
            barrier.wait()
        real(*args)

    monkeypatch.setattr(dsp, "_lane_count", lambda: 2)
    monkeypatch.setattr(dsp, "_band_magnitudes", band_magnitudes)
    return threads


@pytest.mark.parametrize("width, lanes", [(64, 1), (65, 2), (129, 2), (651, 2)])
def test_lanes_give_the_bits_of_one_lane(width, lanes, monkeypatch):
    # a single chunk runs on the calling thread alone; 65 and 129 frames end
    # in a one-frame chunk, 651 in an 11-frame one
    x = _clip(width, width)
    monkeypatch.setattr(dsp, "_lane_count", lambda: 1)
    one_lane = dsp.stft_logfreq(x).frames
    threads = _record_lanes(monkeypatch, lanes)
    with_helper = dsp.stft_logfreq(x).frames
    assert len(threads) == lanes
    assert with_helper.shape == (width, dsp.N_BINS)
    assert with_helper.tobytes() == one_lane.tobytes()


@pytest.mark.parametrize(
    "cpus, env, lanes",
    [
        (2, {}, 1),  # an unpinned pool takes every CPU
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (2, {"OMP_NUM_THREADS": "1"}, 2),
        (2, {"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 2),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        (4, {"OPENBLAS_NUM_THREADS": "2"}, 1),
    ],
)
def test_helper_lane_only_beside_a_one_thread_blas_pool(cpus, env, lanes, monkeypatch):
    # OpenBLAS's idle workers spin, so the helper lane runs only where the
    # pool, sized as OpenBLAS sizes it from the environment, is one thread
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(dsp, "_cpu_count", lambda: cpus)
    assert dsp._lane_count() == lanes


def test_concurrent_callers_get_the_bits_of_a_lone_call(monkeypatch):
    # three callers run at once, each on its own two lanes; every caller
    # returns with a lone call's bits
    monkeypatch.setattr(dsp, "_lane_count", lambda: 2)
    clips = [_clip(width, seed) for seed, width in enumerate((300, 129, 451))]
    alone = [dsp.stft_logfreq(x).frames.tobytes() for x in clips]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            start = threading.Barrier(len(clips), timeout=10)
            results = [None] * len(clips)

            def call(i):
                start.wait()
                results[i] = dsp.stft_logfreq(clips[i]).frames.tobytes()

            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(clips))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert results == alone
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("failing", [None, "helper", "caller"])
def test_two_lanes_join_their_helper_and_raise_its_error(failing, monkeypatch):
    # each lane waits inside its first chunk until the other holds one, then
    # the failing lane raises; its error reaches the caller, and no helper
    # thread outlives the call, however it returns
    barrier = threading.Barrier(2, timeout=10)
    lanes = set()
    caller = threading.current_thread()
    real = dsp._band_magnitudes

    def band_magnitudes(*args):
        lane = threading.current_thread()
        if lane not in lanes:
            lanes.add(lane)
            barrier.wait()
            if failing == ("caller" if lane is caller else "helper"):
                raise RuntimeError(f"{failing} lane failed")
        real(*args)

    monkeypatch.setattr(dsp, "_lane_count", lambda: 2)
    monkeypatch.setattr(dsp, "_band_magnitudes", band_magnitudes)
    x = _clip(651, 5)
    if failing is None:
        assert dsp.stft_logfreq(x).frames.shape == (651, dsp.N_BINS)
    else:
        with pytest.raises(RuntimeError, match=f"{failing} lane failed"):
            dsp.stft_logfreq(x)
    assert len(lanes) == 2
    assert not [t for t in threading.enumerate() if t.name.startswith("polyscore-stft")]


def test_one_lane_process_does_not_load_concurrent_futures():
    # the helper's executor is imported only by a two-lane call, so a process
    # that runs the CLI's imports and a one-chunk spectrogram does without it
    code = (
        "import sys, numpy as np, polyscore.cli; from polyscore import dsp; "
        "dsp.stft_logfreq(np.zeros(dsp.WINDOW_SIZE + 63 * dsp.HOP_SIZE)); "
        "print('concurrent.futures' in sys.modules)"
    )
    src = str(Path(dsp.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_frontend_bits_match_the_pinned_version():
    # cached features are keyed by FRONTEND_VERSION; a change to the
    # frontend's float32 bits that does not bump it (and re-pin) fails here
    frames = dsp.stft_logfreq(_clip(200, 20261020)).frames
    assert hashlib.sha256(frames.astype("<f4").tobytes()).hexdigest() == dsp.FRONTEND_SHA256, (
        "the frontend's float32 features moved: bump dsp.FRONTEND_VERSION and re-pin dsp.FRONTEND_SHA256"
    )
