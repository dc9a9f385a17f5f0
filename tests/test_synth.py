import numpy as np
import pytest

from polyscore import dsp, kern, synth


def test_quarter_note_duration_at_60_bpm():
    doc = kern.parse_kern("**kern\n4a\n*-\n")
    audio = synth.render(doc, 60.0)
    assert audio.size == 22050


def test_whole_note_a4_argmax_at_a4_bin():
    doc = kern.parse_kern("**kern\n1a\n*-\n")
    audio = synth.render(doc, 60.0)
    spec = dsp.stft_logfreq(audio)
    assert np.all(spec.frames[1:-1].argmax(axis=1) == 132)


def test_tied_halves_equal_whole_note():
    # same total duration, single attack: the rendered signals must match
    tied = kern.parse_kern("**kern\n[2a\n2a]\n*-\n")
    whole = kern.parse_kern("**kern\n1a\n*-\n")
    tempo = 60.0
    assert np.array_equal(synth.render(tied, tempo), synth.render(whole, tempo))


def test_tie_no_reattack_envelope():
    tied = kern.parse_kern("**kern\n[2a\n2a]\n*-\n")
    audio = synth.render(tied, 60.0)
    decay = synth.voices_for(1)[0].decay_seconds
    # envelope across the former note boundary decays smoothly: local peak
    # amplitude right after the join is below the peak right before it
    boundary = 22050 * 2 // 2
    before = np.abs(audio[boundary - 300 : boundary]).max()
    after = np.abs(audio[boundary : boundary + 300]).max()
    assert after <= before
    assert after >= before * np.exp(-600 / 22050 / decay) * 0.99


def test_total_duration_within_one_sample():
    doc = kern.parse_kern("**kern\n4c\n8d\n8e\n2f\n=\n4.g\n8a\n2b\n=\n*-\n")
    tempo = 93.0
    audio = synth.render(doc, tempo)
    beats = 4 + 4  # two 4/4 measures in quarter-note beats
    expected = beats * 60.0 / 93.0 * 22050
    assert abs(audio.size - expected) <= 1


def test_render_deterministic():
    doc = kern.parse_kern("**kern\t**kern\n4c\t4e\n4d\t4f\n=\t=\n*-\t*-\n")
    tempo = 186.0
    a = synth.render(doc, tempo)
    b = synth.render(doc, tempo)
    assert np.array_equal(a, b)


def test_all_rests_render_silence():
    doc = kern.parse_kern("**kern\n4r\n2r\n=\n*-\n")
    audio = synth.render(doc, 120.0)
    assert audio.size > 0
    assert np.all(audio == 0.0)


def test_peak_normalization():
    doc = kern.parse_kern("**kern\t**kern\t**kern\t**kern\n1c\t1e\t1g\t1cc\n*-\t*-\t*-\t*-\n")
    audio = synth.render(doc, 120.0)
    peak = np.max(np.abs(audio))
    assert peak <= 0.9 + 1e-9
    assert peak == pytest.approx(0.9, abs=1e-9)


def test_harmonics_above_nyquist_dropped():
    (row,) = kern.parse_kern("**kern\n1cccc\n*-\n").rows  # C7, 2093 Hz
    voice = synth.SynthVoiceSpec(harmonic_amplitudes=(1.0, 1.0, 1.0, 1.0, 1.0, 1.0), decay_seconds=4.0)
    audio = synth._note_wave(voice, synth.note_frequency(row.cells[0]), 16384)
    # 6th harmonic of C7 (12.5 kHz) must be silently dropped, not folded
    # back to 22050 - 12558 = 9492 Hz (the 5th at 10465 Hz stays legitimate)
    spec = np.abs(np.fft.rfft(audio[:16384]))
    freqs = np.arange(spec.size) * 22050 / 16384
    alias_band = (freqs > 9300) & (freqs < 9700)
    signal_bin = np.argmin(np.abs(freqs - 2093))
    assert spec[alias_band].max() < spec[signal_bin] * 0.01


def test_rest_advances_time():
    doc = kern.parse_kern("**kern\n4a\n4r\n4a\n*-\n")
    audio = synth.render(doc, 60.0)
    assert audio.size == 3 * 22050
    mid = audio[22050 + 2000 : 2 * 22050 - 2000]
    assert np.all(mid == 0.0)


def test_shared_note_cache_matches_fresh_renders():
    voice, other = synth.voices_for(2)  # the first two spines' specs: other harmonics
    tempo = 60.0
    a4 = 440.0
    tones = {}
    # (document, samples of the cached A4 of voice after rendering it)
    cases = [
        (kern.parse_kern("**kern\n8a\n4c\n*-\n"), 11025),  # short A4 first
        (kern.parse_kern("**kern\n[2a\n2a]\n=\n4a\n*-\n"), 4 * 22050),  # tie-merged: the entry grows
        (kern.parse_kern("**kern\t**kern\n2a\t1a\n4c\t.\n*-\t*-\n"), 4 * 22050),  # same pitch, other harmonics
        (kern.parse_kern("**kern\n4a\n*-\n"), 4 * 22050),  # a prefix of the grown entry
    ]
    for doc, cached in cases:
        shared = synth.render(doc, tempo, tones)
        assert np.array_equal(shared, synth.render(doc, tempo))
        assert tones[voice, a4].size == cached
    # each spine's spec has its own entry; C4 was heard by the first spine alone
    assert len(tones) == 3
    assert tones[other, a4].size == 4 * 22050
    assert not np.array_equal(tones[other, a4], tones[voice, a4])
    # the entry grew by its tail alone, and reads as one fresh synthesis
    assert np.array_equal(tones[voice, a4], synth._note_wave(voice, a4, 4 * 22050))
