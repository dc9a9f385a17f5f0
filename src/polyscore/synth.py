"""Deterministic additive synthesizer for parsed kern scores.

Each voice is a sum of harmonic sines under an exponential decay envelope.
Good enough to give every note a clean pitch and duration footprint; timbre
realism is not a goal.

A note's waveform depends only on its voice spec, its frequency and its
length, never on tempo or onset, and a shorter note is a prefix of a longer
one. ``render`` therefore keeps the waveforms it synthesizes in a note cache
keyed by (voice spec, frequency) and slices them for every later note; a
longer note extends its entry by the missing tail alone. The caller owns the
cache: ``cli.cmd_build`` passes one dict to every fragment of a build and
drops it when the build returns, so its memory is bounded by the number of
distinct (voice spec, pitch) pairs times the longest note.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import SAMPLE_RATE
from .kern import KernDocument, ScoreEvent

PEAK_LEVEL = 0.9


@dataclass(frozen=True)
class SynthVoiceSpec:
    harmonic_amplitudes: tuple[float, ...]
    decay_seconds: float


# Small palette with distinct harmonic profiles, one per voice position.
DEFAULT_VOICES = (
    SynthVoiceSpec((1.0, 0.5, 0.33, 0.25), 4.0),
    SynthVoiceSpec((1.0, 0.6, 0.2), 3.0),
    SynthVoiceSpec((1.0, 0.3), 3.5),
    SynthVoiceSpec((1.0, 0.45, 0.3, 0.15), 2.5),
)


def voices_for(spine_count: int) -> list[SynthVoiceSpec]:
    return [DEFAULT_VOICES[i % len(DEFAULT_VOICES)] for i in range(spine_count)]


def event_seconds(ev: ScoreEvent, quarter_bpm: float) -> float:
    beats = (4.0 / ev.duration) * (1.5 if ev.dots else 1.0)
    return beats * 60.0 / quarter_bpm


def note_frequency(ev: ScoreEvent) -> float:
    return 440.0 * 2.0 ** ((ev.midi - 69) / 12.0)


def _spine_notes(doc: KernDocument, spine: int, quarter_bpm: float):
    """Yield (start_s, duration_s, frequency) per attack, ties merged."""
    t = 0.0
    pending = None  # (start, duration, freq) of an open tie
    for row in doc.rows:
        if row.kind != "data":
            continue
        ev = row.cells[spine]
        if ev.kind == "continuation":
            continue
        dur = event_seconds(ev, quarter_bpm)
        if ev.kind == "rest":
            if pending is not None:
                yield pending
                pending = None
            t += dur
            continue
        freq = note_frequency(ev)
        if pending is not None:
            if ev.tie == "close" and abs(pending[2] - freq) < 1e-9:
                yield pending[0], pending[1] + dur, freq
                pending = None
                t += dur
                continue
            yield pending
            pending = None
        if ev.tie == "open":
            pending = (t, dur, freq)
        else:
            yield t, dur, freq
        t += dur
    if pending is not None:
        yield pending


def _spine_seconds(doc: KernDocument, spine: int, quarter_bpm: float) -> float:
    return sum(
        event_seconds(row.cells[spine], quarter_bpm)
        for row in doc.rows
        if row.kind == "data" and row.cells[spine].kind in ("note", "rest")
    )


def _note_wave(voice: SynthVoiceSpec, freq: float, stop: int, start: int = 0) -> np.ndarray:
    """One note's decaying harmonic tone at samples ``start..stop-1`` from its attack."""
    t = np.arange(start, stop, dtype=np.float64) / SAMPLE_RATE
    envelope = np.exp(-t / voice.decay_seconds)
    tone = np.zeros_like(t)
    for k, amp in enumerate(voice.harmonic_amplitudes, start=1):
        if amp > 0 and k * freq < SAMPLE_RATE / 2.0:
            tone += amp * np.sin(2.0 * np.pi * k * freq * t)
    return tone * envelope


def render(doc: KernDocument, quarter_bpm: float, tones=None) -> np.ndarray:
    """Render a parsed document to mono samples at 22050 Hz.

    The tempo is ``quarter_bpm`` quarter notes per minute. Spine ``i`` sounds
    with ``voices_for(doc.spine_count)[i]``; tied notes sound as a single
    attack spanning their combined duration. The mix is peak-normalized to
    0.9 (silence stays silent).

    ``tones`` is the note cache: a dict from (voice spec, frequency) to the
    longest waveform synthesized so far for that pair. A note reads the first
    samples of its entry, and an entry shorter than the note is extended by
    synthesizing only its missing tail. Pass one dict to several calls to
    share their notes; the output is the same as with a fresh dict, which is
    the default.
    """
    if tones is None:
        tones = {}
    total = max((_spine_seconds(doc, s, quarter_bpm) for s in range(doc.spine_count)), default=0.0)
    n = int(round(total * SAMPLE_RATE))
    mix = np.zeros(n, dtype=np.float64)
    for spine, voice in enumerate(voices_for(doc.spine_count)):
        for start, dur, freq in _spine_notes(doc, spine, quarter_bpm):
            s0 = int(round(start * SAMPLE_RATE))
            s1 = min(int(round((start + dur) * SAMPLE_RATE)), n)
            if s1 <= s0:
                continue
            wave = tones.get((voice, freq))
            if wave is None:
                wave = tones[voice, freq] = _note_wave(voice, freq, s1 - s0)
            elif wave.size < s1 - s0:
                tail = _note_wave(voice, freq, s1 - s0, wave.size)
                wave = tones[voice, freq] = np.concatenate((wave, tail))
            mix[s0:s1] += wave[: s1 - s0]
    peak = np.max(np.abs(mix)) if n else 0.0
    if peak > 0:
        mix *= PEAK_LEVEL / peak
    return mix
