"""Polyphonic audio-to-score transcription at desk scale.

Pipeline: **kern corpus preparation and additive synthesis build ground-truth
(audio, token) pairs; a log-frequency spectrogram feeds a small
convolutional-recurrent network trained with an alignment-free loss; greedy
decoding plus blank collapse turns posteriors back into score tokens, scored
by word/symbol error rates.
"""

__version__ = "0.1.0"

from .kern import KernDocument, ScoreEvent, TempoMark, parse_kern, preprocess, fragment, assign_tempo
from .codec import Vocabulary, TokenSequence, build_vocabulary, encode, decode, segment_words
from .dsp import AudioClip, Spectrogram, load_wav, stft_logfreq
from .synth import SynthVoiceSpec, render
from .ctc import ctc_loss, greedy_decode, collapse
from .net import ModelConfig, ModelParams, forward, backward
from .metrics import EditStats, edit_distance, wer, cer

__all__ = [
    "KernDocument", "ScoreEvent", "TempoMark", "parse_kern", "preprocess", "fragment",
    "assign_tempo", "Vocabulary", "TokenSequence", "build_vocabulary", "encode", "decode",
    "segment_words", "AudioClip", "Spectrogram", "load_wav", "stft_logfreq", "SynthVoiceSpec",
    "render", "ctc_loss", "greedy_decode", "collapse", "ModelConfig", "ModelParams",
    "forward", "backward", "EditStats", "edit_distance", "wer", "cer",
]
