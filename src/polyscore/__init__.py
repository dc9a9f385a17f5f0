"""Polyphonic audio-to-score transcription at desk scale.

Pipeline: **kern corpus preparation and additive synthesis build ground-truth
(audio, token) pairs; a log-frequency spectrogram feeds a small
convolutional-recurrent network trained with an alignment-free loss; greedy
decoding plus blank collapse turns posteriors back into score tokens, scored
by word/symbol error rates.
"""

__version__ = "0.1.0"
