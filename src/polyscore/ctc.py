"""Alignment-free sequence loss, its gradient, and greedy decoding.

The loss sums, over every frame labeling that collapses to the target, the
product of per-frame posteriors. It reads per-frame log-posteriors, as the
network emits them, and all lattice math runs in log domain; minus infinity
marks impossible states and propagates through ``np.logaddexp``. The blank
symbol is always index 0.
"""
from __future__ import annotations

import numpy as np

from .errors import ModelError

BLANK = 0


class InfeasibleLength(ModelError):
    """Target cannot be emitted in the given number of frames."""


def _target_labels(target) -> np.ndarray:
    labels = np.asarray(getattr(target, "tokens", target), dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("target must be a flat sequence of labels")
    if np.any(labels == BLANK):
        raise ValueError("blank must not appear in a target sequence")
    return labels


def _augment(labels: np.ndarray) -> np.ndarray:
    aug = np.full(2 * labels.size + 1, BLANK, dtype=np.int64)
    aug[1::2] = labels
    return aug


def min_frames(labels: np.ndarray) -> int:
    """Frames needed to emit the labels: length plus adjacent repeats."""
    repeats = int(np.sum(labels[1:] == labels[:-1])) if labels.size > 1 else 0
    return labels.size + repeats


def _forward(emit: np.ndarray, aug: np.ndarray) -> np.ndarray:
    """log alpha[t, s]: mass of the paths that emit frames 0..t and end in state s.

    ``emit`` holds each state's log-posterior per frame, (L, S). A path starts
    in state 0 or 1; state s is entered from s, from s-1, and from s-2 when
    that neither merges a repeated label nor hops over a required blank.
    """
    L, S = emit.shape
    # 0 where the s-2 -> s skip is allowed, -inf where it is not
    skip_cost = np.full(max(S - 2, 0), -np.inf)
    skip_cost[(aug[2:] != BLANK) & (aug[2:] != aug[:-2])] = 0.0
    log_alpha = np.full((L, S), -np.inf)
    log_alpha[0, :2] = emit[0, :2]
    for t in range(1, L):
        prev = log_alpha[t - 1]
        acc = log_alpha[t]
        acc[0] = prev[0]
        acc[1:] = np.logaddexp(prev[1:], prev[:-1])
        acc[2:] = np.logaddexp(acc[2:], prev[:-2] + skip_cost)
        acc += emit[t]
    return log_alpha


def ctc_loss(log_probs, target) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of the target and its gradient, in one pass.

    Parameters
    ----------
    log_probs : (L, V) array
        Per-frame log-posteriors: the row log-softmax of the logits.
    target : TokenSequence or sequence of int
        Blank-free label sequence.

    Returns
    -------
    (float, (L, V) float64 array)
        The loss and its gradient with respect to the logits, the posteriors
        minus the per-frame label occupancy (Graves et al., 2006, eq. 16).
    """
    logp = np.asarray(log_probs, dtype=np.float64)
    labels = _target_labels(target)
    L, V = logp.shape
    need = min_frames(labels)
    if L < need:
        raise InfeasibleLength(f"{L} frames cannot emit {labels.size} labels (need {need})")
    aug = _augment(labels)
    emit = logp[:, aug]
    log_alpha = _forward(emit, aug)
    # beta is alpha of the lattice reversed in time and in state order; like
    # alpha it includes the emission of its own frame
    log_beta = _forward(emit[::-1, ::-1], aug[::-1])[::-1, ::-1]
    log_total = float(np.logaddexp.reduce(log_alpha[-1, -2:]))
    # alpha and beta both count the emission at (t, s): take it out once, and
    # leave cells that cannot emit at -inf instead of -inf - -inf
    with np.errstate(invalid="ignore"):
        log_gamma = np.where(emit > -np.inf, log_alpha + log_beta - emit - log_total, -np.inf)
    occupancy = np.exp(log_gamma) @ (aug[:, None] == np.arange(V))
    return -log_total, np.exp(logp) - occupancy


def greedy_decode(log_probs) -> np.ndarray:
    """Per-frame argmax labels; ties break toward the lowest index."""
    return np.argmax(log_probs, axis=1)


def collapse(labels) -> list[int]:
    """Merge runs of equal labels, then delete blanks."""
    out: list[int] = []
    prev = None
    for raw in labels:
        label = int(raw)
        if label != prev:
            if label != BLANK:
                out.append(label)
            prev = label
    return out
