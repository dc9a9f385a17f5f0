"""Word and symbol error rates over token sequences.

Words are the note/rest/barline groups produced by :func:`codec.segment_words`;
tab and newline separators count only toward the symbol-level rate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import TokenSequence, segment_words
from .errors import DataError


class EmptyReference(DataError):
    """Error rate against an empty reference is undefined."""


@dataclass(frozen=True)
class EditStats:
    substitutions: int
    insertions: int
    deletions: int
    reference_length: int

    @property
    def edits(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def rate(self) -> float:
        if self.reference_length == 0:
            raise EmptyReference("reference is empty")
        return self.edits / self.reference_length


def edit_distance(ref, hyp) -> EditStats:
    """Minimal edit operation counts turning ``hyp`` into ``ref``.

    Among minimal-cost alignments, substitutions are preferred over
    insert+delete pairs. Computed with a single packed cost per cell:
    substitutions cost K and insertions/deletions K+1 with K larger than any
    possible indel count, which makes the packed minimum lexicographic in
    (total edits, indel count).
    """
    ref = list(ref)
    hyp = list(hyp)
    n, m = len(ref), len(hyp)
    if n == 0 or m == 0:
        return EditStats(
            substitutions=0,
            insertions=n if m == 0 else 0,
            deletions=m if n == 0 else 0,
            reference_length=n,
        )
    ids = {}
    ref_ids = np.array([ids.setdefault(x, len(ids)) for x in ref], dtype=np.int64)
    hyp_ids = np.array([ids.setdefault(x, len(ids)) for x in hyp], dtype=np.int64)
    big = np.int64(n + m + 1)
    indel = big + 1
    j_scaled = np.arange(m + 1, dtype=np.int64) * indel
    prev = j_scaled.copy()
    for i in range(1, n + 1):
        diag = prev[:-1] + big * (hyp_ids != ref_ids[i - 1])
        up = prev[1:] + indel
        row = np.empty(m + 1, dtype=np.int64)
        row[0] = i * indel
        row[1:] = np.minimum(diag, up)
        # resolve the left-to-right insertion dependency with a prefix min
        shifted = np.minimum.accumulate(row - j_scaled)
        row = shifted + j_scaled
        prev = row
    packed = int(prev[m])
    total, pairs = divmod(packed, int(big))
    # converting hyp into ref: insertions grow hyp, deletions shrink it
    ins = (pairs + (n - m)) // 2
    dele = pairs - ins
    return EditStats(
        substitutions=total - pairs, insertions=ins, deletions=dele, reference_length=n
    )


def wer(ref: TokenSequence, hyp: TokenSequence) -> EditStats:
    """Edit statistics over word sequences; rate is edits per reference word."""
    ref_words = segment_words(ref)
    if not ref_words:
        raise EmptyReference("reference has no words")
    return edit_distance(ref_words, segment_words(hyp))


def cer(ref: TokenSequence, hyp: TokenSequence) -> EditStats:
    """Edit statistics over raw token sequences, separators included."""
    if len(ref) == 0:
        raise EmptyReference("reference has no tokens")
    return edit_distance(ref.tokens, hyp.tokens)


def corpus_rate(stats: list[EditStats]) -> float:
    """Micro-averaged rate: total edits over total reference length."""
    total_len = sum(s.reference_length for s in stats)
    if total_len == 0:
        raise EmptyReference("no reference material")
    return sum(s.edits for s in stats) / total_len
