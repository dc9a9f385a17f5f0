"""Symbol alphabet and conversion between kern documents and token sequences.

Every note is two symbols (duration, pitch), rests are a bare duration symbol,
and the two-dimensional score layout is kept through explicit tab and newline
symbols. Index 0 is reserved for the blank used by the alignment-free loss.
"""
from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field

from .atomic import atomic_open
from .errors import DataError, ModelError
from .kern import CONTINUATION, MAX_VOICES, KernDocument, Row, ScoreEvent

EPSILON = "<eps>"
TAB = "\t"
NEWLINE = "\n"
DOT = "."
BARLINE = "="
TIE_OPEN = "["
TIE_CLOSE = "]"
FERMATA = ";"

STRUCTURAL_SYMBOLS = (EPSILON, TAB, NEWLINE, DOT, BARLINE, TIE_OPEN, TIE_CLOSE, FERMATA)

_STEP_ORDER = "CDEFGAB"
_PITCH_RE = re.compile(r"^([A-G])(#|-)?([2-7])$")
_DURATION_RE = re.compile(r"^(\d+)(\.?)$")


class EmptyCorpus(DataError):
    """Vocabulary construction over zero documents."""


class OutOfVocabulary(DataError):
    """An event has no symbol in the vocabulary."""


class ScoreSyntaxError(ModelError):
    """Token sequence does not form a well-formed score; carries the failing token position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (token position {position})")
        self.position = position


def duration_symbol(duration: int, dots: int) -> str:
    return f"{duration}{'.' * dots}"


def pitch_symbol(step: str, accidental: int, octave: int) -> str:
    acc = {0: "", 1: "#", -1: "-"}[accidental]
    return f"{step}{acc}{octave}"


@dataclass(frozen=True)
class Vocabulary:
    """Bijective symbol/index table with the blank fixed at index 0."""

    symbols: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)
    _kinds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.symbols or self.symbols[0] != EPSILON:
            raise ValueError(f"symbol 0 must be {EPSILON!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols in vocabulary")
        for s in STRUCTURAL_SYMBOLS:
            if s not in self.symbols:
                raise ValueError(f"structural symbol {s!r} missing")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})
        object.__setattr__(self, "_kinds", tuple(_classify(s) for s in self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def index_of(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise OutOfVocabulary(f"symbol {_escape(symbol)!r} not in vocabulary") from None

    def kind_of(self, index: int) -> str:
        return self._kinds[index][0]

    def payload_of(self, index: int):
        return self._kinds[index][1]

    def save(self, path) -> None:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            for s in self.symbols:
                fh.write(_escape(s) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read a file written by :meth:`save`; a malformed one raises DataError naming it."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().split("\n")
            if lines and lines[-1] == "":
                lines = lines[:-1]
            return cls(symbols=tuple(_unescape(s) for s in lines))
        except ValueError as exc:  # UnicodeDecodeError is one
            raise DataError(f"cannot read vocabulary {path}: {exc}") from exc

    def sha256(self) -> bytes:
        payload = "\n".join(_escape(s) for s in self.symbols).encode("utf-8")
        return hashlib.sha256(payload).digest()


def _escape(symbol: str) -> str:
    return symbol.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def _unescape(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            out.append({"t": "\t", "n": "\n", "\\": "\\"}.get(text[i + 1], text[i + 1]))
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def _classify(symbol: str):
    structural = {
        EPSILON: "eps",
        TAB: "tab",
        NEWLINE: "newline",
        DOT: "dot",
        BARLINE: "barline",
        TIE_OPEN: "tie_open",
        TIE_CLOSE: "tie_close",
        FERMATA: "fermata",
    }
    if symbol in structural:
        return structural[symbol], None
    m = _DURATION_RE.match(symbol)
    if m:
        return "duration", (int(m.group(1)), len(m.group(2)))
    m = _PITCH_RE.match(symbol)
    if m:
        acc = {None: 0, "#": 1, "-": -1}[m.group(2)]
        return "pitch", (m.group(1), acc, int(m.group(3)))
    raise ValueError(f"unclassifiable symbol {_escape(symbol)!r}")


@dataclass(frozen=True)
class TokenSequence:
    tokens: tuple[int, ...]
    vocab: Vocabulary = field(compare=False)

    def __post_init__(self):
        n = len(self.vocab)
        if any(not 0 <= t < n for t in self.tokens):
            raise ValueError("token index out of range")

    def __len__(self) -> int:
        return len(self.tokens)

    def symbols(self) -> list[str]:
        return [self.vocab.symbols[t] for t in self.tokens]


def build_vocabulary(corpus) -> Vocabulary:
    """Collect the symbol set of a corpus of parsed documents in canonical order.

    Structural symbols come first in a fixed order, then the observed
    duration symbols sorted by (duration, dots), then the observed pitch
    symbols sorted by (octave, step, accidental). The result is independent
    of corpus ordering.
    """
    docs = list(corpus)
    if not docs:
        raise EmptyCorpus("cannot build a vocabulary from zero documents")
    durations: set[tuple[int, int]] = set()
    pitches: set[tuple[str, int, int]] = set()
    for doc in docs:
        for row in doc.rows:
            if row.kind != "data":
                continue
            for ev in row.cells:
                if ev.kind in ("note", "rest"):
                    durations.add((ev.duration, ev.dots))
                if ev.kind == "note":
                    pitches.add((ev.step, ev.accidental, ev.octave))
    dur_symbols = [duration_symbol(d, k) for d, k in sorted(durations)]
    pitch_symbols = [
        pitch_symbol(s, a, o)
        for s, a, o in sorted(pitches, key=lambda p: (p[2], _STEP_ORDER.index(p[0]), p[1]))
    ]
    return Vocabulary(symbols=STRUCTURAL_SYMBOLS + tuple(dur_symbols) + tuple(pitch_symbols))


def _event_symbols(ev: ScoreEvent) -> list[str]:
    if ev.kind == "continuation":
        return [DOT]
    symbols = []
    if ev.tie == "open":
        symbols.append(TIE_OPEN)
    symbols.append(duration_symbol(ev.duration, ev.dots))
    if ev.kind == "note":
        symbols.append(pitch_symbol(ev.step, ev.accidental, ev.octave))
        if ev.tie == "close":
            symbols.append(TIE_CLOSE)
    if ev.fermata:
        symbols.append(FERMATA)
    return symbols


def encode(doc: KernDocument, vocab: Vocabulary) -> TokenSequence:
    """Serialize a parsed document row-major into vocabulary indices.

    Data rows become tab-separated cells terminated by a newline symbol;
    barline rows collapse to a single barline symbol plus newline.
    """
    out: list[int] = []
    for row in doc.rows:
        if row.kind == "barline":
            out.append(vocab.index_of(BARLINE))
            out.append(vocab.index_of(NEWLINE))
            continue
        for ci, ev in enumerate(row.cells):
            if ci:
                out.append(vocab.index_of(TAB))
            for s in _event_symbols(ev):
                out.append(vocab.index_of(s))
        out.append(vocab.index_of(NEWLINE))
    return TokenSequence(tokens=tuple(out), vocab=vocab)


def decode(seq: TokenSequence) -> KernDocument:
    """Parse a token sequence back into a document; inverse of :func:`encode`.

    Raises :class:`ScoreSyntaxError` when the sequence is not a well-formed
    score, carrying the failing token position. Well-formed means that
    :func:`kern.parse_kern` reads the serialized document back unchanged: at
    most four spines, no row of only continuations, and every tie close
    paired with an open tie of the same pitch (MIDI number) in its spine.
    """
    vocab = seq.vocab
    kinds = [vocab.kind_of(t) for t in seq.tokens] + ["end"]  # the sentinel sits at position len(tokens)
    rows: list[Row] = []
    spine_count: int | None = None
    open_ties: Counter[tuple[int, int]] = Counter()  # by (spine, midi)

    i = 0
    while kinds[i] != "end":
        row_start = i
        if kinds[i] == "barline":
            i += 1
            if kinds[i] != "newline":
                raise ScoreSyntaxError("barline must be followed by a newline", i)
            i += 1
            rows.append(Row(kind="barline"))
            continue
        cells: list[ScoreEvent] = []
        while True:
            cell_start = i
            kind = kinds[i]
            if kind == "end":
                raise ScoreSyntaxError("sequence ended inside a row", i)
            if kind in ("tab", "newline"):
                raise ScoreSyntaxError("row with empty cells", i)
            if kind == "dot":
                cells.append(CONTINUATION)
                i += 1
            else:
                tie_open = kind == "tie_open"
                if tie_open:
                    i += 1
                    kind = kinds[i]
                    if kind == "end":
                        raise ScoreSyntaxError("sequence ended after a tie open", i)
                if kind != "duration":
                    raise ScoreSyntaxError(f"expected a duration symbol, found {kind}", i)
                duration, dots = vocab.payload_of(seq.tokens[i])
                i += 1
                step, accidental, octave = None, 0, None
                tie, tie_at = "none", i
                if kinds[i] == "pitch":
                    step, accidental, octave = vocab.payload_of(seq.tokens[i])
                    i += 1
                    if kinds[i] == "tie_close":
                        if tie_open:
                            raise ScoreSyntaxError("note both opens and closes a tie", cell_start)
                        tie, tie_at = "close", i
                        i += 1
                    elif tie_open:
                        tie = "open"
                elif tie_open:
                    raise ScoreSyntaxError("tie open on a rest", cell_start)
                fermata = kinds[i] == "fermata"
                i += fermata
                ev = ScoreEvent(
                    kind="rest" if step is None else "note",
                    duration=duration,
                    dots=dots,
                    step=step,
                    accidental=accidental,
                    octave=octave,
                    tie=tie,
                    fermata=fermata,
                )
                if tie != "none":
                    key = (len(cells), ev.midi)
                    if tie == "close" and not open_ties[key]:
                        raise ScoreSyntaxError("tie close without a matching open", tie_at)
                    open_ties[key] += 1 if tie == "open" else -1
                cells.append(ev)
            kind = kinds[i]
            if kind == "end":
                raise ScoreSyntaxError("truncated row without a final newline", i)
            if kind not in ("tab", "newline"):
                raise ScoreSyntaxError(f"unexpected {kind} symbol inside a row", i)
            i += 1
            if kind == "newline":
                break
        if spine_count is None:
            if len(cells) > MAX_VOICES:
                message = f"row has {len(cells)} cells, more than {MAX_VOICES} voices"
                raise ScoreSyntaxError(message, row_start)
            spine_count = len(cells)
        elif len(cells) != spine_count:
            raise ScoreSyntaxError(f"row has {len(cells)} cells, expected {spine_count}", row_start)
        if all(ev.kind == "continuation" for ev in cells):
            raise ScoreSyntaxError("row of only continuations", row_start)
        rows.append(Row(kind="data", cells=tuple(cells)))

    return KernDocument(spine_count=spine_count or 1, rows=tuple(rows))


def segment_words(seq: TokenSequence) -> list[tuple[int, ...]]:
    """Split a token sequence into words at tab/newline separators.

    Words are maximal runs of non-separator tokens; separators contribute no
    words. Note that a barline is a word of its own, and so is a continuation
    dot.
    """
    vocab = seq.vocab
    words: list[tuple[int, ...]] = []
    current: list[int] = []
    for t in seq.tokens:
        if vocab.kind_of(t) in ("tab", "newline"):
            if current:
                words.append(tuple(current))
                current = []
        else:
            current.append(t)
    if current:
        words.append(tuple(current))
    return words
