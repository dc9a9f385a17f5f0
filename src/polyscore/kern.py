"""Parsing, fragmentation and tempo annotation of **kern scores.

Supports the restricted **kern subset used throughout this package: up to four
voices, canonical power-of-two durations with at most one dot, single sharps and
flats, octaves 2-7, ties and fermatas. Interpretation records, spine splits,
chords, grace notes and ornament marks are accepted by :func:`parse_kern` and
reduced away as it reads, so every document holds one event per voice per row.
"""
from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

CANONICAL_DURATIONS = (1, 2, 4, 8, 16, 32, 64)
MAX_VOICES = 4

STEP_SEMITONES = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}

# Quarter-notes-per-minute for the textual tempo labels found in corpus files.
TEMPO_MAP = {
    "largo assai": 40,
    "largo": 50,
    "poco largo": 60,
    "adagio": 71,
    "poco adagio": 76,
    "andante": 92,
    "andantino": 100,
    "menuetto": 112,
    "moderato": 114,
    "poco allegretto": 116,
    "allegretto": 118,
    "allegro moderato": 120,
    "poco allegro": 124,
    "allegro": 130,
    "molto allegro": 134,
    "allegro assai": 138,
    "vivace": 150,
    "allegro vivace": 160,
    "allegro vivace assai": 170,
    "poco presto": 180,
    "presto": 186,
    "presto assai": 200,
}

TEMPO_JITTER_LOW = 0.94
TEMPO_JITTER_HIGH = 1.06

# Performance/editorial marks that carry no pitch or rhythm information; the
# tokenizer drops them so the surrounding note still parses.
_DECORATIONS = set("LJKk\\/(){}'`~^uvzXxyNO:&ITtSs$MmWwR\"")

_TOKEN_RE = re.compile(
    r"^(?P<open>\[)?"
    r"(?P<dur>\d+)"
    r"(?P<dots>\.*)"
    r"(?P<body>[a-g]+|[A-G]+|r)"
    r"(?P<acc>\#{1,2}|-{1,2}|n)?"
    r"(?P<tail>[\];]*)$"
)


class KernError(DataError):
    """Base error for kern parsing and fragmentation, tagged with a location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            where = f" ({where})"
        super().__init__(message + where)


class MalformedSpine(KernError):
    """A row does not match the number of currently active spines."""


class UnknownToken(KernError):
    """A cell cannot be interpreted as an event of the supported subset."""


class InvalidTie(KernError):
    """A tie close appears in a spine with no tie open on its pitch."""


class TooManyVoices(KernError):
    """More than four base spines."""


class UnsupportedNotation(KernError):
    """Double dot, double sharp or double flat in a score."""


class NoBarlines(KernError):
    """Fragmentation requested on a document without any barline, or without any note or rest."""


class UnknownTempoLabel(KernError):
    """Tempo label missing from the tempo table."""


@dataclass(frozen=True)
class ScoreEvent:
    """One voice's event in a data row: a note, rest or continuation.

    Events that :func:`parse_kern` stores always lie inside the supported
    subset (at most one dot, at most one sharp or flat).
    """

    kind: str  # "note" | "rest" | "continuation"
    duration: int | None = None
    dots: int = 0
    step: str | None = None
    accidental: int = 0
    octave: int | None = None
    tie: str = "none"  # "none" | "open" | "close"
    fermata: bool = False

    @property
    def midi(self) -> int:
        """MIDI note number (A4 = 69). Notes only."""
        if self.kind != "note":
            raise ValueError("midi number is only defined for notes")
        return (self.octave + 1) * 12 + STEP_SEMITONES[self.step] + self.accidental


CONTINUATION = ScoreEvent(kind="continuation")


@dataclass(frozen=True)
class Row:
    """One time-ordered line of the score.

    A data row holds one event per spine in ``cells`` and has at least one
    event that is not a continuation; a barline row holds no cells.
    """

    kind: str  # "data" | "barline"
    cells: tuple[ScoreEvent, ...] = ()


@dataclass(frozen=True)
class KernDocument:
    spine_count: int
    rows: tuple[Row, ...]
    tempo_text: str | None = field(default=None, compare=False)

    def barline_count(self) -> int:
        return sum(1 for r in self.rows if r.kind == "barline")


def _parse_event(token: str, line: int, column: int) -> ScoreEvent:
    stripped = "".join(ch for ch in token if ch not in _DECORATIONS and ch not in "qQ")
    if "_" in stripped:
        raise UnknownToken(f"tie continuation {token!r} is not supported", line, column)
    m = _TOKEN_RE.match(stripped)
    if not m:
        raise UnknownToken(f"cannot parse cell {token!r}", line, column)

    try:
        duration = int(m.group("dur"))
    except ValueError:  # more digits than int() converts, 4300 by default
        raise UnknownToken(f"duration of {len(m.group('dur'))} digits in {token!r} is not canonical", line, column) from None
    if duration not in CANONICAL_DURATIONS:
        raise UnknownToken(f"duration {duration} in {token!r} is not canonical", line, column)
    dots = len(m.group("dots"))
    if dots > 2:
        raise UnknownToken(f"too many dots in {token!r}", line, column)

    tail = m.group("tail")
    if tail.count("]") > 1 or tail.count(";") > 1:
        raise UnknownToken(f"repeated tie or fermata marks in {token!r}", line, column)
    tie_open = m.group("open") is not None
    tie_close = "]" in tail
    fermata = ";" in tail

    body = m.group("body")
    if body == "r":
        if tie_open or tie_close or m.group("acc"):
            raise UnknownToken(f"rest with tie or accidental in {token!r}", line, column)
        return ScoreEvent(kind="rest", duration=duration, dots=dots, fermata=fermata)

    if len(set(body)) != 1:
        raise UnknownToken(f"mixed pitch letters in {token!r}", line, column)
    letter = body[0]
    octave = 4 + (len(body) - 1) if letter.islower() else 4 - len(body)
    if not 2 <= octave <= 7:
        raise UnknownToken(f"octave {octave} out of range in {token!r}", line, column)
    acc_text = m.group("acc") or ""
    accidental = {"": 0, "n": 0}.get(acc_text, len(acc_text) * (1 if acc_text.startswith("#") else -1))

    if tie_open and tie_close:
        raise UnknownToken(f"note {token!r} both opens and closes a tie", line, column)
    tie = "open" if tie_open else ("close" if tie_close else "none")
    return ScoreEvent(
        kind="note",
        duration=duration,
        dots=dots,
        step=letter.upper(),
        accidental=accidental,
        octave=octave,
        tie=tie,
        fermata=fermata,
    )


def _parse_cell(token: str, line: int, column: int) -> tuple[ScoreEvent, tuple[tuple[str, int, bool], ...]]:
    """Parse one cell into the event it reduces to and its tie marks.

    Each mark is (``"open"`` or ``"close"``, its note's MIDI number, whether
    that note is kept). A chord reduces to its lowest note, and a grace note
    to a continuation.
    """
    if token == ".":
        return CONTINUATION, ()
    parts = [p for p in token.split(" ") if p]
    events = [_parse_event(p, line, column) for p in parts]
    if not events:
        raise UnknownToken("empty cell", line, column)
    if len(events) > 1 and any(e.kind != "note" for e in events):
        raise UnknownToken(f"chord {token!r} may only contain notes", line, column)
    lowest = min(range(len(events)), key=lambda i: events[i].midi) if len(events) > 1 else 0
    grace = "q" in parts[lowest] or "Q" in parts[lowest]
    marks = tuple((e.tie, e.midi, i == lowest and not grace) for i, e in enumerate(events) if e.tie != "none")
    return (CONTINUATION if grace else events[lowest]), marks


def _apply_manipulators(groups: list[int], cells: list[str], line: int) -> list[int]:
    """Update per-base-spine subspine counts for a row of *^ / *v tokens."""
    new_groups = []
    pos = 0
    for count in groups:
        group_cells = cells[pos : pos + count]
        pos += count
        new_count = count + sum(1 for c in group_cells if c == "*^")
        run = 0
        for c in group_cells + ["*"]:
            if c == "*v":
                run += 1
            else:
                if run == 1:
                    raise MalformedSpine("*v must merge at least two subspines", line)
                if run >= 2:
                    new_count -= run - 1
                run = 0
        if new_count < 1:
            raise MalformedSpine("spine merged out of existence", line)
        new_groups.append(new_count)
    return new_groups


def parse_kern(text: str) -> KernDocument:
    """Parse a **kern document into its encodable form, one row at a time.

    Every cell is parsed and every tie mark paired, in all subspines and
    chord notes, so the first defect in file order is the one raised. A tie
    close pairs with the latest open of the same pitch (MIDI number) in its
    base spine.

    Parameters
    ----------
    text : str
        Tab-separated kern text; LF and CRLF line endings are both accepted.

    Returns
    -------
    KernDocument
        Data and barline rows in source order. Interpretation records are
        dropped after their spine splits and merges are applied. Each data
        row keeps one event per base spine: the leftmost subspine of a split,
        the lowest note of a chord, a continuation for a grace note. Rows
        left with only continuations are dropped. A tie keeps its marks
        only while both its notes are kept: a tie opened on a note that is
        not kept (a grace note, a chord's upper note or a right-hand
        subspine) loses its close, and one closed on such a note loses its
        open. So every kept close has its open, and a kept open stays
        unclosed only where the source leaves a tie open.

    Raises
    ------
    MalformedSpine
        Cell count of a row does not match the active spine count.
    UnknownToken
        A cell is outside the supported subset, or an exclusive
        interpretation (``**``) follows the header row.
    InvalidTie
        A tie close has no open tie of its pitch in its spine.
    TooManyVoices
        The header row has more than four spines.
    UnsupportedNotation
        A kept event has a double dot, double sharp or double flat.
    """
    lines = text.replace("\r\n", "\n").split("\n")
    spine_count = 0
    groups: list[int] = []
    rows: list[Row] = []
    tempo_text: str | None = None
    # per (base spine, midi): the row of each open tie, None where its note is not kept
    ties: dict[tuple[int, int], list[int | None]] = {}
    severed: list[tuple[int, int]] = []  # (row, spine) of kept opens closed on a dropped note
    started = False
    for lineno, raw in enumerate(lines, start=1):
        if raw == "":
            continue
        if raw.startswith("!!"):
            m = re.match(r"!!!OMD[^:]*:\s*(.+)", raw)
            if m:
                tempo_text = m.group(1).strip()
            continue
        if raw.startswith("!"):
            continue
        cells = raw.split("\t")
        if not started:
            if not all(c.startswith("**") for c in cells):
                raise MalformedSpine("document must start with a **kern header row", lineno)
            if any(c != "**kern" for c in cells):
                raise UnknownToken("only **kern spines are supported", lineno)
            spine_count = len(cells)
            if spine_count > MAX_VOICES:
                raise TooManyVoices(f"{spine_count} spines exceed the {MAX_VOICES}-voice limit")
            groups = [1] * spine_count
            started = True
            continue

        active = sum(groups)
        if any(c.startswith("**") for c in cells):
            raise UnknownToken("exclusive interpretation after the header row", lineno)
        if all(c.startswith("*") for c in cells):
            if len(cells) != active:
                raise MalformedSpine(
                    f"interpretation row has {len(cells)} cells, {active} spines active", lineno
                )
            if all(c == "*-" for c in cells):
                break
            if any(c in ("*+", "*x") for c in cells):
                raise UnknownToken("spine addition/exchange is not supported", lineno)
            if any(c in ("*^", "*v") for c in cells):
                groups = _apply_manipulators(groups, cells, lineno)
            continue

        if any(c.startswith("=") for c in cells):
            if not all(c.startswith("=") for c in cells):
                raise MalformedSpine("barline must appear in every spine", lineno)
            if len(cells) != active:
                raise MalformedSpine(
                    f"barline row has {len(cells)} cells, {active} spines active", lineno
                )
            rows.append(Row(kind="barline"))
            continue

        if len(cells) != active:
            raise MalformedSpine(
                f"data row has {len(cells)} cells, {active} spines active", lineno
            )
        kept = []
        pos = 0
        for base, count in enumerate(groups):
            for offset, c in enumerate(cells[pos : pos + count]):
                col = pos + offset + 1
                ev, marks = _parse_cell(c, lineno, col)
                if not offset and (ev.dots > 1 or abs(ev.accidental) > 1):
                    raise UnsupportedNotation(
                        "double dots/sharps/flats are outside the supported subset", lineno
                    )
                for tie, midi, kept_note in marks:
                    kept_note = kept_note and not offset  # only the leftmost subspine survives a split
                    opens = ties.setdefault((base, midi), [])
                    if tie == "open":
                        opens.append(len(rows) if kept_note else None)
                    elif not opens:
                        raise InvalidTie("tie close without a matching open", lineno, col)
                    else:
                        row = opens.pop()
                        if kept_note and row is None:
                            ev = dataclasses.replace(ev, tie="none")
                        elif not kept_note and row is not None:
                            severed.append((row, base))
                if not offset:
                    kept.append(ev)
            pos += count
        if any(ev.kind != "continuation" for ev in kept):
            rows.append(Row(kind="data", cells=tuple(kept)))

    if not started:
        raise MalformedSpine("document has no **kern header row")
    _drop_ties(rows, severed)
    return KernDocument(spine_count=spine_count, rows=tuple(rows), tempo_text=tempo_text)


def _measure_slices(rows: tuple[Row, ...]) -> list[list[Row]]:
    """Group rows into measures; each measure ends with its closing barline."""
    measures: list[list[Row]] = []
    current: list[Row] = []
    seen_data = False
    for row in rows:
        current.append(row)
        if row.kind == "data":
            seen_data = True
        elif row.kind == "barline":
            if seen_data:
                measures.append(current)
                current = []
                seen_data = False
            # leading barline stays attached to the upcoming measure
    if any(r.kind == "data" for r in current):
        measures.append(current)
    return measures


def _sever_boundary_ties(rows: list[Row]) -> list[Row]:
    """Drop tie opens/closes whose partner lies outside the given rows."""
    opens: dict[tuple[int, int], list[tuple[int, int]]] = {}  # by (spine, midi)
    drops: set[tuple[int, int]] = set()
    for ri, row in enumerate(rows):
        for si, ev in enumerate(row.cells):
            if ev.tie == "none":
                continue
            stack = opens.setdefault((si, ev.midi), [])
            if ev.tie == "open":
                stack.append((ri, si))
            elif stack:
                stack.pop()
            else:
                drops.add((ri, si))
    for stack in opens.values():
        drops.update(stack)
    _drop_ties(rows, drops)
    return rows


def _drop_ties(rows: list[Row], cells) -> None:
    """Remove the tie marks of the given (row, spine) cells, in place."""
    for ri, si in cells:
        events = list(rows[ri].cells)
        events[si] = dataclasses.replace(events[si], tie="none")
        rows[ri] = Row(kind="data", cells=tuple(events))


def fragment(
    doc: KernDocument,
    rng_seed: int,
    min_measures: int,
    max_measures: int,
    allow_overlap: bool,
) -> list[KernDocument]:
    """Cut a document into fragments of whole measures.

    Fragment sizes are drawn uniformly from [min_measures, max_measures] with a
    seeded generator. Without overlap the fragments partition the measures in
    order (a final fragment shorter than the minimum is kept); with overlap the
    start of each next fragment is drawn to advance by 1..size measures, so
    consecutive fragments may share measures. Ties crossing a fragment boundary
    are severed.
    """
    measures = _measure_slices(doc.rows)
    if doc.barline_count() == 0:
        raise NoBarlines("document has no barlines to fragment on")
    if not measures:
        raise NoBarlines("document has no notes or rests to fragment")
    total = len(measures)
    rng = np.random.default_rng(rng_seed)
    spans: list[tuple[int, int]] = []
    pos = 0
    while pos < total:
        size = int(rng.integers(min_measures, max_measures + 1))
        if not allow_overlap:
            size = min(size, total - pos)
            spans.append((pos, pos + size))
            pos += size
        else:
            end = min(pos + size, total)
            start = max(0, end - size)
            spans.append((start, end))
            if end == total:
                break
            pos = start + int(rng.integers(1, size + 1))
    out = []
    for start, end in spans:
        rows: list[Row] = []
        for measure in measures[start:end]:
            rows.extend(measure)
        rows = _sever_boundary_ties(rows)
        out.append(
            KernDocument(spine_count=doc.spine_count, rows=tuple(rows), tempo_text=doc.tempo_text)
        )
    return out


def assign_tempo(label: str, rng_seed: int | None = None) -> float:
    """Resolve a tempo label to quarter-notes per minute, optionally jittered.

    With a seed, the table value is scaled by a uniform draw in
    [0.94, 1.06]; with ``rng_seed=None`` the table value is returned exactly.
    Matching is case-insensitive with internal whitespace collapsed.
    """
    key = " ".join(label.split()).lower()
    if key not in TEMPO_MAP:
        raise UnknownTempoLabel(f"no tempo table entry for {label!r}")
    base = TEMPO_MAP[key]
    factor = 1.0
    if rng_seed is not None:
        factor = float(np.random.default_rng(rng_seed).uniform(TEMPO_JITTER_LOW, TEMPO_JITTER_HIGH))
    return base * factor


def event_to_token(ev: ScoreEvent) -> str:
    if ev.kind == "continuation":
        return "."
    if ev.kind == "rest":
        return f"{ev.duration}{'.' * ev.dots}r{';' if ev.fermata else ''}"
    if ev.kind != "note":
        raise ValueError(f"cannot serialize event kind {ev.kind!r}")
    letter = ev.step.lower() * (ev.octave - 3) if ev.octave >= 4 else ev.step.upper() * (4 - ev.octave)
    acc = {0: "", 1: "#", -1: "-"}[ev.accidental]
    return (
        ("[" if ev.tie == "open" else "")
        + f"{ev.duration}{'.' * ev.dots}"
        + letter
        + acc
        + ("]" if ev.tie == "close" else "")
        + (";" if ev.fermata else "")
    )


def serialize(doc: KernDocument) -> str:
    """Render a document back to **kern text (LF line endings)."""
    lines = []
    if doc.tempo_text:
        lines.append(f"!!!OMD: {doc.tempo_text}")
    lines.append("\t".join(["**kern"] * doc.spine_count))
    for row in doc.rows:
        if row.kind == "barline":
            lines.append("\t".join(["="] * doc.spine_count))
        else:
            lines.append("\t".join(event_to_token(e) for e in row.cells))
    lines.append("\t".join(["*-"] * doc.spine_count))
    return "\n".join(lines) + "\n"
