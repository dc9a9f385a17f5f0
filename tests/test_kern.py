import numpy as np
import pytest

from polyscore import kern
from conftest import FIXTURE_SOURCES


def _data_rows(doc):
    return [r for r in doc.rows if r.kind == "data"]


def test_parse_minimal_two_spine():
    doc = kern.parse_kern("**kern\t**kern\n4c\t4e\n*-\t*-\n")
    assert doc.spine_count == 2
    assert len(doc.rows) == 1
    ev = doc.rows[0].cells[0]
    assert ev.kind == "note" and ev.duration == 4 and ev.step == "C" and ev.octave == 4


def test_parse_classifies_rows():
    doc = kern.parse_kern("**kern\n*M4/4\n4c\n=\n*-\n")
    assert [r.kind for r in doc.rows] == ["data", "barline"]
    assert doc.rows[1].cells == ()
    # interpretation records leave no trace in the document
    plain = "**kern\t**kern\n4c\t4e\n=\t=\n4d\t4f\n*-\t*-\n"
    records = '*I"Violin\t*Icello\n*k[f#]\t*k[f#]\n*M4/4\t*M4/4\n'
    with_records = plain.replace("4c\t4e", records + "4c\t4e").replace("4d\t4f", "*M3/4\t*M3/4\n4d\t4f")
    assert kern.parse_kern(with_records) == kern.parse_kern(plain)


def test_parse_cell_count_mismatch():
    text = "**kern\t**kern\t**kern\t**kern\n4c\t4d\t4e\n*-\t*-\t*-\t*-\n"
    with pytest.raises(kern.MalformedSpine):
        kern.parse_kern(text)


def test_parse_crlf_and_comments():
    doc = kern.parse_kern("!! a comment\r\n**kern\r\n! local\r\n4c\r\n*-\r\n")
    assert len(doc.rows) == 1


def test_parse_collects_tempo_text():
    doc = kern.parse_kern("!!!OMD: Poco  Allegro\n**kern\n4c\n*-\n")
    assert doc.tempo_text == "Poco  Allegro"


def test_parse_spine_split_and_merge():
    text = (
        "**kern\t**kern\n"
        "4c\t4e\n"
        "*^\t*\n"
        "4c\t4d\t4e\n"
        "8c\t8d\t4f\n"
        "*v\t*v\t*\n"
        "4c\t4g\n"
        "*-\t*-\n"
    )
    doc = kern.parse_kern(text)
    assert all(len(r.cells) == 2 for r in doc.rows)
    # the leftmost subspine of the split survives
    kept = [r.cells[0].duration for r in doc.rows]
    assert kept == [4, 4, 8, 4]


def test_parse_rejects_unknown_tokens():
    for cell in ("12c", "4h", "4cd", "4ccccc", "4CCC", "4c_", "4c...", "weird"):
        with pytest.raises(kern.UnknownToken):
            kern.parse_kern(f"**kern\n{cell}\n*-\n")


def test_parse_rejects_duration_of_more_digits_than_int_converts():
    # int() refuses a string of more than 4300 digits with a bare ValueError
    with pytest.raises(kern.UnknownToken, match="duration of 5000 digits") as info:
        kern.parse_kern("**kern\t**kern\n4c\t" + "9" * 5000 + "c\n*-\t*-\n")
    assert (info.value.line, info.value.column) == (2, 2)


@pytest.mark.parametrize(
    "cell, start",
    [
        ("4c_" + "c" * 100_000, "tie continuation '4c_ccc"),
        ("weird" * 20_000, "cannot parse cell 'weirdweird"),
        ("9" * 5000 + "c", "duration of 5000 digits in '999"),
        ("9" * 100 + "c", "duration of 100 digits in '999"),
        ("4" + "." * 100_000 + "c", "too many dots in '4..."),
        ("4c" + "]" * 100_000, "repeated tie or fermata marks in '4c]]]"),
        ("[4r" + "L" * 100_000, "rest with tie or accidental in '[4rLLL"),
        ("4" + "cd" * 50_000, "mixed pitch letters in '4cdcd"),
        ("4" + "c" * 100_000, "octave 100003 out of range in '4ccc"),
        ("[4c]" + "L" * 100_000, "note '[4c]LLL"),
        ("4r" + " 4c" * 30_000, "chord '4r 4c 4c"),
    ],
)
def test_parse_messages_quote_a_bounded_prefix_of_a_long_cell(cell, start):
    with pytest.raises(kern.UnknownToken) as info:
        kern.parse_kern(f"**kern\n{cell}\n*-\n")
    message = str(info.value)
    assert message.startswith(start)
    assert f"({len(cell)} characters)" in message and len(message) < 200


def test_parse_messages_quote_a_short_cell_whole():
    for cell, message in (
        ("12c", "duration 12 in '12c' is not canonical (line 2, column 1)"),
        ("4ccccc", "octave 8 out of range in '4ccccc' (line 2, column 1)"),
        ("4r 4c", "chord '4r 4c' may only contain notes (line 2, column 1)"),
    ):
        with pytest.raises(kern.UnknownToken) as info:
            kern.parse_kern(f"**kern\n{cell}\n*-\n")
        assert str(info.value) == message


@pytest.mark.parametrize(
    "text, line",
    [
        ("**kern\n**kern\n4c\n=\n*-\n", 2),  # a repeated header line
        ("**kern\t**kern\n4c\t4e\n*\t**kern\n*-\t*-\n", 3),  # one spine's cell only
        ("**kern\n4c\n**kern\n*-\n", 3),
    ],
)
def test_parse_rejects_exclusive_interpretation_after_header(text, line):
    with pytest.raises(kern.UnknownToken) as info:
        kern.parse_kern(text)
    assert info.value.line == line


def test_parse_strips_ornaments_and_beams():
    doc = kern.parse_kern("**kern\n8cLt'\n8dJ\n*-\n")
    events = [r.cells[0] for r in doc.rows]
    assert [e.step for e in events] == ["C", "D"]


def test_parse_invalid_tie_reports_position():
    with pytest.raises(kern.InvalidTie) as info:
        kern.parse_kern("**kern\n4c]\n*-\n")
    assert info.value.line == 2


def test_parse_tie_open_close_across_rows_ok():
    doc = kern.parse_kern("**kern\n[4c\n4c]\n*-\n")
    ties = [r.cells[0].tie for r in doc.rows]
    assert ties == ["open", "close"]
    # a tie opened on a grace note is counted, though the grace note is not kept
    doc = kern.parse_kern("**kern\n[8cq\n8c]\n*-\n")
    assert [r.cells[0].duration for r in doc.rows] == [8]


def test_tie_opened_on_grace_note_drops_both_marks():
    # the grace note is not kept, so its tie's close must not be kept either:
    # a dangling close would make the serialized score unreadable
    doc = kern.parse_kern("**kern\n[8cq\n8c]\n4d\n*-\n")
    assert [(r.cells[0].duration, r.cells[0].tie) for r in doc.rows] == [(8, "none"), (4, "none")]
    text = kern.serialize(doc)
    assert "]" not in text
    assert kern.parse_kern(text) == doc
    # a tie opened on a kept note still closes on the next one
    doc = kern.parse_kern("**kern\n[4c\n8dq\n4c]\n*-\n")
    assert [r.cells[0].tie for r in doc.rows] == ["open", "close"]
    assert kern.parse_kern(kern.serialize(doc)) == doc


@pytest.mark.parametrize(
    "text, ties",
    [
        ("**kern\n4c [4g\n4g]\n*-\n", ["none", "none"]),  # opened on a chord's upper note
        ("**kern\n*^\n4c\t[4g\n*v\t*v\n4g]\n*-\n", ["none", "none"]),  # on a right-hand subspine
        ("**kern\n[8cq\n8c]\n4d\n*-\n", ["none", "none"]),  # on a grace note
        ("**kern\n[4c [4g\n4c] 4g]\n*-\n", ["open", "close"]),  # tied chords keep the kept note's tie
        ("**kern\n[4g\n4c 4g]\n4d\n*-\n", ["none", "none", "none"]),  # closed on a chord's upper note
        ("**kern\n[4g\n*^\n4c\t4g]\n*v\t*v\n4d\n*-\n", ["none", "none", "none"]),  # on a right-hand subspine
        # the dropped [4g does not take the close of 4e]: ties pair by pitch
        ("**kern\n[4e\n4c [4g 4e]\n4e\n*-\n", ["none", "none", "none"]),
    ],
    ids=["chord", "split", "grace", "tied_chords", "closed_on_chord", "closed_on_split", "closed_by_pitch"],
)
def test_tie_opened_on_a_dropped_note_drops_its_close(text, ties):
    doc = kern.parse_kern(text)
    assert [r.cells[0].tie for r in doc.rows] == ties
    serialized = kern.serialize(doc)
    assert kern.parse_kern(serialized) == doc
    assert kern.serialize(kern.parse_kern(serialized)) == serialized


def test_tie_close_pairs_with_an_open_of_its_pitch():
    with pytest.raises(kern.InvalidTie) as info:
        kern.parse_kern("**kern\n[4e\n4c]\n*-\n")
    assert info.value.line == 3
    # the pitch is the MIDI number, so an enharmonic spelling closes the tie
    assert [r.cells[0].tie for r in kern.parse_kern("**kern\n[4B#\n4c]\n*-\n").rows] == ["open", "close"]
    # interleaved ties in one spine: a fragment keeps the tie it holds whole
    doc = kern.parse_kern("**kern\n[4c\n[4e\n=\n4c]\n=\n4e]\n=\n*-\n")
    frags = kern.fragment(doc, rng_seed=0, min_measures=2, max_measures=2, allow_overlap=False)
    assert [r.cells[0].tie for r in _data_rows(frags[0])] == ["open", "none", "close"]


def test_parse_barline_in_every_spine():
    with pytest.raises(kern.MalformedSpine):
        kern.parse_kern("**kern\t**kern\n=\t4c\n*-\t*-\n")


def test_preprocess_chord_keeps_lowest_by_midi():
    doc = kern.parse_kern("**kern\n4c 4e 4g\n*-\n")
    # independent oracle: lowest MIDI number among the chord notes
    notes = [kern.parse_kern(f"**kern\n{t}\n*-\n").rows[0].cells[0] for t in ("4c", "4e", "4g")]
    lowest = min(notes, key=lambda e: (e.octave + 1) * 12 + kern.STEP_SEMITONES[e.step] + e.accidental)
    assert doc.rows[0].cells == (lowest,)
    assert lowest.step == "C"


def test_preprocess_chord_voicing_order_irrelevant():
    doc = kern.parse_kern("**kern\n4g 4c 4e\n*-\n")
    assert doc.rows[0].cells[0].step == "C"


def test_preprocess_too_many_voices():
    for data in ("4c", "4h"):  # raised at the header, before any data row is read
        text = "\t".join(["**kern"] * 5) + "\n" + "\t".join([data] * 5) + "\n" + "\t".join(["*-"] * 5) + "\n"
        with pytest.raises(kern.TooManyVoices):
            kern.parse_kern(text)


def test_preprocess_rejects_double_dot_and_double_accidentals():
    for cell in ("4..c", "4c##", "4c--", "4..c 4e", "[4..c 4cc]"):
        with pytest.raises(kern.UnsupportedNotation) as info:
            kern.parse_kern(f"**kern\n4c\n{cell}\n*-\n")
        assert info.value.line == 3, cell
    # only the kept event is checked: a later subspine or a higher chord note passes
    for text in ("**kern\n*^\n4c\t4..d\n*v\t*v\n*-\n", "**kern\n4c 4..d\n*-\n"):
        assert kern.parse_kern(text).rows[0].cells[0].step == "C"
    # the first defect in file order is the one reported
    with pytest.raises(kern.UnsupportedNotation):
        kern.parse_kern("**kern\t**kern\n4..c\t4d\n4e\n*-\t*-\n")


def test_preprocess_drops_grace_notes():
    doc = kern.parse_kern("**kern\t**kern\n2c\t2e\n8dq\t.\n2e\t2g\n*-\t*-\n")
    # the grace row became all-continuation and was dropped
    assert len(doc.rows) == 2


def test_fragment_partition_validity():
    text = "**kern\n" + "4c\n4d\n=\n" * 12 + "*-\n"
    doc = kern.parse_kern(text)
    frags = kern.fragment(doc, rng_seed=3, min_measures=3, max_measures=6, allow_overlap=False)
    sizes = [f.barline_count() for f in frags]
    assert sum(sizes) == 12
    assert all(3 <= s <= 6 for s in sizes[:-1])
    assert sizes[-1] <= 6
    # chosen seed yields a clean partition with every size in range
    assert all(3 <= s <= 6 for s in sizes)


def test_fragment_short_document_single_fragment():
    doc = kern.parse_kern("**kern\n4c\n=\n4d\n=\n*-\n")
    frags = kern.fragment(doc, rng_seed=0, min_measures=3, max_measures=6, allow_overlap=False)
    assert len(frags) == 1
    assert frags[0].barline_count() == 2


def test_fragment_deterministic():
    text = "**kern\n" + "4c\n=\n" * 10 + "*-\n"
    doc = kern.parse_kern(text)
    a = kern.fragment(doc, rng_seed=17, min_measures=3, max_measures=6, allow_overlap=False)
    b = kern.fragment(doc, rng_seed=17, min_measures=3, max_measures=6, allow_overlap=False)
    assert a == b


def test_fragment_no_overlap_disjoint_and_ordered():
    text = "**kern\n" + "".join(f"4{p}\n=\n" for p in "cdefgabc" * 3) + "*-\n"
    doc = kern.parse_kern(text)
    frags = kern.fragment(doc, rng_seed=2, min_measures=3, max_measures=6, allow_overlap=False)
    seen = []
    for f in frags:
        first = _data_rows(f)[0].cells[0]
        seen.append(first)
    total = sum(f.barline_count() for f in frags)
    assert total == doc.barline_count()


def test_fragment_overlap_covers_and_shares():
    text = "**kern\n" + "4c\n4d\n=\n" * 20 + "*-\n"
    doc = kern.parse_kern(text)
    for seed in range(8):
        frags = kern.fragment(doc, rng_seed=seed, min_measures=3, max_measures=6, allow_overlap=True)
        assert sum(f.barline_count() for f in frags) >= 20  # shared measures count twice


def test_fragment_requires_barlines():
    # and a note or rest: barlines alone would give no fragment, and no reason
    for text in ("**kern\n4c\n4d\n*-\n", "**kern\n=\n*-\n"):
        doc = kern.parse_kern(text)
        with pytest.raises(kern.NoBarlines):
            kern.fragment(doc, rng_seed=0, min_measures=3, max_measures=6, allow_overlap=False)


def test_fragment_severs_boundary_ties():
    text = "**kern\n2c\n[2d\n=\n2d]\n2e\n=\n2f\n2g\n=\n2a\n2b\n=\n*-\n"
    doc = kern.parse_kern(text)
    frags = kern.fragment(doc, rng_seed=0, min_measures=1, max_measures=1, allow_overlap=False)
    assert len(frags) == 4
    for f in frags:
        for row in _data_rows(f):
            assert row.cells[0].tie == "none"
    # reserialized fragments stay parseable (no dangling tie errors)
    for f in frags:
        kern.parse_kern(kern.serialize(f))


def test_fragment_keeps_internal_ties():
    text = "**kern\n[2c\n2c]\n=\n2d\n2e\n=\n*-\n"
    doc = kern.parse_kern(text)
    frags = kern.fragment(doc, rng_seed=0, min_measures=2, max_measures=2, allow_overlap=False)
    ties = [r.cells[0].tie for r in _data_rows(frags[0])]
    assert ties[:2] == ["open", "close"]


def test_tempo_table_values():
    assert kern.assign_tempo("Andante") == 92
    assert kern.assign_tempo("Presto") == 186
    assert len(kern.TEMPO_MAP) == 22


def test_tempo_case_and_whitespace_insensitive():
    assert kern.assign_tempo("  ALLEGRO   Moderato ") == 120


def test_tempo_jitter_range():
    base = 130.0
    for seed in range(1000):
        bpm = kern.assign_tempo("Allegro", rng_seed=seed)
        assert base * 0.94 <= bpm <= base * 1.06


def test_tempo_unknown_label():
    with pytest.raises(kern.UnknownTempoLabel):
        kern.assign_tempo("lentissimo")


def test_serialize_parse_round_trip(fixtures):
    for name, doc in fixtures.items():
        again = kern.parse_kern(kern.serialize(doc))
        assert again == doc, name


def test_serialize_parse_round_trip_raw_sources():
    # parse . serialize . parse == parse, also for sources the parser reduces
    sources = dict(FIXTURE_SOURCES)
    sources["reduced"] = "**kern\t**kern\n*Icello\t*\n2c 2e\t4g\n8dq\t4a\n*-\t*-\n"
    for name, text in sources.items():
        doc = kern.parse_kern(text)
        again = kern.parse_kern(kern.serialize(doc))
        assert again == doc, name


def test_serialize_round_trip_with_split():
    text = "**kern\n4c\n*^\n4c\t4e\n*v\t*v\n4d\n*-\n"
    doc = kern.parse_kern(text)
    assert kern.parse_kern(kern.serialize(doc)) == doc


def test_event_midi_reference_values():
    a4 = kern.parse_kern("**kern\n4a\n*-\n").rows[0].cells[0]
    assert a4.midi == 69
    c2 = kern.parse_kern("**kern\n4CC\n*-\n").rows[0].cells[0]
    assert c2.midi == 36
