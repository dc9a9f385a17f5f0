import random
import re

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from polyscore import codec, kern
from polyscore.errors import DataError
from conftest import FIXTURE_SOURCES, fixture_documents, mutated_fixture_texts


def test_vocabulary_minimal_corpus_enumeration():
    doc = kern.parse_kern("**kern\n4c\n=\n*-\n")
    vocab = codec.build_vocabulary([doc])
    assert vocab.symbols == (
        "<eps>", "\t", "\n", ".", "=", "[", "]", ";", "4", "C4",
    )
    assert len(vocab) == 10


def test_vocabulary_order_independent():
    docs = list(fixture_documents().values())
    a = codec.build_vocabulary(docs)
    shuffled = docs[:]
    random.Random(3).shuffle(shuffled)
    b = codec.build_vocabulary(shuffled)
    assert a.symbols == b.symbols


def test_vocabulary_empty_corpus():
    with pytest.raises(codec.EmptyCorpus):
        codec.build_vocabulary([])


def test_vocabulary_blank_fixed_at_zero():
    vocab = codec.build_vocabulary([kern.parse_kern("**kern\n4c\n*-\n")])
    assert vocab.symbols[0] == "<eps>"
    assert vocab.index_of("<eps>") == 0


def test_vocabulary_file_round_trip(tmp_path):
    vocab = codec.build_vocabulary(list(fixture_documents().values()))
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "<eps>"
    assert lines[1] == "\\t" and lines[2] == "\\n"
    again = codec.Vocabulary.load(path)
    assert again.symbols == vocab.symbols
    assert again.sha256() == vocab.sha256()


@pytest.mark.parametrize("content", [b"\xff\xfe<eps>\n", b"foo\n"], ids=["not_utf8", "no_blank"])
def test_vocabulary_load_names_a_malformed_file(tmp_path, content):
    path = tmp_path / "vocab.txt"
    path.write_bytes(content)
    with pytest.raises(DataError, match=re.escape(f"cannot read vocabulary {path}")):
        codec.Vocabulary.load(path)
    with pytest.raises(FileNotFoundError):  # an OSError, which names the path itself
        codec.Vocabulary.load(tmp_path / "missing.txt")


def test_interrupted_vocabulary_save_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "vocab.txt"
    codec.build_vocabulary([kern.parse_kern("**kern\n4c\n*-\n")]).save(path)
    before = path.read_bytes()
    vocab = codec.build_vocabulary(list(fixture_documents().values()))
    escaped = []
    real_escape = codec._escape

    def failing_escape(symbol):
        if len(escaped) == 3:
            raise OSError("disk full")
        escaped.append(symbol)
        return real_escape(symbol)

    monkeypatch.setattr(codec, "_escape", failing_escape)
    with pytest.raises(OSError):
        vocab.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]


def test_encode_four_voice_quarter_row():
    doc = kern.parse_kern(
        "**kern\t**kern\t**kern\t**kern\n4c\t4c\t4c\t4c\n*-\t*-\t*-\t*-\n"
    )
    vocab = codec.build_vocabulary([doc])
    seq = codec.encode(doc, vocab)
    assert seq.symbols() == [
        "4", "C4", "\t", "4", "C4", "\t", "4", "C4", "\t", "4", "C4", "\n",
    ]


def test_encode_barline_row_single_symbol():
    doc = kern.parse_kern("**kern\t**kern\t**kern\t**kern\n4c\t4c\t4c\t4c\n=\t=\t=\t=\n*-\t*-\t*-\t*-\n")
    vocab = codec.build_vocabulary([doc])
    tail = codec.encode(doc, vocab).symbols()[-2:]
    assert tail == ["=", "\n"]


def test_encode_tie_symbol_order_round_trips():
    doc = kern.parse_kern("**kern\n[8c\n8c]\n*-\n")
    vocab = codec.build_vocabulary([doc])
    seq = codec.encode(doc, vocab)
    assert seq.symbols() == ["[", "8", "C4", "\n", "8", "C4", "]", "\n"]
    assert codec.decode(seq) == doc


def test_encode_out_of_vocabulary():
    doc = kern.parse_kern("**kern\n4c\n*-\n")
    other = kern.parse_kern("**kern\n8d\n*-\n")
    vocab = codec.build_vocabulary([doc])
    with pytest.raises(codec.OutOfVocabulary):
        codec.encode(other, vocab)


def test_encode_never_emits_blank(fixtures):
    vocab = codec.build_vocabulary(list(fixtures.values()))
    for doc in fixtures.values():
        assert 0 not in codec.encode(doc, vocab).tokens


def test_decode_encode_identity_on_fixtures(fixtures):
    vocab = codec.build_vocabulary(list(fixtures.values()))
    for name, doc in fixtures.items():
        assert codec.decode(codec.encode(doc, vocab)) == doc, name


def test_decode_empty_cells_position_zero(fixtures):
    vocab = codec.build_vocabulary(list(fixtures.values()))
    tab = vocab.index_of("\t")
    nl = vocab.index_of("\n")
    seq = codec.TokenSequence(tokens=(tab, tab, nl), vocab=vocab)
    with pytest.raises(codec.ScoreSyntaxError) as info:
        codec.decode(seq)
    assert info.value.position == 0


def test_decode_truncated_keeps_complete_rows(fixtures):
    doc = fixture_documents()["two_measures"]
    vocab = codec.build_vocabulary([doc])
    seq = codec.encode(doc, vocab)
    truncated = codec.TokenSequence(tokens=seq.tokens[:-1], vocab=vocab)
    with pytest.raises(codec.ScoreSyntaxError) as info:
        codec.decode(truncated)
    assert info.value.position == len(truncated.tokens)


def test_decode_rejects_mismatched_row_widths():
    docs = [kern.parse_kern("**kern\t**kern\n4c\t4d\n*-\t*-\n"), kern.parse_kern("**kern\n4e\n*-\n")]
    vocab = codec.build_vocabulary(docs)
    two = codec.encode(docs[0], vocab).tokens
    one = codec.encode(docs[1], vocab).tokens
    seq = codec.TokenSequence(tokens=two + one, vocab=vocab)
    with pytest.raises(codec.ScoreSyntaxError) as info:
        codec.decode(seq)
    assert info.value.position == len(two)


@pytest.mark.parametrize(
    "symbols, message, position",
    [
        (["=", "4"], "barline must be followed by a newline", 1),
        (["="], "barline must be followed by a newline", 1),
        (["4", "C4", "\t"], "sequence ended inside a row", 3),
        (["4", "\t", "\n"], "row with empty cells", 2),
        (["4", "\t", "["], "sequence ended after a tie open", 3),
        (["C4"], "expected a duration symbol, found pitch", 0),
        (["[", "."], "expected a duration symbol, found dot", 1),
        (["4", "\t", "[", "4", "C4", "]", "\n"], "note both opens and closes a tie", 2),
        (["[", "4", ";", "\n"], "tie open on a rest", 0),
        (["4", "C4"], "truncated row without a final newline", 2),
        (["4", "C4", "4", "\n"], "unexpected duration symbol inside a row", 2),
        (["4", "\t", "4", "\n", "4", "\n"], "row has 1 cells, expected 2", 4),
        (["4", "C4", "]", "\n"], "tie close without a matching open", 2),
        # a tie opened in one spine does not close in another
        (["[", "4", "C4", "\t", "4", "\n", "4", "\t", "4", "C4", "]", "\n"], "tie close without a matching open", 10),
        (["4", "C4", "\n", ".", "\n"], "row of only continuations", 3),
        (["4", "\t", "4", "\t", "4", "\t", "4", "\t", "4", "\n"], "row has 5 cells, more than 4 voices", 0),
        # a tie opened on one pitch does not close on another
        (["[", "4", "C4", "\n", "4", "D4", "]", "\n"], "tie close without a matching open", 6),
    ],
)
def test_decode_failure_messages_and_positions(symbols, message, position):
    vocab = codec.Vocabulary(symbols=codec.STRUCTURAL_SYMBOLS + ("4", "C4", "D4"))
    seq = codec.TokenSequence(tokens=tuple(vocab.index_of(s) for s in symbols), vocab=vocab)
    with pytest.raises(codec.ScoreSyntaxError) as info:
        codec.decode(seq)
    assert str(info.value) == f"{message} (token position {position})"
    assert info.value.position == position


_PROPERTY_VOCAB = codec.Vocabulary(symbols=codec.STRUCTURAL_SYMBOLS + ("4", "8.", "16", "G#3", "C4", "B-5"))


@st.composite
def _plausible_symbols(draw):
    """Rows of 1-5 cells (a width mostly kept), barlines, ties, fermatas and continuations."""
    width = draw(st.integers(1, 5))
    note = st.tuples(
        st.sampled_from([[], ["["]]),
        st.sampled_from(["4", "8.", "16"]),
        st.sampled_from(["G#3", "C4", "B-5"]),
        st.sampled_from([[], [], ["]"]]),
        st.sampled_from([[], [], [";"]]),
    ).map(lambda parts: parts[0] + [parts[1], parts[2]] + parts[3] + parts[4])
    rest = st.tuples(st.sampled_from(["4", "8.", "16"]), st.sampled_from([[], [";"]])).map(lambda p: [p[0]] + p[1])
    cell = st.one_of(note, note, rest, st.just(["."]))
    row = st.one_of(
        st.just(["=", "\n"]),
        st.lists(cell, min_size=1, max_size=5).flatmap(
            lambda cells: st.sampled_from([cells[:width]] * 3 + [cells])
        ).map(lambda cells: sum(([*c, "\t"] for c in cells), [])[:-1] + ["\n"]),
    )
    return sum(draw(st.lists(row, max_size=8)), [])


@settings(max_examples=400, deadline=None, database=None)
@seed(20261019)
@given(symbols=_plausible_symbols())
def test_decoded_score_parses_back_to_the_same_tokens(symbols):
    seq = codec.TokenSequence(tokens=tuple(_PROPERTY_VOCAB.index_of(s) for s in symbols), vocab=_PROPERTY_VOCAB)
    try:
        doc = codec.decode(seq)
    except codec.ScoreSyntaxError:
        return
    reparsed = kern.parse_kern(kern.serialize(doc))
    assert reparsed == doc
    assert codec.encode(reparsed, _PROPERTY_VOCAB) == seq


def _ties_left_open(doc) -> int:
    """Tie opens that no later close in their spine takes, summed over the spines."""
    balance = [0] * doc.spine_count
    for row in doc.rows:
        for spine, ev in enumerate(row.cells):
            balance[spine] += {"open": 1, "close": -1}.get(ev.tie, 0)
    return sum(balance)


def _source_ties_left_open(text: str) -> int:
    """Tie opens minus tie closes in the data rows of a text parse_kern accepts."""
    lines = [line for line in text.split("\n") if line and not line.startswith("!")]
    balance = 0
    for line in lines[1:]:  # after the header
        cells = line.split("\t")
        if all(c == "*-" for c in cells):
            break
        if not any(c.startswith(("*", "=")) for c in cells):  # records and barlines hold no ties
            balance += line.count("[") - line.count("]")
    return balance


@settings(max_examples=600, deadline=None, database=None)
@seed(20261019)
@given(text=mutated_fixture_texts())
@example(text="**kern\n4c [4g\n4g]\n*-\n")  # a tie opened on a chord's upper note
@example(text="**kern\n*^\n4c\t[4g\n*v\t*v\n4g]\n*-\n")  # on a right-hand subspine
@example(text="**kern\n[4g\n4c 4g]\n4d\n*-\n")  # a tie closed on a chord's upper note
def test_parsed_score_closes_under_serialize_and_the_codec(text):
    # whatever parse_kern accepts serializes to text that parses back to the
    # same document, and that text is a fixpoint; a document with a data row
    # decodes from its own tokens (without one, the tokens hold no spine count);
    # every kept [ has a later ] in its spine, unless the source leaves a tie open
    try:
        doc = kern.parse_kern(text)
    except kern.KernError:
        return
    assert _ties_left_open(doc) <= _source_ties_left_open(text)
    serialized = kern.serialize(doc)
    assert kern.parse_kern(serialized) == doc
    assert kern.serialize(kern.parse_kern(serialized)) == serialized
    if any(row.kind == "data" for row in doc.rows):
        assert codec.decode(codec.encode(doc, codec.build_vocabulary([doc]))) == doc


def test_segment_words_four_voice_row():
    doc = kern.parse_kern("**kern\t**kern\t**kern\t**kern\n4c\t4c\t4c\t4c\n*-\t*-\t*-\t*-\n")
    vocab = codec.build_vocabulary([doc])
    words = codec.segment_words(codec.encode(doc, vocab))
    assert len(words) == 4


def test_segment_words_barline_counts_as_word(fixtures):
    vocab = codec.build_vocabulary(list(fixtures.values()))
    seq = codec.TokenSequence(
        tokens=(vocab.index_of("="), vocab.index_of("\n")), vocab=vocab
    )
    assert len(codec.segment_words(seq)) == 1


def test_segment_words_empty():
    vocab = codec.build_vocabulary([kern.parse_kern("**kern\n4c\n*-\n")])
    seq = codec.TokenSequence(tokens=(), vocab=vocab)
    assert codec.segment_words(seq) == []


def test_segment_words_count_formula(fixtures):
    vocab = codec.build_vocabulary(list(fixtures.values()))
    for name, doc in fixtures.items():
        cells = sum(len(r.cells) for r in doc.rows if r.kind == "data")
        barlines = doc.barline_count()
        words = codec.segment_words(codec.encode(doc, vocab))
        assert len(words) == cells + barlines, name


def test_token_sequence_validates_indices():
    vocab = codec.build_vocabulary([kern.parse_kern("**kern\n4c\n*-\n")])
    with pytest.raises(ValueError):
        codec.TokenSequence(tokens=(99,), vocab=vocab)
