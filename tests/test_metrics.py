import itertools

import numpy as np
import pytest

from polyscore import codec, kern, metrics


def oracle_edit(ref, hyp):
    """Memo-free exhaustive recursion minimizing (total, indels) lexicographically."""
    def best(i, j):
        if i == len(ref) and j == len(hyp):
            return (0, 0, 0, 0)  # total, S, I, D
        candidates = []
        if i < len(ref) and j < len(hyp):
            t, s, ins, dele = best(i + 1, j + 1)
            cost = 0 if ref[i] == hyp[j] else 1
            candidates.append((t + cost, s + cost, ins, dele))
        if i < len(ref):
            t, s, ins, dele = best(i + 1, j)
            candidates.append((t + 1, s, ins + 1, dele))
        if j < len(hyp):
            t, s, ins, dele = best(i, j + 1)
            candidates.append((t + 1, s, ins, dele + 1))
        return min(candidates, key=lambda c: (c[0], c[2] + c[3]))

    return best(0, 0)


def test_identical_sequences():
    stats = metrics.edit_distance("abcd", "abcd")
    assert (stats.substitutions, stats.insertions, stats.deletions) == (0, 0, 0)
    assert stats.reference_length == 4
    assert stats.rate == 0.0


def test_single_substitution():
    stats = metrics.edit_distance("abc", "axc")
    assert (stats.substitutions, stats.insertions, stats.deletions) == (1, 0, 0)
    assert stats.rate == pytest.approx(1 / 3)


def test_substitution_preferred_over_indel_pair():
    stats = metrics.edit_distance("ab", "ba")
    assert (stats.substitutions, stats.insertions, stats.deletions) == (2, 0, 0)


def test_exhaustive_pairs_up_to_length_three():
    alphabet = (0, 1, 2)
    seqs = [s for n in range(4) for s in itertools.product(alphabet, repeat=n)]
    for ref in seqs:
        for hyp in seqs:
            got = metrics.edit_distance(ref, hyp)
            t, s, ins, dele = oracle_edit(ref, hyp)
            assert (got.edits, got.substitutions, got.insertions, got.deletions) == (
                t, s, ins, dele,
            ), (ref, hyp)


def test_random_pairs_up_to_length_eight():
    rng = np.random.default_rng(23)
    for _ in range(40):
        ref = tuple(rng.integers(0, 3, size=rng.integers(0, 9)))
        hyp = tuple(rng.integers(0, 3, size=rng.integers(0, 9)))
        got = metrics.edit_distance(ref, hyp)
        t, s, ins, dele = oracle_edit(ref, hyp)
        assert (got.edits, got.substitutions, got.insertions, got.deletions) == (t, s, ins, dele)


def _tokens_for(text):
    doc = kern.parse_kern(text)
    vocab = codec.build_vocabulary([doc])
    return codec.encode(doc, vocab), vocab


def test_wer_and_cer_zero_on_identity():
    seq, _ = _tokens_for("**kern\t**kern\n4c\t4e\n4d\t4f\n=\t=\n*-\t*-\n")
    assert metrics.wer(seq, seq).rate == 0.0
    assert metrics.cer(seq, seq).rate == 0.0


def test_wer_single_word_substitution():
    ref, vocab = _tokens_for("**kern\n4c\n4d\n4e\n*-\n")
    hyp_doc = kern.parse_kern("**kern\n4c\n4c\n4e\n*-\n")
    hyp = codec.encode(hyp_doc, vocab)
    stats = metrics.wer(ref, hyp)
    assert stats.substitutions == 1 and stats.reference_length == 3
    assert stats.rate == pytest.approx(1 / 3)


def test_separator_substitution_changes_cer_not_wer():
    # words are delimited by separators; which separator is used does not
    # matter at the word level but counts one symbol edit
    ref, vocab = _tokens_for("**kern\t**kern\n4c\t4e\n4f\t4g\n*-\t*-\n")
    tab = vocab.index_of("\t")
    newline = vocab.index_of("\n")
    first_tab = ref.tokens.index(tab)
    swapped = list(ref.tokens)
    swapped[first_tab] = newline
    hyp = codec.TokenSequence(tokens=tuple(swapped), vocab=vocab)
    assert metrics.wer(ref, hyp).edits == 0
    cer = metrics.cer(ref, hyp)
    assert cer.edits == 1 and cer.substitutions == 1
    assert cer.rate == pytest.approx(1 / len(ref))


def test_deleted_tab_costs_exactly_one_symbol():
    # ten-symbol reference, one tab removed: symbol rate exactly 0.1
    ref, vocab = _tokens_for("**kern\t**kern\n4c;\t4e;\n=\t=\n*-\t*-\n")
    assert len(ref) == 10
    tab = vocab.index_of("\t")
    hyp = codec.TokenSequence(tokens=tuple(t for t in ref.tokens if t != tab), vocab=vocab)
    assert metrics.cer(ref, hyp).rate == pytest.approx(0.1)


def test_deleting_k_tokens_gives_exact_cer():
    ref, vocab = _tokens_for("**kern\n4c\n4d\n4e\n4f\n=\n*-\n")
    for k in (1, 2, 3):
        hyp = codec.TokenSequence(tokens=ref.tokens[:-k], vocab=vocab)
        assert metrics.cer(ref, hyp).rate == pytest.approx(k / len(ref))


def test_wer_can_exceed_one():
    ref_doc = kern.parse_kern("**kern\n4c\n*-\n")
    hyp_doc = kern.parse_kern("**kern\n4d\n4e\n4f\n*-\n")
    vocab = codec.build_vocabulary([ref_doc, hyp_doc])
    ref = codec.encode(ref_doc, vocab)
    hyp = codec.encode(hyp_doc, vocab)
    assert metrics.wer(ref, hyp).rate > 1.0


def test_empty_reference_raises():
    _, vocab = _tokens_for("**kern\n4c\n*-\n")
    empty = codec.TokenSequence(tokens=(), vocab=vocab)
    ref = codec.TokenSequence(tokens=(vocab.index_of("4"),), vocab=vocab)
    with pytest.raises(metrics.EmptyReference):
        metrics.cer(empty, ref)
    with pytest.raises(metrics.EmptyReference):
        metrics.wer(empty, ref)
    stats = metrics.edit_distance((), (1, 2))
    with pytest.raises(metrics.EmptyReference):
        _ = stats.rate


def test_corpus_rate_micro_average():
    a = metrics.EditStats(substitutions=1, insertions=0, deletions=0, reference_length=10)
    b = metrics.EditStats(substitutions=0, insertions=2, deletions=0, reference_length=40)
    assert metrics.corpus_rate([a, b]) == pytest.approx(3 / 50)
    with pytest.raises(metrics.EmptyReference):
        metrics.corpus_rate([])
