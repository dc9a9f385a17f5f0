"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The end-to-end toy training run (criterion 7) takes the longest; its
seed, corpus and epoch count are pinned from a calibration run.
"""
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from _toycorpus import make_corpus
from conftest import fixture_documents
from polyscore import cli, codec, ctc, dsp, kern, metrics, net

from test_ctc import brute_force_probability, random_expansion, random_grid
from test_metrics import oracle_edit


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {description} {detail}"


def test_criterion_1_ctc_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    checked = 0
    worst = 0.0
    while checked < 500:
        L = int(rng.integers(1, 9))
        V = int(rng.integers(2, 5))
        u = int(rng.integers(0, 5))
        target = rng.integers(1, V, size=u).tolist()
        if L < ctc.min_frames(np.asarray(target)):
            continue
        grid = random_grid(rng, L, V)
        expected = brute_force_probability(grid, target)
        loss, _ = ctc.ctc_loss(np.log(grid), target)
        worst = max(worst, abs(np.exp(-loss) - expected))
        checked += 1
    elapsed = time.monotonic() - start
    report(
        1,
        "ctc loss matches brute-force path enumeration (>=500 cases, 1e-9)",
        worst < 1e-9 and elapsed < 10.0,
        f"{checked} cases, worst |dP|={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_gradient_correctness():
    start = time.monotonic()
    cfg = net.ModelConfig(
        vocab_size=5, input_bins=24, hidden_units=8, frame_doubling=True, dropout_p=0.1
    )
    params = net.init_params(cfg, seed=336, dtype=np.float64)
    x = np.random.default_rng(1336).random((6, 24))
    target = [1, 2, 1]

    def loss_fn(p):
        [grid], cache = net.forward(p, cfg, [x], mode="train", rng_seed=[2336])
        loss, upstream = ctc.ctc_loss(grid, target)
        return loss, cache, upstream

    loss, cache, upstream = loss_fn(params)
    grads = net.backward(cache, [upstream])
    worst_net = 0.0
    for name in net.trainable(params):
        arr = params[name]
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + 1e-4
            lp, *_ = loss_fn(params)
            arr[idx] = orig - 1e-4
            lm, *_ = loss_fn(params)
            arr[idx] = orig
            fd = (lp - lm) / 2e-4
            an = grads[name][idx]
            worst_net = max(worst_net, abs(fd - an) / max(abs(fd), abs(an), 1e-8))

    rng = np.random.default_rng(77)
    worst_ctc = 0.0
    for _ in range(10):
        L = int(rng.integers(2, 7))
        V = int(rng.integers(2, 7))
        u = int(rng.integers(1, 4))
        tgt = rng.integers(1, V, size=u).tolist()
        if L < ctc.min_frames(np.asarray(tgt)):
            continue
        logits = rng.normal(size=(L, V))
        _, grad = ctc.ctc_loss(net._log_softmax(logits), tgt)
        for idx in np.ndindex(logits.shape):
            orig = logits[idx]
            logits[idx] = orig + 1e-5
            lp, _ = ctc.ctc_loss(net._log_softmax(logits), tgt)
            logits[idx] = orig - 1e-5
            lm, _ = ctc.ctc_loss(net._log_softmax(logits), tgt)
            logits[idx] = orig
            fd = (lp - lm) / 2e-5
            worst_ctc = max(worst_ctc, abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-8))
    elapsed = time.monotonic() - start
    report(
        2,
        "network backward < 1e-3 and ctc gradient < 1e-4 against finite differences",
        worst_net < 1e-3 and worst_ctc < 1e-4 and elapsed < 60.0,
        f"net worst {worst_net:.2e}, ctc worst {worst_ctc:.2e}, {elapsed:.0f}s",
    )


def test_criterion_3_codec_round_trip():
    docs = fixture_documents()
    vocab = codec.build_vocabulary(list(docs.values()))
    failures = [
        name for name, doc in docs.items() if codec.decode(codec.encode(doc, vocab)) != doc
    ]
    voice_counts = {doc.spine_count for doc in docs.values()}
    has = {
        "ties": any("tie" in n for n in docs),
        "fermatas": any("fermata" in n for n in docs),
        "continuations": "continuations" in docs,
        "voices_1_to_4": voice_counts >= {1, 2, 3, 4},
    }
    report(
        3,
        "decode(encode(d)) == d on all fixture documents",
        len(docs) >= 20 and not failures and all(has.values()),
        f"{len(docs)} fixtures, failures={failures}, coverage={has}",
    )


def test_criterion_4_collapse_recovers_expansions():
    rng = np.random.default_rng(4242)
    bad = 0
    for _ in range(10_000):
        u = int(rng.integers(0, 10))
        target = rng.integers(1, 6, size=u).tolist()
        if ctc.collapse(random_expansion(rng, target)) != target:
            bad += 1
    report(4, "collapse recovers 10,000 randomized valid expansions", bad == 0, f"{bad} failures")


def test_criterion_5_dsp_tone_localization_and_frame_count():
    freqs = dsp.bin_frequencies()
    f_c2 = 440.0 * 2.0 ** (-33 / 12)
    t = np.arange(int(1.5 * dsp.SAMPLE_RATE)) / dsp.SAMPLE_RATE
    bins = np.linspace(0, dsp.N_BINS - 1, 20).round().astype(int)
    failures = []
    for b in bins:
        predicted = int(round(48 * np.log2(freqs[b] / f_c2)))
        spec = dsp.stft_logfreq(0.5 * np.sin(2 * np.pi * freqs[b] * t))
        got = np.unique(spec.frames[1:-1].argmax(axis=1))
        if not (predicted == b and got.size == 1 and got[0] == b):
            failures.append((int(b), got.tolist()))
    frame_ok = all(
        dsp.frame_count(2048 + k * 512) == k + 1 for k in range(0, 24)
    ) and all(dsp.frame_count(2048 + k * 512 + 511) == k + 1 for k in range(0, 24))
    report(
        5,
        "pure tones at 20 bin centers localize to their bin; frame formula exact",
        not failures and frame_ok,
        f"failures={failures}",
    )


def test_criterion_6_tempo_map_and_jitter():
    expected = {
        "largo assai": 40, "largo": 50, "poco largo": 60, "adagio": 71,
        "poco adagio": 76, "andante": 92, "andantino": 100, "menuetto": 112,
        "moderato": 114, "poco allegretto": 116, "allegretto": 118,
        "allegro moderato": 120, "poco allegro": 124, "allegro": 130,
        "molto allegro": 134, "allegro assai": 138, "vivace": 150,
        "allegro vivace": 160, "allegro vivace assai": 170, "poco presto": 180,
        "presto": 186, "presto assai": 200,
    }
    exact = all(
        kern.assign_tempo(label) == value for label, value in expected.items()
    ) and len(expected) == 22
    draws = np.array(
        [kern.assign_tempo("Allegro", rng_seed=s) / 130.0 for s in range(1000)]
    )
    in_range = np.all((draws >= 0.94) & (draws <= 1.06))
    hist, _ = np.histogram(draws, bins=10, range=(0.94, 1.06))
    uniform = np.all(np.abs(hist - 100) <= 30)
    report(
        6,
        "all 22 tempo labels exact; 1000 jitter draws within +-6% and coarsely uniform",
        bool(exact and in_range and uniform),
        f"hist={hist.tolist()}",
    )


TOY_SEED = 11
TOY_EPOCHS = 300


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    make_corpus(root / "corpus", n_scores=7, seed=1, two_voice_every=7, n_measures=9)
    (root / "config.json").write_text(
        json.dumps(
            {
                "corpus_dir": "corpus",
                "out_dir": "data",
                "checkpoint_dir": "ckpt",
                "seed": TOY_SEED,
                "train_fraction": 0.8,
                "validation_fraction": 0.2,
                "test_fraction": 0.0,
                "fragment_enabled": True,
                "min_measures": 1,
                "max_measures": 2,
                "overlap_train": True,
                "default_tempo": "presto",
                "tempo_jitter": True,
                "batch_size": 4,
                "epochs": TOY_EPOCHS,
                "model": {"hidden_units": 64, "dropout_p": 0.1, "frame_doubling": False},
            }
        )
    )
    config = cli.RunConfig.from_file(root / "config.json")
    config.validate()
    assert cli.cmd_build(config) == 0
    manifest = Path(config.out_dir) / cli.MANIFEST_FILENAME
    assert cli.cmd_train(config, manifest) == 0
    return {"root": root, "config": config, "manifest": manifest}


def test_criterion_7_toy_convergence(toy_run):
    start = time.monotonic()
    config = toy_run["config"]
    manifest = toy_run["manifest"]
    vocab = codec.Vocabulary.load(manifest.parent / cli.VOCAB_FILENAME)
    samples = [s for s in cli.read_manifest(manifest) if s.split == "train"]
    checkpoint = Path(config.checkpoint_dir) / "last.ckpt"  # the run's final state
    model_config, params, _, _ = net.load_checkpoint(checkpoint, expected_vocab_hash=vocab.sha256())

    cer_stats = []
    decodable = 0
    for sample in samples:
        frames = dsp.stft_logfreq(dsp.load_wav(manifest.parent / sample.audio)).frames
        target = cli._read_tokens(manifest.parent / sample.tokens, vocab)
        (hyp,) = cli._decode(params, model_config, [frames], vocab)
        cer_stats.append(metrics.cer(target, hyp))
        try:
            codec.decode(hyp)
            decodable += 1
        except codec.ScoreSyntaxError:
            pass
    corpus_cer = metrics.corpus_rate(cer_stats)
    decodable_fraction = decodable / len(samples)
    elapsed = time.monotonic() - start
    scale_ok = 40 <= len(cli.read_manifest(manifest)) <= 70 and len(vocab) <= 25
    report(
        7,
        f"toy run (seed {TOY_SEED}, {TOY_EPOCHS} epochs) reaches train CER < 0.10 "
        "with >= 80% decodable transcriptions",
        corpus_cer < 0.10 and decodable_fraction >= 0.8 and scale_ok,
        f"CER={corpus_cer:.4f}, decodable={decodable_fraction:.0%}, "
        f"{len(samples)} train samples, vocab {len(vocab)}, eval {elapsed:.0f}s",
    )


def test_criterion_8_edit_distance_oracle():
    alphabet = (0, 1, 2)
    seqs = [s for n in range(4) for s in itertools.product(alphabet, repeat=n)]
    mismatch = 0
    for ref in seqs:
        for hyp in seqs:
            got = metrics.edit_distance(ref, hyp)
            t, s, ins, dele = oracle_edit(ref, hyp)
            if (got.edits, got.substitutions, got.insertions, got.deletions) != (t, s, ins, dele):
                mismatch += 1
    rng = np.random.default_rng(88)
    for _ in range(60):
        ref = tuple(rng.integers(0, 3, size=rng.integers(0, 9)))
        hyp = tuple(rng.integers(0, 3, size=rng.integers(0, 9)))
        got = metrics.edit_distance(ref, hyp)
        t, s, ins, dele = oracle_edit(ref, hyp)
        if (got.edits, got.substitutions, got.insertions, got.deletions) != (t, s, ins, dele):
            mismatch += 1

    # separator edits: symbol rate moves, word rate does not
    doc = kern.parse_kern("**kern\t**kern\n4c\t4e\n4f\t4g\n=\t=\n*-\t*-\n")
    vocab = codec.build_vocabulary([doc])
    ref_seq = codec.encode(doc, vocab)
    tab, newline = vocab.index_of("\t"), vocab.index_of("\n")
    swapped = list(ref_seq.tokens)
    swapped[swapped.index(tab)] = newline
    hyp_seq = codec.TokenSequence(tokens=tuple(swapped), vocab=vocab)
    separator_ok = (
        metrics.wer(ref_seq, hyp_seq).edits == 0 and metrics.cer(ref_seq, hyp_seq).edits == 1
    )
    report(
        8,
        "DP edit distance equals exhaustive recursion; separator edits hit CER only",
        mismatch == 0 and separator_ok,
        f"mismatches={mismatch}",
    )


def test_criterion_9_determinism(tmp_path):
    artifacts = []
    for run in ("one", "two"):
        root = tmp_path / run
        make_corpus(root / "corpus", n_scores=3, seed=21, two_voice_every=3)
        (root / "config.json").write_text(
            json.dumps(
                {
                    "corpus_dir": "corpus",
                    "out_dir": "data",
                    "checkpoint_dir": "ckpt",
                    "seed": 13,
                    "train_fraction": 0.6,
                    "validation_fraction": 0.2,
                    "test_fraction": 0.2,
                    "fragment_enabled": True,
                    "min_measures": 2,
                    "max_measures": 3,
                    "overlap_train": True,
                    "default_tempo": "presto",
                    "tempo_jitter": True,
                    "batch_size": 2,
                    "epochs": 2,
                    "model": {"hidden_units": 8, "dropout_p": 0.1, "frame_doubling": False},
                }
            )
        )
        config = cli.RunConfig.from_file(root / "config.json")
        config.validate()
        assert cli.cmd_build(config) == 0
        manifest = Path(config.out_dir) / cli.MANIFEST_FILENAME
        assert cli.cmd_train(config, manifest) == 0
        artifacts.append((Path(config.out_dir), Path(config.checkpoint_dir)))
    (out_a, ckpt_a), (out_b, ckpt_b) = artifacts
    same = (out_a / "manifest.jsonl").read_bytes() == (out_b / "manifest.jsonl").read_bytes()
    for rec in cli.read_manifest(out_a / "manifest.jsonl"):
        same &= (out_a / rec.tokens).read_bytes() == (out_b / rec.tokens).read_bytes()
        same &= (out_a / rec.audio).read_bytes() == (out_b / rec.audio).read_bytes()
    for name in ("last.ckpt", "best.ckpt"):
        same &= (ckpt_a / name).read_bytes() == (ckpt_b / name).read_bytes()
    report(9, "build and train reruns are bitwise identical", bool(same))
