"""The dataset's feature cache: ``<dataset>/features/<id>.f32``, read by ``train`` and ``evaluate``."""
import json
import os
import shutil
import sys
import threading

import numpy as np
import pytest

from _toycorpus import make_corpus
from polyscore import cli, codec, dsp

CONFIG = {
    "corpus_dir": "corpus",
    "out_dir": "data",
    "checkpoint_dir": "ckpt",
    "seed": 5,
    "train_fraction": 0.5,
    "validation_fraction": 0.25,
    "test_fraction": 0.25,
    "min_measures": 2,
    "max_measures": 3,
    "batch_size": 2,
    "epochs": 1,
    "model": {"hidden_units": 8, "dropout_p": 0.1, "frame_doubling": False},
}
SPLITS = ("train", "validation", "test")


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A built dataset and a checkpoint trained on it for one epoch."""
    root = tmp_path_factory.mktemp("cache")
    make_corpus(root / "corpus", n_scores=4, seed=6, two_voice_every=2)
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert cli.main(["build", "--config", str(config)]) == cli.EXIT_OK
    assert cli.main(["train", "--config", str(config), "--manifest", str(root / "data" / cli.MANIFEST_FILENAME)]) == 0
    return root


@pytest.fixture
def data(built, tmp_path):
    """A copy of the built dataset without its feature cache."""
    copy = tmp_path / "data"
    shutil.copytree(built / "data", copy, ignore=shutil.ignore_patterns(cli.FEATURES_DIRNAME))
    return copy


def _count_frontend_calls(monkeypatch):
    """Count the spectrograms computed from here on."""
    calls = []
    real = dsp.stft_logfreq

    def stft_logfreq(samples):
        calls.append(len(samples))
        return real(samples)

    monkeypatch.setattr(dsp, "stft_logfreq", stft_logfreq)
    return calls


def _load(data):
    vocab = codec.Vocabulary.load(data / cli.VOCAB_FILENAME)
    loaded = cli._load_split(data / cli.MANIFEST_FILENAME, vocab, SPLITS)
    return {sample_id: spec for split in loaded.values() for sample_id, spec, _ in split}


def _cache_files(data):
    return {p.name: p.read_bytes() for p in (data / cli.FEATURES_DIRNAME).iterdir()}


def _train(root, data, checkpoint_dir):
    config = root / f"{checkpoint_dir}.json"
    config.write_text(json.dumps({**CONFIG, "checkpoint_dir": checkpoint_dir}))
    return cli.main(["train", "--config", str(config), "--manifest", str(data / cli.MANIFEST_FILENAME)])


def _evaluate(built, data, capsys):
    checkpoint = built / "ckpt" / "best.ckpt"
    argv = ["evaluate", "--checkpoint", str(checkpoint), "--manifest", str(data / cli.MANIFEST_FILENAME)]
    assert cli.main([*argv, "--split", "train", "--json"]) == cli.EXIT_OK
    return capsys.readouterr()


def test_warm_load_is_bitwise_the_cold_load(data, monkeypatch):
    samples = cli.read_manifest(data / cli.MANIFEST_FILENAME)
    calls = _count_frontend_calls(monkeypatch)
    cold = _load(data)
    assert len(calls) == len(samples)
    assert sorted(_cache_files(data)) == sorted(f"{s.id}.f32" for s in samples)
    warm = _load(data)
    assert len(calls) == len(samples)  # no clip computed again
    assert cold.keys() == warm.keys() == {s.id for s in samples}
    for s in samples:
        uncached = cli._features(data / s.audio)
        for spec in (cold[s.id], warm[s.id]):
            assert spec.dtype == np.float32 and spec.flags.c_contiguous and spec.flags.writeable
            assert spec.shape == uncached.shape and spec.tobytes() == uncached.tobytes(), s.id


def test_train_on_a_warm_dataset_writes_the_same_checkpoint(built, data, monkeypatch):
    root = data.parent
    assert _train(root, data, "cold") == cli.EXIT_OK
    files = _cache_files(data)
    calls = _count_frontend_calls(monkeypatch)
    assert _train(root, data, "warm") == cli.EXIT_OK
    assert not calls
    assert _cache_files(data) == files
    for name in ("last.ckpt", "best.ckpt", cli.LOG_FILENAME):
        assert (root / "warm" / name).read_bytes() == (root / "cold" / name).read_bytes(), name
        assert (root / "cold" / name).read_bytes() == (built / "ckpt" / name).read_bytes(), name


def test_evaluate_json_is_the_same_cold_and_warm(built, data, capsys, monkeypatch):
    cold = _evaluate(built, data, capsys)
    assert (data / cli.FEATURES_DIRNAME).is_dir()
    calls = _count_frontend_calls(monkeypatch)
    warm = _evaluate(built, data, capsys)
    assert not calls
    assert warm.out == cold.out and json.loads(warm.out)["summary"]["samples"] > 0
    assert warm.err == cold.err == ""


def test_rewritten_wav_is_recomputed(data, monkeypatch):
    before = _load(data)
    files = _cache_files(data)
    sample = cli.read_manifest(data / cli.MANIFEST_FILENAME)[0]
    dsp.write_wav(data / sample.audio, 0.4 * np.sin(0.03 * np.arange(30000)))
    expected = cli._features(data / sample.audio)
    calls = _count_frontend_calls(monkeypatch)
    after = _load(data)
    assert len(calls) == 1
    assert after[sample.id].tobytes() == expected.tobytes() != before[sample.id].tobytes()
    rewritten = _cache_files(data)
    assert rewritten.pop(f"{sample.id}.f32") != files.pop(f"{sample.id}.f32")
    assert rewritten == files
    assert _load(data)[sample.id].tobytes() == expected.tobytes()
    assert len(calls) == 1  # the rewritten file is read


def _flip(raw: bytes, byte: int) -> bytes:
    return raw[:byte] + bytes([raw[byte] ^ 0x10]) + raw[byte + 1 :]


# offsets into the 80-byte header: magic 0, format version 8, frame count 12,
# key 16, payload digest 48; the payload starts at 80
DAMAGE = {
    "empty": lambda raw: b"",
    "header_cut": lambda raw: raw[:40],
    "payload_cut": lambda raw: raw[:-4],
    "trailing_bytes": lambda raw: raw + b"\0\0\0\0",
    "magic_bit": lambda raw: _flip(raw, 2),
    "format_version": lambda raw: raw[:8] + (2).to_bytes(4, "little") + raw[12:],
    "frame_count": lambda raw: raw[:12] + (int.from_bytes(raw[12:16], "little") - 1).to_bytes(4, "little") + raw[16:],
    "huge_frame_count": lambda raw: raw[:12] + b"\xff\xff\xff\xff" + raw[16:],
    "key_bit": lambda raw: _flip(raw, 20),
    "digest_bit": lambda raw: _flip(raw, 50),
    "payload_bit": lambda raw: _flip(raw, len(raw) // 2),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_cache_file_is_recomputed_and_rewritten(data, monkeypatch, damage):
    before = _load(data)
    files = _cache_files(data)
    name = sorted(files)[0]
    (data / cli.FEATURES_DIRNAME / name).write_bytes(DAMAGE[damage](files[name]))
    calls = _count_frontend_calls(monkeypatch)
    after = _load(data)
    assert len(calls) == 1
    assert {k: v.tobytes() for k, v in after.items()} == {k: v.tobytes() for k, v in before.items()}
    assert _cache_files(data) == files


def test_other_frontend_version_is_recomputed_and_rewritten(data, monkeypatch):
    samples = cli.read_manifest(data / cli.MANIFEST_FILENAME)
    before = _load(data)
    files = _cache_files(data)
    calls = _count_frontend_calls(monkeypatch)
    monkeypatch.setattr(dsp, "FRONTEND_VERSION", dsp.FRONTEND_VERSION + 1)
    after = _load(data)
    assert len(calls) == len(samples)
    assert {k: v.tobytes() for k, v in after.items()} == {k: v.tobytes() for k, v in before.items()}
    rewritten = _cache_files(data)
    assert rewritten.keys() == files.keys()
    assert all(rewritten[k] != files[k] and rewritten[k][80:] == files[k][80:] for k in files)
    _load(data)
    assert len(calls) == len(samples)  # the new version's files are read


def _block_cache(data, how):
    """Make ``features/`` unwritable: a regular file in its place, or a read-only directory."""
    features = data / cli.FEATURES_DIRNAME
    if how == "file":
        features.write_bytes(b"")
    else:
        if os.geteuid() == 0:
            pytest.skip("permission bits do not stop the superuser")
        features.mkdir()
        features.chmod(0o555)


@pytest.mark.parametrize("how", ["file", "read_only_directory"])
def test_unwritable_cache_changes_no_result(built, data, capsys, how):
    _block_cache(data, how)
    samples = [s for s in cli.read_manifest(data / cli.MANIFEST_FILENAME) if s.split in ("train", "validation")]
    try:
        assert _train(data.parent, data, "ckpt") == cli.EXIT_OK
        err = capsys.readouterr().err.splitlines()
        cached = _evaluate(built, data, capsys)
    finally:
        if how != "file":
            (data / cli.FEATURES_DIRNAME).chmod(0o755)
    for name in ("last.ckpt", "best.ckpt", cli.LOG_FILENAME):
        assert (data.parent / "ckpt" / name).read_bytes() == (built / "ckpt" / name).read_bytes(), name
    # one line per clip whose features could not be written
    prefix = "polyscore: cannot cache the features of "
    assert all(line.startswith(prefix) for line in err), err
    assert sorted(line.removeprefix(prefix).split(": ")[0] for line in err) == sorted(s.id for s in samples)
    if how == "file":
        (data / cli.FEATURES_DIRNAME).unlink()
    else:
        shutil.rmtree(data / cli.FEATURES_DIRNAME)
    assert cached.out == _evaluate(built, data, capsys).out


@pytest.mark.parametrize("odd_id", ["../escaped", "..", "", "a\0b", "a\ud800b"])
def test_id_that_cannot_name_a_cache_file_is_not_cached(data, monkeypatch, odd_id):
    # a manifest id with a path separator would write outside features/, and
    # one with a NUL or a lone surrogate cannot name a file at all
    manifest = data / cli.MANIFEST_FILENAME
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    before = _load(data)
    (data / cli.FEATURES_DIRNAME / f"{rows[0]['id']}.f32").unlink()
    original, rows[0]["id"] = rows[0]["id"], odd_id
    manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
    calls = _count_frontend_calls(monkeypatch)
    for _ in range(2):
        after = _load(data)
    assert len(calls) == 2
    assert after[odd_id].tobytes() == before[original].tobytes()
    assert not (data / "escaped.f32").exists()
    assert sorted(_cache_files(data)) == sorted(f"{r['id']}.f32" for r in rows[1:])


def test_concurrent_writers_of_one_cache_file_agree(data, capsys):
    # threads that each clear and refill one clip's entry overlap in their
    # writes; every read is a whole file or a miss, never an error
    sample = cli.read_manifest(data / cli.MANIFEST_FILENAME)[0]
    expected = cli._features(data / sample.audio).tobytes()  # also fills the frontend's caches
    entry = data / cli.FEATURES_DIRNAME / f"{sample.id}.f32"
    results, errors = [], []

    def worker():
        try:
            for _ in range(10):
                entry.unlink(missing_ok=True)
                results.append(cli._dataset_features(data, sample).tobytes())
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and results == [expected] * 40
    assert capsys.readouterr().err == ""
    assert [p.name for p in entry.parent.iterdir()] == [entry.name]
