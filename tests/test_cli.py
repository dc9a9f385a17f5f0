import contextlib
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from _toycorpus import make_corpus, make_score
from conftest import FIXTURE_SOURCES, mutated_fixture_texts
from polyscore import cli, codec, dsp, net


def _config(**overrides) -> dict:
    cfg = {
        "corpus_dir": "corpus",
        "out_dir": "data",
        "checkpoint_dir": "ckpt",
        "seed": 5,
        "train_fraction": 0.5,
        "validation_fraction": 0.25,
        "test_fraction": 0.25,
        "fragment_enabled": True,
        "min_measures": 2,
        "max_measures": 3,
        "overlap_train": False,
        "default_tempo": "presto",
        "tempo_jitter": True,
        "batch_size": 2,
        "epochs": 1,
        "model": {"hidden_units": 8, "dropout_p": 0.1, "frame_doubling": False},
    }
    cfg.update(overrides)
    return cfg


def _write_config(root, **overrides):
    path = root / "config.json"
    path.write_text(json.dumps(_config(**overrides)))
    return path


def test_build_manifest_integrity(tiny_dataset):
    samples = cli.read_manifest(tiny_dataset["manifest"])
    assert samples
    ids = [s.id for s in samples]
    assert len(ids) == len(set(ids))
    base = tiny_dataset["manifest"].parent
    for s in samples:
        assert (base / s.audio).exists()
        assert (base / s.tokens).exists()
        assert s.split in ("train", "validation", "test")
        assert s.duration_s > 0


def test_interrupted_manifest_write_keeps_previous_file(tiny_dataset, tmp_path, monkeypatch):
    samples = cli.read_manifest(tiny_dataset["manifest"])
    path = tmp_path / "manifest.jsonl"
    cli.write_manifest(path, samples[:2])
    before = path.read_bytes()
    rows = []
    real_asdict = cli.dataclasses.asdict

    def failing_asdict(sample):
        if len(rows) == 3:
            raise OSError("disk full")
        rows.append(sample.id)
        return real_asdict(sample)

    monkeypatch.setattr(cli.dataclasses, "asdict", failing_asdict)
    with pytest.raises(OSError):
        cli.write_manifest(path, samples)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.jsonl"]


def test_interrupted_token_write_keeps_previous_file(tmp_path):
    path = tmp_path / "a.tok"
    cli._write_tokens(path, SimpleNamespace(tokens=(5, 6, 7)))
    before = path.read_bytes()

    def failing_tokens():
        yield from (8, 9)
        raise OSError("disk full")

    with pytest.raises(OSError):
        cli._write_tokens(path, SimpleNamespace(tokens=failing_tokens()))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.tok"]


def test_build_no_score_spans_two_splits(tiny_dataset):
    samples = cli.read_manifest(tiny_dataset["manifest"])
    by_source: dict[str, set] = {}
    for s in samples:
        source = s.id.rsplit("_f", 1)[0]
        by_source.setdefault(source, set()).add(s.split)
    for source, splits in by_source.items():
        assert len(splits) == 1, source


def test_build_deterministic_across_directories(tmp_path):
    outputs = []
    for sub in ("a", "b"):
        root = tmp_path / sub
        make_corpus(root / "corpus", n_scores=3, seed=9, two_voice_every=3)
        config = cli.RunConfig.from_file(_write_config(root))
        config.validate()
        assert cli.cmd_build(config) == 0
        outputs.append(root / "data")
    a, b = outputs
    manifest_a = (a / "manifest.jsonl").read_bytes()
    manifest_b = (b / "manifest.jsonl").read_bytes()
    assert manifest_a == manifest_b
    assert (a / "vocab.txt").read_bytes() == (b / "vocab.txt").read_bytes()
    for rec in cli.read_manifest(a / "manifest.jsonl"):
        assert (a / rec.audio).read_bytes() == (b / rec.audio).read_bytes()
        assert (a / rec.tokens).read_bytes() == (b / rec.tokens).read_bytes()


def test_rebuild_writes_identical_wavs(tmp_path):
    # each build synthesizes its notes into its own cache; a second build must not differ
    make_corpus(tmp_path / "corpus", n_scores=4, seed=4, two_voice_every=2)
    config = cli.RunConfig.from_file(_write_config(tmp_path))
    config.validate()
    wavs = []
    for _ in range(2):
        assert cli.cmd_build(config) == 0
        data = Path(config.out_dir)
        wavs.append({p.name: p.read_bytes() for p in sorted((data / "audio").glob("*.wav"))})
        shutil.rmtree(data)
    assert wavs[0] and wavs[0] == wavs[1]


@pytest.mark.parametrize("jitter", [False, True])
def test_unknown_tempo_label_builds_at_the_default_tempo(tmp_path, jitter):
    # an !!!OMD label the tempo table lacks falls back to default_tempo
    # ("presto"), with the same jitter draw as a score labelled so
    body = make_score(seed=3, n_measures=4).split("\n", 1)[1]
    wavs = {}
    for label in ("No such tempo", "Presto", "Largo"):
        root = tmp_path / label.replace(" ", "_")
        (root / "corpus").mkdir(parents=True)
        (root / "corpus" / "score.krn").write_text(f"!!!OMD: {label}\n{body}")
        splits = {"train_fraction": 1.0, "validation_fraction": 0.0, "test_fraction": 0.0}
        config_path = _write_config(root, fragment_enabled=False, tempo_jitter=jitter, **splits)
        assert cli.main(["build", "--config", str(config_path)]) == cli.EXIT_OK
        wavs[label] = (root / "data" / "audio" / "score.wav").read_bytes()
    assert wavs["No such tempo"] == wavs["Presto"] != wavs["Largo"]


def test_build_skips_directory_named_like_a_score(tmp_path, capsys):
    make_corpus(tmp_path / "corpus", n_scores=3, seed=2, two_voice_every=0)
    (tmp_path / "corpus" / "folder.krn").mkdir()
    assert cli.main(["build", "--config", str(_write_config(tmp_path))]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert "build: skipping folder.krn" in captured.err
    assert ", 1 skipped" in captured.out


def test_build_missing_corpus_exits_with_data_error(tmp_path):
    config_path = _write_config(tmp_path)
    rc = cli.main(["build", "--config", str(config_path)])
    assert rc == cli.EXIT_DATA


def test_build_continues_past_bad_files(tmp_path, capsys):
    make_corpus(tmp_path / "corpus", n_scores=3, seed=2, two_voice_every=0)
    (tmp_path / "corpus" / "broken.krn").write_text("**kern\nnonsense\n*-\n")
    config = cli.RunConfig.from_file(_write_config(tmp_path))
    config.validate()
    assert cli.cmd_build(config) == 0
    err = capsys.readouterr().err
    assert "broken.krn" in err


def test_build_skips_score_with_repeated_header(tmp_path, capsys):
    make_corpus(tmp_path / "corpus", n_scores=3, seed=2, two_voice_every=0)
    (tmp_path / "corpus" / "twice.krn").write_text("**kern\n**kern\n4c\n=\n*-\n")
    config = cli.RunConfig.from_file(_write_config(tmp_path))
    config.validate()
    assert cli.cmd_build(config) == 0
    err = capsys.readouterr().err
    assert "build: skipping twice.krn: exclusive interpretation after the header row (line 2)" in err


def test_build_skips_score_with_a_5000_digit_duration(tmp_path, capsys):
    make_corpus(tmp_path / "corpus", n_scores=3, seed=2, two_voice_every=0)
    (tmp_path / "corpus" / "long.krn").write_text("**kern\n" + "9" * 5000 + "c\n=\n*-\n")
    assert cli.main(["build", "--config", str(_write_config(tmp_path))]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("build: skipping long.krn: duration of 5000 digits")
    assert ", 1 skipped" in captured.out


def test_build_all_bad_files_exits_nonzero(tmp_path):
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "one.krn").write_text("**kern\nnonsense\n*-\n")
    config_path = _write_config(tmp_path)
    rc = cli.main(["build", "--config", str(config_path)])
    assert rc == cli.EXIT_DATA


def test_config_validation_errors(tmp_path):
    path = _write_config(tmp_path, train_fraction=0.9, test_fraction=0.9)
    assert cli.main(["build", "--config", str(path)]) == cli.EXIT_USAGE
    path.write_text(json.dumps({"unknown_key": 1}))
    assert cli.main(["build", "--config", str(path)]) == cli.EXIT_USAGE
    path.write_text("{not json")
    assert cli.main(["build", "--config", str(path)]) == cli.EXIT_USAGE


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        cli.main(["train"])  # missing required flags
    assert info.value.code == cli.EXIT_USAGE


def test_train_smoke_writes_checkpoints_and_log(tiny_dataset):
    ckpt = tiny_dataset["checkpoint_dir"]
    assert (ckpt / "last.ckpt").exists()
    assert (ckpt / "best.ckpt").exists()
    assert (ckpt / cli.VOCAB_FILENAME).exists()
    log_lines = (ckpt / cli.LOG_FILENAME).read_text().strip().split("\n")
    assert len(log_lines) == tiny_dataset["config"].epochs
    assert "loss" in log_lines[0] and "val_wer" in log_lines[0]


def test_load_split_keeps_float32_frames(tiny_dataset):
    # the network rounds its input to float32, so training holds the frames so
    vocab = codec.Vocabulary.load(tiny_dataset["checkpoint_dir"] / cli.VOCAB_FILENAME)
    loaded = cli._load_split(tiny_dataset["manifest"], vocab, ("train", "validation"))
    frames = [spec for split in loaded.values() for _, spec, _ in split]
    assert frames and all(spec.dtype == np.float32 and spec.shape[1] == dsp.N_BINS for spec in frames)


def test_best_checkpoint_tracks_lowest_wer(tmp_path, monkeypatch):
    make_corpus(tmp_path / "corpus", n_scores=3, seed=4, two_voice_every=0)
    config = cli.RunConfig.from_file(_write_config(tmp_path, epochs=3))
    config.validate()
    assert cli.cmd_build(config) == 0
    canned = iter([(0.9, 0.9), (0.4, 0.4), (0.6, 0.6)])
    monkeypatch.setattr(cli, "_validation_rates", lambda *a, **k: next(canned))
    assert cli.cmd_train(config, Path(config.out_dir) / cli.MANIFEST_FILENAME) == 0
    _, _, _, state = net.load_checkpoint(Path(config.checkpoint_dir) / "best.ckpt")
    assert state["epoch"] == 2  # saved after the 0.4 epoch (index 1)
    assert state["best_wer"] == 0.4


def test_train_rerun_bitwise_identical(tmp_path):
    checkpoints = []
    for sub in ("a", "b"):
        root = tmp_path / sub
        make_corpus(root / "corpus", n_scores=3, seed=6, two_voice_every=3)
        config = cli.RunConfig.from_file(_write_config(root, epochs=2))
        config.validate()
        assert cli.cmd_build(config) == 0
        assert cli.cmd_train(config, Path(config.out_dir) / cli.MANIFEST_FILENAME) == 0
        checkpoints.append(Path(config.checkpoint_dir))
    a, b = checkpoints
    assert (a / "last.ckpt").read_bytes() == (b / "last.ckpt").read_bytes()
    assert (a / "best.ckpt").read_bytes() == (b / "best.ckpt").read_bytes()
    assert (a / cli.LOG_FILENAME).read_bytes() == (b / cli.LOG_FILENAME).read_bytes()


def test_train_resume_matches_uninterrupted(tmp_path):
    root = tmp_path
    make_corpus(root / "corpus", n_scores=3, seed=8, two_voice_every=3)
    config = cli.RunConfig.from_file(_write_config(root, epochs=2))
    config.validate()
    assert cli.cmd_build(config) == 0
    manifest = Path(config.out_dir) / cli.MANIFEST_FILENAME

    full_dir = root / "full"
    config_full = cli.RunConfig.from_file(_write_config(root, epochs=2, checkpoint_dir="full"))
    assert cli.cmd_train(config_full, manifest) == 0

    config_one = cli.RunConfig.from_file(_write_config(root, epochs=1, checkpoint_dir="steps"))
    assert cli.cmd_train(config_one, manifest) == 0
    config_two = cli.RunConfig.from_file(_write_config(root, epochs=2, checkpoint_dir="steps"))
    resume_from = root / "steps" / "last.ckpt"
    assert cli.cmd_train(config_two, manifest, resume_checkpoint=resume_from) == 0

    assert (root / "steps" / "last.ckpt").read_bytes() == (full_dir / "last.ckpt").read_bytes()


def test_train_checkpoint_does_not_depend_on_blas_thread_count(tmp_path):
    # one epoch on the acceptance toy corpus and model, in two child
    # processes that differ only in OPENBLAS_NUM_THREADS: every weight
    # gradient sums bounded products over one clip's frames in a fixed order.
    # Each child trains on its own copy of the dataset, so each computes the
    # features (at its thread count) rather than reading the other's cache
    make_corpus(tmp_path / "corpus", n_scores=7, seed=1, two_voice_every=7, n_measures=9)
    toy = {
        "seed": 11, "train_fraction": 0.8, "validation_fraction": 0.2, "test_fraction": 0.0,
        "min_measures": 1, "max_measures": 2, "overlap_train": True, "batch_size": 4,
        "model": {"hidden_units": 64, "dropout_p": 0.1, "frame_doubling": False},
    }
    config = cli.RunConfig.from_file(_write_config(tmp_path, **toy))
    assert cli.cmd_build(config) == 0
    ids = sorted(s.id for s in cli.read_manifest(Path(config.out_dir) / cli.MANIFEST_FILENAME))
    src = str(Path(cli.__file__).parents[1])
    checkpoints = []
    for threads in ("1", "2"):
        data = tmp_path / f"data{threads}"
        shutil.copytree(config.out_dir, data)
        manifest = data / cli.MANIFEST_FILENAME
        config_path = _write_config(tmp_path, checkpoint_dir=f"ckpt{threads}", **toy)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys; from polyscore import cli; sys.exit(cli.main(sys.argv[1:]))"
        run = subprocess.run(
            [sys.executable, "-c", code, "train", "--config", str(config_path), "--manifest", str(manifest)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert sorted(p.stem for p in (data / cli.FEATURES_DIRNAME).iterdir()) == ids
        checkpoints.append((tmp_path / f"ckpt{threads}" / "last.ckpt").read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_train_resume_after_failed_save_matches_uninterrupted(tmp_path, monkeypatch):
    # the save of last.ckpt after epoch 1 fails once the epoch's log line is
    # written; resuming from the epoch-1 checkpoint must not log epoch 1 twice
    root = tmp_path
    make_corpus(root / "corpus", n_scores=3, seed=8, two_voice_every=3)
    config = cli.RunConfig.from_file(_write_config(root, epochs=3))
    config.validate()
    assert cli.cmd_build(config) == 0
    manifest = Path(config.out_dir) / cli.MANIFEST_FILENAME
    full_dir = root / "full"
    assert cli.cmd_train(cli.RunConfig.from_file(_write_config(root, epochs=3, checkpoint_dir="full")), manifest) == 0

    real_save = net.save_checkpoint

    def failing_save(path, *args, epoch=0, **kwargs):
        if Path(path).name == "last.ckpt" and epoch == 2:
            raise OSError("disk full")
        return real_save(path, *args, epoch=epoch, **kwargs)

    steps_config = cli.RunConfig.from_file(_write_config(root, epochs=3, checkpoint_dir="steps"))
    monkeypatch.setattr(net, "save_checkpoint", failing_save)
    with pytest.raises(OSError):
        cli.cmd_train(steps_config, manifest)
    monkeypatch.setattr(net, "save_checkpoint", real_save)
    steps_dir = root / "steps"
    assert net.load_checkpoint(steps_dir / "last.ckpt")[3]["epoch"] == 1
    assert (steps_dir / cli.LOG_FILENAME).read_text().count("epoch 1 ") == 1
    assert cli.cmd_train(steps_config, manifest, resume_checkpoint=steps_dir / "last.ckpt") == 0

    for name in ("last.ckpt", cli.LOG_FILENAME):
        assert (steps_dir / name).read_bytes() == (full_dir / name).read_bytes(), name


def test_fresh_train_drops_log_lines_with_a_damaged_epoch_field(tiny_dataset, tmp_path):
    # "²" passes str.isdigit() but not int(), and int() refuses over 4300 digits
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    stale = "epoch ² loss 1.0\nepoch " + "1" * 5000 + " loss 1.0\nepoch 0 stale\n"
    (ckpt / cli.LOG_FILENAME).write_text(stale, encoding="utf-8")
    config_path = _write_config(tmp_path, epochs=1)
    train = ["train", "--config", str(config_path), "--manifest", str(tiny_dataset["manifest"])]
    assert cli.main(train) == cli.EXIT_OK
    log_lines = (ckpt / cli.LOG_FILENAME).read_text(encoding="utf-8").splitlines()
    assert len(log_lines) == 1 and log_lines[0].startswith("epoch 0 ") and "stale" not in log_lines[0]


def test_transcribe_training_sample(tiny_dataset, capsys, tmp_path):
    samples = cli.read_manifest(tiny_dataset["manifest"])
    wav = tiny_dataset["manifest"].parent / samples[0].audio
    rc = cli.main(
        ["transcribe", str(wav), "--checkpoint", str(tiny_dataset["checkpoint_dir"] / "best.ckpt")]
    )
    out = capsys.readouterr().out
    assert rc in (cli.EXIT_OK, cli.EXIT_MODEL)
    assert out.strip()
    if rc == cli.EXIT_OK:
        assert out.startswith("**kern")


def test_transcribe_silent_wav(tiny_dataset, tmp_path, capsys):
    wav = tmp_path / "silence.wav"
    dsp.write_wav(wav, np.zeros(3 * 22050))
    rc = cli.main(
        ["transcribe", str(wav), "--checkpoint", str(tiny_dataset["checkpoint_dir"] / "best.ckpt")]
    )
    assert rc in (cli.EXIT_OK, cli.EXIT_MODEL)
    assert capsys.readouterr().out.strip() != "" or rc == cli.EXIT_OK


def test_transcribe_malformed_output_prints_raw_symbols(tiny_dataset, tmp_path, capsys):
    # a model whose output layer favours the tab symbol at every frame decodes
    # to one tab: a row with an empty cell, printed raw with exit 3
    ckpt_dir = tiny_dataset["checkpoint_dir"]
    vocab = codec.Vocabulary.load(ckpt_dir / cli.VOCAB_FILENAME)
    config, params, velocity, state = net.load_checkpoint(ckpt_dir / "best.ckpt")
    params["out_w"][:] = 0.0
    params["out_b"][:] = 0.0
    params["out_b"][vocab.index_of(codec.TAB)] = 10.0
    net.save_checkpoint(tmp_path / "tab.ckpt", config, params, velocity, state["vocab_hash"])
    shutil.copy(ckpt_dir / cli.VOCAB_FILENAME, tmp_path / cli.VOCAB_FILENAME)
    wav = tiny_dataset["manifest"].parent / cli.read_manifest(tiny_dataset["manifest"])[0].audio
    capsys.readouterr()
    assert cli.main(["transcribe", str(wav), "--checkpoint", str(tmp_path / "tab.ckpt")]) == cli.EXIT_MODEL
    captured = capsys.readouterr()
    assert captured.out == "\\t\n"
    assert "row with empty cells (token position 0)" in captured.err


def test_transcribe_with_model_of_other_input_bins_is_model_error(tiny_dataset, tmp_path, capsys):
    ckpt_dir = tiny_dataset["checkpoint_dir"]
    vocab = codec.Vocabulary.load(ckpt_dir / cli.VOCAB_FILENAME)
    config = net.ModelConfig(vocab_size=len(vocab), input_bins=24, hidden_units=8)
    params = net.init_params(config, 0)
    net.save_checkpoint(tmp_path / "bins.ckpt", config, params, net.zero_velocity(params), vocab.sha256())
    shutil.copy(ckpt_dir / cli.VOCAB_FILENAME, tmp_path / cli.VOCAB_FILENAME)
    wav = tiny_dataset["manifest"].parent / cli.read_manifest(tiny_dataset["manifest"])[0].audio
    assert cli.main(["transcribe", str(wav), "--checkpoint", str(tmp_path / "bins.ckpt")]) == cli.EXIT_MODEL
    assert "model error: expected (W, 24) input" in capsys.readouterr().err


def test_transcribe_corrupt_checkpoint_distinct_exit(tiny_dataset, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    shutil.copy(tiny_dataset["checkpoint_dir"] / cli.VOCAB_FILENAME, tmp_path / cli.VOCAB_FILENAME)
    samples = cli.read_manifest(tiny_dataset["manifest"])
    wav = tiny_dataset["manifest"].parent / samples[0].audio
    rc = cli.main(["transcribe", str(wav), "--checkpoint", str(bad)])
    assert rc == cli.EXIT_DATA  # load failure, not a decoding failure


def _edit_header(path, **changes):
    """Rewrite a checkpoint's JSON header; a ``config`` change merges into the model configuration."""
    data = path.read_bytes()
    (length,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12 : 12 + length])
    header["config"].update(changes.pop("config", {}))
    header.update(changes)
    encoded = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:8] + struct.pack("<I", len(encoded)) + encoded + data[12 + length :])


@pytest.mark.parametrize(
    "damage",
    [
        "missing_tensor",
        "trailing_bytes",
        "version_1",
        "version_2",
        "hidden_units_float",
        "conv_freq_stride",
        "conv_layers",
        "dropout_p_bool",
        "nan_value",
    ],
)
def test_transcribe_malformed_checkpoint_exits_data_error(tiny_dataset, tmp_path, capsys, damage):
    ckpt_dir = tiny_dataset["checkpoint_dir"]
    bad = tmp_path / "bad.ckpt"
    data = (ckpt_dir / "best.ckpt").read_bytes()
    (header_len,) = struct.unpack("<I", data[8:12])
    payload = 12 + header_len + 32
    bad.write_bytes(
        {
            "missing_tensor": data[:-4],  # the last velocity's last value is cut off
            "trailing_bytes": data + b"\x00",
            "version_1": data[:4] + struct.pack("<I", 1) + data[8:],
            "version_2": data[:4] + struct.pack("<I", 2) + data[8:],
            # the first parameter value; a NaN once decoded to an empty score with exit 0
            "nan_value": data[:payload] + struct.pack("<f", float("nan")) + data[payload + 4 :],
        }.get(damage, data)
    )
    if damage == "hidden_units_float":
        _edit_header(bad, config={"hidden_units": 8.5})
    if damage == "conv_freq_stride":
        # a field of version 1 configurations that later versions have no longer
        _edit_header(bad, config={"conv_freq_stride": 2.5})
    if damage == "conv_layers":
        # the layer counts are constants, not configuration fields
        _edit_header(bad, config={"conv_layers": 2})
    if damage == "dropout_p_bool":
        _edit_header(bad, config={"dropout_p": False})
    shutil.copy(ckpt_dir / cli.VOCAB_FILENAME, tmp_path / cli.VOCAB_FILENAME)
    wav = tiny_dataset["manifest"].parent / cli.read_manifest(tiny_dataset["manifest"])[0].audio
    assert cli.main(["transcribe", str(wav), "--checkpoint", str(bad)]) == cli.EXIT_DATA
    if damage.startswith("version_"):
        assert f"unsupported checkpoint version {damage[-1]}; retrain" in capsys.readouterr().err


def _refuse_clip_loading(monkeypatch):
    def load_split(*args):
        raise AssertionError("train loaded clips before rejecting its input")

    monkeypatch.setattr(cli, "_load_split", load_split)


@pytest.mark.parametrize(
    "change",
    [
        {"epoch": "0"},
        {"epoch": -1},
        {"best_wer": "x"},
        {"best_wer": True},
        {"best_wer": float("nan")},
        {"best_wer": float("inf")},
    ],
)
def test_train_resume_from_bad_header_exits_data_error(tiny_dataset, tmp_path, change):
    bad = tmp_path / "bad.ckpt"
    shutil.copy(tiny_dataset["checkpoint_dir"] / "best.ckpt", bad)
    _edit_header(bad, **change)
    train = ["train", "--config", str(_write_config(tmp_path)), "--manifest", str(tiny_dataset["manifest"])]
    assert cli.main([*train, "--checkpoint", str(bad)]) == cli.EXIT_DATA


def test_evaluate_empty_split_fails(tiny_dataset):
    rc = cli.main(
        [
            "evaluate",
            "--checkpoint", str(tiny_dataset["checkpoint_dir"] / "best.ckpt"),
            "--manifest", str(tiny_dataset["manifest"]),
            "--split", "nonexistent",
        ]
    )
    assert rc == cli.EXIT_DATA


def test_evaluate_text_report_format(tiny_dataset, capsys):
    evaluate = [
        "evaluate",
        "--checkpoint", str(tiny_dataset["checkpoint_dir"] / "best.ckpt"),
        "--manifest", str(tiny_dataset["manifest"]),
        "--split", "train",
    ]
    rc = cli.main(evaluate)
    assert rc == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-1].startswith("summary split train")
    assert all(" wer " in line and " cer " in line for line in lines[:-1])
    # the JSON report holds the same samples and summary
    assert cli.main([*evaluate, "--json"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert [r["id"] for r in report["samples"]] == [line.split()[0] for line in lines[:-1]]
    summary = report["summary"]
    rates = f"wer {summary['wer']:.4f} cer {summary['cer']:.4f}"
    assert lines[-1] == f"summary split train samples {summary['samples']} {rates}"


def test_train_vocab_hash_mismatch_rejected(tiny_dataset, tmp_path):
    # checkpoint from a different vocabulary must be refused on resume, and
    # the refused run must leave the checkpoint directory's vocabulary as it was
    config = tiny_dataset["config"]
    other_vocab = codec.Vocabulary(symbols=codec.STRUCTURAL_SYMBOLS + ("4", "C4"))
    model_config = net.ModelConfig(vocab_size=len(other_vocab), **config.model)
    params = net.init_params(model_config, 0)
    ckpt_dir = tmp_path / "ckpt"
    ckpt_dir.mkdir()
    other_vocab.save(ckpt_dir / cli.VOCAB_FILENAME)
    vocab_bytes = (ckpt_dir / cli.VOCAB_FILENAME).read_bytes()
    bad_ckpt = ckpt_dir / "last.ckpt"
    net.save_checkpoint(
        bad_ckpt, model_config, params, net.zero_velocity(params), other_vocab.sha256()
    )
    rc = cli.main(
        [
            "train",
            "--config", str(_write_config(tmp_path)),
            "--manifest", str(tiny_dataset["manifest"]),
            "--checkpoint", str(bad_ckpt),
        ]
    )
    assert rc == cli.EXIT_DATA
    assert (ckpt_dir / cli.VOCAB_FILENAME).read_bytes() == vocab_bytes


def test_train_skips_clip_whose_target_needs_more_frames(tiny_dataset, tmp_path, capsys):
    # one train clip's token file asks for more labels than the clip has
    # frames: every epoch skips it with one stderr line and trains the rest
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset["manifest"].parent, data)
    manifest = data / cli.MANIFEST_FILENAME
    sample = next(s for s in cli.read_manifest(manifest) if s.split == "train")
    frames = len(cli._features(data / sample.audio))
    tokens = (data / sample.tokens).read_text().split()
    (data / sample.tokens).write_text("\n".join(tokens * (frames // len(tokens) + 1)) + "\n")
    config_path = _write_config(tmp_path, epochs=2)
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config_path), "--manifest", str(manifest)]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    skips = [line for line in err.splitlines() if line.startswith("train: skipping")]
    assert [line.split(":")[1] for line in skips] == [f" skipping {sample.id} in epoch {e}" for e in (0, 1)]
    epoch_lines = out.splitlines()
    assert len(epoch_lines) == 2 and all(line.endswith(" skipped 1") for line in epoch_lines)
    log = (tmp_path / "ckpt" / cli.LOG_FILENAME).read_text().splitlines()
    assert log == epoch_lines
    for line in log:
        words = line.split()
        assert math.isfinite(float(words[words.index("loss") + 1]))


def test_seed_flag_overrides_config(tmp_path, capsys):
    make_corpus(tmp_path / "corpus", n_scores=3, seed=3, two_voice_every=0)
    config_path = _write_config(tmp_path)
    assert cli.main(["build", "--config", str(config_path), "--seed", "99"]) == cli.EXIT_OK
    manifest_99 = (tmp_path / "data" / "manifest.jsonl").read_bytes()
    assert cli.main(["build", "--config", str(config_path), "--seed", "5"]) == cli.EXIT_OK
    manifest_5 = (tmp_path / "data" / "manifest.jsonl").read_bytes()
    assert manifest_99 != manifest_5


def test_evaluate_reports_missing_files_per_sample(tiny_dataset, tmp_path, capsys):
    # copy the dataset, remove one train wav: evaluate skips it and continues
    data_dir = tiny_dataset["manifest"].parent
    clone = tmp_path / "data"
    shutil.copytree(data_dir, clone)
    samples = [s for s in cli.read_manifest(clone / "manifest.jsonl") if s.split == "train"]
    assert len(samples) >= 2
    (clone / samples[0].audio).unlink()
    rc = cli.main(
        [
            "evaluate",
            "--checkpoint", str(tiny_dataset["checkpoint_dir"] / "best.ckpt"),
            "--manifest", str(clone / "manifest.jsonl"),
            "--split", "train",
        ]
    )
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert samples[0].id in captured.err
    assert "summary" in captured.out


def test_train_invalid_model_config_is_usage_error(tiny_dataset, tmp_path, monkeypatch):
    _refuse_clip_loading(monkeypatch)
    for model in (
        {"hidden_units": 8, "no_such_knob": True},
        {"hidden_units": 8.5},
        {"conv_layers": 2},  # the layer counts are constants, not fields
        {"recurrent_layers": 2},
        {"frame_doubling": 1},
        {"dropout_p": False},  # a boolean is not a probability
        {"conv_kernel": 3},  # a field of version 1 configurations
        {"input_bins": 120},  # the spectrogram has 240 bins
        # tensors past NumPy's largest dimension, and tensors of petabytes:
        # both fail to allocate at once
        {"hidden_units": 10**20},
        {"hidden_units": 2**40},
    ):
        bad = _write_config(tmp_path, model=model)
        rc = cli.main(["train", "--config", str(bad), "--manifest", str(tiny_dataset["manifest"])])
        assert rc == cli.EXIT_USAGE, model


def test_config_with_wrong_types_is_usage_error(tmp_path):
    path = tmp_path / "types.json"
    wrong = (
        {"seed": "not-a-number"},
        {"default_tempo": 5},
        {"default_tempo": "zzz"},
        # flags must be booleans, and a boolean is not a count or a number
        {"fragment_enabled": "no"},
        {"tempo_jitter": 1},
        {"batch_size": True},
        {"max_duration_s": True},  # not a config key: refused as unknown
        {"train_fraction": True, "validation_fraction": 0, "test_fraction": 0},
        {"max_measures": 10**20},  # past int64, the type fragment sizes are drawn in
    )
    for raw in wrong:
        path.write_text(json.dumps(raw))
        assert cli.main(["build", "--config", str(path)]) == cli.EXIT_USAGE, raw


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400], ids=["nan", "infinity", "huge_int"])
@pytest.mark.parametrize("name", ["train_fraction", "validation_fraction"])
def test_non_finite_split_fraction_is_usage_error(tmp_path, capsys, name, value):
    make_corpus(tmp_path / "corpus", n_scores=2, seed=3, two_voice_every=0)
    # json writes NaN and Infinity as bare constants, which json.loads accepts
    path = _write_config(tmp_path, **{name: value})
    assert cli.main(["build", "--config", str(path)]) == cli.EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_non_finite_manifest_duration_is_data_error(tiny_dataset, tmp_path):
    rows = [json.loads(line) for line in tiny_dataset["manifest"].read_text().splitlines()]
    manifest = tmp_path / "manifest.jsonl"
    for value in (float("nan"), float("inf")):
        rows[0]["duration_s"] = value
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(cli.DataError, match="duration_s"):
            cli.read_manifest(manifest)


def test_manifest_number_of_more_digits_than_int_converts_is_data_error(tiny_dataset, tmp_path):
    # json parses a long integer with int(), which refuses more than 4300 digits
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset["manifest"].parent, data)
    manifest = data / "manifest.jsonl"
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    lines = [json.dumps(r) for r in rows]
    lines[0] = lines[0].replace(json.dumps(rows[0]["duration_s"]), "9" * 5000)
    manifest.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(cli.DataError, match=f"cannot read manifest {manifest}"):
        cli.read_manifest(manifest)
    config_path = _write_config(tmp_path)
    assert cli.main(["train", "--config", str(config_path), "--manifest", str(manifest)]) == cli.EXIT_DATA
    checkpoint = str(tiny_dataset["checkpoint_dir"] / "best.ckpt")
    evaluate = ["evaluate", "--checkpoint", checkpoint, "--manifest", str(manifest), "--split", "train"]
    assert cli.main(evaluate) == cli.EXIT_DATA


def _malformed_inputs(root, data, checkpoint, damage):
    """Apply one kind of damage to a copy of the dataset; returns (argv, exit code)."""
    config_path = _write_config(root)
    train = ["train", "--config", str(config_path), "--manifest", str(data / "manifest.jsonl")]
    rows = [json.loads(line) for line in (data / "manifest.jsonl").read_text().splitlines()]
    first_train = next(r for r in rows if r["split"] == "train")
    if damage == "vocab_symbol":
        (data / cli.VOCAB_FILENAME).write_text("foo\n")
        return train, cli.EXIT_DATA
    if damage in ("token_out_of_range", "token_negative", "token_blank"):
        value = {"token_out_of_range": 999, "token_negative": -1, "token_blank": 0}[damage]
        (data / first_train["tokens"]).write_text(f"{value}\n")
        return train, cli.EXIT_DATA
    if damage in ("manifest_audio_type", "train_audio_under_file", "evaluate_audio_under_file"):
        # an audio path of the wrong type, or one that runs through a regular file
        first_train["audio"] = 5 if damage == "manifest_audio_type" else f"{first_train['audio']}/x.wav"
        (data / "manifest.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        if damage == "evaluate_audio_under_file":
            evaluate = ["evaluate", "--checkpoint", checkpoint, "--manifest", train[-1], "--split", "train"]
            return evaluate, cli.EXIT_OK
        return train, cli.EXIT_DATA
    if damage == "wav_under_file":
        wav = data / first_train["audio"]
        return ["transcribe", str(wav / "x.wav"), "--checkpoint", checkpoint], cli.EXIT_DATA
    if damage == "checkpoint_dir_under_file":
        (root / "blocker").write_text("")
        _write_config(root, checkpoint_dir="blocker/ckpt")
        return train, cli.EXIT_DATA
    make_corpus(root / "corpus", n_scores=1, seed=3, two_voice_every=0)
    if damage == "out_dir_under_file":
        (root / "blocker").write_text("")
        config_path = _write_config(root, out_dir="blocker/data")
        return ["build", "--config", str(config_path)], cli.EXIT_DATA
    # voices is not a config key: refused as unknown
    config_path = _write_config(root, voices=[{"harmonics": 5}])
    return ["build", "--config", str(config_path)], cli.EXIT_USAGE


@pytest.mark.parametrize(
    "damage",
    [
        "vocab_symbol",
        "token_out_of_range",
        "token_negative",
        "token_blank",
        "manifest_audio_type",
        "voices_harmonics_type",
        "wav_under_file",
        "train_audio_under_file",
        "evaluate_audio_under_file",
        "out_dir_under_file",
        "checkpoint_dir_under_file",
    ],
)
def test_malformed_inputs_exit_with_documented_code(tiny_dataset, tmp_path, capsys, monkeypatch, damage):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset["manifest"].parent, data)
    checkpoint = str(tiny_dataset["checkpoint_dir"] / "best.ckpt")
    argv, expected = _malformed_inputs(tmp_path, data, checkpoint, damage)
    if damage == "checkpoint_dir_under_file":
        _refuse_clip_loading(monkeypatch)
    assert cli.main(argv) == expected
    if damage == "evaluate_audio_under_file":
        assert "evaluate: skipping" in capsys.readouterr().err
    if damage == "vocab_symbol":
        # transcribe and evaluate read the vocabulary beside the checkpoint
        ckpt = tmp_path / "ckpt"
        shutil.copytree(tiny_dataset["checkpoint_dir"], ckpt)
        shutil.copy(data / cli.VOCAB_FILENAME, ckpt / cli.VOCAB_FILENAME)
        wav = next(data.glob("audio/*.wav"))
        checkpoint = str(ckpt / "best.ckpt")
        assert cli.main(["transcribe", str(wav), "--checkpoint", checkpoint]) == cli.EXIT_DATA
        evaluate = ["evaluate", "--checkpoint", checkpoint, "--manifest", str(data / "manifest.jsonl")]
        assert cli.main(evaluate) == cli.EXIT_DATA


@pytest.mark.parametrize(
    "tokens", ["999\n", "", "x\n", "2\n"], ids=["out_of_range", "empty", "not_a_number", "no_words"]
)
def test_evaluate_skips_sample_with_malformed_tokens(tiny_dataset, tmp_path, capsys, tokens):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset["manifest"].parent, data)
    samples = [s for s in cli.read_manifest(data / "manifest.jsonl") if s.split == "train"]
    (data / samples[0].tokens).write_text(tokens)
    rc = cli.main(
        [
            "evaluate",
            "--checkpoint", str(tiny_dataset["checkpoint_dir"] / "best.ckpt"),
            "--manifest", str(data / "manifest.jsonl"),
            "--split", "train",
        ]
    )
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert samples[0].id in captured.err
    assert f"samples {len(samples) - 1} " in captured.out


def test_non_utf8_manifest_is_data_error(tiny_dataset, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset["manifest"].parent, data)
    manifest = data / "manifest.jsonl"
    manifest.write_bytes(b"\xff\xfe" + manifest.read_bytes())
    config_path = _write_config(tmp_path)
    assert cli.main(["train", "--config", str(config_path), "--manifest", str(manifest)]) == cli.EXIT_DATA
    checkpoint = str(tiny_dataset["checkpoint_dir"] / "best.ckpt")
    evaluate = ["evaluate", "--checkpoint", checkpoint, "--manifest", str(manifest), "--split", "train"]
    assert cli.main(evaluate) == cli.EXIT_DATA


def _write_unreadable_wav(path, damage):
    """Write one kind of WAV input that load_wav must reject; returns the exception it raises."""
    path.unlink(missing_ok=True)
    if damage == "directory":
        path.mkdir()
        return dsp.UnsupportedFormat
    dsp.write_wav(path, np.zeros(0 if damage == "zero_frames" else 4096))
    data = path.read_bytes()
    damaged, error = {
        "truncated_20_bytes": (data[:20], dsp.UnsupportedFormat),
        "empty": (b"", dsp.UnsupportedFormat),
        "header_only": (data[:44], dsp.TooShort),
        "zero_frames": (data, dsp.TooShort),
        "odd_data_bytes": (data[:-1], dsp.UnsupportedFormat),
    }[damage]
    path.write_bytes(damaged)
    return error


@pytest.mark.parametrize(
    "damage",
    ["truncated_20_bytes", "empty", "header_only", "zero_frames", "odd_data_bytes", "directory"],
)
def test_unreadable_wav_exits_data_error(tiny_dataset, tmp_path, capsys, damage):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset["manifest"].parent, data)
    samples = [s for s in cli.read_manifest(data / "manifest.jsonl") if s.split == "train"]
    wav = data / samples[0].audio
    with pytest.raises(_write_unreadable_wav(wav, damage)):
        dsp.load_wav(wav)
    checkpoint = str(tiny_dataset["checkpoint_dir"] / "best.ckpt")
    assert cli.main(["transcribe", str(wav), "--checkpoint", checkpoint]) == cli.EXIT_DATA
    capsys.readouterr()
    # evaluate skips the sample and scores the rest
    manifest = str(data / "manifest.jsonl")
    assert cli.main(["evaluate", "--checkpoint", checkpoint, "--manifest", manifest, "--split", "train"]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert f"evaluate: skipping {samples[0].id}" in captured.err
    assert f"samples {len(samples) - 1} " in captured.out


_FUZZ_SAMPLES = 6000  # 8 analysis frames
_FUZZ_BYTES = 44 + 2 * _FUZZ_SAMPLES  # header and 16-bit mono data


@settings(max_examples=80, deadline=None, database=None)
@seed(20261018)
@given(
    cut=st.one_of(st.none(), st.integers(0, _FUZZ_BYTES)),
    # one_of biases the flipped bits toward the 44-byte header
    flips=st.lists(st.one_of(st.integers(0, 44 * 8 - 1), st.integers(0, _FUZZ_BYTES * 8 - 1)), max_size=6),
)
def test_damaged_wav_stays_inside_exit_codes(tiny_dataset, cut, flips):
    # truncated or bit-flipped WAVs: transcribe exits 0, 2 or 3 and raises nothing
    checkpoint = str(tiny_dataset["checkpoint_dir"] / "best.ckpt")
    with tempfile.TemporaryDirectory() as tmp:
        wav = Path(tmp) / "damaged.wav"
        dsp.write_wav(wav, 0.5 * np.sin(0.05 * np.arange(_FUZZ_SAMPLES)))
        data = bytearray(wav.read_bytes()[:cut])
        for bit in flips:
            if bit // 8 < len(data):
                data[bit // 8] ^= 1 << (bit % 8)
        wav.write_bytes(bytes(data))
        rc = cli.main(["transcribe", str(wav), "--checkpoint", checkpoint])
    assert rc in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_MODEL)


_CKPT_HEAD_BYTES = 200  # magic, version, header length and most of the JSON header


@settings(max_examples=80, deadline=None, database=None)
@seed(20261018)
@given(
    # one_of biases the cuts and the flipped bits toward the header; other
    # positions are taken modulo the file's length
    cut=st.one_of(st.none(), st.integers(0, _CKPT_HEAD_BYTES), st.integers(0, 2**32)),
    flips=st.lists(st.one_of(st.integers(0, 8 * _CKPT_HEAD_BYTES - 1), st.integers(0, 2**32)), max_size=6),
)
def test_damaged_checkpoint_stays_inside_exit_codes(tiny_dataset, cut, flips):
    # truncated or bit-flipped checkpoints: transcribe exits 0, 2 or 3 and raises nothing
    raw = (tiny_dataset["checkpoint_dir"] / "best.ckpt").read_bytes()
    data = bytearray(raw if cut is None else raw[: cut % (len(raw) + 1)])
    for bit in flips:
        bit %= 8 * len(raw)
        if bit // 8 < len(data):
            data[bit // 8] ^= 1 << (bit % 8)
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "damaged.ckpt"
        checkpoint.write_bytes(bytes(data))
        shutil.copy(tiny_dataset["checkpoint_dir"] / cli.VOCAB_FILENAME, Path(tmp) / cli.VOCAB_FILENAME)
        wav = Path(tmp) / "tone.wav"
        dsp.write_wav(wav, 0.5 * np.sin(0.05 * np.arange(_FUZZ_SAMPLES)))
        rc = cli.main(["transcribe", str(wav), "--checkpoint", str(checkpoint)])
    assert rc in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_MODEL)


_DROP = object()  # a mutation that deletes the key
# values a mutation puts in place of a config or model value: non-finite and
# huge numbers (each hidden_units among them fails to allocate at once),
# other types, nested objects
_ODD_VALUES = (
    float("nan"), float("inf"), -float("inf"), 10**20, 2**63, 10**400, -(10**20), 0, 1, 0.5,
    True, None, "x", [1, 2], {}, {"a": {"b": 1}},
)
# every key but epochs (kept at 0) and the three path fields
_FUZZ_KEYS = (
    "seed", "train_fraction", "validation_fraction", "test_fraction", "fragment_enabled",
    "min_measures", "max_measures", "overlap_train", "default_tempo", "tempo_jitter",
    "batch_size", "model", "model.hidden_units", "model.dropout_p", "model.frame_doubling",
)


@st.composite
def _fuzzed_config_texts(draw):
    """The JSON text of a valid config with up to four keys dropped or given odd values, or non-object JSON."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(["[]", "1", '"config"', "null", "NaN", "[1, 2]", "{"]))
    config = _config(epochs=0)
    for key in draw(st.lists(st.sampled_from(_FUZZ_KEYS), max_size=4)):
        value = draw(st.sampled_from((_DROP,) + _ODD_VALUES))
        parent, _, name = key.rpartition(".")
        target = config[parent] if parent else config
        if not isinstance(target, dict):
            continue  # the model was replaced by a value that is not an object
        if value is _DROP:
            target.pop(name, None)
        else:
            target[name] = value
    return json.dumps(config)


@settings(max_examples=100, deadline=None, database=None)
@seed(20261019)
@given(text=_fuzzed_config_texts())
def test_fuzzed_config_stays_inside_exit_codes(tiny_dataset, text):
    # build and a 0-epoch train exit 0 where the config stayed valid and 1
    # where it did not, and raise nothing
    source = tiny_dataset["manifest"].parent
    rows = [r for r in map(json.loads, tiny_dataset["manifest"].read_text().splitlines()) if r["split"] == "train"][:3]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        make_corpus(root / "corpus", n_scores=2, seed=3, two_voice_every=0, n_measures=3)
        dataset = root / "dataset"
        for name in [cli.VOCAB_FILENAME] + [r[key] for r in rows for key in ("audio", "tokens")]:
            (dataset / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(source / name, dataset / name)
        (dataset / cli.MANIFEST_FILENAME).write_text("".join(json.dumps(r) + "\n" for r in rows))
        config = root / "config.json"
        config.write_text(text)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            for argv in (["build"], ["train", "--manifest", str(dataset / cli.MANIFEST_FILENAME)]):
                assert cli.main([*argv, "--config", str(config)]) in (cli.EXIT_OK, cli.EXIT_USAGE), (argv, text)
    assert "Traceback" not in stderr.getvalue()


# mutated fixture sources, mixed with intact ones so that the mutants that
# parse also meet fragment, encode and render beside material that builds
_FUZZED_CORPUS_TEXT = st.one_of(mutated_fixture_texts(), st.sampled_from(sorted(FIXTURE_SOURCES.values())))


@settings(max_examples=200, deadline=None, database=None)
@seed(20261019)
@given(texts=st.lists(_FUZZED_CORPUS_TEXT, min_size=1, max_size=4))
@example(texts=[FIXTURE_SOURCES["two_measures"], "**kern\n=\n*-\n"])  # a barline and no note
def test_fuzzed_corpus_stays_inside_exit_codes(texts):
    # build exits 0, or 2 where nothing is left to build, and raises nothing;
    # a corpus file that gives no sample gets a skip line naming it or its
    # fragments, and no file or fragment is named twice
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "corpus").mkdir()
        stems = [f"s{i}" for i in range(len(texts))]
        for stem, text in zip(stems, texts):
            (root / "corpus" / f"{stem}.krn").write_text(text, encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["build", "--config", str(_write_config(root, min_measures=1, max_measures=2))])
        assert rc in (cli.EXIT_OK, cli.EXIT_DATA), texts
        lines = [line for line in stderr.getvalue().splitlines() if line.startswith("build: skipping ")]
        skipped = [line.split(": ")[1].removeprefix("skipping ") for line in lines]
        assert len(skipped) == len(set(skipped)), stderr.getvalue()
        if rc == cli.EXIT_OK:
            built = [s.id for s in cli.read_manifest(root / "data" / cli.MANIFEST_FILENAME)]
            named = {name.removesuffix(".krn").rsplit("_f", 1)[0] for name in skipped + built}
            assert named == set(stems), (texts, stderr.getvalue())


def _drop_field(raw: bytes, pick: int, jsonl: bool) -> bytes:
    """Drop one line of a text file or, from a JSON-lines file, one field of one record."""
    lines = raw.splitlines(keepends=True)
    if not lines:
        return raw
    i = pick % len(lines)
    if not jsonl:
        return b"".join(lines[:i] + lines[i + 1 :])
    record = json.loads(lines[i])
    del record[sorted(record)[pick // len(lines) % len(record)]]
    return b"".join(lines[:i] + [json.dumps(record).encode() + b"\n"] + lines[i + 1 :])


@settings(max_examples=100, deadline=None, database=None)
@seed(20261018)
@given(
    target=st.sampled_from([cli.MANIFEST_FILENAME, cli.VOCAB_FILENAME, "tokens"]),
    drop=st.one_of(st.none(), st.integers(0, 2**32)),
    # cut positions and flipped bits are taken modulo the file's length
    cut=st.one_of(st.none(), st.integers(0, 2**32)),
    flips=st.lists(st.integers(0, 2**32), max_size=4),
)
def test_damaged_dataset_files_stay_inside_exit_codes(tiny_dataset, target, drop, cut, flips):
    # a manifest, vocabulary or token file with a field or line dropped,
    # truncated or bit-flipped: train and evaluate exit 1, 2 or 3 and raise
    # nothing, or exit 0 where the damage left the file valid
    source = tiny_dataset["manifest"].parent
    lines = tiny_dataset["manifest"].read_text().splitlines()
    rows = [r for r in map(json.loads, lines) if r["split"] == "train"][:3]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data = root / "data"
        for name in [cli.VOCAB_FILENAME] + [r[key] for r in rows for key in ("audio", "tokens")]:
            (data / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(source / name, data / name)
        (data / cli.MANIFEST_FILENAME).write_text("".join(json.dumps(r) + "\n" for r in rows))
        path = data / (rows[0]["tokens"] if target == "tokens" else target)
        raw = path.read_bytes()
        damaged = bytearray(raw if drop is None else _drop_field(raw, drop, target == cli.MANIFEST_FILENAME))
        if cut is not None:
            del damaged[cut % (len(damaged) + 1) :]
        for bit in flips:
            bit %= 8 * len(raw)
            if bit // 8 < len(damaged):
                damaged[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(damaged))
        ckpt = root / "ckpt"
        ckpt.mkdir()
        shutil.copy(tiny_dataset["checkpoint_dir"] / "best.ckpt", ckpt / "best.ckpt")
        shutil.copy(data / cli.VOCAB_FILENAME, ckpt / cli.VOCAB_FILENAME)
        manifest = str(data / cli.MANIFEST_FILENAME)
        train = ["train", "--config", str(_write_config(root, epochs=0, checkpoint_dir="out")), "--manifest", manifest]
        evaluate = ["evaluate", "--checkpoint", str(ckpt / "best.ckpt"), "--manifest", manifest, "--split", "train"]
        for argv in (train, evaluate):
            assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_MODEL)
