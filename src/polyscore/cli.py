"""Batch commands: dataset building, training, transcription, evaluation.

Every command is deterministic given (config, seed): random substreams are
derived from stable string keys, so a rerun reproduces manifests, token files
and checkpoints byte for byte.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 model or decoding error. ``main`` maps the three base classes of
:mod:`polyscore.errors` to 1, 2 and 3, and any ``OSError`` to 2.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import codec, ctc, dsp, kern, metrics, net, synth
from .atomic import atomic_open
from .errors import ConfigError, DataError, ModelError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3

VOCAB_FILENAME = "vocab.txt"
MANIFEST_FILENAME = "manifest.jsonl"
LOG_FILENAME = "train_log.txt"
FEATURES_DIRNAME = "features"
# a cached features file's header: magic, format version, frame count, key,
# payload SHA-256; 80 bytes, so the float32 payload after it stays aligned
_FEATURES_HEADER = struct.Struct("<8sII32s32s")
_FEATURES_MAGIC = b"PSFEAT\r\n"
_FEATURES_VERSION = 1
_INT64_MAX = 2**63 - 1  # the largest count a config may give: fragment sizes are drawn as int64


@dataclass
class RunConfig:
    corpus_dir: str = "corpus"
    out_dir: str = "data"
    checkpoint_dir: str = "checkpoints"
    seed: int = 0
    train_fraction: float = 0.7
    validation_fraction: float = 0.0
    test_fraction: float = 0.3
    fragment_enabled: bool = True
    min_measures: int = 3
    max_measures: int = 6
    overlap_train: bool = True
    default_tempo: str = "allegro"
    tempo_jitter: bool = True
    batch_size: int = 4
    epochs: int = 1
    model: dict = field(default_factory=dict)

    def validate(self) -> None:
        for name in ("seed", "min_measures", "max_measures", "batch_size", "epochs"):
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an integer")
        for name in ("fragment_enabled", "overlap_train", "tempo_jitter"):
            if type(getattr(self, name)) is not bool:
                raise ConfigError(f"{name} must be true or false")
        fractions = (self.train_fraction, self.validation_fraction, self.test_fraction)
        if not all(_is_number(f) for f in fractions):
            raise ConfigError("split fractions must be numbers")
        if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
            raise ConfigError("split fractions must be non-negative and sum to 1")
        if self.train_fraction <= 0:
            raise ConfigError("train fraction must be positive")
        if not 1 <= self.min_measures <= self.max_measures <= _INT64_MAX:
            raise ConfigError(f"need 1 <= min_measures <= max_measures <= {_INT64_MAX}")
        if not (1 <= self.batch_size <= _INT64_MAX and 0 <= self.epochs <= _INT64_MAX):
            raise ConfigError(f"batch_size must lie in [1, {_INT64_MAX}] and epochs in [0, {_INT64_MAX}]")
        if not isinstance(self.default_tempo, str):
            raise ConfigError("default_tempo must be a string")
        try:
            kern.assign_tempo(self.default_tempo)
        except kern.UnknownTempoLabel as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        base = path.parent
        for attr in ("corpus_dir", "out_dir", "checkpoint_dir"):
            value = Path(getattr(cfg, attr))
            if not value.is_absolute():
                setattr(cfg, attr, str(base / value))
        return cfg


def _is_number(value) -> bool:
    """A finite int or float: not a bool, NaN, an infinity or an int past float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _digest(parts) -> bytes:
    return hashlib.sha256("/".join(str(p) for p in parts).encode("utf-8")).digest()


def _substream(*parts) -> np.random.Generator:
    entropy = np.frombuffer(_digest(parts)[:16], dtype=np.uint32).tolist()
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _subseed(*parts) -> int:
    return int.from_bytes(_digest(parts)[:8], "little")


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


@dataclass
class Sample:
    id: str
    audio: str
    tokens: str
    duration_s: float
    split: str


def write_manifest(path, samples: list[Sample]) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in samples:
            fh.write(json.dumps(dataclasses.asdict(s), sort_keys=True) + "\n")


def read_manifest(path) -> list[Sample]:
    samples = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    samples.append(Sample(**json.loads(line)))
    # ValueError covers JSONDecodeError and a number of more digits than
    # int() converts, 4300 by default
    except (OSError, UnicodeDecodeError, ValueError, TypeError) as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    for s in samples:
        if not all(isinstance(v, str) for v in (s.id, s.audio, s.tokens, s.split)):
            raise DataError(f"manifest {path}: id, audio, tokens and split of {s.id!r} must be strings")
        if not _is_number(s.duration_s):
            raise DataError(f"manifest {path}: duration_s of {s.id!r} must be a number")
    return samples


def _write_tokens(path, seq: codec.TokenSequence) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t in seq.tokens:
            fh.write(f"{t}\n")


def _read_tokens(path, vocab: codec.Vocabulary) -> codec.TokenSequence:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tokens = tuple(int(line) for line in fh if line.strip())
        if not tokens:
            raise ValueError("no tokens")
        if ctc.BLANK in tokens:
            raise ValueError("the blank cannot be a target token")
        return codec.TokenSequence(tokens=tokens, vocab=vocab)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read token file {path}: {exc}") from exc


def cmd_build(config: RunConfig) -> int:
    """Corpus -> parsed scores -> fragments -> synthesized WAVs + token targets."""
    corpus = Path(config.corpus_dir)
    if not corpus.is_dir():
        raise DataError(f"corpus directory {corpus} does not exist")
    files = sorted(p for p in corpus.iterdir() if p.suffix in (".krn", ".kern"))
    if not files:
        raise DataError(f"no kern files in {corpus}")

    docs: list[tuple[str, kern.KernDocument]] = []
    failures = 0
    for path in files:
        try:
            docs.append((path.name, kern.parse_kern(path.read_text(encoding="utf-8"))))
        except (kern.KernError, UnicodeDecodeError, OSError) as exc:
            failures += 1
            _diag(f"build: skipping {path.name}: {exc}")
    if not docs:
        raise DataError("all corpus files failed to parse")

    # split by source score so no score spans two splits
    order = _substream(config.seed, "split").permutation(len(docs))
    n = len(docs)
    n_train = max(1, round(config.train_fraction * n))
    n_val = round(config.validation_fraction * n)
    split_of: dict[str, str] = {}
    for rank, doc_index in enumerate(order):
        name = docs[doc_index][0]
        if rank < n_train:
            split_of[name] = "train"
        elif rank < n_train + n_val:
            split_of[name] = "validation"
        else:
            split_of[name] = "test"

    fragments: list[tuple[str, str, kern.KernDocument]] = []
    for name, doc in docs:
        split = split_of[name]
        if not config.fragment_enabled:
            fragments.append((Path(name).stem, split, doc))
            continue
        try:
            parts = kern.fragment(
                doc,
                rng_seed=_subseed(config.seed, "fragment", name),
                min_measures=config.min_measures,
                max_measures=config.max_measures,
                allow_overlap=config.overlap_train and split == "train",
            )
        except kern.NoBarlines as exc:
            failures += 1
            _diag(f"build: skipping {name}: {exc}")
            continue
        for i, part in enumerate(parts):
            fragments.append((f"{Path(name).stem}_f{i:03d}", split, part))

    train_docs = [doc for _, split, doc in fragments if split == "train"]
    if not train_docs:
        raise DataError("no training material after fragmentation")
    vocab = codec.build_vocabulary(train_docs)

    out = Path(config.out_dir)
    (out / "audio").mkdir(parents=True, exist_ok=True)
    (out / "tokens").mkdir(parents=True, exist_ok=True)
    vocab.save(out / VOCAB_FILENAME)

    samples: list[Sample] = []
    tones: dict = {}  # note cache shared by every fragment of this build
    max_duration = 30.0 if config.fragment_enabled else 120.0
    for sample_id, split, doc in fragments:
        tempo_seed = _subseed(config.seed, "tempo", sample_id) if config.tempo_jitter else None
        try:
            tempo = kern.assign_tempo(doc.tempo_text or "", tempo_seed)
        except kern.UnknownTempoLabel:  # raised before the jitter draw
            tempo = kern.assign_tempo(config.default_tempo, tempo_seed)
        try:
            seq = codec.encode(doc, vocab)
        except codec.OutOfVocabulary as exc:
            failures += 1
            _diag(f"build: skipping {sample_id}: {exc}")
            continue
        audio = synth.render(doc, tempo, tones=tones)
        duration = audio.size / dsp.SAMPLE_RATE
        if duration > max_duration:
            failures += 1
            _diag(f"build: skipping {sample_id}: {duration:.1f}s exceeds {max_duration:.0f}s limit")
            continue
        if audio.size < dsp.WINDOW_SIZE:
            failures += 1
            _diag(f"build: skipping {sample_id}: shorter than one analysis window")
            continue
        dsp.write_wav(out / "audio" / f"{sample_id}.wav", audio)
        _write_tokens(out / "tokens" / f"{sample_id}.tok", seq)
        samples.append(
            Sample(
                id=sample_id,
                audio=f"audio/{sample_id}.wav",
                tokens=f"tokens/{sample_id}.tok",
                duration_s=round(duration, 6),
                split=split,
            )
        )
    if not samples:
        raise DataError("no samples produced")
    write_manifest(out / MANIFEST_FILENAME, samples)
    counts = {s: sum(1 for x in samples if x.split == s) for s in ("train", "validation", "test")}
    print(
        f"build: {len(samples)} samples "
        f"(train {counts['train']}, validation {counts['validation']}, test {counts['test']}), "
        f"vocabulary {len(vocab)} symbols, {failures} skipped"
    )
    return EXIT_OK


def _features(wav_path, data: bytes | None = None) -> np.ndarray:
    """A WAV file's (W, bins) spectrogram frames as float32, the dtype the network rounds them to.

    ``data``, when given, is the file's bytes as the caller already read them.
    """
    return dsp.stft_logfreq(dsp.load_wav(wav_path, data)).frames.astype(np.float32)


def _dataset_features(base: Path, sample: Sample) -> np.ndarray:
    """A dataset clip's float32 features, read from its cache file when that file holds them.

    The cache file is ``<base>/features/<id>.f32``: an 80-byte header (magic,
    format version, frame count, key, payload SHA-256), then the features as
    a little-endian float32 ``(frames, bins)`` payload. The key is the SHA-256
    of ``dsp.FRONTEND_VERSION`` and the WAV file's bytes. A file whose key,
    frame count, length or payload digest does not match, or that cannot be
    read, is a miss: the features are computed as :func:`_features` does and
    the file is written again. A failed write prints one stderr line and
    changes nothing else. An id that cannot name a file in ``features/``
    is not cached.
    """
    wav_path = base / sample.audio
    data = wav_path.read_bytes()
    if sample.id in ("", ".", "..") or Path(sample.id).name != sample.id or not sample.id.isprintable():
        return _features(wav_path, data)
    hasher = hashlib.sha256(f"polyscore frontend {dsp.FRONTEND_VERSION}\n".encode())
    hasher.update(data)
    key = hasher.digest()
    path = base / FEATURES_DIRNAME / f"{sample.id}.f32"
    try:
        with open(path, "rb") as fh:
            head = fh.read(_FEATURES_HEADER.size)
            if len(head) == _FEATURES_HEADER.size:
                magic, version, frames, stored_key, digest = _FEATURES_HEADER.unpack(head)
                valid = (magic, version, stored_key) == (_FEATURES_MAGIC, _FEATURES_VERSION, key) and frames > 0
                if valid and os.fstat(fh.fileno()).st_size == len(head) + frames * dsp.N_BINS * 4:
                    cached = np.empty((frames, dsp.N_BINS), dtype="<f4")
                    if fh.readinto(cached) == cached.nbytes and hashlib.sha256(cached).digest() == digest:
                        return cached
    except OSError:
        pass
    features = _features(wav_path, data)
    payload = features.astype("<f4", copy=False)
    header = _FEATURES_HEADER.pack(
        _FEATURES_MAGIC, _FEATURES_VERSION, len(payload), key, hashlib.sha256(payload).digest()
    )
    try:
        path.parent.mkdir(exist_ok=True)
        with atomic_open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    except OSError as exc:
        _diag(f"polyscore: cannot cache the features of {sample.id}: {exc}")
    return features


def _load_split(manifest_path: Path, vocab: codec.Vocabulary, splits: tuple[str, ...]):
    """Load (id, spectrogram frames, target) triples for the requested splits."""
    base = manifest_path.parent
    loaded = {s: [] for s in splits}
    for sample in read_manifest(manifest_path):
        if sample.split not in splits:
            continue
        spec = _dataset_features(base, sample)
        target = _read_tokens(base / sample.tokens, vocab)
        loaded[sample.split].append((sample.id, spec, target))
    return loaded


def _decode(params, model_config, specs, vocab) -> list[codec.TokenSequence]:
    """Greedy transcription of each clip's (W, bins) frames, in one eval forward."""
    grids = net.forward(params, model_config, specs, mode="eval")
    return [codec.TokenSequence(tuple(ctc.collapse(ctc.greedy_decode(grid))), vocab) for grid in grids]


def _validation_rates(params, model_config, vocab, samples, batch_size) -> tuple[float, float]:
    wer_stats, cer_stats = [], []
    for start in range(0, len(samples), batch_size):
        batch = samples[start : start + batch_size]
        hyps = _decode(params, model_config, [spec for _, spec, _ in batch], vocab)
        for (_, _, target), hyp in zip(batch, hyps):
            wer_stats.append(metrics.wer(target, hyp))
            cer_stats.append(metrics.cer(target, hyp))
    return metrics.corpus_rate(wer_stats), metrics.corpus_rate(cer_stats)


def _truncate_log(log_path: Path, epochs: int) -> None:
    """Rewrite the training log keeping only the lines of epochs below ``epochs``."""
    try:
        lines = log_path.read_text(encoding="utf-8", errors="replace").splitlines()
    except FileNotFoundError:
        lines = []
    kept = []
    for line in lines:
        words = line.split()
        # isdigit() alone also passes digits such as "²" that int() refuses
        if len(words) > 1 and words[0] == "epoch" and words[1].isascii() and words[1].isdigit():
            try:
                if int(words[1]) < epochs:
                    kept.append(line + "\n")
            except ValueError:  # more digits than int() converts, 4300 by default
                pass
    with atomic_open(log_path, "w", encoding="utf-8", newline="\n") as log:
        log.writelines(kept)


def cmd_train(config: RunConfig, manifest_path, resume_checkpoint=None) -> int:
    """Train with the annealed-restart schedule, tracking the best model by WER."""
    manifest_path = Path(manifest_path)
    vocab = codec.Vocabulary.load(manifest_path.parent / VOCAB_FILENAME)
    vocab_hash = vocab.sha256()

    try:
        model_config = net.ModelConfig(vocab_size=len(vocab), **config.model)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model configuration: {exc}") from exc
    if model_config.input_bins != dsp.N_BINS:
        raise ConfigError(f"invalid model configuration: input_bins must be {dsp.N_BINS}")
    ckpt_dir = Path(config.checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    if resume_checkpoint is not None:
        loaded_config, params, velocity, state = net.load_checkpoint(
            resume_checkpoint, expected_vocab_hash=vocab_hash
        )
        if loaded_config != model_config:
            raise DataError("checkpoint model configuration does not match config")
        start_epoch = state["epoch"]
        best_wer = state["best_wer"]
    else:
        try:
            params = net.init_params(model_config, _subseed(config.seed, "init"))
        except (ValueError, MemoryError) as exc:  # tensors too large to allocate
            raise ConfigError(f"invalid model configuration: {exc}") from exc
        velocity = net.zero_velocity(params)
        start_epoch = 0
        best_wer = None

    data = _load_split(manifest_path, vocab, ("train", "validation"))
    train_samples = data["train"]
    val_samples = data["validation"] or train_samples
    if not train_samples:
        raise DataError("manifest has no training samples")
    # written once the resume checkpoint and the dataset are accepted, so a
    # refused run leaves the checkpoints' vocabulary as it was
    vocab.save(ckpt_dir / VOCAB_FILENAME)

    log_path = ckpt_dir / LOG_FILENAME
    # an epoch's line is logged before its checkpoint is saved, so a save that
    # failed leaves lines of epochs the checkpoint does not hold; a run from
    # scratch keeps none
    _truncate_log(log_path, start_epoch)
    with open(log_path, "a", encoding="utf-8", newline="\n") as log:
        for epoch in range(start_epoch, config.epochs):
            lr = net.lr_at_epoch(epoch)
            order = _substream(config.seed, "order", epoch).permutation(len(train_samples))
            losses = []
            skipped = 0
            for start in range(0, len(order), config.batch_size):
                batch = [train_samples[j] for j in order[start : start + config.batch_size]]
                seeds = [_subseed(config.seed, "dropout", epoch, sample_id) for sample_id, _, _ in batch]
                step_losses, step_skips = net.train_step(
                    params, velocity, model_config,
                    [spec for _, spec, _ in batch], [target for _, _, target in batch], seeds, lr,
                )
                losses += step_losses
                skipped += len(step_skips)
                for k, exc in step_skips:
                    _diag(f"train: skipping {batch[k][0]} in epoch {epoch}: {exc}")
            val_wer, val_cer = _validation_rates(
                params, model_config, vocab, val_samples, config.batch_size
            )
            mean_loss = float(np.mean(losses)) if losses else float("nan")
            line = (
                f"epoch {epoch} lr {lr:.6e} loss {mean_loss:.6f} "
                f"val_wer {val_wer:.6f} val_cer {val_cer:.6f} skipped {skipped}"
            )
            print(line, flush=True)
            log.write(line + "\n")
            log.flush()
            if best_wer is None or val_wer < best_wer:
                best_wer = val_wer
                net.save_checkpoint(
                    ckpt_dir / "best.ckpt", model_config, params, velocity, vocab_hash,
                    epoch=epoch + 1, best_wer=best_wer,
                )
            net.save_checkpoint(
                ckpt_dir / "last.ckpt", model_config, params, velocity, vocab_hash,
                epoch=epoch + 1, best_wer=best_wer,
            )
    return EXIT_OK


def _load_model(checkpoint_path):
    vocab = codec.Vocabulary.load(Path(checkpoint_path).parent / VOCAB_FILENAME)
    model_config, params, _, _ = net.load_checkpoint(checkpoint_path, expected_vocab_hash=vocab.sha256())
    return vocab, model_config, params


def cmd_transcribe(checkpoint_path, wav_path) -> int:
    """WAV -> log-posteriors -> greedy collapse -> kern text on stdout."""
    vocab, model_config, params = _load_model(checkpoint_path)
    (hyp,) = _decode(params, model_config, [_features(wav_path)], vocab)
    try:
        doc = codec.decode(hyp)
    except codec.ScoreSyntaxError as exc:
        _diag(f"transcribe: output is not a well-formed score: {exc}")
        print(" ".join(codec._escape(s) for s in hyp.symbols()))
        return EXIT_MODEL
    sys.stdout.write(kern.serialize(doc))
    return EXIT_OK


def cmd_evaluate(checkpoint_path, manifest_path, split: str, as_json: bool) -> int:
    """Per-sample and corpus word/symbol error rates for one split."""
    vocab, model_config, params = _load_model(checkpoint_path)
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    rows = []
    wer_stats, cer_stats = [], []
    requested = [s for s in read_manifest(manifest_path) if s.split == split]
    if not requested:
        raise DataError(f"manifest has no samples in split {split!r}")
    for sample in requested:
        try:
            target = _read_tokens(base / sample.tokens, vocab)
            (hyp,) = _decode(params, model_config, [_dataset_features(base, sample)], vocab)
            w = metrics.wer(target, hyp)
            c = metrics.cer(target, hyp)
        except (DataError, OSError) as exc:
            _diag(f"evaluate: skipping {sample.id}: {exc}")
            continue
        wer_stats.append(w)
        cer_stats.append(c)
        rows.append(
            {
                "id": sample.id,
                "wer": round(w.rate, 6),
                "cer": round(c.rate, 6),
                "substitutions": w.substitutions,
                "insertions": w.insertions,
                "deletions": w.deletions,
            }
        )
    if not rows:
        raise DataError("no samples could be evaluated")
    summary = {
        "split": split,
        "samples": len(rows),
        "wer": round(metrics.corpus_rate(wer_stats), 6),
        "cer": round(metrics.corpus_rate(cer_stats), 6),
    }
    if as_json:
        print(json.dumps({"samples": rows, "summary": summary}, sort_keys=True))
    else:
        for r in rows:
            print(
                f"{r['id']} wer {r['wer']:.4f} cer {r['cer']:.4f} "
                f"S {r['substitutions']} I {r['insertions']} D {r['deletions']}"
            )
        print(
            f"summary split {split} samples {summary['samples']} "
            f"wer {summary['wer']:.4f} cer {summary['cer']:.4f}"
        )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="polyscore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="synthesize a dataset from a kern corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="train a model on a built dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", help="resume from this checkpoint")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("transcribe", help="transcribe a WAV file to kern text")
    p.add_argument("wav")
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("evaluate", help="score a model against a manifest split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--json", action="store_true")
    return parser


def _load_config(path, seed_override: int | None) -> RunConfig:
    try:
        config = RunConfig.from_file(path)
        if seed_override is not None:
            config.seed = seed_override
        config.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "build":
            return cmd_build(_load_config(args.config, args.seed))
        if args.command == "train":
            config = _load_config(args.config, args.seed)
            return cmd_train(config, args.manifest, resume_checkpoint=args.checkpoint)
        if args.command == "transcribe":
            return cmd_transcribe(args.checkpoint, args.wav)
        if args.command == "evaluate":
            return cmd_evaluate(args.checkpoint, args.manifest, args.split, args.json)
    except ConfigError as exc:
        _diag(f"polyscore: config error: {exc}")
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        _diag(f"polyscore: data error: {exc}")
        return EXIT_DATA
    except ModelError as exc:
        _diag(f"polyscore: model error: {exc}")
        return EXIT_MODEL
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
