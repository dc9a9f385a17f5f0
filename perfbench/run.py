"""polyscore benchmark: three workloads driven in-process through ``polyscore.cli.main``.

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/NOTES.md for why each was chosen):

* ``train_toy``: ``train`` on the toy corpus, fixed epochs from the same init;
* ``transcribe_full``: closed loop, one client, ``transcribe`` over whole scores;
* ``build_corpus``: ``build`` on a corpus four times the toy size.

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
alternates untraced and traced operations and reports per-layer metrics from
the spans, with their coverage of wall time and the tracing overhead. Every
run checks the program's outputs and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; it exits 1
when a check fails and 2 when the program cannot be loaded.
"""
import os

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:  # before anything loads numpy's BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"  # deleted at the end of every run
OUT_ROOT = ROOT / ".perfbench_out"  # reports and span files are kept here
SETUP_REPEATS = 7  # spread evenly over the measuring window
MIN_OPS = 2  # consistency checks compare at least two operations
MB = 2**20
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from speed import SpeedMeter  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "audio_s_per_s": "s/s",
    "op_p50_ms": "ms",
}

# The acceptance toy run: corpus from make_corpus(n_scores=7, seed=<corpus
# seed>, two_voice_every=7, n_measures=9), run seed 11, hidden 64, no frame
# doubling, batch 4. The run seed fixes fragmentation and the split, so every
# workload seed gives 45 train and 8 validation clips.
TOY_CONFIG = {
    "corpus_dir": "corpus",
    "out_dir": "data",
    "checkpoint_dir": "ckpt",
    "seed": 11,
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
    "epochs": 0,
    "model": {"hidden_units": 64, "dropout_p": 0.1, "frame_doubling": False},
}


class CheckFailed(Exception):
    """The program produced a wrong or inconsistent output."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


class Program:
    """The polyscore package and the toy corpus generator, loaded from this checkout."""

    def __init__(self):
        src = ROOT / "src"
        generator = ROOT / "tests" / "_toycorpus.py"
        if not (src / "polyscore" / "cli.py").is_file() or not generator.is_file():
            raise ImportError(f"no polyscore sources under {ROOT} (need src/polyscore and tests/_toycorpus.py)")
        sys.path.insert(0, str(src))
        import polyscore
        from polyscore import cli, codec, net

        if Path(polyscore.__file__).resolve().parent != src / "polyscore":
            raise ImportError(f"polyscore imported from {polyscore.__file__}, not from {src}")
        spec = importlib.util.spec_from_file_location("_toycorpus", generator)
        toy = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(toy)
        self.package, self.cli, self.codec, self.net, self.toy = polyscore, cli, codec, net, toy


class _Lines(io.TextIOBase):
    """stdout stand-in that timestamps each completed line."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._part = ""

    def writable(self):
        return True

    def write(self, text):
        self._part += text
        while "\n" in self._part:
            line, self._part = self._part.split("\n", 1)
            self.lines.append((time.perf_counter(), line))
        return len(text)

    def text(self):
        return "".join(line + "\n" for _, line in self.lines) + self._part


class Call:
    """One ``polyscore`` command run in-process, with its exit code and output."""

    def __init__(self, cli, argv):
        self.out, err = _Lines(), io.StringIO()
        self.error = None
        self.start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(err):
                self.code = cli.main(argv)
        except SystemExit as exc:
            self.code = exc.code
        except Exception:  # an escaped traceback is a failed operation, reported below
            self.code = None
            self.error = traceback.format_exc()
        self.end = time.perf_counter()
        self.err = err.getvalue()
        self.wall = self.end - self.start

    def describe(self):
        return f"exit {self.code}: {self.error or self.err.strip()[-500:]}"


def write_config(path, **overrides):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**TOY_CONFIG, **overrides}, indent=1), encoding="utf-8")
    return str(path)


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def dataset_digest(data_dir):
    """Hash of a built dataset's manifest, vocabulary and token files."""
    files = [data_dir / "manifest.jsonl", data_dir / "vocab.txt"]
    return digest(files + sorted((data_dir / "tokens").glob("*.tok")))


class Workload:
    """Set-up, one measured operation, and the metrics over all operations.

    ``run_op`` returns a dict with ``wall`` (raw seconds, for pacing and span
    coverage), ``time`` (seconds at nominal host speed), ``units`` (requests
    in the operation) and the workload's own samples.
    """

    def __init__(self, program, seed, directory, meter):
        self.program, self.cli, self.seed, self.dir, self.meter = program, program.cli, seed, directory, meter
        self.attempted = 0
        self.failed = 0
        self.firsts = {}  # the first output of each repeated request

    def same_as_first(self, key, output, what):
        require(self.firsts.setdefault(key, output) == output, f"{what} differs between repetitions")

    def call(self, argv, ok_codes=(0,)):
        self.attempted += 1
        result = Call(self.cli, argv)
        result.time = self.meter.nominal(result.start, result.end)
        if result.code not in ok_codes:
            self.failed += 1
            raise CheckFailed(f"polyscore {' '.join(argv[:1])} failed, {result.describe()}")
        return result

    def build(self, config):
        return self.call(["build", "--config", config])


class TrainToy(Workload):
    """Each operation: ``train`` with 0 epochs (the load) and ``train`` with EPOCHS epochs."""

    EPOCHS = 3
    EPOCH_LINE = re.compile(r"^epoch (\d+) lr \S+ loss (\S+) .* skipped (\d+)$")
    SKIP_LINE = re.compile(r"^train: skipping (\S+) in epoch (\d+):", re.M)

    def setup(self, d):
        self.program.toy.make_corpus(d / "corpus", n_scores=7, seed=self.seed, two_voice_every=7, n_measures=9)
        self.build(write_config(d / "config.json"))
        self.data = d / "data"
        samples = self.cli.read_manifest(self.data / "manifest.jsonl")
        self.train_audio = {s.id: s.duration_s for s in samples if s.split == "train"}
        return dataset_digest(self.data)

    def run_op(self, index):
        rep = self.dir / f"rep{index}"
        manifest = str(self.data / "manifest.jsonl")
        common = {"corpus_dir": str(self.dir), "out_dir": str(self.data)}
        load = self.call(["train", "--config", write_config(rep / "load.json", checkpoint_dir="load", **common), "--manifest", manifest])
        config = write_config(rep / "train.json", checkpoint_dir="ckpt", epochs=self.EPOCHS, **common)
        train = self.call(["train", "--config", config, "--manifest", manifest])

        epochs = []
        for stamp, line in train.out.lines:
            match = self.EPOCH_LINE.match(line)
            if match:
                epochs.append((stamp, int(match.group(1)), float(match.group(2)), int(match.group(3))))
        require([e[1] for e in epochs] == list(range(self.EPOCHS)), f"train printed epochs {[e[1] for e in epochs]}")
        require(all(math.isfinite(e[2]) for e in epochs), f"non-finite training loss: {[e[2] for e in epochs]}")
        skipped = {}
        for clip_id, epoch in self.SKIP_LINE.findall(train.err):
            skipped.setdefault(int(epoch), []).append(clip_id)
        ckpt = hashlib.sha256((rep / "ckpt" / "last.ckpt").read_bytes()).hexdigest()
        self.same_as_first("last.ckpt", ckpt, "last.ckpt of the same training run")
        shutil.rmtree(rep)

        # epoch k runs from the line of epoch k-1 to its own line: the previous
        # checkpoint writes, the training pass and validation
        periods, clips, audio = [], [], []
        total_audio = sum(self.train_audio.values())
        for (prev, *_), (stamp, epoch, _, n_skipped) in zip(epochs, epochs[1:]):
            periods.append(self.meter.nominal(prev, stamp))
            clips.append(len(self.train_audio) - n_skipped)
            audio.append(total_audio - sum(self.train_audio[c] for c in skipped.get(epoch, [])))
        return {
            "wall": load.wall + train.wall,
            "time": load.time + train.time,
            "units": 1,
            "load_s": load.time,
            "train_s": train.time,
            "periods": periods,
            "clips": clips,
            "audio": audio,
            "loss": epochs[-1][2],
        }

    def metrics(self, ops):
        rates = [a / p for op in ops for a, p in zip(op["audio"], op["periods"])]
        clip_rates = [c / p for op in ops for c, p in zip(op["clips"], op["periods"])]
        return (
            {"audio_s_per_s": stat(rates, "s/s"), "op_p50_ms": stat([op["train_s"] * 1e3 for op in ops], "ms", timing=True)},
            {
                "train_clips_per_s": stat(clip_rates, "1/s"),
                "train_load_s": stat([op["load_s"] for op in ops], "s", timing=True),
                "train_loss": stat([op["loss"] for op in ops], "nats"),
            },
        )


class TranscribeFull(Workload):
    """Each operation: one pass of ``transcribe`` requests over the clip pool."""

    # (measures, voices) per pool clip: three quarters are 12-measure scores,
    # so the median and the tail request each fall inside one size class
    POOL = ((12, 1), (12, 2), (12, 1), (12, 2), (12, 1), (12, 2), (6, 1), (6, 2))
    # the tempo label is pinned per voice count and jitter is off, so request
    # sizes are fixed by design and the seed changes only the notes
    TEMPO = {1: "Presto", 2: "Vivace"}
    MODEL_SEED = 20191027

    def setup(self, d):
        corpus = d / "corpus"
        corpus.mkdir(parents=True)
        for i, (measures, voices) in enumerate(self.POOL):
            text = self.program.toy.make_score(seed=self.seed * 1000 + i, n_measures=measures, voices=voices)
            head, body = text.split("\n", 1)
            require(head.startswith("!!!OMD:"), f"unexpected score header {head!r}")
            (corpus / f"score{i:02d}.krn").write_text(f"!!!OMD: {self.TEMPO[voices]}\n{body}", encoding="utf-8")
        self.build(
            write_config(
                d / "config.json",
                fragment_enabled=False,
                tempo_jitter=False,
                train_fraction=1.0,
                validation_fraction=0.0,
            )
        )
        codec, net = self.program.codec, self.program.net
        vocab = codec.Vocabulary.load(d / "data" / "vocab.txt")
        model = d / "model"
        model.mkdir()
        vocab.save(model / "vocab.txt")
        config = net.ModelConfig(vocab_size=len(vocab))
        params = net.init_params(config, self.MODEL_SEED)
        self.ckpt = model / "model.ckpt"
        net.save_checkpoint(self.ckpt, config, params, net.zero_velocity(params), vocab.sha256())
        samples = self.cli.read_manifest(d / "data" / "manifest.jsonl")
        require(len(samples) == len(self.POOL), f"build wrote {len(samples)} of {len(self.POOL)} clips")
        self.clips = [(s.id, str(d / "data" / s.audio), s.duration_s) for s in samples]
        return digest([self.ckpt, d / "data" / "manifest.jsonl"])

    def run_op(self, index):
        latencies, audio, wall = [], 0.0, 0.0
        for clip_id, wav, seconds in self.clips:
            # exit 3 (output is not a well-formed score) is a documented outcome
            call = self.call(["transcribe", wav, "--checkpoint", str(self.ckpt)], ok_codes=(0, 3))
            text = call.out.text()
            require(text.strip(), f"transcribe {clip_id} printed nothing")
            self.same_as_first(clip_id, (call.code, text), f"transcribe {clip_id} output")
            latencies.append(call.time)
            wall += call.wall
            audio += seconds
        return {"wall": wall, "time": sum(latencies), "units": len(latencies), "latencies": latencies, "audio": audio}

    def metrics(self, ops):
        latencies_ms = [x * 1e3 for op in ops for x in op["latencies"]]
        rates = [op["audio"] / op["time"] for op in ops]
        p50 = stat(latencies_ms, "ms", timing=True)
        tail = {"value": p50.get("p_tail_value"), "unit": "ms", "samples": p50["samples"], "percentile": p50.get("p_tail")}
        return (
            {"audio_s_per_s": stat(rates, "s/s"), "op_p50_ms": p50},
            {"transcribe_p50_ms": p50, "transcribe_tail_ms": tail, "transcribe_audio_s_per_s": stat(rates, "s/s")},
        )


class BuildCorpus(Workload):
    """Each operation: ``build`` of the whole corpus into a fresh directory."""

    N_SCORES = 28  # four times the toy corpus, same fragment settings

    def setup(self, d):
        """The corpus and a reference build, which every repetition must reproduce."""
        self.program.toy.make_corpus(d / "corpus", n_scores=self.N_SCORES, seed=self.seed, two_voice_every=7, n_measures=9)
        reference = d / "reference"
        self.build(write_config(d / "reference.json", corpus_dir=str(d / "corpus"), out_dir=str(reference)))
        self.reference = dataset_digest(reference)
        shutil.rmtree(reference)
        return self.reference

    def run_op(self, index):
        out = self.dir / f"out{index}"
        config = write_config(self.dir / f"build{index}.json", corpus_dir=str(self.dir / "corpus"), out_dir=str(out))
        call = self.build(config)
        require(dataset_digest(out) == self.reference, "build output differs from the reference build of the set-up")
        audio = sum(s.duration_s for s in self.cli.read_manifest(out / "manifest.jsonl"))
        shutil.rmtree(out)
        return {"wall": call.wall, "time": call.time, "units": 1, "audio": audio}

    def metrics(self, ops):
        return (
            {
                "audio_s_per_s": stat([op["audio"] / op["time"] for op in ops], "s/s"),
                "op_p50_ms": stat([op["time"] * 1e3 for op in ops], "ms", timing=True),
            },
            {"build_audio_s_per_s": stat([op["audio"] / op["time"] for op in ops], "s/s")},
        )


WORKLOADS = {"train_toy": TrainToy, "transcribe_full": TranscribeFull, "build_corpus": BuildCorpus}


def stat(values, unit, timing=False):
    """Median with its sample count; timings also get the highest percentile
    of TAIL_LADDER that has at least ten samples beyond it."""
    ordered = sorted(values)
    out = {"value": statistics.median(ordered), "unit": unit, "samples": len(ordered)}
    if timing:
        for q in TAIL_LADDER:
            if len(ordered) * (1 - q / 100) >= 10:
                out["p_tail"] = q
                out["p_tail_value"] = ordered[math.ceil(q / 100 * len(ordered)) - 1]
                break
    return out


def environment(seed):
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    uname = os.uname()
    return {
        "machine": f"{uname.sysname} {uname.release} {uname.machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '').strip()})",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
    }


def run(args, program):
    name = args.workload
    work = WORK_ROOT / f"{name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    meter = SpeedMeter()
    workload = WORKLOADS[name](program, args.seed, work, meter)
    setup_times, setup_windows, op_windows = [], [], []

    def set_up():
        """One set-up into a fresh directory; the next operations run on it.

        Set-ups from one seed must produce the same inputs, so every operation
        checks against the same outputs whichever set-up it runs on.
        """
        previous, counts = workload.dir, (workload.attempted, workload.failed)
        workload.dir = work / f"setup{len(setup_times)}"
        begin = time.perf_counter()
        inputs = workload.setup(workload.dir)
        finish = time.perf_counter()
        workload.same_as_first("set-up", inputs, "set-up from the same seed")
        setup_times.append(meter.nominal(begin, finish))
        setup_windows.append((begin, finish))
        workload.attempted, workload.failed = counts  # set-up commands are not operations
        if previous != work:
            shutil.rmtree(previous)

    try:
        with meter:
            set_up()
            tracer = spans.Tracer(program.package) if args.trace else None
            ops = []
            start = time.perf_counter()
            while True:
                traced = tracer is not None and len(ops) % 2 == 1
                begin = time.perf_counter()
                if traced:
                    tracer.operation = len(ops)
                    with tracer:
                        op = workload.run_op(len(ops))
                else:
                    op = workload.run_op(len(ops))
                op_windows.append((begin, time.perf_counter()))
                op["traced"] = traced
                ops.append(op)
                elapsed = time.perf_counter() - start
                if len(ops) >= MIN_OPS and elapsed + op["wall"] > args.seconds:
                    break
                # the other set-ups are timed at even steps through the window,
                # so setup_s sees the same host speeds as the operations
                while len(setup_times) < min(SETUP_REPEATS, 1 + int(SETUP_REPEATS * elapsed / args.seconds)):
                    set_up()
            end = time.perf_counter()
            while len(setup_times) < SETUP_REPEATS:
                set_up()
    except CheckFailed as exc:
        return {"correct": False, "check": str(exc), "workload": workload}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_rss, _ = meter.peak_rss(setup_windows)
    ops_rss, rss_samples = meter.peak_rss(op_windows)
    report = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "measured_s": end - start,
        "operations": len(ops),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failed_ratio": workload.failed / workload.attempted,
        "host_speed": meter.summary(),
        "rss_mb": {
            "setup_peak": setup_rss / MB,
            "operations_peak": ops_rss / MB,
            "process_peak": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "environment": environment(args.seed),
    }
    if tracer is None:
        gated, named = workload.metrics(ops)
        gated["setup_s"] = stat(setup_times, "s", timing=True)
        gated["peak_rss_mb"] = {"value": ops_rss / MB, "unit": "MB", "samples": rss_samples, "of": "peak"}
        report["end_to_end"] = gated
        report["workload_metrics"] = named
        metrics = {key: {"value": gated[key]["value"], "unit": unit} for key, unit in END_TO_END_UNITS.items()}
    else:
        traced = [op for op in ops if op["traced"]]
        plain = [op for op in ops if not op["traced"]]
        layers = tracer.layer_metrics(sum(op["units"] for op in traced), sum(op["wall"] for op in traced))
        layers["trace.overhead"] = statistics.median(op["time"] for op in traced) / statistics.median(op["time"] for op in plain) - 1
        report["blind_spots"] = tracer.blind_spots()
        report["spans"] = len(tracer.spans)
        OUT_ROOT.mkdir(exist_ok=True)
        span_file = OUT_ROOT / f"spans-{name}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        report["span_file"] = str(span_file.relative_to(ROOT))
        metrics = {key: {"value": layers[key], "unit": unit} for key, unit in spans.metric_units().items()}
        report["per_layer"] = metrics
    return {"correct": True, "report": report, "metrics": metrics, "workload": workload}


def print_report(report):
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: {report['operations']} operations in {report['measured_s']:.2f} s, {report['failed']}/{report['attempted']} failed (failed_ratio {report['failed_ratio']:g})")
    for section in ("end_to_end", "workload_metrics"):
        for key, m in report.get(section, {}).items():
            if "percentile" in m:
                value = "n/a (under 20 samples)" if m["value"] is None else f"{m['value']:.6g} {m['unit']}"
                print(f"  {key:28s} {value}  (p{m['percentile'] or 0:g} of n={m['samples']})")
                continue
            tail = f"  p{m['p_tail']:g}={m['p_tail_value']:.6g}" if "p_tail" in m else ""
            print(f"  {key:28s} {m['value']:.6g} {m['unit']}  ({m.get('of', 'median')} of n={m['samples']}){tail}")
    for key, m in report.get("per_layer", {}).items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    speed = report["host_speed"]
    print(
        f"  host speed: reference tick {speed['median_s'] * 1e6:.1f} us median "
        f"(quartiles {speed['q1_s'] * 1e6:.1f}-{speed['q3_s'] * 1e6:.1f}) over {speed['ticks']} ticks; "
        f"timings above are scaled to a {speed['nominal_s'] * 1e6:g} us tick"
    )
    rss = report["rss_mb"]
    print(f"  resident set: peak {rss['setup_peak']:.1f} MB in set-up, {rss['operations_peak']:.1f} MB in the operations, {rss['process_peak']:.1f} MB for the process")
    for kind, names in report.get("blind_spots", {}).items():
        print(f"  not traced ({kind}): {', '.join(names) or '-'}")
    print("  environment: " + json.dumps(report["environment"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        program = Program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    outcome = run(args, program)
    workload = outcome["workload"]
    if not outcome["correct"]:
        print(f"perfbench: CHECK FAILED on {args.workload} seed {args.seed}: {outcome['check']}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(workload.attempted, 1), "failed": workload.failed, "metrics": {}}))
        return 1
    report = outcome["report"]
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print_report(report)
    print(json.dumps({"correct": True, "attempted": report["attempted"], "failed": report["failed"], "metrics": outcome["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
