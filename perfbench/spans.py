"""Span tracer that wraps polyscore's module functions from outside the program.

A :class:`Tracer` replaces selected module attributes (``net.forward``,
``dsp.stft_logfreq``, ...) with wrappers while it is active. Each call records
a span (name, start, end, parent, operation) in memory plus the layer's work
counts. Calls reach a wrapper only through the module attribute: callers that
look the name up at call time (``cli`` does ``net.forward(...)``, and a
module's own globals are its attributes) are seen; names bound elsewhere with
``from module import name`` keep the original function and are not.
:meth:`Tracer.blind_spots` lists both kinds of unseen call.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _forward_name(args, kwargs):
    return "net.forward_" + _arg(args, kwargs, 3, "mode", "eval")


def _forward_frames(args, kwargs, result, exc):
    spec = _arg(args, kwargs, 2, "spec")
    return {"frames": len(getattr(spec, "frames", spec))}


def _file_bytes(index, name):
    def count(args, kwargs, result, exc):
        path = _arg(args, kwargs, index, name)
        return {"bytes": os.path.getsize(path) if exc is None else 0}

    return count


def _ctc_cells(args, kwargs, result, exc):
    grid = _arg(args, kwargs, 0, "grid")
    target = _arg(args, kwargs, 1, "target")
    labels = getattr(target, "tokens", target)
    frames = len(getattr(grid, "probs", grid))
    infeasible = type(exc).__name__ == "InfeasibleLength"
    return {"lattice_cells": 0 if exc else frames * (2 * len(labels) + 1), "infeasible": int(infeasible)}


def _stft_frames(args, kwargs, result, exc):
    return {"frames": 0 if exc else len(result.frames)}


def _render_seconds(args, kwargs, result, exc):
    from polyscore.dsp import SAMPLE_RATE

    return {"audio_s": 0.0 if exc else result.size / SAMPLE_RATE}


def _decode_ok(args, kwargs, result, exc):
    return {"ok": int(exc is None)}


def _dp_cells(args, kwargs, result, exc):
    return {"dp_cells": len(_arg(args, kwargs, 0, "ref")) * len(_arg(args, kwargs, 1, "hyp"))}


# (module, attribute, work counter). A counter maps (args, kwargs, result,
# exception) to work quantities; net.forward is split by mode into
# net.forward_train and net.forward_eval.
TARGETS = (
    ("cli", "cmd_build", None),
    ("cli", "cmd_train", None),
    ("cli", "cmd_transcribe", None),
    ("net", "forward", _forward_frames),
    ("net", "backward", None),
    ("net", "sgd_nesterov_step", None),
    ("net", "save_checkpoint", _file_bytes(0, "path")),
    ("net", "load_checkpoint", _file_bytes(0, "path")),
    ("ctc", "ctc_loss", _ctc_cells),
    ("ctc", "ctc_grad", None),
    ("ctc", "greedy_decode", None),
    ("ctc", "collapse", None),
    ("dsp", "stft_logfreq", _stft_frames),
    ("dsp", "load_wav", _file_bytes(0, "path")),
    ("dsp", "write_wav", _file_bytes(0, "path")),
    ("synth", "render", _render_seconds),
    ("kern", "parse_kern", None),
    ("kern", "preprocess", None),
    ("kern", "fragment", None),
    ("kern", "serialize", None),
    ("codec", "build_vocabulary", None),
    ("codec", "encode", None),
    ("codec", "decode", _decode_ok),
    ("metrics", "wer", None),
    ("metrics", "cer", None),
    ("metrics", "edit_distance", _dp_cells),
)

# per-layer quantities besides calls and self_s, by span name
WORK = {
    "net.forward_train": ("frames",),
    "net.forward_eval": ("frames",),
    "net.save_checkpoint": ("bytes",),
    "net.load_checkpoint": ("bytes",),
    "ctc.ctc_loss": ("lattice_cells", "infeasible"),
    "dsp.stft_logfreq": ("frames",),
    "dsp.load_wav": ("bytes",),
    "dsp.write_wav": ("bytes",),
    "synth.render": ("audio_s",),
    "codec.decode": ("ok_ratio",),
    "metrics.edit_distance": ("dp_cells",),
}

UNITS = {"calls": "count", "self_s": "s", "bytes": "B", "audio_s": "s", "ok_ratio": "ratio"}


def span_names() -> list[str]:
    names = []
    for module, attr, _ in TARGETS:
        if (module, attr) == ("net", "forward"):
            names += ["net.forward_train", "net.forward_eval"]
        else:
            names.append(f"{module}.{attr}")
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for name in span_names():
        for quantity in ("calls", "self_s") + WORK.get(name, ()):
            units[f"{name}.{quantity}"] = UNITS.get(quantity, "count")
    units["trace.coverage"] = "ratio"
    units["trace.layer_coverage"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Records spans while active; use as a context manager around one operation."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index, operation]
        self.work: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.operation = 0
        self._stack: list[int] = []
        self._wrappers = []
        for module_name, attr, counter in TARGETS:
            module = getattr(package, module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            name_of = _forward_name if (module_name, attr) == ("net", "forward") else None
            wrapper = self._wrap(f"{module_name}.{attr}", name_of, original, counter)
            self._wrappers.append((module, attr, original, wrapper))

    def _wrap(self, name, name_of, original, counter):
        spans, stack, work = self.spans, self._stack, self.work

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            index = len(spans)
            spans.append([span_name, time.perf_counter(), None, stack[-1] if stack else -1, self.operation])
            stack.append(index)
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
                if counter is not None:
                    for quantity, value in counter(args, kwargs, result, exc).items():
                        work[f"{span_name}.{quantity}"] += value

        return wrapper

    def __enter__(self):
        for module, attr, _, wrapper in self._wrappers:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc_info):
        for module, attr, original, _ in self._wrappers:
            setattr(module, attr, original)
        return False

    def layer_metrics(self, units: int, wall_s: float) -> dict[str, float]:
        """Per-operation calls, self time and work counts, plus span coverage.

        Self time is a span's duration minus the time its child spans cover.
        ``units`` is the number of traced operations and ``wall_s`` their
        total wall time.
        """
        child_s = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        covered = layer_covered = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += duration - child_s[index]
            if parent < 0:
                covered += duration
            parent_is_command = parent >= 0 and self.spans[parent][0].startswith("cli.")
            if not name.startswith("cli.") and (parent < 0 or parent_is_command):
                layer_covered += duration
        out = {}
        for key in metric_units():
            if key.startswith("trace."):
                continue
            if key == "codec.decode.ok_ratio":
                calls = totals["codec.decode.calls"]
                out[key] = self.work["codec.decode.ok"] / calls if calls else 0.0
            else:
                out[key] = (totals.get(key, 0.0) + self.work.get(key, 0.0)) / max(units, 1)
        out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
        out["trace.layer_coverage"] = layer_covered / wall_s if wall_s > 0 else 0.0
        return out

    def blind_spots(self) -> dict[str, list[str]]:
        """Calls the module-attribute wrappers cannot see.

        ``bound_at_import``: other names bound to a wrapped function, which
        keep calling the original. ``unwrapped``: functions defined in the
        package that have no wrapper, such as the internal ``net._lstm_*``
        stages.
        """
        wrapped = {id(original): f"{module.__name__}.{attr}" for module, attr, original, _ in self._wrappers}
        modules = [self.package] + [getattr(self.package, m) for m in sorted({t[0] for t in TARGETS})]
        bound, unwrapped = [], []
        for module in modules:
            for name, obj in sorted(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                home = wrapped.get(id(obj))
                if home is not None and home != f"{module.__name__}.{name}":
                    bound.append(f"{module.__name__}.{name} -> {home}")
                elif home is None and obj.__module__ == module.__name__:
                    unwrapped.append(f"{module.__name__}.{name}")
        return {"bound_at_import": bound, "unwrapped": unwrapped, "missing": list(self.missing)}

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, operation in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": operation}) + "\n")
