"""Layer tracing for the benchmark: spans around calls into wavelab layers.

In a traced child (``child.py``), every cross-module function is wrapped
where its caller looks it up: the attributes of ``wavelab.cli``,
``wavelab.sim`` and ``wavelab.fdma``. (The modules import names with
``from .x import f``, so patching ``wavelab.x`` itself would record
nothing.) Spans (name, start, end, parent), timed in process CPU time,
are kept in memory and written as JSON when the invocation ends.

A span is named ``<layer>.<function>``, the layer being the defining
module under ``src/wavelab/``. ``cli.main`` is the root span. Calls to
``sim.frame_rng`` are also recorded by (SNR point, frame index), so that
per-frame numbers divide by the distinct frames drawn, not by frames
times targets.

In the benchmark, ``totals`` and ``layer_metrics`` turn span files into
per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import time
import types

# the functions of one frame of the BER pipeline, by stage
FRAME_STAGES = (
    "channel.realize_random_channel",
    "noise.sample_noise",
    "qam.qam_map",
    "waveform.modulate",
    "fdma.compose_fdma",
    "channel.apply_channel",
    "channel.frequency_response",
    "channel.build_channel",
    "waveform.apply_inverse_precoder",
    "fdma.split_frequency",
    "qam.qam_demap",
)
LAYERS = ("cli", "configio", "sim", "channel", "noise", "qam", "waveform", "fdma", "analysis")
FRAME_LAYERS = ("channel", "qam", "waveform", "noise", "fdma")


class Tracer:
    """Span recorder; one per traced process, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.frames: set[tuple[int, int]] = set()
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.process_time

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def instrument(self):
        """Wrap the layer calls of an imported wavelab; returns the traced
        ``cli.main``."""
        import wavelab.cli
        import wavelab.fdma
        import wavelab.sim

        for module in (wavelab.cli, wavelab.sim, wavelab.fdma):
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__.startswith("wavelab.")
                        and value.__module__ != module.__name__):
                    setattr(module, attr, self.wrap(span_name(value), value))

        frame_rng, frames = wavelab.sim.frame_rng, self.frames

        def counted_frame_rng(seed, point_index, frame_index):
            frames.add((point_index, frame_index))
            return frame_rng(seed, point_index, frame_index)

        wavelab.sim.frame_rng = self.wrap("sim.frame_rng", counted_frame_rng)
        return self.wrap("cli.main", wavelab.cli.main)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "frames": len(self.frames)}, fh)


def span_name(func) -> str:
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"


def totals(trace: dict, scale: float = 1.0) -> dict:
    """Per-function and per-layer call counts, inclusive and self seconds
    (times ``scale``).

    Self time is a span's duration minus the time its child spans cover.
    """
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    funcs: dict[str, list] = {}
    layers: dict[str, list] = {}
    for (name, start, end, _), child in zip(spans, covered):
        duration = (end - start) * scale
        child *= scale
        for key, table in ((name, funcs), (name.split(".", 1)[0], layers)):
            entry = table.setdefault(key, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child
    return {"funcs": funcs, "layers": layers, "frames": trace["frames"]}


def merge_totals(parts) -> dict:
    """Sum the totals of several invocations (one repetition of a workload)."""
    merged = {"funcs": {}, "layers": {}, "frames": 0}
    for part in parts:
        merged["frames"] += part["frames"]
        for table in ("funcs", "layers"):
            for key, (calls, incl, self_s) in part[table].items():
                entry = merged[table].setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += incl
                entry[2] += self_s
    return merged


def layer_metrics(merged: dict) -> dict:
    """The per-layer metrics of one traced repetition, in their units.

    A frame is one distinct (SNR point, frame index) pair; today every
    target redraws it. Per-frame values are 0 where no frame was run.
    Stage times (``<layer>.<function>.us_per_frame``) include nested
    spans: ``fdma.split_frequency`` covers the ``apply_inverse_precoder``
    calls it makes.
    """
    frames = merged["frames"]
    funcs, layers = merged["funcs"], merged["layers"]

    def per_frame(value):
        return value / frames if frames else 0.0

    def func(name):
        return funcs.get(name, [0, 0.0, 0.0])

    def layer(name):
        return layers.get(name, [0, 0.0, 0.0])

    metrics = {
        "sim.frames": frames,
        "sim.self_us_per_frame": per_frame(layer("sim")[2] * 1e6),
        "sim.draws_per_frame": per_frame(func("channel.realize_random_channel")[0]),
    }
    for name in FRAME_STAGES:
        metrics[f"{name}.us_per_frame"] = per_frame(func(name)[1] * 1e6)
        metrics[f"{name}.calls_per_frame"] = per_frame(func(name)[0])
    for name in FRAME_LAYERS:
        metrics[f"{name}.self_us_per_frame"] = per_frame(layer(name)[2] * 1e6)
        metrics[f"{name}.calls_per_frame"] = per_frame(layer(name)[0])
    for name in LAYERS:
        metrics[f"{name}.self_ms"] = layer(name)[2] * 1e3
    metrics["waveform.build_precoder.calls"] = func("waveform.build_precoder")[0]
    metrics["trace.self_s"] = sum(entry[2] for entry in layers.values())
    return metrics
