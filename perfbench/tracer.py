"""Span tracer for the benchmark's traced runs.

It wraps public callables of `longroad` at the attribute their callers look
up (module globals such as `longroad.training.make_batch`, and class methods
such as `VideoDenoiser.forward`), records one span per call in memory, and
derives the per-layer metrics from the spans once the run is over. Nothing
inside `longroad` is edited; `close()` puts every original attribute back.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag")

    def __init__(self, name, start, parent, tag):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tag = tag

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder. `overhead_s` is the tracer's own time spent
    in wrappers (hooks, bookkeeping, clock reads) since the last reset."""

    def __init__(self):
        self.spans: list[Span] = []
        self.overhead_s = 0.0
        self.tape_nodes = 0
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, name, tag=None) -> Span:
        span = Span(name, perf_counter(), self._open[-1] if self._open else None, tag)
        self.spans.append(span)
        self._open.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name, tag=None):
        s = self._begin(name, tag)
        try:
            yield s
        finally:
            self._finish(s)

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace `owner.attr` with a wrapper that records a span named
        `name`; `hook(*args)` runs first and its result becomes the span tag."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            entered = perf_counter()
            tag = hook(*args, **kwargs) if hook else None
            span = tracer._begin(name, tag)
            tracer.overhead_s += span.start - entered
            try:
                return original(*args, **kwargs)
            finally:
                tracer._finish(span)
                tracer.overhead_s += perf_counter() - span.end

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def span(tracer: Tracer | None, name: str):
    """A span on `tracer`, or nothing when the run is untraced."""
    return tracer.span(name) if tracer is not None else nullcontext()


def install(tracer: Tracer) -> None:
    """Wrap every callable whose time the per-layer metrics need."""
    from longroad import (backbone, checkpoint, metrics, rollout, tensor,
                          toyroad, training)

    def count_tape(loss, *_):
        # the graph Tensor.backward walks: every node reachable through
        # parents that require a gradient
        seen, todo = {id(loss)}, [loss]
        while todo:
            for p in todo.pop()._parents:
                if p.requires_grad and id(p) not in seen:
                    seen.add(id(p))
                    todo.append(p)
        tracer.tape_nodes += len(seen)

    def clip_shape(x0, *_):
        return x0.shape

    def frame_count(video, *_):
        return int(video.shape[0])

    tracer.patch(training, "next_batch", "curriculum.next_batch")
    tracer.patch(training, "make_batch", "diffusion.make_batch", clip_shape)
    tracer.patch(training, "total_loss", "diffusion.total_loss")
    tracer.patch(training, "clip_gradients", "training.clip_gradients")
    tracer.patch(training.Adam, "step", "training.adam_step")
    tracer.patch(tensor.Tensor, "backward", "tensor.backward", count_tape)
    tracer.patch(backbone.VideoDenoiser, "forward", "backbone.forward")
    for step in ("spatial", "temporal", "cross", "mlp"):
        tracer.patch(backbone.SpaceTimeBlock, f"{step}_step", f"backbone.{step}")
    tracer.patch(rollout, "bootstrap", "rollout.bootstrap")
    tracer.patch(rollout, "step", "rollout.chunk")
    tracer.patch(rollout, "sample_clip", "diffusion.sample")
    tracer.patch(rollout, "sample_future_only", "diffusion.sample")
    tracer.patch(metrics, "estimate_flow", "metrics.estimate_flow")
    tracer.patch(metrics, "video_features", "metrics.video_features", frame_count)
    tracer.patch(metrics, "feature_stats", "metrics.feature_stats")
    tracer.patch(metrics, "frechet_distance", "metrics.frechet_distance")
    tracer.patch(metrics, "windowed_curves", "metrics.windowed_curves")
    tracer.patch(toyroad, "render_clip", "toyroad.render_clip")
    tracer.patch(toyroad, "read_clip", "toyroad.read_clip")
    tracer.patch(checkpoint, "save_tensors", "checkpoint.save_tensors")
    tracer.patch(checkpoint, "load_into", "checkpoint.load_into")


WINDOWS = (8, 16, 32)
ALPHAS = (1, 2)


def layer_metrics(tracer: Tracer, outcome) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) figures from the spans of one traced run of a
    workload and its `Outcome` (see README.md)."""
    d = outcome.detail
    steps, flow_pairs = d.get("steps", 0), d.get("flow_pairs", 0)
    spans = tracer.spans
    child_s = _child_seconds(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(s: Span) -> float:
        return s.seconds - child_s[id(s)]

    def mean(name: str, scale: float = 1e3) -> float:
        xs = by_name[name]
        return scale * sum(s.seconds for s in xs) / len(xs) if xs else 0.0

    def per(total: float, n: int) -> float:
        return total / n if n else 0.0

    out: dict[str, tuple[float, str]] = {}

    # training: an example runs from its make_batch to the end of its backward
    cells: dict[tuple[int, int], list[float]] = defaultdict(list)
    opened = None
    for s in spans:
        if s.name == "diffusion.make_batch":
            opened = s
        elif s.name == "tensor.backward" and opened is not None:
            l_curr, _, h, _ = opened.tag
            alpha = h // d["base_h"]
            cells[(l_curr * alpha * alpha, alpha)].append(s.end - opened.start)
            opened = None
    for w in WINDOWS:
        for a in ALPHAS:
            xs = cells[(w, a)]
            batch = max(1, d.get("token_budget", 0) // w)
            out[f"training.step_ms.w{w}.a{a}"] = (
                1e3 * batch * statistics.median(xs) if xs else 0.0, "ms")
    out["training.clip_gradients.ms"] = (mean("training.clip_gradients"), "ms")
    out["training.adam_step.ms"] = (mean("training.adam_step"), "ms")

    out["tensor.backward.ms"] = (mean("tensor.backward"), "ms")
    out["tensor.tape_nodes_per_step"] = (per(tracer.tape_nodes, steps), "count")

    forwards = by_name["backbone.forward"]
    out["backbone.forward.ms"] = (mean("backbone.forward"), "ms")
    out["backbone.forward.calls"] = (len(forwards), "count")
    for sub in ("spatial", "temporal", "cross", "mlp"):
        out[f"backbone.{sub}.ms"] = (1e3 * per(
            sum(self_s(s) for s in by_name[f"backbone.{sub}"]), len(forwards)), "ms")
    out["backbone.embed_head.ms"] = (
        1e3 * per(sum(self_s(s) for s in forwards), len(forwards)), "ms")

    out["diffusion.make_batch.ms"] = (mean("diffusion.make_batch"), "ms")
    out["diffusion.total_loss.ms"] = (mean("diffusion.total_loss"), "ms")
    reverse_steps = sum(1 for s in forwards if s.parent is not None
                        and s.parent.name == "diffusion.sample")
    out["diffusion.sampler_overhead_ms_per_step"] = (1e3 * per(
        sum(self_s(s) for s in by_name["diffusion.sample"]), reverse_steps), "ms")

    out["curriculum.next_batch.ms"] = (1e3 * per(
        sum(s.seconds for s in by_name["curriculum.next_batch"]), steps), "ms")

    out["rollout.bootstrap.s"] = (mean("rollout.bootstrap", 1.0), "s")
    out["rollout.chunk.s"] = (mean("rollout.chunk", 1.0), "s")
    out["rollout.buffer_bytes_copied"] = (d.get("buffer_bytes_copied", 0), "bytes")

    flows = by_name["metrics.estimate_flow"]
    commands = by_name["eval.command"]
    out["metrics.estimate_flow.ms"] = (mean("metrics.estimate_flow"), "ms")
    out["metrics.estimate_flow.calls"] = (len(flows), "count")
    out["metrics.flow_pairs_per_call"] = (per(flow_pairs, len(flows)), "ratio")
    out["metrics.video_features.ms"] = (mean("metrics.video_features"), "ms")
    out["metrics.video_features.frames"] = (
        sum(s.tag for s in by_name["metrics.video_features"]), "count")
    out["metrics.frechet_distance.ms"] = (mean("metrics.frechet_distance"), "ms")
    out["metrics.windowed_curves.ms"] = (mean("metrics.windowed_curves"), "ms")
    out["metrics.ref_stats.s"] = (
        per(sum(_ref_stats_s(c, spans) for c in commands), len(commands)), "s")

    for name in ("toyroad.render_clip", "toyroad.read_clip",
                 "checkpoint.save_tensors", "checkpoint.load_into"):
        out[f"{name}.ms"] = (mean(name), "ms")

    t0, t1 = outcome.measured
    wall = t1 - t0
    inside = [s for s in spans if s.start >= t0 and s.end <= t1]
    out["trace.overhead_pct"] = (100.0 * tracer.overhead_s / wall, "%")
    out["trace.self_time_coverage"] = (sum(self_s(s) for s in inside) / wall, "ratio")
    return out


def _child_seconds(spans: list[Span]) -> dict[int, float]:
    """Summed duration of each span's direct children, by span id."""
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[id(s.parent)] += s.seconds
    return child_s


def _root(s: Span) -> Span:
    while s.parent is not None:
        s = s.parent
    return s


def _ref_stats_s(command: Span, spans: list[Span]) -> float:
    """`cli eval` builds the reference statistics first: from its first
    video_features call to the end of its second feature_stats call."""
    mine = [s for s in spans if s.parent is not None and _root(s) is command]
    feats = [s for s in mine if s.name == "metrics.video_features"]
    stats = [s for s in mine if s.name == "metrics.feature_stats"]
    if not feats or len(stats) < 2:
        return 0.0
    return stats[1].end - feats[0].start


def self_time_table(tracer: Tracer) -> dict[str, dict]:
    """Calls, total and self milliseconds for every span name."""
    child_s = _child_seconds(tracer.spans)
    table: dict[str, dict] = {}
    for s in tracer.spans:
        row = table.setdefault(s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += 1e3 * s.seconds
        row["self_ms"] += 1e3 * (s.seconds - child_s[id(s)])
    return table
