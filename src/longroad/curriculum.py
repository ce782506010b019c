"""Information-density draws and the growing-window training schedule.

Each training example trades temporal density for spatial resolution: a
scaling factor alpha renders the clip at (base_h * alpha, base_w * alpha) and
keeps only every alpha^2-th frame, so the token budget and the temporal field
of view stay constant across draws. Retained frames keep their original
indices for position encoding. Memory length shrinks with alpha^2 so the
memory DURATION (in original frames) is identical across configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import ConditionSet, RopePlan
from .diffusion import FramePartition
from .errors import ConfigError, DataError
from .toyroad import ClipDataset, encode_caption, to_model_space


@dataclass(frozen=True)
class ClipMeta:
    fps: int
    base_h: int
    base_w: int
    base_l: int

    def __post_init__(self):
        if min(self.fps, self.base_h, self.base_w, self.base_l) <= 0:
            raise ConfigError("clip metadata must be positive")


@dataclass(frozen=True)
class DensityDraw:
    """One resolution/stride trade: alpha^2-strided frames at alpha-scaled
    resolution, covering the same original-index span as a dense window."""

    alpha: int
    height: int
    width: int
    l_curr: int
    offset: int
    indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))


@dataclass(frozen=True)
class CurriculumPhase:
    frames: int
    batch: int
    steps: int


def draw_density(rng: np.random.Generator, meta: ClipMeta, alpha_set,
                 window: int) -> DensityDraw:
    """Uniform alpha from the set, uniform stride offset in [0, alpha^2)."""
    alphas = sorted(set(int(a) for a in alpha_set))
    if not alphas or any(a < 1 for a in alphas):
        raise ConfigError(f"alpha set must be nonempty positive integers, got {alpha_set}")
    for a in alphas:
        if window % (a * a):
            raise ConfigError(f"window {window} not divisible by alpha^2 = {a * a}")
    alpha = alphas[int(rng.integers(0, len(alphas)))]
    stride = alpha * alpha
    offset = int(rng.integers(0, stride))
    l_curr = window // stride
    indices = offset + stride * np.arange(l_curr, dtype=np.int64)
    return DensityDraw(alpha=alpha, height=meta.base_h * alpha,
                       width=meta.base_w * alpha, l_curr=l_curr,
                       offset=offset, indices=indices)


def memory_len(alpha: int, memory_span_d: int) -> int:
    """Memory frames at this alpha; M * alpha^2 is constant across draws."""
    stride = alpha * alpha
    if memory_span_d % stride:
        raise ConfigError(
            f"memory span {memory_span_d} not divisible by alpha^2 = {stride}"
        )
    return memory_span_d // stride


def window_memory(window: int, alpha: int, memory_span_d: int) -> int:
    """Memory frames of a `window`-frame draw at `alpha`; the window must
    divide by alpha^2 and leave at least one future frame."""
    stride = alpha * alpha
    if window % stride:
        raise ConfigError(f"window {window} not divisible by alpha^2 = {stride}")
    m = memory_len(alpha, memory_span_d)
    if m >= window // stride:
        raise ConfigError(f"memory span {memory_span_d} leaves no future frames in a "
                          f"{window}-frame window at alpha {alpha}")
    return m


def curriculum_schedule(targets, steps, token_budget: int) -> list[CurriculumPhase]:
    """Phases in order of growing window; batch sizes keep frames*batch at the
    token budget (halving batch as the window doubles)."""
    targets = list(targets)
    if not targets:
        raise ConfigError("need at least one phase window length")
    if any(b <= a for a, b in zip(targets, targets[1:])) or any(t < 1 for t in targets):
        raise ConfigError(f"phase windows must be positive ascending, got {targets}")
    if len(steps) != len(targets):
        raise ConfigError(f"{len(targets)} phase windows but {len(steps)} step budgets")
    if token_budget < targets[0]:
        raise ConfigError("token budget smaller than the first window")
    return [CurriculumPhase(frames=f, batch=max(1, token_budget // f), steps=s)
            for f, s in zip(targets, steps)]


def check_clip_frames(dataset: ClipDataset, frames: int) -> None:
    """The dataset's clips must hold a `frames`-frame window."""
    if dataset.manifest["frames"] < frames:
        raise DataError(f"dataset {dataset.root}: clips have {dataset.manifest['frames']} "
                        f"frames, phase needs {frames}")


@dataclass
class TrainingExample:
    clip: np.ndarray            # (l_curr, C, h, w) model-space float32
    draw: DensityDraw
    partition: FramePartition
    plan: RopePlan
    cond: ConditionSet
    clip_index: int
    window_start: int


def next_batch(phase: CurriculumPhase, dataset: ClipDataset, rng: np.random.Generator,
               alpha_set, memory_span_d: int) -> TrainingExample:
    """One training example: scaled render, strided frame selection, memory
    partition, and the matching position plan / condition."""
    man = dataset.manifest
    meta = ClipMeta(fps=man["fps"], base_h=man["height"], base_w=man["width"],
                    base_l=man["frames"])
    check_clip_frames(dataset, phase.frames)
    draw = draw_density(rng, meta, alpha_set, phase.frames)
    m = window_memory(phase.frames, draw.alpha, memory_span_d)
    clip_index = int(rng.integers(0, len(dataset)))
    window_start = int(rng.integers(0, meta.base_l - phase.frames + 1))

    # to_model_space is elementwise, so converting the selected frames gives
    # the bytes of selecting from the converted clip
    pixels = dataset.pixels_at_scale(clip_index, draw.alpha)
    frames = to_model_space(pixels[window_start + draw.indices])

    record = dataset.record(clip_index)
    cond = ConditionSet(
        text_tokens=encode_caption(record.caption),
        command_ids=record.commands[window_start + draw.indices].astype(np.int64),
        fps=float(meta.fps), height=float(draw.height), width=float(draw.width),
    )
    return TrainingExample(
        clip=frames, draw=draw,
        partition=FramePartition(draw.l_curr, m),
        plan=RopePlan(draw.indices),
        cond=cond, clip_index=clip_index, window_start=window_start,
    )
