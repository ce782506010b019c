"""Autoregressive long-horizon generation.

Each iteration samples one clip whose memory segment is pinned to the last M
generated frames, then appends the L - M new frames. The buffer is
append-only: emitted frames are never revisited, and the overlap between
consecutive chunks is bit-equal by construction. A text-only start is a state
with an empty buffer: its first chunk is a whole clip with every frame treated
as future (M = 0), and every later chunk pins the last M frames as usual.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .backbone import ConditionSet, RopePlan
# sample_future_only is not called here: perfbench's tracer patches it by name
from .diffusion import FramePartition, NoiseSchedule, sample_clip, sample_future_only
from .errors import ContractError


@dataclass(frozen=True)
class SamplerSettings:
    l_window: int             # frames per sampled clip
    steps: int = 50           # reverse-process steps
    guidance_scale: float = 1.0


@dataclass(frozen=True)
class RolloutState:
    """Generated buffer plus bookkeeping; immutable, steps return new states."""

    frames: np.ndarray        # (T, C, H, W) model-space float32
    m_memory: int
    fps: int
    iteration: int


def init(condition: np.ndarray, fps: int) -> RolloutState:
    """Start a rollout from M >= 1 clean condition frames."""
    condition = np.asarray(condition)
    if condition.ndim != 4 or condition.shape[0] < 1:
        raise ContractError(
            f"condition must be (M >= 1, C, H, W), got shape {condition.shape}"
        )
    return RolloutState(frames=condition.copy(), m_memory=condition.shape[0],
                        fps=fps, iteration=0)


def bootstrap(model, schedule: NoiseSchedule, cond: ConditionSet | None,
              settings: SamplerSettings, m_memory: int, frame_shape: tuple,
              fps: int, rng: np.random.Generator) -> RolloutState:
    """Text-only start: the first chunk of `chunks` from an empty buffer.

    The returned state counts as one completed iteration, so the frame-count
    law M + k (L - M) holds with k including the bootstrap chunk.
    """
    empty = RolloutState(frames=np.empty((0, *frame_shape), dtype=np.float32),
                         m_memory=m_memory, fps=fps, iteration=0)
    (clip,) = chunks(empty, model, schedule, cond, settings, 1, rng)
    return RolloutState(frames=clip, m_memory=m_memory, fps=fps, iteration=1)


def chunks(state: RolloutState, model, schedule: NoiseSchedule,
           cond: ConditionSet | None, settings: SamplerSettings, k_iterations: int,
           rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Yield the new frames of each of k further iterations: L - M frames
    each, except that from an empty buffer the first iteration samples and
    yields a whole L-frame clip. Between chunks only the last M frames are
    held, so memory does not grow with k; the yielded arrays are the caller's
    to keep."""
    if k_iterations < 0:
        raise ContractError(f"iteration count must be >= 0, got {k_iterations}")
    l, m = settings.l_window, state.m_memory
    if not 1 <= m < l:
        raise ContractError(f"need 1 <= M < L, got M={m}, L={l}")
    if 0 < state.frames.shape[0] < m:
        raise ContractError("buffer shorter than the memory window")
    plan = RopePlan(np.arange(l))
    memory = np.ascontiguousarray(state.frames[-m:])
    for _ in range(k_iterations):
        pinned = len(memory)  # 0 only for an empty buffer's first chunk
        clip = sample_clip(model, memory, FramePartition(l, pinned), schedule,
                           settings.steps, rng, cond=cond, plan=plan,
                           guidance_scale=settings.guidance_scale)
        if clip[:pinned].tobytes() != memory.tobytes():
            raise ContractError("sampler violated the memory pinning contract")
        # the buffer's tail is the clip's tail: its first M rows equal the old memory
        memory = clip[l - m:].copy()
        yield clip[pinned:]


def step(state: RolloutState, model, schedule: NoiseSchedule,
         cond: ConditionSet | None, settings: SamplerSettings,
         rng: np.random.Generator) -> RolloutState:
    """Sample one chunk conditioned on the buffer tail; return a new state
    whose buffer is a fresh array with the new frames appended."""
    (new,) = chunks(state, model, schedule, cond, settings, 1, rng)
    return RolloutState(frames=np.concatenate([state.frames, new], axis=0),
                        m_memory=state.m_memory, fps=state.fps,
                        iteration=state.iteration + 1)


def run(state: RolloutState, model, schedule: NoiseSchedule,
        cond: ConditionSet | None, settings: SamplerSettings, k_iterations: int,
        rng: np.random.Generator) -> np.ndarray:
    """k further iterations; returns the full generated buffer."""
    return np.concatenate([state.frames, *chunks(state, model, schedule, cond, settings,
                                                 k_iterations, rng)], axis=0)
