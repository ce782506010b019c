"""Autoregressive long-horizon generation.

Each iteration samples one clip whose memory segment is pinned to the last M
generated frames, then appends the L - M new frames. The buffer is
append-only: emitted frames are never revisited, and the overlap between
consecutive chunks is bit-equal by construction. A text-only start (no
condition frames) bootstraps by sampling one clip with every frame treated as
future, then rolls out normally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import ConditionSet, RopePlan
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
    """Text-only start: sample a whole first chunk with no pinned frames.

    The returned state counts as one completed iteration, so the frame-count
    law M + k (L - M) holds with k including the bootstrap chunk.
    """
    l = settings.l_window
    if not 1 <= m_memory < l:
        raise ContractError(f"need 1 <= M < L, got M={m_memory}, L={l}")
    plan = RopePlan(np.arange(l))
    chunk = sample_future_only(model, l, frame_shape, schedule, settings.steps,
                               rng, cond=cond, plan=plan,
                               guidance_scale=settings.guidance_scale)
    return RolloutState(frames=chunk, m_memory=m_memory, fps=fps, iteration=1)


def step(state: RolloutState, model, schedule: NoiseSchedule,
         cond: ConditionSet | None, settings: SamplerSettings,
         rng: np.random.Generator) -> RolloutState:
    """Sample one chunk conditioned on the buffer tail; append the new frames."""
    l, m = settings.l_window, state.m_memory
    if l <= m:
        raise ContractError(f"model window L={l} must exceed memory M={m}")
    if state.frames.shape[0] < m:
        raise ContractError("buffer shorter than the memory window")
    partition = FramePartition(l, m)
    plan = RopePlan(np.arange(l))
    memory = np.ascontiguousarray(state.frames[-m:])
    clip = sample_clip(model, memory, partition, schedule, settings.steps, rng,
                       cond=cond, plan=plan, guidance_scale=settings.guidance_scale)
    if clip[:m].tobytes() != memory.tobytes():
        raise ContractError("sampler violated the memory pinning contract")
    frames = np.concatenate([state.frames, clip[m:]], axis=0)
    return RolloutState(frames=frames, m_memory=m, fps=state.fps,
                        iteration=state.iteration + 1)


def run(state: RolloutState, model, schedule: NoiseSchedule,
        cond: ConditionSet | None, settings: SamplerSettings, k_iterations: int,
        rng: np.random.Generator) -> np.ndarray:
    """k further iterations; returns the full generated buffer."""
    if k_iterations < 0:
        raise ContractError(f"iteration count must be >= 0, got {k_iterations}")
    for _ in range(k_iterations):
        state = step(state, model, schedule, cond, settings, rng)
    return state.frames
