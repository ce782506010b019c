"""Training loop: density-drawn batches, masked noising, weighted loss,
adaptive-moment updates with global-norm clipping, and per-phase checkpoints.

Every random choice is derived from (seed, purpose, phase, step, item)
counters, so two runs with the same seed produce identical loss curves no
matter how data preparation is scheduled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import tensor as T
from .curriculum import TrainingExample, check_clip_frames, curriculum_schedule, next_batch
from .diffusion import (NoiseSchedule, build_schedule, loss_weights_for,
                        make_batch, total_loss)
from .errors import ConfigError, NumericFailure
from .seeding import rng_for
from .tensor import Tensor


@dataclass(frozen=True)
class TrainConfig:
    phase_frames: tuple[int, ...] = (8, 16, 32)
    phase_steps: tuple[int, ...] = (150, 150, 200)
    token_budget: int = 32
    alpha_set: tuple[int, ...] = (1, 2)
    memory_span_d: int = 4
    lam: float = 2.0
    lr: float = 2e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float = 1.0
    cond_dropout: float = 0.1
    seed: int = 0
    t_max: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError("learning rate must be >= 0")
        if not 0.0 <= self.cond_dropout < 1.0:
            raise ConfigError("condition dropout must lie in [0, 1)")
        if self.lam < 0:
            raise ConfigError(f"retention decay rate lam must be >= 0, got {self.lam}")
        if self.grad_clip < 0:
            raise ConfigError(f"grad_clip must be >= 0 (0 turns clipping off), "
                              f"got {self.grad_clip}")
        if len(self.phase_frames) != len(self.phase_steps):
            raise ConfigError("need one step budget per phase")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"Adam betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if not self.adam_eps > 0:
            raise ConfigError(f"adam_eps must be > 0, got {self.adam_eps}")
        if not 0.0 < self.beta_start <= self.beta_end < 1.0:  # build_schedule's rule
            raise ConfigError(f"need 0 < beta_start <= beta_end < 1, "
                              f"got [{self.beta_start}, {self.beta_end}]")


class Adam:
    """Adaptive-moment optimizer over named parameters; `lr`, `beta1`,
    `beta2` and `adam_eps` come from the run's TrainConfig."""

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        lr, b1, b2, eps = self.cfg.lr, self.cfg.beta1, self.cfg.beta2, self.cfg.adam_eps
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad.astype(p.dtype, copy=False)
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * (g * g)
            update = (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + eps)
            p.data = p.data - (lr * update).astype(p.dtype)


def grad_norm(params: dict[str, Tensor]) -> float:
    acc = 0.0
    for p in params.values():
        if p.grad is not None:
            acc += float(np.sum(p.grad.astype(np.float64) ** 2))
    return float(np.sqrt(acc))


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients to the norm ball; returns the pre-clip norm.
    A non-finite norm leaves the gradients as they are."""
    norm = grad_norm(params)
    if max_norm > 0 and max_norm < norm < np.inf:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def train_step(model, examples: list[TrainingExample], cfg: TrainConfig,
               schedule: NoiseSchedule, optimizer: Adam,
               noise_rngs, dropout_rngs) -> tuple[float, float]:
    """One optimizer step over a prepared batch: forward, weighted loss,
    backward, clip, update. Returns (pre-update mean loss, pre-clip grad norm).
    """
    model.zero_grad()
    losses = []
    inv = 1.0 / len(examples)
    for ex, nrng, drng in zip(examples, noise_rngs, dropout_rngs):
        # free the previous example's tape (it hangs off pred and loss) before
        # this forward; the last one lives past Adam, as freeing it earlier let
        # malloc return its pages and the next step fault them all in again
        pred = loss = None
        batch = make_batch(ex.clip, ex.partition, schedule, nrng)
        cond = ex.cond
        if cfg.cond_dropout > 0 and drng.random() < cfg.cond_dropout:
            cond = cond.nulled()
        pred = model.forward(batch.xt, batch.t, cond, ex.plan)
        weights = loss_weights_for(ex.partition, cfg.lam)
        # normalize the frame sum by the weight mass so loss values (and
        # gradient scale) are comparable across window lengths and densities
        norm = 1.0 / float(weights.weights.sum())
        loss = T.mul(total_loss(batch, pred, weights, schedule), norm)
        T.mul(loss, inv).backward()
        losses.append(loss.item())
    mean_loss = float(np.mean(losses))
    alphas = [ex.draw.alpha for ex in examples]
    if not np.isfinite(mean_loss):
        raise NumericFailure(f"non-finite loss {mean_loss} (alphas={alphas})")
    params = model.named_parameters()
    norm = clip_gradients(params, cfg.grad_clip)
    if not np.isfinite(norm):  # stop before Adam applies inf or NaN updates
        raise NumericFailure(f"non-finite gradient norm {norm} (alphas={alphas})")
    optimizer.step()
    return mean_loss, norm


@dataclass
class RunResult:
    checkpoints: list[Path]
    history: list[dict] = field(default_factory=list)


def run_curriculum(model, dataset, cfg: TrainConfig, out_dir,
                   log_path=None, progress=None) -> RunResult:
    """Execute the growing-window phases in order, warm-starting each from the
    previous weights; one checkpoint per phase boundary; JSONL step log."""
    phases = curriculum_schedule(list(cfg.phase_frames), list(cfg.phase_steps),
                                 cfg.token_budget)
    check_clip_frames(dataset, phases[-1].frames)  # the last phase's window is the longest
    for i in range(len(dataset)):  # each clip against the manifest, before any output
        dataset.record(i)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    schedule = build_schedule(cfg.t_max, cfg.beta_start, cfg.beta_end)
    optimizer = Adam(model.named_parameters(), cfg)
    log_file = open(log_path, "w") if log_path else None
    result = RunResult(checkpoints=[])
    global_step = 0
    try:
        for phase_idx, phase in enumerate(phases):
            for s in range(phase.steps):
                examples = [
                    next_batch(phase, dataset, rng_for(cfg.seed, "density", phase_idx, s, i),
                               cfg.alpha_set, cfg.memory_span_d)
                    for i in range(phase.batch)
                ]
                noise_rngs = [rng_for(cfg.seed, "noise", phase_idx, s, i)
                              for i in range(phase.batch)]
                drop_rngs = [rng_for(cfg.seed, "dropout", phase_idx, s, i)
                             for i in range(phase.batch)]
                try:
                    loss, gnorm = train_step(model, examples, cfg, schedule,
                                             optimizer, noise_rngs, drop_rngs)
                except NumericFailure as e:
                    raise NumericFailure(  # the log's numbering: steps count from 1
                        f"aborting at step {global_step + 1} phase {phase_idx}: {e}"
                    ) from e
                global_step += 1
                alpha_hist = {}
                for ex in examples:
                    alpha_hist[str(ex.draw.alpha)] = alpha_hist.get(str(ex.draw.alpha), 0) + 1
                record = {"step": global_step, "phase": phase_idx,
                          "frames": phase.frames, "alpha_hist": alpha_hist,
                          "loss": loss, "grad_norm": gnorm}
                result.history.append(record)
                if log_file:
                    log_file.write(json.dumps(record) + "\n")
                if progress:
                    progress(record)
            path = out / f"phase_{phase.frames:04d}.idck"
            ckpt.save_tensors(path, model.named_parameters())
            result.checkpoints.append(path)
            boundary = {"phase_boundary": phase_idx, "frames": phase.frames,
                        "checkpoint": str(path), "step": global_step}
            if log_file:
                log_file.write(json.dumps(boundary) + "\n")
    finally:
        if log_file:
            log_file.close()
    return result
