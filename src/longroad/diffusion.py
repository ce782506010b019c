"""DDPM machinery with memory-pinned frames.

The forward process noises only the future segment of a clip; the first M
frames stay at timestep 0 (clean, bit-identical) and act as conditioning.
Losses: per-frame noise-prediction MSE plus a variational KL term with a
learned interpolated variance, combined under retention weights that decay
exponentially with the frame's normalized distance from the memory segment.
The reverse sampler denoises the future segment over a strided timestep
subset while holding memory frames constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor


class NoiseSchedule:
    """Variance schedule tables, indexed directly by timestep t in [0, t_max].

    Index 0 is the no-noise identity: beta[0] = 0, alpha_bar[0] = 1. All
    tables are float64; consumers cast as needed.
    """

    def __init__(self, betas: np.ndarray):
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim != 1 or betas.shape[0] < 1:
            raise ConfigError("need a 1-D beta table with at least one entry")
        if np.any(betas <= 0) or np.any(betas >= 1):
            raise ConfigError("beta values must lie strictly within (0, 1)")
        self.t_max = int(betas.shape[0])
        self.beta = np.concatenate([[0.0], betas])
        self.alpha = 1.0 - self.beta
        self.alpha_bar = np.cumprod(self.alpha)  # alpha_bar[0] == 1 exactly
        # beta_tilde_t = beta_t (1 - abar_{t-1}) / (1 - abar_t); zero at t = 1
        post = np.zeros_like(self.beta)
        post[1:] = self.beta[1:] * (1.0 - self.alpha_bar[:-1]) / (1.0 - self.alpha_bar[1:])
        self.posterior_variance = post
        # log-variance floor at t = 1, where the true posterior collapses
        clipped = post.copy()
        clipped[1] = post[2] if self.t_max >= 2 else self.beta[1]
        self.posterior_log_variance_clipped = np.concatenate([[0.0], np.log(clipped[1:])])


def build_schedule(t_max: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linear beta interpolation, endpoints inclusive."""
    if t_max < 1:
        raise ConfigError(f"t_max must be >= 1, got {t_max}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(
            f"need 0 < beta_start <= beta_end < 1, got [{beta_start}, {beta_end}]"
        )
    return NoiseSchedule(np.linspace(beta_start, beta_end, t_max, dtype=np.float64))


@dataclass(frozen=True)
class FramePartition:
    """Memory/future split of an L-frame clip: frames [0, M) are memory."""

    l_total: int
    m_memory: int

    def __post_init__(self):
        if not (0 <= self.m_memory < self.l_total):
            raise ContractError(
                f"partition needs 0 <= M < L, got M={self.m_memory}, L={self.l_total}"
            )

    @property
    def n_future(self) -> int:
        return self.l_total - self.m_memory


@dataclass
class MemoryMaskedBatch:
    """One training example after the masked forward process."""

    x0: np.ndarray            # (L, C, H, W)
    partition: FramePartition
    t: np.ndarray             # (L,) int, 0 on memory frames
    eps: np.ndarray           # (L - M, C, H, W) noise on future frames
    xt: np.ndarray            # (L, C, H, W); memory rows bit-equal to x0


@dataclass
class DenoisePrediction:
    """Model outputs over all frames; losses consume the future slice only."""

    eps_hat: Tensor   # (L, C, H, W)
    v_hat: Tensor     # (L, C, H, W), squashed to [0, 1]


@dataclass(frozen=True)
class LossWeights:
    weights: np.ndarray  # (L - M,) float64, weights[0] == 1


def memory_weight(t_norm: float, lam: float) -> float:
    """Retention weight e^(-lam * t_norm) for a normalized frame distance."""
    if not 0.0 <= t_norm <= 1.0:
        raise ContractError(f"normalized frame index must be in [0, 1], got {t_norm}")
    if lam < 0:
        raise ContractError(f"decay rate must be >= 0, got {lam}")
    return float(np.exp(-lam * t_norm))


def loss_weights_for(partition: FramePartition, lam: float) -> LossWeights:
    """Weights over future frames; the first future frame always gets 1."""
    f = partition.n_future  # >= 1: a FramePartition keeps M < L
    if lam < 0:
        raise ContractError(f"decay rate must be >= 0, got {lam}")
    t_norm = np.zeros(f) if f == 1 else np.arange(f, dtype=np.float64) / (f - 1)
    return LossWeights(weights=np.exp(-lam * t_norm))


def sample_timesteps(rng: np.random.Generator, partition: FramePartition,
                     t_max: int) -> np.ndarray:
    """Per-frame timesteps: 0 on memory, one shared uniform draw in [1, t_max]
    for every future frame."""
    t = np.zeros(partition.l_total, dtype=np.int64)
    t[partition.m_memory:] = int(rng.integers(1, t_max + 1))
    return t


def _check_timesteps(t: np.ndarray, partition: FramePartition, t_max: int):
    if t.shape != (partition.l_total,):
        raise ContractError(f"timestep vector shape {t.shape} != ({partition.l_total},)")
    if np.any(t < 0) or np.any(t > t_max):
        raise ContractError(f"timesteps must lie in [0, {t_max}]")
    if np.any(t[:partition.m_memory] != 0):
        raise ContractError("memory frames must carry timestep 0")


def noise_frames(x0: np.ndarray, partition: FramePartition, t: np.ndarray,
                 eps: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """Masked forward process: memory rows copied bit-exactly, future rows get
    sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    _check_timesteps(np.asarray(t), partition, schedule.t_max)
    m = partition.m_memory
    if eps.shape != x0[m:].shape:
        raise ShapeError(f"eps shape {eps.shape} != future segment shape {x0[m:].shape}")
    xt = np.empty_like(x0)
    xt[:m] = x0[:m]
    abar = schedule.alpha_bar[np.asarray(t)[m:]].reshape((-1,) + (1,) * (x0.ndim - 1))
    xt[m:] = np.sqrt(abar).astype(x0.dtype) * x0[m:] + np.sqrt(1.0 - abar).astype(x0.dtype) * eps
    return xt


def make_batch(x0: np.ndarray, partition: FramePartition, schedule: NoiseSchedule,
               rng: np.random.Generator) -> MemoryMaskedBatch:
    t = sample_timesteps(rng, partition, schedule.t_max)
    eps = rng.standard_normal(x0[partition.m_memory:].shape).astype(x0.dtype)
    xt = noise_frames(x0, partition, t, eps, schedule)
    return MemoryMaskedBatch(x0=x0, partition=partition, t=t, eps=eps, xt=xt)


# -- losses ---------------------------------------------------------------------


def mse_loss(eps: np.ndarray, eps_hat: Tensor) -> Tensor:
    """Per-frame mean squared error over channels and pixels. Returns (F,)."""
    if eps.shape != eps_hat.shape:
        raise ShapeError(f"eps shape {eps.shape} != prediction shape {eps_hat.shape}")
    diff = T.sub(eps_hat, Tensor(eps))
    return T.reduce_mean(T.mul(diff, diff), axes=tuple(range(1, eps_hat.ndim)))


def _table_at(table: np.ndarray, t_arr: np.ndarray, ndim: int):
    vals = table[t_arr]
    if t_arr.ndim:
        vals = vals.reshape((-1,) + (1,) * (ndim - 1))
    return vals


def posterior_params(x0_hat: np.ndarray, xt: np.ndarray, t,
                     schedule: NoiseSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form reverse posterior q(x_{t-1} | x_t, x_0): mean and variance.

    `t` may be a scalar or a per-frame array aligned with the leading axis.
    """
    t_arr = np.asarray(t)
    if np.any(t_arr < 1):
        raise ContractError("posterior is undefined at t = 0")
    beta = _table_at(schedule.beta, t_arr, x0_hat.ndim)
    alpha = _table_at(schedule.alpha, t_arr, x0_hat.ndim)
    abar = _table_at(schedule.alpha_bar, t_arr, x0_hat.ndim)
    abar_prev = _table_at(schedule.alpha_bar, t_arr - 1, x0_hat.ndim)
    coef_x0 = np.sqrt(abar_prev) * beta / (1.0 - abar)
    coef_xt = np.sqrt(alpha) * (1.0 - abar_prev) / (1.0 - abar)
    mu = coef_x0 * x0_hat + coef_xt * xt
    return mu, schedule.posterior_variance[t_arr]


def gaussian_kl(mu_q, var_q, mu_p, log_var_p: Tensor) -> Tensor:
    """Elementwise KL( N(mu_q, var_q) || N(mu_p, exp(log_var_p)) ).

    Only `log_var_p` carries gradient; means and the q-variance are constants.
    One tape node, which keeps `num` and `e` for its backward.
    """
    var_q = np.asarray(var_q, dtype=np.float64)
    num = var_q + (np.asarray(mu_q, dtype=np.float64) - np.asarray(mu_p, dtype=np.float64)) ** 2
    e = np.exp(-log_var_p.data)
    half = np.float64(0.5)
    out = (log_var_p.data - np.log(var_q)) * half + num * e * half - half
    return T._node(out, (log_var_p,), [lambda g: g * half - ((g * half) * num) * e])


def vb_loss(pred: tuple[Tensor, Tensor], x0: np.ndarray, xt: np.ndarray, t,
            schedule: NoiseSchedule) -> Tensor:
    """Per-frame variational term: KL between the true posterior and the
    model's reverse Gaussian. The model mean uses the gradient-stopped noise
    prediction, so only the variance interpolation learns here. Returns (F,).
    """
    eps_hat, v_hat = pred
    t_arr = np.asarray(t)
    if np.any(t_arr < 1):
        raise ContractError("variational term is undefined at t = 0")

    abar = _table_at(schedule.alpha_bar, t_arr, x0.ndim)
    x0_hat = (xt - np.sqrt(1.0 - abar) * eps_hat.data) / np.sqrt(abar)
    mu_q, _ = posterior_params(x0, xt, t, schedule)
    mu_p, _ = posterior_params(x0_hat, xt, t, schedule)

    log_beta = _table_at(np.log(np.maximum(schedule.beta, 1e-300)), t_arr, x0.ndim)
    log_tilde = _table_at(schedule.posterior_log_variance_clipped, t_arr, x0.ndim)
    var_q = np.exp(log_tilde)

    log_var_p = T.add(T.mul(v_hat.astype(np.float64), log_beta - log_tilde), log_tilde)

    kl = gaussian_kl(mu_q, var_q, mu_p, log_var_p)
    return T.reduce_mean(kl, axes=tuple(range(1, x0.ndim)))


def weighted_total(per_frame_losses: Tensor, weights: LossWeights) -> Tensor:
    """Sum of per-future-frame losses under the retention weights."""
    if per_frame_losses.shape != weights.weights.shape:
        raise ShapeError(
            f"per-frame losses {per_frame_losses.shape} vs weights {weights.weights.shape}"
        )
    return T.reduce_sum(T.mul(per_frame_losses.astype(np.float64), weights.weights))


def total_loss(batch: MemoryMaskedBatch, pred: DenoisePrediction,
               weights: LossWeights, schedule: NoiseSchedule) -> Tensor:
    """Retention-weighted sum over future frames of (MSE + VB). Memory-frame
    predictions are never read, so they contribute exactly zero loss and zero
    gradient."""
    m = batch.partition.m_memory
    eps_hat_f = pred.eps_hat[m:]
    v_hat_f = pred.v_hat[m:]
    mse = mse_loss(batch.eps, eps_hat_f)
    vb = vb_loss((eps_hat_f.detach(), v_hat_f), batch.x0[m:], batch.xt[m:],
                 batch.t[m:], schedule)
    per_frame = T.add(mse.astype(np.float64), vb)
    return weighted_total(per_frame, weights)


# -- reverse sampling --------------------------------------------------------------


def strided_timesteps(t_max: int, steps: int) -> np.ndarray:
    """Descending subset of [1, t_max] with roughly uniform stride, always
    starting at t_max."""
    if steps < 1:
        raise ConfigError(f"need at least one sampling step, got {steps}")
    if steps > t_max:
        raise ConfigError(f"steps ({steps}) must not exceed t_max ({t_max})")
    picks = np.unique(np.round(np.linspace(t_max, 1, steps)).astype(np.int64))
    return picks[::-1]


def respaced_schedule(schedule: NoiseSchedule, subset: np.ndarray) -> NoiseSchedule:
    """Derived schedule whose step i spans the original steps between
    consecutive subset entries; alpha_bar values match the originals."""
    asc = np.sort(np.asarray(subset))
    abar = schedule.alpha_bar[asc]
    prev = np.concatenate([[1.0], abar[:-1]])
    return NoiseSchedule(1.0 - abar / prev)


def sample_clip(model, memory: np.ndarray, partition: FramePartition,
                schedule: NoiseSchedule, steps: int, rng: np.random.Generator,
                cond=None, plan=None, guidance_scale: float = 1.0) -> np.ndarray:
    """Reverse process over the future segment with M >= 0 memory frames
    pinned; M = 0 samples a whole clip. `memory` is (M, C, H, W) and sets the
    frame shape and dtype; the returned clip's memory rows are bit-equal to it.
    `model.forward(xt, t, cond, plan)` returns a DenoisePrediction over all
    frames. The x0 estimate is clipped to [-1, 1]. Classifier-free guidance
    runs a second forward with `cond.nulled()`, the condition training's
    dropout shows the model, only when `guidance_scale != 1.0` and the
    condition is not already null: for an absent or null condition both
    predictions are the same and guidance is a no-op.
    """
    m = partition.m_memory
    if memory.shape[0] != m:
        raise ContractError(f"memory has {memory.shape[0]} frames, partition expects M={m}")
    subset_desc = strided_timesteps(schedule.t_max, steps)
    sub = respaced_schedule(schedule, subset_desc)
    clip = np.empty((partition.l_total,) + memory.shape[1:], dtype=memory.dtype)
    clip[:m] = memory
    fut = clip[m:]  # view: every step writes its result back in place
    fut[...] = rng.standard_normal(fut.shape)
    t_vec = np.zeros(partition.l_total, dtype=np.int64)
    guided = guidance_scale != 1.0 and cond is not None and not cond.null_flag
    null = cond.nulled() if guided else None

    with T.no_grad():
        # step k of the respaced schedule is original timestep subset_desc[-k]
        for k, t_orig in zip(range(len(subset_desc), 0, -1), subset_desc.tolist()):
            t_vec[m:] = t_orig
            pred = model.forward(clip, t_vec, cond, plan)
            eps_hat = pred.eps_hat.data[m:]
            if null is not None:
                eps_null = model.forward(clip, t_vec, null, plan).eps_hat.data[m:]
                eps_hat = eps_null + guidance_scale * (eps_hat - eps_null)

            abar = schedule.alpha_bar[t_orig]
            x0_hat = np.clip((fut - np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(abar), -1.0, 1.0)
            mu, _ = posterior_params(x0_hat.astype(np.float64), fut.astype(np.float64), k, sub)
            log_tilde = sub.posterior_log_variance_clipped[k]
            log_var = (pred.v_hat.data[m:].astype(np.float64)
                       * (np.log(sub.beta[k]) - log_tilde) + log_tilde)
            if k > 1:
                mu = mu + np.exp(0.5 * log_var) * rng.standard_normal(fut.shape)
            fut[...] = mu
            del pred, eps_hat, x0_hat, mu, log_var  # memory peaks in the next forward
    return clip


def sample_future_only(model, l_total: int, frame_shape: tuple, schedule: NoiseSchedule,
                       steps: int, rng: np.random.Generator, cond=None, plan=None,
                       guidance_scale: float = 1.0) -> np.ndarray:
    """Text-only bootstrap: `sample_clip` with no memory frames, in float32."""
    memory = np.empty((0,) + tuple(frame_shape), dtype=np.float32)
    return sample_clip(model, memory, FramePartition(l_total, 0), schedule, steps, rng,
                       cond=cond, plan=plan, guidance_scale=guidance_scale)
