"""Spatio-temporal transformer denoiser.

Frames are patchified into tokens and processed by a stack of blocks, each
running four gated residual sublayers: self-attention across the tokens of a
frame (spatial), self-attention across frames at each token position
(temporal, with rotary position encoding driven by each frame's original
index in the full-rate sequence), cross-attention over the text/command
condition, and an MLP. Normalization layers are modulated per frame by a
vector derived from the diffusion timestep plus fps/height/width scalar
embeddings; modulation projections and the output head are zero-initialized
so the whole network is the identity (and predicts zero noise) at init.

Temporal attention logits depend on original frame indices only, never on a
frame's slot within a subsampled clip, so embeddings are consistent across
temporal subsampling rates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .diffusion import DenoisePrediction
from .errors import ConfigError, ContractError
from .nn import Embedding, Linear, Module
from .tensor import Tensor


@dataclass(frozen=True)
class ModelConfig:
    depth: int = 4
    hidden: int = 128
    heads: int = 4
    patch: int = 4         # keeps CPU spatial attention tractable at alpha-scaled sizes
    channels: int = 3
    t_max: int = 1000
    text_vocab: int = 64
    max_original_index: int = 4096
    mlp_ratio: int = 4
    rope_base: float = 10000.0

    def __post_init__(self):
        if self.hidden % self.heads:
            raise ConfigError(f"hidden ({self.hidden}) must divide by heads ({self.heads})")
        if (self.hidden // self.heads) % 2:
            raise ConfigError("head dim must be even for rotary pairs")
        if self.hidden % 4:
            raise ConfigError("hidden must be a multiple of 4 for 2-D position embeddings")
        if not self.rope_base > 0:
            raise ConfigError(f"rope_base must be positive, got {self.rope_base}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads


@dataclass(frozen=True)
class RopePlan:
    """Original-index positions of the frames in a (possibly subsampled) clip."""

    original_indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.original_indices, dtype=np.int64)
        if idx.ndim != 1 or (idx.size > 1 and np.any(np.diff(idx) <= 0)):
            raise ContractError("plan indices must be a strictly increasing 1-D sequence")
        object.__setattr__(self, "original_indices", idx)

    def __len__(self) -> int:
        return int(self.original_indices.shape[0])


@dataclass(frozen=True)
class ConditionSet:
    """Caption tokens, per-frame direction commands, and clip-level scalars."""

    text_tokens: np.ndarray   # (N,) int
    command_ids: np.ndarray   # (L,) int in {0: straight, 1: left, 2: right}
    fps: float
    height: float
    width: float
    null_flag: bool = False

    def __post_init__(self):
        object.__setattr__(self, "text_tokens", np.asarray(self.text_tokens, dtype=np.int64))
        object.__setattr__(self, "command_ids", np.asarray(self.command_ids, dtype=np.int64))
        if min(self.fps, self.height, self.width) <= 0:
            raise ContractError("fps/height/width scalars must be positive")

    def nulled(self) -> "ConditionSet":
        """Same scalars, condition content replaced by the learned null."""
        return replace(self, null_flag=True)


# -- tokenization ------------------------------------------------------------------


def patchify(clip: Tensor, patch: int) -> Tensor:
    """(L, C, H, W) -> (L, S, C*patch*patch) token grid; lossless."""
    l, c, h, w = clip.shape
    if h % patch or w % patch:
        raise ConfigError(f"frame dims ({h}, {w}) not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    x = T.reshape(clip, (l, c, gh, patch, gw, patch))
    x = T.transpose(x, (0, 2, 4, 1, 3, 5))
    return T.reshape(x, (l, gh * gw, c * patch * patch))


def unpatchify(tokens: Tensor, patch: int, channels: int, h: int, w: int) -> Tensor:
    """Exact inverse of patchify."""
    l = tokens.shape[0]
    gh, gw = h // patch, w // patch
    x = T.reshape(tokens, (l, gh, gw, channels, patch, patch))
    x = T.transpose(x, (0, 3, 1, 4, 2, 5))
    return T.reshape(x, (l, channels, h, w))


def sinusoidal_embedding(pos: np.ndarray, dim: int) -> np.ndarray:
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half, dtype=np.float64) / half)
    args = np.asarray(pos, dtype=np.float64)[:, None] * freqs[None, :]
    return np.concatenate([np.cos(args), np.sin(args)], axis=-1)


def spatial_position_table(gh: int, gw: int, dim: int) -> np.ndarray:
    """Fixed 2-D sin/cos table for a token grid, row-major flattened."""
    half = dim // 2
    rows = sinusoidal_embedding(np.arange(gh), half)
    cols = sinusoidal_embedding(np.arange(gw), half)
    grid = np.concatenate(
        [np.repeat(rows, gw, axis=0), np.tile(cols, (gh, 1))], axis=-1
    )
    return grid


def rope_tables(plan: RopePlan, head_dim: int, dtype,
                base: float) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin rotation tables (L, head_dim/2) from original frame indices;
    `base` is the model's `rope_base`."""
    half = head_dim // 2
    inv = base ** (-2.0 * np.arange(half, dtype=np.float64) / head_dim)
    ang = plan.original_indices[:, None].astype(np.float64) * inv[None, :]
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


# -- layers -----------------------------------------------------------------------


class MultiHeadAttention(Module):
    def __init__(self, rng, hidden: int, heads: int, dtype):
        self.heads = heads
        self.head_dim = hidden // heads
        self.scale = self.head_dim ** -0.5
        self.wq = Linear(rng, hidden, hidden, dtype)
        self.wk = Linear(rng, hidden, hidden, dtype)
        self.wv = Linear(rng, hidden, hidden, dtype)
        self.wo = Linear(rng, hidden, hidden, dtype)

    def logits(self, q_in: Tensor, kv_in: Tensor, rope=None) -> Tensor:
        """Pre-softmax attention scores (B, heads, n_q, n_kv), values only,
        from the same scoring code the attention op runs."""
        return Tensor(T.attention_scores(self.wq(q_in).data, self.wk(kv_in).data,
                                         self.heads, self.scale, rope))

    def __call__(self, q_in: Tensor, kv_in: Tensor, rope=None) -> Tensor:
        out = T.attention(self.wq(q_in), self.wk(kv_in), self.wv(kv_in),
                          self.heads, self.scale, rope)
        return self.wo(out)


class Mlp(Module):
    def __init__(self, rng, hidden: int, ratio: int, dtype):
        self.fc1 = Linear(rng, hidden, hidden * ratio, dtype)
        self.fc2 = Linear(rng, hidden * ratio, hidden, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return T.mlp(x, self.fc1.w, self.fc1.b, self.fc2.w, self.fc2.b)


class TimestepEmbedder(Mlp):
    """Per-frame modulation vector from the diffusion timestep plus the
    fps/height/width scalar embeddings, through a width-preserving MLP.
    Timestep 0 (memory) is just another grid point, distinct from every
    t >= 1."""

    def __init__(self, rng, hidden: int, dtype):
        super().__init__(rng, hidden, 1, dtype)
        self.hidden = hidden
        self.dtype = dtype

    def __call__(self, t: np.ndarray, scalars: tuple[float, float, float]) -> Tensor:
        base = sinusoidal_embedding(np.asarray(t, dtype=np.float64), self.hidden)
        extra = sinusoidal_embedding(np.asarray(scalars, dtype=np.float64), self.hidden).sum(axis=0)
        return super().__call__(Tensor((base + extra[None, :]).astype(self.dtype)))


class SpaceTimeBlock(Module):
    """One denoiser block: spatial attention, temporal attention,
    cross-attention, MLP; all residual, all gated, gates zero at init."""

    def __init__(self, rng, cfg: ModelConfig, dtype):
        h = cfg.hidden
        self.mod = Linear(rng, h, 12 * h, dtype, zero_init=True)
        self.spatial_attn = MultiHeadAttention(rng, h, cfg.heads, dtype)
        self.temporal_attn = MultiHeadAttention(rng, h, cfg.heads, dtype)
        self.cross_attn = MultiHeadAttention(rng, h, cfg.heads, dtype)
        self.mlp = Mlp(rng, h, cfg.mlp_ratio, dtype)

    def _sublayer(self, x: Tensor, mods: Tensor, i: int, fn) -> Tensor:
        """Sublayer i's adaLN-Zero wrap, x + gate * fn(LN(x) * (1 + scale) + shift),
        with shift, scale and gate blocks 3i, 3i + 1 and 3i + 2 of `mods`."""
        return T.gated_residual(x, mods, 3 * i + 2, fn(T.modulated_norm(x, mods, 3 * i)))

    def spatial_step(self, x: Tensor, mods: Tensor) -> Tensor:
        return self._sublayer(x, mods, 0, lambda h: self.spatial_attn(h, h))

    def temporal_step(self, x: Tensor, mods: Tensor, rope) -> Tensor:
        def attend(h):
            ht = T.transpose(h, (1, 0, 2))               # (S, L, hidden)
            return T.transpose(self.temporal_attn(ht, ht, rope), (1, 0, 2))
        return self._sublayer(x, mods, 1, attend)

    def cross_step(self, x: Tensor, mods: Tensor, cond_kv: Tensor) -> Tensor:
        return self._sublayer(x, mods, 2, lambda h: self.cross_attn(h, cond_kv))

    def mlp_step(self, x: Tensor, mods: Tensor) -> Tensor:
        return self._sublayer(x, mods, 3, self.mlp)

    def __call__(self, x: Tensor, c_mod: Tensor, cond_kv: Tensor, rope) -> Tensor:
        mods = self.mod(c_mod)                           # (L, 12 * hidden)
        x = self.spatial_step(x, mods)
        x = self.temporal_step(x, mods, rope)
        x = self.cross_step(x, mods, cond_kv)
        return self.mlp_step(x, mods)


class VideoDenoiser(Module):
    """Full denoiser: patch embed -> block stack -> zero-init output head.

    `forward` returns noise and variance-interpolation predictions for every
    frame; the training loss reads only the future slice.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        patch_dim = cfg.patch * cfg.patch * cfg.channels
        self.patch_embed = Linear(rng, patch_dim, cfg.hidden, dtype)
        self.t_embed = TimestepEmbedder(rng, cfg.hidden, dtype)
        self.text_embed = Embedding(rng, cfg.text_vocab, cfg.hidden, dtype)
        self.command_embed = Embedding(rng, 3, cfg.hidden, dtype)
        self.null_embed = Embedding(rng, 1, cfg.hidden, dtype)
        self.blocks = [SpaceTimeBlock(rng, cfg, dtype) for _ in range(cfg.depth)]
        self.final_mod = Linear(rng, cfg.hidden, 2 * cfg.hidden, dtype, zero_init=True)
        self.head = Linear(rng, cfg.hidden, patch_dim * 2, dtype, zero_init=True)
        self._pos_cache: dict[tuple[int, int], np.ndarray] = {}

    # -- conditioning --------------------------------------------------------------

    def _condition_kv(self, cond: ConditionSet | None, l: int) -> Tensor:
        """Per-frame key/value set: embedded caption tokens plus the frame's
        command embedding; the learned null row when the condition is absent
        or dropped."""
        if cond is None or cond.null_flag:
            return self.null_embed(np.zeros((l, 1), np.int64))       # (L, 1, hidden)
        if cond.text_tokens.size and cond.text_tokens.max() >= self.cfg.text_vocab:
            raise ContractError(
                f"token id {int(cond.text_tokens.max())} outside vocab {self.cfg.text_vocab}"
            )
        if cond.command_ids.shape != (l,):
            raise ContractError(
                f"need one command per frame: got {cond.command_ids.shape}, L={l}"
            )
        text = self.text_embed(cond.text_tokens[None])              # (1, N, hidden)
        cmd = self.command_embed(cond.command_ids[:, None])         # (L, 1, hidden)
        return T.concat([T.concat([text] * l, axis=0), cmd], axis=1)  # (L, N+1, hidden)

    def _positions(self, gh: int, gw: int) -> np.ndarray:
        key = (gh, gw)
        if key not in self._pos_cache:
            self._pos_cache[key] = spatial_position_table(gh, gw, self.cfg.hidden).astype(self.dtype)
        return self._pos_cache[key]

    # -- forward --------------------------------------------------------------------

    def forward(self, xt, t: np.ndarray, cond: ConditionSet | None,
                plan: RopePlan) -> DenoisePrediction:
        x_in = Tensor(np.asarray(xt, dtype=self.dtype))
        l, c, h, w = x_in.shape
        cfg = self.cfg
        if c != cfg.channels:
            raise ContractError(f"clip has {c} channels, model expects {cfg.channels}")
        if len(plan) != l:
            raise ContractError(f"plan length {len(plan)} != clip length {l}")
        if np.any(plan.original_indices > cfg.max_original_index):
            raise ContractError(
                f"plan index beyond max_original_index ({cfg.max_original_index})"
            )
        t = np.asarray(t)
        if np.any(t < 0) or np.any(t > cfg.t_max):
            raise ContractError(f"timesteps must lie in [0, {cfg.t_max}]")

        scalars = (cond.fps, cond.height, cond.width) if cond is not None else (1.0, float(h), float(w))
        tokens = patchify(x_in, cfg.patch)
        x = self.patch_embed(tokens)
        x = T.add(x, Tensor(self._positions(h // cfg.patch, w // cfg.patch)[None, :, :]))
        c_mod = self.t_embed(t, scalars)
        cond_kv = self._condition_kv(cond, l)
        rope = rope_tables(plan, cfg.head_dim, self.dtype, cfg.rope_base)

        for block in self.blocks:
            x = block(x, c_mod, cond_kv, rope)

        x = T.modulated_norm(x, self.final_mod(c_mod), 0)
        out = self.head(x)                                           # (L, S, 2*p*p*C)
        full = unpatchify(out, cfg.patch, 2 * cfg.channels, h, w)    # (L, 2C, H, W)
        eps_hat = full[:, :cfg.channels]
        v_hat = T.sigmoid(full[:, cfg.channels:])
        return DenoisePrediction(eps_hat=eps_hat, v_hat=v_hat)
