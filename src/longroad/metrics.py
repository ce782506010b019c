"""Long-video quality metrics.

Optical flow comes from exhaustive block matching (SAD cost, ties broken
toward zero displacement) with a forward-backward occlusion check. Warp error
is the RMS pixel distance between a frame and its backward-warped successor
over non-occluded pixels; the optical-flow score is the mean flow magnitude;
the motion-aware warp error (MAWE) divides warp error by the flow score and a
fixed coefficient, so it rewards videos that are both consistent and rich in
motion. Distribution distances (FID/FVD proxies) use a fixed-seed random
convolutional feature network, frozen forever, in place of pretrained
backbones; every report labels them "-proxy" because absolute values are not
comparable with published numbers.

Block matching scores every candidate displacement of FLOW_BATCH frame pairs
in one pass, yet sums each block's SAD in the order numpy's per-pair
`abs(diff).sum(axis=(0, 2, 4))` uses: each block row pairwise (numpy's
8-accumulator scheme), then the row sums one after another over (channel,
row). A frame one block wide sums a block's bs * bs pixels as one run, and a
single-block frame its C * bs * bs values. The order is kept because flow
takes the first minimum and flat regions tie exactly, so the last bit of a
sum decides matches: summing channels first, or integer SADs, flips some of
them and changes the reports.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, MetricUndefinedError, ShapeError

STACK_LEN = 16  # frames per temporal feature stack


@dataclass(frozen=True)
class MetricConfig:
    c: float = 9.5                 # MAWE coefficient
    window: int = 40               # evaluation window length (frames)
    search_radius: int = 4
    block: int = 8
    feature_seed: int = 90210

    def __post_init__(self):
        for name in ("window", "search_radius", "block", "feature_seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.c, (int, float)) or isinstance(self.c, bool) or self.c <= 0:
            raise ConfigError(f"MAWE coefficient must be a positive number, got {self.c!r}")
        if self.window < 2:
            raise ConfigError("evaluation window must span at least 2 frames")
        if self.search_radius < 0 or self.block < 1:
            raise ConfigError("flow search radius must be >= 0 and block >= 1")


@dataclass
class FlowField:
    u: np.ndarray          # (H, W) or (N, H, W) horizontal displacement, pixels
    v: np.ndarray          # same shape, vertical displacement, pixels
    occlusion: np.ndarray  # same shape, bool, True where round-trip check fails


@dataclass(frozen=True)
class FeatureStats:
    mu: np.ndarray
    sigma: np.ndarray


def _to_unit(video: np.ndarray) -> np.ndarray:
    video = np.asarray(video)
    if video.dtype == np.uint8:
        return video.astype(np.float64) / 255.0
    return video.astype(np.float64)


# -- block-matching flow ---------------------------------------------------------

FLOW_BATCH = 8  # frame pairs per flow call; flow memory does not grow with clip length


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in the order numpy's pairwise summation adds a
    contiguous run: below 8 terms one after another; up to 128 terms in 8
    strided accumulators combined as ((0+1)+(2+3))+((4+5)+(6+7)), then the
    remaining terms one after another; above 128 terms the two halves (the
    first a multiple of 8 long), each summed the same way."""
    n = x.shape[0]
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])
    if n < 8:
        acc = x[0]
        for k in range(1, n):
            acc = acc + x[k]
        return acc
    acc = x[:8]
    for k in range(8, n - n % 8, 8):
        acc = acc + x[k:k + 8]
    acc = acc[0::2] + acc[1::2]
    acc = (acc[0] + acc[1]) + (acc[2] + acc[3])
    for k in range(n - n % 8, n):
        acc += x[k]
    return acc


def _block_sads(a: np.ndarray, b: np.ndarray, cfg: MetricConfig):
    """(candidate displacements (K, 2), SADs (K, N, nby, nbx)) of every
    block of every frame of `a` against its frame of `b`; both are
    (N, C, H, W) float64. Each SAD is a pairwise sum of each run of the
    block, then the runs one after another, as the module docstring says."""
    n, c, h, w = a.shape
    bs, r = cfg.block, cfg.search_radius
    if h < bs or w < bs:
        raise ConfigError(f"frame ({h}x{w}) smaller than flow block ({bs})")
    ph, pw = (-h) % bs, (-w) % bs
    if ph or pw:
        a = np.pad(a, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="edge")
        b = np.pad(b, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="edge")
    nby, nbx = a.shape[2] // bs, a.shape[3] // bs
    bp = np.pad(b, ((0, 0), (0, 0), (r, r), (r, r)), mode="edge")

    # x[n, c, by * bs + i, bx * bs + j] at [j, c, i, n, by, bx], i and j
    # below `span`: the summed axes lead, so every term of a sum is one
    # contiguous slab over all blocks
    def by_pixel(x, span):
        win = np.lib.stride_tricks.sliding_window_view(x, (span, span), axis=(2, 3))
        return win[:, :, ::bs, ::bs].transpose(5, 1, 4, 0, 2, 3).copy()

    a_px = by_pixel(a, bs)
    b_px = by_pixel(bp, bs + 2 * r)  # b_px[r + dx + j, :, r + dy + i]: shifted by (dy, dx)
    blocks = n * nby * nbx
    run = bs if nbx > 1 else bs * bs if nby > 1 else c * bs * bs
    # sorted by displacement magnitude so argmin's first-minimum rule breaks
    # SAD ties toward zero motion
    cands = np.array(sorted(((dy, dx) for dy in range(-r, r + 1) for dx in range(-r, r + 1)),
                            key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1])))
    sads = np.empty((len(cands), blocks))
    diff = np.empty_like(a_px)
    for k, (dy, dx) in enumerate(cands.tolist()):
        np.subtract(a_px, b_px[r + dx:r + dx + bs, :, r + dy:r + dy + bs], out=diff)
        np.abs(diff, out=diff)
        if run == bs:
            terms = diff.reshape(bs, c * bs, blocks)
        else:  # runs over (channel, row, column)
            terms = diff.transpose(1, 2, 0, 3, 4, 5).reshape(-1, run, blocks).transpose(1, 0, 2)
        # numpy reduces axis 0 of a (runs, blocks) array one run after another
        np.add.reduce(_pairwise_sum(terms), axis=0, out=sads[k])
    return cands, sads.reshape(len(cands), n, nby, nbx)


def _block_displacements(a: np.ndarray, b: np.ndarray, cfg: MetricConfig):
    """Best (dy, dx) per block of every `a` frame matched in its `b` frame:
    two (N, nby, nbx) integer arrays. Frames are (N, C, H, W) float64."""
    cands, sads = _block_sads(a, b, cfg)
    best = np.argmin(sads, axis=0)
    return cands[best, 0], cands[best, 1]


def _expand(blockmap: np.ndarray, bs: int, h: int, w: int) -> np.ndarray:
    return np.repeat(np.repeat(blockmap, bs, axis=-2), bs, axis=-1)[..., :h, :w]


def estimate_flow(frame_a: np.ndarray, frame_b: np.ndarray,
                  cfg: MetricConfig) -> FlowField:
    """Per-pixel displacement taking content of `frame_a` to `frame_b`, plus
    an occlusion mask from the forward-backward consistency check. Frames
    are (C, H, W), giving (H, W) fields, or stacks of N pairs (N, C, H, W),
    giving (N, H, W) fields equal to the N single-pair fields."""
    a = _to_unit(frame_a)
    b = _to_unit(frame_b)
    if a.shape != b.shape:
        raise ShapeError(f"frame shapes differ: {a.shape} vs {b.shape}")
    if a.ndim not in (3, 4):
        raise ShapeError(f"need (C, H, W) frames or (N, C, H, W) stacks, got {a.shape}")
    single = a.ndim == 3
    if single:
        a, b = a[None], b[None]
    n, _, h, w = a.shape
    bs = cfg.block

    dy_f, dx_f = _block_displacements(a, b, cfg)
    dy_b, dx_b = _block_displacements(b, a, cfg)
    u = _expand(dx_f, bs, h, w).astype(np.float64)
    v = _expand(dy_f, bs, h, w).astype(np.float64)
    ub = _expand(dx_b, bs, h, w).astype(np.float64)
    vb = _expand(dy_b, bs, h, w).astype(np.float64)

    ys, xs = np.mgrid[0:h, 0:w]
    ry = ys + v.astype(np.int64)
    rx = xs + u.astype(np.int64)
    outside = (ry < 0) | (ry >= h) | (rx < 0) | (rx >= w)
    pair = np.arange(n)[:, None, None]
    ty = np.clip(ry, 0, h - 1)
    tx = np.clip(rx, 0, w - 1)
    round_u = u + ub[pair, ty, tx]
    round_v = v + vb[pair, ty, tx]
    occ = outside | (np.sqrt(round_u**2 + round_v**2) > 1.0)
    if single:
        return FlowField(u=u[0], v=v[0], occlusion=occ[0])
    return FlowField(u=u, v=v, occlusion=occ)


def _warp_backward(frames_b: np.ndarray, flow: FlowField) -> np.ndarray:
    """Sample each frame_b at p + flow(p): the motion-compensated successors
    of an (N, C, H, W) stack under (N, H, W) flow."""
    n, c, h, w = frames_b.shape
    ys, xs = np.mgrid[0:h, 0:w]
    ty = np.clip(ys + flow.v.astype(np.int64), 0, h - 1)[:, None]
    tx = np.clip(xs + flow.u.astype(np.int64), 0, w - 1)[:, None]
    return frames_b[np.arange(n)[:, None, None, None], np.arange(c)[:, None, None], ty, tx]


def _pair_metrics(video: np.ndarray, cfg: MetricConfig):
    """(per-pair warp RMS, per-pair mean flow norm) arrays over consecutive
    pairs; the warp RMS is NaN where a pair is fully occluded. Flow runs on
    FLOW_BATCH pairs at a time."""
    video = np.asarray(video)
    if video.shape[0] < 2:
        raise ContractError(f"need at least 2 frames, got {video.shape[0]}")
    n = video.shape[0] - 1
    warps, norms = np.full(n, np.nan), np.empty(n)
    for lo in range(0, n, FLOW_BATCH):
        hi = min(lo + FLOW_BATCH, n)
        vid = _to_unit(video[lo:hi + 1])
        flow = estimate_flow(vid[:-1], vid[1:], cfg)
        norms[lo:hi] = np.sqrt(flow.u**2 + flow.v**2).mean(axis=(1, 2))
        sq = (vid[:-1] - _warp_backward(vid[1:], flow)) ** 2
        for k, valid in enumerate(~flow.occlusion):
            if valid.any():
                warps[lo + k] = np.sqrt(sq[k][:, valid].mean())
    return warps, norms


def _mean_warp(warps: np.ndarray) -> float:
    usable = warps[~np.isnan(warps)]
    if usable.size == 0:
        raise MetricUndefinedError("every frame pair is fully occluded")
    return float(np.mean(usable))


def _mawe(warps: np.ndarray, norms: np.ndarray, c: float) -> float:
    w = _mean_warp(warps)
    ofs = float(np.mean(norms))
    if ofs < 1e-6:
        if w < 1e-6:
            return 0.0
        raise MetricUndefinedError(f"zero optical flow with nonzero warp error ({w:.3g})")
    return w / (c * ofs)


def warp_error(video: np.ndarray, cfg: MetricConfig) -> float:
    """Mean over consecutive pairs of masked RMS distance between a frame and
    its backward-warped successor. All-occluded pairs contribute nothing."""
    return _mean_warp(_pair_metrics(video, cfg)[0])


def optical_flow_score(video: np.ndarray, cfg: MetricConfig) -> float:
    """Mean flow-vector norm over all pixels and consecutive pairs."""
    return float(np.mean(_pair_metrics(video, cfg)[1]))


def mawe(video: np.ndarray, cfg: MetricConfig) -> float:
    """warp_error / (c * optical_flow_score); a static, unchanged video scores
    0 by convention, while zero motion with nonzero warp error is undefined."""
    return _mawe(*_pair_metrics(video, cfg), cfg.c)


# -- frozen feature network ----------------------------------------------------------

FEATURE_BATCH = 16  # frames of input per frame-net call, at least
STACK_BATCH = 2  # stacks per stack-net call, at least: one stack alone runs at half speed


def _conv_s2(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 stride-2 convolution with zero padding of 1, float64."""
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="constant")
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
    windows = windows[:, :, ::2, ::2]  # stride 2
    out = np.einsum("bchwij,ocij->bohw", windows, w, optimize=True)
    return out + b[None, :, None, None]


class VideoFeatureNet:
    """Small fixed-seed convolutional embedder, frozen forever.

    Frames enter as finite-difference gradients (palette-invariant), pass a
    3-layer random conv stack, and are summarized by per-layer channel
    mean/std statistics. The network's response to a zero input is subtracted
    (an input-independent anchor) and a constant homogeneous coordinate is
    appended before unit normalization, so a vector's direction encodes how
    far the input's texture statistics sit from neutral: renders of any
    palette stay near the constant axis while broadband noise swings far into
    the statistics subspace. Output vectors are unit-norm.
    """

    WIDTHS = (16, 32, 64)
    HOMOGENEOUS = 4.0

    def __init__(self, channels: int, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence((seed, channels)))
        self.channels = channels
        self.weights = []
        c_in = 2 * channels  # vertical + horizontal gradient planes
        for c_out in self.WIDTHS:
            fan = c_in * 9
            w = rng.normal(0.0, np.sqrt(2.0 / fan), size=(c_out, c_in, 3, 3))
            b = rng.normal(0.0, 0.1, size=c_out)
            self.weights.append((w, b))
            c_in = c_out
        self._anchors: dict[tuple[int, int], np.ndarray] = {}

    def _aligned_rows(self, rows: int, hw: tuple[int, int]) -> int:
        """`rows` rounded up so every layer's GEMM over a batch spans a
        multiple of 8 output columns (rows * output pixels per row)."""
        h, w = hw
        for _ in self.weights:
            h, w = (h + 1) // 2, (w + 1) // 2
            rows = math.lcm(rows, 8 // math.gcd(8, h * w))
        return rows

    @staticmethod
    def _gradients(x: np.ndarray) -> np.ndarray:
        gy = np.diff(x, axis=2, append=x[:, :, -1:, :])
        gx = np.diff(x, axis=3, append=x[:, :, :, -1:])
        return np.concatenate([gy, gx], axis=1)

    def _stats(self, g: np.ndarray) -> np.ndarray:
        stats = []
        x = g
        for i, (w, b) in enumerate(self.weights):
            x = _conv_s2(x, w, b)
            if i < len(self.weights) - 1:
                x = np.maximum(x, 0.0)
            stats.append(x.mean(axis=(2, 3)))
            stats.append(x.std(axis=(2, 3)))
        return np.concatenate(stats, axis=1)

    def __call__(self, batch: np.ndarray, rows: int) -> np.ndarray:
        """Unit-norm features of an (N, channels, H, W) uint8 or float batch.

        The net runs on `rows` inputs at a time, so memory does not grow
        with N. `rows` is rounded up so every layer's GEMM spans whole
        8-column panels, and the last call also takes the remainder: BLAS
        picks its kernels by GEMM width, and these two rules keep the stats
        bit-equal to one call on the whole batch at the sizes
        tests/test_metrics.py checks, 32x48 among them (elsewhere within one
        rounding). The stacked stats are made Fortran-ordered, the layout one
        `_stats` call gives for N >= 2, because the norm below and the
        callers' reductions sum in an order that follows the layout."""
        batch = np.asarray(batch)
        hw = (batch.shape[2], batch.shape[3])
        if hw not in self._anchors:
            zero = np.zeros((1, 2 * self.channels) + hw)
            self._anchors[hw] = self._stats(zero)[0]
        if batch.shape[0] == 0:
            return np.empty((0, self._anchors[hw].shape[0] + 1))
        n, rows = batch.shape[0], self._aligned_rows(rows, hw)
        starts = list(range(0, max(n - rows, 0) + 1, rows))  # the last takes the remainder
        stats = np.asfortranarray(np.concatenate([
            self._stats(self._gradients(_to_unit(batch[lo:hi])))
            for lo, hi in zip(starts, starts[1:] + [n])]))
        feats = stats - self._anchors[hw][None, :]
        hom = np.full((feats.shape[0], 1), self.HOMOGENEOUS)
        feats = np.concatenate([feats, hom], axis=1)
        norms = np.linalg.norm(feats, axis=1, keepdims=True)
        return feats / np.maximum(norms, 1e-12)

    def checksum(self) -> str:
        crc = 0
        for w, b in self.weights:
            crc = zlib.crc32(np.ascontiguousarray(w).tobytes(), crc)
            crc = zlib.crc32(np.ascontiguousarray(b).tobytes(), crc)
        return f"{crc:08x}"


_NET_CACHE: dict[tuple[int, int], VideoFeatureNet] = {}


def _net(channels: int, seed: int) -> VideoFeatureNet:
    key = (channels, seed)
    if key not in _NET_CACHE:
        _NET_CACHE[key] = VideoFeatureNet(channels, seed)
    return _NET_CACHE[key]


def extractor_checksum(channels: int, seed: int) -> str:
    frame_net = _net(channels, seed)
    stack_net = _net(channels * STACK_LEN, seed)
    return f"{frame_net.checksum()}-{stack_net.checksum()}"


def _stack_features(video: np.ndarray, extractor_seed: int) -> np.ndarray:
    """(K, D) features of the consecutive, non-overlapping 16-frame stacks of
    a video, one stack per net call; K is 0 below 16 frames."""
    video = np.asarray(video)
    k, c = video.shape[0] // STACK_LEN, video.shape[1]
    stacked = video[:k * STACK_LEN].reshape(k, STACK_LEN * c, video.shape[2], video.shape[3])
    return _net(STACK_LEN * c, extractor_seed)(stacked, rows=STACK_BATCH)


def video_features(video: np.ndarray, extractor_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(per-frame features (L, D), per-16-frame-stack features (K, D)) of a
    uint8 or unit-range video; memory does not grow with L beyond the
    features themselves."""
    video = np.asarray(video)
    return (_net(video.shape[1], extractor_seed)(video, FEATURE_BATCH),
            _stack_features(video, extractor_seed))


def background_consistency_from_features(feats: np.ndarray) -> float:
    """Average of (i) mean cosine similarity of consecutive frame features and
    (ii) mean similarity of the first frame to every LATER frame."""
    if feats.shape[0] < 2:
        raise ContractError("need at least 2 frames")
    consecutive = float(np.mean(np.sum(feats[:-1] * feats[1:], axis=1)))
    to_first = float(np.mean(feats[1:] @ feats[0]))
    return (consecutive + to_first) / 2.0


def background_consistency(video: np.ndarray, cfg: MetricConfig) -> float:
    feats, _ = video_features(video, cfg.feature_seed)
    return background_consistency_from_features(feats)


# -- Frechet statistics ----------------------------------------------------------------


def feature_stats(feats: np.ndarray) -> FeatureStats:
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ContractError(f"need an (N, D) feature matrix, got {feats.shape}")
    mu = feats.mean(axis=0)
    if feats.shape[0] == 1:
        sigma = np.zeros((feats.shape[1], feats.shape[1]))
    else:
        sigma = np.cov(feats, rowvar=False)
    return FeatureStats(mu=mu, sigma=np.atleast_2d(sigma))


def _psd_sqrt(m: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
    if vals.min() < -tol:
        raise ContractError(f"matrix has eigenvalue {vals.min():.3g} below -{tol}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(a: FeatureStats, b: FeatureStats) -> float:
    """Squared Frechet distance between the two Gaussian fits:
    |mu_a - mu_b|^2 + tr(S_a + S_b - 2 (S_a S_b)^{1/2})."""
    if a.mu.shape != b.mu.shape:
        raise ShapeError(f"feature dims differ: {a.mu.shape} vs {b.mu.shape}")
    diff = float(np.sum((a.mu - b.mu) ** 2))
    sa_half = _psd_sqrt(a.sigma)
    inner = _psd_sqrt(sa_half @ b.sigma @ sa_half)
    trace_term = float(np.trace(a.sigma) + np.trace(b.sigma) - 2.0 * np.trace(inner))
    return max(diff + trace_term, 0.0)


# -- one metric pass per clip -------------------------------------------------------------

FLOW_METRICS = ("mawe", "warp_error", "optical_flow_score")
SCALAR_METRICS = FLOW_METRICS + ("background_consistency",)


def _defined(metric) -> float | None:
    try:
        return metric()
    except MetricUndefinedError:
        return None


def clip_metrics(video: np.ndarray, cfg: MetricConfig, requested,
                 ref_frames: FeatureStats, ref_stacks: FeatureStats | None):
    """(requested metrics, frame features, stack features) of one clip, from
    flow run once per frame pair (only for a flow metric or the curves) and
    features run once per frame. A scalar reduces those arrays; a curve point
    at `mark` reduces frames [mark - window, mark), pairs [mark - window,
    mark - 1), and recomputes only its 16-frame stacks. Undefined values are None."""
    frame_feats, stack_feats = video_features(video, cfg.feature_seed)
    curves = "curves" in requested and len(video) >= cfg.window
    if curves or any(m in requested for m in FLOW_METRICS):
        warps, norms = _pair_metrics(video, cfg)
    scalars = {
        "mawe": lambda: _mawe(warps, norms, cfg.c),
        "warp_error": lambda: _mean_warp(warps),
        "optical_flow_score": lambda: float(np.mean(norms)),
        "background_consistency": lambda: background_consistency_from_features(frame_feats),
    }
    values = {name: _defined(scalars[name]) for name in SCALAR_METRICS if name in requested}
    if curves:
        values["curves"] = []
        for mark in range(cfg.window, len(video) + 1, cfg.window):
            lo = mark - cfg.window
            feats = frame_feats[lo:mark]
            stacks = _stack_features(video[lo:mark], cfg.feature_seed)
            values["curves"].append({
                "frame": mark,
                "fid_proxy": frechet_distance(feature_stats(feats), ref_frames),
                "mawe": _defined(lambda: _mawe(warps[lo:mark - 1], norms[lo:mark - 1], cfg.c)),
                "background_consistency": background_consistency_from_features(feats),
                "fvd_proxy": (frechet_distance(feature_stats(stacks), ref_stacks)
                              if ref_stacks is not None and stacks.shape[0] else None),
            })
    return values, frame_feats, stack_feats


def windowed_curves(video: np.ndarray, cfg: MetricConfig,
                    ref_frames: FeatureStats, ref_stacks: FeatureStats | None) -> list[dict]:
    """Metric values at frame marks window, 2*window, ...: each mark evaluates
    the previous `window` frames against the reference statistics."""
    if len(video) < cfg.window:
        raise ContractError(f"video has {len(video)} frames, below one window ({cfg.window})")
    return clip_metrics(video, cfg, ("curves",), ref_frames, ref_stacks)[0]["curves"]
