import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longroad import metrics as M
from longroad import toyroad as R
from longroad.errors import ConfigError, ContractError, MetricUndefinedError, ShapeError

CFG = M.MetricConfig(search_radius=4, block=8)


def textured_master(h, w, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=(3, h, w)).astype(np.uint8)


def translating_video(n_frames, dy, dx, h=32, w=48, seed=0):
    """Frames cut from one big textured master so translation is exact
    everywhere, borders included."""
    master = textured_master(h + abs(dy) * n_frames + 8, w + abs(dx) * n_frames + 8, seed)
    y0 = 4 if dy >= 0 else 4 + abs(dy) * n_frames
    x0 = 4 if dx >= 0 else 4 + abs(dx) * n_frames
    frames = []
    for k in range(n_frames):
        ys = y0 + dy * k
        xs = x0 + dx * k
        frames.append(master[:, ys:ys + h, xs:xs + w])
    return np.stack(frames)


class TestFlow:
    def test_identical_frames(self):
        f = textured_master(32, 48)
        flow = M.estimate_flow(f, f, CFG)
        assert np.all(flow.u == 0) and np.all(flow.v == 0)
        assert not flow.occlusion.any()

    def test_two_pixel_shift(self):
        vid = translating_video(2, dy=0, dx=2)
        flow = M.estimate_flow(vid[0], vid[1], CFG)
        np.testing.assert_array_equal(flow.u, np.full((32, 48), -2.0))
        np.testing.assert_array_equal(flow.v, np.zeros((32, 48)))

    def test_uniform_frames_tie_break_to_zero(self):
        f = np.full((3, 32, 48), 128, dtype=np.uint8)
        flow = M.estimate_flow(f, f, CFG)
        assert np.all(flow.u == 0) and np.all(flow.v == 0)

    def test_frame_smaller_than_block(self):
        f = np.zeros((3, 4, 4), dtype=np.uint8)
        with pytest.raises(ConfigError):
            M.estimate_flow(f, f, CFG)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            M.estimate_flow(np.zeros((3, 32, 48)), np.zeros((3, 32, 40)), CFG)


def oracle_sads(a, b, cfg):
    """Exact per-pair block matching as reference: (sorted candidates,
    (K, nby, nbx) int64 SADs) of one (C, H, W) uint8 pair."""
    a, b = a.astype(np.int64), b.astype(np.int64)
    c, h, w = a.shape
    bs, r = cfg.block, cfg.search_radius
    ph = (-h) % bs
    pw = (-w) % bs
    if ph or pw:
        a = np.pad(a, ((0, 0), (0, ph), (0, pw)), mode="edge")
        b = np.pad(b, ((0, 0), (0, ph), (0, pw)), mode="edge")
    hh, ww = a.shape[1], a.shape[2]
    nby, nbx = hh // bs, ww // bs
    a_blocks = a.reshape(c, nby, bs, nbx, bs)
    bp = np.pad(b, ((0, 0), (r, r), (r, r)), mode="edge")
    cands = sorted(
        ((dy, dx) for dy in range(-r, r + 1) for dx in range(-r, r + 1)),
        key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]),
    )
    sads = np.empty((len(cands), nby, nbx), dtype=np.int64)
    for i, (dy, dx) in enumerate(cands):
        shifted = bp[:, r + dy:r + dy + hh, r + dx:r + dx + ww]
        sads[i] = np.abs(a_blocks - shifted.reshape(c, nby, bs, nbx, bs)).sum(axis=(0, 2, 4))
    return np.asarray(cands), sads


def oracle_block_displacements(a, b, cfg):
    """Best (dy, dx) per block of one (C, H, W) pair, first minimum wins."""
    cands, sads = oracle_sads(a, b, cfg)
    best = np.argmin(sads, axis=0)
    return cands[best, 0], cands[best, 1]


@st.composite
def frame_stacks(draw):
    """Two (N, C, H, W) stacks and a flow config: sizes not divisible by the
    block, one-block-wide and single-block frames, few grey levels (exact
    SAD ties) or continuous values, uint8 or float64."""
    bs = draw(st.integers(1, 20))
    cfg = M.MetricConfig(search_radius=draw(st.integers(0, 4)), block=bs)
    blocks_y, blocks_x = draw(st.sampled_from([(1, 1), (3, 1), (1, 3), (3, 3)]))
    h = draw(st.integers(bs, bs * blocks_y + bs - 1))
    w = draw(st.integers(bs, bs * blocks_x + bs - 1))
    shape = (draw(st.integers(1, 3)), draw(st.sampled_from([1, 3])), h, w)
    levels = draw(st.sampled_from([2, 3, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["uint8", "float64"])) == "uint8":
        step = 255 // (levels - 1)
        a = (step * rng.integers(0, levels, shape)).astype(np.uint8)
        b = (step * rng.integers(0, levels, shape)).astype(np.uint8)
    elif levels == 256:
        a, b = rng.random(shape), rng.random(shape)
    else:
        a, b = rng.integers(0, levels, shape) / levels, rng.integers(0, levels, shape) / levels
    return a, b, cfg


class TestBatchedFlow:
    @settings(max_examples=80, deadline=None)
    @given(frame_stacks())
    def test_block_matching_equals_per_pair_oracle(self, case):
        # every block takes the exact first minimum over integer SADs
        a, b, cfg = case
        a, b = M._to_pixels(a), M._to_pixels(b)
        cands, sads = M._block_sads(a, b, cfg)
        dy, dx = M._block_displacements(a, b, cfg)
        for i in range(len(a)):
            want_cands, want_sads = oracle_sads(a[i], b[i], cfg)
            np.testing.assert_array_equal(cands, want_cands)
            np.testing.assert_array_equal(sads[:, i], want_sads)
            want_dy, want_dx = oracle_block_displacements(a[i], b[i], cfg)
            np.testing.assert_array_equal(dy[i], want_dy)
            np.testing.assert_array_equal(dx[i], want_dx)

    @settings(max_examples=30, deadline=None)
    @given(frame_stacks())
    def test_stacked_flow_equals_single_pair_calls(self, case):
        a, b, cfg = case
        flow = M.estimate_flow(a, b, cfg)
        for i in range(len(a)):
            one = M.estimate_flow(a[i], b[i], cfg)
            assert one.u.shape == a.shape[2:]
            for got, want in ((flow.u, one.u), (flow.v, one.v),
                              (flow.occlusion, one.occlusion)):
                assert got[i].dtype == want.dtype and got[i].tobytes() == want.tobytes()

    def test_rendered_clip_matches_oracle(self):
        # flat road and sky regions give many exact SAD ties
        clip = R.render_clip(R.scene_for_clip(1, 0, 10), 32, 48, 10, 10).frames
        dy, dx = M._block_displacements(clip[:-1], clip[1:], CFG)
        for i in range(len(clip) - 1):
            want_dy, want_dx = oracle_block_displacements(clip[i], clip[i + 1], CFG)
            np.testing.assert_array_equal(dy[i], want_dy)
            np.testing.assert_array_equal(dx[i], want_dx)

    def test_exact_tie_takes_first_candidate(self):
        # block (2, 1) of this pair ties at SAD 445 between (2, -1) and
        # (3, -1); float sums of x / 255 used to pick the later one
        clip = R.render_clip(R.scene_for_clip(1, 0, 120), 32, 48, 120, 10).frames
        cfg = M.MetricConfig()
        cands, sads = M._block_sads(clip[35:36], clip[36:37], cfg)
        ties = cands[sads[:, 0, 2, 1] == 445]
        np.testing.assert_array_equal(ties, [[2, -1], [3, -1]])
        assert sads[:, 0, 2, 1].min() == 445
        flow = M.estimate_flow(clip[35], clip[36], cfg)
        assert (flow.v[16, 8], flow.u[16, 8]) == (2.0, -1.0)

    @settings(max_examples=30, deadline=None)
    @given(frame_stacks(), st.integers(0, 2**32 - 1))
    def test_float_frames_match_their_pixel_rounding(self, case, seed):
        # float frames are read as [0, 1]: clipped, scaled by 255, rounded
        frames, _, cfg = case
        rng = np.random.default_rng(seed)
        a, b = (rng.uniform(-0.2, 1.2, frames.shape) for _ in range(2))
        got = M.estimate_flow(a, b, cfg)
        px = [np.rint(np.clip(x, 0, 1) * 255).astype(np.uint8) for x in (a, b)]
        want = M.estimate_flow(*px, cfg)
        for g, w in ((got.u, want.u), (got.v, want.v), (got.occlusion, want.occlusion)):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_to_pixels_rule(self):
        x = np.array([-0.5, 0.0, 0.5 / 255, 1.5 / 255, 0.5, 1.0, 2.0])
        np.testing.assert_array_equal(M._to_pixels(x), [0, 0, 0, 2, 128, 255, 255])
        u8 = np.arange(256, dtype=np.uint8)
        assert M._to_pixels(u8) is u8
        with pytest.raises(ContractError):
            M._to_pixels(np.array([0.5, np.nan]))

    def test_largest_exact_block(self):
        # 3 * 148**2 * 255 < 2**24 <= 3 * 149**2 * 255: larger SADs would
        # not be exact float32 integers
        f = np.full((1, 3, 148, 148), 255, dtype=np.uint8)
        _, sads = M._block_sads(f, np.zeros_like(f), M.MetricConfig(search_radius=0, block=148))
        assert sads.item() == 3 * 148 * 148 * 255
        f = np.zeros((3, 149, 149), dtype=np.uint8)
        with pytest.raises(ConfigError, match="block 149 over 3 channels"):
            M.estimate_flow(f, f, M.MetricConfig(search_radius=0, block=149))

    def test_rejects_other_ranks(self):
        with pytest.raises(ShapeError):
            M.estimate_flow(np.zeros((32, 48)), np.zeros((32, 48)), CFG)

    @pytest.mark.parametrize("channels, block", [(1, 16), (1, 17), (3, 9), (3, 10)])
    def test_sads_at_accumulator_bound(self, channels, block):
        # C * block^2 * 255: 65,280 and 61,965 fit 16 bits, 73,695 and
        # 76,500 do not; every candidate of every block reaches the bound
        a = np.full((2, channels, 2 * block, 2 * block), 255, dtype=np.uint8)
        b = np.zeros_like(a)
        cfg = M.MetricConfig(search_radius=1, block=block)
        _, sads = M._block_sads(a, b, cfg)
        bound = channels * block * block * 255
        assert sads.shape == (9, 2, 2, 2)
        assert (sads == bound).all() and (sads.astype(np.float32) == bound).all()
        for i in range(len(a)):
            np.testing.assert_array_equal(sads[:, i], oracle_sads(a[i], b[i], cfg)[1])


def rendered_video(frames, h=32, w=48):
    return R.render_clip(R.scene_for_clip(1, 0, frames), h, w, frames, 10).frames


def per_pair_metrics(video, cfg):
    """Reference for `_pair_metrics`: flow, warp RMS and mean flow norm of
    one pair at a time."""
    vid = M._to_unit(video)
    warps, norms = [], []
    for i in range(len(video) - 1):
        flow = M.estimate_flow(video[i], video[i + 1], cfg)
        norms.append(np.sqrt(flow.u**2 + flow.v**2).mean())
        one = M.FlowField(u=flow.u[None], v=flow.v[None], occlusion=flow.occlusion[None])
        sq = (vid[i] - M._warp_backward(vid[i + 1][None], one)[0]) ** 2
        valid = ~flow.occlusion
        warps.append(np.sqrt(sq[:, valid].mean()) if valid.any() else np.nan)
    return np.array(warps), np.array(norms)


class TestPairMetricsBatches:
    @pytest.mark.parametrize("h, w", [(32, 48), (36, 52), (224, 232)])
    def test_batches_equal_per_pair_flow(self, h, w, monkeypatch):
        # as many pairs per flow call as fit FLOW_BLOCKS blocks, at least
        # one; two full calls and a remainder of 3 pairs
        per_call = max(1, M.FLOW_BLOCKS // (-(-h // 8) * -(-w // 8)))
        pairs = 2 * per_call + 3
        video = rendered_video(pairs + 1, h, w)
        calls = []
        flow = M.estimate_flow
        monkeypatch.setattr(M, "estimate_flow",
                            lambda a, *r, **k: calls.append(len(a)) or flow(a, *r, **k))
        warps, norms = M._pair_metrics(video, CFG)
        monkeypatch.undo()
        full, rest = divmod(pairs, per_call)
        assert calls == [per_call] * full + ([rest] if rest else [])
        want_warps, want_norms = per_pair_metrics(video, CFG)
        assert warps.tobytes() == want_warps.tobytes()
        assert norms.tobytes() == want_norms.tobytes()

    @staticmethod
    def flow_peak(video):
        import tracemalloc

        tracemalloc.start()
        try:
            M._pair_metrics(video, CFG)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_flat_in_clip_length(self):
        # the growth is the two (pairs,) float64 outputs and the tuples that
        # Python keeps on its free lists, which tracemalloc counts: about
        # 30 KB here; one flow call over all 641 pairs would take over 100 MB
        per_call = M.FLOW_BLOCKS // 24
        short, long = (rendered_video(k * per_call + 2) for k in (2, 20))
        assert self.flow_peak(long) - self.flow_peak(short) < 256 * 1024

    def test_peak_memory_flat_in_frame_size(self):
        # 16 times the pixels, 16 times fewer pairs per call; a fixed number
        # of pairs per call would take 16 times the memory
        small = self.flow_peak(rendered_video(3 * (M.FLOW_BLOCKS // 24) + 1))
        large = self.flow_peak(rendered_video(3 * (M.FLOW_BLOCKS // 384) + 1, 128, 192))
        assert large < 1.5 * small

    def test_rejects_other_ranks(self):
        with pytest.raises(ShapeError):
            M._pair_metrics(np.zeros((4, 32, 48)), CFG)


class TestWarpError:
    def test_static_video_zero(self):
        vid = np.repeat(textured_master(32, 48)[None], 4, axis=0)
        assert M.warp_error(vid, CFG) == 0.0

    def test_tracked_translation_near_zero(self):
        vid = translating_video(5, dy=2, dx=0)
        assert M.warp_error(vid, CFG) <= 1e-6

    def test_noise_pair_closed_form(self):
        # two frames differing by independent noise, zero flow: per-element
        # difference is N(0, 2 sigma^2), so the RMS converges to sqrt(2) sigma
        rng = np.random.default_rng(1)
        sigma = 0.05
        base = rng.uniform(0.3, 0.7, size=(3, 64, 64))
        a = base + rng.normal(0, sigma, base.shape)
        b = base + rng.normal(0, sigma, base.shape)
        vid = np.stack([a, b])
        got = M.warp_error(vid, M.MetricConfig(search_radius=0, block=8))
        assert got == pytest.approx(np.sqrt(2) * sigma, rel=0.05)

    def test_fully_occluded_pairs_undefined(self):
        # one 8x8 block of noise per frame: no pair's forward and backward
        # block displacements round-trip, so every pixel is occluded
        cfg = M.MetricConfig(search_radius=2, block=8)
        vid = np.random.default_rng(1).integers(0, 256, (3, 1, 8, 8)).astype(np.uint8)
        assert M.estimate_flow(vid[:-1], vid[1:], cfg).occlusion.all()
        with pytest.raises(MetricUndefinedError, match="fully occluded"):
            M.warp_error(vid, cfg)

    @pytest.mark.parametrize("kwargs", [{"search_radius": -1}, {"block": 0}])
    def test_bad_search_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="search radius"):
            M.MetricConfig(**kwargs)


class TestOpticalFlowScore:
    def test_static_zero(self):
        vid = np.repeat(textured_master(32, 48)[None], 3, axis=0)
        assert M.optical_flow_score(vid, CFG) == 0.0

    def test_global_shift(self):
        vid = translating_video(4, dy=0, dx=2)
        assert M.optical_flow_score(vid, CFG) == pytest.approx(2.0, abs=1e-9)

    def test_alternating_shift(self):
        a = translating_video(2, dy=1, dx=0, seed=3)
        vid = np.stack([a[0], a[1], a[0], a[1]])
        assert M.optical_flow_score(vid, CFG) == pytest.approx(1.0, abs=1e-9)


class TestMawe:
    def test_formula_arithmetic(self):
        assert 19.0 / (9.5 * 1.0) == 2.0  # the combination rule mawe implements

    def test_translation_video_value(self):
        vid = translating_video(5, dy=0, dx=2)
        # exact tracking: zero warp error over positive motion -> 0
        assert M.mawe(vid, CFG) == pytest.approx(0.0, abs=1e-9)

    def test_static_video_convention(self):
        vid = np.repeat(textured_master(32, 48)[None], 3, axis=0)
        assert M.mawe(vid, CFG) == 0.0

    def test_noise_raises_mawe(self):
        rng = np.random.default_rng(2)
        clean = translating_video(6, dy=1, dx=0, seed=4).astype(np.float64) / 255.0
        noisy = np.clip(clean + rng.normal(0, 0.08, clean.shape), 0, 1)
        assert M.mawe(noisy, CFG) > M.mawe(clean, CFG)

    def test_zero_motion_nonzero_warp_undefined(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(size=(3, 32, 48))
        vid = np.stack([base, np.clip(base + rng.normal(0, 0.2, base.shape), 0, 1)])
        with pytest.raises(MetricUndefinedError):
            M.mawe(vid, M.MetricConfig(search_radius=0, block=8))

    def test_short_video_rejected(self):
        with pytest.raises(ContractError):
            M.mawe(np.zeros((1, 3, 32, 48)), CFG)


class TestFeatures:
    def test_identical_frames_identical_features(self):
        f = textured_master(32, 48, seed=5)
        vid = np.stack([f, f, f])
        feats, _ = M.video_features(vid, 42)
        assert np.all(feats[0] == feats[1]) and np.all(feats[1] == feats[2])

    def test_unit_norm(self):
        vid = np.random.default_rng(6).integers(0, 256, (4, 3, 32, 48)).astype(np.uint8)
        feats, _ = M.video_features(vid, 42)
        np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-6)

    def test_bit_identical_across_runs(self):
        vid = np.random.default_rng(7).integers(0, 256, (2, 3, 32, 48)).astype(np.uint8)
        a, sa = M.video_features(vid, 42)
        b, sb = M.video_features(vid, 42)
        assert a.tobytes() == b.tobytes() and sa.tobytes() == sb.tobytes()

    def test_stacks_per_sixteen_frames(self):
        vid = np.zeros((40, 3, 32, 48), dtype=np.uint8)
        _, stacks = M.video_features(vid, 42)
        assert stacks.shape[0] == 2

    def test_extractor_checksum_frozen(self):
        assert M.extractor_checksum(3, M.MetricConfig().feature_seed) == EXTRACTOR_CHECKSUM


# regression pin: the fixed-seed feature network must never change
EXTRACTOR_CHECKSUM = "70030908-e7df101e"


def oracle_gradients(x):
    """The gradient planes before they were written into a padded buffer, as
    reference: np.diff, concatenate, then layer 1's zero padding."""
    gy = np.diff(x, axis=2, append=x[:, :, -1:, :])
    gx = np.diff(x, axis=3, append=x[:, :, :, -1:])
    g = np.concatenate([gy, gx], axis=1)
    return np.pad(g, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="constant")


def oracle_conv_s2(xp, w, b):
    """The einsum convolution `_conv_s2` replaced, as reference: padded
    (N, C, H + 2, W + 2) input, (N, O, h, w) output."""
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))[:, :, ::2, ::2]
    out = np.einsum("bchwij,ocij->bohw", windows, w.reshape(len(w), -1, 3, 3), optimize=True)
    return out + b[None, :, None, None]


def oracle_stats(net, g):
    """`_stats` before its one-GEMM convolutions, as reference: frame-major
    einsum convolutions, each later layer's input padded by `np.pad`."""
    stats = []
    x = g
    for i, (w, b) in enumerate(net.weights):
        if i:
            x = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="constant")
        x = oracle_conv_s2(x, w, b)
        if i < len(net.weights) - 1:
            x = np.maximum(x, 0.0)
        stats.append(x.mean(axis=(2, 3)))
        stats.append(x.std(axis=(2, 3)))
    return np.concatenate(stats, axis=1)


def oracle_features(net, batch, stats=None):
    """The one-shot feature net the batched call replaced, as reference: the
    whole (N, C, H, W) batch through `oracle_gradients` and `stats` (by
    default `oracle_stats`) at once."""
    stats = stats or (lambda g: oracle_stats(net, g))
    x = M._to_unit(batch)
    zero = np.zeros((1, 2 * net.channels, x.shape[2] + 2, x.shape[3] + 2))
    feats = stats(oracle_gradients(x)) - stats(zero)[0][None, :]
    hom = np.full((feats.shape[0], 1), net.HOMOGENEOUS)
    feats = np.concatenate([feats, hom], axis=1)
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    return feats / np.maximum(norms, 1e-12)


def oracle_video_features(video, seed):
    vid = M._to_unit(video)
    k, c = vid.shape[0] // M.STACK_LEN, vid.shape[1]
    stacked = vid[:k * M.STACK_LEN].reshape(k, M.STACK_LEN * c, *vid.shape[2:])
    return (oracle_features(M._net(c, seed), vid),
            oracle_features(M._net(M.STACK_LEN * c, seed), stacked))


# frame sizes at which every batched conv GEMM rounds like the one-shot one,
# the data default 32x48 among them (all of 1-70 frames checked with
# OpenBLAS 0.3.31 at 1 and 2 threads)
BIT_EQUAL_SIZES = [(32, 48), (32, 32), (16, 64), (64, 48), (40, 60)]


@st.composite
def feature_videos(draw, sizes=None):
    """Videos of 1-70 frames (0 to 4 stacks), uint8 or unit-range float."""
    h, w = draw(st.sampled_from(sizes)) if sizes else (draw(st.integers(4, 40)),
                                                       draw(st.integers(4, 40)))
    shape = (draw(st.integers(1, 70)), draw(st.sampled_from([1, 3])), h, w)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["uint8", "float64"])) == "uint8":
        return rng.integers(0, 256, shape).astype(np.uint8)
    return rng.random(shape)


class TestBatchedFeatures:
    @settings(max_examples=30, deadline=None)
    @given(feature_videos(BIT_EQUAL_SIZES))
    def test_equals_one_shot_oracle(self, video):
        got = M.video_features(video, 42)
        want = oracle_video_features(video, 42)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
            if len(w):  # the callers' reductions sum in an order set by the layout
                assert g.strides == w.strides

    @settings(max_examples=30, deadline=None)
    @given(feature_videos())
    def test_other_sizes_within_one_rounding(self, video):
        # at other sizes BLAS may pick a different kernel for a narrower
        # GEMM; unit-norm features then move by at most about one ulp
        got = M.video_features(video, 42)
        want = oracle_video_features(video, 42)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-15)
            if len(w):
                assert g.strides == w.strides

    def test_peak_memory_flat_in_clip_length(self):
        import tracemalloc

        def peak(frames):
            video = np.random.default_rng(0).integers(0, 256, (frames, 3, 32, 48)).astype(np.uint8)
            M.video_features(video[:1], 42)  # build the nets and anchors outside the trace
            tracemalloc.start()
            try:
                M.video_features(video, 42)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the only growth is the (L, 225) float64 features and their copies;
        # the one-shot net grew by about 200 MB over these 432 frames
        assert peak(480) - peak(48) < 4 * 432 * 225 * 8


@st.composite
def gradient_batches(draw):
    """(net, batch): 1-5 frames or 16-frame stacks at odd H and W, uint8 or
    unit-range float."""
    c = draw(st.sampled_from([1, 3]))
    if draw(st.booleans()):
        c *= M.STACK_LEN
    shape = (draw(st.integers(1, 5)), c, draw(st.integers(0, 20)) * 2 + 1,
             draw(st.integers(0, 20)) * 2 + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return M._net(c, 42), rng.integers(0, 256, shape).astype(np.uint8)
    return M._net(c, 42), rng.random(shape)


class TestGemmConvolution:
    @settings(max_examples=40, deadline=None)
    @given(gradient_batches())
    def test_stats_equal_einsum_reference(self, case):
        # bit-equal while every layer output is wider than 1x1; at a 1x1
        # output the einsum handed BLAS a transposed operand, which can
        # round the other way
        net, batch = case
        g = net._gradients(M._to_unit(batch))
        got, want = net._stats(g), oracle_stats(net, g)
        h, w = batch.shape[2:]
        if h > 8 or w > 8:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_weights_are_gemm_operands(self):
        net = M._net(3, 42)
        c_in = 6
        for (w, b), c_out in zip(net.weights, net.WIDTHS):
            assert w.shape == (c_out, 9 * c_in) and w.flags.c_contiguous and b.shape == (c_out,)
            c_in = c_out


class TestPaddedGradients:
    @settings(max_examples=40, deadline=None)
    @given(gradient_batches())
    def test_equal_diff_concatenate_pad(self, case):
        net, batch = case
        x = M._to_unit(batch)
        assert net._gradients(x).tobytes() == oracle_gradients(x).tobytes()
        # one net call on the whole batch, as the oracle makes it, through the
        # net's own `_stats` (TestGemmConvolution checks those against the
        # einsum reference)
        got, want = net(batch, rows=len(batch)), oracle_features(net, batch, net._stats)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.strides == want.strides

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_frames_rejected(self, bad):
        video = np.full((2, 3, 9, 11), 0.5)
        video[1, 2, 8, 10] = bad
        with pytest.raises(ContractError, match="finite"):
            M.video_features(video, 42)


class TestBackgroundConsistency:
    def test_constant_video(self):
        vid = np.repeat(textured_master(32, 48, seed=8)[None], 5, axis=0)
        assert M.background_consistency(vid, CFG) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_two_frames(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert M.background_consistency_from_features(feats) == 0.0

    def test_noise_never_helps(self):
        rng = np.random.default_rng(9)
        wins = 0
        trials = 20
        for k in range(trials):
            base = np.repeat(rng.uniform(size=(1, 3, 32, 48)), 6, axis=0)
            noisy = np.clip(base + rng.normal(0, 0.3, base.shape), 0, 1)
            if M.background_consistency(noisy, CFG) <= M.background_consistency(base, CFG):
                wins += 1
        assert wins >= 0.95 * trials


class TestFrechet:
    def test_identical_stats(self):
        feats = np.random.default_rng(10).normal(size=(20, 6))
        s = M.feature_stats(feats)
        assert M.frechet_distance(s, s) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("shape", [(6,), (0, 6), (2, 3, 6)])
    def test_features_not_a_sample_matrix(self, shape):
        with pytest.raises(ContractError, match="feature matrix"):
            M.feature_stats(np.zeros(shape))

    def test_one_dimensional_mean_shift(self):
        a = M.FeatureStats(mu=np.array([0.0]), sigma=np.array([[1.0]]))
        b = M.FeatureStats(mu=np.array([1.0]), sigma=np.array([[1.0]]))
        assert M.frechet_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_one_dimensional_variance_shift(self):
        a = M.FeatureStats(mu=np.zeros(1), sigma=np.array([[1.0]]))
        b = M.FeatureStats(mu=np.zeros(1), sigma=np.array([[4.0]]))
        # sigma = 1 vs 2: d^2 = (1 - 2)^2 = 1
        assert M.frechet_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            fa = rng.normal(size=(12, 5))
            fb = rng.normal(size=(15, 5))
            a, b = M.feature_stats(fa), M.feature_stats(fb)
            d_ab = M.frechet_distance(a, b)
            d_ba = M.frechet_distance(b, a)
            assert d_ab >= 0
            assert d_ab == pytest.approx(d_ba, rel=1e-8, abs=1e-10)

    def test_dimension_mismatch(self):
        a = M.FeatureStats(mu=np.zeros(2), sigma=np.eye(2))
        b = M.FeatureStats(mu=np.zeros(3), sigma=np.eye(3))
        with pytest.raises(ShapeError):
            M.frechet_distance(a, b)


def mp_frechet(fa, fb):
    """Squared Frechet distance of two sample sets' Gaussian fits at 50
    digits: tr (S_a S_b)^{1/2} from the eigenvalues of X S_b X.T, for X any
    root of S_a (X.T X = S_a), here the centred samples of `fa` when they are
    fewer than D and the symmetric square root of S_a otherwise."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 50

    def centred(f):
        x = mp.matrix(f.tolist())
        mu = [mp.fsum(x[i, j] for i in range(x.rows)) / x.rows for j in range(x.cols)]
        return mu, mp.matrix([[x[i, j] - mu[j] for j in range(x.cols)] for i in range(x.rows)])

    (mu_a, xa), (mu_b, xb) = centred(fa), centred(fb)
    s_a, s_b = xa.T * xa / (xa.rows - 1), xb.T * xb / (xb.rows - 1)
    if xa.rows <= xa.cols:
        root = xa / mp.sqrt(xa.rows - 1)
    else:
        vals, vecs = mp.eigsy(s_a)
        root = vecs * mp.diag([mp.sqrt(max(v, 0)) for v in vals]) * vecs.T
    vals, _ = mp.eigsy(root * s_b * root.T)
    d = len(mu_a)
    return (mp.fsum((mu_a[j] - mu_b[j]) ** 2 for j in range(d))
            + mp.fsum(s_a[j, j] + s_b[j, j] for j in range(d))
            - 2 * mp.fsum(mp.sqrt(max(v, 0)) for v in vals))


class TestCovarianceRoots:
    @pytest.mark.parametrize("n_a, n_b, d", [(8, 60, 40), (60, 50, 8)])
    def test_equals_fifty_digit_oracle(self, n_a, n_b, d):
        # the first pair is rank-deficient on both sides (7 and 39 of 40)
        rng = np.random.default_rng(17)
        fa, fb = rng.normal(size=(n_a, d)), rng.normal(0.3, 1.2, size=(n_b, d))
        want = mp_frechet(fa, fb)
        got = M.frechet_distance(M.feature_stats(fa), M.feature_stats(fb))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_root_is_at_most_d_by_d(self):
        rng = np.random.default_rng(18)
        assert M.feature_stats(rng.normal(size=(7, 5))).root.shape == (5, 5)
        assert M.feature_stats(rng.normal(size=(4, 5))).root.shape == (4, 5)

    def test_single_sample(self):
        f = np.random.default_rng(19).normal(size=(1, 6))
        s = M.feature_stats(f)
        assert np.all(s.mu == f[0]) and not s.root.any()
        other = M.feature_stats(np.random.default_rng(20).normal(size=(9, 6)))
        # a point mass against a Gaussian: |mu_a - mu_b|^2 + tr S_b
        want = np.sum((f[0] - other.mu) ** 2) + np.trace(other.root.T @ other.root)
        assert M.frechet_distance(s, other) == pytest.approx(want, rel=1e-12)
        assert M.frechet_distance(s, s) == 0.0

    def test_sigma_becomes_its_symmetric_root(self):
        rng = np.random.default_rng(21)
        f = rng.normal(size=(30, 4))
        sigma = np.cov(f, rowvar=False)
        s = M.FeatureStats(mu=f.mean(axis=0), sigma=sigma)
        np.testing.assert_allclose(s.root, s.root.T, atol=1e-15)
        np.testing.assert_allclose(s.root.T @ s.root, sigma, atol=1e-14)
        assert M.frechet_distance(s, M.feature_stats(f)) == pytest.approx(0.0, abs=1e-12)

    def test_non_psd_sigma_rejected(self):
        with pytest.raises(ContractError, match="eigenvalue"):
            M.FeatureStats(mu=np.zeros(2), sigma=np.array([[1.0, 0.0], [0.0, -0.5]]))

    @pytest.mark.parametrize("kwargs", [{}, {"sigma": np.eye(2), "root": np.eye(2)}])
    def test_exactly_one_of_sigma_and_root(self, kwargs):
        with pytest.raises(ContractError, match="exactly one"):
            M.FeatureStats(mu=np.zeros(2), **kwargs)

    def test_sample_stats_run_no_eigh(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called")
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        rng = np.random.default_rng(22)
        a, b = M.feature_stats(rng.normal(size=(40, 12))), M.feature_stats(rng.normal(size=(8, 12)))
        assert M.frechet_distance(a, b) > 0


class TestWindowedCurves:
    def _ref_stats(self, rng):
        vids = rng.integers(0, 256, (3, 40, 3, 32, 48)).astype(np.uint8)
        frame_feats = []
        stack_feats = []
        for v in vids:
            f, s = M.video_features(v, CFG.feature_seed)
            frame_feats.append(f)
            stack_feats.append(s)
        return (M.feature_stats(np.concatenate(frame_feats)),
                M.feature_stats(np.concatenate(stack_feats)))

    def test_three_marks_on_120_frames(self):
        rng = np.random.default_rng(12)
        ref_f, ref_s = self._ref_stats(rng)
        vid = rng.integers(0, 256, (120, 3, 32, 48)).astype(np.uint8)
        curves = M.windowed_curves(vid, CFG, ref_f, ref_s)
        assert [p["frame"] for p in curves] == [40, 80, 120]
        for p in curves:
            assert np.isfinite(p["fid_proxy"]) and np.isfinite(p["fvd_proxy"])
            assert np.isfinite(p["mawe"]) and np.isfinite(p["background_consistency"])

    def test_constant_video_consistency_one(self):
        rng = np.random.default_rng(13)
        ref_f, ref_s = self._ref_stats(rng)
        vid = np.repeat(textured_master(32, 48, seed=14)[None], 80, axis=0)
        curves = M.windowed_curves(vid, CFG, ref_f, ref_s)
        for p in curves:
            assert p["background_consistency"] == pytest.approx(1.0, abs=1e-9)

    def test_marks_partition_without_overlap(self):
        marks = [p for p in range(40, 121, 40)]
        windows = [(m - 40, m) for m in marks]
        flat = [i for lo, hi in windows for i in range(lo, hi)]
        assert flat == list(range(120))

    def test_short_video_fits_fewer_marks(self):
        rng = np.random.default_rng(15)
        ref_f, ref_s = self._ref_stats(rng)
        vid = rng.integers(0, 256, (100, 3, 32, 48)).astype(np.uint8)
        curves = M.windowed_curves(vid, CFG, ref_f, ref_s)
        assert [p["frame"] for p in curves] == [40, 80]
        with pytest.raises(ContractError, match="below one window"):
            M.windowed_curves(vid[:CFG.window - 1], CFG, ref_f, ref_s)

    def test_one_pass_equals_per_window_definitions(self):
        # 40-frame windows straddle the clip's 16-frame stacks
        rng = np.random.default_rng(16)
        ref_f, ref_s = self._ref_stats(rng)
        vid = R.render_clip(R.scene_for_clip(1, 0, 80), 32, 48, 80, 10).frames
        values, _, _ = M.clip_metrics(
            vid, CFG, ("mawe", "warp_error", "optical_flow_score", "curves"), ref_f, ref_s)
        assert values["mawe"] == M.mawe(vid, CFG)
        assert values["warp_error"] == M.warp_error(vid, CFG)
        assert values["optical_flow_score"] == M.optical_flow_score(vid, CFG)
        assert [p["frame"] for p in values["curves"]] == [40, 80]
        for p in values["curves"]:
            chunk = vid[p["frame"] - CFG.window:p["frame"]]
            frame_feats, stack_feats = M.video_features(chunk, CFG.feature_seed)
            assert p == {
                "frame": p["frame"],
                "fid_proxy": M.frechet_distance(M.feature_stats(frame_feats), ref_f),
                "mawe": M.mawe(chunk, CFG),
                "background_consistency":
                    M.background_consistency_from_features(frame_feats),
                "fvd_proxy": M.frechet_distance(M.feature_stats(stack_feats), ref_s),
            }
