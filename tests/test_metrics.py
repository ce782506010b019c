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
    """The per-pair block matching the batched pass replaced, as reference:
    (sorted candidates, (K, nby, nbx) SADs) of one (C, H, W) float pair,
    each SAD summed by numpy over the block's (C, bs, bs) differences."""
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
    sads = np.empty((len(cands), nby, nbx))
    for i, (dy, dx) in enumerate(cands):
        shifted = bp[:, r + dy:r + dy + hh, r + dx:r + dx + ww]
        diff = np.abs(a_blocks - shifted.reshape(c, nby, bs, nbx, bs))
        sads[i] = diff.sum(axis=(0, 2, 4))
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
        a, b, cfg = case
        a, b = M._to_unit(a), M._to_unit(b)
        cands, sads = M._block_sads(a, b, cfg)
        dy, dx = M._block_displacements(a, b, cfg)
        for i in range(len(a)):
            want_cands, want_sads = oracle_sads(a[i], b[i], cfg)
            np.testing.assert_array_equal(cands, want_cands)
            assert sads[:, i].tobytes() == want_sads.tobytes()  # same summation order
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
        # flat road and sky regions give many exact SAD ties; the last bit of
        # each sum decides them
        clip = M._to_unit(R.render_clip(R.scene_for_clip(1, 0, 10), 32, 48, 10, 10).frames)
        dy, dx = M._block_displacements(clip[:-1], clip[1:], CFG)
        for i in range(len(clip) - 1):
            want_dy, want_dx = oracle_block_displacements(clip[i], clip[i + 1], CFG)
            np.testing.assert_array_equal(dy[i], want_dy)
            np.testing.assert_array_equal(dx[i], want_dx)

    def test_rejects_other_ranks(self):
        with pytest.raises(ShapeError):
            M.estimate_flow(np.zeros((32, 48)), np.zeros((32, 48)), CFG)


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


def oracle_features(net, batch):
    """The one-shot feature net the batched call replaced, as reference: the
    whole (N, C, H, W) batch through `_gradients` and `_stats` at once."""
    x = M._to_unit(batch)
    hw = (x.shape[2], x.shape[3])
    zero = np.zeros((1, 2 * net.channels) + hw)
    feats = net._stats(net._gradients(x)) - net._stats(zero)[0][None, :]
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
