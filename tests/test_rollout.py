import numpy as np
import pytest

from longroad import backbone as B
from longroad import diffusion as D
from longroad import rollout as RO
from longroad import toyroad as R
from longroad.errors import ContractError
from longroad.tensor import Tensor


def tiny_model(channels=1, seed=0):
    cfg = B.ModelConfig(depth=1, hidden=8, heads=2, patch=2, channels=channels,
                        t_max=20, text_vocab=8, max_original_index=512)
    return B.VideoDenoiser(cfg, np.random.default_rng(seed))


SCHED = D.build_schedule(20, 1e-3, 0.05)


def settings(l, steps=3):
    return RO.SamplerSettings(l_window=l, steps=steps)


class TestInit:
    def test_basic(self):
        cond = np.zeros((8, 1, 8, 8), dtype=np.float32)
        state = RO.init(cond, fps=10)
        assert state.frames.shape[0] == 8

    def test_empty_condition_rejected(self):
        with pytest.raises(ContractError):
            RO.init(np.zeros((0, 1, 8, 8), dtype=np.float32), fps=10)

    def test_purity(self):
        cond = np.ones((2, 1, 8, 8), dtype=np.float32)
        state = RO.init(cond, fps=10)
        cond[:] = 5.0
        assert np.all(state.frames == 1.0)


class TestStep:
    def test_adds_l_minus_m_frames(self):
        model = tiny_model()
        state = RO.init(np.zeros((8, 1, 8, 8), dtype=np.float32), fps=10)
        out = RO.step(state, model, SCHED, None, settings(32), np.random.default_rng(0))
        assert out.frames.shape[0] == 32

    def test_memory_pinning_bit_equal(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        state = RO.init(rng.uniform(-1, 1, (4, 1, 8, 8)).astype(np.float32), fps=10)
        out = RO.step(state, model, SCHED, None, settings(8), np.random.default_rng(2))
        assert out.frames[:4].tobytes() == state.frames.tobytes()

    def test_determinism(self):
        model = tiny_model()
        init_frames = np.random.default_rng(3).uniform(-1, 1, (4, 1, 8, 8)).astype(np.float32)
        a = RO.step(RO.init(init_frames, 10), model, SCHED, None, settings(8),
                    np.random.default_rng(7))
        b = RO.step(RO.init(init_frames, 10), model, SCHED, None, settings(8),
                    np.random.default_rng(7))
        assert a.frames.tobytes() == b.frames.tobytes()

    def test_window_must_exceed_memory(self):
        model = tiny_model()
        state = RO.init(np.zeros((8, 1, 8, 8), dtype=np.float32), fps=10)
        with pytest.raises(ContractError):
            RO.step(state, model, SCHED, None, settings(8), np.random.default_rng(0))


class TestRun:
    @pytest.mark.parametrize("m,l,k,total", [(8, 32, 1, 32), (8, 32, 3, 80),
                                             (16, 128, 12, 1360)])
    def test_frame_count_law(self, m, l, k, total):
        model = tiny_model()
        state = RO.init(np.zeros((m, 1, 8, 8), dtype=np.float32), fps=10)
        frames = RO.run(state, model, SCHED, None, settings(l, steps=2),
                        k, np.random.default_rng(0))
        assert frames.shape[0] == m + k * (l - m) == total

    def test_minute_scale_duration(self):
        # 12 iterations of a 128-frame window with 16 memory frames at 10 Hz
        # lands at 136 s of video
        assert (16 + 12 * (128 - 16)) / 10 == pytest.approx(136.0)

    def test_zero_iterations_returns_condition(self):
        state = RO.init(np.ones((4, 1, 8, 8), dtype=np.float32), fps=10)
        frames = RO.run(state, tiny_model(), SCHED, None, settings(8), 0,
                        np.random.default_rng(0))
        assert frames.shape[0] == 4 and np.all(frames == 1.0)

    def test_append_only(self):
        model = tiny_model()
        state = RO.init(np.random.default_rng(5).uniform(-1, 1, (4, 1, 8, 8)).astype(np.float32), 10)
        rng = np.random.default_rng(6)
        s1 = RO.step(state, model, SCHED, None, settings(8), rng)
        s2 = RO.step(s1, model, SCHED, None, settings(8), rng)
        assert s2.frames[:8].tobytes() == s1.frames.tobytes()


class TestDiversity:
    def test_seeds_share_memory_then_differ(self):
        model = tiny_model()
        cond = np.random.default_rng(8).uniform(-1, 1, (4, 1, 8, 8)).astype(np.float32)
        a = RO.run(RO.init(cond, 10), model, SCHED, None, settings(8), 2,
                   np.random.default_rng(100))
        b = RO.run(RO.init(cond, 10), model, SCHED, None, settings(8), 2,
                   np.random.default_rng(200))
        assert a[:4].tobytes() == b[:4].tobytes()
        assert a[4:].tobytes() != b[4:].tobytes()


class TestBootstrap:
    def test_counts_as_one_iteration(self):
        model = tiny_model()
        state = RO.bootstrap(model, SCHED, None, settings(8), m_memory=2,
                             frame_shape=(1, 8, 8), fps=10, rng=np.random.default_rng(0))
        assert state.frames.shape[0] == 8
        frames = RO.run(state, model, SCHED, None, settings(8), 2, np.random.default_rng(1))
        # law: M + k (L - M) with k = 3 including the bootstrap chunk
        assert frames.shape[0] == 2 + 3 * 6

    def test_empty_buffer_starts_with_a_whole_clip(self):
        # the first chunk from an empty buffer is the M = 0 sample of the
        # same rng; later chunks add L - M frames
        model = tiny_model()
        empty = RO.RolloutState(frames=np.empty((0, 1, 8, 8), np.float32), m_memory=2,
                                fps=10)
        got = list(RO.chunks(empty, model, SCHED, None, settings(8), 3,
                             np.random.default_rng(4)))
        assert [len(c) for c in got] == [8, 6, 6]
        want = D.sample_clip(model, np.empty((0, 1, 8, 8), np.float32), D.FramePartition(8, 0),
                             SCHED, 3, np.random.default_rng(4), plan=B.RopePlan(np.arange(8)))
        assert got[0].tobytes() == want.tobytes()
        boot = RO.bootstrap(model, SCHED, None, settings(8), 2, (1, 8, 8), 10,
                            np.random.default_rng(4))
        assert boot.frames.tobytes() == want.tobytes()

    def test_buffer_shorter_than_memory_rejected(self):
        short = RO.RolloutState(frames=np.zeros((1, 1, 8, 8), np.float32), m_memory=2,
                                fps=10)
        with pytest.raises(ContractError, match="shorter than the memory window"):
            next(RO.chunks(short, tiny_model(), SCHED, None, settings(8), 1,
                           np.random.default_rng(0)))

    def test_negative_iteration_count_rejected(self):
        state = RO.init(np.zeros((2, 1, 8, 8), np.float32), fps=10)
        with pytest.raises(ContractError, match="iteration count"):
            next(RO.chunks(state, tiny_model(), SCHED, None, settings(8), -1,
                           np.random.default_rng(0)))

    def test_sampler_that_moves_memory_rejected(self, monkeypatch):
        def unpinned(model, memory, partition, *args, **kw):
            return np.full((partition.l_total,) + memory.shape[1:], 0.5, memory.dtype)

        monkeypatch.setattr(RO, "sample_clip", unpinned)
        state = RO.init(np.zeros((2, 1, 8, 8), np.float32), fps=10)
        with pytest.raises(ContractError, match="pinning"):
            next(RO.chunks(state, tiny_model(), SCHED, None, settings(8), 1,
                           np.random.default_rng(0)))


class _ContinuationOracle:
    """Denoiser stub that knows the true scene continuation; infers which
    chunk it is being asked about from its call count."""

    def __init__(self, gt, schedule, l_window, m_memory, steps):
        self.gt = gt
        self.schedule = schedule
        self.l = l_window
        self.m = m_memory
        self.steps = steps
        self.calls = 0

    def forward(self, xt, t_vec, cond, plan):
        chunk = self.calls // self.steps
        self.calls += 1
        start = chunk * (self.l - self.m)
        x0 = self.gt[start:start + self.l]
        abar = self.schedule.alpha_bar[np.asarray(t_vec)].reshape(-1, 1, 1, 1)
        safe = np.maximum(1.0 - abar, 1e-12)
        eps = np.where(abar == 1.0, 0.0, (xt - np.sqrt(abar) * x0) / np.sqrt(safe))
        return D.DenoisePrediction(Tensor(eps.astype(np.float64)),
                                   Tensor(np.zeros_like(eps)))


class TestOracleDrift:
    def test_pinning_prevents_compounding(self):
        # with an exact denoiser on a deterministic scene, rollout error stays
        # at single-chunk sampling error instead of accumulating
        spec = R.random_scene(np.random.default_rng(1), 40)
        gt = R.to_model_space(R.render_clip(spec, 16, 24, 40, 10).frames).astype(np.float64)
        l, m, k, steps = 8, 2, 5, 20
        sched = D.build_schedule(20, 1e-3, 0.05)
        oracle = _ContinuationOracle(gt, sched, l, m, steps)
        state = RO.init(gt[:m], fps=10)
        frames = RO.run(state, oracle, sched, None,
                        RO.SamplerSettings(l_window=l, steps=steps), k,
                        np.random.default_rng(3))
        total = m + k * (l - m)
        drift = float(np.mean((frames - gt[:total]) ** 2))
        assert drift <= 1e-6
