import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from longroad import backbone as B
from longroad import diffusion as D
from longroad import tensor as T
from longroad.errors import ConfigError, ContractError
from longroad.tensor import Tensor


def cumprod_oracle(betas):
    """Independent running product, float64, no numpy cumprod."""
    out = [1.0]
    acc = 1.0
    for b in betas:
        acc *= 1.0 - b
        out.append(acc)
    return np.array(out)


class TestSchedule:
    def test_matches_cumulative_product_oracle(self):
        s = D.build_schedule(1000, 1e-4, 0.02)
        oracle = cumprod_oracle(np.linspace(1e-4, 0.02, 1000))
        np.testing.assert_allclose(s.alpha_bar, oracle, rtol=0, atol=1e-12)
        assert s.alpha_bar[1] == pytest.approx(0.9999, abs=1e-12)

    def test_terminal_alpha_bar(self):
        s = D.build_schedule(1000, 1e-4, 0.02)
        oracle = cumprod_oracle(np.linspace(1e-4, 0.02, 1000))[-1]
        assert abs(s.alpha_bar[1000] - oracle) < 1e-12
        assert s.alpha_bar[1000] == pytest.approx(4.04e-5, abs=1e-7)

    def test_single_step(self):
        s = D.build_schedule(1, 0.5, 0.5)
        assert s.alpha_bar[1] == 0.5

    def test_invariants(self):
        s = D.build_schedule(100, 1e-3, 0.05)
        assert s.alpha_bar[0] == 1.0
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert np.all((s.alpha_bar > 0) & (s.alpha_bar <= 1.0))
        assert np.all(np.diff(s.beta[1:]) >= 0)

    @pytest.mark.parametrize("args", [(0, 1e-4, 0.02), (10, 0.0, 0.02),
                                      (10, 0.5, 0.1), (10, 0.5, 1.0)])
    def test_invalid_bounds(self, args):
        with pytest.raises(ConfigError):
            D.build_schedule(*args)


class TestNoiseFrames:
    def setup_method(self):
        self.sched = D.build_schedule(1000, 1e-4, 0.02)
        self.rng = np.random.default_rng(0)

    def test_all_zero_t_is_identity(self):
        x0 = self.rng.normal(size=(4, 3, 2, 2)).astype(np.float32)
        part = D.FramePartition(4, 3)
        t = np.zeros(4, dtype=np.int64)
        xt = D.noise_frames(x0, part, t, np.zeros((1, 3, 2, 2), np.float32), self.sched)
        assert xt.tobytes() == x0.tobytes()

    def test_zero_signal(self):
        x0 = np.zeros((2, 1, 2, 2), dtype=np.float64)
        part = D.FramePartition(2, 0)
        t = np.array([300, 700])
        eps = self.rng.normal(size=(2, 1, 2, 2))
        xt = D.noise_frames(x0, part, t, eps, self.sched)
        expect = np.sqrt(1 - self.sched.alpha_bar[t]).reshape(2, 1, 1, 1) * eps
        np.testing.assert_allclose(xt, expect, atol=1e-12)

    def test_scalar_instance(self):
        # one step with beta = 0.75 puts alpha_bar at 0.25
        sched = D.NoiseSchedule(np.array([0.75]))
        x0 = np.ones((1, 1, 1, 1))
        eps = np.ones((1, 1, 1, 1))
        xt = D.noise_frames(x0, D.FramePartition(1, 0), np.array([1]), eps, sched)
        assert xt.reshape(()) == pytest.approx(0.5 + math.sqrt(0.75), abs=1e-12)
        assert xt.reshape(()) == pytest.approx(1.3660, abs=1e-4)

    def test_memory_rows_bit_equal(self):
        for trial in range(20):
            rng = np.random.default_rng(trial)
            l = int(rng.integers(2, 9))
            m = int(rng.integers(1, l))
            part = D.FramePartition(l, m)
            x0 = rng.normal(size=(l, 3, 4, 4)).astype(np.float32)
            batch = D.make_batch(x0, part, self.sched, rng)
            assert batch.xt[:m].tobytes() == x0[:m].tobytes()
            assert np.all(batch.t[:m] == 0) and np.all(batch.t[m:] >= 1)

    def test_positive_t_on_memory_rejected(self):
        x0 = np.zeros((3, 1, 2, 2), dtype=np.float32)
        part = D.FramePartition(3, 2)
        with pytest.raises(ContractError):
            D.noise_frames(x0, part, np.array([0, 5, 5]), np.zeros((1, 1, 2, 2), np.float32), self.sched)

    def test_t_out_of_range_rejected(self):
        x0 = np.zeros((2, 1, 2, 2), dtype=np.float32)
        part = D.FramePartition(2, 1)
        with pytest.raises(ContractError):
            D.noise_frames(x0, part, np.array([0, 1001]), np.zeros((1, 1, 2, 2), np.float32), self.sched)


class TestTimestepSampling:
    def test_mask_structure(self):
        t = D.sample_timesteps(np.random.default_rng(1), D.FramePartition(4, 2), 1000)
        assert t[0] == 0 and t[1] == 0
        assert t[2] == t[3] and 1 <= t[2] <= 1000

    def test_no_memory_no_zeros(self):
        t = D.sample_timesteps(np.random.default_rng(2), D.FramePartition(3, 0), 1000)
        assert np.all(t >= 1)

    def test_uniformity_chi_square(self):
        rng = np.random.default_rng(3)
        part = D.FramePartition(2, 1)
        n, bins = 100_000, 50
        draws = np.array([D.sample_timesteps(rng, part, 1000)[1] for _ in range(n)])
        counts, _ = np.histogram(draws, bins=bins, range=(0.5, 1000.5))
        _, p = stats.chisquare(counts)
        assert p > 0.01


class TestWeights:
    def test_lambda_zero(self):
        assert D.memory_weight(0.7, 0.0) == 1.0

    def test_half_life(self):
        assert D.memory_weight(1.0, math.log(2)) == pytest.approx(0.5, abs=1e-15)

    def test_exponential_value(self):
        assert D.memory_weight(0.5, 2.0) == pytest.approx(math.exp(-1), abs=1e-12)
        assert D.memory_weight(0.5, 2.0) == pytest.approx(0.367879, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ContractError):
            D.memory_weight(1.5, 1.0)
        with pytest.raises(ContractError):
            D.memory_weight(0.5, -1.0)

    def test_weight_law_float64(self):
        part = D.FramePartition(10, 4)
        lw = D.loss_weights_for(part, 2.0)
        t_norm = np.arange(6) / 5.0
        np.testing.assert_array_equal(lw.weights, np.exp(-2.0 * t_norm))
        assert lw.weights[0] == 1.0
        assert np.argmax(lw.weights) == 0

    def test_single_future_frame(self):
        lw = D.loss_weights_for(D.FramePartition(5, 4), 3.0)
        np.testing.assert_array_equal(lw.weights, [1.0])


class TestMseLoss:
    def test_zero(self):
        e = np.random.default_rng(0).normal(size=(2, 1, 2, 2))
        assert np.all(D.mse_loss(e, Tensor(e)).data == 0)

    def test_unit(self):
        e = np.ones((1, 2, 2, 2))
        out = D.mse_loss(e, Tensor(np.zeros((1, 2, 2, 2))))
        assert out.data.tolist() == [1.0]

    def test_hand_computation(self):
        eps = np.array([1.0, 3.0]).reshape(1, 2, 1, 1)
        eps_hat = np.array([0.0, 1.0]).reshape(1, 2, 1, 1)
        assert D.mse_loss(eps, Tensor(eps_hat)).data.tolist() == [2.5]


class TestPosterior:
    def test_t1_pins_to_x0(self):
        s = D.build_schedule(50, 1e-3, 0.05)
        x0_hat = np.random.default_rng(0).normal(size=(2, 3))
        xt = np.random.default_rng(1).normal(size=(2, 3))
        mu, var = D.posterior_params(x0_hat, xt, 1, s)
        np.testing.assert_allclose(mu, x0_hat, atol=1e-12)
        assert var == 0.0

    def test_coefficients_sum_to_one_at_t1(self):
        s = D.build_schedule(50, 1e-3, 0.05)
        xt = np.random.default_rng(2).normal(size=(4,))
        mu, _ = D.posterior_params(xt, xt, 1, s)
        np.testing.assert_allclose(mu, xt, atol=1e-12)

    def test_hand_computed_t2(self):
        s = D.NoiseSchedule(np.array([0.1, 0.1]))
        x0_hat = np.array([2.0])
        xt = np.array([1.0])
        mu, var = D.posterior_params(x0_hat, xt, 2, s)
        abar1, abar2, a2, b2 = 0.9, 0.81, 0.9, 0.1
        c0 = math.sqrt(abar1) * b2 / (1 - abar2)
        c1 = math.sqrt(a2) * (1 - abar1) / (1 - abar2)
        assert mu[0] == pytest.approx(c0 * 2.0 + c1 * 1.0, abs=1e-12)
        assert var == pytest.approx(0.1 * (1 - 0.9) / (1 - 0.81), abs=1e-12)
        assert var == pytest.approx(0.0526, abs=1e-4)

    def test_t0_rejected(self):
        s = D.build_schedule(10, 1e-3, 0.05)
        with pytest.raises(ContractError):
            D.posterior_params(np.zeros(2), np.zeros(2), 0, s)


def hand_gaussian_kl(mu_q, var_q, mu_p, log_var_p):
    """`gaussian_kl` as the chain of generic ops it once was: eight tape
    nodes, with the q-variance, its log and `num` copied to full size."""
    mu_q = np.asarray(mu_q, dtype=np.float64)
    mu_p = np.asarray(mu_p, dtype=np.float64)
    var_q = np.broadcast_to(np.asarray(var_q, dtype=np.float64), mu_q.shape)
    log_var_q = Tensor(np.log(var_q).copy())
    num = Tensor(var_q + (mu_q - mu_p) ** 2)
    half_logs = T.mul(T.sub(log_var_p, log_var_q), 0.5)
    ratio = T.mul(T.mul(num, T.exp(T.neg(log_var_p))), 0.5)
    return T.sub(T.add(half_logs, ratio), 0.5)


def assert_bit_equal(got, want):
    """Bit-equal, except that any NaN matches any NaN: the chain adds the
    log_var_p gradient's two terms as `a + (-y)` and the node takes `a - y`,
    which can give NaNs of opposite sign."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    bits = np.dtype(f"u{want.itemsize}")
    bad = np.flatnonzero((got.view(bits) != want.view(bits)) & ~nan)
    assert bad.size == 0, (got.ravel()[bad[:5]], want.ravel()[bad[:5]])


class TestGaussianKL:
    def test_identical(self):
        mu = np.random.default_rng(0).normal(size=(3,))
        kl = D.gaussian_kl(mu, 0.5, mu, Tensor(np.full(3, math.log(0.5))))
        np.testing.assert_allclose(kl.data, 0.0, atol=1e-12)

    def test_equal_variance_mean_shift(self):
        d, sigma2 = 0.3, 0.7
        kl = D.gaussian_kl(np.zeros(4), sigma2, np.full(4, d), Tensor(np.full(4, math.log(sigma2))))
        np.testing.assert_allclose(kl.data, d * d / (2 * sigma2), atol=1e-12)

    def test_variance_ratio(self):
        kl = D.gaussian_kl(np.zeros(1), 1.0, np.zeros(1), Tensor(np.array([math.log(4.0)])))
        assert kl.data[0] == pytest.approx(math.log(2) + 1 / 8 - 1 / 2, abs=1e-12)
        assert kl.data[0] == pytest.approx(0.3181, abs=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           var_form=st.sampled_from(["scalar", "per_frame", "full"]),
           dims=st.tuples(*[st.integers(1, 4)] * 4), seed=st.integers(0, 2**32 - 1),
           specials=st.booleans(), shared=st.booleans())
    def test_bit_equal_to_generic_op_chain(self, dtype, var_form, dims, seed, specials,
                                           shared):
        rng = np.random.default_rng(seed)
        mu_q, mu_p = rng.normal(size=(2,) + dims)
        lvp = (rng.normal(size=dims) * 2).astype(dtype)
        var_q = {"scalar": lambda: float(np.exp(rng.normal())),
                 "per_frame": lambda: np.exp(rng.normal(size=(dims[0], 1, 1, 1))),
                 "full": lambda: np.exp(rng.normal(size=dims))}[var_form]()
        if specials:
            for arr in (lvp, mu_q, mu_p):
                at = rng.integers(0, arr.size, size=3)
                arr.ravel()[at] = [np.inf, -np.inf, np.nan]
        w, w2 = rng.normal(size=(2,) + dims)
        results = []
        for kl_fn in (D.gaussian_kl, hand_gaussian_kl):
            leaf = Tensor(lvp, requires_grad=True)
            with np.errstate(invalid="ignore", over="ignore"):
                kl = kl_fn(mu_q, var_q, mu_p, leaf)
                loss = T.reduce_sum(T.mul(kl, w))
                if shared:  # the second reader's term is added after the KL's, in both tapes
                    loss = T.add(loss, T.reduce_sum(T.mul(leaf, w2)))
                loss.backward()
            results.append((kl.data, leaf.grad))
        (kl, grad), (want_kl, want_grad) = results
        assert kl.dtype == np.float64
        assert_bit_equal(kl, want_kl)
        assert_bit_equal(grad, want_grad)


class TestVbLoss:
    def setup_method(self):
        self.sched = D.build_schedule(100, 1e-3, 0.05)
        self.rng = np.random.default_rng(5)

    def _batch(self, t_val, l=1):
        x0 = self.rng.normal(size=(l, 2, 3, 3))
        eps = self.rng.normal(size=(l, 2, 3, 3))
        part = D.FramePartition(l, 0)
        t = np.full(l, t_val, dtype=np.int64)
        xt = D.noise_frames(x0, part, t, eps, self.sched)
        return x0, eps, xt, t

    def test_exact_prediction_zero_kl(self):
        x0, eps, xt, t = self._batch(37)
        v0 = Tensor(np.zeros_like(x0))  # variance pinned at the posterior value
        out = D.vb_loss((Tensor(eps), v0), x0, xt, t, self.sched)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_nonnegative(self):
        for t_val in (1, 2, 17, 99):
            x0, eps, xt, t = self._batch(t_val, l=3)
            eps_hat = eps + self.rng.normal(size=eps.shape) * 0.3
            v = Tensor(self.rng.uniform(0, 1, size=x0.shape))
            out = D.vb_loss((Tensor(eps_hat), v), x0, xt, t, self.sched)
            assert np.all(out.data >= 0)

    def test_gradient_flows_to_variance_only(self):
        x0, eps, xt, t = self._batch(11)
        eps_hat = Tensor(eps + 0.1, requires_grad=True)
        v = Tensor(np.full_like(x0, 0.4), requires_grad=True)
        out = T.reduce_sum(D.vb_loss((eps_hat, v), x0, xt, t, self.sched))
        out.backward()
        assert eps_hat.grad is None
        assert v.grad is not None and np.any(v.grad != 0)

    def test_t0_rejected(self):
        x0, eps, xt, _ = self._batch(1)
        with pytest.raises(ContractError):
            D.vb_loss((Tensor(eps), Tensor(np.zeros_like(x0))), x0, xt, np.array([0]), self.sched)


class TestTotalLoss:
    def setup_method(self):
        self.sched = D.build_schedule(200, 1e-3, 0.02)

    def _example(self, l, m, seed=0):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(l, 1, 2, 2)).astype(np.float32)
        part = D.FramePartition(l, m)
        batch = D.make_batch(x0, part, self.sched, rng)
        f = part.n_future
        eps_hat = Tensor(rng.normal(size=(l, 1, 2, 2)).astype(np.float32), requires_grad=True)
        v_hat = Tensor(np.full((l, 1, 2, 2), 0.3, dtype=np.float32), requires_grad=True)
        return batch, D.DenoisePrediction(eps_hat, v_hat)

    def test_single_future_frame_lambda_zero(self):
        batch, pred = self._example(3, 2)
        lw = D.loss_weights_for(batch.partition, 0.0)
        total = D.total_loss(batch, pred, lw, self.sched)
        m = batch.partition.m_memory
        mse = D.mse_loss(batch.eps, pred.eps_hat[m:]).data
        vb = D.vb_loss((pred.eps_hat[m:].detach(), pred.v_hat[m:]),
                       batch.x0[m:], batch.xt[m:], batch.t[m:], self.sched).data
        assert total.item() == pytest.approx(float(mse[0] + vb[0]), rel=1e-6)

    def test_all_memory_rejected(self):
        with pytest.raises(ContractError):
            D.FramePartition(4, 4)

    def test_weighted_combination_fixture(self):
        # per-frame losses (1, 1) at T_norm (0, 1) under lam = ln 2 -> 1.5
        lw = D.loss_weights_for(D.FramePartition(4, 2), math.log(2))
        total = D.weighted_total(Tensor(np.array([1.0, 1.0])), lw)
        assert total.item() == pytest.approx(1.5, abs=1e-12)

    def test_matches_hand_loop_on_three_frame_fixture(self):
        lam = 0.9
        batch, pred = self._example(4, 1, seed=3)
        lw = D.loss_weights_for(batch.partition, lam)
        total = D.total_loss(batch, pred, lw, self.sched)

        m = batch.partition.m_memory
        f = batch.partition.n_future
        acc = 0.0
        for i in range(f):
            sl = slice(m + i, m + i + 1)
            mse_i = D.mse_loss(batch.eps[i:i + 1], pred.eps_hat[sl]).data[0]
            vb_i = D.vb_loss((pred.eps_hat[sl].detach(), pred.v_hat[sl]),
                             batch.x0[sl], batch.xt[sl], batch.t[sl], self.sched).data[0]
            acc += D.memory_weight(i / (f - 1), lam) * (mse_i + vb_i)
        assert total.item() == pytest.approx(acc, rel=1e-9)

    def test_memory_predictions_get_zero_gradient(self):
        batch, pred = self._example(5, 2, seed=7)
        lw = D.loss_weights_for(batch.partition, 1.0)
        total = D.total_loss(batch, pred, lw, self.sched)
        total.backward()
        m = batch.partition.m_memory
        assert np.all(pred.eps_hat.grad[:m] == 0)
        assert np.all(pred.v_hat.grad[:m] == 0)
        assert np.any(pred.eps_hat.grad[m:] != 0)


class _ExactNoiseOracle:
    """Stub denoiser that knows the clean clip and returns the exact noise
    for whatever xt it is shown."""

    def __init__(self, x0, schedule):
        self.x0 = x0
        self.schedule = schedule

    def forward(self, xt, t_vec, cond, plan):
        abar = self.schedule.alpha_bar[t_vec].reshape(-1, 1, 1, 1)
        safe = np.maximum(1.0 - abar, 1e-12)
        eps = (xt - np.sqrt(abar) * self.x0) / np.sqrt(safe)
        eps = np.where(abar == 1.0, 0.0, eps)
        return D.DenoisePrediction(Tensor(eps.astype(np.float64)),
                                   Tensor(np.zeros_like(eps)))


class _RecordingOracle(_ExactNoiseOracle):
    """Exact-noise stub that records the condition of every forward."""

    def __init__(self, x0, schedule):
        super().__init__(x0, schedule)
        self.conds = []

    def forward(self, xt, t_vec, cond, plan):
        self.conds.append(cond)
        return super().forward(xt, t_vec, cond, plan)


class TestSampler:
    def setup_method(self):
        self.sched = D.build_schedule(40, 1e-3, 0.05)

    def test_exact_denoiser_reconstructs_x0(self):
        rng = np.random.default_rng(0)
        x0 = rng.uniform(-0.9, 0.9, size=(2, 1, 4, 4))
        part = D.FramePartition(2, 1)
        model = _ExactNoiseOracle(x0, self.sched)
        out = D.sample_clip(model, x0[:1], part, self.sched, steps=40,
                            rng=np.random.default_rng(1))
        np.testing.assert_allclose(out[1:], x0[1:], atol=1e-3)

    def test_memory_pinned_bit_exactly(self):
        rng = np.random.default_rng(2)
        x0 = rng.uniform(-1, 1, size=(4, 1, 4, 4)).astype(np.float32)
        part = D.FramePartition(4, 2)
        model = _ExactNoiseOracle(x0.astype(np.float64), self.sched)
        out = D.sample_clip(model, x0[:2], part, self.sched, steps=10,
                            rng=np.random.default_rng(3))
        assert out[:2].tobytes() == x0[:2].tobytes()

    def test_guidance_one_is_bit_equal_to_unguided(self):
        rng = np.random.default_rng(4)
        x0 = rng.uniform(-1, 1, size=(3, 1, 4, 4)).astype(np.float32)
        part = D.FramePartition(3, 1)
        model = _ExactNoiseOracle(x0.astype(np.float64), self.sched)
        a = D.sample_clip(model, x0[:1], part, self.sched, steps=8,
                          rng=np.random.default_rng(9), guidance_scale=1.0)
        b = D.sample_clip(model, x0[:1], part, self.sched, steps=8,
                          rng=np.random.default_rng(9))
        assert a.tobytes() == b.tobytes()

    def test_determinism_under_fixed_noise_stream(self):
        x0 = np.random.default_rng(5).uniform(-1, 1, size=(3, 1, 4, 4))
        part = D.FramePartition(3, 1)
        model = _ExactNoiseOracle(x0, self.sched)
        a = D.sample_clip(model, x0[:1], part, self.sched, steps=12, rng=np.random.default_rng(7))
        b = D.sample_clip(model, x0[:1], part, self.sched, steps=12, rng=np.random.default_rng(7))
        assert a.tobytes() == b.tobytes()

    def test_guidance_null_branch_keeps_condition_scalars(self):
        x0 = np.random.default_rng(6).uniform(-1, 1, size=(3, 1, 4, 4))
        model = _RecordingOracle(x0, self.sched)
        cond = B.ConditionSet(np.array([1, 2]), np.zeros(3, dtype=np.int64), 10.0, 4.0, 4.0)
        D.sample_clip(model, x0[:1], D.FramePartition(3, 1), self.sched, steps=4,
                      rng=np.random.default_rng(8), cond=cond, guidance_scale=1.5)
        assert [c.null_flag for c in model.conds] == [False, True] * 4
        for c in model.conds[1::2]:
            assert (c.fps, c.height, c.width) == (cond.fps, cond.height, cond.width)

    def test_guidance_without_condition_is_one_forward_per_step(self):
        x0 = np.random.default_rng(6).uniform(-1, 1, size=(3, 1, 4, 4))
        runs = {}
        for guidance in (1.0, 1.5):
            model = _RecordingOracle(x0, self.sched)
            runs[guidance] = D.sample_clip(model, x0[:1], D.FramePartition(3, 1), self.sched,
                                           steps=4, rng=np.random.default_rng(8),
                                           guidance_scale=guidance)
            assert model.conds == [None] * 4
        assert runs[1.5].tobytes() == runs[1.0].tobytes()

    def test_zero_steps_rejected(self):
        x0 = np.zeros((2, 1, 2, 2))
        model = _ExactNoiseOracle(x0, self.sched)
        with pytest.raises(ConfigError):
            D.sample_clip(model, x0[:1], D.FramePartition(2, 1), self.sched,
                          steps=0, rng=np.random.default_rng(0))

    def test_strided_subset_properties(self):
        s = D.strided_timesteps(1000, 50)
        assert s[0] == 1000 and s[-1] == 1 and len(s) == 50
        assert np.all(np.diff(s) < 0)
        full = D.strided_timesteps(40, 40)
        np.testing.assert_array_equal(full, np.arange(40, 0, -1))


def oracle_sample(model, memory, l_total, schedule, steps, rng, cond, plan, guidance_scale):
    """The two reverse loops the single sampler replaced, as reference: with
    memory, the clip is re-concatenated from memory and future rows on every
    step; without memory (M = 0), the future rows alone are the clip."""
    m = memory.shape[0]
    subset_desc = D.strided_timesteps(schedule.t_max, steps)
    sub = D.respaced_schedule(schedule, subset_desc)
    asc = subset_desc[::-1]
    fut = rng.standard_normal((l_total - m,) + memory.shape[1:]).astype(memory.dtype)
    with T.no_grad():
        for k in range(len(asc), 0, -1):
            t_orig = int(asc[k - 1])
            clip = np.concatenate([memory, fut], axis=0) if m else fut
            t_vec = np.zeros(l_total, dtype=np.int64)
            t_vec[m:] = t_orig
            pred = model.forward(clip, t_vec, cond, plan)
            eps_hat = pred.eps_hat.data[m:]
            v_hat = pred.v_hat.data[m:]
            if guidance_scale != 1.0 and cond is not None:
                eps_null = model.forward(clip, t_vec, cond.nulled(), plan).eps_hat.data[m:]
                eps_hat = eps_null + guidance_scale * (eps_hat - eps_null)
            abar = schedule.alpha_bar[t_orig]
            x0_hat = (fut - np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(abar)
            x0_hat = np.clip(x0_hat, -1.0, 1.0)
            mu, _ = D.posterior_params(x0_hat.astype(np.float64), fut.astype(np.float64), k, sub)
            log_beta = np.log(sub.beta[k])
            log_tilde = sub.posterior_log_variance_clipped[k]
            log_var = v_hat.astype(np.float64) * (log_beta - log_tilde) + log_tilde
            if k > 1:
                z = rng.standard_normal(fut.shape)
                mu = mu + np.exp(0.5 * log_var) * z
            fut = mu.astype(fut.dtype)
    return np.concatenate([memory, fut], axis=0) if m else fut


class TestSingleSampler:
    L = 5

    def setup_method(self):
        cfg = B.ModelConfig(depth=2, hidden=8, heads=2, patch=2, channels=1, t_max=20,
                            text_vocab=8, max_original_index=64)
        self.model = B.VideoDenoiser(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for p in self.model.parameters():  # gates and head start at zero
            p.data = p.data + rng.normal(0, 0.1, size=p.shape).astype(p.dtype)
        self.sched = D.build_schedule(20, 1e-3, 0.05)
        self.plan = B.RopePlan(np.arange(self.L))
        self.cond = B.ConditionSet(np.array([1, 2]), np.zeros(self.L, dtype=np.int64),
                                   10.0, 4.0, 4.0)
        self.frames = rng.uniform(-1, 1, size=(self.L, 1, 4, 4)).astype(np.float32)

    @pytest.mark.parametrize("guidance", [1.0, 1.5])
    @pytest.mark.parametrize("m", [0, 2])
    def test_bit_equal_to_two_loop_oracle(self, m, guidance):
        memory = self.frames[:m]
        want = oracle_sample(self.model, memory, self.L, self.sched, 6,
                             np.random.default_rng(5), self.cond, self.plan, guidance)
        got = D.sample_clip(self.model, memory, D.FramePartition(self.L, m), self.sched, 6,
                            np.random.default_rng(5), cond=self.cond, plan=self.plan,
                            guidance_scale=guidance)
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        if m == 0:
            boot = D.sample_future_only(self.model, self.L, (1, 4, 4), self.sched, 6,
                                        np.random.default_rng(5), cond=self.cond,
                                        plan=self.plan, guidance_scale=guidance)
            assert boot.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m_given,m_part", [(1, 2), (2, 0), (0, 1)])
    def test_memory_length_must_match_partition(self, m_given, m_part):
        with pytest.raises(ContractError):
            D.sample_clip(self.model, self.frames[:m_given], D.FramePartition(self.L, m_part),
                          self.sched, 6, np.random.default_rng(0))


class TestMarginalConsistency:
    def test_stepwise_composition_matches_marginal(self):
        # Compose q(x_t | x_{t-1}) t times (oracle) and compare moments with
        # the closed-form marginal over 10^4 trials.
        sched = D.build_schedule(8, 0.02, 0.2)
        t_final = 8
        x0 = 0.7
        n = 10_000
        rng = np.random.default_rng(11)
        x = np.full(n, x0)
        for t in range(1, t_final + 1):
            a = sched.alpha[t]
            x = np.sqrt(a) * x + np.sqrt(1 - a) * rng.standard_normal(n)

        abar = sched.alpha_bar[t_final]
        mean_expect = np.sqrt(abar) * x0
        var_expect = 1 - abar
        se_mean = np.sqrt(var_expect / n)
        se_var = var_expect * np.sqrt(2.0 / (n - 1))
        assert abs(x.mean() - mean_expect) < 3 * se_mean
        assert abs(x.var() - var_expect) < 3 * se_var
