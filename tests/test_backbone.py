import numpy as np
import pytest

from longroad import backbone as B
from longroad import config as C
from longroad import tensor as T
from longroad.errors import ConfigError, ContractError
from longroad.tensor import Tensor


def tiny_config(**kw):
    base = dict(depth=2, hidden=8, heads=2, patch=2, channels=1, t_max=20,
                text_vocab=8, max_original_index=256)
    base.update(kw)
    return B.ModelConfig(**base)


def randomize(model, seed=0, scale=0.05):
    """Overwrite every parameter (including zero-init gates) with small noise."""
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data = rng.normal(0, scale, size=p.shape).astype(p.dtype)
    return model


def make_cond(l, fps=10.0, h=4.0, w=4.0, tokens=(1, 2, 3), cmds=None):
    cmds = np.zeros(l, dtype=np.int64) if cmds is None else np.asarray(cmds)
    return B.ConditionSet(np.array(tokens), cmds, fps, h, w)


class TestPatchify:
    def test_token_count(self):
        clip = Tensor(np.arange(16.0, dtype=np.float32).reshape(1, 1, 4, 4))
        assert B.patchify(clip, 2).shape == (1, 4, 4)

    def test_round_trip_bit_equal(self):
        x = np.random.default_rng(0).normal(size=(3, 3, 8, 6)).astype(np.float32)
        tokens = B.patchify(Tensor(x), 2)
        back = B.unpatchify(tokens, 2, 3, 8, 6)
        assert back.data.tobytes() == x.tobytes()

    def test_single_token(self):
        clip = Tensor(np.zeros((2, 3, 4, 4), dtype=np.float32))
        assert B.patchify(clip, 4).shape == (2, 1, 48)

    def test_indivisible_dims(self):
        with pytest.raises(ConfigError):
            B.patchify(Tensor(np.zeros((1, 1, 5, 4), dtype=np.float32)), 2)

    def test_patchify_grad(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 1, 4, 4)), requires_grad=True)
        out = T.reduce_sum(T.mul(B.patchify(x, 2), 3.0))
        out.backward()
        np.testing.assert_allclose(x.grad, np.full((2, 1, 4, 4), 3.0))


class TestTimestepEmbedding:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.emb = B.TimestepEmbedder(rng, 16, np.float32)

    def test_equal_timesteps_identical_rows(self):
        out = self.emb(np.array([7, 7, 7]), (10.0, 32.0, 48.0)).data
        assert np.all(out[0] == out[1]) and np.all(out[1] == out[2])

    def test_zero_and_one_differ(self):
        out = self.emb(np.array([0, 1]), (10.0, 32.0, 48.0)).data
        assert np.any(out[0] != out[1])

    def test_grid_injective_sample(self):
        out = self.emb(np.arange(21), (10.0, 32.0, 48.0)).data
        for i in range(21):
            for j in range(i + 1, 21):
                assert np.any(out[i] != out[j])

    def test_deterministic(self):
        a = self.emb(np.array([3]), (10.0, 32.0, 48.0)).data
        b = self.emb(np.array([3]), (10.0, 32.0, 48.0)).data
        assert a.tobytes() == b.tobytes()

    def test_scalars_change_embedding(self):
        a = self.emb(np.array([3]), (10.0, 32.0, 48.0)).data
        b = self.emb(np.array([3]), (20.0, 32.0, 48.0)).data
        assert np.any(a != b)


def plan_for(indices):
    return B.RopePlan(np.asarray(indices))


class TestSpatialStep:
    def test_identity_at_init(self):
        model = B.VideoDenoiser(tiny_config(), np.random.default_rng(0))
        block = model.blocks[0]
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4, 8)).astype(np.float32))
        c = model.t_embed(np.zeros(3, dtype=np.int64), (10.0, 4.0, 4.0))
        out = block.spatial_step(x, block._chunks(c))
        np.testing.assert_array_equal(out.data, x.data)

    def test_frame_permutation_equivariance(self):
        model = randomize(B.VideoDenoiser(tiny_config(), np.random.default_rng(0)), seed=2)
        block = model.blocks[0]
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 4, 8)).astype(np.float32)
        c = model.t_embed(np.full(4, 5, dtype=np.int64), (10.0, 4.0, 4.0))
        mods = block._chunks(c)
        out = block.spatial_step(Tensor(x), mods).data
        perm = np.array([2, 0, 3, 1])
        out_p = block.spatial_step(Tensor(x[perm]), mods).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-6)

    def test_single_token_closed_form(self):
        # with one token per frame, attention weights collapse to 1 and the
        # sublayer is x + gate * Wo(Wv(h)); check against explicit matrices
        model = randomize(B.VideoDenoiser(tiny_config(), np.random.default_rng(0)), seed=4)
        block = model.blocks[0]
        x = Tensor(np.random.default_rng(5).normal(size=(2, 1, 8)).astype(np.float32))
        c = model.t_embed(np.array([3, 3]), (10.0, 2.0, 2.0))
        mods = block._chunks(c)
        out = block.spatial_step(x, mods).data

        h = T.modulated_norm(x, mods[0], mods[1]).data
        attn = model.blocks[0].spatial_attn
        v = h @ attn.wv.w.data + attn.wv.b.data
        proj = v @ attn.wo.w.data + attn.wo.b.data
        expect = x.data + mods[2].data * proj
        np.testing.assert_allclose(out, expect, atol=1e-5)


class TestTemporalStep:
    def test_identity_at_init(self):
        model = B.VideoDenoiser(tiny_config(), np.random.default_rng(0))
        block = model.blocks[0]
        x = Tensor(np.random.default_rng(1).normal(size=(4, 2, 8)).astype(np.float32))
        c = model.t_embed(np.zeros(4, dtype=np.int64), (10.0, 4.0, 4.0))
        rope = B.rope_tables(plan_for(np.arange(4)), 4, np.float32, model.cfg.rope_base)
        out = block.temporal_step(x, block._chunks(c), rope)
        np.testing.assert_array_equal(out.data, x.data)

    def test_logits_agree_across_subsampling_rates(self):
        # frames carrying original indices {0, 4} produce identical attention
        # logits whether they sit at slots (0, 4) of a dense clip or slots
        # (0, 1) of a stride-4 clip
        model = randomize(B.VideoDenoiser(tiny_config(), np.random.default_rng(0)), seed=6)
        attn = model.blocks[0].temporal_attn
        rng = np.random.default_rng(7)
        x_dense = rng.normal(size=(8, 3, 8)).astype(np.float32)   # (L, S, H)
        x_sub = x_dense[[0, 4]]

        ht_dense = Tensor(np.ascontiguousarray(x_dense.transpose(1, 0, 2)))
        ht_sub = Tensor(np.ascontiguousarray(x_sub.transpose(1, 0, 2)))
        rope_dense = B.rope_tables(plan_for(np.arange(8)), 4, np.float32, model.cfg.rope_base)
        rope_sub = B.rope_tables(plan_for([0, 4]), 4, np.float32, model.cfg.rope_base)

        lg_dense = attn.logits(ht_dense, ht_dense, rope_dense).data
        lg_sub = attn.logits(ht_sub, ht_sub, rope_sub).data
        restricted = lg_dense[:, :, [0, 4]][:, :, :, [0, 4]]
        np.testing.assert_allclose(lg_sub, restricted, atol=1e-5)

    def test_constant_index_offset_leaves_logits_unchanged(self):
        cfg = tiny_config()
        model = randomize(B.VideoDenoiser(cfg, np.random.default_rng(0), dtype=np.float64), seed=8)
        attn = model.blocks[0].temporal_attn
        x = np.random.default_rng(9).normal(size=(3, 5, 8))
        ht = Tensor(np.ascontiguousarray(x.transpose(1, 0, 2)))
        base = np.array([0, 3, 6])
        a = attn.logits(ht, ht, B.rope_tables(plan_for(base), 4, np.float64, cfg.rope_base)).data
        b = attn.logits(ht, ht, B.rope_tables(plan_for(base + 57), 4, np.float64, cfg.rope_base)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_config_rope_base_changes_temporal_logits(self, monkeypatch):
        seen = []
        call = B.MultiHeadAttention.__call__

        def record(attn, q_in, kv_in, rope=None):
            if rope is not None:
                seen.append(rope)
            return call(attn, q_in, kv_in, rope)

        monkeypatch.setattr(B.MultiHeadAttention, "__call__", record)
        small = dict(depth=1, hidden=8, heads=2, patch=2, channels=1, t_max=20,
                     text_vocab=25, max_original_index=256)  # load_config's least vocab
        ht = Tensor(np.random.default_rng(9).normal(size=(4, 3, 8)).astype(np.float32))
        logits = []
        for base in (10000.0, 50.0):
            run_cfg = C.load_config(overrides={"model": {**small, "rope_base": base},
                                               "train": {"t_max": 20},
                                               "rollout": {"steps": 20}})
            model = randomize(B.VideoDenoiser(C.model_config(run_cfg),
                                              np.random.default_rng(0)), seed=6)
            model.forward(np.zeros((3, 1, 4, 4), np.float32), np.array([0, 5, 5]), None,
                          plan_for([0, 4, 9]))
            logits.append(model.blocks[0].temporal_attn.logits(ht, ht, seen[-1]).data)
        assert np.any(logits[0] != logits[1])

    def test_plan_length_mismatch(self):
        model = B.VideoDenoiser(tiny_config(), np.random.default_rng(0))
        xt = np.zeros((3, 1, 4, 4), dtype=np.float32)
        with pytest.raises(ContractError):
            model.forward(xt, np.zeros(3, dtype=np.int64), None, plan_for([0, 1]))

    def test_decreasing_plan_rejected(self):
        with pytest.raises(ContractError):
            plan_for([3, 1, 2])


class TestCrossStep:
    def test_null_condition_deterministic(self):
        model = randomize(B.VideoDenoiser(tiny_config(), np.random.default_rng(0)), seed=10)
        xt = np.random.default_rng(11).normal(size=(2, 1, 4, 4)).astype(np.float32)
        t = np.array([0, 5])
        plan = plan_for([0, 1])
        a = model.forward(xt, t, None, plan)
        b = model.forward(xt, t, None, plan)
        assert a.eps_hat.data.tobytes() == b.eps_hat.data.tobytes()

    def test_identity_gate_at_init(self):
        model = B.VideoDenoiser(tiny_config(), np.random.default_rng(0))
        block = model.blocks[0]
        x = Tensor(np.random.default_rng(12).normal(size=(2, 4, 8)).astype(np.float32))
        c = model.t_embed(np.array([1, 1]), (10.0, 4.0, 4.0))
        kv = model._condition_kv(make_cond(2), 2)
        out = block.cross_step(x, block._chunks(c), kv)
        np.testing.assert_array_equal(out.data, x.data)

    def test_command_sensitivity(self):
        model = randomize(B.VideoDenoiser(tiny_config(), np.random.default_rng(0)), seed=13)
        xt = np.random.default_rng(14).normal(size=(3, 1, 4, 4)).astype(np.float32)
        t = np.array([0, 4, 4])
        plan = plan_for([0, 1, 2])
        a = model.forward(xt, t, make_cond(3, cmds=[0, 0, 0]), plan)
        b = model.forward(xt, t, make_cond(3, cmds=[0, 1, 0]), plan)
        assert np.any(a.eps_hat.data != b.eps_hat.data)

    def test_nulled_keeps_scalars(self):
        cond = make_cond(2)
        nulled = cond.nulled()
        assert nulled.null_flag and nulled.fps == cond.fps


class TestForward:
    def test_shape_law(self):
        model = B.VideoDenoiser(tiny_config(), np.random.default_rng(0))
        xt = np.zeros((3, 1, 4, 6), dtype=np.float32)
        pred = model.forward(xt, np.zeros(3, dtype=np.int64), None, plan_for([0, 1, 2]))
        assert pred.eps_hat.shape == (3, 1, 4, 6)
        assert pred.v_hat.shape == (3, 1, 4, 6)

    def test_eps_zero_at_init(self):
        model = B.VideoDenoiser(tiny_config(), np.random.default_rng(1))
        xt = np.random.default_rng(2).normal(size=(2, 1, 4, 4)).astype(np.float32)
        pred = model.forward(xt, np.array([0, 7]), make_cond(2), plan_for([0, 1]))
        np.testing.assert_array_equal(pred.eps_hat.data, np.zeros_like(xt))

    def test_v_hat_in_unit_interval(self):
        model = randomize(B.VideoDenoiser(tiny_config(), np.random.default_rng(0)), seed=15)
        xt = np.random.default_rng(16).normal(size=(2, 1, 4, 4)).astype(np.float32)
        pred = model.forward(xt, np.array([3, 3]), make_cond(2), plan_for([0, 1]))
        assert np.all((pred.v_hat.data >= 0) & (pred.v_hat.data <= 1))

    def test_two_block_finite_difference(self):
        cfg = tiny_config()
        model = randomize(B.VideoDenoiser(cfg, np.random.default_rng(0), dtype=np.float64),
                          seed=17, scale=0.08)
        rng = np.random.default_rng(18)
        xt = rng.normal(size=(3, 1, 4, 4))
        t = np.array([0, 6, 6])
        cond = make_cond(3)
        plan = plan_for([0, 2, 4])
        r1 = rng.normal(size=(3, 1, 4, 4))
        r2 = rng.normal(size=(3, 1, 4, 4))

        params = model.named_parameters()

        def loss_fn(*_):
            pred = model.forward(xt, t, cond, plan)
            a = T.reduce_sum(T.mul(pred.eps_hat, Tensor(r1)))
            b = T.reduce_sum(T.mul(pred.v_hat, Tensor(r2)))
            return T.add(a, b)

        loss = loss_fn()
        model.zero_grad()
        loss.backward()

        fd_rng = np.random.default_rng(19)
        checked = 0
        for name, p in params.items():
            fd = T.finite_difference(loss_fn, [p], h=1e-6, max_coords=6, rng=fd_rng)[0]
            mask = np.isfinite(fd)
            got = p.grad[mask] if p.grad is not None else np.zeros(mask.sum())
            want = fd[mask]
            denom = np.abs(want) + 1e-8
            rel = np.abs(got - want) / denom
            # absolute check where the finite-difference value is ~zero
            ok = (rel <= 1e-4) | (np.abs(got - want) <= 1e-7)
            assert np.all(ok), f"gradient mismatch in {name}: rel={rel.max()}"
            checked += int(mask.sum())
        assert checked > 100


class TestArchitectureInvariants:
    def test_identity_at_init_full_model_residual_path(self):
        # zero gates and zero head: prediction is exactly zero noise
        model = B.VideoDenoiser(tiny_config(), np.random.default_rng(3))
        xt = np.random.default_rng(4).normal(size=(4, 1, 4, 4)).astype(np.float32)
        pred = model.forward(xt, np.array([0, 0, 9, 9]), make_cond(4), plan_for([0, 1, 2, 3]))
        assert np.all(pred.eps_hat.data == 0)

    def test_gates_receive_gradient(self):
        model = B.VideoDenoiser(tiny_config(), np.random.default_rng(5))
        xt = np.random.default_rng(6).normal(size=(2, 1, 4, 4)).astype(np.float32)
        pred = model.forward(xt, np.array([0, 8]), make_cond(2), plan_for([0, 1]))
        loss = T.add(T.reduce_sum(T.mul(pred.eps_hat, pred.eps_hat)),
                     T.reduce_sum(pred.v_hat))
        model.zero_grad()
        loss.backward()
        head_grad = model.head.w.grad
        assert head_grad is not None and np.any(head_grad != 0)

    def test_separability_without_temporal_mixing(self):
        model = randomize(B.VideoDenoiser(tiny_config(), np.random.default_rng(0)), seed=20)
        for block in model.blocks:
            block.temporal_attn.wo.w.data[:] = 0
            block.temporal_attn.wo.b.data[:] = 0
        rng = np.random.default_rng(21)
        xt = rng.normal(size=(4, 1, 4, 4)).astype(np.float32)
        t = np.array([0, 3, 3, 3])
        plan = plan_for([0, 1, 2, 3])
        cond = make_cond(4)
        base = model.forward(xt, t, cond, plan).eps_hat.data.copy()

        bumped = xt.copy()
        bumped[2] += 1.0
        out = model.forward(bumped, t, cond, plan).eps_hat.data
        np.testing.assert_array_equal(out[[0, 1, 3]], base[[0, 1, 3]])
        assert np.any(out[2] != base[2])

    def test_parameter_count_is_function_of_config(self):
        a = B.VideoDenoiser(tiny_config(), np.random.default_rng(0))
        b = B.VideoDenoiser(tiny_config(), np.random.default_rng(99))
        assert a.parameter_count() == b.parameter_count()
        wider = B.VideoDenoiser(tiny_config(hidden=16, heads=4), np.random.default_rng(0))
        assert wider.parameter_count() > a.parameter_count()

    def test_parameter_count_regression_desk_config(self):
        model = B.VideoDenoiser(B.ModelConfig(), np.random.default_rng(0))
        assert model.parameter_count() == DESK_PARAM_COUNT


# frozen from the first build of the default configuration; any change to the
# architecture must update this deliberately
DESK_PARAM_COUNT = 2_205_408


class TestConfigValidation:
    def test_indivisible_heads(self):
        with pytest.raises(ConfigError):
            B.ModelConfig(hidden=10, heads=3)

    def test_odd_head_dim(self):
        with pytest.raises(ConfigError):
            B.ModelConfig(hidden=12, heads=4)

    def test_channel_mismatch(self):
        model = B.VideoDenoiser(tiny_config(), np.random.default_rng(0))
        with pytest.raises(ContractError):
            model.forward(np.zeros((2, 3, 4, 4), dtype=np.float32),
                          np.zeros(2, dtype=np.int64), None, plan_for([0, 1]))

    def test_timestep_range(self):
        model = B.VideoDenoiser(tiny_config(), np.random.default_rng(0))
        with pytest.raises(ContractError):
            model.forward(np.zeros((1, 1, 4, 4), dtype=np.float32),
                          np.array([999]), None, plan_for([0]))
