import numpy as np
import pytest

from longroad import backbone as B
from longroad import config as C
from longroad import tensor as T
from longroad import toyroad as R
from longroad.errors import ConfigError, ContractError
from longroad.tensor import Tensor
from test_tensor import hand_modulated_norm, sliced_modulation, tape_ops


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
        out = block.spatial_step(x, block.mod(c))
        np.testing.assert_array_equal(out.data, x.data)

    def test_frame_permutation_equivariance(self):
        model = randomize(B.VideoDenoiser(tiny_config(), np.random.default_rng(0)), seed=2)
        block = model.blocks[0]
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 4, 8)).astype(np.float32)
        c = model.t_embed(np.full(4, 5, dtype=np.int64), (10.0, 4.0, 4.0))
        mods = block.mod(c)
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
        mods = block.mod(c)
        out = block.spatial_step(x, mods).data

        h = T.modulated_norm(x, mods, 0).data
        attn = model.blocks[0].spatial_attn
        v = h @ attn.wv.w.data + attn.wv.b.data
        proj = v @ attn.wo.w.data + attn.wo.b.data
        gate = mods.data[:, None, 16:24]                # block 2 of hidden 8
        expect = x.data + gate * proj
        np.testing.assert_allclose(out, expect, atol=1e-5)


class TestTemporalStep:
    def test_identity_at_init(self):
        model = B.VideoDenoiser(tiny_config(), np.random.default_rng(0))
        block = model.blocks[0]
        x = Tensor(np.random.default_rng(1).normal(size=(4, 2, 8)).astype(np.float32))
        c = model.t_embed(np.zeros(4, dtype=np.int64), (10.0, 4.0, 4.0))
        rope = B.rope_tables(plan_for(np.arange(4)), 4, np.float32, model.cfg.rope_base)
        out = block.temporal_step(x, block.mod(c), rope)
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
        out = block.cross_step(x, block.mod(c), kv)
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

    @pytest.mark.parametrize("fault, match", [("scalars", "must be positive"),
                                              ("token", "outside vocab 8"),
                                              ("commands", "one command per frame"),
                                              ("plan", "max_original_index")])
    def test_bad_condition_or_plan(self, fault, match):
        model = B.VideoDenoiser(tiny_config(max_original_index=8), np.random.default_rng(0))
        with pytest.raises(ContractError, match=match):
            cond = make_cond(2, fps=-1.0 if fault == "scalars" else 10.0,
                             tokens=(1, 8) if fault == "token" else (1, 2),
                             cmds=[0, 1, 2] if fault == "commands" else None)
            model.forward(np.zeros((2, 1, 4, 4), dtype=np.float32), np.zeros(2, np.int64),
                          cond, plan_for([0, 9] if fault == "plan" else [0, 1]))


# Oracles for in-place modulation, `SpaceTimeBlock._sublayer` and the
# in-shape embedding gathers: the adaLN ops that read shift, scale and gate
# as (L, 1, H) tensors cut out of the modulation on the tape (the norm is
# test_tensor's hand-written one), each sublayer written out in full, and a
# reshape after every gather. The denoiser must match them bit for bit, with
# fewer tape nodes.


def sliced_gated_residual(x, gate, y):
    """`gated_residual` with the gate as a tensor of its own."""
    out = gate.data * y.data
    out += x.data
    return T._node(out, (x, gate, y), [lambda g: g, lambda g: g * y.data, lambda g: g * gate.data])


def patch_sliced_ops(monkeypatch, cut=sliced_modulation):
    """Run `modulated_norm` and `gated_residual` as the sliced ops, each
    modulation cut once, at its first read, by `cut(mods, hidden)`."""
    cuts = {}

    def block(mods, x, i):
        if id(mods) not in cuts:
            cuts[id(mods)] = mods, cut(mods, x.shape[-1])
        return cuts[id(mods)][1][i]

    monkeypatch.setattr(T, "modulated_norm", lambda x, mods, i: hand_modulated_norm(
        x, block(mods, x, i), block(mods, x, i + 1)))
    monkeypatch.setattr(T, "gated_residual", lambda x, mods, i, y: sliced_gated_residual(
        x, block(mods, x, i), y))


def oracle_cut(mods, hidden):
    """The block modulations cut by one reshape and a slice per block, the
    final layer's by two slices and two reshapes."""
    if mods.shape[1] != 2 * hidden:
        return sliced_modulation(mods, hidden)
    l = mods.shape[0]
    return [T.reshape(mods[:, :hidden], (l, 1, hidden)),
            T.reshape(mods[:, hidden:], (l, 1, hidden))]


def oracle_spatial_step(self, x, mods):
    h = T.modulated_norm(x, mods, 0)
    return T.gated_residual(x, mods, 2, self.spatial_attn(h, h))


def oracle_temporal_step(self, x, mods, rope):
    h = T.modulated_norm(x, mods, 3)
    ht = T.transpose(h, (1, 0, 2))
    out = T.transpose(self.temporal_attn(ht, ht, rope), (1, 0, 2))
    return T.gated_residual(x, mods, 5, out)


def oracle_cross_step(self, x, mods, cond_kv):
    h = T.modulated_norm(x, mods, 6)
    return T.gated_residual(x, mods, 8, self.cross_attn(h, cond_kv))


def oracle_mlp_step(self, x, mods):
    h = T.modulated_norm(x, mods, 9)
    return T.gated_residual(x, mods, 11, self.mlp(h))


def oracle_condition_kv(self, cond, l):
    hidden = self.cfg.hidden
    if cond is None or cond.null_flag:
        null = T.reshape(self.null_embed(np.zeros(1, dtype=np.int64)), (1, 1, hidden))
        return T.concat([null] * l, axis=0)
    text = self.text_embed(cond.text_tokens)
    text_all = T.concat([T.reshape(text, (1, text.shape[0], hidden))] * l, axis=0)
    cmd = T.reshape(self.command_embed(cond.command_ids), (l, 1, hidden))
    return T.concat([text_all, cmd], axis=1)


def assert_bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# kind, the nodes the written-out oracle adds beyond the sliced modulation's
# (its gathers' reshapes, the concat of L null rows where the denoiser
# gathers them at once, and the final layer's two reshapes where the sliced
# modulation has one), and the embeddings that get no gradient
CONDITIONS = [
    ("caption", 3, ["null_embed.table"]),
    ("null", 3, ["command_embed.table", "text_embed.table"]),
    ("none", 3, ["command_embed.table", "text_embed.table"]),
]


def run_denoiser(dtype, kind, idle):
    """Forward and backward of a randomized depth-4 denoiser on one example:
    (outputs, parameter gradients, op nodes on the tape)."""
    cfg = tiny_config(depth=4, channels=3, text_vocab=len(R.VOCAB))
    model = randomize(B.VideoDenoiser(cfg, np.random.default_rng(0), dtype=dtype),
                      seed=20, scale=0.3)
    rng = np.random.default_rng(21)
    xt = rng.normal(size=(3, 3, 4, 6)).astype(dtype)
    eps = Tensor(rng.normal(size=xt.shape).astype(dtype))
    # `then` twice: a repeated gather row
    tokens = R.encode_caption("ego straight then left then right.")
    cond = {"caption": make_cond(3, tokens=tokens, cmds=[0, 1, 2]),
            "null": make_cond(3, tokens=tokens).nulled(), "none": None}[kind]
    pred = model.forward(xt, np.array([0, 4, 9]), cond, plan_for([0, 2, 5]))
    loss = T.reduce_sum(T.mul(T.add(pred.eps_hat, pred.v_hat), eps))
    nodes = tape_ops(loss)["op"]
    loss.backward()
    grads = {k: p.grad for k, p in model.named_parameters().items()}
    assert sorted(k for k, g in grads.items() if g is None) == idle
    return [pred.eps_hat.data, pred.v_hat.data], grads, nodes


def assert_same_run(got, want):
    for a, b in zip(got[0], want[0]):
        assert_bit_equal(a, b)
    assert got[1].keys() == want[1].keys()
    for k, b in want[1].items():
        assert (got[1][k] is None) == (b is None), k
        if b is not None:
            assert_bit_equal(got[1][k], b)


class TestSharedSublayer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind, idle", [(k, i) for k, _, i in CONDITIONS])
    def test_bits_and_nodes_match_sliced_modulation(self, monkeypatch, dtype, kind, idle):
        # 12 slices and a reshape per block, 2 slices and a reshape for the
        # final layer: 55 nodes at depth 4
        got = run_denoiser(dtype, kind, idle)
        patch_sliced_ops(monkeypatch)
        want = run_denoiser(dtype, kind, idle)
        assert_same_run(got, want)
        assert want[2] - got[2] == 55

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind, fewer, idle", CONDITIONS)
    def test_bits_and_nodes_match_written_out_oracle(self, monkeypatch, dtype, kind, fewer,
                                                     idle):
        got = run_denoiser(dtype, kind, idle)
        patch_sliced_ops(monkeypatch, oracle_cut)
        for name, oracle in [("spatial_step", oracle_spatial_step),
                             ("temporal_step", oracle_temporal_step),
                             ("cross_step", oracle_cross_step), ("mlp_step", oracle_mlp_step)]:
            monkeypatch.setattr(B.SpaceTimeBlock, name, oracle)
        monkeypatch.setattr(B.VideoDenoiser, "_condition_kv", oracle_condition_kv)
        want = run_denoiser(dtype, kind, idle)
        assert_same_run(got, want)
        assert want[2] - got[2] == 55 + fewer
