import json

import numpy as np
import pytest

from longroad import backbone as B
from longroad import checkpoint as CK
from longroad import diffusion as D
from longroad import toyroad as R
from longroad import training as TR
from longroad.curriculum import CurriculumPhase, next_batch
from longroad.errors import NumericFailure
from longroad.tensor import Tensor
from test_tensor import named_ops, tape_ops


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = R.generate_dataset(tmp_path_factory.mktemp("ds"), clips=2, frames=16,
                              height=16, width=24, fps=10, seed=21)
    return R.ClipDataset(root)


def tiny_model(seed=0):
    cfg = B.ModelConfig(depth=1, hidden=8, heads=2, patch=2, channels=3,
                        t_max=50, text_vocab=64, max_original_index=256)
    return B.VideoDenoiser(cfg, np.random.default_rng(seed))


def tiny_cfg(**kw):
    base = dict(phase_frames=(8,), phase_steps=(2,), token_budget=8,
                alpha_set=(1,), memory_span_d=4, lr=1e-3, seed=5,
                t_max=50, beta_start=1e-3, beta_end=0.05)
    base.update(kw)
    return TR.TrainConfig(**base)


def one_example(dataset, cfg, seed=0):
    phase = CurriculumPhase(frames=cfg.phase_frames[0], batch=1, steps=1)
    return next_batch(phase, dataset, np.random.default_rng(seed),
                      cfg.alpha_set, cfg.memory_span_d)


class TestTrainStep:
    def test_zero_learning_rate_leaves_params_untouched(self, dataset):
        cfg = tiny_cfg(lr=0.0)
        model = tiny_model()
        before = {k: p.data.copy() for k, p in model.named_parameters().items()}
        sched = D.build_schedule(cfg.t_max, cfg.beta_start, cfg.beta_end)
        opt = TR.Adam(model.named_parameters(), cfg)
        ex = one_example(dataset, cfg)
        TR.train_step(model, [ex], cfg, sched, opt,
                      [np.random.default_rng(1)], [np.random.default_rng(2)])
        for k, p in model.named_parameters().items():
            assert p.data.tobytes() == before[k].tobytes(), k

    def test_returns_finite_loss_and_norm(self, dataset):
        cfg = tiny_cfg()
        model = tiny_model()
        sched = D.build_schedule(cfg.t_max, cfg.beta_start, cfg.beta_end)
        opt = TR.Adam(model.named_parameters(), cfg)
        loss, norm = TR.train_step(model, [one_example(dataset, cfg)], cfg, sched, opt,
                                   [np.random.default_rng(3)], [np.random.default_rng(4)])
        assert np.isfinite(loss) and np.isfinite(norm) and norm >= 0

    def test_non_finite_loss_aborts_with_diagnostic(self, dataset):
        cfg = tiny_cfg()
        model = tiny_model()
        model.head.b.data[:] = np.nan
        sched = D.build_schedule(cfg.t_max, cfg.beta_start, cfg.beta_end)
        opt = TR.Adam(model.named_parameters(), cfg)
        with pytest.raises(NumericFailure) as ei:
            TR.train_step(model, [one_example(dataset, cfg)], cfg, sched, opt,
                          [np.random.default_rng(5)], [np.random.default_rng(6)])
        assert "alphas" in str(ei.value)

    def test_non_finite_grad_norm_stops_before_update(self, dataset, monkeypatch):
        cfg = tiny_cfg()
        model = tiny_model()
        before = {k: p.data.copy() for k, p in model.named_parameters().items()}
        sched = D.build_schedule(cfg.t_max, cfg.beta_start, cfg.beta_end)
        opt = TR.Adam(model.named_parameters(), cfg)
        clip = TR.clip_gradients

        def plant_inf(params, max_norm):
            params["patch_embed.w"].grad[0, 0] = np.inf
            return clip(params, max_norm)

        monkeypatch.setattr(TR, "clip_gradients", plant_inf)
        with pytest.raises(NumericFailure) as ei:
            TR.train_step(model, [one_example(dataset, cfg)], cfg, sched, opt,
                          [np.random.default_rng(7)], [np.random.default_rng(8)])
        assert "gradient norm" in str(ei.value)
        assert opt.t == 0
        for k, p in model.named_parameters().items():
            assert p.data.tobytes() == before[k].tobytes(), k

    def test_two_examples_peak_like_one(self, dataset):
        # each example's tape is freed before the next example's forward, so
        # a second example adds its batch-sized inputs, not a second tape
        import tracemalloc

        cfg = tiny_cfg()
        sched = D.build_schedule(cfg.t_max, cfg.beta_start, cfg.beta_end)
        ex = one_example(dataset, cfg)

        def peak(n):
            model = tiny_model()
            opt = TR.Adam(model.named_parameters(), cfg)
            rngs = [np.random.default_rng(7 + i) for i in range(2 * n)]
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                TR.train_step(model, [ex] * n, cfg, sched, opt, rngs[:n], rngs[n:])
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(2) < 1.3 * peak(1)

    def test_gradient_clipping_scales_to_ball(self):
        p = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        p.grad = np.full(4, 10.0, dtype=np.float32)
        pre = TR.clip_gradients({"p": p}, max_norm=1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)


class TestTapeSize:
    def test_desk_model_tape_nodes_do_not_grow(self, dataset, monkeypatch):
        # Ratchet on the op nodes one w8, alpha = 1 captioned example puts on
        # the tape, by op, walked from total_loss as perfbench's tape counter
        # walks it (the 132 parameter leaves it reaches are not counted).
        # Lower the counts when a change removes nodes.
        names = named_ops(monkeypatch)
        cfg = TR.TrainConfig()
        ex = one_example(dataset, tiny_cfg())
        model = B.VideoDenoiser(B.ModelConfig(), np.random.default_rng(0))
        sched = D.build_schedule(cfg.t_max, cfg.beta_start, cfg.beta_end)
        batch = D.make_batch(ex.clip, ex.partition, sched, np.random.default_rng(1))
        pred = model.forward(batch.xt, batch.t, ex.cond, ex.plan)
        loss = D.total_loss(batch, pred, D.loss_weights_for(ex.partition, cfg.lam), sched)
        ops = tape_ops(loss, names)
        assert ex.draw.alpha == 1 and len(ex.cond.text_tokens) > 0
        assert ops == {
            "linear": 55, "modulated_norm": 17, "gated_residual": 16, "attention": 12,
            "transpose": 9, "mlp": 5, "slice_": 4, "mul": 3, "add": 3, "reduce_mean": 2,
            "astype": 2, "reshape": 2, "concat": 2, "gather": 2, "reduce_sum": 1,
            "gaussian_kl": 1, "sigmoid": 1, "sub": 1}, ops  # 138 in all

    @pytest.mark.parametrize("alpha, frames, memory", [(1, 32, 4), (2, 8, 1)])
    def test_loss_tape_bytes_of_one_w32_example(self, alpha, frames, memory):
        # The loss of one desk w32 example (32x48 frames at alpha 1, 64x96
        # at alpha 2, memory_span_d 4) keeps at most 3 MB on the tape, the
        # 2.5 MB its backwards read: 6.9 MB when tape nodes held their
        # parents' values, 15.8 MB with the KL as eight generic ops over
        # full-size constants. Leaf predictions stand in for the forward's
        # outputs, which the loss reads the same way.
        import tracemalloc

        cfg = TR.TrainConfig()
        sched = D.build_schedule(cfg.t_max, cfg.beta_start, cfg.beta_end)
        rng = np.random.default_rng(alpha)
        shape = (frames, 3, 32 * alpha, 48 * alpha)
        part = D.FramePartition(frames, memory)
        batch = D.make_batch(rng.uniform(-1, 1, shape).astype(np.float32), part, sched, rng)
        pred = D.DenoisePrediction(
            Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True),
            Tensor(rng.uniform(0, 1, shape).astype(np.float32), requires_grad=True))
        weights = D.loss_weights_for(part, cfg.lam)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = D.total_loss(batch, pred, weights, sched)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert loss.requires_grad
        assert held <= 3 * 2**20, held / 2**20

    def test_w32_tape_megabytes_of_train_memory_tool(self):
        # Ratchet on the tape of one desk w32 example, forward and loss, as
        # `tools/train_memory.py --tape` measures it (about 1 s for both
        # alphas on a 2-core x86-64 box): 165.2 and 163.1 MB, where keeping
        # the 17 modulated-norm outputs for their readers took 190.7 and
        # 188.6 MB. Lower the bound when a change takes more off the tape.
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "tools" / "train_memory.py"
        spec = importlib.util.spec_from_file_location("train_memory", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        for alpha in (1, 2):
            cell = tool.tape_bytes(alpha)
            assert sum(op["nodes"] for op in cell["ops"].values()) == 138, cell
            assert cell["tape_mb"] <= 168, cell


class TestLossMasking:
    def test_memory_rows_never_enter_the_loss(self, dataset):
        cfg = tiny_cfg(phase_frames=(8,), memory_span_d=4)
        sched = D.build_schedule(cfg.t_max, cfg.beta_start, cfg.beta_end)
        ex = one_example(dataset, cfg, seed=9)
        batch = D.make_batch(ex.clip, ex.partition, sched, np.random.default_rng(10))
        rng = np.random.default_rng(11)
        eps_hat = Tensor(rng.normal(size=batch.x0.shape).astype(np.float32), requires_grad=True)
        v_hat = Tensor(rng.uniform(0, 1, batch.x0.shape).astype(np.float32), requires_grad=True)
        weights = D.loss_weights_for(ex.partition, cfg.lam)

        pred = D.DenoisePrediction(eps_hat, v_hat)
        loss_a = D.total_loss(batch, pred, weights, sched)
        loss_a.backward()
        grads_a = (eps_hat.grad.copy(), v_hat.grad.copy())

        # zero out everything the memory rows could contribute as targets
        masked = D.MemoryMaskedBatch(
            x0=batch.x0.copy(), partition=batch.partition, t=batch.t,
            eps=batch.eps, xt=batch.xt.copy())
        m = batch.partition.m_memory
        masked.x0[:m] = 0.0
        masked.xt[:m] = 0.0
        eps_hat.zero_grad()
        v_hat.zero_grad()
        loss_b = D.total_loss(masked, pred, weights, sched)
        loss_b.backward()

        assert loss_a.item() == loss_b.item()
        np.testing.assert_array_equal(grads_a[0], eps_hat.grad)
        np.testing.assert_array_equal(grads_a[1], v_hat.grad)


class TestCurriculumRun:
    def test_two_phases_two_checkpoints_and_continuity(self, dataset, tmp_path):
        cfg = tiny_cfg(phase_frames=(8, 16), phase_steps=(2, 2), token_budget=16)
        model = tiny_model(seed=3)
        res = TR.run_curriculum(model, dataset, cfg, tmp_path / "a",
                                log_path=tmp_path / "a.log")
        assert len(res.checkpoints) == 2
        assert res.checkpoints[0].name == "phase_0008.idck"

        # phase 0 of a two-phase run equals a single-phase run with the same seed
        model_b = tiny_model(seed=3)
        cfg_b = tiny_cfg(phase_frames=(8,), phase_steps=(2,), token_budget=16)
        res_b = TR.run_curriculum(model_b, dataset, cfg_b, tmp_path / "b")
        assert res.checkpoints[0].read_bytes() == res_b.checkpoints[0].read_bytes()

    def test_same_seed_identical_loss_curves(self, dataset, tmp_path):
        cfg = tiny_cfg(phase_steps=(3,))
        res_1 = TR.run_curriculum(tiny_model(seed=7), dataset, cfg, tmp_path / "r1")
        res_2 = TR.run_curriculum(tiny_model(seed=7), dataset, cfg, tmp_path / "r2")
        assert [r["loss"] for r in res_1.history] == [r["loss"] for r in res_2.history]

    def test_log_line_count_is_steps_plus_boundaries(self, dataset, tmp_path):
        cfg = tiny_cfg(phase_frames=(8, 16), phase_steps=(2, 3), token_budget=16)
        log = tmp_path / "run.log"
        res = TR.run_curriculum(tiny_model(), dataset, cfg, tmp_path / "ckpt",
                                log_path=log)
        lines = [json.loads(x) for x in log.read_text().splitlines()]
        assert len(lines) == (2 + 3) + 2
        # transitions land exactly at the configured step budgets
        assert [r["phase"] for r in res.history] == [0, 0, 1, 1, 1]

    def test_progress_gets_every_step_record(self, dataset, tmp_path):
        cfg = tiny_cfg(phase_frames=(8, 16), phase_steps=(2, 1), token_budget=16)
        records = []
        res = TR.run_curriculum(tiny_model(), dataset, cfg, tmp_path / "p",
                                progress=records.append)
        assert [r["step"] for r in records] == [1, 2, 3]
        assert records == res.history

    def test_window_extrapolation_no_shape_errors(self, dataset, tmp_path):
        # a model trained on 8-frame windows accepts a 16-frame input
        cfg = tiny_cfg()
        model = tiny_model()
        TR.run_curriculum(model, dataset, cfg, tmp_path / "c")
        xt = np.zeros((16, 3, 16, 24), dtype=np.float32)
        pred = model.forward(xt, np.zeros(16, dtype=np.int64), None,
                             B.RopePlan(np.arange(16)))
        assert pred.eps_hat.shape == (16, 3, 16, 24)


class TestCheckpointRoundTrip:
    def test_save_load_forward_bit_identical(self, tmp_path):
        model = tiny_model(seed=1)
        rng = np.random.default_rng(2)
        for p in model.parameters():
            p.data = rng.normal(0, 0.05, p.shape).astype(p.dtype)
        xt = rng.normal(size=(4, 3, 16, 24)).astype(np.float32)
        t = np.array([0, 0, 9, 9])
        plan = B.RopePlan(np.arange(4))
        before = model.forward(xt, t, None, plan).eps_hat.data

        path = tmp_path / "m.idck"
        CK.save_tensors(path, model.named_parameters())
        fresh = tiny_model(seed=99)
        CK.load_into(path, fresh.named_parameters())
        after = fresh.forward(xt, t, None, plan).eps_hat.data
        assert before.tobytes() == after.tobytes()

    def test_failed_save_leaves_old_checkpoint(self, tmp_path):
        path = tmp_path / "m.idck"
        CK.save_tensors(path, {"a": Tensor(np.arange(3, dtype=np.float32))})
        old = path.read_bytes()
        with pytest.raises(KeyError):  # int32 has no dtype code; "a" is written first
            CK.save_tensors(path, {"a": Tensor(np.ones(3, dtype=np.float32)),
                                   "b": np.zeros(2, dtype=np.int32)})
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.idck"]

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "m.idck"
        CK.save_tensors(path, {"a": Tensor(np.zeros(3, dtype=np.float32))})
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        from longroad.errors import FormatError
        with pytest.raises(FormatError) as ei:
            CK.load_tensors(path)
        assert ei.value.offset == 0

    def test_truncation_offset(self, tmp_path):
        path = tmp_path / "m.idck"
        CK.save_tensors(path, {"a": Tensor(np.arange(8, dtype=np.float32))})
        path.write_bytes(path.read_bytes()[:-8])
        from longroad.errors import FormatError
        with pytest.raises(FormatError) as ei:
            CK.load_tensors(path)
        assert ei.value.offset is not None

    def test_name_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.idck"
        CK.save_tensors(path, {"a": Tensor(np.zeros(2, dtype=np.float32))})
        from longroad.errors import FormatError
        with pytest.raises(FormatError):
            CK.load_into(path, {"b": Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)})
