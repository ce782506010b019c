"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The smoke-training
criterion dominates the runtime (several minutes of CPU training); everything
else finishes in seconds.
"""

import json
import time

import numpy as np
import pytest

from longroad import backbone as B
from longroad import checkpoint as CK
from longroad import config as CFG
from longroad import curriculum as CU
from longroad import diffusion as D
from longroad import metrics as M
from longroad import rollout as RO
from longroad import tensor as T
from longroad import toyroad as R
from longroad import training as TR
from longroad.cli import main as cli_main
from longroad.seeding import rng_for
from longroad.tensor import Tensor


def _ok(n, msg):
    print(f"\nACCEPTANCE {n} PASS: {msg}")


def tiny_model_config(**kw):
    base = dict(depth=2, hidden=8, heads=2, patch=2, channels=1, t_max=20,
                text_vocab=8, max_original_index=512)
    base.update(kw)
    return B.ModelConfig(**base)


class _ExactNoiseOracle:
    def __init__(self, x0, schedule):
        self.x0 = x0
        self.schedule = schedule

    def forward(self, xt, t_vec, cond, plan):
        abar = self.schedule.alpha_bar[np.asarray(t_vec)].reshape(-1, 1, 1, 1)
        safe = np.maximum(1.0 - abar, 1e-12)
        eps = np.where(abar == 1.0, 0.0, (xt - np.sqrt(abar) * self.x0) / np.sqrt(safe))
        return D.DenoisePrediction(Tensor(eps.astype(np.float64)),
                                   Tensor(np.zeros_like(eps)))


def test_criterion_01_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(0)

    def check(fn, inputs, tol=1e-4):
        for t in inputs:
            t.zero_grad()
        fn(*inputs).backward()
        fd = T.finite_difference(fn, inputs)
        for t, g in zip(inputs, fd):
            rel = np.abs(t.grad - g) / (np.abs(g) + 1e-8)
            assert np.max(rel) <= tol

    def t64(shape, lo=-1.0, hi=1.0):
        return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)

    # every differentiable op
    check(lambda a, b: T.reduce_sum(T.mul(T.matmul(a, b), T.matmul(a, b))),
          [t64((3, 4)), t64((4, 2))])
    check(lambda a, b: T.reduce_mean(T.mul(T.add(a, b), T.sub(a, b))),
          [t64((4, 3)), t64((3,))])
    check(lambda a, b: T.reduce_sum(T.div(a, b)), [t64((3, 3)), t64((3, 3), 0.5, 1.5)])
    check(lambda x: T.reduce_sum(T.gelu(x)), [t64((5, 5))])
    check(lambda x: T.reduce_sum(T.exp(x)), [t64((4, 4))])
    check(lambda x: T.reduce_sum(T.log(x)), [t64((4, 4), 0.5, 2.0)])
    check(lambda x: T.reduce_sum(T.sqrt(x)), [t64((4, 4), 0.5, 2.0)])
    check(lambda x: T.reduce_sum(T.sigmoid(x)), [t64((4, 4))])
    check(lambda x, w: T.reduce_sum(T.mul(T.softmax(x, axis=-1), w)),
          [t64((3, 5)), t64((3, 5))])
    check(lambda x, g, b: T.reduce_sum(T.exp(T.layer_norm(x, g, b))),
          [t64((3, 6)), t64((6,)), t64((6,))])
    check(lambda x: T.reduce_sum(T.mul(T.transpose(T.reshape(x, (2, 6)), (1, 0)), 2.0)),
          [t64((3, 4))])
    check(lambda x: T.reduce_sum(T.concat([x[0:2], x[1:3]], axis=0)), [t64((4, 2))])
    check(lambda tb: T.reduce_sum(T.mul(T.gather(tb, [0, 2, 2]), 3.0)), [t64((4, 3))])

    # composed 2-block backbone at float64
    model = B.VideoDenoiser(tiny_model_config(), np.random.default_rng(1), dtype=np.float64)
    prng = np.random.default_rng(2)
    for p in model.parameters():
        p.data = prng.normal(0, 0.08, p.shape)
    xt = prng.normal(size=(3, 1, 4, 4))
    tvec = np.array([0, 6, 6])
    cond = B.ConditionSet(np.array([1, 2]), np.zeros(3, dtype=np.int64), 10.0, 4.0, 4.0)
    plan = B.RopePlan(np.array([0, 2, 4]))
    r1 = prng.normal(size=(3, 1, 4, 4))
    r2 = prng.normal(size=(3, 1, 4, 4))

    def loss_fn(*_):
        pred = model.forward(xt, tvec, cond, plan)
        return T.add(T.reduce_sum(T.mul(pred.eps_hat, Tensor(r1))),
                     T.reduce_sum(T.mul(pred.v_hat, Tensor(r2))))

    model.zero_grad()
    loss_fn().backward()
    fd_rng = np.random.default_rng(3)
    checked = 0
    for name, p in model.named_parameters().items():
        fd = T.finite_difference(loss_fn, [p], max_coords=5, rng=fd_rng)[0]
        mask = np.isfinite(fd)
        got = p.grad[mask] if p.grad is not None else np.zeros(int(mask.sum()))
        want = fd[mask]
        ok = (np.abs(got - want) / (np.abs(want) + 1e-8) <= 1e-4) | (np.abs(got - want) <= 1e-7)
        assert ok.all(), name
        checked += int(mask.sum())
    elapsed = time.time() - start
    assert elapsed <= 60
    _ok(1, f"all op and {checked}-coordinate backbone gradients within 1e-4 ({elapsed:.1f}s)")


def test_criterion_02_schedule_and_marginal():
    start = time.time()
    s = D.build_schedule(1000, 1e-4, 0.02)
    acc, oracle = 1.0, [1.0]
    for b in np.linspace(1e-4, 0.02, 1000):
        acc *= 1.0 - b
        oracle.append(acc)
    assert np.max(np.abs(s.alpha_bar - np.array(oracle))) <= 1e-12

    sched = D.build_schedule(8, 0.02, 0.2)
    n, x0 = 10_000, 0.7
    rng = np.random.default_rng(11)
    x = np.full(n, x0)
    for t in range(1, 9):
        x = np.sqrt(sched.alpha[t]) * x + np.sqrt(1 - sched.alpha[t]) * rng.standard_normal(n)
    abar = sched.alpha_bar[8]
    assert abs(x.mean() - np.sqrt(abar) * x0) < 3 * np.sqrt((1 - abar) / n)
    assert abs(x.var() - (1 - abar)) < 3 * (1 - abar) * np.sqrt(2.0 / (n - 1))
    elapsed = time.time() - start
    assert elapsed <= 30
    _ok(2, f"alpha_bar within 1e-12 of the product oracle; chain matches marginal within 3 sigma ({elapsed:.1f}s)")


def test_criterion_03_memory_retention():
    start = time.time()
    sched = D.build_schedule(50, 1e-3, 0.05)
    # randomized partitions: bit-equal memory rows in the noised tensor
    for trial in range(25):
        rng = np.random.default_rng(trial)
        l = int(rng.integers(2, 10))
        m = int(rng.integers(1, l))
        x0 = rng.normal(size=(l, 2, 4, 4)).astype(np.float32)
        batch = D.make_batch(x0, D.FramePartition(l, m), sched, rng)
        assert batch.xt[:m].tobytes() == x0[:m].tobytes()

        # zero loss and zero gradient on memory-frame predictions
        eps_hat = Tensor(rng.normal(size=x0.shape).astype(np.float32), requires_grad=True)
        v_hat = Tensor(rng.uniform(0, 1, x0.shape).astype(np.float32), requires_grad=True)
        pred = D.DenoisePrediction(eps_hat, v_hat)
        lw = D.loss_weights_for(batch.partition, 2.0)
        D.total_loss(batch, pred, lw, sched).backward()
        assert np.all(eps_hat.grad[:m] == 0) and np.all(v_hat.grad[:m] == 0)

    # sampled clips pin memory bit-exactly
    rng = np.random.default_rng(99)
    x0 = rng.uniform(-1, 1, (5, 1, 4, 4)).astype(np.float32)
    part = D.FramePartition(5, 2)
    model = _ExactNoiseOracle(x0.astype(np.float64), sched)
    out = D.sample_clip(model, x0[:2], part, sched, steps=10, rng=np.random.default_rng(1))
    assert out[:2].tobytes() == x0[:2].tobytes()
    elapsed = time.time() - start
    assert elapsed <= 30
    _ok(3, f"memory rows bit-equal under noising, loss-free, and pinned in sampling ({elapsed:.1f}s)")


def test_criterion_04_retention_weights():
    start = time.time()
    assert D.memory_weight(0.0, 3.7) == 1.0
    lam = 1.3
    part = D.FramePartition(9, 4)
    lw = D.loss_weights_for(part, lam)
    t_norm = np.arange(5) / 4.0
    np.testing.assert_array_equal(lw.weights, np.exp(-lam * t_norm))

    # hand-computed weighted sum on a 3-future-frame fixture
    sched = D.build_schedule(60, 1e-3, 0.04)
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(4, 1, 2, 2)).astype(np.float32)
    batch = D.make_batch(x0, D.FramePartition(4, 1), sched, rng)
    pred = D.DenoisePrediction(
        Tensor(rng.normal(size=x0.shape).astype(np.float32)),
        Tensor(np.full(x0.shape, 0.4, dtype=np.float32)))
    lw = D.loss_weights_for(batch.partition, lam)
    total = D.total_loss(batch, pred, lw, sched).item()
    hand = 0.0
    for i in range(3):
        sl = slice(1 + i, 2 + i)
        mse_i = D.mse_loss(batch.eps[i:i + 1], pred.eps_hat[sl]).item()
        vb_i = D.vb_loss((pred.eps_hat[sl], pred.v_hat[sl]), batch.x0[sl],
                         batch.xt[sl], batch.t[sl], sched).item()
        hand += D.memory_weight(i / 2.0, lam) * (mse_i + vb_i)
    assert total == pytest.approx(hand, rel=1e-9)
    elapsed = time.time() - start
    assert elapsed <= 5
    _ok(4, f"weight law exact at float64 and fixture sum matches hand loop ({elapsed:.1f}s)")


def test_criterion_05_density_and_rope():
    start = time.time()
    meta = CU.ClipMeta(fps=10, base_h=32, base_w=48, base_l=64)
    d_span = 4
    for window in (8, 16, 32):
        for alpha in (1, 2):
            draw = None
            for seed in range(20):
                cand = CU.draw_density(np.random.default_rng(seed), meta, [alpha], window)
                draw = cand
                break
            assert draw.l_curr * alpha**2 == window
            assert CU.memory_len(alpha, d_span) * alpha**2 == d_span
            B.RopePlan(draw.indices)  # always a valid position plan

    # temporal attention logits agree across subsampling rates sharing indices
    model = B.VideoDenoiser(tiny_model_config(), np.random.default_rng(0))
    prng = np.random.default_rng(1)
    for p in model.parameters():
        p.data = prng.normal(0, 0.05, p.shape).astype(np.float32)
    attn = model.blocks[0].temporal_attn
    x_dense = prng.normal(size=(8, 3, 8)).astype(np.float32)
    ht_dense = Tensor(np.ascontiguousarray(x_dense.transpose(1, 0, 2)))
    ht_sub = Tensor(np.ascontiguousarray(x_dense[[0, 4]].transpose(1, 0, 2)))
    lg_dense = attn.logits(ht_dense, ht_dense,
                           B.rope_tables(B.RopePlan(np.arange(8)), 4, np.float32,
                                         model.cfg.rope_base)).data
    lg_sub = attn.logits(ht_sub, ht_sub,
                         B.rope_tables(B.RopePlan(np.array([0, 4])), 4, np.float32,
                                       model.cfg.rope_base)).data
    np.testing.assert_allclose(lg_sub, lg_dense[:, :, [0, 4]][:, :, :, [0, 4]], atol=1e-5)
    elapsed = time.time() - start
    assert elapsed <= 60
    _ok(5, f"density/memory laws hold on the grid; shared-index logits within 1e-5 ({elapsed:.1f}s)")


def test_criterion_06_rollout_contracts():
    start = time.time()
    model = B.VideoDenoiser(tiny_model_config(depth=1), np.random.default_rng(0))
    sched = D.build_schedule(20, 1e-3, 0.05)
    for m, l, k in ((8, 32, 1), (8, 32, 3), (16, 128, 12)):
        cond_frames = np.random.default_rng(m).uniform(-1, 1, (m, 1, 8, 8)).astype(np.float32)
        state = RO.init(cond_frames, fps=10)
        settings = RO.SamplerSettings(l_window=l, steps=2)
        s1 = RO.step(state, model, sched, None, settings, np.random.default_rng(1))
        assert s1.frames[:m].tobytes() == cond_frames.tobytes()
        frames = RO.run(s1, model, sched, None, settings, k - 1, np.random.default_rng(2))
        assert frames.shape[0] == m + k * (l - m)

    cond_frames = np.random.default_rng(0).uniform(-1, 1, (4, 1, 8, 8)).astype(np.float32)
    settings = RO.SamplerSettings(l_window=8, steps=2)
    a = RO.run(RO.init(cond_frames, 10), model, sched, None, settings, 2,
               np.random.default_rng(111))
    b = RO.run(RO.init(cond_frames, 10), model, sched, None, settings, 2,
               np.random.default_rng(222))
    assert a[:4].tobytes() == b[:4].tobytes() and a[4:].tobytes() != b[4:].tobytes()
    elapsed = time.time() - start
    assert elapsed <= 120
    _ok(6, f"frame-count law, overlap equality and seed diversity hold ({elapsed:.1f}s)")


def test_criterion_07_metric_fixtures():
    start = time.time()
    cfg = M.MetricConfig(search_radius=4, block=8)

    master = np.random.default_rng(0).integers(0, 256, (3, 80, 60)).astype(np.uint8)
    vid = np.stack([master[:, :, 4 + 2 * k:4 + 2 * k + 48][:, :32] for k in range(5)])
    flow = M.estimate_flow(vid[0], vid[1], cfg)
    assert np.all(np.abs(flow.u) == 2) and np.all(flow.v == 0)
    assert M.warp_error(vid, cfg) <= 1e-9
    assert M.optical_flow_score(vid, cfg) == pytest.approx(2.0, abs=1e-9)

    # MAWE arithmetic: mawe == warp / (9.5 * ofs) on a measurable video
    noisy = np.clip(vid.astype(np.float64) / 255.0
                    + np.random.default_rng(1).normal(0, 0.03, vid.shape), 0, 1)
    w = M.warp_error(noisy, cfg)
    ofs = M.optical_flow_score(noisy, cfg)
    assert M.mawe(noisy, cfg) == pytest.approx(w / (9.5 * ofs), rel=1e-12)
    assert abs(19.0 / (9.5 * 1.0) - 2.0) == 0.0

    a = M.FeatureStats(np.array([0.0]), np.array([[1.0]]))
    b = M.FeatureStats(np.array([1.0]), np.array([[1.0]]))
    c = M.FeatureStats(np.array([0.0]), np.array([[4.0]]))
    assert M.frechet_distance(a, b) == pytest.approx(1.0, abs=1e-12)
    assert M.frechet_distance(a, c) == pytest.approx(1.0, abs=1e-12)

    const = np.repeat(master[None, :, :32, :48], 6, axis=0)
    assert M.background_consistency(const, cfg) == pytest.approx(1.0, abs=1e-9)

    rng = np.random.default_rng(2)
    ref_vid = rng.integers(0, 256, (80, 3, 32, 48)).astype(np.uint8)
    rf, rs = M.video_features(ref_vid, cfg.feature_seed)
    curves = M.windowed_curves(rng.integers(0, 256, (120, 3, 32, 48)).astype(np.uint8),
                               cfg, M.feature_stats(rf), M.feature_stats(rs))
    assert [p["frame"] for p in curves] == [40, 80, 120]
    elapsed = time.time() - start
    assert elapsed <= 60
    _ok(7, f"translation, MAWE, Frechet, consistency and window fixtures hold ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def smoke_artifacts(tmp_path_factory):
    """Desk-scale overfit run shared by the smoke criterion."""
    tmp = tmp_path_factory.mktemp("smoke")
    root = R.generate_dataset(tmp / "data", clips=8, frames=64, height=32,
                              width=48, fps=10, seed=0)
    dataset = R.ClipDataset(root)
    cfg = CFG.load_config(None)
    model = B.VideoDenoiser(CFG.model_config(cfg), rng_for(cfg["train"]["seed"], "init"))
    t0 = time.time()
    result = TR.run_curriculum(model, dataset, CFG.train_config(cfg), tmp / "run",
                               log_path=tmp / "train_log.jsonl")
    train_minutes = (time.time() - t0) / 60.0
    return dict(tmp=tmp, dataset=dataset, cfg=cfg, model=model, result=result,
                train_minutes=train_minutes)


def test_criterion_08_smoke_training(smoke_artifacts):
    art = smoke_artifacts
    losses = [r["loss"] for r in art["result"].history]
    assert len(losses) == 500
    baseline = float(np.mean(losses[:10]))
    tail = float(np.mean(losses[-10:]))
    drop = 1.0 - tail / baseline
    assert drop >= 0.80, f"loss fell only {drop * 100:.1f}% (baseline {baseline:.3f}, tail {tail:.3f})"
    assert art["train_minutes"] <= 30.0

    # 40-frame rollout on a held-in scene
    cfg = art["cfg"]
    dataset = art["dataset"]
    schedule = D.build_schedule(cfg["train"]["t_max"], cfg["train"]["beta_start"],
                                cfg["train"]["beta_end"])
    m_mem = cfg["train"]["memory_span_d"]
    base = dataset.rendered_at_scale(0, 1)
    rec = dataset.record(0)
    settings = RO.SamplerSettings(l_window=32, steps=50)
    cond = B.ConditionSet(text_tokens=R.encode_caption(rec.caption),
                          command_ids=rec.commands[:32].astype(np.int64),
                          fps=10.0, height=32.0, width=48.0)
    state = RO.init(base[:m_mem], fps=10)
    frames = RO.run(state, art["model"], schedule, cond, settings, 2,
                    rng_for(7, "sampler"))
    gen40 = R.to_pixel_space(frames[:40])

    ref_feats = np.concatenate([
        M.video_features(dataset.record(i).frames, cfg["eval"]["feature_seed"])[0]
        for i in range(len(dataset))])
    ref_stats = M.feature_stats(ref_feats)
    gen_stats = M.feature_stats(M.video_features(gen40, cfg["eval"]["feature_seed"])[0])
    noise = rng_for(13, "noise").integers(0, 256, gen40.shape).astype(np.uint8)
    noise_stats = M.feature_stats(M.video_features(noise, cfg["eval"]["feature_seed"])[0])

    fid_gen = M.frechet_distance(gen_stats, ref_stats)
    fid_noise = M.frechet_distance(noise_stats, ref_stats)
    assert fid_gen <= fid_noise / 5.0, f"fid_gen={fid_gen:.4f} fid_noise={fid_noise:.4f}"

    bc = M.background_consistency(gen40, M.MetricConfig(feature_seed=cfg["eval"]["feature_seed"]))
    assert bc >= 0.9, f"background consistency {bc:.3f}"
    _ok(8, f"loss fell {drop * 100:.0f}% in {art['train_minutes']:.1f} min; "
           f"fid {fid_gen:.3f} vs noise {fid_noise:.3f}; consistency {bc:.3f}")


def test_criterion_09_degradation_curves(tmp_path):
    # train a tiny model through the CLI, roll 120 frames, evaluate twice
    tiny = {
        "model": {"depth": 1, "hidden": 8, "heads": 2, "patch": 2, "channels": 3,
                  "t_max": 50, "text_vocab": 64, "max_original_index": 256},
        "data": {"clips": 2, "frames": 16, "height": 16, "width": 24, "fps": 10, "seed": 3},
        "train": {"phase_frames": [8], "phase_steps": [2], "token_budget": 8,
                  "alpha_set": [1], "memory_span_d": 4, "t_max": 50,
                  "beta_start": 1e-3, "beta_end": 0.05, "seed": 3},
        "rollout": {"l_window": 8, "steps": 2, "fps": 10},
        "eval": {"window": 40},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny))
    data = tmp_path / "data"
    assert cli_main(["datagen", "--out", str(data), "--clips", "2", "--frames", "16",
                     "--height", "16", "--width", "24", "--fps", "10", "--seed", "3"]) == 0
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(run)]) == 0
    ckpt = json.loads((run / "run_meta.json").read_text())["checkpoints"][-1]

    spec = R.random_scene(np.random.default_rng(0), 16)
    cond_path = tmp_path / "cond.toyr"
    R.write_clip(R.render_clip(spec, 16, 24, 4, 10), cond_path)
    gen_dir = tmp_path / "gen"
    gen_dir.mkdir()
    # 4 + 29 * 4 = 120 frames
    assert cli_main(["rollout", "--ckpt", ckpt, "--config", str(cfg_path),
                     "--cond", str(cond_path), "--iters", "29", "--seed", "5",
                     "--out", str(gen_dir / "roll.toyr")]) == 0
    assert R.read_clip(gen_dir / "roll.toyr").frames.shape[0] == 120

    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert cli_main(["eval", "--gen", str(gen_dir), "--ref", str(data),
                         "--config", str(cfg_path), "--window", "40",
                         "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    curves = report["per_clip"]["roll.toyr"]["curves"]
    assert [p["frame"] for p in curves] == [40, 80, 120]
    for p in curves:
        for key in ("fid_proxy", "mawe", "background_consistency"):
            assert p[key] is not None and np.isfinite(p[key])
    _ok(9, "three-window curves emitted, finite, and bit-identical across runs")


def test_criterion_10_format_suite(tmp_path):
    spec = R.random_scene(np.random.default_rng(4), 16)
    rec = R.render_clip(spec, 16, 24, 8, 10)
    clip_path = tmp_path / "c.toyr"
    R.write_clip(rec, clip_path)
    back = R.read_clip(clip_path)
    assert back.frames.tobytes() == rec.frames.tobytes()

    blob = bytearray(clip_path.read_bytes())
    blob[1] = 0xFF
    (tmp_path / "bad.toyr").write_bytes(bytes(blob))
    from longroad.errors import FormatError
    with pytest.raises(FormatError) as ei:
        R.read_clip(tmp_path / "bad.toyr")
    assert ei.value.offset is not None

    model = B.VideoDenoiser(tiny_model_config(channels=3), np.random.default_rng(0))
    prng = np.random.default_rng(1)
    for p in model.parameters():
        p.data = prng.normal(0, 0.05, p.shape).astype(np.float32)
    ck = tmp_path / "m.idck"
    CK.save_tensors(ck, model.named_parameters())
    fresh = B.VideoDenoiser(tiny_model_config(channels=3), np.random.default_rng(77))
    CK.load_into(ck, fresh.named_parameters())
    xt = prng.normal(size=(3, 3, 4, 4)).astype(np.float32)
    tvec = np.array([0, 5, 5])
    plan = B.RopePlan(np.arange(3))
    assert (model.forward(xt, tvec, None, plan).eps_hat.data.tobytes()
            == fresh.forward(xt, tvec, None, plan).eps_hat.data.tobytes())

    corrupted = bytearray(ck.read_bytes())
    corrupted[:4] = b"ABCD"
    (tmp_path / "bad.idck").write_bytes(bytes(corrupted))
    with pytest.raises(FormatError) as ei:
        CK.load_tensors(tmp_path / "bad.idck")
    assert ei.value.offset == 0
    _ok(10, "clip and checkpoint round trips bit-exact; corrupt headers carry offsets")


@pytest.mark.parametrize("argv", [["--fps", "300"],
                                  ["--height", "70000", "--width", "8", "--clips", "1"]])
def test_datagen_rejects_header_overflow(tmp_path, capsys, argv):
    out = tmp_path / "data"
    assert cli_main(["datagen", "--out", str(out), "--frames", "2", *argv]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()  # rejected before any rendering


def test_rollout_rejects_frame_count_overflow(tmp_path, capsys):
    # default L = 32, M = 4: 4 + 2341 * 28 = 65552 frames; the checkpoint is
    # never read, so a missing one shows the check runs before any sampling
    out = tmp_path / "long.toyr"
    assert cli_main(["rollout", "--ckpt", str(tmp_path / "absent.idck"),
                     "--cond", "none", "--iters", "2341", "--out", str(out)]) == 1
    assert "65552" in capsys.readouterr().err
    assert not out.exists()


def test_non_utf8_names_are_format_errors(tmp_path):
    from longroad.errors import FormatError
    clip_path = tmp_path / "gen" / "c.toyr"
    clip_path.parent.mkdir()
    R.write_clip(R.render_clip(R.random_scene(np.random.default_rng(4), 16),
                               16, 24, 4, 10), clip_path)
    blob = bytearray(clip_path.read_bytes())
    blob[18 + 2] = 0xFF  # caption bytes start after magic, header and length
    clip_path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as ei:
        R.read_clip(clip_path)
    assert ei.value.offset == 20
    assert cli_main(["eval", "--gen", str(clip_path.parent), "--ref",
                     str(clip_path.parent), "--out", str(tmp_path / "r.json")]) == 2

    ck = tmp_path / "m.idck"
    CK.save_tensors(ck, {"weight": np.zeros(2, dtype=np.float32)})
    blob = bytearray(ck.read_bytes())
    blob[12 + 1] = 0xFE  # name bytes start after magic, header and length
    ck.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as ei:
        CK.load_tensors(ck)
    assert ei.value.offset == 13
