import json
from pathlib import Path

import numpy as np
import pytest

from longroad import metrics as M
from longroad import rollout as RO
from longroad import toyroad as R
from longroad.backbone import ConditionSet, VideoDenoiser
from longroad.checkpoint import load_into, save_tensors
from longroad.cli import build_parser, main
from longroad.config import load_config, model_config
from longroad.diffusion import build_schedule
from longroad.seeding import rng_for

TINY_CONFIG = {
    "model": {"depth": 1, "hidden": 8, "heads": 2, "patch": 2, "channels": 3,
              "t_max": 50, "text_vocab": 64, "max_original_index": 256},
    "data": {"clips": 2, "frames": 16, "height": 16, "width": 24, "fps": 10, "seed": 3},
    "train": {"phase_frames": [8], "phase_steps": [2], "token_budget": 8,
              "alpha_set": [1], "memory_span_d": 4, "t_max": 50,
              "beta_start": 1e-3, "beta_end": 0.05, "seed": 3},
    "rollout": {"l_window": 8, "steps": 2, "fps": 10},
    "eval": {"window": 8},
}

HELP_SNAPSHOT = (
    "usage: longroad [-h] {datagen,train,rollout,eval} ...\n"
    "\n"
    "Desk-scale long-horizon video world model lab.\n"
    "\n"
    "positional arguments:\n"
    "  {datagen,train,rollout,eval}\n"
    "    datagen             render a synthetic clip dataset\n"
    "    train               run the curriculum training loop\n"
    "    rollout             autoregressive long-video generation\n"
    "    eval                metric report over generated clips\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)


def write_config(tmp_path, cfg=None):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg or TINY_CONFIG))
    return path


def datagen(tmp_path, name="data", clips=2, frames=16, height=16, width=24, seed=3):
    out = tmp_path / name
    rc = main(["datagen", "--out", str(out), "--clips", str(clips),
               "--frames", str(frames), "--height", str(height),
               "--width", str(width), "--fps", "10", "--seed", str(seed)])
    assert rc == 0
    return out


class TestHelp:
    def test_top_level_help_snapshot(self):
        assert build_parser().format_help() == HELP_SNAPSHOT

    @pytest.mark.parametrize("argv", [[], ["rollout", "--iters", "abc"]])
    def test_parse_error_exit_one(self, capsys, argv):
        assert main(argv) == 1
        assert "usage error" in capsys.readouterr().err


class TestDatagen:
    def test_writes_clips_and_manifest(self, tmp_path):
        out = datagen(tmp_path, clips=4)
        files = sorted(out.glob("*.toyr"))
        assert len(files) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["clips"] == 4 and "config_hash" in manifest

    def test_rerun_byte_identical(self, tmp_path):
        a = datagen(tmp_path, "a")
        b = datagen(tmp_path, "b")
        for fa, fb in zip(sorted(a.glob("*.toyr")), sorted(b.glob("*.toyr"))):
            assert fa.read_bytes() == fb.read_bytes()

    @pytest.mark.parametrize("argv", [["--height", "30"], ["--seed", "-1"]])
    def test_bad_size_or_seed_exit_one(self, tmp_path, capsys, argv):
        # 30 rows do not tile into the default 4x4 patches; seeds key
        # numpy seed sequences, which take no negative entries
        rc = main(["datagen", "--out", str(tmp_path / "d"), "--clips", "1",
                   "--frames", "4", *argv])
        assert rc == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_zero_frames_usage_error(self, tmp_path):
        rc = main(["datagen", "--out", str(tmp_path / "x"), "--frames", "0"])
        assert rc == 1


class TestTrain:
    def test_missing_dataset_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["train", "--config", str(cfg), "--data",
                   str(tmp_path / "nope"), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    def test_completes_and_logs(self, tmp_path):
        data = datagen(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(data),
                   "--out", str(out)])
        assert rc == 0
        log_lines = (out / "train_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 2 + 1  # steps + phase boundaries
        meta = json.loads((out / "run_meta.json").read_text())
        assert "config_hash" in meta and len(meta["checkpoints"]) == 1

    def test_short_clips_exit_two_before_step_one(self, tmp_path, capsys):
        # 8-frame clips cannot feed the second phase's 16-frame window: no
        # phase-1 checkpoint or log line may come first
        data = datagen(tmp_path, frames=8)
        cfg = write_config(tmp_path, {**TINY_CONFIG, "train": {
            **TINY_CONFIG["train"], "phase_frames": [8, 16], "phase_steps": [2, 2]}})
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"dataset {data}: clips have 8 frames, phase needs 16" in err
        assert not list(out.glob("*.idck")) and not (out / "train_log.jsonl").exists()

    @pytest.mark.parametrize("shape, problem", [
        (dict(frames=4), "frames 4, manifest 16"),
        (dict(height=8, width=12), "height 8, manifest 16; width 12, manifest 24"),
    ])
    def test_clip_unlike_its_manifest_exit_two_before_step_one(self, tmp_path, capsys, shape,
                                                               problem):
        # a clip copied in from another dataset: unchecked, too few frames
        # fail mid-run in an IndexError and a smaller frame trains silently
        data = datagen(tmp_path)
        other = datagen(tmp_path, "other", **shape)
        clip = sorted(data.glob("*.toyr"))[1]
        clip.write_bytes(sorted(other.glob("*.toyr"))[1].read_bytes())
        out = tmp_path / "run"
        rc = main(["train", "--config", str(write_config(tmp_path)), "--data", str(data),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"clip {clip} does not match the dataset: {problem}" in err
        assert not list(out.glob("*.idck")) and not (out / "train_log.jsonl").exists()

    def test_unknown_config_key_exit_one(self, tmp_path):
        data = datagen(tmp_path)
        bad = dict(TINY_CONFIG)
        bad["train"] = dict(bad["train"], typo_key=1)
        cfg = write_config(tmp_path, bad)
        rc = main(["train", "--config", str(cfg), "--data", str(data),
                   "--out", str(tmp_path / "run")])
        assert rc == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # lr 1e30 overflows on purpose
    def test_diverging_loss_exit_three_names_step(self, tmp_path, capsys):
        data = datagen(tmp_path)
        cfg = write_config(tmp_path, {**TINY_CONFIG,
                                      "train": {**TINY_CONFIG["train"], "lr": 1e30}})
        rc = main(["train", "--config", str(cfg), "--data", str(data),
                   "--out", str(tmp_path / "run")])
        assert rc == 3
        err = capsys.readouterr().err
        # the message numbers steps as the log does: step 1 is logged, step 2 fails
        assert "numeric failure: aborting at step 2 phase 0: non-finite" in err
        log = (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()
        assert json.loads(log[-1])["step"] == 1

    @pytest.mark.parametrize("manifest, key", [(b"{not json", "manifest"),
                                               (b'{"clips": 2}', "'frames'"),
                                               (b'{"clips": 2, "frames": 16, "height": 16, '
                                                b'"width": 24, "seed": 3}', "'fps'"),
                                               (b'{"clips": 2, "frames": 16, "height": 16, '
                                                b'"width": 24, "fps": "10", "seed": 3}', "'fps'")])
    def test_bad_manifest_exit_two(self, tmp_path, capsys, manifest, key):
        data = datagen(tmp_path)
        (data / "manifest.json").write_bytes(manifest)
        rc = main(["train", "--config", str(write_config(tmp_path)), "--data", str(data),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(data / "manifest.json") in err and key in err


@pytest.fixture()
def trained(tmp_path):
    data = datagen(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out)]) == 0
    ckpt = json.loads((out / "run_meta.json").read_text())["checkpoints"][-1]
    return dict(data=data, cfg=cfg, ckpt=ckpt, tmp=tmp_path)


def write_condition(tmp_path, frames=4, seed=0, fps=10):
    spec = R.random_scene(np.random.default_rng(seed), 16)
    rec = R.render_clip(spec, 16, 24, frames, fps)
    path = tmp_path / "cond.toyr"
    R.write_clip(rec, path)
    return path


def write_noise_clip(path, shape, fps=10):
    """A clip of seeded random pixels with the given (N, C, H, W) shape."""
    frames = np.random.default_rng(0).integers(0, 256, shape).astype(np.uint8)
    R.write_clip(R.ClipRecord(frames=frames, fps=fps, caption="noise",
                              commands=np.zeros(shape[0], np.uint8)), path)
    return path


class TestRollout:
    def test_frame_arithmetic(self, trained):
        cond = write_condition(trained["tmp"])
        out = trained["tmp"] / "gen.toyr"
        rc = main(["rollout", "--ckpt", trained["ckpt"], "--config",
                   str(trained["cfg"]), "--cond", str(cond), "--iters", "3",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        rec = R.read_clip(out)
        assert rec.frames.shape[0] == 4 + 3 * (8 - 4)
        sidecar = json.loads((out.parent / "gen.toyr.json").read_text())
        assert "config_hash" in sidecar

    def test_twelve_iteration_arithmetic(self, tmp_path):
        # M=8, L=32: 12 iterations -> 296 frames
        cfg_dict = json.loads(json.dumps(TINY_CONFIG))
        cfg_dict["train"]["memory_span_d"] = 8
        cfg_dict["train"]["phase_frames"] = [16]
        cfg_dict["train"]["token_budget"] = 16
        cfg_dict["rollout"]["l_window"] = 32
        data = datagen(tmp_path)
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        ckpt = json.loads((out / "run_meta.json").read_text())["checkpoints"][-1]
        cond = write_condition(tmp_path, frames=8)
        gen = tmp_path / "long.toyr"
        rc = main(["rollout", "--ckpt", ckpt, "--config", str(cfg), "--cond",
                   str(cond), "--iters", "12", "--seed", "0", "--out", str(gen)])
        assert rc == 0
        assert R.read_clip(gen).frames.shape[0] == 296

    def test_seed_diversity_contract(self, trained):
        cond = write_condition(trained["tmp"])
        outs = []
        for seed in ("1", "2"):
            out = trained["tmp"] / f"gen_{seed}.toyr"
            rc = main(["rollout", "--ckpt", trained["ckpt"], "--config",
                       str(trained["cfg"]), "--cond", str(cond), "--iters", "2",
                       "--seed", seed, "--out", str(out)])
            assert rc == 0
            outs.append(R.read_clip(out).frames)
        a, b = outs
        assert a[:4].tobytes() == b[:4].tobytes()
        assert a[4:].tobytes() != b[4:].tobytes()

    def test_text_only_start(self, trained):
        out = trained["tmp"] / "t2v.toyr"
        rc = main(["rollout", "--ckpt", trained["ckpt"], "--config",
                   str(trained["cfg"]), "--cond", "none", "--iters", "2",
                   "--caption", "front camera. day. 0 vehicles. ego straight.",
                   "--out", str(out)])
        assert rc == 0
        assert R.read_clip(out).frames.shape[0] == 4 + 2 * 4

    @pytest.mark.parametrize("cond_frames", [0, 4])  # 0: --cond none
    def test_streamed_clip_equals_run_then_write(self, trained, cond_frames):
        cfg = load_config(trained["cfg"])
        model = VideoDenoiser(model_config(cfg), rng_for(cfg["train"]["seed"], "init"))
        load_into(trained["ckpt"], model.named_parameters())
        schedule = build_schedule(50, 1e-3, 0.05)
        settings = RO.SamplerSettings(l_window=8, steps=2)
        null = ConditionSet([], np.zeros(8), 10.0, 16.0, 24.0, null_flag=True)
        rng = rng_for(1, "sampler")
        if cond_frames:
            cond_path = write_condition(trained["tmp"], frames=cond_frames)
            state = RO.init(R.to_model_space(R.read_clip(cond_path).frames), 10)
            frames = RO.run(state, model, schedule, null, settings, 3, rng)
        else:
            cond_path = "none"
            state = RO.bootstrap(model, schedule, null, settings, 4, (3, 16, 24), 10, rng)
            frames = RO.run(state, model, schedule, null, settings, 2, rng)
        want = trained["tmp"] / "want.toyr"
        R.write_clip(R.ClipRecord(frames=R.to_pixel_space(frames), fps=10,
                                  caption="unconditional rollout",
                                  commands=np.zeros(len(frames), np.uint8)), want)
        out = trained["tmp"] / "gen.toyr"
        assert main(["rollout", "--ckpt", trained["ckpt"], "--config", str(trained["cfg"]),
                     "--cond", str(cond_path), "--iters", "3", "--seed", "1",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == want.read_bytes()
        records = [json.loads(line) for line in
                   (trained["tmp"] / "gen.toyr.chunks.jsonl").read_text().splitlines()]
        assert [r["chunk"] for r in records] == [0, 1, 2]
        assert [r["frames_written"] for r in records] == [8, 12, 16]
        assert all(r["finite"] and r["wall_s"] > 0 and r["ms_per_step"] > 0 for r in records)
        assert (records[0]["seam"] is None) == (cond_frames == 0)
        assert all(r["seam"] >= 0 and r["within"] >= 0 for r in records[1:])
        assert [sorted(r) for r in records] == [sorted(records[0])] * 3

    @pytest.mark.parametrize("cond_frames", [0, 4])  # 0: --cond none
    def test_uncaptioned_rollout_conditions_on_null_at_rollout_fps(self, trained, monkeypatch,
                                                                   cond_frames):
        # the condition training's dropout shows the model: the null row with
        # the clip's fps and size; at guidance 1.5 the guidance forward, the
        # same call again, is skipped
        cfg = write_config(trained["tmp"], {**TINY_CONFIG, "rollout": {
            **TINY_CONFIG["rollout"], "guidance_scale": 1.5}})
        seen = []
        forward = VideoDenoiser.forward

        def recording(model, xt, t, cond, plan):
            seen.append(cond)
            return forward(model, xt, t, cond, plan)

        monkeypatch.setattr(VideoDenoiser, "forward", recording)
        cond = str(write_condition(trained["tmp"])) if cond_frames else "none"
        assert main(["rollout", "--ckpt", trained["ckpt"], "--config", str(cfg),
                     "--cond", cond, "--iters", "2",
                     "--out", str(trained["tmp"] / "u.toyr")]) == 0
        assert len(seen) == 2 * TINY_CONFIG["rollout"]["steps"]
        for c in seen:
            assert c is not None and c.null_flag
            assert (c.fps, c.height, c.width) == (10.0, 16.0, 24.0)

    def test_peak_memory_flat_in_iterations(self, trained):
        import tracemalloc

        def peak(iters):
            tracemalloc.start()
            try:
                assert main(["rollout", "--ckpt", trained["ckpt"], "--config",
                             str(trained["cfg"]), "--cond", "none", "--iters", str(iters),
                             "--out", str(trained["tmp"] / "p.toyr")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 27 more chunks are 108 frames, 0.5 MB in float32: none of them is held
        assert peak(30) - peak(3) < 64 * 1024

    def test_negative_seed_exit_one(self, trained):
        rc = main(["rollout", "--ckpt", trained["ckpt"], "--config", str(trained["cfg"]),
                   "--cond", "none", "--iters", "1", "--seed", "-1",
                   "--out", str(trained["tmp"] / "x.toyr")])
        assert rc == 1

    def test_missing_checkpoint_exit_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.idck"
        rc = main(["rollout", "--ckpt", str(missing), "--cond", "none", "--iters", "1",
                   "--out", str(tmp_path / "x.toyr")])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err

    def test_missing_condition_clip_exit_two(self, trained, capsys):
        missing = trained["tmp"] / "missing.toyr"
        rc = main(["rollout", "--ckpt", trained["ckpt"], "--config", str(trained["cfg"]),
                   "--cond", str(missing), "--iters", "1",
                   "--out", str(trained["tmp"] / "x.toyr")])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err

    def test_zero_iterations_usage_error(self, tmp_path, capsys):
        rc = main(["rollout", "--ckpt", str(tmp_path / "m.idck"), "--cond", "none",
                   "--iters", "0", "--out", str(tmp_path / "x.toyr")])
        assert rc == 1
        assert "usage error: --iters must be >= 1" in capsys.readouterr().err

    def test_checkpoint_shape_mismatch_exit_two(self, trained, capsys):
        # the tiny config's checkpoint has hidden 8; the model here has hidden 16
        wide = {**TINY_CONFIG, "model": {**TINY_CONFIG["model"], "hidden": 16}}
        rc = main(["rollout", "--ckpt", trained["ckpt"],
                   "--config", str(write_config(trained["tmp"], wide)), "--cond", "none",
                   "--iters", "1", "--out", str(trained["tmp"] / "x.toyr")])
        assert rc == 2
        assert "model expects" in capsys.readouterr().err

    def test_malformed_condition_clip_names_file(self, trained, capsys):
        cond = write_condition(trained["tmp"])
        cond.write_bytes(cond.read_bytes()[:-1])
        rc = main(["rollout", "--ckpt", trained["ckpt"], "--config", str(trained["cfg"]),
                   "--cond", str(cond), "--iters", "1",
                   "--out", str(trained["tmp"] / "x.toyr")])
        assert rc == 2
        assert f"clip {cond}: truncated pixel payload" in capsys.readouterr().err

    def test_wrong_condition_length_exit_two(self, trained):
        cond = write_condition(trained["tmp"], frames=6)
        rc = main(["rollout", "--ckpt", trained["ckpt"], "--config",
                   str(trained["cfg"]), "--cond", str(cond), "--iters", "1",
                   "--out", str(trained["tmp"] / "bad.toyr")])
        assert rc == 2

    def test_condition_fps_other_than_rollout_fps_exit_two(self, trained, capsys):
        cond = write_condition(trained["tmp"], fps=5)
        out = trained["tmp"] / "x.toyr"
        rc = main(["rollout", "--ckpt", trained["ckpt"], "--config", str(trained["cfg"]),
                   "--cond", str(cond), "--iters", "1", "--out", str(out)])
        assert rc == 2
        assert (f"data error: condition clip {cond} is 5 fps, rollout.fps is 10"
                in capsys.readouterr().err)
        assert not list(trained["tmp"].glob("x.toyr*"))

    @pytest.mark.parametrize("shape, fps, problems", [
        ((6, 3, 16, 24), 10, "has 6 frames, rollout memory expects exactly 4"),
        ((4, 3, 16, 24), 5, "is 5 fps, rollout.fps is 10"),
        ((4, 1, 16, 24), 10, "has 1 channels, model.channels is 3"),
        ((4, 3, 15, 24), 10, "has 15x24 frames, not divisible by model.patch 2"),
        ((6, 1, 16, 23), 5, "has 6 frames, rollout memory expects exactly 4; is 5 fps, "
         "rollout.fps is 10; has 1 channels, model.channels is 3; has 16x23 frames, "
         "not divisible by model.patch 2"),
    ], ids=["frames", "fps", "channels", "patch", "all"])
    def test_bad_condition_clip_exit_two_before_checkpoint(self, tmp_path, capsys, shape, fps,
                                                           problems):
        # the checkpoint does not exist, so an error naming the clip shows
        # the clip is checked before the checkpoint is read
        cond = write_noise_clip(tmp_path / "cond.toyr", shape, fps)
        rc = main(["rollout", "--ckpt", str(tmp_path / "absent.idck"),
                   "--config", str(write_config(tmp_path)), "--cond", str(cond),
                   "--iters", "1", "--out", str(tmp_path / "x.toyr")])
        assert rc == 2
        assert f"data error: condition clip {cond} {problems}\n" in capsys.readouterr().err
        assert not list(tmp_path.glob("x.toyr*"))

    def test_direction_without_caption_usage_error(self, tmp_path, capsys):
        # the null condition has no command; the checkpoint does not exist,
        # so an exit 1 shows the rule runs before it is read
        rc = main(["rollout", "--ckpt", str(tmp_path / "absent.idck"), "--cond", "none",
                   "--iters", "1", "--direction", "left", "--out", str(tmp_path / "x.toyr")])
        assert rc == 1
        assert "usage error: --direction left needs --caption" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestEval:
    def test_gen_equals_ref_gives_zero_fid(self, tmp_path):
        data = datagen(tmp_path)
        cfg = write_config(tmp_path)
        report_path = tmp_path / "report.json"
        rc = main(["eval", "--gen", str(data), "--ref", str(data), "--config",
                   str(cfg), "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["aggregate"]["fid_proxy"] <= 1e-6
        assert "config_hash" in report and "extractor_checksum" in report

    def test_unknown_metric_lists_valid_names(self, tmp_path, capsys):
        data = datagen(tmp_path)
        rc = main(["eval", "--gen", str(data), "--ref", str(data),
                   "--metrics", "sharpness", "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "sharpness" in err and "mawe" in err

    def test_empty_directory_exit_two(self, tmp_path):
        (tmp_path / "empty").mkdir()
        rc = main(["eval", "--gen", str(tmp_path / "empty"),
                   "--ref", str(tmp_path / "empty"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2

    @pytest.mark.parametrize("at, size, metrics", [
        (12, 1, []),  # 0 channels: the feature net's init divided by zero
        (6, 2, ["--metrics", "background_consistency"]),  # 0 rows: no conv window fits
    ])
    def test_empty_frame_header_exit_two(self, tmp_path, capsys, at, size, metrics):
        data = datagen(tmp_path)
        clip = sorted(data.glob("*.toyr"))[0]
        blob = clip.read_bytes()
        clip.write_bytes(blob[:at] + bytes(size) + blob[at + size:])
        out = tmp_path / "r.json"
        rc = main(["eval", "--gen", str(data), "--ref", str(data), "--config",
                   str(write_config(tmp_path)), *metrics, "--out", str(out)])
        assert rc == 2
        assert f"byte offset {at}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("side, index", [("gen", 1), ("ref", 2)])
    def test_malformed_clip_names_file(self, tmp_path, capsys, side, index):
        dirs = {"gen": datagen(tmp_path, "gen", clips=3, frames=8),
                "ref": datagen(tmp_path, "ref", clips=3, frames=8, seed=4)}
        bad = sorted(dirs[side].glob("*.toyr"))[index]
        bad.write_bytes(bad.read_bytes()[:20])
        rc = main(["eval", "--gen", str(dirs["gen"]), "--ref", str(dirs["ref"]),
                   "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert f"data error: clip {bad}: truncated caption" in capsys.readouterr().err

    def test_missing_config_exit_two(self, tmp_path, capsys):
        data = datagen(tmp_path)
        missing = tmp_path / "missing.json"
        rc = main(["eval", "--gen", str(data), "--ref", str(data), "--config",
                   str(missing), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err

    def test_csv_output(self, tmp_path):
        data = datagen(tmp_path, frames=16)
        cfg = write_config(tmp_path)
        rc = main(["eval", "--gen", str(data), "--ref", str(data), "--config",
                   str(cfg), "--window", "8", "--out", str(tmp_path / "r.json"),
                   "--csv", str(tmp_path / "curves.csv")])
        assert rc == 0
        lines = (tmp_path / "curves.csv").read_text().splitlines()
        assert lines[0] == "clip,frame,metric,value"
        assert len(lines) > 1

    def test_determinism_bit_exact_reports(self, tmp_path):
        data = datagen(tmp_path)
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["eval", "--gen", str(data), "--ref", str(data),
                         "--config", str(cfg), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_undefined_window_mawe_is_null(self, tmp_path):
        # clip 1 of the scene-seed-1 set: the window ending at frame 90 has
        # warp error 0.000136 and zero flow, so its MAWE is undefined
        gen = tmp_path / "gen"
        gen.mkdir()
        R.write_clip(R.render_clip(R.scene_for_clip(1, 1, 120), 32, 48, 120, 10),
                     gen / "clip_0001.toyr")
        out, csv = tmp_path / "r.json", tmp_path / "curves.csv"
        rc = main(["eval", "--gen", str(gen), "--ref", str(gen), "--window", "30",
                   "--out", str(out), "--csv", str(csv)])
        assert rc == 0
        curves = json.loads(out.read_text())["per_clip"]["clip_0001.toyr"]["curves"]
        assert [p["frame"] for p in curves] == [30, 60, 90, 120]
        for p in curves:
            for key, val in p.items():
                if (p["frame"], key) == (90, "mawe"):
                    assert val is None
                else:
                    assert val is not None and np.isfinite(val)
        assert "clip_0001.toyr,90,mawe," not in csv.read_text()

    @pytest.mark.parametrize("gen_channels, named", [((3, 1), "ref/r.toyr"),
                                                     ((1, 3), "gen/b.toyr")])
    def test_mixed_channel_counts_exit_two(self, tmp_path, capsys, gen_channels, named):
        # the feature net is seeded by the channel count, so features of
        # clips with different counts come from different nets
        rng = np.random.default_rng(0)
        for path, c in [("gen/a.toyr", gen_channels[0]), ("gen/b.toyr", gen_channels[1]),
                        ("ref/r.toyr", 1)]:
            (tmp_path / path).parent.mkdir(exist_ok=True)
            frames = rng.integers(0, 256, (16, c, 16, 24)).astype(np.uint8)
            R.write_clip(R.ClipRecord(frames=frames, fps=10, caption="noise",
                                      commands=np.zeros(16, np.uint8)), tmp_path / path)
        out = tmp_path / "r.json"
        rc = main(["eval", "--gen", str(tmp_path / "gen"), "--ref", str(tmp_path / "ref"),
                   "--config", str(write_config(tmp_path)), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(tmp_path / named) in err and "channels" in err
        assert not out.exists()

    def test_window_flag_is_a_config_override(self, tmp_path):
        data = datagen(tmp_path)
        cfg = write_config(tmp_path)  # eval.window 8
        out = tmp_path / "r.json"

        def config_hash(*argv):
            assert main(["eval", "--gen", str(data), "--ref", str(data), "--config", str(cfg),
                         "--metrics", "fid_proxy", *argv, "--out", str(out)]) == 0
            return json.loads(out.read_text())["config_hash"]

        assert config_hash("--window", "8") == config_hash()
        assert config_hash("--window", "16") != config_hash("--window", "8")
        for window in ("0", "1"):  # not a positive integer; below MetricConfig's 2
            assert main(["eval", "--gen", str(data), "--ref", str(data), "--config", str(cfg),
                         "--window", window, "--out", str(out)]) == 1

    @pytest.mark.parametrize("shape, code, message", [
        ((1, 3, 16, 24), 2, "data error: clip {}: need at least 2 frames, got 1"),
        ((16, 3, 4, 4), 1, "configuration error: clip {}: frame (4x4) smaller than "
         "flow block (8)"),
    ], ids=["one_frame", "below_flow_block"])
    def test_scoring_error_names_generated_clip(self, tmp_path, capsys, shape, code, message):
        (tmp_path / "gen").mkdir()
        clip = write_noise_clip(tmp_path / "gen" / "bad.toyr", shape)
        out = tmp_path / "r.json"
        rc = main(["eval", "--gen", str(tmp_path / "gen"), "--ref", str(datagen(tmp_path)),
                   "--config", str(write_config(tmp_path)), "--out", str(out)])
        assert rc == code
        assert message.format(clip) in capsys.readouterr().err
        assert not out.exists()

    def test_one_flow_call_per_frame_pair(self, tmp_path, monkeypatch):
        data = datagen(tmp_path, frames=24)
        cfg = write_config(tmp_path)
        pairs = []  # frame pairs per flow call: flow takes batches of pairs
        flow = M.estimate_flow
        monkeypatch.setattr(M, "estimate_flow",
                            lambda a, *r, **k: pairs.append(len(a)) or flow(a, *r, **k))
        assert main(["eval", "--gen", str(data), "--ref", str(data), "--config",
                     str(cfg), "--out", str(tmp_path / "r.json")]) == 0
        assert sum(pairs) == 2 * (24 - 1)
        assert main(["eval", "--gen", str(data), "--ref", str(data), "--metrics",
                     "fid_proxy,fvd_proxy", "--out", str(tmp_path / "r.json")]) == 0
        assert sum(pairs) == 2 * (24 - 1)  # no flow metric, no flow


# rejected by load_config, before train reads data or creates --out
EARLY_CONFIG_ERRORS = [
    {"rollout": {"steps": 60}},  # beyond train.t_max (50)
    {"train": {"token_budget": 4}},  # below the first phase window (8)
    {"train": {"alpha_set": [3]}},  # 8-frame window, alpha^2 = 9
    {"train": {"phase_frames": [16, 8], "phase_steps": [2, 2]}},  # not ascending
    {"train": {"alpha_set": [1, 2], "memory_span_d": 2}},  # memory 2, alpha^2 = 4
    {"train": {"memory_span_d": 8}, "rollout": {"l_window": 16}},  # no future frame
    {"train": {"lam": -1.0}},  # a negative retention decay rate
    {"train": {"grad_clip": -1.0}},  # 0 turns clipping off; below it is no value
    {"model": {"text_vocab": 8}},  # captions hold digit tokens, ids 15-24
]


@pytest.mark.parametrize("section, argv", [
    ({"eval": {"window": "40"}}, []),
    ({"rollout": {"l_window": "8"}}, []),
    ({"rollout": {"fps": 0}}, []),
    ({"rollout": {"fps": 300}}, []),  # the clip header stores fps in one byte
    ({"rollout": {"guidance_scale": "x"}}, []),
    ({}, ["--window", "0"]),
    ({"train": {"memory_span_d": "4"}}, []),
    ({"train": {"seed": 1.5}}, []),
    ({"train": {"seed": -1}}, []),
    ({"train": {"phase_frames": [8, 0]}}, []),
    ({"train": {"alpha_set": 2}}, []),
    ({"train": {"phase_steps": []}}, []),
    ({"train": {"lr": "0.001"}}, []),
    ({"train": {"grad_clip": True}}, []),
    ({"model": {"patch": 4}, "data": {"height": 30}}, []),  # 30 rows, 4-row patches
    ({"model": {"heads": 0}}, []),
    ({"model": {"depth": "2"}}, []),
    ({"model": {"mlp_ratio": 2.5}}, []),
    ({"model": {"patch": 0}}, []),
    ({"model": {"patch": True}}, []),
    ({"model": {"hidden": -8}}, []),
    ({"model": {"channels": 0}}, []),
    ({"eval": {"feature_seed": -1}}, []),
    ({"train": {"t_max": 100}}, []),  # beyond model.t_max (50)
    ({"rollout": {"l_window": 300}}, []),  # beyond model.max_original_index (256)
    ({"train": {"phase_frames": [300]}}, []),
    ({"train": {"beta1": 1.5}}, []),
    ({"train": {"beta2": 1.0}}, []),
    ({"train": {"adam_eps": -1.0}}, []),
    ({"train": {"lr": -1.0}}, []),
    ({"train": {"cond_dropout": 1.0}}, []),
    ({"model": {"hidden": 6, "heads": 3}}, []),  # 2-D position embeddings need 4 | hidden
    ({"model": {"rope_base": 0.0}}, []),
    ({"train": {"phase_steps": [2, 2]}}, []),  # one step budget more than phases
    *[(section, []) for section in EARLY_CONFIG_ERRORS],
])
def test_bad_config_value_exit_one(tmp_path, capsys, section, argv):
    data = datagen(tmp_path)
    cfg = write_config(tmp_path, {k: {**v, **section.get(k, {})}
                                  for k, v in TINY_CONFIG.items()})
    rc = main(["eval", "--gen", str(data), "--ref", str(data), "--config", str(cfg),
               *argv, "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "rollout", "eval"])
def test_channels_beyond_clip_header_exit_one(tmp_path, capsys, command):
    # the clip header stores the channel count in one byte; none of these
    # paths exist, so an exit 1 means the config was rejected first
    cfg = write_config(tmp_path, {**TINY_CONFIG,
                                  "model": {**TINY_CONFIG["model"], "channels": 256}})
    missing = str(tmp_path / "missing")
    argv = {"train": ["train", "--data", missing],
            "rollout": ["rollout", "--ckpt", missing, "--cond", "none", "--iters", "1"],
            "eval": ["eval", "--gen", missing, "--ref", missing]}[command]
    rc = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "model.channels must be <= 255" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section", EARLY_CONFIG_ERRORS)
def test_bad_config_leaves_no_train_out(tmp_path, capsys, section):
    data = datagen(tmp_path)
    cfg = write_config(tmp_path, {k: {**v, **section.get(k, {})}
                                  for k, v in TINY_CONFIG.items()})
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, command", [
    ({"eval": {"c": float("nan")}}, "eval: c (", "eval"),
    ({"eval": {"c": float("inf")}}, "eval: c (", "eval"),
    ({"rollout": {"guidance_scale": float("nan")}}, "rollout.guidance_scale", "eval"),
    ({"train": {"lr": float("nan")}}, "train.lr", "train"),
    ({"train": {"beta_end": float("-inf")}}, "train.beta_end", "train"),
    ({"model": {"rope_base": float("inf")}}, "model.rope_base", "train"),
])
def test_non_finite_config_number_exit_one(tmp_path, capsys, section, key, command):
    # JSON's NaN and Infinity parse to floats; before they were rejected, eval
    # wrote "mawe": NaN and train wrote a checkpoint of NaN weights
    data = datagen(tmp_path)
    cfg = write_config(tmp_path, {k: {**v, **section.get(k, {})}
                                  for k, v in TINY_CONFIG.items()})
    out = tmp_path / "out"
    argv = {"eval": ["eval", "--gen", str(data), "--ref", str(data)],
            "train": ["train", "--data", str(data)]}[command]
    rc = main([*argv, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["datagen", "datagen-manifest", "train", "train-meta",
                                     "rollout", "rollout-sidecar", "eval", "eval-csv"])
def test_unwritable_output_exit_two(tmp_path, capsys, command):
    afile = tmp_path / "afile"
    afile.write_text("")
    missing = tmp_path / "missing"
    data = datagen(tmp_path)
    cfg = str(write_config(tmp_path))
    evaluate = ["eval", "--gen", str(data), "--ref", str(data), "--config", cfg]
    # "-manifest", "-meta", "-sidecar": a directory stands where the JSON side output goes
    blocked = command.endswith(("-manifest", "-meta", "-sidecar"))
    if command.startswith("datagen"):
        out = tmp_path / "d" if blocked else afile / "sub"
        target = out / "manifest.json" if blocked else out
        argv = ["datagen", "--out", str(out), "--clips", "1", "--frames", "4"]
    elif command.startswith("train"):
        out = tmp_path / "run" if blocked else afile / "run"
        target = out / "run_meta.json" if blocked else out
        argv = ["train", "--config", cfg, "--data", str(data), "--out", str(out)]
    elif command.startswith("rollout"):
        ckpt = tmp_path / "model.idck"
        model = VideoDenoiser(model_config(load_config(cfg)), rng_for(3, "init"))
        save_tensors(ckpt, model.named_parameters())
        out = tmp_path / "x.toyr" if blocked else missing / "x.toyr"
        target = Path(f"{out}.json" if blocked else f"{out}.chunks.jsonl")
        argv = ["rollout", "--ckpt", str(ckpt), "--config", cfg, "--cond", "none",
                "--iters", "1", "--out", str(out)]
    elif command == "eval":
        target = missing / "r.json"
        argv = [*evaluate, "--out", str(target)]
    else:
        target = missing / "c.csv"
        argv = [*evaluate, "--out", str(tmp_path / "r.json"), "--csv", str(target)]
    if blocked:
        target.mkdir(parents=True)
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(target) in err


@pytest.mark.parametrize("flag, kind", [("--config", "config"), ("--ckpt", "checkpoint"),
                                        ("--cond", "clip")])
def test_directory_input_exit_two(tmp_path, capsys, flag, kind):
    # a directory where an input file goes cannot be read: a data error naming it
    folder = tmp_path / "folder"
    folder.mkdir()
    inputs = {"--config": str(write_config(tmp_path)), "--ckpt": str(tmp_path / "m.idck"),
              "--cond": "none", flag: str(folder)}
    rc = main(["rollout", *[arg for pair in inputs.items() for arg in pair],
               "--iters", "1", "--out", str(tmp_path / "x.toyr")])
    assert rc == 2
    assert f"data error: cannot read {kind} {folder}: " in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"[1, 2]",                          # not an object
                                     b'{"eval": {"window": 8}}\xff'])  # not UTF-8
def test_unparsable_config_exit_one(tmp_path, capsys, content):
    data = datagen(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_bytes(content)
    rc = main(["eval", "--gen", str(data), "--ref", str(data), "--config", str(cfg),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err
