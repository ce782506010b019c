"""Command-line entry point: dataset generation, curriculum training,
autoregressive rollout, and metric reports.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric failure.
Every command is deterministic given its seed, its configuration and the BLAS
thread count (outputs are byte-identical only at a fixed count, which
`OPENBLAS_NUM_THREADS` or `OMP_NUM_THREADS` sets); JSON outputs embed the
configuration hash.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import config as cfgmod
from . import metrics as M
from . import rollout as RO
from . import toyroad as R
from . import training as TR
from .backbone import ConditionSet, VideoDenoiser
from .diffusion import build_schedule
from .fileio import _check_os_path, atomic_write, output_errors, write_json
from .errors import (ConfigError, ContractError, DataError, FormatError,
                     LongroadError, MetricUndefinedError, NumericDomainError,
                     NumericFailure)
from .seeding import rng_for

METRIC_NAMES = M.SCALAR_METRICS + ("fid_proxy", "fvd_proxy", "curves")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="longroad",
                description="Desk-scale long-horizon video world model lab.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("datagen", help="render a synthetic clip dataset")
    d.add_argument("--out", required=True, help="output dataset directory")
    for key, default in cfgmod.DEFAULTS["data"].items():
        d.add_argument(f"--{key}", type=int, default=default)

    t = sub.add_parser("train", help="run the curriculum training loop")
    t.add_argument("--config", default=None, help="JSON run configuration")
    t.add_argument("--data", required=True, help="dataset directory")
    t.add_argument("--out", required=True, help="checkpoint/log directory")

    r = sub.add_parser("rollout", help="autoregressive long-video generation")
    r.add_argument("--ckpt", required=True, help="model checkpoint (.idck)")
    r.add_argument("--config", default=None)
    r.add_argument("--cond", required=True,
                   help="condition clip (.toyr) or 'none' for a text-only start")
    r.add_argument("--iters", type=int, required=True)
    r.add_argument("--caption", default=None, help="caption text to condition on")
    r.add_argument("--direction", default="straight",
                   choices=("straight", "left", "right"),
                   help="per-frame drive command fed to the model")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", required=True, help="output clip path (.toyr)")

    e = sub.add_parser("eval", help="metric report over generated clips")
    e.add_argument("--gen", required=True, help="directory of generated clips")
    e.add_argument("--ref", required=True, help="directory of reference clips")
    e.add_argument("--config", default=None)
    e.add_argument("--metrics", default=",".join(METRIC_NAMES),
                   help="comma-separated metric names")
    e.add_argument("--window", type=int, default=None,
                   help="override the evaluation window length")
    e.add_argument("--out", required=True, help="report JSON path")
    e.add_argument("--csv", default=None, help="optional CSV of windowed curves")
    return p


def cmd_datagen(args) -> int:
    run_cfg = cfgmod.load_config(None, overrides={"data": {
        key: getattr(args, key) for key in cfgmod.DEFAULTS["data"]}})
    R.generate_dataset(args.out, args.clips, args.frames, args.height,
                       args.width, args.fps, args.seed,
                       extra_manifest={"config_hash": cfgmod.config_hash(run_cfg)})
    print(f"wrote {args.clips} clips to {args.out}")
    return 0


def _build_model(cfg: dict) -> VideoDenoiser:
    mc = cfgmod.model_config(cfg)
    try:
        return VideoDenoiser(mc, rng_for(cfg["train"]["seed"], "init"))
    except (ValueError, MemoryError) as e:  # numpy cannot allocate a parameter
        raise ConfigError(f"model section cannot be built: {str(e) or type(e).__name__}") from e


def cmd_train(args) -> int:
    cfg = cfgmod.load_config(args.config)
    dataset = R.ClipDataset(args.data)
    model = _build_model(cfg)
    tc = cfgmod.train_config(cfg)
    out = Path(args.out)
    with output_errors(out):
        out.mkdir(parents=True, exist_ok=True)
    chash = cfgmod.config_hash(cfg)
    result = TR.run_curriculum(model, dataset, tc, out,
                               log_path=out / "train_log.jsonl")
    meta = {
        "config_hash": chash,
        "checkpoints": [str(p) for p in result.checkpoints],
        "steps": len(result.history),
        "final_loss": result.history[-1]["loss"] if result.history else None,
    }
    write_json(out / "run_meta.json", meta)
    print(f"trained {len(result.history)} steps; checkpoints: "
          + ", ".join(p.name for p in result.checkpoints))
    return 0


def cmd_rollout(args) -> int:
    cfg = cfgmod.load_config(args.config)
    if args.iters < 1:
        raise UsageError("--iters must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    if args.direction != "straight" and args.caption is None:  # the null condition ignores it
        raise UsageError(f"--direction {args.direction} needs --caption")
    l_window = cfg["rollout"]["l_window"]
    m_memory = cfg["train"]["memory_span_d"]   # full-resolution memory rule
    total = m_memory + args.iters * (l_window - m_memory)
    if total > R.HEADER_LIMITS["frames"]:
        raise UsageError(f"--iters {args.iters} would make {total} frames; a clip "
                         f"holds at most {R.HEADER_LIMITS['frames']}")
    record = None if args.cond == "none" else _condition_clip(args.cond, cfg)
    model = _build_model(cfg)
    ckpt.load_into(args.ckpt, model.named_parameters())
    schedule = build_schedule(cfg["train"]["t_max"], cfg["train"]["beta_start"],
                              cfg["train"]["beta_end"])
    fps = cfg["rollout"]["fps"]
    settings = RO.SamplerSettings(l_window=l_window, steps=cfg["rollout"]["steps"],
                                  guidance_scale=cfg["rollout"]["guidance_scale"])
    cmd_code = {"straight": R.STRAIGHT, "left": R.LEFT, "right": R.RIGHT}[args.direction]

    if record is None:  # text-only: the first chunk is a whole clip
        frame_shape = (cfg["model"]["channels"], cfg["data"]["height"], cfg["data"]["width"])
        state = RO.RolloutState(frames=np.empty((0, *frame_shape), dtype=np.float32),
                                m_memory=m_memory, fps=fps)
    else:
        state = RO.init(R.to_model_space(record.frames), fps)
        frame_shape = state.frames.shape[1:]
    # without a caption, the null condition that training's dropout shows the
    # model, at the rollout's fps and frame size
    tokens = [] if args.caption is None else R.encode_caption(args.caption)
    cond = ConditionSet(text_tokens=tokens,
                        command_ids=np.full(l_window, cmd_code, dtype=np.int64),
                        fps=float(fps), height=float(frame_shape[1]),
                        width=float(frame_shape[2]), null_flag=args.caption is None)

    def pixel_chunks(log):
        """The condition frames, then each sampled chunk, as pixels; one log
        line per sampled chunk. Between chunks only the rollout memory is held."""
        ref = last = None
        written = 0
        if len(state.frames):
            ref = R.to_pixel_space(state.frames)
            yield ref
            written, last = len(ref), ref[-1]
        start = time.perf_counter()
        for index, frames in enumerate(RO.chunks(state, model, schedule, cond, settings,
                                                 args.iters, rng_for(args.seed, "sampler"))):
            seconds = time.perf_counter() - start
            pixels = R.to_pixel_space(frames)
            yield pixels
            written += len(pixels)
            if ref is None:  # a text-only start: the first chunk's first M frames
                ref = pixels[:m_memory]
            log.write(json.dumps(_chunk_record(index, written, seconds, settings.steps,
                                               ref, last, pixels, frames)) + "\n")
            log.flush()
            last = pixels[-1]
            start = time.perf_counter()

    caption = args.caption or "unconditional rollout"
    log_path = str(args.out) + ".chunks.jsonl"
    with output_errors(log_path):
        log = open(log_path, "w")
    with log:
        R.write_clip_chunks(args.out, frame_shape, fps, caption,
                            np.full(total, cmd_code, np.uint8), pixel_chunks(log))
    sidecar = {
        "config_hash": cfgmod.config_hash(cfg), "seed": args.seed,
        "iters": args.iters, "checkpoint": str(args.ckpt),
        "frames": total,
        "duration_seconds": total / fps,
    }
    write_json(str(args.out) + ".json", sidecar)
    print(f"wrote {total} frames to {args.out}")
    return 0


def _condition_clip(path, cfg: dict) -> R.ClipRecord:
    """The `--cond` clip, read and checked against the rollout memory, the
    rollout fps and the model's channels and patch before the checkpoint is
    read or any output exists; every mismatch is named in one DataError."""
    record = R.read_clip(path)
    n, c, h, w = record.frames.shape
    m_memory, fps = cfg["train"]["memory_span_d"], cfg["rollout"]["fps"]
    channels, patch = cfg["model"]["channels"], cfg["model"]["patch"]
    problems = []
    if n != m_memory:
        problems.append(f"has {n} frames, rollout memory expects exactly {m_memory}")
    if record.fps != fps:
        problems.append(f"is {record.fps} fps, rollout.fps is {fps}")
    if c != channels:
        problems.append(f"has {c} channels, model.channels is {channels}")
    if h % patch or w % patch:
        problems.append(f"has {h}x{w} frames, not divisible by model.patch {patch}")
    if problems:
        raise DataError(f"condition clip {path} " + "; ".join(problems))
    return record


def _chunk_record(index, written, seconds, steps, ref, last, pixels, frames) -> dict:
    """One line of `<out>.chunks.jsonl`. Pixel statistics are in 0-255 units:
    `seam` is the mean |first new frame - last memory frame| (None for a
    text-only start's first chunk), `within` the mean |difference| of
    consecutive frames inside the chunk, and the drifts compare the chunk's
    pixel mean and std with the reference frames (the condition clip, or the
    first chunk's first M frames)."""
    px = pixels.astype(np.float64)
    seam = None if last is None else float(np.abs(px[0] - last).mean())
    within = float(np.abs(np.diff(px, axis=0)).mean()) if len(px) > 1 else None
    ref = ref.astype(np.float64)
    return {
        "chunk": index, "frames_written": written,
        "wall_s": round(seconds, 6), "ms_per_step": round(1e3 * seconds / steps, 3),
        "seam": seam, "within": within,
        "seam_ratio": seam / within if seam is not None and within else None,
        "mean_drift": float(px.mean() - ref.mean()),
        "std_drift": float(px.std() - ref.std()),
        "finite": bool(np.isfinite(frames).all()),
    }


def _clip_paths(path) -> list[Path]:
    _check_os_path(path, "cannot read clips under")
    files = sorted(Path(path).glob("*.toyr"))
    if not files:
        raise DataError(f"no .toyr clips under {path!r}")
    return files


def cmd_eval(args) -> int:
    cfg = cfgmod.load_config(args.config, overrides=None if args.window is None
                             else {"eval": {"window": args.window}})
    requested = [m.strip() for m in args.metrics.split(",") if m.strip()]
    bad = [m for m in requested if m not in METRIC_NAMES]
    if bad:
        raise UsageError(
            f"unknown metric name(s) {bad}; valid: {', '.join(METRIC_NAMES)}"
        )
    mcfg = cfgmod.metric_config(cfg)
    gen = _clip_paths(args.gen)
    ref = _clip_paths(args.ref)
    # the feature net is seeded by the channel count: one count for every clip
    channels = int(R.read_clip(gen[0]).frames.shape[1])

    def clip_frames(path):
        frames = R.read_clip(path).frames
        if frames.shape[1] != channels:
            raise DataError(f"clip {path} has {frames.shape[1]} channels, but the first "
                            f"generated clip {gen[0]} has {channels}: their features "
                            f"would come from different nets")
        return frames

    # one clip in memory at a time; only its features are kept
    ref_frame_feats, ref_stack_feats = [], []
    for path in ref:
        f, s = M.video_features(clip_frames(path), mcfg.feature_seed)
        ref_frame_feats.append(f)
        if s.shape[0]:
            ref_stack_feats.append(s)
    ref_frames = M.feature_stats(np.concatenate(ref_frame_feats))
    ref_stacks = (M.feature_stats(np.concatenate(ref_stack_feats))
                  if ref_stack_feats else None)

    per_clip: dict[str, dict] = {}
    gen_frame_feats, gen_stack_feats = [], []
    for path in gen:
        vid = clip_frames(path)
        try:
            values, f, s = M.clip_metrics(vid, mcfg, requested, ref_frames, ref_stacks)
        except LongroadError as e:  # same class, so the same exit code
            raise type(e)(f"clip {path}: {e}") from e
        per_clip[path.name] = {"frames": int(vid.shape[0]), **values}
        gen_frame_feats.append(f)
        if s.shape[0]:
            gen_stack_feats.append(s)
        del vid

    aggregate: dict = {}
    for key in M.SCALAR_METRICS:  # undefined (null) values are skipped
        vals = [e[key] for e in per_clip.values() if e.get(key) is not None]
        if vals:
            aggregate[key] = float(np.mean(vals))
    if "fid_proxy" in requested:
        aggregate["fid_proxy"] = M.frechet_distance(
            M.feature_stats(np.concatenate(gen_frame_feats)), ref_frames)
    if "fvd_proxy" in requested and gen_stack_feats and ref_stacks is not None:
        aggregate["fvd_proxy"] = M.frechet_distance(
            M.feature_stats(np.concatenate(gen_stack_feats)), ref_stacks)

    report = {
        "config_hash": cfgmod.config_hash(cfg),
        "extractor_checksum": M.extractor_checksum(channels, mcfg.feature_seed),
        "window": mcfg.window,
        "per_clip": per_clip,
        "aggregate": aggregate,
    }
    write_json(args.out, report)
    if args.csv:
        lines = ["clip,frame,metric,value"]
        for name, entry in per_clip.items():
            for point in entry.get("curves", []):
                for key, val in point.items():
                    if key != "frame" and val is not None:
                        lines.append(f"{name},{point['frame']},{key},{val}")
        with atomic_write(args.csv) as f:
            f.write(("\n".join(lines) + "\n").encode())
    print(f"wrote report to {args.out}")
    return 0


_DISPATCH = {"datagen": cmd_datagen, "train": cmd_train,
             "rollout": cmd_rollout, "eval": cmd_eval}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    except (DataError, FormatError, ContractError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (NumericFailure, NumericDomainError, MetricUndefinedError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except LongroadError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
