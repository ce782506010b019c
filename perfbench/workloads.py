"""The benchmark's three workloads, each driven through the public API of
`longroad` by one closed-loop caller (each call is issued only after the
previous one returned).

- `train`: `training.run_curriculum` at the desk defaults (windows 8/16/32,
  token budget 32, alpha in {1, 2}, memory span 4, patch 4) on 8 rendered
  clips x 64 frames at 32x48. The training seed stays at the desk default
  0, so every workload seed runs the same alpha/window mix and the same
  amount of work; the workload seed picks the scenes.
- `rollout`: the text-only `longroad rollout` path, `rollout.bootstrap`
  then `rollout.step`, L = 32, M = 4, 50 reverse steps, from a checkpoint
  whose every parameter was perturbed by seeded noise (so no layer is the
  identity, as it is at init).
- `eval`: `longroad eval` through `cli.main`, all metrics, window 40, over
  a fixed set of rendered 120-frame clips (scene seed `EVAL_SCENE_SEED`)
  against an 8 x 64-frame reference rendered from the workload seed. The
  set is fixed because on some scene seeds a long turn drifts the road out
  of view, a 40-frame window then has zero flow but nonzero warp error, and
  `longroad eval` stops with exit code 3; that failure belongs to a test,
  not to a timing workload.

Each workload sets up `SETUP_REPEATS` times (the last set-up is the one
used), then runs its timed region, then checks its outputs.

Untraced, the host-speed probe (`probe.py`) runs on a timer through the
set-ups and the timed region, and every time taken there is read from the
probe's clock, which stands still while the probe runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from longroad import checkpoint, cli, config, rollout, toyroad, training
from longroad.backbone import ConditionSet, VideoDenoiser
from longroad.diffusion import build_schedule
from longroad.errors import ContractError, NumericFailure
from longroad.seeding import rng_for

from probe import Probe
from tracer import Tracer, span

SETUP_REPEATS = 3
DATA = dict(clips=8, frames=64, height=32, width=48, fps=10)
PERTURB_STD = 0.02
EVAL_SCENE_SEED = 1  # odd, so never the reference's 2 * seed


@dataclass
class Outcome:
    setup_s: list[float]
    wall_s: float                  # the timed region, less the probe's time
    measured: tuple[float, float]  # its (start, end) on the probe's clock
    units: int                     # train steps, generated frames, or clips scored
    call_ms: list[float]           # latency of each closed-loop call
    attempted: int
    failed: int
    correct: bool
    fingerprint: str               # digest of the outputs
    detail: dict = field(default_factory=dict)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()[:16]


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# -- train -----------------------------------------------------------------------


def train(work: Path, seed: int, steps_per_phase: int, probe: Probe,
          tracer: Tracer | None = None) -> Outcome:
    cfg = config.load_config()
    tc = config.train_config(cfg)
    tc = replace(tc, phase_steps=(steps_per_phase,) * len(tc.phase_frames))
    setup_s = []
    with probe.running():
        for k in range(SETUP_REPEATS):
            t0 = probe.clock()
            data_dir = toyroad.generate_dataset(work / f"data{k}", seed=seed, **DATA)
            dataset = toyroad.ClipDataset(data_dir)
            for i in range(len(dataset)):
                for alpha in tc.alpha_set:
                    dataset.rendered_at_scale(i, alpha)
            model = VideoDenoiser(config.model_config(cfg), rng_for(tc.seed, "init"))
            checkpoint.save_tensors(work / f"init{k}.idck", model.named_parameters())
            setup_s.append(probe.clock() - t0)

    phase_ends = set(np.cumsum(tc.phase_steps).tolist())
    ticks: list[float] = []
    records: list[dict] = []
    snapshots: list[dict[str, np.ndarray]] = []

    def progress(record):
        ticks.append(probe.clock())
        records.append(record)
        if record["step"] in phase_ends:
            snapshots.append({k: p.data.copy() for k, p in model.named_parameters().items()})

    out = work / "run"
    if tracer is not None:
        tracer.overhead_s = 0.0
    with probe.running():
        t0 = probe.clock()
        try:
            with span(tracer, "training.run_curriculum"):
                result = training.run_curriculum(model, dataset, tc, out,
                                                 log_path=out / "train_log.jsonl",
                                                 progress=progress)
            checkpoints = result.checkpoints
        except NumericFailure:
            checkpoints = []
        t1 = probe.clock()

    planned = sum(tc.phase_steps)
    bad_steps = sum(1 for r in records if not _finite(r["loss"], r["grad_norm"]))
    bad_ckpts = len(tc.phase_steps) - len(checkpoints)
    for path, snap in zip(checkpoints, snapshots):
        stored = checkpoint.load_tensors(path)
        if stored.keys() != snap.keys() or any(
                stored[k].tobytes() != snap[k].tobytes() for k in snap):
            bad_ckpts += 1
    failed = (planned - len(records)) + bad_steps + bad_ckpts
    losses = [(r["loss"], r["grad_norm"]) for r in records]
    final = checkpoints[-1].read_bytes() if checkpoints else b""
    return Outcome(
        setup_s=setup_s, wall_s=t1 - t0, measured=(t0, t1), units=len(records),
        call_ms=[1e3 * (b - a) for a, b in zip([t0] + ticks, ticks)],
        attempted=planned + len(tc.phase_steps), failed=failed, correct=failed == 0,
        fingerprint=_digest(json.dumps(losses).encode(), final),
        detail={"steps": len(records), "phases": list(tc.phase_frames),
                "steps_per_phase": steps_per_phase, "final_loss": losses[-1][0] if losses else None,
                "token_budget": tc.token_budget, "base_h": DATA["height"]},
    )


# -- rollout ---------------------------------------------------------------------


def rollout_run(work: Path, seed: int, chunks: int, probe: Probe, reverse_steps: int = 50,
                tracer: Tracer | None = None) -> Outcome:
    cfg = config.load_config()
    mc = config.model_config(cfg)
    setup_s = []
    with probe.running():
        for k in range(SETUP_REPEATS):
            t0 = probe.clock()
            model = VideoDenoiser(mc, rng_for(seed, "init"))
            noise = rng_for(seed, "init", 1)
            for p in model.named_parameters().values():
                p.data = p.data + (PERTURB_STD * noise.standard_normal(p.shape)).astype(p.dtype)
            ckpt_path = work / f"model{k}.idck"
            checkpoint.save_tensors(ckpt_path, model.named_parameters())
            setup_s.append(probe.clock() - t0)

    l_window, m_memory = cfg["rollout"]["l_window"], cfg["train"]["memory_span_d"]
    fps, h, w = cfg["rollout"]["fps"], cfg["data"]["height"], cfg["data"]["width"]
    caption = toyroad.generate_caption(toyroad.scene_for_clip(seed, 0, l_window), l_window)
    out_path = work / "rollout.toyr"
    chunk_ms: list[float] = []
    failed = 0
    buffer_bytes = 0

    if tracer is not None:
        tracer.overhead_s = 0.0
    with probe.running():
        t0 = probe.clock()
        # the `longroad rollout --cond none --caption ...` path of cli.cmd_rollout
        with span(tracer, "rollout.load"):
            model = VideoDenoiser(mc, rng_for(cfg["train"]["seed"], "init"))
            checkpoint.load_into(ckpt_path, model.named_parameters())
            schedule = build_schedule(cfg["train"]["t_max"], cfg["train"]["beta_start"],
                                      cfg["train"]["beta_end"])
            settings = rollout.SamplerSettings(l_window=l_window, steps=reverse_steps,
                                               guidance_scale=cfg["rollout"]["guidance_scale"])
            cond = ConditionSet(text_tokens=toyroad.encode_caption(caption),
                                command_ids=np.full(l_window, toyroad.STRAIGHT, dtype=np.int64),
                                fps=float(fps), height=float(h), width=float(w))
            rng = rng_for(seed, "sampler")
        c0 = probe.clock()
        state = rollout.bootstrap(model, schedule, cond, settings, m_memory,
                                  (mc.channels, h, w), fps, rng)
        chunk_ms.append(1e3 * (probe.clock() - c0))
        buffer_bytes += state.frames.nbytes
        for _ in range(chunks - 1):
            c0 = probe.clock()
            try:
                new = rollout.step(state, model, schedule, cond, settings, rng)
            except ContractError:
                failed += 1
                continue
            finally:
                chunk_ms.append(1e3 * (probe.clock() - c0))
            if new.frames[:len(state.frames)].tobytes() != state.frames.tobytes():
                failed += 1  # a frame emitted earlier, memory included, changed
            # a fresh buffer means every frame was copied; otherwise only the new ones
            if np.may_share_memory(new.frames, state.frames):
                buffer_bytes += new.frames.nbytes - state.frames.nbytes
            else:
                buffer_bytes += new.frames.nbytes
            state = new
        frames = state.frames
        with span(tracer, "rollout.write"):
            pixels = toyroad.to_pixel_space(frames)
            toyroad.write_clip(toyroad.ClipRecord(
                frames=pixels, fps=fps, caption=caption,
                commands=np.full(frames.shape[0], toyroad.STRAIGHT, np.uint8)), out_path)
        t1 = probe.clock()

    n = frames.shape[0]
    if not np.isfinite(frames).all():
        failed += 1
    reread = toyroad.read_clip(out_path).frames
    law = n == m_memory + chunks * (l_window - m_memory)
    intact = reread.shape[0] == n and reread.tobytes() == pixels.tobytes()
    return Outcome(
        setup_s=setup_s, wall_s=t1 - t0, measured=(t0, t1), units=n, call_ms=chunk_ms,
        attempted=chunks, failed=failed, correct=failed == 0 and law and intact,
        fingerprint=_digest(out_path.read_bytes()),
        detail={"chunks": chunks, "frames": int(n), "reverse_steps": reverse_steps,
                "frame_count_law": law, "reread_intact": intact,
                "buffer_bytes_copied": buffer_bytes},
    )


# -- eval ------------------------------------------------------------------------


def evaluate(work: Path, seed: int, clips: int, repeats: int, probe: Probe,
             frames: int = 120, tracer: Tracer | None = None) -> Outcome:
    window = config.DEFAULTS["eval"]["window"]
    setup_s = []
    with probe.running():
        for k in range(SETUP_REPEATS):
            t0 = probe.clock()
            ref = toyroad.generate_dataset(work / f"ref{k}", seed=2 * seed, **DATA)
            gen = toyroad.generate_dataset(work / f"gen{k}", seed=EVAL_SCENE_SEED,
                                           **{**DATA, "clips": clips, "frames": frames})
            setup_s.append(probe.clock() - t0)

    codes, command_ms = [], []
    if tracer is not None:
        tracer.overhead_s = 0.0
    with probe.running():
        t0 = probe.clock()
        for r in range(repeats):
            c0 = probe.clock()
            with span(tracer, "eval.command"), contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(["eval", "--gen", str(gen), "--ref", str(ref),
                                       "--window", str(window),
                                       "--out", str(work / f"report{r}.json")]))
            command_ms.append(1e3 * (probe.clock() - c0))
        t1 = probe.clock()

    marks = list(range(window, frames + 1, window))
    reports = [(work / f"report{r}.json").read_bytes() if code == 0 else b""
               for r, code in enumerate(codes)]
    failed = sum(1 for blob in reports if not _report_ok(blob, clips, marks))
    identical = len(set(reports)) == 1
    return Outcome(
        setup_s=setup_s, wall_s=t1 - t0, measured=(t0, t1), units=clips * repeats,
        call_ms=command_ms, attempted=repeats, failed=failed,
        correct=failed == 0 and identical, fingerprint=_digest(reports[0]),
        detail={"clips": clips, "repeats": repeats, "frames": frames, "marks": marks,
                "flow_pairs": repeats * clips * (frames - 1),
                "exit_codes": codes, "reports_identical": identical},
    )


SCALARS = ("mawe", "warp_error", "optical_flow_score", "background_consistency")
POINT_KEYS = ("fid_proxy", "mawe", "background_consistency", "fvd_proxy")


def _report_ok(blob: bytes, clips: int, marks: list[int]) -> bool:
    """Every requested metric present and finite; curve marks where expected."""
    if not blob:
        return False
    report = json.loads(blob)
    per_clip = report["per_clip"]
    if len(per_clip) != clips:
        return False
    for entry in per_clip.values():
        if not _finite(*(entry.get(k) for k in SCALARS)):
            return False
        curves = entry.get("curves", [])
        if [p["frame"] for p in curves] != marks:
            return False
        if not all(_finite(*(p[k] for k in POINT_KEYS)) for p in curves):
            return False
    agg = report["aggregate"]
    return _finite(*(agg.get(k) for k in SCALARS + ("fid_proxy", "fvd_proxy")))
