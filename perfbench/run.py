"""Benchmark for longroad: curriculum training, autoregressive rollout and
long-video evaluation, each timed end to end from one closed-loop process.

    python3 perfbench/run.py --workload {train,rollout,eval} --seed N \
        --seconds S --trace {0,1}

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end figures of BENCHMARK.json; with `--trace 1` the
same workload runs with spans recorded and the metrics are the per-layer
figures. The lines before it record the environment (`env`), the figures
under the names the workloads are known by (`summary`) and, when traced, the
self time of every span (`spans`). See README.md for every definition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

BLAS_THREADS = 1  # 2 threads were not faster on a 2-core box
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Seconds of work per unit of size on a 2-core x86-64 box with 1 BLAS thread:
# one step in each of the three curriculum phases, one 50-step L=32 chunk,
# one eval command over EVAL_CLIPS clips. Run length follows --seconds
# through these constants only, so the same --seconds always runs the same work.
TRAIN_S_PER_ROUND = 3.5
ROLLOUT_S_PER_CHUNK = 22.0
EVAL_CLIPS = 3
EVAL_S_PER_COMMAND = 9.0


def put_sources_on_path() -> None:
    """Import longroad from this checkout's sources, never from elsewhere."""
    if not (SRC / "longroad" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no longroad sources under {SRC}")
    sys.path.insert(0, str(SRC))


def sizes(seconds: int) -> dict:
    return {
        "train": {"steps_per_phase": max(1, round(seconds / TRAIN_S_PER_ROUND))},
        "rollout": {"chunks": max(2, round(seconds / ROLLOUT_S_PER_CHUNK))},
        "eval": {"clips": EVAL_CLIPS, "repeats": max(2, round(seconds / EVAL_S_PER_COMMAND))},
    }


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "longroad").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(), "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return "unavailable"


def p90(xs: list[float]) -> float:
    import numpy as np

    return float(np.percentile(xs, 90))


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    import probe as pr
    import tracer as tr
    import workloads as wl

    size = sizes(seconds)[workload]
    tracer = tr.Tracer() if trace else None
    probe = pr.Probe(active=not trace)  # spans would count its time as the program's
    if tracer is not None:
        tr.install(tracer)
    try:
        if workload == "train":
            outcome = wl.train(work, seed, tracer=tracer, probe=probe, **size)
        elif workload == "rollout":
            outcome = wl.rollout_run(work, seed, tracer=tracer, probe=probe, **size)
        else:
            outcome = wl.evaluate(work, seed, tracer=tracer, probe=probe, **size)
    finally:
        if tracer is not None:
            tracer.close()

    wall_unit_s = outcome.wall_s / max(outcome.units, 1)
    unit_s = wall_unit_s * probe.scale()
    call_ms = outcome.call_ms or [1e3 * outcome.wall_s]  # no call finished
    call_p90 = p90(call_ms)
    end_to_end = {
        "setup_s": (statistics.median(outcome.setup_s) * probe.scale(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ref_s_per_unit": (unit_s, "s"),
    }
    named = {
        "train": {"train_steps_per_s": 1.0 / unit_s, "train_step_ms_p90": call_p90,
                  "train_step_ms_median": statistics.median(call_ms)},
        "rollout": {"rollout_s_per_frame": unit_s, "rollout_chunk_ms_p90": call_p90},
        "eval": {"eval_s_per_clip": unit_s, "eval_command_ms_p90": call_p90},
    }[workload]
    summary = {"workload": workload, "traced": trace, "units": outcome.units,
               "calls": len(outcome.call_ms), "wall_s": outcome.wall_s,
               "wall_s_per_unit": wall_unit_s, "probe_runs": len(probe.samples),
               "probe_mean_s": pr.REF_S / probe.scale(), "probe_scale": probe.scale(),
               "setup_runs_s": outcome.setup_s, "fingerprint": outcome.fingerprint,
               **named, **outcome.detail}
    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
        spans = None
    else:
        layers = tr.layer_metrics(tracer, outcome)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        spans = tr.self_time_table(tracer)
        _write_spans(tracer, workload, seed)
    return {"summary": summary, "spans": spans, "result": {
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "metrics": metrics}}


def _write_spans(tracer, workload: str, seed: int) -> None:
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    rows = [{"name": s.name, "start": s.start, "end": s.end,
             "parent": index.get(id(s.parent))} for s in tracer.spans]
    (out / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(rows))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "rollout", "eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads
    put_sources_on_path()
    sys.path.insert(0, str(HERE))

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("env " + json.dumps(environment(args.seed)))
    print("summary " + json.dumps(out["summary"]))
    if out["spans"] is not None:
        print("spans " + json.dumps(out["spans"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
