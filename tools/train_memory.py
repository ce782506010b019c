"""Peak memory and page faults of curriculum training, one process per cell.

A cell is one window and one alpha. Each runs in its own process at 1 BLAS
thread: perfbench's train set-up (8 clips x 64 frames at 32x48, dataset
seed 1, both alpha renders cached, the desk model), then `--steps` optimizer
steps of that window's phase with every example drawn at that alpha. It
reports ru_maxrss after the set-up and at the end, and the time and minor
page faults (ru_minflt) of each step. The table is README's "window x batch"
table; the faults are those of CHANGES.md's page-fault lines.

    python3 tools/train_memory.py [--steps 2] [--json cells.json]

The cells import `longroad` from the `src/` beside this script, so a copy of
the script in another checkout measures that checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WINDOWS = (8, 16, 32)
ALPHAS = (1, 2)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KB on Linux


def run_cell(window: int, alpha: int, steps: int) -> dict:
    """Set up as perfbench's train workload does, then train one phase."""
    from dataclasses import replace

    from longroad import config, toyroad, training
    from longroad.backbone import VideoDenoiser
    from longroad.seeding import rng_for

    cfg = config.load_config()
    tc = config.train_config(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = toyroad.generate_dataset(Path(tmp) / "data", seed=1, clips=8, frames=64,
                                            height=32, width=48, fps=10)
        dataset = toyroad.ClipDataset(data_dir)
        for i in range(len(dataset)):
            for a in tc.alpha_set:
                dataset.rendered_at_scale(i, a)
        model = VideoDenoiser(config.model_config(cfg), rng_for(tc.seed, "init"))
        setup_mb = _maxrss_mb()
        tc = replace(tc, phase_frames=(window,), phase_steps=(steps,), alpha_set=(alpha,))
        marks = [(time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt)]
        records = []

        def progress(record):
            marks.append((time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
            records.append(record)

        training.run_curriculum(model, dataset, tc, Path(tmp) / "run", progress=progress)
    return {"window": window, "alpha": alpha, "batch": max(1, tc.token_budget // window),
            "setup_mb": round(setup_mb, 1), "peak_mb": round(_maxrss_mb(), 1),
            "step_ms": [round(1e3 * (b[0] - a[0]), 1) for a, b in zip(marks, marks[1:])],
            "step_minflt": [b[1] - a[1] for a, b in zip(marks, marks[1:])],
            "losses": [r["loss"] for r in records]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=2, help="optimizer steps per cell")
    ap.add_argument("--json", type=Path, help="also write the cells to this file")
    ap.add_argument("--cell", nargs=2, type=int, metavar=("WINDOW", "ALPHA"),
                    help=argparse.SUPPRESS)  # one cell, in this process
    args = ap.parse_args(argv)
    if args.cell:
        print(json.dumps(run_cell(*args.cell, args.steps)))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(SRC))
    cells = []
    for window in WINDOWS:
        for alpha in ALPHAS:
            done = subprocess.run([sys.executable, __file__, "--cell", str(window), str(alpha),
                                   "--steps", str(args.steps)],
                                  env=env, check=True, capture_output=True, text=True)
            cells.append(json.loads(done.stdout.splitlines()[-1]))
    print("| window x batch | alpha = 1 (MB RSS) | alpha = 2 (MB RSS) |")
    print("| --- | --- | --- |")
    for window in WINDOWS:
        row = [c for c in cells if c["window"] == window]
        print(f"| {window} x {row[0]['batch']} | "
              + " | ".join(f"{c['peak_mb']:.0f}" for c in row) + " |")
    print()
    for c in cells:
        print(f"w{c['window']} a{c['alpha']}: setup {c['setup_mb']:.0f} MB, peak "
              f"{c['peak_mb']:.0f} MB, per step " + ", ".join(
                  f"{ms:.0f} ms {flt} faults" for ms, flt in zip(c["step_ms"], c["step_minflt"])))
    if args.json:
        args.json.write_text(json.dumps(cells, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
