"""Peak memory and page faults of curriculum training, one process per cell.

A cell is one window and one alpha. Each runs in its own process at 1 BLAS
thread: perfbench's train set-up (8 clips x 64 frames at 32x48, dataset
seed 1, both alpha renders cached, the desk model), then `--steps` optimizer
steps of that window's phase with every example drawn at that alpha. It
reports ru_maxrss after the set-up and at the end, and the time and minor
page faults (ru_minflt) of each step. The table is README's "window x batch"
table; the faults are those of CHANGES.md's page-fault lines.

    python3 tools/train_memory.py [--steps 2] [--json cells.json]
    python3 tools/train_memory.py --tape [--json tape.json]

`--tape` answers where a tape's memory goes instead. After the forward and
loss of one w32 example of the same set-up, at alpha 1 and at alpha 2, it
walks the tape from the loss and prints the bytes it holds by op name: every
array a node's backward closure reaches (through cells, defaults, tuples and
lists), each base array counted once, for the first op in forward order that
holds it. Parameters are held anyway and are listed apart.

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
import types
from collections import Counter
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
WINDOWS = (8, 16, 32)
ALPHAS = (1, 2)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KB on Linux


def run_cell(window: int, alpha: int, steps: int) -> dict:
    """Set up as perfbench's train workload does, then train one phase."""
    from dataclasses import replace

    from longroad import config, training
    from longroad.backbone import VideoDenoiser
    from longroad.seeding import rng_for

    cfg = config.load_config()
    tc = config.train_config(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        dataset = _dataset(Path(tmp))
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


def _dataset(root: Path):
    """perfbench's train data: 8 clips x 64 frames at 32x48, seed 1."""
    from longroad import toyroad

    data_dir = toyroad.generate_dataset(root / "data", seed=1, clips=8, frames=64,
                                        height=32, width=48, fps=10)
    return toyroad.ClipDataset(data_dir)


def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _held(node) -> list:
    """The objects a tape node's backward keeps: its cells, defaults, tuples
    and lists."""
    found, todo, seen = [], [node._backward], set()
    while todo:
        obj = todo.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, types.FunctionType):
            todo += [cell.cell_contents for cell in obj.__closure__ or ()]
            todo += obj.__defaults__ or ()
        elif isinstance(obj, (tuple, list)):
            todo += obj
    return found


def tape_bytes(alpha: int) -> dict:
    """The bytes one w32 example's tape holds at `alpha`, by op name."""
    from longroad import config, diffusion, tensor
    from longroad.backbone import VideoDenoiser
    from longroad.curriculum import CurriculumPhase, next_batch
    from longroad.seeding import rng_for

    cfg = config.load_config()
    tc = config.train_config(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        dataset = _dataset(Path(tmp))
        ex = next_batch(CurriculumPhase(frames=32, batch=1, steps=1), dataset,
                        np.random.default_rng(alpha), (alpha,), tc.memory_span_d)
    model = VideoDenoiser(config.model_config(cfg), rng_for(tc.seed, "init"))
    sched = diffusion.build_schedule(tc.t_max, tc.beta_start, tc.beta_end)
    batch = diffusion.make_batch(ex.clip, ex.partition, sched, np.random.default_rng(alpha))

    names, from_op = {}, tensor.Tensor._from_op  # node id -> op name, in forward order

    def named(data, parents, backward_fn):
        out = from_op(data, parents, backward_fn)
        if out._node is not None:
            frame = sys._getframe(1)
            while frame.f_code.co_name == "_node":
                frame = frame.f_back
            names.pop(id(out._node), None)  # the id of a node already freed
            names[id(out._node)] = frame.f_code.co_name
        return out

    tensor.Tensor._from_op = staticmethod(named)
    try:
        pred = model.forward(batch.xt, batch.t, ex.cond, ex.plan)
        loss = diffusion.total_loss(batch, pred,
                                    diffusion.loss_weights_for(ex.partition, tc.lam), sched)
        del pred
    finally:
        tensor.Tensor._from_op = from_op

    nodes, todo = {id(loss._node): loss._node}, [loss._node]
    while todo:
        for p in todo.pop()._parents:
            if p.requires_grad and id(p) not in nodes:
                nodes[id(p)] = p
                todo.append(p)
    params = {id(_base(p.data)) for p in model.parameters()}
    counted, by_op, ops, param_bytes = set(), Counter(), Counter(), 0
    for key, name in names.items():
        if key not in nodes:
            continue
        ops[name] += 1
        for obj in _held(nodes[key]):
            if not isinstance(obj, np.ndarray):
                continue
            base = _base(obj)
            if id(base) in counted:
                continue
            counted.add(id(base))
            if id(base) in params:
                param_bytes += base.nbytes
            else:
                by_op[name] += base.nbytes
    return {"alpha": alpha, "frames": int(ex.clip.shape[0]), "memory": ex.partition.m_memory,
            "tape_mb": round(sum(by_op.values()) / 2**20, 2),
            "parameter_mb": round(param_bytes / 2**20, 2),
            "ops": {name: {"nodes": ops[name], "mb": round(by_op[name] / 2**20, 2)}
                    for name in sorted(ops, key=lambda n: (-by_op[n], n))}}


def print_tape(cells: list[dict]) -> None:
    print("| op | " + " | ".join(f"alpha = {c['alpha']}: nodes, MB" for c in cells) + " |")
    print("| --- |" + " --- |" * len(cells))
    names = list(dict.fromkeys(n for c in cells for n in c["ops"]))
    for name in names:
        row = [c["ops"].get(name, {"nodes": 0, "mb": 0.0}) for c in cells]
        print(f"| {name} | " + " | ".join(f"{r['nodes']}, {r['mb']:.2f}" for r in row) + " |")
    print("| all ops | " + " | ".join(
        f"{sum(r['nodes'] for r in c['ops'].values())}, {c['tape_mb']:.2f}" for c in cells) + " |")
    print()
    for c in cells:
        print(f"alpha {c['alpha']}: {c['frames']} frames, memory {c['memory']}; the closures "
              f"also reach {c['parameter_mb']:.2f} MB of parameters, held anyway")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=2, help="optimizer steps per cell")
    ap.add_argument("--json", type=Path, help="also write the cells to this file")
    ap.add_argument("--tape", action="store_true",
                    help="print the bytes one w32 example's tape holds, by op")
    ap.add_argument("--cell", nargs=2, type=int, metavar=("WINDOW", "ALPHA"),
                    help=argparse.SUPPRESS)  # one cell, in this process
    args = ap.parse_args(argv)
    if args.cell:
        print(json.dumps(run_cell(*args.cell, args.steps)))
        return 0
    if args.tape:
        sys.path.insert(0, str(SRC))
        cells = [tape_bytes(alpha) for alpha in ALPHAS]
        print_tape(cells)
        if args.json:
            args.json.write_text(json.dumps(cells, indent=1) + "\n")
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
