"""Tests of the benchmark itself, on shrunken workloads:

    python3 -m pytest perfbench/test_perfbench.py -q

- a traced and an untraced run execute the same workload (same unit count,
  same losses / output bytes, same correctness verdict);
- the self times of the traced spans account for the traced wall time;
- the exact counters repeat exactly across two traced runs;
- the host-speed probe is kept out of the timed clock, sets the scale and
  leaves no timer behind.
"""

from __future__ import annotations

import signal
import time

import pytest

import run

run.put_sources_on_path()

from probe import REF_S, Probe  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = {
    "train": (wl.train, {"steps_per_phase": 1}),
    "rollout": (wl.rollout_run, {"chunks": 2, "reverse_steps": 2}),
    "eval": (wl.evaluate, {"clips": 1, "repeats": 2, "frames": 40}),
}
EXACT = ("tensor.tape_nodes_per_step", "backbone.forward.calls",
         "metrics.estimate_flow.calls", "metrics.video_features.frames",
         "rollout.buffer_bytes_copied")


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(wl, "SETUP_REPEATS", 1)


def _run(name, work, traced):
    fn, size = SMALL[name]
    tracer = tr.Tracer() if traced else None
    probe = Probe(active=not traced)
    if tracer is not None:
        tr.install(tracer)
    try:
        outcome = fn(work, 5, tracer=tracer, probe=probe, **size)
    finally:
        if tracer is not None:
            tracer.close()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    if tracer is None:
        return outcome, None
    return outcome, {k: v for k, (v, _) in tr.layer_metrics(tracer, outcome).items()}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_matches_untraced_and_counters_repeat(name, tmp_path):
    runs = []
    for i, traced in enumerate((False, True, True)):
        work = tmp_path / str(i)
        work.mkdir()
        runs.append(_run(name, work, traced))
    (plain, _), (traced, layers), (again, layers_again) = runs

    for outcome in (plain, traced, again):
        assert outcome.correct and outcome.failed == 0
    assert traced.units == plain.units
    assert traced.fingerprint == plain.fingerprint == again.fingerprint

    assert 0.98 <= layers["trace.self_time_coverage"] <= 1.0 + 1e-9
    assert layers["trace.overhead_pct"] >= 0.0
    assert {k: layers[k] for k in EXACT} == {k: layers_again[k] for k in EXACT}


def test_tracer_restores_every_attribute():
    from longroad import backbone, metrics, tensor, training

    before = (training.make_batch, tensor.Tensor.__dict__["backward"],
              backbone.VideoDenoiser.__dict__["forward"], metrics.estimate_flow)
    tracer = tr.Tracer()
    tr.install(tracer)
    assert training.make_batch is not before[0]
    tracer.close()
    assert (training.make_batch, tensor.Tensor.__dict__["backward"],
            backbone.VideoDenoiser.__dict__["forward"], metrics.estimate_flow) == before


def test_self_time_subtracts_children():
    tracer = tr.Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
    table = tr.self_time_table(tracer)
    inner = tracer.spans[1]
    assert inner.parent is outer
    assert table["outer"]["self_ms"] == pytest.approx(
        1e3 * (outer.seconds - inner.seconds))
    assert table["inner"]["self_ms"] == pytest.approx(table["inner"]["total_ms"])


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_probe_clock_leaves_out_the_kernel_and_sets_the_scale():
    idle = Probe(active=False)
    with idle.running():
        _busy(0.6)
    assert idle.samples == [] and idle.scale() == 1.0

    handler = signal.getsignal(signal.SIGALRM)
    probe = Probe()
    with probe.running():
        w0, c0 = time.perf_counter(), probe.clock()
        _busy(1.2)
        w1, c1 = time.perf_counter(), probe.clock()
    assert len(probe.samples) >= 2
    assert (c1 - c0) == pytest.approx((w1 - w0) - probe.spent_s, abs=1e-3)
    assert probe.scale() == pytest.approx(REF_S * len(probe.samples) / sum(probe.samples))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
