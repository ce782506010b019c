"""Host-speed probe: a fixed numpy kernel that runs every `PERIOD_S` seconds
of an untraced run's set-ups and timed region, so that their wall times can
be scaled to one reference host speed.

On a few vCPUs of a shared host, the neighbours' load changes the speed of
everything that runs, for minutes at a time: back-to-back runs of the same
code read 10-25 % apart, however long they are and whatever median they
take. The kernel does the same work every time, so its mean time over a
run measures the host speed during that run, and seconds times `scale()`
are seconds at the speed at which the kernel takes `REF_S`.

The kernel mixes, in about equal parts of its time, what the workloads
spend theirs on: a Python loop (the interpreter, as in the autodiff tape),
small matmuls with a softmax (attention), sums of absolute differences
between shifted copies of a 0.6 MB frame stack (memory traffic), and the
same on one small frame (many short numpy calls, as in block-matching
flow). It runs from a SIGALRM handler, between two bytecodes of whatever
the workload is doing, and the region's clock stands still while it runs.
It is part of the benchmark: both commits of a comparison run the same one.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

REF_S = 0.020    # a fixed scale, near the kernel's time on an idle 2-vCPU x86-64 host
PERIOD_S = 0.5   # the kernel then takes about 4 % of a region


class Probe:
    """Runs the kernel on a timer while `running()`, when active, and keeps
    a clock that leaves out the time the kernel took."""

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []
        self.spent_s = 0.0
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((96, 64)).astype(np.float32)
        self._w = rng.standard_normal((64, 64)).astype(np.float32) / 8.0
        self._stack = rng.standard_normal((8, 3, 64, 96)).astype(np.float32)
        self._frame = rng.standard_normal((3, 32, 48)).astype(np.float32)

    def clock(self) -> float:
        """perf_counter() less the time spent in the kernel so far."""
        while True:
            spent = self.spent_s
            now = perf_counter()
            if spent == self.spent_s:  # no kernel ran between the two reads
                return now - spent

    @contextmanager
    def running(self):
        if not self.active:
            yield self
            return
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def tick(self) -> None:
        t0 = perf_counter()
        with np.errstate(all="ignore"):  # whatever the interrupted code set
            self._kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent_s += dt

    def scale(self) -> float:
        """REF_S / mean kernel time (1.0 when the kernel never ran)."""
        if not self.samples:
            return 1.0
        return REF_S * len(self.samples) / sum(self.samples)

    def _on_alarm(self, signum, frame) -> None:
        self.tick()

    def _kernel(self) -> None:
        s = 0
        for i in range(50_000):
            s += i * i
        for _ in range(40):
            y = self._a @ self._w
            z = y @ y.T
            z = np.exp(z - z.max(axis=1, keepdims=True))
            z /= z.sum(axis=1, keepdims=True)
        f = self._stack
        for _ in range(4):
            for dx in (-2, -1, 1, 2):
                np.abs(f[..., 2:-2] - np.roll(f, dx, axis=3)[..., 2:-2]).sum(axis=1)
        g = self._frame
        for _ in range(3):
            for dy in range(-3, 4):
                for dx in range(-3, 4):
                    d = np.abs(g[:, 4:-4, 4:-4] - g[:, 4 + dy:28 + dy, 4 + dx:44 + dx])
                    d.reshape(3, 6, 4, 10, 4).sum(axis=(0, 2, 4))
