"""Fixed reference kernels used to measure the machine's speed during a run.

The kernels import nothing from the program under test and run on fixed
inputs, so their duration changes only when the machine's speed does.
Adjusted times are measured times scaled by ``NOMINAL_S`` over the slice
duration measured nearest in time, so they read as if the machine ran at
the speed where one slice takes ``NOMINAL_S``.

The machine's slow state slows Python interpretation more than numpy work,
so each workload uses the kernel whose mix is closest to its own:
``NumericKernel`` for the model workloads, ``LoopKernel`` for data I/O.
"""

from __future__ import annotations

import math
import time

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)


class _Kernel:
    REPS = 1
    NOMINAL_S = 1.0

    def _step(self):
        raise NotImplementedError

    def slice(self) -> float:
        """Run one slice and return its duration in seconds. An untimed
        first step brings the kernel's data back into cache, so that the
        timed steps depend on the machine's speed, not on how much memory
        the operation before them touched."""
        self._step()
        t0 = time.perf_counter()
        for _ in range(self.REPS):
            self._step()
        return time.perf_counter() - t0


class NumericKernel(_Kernel):
    """The model's mix: small float64 matmuls, elementwise transcendentals
    and a Python loop over rows. One step is a pre-norm tanh-GELU MLP and a
    softmax attention step on a 17x64 token block."""

    REPS = 6
    NOMINAL_S = 0.001

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.x = rng.normal(size=(17, 64))
        self.w1 = rng.normal(scale=0.1, size=(64, 256))
        self.w2 = rng.normal(scale=0.1, size=(256, 64))
        self.wq = rng.normal(scale=0.1, size=(64, 64))

    def _step(self) -> float:
        x = self.x
        mu = x.mean(axis=1, keepdims=True)
        xn = (x - mu) / np.sqrt(((x - mu) ** 2).mean(axis=1, keepdims=True) + 1e-5)
        h = xn @ self.w1
        h = 0.5 * h * (1.0 + np.tanh(_GELU_C * (h + 0.044715 * h * h * h)))
        y = h @ self.w2
        q = y @ self.wq
        s = q @ y.T / 8.0
        e = np.exp(s - s.max(axis=1, keepdims=True))
        a = (e / e.sum(axis=1, keepdims=True)) @ y
        acc = 0.0
        for row in a:
            acc += float(row[0]) * 0.5
        return acc


class LoopKernel(_Kernel):
    """The data path's mix: a per-item Python loop of tiny numpy calls and
    string formatting, like the DVS simulator's per-pixel loop and the CSV
    writer's per-row loop."""

    REPS = 3
    NOMINAL_S = 0.003

    def __init__(self):
        rng = np.random.default_rng(54321)
        self.counts = rng.integers(1, 4, size=60).tolist()
        self.deltas = rng.normal(size=60).tolist()

    def _step(self) -> int:
        rows = []
        for c, d in zip(self.counts, self.deltas):
            frac = np.arange(1, c + 1) * 0.15 / (abs(d) + 0.1)
            stamps = (1000 + frac * 20000).astype(np.int64)
            rows.append(np.full(c, 3, np.int64))
            rows.append(",".join(str(int(s)) for s in stamps))
        return len(rows)
