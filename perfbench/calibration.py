"""Machine-speed calibration for a shared host.

On a shared host the same call can run up to 1.8x slower for minutes at a
time, while other tenants load the machine.  So the runner times a fixed
kernel between consecutive entry calls, and scales each call's throughput
to the speed at which the kernel takes its reference time.  Each kernel
does the same kind of work as its workload's hot path, so both slow down
together.  The kernels use numpy only, never stochtdr: a change to the
program leaves them as they are.
"""

from __future__ import annotations

import math
import time

import numpy as np

_RNG = np.random.default_rng(0x5EED)
_WORDS = _RNG.integers(1, 256, (3, 50, 1000)).astype(np.int32)
_TABLE = (_RNG.integers(1, 256, (50, 6, 1000)) <= 128).astype(np.uint8)
_WEIGHTS = np.linspace(-0.9, 0.9, 50)
_BETA = np.linspace(0.05, 0.95, 6)
_INPUTS = np.linspace(-1.0, 1.0, 97)


def bit_streams() -> int:
    """Comparators, MUXes, rotate-and-add and a table gather on 50 x 1000
    words, like one step of the stochastic backend, 80 times."""
    total = 0
    for _ in range(80):
        a = _WORDS[0] <= 128
        b = np.where(_WORDS[1] <= 64, a == (_WORDS[2] <= 100), _WORDS[2] <= 192)
        v = np.zeros(b.shape, dtype=np.int64)
        for d in (0, 200, 400, 600, 800):
            v += np.roll(b, d, axis=1)
        total += int(np.take_along_axis(_TABLE, v[:, None, :], axis=1).sum())
    return total


def small_vectors() -> float:
    """A Python loop of checked numpy operations on 50-element vectors, like
    the steps of the ideal-Bernstein backend, 600 times."""
    line = np.zeros(_WEIGHTS.size + 1)
    for p in range(600):
        t = (np.asarray(_INPUTS[p % _INPUTS.size]) + 1.0) * 127.5
        k = np.floor(t)
        u = (2.0 * np.clip(k + ((t - k) > 0.5), 0, 255).astype(np.int64) - 255.0) / 255.0
        pos = (p * _WEIGHTS.size + np.arange(_WEIGHTS.size)) % line.size
        s = (0.5 * (0.2 * (_WEIGHTS * float(u)) + 0.8 * line[pos]) + 1.0) / 2.0
        out = np.zeros_like(s)
        for j in range(_BETA.size):
            x = np.asarray(s, dtype=np.float64)
            if np.any(x < 0.0) or np.any(x > 1.0):
                raise ValueError("calibration state left [0, 1]")
            out = out + _BETA[j] * (math.comb(5, j) * x**j * (1.0 - x) ** (5 - j))
        line = line.copy()
        line[pos] = 2.0 * out - 1.0
    return float(line.sum())


# Seconds each kernel takes on an unloaded reference machine: a 2-core
# x86-64 Xeon virtual machine at 2.0 GHz, Python 3.11, numpy 2.4, one BLAS thread.
REFERENCE_S = {"bit_streams": 0.070, "small_vectors": 0.070}


def kernel_seconds(kernel) -> float:
    """Wall seconds of one run of ``kernel``."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0

