"""Frozen calibration kernel: end-to-end times at a reference host speed.

The benchmark was defined on a shared 2-vCPU virtual machine whose speed
drifts with its neighbours' load: the same fit, repeated in one process, ran
10-30% slower for one to three minutes at a time.  Raw times of runs made
minutes apart then differ by more than any useful regression bound.

The kernel below does the two kinds of work mlgp does, with NumPy alone: a
Python loop of small NumPy calls, like the per-shape sampler, and full-batch
array operations, like a training epoch.  run.py times it three times before
every set-up and every pass, and after the last pass, and reports each end-to-end time multiplied by
``REFERENCE_S / median(kernel times of the run)``: the time the run would
have taken at the host speed where ``REFERENCE_S`` was measured.  The raw
times are printed and saved next to them.  Editing the kernel re-bases every
metric, so it never changes; a new host records a new ``REFERENCE_S``.
"""

import time

import numpy as np

# Median kernel time on the Intel Xeon 2.1 GHz 2-vCPU machine where the
# benchmark was defined (Python 3.11, NumPy 2.4, one OpenBLAS thread).
REFERENCE_S = 0.178


def _python_loop(n=3000):
    rng = np.random.default_rng(0)
    base = np.arange(12.0).reshape(4, 3)
    total = 0.0
    for _ in range(n):
        v = rng.standard_normal(3)
        v = v / np.linalg.norm(v)
        a = rng.uniform(0.0, 2.0 * np.pi)
        k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
        r = np.eye(3) + np.sin(a) * k + (1.0 - np.cos(a)) * (k @ k)
        total += float((base @ r.T + rng.uniform(-3.0, 3.0, 3)).sum())
    return total


def _array_ops(n=300):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1000, 20))
    w = rng.standard_normal((8, 20))
    rows = np.arange(1000)
    labels = rows % 8
    for _ in range(n):
        z = x @ w.T
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[rows, labels] -= 1.0
        g = p.T @ x
        w -= 1e-3 * g / (np.abs(g) + 1e-8)
    return float(w.sum())


def kernel_seconds(repeats=3):
    """Wall times of ``repeats`` back-to-back runs of the calibration kernel."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _python_loop()
        _array_ops()
        times.append(time.perf_counter() - start)
    return times
