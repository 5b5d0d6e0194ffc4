"""Fixed reference computations that calibrate op times against host speed.

On a host that shares its cores with other tenants (the baseline's 2-core
Xeon VM is one), speed drifts by 20-40 % over minutes, which no statistic over
one run's ops can remove.  A reference computation runs before each op and
after the last one; an op's time divided by the mean of its two neighbours
moves with the program's speed and not with the host's.  The benchmark owns these computations and the
package never runs them, so no change to the package can move them.

How much a slow spell stretches a computation depends on its kind of work,
so each workload uses the reference shaped like its own hot path.  Each one
returns its duration in seconds; its work is fixed, so changing it resets the
baseline.  Each works in buffers made on its first call: references that
allocated their arrays took one of two times, 21 or 29 ms, by the state the
op before them left the allocator in.
"""
from __future__ import annotations

import functools
import time

import numpy as np


@functools.cache
def _mix_buffers(n: int) -> tuple[np.ndarray, ...]:
    return np.linspace(0.0, 1.0, n), np.full(n, 0.0), np.full(n, 0.0), np.full(n, False)


def interpreter_mix() -> float:
    """A scalar min/max loop, like the clearing sweeps and the theory layers,
    plus numpy selects and reductions (~40 ms)."""
    a, b, shifted, mask = _mix_buffers(100_000)
    start = time.perf_counter()
    x = 1.0
    for _ in range(60_000):
        x = min(max(0.4 + 0.7 * x - 0.1, 0.0), 2.0)
    for _ in range(40):
        np.multiply(a, 1.1, out=b)
        np.subtract(a, 0.2, out=shifted)
        np.greater_equal(a, 0.8, out=mask)
        np.copyto(b, shifted, where=mask)
        b.sum()
        np.greater(b, 0.5, out=mask)
        np.count_nonzero(mask)
    return time.perf_counter() - start


@functools.cache
def _matrix_buffers(rows: int, cols: int) -> tuple[np.ndarray, ...]:
    return (np.full((rows, cols), 0.0), np.full((rows, cols), False),
            np.full(cols, 0.0), np.full(rows, 1.0))


def matrix_round(rows: int = 500, cols: int = 1000, rounds: int = 8, sweeps: int = 8) -> float:
    """Dense matrix work shaped like sparse rounds (~30 ms): per round a
    uniform draw into a rows x cols weight matrix, a link indicator and
    vector-matrix sweeps.  The matrix is a quarter of the workload's, so
    that its buffers add only ~4.5 MB to the peak memory."""
    weights, links, claims, X = _matrix_buffers(rows, cols)
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    for _ in range(rounds):
        rng.random(out=weights)
        np.less(weights, 0.1, out=links)
        np.multiply(links, 0.05, out=weights)
        for _ in range(sweeps):
            np.dot(X, weights, out=claims)
            np.clip(claims[:rows] - 0.5, 0.0, 1.0, out=X)
    return time.perf_counter() - start


@functools.cache
def _population_buffers(n: int) -> tuple[np.ndarray, ...]:
    return (np.full(n, 0.0), np.full(n, 0.0), np.full(n, 0.0), np.full(n, False),
            np.arange(n, dtype=np.uint64), np.arange(n, dtype=np.uint64))


def population_round(n: int = 50_000, rounds: int = 60) -> float:
    """Array work shaped like population rounds at n agents (~40 ms): shock
    draws, clamped returns, a few sampled comparisons and a shifted id array."""
    u, k, r, mask, ids, spare = _population_buffers(n)
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    wins = 0
    for _ in range(rounds):
        rng.random(out=u)
        np.less(u, 0.8, out=mask)
        k.fill(0.5)
        np.copyto(k, 1.5, where=mask)
        np.subtract(k, 0.9, out=r)
        np.maximum(r, 0.0, out=r)
        np.less(k, 1.0, out=mask)
        wins += int(np.count_nonzero(mask))
        picks = rng.choice(n, size=6, replace=False)
        for a, c in zip(picks.tolist(), rng.integers(0, n, 6).tolist()):
            wins += r[a] > r[c]
        spare[:-3] = ids[3:]
        spare[-3:] = ids[:3]
        ids, spare = spare, ids
    return time.perf_counter() - start
