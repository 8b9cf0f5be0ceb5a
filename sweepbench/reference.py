"""A fixed compute kernel, independent of aggsim, timed beside every sweep.

On a shared virtual machine the host's speed drifts by tens of percent over
minutes as other tenants' load comes and goes, and CPU time drifts with
wall time. `timed()` runs the kernel once in each process of a `pool()` at
the same time, as the sweep's two pool workers run, and returns the mean
per-process wall and CPU time.
The benchmark times it after every sweep and divides a run's median sweep
wall and CPU time by the kernel's median wall and CPU time over the same
run. Drift that slows both alike cancels, while a change to aggsim moves
only the sweep. The wall time of two processes at once also shows time
the host takes from either vCPU, as a two-worker sweep's does.

The kernel mixes the two kinds of work a sweep does: interpreter-bound
dict and heap updates, like the online engines, and numpy reductions over a
growing prefix of a table, like the oracle's dynamic programme.
"""

from __future__ import annotations

import contextlib
import heapq
import subprocess
import sys
import time

PY_STEPS = 120_000
DP_ROWS = 1_900
DP_COLS = 10


def kernel() -> float:
    """The fixed work; returns a checksum so nothing is optimised away."""
    import numpy as np

    heap: list[tuple[int, int]] = []
    seen: dict[int, int] = {}
    acc = 0
    for i in range(PY_STEPS):
        key = (i * 7919) % 1021
        seen[key] = seen.get(key, 0) + 1
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    prefix = np.cumsum(
        np.arange(DP_ROWS * DP_COLS, dtype=float).reshape(DP_ROWS, DP_COLS) % 13,
        axis=0,
    )
    best = np.zeros(DP_ROWS)
    for j in range(1, DP_ROWS):
        best[j] = ((prefix[j] - prefix[:j]).min(axis=1) + best[:j]).min()
    return acc + len(seen) + float(best[-1])


def _one() -> tuple[float, float]:
    t0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - t0, time.process_time() - c0


@contextlib.contextmanager
def pool(procs: int):
    """`procs` worker interpreters for `timed`; each is waited for on exit.

    A worker runs this file with `--worker`: it times one kernel run per
    line it reads and exits at the end of its input.
    """
    workers: list[subprocess.Popen] = []
    try:
        for _ in range(procs):
            workers.append(subprocess.Popen(
                [sys.executable, __file__, "--worker"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            ))
        yield workers
    finally:
        for worker in workers:
            with contextlib.suppress(OSError):
                worker.stdin.close()
        for worker in workers:
            try:
                worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
            worker.stdout.close()


def timed(workers: list[subprocess.Popen]) -> tuple[float, float]:
    """Mean (wall_s, cpu_s) of one kernel run in each worker, run at once."""
    for worker in workers:
        worker.stdin.write("run\n")
        worker.stdin.flush()
    runs = []
    for worker in workers:
        line = worker.stdout.readline()
        if not line:
            raise RuntimeError(f"reference worker exited {worker.wait()}")
        wall, cpu = map(float, line.split())
        runs.append((wall, cpu))
    n = len(runs)
    return (sum(w for w, _ in runs) / n, sum(c for _, c in runs) / n)


def _serve() -> None:
    for _ in sys.stdin:
        print(*_one(), flush=True)


if __name__ == "__main__" and sys.argv[1:] == ["--worker"]:
    _serve()
