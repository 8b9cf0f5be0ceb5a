"""Offline dynamic-programming oracle.

Computes the best cost over all partitions of the event stream into
consecutive segments, where each segment is closed by a report at its last
event's appearance time and charged K times the cheapest single system's
report for the segment. The result lower-bounds the cost of every feasible
schedule, and equals the optimum for K=1. The oracle returns the value and
its DP table; a sweep needs only the value.

Used as the denominator of every empirical ratio in the benchmark harness.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from aggsim.model import CommCost, EventTrace, UnityCost, check_rho

__all__ = ["OfflineResult", "offline_lb"]

# A chunk holds at most this many (cell, system) values: each temporary is
# 128 KB, so the chunks raise no sweep's peak memory.
_CHUNK_ELEMS = 1 << 14
# A close with at least this many window starts takes one vector step of
# about a dozen numpy calls; below it the scalar sweep over its cells is
# faster (the two cross near 64 starts at N=10).
_WIDE = 64


class OfflineResult(NamedTuple):
    """The optimal value and the filled table.

    cost_min[j] is the best cost over the first j events; choice[j] is the
    length of the final segment in one optimal partition of that prefix.
    """

    value: float
    cost_min: np.ndarray
    choice: np.ndarray


def offline_lb(
    trace: EventTrace,
    k: int,
    rho: float,
    cost_fn: CommCost,
) -> OfflineResult:
    """Best segment-partition cost; exact for K=1, a lower bound for K>1.

    Returns the optimal value and the filled table; no schedule is built.

    cost_min[j] is the minimum over starts a < j of
    cand(a, j) = rho*K*com(a, j) + (1-rho)*lat(a, j) + cost_min[a], where
    com(a, j) is the cheapest system's report cost for rows [a, j) and
    lat(a, j) holds those rows until t_{j-1}. Close j scans only the starts
    [lo, j). With b = a+1 < j and
    c_max = cost_fn.of_total(min_i sum_r w_ri), start a = lo is dropped for
    good once

        (1-rho) * (sw[b] - sw[a]) * (t_{j-1} - t_a) > rho*K*c_max + tol.

    Proof sketch: cost_min[b] <= cand(a, b) = rho*K*com(a, b) + cost_min[a],
    com(a, j) >= com(a, b) because com grows with the segment, and
    com(b, j) <= c_max. Hence cand(a, j) - cand(b, j) is at least the left
    side minus rho*K*c_max, which grows with j: a loses to a+1 at this and
    every later close. Every dropped start loses to its successor, so
    [0, lo) loses to lo and lo only moves forward. O(m^2) remains the worst
    case; on generated traces about two starts per close stay undominated.

    tol = 64*eps*(T*S + (m+1)*rho*K*c_max), with T = t_{m-1} and S = sw[m],
    covers rounding. Each computed cand is within about
    11u*(T*S + rho*K*c_max + max|cost_min|) of its exact value (u = eps/2),
    the test within 8u*T*S, computed com within a few ulps of c_max, and
    |cost_min| <= (m+1)*rho*K*c_max. The bound uses three cands, about
    41u*(T*S + (m+1)*rho*K*c_max) in all, so a dropped start also loses in
    computed values.

    The DP runs in two passes. The window starts lo(j) do not depend on
    cost_min, so a scalar pass finds them all first. The second pass lists
    the cells (a, j), a in [lo(j), j), of closes with narrow windows in
    chunks of about _CHUNK_ELEMS (cell, system) values. It computes each
    chunk's charges rho*K*com(a, j) + (1-rho)*lat(a, j) as flat arrays, then
    sweeps the chunk's closes in order: cost_min[j] is the first strict
    minimum of charge + cost_min[a] over Python floats. A close with _WIDE
    or more starts takes one vector step over its window instead, as the
    full scan does. Chunked charges are the full scan's floats: each is the
    same sequence of correctly rounded elementwise operations, the min over
    systems is exact, and of_total_array gives a value the same bits at any
    position in any array. Python float addition rounds as numpy's does, and
    the first strict minimum is np.argmin's choice unless a NaN follows a
    number, which needs a sum to overflow at a later start but not at the
    first, whose sums contain every later start's. So cost_min, choice and
    the value are the full scan's bit for bit.
    """
    check_rho(rho)
    trace.check_k_feasible(k)
    m = trace.n_events
    n = trace.n_systems
    if m == 0:
        return OfflineResult(0.0, np.zeros(1), np.zeros(1, dtype=np.int64))

    times = trace.times
    weights = trace.weights
    row_sum = weights.sum(axis=1)

    # Prefix sums over event rows; index j covers the first j events.
    sw = np.concatenate(([0.0], np.cumsum(row_sum)))
    swt = np.concatenate(([0.0], np.cumsum(row_sum * times)))
    unity = isinstance(cost_fn, UnityCost)
    if not unity:
        pw = np.vstack([np.zeros(n), np.cumsum(weights, axis=0)])

    cost_min = np.empty(m + 1)
    choice = np.zeros(m + 1, dtype=np.int64)
    cost_min[0] = 0.0

    c_max = 1.0 if unity else cost_fn.of_total(float(pw[m].min()))
    tol = 64 * np.finfo(float).eps * (
        times[-1] * sw[m] + (m + 1) * rho * k * c_max
    )

    def charges(close, start):
        # close an int and start a slice, or both index arrays of cells
        lat = times[close - 1] * (sw[close] - sw[start]) - (
            swt[close] - swt[start]
        )
        if unity:
            com = 1.0  # rho * k * 1.0 broadcasts to the same bits as an array
        else:
            com = cost_fn.of_total_array((pw[close] - pw[start]).min(axis=1))
        return rho * k * com + (1.0 - rho) * lat

    # Pass 1: every start below lo[j] is dominated at close j. Memoryviews
    # read and write Python floats and ints with no per-event objects kept.
    drop_above = float(rho * k * c_max + tol)
    t_at = memoryview(times)
    sw_at = memoryview(sw)
    lo = np.zeros(m + 1, dtype=np.int64)
    lo_at = memoryview(lo)
    a = 0
    for j in range(1, m + 1):
        t_close = t_at[j - 1]
        while (
            a < j - 1
            and (1.0 - rho) * (sw_at[a + 1] - sw_at[a]) * (t_close - t_at[a])
            > drop_above
        ):
            a += 1
        lo_at[j] = a
    width = np.arange(m + 1) - lo
    narrow = width < _WIDE
    cells_before = np.cumsum(np.where(narrow, width, 0))
    chunk_cells = max(_CHUNK_ELEMS // n, _WIDE)

    # Pass 2, one chunk of closes at a time: the charges of the chunk's
    # narrow cells as flat arrays, then the min-plus sweep over its closes.
    cm = memoryview(cost_min)  # reads and writes cost_min as Python floats
    j0 = 1
    while j0 <= m:
        j1 = int(
            np.searchsorted(
                cells_before, cells_before[j0 - 1] + chunk_cells, side="right"
            )
        )
        closes = np.flatnonzero(narrow[j0:j1]) + j0
        w = width[closes]
        first = np.cumsum(w) - w
        cell_close = np.repeat(closes, w)
        cell_start = np.arange(int(w.sum())) + np.repeat(lo[closes] - first, w)
        base = charges(cell_close, cell_start).tolist()
        p = 0
        for j, a0 in enumerate(lo[j0:j1].tolist(), j0):
            if j - a0 >= _WIDE:
                cand = charges(j, slice(a0, j)) + cost_min[a0:j]
                i = int(cand.argmin())
                cm[j] = cand.item(i)
                choice[j] = j - a0 - i
                continue
            best = base[p] + cm[a0]
            a_best = a0
            for a in range(a0 + 1, j):
                p += 1
                c = base[p] + cm[a]
                if c < best:
                    best = c
                    a_best = a
            p += 1
            cm[j] = best
            choice[j] = j - a_best
        j0 = j1

    return OfflineResult(float(cost_min[m]), cost_min, choice)
