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

from aggsim.model import CommCost, EventTrace, UnityCost, ValidationError

__all__ = ["OfflineResult", "offline_lb"]


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
    lat(a, j) holds those rows until t_{j-1}. The loop scans only the starts
    [lo, j). With b = a+1 < j and
    c_max = cost_fn.of_total(min_i sum_r w_ri), start a = lo is dropped for
    good once

        (1-rho) * (sw[b] - sw[a]) * (t_{j-1} - t_a) > rho*K*c_max + tol.

    Proof sketch: cost_min[b] <= cand(a, b) = rho*K*com(a, b) + cost_min[a],
    com(a, j) >= com(a, b) because com grows with the segment, and
    com(b, j) <= c_max. Hence cand(a, j) - cand(b, j) is at least the left
    side minus rho*K*c_max, which grows with j: a loses to a+1 at this and
    every later close. Every dropped start loses to its successor, so
    [0, lo) loses to lo and lo only moves forward. On generated traces few
    starts stay undominated and the loop takes O(m) vector steps; O(m^2)
    remains the worst case.

    tol = 64*eps*(T*S + (m+1)*rho*K*c_max), with T = t_{m-1} and S = sw[m],
    covers rounding. Each computed cand is within about
    11u*(T*S + rho*K*c_max + max|cost_min|) of its exact value (u = eps/2),
    the test within 8u*T*S, computed com within a few ulps of c_max, and
    |cost_min| <= (m+1)*rho*K*c_max. The bound uses three cands, about
    41u*(T*S + (m+1)*rho*K*c_max) in all, so a dropped start also loses in
    computed values. The window's cand values are the full scan's bit for
    bit, and so are cost_min, choice and the value.
    """
    if not 0 < rho < 1:
        raise ValidationError(f"rho must lie in (0, 1), got {rho}")
    m = trace.n_events
    n = trace.n_systems
    if not 1 <= k <= n:
        raise ValidationError(f"K must be in [1, {n}], got {k}")
    if m == 0:
        return OfflineResult(0.0, np.zeros(1), np.zeros(1, dtype=np.int64))
    trace.check_k_feasible(k)

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

    lo = 0  # every start below lo is dominated at every remaining close
    c_max = 1.0 if unity else cost_fn.of_total(float(pw[m].min()))
    tol = 64 * np.finfo(float).eps * (
        times[-1] * sw[m] + (m + 1) * rho * k * c_max
    )
    drop_above = rho * k * c_max + tol

    for j in range(1, m + 1):
        t_close = times[j - 1]
        while (
            lo < j - 1
            and (1.0 - rho) * (sw[lo + 1] - sw[lo]) * (t_close - times[lo])
            > drop_above
        ):
            lo += 1
        lat = t_close * (sw[j] - sw[lo:j]) - (swt[j] - swt[lo:j])
        if unity:
            com = 1.0  # rho * k * 1.0 broadcasts to the same bits as an array
        else:
            com = cost_fn.of_total_array((pw[j] - pw[lo:j]).min(axis=1))
        cand = rho * k * com + (1.0 - rho) * lat + cost_min[lo:j]
        a_best = lo + int(np.argmin(cand))
        cost_min[j] = cand[a_best - lo]
        choice[j] = j - a_best

    return OfflineResult(float(cost_min[m]), cost_min, choice)
