"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: plain Python loops, set arithmetic,
and exhaustive enumeration. Latency is written out as weight times delay.
No code is shared with the library's evaluator, oracle, or trigger solver
beyond the public data types and the scalar cost callables, so agreement
between the two routes is meaningful. `loop_evaluate` is the evaluator as a
loop over `Report` objects; the columnar `evaluate` must match it bit for
bit.
Two references keep the library's own code paths instead: `full_scan_net`
reuses the trigger engine's event loop and replaces only graph-limited
forwarding, and `full_dp_offline` is the segment DP scanning every start at
every close, which the windowed oracle must match bit for bit.
`k1_schedule` turns a DP table's segment choices into a K=1 schedule, so
tests can score the partition the oracle's value stands for.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from aggsim.graph import CommGraph
from aggsim.model import (
    CommCost,
    CostBreakdown,
    EventTrace,
    Report,
    ReportSchedule,
    UnityCost,
    ValidationError,
)
from aggsim.offline import OfflineResult
from aggsim.online import ThresholdPolicy, _Engine


def naive_gamma(
    schedule: ReportSchedule, trace: EventTrace, j: int, k: int
) -> float:
    """K-th smallest, over distinct observers, of each observer's earliest
    report time for event j, by brute listing."""
    first: dict[int, float] = {}
    for i, reports in enumerate(schedule.per_system):
        for rep in reports:
            if j in rep.event_ids and trace.weight(i, j) > 0:
                first[i] = min(first.get(i, math.inf), rep.time)
    times = sorted(first.values())
    return times[k - 1] if len(times) >= k else math.inf


def naive_total(
    schedule: ReportSchedule,
    trace: EventTrace,
    k: int,
    rho: float,
    cost_fn: CommCost,
) -> float:
    """Blended objective computed by direct per-pair summation."""
    comm = 0.0
    for i, reports in enumerate(schedule.per_system):
        for rep in reports:
            comm += cost_fn.of_total(
                sum(trace.weight(i, j) for j in set(rep.event_ids))
            )
    latency = 0.0
    for j in trace.event_ids:
        g = naive_gamma(schedule, trace, j, k)
        if math.isinf(g):
            return math.inf
        t_j = trace.time_of(j)
        for i in range(trace.n_systems):
            w = trace.weight(i, j)
            if w > 0:
                latency += w * (g - t_j)
    return rho * comm + (1.0 - rho) * latency


def loop_evaluate(
    schedule: ReportSchedule,
    trace: EventTrace,
    k: int,
    rho: float,
    cost_fn: CommCost,
) -> CostBreakdown:
    """`evaluate` as a loop over `Report` objects, one id lookup at a time.

    Each (event, system) pair is one hit, at that system's earliest report
    of the event. Floats are added in the same order as the columnar
    `evaluate`, so the two agree bit for bit.
    """
    if not 0 < rho < 1:
        raise ValidationError(f"rho must lie in (0, 1), got {rho}")
    if not 1 <= k <= trace.n_systems:
        raise ValidationError(f"K must be in [1, {trace.n_systems}], got {k}")
    schedule.validate(trace)

    comm = 0.0
    # Delivery times: k-th smallest of the observers' first report times.
    hit_times: dict[int, dict[int, float]] = {e: {} for e in trace.event_ids}
    for i, reports in enumerate(schedule.per_system):
        for rep in reports:
            total_w = 0.0
            for j in rep.event_ids:
                w = trace.weights[trace.index_of(j)][i]
                total_w += w
                hit_times[j].setdefault(i, rep.time)
            comm += cost_fn.of_total(total_w)

    gammas = np.empty(trace.n_events, dtype=np.float64)
    infeasible: list[int] = []
    for pos, j in enumerate(trace.event_ids):
        times = sorted(hit_times[j].values())
        if len(times) < k:
            gammas[pos] = math.inf
            infeasible.append(j)
        else:
            gammas[pos] = times[k - 1]

    if infeasible:
        return CostBreakdown(
            comm=comm,
            latency=math.inf,
            total=math.inf,
            infeasible_events=tuple(infeasible),
        )

    row_sums = trace.weights.sum(axis=1)
    latency = float(np.dot(row_sums, gammas - trace.times))

    total = rho * comm + (1.0 - rho) * latency
    return CostBreakdown(comm=comm, latency=latency, total=total)


def segment_partitions(m: int):
    """Yield every partition of range(m) into consecutive segments."""
    if m == 0:
        yield []
        return
    for cuts in itertools.product([False, True], repeat=m - 1):
        parts = []
        start = 0
        for pos, cut in enumerate(cuts, start=1):
            if cut:
                parts.append(list(range(start, pos)))
                start = pos
        parts.append(list(range(start, m)))
        yield parts


def brute_force_offline(
    trace: EventTrace,
    k: int,
    rho: float,
    cost_fn: CommCost,
) -> float:
    """Exhaustive minimum over consecutive-segment partitions.

    Each segment closes with a report at its last event's time; its cost is
    k times the cheapest single system's report for the segment plus every
    observation's latency up to that close. This enumerates the same family
    the dynamic program optimizes over, without any recurrence or caching.
    """
    m = trace.n_events
    if m == 0:
        return 0.0
    best = math.inf
    for parts in segment_partitions(m):
        total = 0.0
        for seg in parts:
            t_close = float(trace.times[seg[-1]])
            com = min(
                cost_fn.of_total(
                    sum(float(trace.weights[r][i]) for r in seg)
                )
                for i in range(trace.n_systems)
            )
            lat = 0.0
            for r in seg:
                t_r = float(trace.times[r])
                for i in range(trace.n_systems):
                    w = float(trace.weights[r][i])
                    if w > 0:
                        lat += w * (t_close - t_r)
            total += rho * k * com + (1.0 - rho) * lat
        best = min(best, total)
    return best


def full_dp_offline(
    trace: EventTrace, k: int, rho: float, cost_fn: CommCost
) -> OfflineResult:
    """The segment DP with linear latency, scanning every start a < j at
    every close j. Inputs are assumed valid (K-feasible, 0 < rho < 1,
    m >= 1)."""
    m = trace.n_events
    n = trace.n_systems
    times = trace.times
    weights = trace.weights
    row_sum = weights.sum(axis=1)
    sw = np.concatenate(([0.0], np.cumsum(row_sum)))
    swt = np.concatenate(([0.0], np.cumsum(row_sum * times)))
    unity = isinstance(cost_fn, UnityCost)
    pw = np.vstack([np.zeros(n), np.cumsum(weights, axis=0)])

    cost_min = np.empty(m + 1)
    choice = np.zeros(m + 1, dtype=np.int64)
    cost_min[0] = 0.0
    for j in range(1, m + 1):
        t_close = times[j - 1]
        lat = t_close * (sw[j] - sw[:j]) - (swt[j] - swt[:j])
        if unity:
            com = np.ones(j)
        else:
            com = cost_fn.of_total_array((pw[j] - pw[:j]).min(axis=1))
        cand = rho * k * com + (1.0 - rho) * lat + cost_min[:j]
        a_best = int(np.argmin(cand))
        cost_min[j] = cand[a_best]
        choice[j] = j - a_best
    return OfflineResult(float(cost_min[m]), cost_min, choice)


def k1_schedule(
    trace: EventTrace, choice: np.ndarray, cost_fn: CommCost
) -> ReportSchedule:
    """K=1 schedule for the segment partition that `choice` encodes.

    Segment lengths are walked back from the last event. Each segment is
    reported at its closing event time by the cheapest system, preferring
    among tied systems one that observed the whole segment, then the lowest
    index. Events the chosen system did not observe ride along as forwarded
    ids. The schedule is deliverable as written whenever each chosen system
    observed its whole segment, which always holds for all-positive weights.
    """
    n = trace.n_systems
    times = trace.times
    weights = trace.weights
    segments = []
    j = trace.n_events
    while j > 0:
        length = int(choice[j])
        segments.append((j - length, j))
        j -= length
    segments.reverse()
    per_system = [[] for _ in range(n)]
    for a, b in segments:
        seg_tot = weights[a:b].sum(axis=0)
        costs = cost_fn.of_total_array(seg_tot)
        best_cost = float(costs.min())
        tied = [i for i in range(n) if float(costs[i]) <= best_cost]
        full_cover = [i for i in tied if bool((weights[a:b, i] > 0).all())]
        i_star = full_cover[0] if full_cover else tied[0]
        rows = range(a, b)
        if not any(weights[r][i_star] > 0 for r in rows):
            i_star = int(np.argmax(seg_tot > 0))
        per_system[i_star].append(
            Report(
                float(times[b - 1]),
                tuple(trace.event_ids[r] for r in rows if weights[r][i_star] > 0),
                tuple(trace.event_ids[r] for r in rows if weights[r][i_star] <= 0),
            )
        )
    return ReportSchedule(tuple(tuple(r) for r in per_system))


def independent_thb(
    trace: EventTrace,
    theta: float,
    cost_fn: CommCost,
) -> list[list[tuple[float, tuple[int, ...]]]]:
    """Reference no-intercommunication march with bisection crossings.

    Returns, per system, (report_time, event_ids) pairs. Written without
    the closed-form solver or any engine machinery.
    """
    n = trace.n_systems
    out: list[list[tuple[float, tuple[int, ...]]]] = []
    for i in range(n):
        mine = [
            (trace.time_of(j), j, trace.weight(i, j))
            for j in trace.event_ids
            if trace.weight(i, j) > 0
        ]
        reports: list[tuple[float, tuple[int, ...]]] = []
        pending: list[tuple[float, float, int]] = []  # (w, t_e, id)
        for pos, (t_e, j, w) in enumerate(mine):
            nxt = mine[pos + 1][0] if pos + 1 < len(mine) else math.inf
            pending.append((w, t_e, j))
            target = theta * cost_fn.of_total(sum(p[0] for p in pending))
            t_star = crossing_time_bisect(
                [(p[0], p[1]) for p in pending], target, t_e
            )
            if t_star < nxt:
                reports.append((t_star, tuple(p[2] for p in pending)))
                pending = []
        out.append(reports)
    return out


def accumulate_lat(
    trace: EventTrace, i: int, t: float, pending: list[int]
) -> float:
    """Latency system i has accrued by t on the pending event ids."""
    return sum(
        trace.weight(i, j) * (t - trace.time_of(j)) for j in pending
    )


def accumulate_com(
    trace: EventTrace, i: int, pending: list[int], cost_fn: CommCost
) -> float:
    """Cost of the report system i would send for the pending event ids."""
    return cost_fn.of_total(sum(trace.weight(i, j) for j in pending))


def crossing_time_bisect(
    pending: list[tuple[float, float]],
    target: float,
    t_lo: float,
    tol: float = 1e-12,
) -> float:
    """Earliest t with sum(w * (t - t_e)) >= target, by bisection.

    `pending` holds (weight, event_time) pairs. Reference for the engine's
    closed-form crossing; assumes at least one positive weight.
    """

    def lat(t: float) -> float:
        return sum(w * (t - te) for w, te in pending)

    lo = max(t_lo, max(te for _, te in pending))
    if lat(lo) >= target:
        return lo
    hi = lo + 1.0
    while lat(hi) < target:
        hi = lo + 2.0 * (hi - lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lat(mid) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol:
            break
    return hi


def _edge_set(n: int, edges) -> set:
    out = set()
    for a, b in edges:
        out.add((min(a, b), max(a, b)))
    return out


def brute_mis_size(n: int, edges) -> int:
    """Maximum independent set size by checking every subset."""
    es = _edge_set(n, edges)
    best = 0
    for mask in range(1 << n):
        nodes = [v for v in range(n) if mask >> v & 1]
        if all(
            (a, b) not in es
            for a, b in itertools.combinations(nodes, 2)
        ):
            best = max(best, len(nodes))
    return best


def brute_min_cds_size(n: int, edges) -> int:
    """Minimum connected dominating set size by subset enumeration."""
    es = _edge_set(n, edges)
    nbrs = {v: set() for v in range(n)}
    for a, b in es:
        nbrs[a].add(b)
        nbrs[b].add(a)
    if n == 1:
        return 1

    def dominating(nodes) -> bool:
        covered = set(nodes)
        for v in nodes:
            covered |= nbrs[v]
        return len(covered) == n

    def connected(nodes) -> bool:
        todo = [nodes[0]]
        seen = {nodes[0]}
        while todo:
            v = todo.pop()
            for u in nbrs[v] & set(nodes):
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        return len(seen) == len(nodes)

    for size in range(1, n + 1):
        for nodes in itertools.combinations(range(n), size):
            if dominating(nodes) and connected(list(nodes)):
                return size
    return n


def brute_x(n: int, edges, forward_nodes) -> int:
    """Network parameter by exhaustive subset search: |forwarders| plus the
    largest independent set of withhold nodes having no forwarder neighbor."""
    es = _edge_set(n, edges)
    fwd = set(forward_nodes)
    banned = set(fwd)
    for a, b in es:
        if a in fwd:
            banned.add(b)
        if b in fwd:
            banned.add(a)
    free = [v for v in range(n) if v not in banned]
    best = 0
    for mask in range(1 << len(free)):
        nodes = [free[i] for i in range(len(free)) if mask >> i & 1]
        if all(
            (a, b) not in es
            for a, b in itertools.combinations(nodes, 2)
        ):
            best = max(best, len(nodes))
    return len(fwd) + best


class _FullScanNetEngine(_Engine):
    """Graph-limited forwarding with full tables and a full scan per fire.

    Every node keeps the origin set of every event it has heard of. On each
    fire a forward node scans its whole table in first-seen order and
    forwards every row whose set is larger than when it last forwarded it.
    """

    def __init__(self, trace, policy, k, cost_fn, graph):
        super().__init__(trace, policy, k, cost_fn, graph=graph)
        self.known = [dict() for _ in range(self.n)]
        self.fwd_sent = [dict() for _ in range(self.n)]

    def _propagate_net(self, i, rows, t):
        known_i = self.known[i]
        payload = {row: {i} for row in rows}
        fwd_ids = []
        if self.is_forward[i]:
            for row, origins in known_i.items():
                if row in payload:
                    payload[row] = payload[row] | origins
                    continue
                if len(origins) > self.fwd_sent[i].get(row, 0):
                    payload[row] = set(origins)
                    fwd_ids.append(row)
                    self.fwd_sent[i][row] = len(origins)
        for row in rows:
            known_i.setdefault(row, set()).add(i)
        for r in sorted(set(self.neighbors[i])):
            known_r = self.known[r]
            for row, origins in payload.items():
                merged = known_r.setdefault(row, set())
                merged |= origins
                if len(merged) >= self.k and row in self.pend[r]:
                    self._remove(r, row, t)
        return sorted(fwd_ids)


def full_scan_net(
    trace: EventTrace,
    policy: ThresholdPolicy,
    k: int,
    cost_fn: CommCost,
    graph: CommGraph,
) -> ReportSchedule:
    """Reference for `run_net`: forwarding by rescanning full tables."""
    return _FullScanNetEngine(trace, policy, k, cost_fn, graph).run()
