"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: plain Python loops, set arithmetic,
and exhaustive enumeration. Latency is written out as weight times delay.
No code is shared with the library's evaluator, oracle, or trigger solver
beyond the public data types and the scalar cost callables, so agreement
between the two routes is meaningful. `loop_evaluate` is the evaluator as a
loop over `Report` objects; the columnar `evaluate` must match it bit for
bit.
Three references keep the library's own code paths instead: `full_scan_net`
reuses the trigger engine's event loop and replaces only graph-limited
forwarding, `reference_itc` and `reference_net` run the trigger engine as
it was before its lean bookkeeping (a heap push on every change of a
pending set), and `full_dp_offline` is the segment DP scanning every start
at every close, which the windowed oracle must match bit for bit.
`report_schedule_csv` writes the `aggsim run --out` schedule CSV from
`Report` objects, to pin the bytes of the columnar writer.
`k1_schedule` turns a DP table's segment choices into a K=1 schedule, so
tests can score the partition the oracle's value stands for. `time_of` and
`weight` look an event's time and measurements up by id, for the loops.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from aggsim.graph import CommGraph, Role
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


def time_of(trace: EventTrace, event_id: int) -> float:
    """Appearance time of the event with this id."""
    return float(trace.times[trace.index_of(event_id)])


def weight(trace: EventTrace, system: int, event_id: int) -> float:
    """Measurement of the event with this id at a system (0 if unobserved)."""
    return float(trace.weights[trace.index_of(event_id)][system])


def naive_gamma(
    schedule: ReportSchedule, trace: EventTrace, j: int, k: int
) -> float:
    """K-th smallest, over distinct observers, of each observer's earliest
    report time for event j, by brute listing."""
    first: dict[int, float] = {}
    for i, reports in enumerate(schedule.per_system):
        for rep in reports:
            if j in rep.event_ids and weight(trace, i, j) > 0:
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
                sum(weight(trace, i, j) for j in set(rep.event_ids))
            )
    latency = 0.0
    for j in trace.event_ids:
        g = naive_gamma(schedule, trace, j, k)
        if math.isinf(g):
            return math.inf
        t_j = time_of(trace, j)
        for i in range(trace.n_systems):
            w = weight(trace, i, j)
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
            (time_of(trace, j), j, weight(trace, i, j))
            for j in trace.event_ids
            if weight(trace, i, j) > 0
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
        weight(trace, i, j) * (t - time_of(trace, j)) for j in pending
    )


def accumulate_com(
    trace: EventTrace, i: int, pending: list[int], cost_fn: CommCost
) -> float:
    """Cost of the report system i would send for the pending event ids."""
    return cost_fn.of_total(sum(weight(trace, i, j) for j in pending))


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


class _ReferenceEngine:
    """The trigger engine as it was before its lean bookkeeping.

    It pushes a heap entry on every arrival and on every removal and reads
    each arrival's weight through a numpy scalar. `_Engine` must produce
    the same schedule, bit for bit, with one entry per observer per row
    and one per touched system per fire.
    """

    def __init__(
        self,
        trace: EventTrace,
        policy: ThresholdPolicy,
        k: int,
        cost_fn: CommCost,
        graph: CommGraph | None = None,
    ):
        n = trace.n_systems
        if not 1 <= k <= n:
            raise ValidationError(f"K must be in [1, {n}], got {k}")
        self.trace = trace
        self.policy = policy
        self.k = k
        self.cost_fn = cost_fn
        self.n = n

        self.pend: list[dict[int, float]] = [dict() for _ in range(n)]
        self.acc_w = [0.0] * n
        self.acc_wt = [0.0] * n
        self.floor = [0.0] * n
        self.version = [0] * n
        self.fired_system: list[int] = []
        self.fired_time: list[float] = []
        self.orig_rows: list[int] = []
        self.orig_len: list[int] = []
        self.fwd_rows: list[int] = []
        self.fwd_len: list[int] = []
        self.heap: list[tuple[float, int, int]] = []

        # _share(self, i, rows, t) tells the others about i's report of
        # `rows` at t and returns the rows i forwards with it. It is stored
        # unbound: a bound method would put the engine in a reference cycle
        # and keep its tables alive after run() until the cycle collector.
        if graph is not None:
            if graph.n != n:
                raise ValidationError(f"graph has {graph.n} nodes for {n} systems")
            self.known: list[dict[int, set[int]]] = [dict() for _ in range(n)]
            self.seen: list[dict[int, int]] = [dict() for _ in range(n)]
            self.dirty: list[set[int]] = [set() for _ in range(n)]
            self.neighbors = [sorted(graph.neighbors(i)) for i in range(n)]
            self.is_forward = [graph.roles[i] is Role.FORWARD for i in range(n)]
            self._share = type(self)._propagate_net
        else:
            self.cnt = [0] * trace.n_events
            self._share = type(self)._share_full

    # -- per-system trigger bookkeeping

    def _push(self, i: int) -> None:
        """Schedule i's next crossing: the earliest t >= floor at which
        sum w * (t - t_e) over i's pending events reaches theta times the
        cost of the report i would send."""
        if not self.pend[i]:
            return
        target = self.policy.theta * self.cost_fn.of_total(self.acc_w[i])
        t_star = (target + self.acc_wt[i]) / self.acc_w[i]
        if t_star < self.floor[i]:
            t_star = self.floor[i]
        heapq.heappush(self.heap, (t_star, i, self.version[i]))

    def _add_arrival(self, i: int, row: int, t: float, w: float) -> None:
        self.pend[i][row] = w
        self.acc_w[i] += w
        self.acc_wt[i] += w * t
        self.floor[i] = t
        self.version[i] += 1
        self._push(i)

    def _remove(self, i: int, row: int, t: float) -> None:
        """Drop a delivered event from i's pending set at instant t."""
        w = self.pend[i].pop(row)
        self.acc_w[i] -= w
        self.acc_wt[i] -= w * float(self.trace.times[row])
        if not self.pend[i]:
            self.acc_w[i] = 0.0
            self.acc_wt[i] = 0.0
        if t > self.floor[i]:
            self.floor[i] = t
        self.version[i] += 1
        self._push(i)

    # -- firing and intercommunication

    def _fire(self, i: int, t: float) -> None:
        rows = list(self.pend[i])
        self.pend[i].clear()
        self.acc_w[i] = 0.0
        self.acc_wt[i] = 0.0
        self.floor[i] = t
        self.version[i] += 1
        fwd = self._share(self, i, rows, t)
        self.fired_system.append(i)
        self.fired_time.append(t)
        self.orig_rows += rows
        self.orig_len.append(len(rows))
        self.fwd_rows += fwd
        self.fwd_len.append(len(fwd))

    def _share_full(self, i: int, rows: list[int], t: float) -> tuple[()]:
        """Everyone hears i; an event with K reports leaves every pending
        set, in system order."""
        pend = self.pend
        for row in rows:
            self.cnt[row] += 1
            if self.cnt[row] == self.k:
                for r in range(self.n):
                    if row in pend[r]:
                        self._remove(r, row, t)
        return ()

    def _propagate_net(
        self, i: int, rows: list[int], t: float
    ) -> list[int]:
        """Share i's report with its neighbors; returns the forwarded rows.

        The payload maps each event row to the reporting systems i can
        vouch for: itself for rows it originates now and, when i has the
        forward role, its known origins of those rows plus every dirty row.
        Receivers merge the payload and drop pending events whose known
        origin count reaches K.

        A row is dirty at a forward node when its origin set there grew
        since the node last forwarded it; first hearing of a row and
        originating it both count as growth. Forwarding clears a row, so
        each (event, origin-set size) pair is forwarded at most once and a
        fire scans only dirty rows. They are visited in first-seen order
        (the order of the whole table) because receivers call `_remove` in
        payload order, which fixes the order of the float subtractions from
        the running sums.

        A withhold node reads its table only to test the origin count of a
        pending row, and every observer of an event receives it before any
        report can name it. So a withhold node merges only rows it has
        pending and drops a row's set when the row leaves its pending set.
        """
        known_i = self.known[i]
        fwd_rows: list[int] = []
        if self.is_forward[i]:
            seen_i, dirty_i = self.seen[i], self.dirty[i]
            payload = {row: {i}.union(known_i.get(row, ())) for row in rows}
            for row in sorted(dirty_i, key=seen_i.__getitem__):
                if row not in payload:
                    # shared, not copied: i is not its own neighbor, so
                    # nothing changes this set while receivers read it
                    payload[row] = known_i[row]
                    fwd_rows.append(row)
            dirty_i.clear()
            for row in rows:
                if row not in known_i:
                    seen_i[row] = len(seen_i)
                    known_i[row] = set()
                known_i[row].add(i)
                dirty_i.add(row)
        else:
            payload = {row: {i} for row in rows}
            for row in rows:
                known_i.pop(row, None)
        k = self.k
        for r in self.neighbors[i]:
            known_r = self.known[r]
            pend_r = self.pend[r]
            if self.is_forward[r]:
                seen_r, dirty_r = self.seen[r], self.dirty[r]
                for row, origins in payload.items():
                    merged = known_r.get(row)
                    if merged is None:
                        seen_r[row] = len(seen_r)
                        merged = known_r[row] = set()
                    size = len(merged)
                    merged |= origins
                    if len(merged) > size:
                        dirty_r.add(row)
                    if len(merged) >= k and row in pend_r:
                        self._remove(r, row, t)
            else:
                for row, origins in payload.items():
                    if row not in pend_r:
                        continue
                    merged = known_r.setdefault(row, set())
                    merged |= origins
                    if len(merged) >= k:
                        del known_r[row]
                        self._remove(r, row, t)
        fwd_rows.sort()
        return fwd_rows

    # -- main loop

    def _drain(self, until: float) -> None:
        """Fire every crossing strictly before `until`, cascades included."""
        heap = self.heap
        while heap:
            t_star, i, ver = heap[0]
            if ver != self.version[i]:
                heapq.heappop(heap)
                continue
            if t_star >= until:
                break
            heapq.heappop(heap)
            self._fire(i, t_star)

    def run(self) -> ReportSchedule:
        trace = self.trace
        weights = trace.weights
        times = trace.times
        for row in range(trace.n_events):
            t = float(times[row])
            self._drain(t)
            for i in np.nonzero(weights[row] > 0)[0]:
                self._add_arrival(int(i), row, t, float(weights[row][int(i)]))
        self._drain(math.inf)
        return self._schedule()

    def _schedule(self) -> ReportSchedule:
        ids_of = self.trace.ids_of
        pairs = [
            (
                np.repeat(np.arange(len(lens)), lens),
                ids_of(np.array(rows, dtype=np.int64)),
            )
            for rows, lens in (
                (self.orig_rows, self.orig_len),
                (self.fwd_rows, self.fwd_len),
            )
        ]
        return ReportSchedule.from_fired(
            self.n, self.fired_system, self.fired_time, *pairs
        )


def reference_itc(
    trace: EventTrace,
    policy: ThresholdPolicy,
    k: int,
    cost_fn: CommCost,
) -> ReportSchedule:
    """Reference for `run_itc`: a push on every change of a pending set."""
    return _ReferenceEngine(trace, policy, k, cost_fn).run()


def reference_net(
    trace: EventTrace,
    policy: ThresholdPolicy,
    k: int,
    cost_fn: CommCost,
    graph: CommGraph,
) -> ReportSchedule:
    """Reference for `run_net`: a push on every change of a pending set."""
    return _ReferenceEngine(trace, policy, k, cost_fn, graph=graph).run()


def report_schedule_csv(schedule: ReportSchedule) -> str:
    """The `aggsim run --out` schedule CSV, written from `Report` objects."""
    lines = ["system,report_index,time,event_ids"]
    for i, reports in enumerate(schedule.per_system):
        for idx, rep in enumerate(reports):
            ids = ";".join(str(j) for j in rep.event_ids)
            lines.append(f"{i},{idx},{repr(rep.time)},{ids}")
    return "\n".join(lines) + "\n"
