"""Threshold-triggered online reporting algorithms and their tuning rules.

Each system accumulates latency penalty for its locally unreported events
and fires a report the instant that penalty reaches theta times the cost of
the report it would send. Three intercommunication settings:

  * none: systems run independently, as one scalar scan per system over
    the rows it observes (run_thb);
  * full: every report is overheard by everyone, and events already
    reported K times are dropped from all pending sets (run_itc);
  * partial: overhearing is restricted to graph neighbors, with
    forward-role nodes relaying identifiers of overheard reports (run_net).

The last two share one continuous-time engine.

The closed-form threshold settings below balance worst-case report cost
against worst-case latency; each carries its proven competitive ratio.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from aggsim.graph import CommGraph, Role
from aggsim.model import (
    CommCost,
    EventTrace,
    ReportSchedule,
    ValidationError,
    check_k,
    check_rho,
)

__all__ = [
    "ThresholdPolicy",
    "balance_root",
    "threshold_none",
    "threshold_full",
    "threshold_partial",
    "ratio_none",
    "ratio_full",
    "ratio_partial",
    "run_thb",
    "run_itc",
    "run_net",
]


# ------------------------------------------------------------------ policy


@dataclass(frozen=True)
class ThresholdPolicy:
    """Trigger threshold shared by every system."""

    theta: float

    def __post_init__(self):
        th = self.theta
        if not (isinstance(th, (int, float)) and th > 0 and math.isfinite(th)):
            raise ValidationError(f"theta must be positive and finite, got {th}")
        object.__setattr__(self, "theta", float(th))


# ------------------------------------------------- threshold closed forms


def _check_params(n: int, k: int, alpha: float, rho: float | None) -> None:
    if n < 1:
        raise ValidationError(f"need at least one system, got n={n}")
    check_k(k, n)
    if not 1 <= alpha < math.inf:
        raise ValidationError(
            f"cost ratio alpha must be >= 1 and finite, got {alpha}"
        )
    if rho is not None:
        check_rho(rho)


def threshold_none(n: int, k: int, alpha: float, rho: float) -> float:
    """Threshold for independent systems: K*rho / (alpha*N*(1-rho))."""
    _check_params(n, k, alpha, rho)
    return k * rho / (alpha * n * (1.0 - rho))


def ratio_none(n: int, k: int, alpha: float) -> float:
    """Proven competitive ratio without intercommunication: alpha*N/K + 1."""
    _check_params(n, k, alpha, None)
    return alpha * n / k + 1.0


def balance_root(n: int, k: int, alpha: float, x: float = 1.0) -> float:
    """Positive root phi of phi + 1 = (alpha/K) * (N/phi + x).

    phi balances the two sides of the cost bound; x is the network
    parameter (x=1: full intercommunication, x=N: none, where phi
    collapses to alpha*N/K exactly).
    """
    _check_params(n, k, alpha, None)
    if not 1 <= x <= n:
        raise ValidationError(f"x must lie in [1, {n}], got {x}")
    ax = alpha * x
    return (math.sqrt((ax - k) ** 2 + 4.0 * alpha * k * n) + ax - k) / (2.0 * k)


def threshold_full(n: int, k: int, alpha: float, rho: float) -> float:
    """Threshold under full intercommunication: rho / ((1-rho) * phi)."""
    _check_params(n, k, alpha, rho)
    return rho / ((1.0 - rho) * balance_root(n, k, alpha, 1.0))


def ratio_full(n: int, k: int, alpha: float) -> float:
    """Proven competitive ratio under full intercommunication: phi + 1."""
    return balance_root(n, k, alpha, 1.0) + 1.0


def threshold_partial(
    n: int, k: int, alpha: float, x: float, rho: float
) -> float:
    """Threshold under partial intercommunication with network parameter x."""
    _check_params(n, k, alpha, rho)
    return rho / ((1.0 - rho) * balance_root(n, k, alpha, x))


def ratio_partial(n: int, k: int, alpha: float, x: float) -> float:
    """Competitive ratio under partial intercommunication: phi_x + 1."""
    return balance_root(n, k, alpha, x) + 1.0


def default_theta(
    n: int, k: int, alpha: float, rho: float, x: float | None
) -> float:
    """The matching bound's threshold: `threshold_none` without
    intercommunication (x None), else `threshold_partial` at network
    parameter x (x=1, full intercommunication, is `threshold_full`)."""
    if x is None:
        return threshold_none(n, k, alpha, rho)
    return threshold_partial(n, k, alpha, x, rho)


# ------------------------------------------------------------- the engine


class _Engine:
    """Continuous-time trigger engine shared by the three algorithms.

    State per system: the pending rows, an insertion-ordered dict from row
    to weight, with running weight sums, and a version counter that
    invalidates stale heap entries; no floor is kept, since a crossing is
    floored at the instant of its push (the arrival or fire causing it).
    The heap is keyed by (crossing time, system) so simultaneous crossings
    fire one at a time in index order; every fire updates shared counts
    before the next candidate is examined, which realizes same-instant
    cascades.

    Cost model: each event row's observers and weights are read once, as
    Python lists, and each observer pushes one heap entry. A fire pushes
    one entry per system whose pending set it shrank (`touched`), after
    the report has reached everyone who hears it, instead of one per
    removed event. Only the last push of a system between two pops can be
    current, and current keys (time, system, version) are unique, so the
    fire order and every float are those of pushing on each change. A fire
    bumps no version: it popped its sender's only current entry.

    With no graph, a report is heard by everyone and an event leaves every
    pending set once it has K reports (`_share_full`); with a graph,
    reports reach neighbors only (`_propagate_net`). Systems that share
    nothing need no engine (`run_thb`).

    Reports are written in firing order as columns (system, time, and the
    rows each originates and forwards) for the `ReportSchedule` constructor.

    Graph-limited mode adds a `known` table per node, mapping event rows to
    the systems known to have reported them. A forward node keeps its whole
    table, the first-seen rank of each row in it (`seen`) and its `dirty`
    rows: those whose origin set grew since the node last forwarded them.
    A withhold node keeps origin sets only for the rows it has pending.
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
        check_k(k, n)
        self.trace = trace
        self.policy = policy
        self.k = k
        self.cost_fn = cost_fn
        self.n = n

        self.pend: list[dict[int, float]] = [dict() for _ in range(n)]
        self.acc_w = [0.0] * n
        self.acc_wt = [0.0] * n
        self.version = [0] * n
        self.fired_system: list[int] = []
        self.fired_time: list[float] = []
        self.orig_rows: list[int] = []
        self.orig_len: list[int] = []
        self.fwd_rows: list[int] = []
        self.fwd_len: list[int] = []
        self.heap: list[tuple[float, int, int]] = []
        self.times: list[float] = trace.times.tolist()
        self.touched: set[int] = set()

        self.net = graph is not None
        if self.net:
            if graph.n != n:
                raise ValidationError(f"graph has {graph.n} nodes for {n} systems")
            self.known: list[dict[int, set[int]]] = [dict() for _ in range(n)]
            self.seen: list[dict[int, int]] = [dict() for _ in range(n)]
            self.dirty: list[set[int]] = [set() for _ in range(n)]
            self.neighbors = [sorted(graph.neighbors(i)) for i in range(n)]
            self.is_forward = [graph.roles[i] is Role.FORWARD for i in range(n)]
        else:
            self.cnt = [0] * trace.n_events

    # -- per-system trigger bookkeeping

    def _push(self, i: int, t: float) -> None:
        """Replace i's heap entry, at instant t, by its next crossing: the
        earliest t' >= t at which sum w * (t' - t_e) over i's pending events
        reaches theta times the cost of the report i would send."""
        self.version[i] += 1
        if not self.pend[i]:
            return
        target = self.policy.theta * self.cost_fn.of_total(self.acc_w[i])
        t_star = (target + self.acc_wt[i]) / self.acc_w[i]
        if t_star < t:
            t_star = t
        heapq.heappush(self.heap, (t_star, i, self.version[i]))

    def _remove(self, i: int, row: int) -> None:
        """Drop a delivered event from i's pending set; the firing report
        reschedules i once it has been heard everywhere."""
        w = self.pend[i].pop(row)
        self.acc_w[i] -= w
        self.acc_wt[i] -= w * self.times[row]
        if not self.pend[i]:
            self.acc_w[i] = 0.0
            self.acc_wt[i] = 0.0
        self.touched.add(i)

    # -- firing and intercommunication

    def _fire(self, i: int, t: float) -> None:
        rows = list(self.pend[i])
        self.pend[i].clear()
        self.acc_w[i] = 0.0
        self.acc_wt[i] = 0.0
        # tell the others about i's report and get the rows i forwards; a
        # stored bound method would keep the engine alive in a cycle
        if self.net:
            fwd = self._propagate_net(i, rows)
        else:
            fwd = self._share_full(i, rows)
        for r in self.touched:
            self._push(r, t)
        self.touched.clear()
        self.fired_system.append(i)
        self.fired_time.append(t)
        self.orig_rows += rows
        self.orig_len.append(len(rows))
        self.fwd_rows += fwd
        self.fwd_len.append(len(fwd))

    def _share_full(self, i: int, rows: list[int]) -> tuple[()]:
        """Everyone hears i; an event with K reports leaves every pending
        set, in system order."""
        pend = self.pend
        for row in rows:
            self.cnt[row] += 1
            if self.cnt[row] == self.k:
                for r in range(self.n):
                    if row in pend[r]:
                        self._remove(r, row)
        return ()

    def _propagate_net(self, i: int, rows: list[int]) -> list[int]:
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
                        self._remove(r, row)
            else:
                for row, origins in payload.items():
                    if row not in pend_r:
                        continue
                    merged = known_r.setdefault(row, set())
                    merged |= origins
                    if len(merged) >= k:
                        del known_r[row]
                        self._remove(r, row)
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
        weights = self.trace.weights
        theta = self.policy.theta
        of_total = self.cost_fn.of_total
        pend, acc_w, acc_wt = self.pend, self.acc_w, self.acc_wt
        version, heap = self.version, self.heap
        for row, t in enumerate(self.times):
            self._drain(t)
            w_row = weights[row]
            seen_by = np.flatnonzero(w_row > 0)
            # arrivals in system order; the crossing is _push's, inlined
            for i, w in zip(seen_by.tolist(), w_row[seen_by].tolist()):
                pend[i][row] = w
                aw = acc_w[i] = acc_w[i] + w
                awt = acc_wt[i] = acc_wt[i] + w * t
                version[i] += 1
                t_star = (theta * of_total(aw) + awt) / aw
                if t_star < t:
                    t_star = t
                heapq.heappush(heap, (t_star, i, version[i]))
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
        return ReportSchedule(
            self.n, self.fired_system, self.fired_time, *pairs
        )


def run_thb(
    trace: EventTrace,
    policy: ThresholdPolicy,
    k: int,
    cost_fn: CommCost,
) -> ReportSchedule:
    """Independent threshold reporting; every observer reports everything.

    Systems share nothing (N copies of dynamic TCP ACK), so each runs one
    scalar scan over the rows it observes. Before an arrival at t it fires
    if its crossing lies before t, then adds the arrival and recomputes the
    crossing (theta * c(W) + sum w * t_e) / W for pending weight W with
    `_push`'s float steps, floored at t as there; the floor binds only when
    rounding would put a report before the event it carries. A report
    carries the observed rows since the previous one, so only its length is
    kept. A trailing pending set whose crossing overflows to inf (a tiny
    pending weight) is never reported, as in the engine.
    """
    n = trace.n_systems
    check_k(k, n)
    theta = policy.theta
    of_total = cost_fn.of_total
    count = [0] * n
    fired_time: list[float] = []
    lens: list[int] = []
    carried: list[np.ndarray] = []
    for i in range(n):
        rows = np.flatnonzero(trace.weights[:, i] > 0)
        ts, ws = trace.times[rows].tolist(), trace.weights[rows, i].tolist()
        acc_w = acc_wt = 0.0
        cross = math.inf
        start = len(fired_time)
        last = 0  # the observed rows before `last` are reported
        for j, (t, w) in enumerate(zip(ts, ws)):
            if cross < t:
                fired_time.append(cross)
                lens.append(j - last)
                last = j
                acc_w = acc_wt = 0.0
            acc_w += w
            acc_wt += w * t
            cross = (theta * of_total(acc_w) + acc_wt) / acc_w
            if cross < t:
                cross = t
        if cross < math.inf:
            fired_time.append(cross)
            lens.append(rows.size - last)
            last = rows.size
        count[i] = len(fired_time) - start
        carried.append(rows[:last])
    return ReportSchedule(
        n,
        np.repeat(np.arange(n), count),
        fired_time,
        (
            np.repeat(np.arange(len(lens)), lens),
            trace.ids_of(np.concatenate(carried)),
        ),
    )


def run_itc(
    trace: EventTrace,
    policy: ThresholdPolicy,
    k: int,
    cost_fn: CommCost,
) -> ReportSchedule:
    """Full intercommunication: drop events already reported K times.

    Simultaneous crossings fire in index order.
    """
    return _Engine(trace, policy, k, cost_fn).run()


def run_net(
    trace: EventTrace,
    policy: ThresholdPolicy,
    k: int,
    cost_fn: CommCost,
    graph: CommGraph,
) -> ReportSchedule:
    """Graph-restricted intercommunication with forward-role relaying."""
    return _Engine(trace, policy, k, cost_fn, graph=graph).run()
