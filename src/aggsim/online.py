"""Threshold-triggered online reporting algorithms and their tuning rules.

Each system accumulates latency penalty for its locally unreported events
and fires a report the instant that penalty reaches theta times the cost of
the report it would send. Three intercommunication settings:

  * none: systems run independently, each a scan over the rows it
    observes, computed as numpy rounds over blocks of systems that find
    every observation's report at once, with Python only at reports of
    more than one observation (run_thb);
  * full: every report is overheard by everyone, and events already
    reported K times are dropped from all pending sets (run_itc);
  * partial: overhearing is restricted to graph neighbors, with
    forward-role nodes relaying identifiers of overheard reports (run_net).

The last two share one continuous-time engine.

The closed-form threshold settings below balance worst-case report cost
against worst-case latency; each carries its proven competitive ratio.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from aggsim.graph import CommGraph, Role
from aggsim.model import (
    CommCost,
    EventTrace,
    ReportSchedule,
    UnityCost,
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
    """Proven competitive ratio without intercommunication: alpha*N/K + 1.

    At K=1 the bound covers any weights. At K>=2 it covers only traces
    whose rows have equal nonzero weights: otherwise a light observer's
    late report keeps a heavy observer's latency running until the K-th
    delivery, and the per-trace ratio is unbounded
    (`test_k2_per_trace_ratio_is_unbounded`).
    """
    _check_params(n, k, alpha, None)
    return alpha * n / k + 1.0


def balance_root(n: int, k: int, alpha: float, x: float = 1.0) -> float:
    """Positive root phi of phi + 1 = (alpha/K) * (N/phi + x).

    phi balances the two sides of the cost bound; x is the network
    parameter (x=1: full intercommunication, x=N: none, where phi is
    alpha*N/K up to rounding, a few ulps).
    """
    _check_params(n, k, alpha, None)
    if not 1 <= x <= n:
        raise ValidationError(f"x must lie in [1, {n}], got {x}")
    ax = alpha * x
    return (math.sqrt((ax - k) ** 2 + 4.0 * alpha * k * n) + ax - k) / (2.0 * k)


def threshold_partial(
    n: int, k: int, alpha: float, x: float, rho: float
) -> float:
    """Threshold under partial intercommunication with network parameter x."""
    _check_params(n, k, alpha, rho)
    return rho / ((1.0 - rho) * balance_root(n, k, alpha, x))


def ratio_partial(n: int, k: int, alpha: float, x: float) -> float:
    """Competitive ratio under partial intercommunication: phi_x + 1.

    Like `ratio_none`, it covers any weights at K=1 and only rows of equal
    nonzero weights at K>=2.
    """
    return balance_root(n, k, alpha, x) + 1.0


def threshold_full(n: int, k: int, alpha: float, rho: float) -> float:
    """Threshold under full intercommunication: the partial one at x=1."""
    return threshold_partial(n, k, alpha, 1.0, rho)


def ratio_full(n: int, k: int, alpha: float) -> float:
    """Proven ratio under full intercommunication: the partial one at x=1.

    Like `ratio_none`, it covers any weights at K=1 and only rows of equal
    nonzero weights at K>=2.
    """
    return ratio_partial(n, k, alpha, 1.0)


def default_theta(
    n: int, k: int, alpha: float, rho: float, x: float | None
) -> float:
    """The matching bound's threshold: `threshold_none` without
    intercommunication (x None), else `threshold_partial` at network
    parameter x (x=1 is full intercommunication)."""
    if x is None:
        return threshold_none(n, k, alpha, rho)
    return threshold_partial(n, k, alpha, x, rho)


# ------------------------------------------------------------- the engine

# fewest forward-table entries added between two sweeps of dead rows
_SWEEP_MIN = 1024

# observations (rows times systems) the engine reads from the trace in one
# block; a fixed row count would grow the lists a block makes with N, and
# a budget of 4096 raised the sweep's peak RSS for about 1% less CPU time
_BLOCK_OBS = 1024

# observations run_thb takes in one block of whole systems; 8192 took
# 5-10% less CPU time at N=100, m=2000, but doubles the block temporaries
_THB_BLOCK_OBS = 4096
# most numpy rounds per block of run_thb (0: none); a report still open
# after them is scanned by the scalar steps
_THB_ROUNDS = 8
# mean report length (observations) above which run_thb scans the next
# block without rounds
_THB_LONG = 3


def _cost_of(cost_fn: CommCost):
    """`of_total`, or None for unity cost, whose theta * c(W) is theta:
    theta * 1.0 is theta bit for bit."""
    return None if isinstance(cost_fn, UnityCost) else cost_fn.of_total


class _Engine:
    """Continuous-time trigger engine of `run_itc` and `run_net`.

    State per system: the pending rows, an insertion-ordered dict from row
    to weight, with running weight sums, and `cross`, the system's next
    crossing time (inf while nothing is pending). A system has one
    candidate report instant at a time, so a change of its pending set
    overwrites its crossing. No floor is kept: a crossing is floored at the
    instant of the change that sets it (the arrival or fire causing it).
    The next fire is the least crossing, the first system among equal
    ones, so simultaneous crossings fire one at a time in index order;
    every fire updates shared counts before the next minimum is taken,
    which realizes same-instant cascades.

    Cost model: the trace is read in blocks of about `_BLOCK_OBS`
    observations (max(1, _BLOCK_OBS // N) rows): one `nonzero` and one
    `count_nonzero` per block give every row's observers and weights as
    flat Python lists, which each row slices, so a row pays no numpy call
    of its own. Each observer's crossing is recomputed once per row, and
    with unity cost its numerator theta * c(W) is the constant theta, with
    no `of_total` call. Each row and each fire take one `min` over the N
    crossings, inline in `run`. Overhearing removes rows in place in the
    receiver loops of `_share_full` and `_propagate_net`, with the tables
    held in locals: no method call per removed row, and each removal
    subtracts the row's weight and weight times time from the running sums,
    in payload order. A fire then recomputes, in `_fire`, the crossing of
    each system whose pending set it shrank (`touched`, the sender's
    included) once, after the report has reached everyone who hears it,
    and there resets the sums of each set it emptied; nothing reads them
    in between.

    With no graph, a report is heard by everyone and an event leaves every
    pending set once it has K reports (`_share_full`); with a graph,
    reports reach neighbors only (`_propagate_net`). Systems that share
    nothing need no engine (`run_thb`).

    Reports are written in firing order as columns (system, time, and the
    rows each originates and forwards) for the `ReportSchedule` constructor.

    Graph-limited mode adds a `known` table per node, mapping event rows to
    their origin sets: the systems known to have reported them, as an int
    mask whose bit s stands for system s (40 B at N=100 and 160 B at
    N=1000, where even an empty set takes 216 B). A forward node keeps a
    mask for each live row it has heard of, in the order it first heard
    of them, and its `dirty` rows: those whose mask grew by a reception
    since the node last sent them. A withhold node keeps masks only for
    the rows it has pending.
    Each node's neighbors are split once by role, into `fwd_nbrs` and
    `wh_nbrs` (each ascending), so no reception tests a role.

    A row is live while some system has it pending or some forward node
    has it dirty. A payload names only rows its sender has pending or
    dirty; a row turns dirty only when a payload names it, and no row
    turns pending after its arrival. So a dead row is never named again,
    and `_evict` drops dead rows from the forward tables whenever these
    have doubled since the last sweep, which bounds them by the live rows
    instead of the trace length.
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
        self.of_total = _cost_of(cost_fn)
        self.n = n

        self.pend: list[dict[int, float]] = [dict() for _ in range(n)]
        self.acc_w = [0.0] * n
        self.acc_wt = [0.0] * n
        self.cross = [math.inf] * n
        self.fired_system: list[int] = []
        self.fired_time: list[float] = []
        self.orig_rows: list[int] = []
        self.orig_len: list[int] = []
        self.fwd_rows: list[int] = []
        self.fwd_len: list[int] = []
        self.times: list[float] = trace.times.tolist()
        self.touched: set[int] = set()

        self.net = graph is not None
        if self.net:
            if graph.n != n:
                raise ValidationError(f"graph has {graph.n} nodes for {n} systems")
            self.known: list[dict[int, int]] = [dict() for _ in range(n)]
            self.dirty: list[set[int]] = [set() for _ in range(n)]
            is_forward = [graph.roles[i] is Role.FORWARD for i in range(n)]
            self.is_forward = is_forward
            self.fwd_nbrs = [
                [r for r in graph.neighbors(i) if is_forward[r]] for i in range(n)
            ]
            self.wh_nbrs = [
                [r for r in graph.neighbors(i) if not is_forward[r]]
                for i in range(n)
            ]
            self.added = 0
            self.sweep_at = _SWEEP_MIN
        else:
            self.cnt = [0] * trace.n_events

    # -- firing and intercommunication

    def _fire(self, i: int, t: float) -> None:
        pend, acc_w, acc_wt, cross = self.pend, self.acc_w, self.acc_wt, self.cross
        rows = list(pend[i])
        pend[i].clear()
        touched = self.touched
        touched.add(i)
        # tell the others about i's report and get the rows i forwards; a
        # stored bound method would keep the engine alive in a cycle
        if self.net:
            fwd = self._propagate_net(i, rows)
        else:
            fwd = self._share_full(i, rows)
        # the crossing of each shrunk set, i's included: the earliest
        # t' >= t at which sum w * (t' - t_e) over its pending events
        # reaches theta times the cost of the report it would send; an
        # emptied set has its sums reset and no crossing
        theta, of_total = self.policy.theta, self.of_total
        for r in touched:
            if pend[r]:
                aw = acc_w[r]
                num = theta if of_total is None else theta * of_total(aw)
                t_star = (num + acc_wt[r]) / aw
                if t_star < t:
                    t_star = t
                cross[r] = t_star
            else:
                acc_w[r] = acc_wt[r] = 0.0
                cross[r] = math.inf
        touched.clear()
        self.fired_system.append(i)
        self.fired_time.append(t)
        self.orig_rows += rows
        self.orig_len.append(len(rows))
        self.fwd_rows += fwd
        self.fwd_len.append(len(fwd))

    def _share_full(self, i: int, rows: list[int]) -> tuple[()]:
        """Everyone hears i; an event with K reports leaves every pending
        set, in system order."""
        pend, acc_w, acc_wt = self.pend, self.acc_w, self.acc_wt
        times, touched, cnt, k = self.times, self.touched, self.cnt, self.k
        for row in rows:
            cnt[row] += 1
            if cnt[row] == k:
                t_row = times[row]
                for r, pend_r in enumerate(pend):
                    if row in pend_r:
                        w = pend_r.pop(row)
                        acc_w[r] -= w
                        acc_wt[r] -= w * t_row
                        touched.add(r)
        return ()

    def _propagate_net(self, i: int, rows: list[int]) -> list[int]:
        """Share i's report with its neighbors; returns the forwarded rows.

        The payload maps each event row to the mask of reporting systems i
        can vouch for: bit i for rows it originates now and, when i has the
        forward role, its known origins of those rows plus every dirty row.
        Receivers OR the payload into their masks and drop pending events
        whose mask has K bits set, in place and in payload order.

        A row is dirty at a forward node when a reception grew its mask
        there since the node last sent it; first hearing of a row counts as
        growth. Sending a row, forwarded or originated, sends the node's
        whole mask of it, so a fire clears every dirty row and originating
        a row leaves it clean: a second send with the same mask would grow
        no receiver's mask and remove nothing. Each (event, mask) pair is
        sent at most once per node. Dirty rows go out in the order the node
        first heard of them, which fixes the order of the receivers' float
        subtractions from their running sums. That is the key order of
        `known`, which only `_evict` rebuilds, in order; it is not the
        order in which rows turn dirty, where a row sent, then grown, would
        come after rows first heard later.

        A reception marks a row dirty only while it has fewer than K origin
        bits, that is, unless the node has sent it with K or more: masks
        only grow, and a row past K bits that was never so sent got there
        by a reception (originating sends the row), so it is still dirty.
        Once a node has sent a row with K or more origin bits, every
        neighbor on the static graph holds K origins of it, so the row has
        left their pending sets and a later forward would remove nothing. By
        induction over fires, a node's first K-bit send of a row falls at
        the same fire as when such rows were re-forwarded: the dropped
        forwards reach only neighbors already at K origins, and no node
        first hears a row from one. The rows left in each payload keep
        their order, so removals, their float order, fire times and
        originated rows are unchanged; only the forwarded rows shrink.

        Forward receivers take the whole payload one at a time, in
        ascending index order; then each payload row reaches the withhold
        receivers, ascending, which suits the short payloads of frequent
        fires. The order across receivers is free: a receiver's removals
        touch only its own pending set, sums and masks, and still run in
        payload order.

        A withhold node reads its table only to test the origin count of a
        pending row, and every observer of an event receives it before any
        report can name it. So a withhold node merges only rows it has
        pending and drops a row's mask when the row leaves its pending set.
        With K=1 every merge reaches K bits, so a withhold node never holds
        a mask and its receiver loop skips the merge.
        """
        known, pend, acc_w, acc_wt = self.known, self.pend, self.acc_w, self.acc_wt
        dirty, times, touched = self.dirty, self.times, self.touched
        known_i = known[i]
        fwd_rows: list[int] = []
        k = self.k
        added = self.added
        if self.is_forward[i]:
            dirty_i = dirty[i]
            payload = {row: 1 << i | known_i.get(row, 0) for row in rows}
            if dirty_i:
                for row, mask in known_i.items():
                    if row in dirty_i and row not in payload:
                        payload[row] = mask
                        fwd_rows.append(row)
                dirty_i.clear()
            size = len(known_i)
            for row in rows:
                known_i[row] = payload[row]
            added += len(known_i) - size
        else:
            payload = dict.fromkeys(rows, 1 << i)
            for row in rows:
                known_i.pop(row, None)
        for r in self.fwd_nbrs[i]:
            known_r, pend_r, dirty_r = known[r], pend[r], dirty[r]
            for row, origins in payload.items():
                old = known_r.get(row, 0)
                if not old:
                    added += 1
                merged = old | origins
                if merged != old:
                    known_r[row] = merged
                    if old.bit_count() < k:
                        dirty_r.add(row)
                if row in pend_r and merged.bit_count() >= k:
                    w = pend_r.pop(row)
                    acc_w[r] -= w
                    acc_wt[r] -= w * times[row]
                    touched.add(r)
        wh_nbrs = self.wh_nbrs[i]
        for row, origins in payload.items():
            t_row = times[row]
            for r in wh_nbrs:
                pend_r = pend[r]
                if row not in pend_r:
                    continue
                if k > 1:
                    known_r = known[r]
                    merged = known_r.get(row, 0) | origins
                    if merged.bit_count() < k:
                        known_r[row] = merged
                        continue
                    known_r.pop(row, None)
                w = pend_r.pop(row)
                acc_w[r] -= w
                acc_wt[r] -= w * t_row
                touched.add(r)
        self.added = added
        if added >= self.sweep_at:
            self._evict()
        fwd_rows.sort()
        return fwd_rows

    def _evict(self) -> None:
        """Drop dead rows from the forward tables and set the next sweep.

        `added` counts the forward-table entries ever added: one for each
        row a forward node first hears of, by a payload or by originating
        it. The next sweep comes once as many entries have been added as
        this one kept, and at least `_SWEEP_MIN`. So after every payload
        the tables hold fewer than max(2 * kept, kept + _SWEEP_MIN)
        entries, and sweeps cost O(1) per entry added. Each table keeps
        its order.
        """
        live = set().union(*self.pend, *self.dirty)
        kept = 0
        for f, forward in enumerate(self.is_forward):
            if forward:
                self.known[f] = {
                    row: mask for row, mask in self.known[f].items() if row in live
                }
                kept += len(self.known[f])
        self.sweep_at = self.added + max(kept, _SWEEP_MIN)

    # -- main loop

    def run(self) -> ReportSchedule:
        weights = self.trace.weights
        theta, of_total = self.policy.theta, self.of_total
        pend, acc_w, acc_wt = self.pend, self.acc_w, self.acc_wt
        cross, times = self.cross, self.times
        fire = self._fire
        step = max(1, _BLOCK_OBS // self.n)
        for lo in range(0, len(times), step):
            # the observers of each row of the block, ascending, and their
            # weights, as one flat list each
            block = weights[lo : lo + step]
            seen = block > 0
            counts = np.count_nonzero(seen, axis=1).tolist()
            observers = np.nonzero(seen)[1].tolist()
            obs_w = block[seen].tolist()
            end = 0
            rows = range(lo, lo + len(counts))
            for row, t, count in zip(rows, times[lo : lo + step], counts):
                # fire every crossing strictly before t, cascades included
                t_star = min(cross)
                while t_star < t:
                    fire(cross.index(t_star), t_star)
                    t_star = min(cross)
                start, end = end, end + count
                # arrivals in system order; the crossing as in _fire
                for i, w in zip(observers[start:end], obs_w[start:end]):
                    pend[i][row] = w
                    aw = acc_w[i] = acc_w[i] + w
                    awt = acc_wt[i] = acc_wt[i] + w * t
                    num = theta if of_total is None else theta * of_total(aw)
                    t_star = (num + awt) / aw
                    if t_star < t:
                        t_star = t
                    cross[i] = t_star
        t_star = min(cross)
        while t_star < math.inf:
            fire(cross.index(t_star), t_star)
            t_star = min(cross)
        return self._schedule()

    def _schedule(self) -> ReportSchedule:
        ids = self.trace.event_ids
        pairs = [
            (
                np.repeat(np.arange(len(lens)), lens),
                ids[np.array(rows, dtype=np.int64)],
            )
            for rows, lens in (
                (self.orig_rows, self.orig_len),
                (self.fwd_rows, self.fwd_len),
            )
        ]
        return ReportSchedule(
            self.n, self.fired_system, self.fired_time, *pairs
        )


def _crossings(theta, of_total, acc_w, acc_wt, t):
    """The scan's crossing of each pending set: (theta * c(W) + sum w *
    t_e) / W with c = `of_total` per total (math.log with log cost, which
    `np.log` does not match on every CPU), floored at the arrival t."""
    if of_total is None:
        cross = (theta + acc_wt) / acc_w
    else:
        c = np.fromiter(map(of_total, acc_w.tolist()), float, acc_w.size)
        cross = (theta * c + acc_wt) / acc_w
    np.copyto(cross, t, where=cross < t)
    return cross


def _thb_block(t, w, last, theta, of_total, rounds):
    """Every report of a block of whole systems: the observations that open
    one, ascending, and each report's fire time (inf for a trailing one
    that never fires).

    The block lists each system's observations in time order, one system
    after another; `last` indexes each system's last one. A report closes
    after an observation unless its crossing is at or after `nt`, the
    system's next arrival (NaN after its last observation, where every
    report ends).

    Round `step` extends the report that would open at every observation
    p, were p an opening, by observation p + step, adding its w and w * t
    left to right as the scan does (0.0 + w is w and 0.0 + w * t is
    w * t). Round 0 closes most reports. The rounds stop after `rounds`
    rounds, once none is open, or once a round closes under a quarter of
    those it extended: reports are then long, and the scalar steps cost
    less than more rounds.

    One pass then follows the chain of openings (each system's first
    observation, then the one after each report's last), visiting only
    openings whose report is not one observation long. A report still
    open after the rounds is scanned from its opening by the scalar steps,
    and so are the reports after it, until one opens whose length the
    rounds found. Without rounds the scalar steps scan the whole block.
    The openings are the observations outside every longer report, marked
    with a difference array.
    """
    size = t.size
    nt = np.empty_like(t)
    nt[:-1] = t[1:]
    nt[last] = math.nan
    if rounds:
        wt = w * t
        fire = _crossings(theta, of_total, w, wt, t)
        still = fire >= nt
        length = (~still).view(np.int8)  # 1 where round 0 closed the report
        longer = at = np.flatnonzero(still)
        acc_w, acc_wt = w[at], wt[at]
        step, extended = 1, size
        while at.size and step < rounds and 4 * at.size <= 3 * extended:
            q = at + step
            acc_w += w[q]
            acc_wt += wt[q]
            cross = _crossings(theta, of_total, acc_w, acc_wt, t[q])
            still = cross >= nt[q]
            done = ~still
            length[at[done]] = step + 1
            fire[at[done]] = cross[done]
            extended = at.size
            at, acc_w, acc_wt = at[still], acc_w[still], acc_wt[still]
            step += 1
        opens, sizes = longer.tolist(), length[longer].tolist()
    else:
        opens, sizes = [0], [0]
    if not rounds or at.size:
        # the scalar steps read Python floats, in one forward pass
        ts, ws, nts = t.tolist(), w.tolist(), nt.tolist()
        known = length.tolist() if rounds else bytes(size)
        steps = zip(range(size), ts, ws, nts)
        pos = 0  # the observation `steps` yields next
    # 1 (+1) into and 255 (-1) out of every report longer than one
    # observation and every run of scanned reports
    cover = bytearray(size + 1)
    scanned, scan_fire = [], []
    j = 0
    while j < len(opens):
        p = opens[j]
        if sizes[j]:
            stop = p + sizes[j]
            cover[p + 1] = 1
            cover[stop] = 255
            j += 1
            while j < len(opens) and opens[j] < stop:
                j += 1
            continue
        # the scalar steps, from opening p until an opening whose report
        # length the rounds found
        next(itertools.islice(steps, p - pos, p - pos), None)
        start = p
        acc_w = acc_wt = 0.0
        for q, t_q, w_q, nt_q in steps:
            acc_w += w_q
            acc_wt += w_q * t_q
            num = theta if of_total is None else theta * of_total(acc_w)
            cross = (num + acc_wt) / acc_w
            if cross < t_q:
                cross = t_q
            if not cross >= nt_q:
                scanned.append(start)
                scan_fire.append(cross)
                start = q + 1
                if start == size or known[start]:
                    break
                acc_w = acc_wt = 0.0
        cover[p + 1] = 1
        cover[start] = 255
        pos = start
        j = bisect.bisect_left(opens, start, j + 1)
    scan_fire = np.fromiter(scan_fire, float, len(scan_fire))
    scanned = np.fromiter(scanned, np.intp, len(scanned))
    if not rounds:
        return scanned, scan_fire
    opening = np.cumsum(np.frombuffer(cover, dtype=np.int8)[:-1]) == 0
    opening[scanned] = True
    fire[scanned] = scan_fire
    opens = np.flatnonzero(opening)
    return opens, fire[opens]


def run_thb(
    trace: EventTrace,
    policy: ThresholdPolicy,
    k: int,
    cost_fn: CommCost,
) -> ReportSchedule:
    """Independent threshold reporting; every observer reports everything.

    Systems share nothing (N copies of dynamic TCP ACK), so each one's
    reports follow from a scan over the rows it observes: before an
    arrival at t it fires if its crossing lies before t, then adds the
    arrival and recomputes the crossing (theta * c(W) + sum w * t_e) / W
    for pending weight W with the engine's float steps (theta * c(W) is
    theta with unity cost, with no `of_total` call), floored at t as
    there; the floor binds only when rounding would put a report before
    the event it carries. A trailing pending set whose crossing overflows
    to inf (a tiny pending weight) is never reported, as in the engine.

    That scan runs as numpy rounds (`_thb_block`) over blocks of whole
    systems, closed once past `_THB_BLOCK_OBS` observations. Round l
    extends the report that would open at every observation p by
    observation p + l, with the scan's float steps in its order (c(W) is
    `of_total`, so `math.log` with log cost), and closes it where its
    crossing lies before the next arrival. Most reports close on the
    observation that opens them, so one Python pass over each system's
    chain of openings stops only at the others. A report still open after
    at most `_THB_ROUNDS` rounds continues as the scalar scan from its
    opening, at the scan's cost per observation. After a block whose
    reports average more than `_THB_LONG` observations, the next block is
    scanned without rounds, until a block's reports average at most that
    again. Every schedule is
    the scan's bit for bit (`tests/oracles.py` keeps the scan as
    `scan_thb`). The schedule's columns are built in system order, so the
    constructor keeps them without a sort.
    """
    n = trace.n_systems
    check_k(k, n)
    theta, of_total = policy.theta, _cost_of(cost_fn)
    observed = np.count_nonzero(trace.weights > 0, axis=0).tolist()
    # blocks of whole systems [lo, hi), closed once over the budget
    bounds = [0]
    size = 0
    for i, c in enumerate(observed):
        if size and size + c > _THB_BLOCK_OBS:
            bounds.append(i)
            size = 0
        size += c
    bounds.append(n)
    count = np.zeros(n, dtype=np.int64)
    # each block's fire times, the report number of each row they carry
    # and the ids of those rows
    times: list[np.ndarray] = []
    reports: list[np.ndarray] = []
    carried: list[np.ndarray] = []
    n_reports = 0
    rounds = _THB_ROUNDS
    # overflowing crossings are inf, and `nt` compares NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(bounds, bounds[1:]):
            block = trace.weights[:, lo:hi].T.copy()
            seen = block > 0
            system, rows = np.nonzero(seen)
            if not rows.size:
                continue
            w = block[seen]
            del block, seen
            t = trace.times[rows]
            last = np.flatnonzero(np.diff(system, append=n))
            opens, fired = _thb_block(t, w, last, theta, of_total, rounds)
            rounds = _THB_ROUNDS if opens.size * _THB_LONG >= t.size else 0
            report = np.repeat(
                np.arange(opens.size), np.diff(opens, append=t.size)
            )
            system = system[opens]
            sent = fired < math.inf
            if not sent.all():
                # trailing reports whose crossing overflowed never fire
                keep = sent[report]
                report = (np.cumsum(sent) - 1)[report[keep]]
                rows = rows[keep]
                fired, system = fired[sent], system[sent]
            count[lo:hi] = np.bincount(system, minlength=hi - lo)
            times.append(fired)
            reports.append(report + n_reports)
            carried.append(trace.event_ids[rows])
            n_reports += fired.size
    # join one column at a time, dropping its pieces before the next
    columns = []
    for pieces in (times, reports, carried):
        columns.append(np.concatenate(pieces) if pieces else np.empty(0))
        pieces.clear()
    time, report, ids = columns
    return ReportSchedule(n, np.repeat(np.arange(n), count), time, (report, ids))


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
