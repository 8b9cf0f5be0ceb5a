"""Core data types and the schedule evaluator.

The problem: N systems observe a shared stream of events. Event j appears at
time t_j; system i sees it with measurement weight w[i, j] >= 0 (zero means
unobserved). Each system sends reports, batches of locally observed events, to
a base station. An event counts as delivered once K distinct observers have
reported it; its latency accrues until the K-th such report. The objective
blends total report cost and total latency:

    total = rho * sum(report costs) + (1 - rho) * sum(per-observation latency)

Latency is linear: an observation of weight w held from t_j to t costs
w * (t - t_j). This module holds the trace and schedule types, the report
cost families, and a pure evaluator for that objective.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "TraceFormatError",
    "EventTrace",
    "CommCost",
    "UnityCost",
    "LogCost",
    "Report",
    "ReportSchedule",
    "CostBreakdown",
    "evaluate",
    "parse_cost",
]


class ValidationError(ValueError):
    """Raised when an input violates a documented model invariant."""


class LineError(ValidationError):
    """Malformed input text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class TraceFormatError(LineError):
    """Raised on malformed trace CSV."""


def check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValidationError(f"K must be in [1, {n}], got {k}")


def check_rho(rho: float) -> None:
    if not 0 < rho < 1:
        raise ValidationError(f"rho must lie in (0, 1), got {rho}")


class _RowError(ValidationError):
    """A trace invariant violated at one event row (0-based)."""

    def __init__(self, message: str, row: int):
        self.message = message
        self.row = row
        super().__init__(f"{message} (row {row})")


class EventTrace:
    """Immutable ordered event stream with an (m, N) weight matrix.

    Weights are stored as a read-only float64 array with one row per event and
    one column per system, and event ids as a read-only int64 array (0..m-1
    unless given). Times must be strictly increasing and nonnegative,
    weights nonnegative and finite, and ids distinct. Ids 0..m-1, in that
    order, are their own rows: `rows_of` range-checks them and searches
    nothing.
    """

    __slots__ = ("times", "weights", "event_ids", "_by_id")

    def __init__(
        self,
        times: Sequence[float] | np.ndarray,
        weights: Sequence[Sequence[float]] | np.ndarray,
        event_ids: Sequence[int] | np.ndarray | None = None,
    ):
        t = np.asarray(times, dtype=np.float64)
        w = np.asarray(weights, dtype=np.float64)
        if t.ndim != 1:
            raise ValidationError("times must be one-dimensional")
        if w.ndim != 2 or w.shape[0] != t.shape[0]:
            raise ValidationError(
                f"weights must have shape (n_events, n_systems); got {w.shape} "
                f"for {t.shape[0]} events"
            )
        bad_t = ~np.isfinite(t) | (t < 0.0)
        if bad_t.any():
            raise _RowError(
                "event times must be finite and nonnegative",
                int(np.argmax(bad_t)),
            )
        if np.any(np.diff(t) <= 0):
            raise _RowError(
                "event times must be strictly increasing",
                int(np.argmax(np.diff(t) <= 0)) + 1,
            )
        bad_w = (~np.isfinite(w) | (w < 0)).any(axis=1)
        if bad_w.any():
            raise _RowError(
                "measurements must be finite and nonnegative",
                int(np.argmax(bad_w)),
            )
        # t_{m-1} times the weight of rows [0, r] bounds every w * t and
        # every latency sum formed over the trace; it must stay finite
        with np.errstate(over="ignore", invalid="ignore"):
            bad_sum = ~np.isfinite(t[-1:] * np.cumsum(w.sum(axis=1)))
        if bad_sum.any():
            raise _RowError(
                "last event time times cumulative weight overflows",
                int(np.argmax(bad_sum)),
            )
        if event_ids is None:
            event_ids = np.arange(t.shape[0])
        try:
            ids = np.array(event_ids, dtype=np.int64)
        except OverflowError:
            raise ValidationError("event ids must fit in 64 bits") from None
        if ids.shape != t.shape:
            raise ValidationError("event_ids length must match times")
        # rows sorted by id (stable, so a repeated id lists its rows in order)
        by_id = np.argsort(ids, kind="stable")
        repeat = by_id[1:][ids[by_id[1:]] == ids[by_id[:-1]]]
        if repeat.size:
            row = int(repeat.min())
            raise _RowError(f"duplicate event id {ids[row]}", row)
        t = t.copy()
        w = w.copy()
        for a in (t, w, ids, by_id):
            a.setflags(write=False)
        self.times = t
        self.weights = w
        self.event_ids = ids
        # None when the ids are 0..m-1: each id is then its own row
        identity = np.array_equal(ids, np.arange(ids.size))
        self._by_id = None if identity else by_id

    @property
    def n_events(self) -> int:
        return int(self.times.shape[0])

    @property
    def n_systems(self) -> int:
        return int(self.weights.shape[1])

    def index_of(self, event_id: int) -> int:
        return int(self.rows_of(np.array([event_id], dtype=np.int64))[0])

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """Rows of an int64 array of event ids, as a new intp array;
        `index_of` over an array."""
        m = self.n_events
        if self._by_id is None:
            bad = (ids < 0) | (ids >= m)
            rows = ids.astype(np.intp)
        else:
            # m > 0 here, since the empty trace has identity ids. An id
            # above every known one lands past the end: clip it to the last
            # position, whose id then differs from it
            pos = np.searchsorted(self.event_ids, ids, sorter=self._by_id)
            rows = self._by_id[np.minimum(pos, m - 1, out=pos)]
            # the ids at those rows, written over pos
            bad = np.take(self.event_ids, rows, out=pos, mode="clip") != ids
        if bad.any():
            bad_id = int(ids[np.argmax(bad)])
            raise ValidationError(f"unknown event id {bad_id!r}")
        return rows

    def check_k_feasible(self, k: int) -> None:
        """Every event must be observed (w > 0) by at least k systems."""
        check_k(k, self.n_systems)
        counts = np.count_nonzero(self.weights > 0, axis=1)
        bad = np.nonzero(counts < k)[0]
        if bad.size:
            names = self.event_ids[bad[:5]].tolist()
            raise ValidationError(
                f"trace is not {k}-feasible: events {names} have fewer than "
                f"{k} observers"
            )

    def split_at(self, index: int) -> tuple["EventTrace", "EventTrace"]:
        """Split into a prefix of `index` events and the remaining suffix.

        Both halves keep original times and event ids.
        """
        if not 0 <= index <= self.n_events:
            raise ValidationError(f"split index {index} out of range")
        left = EventTrace(
            self.times[:index], self.weights[:index], self.event_ids[:index]
        )
        right = EventTrace(
            self.times[index:], self.weights[index:], self.event_ids[index:]
        )
        return left, right

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventTrace):
            return NotImplemented
        return (
            np.array_equal(self.event_ids, other.event_ids)
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return f"EventTrace(n_events={self.n_events}, n_systems={self.n_systems})"

    # CSV round trip: header `event_id,time,w_1,...,w_N`, full-precision reprs.
    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["event_id", "time"] + [f"w_{i + 1}" for i in range(self.n_systems)]
            )
            for k in range(self.n_events):
                row = [str(self.event_ids[k]), repr(float(self.times[k]))]
                row.extend(repr(float(v)) for v in self.weights[k])
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path: str) -> "EventTrace":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise TraceFormatError("empty file", line=1) from None
            if len(header) < 3 or header[:2] != ["event_id", "time"]:
                raise TraceFormatError(
                    "header must be event_id,time,w_1,...,w_N", line=1
                )
            n_systems = len(header) - 2
            ids: list[int] = []
            times: list[float] = []
            rows: list[list[float]] = []
            linenos: list[int] = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != n_systems + 2:
                    raise TraceFormatError(
                        f"expected {n_systems + 2} fields, got {len(row)}",
                        line=lineno,
                    )
                try:
                    ids.append(int(row[0]))
                    times.append(float(row[1]))
                    rows.append([float(v) for v in row[2:]])
                except ValueError as exc:
                    raise TraceFormatError(str(exc), line=lineno) from None
                linenos.append(lineno)
        weights = np.array(rows, dtype=np.float64).reshape(len(rows), n_systems)
        try:
            return cls(times, weights, ids)
        except _RowError as exc:
            raise TraceFormatError(exc.message, line=linenos[exc.row]) from None


# reports scored at a time by `CommCost.of_reports`
_REPORT_CHUNK = 4096


class CommCost:
    """Cost of one report as a function of the reported measurement set.

    All variants in scope depend on the set only through the sum of its
    weights, are positive, non-decreasing, and subadditive. An empty set
    costs the value at total weight zero, the variant's minimum. Each
    variant also provides `of_total_array`, the same map over an array,
    which may round differently from `of_total`.
    """

    def of_total(self, total_weight: float) -> float:
        raise NotImplementedError

    def of_reports(
        self, report: np.ndarray, weights: np.ndarray, n_reports: int
    ) -> np.ndarray:
        """Cost of each of `n_reports` reports from (report, weight) pairs
        sorted by report; each report's weights are added left to right,
        and its cost is `of_total` of the sum, bit for bit.

        Reports are scored `_REPORT_CHUNK` at a time, so the temporaries,
        the Python floats included, stay bounded whatever the count.
        """
        costs = np.empty(n_reports)
        for lo in range(0, n_reports, _REPORT_CHUNK):
            hi = min(lo + _REPORT_CHUNK, n_reports)
            a, b = np.searchsorted(report, (lo, hi)).tolist()
            totals = _report_totals(report[a:b] - lo, weights[a:b], hi - lo)
            costs[lo:hi] = [self.of_total(x) for x in totals.tolist()]
        return costs

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class UnityCost(CommCost):
    """Every report costs exactly 1 regardless of content."""

    def of_total(self, total_weight: float) -> float:
        return 1.0

    def of_total_array(self, totals: np.ndarray) -> np.ndarray:
        return np.ones_like(totals)

    def of_reports(
        self, report: np.ndarray, weights: np.ndarray, n_reports: int
    ) -> np.ndarray:
        return np.ones(n_reports)


class LogCost(CommCost):
    """cost = log(2 + total weight), so every report costs at least log 2."""

    def of_total(self, total_weight: float) -> float:
        return math.log(2.0 + total_weight)

    def of_total_array(self, totals: np.ndarray) -> np.ndarray:
        return np.log(2.0 + totals)


def parse_cost(name: str) -> CommCost:
    """Map a scenario cost code or name to a cost function instance."""
    key = name.strip().lower()
    if key in ("u", "unity"):
        return UnityCost()
    if key in ("l", "log"):
        return LogCost()
    raise ValidationError(f"unknown cost function {name!r} (use unity or log)")


@dataclass(frozen=True)
class Report:
    """One report: its emission time and the event ids it carries.

    `event_ids` are events the sender observed and originates here; entries in
    `forwarded_ids` are relayed identifiers that carry no measurement weight,
    never contribute report cost, and never count toward delivery.
    """

    time: float
    event_ids: tuple[int, ...]
    forwarded_ids: tuple[int, ...] = ()


class ReportSchedule:
    """Every report of every system as flat columns; the full decision
    output of an algorithm.

    Report r is sent by system `system[r]` at `time[r]`; reports are kept in
    (system, time) order. The ids a report carries are (report, event id)
    pairs: `orig_report`/`orig_id` hold the ids it originates and
    `fwd_report`/`fwd_id` the ids it forwards, each in (system, report,
    position) order. `per_system` gives the per-system `Report` view.
    """

    __slots__ = (
        "n_systems", "system", "time", "orig_report", "orig_id", "fwd_report",
        "fwd_id",
    )

    def __init__(self, n_systems: int, system, time, orig, fwd=((), ())):
        """Build from reports listed with the systems interleaved, such as
        in firing order, or already in system order.

        `system` and `time` give each report, and `orig` and `fwd` are
        (report, event id) column pairs numbering reports in that order,
        with each report's ids in position order. Reports are stable-sorted
        by system and pairs by their renumbered report: the order every
        reader relies on. Columns already in that order (non-decreasing
        `system` and report numbers) are kept as given, as read-only views
        without a copy, so the caller must not write to them afterwards.
        """
        system = np.asarray(system, dtype=np.int64)
        time = np.asarray(time, dtype=np.float64)
        pairs = [
            (np.asarray(report, dtype=np.int64), np.asarray(ids, np.int64))
            for report, ids in (orig, fwd)
        ]
        if (system[1:] < system[:-1]).any():
            order = np.argsort(system, kind="stable")
            new_index = np.empty_like(order)
            new_index[order] = np.arange(order.size)
            system, time = system[order], time[order]
            pairs = [(new_index[report], ids) for report, ids in pairs]
        columns = [system, time]
        for report, ids in pairs:
            if (report[1:] < report[:-1]).any():
                by_report = np.argsort(report, kind="stable")
                report, ids = report[by_report], ids[by_report]
            columns += [report, ids]
        self.n_systems = n_systems
        for name, col in zip(self.__slots__[1:], columns):
            col = col.view()
            col.setflags(write=False)
            setattr(self, name, col)

    @property
    def per_system(self) -> tuple[tuple[Report, ...], ...]:
        """The reports of each system as `Report` objects."""
        n_reports = self.total_reports()
        orig = _grouped(self.orig_report, self.orig_id.tolist(), n_reports)
        fwd = _grouped(self.fwd_report, self.fwd_id.tolist(), n_reports)
        reports = [Report(*r) for r in zip(self.time.tolist(), orig, fwd)]
        return tuple(_grouped(self.system, reports, self.n_systems))

    def total_reports(self) -> int:
        return int(self.time.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReportSchedule):
            return NotImplemented
        return self.n_systems == other.n_systems and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__slots__[1:]
        )

    def __repr__(self) -> str:
        return (
            f"ReportSchedule(n_systems={self.n_systems}, "
            f"reports={self.total_reports()}, originated={self.orig_id.size}, "
            f"forwarded={self.fwd_id.size})"
        )

    def _locate(self, r: int) -> tuple[int, int]:
        """(system, index among that system's reports) of report r."""
        i = int(self.system[r])
        return i, r - int(np.searchsorted(self.system, i))

    def validate(
        self, trace: EventTrace
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Check the schedule invariants against a trace, and return the
        row, system and weight of every originated pair.

        Raises ValidationError naming the first offending (system, report,
        event) triple when a report time is not finite or not after the
        system's previous one, when a report precedes an event it carries or
        carries one event twice, or when a system originates an event it did
        not observe.
        """
        if self.n_systems != trace.n_systems:
            raise ValidationError(
                f"schedule has {self.n_systems} systems, trace has "
                f"{trace.n_systems}"
            )
        system, time = self.system, self.time
        bad = ~np.isfinite(time)
        bad[1:] |= (system[1:] == system[:-1]) & ~(time[1:] > time[:-1])
        if bad.any():
            r = int(np.argmax(bad))
            i, k = self._locate(r)
            raise ValidationError(
                f"system {i}: report times must strictly increase "
                f"(report {k} at {time[r]})"
            )
        orig_rows = trace.rows_of(self.orig_id)
        pairs = [(self.orig_report, orig_rows)]
        if self.fwd_id.size:
            pairs.append((self.fwd_report, trace.rows_of(self.fwd_id)))
        for report, rows in pairs:
            early = trace.times[rows] > time[report]
            if early.any():
                p = int(np.argmax(early))
                i, k = self._locate(int(report[p]))
                raise ValidationError(
                    f"report precedes event: system {i}, report {k}, "
                    f"event {trace.event_ids[rows[p]]}"
                )
        # (report, row) keys that rise strictly repeat no row in a report;
        # they do over the originated pairs unless some report repeats one
        m = trace.n_events
        key = self.orig_report * m
        key += orig_rows
        if len(pairs) > 1:  # a forwarded id may repeat an originated one
            key = np.concatenate((key, self.fwd_report * m + pairs[1][1]))
        if (key[1:] <= key[:-1]).any():
            uniq, count = np.unique(key, return_counts=True)
            if (count > 1).any():
                r, row = divmod(int(uniq[np.argmax(count > 1)]), m)
                i, k = self._locate(r)
                raise ValidationError(
                    f"system {i}, report {k} carries event "
                    f"{trace.event_ids[row]} twice"
                )
        del key  # spent; free it before the returned columns are built
        orig_sys = system[self.orig_report]
        w = trace.weights[orig_rows, orig_sys]
        unobserved = w <= 0.0
        if unobserved.any():
            p = int(np.argmax(unobserved))
            i, k = self._locate(int(self.orig_report[p]))
            raise ValidationError(
                f"system {i}, report {k} originates event "
                f"{trace.event_ids[orig_rows[p]]} with zero measurement "
                f"(must be forwarded)"
            )
        return orig_rows, orig_sys, w


def _grouped(keys: np.ndarray, values: list, n_groups: int) -> list[tuple]:
    """Values split into groups 0..n_groups-1 by their sorted keys."""
    cuts = np.searchsorted(keys, np.arange(n_groups + 1)).tolist()
    return [tuple(values[a:b]) for a, b in itertools.pairwise(cuts)]


@dataclass(frozen=True)
class CostBreakdown:
    """Evaluated objective: report cost, latency, and their rho-blend."""

    comm: float
    latency: float
    total: float


def evaluate(
    schedule: ReportSchedule,
    trace: EventTrace,
    k: int,
    rho: float,
    cost_fn: CommCost,
) -> CostBreakdown:
    """Score a schedule against the blended objective.

    Report cost sums cost_fn over each report's own originated measurements.
    Latency charges every observation (i, j) its weight times the time from
    the event to j's delivery, regardless of when system i itself reported
    it. Delivery is found by selection, not by a sort: each system's
    earliest report of j is written into an (N, m) hit matrix of inf at
    (system, j), and j's delivery is the K-th smallest of its column. A
    column whose K-th smallest is inf has fewer than K observers that
    reported it (`validate` rejects non-finite report times); a
    ValidationError names those events.

    Beyond its inputs, `evaluate` allocates at most about the size of
    `trace.weights` (the hit matrix) plus 1.5 times the bytes of the
    schedule's columns. On the dense traces that sweeps generate, the
    columns dwarf the hit matrix, so the peak is proportional to the
    schedule.
    """
    check_rho(rho)
    check_k(k, trace.n_systems)
    rows, key, w = schedule.validate(trace)
    m = trace.n_events

    # Report costs are summed left to right in (system, report) order.
    n_reports = schedule.total_reports()
    costs = cost_fn.of_reports(schedule.orig_report, w, n_reports)
    comm = float(np.cumsum(costs, out=costs)[-1]) if n_reports else 0.0
    del costs, w  # spent: free them before the pair times are gathered

    # Delivery: one hit per (system, row), at the system's earliest report
    # of the row. The (system, row) key, written over the pairs' systems,
    # is the pair's flat index in the hit matrix. Pairs are in (system,
    # time) order, so keys rise strictly unless a system reports a row
    # twice, and then the first pair of a key is that system's earliest;
    # only one pair per key is written, since numpy does not say which of
    # repeated indices a write keeps.
    times = schedule.time[schedule.orig_report]
    key *= m
    key += rows
    del rows
    if (key[1:] <= key[:-1]).any():
        first = np.unique(key, return_index=True)[1]
        key, times = key[first], times[first]
    hit = np.full((trace.n_systems, m), math.inf)
    hit.ravel()[key] = times
    del key, times  # spent: free the pair columns before the partition
    hit.partition(k - 1, axis=0)
    gammas = hit[k - 1]
    delivered = gammas < math.inf

    if not delivered.all():
        ids = trace.event_ids[~delivered].tolist()
        more = f" and {len(ids) - 5} more" if len(ids) > 5 else ""
        raise ValidationError(
            f"schedule never delivers events {ids[:5]}{more}"
        )

    row_sums = trace.weights.sum(axis=1)
    latency = float(np.dot(row_sums, gammas - trace.times))

    total = rho * comm + (1.0 - rho) * latency
    return CostBreakdown(comm=comm, latency=latency, total=total)


def _report_totals(
    report: np.ndarray, weights: np.ndarray, n_reports: int
) -> np.ndarray:
    """Each report's weight sum, added left to right over its pairs.

    Position p of every report that has one is added in a single step, so
    each sum takes its terms in the same order as a scalar loop would.
    """
    lens = np.bincount(report, minlength=n_reports)
    start = np.cumsum(lens) - lens
    longest_first = np.argsort(-lens, kind="stable")
    neg_lens = -lens[longest_first]
    totals = np.zeros(n_reports)
    for p in range(int(lens.max(initial=0))):
        active = longest_first[: np.searchsorted(neg_lens, -p)]
        totals[active] += weights[start[active] + p]
    return totals
