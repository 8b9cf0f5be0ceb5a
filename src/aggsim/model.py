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


class TraceFormatError(ValidationError):
    """Raised on malformed trace CSV; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class _RowError(ValidationError):
    """A trace invariant violated at one event row (0-based)."""

    def __init__(self, message: str, row: int):
        self.message = message
        self.row = row
        super().__init__(f"{message} (row {row})")


class EventTrace:
    """Immutable ordered event stream with an (m, N) weight matrix.

    Weights are stored as a read-only float64 array with one row per event and
    one column per system. Times must be strictly increasing and nonnegative,
    weights nonnegative and finite.
    """

    __slots__ = ("times", "weights", "event_ids", "_id_to_index")

    def __init__(
        self,
        times: Sequence[float] | np.ndarray,
        weights: Sequence[Sequence[float]] | np.ndarray,
        event_ids: Sequence[int] | None = None,
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
        if event_ids is None:
            ids = tuple(range(t.shape[0]))
        else:
            ids = tuple(int(e) for e in event_ids)
            if len(ids) != t.shape[0]:
                raise ValidationError("event_ids length must match times")
        index: dict[int, int] = {}
        for row, e in enumerate(ids):
            if index.setdefault(e, row) != row:
                raise _RowError(f"duplicate event id {e}", row)
        t = t.copy()
        w = w.copy()
        t.setflags(write=False)
        w.setflags(write=False)
        self.times = t
        self.weights = w
        self.event_ids = ids
        self._id_to_index = index

    @property
    def n_events(self) -> int:
        return int(self.times.shape[0])

    @property
    def n_systems(self) -> int:
        return int(self.weights.shape[1])

    def __len__(self) -> int:
        return self.n_events

    def index_of(self, event_id: int) -> int:
        try:
            return self._id_to_index[event_id]
        except KeyError:
            raise ValidationError(f"unknown event id {event_id!r}") from None

    def time_of(self, event_id: int) -> float:
        return float(self.times[self.index_of(event_id)])

    def weight(self, system: int, event_id: int) -> float:
        return float(self.weights[self.index_of(event_id)][system])

    def check_k_feasible(self, k: int) -> None:
        """Every event must be observed (w > 0) by at least k systems."""
        if not 1 <= k <= self.n_systems:
            raise ValidationError(f"K must be in [1, {self.n_systems}], got {k}")
        counts = np.count_nonzero(self.weights > 0, axis=1)
        bad = np.nonzero(counts < k)[0]
        if bad.size:
            names = [self.event_ids[int(b)] for b in bad[:5]]
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

    def with_weights(self, weights: np.ndarray) -> "EventTrace":
        return EventTrace(self.times, weights, self.event_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventTrace):
            return NotImplemented
        return (
            self.event_ids == other.event_ids
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


class CommCost:
    """Cost of one report as a function of the reported measurement set.

    All variants in scope depend on the set only through the sum of its
    weights, are positive, non-decreasing, and subadditive. An empty set
    costs the value at total weight zero, the variant's minimum. Each
    variant also provides `of_total_array`, the same map over an array.
    """

    def of_total(self, total_weight: float) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class UnityCost(CommCost):
    """Every report costs exactly 1 regardless of content."""

    def of_total(self, total_weight: float) -> float:
        return 1.0

    def of_total_array(self, totals: np.ndarray) -> np.ndarray:
        return np.ones_like(totals)


@dataclass(frozen=True, repr=False)
class LogCost(CommCost):
    """cost = log(offset + total weight); offset >= 2 keeps cost >= log 2."""

    offset: float = 2.0

    def __post_init__(self):
        if self.offset < 2.0:
            raise ValidationError(f"log cost offset must be >= 2, got {self.offset}")

    def of_total(self, total_weight: float) -> float:
        return math.log(self.offset + total_weight)

    def of_total_array(self, totals: np.ndarray) -> np.ndarray:
        return np.log(self.offset + totals)

    def __repr__(self) -> str:
        return f"LogCost(offset={self.offset})"


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


@dataclass(frozen=True)
class ReportSchedule:
    """Per-system report sequences; the full decision output of an algorithm."""

    per_system: tuple[tuple[Report, ...], ...]

    @property
    def n_systems(self) -> int:
        return len(self.per_system)

    def total_reports(self) -> int:
        return sum(len(reports) for reports in self.per_system)

    def validate(self, trace: EventTrace) -> None:
        """Check the schedule invariants against a trace.

        Raises ValidationError listing the first offending (system, report,
        event) triple when a report precedes an event it carries, when report
        times fail to increase, or when a system originates an event it did
        not observe.
        """
        if self.n_systems != trace.n_systems:
            raise ValidationError(
                f"schedule has {self.n_systems} systems, trace has "
                f"{trace.n_systems}"
            )
        for i, reports in enumerate(self.per_system):
            prev = -math.inf
            for k, rep in enumerate(reports):
                if not rep.time > prev:
                    raise ValidationError(
                        f"system {i}: report times must strictly increase "
                        f"(report {k} at {rep.time})"
                    )
                prev = rep.time
                for j in rep.event_ids + rep.forwarded_ids:
                    if trace.time_of(j) > rep.time:
                        raise ValidationError(
                            f"report precedes event: system {i}, report {k}, "
                            f"event {j}"
                        )
                for j in rep.event_ids:
                    if trace.weight(i, j) <= 0.0:
                        raise ValidationError(
                            f"system {i}, report {k} originates event {j} "
                            f"with zero measurement (must be forwarded)"
                        )


@dataclass(frozen=True)
class CostBreakdown:
    """Evaluated objective: report cost, latency, and their rho-blend.

    If some event was never reported K times by observers, `latency` and
    `total` are +inf and the event ids are listed in `infeasible_events`.
    """

    comm: float
    latency: float
    total: float
    infeasible_events: tuple[int, ...] = ()

    @property
    def feasible(self) -> bool:
        return not self.infeasible_events


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
    the event to the global K-th-report time of j, regardless of when
    system i itself reported it.
    """
    if not 0 < rho < 1:
        raise ValidationError(f"rho must lie in (0, 1), got {rho}")
    if not 1 <= k <= trace.n_systems:
        raise ValidationError(f"K must be in [1, {trace.n_systems}], got {k}")
    schedule.validate(trace)

    comm = 0.0
    # Delivery times: k-th smallest qualifying report time per event.
    hit_times: dict[int, list[float]] = {e: [] for e in trace.event_ids}
    for i, reports in enumerate(schedule.per_system):
        for rep in reports:
            total_w = 0.0
            for j in rep.event_ids:
                w = trace.weights[trace.index_of(j)][i]
                total_w += w
                hit_times[j].append(rep.time)
            comm += cost_fn.of_total(total_w)

    gammas = np.empty(trace.n_events, dtype=np.float64)
    infeasible: list[int] = []
    for pos, j in enumerate(trace.event_ids):
        times = hit_times[j]
        if len(times) < k:
            gammas[pos] = math.inf
            infeasible.append(j)
        else:
            times.sort()
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

