"""Tests for the core types, the cost functions, and the evaluator."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggsim import model
from aggsim.model import (
    CostBreakdown,
    EventTrace,
    LogCost,
    Report,
    ReportSchedule,
    TraceFormatError,
    UnityCost,
    ValidationError,
    evaluate,
    parse_cost,
)
import oracles


def make_trace(times, weights, ids=None):
    return EventTrace(times, np.asarray(weights, dtype=float), ids)


# ---------------------------------------------------------------- traces


def test_trace_basic_accessors():
    tr = make_trace([1.0, 2.5], [[1.0, 0.0], [0.25, 2.0]], ids=[7, 9])
    assert tr.n_events == 2
    assert tr.n_systems == 2
    assert tr.index_of(9) == 1
    assert tr.rows_of(np.array([9, 7, 9])).tolist() == [1, 0, 1]
    for unknown in (8, 6, 10):
        with pytest.raises(ValidationError, match=f"unknown event id {unknown}"):
            tr.index_of(unknown)
    with pytest.raises(ValidationError, match="unknown event id 0"):
        make_trace([], np.zeros((0, 2))).index_of(0)


def test_rows_of_on_an_empty_trace():
    empty = make_trace([], np.zeros((0, 2)))
    rows = empty.rows_of(np.array([], dtype=np.int64))
    assert rows.size == 0 and rows.dtype == np.intp
    with pytest.raises(ValidationError, match="unknown event id 3"):
        empty.rows_of(np.array([3, 4], dtype=np.int64))


def test_rows_of_returns_a_new_intp_array():
    # identity ids, searched ids and the empty trace: the result never
    # shares the (read-only) ids it was given
    for tr in (
        make_trace([1.0, 2.0], [[1.0], [1.0]]),
        make_trace([1.0, 2.0], [[1.0], [1.0]], ids=[5, 3]),
        make_trace([], np.zeros((0, 2))),
    ):
        rows = tr.rows_of(tr.event_ids)
        assert rows.dtype == np.intp and rows.flags.writeable
        assert rows.tolist() == list(range(tr.n_events))
        assert not np.shares_memory(rows, tr.event_ids)


def test_rows_of_maps_permuted_small_ids_to_their_rows():
    # ids from 0..m-1 out of order are not their own rows; [1, 0] equals
    # its own argsort, so that equality is no test of identity
    for ids in ([1, 0], [0, 2, 1]):
        m = len(ids)
        tr = make_trace(np.arange(1.0, m + 1), np.ones((m, 1)), ids=ids)
        assert tr.rows_of(np.array(ids)).tolist() == list(range(m))
        assert [tr.index_of(e) for e in ids] == list(range(m))


def test_rows_of_names_the_first_unknown_id():
    tr = make_trace([1.0, 2.5, 4.0], [[1.0], [1.0], [1.0]], ids=[7, 9, 5])
    assert tr.rows_of(np.array([5, 9, 7, 5])).tolist() == [2, 1, 0, 2]
    for ids, bad in (([9, 10, 4], 10), ([4, 10], 4), ([7, 8], 8)):
        with pytest.raises(ValidationError, match=f"unknown event id {bad}$"):
            tr.rows_of(np.array(ids, dtype=np.int64))


def test_rows_of_on_identity_ids_names_the_first_unknown_id():
    tr = make_trace([1.0, 2.5, 4.0], [[1.0], [1.0], [1.0]])
    assert tr.rows_of(np.array([2, 0, 1, 2])).tolist() == [2, 0, 1, 2]
    for ids, bad in (
        ([1, -1, 3], -1), ([0, 3, -1], 3), ([2, 2**62, 3], 2**62)
    ):
        with pytest.raises(ValidationError, match=f"unknown event id {bad}$"):
            tr.rows_of(np.array(ids, dtype=np.int64))


def test_trace_validation():
    with pytest.raises(ValidationError):
        make_trace([1.0, 1.0], [[1.0], [1.0]])  # non-increasing
    with pytest.raises(ValidationError):
        make_trace([2.0, 1.0], [[1.0], [1.0]])
    with pytest.raises(ValidationError):
        make_trace([-1.0], [[1.0]])
    with pytest.raises(ValidationError):
        make_trace([1.0], [[-0.5]])
    with pytest.raises(ValidationError):
        make_trace([1.0], [[math.nan]])
    with pytest.raises(ValidationError):
        make_trace([1.0, 2.0], [[1.0], [1.0]], ids=[3, 3])
    with pytest.raises(ValidationError):
        make_trace([1.0], [[1.0], [2.0]])  # shape mismatch


@pytest.mark.parametrize(
    "times, ids, message",
    [
        ([[1.0]], None, "times must be one-dimensional"),
        ([1.0, 2.0], [0], "event_ids length must match times"),
        ([1.0], [2**63], "event ids must fit in 64 bits"),
    ],
)
def test_trace_rejects_malformed_times_and_ids(times, ids, message):
    with pytest.raises(ValidationError) as exc:
        EventTrace(times, [[1.0]] * len(times), ids)
    assert str(exc.value) == message


@pytest.mark.parametrize("index", [-1, 4])
def test_split_index_out_of_range(index):
    tr = make_trace([1.0, 2.0, 4.0], [[1.0], [2.0], [3.0]])
    with pytest.raises(ValidationError) as exc:
        tr.split_at(index)
    assert str(exc.value) == f"split index {index} out of range"


def test_trace_is_immutable():
    tr = make_trace([1.0], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        tr.weights[0, 0] = 5.0
    with pytest.raises(ValueError):
        tr.times[0] = 9.0


def test_trace_k_feasibility():
    tr = make_trace([1.0, 2.0], [[1.0, 1.0], [1.0, 0.0]])
    tr.check_k_feasible(1)
    with pytest.raises(ValidationError, match="not 2-feasible"):
        tr.check_k_feasible(2)
    with pytest.raises(ValidationError):
        tr.check_k_feasible(0)


def test_trace_split_keeps_absolute_times():
    tr = make_trace([1.0, 2.0, 4.0], [[1.0], [2.0], [3.0]], ids=[10, 11, 12])
    left, right = tr.split_at(2)
    assert left.event_ids.tolist() == [10, 11]
    assert right.event_ids.tolist() == [12]
    assert float(right.times[0]) == 4.0
    whole = make_trace([1.0, 2.0, 4.0], [[1.0], [2.0], [3.0]], ids=[10, 11, 12])
    assert left.n_events + right.n_events == whole.n_events


def test_trace_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    times = np.cumsum(rng.uniform(0.1, 3.0, size=12))
    weights = rng.uniform(0.0, 1.0, size=(12, 4))
    tr = EventTrace(times, weights, list(range(100, 112)))
    path = tmp_path / "trace.csv"
    tr.to_csv(str(path))
    back = EventTrace.from_csv(str(path))
    assert back == tr  # bit-exact via repr round trip
    # ids stay one read-only int64 column through the file and a split
    left, right = back.split_at(5)
    for t in (tr, back, left, right):
        assert t.event_ids.dtype == np.int64
        assert not t.event_ids.flags.writeable
    assert left.event_ids.tolist() + right.event_ids.tolist() == list(
        range(100, 112)
    )
    header = path.read_text().splitlines()[0]
    assert header == "event_id,time,w_1,w_2,w_3,w_4"


def test_trace_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("")
    with pytest.raises(TraceFormatError) as exc:
        EventTrace.from_csv(str(p))
    assert exc.value.line == 1

    p.write_text("id,time,w_1\n")
    with pytest.raises(TraceFormatError) as exc:
        EventTrace.from_csv(str(p))
    assert exc.value.line == 1

    p.write_text("event_id,time,w_1\n0,1.0,0.5\n1,2.0\n")
    with pytest.raises(TraceFormatError) as exc:
        EventTrace.from_csv(str(p))
    assert exc.value.line == 3

    p.write_text("event_id,time,w_1\n0,oops,0.5\n")
    with pytest.raises(TraceFormatError) as exc:
        EventTrace.from_csv(str(p))
    assert exc.value.line == 2

    # value errors name the file line of the offending row; the blank line
    # is not a row but still counts as a line
    head = "event_id,time,w_1\n0,1.0,0.5\n\n"
    for body, line in [
        ("1,2.0,0.5\n2,2.0,0.5\n", 5),  # non-increasing time
        ("1,2.0,nan\n", 4),
        ("1,2.0,0.5\n2,3.0,-1.0\n", 5),
        ("1,2.0,0.5\n1,3.0,0.5\n", 5),  # duplicate id
    ]:
        p.write_text(head + body)
        with pytest.raises(TraceFormatError) as exc:
            EventTrace.from_csv(str(p))
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trace_rejects_a_weight_time_bound_that_overflows(tmp_path):
    # t_{m-1} times the weight of rows 0..r must stay finite; 4 * 4e307 is,
    # 4 * 5e307 is not, and the error names row 2 (file line 4)
    times = [0.0, 1.0, 4.0]
    EventTrace(times, [[1e307], [1e307], [2e307]])
    with pytest.raises(ValidationError, match=r"overflows \(row 2\)$"):
        EventTrace(times, [[1e307], [1e307], [3e307]])
    # a row sum that overflows by itself, at time zero
    with pytest.raises(ValidationError, match=r"\(row 0\)$"):
        EventTrace([0.0], [[1e308, 1e308]])
    p = tmp_path / "big.csv"
    p.write_text("event_id,time,w_1\n0,0.0,1e307\n1,1.0,1e307\n2,4.0,3e307\n")
    with pytest.raises(TraceFormatError, match="^line 4: "):
        EventTrace.from_csv(str(p))


# ---------------------------------------------------------- cost functions


def test_unity_cost():
    c = UnityCost()
    assert c.of_total(0.0) == 1.0
    assert c.of_total(123.4) == 1.0


def test_log_cost_values():
    c = LogCost()
    assert c.of_total(2.0) == math.log(4.0)
    assert c.of_total(0.0) == math.log(2.0)
    assert c.of_total(6.0) == math.log(8.0)


@pytest.mark.parametrize("cost_fn", [UnityCost(), LogCost()])
def test_array_costs_equal_scalar_calls(cost_fn):
    rng = np.random.default_rng(5)
    # 40 reports, some empty, weights summed left to right per report
    report = np.sort(rng.integers(0, 40, size=150))
    weights = rng.exponential(1.0, size=150)
    sums = [0.0] * 40
    for r, x in zip(report.tolist(), weights.tolist()):
        sums[r] += x
    assert cost_fn.of_reports(report, weights, 40).tolist() == [
        cost_fn.of_total(x) for x in sums
    ]


@pytest.mark.parametrize("chunk", [1, 3, 7, 40, 4096])
def test_report_costs_are_the_same_in_every_chunk_size(monkeypatch, chunk):
    # reports are scored a chunk at a time; chunk ends fall inside runs of
    # empty reports and between the pairs of long ones
    rng = np.random.default_rng(17)
    report = np.sort(rng.integers(0, 40, size=300))
    report[report % 9 == 4] = 5
    report.sort()
    weights = rng.exponential(1.0, size=300)
    sums = [0.0] * 43
    for r, x in zip(report.tolist(), weights.tolist()):
        sums[r] += x
    monkeypatch.setattr(model, "_REPORT_CHUNK", chunk)
    got = LogCost().of_reports(report, weights, 43)
    assert got.tolist() == [LogCost().of_total(x) for x in sums]


@pytest.mark.parametrize("cost_fn", [LogCost()])
def test_log_cost_array_bits_do_not_depend_on_position(cost_fn):
    # offline_lb evaluates the window cells of many closes in one array; it
    # gives the full scan's bits only if a value's log does not depend on
    # where it sits in the array or on the array's length
    rng = np.random.default_rng(13)
    totals = np.concatenate(
        [
            rng.exponential(3.0, size=3000),
            rng.uniform(0.0, 1e-3, size=500),
            rng.uniform(0.0, 1e6, size=500),
        ]
    )
    rng.shuffle(totals)
    whole = cost_fn.of_total_array(totals)
    for length in range(1, 18):
        for start in (0, 1, 2, 3, 5, 7, 8, 13, 64, 1001, totals.size - length):
            part = cost_fn.of_total_array(totals[start : start + length])
            assert part.tobytes() == whole[start : start + length].tobytes()


def test_parse_cost():
    assert isinstance(parse_cost("U"), UnityCost)
    assert isinstance(parse_cost("unity"), UnityCost)
    assert isinstance(parse_cost("log"), LogCost)
    assert isinstance(parse_cost("L"), LogCost)
    with pytest.raises(ValidationError):
        parse_cost("quadratic")


COST_VARIANTS = [
    UnityCost(),
    LogCost(),
]


@settings(max_examples=200)
@given(
    a=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    b=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
def test_cost_functions_are_positive_monotone_subadditive(a, b):
    for c in COST_VARIANTS:
        fa, fb, fab = c.of_total(a), c.of_total(b), c.of_total(a + b)
        assert fa > 0
        if a <= b:
            assert fa <= fb
        assert fa + fb >= fab - 1e-12


def test_linear_latency():
    # weight 2 held from t=1 to 4 costs 6; the unobserving system adds 0
    tr = make_trace([1.0], [[2.0, 0.0]])
    sched = oracles.schedule_of(((Report(4.0, (0,)),), ()))
    assert evaluate(sched, tr, 1, 0.5, UnityCost()).latency == 6.0


# ------------------------------------------ gamma: the K-th report time


def test_gamma_second_smallest_of_three():
    tr = make_trace([1.0], [[1.0, 1.0, 1.0]])
    sched = oracles.schedule_of(
        (
            (Report(5.0, (0,)),),
            (Report(3.0, (0,)),),
            (Report(7.0, (0,)),),
        )
    )
    # three unit observations, each held until the K-th report
    for k, gamma in [(2, 5.0), (1, 3.0), (3, 7.0)]:
        out = evaluate(sched, tr, k, 0.5, UnityCost())
        assert out.latency == 3 * (gamma - 1.0)


def test_gamma_immediate_single_report():
    tr = make_trace([2.5], [[1.0]])
    sched = oracles.schedule_of(((Report(2.5, (0,)),),))
    assert evaluate(sched, tr, 1, 0.5, UnityCost()).latency == 0.0


def test_gamma_short_of_k_is_infinite():
    # an event whose K-th report never comes is never delivered
    tr = make_trace([1.0], [[1.0, 1.0]])
    sched = oracles.schedule_of(((Report(2.0, (0,)),), ()))
    with pytest.raises(
        ValidationError, match=r"^schedule never delivers events \[0\]$"
    ):
        evaluate(sched, tr, 2, 0.5, UnityCost())


def test_gamma_ignores_nonobservers_and_forwards():
    # system 1 has zero weight; its mention of event 0 must not count
    tr = make_trace([1.0], [[1.0, 0.0, 1.0]])
    sched = oracles.schedule_of(
        (
            (Report(4.0, (0,)),),
            (Report(2.0, (), forwarded_ids=(0,)),),
            (Report(6.0, (0,)),),
        )
    )
    assert evaluate(sched, tr, 1, 0.5, UnityCost()).latency == 2 * 3.0
    assert evaluate(sched, tr, 2, 0.5, UnityCost()).latency == 2 * 5.0


def test_gamma_input_errors():
    tr = make_trace([1.0], [[1.0]])
    unknown = oracles.schedule_of(((Report(1.0, (42,)),),))
    with pytest.raises(ValidationError, match="unknown event id"):
        evaluate(unknown, tr, 1, 0.5, UnityCost())
    sched = oracles.schedule_of(((Report(1.0, (0,)),),))
    with pytest.raises(ValidationError):
        evaluate(sched, tr, 2, 0.5, UnityCost())


def test_from_fired_puts_reports_in_system_order():
    # firing order interleaves the systems; pairs arrive out of report order
    sched = ReportSchedule(
        2,
        [1, 0, 1, 0],
        [1.0, 2.0, 3.0, 4.0],
        ([3, 0, 1, 0, 2], [9, 5, 7, 6, 8]),
        ([2, 2], [1, 3]),
    )
    per = (
        (Report(2.0, (7,)), Report(4.0, (9,))),
        (Report(1.0, (5, 6)), Report(3.0, (8,), (1, 3))),
    )
    assert sched == oracles.schedule_of(per)
    assert sched.per_system == per


@st.composite
def per_system_reports(draw):
    """Per-system `Report` tuples with strictly increasing times, each with
    zero or more originated and forwarded ids; some systems send nothing."""
    n = draw(st.integers(1, 4))
    ids = st.lists(st.integers(0, 30), max_size=3).map(tuple)
    per = []
    for _ in range(n):
        gaps = draw(st.lists(st.floats(0.125, 4.0), max_size=4))
        times = np.cumsum(gaps).tolist()
        per.append(tuple(Report(t, draw(ids), draw(ids)) for t in times))
    return tuple(per)


@settings(max_examples=150, deadline=None)
@given(per_system_reports(), st.data())
def test_ordered_and_interleaved_input_give_one_schedule(per, data):
    n = len(per)
    sent = [(i, rep) for i, reports in enumerate(per) for rep in reports]
    # a firing order: the systems' reports merged, each system's in order
    queues = [list(reports) for reports in per]
    senders = data.draw(st.permutations([i for i, _ in sent]))
    fired = [(i, queues[i].pop(0)) for i in senders]

    def columns(listed, shuffle):
        """Columns of reports listed in this order; pairs of different
        reports interleaved when `shuffle`, each report's in position
        order."""
        pairs = []
        for kind in ("event_ids", "forwarded_ids"):
            carried = [(r, j) for r, (_, rep) in enumerate(listed)
                       for j in getattr(rep, kind)]
            if shuffle:
                owners = data.draw(st.permutations([r for r, _ in carried]))
                held = {}
                for r, j in carried:
                    held.setdefault(r, []).append(j)
                carried = [(r, held[r].pop(0)) for r in owners]
            pairs.append((
                np.array([r for r, _ in carried], dtype=np.int64),
                np.array([j for _, j in carried], dtype=np.int64),
            ))
        system = np.array([i for i, _ in listed], dtype=np.int64)
        time = np.array([rep.time for _, rep in listed], dtype=np.float64)
        return system, time, pairs

    system, time, (orig, fwd) = columns(sent, shuffle=False)
    ordered = ReportSchedule(n, system, time, orig, fwd)
    i_system, i_time, (i_orig, i_fwd) = columns(fired, shuffle=True)
    interleaved = ReportSchedule(n, i_system, i_time, i_orig, i_fwd)
    by_hand = oracles.schedule_of(per)
    for name in ReportSchedule.__slots__[1:]:
        col = getattr(ordered, name)
        assert col.dtype == np.int64 or name == "time"
        assert not col.flags.writeable
        for other in (interleaved, by_hand):
            assert np.array_equal(col, getattr(other, name)), name
            assert col.dtype == getattr(other, name).dtype
    assert ordered == interleaved == by_hand
    assert ordered.per_system == per
    # ordered columns are kept without a copy, and the caller's arrays
    # stay writable
    for given_col, name in ((system, "system"), (time, "time"),
                            (orig[0], "orig_report"), (orig[1], "orig_id"),
                            (fwd[0], "fwd_report"), (fwd[1], "fwd_id")):
        assert given_col.size == 0 or np.shares_memory(
            given_col, getattr(ordered, name)
        )
        assert given_col.flags.writeable


def test_ordered_and_sorted_input_agree_on_edge_cases():
    # no reports at all, reports with no ids, and forwarded pairs only;
    # each schedule is also listed with the systems in reverse, which the
    # constructor must sort
    for per in (
        ((), ()),
        ((Report(1.0, ()),), (Report(0.5, ()), Report(2.0, ()))),
        ((Report(1.0, (), (4, 2)),), (Report(0.5, (3,), (3,)),)),
    ):
        listed = [(i, rep) for i in reversed(range(len(per))) for rep in per[i]]
        reversed_systems = ReportSchedule(
            len(per),
            [i for i, _ in listed],
            [rep.time for _, rep in listed],
            *(
                (
                    [r for r, (_, rep) in enumerate(listed)
                     for _ in getattr(rep, kind)],
                    [j for _, rep in listed for j in getattr(rep, kind)],
                )
                for kind in ("event_ids", "forwarded_ids")
            ),
        )
        assert reversed_systems == oracles.schedule_of(per)
        assert reversed_systems.per_system == per


def seeded_instance(rng, n_events=None, n_systems=None):
    m = n_events or int(rng.integers(1, 6))
    n = n_systems or int(rng.integers(1, 4))
    times = np.cumsum(rng.uniform(0.2, 2.0, size=m))
    weights = rng.uniform(0.0, 1.0, size=(m, n))
    weights[rng.uniform(size=(m, n)) < 0.3] = 0.0
    # every event needs one observer so feasible schedules exist
    for r in range(m):
        if not (weights[r] > 0).any():
            weights[r][int(rng.integers(0, n))] = float(rng.uniform(0.1, 1.0))
    return EventTrace(times, weights)


def random_full_schedule(rng, trace):
    """Every system reports each observed event, at a random later time."""
    per = []
    for i in range(trace.n_systems):
        mine = [j for j in trace.event_ids if oracles.weight(trace, i, j) > 0]
        reports = []
        t = 0.0
        for j in mine:
            t = max(t, oracles.time_of(trace, j)) + float(rng.uniform(0.01, 1.0))
            reports.append(Report(t, (j,)))
        per.append(tuple(reports))
    return oracles.schedule_of(tuple(per))


def test_gamma_matches_naive_on_random_schedules():
    # evaluate's latency charges each event's weight until its K-th report
    rng = np.random.default_rng(11)
    for _ in range(50):
        tr = seeded_instance(rng)
        sched = random_full_schedule(rng, tr)
        for k in range(1, tr.n_systems + 1):
            gammas = [oracles.naive_gamma(sched, tr, j, k) for j in tr.event_ids]
            if math.inf in gammas:
                with pytest.raises(ValidationError, match="never delivers"):
                    evaluate(sched, tr, k, 0.5, UnityCost())
                continue
            out = evaluate(sched, tr, k, 0.5, UnityCost())
            want = sum(
                float(tr.weights[r].sum()) * (g - float(tr.times[r]))
                for r, g in enumerate(gammas)
            )
            assert out.latency == pytest.approx(want, abs=1e-12)


# --------------------------------------------------------------- evaluate


def test_evaluate_single_system_example():
    tr = make_trace([0.0], [[1.0]])
    sched = oracles.schedule_of(((Report(2.0, (0,)),),))
    out = evaluate(sched, tr, 1, 0.5, UnityCost())
    assert out.comm == 1.0
    assert out.latency == 2.0
    assert out.total == 1.5


def test_evaluate_two_system_shared_event():
    # both observers are charged latency to the global first-report time
    tr = make_trace([0.0], [[1.0, 1.0]])
    sched = oracles.schedule_of(
        ((Report(1.0, (0,)),), (Report(3.0, (0,)),))
    )
    out = evaluate(sched, tr, 1, 0.5, UnityCost())
    assert out.comm == 2.0
    assert out.latency == 2.0
    assert out.total == 2.0
    assert out.total == oracles.naive_total(
        sched, tr, 1, 0.5, UnityCost())


def test_evaluate_infeasible_event():
    tr = make_trace([0.0, 1.0], [[1.0], [1.0]])
    sched = oracles.schedule_of(((Report(0.5, (0,)),),))
    with pytest.raises(
        ValidationError, match=r"^schedule never delivers events \[1\]$"
    ):
        evaluate(sched, tr, 1, 0.5, UnityCost())


def test_evaluate_names_five_undelivered_events_and_counts_the_rest():
    tr = make_trace([float(t) for t in range(8)], [[1.0]] * 8)
    with pytest.raises(
        ValidationError,
        match=r"^schedule never delivers events \[0, 1, 2, 3, 4\] and 3 more$",
    ):
        evaluate(oracles.schedule_of(((),)), tr, 1, 0.5, UnityCost())


def test_evaluate_rejects_bad_schedules():
    tr = make_trace([1.0, 2.0], [[1.0, 0.0], [1.0, 1.0]])
    early = oracles.schedule_of(((Report(0.5, (0,)),), ()))
    with pytest.raises(ValidationError, match="precedes"):
        evaluate(early, tr, 1, 0.5, UnityCost())
    unobserved = oracles.schedule_of(((), (Report(3.0, (0, 1)),)))
    with pytest.raises(ValidationError, match="forwarded"):
        evaluate(unobserved, tr, 1, 0.5, UnityCost())
    disordered = oracles.schedule_of(
        ((Report(2.0, (0,)), Report(2.0, (1,))), ())
    )
    with pytest.raises(ValidationError, match="strictly increase"):
        evaluate(disordered, tr, 1, 0.5, UnityCost())
    ok = oracles.schedule_of(((Report(2.5, (0, 1)),), ()))
    with pytest.raises(ValidationError):
        evaluate(ok, tr, 1, 1.5, UnityCost())
    with pytest.raises(ValidationError):
        evaluate(ok, tr, 3, 0.5, UnityCost())


@pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_validate_rejects_non_finite_report_times(bad, at):
    # system 1's first, middle or last report is sent at a non-finite time
    tr = make_trace([0.0, 1.0, 2.0], [[1.0, 1.0]] * 3)
    times = [0.5, 1.5, 2.5]
    times[at] = bad
    sched = oracles.schedule_of((
        (Report(3.0, (0, 1, 2)),),
        tuple(Report(t, (j,)) for j, t in enumerate(times)),
    ))
    with pytest.raises(
        ValidationError,
        match=rf"^system 1: report times must strictly increase "
        rf"\(report {at} at {bad}\)$",
    ):
        evaluate(sched, tr, 2, 0.5, UnityCost())


def test_a_report_at_infinity_is_not_a_delivery():
    # evaluate used to score this as feasible with total inf
    tr = make_trace([0.0, 1.0], [[1.0, 1.0], [1.0, 1.0]])
    sched = oracles.schedule_of((
        (Report(1.0, (0, 1)),),
        (Report(math.inf, (0, 1)),),
    ))
    with pytest.raises(ValidationError, match=r"\(report 0 at inf\)"):
        evaluate(sched, tr, 2, 0.5, UnityCost())


def test_validate_rejects_a_trace_with_another_system_count():
    sched = oracles.schedule_of(((Report(1.0, (0,)),),))
    with pytest.raises(
        ValidationError, match="^schedule has 1 systems, trace has 2$"
    ):
        sched.validate(make_trace([0.0], [[1.0, 1.0]]))


def test_validate_returns_the_pairs_evaluate_scores():
    tr = make_trace(
        [1.0, 2.0, 3.0], [[1.0, 0.0], [0.5, 0.25], [0.0, 2.0]], [10, 30, 20]
    )
    sched = oracles.schedule_of((
        (Report(2.5, (30, 10)),),
        (Report(3.5, (20, 30), forwarded_ids=(10,)),),
    ))
    rows, systems, w = sched.validate(tr)
    assert rows.tolist() == [1, 0, 2, 1]
    assert systems.tolist() == [0, 0, 1, 1]
    assert w.tolist() == [0.5, 1.0, 2.0, 0.25]
    out = evaluate(sched, tr, 1, 0.5, LogCost())
    assert out.comm == math.log(2.0 + 1.5) + math.log(2.0 + 2.25)


def test_evaluate_counts_forwarded_copies_for_free():
    tr = make_trace([1.0], [[1.0, 1.0]])
    with_fwd = oracles.schedule_of(
        ((Report(2.0, (0,)),), (Report(3.0, (0,), forwarded_ids=()),))
    )
    # same schedule, but system 2 only forwards instead of originating
    only_fwd = oracles.schedule_of(
        ((Report(2.0, (0,)),), (Report(3.0, (), forwarded_ids=(0,)),))
    )
    evaluate(with_fwd, tr, 2, 0.5, UnityCost())
    # the forwarded copy does not reach K=2
    with pytest.raises(ValidationError, match="never delivers"):
        evaluate(only_fwd, tr, 2, 0.5, UnityCost())


def test_evaluate_matches_naive_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(60):
        tr = seeded_instance(rng)
        sched = random_full_schedule(rng, tr)
        k = int(rng.integers(1, tr.n_systems + 1))
        rho = float(rng.uniform(0.1, 0.9))
        cost = COST_VARIANTS[int(rng.integers(len(COST_VARIANTS)))]
        ref = oracles.naive_total(sched, tr, k, rho, cost)
        if math.isinf(ref):
            with pytest.raises(ValidationError, match="never delivers"):
                evaluate(sched, tr, k, rho, cost)
        else:
            mine = evaluate(sched, tr, k, rho, cost)
            assert mine.total == pytest.approx(ref, abs=1e-9)


def test_one_system_counts_once_toward_k():
    # K counts distinct observers: system 0 reporting event 0 twice, or
    # carrying it twice in one report, is still one observer
    tr = make_trace([1.0], [[1.0, 1.0]])
    twice = oracles.schedule_of(((Report(2.0, (0,)), Report(3.0, (0,))), ()))
    with pytest.raises(
        ValidationError, match=r"^schedule never delivers events \[0\]$"
    ):
        evaluate(twice, tr, 2, 0.5, UnityCost())
    assert oracles.naive_gamma(twice, tr, 0, 2) == math.inf
    # with K=1 the earlier of the two reports delivers it; both are paid
    out = evaluate(twice, tr, 1, 0.5, UnityCost())
    assert out.comm == 2.0
    assert out.latency == 2.0
    for doubled in (Report(2.0, (0, 0)), Report(2.0, (0,), (0,))):
        sched = oracles.schedule_of(((doubled,), ()))
        with pytest.raises(ValidationError, match="carries event 0 twice"):
            evaluate(sched, tr, 2, 0.5, UnityCost())


def random_schedule(rng, trace):
    """Reports at random times that originate random subsets of the
    sender's observations (an event may recur in later reports of the same
    system) and forward random ids; some events are never reported."""
    per = []
    times = trace.times
    for i in range(trace.n_systems):
        reports = []
        t = float(times[0])
        for _ in range(int(rng.integers(0, 5))):
            t += float(rng.choice([0.0, 0.3, 1.0, 2.5])) + 0.01
            due = [r for r in range(trace.n_events) if times[r] <= t]
            pick = rng.uniform(size=len(due))
            orig = tuple(
                trace.event_ids[r]
                for r, u in zip(due, pick)
                if u < 0.6 and trace.weights[r][i] > 0
            )
            fwd = tuple(
                trace.event_ids[r]
                for r, u in zip(due, pick)
                if u > 0.8
            )
            reports.append(Report(t, orig, fwd))
        per.append(tuple(reports))
    return oracles.schedule_of(tuple(per))


def _outcome(fn, *args):
    """The CostBreakdown `fn` returns, or the message of its
    ValidationError."""
    try:
        return fn(*args)
    except ValidationError as exc:
        return str(exc)


def test_evaluate_matches_loop_evaluator_bit_for_bit():
    rng = np.random.default_rng(59)
    delivered = 0
    for _ in range(300):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 5))
        weights = rng.uniform(0.0, 3.0, size=(m, n))
        weights[rng.uniform(size=(m, n)) < 0.5] = 0.0  # sparse
        start = float(rng.choice([0.0, 1e6 + 0.123]))
        tr = EventTrace(
            start + np.cumsum(rng.uniform(0.05, 1.5, size=m)),
            weights,
            [int(e) for e in rng.permutation(3 * m)[:m]],
        )
        sched = random_schedule(rng, tr)
        k = int(rng.integers(1, n + 1))
        rho = float(rng.uniform(0.1, 0.9))
        for cost in COST_VARIANTS:
            mine = _outcome(evaluate, sched, tr, k, rho, cost)
            ref = _outcome(oracles.loop_evaluate, sched, tr, k, rho, cost)
            # equal floats, or the same "never delivers" message
            assert mine == ref
            delivered += isinstance(mine, CostBreakdown)
    # both branches are exercised
    assert 0 < delivered < 300 * len(COST_VARIANTS)


def test_evaluate_matches_loop_evaluator_bit_for_bit_on_identity_ids():
    # the comparison above on traces whose ids are their own rows, at every
    # K, on schedules in which some system reports a row again (each
    # system's hit is then its earliest report of the row)
    rng = np.random.default_rng(67)
    delivered = undelivered = repeated = 0
    for _ in range(150):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 5))
        weights = rng.uniform(0.0, 3.0, size=(m, n))
        weights[rng.uniform(size=(m, n)) < 0.5] = 0.0  # sparse
        start = float(rng.choice([0.0, 1e6 + 0.123]))
        times = start + np.cumsum(rng.uniform(0.05, 1.5, size=m))
        tr = EventTrace(times, weights)
        sched = random_schedule(rng, tr)
        pairs = sched.system[sched.orig_report] * m + sched.orig_id
        repeated += np.unique(pairs).size < pairs.size
        rho = float(rng.uniform(0.1, 0.9))
        for k in range(1, n + 1):
            for cost in COST_VARIANTS:
                mine = _outcome(evaluate, sched, tr, k, rho, cost)
                ref = _outcome(oracles.loop_evaluate, sched, tr, k, rho, cost)
                assert mine == ref
                if isinstance(mine, CostBreakdown):
                    delivered += 1
                else:
                    assert mine.startswith("schedule never delivers events")
                    undelivered += 1
    assert delivered and undelivered and repeated


def test_evaluate_permutation_symmetry():
    rng = np.random.default_rng(31)
    for _ in range(25):
        tr = seeded_instance(rng, n_systems=3)
        sched = random_full_schedule(rng, tr)
        perm = rng.permutation(3)
        tr_p = EventTrace(tr.times, tr.weights[:, perm], tr.event_ids)
        sched_p = oracles.schedule_of(tuple(sched.per_system[p] for p in perm))
        a = evaluate(sched, tr, 1, 0.5, LogCost())
        b = evaluate(sched_p, tr_p, 1, 0.5, LogCost())
        assert a.total == pytest.approx(b.total, abs=1e-9)


def test_latency_never_decreases_when_reports_delay():
    rng = np.random.default_rng(43)
    for _ in range(40):
        tr = seeded_instance(rng)
        sched = random_full_schedule(rng, tr)
        base = evaluate(sched, tr, 1, 0.5, UnityCost())
        i = int(rng.integers(0, tr.n_systems))
        if not sched.per_system[i]:
            continue
        # delay system i's final report
        reports = list(sched.per_system[i])
        last = reports[-1]
        reports[-1] = Report(
            last.time + float(rng.uniform(0.1, 2.0)),
            last.event_ids,
            last.forwarded_ids,
        )
        per = list(sched.per_system)
        per[i] = tuple(reports)
        delayed = evaluate(
            oracles.schedule_of(tuple(per)), tr, 1, 0.5, UnityCost())
        assert delayed.latency >= base.latency - 1e-12


# ------------------------------------------------------------ accumulators


def test_accumulate_lat_examples():
    tr = make_trace([0.0], [[2.0]])
    assert oracles.accumulate_lat(tr, 0, 3.0, [0]) == 6.0
    assert oracles.accumulate_lat(tr, 0, 3.0, []) == 0.0
    tr2 = make_trace([0.0, 1.0], [[1.0], [3.0]])
    assert oracles.accumulate_lat(tr2, 0, 2.0, [0, 1]) == 5.0
    assert oracles.accumulate_lat(tr2, 0, 2.0, [1]) == 3.0


def test_accumulate_com_examples():
    tr = make_trace([0.0, 1.0], [[1.0, 0.5], [1.0, 2.0]])
    assert oracles.accumulate_com(tr, 0, [0, 1], UnityCost()) == 1.0
    assert oracles.accumulate_com(tr, 0, [0, 1], LogCost()) == math.log(4.0)
    assert oracles.accumulate_com(tr, 0, [], UnityCost()) == 1.0
    assert oracles.accumulate_com(tr, 0, [], LogCost()) == math.log(2.0)
    assert oracles.accumulate_com(tr, 1, [1], LogCost()) == math.log(4.0)
