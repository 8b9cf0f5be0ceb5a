"""Tests for the core types, the cost functions, and the evaluator."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggsim.model import (
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
    assert left.event_ids == (10, 11)
    assert right.event_ids == (12,)
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
    tr = make_trace([1.0], [[1.0, 1.0]])
    sched = oracles.schedule_of(((Report(2.0, (0,)),), ()))
    out = evaluate(sched, tr, 2, 0.5, UnityCost())
    assert out.infeasible_events == (0,)
    assert out.latency == math.inf


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
            out = evaluate(sched, tr, k, 0.5, UnityCost())
            if math.inf in gammas:
                assert not out.feasible
                continue
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
    assert out.feasible


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
    out = evaluate(sched, tr, 1, 0.5, UnityCost())
    assert out.infeasible_events == (1,)
    assert math.isinf(out.latency)
    assert math.isinf(out.total)
    assert not out.feasible


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
    full = evaluate(with_fwd, tr, 2, 0.5, UnityCost())
    fwd = evaluate(only_fwd, tr, 2, 0.5, UnityCost())
    assert full.feasible
    assert not fwd.feasible  # forwarded copy does not reach K=2


def test_evaluate_matches_naive_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(60):
        tr = seeded_instance(rng)
        sched = random_full_schedule(rng, tr)
        k = int(rng.integers(1, tr.n_systems + 1))
        rho = float(rng.uniform(0.1, 0.9))
        cost = COST_VARIANTS[int(rng.integers(len(COST_VARIANTS)))]
        mine = evaluate(sched, tr, k, rho, cost)
        ref = oracles.naive_total(sched, tr, k, rho, cost)
        if math.isinf(ref):
            assert not mine.feasible
        else:
            assert mine.total == pytest.approx(ref, abs=1e-9)


def test_one_system_counts_once_toward_k():
    # K counts distinct observers: system 0 reporting event 0 twice, or
    # carrying it twice in one report, is still one observer
    tr = make_trace([1.0], [[1.0, 1.0]])
    twice = oracles.schedule_of(((Report(2.0, (0,)), Report(3.0, (0,))), ()))
    out = evaluate(twice, tr, 2, 0.5, UnityCost())
    assert out.comm == 2.0
    assert out.infeasible_events == (0,)
    assert out.total == math.inf
    assert oracles.naive_gamma(twice, tr, 0, 2) == math.inf
    # with K=1 the earlier of the two reports delivers it
    assert evaluate(twice, tr, 1, 0.5, UnityCost()).latency == 2.0
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


def test_evaluate_matches_loop_evaluator_bit_for_bit():
    rng = np.random.default_rng(59)
    feasible = 0
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
            mine = evaluate(sched, tr, k, rho, cost)
            ref = oracles.loop_evaluate(sched, tr, k, rho, cost)
            assert mine.comm == ref.comm
            assert mine.latency == ref.latency
            assert mine.total == ref.total
            assert mine.infeasible_events == ref.infeasible_events
            feasible += mine.feasible
    # both branches are exercised
    assert 0 < feasible < 300 * len(COST_VARIANTS)


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
