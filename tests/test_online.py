"""Tests for the trigger engine, threshold formulas, and the three modes."""

from __future__ import annotations

import gc
import math
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggsim.graph import (
    CommGraph,
    Role,
    compute_x,
    gen_udg,
    greedy_cds,
    greedy_mis,
)
from aggsim import online
from aggsim.harness import _alpha_for, _seed_pair, build_graph
from aggsim.model import (
    CommCost,
    EventTrace,
    LogCost,
    Report,
    UnityCost,
    ValidationError,
    evaluate,
)
from aggsim.offline import offline_lb
from aggsim.workload import (
    BigEvents,
    ConstantArrivals,
    PoissonArrivals,
    SmallEvents,
    WorkloadSpec,
    gen_trace,
)
from aggsim.online import (
    _SWEEP_MIN,
    ThresholdPolicy,
    _Engine,
    balance_root,
    default_theta,
    ratio_full,
    ratio_none,
    ratio_partial,
    run_itc,
    run_net,
    run_thb,
    threshold_full,
    threshold_none,
    threshold_partial,
)
import oracles


# ------------------------------------------------------ threshold formulas


def test_threshold_none_values():
    assert threshold_none(1, 1, 1.0, 0.5) == 1.0
    assert ratio_none(1, 1, 1.0) == 2.0
    assert threshold_none(100, 1, 1.0, 0.5) == pytest.approx(0.01)
    assert threshold_none(10, 1, 2.0, 0.5) == pytest.approx(0.05)
    assert ratio_none(10, 1, 2.0) == pytest.approx(21.0)
    assert threshold_none(100, 2, 1.0, 0.5) == pytest.approx(0.02)
    assert ratio_none(100, 2, 1.0) == pytest.approx(51.0)


def test_threshold_full_values():
    assert balance_root(1, 1, 1.0) == pytest.approx(1.0)
    assert threshold_full(1, 1, 1.0, 0.5) == pytest.approx(1.0)
    assert ratio_full(1, 1, 1.0) == pytest.approx(2.0)
    assert balance_root(100, 1, 1.0) == pytest.approx(10.0)
    assert ratio_full(100, 1, 1.0) == pytest.approx(11.0)


def test_threshold_partial_endpoints():
    # x alone picks a setting: x=1 gives the full forms bit for bit, also
    # at the int x the sweep passes, and x=N gives the none forms up to
    # rounding in balance_root (at most 3 ulps measured on N <= 1000)
    for n in [*range(1, 121), 250, 500, 999, 1000]:
        for k in range(1, min(8, n) + 1):
            for alpha in (1.0, 1.5, 2.0, 3.7, 10.0, 20.0):
                assert ratio_partial(n, k, alpha, 1) == ratio_full(n, k, alpha)
                cr = ratio_none(n, k, alpha)
                gap = abs(ratio_partial(n, k, alpha, n) - cr)
                assert gap <= 4 * math.ulp(cr)
                for rho in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
                    full = threshold_full(n, k, alpha, rho)
                    assert threshold_partial(n, k, alpha, 1, rho) == full
                    assert threshold_partial(n, k, alpha, 1.0, rho) == full
                    none = threshold_none(n, k, alpha, rho)
                    gap = abs(threshold_partial(n, k, alpha, n, rho) - none)
                    assert gap <= 4 * math.ulp(none)


def test_balance_root_x10_value():
    # phi solves phi+1 = (alpha/K)(N/phi + x); for N=100, K=1, alpha=1,
    # x=10 that is phi^2 - 9 phi - 100 = 0
    phi = balance_root(100, 1, 1.0, 10.0)
    assert phi == pytest.approx((9.0 + math.sqrt(481.0)) / 2.0, abs=1e-12)


@settings(max_examples=150)
@given(
    n=st.integers(min_value=1, max_value=500),
    k=st.integers(min_value=1, max_value=500),
    alpha=st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
    xr=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_balance_root_defining_equation(n, k, alpha, xr):
    k = min(k, n)
    x = 1.0 + xr * (n - 1)
    phi = balance_root(n, k, alpha, x)
    assert phi > 0
    lhs = phi + 1.0
    rhs = (alpha / k) * (n / phi + x)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_threshold_validation():
    with pytest.raises(ValidationError):
        threshold_none(0, 1, 1.0, 0.5)
    with pytest.raises(ValidationError):
        threshold_none(5, 6, 1.0, 0.5)
    with pytest.raises(ValidationError):
        threshold_none(5, 1, 0.5, 0.5)
    with pytest.raises(ValidationError):
        threshold_none(5, 1, 1.0, 1.0)
    with pytest.raises(ValidationError):
        balance_root(5, 1, 1.0, 6.0)
    with pytest.raises(ValidationError):
        balance_root(5, 1, 1.0, 0.5)


def test_policy_validation():
    with pytest.raises(ValidationError):
        ThresholdPolicy(0.0)
    with pytest.raises(ValidationError):
        ThresholdPolicy(-1.0)
    with pytest.raises(ValidationError):
        ThresholdPolicy(math.inf)
    with pytest.raises(ValidationError):
        ThresholdPolicy((0.5, 0.25))  # one theta serves every system
    assert ThresholdPolicy(1).theta == 1.0


# ------------------------------------------------------ crossing instants


def test_crossing_closed_form_matches_bisection():
    # one system, every event pending until after the last arrival: its
    # single report fires at the engine's closed-form crossing
    rng = np.random.default_rng(13)
    for _ in range(100):
        count = int(rng.integers(1, 6))
        times = np.sort(rng.uniform(0.0, 5.0, size=count))
        w = rng.uniform(0.05, 3.0, size=count)
        tr = EventTrace(times, w[:, None])
        t_last = float(times[-1])
        target = oracles.accumulate_lat(tr, 0, t_last, list(range(count)))
        target += float(rng.uniform(0.01, 5.0))
        s = run_thb(tr, ThresholdPolicy(target), 1, UnityCost())
        assert len(s.per_system[0]) == 1
        pend = list(zip(w.tolist(), times.tolist()))
        ref = oracles.crossing_time_bisect(pend, target, t_last)
        assert s.per_system[0][0].time == pytest.approx(ref, abs=1e-8)


# ------------------------------------------------------- basic engine runs


def test_single_event_unit_threshold():
    tr = EventTrace([0.0], [[1.0]])
    s = run_thb(tr, ThresholdPolicy(1.0), 1, UnityCost())
    assert s.per_system[0] == (Report(1.0, (0,)),)


def test_tiny_threshold_reports_immediately():
    rng = np.random.default_rng(3)
    times = np.cumsum(rng.uniform(0.5, 1.5, size=8))
    tr = EventTrace(times, rng.uniform(0.2, 1.0, size=(8, 2)))
    s = run_thb(tr, ThresholdPolicy(1e-12), 1, UnityCost())
    for i in range(2):
        assert len(s.per_system[i]) == 8
        for rep, t in zip(s.per_system[i], times):
            assert rep.time == pytest.approx(float(t), abs=1e-9)


def test_unobserving_system_stays_silent():
    tr = EventTrace([0.0, 1.0], [[1.0, 0.0], [2.0, 0.0]])
    s = run_thb(tr, ThresholdPolicy(0.7), 1, UnityCost())
    assert s.per_system[1] == ()


def test_engine_validation():
    tr = EventTrace([0.0], [[1.0, 1.0]])
    pol = ThresholdPolicy(1.0)
    with pytest.raises(ValidationError):
        run_thb(tr, pol, 3, UnityCost())
    with pytest.raises(ValidationError):
        run_net(tr, pol, 1, UnityCost(), CommGraph.from_edges(3, []))
    with pytest.raises(ValidationError):
        run_thb(tr, ThresholdPolicy((1.0, 1.0)), 1, UnityCost())


def feasible_instance(rng, n_max=5, m_max=9, k=None):
    m = int(rng.integers(1, m_max))
    n = int(rng.integers(max(2, (k or 1)), n_max + 1))
    k = k or int(rng.integers(1, n + 1))
    times = np.cumsum(rng.uniform(0.05, 1.5, size=m))
    w = rng.uniform(0.0, 1.0, size=(m, n))
    w[rng.uniform(size=(m, n)) < 0.35] = 0.0
    for r in range(m):
        if (w[r] > 0).sum() < k:
            idx = rng.choice(n, size=k, replace=False)
            w[r][idx] = rng.uniform(0.1, 1.0, size=k)
    return EventTrace(times, w), k


def test_thb_matches_independent_march():
    rng = np.random.default_rng(19)
    for _ in range(80):
        tr, _ = feasible_instance(rng)
        theta = float(rng.uniform(0.05, 2.0))
        cost = [UnityCost(), LogCost()][int(rng.integers(2))]
        mine = run_thb(tr, ThresholdPolicy(theta), 1, cost)
        ref = oracles.independent_thb(tr, theta, cost)
        for i in range(tr.n_systems):
            got = [(r.time, r.event_ids) for r in mine.per_system[i]]
            assert len(got) == len(ref[i])
            for (t_a, ids_a), (t_b, ids_b) in zip(got, ref[i]):
                assert ids_a == ids_b
                assert t_a == pytest.approx(t_b, abs=1e-6)


def test_trigger_ratio_below_theta_until_crossing():
    rng = np.random.default_rng(71)
    theta = 0.8
    cost = LogCost()
    for _ in range(20):
        tr, _ = feasible_instance(rng, m_max=7)
        s = run_thb(tr, ThresholdPolicy(theta), 1, cost)
        for i in range(tr.n_systems):
            prev = -math.inf
            mine = [j for j in tr.event_ids if oracles.weight(tr, i, j) > 0]
            for rep in s.per_system[i]:
                pend = [
                    j for j in mine if prev < oracles.time_of(tr, j) <= rep.time
                ]
                assert tuple(pend) == rep.event_ids
                com = oracles.accumulate_com(tr, i, pend, cost)
                lat_fire = oracles.accumulate_lat(tr, i, rep.time, pend)
                # exact crossing at the report instant
                assert lat_fire / com == pytest.approx(theta, rel=1e-9)
                # strictly below shortly before it
                t_probe = rep.time - 1e-6
                probe_pend = [
                    j for j in mine if prev < oracles.time_of(tr, j) <= t_probe
                ]
                if probe_pend:
                    lat_probe = oracles.accumulate_lat(tr, i, t_probe, probe_pend)
                    com_probe = oracles.accumulate_com(tr, i, probe_pend, cost)
                    assert lat_probe / com_probe < theta
                prev = rep.time


def test_report_times_strictly_increase():
    rng = np.random.default_rng(83)
    for _ in range(30):
        tr, k = feasible_instance(rng)
        for sched in (
            run_thb(tr, ThresholdPolicy(0.4), k, UnityCost()),
            run_itc(tr, ThresholdPolicy(0.4), k, UnityCost()),
        ):
            sched.validate(tr)  # includes strict per-system time increase


def test_scale_property_unity_cost():
    rng = np.random.default_rng(59)
    tr, _ = feasible_instance(rng, m_max=8)
    theta = 0.37
    base = run_thb(tr, ThresholdPolicy(theta), 1, UnityCost())
    # power-of-two scaling is exact in floating point
    tr4 = EventTrace(tr.times, tr.weights * 4.0, tr.event_ids)
    s4 = run_thb(tr4, ThresholdPolicy(theta * 4.0), 1, UnityCost())
    assert s4 == base
    tr3 = EventTrace(tr.times, tr.weights * 3.0, tr.event_ids)
    s3 = run_thb(tr3, ThresholdPolicy(theta * 3.0), 1, UnityCost())
    for a, b in zip(base.per_system, s3.per_system):
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.event_ids == rb.event_ids
            assert ra.time == pytest.approx(rb.time, rel=1e-12)


# ------------------------------------------------- intercommunication modes


def test_itc_single_report_when_all_observe_the_same():
    tr = EventTrace([0.0], np.ones((1, 4)))
    s = run_itc(tr, ThresholdPolicy(1.0), 1, UnityCost())
    assert [len(r) for r in s.per_system] == [1, 0, 0, 0]
    assert s.per_system[0][0].time == 1.0


def test_itc_single_event_law():
    # the heaviest observer crosses first, at t_e + theta / max w; its
    # report removes the event everywhere, and the oracle reports at t_e
    t_e, theta, rho = 3.0, 0.7, 0.4
    w = [0.3, 0.9, 0.5, 0.2]
    tr = EventTrace([t_e], [w])
    s = run_itc(tr, ThresholdPolicy(theta), 1, UnityCost())
    assert [len(r) for r in s.per_system] == [0, 1, 0, 0]
    top = max(w)
    rep = s.per_system[1][0]
    assert rep.event_ids == (0,)
    assert rep.time == pytest.approx(t_e + theta / top, abs=1e-12)
    total = evaluate(s, tr, 1, rho, UnityCost()).total
    opt = offline_lb(tr, 1, rho, UnityCost()).value
    law = 1.0 + (1.0 - rho) * theta * sum(w) / (rho * top)
    assert total / opt == pytest.approx(law, abs=1e-12)


def test_itc_equals_thb_for_single_system_and_k_equals_n():
    rng = np.random.default_rng(101)
    for _ in range(40):
        tr, _ = feasible_instance(rng)
        pol = ThresholdPolicy(float(rng.uniform(0.1, 1.5)))
        n = tr.n_systems
        assert run_itc(tr, pol, n, UnityCost()) == run_thb(
            tr, pol, n, UnityCost())
    one = EventTrace([0.0, 0.9], [[1.0], [0.4]])
    pol = ThresholdPolicy(0.8)
    assert run_itc(one, pol, 1, LogCost()) == run_thb(
        one, pol, 1, LogCost())


def test_net_equals_itc_on_complete_graph():
    rng = np.random.default_rng(103)
    for _ in range(40):
        tr, k = feasible_instance(rng)
        pol = ThresholdPolicy(float(rng.uniform(0.1, 1.5)))
        cost = [UnityCost(), LogCost()][int(rng.integers(2))]
        itc = run_itc(tr, pol, k, cost)
        net = run_net(
            tr, pol, k, cost, CommGraph.complete(tr.n_systems)
        )
        assert itc == net


def test_net_equals_thb_on_empty_graph():
    # the thb scan against the engine with nobody to hear a report,
    # also at large absolute times
    rng = np.random.default_rng(107)
    for _ in range(40):
        tr, k = feasible_instance(rng)
        pol = ThresholdPolicy(float(rng.uniform(0.1, 1.5)))
        shifted = EventTrace(tr.times + 1e6, tr.weights, tr.event_ids)
        for trace in (tr, shifted):
            for cost in (LogCost(), UnityCost()):
                thb = run_thb(trace, pol, k, cost)
                net = run_net(
                    trace, pol, k, cost, CommGraph.from_edges(tr.n_systems, [])
                )
                assert thb == net


def test_thb_crossing_tied_with_next_arrival_waits_for_it():
    # system 0 crosses at exactly t=1, the instant event 1 arrives: the
    # arrival comes first, so one report at t=1 carries both events
    tr = EventTrace([0.0, 1.0, 5.0], [[1.0, 0.5], [1.0, 0.0], [0.0, 1.0]])
    pol = ThresholdPolicy(1.0)
    s = run_thb(tr, pol, 1, UnityCost())
    assert s.per_system == (
        (Report(1.0, (0, 1)),),
        (Report(2.0, (0,)), Report(6.0, (2,))),
    )
    assert s == run_net(tr, pol, 1, UnityCost(), CommGraph.from_edges(2, []))
    # the same tie on one system, which reports the third event alone one
    # unit of latency after it arrives
    one = EventTrace([0.0, 1.0, 2.5], [[1.0], [1.0], [1.0]])
    s = run_thb(one, pol, 1, UnityCost())
    assert s.per_system == ((Report(1.0, (0, 1)), Report(3.5, (2,))),)


@st.composite
def thb_instances(draw, thetas=(0.1, 0.5, 1.0, 2.5)):
    """Small traces with integer or real gaps, sparse and subnormal
    weights and permuted event ids, with a threshold from `thetas`."""
    def exactly(size, values):
        return st.lists(values, min_size=size, max_size=size)

    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 40))
    gap = st.one_of(
        st.integers(1, 3).map(float), st.floats(0.01, 3.0, allow_nan=False)
    )
    grid = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 1e-310])
    return (
        EventTrace(
            np.cumsum(draw(exactly(m, gap))),
            np.array(draw(exactly(m, exactly(n, grid)))),
            draw(st.permutations(range(100, 100 + m))),
        ),
        ThresholdPolicy(draw(st.sampled_from(thetas))),
        draw(st.sampled_from([UnityCost(), LogCost()])),
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(thb_instances())
def test_thb_system_equals_engine_on_its_column(inst):
    # systems without intercommunication are independent: each one's
    # reports are the engine's on its own column, bit for bit
    tr, pol, cost = inst
    got = run_thb(tr, pol, 1, cost).per_system
    for i in range(tr.n_systems):
        column = EventTrace(tr.times, tr.weights[:, [i]], tr.event_ids)
        assert got[i] == run_itc(column, pol, 1, cost).per_system[0]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    thb_instances(thetas=(0.01, 0.1, 0.5, 2.5, 10.0, 100.0, 1000.0)),
    st.sampled_from([1, 2, 5, 16, 64, online._THB_BLOCK_OBS]),
    st.integers(0, 4),
    st.sampled_from([1, 3, 10**9]),
    st.booleans(),
)
def test_thb_rounds_equal_the_scalar_scan(inst, budget, rounds, long, shift):
    # large thresholds make reports of many observations, which outlast
    # the rounds and take the scalar steps; small budgets split the trace
    # into many blocks, and the long-report rule switches blocks between
    # rounds and the scalar steps (all of them with no rounds at all);
    # times shifted by 1e9 round differently
    tr, pol, cost = inst
    if shift:
        tr = EventTrace(tr.times + 1e9, tr.weights, tr.event_ids)
    with (
        mock.patch.object(online, "_THB_BLOCK_OBS", budget),
        mock.patch.object(online, "_THB_ROUNDS", rounds),
        mock.patch.object(online, "_THB_LONG", long),
    ):
        got = run_thb(tr, pol, 1, cost)
    assert got == oracles.scan_thb(tr, pol, 1, cost)


@pytest.mark.parametrize(
    "scenario, n, k",
    [("SPU", 25, 1), ("SPU", 25, 3), ("SPU", 100, 1), ("SPU", 100, 3),
     ("SPL", 100, 3)],
)
def test_thb_rounds_equal_the_scalar_scan_at_the_indep_shapes(scenario, n, k):
    # the indep benchmark's sweep points (m=2000, the sweep's theta), and
    # SPL's log cost, over many blocks of the default budget, at the
    # default theta and at 10x, 100x and 1000x it
    cost = LogCost() if scenario == "SPL" else UnityCost()
    tr = gen_trace(
        WorkloadSpec(PoissonArrivals(), SmallEvents(), 2000, n, 0), ensure_k=k
    )
    theta = threshold_none(n, k, _alpha_for(scenario, n, 2000), 0.5)
    for scale in (1, 10, 100, 1000):
        pol = ThresholdPolicy(scale * theta)
        assert run_thb(tr, pol, k, cost) == oracles.scan_thb(tr, pol, k, cost)


def _thb_block_trace():
    """Four systems over 12 rows, with reports of one to many observations.

    System 0 observes every row, more than the smallest budgets hold, and
    system 1 none. System 2's last observation, weight 1e-310, comes after
    its other reports have fired at thresholds up to 3, so its crossing
    overflows to inf and that trailing report never fires. System 3
    observes every other row.
    """
    w = np.zeros((12, 4))
    w[:, 0] = [2.0, 0.1, 0.1, 3.0, 0.05, 0.05, 0.05, 1.0, 4.0, 0.2, 0.1, 0.5]
    w[[0, 3, 4, 11], 2] = [1.0, 2.0, 0.5, 1e-310]
    w[::2, 3] = [0.25, 0.5, 1.0, 2.0, 0.125, 8.0]
    return EventTrace(np.cumsum(np.arange(1.0, 13.0)) / 4.0, w)


def test_thb_block_budget_and_round_cap_do_not_change_the_schedule(
    monkeypatch,
):
    # every budget from one observation to past the whole trace, every
    # round cap from none to past the longest report, and blocks with and
    # without rounds
    tr = _thb_block_trace()
    n_obs = int(np.count_nonzero(tr.weights))
    for cost in (UnityCost(), LogCost()):
        for theta in (0.05, 0.5, 3.0, 40.0):
            pol = ThresholdPolicy(theta)
            want = oracles.scan_thb(tr, pol, 1, cost)
            assert not want.per_system[1]
            if theta < 40.0:
                # system 2's trailing report, row 11 alone, never fires
                assert 11 not in [
                    e for r in want.per_system[2] for e in r.event_ids
                ]
            for budget in range(1, n_obs + 2):
                for rounds in range(14):
                    for long in (1, 10**9):
                        monkeypatch.setattr(online, "_THB_BLOCK_OBS", budget)
                        monkeypatch.setattr(online, "_THB_ROUNDS", rounds)
                        monkeypatch.setattr(online, "_THB_LONG", long)
                        got = run_thb(tr, pol, 1, cost)
                        assert got == want, (cost, theta, budget, rounds, long)


def test_thb_overflowing_crossing_fires_no_report_and_warns_nothing():
    # ROADMAP item 2's subnormal trace: the crossing of a lone 1e-310
    # observation at t=1 overflows to inf, so the report never fires, in
    # the numpy rounds as in the scalar steps and the engine
    tr = EventTrace([1.0], [[1e-310]])
    for cost in (UnityCost(), LogCost()):
        for rounds in (1, 0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with mock.patch.object(online, "_THB_ROUNDS", rounds):
                    s = run_thb(tr, ThresholdPolicy(1.0), 1, cost)
            assert s.total_reports() == 0 and s.orig_id.size == 0
            assert s == run_net(
                tr, ThresholdPolicy(1.0), 1, cost, CommGraph.from_edges(1, [])
            )


# traced allocation peaks allowed on the report path, as multiples of the
# schedule's column bytes (about 4.2 for run_thb and 2.3 for evaluate when
# they built whole-schedule temporaries)
THB_PEAK_PER_COLUMN_BYTE = 1.5
EVALUATE_PEAK_PER_COLUMN_BYTE = 1.5


def _traced_peak(fn, *args):
    """fn(*args), and the traced allocation peak of the call above what
    was traced when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _column_bytes(sched):
    return sum(getattr(sched, name).nbytes for name in sched.__slots__[1:])


def _check_report_path_peaks(cost, alpha):
    """run_thb and evaluate at the indep sweep's largest point (N=100,
    m=2000, K=3) with the given cost and alpha: over 100k reports, and
    traced allocation peaks within their bounds."""
    n, k = 100, 3
    tr = gen_trace(
        WorkloadSpec(PoissonArrivals(), SmallEvents(), 2000, n, 0), ensure_k=k
    )
    pol = ThresholdPolicy(threshold_none(n, k, alpha, 0.5))
    sched, thb_peak = _traced_peak(run_thb, tr, pol, k, cost)
    out, evaluate_peak = _traced_peak(evaluate, sched, tr, k, 0.5, cost)
    assert math.isfinite(out.total) and sched.total_reports() > 100_000
    column_bytes = _column_bytes(sched)
    assert thb_peak <= THB_PEAK_PER_COLUMN_BYTE * column_bytes
    assert evaluate_peak <= EVALUATE_PEAK_PER_COLUMN_BYTE * column_bytes


def test_report_path_allocates_in_proportion_to_its_output():
    # unity cost: about 140k reports
    _check_report_path_peaks(UnityCost(), 1.0)


def test_log_cost_report_path_allocates_in_proportion_to_its_output():
    # log cost with the sweep's alpha: about 180k reports, whose costs are
    # scored in bounded chunks (evaluate's peak was about 3.0 column bytes
    # when all were scored at once)
    _check_report_path_peaks(LogCost(), _alpha_for("SPL", 100, 2000))


def test_evaluate_on_sparse_traces_allocates_within_its_hit_matrix():
    # with 2-5% of cells observed, evaluate's (N, m) hit matrix, the size of
    # the trace's weights, outweighs the schedule's columns; beyond it the
    # peak stays within the dense bound on column bytes
    n, m = 100, 2000
    rng = np.random.default_rng(11)
    for density in (0.02, 0.05):
        for k in (1, 2):
            observed = rng.uniform(size=(m, n)) < density
            # k distinct observers at least on every row
            some = np.argsort(rng.uniform(size=(m, n)), axis=1)[:, :k]
            observed[np.arange(m)[:, None], some] = True
            weights = np.where(observed, rng.uniform(0.1, 1.0, (m, n)), 0.0)
            tr = EventTrace(np.cumsum(rng.uniform(0.05, 1.5, m)), weights)
            pol = ThresholdPolicy(threshold_none(n, k, 1.0, 0.5))
            sched = run_thb(tr, pol, k, UnityCost())
            out, peak = _traced_peak(
                evaluate, sched, tr, k, 0.5, UnityCost()
            )
            assert math.isfinite(out.total)
            column_bytes = _column_bytes(sched)
            assert column_bytes < tr.weights.nbytes
            assert peak <= (
                tr.weights.nbytes
                + EVALUATE_PEAK_PER_COLUMN_BYTE * column_bytes
            )


def test_same_instant_cascade_after_removal():
    # sys0 fires first; dropping the shared heavy event raises sys1's
    # pending ratio (log cost shrinks the denominator more than the
    # latency numerator), so sys1 fires at the very same instant
    tr = EventTrace([0.0, 2.5], [[0.0, 0.12], [20.0, 5.0]])
    pol = ThresholdPolicy(0.4)
    cost = LogCost()
    s = run_itc(tr, pol, 1, cost)
    t0 = oracles.crossing_time_bisect(
        [(20.0, 2.5)], 0.4 * cost.of_total(20.0), 2.5
    )
    # sys1's first event alone crosses after the second arrives but before
    # t0; with both events pending sys1 crosses after t0
    alone = oracles.crossing_time_bisect(
        [(0.12, 0.0)], 0.4 * cost.of_total(0.12), 0.0
    )
    assert 2.5 < alone < t0
    assert oracles.crossing_time_bisect(
        [(0.12, 0.0), (5.0, 2.5)], 0.4 * cost.of_total(5.12), 2.5
    ) > t0
    assert len(s.per_system[0]) == 1 and len(s.per_system[1]) == 1
    assert s.per_system[0][0].time == pytest.approx(t0, abs=1e-9)
    assert s.per_system[0][0].event_ids == (1,)
    assert s.per_system[1][0].time == s.per_system[0][0].time
    assert s.per_system[1][0].event_ids == (0,)
    # without intercommunication sys1 fires later, with both events
    thb = run_thb(tr, pol, 1, cost)
    assert thb.per_system[1][0].time > s.per_system[1][0].time
    assert thb.per_system[1][0].event_ids == (0, 1)


def test_forward_role_relays_and_suppresses():
    # middle node forwards sys0's report to sys2, whose weak pending
    # observation is dropped before its own much later crossing
    tr = EventTrace([0.0, 2.0], [[1.0, 1.0, 0.1], [0.0, 1.0, 0.0]])
    g = CommGraph.from_edges(3, [(0, 1), (1, 2)]).with_roles(
        [Role.WITHHOLD, Role.FORWARD, Role.WITHHOLD]
    )
    s = run_net(tr, ThresholdPolicy(1.0), 1, UnityCost(), g)
    assert s.per_system[0][0].event_ids == (0,)
    assert s.per_system[1][0].forwarded_ids == (0,)
    assert s.per_system[2] == ()
    evaluate(s, tr, 1, 0.5, UnityCost())  # raises if never delivered
    # withholding roles do not relay: sys2 must then report on its own
    gw = g.with_roles([Role.WITHHOLD] * 3)
    sw = run_net(tr, ThresholdPolicy(1.0), 1, UnityCost(), gw)
    assert len(sw.per_system[2]) == 1


def test_three_node_path_single_event_coverage():
    # non-adjacent ends cannot hear each other: two originating reports,
    # and every event is delivered observer-side
    tr = EventTrace([0.0], np.ones((1, 3)))
    g = CommGraph.from_edges(3, [(0, 1), (1, 2)]).with_roles(
        [Role.WITHHOLD, Role.FORWARD, Role.WITHHOLD]
    )
    s = run_net(tr, ThresholdPolicy(1.0), 1, UnityCost(), g)
    assert s.total_reports() == 2
    evaluate(s, tr, 1, 0.5, UnityCost())  # raises if never delivered


def test_forward_node_reforwards_only_grown_rows():
    # star around forward node 1, K=2. Node 0 reports events 0 and 1 at
    # t=0.55; node 1 forwards both with its own event 2 at t=1. Node 2 then
    # reports event 0 at t=2, so only event 0's origin set at node 1 grows.
    # Node 1's second report (event 3, t=3.3) re-forwards event 0 only: not
    # event 1, and not the event 2 it originated, whose whole mask its first
    # report sent. The two origins it carries for event 0 drop node 3's
    # pending copy of it before node 3's own crossing.
    # With unity cost, sum w*(t - t_e) = theta_i crosses where weights
    # w/theta_i do at theta = 1, so at theta = 1 node i runs as with its
    # column times theta_i and its own theta_i = (1.0, 0.8, 2.0, 10.0).
    tr = EventTrace(
        [0.0, 0.1, 0.2, 2.5],
        [
            [1.0, 0.0, 0.5, 0.1],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.25, 0.0, 0.0],
            [0.0, 1.25, 0.0, 0.0],
        ],
    )
    g = CommGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)]).with_roles(
        [Role.WITHHOLD, Role.FORWARD, Role.WITHHOLD, Role.WITHHOLD]
    )
    pol = ThresholdPolicy(1.0)
    s = run_net(tr, pol, 2, UnityCost(), g)
    assert s.per_system[0] == (Report(0.55, (0, 1)),)
    assert s.per_system[2] == (Report(2.0, (0,)),)
    first, second = s.per_system[1]
    assert (first.time, second.time) == (1.0, pytest.approx(3.3))
    assert (first.event_ids, first.forwarded_ids) == ((2,), (0, 1))
    assert (second.event_ids, second.forwarded_ids) == ((3,), (0,))
    assert s.per_system[3] == ()
    assert s == oracles.reference_net(tr, pol, 2, UnityCost(), g)
    # the full-scan reference also re-forwards the originated event 2
    full = oracles.full_scan_net(tr, pol, 2, UnityCost(), g)
    assert full.per_system[1][1].forwarded_ids == (0, 2)
    for name in ("system", "time", "orig_report", "orig_id"):
        assert np.array_equal(getattr(s, name), getattr(full, name)), name


def test_forwarded_rows_are_removed_in_first_seen_order():
    # forward node 1 hears event 2 (from node 0, t=0.4) before event 1
    # (from node 3, t=0.6) and forwards both at t=1. Node 2 drops them in
    # that order, and the order of the subtractions fixes the last bit of
    # its crossing time for the event 3 it still holds. As in the test
    # above, the columns carry theta_i = (0.2, 1.0, 4.0, 0.5).
    tr = EventTrace(
        [0.0, 0.1, 0.2, 0.3],
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.025, 2.0],
            [5.0, 0.0, 0.05, 0.0],
            [0.0, 0.0, 0.025, 0.0],
        ],
    )
    g = CommGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)]).with_roles(
        [Role.WITHHOLD, Role.FORWARD, Role.WITHHOLD, Role.WITHHOLD]
    )
    pol = ThresholdPolicy(1.0)
    s = run_net(tr, pol, 1, UnityCost(), g)
    assert s.per_system[1] == (Report(1.0, (0,), (1, 2)),)
    acc_w = 0.025 + 0.05 + 0.025
    acc_wt = 0.025 * 0.1 + 0.05 * 0.2 + 0.025 * 0.3
    heard = (1.0 + ((acc_wt - 0.05 * 0.2) - 0.025 * 0.1)) / (
        (acc_w - 0.05) - 0.025
    )
    by_row = (1.0 + ((acc_wt - 0.025 * 0.1) - 0.05 * 0.2)) / (
        (acc_w - 0.025) - 0.05
    )
    assert heard != by_row
    assert s.per_system[2] == (Report(heard, (3,)),)
    assert s == oracles.full_scan_net(tr, pol, 1, UnityCost(), g)


@st.composite
def net_instances(draw):
    """Small traces with zero weights and tied crossings, on a random
    connected graph with random roles."""
    def exactly(size, values):
        return st.lists(values, min_size=size, max_size=size)

    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 40))
    grid = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 0.1, 0.3, 0.7])
    gaps = draw(exactly(m, st.sampled_from([0.5, 1.0, 2.0, 0.1, 0.3])))
    w = draw(exactly(m, exactly(n, grid)))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {e for e in draw(st.lists(pair, max_size=n)) if e[0] < e[1]}
    roles = draw(exactly(n, st.sampled_from(Role)))
    # Column i divided by theta_i crosses at theta = 1 exactly where the
    # column would at its own theta_i under unity cost (powers of two
    # scale without rounding), which varies the order of crossings.
    thetas = draw(exactly(n, st.sampled_from([0.25, 0.5, 1.0, 2.0])))
    return (
        EventTrace(np.cumsum(gaps), np.array(w) / thetas),
        CommGraph.from_edges(n, edges).with_roles(roles),
        ThresholdPolicy(1.0),
        draw(st.integers(1, n)),
        draw(st.sampled_from([UnityCost(), LogCost()])),
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(net_instances())
def test_net_matches_full_scan_reference(inst):
    # the full-scan reference also re-forwards rows already sent with K
    # origins: the reports and the rows they originate match bit for bit,
    # and every row run_net forwards, the reference forwards in that report
    tr, g, pol, k, cost = inst
    got = run_net(tr, pol, k, cost, g)
    want = oracles.full_scan_net(tr, pol, k, cost, g)
    for name in ("system", "time", "orig_report", "orig_id"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert [r.time.hex() for rs in got.per_system for r in rs] == [
        r.time.hex() for rs in want.per_system for r in rs
    ]
    forwarded = set(zip(got.fwd_report.tolist(), got.fwd_id.tolist()))
    assert forwarded <= set(zip(want.fwd_report.tolist(), want.fwd_id.tolist()))


@st.composite
def engine_instances(draw):
    """Small traces for the trigger engine against its push-per-change
    reference: dyadic gaps, weights and thresholds so that crossings tie
    exactly with arrivals and with each other, zero weights and a random
    connected graph."""
    def exactly(size, values):
        return st.lists(values, min_size=size, max_size=size)

    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 40))
    start = draw(st.sampled_from([0.0, 1e6]))
    gaps = draw(exactly(m, st.sampled_from([0.25, 0.5, 1.0, 2.0])))
    grid = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.0])
    w = np.array(draw(exactly(m, exactly(n, grid))))
    thetas = draw(exactly(n, st.sampled_from([0.25, 0.5, 1.0, 2.0])))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {e for e in draw(st.lists(pair, max_size=n)) if e[0] < e[1]}
    return (
        EventTrace(start + np.cumsum(gaps), w / thetas),
        CommGraph.from_edges(n, edges),
        ThresholdPolicy(draw(st.sampled_from([0.5, 1.0, 1.5]))),
        draw(st.integers(1, n)),
        draw(st.sampled_from([UnityCost(), LogCost()])),
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(engine_instances())
def test_engine_matches_push_per_change_reference(inst):
    tr, g, pol, k, cost = inst
    got = run_itc(tr, pol, k, cost)
    assert got == oracles.reference_itc(tr, pol, k, cost)
    for forward in (greedy_mis(g), greedy_cds(g)):
        roled = g.with_roles(
            [Role.FORWARD if v in forward else Role.WITHHOLD for v in range(g.n)]
        )
        got = run_net(tr, pol, k, cost, roled)
        assert got == oracles.reference_net(tr, pol, k, cost, roled)


def test_identical_columns_fire_lowest_index_first_at_n64():
    # 64 systems see the same events with the same weights, so all their
    # crossings tie exactly: the K lowest-indexed systems report, one
    # after another at each instant, and the rest never do
    rng = np.random.default_rng(211)
    m, n = 12, 64
    col = rng.uniform(0.1, 1.0, size=m)
    tr = EventTrace(
        np.cumsum(rng.uniform(0.1, 2.0, size=m)), np.tile(col[:, None], n)
    )
    pol = ThresholdPolicy(0.5)
    for cost in (UnityCost(), LogCost()):
        for k in (1, 3):
            s = run_itc(tr, pol, k, cost)
            assert set(s.system.tolist()) == set(range(k))
            reports = s.per_system
            for i in range(1, k):
                assert reports[i] == reports[0]
            assert len(reports[0]) > 1
            assert run_net(tr, pol, k, cost, CommGraph.complete(n)) == s


def sparse_trace(rng, n, m, k):
    """m events at N systems, about 90% of weights zero and each row seen
    by at least k systems."""
    w = rng.uniform(0.05, 1.0, size=(m, n))
    w[rng.uniform(size=(m, n)) < 0.9] = 0.0
    for r in range(m):
        if (w[r] > 0).sum() < k:
            w[r][rng.choice(n, size=k, replace=False)] = rng.uniform(
                0.05, 1.0, size=k
            )
    return EventTrace(np.cumsum(rng.exponential(0.05, size=m)), w)


@pytest.mark.parametrize("n", [30, 100])
def test_engine_matches_reference_on_sparse_rows_at_larger_n(n):
    g = gen_udg(n, 8, seed=n)
    roled = [
        g.with_roles(
            [Role.FORWARD if v in forward else Role.WITHHOLD for v in range(n)]
        )
        for forward in (greedy_mis(g), greedy_cds(g))
    ]
    rng = np.random.default_rng(223 + n)
    pol = ThresholdPolicy(0.5)
    for k in (1, 3):
        tr = sparse_trace(rng, n, 300, k)
        for cost in (UnityCost(), LogCost()):
            assert run_itc(tr, pol, k, cost) == oracles.reference_itc(
                tr, pol, k, cost
            )
            for graph in roled:
                assert run_net(tr, pol, k, cost, graph) == (
                    oracles.reference_net(tr, pol, k, cost, graph)
                )


def test_engine_matches_reference_on_dense_rows():
    # the shape of the sweeps' overhearing configs (SPU): every system
    # observes every row, so each report removes rows at many receivers
    n = 40
    g = gen_udg(n, 8, seed=41)
    roled = [
        g.with_roles(
            [Role.FORWARD if v in forward else Role.WITHHOLD for v in range(n)]
        )
        for forward in (greedy_mis(g), greedy_cds(g))
    ]
    pol = ThresholdPolicy(0.5)
    for k in (1, 2, 3):
        tr = gen_trace(WorkloadSpec(PoissonArrivals(), SmallEvents(), 200, n, k))
        assert (tr.weights > 0).all()
        for cost in (UnityCost(), LogCost()):
            assert run_itc(tr, pol, k, cost) == oracles.reference_itc(
                tr, pol, k, cost
            )
            for graph in roled:
                assert run_net(tr, pol, k, cost, graph) == (
                    oracles.reference_net(tr, pol, k, cost, graph)
                )
    # forward nodes send dirty rows in first-seen order, not in the order
    # they turned dirty: a row sent, then grown, turns dirty after rows
    # first heard later. Sending in that order changes fire times here.
    g = gen_udg(n, 6, seed=2)
    cds = greedy_cds(g)
    graph = g.with_roles(
        [Role.FORWARD if v in cds else Role.WITHHOLD for v in range(n)]
    )
    spec = WorkloadSpec(PoissonArrivals(), SmallEvents(), 1000, n, 1)
    tr = gen_trace(spec, ensure_k=2)
    assert run_net(tr, pol, 2, UnityCost(), graph) == (
        oracles.reference_net(tr, pol, 2, UnityCost(), graph)
    )


class _TableProbe(_Engine):
    """`_Engine` that checks the forward tables against its own record.

    It records the order in which each forward node first heard of its
    rows, from its originations and the payloads it receives, taking a
    forward node's payload as its originated rows followed by its
    forwarded rows in its first-heard order, and the mask each forward
    node last sent for each row. After every payload it checks, at the
    sender and at the forward receivers:
      * each table lists its rows in first-heard order;
      * every payload row it keeps with K or more origin bits is dirty
        there, or the node last sent it with K or more origin bits;
      * `added` counts the entries added, and the tables hold fewer than
        max(2 * kept, kept + _SWEEP_MIN) entries, kept at the last sweep.
    After every sweep, every table keeps exactly its live rows, in order.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.forward = [v for v in range(self.n) if self.is_forward[v]]
        self.heard = [dict() for _ in range(self.n)]
        self.last = [dict() for _ in range(self.n)]
        self.heard_total = self.sweeps = self.kept = self.peak = 0
        self.live = None

    def entries(self):
        return sum(len(self.known[v]) for v in self.forward)

    def hear(self, v, rows):
        heard = self.heard[v]
        for row in rows:
            if row not in heard:
                heard[row] = None
                self.heard_total += 1

    def check(self, v, rows):
        known, dirty, last, k = self.known[v], self.dirty[v], self.last[v], self.k
        assert list(known) == list(self.heard[v]), v
        for row in rows:
            if known.get(row, 0).bit_count() >= k:
                assert row in dirty or last.get(row, 0).bit_count() >= k, (v, row)

    def _evict(self):
        super()._evict()
        # the payload being sent is recorded after the sweep, so the
        # record is cut to the live rows only then
        self.live = set().union(*self.pend, *self.dirty)
        self.sweeps += 1

    def _propagate_net(self, i, rows):
        known_i = self.known[i]
        masks = {row: known_i[row] for row in self.dirty[i]}
        masks.update((row, 1 << i | known_i.get(row, 0)) for row in rows)
        fwd = super()._propagate_net(i, rows)
        forwarded = set(fwd)
        payload = rows + [row for row in self.heard[i] if row in forwarded]
        assert len(payload) == len(rows) + len(fwd), i
        for r in self.fwd_nbrs[i]:
            self.hear(r, payload)
        if self.is_forward[i]:
            self.hear(i, rows)
            self.last[i].update((row, masks[row]) for row in payload)
        if self.live is not None:
            for v in self.forward:
                self.heard[v] = {
                    row: None for row in self.heard[v] if row in self.live
                }
                assert list(self.known[v]) == list(self.heard[v]), v
            self.live = None
            self.kept = self.entries()
        senders = [i] if self.is_forward[i] else []
        for v in self.fwd_nbrs[i] + senders:
            self.check(v, payload)
        assert self.added == self.heard_total
        entries = self.entries()
        assert entries < max(2 * self.kept, self.kept + _SWEEP_MIN)
        self.peak = max(self.peak, entries)
        return fwd


@pytest.mark.parametrize("n", [30, 100])
def test_net_tables_keep_observer_masks(n):
    # after a run, withhold nodes hold no mask (they keep masks only for
    # pending rows) and forward nodes hold one nonzero int mask per row,
    # naming only observers of the row; throughout, the probe checks that
    # each forward table is in first-heard order and that its rows with K
    # or more origin bits are dirty or were last sent with K or more
    g = gen_udg(n, 8, seed=n)
    rng = np.random.default_rng(223 + n)
    traces = {k: sparse_trace(rng, n, 300, k) for k in (1, 3)}
    for forward in (greedy_mis(g), greedy_cds(g)):
        roled = g.with_roles(
            [Role.FORWARD if v in forward else Role.WITHHOLD for v in range(n)]
        )
        for k, tr in traces.items():
            observers = [
                sum(1 << s for s in np.flatnonzero(w > 0).tolist())
                for w in tr.weights
            ]
            engine = _TableProbe(tr, ThresholdPolicy(0.5), k, UnityCost(), roled)
            engine.run()
            assert any(engine.known[v] for v in forward)
            sent_clean = 0
            for v, known in enumerate(engine.known):
                if v not in forward:
                    assert known == {}, (k, v)
                    continue
                engine.check(v, list(known))
                for row, mask in known.items():
                    assert type(mask) is int and mask, (k, v, row)
                    assert mask & ~observers[row] == 0, (k, v, row)
                    sent_clean += (
                        mask.bit_count() >= k and row not in engine.dirty[v]
                    )
            assert sent_clean, k


class _RuleProbe(_Engine):
    """`_Engine` that records the rows each forward node has sent with K or
    more origin bits and checks that the node never names them again, nor
    sends any row with the mask it last sent for that row."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.done = [set() for _ in range(self.n)]
        self.last = [dict() for _ in range(self.n)]

    def _propagate_net(self, i, rows):
        known_i = self.known[i]
        masks = {row: known_i[row] for row in self.dirty[i]}
        masks.update((row, 1 << i | known_i.get(row, 0)) for row in rows)
        fwd = super()._propagate_net(i, rows)
        if self.is_forward[i]:
            named = set(rows).union(fwd)
            assert not named & self.done[i], (i, named & self.done[i])
            self.done[i].update(
                row for row in named if masks[row].bit_count() >= self.k
            )
            last = self.last[i]
            for row in named:
                assert last.get(row) != masks[row], (i, row)
                last[row] = masks[row]
        return fwd


def test_forward_nodes_never_resend_rows_sent_with_k_origins():
    rng = np.random.default_rng(233)
    spu = gen_udg(100, 18, seed=7)
    for k in (1, 3):
        cases = [
            (gen_udg(n, 8, seed=n), sparse_trace(rng, n, 300, k)) for n in (30, 100)
        ]
        spec = WorkloadSpec(PoissonArrivals(), SmallEvents(), 1000, 100, 7)
        cases.append((spu, gen_trace(spec, ensure_k=k)))
        for g, tr in cases:
            for forward in (greedy_mis(g), greedy_cds(g)):
                roled = g.with_roles(
                    [Role.FORWARD if v in forward else Role.WITHHOLD
                     for v in range(g.n)]
                )
                engine = _RuleProbe(tr, ThresholdPolicy(0.5), k, UnityCost(),
                                    roled)
                engine.run()
                assert any(engine.done), (k, g.n)


def test_net_forward_tables_stay_bounded_by_live_rows():
    # a sweep keeps only live rows and the tables at most double between
    # sweeps, so their peak follows the live rows, not the trace length:
    # it barely moves from m=1000 to m=4000, where every forward node
    # hears about four times as many rows
    n = 100
    g = gen_udg(n, 8, seed=n)
    for forward in (greedy_mis(g), greedy_cds(g)):
        roled = g.with_roles(
            [Role.FORWARD if v in forward else Role.WITHHOLD for v in range(n)]
        )
        added, peaks = [], []
        for m in (1000, 4000):
            tr = sparse_trace(np.random.default_rng(229), n, m, 1)
            engine = _TableProbe(tr, ThresholdPolicy(0.5), 1, UnityCost(), roled)
            engine.run()
            assert engine.sweeps > 0, m
            added.append(engine.added)
            peaks.append(engine.peak)
        assert added[1] > 3 * added[0], added
        assert peaks[1] < 1.5 * peaks[0], peaks


class _ResetProbe(_Engine):
    """`_Engine` that checks every system after each fire: an empty pending
    set has no crossing and sums of exactly +0.0, any other a crossing at
    or after the fire. It counts the sets fires empty besides the
    sender's."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.emptied = 0

    def _fire(self, i, t):
        held = [r for r, pend_r in enumerate(self.pend) if pend_r and r != i]
        super()._fire(i, t)
        self.emptied += sum(not self.pend[r] for r in held)
        for r, pend_r in enumerate(self.pend):
            if pend_r:
                assert self.cross[r] >= t, (i, t, r)
                continue
            assert self.cross[r] == math.inf, (i, t, r)
            for total in (self.acc_w[r], self.acc_wt[r]):
                assert math.copysign(1.0, total) == 1.0, (i, t, r)
                assert total == 0.0, (i, t, r, total)


@pytest.mark.parametrize("cost", ["unity", "log"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("roles", ["full", "mis", "cds"])
def test_fires_reset_emptied_sets_and_leave_crossings_after_them(roles, k, cost):
    # run_itc with roles "full", else run_net over MIS or CDS forwarders,
    # on a dense and a sparse trace; the probe changes no schedule, and
    # some fire empties a receiver's set
    n = 12
    cost_fn = UnityCost() if cost == "unity" else LogCost()
    spec = WorkloadSpec(PoissonArrivals(), SmallEvents(), 200, n, 3)
    traces = [
        gen_trace(spec, ensure_k=k),
        sparse_trace(np.random.default_rng(241), n, 200, k),
    ]
    graph = None if roles == "full" else build_graph(n, 4.0, 5, roles)
    x = 1.0 if graph is None else compute_x(graph)
    policy = ThresholdPolicy(default_theta(n, k, 1.0, 0.5, x))
    emptied = 0
    for tr in traces:
        engine = _ResetProbe(tr, policy, k, cost_fn, graph)
        if graph is None:
            assert engine.run() == run_itc(tr, policy, k, cost_fn)
        else:
            assert engine.run() == run_net(tr, policy, k, cost_fn, graph)
        emptied += engine.emptied
    assert emptied, (roles, k)


def _cascade_trace():
    """Three systems, with all-zero rows around a same-instant cascade.

    Row 1 reaches all three systems; system 0 crosses first, at
    2.5 + 0.4 ln 22 / 20 (log cost, theta 0.4), before the all-zero row 2.
    With K=1 its report drops row 1 from systems 1 and 2, which shrinks
    system 1's report cost below its latency so that it fires at that very
    instant with row 0.
    """
    return EventTrace(
        [0.0, 2.5, 3.0, 3.5, 4.0, 6.0, 7.0, 7.5],
        [
            [0.0, 0.12, 0.0],
            [20.0, 5.0, 1.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 2.0],
            [0.5, 0.5, 0.5],
            [0.0, 0.0, 0.0],
            [0.25, 2.0, 0.0],
        ],
    )


def _block_graphs(n):
    """A complete graph and a path with every other node forwarding."""
    path = CommGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    return [
        CommGraph.complete(n),
        path.with_roles(
            [Role.FORWARD if v % 2 else Role.WITHHOLD for v in range(n)]
        ),
    ]


def test_cascade_trace_fires_two_systems_at_one_instant_before_row_2():
    s = run_itc(_cascade_trace(), ThresholdPolicy(0.4), 1, LogCost())
    t0 = 2.5 + 0.4 * math.log(22.0) / 20.0
    assert s.per_system[0][0] == Report(s.time[0], (1,))
    assert s.per_system[1][0] == Report(s.time[0], (0,))
    assert s.time[0] == pytest.approx(t0) and s.time[0] < 3.0


def test_block_size_does_not_change_the_schedule(monkeypatch):
    # every block length from one row to the whole trace: some blocks end
    # right before the cascade at row 2, some start or end at all-zero
    # rows; the schedules must not depend on where blocks end
    tr = _cascade_trace()
    n = tr.n_systems
    pol = ThresholdPolicy(0.4)
    graphs = _block_graphs(n)
    for cost in (UnityCost(), LogCost()):
        for k in (1, 2, 3):
            want = [oracles.reference_itc(tr, pol, k, cost)] + [
                oracles.reference_net(tr, pol, k, cost, g) for g in graphs
            ]
            budgets = [1] + [rows * n for rows in range(1, tr.n_events + 1)]
            for budget in budgets:
                monkeypatch.setattr(online, "_BLOCK_OBS", budget)
                got = [run_itc(tr, pol, k, cost)] + [
                    run_net(tr, pol, k, cost, g) for g in graphs
                ]
                assert got == want, (cost, k, budget)


def test_block_size_does_not_change_the_schedule_at_larger_n(monkeypatch):
    # sparse rows at N=30 with runs of all-zero rows, in blocks of one row,
    # of seven rows and of the default budget
    n = 30
    rng = np.random.default_rng(307)
    g = gen_udg(n, 8, seed=3)
    graphs = [
        g.with_roles(
            [Role.FORWARD if v in forward else Role.WITHHOLD for v in range(n)]
        )
        for forward in (greedy_mis(g), greedy_cds(g))
    ]
    pol = ThresholdPolicy(0.5)
    for k in (1, 2, 3):
        tr = sparse_trace(rng, n, 300, k)
        w = tr.weights.copy()
        w[rng.uniform(size=tr.n_events) < 0.2] = 0.0
        tr = EventTrace(tr.times, w)
        for cost in (UnityCost(), LogCost()):
            want = [oracles.reference_itc(tr, pol, k, cost)] + [
                oracles.reference_net(tr, pol, k, cost, g) for g in graphs
            ]
            for budget in (1, 7 * n + 5, online._BLOCK_OBS):
                monkeypatch.setattr(online, "_BLOCK_OBS", budget)
                got = [run_itc(tr, pol, k, cost)] + [
                    run_net(tr, pol, k, cost, g) for g in graphs
                ]
                assert got == want, (cost, k, budget)


class _GenericUnityCost(CommCost):
    """Unity cost seen as any other cost: `of_total` is called and returns
    1.0, where `UnityCost` takes theta * c(W) to be theta."""

    def of_total(self, total_weight: float) -> float:
        return 1.0


def test_unity_numerator_equals_the_generic_path_bit_for_bit():
    n = 20
    g = gen_udg(n, 6, seed=5)
    mis = greedy_mis(g)
    graph = g.with_roles(
        [Role.FORWARD if v in mis else Role.WITHHOLD for v in range(n)]
    )
    for k in (1, 2, 3):
        spec = WorkloadSpec(PoissonArrivals(), SmallEvents(), 300, n, k)
        tr = gen_trace(spec, ensure_k=k)
        for theta in (0.05, 0.3, 1.7):
            pol = ThresholdPolicy(theta)
            for run in (
                lambda cost: run_thb(tr, pol, k, cost),
                lambda cost: run_itc(tr, pol, k, cost),
                lambda cost: run_net(tr, pol, k, cost, graph),
            ):
                assert run(UnityCost()) == run(_GenericUnityCost())


def test_removal_floors_the_next_crossing():
    # With log cost, dropping a delivered event cuts the report cost, so
    # the rest of the pending set can be past its own crossing (here
    # 0.01 * t = ln 2.01 at t = 69.81). System 0 then fires at the removal
    # instant, right after system 1's report at 69.5 + ln 8 / 6 = 69.85.
    tr = EventTrace([0.0, 69.5], [[0.01, 0.0], [1.0, 6.0]])
    s = run_itc(tr, ThresholdPolicy(1.0), 1, LogCost())
    heard = 69.5 + math.log(8.0) / 6.0
    assert s.per_system == ((Report(heard, (0,)),), (Report(heard, (1,)),))
    assert 0.01 * heard > math.log(2.01)
    assert s == oracles.reference_itc(tr, ThresholdPolicy(1.0), 1, LogCost())


def test_arrival_floors_a_crossing_that_rounds_early():
    # with a negligible threshold the crossing is fl(w * t) / w, which
    # rounds below t here; every mode must report at the arrival instant
    t = float.fromhex("0x1.b68d0de49cc21p+5")
    w = float.fromhex("0x1.67e61d3e2970fp+1")
    assert (1e-300 + w * t) / w < t
    tr = EventTrace([t], [[w, 0.0]])
    pol = ThresholdPolicy(1e-300)
    want = ((Report(t, (0,)),), ())
    # run_thb's numpy rounds, then its scalar steps
    for rounds in (online._THB_ROUNDS, 0):
        with mock.patch.object(online, "_THB_ROUNDS", rounds):
            assert run_thb(tr, pol, 1, UnityCost()).per_system == want
    assert run_itc(tr, pol, 1, UnityCost()).per_system == want
    assert run_net(tr, pol, 1, UnityCost(), CommGraph.complete(2)).per_system == want


def test_determinism_repeated_runs():
    rng = np.random.default_rng(113)
    tr, k = feasible_instance(rng, n_max=6, m_max=12)
    pol = ThresholdPolicy(0.31)
    g = CommGraph.from_edges(
        tr.n_systems,
        [(i, i + 1) for i in range(tr.n_systems - 1)],
    )
    for fn in (
        lambda: run_thb(tr, pol, k, LogCost()),
        lambda: run_itc(tr, pol, k, LogCost()),
        lambda: run_net(tr, pol, k, LogCost(), g),
    ):
        assert fn() == fn()


def test_engine_is_freed_without_the_cycle_collector():
    # a finished engine must not outlive its run: graph-mode tables are
    # large, and waiting for the cycle collector raises peak memory
    tr = EventTrace([0.0, 1.0], [[1.0, 1.0], [1.0, 0.5]])
    g = CommGraph.complete(2).with_roles([Role.FORWARD, Role.WITHHOLD])
    gc.disable()
    try:
        for sharing in ({}, {"graph": g}):
            engine = _Engine(tr, ThresholdPolicy(0.5), 1, UnityCost(), **sharing)
            engine.run()
            ref = weakref.ref(engine)
            del engine
            assert ref() is None, sharing
    finally:
        gc.enable()


# --------------------------------------------------- ratio bound invariant


def test_ratio_bounds_against_oracle_k1():
    rng = np.random.default_rng(127)
    rho = 0.5
    k = 1
    for _ in range(25):
        tr, _ = feasible_instance(rng, n_max=5, m_max=15, k=1)
        n = tr.n_systems
        lb = offline_lb(tr, k, rho, UnityCost()).value
        assert lb > 0

        pol = ThresholdPolicy(threshold_none(n, k, 1.0, rho))
        cost = evaluate(
            run_thb(tr, pol, k, UnityCost()),
            tr, k, rho, UnityCost(),
        ).total
        assert cost / lb <= ratio_none(n, k, 1.0) + 1e-6

        pol = ThresholdPolicy(threshold_full(n, k, 1.0, rho))
        cost = evaluate(
            run_itc(tr, pol, k, UnityCost()),
            tr, k, rho, UnityCost(),
        ).total
        assert cost / lb <= ratio_full(n, k, 1.0) + 1e-6

        g = CommGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        x = compute_x(g)
        pol = ThresholdPolicy(threshold_partial(n, k, 1.0, x, rho))
        cost = evaluate(
            run_net(tr, pol, k, UnityCost(), g),
            tr, k, rho, UnityCost(),
        ).total
        assert cost / lb <= ratio_partial(n, k, 1.0, x) + 1e-6


def _net_ratio_and_bound(trace, graph, k, rho=0.5):
    """`run_net`'s ratio at `default_theta`'s theta, unity cost, x from
    `compute_x`, and the `ratio_partial` it is meant to stay under."""
    n, x = graph.n, compute_x(graph)
    pol = ThresholdPolicy(default_theta(n, k, 1.0, rho, x))
    cost = evaluate(
        run_net(trace, pol, k, UnityCost(), graph), trace, k, rho, UnityCost()
    ).total
    lb = offline_lb(trace, k, rho, UnityCost()).value
    return cost / lb, ratio_partial(n, k, 1.0, x)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="run_net exceeds ratio_partial at K >= 2 (ROADMAP item 10)",
)
def test_net_partial_bound_at_k3_on_a_sweep_instance():
    # the BPU sweep unit (seed 0, point 0, rep 1) at N=60, UDG degree 6,
    # MIS roles: x=16 and the ratio reads 12.31 against a bound of 8.14
    trace_seed, graph_seed = _seed_pair(0, 0, 1)
    trace = gen_trace(
        WorkloadSpec(PoissonArrivals(), BigEvents(), 300, 60, trace_seed),
        ensure_k=3,
    )
    graph = build_graph(60, 6.0, graph_seed, "mis")
    ratio, bound = _net_ratio_and_bound(trace, graph, 3)
    assert ratio <= bound


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="run_net exceeds ratio_partial with CDS roles at K=1 (ROADMAP item 6)",
)
def test_net_partial_bound_at_k1_with_cds_roles():
    # node 5 forwards and is adjacent to all, so x=1; the ratio reads
    # 4.035 against a bound of 3.449
    trace = gen_trace(
        WorkloadSpec(ConstantArrivals(), BigEvents(), 60, 6, 1089654687),
        ensure_k=1,
    )
    graph = build_graph(6, 3.0, 2467522302, "cds")
    ratio, bound = _net_ratio_and_bound(trace, graph, 1)
    assert ratio <= bound


@st.composite
def equal_weight_instances(draw):
    """A dense trace whose rows each give every system one weight, with
    K from 2 to N and rho from the sweeps' values."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(2, n))
    m = draw(st.integers(1, 12))
    reals = st.floats(1e-3, 10.0)
    gaps = draw(st.lists(reals, min_size=m, max_size=m))
    row_weights = draw(st.lists(reals, min_size=m, max_size=m))
    rho = draw(st.sampled_from([0.3, 0.5, 0.7]))
    weights = np.repeat(np.array(row_weights)[:, None], n, axis=1)
    return EventTrace(np.cumsum(gaps), weights), k, rho


@settings(max_examples=200, derandomize=True, deadline=None)
@given(equal_weight_instances())
def test_thb_ratio_none_holds_on_dense_equal_weight_rows(inst):
    # ratio_none's K>=2 contract: on rows of equal weights run_thb at the
    # default theta stays within the bound. Dense traces keep offline_lb
    # exact at unity cost; on sparse ones its slack alone can read above
    # the bound (up to x1.106 where the optimum reads 2.04 of 2.25)
    tr, k, rho = inst
    n, cost = tr.n_systems, UnityCost()
    pol = ThresholdPolicy(default_theta(n, k, 1.0, rho, None))
    total = evaluate(run_thb(tr, pol, k, cost), tr, k, rho, cost).total
    lb = offline_lb(tr, k, rho, cost).value
    assert total / lb <= ratio_none(n, k, 1.0) * (1 + 1e-12)


def test_k2_per_trace_ratio_is_unbounded():
    # The K=1 per-trace guarantee does not carry over to K > 1: the K-th
    # covering report can come from a slow low-weight observer, so a
    # heavy observer's penalty keeps running long past its own report.
    # Pinned here so the blow-up is not mistaken for an engine bug.
    k, rho = 2, 0.5
    bound = ratio_none(2, k, 1.0)
    ratios = []
    for eps in (0.1, 0.01, 0.001):
        tr = EventTrace([0.0], [[eps, 1.0]])
        pol = ThresholdPolicy(threshold_none(2, k, 1.0, rho))
        out = evaluate(
            run_thb(tr, pol, k, UnityCost()),
            tr, k, rho, UnityCost(),
        )
        lb = offline_lb(tr, k, rho, UnityCost()).value
        ratios.append(out.total / lb)
    assert all(r > bound for r in ratios)
    assert ratios == sorted(ratios)  # grows as eps shrinks


def test_all_algorithms_feasible_on_feasible_traces():
    rng = np.random.default_rng(131)
    for _ in range(25):
        tr, k = feasible_instance(rng)
        n = tr.n_systems
        pol = ThresholdPolicy(0.5)
        g = CommGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        for sched in (
            run_thb(tr, pol, k, LogCost()),
            run_itc(tr, pol, k, LogCost()),
            run_net(tr, pol, k, LogCost(), g),
        ):
            # raises if some event is never delivered
            evaluate(sched, tr, k, 0.5, LogCost())
