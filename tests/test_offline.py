"""Tests for the segment-partition oracle against exhaustive enumeration."""

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
    UnityCost,
    ValidationError,
    evaluate,
)
from aggsim.offline import offline_lb
import oracles


def test_two_event_single_system_value():
    tr = EventTrace([0.0, 1.0], [[1.0], [1.0]])
    res = offline_lb(tr, 1, 0.5, UnityCost())
    # one report at t=1 and two immediate reports both cost exactly 1
    assert res.value == pytest.approx(1.0, abs=1e-12)
    sched = oracles.k1_schedule(tr, res.choice, UnityCost())
    out = evaluate(sched, tr, 1, 0.5, UnityCost())
    assert out.total == pytest.approx(res.value, abs=1e-12)


def test_single_event_reports_immediately():
    tr = EventTrace([3.0], [[0.5, 2.0]])
    res = offline_lb(tr, 1, 0.5, LogCost())
    assert res.value == pytest.approx(0.5 * math.log(2.5), abs=1e-12)
    assert list(res.choice) == [0, 1]
    sched = oracles.k1_schedule(tr, res.choice, LogCost())
    assert sched.per_system == ((Report(3.0, (0,)),), ())


def test_empty_trace():
    tr = EventTrace([], np.zeros((0, 2)))
    res = offline_lb(tr, 1, 0.5, UnityCost())
    assert res.value == 0.0
    assert list(res.cost_min) == [0.0]


def test_k2_identical_observers_doubles_comm():
    tr = EventTrace([0.0, 0.5, 1.0], np.ones((3, 2)))
    r1 = offline_lb(tr, 1, 0.5, UnityCost())
    r2 = offline_lb(tr, 2, 0.5, UnityCost())
    # unity comm doubles while latency is unchanged; verify against the
    # exhaustive reference rather than assuming the same partition wins
    assert r2.value == pytest.approx(
        oracles.brute_force_offline(tr, 2, 0.5, UnityCost()), abs=1e-12
    )
    assert r2.value <= 2 * r1.value + 1e-12


def test_k2_lower_bounds_feasible_two_report_schedules():
    rng = np.random.default_rng(5)
    tr = EventTrace([0.0, 0.7, 1.1], rng.uniform(0.2, 1.0, size=(3, 2)))
    lb = offline_lb(tr, 2, 0.5, UnityCost()).value
    times = [1.2, 1.5, 2.0]
    best = math.inf
    # every schedule where both systems report everything in one batch
    for ta in times:
        for tb in times:
            sched = ReportSchedule(
                (
                    (Report(ta, tuple(tr.event_ids)),),
                    (Report(tb, tuple(tr.event_ids)),),
                )
            )
            best = min(
                best, evaluate(sched, tr, 2, 0.5, UnityCost()).total
            )
    assert lb <= best + 1e-9


def test_validation_errors():
    tr = EventTrace([0.0], [[1.0, 0.0]])
    with pytest.raises(ValidationError):
        offline_lb(tr, 2, 0.5, UnityCost())  # not 2-feasible
    with pytest.raises(ValidationError):
        offline_lb(tr, 1, 1.0, UnityCost())


@pytest.mark.parametrize("k", [0, 3])
def test_k_outside_one_to_n_is_rejected(k):
    tr = EventTrace([0.0], [[1.0, 1.0]])
    with pytest.raises(ValidationError, match=rf"^K must be in \[1, 2\], got {k}$"):
        offline_lb(tr, k, 0.5, UnityCost())


def random_instance(rng):
    m = int(rng.integers(1, 7))
    n = int(rng.integers(1, 4))
    times = np.cumsum(rng.uniform(0.1, 2.0, size=m))
    weights = rng.uniform(0.0, 1.0, size=(m, n))
    weights[rng.uniform(size=(m, n)) < 0.35] = 0.0
    for r in range(m):
        if not (weights[r] > 0).any():
            weights[r][int(rng.integers(0, n))] = float(rng.uniform(0.1, 1.0))
    return EventTrace(times, weights)


def test_matches_exhaustive_partition_minimum():
    rng = np.random.default_rng(17)
    costs = [UnityCost(), LogCost()]
    for _ in range(120):
        tr = random_instance(rng)
        rho = float(rng.uniform(0.2, 0.8))
        cost = costs[int(rng.integers(2))]
        mine = offline_lb(tr, 1, rho, cost).value
        ref = oracles.brute_force_offline(tr, 1, rho, cost)
        assert mine == pytest.approx(ref, abs=1e-9)


def test_reconstruction_matches_value_on_positive_traces():
    rng = np.random.default_rng(29)
    for _ in range(40):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 4))
        tr = EventTrace(
            np.cumsum(rng.uniform(0.1, 2.0, size=m)),
            rng.uniform(0.05, 1.0, size=(m, n)),
        )
        rho = float(rng.uniform(0.2, 0.8))
        res = offline_lb(tr, 1, rho, LogCost())
        sched = oracles.k1_schedule(tr, res.choice, LogCost())
        out = evaluate(sched, tr, 1, rho, LogCost())
        assert out.feasible
        assert out.total == pytest.approx(res.value, abs=1e-9)


def test_table_backpointers_cover_the_prefix():
    rng = np.random.default_rng(37)
    tr = random_instance(rng)
    res = offline_lb(tr, 1, 0.5, UnityCost())
    j = tr.n_events
    seen = 0
    while j > 0:
        ell = int(res.choice[j])
        assert 1 <= ell <= j
        seen += ell
        j -= ell
    assert seen == tr.n_events
    assert res.cost_min[0] == 0.0
    assert np.all(res.cost_min >= 0.0)


def test_larger_instance_runs_fast():
    rng = np.random.default_rng(41)
    m, n = 400, 20
    tr = EventTrace(
        np.cumsum(rng.uniform(0.5, 1.5, size=m)),
        rng.uniform(0.0, 1.0, size=(m, n)),
    )
    res = offline_lb(tr, 1, 0.5, LogCost())
    assert res.value > 0


@st.composite
def dp_instances(draw):
    """Traces with explicit zeros repaired to K-feasibility, gaps from 1e-9
    to heavy-tailed, absolute times up to about 1e6, and every cost."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 80))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = np.choose(
        rng.choice(3, size=m, p=draw(st.sampled_from(GAP_MIXES))),
        [
            np.full(m, 1e-9),
            rng.uniform(0.01, 2.0, size=m),
            rng.pareto(draw(st.sampled_from([0.8, 1.5])), size=m) + 1e-9,
        ],
    )
    start = draw(st.sampled_from([0.0, 3.0, 1e6, 1e6 + 0.123]))
    w = rng.uniform(0.0, draw(st.sampled_from([0.1, 1.0, 20.0])), size=(m, n))
    w[rng.uniform(size=(m, n)) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    for row in w:
        missing = k - int((row > 0).sum())
        if missing > 0:
            row[np.flatnonzero(row <= 0)[:missing]] = rng.uniform(1e-3, 4.0)
    cost = draw(
        st.sampled_from(
            [
                UnityCost(),
                LogCost(),
            ]
        )
    )
    rho = draw(st.floats(0.05, 0.95))
    return EventTrace(start + np.cumsum(gaps), w), k, rho, cost


# probabilities of 1e-9, uniform and heavy-tailed gaps
GAP_MIXES = [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.3, 0.4, 0.3), (0.6, 0.0, 0.4)]


def assert_same_as_full_scan(tr, k, rho, cost):
    got = offline_lb(tr, k, rho, cost)
    want = oracles.full_dp_offline(tr, k, rho, cost)
    assert got.value.hex() == want.value.hex()
    assert got.cost_min.tobytes() == want.cost_min.tobytes()
    assert got.choice.tobytes() == want.choice.tobytes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(dp_instances())
def test_window_matches_full_scan_dp(inst):
    assert_same_as_full_scan(*inst)


def two_events(gap, w=1.0):
    return EventTrace([0.0, gap], [[w], [w]])


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
def test_window_boundary_is_tight_for_unity_cost(rho):
    # merging costs rho + (1-rho)*w*d, splitting 2*rho; the window drops
    # the merged start exactly when (1-rho)*w*d exceeds rho*K*c_max = rho
    w = 0.75
    below = two_events(rho * (1 - 1e-9) / ((1 - rho) * w), w)
    res = offline_lb(below, 1, rho, UnityCost())
    assert res.choice[2] == 2
    assert_same_as_full_scan(below, 1, rho, UnityCost())
    above = two_events(rho * (1 + 1e-9) / ((1 - rho) * w), w)
    res = offline_lb(above, 1, rho, UnityCost())
    assert list(res.choice[1:]) == [1, 1]
    assert_same_as_full_scan(above, 1, rho, UnityCost())


def test_window_keeps_a_start_that_only_rounding_makes_worse():
    # 0.5 * d is one ulp above rho = 0.5, so the merged start is worse in
    # exact arithmetic, but both candidates round to 1.0 and the full scan
    # takes the first of the tie: the merged segment
    tr = two_events(np.nextafter(1.0, 2.0))
    res = offline_lb(tr, 1, 0.5, UnityCost())
    assert res.choice[2] == 2
    assert_same_as_full_scan(tr, 1, 0.5, UnityCost())


def test_window_bounds_log_cost_by_its_largest_report():
    # merging wins while (1-rho)*w*d < rho*(2*log(2+w) - log(2+2w)); that
    # lies above rho*log(2), the cheapest report, and below
    # rho*log(2+2w), the costliest one the window may assume
    rho, w = 0.5, 3.0
    gain = 2 * math.log(2 + w) - math.log(2 + 2 * w)
    assert math.log(2.0) < gain < math.log(2 + 2 * w)
    tr = two_events(0.5 * (math.log(2.0) + gain) * rho / ((1 - rho) * w), w)
    res = offline_lb(tr, 1, rho, LogCost())
    assert res.choice[2] == 2
    assert_same_as_full_scan(tr, 1, rho, LogCost())


def dense_window_trace(n, m, scale, seed):
    # 1e-9 gaps and weights near `scale` keep a few tens of starts in every
    # window, so most closes are narrow and their cells fill many chunks
    rng = np.random.default_rng(seed)
    return EventTrace(
        np.cumsum(np.full(m, 1e-9)),
        rng.uniform(0.0, scale, size=(m, n)) + scale * 1e-3,
    )


def burst_trace(n, m, seed):
    # bursts at 1e-9 spacing grow windows past a hundred starts; the gaps
    # of 5 between bursts shrink them back to one
    rng = np.random.default_rng(seed)
    gaps = np.where(rng.uniform(size=m) < 0.03, 5.0, 1e-9)
    return EventTrace(1e6 + np.cumsum(gaps), rng.uniform(0.01, 1.0, size=(m, n)))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("cost, scale", [(UnityCost(), 1e6), (LogCost(), 2e7)])
def test_dense_windows_across_chunks_match_full_scan(cost, scale, k):
    # at N=64 a chunk holds 256 cells; windows of 40 to 47 starts give
    # 23,000 to 26,000 cells, about 100 chunks
    assert_same_as_full_scan(dense_window_trace(64, 700, scale * k, 3), k, 0.5, cost)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("cost", [UnityCost(), LogCost()])
def test_wide_and_narrow_windows_across_chunks_match_full_scan(cost, k):
    # a quarter of the closes take a vector step between narrow ones, and
    # the narrow cells fill about 50 chunks
    assert_same_as_full_scan(burst_trace(64, 700, 1), k, 0.5, cost)


@pytest.mark.parametrize("cost", [UnityCost(), LogCost()])
def test_overflowing_sums_match_full_scan(cost):
    # weights scaled until t_{m-1} * total weight is one part in a million
    # short of overflow, the largest trace EventTrace accepts: every prefix
    # sum and latency stays finite, no numpy warning is raised, and the
    # sweep still picks what the full scan picks
    rng = np.random.default_rng(4)
    t = 1e10 + np.arange(40.0)
    w = rng.uniform(0.5, 1.0, size=(40, 2))
    w *= np.finfo(np.float64).max / (t[-1] * w.sum()) * (1 - 1e-6)
    tr = EventTrace(t, w)
    with np.errstate(all="raise"):
        assert math.isfinite(offline_lb(tr, 1, 0.5, cost).value)
        assert_same_as_full_scan(tr, 1, 0.5, cost)


def test_overflowing_sums_are_rejected():
    # the latency prefix sums would overflow from the second event on and
    # make the oracle's candidates NaN; the trace is refused instead
    rng = np.random.default_rng(4)
    with pytest.raises(ValidationError, match=r"overflows \(row 1\)"):
        EventTrace(
            1e10 + np.arange(40.0), rng.uniform(0.5, 1.0, size=(40, 2)) * 1e298
        )
