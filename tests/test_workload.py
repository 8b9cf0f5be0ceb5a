"""Tests for workload generation: random arrivals, structured worst-case
instances, and weight perturbation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from aggsim.model import UnityCost, ValidationError, evaluate
from aggsim.offline import offline_lb
from aggsim.online import ThresholdPolicy, run_itc, run_thb
from aggsim.workload import (
    BigEvents,
    ConstantArrivals,
    PoissonArrivals,
    SmallEvents,
    WeibullArrivals,
    WorkloadSpec,
    gen_sigma2,
    gen_thm6_instance,
    gen_trace,
    perturb,
    repair_k_feasibility,
)


def gaps_of(trace):
    t = np.asarray(trace.times)
    return np.diff(np.concatenate([[0.0], t]))


# ---------------------------------------------------------- random traces


def test_constant_arrivals():
    spec = WorkloadSpec(ConstantArrivals(1.0), BigEvents(), 3, 2, seed=0)
    tr = gen_trace(spec)
    assert np.allclose(tr.times, [1.0, 2.0, 3.0], atol=1e-6)
    assert np.all(np.diff(tr.times) > 0)
    assert np.all(np.asarray(tr.weights) <= 1.0)


def test_small_magnitude_range():
    spec = WorkloadSpec(ConstantArrivals(1.0), SmallEvents(), 50, 8, seed=1)
    tr = gen_trace(spec)
    w = np.asarray(tr.weights)
    assert np.all(w >= 0) and np.all(w <= 1.0 / 8.0)


def test_poisson_mean():
    spec = WorkloadSpec(PoissonArrivals(), BigEvents(), 10_000, 1, seed=3)
    mean = gaps_of(gen_trace(spec)).mean()
    assert 19.0 <= mean <= 21.0


def test_weibull_mean_and_scale():
    arr = WeibullArrivals()
    assert arr.shape == 0.5 and arr.mean == 10.0
    assert arr.scale == pytest.approx(5.0)
    spec = WorkloadSpec(arr, BigEvents(), 10_000, 1, seed=4)
    mean = gaps_of(gen_trace(spec)).mean()
    assert 9.0 <= mean <= 11.0


def test_interarrival_distributions_ks():
    g = gaps_of(
        gen_trace(WorkloadSpec(PoissonArrivals(), BigEvents(), 10_000, 1, 7))
    )
    assert stats.kstest(g, "expon", args=(0.0, 20.0)).pvalue > 0.01
    g = gaps_of(
        gen_trace(WorkloadSpec(WeibullArrivals(), BigEvents(), 10_000, 1, 8))
    )
    assert stats.kstest(g, "weibull_min", args=(0.5, 0.0, 5.0)).pvalue > 0.01


def test_seed_determinism():
    spec = WorkloadSpec(PoissonArrivals(), SmallEvents(), 40, 5, seed=11)
    assert gen_trace(spec) == gen_trace(spec)
    other = WorkloadSpec(PoissonArrivals(), SmallEvents(), 40, 5, seed=12)
    assert gen_trace(spec) != gen_trace(other)


def test_spec_validation():
    with pytest.raises(ValidationError):
        WorkloadSpec(ConstantArrivals(0.0), BigEvents(), 3, 2, 0)
    with pytest.raises(ValidationError):
        WorkloadSpec(PoissonArrivals(-1.0), BigEvents(), 3, 2, 0)
    with pytest.raises(ValidationError):
        WorkloadSpec(PoissonArrivals(), BigEvents(), 0, 2, 0)
    with pytest.raises(ValidationError):
        WorkloadSpec(PoissonArrivals(), BigEvents(), 3, 0, 0)
    # gamma(1 + 1/shape) overflows below a shape of about 0.00587
    with pytest.raises(ValidationError, match="shape 0.005 is too small"):
        WeibullArrivals(shape=0.005)
    assert WeibullArrivals(shape=0.006).scale > 0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(shape=0), "shape must be positive"),
        (dict(mean=0), "mean must be positive"),
    ],
)
def test_weibull_rejects_a_nonpositive_parameter(kwargs, message):
    with pytest.raises(ValidationError) as exc:
        WeibullArrivals(**kwargs)
    assert str(exc.value) == message


def test_k_feasibility_repair():
    rng = np.random.default_rng(5)
    w = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.1, 0.2, 0.3]])
    repair_k_feasibility(w, 2, rng, 1.0)
    assert np.all(np.count_nonzero(w > 0, axis=1) >= 2)
    assert np.array_equal(w[2], [0.1, 0.2, 0.3])  # untouched row
    with pytest.raises(ValidationError):
        repair_k_feasibility(w, 4, rng, 1.0)
    with pytest.raises(ValidationError):
        repair_k_feasibility(np.zeros((1, 2)), 1, rng, 0.0)  # can't succeed


def test_ensure_k_noop_when_already_feasible():
    spec = WorkloadSpec(PoissonArrivals(), BigEvents(), 30, 4, seed=21)
    assert gen_trace(spec, ensure_k=3) == gen_trace(spec)
    gen_trace(spec, ensure_k=3).check_k_feasible(3)


# ------------------------------------------------------ structured traces


def test_two_event_instance_values():
    tr = gen_thm6_instance(2, [0.5, 0.5], 1.0, 0.01)
    assert tr.n_events == 2 and tr.n_systems == 2
    assert list(tr.times) == [0.0, 1.0]
    assert np.all(np.asarray(tr.weights) == 0.51)
    skew = gen_thm6_instance(3, [0.2, 0.3, 0.5], 2.0, 0.0)
    assert np.allclose(skew.weights, [[0.2, 0.6, 1.0]] * 2)


def test_two_event_instance_validation():
    with pytest.raises(ValidationError):
        gen_thm6_instance(2, [0.5], 1.0, 0.0)
    with pytest.raises(ValidationError):
        gen_thm6_instance(2, [0.5, 0.0], 1.0, 0.0)
    with pytest.raises(ValidationError):
        gen_thm6_instance(2, [0.5, 0.5], 0.5, 0.0)
    with pytest.raises(ValidationError):
        gen_thm6_instance(2, [0.5, 0.5], 1.0, -0.1)


def test_two_event_instance_oracle_value():
    # with unit thresholds summing to 1, the oracle settles at exactly 1:
    # two immediate reports cost rho*2, beating one late report
    tr = gen_thm6_instance(4, [0.25] * 4, 1.0, 1e-6)
    val = offline_lb(tr, 1, 0.5, UnityCost()).value
    assert val == pytest.approx(1.0, abs=1e-5)


def test_two_event_instance_online_cost():
    n = 4
    tr = gen_thm6_instance(n, [1.0 / n] * n, 1.0, 1e-6)
    s = run_thb(tr, ThresholdPolicy(1.0 / n), 1, UnityCost())
    cost = evaluate(s, tr, 1, 0.5, UnityCost()).total
    assert cost >= (2 * (n - 1) + 2 + 1) / 2.0


def test_sigma2_instantiation():
    tr = gen_sigma2(16, 0.0)
    assert tr.n_events == 2 and tr.n_systems == 16
    assert list(tr.times) == [0.5, 0.75]
    w = np.asarray(tr.weights)
    assert list(w[:, 0]) == [0.5, 1.0]
    assert np.all(w[:, 1:] == 0.0)
    tr.check_k_feasible(1)
    with pytest.raises(ValidationError):
        tr.check_k_feasible(2)
    assert gen_sigma2(1, 0.0).n_events == 1
    assert gen_sigma2(64, 0.0).n_events == 4


@pytest.mark.parametrize(
    "args, message",
    [((0,), "n_systems must be >= 1"), ((4, -1), "epsilon must be >= 0")],
)
def test_sigma2_rejects_bad_arguments(args, message):
    with pytest.raises(ValidationError) as exc:
        gen_sigma2(*args)
    assert str(exc.value) == message


def test_sigma2_oracle_at_most_one():
    for n in (16, 64, 256):
        tr = gen_sigma2(n)
        assert offline_lb(tr, 1, 0.5, UnityCost()).value <= 1.0


def test_sigma2_forces_one_report_per_event():
    # theta at half the balance point separates the geometric bursts into
    # individual reports, realizing the adversarial cost
    for n in (16, 64):
        tr = gen_sigma2(n)
        theta = 1.0 / (2.0 * math.sqrt(n))
        s = run_itc(tr, ThresholdPolicy(theta), 1, UnityCost())
        assert s.total_reports() == tr.n_events
        cost = evaluate(s, tr, 1, 0.5, UnityCost()).total
        lb = offline_lb(tr, 1, 0.5, UnityCost()).value
        assert cost / lb >= math.sqrt(n) / 4.0


# ------------------------------------------------------------ perturbation


def test_perturb_zero_pct_identity():
    tr = gen_trace(WorkloadSpec(PoissonArrivals(), BigEvents(), 20, 3, 31))
    assert perturb(tr, 0.0, seed=1) == tr


def test_perturb_range_and_zeros():
    tr = gen_sigma2(16)
    p = perturb(tr, 0.1, seed=2)
    w0, w1 = np.asarray(tr.weights), np.asarray(p.weights)
    assert list(p.times) == list(tr.times)
    mask = w0 > 0
    ratio = w1[mask] / w0[mask]
    assert np.all(ratio >= 0.9) and np.all(ratio <= 1.1)
    assert np.all(w1[~mask] == 0.0)
    assert perturb(tr, 0.1, seed=2) == p
    assert perturb(tr, 0.1, seed=3) != p


def test_perturb_validation():
    tr = gen_sigma2(16)
    with pytest.raises(ValidationError):
        perturb(tr, -0.1, 0)
    with pytest.raises(ValidationError):
        perturb(tr, 1.5, 0)


def test_perturbation_lowers_adversarial_ratio():
    n = 10
    pol = ThresholdPolicy(1.0 / n)
    base = gen_thm6_instance(n, [1.0 / n] * n, 1.0, 1e-6)

    def ratio(tr):
        s = run_thb(tr, pol, 1, UnityCost())
        cost = evaluate(s, tr, 1, 0.5, UnityCost()).total
        return cost / offline_lb(tr, 1, 0.5, UnityCost()).value

    plain = ratio(base)
    perturbed = [ratio(perturb(base, 0.1, seed=s)) for s in range(20)]
    assert np.mean(perturbed) < plain
