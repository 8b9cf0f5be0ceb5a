"""Tests for scenario configuration, sweep execution, aggregation, and CSV
emission."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import pathlib
import statistics
import subprocess
import sys
from dataclasses import replace

import pytest

from aggsim import harness
from aggsim.graph import Role, gen_udg
from aggsim.harness import (
    ConfigError,
    ResultRow,
    ScenarioConfig,
    aggregate,
    load_config,
    parse_config,
    rows_to_csv,
    run_scenario,
    summary_to_csv,
    worker_count,
    write_results,
)
from aggsim.model import EventTrace, ValidationError
from aggsim.online import ratio_none, threshold_none, threshold_partial


def small_cfg(**overrides):
    base = dict(
        scenario_code="SPU",
        mode="none",
        n_values=(10,),
        k_values=(1,),
        rho_values=(0.5,),
        runs=2,
        n_events=50,
        seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ------------------------------------------------------------------ config


def test_parse_config_full():
    cfg = parse_config(
        """
        {"scenario": "BHL", "mode": "full", "N": [5, 10], "K": [1, 2],
         "rho": [0.5], "theta": null, "runs": 3, "n_events": 40,
         "seed": 9, "perturb_pct": 0.0, "avg_degree": 4.0}
        """
    )
    assert cfg.scenario_code == "BHL" and cfg.mode == "full"
    assert cfg.n_values == (5, 10) and cfg.k_values == (1, 2)
    assert cfg.theta_values == (None,)
    assert cfg.runs == 3 and cfg.seed == 9


def test_parse_config_defaults():
    cfg = parse_config(
        '{"scenario": "SPU", "mode": "none", "N": [10], "K": [1], "rho": [0.5]}'
    )
    assert cfg.runs == 50
    assert cfg.n_events == 2000
    assert cfg.theta_values == (None,)
    assert cfg.perturb_pct == 0.0
    assert cfg.avg_degree == 18.0


def test_parse_config_theta_forms():
    base = '{"scenario": "SPU", "mode": "none", "N": [4], "K": [1], "rho": [0.5]'
    assert parse_config(base + ', "theta": 0.2}').theta_values == (0.2,)
    assert parse_config(base + ', "theta": [0.2, 0.4]}').theta_values == (0.2, 0.4)


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="line"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config(
            '{"scenario": "SPU", "mode": "none", "N": [4], "K": [1],'
            ' "rho": [0.5], "bogus": 1}'
        )
    with pytest.raises(ConfigError, match="missing required"):
        parse_config('{"scenario": "SPU", "mode": "none", "N": [4], "K": [1]}')
    with pytest.raises(ConfigError, match="scenario code"):
        parse_config(
            '{"scenario": "XPU", "mode": "none", "N": [4], "K": [1], "rho": [0.5]}'
        )
    with pytest.raises(ConfigError, match="mode"):
        small_cfg(mode="broadcast")
    with pytest.raises(ConfigError):
        small_cfg(scenario_code="ADV2", mode="full")
    with pytest.raises(ConfigError):
        small_cfg(rho_values=(1.0,))
    with pytest.raises(ConfigError):
        small_cfg(theta_values=(0.0,))
    with pytest.raises(ConfigError):
        small_cfg(runs=0)
    for bad in (
        dict(n_values=(2.5,)),
        dict(k_values=(1.5,)),
        dict(k_values=(True,)),
        dict(runs=1.5),
        dict(n_events=10.5),
        dict(seed=-1),
        dict(seed=1.5),
    ):
        with pytest.raises(ConfigError, match="integer"):
            small_cfg(**bad)
    # an empty list names the key the config wrote
    base = {"scenario": "SPU", "mode": "none", "N": [4], "K": [1], "rho": [0.5]}
    for key in ("N", "K", "rho", "theta"):
        with pytest.raises(ConfigError) as e:
            parse_config(json.dumps({**base, key: []}))
        assert str(e.value) == f"{key} must be non-empty"
    with pytest.raises(ConfigError, match="N values must be integers"):
        parse_config(
            '{"scenario": "SPU", "mode": "none", "N": [2.5], "K": [1],'
            ' "rho": [0.5]}'
        )


def test_parse_config_rejects_a_non_object_and_a_scalar_list_key():
    with pytest.raises(ConfigError) as e:
        parse_config("[1]")
    assert str(e.value) == "config must be a JSON object"
    with pytest.raises(ConfigError) as e:
        parse_config(
            '{"scenario": "SPU", "mode": "none", "N": 5, "K": [1], "rho": [0.5]}'
        )
    assert str(e.value) == "N must be a list"


def test_alpha_is_the_costliest_report_over_the_empty_one():
    # bit for bit the closed forms: 1 at unity cost and for the ADV2
    # replay, log(2 + high * m) / log 2 at log cost, high = 1 for big and
    # 1/N for small events
    ns = [*range(1, 101), *(2**e for e in range(7, 37))]
    ms = [1, 2, 3, 10, 50, 100, 1000, 2000, 8000, 10**6, 10**9]
    for code in (a + b + c for a in "BS" for b in "CPH" for c in "UL"):
        for n in ns:
            high = 1.0 if code[0] == "B" else 1.0 / n
            for m in ms:
                want = 1.0
                if code[2] == "L":
                    want = math.log(2.0 + high * m) / math.log(2.0)
                got = harness._alpha_for(code, n, m)
                assert got.hex() == want.hex(), (code, n, m)
    assert harness._alpha_for("ADV2", 16, 4) == 1.0


def test_build_graph_without_roles_is_the_udg_with_every_node_withholding():
    g = harness.build_graph(30, 6.0, 7, "none")
    assert g == gen_udg(30, 6.0, 7)
    assert g.roles == (Role.WITHHOLD,) * 30
    assert harness.build_graph(30, 6.0, 7, "mis").edges == g.edges


def test_perturb_pct_only_for_adv2_replay():
    with pytest.raises(ConfigError, match="only to the ADV2 replay"):
        small_cfg(perturb_pct=0.5)
    assert small_cfg(perturb_pct=0.0).perturb_pct == 0.0
    adv = ScenarioConfig("ADV2", "none", (4,), (1,), (0.5,), perturb_pct=0.5)
    assert adv.perturb_pct == 0.5


def test_load_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(
        '{"scenario": "SPU", "mode": "none", "N": [6], "K": [1], "rho": [0.5]}'
    )
    assert load_config(p).n_values == (6,)


def test_points_cross_product_order():
    cfg = small_cfg(
        n_values=(5, 10), k_values=(1, 2), rho_values=(0.3,), theta_values=(None, 0.5)
    )
    assert cfg.points == [
        (5, 1, 0.3, None),
        (5, 1, 0.3, 0.5),
        (5, 2, 0.3, None),
        (5, 2, 0.3, 0.5),
        (10, 1, 0.3, None),
        (10, 1, 0.3, 0.5),
        (10, 2, 0.3, None),
        (10, 2, 0.3, 0.5),
    ]


# ------------------------------------------------------------------ sweeps


def test_sanity_two_rows():
    rows = run_scenario(small_cfg(), workers=1)
    assert len(rows) == 2
    for r in rows:
        assert r.error is None
        assert r.ratio >= 1.0 - 1e-9
        assert r.ratio == r.alg_cost / r.oracle_value
        assert r.theta == threshold_none(10, 1, 1.0, 0.5)
        assert r.alpha == 1.0


def test_k1_ratio_within_default_threshold_bound():
    for code in ("SPU", "SPL", "BCU"):
        rows = run_scenario(
            small_cfg(scenario_code=code, n_events=40, runs=2), workers=1
        )
        for r in rows:
            assert r.error is None
            assert 1.0 - 1e-9 <= r.ratio <= ratio_none(r.n, r.k, r.alpha) + 1e-6
            if code.endswith("L"):
                assert r.alpha > 1.0


def test_theta_override_recorded():
    rows = run_scenario(small_cfg(theta_values=(0.25,)), workers=1)
    assert all(r.theta == 0.25 for r in rows)


def test_udg_role_modes():
    cfg = small_cfg(
        mode="n1", n_values=(25,), runs=2, n_events=30, avg_degree=6.0, seed=5
    )
    rows = run_scenario(cfg, workers=1)
    assert all(r.error is None for r in rows)
    assert all(r.ratio >= 1.0 - 1e-9 for r in rows)
    # theta resolves through the role-derived network parameter, so it
    # varies per rep but always lies between the full and none extremes
    lo = threshold_partial(25, 1, 1.0, 25.0, 0.5)
    hi = threshold_partial(25, 1, 1.0, 1.0, 0.5)
    for r in rows:
        assert lo <= r.theta <= hi
    rows2 = run_scenario(replace(cfg, mode="n2"), workers=1)
    assert all(r.error is None and r.ratio >= 1.0 - 1e-9 for r in rows2)


def test_adversarial_replay_mean_ratio():
    cfg = ScenarioConfig(
        "ADV2", "none", (50,), (1,), (0.5,), runs=3, seed=1
    )
    rows = run_scenario(cfg, workers=1)
    mean = statistics.fmean(r.ratio for r in rows)
    assert 0.9 * 50 <= mean <= 51 + 1e-6


def test_adversarial_replay_perturbation_helps():
    base = ScenarioConfig("ADV2", "none", (20,), (1,), (0.5,), runs=10, seed=3)
    shaken = replace(base, perturb_pct=0.1)
    mean = lambda rows: statistics.fmean(r.ratio for r in rows)
    assert mean(run_scenario(shaken, workers=1)) < mean(
        run_scenario(base, workers=1)
    )


def test_infeasible_points_yield_error_rows():
    cfg = small_cfg(n_values=(2, 10), k_values=(4,))
    rows = run_scenario(cfg, workers=1)
    errs = [r for r in rows if r.error is not None]
    good = [r for r in rows if r.error is None]
    assert len(errs) == 1 and "exceeds" in errs[0].error
    assert len(good) == 2 and all(r.n == 10 for r in good)
    cfg = small_cfg(mode="n1", n_values=(5,), avg_degree=18.0)
    rows = run_scenario(cfg, workers=1)
    assert len(rows) == 1 and "avg_degree" in rows[0].error


# ------------------------------------------------------------- aggregation


def fixed_row(ratio, **overrides):
    base = dict(
        scenario_code="SPU",
        mode="none",
        n=10,
        k=1,
        rho=0.5,
        theta=0.1,
        seed=1,
        alg_cost=ratio,
        oracle_value=1.0,
        ratio=ratio,
        wall_time=None,
        alpha=1.0,
        error=None,
    )
    base.update(overrides)
    return ResultRow(**base)


def test_aggregate_examples():
    same = [fixed_row(2.5, seed=i) for i in range(50)]
    (s,) = aggregate(same)
    assert s.mean_ratio == 2.5 and s.stddev_ratio == 0.0 and s.count == 50

    two = [fixed_row(2.0), fixed_row(4.0)]
    (s,) = aggregate(two)
    assert s.mean_ratio == 3.0
    assert s.min_ratio == 2.0 and s.max_ratio == 4.0


def test_aggregate_grouping_and_permutation():
    rows = [
        fixed_row(2.0, n=5),
        fixed_row(4.0, n=5),
        fixed_row(3.0, n=10),
        replace(fixed_row(0.0, n=10), error="boom", ratio=None),
    ]
    fwd = aggregate(rows)
    rev = aggregate(list(reversed(rows)))
    assert fwd == rev
    assert [s.n for s in fwd] == [5, 10]
    assert fwd[1].count == 1  # error row skipped
    assert aggregate([]) == []


# -------------------------------------------------------------------- CSV


def test_result_csv_shape_and_determinism():
    cfg = small_cfg(n_values=(5, 10), runs=2, n_events=30)
    a = rows_to_csv(run_scenario(cfg, workers=1))
    b = rows_to_csv(run_scenario(cfg, workers=1))
    assert a == b
    lines = a.splitlines()
    assert lines[0] == (
        "scenario_code,mode,N,K,rho,theta,seed,alg_cost,oracle_value,ratio,"
        "wall_time,alpha,error"
    )
    assert len(lines) == 1 + 4
    cells = lines[1].split(",")
    assert cells[0] == "SPU" and cells[10] == "" and cells[12] == ""


def test_wall_time_only_with_timing_flag():
    rows = run_scenario(small_cfg(), workers=1)
    assert all(r.wall_time is not None for r in rows)
    plain = rows_to_csv(rows).splitlines()[1].split(",")
    timed = rows_to_csv(rows, timing=True).splitlines()[1].split(",")
    assert plain[10] == "" and timed[10] != ""


def test_error_row_csv():
    cfg = small_cfg(n_values=(2,), k_values=(4,))
    line = rows_to_csv(run_scenario(cfg, workers=1)).splitlines()[1]
    cells = line.split(",")
    assert cells[6] == "" and cells[7] == "" and cells[9] == ""
    assert "exceeds" in cells[12]


def test_failed_repetition_error_rows_keep_their_seeds():
    # no connected graph has this degree, so each repetition fails after
    # drawing its seeds: one row each, seed set, result fields blank
    cfg = parse_config(
        '{"scenario": "SPU", "mode": "n1", "N": [30], "K": [1], "rho": [0.5],'
        ' "runs": 2, "n_events": 20, "avg_degree": 0.5}'
    )
    message = (
        "no connected unit-disk graph with avg degree ~0.5 found for n=30 "
        "after 60 attempts"
    )
    assert rows_to_csv(run_scenario(cfg, workers=1)).splitlines()[1:] == [
        f"SPU,n1,30,1,0.5,,2968811710,,,,,,{message}",
        f"SPU,n1,30,1,0.5,,3831201730,,,,,,{message}",
    ]


def test_undelivered_schedule_is_an_error_row(monkeypatch):
    # a subnormal pending weight overflows the crossing and nothing fires;
    # the repetition must not report ratio=inf
    monkeypatch.setattr(
        harness, "gen_trace", lambda spec, ensure_k: EventTrace([1.0], [[1e-310]])
    )
    rows = run_scenario(small_cfg(n_values=(1,), runs=1), workers=1)
    assert [r.error for r in rows] == ["schedule never delivers events [0]"]
    assert rows[0].ratio is None


# the names each sweep mode must resolve in `aggsim.harness` at call time;
# the per-layer benchmark tracer swaps exactly these
LAYER_NAMES = (
    "gen_trace", "gen_udg", "greedy_mis", "greedy_cds",
    "run_thb", "run_itc", "run_net", "evaluate", "offline_lb",
)


# the names beyond gen_trace, evaluate and offline_lb that each mode calls
MODE_LAYERS = {
    "none": {"run_thb"},
    "full": {"run_itc"},
    "n1": {"gen_udg", "greedy_mis", "run_net"},
    "n2": {"gen_udg", "greedy_cds", "run_net"},
}


@pytest.mark.parametrize("mode", MODE_LAYERS)
def test_sweep_calls_each_layer_through_harness_names(monkeypatch, mode):
    calls = dict.fromkeys(LAYER_NAMES, 0)

    def counting(name):
        fn = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in LAYER_NAMES:
        monkeypatch.setattr(harness, name, counting(name))
    cfg = small_cfg(mode=mode, n_events=20, avg_degree=4.0)
    rows = run_scenario(cfg, workers=1)
    assert [r.error for r in rows] == [None, None]
    want = MODE_LAYERS[mode] | {"gen_trace", "evaluate", "offline_lb"}
    assert {name for name, n in calls.items() if n} == want
    assert all(calls[name] == cfg.runs for name in want)


def test_summary_csv():
    text = summary_to_csv(aggregate([fixed_row(2.0), fixed_row(4.0)]))
    lines = text.splitlines()
    assert lines[0].startswith("scenario_code,mode,N,K,rho,theta,mean_ratio")
    assert lines[1].split(",")[6] == "3.0"


def test_write_results(tmp_path):
    rows = run_scenario(small_cfg(), workers=1)
    p = tmp_path / "out.csv"
    write_results(p, rows)
    assert p.read_text() == rows_to_csv(rows)


# ------------------------------------------------------------- parallelism


def test_worker_pool_equivalence():
    cfg = small_cfg(n_values=(5, 8), runs=2, n_events=30)
    assert rows_to_csv(run_scenario(cfg, workers=2)) == rows_to_csv(
        run_scenario(cfg, workers=1)
    )


@pytest.mark.parametrize(
    "overrides",
    [
        # one point: its repetitions are the pool's units
        dict(mode="n2", n_values=(30,), runs=3, n_events=200),
        # error points (avg_degree >= N, then K > N) next to valid ones
        dict(mode="n1", n_values=(4, 20), k_values=(1, 5), avg_degree=6.0),
    ],
)
def test_pool_units_do_not_change_bytes(overrides):
    cfg = small_cfg(**overrides)
    rows = run_scenario(cfg, workers=1)
    assert rows_to_csv(rows) == rows_to_csv(run_scenario(cfg, workers=2))
    errors = [r.error for r in rows if r.error is not None]
    assert len(errors) == len(set(errors))
    if cfg.mode == "n1":
        assert sorted(errors) == [
            "K=5 exceeds N=4", "avg_degree=6.0 not below N=4"
        ]
        assert len(rows) == 2 + 2 * cfg.runs


def test_pool_unit_is_point_and_repetition(monkeypatch):
    mapped = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, units):
            units = list(units)
            mapped.append((self.max_workers, [u[1:] for u in units]))
            return map(fn, units)

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(
        harness.concurrent.futures, "ProcessPoolExecutor", RecordingPool
    )
    run_scenario(small_cfg(runs=3), workers=4)
    assert mapped == [(3, [(0, 0), (0, 1), (0, 2)])]
    # an error point is one unit; a single unit runs without a pool
    run_scenario(small_cfg(n_values=(2, 10), k_values=(4,), runs=2), workers=4)
    assert mapped[1] == (3, [(0, 0), (1, 0), (1, 1)])
    run_scenario(small_cfg(runs=1), workers=4)
    assert len(mapped) == 2


# Run in a fresh interpreter, since pytest has already loaded numpy.random:
# every unit prints its worker's pid and the modules it added to
# sys.modules, then the parent prints its own pid and the rows' errors.
_UNIT_IMPORTS = """
import json, os, sys
from aggsim import harness

run_unit = harness._run_unit

def recording_unit(args):
    before = set(sys.modules)
    row = run_unit(args)
    line = json.dumps([os.getpid(), sorted(set(sys.modules) - before)])
    os.write(1, (line + "\\n").encode())  # one write: workers share the pipe
    return row

harness._run_unit = recording_unit
cfg = harness.ScenarioConfig(
    "SPU", "n1", (12,), (1, 2), (0.5,), runs=2, n_events=60, avg_degree=4.0
)
rows = harness.run_scenario(cfg, workers=2)
print(json.dumps([os.getpid(), [r.error for r in rows]]))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs two cores")
@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only forked workers inherit the parent's modules",
)
def test_pool_workers_import_nothing_the_parent_lacks():
    src = pathlib.Path(harness.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _UNIT_IMPORTS],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *units, (parent, errors) = map(json.loads, proc.stdout.splitlines())
    assert errors == [None] * 4
    assert all(pid != parent for pid, _ in units)
    assert [added for _, added in units] == [[]] * 4


def test_worker_count_env(monkeypatch):
    # the pool size follows the request and the core count, no variable
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setenv("DIA_THREADS", "abc")
    assert worker_count() == 3
    assert worker_count(2) == 2
    assert worker_count(8) == 3
    assert worker_count(1) == 1
    for bad in (0, -1):
        with pytest.raises(ValidationError, match="workers must be >= 1"):
            worker_count(bad)
