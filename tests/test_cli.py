"""Tests for the command-line interface: argument handling, output formats,
and exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from aggsim.cli import _schedule_csv, main
from aggsim.graph import CommGraph, Role, compute_x, gen_udg, greedy_mis
from aggsim.model import (
    EventTrace,
    LogCost,
    Report,
    UnityCost,
    evaluate,
)
from aggsim.online import (
    ThresholdPolicy,
    run_itc,
    run_net,
    run_thb,
    threshold_full,
    threshold_none,
    threshold_partial,
)
from aggsim.workload import (
    BigEvents,
    ConstantArrivals,
    PoissonArrivals,
    WeibullArrivals,
    WorkloadSpec,
    gen_trace,
)

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def two_event_csv(tmp_path):
    p = tmp_path / "two.csv"
    EventTrace([0.0, 1.0], [[1.0], [1.0]]).to_csv(p)
    return str(p)


# ------------------------------------------------------------------- theta


def test_theta_single_system(capsys):
    code, out, _ = run_cli(
        capsys, "theta", "--mode", "none", "--N", "1", "--alpha", "1",
        "--rho", "0.5",
    )
    assert code == 0
    assert "theta=1.0" in out
    assert "CR=2.0" in out


def test_theta_full_hundred(capsys):
    code, out, _ = run_cli(
        capsys, "theta", "--mode", "full", "--N", "100", "--rho", "0.5",
    )
    assert code == 0
    assert "phi=10.0" in out
    assert "CR=11.0" in out
    assert f"theta={repr(threshold_full(100, 1, 1.0, 0.5))}" in out


def test_theta_partial_needs_x(capsys):
    code, _, err = run_cli(
        capsys, "theta", "--mode", "partial", "--N", "10", "--rho", "0.5",
    )
    assert code == 1
    assert "--x" in err
    code, out, _ = run_cli(
        capsys, "theta", "--mode", "partial", "--N", "10", "--rho", "0.5",
        "--x", "10",
    )
    assert code == 0
    assert f"theta={repr(threshold_none(10, 1, 1.0, 0.5))}" in out


@pytest.mark.parametrize("mode", ["none", "full"])
def test_theta_x_only_with_partial(capsys, mode):
    code, out, err = run_cli(
        capsys, "theta", "--mode", mode, "--N", "10", "--rho", "0.5",
        "--x", "7",
    )
    assert code == 1 and out == ""
    assert err == "error: --x applies only to --mode partial\n"


def test_theta_invalid_setting(capsys):
    code, _, err = run_cli(
        capsys, "theta", "--mode", "none", "--N", "0", "--rho", "0.5",
    )
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("mode", ["none", "full"])
@pytest.mark.parametrize("alpha", ["nan", "inf", "0.5"])
def test_theta_rejects_alpha_outside_one_to_inf(capsys, mode, alpha):
    code, out, err = run_cli(
        capsys, "theta", "--mode", mode, "--N", "10", "--rho", "0.5",
        "--alpha", alpha,
    )
    assert code == 1 and out == ""
    assert "error:" in err and "alpha must be >= 1" in err


# ------------------------------------------------------------ oracle / run


def test_oracle_two_event_example(capsys, two_event_csv):
    code, out, _ = run_cli(
        capsys, "oracle", "--trace", two_event_csv, "--K", "1", "--rho", "0.5",
    )
    assert code == 0
    assert out.strip() == "1.0"


def test_run_reports_breakdown_and_beats_oracle(capsys, two_event_csv):
    code, out, _ = run_cli(
        capsys, "run", "--alg", "thb", "--trace", two_event_csv,
        "--K", "1", "--rho", "0.5", "--theta", "1.0",
    )
    assert code == 0
    total = float(next(l for l in out.splitlines() if l.startswith("total=")).split("=")[1])
    code, out, _ = run_cli(
        capsys, "oracle", "--trace", two_event_csv, "--K", "1", "--rho", "0.5",
    )
    assert total >= float(out.strip()) - 1e-9


def test_run_default_theta_is_the_bound_formula(capsys, two_event_csv):
    code, out, _ = run_cli(
        capsys, "run", "--alg", "thb", "--trace", two_event_csv, "--rho", "0.5",
    )
    assert code == 0
    assert f"theta={repr(threshold_none(1, 1, 1.0, 0.5))}" in out


@pytest.mark.parametrize("alpha", ["nan", "2"])
def test_run_alpha_only_without_theta(capsys, two_event_csv, alpha):
    # --alpha only sets the default threshold, so --theta leaves it unused
    code, out, err = run_cli(
        capsys, "run", "--alg", "thb", "--trace", two_event_csv,
        "--theta", "0.5", "--alpha", alpha,
    )
    assert code == 1 and out == ""
    assert err == "error: --alpha applies only without --theta\n"


@pytest.mark.parametrize("alg", ["thb", "itc"])
@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_run_rejects_non_finite_alpha(capsys, two_event_csv, alg, alpha):
    code, out, err = run_cli(
        capsys, "run", "--alg", alg, "--trace", two_event_csv, "--rho", "0.5",
        "--alpha", alpha,
    )
    assert code == 1 and out == ""
    assert "alpha must be >= 1" in err and "theta" not in err


def test_run_default_theta_for_itc_and_net(capsys, tmp_path):
    # without --theta, itc takes the full-regime threshold and net the
    # partial-regime one at the graph's x; total is evaluate's score
    trace_path = tmp_path / "t.csv"
    gen_trace(
        WorkloadSpec(PoissonArrivals(), BigEvents(), 60, 8, 5), ensure_k=2
    ).to_csv(trace_path)
    trace = EventTrace.from_csv(str(trace_path))
    g = gen_udg(8, 3.0, 1)
    fwd = greedy_mis(g)
    g = g.with_roles(
        [Role.FORWARD if v in fwd else Role.WITHHOLD for v in range(8)]
    )
    gpath = tmp_path / "g.txt"
    g.save(gpath)
    x = compute_x(g).value
    cost = LogCost()
    cases = [
        ("itc", (), threshold_full(8, 2, 1.0, 0.3),
         lambda pol: run_itc(trace, pol, 2, cost)),
        ("net", ("--graph", str(gpath)), threshold_partial(8, 2, 1.0, x, 0.3),
         lambda pol: run_net(trace, pol, 2, cost, g)),
    ]
    for alg, extra, theta, run in cases:
        code, out, _ = run_cli(
            capsys, "run", "--alg", alg, "--trace", str(trace_path), "--K", "2",
            "--rho", "0.3", "--cost", "log", *extra,
        )
        assert code == 0
        total = evaluate(run(ThresholdPolicy(theta)), trace, 2, 0.3, cost).total
        assert f"theta={theta!r}\n" in out, alg
        assert f"total={total!r}\n" in out, alg


def test_run_writes_schedule_csv(capsys, tmp_path):
    trace_path = tmp_path / "t.csv"
    EventTrace([0.0, 0.2, 5.0], [[1.0], [1.0], [1.0]]).to_csv(trace_path)
    out_path = tmp_path / "sched.csv"
    code, _, _ = run_cli(
        capsys, "run", "--alg", "thb", "--trace", str(trace_path),
        "--theta", "0.7", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "system,report_index,time,event_ids"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert first[3] == "0;1"  # batched events are semicolon-joined


def test_schedule_csv_matches_report_writer(capsys, tmp_path):
    trace_path = tmp_path / "t.csv"
    spec = WorkloadSpec(PoissonArrivals(), BigEvents(), 80, 5, 3)
    gen_trace(spec, ensure_k=1).to_csv(trace_path)
    out_path = tmp_path / "sched.csv"
    code, _, _ = run_cli(
        capsys, "run", "--alg", "thb", "--trace", str(trace_path),
        "--theta", "20", "--out", str(out_path),
    )
    assert code == 0
    sched = run_thb(
        EventTrace.from_csv(str(trace_path)), ThresholdPolicy(20.0), 1,
        UnityCost(),
    )
    assert out_path.read_text() == oracles.report_schedule_csv(sched)
    # systems send several reports carrying several ids each
    assert all(
        len(reports) >= 2 and sum(len(r.event_ids) >= 2 for r in reports) >= 2
        for reports in sched.per_system
    )
    # forwarded ids stay out of the file; a silent system writes no line
    hand = oracles.schedule_of([
        [Report(0.5, (3, 1), (4,)), Report(1.5, (2, 0, 5))],
        [],
        [Report(0.25, (7,)), Report(0.75, (), (6,)), Report(2.0, (8, 9))],
    ])
    assert _schedule_csv(hand) == oracles.report_schedule_csv(hand)


def test_run_net_requires_matching_graph(capsys, tmp_path, two_event_csv):
    code, _, err = run_cli(
        capsys, "run", "--alg", "net", "--trace", two_event_csv,
    )
    assert code == 1 and "--graph" in err
    gpath = tmp_path / "g.txt"
    CommGraph.complete(3).save(gpath)
    code, _, err = run_cli(
        capsys, "run", "--alg", "net", "--trace", two_event_csv,
        "--graph", str(gpath),
    )
    assert code == 1 and "3 nodes" in err


@pytest.mark.parametrize(
    "edge, message",
    [("0 x", "line 3: bad edge '0 x'"), ("1 1", "line 3: self-loop at node 1")],
    ids=["bad-edge", "self-loop"],
)
def test_run_graph_edge_line_diagnostic(capsys, tmp_path, edge, message):
    trace_path = tmp_path / "t.csv"
    EventTrace([0.0], [[1.0, 1.0]]).to_csv(trace_path)
    gpath = tmp_path / "g.txt"
    gpath.write_text(f"2\n0 1\n{edge}\n")
    code, out, err = run_cli(
        capsys, "run", "--alg", "net", "--trace", str(trace_path),
        "--graph", str(gpath),
    )
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("alg", ["thb", "itc"])
def test_run_undelivered_schedule_exits_one(capsys, tmp_path, alg):
    # the crossing of a subnormal pending weight overflows, so no report
    # fires; the run must fail instead of printing total=inf
    trace_path = tmp_path / "t.csv"
    trace_path.write_text("event_id,time,w_1\n0,1.0,1e-310\n")
    code, out, err = run_cli(
        capsys, "run", "--alg", alg, "--trace", str(trace_path),
        "--theta", "1",
    )
    assert code == 1 and out == ""
    assert err == "error: schedule never delivers events [0]\n"


@pytest.mark.parametrize("alg", ["thb", "itc"])
def test_run_graph_only_with_net(capsys, tmp_path, two_event_csv, alg):
    gpath = tmp_path / "g.txt"
    CommGraph.complete(1).save(gpath)
    code, out, err = run_cli(
        capsys, "run", "--alg", alg, "--trace", two_event_csv,
        "--graph", str(gpath),
    )
    assert code == 1 and out == ""
    assert "--graph applies only to --alg net" in err


def test_run_net_end_to_end(capsys, tmp_path):
    trace_path = tmp_path / "t.csv"
    EventTrace([0.0, 1.0], [[1.0, 0.5], [0.5, 1.0]]).to_csv(trace_path)
    gpath = tmp_path / "g.txt"
    CommGraph.complete(2).save(gpath)
    code, out, _ = run_cli(
        capsys, "run", "--alg", "net", "--trace", str(trace_path),
        "--graph", str(gpath), "--theta", "0.4",
    )
    assert code == 0 and "total=" in out


# -------------------------------------------------------------- generators


def test_gen_trace_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = (
        "gen-trace", "--arrivals", "weibull", "--events", "30",
        "--systems", "3", "--seed", "5",
    )
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    tr = EventTrace.from_csv(a)
    assert tr.n_events == 30 and tr.n_systems == 3


@pytest.mark.parametrize(
    "arrivals, model",
    [
        ("poisson", PoissonArrivals()),
        ("weibull", WeibullArrivals()),
        ("constant", ConstantArrivals()),
    ],
)
def test_gen_trace_default_mean_is_the_models(capsys, tmp_path, arrivals, model):
    p = tmp_path / "t.csv"
    code, _, _ = run_cli(
        capsys, "gen-trace", "--arrivals", arrivals, "--events", "20",
        "--systems", "3", "--seed", "4", "--out", str(p),
    )
    assert code == 0
    want = gen_trace(WorkloadSpec(model, BigEvents(), 20, 3, 4))
    assert EventTrace.from_csv(p) == want


def test_gen_trace_passes_the_models_options(capsys, tmp_path):
    p = tmp_path / "t.csv"
    code, _, _ = run_cli(
        capsys, "gen-trace", "--arrivals", "weibull", "--shape", "2",
        "--mean", "3", "--events", "20", "--systems", "3", "--out", str(p),
    )
    assert code == 0
    spec = WorkloadSpec(WeibullArrivals(2.0, 3.0), BigEvents(), 20, 3, 0)
    want = gen_trace(spec)
    assert EventTrace.from_csv(p) == want


@pytest.mark.parametrize(
    "arrivals, option, users",
    [
        ("poisson", "--interval", "constant"),
        ("constant", "--mean", "poisson or weibull"),
        ("constant", "--shape", "weibull"),
    ],
)
def test_gen_trace_rejects_options_of_other_arrivals(
    capsys, tmp_path, arrivals, option, users
):
    p = tmp_path / "t.csv"
    code, out, err = run_cli(
        capsys, "gen-trace", "--arrivals", arrivals, option, "5",
        "--events", "20", "--systems", "3", "--out", str(p),
    )
    assert code == 1 and out == "" and not p.exists()
    assert err == f"error: {option} applies only to --arrivals {users}\n"


def test_gen_trace_ensure_k(capsys, tmp_path):
    p = tmp_path / "t.csv"
    code, _, _ = run_cli(
        capsys, "gen-trace", "--arrivals", "constant", "--events", "12",
        "--systems", "4", "--seed", "2", "--ensure-k", "2", "--out", str(p),
    )
    assert code == 0
    EventTrace.from_csv(p).check_k_feasible(2)


def test_gen_trace_rejects_bad_spec(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "gen-trace", "--events", "0", "--systems", "2",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1 and "error:" in err


def test_gen_graph(capsys, tmp_path):
    p = tmp_path / "g.txt"
    code, out, _ = run_cli(
        capsys, "gen-graph", "--nodes", "30", "--avg-degree", "6",
        "--seed", "2", "--roles", "mis", "--out", str(p),
    )
    assert code == 0
    assert "x=" in out
    text = p.read_text()
    assert "positions" not in text
    g = CommGraph.load(p)
    assert g.n == 30
    assert 5.0 <= g.avg_degree <= 7.0
    assert len(g.forward_nodes()) > 0
    # the written file holds the generated graph: same edges, roles and x
    want = gen_udg(30, 6.0, 2)
    fwd = greedy_mis(want)
    want = want.with_roles(
        [Role.FORWARD if v in fwd else Role.WITHHOLD for v in range(30)]
    )
    assert g.edges == want.edges and g.roles == want.roles
    x = compute_x(g)
    assert f"x={x.value} ({'exact' if x.exact else 'approx'})" in out
    assert compute_x(want) == x


def test_gen_graph_infeasible(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "gen-graph", "--nodes", "5", "--avg-degree", "5",
        "--out", str(tmp_path / "g.txt"),
    )
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("degree", ["-1", "nan"])
def test_gen_graph_rejects_degree_outside_range(capsys, tmp_path, degree):
    # an input problem, not 60 failed sampling attempts (exit 2)
    code, _, err = run_cli(
        capsys, "gen-graph", "--nodes", "5", "--avg-degree", degree,
        "--out", str(tmp_path / "g.txt"),
    )
    assert code == 1
    assert err.startswith("error: target average degree")
    assert not (tmp_path / "g.txt").exists()


def test_gen_graph_generation_failure_exits_two(capsys, tmp_path):
    # a degree this low leaves every unit-disk graph on 30 nodes
    # disconnected: a runtime failure, not an input problem
    code, _, err = run_cli(
        capsys, "gen-graph", "--nodes", "30", "--avg-degree", "0.5",
        "--out", str(tmp_path / "g.txt"),
    )
    assert code == 2
    assert "no connected unit-disk graph" in err
    assert not (tmp_path / "g.txt").exists()


# ------------------------------------------------------------------- sweep


def write_config(tmp_path, text):
    p = tmp_path / "cfg.json"
    p.write_text(text)
    return str(p)


def test_sweep_outputs_and_reproducibility(capsys, tmp_path):
    cfg = write_config(
        tmp_path,
        '{"scenario": "SPU", "mode": "none", "N": [5], "K": [1],'
        ' "rho": [0.5], "runs": 2, "n_events": 30, "seed": 1}',
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli(capsys, "sweep", "--config", cfg, "--out", str(out1))[0] == 0
    assert run_cli(capsys, "sweep", "--config", cfg, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "r1.summary.csv").exists()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("scenario_code,mode,N,K,rho,theta,seed")


def test_sweep_timing_breaks_no_columns(capsys, tmp_path):
    cfg = write_config(
        tmp_path,
        '{"scenario": "SPU", "mode": "none", "N": [4], "K": [1],'
        ' "rho": [0.5], "runs": 1, "n_events": 10, "seed": 0}',
    )
    out = tmp_path / "r.csv"
    assert run_cli(
        capsys, "sweep", "--config", cfg, "--out", str(out), "--timing"
    )[0] == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[10] != ""


def test_sweep_bad_config(capsys, tmp_path):
    cfg = write_config(tmp_path, "{oops")
    code, _, err = run_cli(
        capsys, "sweep", "--config", cfg, "--out", str(tmp_path / "r.csv")
    )
    assert code == 1 and "line" in err


def test_sweep_worker_count_errors_exit_one(capsys, tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path,
        '{"scenario": "SPU", "mode": "none", "N": [4], "K": [1],'
        ' "rho": [0.5], "runs": 1, "n_events": 10, "seed": 0}',
    )
    out = str(tmp_path / "r.csv")
    for workers in ("0", "-1"):
        code, _, err = run_cli(
            capsys, "sweep", "--config", cfg, "--out", out, "--workers", workers
        )
        assert code == 1
        assert err.startswith("error:") and "workers" in err
        assert "Traceback" not in err
    # an unparsable DIA_THREADS no longer reaches the pool size
    monkeypatch.setenv("DIA_THREADS", "abc")
    assert run_cli(
        capsys, "sweep", "--config", cfg, "--out", out, "--workers", "1"
    )[0] == 0


def test_sweep_non_integer_counts_exit_one(capsys, tmp_path):
    for entry in (
        '"N": [2.5], "K": [1]',
        '"N": [4], "K": [1.5]',
        '"N": [4], "K": [1], "runs": 1.5',
        '"N": [4], "K": [1], "n_events": 10.5',
        '"N": [4], "K": [1], "seed": -1',
        '"N": [4], "K": [1], "seed": 1.5',
    ):
        cfg = write_config(
            tmp_path,
            '{"scenario": "SPU", "mode": "none", "rho": [0.5], %s}' % entry,
        )
        code, _, err = run_cli(
            capsys, "sweep", "--config", cfg, "--out", str(tmp_path / "r.csv"),
            "--workers", "1",
        )
        assert code == 1, entry
        assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("avg_degree", "x", "avg_degree must be a number"),
        ("scenario", 5, "scenario must be a string"),
        ("rho", ["a"], "rho values must be numbers"),
        ("perturb_pct", "x", "perturb_pct must be a number"),
        ("theta", "x", "theta must be a number"),
    ],
)
def test_sweep_wrongly_typed_config_names_the_key(
    capsys, tmp_path, key, value, message
):
    config = {
        "scenario": "SPU", "mode": "none", "N": [4], "K": [1], "rho": [0.5],
    }
    config[key] = value
    cfg = write_config(tmp_path, json.dumps(config))
    code, _, err = run_cli(
        capsys, "sweep", "--config", cfg, "--out", str(tmp_path / "r.csv"),
        "--workers", "1",
    )
    assert code == 1
    assert f"error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ('"mode": "none", "theta": NaN', "theta must be finite, got nan"),
        ('"mode": "full", "theta": [0.5, Infinity]', "theta must be finite"),
        ('"mode": "n1", "avg_degree": NaN', "avg_degree must be finite, got nan"),
        ('"mode": "n2", "avg_degree": Infinity', "avg_degree must be finite"),
    ],
)
def test_sweep_non_finite_config_value_names_the_key(
    capsys, tmp_path, entry, message
):
    # json.loads accepts the NaN and Infinity literals
    cfg = write_config(
        tmp_path,
        '{"scenario": "SPU", "N": [4], "K": [1], "rho": [0.5],'
        ' "n_events": 20, %s}' % entry,
    )
    code, _, err = run_cli(
        capsys, "sweep", "--config", cfg, "--out", str(tmp_path / "r.csv"),
        "--workers", "1",
    )
    assert code == 1
    assert f"error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


# ------------------------------------------------------------- exit status


def test_malformed_trace_gives_line_diagnostic(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("event_id,time,w_1\n0,0.0,1.0\n1,zero,1.0\n")
    code, _, err = run_cli(capsys, "oracle", "--trace", str(p))
    assert code == 1
    assert "line 3" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv", [("oracle",), ("run", "--alg", "thb", "--theta", "1")]
)
def test_overflowing_trace_fails_loudly(capsys, tmp_path, argv):
    # 3e10 * 1e298 overflows at the first row; unchecked, the oracle
    # printed nan and the run total=inf, both with exit 0
    p = tmp_path / "big.csv"
    p.write_text(
        "event_id,time,w_1\n0,1e10,1e298\n1,2e10,1e298\n2,3e10,1e298\n"
    )
    code, out, err = run_cli(capsys, *argv, "--trace", str(p))
    assert code == 1 and out == ""
    assert err.startswith("error: line 2: ")


def test_missing_file_is_runtime_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "oracle", "--trace", str(tmp_path / "nope.csv")
    )
    assert code == 2 and "error:" in err


def test_unknown_flag_rejected(capsys):
    assert run_cli(capsys, "oracle", "--bogus", "x")[0] == 1


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
