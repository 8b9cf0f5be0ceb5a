"""Command-line front end.

Subcommands: gen-trace, gen-graph, run, oracle, sweep, theta. Exit status is
0 on success, 1 on an input or validation problem (with a line-numbered
diagnostic where the source file allows it), and 2 on unexpected runtime
failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .graph import (
    CommGraph,
    GenerationError,
    Role,
    compute_x,
    gen_udg,
    greedy_cds,
    greedy_mis,
)
from .harness import aggregate, load_config, run_scenario, write_results, write_summary
from .model import (
    EventTrace,
    ReportSchedule,
    ValidationError,
    evaluate,
    parse_cost,
)
from .offline import offline_lb
from .online import (
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
    ThresholdPolicy,
)
from .workload import (
    BigEvents,
    ConstantArrivals,
    PoissonArrivals,
    SmallEvents,
    WeibullArrivals,
    WorkloadSpec,
    gen_trace,
)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="aggsim",
        description="Deterministic simulator for K-report event aggregation.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="generate a random workload trace")
    p.add_argument("--arrivals", choices=("constant", "poisson", "weibull"),
                   default="poisson")
    p.add_argument("--interval", type=float, default=None,
                   help="gap for constant arrivals (default 20)")
    p.add_argument("--mean", type=float, default=None,
                   help="mean gap for poisson (default 20) or weibull "
                        "(default 10) arrivals")
    p.add_argument("--shape", type=float, default=None,
                   help="weibull shape parameter (default 0.5)")
    p.add_argument("--magnitude", choices=("big", "small"), default="big")
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--systems", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ensure-k", type=int, default=None,
                   help="redraw rows observed by fewer than K systems")
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen-graph", help="generate a random unit-disk graph")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--avg-degree", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--roles", choices=("none", "mis", "cds"), default="none",
                   help="forward-role assignment")
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="run one online algorithm on a trace")
    p.add_argument("--alg", choices=("thb", "itc", "net"), required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--cost", default="unity")
    p.add_argument("--theta", type=float, default=None,
                   help="trigger threshold (default: matching bound formula)")
    p.add_argument("--alpha", type=float, default=None,
                   help="cost spread used for the default threshold "
                        "(default 1)")
    p.add_argument("--graph", default=None, help="graph file for --alg net")
    p.add_argument("--out", default=None, help="write the schedule as CSV")

    p = sub.add_parser("oracle", help="offline lower-bound value for a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--cost", default="unity")

    p = sub.add_parser("sweep", help="run a scenario sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--timing", action="store_true",
                   help="record wall times (breaks byte-reproducibility)")
    p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("theta", help="threshold and ratio bound for a setting")
    p.add_argument("--mode", choices=("none", "full", "partial"), required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--x", type=float, default=None,
                   help="network parameter (partial mode)")
    return top


def _schedule_csv(schedule: ReportSchedule) -> str:
    """One line per report in (system, time) order, with its index among
    the system's reports and the ids it originates."""
    system = schedule.system
    first = np.searchsorted(system, system).tolist()
    cuts = np.searchsorted(
        schedule.orig_report, np.arange(system.size + 1)
    ).tolist()
    ids = [str(j) for j in schedule.orig_id.tolist()]
    lines = ["system,report_index,time,event_ids"]
    for r, (i, t) in enumerate(zip(system.tolist(), schedule.time.tolist())):
        ids_r = ";".join(ids[cuts[r] : cuts[r + 1]])
        lines.append(f"{i},{r - first[r]},{t!r},{ids_r}")
    return "\n".join(lines) + "\n"


# each arrival model with the gen-trace options it takes
_ARRIVALS = {
    "constant": (ConstantArrivals, ("interval",)),
    "poisson": (PoissonArrivals, ("mean",)),
    "weibull": (WeibullArrivals, ("shape", "mean")),
}


def _cmd_gen_trace(args) -> int:
    model, takes = _ARRIVALS[args.arrivals]
    given = {
        name: value
        for name in ("interval", "mean", "shape")
        if (value := getattr(args, name)) is not None
    }
    for name in given:
        if name not in takes:
            users = [a for a, (_, opts) in _ARRIVALS.items() if name in opts]
            raise ValidationError(
                f"--{name} applies only to --arrivals {' or '.join(users)}"
            )
    # an unset option leaves the model's own default
    arrivals = model(**given)
    magnitude = BigEvents() if args.magnitude == "big" else SmallEvents()
    spec = WorkloadSpec(arrivals, magnitude, args.events, args.systems, args.seed)
    trace = gen_trace(spec, ensure_k=args.ensure_k)
    trace.to_csv(args.out)
    print(f"wrote {trace.n_events} events x {trace.n_systems} systems to {args.out}")
    return 0


def _cmd_gen_graph(args) -> int:
    g = gen_udg(args.nodes, args.avg_degree, args.seed)
    if args.roles != "none":
        fwd = greedy_mis(g) if args.roles == "mis" else greedy_cds(g)
        g = g.with_roles(
            [Role.FORWARD if v in fwd else Role.WITHHOLD for v in range(g.n)]
        )
    g.save(args.out)
    x = compute_x(g)
    kind = "exact" if x.exact else "approx"
    print(
        f"wrote n={g.n} edges={len(g.edges)} "
        f"avg_degree={g.avg_degree:.3f} x={x.value} ({kind}) to {args.out}"
    )
    return 0


def _cmd_run(args) -> int:
    trace = EventTrace.from_csv(args.trace)
    cost_fn = parse_cost(args.cost)
    n = trace.n_systems
    graph = x = None
    if args.alg == "net":
        if args.graph is None:
            raise ValidationError("--alg net requires --graph")
        graph = CommGraph.load(args.graph)
        if graph.n != n:
            raise ValidationError(
                f"graph has {graph.n} nodes but the trace has {n} systems"
            )
        x = compute_x(graph).value
    elif args.graph is not None:
        raise ValidationError("--graph applies only to --alg net")
    elif args.alg == "itc":
        x = 1
    theta = args.theta
    if theta is None:
        alpha = 1.0 if args.alpha is None else args.alpha
        theta = default_theta(n, args.K, alpha, args.rho, x)
    elif args.alpha is not None:
        raise ValidationError("--alpha applies only without --theta")
    policy = ThresholdPolicy(theta)
    if args.alg == "thb":
        sched = run_thb(trace, policy, args.K, cost_fn)
    elif args.alg == "itc":
        sched = run_itc(trace, policy, args.K, cost_fn)
    else:
        sched = run_net(trace, policy, args.K, cost_fn, graph)
    out = evaluate(sched, trace, args.K, args.rho, cost_fn)
    out.check_delivered()
    print(f"theta={repr(theta)}")
    print(f"reports={sched.total_reports()}")
    print(f"comm={repr(out.comm)}")
    print(f"latency={repr(out.latency)}")
    print(f"total={repr(out.total)}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_schedule_csv(sched))
    return 0


def _cmd_oracle(args) -> int:
    trace = EventTrace.from_csv(args.trace)
    cost_fn = parse_cost(args.cost)
    result = offline_lb(trace, args.K, args.rho, cost_fn)
    print(repr(result.value))
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    rows = run_scenario(cfg, workers=args.workers)
    write_results(args.out, rows, timing=args.timing)
    summary_path = (
        args.out[: -len(".csv")] if args.out.endswith(".csv") else args.out
    ) + ".summary.csv"
    write_summary(summary_path, aggregate(rows))
    errors = sum(1 for r in rows if r.error is not None)
    print(f"wrote {len(rows)} rows to {args.out} ({errors} errors)")
    print(f"wrote summary to {summary_path}")
    return 0


def _cmd_theta(args) -> int:
    if args.x is not None and args.mode != "partial":
        raise ValidationError("--x applies only to --mode partial")
    if args.mode == "none":
        theta = threshold_none(args.N, args.K, args.alpha, args.rho)
        cr = ratio_none(args.N, args.K, args.alpha)
    elif args.mode == "full":
        theta = threshold_full(args.N, args.K, args.alpha, args.rho)
        cr = ratio_full(args.N, args.K, args.alpha)
    else:
        if args.x is None:
            raise ValidationError("--mode partial requires --x")
        theta = threshold_partial(args.N, args.K, args.alpha, args.x, args.rho)
        cr = ratio_partial(args.N, args.K, args.alpha, args.x)
    print(f"theta={repr(theta)}")
    print(f"CR={repr(cr)}")
    if args.mode != "none":
        x = 1.0 if args.mode == "full" else args.x
        print(f"phi={repr(balance_root(args.N, args.K, args.alpha, x))}")
    return 0


_COMMANDS = {
    "gen-trace": _cmd_gen_trace,
    "gen-graph": _cmd_gen_graph,
    "run": _cmd_run,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
    "theta": _cmd_theta,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; that is an input problem here
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
