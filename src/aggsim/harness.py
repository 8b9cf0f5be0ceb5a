"""Scenario orchestration: sweeps over system count, report requirement,
cost blend, and intercommunication mode, with per-seed algorithm and oracle
runs aggregated into deterministic CSV tables.

Scenario codes are three letters: magnitude (Big / S mall), arrivals
(C onstant / P oisson / H eavy-tailed), cost (U nity / L og). The extra code
ADV2 replays the two-event adversarial instance, optionally perturbed.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import numbers
import os
import statistics
import time
from dataclasses import dataclass, fields

import numpy as np

from .graph import CommGraph, GenerationError, gen_udg, greedy_cds, greedy_mis, Role
from .model import (
    CommCost,
    LogCost,
    UnityCost,
    ValidationError,
    evaluate,
)
from .online import (
    ThresholdPolicy,
    run_itc,
    run_net,
    run_thb,
    threshold_full,
    threshold_none,
    threshold_partial,
)
from .offline import offline_lb
from .workload import (
    BigEvents,
    ConstantArrivals,
    PoissonArrivals,
    SmallEvents,
    WeibullArrivals,
    WorkloadSpec,
    gen_thm6_instance,
    gen_trace,
    perturb,
)

MODES = ("none", "full", "nc", "fc", "n1", "n2")

_MAGNITUDES = {"B": BigEvents, "S": SmallEvents}
_ARRIVALS = {"C": ConstantArrivals, "P": PoissonArrivals, "H": WeibullArrivals}
_COSTS = {"U": UnityCost, "L": LogCost}


class ConfigError(ValidationError):
    """Raised on a malformed scenario configuration."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_code: str
    mode: str
    n_values: tuple[int, ...]
    k_values: tuple[int, ...]
    rho_values: tuple[float, ...]
    theta_values: tuple[float | None, ...] = (None,)
    runs: int = 50
    n_events: int = 2000
    seed: int = 0
    perturb_pct: float = 0.0
    avg_degree: float = 18.0

    def __post_init__(self):
        code = self.scenario_code
        if not isinstance(code, str):
            raise ConfigError(f"scenario must be a string, got {code!r}")
        if code != "ADV2":
            if (
                len(code) != 3
                or code[0] not in _MAGNITUDES
                or code[1] not in _ARRIVALS
                or code[2] not in _COSTS
            ):
                raise ConfigError(f"unknown scenario code {code!r}")
        elif self.mode != "none":
            raise ConfigError("ADV2 replay runs without intercommunication")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("n_values", "k_values", "rho_values", "theta_values"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be non-empty")
        if any(not _is_int(n) or n < 1 for n in self.n_values):
            raise ConfigError("N values must be integers >= 1")
        if any(not _is_int(k) or k < 1 for k in self.k_values):
            raise ConfigError("K values must be integers >= 1")
        if any(not _is_real(r) or not 0.0 < r < 1.0 for r in self.rho_values):
            raise ConfigError("rho values must be numbers in (0, 1)")
        if any(t is not None and not _is_real(t) for t in self.theta_values):
            raise ConfigError(
                "theta must be a number, a list of numbers or null"
            )
        if any(t is not None and t <= 0 for t in self.theta_values):
            raise ConfigError("theta overrides must be positive")
        for t in self.theta_values:
            if t is not None and not t < math.inf:  # inf or NaN
                raise ConfigError(f"theta must be finite, got {t}")
        if not _is_int(self.runs) or self.runs < 1:
            raise ConfigError("runs must be an integer >= 1")
        if not _is_int(self.n_events) or self.n_events < 1:
            raise ConfigError("n_events must be an integer >= 1")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError("seed must be an integer >= 0")
        pct = self.perturb_pct
        if not _is_real(pct) or not 0.0 <= pct <= 1.0:
            raise ConfigError("perturb_pct must be a number in [0, 1]")
        if not _is_real(self.avg_degree) or self.avg_degree < 0:
            raise ConfigError("avg_degree must be a number >= 0")
        if not self.avg_degree < math.inf:  # inf or NaN
            raise ConfigError(f"avg_degree must be finite, got {self.avg_degree}")

    @property
    def points(self) -> list[tuple[int, int, float, float | None]]:
        return [
            (n, k, rho, theta)
            for n in self.n_values
            for k in self.k_values
            for rho in self.rho_values
            for theta in self.theta_values
        ]


_CONFIG_KEYS = {
    "scenario": "scenario_code",
    "mode": "mode",
    "N": "n_values",
    "K": "k_values",
    "rho": "rho_values",
    "theta": "theta_values",
    "runs": "runs",
    "n_events": "n_events",
    "seed": "seed",
    "perturb_pct": "perturb_pct",
    "avg_degree": "avg_degree",
}


def parse_config(text: str) -> ScenarioConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, field in _CONFIG_KEYS.items():
        if key not in raw:
            continue
        value = raw[key]
        if field in ("n_values", "k_values", "rho_values"):
            if not isinstance(value, list):
                raise ConfigError(f"{key} must be a list")
            kwargs[field] = tuple(value)
        elif field == "theta_values":
            if value is None:
                kwargs[field] = (None,)
            elif isinstance(value, list):
                kwargs[field] = tuple(value)
            else:
                kwargs[field] = (value,)
        else:
            kwargs[field] = value
    for required in ("scenario_code", "mode", "n_values", "k_values", "rho_values"):
        if required not in kwargs:
            name = next(k for k, f in _CONFIG_KEYS.items() if f == required)
            raise ConfigError(f"missing required config key {name!r}")
    return ScenarioConfig(**kwargs)


def load_config(path: str) -> ScenarioConfig:
    with open(path) as fh:
        return parse_config(fh.read())


@dataclass(frozen=True)
class ResultRow:
    scenario_code: str
    mode: str
    n: int
    k: int
    rho: float
    theta: float | None
    seed: int | None
    alg_cost: float | None = None
    oracle_value: float | None = None
    ratio: float | None = None
    wall_time: float | None = None
    alpha: float | None = None
    error: str | None = None


def _alpha_for(code: str, n: int, n_events: int) -> float:
    if code == "ADV2" or _COSTS[code[2]] is UnityCost:
        return 1.0
    high = _MAGNITUDES[code[0]]().high(n)
    return math.log(2.0 + high * n_events) / math.log(2.0)


def _default_theta(
    mode: str, n: int, k: int, alpha: float, rho: float, x: float
) -> float:
    if mode == "none":
        return threshold_none(n, k, alpha, rho)
    if mode == "full":
        return threshold_full(n, k, alpha, rho)
    return threshold_partial(n, k, alpha, x, rho)


def _x_for(mode: str, n: int, graph: CommGraph | None) -> float:
    if mode in ("none", "nc"):
        return float(n)
    if mode in ("full", "fc"):
        return 1.0
    return float(len(graph.forward_nodes()))


def _seed_pair(cfg_seed: int, point_idx: int, rep: int) -> tuple[int, int]:
    ss = np.random.SeedSequence([cfg_seed, point_idx, rep])
    state = ss.generate_state(2)
    return int(state[0]), int(state[1])


def _build_graph(
    cfg: ScenarioConfig, n: int, mode: str, graph_seed: int
) -> CommGraph:
    g = gen_udg(n, cfg.avg_degree, graph_seed)
    fwd = greedy_mis(g) if mode == "n1" else greedy_cds(g)
    roles = [
        Role.FORWARD if v in fwd else Role.WITHHOLD for v in range(n)
    ]
    return g.with_roles(roles)


def _run_rep(
    cfg: ScenarioConfig,
    point_idx: int,
    rep: int,
    n: int,
    k: int,
    rho: float,
    theta_override: float | None,
) -> ResultRow:
    trace_seed, graph_seed = _seed_pair(cfg.seed, point_idx, rep)
    code = cfg.scenario_code
    alpha = _alpha_for(code, n, cfg.n_events)

    if code == "ADV2":
        cost_fn: CommCost = UnityCost()
        trace = gen_thm6_instance(n, np.full(n, 1.0 / n), 1.0, 1e-6)
        trace = perturb(trace, cfg.perturb_pct, trace_seed)
        theta = theta_override if theta_override is not None else 1.0 / n
        graph = None
    else:
        cost_fn = _COSTS[code[2]]()
        spec = WorkloadSpec(
            _ARRIVALS[code[1]](),
            _MAGNITUDES[code[0]](),
            cfg.n_events,
            n,
            trace_seed,
        )
        trace = gen_trace(spec, ensure_k=k)
        graph = (
            _build_graph(cfg, n, cfg.mode, graph_seed)
            if cfg.mode in ("n1", "n2")
            else None
        )
        x = _x_for(cfg.mode, n, graph)
        theta = (
            theta_override
            if theta_override is not None
            else _default_theta(cfg.mode, n, k, alpha, rho, x)
        )
    policy = ThresholdPolicy(theta)

    # nc and fc keep the partial-regime theta at x = N and x = 1, where
    # run_net on the empty and complete graphs equals run_thb and run_itc
    t0 = time.perf_counter()
    if cfg.mode in ("none", "nc"):
        sched = run_thb(trace, policy, k, cost_fn)
    elif cfg.mode in ("full", "fc"):
        sched = run_itc(trace, policy, k, cost_fn)
    else:
        sched = run_net(trace, policy, k, cost_fn, graph)
    wall = time.perf_counter() - t0

    alg_cost = evaluate(sched, trace, k, rho, cost_fn).total
    oracle = offline_lb(trace, k, rho, cost_fn).value
    return ResultRow(
        scenario_code=code,
        mode=cfg.mode,
        n=n,
        k=k,
        rho=rho,
        theta=theta,
        seed=trace_seed,
        alg_cost=alg_cost,
        oracle_value=oracle,
        ratio=alg_cost / oracle,
        wall_time=wall,
        alpha=alpha,
    )


def _point_error(cfg: ScenarioConfig, n: int, k: int) -> str | None:
    """Why no repetition of a sweep point can run, or None."""
    if k > n:
        return f"K={k} exceeds N={n}"
    if cfg.mode in ("n1", "n2") and cfg.avg_degree >= n:
        return f"avg_degree={cfg.avg_degree} not below N={n}"
    return None


def _run_unit(args: tuple[ScenarioConfig, int, int]) -> ResultRow:
    """One repetition of one sweep point, or the point's error row."""
    cfg, point_idx, rep = args
    n, k, rho, theta = cfg.points[point_idx]
    point = (cfg.scenario_code, cfg.mode, n, k, rho, theta)
    message = _point_error(cfg, n, k)
    if message is not None:
        return ResultRow(*point, None, error=message)
    try:
        return _run_rep(cfg, point_idx, rep, n, k, rho, theta)
    except (ValidationError, GenerationError) as exc:
        seed, _ = _seed_pair(cfg.seed, point_idx, rep)
        return ResultRow(*point, seed, error=str(exc))


def worker_count(requested: int | None = None) -> int:
    """Pool size: the request capped at the core count, or all cores."""
    cores = os.cpu_count() or 1
    if requested is None:
        return cores
    if requested < 1:
        raise ValidationError(f"workers must be >= 1, got {requested}")
    return min(requested, cores)


def run_scenario(
    cfg: ScenarioConfig, workers: int | None = None
) -> list[ResultRow]:
    """Execute every sweep point x seed and return sorted result rows.

    Each (point, repetition) pair is one unit, seeded from (cfg.seed,
    point, repetition) alone; a point that cannot run is one unit giving
    its error row. Units are listed point-major and `pool.map` keeps that
    order, so the worker count never changes the result.
    """
    n_workers = worker_count(workers)
    units = [
        (cfg, idx, rep)
        for idx, (n, k, _, _) in enumerate(cfg.points)
        for rep in range(1 if _point_error(cfg, n, k) else cfg.runs)
    ]
    if n_workers == 1 or len(units) == 1:
        rows = [_run_unit(u) for u in units]
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(n_workers, len(units))
        ) as pool:
            rows = list(pool.map(_run_unit, units))
    rows.sort(
        key=lambda r: (
            r.scenario_code,
            r.n,
            r.k,
            r.rho,
            -1 if r.seed is None else r.seed,
        )
    )
    return rows


@dataclass(frozen=True)
class SummaryRow:
    scenario_code: str
    mode: str
    n: int
    k: int
    rho: float
    theta: float | None
    mean_ratio: float
    stddev_ratio: float
    min_ratio: float
    max_ratio: float
    count: int


def aggregate(rows: list[ResultRow]) -> list[SummaryRow]:
    """Per-sweep-point ratio statistics; error rows are skipped."""
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        if row.error is not None:
            continue
        key = (row.scenario_code, row.mode, row.n, row.k, row.rho, row.theta)
        groups.setdefault(key, []).append(row.ratio)
    out = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2], k[3], k[4], k[5] or 0.0)):
        ratios = groups[key]
        out.append(
            SummaryRow(
                *key,
                mean_ratio=statistics.fmean(ratios),
                stddev_ratio=statistics.pstdev(ratios),
                min_ratio=min(ratios),
                max_ratio=max(ratios),
                count=len(ratios),
            )
        )
    return out


# CSV emission: repr() for floats so repeated sweeps are byte-identical.

RESULT_COLUMNS = (
    "scenario_code,mode,N,K,rho,theta,seed,alg_cost,oracle_value,ratio,"
    "wall_time,alpha,error"
)
SUMMARY_COLUMNS = (
    "scenario_code,mode,N,K,rho,theta,mean_ratio,stddev_ratio,min_ratio,"
    "max_ratio,count"
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _to_csv(columns: str, rows: list, blank: str | None = None) -> str:
    """One line per dataclass row, its fields in declaration order; the
    field named `blank` is left empty."""
    lines = [columns]
    for r in rows:
        lines.append(
            ",".join(
                "" if f.name == blank else _cell(getattr(r, f.name))
                for f in fields(r)
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_csv(rows: list[ResultRow], timing: bool = False) -> str:
    return _to_csv(RESULT_COLUMNS, rows, None if timing else "wall_time")


def summary_to_csv(summaries: list[SummaryRow]) -> str:
    return _to_csv(SUMMARY_COLUMNS, summaries)


def write_results(path: str, rows: list[ResultRow], timing: bool = False) -> None:
    with open(path, "w") as fh:
        fh.write(rows_to_csv(rows, timing=timing))


def write_summary(path: str, summaries: list[SummaryRow]) -> None:
    with open(path, "w") as fh:
        fh.write(summary_to_csv(summaries))
