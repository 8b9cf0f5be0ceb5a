"""Per-layer tracing for the sweep benchmark.

`traced()` swaps the public entry points that `aggsim.harness` resolves at
call time (trace and graph generation, the three online engines, `evaluate`
and `offline_lb`) and the CSV writers that `aggsim.cli` resolves, for
wrappers that record one span per call: its layer, its sweep point, its
duration and the counts the layer produced. The program's own files are not
touched, so a traced sweep takes the same code path as an untraced one.
The wrapped calls never nest, so a span's duration is its layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field

# harness-level name -> layer; offline_lb splits into k1/kn by its K
HARNESS_LAYERS = {
    "gen_trace": "workload.gen_trace",
    "gen_udg": "graph",
    "greedy_mis": "graph",
    "greedy_cds": "graph",
    "run_thb": "online.thb",
    "run_itc": "online.itc",
    "run_net": "online.net",
    "evaluate": "model.evaluate",
    "offline_lb": "offline",
}
CLI_LAYERS = {
    "write_results": "cli.write",
    "aggregate": "cli.write",
    "write_summary": "cli.write",
}
ONLINE = ("online.thb", "online.itc", "online.net")
OFFLINE = ("offline.k1", "offline.kn")


@dataclass
class Span:
    layer: str
    config: str | None
    point: tuple | None
    seconds: float
    counts: dict = field(default_factory=dict)


def _schedule_counts(sched) -> dict:
    reports = [r for per in sched.per_system for r in per]
    return {
        "reports": len(reports),
        "originated": sum(len(r.event_ids) for r in reports),
        "forwarded": sum(len(r.forwarded_ids) for r in reports),
    }


class Tracer:
    """Spans recorded in memory; `config` names the config being swept."""

    def __init__(self):
        self.spans: list[Span] = []
        self.config: str | None = None
        self._point: tuple | None = None

    def _wrap(self, name: str, layer: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            if name == "gen_trace":
                # every repetition starts with its trace; the point is the
                # config plus the (N, K) the trace is drawn for
                self._point = (
                    self.config, bound["spec"].n_systems, bound.get("ensure_k")
                )
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0
            counts: dict = {}
            span_layer = layer
            if name in ("run_thb", "run_itc", "run_net"):
                counts = _schedule_counts(out)
                counts.update(events=bound["trace"].n_events, k=bound["k"])
            elif name == "evaluate":
                counts = {"reports": bound["schedule"].total_reports()}
            elif name == "offline_lb":
                m = bound["trace"].n_events
                span_layer = "offline.k1" if bound["k"] == 1 else "offline.kn"
                counts = {"cells": m * (m + 1) // 2}
            elif name in ("greedy_mis", "greedy_cds"):
                counts = {"forward": len(out)}
            point = None if layer == "cli.write" else self._point
            self.spans.append(Span(span_layer, self.config, point, seconds, counts))
            return out

        return traced_call

    def calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if s.layer == layer)


@contextlib.contextmanager
def traced(harness, cli):
    """Install a fresh Tracer on the two modules; restore them on exit."""
    tracer = Tracer()
    saved = []
    for module, layers in ((harness, HARNESS_LAYERS), (cli, CLI_LAYERS)):
        for name, layer in layers.items():
            fn = getattr(module, name)
            saved.append((module, name, fn))
            setattr(module, name, tracer._wrap(name, layer, fn))
    try:
        yield tracer
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(
    spans: list[Span], workers: int, sweep_s: float, cpu_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced sweep, as name -> (value, unit).

    `sweep_s` and `cpu_s` are medians of untraced runs of the same configs
    at `workers` pool workers; the harness metrics compare the traced serial
    work against them. `harness.overhead_s` is the difference of two
    measured times taken minutes apart, so it is small against either and
    can come out at or below 0 when the host's speed moves between them:
    read it in seconds, not as a share of a previous value.
    """
    by: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by[s.layer].append(s)

    def busy(*layers: str) -> float:
        return sum(s.seconds for layer in layers for s in by[layer])

    def count(key: str, *layers: str) -> int:
        return sum(s.counts.get(key, 0) for layer in layers for s in by[layer])

    online = [s for layer in ONLINE for s in by[layer]]
    events = sum(s.counts["events"] for s in online)
    needed = sum(s.counts["events"] * s.counts["k"] for s in online)
    originated = count("originated", *ONLINE)
    cells = count("cells", *OFFLINE)

    serial_work = sum(s.seconds for s in spans)
    point_work: dict[tuple, float] = defaultdict(float)
    config_serial: dict[str | None, float] = defaultdict(float)
    for s in spans:
        if s.point is None:
            config_serial[s.config] += s.seconds
        else:
            point_work[s.point] += s.seconds
    # Shortest possible sweep: configs run one after another; within one,
    # points share the pool and the CSV writing is serial.
    ideal = sum(config_serial.values())
    for config in {p[0] for p in point_work}:
        works = [w for p, w in point_work.items() if p[0] == config]
        ideal += max(sum(works) / workers, max(works))

    return {
        "workload.gen_trace.calls": (len(by["workload.gen_trace"]), "count"),
        "workload.gen_trace.busy_s": (busy("workload.gen_trace"), "s"),
        "graph.calls": (len(by["graph"]), "count"),
        "graph.busy_s": (busy("graph"), "s"),
        "graph.forward_nodes": (count("forward", "graph"), "count"),
        "online.thb.busy_s": (busy("online.thb"), "s"),
        "online.itc.busy_s": (busy("online.itc"), "s"),
        "online.net.busy_s": (busy("online.net"), "s"),
        "online.calls": (len(online), "count"),
        "online.reports": (count("reports", *ONLINE), "count"),
        "online.originated_ids": (originated, "count"),
        "online.forwarded_ids": (count("forwarded", *ONLINE), "count"),
        "online.us_per_event": (_per(busy(*ONLINE), events, 1e6), "us"),
        "online.ids_per_needed": (_per(originated, needed), "ratio"),
        "model.evaluate.busy_s": (busy("model.evaluate"), "s"),
        "model.evaluate.us_per_report": (
            _per(busy("model.evaluate"), count("reports", "model.evaluate"), 1e6),
            "us",
        ),
        "offline.k1.busy_s": (busy("offline.k1"), "s"),
        "offline.kn.busy_s": (busy("offline.kn"), "s"),
        "offline.dp_cells": (cells, "count"),
        "offline.ns_per_cell": (_per(busy(*OFFLINE), cells, 1e9), "ns"),
        "harness.units": (len(point_work), "count"),
        "harness.serial_work_s": (serial_work, "s"),
        "harness.core_util": (_per(serial_work, workers * sweep_s), "ratio"),
        "harness.straggler_s": (max(point_work.values(), default=0.0), "s"),
        "harness.overhead_s": (sweep_s - ideal, "s"),
        "cli.write_s": (busy("cli.write"), "s"),
        "trace.serial_work_per_cpu_s": (_per(serial_work, cpu_s), "ratio"),
    }
