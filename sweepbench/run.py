"""Sweep benchmark for aggsim: `aggsim sweep` end to end and layer by layer.

    python3 sweepbench/run.py --workload {indep,overhear,long-log} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; aggsim is imported from its `src/`.
With --trace 0 it repeats the workload's sweeps, each repetition in a fresh
interpreter at two pool workers, for about S seconds, times a fixed
reference kernel after each sweep (see reference.py) and reports medians of
the end-to-end metrics, the declared times in units of the kernel's time.
With --trace 1 it runs at least two such repetitions, then replays the same
configs in this process at one worker with every layer's entry points
wrapped (see layers.py) and reports per-layer metrics. Every
sweep's CSVs are checked: no error rows, every ratio at least 1, the same
bytes on every repetition and in the traced replay, and the digests recorded
in digests.json for the seeds listed there. The last line of output is one
JSON object with the keys correct, attempted, failed and metrics.

`--record-digests` reruns each workload once per recorded seed and rewrites
digests.json; do that only for a change that declares new sweep output.
`--smoke` shrinks every config to 50 events for a quick self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"
DIGEST_SEEDS = (0, 1)

WORKERS = 2
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0
SMOKE_EVENTS = 50
RATIO_FLOOR = 1.0 - 1e-9


def _config(scenario, mode, n, k, runs, n_events):
    return {"scenario": scenario, "mode": mode, "N": n, "K": k, "rho": [0.5],
            "runs": runs, "n_events": n_events}


# Why each workload exists is in README.md next to this file.
WORKLOADS = {
    "indep": {"none": _config("SPU", "none", [25, 100], [1, 3], 1, 2000)},
    "overhear": {
        "full": _config("SPU", "full", [100], [1, 2], 2, 2000),
        "n1": _config("SPU", "n1", [100], [1, 2], 2, 2000),
        "n2": _config("SPU", "n2", [100], [1], 2, 2000),
    },
    "long-log": {"full": _config("SPL", "full", [10], [2], 1, 8000)},
}
# Layers a workload must exercise; a traced run that finds one of them
# never called fails instead of reporting zeros.
REQUIRED_LAYERS = {
    "indep": ("workload.gen_trace", "online.thb", "model.evaluate",
              "offline.k1", "offline.kn"),
    "overhear": ("workload.gen_trace", "graph", "online.itc", "online.net",
                 "model.evaluate", "offline.k1", "offline.kn"),
    "long-log": ("workload.gen_trace", "online.itc", "model.evaluate",
                 "offline.kn"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _pin_environment() -> dict:
    """Fix what could change the measurement; returns the children's env."""
    os.environ.pop("DIA_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _write_configs(workload: str, seed: int, smoke: bool, where: Path) -> list[Path]:
    paths = []
    for name, cfg in WORKLOADS[workload].items():
        cfg = dict(cfg, seed=seed)
        if smoke:
            cfg.update(runs=1, n_events=SMOKE_EVENTS)
        path = where / f"{name}.json"
        path.write_text(json.dumps(cfg))
        paths.append(path)
    return paths


def _run_child(env, configs, out_dir: Path, deadline: float, setup_only=False):
    """Run child.py in its own session; kill the whole group on timeout."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
           "--out-dir", str(out_dir), "--workers", str(WORKERS)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += [str(p) for p in configs]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"sweep did not finish within {RUN_LIMIT_S:.0f} s") from None
    finally:
        if proc.returncode is None:  # timed out or interrupted
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(out_dir: Path, names) -> dict:
    return {
        name: {"results": _sha(out_dir / f"{name}.csv"),
               "summary": _sha(out_dir / f"{name}.summary.csv")}
        for name in names
    }


class Checker:
    """Counts reps (CSV rows) attempted and failed across one run."""

    def __init__(self, n_events: dict, expected: dict | None):
        self.n_events = n_events
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, out_dir: Path, names, against: dict | None = None):
        """Check one sweep's CSVs; returns their digests and good events.

        A rep fails if its row is an error row or its ratio is below 1 (the
        oracle lower-bounds every schedule). Every rep of a config fails if
        the config's CSVs differ from `against` or from the recorded ones.
        """
        digests = _digests(out_dir, names)
        events = 0
        for name in names:
            with open(out_dir / f"{name}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            bad = [r for r in rows if r["error"] or float(r["ratio"]) < RATIO_FLOOR]
            for ref, what in ((self.expected, "recorded digest"),
                              (against, "first sweep")):
                if ref is not None and ref[name] != digests[name]:
                    print(f"FAIL {name}: CSVs differ from the {what}",
                          file=sys.stderr)
                    bad = rows
            for r in bad:
                print(f"FAIL {name}: bad row {dict(r)}", file=sys.stderr)
            events += self.n_events[name] * (len(rows) - len(bad))
            self.attempted += len(rows)
            self.failed += len(bad)
        return digests, events


def _expected(workload: str, seed: int, smoke: bool) -> dict | None:
    if smoke or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def _untraced(env, configs, names, work: Path, seconds: float, deadline: float,
              checker: Checker, probes: int = SETUP_PROBES, min_reps: int = 1):
    """Repeat the sweeps for about `seconds`, at least `min_reps` times.

    Runs `probes` set-up-only children first. A repetition runs each config
    in its own child, and the reference kernel is timed after every child.
    Returns one dict per repetition, the set-up samples, the kernel's
    (wall_s, cpu_s) samples and the first repetition's digests.
    """
    setups = [
        _run_child(env, configs, work / "setup", deadline, setup_only=True)["setup_s"]
        for _ in range(probes)
    ]
    reps: list[dict] = []
    refs: list[tuple[float, float]] = []
    first = None
    with reference.pool(WORKERS) as ref_pool:
        reference.timed(ref_pool)  # fresh workers run it slower
        start = time.monotonic()
        while True:
            out_dir = work / f"rep{len(reps)}"
            rep = dict.fromkeys(("sweep_s", "cpu_s", "peak_rss_mb"), 0.0)
            for config in configs:
                part = _run_child(env, [config], out_dir, deadline)
                refs.append(reference.timed(ref_pool))
                rep["sweep_s"] += part["sweep_s"]
                rep["cpu_s"] += part["cpu_s"]
                rep["peak_rss_mb"] = max(rep["peak_rss_mb"], part["peak_rss_mb"])
                rep.update((k, part[k]) for k in ("python", "numpy", "cores"))
                setups.append(part["setup_s"])
            digests, rep["events"] = checker.check(out_dir, names, against=first)
            first = first or digests
            reps.append(rep)
            typical = (time.monotonic() - start) / len(reps)
            if (len(reps) >= min_reps
                    and time.monotonic() - start + typical > seconds):
                break
    return reps, setups, refs, first


def _end_to_end(reps: list[dict], setups: list[float], refs: list[tuple]):
    """Declared metrics and the raw times beside them, as name -> (value, unit).

    The raw metrics are medians over the repetitions. The declared times
    are in reference units (see reference.py): the median sweep wall time
    over the median kernel wall time, and the median sweep CPU time over
    the median kernel CPU time, all within this run.
    """
    def median(fn):
        return statistics.median(fn(r) for r in reps)

    ref_wall = statistics.median(w for w, _ in refs)
    ref_cpu = statistics.median(c for _, c in refs)
    raw = {
        "sweep_s": (median(lambda r: r["sweep_s"]), "s"),
        "cpu_s": (median(lambda r: r["cpu_s"]), "s"),
        "events_per_s": (median(lambda r: r["events"] / r["sweep_s"]), "1/s"),
        "ref_wall_s": (ref_wall, "s"),
        "ref_cpu_s": (ref_cpu, "s"),
    }
    declared = {
        "sweep_ref": (raw["sweep_s"][0] / ref_wall, "ref"),
        "cpu_ref": (raw["cpu_s"][0] / ref_cpu, "ref"),
        "events_per_ref": (raw["events_per_s"][0] * ref_wall, "1/ref"),
        "peak_rss_mb": (median(lambda r: r["peak_rss_mb"]), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return declared, raw


def _env_info(reps: list[dict], setups: list[float]) -> dict:
    info = {key: reps[0][key] for key in ("python", "numpy", "cores")}
    info.update(sweep_s_samples=[r["sweep_s"] for r in reps],
                setup_samples=len(setups))
    return info


def _import_aggsim():
    sys.path.insert(0, str(SRC))
    import aggsim.cli
    import aggsim.harness

    if not Path(aggsim.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"aggsim imported from {aggsim.__file__}, not {SRC}")
    return aggsim.harness, aggsim.cli


def _traced(workload, env, configs, names, work: Path, seconds: float,
            deadline: float, checker: Checker):
    """Untraced repetitions, then traced in-process replays at 1 worker.

    The untraced part takes about a third of `seconds` and at least two
    repetitions; its median `sweep_s` and `cpu_s` are what the harness
    metrics compare the traced work against.
    """
    import layers

    start = time.monotonic()
    reps, setups, _, untraced_digests = _untraced(
        env, configs, names, work, seconds / 3, deadline, checker,
        probes=0, min_reps=2,
    )
    info = _env_info(reps, setups)
    sweep_s = statistics.median(r["sweep_s"] for r in reps)
    cpu_s = statistics.median(r["cpu_s"] for r in reps)
    harness, cli = _import_aggsim()
    replays: list[dict] = []
    replay_start = time.monotonic()
    while True:
        out_dir = work / f"traced{len(replays)}"
        out_dir.mkdir(parents=True)
        with layers.traced(harness, cli) as tracer:
            for name, path in zip(names, configs):
                tracer.config = name
                argv = ["sweep", "--config", str(path),
                        "--out", str(out_dir / f"{name}.csv"), "--workers", "1"]
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise BenchError(f"aggsim {' '.join(argv)} failed")
        missing = [l for l in REQUIRED_LAYERS[workload] if tracer.calls(l) == 0]
        if missing:
            raise BenchError(
                f"layers never called on {workload}: {', '.join(missing)}; "
                "the wrapped entry points no longer reach them"
            )
        checker.check(out_dir, names, against=untraced_digests)
        replays.append(layers.layer_metrics(tracer.spans, WORKERS, sweep_s, cpu_s))
        typical = (time.monotonic() - replay_start) / len(replays)
        if time.monotonic() - start + typical > seconds:
            break
    metrics = {
        name: (statistics.median(r[name][0] for r in replays), unit)
        for name, (_, unit) in replays[0].items()
    }
    serial = metrics["harness.serial_work_s"][0]
    info.update(replays=len(replays), untraced_sweep_s=sweep_s,
                untraced_cpu_s=cpu_s, traced_serial_work_s=serial)
    shares = {
        name[: -len(".busy_s")]: round(value / serial, 4)
        for name, (value, _) in metrics.items()
        if name.endswith("busy_s") and serial
    }
    shares["cli.write"] = round(metrics["cli.write_s"][0] / serial, 4)
    info["layer_shares"] = shares
    return metrics, info


def _record_digests(env) -> None:
    table = {}
    for workload in WORKLOADS:
        names = list(WORKLOADS[workload])
        for seed in DIGEST_SEEDS:
            work = WORK / "record" / workload / str(seed)
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            configs = _write_configs(workload, seed, False, work)
            checker = Checker(_n_events(names, configs), None)
            _run_child(env, configs, work / "out", time.monotonic() + RUN_LIMIT_S)
            digests, _ = checker.check(work / "out", names)
            if checker.failed:
                raise BenchError(f"{workload} seed {seed} has failing rows")
            table.setdefault(workload, {})[str(seed)] = digests
            print(f"recorded {workload} seed {seed}", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def _n_events(names, configs) -> dict:
    return {name: json.loads(p.read_text())["n_events"]
            for name, p in zip(names, configs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "aggsim" / "__init__.py").is_file():
        print(f"no aggsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.record_digests:
        ap.error("--workload is required")
    env = _pin_environment()
    # SIGTERM unwinds like an exception, so every child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        if args.record_digests:
            _record_digests(env)
            return 0
        deadline = time.monotonic() + RUN_LIMIT_S
        work = WORK / args.workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        configs = _write_configs(args.workload, args.seed, args.smoke, work)
        names = list(WORKLOADS[args.workload])
        checker = Checker(_n_events(names, configs),
                          _expected(args.workload, args.seed, args.smoke))
        if args.trace:
            metrics, info = _traced(args.workload, env, configs, names, work,
                                    args.seconds, deadline, checker)
            extra = {}
        else:
            reps, setups, refs, _ = _untraced(env, configs, names, work,
                                              args.seconds, deadline, checker)
            metrics, extra = _end_to_end(reps, setups, refs)
            info = _env_info(reps, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # A per-layer metric when traced; printed, not declared, when untraced,
    # because an end-to-end metric must never be 0.
    failed_frac = (checker.failed / checker.attempted, "ratio")
    (metrics if args.trace else extra)["failed_frac"] = failed_frac
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                workers=WORKERS)
    print("env " + json.dumps(info))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:30s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
