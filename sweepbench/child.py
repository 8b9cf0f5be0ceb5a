"""One untraced `aggsim sweep` repetition in a fresh interpreter.

    python3 sweepbench/child.py --src SRC --out-dir DIR --workers W CONFIG.json [...]

Times importing aggsim and parsing the configs (set-up), then runs
`aggsim sweep --workers W` once per config through the CLI entry point and
prints one JSON line: set-up and sweep wall time, CPU time of this process
plus its pool workers, and the larger of this process's and the largest
worker's peak RSS. With --setup-only it stops after set-up.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--workers", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("configs", nargs="+")
    args = ap.parse_args()

    import aggsim.cli
    import aggsim.harness
    import numpy

    src = os.path.realpath(args.src)
    if not os.path.realpath(aggsim.__file__).startswith(src + os.sep):
        print(f"aggsim imported from {aggsim.__file__}, not {src}", file=sys.stderr)
        return 2
    for path in args.configs:
        aggsim.harness.load_config(path)
    setup_s = time.perf_counter() - T0
    result = {
        "setup_s": setup_s,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
    }
    if not args.setup_only:
        self0 = _cpu(resource.getrusage(resource.RUSAGE_SELF))
        t1 = time.perf_counter()
        for path in args.configs:
            name = os.path.splitext(os.path.basename(path))[0]
            out = os.path.join(args.out_dir, name + ".csv")
            argv = ["sweep", "--config", path, "--out", out,
                    "--workers", args.workers]
            with contextlib.redirect_stdout(io.StringIO()):
                code = aggsim.cli.main(argv)
            if code != 0:
                print(f"aggsim {' '.join(argv)} exited {code}", file=sys.stderr)
                return 2
        sweep_s = time.perf_counter() - t1
        me = resource.getrusage(resource.RUSAGE_SELF)
        workers = resource.getrusage(resource.RUSAGE_CHILDREN)
        result.update(
            sweep_s=sweep_s,
            cpu_s=_cpu(me) - self0 + _cpu(workers),
            # ru_maxrss is in KiB on Linux
            peak_rss_mb=max(me.ru_maxrss, workers.ru_maxrss) / 1024.0,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
