"""End-to-end benchmark of the conelight command-line front end.

    python3 bench/run.py --workload detect-halting --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One closed-loop caller makes one request at a time through
`conelight.cli.dispatch(argv)`, in this process, with stdout captured and
parsed.  Every output is checked (see workloads.py and oracles.py).  The
last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
ones).  A fuller record goes to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from oracles import CheckFailed
from tracing import Tracer
from workloads import WORKLOADS, Call, make_rounds

PROCESS_START = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
# Start no new round after this long, so a much slower program still ends
# inside the three minutes a run may take.
WALL_LIMIT_S = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=25.0, help="timed request time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_cli():
    """Import conelight.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "conelight" / "cli.py").is_file():
        raise SystemExit(f"error: no conelight sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from conelight import cli

    if Path(cli.__file__).resolve().parent != SRC / "conelight":
        raise SystemExit(f"error: imported conelight from {cli.__file__}, not from {SRC}")
    return cli


def make_invoke(cli):
    def invoke(argv: list[str]) -> Call:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.dispatch(argv)
            seconds = time.perf_counter() - t0
        return Call(argv, code, out.getvalue(), seconds)

    return invoke


def set_up(workload: str, seed: int, workdir: Path, invoke):
    """One set-up: a fresh interpreter importing the package, input
    generation, and one warm-up request.  Returns (seconds, rounds, ok)."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import conelight.cli"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
        timeout=120,
    )
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rounds = make_rounds(workload, seed, workdir)
    ok = attempt(rounds[0][0], invoke)[0] == "ok"
    return time.perf_counter() - t0, rounds, ok


def attempt(request, invoke):
    """Run and check one request.

    Returns (status, seconds, calls, bound_ratios) with status "ok",
    "error" (the program raised out of dispatch) or "wrong" (an output
    failed its check).
    """
    t0 = time.perf_counter()
    try:
        calls = request.run(invoke)
    except Exception:  # any exception out of the program fails only this request
        traceback.print_exc()
        return "error", time.perf_counter() - t0, [], []
    seconds = sum(call.seconds for call in calls)
    try:
        bound_ratios = request.check(calls)
    except (CheckFailed, KeyError, TypeError, ValueError, IndexError) as exc:
        argv = " ".join(calls[0].argv) if calls else "?"
        print(f"wrong output ({argv}): {type(exc).__name__}: {exc}", file=sys.stderr)
        return "wrong", seconds, calls, []
    return "ok", seconds, calls, bound_ratios


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    invoke = make_invoke(cli)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setups = []
        correct = True
        for _ in range(SETUP_REPEATS):
            seconds, rounds, ok = set_up(args.workload, args.seed, workdir, invoke)
            setups.append(seconds)
            correct &= ok

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()

        latencies: list[float] = []
        bound_ratios: list[float] = []
        attempted = failed = stdout_bytes = 0
        busy = 0.0
        r = 0
        while busy < args.seconds and time.perf_counter() - PROCESS_START < WALL_LIMIT_S:
            for request in rounds[r % len(rounds)]:
                if tracer:
                    tracer.current_request = attempted
                attempted += 1
                status, seconds, calls, ratios = attempt(request, invoke)
                busy += seconds
                if status != "ok":
                    failed += 1
                    correct = False
                    continue
                latencies.append(seconds)
                bound_ratios += ratios
                stdout_bytes += sum(len(call.stdout.encode()) for call in calls)
            r += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ms = sorted(t * 1e3 for t in latencies)
    end_to_end = {
        "requests_per_s": {"value": len(latencies) / busy, "unit": "1/s"},
        "request_p50_ms": {"value": statistics.median(ms) if ms else 0.0, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "rounds": r,
        "end_to_end": end_to_end,
        "request_p90_ms": statistics.quantiles(ms, n=10)[-1] if len(ms) >= 2 else None,
        "request_max_ms": ms[-1] if ms else None,
        "setup_runs_s": setups,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }
    metrics = end_to_end
    if tracer:
        metrics = tracer.metrics(len(latencies), stdout_bytes, bound_ratios)
        record["per_layer"] = metrics
        tracer.write(OUT / f"trace-{args.workload}.npz")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
