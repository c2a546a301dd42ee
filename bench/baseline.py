"""Time the rows of the ROADMAP baseline table through the CLI front end.

    python3 bench/baseline.py

Each row is one or more `conelight.cli.dispatch` calls made in this
process, as in run.py, so the times include argument parsing, file loading
and JSON output as well as the computation.  A row's figure is the minimum
over three runs (rows costing over ten seconds run once).  The random
matrices are drawn from seed 0.  Writes
bench/out/baseline.json and prints one line per row.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from run import OUT, import_cli, make_invoke

REPEATS = 3
SEED = 0
SLOW_ROW_S = 10.0


def rows(workdir, rng):
    def write(name, spec):
        path = workdir / name
        path.write_text(json.dumps(spec))
        return str(path)

    for n in (8, 10, 12):
        path = write(f"matrix-{n}.json", {"type": "matrix", "data": rng.uniform(1, 2, (n, n)).tolist()})
        yield f"detect log-uniform, random 1-2 matrix, n = {n}", [["detect", "--map", path]]
    shear2 = write("shear2.json", {"type": "shear2"})
    yield "detect shear2, 10^5 samples", [["detect", "--map", shear2, "--max-iters", "100000"]]
    path = write("matrix-12s.json", {"type": "matrix", "data": rng.uniform(1, 2, (12, 12)).tolist()})
    yield "detect scheduled, beta = 10, n = 12", [
        ["detect", "--map", path, "--mode", "scheduled", "--beta", "10"]
    ]
    for n in (14, 16, 18):
        yield f"illuminate-optimal + illuminate-verify, n = {n}", [
            ["illuminate-optimal", "-n", str(n)],
            ["illuminate-verify", "-n", str(n), "--directions", str(workdir / f"dirs-{n}.json")],
        ]
    for n in (8, 9):
        yield f"certificate, n = {n}", [["certificate", "-n", str(n)]]
    yield "illuminate-number, n = 6", [["illuminate-number", "-n", "6"]]


def main() -> int:
    invoke = make_invoke(import_cli())
    workdir = OUT / "baseline"
    workdir.mkdir(parents=True, exist_ok=True)
    results = []
    for label, argvs in rows(workdir, np.random.default_rng(SEED)):
        best, detail = float("inf"), {}
        for _ in range(REPEATS):
            seconds = 0.0
            for argv in argvs:
                call = invoke(argv)
                seconds += call.seconds
                doc = json.loads(call.stdout)
                if argv[0] == "illuminate-optimal":
                    (workdir / f"dirs-{argv[2]}.json").write_text(json.dumps(doc["directions"]))
                if argv[0] == "detect":
                    detail = {"exit": call.code, "samples_used": doc["samples_used"]}
            best = min(best, seconds)
            if seconds > SLOW_ROW_S:
                break
        results.append({"row": label, "ms": best * 1e3, **detail})
        print(f"{label:48s} {best * 1e3:10.1f} ms  {detail or ''}", flush=True)
    (OUT / "baseline.json").write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
