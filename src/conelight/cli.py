"""Command-line front end.

Every command prints a single JSON document to stdout; diagnostics go to
stderr.  Exit codes: 0 success (including a detect run that halted),
1 malformed input, map specification or a size over its limit (error type
"too_large"), 2 detect budget exhausted without halting.  The CLI reads
no environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import illumination
from .detector import SAMPLER_MODES, DetectionReport, SamplerConfig, estimate_eigenvector, run
from .maps import InvalidMapError, load_map

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_HALTED = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through our own
    # error handling so exit codes stay as documented.
    def error(self, message):
        raise _UsageError(message)


def _emit(document: dict) -> None:
    print(json.dumps(document, indent=2))


def _fail(kind: str, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    _emit({"error": {"type": kind, "message": message}})
    return EXIT_BAD_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conelight", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("illuminate-optimal", help="optimal illuminating set of size C(n, ceil(n/2))")
    p.add_argument("-n", type=int, required=True, help="cone dimension, n >= 2")

    p = sub.add_parser("illuminate-verify", help="check a direction set against all extreme points")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--directions", required=True, help="JSON file: array of float arrays")

    p = sub.add_parser(
        "illuminate-number",
        help=f"exact illumination number (2 <= n <= {illumination.MAX_EXACT_N})",
    )
    p.add_argument("-n", type=int, required=True)

    p = sub.add_parser("chains", help="symmetric chain decomposition of {0,1}^d")
    p.add_argument("-d", type=int, required=True)

    p = sub.add_parser("certificate", help="antichain lower-bound certificate")
    p.add_argument("-n", type=int, required=True)

    # `detect` and `eigen` leave an option out of the parsed arguments when it
    # is not given, so the library's default applies (see `_given`).
    p = sub.add_parser(
        "detect",
        help="run the eigenvector detector on a map file",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--map", required=True, help="JSON map specification file")
    p.add_argument("--mode", choices=SAMPLER_MODES)
    p.add_argument("--radius", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iters", type=int, dest="max_iterations")
    p.add_argument("--history-cap", type=int)
    p.add_argument("--history-csv", default=None, help="also write the sample history as CSV")

    p = sub.add_parser(
        "eigen",
        help="best-effort eigenvector estimate for a map file",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--map", required=True)
    p.add_argument("--x0", default=None, help="comma-separated start point, default all ones")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int, dest="max_iter")

    return parser


def _given(args, names) -> dict:
    """The options among `names` given on the command line, by name."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _write_history_csv(path: str, report: DetectionReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "point", "ratios", "recorded"])
        for rec in report.history:
            writer.writerow(
                [
                    rec.index,
                    json.dumps(list(rec.point)),
                    json.dumps(list(rec.ratios)),
                    json.dumps([list(s) for s in rec.recorded]),
                ]
            )


def _cmd_illuminate_optimal(args) -> int:
    directions = illumination.optimal_illuminating_set(args.n)
    _emit(
        {
            "command": "illuminate-optimal",
            "n": args.n,
            "count": len(directions),
            "directions": [w.tolist() for w in directions],
        }
    )
    return EXIT_OK


def _read_directions(path: str) -> list[np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if isinstance(raw, list):
        try:
            return [np.asarray(w, dtype=float) for w in raw]
        except (TypeError, ValueError):
            pass
    raise _UsageError("directions file must hold a JSON array of float arrays")


def _cmd_illuminate_verify(args) -> int:
    directions = _read_directions(args.directions)
    report = illumination.verify_illumination(directions, args.n)
    _emit({"command": "illuminate-verify", **report.to_dict()})
    return EXIT_OK


def _cmd_illuminate_number(args) -> int:
    number = illumination.illumination_number_exact(args.n)
    _emit({"command": "illuminate-number", "n": args.n, "illumination_number": number})
    return EXIT_OK


def _cmd_chains(args) -> int:
    depth = illumination.symmetric_chain_depths(args.d)
    lengths = 2 * np.count_nonzero(depth, axis=1) - args.d + 1  # chain members: depth >= L, ..., 1
    _emit(
        {
            "command": "chains",
            "d": args.d,
            "count": len(depth),
            "chains": [
                (row >= np.arange(length, 0, -1)[:, np.newaxis]).astype(np.int64).tolist()
                for row, length in zip(depth, lengths.tolist())
            ],
        }
    )
    return EXIT_OK


def _cmd_certificate(args) -> int:
    cert = illumination.lower_bound_certificate(args.n)
    _emit({"command": "certificate", **cert.to_dict()})
    return EXIT_OK


def _cmd_detect(args) -> int:
    cone_map = load_map(args.map)
    cfg = SamplerConfig(**_given(args, [field.name for field in fields(SamplerConfig)]))
    report = run(cone_map, cfg)
    if args.history_csv:
        _write_history_csv(args.history_csv, report)
    _emit({"command": "detect", **report.to_dict()})
    return EXIT_OK if report.halted else EXIT_NOT_HALTED


def _cmd_eigen(args) -> int:
    cone_map = load_map(args.map)
    if args.x0 is None:
        x0 = np.ones(cone_map.dim)
    else:
        try:
            x0 = np.array([float(v) for v in args.x0.split(",")])
        except ValueError:
            raise _UsageError(f"--x0 must be comma-separated numbers, got {args.x0!r}")
    estimate = estimate_eigenvector(cone_map, x0, **_given(args, ["tol", "max_iter"]))
    _emit(
        {
            "command": "eigen",
            "map": cone_map.name,
            "converged": estimate.converged,
            "iterations": estimate.iterations,
            "eigenvector": list(estimate.vector),
            "eigenvalue": estimate.eigenvalue,
            "residual": estimate.residual,
        }
    )
    return EXIT_OK


_COMMANDS = {
    "illuminate-optimal": _cmd_illuminate_optimal,
    "illuminate-verify": _cmd_illuminate_verify,
    "illuminate-number": _cmd_illuminate_number,
    "chains": _cmd_chains,
    "certificate": _cmd_certificate,
    "detect": _cmd_detect,
    "eigen": _cmd_eigen,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        return _fail("usage", str(exc))
    except InvalidMapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit(
            {
                "error": {
                    "type": "invalid_map",
                    "violation": exc.violation,
                    "message": exc.message,
                }
            }
        )
        return EXIT_BAD_INPUT
    except illumination.TooLargeError as exc:
        return _fail("too_large", str(exc))
    except BrokenPipeError:
        raise  # an error document cannot reach a closed stdout either
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return _fail("invalid_input", str(exc))


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; keep the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BAD_INPUT
    sys.exit(code)


if __name__ == "__main__":
    main()
