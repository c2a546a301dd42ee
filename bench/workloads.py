"""The four workloads: seeded inputs, the requests made from them, and the
checks each request's outputs must pass.

A request is one or more `conelight.cli.dispatch` calls.  Its time is the
sum of its calls' wall times; the benchmark's own glue between calls
(writing the directions file) and its checks are not timed.  Workloads are
run in whole rounds, each round holding the same mix of requests, so every
run has the same proportions whatever its length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from oracles import (
    CheckFailed,
    all_proper_subsets,
    check_eigen_estimate,
    check_history,
    lit_by_some,
    middle_binomial,
    require,
)

# Rounds of distinct inputs generated per run; longer runs cycle through them.
POOL_ROUNDS = 32
# detect-halting keeps the CLI's default history cap but raises the sample
# budget from 10 000: a max-plus map at n = 10 has needed over 7 000
# samples, and a run that stops short would fail on some seeds only.
MAX_ITERS = 100000
HISTORY_CAP = 1000
# detect-halting: (map kind, n, scheduled?) for each request of a round.
# Every request costs about the same (n = 10 log-uniform, n = 12 scheduled),
# so the request times form one cluster and their median does not jump
# between groups of cheap and dear requests from run to run.
HALTING_ROUND = (
    ("matrix", 10, False),
    ("matrix", 10, False),
    ("maxplus", 10, False),
    ("maxplus", 10, False),
    ("monomial", 10, False),
    ("monomial", 10, False),
    ("matrix", 12, True),
    ("maxplus", 12, True),
)
# beta**(n-1) must stay under the program's 1e12 dynamic-range cap at n = 12;
# with entries in [1, 2] any beta > 2 separates the schedule's levels.
SCHEDULE_BETA = 10.0
# detect-stall: dimensions of the maps in a round; 2 is shear2.
STALL_DIMS = (2, 4, 6, 8, 10)
STALL_BUDGET = 3000
# illuminate: one odd and one even n per request.
ILLUMINATE_NS = (13, 14)
# Extreme points per n that the benchmark tests itself with the small-step check.
ILLUMINATE_SAMPLE = 64
CERTIFICATE_N = 7
ILLUMINATION_NUMBER_N = 6


@dataclass
class Call:
    argv: list[str]
    code: int
    stdout: str
    seconds: float

    def document(self) -> dict:
        try:
            doc = json.loads(self.stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{self.argv[0]}: stdout is not one JSON document: {exc}")
        require(isinstance(doc, dict), f"{self.argv[0]}: document is not a JSON object")
        return doc


Invoke = Callable[[list[str]], Call]


def _write_json(path: Path, value) -> str:
    path.write_text(json.dumps(value), encoding="utf-8")
    return str(path)


class DetectRequest:
    """One `detect` call on a generated map file."""

    def __init__(self, kind: str, data: np.ndarray, argv: list[str]):
        self.kind = kind
        self.data = data
        self.n = data.shape[0]
        self.argv = argv
        self.scheduled = "scheduled" in argv

    def run(self, invoke: Invoke) -> list[Call]:
        return [invoke(self.argv)]

    def _common(self, call: Call) -> dict:
        doc = call.document()
        require(doc.get("command") == "detect", "not a detect document")
        require(doc["dimension"] == self.n, "wrong dimension")
        require(doc["total_subsets"] == 2**self.n - 2, "wrong subset total")
        history = doc["history"]
        require(len(history) == min(doc["samples_used"], HISTORY_CAP), "wrong history length")
        require(
            doc["history_truncated"] == (doc["samples_used"] > HISTORY_CAP),
            "wrong history_truncated flag",
        )
        require(
            [rec["index"] for rec in history] == list(range(1, len(history) + 1)),
            "history indices are not 1, 2, ...",
        )
        check_history(history, self.kind, self.data, self.n)
        recorded = [tuple(s) for s in doc["recorded_subsets"]]
        require(len(set(recorded)) == len(recorded), "a subset is recorded twice")
        require(doc["recorded_count"] == len(recorded), "recorded_count disagrees with the list")
        seen = set(recorded)
        require(
            all(tuple(s) in seen for rec in history for s in rec["recorded"]),
            "a subset in the history is missing from recorded_subsets",
        )
        return doc


class HaltingRequest(DetectRequest):
    def check(self, calls: list[Call]) -> list[float]:
        (call,) = calls
        require(call.code == 0, f"detect exited {call.code}, expected 0")
        doc = self._common(call)
        n = self.n
        bound = middle_binomial(n)
        require(doc["halted"] is True, "run did not halt")
        require(doc["samples_used"] >= bound, "halted below the chain bound C(n, ceil(n/2))")
        if self.scheduled:
            require(doc["samples_used"] == bound, "scheduled run missed the exact bound")
        require(
            set(map(tuple, doc["recorded_subsets"])) == all_proper_subsets(n),
            "recorded subsets are not all nonempty proper subsets",
        )
        require(doc["remaining_lower_bound"] == 0, "a halted run has a remaining bound")
        check_eigen_estimate(doc["eigenvector_estimate"], self.kind, self.data, n)
        return [bound / doc["samples_used"]]


class StallRequest(DetectRequest):
    def check(self, calls: list[Call]) -> list[float]:
        (call,) = calls
        require(call.code == 2, f"detect exited {call.code}, expected 2")
        doc = self._common(call)
        n = self.n
        require(doc["halted"] is False, "a map with no positive eigenvector halted")
        require(doc["samples_used"] == STALL_BUDGET, "samples_used differs from the budget")
        require(
            all(n in s for s in doc["recorded_subsets"]),
            "a recorded subset misses index n, whose ratio is strictly smallest",
        )
        require(doc["eigenvector_estimate"] is None, "a stalled run has an eigen estimate")
        require(doc["remaining_lower_bound"] >= 1, "a stalled run reports nothing remaining")
        return [middle_binomial(n) / doc["samples_used"]]


class IlluminateRequest:
    """`illuminate-optimal -n N`, then `illuminate-verify` on its directions
    written in a seeded order, for each N in ILLUMINATE_NS."""

    def __init__(self, rng: np.random.Generator, workdir: Path, index: int):
        self.path = {n: workdir / f"directions-{index}-{n}.json" for n in ILLUMINATE_NS}
        self.order = {n: rng.permutation(middle_binomial(n)) for n in ILLUMINATE_NS}
        self.sample = {n: _extreme_point_sample(rng, n - 1) for n in ILLUMINATE_NS}

    def run(self, invoke: Invoke) -> list[Call]:
        calls = []
        for n in ILLUMINATE_NS:
            built = invoke(["illuminate-optimal", "-n", str(n)])
            calls.append(built)
            try:
                directions = built.document()["directions"]
            except (CheckFailed, KeyError):
                return calls  # check() reports the malformed document
            _write_json(self.path[n], [directions[i] for i in self.order[n]])
            calls.append(
                invoke(["illuminate-verify", "-n", str(n), "--directions", str(self.path[n])])
            )
        return calls

    def check(self, calls: list[Call]) -> list[float]:
        require(len(calls) == 2 * len(ILLUMINATE_NS), "illuminate-optimal gave no directions")
        for n, built, verified in zip(ILLUMINATE_NS, calls[0::2], calls[1::2]):
            require(built.code == 0 and verified.code == 0, "an illuminate call failed")
            doc = built.document()
            size = middle_binomial(n)
            require(doc.get("command") == "illuminate-optimal" and doc["n"] == n, "wrong header")
            require(doc["count"] == size, f"count is not C({n}, {(n + 1) // 2})")
            directions = np.array(doc["directions"], dtype=float)
            require(directions.shape == (size, n - 1), "directions have the wrong shape")
            require(bool(np.all(np.isfinite(directions))), "a direction is not finite")
            require(bool(np.all(np.abs(directions).max(axis=1) > 0)), "a direction is zero")
            require(
                bool(lit_by_some(self.sample[n], directions).all()),
                "a sampled extreme point fails the small-step test for every direction",
            )
            report = verified.document()
            require(report.get("command") == "illuminate-verify", "not a verify document")
            require(report["n"] == n and report["direction_count"] == size, "wrong verify counts")
            require(report["covered"] is True and report["unilluminated"] == [], "not covered")
        return []


def _extreme_point_sample(rng: np.random.Generator, d: int) -> np.ndarray:
    """Seeded extreme points sign * 1_I of the ||.||_H ball in d-space."""
    points = np.zeros((ILLUMINATE_SAMPLE, d))
    for row in points:
        size = int(rng.integers(1, d + 1))
        row[rng.choice(d, size, replace=False)] = rng.choice((-1.0, 1.0))
    return points


class CertifyRequest:
    """`certificate -n 7` and `illuminate-number -n 6` in one request."""

    def run(self, invoke: Invoke) -> list[Call]:
        return [
            invoke(["certificate", "-n", str(CERTIFICATE_N)]),
            invoke(["illuminate-number", "-n", str(ILLUMINATION_NUMBER_N)]),
        ]

    def check(self, calls: list[Call]) -> list[float]:
        cert_call, number_call = calls
        require(cert_call.code == 0 and number_call.code == 0, "a certify call failed")
        n, d = CERTIFICATE_N, CERTIFICATE_N - 1
        size = middle_binomial(n)
        cert = cert_call.document()
        require(cert.get("command") == "certificate" and cert["n"] == n, "wrong header")
        require(cert["size"] == size, f"certificate size is not C({n}, {(n + 1) // 2})")
        require(cert["all_unshareable"] is True, "certificate has a shareable pair")
        require(cert["classes_checked"] == math.factorial(n - 1) * n, "classes_checked != (n-1)!*n")
        points = np.array(cert["points"], dtype=float)
        require(points.shape == (size, d), "certificate points have the wrong shape")
        require(len({tuple(p) for p in points.tolist()}) == size, "certificate points repeat")
        positive = np.all(points >= 0, axis=1)
        negative = np.all(points <= 0, axis=1)
        require(
            bool(np.all(positive ^ negative)) and bool(np.all(np.isin(points, (-1.0, 0.0, 1.0)))),
            "a certificate point is not a signed indicator vector",
        )
        plus_sizes = set((points[positive] != 0).sum(axis=1).tolist())
        minus_sizes = set((points[negative] != 0).sum(axis=1).tolist())
        # A direction lights a nested chain of positive supports and a nested
        # chain of negative ones, disjoint from each other, so equal sizes on
        # one side and sizes summing past d across sides exclude every pair.
        require(len(plus_sizes) == 1 and len(minus_sizes) == 1, "same-sign supports differ in size")
        require(plus_sizes.pop() + minus_sizes.pop() > d, "a positive and a negative point could share")
        pairs = cert["pairs"]
        require(len(pairs) == math.comb(size, 2), "the pair list is incomplete")
        require(all(p["unshareable"] is True for p in pairs), "a pair is marked shareable")
        number = number_call.document()
        require(number.get("command") == "illuminate-number", "not an illuminate-number document")
        require(number["n"] == ILLUMINATION_NUMBER_N, "wrong n")
        require(
            number["illumination_number"] == middle_binomial(ILLUMINATION_NUMBER_N),
            "illumination number is not C(6, 3) = 20",
        )
        return []


def _halting_map(rng: np.random.Generator, kind: str, n: int) -> tuple[dict, np.ndarray]:
    if kind == "monomial":
        exponents = rng.uniform(0.5, 1.0, (n, n))
        exponents /= exponents.sum(axis=1, keepdims=True)
        return {"type": "monomial", "exponents": exponents.tolist()}, exponents
    data = rng.uniform(1.0, 2.0, (n, n))
    return {"type": kind, "data": data.tolist()}, data


def _stall_map(rng: np.random.Generator, n: int) -> tuple[dict, np.ndarray]:
    if n == 2:
        return {"type": "shear2"}, np.array([[1.0, 1.0], [0.0, 1.0]])
    data = np.eye(n)
    upper = np.triu_indices(n, 1)
    data[upper] = rng.uniform(0.5, 2.0, len(upper[0]))
    return {"type": "matrix", "data": data.tolist()}, data


def make_rounds(workload: str, seed: int, workdir: Path) -> list[list]:
    """Generate every input of a run from `seed` and write the files the
    program reads into `workdir`."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    rounds: list[list] = []
    for r in range(POOL_ROUNDS):
        requests: list = []
        if workload == "detect-halting":
            for i, (kind, n, scheduled) in enumerate(HALTING_ROUND):
                spec, data = _halting_map(rng, kind, n)
                path = _write_json(workdir / f"map-{r}-{i}.json", spec)
                argv = ["detect", "--map", path, "--seed", str(int(rng.integers(2**31)))]
                if scheduled:
                    argv += ["--mode", "scheduled", "--beta", str(SCHEDULE_BETA)]
                else:
                    argv += ["--max-iters", str(MAX_ITERS)]
                requests.append(HaltingRequest(kind, data, argv))
        elif workload == "detect-stall":
            for i, n in enumerate(STALL_DIMS):
                spec, data = _stall_map(rng, n)
                path = _write_json(workdir / f"map-{r}-{i}.json", spec)
                argv = ["detect", "--map", path, "--seed", str(int(rng.integers(2**31))),
                        "--max-iters", str(STALL_BUDGET)]
                requests.append(StallRequest("matrix", data, argv))
        elif workload == "illuminate":
            requests.append(IlluminateRequest(rng, workdir, r))
        else:
            requests.append(CertifyRequest())
        rounds.append(requests)
    return rounds


WORKLOADS = ("detect-halting", "detect-stall", "illuminate", "certify")
