"""Check the benchmark's own checks: genuine outputs pass, tampered ones fail.

    python3 bench/selftest.py

Runs one request of every kind through `conelight.cli.dispatch`, confirms
its check accepts the real output, then edits the output document in ways
a wrong program could (an eigenvalue off by 1e-6, a dropped direction, a
missing subset, ...) and confirms each edit is reported as a wrong output.
It also confirms BENCHMARK.json names exactly the metrics run.py prints.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace

from oracles import middle_binomial
from run import OUT, ROOT, attempt, import_cli, make_invoke
from tracing import PER_LAYER
from workloads import WORKLOADS, make_rounds


def edited(call, edit):
    doc = json.loads(call.stdout)
    edit(doc)
    return replace(call, stdout=json.dumps(doc))


def break_first_recorded_subset(doc):
    # give an index inside a recorded subset the largest ratio of its sample
    rec = next(r for r in doc["history"] if r["recorded"])
    rec["ratios"][rec["recorded"][0][0] - 1] = max(rec["ratios"]) * 2


def swap_history_subset(doc):
    # record, in place of a sample's first subset, a same-size subset it does not witness
    rec = next(r for r in doc["history"] if r["recorded"])
    first = rec["recorded"][0]
    order = sorted(range(len(rec["ratios"])), key=rec["ratios"].__getitem__)
    rec["recorded"][0] = sorted(i + 1 for i in order[-len(first):])


def drop_recorded_subset(doc):
    doc["recorded_subsets"].pop()
    doc["recorded_count"] -= 1


def record_subset_without_n(doc):
    doc["recorded_subsets"].insert(0, [1])
    doc["recorded_count"] += 1


def halt_below_bound(doc):
    short = middle_binomial(doc["dimension"]) - 1
    doc["samples_used"] = short
    doc["history"] = doc["history"][:short]
    doc["history_truncated"] = False


def bump_eigenvalue(doc):
    doc["eigenvector_estimate"]["eigenvalue"] += 1e-6


def grow_first_point_support(doc):
    point = doc["points"][0]
    point[point.index(0.0)] = 1.0 if max(point) > 0 else -1.0


def set_field(key, value):
    return lambda doc: doc.__setitem__(key, value)


# workload -> (what is changed, index of the call whose document is edited, edit)
TAMPERS = {
    "detect-halting": [
        ("eigenvalue off by 1e-6", 0, bump_eigenvalue),
        ("a recorded subset dropped", 0, drop_recorded_subset),
        ("halted below the bound C(n, ceil(n/2))", 0, halt_below_bound),
        ("a history ratio changed", 0, break_first_recorded_subset),
        ("a history subset swapped", 0, swap_history_subset),
        ("halted cleared", 0, set_field("halted", False)),
    ],
    "detect-stall": [
        ("halted set", 0, set_field("halted", True)),
        ("a subset without n recorded", 0, record_subset_without_n),
        ("samples_used off by one", 0, lambda d: d.__setitem__("samples_used", d["samples_used"] - 1)),
        ("a history ratio changed", 0, break_first_recorded_subset),
        ("a history subset swapped", 0, swap_history_subset),
    ],
    "illuminate": [
        ("a dropped direction", 0, lambda d: d["directions"].pop()),
        ("a dropped direction, count lowered", 2, lambda d: (d["directions"].pop(), d.__setitem__("count", d["count"] - 1))),
        ("every direction the same", 0, lambda d: d.__setitem__("directions", [d["directions"][0]] * d["count"])),
        ("covered cleared", 1, set_field("covered", False)),
        ("direction_count lowered", 3, lambda d: d.__setitem__("direction_count", d["direction_count"] - 1)),
    ],
    "certify": [
        ("a shareable pair", 0, set_field("all_unshareable", False)),
        ("classes_checked short", 0, set_field("classes_checked", 5039)),
        ("a point moved to another support size", 0, grow_first_point_support),
        ("a pair marked shareable", 0, lambda d: d["pairs"][0].__setitem__("unshareable", False)),
        ("illumination number 19", 1, set_field("illumination_number", 19)),
    ],
}


class Replay:
    """A request whose calls are fixed: checks see exactly these outputs."""

    def __init__(self, request, calls):
        self.request, self.calls = request, calls

    def run(self, invoke):
        return self.calls

    def check(self, calls):
        return self.request.check(calls)


def main() -> int:
    cli = import_cli()
    invoke = make_invoke(cli)
    workdir = OUT / "selftest"
    ok = True
    try:
        for workload in WORKLOADS:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            requests = make_rounds(workload, 7, workdir)[0]
            for request in requests:
                calls = request.run(invoke)
                status = attempt(Replay(request, calls), invoke)[0]
                ok &= report(status == "ok", f"{workload}: genuine {' '.join(calls[0].argv[:3])}")
            request = requests[0]
            calls = request.run(invoke)
            for label, index, edit in TAMPERS[workload]:
                tampered = list(calls)
                tampered[index] = edited(calls[index], edit)
                status = attempt(Replay(request, tampered), invoke)[0]
                ok &= report(status == "wrong", f"{workload}: {label} is caught")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {"requests_per_s", "request_p50_ms", "setup_s", "peak_rss_mb"}
    ok &= report({m["name"] for m in spec["end_to_end"]} == end_to_end, "BENCHMARK.json end_to_end")
    ok &= report(
        [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(p[0], p[3]) for p in PER_LAYER],
        "BENCHMARK.json per_layer",
    )
    ok &= report([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    return 0 if ok else 1


def report(passed: bool, label: str) -> bool:
    print(f"{'PASS' if passed else 'FAIL'} {label}")
    return passed


if __name__ == "__main__":
    sys.exit(main())
