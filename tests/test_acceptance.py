"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single pass/fail line (run with `pytest -s -v` to
see the lines as they go by).
"""

import time
from math import comb

import numpy as np

from conelight.detector import SamplerConfig, recordable_subsets, run
from conelight.geometry import (
    extreme_points,
    hilbert_distance,
    log_map,
    variation_norm,
)
from conelight.illumination import (
    illuminates,
    illuminates_numeric,
    illumination_number_exact,
    lower_bound_certificate,
    optimal_illuminating_set,
    symmetric_chain_masks,
    verify_illumination,
)
from conelight.maps import MatrixMap, MaxPlusMap, MonomialMap, evaluate, shear2_map


def _verdict(criterion: str, ok: bool, detail: str):
    line = f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def _pinned_matrices(n: int, count: int = 100):
    """The seed-pinned random positive matrices shared by criteria 6 and 7."""
    rng = np.random.default_rng(1000 + n)
    return [MatrixMap(rng.uniform(1.0, 2.0, (n, n))) for _ in range(count)]


def test_criterion_1_optimal_set_sizes_and_coverage():
    expected = [2, 3, 6, 10, 20, 35, 70, 126, 252, 462, 924]
    start = time.perf_counter()
    sizes = []
    for n in range(2, 13):
        directions = optimal_illuminating_set(n)
        sizes.append(len(directions))
        report = verify_illumination(directions, n)
        assert report.covered, f"n={n}: {len(report.unilluminated)} points missed"
    elapsed = time.perf_counter() - start
    ok = sizes == expected and elapsed < 10.0
    _verdict(
        "1 upper bound",
        ok,
        f"sizes {sizes} (expected {expected}), all covered, {elapsed:.2f}s < 10s",
    )


def test_criterion_2_exact_illumination_number():
    start = time.perf_counter()
    values = {n: illumination_number_exact(n) for n in range(2, 13)}
    elapsed = time.perf_counter() - start
    ok = all(values[n] == comb(n, (n + 1) // 2) for n in values) and elapsed < 60.0
    _verdict("2 exact value", ok, f"{values} via chain cover, {elapsed:.2f}s < 60s")


def test_criterion_3_lower_bound_certificates():
    start = time.perf_counter()
    results = {}
    for n in range(2, 9):
        cert = lower_bound_certificate(n)
        results[n] = (cert.size, cert.all_unshareable)
    elapsed = time.perf_counter() - start
    ok = (
        all(size == comb(n, (n + 1) // 2) and good for n, (size, good) in results.items())
        and elapsed < 120.0
    )
    sizes = {n: s for n, (s, _) in results.items()}
    _verdict(
        "3 lower bound",
        ok,
        f"certificate sizes {sizes}, every pair unshareable, {elapsed:.2f}s < 120s",
    )


def test_criterion_4_symmetric_chain_decompositions():
    checked = []
    for d in range(1, 13):
        chains = [
            [tuple((m >> i) & 1 for i in range(d)) for m in chain]
            for chain in symmetric_chain_masks(d)
        ]
        seen = set()
        for chain in chains:
            for a, b in zip(chain, chain[1:]):
                assert all(x <= y for x, y in zip(a, b))
                assert sum(b) == sum(a) + 1  # condition (a): immediate successor
            assert sum(chain[-1]) == d - sum(chain[0])  # condition (b): symmetric
            for v in chain:
                assert v not in seen
                seen.add(v)
        assert len(seen) == 2**d
        assert len(chains) == comb(d, (d + 1) // 2)
        checked.append(len(chains))
    _verdict("4 chain decomposition", True, f"d=1..12 chain counts {checked}")


def test_criterion_5_isometry_and_nonexpansiveness():
    worst_iso = 0.0
    for n in range(2, 9):
        rng = np.random.default_rng(2000 + n)
        for _ in range(10_000):
            x = np.exp(rng.uniform(-4.0, 4.0, n))
            y = np.exp(rng.uniform(-4.0, 4.0, n))
            chart = variation_norm(np.append(log_map(x) - log_map(y), 0.0))
            worst_iso = max(worst_iso, abs(hilbert_distance(x, y) - chart))
    assert worst_iso <= 1e-9

    builtins = [
        shear2_map(),
        MatrixMap([[2, 1], [1, 2]]),
        MatrixMap([[1, 2, 0.5], [0.1, 1, 1], [3, 0, 2]]),
        MaxPlusMap([[1, 2], [3, 1]]),
        MonomialMap([[0.5, 0.5], [0.25, 0.75]]),
    ]
    worst_exp = 0.0
    for f in builtins:
        rng = np.random.default_rng(3000 + f.dim)
        for _ in range(10_000):
            x = np.exp(rng.uniform(-3.0, 3.0, f.dim))
            y = np.exp(rng.uniform(-3.0, 3.0, f.dim))
            slack = hilbert_distance(evaluate(f, x), evaluate(f, y)) - hilbert_distance(x, y)
            worst_exp = max(worst_exp, slack)
    ok = worst_exp <= 1e-9
    _verdict(
        "5 isometry/nonexpansive",
        ok,
        f"max isometry gap {worst_iso:.2e} <= 1e-9, "
        f"max expansion {worst_exp:.2e} <= 1e-9",
    )


def test_criterion_6_detector_behavior_matrix():
    # (a) halts on seed-pinned positive matrices, (c) never under the bound
    halted = 0
    runs = 0
    for n in (3, 4, 5):
        bound = comb(n, (n + 1) // 2)
        for i, f in enumerate(_pinned_matrices(n)):
            report = run(
                f,
                SamplerConfig(
                    mode="log-uniform", radius=3.0, seed=i,
                    max_iterations=10_000, history_cap=0,
                ),
            )
            runs += 1
            assert report.halted, f"n={n} instance {i} did not halt in 10^4 samples"
            assert report.samples_used >= bound, f"n={n} instance {i} beat the bound"
            halted += 1

    # (b) provably non-halting maps stay non-halting for 10^5 samples
    shear_report = run(
        shear2_map(),
        SamplerConfig(mode="log-uniform", seed=0, max_iterations=100_000, history_cap=0),
    )
    assert not shear_report.halted
    assert shear_report.recorded_subsets == ((2,),), "subset {1} must never be recorded"
    rng = np.random.default_rng(0)
    f = shear2_map()
    for _ in range(1000):
        x = np.exp(rng.uniform(-8.0, 8.0, 2))
        ratios = (f.matrix @ x) / x
        assert ratios[0] > ratios[1]
        assert frozenset({1}) not in recordable_subsets(ratios)

    diag_report = run(
        MatrixMap(np.diag([1.0, 2.0, 3.0])),
        SamplerConfig(mode="log-uniform", seed=0, max_iterations=100_000, history_cap=0),
    )
    assert not diag_report.halted
    assert set(diag_report.recorded_subsets) <= {(1,), (1, 2)}

    _verdict(
        "6 detector matrix",
        True,
        f"{halted}/{runs} pinned runs halted within 10^4 samples at or above the "
        f"chain bound; shear2 and distinct-diagonal stayed non-halting for 10^5",
    )


def test_criterion_7_scheduled_optimality():
    exact = 0
    total = 0
    stragglers = []
    for n in (3, 4, 5):
        bound = comb(n, (n + 1) // 2)
        for i, f in enumerate(_pinned_matrices(n)):
            report = run(
                f,
                SamplerConfig(mode="scheduled", beta=1000.0, seed=i, history_cap=0),
            )
            total += 1
            if report.halted:
                assert report.samples_used >= bound
            if report.halted and report.samples_used == bound:
                exact += 1
            else:
                stragglers.append((n, i, report.samples_used, report.halted))
    ok = exact >= 0.95 * total
    _verdict(
        "7 scheduled optimality",
        ok,
        f"{exact}/{total} runs halted in exactly C(n, ceil(n/2)) samples"
        + (f"; exceptions {stragglers}" if stragglers else ""),
    )


def test_criterion_8_closed_form_equals_numeric_definition():
    disagreements = 0
    for n in range(2, 9):
        rng = np.random.default_rng(4000 + n)
        points = extreme_points(n)
        for _ in range(10_000):
            w = rng.standard_normal(n - 1)
            z = points[rng.integers(len(points))]
            if illuminates(w, z) != illuminates_numeric(w, z):
                disagreements += 1
    _verdict(
        "8 predicate agreement",
        disagreements == 0,
        f"{disagreements} disagreements over 10^4 pairs for each n in 2..8",
    )
