from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conelight.detector as detector
from conelight.detector import (
    BLOCK_SIZE,
    RATIO_TIE_RTOL,
    DetectionReport,
    SamplerConfig,
    SubsetLedger,
    chain_schedule,
    estimate_eigenvector,
    min_remaining_lower_bound,
    run,
)
from conelight.geometry import mask_members, witnessed_masks
from conelight.maps import (
    DYNAMIC_RANGE_CAP,
    FunctionMap,
    InvalidMapError,
    MatrixMap,
    MaxPlusMap,
    MonomialMap,
    evaluate,
    shear2_map,
)


def brute_force_recordable(ratios):
    """Oracle: enumerate all nonempty proper subsets and test the
    defining strict inequality directly."""
    n = len(ratios)
    witnessed = set()
    for size in range(1, n):
        for J in combinations(range(1, n + 1), size):
            inside = max(ratios[j - 1] for j in J)
            outside = min(r for j, r in enumerate(ratios, start=1) if j not in J)
            if inside < outside:
                witnessed.add(frozenset(J))
    return witnessed


def recordable(ratios, rel_tol=RATIO_TIE_RTOL):
    """The subsets one ratio vector witnesses under the detector's tie rule,
    smallest first: the nonzero `witnessed_masks` of a one-row block."""
    masks = witnessed_masks(np.array([ratios], dtype=float), rel_tol)
    return [frozenset(mask_members(m)) for m in masks[0].tolist() if m]


def record_one(f, x, ledger):
    """Record one test point as a one-row block; the subsets it witnesses,
    smallest first."""
    masks = detector._record_block(f, np.array([x], dtype=float), ledger)
    return [frozenset(mask_members(m)) for m in masks[0].tolist() if m]


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


def test_recordable_subsets_examples():
    assert recordable([1.5, 1.0]) == [frozenset({2})]
    assert recordable([1.0, 1.0, 1.0]) == []
    assert recordable([2.5, 4.0]) == [frozenset({1})]
    assert recordable([3.0, 1.0, 2.0]) == [
        frozenset({2}),
        frozenset({2, 3}),
    ]


def test_recordable_subsets_tie_tolerance():
    # a 5e-13 relative gap is a tie: nothing may be recorded across it
    assert recordable([1.0, 1.0 + 5e-13, 2.0]) == [frozenset({1, 2})]
    # exact ties collapse
    assert recordable([1.0, 1.0, 2.0]) == [frozenset({1, 2})]
    # a clearly separated gap is kept
    assert recordable([1.0, 1.0 + 1e-9, 2.0]) == [
        frozenset({1}),
        frozenset({1, 2}),
    ]


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=7,
    )
)
@settings(max_examples=400)
def test_recordable_subsets_match_brute_force(ratios):
    arr = np.array(ratios)
    # keep away from the tie tolerance so both routes must agree exactly
    srt = np.sort(arr)
    gaps = np.diff(srt)
    if np.any((gaps > 0) & (gaps <= 1e-9 * srt[1:])):
        return
    got = set(recordable(arr))
    assert got == brute_force_recordable(list(arr))


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=7,
    )
)
@settings(max_examples=300)
def test_recorded_subsets_form_a_chain(ratios):
    recorded = recordable(np.array(ratios))
    assert len(recorded) <= len(ratios) - 1
    for small, big in zip(recorded, recorded[1:]):
        assert small < big


def test_record_step_examples():
    ledger = SubsetLedger(2)
    got = record_one(shear2_map(), [1.0, 0.5], ledger)
    assert got == [frozenset({2})]
    assert ledger.recorded == {0b10: (2,)}

    m = MatrixMap([[2, 1], [1, 2]])
    ledger2 = SubsetLedger(2)
    assert record_one(m, [1.0, 0.5], ledger2) == [frozenset({1})]
    assert record_one(m, [1.0, 2.0], ledger2) == [frozenset({2})]
    assert ledger2.is_complete()

    ident = MatrixMap(np.eye(3))
    ledger3 = SubsetLedger(3)
    assert record_one(ident, [0.2, 5.0, 1.0], ledger3) == []


# ---------------------------------------------------------------------------
# Progress bound
# ---------------------------------------------------------------------------


def test_min_remaining_lower_bound_examples():
    empty = SubsetLedger(4)
    assert min_remaining_lower_bound(empty) == 6  # the size-2 level

    full = SubsetLedger(2)
    full.recorded = {0b01: (1,), 0b10: (2,)}
    assert min_remaining_lower_bound(full) == 0

    mid = SubsetLedger(4)
    mid.recorded = {
        sum(1 << (i - 1) for i in c): c for c in combinations(range(1, 5), 2)
    }
    assert min_remaining_lower_bound(mid) == 4  # levels 1 and 3 both miss 4


def test_subset_ledger_rejects_negative_history_cap():
    # a negative cap would make `cap - len(history)` slice points from the end
    with pytest.raises(ValueError, match="history_cap"):
        SubsetLedger(3, history_cap=-1)
    ledger = SubsetLedger(3, history_cap=0)
    x = np.exp(np.random.default_rng(4).uniform(-3.0, 3.0, (5, 3)))
    detector._record_block(_random_matrix(3, 1), x, ledger)
    assert ledger.samples_seen and ledger.history == []


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def reference_chain_schedule(chains, n, beta):
    """The chain schedule built one chain at a time from the symmetric
    chains of {1, ..., n}: indices in the smallest subset at level k, each
    successive difference one level lower, the complement at level 0."""
    full = (1 << n) - 1
    points = []
    for chain in chains:
        subsets = [J for J in chain if 0 < J < full]
        k = len(subsets)
        levels = np.zeros(n)
        seen = 0
        for depth, J in enumerate(subsets):
            for idx in mask_members(J & ~seen):
                levels[idx - 1] = k - depth
            seen = J
        x = beta**levels
        points.append(x / x[0])
    return points


@pytest.mark.parametrize("n", range(2, 15))
def test_chain_schedule_matches_reference(n, reference_symmetric_chains):
    chains = reference_symmetric_chains(n)
    for beta in (1.5, 10.0, 1000.0, DYNAMIC_RANGE_CAP ** (1 / (n - 1))):
        if beta ** (n - 1) > DYNAMIC_RANGE_CAP:
            continue
        got = chain_schedule(n, beta)
        want = reference_chain_schedule(chains, n, beta)
        assert got.shape == (comb(n, (n + 1) // 2), n)
        assert got.tobytes() == np.array(want).tobytes()


def test_chain_schedule_n2():
    pts = chain_schedule(2, 1000.0)
    assert [p.tolist() for p in pts] == [[1.0, 0.001], [1.0, 1000.0]]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_chain_schedule_count_and_normalization(n):
    pts = chain_schedule(n, 1000.0 if n <= 5 else 100.0)
    assert len(pts) == comb(n, (n + 1) // 2)
    for p in pts:
        assert p[0] == 1.0
        assert np.all(p > 0)


def test_chain_schedule_dynamic_range_cap():
    chain_schedule(2, 1e12)  # ratio exactly at the cap is allowed
    with pytest.raises(ValueError):
        chain_schedule(2, 2e12)
    with pytest.raises(ValueError):
        chain_schedule(5, 1e6)  # (1e6)**4 blows past the cap
    with pytest.raises(ValueError):
        chain_schedule(1, 10.0)
    with pytest.raises(ValueError):
        chain_schedule(3, 1.0)
    with pytest.raises(ValueError):
        chain_schedule(3, float("nan"))


# ---------------------------------------------------------------------------
# Detection runs
# ---------------------------------------------------------------------------


def test_run_halts_on_positive_matrix():
    m = MatrixMap([[2, 1], [1, 2]])
    report = run(m, SamplerConfig(mode="log-uniform", radius=3.0, seed=5))
    assert report.halted
    assert report.samples_used >= 2  # universal chain bound for n = 2
    assert report.recorded_count == report.total_subsets == 2
    assert report.remaining_lower_bound == 0
    assert report.estimate.converged
    assert report.estimate.eigenvalue == pytest.approx(3.0, abs=1e-9)


def test_run_never_halts_on_shear():
    report = run(
        shear2_map(),
        SamplerConfig(mode="log-uniform", seed=1, max_iterations=3000, history_cap=10),
    )
    assert not report.halted
    assert report.samples_used == 3000
    assert report.recorded_subsets == ((2,),)
    assert report.remaining_lower_bound == 1
    assert report.estimate is None
    assert report.history_truncated and len(report.history) == 10


def test_shear_ratio_ordering_is_fixed():
    # f(x)_1/x_1 = 1 + x_2/x_1 > 1 = f(x)_2/x_2 for every positive x,
    # so the subset {1} can never be witnessed
    f = shear2_map()
    rng = np.random.default_rng(12)
    for _ in range(1000):
        x = np.exp(rng.uniform(-6, 6, 2))
        r = (f.matrix @ x) / x
        assert r[0] > r[1]
        assert recordable(r) in ([], [frozenset({2})])


def test_run_never_halts_on_distinct_diagonal():
    diag = MatrixMap(np.diag([1.0, 2.0, 3.0]))
    report = run(diag, SamplerConfig(seed=2, max_iterations=2000, history_cap=0))
    assert not report.halted
    # a fixed strict ratio ordering leaves only the two prefix subsets
    assert set(report.recorded_subsets) == {(1,), (1, 2)}


def test_run_unit_box_mode_keeps_first_coordinate_maximal():
    m = MatrixMap([[2, 1], [1, 2]])
    report = run(
        m, SamplerConfig(mode="unit-box", seed=3, max_iterations=2000, history_cap=50)
    )
    # witnessing {2} needs x_2 > x_1, impossible in the unit box
    assert not report.halted
    assert set(report.recorded_subsets) == {(1,)}
    for rec in report.history:
        assert rec.point[0] == 1.0
        assert all(0.0 < c < 1.0 for c in rec.point[1:])


def test_run_scheduled_mode_exact_sample_count():
    rng = np.random.default_rng(13)
    for n in (3, 4, 5):
        m = MatrixMap(rng.uniform(1.0, 2.0, (n, n)))
        report = run(m, SamplerConfig(mode="scheduled", beta=1000.0, history_cap=0))
        assert report.halted
        assert report.samples_used == comb(n, (n + 1) // 2)


def test_run_is_deterministic():
    m = MatrixMap([[3, 1, 0.5], [1, 2, 1], [0.2, 1, 4]])
    cfg = SamplerConfig(mode="log-uniform", seed=21, max_iterations=5000)
    assert run(m, cfg) == run(m, cfg)


def test_run_on_maxplus_with_interior_eigenvector():
    # f(x) = (max(x1, 2 x2), max(3 x1, x2)) has the interior eigenvector
    # (sqrt(2/3), 1) with eigenvalue sqrt(6), so detection must halt
    f = MaxPlusMap([[1, 2], [3, 1]])
    report = run(f, SamplerConfig(seed=4))
    assert report.halted
    v = np.array([np.sqrt(2.0 / 3.0), 1.0])
    r = evaluate(f, v) / v
    np.testing.assert_allclose(r, np.sqrt(6.0), rtol=1e-12)


def test_run_trivial_dimension_one():
    f = MatrixMap([[2.0]])
    report = run(f, SamplerConfig(seed=0))
    assert report.halted and report.samples_used == 0
    assert report.total_subsets == 0
    assert report.estimate.eigenvalue == pytest.approx(2.0)


def test_run_checks_user_maps_statistically():
    bad = FunctionMap(lambda x: x + 1.0, dim=2, name="affine")
    with pytest.raises(InvalidMapError):
        run(bad, SamplerConfig(seed=0))
    good = FunctionMap(lambda x: np.array([x[0] + 2 * x[1], 3 * x[0] + x[1]]), dim=2)
    assert run(good, SamplerConfig(seed=0)).halted


def test_halting_runs_respect_universal_lower_bound():
    rng = np.random.default_rng(14)
    for n in (2, 3, 4):
        for seed in range(5):
            m = MatrixMap(rng.uniform(1.0, 2.0, (n, n)))
            report = run(m, SamplerConfig(seed=seed))
            if report.halted:
                assert report.samples_used >= comb(n, (n + 1) // 2)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(mode="warp")
    with pytest.raises(ValueError):
        SamplerConfig(radius=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(beta=1.0)
    with pytest.raises(ValueError):
        SamplerConfig(beta=float("nan"))
    with pytest.raises(ValueError):
        SamplerConfig(beta=float("inf"))
    with pytest.raises(ValueError):
        SamplerConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SamplerConfig(seed=-1)


@pytest.mark.parametrize("radius", [14.0, 1000.0, float("inf"), float("nan")])
def test_sampler_config_rejects_radius_beyond_dynamic_range(radius):
    # log-uniform coordinates span exp(2 * radius), which must stay within
    # the dynamic range cap 1e12
    with pytest.raises(ValueError):
        SamplerConfig(radius=radius)


def test_sampler_config_accepts_radius_at_dynamic_range():
    SamplerConfig(radius=13.8)
    report = run(
        MatrixMap([[2, 1], [1, 2]]), SamplerConfig(radius=13.8, seed=1, history_cap=0)
    )
    assert report.halted


def test_chain_bound_is_checked_explicitly(monkeypatch):
    # a ledger that claims completion after one sample must be refused by
    # a check that survives python -O, not by an assert
    monkeypatch.setattr(SubsetLedger, "is_complete", lambda self: self.samples_seen > 0)
    m = MatrixMap([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    with pytest.raises(RuntimeError, match="chain bound"):
        run(m, SamplerConfig(mode="scheduled", max_iterations=1))


def test_report_invariant_halted_means_complete():
    m = MatrixMap([[2, 1], [1, 2]])
    report = run(m, SamplerConfig(seed=9))
    assert isinstance(report, DetectionReport)
    if report.halted:
        assert report.recorded_count == report.total_subsets


# ---------------------------------------------------------------------------
# Eigenvector estimation
# ---------------------------------------------------------------------------


def test_estimate_eigenvector_symmetric_matrix():
    m = MatrixMap([[2, 1], [1, 2]])
    est = estimate_eigenvector(m, [1.0, 0.3], tol=1e-10)
    assert est.converged
    np.testing.assert_allclose(est.vector, [1.0, 1.0], atol=1e-8)
    assert est.eigenvalue == pytest.approx(3.0, abs=1e-8)
    assert est.residual <= 1e-10


def test_estimate_eigenvector_identity():
    ident = MatrixMap(np.eye(3))
    est = estimate_eigenvector(ident, [0.4, 2.0, 1.0])
    assert est.converged and est.iterations == 0
    assert est.residual == 0.0
    assert est.eigenvalue == 1.0
    np.testing.assert_allclose(est.vector, [0.4, 2.0, 1.0])


def test_estimate_eigenvector_shear_does_not_converge():
    est = estimate_eigenvector(shear2_map(), [1.0, 1.0], tol=1e-10, max_iter=500)
    assert not est.converged
    assert est.iterations == 500


def test_estimate_eigenvector_rejects_bad_tol():
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            estimate_eigenvector(shear2_map(), [1.0, 1.0], tol=tol)


def test_estimate_eigenvector_rejects_negative_max_iter():
    with pytest.raises(ValueError):
        estimate_eigenvector(shear2_map(), [1.0, 1.0], max_iter=-3)


def test_estimate_eigenvector_evaluates_once_per_iteration():
    calls = []

    def apply(x):
        calls.append(1)
        return np.array([2 * x[0] + x[1], x[0] + 3 * x[1]])

    est = estimate_eigenvector(FunctionMap(apply, dim=2), [1.0, 1.0], tol=1e-9)
    assert est.converged and est.iterations == 21
    assert len(calls) == est.iterations + 1


# ---------------------------------------------------------------------------
# The block loop against a per-sample reference
# ---------------------------------------------------------------------------


def reference_run(f, cfg):
    """The detector as a plain loop over single samples: one draw, one
    evaluation and one sort per test point.  Returns samples used, the
    recorded subsets and the history as (index, point, ratios, recorded)."""
    n = f.dim
    total = 2**n - 2
    if total == 0:  # n = 1 has nothing to record
        return 0, set(), []
    rng = np.random.default_rng(cfg.seed)
    if cfg.mode == "scheduled":
        points = chain_schedule(n, cfg.beta)
        budget = min(len(points), cfg.max_iterations)
    else:
        budget = cfg.max_iterations
    recorded, history, samples = set(), [], 0
    while len(recorded) < total and samples < budget:
        if cfg.mode == "scheduled":
            x = points[samples]
        else:
            x = np.ones(n)
            if cfg.mode == "unit-box":
                x[1:] = np.maximum(rng.uniform(0.0, 1.0, n - 1), np.finfo(float).tiny)
            else:
                x[1:] = np.exp(rng.uniform(-cfg.radius, cfg.radius, n - 1))
        r = evaluate(f, x) / x
        order = np.argsort(r, kind="stable")
        subsets = tuple(
            tuple(sorted(int(i) + 1 for i in order[: pos + 1]))
            for pos in range(n - 1)
            if r[order[pos + 1]] - r[order[pos]] > RATIO_TIE_RTOL * r[order[pos + 1]]
        )
        samples += 1
        recorded.update(subsets)
        if len(history) < cfg.history_cap:
            history.append((samples, tuple(x.tolist()), tuple(r.tolist()), subsets))
    return samples, recorded, history


def _random_matrix(n, seed):
    return MatrixMap(np.random.default_rng([n, seed]).uniform(1.0, 2.0, (n, n)))


def _assert_matches_reference(f, cfg):
    report = run(f, cfg)
    samples, recorded, history = reference_run(f, cfg)
    assert report.samples_used == samples
    assert set(report.recorded_subsets) == recorded
    assert report.recorded_count == len(recorded)
    assert [(r.index, r.point, r.ratios, r.recorded) for r in report.history] == history
    assert report.halted == (len(recorded) == 2**f.dim - 2)
    sizes = [len(s) for s in recorded]
    deficits = [comb(f.dim, k) - sizes.count(k) for k in range(1, f.dim)]
    assert report.remaining_lower_bound == max(deficits, default=0)
    return report


def test_block_loop_halts_mid_block_like_reference():
    report = _assert_matches_reference(_random_matrix(8, 0), SamplerConfig(seed=0))
    assert report.halted
    assert BLOCK_SIZE < report.samples_used < 2 * BLOCK_SIZE


def test_block_loop_history_cap_across_block_boundary():
    cap = BLOCK_SIZE + 88
    report = _assert_matches_reference(
        shear2_map(), SamplerConfig(seed=3, max_iterations=2 * BLOCK_SIZE + 7, history_cap=cap)
    )
    assert not report.halted and len(report.history) == cap


@pytest.mark.parametrize("mode", ["unit-box", "log-uniform", "scheduled"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_block_loop_matches_reference_small_n(mode, n):
    f = MatrixMap([[2.0]]) if n == 1 else _random_matrix(n, 1)
    for seed in (0, 1):
        _assert_matches_reference(
            f, SamplerConfig(mode=mode, seed=seed, max_iterations=1500, history_cap=600)
        )


def test_block_loop_matches_reference_on_other_maps():
    rng = np.random.default_rng(31)
    p = rng.uniform(0.5, 1.0, (6, 6))
    p /= p.sum(axis=1, keepdims=True)
    user = FunctionMap(lambda x: np.array([x[0] + 2 * x[1], 3 * x[0] + x[1]]), dim=2)
    for f in (
        MaxPlusMap(rng.uniform(1.0, 2.0, (6, 6))),
        MonomialMap(p),
        user,
        MatrixMap(np.diag([1.0, 2.0, 3.0])),
        MatrixMap([[1, 1e-300], [1e-300, 1]]),  # every gap is a tie
    ):
        _assert_matches_reference(f, SamplerConfig(seed=5, max_iterations=1200, history_cap=40))


def test_block_loop_matches_reference_beyond_int64_masks():
    # n > 62 records subsets as Python-int masks
    f = MatrixMap(np.eye(64) + 0.01)
    _assert_matches_reference(f, SamplerConfig(seed=2, max_iterations=20, history_cap=3))


def test_record_step_is_a_one_row_block():
    f = _random_matrix(4, 2)
    stepped, blocked = SubsetLedger(4, history_cap=5), SubsetLedger(4, history_cap=5)
    x = np.exp(np.random.default_rng(8).uniform(-3.0, 3.0, (9, 4)))
    steps = [record_one(f, row, stepped) for row in x]
    detector._record_block(f, x, blocked)
    assert stepped.recorded == blocked.recorded
    assert stepped.history == blocked.history
    assert stepped.samples_seen == blocked.samples_seen == 9
    for row, got in zip(x, steps):
        assert got == recordable(evaluate(f, row) / row)
