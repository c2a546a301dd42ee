from itertools import permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelight import illumination
from conelight.detector import chain_schedule, recordable_subsets
from conelight.geometry import (
    DimensionMismatchError,
    ExtremePoint,
    extreme_points,
    subset_to_extreme_point,
)
from conelight.illumination import (
    MAX_CERTIFICATE_N,
    MAX_CHAIN_D,
    MAX_EXACT_N,
    MAX_ILLUMINATION_N,
    TooLargeError,
    canonical_class_representative,
    chain_illuminator,
    illuminated_supports,
    illuminates,
    illuminates_numeric,
    illumination_number_exact,
    lower_bound_certificate,
    optimal_illuminating_set,
    pair_illuminator,
    symmetric_chain_decomposition,
    verify_illumination,
)


def ep(sign, support, dim):
    return ExtremePoint(sign, frozenset(support), dim)


def pattern_by_predicate(w, n):
    """Oracle: the full illuminated set via the scalar closed form."""
    return {(z.sign, z.support) for z in extreme_points(n) if illuminates(w, z)}


def reference_supports(w):
    """Per-threshold enumeration: {j : w_j <= t} for each distinct negative
    value t, {j : w_j >= s} for each distinct positive value s."""
    wv = np.asarray(w, dtype=float)
    values = np.unique(wv)
    plus = [frozenset(int(j) + 1 for j in np.flatnonzero(wv <= t)) for t in values if t < 0.0]
    minus = [
        frozenset(int(j) + 1 for j in np.flatnonzero(wv >= s)) for s in values[::-1] if s > 0.0
    ]
    return plus, minus


def reference_verify(directions, n):
    """The per-direction loop: mark each direction's supports, then list the
    missing points in extreme_points(n) order."""
    covered_plus, covered_minus = set(), set()
    for w in directions:
        plus, minus = reference_supports(w)
        covered_plus.update(plus)
        covered_minus.update(minus)
    missing = tuple(
        z
        for z in extreme_points(n)
        if z.support not in (covered_plus if z.sign > 0 else covered_minus)
    )
    return len(directions), not missing, missing


def reference_optimal_set(n):
    """The optimal set composed from the public illuminators, chain by chain."""
    d = n - 1
    full = frozenset(range(1, d + 1))
    directions = []
    for chain in symmetric_chain_decomposition(d):
        supports = [frozenset(i + 1 for i, b in enumerate(v) if b) for v in chain]
        if n % 2 == 0:
            w = chain_illuminator([ExtremePoint(1, s, d) for s in supports if s])
            directions += [w, -w]
        elif len(supports) == 1:
            s = supports[0]
            directions.append(
                pair_illuminator(ExtremePoint(1, s, d), ExtremePoint(-1, full - s, d))
            )
        else:
            directions.append(chain_illuminator([ExtremePoint(1, s, d) for s in supports if s]))
            directions.append(
                chain_illuminator([ExtremePoint(-1, full - s, d) for s in supports if full - s])
            )
    return directions


# rows mixing small integers (ties and zeros) with arbitrary floats
direction_blocks = st.integers(2, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(
                st.one_of(
                    st.integers(-3, 3).map(float),
                    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
                ),
                min_size=n - 1,
                max_size=n - 1,
            ).filter(any),
            max_size=12,
        ),
    )
)


def assert_symmetric_decomposition(chains, d):
    """Independent verifier straight from the definitions: saturated chains
    with bottom weight + top weight = d, partitioning all of {0,1}^d."""
    seen = set()
    for chain in chains:
        assert chain, "empty chain"
        for a, b in zip(chain, chain[1:]):
            assert all(x <= y for x, y in zip(a, b)), "not increasing"
            assert sum(b) == sum(a) + 1, "successor must add exactly one coordinate"
        assert sum(chain[-1]) == d - sum(chain[0]), "weights not symmetric"
        for v in chain:
            assert v not in seen, "chains overlap"
            seen.add(v)
    assert len(seen) == 2**d, "chains do not cover the cube"
    assert len(chains) == comb(d, (d + 1) // 2)


# ---------------------------------------------------------------------------
# Illumination predicate
# ---------------------------------------------------------------------------


def test_illuminates_examples():
    assert illuminates([-2, -1], ep(1, {1, 2}, 2))
    assert not illuminates([-1, -2], ep(1, {1}, 2))
    z = ep(1, {1, 3}, 3)
    assert not illuminates(z.realize(), z)  # outward along the point itself


def test_illuminates_numeric_matches_examples():
    assert illuminates_numeric([-2, -1], ep(1, {1, 2}, 2))
    assert not illuminates_numeric([-1, -2], ep(1, {1}, 2))


def test_illuminates_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        illuminates([-1.0], ep(1, {1, 2}, 2))
    with pytest.raises(ValueError):
        illuminates([0.0, 0.0], ep(1, {1}, 2))


def test_closed_form_vs_numeric_random():
    for n in range(2, 7):
        rng = np.random.default_rng(40 + n)
        pts = extreme_points(n)
        for _ in range(500):
            w = rng.standard_normal(n - 1)
            z = pts[rng.integers(len(pts))]
            assert illuminates(w, z) == illuminates_numeric(w, z)


def test_illuminated_supports_matches_predicate_even_with_ties():
    for n in range(2, 7):
        rng = np.random.default_rng(60 + n)
        for _ in range(200):
            w = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=n - 1)
            if not np.any(w):
                continue
            plus, minus = illuminated_supports(w)
            expected = pattern_by_predicate(w, n)
            got = {(1, s) for s in plus} | {(-1, s) for s in minus}
            assert got == expected


def test_illuminated_supports_with_python_int_masks():
    # (w, 0) has 71 > 62 entries, so the subset masks are Python ints
    rng = np.random.default_rng(71)
    w = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=70)
    plus, minus = illuminated_supports(w)
    assert (plus, minus) == reference_supports(w)
    assert len(plus) == len(minus) == 3


@settings(max_examples=150, deadline=None)
@given(direction_blocks)
def test_detector_witnesses_exactly_the_illuminated_points(case):
    # the identity behind the sample bound: a test point with log-ratio
    # vector (w, 0) records exactly the subsets J whose extreme points w
    # illuminates
    n, rows = case
    points = extreme_points(n)
    for w in rows:
        witnessed = recordable_subsets(np.append(w, 0.0), rel_tol=0.0)
        assert {subset_to_extreme_point(J, n) for J in witnessed} == {
            z for z in points if illuminates(w, z)
        }


@settings(max_examples=150, deadline=None)
@given(direction_blocks)
def test_support_kernel_matches_closed_form_predicate(case):
    n, rows = case
    if not rows:
        return
    masks = illumination._witnessed(np.array(rows))
    points = extreme_points(n)
    d, full = n - 1, (1 << n) - 1
    for w, row in zip(rows, masks.tolist()):
        # n-bit subsets: those avoiding index n are positive supports, the
        # others complement to negative supports
        prow = [m for m in row if m and not m >> d]
        mrow = [full - m for m in row[::-1] if m >> d]
        expected = {(z.sign, z.mask) for z in points if illuminates(w, z)}
        got = {(1, m) for m in prow} | {(-1, m) for m in mrow}
        assert got == expected
        # both chains shortest first, as illuminated_supports lists them
        sets = illuminated_supports(w)
        assert sets == reference_supports(w)
        assert [sum(1 << (i - 1) for i in s) for s in sets[0]] == prow
        assert [sum(1 << (i - 1) for i in s) for s in sets[1]] == mrow


@settings(max_examples=150, deadline=None)
@given(direction_blocks)
def test_verify_illumination_matches_reference_loop(case):
    n, rows = case
    report = verify_illumination([np.array(w) for w in rows], n)
    count, covered, missing = reference_verify(rows, n)
    assert (report.direction_count, report.covered, report.unilluminated) == (
        count,
        covered,
        missing,
    )


@pytest.mark.parametrize("n", range(2, 15))
def test_optimal_set_equals_composition_of_public_illuminators(n):
    got = optimal_illuminating_set(n)
    expected = reference_optimal_set(n)
    assert len(got) == len(expected)
    for w, v in zip(got, expected):
        assert w.tobytes() == v.tobytes()


def test_optimal_set_raises_when_a_support_goes_unilluminated(monkeypatch):
    kernel = illumination._witnessed

    def drop_one(block):
        masks = kernel(block).copy()
        row, col = np.argwhere(masks)[0]
        masks[row, col] = 0
        return masks

    monkeypatch.setattr(illumination, "_witnessed", drop_one)
    with pytest.raises(RuntimeError):
        optimal_illuminating_set(6)


def test_illuminators_raise_when_the_closed_form_check_fails(monkeypatch):
    monkeypatch.setattr(illumination, "illuminates", lambda w, z: False)
    with pytest.raises(RuntimeError):
        chain_illuminator([ep(1, {1}, 2), ep(1, {1, 2}, 2)])
    with pytest.raises(RuntimeError):
        pair_illuminator(ep(1, {1}, 2), ep(-1, {2}, 2))


def test_size_limits_raise_too_large_before_building():
    assert (MAX_ILLUMINATION_N, MAX_CHAIN_D, MAX_CERTIFICATE_N, MAX_EXACT_N) == (20, 20, 9, 6)
    assert issubclass(TooLargeError, ValueError)
    with pytest.raises(TooLargeError):
        optimal_illuminating_set(MAX_ILLUMINATION_N + 1)
    with pytest.raises(TooLargeError):
        verify_illumination([], MAX_ILLUMINATION_N + 1)
    with pytest.raises(TooLargeError):
        symmetric_chain_decomposition(MAX_CHAIN_D + 1)
    with pytest.raises(TooLargeError):
        lower_bound_certificate(MAX_CERTIFICATE_N + 1)
    with pytest.raises(TooLargeError):
        illumination_number_exact(MAX_EXACT_N + 1)
    # the scheduled sampler builds the same chains, over n indices
    with pytest.raises(TooLargeError):
        chain_schedule(MAX_CHAIN_D + 1, 1.1)


def test_chain_illuminator_over_the_size_limit_is_too_large():
    # a flag direction of dimension MAX_ILLUMINATION_N - 1 is the largest
    # optimal_illuminating_set builds; past 62 coordinates the bit masks
    # would no longer fit in int64
    d = 70
    chain = [ep(1, set(range(1, k + 1)), d) for k in (1, 35, d)]
    with pytest.raises(TooLargeError):
        chain_illuminator(chain)
    top = MAX_ILLUMINATION_N - 1
    w = chain_illuminator([ep(1, set(range(1, top + 1)), top)])
    assert illuminates(w, ep(1, set(range(1, top + 1)), top))


def test_illuminated_supports_are_nested_chains():
    rng = np.random.default_rng(8)
    for _ in range(200):
        w = rng.standard_normal(6)
        plus, minus = illuminated_supports(w)
        for fam in (plus, minus):
            for small, big in zip(fam, fam[1:]):
                assert small < big


# ---------------------------------------------------------------------------
# Chain and pair illuminators
# ---------------------------------------------------------------------------


def test_chain_illuminator_examples():
    w = chain_illuminator([ep(1, {1}, 2), ep(1, {1, 2}, 2)])
    np.testing.assert_array_equal(w, [-2.0, -1.0])
    w_neg = chain_illuminator([ep(-1, {1}, 2), ep(-1, {1, 2}, 2)])
    np.testing.assert_array_equal(w_neg, [2.0, 1.0])
    # singleton full-support chain: strictly negative strictly increasing values
    top = ep(1, {1, 2, 3, 4}, 4)
    w_top = chain_illuminator([top])
    assert np.all(w_top < 0) and np.all(np.diff(w_top) > 0)
    assert illuminates(w_top, top)


def test_chain_illuminator_illuminates_random_chains():
    rng = np.random.default_rng(9)
    for _ in range(200):
        d = int(rng.integers(1, 8))
        sign = int(rng.choice([1, -1]))
        # random nested chain: random permutation, random cut points
        perm = rng.permutation(d) + 1
        cuts = sorted(set(rng.integers(1, d + 1, size=rng.integers(1, d + 1)).tolist()))
        chain = [ep(sign, set(perm[:c].tolist()), d) for c in cuts]
        w = chain_illuminator(chain)
        assert all(illuminates(w, z) for z in chain)


def test_chain_illuminator_rejects_non_chains():
    with pytest.raises(ValueError):
        chain_illuminator([ep(1, {1}, 2), ep(1, {2}, 2)])
    with pytest.raises(ValueError):
        chain_illuminator([ep(1, {1}, 2), ep(-1, {1, 2}, 2)])
    with pytest.raises(ValueError):
        chain_illuminator([])
    with pytest.raises(ValueError):
        chain_illuminator([ep(1, {1}, 2), ep(1, {1}, 2)])


def test_pair_illuminator_examples():
    w = pair_illuminator(ep(1, {1, 2}, 4), ep(-1, {3, 4}, 4))
    np.testing.assert_array_equal(w, [-1.0, -1.0, 1.0, 1.0])
    assert illuminates(w, ep(1, {1, 2}, 4)) and illuminates(w, ep(-1, {3, 4}, 4))

    w2 = pair_illuminator(ep(1, {1}, 2), ep(-1, {2}, 2))
    np.testing.assert_array_equal(w2, [-1.0, 1.0])
    assert illuminates(w2, ep(1, {1}, 2)) and illuminates(w2, ep(-1, {2}, 2))


def test_pair_illuminator_rejects_non_complement():
    with pytest.raises(ValueError):
        pair_illuminator(ep(1, {1}, 3), ep(-1, {2}, 3))
    with pytest.raises(ValueError):
        pair_illuminator(ep(-1, {1}, 2), ep(1, {2}, 2))


# ---------------------------------------------------------------------------
# Symmetric chain decomposition
# ---------------------------------------------------------------------------


def test_scd_small_cases_exact():
    assert symmetric_chain_decomposition(1) == [[(0,), (1,)]]
    assert symmetric_chain_decomposition(2) == [[(0, 0), (1, 0), (1, 1)], [(0, 1)]]
    d3 = symmetric_chain_decomposition(3)
    assert len(d3) == 3
    assert sum(len(c) for c in d3) == 8


@pytest.mark.parametrize("d", range(1, 9))
def test_scd_properties(d):
    assert_symmetric_decomposition(symmetric_chain_decomposition(d), d)


def test_scd_rejects_nonpositive():
    with pytest.raises(ValueError):
        symmetric_chain_decomposition(0)


# ---------------------------------------------------------------------------
# Optimal illuminating sets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_optimal_set_size_and_coverage(n):
    dirs = optimal_illuminating_set(n)
    assert len(dirs) == comb(n, (n + 1) // 2)
    assert verify_illumination(dirs, n).covered


def test_optimal_set_small_values():
    assert [w.tolist() for w in optimal_illuminating_set(2)] == [[-1.0], [1.0]]
    assert [w.tolist() for w in optimal_illuminating_set(3)] == [
        [-2.0, -1.0],
        [1.0, 2.0],
        [1.0, -1.0],
    ]


def test_optimal_set_n5_uses_two_pair_directions():
    dirs = optimal_illuminating_set(5)
    assert len(dirs) == 10
    pair_like = [w for w in dirs if np.abs(w).max() == 1.0]
    chain_like = [w for w in dirs if np.abs(w).max() == 4.0]
    assert len(pair_like) == 2
    assert len(chain_like) == 8


@pytest.mark.parametrize("n", range(2, 7))
def test_optimal_set_is_pointwise_tight(n):
    dirs = optimal_illuminating_set(n)
    for skip in range(len(dirs)):
        reduced = [w for i, w in enumerate(dirs) if i != skip]
        assert not verify_illumination(reduced, n).covered


def test_verify_illumination_negative_cases():
    assert not verify_illumination([], 3).covered
    # no single direction can serve both (1, 0) and (-1, 0)
    rng = np.random.default_rng(10)
    for _ in range(50):
        w = rng.standard_normal(2)
        report = verify_illumination([w], 3)
        assert not report.covered
    report = verify_illumination([[-2.0, -1.0]], 3)
    missing = {(z.sign, z.support) for z in report.unilluminated}
    assert (1, frozenset({2})) in missing


def test_verify_illumination_rejects_bad_dimension():
    with pytest.raises(DimensionMismatchError):
        verify_illumination([[1.0, 2.0, 3.0]], 3)
    # ragged input: the dimension of each row is checked before stacking
    with pytest.raises(DimensionMismatchError):
        verify_illumination([[1.0, 2.0], [1.0, 2.0, 3.0]], 3)


@pytest.mark.parametrize(
    "n, directions, message",
    [
        (3, [[1.0, 2.0], [0.0, 0.0]], "nonzero"),
        (3, [[1.0, np.nan], [1.0, 2.0, 3.0]], "finite"),
        (3, [[1.0, 2.0, 3.0], [np.inf, 1.0]], "dimension"),
        (3, [[[1.0, 2.0]]], "one-dimensional"),
        (2, [1.0, -1.0], "one-dimensional"),
    ],
)
def test_verify_illumination_reports_the_first_bad_direction(n, directions, message):
    with pytest.raises(ValueError, match=message):
        verify_illumination(directions, n)


# ---------------------------------------------------------------------------
# Canonical classes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pattern_depends_only_on_class(n):
    d = n - 1
    for perm in permutations(range(d)):
        for negatives in range(d + 1):
            base = canonical_class_representative(perm, negatives)
            # second representative: same order and sign pattern, other values
            other = np.empty(d)
            for rank, coord in enumerate(perm):
                other[coord] = (rank + 1 - negatives) * 1.75 - 0.875
            assert pattern_by_predicate(base, n) == pattern_by_predicate(other, n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tied_directions_are_dominated_by_canonical_perturbations(n):
    d = n - 1
    rng = np.random.default_rng(70 + n)
    for _ in range(300):
        w = rng.choice([-1.0, -1.0, 0.0, 1.0, 2.0], size=d)
        if not np.any(w):
            continue
        gaps = np.diff(np.unique(np.append(w, 0.0)))
        eps = gaps.min() / 4.0
        w_pert = w + rng.uniform(0.0, eps, d)
        if not (np.all(w_pert != 0.0) and len(np.unique(w_pert)) == d):
            continue
        assert pattern_by_predicate(w, n) <= pattern_by_predicate(w_pert, n)


# ---------------------------------------------------------------------------
# Exact illumination number and certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_illumination_number_exact_matches_binomial(n):
    assert illumination_number_exact(n) == comb(n, (n + 1) // 2)


def brute_force_min_cover(universe, patterns):
    from itertools import combinations as combos

    for size in range(len(patterns) + 1):
        for chosen in combos(patterns, size):
            mask = 0
            for p in chosen:
                mask |= p
            if mask == universe:
                return size
    return None


def test_minimum_cover_search_on_synthetic_instances():
    from conelight.illumination import _minimum_cover

    # triangle instance: greedy disjoint bound stalls at 1, true minimum is 2,
    # so the branch-and-bound search itself is exercised
    assert _minimum_cover(0b111, [0b011, 0b110, 0b101], upper=3) == 2

    rng = np.random.default_rng(123)
    for _ in range(25):
        nelem = int(rng.integers(3, 9))
        universe = (1 << nelem) - 1
        patterns = [int(rng.integers(1, universe + 1)) for _ in range(int(rng.integers(3, 9)))]
        union = 0
        for p in patterns:
            union |= p
        for e in range(nelem):  # guarantee coverability
            if not (union >> e) & 1:
                patterns.append(1 << e)
        expected = brute_force_min_cover(universe, patterns)
        assert _minimum_cover(universe, patterns, upper=len(patterns)) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_class_patterns_have_n_minus_1_bits(n):
    # a class with k negative coordinates illuminates k positive and
    # n - 1 - k negative supports, so no pattern can contain another and a
    # minimum cover needs no dominance pruning
    from conelight.illumination import _all_class_patterns

    patterns = _all_class_patterns(n)
    assert patterns
    assert all(p.bit_count() == n - 1 for p in patterns)


def test_illumination_number_exact_rejects_out_of_range():
    with pytest.raises(ValueError):
        illumination_number_exact(1)
    with pytest.raises(ValueError):
        illumination_number_exact(7)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lower_bound_certificate_small(n):
    cert = lower_bound_certificate(n)
    assert cert.size == comb(n, (n + 1) // 2)
    assert cert.all_unshareable
    assert cert.classes_checked > 0


def test_lower_bound_certificate_n3_contents():
    cert = lower_bound_certificate(3)
    realized = sorted(tuple(p.realize()) for p in cert.points)
    assert realized == [(-1.0, -1.0), (0.0, 1.0), (1.0, 0.0)]


def test_certificate_pair_logic_spot():
    # the antichain pair (1,0), (0,1) shares no canonical class
    cert = lower_bound_certificate(3)
    idx = {(p.sign, p.support): i for i, p in enumerate(cert.points)}
    a = idx[(1, frozenset({1}))]
    b = idx[(1, frozenset({2}))]
    assert tuple(sorted((a, b))) not in cert.shareable_pairs


def test_certificate_reports_points_one_class_illuminates_together(monkeypatch):
    kernel = illumination._witnessed

    def share_first_two(block):
        masks = kernel(block).copy()
        masks[0] = [0b001, 0b010]  # one row witnessing {1} and {2}: +1_{1} and +1_{2}
        return masks

    monkeypatch.setattr(illumination, "_witnessed", share_first_two)
    cert = lower_bound_certificate(3)
    assert cert.shareable_pairs == ((0, 1),)
    assert not cert.all_unshareable


def test_certificate_serialization_shape():
    cert = lower_bound_certificate(4)
    doc = cert.to_dict()
    assert doc["size"] == 6
    assert len(doc["pairs"]) == 15
    assert all(p["unshareable"] for p in doc["pairs"])
