from itertools import combinations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conelight import illumination
from conelight.detector import chain_schedule, recordable_subsets
from conelight.geometry import (
    DimensionMismatchError,
    ExtremePoint,
    extreme_points,
    mask_members,
    subset_to_extreme_point,
)
from conelight.illumination import (
    MAX_CERTIFICATE_N,
    MAX_CHAIN_D,
    MAX_EXACT_N,
    MAX_ILLUMINATION_N,
    TooLargeError,
    illuminated_supports,
    illuminates,
    illuminates_numeric,
    illumination_number_exact,
    lower_bound_certificate,
    optimal_illuminating_set,
    symmetric_chain_masks,
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


def level_direction(chain, n):
    """The direction of dimension n - 1 that lights a strictly nested chain
    of proper subsets of {1, ..., n} (bitmasks, smallest first): index j
    sits at the level of the number of chain members holding it, and
    w_j = level_n - level_j, so (w, 0) sorts by decreasing level and its
    strict prefixes are the chain's members."""
    level = [0] * n
    for mask in chain:
        for j in mask_members(mask):
            level[j - 1] += 1
    return np.array([level[-1] - level[j] for j in range(n - 1)], dtype=float)


def decoded(chain, d):
    """A chain of bitmasks as 0/1 tuples, coordinate i - 1 for index i."""
    return [tuple((m >> i) & 1 for i in range(d)) for m in chain]


def reference_optimal_set(n):
    """The optimal set composed chain by chain: one level direction per
    symmetric chain of {1, ..., n}, its empty and full sets removed."""
    full = (1 << n) - 1
    return [level_direction([m for m in c if 0 < m < full], n) for c in symmetric_chain_masks(n)]


def brute_force_width(masks):
    """Oracle: the size of the largest pairwise non-nested subfamily."""
    for size in range(len(masks), 0, -1):
        for family in combinations(masks, size):
            if all(a & b not in (a, b) for a, b in combinations(family, 2)):
                return size
    return 0


def cover_directions(chains, n):
    """One level direction of dimension n - 1 per chain."""
    return [level_direction(chain, n) for chain in chains]


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

    def drop_last_point(block):
        # every copy of mask 2^n - 2, the point -1_{1}: the last entry the
        # coverage check reads; a second direction may light any other mask
        masks = kernel(block).copy()
        masks[masks == (2 << block.shape[1]) - 2] = 0
        return masks

    monkeypatch.setattr(illumination, "_witnessed", drop_last_point)
    for build in (optimal_illuminating_set, illumination_number_exact):
        with pytest.raises(RuntimeError):
            build(6)


def test_builders_raise_when_a_point_is_lit_twice(monkeypatch):
    # the check demands each point exactly once, not at least once: nothing
    # is dropped here, the first direction's points are lit a second time
    kernel = illumination._witnessed

    def repeat_first_direction(block):
        masks = kernel(block)
        return np.vstack([masks, masks[:1]])

    monkeypatch.setattr(illumination, "_witnessed", repeat_first_direction)
    for build in (optimal_illuminating_set, illumination_number_exact):
        with pytest.raises(RuntimeError, match="exactly once"):
            build(6)


def test_size_limits_raise_too_large_before_building():
    assert (MAX_ILLUMINATION_N, MAX_CHAIN_D, MAX_CERTIFICATE_N, MAX_EXACT_N) == (20, 20, 9, 12)
    assert issubclass(TooLargeError, ValueError)
    with pytest.raises(TooLargeError):
        optimal_illuminating_set(MAX_ILLUMINATION_N + 1)
    with pytest.raises(TooLargeError):
        verify_illumination([], MAX_ILLUMINATION_N + 1)
    with pytest.raises(TooLargeError):
        symmetric_chain_masks(MAX_CHAIN_D + 1)
    with pytest.raises(TooLargeError):
        lower_bound_certificate(MAX_CERTIFICATE_N + 1)
    with pytest.raises(TooLargeError):
        illumination_number_exact(MAX_EXACT_N + 1)
    # the scheduled sampler builds the same chains, over n indices
    with pytest.raises(TooLargeError):
        chain_schedule(MAX_CHAIN_D + 1, 1.1)


def test_illuminated_supports_are_nested_chains():
    rng = np.random.default_rng(8)
    for _ in range(200):
        w = rng.standard_normal(6)
        plus, minus = illuminated_supports(w)
        for fam in (plus, minus):
            for small, big in zip(fam, fam[1:]):
                assert small < big


# ---------------------------------------------------------------------------
# The chain illuminator
# ---------------------------------------------------------------------------


def chain_points(chain, n):
    """The extreme points of a chain of proper subsets of {1, ..., n}, as
    (sign, support) pairs."""
    return {
        (z.sign, z.support) for z in (subset_to_extreme_point(mask_members(m), n) for m in chain)
    }


def test_chain_illuminator_examples():
    # the library's chain illuminator is `_chain_directions` of the chain depths
    chains = [[0b001, 0b011], [0b100], [0b101]]
    got = illumination._chain_directions(illumination.chain_depths(chains, 3))
    np.testing.assert_array_equal(got, [[-2.0, -1.0], [1.0, 1.0], [0.0, 1.0]])
    assert illuminates(got[0], ep(1, {1}, 2)) and illuminates(got[0], ep(1, {1, 2}, 2))
    assert illuminates(got[1], ep(-1, {1, 2}, 2))
    # a zero coordinate ties index 1 with index n: the prefix {1, 3} is -1_{2}
    assert illuminates(got[2], ep(-1, {2}, 2))
    for chain, w in zip(chains, got):
        np.testing.assert_array_equal(w, level_direction(chain, 3))
        assert pattern_by_predicate(w, 3) == chain_points(chain, 3)
    # singleton full-support chain: strictly negative equal values
    top = illumination._chain_directions(illumination.chain_depths([[0b01111]], 5))[0]
    np.testing.assert_array_equal(top, [-1.0, -1.0, -1.0, -1.0])
    assert pattern_by_predicate(top, 5) == {(1, frozenset({1, 2, 3, 4}))}


def test_chain_illuminator_illuminates_random_chains():
    # checked against the scalar closed form: the direction lights its
    # chain's extreme points and no other
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        perm = rng.permutation(n)
        cuts = sorted(set(rng.integers(1, n, size=rng.integers(1, n)).tolist()))
        chain = [sum(1 << int(i) for i in perm[:c]) for c in cuts]
        w = illumination._chain_directions(illumination.chain_depths([chain], n))[0]
        assert pattern_by_predicate(w, n) == chain_points(chain, n)


nested_chains = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.permutations(range(n)),
        st.sets(st.integers(1, n - 1), min_size=1),
    )
)


@settings(max_examples=150, deadline=None)
@given(nested_chains)
def test_chain_direction_witnesses_exactly_its_chain(case):
    n, order, cuts = case
    chain = [sum(1 << i for i in order[:c]) for c in sorted(cuts)]
    w = illumination._chain_directions(illumination.chain_depths([chain], n))
    assert [m for m in illumination._witnessed(w)[0].tolist() if m] == chain


# ---------------------------------------------------------------------------
# Symmetric chain decomposition
# ---------------------------------------------------------------------------


def test_scd_small_cases_exact():
    assert [decoded(c, 1) for c in symmetric_chain_masks(1)] == [[(0,), (1,)]]
    assert [decoded(c, 2) for c in symmetric_chain_masks(2)] == [
        [(0, 0), (1, 0), (1, 1)],
        [(0, 1)],
    ]
    d3 = symmetric_chain_masks(3)
    assert len(d3) == 3
    assert sum(len(c) for c in d3) == 8


@pytest.mark.parametrize("d", range(1, 9))
def test_scd_properties(d):
    assert_symmetric_decomposition([decoded(c, d) for c in symmetric_chain_masks(d)], d)


def test_scd_rejects_nonpositive():
    with pytest.raises(ValueError):
        symmetric_chain_masks(0)


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
        [1.0, -1.0],
        [1.0, 2.0],
    ]


@pytest.mark.parametrize("n", range(2, 17))
def test_optimal_set_lights_every_extreme_point_exactly_once(n):
    masks = illumination._witnessed(np.array(optimal_illuminating_set(n)))
    lit = np.bincount(masks.ravel(), minlength=1 << n)
    assert (lit[1:-1] == 1).all()


@pytest.mark.parametrize("n", range(2, 15))
def test_chain_schedule_is_beta_to_the_minus_optimal_directions(n):
    # the k-th scheduled test point is beta**-(w_k, 0), rescaled so x_1 = 1
    beta = 1.5
    w = np.array(optimal_illuminating_set(n))
    wz = np.hstack([w, np.zeros((len(w), 1))])
    levels = np.round(np.log(chain_schedule(n, beta)) / np.log(beta))
    np.testing.assert_array_equal(levels, wz[:, :1] - wz)


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
    block = illumination._class_block(d)
    # one row per class: each (coordinate order, negative count) exactly once
    classes = {(tuple(np.argsort(w)), int((w < 0).sum())) for w in block}
    assert len(classes) == len(block) == factorial(d) * n
    for base in block:
        negatives = int((base < 0).sum())
        ranks = np.argsort(np.argsort(base))
        # second representative: same order and sign pattern, other values
        other = (ranks + 1 - negatives) * 1.75 - 0.875
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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 63), unique=True, max_size=10))
@example([])
@example([0])
@example([0b11, 0, 0b01, 0b10])
def test_chain_cover_is_minimum_and_certified_by_an_antichain(masks):
    chains, antichain = illumination._chain_cover(masks)
    assert sorted(m for chain in chains for m in chain) == sorted(masks)
    for chain in chains:
        for small, big in zip(chain, chain[1:]):
            assert small != big and small & big == small
    assert set(antichain) <= set(masks)
    assert all(a & b not in (a, b) for a, b in combinations(antichain, 2))
    assert len(antichain) == len(chains) == brute_force_width(masks)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_chain_cover_witnesses_agree_with_the_closed_form(n):
    # checked independently of the library's kernel: no canonical class
    # lights two antichain members under the scalar closed form, and the
    # per-threshold reference loop accepts the cover's directions
    chains, antichain = illumination._chain_cover(range(1, (1 << n) - 1))
    points = {subset_to_extreme_point(mask_members(m), n) for m in antichain}
    lit_together = max(
        len({(z.sign, z.support) for z in points} & pattern_by_predicate(w, n))
        for w in illumination._class_block(n - 1)
    )
    assert lit_together == 1
    count, covered, missing = reference_verify(cover_directions(chains, n), n)
    assert covered and not missing
    assert count == len(points) == comb(n, (n + 1) // 2)


def test_illumination_number_exact_raises_when_the_antichain_fails(monkeypatch):
    engine = illumination._chain_cover
    spoilers = [
        lambda a: a[:-1],  # smaller than the cover
        lambda a: a[:-1] + [a[0] & (a[0] - 1)],  # a strict subset of a member
    ]
    for spoil in spoilers:

        def spoiled(masks, spoil=spoil):
            chains, antichain = engine(masks)
            return chains, spoil(antichain)

        monkeypatch.setattr(illumination, "_chain_cover", spoiled)
        with pytest.raises(RuntimeError):
            illumination_number_exact(6)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_class_patterns_have_n_minus_1_bits(n):
    # a class with k negative coordinates illuminates k positive and
    # n - 1 - k negative supports: a maximal chain of n - 1 subsets
    masks = illumination._witnessed(illumination._class_block(n - 1))
    assert len(masks)
    assert ((masks != 0).sum(axis=1) == n - 1).all()


def test_illumination_number_exact_rejects_out_of_range():
    with pytest.raises(ValueError):
        illumination_number_exact(1)
    with pytest.raises(ValueError):
        illumination_number_exact(MAX_EXACT_N + 1)


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
