import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelight.geometry import DimensionMismatchError, hilbert_distance, hilbert_norm
from conelight.maps import (
    FunctionMap,
    InvalidMapError,
    MatrixMap,
    MaxPlusMap,
    MonomialMap,
    conjugate_log_map,
    evaluate,
    evaluate_batch,
    load_map,
    map_from_spec,
    normalize,
    ratio_vector,
    shear2_map,
    verify_cone_map,
)


def builtin_examples():
    return [
        shear2_map(),
        MatrixMap([[2, 1], [1, 2]]),
        MatrixMap([[1, 2, 0.5], [0.1, 1, 1], [3, 0, 2]]),
        MaxPlusMap([[1, 2], [3, 1]]),
        MaxPlusMap([[0, 1, 2], [1, 0, 0.5], [2, 1, 0]]),
        MonomialMap([[0.5, 0.5], [0.25, 0.75]]),
        MonomialMap([[1, 0, 0], [0.2, 0.3, 0.5], [0, 0.5, 0.5]]),
    ]


# ---------------------------------------------------------------------------
# Evaluation examples
# ---------------------------------------------------------------------------


def test_evaluate_examples():
    np.testing.assert_allclose(evaluate(shear2_map(), [1, 1]), [2.0, 1.0])
    np.testing.assert_allclose(evaluate(MatrixMap([[2, 1], [1, 2]]), [1, 0.5]), [2.5, 2.0])


def test_evaluate_homogeneity_spot():
    rng = np.random.default_rng(0)
    for f in builtin_examples():
        x = np.exp(rng.uniform(-2, 2, f.dim))
        np.testing.assert_allclose(evaluate(f, 2 * x), 2 * evaluate(f, x), rtol=1e-12)


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        evaluate(shear2_map(), [1, 2, 3])


def test_ratio_vector_examples():
    ident = MatrixMap([[1, 0], [0, 1]])
    np.testing.assert_allclose(ratio_vector(ident, [0.4, 17.0]), [1.0, 1.0])
    np.testing.assert_allclose(ratio_vector(shear2_map(), [1, 0.5]), [1.5, 1.0])
    np.testing.assert_allclose(ratio_vector(MatrixMap([[2, 1], [1, 2]]), [1, 0.5]), [2.5, 4.0])


def test_normalize_examples():
    m = MatrixMap([[2, 1], [1, 2]])
    np.testing.assert_allclose(normalize(m, [1, 1]), [1.0, 1.0])  # fixed point
    np.testing.assert_allclose(normalize(shear2_map(), [1, 1]), [2.0, 1.0])
    x = np.array([0.3, 0.9])
    np.testing.assert_allclose(normalize(m, x), normalize(m, 5 * x), rtol=1e-12)


def test_conjugate_log_map_identity_and_fixed_point():
    ident = MatrixMap(np.eye(3))
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.uniform(-3, 3, 2)
        np.testing.assert_allclose(conjugate_log_map(ident, v), v, atol=1e-12)
    # eigenvector (1, 1) of the symmetric matrix corresponds to the origin
    np.testing.assert_allclose(
        conjugate_log_map(MatrixMap([[2, 1], [1, 2]]), [0.0]), [0.0], atol=1e-15
    )


def test_conjugate_log_map_nonexpansive_spot():
    f = shear2_map()
    rng = np.random.default_rng(2)
    for _ in range(300):
        v, w = rng.uniform(-4, 4, 1), rng.uniform(-4, 4, 1)
        lhs = hilbert_norm(conjugate_log_map(f, v) - conjugate_log_map(f, w))
        assert lhs <= hilbert_norm(v - w) + 1e-9


# ---------------------------------------------------------------------------
# Statistical map properties
# ---------------------------------------------------------------------------


@given(st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_homogeneity_property(lam, seed):
    rng = np.random.default_rng(seed)
    for f in builtin_examples():
        x = np.exp(rng.uniform(-3, 3, f.dim))
        left = evaluate(f, lam * x)
        right = lam * evaluate(f, x)
        assert np.all(np.abs(left - right) <= 1e-9 * np.abs(right))


def test_homogeneity_bulk():
    rng = np.random.default_rng(3)
    for f in builtin_examples():
        for _ in range(1000 // len(builtin_examples()) + 1):
            lam = float(np.exp(rng.uniform(-3, 3)))
            x = np.exp(rng.uniform(-3, 3, f.dim))
            left = evaluate(f, lam * x)
            right = lam * evaluate(f, x)
            assert np.all(np.abs(left - right) <= 1e-9 * np.abs(right))


def test_order_preservation_bulk():
    rng = np.random.default_rng(4)
    for f in builtin_examples():
        for _ in range(200):
            x = np.exp(rng.uniform(-2, 2, f.dim))
            y = x + rng.uniform(0, 1, f.dim)
            assert np.all(evaluate(f, x) <= evaluate(f, y) + 1e-12)


def test_nonexpansiveness_spot():
    rng = np.random.default_rng(5)
    for f in builtin_examples():
        for _ in range(500):
            x = np.exp(rng.uniform(-3, 3, f.dim))
            y = np.exp(rng.uniform(-3, 3, f.dim))
            assert hilbert_distance(evaluate(f, x), evaluate(f, y)) <= (
                hilbert_distance(x, y) + 1e-9
            )


def test_eigenvalue_uniqueness_smoke():
    # maps with several known interior eigenvectors must report one ratio
    ident = MatrixMap(np.eye(2))
    doubler = MatrixMap(2 * np.eye(3))
    for f, vecs in [
        (ident, [[1, 2], [3, 1]]),
        (doubler, [[1, 2, 3], [2, 2, 1]]),
    ]:
        values = []
        for v in vecs:
            r = ratio_vector(f, v)
            assert np.ptp(r) <= 1e-12
            values.append(r[0])
        assert abs(values[0] - values[1]) <= 1e-9


# ---------------------------------------------------------------------------
# Specifications
# ---------------------------------------------------------------------------


def test_map_from_spec_round_trip():
    spec = {"type": "matrix", "data": [[2, 1], [1, 2]]}
    f = map_from_spec(spec)
    np.testing.assert_allclose(evaluate(f, [1, 0.5]), [2.5, 2.0])
    g = map_from_spec({"type": "shear2"})
    assert g.name == "shear2"
    h = map_from_spec({"type": "maxplus", "data": [[1, 2], [3, 1]]})
    np.testing.assert_allclose(evaluate(h, [1, 1]), [2.0, 3.0])
    k = map_from_spec({"type": "monomial", "exponents": [[0.5, 0.5], [0, 1]]})
    np.testing.assert_allclose(evaluate(k, [4, 1]), [2.0, 1.0])


@pytest.mark.parametrize(
    "spec, violation",
    [
        ({"type": "matrix", "data": [[1, 0], [0, 0]]}, "zero_row"),
        ({"type": "matrix", "data": [[1, -1], [0, 1]]}, "negative_entry"),
        ({"type": "matrix", "data": [[1, 2, 3], [4, 5, 6]]}, "not_square"),
        ({"type": "maxplus", "data": [[0, 0], [1, 1]]}, "zero_row"),
        ({"type": "monomial", "exponents": [[0.5, 0.6], [0.5, 0.5]]}, "row_sum_not_one"),
        ({"type": "monomial", "exponents": [[1.5, -0.5], [0.5, 0.5]]}, "negative_exponent"),
        ({"type": "warp"}, "unknown_type"),
        ({"type": "matrix"}, "missing_field"),
        ([1, 2], "bad_spec"),
        ({"type": "matrix", "data": {"x": 1}}, "not_numeric"),
        ({"type": "maxplus", "data": [[1, "a"], [1, 1]]}, "not_numeric"),
        ({"type": "monomial", "exponents": [[1, 0], [0]]}, "not_numeric"),
    ],
)
def test_invalid_specs_name_their_violation(spec, violation):
    with pytest.raises(InvalidMapError) as err:
        map_from_spec(spec)
    assert err.value.violation == violation


def test_monomial_row_sum_tolerance_boundary():
    # within 1e-12 is accepted
    MonomialMap([[0.5 + 5e-13, 0.5], [0.5, 0.5]])
    with pytest.raises(InvalidMapError):
        MonomialMap([[0.5 + 5e-12, 0.5], [0.5, 0.5]])


def test_load_map(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"type": "shear2"}))
    f = load_map(path)
    assert f.dim == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidMapError) as err:
        load_map(bad)
    assert err.value.violation == "invalid_json"
    with pytest.raises(InvalidMapError) as err:
        load_map(tmp_path / "missing.json")
    assert err.value.violation == "unreadable_file"


# ---------------------------------------------------------------------------
# Batched evaluation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10, 12])
def test_apply_batch_is_apply_row_by_row_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a = rng.uniform(0.0, 2.0, (n, n))
    p = rng.uniform(0.5, 1.0, (n, n))
    p /= p.sum(axis=1, keepdims=True)
    maps = [
        MatrixMap(a),
        MaxPlusMap(a),
        MonomialMap(p),
        FunctionMap(lambda x: np.sqrt(x * x.mean()), dim=n),
    ]
    if n == 2:
        maps.append(shear2_map())
    for f in maps:
        for rows in (1, 5, 512):
            x = np.exp(rng.uniform(-3.0, 3.0, (rows, n)))
            expected = np.stack([f.apply(row) for row in x])
            assert np.array_equal(f.apply_batch(x), expected), (f, rows)
            assert np.array_equal(evaluate_batch(f, x), expected)


def test_evaluate_batch_enforces_contracts():
    with pytest.raises(DimensionMismatchError):
        evaluate_batch(shear2_map(), np.ones((4, 3)))
    with pytest.raises(ValueError):
        evaluate_batch(shear2_map(), [[1.0, 0.0]])
    with pytest.raises(ValueError):
        evaluate_batch(shear2_map(), [1.0, 2.0])
    collapse = FunctionMap(lambda x: x - x, dim=2, name="collapse")
    with pytest.raises(InvalidMapError) as err:
        evaluate_batch(collapse, np.ones((3, 2)))
    assert err.value.violation == "non_positive_output"
    scalar = FunctionMap(lambda x: x.sum(), dim=2, name="scalar")
    with pytest.raises(InvalidMapError) as err:
        evaluate_batch(scalar, np.ones((3, 2)))
    assert err.value.violation == "output_dimension"


def test_non_positive_output_rejected():
    f = FunctionMap(lambda x: x - x, dim=2, name="collapse")
    with pytest.raises(InvalidMapError) as err:
        evaluate(f, [1, 1])
    assert err.value.violation == "non_positive_output"


def test_verify_cone_map_accepts_builtins_and_sane_custom():
    for f in builtin_examples():
        verify_cone_map(f, seed=6)
    ok = FunctionMap(lambda x: np.array([x[0] + x[1], max(x[0], 2 * x[1])]), dim=2)
    verify_cone_map(ok, seed=6)


def test_verify_cone_map_flags_violations():
    not_homogeneous = FunctionMap(lambda x: x + 1.0, dim=2, name="affine")
    with pytest.raises(InvalidMapError) as err:
        verify_cone_map(not_homogeneous, seed=7)
    assert err.value.violation == "not_homogeneous"

    not_order = FunctionMap(
        lambda x: np.array([x[1] ** 2 / x[0], x[0]]), dim=2, name="twist"
    )
    with pytest.raises(InvalidMapError) as err:
        verify_cone_map(not_order, seed=7)
    assert err.value.violation == "not_order_preserving"
