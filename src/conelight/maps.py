"""Order-preserving homogeneous self-maps of the open positive cone.

Built-in families:

  matrix    f(x) = A x for a nonnegative square A whose every row has a
            positive entry (a zero row would push the interior onto the
            boundary).
  maxplus   f_i(x) = max_j a_ij * x_j, same nonnegativity and row condition.
  monomial  f_i(x) = prod_j x_j ** P_ij for a nonnegative row-stochastic
            exponent matrix; row sums must equal 1 to within 1e-12, since
            any other degree of homogeneity breaks the whole theory.
  shear2    the 2x2 upper triangular matrix [[1, 1], [0, 1]], the canonical
            map with no positive eigenvector.

Every such map is homogeneous of degree 1 and order-preserving, hence
nonexpansive for the Hilbert metric.  User maps are plugged in through
`FunctionMap` and are only checkable statistically; `verify_cone_map` does
that and the detector refuses to run on a map that fails it.
"""

from __future__ import annotations

import json
from typing import Callable

import numpy as np

from .geometry import (
    DimensionMismatchError,
    as_positive_rows,
    as_positive_vector,
    exp_map,
    log_map,
)

# Coordinate ratios beyond this make double arithmetic untrustworthy; the
# scheduled test points in the detector are capped against it.
DYNAMIC_RANGE_CAP = 1e12


class InvalidMapError(ValueError):
    """A map specification or evaluation violated a cone-map invariant.

    `violation` is a stable machine-readable identifier for the failed
    invariant (for example "zero_row" or "row_sum_not_one").
    """

    def __init__(self, violation: str, message: str):
        super().__init__(f"{violation}: {message}")
        self.violation = violation
        self.message = message


class ConeMap:
    """A self-map of the open positive cone in dimension `dim`.

    Subclasses implement `apply`, and may override `apply_batch` with a
    vectorized form; evaluation through `evaluate` / `evaluate_batch` (or
    by calling the map) validates dimensions and strict positivity of the
    output.  `statically_validated` marks built-ins whose defining data
    already guarantees the cone-map axioms, so the detector can skip the
    statistical checks.
    """

    statically_validated = False

    def __init__(self, dim: int, name: str):
        if dim < 1:
            raise InvalidMapError("bad_dimension", "map dimension must be at least 1")
        self.dim = int(dim)
        self.name = str(name)

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_batch(self, x: np.ndarray) -> np.ndarray:
        """`apply` on every row of the (B, dim) array `x`.

        An override must equal `apply` row by row, bit for bit: seeded
        detector runs evaluate their test points in blocks, and any
        difference in the last bit can change what a sample records.
        """
        return np.stack([self.apply(row) for row in x])

    def __call__(self, x) -> np.ndarray:
        return evaluate(self, x)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} dim={self.dim}>"


def _checked_input(f: ConeMap, xv: np.ndarray) -> np.ndarray:
    if xv.shape[-1] != f.dim:
        raise DimensionMismatchError(
            f"map {f.name!r} has dimension {f.dim}, input has {xv.shape[-1]}"
        )
    return xv


def _checked_output(f: ConeMap, xv: np.ndarray, y) -> np.ndarray:
    """Enforce the output contract on `y`, the image of the input `xv`."""
    y = np.asarray(y, dtype=float)
    if y.shape != xv.shape:
        raise InvalidMapError(
            "output_dimension",
            f"map {f.name!r} returned shape {y.shape} for input of shape {xv.shape}",
        )
    if not np.all(np.isfinite(y)) or np.any(y <= 0.0):
        raise InvalidMapError(
            "non_positive_output",
            f"map {f.name!r} left the open cone; its specification is invalid",
        )
    return y


def evaluate(f: ConeMap, x) -> np.ndarray:
    """Apply `f` to a positive vector, enforcing the output contract."""
    xv = _checked_input(f, as_positive_vector(x))
    return _checked_output(f, xv, f.apply(xv))


def evaluate_batch(f: ConeMap, x) -> np.ndarray:
    """Apply `f` to every row of a (B, dim) array of positive vectors,
    checking the input and the output contract once for the block."""
    xv = _checked_input(f, as_positive_rows(x))
    return _checked_output(f, xv, f.apply_batch(xv))


def normalize(f: ConeMap, x) -> np.ndarray:
    """Evaluate and rescale so the last coordinate is 1.

    Fixed points of this normalized map on the slice {x_n = 1} are exactly
    the eigenvectors of `f` in the open cone.
    """
    y = evaluate(f, x)
    return y / y[-1]


def conjugate_log_map(f: ConeMap, v) -> np.ndarray:
    """The log-coordinate conjugate of the normalized map.

    Takes an (n-1)-vector through exp_map, applies the normalized map, and
    charts back with log_map.  Nonexpansive under the Hilbert norm.
    """
    return log_map(normalize(f, exp_map(v)))


def _as_matrix(data, kind: str) -> np.ndarray:
    try:
        return np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidMapError(
            "not_numeric", f"{kind} data must be a rectangular array of numbers"
        ) from exc


def _validate_coefficients(a: np.ndarray, kind: str) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMapError("not_square", f"{kind} data must be a square matrix")
    if a.shape[0] < 1:
        raise InvalidMapError("bad_dimension", f"{kind} data must be at least 1x1")
    if not np.all(np.isfinite(a)):
        raise InvalidMapError("nonfinite_entry", f"{kind} entries must be finite")
    if np.any(a < 0.0):
        raise InvalidMapError("negative_entry", f"{kind} entries must be nonnegative")
    if np.any(a.max(axis=1) <= 0.0):
        raise InvalidMapError(
            "zero_row", f"every {kind} row needs a positive entry to preserve the interior"
        )
    return a


class MatrixMap(ConeMap):
    """Linear map x -> A x for a nonnegative matrix with no zero row."""

    statically_validated = True

    def __init__(self, data, name: str | None = None):
        a = _validate_coefficients(_as_matrix(data, "matrix"), "matrix")
        super().__init__(a.shape[0], name or f"matrix-{a.shape[0]}d")
        self.matrix = a

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def apply_batch(self, x: np.ndarray) -> np.ndarray:
        # A stacked matrix-vector product; `x @ A.T` is one matrix product
        # whose rows differ from `A @ row` in the last bit.
        return np.matmul(self.matrix, x[:, :, np.newaxis])[:, :, 0]


class MaxPlusMap(ConeMap):
    """Tropical map f_i(x) = max_j a_ij * x_j (multiplicative form)."""

    statically_validated = True

    def __init__(self, data, name: str | None = None):
        a = _validate_coefficients(_as_matrix(data, "maxplus"), "maxplus")
        super().__init__(a.shape[0], name or f"maxplus-{a.shape[0]}d")
        self.matrix = a

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (self.matrix * x[np.newaxis, :]).max(axis=1)

    def apply_batch(self, x: np.ndarray) -> np.ndarray:
        return (self.matrix[np.newaxis] * x[:, np.newaxis, :]).max(axis=2)


class MonomialMap(ConeMap):
    """Geometric-mean style map f_i(x) = prod_j x_j ** P_ij.

    Requires the exponent rows to sum to 1 within 1e-12 so the map is
    homogeneous of degree exactly 1.
    """

    statically_validated = True
    ROW_SUM_TOLERANCE = 1e-12

    def __init__(self, exponents, name: str | None = None):
        p = _as_matrix(exponents, "monomial")
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise InvalidMapError("not_square", "monomial exponents must be a square matrix")
        if not np.all(np.isfinite(p)):
            raise InvalidMapError("nonfinite_entry", "monomial exponents must be finite")
        if np.any(p < 0.0):
            raise InvalidMapError("negative_exponent", "monomial exponents must be nonnegative")
        if np.any(np.abs(p.sum(axis=1) - 1.0) > self.ROW_SUM_TOLERANCE):
            raise InvalidMapError(
                "row_sum_not_one",
                "monomial exponent rows must sum to 1 within 1e-12 for degree-1 homogeneity",
            )
        super().__init__(p.shape[0], name or f"monomial-{p.shape[0]}d")
        self.exponents = p

    def apply(self, x: np.ndarray) -> np.ndarray:
        # Work in logs: exact homogeneity and no spurious overflow.
        return np.exp(self.exponents @ np.log(x))

    def apply_batch(self, x: np.ndarray) -> np.ndarray:
        return np.exp(np.matmul(self.exponents, np.log(x)[:, :, np.newaxis])[:, :, 0])


class FunctionMap(ConeMap):
    """Wrap a user-supplied callable as a cone map.

    The callable must be a pure, reentrant function of its input.  Its
    cone-map properties cannot be checked statically; run `verify_cone_map`
    or let the detector do so before trusting results.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], dim: int, name: str = "custom"):
        super().__init__(dim, name)
        self._fn = fn

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(x), dtype=float)


def shear2_map() -> MatrixMap:
    """The 2x2 shear [[1, 1], [0, 1]]: linear, order-preserving, homogeneous,
    yet with no eigenvector in the open quadrant."""
    return MatrixMap([[1.0, 1.0], [0.0, 1.0]], name="shear2")


def map_from_spec(spec: dict) -> ConeMap:
    """Build a map from its JSON-style specification.

    Formats: {"type": "matrix", "data": [[...]]},
             {"type": "maxplus", "data": [[...]]},
             {"type": "monomial", "exponents": [[...]]},
             {"type": "shear2"}.
    """
    if not isinstance(spec, dict):
        raise InvalidMapError("bad_spec", "map specification must be a JSON object")
    kind = spec.get("type")
    if kind == "shear2":
        return shear2_map()
    if kind == "matrix":
        if "data" not in spec:
            raise InvalidMapError("missing_field", "matrix specification needs a 'data' field")
        return MatrixMap(spec["data"])
    if kind == "maxplus":
        if "data" not in spec:
            raise InvalidMapError("missing_field", "maxplus specification needs a 'data' field")
        return MaxPlusMap(spec["data"])
    if kind == "monomial":
        if "exponents" not in spec:
            raise InvalidMapError(
                "missing_field", "monomial specification needs an 'exponents' field"
            )
        return MonomialMap(spec["exponents"])
    raise InvalidMapError("unknown_type", f"unknown map type {kind!r}")


def load_map(path) -> ConeMap:
    """Read a map specification from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise InvalidMapError("unreadable_file", f"cannot read map file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidMapError("invalid_json", f"map file is not valid JSON: {exc}") from exc
    return map_from_spec(spec)


def verify_cone_map(
    f: ConeMap,
    seed: int = 0,
    samples: int = 200,
    homogeneity_rtol: float = 1e-9,
    order_slack: float = 1e-12,
) -> None:
    """Statistically check homogeneity and order preservation.

    Draws seeded random points and scalings; raises InvalidMapError naming
    the violated property on the first failure.  Passing is evidence, not
    proof; the checks are the best available for black-box maps.
    """
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        x = np.exp(rng.uniform(-2.0, 2.0, f.dim))
        lam = float(np.exp(rng.uniform(-2.0, 2.0)))
        scaled = evaluate(f, lam * x)
        direct = lam * evaluate(f, x)
        if np.any(np.abs(scaled - direct) > homogeneity_rtol * np.maximum(np.abs(direct), 1e-300)):
            raise InvalidMapError(
                "not_homogeneous",
                f"map {f.name!r} failed f(lam*x) = lam*f(x) at lam={lam!r}, x={x.tolist()!r}",
            )
        y = x + rng.uniform(0.0, 1.0, f.dim)
        fx, fy = evaluate(f, x), evaluate(f, y)
        if np.any(fx > fy + order_slack * (1.0 + np.abs(fy))):
            raise InvalidMapError(
                "not_order_preserving",
                f"map {f.name!r} failed f(x) <= f(y) for x <= y at x={x.tolist()!r}",
            )
