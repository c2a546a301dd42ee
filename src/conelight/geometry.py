"""Hilbert-metric geometry of the open positive cone and its unit ball.

The open cone of strictly positive vectors carries Hilbert's projective
metric

    d_H(x, y) = log(max_i x_i / y_i) - log(min_i x_i / y_i),

which vanishes exactly on rays: d_H(x, y) = 0 iff x = c * y for some c > 0.
Normalizing the last coordinate to 1 and taking coordinatewise logs of the
first n - 1 coordinates is an isometry onto R^(n-1) equipped with

    ||v||_H = max(max_i v_i, 0) - min(min_i v_i, 0),

the coordinate-dropped image of the variation norm max_i v_i - min_i v_i on
the hyperplane {v_n = 0}.  The unit ball of ||.||_H has exactly 2^n - 2
extreme points, the signed indicator vectors sign * 1_I over nonempty
subsets I of {1, ..., n-1}; their subset combinatorics drive both the
illumination constructions and the eigenvector detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np


class DimensionMismatchError(ValueError):
    """Two vectors, or a map and a vector, disagree in dimension."""


def _check_positive(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    if np.any(arr <= 0.0):
        raise ValueError("coordinates must be strictly positive")
    return arr


def as_positive_vector(x) -> np.ndarray:
    """Validate and return `x` as a 1-D float array with all coordinates
    finite and strictly positive."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a one-dimensional vector with at least one coordinate")
    return _check_positive(arr)


def as_positive_rows(x) -> np.ndarray:
    """Validate and return `x` as a 2-D float array whose rows are vectors
    with all coordinates finite and strictly positive; one check covers
    the whole block."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError("expected a two-dimensional array of rows with at least one coordinate")
    return _check_positive(arr)


def as_finite_vector(v) -> np.ndarray:
    """Validate and return `v` as a 1-D float array of finite coordinates."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a one-dimensional vector with at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    return arr


def hilbert_distance(x, y) -> float:
    """Hilbert's projective distance between two positive vectors.

    Computed from the coordinate ratios r_i = x_i / y_i as
    log(max_i r_i) - log(min_i r_i).  Symmetric, scale invariant in both
    arguments, and zero exactly when x and y span the same ray.
    """
    xv = as_positive_vector(x)
    yv = as_positive_vector(y)
    if xv.shape != yv.shape:
        raise DimensionMismatchError(
            f"vectors have dimensions {xv.size} and {yv.size}"
        )
    ratios = xv / yv
    return float(np.log(ratios.max()) - np.log(ratios.min()))


def variation_norm(v) -> float:
    """max_i v_i - min_i v_i of the coordinates as given.

    A genuine norm on the hyperplane {v_n = 0}; callers holding a
    coordinate-dropped (n-1)-vector should append 0 first (or use
    `hilbert_norm`, which does exactly that).
    """
    arr = as_finite_vector(v)
    return float(arr.max() - arr.min())


def hilbert_norm(v) -> float:
    """max(max_i v_i, 0) - min(min_i v_i, 0) on (n-1)-space.

    Equals the variation norm of `v` with a zero coordinate appended.
    """
    arr = as_finite_vector(v)
    return float(max(arr.max(), 0.0) - min(arr.min(), 0.0))


def log_map(x) -> np.ndarray:
    """Chart a positive vector into (n-1)-space: (log(x_i / x_n))_{i<n}.

    Normalizing by the last coordinate fixes the representative of the ray,
    so hilbert_distance(x, y) == hilbert_norm(log_map(x) - log_map(y)).
    """
    xv = as_positive_vector(x)
    if xv.size < 2:
        raise ValueError("log_map needs at least two coordinates")
    return np.log(xv[:-1]) - np.log(xv[-1])


def exp_map(v) -> np.ndarray:
    """Inverse chart: exponentiate and append a final coordinate 1.

    exp_map(log_map(x)) equals x up to positive scaling.
    """
    arr = as_finite_vector(v)
    with np.errstate(over="ignore"):
        out = np.exp(np.concatenate([arr, [0.0]]))
    if not np.all(np.isfinite(out)) or np.any(out <= 0.0):
        raise ValueError("exp_map overflow or underflow; coordinates too large in magnitude")
    return out


@dataclass(frozen=True)
class ExtremePoint:
    """Extreme point sign * 1_I of the ||.||_H unit ball.

    `support` holds 1-based coordinate indices drawn from {1, ..., dim},
    where dim = n - 1 is the ambient dimension of the ball.  The dense
    vector is materialized on demand by `realize`; the combinatorial
    (sign, support) form is what the illumination and detection code
    actually manipulates.
    """

    sign: int
    support: frozenset[int]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "support", frozenset(int(i) for i in self.support))
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        if not self.support:
            raise ValueError("support must be nonempty")
        if not all(1 <= i <= self.dim for i in self.support):
            raise ValueError("support indices must lie in 1..dim")

    @property
    def mask(self) -> int:
        """The support as a bitmask, bit i - 1 for index i."""
        return sum(1 << (i - 1) for i in self.support)

    def realize(self) -> np.ndarray:
        """Dense vector with sign on the support and 0 elsewhere."""
        v = np.zeros(self.dim)
        for i in self.support:
            v[i - 1] = float(self.sign)
        return v


def mask_members(mask: int) -> tuple[int, ...]:
    """The 1-based indices of the set bits of `mask`, ascending."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length())
        mask ^= low
    return tuple(members)


def witnessed_masks(values: np.ndarray, rel_tol: float = 0.0) -> np.ndarray:
    """The strict prefixes of each sorted row of a (B, k) array, as bitmasks
    (bit i - 1 for index i).

    Column c of the (B, k - 1) result is the mask of the c + 1 smallest
    entries when the gap after them is strict, else 0, so a row lists a
    nested chain smallest first.  Gaps below `rel_tol` relative count as
    ties.  Masks are int64 up to k = 62 and Python ints beyond.
    """
    order = np.argsort(values, axis=1, kind="stable")
    bits = np.left_shift(1, order if values.shape[1] <= 62 else order.astype(object))
    ranked = np.take_along_axis(values, order, axis=1)
    cur, nxt = ranked[:, :-1], ranked[:, 1:]
    return np.where(nxt - cur > rel_tol * nxt, np.cumsum(bits[:, :-1], axis=1), 0)


def extreme_points(n: int) -> list[ExtremePoint]:
    """All 2^n - 2 extreme points of the unit ball in (n-1)-space.

    Returned in a fixed deterministic order: positive sign first, supports
    by size then lexicographically.
    """
    if n < 2:
        raise ValueError("extreme points are defined for n >= 2")
    d = n - 1
    points = []
    for sign in (1, -1):
        for size in range(1, d + 1):
            for combo in combinations(range(1, d + 1), size):
                points.append(ExtremePoint(sign, frozenset(combo), d))
    return points


def subset_to_extreme_point(subset: Iterable[int], n: int) -> ExtremePoint:
    """Bookkeeping bijection from nonempty proper subsets of {1..n} onto
    the 2^n - 2 extreme points.

    Subsets avoiding n map to positive points on themselves; subsets
    containing n map to negative points on the complement within
    {1, ..., n-1}.
    """
    if n < 2:
        raise ValueError("requires n >= 2")
    J = frozenset(int(j) for j in subset)
    if not J:
        raise ValueError("subset must be nonempty")
    if not all(1 <= j <= n for j in J):
        raise ValueError("subset indices must lie in 1..n")
    if len(J) >= n:
        raise ValueError("subset must be proper")
    d = n - 1
    if n in J:
        return ExtremePoint(-1, frozenset(range(1, n)) - J, d)
    return ExtremePoint(1, J, d)
