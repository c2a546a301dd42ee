"""Independent computations and properties the benchmark checks outputs against.

Nothing here imports conelight: every value is recomputed from the
generated inputs with numpy and the standard library, or is a property the
method must have (nesting, the defining strict inequality, the chain
bound), so a wrong program output cannot also make its own check pass.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class CheckFailed(Exception):
    """A program output disagreed with an independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def middle_binomial(n: int) -> int:
    """C(n, ceil(n/2)): the size of the largest subset antichain of {1..n}."""
    return math.comb(n, (n + 1) // 2)


@lru_cache(maxsize=None)
def all_proper_subsets(n: int) -> frozenset[tuple[int, ...]]:
    """Every nonempty proper subset of {1..n}, as sorted 1-based tuples."""
    return frozenset(
        tuple(i + 1 for i in range(n) if (mask >> i) & 1) for mask in range(1, (1 << n) - 1)
    )


def map_ratios(kind: str, data: np.ndarray, points: np.ndarray) -> np.ndarray:
    """f(x)_j / x_j for each row x of `points`, computed by the benchmark."""
    if kind == "matrix":
        images = points @ data.T
    elif kind == "maxplus":
        images = (points[:, np.newaxis, :] * data[np.newaxis, :, :]).max(axis=2)
    elif kind == "monomial":
        images = np.exp(np.log(points) @ data.T)
    else:
        raise ValueError(f"unknown map kind {kind!r}")
    return images / points


def perron_root(a: np.ndarray) -> float:
    """Spectral radius of a positive matrix, from the full eigenvalue list."""
    return float(np.abs(np.linalg.eigvals(a)).max())


def max_cycle_geometric_mean(a: np.ndarray) -> float:
    """Eigenvalue of the max-times map x -> (max_j a_ij x_j)_i, by Karp's
    maximum cycle mean algorithm on the weights log a_ij."""
    w = np.log(a)
    n = w.shape[0]
    # walks[k, v]: heaviest walk with exactly k edges ending at v, from any start
    walks = np.empty((n + 1, n))
    walks[0] = 0.0
    for k in range(n):
        walks[k + 1] = (walks[k][:, np.newaxis] + w).max(axis=0)
    lengths = (n - np.arange(n))[:, np.newaxis]
    means = (walks[n][np.newaxis, :] - walks[:n]) / lengths
    return float(np.exp(means.min(axis=0).max()))


def check_history(history: list[dict], kind: str, data: np.ndarray, n: int) -> None:
    """Each stored sample: ratios are f(x)/x of its point, its subsets are
    nested, and each satisfies max_J r < min_(not J) r strictly."""
    points = np.array([rec["point"] for rec in history], dtype=float)
    ratios = np.array([rec["ratios"] for rec in history], dtype=float)
    require(points.shape == (len(history), n), "history points have the wrong shape")
    require(ratios.shape == points.shape, "history ratios have the wrong shape")
    require(bool(np.all(points > 0.0)), "a history point is not strictly positive")
    expected = map_ratios(kind, data, points)
    require(
        bool(np.allclose(ratios, expected, rtol=1e-12, atol=0.0)),
        "history ratios differ from f(x)/x",
    )
    rows, members, owners = [], [], []
    for i, rec in enumerate(history):
        for subset in rec["recorded"]:
            owners.append(i)
            rows.extend([len(owners) - 1] * len(subset))
            members.extend(subset)
    if not owners:
        return
    owner = np.array(owners)
    inside = np.zeros((len(owners), n), dtype=bool)
    member = np.array(members, dtype=int)
    require(bool(np.all((member >= 1) & (member <= n))), "a recorded index is out of range")
    inside[np.array(rows, dtype=int), member - 1] = True
    sizes = inside.sum(axis=1)
    require(bool(np.all((sizes >= 1) & (sizes < n))), "a recorded subset is empty or full")
    r = ratios[owner]
    top_inside = np.where(inside, r, -np.inf).max(axis=1)
    bottom_outside = np.where(inside, np.inf, r).min(axis=1)
    require(
        bool(np.all(top_inside < bottom_outside)),
        "a recorded subset violates max_J r < min_(not J) r",
    )
    same = owner[1:] == owner[:-1]
    grows = ~np.any(inside[:-1] & ~inside[1:], axis=1) & (sizes[1:] > sizes[:-1])
    require(bool(np.all(grows[same])), "a sample's recorded subsets are not strictly nested")


def check_eigen_estimate(estimate: dict, kind: str, data: np.ndarray, n: int) -> None:
    """Compare a converged estimate with the independent eigenvalue.

    For a monotone homogeneous map with a positive eigenvector the
    eigenvalue lies between min_j f(v)_j/v_j and max_j f(v)_j/v_j, so a
    converged estimate (log-spread `residual`) is within `residual` of it
    in log scale.  An estimate that did not converge is only checked for a
    consistent flag.
    """
    require(estimate is not None, "a halted run carries no eigenvector estimate")
    residual = float(estimate["residual"])
    converged = estimate["converged"]
    require(converged == (residual <= 1e-10), "converged flag disagrees with the residual")
    if not converged:
        return
    v = np.array(estimate["vector"], dtype=float)
    require(v.shape == (n,) and bool(np.all(v > 0.0)), "eigenvector is not a positive n-vector")
    r = map_ratios(kind, data, v[np.newaxis, :])[0]
    spread = float(np.log(r.max()) - np.log(r.min()))
    require(spread <= residual + 1e-12, "eigenvector residual is larger than reported")
    if kind == "matrix":
        truth = perron_root(data)
    elif kind == "maxplus":
        truth = max_cycle_geometric_mean(data)
    else:
        truth = 1.0
    gap = abs(math.log(float(estimate["eigenvalue"])) - math.log(truth))
    require(gap <= max(residual, spread) + 1e-12, "eigenvalue differs from the independent value")


def lit_by_some(points: np.ndarray, directions: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """For each extreme point z (a row), whether some direction w passes the
    defining small-step test ||z + t*w||_H < 1 at t = step / max|w_i|,
    with ||v||_H = max(max v, 0) - min(min v, 0).  Works in blocks of
    points so the benchmark's own memory stays small next to the program's."""
    steps = (step / np.abs(directions).max(axis=1))[:, np.newaxis] * directions
    lit = np.empty(len(points), dtype=bool)
    for lo in range(0, len(points), 8):
        moved = points[lo : lo + 8, np.newaxis, :] + steps[np.newaxis, :, :]
        norm = np.maximum(moved.max(axis=2), 0.0) - np.minimum(moved.min(axis=2), 0.0)
        lit[lo : lo + 8] = (norm < 1.0).any(axis=1)
    return lit
