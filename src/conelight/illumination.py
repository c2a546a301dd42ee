"""Illuminating the unit ball of the Hilbert norm.

A direction w illuminates a boundary point z of a convex body when
z + t*w is interior for every sufficiently small t > 0.  A set of
directions illuminates the body when every boundary point is illuminated
by some member; covering the extreme points suffices.

For the ||.||_H ball in (n-1)-space the extreme points are the signed
indicators sign * 1_I, and illumination has a closed form (first-order
expansion of ||z + t*w||_H in t):

    w illuminates +1_I  iff  max_{i in I} w_i < 0 and
                             max_{i in I} w_i < w_j for every j not in I;
    w illuminates -1_I  iff  min_{i in I} w_i > 0 and
                             min_{i in I} w_i > w_j for every j not in I.

Appending a zero coordinate n turns both conditions into one: w
illuminates the extreme point `subset_to_extreme_point(J, n)` iff J is a
strict prefix of the sorted vector (w, 0), that is, iff a test point with
log-ratio vector (w, 0) witnesses J for the eigenvector detector.  So
+1_I is lit iff I is a strict prefix that avoids n, and -1_I iff the
complement of I in {1, ..., n} is a strict prefix that holds n.  This module reads the
supports through the detector's kernel `witnessed_masks`, as n-bit subset
masks (bit i - 1 for index i, bit n - 1 for index n).  One rule turns a
strictly nested chain of proper subsets of {1, ..., n} into a direction:
with depth_j the number of chain members holding index j, w_j = depth_n -
depth_j sorts (w, 0) by decreasing depth, so w lights exactly the chain
(`_chain_directions`).  The C(n, ceil(n/2)) symmetric chains of
{1, ..., n}, built in closed form by bracket matching
(`symmetric_chain_depths`), partition the proper subsets, so one
direction per chain is an illuminating set of the optimal size that
lights every extreme point exactly once.  The least number of chains
covering the proper subsets is the exact illumination number (a maximum
matching that certifies itself with an antichain of the same size), and
antichain certificates witness the matching lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations, zip_longest
from operator import or_
from typing import Sequence

import numpy as np

from .geometry import (
    DimensionMismatchError,
    ExtremePoint,
    as_finite_vector,
    hilbert_norm,
    mask_members,
    witnessed_masks,
)

# Step size factor for the small-t numeric illumination check.
NUMERIC_STEP = 1e-6

# Size limits, checked before anything is built.  Work and memory grow as
# 2^(n-1) extreme points and C(n, ceil(n/2)) directions for the optimal set
# and its check, as 2^d vectors for a chain decomposition of {0,1}^d, as
# (n-1)! * n direction classes for a certificate, and as 2^n - 2 subsets
# with about 3^n inclusion pairs for the exact number.
MAX_ILLUMINATION_N = 20
MAX_CHAIN_D = 20
MAX_CERTIFICATE_N = 9
MAX_EXACT_N = 12

# Directions passed to `witnessed_masks` at once; its sort and prefix-sum
# temporaries are several (rows, n) arrays, so this bounds their memory.
WITNESS_BLOCK_ROWS = 1 << 14


class TooLargeError(ValueError):
    """A size argument exceeds its documented limit."""


def _check_size(name: str, value: int, limit: int) -> None:
    if value > limit:
        raise TooLargeError(f"{name} = {value} exceeds the supported maximum {limit}")


def as_direction(w) -> np.ndarray:
    """Validate a direction: finite coordinates, not all zero."""
    arr = as_finite_vector(w)
    if not np.any(arr != 0.0):
        raise ValueError("a direction must be nonzero")
    return arr


def _direction_block(directions, d: int) -> np.ndarray:
    """Stack directions of dimension `d` into one (m, d) array.

    Invalid input raises what the first offending direction raises on its
    own: `as_direction`'s errors, then a dimension mismatch.
    """
    rows = list(directions)
    if not rows:
        return np.empty((0, d))
    try:
        block = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        block = None
    if block is None or block.shape != (len(rows), d) or not (
        np.isfinite(block).all() and block.any(axis=1).all()
    ):
        for w in rows:
            if as_direction(w).size != d:
                raise DimensionMismatchError(
                    f"direction has dimension {np.size(w)}, expected {d}"
                )
    return block


def illuminates(w, z: ExtremePoint) -> bool:
    """Closed-form illumination predicate for an extreme point.

    For z = +1_I the condition is max_I w < min(0, min over the
    complement); for z = -1_I it is the mirror image.  Justification: for
    small t > 0 the norm ||z + t*w||_H equals 1 + t*(max_I w - min(0,
    min_{j not in I} w_j)) in the positive case, so the norm dips below 1
    exactly when that slope is negative.
    """
    wv = as_direction(w)
    if wv.size != z.dim:
        raise DimensionMismatchError(
            f"direction has dimension {wv.size}, extreme point has {z.dim}"
        )
    sup = np.array(sorted(z.support), dtype=int) - 1
    mask = np.zeros(wv.size, dtype=bool)
    mask[sup] = True
    outside = wv[~mask]
    if z.sign > 0:
        top = wv[mask].max()
        return bool(top < 0.0 and (outside.size == 0 or top < outside.min()))
    bottom = wv[mask].min()
    return bool(bottom > 0.0 and (outside.size == 0 or bottom > outside.max()))


def illuminates_numeric(w, z: ExtremePoint) -> bool:
    """Defining small-step check: ||z + t*w||_H < 1 at t = NUMERIC_STEP / max|w_i|.

    Independent of the closed form; the two must agree away from exact
    ties, and the test suite cross-validates them.
    """
    wv = as_direction(w)
    if wv.size != z.dim:
        raise DimensionMismatchError(
            f"direction has dimension {wv.size}, extreme point has {z.dim}"
        )
    t = NUMERIC_STEP / np.abs(wv).max()
    return hilbert_norm(z.realize() + t * wv) < 1.0


def _witnessed(block: np.ndarray) -> np.ndarray:
    """The subsets each row w of an (m, d) direction block witnesses as
    (w, 0), as (m, d) n-bit masks, a nested chain read smallest first, 0
    for none.  A mask J stands for the extreme point
    `subset_to_extreme_point(J, d + 1)`, which w illuminates."""
    rows = WITNESS_BLOCK_ROWS
    parts = [block[i : i + rows] for i in range(0, max(len(block), 1), rows)]
    return np.concatenate([witnessed_masks(np.hstack([p, np.zeros((len(p), 1))])) for p in parts])


def _lit_counts(block: np.ndarray, d: int) -> np.ndarray:
    """How many of the directions illuminate each extreme point, indexed by
    n-bit subset mask; entries 0 and 2^n - 1 stand for no point."""
    return np.bincount(_witnessed(block).ravel(), minlength=2 << d)


def _check_lit_once(directions: np.ndarray, n: int, built: str) -> None:
    """Raise unless the directions light each extreme point exactly once."""
    if not (_lit_counts(directions, n - 1)[1:-1] == 1).all():
        raise RuntimeError(f"{built} for n = {n} do not light every extreme point exactly once")


def chain_depths(chains: Sequence[Sequence[int]], d: int) -> np.ndarray:
    """Row k, column j holds how many masks of chains[k] contain index j + 1."""
    depth = np.zeros((len(chains), d), dtype=np.int64)
    for masks in zip_longest(*chains, fillvalue=0):  # the empty mask holds no index
        depth += (np.array(masks, dtype=np.int64)[:, np.newaxis] >> np.arange(d)) & 1
    return depth


def _chain_directions(depth: np.ndarray) -> np.ndarray:
    """Row k lights exactly the chain whose `chain_depths` row is depth[k]:
    w_j = depth_n - depth_j, so (w, 0) sorts by decreasing depth and its
    strict prefixes are the chain's members."""
    return (depth[:, -1:] - depth[:, :-1]).astype(float)


def symmetric_chain_depths(d: int) -> np.ndarray:
    """The `chain_depths` of C(d, ceil(d/2)) symmetric chains (saturated,
    bottom size + top size = d) partitioning the subsets of {1, ..., d},
    ordered by bottom mask; the chain of length L in row k holds the
    superlevel sets depth[k] >= t, t = L, ..., 1, bottom first.

    Bracket matching in closed form on the bits of all 2^d masks, 0 opening
    and 1 closing: a bottom's prefix balance never goes negative, and a 0 is
    unmatched iff the balance never returns to where it stood before it.
    The chain turns its unmatched zeros to 1 from the left, so the bottom's
    ones have depth L, the k-th unmatched 0 depth L - k, a matched 0 depth 0.
    """
    _check_size("d", d, MAX_CHAIN_D)
    if d < 1:
        raise ValueError("d must be at least 1")
    masks = np.arange(1 << d)
    step = np.empty((1 << d, d), dtype=np.int8)  # +1 opens at a 0, -1 closes at a 1
    for j in range(d):
        step[:, j] = 1 - 2 * ((masks >> j) & 1)
    balance = np.cumsum(step, axis=1, dtype=np.int8)  # after each bit
    bottom = balance.min(axis=1) >= 0
    step, balance = step[bottom], balance[bottom]
    unmatched = balance - step < np.minimum.accumulate(balance[:, ::-1], axis=1)[:, ::-1]
    rank = np.cumsum(unmatched, axis=1, dtype=np.int8)
    length = rank[:, -1:] + 1
    return np.where(step < 0, length, np.where(unmatched, length - rank, 0)).astype(np.int64)


def proper_chain_depths(n: int) -> np.ndarray:
    """The depths of chains partitioning the nonempty proper subsets of
    {1, ..., n}: `symmetric_chain_depths(n)` less the empty and the full set,
    which both lie on row 0's chain; dropping its top lowers that row by 1."""
    _check_size("n", n, MAX_CHAIN_D)
    depth = symmetric_chain_depths(n)
    depth[0] -= 1
    return depth


def optimal_illuminating_set(n: int) -> list[np.ndarray]:
    """Directions of minimal count C(n, ceil(n/2)) illuminating the whole ball.

    One `_chain_directions` row per chain of `proper_chain_depths(n)`: each
    lights exactly its chain, so the set lights every extreme point exactly
    once, which is checked before the set is returned.
    """
    _check_size("n", n, MAX_ILLUMINATION_N)
    if n < 2:
        raise ValueError("n must be at least 2")
    directions = _chain_directions(proper_chain_depths(n))
    _check_lit_once(directions, n, "the directions built")
    return list(directions)


@dataclass(frozen=True)
class IlluminationReport:
    """Outcome of checking a direction set against every extreme point."""

    n: int
    direction_count: int
    covered: bool
    unilluminated: tuple[ExtremePoint, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "direction_count": self.direction_count,
            "covered": self.covered,
            "unilluminated": [p.realize().tolist() for p in self.unilluminated],
        }


def verify_illumination(directions: Sequence, n: int) -> IlluminationReport:
    """Exhaustively check which of the 2^n - 2 extreme points the given
    directions illuminate.

    Uses the block support enumeration, which marks exactly the points the
    closed-form predicate accepts; the unilluminated points come in
    `extreme_points(n)` order.
    """
    _check_size("n", n, MAX_ILLUMINATION_N)
    if n < 2:
        raise ValueError("n must be at least 2")
    d = n - 1
    block = _direction_block(directions, d)
    masks = np.flatnonzero(_lit_counts(block, d)[1:-1] == 0) + 1
    split = np.searchsorted(masks, 1 << d)
    missing = tuple(
        ExtremePoint(sign, members, d)
        for sign, supports in ((1, masks[:split]), (-1, (2 << d) - 1 - masks[split:]))
        for members in sorted(map(mask_members, supports.tolist()), key=lambda s: (len(s), s))
    )
    return IlluminationReport(n, len(block), not missing, missing)


# ---------------------------------------------------------------------------
# The exact illumination number, by Dilworth's theorem
# ---------------------------------------------------------------------------
#
# A direction lights exactly the subsets that are strict prefixes of the
# sorted (w, 0), a chain, and `_chain_directions` lights any chain of proper
# subsets with one direction.  So the illumination number is the least
# number of chains covering the 2^n - 2 proper subsets of {1, ..., n}, which
# by Dilworth's theorem is the largest antichain among them.


def _chain_cover(masks) -> tuple[list[list[int]], list[int]]:
    """A minimum partition of a family of distinct int masks into strictly
    nested chains (each listed smallest first), and an antichain of the same
    size, which proves no smaller partition exists.

    Each mask links to its strict supersets in the family; a maximum
    matching of these links (Hopcroft-Karp) joins the masks into
    len(masks) - |matching| chains (Fulkerson).  The masks the final
    alternating search reaches as lower ends but not as upper ends form the
    antichain (Konig).
    """
    masks = list(masks)
    index = {m: i for i, m in enumerate(masks)}
    full = reduce(or_, masks, 0)
    above = []
    for m in masks:
        rest = full & ~m
        ups, sub = [], rest
        while sub:  # every nonempty submask of the complement
            if m | sub in index:
                ups.append(index[m | sub])
            sub = (sub - 1) & rest
        above.append(ups)

    size = len(masks)
    succ, pred = [-1] * size, [-1] * size  # the matching, as chain links
    while True:
        # layer the lower ends by alternating distance from the unlinked ones
        layer = [-1] * size
        queue = [i for i in range(size) if succ[i] < 0]
        for i in queue:
            layer[i] = 0
        open_end = False
        for i in queue:
            for j in above[i]:
                k = pred[j]
                if k < 0:
                    open_end = True
                elif layer[k] < 0:
                    layer[k] = layer[i] + 1
                    queue.append(k)
        if not open_end:
            break
        # augment along layered paths, depth first; a dead end leaves the layering
        cursor = [0] * size
        for root in range(size):
            if succ[root] >= 0:
                continue
            path, stack = [], [root]
            while stack:
                i = stack[-1]
                while cursor[i] < len(above[i]):
                    j = above[i][cursor[i]]
                    cursor[i] += 1
                    k = pred[j]
                    if k < 0 or layer[k] == layer[i] + 1:
                        break
                else:
                    layer[i] = -1
                    stack.pop()
                    if path:
                        path.pop()
                    continue
                path.append(j)
                if k >= 0:
                    stack.append(k)
                    continue
                for lo, hi in zip(stack, path):
                    succ[lo], pred[hi] = hi, lo
                break

    chains = []
    for i in range(size):
        if pred[i] < 0:
            chain = [i]
            while succ[chain[-1]] >= 0:
                chain.append(succ[chain[-1]])
            chains.append([masks[k] for k in chain])
    antichain = [
        masks[i] for i in range(size) if layer[i] >= 0 and not (pred[i] >= 0 and layer[pred[i]] >= 0)
    ]
    return chains, antichain


def illumination_number_exact(n: int) -> int:
    """Minimum number of directions illuminating all extreme points.

    Runs `_chain_cover` on the 2^n - 2 proper subsets of {1, ..., n} and
    checks both of its witnesses before answering: the chains, one
    `_chain_directions` row each, must light every extreme point exactly
    once, and the antichain, of which one direction lights at most one
    member, must be pairwise non-nested and as large as the cover.
    Supported for 2 <= n <= MAX_EXACT_N; the graph has about 3^n inclusion
    pairs.
    """
    _check_size("n", n, MAX_EXACT_N)
    if n < 2:
        raise ValueError("n must be at least 2")
    chains, antichain = _chain_cover(range(1, (1 << n) - 1))
    _check_lit_once(_chain_directions(chain_depths(chains, n)), n, "the chain cover's directions")
    members = np.array(antichain, dtype=np.int64)[:, np.newaxis]
    nested = np.count_nonzero((members & members.T) == members)  # the diagonal at least
    if len(antichain) != len(chains) or nested != len(antichain):
        raise RuntimeError(f"the antichain for n = {n} does not match the chain cover")
    return len(chains)

# ---------------------------------------------------------------------------
# Lower-bound certificates
# ---------------------------------------------------------------------------
#
# The illumination pattern of a direction only depends on the relative
# order of its coordinates and on where zero sits in that order.  Ties and
# zero coordinates never help: every closed-form condition is a strict
# inequality, so it survives any sufficiently small perturbation, and a
# generic perturbation makes the coordinates distinct and nonzero while
# keeping (at least) the same pattern.  It therefore suffices to check the
# (n-1)! * n canonical classes (a permutation giving the strict coordinate
# order plus the count of negative coordinates).


def _class_block(d: int) -> np.ndarray:
    """One representative of every canonical class, d! * (d + 1) rows of
    dimension d, permutation-major: row (perm, negatives) holds rank + 0.5 -
    negatives at coordinate perm[rank], so exactly `negatives` values are
    below zero and all values are distinct and nonzero."""
    ranks = np.argsort(np.array(list(permutations(range(d)))), axis=1)
    return (ranks[:, np.newaxis, :] + 0.5 - np.arange(d + 1)[:, np.newaxis]).reshape(-1, d)


@dataclass(frozen=True)
class LowerBoundCertificate:
    """A family of extreme points that pairwise require distinct
    illuminating directions, hence a lower bound on the illumination
    number equal to the family size.

    `shareable_pairs` lists index pairs for which some canonical class
    illuminated both members; a valid certificate has none.
    """

    n: int
    points: tuple[ExtremePoint, ...]
    shareable_pairs: tuple[tuple[int, int], ...]
    classes_checked: int

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def all_unshareable(self) -> bool:
        return not self.shareable_pairs

    def to_dict(self) -> dict:
        shareable = set(self.shareable_pairs)
        return {
            "n": self.n,
            "size": self.size,
            "classes_checked": self.classes_checked,
            "all_unshareable": self.all_unshareable,
            "points": [p.realize().tolist() for p in self.points],
            "pairs": [
                {
                    "a": self.points[i].realize().tolist(),
                    "b": self.points[j].realize().tolist(),
                    "unshareable": (i, j) not in shareable,
                }
                for i, j in combinations(range(self.size), 2)
            ],
        }


def lower_bound_certificate(n: int) -> LowerBoundCertificate:
    """Antichain certificate of size C(n, ceil(n/2)).

    Takes all positive extreme points of support size k = floor(n/2) and
    all negative ones of support size m = ceil(n/2).  Every canonical
    direction class is exhausted and the points it illuminates inside the
    certificate are intersected pairwise; no pair may be covered by one
    class, which (ties and zeros being dominated by nearby canonical
    directions) means no single direction can serve two certificate points.
    """
    _check_size("n", n, MAX_CERTIFICATE_N)
    if n < 2:
        raise ValueError("n must be at least 2")
    d = n - 1
    k, m = n // 2, (n + 1) // 2
    points = [
        ExtremePoint(1, frozenset(c), d) for c in combinations(range(1, d + 1), k)
    ] + [ExtremePoint(-1, frozenset(c), d) for c in combinations(range(1, d + 1), m)]
    index = np.full(2 << d, -1)  # n-bit subset mask -> point index
    for i, p in enumerate(points):
        index[p.mask if p.sign > 0 else (2 << d) - 1 - p.mask] = i

    block = _class_block(d)
    hits = index[_witnessed(block)]
    shareable = {
        pair
        for row in hits[(hits >= 0).sum(axis=1) > 1].tolist()
        for pair in combinations(sorted(i for i in row if i >= 0), 2)
    }
    return LowerBoundCertificate(
        n, tuple(points), tuple(sorted(shareable)), len(block)
    )
