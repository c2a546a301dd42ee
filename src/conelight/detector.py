"""Eigenvector-existence detection by inequality recording.

An order-preserving homogeneous map f on the open positive cone has a
positive eigenvector (with Hilbert-bounded eigenvector set) exactly when
every nonempty proper index subset J admits a positive witness x with

    max_{j in J} f(x)_j / x_j  <  min_{j not in J} f(x)_j / x_j.

The detector samples test points and, for each, records every subset the
point witnesses.  Reading the sorted ratio vector, the witnessed subsets
are precisely the prefixes ending at a strict gap, so one sample records a
nested chain of at most n - 1 subsets.  The run halts once all 2^n - 2
subsets are recorded, which certifies the eigenvector's existence; a
budget-exhausted run proves nothing and is reported as such.

Because each sample contributes a chain and the size-ceil(n/2) subsets
form an antichain, any halting run needs at least C(n, ceil(n/2)) samples.
`chain_schedule` produces deterministic test points, one per chain of a
symmetric chain decomposition, that typically meet this bound exactly on
well-conditioned maps.

The sampling loop works on blocks of BLOCK_SIZE test points: one draw, one
map evaluation, one sort and one subset update per block.  Subsets are
bitmasks (bit i - 1 for index i) throughout; the ledger computes a
subset's sorted members once, when it first records the mask.  A run that
halts inside a block stops at exactly the sample that completed the
ledger, so the block size never shows in a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import as_positive_vector, mask_members, witnessed_masks
from .illumination import proper_chain_depths
from .maps import DYNAMIC_RANGE_CAP, ConeMap, evaluate, evaluate_batch, verify_cone_map

SAMPLER_MODES = ("unit-box", "log-uniform", "scheduled")

# Ratios closer than this (relatively) are treated as tied; recording across
# a gap this small could falsely certify an inequality.
RATIO_TIE_RTOL = 1e-12

# Test points drawn, evaluated and recorded together by `run`.
BLOCK_SIZE = 512


@dataclass(frozen=True)
class SamplerConfig:
    """How the detector draws test points.

    Modes: "unit-box" fixes x_1 = 1 and draws the other coordinates
    uniformly from (0, 1); "log-uniform" fixes x_1 = 1 and draws
    log-coordinates uniformly from (-radius, radius); "scheduled" consumes
    the chain schedule for `beta`.
    """

    mode: str = "log-uniform"
    radius: float = 3.0
    beta: float = 1000.0
    seed: int = 0
    max_iterations: int = 10000
    history_cap: int = 1000

    def __post_init__(self):
        if self.mode not in SAMPLER_MODES:
            raise ValueError(f"mode must be one of {SAMPLER_MODES}")
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if 2.0 * self.radius > math.log(DYNAMIC_RANGE_CAP):
            # coordinates span exp(2 * radius); beyond the cap the ratios
            # are untrustworthy and exp under- or overflows
            raise ValueError(
                f"radius must satisfy exp(2 * radius) <= {DYNAMIC_RANGE_CAP:g}, "
                f"so at most {math.log(DYNAMIC_RANGE_CAP) / 2:.4g}"
            )
        if not 1.0 < self.beta < math.inf:
            raise ValueError("beta must exceed 1 and be finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.history_cap < 0:
            raise ValueError("history_cap must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class SampleRecord:
    """One detector step: the test point, its ratios, and what it recorded."""

    index: int
    point: tuple[float, ...]
    ratios: tuple[float, ...]
    recorded: tuple[tuple[int, ...], ...]


class SubsetLedger:
    """Recorded nonempty proper subsets plus a capped per-sample history.

    History beyond `history_cap` is dropped; the counters keep the full
    summary either way.  `recorded` maps the bitmask of each recorded
    subset to its sorted members, which `note_block` computes once, when it
    first records the mask.
    """

    def __init__(self, n: int, history_cap: int = SamplerConfig.history_cap):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if history_cap < 0:
            raise ValueError("history_cap must be nonnegative")
        self.n = n
        self.history_cap = history_cap
        self.recorded: dict[int, tuple[int, ...]] = {}
        self.history: list[SampleRecord] = []
        self.samples_seen = 0

    @property
    def total(self) -> int:
        return 2**self.n - 2

    def is_complete(self) -> bool:
        return len(self.recorded) == self.total

    def note_block(self, points: np.ndarray, ratios: np.ndarray, masks: np.ndarray) -> int:
        """Take a block of samples in order, given their points, ratios and
        `witnessed_masks`, up to the sample that completes the ledger.

        Returns the number of samples taken: the whole block, unless the
        ledger filled inside it.
        """
        rows, cols = np.nonzero(masks)
        found, first = np.unique(masks[rows, cols], return_index=True)
        new = [
            (row, mask)
            for mask, row in zip(found.tolist(), rows[first].tolist())
            if mask not in self.recorded
        ]
        taken = len(masks)
        if new and len(self.recorded) + len(new) >= self.total:
            taken = max(row for row, _ in new) + 1
        for _, mask in new:
            self.recorded[mask] = mask_members(mask)
        kept = min(taken, self.history_cap - len(self.history))
        for i, (point, ratio, row) in enumerate(
            zip(points[:kept].tolist(), ratios[:kept].tolist(), masks[:kept].tolist())
        ):
            self.history.append(
                SampleRecord(
                    index=self.samples_seen + i + 1,
                    point=tuple(point),
                    ratios=tuple(ratio),
                    recorded=tuple(self.recorded[m] for m in row if m),
                )
            )
        self.samples_seen += taken
        return taken


def _record_block(f: ConeMap, points, ledger: SubsetLedger) -> np.ndarray:
    """Evaluate a (B, n) block of test points and record what they witness,
    stopping at the sample that completes the ledger; returns the prefix
    masks of the samples taken."""
    ratios = evaluate_batch(f, points) / points
    masks = witnessed_masks(ratios, RATIO_TIE_RTOL)
    return masks[: ledger.note_block(points, ratios, masks)]


def min_remaining_lower_bound(ledger: SubsetLedger) -> int:
    """Samples still needed, at minimum.

    The subsets of one fixed size form an antichain while every sample
    records a chain, so each sample can hit at most one subset per size
    level.  The largest per-level deficit is therefore a valid lower
    bound on the remaining sample count.
    """
    n = ledger.n
    if n < 2:
        return 0
    recorded_by_size = [0] * n
    for mask in ledger.recorded:
        recorded_by_size[mask.bit_count()] += 1
    return max(
        math.comb(n, k) - recorded_by_size[k] for k in range(1, n)
    )


@dataclass(frozen=True)
class DetectionReport:
    """Result of a detection run.

    `halted` implies every nonempty proper subset was recorded.  The
    eigenvector `estimate` is attempted only after a halt and may be marked
    unconverged.
    """

    dimension: int
    map_name: str
    config: SamplerConfig
    halted: bool
    samples_used: int
    recorded_count: int
    total_subsets: int
    remaining_lower_bound: int
    recorded_subsets: tuple[tuple[int, ...], ...]
    history: tuple[SampleRecord, ...]
    history_truncated: bool
    estimate: Optional[EigenEstimate] = None

    def to_dict(self) -> dict:
        estimate = self.estimate
        return {
            "dimension": self.dimension,
            "map": self.map_name,
            "mode": self.config.mode,
            "seed": self.config.seed,
            "radius": self.config.radius,
            "beta": self.config.beta,
            "max_iterations": self.config.max_iterations,
            "halted": self.halted,
            "samples_used": self.samples_used,
            "recorded_count": self.recorded_count,
            "total_subsets": self.total_subsets,
            "remaining_lower_bound": self.remaining_lower_bound,
            "recorded_subsets": [list(s) for s in self.recorded_subsets],
            "eigenvector_estimate": None if estimate is None else {
                "vector": list(estimate.vector),
                "eigenvalue": estimate.eigenvalue,
                "residual": estimate.residual,
                "converged": estimate.converged,
            },
            "history_truncated": self.history_truncated,
            "history": [
                {
                    "index": rec.index,
                    "point": list(rec.point),
                    "ratios": list(rec.ratios),
                    "recorded": [list(s) for s in rec.recorded],
                }
                for rec in self.history
            ],
        }


def chain_schedule(n: int, beta: float) -> np.ndarray:
    """Deterministic test points, one row per symmetric chain, a
    (C(n, ceil(n/2)), n) array.

    Each chain of nonempty proper subsets J_1 < ... < J_k (endpoints of the
    subset lattice removed) yields the point with coordinates beta**level,
    where the level of an index is the number of chain subsets holding it
    (`proper_chain_depths`): k in J_1, each successive difference one level
    lower, 0 on the complement; the point is rescaled so x_1 = 1, which
    leaves its ratio vector unchanged.  With beta large the sorted ratios
    gap exactly at the level boundaries, so the sample records its whole
    chain.  Row k is exactly beta**-(w, 0) rescaled, w the k-th direction
    of `optimal_illuminating_set(n)`.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not beta > 1.0:
        raise ValueError("beta must exceed 1")
    if beta ** (n - 1) > DYNAMIC_RANGE_CAP:
        raise ValueError(
            f"beta**{n - 1} exceeds the dynamic range cap {DYNAMIC_RANGE_CAP:g}"
        )
    x = beta ** proper_chain_depths(n).astype(float)
    return x / x[:, :1]


@dataclass(frozen=True)
class EigenEstimate:
    vector: tuple[float, ...]
    eigenvalue: float
    residual: float
    converged: bool
    iterations: int


def estimate_eigenvector(
    f: ConeMap, x0, tol: float = 1e-10, max_iter: int = 1000
) -> EigenEstimate:
    """Best-effort eigenvector search by iterating the normalized map.

    The iteration is only nonexpansive, so there is no convergence
    guarantee; a non-converged result is a status, not an error, and so is
    an iterate that under- or overflows.  On success the eigenvalue is
    reported as the common ratio f(v)_j / v_j (geometric mean; the max/min
    log-spread is the residual and is at most `tol`).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    x = as_positive_vector(x0)
    y = evaluate(f, x)
    iterations = 0
    while True:
        ratios = y / x
        residual = float(np.log(ratios.max()) - np.log(ratios.min()))
        if residual <= tol or iterations >= max_iter:
            break
        nxt = y / y[-1]
        if not np.all((nxt > 0.0) & np.isfinite(nxt)):
            break
        x = nxt
        y = evaluate(f, x)
        iterations += 1
    return EigenEstimate(
        vector=tuple(float(v) for v in x),
        eigenvalue=float(np.exp(np.mean(np.log(ratios)))),
        residual=residual,
        converged=residual <= tol,
        iterations=iterations,
    )


def _draw_block(mode: str, rng: np.random.Generator, size: int, n: int, radius: float) -> np.ndarray:
    # one (size, n - 1) draw yields the same stream as `size` draws of n - 1
    x = np.ones((size, n))
    if mode == "unit-box":
        # uniform(0, 1) can return 0.0 exactly; nudge into the open interval
        x[:, 1:] = np.maximum(rng.uniform(0.0, 1.0, (size, n - 1)), np.finfo(float).tiny)
    else:
        x[:, 1:] = np.exp(rng.uniform(-radius, radius, (size, n - 1)))
    return x


def run(f: ConeMap, cfg: SamplerConfig) -> DetectionReport:
    """Run the detection loop until the ledger fills or the budget ends.

    Exhausting the budget is not an error; the report simply carries
    halted=False.  Maps without static validation are first checked
    statistically and an invalid map aborts with a diagnostic.
    """
    n = f.dim
    if not f.statically_validated:
        verify_cone_map(f, seed=(cfg.seed + 1) & 0x7FFFFFFF)
    ledger = SubsetLedger(n, cfg.history_cap)

    halted = ledger.is_complete()  # n == 1 has nothing to record
    if not halted:
        if cfg.mode == "scheduled":
            schedule = chain_schedule(n, cfg.beta)
            budget = min(len(schedule), cfg.max_iterations)

            def block(start: int, stop: int) -> np.ndarray:
                return schedule[start:stop]

        else:
            rng = np.random.default_rng(cfg.seed)
            budget = cfg.max_iterations

            def block(start: int, stop: int) -> np.ndarray:
                return _draw_block(cfg.mode, rng, stop - start, n, cfg.radius)

        for start in range(0, budget, BLOCK_SIZE):
            _record_block(f, block(start, min(start + BLOCK_SIZE, budget)), ledger)
            if ledger.is_complete():
                halted = True
                break

    bound = math.comb(n, (n + 1) // 2)
    if halted and n >= 2 and ledger.samples_seen < bound:
        # chain/antichain bound: a halting run cannot beat the middle layer,
        # so this can only mean the recording itself is unsound
        raise RuntimeError(
            f"run halted after {ledger.samples_seen} samples, below the chain "
            f"bound C({n}, {(n + 1) // 2}) = {bound}"
        )

    return DetectionReport(
        dimension=n,
        map_name=f.name,
        config=cfg,
        halted=halted,
        samples_used=ledger.samples_seen,
        recorded_count=len(ledger.recorded),
        total_subsets=ledger.total,
        remaining_lower_bound=min_remaining_lower_bound(ledger),
        recorded_subsets=tuple(sorted(ledger.recorded.values(), key=lambda t: (len(t), t))),
        history=tuple(ledger.history),
        history_truncated=ledger.samples_seen > len(ledger.history),
        estimate=estimate_eigenvector(f, np.ones(n)) if halted else None,
    )
