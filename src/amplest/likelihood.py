"""Log-likelihood evaluation and exact grid maximization.

The log-likelihood of a record is a sum over depths of binomial terms
``hits * ln(p) + (shots - hits) * ln(1 - p)`` with ``p`` the good-state
probability at the candidate angle. Zero-count terms are dropped (the
``0 * ln 0 = 0`` convention), and an impossible outcome (``p = 0`` with
hits, or ``p = 1`` with misses) scores exactly ``-inf`` rather than some
clamped finite value: the exact zeros are what create the exceptional
amplitudes, and clamping would mask them.

Maximization returns the first maximizer (ties break toward smaller angle)
over ``grid_size`` evenly spaced angles spanning [0, pi/2] inclusive, as an
exhaustive scan would, without evaluating every angle. The grid is cut
into blocks of about sqrt(grid_size) columns, and only the block edges are
kept per (depths, grid_size), so memory and per-run work are O(D sqrt(G))
for D depths and G grid points, at any ``epsilon``. Each depth's term is
``f(p) = h ln p + m ln(1 - p)`` at ``p = sin^2(c theta)`` (``c = 2d + 1``),
and ``f`` is concave in ``p`` with its maximum at ``p = h / n``. Over a
block, ``p`` takes every value in a range ``[p_lo, p_hi]`` per (depth,
block): the two edge values, widened to 0 or 1 where the block holds
an integer or half-integer ``c theta / pi``. The term is therefore bounded
on the block by ``f(clip(h / n, p_lo, p_hi))``, and a block's bound is the
sum over depths. The logs of both range ends are cached, and since
``ln`` is increasing, ``ln clip(r, p_lo, p_hi) = clip(ln r, ln p_lo, ln p_hi)``
(and likewise for ``ln(1 - p)``, which decreases): each term is a choice
among the cached edge logs and the depth's peak ``h ln r + m ln(1 - r)``,
``r = h / n``, and the bound pass takes logs of the D ratios only. Exactly
evaluated are the block with the highest bound and every block whose bound
reaches the best value found less a float margin.

Each grid keeps the ``ln p`` and ``ln(1 - p)`` rows of the blocks it
evaluated in its own ``functools.lru_cache`` of as many blocks as fit in
``_ROW_CACHE_BYTES``, so a block evaluated again takes no ``sin`` or ``log``.
Memory per grid stays O(D sqrt(G)) plus that fixed budget.

A column's value is ``sum_j (h_j ln p_j + m_j ln(1 - p_j))`` with the depths
added in ascending order and ``p_j = sin(c_j * theta) ** 2`` in float64, so
results do not depend on batching, block layout or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .planner import Plan
from .sampler import MeasurementRecord, amplitude_from_angle, draw_record, good_prob

__all__ = [
    "Estimate",
    "depth_log_likelihood",
    "record_log_likelihood",
    "grid_maximize",
    "run_mlqae",
]

# A block is evaluated when its bound reaches the best value found less
# _MARGIN * (|best| + total shots): column values carry rounding errors of
# a few ulps of each term and of each count, far below this.
_MARGIN = 1e-9
# Each grid keeps the ln p and ln(1 - p) rows of its recently evaluated
# blocks, least recently used first out, in at most this many bytes. That
# holds every block of a 3000-point grid at d=16 and a few blocks of a
# 300k-point grid at d=50; below one block it holds none.
_ROW_CACHE_BYTES = 2**20
# Integer and half-integer ``c * theta / pi`` are tested against blocks
# widened by this much, far above its rounding; a false positive only
# loosens a bound.
_EXTREMUM_SLACK = 1e-9


@dataclass(frozen=True)
class Estimate:
    """The maximizing grid point of a record's log-likelihood."""

    theta_hat: float
    a_hat: float
    grid_index: int
    log_likelihood: float
    grid_size: int

    def to_dict(self) -> dict:
        return {
            "theta_hat": self.theta_hat,
            "a_hat": self.a_hat,
            "grid_index": self.grid_index,
            "log_likelihood": self.log_likelihood,
            "grid_size": self.grid_size,
        }


def depth_log_likelihood(theta: float, depth: int, shots: int, hits: int) -> float:
    """Log-likelihood of ``hits`` good outcomes in ``shots`` at one depth."""
    if not 0 <= hits <= shots:
        raise ValueError(f"hits {hits} outside [0, {shots}]")
    p = good_prob(theta, depth)
    ll = 0.0
    if hits > 0:
        ll += hits * math.log(p) if p > 0.0 else -math.inf
    if shots - hits > 0:
        ll += (shots - hits) * math.log1p(-p) if p < 1.0 else -math.inf
    return ll


def record_log_likelihood(theta: float, record: MeasurementRecord) -> float:
    """Combined log-likelihood of a record; -inf propagates through the sum."""
    return sum(
        (depth_log_likelihood(theta, e.depth, e.shots, e.hits) for e in record.entries),
        0.0,
    )


def _angle_step(grid_size: int) -> float:
    """Angle between neighbouring points of a ``grid_size``-point grid."""
    return math.pi / 2.0 / (grid_size - 1)


def grid_angles(grid_size: int) -> np.ndarray:
    """``grid_size`` evenly spaced angles covering [0, pi/2] inclusive."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    return np.arange(grid_size) * _angle_step(grid_size)


def _log_probs(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``ln p`` and ``ln(1 - p)`` for ``p = sin^2(angles)``; ``-inf`` stays."""
    p = np.sin(angles) ** 2
    with np.errstate(divide="ignore"):
        return np.log(p), np.log1p(-p)


def _depth_terms(
    hits: np.ndarray, misses: np.ndarray, log_p: np.ndarray, log_q: np.ndarray
) -> np.ndarray:
    """Per-depth terms ``hits * ln p + misses * ln q``; zero counts drop out.

    A dropped term is exactly 0, so ``0 * -inf`` never becomes NaN.
    """
    good = np.multiply(hits, log_p, out=np.zeros(log_p.shape), where=hits > 0)
    bad = np.multiply(misses, log_q, out=np.zeros(log_q.shape), where=misses > 0)
    return good + bad


def _sin2_ranges(factors: np.ndarray, edges: np.ndarray, step: float):
    """``[p_lo, p_hi]`` of ``sin^2(c theta)`` per depth (row) and block (column)."""
    angles = factors * (edges * step)
    p = np.sin(angles) ** 2
    x = angles / math.pi
    left, right = p[:, :-1], p[:, 1:]
    # sin^2(pi x) is 0 at integer x and 1 at half-integer x.
    x_lo, x_hi = x[:, :-1] - _EXTREMUM_SLACK, x[:, 1:] + _EXTREMUM_SLACK
    p_lo = np.where(np.floor(x_hi) >= x_lo, 0.0, np.minimum(left, right))
    p_hi = np.where(np.floor(x_hi - 0.5) >= x_lo - 0.5, 1.0, np.maximum(left, right))
    return p_lo, p_hi


def _rows_of(factors: np.ndarray, edges: np.ndarray, step: float, block: int):
    """Read-only ``ln p`` and ``ln(1 - p)`` over a block's columns, rows by depth."""
    stop = edges[block + 1] + (block + 2 == len(edges))
    rows = _log_probs(factors * (np.arange(edges[block], stop) * step))
    for row in rows:
        row.flags.writeable = False  # a cached row is shared by every later call
    return rows


class _BlockGrid:
    """Block edges of the angle grid for one tuple of depths.

    Block ``k`` evaluates columns ``edges[k]`` to ``edges[k + 1] - 1`` (the
    last block also the final column); its bound covers both edges, over
    which depth ``j`` sees ``sin^2(c_j theta)`` span ``[p_lo, p_hi][j, k]``
    (:func:`_sin2_ranges`), kept as ``log_p_*`` = ``ln p`` and ``log_q_*`` =
    ``ln(1 - p)`` at both ends. ``rows(k)`` caches the rows of as many blocks
    of the widest size (``width + 1`` columns) as fit in ``_ROW_CACHE_BYTES``,
    least recently used first out. It holds no reference to the grid, so a
    grid dropped from :func:`_block_grid` is freed at once.
    """

    def __init__(self, depths: tuple[int, ...], grid_size: int):
        if grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        width = math.isqrt(grid_size - 1) + 1
        self.edges = np.append(np.arange(0, grid_size - 1, width), grid_size - 1)
        self.step = _angle_step(grid_size)
        # Rows are depths: factors is the (D, 1) column of c = 2d + 1.
        self.factors = np.array([2.0 * d + 1.0 for d in depths]).reshape(-1, 1)
        p_lo, p_hi = _sin2_ranges(self.factors, self.edges, self.step)
        with np.errstate(divide="ignore"):
            self.log_p_lo, self.log_q_lo = np.log(p_lo), np.log1p(-p_lo)
            self.log_p_hi, self.log_q_hi = np.log(p_hi), np.log1p(-p_hi)
        block_bytes = 16 * max(1, len(depths)) * (width + 1)
        self.rows = lru_cache(maxsize=_ROW_CACHE_BYTES // block_bytes)(
            partial(_rows_of, self.factors, self.edges, self.step)
        )

    def bounds(self, hits: np.ndarray, misses: np.ndarray) -> np.ndarray:
        """Upper bound of the record's log-likelihood on each block.

        Per depth and block, ``f(clip(r, p_lo, p_hi))`` with ``r = h / n``.
        A monotone function commutes with min and max, so with numpy's
        ``log`` and ``log1p`` monotone the logs of the clipped value are the
        logs of ``r`` clipped to the block's cached edge logs, term for term
        (the tests hold this against logs of the clipped values). A run
        computes the logs of its D ratios only.
        """
        r = hits / (hits + misses)
        with np.errstate(divide="ignore"):
            log_r, log_1m_r = np.log(r), np.log1p(-r)
        log_p = np.minimum(np.maximum(log_r, self.log_p_lo), self.log_p_hi)
        log_q = np.maximum(np.minimum(log_1m_r, self.log_q_lo), self.log_q_hi)
        return _depth_terms(hits, misses, log_p, log_q).sum(axis=0)

    def evaluate(
        self, block: int, hits: np.ndarray, misses: np.ndarray
    ) -> tuple[int, float]:
        """First-maximum grid index and exact value within one block."""
        log_p, log_q = self.rows(block)
        # Reducing axis 0 of a C-ordered array adds the rows one by one,
        # so the depths are summed in ascending order.
        values = np.add.reduce(_depth_terms(hits, misses, log_p, log_q), axis=0)
        i = int(np.argmax(values))
        return int(self.edges[block]) + i, float(values[i])


@lru_cache(maxsize=3)
def _block_grid(depths: tuple[int, ...], grid_size: int) -> _BlockGrid:
    return _BlockGrid(depths, grid_size)


def grid_maximize(record: MeasurementRecord, grid_size: int) -> Estimate:
    """First maximizer of the record's log-likelihood over the angle grid."""
    grid = _block_grid(tuple(e.depth for e in record.entries), grid_size)
    hits = np.array([e.hits for e in record.entries], dtype=np.float64)
    misses = np.array([e.shots - e.hits for e in record.entries], dtype=np.float64)
    hits, misses = hits.reshape(-1, 1), misses.reshape(-1, 1)
    bounds = grid.bounds(hits, misses)
    first = int(np.argmax(bounds))
    idx, value = grid.evaluate(first, hits, misses)
    margin = _MARGIN * (abs(value) + sum(e.shots for e in record.entries))
    for block in np.flatnonzero(bounds >= value - margin).tolist():
        if block != first:
            i, v = grid.evaluate(block, hits, misses)
            if v > value or (v == value and i < idx):
                idx, value = i, v
    theta = idx * _angle_step(grid_size)
    return Estimate(theta, amplitude_from_angle(theta), idx, value, grid_size)


def run_mlqae(a_true: float, plan: Plan, seed: int) -> Estimate:
    """Draw one simulated record under ``plan`` and estimate the amplitude."""
    record = draw_record(a_true, plan.schedule, plan.n_shot, seed)
    return grid_maximize(record, plan.grid_size)
