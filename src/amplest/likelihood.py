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
into a two-level tree (:class:`_BlockTree`): about G^(1/3) top blocks,
each of about G^(1/3) leaves of about G^(1/3) columns, for G grid points.
Each depth's term is ``f(p) = h ln p + m ln(1 - p)`` at
``p = sin^2(c theta)`` (``c = 2d + 1``), and ``f`` is concave in ``p`` with
its maximum at ``p = h / n``. Over a block's columns ``p`` takes every value
in a range ``[p_lo, p_hi]`` per (depth, block): the two end values, widened
to 0 or 1 where the block holds an integer or half-integer
``c theta / pi``. The term is therefore bounded on the block by
``f(clip(h / n, p_lo, p_hi))``, and a block's bound is the sum over depths.
The logs of both range ends are kept, and since ``ln`` is increasing,
``ln clip(r, p_lo, p_hi) = clip(ln r, ln p_lo, ln p_hi)`` (and likewise for
``ln(1 - p)``, which decreases): each term is a choice among the kept edge
logs and the depth's peak ``h ln r + m ln(1 - r)``, ``r = h / n``, and a
bound pass takes logs of the D ratios only.

A run bounds the top blocks and visits them from the highest bound down
while the bound reaches the best value found less a float margin; in each
visited top block it bounds the leaves and evaluates them exactly in the
same way. This is branch and bound over an interval partition (Shubert,
SIAM J. Numer. Anal. 9, 1972; E. Hansen, *Global Optimization Using
Interval Analysis*, 1992). The top blocks' edge logs are built with the
tree; each top block's leaf edge logs and each leaf's ``ln p`` and
``ln(1 - p)`` rows are built on first use and kept in a
``functools.lru_cache`` of at most ``_ROW_CACHE_BYTES`` each, so a top
block or leaf visited again takes no ``sin`` or ``log``. Memory per tree is
O(D G^(1/3)) plus those caches, at any ``epsilon``.

Kernels work on the stacked (2D, n) ``[ln p; ln(1 - p)]`` limits and rows:
they multiply by the stacked counts ``[h; m]``, then set the rows whose
count is 0 to exactly 0, so a dropped ``0 * -inf`` never becomes NaN. A
column's value is ``sum_j (h_j ln p_j + m_j ln(1 - p_j))`` with the depths
added in ascending order and ``p_j = sin(c_j * theta) ** 2`` in float64, so
results do not depend on batching, block layout or thread count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache, partial

import numpy as np

from ._util import _MAX_EXACT, json_int
from .planner import Plan
from .sampler import MeasurementRecord, amplitude_from_angle, draw_record, good_prob

__all__ = [
    "Estimate",
    "depth_log_likelihood",
    "record_log_likelihood",
    "grid_maximize",
    "run_mlqae",
]

# A block is visited when its bound reaches the best value found less
# _MARGIN * (|best| + total shots): column values carry rounding errors of
# a few ulps of each term and of each count, far below this.
_MARGIN = 1e-9
# Each tree keeps the leaf edge logs of its recently visited top blocks,
# and the ln p and ln(1 - p) rows of its recently evaluated leaves, least
# recently used first out, in at most this many bytes each. That holds
# every top block and leaf of a 3000-point grid at d=16 and a few of a
# 300k-point grid at d=50; below one entry a cache holds none.
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
        return asdict(self)


def depth_log_likelihood(theta: float, depth: int, shots: int, hits: int) -> float:
    """Log-likelihood of ``hits`` good outcomes in ``shots`` at one depth."""
    shots = json_int(shots, "shots", 0)
    hits = json_int(hits, "hits", 0, shots)
    p = good_prob(theta, depth)
    ll = 0.0
    if hits > 0:
        ll += hits * math.log(p) if p > 0.0 else -math.inf
    if shots - hits > 0:
        ll += (shots - hits) * math.log1p(-p) if p < 1.0 else -math.inf
    return ll


def record_log_likelihood(theta: float, record: MeasurementRecord) -> float:
    """Combined log-likelihood of a record; -inf propagates through the sum."""
    return sum((depth_log_likelihood(theta, *e) for e in record.entries), 0.0)


def _angle_step(grid_size: int) -> float:
    """Angle between neighbouring points of a ``grid_size``-point grid."""
    return math.pi / 2.0 / (grid_size - 1)


def grid_angles(grid_size: int) -> np.ndarray:
    """``grid_size`` evenly spaced angles covering [0, pi/2] inclusive;
    ``grid_size`` is 2 to 2^53, so every ``index * step`` has an exact index."""
    grid_size = json_int(grid_size, "grid_size", 2, _MAX_EXACT)
    return np.arange(grid_size) * _angle_step(grid_size)


def _log_probs(angles: np.ndarray) -> np.ndarray:
    """Stacked ``[ln p; ln(1 - p)]`` for ``p = sin^2(angles)``; ``-inf`` stays."""
    p = np.sin(angles) ** 2
    with np.errstate(divide="ignore"):
        return np.concatenate((np.log(p), np.log1p(-p)))


def _depth_sum(terms: np.ndarray, zero: list[int]) -> np.ndarray:
    """``sum_j (terms[j] + terms[D + j])`` over depths ``j`` in ascending order.

    ``terms`` stacks the ``(2D, n)`` products ``[h ln p; m ln(1 - p)]`` and
    is overwritten: its rows whose count is 0 (``zero``) become exactly 0,
    so a dropped ``0 * -inf`` term never turns into NaN.
    """
    for row in zero:
        terms[row] = 0.0
    half = len(terms) // 2
    pairs = terms[:half] + terms[half:]
    if pairs.shape[1] > 1:
        # Reducing axis 0 of a C-ordered array adds the rows one by one.
        return np.add.reduce(pairs, 0)
    # A single column would be summed pairwise; Python's sum adds in order.
    return np.array([sum(pairs[:, 0].tolist(), 0.0)])


def _bounds(
    lo: np.ndarray,
    hi: np.ndarray,
    counts: np.ndarray,
    peak: np.ndarray,
    zero: list[int],
) -> np.ndarray:
    """Upper bound of the record's log-likelihood on each block of a level.

    Per depth and block, ``f(clip(r, p_lo, p_hi))`` with ``r = h / n``.
    A monotone function commutes with min and max, so with numpy's ``log``
    and ``log1p`` monotone the logs of the clipped value are the logs of
    ``r`` (``peak``) clipped into the block's edge logs ``[lo, hi]``, term
    for term (the tests hold this against logs of the clipped values).
    Callers silence numpy's invalid-value warning for ``0 * -inf``.
    """
    clipped = np.maximum(peak, lo)
    np.minimum(clipped, hi, out=clipped)
    clipped *= counts
    return _depth_sum(clipped, zero)


def _sin2_ranges(
    factors: np.ndarray, first: np.ndarray, last: np.ndarray, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """``[p_lo, p_hi]`` of ``sin^2(c theta)`` per depth (row) and block (column).

    Block ``k`` spans the angles of columns ``first[k]`` to ``last[k]``.
    """
    lo_angles, hi_angles = factors * (first * step), factors * (last * step)
    left, right = np.sin(lo_angles) ** 2, np.sin(hi_angles) ** 2
    # sin^2(pi x) is 0 at integer x and 1 at half-integer x.
    x_lo = lo_angles / math.pi - _EXTREMUM_SLACK
    x_hi = hi_angles / math.pi + _EXTREMUM_SLACK
    p_lo = np.where(np.floor(x_hi) >= x_lo, 0.0, np.minimum(left, right))
    p_hi = np.where(np.floor(x_hi - 0.5) >= x_lo - 0.5, 1.0, np.maximum(left, right))
    return p_lo, p_hi


def _log_limits(
    factors: np.ndarray, first: np.ndarray, last: np.ndarray, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked edge logs of each block's ``[p_lo, p_hi]``, read-only.

    ``lo = [ln p_lo; ln(1 - p_hi)]`` and ``hi = [ln p_hi; ln(1 - p_lo)]``:
    ``ln(1 - p)`` decreases, so its range ends swap.
    """
    p_lo, p_hi = _sin2_ranges(factors, first, last, step)
    with np.errstate(divide="ignore"):
        lo = np.concatenate((np.log(p_lo), np.log1p(-p_hi)))
        hi = np.concatenate((np.log(p_hi), np.log1p(-p_lo)))
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


def _spans(first: int, last: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last columns of blocks of ``width`` columns from ``first``.

    The final block runs to ``last`` inclusive, so it holds at least two
    columns and at most ``width + 1``.
    """
    starts = np.arange(first, last, width)
    return starts, np.append(starts[1:] - 1, last)


def _leaves_of(factors, step, first, last, width, top):
    """Edge logs of the leaves of one top block (see :class:`_BlockTree`)."""
    spans = _spans(int(first[top]), int(last[top]), width)
    return _log_limits(factors, *spans, step)


def _rows_of(factors, step, last, width, leaf):
    """Read-only stacked ``[ln p; ln(1 - p)]`` over one leaf's columns."""
    start = leaf * width
    stop = last + 1 if start + width >= last else start + width
    rows = _log_probs(factors * (np.arange(start, stop) * step))
    rows.flags.writeable = False  # a cached row is shared by every later call
    return rows


def _icbrt(n: int) -> int:
    """Largest integer whose cube is at most ``n >= 0``."""
    r = round(n ** (1.0 / 3.0))
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


class _BlockTree:
    """A two-level partition of the angle grid for one tuple of depths.

    Leaves of ``width = icbrt(G - 1) + 1`` columns tile the grid: leaf ``k``
    holds columns ``k * width`` to ``(k + 1) * width - 1``, and the last
    leaf runs to the final column ``G - 1``. Top block ``t`` groups leaves
    ``t * width`` to ``(t + 1) * width - 1``, so there are about
    ``G^(1/3)`` top blocks of ``G^(1/3)`` leaves each; it holds columns
    ``first[t]`` to ``last[t]``. Over a block's columns, depth ``j`` sees
    ``sin^2(c_j theta)`` span ``[p_lo, p_hi]`` (:func:`_sin2_ranges`), kept
    as stacked edge logs (:func:`_log_limits`): ``lo`` and ``hi`` for the
    top blocks, ``leaves(t)`` for the leaves of top block ``t``. ``leaves``
    and ``rows(k)``, leaf ``k``'s stacked ``[ln p; ln(1 - p)]``, are each
    cached in at most ``_ROW_CACHE_BYTES``, least recently used first out.
    The caches hold no reference to the tree, so a tree dropped from
    :func:`_block_tree` is freed at once.
    """

    def __init__(self, depths: tuple[int, ...], grid_size: int):
        self.width = _icbrt(grid_size - 1) + 1
        self.first, self.last = _spans(0, grid_size - 1, self.width**2)
        self.step = _angle_step(grid_size)
        # Rows are depths: factors is the (D, 1) column of c = 2d + 1.
        self.factors = np.array([2.0 * d + 1.0 for d in depths]).reshape(-1, 1)
        self.lo, self.hi = _log_limits(self.factors, self.first, self.last, self.step)
        # A stacked (2D, n) float64 array takes 16 D n bytes: a leaf's rows
        # have at most width + 1 columns, a top block's leaves' limits are
        # two arrays of at most width columns.
        depth_bytes = 16 * max(1, len(depths))
        limit_bytes = 2 * depth_bytes * self.width
        row_bytes = depth_bytes * (self.width + 1)
        self.leaves = lru_cache(maxsize=_ROW_CACHE_BYTES // limit_bytes)(
            partial(
                _leaves_of, self.factors, self.step, self.first, self.last, self.width
            )
        )
        self.rows = lru_cache(maxsize=_ROW_CACHE_BYTES // row_bytes)(
            partial(_rows_of, self.factors, self.step, grid_size - 1, self.width)
        )


@lru_cache(maxsize=3)
def _block_tree(depths: tuple[int, ...], grid_size: int) -> _BlockTree:
    return _BlockTree(depths, grid_size)


def _record_columns(shots: tuple[int, ...], hits: tuple[int, ...]):
    """Stacked counts ``[h; m]``, peaks ``[ln r; ln(1 - r)]`` at ``r = h / n``,
    and the rows whose count is 0.

    Callers silence numpy's divide-by-zero warning for ``ln 0``.
    """
    d = len(hits)
    counts = np.array(hits + shots, dtype=np.float64).reshape(-1, 1)
    r = counts[:d] / counts[d:]
    counts[d:] -= counts[:d]
    peak = np.concatenate((np.log(r), np.log1p(-r)))
    zero = [j for j, h in enumerate(hits) if h == 0]
    zero += [d + j for j, (n, h) in enumerate(zip(shots, hits)) if h == n]
    return counts, peak, zero


def _descending(bounds: np.ndarray):
    """Blocks ``(k, bound)`` from the highest bound down, stopping at ``-inf``.

    A bound of ``-inf`` means every column of the block is ``-inf``, which
    beats no best. ``bounds`` is overwritten as blocks are taken.
    """
    while True:
        k = int(bounds.argmax())
        bound = bounds.item(k)
        if bound == -math.inf:
            return
        bounds[k] = -math.inf
        yield k, bound


def grid_maximize(record: MeasurementRecord, grid_size: int) -> Estimate:
    """First maximizer of the record's log-likelihood over the angle grid.

    The kernels hold the counts and column indices as float64, exact because
    a :class:`MeasurementRecord` holds at most 2^53 shots at a depth and
    ``grid_size`` is 2 to 2^53; a larger grid is refused before any tree is
    built.
    """
    grid_size = json_int(grid_size, "grid_size", 2, _MAX_EXACT)
    depths, shots, hits = tuple(zip(*record.entries)) or ((), (), ())
    tree = _block_tree(depths, grid_size)
    width = tree.width
    # Column 0 at -inf is an exhaustive scan's answer when nothing beats it.
    idx, value, floor, total = 0, -math.inf, -math.inf, sum(shots)
    with np.errstate(divide="ignore", invalid="ignore"):
        counts, peak, zero = _record_columns(shots, hits)
        for top, bound in _descending(_bounds(tree.lo, tree.hi, counts, peak, zero)):
            if bound < floor:
                break
            leaf_bounds = _bounds(*tree.leaves(top), counts, peak, zero)
            for leaf, bound in _descending(leaf_bounds):
                if bound < floor:
                    break
                leaf += top * width
                values = _depth_sum(counts * tree.rows(leaf), zero)
                i = int(values.argmax())
                v, i = values.item(i), leaf * width + i
                # ties break toward the smaller index, as an exhaustive scan would
                if v > value or (v == value and i < idx):
                    idx, value = i, v
                    floor = v - _MARGIN * (abs(v) + total)
    theta = idx * _angle_step(grid_size)
    return Estimate(theta, amplitude_from_angle(theta), idx, value, grid_size)


def run_mlqae(a_true: float, plan: Plan, seed: int) -> Estimate:
    """Draw one simulated record under ``plan`` and estimate the amplitude."""
    record = draw_record(a_true, plan.schedule, plan.n_shot, seed)
    return grid_maximize(record, plan.grid_size)
