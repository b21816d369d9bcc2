import gc
import math
import random
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import amplest.likelihood as likelihood
from amplest.likelihood import (
    _MARGIN,
    _BlockTree,
    _block_tree,
    _bounds,
    _icbrt,
    _record_columns,
    _sin2_ranges,
    _spans,
    depth_log_likelihood,
    grid_angles,
    grid_maximize,
    record_log_likelihood,
    run_mlqae,
)
from amplest.planner import exceptional_values, make_plan
from amplest.rng import substream
from amplest.sampler import MeasurementRecord, RecordEntry, draw_record


def record(*entries) -> MeasurementRecord:
    return MeasurementRecord(tuple(RecordEntry(*e) for e in entries))


class TestDepthLogLikelihood:
    def test_zero_probability_with_no_hits_drops_term(self):
        assert depth_log_likelihood(0.0, 3, 10, 0) == 0.0

    def test_fair_coin(self):
        assert depth_log_likelihood(math.pi / 4, 0, 10, 5) == pytest.approx(
            10 * math.log(0.5), rel=1e-12
        )

    def test_impossible_outcome_is_minus_infinity(self):
        assert depth_log_likelihood(math.pi / 2, 0, 10, 9) == -math.inf
        assert depth_log_likelihood(0.0, 2, 10, 1) == -math.inf

    def test_hits_out_of_range(self):
        with pytest.raises(ValueError):
            depth_log_likelihood(0.5, 0, 10, 11)


class TestRecordLogLikelihood:
    def test_empty_record_is_flat(self):
        assert record_log_likelihood(0.7, MeasurementRecord(())) == 0.0

    def test_single_entry_matches_depth_form(self):
        rec = record((2, 20, 11))
        for theta in (0.1, 0.5, 1.2):
            assert record_log_likelihood(theta, rec) == depth_log_likelihood(
                theta, 2, 20, 11
            )

    def test_minus_infinity_propagates(self):
        rec = record((0, 10, 10), (1, 10, 5))
        assert record_log_likelihood(0.0, rec) == -math.inf

    def test_never_nan_at_large_shots(self):
        rec = record((0, 10**6, 0), (1, 10**6, 10**6), (5, 10**6, 123456))
        for theta in grid_angles(257):
            value = record_log_likelihood(float(theta), rec)
            assert not math.isnan(value)


class TestGridMaximize:
    def test_all_misses_pins_zero(self):
        est = grid_maximize(record((0, 100, 0)), 100)
        assert est.theta_hat == 0.0
        assert est.a_hat == 0.0
        assert est.grid_index == 0
        assert est.log_likelihood == 0.0

    def test_all_hits_pins_one(self):
        est = grid_maximize(record((0, 100, 100)), 100)
        assert est.a_hat == 1.0
        assert est.grid_index == 99

    def test_estimate_geometry(self):
        est = grid_maximize(record((0, 30, 17), (1, 30, 4)), 512)
        assert est.grid_size == 512
        assert est.theta_hat == est.grid_index * (math.pi / 2 / 511)
        assert est.a_hat == pytest.approx(math.sin(est.theta_hat) ** 2, abs=1e-15)

    def test_agrees_with_exhaustive_scalar_rescan(self):
        rng = substream(314)
        for trial in range(25):
            n_entries = int(rng.integers(1, 5))
            entries = []
            depth = 0
            for _ in range(n_entries):
                depth += int(rng.integers(0, 4))
                shots = int(rng.integers(1, 40))
                hits = int(rng.integers(0, shots + 1))
                entries.append((depth, shots, hits))
            rec = record(*entries)
            grid_size = int(rng.integers(2, 700))
            est = grid_maximize(rec, grid_size)
            values = [
                record_log_likelihood(float(t), rec) for t in grid_angles(grid_size)
            ]
            best = max(range(grid_size), key=lambda i: (values[i], -i))
            assert est.grid_index == best

    def test_exact_edge_records_agree_with_rescan(self):
        # hits == 0 and hits == shots entries drive the p in {0, 1} columns
        for rec in (
            record((0, 10, 0), (2, 10, 10)),
            record((0, 5, 5), (1, 7, 0), (3, 9, 9)),
        ):
            for grid_size in (2, 3, 11, 401):
                est = grid_maximize(rec, grid_size)
                values = [
                    record_log_likelihood(float(t), rec)
                    for t in grid_angles(grid_size)
                ]
                best = max(range(grid_size), key=lambda i: (values[i], -i))
                assert est.grid_index == best

    def test_depth_zero_estimate_tracks_hit_fraction(self):
        previous = -1.0
        for hits in range(0, 51):
            est = grid_maximize(record((0, 50, hits)), 101)
            assert est.a_hat >= previous
            previous = est.a_hat
            assert abs(est.a_hat - hits / 50) < 0.03

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            grid_maximize(record((0, 5, 3)), 1)


def exhaustive_values(rec: MeasurementRecord, thetas: np.ndarray) -> np.ndarray:
    """Every column's log-likelihood, one depth at a time in ascending order.

    The same float operations per column as the grid maximizer, so its
    first maximum must be the maximizer's answer exactly.
    """
    total = np.zeros(len(thetas))
    for e in rec.entries:
        p = np.sin((2.0 * e.depth + 1.0) * thetas) ** 2
        good, bad = np.zeros(len(thetas)), np.zeros(len(thetas))
        with np.errstate(divide="ignore"):
            if e.hits > 0:
                good = e.hits * np.log(p)
            if e.shots - e.hits > 0:
                bad = (e.shots - e.hits) * np.log1p(-p)
        total = total + (good + bad)
    return total


def assert_exhaustive_first_maximum(rec: MeasurementRecord, grid_size: int) -> None:
    values = exhaustive_values(rec, grid_angles(grid_size))
    best = int(np.argmax(values))
    est = grid_maximize(rec, grid_size)
    assert est.grid_index == best
    assert est.log_likelihood == values[best]


SLOW = [HealthCheck.too_slow]


@st.composite
def records(draw, max_depth: int = 60, max_shots: int = 2000) -> MeasurementRecord:
    """Records with all-hit, all-miss, empty and exceptional-amplitude cases."""
    count = draw(st.integers(0, 6))
    depths = sorted(
        draw(st.lists(st.integers(0, max_depth), min_size=count, max_size=count))
    )
    kind = draw(st.sampled_from(["any", "all_hit", "all_miss", "exceptional"]))
    if kind == "exceptional" and depths:
        k = draw(st.integers(0, 2 * depths[-1] + 1))
        a = exceptional_values(depths[-1])[k]
    else:
        a = draw(st.floats(0.0, 1.0))
    theta = math.asin(math.sqrt(a))
    entries = []
    for d in depths:
        shots = draw(st.integers(1, max_shots))
        if kind == "all_hit":
            hits = shots
        elif kind == "all_miss":
            hits = 0
        elif kind == "exceptional":
            hits = round(shots * math.sin((2 * d + 1) * theta) ** 2)
        else:
            hits = draw(st.integers(0, shots))
        entries.append(RecordEntry(d, shots, hits))
    return MeasurementRecord(tuple(entries))


@lru_cache(maxsize=None)
def depth50_plan(jittered: bool):
    return make_plan(1e-4, 0.01, 50, jittered=jittered, grid_multiplier=30.0)


@st.composite
def depth50_records(draw) -> MeasurementRecord:
    """d=50 region-scan records, plain or jittered: the k=50 band, all hit, all miss."""
    plan = depth50_plan(draw(st.booleans()))
    kind = draw(st.sampled_from(["band", "all_hit", "all_miss"]))
    if kind == "band":
        a = exceptional_values(50)[50] + draw(st.floats(-4e-4, 4e-4))
        return draw_record(a, plan.schedule, plan.n_shot, draw(st.integers(0, 2**31)))
    shots = plan.schedule.shots(plan.n_shot)
    return MeasurementRecord(
        tuple(
            RecordEntry(d, n, n if kind == "all_hit" else 0)
            for d, n in zip(plan.schedule.depths, shots)
        )
    )


class TestBlockMaximizer:
    """The block-tree maximizer against an exhaustive scan of every column."""

    @given(rec=records(), grid_size=st.integers(2, 700))
    @settings(max_examples=400, deadline=None, suppress_health_check=SLOW)
    def test_matches_exhaustive_scan(self, rec, grid_size):
        assert_exhaustive_first_maximum(rec, grid_size)

    @given(rec=records(max_depth=8, max_shots=10**7), grid_size=st.integers(2, 3000))
    @settings(max_examples=200, deadline=None, suppress_health_check=SLOW)
    def test_matches_exhaustive_scan_at_large_counts(self, rec, grid_size):
        assert_exhaustive_first_maximum(rec, grid_size)

    @given(rec=depth50_records(), grid_size=st.sampled_from([2, 3, 101, 299_993]))
    @settings(max_examples=60, deadline=None, suppress_health_check=SLOW)
    def test_matches_exhaustive_scan_at_depth_50(self, rec, grid_size):
        # 299993 is prime: its last top block (3718 columns) and last leaf
        # (33 columns) are short; 101 ends in a leaf of width + 1 columns
        assert_exhaustive_first_maximum(rec, grid_size)

    @given(rec=records(), grid_size=st.integers(2, 400))
    @settings(max_examples=200, deadline=None, suppress_health_check=SLOW)
    def test_block_bounds_cover_every_column(self, rec, grid_size):
        # the scalar reference, column by column, on both levels; the bound
        # may fall short of a column only by the maximizer's float margin
        tree = _BlockTree(tuple(e.depth for e in rec.entries), grid_size)
        thetas = grid_angles(grid_size)
        shots = sum(e.shots for e in rec.entries)
        for lo, hi, first, last in levels(tree):
            for k, bound in enumerate(level_bounds(lo, hi, rec)):
                columns = thetas[first[k] : last[k] + 1].tolist()
                best = max(record_log_likelihood(theta, rec) for theta in columns)
                assert bound >= best - _MARGIN * (abs(best) + shots)

    @pytest.mark.parametrize(
        "grid_size", [2, 3, 4, 5, 9, 10, 17, 26, 28, 101, 700, 3000, 299_993]
    )
    def test_leaves_tile_the_grid(self, grid_size):
        # each column in exactly one leaf, in order; top block t holds
        # leaves t * width onwards; at most width blocks on each level
        tree = _BlockTree((0, 3), grid_size)
        width = tree.width
        assert (width - 1) ** 3 <= grid_size - 1 < width**3
        assert len(tree.first) <= width
        assert tree.first[0] == 0 and tree.last[-1] == grid_size - 1
        assert np.array_equal(tree.first[1:], tree.last[:-1] + 1)
        leaf = 0
        for t in range(len(tree.first)):
            assert leaf == t * width
            first, last = _spans(int(tree.first[t]), int(tree.last[t]), width)
            assert first[0] == tree.first[t] and last[-1] == tree.last[t]
            assert len(first) <= width and (last >= first + 1).all()
            assert tree.leaves(t)[0].shape == (4, len(first))
            for a, b in zip(first.tolist(), last.tolist()):
                assert a == leaf * width
                assert tree.rows(leaf).shape == (4, b - a + 1)
                leaf += 1
        assert (leaf - 1) * width < grid_size - 1 <= leaf * width

    @pytest.mark.parametrize("grid_size", [2, 3, 4, 5, 10, 17, 66, 101, 700])
    def test_degenerate_records(self, grid_size):
        for rec in (
            MeasurementRecord(()),
            record((0, 9, 4)),
            record((0, 10, 0), (3, 10, 10)),
            record((1, 3, 3), (1, 3, 0)),
            record((0, 1, 1), (2, 1, 0), (5, 1, 1)),
        ):
            assert_exhaustive_first_maximum(rec, grid_size)

    @pytest.mark.parametrize("jittered", [False, True])
    def test_depth50_records(self, jittered):
        # the exceptional-region setting: d=50, epsilon=1e-4, grid x30
        plan = make_plan(1e-4, 0.01, 50, jittered=jittered, grid_multiplier=30.0)
        center = exceptional_values(50)[50]
        for i, a in enumerate((center, center + 1e-4, 0.3, 1.0)):
            rec = draw_record(a, plan.schedule, plan.n_shot, 11 + i)
            assert_exhaustive_first_maximum(rec, plan.grid_size)

    @pytest.mark.parametrize("jittered", [False, True])
    def test_hundred_million_point_grid_stays_small(self, jittered):
        plan = make_plan(1e-4, 0.01, 50, jittered=jittered)
        rec = draw_record(0.3, plan.schedule, plan.n_shot, 5)
        grid_size = 10**8
        _block_tree.cache_clear()
        tracemalloc.start()
        try:
            est = grid_maximize(rec, grid_size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _block_tree.cache_clear()
        assert peak < 8 * 2**20
        assert abs(est.a_hat - 0.3) < 1e-3
        # the maximum holds on a window of 20001 columns around it
        step = math.pi / 2 / (grid_size - 1)
        lo = est.grid_index - 10_000
        window = exhaustive_values(rec, np.arange(lo, lo + 20_001) * step)
        assert int(np.argmax(window)) == 10_000
        assert est.log_likelihood == window[10_000]


def columns_of(rec: MeasurementRecord):
    """The maximizer's stacked counts, peak logs and zero-count rows."""
    with np.errstate(divide="ignore"):
        return _record_columns(
            tuple(e.shots for e in rec.entries), tuple(e.hits for e in rec.entries)
        )


def levels(tree: _BlockTree):
    """``(lo, hi, first, last)`` of the top level, then of each top block's leaves."""
    yield tree.lo, tree.hi, tree.first, tree.last
    for t in range(len(tree.first)):
        first, last = _spans(int(tree.first[t]), int(tree.last[t]), tree.width)
        yield *tree.leaves(t), first, last


def level_bounds(lo: np.ndarray, hi: np.ndarray, rec: MeasurementRecord) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return _bounds(lo, hi, *columns_of(rec))


def clip_and_log_bounds(
    tree: _BlockTree, first: np.ndarray, last: np.ndarray, rec: MeasurementRecord
) -> np.ndarray:
    """The block bound as sum_j f_j(clip(h_j / n_j, p_lo, p_hi)), logs of the clip.

    The reference for the maximizer's bound pass on one level: logs are
    taken of every clipped value, zero counts drop out, and depths are added
    in order.
    """
    hits, misses = count_columns(rec)
    p_lo, p_hi = _sin2_ranges(tree.factors, first, last, tree.step)
    p = np.clip(hits / (hits + misses), p_lo, p_hi)
    total = np.zeros(p.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(p.shape[0]):
            good = np.where(hits[j] > 0, hits[j] * np.log(p[j]), 0.0)
            bad = np.where(misses[j] > 0, misses[j] * np.log1p(-p[j]), 0.0)
            total = total + (good + bad)
    return total


def count_columns(rec: MeasurementRecord) -> tuple[np.ndarray, np.ndarray]:
    hits = [e.hits for e in rec.entries]
    misses = [e.shots - e.hits for e in rec.entries]
    return (
        np.array(hits, dtype=np.float64).reshape(-1, 1),
        np.array(misses, dtype=np.float64).reshape(-1, 1),
    )


def entry_bytes(tree: _BlockTree) -> tuple[int, int]:
    """Bytes of the widest entry of ``rows`` and of ``leaves``.

    A leaf's stacked rows hold 2D rows of at most ``width + 1`` columns; a
    top block's leaf limits hold two 2D-row arrays of at most ``width``.
    """
    depths = max(1, tree.factors.size)
    return 16 * depths * (tree.width + 1), 32 * depths * tree.width


def cached_bytes(tree: _BlockTree) -> tuple[int, int]:
    """Bytes ``rows`` and ``leaves`` may hold: entries at the widest size."""
    row_bytes, leaf_bytes = entry_bytes(tree)
    return (
        tree.rows.cache_info().currsize * row_bytes,
        tree.leaves.cache_info().currsize * leaf_bytes,
    )


@pytest.fixture
def fresh_grids():
    """Trees built inside the test, with the cache budget it sets."""
    _block_tree.cache_clear()
    yield
    _block_tree.cache_clear()


def spread_records(count: int, seed: int) -> tuple[list[MeasurementRecord], int]:
    """Records of one d=16 jittered plan at amplitudes all over [0, 1]."""
    plan = make_plan(1e-3, 0.01, 16, jittered=True)
    amplitudes = [0.0, 1.0, *exceptional_values(16)[1:6]]
    amplitudes += [float(a) for a in substream(seed).uniform(0, 1, count - 7)]
    recs = [
        draw_record(a, plan.schedule, plan.n_shot, seed + i)
        for i, a in enumerate(amplitudes)
    ]
    return recs, plan.grid_size


def exact_icbrt(n: int) -> int:
    """Largest integer whose cube is at most ``n``, by integer bisection."""
    lo, hi = 0, 1
    while hi**3 <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**3 <= n else (lo, mid)
    return lo


class TestIcbrt:
    @pytest.mark.parametrize("k", [10**5, 10**15, 10**20])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_matches_integer_bisection(self, k, offset):
        # at k = 1e15 and 1e20 round(n ** (1/3)) falls below the answer and
        # the upward loop runs; at k = 1e5 only the downward loop does
        n = k**3 + offset
        assert _icbrt(n) == exact_icbrt(n) == k - (offset < 0)


class TestCachedBoundsAndRows:
    """Both bound passes over cached edge logs, and the caches of leaves and rows."""

    @given(
        rec=st.one_of(records(), records(max_depth=0)),
        grid_size=st.integers(2, 700),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=SLOW)
    def test_bounds_equal_clip_and_log(self, rec, grid_size):
        tree = _BlockTree(tuple(e.depth for e in rec.entries), grid_size)
        for lo, hi, first, last in levels(tree):
            expected = clip_and_log_bounds(tree, first, last, rec)
            assert np.array_equal(level_bounds(lo, hi, rec), expected)

    @given(rec=depth50_records(), grid_size=st.sampled_from([2, 3, 101, 299_993]))
    @settings(max_examples=30, deadline=None, suppress_health_check=SLOW)
    def test_bounds_equal_clip_and_log_at_depth_50(self, rec, grid_size):
        # up to 27 depths, so one-block levels (G = 2, 3) sum over many rows
        tree = _BlockTree(tuple(e.depth for e in rec.entries), grid_size)
        for lo, hi, first, last in levels(tree):
            expected = clip_and_log_bounds(tree, first, last, rec)
            assert np.array_equal(level_bounds(lo, hi, rec), expected)

    @pytest.mark.parametrize("grid_size", [2, 5, 66, 700, 3001])
    @pytest.mark.parametrize(
        "rec",
        [
            record((0, 10, 0), (0, 7, 7), (0, 9, 4)),
            record((0, 10, 10), (1, 10, 10), (4, 10, 10)),
            record((0, 10, 0), (1, 10, 0), (4, 10, 0)),
            record((0, 100, 25), (1, 100, 0), (3, 100, 100), (16, 100, 50)),
        ],
    )
    def test_bounds_equal_clip_and_log_at_exact_edges(self, rec, grid_size):
        # every grid has p_lo = 0 cells (theta = 0) and p_hi = 1 cells
        # (theta = pi/2) on both levels; zero hits or misses drop terms there
        tree = _BlockTree(tuple(e.depth for e in rec.entries), grid_size)
        exact = []
        for lo, hi, first, last in levels(tree):
            p_lo, p_hi = _sin2_ranges(tree.factors, first, last, tree.step)
            exact.append(((p_lo == 0.0).any(), (p_hi == 1.0).any()))
            expected = clip_and_log_bounds(tree, first, last, rec)
            assert np.array_equal(level_bounds(lo, hi, rec), expected)
        # the top level, and the leaves of the first and of the last top block
        assert exact[0] == (True, True)
        assert exact[1][0] and exact[-1][1]

    @pytest.mark.parametrize("budget", ["default", "one block", "last block", "none"])
    def test_any_order_and_budget_give_the_same_estimates(
        self, budget, monkeypatch, fresh_grids
    ):
        # 3000 columns: 14 top blocks of 15 leaves of 15 columns, the last
        # top block 5 leaves; each cache holds as many entries of the widest
        # size (16 columns of rows, 15 leaves of limits) as fit in the budget
        recs, grid_size = spread_records(80, 21)
        in_order = [grid_maximize(rec, grid_size) for rec in recs]
        row_bytes, leaf_bytes = entry_bytes(
            _BlockTree(tuple(e.depth for e in recs[0].entries), grid_size)
        )
        limit = {
            "default": likelihood._ROW_CACHE_BYTES,
            # fits one widest leaf's limits and one widest leaf's rows
            "one block": leaf_bytes,
            # fits the last leaf's rows, 15 columns, not the widest's 16
            "last block": 15 * row_bytes // 16,
            "none": 14 * row_bytes // 16,
        }[budget]
        monkeypatch.setattr(likelihood, "_ROW_CACHE_BYTES", limit)
        _block_tree.cache_clear()
        tree = _block_tree(tuple(e.depth for e in recs[0].entries), grid_size)
        order = list(range(len(recs)))
        random.Random(5).shuffle(order)
        for i in order:
            assert grid_maximize(recs[i], grid_size) == in_order[i]
            assert max(cached_bytes(tree)) <= limit
        held = (tree.rows.cache_info().currsize, tree.leaves.cache_info().currsize)
        assert {
            "default": min(held) > 1,
            "one block": held == (1, 1),
            # below the widest entry's size nothing is cached
            "last block": held == (0, 0),
            "none": held == (0, 0),
        }[budget]

    @pytest.mark.parametrize(
        "max_depth, epsilon, jittered, multiplier, leaves",
        [
            (16, 1e-3, False, 3.0, "all"),
            (16, 1e-3, True, 3.0, "all"),
            (50, 1e-4, True, 30.0, 2),
            # G = 6e6: the old sqrt(G)-wide blocks were too wide to cache
            (50, 5e-6, True, 30.0, 1),
        ],
    )
    def test_benchmark_grids_keep_their_hot_blocks(
        self, max_depth, epsilon, jittered, multiplier, leaves
    ):
        # sweep and curve runs at d=16 (G = 3000) revisit every leaf; a
        # d=50 region scan (G = 300000) revisits the two around its band
        plan = make_plan(
            epsilon, 0.01, max_depth, jittered=jittered, grid_multiplier=multiplier
        )
        tree = _BlockTree(plan.schedule.depths, plan.grid_size)
        tops = len(tree.first)
        if leaves == "all":
            assert tree.leaves.cache_info().maxsize >= tops
            assert tree.rows.cache_info().maxsize * tree.width >= plan.grid_size
        else:
            assert tree.leaves.cache_info().maxsize >= leaves
            assert tree.rows.cache_info().maxsize >= leaves

    def test_cached_rows_take_no_sin_or_log(self, monkeypatch, fresh_grids):
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)

            return call

        for name in ("_log_probs", "_log_limits"):
            wrapped = counted(name, getattr(likelihood, name))
            monkeypatch.setattr(likelihood, name, wrapped)
        plan = make_plan(1e-4, 0.01, 50, jittered=True, grid_multiplier=30.0)
        rec = draw_record(0.3, plan.schedule, plan.n_shot, 1)
        estimate = grid_maximize(rec, plan.grid_size)
        computed = len(calls)
        # the top level, at least one top block's leaves and one leaf's rows
        assert calls.count("_log_limits") >= 2 and "_log_probs" in calls
        assert grid_maximize(rec, plan.grid_size) == estimate
        assert len(calls) == computed

    def test_empty_record_bounds_no_block(self, monkeypatch, fresh_grids):
        # every column of a flat likelihood is 0, so every bound equals the
        # best value and a search would bound every block of the grid
        calls = []

        def counted(*args):
            calls.append(args)
            return _bounds(*args)

        monkeypatch.setattr(likelihood, "_bounds", counted)
        estimate = grid_maximize(MeasurementRecord(()), 10**6)
        assert calls == [] and _block_tree.cache_info().currsize == 0
        assert (estimate.grid_index, estimate.log_likelihood) == (0, 0.0)
        assert (estimate.theta_hat, estimate.a_hat) == (0.0, 0.0)

    def test_rows_are_read_only(self, fresh_grids):
        rec = record((0, 10, 4), (2, 10, 7))
        grid_maximize(rec, 101)
        tree = _block_tree((0, 2), 101)
        assert tree.rows.cache_info().currsize >= 1
        assert tree.leaves.cache_info().currsize >= 1
        arrays = [tree.lo, tree.hi]
        for t in range(len(tree.first)):
            arrays += tree.leaves(t)
        for leaf in range(-(-100 // tree.width)):
            arrays.append(tree.rows(leaf))
        for array in arrays:
            with pytest.raises(ValueError):
                array[0, 0] = 0.0

    def test_dropped_grid_is_freed_without_the_gc(self):
        # the caches refer to the tree's arrays, not to the tree
        tree = _BlockTree((0, 1, 2), 101)
        tree.leaves(0)
        tree.rows(0)
        ref = weakref.ref(tree)
        gc.disable()
        try:
            del tree
            assert ref() is None
        finally:
            gc.enable()

    def test_threads_share_one_grid(self, monkeypatch, fresh_grids):
        # more threads than cores on one tree whose caches hold one entry
        # each, so that threads evict each other's leaves and rows
        recs, grid_size = spread_records(96, 33)
        serial = [grid_maximize(rec, grid_size) for rec in recs]
        depths = tuple(e.depth for e in recs[0].entries)
        budget = entry_bytes(_BlockTree(depths, grid_size))[1]
        monkeypatch.setattr(likelihood, "_ROW_CACHE_BYTES", budget)
        _block_tree.cache_clear()
        tree = _block_tree(depths, grid_size)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(grid_maximize, rec, grid_size) for rec in recs * 4
                ]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 4
        assert tree.rows.cache_info().currsize == 1
        assert tree.leaves.cache_info().currsize == 1
        assert max(cached_bytes(tree)) <= budget


class TestRunMlqae:
    def test_endpoints_recovered_exactly(self):
        plan = make_plan(1e-3, 0.01, 16)
        assert run_mlqae(0.0, plan, 5).a_hat == 0.0
        assert run_mlqae(1.0, plan, 5).a_hat == 1.0

    def test_deterministic(self):
        plan = make_plan(1e-3, 0.01, 16)
        first = run_mlqae(0.37, plan, 99)
        assert run_mlqae(0.37, plan, 99) == first

    @pytest.mark.parametrize("a_true", [0.3, 0.5])
    def test_typical_amplitude_hits_target_precision(self, a_true):
        plan = make_plan(1e-3, 0.01, 16)
        within = sum(
            1
            for seed in range(1000)
            if abs(run_mlqae(a_true, plan, seed).a_hat - a_true) <= 1e-3
        )
        assert within >= 990

    def test_serialization(self):
        est = run_mlqae(0.25, make_plan(1e-2, 0.05, 4), 3)
        data = est.to_dict()
        assert set(data) == {
            "theta_hat",
            "a_hat",
            "grid_index",
            "log_likelihood",
            "grid_size",
        }
        assert data["a_hat"] == est.a_hat
