"""Tests for the adaptive per-basic-window partition indexes.

Covers the layers of ``repro.core.windex``: the compatibility contract
(``check_index_compat``), the table lifecycle (build, delta-tail reuse,
rebuild triggers, freeze), probe pruning (candidate supersets), what a
hop is charged (against the pruned pool the kernel used to gather), and
the adaptive kind policy with hysteresis.  The closing class asserts the
headline correctness claim: an index switch mid-run is output-identical
— set *and* order — to running without an index.
"""

import random
from typing import Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.basic_windows import SCALAR, PartitionedWindow, WindowSlice
from repro.core.shredding import shredded_slices
from repro.core.windex import (
    ADAPTIVE,
    FLAT,
    HASH,
    RANGE,
    WindowIndexState,
    check_index_compat,
    make_index_states,
)
from repro.joins.mjoin import MJoinOperator
from repro.joins.predicates import EpsilonJoin, EquiJoin
from repro.streams import StreamTuple
from repro.testkit.workloads import zipf_key_workload


def tup(ts, value=None, seq=0, stream=0):
    return StreamTuple(
        value=float(ts) if value is None else float(value),
        timestamp=float(ts),
        stream=stream,
        seq=seq,
    )


def one_window():
    """A store whose rows all sit in the filling basic window (ring index
    0), store rows counting from 0 like a lone basic window's."""
    return PartitionedWindow(1e6, 1e6)


def append(bw, t):
    bw.insert(t, now=max(t.timestamp, bw.epoch_start))


def fill(bw, values, t0=0.0):
    for i, v in enumerate(values):
        append(bw, tup(t0 + 0.001 * i, value=v, seq=i))
    return bw


@pytest.fixture
def tune(monkeypatch):
    """``tune(name=value, ...)`` sets :class:`WindowIndexState`'s tuning
    constants for one test: hand-built windows hold tens of rows, not
    the hundreds the constants are sized for."""

    def apply(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(WindowIndexState, name, value)

    return apply


def hash_state(tune):
    tune(min_index_rows=8, n_partitions=16)
    return WindowIndexState(HASH, 0.0)


def range_state(tune, values):
    """A pinned-range state with sensor + boundaries derived from data."""
    tune(min_index_rows=8, n_partitions=8, min_samples=4, warmup=4)
    state = WindowIndexState(RANGE, 1.0)
    for v in values:
        state.observe(float(v))
    state.tick()
    assert state.active == RANGE
    return state


class TestCheckIndexCompat:
    def test_none_always_passes(self):
        assert check_index_compat(None, columnar_ok=False, radius=None) is None

    def test_unknown_spec_rejected(self):
        # FLAT names the inactive state, not a spec one can ask for
        for spec in ("btree", FLAT):
            with pytest.raises(ValueError, match="unknown index spec"):
                check_index_compat(spec, columnar_ok=True, radius=0.0)

    @pytest.mark.parametrize("spec", [HASH, RANGE, ADAPTIVE])
    def test_non_columnar_predicate_rejected(self, spec):
        with pytest.raises(ValueError, match="columnar-capable"):
            check_index_compat(spec, columnar_ok=False, radius=0.0)

    @pytest.mark.parametrize("radius", [None, 0.5])
    def test_hash_requires_equi(self, radius):
        with pytest.raises(ValueError, match="equi"):
            check_index_compat(HASH, columnar_ok=True, radius=radius)

    def test_valid_combinations_pass_through(self):
        assert check_index_compat(HASH, columnar_ok=True, radius=0.0) == HASH
        assert check_index_compat(RANGE, columnar_ok=True, radius=2.0) == RANGE
        assert (
            check_index_compat(ADAPTIVE, columnar_ok=True, radius=0.0)
            == ADAPTIVE
        )


class TestStateValidation:
    def test_negative_radius(self):
        with pytest.raises(ValueError, match="non-negative"):
            WindowIndexState(ADAPTIVE, -1.0)

    def test_make_index_states(self):
        assert make_index_states(None, 3, 0.0) is None
        states = make_index_states(ADAPTIVE, 3, None)
        assert len(states) == 3
        assert all(s.radius == 0.0 for s in states)
        assert len({id(s) for s in states}) == 3


class TestHashCodes:
    def test_scalar_matches_vectorized(self, tune):
        state = hash_state(tune)
        vals = np.array(
            [0.0, -0.0, 1.0, -1.5, 3.7e300, 5e-324, 42.0, np.pi]
        )
        codes = state._hash_codes(vals)
        for v, c in zip(vals, codes):
            assert state.hash_part(float(v)) == int(c)

    def test_negative_zero_canonicalized(self, tune):
        state = hash_state(tune)
        assert state.hash_part(-0.0) == state.hash_part(0.0)

    def test_codes_in_range(self, tune):
        state = hash_state(tune)
        rng = np.random.default_rng(3)
        codes = state._hash_codes(rng.normal(size=1000))
        assert codes.min() >= 0
        assert codes.max() < 16


class TestNarrowCodes:
    """A table is built from partition codes in the narrowest unsigned
    type (numpy radix-sorts those); its stable permutation, offsets and
    per-partition counts are the ones the ``intp`` codes give."""

    @pytest.mark.parametrize("n_partitions", [16, 256, 1024])
    def test_table_is_the_intp_table(self, tune, n_partitions):
        tune(min_index_rows=8, n_partitions=n_partitions)
        state = WindowIndexState(HASH, 0.0)
        rng = np.random.default_rng(n_partitions)
        vals = rng.integers(0, 3 * n_partitions, size=2400).astype(float)
        vals[::97] = np.nan
        table = state.table_for(fill(one_window(), vals), 0)
        codes = state._hash_codes(vals)
        order = np.argsort(codes, kind="stable")
        starts = np.searchsorted(codes[order], np.arange(n_partitions + 1))
        assert table.order.dtype == np.intp
        assert np.array_equal(table.order, order)
        assert table.starts == starts.tolist()
        assert table.counts.tolist() == np.diff(starts).tolist()
        assert table.nonempty_parts == np.count_nonzero(np.diff(starts))


class TestTableLifecycle:
    def test_small_window_not_indexed(self, tune):
        state = hash_state(tune)
        bw = fill(one_window(), range(5))
        assert state.table_for(bw, 0) is None
        assert (
            state.candidate_rows(WindowSlice(bw, 0, 5), 2.0, 2.0,
                                 keys=np.array([2.0]))
            is None
        )
        assert state.rebuilds == 0

    def test_build_partitions_are_correct_and_row_ordered(self, tune):
        state = hash_state(tune)
        rng = np.random.default_rng(7)
        vals = rng.integers(0, 40, size=200).astype(float)
        bw = fill(one_window(), vals)
        table = state.table_for(bw, 0)
        assert table.build_n == 200
        codes = state._hash_codes(vals)
        seen = []
        for p in range(table.n_parts):
            seg = table.order[table.starts[p]: table.starts[p + 1]]
            # every row in segment p hashes to p, in ascending row order
            assert (codes[seg] == p).all()
            assert (np.diff(seg) > 0).all() if len(seg) > 1 else True
            if len(seg):
                assert table.pmins[p] == vals[seg].min()
                assert table.pmaxs[p] == vals[seg].max()
            seen.extend(seg.tolist())
        assert sorted(seen) == list(range(200))

    def test_append_only_tail_reuses_table(self, tune):
        state = hash_state(tune)
        bw = fill(one_window(), range(200))
        table = state.table_for(bw, 0)
        assert state.rebuilds == 1
        for i in range(5):  # well under tail_max
            append(bw, tup(1.0 + i, value=500.0 + i, seq=300 + i))
        assert state.table_for(bw, 0) is table
        assert state.rebuilds == 1

    def test_large_tail_triggers_rebuild(self, tune):
        state = hash_state(tune)
        bw = fill(one_window(), range(200))
        first = state.table_for(bw, 0)
        # keep appending until the delta tail outgrows its tolerated
        # fraction of the (growing) window; the reuse rule must then
        # fold the tail into a fresh table exactly once
        second = first
        for i in range(200):
            append(bw, tup(1.0 + i, value=500.0 + i, seq=300 + i))
            second = state.table_for(bw, 0)
            if second is not first:
                break
        assert second is not first
        assert second.build_n == len(bw)
        assert state.rebuilds == 2

    def test_sorted_insert_breaks_reuse(self, tune):
        state = hash_state(tune)
        bw = fill(one_window(), range(100), t0=10.0)
        state.table_for(bw, 0)
        assert state.rebuilds == 1
        # a late arrival shifts existing rows: the cached row mapping is
        # stale even though only one row was added
        append(bw, tup(5.0, value=99.0, seq=999))
        table = state.table_for(bw, 0)
        assert table.build_n == 101
        assert state.rebuilds == 2

    def test_clear_breaks_reuse(self, tune):
        state = hash_state(tune)
        bw = fill(one_window(), range(100))
        state.table_for(bw, 0)
        bw.rotate_to(1e6)  # the window froze: ring index 1 now
        assert bw.evict_basic_window(1) == 100
        fill(bw, range(50))
        table = state.table_for(bw, 1)
        assert table.build_n == 50
        assert state.rebuilds == 2

    def test_mark_frozen_forces_one_tail_free_rebuild(self, tune):
        state = hash_state(tune)
        bw = fill(one_window(), range(100))
        state.table_for(bw, 0)
        append(bw, tup(1.0, value=7.0, seq=200))
        bw.windex = state
        bw.rotate_to(1e6)  # calls state.mark_frozen(bw)
        table = state.table_for(bw, 1)
        assert table.build_n == 101  # tail folded in
        assert state.rebuilds == 2
        # frozen window: the rebuilt table now lives forever
        assert state.table_for(bw, 1) is table

    def test_epoch_bump_invalidates(self, tune):
        tune(min_index_rows=8, n_partitions=16, min_samples=4, warmup=4,
             hysteresis=1)
        state = WindowIndexState(ADAPTIVE, 0.0)
        bw = fill(one_window(), range(100))
        for v in range(10):
            state.observe(float(v))
        state.tick()
        assert state.active == HASH
        first = state.table_for(bw, 0)
        state._switch(HASH)  # epoch moves even to the same kind
        assert state.table_for(bw, 0) is not first

    def test_epoch_switch_refetches_frozen_tables(self, tune):
        # a hash probe keeps the frozen windows' tables between probes;
        # after an epoch switch it must ask for (and rebuild) them again
        state = hash_state(tune)
        pw = PartitionedWindow(4.0, 1.0, index=state)
        for i in range(350):
            pw.insert(tup(0.01 * i, value=float(i % 5), seq=i), 0.01 * i)
        slices = pw.full_slices(3.5)
        total = sum(map(len, slices))
        charged = state.charge(slices, total, 2.0, 2.0, 2.0)
        # one table per window: ring indexes 3..1 frozen, 0 filling
        assert state.rebuilds == 4
        assert state.charge(slices, total, 2.0, 2.0, 2.0) == charged
        assert state.rebuilds == 4
        state._switch(HASH)
        assert state.charge(slices, total, 2.0, 2.0, 2.0) == charged
        assert state.rebuilds == 8


class TestCandidateRows:
    def _window_and_state(self, tune, n=300, n_keys=17, seed=11):
        rng = np.random.default_rng(seed)
        vals = rng.integers(0, n_keys, size=n).astype(float)
        bw = fill(one_window(), vals)
        return bw, vals, hash_state(tune)

    def test_hash_candidates_are_ascending_superset(self, tune):
        bw, vals, state = self._window_and_state(tune)
        for key in (0.0, 3.0, 16.0):
            rows = state.candidate_rows(
                WindowSlice(bw, 0, len(bw)), key, key,
                keys=np.array([key]),
            )
            assert (np.diff(rows) > 0).all()
            exact = np.flatnonzero(vals == key)
            assert set(exact).issubset(set(rows.tolist()))

    def test_slice_restriction(self, tune):
        bw, vals, state = self._window_and_state(tune)
        lo, hi = 50, 220
        rows = state.candidate_rows(
            WindowSlice(bw, lo, hi), 3.0, 3.0, keys=np.array([3.0])
        )
        assert ((rows >= lo) & (rows < hi)).all()
        exact = np.flatnonzero(vals[lo:hi] == 3.0) + lo
        assert set(exact).issubset(set(rows.tolist()))

    def test_delta_tail_always_candidate(self, tune):
        bw, vals, state = self._window_and_state(tune)
        state.table_for(bw, 0)
        append(bw, tup(1.0, value=1000.0, seq=999))  # matches nothing
        rows = state.candidate_rows(
            WindowSlice(bw, 0, len(bw)), 3.0, 3.0, keys=np.array([3.0])
        )
        assert rows[-1] == len(bw) - 1  # unpruned tail row

    def test_strided_slice_filter(self, tune):
        bw, vals, state = self._window_and_state(tune)
        sl = WindowSlice(bw, 10, 290, step=3)
        rows = state.candidate_rows(sl, 3.0, 3.0, keys=np.array([3.0]))
        assert ((rows - 10) % 3 == 0).all()
        exact = [
            i for i in range(10, 290, 3) if vals[i] == 3.0
        ]
        assert set(exact).issubset(set(rows.tolist()))

    def test_missing_key_prunes_everything(self, tune):
        # value never inserted and (by summaries) outside every bucket's
        # range — probes must come back empty without scanning
        bw = fill(one_window(), np.full(100, 5.0))
        state = hash_state(tune)
        rows = state.candidate_rows(
            WindowSlice(bw, 0, 100), 9e9, 9e9, keys=np.array([9e9])
        )
        assert len(rows) == 0
        assert state.partitions_scanned == 0

    def test_empty_slice(self, tune):
        bw, _vals, state = self._window_and_state(tune)
        rows = state.candidate_rows(
            WindowSlice(bw, 10, 10), 3.0, 3.0, keys=np.array([3.0])
        )
        assert len(rows) == 0

    def test_range_candidates_cover_interval(self, tune):
        rng = np.random.default_rng(23)
        vals = rng.uniform(0.0, 100.0, size=400)
        bw = fill(one_window(), vals)
        state = range_state(tune, vals)
        glo, ghi = 30.0, 34.0
        rows = state.candidate_rows(WindowSlice(bw, 0, 400), glo, ghi)
        assert (np.diff(rows) > 0).all()
        exact = np.flatnonzero((vals >= glo) & (vals <= ghi))
        assert set(exact).issubset(set(rows.tolist()))
        # and the point of the exercise: most rows were pruned
        assert len(rows) < 200

    def test_range_probe_parts_shared_across_slices(self, tune):
        rng = np.random.default_rng(29)
        vals = rng.uniform(0.0, 100.0, size=400)
        bw = fill(one_window(), vals)
        state = range_state(tune, vals)
        parts = state.probe_parts(10.0, 12.0)
        direct = state.candidate_rows(WindowSlice(bw, 0, 400), 10.0, 12.0)
        shared = state.candidate_rows(
            WindowSlice(bw, 0, 400), 10.0, 12.0, parts=parts
        )
        np.testing.assert_array_equal(direct, shared)


# ----------------------------------------------------------------------
# what a hop is charged, against the pruned pool it used to gather
# ----------------------------------------------------------------------

_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_IDX = np.empty(0, dtype=np.intp)


def _indexed_pool(
    state,
    slices: Sequence[WindowSlice],
    glo: float,
    ghi: float,
    v0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The columnar kernel's partition-pruned candidate pool for one hop,
    from when it scanned that pool instead of the slice view — kept as
    the reference :meth:`WindowIndexState.charge` must count
    (``len(pool)``).

    Returns ``(pool, sel)`` where ``pool`` holds the candidate values
    and ``sel`` their positions in the full pool the flat path would
    scan.  Candidates come back in ascending full-pool position
    (ascending rows within each slice, slices in order), so
    ``np.nonzero`` over the pruned mask enumerates hits in exactly the
    flat scan's order.  Pruning is lossless: the candidates are a
    superset of every row whose value falls in the union probe
    envelope ``[glo, ghi]`` (for hash indexes, of every row whose
    value equals the probe key — exact equi probes only, enforced at
    construction via ``check_index_compat``).
    """
    hashed = state.active == HASH
    if hashed:
        # radius == 0 here, so lo == vmax and hi == vmin: every partial
        # contains the probing tuple, and a partial only survives a hop
        # by extending with an exactly-equal value — so every live
        # partial's values all equal v0, the only possible probe key is
        # v0 itself, and its bucket can be resolved once.  The sole
        # degenerate case is a NaN probe value (no interval is ever
        # nonempty), caught by the self-inequality test.
        if v0 != v0:
            return _EMPTY_F64, _EMPTY_IDX
        part = state.hash_part(v0)
        parts = None  # lazily materialized for the strided general path
        glo = ghi = v0
    else:
        parts = state.probe_parts(glo, ghi)
    pool_parts = []
    sel_parts = []
    pos = 0
    for s in slices:
        if hashed and s.step == 1:
            _hash_bucket(state, s, part, pos, pool_parts, sel_parts)
        elif len(s):
            if parts is None:
                parts = np.array([part], dtype=np.intp)
            rows = state.candidate_rows(s, glo, ghi, parts=parts)
            if rows is None:
                # windows too small to index: the whole slice competes
                pool_parts.append(s.values)
                sel_parts.append(np.arange(pos, pos + len(s), dtype=np.intp))
            elif len(rows):
                pool_parts.append(s.store.values[rows])
                sel_parts.append(pos + (rows - s.lo) // s.step)
        pos += len(s)
    if not pool_parts:
        return _EMPTY_F64, _EMPTY_IDX
    if len(pool_parts) == 1:
        return pool_parts[0], sel_parts[0]
    return np.concatenate(pool_parts), np.concatenate(sel_parts)


def _hash_bucket(
    state,
    s: WindowSlice,
    part: int,
    pos: int,
    pool_parts: list[np.ndarray],
    sel_parts: list[np.ndarray],
) -> None:
    """One contiguous slice's candidates for an exact equi probe,
    appended to ``pool_parts`` / ``sel_parts`` (the reference's hash
    path; the bucket's values are gathered from the store, where the
    table used to carry them permuted into partition order)."""
    store = s.store
    values = store.values
    offset = pos - s.lo  # store row -> full-pool position
    scanned = pruned = 0
    for k, start, lo, hi in store.window_pieces(s.lo, s.hi):
        t = state.table_for(store, k)
        if t is None:
            # window too small to index: all of it competes
            pool_parts.append(values[lo:hi])
            sel_parts.append(
                np.arange(offset + lo, offset + hi, dtype=np.intp)
            )
            continue
        built = start + t.build_n
        a = t.starts[part]
        b = t.starts[part + 1]
        if b > a:
            # no (min, max)-summary test here: thousands of keys
            # share each bucket, so a nonempty bucket's value span
            # practically always covers the probe key and the test
            # would only add two scalar reads per window
            scanned += 1
            pruned += t.nonempty_parts - 1
            rows = t.order[a:b]
            vals = values[start + rows]
            if lo > start or hi < built:
                cut = slice(
                    int(np.searchsorted(rows, lo - start, "left")),
                    int(np.searchsorted(rows, min(hi, built) - start, "left")),
                )
                rows = rows[cut]
                vals = vals[cut]
            if len(rows):
                pool_parts.append(vals)
                sel_parts.append(rows + (offset + start))
        else:
            pruned += t.nonempty_parts
        if built < hi:
            # rows appended after the table build are always
            # candidates; they are contiguous, so views again
            tail_lo = max(lo, built)
            pool_parts.append(values[tail_lo:hi])
            sel_parts.append(
                np.arange(offset + tail_lo, offset + hi, dtype=np.intp)
            )
    state.partitions_scanned += scanned
    state.partitions_pruned += pruned


_NAN, _INF = float("nan"), float("inf")
#: hash-store values (``-0.0`` must share ``0.0``'s bucket) and probe
#: keys: stored ones, a NaN, the infinities and one never stored
_KEYS = [0.0, -0.0, 1.0, 2.0, 3.0, 5.0, 8.0]
_PROBE_KEYS = [0.0, 1.0, 3.0, 8.0, _NAN, _INF, -_INF, 999.0]
#: stored now and then by either kind: a NaN must not hide the values
#: sharing its partition, and an infinity matches an infinity
_NON_FINITE = [_NAN, _INF, -_INF]
_SEED = st.integers(0, 2**16)


def _stored_value(rng: random.Random, kind: str) -> float:
    if rng.random() < 0.1:
        return rng.choice(_NON_FINITE)
    if kind == HASH:
        return rng.choice(_KEYS)
    return round(rng.uniform(0.0, 10.0), 2)

#: store mutations and probes, replayed on twin stores
_CHARGE_OPS = st.lists(
    st.one_of(
        # in-order arrivals: (count, time step) — a small step keeps a
        # burst in one basic window (large, indexed), a big one spreads
        # it thin (windows too small to index); listed twice, arrivals
        # are the common case
        st.tuples(st.just("burst"), st.integers(1, 60),
                  st.sampled_from([0.002, 0.01, 0.03, 0.2]), _SEED),
        st.tuples(st.just("burst"), st.integers(1, 60),
                  st.sampled_from([0.002, 0.01, 0.03, 0.2]), _SEED),
        # a late arrival shifts rows inside the store
        st.tuples(st.just("late"), st.sampled_from([0.3, 1.0, 2.5]),
                  st.just(0), _SEED),
        # tuples stamped with the newest stored timestamp: in order, and
        # after a jump older than the filling window, so appended into a
        # frozen one with no generation moving
        st.tuples(st.just("stale"), st.integers(1, 30), st.just(0), _SEED),
        # 0, 1 and more than n + 1 rotations
        st.tuples(st.just("jump"), st.sampled_from([0.0, 1.0, 9.0]),
                  st.just(0), st.just(0)),
        st.tuples(st.just("evict"), st.sampled_from([1.0, 2.5]),
                  st.just(0), st.just(0)),
        st.tuples(st.just("evict_k"), st.integers(1, 4),
                  st.just(0), st.just(0)),
        st.tuples(st.just("probe"),
                  st.sampled_from(["full", "span", "strided", "pieces"]),
                  st.just(0), _SEED),
        st.tuples(st.just("probe"),
                  st.sampled_from(["full", "span", "strided", "pieces"]),
                  st.just(0), _SEED),
    ),
    min_size=4,
    max_size=40,
)


def _twin_store(kind: str) -> PartitionedWindow:
    if kind == HASH:
        state = WindowIndexState(HASH, 0.0)
    else:
        state = WindowIndexState(RANGE, 0.5)
        for v in np.linspace(0.0, 10.0, 16):
            state.observe(float(v))
        state.tick()
        assert state.active == RANGE
    return PartitionedWindow(4.0, 1.0, mode=SCALAR, index=state)


def _probe_slices(pw, how: str, rng: random.Random, now: float):
    """One hop's slice selection: a full probe, a harvested run, a
    shredded (strided) probe, or up to three arbitrary slices."""
    if how == "full":
        return pw.full_slices(now)
    if how == "span":
        j_lo = rng.randint(1, pw.n)
        return pw.logical_span_slices(
            j_lo, rng.randint(j_lo, pw.n), now, now - rng.choice([0.0, 0.4])
        )
    if how == "strided":
        return shredded_slices(pw, rng.choice([0.5, 0.34]), now)
    head, tail = pw.live_rows
    slices = []
    for _ in range(rng.randint(1, 3)):
        lo, hi = sorted(rng.randint(head, tail) for _ in range(2))
        slices.append(WindowSlice(pw, lo, hi, rng.choice([1, 1, 2, 3])))
    return slices


def _counters(state):
    return (state.partitions_scanned, state.partitions_pruned,
            state.rebuilds, state.switches)


class TestChargeMatchesPrunedPool:
    """``charge`` counts exactly the pool the kernel used to gather, and
    moves the partition counters by the same amounts — over twin stores
    that take the same inserts, in-order appends into frozen windows,
    late inserts, rotations, evictions and probes (so the same tables
    are built, reused and frozen), NaN and infinities stored among the
    values."""

    @pytest.mark.parametrize("kind", [HASH, RANGE])
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=_CHARGE_OPS)
    # the frozen windows' changes a hash probe must notice between two
    # probes (whose seeds draw finite keys): an in-order append into one
    # (4 windows of 1 s here) ...
    @example(ops=[("burst", 60, 0.01, 1), ("jump", 1.0, 0, 0),
                  ("probe", "full", 0, 2), ("stale", 20, 0, 3),
                  ("probe", "full", 0, 4), ("burst", 5, 0.01, 5),
                  ("probe", "full", 0, 6)])
    # ... and a late insert into one that a full probe covers whole
    @example(ops=[("burst", 90, 0.03, 1), ("burst", 10, 0.05, 2),
                  ("probe", "full", 0, 3), ("late", 1.0, 0, 4),
                  ("probe", "full", 0, 6)])
    def test_charge_is_the_pruned_pool_size(self, tune, kind, ops):
        tune(min_index_rows=8, n_partitions=16, min_samples=4, warmup=4)
        ref, new = _twin_store(kind), _twin_store(kind)
        now = newest = 0.0
        seq = 0
        for op, a, b, seed in ops:
            rng = random.Random(seed)
            if op == "burst":
                for _ in range(a):
                    now += b
                    value = _stored_value(rng, kind)
                    seq += 1
                    for pw in (ref, new):
                        pw.insert(tup(now, value=value, seq=seq), now)
                newest = now
            elif op == "late":
                seq += 1
                value = rng.choice(_KEYS) if kind == HASH else 4.5
                for pw in (ref, new):
                    pw.insert(tup(now - a, value=value, seq=seq), now)
            elif op == "stale":
                for _ in range(a):
                    value = _stored_value(rng, kind)
                    seq += 1
                    for pw in (ref, new):
                        pw.insert(tup(newest, value=value, seq=seq), now)
            elif op == "jump":
                now += a
                for pw in (ref, new):
                    pw.rotate_to(now)
            elif op == "evict":
                for pw in (ref, new):
                    pw.evict_older_than(a, now)
            elif op == "evict_k":
                for pw in (ref, new):
                    pw.rotate_to(now)
                    pw.evict_basic_window(a)
            else:
                key = rng.choice(_PROBE_KEYS)
                if kind == HASH:
                    glo = ghi = key
                else:
                    key = rng.uniform(-1.0, 11.0) if key == key else key
                    glo = key - rng.choice([0.0, 0.3, 1.5])
                    ghi = key + rng.choice([0.0, 0.3, 1.5])
                ref_slices = _probe_slices(ref, a, random.Random(seed), now)
                new_slices = _probe_slices(new, a, random.Random(seed), now)
                total = sum(map(len, new_slices))
                before = new.windex.rows_scanned, new.windex.rows_pruned
                pool, sel = _indexed_pool(
                    ref.windex, ref_slices, glo, ghi, key
                )
                charged = new.windex.charge(new_slices, total, glo, ghi, key)
                assert charged == len(pool)
                assert _counters(new.windex) == _counters(ref.windex)
                assert (new.windex.rows_scanned, new.windex.rows_pruned) == (
                    before[0] + charged, before[1] + total - charged
                )
                # lossless: every hit of the full scan was charged
                full = np.concatenate(
                    [_EMPTY_F64, *(s.values for s in ref_slices)]
                )
                hits = np.flatnonzero((full >= glo) & (full <= ghi))
                assert np.isin(hits, sel).all()


class TestPolicy:
    @pytest.fixture
    def adaptive(self, tune):
        def make(radius=0.0, **constants):
            tune(**{"min_samples": 8, "warmup": 8, "hysteresis": 2,
                    **constants})
            return WindowIndexState(ADAPTIVE, radius)

        return make

    def test_starts_flat_and_needs_sensor(self, adaptive):
        state = adaptive()
        assert state.active == FLAT
        assert state.needs_sensor
        assert not WindowIndexState(HASH, 0.0).needs_sensor
        assert WindowIndexState(RANGE, 1.0).needs_sensor

    def test_pinned_hash_active_immediately(self):
        assert WindowIndexState(HASH, 0.0).active == HASH

    def test_stays_flat_below_min_samples(self, adaptive):
        state = adaptive(min_samples=100)
        for v in range(20):
            state.observe(float(v))
        for _ in range(5):
            assert state.tick() == FLAT
        assert state.switches == 0

    def test_equi_switches_to_hash_after_hysteresis(self, adaptive):
        state = adaptive(radius=0.0, hysteresis=3)
        for v in range(16):
            state.observe(float(v))
        assert state.tick() == FLAT  # pending 1
        assert state.tick() == FLAT  # pending 2
        assert state.tick() == HASH  # pending 3 -> switch
        assert state.switches == 1

    def test_band_predicate_picks_range_when_selective(self, adaptive):
        # radius 1 over a 0..100 domain: envelope width 2 well under
        # span_ratio * span
        state = adaptive(radius=1.0, hysteresis=1)
        for v in np.linspace(0.0, 100.0, 64):
            state.observe(float(v))
        assert state.tick() == RANGE
        assert state._boundaries is not None

    def test_wide_band_stays_flat(self, adaptive):
        # radius 40 over a 0..100 domain: partitions can't prune an
        # envelope that wide, policy keeps the flat scan
        state = adaptive(radius=40.0, hysteresis=1)
        for v in np.linspace(0.0, 100.0, 64):
            state.observe(float(v))
        assert state.tick() == FLAT
        assert state.switches == 0

    def test_alternating_desire_never_switches(self, adaptive):
        # hysteresis is the anti-flap contract: a desired kind that
        # disagrees with the active one must persist for `hysteresis`
        # *consecutive* ticks; any tick that re-agrees resets the count
        state = adaptive(radius=0.0, hysteresis=2)
        for v in range(16):
            state.observe(float(v))
        flip = [HASH, FLAT] * 10
        state._decide = lambda: flip.pop(0)
        for _ in range(20):
            state.tick()
        assert state.active == FLAT
        assert state.switches == 0

    def test_pinned_range_waits_for_sensor(self, tune):
        tune(min_samples=8, warmup=8)
        state = WindowIndexState(RANGE, 1.0)
        assert state.tick() == FLAT  # no sensor yet
        for v in range(8):
            state.observe(float(v))
        assert state.tick() == RANGE
        assert state.switches == 1

    def test_ring_feeds_sensor_through_inserts(self, adaptive):
        state = adaptive(radius=0.0, hysteresis=1, min_samples=4, warmup=4)
        pw = PartitionedWindow(4.0, 1.0, index=state)
        for i in range(10):
            pw.insert(tup(0.1 * i, value=float(i % 3), seq=i), 0.1 * i)
        assert state.tick() == HASH


class TestOperatorEquivalence:
    """Mid-run index switches must be invisible in the output stream."""

    def _drive(self, workload, index):
        op = MJoinOperator(
            workload.predicate,
            workload.window_sizes,
            workload.basic,
            index=index,
        )
        tuples = sorted(
            (t for tr in workload.traces for t in tr.tuples),
            key=lambda t: (t.timestamp, t.stream, t.seq),
        )
        keys = []
        next_adapt = 2.0
        for t in tuples:
            while t.timestamp >= next_adapt:
                op.on_adapt(next_adapt, [], 2.0)
                next_adapt += 2.0
            for r in op.process(t, t.timestamp).outputs:
                keys.append(r.key())
        return keys, op

    @pytest.fixture(scope="class")
    def workload(self):
        # rate x basic must clear the default min_index_rows (256) or
        # the index never activates and these tests pass vacuously;
        # moderate skew keeps the equi output from exploding cubically
        return zipf_key_workload(
            seed=21, m=3, rate=300.0, duration=5.0, window=2.0,
            basic=1.0, n_keys=3000, alpha=0.8,
        )

    def test_adaptive_switch_matches_flat_scan(self, workload):
        flat_keys, _ = self._drive(workload, None)
        adaptive_keys, op = self._drive(workload, "adaptive")
        # the run is long enough that the policy actually switched —
        # otherwise this test would pass vacuously
        assert any(s.switches > 0 for s in op.windex_states)
        assert adaptive_keys == flat_keys

    def test_pinned_hash_matches_flat_scan(self, workload):
        flat_keys, _ = self._drive(workload, None)
        hash_keys, op = self._drive(workload, "hash")
        states = op.windex_states
        assert sum(s.rows_pruned for s in states) > 0
        assert hash_keys == flat_keys


class TestNonFiniteValues:
    """NaN and the infinities in the join column: no index kind may
    crash on them (the sensor skips them, during warm-up and after) or
    charge a hop less than its hits (a NaN shares a range partition with
    real values, whose summary must still cover them)."""

    @staticmethod
    def _tuples(seed=5, rate=300.0, duration=6.0, n_keys=2000):
        rng = random.Random(seed)
        tuples = []
        for stream in range(3):
            for i in range(int(rate * duration)):
                value = (rng.choice(_NON_FINITE) if rng.random() < 0.03
                         else float(rng.randrange(n_keys)))
                tuples.append(tup(i / rate + 0.001 * stream, value=value,
                                  seq=i, stream=stream))
        return sorted(tuples, key=lambda t: (t.timestamp, t.stream, t.seq))

    @staticmethod
    def _drive(tuples, predicate, index):
        op = MJoinOperator(predicate, [2.0] * 3, 1.0, index=index)
        keys = []
        next_adapt = 1.0
        for t in tuples:
            while t.timestamp >= next_adapt:
                op.on_adapt(next_adapt, [], 1.0)
                next_adapt += 1.0
            keys.extend(r.key() for r in op.process(t, t.timestamp).outputs)
        return keys, op

    @pytest.mark.parametrize("predicate, index, kind", [
        (EpsilonJoin(0.5), RANGE, RANGE),
        (EpsilonJoin(0.5), ADAPTIVE, RANGE),
        (EquiJoin(), ADAPTIVE, HASH),
    ])
    def test_same_output_as_no_index(self, tune, predicate, index, kind):
        # eight range partitions: the one a NaN lands in (the last) holds
        # an eighth of the keys, so a poisoned summary would lose results
        tune(min_index_rows=64, n_partitions=8)
        tuples = self._tuples()
        flat_keys, _ = self._drive(tuples, predicate, None)
        keys, op = self._drive(tuples, predicate, index)
        # not vacuous: the index was active and pruned
        assert all(s.active == kind for s in op.windex_states)
        assert sum(s.rows_pruned for s in op.windex_states) > 0
        assert keys == flat_keys


def _observe_per_insert(state: WindowIndexState, value: float) -> None:
    """The sensor as it was fed once per insert: skip a non-finite
    value, else add it to the histogram on its own, or to the warmup
    buffer until that holds ``warmup`` values."""
    if not np.isfinite(value):
        return
    if state.sensor is not None:
        state.sensor.add_many([value])
        return
    state._warm[state._warm_n] = value
    state._warm_n += 1
    if state._warm_n == len(state._warm):
        state._init_sensor()


#: sensor inputs: in the domain and NaN and the infinities, which the
#: warmup buffer takes to fix a domain; then finite values far outside
#: it too (their scaled positions pass int64)
_IN_DOMAIN = st.one_of(
    st.floats(-50.0, 50.0),
    st.sampled_from([_NAN, _INF, -_INF]),
    st.just("tick"),
)
_ANY_VALUE = st.one_of(
    _IN_DOMAIN,
    st.sampled_from([1e19, -1e19, 1e300, -1e300, 9.3e18]),
)


class TestPerTickFeed:
    """The sensor is fed once per tick, from the values queued since the
    last one, and ends each tick exactly as the per-insert feed left it:
    the same counts to the bit, total, kind decisions and range
    boundaries — with warmup-buffer crossings inside one tick, ticks at
    any point, non-finite and far out-of-domain values."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        spec=st.sampled_from([ADAPTIVE, RANGE]),
        radius=st.sampled_from([0.0, 0.5, 40.0]),
        warmup=st.sampled_from([4, 8, 16]),
        min_samples=st.sampled_from([2, 6, 12]),
        hysteresis=st.sampled_from([1, 2]),
        head=st.lists(_IN_DOMAIN, max_size=40),
        tail=st.lists(_ANY_VALUE, max_size=80),
    )
    def test_matches_per_insert_feed(self, tune, spec, radius, warmup,
                                     min_samples, hysteresis, head, tail):
        tune(warmup=warmup, min_samples=min_samples, hysteresis=hysteresis,
             n_partitions=16)
        per_tick = WindowIndexState(spec, radius)
        per_insert = WindowIndexState(spec, radius)
        for event in [*head, *tail, "tick"]:
            if event != "tick":
                per_tick.observe(event)
                _observe_per_insert(per_insert, event)
                continue
            assert per_tick.tick() == per_insert.tick()
            assert per_tick.feed == []
            assert per_tick._warm_n == per_insert._warm_n
            if per_insert.sensor is None:
                assert per_tick.sensor is None
            else:
                assert (per_tick.sensor.counts.tolist()
                        == per_insert.sensor.counts.tolist())
                assert per_tick.sensor.total == per_insert.sensor.total
            assert (per_tick.active, per_tick.switches) == (
                per_insert.active, per_insert.switches)
            if per_insert._boundaries is None:
                assert per_tick._boundaries is None
            else:
                assert (per_tick._boundaries.tolist()
                        == per_insert._boundaries.tolist())


class TestDefaultTuningBill:
    """What an adaptive index bills a run at the class's own tuning, as
    recorded numbers.  Outputs cannot catch a wrong charge (the index
    only prices hops), and :class:`TestChargeMatchesPrunedPool` runs at
    hand-sized tuning; here the basic windows hold 400 rows, so the
    filling window's tables are cached, reused with a delta tail and
    rebuilt, frozen windows are priced whole and cut at the edges, and
    the newest window passes through the too-small case after every
    rotation."""

    def test_bill_is_pinned(self):
        workload = zipf_key_workload(
            seed=3, m=3, rate=800.0, duration=3.0, window=2.0, basic=0.5,
            n_keys=200_000, alpha=0.5,
        )
        op = MJoinOperator(EquiJoin(), workload.window_sizes, workload.basic,
                           index="adaptive")
        tuples = sorted(
            (t for tr in workload.traces for t in tr.tuples),
            key=lambda t: (t.timestamp, t.stream, t.seq),
        )
        results = 0
        next_adapt = 0.5
        for t in tuples:
            while t.timestamp >= next_adapt:
                op.on_adapt(next_adapt, [], 0.5)
                next_adapt += 0.5
            results += len(op.process(t, t.timestamp).outputs)
        assert (len(tuples), results) == (7199, 35)
        assert op.comparisons_total == 1445327
        # (partitions scanned, pruned, rows scanned, pruned, rebuilds,
        # switches) per stream
        assert [
            (s.partitions_scanned, s.partitions_pruned, s.rows_scanned,
             s.rows_pruned, s.rebuilds, s.switches)
            for s in op.windex_states
        ] == [
            (1957, 486519, 81664, 946589, 14, 1),
            (7575, 1930051, 236143, 3460548, 16, 1),
            (4269, 1087262, 158739, 1974481, 16, 1),
        ]
        assert all(s.active == HASH for s in op.windex_states)
