"""Tests for the adaptive per-basic-window partition indexes.

Covers the three layers of ``repro.core.windex``: the compatibility
contract (``check_index_compat``), the table lifecycle (build, delta-tail
reuse, rebuild triggers, freeze), probe pruning (candidate supersets in
flat-scan order), and the adaptive kind policy with hysteresis.  The
closing class asserts the headline correctness claim: an index switch
mid-run is output-identical — set *and* order — to running flat.
"""

import numpy as np
import pytest

from repro.core.basic_windows import PartitionedWindow, WindowSlice
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


def hash_state(**kwargs):
    kwargs.setdefault("min_index_rows", 8)
    kwargs.setdefault("n_partitions", 16)
    return WindowIndexState(HASH, 0.0, **kwargs)


def range_state(values, **kwargs):
    """A pinned-range state with sensor + boundaries derived from data."""
    kwargs.setdefault("min_index_rows", 8)
    kwargs.setdefault("n_partitions", 8)
    kwargs.setdefault("min_samples", 4)
    kwargs.setdefault("warmup", 4)
    state = WindowIndexState(RANGE, 1.0, **kwargs)
    for v in values:
        state.observe(float(v))
    state.tick()
    assert state.active == RANGE
    return state


class TestCheckIndexCompat:
    def test_none_and_flat_always_pass(self):
        assert check_index_compat(None, columnar_ok=False, radius=None) is None
        assert (
            check_index_compat(FLAT, columnar_ok=False, radius=None)
            == FLAT
        )

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown index spec"):
            check_index_compat("btree", columnar_ok=True, radius=0.0)

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
    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown index spec"):
            WindowIndexState("btree")

    @pytest.mark.parametrize("n", [0, 1, 3, 100])
    def test_partitions_must_be_power_of_two(self, n):
        with pytest.raises(ValueError, match="power of two"):
            WindowIndexState(HASH, 0.0, n_partitions=n)

    def test_negative_radius(self):
        with pytest.raises(ValueError, match="non-negative"):
            WindowIndexState(ADAPTIVE, -1.0)

    def test_hash_with_interval_radius(self):
        with pytest.raises(ValueError, match="equi"):
            WindowIndexState(HASH, 0.5)

    def test_hysteresis_and_warmup_floors(self):
        with pytest.raises(ValueError, match="hysteresis"):
            WindowIndexState(ADAPTIVE, 0.0, hysteresis=0)
        with pytest.raises(ValueError, match="warmup"):
            WindowIndexState(ADAPTIVE, 0.0, warmup=1)

    def test_make_index_states(self):
        assert make_index_states(None, 3, 0.0) is None
        states = make_index_states(ADAPTIVE, 3, None)
        assert len(states) == 3
        assert all(s.radius == 0.0 for s in states)
        assert len({id(s) for s in states}) == 3


class TestHashCodes:
    def test_scalar_matches_vectorized(self):
        state = hash_state()
        vals = np.array(
            [0.0, -0.0, 1.0, -1.5, 3.7e300, 5e-324, 42.0, np.pi]
        )
        codes = state._hash_codes(vals)
        for v, c in zip(vals, codes):
            assert state.hash_part(float(v)) == int(c)

    def test_negative_zero_canonicalized(self):
        state = hash_state()
        assert state.hash_part(-0.0) == state.hash_part(0.0)

    def test_codes_in_range(self):
        state = hash_state(n_partitions=16)
        rng = np.random.default_rng(3)
        codes = state._hash_codes(rng.normal(size=1000))
        assert codes.min() >= 0
        assert codes.max() < 16


class TestTableLifecycle:
    def test_small_window_not_indexed(self):
        state = hash_state(min_index_rows=8)
        bw = fill(one_window(), range(5))
        assert state.table_for(bw, 0) is None
        assert (
            state.candidate_rows(WindowSlice(bw, 0, 5), 2.0, 2.0,
                                 keys=np.array([2.0]))
            is None
        )
        assert state.rebuilds == 0

    def test_build_partitions_are_correct_and_row_ordered(self):
        state = hash_state(n_partitions=16)
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
                # ovals is the value column permuted into table order
                np.testing.assert_array_equal(
                    table.ovals[table.starts[p]: table.starts[p + 1]],
                    vals[seg],
                )
            seen.extend(seg.tolist())
        assert sorted(seen) == list(range(200))

    def test_append_only_tail_reuses_table(self):
        state = hash_state(min_index_rows=8)
        bw = fill(one_window(), range(200))
        table = state.table_for(bw, 0)
        assert state.rebuilds == 1
        for i in range(5):  # well under tail_max
            append(bw, tup(1.0 + i, value=500.0 + i, seq=300 + i))
        assert state.table_for(bw, 0) is table
        assert state.rebuilds == 1

    def test_large_tail_triggers_rebuild(self):
        state = hash_state(min_index_rows=8)
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

    def test_sorted_insert_breaks_reuse(self):
        state = hash_state(min_index_rows=8)
        bw = fill(one_window(), range(100), t0=10.0)
        state.table_for(bw, 0)
        assert state.rebuilds == 1
        # a late arrival shifts existing rows: the cached row mapping is
        # stale even though only one row was added
        append(bw, tup(5.0, value=99.0, seq=999))
        table = state.table_for(bw, 0)
        assert table.build_n == 101
        assert state.rebuilds == 2

    def test_clear_breaks_reuse(self):
        state = hash_state(min_index_rows=8)
        bw = fill(one_window(), range(100))
        state.table_for(bw, 0)
        bw.rotate_to(1e6)  # the window froze: ring index 1 now
        assert bw.evict_basic_window(1) == 100
        fill(bw, range(50))
        table = state.table_for(bw, 1)
        assert table.build_n == 50
        assert state.rebuilds == 2

    def test_mark_frozen_forces_one_tail_free_rebuild(self):
        state = hash_state(min_index_rows=8)
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

    def test_epoch_bump_invalidates(self):
        state = WindowIndexState(
            ADAPTIVE, 0.0, min_index_rows=8, n_partitions=16,
            min_samples=4, warmup=4, hysteresis=1,
        )
        bw = fill(one_window(), range(100))
        for v in range(10):
            state.observe(float(v))
        state.tick()
        assert state.active == HASH
        first = state.table_for(bw, 0)
        state._switch(HASH)  # epoch moves even to the same kind
        assert state.table_for(bw, 0) is not first

    def test_invalidate_drops_all(self):
        state = hash_state(min_index_rows=8)
        bw = fill(one_window(), range(100))
        state.table_for(bw, 0)
        state.invalidate()
        state.table_for(bw, 0)
        assert state.rebuilds == 2


class TestCandidateRows:
    def _window_and_state(self, n=300, n_keys=17, seed=11):
        rng = np.random.default_rng(seed)
        vals = rng.integers(0, n_keys, size=n).astype(float)
        bw = fill(one_window(), vals)
        return bw, vals, hash_state()

    def test_hash_candidates_are_ascending_superset(self):
        bw, vals, state = self._window_and_state()
        for key in (0.0, 3.0, 16.0):
            rows = state.candidate_rows(
                WindowSlice(bw, 0, len(bw)), key, key,
                keys=np.array([key]),
            )
            assert (np.diff(rows) > 0).all()
            exact = np.flatnonzero(vals == key)
            assert set(exact).issubset(set(rows.tolist()))

    def test_slice_restriction(self):
        bw, vals, state = self._window_and_state()
        lo, hi = 50, 220
        rows = state.candidate_rows(
            WindowSlice(bw, lo, hi), 3.0, 3.0, keys=np.array([3.0])
        )
        assert ((rows >= lo) & (rows < hi)).all()
        exact = np.flatnonzero(vals[lo:hi] == 3.0) + lo
        assert set(exact).issubset(set(rows.tolist()))

    def test_delta_tail_always_candidate(self):
        bw, vals, state = self._window_and_state()
        state.table_for(bw, 0)
        append(bw, tup(1.0, value=1000.0, seq=999))  # matches nothing
        rows = state.candidate_rows(
            WindowSlice(bw, 0, len(bw)), 3.0, 3.0, keys=np.array([3.0])
        )
        assert rows[-1] == len(bw) - 1  # unpruned tail row

    def test_strided_slice_filter(self):
        bw, vals, state = self._window_and_state()
        sl = WindowSlice(bw, 10, 290, step=3)
        rows = state.candidate_rows(sl, 3.0, 3.0, keys=np.array([3.0]))
        assert ((rows - 10) % 3 == 0).all()
        exact = [
            i for i in range(10, 290, 3) if vals[i] == 3.0
        ]
        assert set(exact).issubset(set(rows.tolist()))

    def test_missing_key_prunes_everything(self):
        # value never inserted and (by summaries) outside every bucket's
        # range — probes must come back empty without scanning
        bw = fill(one_window(), np.full(100, 5.0))
        state = hash_state()
        rows = state.candidate_rows(
            WindowSlice(bw, 0, 100), 9e9, 9e9, keys=np.array([9e9])
        )
        assert len(rows) == 0
        assert state.partitions_scanned == 0

    def test_empty_slice(self):
        bw, _vals, state = self._window_and_state()
        rows = state.candidate_rows(
            WindowSlice(bw, 10, 10), 3.0, 3.0, keys=np.array([3.0])
        )
        assert len(rows) == 0

    def test_range_candidates_cover_interval(self):
        rng = np.random.default_rng(23)
        vals = rng.uniform(0.0, 100.0, size=400)
        bw = fill(one_window(), vals)
        state = range_state(vals)
        glo, ghi = 30.0, 34.0
        rows = state.candidate_rows(WindowSlice(bw, 0, 400), glo, ghi)
        assert (np.diff(rows) > 0).all()
        exact = np.flatnonzero((vals >= glo) & (vals <= ghi))
        assert set(exact).issubset(set(rows.tolist()))
        # and the point of the exercise: most rows were pruned
        assert len(rows) < 200

    def test_range_probe_parts_shared_across_slices(self):
        rng = np.random.default_rng(29)
        vals = rng.uniform(0.0, 100.0, size=400)
        bw = fill(one_window(), vals)
        state = range_state(vals)
        parts = state.probe_parts(10.0, 12.0)
        direct = state.candidate_rows(WindowSlice(bw, 0, 400), 10.0, 12.0)
        shared = state.candidate_rows(
            WindowSlice(bw, 0, 400), 10.0, 12.0, parts=parts
        )
        np.testing.assert_array_equal(direct, shared)


class TestPolicy:
    def _adaptive(self, radius=0.0, **kwargs):
        kwargs.setdefault("min_samples", 8)
        kwargs.setdefault("warmup", 8)
        kwargs.setdefault("hysteresis", 2)
        return WindowIndexState(ADAPTIVE, radius, **kwargs)

    def test_starts_flat_and_needs_sensor(self):
        state = self._adaptive()
        assert state.active == FLAT
        assert state.needs_sensor
        assert not WindowIndexState(HASH, 0.0).needs_sensor
        assert not WindowIndexState(FLAT, 0.0).needs_sensor
        assert WindowIndexState(RANGE, 1.0).needs_sensor

    def test_pinned_hash_active_immediately(self):
        assert WindowIndexState(HASH, 0.0).active == HASH

    def test_stays_flat_below_min_samples(self):
        state = self._adaptive(min_samples=100)
        for v in range(20):
            state.observe(float(v))
        for _ in range(5):
            assert state.tick() == FLAT
        assert state.switches == 0

    def test_equi_switches_to_hash_after_hysteresis(self):
        state = self._adaptive(radius=0.0, hysteresis=3)
        for v in range(16):
            state.observe(float(v))
        assert state.tick() == FLAT  # pending 1
        assert state.tick() == FLAT  # pending 2
        assert state.tick() == HASH  # pending 3 -> switch
        assert state.switches == 1

    def test_band_predicate_picks_range_when_selective(self):
        # radius 1 over a 0..100 domain: envelope width 2 well under
        # span_ratio * span
        state = self._adaptive(radius=1.0, hysteresis=1)
        for v in np.linspace(0.0, 100.0, 64):
            state.observe(float(v))
        assert state.tick() == RANGE
        assert state._boundaries is not None

    def test_wide_band_stays_flat(self):
        # radius 40 over a 0..100 domain: partitions can't prune an
        # envelope that wide, policy keeps the flat scan
        state = self._adaptive(radius=40.0, hysteresis=1)
        for v in np.linspace(0.0, 100.0, 64):
            state.observe(float(v))
        assert state.tick() == FLAT
        assert state.switches == 0

    def test_alternating_desire_never_switches(self):
        # hysteresis is the anti-flap contract: a desired kind that
        # disagrees with the active one must persist for `hysteresis`
        # *consecutive* ticks; any tick that re-agrees resets the count
        state = self._adaptive(radius=0.0, hysteresis=2)
        for v in range(16):
            state.observe(float(v))
        flip = [HASH, FLAT] * 10
        state._decide = lambda: flip.pop(0)
        for _ in range(20):
            state.tick()
        assert state.active == FLAT
        assert state.switches == 0

    def test_pinned_range_waits_for_sensor(self):
        state = WindowIndexState(
            RANGE, 1.0, min_samples=8, warmup=8
        )
        assert state.tick() == FLAT  # no sensor yet
        for v in range(8):
            state.observe(float(v))
        assert state.tick() == RANGE
        assert state.switches == 1

    def test_ring_feeds_sensor_through_inserts(self):
        state = self._adaptive(radius=0.0, hysteresis=1, min_samples=4,
                               warmup=4)
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

    def test_pinned_flat_spec_is_inert(self, workload):
        flat_keys, _ = self._drive(workload, None)
        pinned_keys, op = self._drive(workload, "flat")
        assert all(s.rebuilds == 0 for s in op.windex_states)
        assert pinned_keys == flat_keys
