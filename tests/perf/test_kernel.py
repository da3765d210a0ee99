"""Bit-identity of the columnar probe kernel against the reference pipeline.

Every test drives :func:`run_pipeline` and :func:`run_pipeline_columnar`
over identical inputs and asserts *exact* equality: same comparison count,
same per-hop scanned/matched, same outputs in the same order (by
constituent identity).  Wall-clock is the only thing allowed to differ.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.basic_windows import SCALAR, PartitionedWindow, WindowSlice
from repro.core.shredding import shred_slices_for_hop
from repro.core.windex import HASH, RANGE, WindowIndexState
from repro.joins.columnar import (
    ResultBlock,
    run_pipeline_columnar,
    select_kernel,
    supports_columnar,
)
from repro.joins.per_pair import PerPairPredicate
from repro.joins.pipeline import merge_slices, run_pipeline
from repro.joins.predicates import (
    BandJoin,
    EpsilonJoin,
    EquiJoin,
    JaccardJoin,
    ThetaJoin,
)
from repro.streams.tuples import StreamTuple


def build_windows(
    seed: int,
    m: int = 3,
    per_stream: int = 120,
    window: float = 6.0,
    basic: float = 1.5,
    value_span: float = 8.0,
    now: float = 10.0,
):
    rng = random.Random(seed)
    windows = [
        PartitionedWindow(window, basic, mode=SCALAR) for _ in range(m)
    ]
    for stream in range(m):
        ts = sorted(
            rng.uniform(now - window - basic, now) for _ in range(per_stream)
        )
        for seq, t in enumerate(ts):
            tup = StreamTuple(
                value=rng.uniform(0.0, value_span),
                timestamp=t,
                stream=stream,
                seq=seq,
            )
            windows[stream].insert(tup, now)
    return windows


def assert_identical(slow, fast):
    assert fast.comparisons == slow.comparisons
    assert len(fast.hop_stats) == len(slow.hop_stats)
    for f, s in zip(fast.hop_stats, slow.hop_stats):
        assert (f.scanned, f.matched) == (s.scanned, s.matched)
    assert len(fast.outputs) == len(slow.outputs)
    for fo, so in zip(fast.outputs, slow.outputs):
        assert fo.key() == so.key()
        assert [t.stream for t in fo.constituents] == [
            t.stream for t in so.constituents
        ]


def run_both(tup, order, slices_for_hop, predicate):
    slow = run_pipeline(tup, order, slices_for_hop, predicate)
    fast = run_pipeline_columnar(tup, order, slices_for_hop, predicate)
    assert_identical(slow, fast)
    return slow


@pytest.mark.parametrize(
    "m, seed",
    # the reference pipeline enumerates a 5-way join 25 times per seed
    # (~4 s each): every seed at m <= 3, one at m = 5
    [(m, seed) for m in (2, 3) for seed in (0, 1, 2, 3)] + [(5, 0)],
)
def test_full_slices_identical(m, seed):
    now = 10.0
    windows = build_windows(seed, m=m)
    predicate = EpsilonJoin(0.5)
    produced = 0
    rng = random.Random(100 + seed)
    for trial in range(25):
        stream = trial % m
        tup = StreamTuple(
            value=rng.uniform(0.0, 8.0),
            timestamp=rng.uniform(now - 1.0, now),
            stream=stream,
            seq=1000 + trial,
        )
        order = [s for s in range(m) if s != stream]
        result = run_both(
            tup,
            order,
            lambda hop, ws: windows[ws].full_slices(now),
            predicate,
        )
        produced += len(result.outputs)
    assert produced > 0  # the fixture must actually exercise outputs


def test_equijoin_and_wide_epsilon_identical():
    now = 10.0
    windows = build_windows(7, m=3, value_span=2.0)
    for predicate in (EquiJoin(0.25), EpsilonJoin(5.0)):
        rng = random.Random(42)
        for trial in range(10):
            tup = StreamTuple(
                value=rng.uniform(0.0, 2.0),
                timestamp=now,
                stream=0,
                seq=2000 + trial,
            )
            run_both(
                tup,
                [1, 2],
                lambda hop, ws: windows[ws].full_slices(now),
                predicate,
            )


def test_strided_shredding_slices_identical():
    now = 10.0
    windows = build_windows(11, m=3)
    predicate = EpsilonJoin(1.0)
    for z in (0.3, 0.7, 1.0):
        tup = StreamTuple(value=4.0, timestamp=now, stream=0, seq=9000)
        callback = shred_slices_for_hop(windows, [1, 2], z, now)
        run_both(tup, [1, 2], callback, predicate)


def test_merged_and_manual_strided_slices_identical():
    now = 10.0
    windows = build_windows(13, m=3)
    predicate = EpsilonJoin(0.8)

    def mixed(hop, ws):
        full = windows[ws].full_slices(now)
        # re-slice: halves of each physical slice plus a strided sample
        pieces = []
        for s in full:
            mid = (s.lo + s.hi) // 2
            if mid > s.lo:
                pieces.append(WindowSlice(s.store, s.lo, mid))
            if s.hi > mid:
                pieces.append(WindowSlice(s.store, mid, s.hi))
        if full:
            first = full[0]
            pieces.append(
                WindowSlice(first.store, first.lo, first.hi, step=3)
            )
        return merge_slices(pieces)

    tup = StreamTuple(value=3.0, timestamp=now, stream=0, seq=9100)
    run_both(tup, [1, 2], mixed, predicate)


def test_empty_hop_early_exit_identical():
    now = 10.0
    windows = build_windows(17, m=3)
    predicate = EpsilonJoin(0.5)

    def empty_mid_hop(hop, ws):
        if hop == 1:
            return []
        return windows[ws].full_slices(now)

    tup = StreamTuple(value=4.0, timestamp=now, stream=0, seq=9200)
    slow = run_both(tup, [1, 2], empty_mid_hop, predicate)
    assert slow.outputs == []
    assert slow.hop_stats[1].scanned == 0


def test_no_match_context_collapse_identical():
    """A partial whose interval collapses (lo > hi) matches nothing in
    either kernel, but still pays the scan."""
    now = 10.0
    windows = build_windows(19, m=3, value_span=100.0)
    predicate = EpsilonJoin(0.01)
    tup = StreamTuple(value=50.0, timestamp=now, stream=0, seq=9300)
    slow = run_both(
        tup,
        [1, 2],
        lambda hop, ws: windows[ws].full_slices(now),
        predicate,
    )
    assert slow.comparisons > 0


def test_single_partial_hops_identical():
    """The scalar path: hop 0 always has one partial (the probing tuple),
    and a later hop has one whenever the hop before left a single hit —
    NaN probe values (no interval contains anything) included."""
    now = 10.0
    windows = build_windows(37, m=4, value_span=40.0)
    rng = random.Random(5)
    single_later_hop = 0
    for predicate in (EpsilonJoin(0.3), EquiJoin(0.0), EquiJoin(0.25)):
        for trial in range(40):
            value = float("nan") if trial == 0 else rng.uniform(0.0, 40.0)
            if trial % 3 == 1:  # an exact hit, so radius 0 gets past hop 0
                value = float(windows[1].values[rng.randrange(100)])
            tup = StreamTuple(value=value, timestamp=now, stream=0,
                              seq=9600 + trial)
            slow = run_both(
                tup, [1, 2, 3],
                lambda hop, ws: windows[ws].full_slices(now),
                predicate,
            )
            single_later_hop += slow.hop_stats[0].matched == 1
            if trial == 0:
                assert slow.hop_stats[0].matched == 0
                assert slow.comparisons == len(windows[1].full_slices(now)[0])
    assert single_later_hop > 5  # the fixture must reach that path


def test_chunked_mask_path_identical(monkeypatch):
    import repro.joins.columnar as columnar

    monkeypatch.setattr(columnar, "_CHUNK_ELEMS", 64)
    now = 10.0
    windows = build_windows(23, m=3, value_span=2.0)
    predicate = EpsilonJoin(1.5)  # dense matches -> many partials
    tup = StreamTuple(value=1.0, timestamp=now, stream=0, seq=9400)
    slow = run_both(
        tup,
        [1, 2],
        lambda hop, ws: windows[ws].full_slices(now),
        predicate,
    )
    assert len(slow.outputs) > 50  # chunking must actually engage


def test_outputs_are_stream_sorted():
    now = 10.0
    windows = build_windows(29, m=4)
    predicate = EpsilonJoin(2.0)
    tup = StreamTuple(value=4.0, timestamp=now, stream=2, seq=9500)
    fast = run_pipeline_columnar(
        tup,
        [3, 0, 1],
        lambda hop, ws: windows[ws].full_slices(now),
        predicate,
    )
    for out in fast.outputs:
        streams = [t.stream for t in out.constituents]
        assert streams == sorted(streams)


# ----------------------------------------------------------------------
# ResultBlock: columnar now, JoinResult objects whenever (if ever)
# ----------------------------------------------------------------------


def _block_fixture(pool: str, seed: int, now: float, monkeypatch):
    """Three windows of a random trace, the predicate, and the probe's
    slice selection, for one kind of probe (full, shredded, or priced
    by a hash / range index)."""
    rng = random.Random(seed)
    m, window, basic = 3, 6.0, 1.5
    # windows of tens of rows: index them anyway
    for name, value in (("min_index_rows", 8), ("min_samples", 4),
                        ("warmup", 4)):
        monkeypatch.setattr(WindowIndexState, name, value)
    if pool == "hash":
        predicate = EquiJoin()
        monkeypatch.setattr(WindowIndexState, "n_partitions", 16)
        states = [WindowIndexState(HASH, 0.0) for _ in range(m)]

        def draw():
            return float(rng.randrange(6))
    else:
        predicate = EpsilonJoin(0.4)
        states = [None] * m
        if pool == "range":
            monkeypatch.setattr(WindowIndexState, "n_partitions", 8)
            states = [WindowIndexState(RANGE, 0.4) for _ in range(m)]

        def draw():
            return rng.uniform(0.0, 8.0)

    windows = [
        PartitionedWindow(window, basic, mode=SCALAR, index=state)
        for state in states
    ]
    for stream, pw in enumerate(windows):
        stamps = sorted(
            rng.uniform(now - window - basic, now) for _ in range(120)
        )
        for i, ts in enumerate(stamps):
            pw.insert(
                StreamTuple(value=draw(), timestamp=ts, stream=stream,
                            seq=10_000 * stream + i),
                now,
            )
    if pool == "range":
        for state in states:
            state.tick()
            assert state.active == RANGE

    def slices_for(order):
        if pool == "shredded":
            return shred_slices_for_hop(windows, order, 0.5, now)
        return lambda hop, ws: windows[ws].full_slices(now)

    return windows, states, predicate, draw, slices_for


@pytest.mark.parametrize("pool", ["full", "shredded", "hash", "range"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_result_block_outlives_its_windows(pool, seed, monkeypatch):
    """A block taken at probe time and first read after its windows took
    a late sorted insert, an eviction, a full turn of the ring, growth
    and compaction is the reference pipeline's output as of the probe:
    same tuple objects, same order, same keys — and ``seqs`` names them
    without building any."""
    now = 10.0
    windows, states, predicate, draw, slices_for = _block_fixture(
        pool, seed, now, monkeypatch
    )
    rng = random.Random(1000 + seed)
    taken = []
    strided = False
    for trial in range(12):
        stream = trial % 3
        order = [s for s in range(3) if s != stream]
        rng.shuffle(order)
        tup = StreamTuple(value=draw(), timestamp=now, stream=stream,
                          seq=5000 + trial)
        slices_for_hop = slices_for(order)
        strided |= any(s.step > 1 for s in slices_for_hop(0, order[0]))
        slow = run_pipeline(tup, order, slices_for_hop, predicate)
        fast = run_pipeline_columnar(tup, order, slices_for_hop, predicate)
        if not slow.outputs:
            assert fast.outputs == [] and not fast.outputs
            continue
        assert isinstance(fast.outputs, ResultBlock)
        taken.append((fast.outputs, slow.outputs))
    assert taken  # the fixture must actually complete probes
    assert strided == (pool == "shredded")
    if pool in ("hash", "range"):
        assert sum(state.rows_pruned for state in states) > 0

    for stream, pw in enumerate(windows):
        start, stop = pw.window_rows(1)
        late = float(pw.timestamps[(start + stop) // 2])
        pw.insert(
            StreamTuple(value=draw(), timestamp=late, stream=stream,
                        seq=77_777),
            now,
        )
        # the rows above the late one shifted up, the tuples with them
        assert pw.window_rows(1) == (start, stop + 1)
        assert pw.evict_basic_window(2) > 0
        # n + 1 rotations expire every basic window of the probe, and
        # the refill — past the capacity, so the store compacts in place
        # and then grows — overwrites the rows its hits pointed at
        later = now + (pw.n + 2) * pw.basic_window_size
        grown = compacted = 0
        for i in range(600):
            head, column = pw.live_rows[0], pw._tups
            pw.insert(
                StreamTuple(value=draw(), timestamp=later + 0.01 * i,
                            stream=stream, seq=88_000 + i),
                later + 0.01 * i,
            )
            if pw._tups is not column:
                grown += 1
            elif pw.live_rows[0] < head:
                # the head only moves back when the live rows are
                # copied to the front of the columns
                compacted += 1
        assert pw.rotations >= pw.n + 1
        assert grown and compacted

    for block, expected in taken:
        assert not block.materialized
        assert len(block) == len(expected) and block
        seqs = block.seqs
        assert seqs.dtype == np.int64 and seqs.shape == (len(expected), 3)
        assert seqs.tolist() == [
            [t.seq for t in r.constituents] for r in expected
        ]
        assert not block.materialized  # seqs is eager; rows are not
        for got, want in zip(block, expected):
            assert len(got.constituents) == len(want.constituents)
            assert all(
                g is w for g, w in zip(got.constituents, want.constituents)
            )
            assert got.key() == want.key()
        assert block.materialized
        assert block == expected and expected == block
        assert block[0] is block[0]  # built once: a stamp sticks
        assert block.seqs.tolist() == [
            [t.seq for t in r.constituents] for r in block
        ]


class TestKernelSelection:
    def test_auto_selects_columnar_for_interval_predicates(self):
        assert supports_columnar(EpsilonJoin(1.0))
        assert supports_columnar(EquiJoin())
        assert select_kernel(EpsilonJoin(1.0)) is run_pipeline_columnar
        assert select_kernel(EquiJoin(0.1)) is run_pipeline_columnar

    def test_auto_falls_back_for_generic_predicates(self):
        for predicate in (
            BandJoin(0.5, 1.0),
            JaccardJoin(0.5),
            ThetaJoin(lambda a, b: a < b),
        ):
            assert not supports_columnar(predicate)
            assert select_kernel(predicate) is run_pipeline

    def test_stream_aware_predicates_excluded(self):
        per_pair = PerPairPredicate(3, default=EpsilonJoin(1.0))
        assert not supports_columnar(per_pair)
        assert select_kernel(per_pair) is run_pipeline


def test_numpy_dtype_stability():
    """Pooled candidate arrays are float64 regardless of slice striding."""
    now = 10.0
    windows = build_windows(31, m=2)
    s = windows[1].full_slices(now)[0]
    strided = WindowSlice(s.store, s.lo, s.hi, step=2)
    assert np.asarray(strided.values).dtype == np.float64
