"""Bit-identity of the columnar probe kernel against the reference pipeline.

Every test drives :func:`run_pipeline` and :func:`run_pipeline_columnar`
over identical inputs and asserts *exact* equality: same comparison count,
same per-hop scanned/matched, same outputs in the same order (by
constituent identity).  Wall-clock is the only thing allowed to differ.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

import numpy as np
import pytest

from repro.core.basic_windows import SCALAR, PartitionedWindow, WindowSlice
from repro.core.grubjoin import GrubJoinOperator
from repro.core.harvesting import HarvestConfiguration
from repro.core.shredding import shred_slices_for_hop
from repro.core.throttle import FixedThrottle
from repro.core.windex import HASH, RANGE, WindowIndexState
from repro.engine import CpuModel, Simulation
from repro.joins.columnar import (
    ResultBlock,
    run_pipeline_columnar,
    select_kernel,
    supports_columnar,
)
from repro.joins.pipeline import merge_slices, run_pipeline
from repro.joins.predicates import (
    BandJoin,
    EpsilonJoin,
    EquiJoin,
    InnerProductJoin,
    VectorDistanceJoin,
)
from repro.streams.tuples import StreamTuple
from repro.testkit.differential import run_config
from repro.testkit.workloads import key_workload

#: few distinct join values, so radius-0 hops carry several partials;
#: NaN (joins nothing), both zeros (join each other) and both
#: infinities (each joins only itself) among them
KEYS = (float("nan"), 0.0, -0.0, float("inf"), float("-inf"), 1.0, 2.5,
        7.0)


def build_windows(
    seed: int,
    m: int = 3,
    per_stream: int = 120,
    window: float = 6.0,
    basic: float = 1.5,
    value_span: float = 8.0,
    now: float = 10.0,
    keys: Sequence[float] | None = None,
):
    """``m`` windows of ``per_stream`` random rows each: values uniform
    over ``[0, value_span)``, or drawn from ``keys`` when given."""
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
                value=rng.uniform(0.0, value_span) if keys is None
                else rng.choice(keys),
                timestamp=t,
                stream=stream,
                seq=seq,
            )
            windows[stream].insert(tup, now)
    return windows


def indexed_probe(predicate):
    """The reference pipeline's block-probe strategy for a radius-0 hop
    over a store with an active partition index: the flat scan's hits,
    charged what the index bills the slice.  Every partial's interval is
    the probing value's, so ``P`` partials are charged ``P`` times one
    partial's rows — the kernel's ``HopStats.scanned``."""
    def probe(context, s):
        hits = predicate.probe_block(context, s.values)
        state = s.store.windex
        if state is None or not state.is_active:
            return hits, len(s)
        lo, hi = context
        return hits, state.charge([s], len(s), lo, hi, lo)

    return probe


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


def run_both(tup, order, slices_for_hop, predicate, probe=None):
    slow = run_pipeline(tup, order, slices_for_hop, predicate, probe)
    fast = run_pipeline_columnar(tup, order, slices_for_hop, predicate)
    assert_identical(slow, fast)
    return slow


@pytest.mark.parametrize(
    "exact, m, seed",
    # the reference pipeline enumerates a 5-way join 25 times per seed
    # (~4 s each): every seed at m <= 3, one at m = 5.  Exact (radius-0)
    # probes over few keys: m = 2..5, fewer rows as m grows so the
    # reference's cross products stay small
    [pytest.param(False, m, seed, id=f"{m}-{seed}")
     for m, seed in [(m, seed) for m in (2, 3) for seed in (0, 1, 2, 3)]
     + [(5, 0)]]
    + [pytest.param(True, m, seed, id=f"exact-{m}-{seed}")
       for m in (2, 3, 4, 5) for seed in (0, 1)],
)
def test_full_slices_identical(exact, m, seed):
    now = 10.0
    if exact:
        windows = build_windows(seed, m=m, per_stream=240 // m, keys=KEYS)
        predicate = EquiJoin() if seed % 2 else EpsilonJoin(0.0)
    else:
        windows = build_windows(seed, m=m)
        predicate = EpsilonJoin(0.5)
    produced = crossed = 0
    rng = random.Random(100 + seed)
    for trial in range(25):
        stream = trial % m
        tup = StreamTuple(
            value=KEYS[trial % len(KEYS)] if exact
            else rng.uniform(0.0, 8.0),
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
        crossed += m > 2 and result.hop_stats[0].matched > 1
    assert produced > 0  # the fixture must actually exercise outputs
    # and a later hop must carry several partials
    assert crossed > 0 or m == 2


def test_equijoin_and_wide_epsilon_identical():
    now = 10.0
    windows = build_windows(7, m=3, value_span=2.0)
    for predicate in (EquiJoin(), EpsilonJoin(0.25), EpsilonJoin(5.0)):
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
    for exact in (False, True):
        windows = build_windows(11, m=3, keys=KEYS if exact else None)
        predicate = EquiJoin() if exact else EpsilonJoin(1.0)
        produced = 0
        for z in (0.3, 0.7, 1.0):
            tup = StreamTuple(value=1.0 if exact else 4.0, timestamp=now,
                              stream=0, seq=9000)
            callback = shred_slices_for_hop(windows, [1, 2], z, now)
            produced += len(
                run_both(tup, [1, 2], callback, predicate).outputs
            )
        assert produced > 0


def test_merged_and_manual_strided_slices_identical():
    now = 10.0
    for exact in (False, True):
        windows = build_windows(13, m=3, keys=KEYS if exact else None)
        predicate = EquiJoin() if exact else EpsilonJoin(0.8)

        def mixed(hop, ws, windows=windows):
            full = windows[ws].full_slices(now)
            # re-slice: halves of each physical slice plus a strided
            # sample
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

        tup = StreamTuple(value=2.5 if exact else 3.0, timestamp=now,
                          stream=0, seq=9100)
        assert run_both(tup, [1, 2], mixed, predicate).outputs


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
    for predicate in (EpsilonJoin(0.3), EquiJoin(), EpsilonJoin(0.25)):
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


def _block_fixture(pool: str, exact: bool, seed: int, now: float,
                   monkeypatch):
    """Three windows of a random trace, the predicate, and the probe's
    slice selection, for one kind of probe (full, shredded, harvested
    over gapped runs with a strided tail, or priced by a hash / range
    index).  ``exact`` probes are radius 0 over :data:`KEYS`."""
    rng = random.Random(seed)
    m, window, basic = 3, 6.0, 1.5
    # windows of tens of rows: index them anyway
    for name, value in (("min_index_rows", 8), ("min_samples", 4),
                        ("warmup", 4)):
        monkeypatch.setattr(WindowIndexState, name, value)
    if exact:
        predicate = EquiJoin()

        def draw():
            return rng.choice(KEYS)
    else:
        predicate = EpsilonJoin(0.4)

        def draw():
            return rng.uniform(0.0, 8.0)

    states = [None] * m
    if pool == "hash":
        monkeypatch.setattr(WindowIndexState, "n_partitions", 16)
        states = [WindowIndexState(HASH, 0.0) for _ in range(m)]
    elif pool == "range":
        monkeypatch.setattr(WindowIndexState, "n_partitions", 8)
        states = [
            WindowIndexState(RANGE, predicate.interval_radius)
            for _ in range(m)
        ]
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

    n = windows[0].n
    # 2.6 windows per hop, ranked 1, 4, 2, ...: two runs plus a strided
    # tail over a fraction of the third
    harvest = HarvestConfiguration(
        np.full((m, m - 1), 2.6),
        [[np.array([0, 3, 1, 2, *range(4, n)])] * (m - 1)] * m,
    )

    def slices_for(order):
        if pool == "shredded":
            return shred_slices_for_hop(windows, order, 0.5, now)
        if pool == "harvested":
            (i,) = set(range(m)) - set(order)
            return lambda hop, ws: harvest.run_slices_for_hop(
                windows[ws], i, hop, now, reference=now
            )
        return lambda hop, ws: windows[ws].full_slices(now)

    return windows, states, predicate, draw, slices_for


@pytest.mark.parametrize(
    "pool, exact",
    [pytest.param(pool, False, id=pool)
     for pool in ("full", "shredded", "harvested", "range")]
    + [pytest.param(pool, True, id=f"{pool}-exact")
       for pool in ("full", "shredded", "harvested", "range")]
    + [pytest.param("hash", True, id="hash")],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_result_block_outlives_its_windows(pool, exact, seed, monkeypatch):
    """A block taken at probe time and first read after its windows took
    a late sorted insert, an eviction, a full turn of the ring, growth
    and compaction is the reference pipeline's output as of the probe:
    same tuple objects, same order, same keys.  What it kept is each
    hop's hits, copied out of the store, and ``seqs`` — built on first
    read — names the results without building any.  The probe itself is the reference's: same
    comparisons and ``HopStats``, an indexed exact hop charged through
    :func:`indexed_probe` (a radius > 0 one is charged the partials'
    union envelope, which the reference has no notion of)."""
    now = 10.0
    windows, states, predicate, draw, slices_for = _block_fixture(
        pool, exact, seed, now, monkeypatch
    )
    indexed = pool in ("hash", "range")
    rng = random.Random(1000 + seed)
    taken = []
    strided = multi_run = crossed = False
    for trial in range(12):
        stream = trial % 3
        order = [s for s in range(3) if s != stream]
        rng.shuffle(order)
        tup = StreamTuple(value=draw(), timestamp=now, stream=stream,
                          seq=5000 + trial)
        slices_for_hop = slices_for(order)
        first = slices_for_hop(0, order[0])
        strided |= any(s.step > 1 for s in first)
        multi_run |= sum(s.step == 1 for s in first) > 1
        if indexed and not exact:
            slow = run_pipeline(tup, order, slices_for_hop, predicate)
        else:  # run_both reads its kernel run's block: probe again
            slow = run_both(
                tup, order, slices_for_hop, predicate,
                indexed_probe(predicate) if indexed else None,
            )
        fast = run_pipeline_columnar(tup, order, slices_for_hop, predicate)
        crossed |= slow.hop_stats[0].matched > 1 and bool(slow.outputs)
        if not slow.outputs:
            assert fast.outputs == [] and not fast.outputs
            continue
        assert isinstance(fast.outputs, ResultBlock)
        taken.append((fast.outputs, slow.outputs))
    assert taken  # the fixture must actually complete probes
    assert crossed  # ... from several partials at the last hop
    assert strided == (pool in ("shredded", "harvested"))
    assert multi_run == (pool == "harvested")
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
        head, tail = pw.live_rows
        assert (pw.seqs[head:tail] >= 88_000).all()
        assert grown and compacted

    for block, expected in taken:
        assert not block.materialized
        assert len(block) == len(expected) and block
        # what the probe kept: per hop, the hits' seqs — one factor of
        # the cross product each (equality) or one per result (interval)
        # — copied out of a store that has churned since
        stream, seq, order, hits, product = block.factors()
        assert product == exact
        assert sorted([stream, *order]) == [0, 1, 2]
        assert {dict(r.key())[stream] for r in expected} == {seq}
        sizes = [len(h) for h in hits]
        if product:
            assert int(np.prod(sizes)) == len(expected)
        else:
            assert sizes == [len(expected)] * len(hits)
        for ws, h in zip(order, hits):
            assert h.dtype == np.int64
            assert not np.shares_memory(h, windows[ws]._seq)
            assert set(h.tolist()) == {
                dict(r.key())[ws] for r in expected
            }
        seqs = block.seqs
        assert block.seqs is seqs  # built on first read, then kept
        assert seqs.dtype == np.int64 and seqs.shape == (len(expected), 3)
        assert seqs.tolist() == [
            [t.seq for t in r.constituents] for r in expected
        ]
        assert not block.materialized  # reading seqs builds no rows
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


@pytest.mark.parametrize("z", [0.35, 1.0])
def test_grubjoin_over_key_workload_identical(z):
    """GrubJoin on an equi-join, shedding (harvested runs and shredded
    strides) or not: every probe of the kernel its predicate selects is
    the reference pipeline's, call for call, so the two runs make the
    same decisions."""
    workload = key_workload(5, rate=20.0, duration=8.0, n_keys=8)
    calls = {}
    for kernel in (run_pipeline, run_pipeline_columnar):
        operator = GrubJoinOperator(
            workload.predicate, workload.window_sizes, workload.basic,
            rng=workload.seed + 101,
        )
        operator.throttle = FixedThrottle(z)
        assert operator._kernel is run_pipeline_columnar
        seen = calls[kernel] = []

        def recording(tup, order, slices_for_hop, predicate, kernel=kernel,
                      seen=seen):
            runs = [slices_for_hop(hop, ws) for hop, ws in enumerate(order)]
            result = kernel(tup, order, lambda hop, ws: runs[hop], predicate)
            seen.append((
                result.comparisons,
                [(h.scanned, h.matched) for h in result.hop_stats],
                [r.key() for r in result.outputs],
                max(len(r) for r in runs),
                max((s.step for r in runs for s in r), default=1),
            ))
            return result

        operator._kernel = recording
        Simulation(workload.traces, operator, CpuModel(1e12),
                   run_config(workload)).run()
    slow, fast = calls[run_pipeline], calls[run_pipeline_columnar]
    assert fast == slow
    # completed probes with several partials at the last hop
    assert any(len(out) > hops[0][1] > 1 for _, hops, out, _, _ in fast)
    if z < 1.0:  # the shed runs take both slice shapes
        assert max(c[3] for c in fast) > 1 and max(c[4] for c in fast) > 1


class TestEqualityHopCounts:
    """What a radius-0 hop costs, as counts: one 1-D comparison of the
    pool against the probing value, however many partials the hop
    carries, and none of the interval machinery (no running extrema, no
    split of grid positions into partial and candidate)."""

    COMPARISONS = {np.equal, np.not_equal, np.less, np.less_equal,
                   np.greater, np.greater_equal}

    def test_one_compare_per_hop_no_extrema(self, monkeypatch):
        now = 10.0
        windows = build_windows(41, m=3, keys=(1.0, 2.0, 3.0))
        compared = []
        comparisons = self.COMPARISONS

        class Column(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc in comparisons:
                    compared.append(ufunc.__name__)
                inputs = tuple(
                    x.view(np.ndarray) if isinstance(x, Column) else x
                    for x in inputs
                )
                return getattr(ufunc, method)(*inputs, **kwargs)

        for pw in windows:
            pw._vals = pw._vals.view(Column)
        calls = []
        for name in ("divmod", "minimum", "maximum"):
            ufunc = getattr(np, name)
            monkeypatch.setattr(
                np, name,
                lambda *a, _u=ufunc, **kw: calls.append(_u) or _u(*a, **kw),
            )
        tup = StreamTuple(value=2.0, timestamp=now, stream=0, seq=9700)
        result = run_pipeline_columnar(
            tup, [1, 2], lambda hop, ws: windows[ws].full_slices(now),
            EquiJoin(),
        )
        assert result.hop_stats[0].matched >= 2  # partials at hop 1
        assert len(result.outputs) > result.hop_stats[0].matched
        assert compared == ["equal", "equal"]
        assert calls == []


class TestKernelSelection:
    def test_auto_selects_columnar_for_interval_predicates(self):
        assert supports_columnar(EpsilonJoin(1.0))
        assert supports_columnar(EquiJoin())
        assert select_kernel(EpsilonJoin(1.0)) is run_pipeline_columnar
        assert select_kernel(EpsilonJoin(0.1)) is run_pipeline_columnar

    def test_auto_falls_back_for_generic_predicates(self):
        for predicate in (
            BandJoin(0.5, 1.0),
            InnerProductJoin(0.5),
            VectorDistanceJoin(1.0, dim=2),
        ):
            assert not supports_columnar(predicate)
            assert select_kernel(predicate) is run_pipeline


def test_numpy_dtype_stability():
    """Pooled candidate arrays are float64 regardless of slice striding."""
    now = 10.0
    windows = build_windows(31, m=2)
    s = windows[1].full_slices(now)[0]
    strided = WindowSlice(s.store, s.lo, s.hi, step=2)
    assert np.asarray(strided.values).dtype == np.float64
