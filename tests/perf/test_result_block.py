"""The lazy :class:`ResultBlock` against the eager result plane it replaced.

A completed probe's block keeps only what the probe gathered — per hop,
the hits' ``seq`` numbers and tuple objects, as cross-product factors
(equality) or aligned rows (interval) — and builds its ``(n, m)``
identity matrix and its ``JoinResult`` objects on first read.  Before
that, the probe filled the matrix and a grid of constituents eagerly.
The properties here pin the lazy block to verbatim copies of that eager
code: the same ``seqs``, the same rows in the same order, the very same
tuple objects, equal as lists — whether ``seqs`` is read before the rows
or after them.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basic_windows import WindowSlice
from repro.core.grubjoin import GrubJoinOperator
from repro.core.throttle import FixedThrottle
from repro.engine import CpuModel, Simulation
from repro.joins import columnar
from repro.joins.columnar import ResultBlock, _locate, run_pipeline_columnar
from repro.joins.predicates import EpsilonJoin, EquiJoin
from repro.streams.tuples import JoinResult, StreamTuple
from repro.testkit.differential import run_config
from repro.testkit.workloads import key_workload

from .test_kernel import KEYS, build_windows

# ----------------------------------------------------------------------
# The eager result plane, verbatim but for the class name: the block,
# its two builders and the per-output identity matrix of the process
# runtime.  Do not edit; they are what the lazy code is held to.
# ----------------------------------------------------------------------


class EagerBlock(Sequence):
    """One completed probe's results, kept columnar.

    To every consumer it *is* the ``list[JoinResult]`` the reference
    pipeline returns — sized, truthy when non-empty, iterable, indexable,
    equal to a list of the same results — but the
    :class:`~repro.streams.tuples.JoinResult` objects are only built the
    first time somebody looks at one (and then kept, so a timestamp
    stamped on a result is seen by every later reader).  What is built
    eagerly is :attr:`seqs`: an ``(n, m)`` int64 matrix whose column
    ``s`` holds the sequence number of each result's constituent from
    stream ``s`` — the results' identities, which is all the process
    runtime ships.

    Until then the constituents are held, per hop, as the tuple objects
    gathered from the probed store at the hits' rows when the probe ran:
    the block owns them and refers to no store, so later changes to the
    windows cannot reach it.
    """

    __slots__ = ("seqs", "_tup", "_perm", "_levels", "_results")

    def __init__(
        self,
        seqs: np.ndarray,
        tup: StreamTuple,
        perm: Sequence[int],
        levels: list[np.ndarray],
    ) -> None:
        self.seqs = seqs
        self._tup = tup
        #: constituent positions (0 = the probing tuple, ``h + 1`` = hop
        #: ``h``) in ascending stream order
        self._perm = perm
        #: per hop, the constituents' tuple objects (object arrays)
        self._levels = levels
        self._results: list[JoinResult] | None = None

    @property
    def materialized(self) -> bool:
        """Whether the ``JoinResult`` objects have been built yet."""
        return self._results is not None

    def _rows(self) -> list[JoinResult]:
        results = self._results
        if results is None:
            columns: list = [repeat(self._tup)]
            columns.extend(level.tolist() for level in self._levels)
            # every block has a hop, so zip() ends with the level lists
            results = self._results = [
                JoinResult(constituents)
                for constituents in zip(*(columns[k] for k in self._perm))
            ]
            self._levels = None  # the results hold the tuples now
        return results

    def __len__(self) -> int:
        return len(self.seqs)

    def __iter__(self):
        return iter(self._rows())

    def __getitem__(self, index):
        return self._rows()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, EagerBlock)):
            return self._rows() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"EagerBlock({self._rows()!r})"


def eager_materialize(
    tup: StreamTuple,
    order: Sequence[int],
    hop_slices: list[Sequence[WindowSlice]],
    parents_chain: list[np.ndarray | None],
    rows_chain: list[np.ndarray],
) -> EagerBlock:
    """Resolve surviving back-pointer chains into a :class:`EagerBlock`.

    Output order is ascending final-partial index, which equals the slow
    path's enumeration order; constituents are sorted by stream via a
    permutation precomputed from the (distinct) stream ids.  The chain
    walk is array gathers only: each hop's hits are positions in its
    candidate pool, resolved to rows of the hop's store; the ``seq``
    column gathered at those rows fills that stream's column of the
    identity matrix, and the tuple column gathered there is the block's
    own copy of that hop's constituents.
    """
    hops = len(rows_chain)
    count = len(rows_chain[-1])
    streams = [tup.stream, *order]
    perm = sorted(range(len(streams)), key=streams.__getitem__)
    seqs = np.empty((count, len(streams)), dtype=np.int64)
    seqs[:, tup.stream] = tup.seq
    levels: list = [None] * hops
    idxs: np.ndarray | None = None  # None: the identity over the last hop
    for h in range(hops - 1, -1, -1):
        slices = hop_slices[h]
        store = slices[0].store
        rows = _locate(
            slices, rows_chain[h] if idxs is None else rows_chain[h][idxs]
        )
        seqs[:, order[h]], levels[h] = store.gather(rows)
        if h:
            idxs = parents_chain[h] if idxs is None else parents_chain[h][idxs]
    return EagerBlock(seqs, tup, perm, levels)


def eager_materialize_product(
    tup: StreamTuple,
    order: Sequence[int],
    hop_slices: list[Sequence[WindowSlice]],
    hop_cols: list[np.ndarray],
) -> EagerBlock:
    """The :class:`EagerBlock` of an equality probe: the cross product
    of the per-hop hits, last hop fastest.

    Each hop's ``k_h`` hits are resolved to store rows and gathered once;
    its ``seq`` column is broadcast into the ``(k_0, ..., k_{H-1}, m)``
    view of the identity matrix, and its tuple objects into one level
    of the same shape.
    """
    streams = [tup.stream, *order]
    perm = sorted(range(len(streams)), key=streams.__getitem__)
    shape = tuple(len(cols) for cols in hop_cols)
    seqs = np.empty((*shape, len(streams)), dtype=np.int64)
    seqs[..., tup.stream] = tup.seq
    levels = []
    for h, (slices, cols) in enumerate(zip(hop_slices, hop_cols)):
        seq, level = slices[0].store.gather(_locate(slices, cols))
        # hop h's hits along axis h: broadcast over the axes after it
        axis = (-1,) + (1,) * (len(shape) - 1 - h)
        seqs[..., order[h]] = seq.reshape(axis)
        grid = np.empty(shape, dtype=object)
        grid[...] = level.reshape(axis)
        levels.append(grid.reshape(-1))
    return EagerBlock(seqs.reshape(-1, len(streams)), tup, perm, levels)


def eager_result_keys(outputs: Sequence[Any], m: int) -> np.ndarray:
    """The identities of one ``process()`` call's results as an ``(n, m)``
    int64 matrix: column ``s`` is the ``seq`` of the constituent from
    stream ``s``, ``-1`` where a result has none (the singletons of the
    semi/anti/outer modes).

    The columnar kernel's :class:`~repro.joins.columnar.ResultBlock`
    already carries that matrix and is returned as is — no result object
    is ever built; any other output sequence (the reference pipeline,
    ``ModeState``) is filled from :meth:`JoinResult.key`.
    """
    seqs = getattr(outputs, "seqs", None)
    if seqs is not None:
        return seqs
    keys = np.full((len(outputs), m), -1, dtype=np.int64)
    for row, result in zip(keys, outputs):
        for stream, seq in result.key():
            row[stream] = seq
    return keys


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def probe_both(tup, order, slices_for_hop, predicate):
    """One probe through the kernel twice: ``(lazy, eager)`` outputs, the
    second with the eager builders in place of the lazy ones."""
    lazy = run_pipeline_columnar(tup, order, slices_for_hop, predicate)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(columnar, "_materialize", eager_materialize)
        mp.setattr(
            columnar, "_materialize_product",
            lambda tup, order, hop_slices, hop_cols, count:
                eager_materialize_product(tup, order, hop_slices, hop_cols),
        )
        eager = run_pipeline_columnar(tup, order, slices_for_hop, predicate)
    assert lazy.comparisons == eager.comparisons
    return lazy.outputs, eager.outputs


def assert_same_block(lazy, eager, seqs_first: bool) -> None:
    """``lazy`` is ``eager``: same identities, same rows in the same
    order holding the same tuple objects."""
    assert len(lazy) == len(eager)
    assert bool(lazy) == bool(eager)
    if not eager:
        assert lazy == [] and eager == []
        return
    assert isinstance(lazy, ResultBlock) and isinstance(eager, EagerBlock)
    if seqs_first:
        assert lazy.seqs.dtype == np.int64
        assert lazy.seqs.shape == eager.seqs.shape
        assert np.array_equal(lazy.seqs, eager.seqs)
        assert not lazy.materialized
    for got, want in zip(lazy, eager, strict=True):
        assert len(got.constituents) == len(want.constituents)
        assert all(
            g is w for g, w in zip(got.constituents, want.constituents)
        )
    assert lazy.materialized
    assert lazy == list(eager) and list(eager) == lazy
    assert lazy.seqs is lazy.seqs  # built once
    assert lazy.seqs.shape == eager.seqs.shape
    assert np.array_equal(lazy.seqs, eager.seqs)


def pool_slices(window, now: float, kind: str, cut: float):
    """One hop's slices over ``window``: its full slice, two gapped runs
    of it, or a run followed by a strided tail."""
    full = window.full_slices(now)
    if kind == "single" or not full:
        return full
    (s,) = full
    a = s.lo + int(cut * (s.hi - s.lo))
    if kind == "multi-run":
        return [WindowSlice(s.store, s.lo, a),
                WindowSlice(s.store, min(a + 3, s.hi), s.hi)]
    return [WindowSlice(s.store, s.lo, a),
            WindowSlice(s.store, a, s.hi, step=2 + int(cut * 3))]


#: rows per stream, so an m-way cross product stays test-sized
ROWS = {2: 120, 3: 60, 4: 30, 5: 18}


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    exact=st.booleans(),
    radius=st.sampled_from([0.5, 1.5, 4.0]),
    kind=st.sampled_from(["single", "multi-run", "strided"]),
    cut=st.floats(0.1, 0.9),
    value=st.sampled_from(KEYS),
    data=st.data(),
)
def test_lazy_block_is_the_eager_block(
    m, seed, exact, radius, kind, cut, value, data
):
    now = 10.0
    windows = build_windows(seed, m=m, per_stream=ROWS[m], keys=KEYS)
    stream = data.draw(st.integers(0, m - 1), label="stream")
    order = data.draw(
        st.permutations([s for s in range(m) if s != stream]), label="order"
    )
    predicate = EquiJoin() if exact else EpsilonJoin(radius)
    tup = StreamTuple(value=value, timestamp=now, stream=stream, seq=9900)

    def slices_for_hop(hop, ws):
        return pool_slices(windows[ws], now, kind, cut)

    for seqs_first in (True, False):
        lazy, eager = probe_both(tup, order, slices_for_hop, predicate)
        assert_same_block(lazy, eager, seqs_first)


def test_every_pool_kind_completes_probes():
    """The property above is not vacuous: over :data:`KEYS`, each pool
    kind completes probes with several results on both paths."""
    now = 10.0
    for kind in ("single", "multi-run", "strided"):
        for predicate in (EquiJoin(), EpsilonJoin(1.5)):
            windows = build_windows(7, m=3, per_stream=ROWS[3], keys=KEYS)
            tup = StreamTuple(value=1.0, timestamp=now, stream=0, seq=1)
            lazy, eager = probe_both(
                tup, [2, 1],
                lambda hop, ws: pool_slices(windows[ws], now, kind, 0.4),
                predicate,
            )
            assert len(eager) > 1
            assert_same_block(lazy, eager, seqs_first=False)


@pytest.mark.parametrize("z", [0.35, 1.0])
def test_grubjoin_harvested_pools_over_keys(z):
    """GrubJoin over a key workload, shedding (harvested runs and
    shredded strides) or not: every completed probe's lazy block is the
    eager one, ``seqs`` read first on every other probe."""
    workload = key_workload(5, rate=20.0, duration=8.0, n_keys=8)
    operator = GrubJoinOperator(
        workload.predicate, workload.window_sizes, workload.basic,
        rng=workload.seed + 101,
    )
    operator.throttle = FixedThrottle(z)
    kernel = operator._kernel
    assert kernel is run_pipeline_columnar
    shapes = []

    def compared(tup, order, slices_for_hop, predicate):
        runs = [slices_for_hop(hop, ws) for hop, ws in enumerate(order)]
        lazy, eager = probe_both(
            tup, order, lambda hop, ws: runs[hop], predicate
        )
        assert_same_block(lazy, eager, seqs_first=len(shapes) % 2 == 0)
        shapes.append((
            len(eager),
            max(len(r) for r in runs),
            max((s.step for r in runs for s in r), default=1),
        ))
        return kernel(tup, order, lambda hop, ws: runs[hop], predicate)

    operator._kernel = compared
    Simulation(workload.traces, operator, CpuModel(1e12),
               run_config(workload)).run()
    assert max(n for n, _, _ in shapes) > 1
    if z < 1.0:  # the shed runs take both slice shapes
        assert max(r for _, r, _ in shapes) > 1
        assert max(s for _, _, s in shapes) > 1
