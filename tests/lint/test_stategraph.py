"""Structural fingerprints: content, never ``id()``."""

from collections import deque

import numpy as np
import pytest

from repro.core.basic_windows import PartitionedWindow
from repro.core.windex import WindowIndexState
from repro.joins import EquiJoin, MJoinOperator
from repro.lint.stategraph import fingerprint, shared_containers, walk_state
from repro.streams import StreamTuple
from repro.testkit.workloads import key_workload
from tests.testkit.test_catch_matrix import EXPECTED, Row, cells, each


def objects(*elements):
    column = np.empty(len(elements), dtype=object)
    column[:] = list(elements)
    return column


class TestObjectArrays:
    """An object array's buffer is pointers, so its fingerprint is built
    from its elements, as a list's is."""

    def test_equal_contents_fingerprint_equally(self):
        a = objects({"k": 1.0}, [2, 3], None)
        b = objects({"k": 1.0}, [2, 3], None)
        assert a[0] is not b[0]
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(a) != fingerprint(objects({"k": 2.0}, [2, 3], None))

    def test_in_place_payload_write_is_seen(self):
        payload = {"k": 1.0}
        column, listed = objects(payload, None), [payload, None]
        before = fingerprint(column), fingerprint(listed)
        payload["k"] = 2.0
        assert fingerprint(listed) != before[1]
        assert fingerprint(column) != before[0]

    def test_numeric_arrays_keep_their_buffer_crc(self):
        a = np.arange(4.0)
        assert fingerprint(a) == fingerprint(a.copy())
        b = a.copy()
        b[2] = -1.0
        assert fingerprint(a) != fingerprint(b)


class Left:
    pass


class Right:
    pass


class TestLeavesAndClasses:
    """Deques, bytearrays, memoryviews and classes are hashed by their
    contents and names, not by their type alone."""

    def test_deque_append_is_seen(self):
        queue = deque([1])
        before = fingerprint(queue)
        queue.append(2)
        assert fingerprint(queue) != before
        assert fingerprint(deque([{"k": 1}])) != fingerprint(deque([{"k": 2}]))

    def test_bytearray_write_is_seen(self):
        buffer = bytearray(b"abc")
        before = fingerprint(buffer)
        buffer[1] = 0
        assert fingerprint(buffer) != before

    def test_memoryview_write_is_seen(self):
        buffer = bytearray(b"abc")
        view = memoryview(buffer)
        before = fingerprint(view)
        buffer[1] = 0
        assert fingerprint(view) != before

    def test_two_classes_differ(self):
        assert fingerprint(Left) != fingerprint(Right)
        assert fingerprint([Left]) != fingerprint([Right])


def store(values):
    """A lone-basic-window store holding ``values`` at rows 0.."""
    window = PartitionedWindow(1e6, 1e6)
    for seq, value in enumerate(values):
        window.insert(StreamTuple(value, float(seq), 0, seq), now=float(seq))
    return window


class Holder:
    def __init__(self, window):
        self.window = window


def digests(window):
    return [(n.path, n.digest) for n in walk_state(Holder(window))]


class TestStoreColumns:
    """A store's columns hold state in their live rows only: the slack
    past the tail is ``np.empty``, written before it is read."""

    def test_slack_is_not_state_but_a_live_row_is(self):
        a, b = store([1.0, 2.0, 3.0]), store([1.0, 2.0, 3.0])
        head, tail = b.live_rows
        assert (head, tail) == a.live_rows and tail < len(b._ts)
        b._ts[tail:], b._vals[tail:], b._seq[tail:] = -1.0, 7.0, 99
        assert fingerprint(a) == fingerprint(b)
        assert digests(a) == digests(b)
        b._vals[tail - 1] = 4.0
        assert fingerprint(a) != fingerprint(b)
        changed = {p for (p, d), (_, e) in zip(digests(a), digests(b))
                   if d != e}
        assert changed == {"window", "window._vals"}

    def test_columns_stay_nodes_so_aliasing_is_seen(self):
        a, b = store([1.0, 2.0]), store([1.0, 2.0])
        b._seq = a._seq
        [shared] = shared_containers([Holder(a), Holder(b)])
        assert shared.paths == {0: "window._seq", 1: "window._seq"}


class TestIndexedOperator:
    """A hash-indexed MJoin whose windows build tables: the walk reaches
    each store through its own path, and the index's frozen plan is a
    few flat lists, not a list per partition."""

    @pytest.fixture
    def small_tables(self, monkeypatch):
        monkeypatch.setattr(WindowIndexState, "min_index_rows", 8)

    def run(self):
        w = key_workload(seed=1, rate=24.0, duration=9.0, window=4.0,
                         basic=1.0)
        op = MJoinOperator(EquiJoin(), w.window_sizes, w.basic,
                           index="hash")
        tuples = sorted((t for tr in w.traces for t in tr.tuples),
                        key=lambda t: (t.timestamp, t.stream, t.seq))[:600]
        for t in tuples:
            op.process(t, t.timestamp)
        assert all(s.rows_pruned > 0 for s in op.windex_states)
        return op, walk_state(op)

    def test_columns_are_reached_through_the_windows(self, small_tables):
        op, nodes = self.run()
        path = {id(n.obj): n.path for n in nodes}
        for i, window in enumerate(op.windows):
            for column in ("_seq", "_ts", "_vals"):
                assert path[id(getattr(window, column))] == (
                    f"windows[{i}].{column}")

    @pytest.mark.parametrize("n_partitions", [16, 256])
    def test_plan_is_a_few_nodes_per_state(self, small_tables, monkeypatch,
                                           n_partitions):
        monkeypatch.setattr(WindowIndexState, "n_partitions", n_partitions)
        op, nodes = self.run()
        # not vacuous: a plan has priced whole windows
        assert any(state._plan.rows for state in op.windex_states)
        for i in range(op.num_streams):
            under = [n.path for n in nodes
                     if n.path.startswith(f"windex_states[{i}]._plan")]
            # the plan and its rows, hits and parts lists, whatever the
            # partition count
            assert len(under) == 4

    def test_catch_matrix_verdict_with_tables_built(self, small_tables,
                                                    tmp_path):
        # the matrix's index row ("mjoin-adaptive-index") never builds a
        # table on its workload; pinned hash does here, and its shards
        # must pass every gate as that harmless row does
        row = Row("mjoin-hash-index", False, each(MJoinOperator, index="hash"))
        got = cells(row, key_workload(seed=1, duration=4.0), tmp_path)
        assert tuple(got.values()) == EXPECTED.get(
            "mjoin-adaptive-index", ("",) * 5)
