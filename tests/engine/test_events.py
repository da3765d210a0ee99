"""Tests for the event queue's ordering semantics."""

import itertools
import random

import pytest

from repro.engine import Event, EventKind, EventQueue


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        q.push(3.0, EventKind.ARRIVAL, "late")
        q.push(1.0, EventKind.ARRIVAL, "early")
        q.push(2.0, EventKind.ARRIVAL, "mid")
        assert [q.pop().payload for _ in range(3)] == ["early", "mid", "late"]

    def test_kind_breaks_time_ties(self):
        q = EventQueue()
        q.push(1.0, EventKind.COMPLETION, "completion")
        q.push(1.0, EventKind.ADAPT, "adapt")
        q.push(1.0, EventKind.ARRIVAL, "arrival")
        kinds = [q.pop().payload for _ in range(3)]
        # adaptation observes state before the simultaneous arrival
        assert kinds == ["adapt", "arrival", "completion"]

    def test_insertion_order_breaks_full_ties(self):
        q = EventQueue()
        q.push(1.0, EventKind.ARRIVAL, "first")
        q.push(1.0, EventKind.ARRIVAL, "second")
        assert q.pop().payload == "first"
        assert q.pop().payload == "second"

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(4.0, EventKind.MEASURE)
        q.push(2.0, EventKind.MEASURE)
        assert q.peek_time() == 2.0

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(1.0, EventKind.STOP)
        assert q and len(q) == 1
        q.pop()
        assert not q


class TestTwoStores:
    """Bulk-loaded and pushed events form one queue ordered
    ``(time, kind, seq)``."""

    def test_event_order_is_the_c_level_tuple_order(self):
        # no Python-level comparison can come back unnoticed
        assert Event.__lt__ is tuple.__lt__
        assert Event(1.0, EventKind.ADAPT, 7).payload is None

    def test_schedule_numbers_entries_like_pushes(self):
        pushed, loaded = EventQueue(), EventQueue()
        entries = [(2.0, EventKind.ARRIVAL, "a"), (1.0, EventKind.STOP, None),
                   (2.0, EventKind.ARRIVAL, "b"), (1.0, EventKind.ADAPT, None)]
        for entry in entries:
            pushed.push(*entry)
        loaded.schedule(iter(entries))
        assert len(loaded) == len(pushed) == 4
        assert [loaded.pop() for _ in entries] == [
            pushed.pop() for _ in entries
        ]
        # numbering continues across the stores
        assert loaded.push(0.0, EventKind.ADAPT).seq == 4

    @pytest.mark.parametrize("scheduled_kind", list(EventKind))
    @pytest.mark.parametrize("pushed_kind", list(EventKind))
    def test_equal_time_ties_across_stores(self, scheduled_kind, pushed_kind):
        q = EventQueue()
        q.schedule([(1.0, scheduled_kind, "scheduled")])
        q.push(1.0, pushed_kind, "pushed")
        # equal kinds fall through to seq: the scheduled one came first
        first = "pushed" if pushed_kind < scheduled_kind else "scheduled"
        assert q.pop().payload == first
        assert len(q) == 1 and q
        q.pop()
        assert not q

    def test_len_bool_peek_over_both_stores(self):
        q = EventQueue()
        q.schedule([(5.0, EventKind.STOP, None), (3.0, EventKind.ARRIVAL, 0)])
        assert q and len(q) == 2 and q.peek_time() == 3.0
        q.push(1.0, EventKind.COMPLETION)
        assert len(q) == 3 and q.peek_time() == 1.0
        assert q.pop().kind is EventKind.COMPLETION  # heap head
        assert q.peek_time() == 3.0                  # scheduled head
        q.pop()
        q.push(9.0, EventKind.COMPLETION)
        assert q.peek_time() == 5.0
        q.pop()
        assert len(q) == 1 and q.peek_time() == 9.0  # only the heap left
        q.pop()
        assert not q and len(q) == 0 and q.peek_time() is None
        with pytest.raises(IndexError):
            q.pop()

    @pytest.mark.parametrize("seed", range(8))
    def test_pop_order_equals_sorted_under_interleaving(self, seed):
        """A bulk load, pushes between pops, a second bulk load after
        pops: every pop is the ``(time, kind, seq)`` minimum of what is
        queued, with ``seq`` counting bulk entries and pushes alike."""
        rng = random.Random(seed)
        kinds = list(EventKind)
        q = EventQueue()
        queued = []  # the reference: plain (time, kind, seq, payload)
        seq = itertools.count()

        def entries(count):
            # few distinct times, so ties in time and kind are common
            return [(float(rng.randrange(12)), rng.choice(kinds), rng.random())
                    for _ in range(count)]

        def enqueue(batch, how):
            how(batch)
            for time, kind, payload in batch:
                queued.append((time, kind, next(seq), payload))

        def push_each(batch):
            for entry in batch:
                q.push(*entry)

        enqueue(entries(200), lambda batch: q.schedule(iter(batch)))
        popped = []
        for step in range(150):
            enqueue(entries(rng.randrange(3)), push_each)
            if step == 60:
                enqueue(entries(50), q.schedule)
            assert len(q) == len(queued)
            expected = min(queued, key=lambda e: e[:3])
            assert q.peek_time() == expected[0]
            popped.append(q.pop())
            assert tuple(popped[-1]) == expected
            queued.remove(expected)
        drained = []
        while q:
            drained.append(q.pop())
        assert drained == sorted(queued, key=lambda e: e[:3])
        assert sorted(e.seq for e in popped + drained) == list(
            range(next(seq))
        )


class TestPrecedes:
    """``precedes(time, kind)``: would an event sort strictly before every
    queued one?  Only ``(time, kind)`` counts; a tie goes to the queue."""

    def test_empty_queue_is_preceded_by_anything(self):
        assert EventQueue().precedes(1e9, EventKind.STOP)

    @pytest.mark.parametrize("store", ["scheduled", "heap"])
    @pytest.mark.parametrize("queued_kind", list(EventKind))
    @pytest.mark.parametrize("kind", list(EventKind))
    def test_every_kind_pair_in_each_store(self, store, queued_kind, kind):
        q = EventQueue()
        if store == "scheduled":
            q.schedule([(1.0, queued_kind, None)])
        else:
            q.push(1.0, queued_kind)
        # equal times: strictly lower kinds only, never an equal kind
        assert q.precedes(1.0, kind) is (kind < queued_kind)
        assert q.precedes(0.5, kind)
        assert not q.precedes(1.5, kind)
        assert len(q) == 1  # a query, not a pop

    @pytest.mark.parametrize("kind", list(EventKind))
    def test_both_heads_are_consulted(self, kind):
        q = EventQueue()
        q.schedule([(2.0, EventKind.ARRIVAL, None)])
        q.push(1.0, EventKind.COMPLETION)
        assert q.precedes(1.0, kind) is (kind < EventKind.COMPLETION)
        assert not q.precedes(1.5, kind)
        q.pop()  # only the scheduled ARRIVAL at 2.0 is left
        assert q.precedes(1.5, kind)
        assert q.precedes(2.0, kind) is (kind < EventKind.ARRIVAL)

    def test_seq_never_decides(self):
        # however late the queued event was pushed, a tie on
        # (time, kind) is not precedence
        q = EventQueue()
        for _ in range(5):
            q.push(0.0, EventKind.MEASURE)
            q.pop()
        q.push(3.0, EventKind.COMPLETION)
        assert q._heap[0].seq == 5
        assert not q.precedes(3.0, EventKind.COMPLETION)
        assert q.precedes(3.0, EventKind.ARRIVAL)

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_the_next_pop(self, seed):
        rng = random.Random(seed)
        kinds = list(EventKind)
        q = EventQueue()
        q.schedule([(float(rng.randrange(6)), rng.choice(kinds), None)
                    for _ in range(40)])
        for _ in range(30):
            q.push(float(rng.randrange(6)), rng.choice(kinds))
            time, kind = float(rng.randrange(6)), rng.choice(kinds)
            answer = q.precedes(time, kind)
            # the next pop carries the smallest queued (time, kind)
            assert answer is ((time, kind) < q.pop()[:2])
