"""Tests for stream tuples and join results."""

import copy
import pickle

import pytest

from repro.streams import JoinResult, StreamTuple


class TestStreamTuple:
    def test_fields(self):
        t = StreamTuple(value=3.5, timestamp=10.0, stream=2, seq=7)
        assert t.value == 3.5
        assert t.timestamp == 10.0
        assert t.stream == 2
        assert t.seq == 7

    def test_defaults(self):
        t = StreamTuple(value=1.0, timestamp=0.0)
        assert t.stream == 0
        assert t.seq == 0

    def test_age(self):
        t = StreamTuple(value=0.0, timestamp=4.0)
        assert t.age(10.0) == 6.0

    def test_age_can_be_negative_for_future_reference(self):
        t = StreamTuple(value=0.0, timestamp=4.0)
        assert t.age(3.0) == -1.0

    def test_expired_boundary(self):
        t = StreamTuple(value=0.0, timestamp=5.0)
        # T(t) >= T - w keeps the tuple (paper Section 2)
        assert not t.expired(now=15.0, window_size=10.0)
        assert t.expired(now=15.1, window_size=10.0)

    def test_not_expired_inside_window(self):
        t = StreamTuple(value=0.0, timestamp=9.0)
        assert not t.expired(now=10.0, window_size=5.0)

    def test_frozen(self):
        t = StreamTuple(value=0.0, timestamp=0.0)
        with pytest.raises(AttributeError):
            t.timestamp = 5.0

    @pytest.mark.parametrize("delivery", [None, 12.25])
    @pytest.mark.parametrize(
        "clone",
        [
            copy.copy,
            copy.deepcopy,
            *(
                lambda t, protocol=protocol: pickle.loads(
                    pickle.dumps(t, protocol)
                )
                for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
            ),
        ],
    )
    def test_reduce_round_trip(self, delivery, clone):
        """``__reduce__`` (the procs runtime's batch path) rebuilds every
        field through the constructor."""
        t = StreamTuple(value={"k": [1.5]}, timestamp=10.0, stream=2,
                        seq=7, delivery=delivery)
        again = clone(t)
        assert again is not t
        assert again == t
        assert again.delivery == delivery
        assert again.delivery_time == t.delivery_time
        flat = StreamTuple(3.5, 10.0, 2, 7, delivery)
        assert hash(clone(flat)) == hash(flat)


class TestJoinResult:
    def _make(self):
        ts = [
            StreamTuple(value=float(i), timestamp=10.0 + i, stream=i, seq=i)
            for i in range(3)
        ]
        return JoinResult(tuple(ts))

    def test_arity(self):
        assert self._make().arity == 3

    def test_lag_is_timestamp_difference(self):
        r = self._make()
        assert r.lag(2, 0) == pytest.approx(2.0)
        assert r.lag(0, 2) == pytest.approx(-2.0)

    def test_lag_self_is_zero(self):
        r = self._make()
        assert r.lag(1, 1) == 0.0

    def test_key_identifies_constituents(self):
        r1, r2 = self._make(), self._make()
        assert r1.key() == r2.key()
        other = JoinResult(
            (
                StreamTuple(value=0.0, timestamp=0.0, stream=0, seq=99),
                StreamTuple(value=0.0, timestamp=0.0, stream=1, seq=1),
                StreamTuple(value=0.0, timestamp=0.0, stream=2, seq=2),
            )
        )
        assert r1.key() != other.key()

    def test_timestamp_mutable(self):
        r = self._make()
        r.timestamp = 42.0
        assert r.timestamp == 42.0
