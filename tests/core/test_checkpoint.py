"""Snapshots: a pickled join operator is its own checkpoint.

``pickle.loads(pickle.dumps(op))`` taken mid-run continues bit-identically
to the operator it was taken from: the same comparisons and results for
every later tuple, the same adaptation decisions at the same ticks and
the same end-of-run flush, and its state digests
(:func:`repro.lint.stategraph.walk_state`) equal the original's, path by
path, right after the restore and after the last event.  Telemetry is not
state: the copy comes back unbound (``obs`` and every ``_obs*`` handle
``None``) and is re-bound with ``bind_obs``.
"""

import json
import math
import pickle
from contextlib import nullcontext
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import GrubJoinOperator
from repro.core.harvesting import HarvestConfiguration
from repro.core.windex import WindowIndexState
from repro.engine import BufferStats
from repro.engine.operator import is_telemetry_attr
from repro.joins import (
    AdaptiveTwoWayJoin,
    EpsilonJoin,
    EquiJoin,
    IndexedMJoin,
    InnerProductJoin,
    MemoryLimitedMJoin,
    MJoinOperator,
    RandomDropShedder,
    VectorDistanceJoin,
)
from repro.lint.stategraph import walk_state
from repro.obs import Obs
from repro.streams import StreamTuple
from repro.timing import ManualTimer

WINDOW, BASIC, DURATION, ADAPT = 2.0, 0.5, 6.0, 1.0
#: arrivals per stream per second: 12 rows per basic window
RATE = 24.0
#: share of tuples delivered late (by 0.05-0.4 s), each a late insert
LATE = 0.1
#: partition-index constants at which these hand-sized windows build
#: tables (the class defaults want hundreds of rows per basic window)
SMALL_TABLES = {"min_index_rows": 8, "min_samples": 32}

KINDS = ("mjoin", "grubjoin", "indexed", "two_way", "memory")
#: the operators that take an ``index=`` spec
INDEXABLE = ("mjoin", "grubjoin")
#: the operators that take a join ``mode=``
MODAL = ("mjoin", "indexed")


@dataclass(frozen=True)
class Case:
    """One run: the operator, its workload and where it is snapshotted."""

    kind: str
    storage: str        # "scalar" / "vector" / "generic"
    mode: str           # "inner" / "semi" / "anti" / "outer"
    equi: bool          # scalar keys joined by EquiJoin, else EpsilonJoin
    small_tables: bool  # run under SMALL_TABLES
    seed: int
    cut_at: str         # "any" / "rotation" / "late"
    cut: float          # which candidate cut point, as a fraction

    def for_index(self, index):
        """The case as it runs under ``index``: an index spec needs an
        indexable operator over scalar storage, hash a radius-0
        predicate and range a nonzero one."""
        case = self
        if index is not None:
            case = replace(
                case, storage="scalar",
                kind=case.kind if case.kind in INDEXABLE else "mjoin",
            )
        if case.kind == "indexed":
            case = replace(case, storage="scalar")
        if case.kind not in MODAL:
            case = replace(case, mode="inner")
        if index in ("hash", "range"):
            case = replace(case, equi=index == "hash")
        return case


cases = st.builds(
    Case,
    kind=st.sampled_from(KINDS),
    storage=st.sampled_from(("scalar", "vector", "generic")),
    mode=st.sampled_from(("inner", "semi", "anti", "outer")),
    equi=st.booleans(),
    small_tables=st.booleans(),
    seed=st.integers(0, 2**16),
    cut_at=st.sampled_from(("any", "rotation", "late")),
    cut=st.floats(0.0, 1.0, exclude_max=True),
)

#: what the old field-by-field GrubJoin snapshot got wrong: a
#: range-indexed GrubJoin whose windows build partition tables,
#: snapshotted once the index is active
FOUND = Case(kind="grubjoin", storage="scalar", mode="inner", equi=False,
             small_tables=True, seed=3, cut_at="any", cut=0.5)
#: a hash-indexed MJoin snapshotted while its frozen plan still holds
#: windows it has not fetched: the plan's marker must pickle as itself
UNFETCHED = Case(kind="mjoin", storage="scalar", mode="inner", equi=True,
                 small_tables=False, seed=1, cut_at="any", cut=0.5)


def build(case: Case, index):
    m = 2 if case.kind == "two_way" else 3
    predicate = {
        "scalar": EquiJoin() if case.equi else EpsilonJoin(0.5),
        "vector": VectorDistanceJoin(1.0, dim=2),
        "generic": InnerProductJoin(1.0),
    }[case.storage]
    windows = [WINDOW] * m
    if case.kind == "mjoin":
        return MJoinOperator(predicate, windows, BASIC, mode=case.mode,
                             index=index)
    if case.kind == "grubjoin":
        return GrubJoinOperator(predicate, windows, BASIC, rng=case.seed,
                                index=index)
    if case.kind == "indexed":
        return IndexedMJoin(predicate, windows, BASIC, mode=case.mode)
    if case.kind == "two_way":
        return AdaptiveTwoWayJoin(predicate, windows, BASIC, rng=case.seed)
    return MemoryLimitedMJoin(predicate, windows, BASIC, memory_budget=100,
                              rng=case.seed)


def schedule(case: Case, m: int) -> list:
    """The run as events in delivery order: ``("tuple", t)`` and, every
    ``ADAPT`` seconds, ``("adapt", now, stats)`` with 3/4 of each
    stream's arrivals consumed, so the throttles move."""
    rng = np.random.default_rng(case.seed)
    tuples = []
    for stream in range(m):
        count = rng.poisson(RATE * DURATION)
        times = np.sort(rng.uniform(0.0, DURATION, count))
        for seq, ts in enumerate(times.tolist()):
            if case.storage == "vector":
                value = rng.uniform(0.0, 6.0, 2)
            elif case.storage == "generic":
                value = {f"k{rng.integers(12)}": 1.0}
            elif case.equi:
                value = float(rng.integers(20))
            else:
                value = float(rng.uniform(0.0, 20.0))
            late = rng.random() < LATE
            delivery = ts + float(rng.uniform(0.05, 0.4)) if late else None
            tuples.append(StreamTuple(value, ts, stream, seq, delivery))
    tuples.sort(key=lambda t: (t.delivery_time, t.stream, t.seq))
    events, pushed, next_adapt = [], [0] * m, ADAPT
    for t in tuples:
        while t.delivery_time >= next_adapt:
            stats = [BufferStats(pushed=p, popped=p - p // 4, dropped=0,
                                 depth=p // 4) for p in pushed]
            events.append(("adapt", next_adapt, stats))
            pushed, next_adapt = [0] * m, next_adapt + ADAPT
        pushed[t.stream] += 1
        events.append(("tuple", t))
    return events


def cut_point(case: Case, events: list) -> int:
    """The index of the last event before the snapshot: any event, a
    tuple on either side of a basic-window boundary (one window has
    rotated, the others not yet), or a late insert."""
    if case.cut_at == "any":
        candidates = list(range(len(events)))
    elif case.cut_at == "late":
        candidates = [i for i, e in enumerate(events)
                      if e[0] == "tuple" and e[1].delivery is not None]
    else:
        candidates, last = [], 0
        for i, e in enumerate(events):
            if e[0] == "tuple":
                k = math.floor(e[1].delivery_time / BASIC)
                if k > last:
                    candidates += [i - 1, i]
                last = k
    return candidates[int(case.cut * len(candidates))]


def digests(op) -> list:
    """The operator's state, path by path (:func:`walk_state`)."""
    return [(n.path, n.digest) for n in walk_state(op)]


def drive(op, events: list, state: bool = False) -> list:
    """Feed ``events`` to ``op``; per tuple its comparisons and result
    keys, per tick nothing (what a tick decides shows in later tuples).
    With ``state``, the operator's :func:`digests` before the first
    event and after the last one too (a walk costs milliseconds, so
    not after every event)."""
    trace = [digests(op)] if state else []
    for event in events:
        if event[0] == "adapt":
            op.on_adapt(event[1], event[2], ADAPT)
        else:
            t = event[1]
            receipt = op.process(t, t.delivery_time)
            trace.append((receipt.comparisons,
                          [r.key() for r in receipt.outputs]))
    return trace + [digests(op)] if state else trace


def finish(op) -> list:
    return sorted(r.key() for r in op.on_finish(DURATION + 1.0))


def pickled(op, now: float):
    return pickle.loads(pickle.dumps(op))


def index_constants(small: bool):
    return (mock.patch.multiple(WindowIndexState, **SMALL_TABLES) if small
            else nullcontext())


def continues_identically(case: Case, index, snapshot=pickled,
                          state: bool = False):
    """Run ``case`` to its cut, snapshot, then continue the operator and
    its restored copy side by side; return the restored copy's trace and
    the original's (with their state digests, if ``state``)."""
    with index_constants(case.small_tables):
        original = build(case, index)
        events = schedule(case, original.num_streams)
        cut = cut_point(case, events) + 1
        drive(original, events[:cut])
        last = events[cut - 1]
        now = last[1] if last[0] == "adapt" else last[1].delivery_time
        restored = snapshot(original, now)
        want = drive(original, events[cut:], state) + [finish(original)]
        got = drive(restored, events[cut:], state) + [finish(restored)]
        return got, want


class TestSnapshotRestore:
    @pytest.mark.parametrize("index", [None, "hash", "range", "adaptive"],
                             ids=["none", "hash", "range", "adaptive"])
    @settings(max_examples=20, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @example(case=FOUND)
    @example(case=UNFETCHED)
    @given(case=cases)
    def test_restored_operator_continues_identically(self, index, case):
        """The property: snapshot, restore, continue ≡ the uninterrupted
        run, per tuple (comparisons and result keys), in state (digests
        at the cut and at the end) and at the flush."""
        got, want = continues_identically(case.for_index(index), index,
                                          state=True)
        assert got == want

    def test_json_restore_missed_index_state(self):
        """``FOUND`` told apart: the field-by-field JSON copy
        (``core.checkpoint``, deleted) starts the range index over
        (flat), so the restored operator is charged differently; the
        pickle is not."""
        got, want = continues_identically(FOUND, "range",
                                          snapshot=json_restored)
        assert [c for c, _ in got[:-1]] != [c for c, _ in want[:-1]]
        got, want = continues_identically(FOUND, "range")
        assert got == want


class TestTelemetryIsNotState:
    def test_bound_operator_pickles_unbound(self):
        op = MJoinOperator(EpsilonJoin(0.5), [WINDOW] * 3, BASIC,
                           index="adaptive")
        shedder = RandomDropShedder(op, 1e4, rng=1)
        for part in (op, *shedder.filters):
            part.bind_obs(Obs(), node="join")
        events = schedule(FOUND, 3)
        drive(op, events[:50])
        for part in (op, *shedder.filters):
            copy = pickle.loads(pickle.dumps(part))
            telemetry = {n: v for n, v in vars(copy).items()
                         if is_telemetry_attr(n)}
            assert "obs" in telemetry and len(telemetry) > 1
            assert all(v is None for v in telemetry.values())
            assert part.obs is not None  # the original stays bound
        copy = pickle.loads(pickle.dumps(op))
        copy.bind_obs(Obs(), node="join")
        assert drive(copy, events[50:]) == drive(op, events[50:])

    @pytest.mark.parametrize("kind", ["mjoin", "grubjoin"])
    def test_results_identical_with_obs_on_and_off(self, kind):
        """Two copies of one snapshot, one re-bound to an ``Obs``: the
        telemetry changes nothing they compute."""
        case = replace(FOUND, kind=kind)
        with index_constants(True):
            op = build(case, "range")
            op.bind_obs(Obs())
            events = schedule(case, 3)
            cut = len(events) // 2
            drive(op, events[:cut])
            blob = pickle.dumps(op)
            on, off = pickle.loads(blob), pickle.loads(blob)
            on.bind_obs(Obs(), node="join")
            assert (drive(on, events[cut:]) + [finish(on)]
                    == drive(off, events[cut:]) + [finish(off)])

    def test_manual_timer_round_trips(self):
        """A GrubJoin timed by a ``ManualTimer`` carries the timer's
        reading, and its own copy of it, through the snapshot."""
        timer = ManualTimer(start=2.0)
        op = GrubJoinOperator(EpsilonJoin(0.5), [WINDOW] * 3, BASIC, rng=1,
                              solver_timer=timer)
        events = schedule(FOUND, 3)
        drive(op, events[: len(events) // 2])
        copy = pickle.loads(pickle.dumps(op))
        assert isinstance(copy.solver_timer, ManualTimer)
        assert copy.solver_timer is not timer and copy.solver_timer() == 2.0
        timer.advance(1.0)
        assert copy.solver_timer() == 2.0
        copy.solver_timer.advance(1.0)
        rest = events[len(events) // 2:]
        assert drive(copy, rest) == drive(op, rest)
        assert copy.solver_seconds_total == op.solver_seconds_total


# ----------------------------------------------------------------------
# the field-by-field GrubJoin snapshot of the deleted core.checkpoint,
# kept here only to pin what it missed (the partition-index state)
# ----------------------------------------------------------------------


def json_restored(op: GrubJoinOperator, now: float) -> GrubJoinOperator:
    """A fresh GrubJoin loaded from a JSON copy of ``op``'s windows,
    histograms, selectivities, throttle, orders, harvest, rates and RNG.
    """
    for window in op.windows:
        window.rotate_to(now)
    state = json.loads(json.dumps({
        "windows": [
            [[t.value, t.timestamp, t.stream, t.seq, t.delivery]
             for t in window.iter_unexpired(now)]
            for window in op.windows
        ],
        "histograms": [None if h is None else h.counts.tolist()
                       for h in op.histograms],
        "scanned": [[*k, v] for k, v in op.selectivity._scanned.items()],
        "matched": [[*k, v] for k, v in op.selectivity._matched.items()],
        "throttle": [op.throttle.z, op.throttle.last_beta],
        "orders": op.orders,
        "counts": op.harvest.counts.tolist(),
        "rankings": [[r.tolist() for r in per_dir]
                     for per_dir in op.harvest.rankings],
        "rates": op._rates.tolist(),
        "rng": op._rng.bit_generator.state,
    }))
    fresh = GrubJoinOperator(op.predicate, op.window_sizes,
                             op.basic_window_size, index=op.index_spec)
    for window, rows in zip(fresh.windows, state["windows"]):
        window.rotate_to(now)
        for row in sorted(rows, key=lambda r: r[1]):
            window.insert(StreamTuple(*row), now=now)
    for h, counts in zip(fresh.histograms, state["histograms"]):
        if h is not None:
            h.counts[:] = counts
            h.version += 1
    fresh.selectivity._scanned = {(i, l): v for i, l, v in state["scanned"]}
    fresh.selectivity._matched = {(i, l): v for i, l, v in state["matched"]}
    fresh.throttle.z, fresh.throttle.last_beta = state["throttle"]
    fresh.orders = state["orders"]
    fresh.harvest = HarvestConfiguration(
        np.asarray(state["counts"], dtype=float),
        [[np.asarray(r, dtype=int) for r in per_dir]
         for per_dir in state["rankings"]],
    )
    fresh._rates = np.asarray(state["rates"], dtype=float)
    fresh._rng.bit_generator.state = state["rng"]
    return fresh
