"""The join substrate contract: ``MJoinOperator`` is the one class that
builds windows / orders / kernel / index state / obs counters and charges
a receipt; the other four join operators subclass it and change only the
probe (or, for GrubJoin, ``process``)."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import GrubJoinOperator
from repro.core.basic_windows import SCALAR, PartitionedWindow
from repro.core.indexing import SortedWindowIndex
from repro.engine.operator import ProcessReceipt
from repro.joins import (
    AdaptiveTwoWayJoin,
    BandJoin,
    EpsilonJoin,
    EquiJoin,
    IndexedMJoin,
    MemoryLimitedMJoin,
    MJoinOperator,
    run_pipeline,
)
from repro.joins.join_order import default_orders
from repro.joins.variants import JoinMode, ModeState
from repro.obs import Obs
from repro.streams.tuples import JoinResult, StreamTuple
from repro.streams.windows import resolve_policy


def build(cls, predicate=None, m=2, **kwargs):
    """Any of the five operators over ``m`` 10 s windows, b = 1 s."""
    predicate = EquiJoin() if predicate is None else predicate
    if cls is AdaptiveTwoWayJoin:
        m = 2
    if cls is MemoryLimitedMJoin:
        kwargs.setdefault("memory_budget", 10**6)
    if cls in (GrubJoinOperator, AdaptiveTwoWayJoin, MemoryLimitedMJoin):
        kwargs.setdefault("rng", 0)
    return cls(predicate, [10.0] * m, 1.0, **kwargs)


FIVE = [
    MJoinOperator,
    GrubJoinOperator,
    IndexedMJoin,
    AdaptiveTwoWayJoin,
    MemoryLimitedMJoin,
]
#: GrubJoin runs on MJoin's default join orders and output charge
TAKE_ORDERS = [MJoinOperator, IndexedMJoin]
TAKE_OUTPUT_COST = [cls for cls in FIVE if cls is not GrubJoinOperator]


class TestOneSubstrate:
    @pytest.mark.parametrize("cls", FIVE)
    def test_is_an_mjoin(self, cls):
        assert issubclass(cls, MJoinOperator)

    @pytest.mark.parametrize("cls", TAKE_OUTPUT_COST)
    def test_negative_output_cost_is_the_bases_error(self, cls):
        with pytest.raises(ValueError, match="output_cost must be non-neg"):
            build(cls, output_cost=-1.0)

    @pytest.mark.parametrize("cls", TAKE_ORDERS)
    def test_bad_orders_is_the_bases_error(self, cls):
        with pytest.raises(
            ValueError,
            match=r"direction 0: order \[0, 2\] is not a permutation",
        ):
            build(cls, m=3, orders=[[0, 2], [0, 2], [0, 1]])

    @pytest.mark.parametrize("cls", FIVE)
    def test_profile_has_the_oracles_five_keys(self, cls):
        assert set(build(cls).testkit_profile()) == {
            "predicate", "window_sizes", "basic_window_size",
            "mode", "window_policy",
        }

    @pytest.mark.parametrize("cls", FIVE)
    def test_bind_obs_registers_the_same_families(self, cls):
        def substrate_instruments(operator):
            obs = Obs()
            operator.bind_obs(obs, node="j")
            return sorted(
                (inst.name, inst.labels)
                for inst in obs.registry.collect()
                if inst.name == "direction_comparisons_total"
                or inst.name.startswith("windex_")
            )

        expected = substrate_instruments(build(MJoinOperator))
        assert {name for name, _ in expected} == {
            "direction_comparisons_total", "windex_kind",
            "windex_partitions_total", "windex_rows_total",
            "windex_rebuilds_total", "windex_switch_total",
        }
        assert substrate_instruments(build(cls)) == expected

    @pytest.mark.parametrize("cls", TAKE_OUTPUT_COST)
    @pytest.mark.parametrize("matches, charged", [(1, 1), (3, 2)])
    def test_fractional_output_cost_is_rounded(self, cls, matches, charged):
        """0.6 per result: one result costs round(0.6) = 1 (not
        int(0.6) = 0), three cost round(1.8) = 2 (not 1)."""
        op = build(cls, output_cost=0.6)
        for seq in range(matches):
            now = 0.1 * seq
            op.process(StreamTuple(5.0, now, stream=0, seq=seq), now)
        before = op.comparisons_total
        receipt = op.process(StreamTuple(5.0, 0.5, stream=1, seq=0), 0.5)
        assert len(receipt.outputs) == matches
        probe_cost = op.comparisons_total - before
        assert probe_cost > 0
        assert receipt.comparisons == probe_cost + charged


def fill(values_per_stream):
    windows = []
    for stream, values in enumerate(values_per_stream):
        pw = PartitionedWindow(4.0, 1.0, mode=SCALAR)
        for seq, value in enumerate(values):
            ts = 0.3 * seq
            pw.insert(StreamTuple(value, ts, stream=stream, seq=seq), ts)
        windows.append(pw)
    return windows


class TestBlockProbeStrategy:
    """``run_pipeline(probe=...)``: the per-(partial, slice) strategy."""

    NOW = 3.0
    VALUES = [
        [],
        [1.0, 2.0, 4.0, 2.5, 1.5, 3.0, 2.0, 0.5, 2.2, 9.0],
        [2.0, 2.1, 7.0, 1.9, 2.4, 3.3, 2.0, 1.0, 2.6, 2.2],
    ]

    def run(self, predicate, probe=None):
        windows = fill(self.VALUES)
        tup = StreamTuple(2.0, self.NOW, stream=0, seq=0)
        return run_pipeline(
            tup, [1, 2],
            lambda hop, l: windows[l].full_slices(self.NOW),
            predicate, probe=probe,
        )

    @pytest.mark.parametrize(
        "predicate", [EpsilonJoin(0.6), BandJoin(0.1, 1.0)]
    )
    def test_flat_scan_strategy_reproduces_the_default(self, predicate):
        default = self.run(predicate)
        explicit = self.run(
            predicate,
            lambda context, s: (
                predicate.probe_block(context, s.values), len(s)
            ),
        )
        assert default.outputs
        assert [r.key() for r in explicit.outputs] == [
            r.key() for r in default.outputs
        ]
        assert explicit.comparisons == default.comparisons
        assert explicit.hop_stats == default.hop_stats

    def test_a_different_cost_changes_only_the_charge(self):
        predicate = EpsilonJoin(0.6)
        default = self.run(predicate)
        unit = self.run(
            predicate,
            lambda context, s: (
                predicate.probe_block(context, s.values), 1
            ),
        )
        assert [r.key() for r in unit.outputs] == [
            r.key() for r in default.outputs
        ]
        assert [h.matched for h in unit.hop_stats] == [
            h.matched for h in default.hop_stats
        ]
        assert unit.comparisons == sum(h.scanned for h in unit.hop_stats)
        assert 0 < unit.comparisons < default.comparisons


class ParentIndexedJoin:
    """Verbatim copy of the probe loop ``IndexedMJoin.process`` carried
    before it became a block-probe strategy of ``run_pipeline`` — the
    reference the seam is diffed against."""

    def __init__(self, predicate, window_sizes, basic, mode, policy):
        self.num_streams = len(window_sizes)
        self.predicate = predicate
        self.mode = JoinMode(mode)
        self.windows = [
            PartitionedWindow(w, basic, mode=SCALAR,
                              policy=resolve_policy(policy))
            for w in window_sizes
        ]
        self._modes = (
            None
            if self.mode is JoinMode.INNER
            else ModeState(
                self.mode,
                [pw.n * pw.basic_window_size for pw in self.windows],
            )
        )
        self.orders = default_orders(self.num_streams)
        self.output_cost = 2.0
        self.index = SortedWindowIndex()

    def process(self, tup, now):
        self.windows[tup.stream].insert(tup, now)
        work = 0
        partials = [[tup]]
        for hop, window_stream in enumerate(self.orders[tup.stream]):
            slices = self.windows[window_stream].full_slices(now)
            next_partials = []
            hop_work = 0
            for partial in partials:
                low, high = self.predicate.probe_context(
                    [t.value for t in partial]
                )
                for s in slices:
                    hits, cost = self.index.range_probe(s, low, high)
                    hop_work += cost
                    for idx in hits:
                        next_partials.append(
                            partial + [s.tuple_at(int(idx))]
                        )
            work += hop_work
            partials = next_partials
            if not partials:
                break
        outputs = (
            [
                JoinResult(tuple(sorted(p, key=lambda t: t.stream)))
                for p in partials
            ]
            if partials and len(partials[0]) == self.num_streams
            else []
        )
        if self._modes is not None:
            outputs = self._modes.observe(tup, outputs, now)
        total = work + int(self.output_cost * len(outputs))
        return ProcessReceipt(comparisons=total, outputs=outputs)

    def on_finish(self, now):
        return [] if self._modes is None else self._modes.flush(now)


#: (stream, gap to the previous arrival, value) — values from a small
#: grid so both the equi- and the epsilon-join find partners
TRACE = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from([0.0, 0.05, 0.3, 0.9, 2.5]),
        st.integers(0, 4),
    ),
    min_size=1,
    max_size=50,
)


class TestIndexedSeamAgainstTheLoopItReplaced:
    @settings(max_examples=60, deadline=None)
    @given(
        trace=TRACE,
        predicate=st.sampled_from([EquiJoin(), EpsilonJoin(1.0)]),
        mode=st.sampled_from(["inner", "semi", "anti"]),
        policy=st.sampled_from(["sliding", "tumbling", "session:0.5"]),
    )
    def test_receipts_and_ordered_results_are_identical(
        self, trace, predicate, mode, policy
    ):
        sizes, basic = [3.0] * 3, 1.0
        op = IndexedMJoin(predicate, sizes, basic, mode=mode,
                          window_policy=policy)
        ref = ParentIndexedJoin(predicate, sizes, basic, mode, policy)
        now = 0.0
        seqs = [0, 0, 0]
        for stream, gap, value in trace:
            now += gap
            tup = StreamTuple(float(value), now, stream=stream,
                              seq=seqs[stream])
            seqs[stream] += 1
            got = op.process(tup, now)
            want = ref.process(tup, now)
            assert got.comparisons == want.comparisons
            assert [r.key() for r in got.outputs] == [
                r.key() for r in want.outputs
            ]
        assert [r.key() for r in op.on_finish(now + 10.0)] == [
            r.key() for r in ref.on_finish(now + 10.0)
        ]


class TestSingleConstructionSite:
    """A second copy of the substrate's constructor must not come back:
    the state-building calls appear in ``joins/mjoin.py`` only."""

    SRC = Path(repro.__file__).resolve().parent
    CALLS = (
        "PartitionedWindow", "select_kernel", "check_index_compat",
        "make_index_states", "validate_order", "ModeState",
    )

    def sources(self):
        return [
            *sorted((self.SRC / "joins").glob("*.py")),
            self.SRC / "core" / "grubjoin.py",
        ]

    def test_state_is_built_in_mjoin_only(self):
        sites = {name: set() for name in self.CALLS}
        for path in self.sources():
            source = path.read_text()
            for name in self.CALLS:
                # calls, not the function's own ``def name(``
                if re.search(rf"(?<!def )\b{name}\(", source):
                    sites[name].add(path.name)
        assert sites == {name: {"mjoin.py"} for name in self.CALLS}

    def test_only_mjoin_derives_from_stream_operator(self):
        bases = {
            path.name
            for path in self.sources()
            if re.search(r"^class \w+\([^)]*\bStreamOperator\b",
                         path.read_text(), flags=re.M)
        }
        assert bases == {"mjoin.py"}
