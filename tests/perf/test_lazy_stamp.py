"""Result blocks are stamped lazily, with the times eager stamping gave.

The runtime stamps a completion's operator-owned results with the
completion time.  A columnar :class:`ResultBlock` takes the time as a
whole (:meth:`ResultBlock.stamp`) and hands it to its ``JoinResult``
objects when they are built, or sets it on the ones already built.  The
reference for every check here is the same run with each receipt's
outputs turned into a plain list inside ``process``, so that the runtime
stamps every result one by one, as it did before blocks were stamped
lazily: both runs must give the same results with the same timestamps.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.grubjoin import GrubJoinOperator
from repro.core.throttle import FixedThrottle
from repro.engine import CpuModel, DataflowGraph, Simulation
from repro.engine.basic_ops import FilterOperator
from repro.joins import MJoinOperator
from repro.joins.columnar import ResultBlock, run_pipeline_columnar
from repro.joins.predicates import EquiJoin
from repro.streams.tuples import StreamTuple
from repro.testkit.differential import run_config
from repro.testkit.workloads import key_workload

from .test_kernel import build_windows

#: slow enough that services queue: completion times differ from arrivals
CAPACITY = 4e3


@pytest.fixture
def stamps(monkeypatch):
    """Whether each :meth:`ResultBlock.stamp` call found its block's
    results already built."""
    seen: list[bool] = []
    stamp = ResultBlock.stamp

    def recording(self, now):
        seen.append(self.materialized)
        return stamp(self, now)

    monkeypatch.setattr(ResultBlock, "stamp", recording)
    return seen


def eager(operator):
    """Make ``operator`` hand the runtime plain lists, which it stamps
    result by result."""
    process = operator.process

    def listing(tup, now):
        receipt = process(tup, now)
        receipt.outputs = list(receipt.outputs)
        return receipt

    operator.process = listing
    return operator


def stamped(outputs) -> list[tuple]:
    return [(r.key(), r.timestamp) for r in outputs]


def run_sim(workload, make_operator, lazy: bool) -> list[tuple]:
    operator = make_operator(workload)
    if not lazy:
        eager(operator)
    sim = Simulation(workload.traces, operator, CpuModel(CAPACITY),
                     run_config(workload), retain_outputs=True)
    sim.run()
    return stamped(sim.output_buffer.results)


def mjoin(mode):
    def make(w):
        return MJoinOperator(w.predicate, w.window_sizes, w.basic, mode=mode)
    return make


def grubjoin(w):
    op = GrubJoinOperator(w.predicate, w.window_sizes, w.basic,
                          rng=w.seed + 101)
    op.throttle = FixedThrottle(0.35)
    return op


@pytest.mark.parametrize("mode", ["inner", "outer"])
def test_mjoin_results_carry_the_eager_stamps(mode, stamps):
    workload = key_workload(3, rate=30.0, duration=6.0, n_keys=6)
    lazy = run_sim(workload, mjoin(mode), lazy=True)
    assert lazy == run_sim(workload, mjoin(mode), lazy=False)
    assert len({t for _, t in lazy}) > 10  # many distinct completions
    if mode == "inner":
        # retention built every block after its stamp
        assert stamps and not any(stamps)


def test_grubjoin_results_carry_the_eager_stamps(stamps):
    """Shredded probes feed their results to the lag histograms inside
    ``process``, which builds their blocks before the runtime stamps
    them; harvested blocks are still unbuilt then."""
    workload = key_workload(5, rate=20.0, duration=8.0, n_keys=8)
    lazy = run_sim(workload, grubjoin, lazy=True)
    assert lazy == run_sim(workload, grubjoin, lazy=False)
    assert any(stamps) and not all(stamps)


def test_edge_transform_reads_the_stamp(stamps):
    """A downstream edge's transform builds the results of a block the
    runtime stamped but did not retain, and sees the stamp."""

    def run(lazy: bool) -> list[tuple]:
        workload = key_workload(3, rate=30.0, duration=6.0, n_keys=6)
        join = mjoin("inner")(workload)
        if not lazy:
            eager(join)
        seen = []

        def transform(result):
            seen.append((result.key(), result.timestamp))
            return StreamTuple(result.timestamp, result.timestamp)

        graph = DataflowGraph()
        graph.add_node("join", join)
        graph.add_node("sink", FilterOperator(lambda value: True))
        for i, trace in enumerate(workload.traces):
            graph.add_source("join", i, trace)
        graph.connect("join", "sink", transform=transform)
        graph.run(CpuModel(CAPACITY), run_config(workload))
        return seen

    lazy = run(lazy=True)
    assert lazy and lazy == run(lazy=False)
    assert stamps and not any(stamps)


@pytest.mark.parametrize("built_first", [False, True])
def test_stamp_survives_pickling(built_first):
    windows = build_windows(7, m=3, per_stream=60, keys=[1.0, 2.0])
    tup = StreamTuple(value=1.0, timestamp=10.0, stream=0, seq=1)
    block = run_pipeline_columnar(
        tup, [1, 2], lambda hop, ws: windows[ws].full_slices(10.0),
        EquiJoin(),
    ).outputs
    assert isinstance(block, ResultBlock) and len(block) > 1
    if built_first:
        list(block)
    block.stamp(12.5)
    copy = pickle.loads(pickle.dumps(block))
    assert [r.timestamp for r in copy] == [12.5] * len(block)
    assert copy == block
