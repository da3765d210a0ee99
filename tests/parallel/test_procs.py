"""End-to-end tests for the process-parallel shard runtime.

The determinism contract is the headline: ``run_procs`` over real
``multiprocessing`` workers must merge the *bit-identical* identity set
the virtual-time :class:`ShardedPlan` (and the brute-force oracle)
produce on the same frozen workload — for every join mode and whatever
the transport constants are patched to.  Crash propagation and the
P126/P124 worker-entry certification ride along.
"""

import math
import os
import pickle
import random
import signal
import sys
import threading
import time
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import CpuModel
from repro.engine.operator import ProcessReceipt, StreamOperator
from repro.joins import MJoinOperator
from repro.joins import columnar
from repro.joins.columnar import ResultBlock
from repro.joins.pipeline import run_pipeline
from repro.joins.predicates import EpsilonJoin, EquiJoin
from repro.joins.variants import JoinMode, ModeState
from repro.lint.plan import PlanValidationError
from repro.obs import Obs
from repro.parallel import build_sharded_graph, run_procs
from repro.parallel import procs as runtime
from repro.parallel.procs import ResultKeys, gather_keys, shard_memo
from repro.parallel.router import RouterOperator
from repro.testkit import (
    band_workload,
    key_workload,
    mixed_key_workload,
    oracle_ids,
    oracle_join,
    sharded_ids,
)
from repro.testkit.chaos import duplicate_delivery
from repro.testkit.differential import (
    DRAIN_TAIL,
    UNBOUNDED_CAPACITY,
    run_config,
)
from repro.streams.tuples import StreamTuple
from repro.timing import ManualTimer
from tests.perf.test_kernel import KEYS, build_windows
from tests.perf.test_result_block import (
    ROWS,
    eager_result_keys,
    pool_slices,
    probe_both,
)


def mjoin_factory(workload):
    """A deterministic shard factory: every worker builds the same
    fresh MJoin from the workload geometry alone."""

    def _shard(worker_id: int) -> MJoinOperator:
        return MJoinOperator(
            workload.predicate,
            workload.window_sizes,
            workload.basic,
        )

    return _shard


def procs_run(workload, num_shards, **kwargs):
    kwargs.setdefault("duration", workload.duration + DRAIN_TAIL)
    kwargs.setdefault("adaptation_interval", 2.0)
    return run_procs(
        workload.traces, mjoin_factory(workload), num_shards, **kwargs
    )


class CrashShard(StreamOperator):
    """Raises mid-stream to exercise worker crash propagation."""

    num_streams = 3

    def __init__(self):
        self.count = 0

    def process(self, tup, now):
        self.count += 1
        if self.count > 5:
            raise ValueError("boom on purpose")
        return ProcessReceipt(comparisons=1)


GRID_SEEDS = (1, 2, 3)
GRID_SHARDS = (1, 2, 3)


@pytest.fixture(scope="module")
def references():
    """``(workload, oracle ids, sharded ids)`` per ``(seed, K)``, computed
    once for the whole transport grid."""
    refs = {}
    for seed in GRID_SEEDS:
        workload = key_workload(seed=seed, duration=6.0)
        oracle = oracle_ids(workload).id_set
        assert oracle, "workload produced no joins — test is vacuous"
        for num_shards in GRID_SHARDS:
            refs[seed, num_shards] = (
                workload, oracle, sharded_ids(workload, num_shards)
            )
    return refs


class TestDeterminism:
    def test_procs_matches_sharded_plan_and_oracle(self):
        workload = key_workload(seed=1)
        oracle = oracle_ids(workload).id_set
        assert oracle, "workload produced no joins — test is vacuous"
        for num_shards in (1, 2):
            observed = set(procs_run(workload, num_shards).merged_ids)
            assert observed == oracle
            assert observed == sharded_ids(workload, num_shards)

    def test_procs_matches_oracle_on_mixed_keys(self):
        # mixed int/float/bool keys cross the pickle boundary and the
        # canonicalized hash alike
        workload = mixed_key_workload(seed=1)
        observed = set(procs_run(workload, 2).merged_ids)
        assert observed == oracle_ids(workload).id_set

    def test_double_run_is_bit_identical(self):
        workload = key_workload(seed=2, duration=5.0)
        first = procs_run(workload, 2)
        second = procs_run(workload, 2)
        assert first.merged_ids == second.merged_ids
        assert first.routed_per_worker == second.routed_per_worker
        assert first.merged_count == second.merged_count

    @pytest.mark.parametrize("control_interval", [1, 4])
    @pytest.mark.parametrize("batch_size", [1, 8, 64])
    @pytest.mark.parametrize("num_shards", GRID_SHARDS)
    @pytest.mark.parametrize("seed", GRID_SEEDS)
    def test_every_transport_setting_is_exact(
        self, seed, num_shards, batch_size, control_interval, references,
        monkeypatch,
    ):
        # no control loop reads the transport any more, so no transport
        # constant can change what is merged (forked workers inherit the
        # patched module)
        monkeypatch.setattr(runtime, "BATCH_SIZE", batch_size)
        monkeypatch.setattr(runtime, "CONTROL_INTERVAL", control_interval)
        workload, oracle, sharded = references[seed, num_shards]
        result = procs_run(workload, num_shards)
        assert set(result.merged_ids) == oracle == sharded
        assert result.merged_count == len(oracle)


class TestModes:
    """Every join mode is exact on the process runtime: the workers run
    the end-of-run flush, so anti/outer survivors still pending at STOP
    are merged too."""

    @pytest.mark.parametrize("mode", ["inner", "semi", "anti", "outer"])
    def test_mode_matches_oracle(self, mode):
        workload = key_workload(3, n_keys=200)

        def make_shard(_worker_id: int) -> MJoinOperator:
            return MJoinOperator(
                workload.predicate, workload.window_sizes, workload.basic,
                mode=mode,
            )

        result = run_procs(
            workload.traces, make_shard, 2,
            duration=workload.duration + DRAIN_TAIL,
            adaptation_interval=2.0,
        )
        oracle = oracle_join(
            workload.traces, **make_shard(0).testkit_profile()
        ).id_set
        assert oracle, "workload produced no results — test is vacuous"
        assert set(result.merged_ids) == oracle
        assert result.merged_count == len(oracle)
        keys = np.concatenate(result.merged_keys)
        # a result's missing streams travel as -1, never as an identity
        assert (keys[keys < 0] == -1).all()
        sizes = {len(ids) for ids in oracle}
        assert set((keys >= 0).sum(axis=1).tolist()) == sizes
        if mode != "inner":
            assert 1 in sizes  # singletons


class TestColumnarResultPlane:
    """Results cross the pipe as ``seq`` matrices whatever produced
    them; ``merged_ids`` rebuilt from the matrices is still the
    virtual-time plan's identity set."""

    @staticmethod
    def both(workload, **shard_kwargs):
        """The same pinned two-shard plan on the process runtime and on
        the virtual-time graph: ``(ProcsResult, plan ids, plan count)``."""

        def make_shard(_worker_id: int) -> MJoinOperator:
            return MJoinOperator(
                workload.predicate, workload.window_sizes, workload.basic,
                **shard_kwargs,
            )

        procs = run_procs(
            workload.traces, make_shard, 2,
            duration=workload.duration + DRAIN_TAIL,
        )
        plan = build_sharded_graph(workload.traces, make_shard, 2)
        graph = plan.run(
            CpuModel(UNBOUNDED_CAPACITY, cores=4), run_config(workload),
            # the analyzer certifies sharding against the *unsharded*
            # join (inner mode only, P130); this compares two runtimes
            # over one plan, which holds for any shard operator
            validate=False, retain_outputs=True,
        )
        # the shard nodes' outputs, not the merger's: the graph host
        # records a shard's end-of-run flush (anti survivors) on the
        # shard node, the process runtime ships it to the merger — with
        # the queues drained everything else is on both
        outputs = [
            result
            for name in plan.shards
            for result in graph.nodes[name].outputs
        ]
        return procs, {r.key() for r in outputs}, len(outputs)

    @pytest.mark.parametrize("mode", ["semi", "anti"])
    def test_singleton_modes_fill_absent_streams(self, mode):
        # semi/anti results have one constituent: the other columns
        # travel as -1 and must not come back as identities
        workload = key_workload(seed=4, duration=6.0, window=2.0, n_keys=60)
        procs, plan_ids, plan_count = self.both(workload, mode=mode)
        assert plan_ids, "workload produced no results — test is vacuous"
        assert {len(ids) for ids in plan_ids} == {1}
        assert procs.merged_ids == plan_ids
        assert procs.merged_count == plan_count
        keys = np.concatenate(procs.merged_keys)
        assert ((keys >= 0).sum(axis=1) == 1).all()
        assert (keys[keys < 0] == -1).all()

    def test_reference_pipeline_outputs(self):
        # a band predicate runs the nested-loop kernel: plain lists
        workload = band_workload(seed=2, duration=6.0)
        procs, plan_ids, plan_count = self.both(workload)
        assert plan_ids, "workload produced no results — test is vacuous"
        assert procs.merged_ids == plan_ids
        assert procs.merged_count == plan_count

    def test_at_least_once_duplicates(self):
        workload = key_workload(seed=3, duration=6.0)
        workload = replace(workload, traces=[
            duplicate_delivery(trace, 0.3, rng=trace.stream)
            for trace in workload.traces
        ])
        procs, plan_ids, plan_count = self.both(workload)
        assert procs.merged_ids == plan_ids
        # every copy is merged and counted; the identity set holds one
        assert procs.merged_count == plan_count
        assert procs.merged_count == sum(map(len, procs.merged_keys))
        assert procs.merged_count > len(procs.merged_ids)

    def test_identities_are_python_ints(self):
        # benchmarks/e2e/check.py reprs them into the verify digest
        result = procs_run(key_workload(seed=1, duration=5.0), 2)
        assert result.merged_ids
        for ids in result.merged_ids:
            assert type(ids) is tuple
            for pair in ids:
                assert type(pair) is tuple
                assert [type(x) for x in pair] == [int, int]
        assert result.merged_ids is result.merged_ids  # built once

    def test_result_keys_passes_a_block_through_unbuilt(self):
        workload = key_workload(seed=1, duration=5.0)
        operator = mjoin_factory(workload)(0)
        blocks = []
        for tup in sorted(
            (t for trace in workload.traces for t in trace.tuples),
            key=lambda t: (t.timestamp, t.stream),
        ):
            outputs = operator.process(tup, tup.timestamp).outputs
            if outputs:
                blocks.append(outputs)
        assert len(blocks) > 8
        assert all(isinstance(block, ResultBlock) for block in blocks)
        keys = gather_keys(blocks, 3).matrix
        assert not any(block.materialized for block in blocks)
        # the list path names the same identities, and so do the blocks
        assert keys.tolist() == gather_keys(
            [list(block) for block in blocks], 3
        ).matrix.tolist()
        assert keys.tolist() == np.concatenate(
            [block.seqs for block in blocks]
        ).tolist()


#: what one ``process()`` call can hand the worker's batch
OUTPUT_KINDS = ("product", "chain", "pipeline", "singletons", "empty")


def batch_outputs(seed: int, kinds, m: int = 3):
    """One output per kind, as ``(lazy, eager)``: the columnar kernel's
    block of a completed equality (``product``) or interval (``chain``)
    probe, with the eager block of the same probe; the reference
    pipeline's list; a ``ModeState``'s anti singletons; an empty list."""
    now = 10.0
    rng = random.Random(seed)
    windows = build_windows(seed, m=m, per_stream=ROWS[m], keys=KEYS)
    pairs = []
    for kind in kinds:
        if kind == "empty":
            pairs.append(([], []))
            continue
        if kind == "singletons":
            state = ModeState(JoinMode.ANTI, [5.0] * m)
            for stream in rng.sample(range(m), m):
                tup = windows[stream].tuples[rng.randrange(10)]
                state.observe(tup, [], tup.timestamp)
            singles = state.flush(now)
            assert singles and {len(r.constituents) for r in singles} == {1}
            pairs.append((singles, singles))
            continue
        predicate = EquiJoin() if kind == "product" else EpsilonJoin(1.5)
        for attempt in range(100):
            stream = rng.randrange(m)
            order = [s for s in range(m) if s != stream]
            rng.shuffle(order)
            tup = StreamTuple(value=rng.choice(KEYS), timestamp=now,
                              stream=stream, seq=90_000 + attempt)
            pool = rng.choice(("single", "multi-run", "strided"))

            def slices_for_hop(hop, ws, pool=pool):
                return pool_slices(windows[ws], now, pool, 0.4)

            if kind == "pipeline":
                out = run_pipeline(tup, order, slices_for_hop,
                                   predicate).outputs
                pair = (out, out)
            else:
                pair = probe_both(tup, order, slices_for_hop, predicate)
            if pair[1]:
                break
        else:  # pragma: no cover - the fixture must complete probes
            raise AssertionError(f"no {kind} probe completed")
        pairs.append(pair)
    return pairs


def numpy_calls(fn, monkeypatch) -> list[str]:
    """The numpy functions and array methods ``fn`` calls from the
    process runtime and the columnar kernel's modules, by name."""
    calls: list[str] = []

    class Counting:
        """Stands in for the ``numpy`` module: counts every call."""

        def __getattr__(self, name):
            attr = getattr(np, name)
            if not callable(attr) or isinstance(attr, type):
                return attr

            def counted(*args, **kwargs):
                calls.append(name)
                return attr(*args, **kwargs)

            return counted

    for module in (runtime, columnar):
        monkeypatch.setattr(module, "np", Counting())

    def profile(frame, event, arg):
        if event == "c_call" and isinstance(
            getattr(arg, "__self__", None), np.ndarray
        ):
            calls.append(f"ndarray.{arg.__name__}")

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        monkeypatch.undo()
    return calls


def wire(keys: ResultKeys) -> ResultKeys:
    """``keys`` as the supervisor receives them."""
    return pickle.loads(pickle.dumps(keys, pickle.HIGHEST_PROTOCOL))


class TestBatchResultKeys:
    """A worker's ack carries one value for the whole batch: the
    worker gathers the blocks' factors (:func:`gather_keys`), the
    supervisor expands them (:attr:`ResultKeys.matrix`), and the two
    halves together give the concatenation of the eager per-output
    matrices.  Neither half's cost in numpy calls grows with the number
    of blocks, and what crosses the pipe is never larger than the
    matrix."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(2, 4),
        kinds=st.lists(st.sampled_from(OUTPUT_KINDS), max_size=10),
    )
    def test_batch_is_the_concatenated_eager_keys(self, seed, m, kinds):
        pairs = batch_outputs(seed, kinds, m)
        lazy = [out for out, _ in pairs]
        gathered = gather_keys(lazy, m)
        want = np.concatenate([
            np.empty((0, m), dtype=np.int64),
            *(eager_result_keys(out, m) for _, out in pairs),
        ])
        assert not any(
            out.materialized for out in lazy if isinstance(out, ResultBlock)
        )
        received = wire(gathered)
        assert len(received) == len(want)
        for keys in (gathered.matrix, received.matrix):
            assert keys.dtype == np.int64
            assert keys.shape == want.shape
            assert np.array_equal(keys, want)
        assert [row.tolist() for row in received] == want.tolist()
        assert len(pickle.dumps(received, pickle.HIGHEST_PROTOCOL)) <= len(
            pickle.dumps(want, pickle.HIGHEST_PROTOCOL)
        )

    def test_every_kind_in_one_batch(self):
        pairs = batch_outputs(11, [*OUTPUT_KINDS, *OUTPUT_KINDS[::-1]])
        keys = wire(gather_keys([out for out, _ in pairs], 3)).matrix
        assert keys.tolist() == np.concatenate(
            [eager_result_keys(out, 3) for _, out in pairs]
        ).tolist()
        assert (keys == -1).any() and (keys >= 0).all(axis=1).any()

    def test_blocks_and_listed_rows_in_one_ack(self):
        # an ack is factors or a matrix, never a mix: blocks alone ship
        # as factors, and with listed rows among them the batch ships
        # its matrix, every row in its place
        blocks = batch_outputs(5, ["product", "chain"] * 4)
        singles = batch_outputs(5, ["singletons", "pipeline"])
        assert gather_keys([out for out, _ in blocks], 3).blocks == len(
            blocks
        )
        pairs = [*blocks[:3], singles[0], *blocks[3:], singles[1]]
        gathered = gather_keys([out for out, _ in pairs], 3)
        assert gathered.blocks == 0
        want = np.concatenate([eager_result_keys(out, 3) for _, out in pairs])
        assert np.array_equal(wire(gathered).matrix, want)

    def test_empty_batch(self):
        for batch in ([], [[]], [[], []]):
            for keys in (gather_keys(batch, 3), wire(gather_keys(batch, 3))):
                assert len(keys) == 0
                assert keys.matrix.dtype == np.int64
                assert keys.matrix.shape == (0, 3)

    def test_numpy_calls_do_not_grow_with_blocks(self, monkeypatch):
        blocks = [
            out for out, _ in batch_outputs(5, ["product", "chain"] * 32)
        ]
        gather, expand = {}, {}
        for n in (8, 64):
            gather[n] = numpy_calls(
                lambda n=n: gather_keys(blocks[:n], 3), monkeypatch
            )
            received = wire(gather_keys(blocks[:n], 3))
            assert received.blocks == n  # the factors crossed, unexpanded
            expand[n] = numpy_calls(lambda: received.matrix, monkeypatch)
        assert gather[8] and expand[8]
        assert gather[8] == gather[64]
        assert expand[8] == expand[64]


class TestAckSize:
    """An ack is never larger than the ``(n, m)`` matrix it stands for:
    a product block's factors hold ``sum(k) <= prod(k)`` hits, aligned
    rows ``(m - 1) * n < m * n``, and a batch whose blocks are too small
    to pay for their layout ships the matrix itself."""

    def test_every_ack_of_a_run(self):
        result = procs_run(key_workload(seed=2, duration=6.0), 2)
        assert result.merged_count
        factored = 0
        for keys in result.acks:
            blob = pickle.dumps(keys, pickle.HIGHEST_PROTOCOL)
            matrix = pickle.dumps(keys.matrix, pickle.HIGHEST_PROTOCOL)
            assert len(blob) <= len(matrix)
            factored += keys.blocks > 0
        assert factored, "no ack shipped factors — test is vacuous"

    def test_small_blocks_ship_the_matrix(self):
        # one result per block: 7 words of factors against 3 of matrix
        tiny = [
            ResultBlock(
                StreamTuple(value=1.0, timestamp=0.0, stream=s, seq=10 + s),
                [o for o in range(3) if o != s],
                [np.array([20 + s]), np.array([30 + s])],
                [], True, 1,
            )
            for s in range(3)
        ]
        keys = gather_keys(tiny, 3)
        assert keys.blocks == 0 and len(keys.flat) == 3 * len(tiny)
        assert keys.matrix.tolist() == np.concatenate(
            [eager_result_keys(out, 3) for out in tiny]
        ).tolist()


#: join keys whose equality and repr disagree across types and values
MIXED_KEYS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, 1, 1.0, True, False, "1", "",
                     Decimal("1.0"), Decimal("1.00"), Decimal(1)]),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3).map(np.int64),
    st.floats(-3, 3).map(np.float64),
    st.text(max_size=2),
    st.decimals(allow_nan=False, places=2, min_value=-2, max_value=2),
    st.tuples(st.integers(0, 2), st.sampled_from([1, 1.0, "1"])),
)


class TestShardMemo:
    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(MIXED_KEYS, max_size=40),
           shards=st.sampled_from([1, 3, 1 << 16]))
    @example(
        keys=[1, 1.0, True, np.int64(1), Decimal(1), Decimal("1.0"),
              Decimal("1.00"), "1", -0.0, 0.0, math.nan, math.nan, (1, 1.0)],
        shards=1 << 16,
    )
    def test_memoised_shard_is_shard_of(self, keys, shards):
        router = RouterOperator(num_streams=1, num_shards=shards)
        asked = []

        def shard_of(tup):
            asked.append(tup)
            return router.shard_of(tup)

        route = shard_memo(shard_of)
        tuples = [StreamTuple(value=key, timestamp=0.0) for key in keys]
        # twice over: the second pass reads the memo
        assert [route(t) for t in tuples + tuples] == [
            router.shard_of(t) for t in tuples + tuples
        ]
        # one ask per distinct exact float / int / str payload of a type;
        # any other payload asks every time
        exact = {(type(k), k) for k in keys if type(k) in (float, int, str)}
        others = sum(type(k) not in (float, int, str) for k in keys)
        assert len(asked) == len(exact) + 2 * others


class TestAccounting:
    def test_result_bookkeeping_is_consistent(self):
        workload = key_workload(seed=1, duration=5.0)
        result = procs_run(workload, 2)
        assert result.tuples_routed == workload.tuple_count()
        assert sum(result.routed_per_worker) == result.tuples_routed
        assert result.merged_count == len(result.merged_ids)
        assert sum(result.merged_per_worker) == result.merged_count
        assert result.workers_spawned == 2
        assert "Procs(" in result.describe()

    def test_manual_timer_is_honoured(self):
        # a frozen injected clock proves the runtime never reads the
        # wall clock behind the sanctioned timing seam
        workload = key_workload(seed=1, duration=3.0)
        result = procs_run(workload, 2, timer=ManualTimer())
        assert result.wall_seconds == 0.0
        assert result.merged_rate == 0.0


class TestFailurePaths:
    def test_worker_crash_propagates_traceback(self, monkeypatch):
        monkeypatch.setattr(runtime, "BATCH_SIZE", 4)
        workload = key_workload(seed=1, duration=4.0)
        with pytest.raises(RuntimeError, match="boom on purpose"):
            run_procs(
                workload.traces,
                lambda worker_id: CrashShard(),
                2,
                duration=workload.duration,
                certify=False,
            )

    def test_stream_arity_mismatch_is_rejected(self):
        workload = key_workload(seed=1, m=4, duration=2.0)
        with pytest.raises(ValueError, match="4 sources"):
            run_procs(
                workload.traces,
                mjoin_factory(key_workload(seed=1, m=3, duration=2.0)),
                2,
                duration=workload.duration,
            )

    def test_parameter_validation(self):
        workload = key_workload(seed=1, duration=2.0)
        with pytest.raises(ValueError):
            procs_run(workload, 0)


class KillShard(StreamOperator):
    """Worker 1 kills its own process with SIGKILL at its ``at``-th
    tuple, or in the end-of-run flush when ``at`` is ``None``: a death
    that leaves no parting report."""

    num_streams = 3

    def __init__(self, worker_id: int, at: int | None):
        self.worker_id = worker_id
        self.at = at
        self.count = 0

    def _die_if(self, now_is_the_time: bool) -> None:
        if self.worker_id == 1 and now_is_the_time:
            os.kill(os.getpid(), signal.SIGKILL)

    def process(self, tup, now):
        self.count += 1
        self._die_if(self.count == self.at)
        return ProcessReceipt(comparisons=1)

    def on_finish(self, now):
        self._die_if(self.at is None)
        return []


class Poisoned:
    """A trace whose ``at``-th tuple carries a value no pickle takes."""

    def __init__(self, trace, at: int):
        self.trace = trace
        self.at = at

    def iter_tuples(self, until):
        for i, tup in enumerate(self.trace.iter_tuples(until)):
            yield replace(tup, value=threading.Lock()) if i == self.at else tup


class TestWorkerDeath:
    """A failure outside the workers' own code stops the fleet at once:
    the supervisor closes its pipes before it joins the workers, and a
    worker whose pipe ends before its "bye" is named as dead."""

    # worker 1 replays 80 tuples, in two batches of the default size
    @pytest.mark.parametrize("at", [1, 30, 65, 80, None])
    def test_killed_worker_is_named_promptly(self, at):
        workload = key_workload(seed=1, duration=4.0)
        started = time.perf_counter()
        with pytest.raises(RuntimeError) as excinfo:
            run_procs(
                workload.traces,
                lambda worker_id: KillShard(worker_id, at),
                2,
                duration=workload.duration,
                certify=False,
            )
        assert time.perf_counter() - started < 3.0
        message = str(excinfo.value)
        assert "shard worker 1 died without an error report" in message
        assert f"exit code {-signal.SIGKILL}" in message

    def test_unpicklable_payload_surfaces_promptly(self):
        workload = key_workload(seed=1, duration=4.0)
        traces = [Poisoned(workload.traces[0], 10), *workload.traces[1:]]
        started = time.perf_counter()
        with pytest.raises(TypeError, match="pickle"):
            run_procs(
                traces,
                mjoin_factory(workload),
                2,
                duration=workload.duration,
                certify=False,
            )
        assert time.perf_counter() - started < 3.0


class TestWorkerEntryCertification:
    def test_bound_obs_sink_is_rejected(self):
        workload = key_workload(seed=1, duration=2.0)
        obs = Obs()
        base = mjoin_factory(workload)

        def _bound(worker_id: int) -> MJoinOperator:
            operator = base(worker_id)
            operator.bind_obs(obs, node=f"shard{worker_id}")
            return operator

        # a bound sink is a telemetry object reachable pre-fork: P126,
        # and only P126 (no second code for the same cause)
        with pytest.raises(PlanValidationError, match="P126") as exc:
            run_procs(
                workload.traces, _bound, 2,
                duration=workload.duration,
            )
        assert {d.code for d in exc.value.report.errors} == {"P126"}

    def test_shared_instance_is_rejected(self):
        workload = key_workload(seed=1, duration=2.0)
        one = mjoin_factory(workload)(0)
        # one instance for two worker ids aliases every written root
        with pytest.raises(PlanValidationError, match="P124") as exc:
            run_procs(
                workload.traces,
                lambda worker_id: one,
                2,
                duration=workload.duration,
            )
        assert {d.code for d in exc.value.report.errors} == {"P124"}


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="scaling speedup needs at least 4 cores",
)
class TestScaling:
    def test_more_workers_raise_merged_rate(self):
        workload = key_workload(seed=1, rate=25.0, duration=8.0)
        single = procs_run(workload, 1)
        quad = procs_run(workload, 4)
        assert quad.merged_ids == single.merged_ids
        assert quad.merged_rate > single.merged_rate
