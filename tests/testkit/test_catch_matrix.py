"""The shard-safety catch matrix: every defect fixture against every gate.

Rows are shards for a routed join.  A defect row carries exactly one
way for one shard to reach another's state (or for a run to stop being
reproducible); it lives in an ``MJoinOperator`` subclass or in the shard
factory.  A harmless row must pass every gate.  Columns are the gates,
each run on a real routed join over one small frozen ``key_workload``:

B  the live-object plan checks: ``certify_shards(worker_entry=True)``
   (P124, P126) and the analyzer's P121 on the merger;
C  ``DeterminismSanitizer(stride=1)`` around both shards of a K=2
   ``ShardedPlan``;
D  the differential: K=2 ≡ K=1 ≡ ``oracle_join``, and a rerun of K=2
   gives the same ids;
E  the K=2 ids with obs on ≡ the ids with obs off;
F  ``repro.lint``'s R-rules on the fixture's source, written to
   ``<tmp>/repro/joins/fixture.py``.

A cell holds what fired, ``""`` when the gate passed.  C, D and E run
with ``validate=False`` so they only see what they detect themselves.
``EXPECTED`` is the table ``docs/STATIC_ANALYSIS.md`` prints, next to
column A: the verdicts of the static effect certificate (P120 / P121 /
P122 through its class classifier), deleted once this matrix showed B-F
catch every defect it caught.
"""

from __future__ import annotations

import inspect
import random
import re
import time
import types
import zlib
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.core import GrubJoinOperator
from repro.engine import CpuModel
from repro.engine.operator import ProcessReceipt
from repro.joins import EquiJoin, IndexedMJoin, MJoinOperator
from repro.lint.checker import check_paths
from repro.lint.plan import analyze_graph, certify_shards
from repro.obs import Obs
from repro.parallel import build_sharded_graph
from repro.parallel.merger import MergerOperator
from repro.testkit.differential import (
    UNBOUNDED_CAPACITY,
    oracle_ids,
    run_config,
)
from repro.testkit.sanitizer import DeterminismSanitizer, DeterminismViolation
from repro.testkit.workloads import key_workload

# -- defect fixtures ---------------------------------------------------------

TALLY = {}
FLUSHED = []
HITS = {}
SHARED = []
REGISTRY = types.SimpleNamespace()


class GlobalTallyJoin(MJoinOperator):
    """Counts tuples in a module-global dict."""

    def process(self, tup, now):
        TALLY[tup.stream] = TALLY.get(tup.stream, 0) + 1
        return super().process(tup, now)


class FinishFlushJoin(MJoinOperator):
    """Writes a module global only in the end-of-run flush."""

    def on_finish(self, now):
        FLUSHED.append(now)
        return super().on_finish(now)


class ClassCacheJoin(MJoinOperator):
    """Caches into a dict every instance shares through the class."""

    cache = {}

    def process(self, tup, now):
        self.cache[(tup.stream, tup.seq)] = tup.value
        return super().process(tup, now)


class GlobalSetattrJoin(MJoinOperator):
    """``setattr`` on a module-global object."""

    def process(self, tup, now):
        setattr(REGISTRY, f"last{tup.stream}", tup.seq)
        return super().process(tup, now)


class AliasedGlobalJoin(MJoinOperator):
    """Binds a module-global list into ``self``, then appends to it."""

    def __init__(self, predicate, window_sizes, basic):
        super().__init__(predicate, window_sizes, basic)
        self.buf = SHARED

    def process(self, tup, now):
        self.buf.append(tup.seq)
        return super().process(tup, now)


class PropertyCountingJoin(MJoinOperator):
    """A getter that mutates a module global through ``@property``."""

    @property
    def hot(self):
        HITS["n"] = HITS.get("n", 0) + 1
        return True

    def process(self, tup, now):
        return super().process(tup, now) if self.hot else None


class MutableDefaultJoin(MJoinOperator):
    """A mutable default argument: one list for every instance."""

    def process(self, tup, now, seen=[]):
        seen.append(tup.seq)
        return super().process(tup, now)


class WallClockJoin(MJoinOperator):
    """Drops a tuple's results on a bit of the wall clock."""

    def process(self, tup, now):
        receipt = super().process(tup, now)
        if zlib.crc32(f"{time.perf_counter_ns()}:{tup.seq}".encode()) & 1:
            return ProcessReceipt(comparisons=receipt.comparisons, outputs=[])
        return receipt


class GlobalRngJoin(MJoinOperator):
    """Drops a tuple's results on a draw from the global RNG."""

    def process(self, tup, now):
        receipt = super().process(tup, now)
        if random.random() < 0.5:
            return ProcessReceipt(comparisons=receipt.comparisons, outputs=[])
        return receipt


class ObsReadingJoin(MJoinOperator):
    """Reads its own comparison counter back into its results."""

    def process(self, tup, now):
        receipt = super().process(tup, now)
        counters = self._obs_comparisons
        if counters is not None and counters[0][0].value > 0:
            return ProcessReceipt(comparisons=receipt.comparisons, outputs=[])
        return receipt


class PreboundObsJoin(MJoinOperator):
    """Binds an obs sink in its constructor, i.e. before any fork."""

    def __init__(self, predicate, window_sizes, basic):
        super().__init__(predicate, window_sizes, basic)
        self.bind_obs(Obs())


class Limits:
    def __init__(self):
        self.limit = 0


class ConfiguredJoin(MJoinOperator):
    """Writes through an injected configuration object."""

    def __init__(self, predicate, window_sizes, basic, cfg):
        super().__init__(predicate, window_sizes, basic)
        self.cfg = cfg

    def process(self, tup, now):
        self.cfg.limit = 5
        return super().process(tup, now)


class LogJoin(MJoinOperator):
    """Appends every tuple's seq to an injected list."""

    def __init__(self, predicate, window_sizes, basic, log):
        super().__init__(predicate, window_sizes, basic)
        self.log = log

    def process(self, tup, now):
        self.log.append(tup.seq)
        return super().process(tup, now)


class OrderSensitiveMerger(MergerOperator):
    """Keeps shard arrival order and says nothing about it."""

    order_insensitive = False

    def __init__(self, num_shards):
        super().__init__(num_shards)
        self.arrivals = []

    def process(self, tup, now):
        self.arrivals.append(tup.stream)
        return super().process(tup, now)


# -- harmless fixtures -------------------------------------------------------


class SetOrderJoin(MJoinOperator):
    """Iterates a set of its own (see the table's note on set order)."""

    def __init__(self, predicate, window_sizes, basic):
        super().__init__(predicate, window_sizes, basic)
        self.keys = set()
        self.first_key = None

    def process(self, tup, now):
        self.keys.add(tup.value)
        for key in self.keys:
            self.first_key = key
            break
        return super().process(tup, now)


class SetattrSelfJoin(MJoinOperator):
    """``setattr`` with a computed name, on its own instance."""

    def process(self, tup, now):
        setattr(self, f"last{tup.stream}", tup.seq)
        return super().process(tup, now)


def make_counter():
    seen = []

    def bump(seq):
        seen.append(seq)

    return bump


class ClosureJoin(MJoinOperator):
    """Calls a closure built fresh for each instance."""

    def __init__(self, predicate, window_sizes, basic):
        super().__init__(predicate, window_sizes, basic)
        self.bump = make_counter()

    def process(self, tup, now):
        self.bump(tup.seq)
        return super().process(tup, now)


# -- rows --------------------------------------------------------------------

Factory = Callable[[int], object]


def each(cls, **kwargs):
    """Every shard gets its own ``cls`` instance."""
    return lambda w: lambda k: cls(w.predicate, w.window_sizes, w.basic,
                                   **kwargs)


def adaptive_index(w):
    """Adaptive-indexed shards tuned to the matrix's small workload: the
    sensor decides after 8 samples and one tick, and a basic window of 4
    rows gets a table, so each index switches to hash at the first tick
    and prices the rest of the run from built tables (at the class's
    tuning it would still be flat when the trace ends)."""

    def make(k):
        op = MJoinOperator(w.predicate, w.window_sizes, w.basic,
                           index="adaptive")
        for state in op.windex_states:
            state.min_samples, state.min_index_rows, state.hysteresis = 8, 4, 1
        return op

    return make


def one_instance(w):
    shard = MJoinOperator(w.predicate, w.window_sizes, w.basic)
    return lambda k: shard


def one_log(w):
    log = []
    return lambda k: LogJoin(w.predicate, w.window_sizes, w.basic, log)


def own_log(w):
    return lambda k: LogJoin(w.predicate, w.window_sizes, w.basic, [])


def one_cfg(w):
    cfg = Limits()
    return lambda k: ConfiguredJoin(w.predicate, w.window_sizes, w.basic, cfg)


def one_predicate(w):
    predicate = EquiJoin()
    return lambda k: MJoinOperator(predicate, w.window_sizes, w.basic)


def own_predicate(w):
    return lambda k: MJoinOperator(EquiJoin(), w.window_sizes, w.basic)


def grubjoin(w):
    return lambda k: GrubJoinOperator(w.predicate, w.window_sizes, w.basic,
                                      rng=k)


@dataclass(frozen=True)
class Row:
    name: str
    defect: bool
    #: workload -> a fresh shard factory (fresh shared state per gate)
    shards: Callable[..., Factory]
    #: the class whose source column F lints
    source: type = MJoinOperator
    merger: type | None = None


ROWS = [
    Row("global-in-process", True, each(GlobalTallyJoin), GlobalTallyJoin),
    Row("global-in-on-finish", True, each(FinishFlushJoin), FinishFlushJoin),
    Row("class-attribute", True, each(ClassCacheJoin), ClassCacheJoin),
    Row("setattr-on-global", True, each(GlobalSetattrJoin),
        GlobalSetattrJoin),
    Row("global-aliased-into-self", True, each(AliasedGlobalJoin),
        AliasedGlobalJoin),
    Row("mutating-property", True, each(PropertyCountingJoin),
        PropertyCountingJoin),
    Row("mutable-default", True, each(MutableDefaultJoin),
        MutableDefaultJoin),
    Row("wall-clock", True, each(WallClockJoin), WallClockJoin),
    Row("global-rng", True, each(GlobalRngJoin), GlobalRngJoin),
    Row("factory-shares-list", True, one_log, LogJoin),
    Row("one-instance-two-shards", True, one_instance),
    Row("shared-cfg-written", True, one_cfg, ConfiguredJoin),
    Row("reads-obs", True, each(ObsReadingJoin), ObsReadingJoin),
    Row("order-sensitive-merger", True, own_predicate, OrderSensitiveMerger,
        OrderSensitiveMerger),
    Row("obs-bound-before-fork", True, each(PreboundObsJoin),
        PreboundObsJoin),
    Row("set-iteration", False, each(SetOrderJoin), SetOrderJoin),
    Row("setattr-on-self", False, each(SetattrSelfJoin), SetattrSelfJoin),
    Row("per-instance-closure", False, each(ClosureJoin), ClosureJoin),
    Row("shared-readonly-predicate", False, one_predicate),
    Row("per-instance-state", False, own_log, LogJoin),
    Row("mjoin", False, own_predicate),
    Row("mjoin-adaptive-index", False, adaptive_index),
    Row("grubjoin", False, grubjoin, GrubJoinOperator),
    Row("indexed-mjoin", False, each(IndexedMJoin), IndexedMJoin),
]

COLUMNS = "BCDEF"

#: row -> the cells B..F; harmless rows not listed pass every gate
EXPECTED = {
    "global-in-process": ('', 'module-global write', '', '', ''),
    "global-in-on-finish": ('', 'module-global write', '', '', ''),
    "class-attribute": ('', 'class-attribute write', '', '', ''),
    "setattr-on-global": ('', 'module-global write', '', '', ''),
    "global-aliased-into-self": ('P124', 'aliasing, foreign write, module-global write', '', '', ''),
    "mutating-property": ('', 'module-global write', '', '', ''),
    "mutable-default": ('', '', '', '', 'R003'),
    "wall-clock": ('', '', 'ids differ', 'ids differ', 'R001'),
    "global-rng": ('', '', 'ids differ', 'ids differ', 'R002'),
    "factory-shares-list": ('P124', 'aliasing, foreign write', '', '', ''),
    "one-instance-two-shards": ('P124', 'aliasing, foreign write', '', '', ''),
    "shared-cfg-written": ('', 'foreign write', '', '', ''),
    "reads-obs": ('', '', '', 'ids differ', ''),
    "order-sensitive-merger": ('P121', '', '', '', ''),
    "obs-bound-before-fork": ('P126', '', '', '', ''),
}


# -- gates -------------------------------------------------------------------


@pytest.fixture(scope="module")
def workload():
    return key_workload(seed=1, duration=4.0)


def build(row, w, k, make_shard=None):
    plan = build_sharded_graph(
        w.traces, make_shard or row.shards(w), k, certify=False,
    )
    if row.merger is not None:
        plan.graph._nodes[plan.merger].operator = row.merger(k)
    return plan


def run_ids(plan, w, obs=None):
    k = plan.num_shards
    result = plan.graph.run(
        CpuModel(UNBOUNDED_CAPACITY, cores=k + 2), run_config(w),
        validate=False, retain_outputs=True, obs=obs,
    )
    return plan.merged_result_ids(result)


def gate_b(row, w):
    plan = build(row, w, 2)
    codes = {d.code for d in analyze_graph(plan.graph).errors}
    codes |= {d.code for d in
              certify_shards(plan.shard_ops, worker_entry=True).errors}
    return ",".join(sorted(codes & {"P121", "P124", "P126"}))


def gate_c(row, w):
    sanitizer = DeterminismSanitizer(stride=1)
    make_shard = row.shards(w)
    plan = build(row, w, 2, lambda k: sanitizer.wrap(f"shard{k}",
                                                     make_shard(k)))
    run_ids(plan, w)
    try:
        sanitizer.finish()
    except DeterminismViolation:
        pass
    return ", ".join(sorted(
        {v.split(":", 1)[0] for v in sanitizer.violations}
    ))


def gate_d(row, w):
    k2 = run_ids(build(row, w, 2), w)
    same = (k2 == run_ids(build(row, w, 2), w)
            and k2 == run_ids(build(row, w, 1), w)
            and k2 == oracle_ids(w).id_set)
    return "" if same else "ids differ"


def gate_e(row, w):
    same = run_ids(build(row, w, 2), w) == run_ids(build(row, w, 2), w,
                                                   obs=Obs())
    return "" if same else "ids differ"


def gate_f(row, tmp_path):
    source = inspect.getsource(row.source)
    imports = "".join(f"import {name}\n" for name in ("random", "time")
                      if re.search(rf"(?<![\w.]){name}\.", source))
    target = tmp_path / "repro" / "joins" / "fixture.py"
    target.parent.mkdir(parents=True)
    target.write_text(imports + source)
    (report,) = check_paths([target])
    return ",".join(sorted({d.code for d in report.diagnostics}))


def cells(row, w, tmp_path):
    verdicts = []
    for gate in (gate_b, gate_c, gate_d, gate_e):
        try:
            verdicts.append(gate(row, w))
        except Exception as exc:  # a gate that refuses to run caught it
            verdicts.append(f"raised {type(exc).__name__}")
    verdicts.append(gate_f(row, tmp_path))
    return dict(zip(COLUMNS, verdicts))


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_row(row, workload, tmp_path):
    got = cells(row, workload, tmp_path)
    assert any(got.values()) == row.defect
    assert tuple(got.values()) == EXPECTED.get(row.name, ("",) * 5)


def test_index_row_builds_tables(workload):
    # the index row is not vacuous: its gates see built hash tables
    (row,) = [row for row in ROWS if row.name == "mjoin-adaptive-index"]
    plan = build(row, workload, 2)
    run_ids(plan, workload)
    states = [s for op in plan.shard_ops for s in op.windex_states]
    assert {s.active for s in states} == {"hash"}
    assert all(
        any("windex" in window.derived(k) for k in range(window.n + 1))
        for op in plan.shard_ops for window in op.windows
    )
