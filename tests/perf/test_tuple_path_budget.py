"""The tuple path's fixed cost, as a deterministic count of calls.

Most of an in-process pass over small probes is per-tuple overhead, not
join work, and in Python that overhead is mostly function calls.  This
file counts the Python-level calls into ``repro`` that one run makes
(``sys.setprofile`` ``"call"`` events whose code lives in the package)
and divides them by the tuples serviced: a count, not a time, so it is
the same on every host.  Comprehension frames are not counted, because
Python 3.12 inlines list, dict and set comprehensions into their caller;
the counts are then the same on 3.10 through 3.12.

The three shapes are the smoke sizes of the end-to-end workloads, all in
one process on an idle CPU (``CpuModel(1e12)``), seed 3, ``m = 3``:

========  =========================================  ======  =======
shape     operator                                   before  budget
========  =========================================  ======  =======
drift     ``MJoinOperator`` (interval kernel)         38.9    20.0
zipf      ``MJoinOperator(index="adaptive")``         44.7    26.0
key       ``MJoinOperator`` (equality, many results)  54.7    34.0
========  =========================================  ======  =======

"before" is the count before the tuple path was trimmed; each budget is
the count reached since, rounded up to the next half call.  A change that
adds a call per tuple to the path fails here.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro.engine import CpuModel, Simulation, SimulationConfig
from repro.joins import MJoinOperator
from repro.testkit.workloads import (
    drift_workload,
    key_workload,
    zipf_key_workload,
)

PACKAGE = os.path.dirname(repro.__file__) + os.sep

#: code objects Python 3.12 runs inline in their caller's frame
INLINED = frozenset({"<listcomp>", "<genexpr>", "<dictcomp>", "<setcomp>"})

SHAPES = {
    "drift": (
        lambda: drift_workload(3, m=3, rate=1200.0, duration=0.6,
                               window=0.2, basic=0.05, epsilon=0.002,
                               lags=[0.0, 0.0, 0.0]),
        {},
        20.0,
    ),
    "zipf": (
        lambda: zipf_key_workload(3, m=3, rate=800.0, duration=3.0,
                                  window=1.2, basic=0.3, n_keys=200_000,
                                  alpha=0.5),
        {"index": "adaptive"},
        26.0,
    ),
    "key": (
        lambda: key_workload(3, m=3, rate=400.0, duration=1.5, window=0.7,
                             basic=0.35, n_keys=60),
        {},
        34.0,
    ),
}


def calls_per_tuple(workload, operator) -> float:
    """``repro`` calls per serviced tuple over one run of ``operator``."""
    sim = Simulation(
        workload.traces, operator, CpuModel(1e12),
        SimulationConfig(duration=workload.duration + 1, warmup=0,
                         adaptation_interval=0.5),
    )
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(PACKAGE)
                    and code.co_name not in INLINED):
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = sim.run()
    finally:
        sys.setprofile(previous)
    serviced = sum(s.consumed for s in result.streams)
    assert serviced > 1000
    return calls / serviced


@pytest.mark.parametrize("shape", SHAPES)
def test_calls_per_tuple_within_budget(shape):
    build, options, budget = SHAPES[shape]
    workload = build()
    per_tuple = calls_per_tuple(
        workload,
        MJoinOperator(workload.predicate, workload.window_sizes,
                      workload.basic, **options),
    )
    print(f"{shape}: {per_tuple:.2f} repro calls per tuple "
          f"(budget {budget})")
    assert per_tuple <= budget


def test_an_extra_call_per_tuple_breaks_the_budget(monkeypatch):
    """The budget is tight enough to see one more call per tuple."""
    process = MJoinOperator.process

    def one_more(self, tup, now):
        self.selectivity.rate(0, 1)
        return process(self, tup, now)

    # the wrapper lives in this file, outside the package: only the
    # planted call counts
    monkeypatch.setattr(MJoinOperator, "process", one_more)
    build, options, budget = SHAPES["drift"]
    workload = build()
    per_tuple = calls_per_tuple(
        workload,
        MJoinOperator(workload.predicate, workload.window_sizes,
                      workload.basic, **options),
    )
    assert per_tuple > budget


def test_profiler_is_restored():
    def marker(frame, event, arg):
        return None

    previous = sys.getprofile()
    sys.setprofile(marker)
    try:
        workload = SHAPES["drift"][0]()
        calls_per_tuple(
            workload,
            MJoinOperator(workload.predicate, workload.window_sizes,
                          workload.basic),
        )
        assert sys.getprofile() is marker
    finally:
        sys.setprofile(previous)
