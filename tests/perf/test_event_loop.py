"""What the scheduler loop asks of its event queue, counted.

On an idle CPU every service completion sorts before anything else that
is queued, so it runs as the very next event without entering the heap:
a run pops each scheduled event once and pushes nothing.  Under load a
completion waits behind later arrivals and still goes through the heap.
"""

from __future__ import annotations

import pytest

from repro.core import GrubJoinOperator
from repro.engine import CpuModel, EventQueue, Simulation, SimulationConfig
from repro.joins import EpsilonJoin
from repro.streams import ConstantRate, StreamSource, UniformProcess


@pytest.fixture
def queue_calls(monkeypatch):
    """Counts of ``EventQueue`` calls over one run."""
    calls = {"push": 0, "pop": 0, "scheduled": 0}
    schedule, push, pop = EventQueue.schedule, EventQueue.push, EventQueue.pop

    def counting_schedule(self, entries):
        entries = list(entries)
        calls["scheduled"] += len(entries)
        return schedule(self, entries)

    def counting_push(self, *args):
        calls["push"] += 1
        return push(self, *args)

    def counting_pop(self):
        calls["pop"] += 1
        return pop(self)

    monkeypatch.setattr(EventQueue, "schedule", counting_schedule)
    monkeypatch.setattr(EventQueue, "push", counting_push)
    monkeypatch.setattr(EventQueue, "pop", counting_pop)
    return calls


def run_join(capacity: float):
    """A three-way GrubJoin at 20 tuples/s per stream, arrivals offset so
    that none coincides with another or with a tick."""
    sources = [
        StreamSource(i, ConstantRate(20.0, phase=(i + 1) * 1e-3),
                     UniformProcess(rng=i))
        for i in range(3)
    ]
    op = GrubJoinOperator(EpsilonJoin(0.5), [2.0] * 3, 0.5, rng=1)
    config = SimulationConfig(duration=6.0, warmup=0.0,
                              adaptation_interval=1.0)
    return Simulation(sources, op, CpuModel(capacity), config).run()


def test_idle_run_never_pushes(queue_calls):
    result = run_join(capacity=1e12)
    serviced = sum(s.consumed for s in result.streams)
    assert serviced > 300
    assert queue_calls["push"] == 0
    # every scheduled event, up to and including STOP, is popped once
    assert queue_calls["pop"] == queue_calls["scheduled"]


def test_saturated_run_still_pushes(queue_calls):
    result = run_join(capacity=1e3)
    assert result.cpu_utilization > 0.9
    assert queue_calls["push"] > 100
