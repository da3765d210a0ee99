"""Adaptation demo: the throttle fraction tracking bursty input rates.

Reproduces the Section 6.2.4 scenario — input rates stepping
100 -> 150 -> 50 tuples/sec every 8 seconds — and prints how GrubJoin's
operator-throttling controller follows the load, for two adaptation
periods (a sluggish Delta = 5 s vs a snappy Delta = 1 s).

Run:  python examples/adaptation_demo.py
"""

from repro import (
    CpuModel,
    EpsilonJoin,
    GrubJoinOperator,
    LinearDriftProcess,
    MJoinOperator,
    PiecewiseRate,
    Simulation,
    SimulationConfig,
    StreamSource,
)

WINDOW = 20.0
BASIC = 2.0
LAGS = (0.0, 5.0, 15.0)
DEVIATIONS = (2.0, 2.0, 50.0)
STEPS = [(0.0, 100.0), (8.0, 150.0), (16.0, 50.0),
         (24.0, 100.0), (32.0, 150.0), (40.0, 50.0)]
DURATION = 48.0


def make_sources() -> list[StreamSource]:
    return [
        StreamSource(
            i,
            PiecewiseRate(STEPS),
            LinearDriftProcess(lag=LAGS[i], deviation=DEVIATIONS[i],
                               rng=50 + i),
        )
        for i in range(3)
    ]


def calibrate() -> float:
    """Capacity matching the full join at the scenario's base rate."""
    config = SimulationConfig(duration=16.0, warmup=4.0)
    sources = [
        StreamSource(
            i,
            PiecewiseRate([(0.0, 100.0)]),
            LinearDriftProcess(lag=LAGS[i], deviation=DEVIATIONS[i],
                               rng=50 + i),
        )
        for i in range(3)
    ]
    cpu = CpuModel(1e15)
    op = MJoinOperator(EpsilonJoin(1.0), [WINDOW] * 3, BASIC)
    Simulation(sources, op, cpu, config).run()
    return cpu.busy_time * 1e15 / config.duration


def main() -> None:
    capacity = calibrate()
    print(f"CPU capacity: {capacity:,.0f} units/sec "
          "(= full join at 100 tuples/sec)\n")
    print("input rate profile: "
          + " -> ".join(f"{r:g}/s@{t:g}s" for t, r in STEPS))

    for delta in (5.0, 1.0):
        config = SimulationConfig(
            duration=DURATION, warmup=8.0, adaptation_interval=delta
        )
        op = GrubJoinOperator(EpsilonJoin(1.0), [WINDOW] * 3, BASIC, rng=1)
        result = Simulation(
            make_sources(), op, CpuModel(capacity), config
        ).run()
        print(f"\nadaptation period Delta = {delta:g} s "
              f"-> output rate {result.output_rate:,.0f}/sec")
        print("  throttle trajectory:")
        # show at most ~12 samples so both runs print comparably
        z_series = result.throttle_series
        step = max(1, len(z_series) // 12)
        for t, z in list(zip(z_series.times, z_series.values))[::step]:
            rate = next(r for s, r in reversed(STEPS) if s <= t)
            bar = "#" * int(30 * z)
            print(f"    t={t:5.1f}s rate={rate:5.0f}/s z={z:5.3f} {bar}")


if __name__ == "__main__":
    main()
