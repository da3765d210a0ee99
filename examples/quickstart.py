"""Quickstart: a 3-way windowed stream join under CPU overload.

Builds the paper's synthetic workload (three correlated streams with
per-stream lags), runs the full join to find the CPU capacity it needs,
then doubles the input rate and compares:

* **GrubJoin** — adaptive window harvesting (the paper's contribution),
* **RandomDrop** — optimized tuple dropping (the baseline),

printing the output rates and GrubJoin's throttle trajectory.

Run:  python examples/quickstart.py
"""

from repro import (
    ConstantRate,
    CpuModel,
    EpsilonJoin,
    GrubJoinOperator,
    LinearDriftProcess,
    MJoinOperator,
    RandomDropShedder,
    Simulation,
    SimulationConfig,
    StreamSource,
)

WINDOW = 20.0       # join window w_i, seconds
BASIC = 2.0         # basic window b, seconds
LAGS = (0.0, 5.0, 15.0)       # nonaligned streams (paper Section 6.2)
DEVIATIONS = (2.0, 2.0, 50.0)  # S1, S2 strongly correlated; S3 noisy


def make_sources(rate: float) -> list[StreamSource]:
    """Three streams of the paper's stochastic process at `rate` tuples/s."""
    return [
        StreamSource(
            i,
            ConstantRate(rate, phase=i * 1e-3),
            LinearDriftProcess(
                domain=1000, period=50, lag=LAGS[i],
                deviation=DEVIATIONS[i], rng=100 + i,
            ),
        )
        for i in range(3)
    ]


def calibrate(rate: float, config: SimulationConfig) -> float:
    """CPU capacity (work units/sec) the *full* join needs at `rate`."""
    cpu = CpuModel(1e15)
    operator = MJoinOperator(EpsilonJoin(1.0), [WINDOW] * 3, BASIC)
    Simulation(make_sources(rate), operator, cpu, config).run()
    return cpu.busy_time * 1e15 / config.duration


def main() -> None:
    config = SimulationConfig(duration=30.0, warmup=10.0,
                              adaptation_interval=2.0)
    knee = 100.0
    capacity = calibrate(knee, config)
    print(f"calibrated CPU capacity: {capacity:,.0f} comparisons/sec "
          f"(full join at {knee:g} tuples/sec/stream)")

    overload_rate = 2 * knee
    print(f"\ndriving both joins at {overload_rate:g} tuples/sec/stream "
          f"(2x the sustainable rate)\n")

    # --- GrubJoin: in-operator load shedding via window harvesting -----
    grub = GrubJoinOperator(EpsilonJoin(1.0), [WINDOW] * 3, BASIC, rng=1)
    grub_result = Simulation(
        make_sources(overload_rate), grub, CpuModel(capacity), config
    ).run()

    # --- RandomDrop: drop operators in front of the full join ----------
    mjoin = MJoinOperator(EpsilonJoin(1.0), [WINDOW] * 3, BASIC)
    shedder = RandomDropShedder(mjoin, capacity, rng=2)
    drop_result = Simulation(
        make_sources(overload_rate),
        mjoin,
        CpuModel(capacity),
        config,
        admission=shedder.filters,
    ).run()

    print(f"GrubJoin   output rate: {grub_result.output_rate:10,.0f} results/sec")
    print(f"RandomDrop output rate: {drop_result.output_rate:10,.0f} results/sec")
    improvement = (
        100.0 * (grub_result.output_rate / drop_result.output_rate - 1.0)
        if drop_result.output_rate
        else float("inf")
    )
    print(f"improvement: {improvement:+.0f}%")

    print("\nGrubJoin throttle fraction over time "
          "(z = share of the full join's work the budget allows):")
    z_series = grub_result.throttle_series
    for t, z in zip(z_series.times, z_series.values):
        bar = "#" * int(40 * z)
        print(f"  t={t:5.1f}s  z={z:5.3f}  {bar}")

    keep = shedder.last_plan.keep if shedder.last_plan else None
    if keep is not None:
        print("\nRandomDrop keep probabilities per stream:",
              [f"{k:.2f}" for k in keep])


if __name__ == "__main__":
    main()
