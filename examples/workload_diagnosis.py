"""Diagnose a workload's time correlations, then configure the join.

The workflow a downstream user actually follows:

1. record a sample of each stream;
2. measure the pairwise offset-match profile — is there an exploitable
   time correlation, and where does it sit?
3. size the join window so the correlation peak fits inside it;
4. run the join with GrubJoin shedding on a simulated CPU,
   instrumented with ``repro.obs`` so the run explains itself.

Run:  python examples/workload_diagnosis.py
"""

from repro import (
    ConstantRate,
    CpuModel,
    EpsilonJoin,
    GrubJoinOperator,
    LinearDriftProcess,
    MJoinOperator,
    Simulation,
    SimulationConfig,
    StreamSource,
)
from repro.analysis import offset_match_profile, sparkline
from repro.obs import Obs, render_report
from repro.streams import record_trace

RATE = 60.0
LAGS = (0.0, 3.0, 9.0)
SAMPLE_SECONDS = 40.0


def make_source(stream: int) -> StreamSource:
    return StreamSource(
        stream,
        ConstantRate(RATE, phase=stream * 1e-3),
        LinearDriftProcess(lag=LAGS[stream], deviation=1.5,
                           rng=70 + stream),
    )


def main() -> None:
    print("1. recording stream samples...")
    traces = [
        record_trace(i, ConstantRate(RATE, phase=i * 1e-3),
                     LinearDriftProcess(lag=LAGS[i], deviation=1.5,
                                        rng=70 + i),
                     SAMPLE_SECONDS)
        for i in range(3)
    ]

    print("\n2. offset-match profiles vs stream 1 "
          "(where do partners live?):")
    predicate = EpsilonJoin(1.0)
    peaks = []
    for other in (1, 2):
        profile = offset_match_profile(
            traces[0], traces[other], predicate,
            max_offset=15.0, bin_width=1.0,
        )
        peaks.append(profile.peak_offset())
        print(f"  S1 vs S{other + 1}: peak at {profile.peak_offset():+.0f}s, "
              f"concentration {profile.concentration():.1f}x")
        print(f"    {sparkline(profile.match_probability, width=31)}  "
              f"(offsets -15s..+15s)")

    window = max(abs(p) for p in peaks) + 3.0
    print(f"\n3. sizing the window to cover the peaks: w = {window:g}s")

    print("\n4. running the query (GrubJoin, CPU at half the full-join "
          "need)...")
    windows = [window] * 3
    basic = window / 10
    # calibrate on a probe run: the full join on an unbounded CPU
    probe = Simulation(
        [make_source(i) for i in range(3)],
        MJoinOperator(predicate, windows, basic),
        CpuModel(1e15),
        SimulationConfig(duration=30.0, warmup=10.0,
                         adaptation_interval=5.0),
    ).run()
    full_rate = probe.output_rate
    obs = Obs()
    obs.meta.update(workload="workload-diagnosis", window=window)
    join = GrubJoinOperator(predicate, windows, basic, rng=1)
    result = Simulation(
        [make_source(i) for i in range(3)],
        join,
        CpuModel(2e5),
        SimulationConfig(duration=30.0, warmup=10.0,
                         adaptation_interval=2.0),
        obs=obs,
    ).run()
    kept = (100.0 * result.output_rate / full_rate) if full_rate else 0.0
    print(f"   unconstrained join: {full_rate:10,.0f} results/sec")
    print(f"   GrubJoin, shedding: {result.output_rate:10,.0f} results/sec "
          f"({kept:.0f}% of full at z={join.throttle_fraction:.2f})")

    print("\n5. telemetry report for the instrumented run:")
    print(render_report(obs))


if __name__ == "__main__":
    main()
