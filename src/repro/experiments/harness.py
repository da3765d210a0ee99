"""Shared harness for the paper's evaluation experiments (Section 6).

Provides the synthetic workload factory (the paper's stochastic process
with per-stream lags and deviations), CPU capacity calibration, and
runners producing directly comparable GrubJoin / RandomDrop results on the
same workload.

Experiments are scaled by :func:`scale`: the default runs are shortened to
keep the full benchmark suite in minutes; set ``REPRO_FULL=1`` for the
paper's 60-second runs with 20-second warm-ups.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace


from repro.core import GrubJoinOperator
from repro.engine import CpuModel, Simulation, SimulationConfig, SimulationResult
from repro.joins import EpsilonJoin, MJoinOperator, RandomDropShedder
from repro.streams import (
    ArrivalProcess,
    ConstantRate,
    LinearDriftProcess,
    PiecewiseRate,
    StreamSource,
)

#: the paper's workload constants (Section 6.2)
DOMAIN = 1000.0
PERIOD = 50.0
EPSILON = 1.0

#: nonaligned lag / deviation defaults for up to 5 streams; the first three
#: match the paper's 3-way setup (tau = (0, 5, 15), kappa = (2, 2, 50))
NONALIGNED_TAUS = (0.0, 5.0, 15.0, 8.0, 12.0)
DEFAULT_KAPPAS = (2.0, 2.0, 50.0, 10.0, 20.0)


def full_scale() -> bool:
    """True when ``REPRO_FULL=1``: run the paper's full-length experiments."""
    return os.environ.get("REPRO_FULL", "0") == "1"


@dataclass(frozen=True)
class WorkloadSpec:
    """One synthetic m-way workload.

    Attributes:
        m: number of streams.
        rate: per-stream arrival rate (tuples/sec), or ``None`` when
            ``rate_profile`` is given.
        rate_profile: optional piecewise rate breakpoints shared by all
            streams (the Fig. 10 scenario).
        taus: per-stream lags; all-zero = aligned.
        kappas: per-stream deviations.
        window: join window size ``w`` (seconds) for every stream.
        basic_window: ``b`` (seconds).
        epsilon: the epsilon-join distance.
        seed: base RNG seed (stream ``i`` uses ``seed + i``).
    """

    m: int = 3
    rate: float | None = 100.0
    rate_profile: tuple[tuple[float, float], ...] | None = None
    taus: tuple[float, ...] = (0.0, 0.0, 0.0)
    kappas: tuple[float, ...] = (2.0, 2.0, 50.0)
    window: float = 20.0
    basic_window: float = 2.0
    epsilon: float = EPSILON
    seed: int = 7

    def __post_init__(self) -> None:
        if len(self.taus) != self.m or len(self.kappas) != self.m:
            raise ValueError("need one tau and one kappa per stream")
        if (self.rate is None) == (self.rate_profile is None):
            raise ValueError("give exactly one of rate / rate_profile")

    def arrivals(self, stream: int) -> ArrivalProcess:
        phase = stream * 1e-3  # de-phase streams so arrivals interleave
        if self.rate is not None:
            return ConstantRate(self.rate, phase=phase)
        return PiecewiseRate(list(self.rate_profile))

    def sources(self) -> list[StreamSource]:
        """Build the stream sources for this workload."""
        return [
            StreamSource(
                i,
                self.arrivals(i),
                LinearDriftProcess(
                    domain=DOMAIN,
                    period=PERIOD,
                    lag=self.taus[i],
                    deviation=self.kappas[i],
                    rng=self.seed + i,
                ),
            )
            for i in range(self.m)
        ]


def nonaligned_spec(m: int = 3, rate: float = 100.0, **kwargs) -> WorkloadSpec:
    """The paper's nonaligned workload for ``m`` streams."""
    return WorkloadSpec(
        m=m,
        rate=rate,
        taus=NONALIGNED_TAUS[:m],
        kappas=DEFAULT_KAPPAS[:m],
        **kwargs,
    )


def aligned_spec(m: int = 3, rate: float = 100.0, **kwargs) -> WorkloadSpec:
    """The paper's aligned workload (``tau_i = 0``) for ``m`` streams."""
    return WorkloadSpec(
        m=m,
        rate=rate,
        taus=(0.0,) * m,
        kappas=DEFAULT_KAPPAS[:m],
        **kwargs,
    )


def default_config(adaptation_interval: float = 5.0) -> SimulationConfig:
    """Run length per scale: the paper's 60 s / 20 s warm-up under
    ``REPRO_FULL=1``, otherwise 30 s / 10 s."""
    if full_scale():
        return SimulationConfig(
            duration=60.0, warmup=20.0,
            adaptation_interval=adaptation_interval,
        )
    return SimulationConfig(
        duration=30.0, warmup=10.0, adaptation_interval=adaptation_interval
    )


def calibrate_capacity(
    spec: WorkloadSpec,
    knee_rate: float = 100.0,
    config: SimulationConfig | None = None,
) -> float:
    """CPU capacity placing the load-shedding knee at ``knee_rate``.

    Runs the full join unconstrained at ``knee_rate`` and returns the work
    units per second it consumed — with that capacity, input rates beyond
    the knee force load shedding, mirroring Fig. 7's "no shedding needed
    until 100 tuples/sec".
    """
    config = config or default_config()
    probe_spec = replace(spec, rate=knee_rate, rate_profile=None)
    operator = MJoinOperator(
        EpsilonJoin(spec.epsilon), [spec.window] * spec.m, spec.basic_window
    )
    big = 1e15
    cpu = CpuModel(big)
    Simulation(probe_spec.sources(), operator, cpu, config).run()
    units = cpu.busy_time * big
    return units / config.duration


def run_grubjoin(
    spec: WorkloadSpec,
    capacity: float,
    config: SimulationConfig | None = None,
    **operator_kwargs,
) -> tuple[SimulationResult, GrubJoinOperator]:
    """Run GrubJoin on the workload with the given CPU capacity."""
    config = config or default_config()
    operator = GrubJoinOperator(
        EpsilonJoin(spec.epsilon),
        [spec.window] * spec.m,
        spec.basic_window,
        rng=spec.seed + 101,
        **operator_kwargs,
    )
    result = Simulation(
        spec.sources(), operator, CpuModel(capacity), config
    ).run()
    return result, operator


def run_random_drop(
    spec: WorkloadSpec,
    capacity: float,
    config: SimulationConfig | None = None,
    **operator_kwargs,
) -> tuple[SimulationResult, MJoinOperator]:
    """Run the RandomDrop baseline on the workload."""
    config = config or default_config()
    operator = MJoinOperator(
        EpsilonJoin(spec.epsilon),
        [spec.window] * spec.m,
        spec.basic_window,
        **operator_kwargs,
    )
    shedder = RandomDropShedder(operator, capacity, rng=spec.seed + 202)
    result = Simulation(
        spec.sources(),
        operator,
        CpuModel(capacity),
        config,
        admission=shedder.filters,
    ).run()
    return result, operator


# ----------------------------------------------------------------------
# result tables
# ----------------------------------------------------------------------


@dataclass
class ExperimentTable:
    """A figure's data as printable rows."""

    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)

    def add(self, *row) -> None:
        if len(row) != len(self.headers):
            raise ValueError("row arity must match headers")
        self.rows.append(list(row))

    def formatted(self) -> str:
        def fmt(v) -> str:
            if isinstance(v, float):
                return f"{v:.3f}" if abs(v) < 100 else f"{v:,.0f}"
            return str(v)

        cells = [self.headers] + [[fmt(v) for v in r] for r in self.rows]
        widths = [
            max(len(row[c]) for row in cells) for c in range(len(self.headers))
        ]
        lines = [f"== {self.title} =="]
        for r, row in enumerate(cells):
            lines.append(
                "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            )
            if r == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.formatted())

    def column(self, header: str) -> list:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


def improvement_pct(grub: float, baseline: float) -> float:
    """Percent improvement of GrubJoin over the baseline."""
    if baseline <= 0:
        return float("inf") if grub > 0 else 0.0
    return 100.0 * (grub - baseline) / baseline
