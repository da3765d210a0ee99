"""repro.perf — the wall-clock fast path, collected in one place.

The simulator's contract is *virtual-time determinism*: what a run
computes may never depend on the host it computes it on.  This package
groups everything that makes runs **faster in wall clock while
bit-identical in virtual time**:

* the columnar probe kernel
  (:func:`repro.joins.columnar.run_pipeline_columnar`), re-exported
  here together with :func:`supports_columnar` and the one selection
  rule :func:`select_kernel` (columnar iff the predicate supports it —
  the operators derive the kernel, callers never choose it);
* epoch slice caching on
  :class:`repro.core.basic_windows.PartitionedWindow` (``full_slices``
  memoization keyed on the rotation epoch and content version, plus
  ``logical_span_slices`` for run-merged harvesting);
* solver warm starts and score-convolution caching on
  :class:`repro.core.GrubJoinOperator` (``warm_start=True``,
  histogram-version-keyed Eq. 2/4 score memoization);
* the perfbench regression harness (:mod:`repro.perf.bench`, runnable
  as ``python -m repro.perf.bench``), which measures the same-host
  ratios CI gates on (hash index vs flat scan, warm vs cold solver,
  procs scaling) and writes ``BENCH_PERF.json``.  Absolute end-to-end
  numbers are ``BENCHMARK.json`` / ``benchmarks/e2e``.

The kernel itself lives in :mod:`repro.joins.columnar` so the join
layer has no dependency on this package; ``repro.perf`` is the façade
benchmarks and docs import from.
"""

from repro.joins.columnar import (
    run_pipeline_columnar,
    select_kernel,
    supports_columnar,
)

__all__ = [
    "run_pipeline_columnar",
    "select_kernel",
    "supports_columnar",
]
