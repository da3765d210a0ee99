"""The public API surface: everything in ``__all__`` importable and real,
and every runtime option accounted for."""

import importlib
import inspect
from pathlib import Path

import pytest

import repro
from repro.core import GrubJoinOperator
from repro.engine import DataflowGraph
from repro.parallel import (
    MergerOperator,
    RouterOperator,
    ShardedPlan,
    build_sharded_graph,
    run_procs,
)

DOC = Path(__file__).resolve().parents[1] / "docs" / "ARCHITECTURE.md"


class TestTopLevelApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.analysis",
            "repro.core",
            "repro.engine",
            "repro.experiments",
            "repro.joins",
            "repro.obs",
            "repro.streams",
            "repro.testkit",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"

    def test_no_private_names_exported(self):
        for mod_name in ("repro", "repro.core", "repro.engine",
                         "repro.joins", "repro.obs", "repro.streams",
                         "repro.testkit"):
            mod = importlib.import_module(mod_name)
            assert not any(n.startswith("_") for n in mod.__all__)

    def test_all_sorted(self):
        """Keep the export lists tidy (and merges conflict-free)."""
        for mod_name in ("repro", "repro.core", "repro.engine",
                         "repro.joins", "repro.obs", "repro.streams",
                         "repro.testkit"):
            mod = importlib.import_module(mod_name)
            assert list(mod.__all__) == sorted(mod.__all__), mod_name

    def test_every_export_has_a_docstring(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            assert getattr(obj, "__doc__", None), name


# --------------------------------------------------------------------------
# the option ratchet
# --------------------------------------------------------------------------

ENTRY_POINTS = {
    "DataflowGraph.add_node": DataflowGraph.add_node,
    "DataflowGraph.run": DataflowGraph.run,
    "ShardedPlan.run": ShardedPlan.run,
    "build_sharded_graph": build_sharded_graph,
    "RouterOperator": RouterOperator,
    "MergerOperator": MergerOperator,
    "run_procs": run_procs,
    "GrubJoinOperator": GrubJoinOperator,
}

#: every parameter of the runtime's entry points, in signature order, with
#: the program outside ``tests/`` that needs it or the reason it stays.  A
#: new option needs a row here, and so in the table ``docs/ARCHITECTURE.md``
#: prints ("Options").
EXPECTED = {
    "DataflowGraph.add_node": {
        "name": "required: edges, results and the `node=` label",
        "operator": "required",
        "admission": "`Simulation`; `Query` with `shedding=\"randomdrop\"`",
        "buffer_capacity": "tests only (per-node form of "
                           "`SimulationConfig.buffer_capacity`)",
    },
    "DataflowGraph.run": {
        "cpu": "required",
        "config": "`Simulation`, `Query`, `examples/dataflow_pipeline.py`",
        "validate": "`Simulation` and `Query` pass `False` (checked already)",
        "retain_outputs": "`Simulation`: the testkit's differential rows",
        "obs": "`Simulation`, `Query`: `python -m repro.obs record`",
    },
    "ShardedPlan.run": {
        "cpu": "required",
        "config": "`examples/sharded_scaleout.py`, "
                  "`repro.experiments.shard_scaleout`",
        "validate": "tests only (two runtimes on a plan P130 rejects)",
        "retain_outputs": "the testkit's `sharded_ids`",
    },
    "build_sharded_graph": {
        "sources": "required",
        "make_shard": "required",
        "num_shards": "required",
        "key": "tests only (the default routes on the tuple value)",
        "certify": "tests only (unsafe plans reach the analyzer)",
    },
    "RouterOperator": {
        "num_streams": "required",
        "num_shards": "required",
        "key": "`build_sharded_graph` and `run_procs` forward theirs",
        "policy": "`benchmarks/e2e/check.py` passes `\"hash\"`",
        "rebalance_threshold": "`benchmarks/e2e/check.py` passes `None`",
    },
    "MergerOperator": {
        "num_shards": "required",
    },
    "run_procs": {
        "sources": "required",
        "make_shard": "required",
        "num_shards": "required",
        "duration": "required",
        "key": "tests only (the default routes on the tuple value)",
        "adaptation_interval": "e2e `run_procs_pass`, `repro.obs record "
                               "--procs`, the testkit's procs rows",
        "certify": "e2e `run_procs_pass` passes `False`",
        "obs": "`repro.obs record --procs`, the e2e traced pass",
        "meta": "`repro.obs record --procs`",
        "dashboard": "tests only (the live fleet view)",
        "timer": "the fake-clock seam: `repro.obs record --procs`",
    },
    "GrubJoinOperator": {
        "predicate": "required",
        "window_sizes": "required",
        "basic_window_size": "required (the paper's b)",
        "orders": "shared with `MJoinOperator`: `Query.join` feeds either",
        "adapt_orders": "shared with `MJoinOperator`: `Query.join` feeds "
                        "either",
        "sampling": "the paper's omega: "
                    "`benchmarks/test_ablation_shredding.py`",
        "metric": "`benchmarks/test_ablation_greedy_metric.py`",
        "solver": "`\"double-sided\"`, the tech-report extension "
                  "(Fig. 6); tests only",
        "output_cost": "shared with `MJoinOperator`: `Query.join` feeds "
                       "either",
        "fractional_fallback": "`benchmarks/"
                               "test_ablation_fractional_init.py`",
        "memory_saving": "the paper's Section 7 memory shedding; tests only",
        "rng": "every caller: the seeded shredding sampler",
        "solver_timer": "the e2e traced pass, perfbench",
        "warm_start": "perfbench, the testkit's warm-start rows",
        "index": "shared with `MJoinOperator`: `Query.join(index=)` (P133)",
    },
}


def parameters(entry):
    return [name for name in inspect.signature(entry).parameters
            if name != "self"]


def render(expected):
    """``expected`` as the markdown table ``docs/ARCHITECTURE.md``
    prints."""
    lines = ["| entry point | parameter | needed by |",
             "|-------------|-----------|-----------|"]
    for entry, options in expected.items():
        for name, why in options.items():
            lines.append(f"| `{entry}` | `{name}` | {why} |")
    return "\n".join(lines)


class TestOptionRatchet:
    def test_signatures_match_expected(self):
        assert list(EXPECTED) == list(ENTRY_POINTS)
        for entry, function in ENTRY_POINTS.items():
            assert parameters(function) == list(EXPECTED[entry]), entry

    def test_option_count(self):
        assert sum(map(len, EXPECTED.values())) == 50

    def test_docs_print_expected(self):
        assert render(EXPECTED) in DOC.read_text()
