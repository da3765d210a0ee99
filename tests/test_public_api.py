"""The public API surface: everything in ``__all__`` importable and real,
every export named by a program outside ``tests/``, and every runtime
option accounted for."""

import ast
import importlib
import inspect
import io
import re
import tokenize
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

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "docs" / "ARCHITECTURE.md"


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
        "admission": "`Simulation`: RandomDrop's filters "
                     "(`examples/quickstart.py`, `run_random_drop`)",
    },
    "DataflowGraph.run": {
        "cpu": "required",
        "config": "`Simulation`, `examples/dataflow_pipeline.py`",
        "validate": "`Simulation` passes `False`; `ShardedPlan.run` "
                    "forwards its own",
        "retain_outputs": "`Simulation`: the testkit's differential rows",
        "obs": "`Simulation`: `python -m repro.obs record`, "
               "`examples/workload_diagnosis.py`",
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
        "certify": "tests only (unsafe plans reach the analyzer)",
    },
    "RouterOperator": {
        "num_streams": "required",
        "num_shards": "required",
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
        "adaptation_interval": "e2e `run_procs_pass`, `repro.obs record "
                               "--procs`, the testkit's procs rows",
        "certify": "e2e `run_procs_pass` passes `False`",
        "obs": "`repro.obs record --procs`, the e2e traced pass",
        "meta": "`repro.obs record --procs`",
        "timer": "the fake-clock seam: `repro.obs record --procs`",
    },
    "GrubJoinOperator": {
        "predicate": "required",
        "window_sizes": "required",
        "basic_window_size": "required (the paper's b)",
        "sampling": "the paper's omega: "
                    "`benchmarks/test_ablation_shredding.py`",
        "metric": "`benchmarks/test_ablation_greedy_metric.py`",
        "solver": "`\"double-sided\"`, the tech-report extension "
                  "(Fig. 6); tests only",
        "fractional_fallback": "`benchmarks/"
                               "test_ablation_fractional_init.py`",
        "memory_saving": "the paper's Section 7 memory shedding; tests only",
        "rng": "every caller: the seeded shredding sampler",
        "solver_timer": "the e2e traced pass, perfbench",
        "warm_start": "perfbench, the testkit's warm-start rows",
        "index": "the testkit's `grubjoin_z1_indexed` row",
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
        assert sum(map(len, EXPECTED.values())) == 42

    def test_docs_print_expected(self):
        assert render(EXPECTED) in DOC.read_text()


# --------------------------------------------------------------------------
# the export ratchet
# --------------------------------------------------------------------------

#: the programs an export must be named by: tests do not count
CALLER_DIRS = ("src", "benchmarks", "examples")

#: the only reasons an export may stay with no caller in ``CALLER_DIRS``
REASONS = {
    "fixture": "a workload the tests build their inputs from",
    "item 9": "statistics and seed replication: ROADMAP item 9 decides "
              "whether a replication report calls it",
}

#: every export no program outside ``tests/`` names, with its reason
#: (``docs/ARCHITECTURE.md`` prints this table, "Exports")
TESTS_ONLY = {
    "ConstantProcess": "fixture",
    "UniformProcess": "fixture",
    "compare_seeds": "item 9",
    "mixed_key_workload": "fixture",
    "overshoot": "item 9",
    "relative_improvement_ci": "item 9",
    "settling_time": "item 9",
    "steady_state_stats": "item 9",
}


def render_tests_only(tests_only):
    """``tests_only`` as the markdown table ``docs/ARCHITECTURE.md``
    prints."""
    lines = ["| export | reason | why it stays |",
             "|--------|--------|--------------|"]
    for name, reason in tests_only.items():
        lines.append(f"| `{name}` | {reason} | {REASONS[reason]} |")
    return "\n".join(lines)


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        getattr(t, "id", None) == "__all__" for t in node.targets
    )


def exports(root=ROOT):
    """Every name in a package ``__init__``'s ``__all__``, once (``repro``
    re-exports its subpackages' names)."""
    names = set()
    for init in (root / "src").rglob("__init__.py"):
        for node in ast.parse(init.read_text()).body:
            if _is_all(node):
                names.update(ast.literal_eval(node.value))
    return names


def _spans(path, tree):
    """``(name -> line spans of its module-level definitions)`` —
    ``def``, ``class``, assignment — and the line spans of an
    ``__init__``'s re-exports (its imports and ``__all__``)."""
    own, reexports = {}, []
    for node in tree.body:
        span = (node.lineno, node.end_lineno)
        if path.name == "__init__.py" and (
            isinstance(node, (ast.Import, ast.ImportFrom)) or _is_all(node)
        ):
            reexports.append(span)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            own.setdefault(node.name, []).append(span)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    own.setdefault(target.id, []).append(span)
    return own, reexports


def run_commands(workflow):
    """The shell commands of a workflow file's ``run:`` keys: an inline
    value, or the lines of a block scalar (``|``, ``>-``), which are
    indented past the key.  Step names and YAML comments are not
    commands."""
    commands, block = [], None
    for line in workflow.splitlines():
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        if block is not None:
            if not stripped or indent > block:
                commands.append(line)
                continue
            block = None
        match = re.match(r"(?:- )?run:\s*(.*)$", stripped)
        if match is None:
            continue
        if match.group(1)[:1] in ("|", ">"):
            block = indent
        else:
            commands.append(match.group(1))
    return "\n".join(commands)


def callers(names, root=ROOT):
    """``name -> ["path:line", ...]``: every NAME token naming one of
    ``names`` in ``CALLER_DIRS``, outside the name's own definition and
    the ``__init__`` re-exports, plus any ``.github/workflows`` file
    whose ``run:`` commands name it.  Comments and docstrings hold no
    NAME tokens."""
    found = {name: [] for name in names}
    for path in sorted(p for d in CALLER_DIRS
                       for p in (root / d).rglob("*.py")):
        text = path.read_text()
        own, reexports = _spans(path, ast.parse(text))
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type != tokenize.NAME or tok.string not in found:
                continue
            line = tok.start[0]
            if not any(lo <= line <= hi
                       for lo, hi in reexports + own.get(tok.string, [])):
                found[tok.string].append(
                    f"{path.relative_to(root)}:{line}")
    for path in sorted((root / ".github" / "workflows").glob("*.yml")):
        text = run_commands(path.read_text())
        for name in names:
            if re.search(rf"\b{re.escape(name)}\b", text):
                found[name].append(str(path.relative_to(root)))
    return found


class TestExportCallers:
    def test_uncalled_exports_are_exactly_the_tests_only_ones(self):
        # both directions: a new export needs a caller or a row, and a
        # row whose name gained a caller must go
        found = callers(exports())
        assert sorted(n for n, where in found.items() if not where) == (
            sorted(TESTS_ONLY)
        )

    def test_export_count(self):
        assert len(exports()) == 235

    def test_no_two_exports_share_a_name(self):
        # a name bound to two different objects by two package
        # ``__all__``s would count one's callers as the other's
        bound = {}
        for init in sorted((ROOT / "src").rglob("__init__.py")):
            package = ".".join(init.parent.relative_to(ROOT / "src").parts)
            module = importlib.import_module(package)
            for name in getattr(module, "__all__", ()):
                bound.setdefault(name, {})[package] = getattr(module, name)
        clashes = {
            name: sorted(by_package)
            for name, by_package in bound.items()
            if len({id(obj) for obj in by_package.values()}) > 1
        }
        assert clashes == {}

    def test_docs_print_tests_only(self):
        # rendering looks every reason up in REASONS: there are two
        assert render_tests_only(TESTS_ONLY) in DOC.read_text()

    def test_definitions_reexports_comments_and_docstrings_do_not_count(
        self, tmp_path
    ):
        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text(
            "from .mod import LIMIT, Lonely, Used\n"
            "__all__ = ['LIMIT', 'Lonely', 'Used']\n"
        )
        (pkg / "mod.py").write_text(
            "LIMIT = 3\n"
            "\n\n"
            "class Lonely:\n"
            "    def clone(self):\n"
            "        return Lonely()  # Used, LIMIT\n"
            "\n\n"
            "def make():\n"
            "    \"\"\"Lonely\"\"\"\n"
            "    return Used()\n"
        )
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "bench.py").write_text(
            "from pkg import LIMIT\n"
        )
        (tmp_path / ".github" / "workflows").mkdir(parents=True)
        (tmp_path / ".github" / "workflows" / "ci.yml").write_text(
            "steps:\n"
            "  - name: Lonely step  # Used\n"
            "    run: python -c 'import pkg; pkg.make()'\n"
            "  - run: >-\n"
            "      python -c 'import pkg;\n"
            "      pkg.LIMIT'\n"
        )
        assert exports(tmp_path) == {"LIMIT", "Lonely", "Used"}
        assert callers({"LIMIT", "Lonely", "Used", "make"}, tmp_path) == {
            "LIMIT": ["benchmarks/bench.py:1", ".github/workflows/ci.yml"],
            "Lonely": [],
            "Used": ["src/pkg/mod.py:11"],
            "make": [".github/workflows/ci.yml"],
        }
