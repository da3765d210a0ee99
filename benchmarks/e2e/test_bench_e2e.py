"""Self-test of the end-to-end benchmark (outside tier-1 ``testpaths``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py``;
three ``--smoke`` runs take about a minute and a half.  Checks the output
schema, the naming rules of the benchmark contract, and that everything
the README calls deterministic really repeats: every diamond metric,
``recall`` and the result-id digests are equal across two runs of a seed
and the digests change with the seed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from bench import DETERMINISTIC  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _smoke(tmp_path_factory, seed: int, tag: str) -> dict:
    out = tmp_path_factory.mktemp("e2e") / f"{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--smoke",
         "--seed", str(seed), "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout
    document = json.loads(out.read_text(encoding="utf-8"))
    document["stdout"] = proc.stdout
    return document


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    return {
        "a": _smoke(tmp_path_factory, 11, "a"),
        "b": _smoke(tmp_path_factory, 11, "b"),
        "other_seed": _smoke(tmp_path_factory, 12, "c"),
    }


def test_contract_file_meets_the_schema(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 1 <= len(contract["command"]) <= 32
    assert all(len(part) <= 200 for part in contract["command"])
    assert 1 <= len(contract["paths"]) <= 16
    for path in contract["paths"]:
        assert PATH.match(path) and not path.startswith("/")
        assert ".." not in path.split("/")
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(contract["end_to_end"]) <= 16
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert 1 <= len(contract["per_layer"]) <= 128
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [w["name"] for w in contract["workloads"]] + [
        m["name"] for m in contract["end_to_end"] + contract["per_layer"]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in contract["end_to_end"])
    size = (ROOT / "BENCHMARK.json").stat().st_size
    assert size <= 64 * 1024


def test_every_metric_is_reported_for_every_workload(runs, contract):
    document = runs["a"]
    assert set(document["host"]) == {"nproc", "python", "numpy", "loadavg"}
    workloads = {w["name"] for w in contract["workloads"]}
    assert set(document["workloads"]) == workloads
    e2e = {m["name"] for m in contract["end_to_end"]}
    layers = {m["name"] for m in contract["per_layer"]}
    for name, entry in document["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, name
        assert entry["attempted"] > 0
        assert set(entry["metrics"]) == e2e, name
        for metric, spread in entry["metrics"].items():
            assert spread["value"] > 0, (name, metric)
        assert set(entry["layers"]) == layers, name
        assert all(entry["verify"]["checks"].values()), name
        assert re.fullmatch(r"[0-9a-f]{64}", entry["verify"]["digest"])
    # a layer that does not run on a workload reads 0 there
    sim = document["workloads"]["shed3_drift"]["layers"]
    procs = document["workloads"]["procs_k2_keys"]["layers"]
    assert sim["engine.events.us_per_tuple"] > 0
    assert sim["core.greedy.solver_us_per_tick"] > 0
    assert sim["parallel.procs.batches"] == 0
    assert procs["parallel.procs.batches"] > 0
    assert procs["engine.events.us_per_tuple"] == 0


def test_output_lines_name_workload_metric_value_unit(runs, contract):
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    seen = set()
    for line in runs["a"]["stdout"].splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[1] in units:
            assert NAME.match(parts[0]) and parts[3] == units[parts[1]], line
            assert parts[2] == "null" or float(parts[2]) >= 0, line
            seen.add((parts[0], parts[1]))
    for workload in runs["a"]["workloads"]:
        for metric in contract["end_to_end"]:
            assert (workload, metric["name"]) in seen
        assert f"{workload} ops_failed 0 count" in runs["a"]["stdout"]


def test_recall_is_one_unless_shedding(runs):
    for name, entry in runs["a"]["workloads"].items():
        recall = entry["metrics"]["recall"]["value"]
        if name == "shed3_drift":
            assert 0.0 < recall < 1.0
        else:
            assert recall == 1.0


def test_deterministic_values_repeat_for_a_seed(runs):
    a, b = runs["a"]["workloads"], runs["b"]["workloads"]
    for name in a:
        assert a[name]["verify"] == b[name]["verify"], name
        assert (a[name]["metrics"]["recall"]["value"]
                == b[name]["metrics"]["recall"]["value"]), name
        assert a[name]["attempted"] == b[name]["attempted"], name
        for key in DETERMINISTIC:
            assert a[name]["layers"].get(key) == b[name]["layers"].get(key), (
                name, key)


def test_another_seed_changes_the_digests(runs):
    a, c = runs["a"]["workloads"], runs["other_seed"]["workloads"]
    for name in a:
        assert a[name]["verify"]["digest"] != c[name]["verify"]["digest"]
