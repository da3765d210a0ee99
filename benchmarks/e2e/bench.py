#!/usr/bin/env python3
"""Absolute end-to-end benchmark: four workloads, six end-to-end metrics,
a per-layer breakdown measured from outside.  See README.md next to this
file for definitions, the run protocol and how to read the numbers.

Report mode (everything, human-readable; about nine minutes)::

    python3 benchmarks/e2e/bench.py --seed 11 [--out FILE] [--smoke] [--aa]

prints one ``workload metric value unit`` line per metric (median over
the timed passes, quartiles and pass count alongside).  ``--aa`` runs two
complete sets (interleaved workload by workload) and fails if any
end-to-end metric's two medians differ by more than its bound.

Contract mode (one workload, one JSON object on the last line)::

    python3 benchmarks/e2e/bench.py --workload W --seed N --seconds S --trace 0|1

Each workload runs in its own child process (honest ``setup_s`` and
``peak_rss_mb``); a second child does the verification and the traced
pass, so neither touches the timed numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: scratch space for the procs workers' sample files (inside the checkout)
WORK = ROOT / ".bench_e2e"

#: timed passes per workload: medians over 12 agreed within 5% between
#: consecutive sets on the sizing host, medians over 5-8 did not
PASSES = 12
#: contract mode measures for ``--seconds``, which holds 12-16 passes on
#: the sizing host; a host too slow for that still gets this many
CONTRACT_MIN_PASSES = 8
#: fresh processes whose set-up time is sampled (the timed child is one):
#: three fit the contract's time per run, report mode can afford more
SETUPS = 3
REPORT_SETUPS = 7
CHILD_TIMEOUT_S = 170

#: per-layer metrics that are counts or virtual-time values: they repeat
#: exactly for a seed, whatever the host does (README marks them with a
#: diamond); the A/A mode and the self-test compare them with ``==``
DETERMINISTIC = (
    "engine.events.ops_per_tuple",
    "engine.buffers.backlog_at_stop",
    "engine.cpu.utilization",
    "engine.runtime.vlat_p95_ms",
    "core.basic_windows.slice_cut_calls_per_tuple",
    "core.windex.pruned_ratio",
    "core.windex.rebuilds",
    "joins.columnar.comparisons_per_tuple",
    "joins.columnar.results_per_tuple",
    "core.greedy.evaluations_per_tick",
    "core.throttle.z_final",
    "parallel.router.routed_skew",
    "parallel.procs.batch_bytes_per_tuple",
    "parallel.procs.ack_bytes_per_result",
    "parallel.procs.batches",
    "trace.spans_per_tuple",
)


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def spawn(role: str, workload: str, seed: int, **options) -> dict:
    """Run one child to completion and parse the JSON on its last line."""
    argv = [sys.executable, str(HERE / "bench.py"), "--role", role,
            "--workload", workload, "--seed", str(seed),
            "--spawned-at", repr(time.time())]
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value not in (None, False):
            argv += [flag, str(value)]
    proc = subprocess.run(
        argv, env=_child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{role} child of {workload} exited with {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _workdir() -> str:
    return str(WORK / str(os.getpid()))


def role_setup(args) -> dict:
    from workloads import prepare

    prepare(args.workload, args.seed, smoke=args.smoke)
    return {"setup_s": time.time() - args.spawned_at}


def role_timed(args) -> dict:
    """Set-up, one discarded warm-up pass, then the timed passes, with a
    calibration kernel between passes (host speed during each pass)."""
    from workloads import (
        SPECS,
        kernel_seconds,
        peak_rss_mb,
        prepare,
        run_pass,
        speed_factor,
    )

    prep = prepare(args.workload, args.seed, smoke=args.smoke)
    setup_s = time.time() - args.spawned_at
    workdir = _workdir()
    run_pass(prep, workdir)
    passes = []
    before = kernel_seconds()
    started = time.perf_counter()
    while (len(passes) < args.passes
           or time.perf_counter() - started < args.seconds):
        res = run_pass(prep, workdir)
        after = kernel_seconds()
        passes.append({
            "wall_s": res.wall_s,
            "speed": speed_factor(before, after),
            "offered": res.offered,
            "serviced": res.serviced,
            "dropped": res.dropped,
            "results": res.results,
            "service_p50_us": res.service_p50_us,
            "service_p95_us": res.service_p95_us,
            "service_p99_us": res.service_p99_us,
            "service_samples": res.service_samples,
            "error": res.error,
        })
        before = after
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(SPECS[args.workload].host == "procs"),
        "passes": passes,
    }


def role_check(args) -> dict:
    import check

    return check.run(
        args.workload, args.seed, smoke=args.smoke, trace=bool(args.trace),
        seconds=args.seconds, passes=args.passes or None,
        workdir=_workdir(), trace_out=args.trace_out,
    )


# ----------------------------------------------------------------------
# one workload, end to end
# ----------------------------------------------------------------------


def _spread(values: list[float]) -> dict:
    """Median with quartiles and the sample count."""
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"value": q2, "q1": q1, "q3": q3, "n": len(values)}


def measure_e2e(workload: str, seed: int, *, seconds: float, passes: int,
                setups: int, smoke: bool) -> dict:
    """Timed child + extra set-up samples + verification child.  Half of
    the set-up samples are taken before the timed child and half after,
    so they do not all sit in the same few seconds of host weather."""
    extra = setups - 1
    setup = [spawn("setup", workload, seed, smoke=smoke)
             for _ in range(extra // 2)]
    timed = spawn("timed", workload, seed, seconds=seconds, passes=passes,
                  smoke=smoke)
    setup.append(timed)
    setup += [spawn("setup", workload, seed, smoke=smoke)
              for _ in range(extra - extra // 2)]
    checked = spawn("check", workload, seed, smoke=smoke)
    verdict = checked["verify"]

    attempted = failed = 0
    good = []
    for p in timed["passes"]:
        attempted += p["offered"]
        if (not verdict["ok"] or p["error"] or p["dropped"]
                or p["results"] != verdict["results"]):
            failed += p["offered"]
        else:
            good.append(p)
    metrics, raw = {}, {}
    if good:
        reference = verdict["reference_results"]
        # pass durations are multiplied by the host speed measured around
        # them (README, "host-speed normalisation"); set-up time, counts
        # and ratios are not
        metrics = {
            "setup_s": _spread([s["setup_s"] for s in setup]),
            "tuples_per_s": _spread(
                [p["serviced"] / (p["wall_s"] * p["speed"]) for p in good]
            ),
            "service_p50_us": _spread(
                [p["service_p50_us"] * p["speed"] for p in good]
            ),
            "service_p95_us": _spread(
                [p["service_p95_us"] * p["speed"] for p in good]
            ),
            "recall": _spread(
                [p["results"] / reference if reference else 1.0
                 for p in good]
            ),
            "peak_rss_mb": _spread([timed["peak_rss_mb"]]),
        }
        raw = {
            "host_speed_x": _spread([p["speed"] for p in good]),
            "pass_wall_s": _spread([p["wall_s"] for p in good]),
            "raw_tuples_per_s": _spread(
                [p["serviced"] / p["wall_s"] for p in good]
            ),
            "raw_service_p50_us": _spread(
                [p["service_p50_us"] for p in good]
            ),
            "raw_service_p95_us": _spread(
                [p["service_p95_us"] for p in good]
            ),
        }
    return {
        "workload": workload,
        "correct": bool(good) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
        "service_samples_per_pass":
            good[0]["service_samples"] if good else 0,
        "parameters": checked["parameters"],
        "verify": verdict,
    }


def measure_layers(workload: str, seed: int, contract: dict, *,
                   seconds: float, passes: int | None, smoke: bool,
                   trace_out: str | None = None) -> dict:
    """Verification + traced child; every per-layer metric of the contract
    gets a value: 0 where the layer does not run on this workload,
    ``None`` where its hook target is gone (the child says so in a note)."""
    checked = spawn("check", workload, seed, trace=1, seconds=seconds,
                    passes=passes, smoke=smoke, trace_out=trace_out)
    verdict = checked["verify"]
    failed = checked["failed"] if verdict["ok"] else checked["attempted"]
    return {
        "workload": workload,
        "correct": verdict["ok"] and failed == 0,
        "attempted": checked["attempted"],
        "failed": failed,
        "layers": {m["name"]: checked["layers"].get(m["name"], 0.0)
                   for m in contract["per_layer"]},
        "notes": checked["notes"],
        "verify": verdict,
    }


# ----------------------------------------------------------------------
# contract mode
# ----------------------------------------------------------------------


def contract_run(args, contract: dict) -> int:
    if args.trace:
        out = measure_layers(args.workload, args.seed, contract,
                             seconds=args.seconds, passes=None, smoke=False)
        for note in out["notes"]:
            print(f"note: {note}", file=sys.stderr)
        # the contract wants a number for every metric: a layer whose hook
        # target is gone (noted above) reads 0 here, ``null`` in report mode
        metrics = {
            m["name"]: {"value": out["layers"][m["name"]] or 0.0,
                        "unit": m["unit"]}
            for m in contract["per_layer"]
        }
    else:
        out = measure_e2e(args.workload, args.seed, seconds=args.seconds,
                          passes=CONTRACT_MIN_PASSES, setups=SETUPS,
                          smoke=False)
        # no valid pass at all leaves nothing to report: zeros, not correct
        metrics = {
            m["name"]: {
                "value": out["metrics"].get(m["name"], {"value": 0.0})["value"],
                "unit": m["unit"],
            }
            for m in contract["end_to_end"]
        }
    # a printed result carries its own verdict; the exit code only says
    # whether the benchmark itself ran
    print(json.dumps({
        "correct": out["correct"],
        "attempted": max(out["attempted"], 1),
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# report mode
# ----------------------------------------------------------------------


def host_block() -> dict:
    import platform

    import numpy

    nproc = os.cpu_count() or 1
    load = os.getloadavg()
    if load[0] > nproc:
        print(f"warning: load average {load[0]:.2f} exceeds nproc={nproc}; "
              "wall-clock numbers will be inflated", file=sys.stderr)
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(load),
    }


def run_sets(args, contract: dict, count: int) -> list[dict]:
    """``count`` complete sets, every workload measured end to end and
    per layer.  The sets are interleaved workload by workload, so that an
    A/A pair sees the same stretch of host weather."""
    passes = 2 if args.smoke else PASSES
    setups = 1 if args.smoke else REPORT_SETUPS
    sets: list[dict] = [{} for _ in range(count)]
    for spec in contract["workloads"]:
        name = spec["name"]
        for result in sets:
            entry = measure_e2e(name, args.seed, seconds=0.0, passes=passes,
                                setups=setups, smoke=args.smoke)
            traced = measure_layers(
                name, args.seed, contract, seconds=0.0,
                passes=1 if args.smoke else 3, smoke=args.smoke,
                trace_out=(f"{args.trace_out}.{name}.json"
                           if args.trace_out else None),
            )
            entry["layers"] = traced["layers"]
            entry["notes"] = traced["notes"]
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["correct"] = entry["correct"] and traced["correct"]
            result[name] = entry
    return sets


def print_set(result: dict, contract: dict) -> None:
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    for name, entry in result.items():
        for metric, s in entry["metrics"].items():
            print(f"{name} {metric} {s['value']:.6g} {units[metric]}  "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
        for metric, s in entry["raw"].items():
            print(f"{name} {metric} {s['value']:.6g}  q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} n={s['n']}  (not normalised)")
        print(f"{name} service_samples_per_pass "
              f"{entry['service_samples_per_pass']} count")
        for metric, value in entry["layers"].items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{name} {metric} {shown} {units[metric]}")
        print(f"{name} ops_attempted {entry['attempted']} count")
        print(f"{name} ops_failed {entry['failed']} count")
        verdict = entry["verify"]
        print(f"{name} result_ids_sha256 {verdict['digest']} "
              f"({verdict['results']} results, reference "
              f"{verdict['reference_results']}; "
              + ", ".join(f"{k}={v}" for k, v in verdict["checks"].items())
              + ")")
        for note in entry["notes"]:
            print(f"{name} note: {note}")


def compare_sets(a: dict, b: dict, contract: dict) -> dict:
    """A/A verdict: per workload and end-to-end metric, both medians with
    quartiles and their ratio against the metric's bound; deterministic
    values (recall, digests) must agree exactly."""
    outcome = {"ok": True, "metrics": {}, "exact": {}}
    for name in a:
        for m in contract["end_to_end"]:
            sa, sb = a[name]["metrics"][m["name"]], b[name]["metrics"][m["name"]]
            lo, hi = sorted((sa["value"], sb["value"]))
            ratio = hi / lo if lo > 0 else float("inf")
            ok = ratio - 1.0 <= m["bound"]
            outcome["metrics"][f"{name}.{m['name']}"] = {
                "a": sa, "b": sb, "ratio": ratio, "bound": m["bound"],
                "ok": ok,
            }
            outcome["ok"] = outcome["ok"] and ok
        differing = [
            key for key in DETERMINISTIC
            if a[name]["layers"].get(key) != b[name]["layers"].get(key)
        ]
        if a[name]["verify"]["digest"] != b[name]["verify"]["digest"]:
            differing.append("result_ids_sha256")
        if (a[name]["metrics"]["recall"]["value"]
                != b[name]["metrics"]["recall"]["value"]):
            differing.append("recall")
        outcome["exact"][name] = {"ok": not differing,
                                  "differing": differing}
        outcome["ok"] = outcome["ok"] and not differing
    return outcome


def report_run(args, contract: dict) -> int:
    document = {"seed": args.seed, "smoke": args.smoke, "host": host_block()}
    sets = run_sets(args, contract, 2 if args.aa else 1)
    first = sets[0]
    print_set(first, contract)
    document["workloads"] = first
    ok = all(e["failed"] == 0 and e["correct"] for e in first.values())
    if args.aa:
        second = sets[1]
        outcome = compare_sets(first, second, contract)
        document["aa"] = outcome
        for key, row in outcome["metrics"].items():
            print(f"aa {key} a={row['a']['value']:.6g} "
                  f"b={row['b']['value']:.6g} ratio={row['ratio']:.4f} "
                  f"bound={row['bound']} {'ok' if row['ok'] else 'FAIL'}")
        for name, row in outcome["exact"].items():
            print(f"aa {name} deterministic values "
                  + ("identical" if row["ok"]
                     else "DIFFER: " + ", ".join(row["differing"])))
        print(f"aa verdict {'ok' if outcome['ok'] else 'FAIL'}")
        ok = ok and outcome["ok"] and all(
            e["failed"] == 0 for e in second.values()
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(document, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# entry
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out")
    parser.add_argument("--trace-out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--aa", action="store_true")
    # children only
    parser.add_argument("--role", choices=("setup", "timed", "check"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.role:
        roles = {"setup": role_setup, "timed": role_timed,
                 "check": role_check}
        try:
            print(json.dumps(roles[args.role](args)))
        finally:
            shutil.rmtree(_workdir(), ignore_errors=True)
        return 0

    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found — the benchmark drives the "
              "program from source", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    try:
        if args.workload:
            if args.workload not in names:
                parser.error(f"unknown workload {args.workload!r}; "
                             f"known: {names}")
            return contract_run(args, contract)
        return report_run(args, contract)
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
