"""``python -m repro.testkit``: the differential matrix as a CLI verdict.

Runs the standard grid (oracle vs every join path on seeded workloads),
optionally the chaos battery, and prints one canonical JSON document to
stdout — ``sort_keys=True``, no wall-clock material — so two invocations
with the same flags are byte-identical.
CI leans on that: ``--check-determinism`` performs the double run and
diff in-process and fails the exit code on any drift.

Exit status: 0 when every check in every requested section passed,
1 otherwise.  Progress goes to stderr (``--verbose``) so stdout stays
pure JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .chaos import chaos_matrix
from .differential import MatrixSpec, differential_matrix
from .workloads import build_scenarios, default_workloads


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit",
        description=(
            "Differential correctness verdict: every join path vs the "
            "brute-force oracle on seeded workloads."
        ),
    )
    parser.add_argument(
        "--seeds", default="1,2,3",
        help="comma-separated workload seeds (default: 1,2,3)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="single-seed smoke run (overrides --seeds with '1')",
    )
    parser.add_argument(
        "--scenarios", default=None, metavar="PATTERNS",
        help="run the named scenario library instead of the default "
             "seeded workloads: comma-separated fnmatch patterns over "
             "scenario names ('all' or '*' selects the whole "
             "mode x window grid, 'sc-anti-*' a slice of it)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="also run the fault-injection battery",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=7,
        help="seed for the fault injection draws (default: 7)",
    )
    parser.add_argument(
        "--no-shedding", action="store_true",
        help="skip the overloaded (feedback-shedding) subset checks",
    )
    parser.add_argument(
        "--procs", default=None, metavar="KS",
        help="comma-separated worker counts for the wall-clock "
             "process-parallel rows, e.g. '2' or '2,4' "
             "(default: the matrix standard 2,4; '0' disables them)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run every row under the determinism sanitizer: hard-fail "
             "on shared containers, foreign writes and changed module "
             "or class globals",
    )
    parser.add_argument(
        "--check-determinism", action="store_true",
        help="run everything twice and fail unless the JSON verdicts "
             "are byte-identical",
    )
    parser.add_argument(
        "--indent", type=int, default=2,
        help="JSON indent for the printed verdict (default: 2)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="progress lines on stderr",
    )
    return parser


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError as exc:
        raise SystemExit(f"bad --seeds value {text!r}: {exc}")
    if not seeds:
        raise SystemExit("--seeds must name at least one seed")
    return seeds


def run_verdict(args: argparse.Namespace) -> dict:
    """Build the full verdict for the parsed flags (one complete pass —
    workload generation included, so a determinism double-run replays
    the whole path from seeds to JSON)."""
    progress = (
        (lambda msg: print(msg, file=sys.stderr)) if args.verbose
        else None
    )
    seeds = (1,) if args.quick else _parse_seeds(args.seeds)
    if args.scenarios is not None:
        patterns = tuple(
            "*" if p.strip() == "all" else p.strip()
            for p in args.scenarios.split(",") if p.strip()
        ) or ("*",)
        try:
            workloads = build_scenarios(patterns)
        except ValueError as exc:
            raise SystemExit(str(exc))
    else:
        workloads = default_workloads(seeds)
    spec_kwargs: dict = {"include_shedding": not args.no_shedding}
    if args.procs is not None:
        try:
            counts = tuple(
                int(s) for s in args.procs.split(",") if s.strip()
            )
        except ValueError as exc:
            raise SystemExit(f"bad --procs value {args.procs!r}: {exc}")
        spec_kwargs["procs_counts"] = tuple(
            k for k in counts if k > 0
        )
    spec = MatrixSpec(**spec_kwargs)
    verdict: dict = {
        "seeds": list(seeds),
        "scenarios": (
            [w.name for w in workloads] if args.scenarios is not None
            else None
        ),
        "differential": differential_matrix(
            workloads, spec, progress=progress,
            sanitize=args.sanitize,
        ),
    }
    if args.chaos:
        verdict["chaos"] = chaos_matrix(
            workloads, seed=args.chaos_seed, progress=progress
        )
    verdict["ok"] = _all_ok(verdict)
    return verdict


def _all_ok(verdict: dict) -> bool:
    if not verdict["differential"]["ok"]:
        return False
    chaos = verdict.get("chaos")
    return chaos is None or chaos["ok"]


def serialize(verdict: dict, indent: int | None = 2) -> str:
    """Canonical JSON: sorted keys, no floats-from-clock, stable."""
    return json.dumps(verdict, sort_keys=True, indent=indent)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    verdict = run_verdict(args)
    text = serialize(verdict, args.indent)
    if args.check_determinism:
        replay = serialize(run_verdict(args), args.indent)
        verdict["deterministic"] = replay == text
        if not verdict["deterministic"]:
            verdict["ok"] = False
        text = serialize(verdict, args.indent)
    print(text)
    return 0 if verdict["ok"] else 1
