"""Checkpointing GrubJoin state: snapshot and restore across restarts.

Long-running stream operators on real hosts get migrated and restarted;
losing the join windows means losing up to ``w`` seconds of output, and
losing the learned statistics means re-learning the time correlations
from scratch.  A snapshot captures everything the operator knows:

* the window contents (per-stream tuples),
* the per-stream offset histograms and selectivity statistics,
* the throttle state, join orders and current harvest configuration,
* the shredding sampler's RNG state — so a restored operator continues
  *bit-identically* to one that never stopped.

Snapshots are plain nested dict/list structures (JSON-serializable when
the tuple payloads are), so they can be persisted with ``json`` or any
richer serializer the host prefers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.streams.tuples import StreamTuple

from .grubjoin import GrubJoinOperator
from .harvesting import HarvestConfiguration

#: bumped when the snapshot layout changes incompatibly
SNAPSHOT_VERSION = 1


def snapshot(operator: GrubJoinOperator, now: float) -> dict[str, Any]:
    """Capture the operator's full state at virtual time ``now``."""
    for window in operator.windows:
        window.rotate_to(now)
    state: dict[str, Any] = {
        "version": SNAPSHOT_VERSION,
        "now": now,
        "num_streams": operator.num_streams,
        "window_sizes": list(operator.window_sizes),
        "basic_window_size": operator.basic_window_size,
        "windows": [
            [
                {
                    "value": t.value,
                    "timestamp": t.timestamp,
                    "stream": t.stream,
                    "seq": t.seq,
                    "delivery": t.delivery,
                }
                for t in window.iter_unexpired(now)
            ]
            for window in operator.windows
        ],
        "histograms": [
            None if h is None else list(h.counts)
            for h in operator.histograms
        ],
        "selectivity": {
            "scanned": {
                f"{i},{l}": v
                for (i, l), v in operator.selectivity._scanned.items()
            },
            "matched": {
                f"{i},{l}": v
                for (i, l), v in operator.selectivity._matched.items()
            },
        },
        "throttle": {
            "z": operator.throttle.z,
            "last_beta": operator.throttle.last_beta,
        },
        "orders": [list(o) for o in operator.orders],
        "harvest": {
            "counts": operator.harvest.counts.tolist(),
            "rankings": [
                [r.tolist() for r in per_dir]
                for per_dir in operator.harvest.rankings
            ],
        },
        "rates": operator._rates.tolist(),
        "rng_state": operator._rng.bit_generator.state,
    }
    return state


def restore(operator: GrubJoinOperator, state: dict[str, Any]) -> None:
    """Load a snapshot into a freshly constructed, *compatible* operator.

    The operator must have been built with the same structural parameters
    (stream count, window sizes, basic window size, histogram buckets).
    """
    if state.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {state.get('version')} not supported"
        )
    if state["num_streams"] != operator.num_streams:
        raise ValueError("snapshot stream count does not match operator")
    if (state.get("window_sizes") != operator.window_sizes
            or state.get("basic_window_size") != operator.basic_window_size):
        raise ValueError("snapshot window sizes do not match operator")
    now = float(state["now"])

    for stream, tuples in enumerate(state["windows"]):
        window = operator.windows[stream]
        window.rotate_to(now)
        for record in sorted(tuples, key=lambda r: r["timestamp"]):
            window.insert(
                StreamTuple(
                    value=record["value"],
                    timestamp=record["timestamp"],
                    stream=record["stream"],
                    seq=record["seq"],
                    delivery=record.get("delivery"),
                ),
                now=now,
            )

    for h, counts in zip(operator.histograms, state["histograms"]):
        if h is not None and counts is not None:
            h.load(counts)

    operator.selectivity._scanned = {
        tuple(int(x) for x in key.split(",")): float(v)
        for key, v in state["selectivity"]["scanned"].items()
    }
    operator.selectivity._matched = {
        tuple(int(x) for x in key.split(",")): float(v)
        for key, v in state["selectivity"]["matched"].items()
    }

    operator.throttle.z = float(state["throttle"]["z"])
    operator.throttle.last_beta = float(state["throttle"]["last_beta"])
    operator.orders = [list(o) for o in state["orders"]]
    operator.harvest = HarvestConfiguration(
        np.asarray(state["harvest"]["counts"], dtype=float),
        [
            [np.asarray(r, dtype=int) for r in per_dir]
            for per_dir in state["harvest"]["rankings"]
        ],
    )
    operator._rates = np.asarray(state["rates"], dtype=float)
    operator._rng.bit_generator.state = state["rng_state"]


def save_snapshot(state: dict[str, Any], path: str | Path) -> Path:
    """Persist a snapshot as JSON (payloads must be JSON-serializable)."""
    path = Path(path)
    path.write_text(json.dumps(state), encoding="utf-8")
    return path


def load_snapshot(path: str | Path) -> dict[str, Any]:
    """Load a snapshot previously written by :func:`save_snapshot`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
