"""Process-parallel shard runtime: K join shards on real workers.

Everything else in ``repro.parallel`` runs inside the virtual-time
simulator; this module is the wall-clock execution mode that backs the
ROADMAP's scale-out claim with real OS processes.  The topology is the
same router -> shards -> merger plan as
:func:`~repro.parallel.sharded.build_sharded_graph`, but each shard is a
``multiprocessing`` worker and the supervisor (this process) owns the
router and the merger:

* **transport** — pickled-batch duplex pipes.  The supervisor routes
  each tuple by :meth:`~repro.parallel.router.RouterOperator.shard_of`
  (a key's shard is ``crc32(key) % K``), computed once per distinct key
  (:func:`shard_memo`), packs per-worker batches of :data:`BATCH_SIZE`
  plain ``(value, timestamp, stream, seq, delivery)`` rows, and bounds
  the unacknowledged batches per worker at :data:`MAX_INFLIGHT` so the
  downstream pipe always fits the OS buffer (sends never block) while
  acks are drained continuously
  (workers never stall on a full upstream pipe) — the classic
  two-sided-pipe deadlock cannot form.  Results travel upstream as
  *identity columns*, unexpanded: each ack carries one
  :class:`ResultKeys` — the batch's result blocks as gathered factors
  (:func:`gather_keys`), never larger than the ``(n, m)`` int64 matrix
  of ``seq`` numbers it stands for — the supervisor's merge is a count
  and a list append per ack, and no per-result Python object is built
  on either side (the matrices are expanded, and
  ``ProcsResult.merged_ids`` builds the testkit's identity set from
  them, on first access).  On ``("stop",)``
  a worker runs the operator's end-of-run flush (``on_finish``, the
  same call the graph host makes on every node) and its result
  identities ride the ``("bye", ...)`` — anti/outer survivors still
  pending at STOP reach the merger like any other block.
* **deterministic seeding** — workers are forked, and each builds its
  own operator via ``make_shard(worker_id)`` inside the child; a factory
  that seeds from the worker id reproduces bit-identical shard state on
  every run.  Tuples are replayed in global ``(delivery_time, stream,
  seq)`` order restricted to each worker, which is exactly the order the
  virtual-time graph services them in (de-phased workloads never tie),
  and each worker replays the adaptation ticks the simulator would have
  fired.  The merged identity set is therefore bit-identical to the
  :class:`ShardedPlan` oracle, for every run and every join mode — the
  testkit's ``procs_k{K}`` differential rows prove it against the same
  frozen workloads.
* **one fleet shape** — the fleet is fixed at launch: ``num_shards``
  workers are forked before the first tuple is routed and every one of
  them runs to the final "bye".  Re-partitioning a stateful join is
  only exact if the window state moves with the keys; nothing here
  moves state, so nothing here moves keys (``docs/PARALLEL.md`` records
  why the control loops that did were cut).

Telemetry: pass ``obs=`` to turn on the **cross-process telemetry
plane**.  The supervisor exports its own ``procs_*`` transport counters
on a wall-relative clock (read through the injected ``timer`` — the
sanctioned seam from :mod:`repro.timing`; this module never touches the
wall clock directly), and every worker builds its own
:class:`~repro.obs.Obs` *inside the forked child* (P126 stays
satisfied) and binds it to the shard operator.  Acks carry no
telemetry: a worker's whole recording rides its "bye", once, as the
JSONL lines of :func:`~repro.obs.jsonl_lines` (taken after the
end-of-run flush).  When the fleet has drained, the supervisor parses
them and :func:`~repro.obs.export.merge_workers` folds them — exactly,
under a ``worker=<id>`` label, in sorted worker order — into the run's
``Obs``, so the JSONL/ascii exporters and the golden-slice machinery
see the whole fleet.  Each worker also keeps a bounded
:class:`~repro.obs.FlightRecorder`; a crashing worker's post-mortem
``RuntimeError`` carries its traceback *and* the flight-recorder tail.
Telemetry never changes results (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass, field
from functools import cached_property
from itertools import starmap
from multiprocessing.connection import wait as _conn_wait
from operator import attrgetter
from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.buffers import BufferStats
from repro.engine.operator import StreamOperator
from repro.joins.columnar import ResultBlock
from repro.obs.export import jsonl_lines, merge_workers, parse_lines
from repro.obs.flight import FlightRecorder
from repro.obs.hub import Obs
from repro.streams.tuples import StreamTuple
from repro.timing import Timer, wall_clock_timer

from .merger import MergerOperator
from .router import RouterOperator

#: tuples per pickled batch (amortizes pickling + syscall overhead)
BATCH_SIZE = 64

#: per-worker cap on unacknowledged batches; with ``BATCH_SIZE`` this
#: keeps well under the ~64 KiB pipe buffer, so supervisor sends never
#: block on a busy worker
MAX_INFLIGHT = 4

#: the supervisor drains acks every this many flushed batches
CONTROL_INTERVAL = 4

#: events each worker's crash flight recorder retains (ring buffer)
FLIGHT_CAPACITY = 64

#: a tuple as it crosses the pipe: a plain row, which C pickle writes
#: with no Python call (the worker rebuilds it with ``StreamTuple(*row)``)
_row = attrgetter("value", "timestamp", "stream", "seq", "delivery")


def gather_keys(batch: Sequence[Sequence[Any]], m: int) -> "ResultKeys":
    """The identities of a batch's results, gathered for the pipe: the
    worker half of an ack.  ``batch`` holds one output sequence per
    ``process()`` call.

    An ack is factors or a matrix, never a mix.  When every output is
    a columnar :class:`~repro.joins.columnar.ResultBlock`, the blocks'
    :meth:`~repro.joins.columnar.ResultBlock.factors` ship unexpanded —
    no result object and no matrix is built — and the whole batch lands
    in one int64 buffer in a fixed number of numpy calls however many
    blocks it holds.  Otherwise (an output of the reference pipeline or
    of a ``ModeState``) the ``(n, m)`` matrix ships, built from the
    blocks' :attr:`~repro.joins.columnar.ResultBlock.seqs` and the other
    outputs' :meth:`JoinResult.key`.  The matrix also ships when the
    factors would take more room (small blocks: each carries ``2m + 1``
    words of layout), so an ack is never larger than the matrix it
    stands for.
    """
    count = sum(map(len, batch))
    if not all(isinstance(outputs, ResultBlock) for outputs in batch):
        return ResultKeys(m, count, 0, _matrix(batch, m).ravel())
    head: list[int] = []     # per block: its m streams, seq, product
    sizes: list[int] = []    # per block and hop: its hit count
    hits: list[np.ndarray] = []  # per block and hop: the hits' seqs
    for block in batch:
        stream, seq, order, block_hits, product = block.factors()
        head.append(stream)
        head.extend(order)
        head.extend((seq, product))
        sizes.extend(map(len, block_hits))
        hits.extend(block_hits)
    flat = np.concatenate([np.array(head + sizes, dtype=np.int64), *hits])
    keys = ResultKeys(m, count, len(batch), flat)
    if len(flat) > count * m:
        return ResultKeys(m, count, 0, keys.matrix.ravel())
    return keys


def _matrix(batch: Sequence[Sequence[Any]], m: int) -> np.ndarray:
    """The ``(n, m)`` identity matrix of a batch's outputs, in order."""
    parts = [np.empty((0, m), dtype=np.int64)]
    for outputs in batch:
        if isinstance(outputs, ResultBlock):
            parts.append(outputs.seqs)
            continue
        rows = []
        for result in outputs:
            key = [-1] * m
            for stream, seq in result.key():
                key[stream] = seq
            rows.append(key)
        parts.append(np.array(rows, dtype=np.int64).reshape(-1, m))
    return np.concatenate(parts)


def _wire_keys(m: int, count: int, blocks: int,
               data: bytes) -> "ResultKeys":
    return ResultKeys(m, count, blocks, np.frombuffer(data, dtype=np.int64))


class ResultKeys:
    """One ack's result identities, as they cross the pipe.

    ``len()`` is the result count and iteration yields one ``(m,)``
    row per result: column ``s`` is the ``seq`` of the constituent from
    stream ``s``, ``-1`` where a result has none (the singletons of the
    semi/anti/outer modes).  :attr:`matrix` is the ``(n, m)`` int64
    identity matrix in batch order — the supervisor half of the ack,
    expanded the first time somebody reads it and then kept.

    With ``blocks == 0``, ``flat`` is the matrix itself, row-major.
    Otherwise it holds the ``(blocks, m + 2)`` meta rows (probing
    stream, the hops' streams, probing ``seq``, product flag), the
    ``blocks * (m - 1)`` hop sizes, then every hop's hits.  It pickles
    as raw bytes.
    """

    __slots__ = ("m", "count", "blocks", "flat", "_matrix")

    def __init__(self, m: int, count: int, blocks: int,
                 flat: np.ndarray) -> None:
        self.m = m
        self.count = count
        self.blocks = blocks
        self.flat = flat
        self._matrix: np.ndarray | None = None

    def __reduce__(self):
        return _wire_keys, (
            self.m, self.count, self.blocks, self.flat.tobytes(),
        )

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.matrix)

    @property
    def matrix(self) -> np.ndarray:
        keys = self._matrix
        if keys is None:
            keys = self._matrix = self._expand()
        return keys

    def _expand(self) -> np.ndarray:
        """All blocks expanded together, in a fixed number of array
        operations however many the ack holds."""
        m, blocks, flat = self.m, self.blocks, self.flat
        if not blocks:
            return flat.reshape(self.count, m)
        # per block, position 0 is the probing tuple (one "hit") and
        # position h + 1 is hop h; the pool holds the probing seqs, then
        # every block's hits in order
        at = blocks * (m + 2)
        meta = flat[:at].reshape(blocks, m + 2)
        hop_sizes = flat[at : at + blocks * (m - 1)]
        pool = np.concatenate([meta[:, m], flat[at + len(hop_sizes) :]])
        sizes = np.ones((blocks, m), dtype=np.int64)
        sizes[:, 1:] = hop_sizes.reshape(blocks, m - 1)
        starts = np.empty_like(sizes)
        starts[:, 0] = np.arange(blocks)
        starts[:, 1:] = (hop_sizes.cumsum() - hop_sizes + blocks).reshape(
            blocks, m - 1
        )
        # a cross-product factor's stride is the product of the later
        # positions' sizes (the probing tuple, of size 1, is picked whatever
        # its stride), and its block holds their product; aligned rows
        # step by 1, one result per hit
        product = meta[:, m + 1] != 0
        strides = np.ones_like(sizes)
        strides[:, :-1] = sizes[:, :0:-1].cumprod(axis=1)[:, ::-1]
        counts = np.where(product, strides[:, 0], sizes[:, -1])
        strides[~product] = 1
        # each block's positions in stream order, then one row per result
        by_stream = meta[:, :m].argsort(axis=1)[None]
        start, stride, size = np.repeat(
            np.take_along_axis(
                np.stack([starts, strides, sizes]), by_stream, 2
            ),
            counts, axis=1,
        )
        r = np.arange(len(start)) - np.repeat(counts.cumsum() - counts, counts)
        return pool[start + r[:, None] // stride % size]


def shard_memo(
    shard_of: Callable[[StreamTuple], int],
) -> Callable[[StreamTuple], int]:
    """``shard_of``, computed once per distinct key of one run.

    Equal ``float`` / ``int`` / ``str`` payloads of one type have one
    repr, so they share one memo entry (the type is part of the entry:
    ``1`` and ``1.0`` are equal but are not the same payload).  Every
    other type asks ``shard_of`` per tuple: ``Decimal('1.0')`` and
    ``Decimal('1.00')`` are equal, with different reprs.
    """
    memo: dict[tuple[type, Any], int] = {}

    def route(tup: StreamTuple) -> int:
        value = tup.value
        cls = type(value)
        if cls is float or cls is int or cls is str:
            shard = memo.get((cls, value))
            if shard is None:
                shard = memo[cls, value] = shard_of(tup)
            return shard
        return shard_of(tup)

    return route


def _worker_main(
    conn,
    inherited: Sequence[Any],
    make_shard: Callable[[int], StreamOperator],
    worker_id: int,
    adaptation_interval: float | None,
    telemetry: bool,
) -> None:
    """Worker entry path: build the shard, replay batches, ack results.

    Runs in the forked child.  The operator is constructed *here* so
    its state never crosses the process boundary; only batches of plain
    ``(value, timestamp, stream, seq, delivery)`` rows come in (rebuilt
    into :class:`StreamTuple`\\ s by one ``starmap``) and result
    identities (one :func:`gather_keys` value per ack, gathered once
    from the whole batch's outputs) go out.
    Virtual time inside the worker is each tuple's delivery time, and
    adaptation ticks are replayed at the same multiples of
    ``adaptation_interval`` the simulator would fire.
    Tick buffer statistics are synthesized from the arrival counts
    since the previous tick (everything routed here was delivered:
    ``pushed == popped``, nothing dropped, no standing queue) — enough
    for rate-driven adaptive operators, and ignored by operators that
    don't adapt, so results never depend on telemetry being on.

    With ``telemetry`` the worker builds its own :class:`Obs` *here*,
    post-fork (P126: telemetry is constructed inside the child and
    only written, never shared), binds it to the operator on a clock
    that follows replayed virtual time, and ships its whole recording
    as JSONL lines with the "bye" (taken after the end-of-run flush,
    so it includes what ``on_finish`` records).  A bounded
    :class:`FlightRecorder` always runs; its tail travels with the
    crash report.

    ``inherited`` are the supervisor's ends of the pipes, which the fork
    copied into this child; closing them here means a supervisor that
    closes its end is an EOF for the worker blocked on the other one.
    """
    for end in inherited:
        end.close()
    flight = FlightRecorder(capacity=FLIGHT_CAPACITY)
    clock = [0.0]
    obs = None
    try:
        operator = make_shard(worker_id)
        if telemetry:
            obs = Obs()
            obs.bind_clock(lambda: clock[0])
            operator.bind_obs(obs)
        next_adapt = (
            adaptation_interval if adaptation_interval else None
        )
        m = operator.num_streams
        arrivals = [0] * m
        while True:
            msg = conn.recv()
            if msg[0] == "batch":
                _, seq, rows = msg
                flight.note(
                    clock[0], f"recv batch seq={seq} n={len(rows)}"
                )
                outputs = []
                comparisons = 0
                for tup in starmap(StreamTuple, rows):
                    now = tup.delivery_time
                    if next_adapt is not None:
                        while now >= next_adapt:
                            clock[0] = next_adapt
                            stats = [
                                BufferStats(pushed=c, popped=c,
                                            dropped=0, depth=0)
                                for c in arrivals
                            ]
                            operator.on_adapt(
                                next_adapt, stats, adaptation_interval
                            )
                            flight.note(
                                next_adapt,
                                f"adapt tick t={next_adapt:g}",
                            )
                            arrivals = [0] * m
                            next_adapt += adaptation_interval
                    clock[0] = now
                    arrivals[tup.stream] += 1
                    receipt = operator.process(tup, now)
                    comparisons += receipt.comparisons
                    if receipt.outputs:
                        outputs.append(receipt.outputs)
                keys = gather_keys(outputs, m)
                flight.note(
                    clock[0],
                    f"ack seq={seq} results={len(keys)} "
                    f"comparisons={comparisons}",
                )
                conn.send(
                    ("ack", worker_id, seq, len(rows), keys, comparisons)
                )
            elif msg[0] == "stop":
                flight.note(clock[0], "stop received")
                keys = gather_keys([operator.on_finish(clock[0])], m)
                recording = [] if obs is None else list(jsonl_lines(obs))
                conn.send(("bye", worker_id, keys, recording))
                return
    except EOFError:
        return
    except BaseException:  # surface the traceback, never hang the run
        import traceback

        try:
            conn.send((
                "error",
                worker_id,
                traceback.format_exc(),
                f"worker {worker_id} " + flight.render_tail(),
            ))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass(slots=True)
class _Worker:
    """Supervisor-side bookkeeping for one shard worker."""

    id: int
    process: Any
    conn: Any
    batches_sent: int = 0
    batches_acked: int = 0
    comparisons: int = 0
    done: bool = False       # "bye" received
    recording: list[str] = field(default_factory=list)  # the bye's JSONL


@dataclass
class ProcsResult:
    """Outcome of one process-parallel run.

    ``acks`` is the merged output as it crossed the pipes: each ack's
    (and each "bye"'s) :class:`ResultKeys`, in arrival order.
    ``merged_keys`` reads them as their ``(n, m)`` identity matrices,
    one row per result (``merged_count`` rows in all, at-least-once
    duplicates included), expanded on first access.  ``merged_ids`` is
    the identity set the testkit diffs (each element a
    :meth:`JoinResult.key` — the ``(stream, seq)`` pairs of the result's
    constituents), built from those matrices on first access.
    ``merged_per_worker`` / ``routed_per_worker`` are indexed by worker
    id.
    """

    acks: list[ResultKeys] = field(repr=False)
    merged_count: int
    merged_per_worker: list[int]
    routed_per_worker: list[int]
    comparisons_per_worker: list[int]
    tuples_routed: int
    wall_seconds: float
    workers_spawned: int

    @cached_property
    def merged_keys(self) -> list[np.ndarray]:
        return [keys.matrix for keys in self.acks]

    @cached_property
    def merged_ids(self) -> frozenset:
        ids: set = set()
        for keys in self.merged_keys:
            # tolist() first: identities are python ints, not numpy
            # scalars (their repr goes into the verify digests)
            rows = keys.tolist()
            if (keys >= 0).all():
                streams = range(keys.shape[1])
                ids.update(tuple(zip(streams, row)) for row in rows)
            else:  # -1: no constituent from that stream
                ids.update(
                    tuple((s, q) for s, q in enumerate(row) if q >= 0)
                    for row in rows
                )
        return frozenset(ids)

    @property
    def merged_rate(self) -> float:
        """Merged results per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.merged_count / self.wall_seconds

    def describe(self) -> str:
        return (
            f"Procs(workers={self.workers_spawned}, "
            f"merged={self.merged_count}, "
            f"wall={self.wall_seconds:.3f}s)"
        )


class _Supervisor:
    """Owns the router, the merger, the worker fleet and the pipes."""

    def __init__(
        self,
        sources: Sequence[Any],
        make_shard: Callable[[int], StreamOperator],
        num_shards: int,
        *,
        duration: float,
        adaptation_interval: float | None,
        obs,
        meta: dict | None,
        timer: Timer,
    ) -> None:
        if num_shards < 1:
            raise ValueError("need at least one worker shard")
        self.sources = sources
        self.make_shard = make_shard
        self.duration = float(duration)
        self.adaptation_interval = adaptation_interval
        self.timer = timer
        # forked, not spawned: ``make_shard`` may be a closure, which
        # spawn would have to pickle
        self.ctx = mp.get_context("fork")
        self.router = RouterOperator(
            num_streams=len(sources), num_shards=num_shards
        )
        self.merger = MergerOperator(num_shards)
        self.workers: dict[int, _Worker] = {}
        self.pending: dict[int, list[StreamTuple]] = {}
        self.acks: list[ResultKeys] = []
        self.obs = obs
        if obs is not None:
            origin = timer()
            obs.bind_clock(lambda: timer() - origin)
            obs.meta.setdefault("runtime", "procs")
            obs.meta.setdefault("num_shards", num_shards)
            if adaptation_interval:
                obs.meta.setdefault(
                    "adaptation_interval", float(adaptation_interval)
                )
            if meta:
                obs.meta.update(meta)
            self.router.bind_obs(obs, node="router")
            self.merger.bind_obs(obs, node="merger")
            self._obs_batches = obs.counter("procs_batches_total")
            self._obs_tuples = obs.counter("procs_tuples_total")

    # -- fleet ---------------------------------------------------------

    def spawn(self, worker_id: int) -> _Worker:
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        inherited = [parent_conn, *(w.conn for w in self.workers.values())]
        process = self.ctx.Process(
            target=_worker_main,
            args=(child_conn, inherited, self.make_shard, worker_id,
                  self.adaptation_interval, self.obs is not None),
            daemon=True,
            name=f"repro-shard-{worker_id}",
        )
        process.start()
        child_conn.close()
        worker = _Worker(worker_id, process, parent_conn)
        self.workers[worker_id] = worker
        self.pending[worker_id] = []
        return worker

    # -- transport -----------------------------------------------------

    def _merge(self, worker: _Worker, keys: ResultKeys) -> None:
        self.merger.absorb(worker.id, len(keys))
        self.acks.append(keys)

    def _handle(self, msg: tuple) -> None:
        kind = msg[0]
        if kind == "ack":
            _, wid, _seq, _n, keys, comparisons = msg
            worker = self.workers[wid]
            worker.batches_acked += 1
            worker.comparisons += comparisons
            self._merge(worker, keys)
        elif kind == "bye":  # the end-of-run flush's results, recording
            _, wid, keys, recording = msg
            worker = self.workers[wid]
            worker.done = True
            worker.recording = recording
            self._merge(worker, keys)
        elif kind == "error":
            _, wid, trace, flight_tail = msg
            self.shutdown(force=True)
            raise RuntimeError(
                f"shard worker {wid} crashed:\n{trace}\n{flight_tail}"
            )
        else:  # pragma: no cover - protocol guard
            raise RuntimeError(f"unknown worker message {msg!r}")

    def drain(self, timeout: float = 0.0) -> None:
        """Handle every ready upstream message (acks, byes, errors)."""
        conns = {
            w.conn: w for w in self.workers.values() if not w.done
        }
        if not conns:
            return
        for conn in _conn_wait(list(conns), timeout):
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                # the pipe closed (or reset) before the worker's "bye"
                raise self._death(conns[conn]) from None
            self._handle(msg)

    def _death(self, worker: _Worker) -> RuntimeError:
        """Stop the fleet after ``worker`` died without its parting
        report; the error to raise names it."""
        worker.done = True
        self.shutdown(force=True)
        return RuntimeError(
            f"shard worker {worker.id} died without an error report "
            f"(exit code {worker.process.exitcode})"
        )

    def _send(self, worker: _Worker, payload: tuple) -> None:
        """Send downstream; if the worker died mid-run, surface its
        parting error report (still readable in the pipe even after the
        child exited) instead of a bare ``BrokenPipeError``."""
        try:
            worker.conn.send(payload)
        except (BrokenPipeError, OSError):
            # the dead worker's conn must stay drainable here: its
            # parting "error" message is what we're looking for.  It can
            # sit behind every unread ack, and drain() reads one message
            # per pipe, so read on until the pipe is dry: drain() raises
            # with the worker's traceback, or at the EOF after it
            for _ in range(MAX_INFLIGHT + 2):
                self.drain(0.5)
            raise self._death(worker)

    def flush(self, worker_id: int) -> None:
        """Ship the pending batch, waiting for ack capacity first.

        Waiting means *reading* acks, never blocking on a send: the cap
        keeps the downstream pipe below the OS buffer, so once capacity
        exists the send completes immediately.
        """
        batch = self.pending[worker_id]
        if not batch:
            return
        worker = self.workers[worker_id]
        while worker.batches_sent - worker.batches_acked >= MAX_INFLIGHT:
            self.drain(0.05)
        self._send(
            worker, ("batch", worker.batches_sent, list(map(_row, batch)))
        )
        worker.batches_sent += 1
        if self.obs is not None:
            self._obs_batches.inc()
            self._obs_tuples.inc(len(batch))
        self.pending[worker_id] = []

    # -- lifecycle -----------------------------------------------------

    def shutdown(self, force: bool = False) -> None:
        # pipes first: a worker blocked in recv() sees EOF and returns,
        # so the joins below do not wait out their timeout
        for worker in self.workers.values():
            worker.conn.close()
            if force and worker.process.is_alive():
                worker.process.terminate()
        for worker in self.workers.values():
            worker.process.join(timeout=5.0)

    def run(self) -> ProcsResult:
        started = self.timer()
        arrivals = sorted(
            (
                tup
                for source in self.sources
                for tup in source.iter_tuples(self.duration)
            ),
            key=lambda t: (t.delivery_time, t.stream, t.seq),
        )
        for k in range(self.router.num_shards):
            self.spawn(k)
        route = shard_memo(self.router.shard_of)
        account = self.router.account
        pending = self.pending
        flushes = 0
        try:
            for tup in arrivals:
                shard = route(tup)
                account(shard)
                batch = pending[shard]
                batch.append(tup)
                if len(batch) >= BATCH_SIZE:
                    self.flush(shard)
                    flushes += 1
                    if flushes % CONTROL_INTERVAL == 0:
                        self.drain(0.0)
            for worker in self.workers.values():
                self.flush(worker.id)
                self._send(worker, ("stop",))
            deadline = self.timer() + 60.0
            while any(not w.done for w in self.workers.values()):
                if self.timer() > deadline:
                    raise RuntimeError(
                        "timed out draining shard workers"
                    )
                self.drain(0.1)
        finally:
            self.shutdown()
        if self.obs is not None:
            # every recording rode a "bye"; merged in worker order (bye
            # arrival order is racy, the merged export is not)
            merge_workers(self.obs, {
                wid: parse_lines(worker.recording)
                for wid, worker in self.workers.items()
            })
        wall = self.timer() - started
        order = sorted(self.workers)
        return ProcsResult(
            acks=self.acks,
            merged_count=self.merger.merged,
            merged_per_worker=[
                self.merger.merged_per_shard[w] for w in order
            ],
            routed_per_worker=[
                self.router.routed_per_shard[w] for w in order
            ],
            comparisons_per_worker=[
                self.workers[w].comparisons for w in order
            ],
            tuples_routed=len(arrivals),
            wall_seconds=wall,
            workers_spawned=len(self.workers),
        )


def run_procs(
    sources: Sequence[Any],
    make_shard: Callable[[int], StreamOperator],
    num_shards: int,
    *,
    duration: float,
    adaptation_interval: float | None = 2.0,
    certify: bool = True,
    obs=None,
    meta: dict | None = None,
    timer: Timer = wall_clock_timer,
) -> ProcsResult:
    """Run the m-way join sharded over ``num_shards`` worker processes.

    Args:
        sources: one replayable source per joined stream (anything with
            ``iter_tuples(until)`` — frozen :class:`TraceSource`
            bundles from the testkit are the canonical input).
        make_shard: factory called with each worker id *inside the
            forked child*; must build a fresh operator whose state
            derives only from that id (deterministic seeding).
        num_shards: worker count, fixed for the whole run.
        duration: virtual seconds of trace to replay.
        adaptation_interval: virtual period of the adaptation ticks
            workers replay (match the simulator config when comparing
            against a :class:`ShardedPlan` run); ``None`` disables.
        certify: run the shard-safety gate (P124) over probe
            operators built from ``make_shard`` before forking,
            including the worker-entry check (P126).
        obs: optional :class:`repro.obs.Obs` sink.  Supervisor-side
            transport telemetry lands in it directly; in
            addition each worker builds its *own* ``Obs`` post-fork
            (P126 stays satisfied), ships its recording with its "bye",
            and the recordings are merged in under a ``worker=<id>``
            label once the fleet drains — exporters see the whole
            fleet.  Telemetry never changes results.
        meta: run metadata merged into ``obs.meta`` (seed, workload
            name...) so aggregated exports are self-describing; the
            runtime adds ``runtime``/``num_shards``/
            ``adaptation_interval`` keys itself.
        timer: injectable wall-clock (tests pass a
            :class:`repro.timing.ManualTimer`).

    The transport is fixed: batches of :data:`BATCH_SIZE` tuples, at
    most :data:`MAX_INFLIGHT` unacknowledged batches per worker (pipes
    stay below the OS buffer: deadlock-free), an ack drain every
    :data:`CONTROL_INTERVAL` flushed batches, and a crash flight
    recorder of :data:`FLIGHT_CAPACITY` events per worker.

    Returns:
        A :class:`ProcsResult`; its ``merged_ids`` is bit-identical to
        the virtual-time plan's
        :meth:`~repro.parallel.sharded.ShardedPlan.merged_result_ids`
        and to the oracle, for every join mode.
    """
    if certify:
        from .sharded import certify_shard_operators

        probes = [make_shard(k) for k in range(num_shards)]
        for k, op in enumerate(probes):
            if op.num_streams != len(sources):
                raise ValueError(
                    f"shard {k} consumes {op.num_streams} streams, "
                    f"but {len(sources)} sources were given"
                )
        certify_shard_operators(probes, worker_entry=True)
        del probes
    supervisor = _Supervisor(
        sources,
        make_shard,
        num_shards,
        duration=duration,
        adaptation_interval=adaptation_interval,
        obs=obs,
        meta=meta,
        timer=timer,
    )
    return supervisor.run()
