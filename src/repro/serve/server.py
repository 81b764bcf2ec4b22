"""The evaluation daemon: one hot Session, many clients.

Architecture (see ``docs/serving.md`` for the operator view):

* an asyncio loop owns all sockets and framing; protocol work never
  blocks on evaluation,
* one long-lived :class:`~repro.api.Session` per process holds the
  warm :class:`~repro.common.cache.AnalysisCache` every client shares,
* **micro-batching**: evaluate jobs from *different* connections
  accumulate while the engine lane is busy — bounded by the
  ``batch_window_ms`` window or ``batch_max`` jobs — and resolve
  through one ``Session.submit_many`` pass (an idle lane dispatches
  immediately, so batching never costs latency). The engine stacks
  the whole batch's dense- and sparse-stage misses into stacked
  numpy passes, so N clients share both the cache and the vectorized
  kernels,
* search/network jobs run on a bounded worker pool behind admission
  control: a bounded queue ordered oldest-deadline-first, with an
  explicit ``overloaded`` error envelope once the queue is full —
  the daemon sheds load instead of buffering without bound,
* job payloads decode once per distinct payload: a bounded table of
  decoded designs and workloads, keyed by their encoded bytes, is
  shared by every connection (:class:`_PayloadTable`),
* every engine pass is bracketed with
  :meth:`Session.cache_stats(since=...)
  <repro.api.session.Session.cache_stats>` checkpoints, so cache hits
  are attributed to the clients whose jobs ran in that pass (split
  evenly across a shared batch) without any global counters.

Evaluation runs on executor threads, serialized by one engine lock:
the engine's numpy passes already saturate cores (and ``parallel=N``
fans out processes below it), so the lock costs nothing while keeping
stats attribution exact and the Session single-writer.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import itertools
import math
import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import Lock

from repro.api.jobs import (
    SearchJob,
    SearchShardJob,
    _check_int,
    _unpack,
    job_from_dict,
)
from repro.api.session import Session
from repro.distributed.plan import WitnessBoard, WitnessSnapshot
from repro.search.objective import resolve_objective
from repro.model.result import EvaluationResult
from repro.common.errors import OverloadedError, ReproError, SpecError
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PAYLOAD_TABLE_ENTRIES,
    PROTOCOL_VERSION,
    decode_line,
    encode_line,
    error_to_envelope,
)

__all__ = ["ServeConfig", "ReproServer"]

#: Payloads whose encoded ``data`` is longer than this (characters of
#: base64) bypass the table: decoded for every job and never held, so a
#: whole ``ActualDataDensity`` tensor is never pinned.
PAYLOAD_MAX_CHARS = 1 << 20


@dataclass
class ServeConfig:
    """Operator knobs for one daemon process (CLI flags mirror these)."""

    host: str = "127.0.0.1"
    port: int | None = None  #: TCP port (0 = ephemeral); None = no TCP.
    unix_path: str | None = None  #: unix socket path; None = no unix socket.
    batch_window_ms: float = 2.0  #: evaluate collector window.
    batch_max: int = 32  #: flush the collector at this many jobs.
    workers: int = 2  #: search/network worker threads.
    queue_depth: int = 64  #: admission bound for queued search/network jobs.
    default_deadline_ms: float = 30_000.0  #: queue priority for deadline-less jobs.
    heartbeat_s: float = 5.0  #: liveness-ping period for queued/running jobs (0 = off).

    def __post_init__(self) -> None:
        # Refuse what would stall the pool, shed every search or fail bind().
        for name in ("workers", "batch_max", "queue_depth"):
            _check_int(name, getattr(self, name), 1)
        if self.port is not None:
            _check_int("port", self.port, 0)
            if self.port > 65535:
                raise SpecError(f"port must be <= 65535, got {self.port}")
        for name in ("batch_window_ms", "heartbeat_s", "default_deadline_ms"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0 <= value < math.inf
                or (name == "default_deadline_ms" and value == 0)
            ):
                bound = "> 0" if name == "default_deadline_ms" else ">= 0"
                raise SpecError(
                    f"{name} must be a finite number {bound}, got {value!r}"
                )


@dataclass
class _ClientStats:
    jobs: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    cache_hits: float = 0.0
    overloaded: int = 0

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "cache_hits": self.cache_hits,
            "overloaded": self.overloaded,
        }


class _Client:
    __slots__ = ("writer", "name", "stats", "blobs")

    def __init__(self, writer: asyncio.StreamWriter, name: str):
        self.writer = writer
        self.name = name
        self.stats = _ClientStats()
        #: interned payloads: digest -> tagged blob dict. Lives and
        #: dies with the connection, so refs cannot dangle a restart.
        self.blobs: dict[str, dict] = {}


_MISSING = object()


class _PayloadTable:
    """One decoded object per distinct job payload.

    Keyed by the blob's exact encoded ``data`` string, so every job
    that carries the same bytes, from any connection and whether inline
    or through a ref stub, gets the object decoded the first time, with
    its memoised content digests already warm. The objects are shared
    by every job and every cached result that references them, so they
    are frozen by contract: the engine's only in-place writes
    (``Workload.density_of`` defaults, ``ensure_output_density``) are
    idempotent and fixed by content.

    Thread-safe: the evaluate lane and the pool workers decode
    concurrently. A miss decodes under the lock, so each held payload
    decodes exactly once. A payload that fails to decode raises its
    :class:`SpecError` and is never entered.
    """

    def __init__(self) -> None:
        self._lock = Lock()
        self._objects: OrderedDict[str, object] = OrderedDict()
        self.decoded = 0  #: payloads unpickled: misses and oversized ones.
        self.hits = 0

    def unpack(self, blob):
        """The ``unpack`` hook of :func:`~repro.api.jobs.job_from_dict`."""
        data = None
        if isinstance(blob, dict) and blob.get("encoding") == "pickle":
            data = blob.get("data")
        if not isinstance(data, str):
            return _unpack(blob)  # a None field, or a blob it rejects
        if len(data) > PAYLOAD_MAX_CHARS:
            obj = _unpack(blob)
            with self._lock:
                self.decoded += 1
            return obj
        with self._lock:
            obj = self._objects.get(data, _MISSING)
            if obj is not _MISSING:
                self._objects.move_to_end(data)
                self.hits += 1
                return obj
            obj = self._objects[data] = _unpack(blob)
            self.decoded += 1
            if len(self._objects) > PAYLOAD_TABLE_ENTRIES:
                self._objects.popitem(last=False)
            return obj

    def stats(self) -> dict:
        with self._lock:
            return {
                "payloads_decoded": self.decoded,
                "payload_hits": self.hits,
                "payloads_held": len(self._objects),
            }


@dataclass(order=True)
class _QueueEntry:
    """One admitted search/network job, heap-ordered oldest-deadline
    (= smallest effective deadline) first; ``seq`` breaks ties FIFO."""

    deadline: float
    seq: int
    client: _Client = field(compare=False)
    request_id: object = field(compare=False)
    job: object = field(compare=False)  #: raw wire dict, decoded on the worker.
    fields: object = field(compare=False)  #: result projection, or None.


class ReproServer:
    """One daemon instance: sockets, collector, admission queue.

    ``session_kwargs`` are forwarded to the hot :class:`Session`
    (``parallel=``, ``persistent=``, ``check_capacity=``, ...).
    """

    def __init__(self, config: ServeConfig | None = None, **session_kwargs):
        self.config = config or ServeConfig()
        self.session = Session(**session_kwargs)
        self._engine_lock = Lock()
        self._payloads = _PayloadTable()
        self._clients: dict[str, _Client] = {}
        self._client_seq = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._servers: list[asyncio.AbstractServer] = []
        self._addresses: list[str] = []
        # Evaluate micro-batch collector state (loop-confined); jobs
        # stay as raw wire dicts until the lane thread decodes them.
        self._batch: list[tuple[_Client, object, dict]] = []
        self._batch_timer: asyncio.TimerHandle | None = None
        self._batch_inflight = 0  #: evaluate batches on the executor lane.
        # One serialized lane for evaluate batches keeps flush order
        # deterministic; search/network jobs get their own bounded pool.
        self._batch_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-batch"
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve-worker",
        )
        self._queue: list[_QueueEntry] = []
        self._queue_seq = itertools.count()
        self._active_workers = 0
        self._stopping = asyncio.Event()
        # Server-wide counters (the "server-stats" op; written by the
        # batch lane thread, read from the loop — counter drift under
        # the GIL is cosmetic and torn values are impossible).
        self._evaluate_jobs = 0
        self._evaluate_batches = 0
        self._evaluate_batch_max = 0
        self._engine_seconds = 0.0
        # Per-objective search attribution (written by worker threads;
        # same GIL-atomicity caveat as the evaluate counters).
        self._search_jobs = 0
        self._search_objectives: dict[str, int] = {}
        self._shard_jobs = 0
        # Queued/running pool jobs, loop-confined: heartbeat progress
        # frames go to these until their terminal response pops them.
        self._running: dict[tuple[str, str], tuple[_Client, object]] = {}
        self._heartbeat_timer: asyncio.TimerHandle | None = None
        # Per-search witness boards for shard jobs: shards running here
        # post to (and poll) their search's board, and coordinators
        # feed snapshots from shards on *other* daemons in through the
        # ``witness-update`` op. Bounded LRU — a board is pure
        # accelerator state, so eviction only slows replays down.
        self._boards_lock = Lock()
        self._shard_boards: dict[str, WitnessBoard] = {}

    # ------------------------------------------------------------------
    # Lifecycle

    @property
    def addresses(self) -> list[str]:
        """Bound listen addresses (``tcp://host:port``, ``unix://path``)."""
        return list(self._addresses)

    async def start(self) -> None:
        if not self._servers:
            self._loop = asyncio.get_running_loop()
            config = self.config
            if config.port is None and config.unix_path is None:
                raise SpecError("serve needs a TCP port and/or a unix socket")
            if config.port is not None:
                server = await asyncio.start_server(
                    self._handle_connection,
                    host=config.host,
                    port=config.port,
                    limit=MAX_LINE_BYTES,
                )
                for sock in server.sockets:
                    host, port = sock.getsockname()[:2]
                    self._addresses.append(f"tcp://{host}:{port}")
                self._servers.append(server)
            if config.unix_path is not None:
                # A stale socket file from a dead daemon must not block
                # restarts; a live daemon still holds its listener, so
                # the unlink only ever clears leftovers.
                try:
                    os.unlink(config.unix_path)
                except FileNotFoundError:
                    pass
                server = await asyncio.start_unix_server(
                    self._handle_connection,
                    path=config.unix_path,
                    limit=MAX_LINE_BYTES,
                )
                self._addresses.append(f"unix://{config.unix_path}")
                self._servers.append(server)
            if config.heartbeat_s > 0:
                self._heartbeat_timer = self._loop.call_later(
                    config.heartbeat_s, self._heartbeat_tick
                )

    async def serve_forever(self) -> None:
        await self.start()
        await self._stopping.wait()
        await self.aclose()

    def request_stop(self) -> None:
        self._stopping.set()

    async def aclose(self) -> None:
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers = []
        self._batch_executor.shutdown(wait=True)
        self._pool.shutdown(wait=True)
        if self.config.unix_path is not None:
            try:
                os.unlink(self.config.unix_path)
            except FileNotFoundError:
                pass
        self.session.close()

    # ------------------------------------------------------------------
    # Connections and dispatch

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        client = _Client(writer, name=f"client-{next(self._client_seq)}")
        self._clients[client.name] = client
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self._send(
                        client,
                        None,
                        error=SpecError(
                            f"message exceeds {MAX_LINE_BYTES} bytes"
                        ),
                    )
                    break
                if not line:
                    break
                client.stats.bytes_in += len(line)
                if line.strip() == b"":
                    continue
                try:
                    message = decode_line(line)
                except ReproError as exc:
                    self._send(client, None, error=exc)
                    continue
                self._dispatch(client, message)
        except asyncio.CancelledError:
            # Shutdown cancels connection handlers mid-read; exiting
            # the loop normally keeps asyncio's stream machinery from
            # logging the cancellation as a connection error.
            pass
        finally:
            del self._clients[client.name]
            self._running = {
                key: entry
                for key, entry in self._running.items()
                if entry[0] is not client
            }
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _dispatch(self, client: _Client, message: dict) -> None:
        request_id = message.get("id")
        op = message.get("op")
        if op is not None:
            self._handle_op(client, request_id, op, message)
            return
        job_dict = message.get("job")
        if job_dict is None:
            self._send(
                client,
                request_id,
                error=SpecError("request needs a 'job' or an 'op' field"),
            )
            return
        fields = message.get("fields")
        if fields is not None and (
            not isinstance(fields, list)
            or not all(isinstance(name, str) for name in fields)
        ):
            self._send(
                client,
                request_id,
                error=SpecError(
                    "'fields' must be a list of result key names"
                ),
            )
            return
        try:
            self._resolve_blob_refs(client, job_dict)
        except ReproError as exc:
            self._send(client, request_id, error=exc)
            return
        client.stats.jobs += 1
        deadline_ms = message.get("deadline_ms")
        # Route on the envelope's kind tag alone; unpickling the job
        # payload waits for the lane/worker thread. The loop thread
        # stays at pure framing, so a long stacked engine pass never
        # has to share its GIL time with per-job deserialization.
        if (
            isinstance(job_dict, dict)
            and job_dict.get("kind") == "evaluate-job"
        ):
            self._collect(client, request_id, job_dict, fields)
        else:
            self._admit(client, request_id, job_dict, deadline_ms, fields)

    def _handle_op(self, client: _Client, request_id, op, message) -> None:
        if op == "ping":
            self._send(
                client,
                request_id,
                ok={"protocol": PROTOCOL_VERSION, "addresses": self.addresses},
            )
        elif op == "stats":
            self._send(client, request_id, ok=client.stats.to_dict())
        elif op == "server-stats":
            batches = self._evaluate_batches
            self._send(
                client,
                request_id,
                ok={
                    "evaluate_jobs": self._evaluate_jobs,
                    "evaluate_batches": batches,
                    "evaluate_batch_max": self._evaluate_batch_max,
                    "evaluate_batch_mean": (
                        self._evaluate_jobs / batches if batches else 0.0
                    ),
                    "engine_seconds": self._engine_seconds,
                    "clients": len(self._clients),
                    "search_jobs": self._search_jobs,
                    "search_objectives": dict(self._search_objectives),
                    "shard_jobs": self._shard_jobs,
                    **self._payloads.stats(),
                },
            )
        elif op == "witness-update":
            # Coordinator fan-in: an authoritative scan snapshot from a
            # shard on another daemon. Usually sent as a notification
            # (no ``id``) — fire-and-forget, nothing written back — so
            # a slow witness path can never block shard traffic.
            try:
                search = message.get("search")
                if not isinstance(search, str) or not search:
                    raise SpecError(
                        "witness-update needs a non-empty 'search' id"
                    )
                snapshot = WitnessSnapshot.from_dict(message.get("snapshot"))
            except SpecError as exc:
                if request_id is not None:
                    self._send(client, request_id, error=exc)
                return
            self._board_for(search).post(snapshot)
            if request_id is not None:
                self._send(client, request_id, ok={"applied": True})
        else:
            self._send(
                client,
                request_id,
                error=SpecError(
                    f"unknown op {op!r} (expected ping, stats, "
                    "server-stats, or witness-update)"
                ),
            )

    @staticmethod
    def _resolve_blob_refs(client: _Client, job_dict) -> None:
        """Intern and resolve payload references, loop-side.

        Clients may tag a packed payload with a content-digest ``ref``
        (stored here per connection) and send later copies as
        ``{"encoding": "ref"}`` stubs; this rewrites stubs back to the
        stored blob with dict lookups only. Decoding happens off-loop,
        through the daemon's :class:`_PayloadTable`, which keys on the
        blob's bytes and never on its client-chosen ref. A ref this
        connection never carried in full is a :class:`SpecError` (the
        client's reconnect logic re-sends payloads in full on a fresh
        connection).
        """
        if not isinstance(job_dict, dict):
            return  # the lane's decoder reports the malformed envelope
        for field, value in job_dict.items():
            if not isinstance(value, dict):
                continue
            ref = value.get("ref")
            if ref is None:
                continue
            if value.get("encoding") == "ref":
                stored = client.blobs.get(ref)
                if stored is None:
                    raise SpecError(
                        f"unknown payload ref {ref!r} in field "
                        f"{field!r}; this connection never carried the "
                        "full payload — resend it inline"
                    )
                job_dict[field] = stored
            else:
                client.blobs[ref] = value

    # ------------------------------------------------------------------
    # Evaluate micro-batching

    def _collect(
        self, client: _Client, request_id, job_dict: dict, fields
    ) -> None:
        """Add one evaluate job (still a wire dict) to the collector.

        Batch formation adapts to engine-lane backpressure: an idle
        lane dispatches the very first arrival immediately (waiting
        out a window would only add latency), and while a batch is in
        flight, later arrivals accumulate — so batch sizes grow to
        match the offered load — bounded by ``batch_max`` jobs or the
        ``batch_window_ms`` window, whichever trips first. Completion
        of the in-flight batch flushes whatever has accumulated
        (:meth:`_batch_done`), keeping the lane saturated with zero
        idle gaps between passes.
        """
        self._batch.append((client, request_id, job_dict, fields))
        if len(self._batch) >= self.config.batch_max:
            self._flush_batch()
        elif self._batch_inflight == 0:
            self._flush_batch()
        elif self._batch_timer is None:
            self._batch_timer = self._loop.call_later(
                self.config.batch_window_ms / 1000.0, self._flush_batch
            )

    def _flush_batch(self) -> None:
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        if not self._batch:
            return
        batch, self._batch = self._batch, []
        self._batch_inflight += 1
        future = self._loop.run_in_executor(
            self._batch_executor, self._run_evaluate_batch, batch
        )
        future.add_done_callback(self._batch_done)

    def _batch_done(self, future) -> None:
        self._batch_inflight -= 1
        self._surface_worker_crash(future)
        if self._batch:
            self._flush_batch()

    def _run_evaluate_batch(self, batch) -> None:
        """Executor side: decode, one stacked Session pass, encode.

        The whole wire round-trip for the batch happens here on the
        lane thread — per-job decode failures and modeling failures
        resolve on their own handles, the stats checkpoints around the
        pass attribute its cache hits evenly across the batch's jobs,
        and the loop wakes once per batch to write the pre-encoded
        frames.
        """
        try:
            responses = []
            entries = []
            for client, request_id, job_dict, fields in batch:
                try:
                    job = job_from_dict(
                        job_dict, unpack=self._payloads.unpack
                    )
                except ReproError as exc:
                    responses.append((client, encode_line(
                        {"id": request_id, "error": error_to_envelope(exc)}
                    )))
                    continue
                entries.append((client, request_id, job, fields))
            if entries:
                started = time.perf_counter()
                with self._engine_lock:
                    before = self.session.cache_stats()
                    handles = [
                        self.session.submit(job)
                        for _c, _i, job, _f in entries
                    ]
                    self.session.run()
                    hits = _total_hits(
                        self.session.cache_stats(since=before)
                    )
                self._engine_seconds += time.perf_counter() - started
                self._evaluate_jobs += len(entries)
                self._evaluate_batches += 1
                self._evaluate_batch_max = max(
                    self._evaluate_batch_max, len(entries)
                )
                per_job_hits = hits / len(entries)
                for (client, request_id, _job, fields), handle in zip(
                    entries, handles
                ):
                    client.stats.cache_hits += per_job_hits
                    exc = handle.exception()
                    if exc is not None:
                        payload = {"id": request_id,
                                   "error": error_to_envelope(exc)}
                    else:
                        payload = {
                            "id": request_id,
                            "result": _result_dict(
                                handle.result(), fields
                            ),
                        }
                    responses.append((client, encode_line(payload)))
            self._loop.call_soon_threadsafe(
                self._write_encoded, responses
            )
        except BaseException as exc:  # noqa: BLE001 - reported per job
            for client, request_id, _job, _fields in batch:
                self._post(client, request_id, error=exc)

    # ------------------------------------------------------------------
    # Search/network admission + worker pool

    def _admit(
        self, client: _Client, request_id, job, deadline_ms, fields
    ) -> None:
        if len(self._queue) >= self.config.queue_depth:
            client.stats.overloaded += 1
            self._send(
                client,
                request_id,
                error=OverloadedError(
                    f"admission queue full ({self.config.queue_depth} jobs "
                    "queued); retry with backoff"
                ),
            )
            return
        if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
            deadline_ms = self.config.default_deadline_ms
        heapq.heappush(
            self._queue,
            _QueueEntry(
                deadline=self._loop.time() + deadline_ms / 1000.0,
                seq=next(self._queue_seq),
                client=client,
                request_id=request_id,
                job=job,
                fields=fields,
            ),
        )
        # Heartbeats cover the job from admission (queue wait included)
        # until its terminal response pops it in _send.
        self._running[(client.name, repr(request_id))] = (client, request_id)
        self._pump_queue()

    def _pump_queue(self) -> None:
        while self._queue and self._active_workers < self.config.workers:
            entry = heapq.heappop(self._queue)
            self._active_workers += 1
            future = self._loop.run_in_executor(
                self._pool, self._run_single, entry
            )
            future.add_done_callback(self._worker_done)

    def _worker_done(self, future) -> None:
        self._active_workers -= 1
        self._surface_worker_crash(future)
        self._pump_queue()

    def _run_single(self, entry: _QueueEntry) -> None:
        client, request_id = entry.client, entry.request_id
        try:
            job = job_from_dict(entry.job, unpack=self._payloads.unpack)
            if isinstance(job, SearchJob):
                # Attribute the search to the objective that will score
                # it, so server-stats can break search traffic down the
                # same way the results themselves are self-describing.
                objective_name = resolve_objective(job.objective).name
                self._search_jobs += 1
                self._search_objectives[objective_name] = (
                    self._search_objectives.get(objective_name, 0) + 1
                )
            if isinstance(job, (SearchJob, SearchShardJob)):
                # Stream incremental scan state back as progress frames
                # (and, for shards, wire up this search's witness board
                # so snapshots flow both ways).
                job.progress = functools.partial(
                    self._post_progress, client, request_id
                )
            if isinstance(job, SearchShardJob):
                self._shard_jobs += 1
                if job.search_id:
                    job.board = self._board_for(job.search_id)
            with self._engine_lock:
                before = self.session.cache_stats()
                handle = self.session.submit(job)
                self.session.run()
                client.stats.cache_hits += _total_hits(
                    self.session.cache_stats(since=before)
                )
            exc = handle.exception()
            if exc is not None:
                self._post(client, request_id, error=exc)
            else:
                self._post(
                    client,
                    request_id,
                    result=_result_dict(handle.result(), entry.fields),
                )
        except BaseException as exc:  # noqa: BLE001 - reported to client
            self._post(client, request_id, error=exc)

    def _board_for(self, search_id: str) -> WitnessBoard:
        """This search's witness board (created on first touch).

        Called from worker threads (shard jobs) and the loop thread
        (``witness-update``); bounded FIFO eviction — boards are pure
        accelerator state, so evicting one only slows replays down.
        """
        with self._boards_lock:
            board = self._shard_boards.get(search_id)
            if board is None:
                while len(self._shard_boards) >= 32:
                    self._shard_boards.pop(next(iter(self._shard_boards)))
                board = self._shard_boards[search_id] = WitnessBoard()
            return board

    @staticmethod
    def _surface_worker_crash(future) -> None:
        # _run_evaluate_batch/_run_single report everything to their
        # clients; retrieving the (always-None) result here keeps any
        # truly unexpected executor failure from vanishing silently.
        future.result()

    # ------------------------------------------------------------------
    # Responses

    def _post(self, client: _Client, request_id, **payload) -> None:
        """Thread-safe response: hop back onto the loop to write."""
        self._loop.call_soon_threadsafe(
            functools.partial(self._send, client, request_id, **payload)
        )

    def _post_progress(self, client: _Client, request_id, info: dict) -> None:
        """Thread-safe non-terminal progress frame for a running job."""
        self._loop.call_soon_threadsafe(
            functools.partial(self._send, client, request_id, progress=info)
        )

    def _heartbeat_tick(self) -> None:
        """Loop-side liveness pings: one ``{"heartbeat": true}``
        progress frame per queued/running pool job per period, so
        clients waiting on long searches can tell a busy daemon from a
        dead one (:class:`~repro.common.errors.WorkerLostError` is the
        client-side verdict when these stop arriving)."""
        self._heartbeat_timer = None
        if self._stopping.is_set():
            return
        for client, request_id in list(self._running.values()):
            self._send(client, request_id, progress={"heartbeat": True})
        self._heartbeat_timer = self._loop.call_later(
            self.config.heartbeat_s, self._heartbeat_tick
        )

    def _write_encoded(self, responses) -> None:
        """Loop side: write pre-encoded frames (one hop per batch),
        coalesced into one socket write per client."""
        grouped: dict[_Client, list[bytes]] = {}
        for client, data in responses:
            grouped.setdefault(client, []).append(data)
        for client, frames in grouped.items():
            if client.writer.is_closing():
                continue
            data = b"".join(frames)
            client.stats.bytes_out += len(data)
            client.writer.write(data)

    def _send(
        self,
        client: _Client,
        request_id,
        *,
        result=None,
        error=None,
        ok=None,
        progress=None,
    ) -> None:
        response: dict = {"id": request_id}
        if progress is not None:
            # Non-terminal: the job stays registered for heartbeats.
            response["progress"] = progress
        else:
            self._running.pop((client.name, repr(request_id)), None)
            if error is not None:
                response["error"] = error_to_envelope(error)
            elif ok is not None:
                response["ok"] = ok
            else:
                response["result"] = result
        if client.writer.is_closing():
            return
        data = encode_line(response)
        client.stats.bytes_out += len(data)
        client.writer.write(data)


def _total_hits(stats_delta: dict) -> float:
    return float(
        sum(stage.get("hits", 0) for stage in stats_delta.values())
    )


def _result_dict(result, fields) -> dict:
    """Serialize one result, honoring the request's ``fields``
    projection. Evaluate results project natively (their ``to_dict``
    skips building unrequested sections); other result kinds fall back
    to a post-filter over the full envelope — the schema/kind tags
    always survive so clients can still sanity-check what came back."""
    if fields is None:
        return result.to_dict()
    if isinstance(result, EvaluationResult):
        return result.to_dict(fields=fields)
    data = result.to_dict()
    keep = {"schema", "kind", *fields}
    return {key: value for key, value in data.items() if key in keep}
