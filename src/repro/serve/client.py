"""The thin client: :func:`connect` and :class:`RemoteSession`.

A :class:`RemoteSession` mirrors the :class:`~repro.api.Session`
surface — ``submit`` / ``submit_many`` / ``evaluate`` / ``search`` /
``evaluate_network`` / ``evaluate_fused`` — over one daemon
connection. Submissions return :class:`RemoteHandle`\\ s that behave
exactly like in-process :class:`~repro.api.jobs.JobHandle`\\ s:
``result()`` returns the same ``schema: 1`` result objects
(bit-identical payloads), ``exception()`` returns the same
:class:`~repro.common.errors.ReproError` types with the same messages,
and both take ``timeout=``.

A dropped connection (daemon restart, socket error) is retried once
per wait: the client reconnects and resends every *resendable* request
still in flight. Most job kinds are pure functions of their payload
and replay safely; a mapspace :class:`SearchJob` is not — it consumes
the daemon's seeded candidate stream and search budget — so its handle
resolves with :class:`~repro.common.errors.WorkerLostError` instead of
being silently re-run (see :func:`repro.api.jobs.job_resendable`). The
daemon sheds load with :class:`~repro.common.errors.OverloadedError`
envelopes; those are surfaced, not retried, so the caller controls
backoff.

Long-running jobs stream non-terminal *progress* frames — incremental
search state plus periodic heartbeats. ``worker_timeout=`` turns those
heartbeats into a liveness watchdog: a session that hears nothing at
all for the whole window resolves its in-flight handles with
:class:`WorkerLostError` rather than hanging on a dead daemon.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from collections import OrderedDict
from pathlib import Path

from repro.api.jobs import (
    EvaluateJob,
    FusedJob,
    NetworkJob,
    _is_int,
    _pack,
    job_resendable,
)
from repro.api.session import coerce_job, evaluate_job, search_job
from repro.common.cache import digest
from repro.common.errors import ReproError, SpecError, WorkerLostError
from repro.model.result import SearchResult
from repro.serve.protocol import (
    PAYLOAD_TABLE_ENTRIES,
    decode_line,
    encode_line,
    error_from_envelope,
    result_from_dict,
)

#: Packed payloads a session keeps (object, digest, blob), least
#: recently used evicted first: as many as the daemon's decoded-payload
#: table holds. An evicted object is re-pickled on its next use; its
#: digest is unchanged, so the daemon still receives a ref stub.
PACK_MEMO_ENTRIES = PAYLOAD_TABLE_ENTRIES

__all__ = ["connect", "RemoteSession", "RemoteHandle"]


def connect(address, *, timeout: float | None = 10.0) -> "RemoteSession":
    """Open a :class:`RemoteSession` to a serving daemon.

    ``address`` accepts a ``(host, port)`` tuple, ``"host:port"``,
    ``"tcp://host:port"``, ``"unix:///path/to.sock"``, or a bare
    filesystem path (anything with a path separator, or no ``:port``
    suffix, is treated as a unix socket). A TCP port is an integer
    from 1 to 65535; a malformed address raises a
    :class:`~repro.common.errors.SpecError`. ``timeout`` bounds the
    connection attempt, not job waits — those take per-call
    ``timeout=`` arguments.
    """
    return RemoteSession(address, connect_timeout=timeout)


def _parse_address(address) -> tuple[str, str, int | None]:
    """``(kind, host or path, port)`` for any form :func:`connect`
    accepts. Every TCP form needs a host and an integer port from 1 to
    65535; anything else is a :class:`SpecError` naming the address."""
    if isinstance(address, Path):
        return ("unix", str(address), None)
    if isinstance(address, tuple):
        if len(address) != 2:
            raise SpecError(
                f"tuple addresses must be (host, port), got {address!r}"
            )
        host, port = address
    elif isinstance(address, str):
        if address.startswith("unix://"):
            return ("unix", address[len("unix://"):], None)
        text = address.removeprefix("tcp://")
        host, sep, port = text.rpartition(":")
        if text == address and not (
            sep and host and "/" not in text and port.isdecimal()
        ):
            return ("unix", text, None)
    else:
        raise SpecError(
            f"cannot parse address from {type(address).__name__}; expected "
            "a (host, port) tuple, 'host:port', 'tcp://...', 'unix://...', "
            "or a socket path"
        )
    if isinstance(port, str) and port.isdecimal():
        port = int(port)
    if not (host and _is_int(port, 1) and port <= 65535):
        raise SpecError(
            f"TCP address {address!r} needs a host and an integer port "
            "from 1 to 65535"
        )
    return ("tcp", str(host), port)


class RemoteHandle:
    """A :class:`~repro.api.jobs.JobHandle`-compatible ticket for one
    request in flight on a :class:`RemoteSession`."""

    __slots__ = (
        "job", "progress", "on_progress", "_session", "_id", "_done",
        "_result", "_raw_result", "_fields", "_exception",
    )

    def __init__(
        self, session: "RemoteSession", job, request_id: int, fields=None
    ):
        self.job = job
        #: Last substantive progress payload the daemon streamed
        #: (heartbeats excluded); ``None`` until one arrives.
        self.progress: dict | None = None
        #: Optional callback invoked (on the waiting thread) for each
        #: substantive progress frame. Exceptions are swallowed — an
        #: observer must not kill the read loop.
        self.on_progress = None
        self._session = session
        self._id = request_id
        self._done = False
        self._result = None
        self._raw_result = None
        self._fields = fields
        self._exception: BaseException | None = None

    def done(self) -> bool:
        """True once the daemon's response has been read."""
        return self._done

    def result(self, timeout: float | None = None):
        """The job's result (same types and bit-identical payloads as
        the in-process handle); re-raises the job's captured error.
        ``timeout`` bounds the wait in seconds
        (:class:`TimeoutError` on expiry; the handle stays pending).

        Jobs submitted with a ``fields=`` projection return the
        server's projected result *dict* — a partial envelope has no
        Result-object form."""
        if not self._done:
            self._session._wait(self, timeout=timeout)
        if self._exception is not None:
            raise self._exception
        if self._raw_result is not None:
            # Result objects are built lazily: the read loop stays a
            # pure demultiplexer, and callers that only poll
            # ``exception()`` never pay for payload reconstruction.
            with self._session._lock:
                if self._raw_result is not None:
                    raw = self._raw_result[0]
                    if self._fields is None:
                        self._result = result_from_dict(raw)
                    elif isinstance(raw, dict):
                        self._result = raw
                    else:
                        raise SpecError(
                            "projected response carried no result "
                            f"payload (got {type(raw).__name__})"
                        )
                    self._raw_result = None
        return self._result

    def exception(
        self, timeout: float | None = None
    ) -> BaseException | None:
        """The job's captured failure (``None`` on success)."""
        if not self._done:
            self._session._wait(self, timeout=timeout)
        return self._exception

    def _resolve(self, result=None, exception: BaseException | None = None):
        self._result = result
        self._exception = exception
        self._done = True

    def __repr__(self) -> str:
        state = "pending"
        if self._done:
            state = "failed" if self._exception is not None else "done"
        return f"RemoteHandle({type(self.job).__name__}, {state})"


class RemoteSession:
    """One connection to a serving daemon, speaking the Session API.

    Thread-safe: any thread may submit or wait; reads are serialized on
    one lock and responses resolve whichever handles they belong to,
    so concurrent waiters make progress for each other.
    """

    def __init__(
        self,
        address,
        *,
        connect_timeout: float | None = 10.0,
        worker_timeout: float | None = None,
    ):
        self._address = _parse_address(address)
        self._connect_timeout = connect_timeout
        #: Liveness window: with the daemon heartbeating every few
        #: seconds, *any* frame (heartbeats included) resets the clock;
        #: total silence past the window means the worker is gone, and
        #: every in-flight handle resolves with WorkerLostError instead
        #: of hanging. ``None`` disables the watchdog.
        self._worker_timeout = worker_timeout
        self._last_rx = time.monotonic()
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        #: request id -> (handle, encoded request); kept until the
        #: response lands so a reconnect can resend everything pending.
        self._inflight: dict[int, tuple[RemoteHandle, bytes]] = {}
        #: payload interning: id(obj) -> (obj, digest, packed blob),
        #: an LRU of PACK_MEMO_ENTRIES. Holding the object keeps its id
        #: stable while it is memoised.
        self._blob_packs: OrderedDict[int, tuple] = OrderedDict()
        #: digests the *current* connection has carried in full; the
        #: set resets on reconnect so refs never dangle server-side.
        self._sent_refs: set[str] = set()
        self._sock: socket.socket | None = None
        self._rfile = None
        self._closed = False
        self._connect()

    # ------------------------------------------------------------------
    # Connection management

    def _connect(self) -> None:
        kind, host, port = self._address
        if kind == "tcp":
            sock = socket.create_connection(
                (host, port), timeout=self._connect_timeout
            )
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._connect_timeout)
            sock.connect(host)
        sock.settimeout(None)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._last_rx = time.monotonic()

    def _teardown(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._rfile = None

    def _reconnect_and_resend(self) -> None:
        """Reconnect and replay every *resendable* request still
        awaiting a response. The fresh connection has an empty
        server-side blob store, so job requests are re-encoded from
        scratch — the first replay carries each interned payload in
        full again.

        Not every job replays safely: a mapspace SearchJob consumes
        the daemon's seeded candidate stream and search budget, and
        the first attempt's fate is unknown — it may still be running
        to completion server-side. Silently re-running it would spend
        the budget twice, so those handles resolve with
        :class:`WorkerLostError` instead (:func:`job_resendable`)."""
        self._teardown()
        self._connect()
        self._sent_refs.clear()
        frames: list[bytes] = []
        lost: WorkerLostError | None = None
        for request_id, (handle, payload) in list(self._inflight.items()):
            if not job_resendable(handle.job):
                if lost is None:
                    lost = WorkerLostError(
                        "connection lost with a non-resendable search "
                        "in flight; the first attempt's fate is unknown "
                        "(it consumes seeded candidate stream and "
                        "search budget server-side), so it was not "
                        "silently re-run — resubmit explicitly"
                    )
                del self._inflight[request_id]
                handle._resolve(exception=lost)
                continue
            if handle.job is not None:
                payload = self._job_frame(
                    request_id, handle.job, handle._fields
                )
                self._inflight[request_id] = (handle, payload)
            frames.append(payload)
        if frames:
            self._sock.sendall(b"".join(frames))

    def close(self) -> None:
        """Close the connection; pending handles resolve with a
        :class:`ReproError` rather than hanging."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            dropped = ReproError("connection closed with the job in flight")
            for handle, _payload in self._inflight.values():
                handle._resolve(exception=dropped)
            self._inflight.clear()
            self._teardown()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Payload interning

    def _pack_interned(self, obj) -> dict:
        """Pack ``obj`` once per object, then send a digest reference.

        The first request on a connection carries the full tagged blob
        plus its content digest; the daemon stores it per connection,
        and every later request for the same object is a ~60-byte
        ``{"encoding": "ref"}`` stub. For DSE traffic — one design and
        workload, thousands of mappings — this removes the dominant
        per-job pickling and wire cost on both ends.
        """
        packs = self._blob_packs
        entry = packs.get(id(obj))
        if entry is None or entry[0] is not obj:
            blob = _pack(obj)
            ref = digest(blob["data"].encode("ascii")).hex()
            entry = packs[id(obj)] = (obj, ref, blob)
            if len(packs) > PACK_MEMO_ENTRIES:
                packs.popitem(last=False)
        packs.move_to_end(id(obj))
        _obj, ref, blob = entry
        if ref in self._sent_refs:
            return {"encoding": "ref", "ref": ref}
        self._sent_refs.add(ref)
        return {**blob, "ref": ref}

    def _job_wire(self, job) -> dict:
        """The wire dict for one job; evaluate jobs (the micro-batched
        hot path) intern their design/workload payloads."""
        if isinstance(job, EvaluateJob):
            return job.to_dict(pack=self._pack_interned)
        return job.to_dict()

    def _job_frame(self, request_id: int, job, fields) -> bytes:
        request: dict = {"id": request_id, "job": self._job_wire(job)}
        if fields is not None:
            request["fields"] = list(fields)
        return encode_line(request)

    # ------------------------------------------------------------------
    # Submission (the Session surface)

    def submit(
        self, spec, *, search: bool = False, fields=None, on_progress=None
    ) -> RemoteHandle:
        """Queue one job on the daemon; accepts every spec form
        :meth:`repro.api.Session.submit` accepts.

        ``fields`` asks the daemon to project the result to the named
        top-level keys (plus the virtual ``"summary"`` scalar block for
        evaluate results); the handle then resolves to the projected
        dict instead of a Result object. Throughput-bound sweeps that
        only need scalars should project — it removes most of the
        per-job response encode/decode cost.

        ``on_progress`` registers a callback for the job's streamed
        progress frames (search/shard jobs emit them per block;
        heartbeats are filtered out)."""
        job = coerce_job(spec, search=search)
        with self._lock:
            if self._closed:
                raise SpecError("cannot submit to a closed RemoteSession")
            request_id = next(self._ids)
            payload = self._job_frame(request_id, job, fields)
            handle = RemoteHandle(self, job, request_id, fields)
            handle.on_progress = on_progress
            self._inflight[request_id] = (handle, payload)
            try:
                self._sock.sendall(payload)
            except (ConnectionError, BrokenPipeError, OSError):
                self._reconnect_and_resend()
        return handle

    def submit_many(
        self, specs, *, search: bool = False, fields=None
    ) -> list[RemoteHandle]:
        """Queue a batch; jobs submitted together land in the daemon's
        same micro-batch window whenever the collector allows. The
        whole batch goes out as one socket write, so the daemon sees
        the jobs back to back rather than one syscall apart.
        ``fields`` projects every result in the batch (see
        :meth:`submit`)."""
        jobs = [coerce_job(spec, search=search) for spec in specs]
        with self._lock:
            if self._closed:
                raise SpecError("cannot submit to a closed RemoteSession")
            handles: list[RemoteHandle] = []
            frames: list[bytes] = []
            for job in jobs:
                request_id = next(self._ids)
                payload = self._job_frame(request_id, job, fields)
                handle = RemoteHandle(self, job, request_id, fields)
                self._inflight[request_id] = (handle, payload)
                handles.append(handle)
                frames.append(payload)
            try:
                self._sock.sendall(b"".join(frames))
            except (ConnectionError, BrokenPipeError, OSError):
                self._reconnect_and_resend()
        return handles

    def evaluate(self, design, workload=None, mapping=None):
        """Mirror of :meth:`repro.api.Session.evaluate`."""
        result = self.submit(evaluate_job(design, workload, mapping)).result()
        if isinstance(result, SearchResult):
            return result.best_or_raise()
        return result

    def search(
        self,
        design,
        workload=None,
        objective=None,
        candidates=None,
        parallel=None,
        batch_size=None,
        strategy=None,
        budget=None,
        seed=None,
        shards=None,
        on_progress=None,
    ) -> SearchResult:
        """Mirror of :meth:`repro.api.Session.search`.

        Named/weighted/multi objectives travel as plain schema-v1 spec
        data — ``objective="energy"`` or ``objective=("energy",
        "cycles", "slack")`` puts no pickle on the wire, and the
        result's ``frontier`` section can be projected with
        ``submit(job, fields=["frontier"])``. A callable objective
        stays in-process: it fails with a :class:`SpecError` before
        anything is sent.

        ``budget``/``seed`` override the daemon's sampling knobs for
        this search; ``shards`` asks the daemon to shard the scan
        across its configured workers; ``on_progress`` streams
        incremental best-so-far state (see :meth:`submit`).
        """
        job = search_job(
            design,
            workload,
            objective=objective,
            candidates=candidates,
            parallel=parallel,
            batch_size=batch_size,
            strategy=strategy,
            budget=budget,
            seed=seed,
            shards=shards,
        )
        return self.submit(job, on_progress=on_progress).result()

    def evaluate_network(
        self, design, layers, densities_for, parallel=None
    ):
        """Mirror of :meth:`repro.api.Session.evaluate_network`."""
        handle = self.submit(
            NetworkJob(design, list(layers), densities_for, parallel)
        )
        return handle.result()

    def evaluate_fused(
        self, design, graph, densities=None, fused=None, parallel=None
    ):
        """Mirror of :meth:`repro.api.Session.evaluate_fused`."""
        handle = self.submit(
            FusedJob(design, graph, densities, fused, parallel)
        )
        return handle.result()

    # ------------------------------------------------------------------
    # Control ops

    def ping(self, timeout: float | None = None) -> dict:
        """Round-trip a ``ping``; returns the daemon's protocol info."""
        return self._op("ping", timeout=timeout)

    def stats(self, timeout: float | None = None) -> dict:
        """This connection's server-side stats (jobs, attributed cache
        hits, bytes in/out, overload rejections)."""
        return self._op("stats", timeout=timeout)

    def server_stats(self, timeout: float | None = None) -> dict:
        """Daemon-wide counters: evaluate jobs/batches, realized batch
        sizes (mean/max), cumulative engine seconds, client count."""
        return self._op("server-stats", timeout=timeout)

    def notify(self, op: str, **payload) -> None:
        """Fire-and-forget: send an ``op`` frame with no ``id``. The
        daemon applies it without replying (the coordinator's
        ``witness-update`` fan-out rides on this). Best-effort by
        design — send failures are swallowed; anything that must
        arrive should use a replied op instead."""
        frame = encode_line({"op": op, **payload})
        with self._lock:
            if self._closed or self._sock is None:
                return
            try:
                self._sock.sendall(frame)
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    def _op(self, op: str, *, timeout: float | None) -> dict:
        with self._lock:
            if self._closed:
                raise SpecError("RemoteSession is closed")
            request_id = next(self._ids)
            payload = encode_line({"id": request_id, "op": op})
            handle = RemoteHandle(self, None, request_id)
            self._inflight[request_id] = (handle, payload)
            try:
                self._sock.sendall(payload)
            except (ConnectionError, BrokenPipeError, OSError):
                self._reconnect_and_resend()
        return handle.result(timeout=timeout)

    # ------------------------------------------------------------------
    # Response plumbing

    def _wait(self, handle: RemoteHandle, *, timeout: float | None) -> None:
        """Read responses until ``handle`` resolves. Responses for
        other handles resolve those as a side effect, so any one
        waiter drains the connection for all of them."""
        acquired = (
            self._lock.acquire()
            if timeout is None
            else self._lock.acquire(timeout=timeout)
        )
        if not acquired:
            raise TimeoutError(
                f"no response within {timeout:g}s (connection busy)"
            )
        try:
            if self._closed:
                # close() already resolved every in-flight handle.
                return
            retried = False
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            try:
                while not handle._done:
                    now = time.monotonic()
                    if deadline is not None and now >= deadline:
                        raise TimeoutError(f"no response within {timeout:g}s")
                    # Read in slices bounded by both the caller's
                    # deadline and the liveness lease, so heartbeat
                    # silence is noticed even under an infinite wait.
                    slice_s = None if deadline is None else deadline - now
                    if self._worker_timeout is not None:
                        lease = self._last_rx + self._worker_timeout - now
                        if lease <= 0:
                            self._worker_lost()
                            continue
                        slice_s = (
                            lease if slice_s is None
                            else min(slice_s, lease)
                        )
                    self._sock.settimeout(slice_s)
                    try:
                        line = self._rfile.readline()
                    except socket.timeout:
                        continue
                    except (ConnectionError, OSError):
                        line = b""
                    if not line:
                        if retried:
                            raise ReproError(
                                "connection to the daemon lost (retried once)"
                            )
                        retried = True
                        self._reconnect_and_resend()
                        continue
                    self._last_rx = time.monotonic()
                    self._handle_response(decode_line(line))
            finally:
                if self._sock is not None:
                    self._sock.settimeout(None)
        finally:
            self._lock.release()

    def _worker_lost(self) -> None:
        """The liveness lease expired: no frame — not even a heartbeat
        — inside ``worker_timeout``. The daemon is presumed dead;
        every in-flight handle resolves with :class:`WorkerLostError`
        and the session closes (the coordinator reassigns the shard
        on a fresh connection to a live worker)."""
        kind, host, port = self._address
        where = host if port is None else f"{host}:{port}"
        exc = WorkerLostError(
            f"no frame from the daemon at {where} in "
            f"{self._worker_timeout:g}s (heartbeats included) — worker "
            "presumed dead"
        )
        for handle, _payload in self._inflight.values():
            handle._resolve(exception=exc)
        self._inflight.clear()
        self._closed = True
        self._teardown()

    def _handle_response(self, message: dict) -> None:
        request_id = message.get("id")
        if "progress" in message:
            entry = self._inflight.get(request_id)
            if entry is None:
                return
            handle, _payload = entry
            info = message["progress"]
            if isinstance(info, dict) and info.get("heartbeat"):
                return  # pure liveness; _last_rx already refreshed
            handle.progress = info
            callback = handle.on_progress
            if callback is not None:
                try:
                    callback(info)
                except Exception:
                    pass  # an observer must not kill the read loop
            return
        entry = self._inflight.pop(request_id, None)
        if entry is None:
            # Unknown id: a duplicate after a resend race, or a
            # server-initiated framing error notice (id null). Drop it.
            return
        handle, _payload = entry
        if "error" in message:
            handle._resolve(exception=error_from_envelope(message["error"]))
        elif "ok" in message:
            handle._resolve(result=message["ok"])
        else:
            # Deferred: ``result()`` rebuilds the Result object on
            # first access (see RemoteHandle.result). Tuple-wrapped so
            # a missing payload still hits result_from_dict's checks.
            handle._raw_result = (message.get("result"),)
            handle._resolve(result=None)
