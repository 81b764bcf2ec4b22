"""Coordinator for distributed sharded search.

:func:`sharded_search` splits one :class:`~repro.api.jobs.SearchJob`
into contiguous stream shards (:func:`repro.distributed.plan.
plan_shards`), fans them out over worker daemons speaking the serve
protocol, exchanges overflow-witness snapshots between shards
mid-flight, survives worker deaths by reassigning their shards, and
merges the per-shard Pareto frontiers into a result provably
bit-identical to the single-host batched scan.

Exactness rests on three facts, each carried by a neighbouring module:

* every shard scans the same deterministic candidate stream at the
  same positions (:mod:`repro.distributed.worker`'s replay proof);
* shard frontiers fold back losslessly — shards are contiguous in
  stream order, so merging them in shard order replays the
  single-host frontier's ``add`` sequence restricted to shard
  survivors, and any point a shard discarded is dominated by a point
  it kept (dominance is transitive, equal vectors keep the earlier
  index), so the merged frontier and its minimum ``(score, index)``
  winner equal the single-host ones exactly;
* witness snapshots are authoritative states of the one shared scan
  timeline, so forwarding them (or re-seeding a reassigned shard from
  the board) accelerates replay without changing any shard's output.

Fault tolerance: each worker runs on its own thread with its own job
connection (heartbeat-monitored; see ``worker_timeout`` on
:class:`repro.serve.client.RemoteSession`). A worker loss requeues the
shard — re-seeded from the board's latest usable snapshot — for the
surviving workers, up to ``max_attempts`` attempts per shard. Shard
jobs are pure functions of their payload, so re-running one is always
safe; deterministic job failures (:class:`SpecError` and kin) abort
the search instead of retrying, since every worker would fail the
same way.
"""

from __future__ import annotations

import threading
import uuid
from collections import deque
from collections.abc import Callable

from repro.api.jobs import SearchJob, SearchShardJob
from repro.common.errors import (
    MappingError,
    ReproError,
    SpecError,
    ValidationError,
    WorkerLostError,
)
from repro.mapping.mapspace import sampled_candidates_key
from repro.model.engine import SearchOutcome
from repro.search.frontier import ParetoFrontier
from repro.search.objective import resolve_objective

from .plan import ShardSpec, WitnessBoard, WitnessSnapshot, plan_shards
from .store import StreamStore, stream_store_for
from .worker import run_shard

__all__ = [
    "SearchPlan",
    "merge_shards",
    "plan_search",
    "run_shards_local",
    "sharded_search",
]


class SearchPlan:
    """The coordinator's view of one search's candidate stream."""

    __slots__ = ("stream", "total", "mode", "budget", "seed")

    def __init__(self, stream: list, mode: str, budget: int, seed: int):
        self.stream = stream
        self.total = len(stream)
        self.mode = mode
        self.budget = budget
        self.seed = seed


def plan_search(evaluator, job: SearchJob) -> SearchPlan:
    """Materialise the search's full unpruned candidate stream.

    Exactly the single-host planning rules (the engine's
    ``Evaluator._search_mode``): explicit candidates pass through; an
    exhaustively enumerable mapspace
    (:func:`~repro.model.engine.exhaustive_mapspace`) scans the full
    factorization enumeration; anything else scans the seeded sample
    stream (via the ``"candidates"`` memo stage when caching is on, so
    a warm coordinator plans without re-sampling).
    The evaluator's ``search_budget`` / ``search_seed`` are taken as
    already effective — the Session folds per-job overrides in before
    calling.

    The sharded scan *is* the batched scan, so ``strategy="serial"``
    (bit-identical to batched by the engine's own equivalence) is
    accepted and scanned batched; non-degenerate
    ``strategy="evolutionary"`` is rejected — breeding is a sequential
    feedback loop with no deterministic stream to shard (exhaustive
    spaces are fine: evolution degenerates to the batched scan there,
    matching the engine).
    """
    strategy, mode, mapper = evaluator._search_mode(
        job.design, job.workload, job.candidates, job.strategy
    )
    budget = evaluator.search_budget
    seed = evaluator.search_seed
    if mode == "explicit":
        stream = job.candidates
    elif mode == "exhaustive":
        # A fresh mapper holds no witnesses, so this enumeration is the
        # unpruned stream every shard replays.
        stream = mapper.enumerate_mappings()
    elif strategy == "evolutionary":
        raise SpecError(
            "strategy='evolutionary' cannot shard: breeding is a "
            "sequential feedback loop over generations, not a "
            "deterministic candidate stream — run it single-host, or "
            "shard the 'batched' scan"
        )
    else:
        stream = evaluator._sampled_candidates(
            job.design, job.workload, mapper
        )
        if stream is None:
            stream = mapper.sample_mappings(budget, seed=seed)
    return SearchPlan(list(stream), mode, budget, seed)


def _stream_key(job: SearchJob, plan: SearchPlan) -> str:
    identity = sampled_candidates_key(
        job.workload.einsum,
        job.design.arch,
        job.design.constraints,
        plan.seed,
        plan.budget,
    )
    return StreamStore.key(plan.mode, identity, plan.budget, plan.seed)


def _shard_job(
    evaluator,
    job: SearchJob,
    plan: SearchPlan,
    spec: ShardSpec,
    search_id: str,
    snapshot: WitnessSnapshot | None,
) -> SearchShardJob:
    return SearchShardJob(
        design=job.design,
        workload=job.workload,
        objective=job.objective,
        search_id=search_id,
        shard_id=spec.shard_id,
        start=spec.start,
        stop=spec.stop,
        total=plan.total,
        mode=plan.mode,
        budget=plan.budget,
        seed=plan.seed,
        batch_size=job.batch_size,
        check_capacity=evaluator.check_capacity,
        prefilter=evaluator.prefilter_capacity,
        candidates=plan.stream if plan.mode == "explicit" else None,
        snapshot=None if snapshot is None else snapshot.to_dict(),
    )


def merge_shards(objective, shard_results) -> SearchOutcome:
    """Fold per-shard results into the single-host outcome.

    Shards are contiguous, so folding frontiers in shard order adds
    points in global stream-index order — the exact ``add`` sequence
    of the single-host scan restricted to shard survivors (which is
    lossless; see the module docstring). Always records the
    ``"batched"`` strategy: that is the scan every shard ran.
    """
    objective = resolve_objective(objective)
    frontier = ParetoFrontier(axes=objective.axes)
    for shard in sorted(shard_results, key=lambda r: r.shard_id):
        frontier.merge(shard.frontier)
    winner = frontier.best()
    best = (
        None
        if winner is None
        else (winner.score, winner.index, winner.result)
    )
    return SearchOutcome(
        objective=objective,
        strategy="batched",
        frontier=frontier,
        best=best,
    )


def run_shards_local(
    evaluator,
    job: SearchJob,
    shards: int,
    progress: Callable[[dict], None] | None = None,
) -> tuple[SearchOutcome, dict]:
    """Run a sharded scan in-process, one shard at a time.

    The zero-dependency reference execution: same planning, same shard
    jobs, same witness board, same merge as the distributed path —
    used when a Session has no worker fleet, and by the equivalence
    tests as the bridge between ``run_shard`` and the coordinator.
    """
    plan = plan_search(evaluator, job)
    specs = plan_shards(plan.total, shards)
    board = WitnessBoard()
    search_id = uuid.uuid4().hex
    store = stream_store_for(evaluator.persistent)
    if store is not None and plan.mode != "explicit":
        store.publish(_stream_key(job, plan), plan.stream)
    results = []
    for spec in specs:
        shard_job = _shard_job(
            evaluator, job, plan, spec, search_id,
            board.best_before(spec.start),
        )
        results.append(
            run_shard(
                evaluator, shard_job, board=board, progress=progress,
                store=store,
            )
        )
    outcome = merge_shards(job.objective, results)
    stats = {
        "search": search_id,
        "mode": plan.mode,
        "total": plan.total,
        "shards": len(specs),
        "workers": 0,
        "reassigned": 0,
        "evaluated": sum(r.evaluated for r in results),
        "withheld": sum(r.withheld for r in results),
        "rejected": sum(r.rejected for r in results),
    }
    return outcome, stats


class _Controls:
    """Registry of per-worker control connections for witness fan-out."""

    def __init__(self):
        self._lock = threading.Lock()
        self._sessions: list = []

    def add(self, session) -> None:
        with self._lock:
            self._sessions.append(session)

    def remove(self, session) -> None:
        with self._lock:
            if session in self._sessions:
                self._sessions.remove(session)

    def broadcast(self, search_id: str, snapshot: dict, skip=None) -> None:
        with self._lock:
            sessions = list(self._sessions)
        for session in sessions:
            if session is skip:
                continue
            # Fire-and-forget: a lost update only slows a replay down.
            session.notify(
                "witness-update", search=search_id, snapshot=snapshot
            )


def sharded_search(
    evaluator,
    job: SearchJob,
    addresses,
    shards: int | None = None,
    progress: Callable[[dict], None] | None = None,
    max_attempts: int = 3,
    worker_timeout: float | None = 30.0,
) -> tuple[SearchOutcome, dict]:
    """Shard ``job`` over the worker daemons at ``addresses``.

    One coordinator thread per worker: each holds a heartbeat-monitored
    job connection plus a control connection for fire-and-forget
    ``witness-update`` frames (a separate socket, because the job
    connection is busy streaming the in-flight shard's progress). Shard
    jobs are drawn from a shared queue; a worker loss — heartbeat
    silence (:class:`WorkerLostError`), a dropped connection, an
    overloaded daemon — requeues the shard for the survivors, re-seeded
    from the witness board's latest usable snapshot, up to
    ``max_attempts`` attempts. Deterministic job failures abort the
    search. Raises :class:`WorkerLostError` when shards remain and no
    workers do.

    Returns the merged :class:`SearchOutcome` (bit-identical to the
    single-host batched scan) plus a stats dict.
    """
    addresses = list(addresses)
    if not addresses:
        raise SpecError("sharded_search needs at least one worker address")
    if max_attempts < 1:
        raise SpecError(f"max_attempts must be >= 1, got {max_attempts}")
    from repro.serve.client import RemoteSession, _parse_address

    for address in addresses:
        _parse_address(address)  # a malformed address fails before any thread
    plan = plan_search(evaluator, job)
    if shards is None:
        shards = len(addresses)
    specs = plan_shards(plan.total, shards)
    store = stream_store_for(evaluator.persistent)
    if store is not None and plan.mode != "explicit":
        store.publish(_stream_key(job, plan), plan.stream)

    search_id = uuid.uuid4().hex
    board = WitnessBoard()
    controls = _Controls()
    cv = threading.Condition()
    queue: deque[ShardSpec] = deque(specs)
    attempts: dict[int, int] = {spec.shard_id: 0 for spec in specs}
    results: dict[int, object] = {}
    errors: list[BaseException] = []
    live = [0]
    reassigned = [0]

    def _emit(info: dict) -> None:
        if progress is not None:
            try:
                progress(info)
            except Exception:
                pass

    def _finished() -> bool:
        return bool(errors) or len(results) == len(specs)

    def _on_progress(control, info: dict) -> None:
        snapshot = info.get("snapshot") if isinstance(info, dict) else None
        if isinstance(snapshot, dict):
            try:
                board.post(WitnessSnapshot.from_dict(snapshot))
            except SpecError:
                snapshot = None
            else:
                controls.broadcast(search_id, snapshot, skip=control)
        _emit(info)

    def _run_worker(address: str) -> None:
        session = control = None
        try:
            try:
                session = RemoteSession(address, worker_timeout=worker_timeout)
                control = RemoteSession(address)
            except (OSError, ReproError) as exc:
                _emit(
                    {
                        "search": search_id,
                        "event": "worker-lost",
                        "worker": address,
                        "error": str(exc),
                    }
                )
                return
            controls.add(control)
            while True:
                with cv:
                    while not queue and not _finished():
                        cv.wait()
                    if _finished():
                        return
                    spec = queue.popleft()
                    attempts[spec.shard_id] += 1
                shard_job = _shard_job(
                    evaluator, job, plan, spec, search_id,
                    board.best_before(spec.start),
                )
                try:
                    handle = session.submit(
                        shard_job,
                        on_progress=lambda info: _on_progress(control, info),
                    )
                    result = handle.result()
                except (SpecError, MappingError, ValidationError) as exc:
                    # Deterministic: every worker fails identically.
                    with cv:
                        errors.append(exc)
                        cv.notify_all()
                    return
                except (
                    WorkerLostError,
                    ReproError,
                    ConnectionError,
                    TimeoutError,
                    OSError,
                ) as exc:
                    with cv:
                        if attempts[spec.shard_id] >= max_attempts:
                            errors.append(
                                WorkerLostError(
                                    f"shard {spec.shard_id} of search "
                                    f"{search_id} failed "
                                    f"{attempts[spec.shard_id]} times, "
                                    f"last on {address}: {exc}"
                                )
                            )
                        else:
                            queue.appendleft(spec)
                            reassigned[0] += 1
                        cv.notify_all()
                    _emit(
                        {
                            "search": search_id,
                            "event": "worker-lost",
                            "shard": spec.shard_id,
                            "worker": address,
                            "error": str(exc),
                        }
                    )
                    return  # this worker's connections are gone
                with cv:
                    results.setdefault(spec.shard_id, result)
                    cv.notify_all()
                _emit(
                    {
                        "search": search_id,
                        "event": "shard-done",
                        "shard": spec.shard_id,
                        "worker": address,
                        "evaluated": result.evaluated,
                    }
                )
        except Exception as exc:
            # Not a worker loss: end the search with it.
            with cv:
                errors.append(exc)
        finally:
            controls.remove(control)
            for conn in (session, control):
                try:
                    if conn is not None:
                        conn.close()
                except Exception:
                    pass
            with cv:
                live[0] -= 1
                cv.notify_all()

    threads = []
    with cv:
        live[0] = len(addresses)
    for address in addresses:
        thread = threading.Thread(
            target=_run_worker,
            args=(address,),
            name=f"repro-shard-{address}",
            daemon=True,
        )
        threads.append(thread)
        thread.start()
    with cv:
        cv.wait_for(lambda: _finished() or live[0] == 0)
        cv.notify_all()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    if len(results) < len(specs):
        missing = sorted(set(attempts) - set(results))
        raise WorkerLostError(
            f"search {search_id} lost every worker with shards "
            f"{missing} unfinished"
        )
    outcome = merge_shards(job.objective, list(results.values()))
    stats = {
        "search": search_id,
        "mode": plan.mode,
        "total": plan.total,
        "shards": len(specs),
        "workers": len(addresses),
        "reassigned": reassigned[0],
        "evaluated": sum(r.evaluated for r in results.values()),
        "withheld": sum(r.withheld for r in results.values()),
        "rejected": sum(r.rejected for r in results.values()),
    }
    return outcome, stats
