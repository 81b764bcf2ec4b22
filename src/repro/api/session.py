"""The :class:`Session` façade: one owner for evaluation state.

A Session wraps the three-step Sparseloop model behind a single entry
point and owns everything the scattered legacy surface made callers
wire by hand:

* the in-memory :class:`~repro.common.cache.AnalysisCache` (one per
  Session by default; pass a shared instance to pool hits, or ``None``
  to disable caching outright),
* the :class:`~repro.common.cache.PersistentCache` on-disk tier —
  warm-started automatically the first time a job touches a given
  (design, workload) content key, spilled on :meth:`close` (the
  context-manager exit),
* the process-pool fan-out — ``parallel=N`` makes batched submissions
  and searches use the engine's deterministic chunked worker pool
  without callers ever seeing chunking or initializers.

Work is described by :mod:`~repro.api.jobs` job objects, or by specs:
:meth:`Session.submit` accepts an ``EvaluateJob`` / ``SearchJob`` /
``NetworkJob``, a ``(design, workload[, mapping])`` tuple, a dict, a
YAML string, or a YAML file path — all five spell the same evaluation
and return bit-identical results. Submission returns a
:class:`~repro.api.jobs.JobHandle`; handles resolve lazily and in
bulk, so a sweep submitted up front runs as one batch::

    from repro.api import Session

    with Session(parallel=4) as session:
        handles = [session.submit(job) for job in jobs]
        results = [h.result() for h in handles]   # one pooled batch

Results are versioned, serializable data — see
:mod:`repro.model.result` (``schema: 1``).
"""

from __future__ import annotations

import numbers
import threading
import warnings
from collections.abc import Callable, Iterable
from dataclasses import replace
from pathlib import Path

from repro.api.jobs import (
    EvaluateJob,
    FusedJob,
    JobHandle,
    NetworkJob,
    SearchJob,
    SearchShardJob,
    _check_int,
    _is_int,
)
from repro.common.cache import AnalysisCache, PersistentCache
from repro.common.errors import ReproError, SpecError
from repro.io.yaml_spec import load_design
from repro.mapping.mapping import Mapping
from repro.mapping.mapspace import MapspaceConstraints
from repro.model.engine import Design, Evaluator, persistent_state_key
from repro.model.result import (
    EvaluationResult,
    FusedResult,
    NetworkLayerResult,
    NetworkResult,
    SearchResult,
)
from repro.workload.spec import Workload

__all__ = [
    "Session",
    "coerce_job",
    "evaluate_job",
    "evaluate_network",
    "search_job",
]

_UNSET = object()

#: Job objects :meth:`Session.submit` runs as given.
_JOB_TYPES = (EvaluateJob, SearchJob, NetworkJob, SearchShardJob, FusedJob)


def coerce_job(spec, *, search: bool = False):
    """Turn any accepted spec form into a job object — the rules of
    :meth:`Session.submit`, shared with the remote client so local and
    remote submissions spell jobs identically."""
    job = _as_job(spec, search)
    if (
        isinstance(job, (EvaluateJob, SearchJob, SearchShardJob))
        and job.workload is None
    ):
        raise SpecError(
            f"{type(job).__name__} needs a workload (a spec string/"
            "dict/path carries its own; Python-object jobs take it "
            "explicitly)"
        )
    return job


def _as_job(spec, search: bool):
    if isinstance(spec, _JOB_TYPES):
        if search and not isinstance(spec, SearchJob):
            raise SpecError(
                f"search=True cannot convert a {type(spec).__name__}; "
                "submit a SearchJob instead"
            )
        return spec
    if isinstance(spec, JobHandle):
        raise SpecError("a JobHandle is a ticket, not a submittable job")
    if isinstance(spec, tuple):
        if not 2 <= len(spec) <= 3:
            raise SpecError(
                "tuple jobs must be (design, workload[, mapping]), "
                f"got {len(spec)} elements"
            )
        if search:
            if len(spec) == 3:
                raise SpecError(
                    "search jobs take (design, workload); a fixed "
                    "mapping cannot seed a mapspace search"
                )
            return SearchJob(spec[0], spec[1])
        return EvaluateJob(*spec)
    if isinstance(spec, (dict, str, Path)):
        design, workload = load_design(spec)
        if search:
            design.mapping = None
            design.constraints = design.constraints or MapspaceConstraints()
            return SearchJob(design, workload)
        if design.mapping is None and design.constraints is not None:
            return SearchJob(design, workload)
        return EvaluateJob(design, workload)
    raise SpecError(
        f"cannot build a job from {type(spec).__name__}; expected a "
        "job object, a (design, workload[, mapping]) tuple, or a "
        "dict / YAML string / YAML path spec"
    )


def evaluate_job(design, workload=None, mapping=None):
    """The job :meth:`Session.evaluate` runs for its arguments, shared
    with the remote client like :func:`coerce_job`."""
    if workload is not None or isinstance(design, Design):
        return EvaluateJob(design, workload, mapping)
    if mapping is None:
        return coerce_job(design)
    if isinstance(design, (dict, str, Path)):
        # A mapping override on a spec form must not be lost: load the
        # spec and evaluate it under the override.
        spec_design, spec_workload = load_design(design)
        return EvaluateJob(spec_design, spec_workload, mapping)
    raise SpecError(
        "a mapping override needs a Design + workload or a "
        "dict / YAML string / YAML path spec"
    )


def search_job(design, workload=None, **overrides):
    """The job :meth:`Session.search` runs for its arguments, shared
    with the remote client like :func:`coerce_job`.

    ``overrides`` are :class:`SearchJob` fields; ``None`` values keep
    the job's own. A caller's job object is never mutated. The job's
    integer knobs are checked when it runs (:meth:`Session._run_search`).
    """
    if isinstance(design, SearchJob):
        job = design
    elif isinstance(design, _JOB_TYPES):
        raise SpecError(
            f"search() cannot run a {type(design).__name__}; pass a "
            "SearchJob, a Design + workload, or a design spec"
        )
    elif workload is None and not isinstance(design, Design):
        job = coerce_job(design, search=True)
    else:
        job = SearchJob(design, workload)
    overrides = {
        name: value for name, value in overrides.items() if value is not None
    }
    if overrides:
        job = replace(job, **overrides)
    return job


class Session:
    """Owns evaluation state and runs jobs; the primary public API.

    Parameters mirror the engine's knobs:

    ``check_capacity``: reject mappings whose worst-case tiles overflow
    a storage level (the failure is captured on the job's handle).
    ``search_budget`` / ``search_seed``: mapspace sampling parameters
    for constraint-driven designs and :class:`SearchJob`\\ s.
    ``parallel``: default worker-process count for batched submission,
    searches, and network fan-outs (jobs can override; ``1`` = serial).
    ``cache``: the in-memory analysis cache — defaults to a fresh
    :class:`AnalysisCache`; pass a shared instance to pool hits across
    sessions, or ``None`` to disable caching.
    ``persistent``: an optional :class:`PersistentCache` on-disk tier.
    The Session warm-starts from it automatically the first time it
    runs a job with a new (design, workload) content key, and spills
    the in-memory cache back on :meth:`close`.
    ``prefilter_capacity`` / ``sparse_vectorized`` /
    ``dense_vectorized``: engine fast-path flags, passed through
    unchanged (``None`` keeps the engine default for each of the two
    vectorization knobs; each fast path is proven bit-identical to its
    scalar oracle).
    ``prefilter_vectorized``: accepted and ignored; the capacity
    prefilter has one backend (``Evaluator._capacity_overflow``).
    ``workers``: worker pool for sharded searches (``SearchJob.shards
    > 1``, or ``search(..., shards=N)``). An int boots that many local
    ``repro serve --worker`` daemons lazily on first use (sharing this
    Session's persistent store root when one is configured); a list of
    addresses uses already-running daemons; ``None`` (the default)
    runs sharded scans in-process. The merged result is bit-identical
    to the single-host batched scan either way.
    ``worker_timeout``: seconds of total silence (heartbeats included)
    after which a worker is presumed dead and its shard reassigned.

    Sessions are context managers; :meth:`close` runs any still-pending
    jobs, then spills to the persistent tier. A closed Session rejects
    new submissions.
    """

    def __init__(
        self,
        *,
        check_capacity: bool = True,
        search_budget: int = 64,
        search_seed: int = 0,
        parallel: int = 1,
        cache: AnalysisCache | None = _UNSET,
        persistent: PersistentCache | None = None,
        prefilter_capacity: bool = True,
        sparse_vectorized: bool | None = None,
        dense_vectorized: bool | None = None,
        prefilter_vectorized: bool | None = None,
        workers: int | list | tuple | None = None,
        worker_timeout: float = 30.0,
    ):
        _check_int("parallel", parallel, 1)
        _check_int("search_budget", search_budget, 1)
        _check_int("search_seed", search_seed)
        if not (
            workers is None
            or isinstance(workers, (list, tuple))
            or _is_int(workers, 1)
        ):
            raise SpecError(
                "workers must be an integer >= 1 or a list of worker "
                f"addresses, got {workers!r}"
            )
        if (
            isinstance(worker_timeout, bool)
            or not isinstance(worker_timeout, numbers.Real)
            or not worker_timeout > 0
        ):
            raise SpecError(
                "worker_timeout must be a positive number of seconds, "
                f"got {worker_timeout!r}"
            )
        if cache is _UNSET:
            cache = AnalysisCache()
        engine_kwargs = dict(
            check_capacity=check_capacity,
            search_budget=search_budget,
            search_seed=search_seed,
            cache=cache,
            prefilter_capacity=prefilter_capacity,
            persistent=persistent,
        )
        if sparse_vectorized is not None:
            engine_kwargs["sparse_vectorized"] = sparse_vectorized
        if dense_vectorized is not None:
            engine_kwargs["dense_vectorized"] = dense_vectorized
        self._evaluator = Evaluator(**engine_kwargs)
        self.parallel = parallel
        self._workers_spec = workers
        self._worker_timeout = worker_timeout
        self._fleet = None
        self._worker_addresses: list | None = None
        # Reentrant so a drain that resolves handles may re-enter the
        # Session (e.g. a search objective reading another handle), but
        # exclusive across threads: the serving daemon submits and
        # drains from many connection tasks, and handle resolution must
        # never interleave with a concurrent submit/run.
        self._lock = threading.RLock()
        self._pending: list[JobHandle] = []
        self._warmed: set[str] = set()
        self._spill_keys: list[str] = []
        self._closed = False
        #: Total persistent-tier entries loaded by auto warm-starts.
        self.warm_loaded = 0

    # ------------------------------------------------------------------
    # Lifecycle

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Leaving on an exception (including KeyboardInterrupt) must
        # not run the remaining sweep during unwind; pending jobs are
        # cancelled and only completed work is spilled.
        self.close(run_pending=exc_type is None)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, run_pending: bool = True) -> None:
        """Run pending jobs, spill to the persistent tier, and seal the
        Session. Idempotent.

        ``run_pending=False`` cancels still-pending jobs instead of
        running them (their handles resolve with a
        :class:`~repro.common.errors.ReproError`); the context manager
        uses it when the ``with`` block exits on an exception.

        Every content key the session touched gets a snapshot of the
        full in-memory cache (one export, written under each key).
        Snapshots of a multi-design session therefore share entries —
        deliberate: entries are content-addressed, so a warm-start can
        only ever load valid-if-unneeded extras, and any one key
        restores everything the session derived.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                if run_pending:
                    self._drain()
                else:
                    cancelled = ReproError(
                        "job cancelled: Session closed before it ran"
                    )
                    for handle in self._pending:
                        handle._resolve(exception=cancelled)
                    self._pending = []
            finally:
                try:
                    self._evaluator.spill_cache_all(self._spill_keys)
                finally:
                    if self._fleet is not None:
                        self._fleet.close()
                        self._fleet = None
                        self._worker_addresses = None

    # ------------------------------------------------------------------
    # Submission

    def submit(self, spec, *, search: bool = False) -> JobHandle:
        """Queue one job and return its :class:`JobHandle`.

        ``spec`` may be a job object (:class:`EvaluateJob`,
        :class:`SearchJob`, :class:`NetworkJob`), a ``(design,
        workload[, mapping])`` tuple of Python objects, or a design
        spec as a dict, YAML string, or YAML file path (see
        :mod:`repro.io.yaml_spec` for the schema). Spec-described
        designs with a ``mapping`` section become evaluate jobs; pass
        ``search=True`` (or provide a ``constraints`` section and no
        mapping) to search the mapspace instead.

        All equivalent forms of the same design produce bit-identical
        results. Jobs run lazily, in bulk, on the first
        ``handle.result()`` call (or at :meth:`close`).
        """
        job = coerce_job(spec, search=search)
        with self._lock:
            if self._closed:
                raise SpecError("cannot submit to a closed Session")
            handle = JobHandle(self, job)
            self._pending.append(handle)
        return handle

    def submit_many(self, specs: Iterable, *, search: bool = False) -> list[JobHandle]:
        """Queue a batch of jobs; the whole batch resolves in one
        (optionally process-pooled) pass."""
        return [self.submit(spec, search=search) for spec in specs]

    # ------------------------------------------------------------------
    # Direct (submit + resolve) conveniences

    def evaluate(
        self,
        design,
        workload: Workload | None = None,
        mapping: Mapping | None = None,
    ) -> EvaluationResult:
        """Evaluate one point and return its result.

        ``design`` may be a :class:`Design` (with ``workload``), or any
        spec form :meth:`submit` accepts. A constraints-only spec is
        searched; the winning evaluation is returned (or
        :class:`MappingError` raised when nothing valid was found).
        """
        result = self.submit(evaluate_job(design, workload, mapping)).result()
        if isinstance(result, SearchResult):
            return result.best_or_raise()
        return result

    def search(
        self,
        design,
        workload: Workload | None = None,
        objective=None,
        candidates: list[Mapping] | None = None,
        parallel: int | None = None,
        batch_size: int | None = None,
        strategy: str | None = None,
        budget: int | None = None,
        seed: int | None = None,
        shards: int | None = None,
        on_progress: Callable[[dict], None] | None = None,
    ) -> SearchResult:
        """Search the mapspace and return a :class:`SearchResult`.

        ``design`` may be a :class:`SearchJob`, a :class:`Design` (with
        ``workload``), or any spec form :meth:`submit` accepts (a
        spec's mapping section, if any, is ignored in favour of the
        search). ``objective``/``candidates``/``parallel``/
        ``batch_size``/``strategy`` override the corresponding job
        fields when given (see :class:`SearchJob` for the
        ``strategy``/``batch_size`` block-scan knobs; ``"batched"``
        and ``"serial"`` return bit-identical winners, and
        ``"evolutionary"`` breeds candidates from the mapspace).
        ``budget``/``seed`` override the Session's sampling knobs for
        this search; ``shards=N`` splits the scan into N contiguous
        shards over the Session's ``workers`` (in-process when none
        are configured) with a bit-identical merged result;
        ``on_progress`` observes incremental best-so-far state.

        ``objective`` accepts a metric name (``"edp"``, ``"energy"``,
        ``"latency"``, ``"cycles"``, ``"slack"``), a sequence of names
        (vector objective — the result's ``frontier`` spans those
        axes), a weighted/multi spec dict, an
        :class:`repro.search.Objective`, or a legacy callable; see
        ``docs/search.md``.
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
            progress=on_progress,
        )
        return self.submit(job).result()

    def evaluate_network(
        self,
        design: Design,
        layers,
        densities_for: Callable[[object], dict[str, float]],
        parallel: int | None = None,
    ) -> NetworkResult:
        """Evaluate a full network and return a :class:`NetworkResult`."""
        handle = self.submit(
            NetworkJob(design, list(layers), densities_for, parallel)
        )
        return handle.result()

    def evaluate_fused(
        self,
        design: Design,
        graph,
        densities: dict[str, float] | None = None,
        fused=None,
        parallel: int | None = None,
    ) -> FusedResult:
        """Evaluate an einsum graph under a fused mapping.

        ``fused`` is a :class:`~repro.mapping.fused.FusedMapping` (or
        ``None`` for the degenerate no-fusion evaluation, which is
        bit-identical per einsum to :meth:`evaluate_network` over the
        graph's einsums). Returns a :class:`FusedResult` with
        per-einsum breakdowns and shared-tensor traffic attribution.
        """
        handle = self.submit(FusedJob(design, graph, densities, fused, parallel))
        return handle.result()

    # ------------------------------------------------------------------
    # Execution

    def run(self, *, timeout: float | None = None) -> bool:
        """Run every pending job now (handles become ``done()``).

        Called implicitly by the first ``result()`` / ``exception()``
        read on a pending handle and by :meth:`close`; calling it
        directly is only needed to front-load the work.

        Thread-safe: concurrent callers serialize on the Session lock,
        and each sees every handle that was pending when it acquired
        the lock resolved. ``timeout`` bounds the wait *for the lock*
        (a drain already underway resolves this caller's handles too);
        returns ``False`` if the lock could not be acquired in time,
        ``True`` otherwise.
        """
        if timeout is None:
            with self._lock:
                self._drain()
            return True
        if not self._lock.acquire(timeout=timeout):
            return False
        try:
            self._drain()
        finally:
            self._lock.release()
        return True

    def _drain(self) -> None:
        while self._pending:
            batch = self._pending
            self._pending = []
            try:
                self._run_batch(batch)
            except BaseException as exc:
                # An unexpected (non-ReproError) failure aborts the
                # batch; resolve every orphaned handle with it so later
                # result()/exception() reads surface the error instead
                # of silently returning None.
                for handle in batch:
                    if not handle.done():
                        handle._resolve(exception=exc)
                raise

    def _run_batch(self, handles: list[JobHandle]) -> None:
        evaluate_handles = [
            h for h in handles if isinstance(h.job, EvaluateJob)
        ]
        for handle in handles:
            self._warm_for(handle.job)
        self._run_evaluates(evaluate_handles)
        for handle in handles:
            if isinstance(handle.job, SearchShardJob):
                self._run_shard(handle)
            elif isinstance(handle.job, SearchJob):
                self._run_search(handle)
            elif isinstance(handle.job, NetworkJob):
                self._run_network(handle)
            elif isinstance(handle.job, FusedJob):
                self._run_fused(handle)

    def _run_evaluates(self, handles: list[JobHandle]) -> None:
        if not handles:
            return
        if len(handles) == 1:
            handle = handles[0]
            try:
                result = self._evaluator._evaluate(*handle.job.engine_args())
            except ReproError as exc:
                handle._resolve(exception=exc)
            else:
                handle._resolve(result=result)
            return
        # Multi-job batches run through the stacked pass (in-process, or
        # in each range of a process pool): the whole batch's misses
        # resolve in a few numpy calls, bit-identical to the serial
        # loop, with each job's ReproError captured on its handle. This
        # is what makes the serving daemon's cross-client
        # micro-batching pay off.
        jobs = [h.job.engine_args() for h in handles]
        outcomes = None
        if self.parallel > 1:
            try:
                outcomes = self._evaluator._evaluate_many(
                    jobs, parallel=self.parallel
                )
            except Exception as exc:
                # Infra failures (pickling, broken pool) fall back
                # in-process — but say so, since they'd otherwise cost
                # the whole fan-out invisibly.
                warnings.warn(
                    f"parallel batch of {len(jobs)} jobs failed "
                    f"({type(exc).__name__}: {exc}); re-running in-process",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if outcomes is None:
            outcomes = self._evaluator._evaluate_batch(jobs)
        for handle, (result, exc) in zip(handles, outcomes):
            if exc is not None:
                handle._resolve(exception=exc)
            else:
                handle._resolve(result=result)

    def _effective_evaluator(self, job: SearchJob) -> Evaluator:
        """The engine this search runs under: the Session's evaluator
        with the job's budget/seed overrides folded in (a shallow
        dataclass copy sharing the caches)."""
        overrides = {}
        if job.budget is not None:
            overrides["search_budget"] = job.budget
        if job.seed is not None:
            overrides["search_seed"] = job.seed
        if not overrides:
            return self._evaluator
        return replace(self._evaluator, **overrides)

    def _resolve_workers(self) -> list | None:
        """Worker addresses for sharded searches, booting the lazy
        local fleet on first use; ``None`` means run shards
        in-process."""
        if self._workers_spec is None:
            return None
        if self._worker_addresses is None:
            if isinstance(self._workers_spec, int):
                from repro.distributed.fleet import LocalWorkerFleet

                persistent = self._evaluator.persistent
                self._fleet = LocalWorkerFleet(
                    self._workers_spec,
                    cache_dir=getattr(persistent, "root", None),
                    cold=persistent is None,
                    check_capacity=self._evaluator.check_capacity,
                )
                self._worker_addresses = list(self._fleet.addresses)
            else:
                self._worker_addresses = list(self._workers_spec)
        return self._worker_addresses

    def _run_sharded(self, job: SearchJob, evaluator: Evaluator):
        from repro.distributed.coordinator import (
            run_shards_local,
            sharded_search,
        )

        addresses = self._resolve_workers()
        if addresses is None:
            outcome, _stats = run_shards_local(
                evaluator, job, job.shards, progress=job.progress
            )
        else:
            outcome, _stats = sharded_search(
                evaluator,
                job,
                addresses,
                shards=job.shards,
                progress=job.progress,
                worker_timeout=self._worker_timeout,
            )
        return outcome

    def _run_search(self, handle: JobHandle) -> None:
        job: SearchJob = handle.job
        try:
            # The one check of a search's integer knobs, from any caller.
            for name in ("parallel", "batch_size", "budget", "shards", "seed"):
                value = getattr(job, name)
                if value is not None:
                    _check_int(name, value, None if name == "seed" else 1)
            evaluator = self._effective_evaluator(job)
            if (job.shards or 0) > 1:
                outcome = self._run_sharded(job, evaluator)
            else:
                outcome = evaluator._search_full(
                    job.design,
                    job.workload,
                    objective=job.objective,
                    candidates=job.candidates,
                    parallel=job.parallel or self.parallel,
                    batch_size=job.batch_size,
                    strategy=job.strategy,
                    progress=job.progress,
                )
        except ReproError as exc:
            handle._resolve(exception=exc)
            return
        # Explicit candidates bypass mapspace sampling entirely; the
        # result then records no budget/seed rather than misstating
        # parameters that never influenced the search.
        sampled = job.candidates is None
        handle._resolve(
            result=SearchResult(
                design_name=job.design.name,
                workload_name=job.workload.name or job.workload.einsum.name,
                budget=evaluator.search_budget if sampled else None,
                seed=evaluator.search_seed if sampled else None,
                best=outcome.best_result,
                objective=outcome.objective.to_spec(),
                strategy=outcome.strategy,
                best_score=outcome.best_score,
                best_index=outcome.best_index,
                frontier=outcome.frontier,
            )
        )

    def _run_shard(self, handle: JobHandle) -> None:
        """Run one :class:`SearchShardJob` through the worker-side
        scan. The gating knobs that decide which candidates survive —
        capacity checking and the capacity prefilter — come from the
        *job*, not this Session: every worker must gate exactly as the
        coordinator planned, or the merged frontier would not be
        bit-identical to the single-host scan."""
        from repro.distributed.worker import run_shard

        job: SearchShardJob = handle.job
        evaluator = self._evaluator
        if (
            evaluator.check_capacity != job.check_capacity
            or evaluator.prefilter_capacity != job.prefilter
        ):
            evaluator = replace(
                evaluator,
                check_capacity=job.check_capacity,
                prefilter_capacity=job.prefilter,
            )
        try:
            result = run_shard(
                evaluator, job, board=job.board, progress=job.progress
            )
        except ReproError as exc:
            handle._resolve(exception=exc)
            return
        handle._resolve(result=result)

    def _run_fused(self, handle: JobHandle) -> None:
        job: FusedJob = handle.job
        try:
            result = self._evaluator._evaluate_fused(
                job.design,
                job.graph,
                densities=job.densities,
                fused=job.fused,
                parallel=job.parallel or self.parallel,
            )
        except ReproError as exc:
            handle._resolve(exception=exc)
            return
        handle._resolve(result=result)

    def _run_network(self, handle: JobHandle) -> None:
        job: NetworkJob = handle.job
        if job.densities_for is None:
            handle._resolve(
                exception=SpecError("NetworkJob needs a densities_for callable")
            )
            return
        try:
            pairs = self._evaluator._evaluate_network(
                job.design,
                job.layers,
                job.densities_for,
                parallel=job.parallel or self.parallel,
            )
        except ReproError as exc:
            handle._resolve(exception=exc)
            return
        handle._resolve(
            result=NetworkResult(
                design_name=job.design.name,
                layers=[
                    NetworkLayerResult(
                        layer_name=layer.name,
                        repeat=getattr(layer, "repeat", 1),
                        result=result,
                    )
                    for layer, result in pairs
                ],
            )
        )

    # ------------------------------------------------------------------
    # Persistent tier (auto warm-start / spill bookkeeping)

    def _warm_for(self, job) -> None:
        """First-use warm-start: load the persistent snapshot for this
        job's content key, once per distinct key per Session.

        Network and fused jobs are skipped — the engine's network path
        (which the fused path runs through) brackets its own fan-out
        with warm-start/spill under the network's key.
        """
        if (
            self._evaluator.persistent is None
            or self._evaluator.cache is None
            or isinstance(job, (NetworkJob, FusedJob))
        ):
            return
        key = persistent_state_key(job.design, [job.workload])
        if key is None or key in self._warmed:
            return
        self._warmed.add(key)
        self._spill_keys.append(key)
        self.warm_loaded += self._evaluator.warm_start(key)

    # ------------------------------------------------------------------
    # Introspection

    @property
    def evaluator(self) -> Evaluator:
        """The underlying engine (read-mostly; prefer the Session API)."""
        return self._evaluator

    @property
    def cache(self) -> AnalysisCache | None:
        return self._evaluator.cache

    #: Stages always present in :meth:`cache_stats` output, with zero
    #: counters when untouched: the cold-search hot path reads the
    #: ``"dense"`` (memoised dataflow analyses) and ``"candidates"``
    #: (replayed sampled streams) stages, the fused path memoises
    #: whole cascade results under ``"fused"``, and density sweeps of a
    #: recurring mapping evaluate cached sparse plans (``"plan"``), so
    #: their hit/miss counters are reportable even before the first
    #: job runs.
    _REPORTED_STAGES = ("dense", "candidates", "fused", "plan")

    def cache_stats(
        self, since: dict[str, dict[str, float]] | None = None
    ) -> dict[str, dict[str, float]]:
        """Per-stage hit/miss statistics of the in-memory cache
        (empty when caching is disabled).

        The ``"dense"``, ``"candidates"``, ``"fused"`` and ``"plan"``
        stages are always reported — with zeroed counters when nothing
        touched them — so callers monitoring cold-search behaviour see
        a stable schema.

        ``since`` takes a dict previously returned by this method and
        turns the result into a *delta*: per-stage hits/misses are the
        counts accrued since that checkpoint (with ``hit_rate``
        recomputed over the delta), while ``entries`` stays the current
        cache size. Stages absent from the checkpoint are reported in
        full. This is how the serving daemon attributes cache hits to
        individual clients without global counters::

            before = session.cache_stats()
            ...run this client's jobs...
            attributed = session.cache_stats(since=before)
        """
        if self._evaluator.cache is None:
            return {}
        stats = self._evaluator.cache.stats()
        for name in self._REPORTED_STAGES:
            stats.setdefault(
                name,
                {"hits": 0, "misses": 0, "hit_rate": 0.0, "entries": 0},
            )
        if since is None:
            return stats
        delta: dict[str, dict[str, float]] = {}
        for name, counters in stats.items():
            base = since.get(name, {})
            hits = counters["hits"] - base.get("hits", 0)
            misses = counters["misses"] - base.get("misses", 0)
            total = hits + misses
            delta[name] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / total if total else 0.0,
                "entries": counters["entries"],
            }
        return delta

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{len(self._pending)} pending"
        return f"Session(parallel={self.parallel}, {state})"


def evaluate_network(
    design: Design,
    layers,
    densities_for: Callable[[object], dict[str, float]],
    *,
    parallel: int | None = None,
    session: Session | None = None,
    **session_kwargs,
) -> NetworkResult:
    """Evaluate a full network through a Session in one call.

    Uses ``session`` when given (leaving it open; ``parallel=None``
    defers to its configured worker count); otherwise opens a
    throwaway Session built from ``session_kwargs`` (e.g.
    ``check_capacity=False``, ``persistent=PersistentCache()``) and
    closes it — spilling any configured persistent tier — afterwards.
    """
    if session is not None:
        return session.evaluate_network(
            design, layers, densities_for, parallel=parallel
        )
    with Session(parallel=parallel or 1, **session_kwargs) as owned:
        return owned.evaluate_network(design, layers, densities_for)
