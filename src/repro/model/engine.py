"""The Sparseloop evaluation engine (Fig. 5).

:class:`Evaluator` runs the three decoupled modeling steps:

1. dataflow modeling (dense traffic from the mapping),
2. sparse modeling (SAF filtering with statistical density models),
3. micro-architectural modeling (validity, cycles, energy).

A :class:`Design` bundles the architecture, the SAF specification, and
how mappings are obtained (fixed, per-workload factory, or a mapspace
search through :class:`~repro.mapping.mapspace.Mapper`).

The public API is :class:`repro.api.Session` (or the remote
:class:`~repro.serve.client.RemoteSession`); both reach the engine
through its ``_``-prefixed methods (``_evaluate``, ``_search_full``,
``_evaluate_network``, ``_evaluate_fused``, ``_evaluate_batch``).

Fast-path machinery
-------------------

The engine is built for design-space-exploration traffic, where the
same dense analysis and the same candidate mappings are evaluated over
and over with different SAF configurations:

* unified analysis cache — every :class:`Evaluator` owns an
  :class:`~repro.common.cache.AnalysisCache` whose named stages memoise
  whole pipeline steps by content key: the ``"dense"`` stage reuses
  dataflow analyses across SAF/density variants of a mapping (keys
  exclude densities; hits rebind the caller's workload), and the
  ``"sparse"`` stage reuses one flat evaluation record
  (:class:`~repro.micro.record.EvaluationRecord`) per (mapping, SAF,
  density) point — e.g. SAF sweeps that revisit density levels, or
  network layers sharing shapes. The micro tail (validity, latency,
  energy) is a pure function of the sparse analysis, so it is computed
  once with it (:func:`_sparse_record`) and a warm evaluation makes two
  lookups; results build their objects from the record on demand. The
  bundled mapping factories are registered :func:`einsum_only`, so a
  warm evaluation of their designs takes its mapping and dense key
  from a memo instead of calling the factory. A sparse miss whose dense
  analysis came from the dense stage (its mapping recurs) evaluates a
  density-free :class:`~repro.sparse.postprocess.SparsePlan` from the
  ``"plan"`` stage instead of re-walking every flow. Pass
  ``cache=None`` to disable, or share one instance across evaluators
  to pool hits. Cached results are read-only by convention.
* persistent tier — pass ``persistent=PersistentCache(...)`` (and call
  :meth:`Evaluator.warm_start` / :meth:`Evaluator.spill_cache`, or let
  :meth:`Evaluator._evaluate_network` do both around its fan-out) to
  spill cache snapshots to a versioned on-disk store so repeated CLI
  runs, sweeps, and CI jobs start warm. Snapshot identity comes from
  :func:`persistent_state_key`; worker initializers reopen the same
  store so even first-touch parallel runs warm from disk.
* capacity pre-filter — ``_search_full`` rejects candidates whose
  *lower-bound* tile footprint already overflows a storage level
  before running the full dense→sparse→micro pipeline. The bound is
  strictly optimistic (payload-only, statistical occupancy), so no
  mapping the full validity check would accept is ever dropped. When
  the overflow also holds under a *monotone* bound, the reason is fed
  back to the :class:`~repro.mapping.mapspace.Mapper`
  (``register_overflow``) so whole factorization subtrees dominated by
  the failing tile shape are pruned instead of being rejected one by
  one.
* batch/parallel APIs — :meth:`Evaluator._evaluate_many` runs jobs
  through the batched path, in-process or in each range of a process
  pool split deterministically
  (:func:`repro.distributed.plan_shards`), and a batched search with
  ``parallel=N`` becomes ``N`` shards of its candidate stream, each
  scanned in a pool worker by the one blocked scan
  (:meth:`Evaluator._scan`) with a fresh mapper replaying the shard's
  prefix — the distributed shard protocol run locally. Results
  (including search tie-breaking) are identical to the serial order.
  Worker processes start *warm*: the parent ships its hottest cache
  entries (dense, sparse, and the process-global tile-format stage)
  through the pool initializer. Parallel mode requires picklable
  designs/workloads/objectives (module-level functions, not lambdas).
* one batched path — :meth:`Evaluator._evaluate_batch` runs a list of
  jobs stage by stage: one stacked dense pass, then one stacked sparse
  flush per walk context (each miss with its micro tail), with per-job
  results, errors, and cache statistics identical to the serial loop. The
  serving daemon's micro-batches, network layers, pool ranges and every
  mapspace-search block (:meth:`Evaluator._evaluate_block`) go through
  it; single evaluations take the per-call path
  (:meth:`Evaluator._evaluate`).
"""

from __future__ import annotations

import os
import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path

from repro.accelergy.backend import Accelergy
from repro.arch.spec import Architecture
from repro.common.cache import (
    DEFAULT_EXPORT_LIMIT,
    MAPPING_MEMO_SIZE,
    AnalysisCache,
    PersistentCache,
    StageCache,
    digest,
    global_cache,
    spec_digest,
)
from repro.common.errors import (
    MappingError,
    ReproError,
    SpecError,
    ValidationError,
)
from repro.dataflow.nest_analysis import (
    DENSE_VECTORIZED_DEFAULT,
    DenseTraffic,
    analyze_dataflow,
    analyze_dataflow_batch,
    dense_analysis_key,
)
from repro.mapping.mapping import Mapping
from repro.mapping.mapspace import (
    CANDIDATES_STAGE,
    Mapper,
    MapspaceConstraints,
    sampled_candidates_key,
)
from repro.micro.energy import compute_energy
from repro.micro.latency import compute_latency
from repro.micro.record import EvaluationRecord, open_record
from repro.micro.validity import check_validity, level_usage, overflow_error
from repro.model.result import EvaluationResult
from repro.search.evolutionary import (
    genome_key,
    genome_of,
    make_offspring,
    parent_count,
    population_size,
)
from repro.search.frontier import ParetoFrontier
from repro.search.objective import Objective, resolve_objective
from repro.sparse.format_analyzer import TILE_FORMAT_STAGE
from repro.sparse.postprocess import (
    PLAN_STAGE,
    VECTORIZED_DEFAULT,
    SparsePlan,
    analyze_sparse,
    analyze_sparse_batch,
    density_digests,
    ensure_output_density,
    sparse_analysis_key,
    sparse_plan_key,
)
from repro.sparse.saf import SAFSpec
from repro.workload.spec import Workload

__all__ = [
    "Design",
    "Evaluator",
    "OverflowReason",
    "PersistentCache",
    "SearchOutcome",
    "persistent_state_key",
]

MappingFactory = Callable[[Workload, Architecture], Mapping]

#: Cache stage memoising whole :class:`~repro.model.result.FusedResult`
#: objects by graph + design + resolved sub-nest + density content.
FUSED_STAGE = "fused"

#: Candidates a search scan draws, prefilters and evaluates per block
#: unless the job sets ``batch_size``.
SEARCH_BATCH_SIZE = 32


@dataclass
class Design:
    """A complete accelerator design point.

    Exactly one of ``mapping``, ``mapping_factory``, or ``constraints``
    decides how each workload is scheduled:

    * ``mapping`` — a fixed mapping (single-workload studies),
    * ``mapping_factory`` — callable producing a mapping per workload
      (the native dataflow of a design, e.g. SCNN's
      PlanarTiled-InputStationary),
    * ``constraints`` — a mapspace to search with the built-in mapper.
    """

    name: str
    arch: Architecture
    safs: SAFSpec = field(default_factory=SAFSpec)
    mapping: Mapping | None = None
    mapping_factory: MappingFactory | None = None
    constraints: MapspaceConstraints | None = None

    def mapping_for(self, workload: Workload) -> Mapping | None:
        if self.mapping is not None:
            return self.mapping
        if self.mapping_factory is not None:
            return self.mapping_factory(workload, self.arch)
        return None


@dataclass(frozen=True)
class OverflowReason:
    """Why the capacity pre-filter rejected a candidate mapping.

    ``dim_extents`` are the candidate's per-dimension tile extents at
    the overflowing ``level``. ``monotone`` is True when the overflow
    also holds under a monotone occupancy bound; the extents are then
    a sound witness for :meth:`~repro.mapping.mapspace.Mapper.
    register_overflow` subtree pruning.
    """

    level: str
    dim_extents: dict[str, int]
    used_words: float
    capacity_words: float
    monotone: bool = False


@dataclass
class SearchOutcome:
    """Everything a mapspace search produced.

    ``best`` is the ``(score, index, result)`` winner — the minimum
    ``(score, index)`` member of the frontier, which for a scalar
    objective is provably the serial oracle's first-strictly-better
    winner and for vector objectives guarantees the winner lies on
    the frontier. ``objective`` is the resolved
    :class:`~repro.search.objective.Objective` the scores and frontier
    axes came from.
    """

    objective: Objective
    strategy: str
    frontier: ParetoFrontier
    best: tuple[float, int, EvaluationResult] | None

    @property
    def best_result(self) -> EvaluationResult | None:
        return self.best[2] if self.best is not None else None

    @property
    def best_score(self) -> float | None:
        return self.best[0] if self.best is not None else None

    @property
    def best_index(self) -> int | None:
        return self.best[1] if self.best is not None else None


@dataclass
class ScanState:
    """Where a blocked mapspace scan (:meth:`Evaluator._scan`) stands.

    ``position`` counts raw stream draws consumed, withheld and
    prefilter-rejected ones included; ``index`` is the stream index of
    the last candidate not withheld (``-1`` before any). Together with
    the mapper's witness set they are the fold state a shard replays.
    ``best`` is the ``(score, index, result)`` winner so far, always a
    point of ``frontier``.
    """

    frontier: ParetoFrontier
    position: int = 0
    index: int = -1
    evaluated: int = 0
    withheld: int = 0
    rejected: int = 0
    best: tuple[float, int, EvaluationResult] | None = None

    def summary(self) -> dict:
        """The progress-frame fields every scan reports."""
        best = self.best
        return {
            "evaluated": self.evaluated,
            "best_score": None if best is None else best[0],
            "best_index": None if best is None else best[1],
            "frontier_size": len(self.frontier),
        }


def exhaustive_mapspace(mapper: Mapper, budget: int) -> bool:
    """The search planning rule: a mapspace whose size estimate is
    within ``4 * budget`` is enumerated outright; larger ones are
    sampled."""
    return mapper.mapspace_size_estimate() <= budget * 4


#: Per-architecture Accelergy backends. The backend is immutable after
#: construction (per-action energy tables only), so one instance serves
#: every evaluation of an architecture in the process; bounded by a
#: clear-on-overflow so sweeps over many architectures cannot leak.
_ACCELERGY_MEMO: dict[bytes, Accelergy] = {}


def _accelergy_for(arch: Architecture) -> Accelergy:
    key = spec_digest(arch)
    backend = _ACCELERGY_MEMO.get(key)
    if backend is None:
        if len(_ACCELERGY_MEMO) >= 64:
            _ACCELERGY_MEMO.clear()
        backend = _ACCELERGY_MEMO[key] = Accelergy(arch)
    return backend


def _sparse_record(dense: DenseTraffic, actions: tuple) -> EvaluationRecord:
    """The ``"sparse"`` stage's value: the sparse step's record action
    part (``analyze_sparse(..., packed=True)``) completed by the
    micro-architectural tail.

    The micro-architectural step (Sec 5.4) turns the sparse action
    counts into validity, cycles and energy on the architecture the
    dense analysis carries, so the record is a pure function of the
    sparse content key. ``check_validity``, ``compute_latency`` and
    ``compute_energy`` write their parts into the open record's buffer;
    the first overflowing level is recorded rather than raised, so one
    record serves capacity-checking and permissive evaluators alike
    (:meth:`Evaluator._finish_evaluation` raises).
    """
    arch = dense.arch
    record = open_record(arch, actions)
    check_validity(arch, record, raise_on_invalid=False)
    compute_latency(arch, dense, record)
    compute_energy(arch, record, _accelergy_for(arch))
    return record.seal()


#: Bundled mapping factories that read only a workload's einsum (never
#: its densities or name), by name: the allow-list of factories whose
#: mapping and dense key the engine memoises per (factory, einsum,
#: architecture) (:meth:`Evaluator._resolve_mapping`).
_EINSUM_ONLY: dict[str, MappingFactory] = {}


def einsum_only(name: str):
    """Register a mapping factory as einsum-only under ``name``.

    Only for factories whose mapping is a function of the workload's
    einsum and the architecture alone. Not public API: user factories
    keep being called per evaluation.
    """

    def register(factory: MappingFactory) -> MappingFactory:
        _EINSUM_ONLY[name] = factory
        factory._einsum_only = name
        return factory

    return register


@dataclass
class Evaluator:
    """Runs the three-step Sparseloop model.

    Knobs:

    ``check_capacity``: raise when worst-case tiles overflow a level.
    ``search_budget``: mappings sampled when a design only provides
    mapspace constraints.
    ``search_seed``: RNG seed for mapspace sampling.
    ``cache``: the :class:`~repro.common.cache.AnalysisCache` memoising
    pipeline stages across evaluations (``None`` disables caching; a
    shared instance pools hits across evaluators). Each evaluator gets
    its own cache by default. Inspect a stage through the cache itself
    (``evaluator.cache.dense``, ``evaluator.cache.sparse``, or
    ``evaluator.cache.stats()``).
    ``prefilter_capacity``: in :meth:`_search_full`, cheaply reject
    candidates whose optimistic tile footprint already overflows a
    finite storage level, skipping the full pipeline — and feed the
    overflow reason back to the mapper to prune dominated factorization
    subtrees. Never changes the search result (the bound is a strict
    lower bound of the validity check's occupancy); only applies when
    ``check_capacity`` is True.
    ``sparse_vectorized``: run the sparse post-processing stage with
    batched numpy arithmetic (the default, unless the
    ``REPRO_SCALAR_SPARSE`` environment variable forced the scalar
    oracle process-wide) or the scalar oracle path; both are
    bit-identical (see :mod:`repro.sparse.postprocess`). Vectorized, a
    sparse miss whose dense analysis came from the ``"dense"`` stage
    evaluates the mapping's cached
    :class:`~repro.sparse.postprocess.SparsePlan` (``"plan"`` stage)
    instead of walking; a first-seen mapping still walks. The scalar
    oracle never builds a plan.
    ``dense_vectorized``: run the dense nest analysis of each batch
    (search block or submitted batch) through the stacked backend
    (:func:`~repro.dataflow.nest_analysis.analyze_dataflow_batch`)
    instead of one scalar walk per job, and share the sparse-walk memo
    (leader keeps, format scalings) across jobs with the same walk
    context — for a search, across all of its blocks. Default follows
    ``REPRO_SCALAR_DENSE``; both backends are bit-identical.
    ``persistent``: an optional
    :class:`~repro.common.cache.PersistentCache` on-disk tier.
    :meth:`warm_start` loads a snapshot into the in-memory cache and
    :meth:`spill_cache` writes one back; :meth:`_evaluate_network` does
    both automatically, and parallel fan-outs hand the store to worker
    initializers so workers can warm from disk.
    ``persistent_key``: the snapshot identity used when
    :meth:`warm_start`/:meth:`spill_cache` are called without an
    explicit key (set automatically by the first keyed call).

    Search strategies (:meth:`_search_full`'s ``strategy``):
    ``"batched"`` (the default) scans the candidate stream in blocks of
    ``batch_size`` candidates (:data:`SEARCH_BATCH_SIZE` unless the job
    sets it), each block's survivors as one :meth:`_evaluate_batch`
    (:meth:`_scan`); ``"serial"`` is its per-candidate oracle, with a
    bit-identical winner, index and frontier; ``"evolutionary"`` breeds
    candidates in factorization space (:meth:`_search_evolutionary`).
    See ``docs/search.md``.

    Batch evaluation: :meth:`_evaluate_many` evaluates a list of jobs,
    and it, :meth:`_search_full` (batched strategy), and
    :meth:`_evaluate_network` accept ``parallel=N`` to fan out over
    ``N`` worker processes in deterministic contiguous ranges (results
    identical to serial). Workers are pre-warmed with the parent's
    cache entries.
    """

    check_capacity: bool = True
    search_budget: int = 64
    search_seed: int = 0
    cache: AnalysisCache | None = field(
        default_factory=AnalysisCache, repr=False
    )
    prefilter_capacity: bool = True
    sparse_vectorized: bool = field(
        default_factory=lambda: VECTORIZED_DEFAULT
    )
    dense_vectorized: bool = field(
        default_factory=lambda: DENSE_VECTORIZED_DEFAULT
    )
    persistent: PersistentCache | None = field(default=None, repr=False)
    persistent_key: str | None = field(default=None, repr=False)

    def _evaluate(
        self,
        design: Design,
        workload: Workload,
        mapping: Mapping | None = None,
    ) -> EvaluationResult:
        """Evaluate one design on one workload.

        ``mapping`` overrides the design's own mapping policy. If the
        design carries only mapspace constraints, the mapper searches
        for the lowest-EDP valid mapping.
        """
        mapping, dense_key = self._resolve_mapping(design, workload, mapping)
        if mapping is None:
            if design.constraints is None:
                raise SpecError(
                    f"design {design.name!r} has no mapping, factory, or "
                    "constraints"
                )
            result = self._search_full(design, workload).best_result
            if result is None:
                raise MappingError(
                    f"no valid mapping found for {design.name!r} on "
                    f"{workload.name!r} within budget {self.search_budget}"
                )
            return result
        return self._evaluate_mapping(design, workload, mapping, dense_key)

    def _resolve_mapping(
        self,
        design: Design,
        workload: Workload,
        mapping: Mapping | None = None,
    ) -> tuple[Mapping | None, bytes | None]:
        """The mapping ``workload`` runs under (``mapping`` overrides
        the design's policy; ``None`` when the design only has
        constraints) and its dense key when already known.

        A factory registered with :func:`einsum_only` is called once
        per (factory, einsum, architecture) per cache: its mapping and
        dense key are memoised in ``cache.mappings``, so a repeated
        evaluation neither builds a :class:`Mapping` nor digests one.
        Without a cache, and for any other factory, the factory runs
        per call, as :meth:`Design.mapping_for` does.
        """
        if mapping is not None:
            return mapping, None
        factory = design.mapping_factory
        if (
            design.mapping is not None
            or factory is None
            or self.cache is None
            or _EINSUM_ONLY.get(getattr(factory, "_einsum_only", None))
            is not factory
        ):
            return design.mapping_for(workload), None
        memo = self.cache.mappings
        key = (factory, spec_digest(workload.einsum), spec_digest(design.arch))
        known = memo.get(key)
        if known is None:
            mapping = factory(workload, design.arch)
            known = (mapping, dense_analysis_key(workload, design.arch, mapping))
            if len(memo) >= MAPPING_MEMO_SIZE:
                memo.clear()
            memo[key] = known
        return known

    def _dense_analysis_keyed(
        self,
        design: Design,
        workload: Workload,
        mapping: Mapping,
        key: bytes | None = None,
    ) -> tuple[DenseTraffic, bytes | None, bool]:
        """Dense analysis through the ``"dense"`` cache stage, returning
        ``(dense, key, reused)``; ``reused`` says the analysis came from
        the stage, which is what sends a sparse miss down the plan path.

        The key is :func:`~repro.dataflow.nest_analysis.
        dense_analysis_key` — the digest of (einsum, architecture,
        mapping) content, deliberately without densities, so one
        analysis serves every SAF/density variant of a mapping. It comes
        back so the sparse key can digest it instead of rebuilding it.
        Entries are stored with the workload stripped: keeping the
        first-seen workload would pin its density models (potentially
        whole ``ActualDataDensity`` tensors) far beyond their lifetime.
        Hits rebind the caller's workload. A ``key`` the caller already
        holds (:meth:`_resolve_mapping`) is used as given.
        """
        if self.cache is None:
            dense = analyze_dataflow(workload, design.arch, mapping)
            return dense, None, False
        stage = self.cache.dense
        if key is None:
            key = dense_analysis_key(workload, design.arch, mapping)
        cached = stage.get(key)
        if cached is not None:
            return replace(cached, workload=workload), key, True
        dense = analyze_dataflow(workload, design.arch, mapping)
        stage.put(key, replace(dense, workload=None))
        return dense, key, False

    def _sparse_analysis_keyed(
        self,
        dense: DenseTraffic,
        safs: SAFSpec,
        dense_key: bytes | None = None,
        reused: bool = False,
    ) -> EvaluationRecord:
        """Sparse post-processing and the micro tail, returning the
        evaluation record (:func:`_sparse_record`).

        The record is memoised by :func:`~repro.sparse.postprocess.
        sparse_analysis_key`; hits return the stored (read-only)
        record. Uncacheable density models (no content key) fall back
        to recomputing.

        A miss whose dense analysis was ``reused`` from the dense stage
        evaluates the mapping's plan (:meth:`_sparse_plan`): the mapping
        recurs, so its structure will be reused again. A first-seen
        mapping walks, since building a plan costs more than one walk.
        """
        key = None
        if self.cache is not None:
            key = sparse_analysis_key(dense, safs, dense_key)
        if key is None:
            return _sparse_record(
                dense,
                analyze_sparse(
                    dense, safs, vectorized=self.sparse_vectorized, packed=True
                ),
            )
        stage = self.cache.sparse
        record = stage.get(key)
        if record is None:
            plan = None
            if reused and self.sparse_vectorized:
                plan = self._sparse_plan(dense, safs, dense_key)
            record = _sparse_record(
                dense,
                analyze_sparse(
                    dense,
                    safs,
                    vectorized=self.sparse_vectorized,
                    plan=plan,
                    packed=True,
                ),
            )
            stage.put(key, record)
        return record

    def _sparse_plan(
        self, dense: DenseTraffic, safs: SAFSpec, dense_key: bytes
    ) -> SparsePlan:
        """The mapping's :class:`~repro.sparse.postprocess.SparsePlan`
        through the ``"plan"`` stage, keyed by
        :func:`~repro.sparse.postprocess.sparse_plan_key`."""
        stage = self.cache.stage(PLAN_STAGE)
        key = sparse_plan_key(dense_key, safs)
        plan = stage.get(key)
        if plan is None:
            plan = SparsePlan.build(dense, safs)
            stage.put(key, plan)
        return plan

    def _evaluate_mapping(
        self,
        design: Design,
        workload: Workload,
        mapping: Mapping,
        dense_key: bytes | None = None,
    ) -> EvaluationResult:
        dense, dense_key, reused = self._dense_analysis_keyed(
            design, workload, mapping, dense_key
        )
        record = self._sparse_analysis_keyed(
            dense, design.safs, dense_key, reused
        )
        return self._finish_evaluation(design, workload, dense, record)

    def _finish_evaluation(
        self,
        design: Design,
        workload: Workload,
        dense: DenseTraffic,
        record: EvaluationRecord,
    ) -> EvaluationResult:
        """Build the result from a sparse record, shared by every
        evaluation path (the per-call pipeline and the batched one).
        When this evaluator checks capacity, the record's first
        overflowing level (in architecture order) raises the
        :class:`ValidationError` that :func:`~repro.micro.validity.
        check_validity` would have raised."""
        if self.check_capacity:
            level = record.overflow
            if level >= 0:
                raise overflow_error(
                    level_usage(record.layout, record.values, level)
                )
        return EvaluationResult(
            design.name, workload.name or workload.einsum.name, dense, record
        )

    # ------------------------------------------------------------------
    # Capacity pre-filter

    def _capacity_overflow(
        self, design: Design, workload: Workload, mapping: Mapping
    ) -> OverflowReason | None:
        """Cheap detection of candidates that cannot possibly fit.

        Computes, per finite-capacity level, a *lower bound* on the
        worst-case occupancy the validity check will derive: the dense
        tile size for uncompressed tensors, the statistical-largest
        nonzero count (payload only, metadata ignored) for compressed
        ones. Because the bound never exceeds the real occupancy, a
        rejected candidate is guaranteed to fail ``check_validity``.

        Alongside it, a second, *monotone* bound is accumulated (dense
        tile sizes; ``DensityModel.monotone_occupancy_bound`` for
        compressed tensors — expected occupancy for uniform/structured
        models, which provably lower-bounds the statistical quantile;
        models without a monotone bound contribute zero, which only
        under-prunes). When the monotone bound alone
        overflows, the returned reason is flagged ``monotone``: any
        candidate whose tile extents at that level dominate these must
        overflow too, which is what lets the mapper prune whole
        factorization subtrees.
        """
        # The output density model participates in the bound; derive it
        # exactly as the sparse step would (idempotent).
        ensure_output_density(workload)
        einsum = workload.einsum
        extents = {dim: 1 for dim in einsum.dims}
        for level_map in reversed(mapping.levels):  # innermost first
            for loop in level_map.temporal + level_map.spatial:
                extents[loop.dim] *= loop.bound
            capacity = design.arch.level(level_map.level).capacity_words
            if capacity is None:
                continue
            used = 0.0
            monotone_used = 0.0
            for tensor in einsum.tensors:
                if not level_map.keeps(tensor.name):
                    continue
                tile = tensor.tile_size(extents)
                fmt = design.safs.format_for(level_map.level, tensor.name)
                if fmt is not None and fmt.is_compressed:
                    model = workload.densities.get(tensor.name)
                    if model is not None:
                        used += min(tile, model.quantile_occupancy(tile))
                        monotone = model.monotone_occupancy_bound(tile)
                        if monotone is not None:
                            monotone_used += monotone
                        continue
                used += tile
                monotone_used += tile
            if used > capacity:
                return OverflowReason(
                    level=level_map.level,
                    dim_extents=dict(extents),
                    used_words=used,
                    capacity_words=capacity,
                    monotone=monotone_used > capacity,
                )
        return None

    def _prefilter_rejects(
        self,
        design: Design,
        workload: Workload,
        mapping: Mapping,
        mapper: Mapper | None,
    ) -> bool:
        """Whether :meth:`_capacity_overflow` rejects ``mapping``; a
        monotone overflow's extents become a ``mapper`` witness at once."""
        overflow = self._capacity_overflow(design, workload, mapping)
        if overflow is None:
            return False
        if mapper is not None and overflow.monotone:
            mapper.register_overflow(overflow.level, overflow.dim_extents)
        return True

    # ------------------------------------------------------------------
    # Mapspace search

    def _search_full(
        self,
        design: Design,
        workload: Workload,
        objective=None,
        candidates: Iterable[Mapping] | None = None,
        parallel: int = 1,
        batch_size: int | None = None,
        strategy: str | None = None,
        progress: Callable[[dict], None] | None = None,
    ) -> SearchOutcome:
        """Find the best valid mapping by the objective (default EDP)
        and the Pareto frontier over the objective's axes.

        ``objective`` takes any form :func:`repro.search.objective.
        resolve_objective` accepts — ``None`` (EDP), a metric name, a
        sequence of names (vector objective), an ``Objective``, or a
        legacy callable. The returned :class:`SearchOutcome` carries
        the resolved objective, the frontier, and the ``(score, index,
        result)`` winner — ``best is None`` when no candidate is
        valid. The winner is always a frontier member: it is the
        minimum ``(score, index)`` point of the frontier, which for
        scalar objectives reproduces the serial first-strictly-better
        tie-break exactly.

        Uses the design's constraints with the built-in mapper unless
        explicit ``candidates`` are supplied (:meth:`_search_mode`).
        ``strategy`` (default ``"batched"``) and ``batch_size``
        (default :data:`SEARCH_BATCH_SIZE`) pick the scan (see the
        class docstring). ``parallel=N`` applies to the
        batched strategy only: :meth:`_search_parallel` scans ``N``
        shards of the stream in a process pool, with winner and
        frontier identical to the in-process scan (requires a
        picklable design/workload/objective).

        ``progress`` (when given) is invoked after every drawn chunk of
        the in-process batched scan with :meth:`ScanState.summary` —
        the feed behind streaming search progress (CLI ``search -v``,
        serve progress envelopes). Purely observational: the scan never
        reads anything back from it.
        """
        objective = resolve_objective(objective)
        strategy, mode, mapper = self._search_mode(
            design, workload, candidates, strategy
        )
        if batch_size is None:
            batch_size = SEARCH_BATCH_SIZE
        # The strategy alone decides the scan: batch_size=1 still runs
        # the batched scan (candidate-stream memo, witness replay) with
        # single-candidate blocks, and the forced scalar oracles only
        # degenerate its stacked passes to per-candidate arithmetic.
        scan = strategy
        if mode == "exhaustive":
            candidates = mapper.enumerate_mappings()
            # Every strategy scans the whole space, so breeding would
            # only re-propose known genomes: evolution degenerates to
            # the batched scan (which is also what makes the three
            # strategies' frontiers provably agree here).
            if scan == "evolutionary":
                scan = "batched"
        elif mode == "sampled" and scan != "evolutionary":
            # The batched scan replays the memoised stream.
            candidates = (
                self._sampled_candidates(design, workload, mapper)
                if scan == "batched"
                else None
            )
            if candidates is None:
                candidates = mapper.sample_mappings(
                    self.search_budget, seed=self.search_seed
                )
        frontier = ParetoFrontier(axes=objective.axes)
        if scan == "evolutionary":
            self._search_evolutionary(
                design, workload, objective, mapper, frontier,
                batch_size=batch_size,
            )
        elif scan == "serial":
            self._search_candidates(
                design, workload, candidates, objective, mapper=mapper,
                frontier=frontier,
            )
        elif parallel > 1 and len(candidates := list(candidates)) > 1:
            self._search_parallel(
                design, workload, candidates, objective, parallel,
                batch_size, mapper, frontier,
            )
        else:  # a stream of at most one candidate has no fan-out
            self._scan(
                design, workload, candidates, objective,
                mapper=mapper, frontier=frontier, batch_size=batch_size,
                on_chunk=(
                    None
                    if progress is None
                    else lambda state: progress(state.summary())
                ),
            )
        winner = frontier.best()
        best = (
            None
            if winner is None
            else (winner.score, winner.index, winner.result)
        )
        return SearchOutcome(
            objective=objective,
            strategy=strategy,
            frontier=frontier,
            best=best,
        )

    def _search_mode(
        self,
        design: Design,
        workload: Workload,
        candidates: Iterable[Mapping] | None,
        strategy: str | None,
    ) -> tuple[str, str, Mapper | None]:
        """Validate a search request and pick its candidate stream:
        ``(strategy, mode, mapper)``, where ``mode`` is ``"explicit"``
        (caller's ``candidates``, no mapper), ``"exhaustive"`` or
        ``"sampled"`` (:func:`exhaustive_mapspace`; fresh mapper). The
        sharded planner (:func:`repro.distributed.plan_search`) plans
        through here too."""
        strategy = strategy or "batched"
        if strategy not in ("serial", "batched", "evolutionary"):
            raise SpecError(
                f"unknown search strategy {strategy!r}; "
                "expected 'serial', 'batched', or 'evolutionary'"
            )
        if candidates is not None:
            if strategy == "evolutionary":
                raise SpecError(
                    "strategy='evolutionary' breeds candidates from the "
                    "design's mapspace constraints; explicit candidates "
                    "fix the population — scan them with 'serial' or "
                    "'batched'"
                )
            return strategy, "explicit", None
        mapper = Mapper(workload.einsum, design.arch, design.constraints)
        if exhaustive_mapspace(mapper, self.search_budget):
            return strategy, "exhaustive", mapper
        return strategy, "sampled", mapper

    def _sampled_candidates(
        self, design: Design, workload: Workload, mapper: Mapper
    ) -> list[Mapping] | None:
        """The memoised sampled candidate stream for this search.

        Sampled streams are pure functions of (constraints, einsum,
        arch, seed, budget) — witnesses only *withhold* draws, never
        change them — so the unpruned stream is recorded in the
        ``"candidates"`` cache stage and replayed by later searches
        (including across SAF variants sharing a mapspace, and across
        processes via the persistent tier). Returns ``None`` when
        caching is disabled, leaving the generator-driven path in
        charge.
        """
        if self.cache is None:
            return None
        key = sampled_candidates_key(
            workload.einsum,
            design.arch,
            mapper.constraints,
            self.search_seed,
            self.search_budget,
        )
        stage = self.cache.stage(CANDIDATES_STAGE)
        stream = stage.get(key)
        if stream is None:
            stream = list(
                mapper.sample_mappings(
                    self.search_budget, seed=self.search_seed
                )
            )
            stage.put(key, stream)
        return stream

    def _search_candidates(
        self,
        design: Design,
        workload: Workload,
        candidates: Iterable[Mapping],
        objective,
        mapper: Mapper | None = None,
        frontier: ParetoFrontier | None = None,
    ) -> tuple[float, int, EvaluationResult] | None:
        """Serial scan returning ``(score, index, result)`` of the
        winner. When ``mapper`` produced the candidates, prefilter
        overflows are fed back to it for subtree pruning. A
        ``frontier`` is maintained in place when given; the winner is
        always one of its points."""
        objective = resolve_objective(objective)
        prefilter = self.prefilter_capacity and self.check_capacity
        best: tuple[float, int, EvaluationResult] | None = None
        for index, mapping in enumerate(candidates):
            if prefilter and self._prefilter_rejects(
                design, workload, mapping, mapper
            ):
                continue
            try:
                result = self._evaluate_mapping(design, workload, mapping)
            except (ValidationError, MappingError):
                continue
            score = objective.score(result)
            if frontier is not None:
                frontier.observe(objective, score, index, result)
            if best is None or score < best[0]:
                best = (score, index, result)
        return best

    def _scan(
        self,
        design: Design,
        workload: Workload,
        candidates: Iterable[Mapping],
        objective,
        *,
        mapper: Mapper | None = None,
        frontier: ParetoFrontier | None = None,
        batch_size: int | None = None,
        prefilter: bool | None = None,
        start: int = 0,
        stop: int | None = None,
        fast_forward: Callable[[int], object] | None = None,
        on_chunk: Callable[[ScanState], None] | None = None,
    ) -> ScanState:
        """The one blocked mapspace scan: the batched strategy, the
        pool workers of a parallel search, and every distributed shard
        (:func:`repro.distributed.run_shard`) run it.

        ``candidates`` (a live mapper generator or a materialised
        stream) is drawn ``batch_size`` at a time, and each chunk gets
        the serial oracle's bookkeeping (:meth:`_search_candidates`)
        in stream order. A draw dominated by a ``mapper`` witness is
        withheld and takes no index (:meth:`Mapper.mapping_dominated`
        withholds exactly what a live generator would have); every
        other draw takes the next index and meets the capacity
        prefilter (:meth:`_prefilter_rejects`), whose monotone rejects
        register witnesses at once. Survivors at
        positions ``>= start`` are evaluated in blocks of at least
        ``batch_size`` through :meth:`_evaluate_block`, the last at
        the end of the stream or at ``stop``. Evaluation never feeds
        back into the stream, so the winner, its index and the
        frontier are bit-identical to the serial scan.

        Positions before ``start`` get the bookkeeping only, so a
        fresh ``mapper`` reaches the whole-stream scan's state at
        ``start`` and survivors get their global indices; with no
        mapper every draw takes an index and the scan jumps to
        ``start``. While replaying, ``fast_forward(position)`` may
        return a snapshot of that state further on (``position``,
        ``index``, ``witnesses``; at most ``start``) to adopt.
        ``on_chunk(state)`` runs after every drawn chunk.
        """
        objective = resolve_objective(objective)
        if frontier is None:
            frontier = ParetoFrontier(axes=objective.axes)
        batch_size = max(
            1, SEARCH_BATCH_SIZE if batch_size is None else batch_size
        )
        if prefilter is None:
            prefilter = self.prefilter_capacity and self.check_capacity
        state = ScanState(frontier)
        stream = iter(candidates)
        if mapper is None:
            state.position, state.index = start, start - 1
            stream = islice(stream, start, None)
        # One sparse-walk memo spans the whole scan: every candidate
        # shares (design, workload), so leader-keep probabilities and
        # per-tile format scalings recur across blocks.
        memos: dict = {}
        block: list[tuple[int, Mapping]] = []
        while stop is None or state.position < stop:
            # Only a scan with a mapper starts before ``start``.
            if fast_forward is not None and state.position < start:
                jump = fast_forward(state.position)
                if jump is not None and (
                    state.position < jump.position <= start
                ):
                    skip = jump.position - state.position
                    next(islice(stream, skip, skip), None)
                    state.position, state.index = jump.position, jump.index
                    mapper.import_witnesses(jump.witnesses)
                    continue
            limit = batch_size
            if stop is not None:
                limit = min(limit, stop - state.position)
            drawn = list(islice(stream, limit))
            if not drawn and not block:
                break
            for offset, mapping in enumerate(drawn):
                if mapper is not None and mapper.mapping_dominated(mapping):
                    mapper.pruned_candidates += 1
                    state.withheld += 1
                    continue
                state.index += 1
                if prefilter and self._prefilter_rejects(
                    design, workload, mapping, mapper
                ):
                    state.rejected += 1
                    continue
                if state.position + offset >= start:
                    block.append((state.index, mapping))
            state.position += len(drawn)
            done = len(drawn) < limit or state.position == stop
            if len(block) >= batch_size or (done and block):
                state.best = self._evaluate_block(
                    design, workload, block, objective, state.best,
                    memos=memos, frontier=frontier,
                )
                state.evaluated += len(block)
                block = []
            if on_chunk is not None:
                on_chunk(state)
            if done:
                break
        return state

    def _evaluate_block(
        self,
        design: Design,
        workload: Workload,
        block: list[tuple[int, Mapping]],
        objective: Objective,
        best: tuple[float, int, EvaluationResult] | None,
        memos: dict | None = None,
        frontier: ParetoFrontier | None = None,
        collect: list | None = None,
    ) -> tuple[float, int, EvaluationResult] | None:
        """Evaluate one block of ``(index, mapping)`` prefilter
        survivors as one :meth:`_evaluate_batch` and fold the outcomes
        into ``best``.

        A ``frontier`` is maintained in place when given, and
        ``collect`` (when given) receives an ``(index, score)`` pair
        per successfully evaluated candidate — the evolutionary
        strategy's fitness feed. Candidates whose evaluation raised an
        expected modeling error (capacity overflow under the full
        validity check, mapping rejection) are skipped, exactly as in
        the serial scan; any other error propagates. ``memos`` is the
        search-wide walk-memo dict (see :meth:`_sparse_analysis_batch`).
        """
        outcomes = self._evaluate_batch(
            [(design, workload, mapping) for _, mapping in block],
            memos=memos,
        )
        for (index, _mapping), (result, error) in zip(block, outcomes):
            if error is not None:
                if not isinstance(error, (ValidationError, MappingError)):
                    raise error
                # The traceback reaches this frame through f_back, and
                # this frame holds ``outcomes``: dropping it breaks the
                # cycle that would keep the whole cache alive until a
                # full GC.
                error.__traceback__ = None
                continue
            score = objective.score(result)
            if collect is not None:
                collect.append((index, score))
            if frontier is not None:
                frontier.observe(objective, score, index, result)
            if best is None or score < best[0]:
                best = (score, index, result)
        return best

    def _search_evolutionary(
        self,
        design: Design,
        workload: Workload,
        objective: Objective,
        mapper: Mapper,
        frontier: ParetoFrontier,
        batch_size: int,
    ) -> tuple[float, int, EvaluationResult] | None:
        """Evolutionary mapspace search (SparseMap-style, ROADMAP 2).

        The population is seeded from the memoised ``"candidates"``
        stream (the same draws the batched random search would scan,
        so a warm cache is shared between strategies), then evolved by
        truncation selection over all evaluated individuals, uniform
        per-dimension crossover, and mutation through the mapper's
        constraint-honouring sampler — ``fixed_factors`` hold for
        every genome by construction. Offspring dominated by an
        accumulated overflow witness are killed *before* evaluation
        and do not consume search budget: the pruned sampling mass is
        recycled into extra population budget, unlike the random
        strategies where withheld draws still count toward the
        budget. The budget caps candidates entering the prefilter +
        evaluation pipeline at ``search_budget``, mirroring the random
        strategies' draw budget.

        Deterministic for a fixed ``search_seed``: the seed stream,
        the breeding RNG, and every selection sort are explicitly
        ordered. Generations run in-process (no ``parallel`` fan-out);
        survivor blocks still go through the stacked dense + sparse
        pipeline. The sizing and breeding constants live in
        :mod:`repro.search.evolutionary`.
        """
        budget = self.search_budget
        pop_size = population_size(budget)
        batch_size = max(1, batch_size)
        prefilter = self.prefilter_capacity and self.check_capacity
        rng = random.Random(self.search_seed)
        dims = list(mapper.einsum.dims)
        seeds = self._sampled_candidates(design, workload, mapper)
        if seeds is None:
            seeds = mapper.sample_mappings(budget, seed=self.search_seed)
        seen: set[tuple] = set()
        generation: list[dict] = []
        for mapping in seeds:
            if len(generation) >= pop_size:
                break
            genome = genome_of(mapper, mapping)
            key = genome_key(genome, dims)
            if key in seen:
                continue
            seen.add(key)
            generation.append(genome)
        # One sparse-walk memo spans the whole search, as in the
        # batched scan: every candidate shares (design, workload).
        memos: dict = {}
        best: tuple[float, int, EvaluationResult] | None = None
        scored: list[tuple[float, int, dict]] = []
        proposals = 0
        index = -1
        while generation and proposals < budget:
            block: list[tuple[int, Mapping]] = []
            genomes_by_index: dict[int, dict] = {}
            collect: list[tuple[int, float]] = []
            for genome in generation:
                if proposals >= budget:
                    break
                combos = [genome[dim] for dim in dims]
                if mapper._witness_dominated(dims, combos):
                    # Killed before evaluation; the budget is untouched
                    # (pruned mass recycled into later generations).
                    mapper.pruned_candidates += 1
                    continue
                proposals += 1
                index += 1
                mapping = mapper._build_mapping(genome)
                if prefilter and self._prefilter_rejects(
                    design, workload, mapping, mapper
                ):
                    continue
                block.append((index, mapping))
                genomes_by_index[index] = genome
                if len(block) >= batch_size:
                    best = self._evaluate_block(
                        design, workload, block, objective, best,
                        memos=memos, frontier=frontier, collect=collect,
                    )
                    block = []
            if block:
                best = self._evaluate_block(
                    design, workload, block, objective, best,
                    memos=memos, frontier=frontier, collect=collect,
                )
            for got_index, score in collect:
                scored.append((score, got_index, genomes_by_index[got_index]))
            if proposals >= budget:
                break
            scored.sort(key=lambda entry: (entry[0], entry[1]))
            parents = [
                genome
                for _score, _idx, genome in scored[: parent_count(pop_size)]
            ]
            generation = make_offspring(
                mapper, parents, rng, min(pop_size, budget - proposals), seen
            )
        return best

    def _search_parallel(
        self,
        design: Design,
        workload: Workload,
        stream: list[Mapping],
        objective: Objective,
        parallel: int,
        batch_size: int,
        mapper: Mapper | None,
        frontier: ParetoFrontier,
    ) -> None:
        """The batched scan as ``parallel`` shards in a process pool.

        ``stream`` is the full unpruned candidate stream; ``mapper``
        (``None`` for explicit candidates) holds no witnesses yet. Each
        pool worker scans one contiguous shard
        (:func:`repro.distributed.plan_shards`) with :meth:`_scan` and
        a fresh mapper replaying its prefix, as a distributed shard
        does, and the partial frontiers fold in shard order.
        """
        # repro.distributed imports this module at its top.
        from repro.distributed.plan import plan_shards

        # Zero-pickle fan-out: the read-only search state ships ONCE
        # per worker through the pool initializer, and each task
        # payload is just a shard's ``(start, stop)`` range.
        shared = {
            "evaluator": replace(self, cache=None),
            "design": design,
            "workload": workload,
            "candidates": stream,
            "objective": objective,
            "batch_size": batch_size,
            "witnesses": mapper is not None,
        }
        # Shard workers never sample, so the candidates stage is dead
        # weight in their warm-up payload. (Evaluate/network pools keep
        # it: their workers may run whole searches.)
        partials = self._run_pool(
            _search_range_worker,
            [
                (spec.start, spec.stop)
                for spec in plan_shards(len(stream), parallel)
            ],
            exclude_stages=(CANDIDATES_STAGE,),
            shared=shared,
        )
        # Folding contiguous shards' frontiers in shard order is exact
        # (see repro.distributed.coordinator.merge_shards).
        for partial in partials:
            frontier.merge(partial)
        winner = frontier.best()
        if winner is not None:
            self._absorb_result(design, workload, winner.result)

    def _dense_analysis_batch(
        self,
        items: Sequence[tuple[Design, Workload, Mapping, bytes | None]],
    ) -> list[tuple[DenseTraffic, bytes | None, bool] | ReproError]:
        """:meth:`_dense_analysis_keyed` over many ``(design, workload,
        mapping, dense key or None)`` items at once.

        Cache hits are served as usual; the misses, deduped by content
        key, run through one
        :func:`~repro.dataflow.nest_analysis.analyze_dataflow_batch`
        call (which groups compatible structures internally) and are
        installed into the ``"dense"`` stage. Should the stacked pass
        fail, its lookups are rolled back and every item recounts
        through the serial oracle, so the error lands on exactly the
        item(s) that caused it. Returns one ``(dense, key, reused)``
        triple or :class:`~repro.common.errors.ReproError` per item;
        values, reuse flags and cache statistics match the serial loop
        exactly.
        """
        stage = self.cache.dense if self.cache is not None else None
        counters = (stage.hits, stage.misses) if stage is not None else None
        keys = [
            None
            if stage is None
            else key or dense_analysis_key(workload, design.arch, mapping)
            for design, workload, mapping, key in items
        ]
        hits, misses, followers = _serial_lookups(stage, keys)
        try:
            computed = analyze_dataflow_batch(
                [(items[i][1], items[i][0].arch, items[i][2]) for i in misses],
                vectorized=self.dense_vectorized,
            ) if misses else []
        except ReproError:
            computed = None
        if computed is None:
            if stage is not None:
                stage.hits, stage.misses = counters
            return [
                _outcome(self._dense_analysis_keyed, *item) for item in items
            ]
        out: list = [None] * len(items)
        for position, cached in hits.items():
            out[position] = (
                replace(cached, workload=items[position][1]),
                keys[position],
                True,
            )
        for position, dense in zip(misses, computed):
            key = keys[position]
            if key is not None:
                stage.put(key, replace(dense, workload=None))
            out[position] = (dense, key, False)
            for follower in followers.get(position, ()):
                # The follower's serial hit would have returned the
                # stored copy rebound to its own workload.
                out[follower] = (
                    replace(dense, workload=items[follower][1]),
                    keys[follower],
                    True,
                )
        return out

    def _sparse_analysis_batch(
        self,
        entries: Sequence[tuple[DenseTraffic, SAFSpec, bytes | None, bool]],
        memos: dict | None = None,
    ) -> list[tuple | ReproError]:
        """:meth:`_sparse_analysis_keyed` over many ``(dense, safs,
        dense_key, reused)`` entries at once (dense keys and reuse flags
        as the dense stage returns them).

        Keys are the :func:`~repro.sparse.postprocess.
        sparse_analysis_key` digests. Cache hits are served as usual.
        A miss whose dense analysis was reused evaluates its mapping's
        plan, as the per-call path does; plan-stage lookups run in job
        order, so the ``"plan"`` counters match the serial loop too.
        The other misses, deduped by content key, are grouped by
        sparse-walk *context* — the einsum, architecture, SAF and
        density digests, so only the mapping differs within a group —
        and each group flushes as one stacked
        :func:`~repro.sparse.postprocess.analyze_sparse_batch` pass
        sharing one walk memo. ``memos`` maps contexts to their memos;
        a caller that passes the same dict to every call (a search
        does, for all of its blocks) keeps the memos across calls. The
        walk memo is on exactly when ``dense_vectorized`` is, so the
        scalar-oracle configuration walks unmemoised. Keyless entries
        (caching disabled, uncacheable densities) have no content
        identity to group on and flush together without a memo.

        Should a stacked pass, a plan or a micro tail fail, nothing is
        installed, the sparse and plan lookups are rolled back, and
        every entry recounts through the serial oracle, so the error
        lands on exactly the entry that caused it. Returns one
        :class:`~repro.micro.record.EvaluationRecord` or
        :class:`~repro.common.errors.ReproError` per entry; values,
        cache statistics, and record identity for duplicates match the
        serial loop exactly.
        """
        stage = self.cache.sparse if self.cache is not None else None
        counters = (stage.hits, stage.misses) if stage is not None else None
        if memos is None:
            memos = {}
        keys: list[bytes | None] = []
        contexts: list[bytes | None] = []
        for dense, safs, dense_key, _reused in entries:
            key = context = None
            densities = (
                None if stage is None else density_digests(dense.workload)
            )
            if densities is not None:
                parts = spec_digest(safs) + densities
                key = digest(dense_key + parts)
                context = (
                    spec_digest(dense.workload.einsum)
                    + spec_digest(dense.arch)
                    + parts
                )
            keys.append(key)
            contexts.append(context)
        hits, misses, followers = _serial_lookups(stage, keys)
        planned = [
            position
            for position in misses
            if self.sparse_vectorized
            and keys[position] is not None
            and entries[position][3]
        ]
        plan_stage = plan_counters = None
        if planned:
            plan_stage = self.cache.stage(PLAN_STAGE)
            plan_counters = (plan_stage.hits, plan_stage.misses)
        plan_keys = [
            sparse_plan_key(entries[position][2], entries[position][1])
            for position in planned
        ]
        plan_hits, plan_misses, plan_followers = _serial_lookups(
            plan_stage, plan_keys
        )
        groups: dict[bytes | None, list[int]] = {}
        walked = set(misses).difference(planned)
        for position in misses:
            if position in walked:
                groups.setdefault(contexts[position], []).append(position)
        built: dict[int, SparsePlan] = {}
        computed: dict[int, tuple] = {}
        try:
            plans = dict(plan_hits)
            for index in plan_misses:
                dense, safs = entries[planned[index]][:2]
                plans[index] = built[index] = SparsePlan.build(dense, safs)
                for follower in plan_followers.get(index, ()):
                    plans[follower] = plans[index]
            for index, position in enumerate(planned):
                dense, safs = entries[position][:2]
                computed[position] = analyze_sparse(
                    dense, safs, plan=plans[index], packed=True
                )
            for context, positions in groups.items():
                memo = None
                if context is not None and self.dense_vectorized:
                    memo = memos.setdefault(context, {})
                flushed = analyze_sparse_batch(
                    [(entries[i][0], entries[i][1]) for i in positions],
                    vectorized=self.sparse_vectorized,
                    memo=memo,
                    packed=True,
                )
                computed.update(zip(positions, flushed))
            records = {
                position: _sparse_record(entries[position][0], actions)
                for position, actions in computed.items()
            }
        except ReproError:
            records = None
        if records is None:
            if stage is not None:
                stage.hits, stage.misses = counters
            if plan_stage is not None:
                plan_stage.hits, plan_stage.misses = plan_counters
            return [
                _outcome(self._sparse_analysis_keyed, *entry)
                for entry in entries
            ]
        for index, plan in built.items():
            plan_stage.put(plan_keys[index], plan)
        out: list = [None] * len(entries)
        for position, record in hits.items():
            out[position] = record
        for position in misses:
            record = out[position] = records[position]
            if keys[position] is not None:
                stage.put(keys[position], record)
            for follower in followers.get(position, ()):
                out[follower] = record
        return out

    def _evaluate_batch(
        self, jobs: Sequence[tuple], memos: dict | None = None
    ) -> list[tuple[EvaluationResult | None, ReproError | None]]:
        """Evaluate a batch of jobs in one stacked pass, capturing
        expected failures per job.

        Each job is ``(design, workload[, mapping])`` — the
        :meth:`_evaluate` signature. The pipeline runs stage by stage
        across the whole batch: mappings resolve first
        (constraints-only designs fall back to the ordinary search
        path), the dense misses stack through one
        :meth:`_dense_analysis_batch` pass, the sparse misses through
        :meth:`_sparse_analysis_batch` (a plan per recurring mapping,
        one flush per walk context for the rest, each miss with its
        micro tail; ``memos`` is passed through), and each job's result
        is built from its record. Every per-job outcome — including
        :class:`~repro.common.errors.ReproError` failures such as
        capacity overflows — matches a serial :meth:`_evaluate` call
        bit for bit, and so do the cache statistics; only the grouping
        of the numpy arithmetic changes.

        Returns one ``(result, error)`` pair per job, in job order
        (exactly one side is non-``None``). This is the engine's one
        batched path: the serving daemon micro-batches concurrent
        clients' evaluate jobs through it, and every search block runs
        through it as a homogeneous batch (:meth:`_evaluate_block`).
        """
        jobs = list(jobs)
        outcomes: list[tuple | None] = [None] * len(jobs)
        staged: list[tuple] = []
        for index, job in enumerate(jobs):
            design, workload = job[0], job[1]
            try:
                mapping, key = self._resolve_mapping(
                    design, workload, job[2] if len(job) > 2 else None
                )
                if mapping is None:
                    # Constraints-driven (or absent) mapping policy:
                    # the search path owns this job end to end.
                    outcomes[index] = (self._evaluate(design, workload), None)
                    continue
            except ReproError as exc:
                outcomes[index] = (None, exc)
                continue
            staged.append((index, design, workload, mapping, key))

        denses = self._dense_analysis_batch([item[1:] for item in staged])
        analysed: list[tuple] = []
        for (index, design, workload, _mapping, _key), dense in zip(
            staged, denses
        ):
            if isinstance(dense, ReproError):
                outcomes[index] = (None, dense)
            else:
                analysed.append((index, design, workload, *dense))
        records = self._sparse_analysis_batch(
            [
                (dense, design.safs, dense_key, reused)
                for _i, design, _w, dense, dense_key, reused in analysed
            ],
            memos=memos,
        )
        for (index, design, workload, dense, _key, _reused), record in zip(
            analysed, records
        ):
            if isinstance(record, ReproError):
                outcomes[index] = (None, record)
                continue
            try:
                result = self._finish_evaluation(
                    design, workload, dense, record
                )
            except ReproError as exc:
                outcomes[index] = (None, exc)
            else:
                outcomes[index] = (result, None)
        return outcomes

    # ------------------------------------------------------------------
    # Batch evaluation

    def _evaluate_many(
        self,
        jobs: Sequence[tuple],
        parallel: int = 1,
    ) -> list[tuple[EvaluationResult | None, ReproError | None]]:
        """:meth:`_evaluate_batch` over a list of jobs, optionally
        fanned out: one ``(result, error)`` pair per job, in job order.

        ``parallel=N`` splits the jobs into ``N`` deterministic
        contiguous ranges, each evaluated as one batch in a worker
        process that starts with the parent's hottest cache entries;
        the outcomes match the in-process batch exactly, and the
        successes are folded back into the parent cache.
        """
        jobs = list(jobs)
        if parallel <= 1 or len(jobs) <= 1:
            return self._evaluate_batch(jobs)
        # repro.distributed imports this module at its top.
        from repro.distributed.plan import plan_shards

        # Zero-pickle fan-out: jobs (designs + workloads) ship once per
        # worker via the initializer; task payloads are index ranges.
        shared = {"evaluator": replace(self, cache=None), "jobs": jobs}
        partials = self._run_pool(
            _evaluate_range_worker,
            [
                (spec.start, spec.stop)
                for spec in plan_shards(len(jobs), parallel)
            ],
            shared=shared,
        )
        outcomes = [outcome for chunk in partials for outcome in chunk]
        # Results were computed in workers; fold them back into the
        # parent cache so follow-up serial evaluations hit and
        # persistent spills capture what the fan-out derived.
        for job, (result, _error) in zip(jobs, outcomes):
            if result is not None:
                self._absorb_result(job[0], job[1], result)
        return outcomes

    def _evaluate_network(
        self,
        design: Design,
        layers,
        densities_for: Callable[[object], dict[str, float]],
        parallel: int = 1,
        *,
        mapping_for: Callable[[Workload], Mapping | None] | None = None,
    ) -> list[tuple[object, EvaluationResult]]:
        """Per-layer evaluation of a full network (Sec 6.1 methodology).

        ``layers`` is a list of :class:`~repro.workload.nets.NetLayer`;
        ``densities_for(layer)`` supplies per-tensor densities. Results
        aggregate per layer; total latency/energy multiply by layer
        repeat counts. The layers run as one :meth:`_evaluate_many`
        batch (``parallel=N`` fans it out over worker processes); the
        first failing layer, in layer order, raises its error.

        Layers with identical content — same einsum, same densities,
        and the same mapping the design resolves for them — are
        evaluated once and the result shared (rebound to each layer's
        workload name), since evaluation is a pure function of that
        content; per-layer result order is preserved. The design's
        mapping policy is resolved per layer (:meth:`_resolve_mapping`:
        a user ``mapping_factory`` is called once per layer, exactly as
        the undeduped path would), so factories that key off the
        workload *name* keep their distinct mappings and are simply not
        merged. Layers whose density models expose no content key are
        conservatively treated as unique. When a ``persistent`` store
        is configured, the fan-out warm-starts from (and afterwards
        spills to) the snapshot keyed by this network's content.

        ``mapping_for`` overrides the design's mapping policy with an
        explicit per-workload resolver (the fused-cascade path passes
        its fusion-transformed sub-nests through here); ``None`` keeps
        the design's own resolution, bit-identically to before the
        override existed.
        """
        if mapping_for is None:
            def mapping_for(workload):
                return self._resolve_mapping(design, workload)[0]
        workloads = [
            Workload.uniform(layer.spec, densities_for(layer), name=layer.name)
            for layer in layers
        ]
        job_of_layer: list[int] = []
        unique_jobs: list[tuple] = []
        seen: dict[tuple, int] = {}
        for workload in workloads:
            # The evaluation also depends on the mapping the design
            # resolves for this workload; factories may legitimately
            # produce different schedules for identical shapes, so the
            # resolved mapping joins the dedupe key (and rides in the
            # job, keeping factories at one call per layer).
            mapping = mapping_for(workload)
            key = _workload_content_key(workload)
            if key is not None:
                key = (key, None if mapping is None else mapping.cache_key())
            index = seen.get(key) if key is not None else None
            if index is None:
                index = len(unique_jobs)
                if mapping is None:
                    unique_jobs.append((design, workload))
                else:
                    unique_jobs.append((design, workload, mapping))
                if key is not None:
                    seen[key] = index
            job_of_layer.append(index)

        spill_key = None
        if self.persistent is not None and self.cache is not None:
            spill_key = persistent_state_key(
                design, [job[1] for job in unique_jobs]
            )
            if spill_key is not None:
                self.warm_start(spill_key)
        outcomes = self._evaluate_many(unique_jobs, parallel=parallel)
        if spill_key is not None:
            self.spill_cache(spill_key)

        paired = []
        for layer, workload, index in zip(layers, workloads, job_of_layer):
            result, error = outcomes[index]
            if error is not None:
                raise error
            if result.workload_name != workload.name:
                result = replace(result, workload_name=workload.name)
            paired.append((layer, result))
        return paired

    def _evaluate_fused(
        self,
        design: Design,
        graph,
        densities: dict[str, float] | None = None,
        fused=None,
        parallel: int = 1,
    ):
        """Evaluate an einsum cascade, optionally fused.

        ``graph`` is an :class:`~repro.workload.graph.EinsumGraph`;
        ``densities`` maps tensor names (shared across einsums) to
        uniform densities. ``fused`` is a
        :class:`~repro.mapping.fused.FusedMapping`; ``None`` (or one
        with ``fuse_at=None``) is the degenerate form, which runs the
        einsums through exactly the :meth:`_evaluate_network` machinery
        — per-einsum results are bit-identical to evaluating the graph
        as an unfused layer list.

        When ``fuse_at`` names a level, each sub-nest is rewritten so
        the graph's intermediates are kept at (and never outside) that
        level, the fused dataflow analysis cross-validates the
        sub-nests' intermediate tiles and seeds the dense stage, and
        the per-einsum pipeline runs on the rewritten mappings — every
        downstream cache stays sound because the fusion lives in the
        mapping content. Complete results are memoised in the
        ``"fused"`` cache stage keyed by graph + design + resolved
        sub-nest + density content.
        """
        from repro.dataflow.nest_analysis import analyze_fused_dataflow
        from repro.mapping.fused import FusedMapping
        from repro.model.result import FusedEinsumResult, FusedResult
        from repro.workload.nets import NetLayer

        if fused is None:
            fused = FusedMapping()
        fused.validate(graph, design.arch)
        densities = dict(densities or {})
        known = set(graph.tensor_names())
        for tensor in densities:
            if tensor not in known:
                raise SpecError(
                    f"density given for unknown tensor {tensor!r}; graph "
                    f"{graph.name!r} has {sorted(known)}"
                )

        def densities_for(layer):
            names = {t.name for t in layer.spec.tensors}
            return {t: d for t, d in densities.items() if t in names}

        layers = [NetLayer(spec.name, spec) for spec in graph.einsums]
        workloads = [
            Workload.uniform(layer.spec, densities_for(layer), name=layer.name)
            for layer in layers
        ]

        # Resolve each einsum's sub-nest: explicit fused mapping first,
        # then the design's mapping policy (one factory call per einsum,
        # matching the network path).
        resolved: dict[str, Mapping | None] = {}
        for workload in workloads:
            mapping = fused.mapping_for(workload.name)
            if mapping is None:
                mapping = self._resolve_mapping(design, workload)[0]
            resolved[workload.name] = mapping

        fuse_at = fused.fuse_at
        intermediates = set(graph.intermediates)
        if fuse_at is not None:
            missing = [name for name, m in resolved.items() if m is None]
            if missing:
                raise MappingError(
                    f"fusing at {fuse_at!r} needs a sub-nest per einsum; "
                    f"none resolved for {missing} (give the FusedMapping "
                    "explicit mappings or a design with a mapping policy)"
                )
            for workload in workloads:
                tensor_names = {t.name for t in workload.einsum.tensors}
                touched = tensor_names & intermediates
                mapping = fused.fused_levels(
                    resolved[workload.name], tensor_names, touched
                )
                level = mapping.level(fuse_at)
                for tensor in sorted(touched):
                    if not level.keeps(tensor):
                        raise MappingError(
                            f"intermediate {tensor!r} is fused at "
                            f"{fuse_at!r} but einsum {workload.name!r}'s "
                            f"sub-nest does not keep it there"
                        )
                resolved[workload.name] = mapping

        # Persistent-tier bracket. The network fan-out below brackets
        # its own warm-start/spill, but its spill runs before the fused
        # result is memoised and its warm-start after the whole-result
        # probe has already missed — so the fused path warms here and
        # re-spills after the store, keeping repeat runs one probe.
        warm_key = None
        if self.persistent is not None and self.cache is not None:
            warm_key = persistent_state_key(design, workloads)
            if warm_key is not None:
                self.warm_start(warm_key)

        # Whole-result memo: resolved sub-nests join the key (the
        # FusedMapping alone may defer to the design's mapping policy).
        fused_key = None
        if self.cache is not None and all(
            m is not None for m in resolved.values()
        ):
            rest = (
                fuse_at,
                tuple((n, resolved[n].cache_key()) for n in sorted(resolved)),
                tuple(sorted(densities.items())),
                bool(self.check_capacity),
            )
            fused_key = digest(
                spec_digest(graph)
                + spec_digest(design.arch)
                + spec_digest(design.safs)
                + repr(rest).encode()
            )
            stage = self.cache.stage(FUSED_STAGE)
            hit = stage.get(fused_key)
            if hit is not None:
                return hit

        if fuse_at is not None:
            # Fused dataflow analysis: cross-validates the intermediate
            # tiles across sub-nests and computes every einsum's dense
            # traffic in one batched pass; the results seed the dense
            # stage so the per-einsum pipeline below reuses them.
            index_of = {w.name: i for i, w in enumerate(workloads)}
            shared = {
                tensor: (
                    index_of[graph.producer_of(tensor)],
                    [index_of[name] for name in graph.consumers_of(tensor)],
                )
                for tensor in graph.intermediates
            }
            jobs = [
                (w, design.arch, resolved[w.name]) for w in workloads
            ]
            denses = analyze_fused_dataflow(
                jobs, fuse_at=fuse_at, shared=shared
            )
            if self.cache is not None:
                for (workload, _arch, mapping), dense in zip(jobs, denses):
                    key = dense_analysis_key(workload, design.arch, mapping)
                    if key not in self.cache.dense:
                        self.cache.dense.put(key, replace(dense, workload=None))

        pairs = self._evaluate_network(
            design,
            layers,
            densities_for,
            parallel,
            mapping_for=(
                None
                if fused.mappings is None and fuse_at is None
                else lambda workload: resolved[workload.name]
            ),
        )

        top_level = design.arch.level_names[0]
        by_name = {layer.name: result for layer, result in pairs}
        shared_records: list[dict] = []
        for tensor in graph.intermediates:
            producer = graph.producer_of(tensor)
            consumers = graph.consumers_of(tensor)
            record: dict = {
                "tensor": tensor,
                "producer": producer,
                "consumers": list(consumers),
                "level": fuse_at,
                "fusion_words": {},
                "backing_words": {},
            }
            for name in [producer, *consumers]:
                traffic = by_name[name].dense.traffic
                top = traffic.get((top_level, tensor))
                record["backing_words"][name] = (
                    top.reads + top.writes if top is not None else 0.0
                )
                if fuse_at is not None:
                    at = traffic.get((fuse_at, tensor))
                    record["fusion_words"][name] = (
                        at.reads + at.writes if at is not None else 0.0
                    )
            shared_records.append(record)

        result = FusedResult(
            design_name=design.name,
            graph_name=graph.name,
            einsums=[
                FusedEinsumResult(einsum_name=layer.name, result=res)
                for layer, res in pairs
            ],
            fuse_at=fuse_at,
            shared=shared_records,
        )
        if fused_key is not None:
            self.cache.stage(FUSED_STAGE).put(fused_key, result)
            if warm_key is not None:
                self.spill_cache(warm_key)
        return result

    def _absorb_result(
        self, design: Design, workload: Workload, result: EvaluationResult
    ) -> None:
        """Install an externally computed result into this evaluator's
        cache stages.

        Parallel fan-outs evaluate in worker processes, so the parent
        cache never sees their work; both stage values are sitting in
        the :class:`EvaluationResult` (its dense analysis and its
        record), though, and the content keys are cheap to re-derive.
        Entries already present are left alone (first-seen wins, like
        any other hit); a deserialized result has no record to install.
        """
        if self.cache is None:
            return
        dense = result.dense
        if dense is None or dense.mapping is None:
            return
        dense_key = dense_analysis_key(workload, design.arch, dense.mapping)
        if dense_key not in self.cache.dense:
            self.cache.dense.put(dense_key, replace(dense, workload=None))
        sparse_key = sparse_analysis_key(dense, design.safs, dense_key)
        if (
            sparse_key is not None
            and result.record is not None
            and sparse_key not in self.cache.sparse
        ):
            self.cache.sparse.put(sparse_key, result.record)

    # ------------------------------------------------------------------
    # Warm-worker cache shipping and the persistent tier

    def _export_cache_state(
        self,
        per_stage_limit: int | None = None,
        exclude_stages: tuple[str, ...] = (),
    ) -> dict | None:
        """Picklable snapshot of this evaluator's cache stages plus the
        process-global tile-format stage.

        ``per_stage_limit`` caps entries per stage (pool initializers
        pass the default shipping cap; persistent spills pass ``None``
        for everything). ``exclude_stages`` drops whole stages from the
        payload — search pools use it for the ``candidates`` stage,
        whose streams their workers can never read (shard workers get
        the materialised candidate stream). Returns ``None`` when
        caching is disabled (``cache=None``), so workers honour the
        parent's setting instead of silently re-enabling their own
        caches.
        """
        if self.cache is None:
            return None
        state = dict(self.cache.export_state(per_stage_limit))
        for name in exclude_stages:
            state.pop(name, None)
        tile = global_cache().stage(TILE_FORMAT_STAGE).export_entries(
            per_stage_limit
        )
        if tile:
            state[TILE_FORMAT_STAGE] = tile
        return state

    def warm_start(self, key: str | None = None) -> int:
        """Load the persistent snapshot ``key`` (default: the
        evaluator's ``persistent_key``) into the in-memory cache;
        returns the number of entries installed (0 when the persistent
        tier is unconfigured, caching is disabled, or no snapshot
        exists)."""
        key = key or self.persistent_key
        if self.persistent is None or self.cache is None or key is None:
            return 0
        self.persistent_key = key
        state = self.persistent.load(key)
        if not state:
            return 0
        return _install_cache_state(self.cache, state)

    def spill_cache(self, key: str | None = None) -> Path | None:
        """Spill the full in-memory cache state (all stages, no entry
        cap, plus the global tile-format stage) to the persistent store
        under ``key`` (default: ``persistent_key``); returns the
        snapshot path, or ``None`` when there is nothing to spill.

        A fully warm run — every entry restored from a snapshot,
        nothing newly computed — leaves the existing snapshot untouched
        instead of re-pickling identical content on the hot
        repeat-invocation path.
        """
        key = key or self.persistent_key
        if self.persistent is None or self.cache is None or key is None:
            return None
        self.persistent_key = key
        tile_stage = global_cache().stage(TILE_FORMAT_STAGE)
        path = self.persistent.path_for(key)
        if not self.cache.is_dirty() and not tile_stage.dirty and path.exists():
            return path  # fully warm: skip even the export
        state = self._export_cache_state(per_stage_limit=None)
        if not state:
            return None
        written = self.persistent.store(key, state)
        self.cache.mark_clean()
        tile_stage.dirty = False
        return written

    def spill_cache_all(self, keys: Sequence[str]) -> list[Path]:
        """Spill the current cache state under every key in ``keys``
        (one export serves them all); returns the snapshot paths.

        Unlike calling :meth:`spill_cache` in a loop, the dirty flag is
        cleared once at the end — a dirty cache is written under
        *every* key, so no key's snapshot is left stale just because an
        earlier spill in the same pass marked the cache clean. Keys
        whose snapshot already exists are skipped only when the cache
        holds nothing new.
        """
        if self.persistent is None or self.cache is None or not keys:
            return []
        tile_stage = global_cache().stage(TILE_FORMAT_STAGE)
        dirty = self.cache.is_dirty() or tile_stage.dirty
        stale = [
            key
            for key in keys
            if dirty or not self.persistent.path_for(key).exists()
        ]
        if not stale:
            return [self.persistent.path_for(key) for key in keys]
        state = self._export_cache_state(per_stage_limit=None)
        if not state:
            return []
        written = [self.persistent.store(key, state) for key in stale]
        self.cache.mark_clean()
        tile_stage.dirty = False
        return written

    def _run_pool(
        self,
        worker_fn,
        payloads: list,
        exclude_stages: tuple[str, ...] = (),
        shared: dict | None = None,
    ) -> list:
        """Map ``worker_fn`` over ``payloads`` in a process pool.

        The pool pins an explicit multiprocessing context —
        ``REPRO_MP_START_METHOD`` if set, else ``fork`` where available
        and ``spawn`` otherwise — so spawn-based platforms
        (macOS/Windows) run the same code path the fork-based tests
        exercise rather than whatever the platform default happens to
        be. Workers warm up from the persistent store (when configured)
        and the parent's shipped entries. Empty payload lists return
        immediately (``ProcessPoolExecutor`` rejects
        ``max_workers=0``).

        ``shared`` carries the fan-out's read-only state (evaluator,
        design, workload, candidates/jobs) to :data:`_WORKER_SHARED`
        through the initializer: it crosses the process boundary once
        per *worker* — by inheritance under fork, as part of the
        initargs pickle under spawn/forkserver — instead of riding in
        every task payload, which stays a tiny index range.
        """
        if not payloads:
            return []
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        context = mp.get_context(_pool_start_method())
        persistent = self.persistent if self.cache is not None else None
        with ProcessPoolExecutor(
            max_workers=len(payloads),
            mp_context=context,
            initializer=_warm_worker_initializer,
            initargs=(
                self._export_cache_state(
                    DEFAULT_EXPORT_LIMIT, exclude_stages=exclude_stages
                ),
                persistent,
                self.persistent_key,
                shared,
            ),
        ) as pool:
            return list(pool.map(worker_fn, payloads))


def _pool_start_method() -> str:
    """The multiprocessing start method for engine pools: the
    ``REPRO_MP_START_METHOD`` environment variable when set, else
    ``fork`` on Linux (cheap and inherits warm module state), else
    ``spawn``. macOS *offers* fork but CPython made spawn its default
    in 3.8 because forking there is unsafe (system frameworks may hold
    locks/threads), so fork is pinned only where it is actually sound —
    on spawn platforms the initializer-driven warm-up path carries the
    cache state instead."""
    import multiprocessing as mp
    import sys

    env = os.environ.get("REPRO_MP_START_METHOD")
    if env:
        return env
    if sys.platform.startswith("linux") and "fork" in mp.get_all_start_methods():
        return "fork"
    return "spawn"


def _workload_content_key(workload: Workload) -> bytes | None:
    """Content digest of one workload — einsum plus every tensor's
    density model — or ``None`` when any density model is uncacheable.
    Used to dedupe identical network layers before fan-out."""
    densities = density_digests(workload)
    if densities is None:
        return None
    return digest(spec_digest(workload.einsum) + densities)


def persistent_state_key(design: Design, workloads: Sequence[Workload]) -> str | None:
    """Snapshot identity for the persistent tier: the hex digest of the
    design's architecture and SAF digests and every workload's content
    digest. Returns ``None`` when any workload is uncacheable (no
    snapshot would ever hit). The digest deliberately excludes the
    mapping/constraints: snapshot entries are content-addressed
    internally, so a broader key only decides which snapshot file is
    consulted, never whether a stale entry can be served.
    """
    parts = [spec_digest(design.arch), spec_digest(design.safs)]
    for workload in workloads:
        key = _workload_content_key(workload)
        if key is None:
            return None
        parts.append(key)
    return digest(b"".join(parts)).hex()


def _install_cache_state(cache: AnalysisCache, state: dict) -> int:
    """Install an exported snapshot: tile-format entries go to the
    process-global stage, everything else into ``cache``. Returns the
    total number of entries installed."""
    state = dict(state)
    total = 0
    tile = state.pop(TILE_FORMAT_STAGE, None)
    if tile:
        total += global_cache().stage(TILE_FORMAT_STAGE).import_entries(tile)
    total += cache.import_state(state)
    return total


#: Cache installed by the pool initializer; worker chunk functions bind
#: it so every chunk in the process shares the parent-warmed entries.
#: ``_WORKER_CACHE_INSTALLED`` records that the initializer ran at all:
#: a ``None`` cache then means the parent runs uncached and workers
#: must too — :func:`_bind_worker_cache` *forces* ``cache=None`` in
#: that case rather than leaving whatever (e.g. fork-inherited) cache
#: the evaluator happened to carry.
_WORKER_CACHE: AnalysisCache | None = None
_WORKER_CACHE_INSTALLED = False

#: Read-only fan-out state installed by the pool initializer (the
#: zero-pickle worker protocol): evaluator, design, workload, and the
#: full candidate/job list of the current fan-out. Range workers slice
#: it by the index ranges their task payloads carry.
_WORKER_SHARED: dict | None = None


def _warm_worker_initializer(
    state: dict | None,
    persistent: PersistentCache | None = None,
    persistent_key: str | None = None,
    shared: dict | None = None,
) -> None:
    """Runs once per worker process: seed the process-global tile
    stage and build the shared per-process analysis cache, warming it
    first from the persistent store (when the parent configured one)
    and then from the parent's shipped entries. A ``None`` state means
    the parent runs uncached; workers then do too — the persistent
    tier is skipped as well, so disabling the cache really disables
    every tier. ``shared`` is the fan-out's read-only state for range
    workers (see :meth:`Evaluator._run_pool`)."""
    global _WORKER_CACHE, _WORKER_CACHE_INSTALLED, _WORKER_SHARED
    _WORKER_CACHE_INSTALLED = True
    _WORKER_SHARED = shared
    if state is None:
        _WORKER_CACHE = None
        return
    cache = AnalysisCache()
    if persistent is not None and persistent_key is not None:
        disk_state = persistent.load(persistent_key)
        if disk_state:
            _install_cache_state(cache, disk_state)
    _install_cache_state(cache, state)
    _WORKER_CACHE = cache


def _bind_worker_cache(evaluator: Evaluator) -> Evaluator:
    """Give a shipped (cache-stripped) evaluator its in-process cache —
    or explicitly none at all, mirroring the parent's ``cache=None``."""
    if not _WORKER_CACHE_INSTALLED:
        return evaluator
    return replace(evaluator, cache=_WORKER_CACHE)


def _serial_lookups(
    stage: StageCache | None, keys: Sequence
) -> tuple[dict[int, object], list[int], dict[int, list[int]]]:
    """Look a batch of ``keys`` up in ``stage`` with the accounting a
    serial get-or-compute loop would produce (``stage`` is ``None``
    only when every key is).

    Returns ``(hits, misses, followers)``: ``hits`` maps positions to
    cached values; ``misses`` lists the positions to compute — keyless
    ones and the first occurrence of each missing key; ``followers``
    maps such a first occurrence to the later positions sharing its
    key, which count as hits because the serial loop would have
    installed the first occurrence by then. (The LRU refresh of those
    hits is subsumed by the caller's put of the first occurrence.)
    """
    hits: dict[int, object] = {}
    misses: list[int] = []
    followers: dict[int, list[int]] = {}
    first_by_key: dict = {}
    for position, key in enumerate(keys):
        if key is None:
            misses.append(position)
        elif key in stage:  # peek: accounting handled per branch
            hits[position] = stage.get(key)  # counts the hit
        elif key in first_by_key:
            stage.hits += 1
            followers.setdefault(first_by_key[key], []).append(position)
        else:
            first_by_key[key] = position
            stage.misses += 1  # the serial get-before-compute miss
            misses.append(position)
    return hits, misses, followers


def _outcome(fn, *args):
    """``fn(*args)``, or the :class:`ReproError` it raised."""
    try:
        return fn(*args)
    except ReproError as exc:
        return exc


def _search_range_worker(payload):
    """Scan one ``(start, stop)`` shard of the installed fan-out's
    candidate stream (:data:`_WORKER_SHARED`) and return its partial
    Pareto frontier. A fresh mapper replays the shard's prefix, so its
    survivors get the global indices the in-process scan gives them."""
    start, stop = payload
    shared = _WORKER_SHARED
    evaluator = _bind_worker_cache(shared["evaluator"])
    design, workload = shared["design"], shared["workload"]
    mapper = (
        Mapper(workload.einsum, design.arch, design.constraints)
        if shared["witnesses"]
        else None
    )
    return evaluator._scan(
        design, workload, shared["candidates"], shared["objective"],
        mapper=mapper, batch_size=shared["batch_size"], start=start,
        stop=stop,
    ).frontier


def _evaluate_range_worker(payload):
    """Evaluate one job index range of the installed fan-out state
    (:data:`_WORKER_SHARED`) as one batch: a ``(result, error)`` pair
    per job."""
    start, stop = payload
    shared = _WORKER_SHARED
    evaluator = _bind_worker_cache(shared["evaluator"])
    return evaluator._evaluate_batch(shared["jobs"][start:stop])
