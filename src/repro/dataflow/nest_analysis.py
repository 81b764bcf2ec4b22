"""Dense loop-nest analysis: the Timeloop-style dataflow modeling step.

Given a workload Einsum, an architecture, and a mapping, this module
derives the *dense traffic*: uncompressed data movement per (storage
level, tensor) and the dense compute count (Sec 5.2). The sparse
modeling step later filters this traffic.

The analysis follows the classic stationarity model:

* The tile resident at level *L* for tensor *t* is the footprint of all
  loops at levels ≤ *L* (inner levels), projected through *t*'s rank
  projections.
* The tile is refetched once per iteration of the temporal loops
  outside *L*, counted from the outermost loop down to the innermost
  loop *relevant* to *t* — irrelevant loops inside that point leave the
  tile stationary.
* Spatial loops fan data out to child instances: loops over dims
  irrelevant to *t* multicast (one parent read feeds many children) or,
  for the output tensor, spatially reduce (drains merge in an adder
  tree).
* Output tensors additionally model drain traffic (partial tiles
  evicted upward at the end of each residency episode), refill traffic
  (partials re-fetched when reduction loops outside the level revisit a
  tile), and read-modify-write accumulation reads.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.arch.spec import Architecture
from repro.common.cache import digest, spec_digest
from repro.common.errors import MappingError
from repro.common.util import prod
from repro.mapping.mapping import Loop, Mapping
from repro.workload.einsum import EinsumSpec, TensorRef
from repro.workload.spec import Workload

#: Default backend for :func:`analyze_dataflow_batch`. Setting the
#: ``REPRO_SCALAR_DENSE`` environment variable to a truthy value forces
#: the scalar per-candidate oracle process-wide (mirroring
#: ``REPRO_SCALAR_SPARSE`` for the sparse stage); both backends are
#: bit-identical.
DENSE_VECTORIZED_DEFAULT = os.environ.get(
    "REPRO_SCALAR_DENSE", ""
).lower() in ("", "0", "false", "no", "off")


@dataclass
class TensorTraffic:
    """Dense traffic of one tensor at one storage level.

    All counts are totals across instances for the whole workload
    execution, in data *elements* (words). ``reads``/``writes`` are the
    grand totals; the remaining fields attribute subsets of them:
    ``fills`` (writes arriving from the parent), ``drains`` (output
    reads leaving to the parent), ``rmw_reads`` (accumulation
    read-modify-write reads), ``refill_writes`` (partial-sum tiles
    re-entering from the parent).
    """

    tensor: str
    level: str
    level_index: int
    tile_size: int
    tile_dim_extents: dict[str, int]
    tile_rank_extents: tuple[int, ...]
    instances: int
    episodes: float
    distinct: float
    reads: float = 0.0
    writes: float = 0.0
    fills: float = 0.0
    drains: float = 0.0
    rmw_reads: float = 0.0
    refill_writes: float = 0.0
    compute_feed_reads: float = 0.0
    update_writes: float = 0.0

    @property
    def transfer_reads(self) -> float:
        """Reads serving bulk tile transfers (not compute-feed/RMW)."""
        return self.reads - self.compute_feed_reads - self.rmw_reads


@dataclass
class DenseTraffic:
    """Full output of the dataflow modeling step.

    Equality compares the analysis itself: the mapping and every
    number. The ``workload`` and ``arch`` back-references are excluded,
    since a cache hit rebinds the caller's workload and a deserialized
    result carries no architecture.
    """

    workload: Workload = field(compare=False)
    arch: Architecture = field(compare=False)
    mapping: Mapping
    traffic: dict[tuple[str, str], TensorTraffic] = field(default_factory=dict)
    computes: int = 0
    utilized_compute_instances: int = 1
    #: Per tensor: dims (and extents) the operand latch holds the datum
    #: across — the innermost run of loops irrelevant to the tensor.
    #: This is the granularity at which compute-feed reads pair with
    #: other tensors' data (the leader-tile source, Fig. 10).
    latch_extents: dict[str, dict[str, int]] = field(default_factory=dict)
    #: The loop-structure view used by the sparse modeling step to
    #: derive leader tiles; populated by :func:`analyze_dataflow`.
    #: Excluded from equality: it is a derived view of (einsum, arch,
    #: mapping) and carries no state of its own — two analyses of the
    #: same mapping build distinct but interchangeable views.
    nest: object = field(default=None, repr=False, compare=False)

    def at(self, level: str, tensor: str) -> TensorTraffic:
        try:
            return self.traffic[(level, tensor)]
        except KeyError:
            raise KeyError(
                f"no traffic recorded for tensor {tensor!r} at level "
                f"{level!r}; kept levels: "
                f"{[k for k in self.traffic if k[1] == tensor]}"
            ) from None


def dense_analysis_key(
    workload: Workload, arch: Architecture, mapping: Mapping
) -> bytes:
    """Content digest of one dense dataflow analysis.

    Dense traffic depends only on the einsum's iteration space, the
    architecture, and the mapping — *not* on tensor densities — so the
    key deliberately omits the workload's density models. Two calls with
    equal keys produce numerically identical :class:`DenseTraffic`
    (modulo the ``workload`` back-reference), which is what lets the
    engine reuse one analysis across SAF variants of the same mapping.

    The einsum and architecture digests are memoised on the spec
    objects (:func:`~repro.common.cache.spec_digest`): a mapspace
    search keys hundreds of candidates against the same einsum and
    architecture, and only the mapping's ``repr`` is new work per
    candidate.
    """
    return digest(
        spec_digest(workload.einsum)
        + spec_digest(arch)
        + repr(mapping.cache_key()).encode()
    )


class _NestView:
    """Precomputed per-level loop structure shared by all tensors."""

    def __init__(self, einsum: EinsumSpec, arch: Architecture, mapping: Mapping):
        self.einsum = einsum
        self.arch = arch
        self.mapping = mapping
        # Storage levels indexed innermost = 0 ... outermost = N-1.
        self.num_levels = len(arch.levels)
        # mapping.levels is outermost-first; re-index.
        self.level_maps = list(reversed(mapping.levels))
        self.level_names = [lm.level for lm in self.level_maps]
        # Per level (inner-indexed): temporal loops (outer->inner), spatial loops.
        self.temporal: list[list[Loop]] = [
            list(lm.temporal) for lm in self.level_maps
        ]
        self.spatial: list[list[Loop]] = [
            list(lm.spatial) for lm in self.level_maps
        ]

    def tile_dim_extents(self, level_index: int) -> dict[str, int]:
        """Per-dimension footprint extents of the tile at ``level_index``.

        The tile covers all loops at levels <= level_index (temporal and
        spatial).
        """
        extents = {dim: 1 for dim in self.einsum.dims}
        for j in range(level_index + 1):
            for loop in self.temporal[j] + self.spatial[j]:
                extents[loop.dim] *= loop.bound
        return extents

    def instances_used(self, level_index: int) -> int:
        """Utilized instances of ``level_index`` = spatial fanout above it."""
        fanout = 1
        for j in range(level_index + 1, self.num_levels):
            for loop in self.spatial[j]:
                fanout *= loop.bound
        return fanout

    def compute_instances_used(self) -> int:
        fanout = 1
        for j in range(self.num_levels):
            for loop in self.spatial[j]:
                fanout *= loop.bound
        return fanout

    def outside_temporal(self, level_index: int) -> list[Loop]:
        """Temporal loops outside ``level_index``, outermost first."""
        loops: list[Loop] = []
        for j in range(self.num_levels - 1, level_index, -1):
            loops.extend(self.temporal[j])
        return loops

    def boundary_spatial(self, parent_index: int, child_index: int) -> list[Loop]:
        """Spatial loops between a parent level and a child level.

        These are the spatial loops at levels (child, parent], i.e. the
        fanout an access crosses travelling from parent to child.
        ``child_index`` may be -1 for the compute level.
        """
        loops: list[Loop] = []
        for j in range(child_index + 1, parent_index + 1):
            loops.extend(self.spatial[j])
        return loops

    def episode_span_extents(
        self, child_index: int, follower_dims: frozenset[str]
    ) -> dict[str, int]:
        """Per-dim extents of the iteration space one child-tile
        residency episode spans.

        A tile filled into ``child_index`` stays resident while loops
        inside the innermost follower-relevant outside loop iterate; the
        span covers the child tile itself plus those stationary loops.
        This is the granularity at which a transferred tile pairs with
        other tensors' data (leader tiles for transfer-level SAFs).
        """
        extents = dict(self.tile_dim_extents(child_index))
        outside = self.outside_temporal(child_index)
        innermost_relevant = -1
        for idx, loop in enumerate(outside):
            if loop.dim in follower_dims:
                innermost_relevant = idx
        for loop in outside[innermost_relevant + 1 :]:
            extents[loop.dim] = extents.get(loop.dim, 1) * loop.bound
        return extents

    def latch_extents(self, relevant_dims: frozenset[str]) -> dict[str, int]:
        """Operand-latch reuse span for a tensor (Fig. 10 semantics).

        Scanning the temporal nest from the innermost loop outward, the
        datum delivered to the compute unit stays latched while loops
        irrelevant to the tensor iterate. Returns the per-dim extents of
        that innermost irrelevant run (empty dict = no latch reuse).
        """
        extents: dict[str, int] = {}
        for j in range(self.num_levels):
            for loop in reversed(self.temporal[j]):
                if loop.dim in relevant_dims:
                    return extents
                extents[loop.dim] = extents.get(loop.dim, 1) * loop.bound
        return extents


def _episodes_and_distinct(
    outside: list[Loop], relevant_dims: frozenset[str]
) -> tuple[float, float]:
    """Stationarity analysis over the outside temporal loops.

    ``episodes`` multiplies bounds from the outermost loop down to the
    innermost relevant loop; ``distinct`` multiplies relevant loop
    bounds only.
    """
    episodes = 1.0
    distinct = 1.0
    # Find index of innermost relevant loop.
    innermost_relevant = -1
    for idx, loop in enumerate(outside):
        if loop.dim in relevant_dims:
            innermost_relevant = idx
            distinct *= loop.bound
    for idx, loop in enumerate(outside):
        if idx > innermost_relevant:
            break
        episodes *= loop.bound
    return episodes, distinct


def _multicast_factor(
    boundary: list[Loop],
    relevant_dims: frozenset[str],
    enabled: bool,
) -> float:
    """Fanout over which one parent access serves many children."""
    if not enabled:
        return 1.0
    factor = 1.0
    for loop in boundary:
        if loop.dim not in relevant_dims:
            factor *= loop.bound
    return factor


def analyze_dataflow(
    workload: Workload, arch: Architecture, mapping: Mapping
) -> DenseTraffic:
    """Run the dense dataflow modeling step.

    Returns per-(level, tensor) dense traffic and the dense compute
    count. Raises :class:`MappingError` if the mapping is structurally
    invalid.
    """
    einsum = workload.einsum
    mapping.validate(einsum, arch)
    nest = _NestView(einsum, arch, mapping)

    result = DenseTraffic(workload=workload, arch=arch, mapping=mapping)
    result.nest = nest
    result.computes = einsum.total_operations
    result.utilized_compute_instances = nest.compute_instances_used()

    for tensor in einsum.tensors:
        result.latch_extents[tensor.name] = nest.latch_extents(tensor.dims)
        chain = _keep_chain_indices(nest, tensor.name)
        if not chain:
            raise MappingError(
                f"tensor {tensor.name!r} kept at no level"
            )  # pragma: no cover - validate() already rejects this
        records = {
            idx: _make_record(nest, tensor, idx) for idx in chain
        }
        if tensor.is_output:
            _analyze_output(nest, tensor, chain, records)
        else:
            _analyze_operand(nest, tensor, chain, records)
        for idx, record in records.items():
            result.traffic[(record.level, tensor.name)] = record
    return result


def _keep_chain_indices(nest: _NestView, tensor: str) -> list[int]:
    """Indices (inner-first ordering) of levels keeping ``tensor``,
    returned outermost-first."""
    chain = [
        idx
        for idx in range(nest.num_levels - 1, -1, -1)
        if nest.level_maps[idx].keeps(tensor)
    ]
    return chain


def _make_record(
    nest: _NestView, tensor: TensorRef, level_index: int
) -> TensorTraffic:
    extents = nest.tile_dim_extents(level_index)
    outside = nest.outside_temporal(level_index)
    episodes, distinct = _episodes_and_distinct(outside, tensor.dims)
    return TensorTraffic(
        tensor=tensor.name,
        level=nest.level_names[level_index],
        level_index=level_index,
        tile_size=tensor.tile_size(extents),
        tile_dim_extents=extents,
        tile_rank_extents=tensor.tile_rank_extents(extents),
        instances=nest.instances_used(level_index),
        episodes=episodes,
        distinct=distinct,
    )


def _analyze_operand(
    nest: _NestView,
    tensor: TensorRef,
    chain: list[int],
    records: dict[int, TensorTraffic],
) -> None:
    """Traffic for an input tensor along its keep chain."""
    computes = nest.einsum.total_operations
    innermost = chain[-1]
    # Compute consumption: one element per compute, amortised by
    # multicast across the spatial fanout and by the operand latch
    # (the datum stays at the compute unit while innermost loops
    # irrelevant to the tensor iterate).
    boundary = nest.boundary_spatial(innermost, -1)
    multicast = _multicast_factor(
        boundary,
        tensor.dims,
        nest.arch.level(nest.level_names[innermost]).multicast,
    )
    latch = prod(nest.latch_extents(tensor.dims).values())
    feed = computes / multicast / latch
    records[innermost].reads += feed
    records[innermost].compute_feed_reads += feed

    # Parent -> child fills along the chain.
    for parent_idx, child_idx in zip(chain, chain[1:]):
        child = records[child_idx]
        fills = child.tile_size * child.instances * child.episodes
        child.writes += fills
        child.fills += fills
        boundary = nest.boundary_spatial(parent_idx, child_idx)
        multicast = _multicast_factor(
            boundary,
            tensor.dims,
            nest.arch.level(nest.level_names[parent_idx]).multicast,
        )
        records[parent_idx].reads += fills / multicast


def _analyze_output(
    nest: _NestView,
    tensor: TensorRef,
    chain: list[int],
    records: dict[int, TensorTraffic],
) -> None:
    """Traffic for the output tensor: updates, drains, refills, RMW."""
    computes = nest.einsum.total_operations
    innermost = chain[-1]
    outermost = chain[0]

    # Updates arriving from compute, merged across spatial reduction.
    # Accumulation in the resident tile is read-modify-write: arrivals
    # beyond the first per resident element (per episode) cost a read.
    boundary = nest.boundary_spatial(innermost, -1)
    reduction = _multicast_factor(
        boundary,
        tensor.dims,
        nest.arch.level(nest.level_names[innermost]).spatial_reduction,
    )
    inner = records[innermost]
    latch = prod(nest.latch_extents(tensor.dims).values())
    incoming = computes / reduction / latch
    inner.writes += incoming
    inner.update_writes += incoming
    # Only the first write of each element per *distinct* tile is free;
    # revisited (refilled) episodes accumulate onto restored partials,
    # so their first updates read-modify-write too.
    first_writes = inner.tile_size * inner.instances * inner.distinct
    rmw = max(0.0, incoming - first_writes)
    inner.rmw_reads += rmw
    inner.reads += rmw

    # Child -> parent drains and parent -> child refills along the chain.
    # Policy: a level that revisits an output tile refills the partials
    # from its parent, so every drain carries a complete version and the
    # parent overwrites (no RMW merge at the parent).
    for parent_idx, child_idx in zip(chain, chain[1:]):
        parent = records[parent_idx]
        child = records[child_idx]
        level = nest.arch.level(nest.level_names[parent_idx])
        boundary = nest.boundary_spatial(parent_idx, child_idx)
        reduction = _multicast_factor(
            boundary, tensor.dims, level.spatial_reduction
        )

        drains = child.tile_size * child.instances * child.episodes
        child.reads += drains
        child.drains += drains
        parent.writes += drains / reduction

        refills = (
            child.tile_size * child.instances * (child.episodes - child.distinct)
        )
        if refills > 0:
            child.writes += refills
            child.refill_writes += refills
            parent.reads += refills / reduction

    # The outermost keeping level never drains or refills further.
    assert records[outermost].drains == 0.0


# ----------------------------------------------------------------------
# Batched dense analysis
#
# A block of search candidates drawn from one mapspace shares the level
# order and keep sets, and each level's temporal/spatial loop-dim
# sequences are subsequences of one common order (the mapper emits a
# loop only when its tiling factor exceeds 1). Merging those sequences
# into a shared *slot layout* — one row per (level, kind, dim) — turns
# the whole block into an int64 factor matrix with absent slots padded
# to bound 1, and every per-candidate quantity of the scalar walk into
# a row product (tile extents, fanouts) or a cumulative-product gather
# (episode/latch stationarity, whose stopping points depend on which
# slots are actually present per candidate).
#
# Bit-identity with the scalar oracle holds because (a) every integer
# quantity is computed exactly (int64, guarded against overflow) and
# converts to float64 at the same expression positions as the scalar
# code, (b) every float64 product/accumulation multiplies the same
# operands in the same order — `np.multiply.accumulate` is sequential,
# and interleaving extra `* 1.0` factors for padded slots is exact
# (IEEE-754 `x * 1.0 == x`), and (c) stationarity stopping points are
# resolved per candidate from presence masks, so padded slots never
# shift them. Mappings carrying an explicit bound-1 loop are excluded
# (there a bound-1 loop is a real stopping point, not padding) and take
# the scalar path.


def analyze_dataflow_batch(
    jobs: Sequence[tuple[Workload, Architecture, Mapping]],
    *,
    vectorized: bool | None = None,
) -> list[DenseTraffic]:
    """Run :func:`analyze_dataflow` over many jobs at once.

    ``jobs`` is a sequence of ``(workload, arch, mapping)`` tuples;
    returns one :class:`DenseTraffic` per job, in order, numerically
    identical to calling the scalar entry point in a loop (which is
    exactly what the scalar backend does). ``vectorized`` selects the
    backend (default :data:`DENSE_VECTORIZED_DEFAULT`); the vectorized
    backend groups jobs sharing an einsum, architecture, and keep
    structure, merges their loop orders into one padded slot layout,
    and evaluates each group's dense traffic in stacked float64
    segments. Groups of one, conflicting loop orders, explicit bound-1
    loops, integer ranges that could overflow int64, and the scalar
    backend all fall back to the per-candidate oracle. Raises like the
    scalar path on the first structurally invalid mapping.
    """
    jobs = list(jobs)
    if vectorized is None:
        vectorized = DENSE_VECTORIZED_DEFAULT
    if not vectorized or len(jobs) < 2:
        return [analyze_dataflow(w, a, m) for (w, a, m) in jobs]
    groups: dict[tuple, list[int]] = {}
    for idx, (workload, arch, mapping) in enumerate(jobs):
        key = (
            spec_digest(workload.einsum),
            spec_digest(arch),
            tuple(
                (
                    lvl.level,
                    None if lvl.keep is None else frozenset(lvl.keep),
                )
                for lvl in mapping.levels
            ),
        )
        groups.setdefault(key, []).append(idx)
    results: list[DenseTraffic | None] = [None] * len(jobs)
    for indices in groups.values():
        if len(indices) >= 2:
            batch = _analyze_structure_group([jobs[i] for i in indices])
            if batch is not None:
                for i, dense in zip(indices, batch):
                    results[i] = dense
                continue
        for i in indices:
            workload, arch, mapping = jobs[i]
            results[i] = analyze_dataflow(workload, arch, mapping)
    return results


def analyze_fused_dataflow(
    jobs: Sequence[tuple[Workload, Architecture, Mapping]],
    *,
    fuse_at: str | None,
    shared: dict[str, tuple[int, list[int]]],
    vectorized: bool | None = None,
) -> list[DenseTraffic]:
    """Dense dataflow analysis of a fused einsum cascade.

    ``jobs`` holds one ``(workload, arch, mapping)`` per einsum in
    graph order, with the mappings already in fused form (intermediates
    kept at ``fuse_at`` as their outermost level — see
    :meth:`~repro.mapping.fused.FusedMapping.fused_levels`). ``shared``
    maps each intermediate tensor name to ``(producer_index,
    consumer_indices)`` into ``jobs``.

    The per-einsum traffic comes straight from the existing batched
    segment machinery (:func:`analyze_dataflow_batch`): because fusion
    is expressed in the keep sets, intermediate traffic outside
    ``fuse_at`` is zero by construction, and the tensor's residency is
    counted once — produced into the fusion level by its producer's
    drains, read out of it by each consumer's fills. What the batch
    cannot see is *cross-nest* consistency, checked here per
    intermediate:

    * producer and every consumer tile the tensor identically at
      ``fuse_at`` (same per-rank tile extents),
    * the consumer sees at most as many distinct tiles as the producer
      materialises (a consumer walking tiles the producer never made
      would read garbage).

    Raises :class:`MappingError` on any violation. With ``fuse_at``
    ``None`` (the degenerate form) this is exactly
    :func:`analyze_dataflow_batch`.
    """
    denses = analyze_dataflow_batch(jobs, vectorized=vectorized)
    if fuse_at is None:
        return denses
    for tensor, (producer, consumers) in shared.items():
        produced = denses[producer].traffic.get((fuse_at, tensor))
        if produced is None:
            raise MappingError(
                f"intermediate {tensor!r}: producer sub-nest keeps no "
                f"tile at fusion level {fuse_at!r}"
            )
        for consumer in consumers:
            consumed = denses[consumer].traffic.get((fuse_at, tensor))
            if consumed is None:
                raise MappingError(
                    f"intermediate {tensor!r}: consumer sub-nest keeps no "
                    f"tile at fusion level {fuse_at!r}"
                )
            if consumed.tile_rank_extents != produced.tile_rank_extents:
                raise MappingError(
                    f"intermediate {tensor!r} tiled differently at fusion "
                    f"level {fuse_at!r}: producer materialises "
                    f"{produced.tile_rank_extents}, consumer expects "
                    f"{consumed.tile_rank_extents}"
                )
            if consumed.distinct > produced.episodes:
                raise MappingError(
                    f"intermediate {tensor!r}: consumer walks "
                    f"{consumed.distinct} distinct tiles at {fuse_at!r} but "
                    f"the producer materialises only {produced.episodes}"
                )
    return denses


def _merge_orders(sequences: list[list[str]]) -> list[str] | None:
    """Merge dim sequences into one order containing each as a
    subsequence, or ``None`` when their relative orders conflict.

    Standard precedence topological sort; ties broken by first
    appearance so the result is deterministic.
    """
    appear: list[str] = []
    edges: dict[str, set[str]] = {}
    for seq in sequences:
        for d in seq:
            if d not in edges:
                edges[d] = set()
                appear.append(d)
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                if seq[i] == seq[j]:
                    return None  # duplicate dim (unreachable via Mapper)
                edges[seq[i]].add(seq[j])
    indegree = {d: 0 for d in appear}
    for d, succ in edges.items():
        for s in succ:
            indegree[s] += 1
    ready = [d for d in appear if indegree[d] == 0]
    merged: list[str] = []
    while ready:
        d = ready.pop(0)
        merged.append(d)
        for s in edges[d]:
            indegree[s] -= 1
            if indegree[s] == 0:
                ready.append(s)
        ready.sort(key=appear.index)
    if len(merged) != len(appear):
        return None  # cycle: irreconcilable loop orders
    return merged


def _analyze_structure_group(
    group: list[tuple[Workload, Architecture, Mapping]],
) -> list[DenseTraffic] | None:
    """Vectorized dense analysis of a compatible candidate group.

    Returns ``None`` when the group cannot take the padded-layout fast
    path (conflicting loop orders, explicit bound-1 loops, or integer
    ranges unsafe for int64); the caller then runs the scalar oracle.
    """
    einsum = group[0][0].einsum
    arch = group[0][1]
    for workload, job_arch, mapping in group:
        mapping.validate(workload.einsum, job_arch)
        for lvl in mapping.levels:
            for loop in lvl.loops():
                if loop.bound == 1:
                    # A literal bound-1 loop is a real stationarity
                    # stopping point; the padded layout would treat it
                    # as absent.
                    return None
    # int64 overflow guard: every integer this path multiplies is
    # bounded by (largest full-tensor tile) x (total spatial fanout),
    # and the fanout product of any dim's loops never exceeds its
    # bound, so the full iteration volume bounds the fanout.
    volume = einsum.total_operations
    full = dict(einsum.dims)
    max_tile = max(t.tile_size(full) for t in einsum.tensors)
    if max_tile * volume >= 2**62:
        return None

    num_levels = len(group[0][2].levels)
    # level index j is innermost = 0 (matching _NestView); mapping
    # levels are stored outermost first.
    level_names = [lm.level for lm in reversed(group[0][2].levels)]
    count = len(group)
    dims = list(einsum.dims)

    # Shared slot layout: per level, the merged temporal dim order and
    # merged spatial dim order across the group.
    temporal_dims_at: list[list[str]] = []
    spatial_dims_at: list[list[str]] = []
    for j in range(num_levels):
        t_merged = _merge_orders(
            [
                [l.dim for l in m.levels[num_levels - 1 - j].temporal]
                for (_w, _a, m) in group
            ]
        )
        s_merged = _merge_orders(
            [
                [l.dim for l in m.levels[num_levels - 1 - j].spatial]
                for (_w, _a, m) in group
            ]
        )
        if t_merged is None or s_merged is None:
            return None
        temporal_dims_at.append(t_merged)
        spatial_dims_at.append(s_merged)

    # Stacked factor matrix: one row per slot (innermost level first;
    # temporal then spatial within a level), one column per candidate;
    # slots absent from a candidate's mapping are padded to bound 1.
    pos_dim: list[str] = []
    temporal_at: list[list[int]] = []
    spatial_at: list[list[int]] = []
    slot_index: dict[tuple[int, str, str], int] = {}
    for j in range(num_levels):
        temporal_at.append(
            list(range(len(pos_dim), len(pos_dim) + len(temporal_dims_at[j])))
        )
        for d in temporal_dims_at[j]:
            slot_index[(j, "t", d)] = len(pos_dim)
            pos_dim.append(d)
        spatial_at.append(
            list(range(len(pos_dim), len(pos_dim) + len(spatial_dims_at[j])))
        )
        for d in spatial_dims_at[j]:
            slot_index[(j, "s", d)] = len(pos_dim)
            pos_dim.append(d)
    bounds = np.ones((len(pos_dim), count), dtype=np.int64)
    for c, (_w, _a, mapping) in enumerate(group):
        for j in range(num_levels):
            lm = mapping.levels[num_levels - 1 - j]
            for loop in lm.temporal:
                bounds[slot_index[(j, "t", loop.dim)], c] = loop.bound
            for loop in lm.spatial:
                bounds[slot_index[(j, "s", loop.dim)], c] = loop.bound
    fbounds = bounds.astype(np.float64)
    present = bounds > 1  # padded slots are exactly the bound-1 entries

    ones_i = np.ones(count, dtype=np.int64)
    cols = np.arange(count)

    # Cumulative per-dim tile extents at each level (loops at levels
    # <= j), mirroring _NestView.tile_dim_extents.
    ext_at: list[dict[str, np.ndarray]] = []
    running = {dim: ones_i for dim in dims}
    for j in range(num_levels):
        for k in temporal_at[j] + spatial_at[j]:
            d = pos_dim[k]
            running[d] = running[d] * bounds[k]
        ext_at.append(dict(running))

    # Utilized instances of level j = spatial fanout above it.
    above: list[np.ndarray] = [ones_i] * num_levels
    acc = ones_i
    for j in range(num_levels - 1, -1, -1):
        above[j] = acc
        for k in spatial_at[j]:
            acc = acc * bounds[k]
    compute_instances = acc  # fanout across every spatial loop

    # Temporal slots ordered outermost first (the `outside` walk order
    # of _episodes_and_distinct): for each record level j, the outside
    # loops are the first `outside_len[j]` rows of this sequence.
    outside_seq: list[int] = []
    outside_len = [0] * num_levels
    for j in range(num_levels - 1, -1, -1):
        outside_len[j] = len(outside_seq)
        outside_seq.extend(temporal_at[j])
    fb_out = fbounds[outside_seq] if outside_seq else np.ones((0, count))
    pres_out = present[outside_seq] if outside_seq else np.zeros(
        (0, count), dtype=bool
    )
    # cp_out[i] = sequential product of the first i outside bounds
    # (np.multiply.accumulate is strictly sequential, so the order of
    # float multiplies matches the scalar loop; padded 1.0s are exact).
    cp_out = np.ones((len(outside_seq) + 1, count))
    if outside_seq:
        np.multiply.accumulate(fb_out, axis=0, out=cp_out[1:])

    # Latch scan order: levels inner->outer, temporal loops reversed
    # within each level (_NestView.latch_extents).
    latch_seq: list[int] = []
    for j in range(num_levels):
        latch_seq.extend(reversed(temporal_at[j]))

    n_out = len(outside_seq)

    def stationarity_tables(
        relevant: frozenset[str],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per prefix length L of the outside sequence: the episode
        stop row (innermost relevant *present* loop per candidate) and
        the distinct product (relevant bounds, ascending order; padded
        and irrelevant rows contribute exact 1.0 factors)."""
        stops = np.zeros((n_out + 1, count), dtype=np.intp)
        dcp = np.ones((n_out + 1, count))
        if n_out:
            rel_rows = np.array(
                [pos_dim[k] in relevant for k in outside_seq]
            )
            marker = np.where(
                pres_out & rel_rows[:, None],
                np.arange(1, n_out + 1, dtype=np.intp)[:, None],
                0,
            )
            np.maximum.accumulate(marker, axis=0, out=stops[1:])
            dfac = np.where(rel_rows[:, None], fb_out, 1.0)
            np.multiply.accumulate(dfac, axis=0, out=dcp[1:])
        return stops, dcp

    def boundary_positions(parent_index: int, child_index: int) -> list[int]:
        out: list[int] = []
        for j in range(child_index + 1, parent_index + 1):
            out.extend(spatial_at[j])
        return out

    def multicast_col(
        boundary: list[int], relevant: frozenset[str], enabled: bool
    ):
        if not enabled:
            return 1.0
        factor = np.ones(count)
        for k in boundary:
            if pos_dim[k] not in relevant:
                factor = factor * fbounds[k]
        return factor

    def rank_extent_col(rank, j: int) -> np.ndarray:
        span = None
        for term in rank.terms:
            part = term.coefficient * (ext_at[j][term.dim] - 1)
            span = part if span is None else span + part
        return span + 1

    computes = einsum.total_operations

    def add(acc_map: dict[str, np.ndarray], name: str, term) -> None:
        prev = acc_map.get(name)
        acc_map[name] = term if prev is None else prev + term

    per_tensor: list[tuple[TensorRef, list[int], dict[int, dict]]] = []
    latch_scatter: dict[str, list[dict[str, int]]] = {}
    keeps_at = [
        group[0][2].levels[num_levels - 1 - j] for j in range(num_levels)
    ]
    for tensor in einsum.tensors:
        relevant = tensor.dims
        # Latch run per candidate: scan the shared sequence, skipping
        # padded slots (absent from the real nest); a *present* relevant
        # loop stops the scan. Mirrors _NestView.latch_extents exactly.
        latch_dicts: list[dict[str, int]] = []
        latch_vals = np.empty(count, dtype=np.int64)
        rel_latch = [pos_dim[k] in relevant for k in latch_seq]
        b_latch = bounds[latch_seq] if latch_seq else np.ones(
            (0, count), dtype=np.int64
        )
        for c in range(count):
            extents: dict[str, int] = {}
            value = 1
            for i, k in enumerate(latch_seq):
                b = int(b_latch[i, c])
                if b == 1:
                    continue  # padded slot: loop absent from this nest
                if rel_latch[i]:
                    break
                d = pos_dim[k]
                extents[d] = extents.get(d, 1) * b
                value *= b
            latch_dicts.append(extents)
            latch_vals[c] = value
        latch_scatter[tensor.name] = latch_dicts
        latch = latch_vals

        chain = [
            j
            for j in range(num_levels - 1, -1, -1)
            if keeps_at[j].keeps(tensor.name)
        ]
        stops, dcp = stationarity_tables(relevant)
        recs: dict[int, dict] = {}
        for j in chain:
            rank_exts = [rank_extent_col(r, j) for r in tensor.ranks]
            tile = ones_i
            for e in rank_exts:
                tile = tile * e
            length = outside_len[j]
            episodes = cp_out[stops[length], cols]
            distinct = dcp[length]
            recs[j] = {
                "tile": tile,
                "rank_exts": rank_exts,
                "instances": above[j],
                "episodes": episodes,
                "distinct": distinct,
                "acc": {},
            }

        innermost = chain[-1]
        if not tensor.is_output:
            mc = multicast_col(
                boundary_positions(innermost, -1),
                relevant,
                arch.level(level_names[innermost]).multicast,
            )
            feed = np.float64(computes) / mc / latch
            add(recs[innermost]["acc"], "reads", feed)
            add(recs[innermost]["acc"], "compute_feed_reads", feed)
            for parent_j, child_j in zip(chain, chain[1:]):
                child = recs[child_j]
                fills = (child["tile"] * child["instances"]) * child[
                    "episodes"
                ]
                add(child["acc"], "writes", fills)
                add(child["acc"], "fills", fills)
                mc = multicast_col(
                    boundary_positions(parent_j, child_j),
                    relevant,
                    arch.level(level_names[parent_j]).multicast,
                )
                add(recs[parent_j]["acc"], "reads", fills / mc)
        else:
            reduction = multicast_col(
                boundary_positions(innermost, -1),
                relevant,
                arch.level(level_names[innermost]).spatial_reduction,
            )
            inner = recs[innermost]
            incoming = np.float64(computes) / reduction / latch
            add(inner["acc"], "writes", incoming)
            add(inner["acc"], "update_writes", incoming)
            first_writes = (inner["tile"] * inner["instances"]) * inner[
                "distinct"
            ]
            rmw = np.maximum(0.0, incoming - first_writes)
            add(inner["acc"], "rmw_reads", rmw)
            add(inner["acc"], "reads", rmw)
            for parent_j, child_j in zip(chain, chain[1:]):
                parent, child = recs[parent_j], recs[child_j]
                reduction = multicast_col(
                    boundary_positions(parent_j, child_j),
                    relevant,
                    arch.level(level_names[parent_j]).spatial_reduction,
                )
                drains = (child["tile"] * child["instances"]) * child[
                    "episodes"
                ]
                add(child["acc"], "reads", drains)
                add(child["acc"], "drains", drains)
                add(parent["acc"], "writes", drains / reduction)
                refills = (child["tile"] * child["instances"]) * (
                    child["episodes"] - child["distinct"]
                )
                mask = refills > 0
                if mask.any():
                    # Candidates whose refill count is zero add nothing
                    # (exactly the scalar `if refills > 0` gate; adding
                    # 0.0 to a non-negative accumulator is bit-exact).
                    gated = np.where(mask, refills, 0.0)
                    add(child["acc"], "writes", gated)
                    add(child["acc"], "refill_writes", gated)
                    add(
                        parent["acc"],
                        "reads",
                        np.where(mask, refills / reduction, 0.0),
                    )
        per_tensor.append((tensor, chain, recs))

    # ------------------------------------------------------------------
    # Scatter: per-candidate record objects from the stacked columns.
    needed_levels = sorted({j for _, chain, _ in per_tensor for j in chain})
    ext_lists = {
        j: {dim: ext_at[j][dim].tolist() for dim in dims}
        for j in needed_levels
    }
    # One tile_dim_extents dict per (level, candidate), shared by every
    # tensor kept there (the records treat it as read-only).
    tde: dict[int, list[dict[str, int]]] = {
        j: [
            {dim: ext_lists[j][dim][c] for dim in dims}
            for c in range(count)
        ]
        for j in needed_levels
    }
    compute_instances_l = compute_instances.tolist()

    scattered: list[tuple[TensorRef, list[int], dict[int, dict]]] = []
    accumulator_fields = (
        "reads",
        "writes",
        "fills",
        "drains",
        "rmw_reads",
        "refill_writes",
        "compute_feed_reads",
        "update_writes",
    )
    for tensor, chain, recs in per_tensor:
        rec_lists: dict[int, dict] = {}
        for j, rec in recs.items():
            rank_lists = [e.tolist() for e in rec["rank_exts"]]
            rec_lists[j] = {
                "tile": rec["tile"].tolist(),
                "rank_exts": (
                    list(zip(*rank_lists)) if rank_lists else [()] * count
                ),
                "instances": rec["instances"].tolist(),
                "episodes": rec["episodes"].tolist(),
                "distinct": rec["distinct"].tolist(),
                "acc": {
                    name: col.tolist()
                    for name, col in rec["acc"].items()
                },
            }
        scattered.append((tensor, chain, rec_lists))

    results: list[DenseTraffic] = []
    for c, (workload, job_arch, mapping) in enumerate(group):
        result = DenseTraffic(
            workload=workload, arch=job_arch, mapping=mapping
        )
        result.nest = _NestView(workload.einsum, job_arch, mapping)
        result.computes = computes
        result.utilized_compute_instances = compute_instances_l[c]
        for tensor, chain, rec_lists in scattered:
            result.latch_extents[tensor.name] = latch_scatter[tensor.name][c]
            for j in chain:
                rec = rec_lists[j]
                acc = rec["acc"]
                record = TensorTraffic(
                    tensor=tensor.name,
                    level=level_names[j],
                    level_index=j,
                    tile_size=rec["tile"][c],
                    tile_dim_extents=tde[j][c],
                    tile_rank_extents=rec["rank_exts"][c],
                    instances=rec["instances"][c],
                    episodes=rec["episodes"][c],
                    distinct=rec["distinct"][c],
                )
                for name in accumulator_fields:
                    col = acc.get(name)
                    if col is not None:
                        setattr(record, name, col[c])
                result.traffic[(level_names[j], tensor.name)] = record
        results.append(result)
    return results
