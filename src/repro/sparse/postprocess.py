"""Traffic post-processing (Sec 5.3.5): assemble the sparse traffic.

Combines the three analyzers — format analyzer, gating/skipping
analyzer, and the dense dataflow traffic — into per-(level, tensor)
fine-grained action counts. Per-tile effects are evaluated locally and
scaled by the number of tiles moved, and SAF interactions are resolved
here (e.g. format metadata skipped along with skipped data transfers).

One walk, three pairings
------------------------

The walk over (level, tensor) flows (:func:`_walk`) is *descriptive*:
it decides which dense totals split under which classification,
format scaling, and residue rule. It asks a *resolver* for
classifications, formats and densities, and hands every piece of
arithmetic to an *emitter*:

* :class:`_Resolver` with :class:`_ScalarEmitter` resolves every query
  on the spot and computes each split immediately with the original
  scalar helpers (:func:`_data_split`, :func:`_metadata_split`) — this
  is the equivalence oracle, selected with
  ``analyze_sparse(..., vectorized=False)``.
* :class:`_Resolver` with :class:`_BatchEmitter` records every flow of
  the whole loop nest into :class:`_SlotTable` slots and evaluates all
  of them in one set of elementwise numpy operations at flush time,
  then scatters the results into flat accumulators in emission order:
  the record action part (:mod:`repro.sparse.traffic`), with no
  :class:`~repro.sparse.traffic.LevelTensorActions` built.
* :class:`_PlanBuilder` is both resolver and emitter: it records which
  query and which row each answer would come from, and the result is a
  :class:`SparsePlan`.

All paths are bit-identical: the batched expressions mirror the
scalar formulas operation for operation (IEEE-754 elementwise, one
helper, :func:`_split_columns`, for the batch flush and the plan), and
the scatter preserves per-accumulator addition order. The default is
the vectorized path; set the ``REPRO_SCALAR_SPARSE`` environment
variable (or pass ``vectorized=False``) to force the oracle.

The emitter contract extends *across* loop nests: because rows are
stored column-wise and the scatter replays per-accumulator emission
order, one :class:`_BatchEmitter` can record the flows of **many**
analyses — e.g. every surviving candidate mapping of one mapspace
search block — and evaluate them all in a single stacked numpy pass.
:func:`analyze_sparse_batch` does exactly that: each analysis owns its
own accumulators, elementwise float64 operations are
position-independent, and the scatter preserves each accumulator's
addition order, so the stacked results are bit-identical to running
:func:`analyze_sparse` once per analysis.

Both return :class:`~repro.sparse.traffic.SparseTraffic` objects (the
oracle's directly), or, with ``packed=True`` as the engine asks, the
record action part itself.

Planned walk
------------

Which flows exist, which SAF leaders pair with them at which tile
shapes, and which formats apply depend only on (einsum, architecture,
mapping, SAFs); only the probabilities depend on densities. A
:class:`SparsePlan` is that density-free structure, built once by a
recording walk (:meth:`SparsePlan.build`), with each slot's tile format
compiled into per-rank integers
(:func:`~repro.sparse.format_analyzer.compile_tile_format`). Evaluating
it (:meth:`SparsePlan.evaluate`) answers one value table
of density queries — densities, leader tiles' P(nonempty), and the
format ranks' P(nonempty) and tile quantiles — computes each slot's
format scalings with the format analyzer's own per-rank loop and
:func:`~repro.sparse.format_analyzer.format_scalars` (no tile-format
stage lookup), then runs the split arithmetic as numpy gathers over the
same expressions as the batch flush. A plan holds no workload, density
model or format object, only tuples of atomics and numpy arrays, so one
plan serves every density point of a mapping, and a cached plan keeps
almost nothing alive for the cyclic collector. The engine caches plans
in its ``"plan"`` stage under :func:`sparse_plan_key`. The walk keeps
resolving formats through
:func:`~repro.sparse.format_analyzer.analyze_tile_format` and its
stage, whose flat tuple it hands to the same ``format_scalars``.

:func:`sparse_analysis_key` derives the content key under which the
engine's ``"sparse"`` cache stage memoises a whole evaluation record
(see :mod:`repro.common.cache`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.common.cache import digest, spec_digest
from repro.common.util import prod
from repro.dataflow.nest_analysis import DenseTraffic, dense_analysis_key
from repro.sparse.density import DensityModel, UniformDensity
from repro.sparse.format_analyzer import (
    analyze_tile_format,
    compile_tile_format,
    format_scalars,
    occupancy_terms,
)
from repro.sparse.formats import dense_format
from repro.sparse.gating_skipping import (
    FlowClassification,
    GatingSkippingAnalyzer,
    LeaderQuery,
    combine_keeps,
    leader_groups,
)
from repro.sparse.saf import SAFSpec
from repro.sparse.traffic import (
    DATA_READS,
    DATA_WRITES,
    GATED,
    METADATA_READS,
    METADATA_WRITES,
    SKIPPED,
    SLOT_ACTIONS,
    ActionBreakdown,
    SparseTraffic,
    action_part,
    pack_sparse,
    unpack_sparse,
)
from repro.workload.einsum import TensorRef
from repro.workload.spec import Workload

#: Default backend for :func:`analyze_sparse`. The scalar oracle can be
#: forced process-wide by setting ``REPRO_SCALAR_SPARSE`` to anything
#: but an explicit falsy value ("", "0", "false", "no", "off").
VECTORIZED_DEFAULT = os.environ.get("REPRO_SCALAR_SPARSE", "").lower() in (
    "", "0", "false", "no", "off",
)

#: The engine's cache stage of :class:`SparsePlan` values.
PLAN_STAGE = "plan"


def ensure_output_density(workload: Workload) -> None:
    """Derive the output tensor's density when the user left it unset.

    An output element is nonzero if any of its reduction contributions
    is effectual: ``d_out = 1 - (1 - prod(d_in)) ** reduction_volume``
    under independence. Users can override by supplying an explicit
    density model for the output.
    """
    out = workload.einsum.output
    if out.name in workload.densities:
        return
    d_eff = 1.0
    for tensor in workload.einsum.inputs:
        d_eff *= workload.density_of(tensor.name).density
    reduction_volume = prod(
        bound
        for dim, bound in workload.einsum.dims.items()
        if dim in workload.einsum.reduction_dims
    )
    d_out = 1.0 - (1.0 - d_eff) ** reduction_volume
    workload.densities[out.name] = UniformDensity(
        d_out, workload.einsum.tensor_size(out.name)
    )


def density_digests(workload: Workload) -> bytes | None:
    """Every tensor's density digest joined in the einsum's tensor
    order (which the einsum digest beside it pins), or ``None`` when any
    density model is uncacheable. Derives the output density first
    (idempotent) so it participates.
    """
    ensure_output_density(workload)
    parts = []
    for tensor in workload.einsum.tensors:
        part = spec_digest(workload.density_of(tensor.name))
        if part is None:
            return None
        parts.append(part)
    return b"".join(parts)


def sparse_analysis_key(
    dense: DenseTraffic, safs: SAFSpec, dense_key: bytes | None = None
) -> bytes | None:
    """Content digest of one whole sparse analysis, or ``None``.

    A :class:`SparseTraffic` is fully determined by the dense analysis
    content (einsum, architecture, mapping), the SAF specification, and
    every tensor's density model, so the key digests the dense key,
    the SAF digest and the density digests. Returns ``None`` —
    uncacheable — when any density model does not expose a content
    key. Callers that already hold the dense key (the engine's dense
    stage returns it) pass it as ``dense_key`` to skip recomputing it.
    """
    densities = density_digests(dense.workload)
    if densities is None:
        return None
    if dense_key is None:
        dense_key = dense_analysis_key(dense.workload, dense.arch, dense.mapping)
    return digest(dense_key + spec_digest(safs) + densities)


def sparse_plan_key(dense_key: bytes, safs: SAFSpec) -> bytes:
    """Content digest of a :class:`SparsePlan`: the dense key (einsum,
    architecture, mapping) and the SAF digest, without densities."""
    return digest(dense_key + spec_digest(safs))


class _LevelFormatInfo:
    """Cached per-(level, tensor) format scaling factors (the walk's;
    a plan computes the same five scalars without this object)."""

    __slots__ = (
        "compressed",
        "payload_fraction",
        "metadata_words_per_element",
        "occupancy_words",
        "worst_occupancy_words",
        "compression_rate",
    )

    def __init__(
        self,
        compressed: bool,
        scalars: tuple[float, float, float, float, float],
    ):
        self.compressed = compressed
        (
            self.payload_fraction,
            self.metadata_words_per_element,
            self.occupancy_words,
            self.worst_occupancy_words,
            self.compression_rate,
        ) = scalars


def _is_compressed(safs: SAFSpec, level: str, tensor: str) -> bool:
    spec = safs.format_for(level, tensor)
    return spec is not None and spec.is_compressed


def _format_info(
    safs: SAFSpec,
    level: str,
    tensor: str,
    rank_extents: tuple[int, ...],
    density: DensityModel,
    word_bits: int,
    metadata_word_bits: int,
    compressed: bool,
) -> _LevelFormatInfo:
    """Format scaling of ``tensor``'s tile at ``level``: the SAF
    spec's format there (``compressed`` per :func:`_is_compressed`),
    uncompressed when it names none."""
    fmt = safs.format_for(level, tensor) or dense_format(len(rank_extents))
    tile = analyze_tile_format(fmt, rank_extents, density)
    return _LevelFormatInfo(
        compressed,
        format_scalars(
            tile[0], tile[1:], word_bits, metadata_word_bits, compressed
        ),
    )


# ----------------------------------------------------------------------
# Split arithmetic: scalar oracle helpers, the shared column formulas,
# and the two emitters.


def _data_split(
    total: float,
    cls: FlowClassification,
    payload_fraction: float,
    residue: str = "skip",
) -> ActionBreakdown:
    """Split dense data traffic into fine-grained actions.

    ``cls`` carries SAF-driven elimination; ``payload_fraction`` is the
    share of positions a compressed format materialises. The
    compressed-away residue costs nothing on bulk transfers
    (``residue='skip'``); on positional compute-feed accesses without
    skipping hardware the unit idles through them (``residue='gate'``,
    the bitmask-design behaviour of Fig. 1).
    """
    actual = total * cls.actual * payload_fraction
    if residue == "gate":
        gated = total * (cls.gated + cls.actual * (1.0 - payload_fraction))
    else:
        gated = total * cls.gated * payload_fraction
    skipped = max(0.0, total - actual - gated)
    return ActionBreakdown(actual=actual, gated=gated, skipped=skipped)


def _metadata_split(
    total_dense: float,
    cls: FlowClassification,
    info: _LevelFormatInfo,
    positional: bool = False,
) -> ActionBreakdown:
    """Metadata traffic accompanying data traffic.

    For bulk transfers, a skipped tile's metadata never moves either.
    For positional (compute-feed) streams the intersection/positioning
    hardware walks the *entire* stored metadata stream — deciding to
    skip a position still requires reading its encoding — so the full
    (compressed) metadata volume is charged as actual.
    """
    total_meta = total_dense * info.metadata_words_per_element
    if positional:
        return ActionBreakdown(actual=total_meta, gated=0.0, skipped=0.0)
    return ActionBreakdown(
        actual=total_meta * (cls.actual + cls.gated),
        gated=0.0,
        skipped=total_meta * cls.skipped,
    )


def _walked_checks(
    feed: float, own_density: float, leader_density: float
) -> float:
    """Intersection checks of a compute feed: the unit merges the two
    *compressed* coordinate streams, touching ~(nnz_follower +
    nnz_leader) entries rather than every dense position."""
    return feed * min(1.0, own_density + leader_density)


def _rmw_split(
    updates: float, rmw: float, actual: float
) -> tuple[float, float, float]:
    """Accumulation (read-modify-write) reads: every surviving update
    beyond each element's first write per episode reads the partial.
    The first writes are a fixed count (tile establishment), so they
    are subtracted from the surviving updates, not scaled."""
    first_writes = updates - rmw
    rmw_actual = max(0.0, updates * actual - first_writes)
    return rmw_actual, 0.0, max(0.0, rmw - rmw_actual)


def _set_compute(
    sparse: SparseTraffic,
    computes: float,
    actual: float,
    gated: float,
    skipped: float,
) -> None:
    sparse.compute = ActionBreakdown.split(computes, actual, gated)
    sparse.compute_fractions = (actual, gated, skipped)


def _set_occupancy(actions, info: _LevelFormatInfo) -> None:
    actions.occupancy_words = info.occupancy_words
    actions.worst_occupancy_words = info.worst_occupancy_words
    actions.compression_rate = info.compression_rate


#: Sub-batch tags of the batch emitter and the plan. Rows are grouped
#: by formula at emission time so the flush runs each formula once
#: over a dense column block — no masks, no branches.
_DATA_SKIP = 0  # data split, skip residue (also plain splits, p = 1)
_DATA_GATE = 1  # data split, gate residue
_META_BULK = 2  # metadata accompanying bulk transfers
_META_POS = 3  # positional metadata (full stream charged actual)
_RAW = 4  # precomputed components pass straight through


def _split_columns(data_skip, data_gate, meta_bulk, meta_pos) -> list[tuple]:
    """The four split formulas over float64 column arrays.

    Each argument is one tag's columns — ``(t, fa, fg, p)`` for the
    data tags, ``(t, fa, fg, fs, w)`` for bulk metadata, ``(t, w)`` for
    positional metadata — or ``None`` when the tag has no rows. Returns
    each tag's ``(actual, gated, skipped)`` as lists (``tolist()``
    round-trips float64 to Python floats exactly), with the float
    ``0.0`` standing for a component the formula never produces. The
    expressions mirror :func:`_data_split` and :func:`_metadata_split`
    operation for operation.
    """
    results: list[tuple] = [([], 0.0, 0.0)] * 4
    if data_skip is not None:
        t, fa, fg, p = data_skip
        a = t * fa * p
        g = t * fg * p
        s = np.maximum(0.0, t - a - g)
        results[_DATA_SKIP] = (a.tolist(), g.tolist(), s.tolist())
    if data_gate is not None:
        t, fa, fg, p = data_gate
        a = t * fa * p
        g = t * (fg + fa * (1.0 - p))
        s = np.maximum(0.0, t - a - g)
        results[_DATA_GATE] = (a.tolist(), g.tolist(), s.tolist())
    if meta_bulk is not None:
        t, fa, fg, fs, w = meta_bulk
        tm = t * w
        a = tm * (fa + fg)
        s = tm * fs
        # gated metadata does not exist: a gated access still moves
        # its encoding with the tile.
        results[_META_BULK] = (a.tolist(), 0.0, s.tolist())
    if meta_pos is not None:
        t, w = meta_pos
        results[_META_POS] = ((t * w).tolist(), 0.0, 0.0)
    return results


def _scatter(results: list[tuple], order, size: int) -> list[float]:
    """Replay ``order``'s ``(tag, row, target)*`` triples into ``size``
    zeroed accumulators: each target takes its row's actual, gated and
    skipped at ``target``, ``target + GATED`` and ``target + SKIPPED``,
    adding in emission order, as the scalar oracle's breakdowns do."""
    acc = [0.0] * size
    entries = iter(order)
    for tag, row, target in zip(entries, entries, entries):
        a, g, s = results[tag]
        acc[target] += a[row]
        acc[target + GATED] += g if isinstance(g, float) else g[row]
        acc[target + SKIPPED] += s if isinstance(s, float) else s[row]
    return acc


class _Slot:
    """One ``(level, tensor)`` slot of the stacked walk and the plan
    builder, standing in for :class:`LevelTensorActions`: each channel
    is the accumulator index of its actual count (gated and skipped
    follow it), the scalars are plain attributes."""

    __slots__ = (
        "level", "tensor", "index",
        "data_reads", "data_writes", "metadata_reads", "metadata_writes",
        "occupancy_words", "worst_occupancy_words", "compression_rate",
        "intersection_checks",
    )

    def __init__(self, level: str, tensor: str, index: int, target: int):
        self.level = level
        self.tensor = tensor
        self.index = index
        self.data_reads = target + DATA_READS
        self.data_writes = target + DATA_WRITES
        self.metadata_reads = target + METADATA_READS
        self.metadata_writes = target + METADATA_WRITES
        self.occupancy_words = 0.0
        self.worst_occupancy_words = 0.0
        self.compression_rate = 1.0
        self.intersection_checks = 0.0


class _SlotTable:
    """The walk's result slots in first-``at()`` order, allocating
    :data:`~repro.sparse.traffic.SLOT_ACTIONS` accumulators per slot
    from ``start`` on, so one emitter can stack the walks of many
    analyses. ``compute`` is ``(dense computes, (actual, gated,
    skipped))``."""

    __slots__ = ("slots", "start", "end", "compute")

    def __init__(self, start: int = 0):
        self.slots: dict[tuple[str, str], _Slot] = {}
        self.start = self.end = start
        self.compute: tuple | None = None

    def at(self, level: str, tensor: str) -> _Slot:
        slot = self.slots.get((level, tensor))
        if slot is None:
            slot = self.slots[level, tensor] = _Slot(
                level, tensor, len(self.slots), self.end
            )
            self.end += SLOT_ACTIONS
        return slot

    def actions(self, acc: list[float]) -> tuple[tuple[str, ...], list[float]]:
        """The record action part (:mod:`repro.sparse.traffic`) from
        the flushed accumulators."""
        computes, fractions = self.compute
        values = action_part(
            computes,
            fractions,
            acc,
            self.start,
            [
                (
                    slot.occupancy_words,
                    slot.worst_occupancy_words,
                    slot.compression_rate,
                    slot.intersection_checks,
                )
                for slot in self.slots.values()
            ],
        )
        return tuple([name for key in self.slots for name in key]), values


class _Emitter:
    """The effects both oracle emitters apply on the spot: they touch
    accumulators nothing else adds to in between."""

    __slots__ = ()

    def checks(self, actions, count):
        actions.intersection_checks += count

    def walked_checks(self, actions, feed, own_density, leader_density):
        actions.intersection_checks += _walked_checks(
            feed, own_density, leader_density
        )

    def rmw(self, breakdown, updates, rmw, cls):
        self.raw(breakdown, *_rmw_split(updates, rmw, cls.actual))

    def occupancy(self, actions, info):
        _set_occupancy(actions, info)


class _ScalarEmitter(_Emitter):
    """Immediate per-flow arithmetic into the walk's
    :class:`SparseTraffic` objects — the equivalence oracle."""

    __slots__ = ()

    def compute(self, sparse, computes, cls):
        _set_compute(sparse, computes, cls.actual, cls.gated, cls.skipped)

    def data(self, breakdown, total, cls, info, residue="skip"):
        breakdown.add(_data_split(total, cls, info.payload_fraction, residue))

    def metadata(self, breakdown, total_dense, cls, info, positional=False):
        breakdown.add(_metadata_split(total_dense, cls, info, positional))

    def split(self, breakdown, total, cls):
        breakdown.add(ActionBreakdown.split(total, cls.actual, cls.gated))

    def raw(self, breakdown, actual, gated, skipped):
        breakdown.add(
            ActionBreakdown(actual=actual, gated=gated, skipped=skipped)
        )


class _BatchEmitter(_Emitter):
    """Deferred arithmetic: one numpy evaluation for many walks.

    Walks record into :class:`_SlotTable` slots whose channels are
    accumulator indices. Rows are stored column-wise in per-formula
    sub-batches; ``flush`` evaluates each formula with elementwise
    float64 operations that mirror the scalar helpers operation for
    operation, then scatters the results into flat accumulators in
    emission order, so per-accumulator addition order matches the
    scalar path exactly (bit-identical results).
    """

    __slots__ = ("order", "batches")

    def __init__(self):
        #: (tag, row index within sub-batch, target accumulator)*, in
        #: emission order — the scatter replays this sequence.
        self.order: list[int] = []
        self.batches = (
            ([], [], [], []),  # _DATA_SKIP: t, fa, fg, payload
            ([], [], [], []),  # _DATA_GATE: t, fa, fg, payload
            ([], [], [], [], []),  # _META_BULK: t, fa, fg, fs, words/elem
            ([], []),  # _META_POS: t, words/elem
            ([], [], []),  # _RAW: actual, gated, skipped
        )

    def compute(self, table, computes, cls):
        table.compute = (computes, (cls.actual, cls.gated, cls.skipped))

    def data(self, target, total, cls, info, residue="skip"):
        tag = _DATA_GATE if residue == "gate" else _DATA_SKIP
        t, fa, fg, p = self.batches[tag]
        self.order += (tag, len(t), target)
        t.append(total)
        fa.append(cls.actual)
        fg.append(cls.gated)
        p.append(info.payload_fraction)

    def metadata(self, target, total_dense, cls, info, positional=False):
        if positional:
            t, w = self.batches[_META_POS]
            self.order += (_META_POS, len(t), target)
            t.append(total_dense)
            w.append(info.metadata_words_per_element)
            return
        t, fa, fg, fs, w = self.batches[_META_BULK]
        self.order += (_META_BULK, len(t), target)
        t.append(total_dense)
        fa.append(cls.actual)
        fg.append(cls.gated)
        fs.append(cls.skipped)
        w.append(info.metadata_words_per_element)

    def split(self, target, total, cls):
        # total * f * 1.0 is IEEE-identical to total * f, so a plain
        # fraction split is a data split with unit payload.
        t, fa, fg, p = self.batches[_DATA_SKIP]
        self.order += (_DATA_SKIP, len(t), target)
        t.append(total)
        fa.append(cls.actual)
        fg.append(cls.gated)
        p.append(1.0)

    def raw(self, target, actual, gated, skipped):
        a, g, s = self.batches[_RAW]
        self.order += (_RAW, len(a), target)
        a.append(actual)
        g.append(gated)
        s.append(skipped)

    def flush(self, size: int) -> list[float]:
        """Evaluate every recorded row and return the ``size``
        accumulators they scatter into."""
        if not self.order:
            return [0.0] * size
        asarray = np.asarray
        results = _split_columns(
            *(
                tuple([asarray(column) for column in batch])
                if batch[0]
                else None
                for batch in self.batches[:_RAW]
            )
        )
        results.append(self.batches[_RAW])
        return _scatter(results, self.order, size)


# ----------------------------------------------------------------------
# The analysis walk.


class _Resolver:
    """Answers the walk's queries on the spot: probabilities through
    the analyzer, formats through the tile-format analysis."""

    __slots__ = ("analyzer", "dense", "safs", "memo", "formats")

    def __init__(
        self,
        dense: DenseTraffic,
        safs: SAFSpec,
        analyzer: GatingSkippingAnalyzer,
        memo: dict | None,
    ):
        self.dense = dense
        self.safs = safs
        self.analyzer = analyzer
        self.memo = memo
        self.formats: dict[tuple[str, str], _LevelFormatInfo] = {}

    def classify(self, queries: list[LeaderQuery]) -> FlowClassification:
        return self.analyzer.classify(queries)

    def compute_class(self) -> FlowClassification:
        return self.analyzer.classify_compute()

    def update_class(self) -> FlowClassification:
        return self.analyzer.classify_output_updates()

    def density(self, tensor: str) -> float:
        return self.dense.workload.density_of(tensor).density

    def fmt(self, level: str, tensor: str) -> _LevelFormatInfo:
        key = (level, tensor)
        info = self.formats.get(key)
        if info is not None:
            return info
        dense = self.dense
        extents = dense.at(level, tensor).tile_rank_extents
        memo = self.memo
        # Across the candidates of one search the same (level, tensor,
        # tile shape) recurs constantly; the scaling factors are a pure
        # function of that triple once workload/SAFs/arch are fixed.
        memo_key = None
        if memo is not None:
            memo_key = ("fmt", level, tensor, extents)
            info = memo.get(memo_key)
            if info is not None:
                self.formats[key] = info
                return info
        arch_level = dense.arch.level(level)
        info = _format_info(
            self.safs,
            level,
            tensor,
            extents,
            dense.workload.density_of(tensor),
            arch_level.word_bits,
            arch_level.metadata_word_bits,
            _is_compressed(self.safs, level, tensor),
        )
        self.formats[key] = info
        if memo_key is not None:
            memo[memo_key] = info
        return info


def analyze_sparse(
    dense: DenseTraffic,
    safs: SAFSpec,
    *,
    vectorized: bool | None = None,
    plan: SparsePlan | None = None,
    packed: bool = False,
) -> SparseTraffic | tuple[tuple[str, ...], list[float]]:
    """Run the sparse modeling step on top of dense traffic.

    ``vectorized`` selects the batched numpy arithmetic (default) or
    the scalar oracle path; both produce bit-identical results. The
    module default follows :data:`VECTORIZED_DEFAULT`. ``plan``, a
    :class:`SparsePlan` built for ``dense``'s einsum, architecture and
    mapping and for ``safs``, replaces the walk with an evaluation of
    the plan at ``dense.workload``'s densities (same result).

    Returns :class:`~repro.sparse.traffic.SparseTraffic` objects, or
    with ``packed`` the record action part :mod:`repro.sparse.traffic`
    describes: flat ``(level, tensor)*`` slot keys and the float row,
    which the fast paths write directly (the engine's form; the oracle's
    objects are packed by :func:`~repro.sparse.traffic.pack_sparse`).
    """
    if plan is not None:
        actions = plan.evaluate(dense.workload, safs)
    elif not (VECTORIZED_DEFAULT if vectorized is None else vectorized):
        sparse = _scalar_walk(dense, safs)
        return pack_sparse(sparse) if packed else sparse
    else:
        actions = _stacked_walk([(dense, safs)])[0]
    return actions if packed else unpack_sparse(*actions)


def analyze_sparse_batch(
    jobs,
    *,
    vectorized: bool | None = None,
    memo: dict | None = None,
    packed: bool = False,
) -> list[SparseTraffic] | list[tuple[tuple[str, ...], list[float]]]:
    """Run the sparse modeling step for many analyses in one pass.

    ``jobs`` is a sequence of ``(dense, safs)`` pairs — typically the
    surviving candidate mappings of one mapspace-search block. Under
    the vectorized backend every analysis records its flows into one
    shared :class:`_BatchEmitter` and a single flush evaluates the
    stacked arrays; each analysis owns its own accumulators, so the
    scatter preserves per-candidate accumulation order and the results
    are bit-identical to calling :func:`analyze_sparse` once per pair
    (the equivalence oracle, which the scalar backend runs directly).
    ``packed`` as for :func:`analyze_sparse`.

    ``memo`` is an optional *cross-call* walk memo: candidates of one
    mapspace search re-derive the same leader-keep probabilities,
    format scalings, and compute-query collections over and over, so
    the engine threads one plain dict through every block of a search.
    All memoised values are pure functions of their keys **given a
    fixed workload (densities), SAF spec, and architecture** — callers
    must pass a fresh dict per such context and never share one across
    contexts. Memoisation returns the exact objects the unmemoised
    walk would compute, so results remain bit-identical. The scalar
    oracle path ignores the memo entirely.
    """
    if not (VECTORIZED_DEFAULT if vectorized is None else vectorized):
        walked = [_scalar_walk(dense, safs) for dense, safs in jobs]
        return [pack_sparse(sparse) for sparse in walked] if packed else walked
    stacked = _stacked_walk(jobs, memo)
    return stacked if packed else [unpack_sparse(*actions) for actions in stacked]


def _stacked_walk(
    jobs, memo: dict | None = None
) -> list[tuple[tuple[str, ...], list[float]]]:
    """The record action part of every ``(dense, safs)`` job: one
    :class:`_BatchEmitter` records all their walks and flushes once."""
    emitter = _BatchEmitter()
    tables = []
    end = 0
    for dense, safs in jobs:
        table = _SlotTable(end)
        _record_walk(dense, safs, emitter, table, memo)
        end = table.end
        tables.append(table)
    acc = emitter.flush(end)
    return [table.actions(acc) for table in tables]


def _scalar_walk(dense: DenseTraffic, safs: SAFSpec) -> SparseTraffic:
    """The equivalence oracle: the walk with scalar arithmetic."""
    sparse = SparseTraffic()
    _record_walk(dense, safs, _ScalarEmitter(), sparse)
    return sparse


def _record_walk(
    dense: DenseTraffic, safs: SAFSpec, emitter, sparse, memo: dict | None = None
) -> None:
    """The walk with every query resolved on the spot, describing its
    split arithmetic to ``emitter`` and its slots to ``sparse``. The
    caller owns any flush, which lets one batch emitter stack many
    walks."""
    ensure_output_density(dense.workload)
    analyzer = GatingSkippingAnalyzer(dense, safs, shared=memo)
    resolver = _Resolver(dense, safs, analyzer, memo)
    _walk(dense, analyzer, resolver, emitter, sparse)


def _walk(
    dense: DenseTraffic,
    analyzer: GatingSkippingAnalyzer,
    resolver,
    emitter,
    sparse,
) -> None:
    """Classify every (level, tensor) flow: the one description of the
    sparse step that the oracle, the stacked walk and the plan builder
    share. ``sparse`` is the oracle's :class:`SparseTraffic` or a
    :class:`_SlotTable`; slots enter it in the order of its ``at()``
    calls."""
    emitter.compute(sparse, dense.computes, resolver.compute_class())
    for tensor in dense.workload.einsum.tensors:
        chain = dense.mapping.keep_chain(tensor.name)
        process = _process_output if tensor.is_output else _process_operand
        process(dense, analyzer, resolver, sparse, tensor, chain, emitter)

    # Record occupancy for every (level, tensor) pair.
    for level, name in dense.traffic:
        info = resolver.fmt(level, name)
        emitter.occupancy(sparse.at(level, name), info)


def _process_operand(
    dense: DenseTraffic,
    analyzer: GatingSkippingAnalyzer,
    resolver,
    sparse: SparseTraffic,
    tensor: TensorRef,
    chain: list[str],
    emitter,
) -> None:
    name = tensor.name
    innermost = chain[-1]

    # Compute-feed reads at the innermost keeping level. Zero positions
    # of a compressed operand are skipped when the design walks its
    # metadata, gated otherwise (cycles spent idling).
    record = dense.at(innermost, name)
    queries = analyzer.flow_queries(tensor, innermost)
    cls = resolver.classify(queries)
    info = resolver.fmt(innermost, name)
    actions = sparse.at(innermost, name)
    feed = record.compute_feed_reads
    own_density = None
    for query in queries:
        if not query.is_intersection:
            continue
        if own_density is None:
            own_density = resolver.density(name)
        emitter.walked_checks(
            actions, feed, own_density, resolver.density(query.leader)
        )
    residue = (
        "skip" if analyzer.tensor_drives_skipping(name) else "gate"
    ) if info.compressed else "skip"
    emitter.data(actions.data_reads, feed, cls, info, residue)
    emitter.metadata(actions.metadata_reads, feed, cls, info, positional=True)

    # Transfers along the keep chain (parent reads + child fills).
    for parent, child in zip(chain, chain[1:]):
        t_queries = analyzer.flow_queries(tensor, parent)
        cls_t = resolver.classify(t_queries)
        parent_record = dense.at(parent, name)
        child_record = dense.at(child, name)
        p_info = resolver.fmt(parent, name)
        c_info = resolver.fmt(child, name)

        parent_actions = sparse.at(parent, name)
        # Tile-granular intersection decisions at the transfer source.
        tiles_decided = child_record.episodes * child_record.instances
        emitter.checks(
            parent_actions,
            tiles_decided * sum(1 for q in t_queries if q.is_intersection),
        )
        parent_reads = parent_record.transfer_reads
        emitter.data(parent_actions.data_reads, parent_reads, cls_t, p_info)
        emitter.metadata(
            parent_actions.metadata_reads, parent_reads, cls_t, p_info
        )

        child_actions = sparse.at(child, name)
        fills = child_record.fills
        emitter.data(child_actions.data_writes, fills, cls_t, c_info)
        emitter.metadata(child_actions.metadata_writes, fills, cls_t, c_info)


def _process_output(
    dense: DenseTraffic,
    analyzer: GatingSkippingAnalyzer,
    resolver,
    sparse: SparseTraffic,
    tensor: TensorRef,
    chain: list[str],
    emitter,
) -> None:
    name = tensor.name
    innermost = chain[-1]

    # Updates from compute: the accumulator flushes once per latch
    # group, and a flush survives if any compute in its group did —
    # classified at group granularity (Sec 5.3.4's statistical
    # characterisation at the right tile shape).
    record = dense.at(innermost, name)
    resolver.fmt(innermost, name)
    actions = sparse.at(innermost, name)
    updates = record.update_writes
    update_cls = resolver.update_class()
    emitter.split(actions.data_writes, updates, update_cls)
    emitter.rmw(actions.data_reads, updates, record.rmw_reads, update_cls)

    # Drains and refills along the chain.
    for parent, child in zip(chain, chain[1:]):
        drain = analyzer.drain_queries(tensor, parent, child)
        cls_d = resolver.classify(drain)
        p_info = resolver.fmt(parent, name)
        c_info = resolver.fmt(child, name)
        child_record = dense.at(child, name)
        reduction = _boundary_reduction(dense, parent, child, tensor)

        child_actions = sparse.at(child, name)
        drains = child_record.drains
        emitter.data(child_actions.data_reads, drains, cls_d, c_info)
        emitter.metadata(child_actions.metadata_reads, drains, cls_d, c_info)

        parent_actions = sparse.at(parent, name)
        arriving = drains / reduction
        emitter.data(parent_actions.data_writes, arriving, cls_d, p_info)
        emitter.metadata(
            parent_actions.metadata_writes, arriving, cls_d, p_info
        )

        refills = child_record.refill_writes
        if refills > 0:
            emitter.data(child_actions.data_writes, refills, cls_d, c_info)
            emitter.data(
                parent_actions.data_reads, refills / reduction, cls_d, p_info
            )


def _boundary_reduction(
    dense: DenseTraffic, parent: str, child: str, tensor: TensorRef
) -> float:
    """Spatial reduction factor between two keeping levels."""
    nest = dense.nest
    parent_idx = dense.arch.level_index(parent)
    child_idx = dense.arch.level_index(child)
    if not dense.arch.level(parent).spatial_reduction:
        return 1.0
    factor = 1.0
    for loop in nest.boundary_spatial(parent_idx, child_idx):
        if loop.dim not in tensor.dims:
            factor *= loop.bound
    return factor


# ----------------------------------------------------------------------
# The planned walk.


class _FormatHandle:
    """A recorded tile-format query, standing in for
    :class:`_LevelFormatInfo` while a plan is built."""

    __slots__ = ("key", "compressed")

    def __init__(self, key: tuple[str, str], compressed: bool):
        self.key = key
        self.compressed = compressed


#: Payload index of a plain fraction split (unit payload): the last
#: entry of an evaluation's payload column.
_UNIT_PAYLOAD = -1

#: Query kinds of a plan's value table. A leader tile and a format rank
#: ask P(nonempty) in different terms (a shape tuple, an int size), and
#: coordinate-dependent density models answer the two differently, so
#: the kinds never share an entry.
_DENSITY = 0  # the tensor's density
_TILE = 1  # P(leader tile nonempty), argument: index into ``shapes``
_SIZE = 2  # P(subtree of ``argument`` elements nonempty)
_QUANTILE = 3  # quantile_occupancy of a tile of ``argument`` words


class _PlanBuilder:
    """Records the walk instead of resolving it: the resolver and the
    emitter of :meth:`SparsePlan.build`.

    Every answer becomes an index — a density or leader-tile query into
    the value table, a classification into the class table, a format
    into the slot table (every slot is a dense (level, tensor) pair,
    and so is every format query) — and every emitted row a ``(total,
    class, format)`` triple in its tag's columns, with its target
    accumulator (the slot's, see :class:`_Slot`) in the scatter order.
    Freezing the record compiles each slot's tile format and adds its
    density queries to the value table.
    """

    def __init__(
        self,
        dense: DenseTraffic,
        safs: SAFSpec,
        analyzer: GatingSkippingAnalyzer,
        table: _SlotTable,
    ):
        self.dense = dense
        self.safs = safs
        self.analyzer = analyzer
        self.table = table
        #: ``(tensor, kind, argument)`` -> value index.
        self.values: dict[tuple, int] = {}
        self.classes: dict[tuple[int, ...], int] = {}
        self.formats: dict[tuple[str, str], _FormatHandle] = {}
        #: Per tag, ``(total, class, format handle)`` rows.
        self.rows: tuple[list, ...] = ([], [], [], [])
        #: ``(tag, row, target)*`` in emission order.
        self.order: list[int] = []
        self.raw: list[tuple] = []
        self.check_terms: list[tuple] = []
        self.compute_term: tuple[float, int] | None = None

    # Resolver side --------------------------------------------------

    def _value(self, tensor: str, kind: int, argument) -> int:
        key = (tensor, kind, argument)
        index = self.values.get(key)
        if index is None:
            index = self.values[key] = len(self.values)
        return index

    def classify(self, queries: list[LeaderQuery]) -> int:
        # A query without a shape keeps at single-element granularity:
        # its keep is the leader's density.
        ids = [
            self.density(q.leader)
            if q.shape is None
            else self._value(q.leader, _TILE, q.shape)
            for q in queries
        ]
        compiled = leader_groups(queries, ids)
        index = self.classes.get(compiled)
        if index is None:
            index = self.classes[compiled] = len(self.classes)
        return index

    def compute_class(self) -> int:
        return self.classify(self.analyzer.compute_queries())

    def update_class(self) -> int:
        return self.classify(self.analyzer.update_queries())

    def density(self, tensor: str) -> int:
        return self._value(tensor, _DENSITY, 0)

    def fmt(self, level: str, tensor: str) -> _FormatHandle:
        key = (level, tensor)
        handle = self.formats.get(key)
        if handle is None:
            handle = self.formats[key] = _FormatHandle(
                key, _is_compressed(self.safs, level, tensor)
            )
        return handle

    # Emitter side ---------------------------------------------------

    def _row(self, tag: int, target: int, total, cls: int, info) -> None:
        rows = self.rows[tag]
        self.order += (tag, len(rows), target)
        rows.append((total, cls, info))

    def compute(self, table, computes, cls):
        self.compute_term = (computes, cls)

    def checks(self, actions, count):
        self.check_terms.append((actions.index, count, -1, -1))

    def walked_checks(self, actions, feed, own_density, leader_density):
        self.check_terms.append((actions.index, feed, own_density, leader_density))

    def rmw(self, target, updates, rmw, cls):
        self.order += (_RAW, len(self.raw), target)
        self.raw.append((updates, rmw, cls))

    def occupancy(self, actions, info):
        # Every slot takes its own format's occupancy (see ``_walk``).
        assert info.key == (actions.level, actions.tensor)

    def data(self, target, total, cls, info, residue="skip"):
        tag = _DATA_GATE if residue == "gate" else _DATA_SKIP
        self._row(tag, target, total, cls, info)

    def metadata(self, target, total_dense, cls, info, positional=False):
        if positional:
            self._row(_META_POS, target, total_dense, 0, info)
        else:
            self._row(_META_BULK, target, total_dense, cls, info)

    def split(self, target, total, cls):
        self._row(_DATA_SKIP, target, total, cls, None)

    def plan(self) -> SparsePlan:
        """Freeze the record into GC-light fields: flat tuples of
        atomics, tuples of such tuples, and numpy arrays."""
        keys = list(self.table.slots)
        slot_of = {key: slot for slot, key in enumerate(keys)}
        dense = self.dense
        formats = []
        tile_extents = []
        tile_queries = []
        for level, tensor in keys:
            arch_level = dense.arch.level(level)
            rank_extents = dense.at(level, tensor).tile_rank_extents
            fmt = self.safs.format_for(level, tensor) or dense_format(
                len(rank_extents)
            )
            extents, subtrees, dense_words = compile_tile_format(
                fmt, rank_extents
            )
            tile_extents += extents
            tile_queries += [
                self._value(tensor, _SIZE, size) for size in subtrees
            ]
            formats += [
                arch_level.word_bits,
                arch_level.metadata_word_bits,
                self.formats[level, tensor].compressed,
                dense_words,
                self._value(tensor, _QUANTILE, dense_words),
                len(tile_extents),
            ]
        shapes = []
        values = []
        for tensor, kind, argument in self.values:
            if kind == _TILE:
                shapes.append(argument)
                argument = len(shapes) - 1
            values += [tensor, kind, argument]
        columns = []
        for rows in self.rows:
            if not rows:
                columns += [None, None, None]
                continue
            columns += [
                np.array([total for total, _c, _f in rows], dtype=np.float64),
                np.array([cls for _t, cls, _f in rows], dtype=np.intp),
                np.array(
                    [
                        _UNIT_PAYLOAD if info is None else slot_of[info.key]
                        for _t, _c, info in rows
                    ],
                    dtype=np.intp,
                ),
            ]
        return SparsePlan(
            slots=tuple([name for key in keys for name in key]),
            formats=tuple(formats),
            tile_extents=tuple(tile_extents),
            tile_queries=tuple(tile_queries),
            values=tuple(values),
            shapes=tuple(shapes),
            classes=tuple(self.classes),
            compute=self.compute_term,
            columns=tuple(columns),
            raw=tuple([item for term in self.raw for item in term]),
            order=tuple(self.order),
            checks=tuple([item for term in self.check_terms for item in term]),
        )


@dataclass(slots=True, eq=False)
class SparsePlan:
    """The density-free structure of one sparse analysis.

    Built once per (einsum, architecture, mapping, SAFs) by
    :meth:`build`, evaluated per density point by :meth:`evaluate`
    (or ``analyze_sparse(dense, safs, plan=plan)``) with a result equal
    to the walk's, bit for bit and in slot order. Fields (``*`` marks a
    flat tuple read with that stride):

    * ``slots``: ``(level, tensor)*`` of every result entry, in the
      walk's first-``at()`` order; slot ``i`` is also format query
      ``i``, since the walk asks for the format of every dense
      (level, tensor) pair and of nothing else;
    * ``formats``: ``(word bits, metadata word bits, compressed, dense
      words, quantile, end)*`` per slot: ``quantile`` is the value
      index of the tile's ``quantile_occupancy``, and the slot's format
      ranks are ``[previous end, end)`` of the next two fields;
    * ``tile_extents``: every slot's tile format compiled by
      :func:`~repro.sparse.format_analyzer.compile_tile_format`, one
      grouped fiber extent per format rank;
    * ``tile_queries``: per format rank, the value index of P(the
      subtree below one of its positions nonempty);
    * ``values``: ``(tensor, kind, argument)*`` queries, deduplicated:
      the density of ``tensor`` (``_DENSITY``), P(leader tile of
      ``shapes[argument]`` nonempty) (``_TILE``), P(``argument``
      elements nonempty) (``_SIZE``), or the ``quantile_occupancy`` of
      ``argument`` words (``_QUANTILE``);
    * ``shapes``: rank extents of the leader tiles;
    * ``classes``: compiled classifications, the :func:`~repro.sparse.
      gating_skipping.leader_groups` of each over value indices;
    * ``compute``: ``(dense computes, class)``;
    * ``columns``: per split tag, ``(dense totals, class indices,
      format indices)`` arrays, or three ``None``;
    * ``raw``: ``(updates, rmw reads, class)*`` read-modify-write terms;
    * ``order``: the scatter, ``(tag, row, target)*``, each target a
      slot's accumulator for one channel (``SLOT_ACTIONS * slot`` plus
      the channel's offset, see :class:`_Slot`);
    * ``checks``: ``(slot, value, own, leader)*`` intersection-check
      terms, a constant ``value`` when ``own`` is ``-1``, else a feed
      walked at the ``own`` and ``leader`` density values.

    Only flat tuples of atomics, one level of tuples of those, and
    numpy arrays: no workload, density model or format object, and
    after one collection nothing but a handful of containers for the
    cyclic collector to scan. Read-only, like every cached value.
    """

    slots: tuple[str, ...]
    formats: tuple[int | bool, ...]
    tile_extents: tuple[int, ...]
    tile_queries: tuple[int, ...]
    values: tuple[str | int, ...]
    shapes: tuple[tuple[int, ...], ...]
    classes: tuple[tuple[int, ...], ...]
    compute: tuple[float, int]
    columns: tuple[np.ndarray | None, ...]
    raw: tuple[float | int, ...]
    order: tuple[int, ...]
    checks: tuple[float | int, ...]

    @classmethod
    def build(cls, dense: DenseTraffic, safs: SAFSpec) -> SparsePlan:
        """Record the walk over ``dense``'s flows under ``safs``. Reads
        no density model."""
        analyzer = GatingSkippingAnalyzer(dense, safs)
        table = _SlotTable()
        builder = _PlanBuilder(dense, safs, analyzer, table)
        _walk(dense, analyzer, builder, builder, table)
        return builder.plan()

    def evaluate(
        self, workload: Workload, safs: SAFSpec
    ) -> tuple[tuple[str, ...], list[float]]:
        """The record action part (``analyze_sparse(..., packed=True)``)
        at ``workload``'s densities (``safs`` must be the plan's SAF
        content)."""
        ensure_output_density(workload)
        density_of = workload.density_of
        shapes = self.shapes
        values = []
        queries = iter(self.values)
        for tensor, kind, argument in zip(queries, queries, queries):
            model = density_of(tensor)
            if kind == _SIZE:
                values.append(model.prob_nonempty(argument))
            elif kind == _TILE:
                values.append(model.prob_nonempty(shapes[argument]))
            elif kind == _QUANTILE:
                values.append(model.quantile_occupancy(argument))
            else:
                values.append(model.density)
        actual: list[float] = []
        gated: list[float] = []
        skipped: list[float] = []
        for groups in self.classes:
            a, g, s = combine_keeps(values, groups)
            actual.append(a)
            gated.append(g)
            skipped.append(s)
        keys = iter(self.slots)
        slots = list(zip(keys, keys))
        # Each slot's five format scalars, from the compiled tile and
        # the value table: the tile-format analysis without its stage.
        format_for = safs.format_for
        tile_extents = self.tile_extents
        tile_queries = self.tile_queries
        entries = iter(self.formats)
        tiles = []
        start = 0
        for (
            (level, tensor), word_bits, metadata_word_bits, compressed,
            dense_words, quantile, end,
        ) in zip(slots, *[entries] * 6):
            extents = tile_extents[start:end]
            fmt = format_for(level, tensor) or dense_format(len(extents))
            terms = occupancy_terms(
                fmt.ranks,
                extents,
                [values[index] for index in tile_queries[start:end]],
                values[quantile],
            )
            tiles.append(
                format_scalars(
                    dense_words, terms, word_bits, metadata_word_bits,
                    compressed,
                )
            )
            start = end

        fa, fg, fs = np.array(actual), np.array(gated), np.array(skipped)
        payload = np.array([tile[0] for tile in tiles] + [1.0])
        words = np.array([tile[1] for tile in tiles])
        (
            skip_t, skip_c, skip_f,
            gate_t, gate_c, gate_f,
            bulk_t, bulk_c, bulk_f,
            pos_t, _pos_c, pos_f,
        ) = self.columns
        results = _split_columns(
            None if skip_t is None
            else (skip_t, fa[skip_c], fg[skip_c], payload[skip_f]),
            None if gate_t is None
            else (gate_t, fa[gate_c], fg[gate_c], payload[gate_f]),
            None if bulk_t is None
            else (bulk_t, fa[bulk_c], fg[bulk_c], fs[bulk_c], words[bulk_f]),
            None if pos_t is None else (pos_t, words[pos_f]),
        )
        raw = ([], [], [])
        terms = iter(self.raw)
        for updates, rmw, cls in zip(terms, terms, terms):
            split = _rmw_split(updates, rmw, actual[cls])
            for column, value in zip(raw, split):
                column.append(value)
        results.append(raw)

        # The same additions in the same order as the batch flush.
        acc = _scatter(results, self.order, SLOT_ACTIONS * len(slots))
        checks = [0.0] * len(slots)
        terms = iter(self.checks)
        for slot, value, own, leader in zip(terms, terms, terms, terms):
            if own < 0:
                checks[slot] += value
            else:
                checks[slot] += _walked_checks(
                    value, values[own], values[leader]
                )

        computes, cls = self.compute
        return self.slots, action_part(
            computes,
            (actual[cls], gated[cls], skipped[cls]),
            acc,
            0,
            [
                (tile[2], tile[3], tile[4], slot_checks)
                for tile, slot_checks in zip(tiles, checks)
            ],
        )
