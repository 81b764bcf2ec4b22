"""Traffic post-processing (Sec 5.3.5): assemble the sparse traffic.

Combines the three analyzers — format analyzer, gating/skipping
analyzer, and the dense dataflow traffic — into per-(level, tensor)
fine-grained action counts. Per-tile effects are evaluated locally and
scaled by the number of tiles moved, and SAF interactions are resolved
here (e.g. format metadata skipped along with skipped data transfers).

Vectorized pipeline
-------------------

The walk over (level, tensor) flows is *descriptive*: it only decides
which dense totals split under which classification, format scaling,
and residue rule. The arithmetic itself is delegated to an emitter:

* :class:`_ScalarEmitter` computes each split immediately with the
  original scalar helpers (:func:`_data_split`,
  :func:`_metadata_split`) — this is the equivalence oracle, selected
  with ``analyze_sparse(..., vectorized=False)``.
* :class:`_BatchEmitter` records every flow of the whole loop nest and
  evaluates all of them in one set of elementwise numpy operations at
  flush time, then scatters the results back in emission order.

Both paths are bit-identical: the batched expressions mirror the
scalar formulas operation for operation (IEEE-754 elementwise), and
the scatter preserves per-accumulator addition order. The default is
the vectorized path; set the ``REPRO_SCALAR_SPARSE`` environment
variable (or pass ``vectorized=False``) to force the oracle.

The emitter contract extends *across* loop nests: because rows are
stored column-wise and the scatter replays per-accumulator emission
order, one :class:`_BatchEmitter` can record the flows of **many**
analyses — e.g. every surviving candidate mapping of one mapspace
search block — and evaluate them all in a single stacked numpy pass.
:func:`analyze_sparse_batch` does exactly that: each analysis occupies
a contiguous segment of the batch columns, elementwise float64
operations are position-independent, and the per-candidate scatter
preserves each accumulator's addition order, so the stacked results
are bit-identical to running :func:`analyze_sparse` once per analysis.

:func:`sparse_analysis_key` derives the content key under which a whole
:class:`~repro.sparse.traffic.SparseTraffic` is memoised by the
engine's ``"sparse"`` cache stage (see :mod:`repro.common.cache`).
"""

from __future__ import annotations

import os

from repro.common.cache import digest, spec_digest
from repro.common.util import prod
from repro.dataflow.nest_analysis import DenseTraffic, dense_analysis_key
from repro.sparse.density import UniformDensity
from repro.sparse.format_analyzer import TileOccupancy, analyze_tile_format
from repro.sparse.formats import FormatSpec, dense_format
from repro.sparse.gating_skipping import (
    NO_ELIMINATION,
    FlowClassification,
    GatingSkippingAnalyzer,
)
from repro.sparse.saf import SAFSpec
from repro.sparse.traffic import ActionBreakdown, SparseTraffic
from repro.workload.einsum import TensorRef
from repro.workload.spec import Workload

#: Default backend for :func:`analyze_sparse`. The scalar oracle can be
#: forced process-wide by setting ``REPRO_SCALAR_SPARSE`` to anything
#: but an explicit falsy value ("", "0", "false", "no", "off").
VECTORIZED_DEFAULT = os.environ.get("REPRO_SCALAR_SPARSE", "").lower() in (
    "", "0", "false", "no", "off",
)


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


class _LevelFormatInfo:
    """Cached per-(level, tensor) format scaling factors."""

    def __init__(
        self,
        occupancy: TileOccupancy,
        word_bits: int,
        metadata_word_bits: int,
        compressed: bool,
    ):
        self.occupancy = occupancy
        self.compressed = compressed
        self.payload_fraction = occupancy.payload_fraction if compressed else 1.0
        bits_per_elem = occupancy.metadata_bits_per_element()
        self.metadata_words_per_element = bits_per_elem / metadata_word_bits
        self.occupancy_words = occupancy.occupancy_words(word_bits)
        self.worst_occupancy_words = occupancy.worst_occupancy_words(word_bits)
        self.compression_rate = occupancy.compression_rate(word_bits)


# ----------------------------------------------------------------------
# Split arithmetic: scalar oracle helpers and the two emitters.


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


class _ScalarEmitter:
    """Immediate per-flow arithmetic — the equivalence oracle."""

    def data(self, breakdown, total, cls, payload_fraction, residue="skip"):
        breakdown.add(_data_split(total, cls, payload_fraction, residue))

    def metadata(self, breakdown, total_dense, cls, info, positional=False):
        breakdown.add(_metadata_split(total_dense, cls, info, positional))

    def split(self, breakdown, total, actual_frac, gated_frac):
        breakdown.add(ActionBreakdown.split(total, actual_frac, gated_frac))

    def raw(self, breakdown, actual, gated, skipped):
        breakdown.add(
            ActionBreakdown(actual=actual, gated=gated, skipped=skipped)
        )

    def flush(self):
        pass


#: Sub-batch tags of the batch emitter. Rows are grouped by formula at
#: emission time so the flush runs each formula once over a dense
#: column block — no masks, no branches.
_DATA_SKIP = 0  # data split, skip residue (also plain splits, p = 1)
_DATA_GATE = 1  # data split, gate residue
_META_BULK = 2  # metadata accompanying bulk transfers
_META_POS = 3  # positional metadata (full stream charged actual)
_RAW = 4  # precomputed components pass straight through


class _BatchEmitter:
    """Deferred arithmetic: one numpy evaluation for the whole nest.

    Rows are stored column-wise in per-formula sub-batches; ``flush``
    evaluates each formula with elementwise float64 operations that
    mirror the scalar helpers operation for operation, then scatters
    results back in emission order so per-accumulator addition order
    matches the scalar path exactly (bit-identical results).
    """

    __slots__ = ("order", "batches")

    def __init__(self):
        #: (tag, row index within sub-batch, target breakdown), in
        #: emission order — the scatter replays this sequence.
        self.order: list[tuple[int, int, ActionBreakdown]] = []
        self.batches = (
            ([], [], [], []),  # _DATA_SKIP: t, fa, fg, payload
            ([], [], [], []),  # _DATA_GATE: t, fa, fg, payload
            ([], [], [], [], []),  # _META_BULK: t, fa, fg, fs, words/elem
            ([], []),  # _META_POS: t, words/elem
            ([], [], []),  # _RAW: actual, gated, skipped
        )

    def data(self, breakdown, total, cls, payload_fraction, residue="skip"):
        tag = _DATA_GATE if residue == "gate" else _DATA_SKIP
        t, fa, fg, p = self.batches[tag]
        self.order.append((tag, len(t), breakdown))
        t.append(total)
        fa.append(cls.actual)
        fg.append(cls.gated)
        p.append(payload_fraction)

    def metadata(self, breakdown, total_dense, cls, info, positional=False):
        if positional:
            t, w = self.batches[_META_POS]
            self.order.append((_META_POS, len(t), breakdown))
            t.append(total_dense)
            w.append(info.metadata_words_per_element)
            return
        t, fa, fg, fs, w = self.batches[_META_BULK]
        self.order.append((_META_BULK, len(t), breakdown))
        t.append(total_dense)
        fa.append(cls.actual)
        fg.append(cls.gated)
        fs.append(cls.skipped)
        w.append(info.metadata_words_per_element)

    def split(self, breakdown, total, actual_frac, gated_frac):
        # total * f * 1.0 is IEEE-identical to total * f, so a plain
        # fraction split is a data split with unit payload.
        t, fa, fg, p = self.batches[_DATA_SKIP]
        self.order.append((_DATA_SKIP, len(t), breakdown))
        t.append(total)
        fa.append(actual_frac)
        fg.append(gated_frac)
        p.append(1.0)

    def raw(self, breakdown, actual, gated, skipped):
        a, g, s = self.batches[_RAW]
        self.order.append((_RAW, len(a), breakdown))
        a.append(actual)
        g.append(gated)
        s.append(skipped)

    def flush(self):
        if not self.order:
            return
        import numpy as np

        asarray = np.asarray
        results: list[tuple[list, list | float, list | float]] = [
            ([], 0.0, 0.0)
        ] * 5

        t, fa, fg, p = self.batches[_DATA_SKIP]
        if t:
            ta, faa, fga, pa = (
                asarray(t), asarray(fa), asarray(fg), asarray(p)
            )
            a = ta * faa * pa
            g = ta * fga * pa
            s = np.maximum(0.0, ta - a - g)
            results[_DATA_SKIP] = (a.tolist(), g.tolist(), s.tolist())

        t, fa, fg, p = self.batches[_DATA_GATE]
        if t:
            ta, faa, fga, pa = (
                asarray(t), asarray(fa), asarray(fg), asarray(p)
            )
            a = ta * faa * pa
            g = ta * (fga + faa * (1.0 - pa))
            s = np.maximum(0.0, ta - a - g)
            results[_DATA_GATE] = (a.tolist(), g.tolist(), s.tolist())

        t, fa, fg, fs, w = self.batches[_META_BULK]
        if t:
            tm = asarray(t) * asarray(w)
            a = tm * (asarray(fa) + asarray(fg))
            s = tm * asarray(fs)
            # gated metadata does not exist: a gated access still moves
            # its encoding with the tile.
            results[_META_BULK] = (a.tolist(), 0.0, s.tolist())

        t, w = self.batches[_META_POS]
        if t:
            a = asarray(t) * asarray(w)
            results[_META_POS] = (a.tolist(), 0.0, 0.0)

        results[_RAW] = self.batches[_RAW]

        # tolist() round-trips float64 -> Python float exactly; the
        # replay preserves per-accumulator addition order.
        for tag, row, breakdown in self.order:
            a, g, s = results[tag]
            breakdown.add_components(
                a[row],
                g if isinstance(g, float) else g[row],
                s if isinstance(s, float) else s[row],
            )


# ----------------------------------------------------------------------
# The analysis walk.


def analyze_sparse(
    dense: DenseTraffic,
    safs: SAFSpec,
    *,
    vectorized: bool | None = None,
) -> SparseTraffic:
    """Run the sparse modeling step on top of dense traffic.

    ``vectorized`` selects the batched numpy arithmetic (default) or
    the scalar oracle path; both produce bit-identical results. The
    module default follows :data:`VECTORIZED_DEFAULT`.
    """
    if vectorized is None:
        vectorized = VECTORIZED_DEFAULT
    emitter = _BatchEmitter() if vectorized else _ScalarEmitter()
    sparse = _record_sparse(dense, safs, emitter)
    emitter.flush()
    return sparse


def analyze_sparse_batch(
    jobs,
    *,
    vectorized: bool | None = None,
    memo: dict | None = None,
) -> list[SparseTraffic]:
    """Run the sparse modeling step for many analyses in one pass.

    ``jobs`` is a sequence of ``(dense, safs)`` pairs — typically the
    surviving candidate mappings of one mapspace-search block. Under
    the vectorized backend every analysis records its flows into one
    shared :class:`_BatchEmitter` and a single flush evaluates the
    stacked arrays; each analysis owns a contiguous segment of the
    batch, so the scatter preserves per-candidate accumulation order
    and the results are bit-identical to calling :func:`analyze_sparse`
    once per pair (the equivalence oracle, which the scalar backend
    falls back to directly).

    ``memo`` is an optional *cross-call* walk memo: candidates of one
    mapspace search re-derive the same leader-keep probabilities,
    format scalings, and compute-source collections over and over, so
    the engine threads one plain dict through every block of a search.
    All memoised values are pure functions of their keys **given a
    fixed workload (densities), SAF spec, and architecture** — callers
    must pass a fresh dict per such context and never share one across
    contexts. Memoisation returns the exact objects the unmemoised
    walk would compute, so results remain bit-identical. The scalar
    oracle path ignores the memo entirely.
    """
    if vectorized is None:
        vectorized = VECTORIZED_DEFAULT
    if not vectorized:
        return [
            analyze_sparse(dense, safs, vectorized=False)
            for dense, safs in jobs
        ]
    emitter = _BatchEmitter()
    results = [
        _record_sparse(dense, safs, emitter, memo=memo)
        for dense, safs in jobs
    ]
    emitter.flush()
    return results


def _record_sparse(
    dense: DenseTraffic, safs: SAFSpec, emitter, memo: dict | None = None
) -> SparseTraffic:
    """The descriptive analysis walk: classify every (level, tensor)
    flow and describe its split arithmetic to ``emitter``. The caller
    owns the flush, which lets one batch emitter stack many walks."""
    workload = dense.workload
    ensure_output_density(workload)
    analyzer = GatingSkippingAnalyzer(dense, safs, shared=memo)
    sparse = SparseTraffic()

    compute_cls = analyzer.classify_compute()
    sparse.compute = ActionBreakdown.split(
        dense.computes, compute_cls.actual, compute_cls.gated
    )
    sparse.compute_fractions = (
        compute_cls.actual,
        compute_cls.gated,
        compute_cls.skipped,
    )

    fmt_cache: dict[tuple[str, str], _LevelFormatInfo] = {}

    def fmt_info(level: str, tensor: str) -> _LevelFormatInfo:
        key = (level, tensor)
        info = fmt_cache.get(key)
        if info is not None:
            return info
        record = dense.at(level, tensor)
        # Across the candidates of one search the same (level, tensor,
        # tile shape) recurs constantly; the scaling factors are a pure
        # function of that triple once workload/SAFs/arch are fixed.
        memo_key = (
            ("fmt", level, tensor, record.tile_rank_extents)
            if memo is not None
            else None
        )
        if memo_key is not None:
            info = memo.get(memo_key)
            if info is not None:
                fmt_cache[key] = info
                return info
        spec = safs.format_for(level, tensor)
        compressed = spec is not None and spec.is_compressed
        fmt: FormatSpec = spec or dense_format(len(record.tile_rank_extents))
        occ = analyze_tile_format(
            fmt,
            record.tile_rank_extents,
            workload.density_of(tensor),
        )
        arch_level = dense.arch.level(level)
        info = _LevelFormatInfo(
            occ,
            arch_level.word_bits,
            arch_level.metadata_word_bits,
            compressed,
        )
        fmt_cache[key] = info
        if memo_key is not None:
            memo[memo_key] = info
        return info

    for tensor in workload.einsum.tensors:
        chain = dense.mapping.keep_chain(tensor.name)
        if tensor.is_output:
            _process_output(
                dense, analyzer, sparse, tensor, chain, fmt_info,
                compute_cls, emitter,
            )
        else:
            _process_operand(
                dense, analyzer, sparse, tensor, chain, fmt_info, emitter
            )

    # Record occupancy for every (level, tensor) pair.
    for (level, name), record in dense.traffic.items():
        info = fmt_info(level, name)
        actions = sparse.at(level, name)
        actions.occupancy_words = info.occupancy_words
        actions.worst_occupancy_words = info.worst_occupancy_words
        actions.compression_rate = info.compression_rate
    return sparse


def _process_operand(
    dense: DenseTraffic,
    analyzer: GatingSkippingAnalyzer,
    sparse: SparseTraffic,
    tensor: TensorRef,
    chain: list[str],
    fmt_info,
    emitter,
) -> None:
    name = tensor.name
    innermost = chain[-1]

    # Compute-feed reads at the innermost keeping level. Zero positions
    # of a compressed operand are skipped when the design walks its
    # metadata, gated otherwise (cycles spent idling).
    record = dense.at(innermost, name)
    sources = analyzer.flow_sources(tensor, innermost)
    cls = FlowClassification.from_sources(sources)
    info = fmt_info(innermost, name)
    actions = sparse.at(innermost, name)
    feed = record.compute_feed_reads
    # The intersection unit merges the two *compressed* coordinate
    # streams, touching ~(nnz_follower + nnz_leader) entries rather
    # than every dense position.
    own_density = dense.workload.density_of(name).density
    for source in sources:
        if not source.is_intersection:
            continue
        walked = min(
            1.0,
            own_density + dense.workload.density_of(source.leader).density,
        )
        actions.intersection_checks += feed * walked
    residue = (
        "skip" if analyzer.tensor_drives_skipping(name) else "gate"
    ) if info.compressed else "skip"
    emitter.data(actions.data_reads, feed, cls, info.payload_fraction, residue)
    emitter.metadata(actions.metadata_reads, feed, cls, info, positional=True)

    # Transfers along the keep chain (parent reads + child fills).
    for parent, child in zip(chain, chain[1:]):
        t_sources = analyzer.flow_sources(tensor, parent)
        cls_t = FlowClassification.from_sources(t_sources)
        parent_record = dense.at(parent, name)
        child_record = dense.at(child, name)
        p_info = fmt_info(parent, name)
        c_info = fmt_info(child, name)

        parent_actions = sparse.at(parent, name)
        # Tile-granular intersection decisions at the transfer source.
        tiles_decided = child_record.episodes * child_record.instances
        parent_actions.intersection_checks += tiles_decided * sum(
            1 for s in t_sources if s.is_intersection
        )
        parent_reads = parent_record.transfer_reads
        emitter.data(
            parent_actions.data_reads, parent_reads, cls_t,
            p_info.payload_fraction,
        )
        emitter.metadata(
            parent_actions.metadata_reads, parent_reads, cls_t, p_info
        )

        child_actions = sparse.at(child, name)
        fills = child_record.fills
        emitter.data(
            child_actions.data_writes, fills, cls_t, c_info.payload_fraction
        )
        emitter.metadata(child_actions.metadata_writes, fills, cls_t, c_info)


def _process_output(
    dense: DenseTraffic,
    analyzer: GatingSkippingAnalyzer,
    sparse: SparseTraffic,
    tensor: TensorRef,
    chain: list[str],
    fmt_info,
    compute_cls: FlowClassification,
    emitter,
) -> None:
    name = tensor.name
    innermost = chain[-1]

    # Updates from compute: the accumulator flushes once per latch
    # group, and a flush survives if any compute in its group did —
    # classified at group granularity (Sec 5.3.4's statistical
    # characterisation at the right tile shape).
    record = dense.at(innermost, name)
    info = fmt_info(innermost, name)
    actions = sparse.at(innermost, name)
    updates = record.update_writes
    update_cls = analyzer.classify_output_updates()
    emitter.split(
        actions.data_writes, updates, update_cls.actual, update_cls.gated
    )
    # Accumulation (read-modify-write) reads: every surviving update
    # beyond each element's first write per episode reads the partial.
    # The first writes are a fixed count (tile establishment), so they
    # are subtracted from the surviving updates, not scaled.
    rmw = record.rmw_reads
    first_writes = updates - rmw
    rmw_actual = max(0.0, updates * update_cls.actual - first_writes)
    emitter.raw(
        actions.data_reads, rmw_actual, 0.0, max(0.0, rmw - rmw_actual)
    )

    # Drains and refills along the chain.
    for parent, child in zip(chain, chain[1:]):
        cls_d = _drain_classification(analyzer, tensor, parent, child)
        parent_record = dense.at(parent, name)
        child_record = dense.at(child, name)
        p_info = fmt_info(parent, name)
        c_info = fmt_info(child, name)
        reduction = _boundary_reduction(dense, parent, child, tensor)

        child_actions = sparse.at(child, name)
        drains = child_record.drains
        emitter.data(
            child_actions.data_reads, drains, cls_d, c_info.payload_fraction
        )
        emitter.metadata(child_actions.metadata_reads, drains, cls_d, c_info)

        parent_actions = sparse.at(parent, name)
        arriving = drains / reduction
        emitter.data(
            parent_actions.data_writes, arriving, cls_d,
            p_info.payload_fraction,
        )
        emitter.metadata(
            parent_actions.metadata_writes, arriving, cls_d, p_info
        )

        refills = child_record.refill_writes
        if refills > 0:
            emitter.data(
                child_actions.data_writes, refills, cls_d,
                c_info.payload_fraction,
            )
            emitter.data(
                parent_actions.data_reads, refills / reduction, cls_d,
                p_info.payload_fraction,
            )


def _drain_classification(
    analyzer: GatingSkippingAnalyzer,
    tensor: TensorRef,
    parent: str,
    child: str,
) -> FlowClassification:
    """Classification of output drain traffic at a chain boundary.

    Only explicit SAFs targeting the output at the parent level apply
    (e.g. ExTensor's ``Skip Z <- A & B`` at every level); leader tiles
    span the child tile's residency episode.
    """
    sources = []
    for saf in analyzer.safs.storage_safs_at(parent):
        if saf.target != tensor.name:
            continue
        extents = analyzer.transfer_extents(tensor, child)
        sources.extend(analyzer.storage_saf_sources(tensor, saf, extents))
    if not sources:
        return NO_ELIMINATION
    return FlowClassification.from_sources(sources)


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
