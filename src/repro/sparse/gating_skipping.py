"""Gating/Skipping analyzer (Sec 5.3.4).

Evaluates how many ineffectual operations each gating/skipping SAF
eliminates. The crux is identifying the *leader tile*: the region of
the leader tensor that a follower access is exclusively paired with,
which is determined by the data reuse the mapping creates (Fig. 10).

* For compute-feed accesses, the follower datum stays latched at the
  compute unit across the innermost run of loops irrelevant to it; the
  leader tile spans exactly those loops.
* For tile transfers, the follower tile's residency episode spans the
  child tile plus the outside loops it is stationary across; the leader
  tile spans that episode.

The probability that a leader tile is empty comes from the leader's
statistical density model; with multiple hierarchical SAFs on the same
leader, the elimination events nest, so the analyzer keeps the finest
granularity (minimum keep probability) rather than multiplying.

The analyzer answers two kinds of question. *Structural* queries
(``*_queries``, :meth:`~GatingSkippingAnalyzer.leader_shape`,
:meth:`~GatingSkippingAnalyzer.tensor_drives_skipping`) say which
leaders pair with a flow, at which tile shape; they depend only on the
einsum, architecture, mapping and SAFs. *Probability* queries
(:meth:`~GatingSkippingAnalyzer.keep` and the ``classify*`` methods)
resolve them against the workload's density models. The sparse walk
resolves them on the spot; a sparse plan records the structural
answers once and resolves them per density point
(:mod:`repro.sparse.postprocess`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.common.errors import SpecError
from repro.dataflow.nest_analysis import DenseTraffic
from repro.sparse.saf import SAFKind, SAFSpec, StorageSAF
from repro.workload.einsum import TensorRef


@dataclass(frozen=True, slots=True)
class EliminationSource:
    """One elimination mechanism acting on a flow.

    ``keep`` is the probability an operation survives this source
    (e.g. P(leader tile nonempty)). Sources with the same ``leader``
    describe nested events at different granularities and are combined
    by minimum keep; independent leaders multiply.
    """

    kind: SAFKind
    leader: str
    keep: float
    origin: str = ""
    #: True when an explicit storage-SAF intersection unit produces
    #: this source; each decided operation then costs a check.
    is_intersection: bool = False


@dataclass(frozen=True, slots=True)
class LeaderQuery:
    """An elimination source before its keep probability is known.

    ``shape`` holds the rank extents of the leader tile the follower
    pairs with; its keep is P(leader tile nonempty). ``None`` marks
    single-element granularity, whose keep is the leader's density.
    """

    kind: SAFKind
    leader: str
    shape: tuple[int, ...] | None
    origin: str = ""
    is_intersection: bool = False


def leader_groups(
    sources: Sequence, ids: Sequence[int] | None = None
) -> tuple[int, ...]:
    """The per-leader structure of a source combination, flattened.

    ``sources`` are anything with ``kind`` and ``leader``; each leader
    forms one skip group and/or one gate group, in first-appearance
    order. The result is one flat tuple of ints: the skip-group count,
    then per skip group its size and the source positions it takes the
    minimum keep over; then the gate-group count, then per gate group
    its size, the index of the skip group on the same leader (``-1`` if
    none) and its positions. ``ids`` replaces each position by
    ``ids[position]`` (a sparse plan's value indices). A flat tuple of
    ints is something the cyclic collector stops tracking at its first
    pass.
    """
    skip_index: dict[str, int] = {}
    gate_index: dict[str, int] = {}
    skips: list[list[int]] = []
    gates: list[list[int]] = []
    for position, src in enumerate(sources):
        if src.kind is SAFKind.SKIP:
            index, groups = skip_index, skips
        else:
            index, groups = gate_index, gates
        slot = index.get(src.leader)
        if slot is None:
            slot = index[src.leader] = len(groups)
            groups.append([])
        groups[slot].append(position if ids is None else ids[position])
    flat = [len(skips)]
    for group in skips:
        flat.append(len(group))
        flat.extend(group)
    flat.append(len(gates))
    for group, leader in zip(gates, gate_index):
        flat.append(len(group))
        flat.append(skip_index.get(leader, -1))
        flat.extend(group)
    return tuple(flat)


def combine_keeps(
    keeps: Sequence[float], groups: tuple[int, ...]
) -> tuple[float, float, float]:
    """``(actual, gated, skipped)`` fractions of a flow whose sources
    have the given ``keeps`` (indexed by the positions in ``groups``,
    from :func:`leader_groups`).

    Each leader keeps its finest granularity (minimum keep); skip
    leaders multiply into ``k_skip``. A gate nested inside a skip on
    the same leader only gates what the skip did not already remove.
    """
    skip_values = []
    k_skip = 1.0
    i = 1
    for _ in range(groups[0]):
        end = i + 1 + groups[i]
        keep = 1.0
        for j in range(i + 1, end):
            keep = min(keep, keeps[groups[j]])
        skip_values.append(keep)
        k_skip *= keep
        i = end
    k_gate = 1.0
    count = groups[i]
    i += 1
    for _ in range(count):
        end = i + 2 + groups[i]
        nested = groups[i + 1]
        keep = 1.0
        for j in range(i + 2, end):
            keep = min(keep, keeps[groups[j]])
        nested_skip = skip_values[nested] if nested >= 0 else 1.0
        if nested_skip > 0:
            keep = min(1.0, keep / nested_skip)
        k_gate *= keep
        i = end
    return k_skip * k_gate, k_skip * (1.0 - k_gate), 1.0 - k_skip


@dataclass(frozen=True, slots=True)
class FlowClassification:
    """Fractions of a flow's operations that are skipped/gated/actual."""

    actual: float
    gated: float
    skipped: float

    @classmethod
    def from_sources(
        cls, sources: list[EliminationSource]
    ) -> "FlowClassification":
        if not sources:
            # Identical to running the combination on zero sources
            # (k_skip = k_gate = 1): the flow survives untouched.
            return NO_ELIMINATION
        return cls(
            *combine_keeps([s.keep for s in sources], leader_groups(sources))
        )


NO_ELIMINATION = FlowClassification(actual=1.0, gated=0.0, skipped=0.0)


class GatingSkippingAnalyzer:
    """Derives flow classifications for one (design, workload, mapping).

    The analyzer is constructed from the dense traffic (which carries
    the loop-nest view) and the design's SAF specification. Its
    structural queries never read a density model.
    """

    def __init__(
        self,
        dense: DenseTraffic,
        safs: SAFSpec,
        *,
        shared: dict | None = None,
    ):
        self.dense = dense
        self.safs = safs
        self.einsum = dense.workload.einsum
        self.workload = dense.workload
        self.nest = dense.nest
        # Per-analysis memos: many flows of one loop nest re-derive the
        # same leader tile shape and keep probability, and the
        # output-update classification re-collects the compute queries.
        # Memoising inside the analyzer keeps every path on the exact
        # same floats while removing the repeated dict/projection work.
        #
        # ``shared`` extends those memos *across* analyzers: the
        # candidates of one mapspace search share workload (densities),
        # SAF spec, and architecture, so leader keeps and the
        # mapping-structure-keyed classifications recur block after
        # block. Every shared entry is a pure function of its key given
        # that fixed context — callers own scoping the dict to it.
        self._shared = shared
        if shared is not None:
            self._shape_memo = shared.setdefault("shape", {})
            self._keep_memo = shared.setdefault("keep", {})
        else:
            self._shape_memo = {}
            self._keep_memo = {}
        self._compute_queries: list[LeaderQuery] | None = None
        self._inputs_innermost: tuple[str, ...] | None = None

    def _inputs_innermost_keeps(self) -> tuple[str, ...]:
        """Each input's innermost keeping level, in einsum order.

        Shared-memo keys for the compute-query collection and the
        update classification both hinge on exactly this projection of
        the mapping, so it is derived once per analyzer.
        """
        if self._inputs_innermost is None:
            keep_chain = self.dense.mapping.keep_chain
            self._inputs_innermost = tuple(
                keep_chain(t.name)[-1] for t in self.einsum.inputs
            )
        return self._inputs_innermost

    # ------------------------------------------------------------------
    # Structural queries: leader tiles

    def leader_shape(
        self, leader_name: str, pair_extents: dict[str, int]
    ) -> tuple[int, ...]:
        """Rank extents of the ``leader_name`` tile spanning the given
        pairing extents."""
        memo_key = (leader_name, tuple(sorted(pair_extents.items())))
        shape = self._shape_memo.get(memo_key)
        if shape is None:
            leader = self.einsum.tensor(leader_name)
            extents = {d: pair_extents.get(d, 1) for d in self.einsum.dims}
            shape = leader.tile_rank_extents(extents)
            self._shape_memo[memo_key] = shape
        return shape

    def compute_feed_extents(self, follower: TensorRef) -> dict[str, int]:
        """Pairing extents for a compute-feed access of ``follower``."""
        return dict(self.dense.latch_extents.get(follower.name, {}))

    def transfer_extents(
        self, follower: TensorRef, child_level: str
    ) -> dict[str, int]:
        """Pairing extents for a tile transfer into ``child_level``."""
        child_index = self.dense.arch.level_index(child_level)
        return self.nest.episode_span_extents(child_index, follower.dims)

    def _granularity_for(
        self, follower: TensorRef, saf_level: str, chain: list[str]
    ) -> dict[str, int]:
        """Pairing extents at which a SAF at ``saf_level`` operates."""
        if saf_level == chain[-1]:
            return self.compute_feed_extents(follower)
        child = chain[chain.index(saf_level) + 1]
        return self.transfer_extents(follower, child)

    # ------------------------------------------------------------------
    # Structural queries: sources per flow

    def storage_saf_queries(
        self,
        follower: TensorRef,
        saf: StorageSAF,
        pair_extents: dict[str, int],
    ) -> list[LeaderQuery]:
        origin = saf.describe()
        return [
            LeaderQuery(
                saf.kind,
                leader_name,
                self.leader_shape(leader_name, pair_extents),
                origin,
                True,
            )
            for leader_name in saf.conditioned_on
        ]

    def flow_queries(
        self, follower: TensorRef, flow_level: str
    ) -> list[LeaderQuery]:
        """Sources acting on the flow of ``follower`` sourced at
        ``flow_level`` (compute-feed if innermost keeping level, else
        the transfer to the next keeping level below).

        SAFs at ancestor keeping levels propagate downward: a tile
        never delivered generates no lower-level traffic either. Each
        ancestor SAF keeps its own (coarser) granularity; the
        per-leader minimum-keep rule in :func:`combine_keeps` resolves
        the nesting.
        """
        chain = self.dense.mapping.keep_chain(follower.name)
        if flow_level not in chain:
            raise SpecError(
                f"flow level {flow_level!r} is not in {follower.name!r}'s "
                f"keep chain {chain}"
            )
        queries: list[LeaderQuery] = []
        position = chain.index(flow_level)
        for level in chain[: position + 1]:
            for saf in self.safs.storage_safs_at(level):
                if saf.target != follower.name:
                    continue
                extents = self._granularity_for(follower, level, chain)
                queries.extend(
                    self.storage_saf_queries(follower, saf, extents)
                )
        # NOTE: compute SAFs do NOT appear here. Eliminating an operand
        # *fetch* requires an explicit storage SAF (Table 3); a design
        # that only skips compute (e.g. STC's post-fetch 4:2 selection)
        # still pays the full fetch bandwidth — the bottleneck of
        # Sec 7.1.3.
        return queries

    def drain_queries(
        self, tensor: TensorRef, parent: str, child: str
    ) -> list[LeaderQuery]:
        """Sources acting on output drain traffic at a chain boundary.

        Only explicit SAFs targeting the output at the parent level
        apply (e.g. ExTensor's ``Skip Z <- A & B`` at every level);
        leader tiles span the child tile's residency episode.
        """
        queries: list[LeaderQuery] = []
        for saf in self.safs.storage_safs_at(parent):
            if saf.target != tensor.name:
                continue
            extents = self.transfer_extents(tensor, child)
            queries.extend(self.storage_saf_queries(tensor, saf, extents))
        return queries

    def _own_format_query(
        self, follower: TensorRef, level: str
    ) -> LeaderQuery | None:
        fmt = self.safs.format_for(level, follower.name)
        if fmt is None or not fmt.is_compressed:
            return None
        kind = (
            SAFKind.SKIP
            if self._tensor_drives_skipping(follower.name)
            else SAFKind.GATE
        )
        return LeaderQuery(
            kind, follower.name, None, f"compressed format at {level}"
        )

    def tensor_drives_skipping(self, tensor: str) -> bool:
        """Public alias used by the post-processing step."""
        return self._tensor_drives_skipping(tensor)

    def _tensor_drives_skipping(self, tensor: str) -> bool:
        """Whether the design walks this tensor's metadata to skip.

        True when any skipping SAF intersects on the tensor (it appears
        as a leader of a skip SAF, or a compute-skip SAF conditions on
        it / on all operands).
        """
        for saf in self.safs.storage_safs:
            if saf.kind is SAFKind.SKIP and tensor in saf.conditioned_on:
                return True
        for saf in self.safs.compute_safs:
            if saf.kind is not SAFKind.SKIP:
                continue
            if not saf.conditioned_on or tensor in saf.conditioned_on:
                return True
        return False

    def compute_queries(self) -> list[LeaderQuery]:
        """Elimination sources acting on the compute units.

        Combines explicit compute SAFs, implicit propagation from
        storage SAFs on the operand feeds, and compressed operand
        formats. All act at single-element granularity (keep = operand
        density).
        """
        if self._compute_queries is not None:
            return self._compute_queries
        shared = self._shared
        shared_key = None
        if shared is not None:
            # The collection depends on the mapping only through each
            # input's innermost keeping level (via the own-format
            # source); everything else is fixed search-wide.
            shared_key = ("compute-queries", self._inputs_innermost_keeps())
            cached = shared.get(shared_key)
            if cached is not None:
                self._compute_queries = cached
                return cached
        inputs = {t.name: t for t in self.einsum.inputs}
        queries: list[LeaderQuery] = []
        for saf in self.safs.compute_safs:
            conditioned = saf.conditioned_on or tuple(inputs)
            for name in conditioned:
                if name not in inputs:
                    continue
                queries.append(
                    LeaderQuery(saf.kind, name, None, saf.describe())
                )
        for saf in self.safs.storage_safs:
            if saf.target not in inputs and saf.target != self.einsum.output.name:
                continue
            if saf.target == self.einsum.output.name:
                continue  # output SAFs do not decide compute
            for leader_name in saf.conditioned_on:
                if leader_name not in inputs:
                    continue
                queries.append(
                    LeaderQuery(
                        saf.kind,
                        leader_name,
                        None,
                        f"implicit from {saf.describe()}",
                    )
                )
        for name, tensor in inputs.items():
            chain = self.dense.mapping.keep_chain(name)
            own = self._own_format_query(tensor, chain[-1])
            if own is not None:
                queries.append(own)
        self._compute_queries = queries
        if shared_key is not None:
            shared[shared_key] = queries
        return queries

    def _update_extents(self) -> dict[str, int]:
        """Pairing extents of one accumulator flush: the innermost
        temporal loops irrelevant to the output, merged across the
        spatial reduction lanes."""
        out = self.einsum.output
        extents = dict(self.dense.latch_extents.get(out.name, {}))
        chain = self.dense.mapping.keep_chain(out.name)
        innermost_idx = self.dense.arch.level_index(chain[-1])
        for loop in self.nest.boundary_spatial(innermost_idx, -1):
            if loop.dim not in out.dims:
                extents[loop.dim] = extents.get(loop.dim, 1) * loop.bound
        return extents

    def update_queries(
        self, extents: dict[str, int] | None = None
    ) -> list[LeaderQuery]:
        """The compute sources re-posed at update-group granularity
        (see :meth:`classify_output_updates`)."""
        if extents is None:
            extents = self._update_extents()
        return [
            LeaderQuery(
                q.kind,
                q.leader,
                self.leader_shape(q.leader, extents),
                f"{q.origin} (update group)",
            )
            for q in self.compute_queries()
        ]

    # ------------------------------------------------------------------
    # Probability queries

    def keep(self, query: LeaderQuery) -> float:
        """The probability an operation survives ``query``'s source."""
        if query.shape is None:
            return self.workload.density_of(query.leader).density
        memo_key = (query.leader, query.shape)
        keep = self._keep_memo.get(memo_key)
        if keep is None:
            model = self.workload.density_of(query.leader)
            keep = model.prob_nonempty(query.shape)
            self._keep_memo[memo_key] = keep
        return keep

    def classify(self, queries: list[LeaderQuery]) -> FlowClassification:
        """:meth:`FlowClassification.from_sources` of the resolved
        ``queries``, without building the sources."""
        if not queries:
            return NO_ELIMINATION
        keep = self.keep
        return FlowClassification(
            *combine_keeps([keep(q) for q in queries], leader_groups(queries))
        )

    def classify_compute(self) -> FlowClassification:
        shared = self._shared
        if shared is None:
            return self.classify(self.compute_queries())
        # Pure function of the compute-query collection, which is
        # itself keyed by the inputs' innermost keeping levels.
        key = ("compute-cls", self._inputs_innermost_keeps())
        cached = shared.get(key)
        if cached is None:
            cached = self.classify(self.compute_queries())
            shared[key] = cached
        return cached

    def classify_output_updates(self) -> FlowClassification:
        """Classification of accumulator write-backs.

        The accumulator flushes once per latch group (the innermost
        temporal loops irrelevant to the output, merged across the
        spatial reduction lanes); a flush is ineffectual only when
        *every* compute in its group was. Leader keeps are therefore
        re-evaluated at the group granularity rather than per compute.
        """
        extents = self._update_extents()
        shared = self._shared
        shared_key = None
        if shared is not None:
            # Fully determined by the compute-query collection (keyed
            # by the inputs' innermost keeping levels) and the group
            # extents — both mapping-derived, everything else fixed.
            shared_key = (
                "update-classification",
                self._inputs_innermost_keeps(),
                tuple(sorted(extents.items())),
            )
            cached = shared.get(shared_key)
            if cached is not None:
                return cached
        classification = self.classify(self.update_queries(extents))
        if shared_key is not None:
            shared[shared_key] = classification
        return classification

    def classify_flow(
        self, follower: TensorRef, flow_level: str
    ) -> FlowClassification:
        return self.classify(self.flow_queries(follower, flow_level))
