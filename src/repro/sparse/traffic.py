"""Sparse traffic data model: fine-grained action breakdowns (Sec 5.3.4).

The sparse modeling step decomposes every dense traffic number into
three fine-grained action types: *actual* (happened, full cost),
*gated* (unit idles: cycle spent, energy saved) and *skipped* (cycle
and energy saved). Data and metadata accesses are tracked separately.

The engine keeps these counts as the *action part* of one flat float
record per evaluation (:mod:`repro.micro.record`): the compute split
and its fractions (:data:`COMPUTE_WIDTH` floats), then one row of
:data:`SLOT_WIDTH` floats per ``(level, tensor)`` slot — the four
channels' actual/gated/skipped counts in :data:`ACTION_CHANNELS` order,
then the occupancy, worst-case occupancy, compression rate and
intersection checks. The sparse step's fast paths write that part
directly; :func:`pack_sparse` packs the scalar oracle's objects into
it, and :func:`unpack_sparse` builds the objects back from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The four action-breakdown channels of one (level, tensor) slot, in
#: record order.
ACTION_CHANNELS = (
    "data_reads",
    "data_writes",
    "metadata_reads",
    "metadata_writes",
)

#: Floats of the compute part: actual, gated, skipped, then the three
#: compute fractions.
COMPUTE_WIDTH = 6

#: Offsets of the four channels' actual counts within a slot row, in
#: :data:`ACTION_CHANNELS` order; each channel's gated and skipped
#: counts follow at ``+ GATED`` and ``+ SKIPPED`` (the compute split
#: at the head of the record too).
DATA_READS, DATA_WRITES, METADATA_READS, METADATA_WRITES = 0, 3, 6, 9
GATED, SKIPPED = 1, 2

#: Action counts per slot: 4 channels x (actual, gated, skipped). The
#: stacked walk and the plan accumulate a slot's counts in this many
#: consecutive accumulators, laid out like the row's head.
SLOT_ACTIONS = 12

#: Offsets of the four scalars within a slot row.
OCCUPANCY, WORST_OCCUPANCY, COMPRESSION_RATE, INTERSECTION_CHECKS = range(
    SLOT_ACTIONS, SLOT_ACTIONS + 4
)

#: Floats per slot: its action counts, then the four scalars.
SLOT_WIDTH = SLOT_ACTIONS + 4


def split_components(
    total: float, actual_frac: float, gated_frac: float
) -> tuple[float, float, float]:
    """``total`` split by fractions; the remainder is skipped."""
    actual = total * actual_frac
    gated = total * gated_frac
    return actual, gated, max(0.0, total - actual - gated)


def action_part(
    computes: float,
    fractions: tuple[float, float, float],
    acc: list[float],
    start: int,
    scalars,
) -> list[float]:
    """The record action part of an analysis whose slot counts were
    accumulated: ``computes`` dense computes split by the compute
    ``fractions`` (actual, gated, skipped), then one row per slot — its
    :data:`SLOT_ACTIONS` accumulators, consecutive in ``acc`` from
    ``start`` on, and its four scalars (one tuple per slot in
    ``scalars``, in slot order)."""
    actual, gated, _skipped = fractions
    values = [*split_components(computes, actual, gated), *fractions]
    for row in scalars:
        values += acc[start : start + SLOT_ACTIONS]
        values += row
        start += SLOT_ACTIONS
    return values


@dataclass(slots=True)
class ActionBreakdown:
    """Counts of one action split into actual / gated / skipped.

    Slotted: the sparse walk allocates a handful of breakdowns per
    (level, tensor) pair for every candidate of a search, so the
    per-instance ``__dict__`` is measurable overhead.
    """

    actual: float = 0.0
    gated: float = 0.0
    skipped: float = 0.0

    @property
    def total(self) -> float:
        return self.actual + self.gated + self.skipped

    @property
    def cycled(self) -> float:
        """Operations that consume cycles (actual + gated)."""
        return self.actual + self.gated

    def add(self, other: "ActionBreakdown") -> None:
        self.actual += other.actual
        self.gated += other.gated
        self.skipped += other.skipped

    def scaled(self, factor: float) -> "ActionBreakdown":
        return ActionBreakdown(
            self.actual * factor, self.gated * factor, self.skipped * factor
        )

    @classmethod
    def split(
        cls, total: float, actual_frac: float, gated_frac: float
    ) -> "ActionBreakdown":
        """Split ``total`` by fractions; the remainder is skipped."""
        return cls(*split_components(total, actual_frac, gated_frac))


@dataclass(slots=True)
class LevelTensorActions:
    """All sparse actions of one tensor at one storage level."""

    tensor: str
    level: str
    data_reads: ActionBreakdown = field(default_factory=ActionBreakdown)
    data_writes: ActionBreakdown = field(default_factory=ActionBreakdown)
    metadata_reads: ActionBreakdown = field(default_factory=ActionBreakdown)
    metadata_writes: ActionBreakdown = field(default_factory=ActionBreakdown)
    #: Expected resident occupancy in data-word equivalents.
    occupancy_words: float = 0.0
    #: Worst-case occupancy (drives the capacity validity check).
    worst_occupancy_words: float = 0.0
    #: Compression rate of the resident tile (dense words / encoded).
    compression_rate: float = 1.0
    #: Intersection-unit decisions made for this tensor's flows at
    #: this level (Sec 3.1.3's hardware overhead of skipping).
    intersection_checks: float = 0.0

    @property
    def total_cycled_accesses(self) -> float:
        return (
            self.data_reads.cycled
            + self.data_writes.cycled
            + self.metadata_reads.cycled
            + self.metadata_writes.cycled
        )


@dataclass(slots=True)
class SparseTraffic:
    """Output of the sparse modeling step: filtered (sparse) traffic."""

    actions: dict[tuple[str, str], LevelTensorActions] = field(
        default_factory=dict
    )
    compute: ActionBreakdown = field(default_factory=ActionBreakdown)
    #: Fraction of dense computes classified {actual, gated, skipped}.
    compute_fractions: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def at(self, level: str, tensor: str) -> LevelTensorActions:
        key = (level, tensor)
        actions = self.actions.get(key)
        if actions is None:
            actions = LevelTensorActions(tensor=tensor, level=level)
            self.actions[key] = actions
        return actions

    def level_actions(self, level: str) -> list[LevelTensorActions]:
        return [a for (lvl, _t), a in self.actions.items() if lvl == level]


def pack_sparse(sparse: SparseTraffic) -> tuple[tuple[str, ...], list[float]]:
    """The record action part of ``sparse``: its flat ``(level,
    tensor)*`` slot keys in ``actions`` order and the float row."""
    compute = sparse.compute
    values = [compute.actual, compute.gated, compute.skipped]
    values += sparse.compute_fractions
    slots: list[str] = []
    for key, actions in sparse.actions.items():
        slots += key
        for channel in (
            actions.data_reads,
            actions.data_writes,
            actions.metadata_reads,
            actions.metadata_writes,
        ):
            values += (channel.actual, channel.gated, channel.skipped)
        values += (
            actions.occupancy_words,
            actions.worst_occupancy_words,
            actions.compression_rate,
            actions.intersection_checks,
        )
    return tuple(slots), values


def unpack_sparse(slots: tuple[str, ...], values) -> SparseTraffic:
    """The :class:`SparseTraffic` a record action part describes: fresh
    objects, owned by the caller."""

    def channel(at: int) -> ActionBreakdown:
        return ActionBreakdown(values[at], values[at + GATED], values[at + SKIPPED])

    sparse = SparseTraffic(
        compute=channel(0),
        compute_fractions=(values[3], values[4], values[5]),
    )
    actions = sparse.actions
    row = COMPUTE_WIDTH
    names = iter(slots)
    for level, tensor in zip(names, names):
        actions[level, tensor] = LevelTensorActions(
            tensor,
            level,
            channel(row + DATA_READS),
            channel(row + DATA_WRITES),
            channel(row + METADATA_READS),
            channel(row + METADATA_WRITES),
            values[row + OCCUPANCY],
            values[row + WORST_OCCUPANCY],
            values[row + COMPRESSION_RATE],
            values[row + INTERSECTION_CHECKS],
        )
        row += SLOT_WIDTH
    return sparse
