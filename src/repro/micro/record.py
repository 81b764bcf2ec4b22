"""The evaluation record: one flat float buffer per evaluation.

The micro-architectural step (Sec 5.4) reads only the sparse action
counts, so one evaluation's numbers fit one ``array('d')``:

* the action part (:mod:`repro.sparse.traffic`): the compute split and
  fractions, then one row per ``(level, tensor)`` slot;
* the micro tail: used words per storage level, the first overflowing
  level, per-component cycles (compute, then the levels), per-level
  bandwidth demand, the cycle count and the bottleneck, per-slot energy
  parts, per-component energy (the levels, then compute) and the total.

A :class:`RecordLayout` says where each number sits. It depends only on
the architecture and the slot keys, so one interned layout serves every
record of a mapping, whatever the densities; an unpickled layout is the
interned one too. The tail formulas live with their result types:
:func:`~repro.micro.validity.check_validity`,
:func:`~repro.micro.latency.compute_latency` and
:func:`~repro.micro.energy.compute_energy` write their part of an open
record (:func:`open_record`) in place, and the ``*_view`` functions
beside them build :class:`~repro.micro.validity.LevelUsage`,
:class:`~repro.micro.latency.LatencyResult` and
:class:`~repro.micro.energy.EnergyResult` objects from a record on
demand.
"""

from __future__ import annotations

from array import array

from repro.arch.spec import Architecture
from repro.common.cache import spec_digest
from repro.sparse.traffic import COMPUTE_WIDTH, SLOT_WIDTH, pack_sparse

#: Energy parts of one slot, in record order; the breakdown keys are
#: ``"<tensor>:<part>"``.
ENERGY_PARTS = ("intersection", "read", "write", "metadata_read", "metadata_write")


class RecordLayout:
    """Where each number of a record sits (see the module docstring).

    ``arch`` is the architecture's digest, ``slots`` the flat ``(level,
    tensor)*`` slot keys, ``levels`` the architecture's storage level
    names (outermost first), ``capacities`` their capacities as the
    architecture gives them, ``level_slots`` the slot indices at each
    level, in slot order, and ``rows`` each slot's row offset. The
    remaining fields are offsets into the buffer.
    """

    __slots__ = (
        "arch", "slots", "levels", "compute", "capacities", "level_slots",
        "rows", "breakdown_keys", "usage", "overflow", "latency", "demand",
        "cycles", "bottleneck", "parts", "energy", "energy_pj", "tail",
    )

    def __init__(
        self,
        arch: bytes,
        slots: tuple[str, ...],
        levels: tuple[str, ...],
        compute: str,
        capacities: tuple,
    ):
        names = iter(slots)
        pairs = list(zip(names, names))
        self.arch = arch
        self.slots = slots
        self.levels = levels
        self.compute = compute
        self.capacities = capacities
        self.level_slots = tuple(
            tuple(i for i, (at, _tensor) in enumerate(pairs) if at == level)
            for level in levels
        )
        self.rows = tuple(
            COMPUTE_WIDTH + SLOT_WIDTH * slot for slot in range(len(pairs))
        )
        self.breakdown_keys = tuple(
            tuple(f"{tensor}:{part}" for part in ENERGY_PARTS)
            for _level, tensor in pairs
        )
        count = len(levels)
        start = COMPUTE_WIDTH + SLOT_WIDTH * len(pairs)
        self.usage = start
        self.overflow = start + count
        self.latency = self.overflow + 1
        self.demand = self.latency + 1 + count
        self.cycles = self.demand + count
        self.bottleneck = self.cycles + 1
        self.parts = self.bottleneck + 1
        self.energy = self.parts + len(ENERGY_PARTS) * len(pairs)
        self.energy_pj = self.energy + count + 1
        #: Zeros that extend an action part to a whole record.
        self.tail = (0.0,) * (self.energy_pj + 1 - start)

    def __reduce__(self):
        # Records cross processes (pool results, warm-worker shipping,
        # the persistent tier): ship the interning key, so the receiver
        # shares its own interned layout instead of holding a copy.
        return _interned, (
            self.arch, self.slots, self.levels, self.compute, self.capacities
        )


#: Interned layouts by (architecture digest, slot keys); cleared when
#: full, so sweeps over many architectures cannot leak.
_LAYOUTS: dict[tuple, RecordLayout] = {}


def _interned(
    arch: bytes,
    slots: tuple[str, ...],
    levels: tuple[str, ...],
    compute: str,
    capacities: tuple,
) -> RecordLayout:
    layout = _LAYOUTS.get((arch, slots))
    if layout is None:
        if len(_LAYOUTS) >= 4096:
            _LAYOUTS.clear()
        layout = _LAYOUTS[arch, slots] = RecordLayout(
            arch, slots, levels, compute, capacities
        )
    return layout


def record_layout(arch: Architecture, slots: tuple[str, ...]) -> RecordLayout:
    """The interned layout of ``arch``'s records with ``slots``."""
    key = spec_digest(arch)
    layout = _LAYOUTS.get((key, slots))
    if layout is None:
        layout = _interned(
            key,
            slots,
            tuple(arch.level_names),
            arch.compute.name,
            tuple(level.capacity_words for level in arch.levels),
        )
    return layout


def open_record(
    arch: Architecture, actions: tuple[tuple[str, ...], list[float]]
) -> EvaluationRecord:
    """A record of ``arch`` holding the action part ``actions`` (slot
    keys and values, :mod:`repro.sparse.traffic`) and a zero tail, its
    buffer still a list for the tail formulas to write;
    :meth:`EvaluationRecord.seal` packs it."""
    slots, values = actions
    layout = record_layout(arch, slots)
    values += layout.tail
    return EvaluationRecord(layout, values)


def as_record(arch: Architecture, sparse) -> EvaluationRecord:
    """``sparse`` when it is a record, else an open record of the
    :class:`~repro.sparse.traffic.SparseTraffic` objects' counts: what
    ``check_validity``, ``compute_latency`` and ``compute_energy`` run
    their formula over."""
    if isinstance(sparse, EvaluationRecord):
        return sparse
    return open_record(arch, pack_sparse(sparse))


class EvaluationRecord:
    """The ``"sparse"`` stage's value: a shared layout and one float
    buffer. Read-only once sealed, like every cached value; results
    build their objects from it (:class:`~repro.model.result.
    EvaluationResult`)."""

    __slots__ = ("layout", "values")

    def __init__(self, layout: RecordLayout, values):
        self.layout = layout
        self.values = values

    def seal(self) -> EvaluationRecord:
        """Pack an open record's buffer into one ``array('d')``."""
        self.values = array("d", self.values)
        return self

    @property
    def cycles(self) -> float:
        return self.values[self.layout.cycles]

    @property
    def energy_pj(self) -> float:
        return self.values[self.layout.energy_pj]

    @property
    def overflow(self) -> int:
        """Index of the first storage level whose worst-case tiles do
        not fit, or ``-1``."""
        return int(self.values[self.layout.overflow])
