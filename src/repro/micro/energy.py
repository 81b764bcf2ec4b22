"""Energy model (Sec 5.4): fine-grained action counts x Accelergy costs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelergy.backend import Accelergy
from repro.accelergy.library import build_component
from repro.arch.spec import Architecture
from repro.micro.record import (
    ENERGY_PARTS,
    EvaluationRecord,
    RecordLayout,
    as_record,
)
from repro.sparse.traffic import (
    DATA_READS,
    DATA_WRITES,
    GATED,
    INTERSECTION_CHECKS,
    METADATA_READS,
    METADATA_WRITES,
    SparseTraffic,
)


@dataclass
class EnergyResult:
    """Total and per-component energy in pJ."""

    total_pj: float
    per_component: dict[str, float] = field(default_factory=dict)
    per_component_breakdown: dict[str, dict[str, float]] = field(
        default_factory=dict
    )

    def component(self, name: str) -> float:
        return self.per_component.get(name, 0.0)


def energy_view(layout: RecordLayout, values) -> EnergyResult:
    """The :class:`EnergyResult` of a record."""
    at = layout.energy
    per_component: dict[str, float] = {}
    detail: dict[str, dict[str, float]] = {}
    for index, level in enumerate(layout.levels):
        level_detail = {}
        for slot in layout.level_slots[index]:
            out = layout.parts + len(ENERGY_PARTS) * slot
            level_detail.update(
                zip(layout.breakdown_keys[slot], values[out : out + len(ENERGY_PARTS)])
            )
        per_component[level] = values[at + index]
        detail[level] = level_detail
    compute = values[at + len(layout.levels)]
    per_component[layout.compute] = compute
    detail[layout.compute] = {"op": compute}
    return EnergyResult(
        total_pj=values[layout.energy_pj],
        per_component=per_component,
        per_component_breakdown=detail,
    )


def compute_energy(
    arch: Architecture,
    sparse: SparseTraffic | EvaluationRecord,
    backend: Accelergy | None = None,
) -> EnergyResult | EvaluationRecord:
    """Total dynamic energy.

    Actual actions cost full energy, gated ones the component's idle
    fraction of it, skipped ones nothing; intersection checks cost the
    intersection unit's check energy.

    ``sparse`` may also be an open record (:func:`~repro.micro.record.
    open_record`), as the engine passes it: per-slot energy parts,
    per-component energy and the total are written into its buffer, and
    the record comes back instead of an :class:`EnergyResult`.
    """
    record = as_record(arch, sparse)
    layout, values = record.layout, record.values
    if backend is None:
        backend = Accelergy(arch)
    check_pj = build_component("intersection").energy_per_action("check")
    parts = layout.parts
    rows = layout.rows
    at = layout.energy
    for index, level in enumerate(layout.levels):
        spec = backend.storage(level)
        gated = spec.gated_fraction
        read, write = spec.read, spec.write
        metadata_read, metadata_write = spec.metadata_read, spec.metadata_write
        level_total = 0.0
        for slot in layout.level_slots[index]:
            row = rows[slot]
            slot_parts = (
                values[row + INTERSECTION_CHECKS] * check_pj,
                values[row + DATA_READS] * read
                + values[row + DATA_READS + GATED] * read * gated,
                values[row + DATA_WRITES] * write
                + values[row + DATA_WRITES + GATED] * write * gated,
                values[row + METADATA_READS] * metadata_read
                + values[row + METADATA_READS + GATED] * metadata_read * gated,
                values[row + METADATA_WRITES] * metadata_write
                + values[row + METADATA_WRITES + GATED] * metadata_write * gated,
            )
            out = parts + len(ENERGY_PARTS) * slot
            values[out : out + len(ENERGY_PARTS)] = slot_parts
            for value in slot_parts:
                level_total += value
        values[at + index] = level_total
    compute = backend.compute
    count = len(layout.levels)
    values[at + count] = (
        values[0] * compute.op + values[GATED] * compute.op * compute.gated_fraction
    )
    values[layout.energy_pj] = sum(values[at : at + count + 1])
    return record if record is sparse else energy_view(layout, values)
