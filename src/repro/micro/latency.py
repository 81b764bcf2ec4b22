"""Processing speed model (Sec 5.4).

Cycles are spent for actual and gated storage accesses and computes;
skipped operations cost nothing. Each component processes its cycled
operations at its bandwidth; the slowest component bounds the design
(bandwidth throttling), which is how the paper diagnoses STC-flexible's
SMEM bottleneck (Sec 7.1.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.spec import Architecture
from repro.dataflow.nest_analysis import DenseTraffic
from repro.micro.record import EvaluationRecord, RecordLayout, as_record
from repro.sparse.traffic import (
    DATA_READS,
    DATA_WRITES,
    GATED,
    METADATA_READS,
    METADATA_WRITES,
    SparseTraffic,
)


@dataclass
class LatencyResult:
    """Cycle counts per component and the overall bottleneck."""

    cycles: float
    bottleneck: str
    per_component: dict[str, float] = field(default_factory=dict)
    #: Words/cycle each storage level must sustain (per instance) to
    #: keep the compute units busy at the ideal rate (Fig. 16's metric).
    bandwidth_demand: dict[str, float] = field(default_factory=dict)
    compute_cycles: float = 0.0

    @property
    def utilization(self) -> float:
        """Compute utilization = ideal compute cycles / achieved."""
        if self.cycles <= 0:
            return 1.0
        return self.compute_cycles / self.cycles


def latency_view(layout: RecordLayout, values) -> LatencyResult:
    """The :class:`LatencyResult` of a record."""
    at = layout.latency
    compute_cycles = values[at]
    per_component = {layout.compute: compute_cycles}
    demand = {}
    for index, level in enumerate(layout.levels):
        per_component[level] = values[at + 1 + index]
        if compute_cycles > 0:
            demand[level] = values[layout.demand + index]
    bottleneck = int(values[layout.bottleneck])
    return LatencyResult(
        cycles=values[layout.cycles],
        bottleneck=layout.compute if bottleneck == 0 else layout.levels[bottleneck - 1],
        per_component=per_component,
        bandwidth_demand=demand,
        compute_cycles=compute_cycles,
    )


def compute_latency(
    arch: Architecture,
    dense: DenseTraffic,
    sparse: SparseTraffic | EvaluationRecord,
) -> LatencyResult | EvaluationRecord:
    """Derive processing cycles with bandwidth throttling.

    Compute cycles = (actual + gated computes) / utilized compute
    units. Each storage level's cycles = its port words / bandwidth,
    per instance. Only *actual* accesses move words through the port; a
    gated access idles the unit for the cycle (accounted by the
    lock-stepped compute), and skipped accesses cost nothing. Metadata
    occupies the port only when the level streams it in-band. The
    overall latency is the maximum.

    ``sparse`` may also be an open record (:func:`~repro.micro.record.
    open_record`), as the engine passes it: per-component cycles,
    bandwidth demand, the cycle count and the bottleneck are written
    into its buffer, and the record comes back instead of a
    :class:`LatencyResult`.
    """
    record = as_record(arch, sparse)
    layout, values = record.layout, record.values
    compute_cycles = (values[0] + values[GATED]) / dense.utilized_compute_instances
    at = layout.latency
    values[at] = compute_cycles
    traffic = dense.traffic
    slots = layout.slots
    rows = layout.rows
    for index, level in enumerate(arch.levels):
        scale = None
        if level.metadata_on_data_port:
            scale = level.metadata_word_bits / level.word_bits
        reads = writes = 0.0
        instances = 1
        for slot in layout.level_slots[index]:
            row = rows[slot]
            r = values[row + DATA_READS]
            w = values[row + DATA_WRITES]
            if scale is not None:
                r += values[row + METADATA_READS] * scale
                w += values[row + METADATA_WRITES] * scale
            reads += r
            writes += w
            flow = traffic.get((level.name, slots[2 * slot + 1]))
            if flow is not None:
                instances = max(instances, flow.instances)
        # Read and write streams overlap on dual-ported storage; the
        # slower stream bounds the level.
        read_cycles = write_cycles = 0.0
        if level.read_bandwidth is not None:
            read_cycles = reads / instances / level.read_bandwidth
        if level.write_bandwidth is not None:
            write_cycles = writes / instances / level.write_bandwidth
        values[at + 1 + index] = max(read_cycles, write_cycles)
        if compute_cycles > 0:
            values[layout.demand + index] = (
                (reads + writes) / instances / compute_cycles
            )
    per_component = values[at : layout.demand]
    bottleneck = max(range(len(per_component)), key=per_component.__getitem__)
    cycles = per_component[bottleneck]
    if cycles <= 0.0:
        # Degenerate mapping (no work); report a single cycle.
        cycles = 1.0
    values[layout.cycles] = cycles
    values[layout.bottleneck] = bottleneck
    return record if record is sparse else latency_view(layout, values)
