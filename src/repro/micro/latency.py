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
from repro.sparse.traffic import SparseTraffic


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


def _level_words(actions, level) -> tuple[float, float]:
    """Port traffic (read_words, write_words) in data-word equivalents.

    Only *actual* accesses move words through the port; a gated access
    idles the unit for the cycle (the cycle itself is accounted by the
    lock-stepped compute), and skipped accesses cost nothing. Metadata
    occupies the port only when the level streams it in-band.
    """
    reads = actions.data_reads.actual
    writes = actions.data_writes.actual
    if level.metadata_on_data_port:
        meta_scale = level.metadata_word_bits / level.word_bits
        reads += actions.metadata_reads.actual * meta_scale
        writes += actions.metadata_writes.actual * meta_scale
    return reads, writes


def compute_latency(
    arch: Architecture,
    dense: DenseTraffic,
    sparse: SparseTraffic,
) -> LatencyResult:
    """Derive processing cycles with bandwidth throttling.

    Compute cycles = (actual + gated computes) / utilized compute
    units. Each storage level's cycles = its cycled words / bandwidth,
    evaluated per instance. The overall latency is the maximum.
    """
    per_component: dict[str, float] = {}
    demand: dict[str, float] = {}

    compute_cycles = sparse.compute.cycled / dense.utilized_compute_instances
    per_component[arch.compute.name] = compute_cycles

    for level in arch.levels:
        reads = writes = 0.0
        instances = 1
        for actions in sparse.level_actions(level.name):
            r, w = _level_words(actions, level)
            reads += r
            writes += w
            record = dense.traffic.get((level.name, actions.tensor))
            if record is not None:
                instances = max(instances, record.instances)
        # Read and write streams overlap on dual-ported storage; the
        # slower stream bounds the level.
        read_cycles = write_cycles = 0.0
        if level.read_bandwidth is not None:
            read_cycles = reads / instances / level.read_bandwidth
        if level.write_bandwidth is not None:
            write_cycles = writes / instances / level.write_bandwidth
        per_component[level.name] = max(read_cycles, write_cycles)
        if compute_cycles > 0:
            demand[level.name] = (reads + writes) / instances / compute_cycles

    bottleneck = max(per_component, key=per_component.get)
    cycles = per_component[bottleneck]
    if cycles <= 0.0:
        # Degenerate mapping (no work); report a single cycle.
        cycles = 1.0
    return LatencyResult(
        cycles=cycles,
        bottleneck=bottleneck,
        per_component=per_component,
        bandwidth_demand=demand,
        compute_cycles=compute_cycles,
    )
