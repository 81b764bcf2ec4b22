"""Energy model (Sec 5.4): fine-grained action counts x Accelergy costs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelergy.backend import Accelergy
from repro.accelergy.library import build_component
from repro.arch.spec import Architecture
from repro.sparse.traffic import ActionBreakdown, SparseTraffic


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


def _breakdown_energy(breakdown: ActionBreakdown, energy_actual: float, gated_fraction: float) -> float:
    return (
        breakdown.actual * energy_actual
        + breakdown.gated * energy_actual * gated_fraction
    )


def compute_energy(
    arch: Architecture,
    sparse: SparseTraffic,
    backend: Accelergy | None = None,
) -> EnergyResult:
    """Total dynamic energy: actual actions at full cost, gated actions
    at the component's idle fraction, skipped actions free."""
    backend = backend or Accelergy(arch)
    per_component: dict[str, float] = {}
    detail: dict[str, dict[str, float]] = {}
    check_pj = build_component("intersection").energy_per_action("check")

    for level in arch.levels:
        spec = backend.storage(level.name)
        level_total = 0.0
        level_detail: dict[str, float] = {}
        for actions in sparse.level_actions(level.name):
            parts = {
                "intersection": actions.intersection_checks * check_pj,
                "read": _breakdown_energy(
                    actions.data_reads, spec.read, spec.gated_fraction
                ),
                "write": _breakdown_energy(
                    actions.data_writes, spec.write, spec.gated_fraction
                ),
                "metadata_read": _breakdown_energy(
                    actions.metadata_reads, spec.metadata_read, spec.gated_fraction
                ),
                "metadata_write": _breakdown_energy(
                    actions.metadata_writes,
                    spec.metadata_write,
                    spec.gated_fraction,
                ),
            }
            for key, value in parts.items():
                level_detail[f"{actions.tensor}:{key}"] = value
                level_total += value
        per_component[level.name] = level_total
        detail[level.name] = level_detail

    compute_spec = backend.compute
    compute_energy_pj = _breakdown_energy(
        sparse.compute, compute_spec.op, compute_spec.gated_fraction
    )
    per_component[arch.compute.name] = compute_energy_pj
    detail[arch.compute.name] = {"op": compute_energy_pj}

    return EnergyResult(
        total_pj=sum(per_component.values()),
        per_component=per_component,
        per_component_breakdown=detail,
    )
