"""The two motivating designs of Fig. 1.

Both share an output-stationary matmul dataflow on a two-level
hierarchy; they differ only in representation format and whether
ineffectual compute is gated or skipped:

* **bitmask**: one presence bit per element; storage/compute idle
  through ineffectual cycles (saves energy, not time).
* **coordinate list**: explicit multi-bit coordinates per nonzero;
  hardware jumps to the next effectual computation (saves energy and
  time) but pays more metadata per nonzero, which hurts at high
  density.
"""

from __future__ import annotations

from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.model.engine import Design, einsum_only
from repro.sparse.formats import (
    Bitmask,
    CoordinatePayload,
    FormatRank,
    FormatSpec,
)
from repro.sparse.saf import (
    SAFKind,
    SAFSpec,
    double_sided,
    gate_compute,
    skip_compute,
)
from repro.designs.common import split_factor
from repro.workload.spec import Workload


def build_architecture(name: str) -> Architecture:
    return Architecture(
        name,
        [
            StorageLevel(
                "DRAM",
                capacity_words=None,
                component="dram",
                read_bandwidth=8,
                write_bandwidth=8,
            ),
            StorageLevel(
                "Buffer",
                capacity_words=64 * 1024,
                component="sram",
                read_bandwidth=4,
                write_bandwidth=4,
            ),
        ],
        ComputeLevel("MAC", instances=4),
    )


@einsum_only("toy.output_stationary")
def output_stationary_mapping(workload: Workload, arch) -> Mapping:
    """Z stationary in the buffer; k innermost; modest m tiling."""
    dims = workload.einsum.dims
    m_outer, m_inner = split_factor(dims["m"], 64)
    n_outer, n_inner = split_factor(dims["n"], 64)
    return Mapping(
        [
            LevelMapping(
                "DRAM", [Loop("m", m_outer), Loop("n", n_outer)]
            ),
            LevelMapping(
                "Buffer",
                [
                    Loop("m", m_inner),
                    Loop("n", n_inner),
                    Loop("k", dims["k"]),
                ],
            ),
        ]
    )


def _both_level_formats(fmt: FormatSpec) -> dict:
    return {
        ("DRAM", "A"): fmt,
        ("DRAM", "B"): fmt,
        ("Buffer", "A"): fmt,
        ("Buffer", "B"): fmt,
    }


def bitmask_design() -> Design:
    """Eyeriss-like bitmask encoding + gating (Fig. 1, design 1).

    The presence bits let storage and compute idle through ineffectual
    cycles (double-sided gating + compute gating): energy drops, cycle
    count does not.
    """
    fmt = FormatSpec([FormatRank(Bitmask()), FormatRank(Bitmask())])
    safs = SAFSpec(
        formats=_both_level_formats(fmt),
        storage_safs=double_sided(SAFKind.GATE, "A", "B", "Buffer"),
        compute_safs=[gate_compute()],
    )
    return Design(
        name="bitmask",
        arch=build_architecture("bitmask-arch"),
        safs=safs,
        mapping_factory=output_stationary_mapping,
    )


def coordinate_list_design() -> Design:
    """SCNN-like coordinate-list encoding + skipping (Fig. 1, design 2).

    Coordinates point directly at the next effectual computation, so
    both the opposite operand's fetches and the compute cycles are
    skipped — at the price of multi-bit metadata per nonzero.
    """
    fmt = FormatSpec(
        [FormatRank(CoordinatePayload()), FormatRank(CoordinatePayload())]
    )
    safs = SAFSpec(
        formats=_both_level_formats(fmt),
        storage_safs=double_sided(SAFKind.SKIP, "A", "B", "Buffer"),
        compute_safs=[skip_compute()],
    )
    return Design(
        name="coordinate-list",
        arch=build_architecture("coordlist-arch"),
        safs=safs,
        mapping_factory=output_stationary_mapping,
    )


def dense_design() -> Design:
    """Baseline with no SAFs, for normalisation."""
    return Design(
        name="dense",
        arch=build_architecture("dense-arch"),
        safs=SAFSpec(),
        mapping_factory=output_stationary_mapping,
    )
