"""Eyeriss [8] model (Table 3 row 1).

Row-stationary CNN accelerator: RLE-compressed activations off-chip
(B-RLE), uncompressed weights, on-chip zero-bitmask inputs driving
gating of weight and partial-sum accesses (``Gate W <- I``,
``Gate O <- I``). Gating saves energy but not cycles.
"""

from __future__ import annotations

from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.designs.common import generic_matmul_mapping, split_factor
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.model.engine import Design, einsum_only
from repro.sparse.formats import (
    Bitmask,
    FormatRank,
    FormatSpec,
    RunLengthEncoding,
    UncompressedBitmask,
)
from repro.sparse.saf import SAFSpec, gate_storage
from repro.workload.spec import Workload

#: Eyeriss PE array is 12 x 14.
PE_ROWS = 12
PE_COLS = 14
NUM_PES = PE_ROWS * PE_COLS


def build_architecture() -> Architecture:
    return Architecture(
        "eyeriss",
        [
            StorageLevel(
                "DRAM",
                capacity_words=None,
                component="dram",
                read_bandwidth=4,
                write_bandwidth=4,
            ),
            StorageLevel(
                "GLB",
                capacity_words=54 * 1024,  # 108KB of 16-bit words
                component="sram",
                read_bandwidth=4,
                write_bandwidth=4,
            ),
            StorageLevel(
                "RF",
                capacity_words=260,  # per-PE spads (W 224 + I 12 + psum 24)
                component="regfile",
                instances=NUM_PES,
                read_bandwidth=2,
                write_bandwidth=2,
            ),
        ],
        ComputeLevel("MAC", instances=NUM_PES),
    )


def offchip_activation_format(run_bits: int = 4) -> FormatSpec:
    """B-RLE: bitmask over outer ranks, run-length innermost (Table 3)."""
    return FormatSpec(
        [
            FormatRank(Bitmask(), flattened_ranks=3),
            FormatRank(RunLengthEncoding(run_bits=run_bits)),
        ]
    )


def onchip_input_format() -> FormatSpec:
    """UB: uncompressed payloads with a zero-bitmask to drive gating."""
    return FormatSpec(
        [
            FormatRank(UncompressedBitmask(), flattened_ranks=3),
            FormatRank(UncompressedBitmask()),
        ]
    )


@einsum_only("eyeriss.row_stationary")
def row_stationary_mapping(workload: Workload, arch) -> Mapping:
    """Row-stationary flavored conv mapping.

    Filter rows and a slice of output rows map spatially onto the PE
    array; filter-row reuse and psum accumulation happen inside each
    PE's spads.
    """
    dims = dict(workload.einsum.dims)
    if set(dims) == {"m", "k", "n"}:
        return generic_matmul_mapping(workload, arch)

    dims = dict(workload.einsum.dims)
    r = dims.get("r", 1)
    s = dims.get("s", 1)
    p = dims.get("p", 1)
    q = dims.get("q", 1)
    c = dims.get("c", 1)
    k = dims.get("k", 1)
    n = dims.get("n", 1)

    p_budget = max(1, NUM_PES // max(1, r))
    p_outer, p_s = split_factor(p, min(PE_COLS, p_budget))
    k_target = 8 if s <= 5 else 2
    k1, k0 = split_factor(k, k_target)
    c1, c0 = split_factor(c, 2)
    q1, q0 = split_factor(q, 7)

    dram = [Loop("n", n), Loop("k", k1), Loop("c", c1), Loop("p", p_outer)]
    glb_t = [Loop("q", q1)]
    glb_s = []
    if r > 1:
        glb_s.append(Loop("r", r, spatial=True))
    if p_s > 1:
        glb_s.append(Loop("p", p_s, spatial=True))
    rf = [Loop("k", k0), Loop("c", c0), Loop("q", q0), Loop("s", s)]

    def prune(loops):
        return [l for l in loops if l.bound > 1]

    return Mapping(
        [
            LevelMapping("DRAM", prune(dram)),
            LevelMapping("GLB", prune(glb_t), glb_s),
            LevelMapping("RF", prune(rf)),
        ]
    )


def eyeriss_design(run_bits: int = 4) -> Design:
    """The full Eyeriss design point."""
    input_name, output_name, weight_name = "I", "O", "W"
    ub = onchip_input_format()
    formats = {
        ("DRAM", input_name): offchip_activation_format(run_bits),
        ("DRAM", output_name): offchip_activation_format(run_bits),
        ("GLB", input_name): ub,
        ("RF", input_name): ub,
    }
    safs = SAFSpec(
        formats=formats,
        storage_safs=[
            gate_storage(weight_name, [input_name], "RF"),
            gate_storage(output_name, [input_name], "RF"),
        ],
    )
    return Design(
        name="eyeriss",
        arch=build_architecture(),
        safs=safs,
        mapping_factory=row_stationary_mapping,
    )


def dense_eyeriss_design() -> Design:
    """Same architecture and dataflow without any SAFs (baseline)."""
    return Design(
        name="eyeriss-dense",
        arch=build_architecture(),
        safs=SAFSpec(),
        mapping_factory=row_stationary_mapping,
    )
