"""SCNN [37] model (Table 3 row 3, Fig. 11).

SCNN runs a PlanarTiled-InputStationary-CartesianProduct dataflow:
compressed inputs stay stationary in each PE while compressed weights
stream past, and every (input nonzero x weight nonzero) pair multiplies
— skipping all ineffectual work (``Skip W <- I``, ``Skip O <- I & W``)
with gating mopping up the compute units. Both operand tensors use a
three-level B-UOP-RLE format.
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
    UncompressedOffsetPairs,
)
from repro.sparse.saf import SAFSpec, gate_compute, skip_storage
from repro.workload.spec import Workload

#: SCNN has an 8x8 PE array; each PE has a 4x4 multiplier array.
NUM_PES = 64
MULTS_PER_PE = 16


def scnn_format() -> FormatSpec:
    """B-UOP-RLE (Table 3)."""
    return FormatSpec(
        [
            FormatRank(Bitmask(), flattened_ranks=2),
            FormatRank(UncompressedOffsetPairs()),
            FormatRank(RunLengthEncoding(run_bits=4)),
        ]
    )


def build_architecture() -> Architecture:
    return Architecture(
        "scnn",
        [
            StorageLevel(
                "DRAM",
                capacity_words=None,
                component="dram",
                read_bandwidth=8,
                write_bandwidth=8,
            ),
            StorageLevel(
                "IARAM",  # per-PE input/weight RAM pair, modeled jointly
                capacity_words=10 * 1024,
                component="sram",
                instances=NUM_PES,
                read_bandwidth=4,
                write_bandwidth=4,
            ),
            StorageLevel(
                "AccumBuf",
                capacity_words=1536,
                component="regfile",
                instances=NUM_PES,
                read_bandwidth=8,
                write_bandwidth=8,
            ),
        ],
        ComputeLevel("MULT", instances=NUM_PES * MULTS_PER_PE),
    )


@einsum_only("scnn.planar_tiled")
def planar_tiled_mapping(workload: Workload, arch) -> Mapping:
    """Planar tiling over (p, q) across PEs; inputs stationary inside."""
    dims = dict(workload.einsum.dims)
    if set(dims) == {"m", "k", "n"}:
        return generic_matmul_mapping(workload, arch)

    dims = dict(workload.einsum.dims)
    k = dims.get("k", 1)
    c = dims.get("c", 1)
    p = dims.get("p", 1)
    q = dims.get("q", 1)
    r = dims.get("r", 1)
    s = dims.get("s", 1)
    n = dims.get("n", 1)

    p1, p_s = split_factor(p, 8)
    q1, q_s = split_factor(q, 8)
    k1, k0 = split_factor(k, 16)
    k0t, k0s = split_factor(k0, 4)
    c1, c0 = split_factor(c, 4)
    c0t, c0s = split_factor(c0, 4)

    dram = [Loop("n", n), Loop("c", c1), Loop("k", k1)]
    # Planar (p, q) tiling fans out across the 8x8 PE array: the
    # spatial loops sit at DRAM, distributing tiles to per-PE IARAMs.
    dram_s = []
    if p_s > 1:
        dram_s.append(Loop("p", p_s, spatial=True))
    if q_s > 1:
        dram_s.append(Loop("q", q_s, spatial=True))
    iaram_t = [Loop("p", p1), Loop("q", q1)]
    # Cartesian product inside the PE: the 4x4 multiplier array takes
    # (k, c) pairs spatially; weights (k, r, s) stream against
    # stationary input slivers.
    accum_t = [Loop("c", c0t), Loop("k", k0t), Loop("r", r), Loop("s", s)]
    accum_s = []
    if k0s > 1:
        accum_s.append(Loop("k", k0s, spatial=True))
    if c0s > 1:
        accum_s.append(Loop("c", c0s, spatial=True))

    def prune(loops):
        return [l for l in loops if l.bound > 1]

    return Mapping(
        [
            LevelMapping("DRAM", prune(dram), dram_s),
            LevelMapping("IARAM", prune(iaram_t), keep={"I", "W"}),
            LevelMapping("AccumBuf", prune(accum_t), accum_s, keep={"O"}),
        ]
    )


def scnn_design() -> Design:
    fmt = scnn_format()
    formats = {}
    for level in ("DRAM", "IARAM"):
        formats[(level, "I")] = fmt
        formats[(level, "W")] = fmt
    safs = SAFSpec(
        formats=formats,
        storage_safs=[
            skip_storage("W", ["I"], "IARAM"),
            skip_storage("O", ["I", "W"], "AccumBuf"),
        ],
        compute_safs=[gate_compute()],
    )
    return Design(
        name="scnn",
        arch=build_architecture(),
        safs=safs,
        mapping_factory=planar_tiled_mapping,
    )


def dense_scnn_design() -> Design:
    return Design(
        name="scnn-dense",
        arch=build_architecture(),
        safs=SAFSpec(),
        mapping_factory=planar_tiled_mapping,
    )
