"""Dual-side sparse tensor core (DSTC) [53] model (Table 3, Fig. 13/15).

DSTC exploits arbitrary sparsity in both operands: two-level bitmap
(B-B) compression, an output-stationary outer-product dataflow with
operand panels streamed through SMEM, and double-sided skipping
(``Skip A <-> B``) plus output skipping (``Skip Z <- A & B``). The
streaming dataflow re-fetches each operand panel once per opposite
panel, which pressures SMEM bandwidth — the effect behind Fig. 15's
energy story and Fig. 13's low-density latency floor.
"""

from __future__ import annotations

from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.designs.common import split_factor
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.model.engine import Design, einsum_only
from repro.sparse.formats import Bitmask, FormatRank, FormatSpec
from repro.sparse.saf import (
    SAFKind,
    SAFSpec,
    double_sided,
    skip_storage,
)
from repro.workload.spec import Workload

#: Tensor-core geometry: 16 x 16 MAC grid, 2x2 accumulators per MAC.
#: The small accumulation tile is the outer-product dataflow's cost:
#: operand panels are re-fetched once per opposite 32-wide tile, twice
#: as often as the STC schedule's 64-wide tiles.
TILE_M = 16
TILE_N = 16
NUM_MACS = TILE_M * TILE_N
ACCUM_M = 2
ACCUM_N = 2

#: SMEM read bandwidth provisioned for the STC-class designs (words per
#: cycle). Shared with :mod:`repro.designs.stc` so comparisons are
#: apples-to-apples (Sec 7.1.1 controls hardware resources). The value
#: is sized for STC's 2:4 operation: 32 uncompressed input words + the
#: compressed weight stream + metadata per cycle, and deliberately NOT
#: for sparser ratios (Sec 7.1.3).
SMEM_READ_BW = 40.0
SMEM_WRITE_BW = 32.0
#: Streaming k-chunk buffered in SMEM.
K_CHUNK = 64


def bitmap_format() -> FormatSpec:
    """Two-level BitMap (B-B) encoding."""
    return FormatSpec([FormatRank(Bitmask()), FormatRank(Bitmask())])


def build_architecture(name: str = "dstc") -> Architecture:
    return Architecture(
        name,
        [
            StorageLevel(
                "GMEM",
                capacity_words=None,
                component="dram",
                component_attrs={"gated_fraction": 0.0},
            ),
            StorageLevel(
                "SMEM",
                capacity_words=64 * 1024,
                component="sram",
                read_bandwidth=SMEM_READ_BW,
                write_bandwidth=SMEM_WRITE_BW,
            ),
            StorageLevel(
                "RF",
                capacity_words=256,
                component="regfile",
                instances=NUM_MACS,
                read_bandwidth=8,
                write_bandwidth=8,
            ),
        ],
        ComputeLevel("MAC", instances=NUM_MACS),
    )


@einsum_only("dstc.outer_product")
def outer_product_mapping(workload: Workload, arch) -> Mapping:
    """Output stationary at the accumulators; operands streamed.

    Z tiles live in the RF across the whole reduction (k loops are all
    inside the innermost Z-relevant loop), while A/B panels stream
    through SMEM in k-chunks and are re-fetched once per opposite
    panel — the outer product's bandwidth cost.
    """
    dims = workload.einsum.dims
    m1, m_tile = split_factor(dims["m"], TILE_M * ACCUM_M)
    n1, n_tile = split_factor(dims["n"], TILE_N * ACCUM_N)
    m_s, m2 = split_factor(m_tile, ACCUM_M)
    n_s, n2 = split_factor(n_tile, ACCUM_N)
    k1, k0 = split_factor(dims["k"], K_CHUNK)

    gmem = [Loop("m", m1), Loop("n", n1), Loop("k", k1)]
    smem_t = [Loop("k", k0)]
    smem_s = []
    if m_s > 1:
        smem_s.append(Loop("m", m_s, spatial=True))
    if n_s > 1:
        smem_s.append(Loop("n", n_s, spatial=True))
    rf = [Loop("m", m2), Loop("n", n2)]

    def prune(loops):
        return [l for l in loops if l.bound > 1]

    return Mapping(
        [
            LevelMapping("GMEM", prune(gmem)),
            LevelMapping("SMEM", prune(smem_t), smem_s, keep={"A", "B"}),
            LevelMapping("RF", prune(rf), keep={"Z"}),
        ]
    )


def dstc_design() -> Design:
    fmt = bitmap_format()
    formats = {}
    for level in ("GMEM", "SMEM"):
        formats[(level, "A")] = fmt
        formats[(level, "B")] = fmt
    safs = SAFSpec(
        formats=formats,
        storage_safs=[
            *double_sided(SAFKind.SKIP, "A", "B", "SMEM"),
            skip_storage("Z", ["A", "B"], "RF"),
        ],
    )
    return Design(
        name="dstc",
        arch=build_architecture(),
        safs=safs,
        mapping_factory=outer_product_mapping,
    )


def dense_tensor_core_design() -> Design:
    """Plain tensor core: same resources, no sparsity support."""
    return Design(
        name="dense-tc",
        arch=build_architecture("dense-tc"),
        safs=SAFSpec(),
        mapping_factory=outer_product_mapping,
    )
