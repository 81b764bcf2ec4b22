"""NVIDIA sparse tensor core (STC) [34] and next-gen variants (Sec 7.1).

STC compresses weights with N:M structured sparsity (offset-based
coordinate-payload metadata), keeps inputs uncompressed, and skips
compute on weight zeros only — 2x speedup at 2:4, 100% predictable
(Fig. 15's STC point). The case-study variants extend it:

* ``stc_flexible`` — more ratios (2:6, 2:8): extra *energy* savings but
  no speedup because uncompressed input traffic saturates the SMEM
  bandwidth provisioned for 2:4 (Sec 7.1.3, Fig. 16).
* ``stc_flexible_rle`` — RLE weight metadata (fewer bits than CP for
  large blocks).
* ``stc_flexible_rle_dualcompress`` — bitmask-compressed inputs as
  well (no input skipping, compute stays synced): speedups return via
  pure bandwidth reduction (Sec 7.1.4).
"""

from __future__ import annotations

from repro.designs.common import split_factor
from repro.designs.dstc import (
    NUM_MACS,
    TILE_M,
    TILE_N,
    build_architecture,
)
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.model.engine import Design, einsum_only
from repro.sparse.formats import (
    Bitmask,
    CoordinatePayload,
    FormatRank,
    FormatSpec,
    RunLengthEncoding,
    Uncompressed,
)
from repro.sparse.saf import SAFSpec, skip_compute
from repro.workload.spec import Workload

#: k-chunk of weights resident in each MAC's registers.
K_CHUNK = 16
#: Per-MAC register output tile (64-wide SMEM tiles: 16 x 4).
REG_M = 4
REG_N = 4


def weight_cp_format(block_size: int = 4) -> FormatSpec:
    """Offset-based CP: each nonzero carries its position in the block
    of ``block_size`` (2 bits for 2:4, 3 bits for 2:6 / 2:8)."""
    bits = max(1, (block_size - 1).bit_length())
    return FormatSpec(
        [
            FormatRank(Uncompressed()),
            FormatRank(CoordinatePayload(coord_bits=bits)),
        ]
    )


def weight_rle_format(run_bits: int = 2) -> FormatSpec:
    """RLE weight metadata — cheaper than CP for the larger blocks."""
    return FormatSpec(
        [
            FormatRank(Uncompressed()),
            FormatRank(RunLengthEncoding(run_bits=run_bits)),
        ]
    )


def input_bitmask_format() -> FormatSpec:
    return FormatSpec([FormatRank(Uncompressed()), FormatRank(Bitmask())])


@einsum_only("stc.stc")
def stc_mapping(workload: Workload, arch) -> Mapping:
    """Tensor-core GEMM schedule: output tiles accumulate in registers,
    weights resident per k-chunk, inputs streamed dense from SMEM."""
    dims = workload.einsum.dims
    m1, m_tile = split_factor(dims["m"], TILE_M * REG_M)
    n1, n_tile = split_factor(dims["n"], TILE_N * REG_N)
    m_s, m2 = split_factor(m_tile, REG_M)
    n_s, n2 = split_factor(n_tile, REG_N)
    k1, k0 = split_factor(dims["k"], K_CHUNK)

    gmem = [Loop("m", m1), Loop("n", n1), Loop("k", k1)]
    smem_s = []
    if m_s > 1:
        smem_s.append(Loop("m", m_s, spatial=True))
    if n_s > 1:
        smem_s.append(Loop("n", n_s, spatial=True))
    rf = [Loop("m", m2), Loop("n", n2), Loop("k", k0)]

    def prune(loops):
        return [l for l in loops if l.bound > 1]

    return Mapping(
        [
            LevelMapping("GMEM", prune(gmem)),
            LevelMapping("SMEM", [], smem_s, keep={"A", "B"}),
            LevelMapping("RF", prune(rf), keep={"A", "Z"}),
        ]
    )


def _stc_variant(
    name: str,
    weight_format: FormatSpec,
    input_format: FormatSpec | None = None,
) -> Design:
    formats = {}
    for level in ("GMEM", "SMEM", "RF"):
        formats[(level, "A")] = weight_format
        if input_format is not None and level != "RF":
            formats[(level, "B")] = input_format
    # NOTE: no storage SAF on the inputs — STC fetches them dense from
    # SMEM and selects the needed 2-of-N *after* the fetch (Fig. 14),
    # which is precisely why input bandwidth becomes the bottleneck for
    # ratios beyond 2:4 (Sec 7.1.3).
    safs = SAFSpec(
        formats=formats,
        compute_safs=[skip_compute(["A"])],
    )
    return Design(
        name=name,
        arch=build_architecture(name),
        safs=safs,
        mapping_factory=stc_mapping,
    )


def stc_design() -> Design:
    """Commercial STC: 2:4 structured weights only."""
    return _stc_variant("stc", weight_cp_format(block_size=4))


def stc_flexible_design(block_size: int = 8) -> Design:
    """Naive extension with selection logic for more ratios."""
    return _stc_variant(
        "stc-flexible", weight_cp_format(block_size=block_size)
    )


def stc_flexible_rle_design(run_bits: int = 2) -> Design:
    """STC-flexible with RLE weight metadata."""
    return _stc_variant(
        "stc-flexible-rle", weight_rle_format(run_bits=run_bits)
    )


def stc_flexible_rle_dualcompress_design(run_bits: int = 2) -> Design:
    """RLE weights + bitmask-compressed inputs (no input skipping)."""
    return _stc_variant(
        "stc-flexible-rle-dualCompress",
        weight_rle_format(run_bits=run_bits),
        input_format=input_bitmask_format(),
    )
