"""Sec 7.2 co-design study: dataflow x SAF combinations for spMspM.

Hardware budget: 256 compute units (with per-unit accumulator
registers) and 128KB on-chip storage (Table 8).

Dataflows:
* **ReuseABZ** — all three tensors reuse the shared buffer; each
  on-chip B tile is reused across many A tiles.
* **ReuseAZ** — B gets no on-chip reuse: it streams from DRAM straight
  to the intersection/compute units.

SAF sets (representation formats identical across choices):
* **InnermostSkip** — ``Skip A <-> B`` intersection *on chip only*. For
  a streamed B this means B is fetched from DRAM first and discarded
  after the intersection — the off-chip traffic is not saved.
* **HierarchicalSkip** — the intersection also filters off-chip
  traffic: tile-granular for buffered tensors, stream-granular for a
  streamed B.

The mapping determines whether the off-chip intersection has leverage:
under ReuseABZ a B tile transfer is eliminated only when *all* the A
tiles it will meet are empty, which the leader-tile analysis (Fig. 10)
prices at nearly zero probability — making ReuseABZ.HierarchicalSkip
never the best design, exactly the paper's observation.
"""

from __future__ import annotations

from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.designs.common import split_factor
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.model.engine import Design, einsum_only
from repro.sparse.formats import (
    CoordinatePayload,
    FormatRank,
    FormatSpec,
    UncompressedOffsetPairs,
)
from repro.sparse.saf import (
    SAFKind,
    SAFSpec,
    StorageSAF,
    double_sided,
    skip_compute,
)
from repro.workload.spec import Workload

NUM_COMPUTES = 256
BUFFER_WORDS = 64 * 1024  # 128KB of 16-bit words
SPATIAL_X = 16
SPATIAL_Y = 16


def build_architecture(name: str) -> Architecture:
    return Architecture(
        name,
        [
            StorageLevel(
                "DRAM",
                capacity_words=None,
                component="dram",
                read_bandwidth=16,
                write_bandwidth=16,
            ),
            StorageLevel(
                "Buffer",
                capacity_words=BUFFER_WORDS,
                component="sram",
                read_bandwidth=32,
                write_bandwidth=32,
            ),
            StorageLevel(
                "Reg",
                capacity_words=32,
                component="regfile",
                instances=NUM_COMPUTES,
                read_bandwidth=4,
                write_bandwidth=4,
            ),
        ],
        ComputeLevel("MAC", instances=NUM_COMPUTES),
    )


def csr_format() -> FormatSpec:
    return FormatSpec(
        [
            FormatRank(UncompressedOffsetPairs()),
            FormatRank(CoordinatePayload()),
        ]
    )


def _prune(loops):
    return [l for l in loops if l.bound > 1]


@einsum_only("codesign.reuse_abz")
def reuse_abz_mapping(workload: Workload, arch) -> Mapping:
    """All tensors tiled for buffer reuse; full k on chip so partial
    sums never spill; B tiles stationary across the m loop."""
    dims = workload.einsum.dims
    m1, m0 = split_factor(dims["m"], 32)
    n1, n0 = split_factor(dims["n"], 32)
    m0t, m_s = split_factor(m0, SPATIAL_X)
    n0t, n_s = split_factor(n0, SPATIAL_Y)
    spatial = []
    if m_s > 1:
        spatial.append(Loop("m", m_s, spatial=True))
    if n_s > 1:
        spatial.append(Loop("n", n_s, spatial=True))
    return Mapping(
        [
            LevelMapping("DRAM", _prune([Loop("n", n1), Loop("m", m1)])),
            LevelMapping(
                "Buffer",
                _prune([Loop("m", m0t), Loop("n", n0t)]),
                spatial,
            ),
            LevelMapping("Reg", _prune([Loop("k", dims["k"])]), keep={"Z"}),
        ]
    )


@einsum_only("codesign.reuse_az")
def reuse_az_mapping(workload: Workload, arch) -> Mapping:
    """A and Z reuse the buffer; B streams from DRAM (no on-chip keep)."""
    dims = workload.einsum.dims
    m1, m0 = split_factor(dims["m"], 64)
    n1, n0 = split_factor(dims["n"], 16)
    m0t, m_s = split_factor(m0, SPATIAL_X)
    n0t, n_s = split_factor(n0, SPATIAL_Y)
    spatial = []
    if m_s > 1:
        spatial.append(Loop("m", m_s, spatial=True))
    if n_s > 1:
        spatial.append(Loop("n", n_s, spatial=True))
    return Mapping(
        [
            LevelMapping("DRAM", _prune([Loop("m", m1), Loop("n", n1)])),
            LevelMapping(
                "Buffer",
                _prune([Loop("m", m0t), Loop("n", n0t)]),
                spatial,
                keep={"A", "Z"},
            ),
            LevelMapping("Reg", _prune([Loop("k", dims["k"])]), keep={"Z"}),
        ]
    )


def build_design(dataflow: str, saf_choice: str) -> Design:
    """Build one of the four Table 8 combinations.

    ``dataflow`` in {"ReuseABZ", "ReuseAZ"}; ``saf_choice`` in
    {"InnermostSkip", "HierarchicalSkip"}.
    """
    if dataflow == "ReuseABZ":
        mapping_factory = reuse_abz_mapping
        b_levels = [("DRAM", "B"), ("Buffer", "B")]
        b_on_chip = True
    elif dataflow == "ReuseAZ":
        mapping_factory = reuse_az_mapping
        b_levels = [("DRAM", "B")]
        b_on_chip = False
    else:
        raise ValueError(f"unknown dataflow {dataflow!r}")

    # The on-chip intersection always exists and always skips compute.
    compute_safs = [skip_compute(["A", "B"])]
    storage_safs: list[StorageSAF] = []
    if b_on_chip:
        storage_safs += double_sided(SAFKind.SKIP, "A", "B", "Buffer")
    else:
        # Only A lives on chip; B is intersected as it streams past.
        storage_safs.append(StorageSAF(SAFKind.SKIP, "A", ("B",), "Buffer"))

    if saf_choice == "HierarchicalSkip":
        storage_safs += double_sided(SAFKind.SKIP, "A", "B", "DRAM")
    elif saf_choice != "InnermostSkip":
        raise ValueError(f"unknown SAF choice {saf_choice!r}")

    fmt = csr_format()
    formats = {
        key: fmt
        for key in [
            ("DRAM", "A"),
            ("Buffer", "A"),
            # spMspM outputs are sparse too; they leave the chip
            # compressed (accumulator registers stay uncompressed).
            ("DRAM", "Z"),
            ("Buffer", "Z"),
            *b_levels,
        ]
    }
    name = f"{dataflow}.{saf_choice}"
    return Design(
        name=name,
        arch=build_architecture(name),
        safs=SAFSpec(
            formats=formats,
            storage_safs=storage_safs,
            compute_safs=compute_safs,
        ),
        mapping_factory=mapping_factory,
    )


ALL_COMBINATIONS = [
    ("ReuseABZ", "InnermostSkip"),
    ("ReuseABZ", "HierarchicalSkip"),
    ("ReuseAZ", "InnermostSkip"),
    ("ReuseAZ", "HierarchicalSkip"),
]
