"""Eyeriss V2 [9] processing element model (Table 3 row 2, Fig. 12).

Eyeriss V2's sparse acceleration lives in its PE: both inputs and
weights arrive CSC-compressed (B-UOP-CP hierarchy), the PE skips weight
and output accesses based on input nonzeros (``Skip W <- I``,
``Skip O <- I & W``), and leftover ineffectual computes are gated. The
paper validates the PE's processing latency on MobileNet; we model a
single PE with its spads fed from a backing store.
"""

from __future__ import annotations

from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.designs.common import generic_matmul_mapping, split_factor
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.model.engine import Design, einsum_only
from repro.sparse.formats import (
    Bitmask,
    CoordinatePayload,
    FormatRank,
    FormatSpec,
    UncompressedOffsetPairs,
)
from repro.sparse.saf import (
    SAFSpec,
    gate_compute,
    skip_storage,
)
from repro.workload.spec import Workload


def csc_like_format() -> FormatSpec:
    """B-UOP-CP: the hierarchical compressed format of Eyeriss V2."""
    return FormatSpec(
        [
            FormatRank(Bitmask(), flattened_ranks=2),
            FormatRank(UncompressedOffsetPairs()),
            FormatRank(CoordinatePayload()),
        ]
    )


def build_architecture() -> Architecture:
    return Architecture(
        "eyeriss-v2-pe",
        [
            StorageLevel(
                "Backing",
                capacity_words=None,
                component="sram",
                component_attrs={"capacity_words": 16 * 1024},
                read_bandwidth=4,
                write_bandwidth=4,
            ),
            StorageLevel(
                "Spad",
                capacity_words=512,
                component="regfile",
                # Three separate spads (inputs, weights, psums) give an
                # aggregate of ~4 words/cycle each way; metadata lives
                # in its own small address spads.
                read_bandwidth=4,
                write_bandwidth=4,
                metadata_on_data_port=False,
            ),
        ],
        ComputeLevel("MAC", instances=1),
    )


@einsum_only("eyeriss_v2.pe")
def pe_mapping(workload: Workload, arch) -> Mapping:
    """Single-PE schedule: weights stream against stationary inputs."""
    dims = dict(workload.einsum.dims)
    if set(dims) == {"m", "k", "n"}:
        return generic_matmul_mapping(workload, arch)

    dims = dict(workload.einsum.dims)
    k = dims.get("k", 1)
    c = dims.get("c", 1)
    q = dims.get("q", 1)
    s = dims.get("s", 1)
    r = dims.get("r", 1)
    p = dims.get("p", 1)
    n = dims.get("n", 1)

    k1, k0 = split_factor(k, 8)
    c1, c0 = split_factor(c, 4)
    q1, q0 = split_factor(q, 4)

    backing = [
        Loop("n", n),
        Loop("p", p),
        Loop("k", k1),
        Loop("c", c1),
        Loop("q", q1),
    ]
    # CSC-style processing: each stationary input streams the weight
    # column past it (k innermost), matching Eyeriss V2's PE.
    spad = [
        Loop("q", q0),
        Loop("c", c0),
        Loop("r", r),
        Loop("s", s),
        Loop("k", k0),
    ]

    def prune(loops):
        return [l for l in loops if l.bound > 1]

    return Mapping(
        [
            LevelMapping("Backing", prune(backing)),
            LevelMapping("Spad", prune(spad)),
        ]
    )


def eyeriss_v2_pe_design() -> Design:
    fmt = csc_like_format()
    formats = {}
    for level in ("Backing", "Spad"):
        formats[(level, "I")] = fmt
        formats[(level, "W")] = fmt
    safs = SAFSpec(
        formats=formats,
        storage_safs=[
            skip_storage("W", ["I"], "Spad"),
            skip_storage("O", ["I", "W"], "Spad"),
        ],
        compute_safs=[gate_compute()],
    )
    return Design(
        name="eyeriss-v2-pe",
        arch=build_architecture(),
        safs=safs,
        mapping_factory=pe_mapping,
    )


def dense_pe_design() -> Design:
    return Design(
        name="eyeriss-v2-pe-dense",
        arch=build_architecture(),
        safs=SAFSpec(),
        mapping_factory=pe_mapping,
    )
