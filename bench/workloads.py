"""Seeded inputs for the benchmark's five workloads.

Everything a workload feeds the program is built here from the
workload seed, so the same seed gives the same inputs in every run and
on every commit. The scenarios are defined in this directory rather
than imported from ``benchmarks/``, so edits to the paper benches
cannot change this benchmark.

Random streams are ``random.Random`` instances seeded with a string
``"<seed>:<label>"``: string seeds are hashed deterministically, and
distinct labels give independent streams (the warm-up stream of a
workload never overlaps its timed stream).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro import Design, SAFSpec, Workload, conv2d, matmul
from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.designs import codesign, dstc, eyeriss, eyeriss_v2, scnn, stc, toy
from repro.designs.common import conv_as_gemm
from repro.mapping.mapspace import Mapper, MapspaceConstraints
from repro.sparse.density import FixedStructuredDensity, UniformDensity
from repro.sparse.formats import CoordinatePayload, FormatRank, FormatSpec
from repro.sparse.saf import SAFKind, double_sided, gate_compute, skip_compute
from repro.workload.nets import alexnet, mobilenet_v1, network, resnet50

WORKLOADS = ("sweep-cold", "sweep-warm", "search-cold", "dnn-cphc", "serve-open")

#: Nominal host frequency converting wall time to host cycles for the
#: computes-per-host-cycle metric (the paper's Table 5 uses 2.5 GHz).
HOST_HZ = 2.5e9


def rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def log_uniform(stream: random.Random, low: float, high: float) -> float:
    return math.exp(stream.uniform(math.log(low), math.log(high)))


# ----------------------------------------------------------------------
# sweep-cold / sweep-warm: a density sweep over every bundled family


@dataclass
class Family:
    """One design family of the sweep and the workload shape it runs."""

    name: str
    design: Design
    einsum: object
    #: tensors whose uniform density is drawn per point
    drawn: tuple[str, ...]
    #: log-uniform density range of the drawn tensors
    low: float
    high: float
    #: fixed density models added to every point
    fixed: tuple[tuple[str, object], ...] = ()


def sweep_families() -> list[Family]:
    """The 7 bundled non-codesign families on their reference shapes,
    plus the 4 Fig. 17 co-design combinations on matmul 1024^3 over the
    figure's density range (hyper-sparse to NN). Every point in these
    ranges fits every storage level, so no evaluation fails."""
    mm64 = matmul(64, 64, 64)
    conv = alexnet()[2].spec
    mobile = mobilenet_v1()[3].spec
    gemm = conv_as_gemm(resnet50()[10])
    families = [
        Family("toy-bitmask", toy.bitmask_design(), mm64, ("A", "B"), 0.01, 1.0),
        Family(
            "toy-coordinate-list",
            toy.coordinate_list_design(),
            mm64,
            ("A", "B"),
            0.01,
            1.0,
        ),
        Family("eyeriss", eyeriss.eyeriss_design(), conv, ("I",), 0.01, 1.0),
        Family(
            "eyeriss-v2-pe",
            eyeriss_v2.eyeriss_v2_pe_design(),
            mobile,
            ("I", "W"),
            0.01,
            1.0,
        ),
        Family("scnn", scnn.scnn_design(), conv, ("I", "W"), 0.01, 1.0),
        Family("dstc", dstc.dstc_design(), gemm, ("A", "B"), 0.01, 1.0),
        Family(
            "stc",
            stc.stc_design(),
            gemm,
            ("B",),
            0.01,
            1.0,
            fixed=(("A", FixedStructuredDensity(2, 4)),),
        ),
    ]
    big = matmul(1024, 1024, 1024)
    for dataflow, saf in codesign.ALL_COMBINATIONS:
        families.append(
            Family(
                f"{dataflow}.{saf}",
                codesign.build_design(dataflow, saf),
                big,
                ("A", "B"),
                1e-5,
                0.3,
            )
        )
    return families


def sweep_point(
    families: list[Family], index: int, stream: random.Random
) -> tuple[Family, Workload]:
    """Point ``index`` of a sweep stream: families round-robin (so every
    run sees the same family mix), densities drawn log-uniform."""
    family = families[index % len(families)]
    models = {
        tensor: UniformDensity(
            log_uniform(stream, family.low, family.high),
            family.einsum.tensor_size(tensor),
        )
        for tensor in family.drawn
    }
    models.update(family.fixed)
    return family, Workload(family.einsum, models)


class SweepStream:
    """An unbounded, seeded stream of distinct sweep points."""

    def __init__(self, families: list[Family], seed: int, label: str):
        self.families = families
        self._stream = rng(seed, label)
        self._index = 0

    def next(self) -> tuple[Family, Workload]:
        point = sweep_point(self.families, self._index, self._stream)
        self._index += 1
        return point

    def take(self, count: int) -> list[tuple[Family, Workload]]:
        return [self.next() for _ in range(count)]


# ----------------------------------------------------------------------
# search-cold: repeated cold mapspace searches


SEARCH_BUDGET = 512


def search_design() -> tuple[Design, object]:
    """A sparse conv2d searched from scratch on a two-level accelerator
    with a 16 KiB buffer, compressed W and gated compute: conv2d's seven
    dimensions make the capacity prefilter reject many sampled tilings,
    and every surviving candidate runs the full sparse pipeline."""
    arch = Architecture(
        "bench-cold",
        [
            StorageLevel(
                "DRAM", None, component="dram", read_bandwidth=8, write_bandwidth=8
            ),
            StorageLevel(
                "Buffer",
                16 * 1024,
                component="sram",
                read_bandwidth=8,
                write_bandwidth=8,
            ),
        ],
        ComputeLevel("MAC", instances=16),
    )
    cp4 = FormatSpec([FormatRank(CoordinatePayload())] * 4)
    safs = SAFSpec(
        formats={("Buffer", "W"): cp4, ("DRAM", "W"): cp4},
        compute_safs=[gate_compute()],
    )
    constraints = MapspaceConstraints(spatial_dims={"Buffer": ["k", "c"]})
    design = Design("bench-cold", arch, safs, constraints=constraints)
    return design, conv2d(n=4, k=32, c=16, p=14, q=14, r=3, s=3)


def search_job(einsum, seed: int, index: int, label: str = "search") -> tuple[Workload, int]:
    """Search ``index`` of a stream: densities jittered +-10% around
    W=0.3, I=0.5, and its own sampler seed."""
    stream = rng(seed, f"{label}:{index}")
    workload = Workload.uniform(
        einsum,
        {"W": 0.3 * stream.uniform(0.9, 1.1), "I": 0.5 * stream.uniform(0.9, 1.1)},
    )
    return workload, stream.randrange(1 << 30)


# ----------------------------------------------------------------------
# dnn-cphc: the paper's Table 5 grid


NETWORKS = ("resnet50", "bert_base", "vgg16", "alexnet")
DNN_DESIGNS = {
    "Eyeriss": eyeriss.eyeriss_design,
    "Eyeriss V2 PE": eyeriss_v2.eyeriss_v2_pe_design,
    "SCNN": scnn.scnn_design,
}

#: Post-ReLU activation densities per AlexNet layer (the Eyeriss
#: paper's regime); other layers use the default.
ALEXNET_ACT_DENSITY = {
    "conv1": 0.66,
    "conv2": 0.55,
    "conv3": 0.47,
    "conv4": 0.42,
    "conv5": 0.42,
    "fc6": 0.30,
    "fc7": 0.25,
    "fc8": 0.30,
}
DEFAULT_ACT_DENSITY = 0.55
DEFAULT_WEIGHT_DENSITY = 0.40


def dnn_densities(layer, act_scale: float = 1.0, weight_scale: float = 1.0) -> dict:
    """The Table 5 density policy for one conv/fc layer, scaled."""
    tensors = {t.name for t in layer.spec.tensors}
    act = ALEXNET_ACT_DENSITY.get(layer.name, DEFAULT_ACT_DENSITY) * act_scale
    weight = DEFAULT_WEIGHT_DENSITY * weight_scale
    densities = {}
    if "I" in tensors:
        densities["I"] = act
    if "W" in tensors:
        densities["W"] = weight
    if "A" in tensors:  # matmul-form fc layers
        densities["A"] = act
        densities["B"] = weight
    return densities


@dataclass
class DnnCombo:
    design_name: str
    design: Design
    network: str
    layers: list

    @property
    def computes(self) -> int:
        return sum(layer.total_operations for layer in self.layers)


def dnn_grid() -> list[DnnCombo]:
    return [
        DnnCombo(name, factory(), net, network(net))
        for name, factory in DNN_DESIGNS.items()
        for net in NETWORKS
    ]


class ScaledDensities:
    """A picklable ``densities_for`` policy with per-pass jitter."""

    def __init__(self, act_scale: float, weight_scale: float):
        self.act_scale = act_scale
        self.weight_scale = weight_scale

    def __call__(self, layer) -> dict:
        return dnn_densities(layer, self.act_scale, self.weight_scale)


def dnn_pass(grid: list[DnnCombo], seed: int, index: int, label: str = "dnn"):
    """Pass ``index``: the grid round-robin, +-10% density jitter."""
    stream = rng(seed, f"{label}:{index}")
    combo = grid[index % len(grid)]
    return combo, ScaledDensities(stream.uniform(0.9, 1.1), stream.uniform(0.9, 1.1))


# ----------------------------------------------------------------------
# serve-open: distinct DSE points sent to the daemon


#: Open-loop rates (jobs/s), fixed so that runs on different commits
#: offer identical load: about 0.15x and 0.3x of the saturation
#: throughput of this scenario (~700 jobs/s) measured on a shared
#: 2-core x86 container. Open-loop jobs mostly arrive alone, so the
#: daemon serves them unbatched; at 0.5x a slow spell of the host
#: already pushed it past its unbatched capacity and the backlog grew
#: without bound.
SERVE_RATE_LOW = 100.0
SERVE_RATE_HIGH = 200.0
#: Jobs in flight during the closed-loop saturation phase.
SERVE_INFLIGHT = 32
#: Density levels crossed with the whole mapspace in each block of the
#: serve job stream, drawn per block from ``SERVE_DENSITY_RANGE``.
SERVE_LEVELS = 4
SERVE_DENSITY_RANGE = (0.1, 0.4)


def serve_scenario() -> tuple[Design, object, list]:
    """A two-level sparse accelerator with skip SAFs on matmul 128^3,
    and its whole mapspace (~5.2k distinct mappings)."""
    arch = Architecture(
        "bench-serve",
        [
            StorageLevel(
                "DRAM", None, component="dram", read_bandwidth=8, write_bandwidth=8
            ),
            StorageLevel(
                "Buffer",
                16 * 1024,
                component="sram",
                read_bandwidth=8,
                write_bandwidth=8,
            ),
        ],
        ComputeLevel("MAC", instances=16),
    )
    cp2 = FormatSpec(
        [FormatRank(CoordinatePayload()), FormatRank(CoordinatePayload())]
    )
    safs = SAFSpec(
        formats={("Buffer", "A"): cp2, ("DRAM", "A"): cp2},
        storage_safs=double_sided(SAFKind.SKIP, "A", "B", "Buffer"),
        compute_safs=[skip_compute()],
    )
    constraints = MapspaceConstraints(spatial_dims={"Buffer": ["n", "m"]})
    design = Design("bench-serve", arch, safs, constraints=constraints)
    einsum = matmul(128, 128, 128)
    mappings = list(Mapper(einsum, arch, constraints).enumerate_mappings())
    return design, einsum, mappings


class ServeJobs:
    """An unbounded, seeded stream of distinct ``(mapping, density)``
    jobs, addressed by index. Block ``b`` crosses every mapping with
    ``SERVE_LEVELS`` densities of its own, in seeded order, so no job
    repeats however many a run sends, and streams with different labels
    never share a job."""

    def __init__(self, seed: int, label: str, mapping_count: int):
        self.seed = seed
        self.label = label
        self.mapping_count = mapping_count
        self._blocks: dict[int, tuple[list[float], list[tuple[int, int]]]] = {}

    def __getitem__(self, index: int) -> tuple[int, float]:
        size = self.mapping_count * SERVE_LEVELS
        densities, order = self._block(index // size)
        mapping, level = order[index % size]
        return mapping, densities[level]

    def _block(self, block: int) -> tuple[list[float], list[tuple[int, int]]]:
        if block not in self._blocks:
            stream = rng(self.seed, f"{self.label}:{block}")
            densities = [stream.uniform(*SERVE_DENSITY_RANGE) for _ in range(SERVE_LEVELS)]
            order = [
                (mapping, level)
                for mapping in range(self.mapping_count)
                for level in range(SERVE_LEVELS)
            ]
            stream.shuffle(order)
            self._blocks[block] = (densities, order)
        return self._blocks[block]
