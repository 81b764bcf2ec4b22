"""Planned sparse walk vs the scalar oracle.

A :class:`~repro.sparse.postprocess.SparsePlan` is built once per
(design, mapping) and evaluated at many densities; every evaluation
must equal ``analyze_sparse(..., vectorized=False)`` exactly — same
dataclass, same slot order — on every bundled design family. The
tests call the plan API directly, so they also run when the
environment forces the scalar oracle for the engine.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session, Workload, matmul
from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.dataflow.nest_analysis import analyze_dataflow
from repro.designs import eyeriss, stc
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.sparse.density import (
    ActualDataDensity,
    BandedDensity,
    DensityModel,
    FixedStructuredDensity,
    StructuredNMDensity,
    UniformDensity,
)
from repro.sparse.formats import (
    Bitmask,
    CoordinatePayload,
    FormatRank,
    FormatSpec,
    RunLengthEncoding,
    Uncompressed,
    UncompressedBitmask,
    UncompressedOffsetPairs,
)
from repro.sparse.postprocess import (
    PLAN_STAGE,
    SparsePlan,
    analyze_sparse,
)
from repro.sparse.saf import (
    SAFKind,
    SAFSpec,
    double_sided,
    gate_compute,
    skip_compute,
)
from repro.workload.nets import alexnet
from tests.model.test_evaluate_batch import _family_jobs, _gemm_workload


def _all_family_jobs(density: float) -> list[tuple]:
    """The 11 sweep families plus dense Eyeriss and flexible STC."""
    conv = alexnet()[2].spec
    return _family_jobs(density) + [
        (
            eyeriss.dense_eyeriss_design(),
            Workload.uniform(conv, {"I": density}),
        ),
        (
            stc.stc_flexible_design(8),
            _gemm_workload({"A": FixedStructuredDensity(2, 8), "B": density}),
        ),
    ]


def _case(index: int, density: float) -> tuple:
    return _all_family_jobs(density)[index]


def _plans() -> list[tuple]:
    """One ``(design, dense, plan)`` per family, built under a workload
    at density 0.5."""
    plans = []
    for design, workload in _all_family_jobs(0.5):
        mapping = design.mapping_for(workload)
        assert mapping is not None, design.name
        dense = analyze_dataflow(workload, design.arch, mapping)
        plans.append((design, dense, SparsePlan.build(dense, design.safs)))
    return plans


PLANS = _plans()
FAMILY_IDS = [design.name for design, *_ in PLANS]


def _assert_plan_matches_oracle(index: int, density: float) -> None:
    design, built_dense, plan = PLANS[index]
    _, workload = _case(index, density)
    dense = replace(built_dense, workload=workload)
    planned = analyze_sparse(dense, design.safs, plan=plan)
    oracle = analyze_sparse(dense, design.safs, vectorized=False)
    assert planned == oracle, (design.name, density)
    assert list(planned.actions) == list(oracle.actions)
    # Float reprs round-trip exactly: bit-identical, signed zeros too.
    assert repr(planned) == repr(oracle)


def test_every_bundled_family_is_covered():
    assert len(PLANS) == 13
    assert len(set(FAMILY_IDS)) == 13


@pytest.mark.parametrize("index", range(len(PLANS)), ids=FAMILY_IDS)
@pytest.mark.parametrize("density", [0.0, 1.0])
def test_plan_equals_oracle_at_the_density_bounds(index, density):
    _assert_plan_matches_oracle(index, density)


@given(
    index=st.integers(min_value=0, max_value=len(PLANS) - 1),
    density=st.floats(min_value=0.005, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_plan_equals_oracle_at_drawn_densities(index, density):
    _assert_plan_matches_oracle(index, density)


def test_plan_built_under_one_workload_evaluates_another():
    design, workload_a = _case(0, 0.3)
    _, workload_b = _case(0, 0.05)
    mapping = design.mapping_for(workload_a)
    dense_a = analyze_dataflow(workload_a, design.arch, mapping)
    dense_b = analyze_dataflow(workload_b, design.arch, mapping)
    plan = SparsePlan.build(dense_a, design.safs)
    planned = analyze_sparse(dense_b, design.safs, plan=plan)
    assert planned == analyze_sparse(dense_b, design.safs, vectorized=False)
    assert planned != analyze_sparse(dense_a, design.safs, vectorized=False)


def _reachable(root) -> list:
    """Every object reachable from ``root`` through
    ``gc.get_referents``, classes excluded."""
    seen: set[int] = set()
    found = []
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("index", range(len(PLANS)), ids=FAMILY_IDS)
def test_plan_holds_only_atomics_tuples_and_arrays(index):
    plan = PLANS[index][2]
    kinds = {type(obj) for obj in _reachable(plan)}
    assert not any(
        issubclass(kind, (Workload, DensityModel)) for kind in kinds
    )
    assert kinds <= {
        SparsePlan, tuple, str, int, float, bool, type(None), np.ndarray,
    }, kinds


def test_cached_plan_keeps_at_most_four_tracked_objects():
    with Session(sparse_vectorized=True) as session:
        for density in (0.2, 0.3):
            session.evaluate(*_case(0, density))
        stage = session.evaluator.cache.stage(PLAN_STAGE)
        (plan,) = [value for _key, value in stage.export_entries(limit=None)]
    gc.collect()
    tracked = [obj for obj in _reachable(plan) if gc.is_tracked(obj)]
    assert len(tracked) <= 4, [type(obj).__name__ for obj in tracked]


# ----------------------------------------------------------------------
# Compiled format terms: every rank format on the plan path.

#: One format per (level, tensor) of a three-level matmul, so the plan
#: compiles every rank format, bit-width overrides, flattened ranks, and
#: tiles with fewer ranks (left-padded) and more ranks (outer ranks
#: flattened) than the format covers. RegFile's Z has none (dense).
_U, _B, _UB = Uncompressed(), Bitmask(), UncompressedBitmask()
_CP, _CP2 = CoordinatePayload(), CoordinatePayload(coord_bits=2)
_RLE, _UOP = RunLengthEncoding(3), UncompressedOffsetPairs()
_UOP6 = UncompressedOffsetPairs(offset_bits=6)
EVERY_FORMAT = {
    ("DRAM", "A"): [FormatRank(_UOP), FormatRank(_CP)],
    ("DRAM", "B"): [FormatRank(_U), FormatRank(_CP2), FormatRank(_RLE)],
    ("DRAM", "Z"): [FormatRank(_B, flattened_ranks=2)],
    ("Buffer", "A"): [FormatRank(_UB), FormatRank(_B), FormatRank(_UOP6)],
    ("Buffer", "B"): [FormatRank(_UOP6)],
    ("Buffer", "Z"): [FormatRank(_CP), FormatRank(_CP), FormatRank(_CP)],
    ("RegFile", "A"): [FormatRank(_RLE, flattened_ranks=2)],
    ("RegFile", "B"): [FormatRank(_B), FormatRank(_UOP), FormatRank(_CP2)],
}


def _every_format_design() -> tuple:
    """``(arch, mapping, safs)``: every format above, skipping and
    gating SAFs whose leader tiles share the value table with the
    format queries, and per-level word widths."""
    arch = Architecture(
        "every-format",
        [
            StorageLevel("DRAM", word_bits=16, metadata_word_bits=8),
            StorageLevel("Buffer", word_bits=8, metadata_word_bits=4),
            StorageLevel(
                "RegFile", word_bits=16, metadata_word_bits=16, instances=2
            ),
        ],
        ComputeLevel("MAC", instances=4),
    )
    mapping = Mapping(
        [
            LevelMapping("DRAM", [Loop("m", 2), Loop("n", 2), Loop("k", 2)]),
            LevelMapping(
                "Buffer",
                [Loop("k", 2), Loop("m", 2)],
                spatial=[Loop("n", 2)],
            ),
            LevelMapping(
                "RegFile", [Loop("m", 4), Loop("n", 4), Loop("k", 4)]
            ),
        ]
    )
    safs = SAFSpec(
        formats={
            key: FormatSpec(list(ranks)) for key, ranks in EVERY_FORMAT.items()
        },
        storage_safs=double_sided(SAFKind.SKIP, "A", "B", "Buffer")
        + double_sided(SAFKind.GATE, "A", "B", "RegFile"),
        compute_safs=[skip_compute(), gate_compute()],
    )
    return arch, mapping, safs


EINSUM = matmul(16, 16, 16)


def _data(seed: int, density: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((16, 16)) < density).astype(np.float64)


#: Every cacheable density model, named, as ``{tensor: model}``.
DENSITY_MODELS = {
    "uniform-finite": lambda d: {
        "A": UniformDensity(d, 256), "B": UniformDensity(d / 2, 256)
    },
    "uniform-binomial": lambda d: {
        "A": UniformDensity(d), "B": UniformDensity(d / 3)
    },
    "fixed-structured": lambda d: {
        "A": FixedStructuredDensity(2, 4), "B": FixedStructuredDensity(1, 8)
    },
    "structured-nm": lambda d: {
        "A": StructuredNMDensity(2, 4), "B": StructuredNMDensity(1, 8)
    },
    "banded": lambda d: {
        "A": BandedDensity(16, 16, 2, d), "B": BandedDensity(16, 16, 5, d)
    },
    "actual-data": lambda d: {
        "A": ActualDataDensity(_data(1, d)),
        "B": ActualDataDensity(_data(2, d / 2)),
    },
}


@pytest.fixture(scope="module")
def every_format_plan():
    arch, mapping, safs = _every_format_design()
    built = Workload.uniform(EINSUM, {"A": 0.5, "B": 0.5})
    dense = analyze_dataflow(built, arch, mapping)
    return dense, safs, SparsePlan.build(dense, safs)


def test_every_format_is_planned(every_format_plan):
    dense, safs, _plan = every_format_plan
    names = {
        type(rank.format).__name__
        for fmt in safs.formats.values()
        for rank in fmt.ranks
    }
    assert names == {
        "Uncompressed", "Bitmask", "UncompressedBitmask",
        "CoordinatePayload", "RunLengthEncoding", "UncompressedOffsetPairs",
    }
    ranks = [
        (len(dense.at(*key).tile_rank_extents), fmt.tensor_rank_count)
        for key, fmt in safs.formats.items()
    ]
    # Some tiles have fewer ranks than their format, some more.
    assert {tile < covered for tile, covered in ranks} == {True, False}
    assert {tile > covered for tile, covered in ranks} == {True, False}
    assert ("RegFile", "Z") in dense.traffic
    assert ("RegFile", "Z") not in safs.formats


@pytest.mark.parametrize("model", list(DENSITY_MODELS))
@pytest.mark.parametrize("density", [0.05, 0.3, 0.9])
def test_every_format_plan_equals_oracle(every_format_plan, model, density):
    built_dense, safs, plan = every_format_plan
    workload = Workload(EINSUM, DENSITY_MODELS[model](density))
    dense = replace(built_dense, workload=workload)
    planned = analyze_sparse(dense, safs, plan=plan)
    oracle = analyze_sparse(dense, safs, vectorized=False)
    assert list(planned.actions) == list(oracle.actions)
    # Float reprs round-trip exactly: bit-identical, signed zeros too.
    assert repr(planned) == repr(oracle)
