"""Property-based invariants of the full modeling pipeline.

Across randomly sampled mappings and densities, the model must
preserve conservation laws that hold for any dataflow:

* fine-grained actions partition the dense traffic exactly,
* the output tensor's final words reach the outermost level once,
* skipping never increases cycles, gating never changes them,
* classification fractions stay within [0, 1],
* on every bundled sweep family, a sparser point never does more
  actual compute than a denser one, energy is the action counts times
  the energy reference table, and a repeated point is one cached
  record.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session, Workload, matmul
from repro.accelergy.backend import Accelergy
from repro.accelergy.library import build_component
from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.dataflow import analyze_dataflow
from repro.mapping.mapspace import Mapper, MapspaceConstraints
from repro.micro.latency import compute_latency
from repro.sparse.formats import CoordinatePayload, FormatRank, FormatSpec
from repro.sparse.postprocess import analyze_sparse
from repro.sparse.saf import (
    SAFKind,
    SAFSpec,
    double_sided,
    gate_compute,
    skip_compute,
)
from tests.model.test_evaluate_batch import _family_jobs


def _arch(macs=4):
    return Architecture(
        "prop",
        [
            StorageLevel("DRAM", None, component="dram"),
            StorageLevel("Buffer", 1 << 20, component="sram"),
        ],
        ComputeLevel("MAC", instances=macs),
    )


cp2 = FormatSpec(
    [FormatRank(CoordinatePayload()), FormatRank(CoordinatePayload())]
)

SAF_CHOICES = [
    SAFSpec(),
    SAFSpec(compute_safs=[gate_compute()]),
    SAFSpec(
        formats={("Buffer", "A"): cp2, ("DRAM", "A"): cp2},
        compute_safs=[skip_compute(["A"])],
    ),
    SAFSpec(
        formats={("Buffer", "A"): cp2, ("Buffer", "B"): cp2},
        storage_safs=double_sided(SAFKind.SKIP, "A", "B", "Buffer"),
    ),
]


@st.composite
def _scenario(draw):
    m = draw(st.sampled_from([4, 8, 16]))
    k = draw(st.sampled_from([4, 8, 16]))
    n = draw(st.sampled_from([4, 8]))
    da = draw(st.sampled_from([0.1, 0.3, 0.5, 1.0]))
    db = draw(st.sampled_from([0.2, 0.6, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=50))
    saf_index = draw(st.integers(min_value=0, max_value=len(SAF_CHOICES) - 1))
    return m, k, n, da, db, seed, saf_index


@given(_scenario())
@settings(max_examples=40, deadline=None)
def test_action_conservation_over_random_mappings(scenario):
    m, k, n, da, db, seed, saf_index = scenario
    arch = _arch()
    workload = Workload.uniform(matmul(m, k, n), {"A": da, "B": db})
    mapper = Mapper(
        workload.einsum,
        arch,
        MapspaceConstraints(spatial_dims={"Buffer": ["n"]}),
    )
    mappings = list(mapper.sample_mappings(2, seed=seed))
    safs = SAF_CHOICES[saf_index]
    for mapping in mappings:
        dense = analyze_dataflow(workload, arch, mapping)
        sparse = analyze_sparse(dense, safs)
        # 1. Partition: breakdowns sum to the dense counts.
        for (level, tensor), record in dense.traffic.items():
            actions = sparse.at(level, tensor)
            assert actions.data_reads.total == pytest.approx(
                record.reads, rel=1e-9, abs=1e-9
            )
            assert actions.data_writes.total == pytest.approx(
                record.writes, rel=1e-9, abs=1e-9
            )
            for breakdown in (actions.data_reads, actions.data_writes):
                assert breakdown.actual >= -1e-9
                assert breakdown.gated >= -1e-9
                assert breakdown.skipped >= -1e-9
        assert sparse.compute.total == pytest.approx(dense.computes)
        # 2. The full output leaves for DRAM exactly once (dense terms).
        z = dense.at("DRAM", "Z")
        assert z.writes >= workload.einsum.tensor_size("Z") - 1e-9


@given(_scenario())
@settings(max_examples=20, deadline=None)
def test_skipping_never_slower_gating_never_faster(scenario):
    m, k, n, da, db, seed, _ = scenario
    arch = _arch()
    workload = Workload.uniform(matmul(m, k, n), {"A": da, "B": db})
    mapper = Mapper(workload.einsum, arch)
    mapping = next(mapper.sample_mappings(1, seed=seed), None)
    if mapping is None:
        return
    dense = analyze_dataflow(workload, arch, mapping)

    def cycles(safs):
        sparse = analyze_sparse(dense, safs)
        return compute_latency(arch, dense, sparse).cycles

    base = cycles(SAFSpec())
    gated = cycles(SAFSpec(compute_safs=[gate_compute()]))
    skipped = cycles(SAFSpec(compute_safs=[skip_compute()]))
    assert gated == pytest.approx(base)
    assert skipped <= base + 1e-9


@given(
    da=st.floats(min_value=0.01, max_value=1.0),
    db=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=30, deadline=None)
def test_energy_monotone_in_density(da, db):
    """Denser workloads never cost less energy under skipping."""
    arch = _arch()
    ev = Session(check_capacity=False)
    from repro.model.engine import Design
    from repro.mapping.mapping import LevelMapping, Loop, Mapping

    mapping = Mapping(
        [
            LevelMapping("DRAM", []),
            LevelMapping(
                "Buffer",
                [Loop("m", 16), Loop("n", 8), Loop("k", 16)],
            ),
        ]
    )
    safs = SAF_CHOICES[3]
    design = Design("d", arch, safs, mapping=mapping)

    def energy(scale):
        wl = Workload.uniform(
            matmul(16, 16, 8),
            {"A": min(1.0, da * scale), "B": min(1.0, db * scale)},
        )
        return ev.evaluate(design, wl).energy_pj

    assert energy(1.0) <= energy(1.5) * (1 + 1e-9) or da >= 0.67


FAMILY_COUNT = len(_family_jobs(0.5))


def _family_point(index: int, density: float) -> tuple:
    return _family_jobs(density)[index]


def _assert_partitions(result) -> None:
    dense, sparse = result.dense, result.sparse
    for (level, tensor), record in dense.traffic.items():
        actions = sparse.at(level, tensor)
        assert actions.data_reads.total == pytest.approx(
            record.reads, rel=1e-9, abs=1e-9
        ), (level, tensor)
        assert actions.data_writes.total == pytest.approx(
            record.writes, rel=1e-9, abs=1e-9
        ), (level, tensor)
        for breakdown in (
            actions.data_reads,
            actions.data_writes,
            actions.metadata_reads,
            actions.metadata_writes,
        ):
            assert breakdown.actual >= 0
            assert breakdown.gated >= 0
            assert breakdown.skipped >= 0
    assert sparse.compute.total == pytest.approx(dense.computes, rel=1e-9)
    compute = sparse.compute
    assert min(compute.actual, compute.gated, compute.skipped) >= 0
    assert all(0.0 <= fraction <= 1.0 for fraction in sparse.compute_fractions)


ACTION_KINDS = ("actual", "gated", "skipped")
#: Per-level action counts and the ERT action each one is charged as.
STORAGE_ACTIONS = (
    ("data_reads", "read"),
    ("data_writes", "write"),
    ("metadata_reads", "metadata_read"),
    ("metadata_writes", "metadata_write"),
)


def _assert_energy_is_actions_times_ert(result, arch) -> None:
    """Σ actions × ERT, per component, from a fresh Accelergy backend
    and the result's own sparse analysis."""
    ert = Accelergy(arch)
    check_pj = build_component("intersection").energy_per_action("check")
    sparse = result.sparse
    expected = {
        arch.compute.name: sum(
            getattr(sparse.compute, kind) * ert.compute.action_energy(kind)
            for kind in ACTION_KINDS
        )
    }
    for level in arch.levels:
        storage = ert.storage(level.name)
        total = 0.0
        for actions in sparse.level_actions(level.name):
            total += actions.intersection_checks * check_pj
            for counts, action in STORAGE_ACTIONS:
                breakdown = getattr(actions, counts)
                total += sum(
                    getattr(breakdown, kind)
                    * storage.action_energy(action, kind)
                    for kind in ACTION_KINDS
                )
        expected[level.name] = total
    assert result.energy.per_component == pytest.approx(expected, rel=1e-9)
    assert result.energy_pj == pytest.approx(
        sum(expected.values()), rel=1e-9
    )


@given(
    index=st.integers(min_value=0, max_value=FAMILY_COUNT - 1),
    high=st.floats(min_value=0.05, max_value=1.0),
    ratio=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=40, deadline=None)
def test_family_invariants_across_a_density_pair(index, high, ratio):
    """Every sweep family, a denser then a sparser point on one
    Session: the second reuses the dense analysis, so it takes the
    planned walk. Both conserve traffic, their energy is Σ actions ×
    ERT, and lowering density never raises actual compute. A third
    evaluation of the sparser point is one sparse-stage hit that
    reads the very record of the second."""
    design, _ = _family_point(index, high)
    with Session(check_capacity=False) as session:
        dense_point = session.evaluate(*_family_point(index, high))
        sparse_point = session.evaluate(*_family_point(index, high * ratio))
        before = session.cache_stats()
        again = session.evaluate(*_family_point(index, high * ratio))
        delta = session.cache_stats(since=before)
    _assert_partitions(dense_point)
    _assert_partitions(sparse_point)
    _assert_energy_is_actions_times_ert(dense_point, design.arch)
    _assert_energy_is_actions_times_ert(sparse_point, design.arch)
    assert sparse_point.sparse.compute.actual <= (
        dense_point.sparse.compute.actual * (1 + 1e-12)
    )
    assert (delta["sparse"]["hits"], delta["sparse"]["misses"]) == (1, 0)
    assert delta["plan"]["hits"] == delta["plan"]["misses"] == 0
    assert again.record is sparse_point.record
    assert again.usage == sparse_point.usage
    assert again.latency == sparse_point.latency
    assert again.energy == sparse_point.energy
