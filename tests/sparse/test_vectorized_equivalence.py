"""Vectorized-vs-scalar sparse post-processing equivalence.

The batched numpy pipeline must be *bit-identical* to the scalar
oracle path across every bundled design — not approximately equal:
the vectorized expressions mirror the scalar formulas operation for
operation, so any drift is a bug. The suite also proves the engine's
sparse-stage cache and warm parallel workers are behaviour-preserving.
"""

from __future__ import annotations

import pytest

from repro import Evaluator, Workload, matmul
from repro.dataflow.nest_analysis import analyze_dataflow
from repro.designs import codesign, dstc, eyeriss, scnn, stc
from repro.designs.common import conv_as_gemm
from repro.sparse.density import FixedStructuredDensity, UniformDensity
from repro.sparse.postprocess import (
    analyze_sparse,
    analyze_sparse_batch,
    sparse_analysis_key,
)
from repro.workload.nets import alexnet, resnet50


def _tc_workload(weight_model, input_density=0.65):
    layer = resnet50()[10]
    gemm = conv_as_gemm(layer)
    return Workload(
        gemm,
        {
            "A": weight_model,
            "B": UniformDensity(input_density, gemm.tensor_size("B")),
        },
        name=layer.name,
    )


def _conv_workload(densities):
    layer = alexnet()[2]
    return Workload.uniform(layer.spec, densities)


def _design_cases():
    cases = [
        ("eyeriss", eyeriss.eyeriss_design(), _conv_workload({"I": 0.5})),
        (
            "eyeriss-dense",
            eyeriss.dense_eyeriss_design(),
            _conv_workload({"I": 0.5}),
        ),
        (
            "scnn",
            scnn.scnn_design(),
            _conv_workload({"I": 0.4, "W": 0.3}),
        ),
        ("dstc", dstc.dstc_design(), _tc_workload(UniformDensity(0.4, 1024))),
        ("stc", stc.stc_design(), _tc_workload(FixedStructuredDensity(2, 4))),
        (
            "stc-flexible",
            stc.stc_flexible_design(8),
            _tc_workload(FixedStructuredDensity(2, 8)),
        ),
    ]
    mm = Workload.uniform(matmul(256, 256, 256), {"A": 0.06, "B": 0.06})
    for dataflow, saf in codesign.ALL_COMBINATIONS:
        cases.append(
            (
                f"codesign-{dataflow}-{saf}",
                codesign.build_design(dataflow, saf),
                mm,
            )
        )
    return cases


CASES = _design_cases()
CASE_IDS = [name for name, _, _ in CASES]


def assert_breakdown_identical(a, b, context):
    assert (a.actual, a.gated, a.skipped) == (b.actual, b.gated, b.skipped), (
        context,
        a,
        b,
    )


def assert_sparse_identical(vec, scalar):
    assert_breakdown_identical(vec.compute, scalar.compute, "compute")
    assert vec.compute_fractions == scalar.compute_fractions
    assert set(vec.actions) == set(scalar.actions)
    for key in vec.actions:
        va, sa = vec.actions[key], scalar.actions[key]
        for attr in (
            "data_reads",
            "data_writes",
            "metadata_reads",
            "metadata_writes",
        ):
            assert_breakdown_identical(
                getattr(va, attr), getattr(sa, attr), (key, attr)
            )
        assert va.intersection_checks == sa.intersection_checks, key
        assert va.occupancy_words == sa.occupancy_words, key
        assert va.worst_occupancy_words == sa.worst_occupancy_words, key
        assert va.compression_rate == sa.compression_rate, key


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("name,design,workload", CASES, ids=CASE_IDS)
    def test_bit_identical_sparse_traffic(self, name, design, workload):
        mapping = design.mapping_for(workload)
        assert mapping is not None, f"{name} needs a concrete mapping"
        dense = analyze_dataflow(workload, design.arch, mapping)
        vec = analyze_sparse(dense, design.safs, vectorized=True)
        scalar = analyze_sparse(dense, design.safs, vectorized=False)
        assert_sparse_identical(vec, scalar)

    @pytest.mark.parametrize(
        "name,design,workload", CASES[:4], ids=CASE_IDS[:4]
    )
    def test_full_pipeline_identical(self, name, design, workload):
        """End to end: cycles/energy through the engine match exactly."""
        vec = Evaluator(cache=None, sparse_vectorized=True)
        scalar = Evaluator(cache=None, sparse_vectorized=False)
        a = vec._evaluate(design, workload)
        b = scalar._evaluate(design, workload)
        assert a.cycles == b.cycles
        assert a.energy_pj == b.energy_pj
        assert a.edp == b.edp


class TestStackedBatchEquivalence:
    """One emitter stacking *many* analyses must change nothing."""

    def _pairs(self):
        pairs = []
        for name, design, workload in CASES:
            mapping = design.mapping_for(workload)
            dense = analyze_dataflow(workload, design.arch, mapping)
            pairs.append((name, dense, design.safs))
        return pairs

    def test_stacked_batch_is_bit_identical_per_analysis(self):
        """Every bundled design's flows recorded into ONE shared batch
        emitter and flushed in a single stacked numpy pass — each
        result must match its individually-evaluated counterpart
        bit for bit (both against the vectorized single-nest path and
        the scalar oracle)."""
        pairs = self._pairs()
        stacked = analyze_sparse_batch(
            [(dense, safs) for _, dense, safs in pairs], vectorized=True
        )
        for (name, dense, safs), batch_result in zip(pairs, stacked):
            single = analyze_sparse(dense, safs, vectorized=True)
            oracle = analyze_sparse(dense, safs, vectorized=False)
            assert_sparse_identical(batch_result, single)
            assert_sparse_identical(batch_result, oracle)

    def test_scalar_backend_falls_back_per_analysis(self):
        pairs = self._pairs()[:3]
        scalar = analyze_sparse_batch(
            [(dense, safs) for _, dense, safs in pairs], vectorized=False
        )
        for (name, dense, safs), result in zip(pairs, scalar):
            assert_sparse_identical(
                result, analyze_sparse(dense, safs, vectorized=False)
            )

    def test_empty_batch(self):
        assert analyze_sparse_batch([]) == []


class TestSparseStageCache:
    def _design_and_workload(self):
        design = codesign.build_design("ReuseAZ", "InnermostSkip")
        workload = Workload.uniform(
            matmul(128, 128, 128), {"A": 0.1, "B": 0.1}
        )
        return design, workload

    def test_key_is_stable_and_content_addressed(self):
        design, workload = self._design_and_workload()
        mapping = design.mapping_for(workload)
        dense = analyze_dataflow(workload, design.arch, mapping)
        key1 = sparse_analysis_key(dense, design.safs)
        # A different workload object with identical content produces
        # the same key; a different density does not.
        same = Workload.uniform(matmul(128, 128, 128), {"A": 0.1, "B": 0.1})
        dense_same = analyze_dataflow(same, design.arch, mapping)
        assert sparse_analysis_key(dense_same, design.safs) == key1
        other = Workload.uniform(matmul(128, 128, 128), {"A": 0.2, "B": 0.1})
        dense_other = analyze_dataflow(other, design.arch, mapping)
        assert sparse_analysis_key(dense_other, design.safs) != key1
        # ...and a different SAF spec does not either.
        other_safs = codesign.build_design("ReuseAZ", "HierarchicalSkip").safs
        assert sparse_analysis_key(dense, other_safs) != key1

    def test_hits_reuse_whole_sparse_analysis(self):
        design, workload = self._design_and_workload()
        evaluator = Evaluator()
        first = evaluator._evaluate(design, workload)
        second = evaluator._evaluate(design, workload)
        assert evaluator.cache.sparse.hits >= 1
        # The hit reads the record the miss stored; each result builds
        # its own SparseTraffic from it.
        assert first.record is second.record
        assert first.sparse is not second.sparse
        assert first.sparse == second.sparse
        cold = Evaluator(cache=None)._evaluate(design, workload)
        assert first.cycles == cold.cycles
        assert first.energy_pj == cold.energy_pj

    def test_saf_sweep_reuses_across_density_revisits(self):
        """The Fig.17 pattern: sweeping SAFs x densities revisits the
        same (mapping, SAF, density) points; the sparse stage serves
        the revisits."""
        evaluator = Evaluator()
        workload_for = lambda d: Workload.uniform(  # noqa: E731
            matmul(128, 128, 128), {"A": d, "B": d}
        )
        for _round in range(2):
            for density in (0.01, 0.1):
                for dataflow, saf in codesign.ALL_COMBINATIONS:
                    evaluator._evaluate(
                        codesign.build_design(dataflow, saf),
                        workload_for(density),
                    )
        stats = evaluator.cache.sparse.stats()
        assert stats["hits"] >= stats["misses"]


class TestWarmWorkersMatchColdSerial:
    def _jobs(self):
        jobs = []
        for density in (0.05, 0.3):
            wl = Workload.uniform(
                matmul(128, 128, 128), {"A": density, "B": density}
            )
            for dataflow, saf in codesign.ALL_COMBINATIONS:
                jobs.append((codesign.build_design(dataflow, saf), wl))
        return jobs

    def test_warm_parallel_equals_cold_serial(self):
        jobs = self._jobs()
        cold = Evaluator(cache=None)
        expected = [cold._evaluate(*job) for job in jobs]

        warm = Evaluator()
        # Warm the parent cache first so workers actually receive
        # shipped entries, then fan out.
        warm._evaluate_many(jobs)
        results = warm._evaluate_many(jobs, parallel=2)

        assert len(results) == len(expected)
        for (got, error), want in zip(results, expected):
            assert error is None
            assert got.design_name == want.design_name
            assert got.cycles == want.cycles
            assert got.energy_pj == want.energy_pj
            assert got.edp == want.edp
            assert got.sparse.compute.actual == want.sparse.compute.actual

    def test_warm_parallel_search_equals_cold_serial(self):
        from repro import Design, SAFSpec
        from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
        from repro.mapping.mapspace import MapspaceConstraints

        arch = Architecture(
            "warm-dse",
            [
                StorageLevel("DRAM", None, component="dram",
                             read_bandwidth=8, write_bandwidth=8),
                StorageLevel("Buffer", 16 * 1024, component="sram",
                             read_bandwidth=8, write_bandwidth=8),
            ],
            ComputeLevel("MAC", instances=16),
        )
        constraints = MapspaceConstraints(spatial_dims={"Buffer": ["n", "m"]})
        design = Design("d", arch, SAFSpec(), constraints=constraints)
        workload = Workload.uniform(matmul(64, 64, 64), {"A": 0.2, "B": 0.2})

        cold = Evaluator(cache=None, search_budget=16)._search_full(
            design, workload
        ).best_result
        warm = Evaluator(search_budget=16)
        warm._search_full(design, workload)  # populate parent cache
        parallel = warm._search_full(
            design, workload, parallel=2
        ).best_result
        assert cold is not None and parallel is not None
        assert cold.cycles == parallel.cycles
        assert cold.energy_pj == parallel.energy_pj
        assert cold.dense.mapping.cache_key() == parallel.dense.mapping.cache_key()
