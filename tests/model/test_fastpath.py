"""Fast-path engine cross-checks.

The optimizations must be behaviour-preserving: every test here runs
the same evaluation through two configurations (cached vs uncached,
prefilter on vs off, parallel vs serial) and requires *identical*
numbers — the fast path may only change how fast answers arrive, never
the answers.
"""

from __future__ import annotations

import pytest

from repro import Design, Evaluator, SAFSpec, Workload, matmul
from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.common.cache import DEFAULT_STAGE_SIZES, AnalysisCache, StageCache
from repro.common.errors import ValidationError
from repro.dataflow.nest_analysis import dense_analysis_key
from repro.designs import codesign
from repro.mapping.mapspace import Mapper, MapspaceConstraints
from repro.sparse.formats import CoordinatePayload, FormatRank, FormatSpec
from repro.sparse.saf import SAFKind, double_sided, gate_compute, skip_compute


def dse_arch() -> Architecture:
    return Architecture(
        "dse",
        [
            StorageLevel("DRAM", None, component="dram",
                         read_bandwidth=8, write_bandwidth=8),
            StorageLevel("Buffer", 16 * 1024, component="sram",
                         read_bandwidth=8, write_bandwidth=8),
        ],
        ComputeLevel("MAC", instances=16),
    )


def dse_saf_variants() -> list[SAFSpec]:
    cp2 = FormatSpec(
        [FormatRank(CoordinatePayload()), FormatRank(CoordinatePayload())]
    )
    return [
        SAFSpec(),
        SAFSpec(
            formats={("Buffer", "A"): cp2, ("DRAM", "A"): cp2},
            compute_safs=[gate_compute()],
        ),
        SAFSpec(
            formats={("Buffer", "A"): cp2, ("DRAM", "A"): cp2},
            storage_safs=double_sided(SAFKind.SKIP, "A", "B", "Buffer"),
            compute_safs=[skip_compute()],
        ),
    ]


def dse_workload() -> Workload:
    return Workload.uniform(matmul(64, 64, 64), {"A": 0.2, "B": 0.2})


CONSTRAINTS = MapspaceConstraints(spatial_dims={"Buffer": ["n", "m"]})


def assert_results_equal(a, b) -> None:
    assert a.cycles == b.cycles
    assert a.energy_pj == b.energy_pj
    assert a.edp == b.edp
    assert a.sparse.compute.actual == b.sparse.compute.actual
    assert a.dense.mapping.cache_key() == b.dense.mapping.cache_key()
    for key, record in a.dense.traffic.items():
        other = b.dense.traffic[key]
        assert record.reads == other.reads
        assert record.writes == other.writes


class TestDenseStageCache:
    def test_hit_reuses_analysis_across_saf_variants(self):
        evaluator = Evaluator(search_budget=12)
        cache = evaluator.cache.dense
        workload = dse_workload()
        arch = dse_arch()
        mapping = None
        for index, safs in enumerate(dse_saf_variants()):
            design = Design(f"d{index}", arch, safs, constraints=CONSTRAINTS)
            result = evaluator._search_full(design, workload).best_result
            assert result is not None
            mapping = result.dense.mapping
        # Variants 2 and 3 re-walk the exact candidate list of variant 1.
        assert cache.hits > 0
        assert cache.hit_rate > 0.5
        key = dense_analysis_key(workload, arch, mapping)
        assert isinstance(hash(key), int)

    def test_cached_equals_uncached(self):
        workload = dse_workload()
        arch = dse_arch()
        for index, safs in enumerate(dse_saf_variants()):
            design = Design(f"d{index}", arch, safs, constraints=CONSTRAINTS)
            cold = Evaluator(cache=None, search_budget=12)
            warm = Evaluator(search_budget=12)
            # Evaluate twice with the warm evaluator so the second pass
            # is served from the cache, then compare all three.
            uncached = cold._search_full(design, workload).best_result
            first = warm._search_full(design, workload).best_result
            second = warm._search_full(design, Workload.uniform(
                matmul(64, 64, 64), {"A": 0.2, "B": 0.2}
            )).best_result
            assert warm.cache.dense.hits > 0
            assert_results_equal(uncached, first)
            assert_results_equal(uncached, second)

    def test_hit_rebinds_new_workload(self):
        """A cache hit for a different workload object (same einsum,
        different densities) must use the *new* densities."""
        design = codesign.build_design("ReuseAZ", "InnermostSkip")
        evaluator = Evaluator()
        sparse_wl = Workload.uniform(
            matmul(128, 128, 128), {"A": 0.01, "B": 0.01}
        )
        dense_wl = Workload.uniform(
            matmul(128, 128, 128), {"A": 0.3, "B": 0.3}
        )
        first = evaluator._evaluate(design, sparse_wl)
        second = evaluator._evaluate(design, dense_wl)
        assert evaluator.cache.dense.hits >= 1
        cold = Evaluator(cache=None)
        assert_results_equal(second, cold._evaluate(design, dense_wl))
        # Sparser workload must do strictly less effectual compute.
        assert first.sparse.compute.actual < second.sparse.compute.actual

    def test_eviction_respects_maxsize(self, monkeypatch):
        monkeypatch.setitem(DEFAULT_STAGE_SIZES, "dense", 2)
        analysis_cache = AnalysisCache()
        evaluator = Evaluator(cache=analysis_cache)
        cache = analysis_cache.dense
        design = codesign.build_design("ReuseABZ", "InnermostSkip")
        for m in (64, 128, 256):
            wl = Workload.uniform(matmul(m, 64, 64), {"A": 0.1, "B": 0.1})
            evaluator._evaluate(design, wl)
        assert len(cache) == 2
        assert cache.misses == 3

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            StageCache(maxsize=0, name="dense")


class TestCapacityPrefilter:
    def test_prefilter_never_changes_search_result(self):
        workload = dse_workload()
        design = Design(
            "d", dse_arch(), dse_saf_variants()[2], constraints=CONSTRAINTS
        )
        fast = Evaluator(search_budget=12, prefilter_capacity=True)
        slow = Evaluator(search_budget=12, prefilter_capacity=False)
        assert_results_equal(
            fast._search_full(design, workload).best_result,
            slow._search_full(design, workload).best_result,
        )

    def test_rejected_candidates_would_fail_validity(self):
        """The prefilter is conservative: anything it rejects must also
        be rejected by the full validity check."""
        # 128^3 tensors are 16K words each — three of them cannot fit
        # the 16K-word buffer, so unbalanced tilings must be rejected.
        workload = Workload.uniform(
            matmul(128, 128, 128), {"A": 0.2, "B": 0.2}
        )
        design = Design("d", dse_arch(), SAFSpec(), constraints=CONSTRAINTS)
        evaluator = Evaluator()
        mapper = Mapper(workload.einsum, design.arch, CONSTRAINTS)
        rejected = 0
        for mapping in mapper.sample_mappings(40, seed=7):
            if evaluator._capacity_overflow(design, workload, mapping) is None:
                continue
            rejected += 1
            with pytest.raises(ValidationError):
                evaluator._evaluate_mapping(design, workload, mapping)
        # The sample must contain rejections for this test to mean
        # anything.
        assert rejected > 0


class TestParallelSearch:
    def test_parallel_matches_serial(self):
        workload = dse_workload()
        design = Design(
            "d", dse_arch(), dse_saf_variants()[1], constraints=CONSTRAINTS
        )
        serial = Evaluator(search_budget=16)._search_full(
            design, workload
        ).best_result
        parallel = Evaluator(search_budget=16)._search_full(
            design, workload, parallel=2
        ).best_result
        assert_results_equal(serial, parallel)

    def test_parallel_single_candidate_falls_back(self):
        workload = dse_workload()
        design = Design("d", dse_arch(), SAFSpec(), constraints=CONSTRAINTS)
        mapper = Mapper(workload.einsum, design.arch, CONSTRAINTS)
        candidates = list(mapper.sample_mappings(1, seed=3))
        result = Evaluator()._search_full(
            design, workload, candidates=candidates, parallel=4
        ).best_result
        expected = Evaluator()._search_full(
            design, workload, candidates=candidates
        ).best_result
        if expected is None:
            assert result is None
        else:
            assert_results_equal(result, expected)


class TestEvaluateMany:
    def jobs(self):
        jobs = []
        for density in (0.01, 0.3):
            wl = Workload.uniform(
                matmul(128, 128, 128), {"A": density, "B": density}
            )
            for dataflow, saf in codesign.ALL_COMBINATIONS:
                jobs.append((codesign.build_design(dataflow, saf), wl))
        return jobs

    def test_matches_individual_evaluate(self):
        jobs = self.jobs()
        batch = Evaluator()._evaluate_many(jobs)
        reference = Evaluator(cache=None)
        for job, (result, error) in zip(jobs, batch):
            assert error is None
            assert_results_equal(result, reference._evaluate(*job))

    def test_parallel_matches_serial_in_order(self):
        jobs = self.jobs()
        serial = Evaluator()._evaluate_many(jobs)
        parallel = Evaluator()._evaluate_many(jobs, parallel=3)
        assert len(serial) == len(parallel) == len(jobs)
        for (a, a_error), (b, b_error) in zip(serial, parallel):
            assert a_error is None and b_error is None
            assert a.design_name == b.design_name
            assert_results_equal(a, b)

    def test_empty_batch(self):
        assert Evaluator()._evaluate_many([]) == []


class TestCacheKeys:
    def test_mapping_key_reflects_content(self):
        arch = dse_arch()
        workload = dse_workload()
        mapper = Mapper(workload.einsum, arch, CONSTRAINTS)
        maps = list(mapper.sample_mappings(6, seed=0))
        keys = {m.cache_key() for m in maps}
        # Distinct schedules map to distinct keys...
        assert len(keys) == len(maps)
        # ...and re-deriving the same schedule reproduces its key.
        again = list(
            Mapper(workload.einsum, arch, CONSTRAINTS).sample_mappings(
                6, seed=0
            )
        )
        assert [m.cache_key() for m in again] == [m.cache_key() for m in maps]

    def test_arch_key_changes_with_capacity(self):
        a = dse_arch()
        b = dse_arch()
        # Mutation happens *before* first keying: architectures are
        # frozen by contract once keyed (the key is memoised, like
        # SAFSpec's), so content changes must be fresh objects.
        b.levels[1].capacity_words = 999
        assert a.cache_key() == dse_arch().cache_key()
        assert a.cache_key() != b.cache_key()
        # The memo returns the identical tuple on repeat calls.
        assert a.cache_key() is a.cache_key()

    def test_einsum_key_changes_with_bounds(self):
        assert (
            matmul(8, 8, 8).cache_key() == matmul(8, 8, 8).cache_key()
        )
        assert matmul(8, 8, 8).cache_key() != matmul(8, 8, 16).cache_key()
