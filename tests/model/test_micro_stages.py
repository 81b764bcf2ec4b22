"""The micro-model tail in the sparse record, and the persistent tier.

The ``"sparse"`` stage's value is one flat evaluation record per
sparse content key, so a sparse-stage hit short-circuits the entire
evaluation. These tests prove the cached path is bit-identical to the
uncached pipeline across every bundled design, that a warm evaluation
makes exactly two lookups, that capacity errors replay exactly from
cached records, and that snapshots survive a spill/reload round trip
through :class:`PersistentCache` (including the corrupted-file
fallback).
"""

from __future__ import annotations

import pytest

from repro import Design, Evaluator, Workload, matmul
from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.common.cache import (
    PERSISTENT_SCHEMA_VERSION,
    PersistentCache,
    StageCache,
)
from repro.common.errors import ValidationError
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.micro.record import EvaluationRecord, record_layout
from repro.model import engine
from repro.model.engine import persistent_state_key
from repro.sparse.density import UniformDensity
from repro.sparse.saf import SAFSpec
from tests.sparse.test_vectorized_equivalence import CASE_IDS, CASES


def _matmul_point():
    arch = Architecture(
        "micro-stage",
        [
            StorageLevel("DRAM", None, component="dram",
                         read_bandwidth=8, write_bandwidth=8),
            StorageLevel("Buffer", 16 * 1024, component="sram",
                         read_bandwidth=8, write_bandwidth=8),
        ],
        ComputeLevel("MAC", instances=16),
    )
    mapping = Mapping(
        [
            LevelMapping("DRAM", [Loop("m", 8), Loop("k", 4), Loop("n", 4)]),
            LevelMapping(
                "Buffer",
                [Loop("m", 16), Loop("k", 32), Loop("n", 8)],
                [Loop("n", 4)],
            ),
        ]
    )
    design = Design("d", arch, SAFSpec(), mapping=mapping)
    workload = Workload.uniform(matmul(128, 128, 128), {"A": 0.2, "B": 0.2})
    return design, workload


def assert_results_identical(a, b):
    assert a.cycles == b.cycles
    assert a.latency.bottleneck == b.latency.bottleneck
    assert a.latency.per_component == b.latency.per_component
    assert a.latency.bandwidth_demand == b.latency.bandwidth_demand
    assert a.energy_pj == b.energy_pj
    assert a.energy.per_component == b.energy.per_component
    assert a.energy.per_component_breakdown == b.energy.per_component_breakdown
    assert set(a.usage) == set(b.usage)
    for level in a.usage:
        assert a.usage[level].used_words == b.usage[level].used_words
        assert a.usage[level].per_tensor == b.usage[level].per_tensor


def _objects(result) -> tuple:
    return (result.sparse, result.usage, result.latency, result.energy)


class TestSparseRecordAccounting:
    def test_second_evaluation_is_one_sparse_hit(self):
        design, workload = _matmul_point()
        evaluator = Evaluator()
        first = evaluator._evaluate(design, workload)
        second = evaluator._evaluate(design, workload)
        stats = evaluator.cache.sparse.stats()
        assert stats["misses"] == 1, stats
        assert stats["hits"] == 1, stats
        # One record per sparse key, and no stage of its own per step:
        # the miss stored its record, the hit reads that very record.
        (record,) = [v for _, v in evaluator.cache.sparse.export_entries()]
        assert isinstance(record, EvaluationRecord)
        assert first.record is record
        assert second.record is record
        assert {"validity", "latency", "energy"}.isdisjoint(
            evaluator.cache.stats()
        )
        # Each result builds its own objects from the record.
        for mine, theirs in zip(_objects(first), _objects(second)):
            assert mine is not theirs
            assert mine == theirs

    def test_stage_results_keyed_by_sparse_content(self):
        design, workload = _matmul_point()
        evaluator = Evaluator()
        first = evaluator._evaluate(design, workload)
        other = Workload.uniform(matmul(128, 128, 128), {"A": 0.3, "B": 0.2})
        second = evaluator._evaluate(design, other)
        stats = evaluator.cache.sparse.stats()
        assert stats["misses"] == 2, stats
        assert stats["hits"] == 0, stats
        assert first.record is not second.record
        assert first.energy is not second.energy

    def test_cache_none_bypasses_the_record(self):
        design, workload = _matmul_point()
        evaluator = Evaluator(cache=None)
        evaluator._evaluate(design, workload)
        evaluator._evaluate(design, workload)  # recomputes; nothing cached
        assert evaluator.cache is None

    def test_uncacheable_density_opts_the_record_out(self):
        class OpaqueDensity(UniformDensity):
            def cache_key(self):
                return None

        design, workload = _matmul_point()
        workload.densities["A"] = OpaqueDensity(
            0.2, workload.einsum.tensor_size("A")
        )
        evaluator = Evaluator()
        first = evaluator._evaluate(design, workload)
        second = evaluator._evaluate(design, workload)
        assert len(evaluator.cache.sparse) == 0
        assert first.energy is not second.energy
        assert_results_identical(first, second)


class TestLookupCounts:
    """What a warm and a cold evaluation pay in stage lookups."""

    @pytest.fixture
    def lookups(self, monkeypatch):
        seen: list[str] = []
        original = StageCache.get

        def counted(stage, key):
            seen.append(stage.name)
            return original(stage, key)

        monkeypatch.setattr(StageCache, "get", counted)
        return seen

    @staticmethod
    def _forbid(monkeypatch, *names):
        def fail(*_args, **_kwargs):
            raise AssertionError("a warm hit computed something")

        for name in names:
            monkeypatch.setattr(engine, name, fail)

    def test_repeated_evaluate_makes_two_lookups_and_computes_nothing(
        self, lookups, monkeypatch
    ):
        design, workload = _matmul_point()
        evaluator = Evaluator()
        first = evaluator._evaluate(design, workload)
        self._forbid(
            monkeypatch,
            "analyze_dataflow", "analyze_sparse", "check_validity",
            "compute_latency", "compute_energy", "_accelergy_for",
        )
        lookups.clear()
        second = evaluator._evaluate(design, workload)
        assert lookups == ["dense", "sparse"]
        assert second.record is first.record

    def test_sparse_miss_looks_up_dense_sparse_and_plan_only(self, lookups):
        def own(names):
            # A walk's tile formats come from the process-global stage.
            return [name for name in names if name != "tile-format"]

        design, workload = _matmul_point()
        evaluator = Evaluator()
        evaluator._evaluate(design, workload)  # first-seen mapping: walks
        assert own(lookups) == ["dense", "sparse"]
        for density in (0.3, 0.4):
            lookups.clear()
            evaluator._evaluate(
                design,
                Workload.uniform(
                    matmul(128, 128, 128), {"A": density, "B": 0.2}
                ),
            )
            if evaluator.sparse_vectorized:  # plan miss, then plan hit
                assert lookups == ["dense", "sparse", "plan"], density
            else:  # the scalar oracle walks every miss
                assert own(lookups) == ["dense", "sparse"], density


class TestBitIdenticalAcrossDesigns:
    @pytest.mark.parametrize("name,design,workload", CASES, ids=CASE_IDS)
    def test_cached_equals_uncached(self, name, design, workload):
        cached = Evaluator(check_capacity=False)
        uncached = Evaluator(check_capacity=False, cache=None)
        cold = cached._evaluate(design, workload)
        warm = cached._evaluate(design, workload)  # the record hits
        plain = uncached._evaluate(design, workload)
        assert_results_identical(cold, plain)
        assert_results_identical(warm, plain)
        assert cached.cache.sparse.hits >= 1, name


class TestValidityErrorReplay:
    def _overflowing_point(self):
        tiny = Architecture(
            "tiny",
            [
                StorageLevel("DRAM", None, component="dram"),
                StorageLevel("Buffer", 16, component="sram"),
            ],
            ComputeLevel("MAC", instances=4),
        )
        mapping = Mapping(
            [
                LevelMapping("DRAM", [Loop("m", 2)]),
                LevelMapping(
                    "Buffer",
                    [Loop("m", 4), Loop("k", 8), Loop("n", 2)],
                    [Loop("n", 4)],
                ),
            ]
        )
        design = Design("d", tiny, SAFSpec(), mapping=mapping)
        workload = Workload.uniform(matmul(8, 8, 8), {"A": 0.5})
        return design, workload

    def test_cached_usage_replays_identical_error(self):
        design, workload = self._overflowing_point()
        evaluator = Evaluator()
        with pytest.raises(ValidationError) as cold:
            evaluator._evaluate(design, workload)
        with pytest.raises(ValidationError) as warm:
            evaluator._evaluate(design, workload)
        assert str(warm.value) == str(cold.value)
        assert evaluator.cache.sparse.hits == 1
        # The uncached pipeline raises the same message too.
        with pytest.raises(ValidationError) as plain:
            Evaluator(cache=None)._evaluate(design, workload)
        assert str(plain.value) == str(cold.value)

    def test_cached_usage_serves_permissive_evaluator(self):
        design, workload = self._overflowing_point()
        cache_owner = Evaluator(check_capacity=False)
        result = cache_owner._evaluate(design, workload)
        assert not result.usage["Buffer"].fits
        # A capacity-checking evaluator sharing the cache still raises.
        strict = Evaluator(cache=cache_owner.cache)
        with pytest.raises(ValidationError):
            strict._evaluate(design, workload)


class TestPersistentRoundTrip:
    def _key(self, design, workload):
        key = persistent_state_key(design, [workload])
        assert key is not None
        return key

    def test_spill_reload_starts_fully_warm(self, tmp_path):
        design, workload = _matmul_point()
        store = PersistentCache(root=tmp_path)
        key = self._key(design, workload)

        first = Evaluator(persistent=store)
        assert first.warm_start(key) == 0  # nothing stored yet
        cold = first._evaluate(design, workload)
        assert first.spill_cache() is not None

        second = Evaluator(persistent=store)
        assert second.warm_start(key) > 0
        warm = second._evaluate(design, workload)
        assert_results_identical(cold, warm)
        # Every stage of the reloaded evaluation is a pure hit.
        for name in ("dense", "sparse"):
            stats = second.cache.stage(name).stats()
            assert stats["hits"] >= 1, (name, stats)
            assert stats["misses"] == 0, (name, stats)

    def test_first_spill_prunes_the_v4_tree(self, tmp_path):
        """The flat record changed the sparse stage's value type, so
        schema 5 snapshots replace schema 4 ones."""
        assert PERSISTENT_SCHEMA_VERSION == 5
        stale = tmp_path / "v4" / "ns"
        stale.mkdir(parents=True)
        (stale / "x.pkl").write_bytes(b"a snapshot of 4-tuple records")
        design, workload = _matmul_point()
        evaluator = Evaluator(persistent=PersistentCache(root=tmp_path))
        evaluator._evaluate(design, workload)
        assert evaluator.spill_cache(self._key(design, workload)) is not None
        assert not (tmp_path / "v4").exists()
        assert (tmp_path / "v5").is_dir()

    def test_keys_are_stable_across_equal_content(self, tmp_path):
        design, workload = _matmul_point()
        rebuilt_design, rebuilt_workload = _matmul_point()
        assert persistent_state_key(
            design, [workload]
        ) == persistent_state_key(rebuilt_design, [rebuilt_workload])
        other = Workload.uniform(matmul(128, 128, 128), {"A": 0.5})
        assert persistent_state_key(
            design, [workload]
        ) != persistent_state_key(design, [other])

    def test_corrupted_snapshot_falls_back_to_cold(self, tmp_path):
        design, workload = _matmul_point()
        store = PersistentCache(root=tmp_path)
        key = self._key(design, workload)
        first = Evaluator(persistent=store)
        expected = first._evaluate(design, workload)
        first.spill_cache(key)
        store.path_for(key).write_bytes(b"not a pickle at all")

        second = Evaluator(persistent=store)
        assert second.warm_start(key) == 0  # corrupt snapshot discarded
        result = second._evaluate(design, workload)
        assert_results_identical(expected, result)
        # ...and the evaluator can spill a fresh snapshot afterwards.
        assert second.spill_cache(key) is not None
        third = Evaluator(persistent=store)
        assert third.warm_start(key) > 0

    def test_workers_warm_from_disk_matches_serial(self, tmp_path):
        """Parallel fan-out with a configured store: the pool
        initializer reopens the store in each worker (even though the
        parent's own in-memory cache is cold) and results stay
        identical to the cold serial run."""
        design, workload = _matmul_point()
        store = PersistentCache(root=tmp_path)
        key = self._key(design, workload)
        warmer = Evaluator(persistent=store)
        warmer._evaluate(design, workload)
        warmer.spill_cache(key)

        jobs = [(design, workload)] * 3
        parent = Evaluator(persistent=store, persistent_key=key)
        results = parent._evaluate_many(jobs, parallel=2)
        expected = Evaluator(cache=None)._evaluate(design, workload)
        for result, error in results:
            assert error is None
            assert_results_identical(result, expected)

    def test_parallel_results_absorbed_into_parent_cache(self):
        """Fan-out work happens in workers, but the parent cache must
        still capture it (else persistent spills after a parallel run
        would be empty) — and absorbed entries must serve later serial
        evaluations bit-identically."""
        design, workload = _matmul_point()
        parent = Evaluator()
        results = parent._evaluate_many([(design, workload)] * 3, parallel=2)
        assert len(parent.cache.sparse) == 1
        (record,) = [v for _, v in parent.cache.sparse.export_entries()]
        # The worker's pickled record came back onto the parent's own
        # interned layout, not a private copy of it.
        assert record.layout is record_layout(design.arch, record.layout.slots)
        serial = parent._evaluate(design, workload)  # pure hits now
        assert parent.cache.sparse.hits >= 1
        assert serial.record is record
        assert results[0][1] is None
        assert_results_identical(serial, results[0][0])
        assert_results_identical(
            serial, Evaluator(cache=None)._evaluate(design, workload)
        )

    def test_evaluate_network_spills_under_its_own_content_key(
        self, tmp_path
    ):
        """A stale ``persistent_key`` from an earlier, unrelated
        warm start must not hijack the snapshot identity of a network
        fan-out: a fresh process deriving the network's content key
        has to find the spill."""
        from repro.workload.nets import NetLayer
        from repro.mapping.mapping import single_level_mapping

        design, workload = _matmul_point()
        arch = design.arch
        net_design = Design(
            "net",
            arch,
            SAFSpec(),
            mapping_factory=lambda wl, a: single_level_mapping(a, wl.einsum),
        )
        layers = [NetLayer("l0", matmul(64, 64, 64, name="l0"))]
        store = PersistentCache(root=tmp_path)

        first = Evaluator(check_capacity=False, persistent=store)
        first.warm_start("unrelated-earlier-key")  # poisons persistent_key
        first._evaluate_network(net_design, layers, lambda l: {"A": 0.5})

        expected_key = persistent_state_key(
            net_design,
            [Workload.uniform(layers[0].spec, {"A": 0.5}, name="l0")],
        )
        assert expected_key is not None
        second = Evaluator(check_capacity=False, persistent=store)
        assert second.warm_start(expected_key) > 0

    def test_fully_warm_run_does_not_rewrite_the_snapshot(self, tmp_path):
        """A run that computed nothing new must leave the snapshot
        untouched (no redundant pickling/fsync on the hot repeat path),
        while runs that derive fresh content still spill."""
        import os as _os

        design, workload = _matmul_point()
        store = PersistentCache(root=tmp_path)
        key = self._key(design, workload)
        first = Evaluator(persistent=store)
        first._evaluate(design, workload)
        path = first.spill_cache(key)
        stamp = _os.stat(path).st_mtime_ns

        warm = Evaluator(persistent=store)
        warm.warm_start(key)
        warm._evaluate(design, workload)  # pure hits
        assert warm.spill_cache(key) == path
        assert _os.stat(path).st_mtime_ns == stamp  # untouched

        other = Workload.uniform(matmul(128, 128, 128), {"A": 0.4, "B": 0.2})
        warm._evaluate(design, other)  # fresh content
        assert warm.spill_cache(key) == path
        assert _os.stat(path).st_mtime_ns != stamp  # rewritten

    def test_unconfigured_persistent_tier_is_inert(self):
        design, workload = _matmul_point()
        evaluator = Evaluator()  # no persistent store
        assert evaluator.warm_start("anything") == 0
        evaluator._evaluate(design, workload)
        assert evaluator.spill_cache("anything") is None

    def test_cache_none_disables_persistent_warm_start(self, tmp_path):
        design, workload = _matmul_point()
        store = PersistentCache(root=tmp_path)
        key = self._key(design, workload)
        warmer = Evaluator(persistent=store)
        warmer._evaluate(design, workload)
        warmer.spill_cache(key)
        disabled = Evaluator(cache=None, persistent=store)
        assert disabled.warm_start(key) == 0
        assert disabled.cache is None
