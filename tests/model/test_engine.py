"""Tests for the top-level evaluation engine."""

import pytest

from repro import Design, Evaluator, Session, Workload, matmul
from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.common.errors import SpecError, ValidationError
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.mapping.mapspace import MapspaceConstraints
from repro.sparse.saf import SAFSpec, skip_compute
from repro.workload.nets import alexnet


@pytest.fixture
def arch():
    return Architecture(
        "a",
        [
            StorageLevel("DRAM", None, component="dram"),
            StorageLevel("Buffer", 4096, component="sram"),
        ],
        ComputeLevel("MAC", instances=4),
    )


@pytest.fixture
def mapping():
    return Mapping(
        [
            LevelMapping("DRAM", [Loop("m", 2)]),
            LevelMapping(
                "Buffer",
                [Loop("m", 4), Loop("k", 8), Loop("n", 2)],
                [Loop("n", 4)],
            ),
        ]
    )


@pytest.fixture
def workload():
    return Workload.uniform(matmul(8, 8, 8), {"A": 0.5})


class TestEvaluate:
    def test_fixed_mapping(self, arch, mapping, workload):
        design = Design("d", arch, SAFSpec(), mapping=mapping)
        result = Session().evaluate(design, workload)
        assert result.cycles > 0
        assert result.energy_pj > 0
        assert result.edp == result.cycles * result.energy_pj

    def test_mapping_factory(self, arch, mapping, workload):
        calls = []

        def factory(wl, a):
            calls.append(wl.name)
            return mapping

        design = Design("d", arch, SAFSpec(), mapping_factory=factory)
        Session().evaluate(design, workload)
        assert calls == [workload.name]

    def test_explicit_mapping_overrides(self, arch, mapping, workload):
        design = Design("d", arch, SAFSpec(), mapping=mapping)
        other = Mapping(
            [
                LevelMapping("DRAM", []),
                LevelMapping(
                    "Buffer", [Loop("m", 8), Loop("k", 8), Loop("n", 8)]
                ),
            ]
        )
        result = Session().evaluate(design, workload, mapping=other)
        assert result.dense.mapping is other

    def test_no_mapping_source_raises(self, arch, workload):
        design = Design("d", arch)
        with pytest.raises(SpecError):
            Session().evaluate(design, workload)

    def test_capacity_check_enforced(self, workload, mapping):
        tiny = Architecture(
            "tiny",
            [
                StorageLevel("DRAM", None, component="dram"),
                StorageLevel("Buffer", 16, component="sram"),
            ],
            ComputeLevel("MAC", instances=4),
        )
        design = Design("d", tiny, SAFSpec(), mapping=mapping)
        with pytest.raises(ValidationError):
            Session().evaluate(design, workload)
        # And can be disabled.
        result = Session(check_capacity=False).evaluate(design, workload)
        assert not result.usage["Buffer"].fits


class TestSearch:
    def test_constraints_search_finds_valid(self, arch, workload):
        design = Design(
            "d",
            arch,
            SAFSpec(),
            constraints=MapspaceConstraints(),
        )
        result = Session(search_budget=24).evaluate(design, workload)
        assert result.cycles > 0

    def test_search_optimizes_objective(self, arch, workload):
        design = Design("d", arch, constraints=MapspaceConstraints())
        ev = Evaluator(search_budget=24)
        best_edp = ev._search_full(design, workload).best_result
        best_cycles = ev._search_full(
            design, workload, objective=lambda r: r.cycles
        ).best_result
        assert best_cycles.cycles <= best_edp.cycles

    def test_explicit_candidates(self, arch, workload, mapping):
        design = Design("d", arch)
        result = Evaluator()._search_full(
            design, workload, candidates=[mapping]
        ).best_result
        assert result is not None


class TestNetworkEvaluation:
    def test_per_layer_results(self, arch, mapping):
        from repro.mapping.mapping import single_level_mapping

        def factory(wl, a):
            return single_level_mapping(a, wl.einsum)

        design = Design("d", arch, SAFSpec(), mapping_factory=factory)
        layers = alexnet()[:2]
        results = Evaluator(check_capacity=False)._evaluate_network(
            design, layers, lambda layer: {"I": 0.5}
        )
        assert len(results) == 2
        assert results[0][0].name == "conv1"
        assert all(r.cycles > 0 for _l, r in results)


def _counting_factory_calls():
    """A picklable-unfriendly (closure) factory is fine here: the
    dedupe tests run serially."""
    calls = []

    def factory(wl, a):
        from repro.mapping.mapping import single_level_mapping

        calls.append(wl.name)
        return single_level_mapping(a, wl.einsum)

    return factory, calls


class TestNetworkDedupe:
    def _design(self, arch, factory=None):
        from repro.mapping.mapping import single_level_mapping

        if factory is None:
            factory = lambda wl, a: single_level_mapping(a, wl.einsum)  # noqa: E731
        return Design("d", arch, SAFSpec(), mapping_factory=factory)

    def _repeated_layers(self):
        # BERT-style repetition: identical shapes appear as separate
        # NetLayer entries (and resnet50 collapses them via repeat).
        from repro.workload.nets import NetLayer

        spec = matmul(64, 64, 64, name="block")
        other = matmul(64, 64, 32, name="tail")
        return [
            NetLayer("block_1", spec),
            NetLayer("block_2", spec),
            NetLayer("tail", other),
            NetLayer("block_3", spec, repeat=2),
        ]

    def test_identical_layers_evaluated_once(self, arch):
        factory, calls = _counting_factory_calls()
        design = self._design(arch, factory)
        layers = self._repeated_layers()
        evaluator = Evaluator(check_capacity=False)
        results = evaluator._evaluate_network(
            design, layers, lambda layer: {"A": 0.5}
        )
        assert len(results) == 4
        # The factory is consulted once per layer (same as the
        # undeduped path — factories may inspect the workload name)...
        assert len(calls) == 4
        # ...but only the two unique (spec, densities, mapping)
        # contents are actually evaluated.
        assert evaluator.cache.sparse.stats()["misses"] == 2

    def test_name_dependent_factory_is_not_merged(self, arch):
        # A factory keyed off the workload *name* legitimately gives
        # identical shapes different schedules; dedupe must not fuse
        # them.
        from repro.mapping.mapping import LevelMapping, Loop, Mapping

        def factory(wl, a):
            k_outer = 2 if wl.name == "block_1" else 4
            return Mapping(
                [
                    LevelMapping("DRAM", [Loop("k", k_outer)]),
                    LevelMapping(
                        "Buffer",
                        [
                            Loop("m", 64),
                            Loop("k", 64 // k_outer),
                            Loop("n", 64),
                        ],
                    ),
                ]
            )

        design = Design("d", arch, SAFSpec(), mapping_factory=factory)
        layers = self._repeated_layers()[:2]  # identical spec + density
        evaluator = Evaluator(check_capacity=False)
        results = evaluator._evaluate_network(
            design, layers, lambda layer: {"A": 0.5}
        )
        assert evaluator.cache.sparse.stats()["misses"] == 2
        by_name = {r.workload_name: r for _l, r in results}
        oracle = Session(check_capacity=False, cache=None)
        for layer in layers:
            workload = Workload.uniform(
                layer.spec, {"A": 0.5}, name=layer.name
            )
            expected = oracle.evaluate(design, workload)
            assert by_name[layer.name].cycles == expected.cycles
            assert by_name[layer.name].energy_pj == expected.energy_pj

    def test_deduped_results_are_bit_identical(self, arch):
        design = self._design(arch)
        layers = self._repeated_layers()
        deduped = Evaluator(check_capacity=False)._evaluate_network(
            design, layers, lambda layer: {"A": 0.5}
        )
        # The oracle: evaluate every layer independently, no sharing.
        oracle_ev = Session(check_capacity=False, cache=None)
        for layer, result in deduped:
            workload = Workload.uniform(
                layer.spec, {"A": 0.5}, name=layer.name
            )
            expected = oracle_ev.evaluate(design, workload)
            assert result.workload_name == layer.name
            assert result.cycles == expected.cycles
            assert result.energy_pj == expected.energy_pj
            assert result.energy.per_component == expected.energy.per_component
            assert result.latency.per_component == (
                expected.latency.per_component
            )

    def test_order_and_pairing_preserved(self, arch):
        design = self._design(arch)
        layers = self._repeated_layers()
        results = Evaluator(check_capacity=False)._evaluate_network(
            design, layers, lambda layer: {"A": 0.5}
        )
        assert [layer.name for layer, _ in results] == [
            "block_1",
            "block_2",
            "tail",
            "block_3",
        ]
        for layer, result in results:
            assert result.workload_name == layer.name

    def test_distinct_densities_are_not_merged(self, arch):
        design = self._design(arch)
        layers = self._repeated_layers()[:2]  # identical specs...
        densities = {"block_1": 0.5, "block_2": 0.25}  # ...different density
        evaluator = Evaluator(check_capacity=False)
        evaluator._evaluate_network(
            design, layers, lambda layer: {"A": densities[layer.name]}
        )
        assert evaluator.cache.sparse.stats()["misses"] == 2


class TestPoolEdgeCases:
    def test_evaluate_many_empty_parallel(self):
        assert Evaluator()._evaluate_many([], parallel=4) == []

    def test_search_empty_candidates_parallel(self, arch, workload):
        design = Design("d", arch)
        assert (
            Evaluator()._search_full(
                design, workload, candidates=[], parallel=3
            ).best_result
            is None
        )

    def test_run_pool_rejects_nothing_on_empty_payloads(self):
        assert Evaluator()._run_pool(print, []) == []

    def test_pool_start_method_env_override(self, monkeypatch):
        from repro.model.engine import _pool_start_method

        monkeypatch.delenv("REPRO_MP_START_METHOD", raising=False)
        assert _pool_start_method() in ("fork", "spawn")
        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        assert _pool_start_method() == "spawn"

    def test_spawn_context_matches_serial(self, arch, mapping, monkeypatch):
        # Pin the spawn path Linux would otherwise never exercise; the
        # pool must produce results identical to the serial run.
        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        design = Design("d", arch, SAFSpec(), mapping=mapping)
        jobs = [
            (design, Workload.uniform(matmul(8, 8, 8), {"A": d}))
            for d in (0.25, 0.5)
        ]
        evaluator = Evaluator()
        expected = [evaluator._evaluate(*job) for job in jobs]
        results = evaluator._evaluate_many(jobs, parallel=2)
        for (got, error), want in zip(results, expected):
            assert error is None
            assert got.cycles == want.cycles
            assert got.energy_pj == want.energy_pj


class TestUncachedParentWorkers:
    """``cache=None`` must propagate to workers: no shipped state, no
    rebuilt worker cache — not even via the process-global tile-format
    stage riding along in the snapshot."""

    def test_export_state_is_none_even_with_warm_globals(
        self, arch, mapping, workload
    ):
        # Warm the process-global tile-format stage through a cached
        # evaluator first.
        design = Design("d", arch, SAFSpec(), mapping=mapping)
        Evaluator()._evaluate(design, workload)
        assert Evaluator(cache=None)._export_cache_state() is None

    def test_initializer_none_forces_uncached_workers(self):
        from repro.model import engine

        # Simulate a worker process that (e.g. under a fork start
        # method) inherited a warm cache from an enclosing context.
        old = (engine._WORKER_CACHE, engine._WORKER_CACHE_INSTALLED)
        try:
            from repro.common.cache import AnalysisCache

            engine._WORKER_CACHE = AnalysisCache()
            engine._WORKER_CACHE_INSTALLED = True
            engine._warm_worker_initializer(None)
            assert engine._WORKER_CACHE is None
            assert engine._WORKER_CACHE_INSTALLED
            bound = engine._bind_worker_cache(Evaluator())
            assert bound.cache is None
        finally:
            engine._WORKER_CACHE, engine._WORKER_CACHE_INSTALLED = old

    def test_bind_without_initializer_leaves_evaluator_alone(self):
        from repro.model import engine

        old = (engine._WORKER_CACHE, engine._WORKER_CACHE_INSTALLED)
        try:
            engine._WORKER_CACHE = None
            engine._WORKER_CACHE_INSTALLED = False
            evaluator = Evaluator()
            assert engine._bind_worker_cache(evaluator) is evaluator
        finally:
            engine._WORKER_CACHE, engine._WORKER_CACHE_INSTALLED = old

    def test_uncached_parallel_matches_uncached_serial(self, arch, mapping):
        design = Design("d", arch, SAFSpec(), mapping=mapping)
        jobs = [
            (design, Workload.uniform(matmul(8, 8, 8), {"A": d}))
            for d in (0.25, 0.5, 0.75)
        ]
        serial = Evaluator(cache=None)
        expected = [serial._evaluate(*job) for job in jobs]
        results = Evaluator(cache=None)._evaluate_many(jobs, parallel=2)
        for (got, error), want in zip(results, expected):
            assert error is None
            assert got.cycles == want.cycles
            assert got.energy_pj == want.energy_pj


class TestResultReporting:
    def test_summary_contains_key_facts(self, arch, mapping, workload):
        design = Design(
            "d",
            arch,
            SAFSpec(compute_safs=[skip_compute(["A"])]),
            mapping=mapping,
        )
        result = Session().evaluate(design, workload)
        text = result.summary()
        assert "cycles" in text
        assert "energy" in text
        assert "skipped" in text

    def test_level_accessors(self, arch, mapping, workload):
        design = Design("d", arch, SAFSpec(), mapping=mapping)
        result = Session().evaluate(design, workload)
        assert result.level_energy("DRAM") > 0
        assert result.level_cycles("MAC") > 0
        assert result.compression_rate("Buffer", "A") == 1.0

    def test_energy_per_compute(self, arch, mapping, workload):
        design = Design("d", arch, SAFSpec(), mapping=mapping)
        result = Session().evaluate(design, workload)
        assert result.energy_per_compute == pytest.approx(
            result.energy_pj / result.actual_computes
        )
