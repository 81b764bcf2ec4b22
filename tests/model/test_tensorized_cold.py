"""Tensorized cold-search equivalence and fan-out regression tests.

The cold search path runs every drawn candidate through the scalar
capacity prefilter (:meth:`Evaluator._capacity_overflow`), then its
survivors through two fast paths — the batched dense nest analysis and
the zero-pickle parallel fan-out — each keeping a scalar/serial oracle
it must match **bit for bit**. This suite pins the equivalences the
cold bench (``benchmarks/bench_perf_engine.py::test_search_cold_smoke``)
relies on, across designs, workloads, knob combinations, and caching
modes, checks that the blocked scan prefilters and feeds witnesses
back to its mapper, and guards the fan-out protocol against regressing
to per-chunk design pickling.
"""

from __future__ import annotations

import pytest

from repro import Design, Evaluator, SAFSpec, Workload, conv2d, matmul
from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.dataflow.nest_analysis import analyze_dataflow, analyze_dataflow_batch
from repro.mapping.mapspace import Mapper, MapspaceConstraints
from repro.model import engine as engine_module
from repro.sparse.formats import CoordinatePayload, FormatRank, FormatSpec
from repro.sparse.saf import SAFKind, double_sided, gate_compute, skip_compute


def _arch(buffer_words=16 * 1024) -> Architecture:
    return Architecture(
        "cold",
        [
            StorageLevel("DRAM", None, component="dram",
                         read_bandwidth=8, write_bandwidth=8),
            StorageLevel("Buffer", buffer_words, component="sram",
                         read_bandwidth=8, write_bandwidth=8),
        ],
        ComputeLevel("MAC", instances=16),
    )


def _matmul_case(saf_index: int, buffer_words=16 * 1024):
    cp2 = FormatSpec(
        [FormatRank(CoordinatePayload()), FormatRank(CoordinatePayload())]
    )
    safs = [
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
    ][saf_index]
    design = Design(
        f"mm-{saf_index}", _arch(buffer_words), safs,
        constraints=MapspaceConstraints(spatial_dims={"Buffer": ["n", "m"]}),
    )
    workload = Workload.uniform(matmul(64, 64, 64), {"A": 0.2, "B": 0.2})
    return design, workload


def _conv_case():
    cp4 = FormatSpec([FormatRank(CoordinatePayload())] * 4)
    design = Design(
        "cv", _arch(), SAFSpec(
            formats={("Buffer", "W"): cp4, ("DRAM", "W"): cp4},
            compute_safs=[gate_compute()],
        ),
        constraints=MapspaceConstraints(spatial_dims={"Buffer": ["k", "c"]}),
    )
    workload = Workload.uniform(
        conv2d(n=2, k=16, c=8, p=7, q=7, r=3, s=3), {"W": 0.3, "I": 0.5}
    )
    return design, workload


def _overflow_case():
    """128^3 tensors against a 16K-word buffer: most tilings overflow,
    so the prefilter equivalence actually sees rejections."""
    design = Design(
        "ov", _arch(), SAFSpec(),
        constraints=MapspaceConstraints(spatial_dims={"Buffer": ["n", "m"]}),
    )
    workload = Workload.uniform(
        matmul(128, 128, 128), {"A": 0.2, "B": 0.2}
    )
    return design, workload


CASES = {
    "matmul-plain": lambda: _matmul_case(0),
    "matmul-gated": lambda: _matmul_case(1),
    "matmul-skip": lambda: _matmul_case(2),
    "conv2d-gated": _conv_case,
    "matmul-overflow": _overflow_case,
}


def _sample(design, workload, count=24, seed=5):
    mapper = Mapper(workload.einsum, design.arch, design.constraints)
    return list(mapper.sample_mappings(count, seed=seed))


def assert_results_equal(a, b) -> None:
    assert a.cycles == b.cycles
    assert a.energy_pj == b.energy_pj
    assert a.edp == b.edp
    assert a.sparse.compute.actual == b.sparse.compute.actual
    assert a.sparse.compute.gated == b.sparse.compute.gated
    assert a.sparse.compute.skipped == b.sparse.compute.skipped
    assert a.dense.mapping.cache_key() == b.dense.mapping.cache_key()
    for key, record in a.dense.traffic.items():
        other = b.dense.traffic[key]
        assert record.reads == other.reads
        assert record.writes == other.writes


def test_scan_prefilters_and_registers_witnesses():
    """The blocked scan rejects overflowing draws before evaluation and
    registers the scalar oracle's monotone witnesses with its mapper;
    with the prefilter off it rejects nothing and registers nothing."""
    design, workload = _overflow_case()
    mappings = _sample(design, workload)
    evaluator = Evaluator()
    oracle_witnesses = set()
    for mapping in mappings:
        reason = evaluator._capacity_overflow(design, workload, mapping)
        if reason is not None and reason.monotone:
            extents = {d: e for d, e in reason.dim_extents.items() if e > 1}
            oracle_witnesses.add((reason.level, frozenset(extents.items())))
    assert oracle_witnesses, "case produced no monotone overflow"

    def scan(prefilter):
        mapper = Mapper(workload.einsum, design.arch, design.constraints)
        state = evaluator._scan(
            design, workload, mappings, None, mapper=mapper, batch_size=8,
            prefilter=prefilter,
        )
        return state, mapper

    state, mapper = scan(None)
    assert state.rejected > 0
    assert state.evaluated > 0
    assert mapper.overflow_witness_count > 0
    for level, witnesses in mapper.export_witnesses().items():
        for witness in witnesses:
            assert (level, frozenset(witness.items())) in oracle_witnesses

    state, mapper = scan(False)
    assert state.rejected == 0
    assert mapper.overflow_witness_count == 0


@pytest.mark.parametrize("case", CASES)
class TestBatchedDenseEquivalence:
    def test_batch_matches_scalar_walks(self, case):
        design, workload = CASES[case]()
        mappings = [
            m for m in _sample(design, workload)
            if Evaluator()._capacity_overflow(design, workload, m) is None
        ]
        assert mappings, "case sampled no in-capacity mappings"
        jobs = [(workload, design.arch, m) for m in mappings]
        batch = analyze_dataflow_batch(jobs, vectorized=True)
        for traffic, (wl, arch, mapping) in zip(batch, jobs):
            scalar = analyze_dataflow(wl, arch, mapping)
            # DenseTraffic equality spans every numeric field (the
            # nest view is identity-excluded by design).
            assert traffic == scalar
            assert traffic.traffic.keys() == scalar.traffic.keys()


KNOB_GRID = [
    dict(dense_vectorized=True),
    dict(dense_vectorized=False),
    dict(dense_vectorized=True, sparse_vectorized=False),
    dict(dense_vectorized=True, cache=None),
    dict(dense_vectorized=False, sparse_vectorized=False, cache=None),
]


@pytest.mark.parametrize("case", ["matmul-gated", "matmul-skip", "conv2d-gated"])
@pytest.mark.parametrize("knobs", KNOB_GRID, ids=lambda k: "+".join(
    sorted(f"{name}={value}" for name, value in k.items())
))
class TestColdSearchBitIdentity:
    def test_winner_matches_full_scalar_oracle(self, case, knobs):
        design, workload = CASES[case]()
        oracle = Evaluator(search_budget=24, dense_vectorized=False)
        fast = Evaluator(search_budget=24, **knobs)
        assert_results_equal(
            fast._search_full(design, workload, batch_size=8).best_result,
            oracle._search_full(design, workload, batch_size=8).best_result,
        )


class TestZeroPicklePayloads:
    def test_search_payloads_are_index_ranges(self, monkeypatch):
        """The parallel fan-out must never regress to shipping designs
        or mappings per task: payloads stay ``(start, stop)`` index
        ranges, the read-only state crosses once via the initializer.
        The pool is emulated inline — the initializer runs with the
        exact arguments ``_run_pool`` would ship, the worker function
        runs against the installed globals — so the assertion covers
        the real protocol, not a mock of it."""
        captured = {}
        real_run_pool = Evaluator._run_pool

        def fake_run_pool(self, worker_fn, payloads, exclude_stages=(),
                          shared=None):
            captured["payloads"] = payloads
            captured["shared"] = shared
            for payload in payloads:
                assert isinstance(payload, tuple) and len(payload) == 2
                start, stop = payload
                assert isinstance(start, int) and isinstance(stop, int)
            assert shared is not None and "candidates" in shared
            if not payloads:
                return []
            # Emulate one worker process in-process: install the
            # initializer state, run, restore the module globals.
            saved = (
                engine_module._WORKER_CACHE,
                engine_module._WORKER_CACHE_INSTALLED,
                engine_module._WORKER_SHARED,
            )
            try:
                engine_module._warm_worker_initializer(
                    self._export_cache_state(
                        engine_module.DEFAULT_EXPORT_LIMIT,
                        exclude_stages=exclude_stages,
                    ),
                    self.persistent if self.cache is not None else None,
                    self.persistent_key,
                    shared,
                )
                return [worker_fn(payload) for payload in payloads]
            finally:
                (
                    engine_module._WORKER_CACHE,
                    engine_module._WORKER_CACHE_INSTALLED,
                    engine_module._WORKER_SHARED,
                ) = saved

        monkeypatch.setattr(Evaluator, "_run_pool", fake_run_pool)
        design, workload = _matmul_case(1)
        parallel = Evaluator(search_budget=16)._search_full(
            design, workload, parallel=2
        ).best_result
        assert captured["payloads"], "pool was never invoked"
        ranges = captured["payloads"]
        total = len(captured["shared"]["candidates"])
        assert ranges[0][0] == 0 and ranges[-1][1] == total
        monkeypatch.setattr(Evaluator, "_run_pool", real_run_pool)
        serial = Evaluator(search_budget=16)._search_full(
            design, workload
        ).best_result
        assert_results_equal(parallel, serial)
