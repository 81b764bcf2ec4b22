"""Cross-candidate batched mapspace search: equivalence and feedback.

The batched strategy must return a **bit-identical** winner — same
objective score, same candidate-stream index, same result — as the
serial per-candidate oracle scan, across sampled and exhaustive paths,
with warm and cold caches, because it is the default search path. The
suite also covers the ``"candidates"`` memo stage (sampled streams
replayed across searches) and overflow-witness bookkeeping across
search blocks.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import Design, SAFSpec, Session, Workload, matmul
from repro.api.jobs import SearchJob
from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.common.cache import AnalysisCache
from repro.common.errors import SpecError
from repro.mapping.mapspace import (
    CANDIDATES_STAGE,
    Mapper,
    MapspaceConstraints,
    sampled_candidates_key,
)
from repro.model.engine import Evaluator
from repro.sparse.formats import CoordinatePayload, FormatRank, FormatSpec
from repro.sparse.saf import SAFKind, double_sided, gate_compute, skip_compute

BUDGET = 24


def _arch(buffer_words=16 * 1024, macs=16) -> Architecture:
    return Architecture(
        "batched-search",
        [
            StorageLevel("DRAM", None, component="dram",
                         read_bandwidth=8, write_bandwidth=8),
            StorageLevel("Buffer", buffer_words, component="sram",
                         read_bandwidth=8, write_bandwidth=8),
        ],
        ComputeLevel("MAC", instances=macs),
    )


def _saf_variants() -> list[SAFSpec]:
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


def _sampled_cases():
    """Constraint-driven designs whose mapspace forces the sampled
    path (size estimate far above ``4 * budget``)."""
    arch = _arch()
    constraints = MapspaceConstraints(spatial_dims={"Buffer": ["n", "m"]})
    workload = Workload.uniform(matmul(128, 128, 128), {"A": 0.2, "B": 0.2})
    return [
        (Design(f"s{i}", arch, safs, constraints=constraints), workload)
        for i, safs in enumerate(_saf_variants())
    ]


def _exhaustive_case():
    """A tiny, overflow-heavy mapspace that takes the exhaustive path
    and exercises witness subtree pruning (4096-word tensors against a
    1024-word buffer)."""
    arch = _arch(buffer_words=1024, macs=1)
    workload = Workload.uniform(matmul(64, 64, 64), {"A": 0.9, "B": 0.9})
    design = Design(
        "exhaustive", arch, SAFSpec(), constraints=MapspaceConstraints()
    )
    return design, workload


def _winner_tuple(evaluator, design, workload, strategy, **kwargs):
    result = evaluator._search_full(
        design, workload, strategy=strategy, **kwargs
    ).best_result
    assert result is not None
    return (
        result.cycles,
        result.energy_pj,
        result.edp,
        result.dense.mapping.cache_key(),
    )


class TestBatchedEqualsSerial:
    @pytest.mark.parametrize("case_index", range(3))
    def test_sampled_path_cold_cache(self, case_index):
        design, workload = _sampled_cases()[case_index]
        serial = _winner_tuple(
            Evaluator(search_budget=BUDGET), design, workload, "serial"
        )
        batched = _winner_tuple(
            Evaluator(search_budget=BUDGET), design, workload, "batched"
        )
        assert serial == batched

    def test_sampled_path_warm_cache(self):
        """Second search on the same evaluator (sparse/micro stages and
        the candidates memo warm) picks the identical winner."""
        design, workload = _sampled_cases()[1]
        serial_eval = Evaluator(search_budget=BUDGET)
        batched_eval = Evaluator(search_budget=BUDGET)
        for _ in range(2):
            serial = _winner_tuple(serial_eval, design, workload, "serial")
            batched = _winner_tuple(batched_eval, design, workload, "batched")
            assert serial == batched

    def test_exhaustive_path_with_witness_feedback(self):
        design, workload = _exhaustive_case()
        serial = _winner_tuple(
            Evaluator(search_budget=BUDGET), design, workload, "serial"
        )
        batched = _winner_tuple(
            Evaluator(search_budget=BUDGET), design, workload, "batched"
        )
        assert serial == batched

    def test_score_and_index_identical_on_replayed_stream(self):
        """The low-level scans agree on the full (score, index) winner
        tuple — the tie-break contract — for every block size,
        including blocks that straddle witness registrations."""
        design, workload = _sampled_cases()[2]
        einsum, arch = workload.einsum, design.arch

        serial_eval = Evaluator(search_budget=BUDGET)
        serial_mapper = Mapper(einsum, arch, design.constraints)
        serial = serial_eval._search_candidates(
            design,
            workload,
            serial_mapper.sample_mappings(BUDGET, seed=0),
            None,
            mapper=serial_mapper,
        )
        assert serial is not None

        stream = list(
            Mapper(einsum, arch, design.constraints).sample_mappings(
                BUDGET, seed=0
            )
        )
        for batch_size in (2, 5, 7, 64):
            mapper = Mapper(einsum, arch, design.constraints)
            batched = Evaluator(search_budget=BUDGET)._scan(
                design,
                workload,
                stream,
                None,
                mapper=mapper,
                batch_size=batch_size,
            ).best
            assert batched is not None
            assert batched[0] == serial[0]
            assert batched[1] == serial[1]
            assert batched[2].cycles == serial[2].cycles
            assert batched[2].energy_pj == serial[2].energy_pj

    def test_exhaustive_score_and_index_identical(self):
        design, workload = _exhaustive_case()
        einsum, arch = workload.einsum, design.arch

        serial_mapper = Mapper(einsum, arch, design.constraints)
        serial = Evaluator(search_budget=BUDGET)._search_candidates(
            design,
            workload,
            serial_mapper.enumerate_mappings(),
            None,
            mapper=serial_mapper,
        )
        batched_mapper = Mapper(einsum, arch, design.constraints)
        batched = Evaluator(search_budget=BUDGET)._scan(
            design,
            workload,
            batched_mapper.enumerate_mappings(),
            None,
            mapper=batched_mapper,
            batch_size=4,
        ).best
        assert serial is not None and batched is not None
        assert batched[:2] == serial[:2]
        assert batched[2].edp == serial[2].edp

    def test_cache_disabled(self):
        design, workload = _sampled_cases()[0]
        serial = _winner_tuple(
            Evaluator(search_budget=BUDGET, cache=None),
            design, workload, "serial",
        )
        batched = _winner_tuple(
            Evaluator(search_budget=BUDGET, cache=None),
            design, workload, "batched",
        )
        assert serial == batched

    def test_scalar_oracle_backend(self):
        """The batched strategy keeps its block structure under the
        forced scalar sparse backend (the stacked flush degenerates to
        per-candidate scalar arithmetic) — and still agrees with both
        the vectorized batched scan and the scalar serial oracle."""
        design, workload = _sampled_cases()[0]
        scalar_batched_eval = Evaluator(
            search_budget=BUDGET, sparse_vectorized=False
        )
        scalar = _winner_tuple(
            scalar_batched_eval, design, workload, "batched"
        )
        # The candidate memo is backend-independent.
        assert len(scalar_batched_eval.cache.stage(CANDIDATES_STAGE)) == 1
        vectorized = _winner_tuple(
            Evaluator(search_budget=BUDGET),
            design, workload, "batched",
        )
        serial_scalar = _winner_tuple(
            Evaluator(search_budget=BUDGET, sparse_vectorized=False),
            design, workload, "serial",
        )
        assert scalar == vectorized == serial_scalar

    def test_explicit_candidates(self):
        design, workload = _sampled_cases()[0]
        stream = list(
            Mapper(
                workload.einsum, design.arch, design.constraints
            ).sample_mappings(BUDGET, seed=3)
        )
        serial = _winner_tuple(
            Evaluator(), design, workload, "serial", candidates=list(stream)
        )
        batched = _winner_tuple(
            Evaluator(), design, workload, "batched", candidates=list(stream)
        )
        assert serial == batched

    def test_parallel_chunks_match_serial(self):
        design, workload = _sampled_cases()[0]
        serial = _winner_tuple(
            Evaluator(search_budget=BUDGET), design, workload, "serial"
        )
        parallel = _winner_tuple(
            Evaluator(search_budget=BUDGET),
            design, workload, "batched", parallel=2,
        )
        assert serial == parallel

        # An exhaustive scan of 343 mappings with heavy witness traffic:
        # pool shards must withhold witness-dominated candidates exactly
        # as the in-process scan does, or stream indices shift
        # (regression: the pool reported index 231 against 206).
        design, workload = _exhaustive_case()
        with Session(search_budget=256, parallel=2) as session:
            pooled = session.search(design, workload)
        with Session(search_budget=256) as session:
            local = session.search(design, workload)
            sharded = session.search(design, workload, shards=2)
        for other in (pooled, sharded):
            assert other.best_index == local.best_index
            assert other.best_score == local.best_score
            assert other.frontier.to_dict() == local.frontier.to_dict()

    def test_unknown_strategy_rejected(self):
        design, workload = _sampled_cases()[0]
        with pytest.raises(SpecError):
            Evaluator()._search_full(
                design, workload, strategy="genetic"
            )


class TestCandidatesMemo:
    def test_stream_replayed_across_searches(self):
        """Three SAF variants share one mapspace: the first search pays
        the sampling, the other two replay the memoised stream."""
        cases = _sampled_cases()
        evaluator = Evaluator(search_budget=BUDGET)
        for design, workload in cases:
            evaluator._search_full(design, workload)
        stage = evaluator.cache.stage(CANDIDATES_STAGE)
        stats = stage.stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == len(cases) - 1

    def test_key_separates_seed_budget_and_constraints(self):
        design, workload = _sampled_cases()[0]
        base = sampled_candidates_key(
            workload.einsum, design.arch, design.constraints, 0, BUDGET
        )
        assert base == sampled_candidates_key(
            workload.einsum,
            design.arch,
            MapspaceConstraints(spatial_dims={"Buffer": ["n", "m"]}),
            0,
            BUDGET,
        )
        assert base != sampled_candidates_key(
            workload.einsum, design.arch, design.constraints, 1, BUDGET
        )
        assert base != sampled_candidates_key(
            workload.einsum, design.arch, design.constraints, 0, BUDGET + 1
        )
        assert base != sampled_candidates_key(
            workload.einsum,
            design.arch,
            MapspaceConstraints(spatial_dims={"Buffer": ["n"]}),
            0,
            BUDGET,
        )

    def test_replayed_stream_matches_fresh_draw(self):
        design, workload = _sampled_cases()[0]
        evaluator = Evaluator(search_budget=BUDGET)
        mapper = Mapper(workload.einsum, design.arch, design.constraints)
        stream = evaluator._sampled_candidates(design, workload, mapper)
        fresh = list(
            Mapper(
                workload.einsum, design.arch, design.constraints
            ).sample_mappings(BUDGET, seed=0)
        )
        assert [m.cache_key() for m in stream] == [
            m.cache_key() for m in fresh
        ]
        # A second request replays the identical list object.
        again = evaluator._sampled_candidates(
            design, workload,
            Mapper(workload.einsum, design.arch, design.constraints),
        )
        assert again is stream

    def test_batch_size_one_keeps_the_memo(self):
        """`batch_size` tunes the block size only; shrinking it to 1
        must not silently fall back to the serial scan and lose the
        candidates-stage replay (regression)."""
        design, workload = _sampled_cases()[0]
        evaluator = Evaluator(search_budget=BUDGET)
        tiny = evaluator._search_full(
            design, workload, batch_size=1
        ).best_result
        assert len(evaluator.cache.stage(CANDIDATES_STAGE)) == 1
        serial = Evaluator(search_budget=BUDGET)._search_full(
            design, workload, strategy="serial"
        ).best_result
        assert tiny.cycles == serial.cycles
        assert tiny.energy_pj == serial.energy_pj

    def test_in_block_duplicates_count_as_serial_hits(self):
        """A candidate repeated inside one block is computed once and
        accounted exactly as the serial compute-then-hit sequence: one
        sparse-stage miss, one hit (regression: both used to count as
        misses)."""
        design, workload = _sampled_cases()[0]
        stream = list(
            Mapper(
                workload.einsum, design.arch, design.constraints
            ).sample_mappings(4, seed=0)
        )
        doubled = stream + stream  # every candidate appears twice

        batched_eval = Evaluator(search_budget=BUDGET)
        batched_eval._search_full(
            design, workload, candidates=list(doubled), batch_size=64
        )
        serial_eval = Evaluator(search_budget=BUDGET)
        serial_eval._search_full(
            design, workload, candidates=list(doubled), strategy="serial"
        )
        assert (
            batched_eval.cache.sparse.stats()
            == serial_eval.cache.sparse.stats()
        )

    def test_disabled_cache_returns_none(self):
        design, workload = _sampled_cases()[0]
        evaluator = Evaluator(search_budget=BUDGET, cache=None)
        mapper = Mapper(workload.einsum, design.arch, design.constraints)
        assert evaluator._sampled_candidates(design, workload, mapper) is None

    def test_search_pool_payload_excludes_candidate_streams(self):
        """Search chunk workers get explicit materialised candidate
        lists and never sample, so the candidates stage is dropped from
        their warm-up payload (it stays in full exports — persistent
        spills and evaluate/network pools, whose workers may search)."""
        design, workload = _sampled_cases()[0]
        evaluator = Evaluator(search_budget=BUDGET)
        evaluator._search_full(design, workload)
        assert CANDIDATES_STAGE in evaluator._export_cache_state(None)
        assert CANDIDATES_STAGE not in evaluator._export_cache_state(
            None, exclude_stages=(CANDIDATES_STAGE,)
        )

    def test_stream_survives_cache_export_import(self):
        """The candidates stage ships with cache snapshots (warm
        workers, persistent tier) like any other stage."""
        design, workload = _sampled_cases()[0]
        evaluator = Evaluator(search_budget=BUDGET)
        evaluator._search_full(design, workload)
        state = evaluator._export_cache_state(per_stage_limit=None)
        assert CANDIDATES_STAGE in state

        restored = AnalysisCache()
        restored.import_state(
            {CANDIDATES_STAGE: state[CANDIDATES_STAGE]}
        )
        warm = Evaluator(search_budget=BUDGET, cache=restored)
        mapper = Mapper(workload.einsum, design.arch, design.constraints)
        stream = warm._sampled_candidates(design, workload, mapper)
        assert restored.stage(CANDIDATES_STAGE).hits == 1
        assert [m.cache_key() for m in stream] == [
            m.cache_key()
            for m in Mapper(
                workload.einsum, design.arch, design.constraints
            ).sample_mappings(BUDGET, seed=0)
        ]


class TestWitnessFeedbackAcrossBlocks:
    def test_witnesses_registered_and_counted_in_batched_path(self):
        design, workload = _exhaustive_case()
        mapper = Mapper(workload.einsum, design.arch, design.constraints)
        best = Evaluator(search_budget=BUDGET)._scan(
            design,
            workload,
            mapper.enumerate_mappings(),
            None,
            mapper=mapper,
            batch_size=4,
        ).best
        assert best is not None
        assert mapper.overflow_witness_count > 0
        assert mapper.pruned_subtrees + mapper.pruned_candidates > 0

    def test_replayed_stream_witness_withholding(self):
        """On a replayed (memoised) stream, witnesses registered by an
        early block withhold dominated candidates drawn later — exactly
        the candidates the live generator would have withheld — and
        count them in ``pruned_candidates``."""
        arch = _arch(buffer_words=1024, macs=1)
        workload = Workload.uniform(matmul(64, 64, 64), {"A": 0.9, "B": 0.9})
        design = Design(
            "replay", arch, SAFSpec(), constraints=MapspaceConstraints()
        )
        stream = list(
            Mapper(workload.einsum, arch, None).sample_mappings(40, seed=5)
        )

        mapper = Mapper(workload.einsum, arch, None)
        evaluator = Evaluator(search_budget=40)
        batched = evaluator._scan(
            design, workload, stream, None, mapper=mapper, batch_size=4,
        ).best
        assert mapper.overflow_witness_count > 0
        assert mapper.pruned_candidates > 0

        # The generator-driven serial oracle agrees on the winner and
        # on the stream position despite the withholding.
        serial_mapper = Mapper(workload.einsum, arch, None)
        serial = Evaluator(search_budget=40)._search_candidates(
            design, workload,
            serial_mapper.sample_mappings(40, seed=5),
            None, mapper=serial_mapper,
        )
        assert (serial is None) == (batched is None)
        if serial is not None:
            assert batched[:2] == serial[:2]

    def test_mapping_dominated_matches_generator_verdicts(self):
        """`mapping_dominated` (the replay check) agrees with the
        yield-time check: a pruned generator run yields exactly the
        stream entries the replay check lets through."""
        arch = _arch(buffer_words=1024, macs=1)
        workload = Workload.uniform(matmul(64, 64, 64), {"A": 0.9, "B": 0.9})
        witness = {"m": 16, "k": 16}

        unpruned = list(
            Mapper(workload.einsum, arch, None).sample_mappings(30, seed=9)
        )
        generator_mapper = Mapper(workload.einsum, arch, None)
        generator_mapper.register_overflow("Buffer", witness)
        generated = [
            m.cache_key()
            for m in generator_mapper.sample_mappings(30, seed=9)
        ]

        replay_mapper = Mapper(workload.einsum, arch, None)
        replay_mapper.register_overflow("Buffer", witness)
        replayed = [
            m.cache_key()
            for m in unpruned
            if not replay_mapper.mapping_dominated(m)
        ]
        assert replayed == generated
        assert len(replayed) < len(unpruned)


class TestSessionKnobs:
    def test_search_job_carries_knobs(self):
        design, workload = _sampled_cases()[0]
        with Session(search_budget=BUDGET) as session:
            default = session.search(design, workload)
            serial = session.search(
                design, workload, strategy="serial", batch_size=1
            )
            small_blocks = session.search(
                SearchJob(
                    design, workload, batch_size=3, strategy="batched"
                )
            )
        a, b, c = (
            r.best_or_raise() for r in (default, serial, small_blocks)
        )
        assert a.cycles == b.cycles == c.cycles
        assert a.energy_pj == b.energy_pj == c.energy_pj

    def test_unknown_strategy_surfaces_on_handle(self):
        design, workload = _sampled_cases()[0]
        with Session(search_budget=BUDGET) as session:
            handle = session.submit(
                SearchJob(design, workload, strategy="annealing")
            )
            assert isinstance(handle.exception(), SpecError)

    def test_progress_feed_tracks_the_scan(self):
        """The single-host progress feed behind CLI ``search -v`` and
        the serve daemon's progress envelopes: ``evaluated`` never
        decreases, and the last frame describes the returned result."""
        design, workload = _sampled_cases()[2]
        frames: list[dict] = []
        with Session(search_budget=BUDGET) as session:
            result = session.search(
                design, workload, batch_size=4, on_progress=frames.append
            )
        assert len(frames) > 1
        counts = [frame["evaluated"] for frame in frames]
        assert counts == sorted(counts)
        last = frames[-1]
        assert last["best_score"] == result.best_score
        assert last["best_index"] == result.best_index
        assert last["frontier_size"] == len(result.frontier)


class TestSearchMemory:
    def test_search_cache_is_freed_by_refcount(self):
        """A finished search leaves no reference cycle through the
        cache. With the prefilter off, block candidates fail the full
        validity check, and their captured errors must not tie the
        Session's cache to the search's frames."""
        design, workload = _exhaustive_case()
        gc.disable()
        try:
            session = Session(prefilter_capacity=False)
            result = session.search(design, workload, budget=BUDGET)
            assert result.best_or_raise() is not None
            cache = weakref.ref(session.cache)
            del session, result
            assert cache() is None
        finally:
            gc.enable()
