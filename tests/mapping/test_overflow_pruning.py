"""Capacity-overflow feedback: mapper-side dominance pruning.

The engine's prefilter registers monotone infeasibility witnesses with
the mapper; the mapper then skips dominated candidates — and whole
factorization subtrees — without ever changing which mapping wins.
"""

from __future__ import annotations

from repro import Design, Evaluator, SAFSpec, Workload, matmul
from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.mapping.mapspace import Mapper, MapspaceConstraints


def tiny_buffer_arch(capacity=1024) -> Architecture:
    return Architecture(
        "tiny",
        [
            StorageLevel("DRAM", None, component="dram",
                         read_bandwidth=8, write_bandwidth=8),
            StorageLevel("Buffer", capacity, component="sram",
                         read_bandwidth=8, write_bandwidth=8),
        ],
        ComputeLevel("MAC", instances=1),
    )


def overflowing_workload() -> Workload:
    # 64^2 = 4096-word tensors against a 1024-word buffer: most
    # factorizations overflow, many of them provably (dense tensors
    # make the prefilter's monotone bound exact).
    return Workload.uniform(matmul(64, 64, 64), {"A": 0.9, "B": 0.9})


class TestRegisterOverflow:
    def test_witness_set_stays_minimal(self):
        wl = overflowing_workload()
        mapper = Mapper(wl.einsum, tiny_buffer_arch())
        mapper.register_overflow("Buffer", {"m": 16, "k": 16, "n": 1})
        # A strictly-dominating witness adds nothing.
        mapper.register_overflow("Buffer", {"m": 32, "k": 16, "n": 1})
        assert mapper.overflow_witness_count == 1
        # A strictly-dominated witness replaces the weaker one.
        mapper.register_overflow("Buffer", {"m": 8, "k": 8, "n": 1})
        assert mapper.overflow_witness_count == 1
        # An incomparable witness coexists.
        mapper.register_overflow("Buffer", {"m": 1, "k": 1, "n": 32})
        assert mapper.overflow_witness_count == 2

    def test_new_witness_replaces_every_dominated_existing(self):
        """One sufficiently weak witness sweeps out *all* existing
        witnesses it dominates, not just the first."""
        wl = overflowing_workload()
        mapper = Mapper(wl.einsum, tiny_buffer_arch())
        mapper.register_overflow("Buffer", {"m": 16, "k": 4})
        mapper.register_overflow("Buffer", {"m": 4, "k": 16})
        mapper.register_overflow("Buffer", {"n": 32})
        assert mapper.overflow_witness_count == 3
        # {m:2, k:2} is dominated by both m/k witnesses' regions'
        # complements — i.e. it dominates neither, but both existing
        # m/k witnesses dominate it, so both are replaced; the
        # incomparable n-witness survives.
        mapper.register_overflow("Buffer", {"m": 2, "k": 2})
        assert mapper.overflow_witness_count == 2

    def test_equal_witness_is_discarded(self):
        wl = overflowing_workload()
        mapper = Mapper(wl.einsum, tiny_buffer_arch())
        mapper.register_overflow("Buffer", {"m": 8, "k": 8})
        mapper.register_overflow("Buffer", {"m": 8, "k": 8})
        assert mapper.overflow_witness_count == 1

    def test_unit_extents_are_normalised_out(self):
        """Extents of 1 say nothing (every candidate has extent >= 1),
        so they must not make two equivalent witnesses look distinct."""
        wl = overflowing_workload()
        mapper = Mapper(wl.einsum, tiny_buffer_arch())
        mapper.register_overflow("Buffer", {"m": 8, "k": 8, "n": 1})
        mapper.register_overflow("Buffer", {"m": 8, "k": 8})
        assert mapper.overflow_witness_count == 1

    def test_witnesses_per_level_are_independent(self):
        wl = overflowing_workload()
        arch = tiny_buffer_arch()
        mapper = Mapper(wl.einsum, arch)
        mapper.register_overflow("Buffer", {"m": 8})
        mapper.register_overflow("DRAM", {"m": 8})
        assert mapper.overflow_witness_count == 2

    def test_unknown_level_rejected(self):
        import pytest

        from repro.common.errors import MappingError

        wl = overflowing_workload()
        mapper = Mapper(wl.einsum, tiny_buffer_arch())
        with pytest.raises(MappingError):
            mapper.register_overflow("NoSuchLevel", {"m": 2})


class TestEnumerationPruning:
    def test_pruned_stream_is_unpruned_minus_dominated(self):
        wl = overflowing_workload()
        arch = tiny_buffer_arch()
        baseline = Mapper(wl.einsum, arch)
        full = [m.cache_key() for m in baseline.enumerate_mappings()]

        pruned_mapper = Mapper(wl.einsum, arch)
        witness = {"m": 32, "k": 32}
        pruned_mapper.register_overflow("Buffer", witness)
        pruned = [m.cache_key() for m in pruned_mapper.enumerate_mappings()]

        assert len(pruned) < len(full)
        assert set(pruned) <= set(full)
        assert (
            pruned_mapper.pruned_subtrees + pruned_mapper.pruned_candidates > 0
        )
        # Every dropped candidate dominates the witness at the Buffer:
        # its m- and k-extents there are >= 32.
        dropped = set(full) - set(pruned)
        assert dropped
        for key in dropped:
            # key levels are outermost-first; accumulate the tile
            # extents at the Buffer by walking innermost-first.
            extents = {"m": 1, "k": 1, "n": 1}
            seen_buffer = False
            for level, temporal, spatial, _keep in reversed(key):
                for dim, bound, _spatial in temporal + spatial:
                    extents[dim] *= bound
                if level == "Buffer":
                    seen_buffer = True
                    break
            assert seen_buffer
            assert extents["m"] >= 32 and extents["k"] >= 32

    def test_counters_distinguish_candidates_from_subtrees(self):
        """`pruned_candidates` counts fully-built dominated candidates;
        `pruned_subtrees` counts factorization prefixes cut before
        enumeration descended into them. Both observability counters
        must move under a witness that bites."""
        wl = overflowing_workload()
        arch = tiny_buffer_arch()
        mapper = Mapper(wl.einsum, arch)
        assert mapper.pruned_candidates == 0
        assert mapper.pruned_subtrees == 0
        mapper.register_overflow("Buffer", {"m": 16, "k": 16})
        list(mapper.enumerate_mappings())
        assert mapper.pruned_subtrees > 0
        # Sampling (no subtree structure) moves only the candidate
        # counter.
        sampler = Mapper(wl.einsum, arch)
        sampler.register_overflow("Buffer", {"m": 16, "k": 16})
        list(sampler.sample_mappings(30, seed=11))
        assert sampler.pruned_candidates > 0
        assert sampler.pruned_subtrees == 0

    def test_sampling_counts_pruned_toward_budget(self):
        wl = overflowing_workload()
        arch = tiny_buffer_arch()
        baseline = Mapper(wl.einsum, arch)
        full = [m.cache_key() for m in baseline.sample_mappings(20, seed=11)]

        pruned_mapper = Mapper(wl.einsum, arch)
        pruned_mapper.register_overflow("Buffer", {"m": 16, "k": 16})
        pruned = [
            m.cache_key() for m in pruned_mapper.sample_mappings(20, seed=11)
        ]
        # Same draw sequence: the pruned run yields a subsequence of
        # the unpruned run (doomed candidates withheld, never replaced).
        assert set(pruned) <= set(full)
        it = iter(full)
        assert all(any(key == other for other in it) for key in pruned)


class TestEngineFeedback:
    def _search_setup(self):
        arch = tiny_buffer_arch()
        constraints = MapspaceConstraints()
        design = Design("d", arch, SAFSpec(), constraints=constraints)
        return design, overflowing_workload()

    def test_feedback_preserves_search_result(self):
        design, wl = self._search_setup()
        with_feedback = Evaluator(search_budget=64, prefilter_capacity=True)
        without = Evaluator(search_budget=64, prefilter_capacity=False)
        a = with_feedback._search_full(design, wl).best_result
        b = without._search_full(design, wl).best_result
        assert (a is None) == (b is None)
        if a is not None:
            assert a.cycles == b.cycles
            assert a.energy_pj == b.energy_pj
            assert a.dense.mapping.cache_key() == b.dense.mapping.cache_key()

    def test_overflow_reasons_register_witnesses(self):
        design, wl = self._search_setup()
        evaluator = Evaluator(search_budget=64)
        mapper = Mapper(wl.einsum, design.arch, design.constraints)
        best = evaluator._search_candidates(
            design, wl, mapper.enumerate_mappings(), None, mapper=mapper
        )
        assert mapper.overflow_witness_count > 0
        assert mapper.pruned_subtrees + mapper.pruned_candidates > 0
        # The pruned search still finds the same winner as a scan with
        # no feedback at all.
        reference = Evaluator(search_budget=64)._search_candidates(
            design, wl,
            Mapper(wl.einsum, design.arch, design.constraints)
            .enumerate_mappings(),
            None,
        )
        assert (best is None) == (reference is None)
        if best is not None:
            assert best[0] == reference[0]
            assert best[2].dense.mapping.cache_key() == (
                reference[2].dense.mapping.cache_key()
            )

    def test_overflow_reason_fields(self):
        design, wl = self._search_setup()
        evaluator = Evaluator()
        mapper = Mapper(wl.einsum, design.arch, design.constraints)
        overflowing = None
        for mapping in mapper.enumerate_mappings():
            reason = evaluator._capacity_overflow(design, wl, mapping)
            if reason is not None:
                overflowing = reason
                break
        assert overflowing is not None
        assert overflowing.level == "Buffer"
        assert overflowing.used_words > overflowing.capacity_words
        # Dense tensors: the monotone bound equals the full bound, so
        # the extents are a sound dominance witness.
        assert overflowing.monotone
