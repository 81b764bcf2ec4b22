"""Tests for the format analyzer: tile occupancy and compression."""

import math

import numpy as np
import pytest

from repro.common.cache import global_cache
from repro.sparse.density import ActualDataDensity, UniformDensity
from repro.sparse.format_analyzer import (
    TILE_FORMAT_STAGE,
    analyze_tile_format,
    clear_tile_format_cache,
)
from repro.sparse.formats import (
    Bitmask,
    CoordinatePayload,
    FormatRank,
    FormatSpec,
    RunLengthEncoding,
    UncompressedOffsetPairs,
    classic_format,
    dense_format,
)


class TestDense:
    def test_dense_tile_no_overhead(self):
        occ = analyze_tile_format(
            dense_format(2), (8, 8), UniformDensity(0.5, 64)
        )
        assert occ.payload_words == 64
        assert occ.metadata_bits == 0
        assert occ.compression_rate(16) == 1.0


class TestBitmaskFormat:
    def test_metadata_independent_of_density(self):
        fmt = FormatSpec([FormatRank(Bitmask(), flattened_ranks=2)])
        sparse = analyze_tile_format(fmt, (8, 8), UniformDensity(0.1, 64))
        dense = analyze_tile_format(fmt, (8, 8), UniformDensity(0.9, 64))
        assert sparse.metadata_bits == dense.metadata_bits == 64

    def test_payload_scales_with_density(self):
        fmt = FormatSpec([FormatRank(Bitmask(), flattened_ranks=2)])
        occ = analyze_tile_format(fmt, (8, 8), UniformDensity(0.25, 64))
        assert math.isclose(occ.payload_words, 16.0)

    def test_compression_beats_dense_when_sparse(self):
        fmt = FormatSpec([FormatRank(Bitmask(), flattened_ranks=2)])
        occ = analyze_tile_format(fmt, (8, 8), UniformDensity(0.25, 64))
        assert occ.compression_rate(16) > 1.0


class TestCSR:
    def test_csr_structure(self):
        density = UniformDensity(0.25, 64)
        occ = analyze_tile_format(classic_format("CSR"), (8, 8), density)
        # Payload = expected nonzeros.
        assert math.isclose(occ.payload_words, 16.0)
        # UOP row pointers + CP column ids for each nonzero.
        assert [r.format_name for r in occ.per_rank] == ["UOP", "CP"]
        uop, cp = occ.per_rank
        assert uop.format_name == "UOP"
        assert uop.metadata_bits >= 9  # (8+1) offsets
        assert cp.format_name == "CP"
        assert math.isclose(cp.metadata_bits, 16 * 3)  # 3b columns

    def test_worst_case_exceeds_expected(self):
        density = UniformDensity(0.25, 4096)
        occ = analyze_tile_format(classic_format("CSR"), (16, 16), density)
        assert occ.worst_payload_words > occ.payload_words


class TestHierarchicalPruning:
    def test_empty_rows_prune_lower_rank(self):
        # With hypergeometric stats some rows are empty; CP at the
        # row rank stores fewer fibers than the full row count.
        fmt = FormatSpec(
            [FormatRank(CoordinatePayload()), FormatRank(CoordinatePayload())]
        )
        density = UniformDensity(0.05, 256)
        occ = analyze_tile_format(fmt, (16, 16), density)
        row_rank = occ.per_rank[0]
        assert row_rank.nonempty_elements < 16

    def test_uncompressed_outer_keeps_all_fibers(self):
        fmt = FormatSpec(
            [FormatRank(Bitmask()), FormatRank(RunLengthEncoding(4))]
        )
        density = UniformDensity(0.5, 64)
        occ = analyze_tile_format(fmt, (8, 8), density)
        # The RLE rank sees 'stored fibers' = nonempty rows only
        # (bitmask prunes), but metadata for rank0 covers all 8.
        assert occ.per_rank[0].metadata_bits == 8


class TestActualDataAgreement:
    def test_payload_matches_exact_nnz(self):
        data = np.zeros((8, 8))
        data[0, :4] = 1.0
        model = ActualDataDensity(data)
        occ = analyze_tile_format(classic_format("CSR"), (8, 8), model)
        assert math.isclose(occ.payload_words, 4.0)

    def test_metadata_bits_per_element(self):
        data = np.zeros((4, 4))
        data[0, 0] = 1.0
        occ = analyze_tile_format(
            classic_format("CSR"), (4, 4), ActualDataDensity(data)
        )
        assert occ.metadata_bits_per_element() == occ.metadata_bits / 16


class TestTileFormatMemo:
    def test_equal_specs_built_apart_share_one_entry(self):
        def csr_3b() -> FormatSpec:
            return FormatSpec(
                [
                    FormatRank(UncompressedOffsetPairs()),
                    FormatRank(CoordinatePayload(coord_bits=3)),
                ]
            )

        first_spec, second_spec = csr_3b(), csr_3b()
        assert first_spec is not second_spec and first_spec == second_spec
        density = UniformDensity(0.3, 256)
        clear_tile_format_cache()
        stage = global_cache().stage(TILE_FORMAT_STAGE)
        first = analyze_tile_format(first_spec, (16, 16), density)
        assert (stage.hits, stage.misses) == (0, 1)
        second = analyze_tile_format(second_spec, (16, 16), density)
        assert (stage.hits, stage.misses) == (1, 1)
        assert second is first
        assert [r.format_name for r in second.per_rank] == ["UOP", "CP(3b)"]
