"""Tests for the format analyzer: tile occupancy and compression.

``analyze_tile_format`` returns one flat tuple, ``(dense words, payload
words, metadata bits, worst payload words, worst metadata bits)``; the
per-rank terms are seen through ``compile_tile_format`` plus
``occupancy_terms(..., per_rank=rows)``.
"""

import math

import numpy as np
import pytest

from repro.common.cache import global_cache
from repro.sparse.density import ActualDataDensity, UniformDensity
from repro.sparse.format_analyzer import (
    TILE_FORMAT_STAGE,
    analyze_tile_format,
    clear_tile_format_cache,
    compile_tile_format,
    format_scalars,
    occupancy_terms,
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


DENSE_WORDS, PAYLOAD, METADATA_BITS, WORST_PAYLOAD, WORST_BITS = range(5)


def compression_rate(tile, word_bits: int) -> float:
    """Dense words over encoded words of ``word_bits``."""
    return format_scalars(tile[0], tile[1:], word_bits, 1, True)[4]


def per_rank(fmt: FormatSpec, rank_extents, density) -> list[dict]:
    """Each format rank's name and terms, outer to inner, from the
    analyzer's own per-rank loop; checks that the loop's totals are
    what ``analyze_tile_format`` returns."""
    extents, subtrees, dense_words = compile_tile_format(fmt, rank_extents)
    rows: list[tuple] = []
    terms = occupancy_terms(
        fmt.ranks,
        extents,
        [density.prob_nonempty(size) for size in subtrees],
        density.quantile_occupancy(dense_words),
        per_rank=rows,
    )
    assert (dense_words,) + terms == analyze_tile_format(
        fmt, rank_extents, density
    )
    assert len(rows) == len(fmt.ranks)
    return [
        {
            "format_name": repr(rank.format),
            "fiber_shape": row[0],
            "stored_fibers": row[1],
            "nonempty_elements": row[2],
            "metadata_bits": row[3],
        }
        for rank, row in zip(fmt.ranks, rows)
    ]


class TestDense:
    def test_dense_tile_no_overhead(self):
        tile = analyze_tile_format(
            dense_format(2), (8, 8), UniformDensity(0.5, 64)
        )
        assert tile[PAYLOAD] == 64
        assert tile[METADATA_BITS] == 0
        assert compression_rate(tile, 16) == 1.0


class TestBitmaskFormat:
    def test_metadata_independent_of_density(self):
        fmt = FormatSpec([FormatRank(Bitmask(), flattened_ranks=2)])
        sparse = analyze_tile_format(fmt, (8, 8), UniformDensity(0.1, 64))
        dense = analyze_tile_format(fmt, (8, 8), UniformDensity(0.9, 64))
        assert sparse[METADATA_BITS] == dense[METADATA_BITS] == 64

    def test_payload_scales_with_density(self):
        fmt = FormatSpec([FormatRank(Bitmask(), flattened_ranks=2)])
        tile = analyze_tile_format(fmt, (8, 8), UniformDensity(0.25, 64))
        assert math.isclose(tile[PAYLOAD], 16.0)

    def test_compression_beats_dense_when_sparse(self):
        fmt = FormatSpec([FormatRank(Bitmask(), flattened_ranks=2)])
        tile = analyze_tile_format(fmt, (8, 8), UniformDensity(0.25, 64))
        assert compression_rate(tile, 16) > 1.0


class TestCSR:
    def test_csr_structure(self):
        density = UniformDensity(0.25, 64)
        fmt = classic_format("CSR")
        tile = analyze_tile_format(fmt, (8, 8), density)
        # Payload = expected nonzeros.
        assert math.isclose(tile[PAYLOAD], 16.0)
        # UOP row pointers + CP column ids for each nonzero.
        ranks = per_rank(fmt, (8, 8), density)
        assert [r["format_name"] for r in ranks] == ["UOP", "CP"]
        uop, cp = ranks
        assert uop["format_name"] == "UOP"
        assert uop["metadata_bits"] >= 9  # (8+1) offsets
        assert cp["format_name"] == "CP"
        assert math.isclose(cp["metadata_bits"], 16 * 3)  # 3b columns

    def test_worst_case_exceeds_expected(self):
        density = UniformDensity(0.25, 4096)
        tile = analyze_tile_format(classic_format("CSR"), (16, 16), density)
        assert tile[WORST_PAYLOAD] > tile[PAYLOAD]


class TestHierarchicalPruning:
    def test_empty_rows_prune_lower_rank(self):
        # With hypergeometric stats some rows are empty; CP at the
        # row rank stores fewer fibers than the full row count.
        fmt = FormatSpec(
            [FormatRank(CoordinatePayload()), FormatRank(CoordinatePayload())]
        )
        density = UniformDensity(0.05, 256)
        row_rank = per_rank(fmt, (16, 16), density)[0]
        assert row_rank["nonempty_elements"] < 16

    def test_uncompressed_outer_keeps_all_fibers(self):
        fmt = FormatSpec(
            [FormatRank(Bitmask()), FormatRank(RunLengthEncoding(4))]
        )
        density = UniformDensity(0.5, 64)
        # The RLE rank sees 'stored fibers' = nonempty rows only
        # (bitmask prunes), but metadata for rank0 covers all 8.
        assert per_rank(fmt, (8, 8), density)[0]["metadata_bits"] == 8


class TestActualDataAgreement:
    def test_payload_matches_exact_nnz(self):
        data = np.zeros((8, 8))
        data[0, :4] = 1.0
        model = ActualDataDensity(data)
        tile = analyze_tile_format(classic_format("CSR"), (8, 8), model)
        assert math.isclose(tile[PAYLOAD], 4.0)

    def test_metadata_bits_per_element(self):
        data = np.zeros((4, 4))
        data[0, 0] = 1.0
        tile = analyze_tile_format(
            classic_format("CSR"), (4, 4), ActualDataDensity(data)
        )
        bits_per_element = format_scalars(tile[0], tile[1:], 1, 1, True)[1]
        assert bits_per_element == tile[METADATA_BITS] / 16


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
        ranks = per_rank(second_spec, (16, 16), density)
        assert [r["format_name"] for r in ranks] == ["UOP", "CP(3b)"]
