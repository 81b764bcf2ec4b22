"""Tests for per-rank format models and classic format composition."""

import math

import numpy as np
import pytest

from repro.common.cache import spec_digest
from repro.common.errors import SpecError
from repro.sparse.formats import (
    Bitmask,
    CoordinatePayload,
    FormatRank,
    FormatSpec,
    RunLengthEncoding,
    Uncompressed,
    UncompressedBitmask,
    UncompressedOffsetPairs,
    classic_format,
    dense_format,
)


class TestPerRankOverheads:
    """The paper's overhead formulas (Sec 5.3.3)."""

    def test_bitmask_is_shape_bits(self):
        # Overhead_B = total #elements x 1 bit.
        assert Bitmask().metadata_bits(64, 2, 10) == 128

    def test_rle_is_nnz_times_runbits(self):
        # Overhead_RLE = #nonempty x run_length_bitwidth (short runs).
        fmt = RunLengthEncoding(run_bits=4)
        bits = fmt.metadata_bits(16, 1, 8)
        assert bits >= 8 * 4
        assert bits < 8 * 4 * 1.5  # overflow correction stays small

    def test_rle_overflow_grows_when_sparse(self):
        fmt = RunLengthEncoding(run_bits=2)
        dense_case = fmt.metadata_bits(16, 1, 8)
        sparse_case = fmt.metadata_bits(1024, 1, 8)
        assert sparse_case > dense_case

    def test_cp_uses_coordinate_width(self):
        assert CoordinatePayload().metadata_bits(256, 1, 10) == 80
        assert CoordinatePayload(coord_bits=2).metadata_bits(256, 1, 10) == 20

    def test_uop_pays_per_position(self):
        # CSR row pointers: (rows + 1) offsets even for empty rows.
        fmt = UncompressedOffsetPairs(offset_bits=8)
        assert fmt.metadata_bits(16, 1, 4) == 17 * 8

    def test_uncompressed_is_free(self):
        assert Uncompressed().metadata_bits(64, 4, 32) == 0

    def test_ub_keeps_payloads(self):
        assert UncompressedBitmask().compressed is False
        assert UncompressedBitmask().metadata_bits(8, 2, 3) == 16

    def test_rle_rejects_bad_bits(self):
        with pytest.raises(SpecError):
            RunLengthEncoding(run_bits=0)


class TestFormatSpec:
    def test_compressed_flag(self):
        assert classic_format("CSR").is_compressed
        assert not dense_format(2).is_compressed

    def test_rank_count_with_flattening(self):
        assert classic_format("COO").tensor_rank_count == 2
        assert classic_format("CSR").tensor_rank_count == 2
        assert classic_format("CSB").tensor_rank_count == 3

    def test_describe(self):
        assert classic_format("CSR").describe() == "UOP-CP"
        assert classic_format("COO").describe() == "CP^2"

    def test_group_extents_flattening(self):
        coo = classic_format("COO")
        assert coo.group_extents((4, 8)) == [32]

    def test_group_extents_pads_missing_outer_ranks(self):
        csb = classic_format("CSB")
        assert csb.group_extents((8,)) == [1, 1, 8]

    def test_group_extents_folds_surplus_ranks(self):
        csr = classic_format("CSR")
        # A 4-rank tile under a 2-rank format folds the outer ranks.
        assert csr.group_extents((2, 3, 4, 5)) == [2 * 3 * 4, 5]

    def test_unknown_classic(self):
        with pytest.raises(SpecError):
            classic_format("ELL")

    def test_empty_spec_rejected(self):
        with pytest.raises(SpecError):
            FormatSpec([])

    def test_flattened_ranks_positive(self):
        with pytest.raises(SpecError):
            FormatRank(Bitmask(), flattened_ranks=0)

    @pytest.mark.parametrize("name", ["CSR", "COO", "CSB", "CSF"])
    def test_equal_classic_specs_are_equal(self, name):
        a, b = classic_format(name), classic_format(name)
        assert a.ranks is not b.ranks
        assert a == b
        assert hash(tuple(a.ranks)) == hash(tuple(b.ranks))
        assert spec_digest(a) == spec_digest(b)

    @pytest.mark.parametrize(
        "rank,text",
        [(Uncompressed, "U"), (Bitmask, "B"), (UncompressedBitmask, "UB")],
    )
    def test_parameterless_ranks_compare_by_content(self, rank, text):
        assert rank() == rank()
        assert hash(rank()) == hash(rank())
        assert repr(rank()) == text
        assert FormatSpec([FormatRank(rank())]) == FormatSpec([FormatRank(rank())])
        for other in {Uncompressed, Bitmask, UncompressedBitmask} - {rank}:
            assert rank() != other()


class TestRankParameters:
    """Bit widths and rank counts are ints >= 1 (``coord_bits`` and
    ``offset_bits`` may be ``None``), checked at construction; equal
    formats share one repr and one digest."""

    @pytest.mark.parametrize(
        "build,name",
        [
            (lambda: CoordinatePayload(coord_bits=True), "coord_bits"),
            (lambda: CoordinatePayload(coord_bits=-2), "coord_bits"),
            (lambda: CoordinatePayload(coord_bits=0), "coord_bits"),
            (lambda: CoordinatePayload(coord_bits="3"), "coord_bits"),
            (lambda: CoordinatePayload(coord_bits=2.0), "coord_bits"),
            (lambda: UncompressedOffsetPairs(offset_bits=-1), "offset_bits"),
            (lambda: UncompressedOffsetPairs(offset_bits=0), "offset_bits"),
            (lambda: UncompressedOffsetPairs(offset_bits=8.0), "offset_bits"),
            (lambda: RunLengthEncoding(run_bits=2.5), "run_bits"),
            (lambda: RunLengthEncoding(run_bits="4"), "run_bits"),
            (lambda: RunLengthEncoding(run_bits=None), "run_bits"),
            (lambda: RunLengthEncoding(run_bits=True), "run_bits"),
            (
                lambda: FormatRank(Bitmask(), flattened_ranks="2"),
                "flattened_ranks",
            ),
            (
                lambda: FormatRank(Bitmask(), flattened_ranks=2.0),
                "flattened_ranks",
            ),
            (
                lambda: FormatRank(Bitmask(), flattened_ranks=True),
                "flattened_ranks",
            ),
        ],
        ids=[
            "cp-bool", "cp-negative", "cp-zero", "cp-str", "cp-float",
            "uop-negative", "uop-zero", "uop-float",
            "rle-fraction", "rle-str", "rle-none", "rle-bool",
            "flattened-str", "flattened-float", "flattened-bool",
        ],
    )
    def test_bad_parameter_is_a_spec_error(self, build, name):
        with pytest.raises(SpecError, match=name):
            build()

    def test_negative_width_never_yields_negative_metadata(self):
        # These used to be accepted: -9.625 bits for a 16-wide CP
        # tile, and -17 bits for a UOP fiber.
        for build in (
            lambda: CoordinatePayload(coord_bits=-2),
            lambda: UncompressedOffsetPairs(offset_bits=-1),
        ):
            with pytest.raises(SpecError, match="at least 1"):
                build()

    def test_numpy_ints_are_stored_as_int(self):
        cp = CoordinatePayload(coord_bits=np.int64(3))
        uop = UncompressedOffsetPairs(offset_bits=np.int32(6))
        rle = RunLengthEncoding(run_bits=np.int16(4))
        rank = FormatRank(Bitmask(), flattened_ranks=np.int64(2))
        for value in (cp.coord_bits, uop.offset_bits, rle.run_bits):
            assert type(value) is int
        assert type(rank.flattened_ranks) is int
        assert cp == CoordinatePayload(coord_bits=3)

    def test_equal_formats_share_one_digest(self):
        def spec(bits, count) -> FormatSpec:
            return FormatSpec(
                [
                    FormatRank(
                        CoordinatePayload(coord_bits=bits),
                        flattened_ranks=count,
                    ),
                    FormatRank(RunLengthEncoding(run_bits=bits)),
                ]
            )

        plain, numpy = spec(3, 2), spec(np.int64(3), np.int64(2))
        assert repr(plain) == repr(numpy) == "FormatSpec(CP(3b)^2-RLE(3b))"
        assert spec_digest(plain) == spec_digest(numpy)


class TestTable2Compositions:
    """Table 2: classic formats as per-dimension format stacks."""

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("CSR", ["UOP", "CP"]),
            ("COO", ["CP"]),
            ("CSB", ["UOP", "CP", "CP"]),
            ("CSF", ["CP", "CP", "CP"]),
        ],
    )
    def test_rank_kinds(self, name, expected):
        fmt = classic_format(name)
        kinds = [repr(r.format) for r in fmt.ranks]
        assert kinds == expected
