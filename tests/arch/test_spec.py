"""Unit tests for architecture specifications."""

import pytest

from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.common.errors import SpecError


def _arch():
    return Architecture(
        "a",
        [
            StorageLevel("DRAM", None),
            StorageLevel("GLB", 1024),
            StorageLevel("RF", 64, instances=16),
        ],
        ComputeLevel("MAC", instances=16),
    )


class TestStorageLevel:
    def test_defaults(self):
        level = StorageLevel("L")
        assert level.word_bits == 16
        assert level.multicast

    def test_rejects_bad_instances(self):
        with pytest.raises(SpecError):
            StorageLevel("L", instances=0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(SpecError):
            StorageLevel("L", capacity_words=-1)

    def test_rejects_bad_word_bits(self):
        with pytest.raises(SpecError):
            StorageLevel("L", word_bits=0)

    @pytest.mark.parametrize("field", ["read_bandwidth", "write_bandwidth"])
    @pytest.mark.parametrize(
        "value", [0, -1, 0.0, float("nan"), "fast", True, [8]]
    )
    def test_rejects_bad_bandwidth(self, field, value):
        with pytest.raises(SpecError, match=field):
            StorageLevel("L", **{field: value})

    @pytest.mark.parametrize(
        "field", ["instances", "word_bits", "metadata_word_bits"]
    )
    @pytest.mark.parametrize("value", [0.5, 2.0, True, "4", -3])
    def test_rejects_non_integral_counts(self, field, value):
        with pytest.raises(SpecError, match=field):
            StorageLevel("L", **{field: value})

    @pytest.mark.parametrize("value", [0, -1, "big", False])
    def test_rejects_bad_capacity_values(self, value):
        with pytest.raises(SpecError, match="capacity_words"):
            StorageLevel("L", capacity_words=value)

    def test_accepted_values_are_kept_as_given(self):
        level = StorageLevel(
            "L", 1024, read_bandwidth=8, write_bandwidth=2.5, instances=4
        )
        assert level.read_bandwidth == 8 and type(level.read_bandwidth) is int
        assert type(level.write_bandwidth) is float
        assert StorageLevel("L", read_bandwidth=None).read_bandwidth is None
        before = _arch().cache_key()
        assert _arch().cache_key() == before


class TestComputeLevel:
    @pytest.mark.parametrize("value", [0, 0.5, True, "16"])
    def test_rejects_bad_instances(self, value):
        with pytest.raises(SpecError, match="instances"):
            ComputeLevel("MAC", instances=value)


class TestArchitecture:
    def test_level_lookup(self):
        assert _arch().level("GLB").capacity_words == 1024

    def test_unknown_level(self):
        with pytest.raises(SpecError):
            _arch().level("L2")

    def test_level_index_counts_from_inner(self):
        arch = _arch()
        assert arch.level_index("RF") == 0
        assert arch.level_index("GLB") == 1
        assert arch.level_index("DRAM") == 2

    def test_inner_to_outer(self):
        names = [l.name for l in _arch().inner_to_outer()]
        assert names == ["RF", "GLB", "DRAM"]

    def test_rejects_duplicate_names(self):
        with pytest.raises(SpecError):
            Architecture(
                "a",
                [StorageLevel("L"), StorageLevel("L")],
                ComputeLevel(),
            )

    def test_rejects_compute_name_collision(self):
        with pytest.raises(SpecError):
            Architecture(
                "a", [StorageLevel("MAC")], ComputeLevel("MAC")
            )

    def test_rejects_empty_levels(self):
        with pytest.raises(SpecError):
            Architecture("a", [], ComputeLevel())

    def test_describe(self):
        text = _arch().describe()
        assert "DRAM" in text and "x16" in text
